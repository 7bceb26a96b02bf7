//! The uniform [`Session`] handle and its builder.

use crate::classify::classify;
use crate::explain::{cost_profile, Explain, ReplanEvent};
use crate::select::{select, EngineKind, Selection};
use ivm_core::cqap::CqapEngine;
use ivm_core::{CheckedBatch, EagerFactEngine, EngineError, Maintainer};
use ivm_data::ops::{lift_one, Lift};
use ivm_data::{Database, FxHashSet, Persist, Relation, Sym, Tuple, Update};
use ivm_dataflow::{
    DataflowEngine, DataflowStats, EngineFamily, FamilyDecision, LearnedCardinalities,
    ReplanDecision, ReplanPolicy, ReplanTrigger, StoreHub,
};
use ivm_hl::HeavyLightEngine;
use ivm_obs::{
    Counter, Histogram, LabelId, MetricsRegistry, MetricsServer, MetricsSnapshot, Span, Tracer,
};
use ivm_query::Query;
use ivm_ring::Semiring;
use ivm_shard::{ShardedEngine, ShardedStats};
use ivm_store::{record_recovery_failure, Recovered, SnapshotDoc, Store, StoreError};
use std::borrow::Cow;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

/// Configures and builds a [`Session`].
///
/// Obtained from [`Session::builder`]. "Choosing nothing" is the intended
/// use: [`SessionBuilder::build`] runs the dichotomy analyses and stands
/// up the engine the query's class admits. The knobs exist for the cases
/// where the caller knows more than the classifier:
///
/// * [`SessionBuilder::shards`] — scale out across a hash-partitioned
///   worker fleet instead of one thread;
/// * [`SessionBuilder::engine`] — force a specific engine kind
///   (benchmark comparison rows; the dichotomy is bypassed, and an
///   engine that rejects the query surfaces its error unchanged);
/// * [`SessionBuilder::lift`] — a custom payload lifting, e.g. the
///   covariance ring for in-database learning.
pub struct SessionBuilder<R: Semiring> {
    query: Query,
    lift: Lift<R>,
    shards: Option<usize>,
    forced: Option<EngineKind>,
    adaptive: Option<ReplanPolicy>,
    observe: Option<MetricsRegistry>,
    serve_metrics: Option<String>,
    shared: Option<StoreHub<R>>,
    /// `(store directory, monomorphized append hook, snapshot hook)` —
    /// the hooks capture the `R: Persist` bound at
    /// [`SessionBuilder::durable`] time, so the write-ahead path in the
    /// `Persist`-agnostic ingestion code can journal (and auto-snapshot)
    /// without constraining every session payload type.
    durable: Option<(PathBuf, JournalAppend<R>, SnapshotFn<R>)>,
    /// Journal-bytes threshold for automatic snapshot consolidation (see
    /// [`SessionBuilder::auto_snapshot`]).
    auto_snapshot: Option<u64>,
}

/// The strategy tag a dataflow-backed (or fleet-backed) session persists
/// in its snapshots: the tag earlier versions wrote for the multiway plan,
/// so an earlier binary reading the snapshot recovers that plan too.
/// Recovery reads every tag but [`HL_STRATEGY_TAG`] — 0 and the retired
/// left-deep tag 1 included — as the dataflow family.
const DATAFLOW_STRATEGY_TAG: u8 = 2;

/// The strategy tag a heavy-light-backed session persists in its
/// snapshots: recovery rebuilds exactly the engine family the dead session
/// was running.
const HL_STRATEGY_TAG: u8 = 7;

/// The monomorphized journal-append hook a durable session carries (see
/// [`SessionBuilder::durable`] for why it is a `fn` pointer).
type JournalAppend<R> = fn(&mut Store, u64, &[Update<R>]) -> Result<(), StoreError>;

/// The monomorphized snapshot hook behind
/// [`SessionBuilder::auto_snapshot`] — same pattern as [`JournalAppend`]:
/// [`Session::snapshot`] needs `R: Persist`, the ingestion paths that
/// trigger it do not.
type SnapshotFn<R> = fn(&mut Session<R>) -> Result<u64, EngineError>;

fn journal_append<R: Semiring + Persist>(
    store: &mut Store,
    epoch: u64,
    batch: &[Update<R>],
) -> Result<(), StoreError> {
    store.append(epoch, batch)
}

fn store_error(e: StoreError) -> EngineError {
    EngineError::Store(e.to_string())
}

fn snapshot_hook<R: Semiring + Persist>(session: &mut Session<R>) -> Result<u64, EngineError> {
    session.snapshot()
}

impl<R: Semiring> SessionBuilder<R> {
    /// Start configuring a session for `query`.
    pub fn new(query: Query) -> Self {
        SessionBuilder {
            query,
            lift: lift_one,
            shards: None,
            forced: None,
            adaptive: None,
            observe: None,
            serve_metrics: None,
            shared: None,
            durable: None,
            auto_snapshot: None,
        }
    }

    /// Request a sharded fleet of `n` hash-partitioned workers (clamped
    /// to ≥ 1; the shard planner may clamp a degenerate plan back to one
    /// worker — `explain()` reports the fleet actually stood up).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n.max(1));
        self
    }

    /// Bypass auto-selection and force `kind`. With
    /// [`EngineKind::Sharded`] the fleet size comes from
    /// [`SessionBuilder::shards`] (default 2); combining any *other*
    /// forced kind with a `.shards(n)` request is contradictory and
    /// makes [`SessionBuilder::build`] fail instead of silently dropping
    /// the fleet.
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.forced = Some(kind);
        self
    }

    /// Use a custom payload lifting instead of `lift_one`.
    pub fn lift(mut self, lift: Lift<R>) -> Self {
        self.lift = lift;
        self
    }

    /// Attach a metrics registry: the session and its backend publish
    /// live counters, gauges, and latency histograms into `registry`.
    ///
    /// Session-level series live under `ivm.session.*` (ingestion calls,
    /// tuples, wall-clock ingest latency, replans). A dataflow-backed
    /// session additionally publishes per-operator apply time and tuple
    /// counters under `ivm.dataflow.*`; a sharded fleet publishes
    /// per-shard queue depth, enqueue-to-settle latency, busy/idle time,
    /// and router-side timings under `ivm.fleet.*`, with each worker's
    /// operators under `ivm.fleet.shard{i}.dataflow.*`. Adaptive replans
    /// re-attach the fresh plan automatically, so series survive
    /// re-lowering (counters stay cumulative across the reset).
    ///
    /// Without this call every metrics hook in the stack stays a no-op
    /// (`Option` fields left `None` — nothing is allocated or timed), and
    /// [`Session::metrics`] returns an empty snapshot.
    pub fn observe(mut self, registry: &MetricsRegistry) -> Self {
        self.observe = Some(registry.clone());
        self
    }

    /// Expose the attached registry over HTTP while the session lives:
    /// a dependency-free scrape endpoint bound to `addr` (use port 0 to
    /// let the OS pick; [`Session::metrics_addr`] reports the bound
    /// address). Serves `/metrics` (Prometheus text), `/snapshot.json`
    /// (the full [`MetricsSnapshot`]), and `/epochs.json` (recent
    /// per-epoch latency waterfalls). Requires
    /// [`SessionBuilder::observe`]; the server shuts down when the
    /// session is dropped.
    pub fn serve_metrics(mut self, addr: impl Into<String>) -> Self {
        self.serve_metrics = Some(addr.into());
        self
    }

    /// Join the multiway trie stores of a coordinator-owned
    /// [`StoreHub`]: where the session's lowered plan probes a relation
    /// another hub member also maintains, both engines read one shared
    /// store instead of mirroring it (see
    /// [`DataflowEngine::share_stores`]). The serving layer (`ivm-serve`)
    /// is the intended caller — its node advances the hub exactly once
    /// per ingest batch via [`StoreHub::advance_batch`], after every
    /// member engine has processed the batch.
    ///
    /// The hook is a no-op for backends without multiway trie stores
    /// (the specialized engines). It is refused in
    /// combination with [`SessionBuilder::adaptive`] (a replan re-lowers
    /// the plan mid-epoch, which would desynchronize the hub's
    /// deferred-advance protocol) and with sharded fleets (worker threads
    /// own their stores).
    pub fn shared_stores(mut self, hub: &StoreHub<R>) -> Self {
        self.shared = Some(hub.clone());
        self
    }

    /// Arm adaptive replanning under `policy`.
    ///
    /// The session then keeps its own base store — the one copy of the
    /// base relations outside the engine, shared with
    /// [`SessionBuilder::durable`] — which counts live relation sizes
    /// (and, for triangle-class queries, per-key degrees) as it applies
    /// every accepted batch. When the policy decides a re-lowering pays
    /// for itself (first data after an empty-database build, or a
    /// predicted cost ratio from the learned counts with hysteresis) the
    /// session re-derives the plan's variable order via
    /// `DataflowEngine::replan_with_cards`,
    /// replaying that base — broadcast fleet-wide for sharded sessions.
    /// Every replan is recorded in [`Explain::replans`], and
    /// [`Explain::engine`]/[`Explain::cost`] track the plan actually
    /// running.
    ///
    /// Only the generic dataflow, heavy-light and sharded backends can
    /// replan; for any other specialized engine (whose per-class
    /// guarantees leave nothing to re-derive) the policy is recorded as
    /// inert in `explain()` and the session behaves as if it were absent
    /// — no base is kept on its account.
    pub fn adaptive(mut self, policy: ReplanPolicy) -> Self {
        self.adaptive = Some(policy);
        self
    }

    /// Classify the query, select the engine, build it over `db`, and
    /// return the uniform handle.
    ///
    /// When the dichotomy's preferred *specialized* engine unexpectedly
    /// fails to build, auto-selection falls back to the generic dataflow
    /// engine and records the fallback in `explain()`; a *forced* engine
    /// propagates its build error unchanged — forcing is how callers ask
    /// the dichotomy to be enforced rather than routed around.
    pub fn build(self, db: &Database<R>) -> Result<Session<R>, EngineError> {
        self.build_over(Cow::Borrowed(db), None)
    }

    /// [`SessionBuilder::build`] over a borrowed database, or — from
    /// [`SessionBuilder::recover`] — over a snapshot's base the session
    /// takes as its own, journaling on into the `recovered` store.
    fn build_over(
        self,
        db: Cow<'_, Database<R>>,
        recovered: Option<(Store, u64)>,
    ) -> Result<Session<R>, EngineError> {
        // The adaptive window clock starts *here*, not after the backend
        // stands up: the first window then spans classification, build,
        // and preprocessing, so a replan firing on the very first batch
        // still has a non-degenerate throughput denominator behind its
        // `before_tps` evidence.
        let built_at = Instant::now();
        // A shard request combined with a forced single-threaded engine is
        // contradictory; dropping either half silently would hand the
        // caller an unauditable session, so refuse instead.
        if let (Some(kind), Some(n)) = (self.forced, self.shards) {
            if kind != EngineKind::Sharded {
                return Err(EngineError::NotSupported(format!(
                    "conflicting session request: .shards({n}) asks for a \
                     fleet but .engine({kind:?}) forces a single-threaded \
                     engine; drop one of the two (only EngineKind::Sharded \
                     composes with .shards)"
                )));
            }
        }
        // Shared trie stores follow a coordinator-driven advance protocol
        // (one `StoreHub::advance_batch` per ingest epoch, after every
        // member searched). A mid-stream replan re-lowers the plan with
        // fresh stores *between* a member's search and the hub's advance,
        // and a sharded fleet hides its engines on worker threads — both
        // would break the protocol silently, so refuse up front.
        if self.shared.is_some() {
            if self.adaptive.is_some() {
                return Err(EngineError::NotSupported(
                    "conflicting session request: .shared_stores() joins a \
                     coordinator-advanced store hub but .adaptive() re-lowers \
                     the plan mid-stream; drop one of the two"
                        .into(),
                ));
            }
            if self.shards.is_some() || self.forced == Some(EngineKind::Sharded) {
                return Err(EngineError::NotSupported(
                    "conflicting session request: .shared_stores() needs the \
                     engine on the calling thread but a sharded fleet owns \
                     its engines on workers; drop one of the two"
                        .into(),
                ));
            }
        }
        // Classification holds an atom set per variable in a `u64` mask.
        self.query
            .check_atoms()
            .map_err(EngineError::NotSupported)?;
        let cls = classify(&self.query);
        let mut selection = match self.forced {
            Some(kind) => Selection {
                kind,
                reason: "forced by the caller (auto-selection bypassed)".into(),
            },
            None => select(&cls, self.shards),
        };
        let forced = self.forced.is_some();
        // A store hub shares multiway trie stores, which the heavy-light
        // engine does not keep — joining it would silently share nothing.
        // Demote an auto-selected heavy-light to the multiway dataflow
        // plan the hub can dedup (a *forced* heavy-light is honored; the
        // hub hook is then a no-op, same as for every specialized engine).
        if self.shared.is_some() && !forced && selection.kind == EngineKind::HeavyLight {
            selection = Selection {
                kind: EngineKind::DataflowMultiway,
                reason: format!(
                    "{} — demoted to the multiway dataflow plan: \
                     .shared_stores() dedups multiway trie stores, which \
                     the heavy-light engine does not keep",
                    selection.reason
                ),
            };
        }
        let mut fallback = None;
        let mut backend =
            match Self::build_backend(selection.kind, &self.query, &db, self.lift, self.shards) {
                Ok(b) => b,
                Err(e) if !forced && selection.kind.is_specialized() => {
                    // Safety net: the analyses admit the class but the
                    // concrete engine refused (e.g. a variable-order corner).
                    // The generic engine accepts any query shape.
                    fallback = Some(format!(
                        "{} failed to build ({e}); fell back to the generic \
                     dataflow engine",
                        selection.kind
                    ));
                    Backend::Dataflow(DataflowEngine::new(self.query.clone(), &db, self.lift)?)
                }
                Err(e) => return Err(e),
            };
        let engine = backend.kind();
        let shards = match &backend {
            Backend::Sharded(s) => s.shards(),
            _ => 1,
        };
        // The selection reason describes the engine *preferred*; after a
        // fallback the engine *running* is dataflow and the preferred
        // engine's guarantees no longer apply — say so instead of
        // repeating them next to the wrong engine name.
        let reason = match &fallback {
            None => selection.reason,
            Some(fb) => format!(
                "auto-selection preferred {} — {} — but {fb}; the \
                 specialized guarantees do not apply to this session",
                selection.kind, selection.reason
            ),
        };
        // Attach observability before the first batch, so even
        // preprocessing-era series start from a known base. Backends
        // without dataflow internals still get the session-level series.
        let obs = match &self.observe {
            None => None,
            Some(registry) => {
                backend.observe(registry)?;
                Some(SessionObs {
                    registry: registry.clone(),
                    tracer: registry.tracer().clone(),
                    root_label: registry.tracer().intern("session.ingest"),
                    ingest_ns: registry.histogram("ivm.session.ingest_ns"),
                    batches: registry.counter("ivm.session.batches"),
                    updates: registry.counter("ivm.session.updates"),
                    replans: registry.counter("ivm.session.replans"),
                })
            }
        };
        // The scrape endpoint serves whatever the registry holds, so it
        // needs one attached — and binding can fail (port in use), which
        // must surface at build time, not as a silently dead endpoint.
        let metrics_server = match &self.serve_metrics {
            None => None,
            Some(addr) => {
                let Some(registry) = &self.observe else {
                    return Err(EngineError::NotSupported(
                        ".serve_metrics() exposes the attached registry over \
                         HTTP, but no registry is attached; call .observe(...) \
                         as well"
                            .into(),
                    ));
                };
                Some(MetricsServer::start(addr, registry).map_err(|e| {
                    EngineError::NotSupported(format!(
                        ".serve_metrics({addr:?}) failed to bind: {e}"
                    ))
                })?)
            }
        };
        // Join the store hub after preprocessing: the freshly built owned
        // stores hold exactly the base state every other member's shared
        // store holds at this epoch, so adopting (or donating) them is a
        // pure storage dedup with no behavioral change. Gated on
        // all-dynamic queries: the hub advances stores by relation name,
        // and a static occurrence must never alias a store another
        // member's updates advance.
        let mut shared_store_hits = 0;
        if let (Some(hub), Backend::Dataflow(e)) = (&self.shared, &mut backend) {
            if self.query.atoms.iter().all(|a| a.dynamic) {
                shared_store_hits = e.share_stores(hub);
            }
        }
        // Arm adaptive replanning only where a re-lowering exists to
        // trigger; an inert policy keeps no base on its account.
        let (adaptive_note, adaptive) = match self.adaptive {
            None => (None, None),
            Some(policy) => {
                if matches!(
                    backend,
                    Backend::Dataflow(_) | Backend::Sharded(_) | Backend::HeavyLight(_)
                ) {
                    (
                        Some(format!("armed ({policy:?}); replans are recorded below")),
                        Some(AdaptiveState {
                            policy,
                            query: self.query.clone(),
                            lift: self.lift,
                            // Cross-family re-selection needs the query
                            // shape (a triangle-class cycle), a payload
                            // the heavy-light views can subtract, and a
                            // single engine to swap (a fleet's workers
                            // own theirs).
                            hl_eligible: cls.hl_eligible
                                && R::one().try_neg().is_some()
                                && backend.kind() != EngineKind::Sharded,
                            batch_index: 0,
                            batches_since_replan: 0,
                            window_started: built_at,
                            window_updates: 0,
                        }),
                    )
                } else {
                    (
                        Some(format!(
                            "requested but inert: {engine} carries its class's \
                             static guarantees, so there is no plan to re-derive"
                        )),
                        None,
                    )
                }
            }
        };
        // Stand up the durable store last: once it exists, every epoch the
        // session acknowledges is journaled, so nothing built above may
        // still fail. `durable()` starts a fresh history by contract; a
        // recovery hands in the history it reopened.
        if self.auto_snapshot.is_some() && self.durable.is_none() {
            return Err(EngineError::NotSupported(
                ".auto_snapshot() consolidates the durable journal, but the \
                 session is in-memory; call .durable(path) (or .recover) as \
                 well"
                    .into(),
            ));
        }
        let durable = match &self.durable {
            None => None,
            Some((path, append, snap)) => {
                let (mut store, epoch) = match recovered {
                    Some(reopened) => reopened,
                    None => (Store::create(path).map_err(store_error)?, 0),
                };
                if let Some(registry) = &self.observe {
                    store.observe(registry);
                }
                Some(DurableState {
                    store,
                    epoch,
                    append: *append,
                    auto_snapshot: self.auto_snapshot.map(|bytes| (bytes, *snap)),
                })
            }
        };
        // One base for both readers; degrees are only counted where a
        // family shift could ever read them.
        let base = (adaptive.is_some() || durable.is_some()).then(|| {
            let track_degrees = adaptive.as_ref().is_some_and(|st| st.hl_eligible);
            let owned = match db {
                Cow::Owned(base) => base,
                Cow::Borrowed(db) => mirror_db(&self.query, db),
            };
            SessionBase::new(owned, &self.query, track_degrees)
        });
        let explain = Explain {
            query: format!("{:?}", self.query),
            classification: cls.clone(),
            engine,
            shards,
            reason,
            cost: cost_profile(engine),
            fallback,
            adaptive: adaptive_note,
            replans: Vec::new(),
            recovered: None,
            heavy_light: None,
        };
        Ok(Session {
            backend,
            explain,
            base,
            adaptive,
            obs,
            metrics_server,
            shared_store_hits,
            durable,
        })
    }

    fn build_backend(
        kind: EngineKind,
        query: &Query,
        db: &Database<R>,
        lift: Lift<R>,
        shards: Option<usize>,
    ) -> Result<Backend<R>, EngineError> {
        Ok(match kind {
            EngineKind::EagerFact => {
                Backend::EagerFact(EagerFactEngine::new(query.clone(), db, lift)?)
            }
            EngineKind::Cqap => {
                let mut eng = CqapEngine::new(query.clone(), lift)?;
                // CqapEngine has no database constructor: preprocess by
                // replaying the initial contents of every atom relation —
                // O(|D|) with constant work per tuple, same as the others.
                let mut seen: FxHashSet<Sym> = FxHashSet::default();
                for atom in &query.atoms {
                    if seen.insert(atom.name) {
                        if let Some(rel) = db.get(atom.name) {
                            for (t, r) in rel.iter() {
                                eng.apply(&Update::with_payload(atom.name, t.clone(), r.clone()))?;
                            }
                        }
                    }
                }
                Backend::Cqap(eng)
            }
            EngineKind::HeavyLight => {
                Backend::HeavyLight(HeavyLightEngine::new(query.clone(), db, lift)?)
            }
            EngineKind::DataflowMultiway => {
                Backend::Dataflow(DataflowEngine::new(query.clone(), db, lift)?)
            }
            EngineKind::Sharded => Backend::Sharded(ShardedEngine::new(
                query.clone(),
                db,
                lift,
                shards.unwrap_or(2),
            )?),
        })
    }
}

impl<R: Semiring + Persist> SessionBuilder<R> {
    /// Make the session durable: start a **new** journal (and snapshot
    /// slot) in the directory at `path`, created if missing — any
    /// previous history there is discarded (resume one with
    /// [`SessionBuilder::recover`] instead).
    ///
    /// Every ingestion call is then journaled *write-ahead*: the batch is
    /// appended under a fresh epoch and fsynced before the delta is
    /// returned, so nothing acknowledged is lost to a crash. The fsync
    /// runs on the journal's committer thread while the backend maintains
    /// the batch, and the call returns once both are done. A failed write
    /// or fsync poisons the session: that call and every later ingestion
    /// call or snapshot return [`EngineError::Store`], and the in-memory
    /// view may hold the batch that never became durable — rebuild with
    /// [`SessionBuilder::recover`].
    /// [`Session::snapshot`] consolidates the history into one atomic
    /// snapshot file and truncates the journal behind it, bounding
    /// recovery time by the tail since the last snapshot rather than
    /// total history. With [`SessionBuilder::observe`] attached, the
    /// store publishes `ivm.store.*` series (append, commit and device
    /// sync latency, journal/snapshot bytes, record/commit/snapshot
    /// counts).
    pub fn durable(mut self, path: impl Into<PathBuf>) -> Self {
        self.durable = Some((path.into(), journal_append::<R>, snapshot_hook::<R>));
        self
    }

    /// Consolidate the journal automatically: whenever it grows past
    /// `journal_bytes`, the next acknowledged ingestion call runs
    /// [`Session::snapshot`] before returning — bounding both recovery
    /// time and on-disk history without any caller-side bookkeeping
    /// (clamped to ≥ 1 byte; manual snapshots remain available and reset
    /// the same journal). Requires [`SessionBuilder::durable`] (or
    /// [`SessionBuilder::recover`]); an in-memory build refuses it.
    pub fn auto_snapshot(mut self, journal_bytes: u64) -> Self {
        self.auto_snapshot = Some(journal_bytes.max(1));
        self
    }

    /// Resume the durable history at `path`: load the newest valid
    /// snapshot, rebuild the backend *warm* over its base, replay the
    /// journal tail beyond it through the ordinary batch path, and keep
    /// journaling where the pre-kill session left off.
    ///
    /// Warm means warm: the snapshot's base holds the full pre-kill
    /// contents, so plan lowering orders by exactly the cardinalities the
    /// dead session had learned — no blind build, no first-data replan —
    /// and the persisted strategy tag rebuilds the engine family the dead
    /// session was running if a pre-kill adaptive replan had switched it.
    /// The rebuilt view is cross-checked against the snapshot's recorded
    /// view before any tail replays.
    /// [`crate::Explain::recovered`] records the snapshot epoch and tail
    /// length.
    ///
    /// `db` is the replay source when no snapshot was ever taken: pass
    /// the database the original session was built over (the common
    /// streaming case passes the same empty database).
    ///
    /// Failures — a corrupt snapshot, a mismatched query, a base or a
    /// rebuilt view that disagrees with what the snapshot recorded —
    /// surface as [`EngineError::Store`]; with a registry attached they
    /// also bump `ivm.store.recovery_failures` and write a flight-recorder
    /// dump, so the post-mortem survives the process that could not
    /// start. A torn journal *tail* is not a failure: replay stops at the
    /// last valid record and the note lands in `explain()`.
    pub fn recover(
        mut self,
        path: impl Into<PathBuf>,
        db: &Database<R>,
    ) -> Result<Session<R>, EngineError> {
        let path: PathBuf = path.into();
        let observe = self.observe.clone();
        let fail = |msg: String| {
            if let Some(registry) = &observe {
                record_recovery_failure(registry, &msg);
            }
            EngineError::Store(msg)
        };
        let Recovered {
            store,
            snapshot,
            tail,
            torn,
        } = Store::recover::<R>(&path)
            .map_err(|e| fail(format!("recovering {}: {e}", path.display())))?;
        if let Some(s) = &snapshot {
            if s.query_name != self.query.name.name() {
                return Err(fail(format!(
                    "snapshot at {} was taken for query {:?}, not {:?}",
                    path.display(),
                    s.query_name,
                    self.query.name.name()
                )));
            }
            // The recorded sizes, recounted from the base, catch a base
            // that lost tuples which never reach the view — the view
            // cross-check below cannot see those.
            let counted = relation_sizes(&s.base);
            let cards = &s.cards;
            let differs = |e: &&(Sym, u64)| !counted.contains(e) || !cards.contains(e);
            if let Some((rel, _)) = counted.iter().chain(cards).find(differs) {
                let size = |list: &[(Sym, u64)]| {
                    list.iter().find(|(r, _)| r == rel).map_or(0, |&(_, n)| n)
                };
                return Err(fail(format!(
                    "snapshot base holds {} tuples of {}, its recorded size is {}",
                    size(&counted),
                    rel.name(),
                    size(cards)
                )));
            }
        }
        let snap_epoch = snapshot.as_ref().map_or(0, |s| s.epoch);
        let last_epoch = tail
            .iter()
            .fold(snap_epoch, |last, (epoch, _)| last.max(*epoch));
        let (strategy_tag, persisted_degrees, base, recorded_view) = match snapshot {
            Some(s) => (s.strategy_tag, s.degrees, Cow::Owned(s.base), Some(s.view)),
            // Never snapshotted: replay the whole journal over `db`.
            None => (0, Vec::new(), Cow::Borrowed(db), None),
        };
        // Build fresh over the snapshot base — informed lowering, since
        // it holds the exact pre-kill contents — and move it into the
        // session as its base; the session journals on into the recovered
        // store, so nothing is truncated.
        self.durable = Some((path, journal_append::<R>, snapshot_hook::<R>));
        let lift = self.lift;
        let query = self.query.clone();
        let mut session = self.build_over(base, Some((store, last_epoch)))?;
        let base = &session
            .base
            .as_ref()
            .expect("a durable session keeps a base")
            .db;
        // Family reconciliation: the persisted tag names the engine
        // *family* the dead session was running. A pre-kill cross-family
        // replan can leave the fresh build on the other family; rebuild
        // from the snapshot base so the recovered session re-lowers to
        // exactly the pre-kill family. The plan within the dataflow family
        // needs nothing more: lowered from the snapshot base, its variable
        // order is the one the pre-kill counts derive.
        let reconciled = match (strategy_tag == HL_STRATEGY_TAG, &session.backend) {
            (true, Backend::HeavyLight(_)) => None,
            (true, _) => Some(Backend::HeavyLight(
                HeavyLightEngine::new(query.clone(), base, lift).map_err(|e| {
                    fail(format!("re-lowering the persisted heavy-light family: {e}"))
                })?,
            )),
            (false, Backend::HeavyLight(_)) => Some(Backend::Dataflow(DataflowEngine::new(
                query.clone(),
                base,
                lift,
            )?)),
            (false, _) => None,
        };
        // The persisted per-key degrees play the same role for the
        // learned statistics that the recorded view plays for the engine
        // state: counted from the same base, they must agree. (An armed
        // policy's live counts were seeded from this base at build, so the
        // tail replay performs zero family re-selection.)
        if !persisted_degrees.is_empty() {
            let mut fresh = LearnedCardinalities::new();
            fresh.rebuild_degrees(base, &query);
            if fresh.export_degrees() != persisted_degrees {
                return Err(fail(
                    "rebuilt per-key degree sketch disagrees with the \
                     snapshot's recorded one"
                        .into(),
                ));
            }
        }
        if let Some(fresh) = reconciled {
            session.install_backend(Some(fresh), None)?;
        }
        // Cross-check before any tail replays: rebuilt from the same base,
        // the view must match the snapshot's recorded contents exactly —
        // a disagreement means the snapshot is lying about one of them.
        if let Some(view) = &recorded_view {
            let rebuilt = session.output();
            let agrees =
                rebuilt.len() == view.len() && view.iter().all(|(t, r)| &rebuilt.get(t) == r);
            if !agrees {
                return Err(fail(format!(
                    "rebuilt view disagrees with the snapshot's recorded view \
                     ({} tuples rebuilt vs {} recorded)",
                    rebuilt.len(),
                    view.len()
                )));
            }
        }
        // Replay the tail through the ordinary maintenance path, minus
        // the journaling — recovery is just another update stream. A
        // journal written before every refusal happened ahead of it can
        // hold a batch the ingestion rule refuses; the backend refuses it
        // again here, and it is skipped.
        let replayed_epochs = tail.len() as u64;
        let mut replayed_updates = 0u64;
        for (_, batch) in &tail {
            let Ok(checked) = CheckedBatch::new(&session.query().atoms, batch) else {
                continue;
            };
            if session.backend.maintainer().apply_checked(&checked).is_ok() {
                session.after_ingest(&checked)?;
                replayed_updates += batch.len() as u64;
            }
        }
        session.drain()?;
        if let Some(registry) = &observe {
            registry.counter("ivm.store.recoveries").inc();
            registry
                .counter("ivm.store.replayed_epochs")
                .add(replayed_epochs);
            registry
                .counter("ivm.store.replayed_updates")
                .add(replayed_updates);
        }
        let torn_note = torn
            .map(|t| format!("; journal tail torn ({t})"))
            .unwrap_or_default();
        session.explain.recovered = Some(if recorded_view.is_some() {
            format!(
                "warm restart from snapshot epoch {snap_epoch}; replayed \
                 {replayed_epochs} journaled epochs ({replayed_updates} \
                 updates){torn_note}"
            )
        } else {
            format!(
                "cold recovery (no snapshot on disk); replayed \
                 {replayed_epochs} journaled epochs ({replayed_updates} \
                 updates){torn_note}"
            )
        });
        Ok(session)
    }
}

impl EngineKind {
    /// Whether auto-selection may fall back to dataflow when this kind
    /// fails to build (the generic engines never fail on query shape).
    fn is_specialized(self) -> bool {
        !matches!(self, EngineKind::DataflowMultiway | EngineKind::Sharded)
    }
}

/// The session's one copy of the base relations — the ground truth of
/// everything the backend accepted, which engines deliberately do not
/// materialize. Kept iff something reads it: an armed policy (replans
/// replay it and weigh its counts) or a durable store (snapshots
/// serialize it).
struct SessionBase<R: Semiring> {
    db: Database<R>,
    /// Sizes and (when seeded) per-key degrees, counted from the presence
    /// transitions `db` reports — never re-read from it.
    learned: LearnedCardinalities,
}

impl<R: Semiring> SessionBase<R> {
    /// Own `db`, seeding the counts from what it already holds (degrees,
    /// one scan, only when `track_degrees`): preloaded relations must show
    /// their skew from the first batch, and deleting a preloaded pair must
    /// decrement, not underflow.
    fn new(db: Database<R>, query: &Query, track_degrees: bool) -> Self {
        let mut learned = LearnedCardinalities::new();
        learned.refresh(&db, query);
        if track_degrees {
            learned.rebuild_degrees(&db, query);
        }
        SessionBase { db, learned }
    }
}

/// The bookkeeping behind an armed [`SessionBuilder::adaptive`] request:
/// the policy, what a cross-family rebuild needs, and the hysteresis
/// window. The counts it weighs and the base a replan replays are the
/// session's [`SessionBase`].
struct AdaptiveState<R: Semiring> {
    policy: ReplanPolicy,
    query: Query,
    /// The builder's payload lifting, kept so a cross-family replan can
    /// rebuild the new backend from the base mid-stream.
    lift: Lift<R>,
    /// Whether a family shift can run: the query (a triangle-class
    /// cycle) *and* the payload (a ring — the heavy-light views subtract)
    /// admit the heavy-light family, and the backend is a single engine.
    /// Gates [`ReplanPolicy::decide_family`] entirely, and the base's
    /// degree counting with it.
    hl_eligible: bool,
    /// Accepted ingestion calls since the session was built — single
    /// updates count as one-update batches (the index recorded in replan
    /// events).
    batch_index: u64,
    /// Hysteresis clock: ingestion calls since the last replan (or
    /// build). The policy's replay-amortization gate keeps per-update
    /// streams from replaying the base every `min_batches_between` calls.
    batches_since_replan: u64,
    /// When the current window opened (build or last replan) — the
    /// denominator of the window's ingestion throughput, which replan
    /// events record as their before/after evidence.
    window_started: Instant,
    /// Updates ingested in the current window (the numerator, and the
    /// policy's replay-amortization evidence).
    window_updates: u64,
}

/// The persistence bookkeeping behind [`SessionBuilder::durable`] /
/// [`SessionBuilder::recover`]: the session owns the store, and every
/// ingestion call that passes validation advances `epoch` and journals
/// write-ahead through `append`. What a snapshot serializes is the
/// session's [`SessionBase`].
struct DurableState<R: Semiring> {
    store: Store,
    /// The last journaled epoch — one per ingestion call that passed the
    /// ingestion rule and reached the journal.
    epoch: u64,
    append: JournalAppend<R>,
    /// `(journal-bytes threshold, monomorphized snapshot hook)` — when
    /// the journal grows past the threshold, the next acknowledged
    /// ingestion call consolidates it via [`Session::snapshot`]
    /// automatically. `None` leaves snapshotting fully manual.
    auto_snapshot: Option<(u64, SnapshotFn<R>)>,
}

/// The session-level metric handles behind [`SessionBuilder::observe`]:
/// engine-agnostic ingestion series every backend gets, plus the registry
/// itself for [`Session::metrics`] snapshots.
struct SessionObs {
    registry: MetricsRegistry,
    /// The registry's trace ring: every ingestion call opens a
    /// `session.ingest` root span here (epoch = the batch ordinal), and
    /// downstream stages — router, shard workers, per-operator engine
    /// time — attach child spans under it, so
    /// [`ivm_obs::EpochWaterfall`] can reconstruct the epoch's latency
    /// breakdown.
    tracer: Tracer,
    root_label: LabelId,
    /// Wall-clock latency of each ingestion call (backend apply/enqueue
    /// plus adaptive bookkeeping), under `ivm.session.ingest_ns`.
    ingest_ns: Histogram,
    batches: Counter,
    updates: Counter,
    replans: Counter,
}

/// Copy every distinct atom relation of `query` out of `db` (statics
/// included — a replan replays them too), creating missing ones empty.
fn mirror_db<R: Semiring>(query: &Query, db: &Database<R>) -> Database<R> {
    let mut mirror = Database::new();
    let mut seen: FxHashSet<Sym> = FxHashSet::default();
    for atom in &query.atoms {
        if seen.insert(atom.name) {
            match db.get(atom.name) {
                Some(rel) => mirror.add(atom.name, rel.clone()),
                None => mirror.create(atom.name, atom.schema.clone()),
            }
        }
    }
    mirror
}

/// The engine a session stood up, behind one set of method surfaces.
enum Backend<R: Semiring> {
    EagerFact(EagerFactEngine<R>),
    Cqap(CqapEngine<R>),
    Dataflow(DataflowEngine<R>),
    HeavyLight(HeavyLightEngine<R>),
    Sharded(ShardedEngine<R>),
}

impl<R: Semiring> Backend<R> {
    fn kind(&self) -> EngineKind {
        match self {
            Backend::EagerFact(_) => EngineKind::EagerFact,
            Backend::Cqap(_) => EngineKind::Cqap,
            Backend::Dataflow(_) => EngineKind::DataflowMultiway,
            Backend::HeavyLight(_) => EngineKind::HeavyLight,
            Backend::Sharded(_) => EngineKind::Sharded,
        }
    }

    /// Publish the backend's own series under its fixed prefix (engines
    /// backfill from the registry, so counters stay cumulative when a
    /// fresh backend re-attaches).
    fn observe(&mut self, registry: &MetricsRegistry) -> Result<(), EngineError> {
        match self {
            Backend::Dataflow(e) => e.observe(registry, "ivm.dataflow"),
            Backend::Sharded(s) => s.observe(registry, "ivm.fleet")?,
            Backend::HeavyLight(e) => e.observe(registry, "ivm.hl"),
            _ => {}
        }
        Ok(())
    }

    fn maintainer(&mut self) -> &mut dyn Maintainer<R> {
        match self {
            Backend::EagerFact(e) => e,
            Backend::Cqap(e) => e,
            Backend::Dataflow(e) => e,
            Backend::HeavyLight(e) => e,
            Backend::Sharded(e) => e,
        }
    }

    fn maintainer_ref(&self) -> &dyn Maintainer<R> {
        match self {
            Backend::EagerFact(e) => e,
            Backend::Cqap(e) => e,
            Backend::Dataflow(e) => e,
            Backend::HeavyLight(e) => e,
            Backend::Sharded(e) => e,
        }
    }
}

/// One uniform handle over every maintenance engine in the workspace.
///
/// A `Session` *is* a [`Maintainer`]: ingestion goes through the one
/// batch-first trait surface ([`Maintainer::apply_batch`]), whatever
/// engine the dichotomy selected. On top of the trait the session adds
/// the capabilities that are engine-specific but deserve a uniform
/// spelling: pipelined ingestion ([`Session::enqueue_batch`] /
/// [`Session::drain`], native on sharded fleets, synchronous elsewhere),
/// CQAP access requests ([`Session::access`] / [`Session::probe`]), and
/// the [`Session::explain`] report.
pub struct Session<R: Semiring> {
    backend: Backend<R>,
    explain: Explain,
    /// The base relations outside the engine — present iff a replan
    /// policy is armed or the session is durable.
    base: Option<SessionBase<R>>,
    adaptive: Option<AdaptiveState<R>>,
    obs: Option<SessionObs>,
    /// The live scrape endpoint from [`SessionBuilder::serve_metrics`];
    /// holding it here ties the server's lifetime to the session's.
    metrics_server: Option<MetricsServer>,
    /// Multiway store slots that adopted an existing [`StoreHub`] store
    /// at build time (0 without [`SessionBuilder::shared_stores`]).
    shared_store_hits: usize,
    /// The durable store behind [`SessionBuilder::durable`] /
    /// [`SessionBuilder::recover`]; `None` for in-memory sessions.
    durable: Option<DurableState<R>>,
}

impl<R: Semiring> Session<R> {
    /// Start building a session for `query`.
    ///
    /// ```
    /// use ivm_core::Maintainer;
    /// use ivm_session::Session;
    ///
    /// let q = ivm_query::examples::fig3_query();
    /// let db = ivm_data::Database::new();
    /// let mut s = Session::<i64>::builder(q).build(&db).unwrap();
    /// assert_eq!(s.explain().engine, ivm_session::EngineKind::EagerFact);
    /// s.apply_batch(&[]).unwrap();
    /// ```
    pub fn builder(query: Query) -> SessionBuilder<R> {
        SessionBuilder::new(query)
    }

    /// The selection report: class, engine, reason, predicted costs, and
    /// for a heavy-light backend the live partition, read now.
    pub fn explain(&self) -> Explain {
        Explain {
            heavy_light: hl_note(&self.backend),
            ..self.explain.clone()
        }
    }

    /// The engine kind actually running.
    pub fn engine_kind(&self) -> EngineKind {
        self.explain.engine
    }

    /// One line naming the engine and the plan it runs: the join and its
    /// variable order for a dataflow, the partition for heavy-light, the
    /// routing plan and the shards' variable order for a fleet. Replan
    /// events record it before and after the change.
    pub fn describe(&self) -> String {
        match &self.backend {
            Backend::Dataflow(e) => e.plan(),
            Backend::HeavyLight(e) => e.plan(),
            Backend::Sharded(e) => e.describe(),
            _ => self.explain.engine.to_string(),
        }
    }

    /// Enqueue a batch without waiting for it to be processed.
    ///
    /// On a sharded fleet this is native pipelined ingestion: the call
    /// returns once every sub-batch is accepted by a shard queue
    /// (blocking only for backpressure), and the maintained view reflects
    /// the batch after the next [`Session::drain`] (or enumeration, which
    /// drains implicitly). Every other engine applies the batch
    /// synchronously and discards the delta, so the calling code stays
    /// engine-agnostic.
    pub fn enqueue_batch(&mut self, batch: &[Update<R>]) -> Result<(), EngineError> {
        let batch = CheckedBatch::new(&self.query().atoms, batch)?;
        self.ingest(&batch, |backend| match backend {
            Backend::Sharded(e) => e.enqueue_checked(&batch).map(|_| ()),
            other => other.maintainer().apply_checked(&batch).map(|_| ()),
        })
    }

    /// Settle all enqueued batches into the maintained view. A no-op for
    /// engines without a pipelined path.
    pub fn drain(&mut self) -> Result<(), EngineError> {
        match &mut self.backend {
            Backend::Sharded(e) => e.drain(),
            _ => Ok(()),
        }
    }

    /// Answer a CQAP access request: bind the query's input variables to
    /// `input` and enumerate `(output tuple, payload)` with constant
    /// delay. Errors unless the session is CQAP-backed.
    pub fn access(&self, input: &Tuple, f: &mut dyn FnMut(&Tuple, &R)) -> Result<(), EngineError> {
        match &self.backend {
            Backend::Cqap(e) => e.access(input, f),
            _ => Err(EngineError::NotSupported(format!(
                "access requests need a CQAP-backed session; this session \
                 runs {}",
                self.explain.engine
            ))),
        }
    }

    /// Scalar access answer (detection-style probes). Errors unless the
    /// session is CQAP-backed.
    pub fn probe(&self, input: &Tuple) -> Result<R, EngineError> {
        let mut acc = R::zero();
        self.access(input, &mut |_, r| acc.add_assign(r))?;
        Ok(acc)
    }

    /// Dataflow propagation counters, for dataflow- and shard-backed
    /// sessions (merged across shards for fleets).
    pub fn stats(&self) -> Option<DataflowStats> {
        match &self.backend {
            Backend::Dataflow(e) => Some(e.stats()),
            Backend::Sharded(e) => Some(e.stats()),
            _ => None,
        }
    }

    /// Tuples resident in this session's *privately owned* engine state
    /// (join indexes, multiway trie stores, the materialized view) — the
    /// per-session memory a serving layer amortizes away. Stores adopted
    /// from a [`StoreHub`] via [`SessionBuilder::shared_stores`] are
    /// excluded: they are counted once at the hub, not once per member.
    /// `None` for backends that do not expose a state census.
    pub fn resident_tuples(&self) -> Option<usize> {
        match &self.backend {
            Backend::Dataflow(e) => Some(e.resident_tuples()),
            Backend::HeavyLight(e) => Some(e.resident_tuples()),
            _ => None,
        }
    }

    /// How many multiway store slots adopted a store another
    /// [`StoreHub`] member had already donated when this session was
    /// built — the storage-dedup wins of
    /// [`SessionBuilder::shared_stores`]. Zero without a hub (or when
    /// this session was the first to donate every store it probes).
    pub fn shared_store_hits(&self) -> usize {
        self.shared_store_hits
    }

    /// Per-shard statistics, for shard-backed sessions.
    pub fn sharded_stats(&self) -> Option<ShardedStats> {
        match &self.backend {
            Backend::Sharded(e) => Some(e.sharded_stats()),
            _ => None,
        }
    }

    /// A point-in-time snapshot of every metric the session publishes —
    /// session-level ingestion series plus whatever the backend exposes
    /// (per-operator timings for dataflow, per-shard queues/latencies for
    /// fleets). Empty unless the session was built with
    /// [`SessionBuilder::observe`]. Render it with
    /// [`MetricsSnapshot::to_prometheus`] or
    /// [`MetricsSnapshot::render_json`].
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.obs {
            Some(o) => o.registry.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// The bound address of the live scrape endpoint, if
    /// [`SessionBuilder::serve_metrics`] started one — the address to
    /// `curl` when the builder asked for port 0.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_server.as_ref().map(|s| s.addr())
    }

    /// The per-epoch latency waterfalls reconstructible from the trace
    /// ring right now, oldest first — one per recent epoch whose
    /// `session.ingest` root span is still resident. Empty unless the
    /// session was built with [`SessionBuilder::observe`].
    pub fn waterfalls(&self) -> Vec<ivm_obs::EpochWaterfall> {
        match &self.obs {
            Some(o) => ivm_obs::EpochWaterfall::from_events(&o.tracer.events()),
            None => Vec::new(),
        }
    }

    /// Open one observed ingestion call: a `session.ingest` root span at
    /// the current epoch (the batch ordinal — `batches` pre-increment),
    /// installed as the ambient trace context so every downstream stage
    /// the backend call reaches attaches under it. `Some` exactly when a
    /// registry is attached, so detached sessions never read the clock.
    fn obs_begin(&self) -> Option<(Span, Instant)> {
        self.obs.as_ref().map(|o| {
            (
                o.tracer.enter(o.root_label, o.batches.get()),
                Instant::now(),
            )
        })
    }

    /// Close out one observed ingestion call: latency into the histogram
    /// and — with exactly the same elapsed value, so waterfall totals and
    /// `ingest_ns` observations agree to the nanosecond — onto the root
    /// span; call/tuple counts onto the counters.
    fn obs_ingest(&self, updates: usize, started: Option<(Span, Instant)>) {
        if let (Some(o), Some((span, t0))) = (&self.obs, started) {
            let elapsed = t0.elapsed();
            o.ingest_ns.record_duration(elapsed);
            span.finish_with(elapsed);
            o.batches.inc();
            o.updates.add(updates as u64);
        }
    }

    /// The one ingestion body behind [`Maintainer::apply_checked`] and
    /// [`Session::enqueue_batch`], which differ only in the backend call
    /// `run` makes. The batch passed the ingestion rule before it got
    /// here, so a refused batch consumes no epoch; the backend and the
    /// base take the same checked batch. The journal's fsync runs while
    /// the backend maintains the batch; whatever the backend and the
    /// bookkeeping after it say, the call waits for the fsync before
    /// returning, so nothing is acknowledged ahead of its journal.
    fn ingest<T>(
        &mut self,
        batch: &CheckedBatch<'_, R>,
        run: impl FnOnce(&mut Backend<R>) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let started = self.obs_begin();
        self.journal_ingest(batch)?;
        let applied = run(&mut self.backend).and_then(|out| {
            self.after_ingest(batch)?;
            Ok(out)
        });
        self.journal_wait()?;
        let out = applied?;
        self.obs_ingest(batch.len(), started);
        self.maybe_auto_snapshot()?;
        Ok(out)
    }

    /// Write-ahead journaling for one ingestion call: append the batch
    /// under a fresh epoch, write it, and start its fsync on the
    /// journal's committer thread; [`Session::journal_wait`] makes it
    /// durable before the delta is returned, so an acknowledged epoch can
    /// never be lost to a crash. A batch the ingestion rule refuses never
    /// gets here, so it consumes no epoch. A no-op for in-memory
    /// sessions.
    fn journal_ingest(&mut self, batch: &CheckedBatch<'_, R>) -> Result<(), EngineError> {
        let Some(d) = self.durable.as_mut() else {
            return Ok(());
        };
        (d.append)(&mut d.store, d.epoch + 1, &batch.updates()).map_err(store_error)?;
        d.epoch += 1;
        d.store.start_commit().map_err(store_error)
    }

    /// Wait for the fsync [`Session::journal_ingest`] started. A no-op
    /// for in-memory sessions.
    fn journal_wait(&mut self) -> Result<(), EngineError> {
        match self.durable.as_mut() {
            Some(d) => d.store.finish_commit().map_err(store_error),
            None => Ok(()),
        }
    }

    /// Consolidate the journal when it has outgrown the
    /// [`SessionBuilder::auto_snapshot`] threshold. Runs after the batch
    /// is acknowledged, so the snapshot always covers it; a no-op for
    /// in-memory sessions and below the threshold.
    fn maybe_auto_snapshot(&mut self) -> Result<(), EngineError> {
        let Some(d) = self.durable.as_ref() else {
            return Ok(());
        };
        let Some((threshold, snap)) = d.auto_snapshot else {
            return Ok(());
        };
        if d.store.journal_bytes() >= threshold {
            snap(self)?;
        }
        Ok(())
    }

    /// Bookkeeping after a batch the backend *accepted*: the base applies
    /// it (counting sizes and degrees as it goes), then an armed policy is
    /// consulted — re-lowering the plan, or swapping the engine family,
    /// and recording the event in `explain()` when it fires.
    fn after_ingest(&mut self, batch: &CheckedBatch<'_, R>) -> Result<(), EngineError> {
        if let Some(base) = self.base.as_mut() {
            for upd in batch.updates().iter() {
                let change = base.db.apply(upd);
                base.learned.observe(upd.relation, &upd.tuple, change);
            }
        }
        let (Some(st), Some(base)) = (self.adaptive.as_mut(), self.base.as_ref()) else {
            return Ok(());
        };
        st.batch_index += 1;
        st.batches_since_replan += 1;
        st.window_updates += batch.len() as u64;
        // The throughput of the window running *now* — evidence for the
        // replan events on both sides of it: it closes the last event's
        // `after_tps` (refreshed on every ingest, so the recorded value
        // always covers the whole post-replan window so far) and, if a
        // replan fires below, it becomes the new event's `before_tps`.
        // Clamp the denominator: on a coarse-granularity clock the window
        // can read as zero elapsed time even though updates flowed, and a
        // replan event recording `before_tps: 0.0` for a window that did
        // work is indistinguishable from a dead stream.
        let window_tps = {
            let secs = st.window_started.elapsed().as_secs_f64().max(1e-9);
            st.window_updates as f64 / secs
        };
        if let Some(last) = self.explain.replans.last_mut() {
            last.after_tps = Some(window_tps);
        }

        // Cross-family re-selection first: when the learned degree skew
        // says the *family* is wrong, re-deriving the variable order
        // inside the current family cannot help. The single-threaded dataflow and
        // heavy-light backends can swap (a fleet cannot — workers own
        // their engines, and the heavy-light engine is single-threaded).
        let current_family = match &self.backend {
            Backend::Dataflow(_) => Some(EngineFamily::Dataflow),
            Backend::HeavyLight(_) => Some(EngineFamily::HeavyLight),
            _ => None,
        };
        if let Some(current) = current_family {
            if let Some(decision) = st.policy.decide_family(
                current,
                st.hl_eligible,
                &base.learned,
                st.window_updates,
                st.batches_since_replan,
            ) {
                let FamilyDecision { to, cards, reason } = decision;
                // Rebuild the new family's backend from the base — the
                // ground truth of everything the old backend accepted —
                // so the swap is a replay, not a guess. Lowering (and the
                // heavy-light partition threshold) comes out informed:
                // the base holds the live sizes the counts track.
                let fresh = match to {
                    EngineFamily::HeavyLight => {
                        Backend::HeavyLight(HeavyLightEngine::new_with_eps(
                            st.query.clone(),
                            &base.db,
                            st.lift,
                            st.policy.eps,
                        )?)
                    }
                    EngineFamily::Dataflow => Backend::Dataflow(DataflowEngine::new_with_cards(
                        st.query.clone(),
                        &base.db,
                        st.lift,
                        cards,
                    )?),
                };
                let from = self.describe();
                let event = (from, ReplanTrigger::FamilyShift, reason, window_tps);
                return self.install_backend(Some(fresh), Some(event));
            }
        }

        let lowered = match &self.backend {
            Backend::Dataflow(e) => e.lowered_cards(),
            Backend::Sharded(e) => e.lowered_cards(),
            // Heavy-light has a family to leave but no plan to re-derive.
            _ => return Ok(()),
        };
        let Some(decision) = st.policy.decide(
            &st.query,
            lowered,
            &base.learned,
            st.window_updates,
            st.batches_since_replan,
        ) else {
            return Ok(());
        };
        let ReplanDecision {
            cards,
            trigger,
            reason,
        } = decision;

        let from = self.describe();
        match &mut self.backend {
            Backend::Dataflow(e) => e.replan_with_cards(&base.db, cards)?,
            Backend::Sharded(e) => e.replan_with_cards(&base.db, &cards)?,
            _ => unreachable!("only the two backends matched above re-lower in place"),
        }
        self.install_backend(None, Some((from, trigger, reason, window_tps)))
    }

    /// The bookkeeping every change of plan shares: swap `fresh` in (a
    /// family shift, or recovery reconciling the persisted family) and
    /// re-attach observability — or, with `None`, accept the current
    /// backend as re-lowered in place — then record `event` (`(plan
    /// before, trigger, reason, throughput of the window it closes)`),
    /// keep `explain()` naming the engine running, and open a new window.
    fn install_backend(
        &mut self,
        fresh: Option<Backend<R>>,
        event: Option<(String, ReplanTrigger, String, f64)>,
    ) -> Result<(), EngineError> {
        if let Some(fresh) = fresh {
            self.backend = fresh;
            if let Some(o) = &self.obs {
                self.backend.observe(&o.registry)?;
            }
        }
        let kind = self.backend.kind();
        self.explain.engine = kind;
        self.explain.cost = cost_profile(kind);
        if let Some((from, trigger, reason, before_tps)) = event {
            if let Some(o) = &self.obs {
                o.replans.inc();
            }
            let to = self.describe();
            self.explain.replans.push(ReplanEvent {
                batch_index: self.adaptive.as_ref().map_or(0, |st| st.batch_index),
                from,
                to,
                trigger,
                reason,
                before_tps,
                after_tps: None,
            });
        }
        if let Some(st) = self.adaptive.as_mut() {
            st.batches_since_replan = 0;
            st.window_started = Instant::now();
            st.window_updates = 0;
        }
        Ok(())
    }
}

impl<R: Semiring + Persist> Session<R> {
    /// Consolidate the session's durable history: drain pending work,
    /// write one atomic snapshot (base relations, maintained view,
    /// learned cardinalities, engine-family tag), and truncate the
    /// journal behind it — after this call, recovery time is bounded by
    /// the tail ingested *since*, not by total history. Returns the
    /// consolidated epoch. Errors unless the session is durable.
    pub fn snapshot(&mut self) -> Result<u64, EngineError> {
        if self.durable.is_none() {
            return Err(EngineError::NotSupported(
                "snapshot() needs a durable session; build with \
                 .durable(path) or .recover(path, db)"
                    .into(),
            ));
        }
        self.drain()?;
        let strategy_tag = match &self.backend {
            Backend::Dataflow(_) | Backend::Sharded(_) => DATAFLOW_STRATEGY_TAG,
            Backend::HeavyLight(_) => HL_STRATEGY_TAG,
            _ => 0,
        };
        let view = self.output();
        let query = self.backend.maintainer_ref().query();
        let (Some(d), Some(base)) = (self.durable.as_mut(), self.base.as_mut()) else {
            unreachable!("checked above, and a durable session keeps a base");
        };
        let cards = relation_sizes(&base.db);
        // Per-key degrees, for recovery to cross-check: counted fresh (one
        // scan), never taken from the live counts, so a snapshot's bytes
        // do not depend on whether a policy was armed.
        let degrees = {
            let mut fresh = LearnedCardinalities::new();
            fresh.rebuild_degrees(&base.db, query);
            fresh.export_degrees()
        };
        // The document owns its base: lend it the session's for the write
        // instead of cloning, and take it back whatever the store says.
        let doc = SnapshotDoc {
            epoch: d.epoch,
            query_name: query.name.name(),
            strategy_tag,
            cards,
            degrees,
            base: std::mem::take(&mut base.db),
            view,
        };
        let written = d.store.snapshot(&doc);
        base.db = doc.base;
        written.map_err(store_error)?;
        Ok(doc.epoch)
    }

    /// The last journaled epoch (one per acknowledged ingestion call);
    /// `None` for in-memory sessions.
    pub fn journal_epoch(&self) -> Option<u64> {
        self.durable.as_ref().map(|d| d.epoch)
    }

    /// Durable journal size in bytes; `None` for in-memory sessions.
    pub fn journal_bytes(&self) -> Option<u64> {
        self.durable.as_ref().map(|d| d.store.journal_bytes())
    }
}

/// Every relation of `db` with its tuple count, by relation name: the
/// snapshot's `cards`, which recovery recounts from the snapshot base.
fn relation_sizes<R: Semiring>(db: &Database<R>) -> Vec<(Sym, u64)> {
    let mut sizes: Vec<(Sym, u64)> = db.iter().map(|(s, r)| (*s, r.len() as u64)).collect();
    sizes.sort_by_key(|(s, _)| s.name());
    sizes
}

/// The `sublinear:` line of `explain()` — the ε/θ partition parameters
/// and the amortized bound they buy, plus the live view-space cost. The
/// engine line already carries the per-relation part sizes via
/// [`HeavyLightEngine::plan`]; this row states what they *mean*.
fn hl_note<R: Semiring>(backend: &Backend<R>) -> Option<String> {
    match backend {
        Backend::HeavyLight(e) => {
            let eps = e.eps();
            Some(format!(
                "ε={eps}, θ={}, heavy keys {:?}, O(N^{}) amortized updates, {} view entries",
                e.threshold(),
                e.heavy_counts(),
                eps.max(1.0 - eps),
                e.view_entries(),
            ))
        }
        _ => None,
    }
}

impl<R: Semiring> Maintainer<R> for Session<R> {
    fn query(&self) -> &Query {
        self.backend.maintainer_ref().query()
    }

    /// Delegates to the backend's native batch path — the session never
    /// re-implements ingestion, it only routes to the one trait surface
    /// (plus the journaling, base and policy bookkeeping around it).
    fn apply_checked(&mut self, batch: &CheckedBatch<'_, R>) -> Result<Relation<R>, EngineError> {
        self.ingest(batch, |backend| backend.maintainer().apply_checked(batch))
    }

    fn for_each_output(&mut self, f: &mut dyn FnMut(&Tuple, &R)) {
        self.backend.maintainer().for_each_output(f)
    }
}

impl<R: Semiring> std::fmt::Debug for Session<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("engine", &self.explain.engine)
            .field("class", &self.explain.classification.class)
            .field("shards", &self.explain.shards)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::{sym, tup};
    use ivm_query::examples;

    #[test]
    fn fig3_auto_selects_eager_fact_and_maintains() {
        let q = examples::fig3_query();
        let (rn, sn) = (sym("f3_R"), sym("f3_S"));
        let mut s = Session::<i64>::builder(q).build(&Database::new()).unwrap();
        assert_eq!(s.engine_kind(), EngineKind::EagerFact);
        assert!(s.explain().fallback.is_none());
        s.apply_batch(&[
            Update::insert(rn, tup![1i64, 10i64]),
            Update::insert(sn, tup![1i64, 20i64]),
        ])
        .unwrap();
        assert_eq!(s.output().get(&tup![1i64, 10i64, 20i64]), 1);
    }

    #[test]
    fn triangle_auto_selects_heavy_light() {
        let q = examples::triangle_count();
        let s = Session::<i64>::builder(q).build(&Database::new()).unwrap();
        assert_eq!(s.engine_kind(), EngineKind::HeavyLight);
        assert!(s.describe().contains("HeavyLight"), "{}", s.describe());
        // The live partition report is in explain() from the start.
        let rendered = s.explain().to_string();
        assert!(rendered.contains("sublinear:"), "{rendered}");
        assert!(rendered.contains("\u{3b5}="), "{rendered}");
    }

    /// A self-join triangle shares one relation across atoms, which the
    /// heavy-light rotation refuses — the cyclic class still lands on
    /// the worst-case-optimal multiway plan.
    #[test]
    fn self_join_triangle_still_selects_multiway() {
        let [a, b, c] = ivm_data::vars(["sjt_A", "sjt_B", "sjt_C"]);
        let e = sym("sjt_E");
        let q = Query::new(
            "sjt_tri",
            [],
            vec![
                ivm_query::Atom::new(e, [a, b]),
                ivm_query::Atom::new(e, [b, c]),
                ivm_query::Atom::new(e, [c, a]),
            ],
        );
        let s = Session::<i64>::builder(q).build(&Database::new()).unwrap();
        assert_eq!(s.engine_kind(), EngineKind::DataflowMultiway);
    }

    /// A payload without additive inverses (a semiring, not a ring)
    /// cannot run the heavy-light views; auto-selection falls back to
    /// the generic dataflow engine and says so.
    #[test]
    fn inverse_free_payload_falls_back_to_dataflow() {
        use ivm_ring::BoolSemiring;
        let q = examples::triangle_count();
        let s = Session::<BoolSemiring>::builder(q)
            .build(&Database::new())
            .unwrap();
        assert_eq!(s.engine_kind(), EngineKind::DataflowMultiway);
        let explain = s.explain();
        let fb = explain.fallback.as_deref().unwrap();
        assert!(fb.contains("ring"), "{fb}");
    }

    #[test]
    fn shards_request_builds_a_fleet() {
        let q = examples::fig3_query();
        let s = Session::<i64>::builder(q)
            .shards(3)
            .build(&Database::new())
            .unwrap();
        assert_eq!(s.engine_kind(), EngineKind::Sharded);
        assert_eq!(s.explain().shards, 3);
    }

    #[test]
    fn cqap_session_serves_access_requests() {
        let q = examples::triangle_detect_cqap();
        let e = sym("tdc_E");
        let mut s = Session::<i64>::builder(q).build(&Database::new()).unwrap();
        assert_eq!(s.engine_kind(), EngineKind::Cqap);
        s.apply_batch(&[
            Update::insert(e, tup![1i64, 2i64]),
            Update::insert(e, tup![2i64, 3i64]),
            Update::insert(e, tup![3i64, 1i64]),
        ])
        .unwrap();
        assert_eq!(s.probe(&tup![1i64, 2i64, 3i64]).unwrap(), 1);
        assert_eq!(s.probe(&tup![1i64, 3i64, 2i64]).unwrap(), 0);
    }

    #[test]
    fn cqap_session_preprocesses_initial_database() {
        let q = examples::lookup_cqap();
        let (sn, tn) = (sym("lk_S"), sym("lk_T"));
        let mut db: Database<i64> = Database::new();
        db.create(sn, q.atoms[0].schema.clone());
        db.create(tn, q.atoms[1].schema.clone());
        db.apply(&Update::insert(sn, tup![10i64, 1i64]));
        db.apply(&Update::insert(tn, tup![1i64]));
        let s = Session::<i64>::builder(q).build(&db).unwrap();
        assert_eq!(s.probe(&tup![1i64]).unwrap(), 1);
    }

    #[test]
    fn access_on_non_cqap_session_errors() {
        let q = examples::fig3_query();
        let s = Session::<i64>::builder(q).build(&Database::new()).unwrap();
        assert!(matches!(
            s.probe(&tup![1i64]).unwrap_err(),
            EngineError::NotSupported(_)
        ));
    }

    #[test]
    fn access_with_an_input_of_the_wrong_arity_errors() {
        let q = examples::triangle_detect_cqap();
        let s = Session::<i64>::builder(q).build(&Database::new()).unwrap();
        assert_eq!(s.engine_kind(), EngineKind::Cqap);
        let err = s.probe(&tup![1i64]).unwrap_err();
        assert!(
            matches!(&err, EngineError::NotSupported(m) if m.contains("arity 1") && m.contains("3 input")),
            "{err}"
        );
        assert_eq!(s.probe(&tup![1i64, 2i64, 3i64]).unwrap(), 0);
    }

    #[test]
    fn forcing_a_mismatched_engine_surfaces_the_dichotomy_error() {
        // ex51 is not q-hierarchical: forcing eager-fact must fail the
        // same way constructing the engine directly would.
        let q = examples::ex51_query();
        let err = Session::<i64>::builder(q)
            .engine(EngineKind::EagerFact)
            .build(&Database::new())
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::NotSupported(_) | EngineError::VarOrder(_)
        ));
    }

    #[test]
    fn conflicting_shards_and_forced_engine_is_refused() {
        let err = Session::<i64>::builder(examples::fig3_query())
            .shards(8)
            .engine(EngineKind::DataflowMultiway)
            .build(&Database::new())
            .unwrap_err();
        assert!(
            matches!(&err, EngineError::NotSupported(m) if m.contains("conflicting")),
            "{err}"
        );
        // Sharded + shards composes fine.
        let s = Session::<i64>::builder(examples::fig3_query())
            .shards(3)
            .engine(EngineKind::Sharded)
            .build(&Database::new())
            .unwrap();
        assert_eq!(s.explain().shards, 3);
    }

    #[test]
    fn shared_stores_refuses_adaptive_and_sharded_builds() {
        // A hub member's stores advance once per epoch, driven by the
        // coordinator. Replanning mid-stream or hiding the engine on
        // worker threads would break that protocol silently — all three
        // combinations must refuse up front.
        let hub = StoreHub::new();
        let q = examples::triangle_count();
        let err = Session::<i64>::builder(q.clone())
            .shared_stores(&hub)
            .adaptive(ReplanPolicy::default())
            .build(&Database::new())
            .unwrap_err();
        assert!(
            matches!(&err, EngineError::NotSupported(m) if m.contains("conflicting")),
            "{err}"
        );
        let err = Session::<i64>::builder(q.clone())
            .shared_stores(&hub)
            .shards(2)
            .build(&Database::new())
            .unwrap_err();
        assert!(
            matches!(&err, EngineError::NotSupported(m) if m.contains("conflicting")),
            "{err}"
        );
        let err = Session::<i64>::builder(q)
            .shared_stores(&hub)
            .engine(EngineKind::Sharded)
            .build(&Database::new())
            .unwrap_err();
        assert!(
            matches!(&err, EngineError::NotSupported(m) if m.contains("conflicting")),
            "{err}"
        );
        // Refusal happens before anything joined the hub.
        assert!(hub.relations().is_empty());
    }

    #[test]
    fn shared_stores_hit_accounting_and_static_atom_gate() {
        let hub = StoreHub::new();
        let [a, b, c] = ivm_data::vars(["ssh_A", "ssh_B", "ssh_C"]);
        let e = sym("ssh_E");
        let tri = |name: &str| {
            Query::new(
                name,
                [],
                vec![
                    ivm_query::Atom::new(e, [a, b]),
                    ivm_query::Atom::new(e, [b, c]),
                    ivm_query::Atom::new(e, [c, a]),
                ],
            )
        };
        let db = Database::new();
        // First member donates its store: no hit.
        let first = Session::<i64>::builder(tri("ssh_t1"))
            .shared_stores(&hub)
            .build(&db)
            .unwrap();
        assert_eq!(first.shared_store_hits(), 0);
        assert_eq!(hub.relations(), vec![e]);
        // Second member adopts it: one hit for the one shared relation.
        let second = Session::<i64>::builder(tri("ssh_t2"))
            .shared_stores(&hub)
            .build(&db)
            .unwrap();
        assert_eq!(second.shared_store_hits(), 1);
        // A query with a static atom must never alias a store that other
        // members' updates advance — sharing is gated off entirely.
        let q_static = Query::new(
            "ssh_static",
            [],
            vec![
                ivm_query::Atom::new(e, [a, b]),
                ivm_query::Atom::new(e, [b, c]),
                ivm_query::Atom::new_static(sym("ssh_F"), [c, a]),
            ],
        );
        let gated = Session::<i64>::builder(q_static)
            .shared_stores(&hub)
            .build(&db)
            .unwrap();
        assert_eq!(gated.shared_store_hits(), 0);
        assert!(
            !hub.relations().contains(&sym("ssh_F")),
            "static relations stay out of the hub"
        );
        // Without a hub the counter is inert.
        let plain = Session::<i64>::builder(tri("ssh_t3")).build(&db).unwrap();
        assert_eq!(plain.shared_store_hits(), 0);
    }

    /// Q(a,d) = R(a,b)·S(b,c)·T(c,d): acyclic but not hierarchical, so
    /// auto-selection lands on the (order-sensitive) multiway dataflow.
    fn chain3() -> Query {
        let [a, b, c, d] = ivm_data::vars(["sch_A", "sch_B", "sch_C", "sch_D"]);
        Query::new(
            "sch_chain",
            [a, d],
            vec![
                ivm_query::Atom::new(sym("sch_R"), [a, b]),
                ivm_query::Atom::new(sym("sch_S"), [b, c]),
                ivm_query::Atom::new(sym("sch_T"), [c, d]),
            ],
        )
    }

    /// The empty-database-build bug, fixed by the adaptive trigger: a
    /// session built before any data arrives cost-orders its joins from
    /// all-zero counts; with a policy armed it must re-derive the plan on
    /// the first non-empty batch and converge to exactly the plan a
    /// populated build would have produced.
    #[test]
    fn adaptive_empty_build_converges_to_populated_build_plan() {
        let q = chain3();
        let (rn, sn, tn) = (sym("sch_R"), sym("sch_S"), sym("sch_T"));
        let mut s = Session::<i64>::builder(q.clone())
            .adaptive(ReplanPolicy::default())
            .build(&Database::new())
            .unwrap();
        assert_eq!(s.engine_kind(), EngineKind::DataflowMultiway);
        assert!(s.explain().adaptive.as_deref().unwrap().contains("armed"));
        let blind_plan = s.describe();

        // Skewed first batch: T is tiny, R is big — the informed variable
        // order must open with T's join variable, not with the tie-break.
        let mut batch: Vec<Update<i64>> = Vec::new();
        let mut db: Database<i64> = Database::new();
        for atom in &q.atoms {
            db.create(atom.name, atom.schema.clone());
        }
        for i in 0..40i64 {
            batch.push(Update::insert(rn, tup![i, i + 1]));
        }
        for i in 0..10i64 {
            batch.push(Update::insert(sn, tup![i + 1, i + 2]));
        }
        batch.push(Update::insert(tn, tup![2i64, 3i64]));
        s.apply_batch(&batch).unwrap();
        db.apply_batch(&batch);

        assert_eq!(s.explain().replans.len(), 1, "{}", s.explain());
        assert_eq!(s.explain().replans[0].batch_index, 1);
        assert_ne!(s.describe(), blind_plan);
        let populated = Session::<i64>::builder(q).build(&db).unwrap();
        assert_eq!(
            s.describe(),
            populated.describe(),
            "empty-build + first batch must converge to the populated plan"
        );
        // And the replanned session still maintains correctly.
        s.apply_batch(&[Update::insert(tn, tup![3i64, 4i64])])
            .unwrap();
        let mut total = 0i64;
        s.for_each_output(&mut |_, p| total += p);
        assert!(total > 0);
    }

    /// A replan within the dataflow family changes only the variable
    /// order, and the replan event shows it: its `from` and `to` labels
    /// are the plans before and after, orders included.
    #[test]
    fn replan_events_name_the_variable_orders() {
        let q = chain3();
        let (rn, tn) = (sym("sch_R"), sym("sch_T"));
        let mut s = Session::<i64>::builder(q)
            .adaptive(ReplanPolicy::default())
            .build(&Database::new())
            .unwrap();
        let blind = s.describe();
        let mut batch: Vec<Update<i64>> =
            (0..20i64).map(|i| Update::insert(rn, tup![i, i])).collect();
        batch.push(Update::insert(tn, tup![1i64, 2i64]));
        s.apply_batch(&batch).unwrap();
        let ev = &s.explain().replans[0];
        assert_eq!(ev.trigger, ReplanTrigger::FirstData);
        assert_eq!(ev.from, blind);
        assert_eq!(ev.to, s.describe());
        // T is smaller than R: its leaf d moves ahead of R's a.
        assert!(
            ev.from.contains(" order [sch_B, sch_C, sch_A, sch_D] "),
            "{}",
            ev.from
        );
        assert!(
            ev.to.contains(" order [sch_B, sch_C, sch_D, sch_A] "),
            "{}",
            ev.to
        );
    }

    /// Regression: the window clock opens at session *build*, not at the
    /// first ingest. A replan firing on the very first batch — the
    /// first-data trigger's whole purpose — must record a positive
    /// `before_tps` for the window it closes, even though no earlier
    /// ingest call ever read the clock (and even on a coarse clock, via
    /// the clamped denominator).
    #[test]
    fn first_window_replan_records_positive_throughput() {
        let q = chain3();
        let (rn, sn, tn) = (sym("sch_R"), sym("sch_S"), sym("sch_T"));
        let mut s = Session::<i64>::builder(q)
            .adaptive(ReplanPolicy::default())
            .build(&Database::new())
            .unwrap();
        let mut batch: Vec<Update<i64>> = Vec::new();
        for i in 0..40i64 {
            batch.push(Update::insert(rn, tup![i, i + 1]));
        }
        for i in 0..10i64 {
            batch.push(Update::insert(sn, tup![i + 1, i + 2]));
        }
        batch.push(Update::insert(tn, tup![2i64, 3i64]));
        s.apply_batch(&batch).unwrap();
        let replans = &s.explain().replans;
        assert_eq!(replans.len(), 1, "{}", s.explain());
        assert_eq!(replans[0].batch_index, 1, "fires on the very first batch");
        assert!(
            replans[0].before_tps > 0.0 && replans[0].before_tps.is_finite(),
            "a first-window replan must carry real throughput evidence, \
             got {}",
            replans[0].before_tps
        );
    }

    #[test]
    fn adaptive_is_inert_for_specialized_engines() {
        let q = examples::fig3_query();
        let (rn, sn) = (sym("f3_R"), sym("f3_S"));
        let mut s = Session::<i64>::builder(q)
            .adaptive(ReplanPolicy::default())
            .build(&Database::new())
            .unwrap();
        assert_eq!(s.engine_kind(), EngineKind::EagerFact);
        assert!(s.explain().adaptive.as_deref().unwrap().contains("inert"));
        for i in 0..32i64 {
            s.apply_batch(&[
                Update::insert(rn, tup![i, 10i64]),
                Update::insert(sn, tup![i, 20i64]),
            ])
            .unwrap();
        }
        assert!(s.explain().replans.is_empty());
    }

    /// A sharded adaptive session broadcasts the replan to every worker
    /// and keeps agreeing with the single-threaded oracle afterwards.
    #[test]
    fn adaptive_sharded_replans_and_stays_correct() {
        let [x, y, z] = ivm_data::vars(["sad_X", "sad_Y", "sad_Z"]);
        let (rn, sn) = (sym("sad_R"), sym("sad_S"));
        let q = Query::new(
            "sad_star",
            [x, y, z],
            vec![
                ivm_query::Atom::new(rn, [x, y]),
                ivm_query::Atom::new(sn, [x, z]),
            ],
        );
        let mut s = Session::<i64>::builder(q.clone())
            .shards(2)
            .adaptive(ReplanPolicy::default())
            .build(&Database::new())
            .unwrap();
        assert_eq!(s.engine_kind(), EngineKind::Sharded);
        let mut db: Database<i64> = Database::new();
        db.create(rn, q.atoms[0].schema.clone());
        db.create(sn, q.atoms[1].schema.clone());
        // Skewed stream: R grows 30× faster than S, so the first batch
        // already flips the blind order.
        for i in 0..6i64 {
            let mut batch: Vec<Update<i64>> = (0..30)
                .map(|j| Update::insert(rn, tup![(i * 30 + j) % 7, i * 30 + j]))
                .collect();
            batch.push(Update::insert(sn, tup![i % 7, i]));
            s.apply_batch(&batch).unwrap();
            db.apply_batch(&batch);
        }
        assert!(
            !s.explain().replans.is_empty(),
            "sharded blind build must replan: {}",
            s.explain()
        );
        // The events name the fleet's variable order before and after.
        for ev in &s.explain().replans {
            assert_ne!(ev.from, ev.to, "{}", s.explain());
            assert!(ev.from.contains("order [") && ev.to.contains("order ["));
        }
        let expect = ivm_data::ops::eval_join_aggregate(
            &[db.relation(rn), db.relation(sn)],
            &q.free,
            ivm_data::ops::lift_one,
        );
        let got = s.output();
        assert_eq!(got.len(), expect.len());
        for (t, p) in expect.iter() {
            assert_eq!(&got.get(t), p, "at {t:?}");
        }
    }

    /// The acceptance shape of the observability PR: a 4-shard adaptive
    /// session with a registry attached publishes session-, fleet-, and
    /// operator-level series; `metrics()` snapshots them; the replan
    /// timeline carries trigger names and throughput deltas; and the two
    /// export formats agree.
    #[test]
    fn observed_sharded_adaptive_session_publishes_metrics() {
        let [x, y, z] = ivm_data::vars(["som_X", "som_Y", "som_Z"]);
        let (rn, sn) = (sym("som_R"), sym("som_S"));
        let q = Query::new(
            "som_star",
            [x, y, z],
            vec![
                ivm_query::Atom::new(rn, [x, y]),
                ivm_query::Atom::new(sn, [x, z]),
            ],
        );
        let registry = MetricsRegistry::new();
        let mut s = Session::<i64>::builder(q)
            .shards(4)
            .adaptive(ReplanPolicy::default())
            .observe(&registry)
            .build(&Database::new())
            .unwrap();
        assert_eq!(s.explain().shards, 4);
        let mut total_updates = 0u64;
        for i in 0..6i64 {
            let mut batch: Vec<Update<i64>> = (0..30)
                .map(|j| Update::insert(rn, tup![(i * 30 + j) % 7, i * 30 + j]))
                .collect();
            batch.push(Update::insert(sn, tup![i % 7, i]));
            total_updates += batch.len() as u64;
            s.apply_batch(&batch).unwrap();
        }
        s.drain().unwrap();

        let m = s.metrics();
        // Session-level ingestion series.
        assert_eq!(m.counter("ivm.session.batches"), 6);
        assert_eq!(m.counter("ivm.session.updates"), total_updates);
        assert_eq!(m.histogram("ivm.session.ingest_ns").unwrap().count, 6);
        // Fleet-level: per-shard queues settled, updates conserved.
        assert_eq!(m.counter("ivm.fleet.updates_in"), total_updates);
        for shard in 0..4 {
            assert_eq!(m.gauge(&format!("ivm.fleet.shard{shard}.queue_depth")), 0);
        }
        // Per-operator timings exist under the workers' dataflows.
        assert!(
            m.counters_with_prefix("ivm.fleet.shard0.dataflow.op.")
                .next()
                .is_some(),
            "expected per-operator series; got:\n{}",
            m.to_prometheus()
        );
        // The blind empty-database build replanned on first data, and the
        // event carries its trigger and throughput evidence.
        assert_eq!(
            m.counter("ivm.session.replans"),
            s.explain().replans.len() as u64
        );
        let ev = &s.explain().replans[0];
        assert_eq!(ev.trigger, ivm_dataflow::ReplanTrigger::FirstData);
        assert!(ev.before_tps > 0.0);
        assert!(ev.after_tps.is_some(), "later ingests refresh after_tps");
        let rendered = s.explain().to_string();
        assert!(rendered.contains("[first-data]"), "{rendered}");
        assert!(rendered.contains("replans:"), "{rendered}");
        // Both export formats render every series.
        let prom = m.to_prometheus();
        let json = m.render_json();
        assert!(prom.contains("ivm_session_ingest_ns_bucket"), "{prom}");
        assert!(json.contains("ivm.session.ingest_ns"), "{json}");
    }

    #[test]
    fn detached_session_metrics_are_empty() {
        let q = examples::fig3_query();
        let (rn, sn) = (sym("f3_R"), sym("f3_S"));
        let mut s = Session::<i64>::builder(q).build(&Database::new()).unwrap();
        s.apply_batch(&[
            Update::insert(rn, tup![1i64, 10i64]),
            Update::insert(sn, tup![1i64, 20i64]),
        ])
        .unwrap();
        assert!(s.metrics().is_empty());
    }

    /// A triangle query with three distinct relations, for the
    /// cross-family tests below.
    fn tri3(prefix: &str) -> (Query, Sym, Sym, Sym) {
        let [a, b, c] = ivm_data::vars([
            format!("{prefix}A").as_str(),
            format!("{prefix}B").as_str(),
            format!("{prefix}C").as_str(),
        ]);
        let (rn, sn, tn) = (
            sym(format!("{prefix}R").as_str()),
            sym(format!("{prefix}S").as_str()),
            sym(format!("{prefix}T").as_str()),
        );
        let q = Query::new(
            format!("{prefix}tri").as_str(),
            [],
            vec![
                ivm_query::Atom::new(rn, [a, b]),
                ivm_query::Atom::new(sn, [b, c]),
                ivm_query::Atom::new(tn, [c, a]),
            ],
        );
        (q, rn, sn, tn)
    }

    /// An aggressive policy for the family-shift tests: the hysteresis
    /// gates are lowered so a handful of small batches suffices.
    fn eager_family_policy() -> ReplanPolicy {
        ReplanPolicy {
            min_batches_between: 2,
            min_replay_fraction: 0.01,
            family_cost_ratio: 2.0,
            ..ReplanPolicy::default()
        }
    }

    /// The tentpole's adaptive acceptance shape: a session forced onto
    /// the dataflow family sees learned degree skew, swaps the whole
    /// backend family to heavy-light mid-stream (a [`ReplanTrigger::
    /// FamilyShift`] event in `explain().replans`), keeps the exact
    /// count — and when the skew subsides, swaps back.
    #[test]
    fn adaptive_session_swaps_engine_family_and_back() {
        let (q, rn, sn, tn) = tri3("fsw_");
        let registry = MetricsRegistry::new();
        let mut s = Session::<i64>::builder(q.clone())
            .engine(EngineKind::DataflowMultiway)
            .adaptive(eager_family_policy())
            .observe(&registry)
            .build(&Database::new())
            .unwrap();
        assert_eq!(s.engine_kind(), EngineKind::DataflowMultiway);
        let mut db: Database<i64> = Database::new();
        for atom in &q.atoms {
            db.create(atom.name, atom.schema.clone());
        }
        // Hub skew: every v closes the triangle (0, v, 1000), so R's key
        // 0 accumulates degree ≫ √N while the count tracks exactly.
        let mut fired_at = None;
        for round in 0..4i64 {
            let mut batch: Vec<Update<i64>> = (0..10i64)
                .flat_map(|i| {
                    let v = 1 + round * 10 + i;
                    [
                        Update::insert(rn, tup![0i64, v]),
                        Update::insert(sn, tup![v, 1000i64]),
                    ]
                })
                .collect();
            if round == 0 {
                batch.push(Update::insert(tn, tup![1000i64, 0i64]));
            }
            s.apply_batch(&batch).unwrap();
            db.apply_batch(&batch);
            if fired_at.is_none() && s.engine_kind() == EngineKind::HeavyLight {
                fired_at = Some(round);
            }
        }
        assert_eq!(s.engine_kind(), EngineKind::HeavyLight, "{}", s.explain());
        let explain = s.explain();
        let shift = explain
            .replans
            .iter()
            .find(|ev| ev.trigger == ReplanTrigger::FamilyShift)
            .expect("a family-shift event must be recorded");
        assert!(shift.reason.contains("skew"), "{}", shift.reason);
        assert!(shift.to.contains("HeavyLight"), "{}", shift.to);
        assert!(
            fired_at.is_some(),
            "the swap must happen mid-stream, not at the end"
        );
        // The swapped-in engine maintains the same view: 40 triangles.
        assert_eq!(s.output().get(&Tuple::empty()), 40);
        assert!(s.explain().to_string().contains("[family-shift]"));
        assert!(s.explain().heavy_light.is_some());
        assert!(registry.snapshot().counter("ivm.hl.updates") > 0);

        // Skew subsides: remove the hub, leave a flat edge set — the
        // auxiliary views stop paying for themselves and the session
        // returns to the dataflow family, still agreeing with the
        // from-scratch oracle (zero triangles remain).
        let deletes: Vec<Update<i64>> = (1..41i64)
            .map(|v| Update::delete(rn, tup![0i64, v]))
            .collect();
        s.apply_batch(&deletes).unwrap();
        db.apply_batch(&deletes);
        for round in 0..4i64 {
            let batch: Vec<Update<i64>> = (0..30i64)
                .map(|i| {
                    let v = 2000 + round * 30 + i;
                    Update::insert(rn, tup![v, v])
                })
                .collect();
            s.apply_batch(&batch).unwrap();
            db.apply_batch(&batch);
        }
        assert_eq!(
            s.engine_kind(),
            EngineKind::DataflowMultiway,
            "{}",
            s.explain()
        );
        assert!(s.explain().heavy_light.is_none());
        let explain = s.explain();
        let shifts: Vec<_> = explain
            .replans
            .iter()
            .filter(|ev| ev.trigger == ReplanTrigger::FamilyShift)
            .collect();
        assert!(shifts.len() >= 2, "{}", s.explain());
        assert!(
            shifts.last().unwrap().reason.contains("subsided"),
            "{}",
            shifts.last().unwrap().reason
        );
        // Final view identical to a from-scratch oracle over the same db.
        let mut oracle = Session::<i64>::builder(q).build(&db).unwrap();
        assert_eq!(
            s.output().get(&Tuple::empty()),
            oracle.output().get(&Tuple::empty())
        );
        assert_eq!(s.output().get(&Tuple::empty()), 0);
    }

    /// Per-key degrees feed only a family shift, which a fleet cannot
    /// make: a 2-shard adaptive triangle session counts sizes but seeds
    /// and keeps no degree counts, where a single-engine one does.
    #[test]
    fn an_adaptive_fleet_counts_no_degrees() {
        let (q, rn, sn, tn) = tri3("afd_");
        let batch = [
            Update::<i64>::insert(rn, tup![0i64, 1i64]),
            Update::insert(sn, tup![1i64, 2i64]),
            Update::insert(tn, tup![2i64, 0i64]),
        ];
        let fleet = Session::<i64>::builder(q.clone()).shards(2);
        let single = Session::<i64>::builder(q).engine(EngineKind::DataflowMultiway);
        for (builder, tracked) in [(fleet, false), (single, true)] {
            let mut s = builder
                .adaptive(ReplanPolicy::default())
                .build(&Database::new())
                .unwrap();
            s.apply_batch(&batch).unwrap();
            let kind = s.engine_kind();
            let learned = &s
                .base
                .as_ref()
                .expect("an armed policy keeps a base")
                .learned;
            assert_eq!(learned.get(rn), 1, "{kind:?}");
            for rel in [rn, sn, tn] {
                assert_eq!(learned.degree_sketch(rel).is_some(), tracked, "{kind:?}");
            }
        }
    }

    /// Sharded fleets cannot swap families (workers own their engines):
    /// the family comparison must stay silent for them even under the
    /// same skew that flips a single-threaded session.
    #[test]
    fn sharded_sessions_never_family_shift() {
        let (q, rn, sn, tn) = tri3("fshard_");
        let mut s = Session::<i64>::builder(q)
            .shards(2)
            .adaptive(eager_family_policy())
            .build(&Database::new())
            .unwrap();
        for round in 0..4i64 {
            let mut batch: Vec<Update<i64>> = (0..10i64)
                .flat_map(|i| {
                    let v = 1 + round * 10 + i;
                    [
                        Update::insert(rn, tup![0i64, v]),
                        Update::insert(sn, tup![v, 1000i64]),
                    ]
                })
                .collect();
            batch.push(Update::insert(tn, tup![1000i64, 0i64]));
            s.apply_batch(&batch).unwrap();
        }
        s.drain().unwrap();
        assert_eq!(s.engine_kind(), EngineKind::Sharded);
        assert!(s
            .explain()
            .replans
            .iter()
            .all(|ev| ev.trigger != ReplanTrigger::FamilyShift));
    }

    /// A fresh scratch directory per durable test session.
    fn scratch(tag: &str) -> PathBuf {
        static N: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ivm-session-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// What a from-scratch count of `base`'s own relations says its
    /// degrees and sizes are — the reference the maintained counts must
    /// equal at every step.
    fn recounted(base: &SessionBase<i64>, q: &Query) -> LearnedCardinalities {
        let mut fresh = LearnedCardinalities::new();
        fresh.refresh(&base.db, q);
        fresh.rebuild_degrees(&base.db, q);
        fresh
    }

    /// The degree counts must not start empty over a populated database:
    /// a session built over preloaded relations and one built empty and
    /// fed the same tuples hold the same skew evidence — and deleting a
    /// preloaded pair decrements instead of underflowing.
    #[test]
    fn preloaded_base_seeds_the_degree_counts() {
        let (q, rn, sn, tn) = tri3("pre_");
        let tuples: Vec<Update<i64>> = (1..=20i64)
            .flat_map(|v| {
                [
                    Update::insert(rn, tup![0i64, v]),
                    Update::insert(sn, tup![v, v % 3]),
                ]
            })
            .chain([Update::insert(tn, tup![1i64, 0i64])])
            .collect();
        let mut db: Database<i64> = Database::new();
        for atom in &q.atoms {
            db.create(atom.name, atom.schema.clone());
        }
        db.apply_batch(&tuples);

        let mut preloaded = Session::<i64>::builder(q.clone())
            .adaptive(ReplanPolicy::default())
            .build(&db)
            .unwrap();
        let mut streamed = Session::<i64>::builder(q.clone())
            .adaptive(ReplanPolicy::default())
            .build(&Database::new())
            .unwrap();
        streamed.apply_batch(&tuples).unwrap();
        let degrees = |s: &Session<i64>| s.base.as_ref().unwrap().learned.export_degrees();
        assert_eq!(degrees(&preloaded), degrees(&streamed));
        assert_eq!(
            preloaded.base.as_ref().unwrap().learned.max_degree_any(),
            20,
            "the hub's degree is visible before any churn"
        );

        let gone = [Update::delete(rn, tup![0i64, 7i64])];
        preloaded.apply_batch(&gone).unwrap();
        streamed.apply_batch(&gone).unwrap();
        assert_eq!(degrees(&preloaded), degrees(&streamed));
        let base = preloaded.base.as_ref().unwrap();
        assert_eq!(base.learned.max_degree_any(), 19);
        assert_eq!(
            base.learned.export_degrees(),
            recounted(base, &q).export_degrees()
        );
    }

    /// Only sessions something reads the base of keep one: a bare session
    /// and one whose policy is inert hold no copy of the database.
    #[test]
    fn base_exists_iff_adaptive_or_durable() {
        let (q, ..) = tri3("bex_");
        let db = Database::new();
        let bare = Session::<i64>::builder(q.clone()).build(&db).unwrap();
        assert!(bare.base.is_none());
        let inert = Session::<i64>::builder(examples::fig3_query())
            .adaptive(ReplanPolicy::default())
            .build(&db)
            .unwrap();
        assert!(inert.base.is_none());
        let adaptive = Session::<i64>::builder(q.clone())
            .adaptive(ReplanPolicy::default())
            .build(&db)
            .unwrap();
        assert!(adaptive.base.is_some());
        let dir = scratch("bex");
        let durable = Session::<i64>::builder(q).durable(&dir).build(&db).unwrap();
        let base = durable.base.as_ref().unwrap();
        assert!(
            base.learned.export_degrees().is_empty()
                && base.learned.degree_sketch(sym("bex_R")).is_none(),
            "no policy armed: degrees are not counted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Maintained counts ≡ recounted counts under mixed-sign churn:
        /// inserts, duplicate inserts (payload 2), partial deletes (−1,
        /// unclamped, so multiplicities also go negative) and full deletes
        /// (−current) on the three triangle relations through an adaptive
        /// durable session. After every batch the base's live degrees
        /// equal a fresh count over its own database and its sizes equal
        /// `len()`; a kill-and-recover then comes back with the same.
        #[test]
        fn maintained_counts_equal_recounted_counts_under_churn(
            ops in proptest::collection::vec((0usize..3, (0i64..4, 0i64..5), 0usize..4), 0..64),
            chunk in 1usize..9,
        ) {
            use proptest::prelude::*;
            let (q, rn, sn, tn) = tri3("mcc_");
            let rels = [rn, sn, tn];
            let mut held: ivm_data::FxHashMap<(Sym, Tuple), i64> = Default::default();
            let updates: Vec<Update<i64>> = ops
                .iter()
                .filter_map(|&(ri, (x, y), kind)| {
                    let (rel, t) = (rels[ri], tup![x, y]);
                    let cur = held.entry((rel, t.clone())).or_insert(0);
                    let m = match kind {
                        0 => 1,
                        1 => 2,
                        2 => -1,
                        _ => -*cur,
                    };
                    *cur += m;
                    (m != 0).then(|| Update::with_payload(rel, t, m))
                })
                .collect();
            let policy = eager_family_policy();
            let dir = scratch("mcc");
            let mut s = Session::<i64>::builder(q.clone())
                .adaptive(policy)
                .durable(&dir)
                .build(&Database::new())
                .unwrap();
            for batch in updates.chunks(chunk) {
                s.apply_batch(batch).unwrap();
                let base = s.base.as_ref().unwrap();
                let fresh = recounted(base, &q);
                prop_assert_eq!(base.learned.export_degrees(), fresh.export_degrees());
                for rel in rels {
                    prop_assert_eq!(base.learned.get(rel), base.db.relation(rel).len());
                }
            }
            let before = s.base.as_ref().unwrap().learned.export_degrees();
            drop(s);
            let r = Session::<i64>::builder(q.clone())
                .adaptive(policy)
                .recover(&dir, &Database::new())
                .unwrap();
            let base = r.base.as_ref().unwrap();
            prop_assert_eq!(base.learned.export_degrees(), before);
            for rel in rels {
                prop_assert_eq!(base.learned.get(rel), base.db.relation(rel).len());
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn enqueue_and_drain_work_on_every_backend() {
        let (rn, sn) = (sym("f3_R"), sym("f3_S"));
        for shards in [None, Some(2)] {
            let mut b = Session::<i64>::builder(examples::fig3_query());
            if let Some(n) = shards {
                b = b.shards(n);
            }
            let mut s = b.build(&Database::new()).unwrap();
            s.enqueue_batch(&[
                Update::insert(rn, tup![1i64, 10i64]),
                Update::insert(sn, tup![1i64, 20i64]),
            ])
            .unwrap();
            s.drain().unwrap();
            assert_eq!(s.output().get(&tup![1i64, 10i64, 20i64]), 1, "{shards:?}");
        }
    }
}
