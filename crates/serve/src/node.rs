//! The serving node: shared base state, deduped engines, per-subscriber
//! delivery taps.

use crate::canon::canonical_key;
use ivm_core::{CheckedBatch, EngineError, Maintainer};
use ivm_data::{Database, FxHashMap, FxHashSet, Relation, Sym, Update};
use ivm_dataflow::{DeltaBatch, StoreHub};
use ivm_obs::{
    Counter, FlightRecorder, Gauge, Histogram, LabelId, MetricsRegistry, MetricsServer, Namespace,
    Tracer,
};
use ivm_query::{Atom, Query};
use ivm_ring::Semiring;
use ivm_session::Session;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Stable identifier of one subscription, assigned at
/// [`ServeNode::subscribe`] time and never reused.
pub type SubId = u64;

/// One epoch's changes to one maintained view, as delivered to a
/// subscriber: the consolidated output delta of the batch. An empty
/// delta is still delivered (exactly one `ViewDelta` per live
/// subscriber per epoch), so receivers can track epochs without gaps.
///
/// The delta is a shared immutable handle: the engine's output relation
/// is wrapped once per group per epoch and every subscriber of the group
/// — callback or channel — sees that one allocation. Cloning, forwarding
/// or holding a `ViewDelta` is O(1) (a refcount bump) and never copies
/// tuples; later epochs never change a delta already handed out.
#[derive(Clone)]
pub struct ViewDelta<R> {
    /// The epoch (0-based [`ServeNode::apply_batch`] index) this delta
    /// belongs to.
    pub epoch: u64,
    /// The view's name — the `Query::name` of the group's first-
    /// registered query.
    pub view: Sym,
    /// The output delta: tuples over the query's free variables with
    /// their payload changes. Reads go through `Deref` (`delta.iter()`,
    /// `delta.len()`, `delta.get(t)`, `&delta` as `&Relation<R>`).
    pub delta: Arc<Relation<R>>,
}

impl<R: Semiring> ViewDelta<R> {
    /// The delta repackaged as a one-relation [`DeltaBatch`] changeset,
    /// keyed by the view name — convenient for piping a subscription
    /// into downstream batch consumers.
    pub fn changes(&self) -> DeltaBatch<'static, R> {
        let mut b = DeltaBatch::new();
        for (t, r) in self.delta.iter() {
            b.insert_consolidated(self.view, t.clone(), r.clone());
        }
        b
    }
}

/// A boxed subscriber callback (panic-isolated at delivery time).
type DeltaCallback<R> = Box<dyn FnMut(&ViewDelta<R>)>;

/// Where a tap's deliveries go.
enum Sink<R> {
    /// Synchronous callback, panic-isolated: a panic evicts the
    /// subscriber, never the node.
    Callback(DeltaCallback<R>),
    /// Channel to a [`Subscription`]; a dropped receiver evicts the
    /// subscriber on the next delivery.
    Channel(mpsc::Sender<ViewDelta<R>>),
    /// Bounded channel to a [`Subscription`]: a full queue — the
    /// subscriber fell `capacity` epochs behind — evicts it instead of
    /// letting its backlog grow without bound (back-pressure by
    /// eviction; the node never blocks on a slow consumer).
    Bounded(mpsc::SyncSender<ViewDelta<R>>),
}

/// One subscriber's delivery endpoint inside a group.
struct Tap<R> {
    id: SubId,
    sink: Sink<R>,
    /// Always allocated (an `Arc`'d atomic) so a later
    /// [`ServeNode::observe`] can publish it; recorded only while a
    /// registry is attached.
    notify_ns: Histogram,
    queue_depth: Gauge,
}

impl<R: Semiring> Tap<R> {
    /// Deliver one epoch's delta: callbacks borrow it, queues get a
    /// handle to the same allocation. `false` means the subscriber is
    /// dead (callback panicked, receiver dropped, bounded queue full)
    /// and must be evicted.
    fn deliver(&mut self, vd: &ViewDelta<R>) -> bool {
        let queued = match &mut self.sink {
            Sink::Callback(cb) => return catch_unwind(AssertUnwindSafe(|| cb(vd))).is_ok(),
            Sink::Channel(tx) => tx.send(vd.clone()).is_ok(),
            // Never blocks: a full queue (Err(Full)) reports the
            // subscriber dead the same way a dropped receiver does, and
            // the shared eviction path handles both.
            Sink::Bounded(tx) => tx.try_send(vd.clone()).is_ok(),
        };
        if queued {
            self.queue_depth.inc();
        }
        queued
    }
}

/// One deduped engine and the taps riding it.
struct Group<R: Semiring> {
    /// The canonical key this group is registered under in the dedup map.
    key: String,
    session: Session<R>,
    /// The view name deliveries carry (first-registered query's name).
    view: Sym,
    /// Dynamic relations the engine consumes — the part of each checked
    /// batch it is fed.
    rels: FxHashSet<Sym>,
    taps: Vec<Tap<R>>,
}

/// The receiving end of a channel-backed subscription (see
/// [`ServeNode::subscribe`]). Dropping it evicts the subscriber at its
/// next delivery.
pub struct Subscription<R> {
    id: SubId,
    rx: mpsc::Receiver<ViewDelta<R>>,
    queue_depth: Gauge,
}

impl<R: Semiring> Subscription<R> {
    /// The stable subscription id (pass to [`ServeNode::unsubscribe`],
    /// [`ServeNode::view`]).
    pub fn id(&self) -> SubId {
        self.id
    }

    /// The next pending delivery, if any. Never blocks.
    pub fn try_next(&mut self) -> Option<ViewDelta<R>> {
        let vd = self.rx.try_recv().ok()?;
        self.queue_depth.dec();
        Some(vd)
    }

    /// Drain every pending delivery, in epoch order.
    pub fn drain_pending(&mut self) -> Vec<ViewDelta<R>> {
        let mut out = Vec::new();
        while let Some(vd) = self.try_next() {
            out.push(vd);
        }
        out
    }
}

/// Node-level metric handles (see the crate docs for the namespace).
struct ServeObs {
    registry: MetricsRegistry,
    ns: Namespace,
    subscribers: Gauge,
    groups: Gauge,
    epochs: Counter,
    ingest_ns: Histogram,
    dedup_hits: Counter,
    store_dedup_hits: Counter,
    evictions: Counter,
    /// The registry's trace ring: each ingest opens a `serve.ingest`
    /// root span at the node's epoch, with per-group propagation,
    /// per-subscriber notify, and the hub advance as child stages — the
    /// raw material for [`ivm_obs::EpochWaterfall`].
    tracer: Tracer,
    root_label: LabelId,
    group_label: LabelId,
    notify_label: LabelId,
    advance_label: LabelId,
    /// Post-mortem writer: a subscriber eviction dumps the last few
    /// epochs of spans plus a full snapshot as one JSON document.
    flight: FlightRecorder,
}

impl ServeObs {
    /// Publish a tap's pre-allocated handles under its stable id.
    fn register_tap(&self, tap: &Tap<impl Semiring>) {
        let sub = self.ns.indexed("sub", tap.id);
        self.registry
            .register_histogram(&sub.metric("notify_ns"), &tap.notify_ns);
        self.registry
            .register_gauge(&sub.metric("queue_depth"), &tap.queue_depth);
    }
}

/// One shared ingest stream fanned out to many live views. See the
/// crate docs for the dedup rule, the delivery/ordering guarantees, and
/// the metric namespace.
pub struct ServeNode<R: Semiring> {
    /// The single authoritative base state; relations are created on
    /// first mention by a subscriber's query and persist thereafter.
    base: Database<R>,
    /// The atoms the queries of every group ever built declared, one per
    /// relation and dynamic flag: what the ingestion rule checks a batch
    /// against. Like the base, it outlives the groups.
    declared: Vec<Atom>,
    /// Shared multiway trie stores across member engines.
    hub: StoreHub<R>,
    /// Deduped engines, iterated in creation order (delivery order).
    groups: BTreeMap<u64, Group<R>>,
    /// canonical key → group id.
    key_map: FxHashMap<String, u64>,
    /// subscription id → group id.
    sub_group: FxHashMap<SubId, u64>,
    next_group: u64,
    next_sub: SubId,
    epoch: u64,
    obs: Option<ServeObs>,
    /// The live scrape endpoint from [`ServeNode::serve_metrics`]; held
    /// here so the server dies with the node.
    metrics_server: Option<MetricsServer>,
}

impl<R: Semiring> ServeNode<R> {
    /// An empty node: no base tuples, no subscribers.
    pub fn new() -> Self {
        ServeNode {
            base: Database::new(),
            declared: Vec::new(),
            hub: StoreHub::new(),
            groups: BTreeMap::new(),
            key_map: FxHashMap::default(),
            sub_group: FxHashMap::default(),
            next_group: 0,
            next_sub: 0,
            epoch: 0,
            obs: None,
            metrics_server: None,
        }
    }

    /// Expose the attached registry over HTTP while the node lives: a
    /// dependency-free scrape endpoint bound to `addr` (use port 0 to
    /// let the OS pick; the bound address is returned). Serves
    /// `/metrics` (Prometheus text), `/snapshot.json`, and
    /// `/epochs.json` (recent per-epoch latency waterfalls). Requires a
    /// prior [`ServeNode::observe`].
    pub fn serve_metrics(&mut self, addr: &str) -> Result<SocketAddr, EngineError> {
        let Some(o) = &self.obs else {
            return Err(EngineError::NotSupported(
                "serve_metrics exposes the attached registry over HTTP, but \
                 no registry is attached; call observe(...) first"
                    .into(),
            ));
        };
        let server = MetricsServer::start(addr, &o.registry).map_err(|e| {
            EngineError::NotSupported(format!("serve_metrics({addr:?}) failed to bind: {e}"))
        })?;
        let bound = server.addr();
        self.metrics_server = Some(server);
        Ok(bound)
    }

    /// Attach a metrics registry. Node-level gauges snap to the current
    /// truth immediately; per-subscriber handles allocated before this
    /// call are published as they stand (they are shared atomics, not
    /// new series): `queue_depth` reads its live value, `notify_ns`
    /// starts recording now — a detached node takes no timings.
    pub fn observe(&mut self, registry: &MetricsRegistry) {
        let ns = Namespace::new("ivm").child("serve");
        let tracer = registry.tracer().clone();
        let obs = ServeObs {
            registry: registry.clone(),
            subscribers: ns.gauge(registry, "subscribers"),
            groups: ns.gauge(registry, "groups"),
            epochs: ns.counter(registry, "epochs"),
            ingest_ns: ns.histogram(registry, "ingest_ns"),
            dedup_hits: ns.counter(registry, "dedup_hits"),
            store_dedup_hits: ns.counter(registry, "store_dedup_hits"),
            evictions: ns.counter(registry, "evictions"),
            ns,
            root_label: tracer.intern("serve.ingest"),
            group_label: tracer.intern("serve.group_apply"),
            notify_label: tracer.intern("serve.notify"),
            advance_label: tracer.intern("hub.advance"),
            tracer,
            flight: FlightRecorder::new(registry),
        };
        obs.subscribers.set(self.subscriber_count() as i64);
        obs.groups.set(self.group_count() as i64);
        for g in self.groups.values() {
            for tap in &g.taps {
                obs.register_tap(tap);
            }
        }
        self.obs = Some(obs);
    }

    /// Subscribe with a channel: deliveries buffer in the returned
    /// [`Subscription`] until drained. Dropping the subscription evicts
    /// the subscriber at its next delivery. A query that names a relation
    /// at another arity than the node's base holds is refused, and the
    /// node is left unchanged (every `subscribe*` call).
    pub fn subscribe(&mut self, query: Query) -> Result<Subscription<R>, EngineError> {
        let (tx, rx) = mpsc::channel();
        let (id, queue_depth) = self.add_tap(query, Sink::Channel(tx))?;
        Ok(Subscription {
            id,
            rx,
            queue_depth,
        })
    }

    /// [`ServeNode::subscribe`] with a bounded queue: at most `capacity`
    /// undrained deliveries (clamped to ≥ 1) may accumulate in the
    /// returned [`Subscription`]. A subscriber that falls further behind
    /// is **evicted** at the next delivery — through the same path a
    /// dropped receiver takes (its `sub{id}.queue_depth` gauge settles to
    /// 0, its series are pruned, the eviction counter and flight-recorder
    /// post-mortem fire) — so one slow consumer can neither block ingest
    /// nor grow an unbounded backlog.
    pub fn subscribe_bounded(
        &mut self,
        query: Query,
        capacity: usize,
    ) -> Result<Subscription<R>, EngineError> {
        let (tx, rx) = mpsc::sync_channel(capacity.max(1));
        let (id, queue_depth) = self.add_tap(query, Sink::Bounded(tx))?;
        Ok(Subscription {
            id,
            rx,
            queue_depth,
        })
    }

    /// Subscribe with a synchronous callback, invoked once per epoch
    /// with the view's delta. A panicking callback evicts only this
    /// subscriber — ingest and sibling views are unaffected.
    pub fn subscribe_with(
        &mut self,
        query: Query,
        callback: impl FnMut(&ViewDelta<R>) + 'static,
    ) -> Result<SubId, EngineError> {
        let (id, _) = self.add_tap(query, Sink::Callback(Box::new(callback)))?;
        Ok(id)
    }

    /// Attach a tap to `query`'s group; returns its id and a handle to
    /// its queue-depth gauge (the receiving end decrements it).
    fn add_tap(&mut self, query: Query, sink: Sink<R>) -> Result<(SubId, Gauge), EngineError> {
        let gid = self.group_for(query)?;
        let id = self.next_sub;
        self.next_sub += 1;
        let queue_depth = Gauge::default();
        let tap = Tap {
            id,
            sink,
            notify_ns: Histogram::default(),
            queue_depth: queue_depth.clone(),
        };
        if let Some(o) = &self.obs {
            o.register_tap(&tap);
            o.subscribers.inc();
        }
        self.groups
            .get_mut(&gid)
            .expect("group exists")
            .taps
            .push(tap);
        self.sub_group.insert(id, gid);
        Ok((id, queue_depth))
    }

    /// Find or build the engine group maintaining `query`'s view.
    fn group_for(&mut self, query: Query) -> Result<u64, EngineError> {
        let key = canonical_key(&query);
        if let Some(&gid) = self.key_map.get(&key) {
            if let Some(o) = &self.obs {
                o.dedup_hits.inc();
            }
            return Ok(gid);
        }
        // One arity per relation per node: the base outlives its groups,
        // so a relation keeps the arity it was first declared with, and a
        // group's share of a checked batch needs no second check.
        for atom in &query.atoms {
            if let Some(rel) = self.base.get(atom.name) {
                let (declared, got) = (rel.schema().arity(), atom.schema.arity());
                if declared != got {
                    return Err(EngineError::ArityMismatch {
                        relation: atom.name,
                        declared,
                        got,
                    });
                }
            }
        }
        let view = query.name;
        let rels: FxHashSet<Sym> = query
            .atoms
            .iter()
            .filter(|a| a.dynamic)
            .map(|a| a.name)
            .collect();
        let session = Session::builder(query)
            .shared_stores(&self.hub)
            .build(&self.base)?;
        // First mention of a relation defines it in the shared base, so
        // later subscribers (and the update stream) see one authoritative
        // copy. Only a build that succeeded declares anything: a refused
        // query leaves the base as it found it.
        for atom in &session.query().atoms {
            if self.base.get(atom.name).is_none() {
                self.base.create(atom.name, atom.schema.clone());
            }
            let same = |a: &Atom| a.name == atom.name && a.dynamic == atom.dynamic;
            if !self.declared.iter().any(same) {
                self.declared.push(atom.clone());
            }
        }
        if let Some(o) = &self.obs {
            o.store_dedup_hits.add(session.shared_store_hits() as u64);
            o.groups.inc();
        }
        let gid = self.next_group;
        self.next_group += 1;
        self.groups.insert(
            gid,
            Group {
                key: key.clone(),
                session,
                view,
                rels,
                taps: Vec::new(),
            },
        );
        self.key_map.insert(key, gid);
        Ok(gid)
    }

    /// Drop subscription `id`. Returns `false` if it was already gone
    /// (unsubscribed, or evicted after a delivery failure). The last
    /// tap leaving a group retires the group's engine.
    pub fn unsubscribe(&mut self, id: SubId) -> bool {
        let Some(gid) = self.sub_group.remove(&id) else {
            return false;
        };
        let group = self.groups.get_mut(&gid).expect("group exists");
        group.taps.retain(|t| t.id != id);
        if let Some(o) = &self.obs {
            o.subscribers.dec();
            // A deliberate unsubscribe retires the series immediately —
            // same rule as eviction, no post-mortem needed.
            o.registry
                .prune_prefix(&format!("{}.", o.ns.indexed("sub", id)));
        }
        if group.taps.is_empty() {
            let group = self.groups.remove(&gid).expect("group exists");
            self.key_map.remove(&group.key);
            if let Some(o) = &self.obs {
                o.groups.dec();
            }
        }
        true
    }

    /// Ingest one batch: advance the shared base, propagate through
    /// every engine group, deliver one [`ViewDelta`] per live
    /// subscriber, evict dead subscribers, then advance the shared
    /// store hub — exactly once, after all members (the coordinator
    /// half of the [`StoreHub`] protocol).
    ///
    /// The cost is O(|batch| + Σ_groups |delta| + subscribers): the
    /// batch is checked and consolidated once, each group's share and
    /// delta are built once, and every tap gets a handle to the delta.
    ///
    /// Rejection is atomic: the batch must pass the ingestion rule
    /// ([`CheckedBatch::new`]) over the atoms subscribers' queries have
    /// declared — a retired group's relations stay declared, as they stay
    /// in the base — or the whole batch is refused before anything
    /// advances.
    pub fn apply_batch(&mut self, batch: &[Update<R>]) -> Result<(), EngineError> {
        let checked = CheckedBatch::new(&self.declared, batch)?;
        let t0 = self.obs.as_ref().map(|_| Instant::now());
        // The epoch's root span: every stage below — group propagation,
        // per-subscriber notify, the hub advance — attaches under it, so
        // the trace ring can reconstruct this epoch's latency waterfall.
        let root = self
            .obs
            .as_ref()
            .map(|o| o.tracer.enter(o.root_label, self.epoch));
        self.base.apply_batch(batch);
        let epoch = self.epoch;
        let mut evicted: Vec<SubId> = Vec::new();
        for group in self.groups.values_mut() {
            let apply_span = self
                .obs
                .as_ref()
                .and_then(|o| o.tracer.child_span(o.group_label));
            // The group's share of the consolidated batch, checked against
            // atoms that agree with its query's. A group the batch does
            // not touch gets an empty part and still delivers its one
            // (empty) delta. A propagation error would still surface here.
            let part = checked.restrict(&group.rels);
            let delta = group.session.apply_checked(&part)?;
            drop(apply_span);
            // Wrapped once; every tap below shares this allocation.
            let vd = ViewDelta {
                epoch,
                view: group.view,
                delta: Arc::new(delta),
            };
            // A detached node never reads the clock. An observed one
            // reads it once per tap: the end of one delivery is the
            // start of the next.
            let mut timing = self
                .obs
                .as_ref()
                .zip(root.as_ref())
                .map(|(o, r)| (o, r, Instant::now()));
            group.taps.retain_mut(|tap| {
                let alive = tap.deliver(&vd);
                if let Some((o, r, start)) = &mut timing {
                    let end = Instant::now();
                    let el = end.duration_since(*start);
                    tap.notify_ns.record_duration(el);
                    o.tracer
                        .record_at(o.notify_label, Some(r.id()), r.epoch(), *start, el);
                    *start = end;
                }
                if !alive {
                    // The endpoint is gone, and with it its queue: the
                    // depth gauge settles to the truth.
                    tap.queue_depth.set(0);
                    evicted.push(tap.id);
                }
                alive
            });
        }
        // Dead subscribers are gone; their bookkeeping follows.
        if !evicted.is_empty() {
            let live: FxHashSet<SubId> = self
                .groups
                .values()
                .flat_map(|g| g.taps.iter().map(|t| t.id))
                .collect();
            self.sub_group.retain(|id, _| live.contains(id));
            let empty: Vec<u64> = self
                .groups
                .iter()
                .filter(|(_, g)| g.taps.is_empty())
                .map(|(&gid, _)| gid)
                .collect();
            for gid in empty {
                let group = self.groups.remove(&gid).expect("group exists");
                self.key_map.remove(&group.key);
            }
        }
        // The hub advances LAST: every member engine searched this
        // epoch against the pre-batch shared stores above.
        let advance_span = self
            .obs
            .as_ref()
            .and_then(|o| o.tracer.child_span(o.advance_label));
        self.hub.advance_batch(checked.delta());
        drop(advance_span);
        self.epoch += 1;
        if let (Some(o), Some(t0)) = (&self.obs, t0) {
            let elapsed = t0.elapsed();
            o.epochs.inc();
            // Histogram and root span log the same elapsed, so waterfall
            // totals and `ingest_ns` observations agree exactly.
            o.ingest_ns.record_duration(elapsed);
            if let Some(root) = root {
                root.finish_with(elapsed);
            }
            o.evictions.add(evicted.len() as u64);
            o.subscribers.set(self.subscriber_count() as i64);
            o.groups.set(self.group_count() as i64);
            if !evicted.is_empty() {
                // Post-mortem first (the snapshot still holds the dead
                // subscribers' final series, and the root span above is
                // already in the ring so the dump's waterfalls include
                // the eviction epoch) — then drop their series so the
                // exports stop carrying dead `sub{id}` forever.
                let ids: Vec<String> = evicted.iter().map(|id| id.to_string()).collect();
                o.flight.dump(
                    "subscriber-eviction",
                    &format!("sub(s) {} evicted at epoch {epoch}", ids.join(",")),
                );
                for &id in &evicted {
                    o.registry
                        .prune_prefix(&format!("{}.", o.ns.indexed("sub", id)));
                }
            }
        }
        Ok(())
    }

    /// A snapshot of subscription `id`'s full maintained view (tuples
    /// over the query's free variables). `None` if the subscription is
    /// gone.
    pub fn view(&mut self, id: SubId) -> Option<Relation<R>> {
        let gid = *self.sub_group.get(&id)?;
        let group = self.groups.get_mut(&gid)?;
        let schema = group.session.query().free.clone();
        let mut rel = Relation::new(schema);
        group.session.for_each_output(&mut |t, r| {
            rel.apply(t.clone(), r);
        });
        Some(rel)
    }

    /// Live subscribers across all groups.
    pub fn subscriber_count(&self) -> usize {
        self.groups.values().map(|g| g.taps.len()).sum()
    }

    /// Live deduped engine groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Batches ingested so far (the next delivery's epoch number).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether subscription `id` is still live.
    pub fn is_subscribed(&self, id: SubId) -> bool {
        self.sub_group.contains_key(&id)
    }

    /// Node-wide resident-tuple census: the shared base, the shared
    /// store hub (each shared relation once), and every group engine's
    /// privately owned state. The headline number the serving layer
    /// exists to shrink versus N independent sessions.
    pub fn resident_tuples(&self) -> usize {
        self.base.size()
            + self.hub.stored_tuples()
            + self
                .groups
                .values()
                .map(|g| g.session.resident_tuples().unwrap_or(0))
                .sum::<usize>()
    }
}

impl<R: Semiring> Default for ServeNode<R> {
    fn default() -> Self {
        ServeNode::new()
    }
}
