//! The dataflow-backed [`Maintainer`]: the repo's generic fallback engine.
//!
//! Any `ivm_query::Query` — q-hierarchical or not, acyclic or *cyclic*,
//! self-join or not — lowers to one worst-case-optimal
//! [`multiway`](crate::multiway) join: one input per *distinct* relation
//! (self-join occurrences share its store and indexes) and a cost-based
//! variable order from [`cost::variable_order`]. Each batch is
//! consolidated (see [`DeltaBatch`](ivm_data::DeltaBatch)) and handed to the join, which expands
//! the delta of the join symmetrically over the changed atoms,
//!
//! ```text
//! δ(R₁ ⋈ … ⋈ Rₖ) = Σ_{∅ ≠ S ⊆ changed}  Π_{i∈S} δRᵢ · Π_{i∉S} Rᵢ
//! ```
//!
//! — for two atoms the semi-naive `δL⋈R ⊎ L⋈δR ⊎ δL⋈δR` — and sums each
//! term's join tuples straight into a delta over the free variables, which
//! the engine folds into its output view. There is no final aggregate, so
//! a triangle count never lists a triangle, and no binary intermediate is
//! ever materialized — the Sec. 3.3 blow-up that Kara et al. and
//! leapfrog-style algorithms avoid. One algorithm serves acyclic queries
//! too (Veldhuizen, *Incremental Maintenance for Leapfrog Triejoin*): a
//! seed plan always binds next a variable joined to the binding so far,
//! so on an α-acyclic query each step is keyed like a join-tree edge.
//!
//! This is the delta-query architecture of Koch et al.'s collection
//! programming and of DBSP, specialized to finite relations over rings:
//! because payloads live in a ring, batches commute and consolidation
//! before propagation is always sound. It gives no constant-time
//! guarantee, but O(|δQ| + index-probe) work per batch for every
//! conjunctive query with aggregates.

use crate::cost::{self, Cardinalities};
use crate::multiway::{MultiwayState, StoreHub};
use ivm_core::{CheckedBatch, EngineError, Maintainer};
use ivm_data::ops::Lift;
use ivm_data::{Database, Entry, Relation, Schema, Sym, Tuple};
use ivm_obs::{Counter, Histogram, LabelId, MetricsRegistry, Tracer};
use ivm_query::Query;
use ivm_ring::Semiring;
use std::time::Instant;

/// Counters exposed for benchmarking and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DataflowStats {
    /// Batches propagated.
    pub batches: u64,
    /// Single-tuple updates received (before consolidation).
    pub updates_in: u64,
    /// Consolidated delta entries actually propagated.
    pub deltas_in: u64,
    /// Delta tuples the join emitted into the output view.
    pub output_delta_tuples: u64,
    /// Materialized binary-join intermediates. Always 0: the one join
    /// operator is the multiway join, which materializes none. Kept so
    /// that readers of the counter set keep compiling.
    pub binary_join_tuples: u64,
    /// Delta tuples that seeded a multiway variable-elimination search.
    pub multiway_seeds: u64,
    /// Probes performed by multiway searches — the machine-independent
    /// work measure of the WCOJ path. One probe is one lookup under a
    /// borrowed key: a step constraint's candidate set in a pattern index,
    /// a candidate value's membership in another constraint's set, or a
    /// fully bound atom's payload. A step probes its constraints smallest
    /// index first and stops at the first absent key, so in the mixed
    /// terms of the delta expansion the batch-sized delta index usually
    /// ends the branch after one probe; the count per update is therefore
    /// lower than under the atom-order search this replaced (22.7 → 20.8
    /// on the `tri-wcoj` pipeline row) for the same seeds and outputs.
    pub multiway_probes: u64,
    /// Candidate values enumerated by multiway intersection steps (the
    /// width of the leapfrog-style search frontier; each candidate then
    /// costs `multiway_probes` membership checks against the other
    /// atoms).
    pub multiway_intersections: u64,
}

impl DataflowStats {
    /// Machine-independent propagation-work measure: multiway probes +
    /// emitted output deltas — one unit per hash probe or emitted entry.
    /// The bound tests scale this against N to estimate empirical
    /// update-cost exponents the way the specialized kernels do with
    /// their own `work()` counters.
    pub fn work(&self) -> u64 {
        self.multiway_probes + self.output_delta_tuples
    }

    /// Fold `other` into `self`, field-wise. Used by the sharded engine to
    /// aggregate per-shard counters into one fleet-wide view.
    pub fn merge(&mut self, other: &DataflowStats) {
        let DataflowStats {
            batches,
            updates_in,
            deltas_in,
            output_delta_tuples,
            binary_join_tuples,
            multiway_seeds,
            multiway_probes,
            multiway_intersections,
        } = other;
        self.batches += batches;
        self.updates_in += updates_in;
        self.deltas_in += deltas_in;
        self.output_delta_tuples += output_delta_tuples;
        self.binary_join_tuples += binary_join_tuples;
        self.multiway_seeds += multiway_seeds;
        self.multiway_probes += multiway_probes;
        self.multiway_intersections += multiway_intersections;
    }

    /// [`Self::merge`] by value, for iterator folds.
    pub fn merged(mut self, other: &DataflowStats) -> DataflowStats {
        self.merge(other);
        self
    }

    /// The counter increments since `earlier`, field-wise and saturating:
    /// what one window of the stream cost. The registry mirror pushes
    /// these at each batch boundary, and the bound tests measure a window
    /// with them. Saturating because a sharded fleet's merged snapshot can
    /// lag a baseline taken mid-settle.
    pub fn since(&self, earlier: &DataflowStats) -> DataflowStats {
        DataflowStats {
            batches: self.batches.saturating_sub(earlier.batches),
            updates_in: self.updates_in.saturating_sub(earlier.updates_in),
            deltas_in: self.deltas_in.saturating_sub(earlier.deltas_in),
            output_delta_tuples: self
                .output_delta_tuples
                .saturating_sub(earlier.output_delta_tuples),
            binary_join_tuples: self
                .binary_join_tuples
                .saturating_sub(earlier.binary_join_tuples),
            multiway_seeds: self.multiway_seeds.saturating_sub(earlier.multiway_seeds),
            multiway_probes: self.multiway_probes.saturating_sub(earlier.multiway_probes),
            multiway_intersections: self
                .multiway_intersections
                .saturating_sub(earlier.multiway_intersections),
        }
    }
}

/// Registry handles, present while a registry is attached. The counters
/// mirror [`DataflowStats`], pushed as increments at each batch boundary;
/// the join's apply time and span are recorded inline.
struct EngineObs {
    /// The join's cumulative apply time.
    op_apply_ns: Counter,
    /// Interned trace label of the join (`op.0.multiway_join`), resolved
    /// at attach time so the hot path records spans without allocating.
    op_label: LabelId,
    batch_ns: Histogram,
    batches: Counter,
    updates_in: Counter,
    deltas_in: Counter,
    output_delta_tuples: Counter,
    multiway_seeds: Counter,
    multiway_probes: Counter,
    multiway_intersections: Counter,
    /// The registry's tracer; the join's spans join whatever epoch root is
    /// ambient on the applying thread.
    tracer: Tracer,
    /// Interned label for the whole-batch span (`engine.apply_batch`).
    batch_label: LabelId,
    /// Stats value already pushed to the registry; the next sync pushes
    /// `stats.since(mirrored)`.
    mirrored: DataflowStats,
}

impl EngineObs {
    /// Push counter increments accumulated since the last sync.
    fn sync(&mut self, stats: &DataflowStats) {
        let d = stats.since(&self.mirrored);
        self.batches.add(d.batches);
        self.updates_in.add(d.updates_in);
        self.deltas_in.add(d.deltas_in);
        self.output_delta_tuples.add(d.output_delta_tuples);
        self.multiway_seeds.add(d.multiway_seeds);
        self.multiway_probes.add(d.multiway_probes);
        self.multiway_intersections.add(d.multiway_intersections);
        self.mirrored = *stats;
    }
}

/// Maintains an arbitrary conjunctive query with aggregates — including
/// cyclic ones no specialized engine in `ivm-core` accepts — by batched
/// delta propagation through one worst-case-optimal multiway join.
///
/// Construction never rejects a query shape: where `EagerFactEngine`
/// demands q-hierarchical queries, this engine accepts anything
/// `ivm_query::Query` can express and trades the constant-time guarantees
/// for O(|δQ|)-style per-batch work. Updates to static atoms (Sec. 4.5)
/// are refused by the ingestion rule, as every engine refuses them.
pub struct DataflowEngine<R> {
    query: Query,
    lift: Lift<R>,
    /// The cardinality snapshot the join's variable order was derived
    /// from — what the replan policy compares learned counts against.
    lowered_cards: Cardinalities,
    join: MultiwayState<R>,
    /// The join's variable order, reported by [`Self::plan`].
    var_order: Schema,
    output: Relation<R>,
    /// Counters over the engine's whole life: a replan swaps the join and
    /// the view and leaves these alone.
    stats: DataflowStats,
    /// Telemetry handles, present only while a registry is attached.
    /// `None` costs one branch per batch and nothing per tuple.
    obs: Option<EngineObs>,
}

impl<R: Semiring> DataflowEngine<R> {
    /// Lower `query` onto the multiway join ordered by `db`'s relation
    /// cardinalities, then preprocess by streaming `db`'s contents for
    /// every atom relation (static and dynamic) through the join.
    pub fn new(query: Query, db: &Database<R>, lift: Lift<R>) -> Result<Self, EngineError> {
        let cards = Cardinalities::from_db(db, &query);
        Self::new_with_cards(query, db, lift, cards)
    }

    /// [`Self::new`] ordering the plan by an explicit cardinality snapshot
    /// instead of `db`'s current sizes — the adaptive replanning path
    /// lowers from *learned* counts here, and records the snapshot so a
    /// later policy decision can compare the order this plan was actually
    /// derived from against fresh ones. The preprocessing pass counts as
    /// one batch of as many updates as `db` holds atom-relation tuples.
    pub fn new_with_cards(
        query: Query,
        db: &Database<R>,
        lift: Lift<R>,
        cards: Cardinalities,
    ) -> Result<Self, EngineError> {
        query.check_atoms().map_err(EngineError::NotSupported)?;
        let atoms: Vec<(Sym, Schema)> = query
            .atoms
            .iter()
            .map(|a| (a.name, a.schema.clone()))
            .collect();
        let var_order = cost::variable_order(&query, &cards);
        let join = MultiwayState::new(&atoms, var_order.clone(), query.free.clone(), lift);
        let mut engine = DataflowEngine {
            output: Relation::new(query.free.clone()),
            query,
            lift,
            lowered_cards: cards,
            join,
            var_order,
            stats: DataflowStats::default(),
            obs: None,
        };
        // The base goes straight into one batch, relation by relation: a
        // relation's tuples are distinct and non-zero, so they are already
        // consolidated.
        let rels = atoms
            .iter()
            .enumerate()
            .filter(|&(i, &(rel, _))| !atoms[..i].iter().any(|&(r, _)| r == rel))
            .filter_map(|(_, &(rel, _))| Some((rel, db.get(rel)?)));
        let len = rels.clone().map(|(_, tuples)| tuples.len()).sum();
        let preload = rels.flat_map(|(rel, tuples)| tuples.iter().map(move |(t, r)| (rel, t, r)));
        engine.stats.updates_in += len as u64;
        engine.propagate(preload, len);
        Ok(engine)
    }

    /// Attach a metrics registry: every future batch records the join's
    /// apply time under `{prefix}.op.0.multiway_join.apply_ns`, a
    /// `{prefix}.batch_apply_ns` histogram, and cumulative
    /// [`DataflowStats`] mirrors under `{prefix}.*`. Counting starts from
    /// the *current* state — history applied before attachment (e.g.
    /// preprocessing) is not back-filled. Attaching again (even to the
    /// same registry) just re-resolves the handles; a replan keeps them.
    pub fn observe(&mut self, registry: &MetricsRegistry, prefix: &str) {
        let counter = |name: &str| registry.counter(&format!("{prefix}.{name}"));
        self.obs = Some(EngineObs {
            op_apply_ns: counter("op.0.multiway_join.apply_ns"),
            op_label: registry.tracer().intern("op.0.multiway_join"),
            batch_ns: registry.histogram(&format!("{prefix}.batch_apply_ns")),
            batches: counter("batches"),
            updates_in: counter("updates_in"),
            deltas_in: counter("deltas_in"),
            output_delta_tuples: counter("output_delta_tuples"),
            multiway_seeds: counter("multiway_seeds"),
            multiway_probes: counter("multiway_probes"),
            multiway_intersections: counter("multiway_intersections"),
            tracer: registry.tracer().clone(),
            batch_label: registry.tracer().intern("engine.apply_batch"),
            mirrored: self.stats,
        });
    }

    /// Re-lower the query onto a fresh join whose variable order is
    /// derived from `cards` — the adaptive path passes *learned* counts —
    /// and rebuild the join's state and the view from `db` (the *current*
    /// base state; the engine materializes only its own indexes, so the
    /// caller owns the ground truth, exactly as in [`Self::new`]).
    ///
    /// Only the join, the view and the recorded cardinalities are swapped:
    /// the rebuild is not stream work and is not counted, so
    /// [`Self::stats`] and an attached registry go on counting the
    /// engine's whole history across any number of replans.
    pub fn replan_with_cards(
        &mut self,
        db: &Database<R>,
        cards: Cardinalities,
    ) -> Result<(), EngineError> {
        let DataflowEngine {
            join,
            var_order,
            output,
            lowered_cards,
            ..
        } = Self::new_with_cards(self.query.clone(), db, self.lift, cards)?;
        self.join = join;
        self.var_order = var_order;
        self.output = output;
        self.lowered_cards = lowered_cards;
        Ok(())
    }

    /// The cardinality snapshot the current plan's variable order was
    /// derived from (empty for a blind build over an empty
    /// database). The replan policy compares these against learned
    /// counts to decide whether a re-lowering pays for itself.
    pub fn lowered_cards(&self) -> &Cardinalities {
        &self.lowered_cards
    }

    /// Propagate a checked, consolidated batch (`len` entries) through the
    /// join, fold the join's output delta into the view, and return it.
    fn propagate<'b>(
        &mut self,
        batch: impl Iterator<Item = Entry<'b, R>>,
        len: usize,
    ) -> Relation<R> {
        self.stats.batches += 1;
        if len == 0 {
            if let Some(obs) = &mut self.obs {
                obs.sync(&self.stats);
            }
            return Relation::new(self.output.schema().clone());
        }
        self.stats.deltas_in += len as u64;
        // Under an ambient epoch root (session/serve ingest), the whole
        // batch gets a span and the join becomes its child; standalone use
        // (no root) traces nothing.
        let batch_span = self
            .obs
            .as_ref()
            .and_then(|o| o.tracer.child_span(o.batch_label));
        let t_batch = self.obs.as_ref().map(|_| Instant::now());
        let delta = self.join.apply(batch, len, &mut self.stats);
        if let (Some(o), Some(t0), Some(_)) = (&self.obs, t_batch, &delta) {
            // A batch the join does not read skips the clock read.
            let now = Instant::now();
            o.op_apply_ns.add((now - t0).as_nanos() as u64);
            if let Some(bs) = &batch_span {
                o.tracer
                    .record_at(o.op_label, Some(bs.id()), bs.epoch(), t0, now - t0);
            }
        }
        let out_delta = delta.unwrap_or_else(|| Relation::new(self.output.schema().clone()));
        self.stats.output_delta_tuples += out_delta.len() as u64;
        for (t, r) in out_delta.iter() {
            self.output.apply(t.clone(), r);
        }
        if let (Some(o), Some(t0)) = (self.obs.as_mut(), t_batch) {
            o.batch_ns.record_duration(t0.elapsed());
            o.sync(&self.stats);
        }
        out_delta
    }

    /// The maintained output view.
    pub fn output_relation(&self) -> &Relation<R> {
        &self.output
    }

    /// Propagation counters (batches, consolidation, join work, output
    /// deltas) over the engine's whole life, replans included.
    pub fn stats(&self) -> DataflowStats {
        self.stats
    }

    /// The plan in one line: the join's atom count, the relations it
    /// reads, its variable order — which a replan re-derives — and its
    /// output schema.
    pub fn plan(&self) -> String {
        format!(
            "MultiwayJoin(atoms={}) over {:?} order {:?} -> {:?}",
            self.join.atom_count(),
            self.join.relations(),
            self.var_order,
            self.output.schema()
        )
    }

    /// Join this engine's multiway stores onto a [`StoreHub`] shared with
    /// other engines, so overlapping relations are stored once
    /// fleet-wide. Returns the number of dedup hits — relations whose
    /// store some earlier engine had already donated. Shared slots stop
    /// advancing in-engine; the hub owner must call
    /// [`StoreHub::advance_batch`] once per batch after every member
    /// engine has processed it.
    pub fn share_stores(&mut self, hub: &StoreHub<R>) -> usize {
        self.join.share_stores(hub)
    }

    /// Tuples resident in engine-owned state (output view, non-hub
    /// multiway stores). Hub-shared stores are counted by
    /// [`StoreHub::stored_tuples`], not here, so a census over many
    /// engines plus one hub counts each shared relation exactly once.
    pub fn resident_tuples(&self) -> usize {
        self.output.len() + self.join.owned_tuples()
    }
}

impl<R: Semiring> Maintainer<R> for DataflowEngine<R> {
    fn query(&self) -> &Query {
        &self.query
    }

    /// One consolidated delta propagation through the multiway join, which
    /// returns the batch's exact output delta.
    fn apply_checked(&mut self, batch: &CheckedBatch<'_, R>) -> Result<Relation<R>, EngineError> {
        self.stats.updates_in += batch.len() as u64;
        let delta = batch.delta();
        Ok(self.propagate(delta.iter(), delta.len()))
    }

    fn for_each_output(&mut self, f: &mut dyn FnMut(&Tuple, &R)) {
        for (t, r) in self.output.iter() {
            f(t, r);
        }
    }
}

impl<R: Semiring> std::fmt::Debug for DataflowEngine<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataflowEngine")
            .field("query", &self.query)
            .field("plan", &self.plan())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::ops::{eval_join_aggregate, lift_one};
    use ivm_data::{sym, tup, vars, Update};
    use ivm_query::Atom;

    /// The engine over an empty database: its plan is the blind order.
    fn blind(q: Query) -> DataflowEngine<i64> {
        DataflowEngine::new(q, &Database::new(), lift_one).unwrap()
    }

    #[test]
    fn agrees_with_oracle_on_fig3() {
        let q = ivm_query::examples::fig3_query();
        let (rn, sn) = (sym("f3_R"), sym("f3_S"));
        let mut eng = blind(q.clone());
        let mut r = Relation::new(q.atoms[0].schema.clone());
        let mut s = Relation::new(q.atoms[1].schema.clone());
        for i in 0..20i64 {
            let t = tup![i % 4, i % 3];
            r.apply(t.clone(), &1);
            eng.apply(&Update::insert(rn, t)).unwrap();
            let t = tup![i % 3, i % 5];
            s.apply(t.clone(), &1);
            eng.apply(&Update::insert(sn, t)).unwrap();
        }
        let expect = eval_join_aggregate(&[&r, &s], &q.free, lift_one);
        let got = eng.output();
        assert_eq!(got.len(), expect.len());
        for (t, p) in expect.iter() {
            assert_eq!(&got.get(t), p, "at {t:?}");
        }
    }

    /// The cyclic self-join triangle query `Q() = Σ E(a,b) E(b,c) E(c,a)`
    /// over ONE edge relation — outside every specialized engine's class.
    fn triangle_self_join() -> Query {
        let [a, b, c] = vars(["dfe_tA", "dfe_tB", "dfe_tC"]);
        let e = sym("dfe_tE");
        Query::new(
            "dfe_tri",
            [],
            vec![
                Atom::new(e, [a, b]),
                Atom::new(e, [b, c]),
                Atom::new(e, [c, a]),
            ],
        )
    }

    #[test]
    fn maintains_cyclic_triangle_count() {
        // Each directed triangle is counted once per rotation of (a,b,c),
        // i.e. three derivations.
        let q = triangle_self_join();
        let e = q.atoms[0].name;
        let mut eng = blind(q);
        // Triangle 1-2-3 plus a dangling edge.
        for (a, b) in [(1i64, 2i64), (2, 3), (3, 1), (1, 9)] {
            eng.apply(&Update::insert(e, tup![a, b])).unwrap();
        }
        assert_eq!(eng.output_relation().get(&Tuple::empty()), 3);
        // A second triangle (1-2-4) via the shared edge (1,2).
        for (a, b) in [(2i64, 4i64), (4, 1)] {
            eng.apply(&Update::insert(e, tup![a, b])).unwrap();
        }
        assert_eq!(eng.output_relation().get(&Tuple::empty()), 6);
        // Deleting an edge of neither triangle changes nothing...
        eng.apply(&Update::delete(e, tup![1i64, 9i64])).unwrap();
        assert_eq!(eng.output_relation().get(&Tuple::empty()), 6);
        // ...deleting a triangle edge removes exactly that triangle.
        eng.apply(&Update::delete(e, tup![2i64, 3i64])).unwrap();
        assert_eq!(eng.output_relation().get(&Tuple::empty()), 3);
    }

    #[test]
    fn batch_equals_singles() {
        let q = triangle_self_join();
        let e = q.atoms[0].name;
        let updates: Vec<Update<i64>> = (0..30i64)
            .map(|i| Update::insert(e, tup![i % 5, (i * 3 + 1) % 5]))
            .collect();
        let mut one = blind(q.clone());
        let mut many = blind(q);
        for u in &updates {
            one.apply(u).unwrap();
        }
        many.apply_batch(&updates).unwrap();
        assert_eq!(
            one.output_relation().get(&Tuple::empty()),
            many.output_relation().get(&Tuple::empty())
        );
        assert!(many.stats().batches < one.stats().batches);
    }

    #[test]
    fn preprocesses_initial_database() {
        let q = ivm_query::examples::fig3_query();
        let (rn, sn) = (sym("f3_R"), sym("f3_S"));
        let mut db: Database<i64> = Database::new();
        db.create(rn, q.atoms[0].schema.clone());
        db.create(sn, q.atoms[1].schema.clone());
        db.apply(&Update::insert(rn, tup![1i64, 10i64]));
        db.apply(&Update::insert(sn, tup![1i64, 20i64]));
        let mut eng = DataflowEngine::<i64>::new(q, &db, lift_one).unwrap();
        assert_eq!(eng.output().get(&tup![1i64, 10i64, 20i64]), 1);
        // The preprocessing pass is one batch of the base's two tuples.
        let s = eng.stats();
        assert_eq!((s.batches, s.updates_in, s.deltas_in), (1, 2, 2));
    }

    /// A re-plan must not reset the engine's counters (they feed bench
    /// trajectories and the sharded engine's aggregated stats), and the
    /// plans before and after it must agree.
    #[test]
    fn stats_survive_replan_and_strategies_agree() {
        let q = triangle_self_join();
        let e = q.atoms[0].name;
        let mut db: Database<i64> = Database::new();
        db.create(e, q.atoms[0].schema.clone());
        let mut eng = DataflowEngine::<i64>::new(q, &db, lift_one).unwrap();
        let edges = [(1i64, 2i64), (2, 3), (3, 1), (2, 4), (4, 1), (1, 9)];
        for (a, b) in edges {
            let u = Update::insert(e, tup![a, b]);
            db.apply(&u);
            eng.apply(&u).unwrap();
        }
        let before = eng.stats();
        assert!(before.batches >= edges.len() as u64);
        assert!(before.multiway_seeds > 0);
        let count_before = eng.output_relation().get(&Tuple::empty());

        // Re-lower from the current base state.
        let blind_plan = eng.plan();
        eng.replan_with_cards(&db, Cardinalities::from_db(&db, &eng.query))
            .unwrap();
        assert_eq!(
            eng.plan(),
            blind_plan,
            "one relation: the order is the tie-break"
        );
        let after = eng.stats();
        assert_eq!(
            eng.output_relation().get(&Tuple::empty()),
            count_before,
            "re-planned engine must reproduce the maintained output"
        );
        // History survived: the preprocessing replay is not stream work.
        assert_eq!(after, before);

        // And the new plan keeps counting on top of the history.
        eng.apply(&Update::delete(e, tup![2i64, 3i64])).unwrap();
        let later = eng.stats();
        assert_eq!(later.updates_in, after.updates_in + 1);
        assert!(later.multiway_seeds > after.multiway_seeds);
        assert_eq!(later.binary_join_tuples, 0);
        assert_eq!(eng.output_relation().get(&Tuple::empty()), count_before - 3);
    }

    #[test]
    fn a_checked_part_applies_without_reconsolidation() {
        let q = ivm_query::examples::fig3_query();
        let (rn, sn) = (sym("f3_R"), sym("f3_S"));
        let mut via_updates = blind(q.clone());
        let mut via_part = blind(q.clone());
        let ups: Vec<Update<i64>> = vec![
            Update::insert(rn, tup![1i64, 10i64]),
            Update::insert(sn, tup![1i64, 20i64]),
            Update::insert(rn, tup![1i64, 10i64]),
        ];
        let d1 = via_updates.apply_batch(&ups).unwrap();
        let checked = CheckedBatch::new(&q.atoms, &ups).unwrap();
        let part = checked.split(1, |_, _| Some(0)).remove(0);
        let d2 = via_part.apply_checked(&part).unwrap();
        assert_eq!(d1.len(), d2.len());
        for (t, p) in d1.iter() {
            assert_eq!(&d2.get(t), p, "at {t:?}");
        }
        // The part counts its two consolidated entries as its updates.
        assert_eq!(via_updates.stats().updates_in, 3);
        assert_eq!(via_part.stats().updates_in, 2);
    }

    /// The sharded engine moves whole engines (multiway tries included)
    /// onto worker threads, and their counters back in reports.
    #[test]
    fn engine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<DataflowEngine<i64>>();
        assert_send::<DataflowStats>();
    }

    #[test]
    fn static_and_unknown_relations_rejected() {
        let [x, y, z] = vars(["dfe_X", "dfe_Y", "dfe_Z"]);
        let (rn, sn) = (sym("dfe_R"), sym("dfe_S"));
        let q = Query::new(
            "dfe_mixed",
            [x],
            vec![
                Atom::new(rn, [x, y]),
                Atom::new_static(sn, Schema::from([y, z])),
            ],
        );
        let mut eng = blind(q);
        assert_eq!(
            eng.apply(&Update::insert(sn, tup![1i64, 2i64])),
            Err(EngineError::StaticRelation(sn))
        );
        assert_eq!(
            eng.apply(&Update::insert(sym("dfe_nope"), tup![1i64])),
            Err(EngineError::UnknownRelation(sym("dfe_nope")))
        );
        eng.apply(&Update::insert(rn, tup![1i64, 2i64])).unwrap();
    }

    #[test]
    fn static_relation_contents_join_via_preprocessing() {
        let [x, y, z] = vars(["dfs_X", "dfs_Y", "dfs_Z"]);
        let (rn, sn) = (sym("dfs_R"), sym("dfs_S"));
        let q = Query::new(
            "dfs_mixed",
            [x, z],
            vec![
                Atom::new(rn, [x, y]),
                Atom::new_static(sn, Schema::from([y, z])),
            ],
        );
        let mut db: Database<i64> = Database::new();
        db.create(sn, Schema::from([y, z]));
        db.apply(&Update::insert(sn, tup![7i64, 100i64]));
        let mut eng = DataflowEngine::<i64>::new(q, &db, lift_one).unwrap();
        eng.apply(&Update::insert(rn, tup![1i64, 7i64])).unwrap();
        assert_eq!(eng.output().get(&tup![1i64, 100i64]), 1);
    }

    /// `Q(x, z) = Σ_y R(x, y) · S(y, z)`, blind.
    fn two_rel_flow() -> (DataflowEngine<i64>, Sym, Sym) {
        let [x, y, z] = vars(["gr_X", "gr_Y", "gr_Z"]);
        let (rn, sn) = (sym("gr_R"), sym("gr_S"));
        let q = Query::new(
            "gr_two",
            [x, z],
            vec![Atom::new(rn, [x, y]), Atom::new(sn, [y, z])],
        );
        (blind(q), rn, sn)
    }

    #[test]
    fn join_then_aggregate_matches_oracle() {
        let (mut df, rn, sn) = two_rel_flow();
        let ups: Vec<Update<i64>> = vec![
            Update::with_payload(rn, tup![1i64, 10i64], 2),
            Update::with_payload(rn, tup![2i64, 10i64], 1),
            Update::with_payload(sn, tup![10i64, 7i64], 3),
            Update::with_payload(sn, tup![10i64, 8i64], 1),
        ];
        df.apply_batch(&ups).unwrap();

        let [x, y, z] = vars(["gr_X", "gr_Y", "gr_Z"]);
        let r = Relation::from_rows(
            Schema::from([x, y]),
            [(tup![1i64, 10i64], 2i64), (tup![2i64, 10i64], 1)],
        );
        let s = Relation::from_rows(
            Schema::from([y, z]),
            [(tup![10i64, 7i64], 3i64), (tup![10i64, 8i64], 1)],
        );
        let expect = eval_join_aggregate(&[&r, &s], &Schema::from([x, z]), lift_one);
        assert_eq!(df.output_relation().len(), expect.len());
        for (t, p) in expect.iter() {
            assert_eq!(&df.output_relation().get(t), p, "at {t:?}");
        }
    }

    #[test]
    fn deletes_roll_back_to_empty() {
        let (mut df, rn, sn) = two_rel_flow();
        let ins: Vec<Update<i64>> = vec![
            Update::insert(rn, tup![1i64, 10i64]),
            Update::insert(sn, tup![10i64, 7i64]),
        ];
        df.apply_batch(&ins).unwrap();
        assert_eq!(df.output_relation().len(), 1);
        let del: Vec<Update<i64>> = vec![Update::delete(rn, tup![1i64, 10i64])];
        let delta = df.apply_batch(&del).unwrap();
        assert_eq!(delta.get(&tup![1i64, 7i64]), -1);
        assert!(df.output_relation().is_empty());
    }

    #[test]
    fn batch_with_both_sides_uses_bilinear_rule() {
        // δL and δR in the same batch must contribute the δL⋈δR term.
        let (mut df, rn, sn) = two_rel_flow();
        let ups: Vec<Update<i64>> = vec![
            Update::insert(rn, tup![1i64, 10i64]),
            Update::insert(sn, tup![10i64, 7i64]),
        ];
        let delta = df.apply_batch(&ups).unwrap();
        assert_eq!(delta.get(&tup![1i64, 7i64]), 1);
        // And with both sides resident, the mixed terms on top of it.
        let ups: Vec<Update<i64>> = vec![
            Update::insert(rn, tup![2i64, 10i64]),
            Update::insert(sn, tup![10i64, 8i64]),
        ];
        let delta = df.apply_batch(&ups).unwrap();
        for (t, m) in [((1, 8), 1), ((2, 7), 1), ((2, 8), 1)] {
            assert_eq!(delta.get(&tup![t.0 as i64, t.1 as i64]), m, "at {t:?}");
        }
        assert_eq!(delta.len(), 3);
    }

    #[test]
    fn cartesian_join_empty_common() {
        let [x, y] = vars(["gr_CX", "gr_CY"]);
        let (rn, sn) = (sym("gr_CR"), sym("gr_CS"));
        let q = Query::new(
            "gr_cart",
            [x, y],
            vec![Atom::new(rn, [x]), Atom::new(sn, [y])],
        );
        let mut df = blind(q);
        df.apply_batch(&[
            Update::with_payload(rn, tup![1i64], 2),
            Update::with_payload(sn, tup![9i64], 3),
        ])
        .unwrap();
        assert_eq!(df.output_relation().get(&tup![1i64, 9i64]), 6);
        df.apply_batch(&[Update::with_payload(sn, tup![8i64], 1)])
            .unwrap();
        assert_eq!(df.output_relation().get(&tup![1i64, 8i64]), 2);
    }

    #[test]
    fn consolidation_skips_cancelled_work() {
        let (mut df, rn, _) = two_rel_flow();
        let before = df.stats();
        let ups: Vec<Update<i64>> = vec![
            Update::insert(rn, tup![1i64, 1i64]),
            Update::delete(rn, tup![1i64, 1i64]),
        ];
        df.apply_batch(&ups).unwrap();
        let after = df.stats();
        assert_eq!(after.updates_in - before.updates_in, 2);
        assert_eq!(
            after.deltas_in, before.deltas_in,
            "cancelled batch propagates nothing"
        );
    }

    #[test]
    fn stats_merge_sums_every_counter() {
        let a = DataflowStats {
            batches: 1,
            updates_in: 2,
            deltas_in: 3,
            output_delta_tuples: 4,
            binary_join_tuples: 5,
            multiway_seeds: 6,
            multiway_probes: 7,
            multiway_intersections: 8,
        };
        let b = DataflowStats {
            batches: 10,
            updates_in: 20,
            deltas_in: 30,
            output_delta_tuples: 40,
            binary_join_tuples: 50,
            multiway_seeds: 60,
            multiway_probes: 70,
            multiway_intersections: 80,
        };
        let m = a.merged(&b);
        assert_eq!(m.batches, 11);
        assert_eq!(m.updates_in, 22);
        assert_eq!(m.deltas_in, 33);
        assert_eq!(m.output_delta_tuples, 44);
        assert_eq!(m.binary_join_tuples, 55);
        assert_eq!(m.multiway_seeds, 66);
        assert_eq!(m.multiway_probes, 77);
        assert_eq!(m.multiway_intersections, 88);
        // Merging the default is the identity.
        assert_eq!(b.merged(&DataflowStats::default()), b);
        // One work unit: a probe or an emitted output delta.
        assert_eq!(m.work(), 77 + 44);

        // since() is merge's saturating inverse. A window baseline can
        // exceed the current snapshot when a fleet's merged snapshot lags
        // a baseline taken mid-settle; every field must clamp to zero,
        // never wrap.
        assert_eq!(m.since(&a), b);
        let window = a.since(&b);
        assert_eq!(window, DataflowStats::default(), "underflow must clamp");
        assert_eq!(DataflowStats::default().since(&m), DataflowStats::default());
    }

    /// An attached registry mirrors the stats counters from the attach
    /// point on and records the join's apply time and the batch latency.
    #[test]
    fn attached_registry_mirrors_stats() {
        let (mut df, rn, sn) = two_rel_flow();
        let reg = MetricsRegistry::new();
        df.observe(&reg, "t.df");
        let at_attach = df.stats();
        let ups: Vec<Update<i64>> = vec![
            Update::with_payload(rn, tup![1i64, 10i64], 2),
            Update::with_payload(sn, tup![10i64, 7i64], 3),
        ];
        df.apply_batch(&ups).unwrap();
        let snap = reg.snapshot();
        let window = df.stats().since(&at_attach);
        assert_eq!(snap.counter("t.df.batches"), window.batches);
        assert_eq!(snap.counter("t.df.updates_in"), 2);
        assert_eq!(snap.counter("t.df.deltas_in"), 2);
        assert_eq!(snap.counter("t.df.output_delta_tuples"), 1);
        assert_eq!(snap.histogram("t.df.batch_apply_ns").unwrap().count, 1);
        let series: Vec<_> = snap.counters_with_prefix("t.df.op.").collect();
        assert_eq!(series.len(), 1, "the join's apply time only: {series:?}");
        assert_eq!(series[0].0, "t.df.op.0.multiway_join.apply_ns");
    }

    /// A replan swaps the join and the view but not the counters: every
    /// mirrored `{prefix}.*` counter still equals the matching `stats()`
    /// increment since the attach, and the rebuild from the base counts
    /// no updates.
    #[test]
    fn registry_mirror_counts_on_across_replans() {
        let (mut df, rn, sn) = two_rel_flow();
        let q = df.query().clone();
        let mut db: Database<i64> = Database::new();
        db.create(rn, q.atoms[0].schema.clone());
        db.create(sn, q.atoms[1].schema.clone());
        let reg = MetricsRegistry::new();
        df.observe(&reg, "t.df");
        let at_attach = df.stats();
        let batches: [Vec<Update<i64>>; 3] = [
            vec![
                Update::insert(rn, tup![1i64, 10i64]),
                Update::insert(sn, tup![10i64, 7i64]),
            ],
            vec![
                Update::insert(rn, tup![2i64, 10i64]),
                Update::insert(sn, tup![10i64, 8i64]),
                Update::insert(sn, tup![10i64, 9i64]),
            ],
            vec![Update::delete(rn, tup![1i64, 10i64])],
        ];
        for (i, batch) in batches.iter().enumerate() {
            df.apply_batch(batch).unwrap();
            db.apply_batch(batch);
            // Replan to the informed order, and back to the blind one.
            let cards = match i {
                0 => Cardinalities::from_db(&db, &q),
                _ => Cardinalities::none(),
            };
            df.replan_with_cards(&db, cards).unwrap();
        }
        let s = df.stats().since(&at_attach);
        assert_eq!(s.updates_in, 6, "the rebuilds count no updates");
        assert_eq!(s.batches, 3);
        let snap = reg.snapshot();
        for (name, v) in [
            ("batches", s.batches),
            ("updates_in", s.updates_in),
            ("deltas_in", s.deltas_in),
            ("output_delta_tuples", s.output_delta_tuples),
            ("multiway_seeds", s.multiway_seeds),
            ("multiway_probes", s.multiway_probes),
            ("multiway_intersections", s.multiway_intersections),
        ] {
            assert_eq!(snap.counter(&format!("t.df.{name}")), v, "{name}");
        }
        assert_eq!(snap.histogram("t.df.batch_apply_ns").unwrap().count, 3);
        assert_eq!(df.output_relation().get(&tup![2i64, 9i64]), 1);
        assert_eq!(df.output_relation().len(), 3);
    }

    #[test]
    fn multiway_plan_computes_triangle_count() {
        let mut df = blind(ivm_query::examples::triangle_count());
        let (rn, sn, tn) = (sym("tri_R"), sym("tri_S"), sym("tri_T"));
        df.apply_batch(&[
            Update::insert(rn, tup![1i64, 2i64]),
            Update::insert(sn, tup![2i64, 3i64]),
            Update::insert(tn, tup![3i64, 1i64]),
            Update::insert(rn, tup![5i64, 6i64]),
        ])
        .unwrap();
        assert_eq!(df.output_relation().get(&Tuple::empty()), 1);
        df.apply_batch(&[Update::delete(sn, tup![2i64, 3i64])])
            .unwrap();
        assert!(df.output_relation().is_empty());
    }

    #[test]
    fn early_marginalization_prunes_wide_intermediates() {
        // Q(a) = R(a,b) S(b,c) T(a,d): b, c and d are summed out inside
        // the join, at each full binding, so nothing wider than [pl_A] is
        // ever built — the join's delta is already the output's.
        let [a, b, c, d] = vars(["pl_A", "pl_B", "pl_C", "pl_D"]);
        let q = Query::new(
            "pl_chain",
            [a],
            vec![
                Atom::new(sym("pl_R"), [a, b]),
                Atom::new(sym("pl_S"), [b, c]),
                Atom::new(sym("pl_T"), [a, d]),
            ],
        );
        let mut df = blind(q);
        assert!(df.plan().ends_with("-> [pl_A]"), "{}", df.plan());
        let delta = df
            .apply_batch(&[
                Update::insert(sym("pl_R"), tup![1i64, 2i64]),
                Update::insert(sym("pl_S"), tup![2i64, 3i64]),
                Update::insert(sym("pl_S"), tup![2i64, 4i64]),
                Update::insert(sym("pl_T"), tup![1i64, 9i64]),
            ])
            .unwrap();
        assert_eq!(delta.schema(), &Schema::from([a]));
        assert_eq!(delta.len(), 1);
        assert_eq!(df.output_relation().get(&tup![1i64]), 2);
        assert_eq!(df.stats().output_delta_tuples, 1);
    }

    #[test]
    fn single_atom_query_lowered() {
        let [x, y] = vars(["pl_X1", "pl_Y1"]);
        let q = Query::new("pl_single", [x], vec![Atom::new(sym("pl_U"), [x, y])]);
        let mut df = blind(q);
        df.apply_batch(&[
            Update::insert(sym("pl_U"), tup![1i64, 5i64]),
            Update::insert(sym("pl_U"), tup![1i64, 6i64]),
        ])
        .unwrap();
        assert_eq!(df.output_relation().get(&tup![1i64]), 2);
    }

    #[test]
    fn boolean_query_aggregates_to_empty_tuple() {
        let [x, y] = vars(["pl_X2", "pl_Y2"]);
        let q = Query::new("pl_bool", [], vec![Atom::new(sym("pl_V"), [x, y])]);
        let mut df = blind(q);
        df.apply_batch(&[
            Update::insert(sym("pl_V"), tup![1i64, 5i64]),
            Update::insert(sym("pl_V"), tup![2i64, 5i64]),
        ])
        .unwrap();
        assert_eq!(df.output_relation().get(&Tuple::empty()), 2);
        assert_eq!(df.output_relation().schema(), &Schema::empty());
    }

    #[test]
    fn describe_lists_nodes() {
        let (df, _, _) = two_rel_flow();
        assert_eq!(
            df.plan(),
            "MultiwayJoin(atoms=2) over [gr_R, gr_S] order [gr_Y, gr_X, gr_Z] -> [gr_X, gr_Z]"
        );
    }

    #[test]
    fn fig3_plan_shape() {
        // The acyclic Fig 3 query lowers to the same one join node as a
        // cyclic one: two relations, no aggregate after it.
        let df = blind(ivm_query::examples::fig3_query());
        assert_eq!(
            df.plan(),
            "MultiwayJoin(atoms=2) over [f3_R, f3_S] order [f3_Y, f3_X, f3_Z] -> [f3_Y, f3_X, f3_Z]"
        );
    }

    #[test]
    fn cyclic_triangle_lowers_to_one_multiway_node() {
        let q = ivm_query::examples::triangle_count();
        let df = blind(q.clone());
        let plan = df.plan();
        assert!(
            plan.starts_with("MultiwayJoin(atoms=3) over [tri_R, tri_S, tri_T]"),
            "{plan}"
        );
        // The join node aggregates onto the free variables itself.
        assert!(plan.ends_with("-> []"), "{plan}");
        assert_eq!(df.output_relation().schema(), &q.free);
    }

    #[test]
    fn triangle_self_join_shares_one_source() {
        // One edge relation in three atoms: the plan reads it through a
        // single input (shared store and indexes).
        let plan = blind(triangle_self_join()).plan();
        assert!(
            plan.starts_with("MultiwayJoin(atoms=3) over [dfe_tE] "),
            "{plan}"
        );
    }

    #[test]
    fn cardinalities_reorder_the_variables() {
        // Q(a,c) = R(a,b)·S(b,c) with S tiny: its variables lead.
        let [a, b, c] = vars(["pl_cA", "pl_cB", "pl_cC"]);
        let q = Query::new(
            "pl_cost",
            [a, c],
            vec![
                Atom::new(sym("pl_cR"), [a, b]),
                Atom::new(sym("pl_cS"), [b, c]),
            ],
        );
        let mut cards = Cardinalities::none();
        cards.set(sym("pl_cR"), 1_000).set(sym("pl_cS"), 2);
        let blind_plan = blind(q.clone()).plan();
        let informed = DataflowEngine::<i64>::new_with_cards(q, &Database::new(), lift_one, cards)
            .unwrap()
            .plan();
        assert!(
            blind_plan.contains("order [pl_cB, pl_cA, pl_cC]"),
            "{blind_plan}"
        );
        assert!(
            informed.contains("order [pl_cB, pl_cC, pl_cA]"),
            "{informed}"
        );
    }
}
