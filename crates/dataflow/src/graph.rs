//! The delta dataflow: a query's base relations feeding one
//! worst-case-optimal multiway join.
//!
//! A [`Dataflow`] consolidates each [`apply_batch`](Dataflow::apply_batch)
//! (see [`DeltaBatch`]) and hands the deltas of the relations it reads to
//! its [`multiway`](crate::multiway) join, which expands the delta of the
//! join symmetrically over the changed atoms,
//!
//! ```text
//! δ(R₁ ⋈ … ⋈ Rₖ) = Σ_{∅ ≠ S ⊆ changed}  Π_{i∈S} δRᵢ · Π_{i∉S} Rᵢ
//! ```
//!
//! — for two atoms the semi-naive `δL⋈R ⊎ L⋈δR ⊎ δL⋈δR` — and sums each
//! term's join tuples straight into a delta over the free variables. The
//! dataflow folds that delta into the maintained output view. This is the
//! delta-query architecture of Koch et al.'s collection programming and of
//! DBSP, specialized to finite relations over rings; because payloads live
//! in a ring, batches commute and consolidation before propagation is
//! always sound.

use crate::batch::DeltaBatch;
use crate::multiway::{MultiwayState, StoreHub};
use ivm_core::EngineError;
use ivm_data::ops::Lift;
use ivm_data::{Relation, Schema, Sym, Update};
use ivm_obs::{Counter, Histogram, LabelId, MetricsRegistry, Tracer};
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

    /// Fold `other` into `self`, field-wise. Used by [`DataflowEngine`]
    /// to carry counters across re-plans and by the sharded engine to
    /// aggregate per-shard counters into one fleet-wide view.
    ///
    /// [`DataflowEngine`]: crate::DataflowEngine
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

    /// The counter increments since `earlier`, field-wise and saturating.
    /// The replan policy judges *windows* of the stream (counters since
    /// the last replan), not lifetime totals — a plan that blew up early
    /// and was fixed must not keep tripping the trigger forever.
    /// Saturating because a sharded fleet's merged snapshot can lag a
    /// baseline taken mid-settle.
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

/// Registry handles of a whole dataflow. The counters mirror
/// [`DataflowStats`] (pushed as increments at each batch boundary so the
/// registry stays cumulative across [`Dataflow::reset_stats`]); the join
/// operator's handles are written inline during propagation.
struct GraphObs {
    /// The join's cumulative apply time and delta-in/delta-out tuples.
    op_apply_ns: Counter,
    op_in_tuples: Counter,
    op_out_tuples: Counter,
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

impl GraphObs {
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

/// A runnable delta dataflow: the multiway join over the query's atoms and
/// the materialized output view.
pub struct Dataflow<R> {
    join: MultiwayState<R>,
    /// The join's global variable order, reported by [`Self::describe`].
    var_order: Schema,
    output: Relation<R>,
    stats: DataflowStats,
    /// Telemetry handles, present only while a registry is attached.
    /// `None` costs one branch per batch and nothing per tuple.
    obs: Option<GraphObs>,
}

impl<R: Semiring> Dataflow<R> {
    /// The dataflow joining `atoms` — each occurrence's relation with its
    /// variable schema — along `var_order`, which must cover every atom
    /// variable, and maintaining the join aggregated onto
    /// `out ⊆ var_order`: every join tuple adds its payload, times `lift`
    /// of each variable not in `out` (in `var_order` order), under its
    /// projection onto `out` (see [`crate::multiway`]'s §Aggregation).
    pub(crate) fn new(
        atoms: &[(Sym, Schema)],
        var_order: Schema,
        out: Schema,
        lift: Lift<R>,
    ) -> Self {
        Dataflow {
            join: MultiwayState::new(atoms, var_order.clone(), out.clone(), lift),
            var_order,
            output: Relation::new(out),
            stats: DataflowStats::default(),
            obs: None,
        }
    }

    /// Attach a metrics registry: every future batch records the join's
    /// apply time and delta-in/delta-out tuple counts under
    /// `{prefix}.op.0.multiway_join.*`, a `{prefix}.batch_apply_ns`
    /// histogram, and cumulative [`DataflowStats`] mirrors under
    /// `{prefix}.*`. Counting starts from the *current* state — history
    /// applied before attachment (e.g. preprocessing) is not back-filled.
    /// Attaching again (even to the same registry) just re-resolves the
    /// handles.
    pub fn attach_obs(&mut self, registry: &MetricsRegistry, prefix: &str) {
        let counter = |name: &str| registry.counter(&format!("{prefix}.{name}"));
        self.obs = Some(GraphObs {
            op_apply_ns: counter("op.0.multiway_join.apply_ns"),
            op_in_tuples: counter("op.0.multiway_join.in_tuples"),
            op_out_tuples: counter("op.0.multiway_join.out_tuples"),
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

    /// Drop the registry handles; subsequent batches record nothing.
    pub fn detach_obs(&mut self) {
        self.obs = None;
    }

    /// The maintained output view.
    pub fn output(&self) -> &Relation<R> {
        &self.output
    }

    /// Propagation counters.
    pub fn stats(&self) -> DataflowStats {
        self.stats
    }

    /// Zero the propagation counters. Used after a re-plan's preprocessing
    /// replay, whose one-off counter noise is not update-stream work.
    pub fn reset_stats(&mut self) {
        self.stats = DataflowStats::default();
        // The registry keeps its cumulative totals; re-base the mirror so
        // the next sync diffs against the fresh zeros instead of
        // saturating against the discarded history.
        if let Some(obs) = &mut self.obs {
            obs.mirrored = DataflowStats::default();
        }
    }

    /// Count updates received at a boundary that bypasses
    /// [`Self::apply_batch`] (pre-consolidated ingestion), so
    /// `updates_in` stays a truthful ingestion total.
    pub(crate) fn record_updates_in(&mut self, n: u64) {
        self.stats.updates_in += n;
    }

    /// Join the multiway join's stores onto `hub`'s shared store for each
    /// relation, switching them to coordinator-driven advancement (see
    /// [`StoreHub`]). Returns the number of dedup hits — relations whose
    /// store some earlier engine had already donated.
    pub fn share_multiway_stores(&mut self, hub: &StoreHub<R>) -> usize {
        self.join.share_stores(hub)
    }

    /// Tuples resident in state this dataflow *owns*: the output view and
    /// the non-hub multiway stores. Hub-shared stores are excluded so a
    /// census over many engines plus one hub counts each shared relation
    /// exactly once.
    pub fn resident_tuples(&self) -> usize {
        self.output.len() + self.join.owned_tuples()
    }

    /// Whether the join reads `relation`.
    pub fn has_source_for(&self, relation: Sym) -> bool {
        self.join.relations().contains(&relation)
    }

    /// The plan in one line: the join's atom count, the relations it
    /// reads, its variable order — which a replan re-derives — and its
    /// output schema.
    pub fn describe(&self) -> String {
        format!(
            "MultiwayJoin(atoms={}) over {:?} order {:?} -> {:?}",
            self.join.atom_count(),
            self.join.relations(),
            self.var_order,
            self.output.schema()
        )
    }

    /// Apply a batch of single-tuple updates: consolidate, propagate the
    /// deltas through the join, fold the join's output delta into the
    /// output view, and return it.
    ///
    /// Errors with [`EngineError::UnknownRelation`] if an update targets a
    /// relation the join does not read.
    pub fn apply_batch(&mut self, updates: &[Update<R>]) -> Result<Relation<R>, EngineError> {
        for u in updates {
            if !self.has_source_for(u.relation) {
                return Err(EngineError::UnknownRelation(u.relation));
            }
        }
        self.stats.updates_in += updates.len() as u64;
        let batch = DeltaBatch::from_updates(updates);
        Ok(self.apply_delta_batch(&batch))
    }

    /// Propagate an already consolidated batch (relations must be known).
    pub fn apply_delta_batch(&mut self, batch: &DeltaBatch<R>) -> Relation<R> {
        self.stats.batches += 1;
        if batch.is_empty() {
            if let Some(obs) = &mut self.obs {
                obs.sync(&self.stats);
            }
            return Relation::new(self.output.schema().clone());
        }
        self.stats.deltas_in += batch.len() as u64;
        // Under an ambient epoch root (session/serve ingest), the whole
        // batch gets a span and the join becomes its child; standalone use
        // (no root) traces nothing.
        let batch_span = self
            .obs
            .as_ref()
            .and_then(|o| o.tracer.child_span(o.batch_label));
        let t_batch = self.obs.as_ref().map(|_| Instant::now());
        let delta = self.join.apply(batch, &mut self.stats);
        if let (Some(o), Some(t0)) = (&self.obs, t_batch) {
            // A batch the join does not read skips the clock read and the
            // counter writes entirely.
            if let Some(d) = &delta {
                let now = Instant::now();
                o.op_apply_ns.add((now - t0).as_nanos() as u64);
                if let Some(bs) = &batch_span {
                    o.tracer
                        .record_at(o.op_label, Some(bs.id()), bs.epoch(), t0, now - t0);
                }
                let relations = self.join.relations().iter();
                let in_tuples = relations.filter_map(|&r| batch.delta(r)).map(|m| m.len());
                o.op_in_tuples.add(in_tuples.sum::<usize>() as u64);
                o.op_out_tuples.add(d.len() as u64);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cardinalities;
    use ivm_data::ops::{eval_join_aggregate, lift_one};
    use ivm_data::{sym, tup, vars};
    use ivm_query::{Atom, Query};

    fn two_rel_flow() -> (Dataflow<i64>, Sym, Sym) {
        // Q(x, z) = Σ_y R(x, y) · S(y, z)
        let [x, y, z] = vars(["gr_X", "gr_Y", "gr_Z"]);
        let (rn, sn) = (sym("gr_R"), sym("gr_S"));
        let q = Query::new(
            "gr_two",
            [x, z],
            vec![Atom::new(rn, [x, y]), Atom::new(sn, [y, z])],
        );
        let df = crate::planner::lower(&q, lift_one, &Cardinalities::none());
        (df, rn, sn)
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
        assert_eq!(df.output().len(), expect.len());
        for (t, p) in expect.iter() {
            assert_eq!(&df.output().get(t), p, "at {t:?}");
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
        assert_eq!(df.output().len(), 1);
        let del: Vec<Update<i64>> = vec![Update::delete(rn, tup![1i64, 10i64])];
        let delta = df.apply_batch(&del).unwrap();
        assert_eq!(delta.get(&tup![1i64, 7i64]), -1);
        assert!(df.output().is_empty());
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
        let mut df = crate::planner::lower(&q, lift_one, &Cardinalities::none());
        df.apply_batch(&[
            Update::with_payload(rn, tup![1i64], 2),
            Update::with_payload(sn, tup![9i64], 3),
        ])
        .unwrap();
        assert_eq!(df.output().get(&tup![1i64, 9i64]), 6);
        df.apply_batch(&[Update::with_payload(sn, tup![8i64], 1)])
            .unwrap();
        assert_eq!(df.output().get(&tup![1i64, 8i64]), 2);
    }

    #[test]
    fn unknown_relation_rejected() {
        let (mut df, _, _) = two_rel_flow();
        let bad: Vec<Update<i64>> = vec![Update::insert(sym("gr_nope"), tup![1i64])];
        assert!(matches!(
            df.apply_batch(&bad),
            Err(EngineError::UnknownRelation(_))
        ));
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
    fn describe_lists_nodes() {
        let (df, _, _) = two_rel_flow();
        assert_eq!(
            df.describe(),
            "MultiwayJoin(atoms=2) over [gr_R, gr_S] order [gr_Y, gr_X, gr_Z] -> [gr_X, gr_Z]"
        );
    }

    /// The sharded engine moves whole dataflows (multiway tries included)
    /// onto worker threads.
    #[test]
    fn dataflow_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Dataflow<i64>>();
        assert_send::<DataflowStats>();
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
        // exceed the current snapshot after a counter reset (replan) or
        // when a fleet's merged snapshot lags a baseline taken
        // mid-settle; every field must clamp to zero, never wrap.
        assert_eq!(m.since(&a), b);
        let window = a.since(&b);
        assert_eq!(window, DataflowStats::default(), "underflow must clamp");
        assert_eq!(DataflowStats::default().since(&m), DataflowStats::default());
    }

    /// Attached registry mirrors the stats counters and records the
    /// join's apply time / tuple counts; detaching stops updates but keeps
    /// the registry's cumulative values.
    #[test]
    fn attached_registry_mirrors_stats() {
        use ivm_obs::MetricsRegistry;
        let (mut df, rn, sn) = two_rel_flow();
        let reg = MetricsRegistry::new();
        df.attach_obs(&reg, "t.df");
        let ups: Vec<Update<i64>> = vec![
            Update::with_payload(rn, tup![1i64, 10i64], 2),
            Update::with_payload(sn, tup![10i64, 7i64], 3),
        ];
        df.apply_batch(&ups).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("t.df.batches"), df.stats().batches);
        assert_eq!(snap.counter("t.df.updates_in"), 2);
        assert_eq!(
            snap.counter("t.df.output_delta_tuples"),
            df.stats().output_delta_tuples
        );
        // The join's series exist: it read both consolidated deltas and
        // emitted one output tuple.
        assert_eq!(snap.counter("t.df.op.0.multiway_join.in_tuples"), 2);
        assert_eq!(snap.counter("t.df.op.0.multiway_join.out_tuples"), 1);
        assert!(snap.histogram("t.df.batch_apply_ns").unwrap().count == 1);

        // reset_stats re-bases the mirror: the registry keeps counting
        // increments on top of its cumulative total.
        df.reset_stats();
        df.apply_batch(&[Update::with_payload(rn, tup![2i64, 10i64], 1)])
            .unwrap();
        let snap2 = reg.snapshot();
        assert_eq!(snap2.counter("t.df.updates_in"), 3);
        assert_eq!(snap2.counter("t.df.batches"), 2);

        df.detach_obs();
        df.apply_batch(&[Update::with_payload(rn, tup![3i64, 10i64], 1)])
            .unwrap();
        assert_eq!(reg.snapshot().counter("t.df.updates_in"), 3);
    }
}
