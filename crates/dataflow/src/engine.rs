//! The dataflow-backed [`Maintainer`]: the repo's generic fallback engine.

use crate::cost::Cardinalities;
use crate::graph::{Dataflow, DataflowStats};
use crate::planner::lower;
use ivm_core::{EngineError, Maintainer};
use ivm_data::ops::Lift;
use ivm_data::{Batch, Database, FxHashSet, Relation, Sym, Tuple, Update};
use ivm_query::Query;
use ivm_ring::Semiring;

/// Maintains an arbitrary conjunctive query with aggregates — including
/// cyclic ones no specialized engine in `ivm-core` accepts — by batched
/// delta propagation through one worst-case-optimal multiway join.
///
/// Construction never rejects a query shape: where `EagerFactEngine`
/// demands q-hierarchical queries, this engine accepts anything
/// `ivm_query::Query` can express and trades the constant-time guarantees
/// for O(|δQ|)-style per-batch work. Updates to static atoms (Sec. 4.5)
/// are rejected at [`apply`](Maintainer::apply) time.
pub struct DataflowEngine<R> {
    query: Query,
    dataflow: Dataflow<R>,
    lift: Lift<R>,
    /// The cardinality snapshot the current plan's variable order was
    /// derived from — what the replan policy compares learned counts
    /// against.
    lowered_cards: Cardinalities,
    /// Counters accumulated by dataflows discarded in re-plans; `stats()`
    /// reports `carried ⊕ current`, so the engine's history survives
    /// re-plans instead of silently resetting.
    carried_stats: DataflowStats,
    dynamics: FxHashSet<Sym>,
    statics: FxHashSet<Sym>,
    /// Attached telemetry `(registry, name prefix)`, kept here so a
    /// re-plan can re-attach the fresh dataflow to the same series.
    obs: Option<(ivm_obs::MetricsRegistry, String)>,
}

impl<R: Semiring> DataflowEngine<R> {
    /// Lower `query` onto the multiway join ordered by `db`'s relation
    /// cardinalities, then preprocess by streaming `db`'s contents for
    /// every atom relation (static and dynamic) through the dataflow.
    pub fn new(query: Query, db: &Database<R>, lift: Lift<R>) -> Result<Self, EngineError> {
        let cards = Cardinalities::from_db(db, &query);
        Self::new_with_cards(query, db, lift, cards)
    }

    /// [`Self::new`] ordering the plan by an explicit cardinality snapshot
    /// instead of `db`'s current sizes — the adaptive replanning path
    /// lowers from *learned* counts here, and records the snapshot so a
    /// later policy decision can compare the order this plan was actually
    /// derived from against fresh ones.
    pub fn new_with_cards(
        query: Query,
        db: &Database<R>,
        lift: Lift<R>,
        cards: Cardinalities,
    ) -> Result<Self, EngineError> {
        query
            .check_atom_limit()
            .map_err(EngineError::NotSupported)?;
        let mut dataflow = lower(&query, lift, &cards);

        let mut dynamics: FxHashSet<Sym> = FxHashSet::default();
        let mut statics: FxHashSet<Sym> = FxHashSet::default();
        for atom in &query.atoms {
            if atom.dynamic {
                dynamics.insert(atom.name);
            } else {
                statics.insert(atom.name);
            }
        }
        // A relation that is dynamic in any atom stays updatable.
        statics.retain(|s| !dynamics.contains(s));

        let mut seen: FxHashSet<Sym> = FxHashSet::default();
        let mut init: Batch<R> = Vec::new();
        for atom in &query.atoms {
            if seen.insert(atom.name) {
                if let Some(rel) = db.get(atom.name) {
                    for (t, r) in rel.iter() {
                        init.push(Update::with_payload(atom.name, t.clone(), r.clone()));
                    }
                }
            }
        }
        dataflow.apply_batch(&init)?;

        Ok(DataflowEngine {
            query,
            dataflow,
            lift,
            lowered_cards: cards,
            carried_stats: DataflowStats::default(),
            dynamics,
            statics,
            obs: None,
        })
    }

    /// Attach a metrics registry: batches record the join's apply time
    /// and tuple counts plus cumulative [`DataflowStats`] mirrors under
    /// `{prefix}.*` (see [`Dataflow::attach_obs`]). The attachment
    /// survives re-plans — the fresh dataflow re-binds to the same
    /// series, so the counters keep accumulating.
    pub fn observe(&mut self, registry: &ivm_obs::MetricsRegistry, prefix: &str) {
        self.dataflow.attach_obs(registry, prefix);
        self.obs = Some((registry.clone(), prefix.to_string()));
    }

    /// Re-lower the query onto a fresh plan whose variable order is
    /// derived from `cards` — the adaptive path passes *learned* counts —
    /// and rebuild the join's state by streaming `db` (the *current* base
    /// state; the engine materializes only its own indexes, so the caller
    /// owns the ground truth, exactly as in [`Self::new`]).
    ///
    /// Counters accumulated so far are carried over: [`Self::stats`]
    /// reports the engine's whole history across any number of re-plans,
    /// except the one-off preprocessing batch of the new plan, which is
    /// deliberately not double-counted as stream work.
    pub fn replan_with_cards(
        &mut self,
        db: &Database<R>,
        cards: Cardinalities,
    ) -> Result<(), EngineError> {
        let mut carried = self.carried_stats;
        carried.merge(&self.dataflow.stats());
        let mut fresh = Self::new_with_cards(self.query.clone(), db, self.lift, cards)?;
        // The preprocessing replay inflated the fresh dataflow's counters;
        // subtracting its own snapshot would lose it entirely, so instead
        // carry the *old* history and let the fresh dataflow count from
        // its post-preprocessing state (its constructor counters describe
        // preprocessing, not the update stream — zero them out).
        fresh.dataflow.reset_stats();
        if let Some((registry, prefix)) = &self.obs {
            fresh.dataflow.attach_obs(registry, prefix);
        }
        self.dataflow = fresh.dataflow;
        self.lowered_cards = fresh.lowered_cards;
        self.carried_stats = carried;
        Ok(())
    }

    /// The cardinality snapshot the current plan's variable order was
    /// derived from (empty for a blind build over an empty
    /// database). The replan policy compares these against learned
    /// counts to decide whether a re-lowering pays for itself.
    pub fn lowered_cards(&self) -> &Cardinalities {
        &self.lowered_cards
    }

    /// Apply an already consolidated batch without re-consolidating — the
    /// sharded runtime routes consolidated sub-batches, so flattening them
    /// back to updates just to re-hash every entry would be pure waste.
    /// Same validation as [`Self::apply_batch`].
    pub fn apply_delta_batch(
        &mut self,
        batch: &crate::DeltaBatch<R>,
    ) -> Result<Relation<R>, EngineError> {
        for rel in batch.relations() {
            if self.statics.contains(&rel) {
                return Err(EngineError::StaticRelation(rel));
            }
            if !self.dynamics.contains(&rel) {
                return Err(EngineError::UnknownRelation(rel));
            }
        }
        // The consolidated entries are the updates received at this
        // boundary; count them so `updates_in` stays an ingestion total.
        self.dataflow.record_updates_in(batch.len() as u64);
        Ok(self.dataflow.apply_delta_batch(batch))
    }

    /// The maintained output view.
    pub fn output_relation(&self) -> &Relation<R> {
        self.dataflow.output()
    }

    /// Propagation counters (batches, consolidation, sink deltas),
    /// accumulated across re-plans.
    pub fn stats(&self) -> DataflowStats {
        self.carried_stats.merged(&self.dataflow.stats())
    }

    /// The lowered plan in one line, variable order included.
    pub fn plan(&self) -> String {
        self.dataflow.describe()
    }

    /// Join this engine's multiway stores onto a [`crate::StoreHub`]
    /// shared with other engines,
    /// so overlapping relations are stored once fleet-wide. Returns the
    /// number of dedup hits. Shared slots stop advancing in-engine; the
    /// hub owner must call [`crate::StoreHub::advance_batch`] once per
    /// batch after every member engine has processed it.
    pub fn share_stores(&mut self, hub: &crate::StoreHub<R>) -> usize {
        self.dataflow.share_multiway_stores(hub)
    }

    /// Tuples resident in engine-owned state (output view, non-hub
    /// multiway stores). Hub-shared stores are counted
    /// by [`crate::StoreHub::stored_tuples`], not here.
    pub fn resident_tuples(&self) -> usize {
        self.dataflow.resident_tuples()
    }
}

impl<R: Semiring> Maintainer<R> for DataflowEngine<R> {
    fn query(&self) -> &Query {
        &self.query
    }

    fn apply(&mut self, upd: &Update<R>) -> Result<(), EngineError> {
        self.apply_batch(std::slice::from_ref(upd)).map(|_| ())
    }

    /// One consolidated delta propagation through the multiway join; the
    /// returned relation is the batch's exact output delta. Same final
    /// state as applying each update individually (ring
    /// order-independence), at a fraction of the work when the batch has
    /// locality. The whole batch is validated before anything propagates,
    /// so rejection is atomic. This *is* the engine's native ingestion
    /// path — the trait method, not a shadowing inherent duplicate.
    fn apply_batch(&mut self, batch: &[Update<R>]) -> Result<Relation<R>, EngineError> {
        for u in batch {
            if self.statics.contains(&u.relation) {
                return Err(EngineError::StaticRelation(u.relation));
            }
            if !self.dynamics.contains(&u.relation) {
                return Err(EngineError::UnknownRelation(u.relation));
            }
        }
        self.dataflow.apply_batch(batch)
    }

    fn for_each_output(&mut self, f: &mut dyn FnMut(&Tuple, &R)) {
        for (t, r) in self.dataflow.output().iter() {
            f(t, r);
        }
    }
}

impl<R: Semiring> std::fmt::Debug for DataflowEngine<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataflowEngine")
            .field("query", &self.query)
            .field("plan", &self.dataflow.describe())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::ops::{eval_join_aggregate, lift_one};
    use ivm_data::{sym, tup, vars, Schema};
    use ivm_query::Atom;

    #[test]
    fn agrees_with_oracle_on_fig3() {
        let q = ivm_query::examples::fig3_query();
        let (rn, sn) = (sym("f3_R"), sym("f3_S"));
        let mut eng = DataflowEngine::<i64>::new(q.clone(), &Database::new(), lift_one).unwrap();
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
        let mut eng = DataflowEngine::<i64>::new(q, &Database::new(), lift_one).unwrap();
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
        let mut one = DataflowEngine::<i64>::new(q.clone(), &Database::new(), lift_one).unwrap();
        let mut many = DataflowEngine::<i64>::new(q, &Database::new(), lift_one).unwrap();
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

        // And the new plan keeps counting on top of the carried history.
        eng.apply(&Update::delete(e, tup![2i64, 3i64])).unwrap();
        let later = eng.stats();
        assert_eq!(later.updates_in, after.updates_in + 1);
        assert!(later.multiway_seeds > after.multiway_seeds);
        assert_eq!(later.binary_join_tuples, 0);
        assert_eq!(eng.output_relation().get(&Tuple::empty()), count_before - 3);
    }

    #[test]
    fn apply_delta_batch_skips_reconsolidation_but_validates() {
        use crate::DeltaBatch;
        let q = ivm_query::examples::fig3_query();
        let (rn, sn) = (sym("f3_R"), sym("f3_S"));
        let mut via_updates =
            DataflowEngine::<i64>::new(q.clone(), &Database::new(), lift_one).unwrap();
        let mut via_delta = DataflowEngine::<i64>::new(q, &Database::new(), lift_one).unwrap();
        let ups: Vec<Update<i64>> = vec![
            Update::insert(rn, tup![1i64, 10i64]),
            Update::insert(sn, tup![1i64, 20i64]),
            Update::insert(rn, tup![1i64, 10i64]),
        ];
        let d1 = via_updates.apply_batch(&ups).unwrap();
        let d2 = via_delta
            .apply_delta_batch(&DeltaBatch::from_updates(&ups))
            .unwrap();
        assert_eq!(d1.len(), d2.len());
        for (t, p) in d1.iter() {
            assert_eq!(&d2.get(t), p, "at {t:?}");
        }
        let bad = DeltaBatch::from_updates(&[Update::<i64>::insert(sym("f3_nope"), tup![1i64])]);
        assert_eq!(
            via_delta.apply_delta_batch(&bad).unwrap_err(),
            EngineError::UnknownRelation(sym("f3_nope"))
        );
    }

    #[test]
    fn engine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<DataflowEngine<i64>>();
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
        let mut eng = DataflowEngine::<i64>::new(q, &Database::new(), lift_one).unwrap();
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
}
