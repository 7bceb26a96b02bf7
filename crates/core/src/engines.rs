//! The four maintenance strategies of Fig 4, on two axes (Sec. 4.1):
//!
//! * **eager** vs **lazy** — propagate updates immediately, or only touch
//!   the input relations and do the work on an enumeration request;
//! * **list** vs **fact** — keep the output as a materialized list of
//!   tuples, or factorized over the views of a view tree.
//!
//! | engine | paper's name | corresponds to |
//! |---|---|---|
//! | [`EagerFactEngine`] | eager-fact | F-IVM \[22\] |
//! | [`EagerListEngine`] | eager-list | DBToaster \[26\] |
//! | [`LazyFactEngine`] | lazy-fact | F-IVM/delta hybrid |
//! | [`LazyListEngine`] | lazy-list | delta queries (re-evaluation) |

use crate::checked::CheckedBatch;
use crate::engine::Maintainer;
use crate::error::EngineError;
use crate::viewtree::ViewTree;
use ivm_data::ops::{eval_join_aggregate, Lift};
use ivm_data::{Database, Relation, Tuple, Update};
use ivm_query::Query;
use ivm_ring::Semiring;

/// Eager, factorized: a view tree maintained on every update; enumeration
/// descends the views with constant delay. O(1) update and delay for
/// q-hierarchical queries — the Theorem 4.1 upper bound.
pub struct EagerFactEngine<R> {
    tree: ViewTree<R>,
}

impl<R: Semiring> EagerFactEngine<R> {
    /// Build over an initial database. O(|D|) preprocessing.
    pub fn new(query: Query, db: &Database<R>, lift: Lift<R>) -> Result<Self, EngineError> {
        let mut tree = ViewTree::new(query, lift)?;
        tree.preprocess(db)?;
        Ok(EagerFactEngine { tree })
    }

    /// Build with an explicit variable order (static-dynamic trees).
    pub fn with_order(
        query: Query,
        vo: ivm_query::VarOrder,
        db: &Database<R>,
        lift: Lift<R>,
    ) -> Result<Self, EngineError> {
        let mut tree = ViewTree::with_order(query, vo, lift)?;
        tree.preprocess(db)?;
        Ok(EagerFactEngine { tree })
    }

    /// The underlying view tree.
    pub fn tree(&self) -> &ViewTree<R> {
        &self.tree
    }
}

impl<R: Semiring> Maintainer<R> for EagerFactEngine<R> {
    fn query(&self) -> &Query {
        self.tree.query()
    }

    fn apply_checked(&mut self, batch: &CheckedBatch<'_, R>) -> Result<Relation<R>, EngineError> {
        batch.entries().for_each(|e| self.tree.apply_checked(e));
        Ok(Relation::new(self.tree.query().free.clone()))
    }

    fn for_each_output(&mut self, f: &mut dyn FnMut(&Tuple, &R)) {
        self.tree.for_each_output(f)
    }
}

/// Eager, listed: the same view tree plus a materialized output relation,
/// updated through delta enumeration — each update costs O(|δQ|), the
/// DBToaster-style higher-order maintenance of Sec. 3.2.
pub struct EagerListEngine<R> {
    tree: ViewTree<R>,
    output: Relation<R>,
}

impl<R: Semiring> EagerListEngine<R> {
    /// Build over an initial database.
    pub fn new(query: Query, db: &Database<R>, lift: Lift<R>) -> Result<Self, EngineError> {
        let mut tree = ViewTree::new(query, lift)?;
        tree.preprocess(db)?;
        let output = tree.output();
        Ok(EagerListEngine { tree, output })
    }

    /// Number of materialized output tuples.
    pub fn output_size(&self) -> usize {
        self.output.len()
    }
}

impl<R: Semiring> Maintainer<R> for EagerListEngine<R> {
    fn query(&self) -> &Query {
        self.tree.query()
    }

    /// The update path delta-enumerates against the pre-update state to
    /// maintain the materialized output, so the batch's exact output
    /// delta is free: the ⊎-sum of the per-update deltas (linearity).
    fn apply_checked(&mut self, batch: &CheckedBatch<'_, R>) -> Result<Relation<R>, EngineError> {
        let mut delta = Relation::new(self.tree.query().free.clone());
        for entry in batch.entries() {
            let output = &mut self.output;
            self.tree.delta_for_each(entry, &mut |t, d| {
                output.apply(t.clone(), d);
                delta.apply(t.clone(), d);
            });
            self.tree.apply_checked(entry);
        }
        Ok(delta)
    }

    fn for_each_output(&mut self, f: &mut dyn FnMut(&Tuple, &R)) {
        for (t, r) in self.output.iter() {
            f(t, r);
        }
    }
}

/// Lazy, factorized: updates are queued; an enumeration request first
/// drains the queue through the view tree (constant time each), then
/// enumerates factorized.
pub struct LazyFactEngine<R> {
    tree: ViewTree<R>,
    pending: Vec<Update<R>>,
}

impl<R: Semiring> LazyFactEngine<R> {
    /// Build over an initial database.
    pub fn new(query: Query, db: &Database<R>, lift: Lift<R>) -> Result<Self, EngineError> {
        let mut tree = ViewTree::new(query, lift)?;
        tree.preprocess(db)?;
        Ok(LazyFactEngine {
            tree,
            pending: Vec::new(),
        })
    }

    /// Number of queued updates.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Drain the queue through the view tree.
    pub fn refresh(&mut self) {
        for upd in std::mem::take(&mut self.pending) {
            self.tree.apply_checked(upd.entry());
        }
    }
}

impl<R: Semiring> Maintainer<R> for LazyFactEngine<R> {
    fn query(&self) -> &Query {
        self.tree.query()
    }

    /// Queues the checked batch's entries, so `refresh` only ever sees
    /// accepted updates.
    fn apply_checked(&mut self, batch: &CheckedBatch<'_, R>) -> Result<Relation<R>, EngineError> {
        let queued = batch.entries();
        self.pending
            .extend(queued.map(|(rel, t, r)| Update::with_payload(rel, t.clone(), r.clone())));
        Ok(Relation::new(self.tree.query().free.clone()))
    }

    fn for_each_output(&mut self, f: &mut dyn FnMut(&Tuple, &R)) {
        self.refresh();
        self.tree.for_each_output(f)
    }
}

/// Lazy, listed: updates only touch the base relations; an enumeration
/// request re-evaluates the query from scratch (join + aggregate). This is
/// the classical delta-query/re-evaluation baseline.
pub struct LazyListEngine<R> {
    query: Query,
    db: Database<R>,
    lift: Lift<R>,
}

impl<R: Semiring> LazyListEngine<R> {
    /// Build over an initial database (cloned; updates are applied to the
    /// engine's copy).
    pub fn new(query: Query, db: &Database<R>, lift: Lift<R>) -> Result<Self, EngineError> {
        let mut own: Database<R> = Database::new();
        for atom in &query.atoms {
            match db.get(atom.name) {
                Some(r) => own.add(atom.name, r.clone()),
                None => own.create(atom.name, atom.schema.clone()),
            }
        }
        Ok(LazyListEngine {
            query,
            db: own,
            lift,
        })
    }

    /// Re-evaluate the query from scratch.
    pub fn reevaluate(&self) -> Relation<R> {
        let rels: Vec<&Relation<R>> = self
            .query
            .atoms
            .iter()
            .map(|a| self.db.relation(a.name))
            .collect();
        eval_join_aggregate(&rels, &self.query.free, self.lift)
    }
}

impl<R: Semiring> Maintainer<R> for LazyListEngine<R> {
    fn query(&self) -> &Query {
        &self.query
    }

    fn apply_checked(&mut self, batch: &CheckedBatch<'_, R>) -> Result<Relation<R>, EngineError> {
        for (rel, t, r) in batch.entries() {
            self.db
                .get_mut(rel)
                .expect("a checked relation")
                .apply(t.clone(), r);
        }
        Ok(Relation::new(self.query.free.clone()))
    }

    fn for_each_output(&mut self, f: &mut dyn FnMut(&Tuple, &R)) {
        let out = self.reevaluate();
        for (t, r) in out.iter() {
            f(t, r);
        }
    }
}

macro_rules! engine_debug {
    ($($name:ident),*) => {$(
        impl<R: Semiring> std::fmt::Debug for $name<R> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($name))
                    .field("query", self.query())
                    .finish_non_exhaustive()
            }
        }
    )*};
}
engine_debug!(
    EagerFactEngine,
    EagerListEngine,
    LazyFactEngine,
    LazyListEngine
);

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::ops::lift_one;
    use ivm_data::{sym, tup};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fig3() -> Query {
        ivm_query::examples::fig3_query()
    }

    /// All four engines agree with each other and the oracle under a
    /// random insert/delete stream.
    #[test]
    fn four_engines_agree() {
        let q = fig3();
        let db: Database<i64> = Database::new();
        let mut eager_fact = EagerFactEngine::new(q.clone(), &db, lift_one).unwrap();
        let mut eager_list = EagerListEngine::new(q.clone(), &db, lift_one).unwrap();
        let mut lazy_fact = LazyFactEngine::new(q.clone(), &db, lift_one).unwrap();
        let mut lazy_list = LazyListEngine::new(q.clone(), &db, lift_one).unwrap();

        let (rn, sn) = (sym("f3_R"), sym("f3_S"));
        let mut rng = StdRng::seed_from_u64(7);
        let mut mult = std::collections::HashMap::new();
        for step in 0..200 {
            let y = rng.gen_range(0..4i64);
            let v = rng.gen_range(0..4i64);
            let rel = if rng.gen_bool(0.5) { rn } else { sn };
            // Valid streams only (Sec. 2): delete only present tuples.
            let cur = mult.entry((rel, y, v)).or_insert(0i64);
            let m: i64 = if rng.gen_bool(0.3) && *cur > 0 { -1 } else { 1 };
            *cur += m;
            let upd = Update::with_payload(rel, tup![y, v], m);
            eager_fact.apply(&upd).unwrap();
            eager_list.apply(&upd).unwrap();
            lazy_fact.apply(&upd).unwrap();
            lazy_list.apply(&upd).unwrap();

            if step % 37 == 0 {
                let expect = lazy_list.output();
                for (name, got) in [
                    ("eager_fact", eager_fact.output()),
                    ("eager_list", eager_list.output()),
                    ("lazy_fact", lazy_fact.output()),
                ] {
                    assert_eq!(got.len(), expect.len(), "{name} at step {step}");
                    for (t, p) in expect.iter() {
                        assert_eq!(&got.get(t), p, "{name} differs at {t:?}");
                    }
                }
            }
        }
    }

    /// Initial databases are honored by all engines.
    #[test]
    fn preprocessing_loads_database() {
        let q = fig3();
        let (rn, sn) = (sym("f3_R"), sym("f3_S"));
        let mut db: Database<i64> = Database::new();
        db.create(rn, q.atoms[0].schema.clone());
        db.create(sn, q.atoms[1].schema.clone());
        db.apply(&Update::insert(rn, tup![1i64, 10i64]));
        db.apply(&Update::insert(sn, tup![1i64, 20i64]));

        let mut ef = EagerFactEngine::new(q.clone(), &db, lift_one).unwrap();
        let mut el = EagerListEngine::new(q.clone(), &db, lift_one).unwrap();
        let mut lf = LazyFactEngine::new(q.clone(), &db, lift_one).unwrap();
        let mut ll = LazyListEngine::new(q, &db, lift_one).unwrap();
        for eng in [
            &mut ef as &mut dyn Maintainer<i64>,
            &mut el,
            &mut lf,
            &mut ll,
        ] {
            assert_eq!(eng.output().get(&tup![1i64, 10i64, 20i64]), 1);
        }
    }

    /// Lazy engines do no maintenance work until asked to enumerate.
    #[test]
    fn lazy_fact_queues() {
        let q = fig3();
        let db: Database<i64> = Database::new();
        let mut lf = LazyFactEngine::new(q, &db, lift_one).unwrap();
        lf.apply(&Update::insert(sym("f3_R"), tup![1i64, 10i64]))
            .unwrap();
        assert_eq!(lf.pending_len(), 1);
        let _ = lf.output();
        assert_eq!(lf.pending_len(), 0);
    }

    /// An update to a static relation is refused by all four engines, and
    /// leaves the output as it was. The lazy-fact engine refuses it when it
    /// is queued, instead of passing `apply` and panicking at the next
    /// enumeration's refresh.
    #[test]
    fn lazy_fact_refuses_static_updates_at_apply() {
        let [a, b] = ivm_data::vars(["lfs_A", "lfs_B"]);
        let (r, s) = (sym("lfs_R"), sym("lfs_S"));
        let q = Query::new(
            "lfs_Q",
            [a, b],
            vec![
                ivm_query::Atom::new(r, [a, b]),
                ivm_query::Atom::new_static(s, [a]),
            ],
        );
        let mut db: Database<i64> = Database::new();
        db.create(s, q.atoms[1].schema.clone());
        db.apply(&Update::insert(s, tup![1i64]));
        let engines: [(&str, Box<dyn Maintainer<i64>>); 4] = [
            (
                "eager-fact",
                Box::new(EagerFactEngine::new(q.clone(), &db, lift_one).unwrap()),
            ),
            (
                "eager-list",
                Box::new(EagerListEngine::new(q.clone(), &db, lift_one).unwrap()),
            ),
            (
                "lazy-fact",
                Box::new(LazyFactEngine::new(q.clone(), &db, lift_one).unwrap()),
            ),
            (
                "lazy-list",
                Box::new(LazyListEngine::new(q, &db, lift_one).unwrap()),
            ),
        ];
        for (name, mut eng) in engines {
            let err = eng.apply(&Update::insert(s, tup![2i64])).unwrap_err();
            assert_eq!(err, EngineError::StaticRelation(s), "{name}");
            eng.apply(&Update::insert(r, tup![2i64, 7i64])).unwrap();
            eng.apply(&Update::insert(r, tup![1i64, 7i64])).unwrap();
            let out = eng.output();
            assert_eq!(out.len(), 1, "{name}");
            assert_eq!(out.get(&tup![1i64, 7i64]), 1, "{name}");
        }
    }

    /// A caller-supplied database whose relation does not have the atom's
    /// schema is an error naming the relation, not a panic.
    #[test]
    fn mismatched_initial_schema_is_an_error() {
        let q = fig3();
        let r = q.atoms[0].name;
        let mut db: Database<i64> = Database::new();
        db.create(r, q.atoms[1].schema.clone());
        db.apply(&Update::insert(r, tup![1i64, 10i64]));
        let err = EagerFactEngine::new(q.clone(), &db, lift_one).unwrap_err();
        assert!(
            matches!(&err, EngineError::NotSupported(m) if m.contains("f3_R")),
            "{err}"
        );
        assert!(LazyFactEngine::new(q, &db, lift_one).is_err());
    }

    /// All four specialized engines ingest whole batches through the one
    /// trait-level `apply_batch` and land in the same state as
    /// single-tuple application — including mutually cancelling updates,
    /// which consolidation removes before any engine sees them.
    #[test]
    fn trait_apply_batch_equals_singles() {
        let q = fig3();
        let (rn, sn) = (sym("f3_R"), sym("f3_S"));
        let mut rng = StdRng::seed_from_u64(11);
        let batch: Vec<Update<i64>> = (0..60)
            .map(|_| {
                let rel = if rng.gen_bool(0.5) { rn } else { sn };
                let m = if rng.gen_bool(0.3) { -1 } else { 1 };
                Update::with_payload(rel, tup![rng.gen_range(0..3i64), rng.gen_range(0..3i64)], m)
            })
            .collect();
        let db: Database<i64> = Database::new();
        let mut batched: Vec<Box<dyn Maintainer<i64>>> = vec![
            Box::new(EagerFactEngine::new(fig3(), &db, lift_one).unwrap()),
            Box::new(EagerListEngine::new(fig3(), &db, lift_one).unwrap()),
            Box::new(LazyFactEngine::new(fig3(), &db, lift_one).unwrap()),
            Box::new(LazyListEngine::new(fig3(), &db, lift_one).unwrap()),
        ];
        let mut oracle = LazyListEngine::new(q, &db, lift_one).unwrap();
        for u in &batch {
            oracle.apply(u).unwrap();
        }
        let expect = oracle.output();
        for eng in &mut batched {
            eng.apply_batch(&batch).unwrap();
            let got = eng.output();
            assert_eq!(got.len(), expect.len());
            for (t, p) in expect.iter() {
                assert_eq!(&got.get(t), p, "at {t:?}");
            }
        }
    }

    /// Eager-list's override reports the exact output delta of the batch;
    /// a fully cancelling batch reports an empty delta and does no work.
    #[test]
    fn eager_list_apply_batch_returns_exact_delta() {
        let q = fig3();
        let (rn, sn) = (sym("f3_R"), sym("f3_S"));
        let db: Database<i64> = Database::new();
        let mut el = EagerListEngine::new(q, &db, lift_one).unwrap();
        let d = el
            .apply_batch(&[
                Update::insert(rn, tup![1i64, 10i64]),
                Update::insert(sn, tup![1i64, 20i64]),
            ])
            .unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.get(&tup![1i64, 10i64, 20i64]), 1);
        // A second copy of the same R tuple adds one derivation.
        let d = el
            .apply_batch(&[Update::insert(rn, tup![1i64, 10i64])])
            .unwrap();
        assert_eq!(d.get(&tup![1i64, 10i64, 20i64]), 1);
        assert_eq!(el.output().get(&tup![1i64, 10i64, 20i64]), 2);
        // Insert ⊎ delete of the same tuple consolidates to nothing.
        let d = el
            .apply_batch(&[
                Update::insert(rn, tup![7i64, 7i64]),
                Update::delete(rn, tup![7i64, 7i64]),
            ])
            .unwrap();
        assert!(d.is_empty());
    }

    /// Eager-list maintains exactly the materialized output size.
    #[test]
    fn eager_list_tracks_output_size() {
        let q = fig3();
        let db: Database<i64> = Database::new();
        let mut el = EagerListEngine::new(q, &db, lift_one).unwrap();
        let (rn, sn) = (sym("f3_R"), sym("f3_S"));
        el.apply(&Update::insert(rn, tup![1i64, 10i64])).unwrap();
        assert_eq!(el.output_size(), 0);
        el.apply(&Update::insert(sn, tup![1i64, 20i64])).unwrap();
        assert_eq!(el.output_size(), 1);
        el.apply(&Update::delete(rn, tup![1i64, 10i64])).unwrap();
        assert_eq!(el.output_size(), 0);
    }
}
