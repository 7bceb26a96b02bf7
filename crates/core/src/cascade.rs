//! Cascading q-hierarchical queries (Sec. 4.2, Fig 5).
//!
//! The non-q-hierarchical `Q1` is rewritten as `Q1' = Q2 · rest` where `Q2`
//! is q-hierarchical (Ex 4.5). `Q2` is maintained eagerly with constant
//! update time. `Q1'`'s view tree treats `Q2`'s output as a base relation
//! (`V_Q2` in Fig 5) that is refreshed only *during* enumerations of `Q2`:
//! while the output tuples of `Q2` stream out (which the client asked for
//! anyway), the engine diffs them against the previous materialization and
//! pushes the per-tuple deltas — each in constant time — into `Q1'`'s tree.
//! The refresh is thus piggybacked: constant overhead per enumerated tuple.
//!
//! Protocol (paper conditions (i) and (ii)): enumerate `Q2` before `Q1`.
//! Enumerating `Q1` with pending `Q2` changes forces a refresh, which the
//! engine performs correctly but counts in
//! [`CascadeEngine::forced_refreshes`] so benchmarks can expose the cost.
//!
//! Deletes require diffing payloads, so the engine needs ring payloads.

use crate::engine::Maintainer;
use crate::engines::EagerFactEngine;
use crate::error::EngineError;
use crate::viewtree::ViewTree;
use ivm_data::ops::Lift;
use ivm_data::{Database, FxHashSet, Relation, Sym, Tuple, Update};
use ivm_query::cascade::rewrite_with;
use ivm_query::Query;
use ivm_ring::Ring;

/// Maintains a pair of cascading queries `(Q1, Q2)`.
pub struct CascadeEngine<R> {
    q1: Query,
    q2_engine: EagerFactEngine<R>,
    /// `V_Q2`: Q2's output as of the last refresh, the upper tree's leaf.
    q2_materialized: Relation<R>,
    upper: ViewTree<R>,
    q2_relations: FxHashSet<Sym>,
    rest_relations: FxHashSet<Sym>,
    q2_atom_name: Sym,
    q2_dirty: bool,
    forced: usize,
}

impl<R: Ring> CascadeEngine<R> {
    /// Build from the pair; fails when no valid rewriting exists
    /// (see [`ivm_query::cascade::rewrite_with`]).
    pub fn new(q1: Query, q2: Query, db: &Database<R>, lift: Lift<R>) -> Result<Self, EngineError> {
        let rw = rewrite_with(&q1, &q2).ok_or_else(|| {
            EngineError::NotSupported(format!(
                "{} has no q-hierarchical rewriting through {}",
                q1.name, q2.name
            ))
        })?;
        let q2_relations: FxHashSet<Sym> = q2.atoms.iter().map(|a| a.name).collect();
        let rest_relations: FxHashSet<Sym> = rw.rest.iter().map(|a| a.name).collect();
        if q2_relations.intersection(&rest_relations).next().is_some() {
            return Err(EngineError::NotSupported(
                "a relation occurs both inside and outside Q2".into(),
            ));
        }
        let mut q2_engine = EagerFactEngine::new(q2.clone(), db, lift)?;
        let mut upper = ViewTree::new(rw.rewritten.clone(), lift)?;
        // Preprocess the upper tree: rest relations from the database, the
        // Q2 leaf from Q2's current output.
        let q2_materialized = q2_engine.output();
        let mut upper_db: Database<R> = Database::new();
        for a in &rw.rest {
            if let Some(r) = db.get(a.name) {
                upper_db.add(a.name, r.clone());
            }
        }
        upper_db.add(q2.name, q2_materialized.clone());
        upper.preprocess(&upper_db)?;
        Ok(CascadeEngine {
            q1,
            q2_engine,
            q2_materialized,
            upper,
            q2_relations,
            rest_relations,
            q2_atom_name: q2.name,
            q2_dirty: false,
            forced: 0,
        })
    }

    /// The outer query `Q1`.
    pub fn q1(&self) -> &Query {
        &self.q1
    }

    /// The subquery `Q2`.
    pub fn q2(&self) -> &Query {
        self.q2_engine.query()
    }

    /// How many `Q1` enumerations had to refresh `Q2` themselves because
    /// the protocol (enumerate `Q2` first) was not followed.
    pub fn forced_refreshes(&self) -> usize {
        self.forced
    }

    /// `Q1'`'s view tree, whose leaf `V_Q2` [`Self::enumerate_q2`]
    /// refreshes: once `Q2` is clean, enumerating it is enumerating `Q1`.
    pub fn q1_tree(&self) -> &ViewTree<R> {
        &self.upper
    }

    /// Units of work of `Q2`'s tree and `Q1'`'s tree together (see
    /// [`ViewTree::work`]).
    pub fn work(&self) -> u64 {
        self.q2_engine.tree().work() + self.upper.work()
    }

    /// Whether `Q2` changed since its last enumeration.
    pub fn q2_dirty(&self) -> bool {
        self.q2_dirty
    }

    /// Apply a single-tuple update. Constant time: updates to `Q2`'s
    /// relations stay inside `Q2`'s tree; updates to the rest go straight
    /// into `Q1'`'s tree.
    pub fn apply(&mut self, upd: &Update<R>) -> Result<(), EngineError> {
        if self.q2_relations.contains(&upd.relation) {
            self.q2_engine.apply(upd)?;
            self.q2_dirty = true;
            Ok(())
        } else if self.rest_relations.contains(&upd.relation) {
            self.upper.apply(upd)
        } else {
            Err(EngineError::UnknownRelation(upd.relation))
        }
    }

    /// Refresh `V_Q2` and the upper tree by streaming `Q2`'s output,
    /// calling `f` on each output tuple of `Q2`.
    fn refresh_q2(&mut self, f: &mut dyn FnMut(&Tuple, &R)) -> Result<(), EngineError> {
        let mut fresh = Relation::new(self.q2().free.clone());
        self.q2_engine.for_each_output(&mut |t, r| {
            f(t, r);
            fresh.apply(t.clone(), r);
        });
        // Diff fresh against the previous materialization; each delta is a
        // constant-time update to the upper tree. Cost O(|old| + |new|),
        // piggybacked on the Θ(|new|) enumeration above.
        let mut deltas: Vec<Update<R>> = Vec::new();
        for (t, new) in fresh.iter() {
            let d = new.minus(&self.q2_materialized.get(t));
            if !d.is_zero() {
                deltas.push(Update::with_payload(self.q2_atom_name, t.clone(), d));
            }
        }
        for (t, old) in self.q2_materialized.iter() {
            if !fresh.contains(t) {
                deltas.push(Update::with_payload(
                    self.q2_atom_name,
                    t.clone(),
                    old.neg(),
                ));
            }
        }
        for d in deltas {
            self.upper.apply(&d)?;
        }
        self.q2_materialized = fresh;
        self.q2_dirty = false;
        Ok(())
    }

    /// Enumerate `Q2`'s output (piggybacking the upper-tree refresh).
    pub fn enumerate_q2(&mut self, f: &mut dyn FnMut(&Tuple, &R)) -> Result<(), EngineError> {
        self.refresh_q2(f)
    }

    /// Enumerate `Q1`'s output. Requires `Q2` to be clean; otherwise the
    /// engine refreshes first (and counts the protocol violation).
    pub fn enumerate_q1(&mut self, f: &mut dyn FnMut(&Tuple, &R)) -> Result<(), EngineError> {
        if self.q2_dirty {
            self.forced += 1;
            self.refresh_q2(&mut |_, _| {})?;
        }
        self.upper.for_each_output(f);
        Ok(())
    }

    /// Materialized `Q1` output (test helper).
    pub fn q1_output(&mut self) -> Result<Relation<R>, EngineError> {
        let mut out = Relation::new(self.q1.free.clone());
        self.enumerate_q1(&mut |t, r| {
            out.apply(t.clone(), r);
        })?;
        Ok(out)
    }

    /// Materialized `Q2` output (test helper; refreshes).
    pub fn q2_output(&mut self) -> Result<Relation<R>, EngineError> {
        let mut out = Relation::new(self.q2().free.clone());
        self.enumerate_q2(&mut |t, r| {
            out.apply(t.clone(), r);
        })?;
        Ok(out)
    }
}

impl<R: ivm_ring::Ring> std::fmt::Debug for CascadeEngine<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CascadeEngine").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::ops::{eval_join_aggregate, lift_one};
    use ivm_data::{sym, tup};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn engine() -> CascadeEngine<i64> {
        let (q1, q2) = ivm_query::examples::ex45_pair();
        CascadeEngine::new(q1, q2, &Database::new(), lift_one).unwrap()
    }

    #[test]
    fn basic_cascade_flow() {
        let mut eng = engine();
        let (r, s, t) = (sym("e45_R"), sym("e45_S"), sym("e45_T"));
        eng.apply(&Update::insert(r, tup![1i64, 2i64])).unwrap();
        eng.apply(&Update::insert(s, tup![2i64, 3i64])).unwrap();
        eng.apply(&Update::insert(t, tup![3i64, 4i64])).unwrap();
        assert!(eng.q2_dirty());

        // Enumerate Q2 first (the protocol), then Q1.
        let q2_out = eng.q2_output().unwrap();
        assert_eq!(q2_out.get(&tup![1i64, 2i64, 3i64]), 1);
        assert!(!eng.q2_dirty());
        assert_eq!(eng.forced_refreshes(), 0);

        let q1_out = eng.q1_output().unwrap();
        assert_eq!(q1_out.get(&tup![1i64, 2i64, 3i64, 4i64]), 1);
        assert_eq!(q1_out.len(), 1);
    }

    #[test]
    fn protocol_violation_counted_but_correct() {
        let mut eng = engine();
        let (r, s, t) = (sym("e45_R"), sym("e45_S"), sym("e45_T"));
        eng.apply(&Update::insert(r, tup![1i64, 2i64])).unwrap();
        eng.apply(&Update::insert(s, tup![2i64, 3i64])).unwrap();
        eng.apply(&Update::insert(t, tup![3i64, 4i64])).unwrap();
        // Enumerate Q1 without enumerating Q2 first.
        let q1_out = eng.q1_output().unwrap();
        assert_eq!(q1_out.len(), 1);
        assert_eq!(eng.forced_refreshes(), 1);
    }

    #[test]
    fn deletes_propagate_through_the_cascade() {
        let mut eng = engine();
        let (r, s, t) = (sym("e45_R"), sym("e45_S"), sym("e45_T"));
        eng.apply(&Update::insert(r, tup![1i64, 2i64])).unwrap();
        eng.apply(&Update::insert(s, tup![2i64, 3i64])).unwrap();
        eng.apply(&Update::insert(t, tup![3i64, 4i64])).unwrap();
        let _ = eng.q2_output().unwrap();
        assert_eq!(eng.q1_output().unwrap().len(), 1);

        eng.apply(&Update::delete(s, tup![2i64, 3i64])).unwrap();
        let _ = eng.q2_output().unwrap();
        assert_eq!(eng.q1_output().unwrap().len(), 0);
    }

    /// Random stream: Q1 output always matches the from-scratch oracle
    /// when the protocol is followed.
    #[test]
    fn random_stream_matches_oracle() {
        let (q1, _) = ivm_query::examples::ex45_pair();
        let mut eng = engine();
        let (rn, sn, tn) = (sym("e45_R"), sym("e45_S"), sym("e45_T"));
        let mut r_rel = Relation::<i64>::new(q1.atoms[0].schema.clone());
        let mut s_rel = Relation::<i64>::new(q1.atoms[1].schema.clone());
        let mut t_rel = Relation::<i64>::new(q1.atoms[2].schema.clone());
        let mut rng = StdRng::seed_from_u64(99);
        for step in 0..150 {
            let a = rng.gen_range(0..3i64);
            let b = rng.gen_range(0..3i64);
            // Valid streams only (Sec. 2): delete only present tuples.
            let (rel, oracle) = match rng.gen_range(0..3) {
                0 => (rn, &mut r_rel),
                1 => (sn, &mut s_rel),
                _ => (tn, &mut t_rel),
            };
            let m: i64 = if rng.gen_bool(0.25) && oracle.get(&tup![a, b]) > 0 {
                -1
            } else {
                1
            };
            eng.apply(&Update::with_payload(rel, tup![a, b], m))
                .unwrap();
            oracle.apply(tup![a, b], &m);
            if step % 29 == 0 {
                let _ = eng.q2_output().unwrap();
                let got = eng.q1_output().unwrap();
                let expect = eval_join_aggregate(&[&r_rel, &s_rel, &t_rel], &q1.free, lift_one);
                assert_eq!(got.len(), expect.len(), "step {step}");
                for (t, p) in expect.iter() {
                    assert_eq!(&got.get(t), p, "step {step} at {t:?}");
                }
            }
        }
    }

    #[test]
    fn rejects_pairs_without_rewriting() {
        let (q1, _) = ivm_query::examples::ex45_pair();
        let err =
            CascadeEngine::<i64>::new(q1.clone(), q1, &Database::new(), lift_one).unwrap_err();
        assert!(matches!(err, EngineError::NotSupported(_)));
    }
}
