//! Maintenance under functional dependencies (Sec. 4.4, Theorem 4.11).
//!
//! When a query's Σ-reduct is q-hierarchical, the original query can be
//! maintained with constant update time and delay over databases
//! satisfying Σ. The engine builds the canonical view tree of the
//! *reduct*, but keeps the *original* schemas at the leaves: the
//! FD-implied values that the reduct's view keys mention are fetched from
//! the providing relations during propagation (at most one value exists by
//! the FD), exactly as in Ex 4.12 / Fig 6.
//!
//! Out-of-order robustness comes for free: if a fetch misses (the
//! determining tuple has not arrived yet), the propagation stops, and the
//! determining tuple's own later insertion carries the accumulated
//! contribution upward — the same amortization as the PK–FK case of
//! Ex 4.13.

use crate::checked::CheckedBatch;
use crate::engine::Maintainer;
use crate::error::EngineError;
use crate::viewtree::{Fetcher, ViewTree};
use ivm_data::ops::Lift;
use ivm_data::{Database, Relation, Schema, Tuple};
use ivm_query::fd::{sigma_reduct, Fd};
use ivm_query::hierarchy::is_q_hierarchical;
use ivm_query::{Query, VarOrder};
use ivm_ring::Semiring;

/// A maintenance engine for a query whose Σ-reduct is q-hierarchical.
pub struct FdEngine<R> {
    original: Query,
    tree: ViewTree<R>,
}

impl<R: Semiring> FdEngine<R> {
    /// Build the engine; fails when the Σ-reduct is not q-hierarchical or
    /// no relation can provide some FD (no atom contains `lhs ∪ rhs`).
    pub fn new(
        query: Query,
        sigma: &[Fd],
        db: &Database<R>,
        lift: Lift<R>,
    ) -> Result<Self, EngineError> {
        let reduct = sigma_reduct(&query, sigma);
        if !is_q_hierarchical(&reduct) {
            return Err(EngineError::NotSupported(format!(
                "the Σ-reduct of {} is not q-hierarchical (Theorem 4.11 \
                 does not apply)",
                query.name
            )));
        }
        // The tree SHAPE follows the reduct's canonical order (Fig 6), but
        // the dependency sets are recomputed against the ORIGINAL atom
        // schemas. This keeps FD-implied values out of view keys below
        // their providing relation, so remapping an FD value (delete
        // S(x,y1), insert S(x,y2)) repairs the views instead of stranding
        // entries under stale keys.
        let shape = VarOrder::canonical(&reduct)?;
        let tree_query = Query {
            name: reduct.name,
            free: reduct.free.clone(),
            input: Schema::empty(),
            atoms: query.atoms.clone(),
        };
        let vo = VarOrder {
            nodes: shape.nodes,
            roots: shape.roots,
        }
        .validate_and_finish(&tree_query)?;
        // One fetcher per (FD, rhs variable), provided by the first atom
        // whose original schema contains lhs ∪ {var}.
        let mut fetchers = Vec::new();
        for fd in sigma {
            for &var in fd.rhs.vars() {
                let needed = fd.lhs.union(&Schema::from([var]));
                let provider = query
                    .atoms
                    .iter()
                    .position(|a| needed.subset_of(&a.schema))
                    .ok_or_else(|| {
                        EngineError::NotSupported(format!(
                            "no relation provides the FD {:?} → {var}",
                            fd.lhs
                        ))
                    })?;
                fetchers.push(Fetcher {
                    var,
                    lhs: fd.lhs.clone(),
                    provider,
                });
            }
        }
        let storage: Vec<Schema> = query.atoms.iter().map(|a| a.schema.clone()).collect();
        let mut tree = ViewTree::with_order_and_storage(tree_query, vo, lift, storage, fetchers)?;
        tree.preprocess(db)?;
        Ok(FdEngine {
            original: query,
            tree,
        })
    }

    /// The original (non-rewritten) query.
    pub fn original(&self) -> &Query {
        &self.original
    }

    /// The underlying reduct view tree.
    pub fn tree(&self) -> &ViewTree<R> {
        &self.tree
    }

    /// The reduct view tree, for tests that drive it directly.
    #[cfg(test)]
    pub(crate) fn into_tree(self) -> ViewTree<R> {
        self.tree
    }
}

impl<R: Semiring> Maintainer<R> for FdEngine<R> {
    /// Note: the maintained query is the Σ-reduct; its free variables are
    /// the closure of the original's (the same set whenever the original's
    /// free set is closed, as in Ex 4.12).
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

impl<R: ivm_ring::Semiring> std::fmt::Debug for FdEngine<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FdEngine").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::ops::{eval_join_aggregate, lift_one};
    use ivm_data::{sym, tup, Relation, Update};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Ex 4.12: Q(Z,Y,X,W) = R(X,W)·S(X,Y)·T(Y,Z), Σ = {X→Y, Y→Z}.
    fn build() -> FdEngine<i64> {
        let (q, sigma) = ivm_query::examples::ex412_query();
        FdEngine::new(q, &sigma, &Database::new(), lift_one).unwrap()
    }

    #[test]
    fn example_4_12_maintenance() {
        let mut eng = build();
        let (r, s, t) = (sym("e412_R"), sym("e412_S"), sym("e412_T"));
        // FD-satisfying data: X→Y via S, Y→Z via T.
        eng.apply(&Update::insert(s, tup![1i64, 10i64])).unwrap();
        eng.apply(&Update::insert(t, tup![10i64, 100i64])).unwrap();
        eng.apply(&Update::insert(r, tup![1i64, 7i64])).unwrap();
        let out = eng.output();
        // Reduct free order: [Z, Y, X, W].
        assert_eq!(out.len(), 1);
        assert_eq!(out.get(&tup![100i64, 10i64, 1i64, 7i64]), 1);
    }

    /// Out-of-order: R arrives before S and T; the output materializes
    /// when the FD-determining tuples land.
    #[test]
    fn out_of_order_arrival() {
        let mut eng = build();
        let (r, s, t) = (sym("e412_R"), sym("e412_S"), sym("e412_T"));
        eng.apply(&Update::insert(r, tup![1i64, 7i64])).unwrap();
        assert_eq!(eng.output().len(), 0, "no join partners yet");
        eng.apply(&Update::insert(s, tup![1i64, 10i64])).unwrap();
        assert_eq!(eng.output().len(), 0, "T still missing");
        eng.apply(&Update::insert(t, tup![10i64, 100i64])).unwrap();
        let out = eng.output();
        assert_eq!(out.get(&tup![100i64, 10i64, 1i64, 7i64]), 1);
    }

    /// Deletes unwind correctly.
    #[test]
    fn deletes_unwind() {
        let mut eng = build();
        let (r, s, t) = (sym("e412_R"), sym("e412_S"), sym("e412_T"));
        eng.apply(&Update::insert(s, tup![1i64, 10i64])).unwrap();
        eng.apply(&Update::insert(t, tup![10i64, 100i64])).unwrap();
        eng.apply(&Update::insert(r, tup![1i64, 7i64])).unwrap();
        assert_eq!(eng.output().len(), 1);
        eng.apply(&Update::delete(r, tup![1i64, 7i64])).unwrap();
        assert_eq!(eng.output().len(), 0);
    }

    /// Random FD-satisfying streams match the from-scratch oracle on the
    /// ORIGINAL query (the reduct's output equals the original's up to
    /// column order because the FDs hold).
    #[test]
    fn random_fd_stream_matches_oracle() {
        let (q, _) = ivm_query::examples::ex412_query();
        let mut eng = build();
        let (rn, sn, tn) = (sym("e412_R"), sym("e412_S"), sym("e412_T"));
        let mut r_rel = Relation::<i64>::new(q.atoms[0].schema.clone());
        let mut s_rel = Relation::<i64>::new(q.atoms[1].schema.clone());
        let mut t_rel = Relation::<i64>::new(q.atoms[2].schema.clone());
        let mut rng = StdRng::seed_from_u64(31);
        // Fixed FD mappings so every reachable database satisfies Σ.
        let y_of = |x: i64| x * 10 + 1;
        let z_of = |y: i64| y * 10 + 3;
        for step in 0..200 {
            // Valid streams only (Sec. 2): delete only present tuples.
            let (rel, oracle, t) = match rng.gen_range(0..3) {
                0 => {
                    let (x, w) = (rng.gen_range(0..4i64), rng.gen_range(0..4i64));
                    (rn, &mut r_rel, tup![x, w])
                }
                1 => {
                    let x = rng.gen_range(0..4i64);
                    (sn, &mut s_rel, tup![x, y_of(x)])
                }
                _ => {
                    let y = y_of(rng.gen_range(0..4i64));
                    (tn, &mut t_rel, tup![y, z_of(y)])
                }
            };
            let m: i64 = if rng.gen_bool(0.3) && oracle.get(&t) > 0 {
                -1
            } else {
                1
            };
            eng.apply(&Update::with_payload(rel, t.clone(), m)).unwrap();
            oracle.apply(t, &m);
            if step % 23 == 0 {
                let expect = eval_join_aggregate(&[&r_rel, &s_rel, &t_rel], &q.free, lift_one);
                let got = eng.output();
                // Align column orders (reduct free vs original free).
                let reduct_free = eng.tree.query().free.clone();
                let pos = q.free.positions_of(&reduct_free);
                assert_eq!(got.len(), expect.len(), "step {step}");
                for (t, p) in expect.iter() {
                    assert_eq!(&got.get(&t.project(&pos)), p, "step {step} {t:?}");
                }
            }
        }
    }

    /// Remapping an FD value (delete the old determining tuple, insert a
    /// new one) repairs the views: Fig 6's keying by original schemas.
    #[test]
    fn fd_remap_is_consistent() {
        let mut eng = build();
        let (r, s, t) = (sym("e412_R"), sym("e412_S"), sym("e412_T"));
        eng.apply(&Update::insert(r, tup![1i64, 7i64])).unwrap();
        eng.apply(&Update::insert(s, tup![1i64, 10i64])).unwrap();
        eng.apply(&Update::insert(t, tup![10i64, 100i64])).unwrap();
        assert_eq!(eng.output().get(&tup![100i64, 10i64, 1i64, 7i64]), 1);
        // Remap Y→Z for y=10: z 100 → 200 (database stays FD-valid at
        // every step).
        eng.apply(&Update::delete(t, tup![10i64, 100i64])).unwrap();
        assert_eq!(eng.output().len(), 0);
        eng.apply(&Update::insert(t, tup![10i64, 200i64])).unwrap();
        let out = eng.output();
        assert_eq!(out.len(), 1);
        assert_eq!(out.get(&tup![200i64, 10i64, 1i64, 7i64]), 1);
        // Remap X→Y for x=1: y 10 → 11 with its own Z.
        eng.apply(&Update::delete(s, tup![1i64, 10i64])).unwrap();
        eng.apply(&Update::insert(t, tup![11i64, 300i64])).unwrap();
        eng.apply(&Update::insert(s, tup![1i64, 11i64])).unwrap();
        let out = eng.output();
        assert_eq!(out.len(), 1);
        assert_eq!(out.get(&tup![300i64, 11i64, 1i64, 7i64]), 1);
    }

    /// Queries whose reduct is not q-hierarchical are rejected.
    #[test]
    fn rejects_without_enough_fds() {
        let (q, _) = ivm_query::examples::ex412_query();
        let err = FdEngine::<i64>::new(q, &[], &Database::new(), lift_one).unwrap_err();
        assert!(matches!(err, EngineError::NotSupported(_)));
    }
}
