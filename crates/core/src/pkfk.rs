//! Amortized maintenance under primary-key/foreign-key constraints
//! (Sec. 4.4, Ex 4.13).
//!
//! The star join `Q = Σ Fact(k1, …, kd) · Dim1(k1) · … · Dimd(kd)` is not
//! q-hierarchical, so worst-case constant updates are impossible. But
//! under *valid* update batches — batches mapping consistent databases to
//! consistent databases, where every foreign key value appearing in the
//! fact table exists in its dimension — the amortized cost per update is
//! constant, even when individual updates (a dimension insert fixing up
//! `n` waiting fact tuples, or a dimension delete preceding its fact
//! deletes) cost O(n): each fixed-up fact tuple pays O(1) against its own
//! insertion/deletion.
//!
//! The engine tolerates transiently inconsistent states (out-of-order
//! execution) and reports [`PkFkEngine::is_consistent`] so tests can check
//! validity at commit points.

use crate::error::EngineError;
use ivm_data::{GroupedIndex, Relation, Schema, Sym, Tuple, Update};
use ivm_ring::Semiring;

/// A star-join aggregate engine with per-update cost accounting.
pub struct PkFkEngine<R> {
    fact_name: Sym,
    fact: Relation<R>,
    /// One index on the fact table per dimension, keyed by that FK column.
    fact_indexes: Vec<GroupedIndex<R>>,
    dims: Vec<(Sym, Relation<R>)>,
    /// FK column variable per dimension (position in the fact schema).
    fk_pos: Vec<usize>,
    /// The maintained aggregate `Σ Fact·ΠDims`.
    total: R,
    /// Index entries touched by the last update (the paper's `n`).
    last_cost: usize,
    /// Cumulative touched entries, for amortized-cost reporting.
    cumulative_cost: usize,
    updates: usize,
}

impl<R: Semiring> PkFkEngine<R> {
    /// Build an empty engine: `fact_schema` must contain each dimension's
    /// single key variable.
    pub fn new(
        fact_name: Sym,
        fact_schema: Schema,
        dims: Vec<(Sym, Sym)>, // (relation name, key variable)
    ) -> Result<Self, EngineError> {
        let mut fk_pos = Vec::with_capacity(dims.len());
        let mut fact_indexes = Vec::with_capacity(dims.len());
        let mut dim_rels = Vec::with_capacity(dims.len());
        for (name, key) in dims {
            let pos = fact_schema.position(key).ok_or_else(|| {
                EngineError::NotSupported(format!(
                    "dimension key {key} not in fact schema {fact_schema:?}"
                ))
            })?;
            fk_pos.push(pos);
            fact_indexes.push(GroupedIndex::new(fact_schema.clone(), Schema::from([key])));
            dim_rels.push((name, Relation::new(Schema::from([key]))));
        }
        Ok(PkFkEngine {
            fact_name,
            fact: Relation::new(fact_schema),
            fact_indexes,
            dims: dim_rels,
            fk_pos,
            total: R::zero(),
            last_cost: 0,
            cumulative_cost: 0,
            updates: 0,
        })
    }

    /// The maintained aggregate.
    pub fn total(&self) -> &R {
        &self.total
    }

    /// Index entries touched by the last update.
    pub fn last_cost(&self) -> usize {
        self.last_cost
    }

    /// Average cost per update so far (the amortized cost).
    pub fn amortized_cost(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.cumulative_cost as f64 / self.updates as f64
        }
    }

    /// Apply a single-tuple update to the fact table or a dimension. An
    /// update to an unknown relation, or with a tuple of the wrong arity,
    /// is refused before any state or counter changes.
    pub fn apply(&mut self, upd: &Update<R>) -> Result<(), EngineError> {
        let dim = match self.dims.iter().position(|(n, _)| *n == upd.relation) {
            _ if upd.relation == self.fact_name => None,
            Some(di) => Some(di),
            None => return Err(EngineError::UnknownRelation(upd.relation)),
        };
        let arity = dim.map_or(self.fact.schema().arity(), |_| 1);
        if upd.tuple.arity() != arity {
            return Err(EngineError::NotSupported(format!(
                "update to {} carries a tuple of arity {}, but the relation \
                 has arity {arity}",
                upd.relation,
                upd.tuple.arity()
            )));
        }
        self.updates += 1;
        let Some(di) = dim else {
            // δQ = δF(t) · Π_i Dim_i(t.k_i): one lookup per dimension.
            self.last_cost = 1;
            self.cumulative_cost += 1;
            let mut d = upd.payload.clone();
            for (i, (_, dim)) in self.dims.iter().enumerate() {
                let k = Tuple::new([upd.tuple.at(self.fk_pos[i]).clone()]);
                d = d.times(&dim.get(&k));
                if d.is_zero() {
                    break;
                }
            }
            self.total.add_assign(&d);
            self.fact.apply(upd.tuple.clone(), &upd.payload);
            for idx in &mut self.fact_indexes {
                idx.apply(&upd.tuple, &upd.payload);
            }
            return Ok(());
        };
        // δQ = δDim_di(k) · Σ_{t ∈ F: t.k_di = k} F(t) · Π_{j≠di} Dim_j(t.k_j):
        // iterate the fact tuples waiting on this key.
        let key = Tuple::new([upd.tuple.at(0).clone()]);
        let mut cost = 1;
        let mut delta = R::zero();
        if let Some(group) = self.fact_indexes[di].group(&key) {
            // Residual tuples hold the fact columns except the key column.
            let residual_schema = self.fact_indexes[di].residual_schema();
            for (res, payload) in group.iter() {
                cost += 1;
                let mut d = upd.payload.clone().times(payload);
                for (j, (_, dim)) in self.dims.iter().enumerate() {
                    if j == di {
                        continue;
                    }
                    // Find this FK's value in the residual tuple.
                    let var = self.fact.schema().vars()[self.fk_pos[j]];
                    let pos = residual_schema.position(var).expect("distinct fk columns");
                    let k = Tuple::new([res.at(pos).clone()]);
                    d = d.times(&dim.get(&k));
                    if d.is_zero() {
                        break;
                    }
                }
                delta.add_assign(&d);
            }
        }
        self.total.add_assign(&delta);
        self.dims[di].1.apply(upd.tuple.clone(), &upd.payload);
        self.last_cost = cost;
        self.cumulative_cost += cost;
        Ok(())
    }

    /// Whether the current database is PK–FK consistent: every foreign key
    /// value in the fact table exists in its dimension. O(|Fact|·d).
    pub fn is_consistent(&self) -> bool {
        self.fact.iter().all(|(t, _)| {
            self.fk_pos.iter().enumerate().all(|(i, &pos)| {
                let k = Tuple::new([t.at(pos).clone()]);
                !self.dims[i].1.get(&k).is_zero()
            })
        })
    }

    /// Recompute the aggregate from scratch (test oracle).
    pub fn recompute(&self) -> R {
        let mut acc = R::zero();
        for (t, p) in self.fact.iter() {
            let mut d = p.clone();
            for (i, (_, dim)) in self.dims.iter().enumerate() {
                let k = Tuple::new([t.at(self.fk_pos[i]).clone()]);
                d = d.times(&dim.get(&k));
            }
            acc.add_assign(&d);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::{sym, tup, vars};

    fn job_engine() -> PkFkEngine<i64> {
        let [m, c] = vars(["pk_movie", "pk_company"]);
        PkFkEngine::new(
            sym("pk_MC"),
            Schema::from([m, c]),
            vec![(sym("pk_Title"), m), (sym("pk_Company"), c)],
        )
        .unwrap()
    }

    #[test]
    fn fact_updates_cost_one() {
        let mut eng = job_engine();
        let (t, c, mc) = (sym("pk_Title"), sym("pk_Company"), sym("pk_MC"));
        eng.apply(&Update::insert(t, tup![1i64])).unwrap();
        eng.apply(&Update::insert(c, tup![7i64])).unwrap();
        eng.apply(&Update::insert(mc, tup![1i64, 7i64])).unwrap();
        assert_eq!(eng.last_cost(), 1);
        assert_eq!(*eng.total(), 1);
        assert!(eng.is_consistent());
    }

    /// Ex 4.13: inserting a company with `n` waiting fact records costs
    /// O(n) once, but the n earlier fact inserts each cost O(1): amortized
    /// constant, at every fanout. Then a stream of valid out-of-order
    /// batches (`PkFkGen`: a company with `n` movies inserted facts-first,
    /// every fourth batch a company deleted key-first) spikes to `n + 1`
    /// and stays consistent at every commit point, below 2 amortized.
    #[test]
    fn dimension_insert_fixes_up_waiting_facts() {
        use ivm_workloads::pkfk::{PkFkGen, PkFkOp};
        let (t, c, mc) = (sym("pk_Title"), sym("pk_Company"), sym("pk_MC"));
        for n in [10i64, 100, 1000] {
            let mut eng = job_engine();
            for m in 0..n {
                eng.apply(&Update::insert(t, tup![m])).unwrap();
                eng.apply(&Update::insert(mc, tup![m, 7i64])).unwrap();
                assert_eq!(eng.last_cost(), 1);
            }
            assert!(!eng.is_consistent(), "company 7 missing: invalid state");
            assert_eq!(*eng.total(), 0);
            eng.apply(&Update::insert(c, tup![7i64])).unwrap();
            assert_eq!(eng.last_cost() as i64, n + 1, "one spike of size n");
            assert_eq!(*eng.total(), n);
            assert!(eng.is_consistent());
            // Amortized: (2n ones + one spike of n+1) / (2n + 1) < 2.
            assert!(eng.amortized_cost() < 2.0);

            let mut eng = job_engine();
            let mut gen = PkFkGen::new(3);
            let mut max_spike = 0;
            for round in 0..12 {
                let batch = match round % 4 {
                    3 => gen.shrink_batch().expect("a live company"),
                    _ => gen.grow_batch(n as usize),
                };
                for op in batch {
                    let upd = match op {
                        PkFkOp::Title(m, d) => Update::with_payload(t, tup![m], d),
                        PkFkOp::Company(k, d) => Update::with_payload(c, tup![k], d),
                        PkFkOp::MovieCompany(m, k, d) => Update::with_payload(mc, tup![m, k], d),
                    };
                    eng.apply(&upd).unwrap();
                    max_spike = max_spike.max(eng.last_cost());
                }
                assert!(eng.is_consistent(), "fanout {n}: commit point {round}");
                assert_eq!(*eng.total(), eng.recompute());
            }
            assert_eq!(max_spike as i64, n + 1, "fanout {n}");
            assert!(
                eng.amortized_cost() < 2.0,
                "fanout {n}: {}",
                eng.amortized_cost()
            );
        }
    }

    /// An update to an unknown relation, or with a tuple of the wrong
    /// arity, is refused before it touches any counter or state.
    #[test]
    fn refused_updates_change_no_counter() {
        let mut eng = job_engine();
        let (t, c, mc) = (sym("pk_Title"), sym("pk_Company"), sym("pk_MC"));
        eng.apply(&Update::insert(t, tup![1i64])).unwrap();
        eng.apply(&Update::insert(mc, tup![1i64, 7i64])).unwrap();
        eng.apply(&Update::insert(c, tup![7i64])).unwrap();
        let (amortized, last) = (eng.amortized_cost(), eng.last_cost());
        let refused = [
            (Update::insert(sym("pk_nope"), tup![1i64]), true),
            (Update::insert(mc, tup![1i64]), false),
            (Update::insert(c, tup![7i64, 8i64]), false),
            (Update::insert(t, Tuple::empty()), false),
        ];
        for (upd, unknown) in refused {
            let err = eng.apply(&upd).unwrap_err();
            assert_eq!(
                unknown,
                matches!(err, EngineError::UnknownRelation(_)),
                "{err}"
            );
            assert_eq!(eng.amortized_cost(), amortized);
            assert_eq!(eng.last_cost(), last);
        }
        assert_eq!(*eng.total(), 1);
        assert!(eng.is_consistent());
    }

    /// Deletes in the other order: deleting the company first costs O(n);
    /// the subsequent fact deletes are O(1) each and restore consistency.
    #[test]
    fn dimension_delete_then_fact_deletes() {
        let mut eng = job_engine();
        let (t, c, mc) = (sym("pk_Title"), sym("pk_Company"), sym("pk_MC"));
        let n = 20i64;
        eng.apply(&Update::insert(c, tup![7i64])).unwrap();
        for m in 0..n {
            eng.apply(&Update::insert(t, tup![m])).unwrap();
            eng.apply(&Update::insert(mc, tup![m, 7i64])).unwrap();
        }
        assert_eq!(*eng.total(), n);
        eng.apply(&Update::delete(c, tup![7i64])).unwrap();
        assert_eq!(eng.last_cost() as i64, n + 1);
        assert_eq!(*eng.total(), 0);
        assert!(!eng.is_consistent());
        for m in 0..n {
            eng.apply(&Update::delete(mc, tup![m, 7i64])).unwrap();
            assert_eq!(eng.last_cost(), 1);
        }
        assert!(eng.is_consistent());
        assert_eq!(*eng.total(), 0);
        assert_eq!(eng.recompute(), 0);
    }

    /// The maintained total always equals the from-scratch oracle, valid
    /// or not.
    #[test]
    fn total_matches_recompute_under_random_updates() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut eng = job_engine();
        let (t, c, mc) = (sym("pk_Title"), sym("pk_Company"), sym("pk_MC"));
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..300 {
            let m: i64 = if rng.gen_bool(0.3) { -1 } else { 1 };
            match rng.gen_range(0..3) {
                0 => eng
                    .apply(&Update::with_payload(t, tup![rng.gen_range(0..5i64)], m))
                    .unwrap(),
                1 => eng
                    .apply(&Update::with_payload(c, tup![rng.gen_range(0..5i64)], m))
                    .unwrap(),
                _ => eng
                    .apply(&Update::with_payload(
                        mc,
                        tup![rng.gen_range(0..5i64), rng.gen_range(0..5i64)],
                        m,
                    ))
                    .unwrap(),
            }
            assert_eq!(*eng.total(), eng.recompute());
        }
    }
}
