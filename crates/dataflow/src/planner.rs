//! Lowering a conjunctive query onto a delta dataflow.
//!
//! Any `ivm_query::Query` — q-hierarchical or not, acyclic or *cyclic*,
//! self-join or not — lowers to one worst-case-optimal
//! [`multiway`](crate::multiway) join: one input per *distinct* relation
//! (self-join occurrences share its store and indexes) and a cost-based
//! variable order from [`cost::variable_order`]. There is no final
//! aggregate: the join sums each join tuple straight into its output over
//! the free variables, so a triangle count never lists a triangle, and no
//! binary intermediate is ever materialized — the Sec. 3.3 blow-up that
//! Kara et al. and leapfrog-style algorithms avoid. One algorithm serves
//! acyclic queries too (Veldhuizen, *Incremental Maintenance for Leapfrog
//! Triejoin*): a seed plan always binds next a variable joined to the
//! binding so far, so on an α-acyclic query each step is keyed like a
//! join-tree edge.
//!
//! This is the generic-fallback counterpart to the specialized engines in
//! `ivm-core`: no constant-time guarantees, but O(|δQ| + index-probe) work
//! per batch for every conjunctive query with aggregates.

use crate::cost::{self, Cardinalities};
use crate::graph::Dataflow;
use ivm_data::ops::Lift;
use ivm_data::{Schema, Sym};
use ivm_query::Query;
use ivm_ring::Semiring;

/// Lower `q` to a runnable dataflow with `lift` as the payload lifting,
/// ordering the join's variables by `cards`.
pub fn lower<R: Semiring>(q: &Query, lift: Lift<R>, cards: &Cardinalities) -> Dataflow<R> {
    let atoms: Vec<(Sym, Schema)> = q.atoms.iter().map(|a| (a.name, a.schema.clone())).collect();
    Dataflow::new(&atoms, cost::variable_order(q, cards), q.free.clone(), lift)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::ops::lift_one;
    use ivm_data::{sym, tup, vars, Schema, Update};
    use ivm_query::Atom;

    fn lower_blind(q: &Query) -> Dataflow<i64> {
        lower(q, lift_one, &Cardinalities::none())
    }

    #[test]
    fn fig3_plan_shape() {
        // The acyclic Fig 3 query lowers to the same one join node as a
        // cyclic one: two relations, no aggregate after it.
        let df = lower_blind(&ivm_query::examples::fig3_query());
        assert_eq!(
            df.describe(),
            "MultiwayJoin(atoms=2) over [f3_R, f3_S] order [f3_Y, f3_X, f3_Z] -> [f3_Y, f3_X, f3_Z]"
        );
    }

    #[test]
    fn cyclic_triangle_lowers_to_one_multiway_node() {
        let q = ivm_query::examples::triangle_count();
        let df = lower_blind(&q);
        let plan = df.describe();
        assert!(
            plan.starts_with("MultiwayJoin(atoms=3) over [tri_R, tri_S, tri_T]"),
            "{plan}"
        );
        // The join node aggregates onto the free variables itself.
        assert!(plan.ends_with("-> []"), "{plan}");
        assert_eq!(df.output().schema(), &q.free);
    }

    #[test]
    fn triangle_self_join_shares_one_source() {
        // One edge relation in three atoms: the plan reads it through a
        // single input (shared store and indexes).
        let [a, b, c] = vars(["pl_MA", "pl_MB", "pl_MC"]);
        let e = sym("pl_ME");
        let q = ivm_query::Query::new(
            "pl_mtri",
            [],
            vec![
                Atom::new(e, [a, b]),
                Atom::new(e, [b, c]),
                Atom::new(e, [c, a]),
            ],
        );
        let plan = lower_blind(&q).describe();
        assert!(
            plan.starts_with("MultiwayJoin(atoms=3) over [pl_ME] "),
            "{plan}"
        );
    }

    #[test]
    fn multiway_plan_computes_triangle_count() {
        let q = ivm_query::examples::triangle_count();
        let mut df = lower_blind(&q);
        let (rn, sn, tn) = (sym("tri_R"), sym("tri_S"), sym("tri_T"));
        df.apply_batch(&[
            Update::insert(rn, tup![1i64, 2i64]),
            Update::insert(sn, tup![2i64, 3i64]),
            Update::insert(tn, tup![3i64, 1i64]),
            Update::insert(rn, tup![5i64, 6i64]),
        ])
        .unwrap();
        assert_eq!(df.output().get(&ivm_data::Tuple::empty()), 1);
        df.apply_batch(&[Update::delete(sn, tup![2i64, 3i64])])
            .unwrap();
        assert!(df.output().is_empty());
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
        let mut df = lower_blind(&q);
        assert!(df.describe().ends_with("-> [pl_A]"), "{}", df.describe());
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
        assert_eq!(df.output().get(&tup![1i64]), 2);
        assert_eq!(df.stats().output_delta_tuples, 1);
    }

    #[test]
    fn single_atom_query_lowered() {
        let [x, y] = vars(["pl_X1", "pl_Y1"]);
        let q = Query::new("pl_single", [x], vec![Atom::new(sym("pl_U"), [x, y])]);
        let mut df = lower_blind(&q);
        df.apply_batch(&[
            Update::insert(sym("pl_U"), tup![1i64, 5i64]),
            Update::insert(sym("pl_U"), tup![1i64, 6i64]),
        ])
        .unwrap();
        assert_eq!(df.output().get(&tup![1i64]), 2);
    }

    #[test]
    fn boolean_query_aggregates_to_empty_tuple() {
        let [x, y] = vars(["pl_X2", "pl_Y2"]);
        let q = Query::new("pl_bool", [], vec![Atom::new(sym("pl_V"), [x, y])]);
        let mut df = lower_blind(&q);
        df.apply_batch(&[
            Update::insert(sym("pl_V"), tup![1i64, 5i64]),
            Update::insert(sym("pl_V"), tup![2i64, 5i64]),
        ])
        .unwrap();
        assert_eq!(df.output().get(&ivm_data::Tuple::empty()), 2);
        assert_eq!(df.output().schema(), &Schema::empty());
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
        let blind = lower_blind(&q).describe();
        let informed = lower::<i64>(&q, lift_one, &cards).describe();
        assert!(blind.contains("order [pl_cB, pl_cA, pl_cC]"), "{blind}");
        assert!(
            informed.contains("order [pl_cB, pl_cC, pl_cA]"),
            "{informed}"
        );
    }
}
