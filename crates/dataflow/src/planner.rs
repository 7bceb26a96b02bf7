//! Lowering a conjunctive query onto a delta-dataflow DAG.
//!
//! Any `ivm_query::Query` — q-hierarchical or not, acyclic or *cyclic*,
//! self-join or not — lowers to a runnable dataflow. The planner splits on
//! the hypergraph's shape, decided by the GYO reduction shared with
//! `ivm_query::acyclic` (the same check `ivm_core::acyclic::join_tree`
//! routes through):
//!
//! * **α-acyclic** queries keep the left-deep chain of binary
//!   [`DeltaJoin`](crate::Dataflow::add_join) nodes — one
//!   [`Source`](crate::Dataflow::add_source) per atom occurrence, early
//!   marginalization of variables no later atom or the head needs, and a
//!   final [`GroupAggregate`](crate::Dataflow::add_aggregate) onto the
//!   free variables. Atom order comes from [`cost::atom_order`] (smallest
//!   relation first, connected extension, deterministic tie-breaks)
//!   instead of the old syntactic order.
//! * **Cyclic** queries (triangle, 4-cycle, Loomis–Whitney) lower to a
//!   single worst-case-optimal
//!   [`MultiwayJoin`](crate::Dataflow::add_multiway_join) node — one
//!   source per *distinct* relation (self-join occurrences share state)
//!   and a cost-based variable order from [`cost::variable_order`] — and
//!   *no* final aggregate: the node sums each join tuple straight into
//!   its output over the free variables, so its schema is the sink's and
//!   a triangle count never lists a triangle. The left-deep chain would
//!   materialize binary intermediate deltas that can dwarf the output (the
//!   Sec. 3.3 blow-up that Kara et al. and leapfrog-style WCOJ algorithms
//!   avoid).
//!
//! [`JoinStrategy`] overrides the split — the property-test harness runs
//! the same query through both plans and cross-checks them.
//!
//! This is the generic-fallback counterpart to the specialized engines in
//! `ivm-core`: no constant-time guarantees, but O(|δQ| + index-probe) work
//! per batch for every conjunctive query with aggregates.

use crate::cost::{self, Cardinalities};
use crate::graph::Dataflow;
use ivm_data::ops::Lift;
use ivm_data::FxHashMap;
use ivm_query::acyclic::is_acyclic;
use ivm_query::Query;
use ivm_ring::Semiring;

/// Which join plan to lower to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Split on the hypergraph: left-deep when α-acyclic, multiway when
    /// cyclic.
    #[default]
    Auto,
    /// Force the left-deep binary `DeltaJoin` chain.
    LeftDeep,
    /// Force the single worst-case-optimal `MultiwayJoin` node.
    Multiway,
}

impl JoinStrategy {
    /// A stable one-byte tag for persistence (snapshot files outlive the
    /// process, so `as u8` on the enum ordering would be too fragile).
    pub fn tag(self) -> u8 {
        match self {
            JoinStrategy::Auto => 0,
            JoinStrategy::LeftDeep => 1,
            JoinStrategy::Multiway => 2,
        }
    }

    /// Decode a [`JoinStrategy::tag`]; `None` for unknown bytes (a
    /// corrupt or future-version snapshot must not panic).
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(JoinStrategy::Auto),
            1 => Some(JoinStrategy::LeftDeep),
            2 => Some(JoinStrategy::Multiway),
            _ => None,
        }
    }
}

/// Lower `q` with the default strategy and no statistics.
pub fn lower<R: Semiring>(q: &Query, lift: Lift<R>) -> Dataflow<R> {
    lower_with(q, lift, JoinStrategy::Auto, &Cardinalities::none())
}

/// The concrete plan `strategy` resolves to for `q`: [`JoinStrategy::Auto`]
/// splits on the GYO acyclicity check, the forced variants pass through.
/// Never returns `Auto` — this is the single place the split is decided,
/// shared by the lowering below and by callers (the session layer) that
/// need to *report* which plan a dataflow actually runs.
pub fn resolve_strategy(q: &Query, strategy: JoinStrategy) -> JoinStrategy {
    match strategy {
        JoinStrategy::Auto => {
            if is_acyclic(q) {
                JoinStrategy::LeftDeep
            } else {
                JoinStrategy::Multiway
            }
        }
        forced => forced,
    }
}

/// Lower `q` to a runnable dataflow with `lift` as the payload lifting,
/// choosing the join plan per `strategy` and ordering it by `cards`.
pub fn lower_with<R: Semiring>(
    q: &Query,
    lift: Lift<R>,
    strategy: JoinStrategy,
    cards: &Cardinalities,
) -> Dataflow<R> {
    match resolve_strategy(q, strategy) {
        JoinStrategy::Multiway => lower_multiway(q, lift, cards),
        _ => lower_left_deep(q, lift, cards),
    }
}

/// The left-deep chain over `cost::atom_order`.
fn lower_left_deep<R: Semiring>(q: &Query, lift: Lift<R>, cards: &Cardinalities) -> Dataflow<R> {
    let mut df = Dataflow::new();
    let order = cost::atom_order(q, cards);
    let n = order.len();
    let first = &q.atoms[order[0]];
    let mut cur = df.add_source(first.name, first.schema.clone());
    for (k, &ai) in order.iter().enumerate().skip(1) {
        let atom = &q.atoms[ai];
        let src = df.add_source(atom.name, atom.schema.clone());
        cur = df.add_join(cur, src);
        // Early marginalization: a variable that is bound and absent from
        // every later atom can be summed out now, shrinking intermediate
        // deltas. The final aggregate handles whatever remains.
        if k + 1 < n {
            let mut needed = q.free.clone();
            for &later in &order[k + 1..] {
                needed = needed.union(&q.atoms[later].schema);
            }
            let keep = df.schema_of(cur).intersect(&needed);
            if keep.arity() < df.schema_of(cur).arity() {
                cur = df.add_aggregate(cur, keep, lift);
            }
        }
    }
    finish(df, cur, q, lift)
}

/// One `MultiwayJoin` node over one source per distinct relation, emitting
/// its delta already aggregated onto the free variables — so `finish`
/// adds no aggregate.
fn lower_multiway<R: Semiring>(q: &Query, lift: Lift<R>, cards: &Cardinalities) -> Dataflow<R> {
    let mut df = Dataflow::new();
    let mut slot_of: FxHashMap<ivm_data::Sym, usize> = FxHashMap::default();
    let mut inputs = Vec::new();
    let mut atoms = Vec::with_capacity(q.atoms.len());
    for atom in &q.atoms {
        let slot = *slot_of.entry(atom.name).or_insert_with(|| {
            inputs.push(df.add_source(atom.name, atom.schema.clone()));
            inputs.len() - 1
        });
        atoms.push((slot, atom.schema.clone()));
    }
    let var_order = cost::variable_order(q, cards);
    let join = df.add_multiway_join(inputs, atoms, var_order, q.free.clone(), lift);
    finish(df, join, q, lift)
}

/// Aggregate onto the free variables when the join schema differs (only a
/// left-deep chain's can), then declare the sink.
fn finish<R: Semiring>(
    mut df: Dataflow<R>,
    mut cur: crate::graph::NodeId,
    q: &Query,
    lift: Lift<R>,
) -> Dataflow<R> {
    if df.schema_of(cur) != &q.free {
        cur = df.add_aggregate(cur, q.free.clone(), lift);
    }
    df.set_sink(cur);
    df
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::ops::lift_one;
    use ivm_data::{sym, tup, vars, Schema, Update};
    use ivm_query::Atom;

    #[test]
    fn fig3_plan_shape() {
        let q = ivm_query::examples::fig3_query();
        let df: Dataflow<i64> = lower(&q, lift_one);
        let plan = df.describe();
        // Two sources, one join, one final aggregate (reorder/marginalize).
        assert_eq!(plan.matches("Source").count(), 2, "{plan}");
        assert_eq!(plan.matches("DeltaJoin").count(), 1, "{plan}");
    }

    #[test]
    fn cyclic_triangle_lowers_to_one_multiway_node() {
        let q = ivm_query::examples::triangle_count();
        let df: Dataflow<i64> = lower(&q, lift_one);
        let plan = df.describe();
        assert_eq!(plan.matches("Source").count(), 3, "{plan}");
        assert_eq!(plan.matches("MultiwayJoin(atoms=3)").count(), 1, "{plan}");
        assert_eq!(plan.matches("DeltaJoin").count(), 0, "{plan}");
        // The join node aggregates onto the free variables itself: it is
        // the sink, and no aggregate node follows it.
        assert_eq!(plan.matches("GroupAggregate").count(), 0, "{plan}");
        assert_eq!(df.node_count(), 4, "{plan}");
        assert!(
            plan.contains("MultiwayJoin(atoms=3)[] inputs=[0, 1, 2]  <- sink"),
            "{plan}"
        );
        assert_eq!(df.schema_of(3), &q.free);
    }

    #[test]
    fn triangle_self_join_shares_one_source() {
        // One edge relation in three atoms: the multiway plan reads it
        // through a single source (shared indexes), unlike the left-deep
        // plan's one source per occurrence.
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
        let df: Dataflow<i64> = lower(&q, lift_one);
        let plan = df.describe();
        assert_eq!(plan.matches("Source").count(), 1, "{plan}");
        assert_eq!(plan.matches("MultiwayJoin(atoms=3)").count(), 1, "{plan}");

        let forced: Dataflow<i64> =
            lower_with(&q, lift_one, JoinStrategy::LeftDeep, &Cardinalities::none());
        assert_eq!(forced.describe().matches("Source").count(), 3);
    }

    #[test]
    fn strategy_override_beats_auto() {
        // Acyclic star forced onto the multiway path still lowers…
        let q = ivm_query::examples::fig3_query();
        let df: Dataflow<i64> =
            lower_with(&q, lift_one, JoinStrategy::Multiway, &Cardinalities::none());
        assert!(df.describe().contains("MultiwayJoin"), "{}", df.describe());
        // …and the cyclic triangle forced left-deep keeps binary joins.
        let tri = ivm_query::examples::triangle_count();
        let df: Dataflow<i64> = lower_with(
            &tri,
            lift_one,
            JoinStrategy::LeftDeep,
            &Cardinalities::none(),
        );
        assert!(df.describe().contains("DeltaJoin"), "{}", df.describe());
    }

    #[test]
    fn multiway_plan_computes_triangle_count() {
        let q = ivm_query::examples::triangle_count();
        let mut df: Dataflow<i64> = lower(&q, lift_one);
        let (rn, sn, tn) = (sym("tri_R"), sym("tri_S"), sym("tri_T"));
        df.apply_batch(&[
            Update::insert(rn, tup![1i64, 2i64]),
            Update::insert(sn, tup![2i64, 3i64]),
            Update::insert(tn, tup![3i64, 1i64]),
            Update::insert(rn, tup![5i64, 6i64]),
        ])
        .unwrap();
        assert_eq!(df.output().get(&ivm_data::Tuple::empty()), 1);
        assert_eq!(
            df.stats().binary_join_tuples,
            0,
            "multiway plan must materialize no binary intermediates"
        );
        df.apply_batch(&[Update::delete(sn, tup![2i64, 3i64])])
            .unwrap();
        assert!(df.output().is_empty());
    }

    #[test]
    fn cost_order_prefers_small_relations_in_left_deep_plans() {
        let [a, b, c] = vars(["pl_cA", "pl_cB", "pl_cC"]);
        let q = ivm_query::Query::new(
            "pl_cost",
            [a, c],
            vec![
                Atom::new(sym("pl_cR"), [a, b]),
                Atom::new(sym("pl_cS"), [b, c]),
            ],
        );
        let mut cards = Cardinalities::none();
        cards.set(sym("pl_cR"), 1_000).set(sym("pl_cS"), 2);
        let df: Dataflow<i64> = lower_with(&q, lift_one, JoinStrategy::LeftDeep, &cards);
        let plan = df.describe();
        let s_pos = plan.find("Source(pl_cS)").expect("S source in plan");
        let r_pos = plan.find("Source(pl_cR)").expect("R source in plan");
        assert!(
            s_pos < r_pos,
            "smaller relation should open the chain:\n{plan}"
        );
    }

    #[test]
    fn early_marginalization_prunes_wide_intermediates() {
        // Q(a) = R(a,b) S(b,c) T(a,d): after R⋈S, b and c are dead (no
        // later atom uses them, a is the only free variable kept).
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
        let mut df: Dataflow<i64> = lower(&q, lift_one);
        let plan = df.describe();
        assert!(
            plan.contains("GroupAggregate[pl_A] "),
            "expected early aggregate onto [pl_A]:\n{plan}"
        );
        // And it still computes the right answer.
        df.apply_batch(&[
            Update::insert(sym("pl_R"), tup![1i64, 2i64]),
            Update::insert(sym("pl_S"), tup![2i64, 3i64]),
            Update::insert(sym("pl_T"), tup![1i64, 9i64]),
        ])
        .unwrap();
        assert_eq!(df.output().get(&tup![1i64]), 1);
    }

    #[test]
    fn single_atom_query_lowered() {
        let [x, y] = vars(["pl_X1", "pl_Y1"]);
        let q = Query::new("pl_single", [x], vec![Atom::new(sym("pl_U"), [x, y])]);
        let mut df: Dataflow<i64> = lower(&q, lift_one);
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
        let mut df: Dataflow<i64> = lower(&q, lift_one);
        df.apply_batch(&[
            Update::insert(sym("pl_V"), tup![1i64, 5i64]),
            Update::insert(sym("pl_V"), tup![2i64, 5i64]),
        ])
        .unwrap();
        assert_eq!(df.output().get(&ivm_data::Tuple::empty()), 2);
        assert_eq!(df.schema_of(df.node_count() - 1), &Schema::empty());
    }
}
