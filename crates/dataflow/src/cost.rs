//! Cost-based plan ordering with deterministic tie-breaking.
//!
//! The multiway join eliminates variables in one global order, and the
//! order decides how early small candidate sets prune the search. This
//! module derives it, and ranks orders for the replan policy:
//!
//! * [`variable_order`] — most-constrained variables first (highest atom
//!   degree, then lowest fan-out estimate from the containing relations'
//!   cardinalities);
//! * [`multiway_cost`] — a coarse predicted search cost of an order, the
//!   proxy [`ReplanPolicy`](crate::ReplanPolicy) compares a running order
//!   against a fresh one with.
//!
//! Every comparison ends in a deterministic tie-break (cardinality, then
//! first-occurrence index), so the same query and statistics always
//! produce byte-identical plans across runs and platforms — a precondition
//! for comparing recorded bench numbers over time.

use ivm_data::{Database, FxHashMap, Schema, Sym};
use ivm_query::Query;
use ivm_ring::Semiring;

/// Relation cardinality estimates feeding the orderings. Missing relations
/// are treated as unknown (and sort after every known size).
#[derive(Clone, Debug, Default)]
pub struct Cardinalities {
    sizes: FxHashMap<Sym, usize>,
}

impl Cardinalities {
    /// No statistics: every ordering falls back to pure tie-breaking,
    /// which reproduces a stable syntactic-like order.
    pub fn none() -> Self {
        Cardinalities::default()
    }

    /// Record one relation's size.
    pub fn set(&mut self, relation: Sym, size: usize) -> &mut Self {
        self.sizes.insert(relation, size);
        self
    }

    /// Snapshot the sizes of a query's relations from a database.
    pub fn from_db<R: Semiring>(db: &Database<R>, q: &Query) -> Self {
        let mut cards = Cardinalities::default();
        for atom in &q.atoms {
            if let Some(rel) = db.get(atom.name) {
                cards.set(atom.name, rel.len());
            }
        }
        cards
    }

    /// The estimate for `relation`, `usize::MAX` when unknown (unknown
    /// relations order last among equals).
    pub fn get(&self, relation: Sym) -> usize {
        self.sizes.get(&relation).copied().unwrap_or(usize::MAX)
    }

    /// The recorded estimate for `relation`, `None` when never recorded.
    /// Unlike [`Self::get`] this distinguishes "unknown" from "known
    /// huge" — the replan policy treats a plan lowered from no statistics
    /// (or an empty database) as *blind* rather than as infinitely
    /// expensive.
    pub fn known(&self, relation: Sym) -> Option<usize> {
        self.sizes.get(&relation).copied()
    }

    /// Whether every relation of `q` is unknown or recorded as empty —
    /// i.e. the orderings derived from these statistics were pure
    /// tie-breaking, not informed choices. A session built before any
    /// data arrives (the common streaming pattern) is in exactly this
    /// state.
    pub fn is_blind_for(&self, q: &Query) -> bool {
        q.atoms
            .iter()
            .all(|a| self.known(a.name).is_none_or(|n| n == 0))
    }
}

/// The size estimate feeding the cost proxies: unknown relations count as
/// empty (the optimistic reading a blind build actually uses), and every
/// known size is clamped to ≥ 1 so products stay meaningful.
fn est(cards: &Cardinalities, rel: Sym) -> f64 {
    cards.known(rel).unwrap_or(0).max(1) as f64
}

/// A coarse predicted search cost of a multiway variable elimination
/// along `var_order` under `cards`: the sum over *internal* levels of the
/// partial-binding frontier estimate, where each variable's fan-out is
/// the smallest containing relation (the candidate set is an intersection
/// and the smallest list bounds it). The deepest level is excluded — its
/// binding count is the join output, which no order changes; what the
/// order controls is how early small candidate sets prune the frontier.
///
/// This is a *ranking* proxy, not a cardinality estimator: it exists so
/// the replan policy can compare two orders of the same query under the
/// same statistics — e.g. the order a blind build picked against the
/// order [`variable_order`] would pick from learned counts — with a
/// deterministic, monotone answer.
pub fn multiway_cost(q: &Query, var_order: &Schema, cards: &Cardinalities) -> f64 {
    let fan_out = |v: Sym| {
        q.atoms
            .iter()
            .filter(|a| a.schema.contains(v))
            .map(|a| est(cards, a.name))
            .fold(f64::INFINITY, f64::min)
    };
    let vars = var_order.vars();
    let mut cost = 0.0;
    let mut frontier = 1.0;
    for &v in vars.iter().take(vars.len().saturating_sub(1)) {
        let f = fan_out(v);
        frontier *= if f.is_finite() { f } else { 1.0 };
        cost += frontier;
    }
    cost
}

/// The global variable-elimination order for a multiway join.
///
/// Most-constrained first: variables touching more atoms lead (their
/// candidate sets are intersections of more lists), ties broken by the
/// smallest cardinality among the containing relations (a cheap fan-out
/// estimate — values drawn from small relations prune earlier), then by
/// first occurrence in the query.
pub fn variable_order(q: &Query, cards: &Cardinalities) -> Schema {
    let all = q.variables();
    let mut vars: Vec<(usize, Sym)> = all.vars().iter().copied().enumerate().collect();
    let stats = |v: Sym| {
        let mut degree = 0usize;
        let mut min_card = usize::MAX;
        for atom in &q.atoms {
            if atom.schema.contains(v) {
                degree += 1;
                min_card = min_card.min(cards.get(atom.name));
            }
        }
        (degree, min_card)
    };
    vars.sort_by_key(|&(first_occurrence, v)| {
        let (degree, min_card) = stats(v);
        (std::cmp::Reverse(degree), min_card, first_occurrence)
    });
    Schema::new(vars.into_iter().map(|(_, v)| v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::{sym, vars};
    use ivm_query::Atom;

    fn chain() -> Query {
        // R(a,b)·S(b,c)·T(c,d)
        let [a, b, c, d] = vars(["co_A", "co_B", "co_C", "co_D"]);
        Query::new(
            "co_chain",
            [a, d],
            vec![
                Atom::new(sym("co_R"), [a, b]),
                Atom::new(sym("co_S"), [b, c]),
                Atom::new(sym("co_T"), [c, d]),
            ],
        )
    }

    #[test]
    fn no_stats_is_stable_syntactic_order() {
        // Degree first (b and c join two atoms each), then first
        // occurrence.
        let q = chain();
        let [a, b, c, d] = vars(["co_A", "co_B", "co_C", "co_D"]);
        let order = variable_order(&q, &Cardinalities::none());
        assert_eq!(order, Schema::from([b, c, a, d]));
        // Deterministic: identical inputs, identical plans.
        assert_eq!(order, variable_order(&q, &Cardinalities::none()));
    }

    #[test]
    fn smallest_relation_opens_and_chain_stays_connected() {
        let q = chain();
        let mut cards = Cardinalities::none();
        cards
            .set(sym("co_R"), 10_000)
            .set(sym("co_S"), 5_000)
            .set(sym("co_T"), 10);
        // T is smallest: its join variable c opens, then S's b; among the
        // leaves T's d before R's a. Each variable joins an earlier one.
        let [a, b, c, d] = vars(["co_A", "co_B", "co_C", "co_D"]);
        let order = variable_order(&q, &cards);
        assert_eq!(order, Schema::from([c, b, d, a]));
        let vs = order.vars();
        for k in 1..vs.len() {
            let prefix = Schema::new(vs[..k].iter().copied());
            assert!(
                q.atoms.iter().any(|at| at.schema.contains(vs[k])
                    && at.schema.intersect(&prefix).arity() > 0),
                "{:?} joins nothing before it in {order:?}",
                vs[k]
            );
        }
    }

    #[test]
    fn variable_order_puts_high_degree_first() {
        // Star: x occurs in all three atoms, the leaves once each.
        let [x, y, z, w] = vars(["co_SX", "co_SY", "co_SZ", "co_SW"]);
        let q = Query::new(
            "co_star",
            [x, y, z, w],
            vec![
                Atom::new(sym("co_SR"), [x, y]),
                Atom::new(sym("co_SS"), [x, z]),
                Atom::new(sym("co_ST"), [x, w]),
            ],
        );
        let vo = variable_order(&q, &Cardinalities::none());
        assert_eq!(vo.vars()[0], x);
        assert_eq!(vo, Schema::from([x, y, z, w]));
    }

    #[test]
    fn variable_order_ties_break_by_fanout_then_occurrence() {
        // Triangle: every variable has degree 2; with S tiny, its
        // variables (b, c) lead, ordered by first occurrence.
        let [a, b, c] = vars(["co_TA", "co_TB", "co_TC"]);
        let q = Query::new(
            "co_tri",
            [],
            vec![
                Atom::new(sym("co_TR"), [a, b]),
                Atom::new(sym("co_TS"), [b, c]),
                Atom::new(sym("co_TT"), [c, a]),
            ],
        );
        assert_eq!(
            variable_order(&q, &Cardinalities::none()),
            Schema::from([a, b, c])
        );
        let mut cards = Cardinalities::none();
        cards
            .set(sym("co_TR"), 1_000)
            .set(sym("co_TS"), 10)
            .set(sym("co_TT"), 1_000);
        assert_eq!(variable_order(&q, &cards), Schema::from([b, c, a]));
    }

    #[test]
    fn orders_cover_all_atoms_and_variables() {
        let q = chain();
        let vo = variable_order(&q, &Cardinalities::none());
        assert_eq!(vo.arity(), q.variables().arity());
        assert!(q.variables().subset_of(&vo));
    }

    #[test]
    fn multiway_cost_ranks_the_informed_order_first() {
        let q = chain();
        let mut cards = Cardinalities::none();
        cards
            .set(sym("co_R"), 500)
            .set(sym("co_S"), 20)
            .set(sym("co_T"), 1);
        let blind = multiway_cost(&q, &variable_order(&q, &Cardinalities::none()), &cards);
        let informed = multiway_cost(&q, &variable_order(&q, &cards), &cards);
        assert!(informed < blind, "{informed} vs {blind}");
    }
}
