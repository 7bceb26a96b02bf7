//! Splitting consolidated batches into per-shard sub-batches.
//!
//! The [`Router`] applies a [`ShardPlan`] to concrete tuples: partitioned
//! relations route by the deterministic hash of their shard column
//! ([`ivm_data::shard_of`], seedless FxHash, so the same value lands on
//! the same shard across runs and machines), broadcast relations fan out
//! to every shard, and the degenerate plan sends everything to shard 0.
//!
//! Routing happens on *consolidated* batches (a [`CheckedBatch`]'s
//! delta): updates whose net effect cancels disappear before anything is
//! cloned or shipped across a channel, and each shard's part stays
//! checked, so no worker checks it again.

use crate::planner::{RelationRoute, ShardPlan};
use ivm_core::CheckedBatch;
use ivm_data::{shard_of_column, Tuple};
use ivm_ring::Semiring;

/// Counters of the routing layer, complementing the per-shard
/// [`DataflowStats`](ivm_dataflow::DataflowStats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Batches split.
    pub batches: u64,
    /// Consolidated entries examined.
    pub entries: u64,
    /// Entries routed to exactly one shard.
    pub routed: u64,
    /// Entry *copies* produced by broadcasting (an entry broadcast to `n`
    /// shards counts `n`; replication cost is visible, not hidden).
    pub broadcast_copies: u64,
}

/// A stateless-per-batch splitter: plan + shard count + counters.
#[derive(Clone, Debug)]
pub struct Router {
    plan: ShardPlan,
    shards: usize,
    stats: RouterStats,
}

impl Router {
    /// A router over `shards` shards following `plan`.
    pub fn new(plan: ShardPlan, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        Router {
            plan,
            shards,
            stats: RouterStats::default(),
        }
    }

    /// The plan this router follows.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Routing counters so far.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// The shard for one `(relation, tuple)` entry: `Some(s)` for a
    /// partitioned (or degenerate) destination, `None` for broadcast.
    ///
    /// # Panics
    /// Panics if a non-degenerate plan does not know `relation` — the
    /// engine validates updates against the query's relations first, so
    /// an unknown relation here is an internal invariant violation.
    pub fn shard_for(&self, relation: ivm_data::Sym, tuple: &Tuple) -> Option<usize> {
        route_entry(&self.plan, self.shards, relation, tuple)
    }

    /// Split a checked batch into one checked part per shard.
    pub fn split<R: Semiring>(
        &mut self,
        batch: &CheckedBatch<'_, R>,
    ) -> Vec<CheckedBatch<'static, R>> {
        self.stats.batches += 1;
        let stats = &mut self.stats;
        let shards = self.shards;
        let plan = &self.plan;
        batch.split(shards, |rel, t| {
            stats.entries += 1;
            let dest = route_entry(plan, shards, rel, t);
            match dest {
                Some(_) => stats.routed += 1,
                None => stats.broadcast_copies += shards as u64,
            }
            dest
        })
    }
}

/// The destination of one `(relation, tuple)` entry under `plan`.
fn route_entry(
    plan: &ShardPlan,
    shards: usize,
    relation: ivm_data::Sym,
    tuple: &Tuple,
) -> Option<usize> {
    if plan.is_degenerate() {
        return Some(0);
    }
    match plan
        .route(relation)
        .expect("router saw a relation the shard plan does not know")
    {
        RelationRoute::Partition { column } => Some(shard_of_column(tuple, column, shards)),
        RelationRoute::Broadcast => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::ShardPlanner;
    use ivm_data::{sym, tup, Update};
    use ivm_dataflow::Cardinalities;

    fn triangle_router(shards: usize) -> (Router, [ivm_data::Sym; 3]) {
        let q = ivm_query::examples::triangle_count();
        let names = [q.atoms[0].name, q.atoms[1].name, q.atoms[2].name];
        let plan = ShardPlanner::plan(&q, &Cardinalities::none());
        (Router::new(plan, shards), names)
    }

    /// `ups`, checked against `q`.
    fn checked<'a>(q: &ivm_query::Query, ups: &'a [Update<i64>]) -> CheckedBatch<'a, i64> {
        CheckedBatch::new(&q.atoms, ups).unwrap()
    }

    #[test]
    fn partitioned_entries_go_to_one_shard_broadcast_to_all() {
        let (mut router, [r, s, t]) = triangle_router(4);
        let ups: Vec<Update<i64>> = vec![
            Update::insert(r, tup![1i64, 2i64]),
            Update::insert(s, tup![2i64, 3i64]), // broadcast under the a-plan
            Update::insert(t, tup![3i64, 1i64]),
        ];
        let parts = router.split(&checked(&ivm_query::examples::triangle_count(), &ups));
        assert_eq!(parts.len(), 4);
        let holds = |i: usize, rel| parts[i].delta().iter().any(|e| e.0 == rel);
        // R(1,2) on exactly one shard; S(2,3) on all four.
        let holding_r: Vec<usize> = (0..4).filter(|&i| holds(i, r)).collect();
        assert_eq!(holding_r.len(), 1);
        assert!((0..4).all(|i| holds(i, s)));
        // R shards by a (col 0), T by a (col 1): the tuples above share
        // a = 1, so R(1,2) and T(3,1) land on the same shard — the
        // invariant that keeps each derivation on one shard.
        let holding_t: Vec<usize> = (0..4).filter(|&i| holds(i, t)).collect();
        assert_eq!(holding_r, holding_t);

        let st = router.stats();
        assert_eq!(st.batches, 1);
        assert_eq!(st.entries, 3);
        assert_eq!(st.routed, 2);
        assert_eq!(st.broadcast_copies, 4);
    }

    #[test]
    fn routing_is_stable_across_shard_counts_for_same_value() {
        let (router2, [r, _, _]) = triangle_router(2);
        let (router4, _) = triangle_router(4);
        // Same tuple, same deterministic hash; only the modulus differs.
        let t = tup![42i64, 7i64];
        let s2 = router2.shard_for(r, &t).unwrap();
        let s4 = router4.shard_for(r, &t).unwrap();
        assert!(s2 < 2 && s4 < 4);
        assert_eq!(s2, router2.shard_for(r, &t).unwrap());
        assert_eq!(s4, router4.shard_for(r, &t).unwrap());
    }

    #[test]
    fn degenerate_plan_routes_everything_to_shard_zero() {
        let [a, b, c] = ivm_data::vars(["shr_A", "shr_B", "shr_C"]);
        let e = sym("shr_E");
        let q = ivm_query::Query::new(
            "shr_tri",
            [],
            vec![
                ivm_query::Atom::new(e, [a, b]),
                ivm_query::Atom::new(e, [b, c]),
                ivm_query::Atom::new(e, [c, a]),
            ],
        );
        let plan = ShardPlanner::plan(&q, &Cardinalities::none());
        let mut router = Router::new(plan, 4);
        let ups: Vec<Update<i64>> = (0..8i64)
            .map(|i| Update::insert(e, tup![i, i + 1]))
            .collect();
        let parts = router.split(&checked(&q, &ups));
        assert_eq!(parts[0].len(), 8);
        assert!(parts[1..].iter().all(|p| p.is_empty()));
    }
}
