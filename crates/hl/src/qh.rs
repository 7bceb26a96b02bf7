//! View plan 2 over the heavy-light [`Partition`]: the simplest
//! non-q-hierarchical query (Ex 5.1, Fig 7), generic over the key `K` and
//! the payload `R`:
//!
//! ```text
//! Q(A) = Σ_B R(A,B) · S(B)
//! ```
//!
//! Theorem 4.1 forbids simultaneously constant updates and delay here; the
//! trade-off space (Fig 7) is traced by ε ∈ [0, 1]:
//!
//! * preprocessing O(N), update O(N^ε), enumeration delay O(N^{1−ε});
//! * ε = 1 is the *eager* extreme (full materialization of Q);
//! * ε = 0 is the *lazy* extreme (store the inputs, join on demand);
//! * ε = ½ touches the OuMv lower-bound cuboid: weak Pareto optimality.
//!
//! The plan partitions `B`-values by their degree in `R`: the aggregate
//! `Q_L(a) = Σ_{b light} R(a,b)·S(b)` is materialized (so light updates
//! are cheap), while heavy `B`-values — at most N^{1−ε} of them — are
//! joined at enumeration time.

use crate::adjacency::Adj;
use crate::heavy_light::{bump, signed, Partition};
use ivm_data::FxHashMap;
use ivm_ring::Semiring;
use std::hash::Hash;

/// ε-parameterized maintenance for `Q(A) = Σ_B R(A,B)·S(B)`.
///
/// Migrations transfer `Q_L` contributions with sign, so `R` must have
/// additive inverses ([`Semiring::try_neg`]).
#[derive(Clone, Debug)]
pub struct QhEps<K, R> {
    part: Partition<K, 1>,
    /// `R(A,B)` stored as `b → a`, so the partitioned `B` column is the
    /// first.
    r: Adj<K, R>,
    /// `S(B)` payloads.
    s: FxHashMap<K, R>,
    /// Materialized `Q_L(a) = Σ_{b light} R(a,b)·S(b)`.
    q_light: FxHashMap<K, R>,
    work: u64,
}

impl<K: Clone + Eq + Hash, R: Semiring> QhEps<K, R> {
    /// Empty plan with the given ε ∈ [0, 1].
    pub fn new(eps: f64) -> Self {
        QhEps {
            part: Partition::new(eps),
            r: Adj::default(),
            s: FxHashMap::default(),
            q_light: FxHashMap::default(),
            work: 0,
        }
    }

    /// Cumulative inner-loop operations.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Number of heavy `B`-values (the per-tuple enumeration overhead).
    pub fn heavy_len(&self) -> usize {
        self.part.heavy(0).len()
    }

    /// Partition migrations performed.
    pub fn migrations(&self) -> u64 {
        self.part.migrations()
    }

    /// Whether `b` currently sits in the heavy partition.
    pub fn is_heavy_b(&self, b: &K) -> bool {
        self.part.is_heavy(0, b)
    }

    /// Degree of `b` in `R`'s B-column (the partitioning degree).
    pub fn deg_b(&self, b: &K) -> usize {
        self.r.deg_fwd(b)
    }

    /// Apply `δR(a, b) ↦ m`. O(N^ε) amortized.
    pub fn apply_r(&mut self, a: &K, b: &K, m: &R) {
        self.work += 1;
        if !self.part.is_heavy(0, b) {
            if let Some(sv) = self.s.get(b) {
                bump(&mut self.q_light, a.clone(), m.times(sv));
            }
        }
        let deg = self.r.apply(b, a, m);
        if let Some(to_heavy) = self.part.crossed(0, b, deg) {
            self.migrate(b, to_heavy);
        }
        self.maybe_rebalance();
    }

    /// Apply `δS(b) ↦ m`. O(N^ε) (iterates `b`'s ≤ 2θ partners when `b`
    /// is light; O(1) when heavy).
    pub fn apply_s(&mut self, b: &K, m: &R) {
        self.work += 1;
        if !self.part.is_heavy(0, b) {
            self.work += self.r.deg_fwd(b) as u64;
            for (a, rm) in self.r.row(b) {
                bump(&mut self.q_light, a.clone(), rm.times(m));
            }
        }
        bump(&mut self.s, b.clone(), m.clone());
        self.maybe_rebalance();
    }

    /// `Q(a)` for a single `A`-value: one lookup plus the heavy join,
    /// O(N^{1−ε}).
    pub fn lookup(&mut self, a: &K) -> R {
        let mut v = self.q_light.get(a).cloned().unwrap_or_else(R::zero);
        let heavy = self.part.heavy(0);
        self.work += 1 + heavy.len() as u64;
        for b in heavy {
            if let Some(sv) = self.s.get(b) {
                v.add_assign(&self.r.get(b, a).times(sv));
            }
        }
        v
    }

    /// Enumerate every non-zero `(a, Q(a))`, each at delay O(N^{1−ε}),
    /// into a map.
    pub fn output(&mut self) -> FxHashMap<K, R> {
        let keys: Vec<K> = self.r.keys_bwd().cloned().collect();
        let mut out = FxHashMap::default();
        for a in keys {
            let v = self.lookup(&a);
            if !v.is_zero() {
                out.insert(a, v);
            }
        }
        out
    }

    /// Move `b`'s contributions out of `Q_L` (to heavy) or back in.
    fn migrate(&mut self, b: &K, to_heavy: bool) {
        if let Some(sv) = self.s.get(b) {
            self.work += self.r.deg_fwd(b) as u64;
            for (a, rm) in self.r.row(b) {
                bump(&mut self.q_light, a.clone(), signed(rm.times(sv), to_heavy));
            }
        }
    }

    /// Rebuild `Q_L` from scratch after the partition rebalanced.
    fn maybe_rebalance(&mut self) {
        let n = self.r.len() + self.s.len();
        if !self.part.rebalance_if_drifted(n, [&self.r]) {
            return;
        }
        self.q_light.clear();
        for (b, sv) in &self.s {
            if self.part.is_heavy(0, b) {
                continue;
            }
            self.work += self.r.deg_fwd(b) as u64 + 1;
            for (a, rm) in self.r.row(b) {
                bump(&mut self.q_light, a.clone(), rm.times(sv));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Qh = QhEps<u64, i64>;

    #[test]
    fn basic_maintenance() {
        let mut eng = Qh::new(0.5);
        eng.apply_r(&1, &10, &1);
        eng.apply_r(&1, &11, &2);
        eng.apply_s(&10, &3);
        assert_eq!(eng.lookup(&1), 3);
        eng.apply_s(&11, &1);
        assert_eq!(eng.lookup(&1), 3 + 2);
        eng.apply_r(&1, &10, &-1);
        assert_eq!(eng.lookup(&1), 2);
    }

    /// ε endpoints behave as the paper's extremes: at ε=1 nothing is
    /// heavy (eager materialization), at ε=0 hubs go heavy immediately
    /// (lazy join at enumeration).
    #[test]
    fn eps_extremes_partition_differently() {
        let build = |eps: f64| {
            let mut eng = Qh::new(eps);
            for i in 0..200u64 {
                eng.apply_r(&i, &0, &1); // b=0 has degree 200
                eng.apply_s(&(i % 7), &1);
            }
            eng
        };
        let eager = build(1.0);
        assert_eq!(eager.heavy_len(), 0, "ε=1: θ=N, nothing is heavy");
        let lazy = build(0.0);
        assert!(lazy.heavy_len() > 0, "ε=0: θ=1, the hub is heavy");
    }

    /// Negative multiplicities and cancellations stay consistent (the
    /// output is a flat aggregate, not a factorized enumeration, so mixed
    /// signs are fine here).
    #[test]
    fn cancellation() {
        let mut eng = Qh::new(0.5);
        eng.apply_r(&1, &5, &1);
        eng.apply_s(&5, &1);
        assert_eq!(eng.lookup(&1), 1);
        eng.apply_s(&5, &-1);
        assert_eq!(eng.lookup(&1), 0);
        assert!(eng.output().is_empty());
    }

    /// Migrations fire when a B-value's degree crosses the threshold.
    #[test]
    fn migrations_fire() {
        let mut eng = Qh::new(0.3);
        eng.apply_s(&0, &1);
        for a in 0..300u64 {
            eng.apply_r(&a, &0, &1);
        }
        assert!(eng.migrations() > 0);
        // And the hub's contributions moved out of Q_L and back through
        // the heavy path consistently.
        assert_eq!(eng.lookup(&7), 1);
    }
}
