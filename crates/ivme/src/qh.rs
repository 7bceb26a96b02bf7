//! IVMε for the simplest non-q-hierarchical query (Ex 5.1, Fig 7):
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
//! The engine partitions `B`-values by their degree in `R`: the aggregate
//! `Q_L(a) = Σ_{b light} R(a,b)·S(b)` is materialized (so light updates
//! are cheap), while heavy `B`-values — at most N^{1−ε} of them — are
//! joined at enumeration time.

use ivm_data::{FxHashMap, FxHashSet};
use ivm_hl::{bump, Adj};

/// ε-parameterized maintenance for `Q(A) = Σ_B R(A,B)·S(B)`.
#[derive(Clone, Debug)]
pub struct QhEpsEngine {
    eps: f64,
    /// `R(A,B)`: fwd a→b, bwd b→a.
    r: Adj<u64, i64>,
    /// `S(B)` payloads.
    s: FxHashMap<u64, i64>,
    /// Heavy `B`-values (degree in `R`'s B-column ≥ ~θ, with hysteresis).
    heavy_b: FxHashSet<u64>,
    /// Materialized `Q_L(a) = Σ_{b light} R(a,b)·S(b)`.
    q_light: FxHashMap<u64, i64>,
    threshold: usize,
    base_n: usize,
    work: u64,
    migrations: u64,
    rebalances: u64,
}

impl QhEpsEngine {
    /// Empty engine with the given ε ∈ [0, 1].
    pub fn new(eps: f64) -> Self {
        assert!((0.0..=1.0).contains(&eps), "ε must be in [0,1]");
        QhEpsEngine {
            eps,
            r: Adj::default(),
            s: FxHashMap::default(),
            heavy_b: FxHashSet::default(),
            q_light: FxHashMap::default(),
            threshold: 1,
            base_n: 4,
            work: 0,
            migrations: 0,
            rebalances: 0,
        }
    }

    /// Cumulative inner-loop operations.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Number of heavy `B`-values (the per-tuple enumeration overhead).
    pub fn heavy_len(&self) -> usize {
        self.heavy_b.len()
    }

    /// Current θ.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Partition migrations performed.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Whether `b` currently sits in the heavy partition.
    pub fn is_heavy_b(&self, b: u64) -> bool {
        self.heavy_b.contains(&b)
    }

    /// Degree of `b` in `R`'s B-column (the partitioning degree).
    pub fn deg_b(&self, b: u64) -> usize {
        self.r.deg_bwd(&b)
    }

    /// Apply `δR(a, b) ↦ m`. O(N^ε) amortized.
    pub fn apply_r(&mut self, a: u64, b: u64, m: i64) {
        self.work += 1;
        if !self.heavy_b.contains(&b) {
            let sv = self.s.get(&b).copied().unwrap_or(0);
            if sv != 0 {
                bump(&mut self.q_light, a, m * sv);
            }
        }
        self.r.apply(&a, &b, &m);
        let deg = self.r.deg_bwd(&b);
        if !self.heavy_b.contains(&b) && deg >= 2 * self.threshold {
            self.migrate(b, true);
        } else if self.heavy_b.contains(&b) && deg <= self.threshold {
            self.migrate(b, false);
        }
        self.maybe_rebalance();
    }

    /// Apply `δS(b) ↦ m`. O(N^ε) (iterates `b`'s ≤ 2θ partners when `b`
    /// is light; O(1) when heavy).
    pub fn apply_s(&mut self, b: u64, m: i64) {
        self.work += 1;
        if !self.heavy_b.contains(&b) {
            self.work += self.r.deg_bwd(&b) as u64;
            for (&a, rm) in self.r.col(&b) {
                bump(&mut self.q_light, a, rm * m);
            }
        }
        bump(&mut self.s, b, m);
        self.maybe_rebalance();
    }

    /// `Q(a)` for a single `A`-value: one lookup plus the heavy join,
    /// O(N^{1−ε}).
    pub fn lookup(&mut self, a: u64) -> i64 {
        let mut v = self.q_light.get(&a).copied().unwrap_or(0);
        self.work += 1 + self.heavy_b.len() as u64;
        for &b in &self.heavy_b {
            let rm = self.r.get(&a, &b);
            if rm != 0 {
                v += rm * self.s.get(&b).copied().unwrap_or(0);
            }
        }
        v
    }

    /// Enumerate `(a, Q(a))` for all non-zero groups; per-tuple delay
    /// O(N^{1−ε}).
    pub fn enumerate(&mut self, f: &mut dyn FnMut(u64, i64)) {
        let keys: Vec<u64> = self.r.keys_fwd().copied().collect();
        for a in keys {
            let v = self.lookup(a);
            if v != 0 {
                f(a, v);
            }
        }
    }

    /// Materialize the output (test helper).
    pub fn output(&mut self) -> FxHashMap<u64, i64> {
        let mut out = FxHashMap::default();
        self.enumerate(&mut |a, v| {
            out.insert(a, v);
        });
        out
    }

    fn migrate(&mut self, b: u64, to_heavy: bool) {
        self.migrations += 1;
        let sv = self.s.get(&b).copied().unwrap_or(0);
        let sign = if to_heavy { -1 } else { 1 };
        if to_heavy {
            self.heavy_b.insert(b);
        } else {
            self.heavy_b.remove(&b);
        }
        if sv != 0 {
            self.work += self.r.deg_bwd(&b) as u64;
            for (&a, rm) in self.r.col(&b) {
                bump(&mut self.q_light, a, sign * rm * sv);
            }
        }
    }

    fn maybe_rebalance(&mut self) {
        let n = self.r.len() + self.s.len();
        if n > 2 * self.base_n || (n >= 8 && n * 2 < self.base_n) {
            self.rebalances += 1;
            self.base_n = n.max(4);
            self.threshold = (n.max(1) as f64).powf(self.eps).ceil().max(1.0) as usize;
            let promote = (3 * self.threshold).div_ceil(2);
            // Repartition and rebuild Q_L from scratch: O(N) amortized
            // over the ≥ N/2 updates since the last rebalance.
            // Only B-values present in R have a degree to be heavy with.
            let r = &self.r;
            self.heavy_b = r
                .iter()
                .map(|(_, &b, _)| b)
                .filter(|b| r.deg_bwd(b) >= promote)
                .collect();
            self.q_light.clear();
            for (&b, sv) in &self.s {
                if self.heavy_b.contains(&b) {
                    continue;
                }
                self.work += self.r.deg_bwd(&b) as u64 + 1;
                for (&a, rm) in self.r.col(&b) {
                    bump(&mut self.q_light, a, rm * sv);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn oracle(r: &[(u64, u64, i64)], s: &[(u64, i64)]) -> FxHashMap<u64, i64> {
        let mut sm: FxHashMap<u64, i64> = FxHashMap::default();
        for &(b, m) in s {
            *sm.entry(b).or_insert(0) += m;
        }
        let mut out: FxHashMap<u64, i64> = FxHashMap::default();
        for &(a, b, m) in r {
            let sv = sm.get(&b).copied().unwrap_or(0);
            if sv != 0 {
                *out.entry(a).or_insert(0) += m * sv;
            }
        }
        out.retain(|_, v| *v != 0);
        out
    }

    #[test]
    fn basic_maintenance() {
        let mut eng = QhEpsEngine::new(0.5);
        eng.apply_r(1, 10, 1);
        eng.apply_r(1, 11, 2);
        eng.apply_s(10, 3);
        assert_eq!(eng.lookup(1), 3);
        eng.apply_s(11, 1);
        assert_eq!(eng.lookup(1), 3 + 2);
        eng.apply_r(1, 10, -1);
        assert_eq!(eng.lookup(1), 2);
    }

    /// Every ε agrees with the oracle under skewed random streams.
    #[test]
    fn all_eps_agree_with_oracle() {
        for &eps in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            let mut rng = StdRng::seed_from_u64(77);
            let mut eng = QhEpsEngine::new(eps);
            let mut r_log = Vec::new();
            let mut s_log = Vec::new();
            for step in 0..400 {
                if rng.gen_bool(0.6) {
                    // Skew: b=0 is a hub.
                    let a = rng.gen_range(0..20u64);
                    let b = if rng.gen_bool(0.5) {
                        0
                    } else {
                        rng.gen_range(0..10u64)
                    };
                    let m: i64 = if rng.gen_bool(0.3) { -1 } else { 1 };
                    eng.apply_r(a, b, m);
                    r_log.push((a, b, m));
                } else {
                    let b = rng.gen_range(0..10u64);
                    let m: i64 = if rng.gen_bool(0.3) { -1 } else { 1 };
                    eng.apply_s(b, m);
                    s_log.push((b, m));
                }
                if step % 80 == 0 || step == 399 {
                    let expect = oracle(&r_log, &s_log);
                    let got = eng.output();
                    assert_eq!(got, expect, "eps={eps} step={step}");
                }
            }
        }
    }

    /// ε endpoints behave as the paper's extremes: at ε=1 nothing is
    /// heavy (eager materialization), at ε=0 hubs go heavy immediately
    /// (lazy join at enumeration).
    #[test]
    fn eps_extremes_partition_differently() {
        let build = |eps: f64| {
            let mut eng = QhEpsEngine::new(eps);
            for i in 0..200u64 {
                eng.apply_r(i, 0, 1); // b=0 has degree 200
                eng.apply_s(i % 7, 1);
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
        let mut eng = QhEpsEngine::new(0.5);
        eng.apply_r(1, 5, 1);
        eng.apply_s(5, 1);
        assert_eq!(eng.lookup(1), 1);
        eng.apply_s(5, -1);
        assert_eq!(eng.lookup(1), 0);
        assert!(eng.output().is_empty());
    }

    /// Degrees ∝ 1/i over K = n/16 keys, normalized so the total is ≈ n:
    /// key `b_i` gets ~C/i distinct A-partners with C = n/H_K. There are
    /// then ≈ C/x keys of degree ≥ x, so both worst-case axes of Fig 7 are
    /// realized at once: ~N^{1−ε} heavy keys and a light maximum of ~2θ.
    fn degree_ladder(n: usize) -> Vec<(u64, usize)> {
        let k = n / 16;
        let h: f64 = (1..=k).map(|i| 1.0 / i as f64).sum();
        let c = n as f64 / h;
        let mut out = Vec::with_capacity(k);
        let mut total = 0usize;
        for i in 1..=k {
            if total >= n {
                break;
            }
            let d = ((c / i as f64).round() as usize).clamp(1, n - total);
            out.push((i as u64, d));
            total += d;
        }
        out
    }

    /// `(update work, delay work)` at size `n`: the work of one `δS` on
    /// the heaviest light key (it touches that key's ≤ 2θ partners), and
    /// the maximum work of `lookup(a)` over every A-key (it joins the
    /// heavy keys), not the mean.
    fn fig7_point(n: usize, eps: f64) -> (u64, u64) {
        let ladder = degree_ladder(n);
        let mut eng = QhEpsEngine::new(eps);
        for &(b, d) in &ladder {
            for a in 0..d as u64 {
                eng.apply_r(a, b, 1);
            }
            eng.apply_s(b, 1);
        }
        let worst_light = ladder
            .iter()
            .map(|&(b, _)| b)
            .filter(|&b| !eng.is_heavy_b(b))
            .max_by_key(|&b| eng.deg_b(b))
            .unwrap_or(1);
        let w0 = eng.work();
        eng.apply_s(worst_light, 1);
        let update = eng.work() - w0;
        let delay = (0..ladder[0].1 as u64)
            .map(|a| {
                let w = eng.work();
                eng.lookup(a);
                eng.work() - w
            })
            .max()
            .unwrap();
        (update, delay)
    }

    /// Fig 7 / Ex 5.1: IVMε realizes update O(N^ε) against delay
    /// O(N^{1−ε}). On the 1/i degree profile at N1 = 4 000 and
    /// N2 = 32 000, the update exponent must rise with ε and the delay
    /// exponent fall, and ε = ½ must balance both within [0.3, 0.7]. The
    /// work columns are pinned exactly.
    #[test]
    fn fig7_update_delay_tradeoff_on_work_counters() {
        const EPS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
        let (n1, n2) = (4_000, 32_000);
        let points: Vec<[(u64, u64); 2]> = EPS
            .iter()
            .map(|&eps| [fig7_point(n1, eps), fig7_point(n2, eps)])
            .collect();
        let exponent =
            |v1: u64, v2: u64| (v2 as f64 / v1 as f64).ln() / (n2 as f64 / n1 as f64).ln();
        let upd: Vec<f64> = points.iter().map(|p| exponent(p[0].0, p[1].0)).collect();
        let delay: Vec<f64> = points.iter().map(|p| exponent(p[0].1, p[1].1)).collect();
        assert!(
            upd.windows(2).all(|w| w[0] <= w[1]),
            "update exponents {upd:?}"
        );
        assert!(
            delay.windows(2).all(|w| w[0] >= w[1]),
            "delay exponents {delay:?}"
        );
        assert!(
            (0.3..=0.7).contains(&upd[2]),
            "update exponent at ε = ½: {}",
            upd[2]
        );
        assert!(
            (0.3..=0.7).contains(&delay[2]),
            "delay exponent at ε = ½: {}",
            delay[2]
        );
        assert_eq!(
            points,
            [
                [(1, 249), (1, 2001)],
                [(16, 43), (24, 167)],
                [(74, 9), (207, 19)],
                [(329, 2), (1957, 2)],
                [(657, 1), (3914, 1)],
            ]
        );
    }

    /// Migrations fire when a B-value's degree crosses the threshold.
    #[test]
    fn migrations_fire() {
        let mut eng = QhEpsEngine::new(0.3);
        eng.apply_s(0, 1);
        for a in 0..300u64 {
            eng.apply_r(a, 0, 1);
        }
        assert!(eng.migrations() > 0);
        // And the hub's contributions moved out of Q_L and back through
        // the heavy path consistently.
        assert_eq!(eng.lookup(7), 1);
    }
}
