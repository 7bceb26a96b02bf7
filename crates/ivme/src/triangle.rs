//! Dynamic triangle counting (Sec. 3 of the paper).
//!
//! The triangle count `Q = Σ_{A,B,C} R(A,B)·S(B,C)·T(C,A)` is the paper's
//! running example. Four maintainers, mirroring Sec. 3.1–3.3:
//!
//! | maintainer | update time | space | paper |
//! |---|---|---|---|
//! | [`TriangleRecount`] | O(N^{3/2}) | O(N) | recompute (Sec. 3.1) |
//! | [`TriangleDelta`] | O(N) | O(N) | first-order deltas (Sec. 3.1) |
//! | [`TrianglePairwiseMv`] | O(N) | O(N²) | materialized views (Sec. 3.2) |
//! | [`TriangleIvmEps`] | O(N^max(ε,1−ε)) amortized | O(N^{1+min(ε,1−ε)}) | IVMε (Sec. 3.3) |
//!
//! With ε = ½, IVMε meets the OuMv-conditional lower bound of Theorem 3.4:
//! no algorithm has both O(N^{1/2−γ}) updates and O(N^{1−γ}) delay.
//!
//! All maintainers share the rotation symmetry of the query: relation `i`
//! maps variable `i` to variable `i+1 (mod 3)` — `R: A→B`, `S: B→C`,
//! `T: C→A` — and every formula below is written once for the rotated
//! index `i`.

use ivm_data::FxHashMap;
use ivm_hl::{bump, Adj, HeavyLight};

/// The three relations of the triangle query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rel {
    /// `R(A, B)`
    R,
    /// `S(B, C)`
    S,
    /// `T(C, A)`
    T,
}

impl Rel {
    /// Rotation index: R→0, S→1, T→2.
    pub fn index(self) -> usize {
        match self {
            Rel::R => 0,
            Rel::S => 1,
            Rel::T => 2,
        }
    }

    /// All three, in rotation order.
    pub const ALL: [Rel; 3] = [Rel::R, Rel::S, Rel::T];
}

/// Common interface of the four triangle maintainers.
pub trait TriangleMaintainer {
    /// Apply a single-tuple update with multiplicity `m`.
    fn apply(&mut self, rel: Rel, x: u64, y: u64, m: i64);

    /// The maintained triangle count (with multiplicities).
    fn count(&self) -> i64;

    /// Boolean triangle detection `Qb` (Sec. 3.4).
    fn detect(&self) -> bool {
        self.count() > 0
    }

    /// Cumulative inner-loop operations — a machine-independent cost
    /// measure used by the scaling experiments.
    fn work(&self) -> u64;

    /// Display name for benchmark tables.
    fn name(&self) -> &'static str;
}

/// Shared storage of the baselines: the three adjacency-indexed
/// relations.
#[derive(Clone, Debug, Default)]
struct Base {
    rel: [Adj<u64, i64>; 3],
    work: u64,
}

impl Base {
    /// `Σ_v rel[i+1](y, v) · rel[i+2](v, x)` by iterating the smaller
    /// side of the intersection — the delta query of Ex 3.1.
    fn intersect_count(&mut self, i: usize, x: u64, y: u64) -> i64 {
        let (j, k) = ((i + 1) % 3, (i + 2) % 3);
        let via_j = self.rel[j].deg_fwd(&y);
        let via_k = self.rel[k].deg_bwd(&x);
        self.work += via_j.min(via_k) as u64 + 1;
        if via_j <= via_k {
            self.rel[j]
                .row(&y)
                .map(|(v, m1)| m1 * self.rel[k].get(v, &x))
                .sum()
        } else {
            self.rel[k]
                .col(&x)
                .map(|(v, m2)| self.rel[j].get(&y, v) * m2)
                .sum()
        }
    }

    /// Full recount: `Σ_{(a,b)∈R} R(a,b) · Σ_c S(b,c)·T(c,a)`.
    fn recount(&mut self) -> i64 {
        let tuples: Vec<(u64, u64, i64)> =
            self.rel[0].iter().map(|(&a, &b, &m)| (a, b, m)).collect();
        let mut total = 0i64;
        for (a, b, m) in tuples {
            total += m * self.intersect_count(0, a, b);
        }
        total
    }
}

/// Baseline: recompute the count from scratch after every update.
#[derive(Clone, Debug, Default)]
pub struct TriangleRecount {
    base: Base,
    count: i64,
}

impl TriangleRecount {
    /// Empty maintainer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TriangleMaintainer for TriangleRecount {
    fn apply(&mut self, rel: Rel, x: u64, y: u64, m: i64) {
        self.base.rel[rel.index()].apply(&x, &y, &m);
        self.count = self.base.recount();
    }

    fn count(&self) -> i64 {
        self.count
    }

    fn work(&self) -> u64 {
        self.base.work
    }

    fn name(&self) -> &'static str {
        "recount"
    }
}

/// First-order deltas (Sec. 3.1): O(N) per single-tuple update, no extra
/// storage.
#[derive(Clone, Debug, Default)]
pub struct TriangleDelta {
    base: Base,
    count: i64,
}

impl TriangleDelta {
    /// Empty maintainer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TriangleMaintainer for TriangleDelta {
    fn apply(&mut self, rel: Rel, x: u64, y: u64, m: i64) {
        let i = rel.index();
        // δQ = δrel(x,y) · Σ_v rel[i+1](y,v)·rel[i+2](v,x); the other two
        // relations are unchanged by this update.
        self.count += m * self.base.intersect_count(i, x, y);
        self.base.rel[i].apply(&x, &y, &m);
    }

    fn count(&self) -> i64 {
        self.count
    }

    fn work(&self) -> u64 {
        self.base.work
    }

    fn name(&self) -> &'static str {
        "delta"
    }
}

/// Higher-order maintenance with all three pairwise views (Sec. 3.2):
/// count deltas are O(1) lookups, but each view costs O(N) to maintain and
/// O(N²) to store.
#[derive(Clone, Debug, Default)]
pub struct TrianglePairwiseMv {
    base: Base,
    /// `view[i][(u, w)] = Σ_v rel[i+1](u,v) · rel[i+2](v,w)`; the count
    /// delta for `δrel[i](x,y)` is `view[i][(y, x)]`.
    view: [FxHashMap<(u64, u64), i64>; 3],
    count: i64,
}

impl TrianglePairwiseMv {
    /// Empty maintainer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total entries across the three views (the O(N²) space term).
    pub fn view_size(&self) -> usize {
        self.view.iter().map(|v| v.len()).sum()
    }
}

impl TriangleMaintainer for TrianglePairwiseMv {
    fn apply(&mut self, rel: Rel, x: u64, y: u64, m: i64) {
        let i = rel.index();
        let (j, k) = ((i + 1) % 3, (i + 2) % 3);
        let base = &mut self.base;
        // O(1) count delta through the view over the other two relations.
        self.count += m * self.view[i].get(&(y, x)).copied().unwrap_or(0);
        // Maintain the two views that mention rel[i]:
        // view[j] = Σ rel[j+1]·rel[j+2] = Σ rel[k]·rel[i]: key (u, w) with
        // rel[i] contributing at v = x, w = y:
        //   view[j][(u, y)] += rel[k](u, x) · m  for all u.
        base.work += base.rel[k].deg_bwd(&x) as u64 + 1;
        for (&u, mk) in base.rel[k].col(&x) {
            bump(&mut self.view[j], (u, y), mk * m);
        }
        // view[k] = Σ rel[i]·rel[j]: key (u=x, w) with
        //   view[k][(x, w)] += m · rel[j](y, w)  for all w.
        base.work += base.rel[j].deg_fwd(&y) as u64 + 1;
        for (&w, mj) in base.rel[j].row(&y) {
            bump(&mut self.view[k], (x, w), m * mj);
        }
        base.rel[i].apply(&x, &y, &m);
    }

    fn count(&self) -> i64 {
        self.count
    }

    fn work(&self) -> u64 {
        self.base.work
    }

    fn name(&self) -> &'static str {
        "pairwise-mv"
    }
}

/// IVMε (Sec. 3.3): heavy/light partitioned maintenance with amortized
/// O(N^max(ε,1−ε)) single-tuple updates — O(√N) at the optimal ε = ½.
///
/// This is the [`HeavyLight`] core at `u64` keys and `i64`
/// multiplicities, addressed by [`Rel`]: relation `i` is partitioned on
/// its first column (heavy at degree 2θ, light again at θ), θ = ⌈N^ε⌉ is
/// recomputed — and the `H⋈L` views rebuilt — whenever the database size
/// drifts by 2×, and the count delta for `δrel[i](x, y)` either scans the
/// ≤ 2θ partners of a light `y` or, for a heavy `y`, loops the ≤ N/θ
/// heavy `rel[i+2]`-values and looks up the materialized view
/// `Σ rel[i+1]_H · rel[i+2]_L`.
///
/// ε = 1 is the unpartitioned ablation: θ then exceeds every degree after
/// the first rebalance, so nothing is heavy and every delta scans a row.
#[derive(Clone, Debug)]
pub struct TriangleIvmEps(HeavyLight<u64, i64>);

impl TriangleIvmEps {
    /// Empty maintainer with the given ε ∈ [0, 1].
    pub fn new(eps: f64) -> Self {
        TriangleIvmEps(HeavyLight::new(eps))
    }

    /// The current heavy/light threshold θ.
    pub fn threshold(&self) -> usize {
        self.0.threshold()
    }

    /// Partition migrations performed.
    pub fn migrations(&self) -> u64 {
        self.0.stats().migrations
    }

    /// Global rebalances performed.
    pub fn rebalances(&self) -> u64 {
        self.0.stats().rebalances
    }

    /// Heavy-key counts per relation.
    pub fn heavy_counts(&self) -> [usize; 3] {
        self.0.heavy_counts()
    }

    /// Total view entries (space accounting).
    pub fn view_size(&self) -> usize {
        self.0.view_entries()
    }

    /// See [`HeavyLight::check_partition`]. For tests.
    pub fn check_partition(&self) -> Result<(), String> {
        self.0.check_partition()
    }

    /// See [`HeavyLight::check_views`]. For tests.
    pub fn check_views(&self) -> Result<(), String> {
        self.0.check_views()
    }
}

impl TriangleMaintainer for TriangleIvmEps {
    fn apply(&mut self, rel: Rel, x: u64, y: u64, m: i64) {
        self.0.apply(rel.index(), &x, &y, &m);
    }

    fn count(&self) -> i64 {
        *self.0.count()
    }

    fn work(&self) -> u64 {
        self.0.stats().work
    }

    fn name(&self) -> &'static str {
        "ivm-eps"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force oracle over explicit tuple lists.
    fn oracle(tuples: &[(Rel, u64, u64, i64)]) -> i64 {
        let mut rel: [Adj<u64, i64>; 3] = Default::default();
        for &(r, x, y, m) in tuples {
            rel[r.index()].apply(&x, &y, &m);
        }
        let mut total = 0i64;
        for (a, b, m0) in rel[0].iter() {
            for (c, m1) in rel[1].row(b) {
                total += m0 * m1 * rel[2].get(c, a);
            }
        }
        total
    }

    /// Fig 2 of the paper: count 19, then δR = {(a2,b1) ↦ −2} gives 13.
    #[test]
    fn paper_fig2_example() {
        // a1=1, a2=2, b1=1, c1=1, c2=2.
        let setup: Vec<(Rel, u64, u64, i64)> = vec![
            (Rel::R, 1, 1, 2),
            (Rel::R, 2, 1, 3),
            (Rel::S, 1, 1, 2),
            (Rel::S, 1, 2, 1),
            (Rel::T, 1, 1, 1),
            (Rel::T, 2, 1, 3),
            (Rel::T, 2, 2, 3),
        ];
        for mk in [0usize, 1, 2, 3] {
            let mut eng: Box<dyn TriangleMaintainer> = match mk {
                0 => Box::new(TriangleRecount::new()),
                1 => Box::new(TriangleDelta::new()),
                2 => Box::new(TrianglePairwiseMv::new()),
                _ => Box::new(TriangleIvmEps::new(0.5)),
            };
            for &(r, x, y, m) in &setup {
                eng.apply(r, x, y, m);
            }
            assert_eq!(eng.count(), 19, "{} setup", eng.name());
            eng.apply(Rel::R, 2, 1, -2);
            assert_eq!(eng.count(), 13, "{} after delete", eng.name());
            assert!(eng.detect());
        }
    }

    /// All four maintainers agree with the brute-force oracle on random
    /// insert/delete streams (including heavy skew to exercise
    /// migrations).
    #[test]
    fn maintainers_agree_with_oracle() {
        let mut rng = StdRng::seed_from_u64(2024);
        for round in 0..6 {
            let mut recount = TriangleRecount::new();
            let mut delta = TriangleDelta::new();
            let mut mv = TrianglePairwiseMv::new();
            let grid = [0.0, 0.3, 0.5, 0.8, 1.0];
            let mut eps_engines = grid.map(TriangleIvmEps::new);
            let mut log: Vec<(Rel, u64, u64, i64)> = Vec::new();
            // Skewed: node 0 participates in most edges.
            for step in 0..250 {
                let rel = Rel::ALL[rng.gen_range(0..3usize)];
                let hub = rng.gen_bool(0.4);
                let x = if hub { 0 } else { rng.gen_range(0..8u64) };
                let y = rng.gen_range(0..8u64);
                let m: i64 = if rng.gen_bool(0.3) { -1 } else { 1 };
                log.push((rel, x, y, m));
                recount.apply(rel, x, y, m);
                delta.apply(rel, x, y, m);
                mv.apply(rel, x, y, m);
                for e in &mut eps_engines {
                    e.apply(rel, x, y, m);
                }
                if step % 50 == 0 || step == 249 {
                    let expect = oracle(&log);
                    assert_eq!(recount.count(), expect, "recount r{round} s{step}");
                    assert_eq!(delta.count(), expect, "delta r{round} s{step}");
                    assert_eq!(mv.count(), expect, "mv r{round} s{step}");
                    for (e, eps) in eps_engines.iter().zip(grid) {
                        assert_eq!(
                            e.count(),
                            expect,
                            "ivm-eps({eps}) r{round} s{step} (θ={}, heavy={:?})",
                            e.threshold(),
                            e.heavy_counts()
                        );
                        e.check_partition().unwrap();
                        e.check_views().unwrap();
                    }
                }
            }
        }
    }

    /// Migrations and rebalances actually happen under skew and growth.
    #[test]
    fn rebalancing_kicks_in() {
        let mut eng = TriangleIvmEps::new(0.5);
        for i in 0..400u64 {
            eng.apply(Rel::R, 0, i, 1); // node 0 becomes very heavy in R
            eng.apply(Rel::S, i, i + 1, 1);
            eng.apply(Rel::T, i + 1, 0, 1);
        }
        assert!(eng.rebalances() > 0, "size grew 300×: must rebalance");
        assert!(eng.migrations() > 0 || eng.heavy_counts()[0] > 0);
        assert_eq!(eng.heavy_counts()[0], 1, "exactly the hub is heavy in R");
        eng.check_partition().unwrap();
        eng.check_views().unwrap();
        // Count correct: R(0,i)·S(i,i+1)·T(i+1,0) forms one triangle per i.
        assert_eq!(eng.count(), 400);
    }

    /// ε = 1 is the unpartitioned ablation: after its first rebalance
    /// nothing is heavy and no view entry exists, and it still counts
    /// correctly.
    #[test]
    fn eps_one_is_the_unpartitioned_ablation() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut eng = TriangleIvmEps::new(1.0);
        let mut log = Vec::new();
        for _ in 0..200 {
            let rel = Rel::ALL[rng.gen_range(0..3usize)];
            let x = rng.gen_range(0..6u64);
            let y = rng.gen_range(0..6u64);
            let m: i64 = if rng.gen_bool(0.25) { -1 } else { 1 };
            log.push((rel, x, y, m));
            eng.apply(rel, x, y, m);
            if eng.rebalances() > 0 {
                assert_eq!((eng.heavy_counts(), eng.view_size()), ([0; 3], 0));
            }
        }
        assert!(eng.rebalances() > 0);
        assert_eq!(eng.count(), oracle(&log));
    }

    /// Detection matches count positivity.
    #[test]
    fn detection() {
        let mut eng = TriangleIvmEps::new(0.5);
        assert!(!eng.detect());
        eng.apply(Rel::R, 1, 2, 1);
        eng.apply(Rel::S, 2, 3, 1);
        assert!(!eng.detect());
        eng.apply(Rel::T, 3, 1, 1);
        assert!(eng.detect());
        eng.apply(Rel::T, 3, 1, -1);
        assert!(!eng.detect());
    }

    /// The pairwise-MV maintainer reports its quadratic space.
    #[test]
    fn pairwise_view_space_grows() {
        let mut mv = TrianglePairwiseMv::new();
        let k = 20u64;
        for i in 0..k {
            mv.apply(Rel::S, 0, i, 1); // S(0, i)
            mv.apply(Rel::T, i, i, 1); // T(i, i)
        }
        // V_ST(b=0, a=i) has k entries; plus V_TR entries.
        assert!(mv.view_size() >= k as usize);
    }
}
