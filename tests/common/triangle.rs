//! The Sec. 3.1/3.2 triangle-count baselines, kept as test oracles beside
//! the heavy-light plan: full recount, first-order deltas and pairwise
//! materialized views, at `u64` keys and `i64` multiplicities.
//!
//! | maintainer | update time | space | paper |
//! |---|---|---|---|
//! | [`TriangleRecount`] | O(N^{3/2}) | O(N) | recompute (Sec. 3.1) |
//! | [`TriangleDelta`] | O(N) | O(N) | first-order deltas (Sec. 3.1) |
//! | [`TrianglePairwiseMv`] | O(N) | O(N²) | materialized views (Sec. 3.2) |
//!
//! Relation `i` maps variable `i` to variable `i+1 (mod 3)` — `R: A→B`,
//! `S: B→C`, `T: C→A` — as in `ivm_hl::HeavyLight`, which implements
//! [`Triangle`] here too.

use ivm_data::FxHashMap;
use ivm_hl::{bump, Adj, HeavyLight};

/// A triangle-count maintainer under single-tuple updates.
pub trait Triangle {
    /// Apply `δrel[i](x, y) ↦ m`.
    fn update(&mut self, i: usize, x: u64, y: u64, m: i64);

    /// Apply a preprocessing update, whose work is not measured.
    fn load(&mut self, i: usize, x: u64, y: u64, m: i64) {
        self.update(i, x, y, m);
    }

    /// The maintained count.
    fn triangles(&self) -> i64;

    /// Cumulative inner-loop operations.
    fn work(&self) -> u64;
}

impl Triangle for HeavyLight<u64, i64> {
    fn update(&mut self, i: usize, x: u64, y: u64, m: i64) {
        self.apply(i, &x, &y, &m);
    }

    fn triangles(&self) -> i64 {
        *self.count()
    }

    fn work(&self) -> u64 {
        self.stats().work
    }
}

/// The brute-force count over every update in `log`.
pub fn triangle_oracle(log: &[(usize, u64, u64, i64)]) -> i64 {
    let mut rel: [Adj<u64, i64>; 3] = Default::default();
    for &(i, x, y, m) in log {
        rel[i].apply(&x, &y, &m);
    }
    let mut total = 0;
    for (a, b, m0) in rel[0].iter() {
        for (c, m1) in rel[1].row(b) {
            total += m0 * m1 * rel[2].get(c, a);
        }
    }
    total
}

/// The three relations the baselines share, and their work counter.
#[derive(Default)]
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
}

/// Recompute the count from scratch after every update.
#[derive(Default)]
pub struct TriangleRecount {
    base: Base,
    count: i64,
}

impl Triangle for TriangleRecount {
    /// Stores the tuple without recounting; the next update recounts.
    fn load(&mut self, i: usize, x: u64, y: u64, m: i64) {
        self.base.rel[i].apply(&x, &y, &m);
    }

    fn update(&mut self, i: usize, x: u64, y: u64, m: i64) {
        self.base.rel[i].apply(&x, &y, &m);
        let r: Vec<(u64, u64, i64)> = self.base.rel[0]
            .iter()
            .map(|(&a, &b, &m)| (a, b, m))
            .collect();
        self.count = r
            .into_iter()
            .map(|(a, b, m)| m * self.base.intersect_count(0, a, b))
            .sum();
    }

    fn triangles(&self) -> i64 {
        self.count
    }

    fn work(&self) -> u64 {
        self.base.work
    }
}

/// First-order deltas (Sec. 3.1): O(N) per update, no extra storage.
#[derive(Default)]
pub struct TriangleDelta {
    base: Base,
    count: i64,
}

impl Triangle for TriangleDelta {
    fn update(&mut self, i: usize, x: u64, y: u64, m: i64) {
        // δQ = δrel(x,y) · Σ_v rel[i+1](y,v)·rel[i+2](v,x); the other two
        // relations are unchanged by this update.
        self.count += m * self.base.intersect_count(i, x, y);
        self.base.rel[i].apply(&x, &y, &m);
    }

    fn triangles(&self) -> i64 {
        self.count
    }

    fn work(&self) -> u64 {
        self.base.work
    }
}

/// All three pairwise views (Sec. 3.2): count deltas are O(1) lookups,
/// but each view costs O(N) to maintain and O(N²) to store.
#[derive(Default)]
pub struct TrianglePairwiseMv {
    base: Base,
    /// `view[i][(u, w)] = Σ_v rel[i+1](u,v) · rel[i+2](v,w)`; the count
    /// delta for `δrel[i](x,y)` is `view[i][(y, x)]`.
    view: [FxHashMap<(u64, u64), i64>; 3],
    count: i64,
}

impl TrianglePairwiseMv {
    /// Total entries across the three views (the O(N²) space term).
    pub fn view_size(&self) -> usize {
        self.view.iter().map(|v| v.len()).sum()
    }
}

impl Triangle for TrianglePairwiseMv {
    fn update(&mut self, i: usize, x: u64, y: u64, m: i64) {
        let (j, k) = ((i + 1) % 3, (i + 2) % 3);
        let base = &mut self.base;
        self.count += m * self.view[i].get(&(y, x)).copied().unwrap_or(0);
        // view[j] = Σ rel[k]·rel[i]: rel[i] enters at v = x, w = y.
        base.work += base.rel[k].deg_bwd(&x) as u64 + 1;
        for (&u, mk) in base.rel[k].col(&x) {
            bump(&mut self.view[j], (u, y), mk * m);
        }
        // view[k] = Σ rel[i]·rel[j]: rel[i] enters at u = x, v = y.
        base.work += base.rel[j].deg_fwd(&y) as u64 + 1;
        for (&w, mj) in base.rel[j].row(&y) {
            bump(&mut self.view[k], (x, w), m * mj);
        }
        base.rel[i].apply(&x, &y, &m);
    }

    fn triangles(&self) -> i64 {
        self.count
    }

    fn work(&self) -> u64 {
        self.base.work
    }
}
