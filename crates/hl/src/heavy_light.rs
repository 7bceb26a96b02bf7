//! The IVMε core (Sec. 3.3): heavy-light partitioned maintenance of the
//! triangle count `Σ rel[0](a,b)·rel[1](b,c)·rel[2](c,a)`, generic over
//! the key `K` and the payload `R`.
//!
//! Relation `i` maps variable `i` to variable `i+1 (mod 3)`, so every
//! formula below is written once for the rotated index `i`. The engine
//! instantiates it at `Value` keys; `ivm_ivme::TriangleIvmEps` at `u64`.

use crate::adjacency::Adj;
use ivm_data::{FxHashMap, FxHashSet};
use ivm_ring::Semiring;
use std::collections::hash_map::Entry;
use std::fmt::Debug;
use std::hash::Hash;

/// Cumulative counters, exposed for benches and `explain()`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HlStats {
    /// Single-tuple updates applied (zero payloads are not counted).
    pub updates: u64,
    /// Inner-loop operations — the machine-independent cost measure the
    /// scaling experiments plot.
    pub work: u64,
    /// Per-key partition migrations performed.
    pub migrations: u64,
    /// Global θ-recomputing rebalances performed.
    pub rebalances: u64,
    /// Count deltas answered through the heavy path (HH loop + HL view
    /// lookup) — updates that would have paid O(deg) without the split.
    pub heavy_hits: u64,
    /// Count deltas answered by scanning a light (< 2θ) row.
    pub light_scans: u64,
}

/// Add `d` to `map[key]`, dropping the entry when it cancels to zero.
pub fn bump<Q: Eq + Hash, R: Semiring>(map: &mut FxHashMap<Q, R>, key: Q, d: R) {
    if d.is_zero() {
        return;
    }
    match map.entry(key) {
        Entry::Occupied(mut o) => {
            o.get_mut().add_assign(&d);
            if o.get().is_zero() {
                o.remove();
            }
        }
        Entry::Vacant(v) => {
            v.insert(d);
        }
    }
}

/// `d`, negated when `neg` — the signed view transfer of a migration.
fn signed<R: Semiring>(d: R, neg: bool) -> R {
    if neg {
        d.try_neg().expect("heavy-light payloads must form a ring")
    } else {
        d
    }
}

/// IVMε: amortized O(N^max(ε,1−ε)) single-tuple updates — O(√N) at the
/// optimal ε = ½ — against O(N^{1+min(ε,1−ε)}) view space.
///
/// Each relation is partitioned on its first column: a key is *heavy*
/// when its degree (distinct present partners) reaches 2θ and *light*
/// again at θ — the hysteresis band amortizes migrations — with
/// θ = ⌈N^ε⌉ recomputed, and the views rebuilt, whenever the database
/// size drifts by 2× (lazy global rebalancing). The heavy side is
/// maintained through `view[i][(u,w)] = Σ_v rel[i+1]_H(u,v)·rel[i+2]_L(v,w)`;
/// the light side answers deltas by enumerating its ≤ 2θ partners.
///
/// Migrations transfer view contributions with sign, so `R` must have
/// additive inverses ([`Semiring::try_neg`]).
#[derive(Clone, Debug)]
pub struct HeavyLight<K, R> {
    eps: f64,
    rel: [Adj<K, R>; 3],
    /// Heavy first-column keys per relation.
    heavy: [FxHashSet<K>; 3],
    /// `view[i][(u, w)] = Σ_v rel[i+1]_H(u,v) · rel[i+2]_L(v,w)`.
    view: [FxHashMap<(K, K), R>; 3],
    count: R,
    threshold: usize,
    /// Total size at the last rebalance — the 2× drift reference.
    base_n: usize,
    stats: HlStats,
}

impl<K: Clone + Eq + Hash, R: Semiring> HeavyLight<K, R> {
    /// Empty maintainer with the given ε ∈ [0, 1].
    pub fn new(eps: f64) -> Self {
        assert!((0.0..=1.0).contains(&eps), "ε must be in [0,1]");
        HeavyLight {
            eps,
            rel: Default::default(),
            heavy: Default::default(),
            view: Default::default(),
            count: R::zero(),
            threshold: 1,
            base_n: 4,
            stats: HlStats::default(),
        }
    }

    /// The ε this maintainer was built with.
    pub(crate) fn eps(&self) -> f64 {
        self.eps
    }

    /// The heavy/light threshold θ as of the last rebalance.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Cumulative counters.
    pub fn stats(&self) -> HlStats {
        self.stats
    }

    /// The maintained count.
    pub fn count(&self) -> &R {
        &self.count
    }

    /// Relation `i` in rotation order.
    pub(crate) fn relation(&self, i: usize) -> &Adj<K, R> {
        &self.rel[i]
    }

    /// Heavy-key counts per relation, in rotation order.
    pub fn heavy_counts(&self) -> [usize; 3] {
        [0, 1, 2].map(|i| self.heavy[i].len())
    }

    /// Total view entries (the O(N^{1+min(ε,1−ε)}) space term).
    pub fn view_entries(&self) -> usize {
        self.view.iter().map(|v| v.len()).sum()
    }

    /// Present pairs across the three relations.
    pub(crate) fn base_pairs(&self) -> usize {
        self.rel.iter().map(|r| r.len()).sum()
    }

    /// Apply `δrel[i](x, y) ↦ m` and return its contribution to the count
    /// (already multiplied by `m`). A zero `m` is a no-op.
    pub fn apply(&mut self, i: usize, x: &K, y: &K, m: &R) -> R {
        if m.is_zero() {
            return R::zero();
        }
        self.stats.updates += 1;
        let contrib = m.times(&self.count_delta(i, x, y));
        self.count.add_assign(&contrib);
        self.maintain_views(i, x, y, m);
        let new_deg = self.rel[i].apply(x, y, m);
        let is_heavy = self.heavy[i].contains(x);
        if !is_heavy && new_deg >= 2 * self.threshold {
            self.migrate(i, x, true);
        } else if is_heavy && new_deg <= self.threshold {
            self.migrate(i, x, false);
        }
        let n = self.base_pairs();
        if n > 2 * self.base_n || (n >= 8 && n * 2 < self.base_n) {
            self.rebalance();
        }
        contrib
    }

    /// The skew-aware count delta for `δrel[i](x, y)`: a light `y`
    /// enumerates its ≤ 2θ partners (LL + LH); a heavy `y` loops the
    /// ≤ N/θ heavy `rel[i+2]` keys (HH) and answers the HL case with one
    /// view lookup.
    fn count_delta(&mut self, i: usize, x: &K, y: &K) -> R {
        let (j, k) = ((i + 1) % 3, (i + 2) % 3);
        let mut d = R::zero();
        let mut work = 1u64;
        if !self.heavy[j].contains(y) {
            for (v, m1) in self.rel[j].row(y) {
                work += 1;
                let m2 = self.rel[k].get(v, x);
                if !m2.is_zero() {
                    d.add_assign(&m1.times(&m2));
                }
            }
            self.stats.light_scans += 1;
        } else {
            for v in &self.heavy[k] {
                work += 1;
                let m1 = self.rel[j].get(y, v);
                if m1.is_zero() {
                    continue;
                }
                let m2 = self.rel[k].get(v, x);
                if !m2.is_zero() {
                    d.add_assign(&m1.times(&m2));
                }
            }
            work += 1;
            if let Some(hl) = self.view[i].get(&(y.clone(), x.clone())) {
                d.add_assign(hl);
            }
            self.stats.heavy_hits += 1;
        }
        self.stats.work += work;
        d
    }

    /// Maintain the views that mention `rel[i]` under `δrel[i](x,y,m)`:
    /// `rel[i]` is the H-part of `view[i+2]` (at u = x) and the L-part of
    /// `view[i+1]` (at v = x).
    fn maintain_views(&mut self, i: usize, x: &K, y: &K, m: &R) {
        let (j, k) = ((i + 1) % 3, (i + 2) % 3);
        if self.heavy[i].contains(x) {
            if !self.heavy[j].contains(y) {
                self.stats.work += self.rel[j].deg_fwd(y) as u64 + 1;
                for (w, mj) in self.rel[j].row(y) {
                    bump(&mut self.view[k], (x.clone(), w.clone()), m.times(mj));
                }
            }
        } else {
            self.stats.work += self.heavy[k].len() as u64 + 1;
            for u in &self.heavy[k] {
                let mk = self.rel[k].get(u, x);
                if !mk.is_zero() {
                    bump(&mut self.view[j], (u.clone(), y.clone()), mk.times(m));
                }
            }
        }
    }

    /// Move `x` across the heavy/light boundary of partition `i`,
    /// transferring its contributions between `view[i+2]` (where it is
    /// an H-part key) and `view[i+1]` (where it is an L-part key).
    fn migrate(&mut self, i: usize, x: &K, to_heavy: bool) {
        self.stats.migrations += 1;
        let (j, k) = ((i + 1) % 3, (i + 2) % 3);
        if to_heavy {
            self.heavy[i].insert(x.clone());
        } else {
            self.heavy[i].remove(x);
        }
        // H-part of view[k]: Σ_{v light in rel[j]} rel[i](x,v)·rel[j](v,w).
        for (v, m1) in self.rel[i].row(x) {
            if !self.heavy[j].contains(v) {
                self.stats.work += self.rel[j].deg_fwd(v) as u64 + 1;
                for (w, m2) in self.rel[j].row(v) {
                    let d = signed(m1.times(m2), !to_heavy);
                    bump(&mut self.view[k], (x.clone(), w.clone()), d);
                }
            }
        }
        // L-part of view[j]: Σ_{u heavy in rel[k]} rel[k](u,x)·rel[i](x,w)
        // — entering the heavy part removes these terms (and vice versa).
        let row_len = self.rel[i].deg_fwd(x) as u64;
        for u in &self.heavy[k] {
            let mk = self.rel[k].get(u, x);
            if mk.is_zero() {
                continue;
            }
            self.stats.work += row_len + 1;
            for (w, m1) in self.rel[i].row(x) {
                let d = signed(mk.times(m1), to_heavy);
                bump(&mut self.view[j], (u.clone(), w.clone()), d);
            }
        }
    }

    /// Recompute θ, repartition every relation, and rebuild the three
    /// views from scratch. O(N·θ); amortized O(θ) over the ≥ N/2 updates
    /// between size-drift triggers.
    fn rebalance(&mut self) {
        self.stats.rebalances += 1;
        let n = self.base_pairs().max(4);
        self.base_n = n;
        self.threshold = (n as f64).powf(self.eps).ceil().max(1.0) as usize;
        let promote = (3 * self.threshold).div_ceil(2);
        for (heavy, rel) in self.heavy.iter_mut().zip(&self.rel) {
            *heavy = rel
                .keys_fwd()
                .filter(|x| rel.deg_fwd(x) >= promote)
                .cloned()
                .collect();
        }
        for i in 0..3 {
            let (view, work) = self.recompute_view(i);
            self.view[i] = view;
            self.stats.work += work;
        }
    }

    /// `view[i]` from scratch over the current partition, and the work
    /// that took.
    fn recompute_view(&self, i: usize) -> (FxHashMap<(K, K), R>, u64) {
        let (j, k) = ((i + 1) % 3, (i + 2) % 3);
        let (mut view, mut work) = (FxHashMap::default(), 0);
        for u in &self.heavy[j] {
            for (v, m1) in self.rel[j].row(u) {
                if self.heavy[k].contains(v) {
                    continue;
                }
                work += self.rel[k].deg_fwd(v) as u64 + 1;
                for (w, m2) in self.rel[k].row(v) {
                    bump(&mut view, (u.clone(), w.clone()), m1.times(m2));
                }
            }
        }
        (view, work)
    }
}

impl<K: Clone + Eq + Hash + Debug, R: Semiring> HeavyLight<K, R> {
    /// Verify the partition invariants the hysteresis maintains after
    /// every update: a heavy key's degree exceeds θ and a light key's
    /// stays below 2θ. For tests.
    pub fn check_partition(&self) -> Result<(), String> {
        let t = self.threshold;
        for (i, (heavy, rel)) in self.heavy.iter().zip(&self.rel).enumerate() {
            for x in heavy {
                let deg = rel.deg_fwd(x);
                if deg <= t {
                    return Err(format!(
                        "rel[{i}] key {x:?}: heavy with degree {deg} ≤ θ={t}"
                    ));
                }
            }
            for x in rel.keys_fwd() {
                let deg = rel.deg_fwd(x);
                if !heavy.contains(x) && deg >= 2 * t {
                    return Err(format!(
                        "rel[{i}] key {x:?}: light with degree {deg} ≥ 2θ={}",
                        2 * t
                    ));
                }
            }
        }
        Ok(())
    }

    /// Verify the three views against a from-scratch recompute over the
    /// current partition. For tests; O(N·θ).
    pub fn check_views(&self) -> Result<(), String> {
        for i in 0..3 {
            let (expect, _) = self.recompute_view(i);
            if expect != self.view[i] {
                return Err(format!(
                    "view[{i}] diverged: {} entries maintained vs {} recomputed",
                    self.view[i].len(),
                    expect.len()
                ));
            }
        }
        Ok(())
    }
}
