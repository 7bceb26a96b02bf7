//! View plan 1 over the heavy-light [`Partition`]: the triangle count
//! `Σ rel[0](a,b)·rel[1](b,c)·rel[2](c,a)` (Sec. 3.3), generic over the
//! key `K` and the payload `R`.
//!
//! Relation `i` maps variable `i` to variable `i+1 (mod 3)`, so every
//! formula below is written once for the rotated index `i`. The engine
//! instantiates it at dictionary ids ([`ivm_data::Id`]), whose references
//! it counts through `KeyRefs`; `ivm_oumv`'s reduction at `u64`.
//!
//! Every probe loop looks the probed row or column up once, before the
//! loop, and then probes that one map per partner.

use crate::adjacency::Adj;
use crate::heavy_light::{bump, signed, KeyRefs, Partition};
use ivm_data::{FxHashMap, Presence};
use ivm_ring::Semiring;
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

/// IVMε: amortized O(N^max(ε,1−ε)) single-tuple updates — O(√N) at the
/// optimal ε = ½ — against O(N^{1+min(ε,1−ε)}) view space.
///
/// Each relation is partitioned on its first column. The heavy side is
/// maintained through `view[i][(u,w)] = Σ_v rel[i+1]_H(u,v)·rel[i+2]_L(v,w)`;
/// the light side answers deltas by enumerating its ≤ 2θ partners.
///
/// Migrations transfer view contributions with sign, so `R` must have
/// additive inverses ([`Semiring::try_neg`]).
#[derive(Clone, Debug)]
pub struct HeavyLight<K, R> {
    part: Partition<K, 3>,
    rel: [Adj<K, R>; 3],
    /// `view[i][(u, w)] = Σ_v rel[i+1]_H(u,v) · rel[i+2]_L(v,w)`. An
    /// entry holds its two keys until it cancels: a payload without exact
    /// cancellation (`F64`) can keep a residue after its pairs have left.
    view: [FxHashMap<(K, K), R>; 3],
    count: R,
    /// The plan's own counters; migrations and rebalances are the
    /// partition's.
    stats: HlStats,
}

impl<K: Clone + Eq + Hash, R: Semiring> HeavyLight<K, R> {
    /// Empty maintainer with the given ε ∈ [0, 1].
    pub fn new(eps: f64) -> Self {
        HeavyLight {
            part: Partition::new(eps),
            rel: Default::default(),
            view: Default::default(),
            count: R::zero(),
            stats: HlStats::default(),
        }
    }

    /// The ε this maintainer was built with.
    pub(crate) fn eps(&self) -> f64 {
        self.part.eps()
    }

    /// The heavy/light threshold θ as of the last rebalance.
    pub fn threshold(&self) -> usize {
        self.part.threshold()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> HlStats {
        HlStats {
            migrations: self.part.migrations(),
            rebalances: self.part.rebalances(),
            ..self.stats
        }
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
        self.part.heavy_counts()
    }

    /// Total view entries (the O(N^{1+min(ε,1−ε)}) space term).
    pub fn view_entries(&self) -> usize {
        self.view.iter().map(|v| v.len()).sum()
    }

    /// The keys of `view[i]`.
    pub(crate) fn view_keys(&self, i: usize) -> impl Iterator<Item = &(K, K)> {
        self.view[i].keys()
    }

    /// Present pairs across the three relations.
    pub(crate) fn base_pairs(&self) -> usize {
        self.rel.iter().map(|r| r.len()).sum()
    }

    /// Apply `δrel[i](x, y) ↦ m` and return its contribution to the count
    /// (already multiplied by `m`). A zero `m` is a no-op.
    pub fn apply(&mut self, i: usize, x: &K, y: &K, m: &R) -> R {
        self.apply_with(i, x, y, m, &mut ())
    }

    /// [`apply`](Self::apply), reporting to `refs` every key a pair or a
    /// view entry starts or stops holding.
    pub(crate) fn apply_with(
        &mut self,
        i: usize,
        x: &K,
        y: &K,
        m: &R,
        refs: &mut impl KeyRefs<K>,
    ) -> R {
        if m.is_zero() {
            return R::zero();
        }
        self.stats.updates += 1;
        let contrib = m.times(&self.count_delta(i, x, y));
        self.count.add_assign(&contrib);
        self.maintain_views(i, x, y, m, refs);
        let pairs = self.rel[i].len();
        let new_deg = self.rel[i].apply(x, y, m);
        match self.rel[i].len().cmp(&pairs) {
            std::cmp::Ordering::Greater => hold(refs, x, y, Presence::Appeared),
            std::cmp::Ordering::Less => hold(refs, x, y, Presence::Vanished),
            std::cmp::Ordering::Equal => {}
        }
        if let Some(to_heavy) = self.part.crossed(i, x, new_deg) {
            self.migrate(i, x, to_heavy, refs);
        }
        let n = self.base_pairs();
        if self.part.rebalance_if_drifted(n, self.rel.each_ref()) {
            for i in 0..3 {
                let (view, work) = self.recompute_view(i);
                // Retain the new keys before releasing the old ones, so a
                // key in both never reaches zero.
                for (u, w) in view.keys() {
                    hold(refs, u, w, Presence::Appeared);
                }
                for (u, w) in self.view[i].keys() {
                    hold(refs, u, w, Presence::Vanished);
                }
                self.view[i] = view;
                self.stats.work += work;
            }
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
        // `rel[k](v, x)` for every probed `v`; stored payloads are never
        // zero, so an absent entry is the only zero.
        let col_x = self.rel[k].col_map(x);
        if !self.part.is_heavy(j, y) {
            for (v, m1) in self.rel[j].row(y) {
                work += 1;
                if let Some(m2) = probe(col_x, v) {
                    d.add_assign(&m1.times(m2));
                }
            }
            self.stats.light_scans += 1;
        } else {
            let row_y = self.rel[j].row_map(y);
            for v in self.part.heavy(k) {
                work += 1;
                let Some(m1) = probe(row_y, v) else {
                    continue;
                };
                if let Some(m2) = probe(col_x, v) {
                    d.add_assign(&m1.times(m2));
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
    fn maintain_views(&mut self, i: usize, x: &K, y: &K, m: &R, refs: &mut impl KeyRefs<K>) {
        let (j, k) = ((i + 1) % 3, (i + 2) % 3);
        if self.part.is_heavy(i, x) {
            if !self.part.is_heavy(j, y) {
                let row_y = self.rel[j].row_map(y);
                self.stats.work += row_y.map_or(0, |r| r.len()) as u64 + 1;
                for (w, mj) in row_y.into_iter().flatten() {
                    bump_view(&mut self.view[k], x, w, m.times(mj), refs);
                }
            }
        } else {
            let heavy_k = self.part.heavy(k);
            self.stats.work += heavy_k.len() as u64 + 1;
            let col_x = self.rel[k].col_map(x);
            for u in heavy_k {
                if let Some(mk) = probe(col_x, u) {
                    bump_view(&mut self.view[j], u, y, mk.times(m), refs);
                }
            }
        }
    }

    /// Transfer `x`'s contributions after it crossed the band of
    /// partition `i`: between `view[i+2]` (where it is an H-part key) and
    /// `view[i+1]` (where it is an L-part key).
    fn migrate(&mut self, i: usize, x: &K, to_heavy: bool, refs: &mut impl KeyRefs<K>) {
        let (j, k) = ((i + 1) % 3, (i + 2) % 3);
        // H-part of view[k]: Σ_{v light in rel[j]} rel[i](x,v)·rel[j](v,w).
        for (v, m1) in self.rel[i].row(x) {
            if !self.part.is_heavy(j, v) {
                let row_v = self.rel[j].row_map(v);
                self.stats.work += row_v.map_or(0, |r| r.len()) as u64 + 1;
                for (w, m2) in row_v.into_iter().flatten() {
                    let d = signed(m1.times(m2), !to_heavy);
                    bump_view(&mut self.view[k], x, w, d, refs);
                }
            }
        }
        // L-part of view[j]: Σ_{u heavy in rel[k]} rel[k](u,x)·rel[i](x,w)
        // — entering the heavy part removes these terms (and vice versa).
        let row_len = self.rel[i].deg_fwd(x) as u64;
        let col_x = self.rel[k].col_map(x);
        for u in self.part.heavy(k) {
            let Some(mk) = probe(col_x, u) else {
                continue;
            };
            self.stats.work += row_len + 1;
            for (w, m1) in self.rel[i].row(x) {
                let d = signed(mk.times(m1), to_heavy);
                bump_view(&mut self.view[j], u, w, d, refs);
            }
        }
    }

    /// `view[i]` from scratch over the current partition, and the work
    /// that took.
    fn recompute_view(&self, i: usize) -> (FxHashMap<(K, K), R>, u64) {
        let (j, k) = ((i + 1) % 3, (i + 2) % 3);
        let (mut view, mut work) = (FxHashMap::default(), 0);
        for u in self.part.heavy(j) {
            for (v, m1) in self.rel[j].row(u) {
                if self.part.is_heavy(k, v) {
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

/// The payload `map` holds at `key`, when both exist.
#[inline]
fn probe<'a, K: Eq + Hash, R>(map: Option<&'a FxHashMap<K, R>>, key: &K) -> Option<&'a R> {
    map.and_then(|m| m.get(key))
}

/// Report the two keys `u` and `w` of a pair or view entry to `refs` when
/// the entry appeared or vanished.
#[inline]
fn hold<K>(refs: &mut impl KeyRefs<K>, u: &K, w: &K, change: Presence) {
    match change {
        Presence::Appeared => {
            refs.retain(u);
            refs.retain(w);
        }
        Presence::Vanished => {
            refs.release(u);
            refs.release(w);
        }
        Presence::Unchanged => {}
    }
}

/// [`bump`] the view entry `(u, w)`, reporting its keys to `refs` when it
/// appears or cancels.
#[inline]
fn bump_view<K: Clone + Eq + Hash, R: Semiring>(
    view: &mut FxHashMap<(K, K), R>,
    u: &K,
    w: &K,
    d: R,
    refs: &mut impl KeyRefs<K>,
) {
    let change = bump(view, (u.clone(), w.clone()), d);
    hold(refs, u, w, change);
}

impl<K: Clone + Eq + Hash + Debug, R: Semiring> HeavyLight<K, R> {
    /// See [`Partition::check`]. For tests.
    pub fn check_partition(&self) -> Result<(), String> {
        self.part.check(self.rel.each_ref())
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Migrations and rebalances happen under skew and growth.
    #[test]
    fn rebalancing_kicks_in() {
        let mut eng = HeavyLight::<u64, i64>::new(0.5);
        for i in 0..400u64 {
            eng.apply(0, &0, &i, &1); // node 0 becomes very heavy in R
            eng.apply(1, &i, &(i + 1), &1);
            eng.apply(2, &(i + 1), &0, &1);
        }
        let s = eng.stats();
        assert!(s.rebalances > 0, "size grew 300×: must rebalance");
        assert!(s.migrations > 0 || eng.heavy_counts()[0] > 0);
        assert_eq!(eng.heavy_counts()[0], 1, "exactly the hub is heavy in R");
        eng.check_partition().unwrap();
        eng.check_views().unwrap();
        // R(0,i)·S(i,i+1)·T(i+1,0) forms one triangle per i.
        assert_eq!(*eng.count(), 400);
    }

    /// Boolean detection `Qb` (Sec. 3.4) is count positivity, and it
    /// follows the closing and reopening of a triangle.
    #[test]
    fn detection() {
        let mut eng = HeavyLight::<u64, i64>::new(0.5);
        assert_eq!(*eng.count(), 0);
        eng.apply(0, &1, &2, &1);
        eng.apply(1, &2, &3, &1);
        assert_eq!(*eng.count(), 0);
        eng.apply(2, &3, &1, &1);
        assert!(*eng.count() > 0);
        eng.apply(2, &3, &1, &-1);
        assert_eq!(*eng.count(), 0);
    }
}
