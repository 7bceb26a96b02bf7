//! The heavy-light partition of IVMε (Sec. 3.3), held once for every view
//! plan: the threshold θ = ⌈N^ε⌉, the hysteresis band that moves a key
//! across it, and the lazy global rebalance that recomputes θ.
//!
//! A plan stores its relations in [`Adj`] and partitions the first column
//! of `N` of them. After each degree change it asks
//! [`Partition::crossed`], after each size change
//! [`Partition::rebalance_if_drifted`], and it moves its own view
//! contributions when either answers yes. Two plans sit on this layer:
//! the triangle count ([`crate::HeavyLight`], three partitioned
//! relations) and Ex 5.1's `Q(A) = Σ_B R(A,B)·S(B)` ([`crate::QhEps`], one).

use crate::adjacency::Adj;
use ivm_data::{Dict, FxHashMap, FxHashSet, Id, Presence};
use ivm_ring::Semiring;
use std::collections::hash_map::Entry;
use std::fmt::Debug;
use std::hash::Hash;

/// Told when a stored key column starts or stops holding a key: a pair of
/// a relation or an entry of a view, one call per column. Plain keys need
/// no accounting (`()`); dictionary ids are reference-counted ([`Dict`]).
pub(crate) trait KeyRefs<K> {
    /// One more stored column holds `k`.
    fn retain(&mut self, k: &K);
    /// One stored column holding `k` less.
    fn release(&mut self, k: &K);
}

impl<K> KeyRefs<K> for () {
    #[inline]
    fn retain(&mut self, _: &K) {}
    #[inline]
    fn release(&mut self, _: &K) {}
}

impl KeyRefs<Id> for Dict {
    #[inline]
    fn retain(&mut self, k: &Id) {
        Dict::retain(self, *k);
    }
    #[inline]
    fn release(&mut self, k: &Id) {
        Dict::release(self, *k);
    }
}

/// Add `d` to `map[key]`, dropping the entry when it cancels to zero.
/// Returns what that did to the entry's presence.
pub fn bump<Q: Eq + Hash, R: Semiring>(map: &mut FxHashMap<Q, R>, key: Q, d: R) -> Presence {
    if d.is_zero() {
        return Presence::Unchanged;
    }
    match map.entry(key) {
        Entry::Occupied(mut o) => {
            o.get_mut().add_assign(&d);
            if o.get().is_zero() {
                o.remove();
                return Presence::Vanished;
            }
            Presence::Unchanged
        }
        Entry::Vacant(v) => {
            v.insert(d);
            Presence::Appeared
        }
    }
}

/// `d`, negated when `neg` — the signed view transfer of a migration.
pub(crate) fn signed<R: Semiring>(d: R, neg: bool) -> R {
    if neg {
        d.try_neg().expect("heavy-light payloads must form a ring")
    } else {
        d
    }
}

/// The heavy keys of `N` relations against one threshold θ.
///
/// A key is *heavy* once its degree (distinct present partners) reaches
/// 2θ and *light* again at θ — the hysteresis band amortizes migrations.
/// θ = ⌈N^ε⌉ is recomputed, and every relation repartitioned, whenever
/// the database size drifts by 2× (lazy global rebalancing).
#[derive(Clone, Debug)]
pub struct Partition<K, const N: usize> {
    eps: f64,
    /// Holds no reference of its own on a counted key ([`KeyRefs`]): a
    /// heavy key has degree > θ ≥ 1 (the band, which [`Partition::check`]
    /// verifies), so the rows of its relation hold it.
    heavy: [FxHashSet<K>; N],
    threshold: usize,
    /// Total size at the last rebalance — the 2× drift reference.
    base_n: usize,
    migrations: u64,
    rebalances: u64,
}

impl<K: Clone + Eq + Hash, const N: usize> Partition<K, N> {
    /// Nothing heavy, θ = 1, with the given ε ∈ [0, 1].
    pub fn new(eps: f64) -> Self {
        assert!((0.0..=1.0).contains(&eps), "ε must be in [0,1]");
        Partition {
            eps,
            heavy: std::array::from_fn(|_| FxHashSet::default()),
            threshold: 1,
            base_n: 4,
            migrations: 0,
            rebalances: 0,
        }
    }

    /// The ε this partition was built with.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// θ as of the last rebalance.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Per-key migrations across the band so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Global θ-recomputing rebalances so far.
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// The heavy keys of relation `i`.
    pub fn heavy(&self, i: usize) -> &FxHashSet<K> {
        &self.heavy[i]
    }

    /// Whether `x` is heavy in relation `i`.
    pub fn is_heavy(&self, i: usize, x: &K) -> bool {
        self.heavy[i].contains(x)
    }

    /// Heavy-key counts per relation.
    pub fn heavy_counts(&self) -> [usize; N] {
        std::array::from_fn(|i| self.heavy[i].len())
    }

    /// Apply the band to key `x` of relation `i`, whose degree is now
    /// `deg`. Returns `Some(to_heavy)` when `x` crossed it; the plan then
    /// transfers `x`'s view contributions.
    pub fn crossed(&mut self, i: usize, x: &K, deg: usize) -> Option<bool> {
        let to_heavy = if self.heavy[i].contains(x) {
            if deg > self.threshold {
                return None;
            }
            self.heavy[i].remove(x);
            false
        } else {
            if deg < 2 * self.threshold {
                return None;
            }
            self.heavy[i].insert(x.clone());
            true
        };
        self.migrations += 1;
        Some(to_heavy)
    }

    /// When the total size `n` has drifted 2× either way since the last
    /// rebalance, recompute θ and repartition `rels` from scratch — a key
    /// is heavy from ⌈3θ/2⌉, the middle of the band. Returns whether it
    /// did; the plan then rebuilds its views, O(N·θ) amortized to O(θ)
    /// over the ≥ N/2 updates between triggers.
    pub fn rebalance_if_drifted<R: Semiring>(&mut self, n: usize, rels: [&Adj<K, R>; N]) -> bool {
        let drifted = n > 2 * self.base_n || (n >= 8 && n * 2 < self.base_n);
        if !drifted {
            return false;
        }
        self.rebalances += 1;
        self.base_n = n.max(4);
        self.threshold = (self.base_n as f64).powf(self.eps).ceil().max(1.0) as usize;
        let promote = (3 * self.threshold).div_ceil(2);
        for (heavy, rel) in self.heavy.iter_mut().zip(rels) {
            *heavy = rel
                .keys_fwd()
                .filter(|x| rel.deg_fwd(x) >= promote)
                .cloned()
                .collect();
        }
        true
    }

    /// Verify the band over `rels`: a heavy key's degree exceeds θ and a
    /// light key's stays below 2θ. For tests.
    pub fn check<R: Semiring>(&self, rels: [&Adj<K, R>; N]) -> Result<(), String>
    where
        K: Debug,
    {
        let t = self.threshold;
        for (i, (heavy, rel)) in self.heavy.iter().zip(rels).enumerate() {
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
}
