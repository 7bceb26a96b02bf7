//! Adjacency storage with payloads in a semiring, generic over the key.
//!
//! One binary relation indexed both ways, with per-key degrees (distinct
//! present partners) read in O(1) — the quantity the heavy-light
//! partition thresholds on. Every heavy-light view plan stores its
//! relations here, at dictionary ids ([`ivm_data::Id`]) behind the engine
//! and at `u64` keys in the OuMv reduction and the scaling tests.
//!
//! A plan that probes one column value against many partners looks its
//! row ([`Adj::row_map`]) or column ([`Adj::col_map`]) up once and probes
//! that map, rather than paying the two-level [`Adj::get`] per partner.

use ivm_data::FxHashMap;
use ivm_ring::Semiring;
use std::hash::Hash;

/// One binary relation `rel(x, y) ↦ R`, indexed by both columns.
#[derive(Clone, Debug)]
pub struct Adj<K, R> {
    fwd: FxHashMap<K, FxHashMap<K, R>>,
    bwd: FxHashMap<K, FxHashMap<K, R>>,
    len: usize,
}

impl<K, R> Default for Adj<K, R> {
    fn default() -> Self {
        Adj {
            fwd: FxHashMap::default(),
            bwd: FxHashMap::default(),
            len: 0,
        }
    }
}

impl<K: Clone + Eq + Hash, R: Semiring> Adj<K, R> {
    /// Accumulate `m` onto `(x, y)` and return the new forward degree of
    /// `x`. Zero payloads are pruned so degrees count *present* pairs; a
    /// zero `m` is a no-op.
    pub fn apply(&mut self, x: &K, y: &K, m: &R) -> usize {
        if m.is_zero() {
            return self.deg_fwd(x);
        }
        Self::accumulate(&mut self.bwd, y, x, m);
        let (deg, delta) = Self::accumulate(&mut self.fwd, x, y, m);
        self.len = self.len.checked_add_signed(delta).expect("len underflow");
        deg
    }

    /// Returns the new row length of `a` and the present-pair delta
    /// (+1 new pair, −1 cancelled, 0 otherwise).
    fn accumulate(side: &mut FxHashMap<K, FxHashMap<K, R>>, a: &K, b: &K, m: &R) -> (usize, isize) {
        let row = side.entry(a.clone()).or_default();
        // Stored payloads are never zero, so a zero entry is a new pair,
        // and (m being non-zero) a pair that sums to zero was present.
        let e = row.entry(b.clone()).or_insert_with(R::zero);
        let new = e.is_zero();
        e.add_assign(m);
        let delta = if e.is_zero() {
            row.remove(b);
            -1
        } else {
            new as isize
        };
        let deg = row.len();
        if deg == 0 {
            side.remove(a);
        }
        (deg, delta)
    }

    /// The payload at `(x, y)` (zero when absent).
    pub fn get(&self, x: &K, y: &K) -> R {
        self.fwd
            .get(x)
            .and_then(|row| row.get(y))
            .cloned()
            .unwrap_or_else(R::zero)
    }

    /// The partners of `x` as a map `y ↦ rel(x, y)`, or `None` when `x`
    /// has none.
    #[inline]
    pub fn row_map(&self, x: &K) -> Option<&FxHashMap<K, R>> {
        self.fwd.get(x)
    }

    /// The reverse partners of `y` as a map `x ↦ rel(x, y)`, or `None`
    /// when `y` has none.
    #[inline]
    pub fn col_map(&self, y: &K) -> Option<&FxHashMap<K, R>> {
        self.bwd.get(y)
    }

    /// Distinct present partners of `x` in the first column.
    pub fn deg_fwd(&self, x: &K) -> usize {
        self.fwd.get(x).map_or(0, |row| row.len())
    }

    /// Distinct present partners of `y` in the second column.
    pub fn deg_bwd(&self, y: &K) -> usize {
        self.bwd.get(y).map_or(0, |row| row.len())
    }

    /// The partners (and payloads) of `x`: all `(y, rel(x, y))`.
    pub fn row(&self, x: &K) -> impl Iterator<Item = (&K, &R)> {
        self.fwd.get(x).into_iter().flatten()
    }

    /// The reverse partners of `y`: all `(x, rel(x, y))`.
    pub fn col(&self, y: &K) -> impl Iterator<Item = (&K, &R)> {
        self.bwd.get(y).into_iter().flatten()
    }

    /// Every distinct first-column key.
    pub fn keys_fwd(&self) -> impl Iterator<Item = &K> {
        self.fwd.keys()
    }

    /// Every distinct second-column key.
    pub fn keys_bwd(&self) -> impl Iterator<Item = &K> {
        self.bwd.keys()
    }

    /// Every present `(x, y, payload)`.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &K, &R)> {
        self.fwd
            .iter()
            .flat_map(|(x, row)| row.iter().map(move |(y, m)| (x, y, m)))
    }

    /// Present pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No present pairs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::Value;

    fn v(n: i64) -> Value {
        Value::Int(n)
    }

    #[test]
    fn degrees_track_present_pairs_not_multiplicities() {
        let mut adj: Adj<Value, i64> = Adj::default();
        assert_eq!(adj.apply(&v(1), &v(2), &3), 1);
        assert_eq!(adj.apply(&v(1), &v(3), &1), 2);
        // Bumping an existing pair's multiplicity leaves the degree alone.
        assert_eq!(adj.apply(&v(1), &v(2), &4), 2);
        assert_eq!(adj.get(&v(1), &v(2)), 7);
        assert_eq!(adj.deg_bwd(&v(2)), 1);
        assert_eq!(adj.len(), 2);
        // Cancelling to zero removes the pair from both indexes.
        assert_eq!(adj.apply(&v(1), &v(2), &-7), 1);
        assert_eq!(adj.get(&v(1), &v(2)), 0);
        assert_eq!(adj.deg_bwd(&v(2)), 0);
        assert_eq!(adj.len(), 1);
    }

    #[test]
    fn mirror_invariant() {
        let mut a: Adj<u64, i64> = Adj::default();
        a.apply(&1, &2, &3);
        a.apply(&1, &3, &1);
        a.apply(&2, &2, &1);
        assert_eq!(a.get(&1, &2), 3);
        assert_eq!(a.len(), 3);
        assert_eq!(a.deg_fwd(&1), 2);
        assert_eq!(a.deg_bwd(&2), 2);
        assert_eq!(a.col(&2).count(), 2);
    }

    #[test]
    fn cancellation_prunes() {
        let mut a: Adj<u64, i64> = Adj::default();
        a.apply(&1, &2, &2);
        a.apply(&1, &2, &-2);
        assert_eq!(a.len(), 0);
        assert_eq!(a.deg_fwd(&1), 0);
        assert_eq!(a.get(&1, &2), 0);
        assert!(a.row(&1).next().is_none());
        // A zero payload allocates nothing.
        assert_eq!(a.apply(&5, &6, &0), 0);
        assert!(a.is_empty() && a.keys_fwd().next().is_none());
    }

    #[test]
    fn degrees_track_distinct_partners() {
        let mut a: Adj<u64, i64> = Adj::default();
        for y in 0..10 {
            a.apply(&7, &y, &1);
        }
        assert_eq!(a.deg_fwd(&7), 10);
        a.apply(&7, &0, &5); // same partner, higher multiplicity
        assert_eq!(a.deg_fwd(&7), 10);
        a.apply(&7, &0, &-6);
        assert_eq!(a.deg_fwd(&7), 9);
    }
}
