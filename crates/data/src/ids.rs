//! Dense value ids: the dictionary [`Value`] ↔ `u32` id, and the hash
//! tables keyed by id tuples.
//!
//! Three engines keep their state over ids instead of values: the
//! dataflow multiway join (its stores, index keys, candidate sets and
//! search binding), the factorized view tree (its leaves, grouped views,
//! entries, stored factors and FD fetch indexes) and the heavy-light
//! engine (its adjacency, heavy sets and views). Each encodes a tuple
//! once, when it receives it; from then on an id hashes with one multiply
//! and compares with one instruction, where a [`Value`] is a 24-byte
//! tagged enum. Values are decoded only where they leave the engine: a
//! lift, an output tuple.
//!
//! Ids are reference-counted by the stored keys that hold them (one count
//! per column occurrence). An id whose count is zero at the end of an
//! operation — a value that only passed through, or whose last holder
//! left — is freed by [`Dict::sweep`] and reused by the next new value,
//! so a stream over ever-fresh values keeps the dictionary at its live
//! distinct-value count. Freeing is deferred to the sweep because a batch
//! is encoded before it is applied: an id that drops to zero mid-batch may
//! still be re-added by a later tuple of the batch.
//!
//! An [`IdMap`] is keyed by id tuples of one arity. A key of at most two
//! ids is packed into the `u64` of its table slot, one of three or four
//! into a `u128`: no heap hop, no allocation. A longer key is boxed.

use crate::hash::FxHashMap;
use crate::value::Value;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// A dense id, the dictionary's code for one [`Value`].
pub type Id = u32;

/// The bidirectional map between values and ids, with per-id reference
/// counts and a free list.
#[derive(Default)]
pub struct Dict {
    ids: FxHashMap<Value, Id>,
    /// By id; `None` for a freed id.
    values: Vec<Option<Value>>,
    /// By id: the stored key columns holding it.
    refs: Vec<u32>,
    /// Freed ids, reused before the id space grows.
    free: Vec<Id>,
    /// Ids that may have no reference left: new ones, and released ones
    /// whose count reached zero.
    unswept: Vec<Id>,
}

impl Dict {
    /// The id of `v`, assigned (with no references) if `v` is new.
    #[inline]
    pub fn encode(&mut self, v: &Value) -> Id {
        if let Some(&id) = self.ids.get(v) {
            return id;
        }
        self.assign(v)
    }

    /// A new id for `v`, which has none.
    fn assign(&mut self, v: &Value) -> Id {
        let id = match self.free.pop() {
            Some(id) => {
                self.values[id as usize] = Some(v.clone());
                id
            }
            None => {
                let id = Id::try_from(self.values.len())
                    .expect("at most 2^32 distinct values are live at once");
                self.values.push(Some(v.clone()));
                self.refs.push(0);
                id
            }
        };
        self.ids.insert(v.clone(), id);
        self.unswept.push(id);
        id
    }

    /// The ids of `vals`, in order, assembled in `buf`.
    #[inline]
    pub fn encode_all<'b>(&mut self, vals: &[Value], buf: &'b mut Vec<Id>) -> &'b [Id] {
        buf.clear();
        buf.extend(vals.iter().map(|v| self.encode(v)));
        buf
    }

    /// The id of `v` if it has one, without assigning one: a value with
    /// no id is held by no stored key.
    #[inline]
    pub fn lookup(&self, v: &Value) -> Option<Id> {
        self.ids.get(v).copied()
    }

    /// The value `id` encodes. `id` must be live.
    #[inline]
    pub fn value(&self, id: Id) -> &Value {
        self.values[id as usize]
            .as_ref()
            .expect("a stored id is never freed")
    }

    /// Count one more stored column holding `id`.
    #[inline]
    pub fn retain(&mut self, id: Id) {
        let n = &mut self.refs[id as usize];
        *n = n
            .checked_add(1)
            .expect("an id's count is bounded by 2^32 stored columns holding one value");
    }

    /// Count one stored column holding `id` less.
    #[inline]
    pub fn release(&mut self, id: Id) {
        let n = &mut self.refs[id as usize];
        *n -= 1;
        if *n == 0 {
            self.unswept.push(id);
        }
    }

    /// Free every id no stored column holds. Called at the end of each
    /// operation that encoded or released ids.
    pub fn sweep(&mut self) {
        for id in self.unswept.drain(..) {
            if self.refs[id as usize] != 0 {
                continue;
            }
            // An id can be listed twice; only its first listing frees it.
            if let Some(v) = self.values[id as usize].take() {
                self.ids.remove(&v);
                self.free.push(id);
            }
        }
    }

    /// The stored columns holding `id`.
    pub fn refs(&self, id: Id) -> u32 {
        self.refs[id as usize]
    }

    /// Number of live ids.
    pub fn live(&self) -> usize {
        self.ids.len()
    }

    /// Ids ever assigned: the high-water mark of the id space.
    pub fn capacity(&self) -> usize {
        self.values.len()
    }
}

/// `src` projected onto `pos`: a single column is borrowed in place,
/// anything else is assembled in `buf`.
#[inline]
pub fn gather<'a>(src: &'a [Id], pos: &[usize], buf: &'a mut Vec<Id>) -> &'a [Id] {
    if let [p] = pos {
        return std::slice::from_ref(&src[*p]);
    }
    buf.clear();
    buf.extend(pos.iter().map(|&p| src[p]));
    buf
}

/// Longest key packed into its table slot.
pub const INLINE_IDS: usize = 4;

/// Longest key packed into a `u64` slot.
const NARROW_IDS: usize = 2;

/// Up to two ids as one `u64`, the first in the high bits.
#[inline]
fn pack(ids: impl Iterator<Item = Id>) -> u64 {
    ids.fold(0, |k, id| k << 32 | u64::from(id))
}

/// Up to [`INLINE_IDS`] ids as one `u128`, the first in the high bits.
#[inline]
fn pack_wide(ids: impl Iterator<Item = Id>) -> u128 {
    ids.fold(0, |k, id| k << 32 | u128::from(id))
}

/// Multiplier of the packed-key hashes (the Fx constant).
const MIX: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Hashes a packed key. A single Fx multiply leaves the low bits — the
/// ones the table picks a bucket with — depending on the key's low half
/// alone, so every pair with the same second id would start its probe in
/// one bucket; folding the product's high half in mixes both ids. A wide
/// key folds the full 128-bit product of its two halves, so every id
/// reaches every bit.
#[derive(Default)]
pub struct PackedHasher(u64);

impl std::hash::Hasher for PackedHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("packed keys hash as one u64 or u128")
    }

    #[inline]
    fn write_u64(&mut self, k: u64) {
        let h = k.wrapping_mul(MIX);
        self.0 = h ^ h >> 32;
    }

    #[inline]
    fn write_u128(&mut self, k: u128) {
        let (hi, lo) = ((k >> 64) as u64, k as u64);
        let h = u128::from(lo ^ MIX) * u128::from(hi ^ MIX.rotate_left(32));
        self.0 = h as u64 ^ (h >> 64) as u64;
    }
}

/// The `n` ids of a packed key, the first in the high bits; `id_at`
/// shifts the key right by a multiple of 32 and truncates.
#[inline]
fn unpack<'a>(n: usize, id_at: impl Fn(usize) -> Id) -> Ids<'a> {
    let mut ids = [0; INLINE_IDS];
    for (i, id) in ids[..n].iter_mut().enumerate() {
        *id = id_at(32 * (n - 1 - i));
    }
    Ids::Inline(ids, n)
}

/// A table keyed by packed ids.
type PackedMap<K, V> = HashMap<K, V, BuildHasherDefault<PackedHasher>>;

/// A hash table keyed by id tuples of one arity. Keys of up to two ids
/// are packed into a `u64` table slot, of three or four into a `u128`;
/// longer keys are boxed.
pub enum IdMap<V> {
    /// Keys of at most two ids.
    Narrow {
        /// The key arity.
        arity: usize,
        /// Entries by packed key.
        map: PackedMap<u64, V>,
    },
    /// Keys of three or four ids.
    Wide {
        /// The key arity.
        arity: usize,
        /// Entries by packed key.
        map: PackedMap<u128, V>,
    },
    /// Keys of more than [`INLINE_IDS`] ids.
    Boxed(FxHashMap<Box<[Id]>, V>),
}

/// A key yielded by [`IdMap::iter`].
pub enum Ids<'a> {
    /// An unpacked key: its ids, and how many of them are in use.
    Inline([Id; INLINE_IDS], usize),
    /// A boxed key, borrowed from the table.
    Boxed(&'a [Id]),
}

impl std::ops::Deref for Ids<'_> {
    type Target = [Id];

    #[inline]
    fn deref(&self) -> &[Id] {
        match self {
            Ids::Inline(ids, n) => &ids[..*n],
            Ids::Boxed(ids) => ids,
        }
    }
}

impl<V> IdMap<V> {
    /// An empty map keyed by tuples of `arity` ids.
    pub fn new(arity: usize) -> Self {
        if arity <= NARROW_IDS {
            IdMap::Narrow {
                arity,
                map: Default::default(),
            }
        } else if arity <= INLINE_IDS {
            IdMap::Wide {
                arity,
                map: Default::default(),
            }
        } else {
            IdMap::Boxed(FxHashMap::default())
        }
    }

    /// The key arity (`None`: more than [`INLINE_IDS`]).
    fn arity(&self) -> Option<usize> {
        match self {
            IdMap::Narrow { arity, .. } | IdMap::Wide { arity, .. } => Some(*arity),
            IdMap::Boxed(_) => None,
        }
    }

    /// Empty this map, handing back its entries.
    pub fn take(&mut self) -> Self {
        let empty = match self.arity() {
            Some(arity) => IdMap::new(arity),
            None => IdMap::Boxed(FxHashMap::default()),
        };
        std::mem::replace(self, empty)
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            IdMap::Narrow { map, .. } => map.len(),
            IdMap::Wide { map, .. } => map.len(),
            IdMap::Boxed(map) => map.len(),
        }
    }

    /// Whether the map has no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove every entry, keeping the table's capacity.
    pub fn clear(&mut self) {
        match self {
            IdMap::Narrow { map, .. } => map.clear(),
            IdMap::Wide { map, .. } => map.clear(),
            IdMap::Boxed(map) => map.clear(),
        }
    }

    /// Shrink the table's capacity towards `n` entries.
    pub fn shrink_to(&mut self, n: usize) {
        match self {
            IdMap::Narrow { map, .. } => map.shrink_to(n),
            IdMap::Wide { map, .. } => map.shrink_to(n),
            IdMap::Boxed(map) => map.shrink_to(n),
        }
    }

    /// The entry under `src` projected onto `pos`; `buf` assembles a
    /// boxed key.
    #[inline]
    pub fn get_at(&self, src: &[Id], pos: &[usize], buf: &mut Vec<Id>) -> Option<&V> {
        match self {
            IdMap::Narrow { map, .. } => map.get(&pack(pos.iter().map(|&p| src[p]))),
            IdMap::Wide { map, .. } => map.get(&pack_wide(pos.iter().map(|&p| src[p]))),
            IdMap::Boxed(map) => map.get(gather(src, pos, buf)),
        }
    }

    /// The entry under `key`.
    #[inline]
    pub fn get(&self, key: &[Id]) -> Option<&V> {
        match self {
            IdMap::Narrow { map, .. } => map.get(&pack(key.iter().copied())),
            IdMap::Wide { map, .. } => map.get(&pack_wide(key.iter().copied())),
            IdMap::Boxed(map) => map.get(key),
        }
    }

    /// The entry under `key`, mutably.
    #[inline]
    pub fn get_mut(&mut self, key: &[Id]) -> Option<&mut V> {
        match self {
            IdMap::Narrow { map, .. } => map.get_mut(&pack(key.iter().copied())),
            IdMap::Wide { map, .. } => map.get_mut(&pack_wide(key.iter().copied())),
            IdMap::Boxed(map) => map.get_mut(key),
        }
    }

    /// Set the entry under `key` to `v`.
    #[inline]
    pub fn insert(&mut self, key: &[Id], v: V) {
        match self {
            IdMap::Narrow { map, .. } => {
                map.insert(pack(key.iter().copied()), v);
            }
            IdMap::Wide { map, .. } => {
                map.insert(pack_wide(key.iter().copied()), v);
            }
            IdMap::Boxed(map) => {
                map.insert(key.into(), v);
            }
        }
    }

    /// Remove the entry under `key`, if any.
    #[inline]
    pub fn remove(&mut self, key: &[Id]) {
        match self {
            IdMap::Narrow { map, .. } => {
                map.remove(&pack(key.iter().copied()));
            }
            IdMap::Wide { map, .. } => {
                map.remove(&pack_wide(key.iter().copied()));
            }
            IdMap::Boxed(map) => {
                map.remove(key);
            }
        }
    }

    /// Every entry with its key, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (Ids<'_>, &V)> {
        let (narrow, wide, boxed) = match self {
            IdMap::Narrow { arity, map } => (Some((*arity, map)), None, None),
            IdMap::Wide { arity, map } => (None, Some((*arity, map)), None),
            IdMap::Boxed(map) => (None, None, Some(map)),
        };
        let narrow = narrow.into_iter().flat_map(|(n, map)| {
            map.iter()
                .map(move |(&k, v)| (unpack(n, |shift| (k >> shift) as Id), v))
        });
        let wide = wide.into_iter().flat_map(|(n, map)| {
            map.iter()
                .map(move |(&k, v)| (unpack(n, |shift| (k >> shift) as Id), v))
        });
        let boxed = boxed.into_iter().flatten();
        narrow
            .chain(wide)
            .chain(boxed.map(|(k, v)| (Ids::Boxed(k), v)))
    }

    /// Every entry's value, in table order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreferenced_ids_are_freed_and_reused() {
        let mut d = Dict::default();
        let a = d.encode(&Value::Int(7));
        let b = d.encode(&Value::str("x"));
        assert_eq!(d.encode(&Value::Int(7)), a);
        d.retain(a);
        d.sweep();
        // `b` passed through without a reference.
        assert_eq!((d.live(), d.value(a)), (1, &Value::Int(7)));
        let c = d.encode(&Value::Int(8));
        assert_eq!(c, b, "a freed id is reused");
        d.release(a);
        d.retain(a);
        d.sweep();
        assert_eq!(d.value(a), &Value::Int(7), "re-retained before the sweep");
        d.release(a);
        d.sweep();
        assert_eq!((d.live(), d.capacity()), (0, 2));
    }

    #[test]
    #[should_panic(expected = "bounded by 2^32 stored columns")]
    fn reference_count_overflow_panics() {
        let mut d = Dict::default();
        let a = d.encode(&Value::Int(1));
        d.refs[a as usize] = u32::MAX;
        d.retain(a);
    }

    #[test]
    fn an_int_and_its_string_get_distinct_ids() {
        let mut d = Dict::default();
        let (i, s) = (d.encode(&Value::Int(1)), d.encode(&Value::str("1")));
        assert_ne!(i, s);
        assert_eq!(d.lookup(&Value::str("1")), Some(s));
        assert_eq!(d.lookup(&Value::Int(2)), None);
        assert_eq!(d.live(), 2, "a lookup assigns nothing");
    }

    #[test]
    fn every_width_round_trips_its_keys() {
        for arity in 1..=6 {
            let mut m: IdMap<usize> = IdMap::new(arity);
            let key = |i: u32| -> Vec<Id> { (0..arity as u32).map(|c| i * 7 + c).collect() };
            for i in 0..100 {
                m.insert(&key(i), i as usize);
            }
            m.remove(&key(3));
            assert_eq!(m.len(), 99, "arity {arity}");
            assert!(m.get(&key(3)).is_none());
            for (k, &v) in m.iter() {
                assert_eq!(*k, *key(v as u32), "arity {arity}");
                let pos: Vec<usize> = (0..arity).rev().collect();
                let rev: Vec<Id> = k.iter().rev().copied().collect();
                assert_eq!(m.get_at(&rev, &pos, &mut Vec::new()), Some(&v));
            }
        }
    }

    #[test]
    fn wide_keys_spread_over_the_low_hash_bits() {
        use std::hash::BuildHasher;
        // Keys differing only in their first id must not share a bucket.
        let hasher = BuildHasherDefault::<PackedHasher>::default();
        let buckets: std::collections::HashSet<u64> = (0..64u32)
            .map(|a| hasher.hash_one(pack_wide([a, 5, 9].into_iter())) & 0x3f)
            .collect();
        assert!(buckets.len() > 32, "poor low-bit dispersion");
    }
}
