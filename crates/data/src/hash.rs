//! A vendored FxHash-style hasher.
//!
//! Relations are hash maps keyed by short tuples of mostly-integer values;
//! SipHash's HashDoS resistance buys nothing here and costs measurably on
//! every probe. This is the rustc/Firefox Fx algorithm (multiply-xor-rotate),
//! ~30 lines, vendored because the workspace builds offline from path
//! dependencies only (README, "Vendored dependency shims").

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Fx hash (64-bit golden-ratio mix).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher state.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"abc"), hash_of(&"abc"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"abc"), hash_of(&"abd"));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        for i in 0..1000 {
            assert_eq!(m[&i], i * 2);
        }
    }

    #[test]
    fn spreads_sequential_keys() {
        // Sanity check the mix: sequential keys should not collide in the
        // low bits used for bucketing.
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..64u64 {
            low_bits.insert(hash_of(&i) & 0x3f);
        }
        assert!(low_bits.len() > 32, "poor low-bit dispersion");
    }
}
