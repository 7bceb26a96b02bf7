//! Tuples: the keys of relations.

use crate::value::Value;
use std::fmt;

/// An ordered tuple of [`Value`]s over some schema.
///
/// Stored as a boxed slice (two words on the stack) — tuples are hash-map
/// keys and get cloned on insertion, so compactness matters more than
/// in-place mutation, which only reused output rows use
/// ([`Tuple::values_mut`]; a map never hands out a mutable key).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(Box<[Value]>);

impl Tuple {
    /// The empty tuple `()` over the empty schema.
    pub fn empty() -> Self {
        Tuple(Box::from([]))
    }

    /// Build a tuple from values.
    pub fn new(values: impl IntoIterator<Item = Value>) -> Self {
        Tuple(values.into_iter().collect())
    }

    /// Arity of the tuple.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Whether this is the empty tuple.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value at position `i`.
    pub fn at(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// All values, writable in place: an enumerator emits every output
    /// through one reused row instead of boxing a tuple per output.
    pub fn values_mut(&mut self) -> &mut [Value] {
        &mut self.0
    }

    /// Project onto the given positions (π in the paper's notation, with
    /// positions resolved from schemas by the caller).
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple(positions.iter().map(|&p| self.0[p].clone()).collect())
    }

    /// Concatenate two tuples (used when joining on disjoint schemas).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple(self.0.iter().chain(other.0.iter()).cloned().collect())
    }
}

/// Lets a `HashMap<Tuple, _>` be probed with a borrowed `&[Value]` key —
/// no boxed tuple per lookup. Sound because the derived `Hash`/`Eq` of the
/// newtype delegate to the boxed slice's, i.e. agree with `[Value]`'s; a
/// manual `Hash` impl on `Tuple` must keep that (see the contract test).
impl std::borrow::Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl<V: Into<Value>, const N: usize> From<[V; N]> for Tuple {
    fn from(values: [V; N]) -> Self {
        Tuple(values.into_iter().map(Into::into).collect())
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:?}")?;
        }
        write!(f, ")")
    }
}

/// Build a [`Tuple`] from a heterogeneous list of values.
///
/// ```
/// use ivm_data::tup;
/// let t = tup![1i64, "a", 3i64];
/// assert_eq!(t.arity(), 3);
/// ```
#[macro_export]
macro_rules! tup {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new([$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tuple::from([1i64, 2, 3]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.at(1), &Value::from(2i64));
    }

    #[test]
    fn empty_tuple() {
        let t = Tuple::empty();
        assert!(t.is_empty());
        assert_eq!(t, Tuple::new([]));
    }

    #[test]
    fn projection() {
        let t = tup![10i64, "x", 30i64];
        assert_eq!(t.project(&[2, 0]), tup![30i64, 10i64]);
        assert_eq!(t.project(&[]), Tuple::empty());
    }

    #[test]
    fn values_mut_rewrites_in_place() {
        let mut t = tup![1i64, "a"];
        t.values_mut()[1] = Value::from(2i64);
        assert_eq!(t, tup![1i64, 2i64]);
    }

    #[test]
    fn concat() {
        let a = tup![1i64];
        let b = tup!["y", 2i64];
        assert_eq!(a.concat(&b), tup![1i64, "y", 2i64]);
    }

    #[test]
    fn macro_mixes_types() {
        let t = tup![7i64, "abc"];
        assert_eq!(t.at(0).as_int(), Some(7));
        assert_eq!(t.at(1).as_str(), Some("abc"));
    }

    #[test]
    fn hash_eq_projection_consistent() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(tup![1i64, 2i64].project(&[0]));
        assert!(set.contains(&tup![1i64]));
    }

    /// The `Borrow<[Value]>` contract the multiway join's borrowed-key
    /// probes rest on: a tuple and its value slice hash and compare alike,
    /// so a `&[Value]` finds the entry its `Tuple` was inserted under.
    #[test]
    fn borrow_slice_contract() {
        use crate::hash::{FxBuildHasher, FxHashMap};
        use std::borrow::Borrow;
        use std::collections::hash_map::RandomState;
        use std::hash::BuildHasher;

        let pool = [
            Value::from(7i64),
            Value::str("x"),
            Value::from(-1i64),
            Value::str(""),
        ];
        let default_hasher = RandomState::new();
        let mut map: FxHashMap<Tuple, usize> = FxHashMap::default();
        // Every arity 0..=4, every rotation of the mixed Int/Str pool.
        let tuples: Vec<Tuple> = (0..=4)
            .flat_map(|n| (0..4).map(move |r| (n, r)))
            .map(|(n, r)| Tuple::new((0..n).map(|i| pool[(i + r) % 4].clone())))
            .collect();
        for (i, t) in tuples.iter().enumerate() {
            let slice: &[Value] = t.borrow();
            assert_eq!(slice, t.values());
            assert_eq!(
                FxBuildHasher::default().hash_one(t),
                FxBuildHasher::default().hash_one(t.values()),
                "Fx hash of {t:?} differs from its slice's"
            );
            assert_eq!(
                default_hasher.hash_one(t),
                default_hasher.hash_one(t.values()),
                "default hash of {t:?} differs from its slice's"
            );
            map.entry(t.clone()).or_insert(i);
        }
        for t in &tuples {
            let key: Vec<Value> = t.values().to_vec();
            assert_eq!(map.get(&key[..]), map.get(t), "slice probe missed {t:?}");
            assert!(map.contains_key(&key[..]));
        }
    }
}
