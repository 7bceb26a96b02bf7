//! Domain values.
//!
//! Engines that work over arbitrary schemas carry [`Value`]s. Two kinds of
//! state hash integer ids instead: the heavy-light view plans are generic
//! over the key, and the OuMv reduction runs the triangle plan at raw
//! `u64` ids; the dataflow multiway join and the factorized view tree
//! dictionary-encode each value they receive to a dense `u32` id
//! ([`crate::ids`]), decoding back to a `Value` only where it leaves them:
//! a lift or an output tuple.

use std::fmt;
use std::sync::Arc;

/// A single domain value: integer or string.
///
/// Strings are `Arc<str>` so tuple clones are cheap; integer values are the
/// common case in every workload of the paper.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Integer value (ids, dates, counts, buckets).
    Int(i64),
    /// Interned-ish string value (shared, cheap to clone).
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Str(_) => None,
        }
    }

    /// The string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Int(_) => None,
            Value::Str(s) => Some(s),
        }
    }

    /// The integer payload as `f64`, for lifting numeric features.
    ///
    /// Returns `0.0` for strings (non-numeric features must be one-hot
    /// encoded by the caller before lifting).
    pub fn to_f64(&self) -> f64 {
        match self {
            Value::Int(v) => *v as f64,
            Value::Str(_) => 0.0,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip() {
        let v = Value::from(42i64);
        assert_eq!(v.as_int(), Some(42));
        assert_eq!(v.as_str(), None);
        assert_eq!(v.to_f64(), 42.0);
    }

    #[test]
    fn str_roundtrip() {
        let v = Value::str("hello");
        assert_eq!(v.as_str(), Some("hello"));
        assert_eq!(v.as_int(), None);
    }

    #[test]
    fn equality_and_hash_consistency() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::from(1i64));
        set.insert(Value::str("1"));
        assert_eq!(set.len(), 2, "Int(1) and Str(\"1\") are distinct");
        assert!(set.contains(&Value::from(1i64)));
    }

    #[test]
    fn ordering_is_total() {
        let mut vals = [Value::str("b"), Value::from(2i64), Value::from(1i64)];
        vals.sort();
        assert_eq!(vals[0], Value::from(1i64));
        assert_eq!(vals[1], Value::from(2i64));
    }

    #[test]
    fn clone_is_cheap_for_strings() {
        let v = Value::str("shared");
        let w = v.clone();
        assert_eq!(v, w);
    }
}
