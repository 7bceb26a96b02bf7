//! Updates and batches.
//!
//! An update is a tuple with a ring payload: positive for inserts, negative
//! for deletes (Sec. 2). Because payloads live in a ring, a batch's
//! cumulative effect is independent of execution order — the property the
//! paper leverages for out-of-order and distributed execution.

use crate::schema::Sym;
use crate::tuple::Tuple;
use ivm_ring::{Ring, Semiring};

/// A single-tuple update to one relation.
#[derive(Clone, Debug, PartialEq)]
pub struct Update<R> {
    /// The relation being updated.
    pub relation: Sym,
    /// The affected tuple.
    pub tuple: Tuple,
    /// The payload delta (`+k` insert, `-k` delete in `Z`).
    pub payload: R,
}

impl<R: Semiring> Update<R> {
    /// Insert one derivation of `tuple` into `relation`.
    pub fn insert(relation: Sym, tuple: Tuple) -> Self {
        Update {
            relation,
            tuple,
            payload: R::one(),
        }
    }

    /// An update with an explicit payload delta.
    pub fn with_payload(relation: Sym, tuple: Tuple, payload: R) -> Self {
        Update {
            relation,
            tuple,
            payload,
        }
    }
}

impl<R: Ring> Update<R> {
    /// Delete one derivation of `tuple` from `relation`.
    pub fn delete(relation: Sym, tuple: Tuple) -> Self {
        Update {
            relation,
            tuple,
            payload: R::one().neg(),
        }
    }

    /// The inverse update (insert ↔ delete).
    pub fn inverse(&self) -> Self {
        Update {
            relation: self.relation,
            tuple: self.tuple.clone(),
            payload: self.payload.neg(),
        }
    }
}

/// One update's `(relation, tuple, payload)`, as batches hand entries out.
pub type Entry<'a, R> = (Sym, &'a Tuple, &'a R);

impl<R> Update<R> {
    /// This update as an [`Entry`].
    pub fn entry(&self) -> Entry<'_, R> {
        (self.relation, &self.tuple, &self.payload)
    }
}

/// An ordered sequence of single-tuple updates.
pub type Batch<R> = Vec<Update<R>>;

/// A batch consolidated by [`DeltaBatch`](crate::DeltaBatch) and
/// flattened back to updates (order unspecified).
pub fn consolidate<R: Semiring>(batch: &[Update<R>]) -> Batch<R> {
    crate::DeltaBatch::from_updates(batch).to_updates()
}

/// Deterministic shard assignment for one value: `FxHash(v) mod parts`.
///
/// The hash has no per-process random seed, so the same value lands on the
/// same shard across runs, processes, and machines — a precondition for
/// comparing sharded and unsharded runs, and later for multi-node routing.
pub fn shard_of(v: &crate::value::Value, parts: usize) -> usize {
    use std::hash::BuildHasher;
    assert!(parts > 0, "cannot partition into zero parts");
    (crate::hash::FxBuildHasher::default().hash_one(v) % parts as u64) as usize
}

/// Deterministic shard assignment for one tuple column:
/// [`shard_of`]`(t[column], parts)`.
pub fn shard_of_column(t: &Tuple, column: usize, parts: usize) -> usize {
    shard_of(t.at(column), parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::sym;
    use crate::tup;

    #[test]
    fn insert_delete_payloads() {
        let r = sym("upd_R");
        let ins: Update<i64> = Update::insert(r, tup![1i64]);
        let del: Update<i64> = Update::delete(r, tup![1i64]);
        assert_eq!(ins.payload, 1);
        assert_eq!(del.payload, -1);
        assert_eq!(ins.inverse(), del);
    }

    #[test]
    fn explicit_payload() {
        let r = sym("upd_R");
        let u: Update<i64> = Update::with_payload(r, tup![2i64], -2);
        assert_eq!(u.payload, -2);
        assert_eq!(u.inverse().payload, 2);
    }

    #[test]
    fn consolidate_merges_and_cancels() {
        let (r, s) = (sym("upd_cR"), sym("upd_cS"));
        let batch: Batch<i64> = vec![
            Update::with_payload(r, tup![1i64], 2),
            Update::with_payload(r, tup![1i64], 3),
            Update::with_payload(s, tup![1i64], 1),
            Update::with_payload(s, tup![1i64], -1),
            Update::with_payload(r, tup![2i64], 0),
        ];
        let mut c = consolidate(&batch);
        assert_eq!(c.len(), 1);
        let u = c.pop().unwrap();
        assert_eq!((u.relation, u.payload), (r, 5));
    }

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        use crate::value::Value;
        for parts in [1usize, 2, 4, 8] {
            for i in 0..64i64 {
                let v = Value::from(i);
                let s = shard_of(&v, parts);
                assert!(s < parts);
                assert_eq!(s, shard_of(&v, parts), "same value, same shard");
            }
        }
        // Strings shard by contents, not by pointer identity.
        assert_eq!(
            shard_of(&Value::str("hub"), 4),
            shard_of(&Value::str(String::from("hub").as_str()), 4)
        );
    }

    #[test]
    fn shard_of_spreads_values() {
        use crate::value::Value;
        let parts = 4;
        let mut hit = vec![false; parts];
        for i in 0..64i64 {
            hit[shard_of(&Value::from(i), parts)] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 values must reach all 4 shards");
    }

    #[test]
    fn consolidate_distinguishes_relations() {
        let (r, s) = (sym("upd_dR"), sym("upd_dS"));
        let batch: Batch<i64> = vec![
            Update::with_payload(r, tup![1i64], 1),
            Update::with_payload(s, tup![1i64], 1),
        ];
        assert_eq!(consolidate(&batch).len(), 2);
    }
}
