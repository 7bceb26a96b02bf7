//! Consolidated update batches, the one consolidation algorithm. Ring
//! payloads make a batch's effect independent of execution order (Sec. 2),
//! so all updates to one `(relation, tuple)` collapse into one entry with
//! the summed payload, and entries that cancel to zero disappear.

use crate::hash::FxHashMap;
use crate::schema::Sym;
use crate::tuple::Tuple;
use crate::update::{Batch, Entry, Update};
use ivm_ring::Semiring;
use std::borrow::Cow;

/// A batch consolidated per `(relation, tuple)` in one table, whose keys
/// borrow the updates' tuples (owned parts clone them).
#[derive(Clone, Debug)]
pub struct DeltaBatch<'a, R> {
    entries: FxHashMap<(Sym, Cow<'a, Tuple>), R>,
}

impl<R: Semiring> Default for DeltaBatch<'_, R> {
    fn default() -> Self {
        DeltaBatch::new()
    }
}

impl<'a, R: Semiring> DeltaBatch<'a, R> {
    /// An empty batch.
    pub fn new() -> Self {
        DeltaBatch {
            entries: FxHashMap::default(),
        }
    }

    /// Consolidate a sequence of single-tuple updates.
    pub fn from_updates(updates: impl IntoIterator<Item = &'a Update<R>>) -> Self {
        let mut batch = DeltaBatch::new();
        for u in updates {
            batch.push(u);
        }
        batch
    }

    /// Merge one update in, cancelling to zero where possible.
    pub fn push(&mut self, upd: &'a Update<R>) {
        if upd.payload.is_zero() {
            return;
        }
        match self
            .entries
            .entry((upd.relation, Cow::Borrowed(&upd.tuple)))
        {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().add_assign(&upd.payload);
                if e.get().is_zero() {
                    e.remove();
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(upd.payload.clone());
            }
        }
    }

    /// Every entry, in the order [`Self::to_updates`] lists them.
    pub fn iter(&self) -> impl Iterator<Item = Entry<'_, R>> {
        self.entries.iter().map(|((rel, t), r)| (*rel, &**t, r))
    }

    /// Total number of distinct `(relation, tuple)` entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether every update cancelled out.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Flatten back into single-tuple updates (order unspecified).
    pub fn to_updates(&self) -> Batch<R> {
        self.iter()
            .map(|(rel, t, r)| Update::with_payload(rel, t.clone(), r.clone()))
            .collect()
    }

    /// Insert a non-zero entry whose key the batch does not hold yet (keys
    /// from a consolidated batch or a relation are distinct).
    pub fn insert_consolidated(&mut self, rel: Sym, t: Tuple, r: R) {
        debug_assert!(!r.is_zero(), "consolidated entries are non-zero");
        self.entries.insert((rel, Cow::Owned(t)), r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sym, tup};

    /// The payload of `(rel, t)` in `b`, if it holds the entry.
    fn get(b: &DeltaBatch<i64>, rel: Sym, t: &Tuple) -> Option<i64> {
        tuples(b, rel).find(|&(u, _)| u == t).map(|(_, &r)| r)
    }

    /// The entries of `rel` in `b`.
    fn tuples<'b>(b: &'b DeltaBatch<i64>, rel: Sym) -> impl Iterator<Item = (&'b Tuple, &'b i64)> {
        b.iter().filter(move |e| e.0 == rel).map(|(_, t, r)| (t, r))
    }

    #[test]
    fn consolidates_same_tuple() {
        let r = sym("dbat_R");
        let ups: Vec<Update<i64>> = vec![
            Update::with_payload(r, tup![1i64], 2),
            Update::with_payload(r, tup![1i64], 3),
            Update::with_payload(r, tup![2i64], 1),
        ];
        let b = DeltaBatch::from_updates(&ups);
        assert_eq!(b.len(), 2);
        assert_eq!(get(&b, r, &tup![1i64]), Some(5));
    }

    #[test]
    fn cancelling_updates_vanish() {
        let r = sym("dbat_R2");
        let ups: Vec<Update<i64>> = vec![
            Update::with_payload(r, tup![1i64], 2),
            Update::with_payload(r, tup![1i64], -2),
        ];
        let b = DeltaBatch::from_updates(&ups);
        assert!(b.is_empty());
        assert_eq!(tuples(&b, r).count(), 0);
    }

    #[test]
    fn zero_payload_updates_ignored() {
        let r = sym("dbat_R3");
        let zero = Update::with_payload(r, tup![1i64], 0);
        let mut b: DeltaBatch<i64> = DeltaBatch::new();
        b.push(&zero);
        assert!(b.is_empty());
    }

    #[test]
    fn empty_batch_is_empty_everywhere() {
        let none: [Update<i64>; 0] = [];
        let b = DeltaBatch::from_updates(&none);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.iter().count(), 0);
        assert!(b.to_updates().is_empty());
    }

    #[test]
    fn reinsert_after_delete_survives() {
        // +1, −1, +1 on one tuple: the middle pair annihilates but the
        // final insert must come through with multiplicity exactly 1.
        let r = sym("dbat_R5");
        let ups: Vec<Update<i64>> = vec![
            Update::insert(r, tup![7i64]),
            Update::delete(r, tup![7i64]),
            Update::insert(r, tup![7i64]),
        ];
        let b = DeltaBatch::from_updates(&ups);
        assert_eq!(b.len(), 1);
        assert_eq!(get(&b, r, &tup![7i64]), Some(1));
    }

    #[test]
    fn zero_annihilation_is_per_tuple_not_per_relation() {
        // One tuple cancels, its sibling in the same relation must not.
        let r = sym("dbat_R6");
        let ups: Vec<Update<i64>> = vec![
            Update::with_payload(r, tup![1i64], 2),
            Update::with_payload(r, tup![2i64], 5),
            Update::with_payload(r, tup![1i64], -2),
        ];
        let b = DeltaBatch::from_updates(&ups);
        assert_eq!(b.len(), 1);
        assert_eq!(get(&b, r, &tup![1i64]), None);
        assert_eq!(get(&b, r, &tup![2i64]), Some(5));
    }

    #[test]
    fn relation_entry_vanishes_when_all_tuples_cancel() {
        // A relation whose every delta annihilates leaves no entry — an
        // engine reads "this relation changed" off its tuples.
        let (r, s) = (sym("dbat_R7"), sym("dbat_S7"));
        let ups: Vec<Update<i64>> = vec![
            Update::insert(r, tup![1i64]),
            Update::insert(s, tup![9i64]),
            Update::delete(r, tup![1i64]),
        ];
        let again = [Update::insert(r, tup![1i64]), Update::delete(r, tup![1i64])];
        let mut b = DeltaBatch::from_updates(&ups);
        let rels: Vec<_> = b.iter().map(|(rel, _, _)| rel).collect();
        assert_eq!(rels, vec![s]);
        // Pushing the cancelling pair again onto the live batch keeps s.
        b.push(&again[0]);
        b.push(&again[1]);
        assert_eq!(b.len(), 1);
        assert_eq!(tuples(&b, r).count(), 0);
    }

    #[test]
    fn delete_of_absent_tuple_carries_negative_multiplicity() {
        // Deletes need no prior insert: the batch faithfully records the
        // negative delta and downstream relations go negative (Sec. 2).
        let r = sym("dbat_R8");
        let ups: Vec<Update<i64>> = vec![Update::delete(r, tup![3i64])];
        let b = DeltaBatch::from_updates(&ups);
        assert_eq!(get(&b, r, &tup![3i64]), Some(-1));
    }

    #[test]
    fn roundtrip_to_updates() {
        let (r, s) = (sym("dbat_R4"), sym("dbat_S4"));
        let ups: Vec<Update<i64>> = vec![
            Update::with_payload(r, tup![1i64], 1),
            Update::with_payload(s, tup![2i64], -1),
        ];
        let b = DeltaBatch::from_updates(&ups);
        let back = b.to_updates();
        assert_eq!(back.len(), 2);
        let again = DeltaBatch::from_updates(&back);
        assert_eq!(again.len(), b.len());
    }
}
