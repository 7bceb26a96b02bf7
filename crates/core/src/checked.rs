//! The checked batch: the ingestion rule's only output.

use crate::error::EngineError;
use ivm_data::{DeltaBatch, Entry, FxHashSet, Sym, Tuple, Update};
use ivm_query::Atom;
use ivm_ring::Semiring;
use std::borrow::Cow;
use std::cell::OnceCell;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A batch that passed the ingestion rule ([`CheckedBatch::new`]), checked
/// once where it enters; the first layer that asks consolidates it, once
/// (ring payloads make a batch's effect order-independent, Sec. 2). Parts
/// cut from it stay checked. A consumer reads it against atoms that agree
/// with the checked ones on every relation it names: a query's own, or a
/// serve node's restricted to one group's dynamic relations.
pub struct CheckedBatch<'a, R> {
    /// The caller's updates; `None` for a part cut from another batch.
    updates: Option<&'a [Update<R>]>,
    delta: OnceCell<DeltaBatch<'a, R>>,
}

/// Debug builds count `[rule runs, consolidations]`, process-wide, so a
/// test can pin both to once per batch.
#[cfg(debug_assertions)]
pub static COUNTS: [AtomicU64; 2] = [const { AtomicU64::new(0) }; 2];

impl<'a, R: Semiring> CheckedBatch<'a, R> {
    /// The ingestion rule over `atoms`: every update must name a relation
    /// some atom reads ([`EngineError::UnknownRelation`]), dynamic in one
    /// of those atoms ([`EngineError::StaticRelation`], Sec. 4.5), with a
    /// tuple of that atom's arity ([`EngineError::ArityMismatch`]). The
    /// first update that breaks it refuses the whole batch. Allocates
    /// nothing.
    pub fn new<'q>(
        atoms: impl IntoIterator<Item = &'q Atom> + Clone,
        batch: &'a [Update<R>],
    ) -> Result<Self, EngineError> {
        #[cfg(debug_assertions)]
        COUNTS[0].fetch_add(1, Relaxed);
        for upd in batch {
            let relation = upd.relation;
            let mut named = atoms.clone().into_iter().filter(|a| a.name == relation);
            let atom = match named.next() {
                None => return Err(EngineError::UnknownRelation(relation)),
                Some(a) if a.dynamic => a,
                Some(_) => named
                    .find(|a| a.dynamic)
                    .ok_or(EngineError::StaticRelation(relation))?,
            };
            let (declared, got) = (atom.schema.arity(), upd.tuple.arity());
            if declared != got {
                return Err(EngineError::ArityMismatch {
                    relation,
                    declared,
                    got,
                });
            }
        }
        Ok(CheckedBatch {
            updates: Some(batch),
            delta: OnceCell::new(),
        })
    }

    fn part(delta: DeltaBatch<'static, R>) -> CheckedBatch<'static, R> {
        CheckedBatch {
            updates: None,
            delta: delta.into(),
        }
    }

    /// The caller's batch length, or a part's entry count.
    pub fn len(&self) -> usize {
        self.updates.map_or_else(|| self.delta().len(), <[_]>::len)
    }

    /// Whether it holds no update.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The caller's updates as sent (what a journal appends), or a part's
    /// entries as updates.
    pub fn updates(&self) -> Cow<'_, [Update<R>]> {
        let entries = || Cow::Owned(self.delta().to_updates());
        self.updates.map_or_else(entries, Cow::Borrowed)
    }

    /// The consolidated batch; the first call consolidates.
    pub fn delta(&self) -> &DeltaBatch<'a, R> {
        self.delta.get_or_init(|| {
            #[cfg(debug_assertions)]
            COUNTS[1].fetch_add(1, Relaxed);
            DeltaBatch::from_updates(self.updates.unwrap_or_default())
        })
    }

    /// The consolidated entries. A one-update batch is its own
    /// consolidation: it yields itself (nothing, if its payload is zero)
    /// and allocates nothing.
    pub fn entries(&self) -> impl Iterator<Item = Entry<'_, R>> {
        let single = match self.updates {
            Some([upd]) if self.delta.get().is_none() => Some(upd),
            _ => None,
        };
        let many = single.is_none().then(|| self.delta());
        let single = single.filter(|u| !u.payload.is_zero()).map(Update::entry);
        single
            .into_iter()
            .chain(many.into_iter().flat_map(DeltaBatch::iter))
    }

    /// Hash-partition the consolidated entries into `parts` checked
    /// parts: `route` sends an entry to part `p mod parts` alone
    /// (`Some(p)`) or, broadcast, to every part (`None`). Sound because
    /// delta propagation is ring-linear — the parts' output deltas ⊎-merge
    /// to the batch's — and cancelled work is never cloned.
    pub fn split(
        &self,
        parts: usize,
        mut route: impl FnMut(Sym, &Tuple) -> Option<usize>,
    ) -> Vec<CheckedBatch<'static, R>> {
        assert!(parts > 0, "cannot partition into zero parts");
        let mut out: Vec<DeltaBatch<'static, R>> = (0..parts).map(|_| DeltaBatch::new()).collect();
        for (rel, t, r) in self.delta().iter() {
            let dest = route(rel, t).map_or(0..parts, |p| p % parts..p % parts + 1);
            for part in &mut out[dest] {
                part.insert_consolidated(rel, t.clone(), r.clone());
            }
        }
        out.into_iter().map(CheckedBatch::part).collect()
    }

    /// The consolidated entries of `relations` alone, as a checked part.
    pub fn restrict(&self, relations: &FxHashSet<Sym>) -> CheckedBatch<'static, R> {
        let mut part = DeltaBatch::new();
        for (rel, t, r) in self.delta().iter().filter(|e| relations.contains(&e.0)) {
            part.insert_consolidated(rel, t.clone(), r.clone());
        }
        CheckedBatch::part(part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::{sym, tup, vars};

    fn atoms() -> (Vec<Atom>, Sym, Sym) {
        let [a, b] = vars(["chk_A", "chk_B"]);
        let (r, s) = (sym("chk_R"), sym("chk_S"));
        (vec![Atom::new(r, [a, b]), Atom::new_static(s, [a])], r, s)
    }

    #[test]
    fn the_rule_refuses_whole_batches() {
        let (atoms, r, s) = atoms();
        let ok = Update::<i64>::insert(r, tup![1i64, 2i64]);
        let refuse = |bad: Update<i64>| CheckedBatch::new(&atoms, &[ok.clone(), bad]).err();
        assert_eq!(
            refuse(Update::insert(r, tup![1i64])),
            Some(EngineError::ArityMismatch {
                relation: r,
                declared: 2,
                got: 1
            })
        );
        assert_eq!(
            refuse(Update::insert(s, tup![1i64])),
            Some(EngineError::StaticRelation(s))
        );
        let nope = sym("chk_Nope");
        assert_eq!(
            refuse(Update::insert(nope, tup![1i64])),
            Some(EngineError::UnknownRelation(nope))
        );
    }

    #[test]
    fn one_update_gives_itself_and_more_consolidate_once() {
        let (atoms, r, _) = atoms();
        let one = [Update::<i64>::insert(r, tup![1i64, 2i64])];
        let checked = CheckedBatch::new(&atoms, &one).unwrap();
        let got: Vec<_> = checked.entries().collect();
        assert_eq!(got, vec![(r, &tup![1i64, 2i64], &1)]);
        assert!(checked.delta.get().is_none(), "no consolidation for one");

        let zero = [Update::<i64>::with_payload(r, tup![1i64, 2i64], 0)];
        let checked = CheckedBatch::new(&atoms, &zero).unwrap();
        assert_eq!(checked.entries().count(), 0);

        let batch = [
            Update::<i64>::insert(r, tup![1i64, 2i64]),
            Update::insert(r, tup![3i64, 4i64]),
            Update::delete(r, tup![1i64, 2i64]),
        ];
        let checked = CheckedBatch::new(&atoms, &batch).unwrap();
        assert_eq!(checked.len(), 3, "the caller's batch length");
        let got: Vec<_> = checked.entries().collect();
        assert_eq!(got, vec![(r, &tup![3i64, 4i64], &1)]);
        assert!(std::ptr::eq(checked.delta(), checked.delta()));
        assert_eq!(checked.updates().len(), 3, "the journal sees the batch");
    }

    #[test]
    fn parts_stay_checked_and_consolidated() {
        let (atoms, r, _) = atoms();
        let batch: Vec<Update<i64>> = (0..6i64).map(|i| Update::insert(r, tup![i, i])).collect();
        let checked = CheckedBatch::new(&atoms, &batch).unwrap();
        let parts = checked.split(2, |_, t| Some(t.at(0).as_int().unwrap() as usize));
        assert_eq!(parts.iter().map(|p| p.len()).collect::<Vec<_>>(), [3, 3]);
        assert!(parts.iter().all(|p| p.updates().len() == 3));
        let only_r: FxHashSet<Sym> = [r].into_iter().collect();
        assert_eq!(checked.restrict(&only_r).len(), 6);
        assert!(checked.restrict(&FxHashSet::default()).is_empty());
    }

    /// The entries of `rel` in `b`.
    fn tuples<'b>(b: &'b DeltaBatch<i64>, rel: Sym) -> impl Iterator<Item = (&'b Tuple, &'b i64)> {
        b.iter().filter(move |e| e.0 == rel).map(|(_, t, r)| (t, r))
    }

    #[test]
    fn partition_by_splits_and_broadcasts() {
        let [a] = vars(["chk_PA"]);
        let (r, s) = (sym("chk_P1"), sym("chk_P2"));
        let atoms = [Atom::new(r, [a]), Atom::new(s, [a])];
        let ups: Vec<Update<i64>> = vec![
            Update::with_payload(r, tup![0i64], 1),
            Update::with_payload(r, tup![1i64], 2),
            Update::with_payload(r, tup![2i64], 3),
            Update::with_payload(s, tup![7i64], 4),
        ];
        let b = CheckedBatch::new(&atoms, &ups).unwrap();
        let parts = b.split(2, |rel, t| {
            if rel == r {
                Some(t.at(0).as_int().unwrap() as usize % 2)
            } else {
                None // broadcast s
            }
        });
        assert_eq!(parts.len(), 2);
        assert_eq!(tuples(parts[0].delta(), r).count(), 2); // tuples 0, 2
        assert_eq!(tuples(parts[1].delta(), r).count(), 1); // tuple 1
        for p in &parts {
            let broadcast: Vec<_> = tuples(p.delta(), s).collect();
            assert_eq!(broadcast, [(&tup![7i64], &4)]);
        }
        // ⊎ of the parts re-consolidates to the original batch (the
        // broadcast relation appears once per part; summing is the merge
        // semantics a sharded *output* merge relies on, so here we only
        // check the partitioned relation round-trips exactly).
        let flat: Vec<Update<i64>> = parts
            .iter()
            .flat_map(|p| p.updates().into_owned())
            .collect();
        let merged = DeltaBatch::from_updates(flat.iter().filter(|u| u.relation == r));
        let sorted = |b: &DeltaBatch<i64>| {
            let mut v: Vec<(Tuple, i64)> = tuples(b, r).map(|(t, &p)| (t.clone(), p)).collect();
            v.sort();
            v
        };
        assert_eq!(sorted(&merged), sorted(b.delta()));
    }

    #[test]
    fn partition_by_drops_cancelled_entries_before_routing() {
        let [a] = vars(["chk_PA"]);
        let r = sym("chk_P3");
        let atoms = [Atom::new(r, [a])];
        let ups: Vec<Update<i64>> = vec![
            Update::insert(r, tup![1i64]),
            Update::delete(r, tup![1i64]),
            Update::insert(r, tup![2i64]),
        ];
        let parts = CheckedBatch::new(&atoms, &ups)
            .unwrap()
            .split(4, |_, _| None);
        for p in &parts {
            assert_eq!(p.len(), 1, "only the surviving entry is broadcast");
        }
    }
}
