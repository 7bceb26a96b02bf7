//! The common maintenance interface (Fig 1 of the paper): preprocess,
//! update, enumerate — and the one rule every batch must pass to be
//! accepted.

use crate::error::EngineError;
use ivm_data::{consolidate, Relation, Sym, Tuple, Update};
use ivm_query::{Atom, Query};
use ivm_ring::Semiring;
use std::borrow::Cow;

/// A maintenance engine for one query.
///
/// The trait mirrors the paper's cost decomposition: construction +
/// [`Maintainer::apply_batch`] cover preprocessing and update time, while
/// [`Maintainer::for_each_output`] exposes enumeration (the callback is
/// invoked once per output tuple; delay is the gap between invocations).
///
/// The trait is **batch-first**: [`Maintainer::apply_batch`] is the one
/// ingestion method an engine implements — specialized view-tree
/// engines, the generic dataflow engine, the sharded fleet and the
/// session all accept the same `&[Update<R>]` slice, so callers never
/// branch on the engine kind. [`Maintainer::apply`] is provided: a
/// one-update batch.
///
/// **The ingestion rule.** Every `apply_batch` first passes its batch to
/// [`check_updates`], once, before it touches any state: each update
/// must name a relation of the query, dynamic in at least one of its
/// atoms (an update to a static relation is refused, Sec. 4.5), with a
/// tuple of that atom's arity. A batch that breaks the rule anywhere is
/// refused whole — [`EngineError::UnknownRelation`],
/// [`EngineError::StaticRelation`] or [`EngineError::ArityMismatch`] —
/// and the engine serves the next batch as if the refused one had never
/// arrived. The same function guards `ShardedEngine::enqueue_batch`
/// (before anything is routed), `Session`'s ingestion (before the
/// journal) and `ServeNode::apply_batch` (over the atoms its
/// subscriptions have declared).
///
/// `for_each_output` takes `&mut self` because lazy engines refresh their
/// state on an enumeration request.
pub trait Maintainer<R: Semiring> {
    /// The maintained query.
    fn query(&self) -> &Query;

    /// Apply a single-tuple update: a batch of one.
    fn apply(&mut self, upd: &Update<R>) -> Result<(), EngineError> {
        self.apply_batch(std::slice::from_ref(upd)).map(|_| ())
    }

    /// Check the batch against the ingestion rule (see the trait docs),
    /// apply it, and return the **output delta this call propagated**.
    ///
    /// The batch is consolidated per `(relation, tuple)` — sound because
    /// ring payloads make batch effects order-independent (Sec. 2) — so
    /// mutually cancelling updates cost nothing. The final state always
    /// equals applying the updates one at a time.
    ///
    /// Return-value contract: `DataflowEngine` and `ShardedEngine` return
    /// the exact output delta from delta propagation, `EagerListEngine`
    /// from delta enumeration, and `HeavyLightEngine` as the count's
    /// change. `EagerFactEngine`, `LazyFactEngine`, `LazyListEngine`,
    /// `CqapEngine` and `FdEngine` still return an **empty relation**:
    /// their update paths do not materialize output deltas (eager-fact's
    /// O(1) view-tree updates, the lazy engines' deferred work), so a
    /// session or a serve group running `EagerFact` or `Cqap` hears no
    /// delta while its view changes.
    ///
    /// `ShardedEngine` poisons itself when a shard fails: the fleet's
    /// partitioned state is no longer trustworthy, so every subsequent
    /// `apply_batch`/`drain` fails fast with the original error rather
    /// than hanging on worker reports that will never arrive.
    fn apply_batch(&mut self, batch: &[Update<R>]) -> Result<Relation<R>, EngineError>;

    /// Enumerate the current output, one `(tuple, payload)` per call.
    fn for_each_output(&mut self, f: &mut dyn FnMut(&Tuple, &R));

    /// Materialize the output (convenience for tests and oracles).
    fn output(&mut self) -> Relation<R> {
        let free = self.query().free.clone();
        let mut out = Relation::new(free);
        self.for_each_output(&mut |t, r| {
            out.apply(t.clone(), r);
        });
        out
    }
}

/// The ingestion rule, over `(relation, tuple)` pairs so that it checks a
/// raw `&[Update]` and a consolidated `DeltaBatch` alike: every pair must
/// name a relation some atom of `atoms` reads
/// ([`EngineError::UnknownRelation`]), dynamic in at least one of those
/// atoms ([`EngineError::StaticRelation`], Sec. 4.5), with a tuple of that
/// atom's arity ([`EngineError::ArityMismatch`]). The first pair that
/// breaks it is reported. Scans the atoms per pair and allocates nothing.
pub fn check_updates<'q, 'u>(
    atoms: impl IntoIterator<Item = &'q Atom> + Clone,
    updates: impl IntoIterator<Item = (Sym, &'u Tuple)>,
) -> Result<(), EngineError> {
    for (relation, tuple) in updates {
        let mut named = atoms
            .clone()
            .into_iter()
            .filter(|a| a.name == relation)
            .peekable();
        if named.peek().is_none() {
            return Err(EngineError::UnknownRelation(relation));
        }
        let atom = named
            .find(|a| a.dynamic)
            .ok_or(EngineError::StaticRelation(relation))?;
        let (declared, got) = (atom.schema.arity(), tuple.arity());
        if declared != got {
            return Err(EngineError::ArityMismatch {
                relation,
                declared,
                got,
            });
        }
    }
    Ok(())
}

/// [`check_updates`] over a batch of updates, against `query`'s atoms.
pub(crate) fn check_batch<R>(query: &Query, batch: &[Update<R>]) -> Result<(), EngineError> {
    check_updates(&query.atoms, batch.iter().map(|u| (u.relation, &u.tuple)))
}

/// `batch` consolidated (see [`consolidate`]). A batch of at most one
/// update is consolidated already and is lent as it is, so the provided
/// [`Maintainer::apply`] allocates nothing here.
pub(crate) fn consolidated<R: Semiring>(batch: &[Update<R>]) -> Cow<'_, [Update<R>]> {
    match batch {
        [] => Cow::Borrowed(batch),
        [upd] if upd.payload.is_zero() => Cow::Borrowed(&[]),
        [_] => Cow::Borrowed(batch),
        _ => Cow::Owned(consolidate(batch)),
    }
}
