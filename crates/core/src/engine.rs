//! The common maintenance interface (Fig 1 of the paper): preprocess,
//! update, enumerate.

use crate::checked::CheckedBatch;
use crate::error::EngineError;
use ivm_data::{Relation, Tuple, Update};
use ivm_query::Query;
use ivm_ring::Semiring;

/// A maintenance engine for one query.
///
/// The trait mirrors the paper's cost decomposition: construction +
/// [`Maintainer::apply_batch`] cover preprocessing and update time, while
/// [`Maintainer::for_each_output`] exposes enumeration (the callback is
/// invoked once per output tuple; delay is the gap between invocations).
///
/// The trait is **batch-first**, and a batch is checked once.
/// [`Maintainer::apply_checked`] is the one ingestion method an engine
/// implements: it takes a [`CheckedBatch`], the ingestion rule's only
/// output. [`Maintainer::apply_batch`] is provided — it checks the raw
/// batch against [`Maintainer::query`]'s atoms, then calls it — and so is
/// [`Maintainer::apply`], a one-update batch. Every engine, the sharded
/// fleet and the session accept the same `&[Update<R>]` slice.
///
/// **The ingestion rule** ([`CheckedBatch::new`]): each update must name a
/// relation of the query, dynamic in at least one of its atoms (Sec. 4.5),
/// with a tuple of that atom's arity. A batch that breaks the rule
/// anywhere is refused whole — [`EngineError::UnknownRelation`],
/// [`EngineError::StaticRelation`] or [`EngineError::ArityMismatch`] — and
/// the engine serves the next batch as if the refused one never arrived.
///
/// **Where the rule and the consolidation run**: once per batch, at the
/// door. `Session` (before the journal, which appends the caller's batch
/// as it came), `ShardedEngine::enqueue_batch` and `ServeNode::apply_batch`
/// (over the atoms its subscriptions declared) each build one token; the
/// provided `apply_batch` does for a direct caller. The first layer that
/// asks for the entries — the fleet's router, or the engine — consolidates
/// them, once: the fleet's workers take checked parts, a serve group the
/// token restricted to its dynamic relations, and nothing re-checks.
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

    /// Check the batch against the ingestion rule over this engine's
    /// atoms, then [`Maintainer::apply_checked`] it.
    fn apply_batch(&mut self, batch: &[Update<R>]) -> Result<Relation<R>, EngineError> {
        let checked = CheckedBatch::new(&self.query().atoms, batch)?;
        self.apply_checked(&checked)
    }

    /// Apply a checked batch and return the **output delta this call
    /// propagated**. The batch must have been checked against atoms that
    /// agree with this engine's query on every relation it names (see
    /// [`CheckedBatch`]); nothing here checks it again.
    ///
    /// The engine applies the batch's consolidated entries
    /// ([`CheckedBatch::entries`] or [`CheckedBatch::delta`]), so
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
    /// call and `drain` fails fast with the original error rather than
    /// hanging on worker reports that will never arrive.
    fn apply_checked(&mut self, batch: &CheckedBatch<'_, R>) -> Result<Relation<R>, EngineError>;

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
