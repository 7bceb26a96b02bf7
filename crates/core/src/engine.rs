//! The common maintenance interface (Fig 1 of the paper): preprocess,
//! update, enumerate.

use crate::error::EngineError;
use ivm_data::{consolidate, Relation, Tuple, Update};
use ivm_query::Query;
use ivm_ring::Semiring;

/// A maintenance engine for one query.
///
/// The trait mirrors the paper's cost decomposition: construction +
/// [`Maintainer::apply_batch`] cover preprocessing and update time, while
/// [`Maintainer::for_each_output`] exposes enumeration (the callback is
/// invoked once per output tuple; delay is the gap between invocations).
///
/// The trait is **batch-first**: [`Maintainer::apply_batch`] is the one
/// ingestion surface every engine shares — specialized view-tree engines,
/// the generic dataflow engine, and the sharded fleet all accept the same
/// `&[Update<R>]` slice, so callers (and the session layer) never branch
/// on the engine kind. [`Maintainer::apply`] remains as the single-tuple
/// primitive the provided batch path loops over.
///
/// `for_each_output` takes `&mut self` because lazy engines refresh their
/// state on an enumeration request.
pub trait Maintainer<R: Semiring> {
    /// The maintained query.
    fn query(&self) -> &Query;

    /// Apply a single-tuple update.
    fn apply(&mut self, upd: &Update<R>) -> Result<(), EngineError>;

    /// Apply a whole batch of updates in one call and return the **output
    /// delta this call propagated**.
    ///
    /// The batch is first consolidated per `(relation, tuple)` — sound
    /// because ring payloads make batch effects order-independent
    /// (Sec. 2) — so mutually cancelling updates cost nothing. The final
    /// state always equals applying the updates one at a time.
    ///
    /// Return-value contract: engines with a native batched delta path
    /// return exactly the change of the maintained output caused by this
    /// batch (`DataflowEngine` and `ShardedEngine` from delta propagation,
    /// `EagerListEngine` from delta enumeration). Engines whose update
    /// path deliberately avoids materializing output deltas — eager-fact's
    /// O(1) view-tree updates, the lazy engines' deferred queues — return
    /// an **empty relation**: computing a delta generically would need
    /// `Ring` subtraction the `Semiring` bound does not grant, and would
    /// silently forfeit those engines' complexity guarantees. The default
    /// implementation (consolidate, then loop [`Maintainer::apply`])
    /// therefore returns an empty relation.
    ///
    /// Failure granularity: an `Err` may leave a prefix of the
    /// consolidated batch applied; engines that validate the whole batch
    /// up front (dataflow, sharded) reject it atomically instead.
    /// `ShardedEngine` goes further: a shard failure **poisons** the
    /// engine — the fleet's partitioned state is no longer trustworthy,
    /// so every subsequent `apply_batch`/`drain` fails fast with the
    /// original error rather than hanging on worker reports that will
    /// never arrive.
    fn apply_batch(&mut self, batch: &[Update<R>]) -> Result<Relation<R>, EngineError> {
        let free = self.query().free.clone();
        for upd in consolidate(batch) {
            self.apply(&upd)?;
        }
        Ok(Relation::new(free))
    }

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
