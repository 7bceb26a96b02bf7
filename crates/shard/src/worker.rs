//! Shard worker threads.
//!
//! Each worker owns one independent [`DataflowEngine`] over its slice of
//! the data and drains a **bounded** job queue: the engine thread can keep
//! enqueueing batch `k+1` while workers still process batch `k`
//! (pipelined, asynchronous ingestion), and a worker that falls behind
//! exerts backpressure by letting its queue fill instead of buffering
//! unboundedly. Results flow back over an unbounded channel — workers
//! never block on reporting, so enqueue-side backpressure cannot deadlock
//! against result delivery.

use ivm_core::{CheckedBatch, EngineError, Maintainer};
use ivm_data::{Database, Relation};
use ivm_dataflow::{Cardinalities, DataflowEngine, DataflowStats};
use ivm_obs::{LabelId, Span, Tracer};
use ivm_ring::Semiring;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many batches a shard's queue holds before `enqueue` blocks —
/// deep enough to pipeline ingestion against processing, shallow enough
/// to bound memory per shard.
pub const QUEUE_DEPTH: usize = 8;

/// Cross-thread trace handoff: the router captures the ambient epoch
/// root at enqueue time and ships it with the job, so the worker's
/// queue-wait and apply spans join the same epoch tree even though they
/// happen on another thread.
#[derive(Clone, Copy)]
pub(crate) struct TraceCtx {
    /// Span id to parent the worker's spans under.
    pub parent: u64,
    /// The epoch the spans belong to.
    pub epoch: u64,
    /// When the job was enqueued — the queue-wait span runs from here
    /// to the moment the worker dequeues the job.
    pub enqueued: Instant,
}

/// One unit of work for a shard.
pub(crate) enum Job<R: Semiring> {
    /// Apply the sub-batch of sequence number `seq`.
    Batch {
        /// Engine-wide batch sequence number.
        seq: u64,
        /// This shard's routed part of the batch, checked at the door and
        /// consolidated by the router (applied as it stands).
        delta: CheckedBatch<'static, R>,
        /// Epoch-trace handoff, present when the enqueue happened under
        /// an observed epoch root.
        ctx: Option<TraceCtx>,
    },
    /// Re-lower this shard's plan from learned cardinalities, replaying
    /// the carried database slice. Broadcast to every shard with the
    /// *same* cards, so the fleet re-lowers consistently;
    /// because the queue is FIFO, the replan lands exactly between
    /// batches — after everything enqueued before it, before everything
    /// after. Reported like a batch (with an empty delta), so the facade
    /// can await fleet-wide completion and absorb the refreshed stats.
    Replan {
        /// Sequence number, shared by the whole broadcast.
        seq: u64,
        /// Learned cardinalities to derive the fresh orders from —
        /// global counts, identical on every shard.
        cards: Cardinalities,
        /// This shard's slice of the current base state, to replay.
        db: Database<R>,
        /// Epoch-trace handoff (replans are traced like batches).
        ctx: Option<TraceCtx>,
    },
    /// A test-only fault: report batch `seq` as failed with this error.
    #[cfg(test)]
    Fail(u64, EngineError, Option<TraceCtx>),
    /// Attach a metrics registry to this shard's engine: the join's
    /// apply time and counter mirrors appear under `{prefix}.*`. Not
    /// reported — it is instantaneous and the facade need not await it
    /// (FIFO ordering already sequences it against batches).
    Observe {
        /// The shared fleet registry (cheap `Arc` clone).
        registry: ivm_obs::MetricsRegistry,
        /// Name prefix for this shard's dataflow series.
        prefix: String,
    },
}

/// A worker's answer to one [`Job`].
pub(crate) struct Report<R> {
    /// The job's sequence number.
    pub seq: u64,
    /// Which shard reports.
    pub shard: usize,
    /// The shard's output delta for the sub-batch (or why it failed).
    pub delta: Result<Relation<R>, EngineError>,
    /// Cumulative engine counters after the job.
    pub stats: DataflowStats,
    /// Cumulative time this worker has spent inside `apply_batch` — the
    /// per-shard busy time behind the scalability accounting. Measured on
    /// the *thread CPU clock* where available (Linux), so it stays a
    /// truthful work measure even when shards are oversubscribed on fewer
    /// cores — the wall clock would count descheduled gaps as busy.
    pub busy: Duration,
}

/// This thread's cumulative CPU time (`CLOCK_THREAD_CPUTIME_ID`), or
/// `None` where unavailable. The symbol comes from the platform libc that
/// `std` already links; no new dependency. Gated to 64-bit Linux: the
/// hand-declared `Timespec` matches the `{i64, i64}` ABI there, while
/// 32-bit targets use a different layout and must take the wall-clock
/// fallback.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_now() -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` outlives the call and the clock id is valid on Linux.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0 {
        Some(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    } else {
        None
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_now() -> Option<Duration> {
    None
}

/// A worker's tracing handles, resolved once when the fleet registry
/// arrives via [`Job::Observe`]: the shared tracer plus this shard's
/// interned stage labels — nothing allocates per batch.
struct WorkerTrace {
    tracer: Tracer,
    queue_wait: LabelId,
    apply: LabelId,
    replan: LabelId,
}

impl WorkerTrace {
    /// Join the enqueuing epoch's trace: the gap since enqueue is this
    /// shard's queue wait, and the returned `label` span (ambient while
    /// the job runs, so the engine's spans nest under it) covers the
    /// work — even on panic, via the span's Drop.
    fn enter(&self, label: LabelId, c: TraceCtx) -> Span {
        self.tracer.record_at(
            self.queue_wait,
            Some(c.parent),
            c.epoch,
            c.enqueued,
            c.enqueued.elapsed(),
        );
        self.tracer.enter_at(label, c.parent, c.epoch)
    }
}

/// Time one closure on the thread CPU clock, falling back to wall time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    match thread_cpu_now() {
        Some(c0) => {
            let out = f();
            let spent = thread_cpu_now()
                .map(|c1| c1.saturating_sub(c0))
                .unwrap_or(Duration::ZERO);
            (out, spent)
        }
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed())
        }
    }
}

/// Handle to a spawned worker: its job queue and join handle.
pub(crate) struct WorkerHandle<R: Semiring> {
    jobs: Option<SyncSender<Job<R>>>,
    thread: Option<JoinHandle<()>>,
}

impl<R: Semiring> WorkerHandle<R> {
    /// Send a job, blocking when the shard's queue is full (bounded
    /// pipelining). Errors only if the worker died.
    pub fn send(&self, job: Job<R>) -> Result<(), EngineError> {
        self.jobs
            .as_ref()
            .expect("worker already shut down")
            .send(job)
            .map_err(|_| EngineError::ShardFailure("worker hung up its job queue".into()))
    }
}

impl<R: Semiring> Drop for WorkerHandle<R> {
    fn drop(&mut self) {
        // Closing the queue is the shutdown signal; then join so worker
        // state (and any panic) is settled before the engine vanishes.
        drop(self.jobs.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Spawn the worker for `shard`, moving its preprocessed engine onto the
/// thread. Jobs are processed strictly in send order.
pub(crate) fn spawn<R: Semiring>(
    shard: usize,
    mut engine: DataflowEngine<R>,
    results: Sender<Report<R>>,
) -> WorkerHandle<R> {
    let (jobs_tx, jobs_rx): (SyncSender<Job<R>>, Receiver<Job<R>>) =
        std::sync::mpsc::sync_channel(QUEUE_DEPTH);
    let thread = std::thread::Builder::new()
        .name(format!("ivm-shard-{shard}"))
        .spawn(move || {
            let mut busy = Duration::ZERO;
            let mut trace: Option<WorkerTrace> = None;
            while let Ok(job) = jobs_rx.recv() {
                // Catch panics so one poisoned shard reports a failure
                // instead of silently leaving the batch in flight forever
                // (its queue sender would stay alive via the siblings).
                let (seq, outcome) = match job {
                    Job::Observe { registry, prefix } => {
                        engine.observe(&registry, &prefix);
                        let t = registry.tracer();
                        trace = Some(WorkerTrace {
                            queue_wait: t.intern(&format!("shard{shard}.queue_wait")),
                            apply: t.intern(&format!("shard{shard}.apply")),
                            replan: t.intern(&format!("shard{shard}.replan")),
                            tracer: t.clone(),
                        });
                        continue;
                    }
                    Job::Batch { seq, delta, ctx } => {
                        let span = trace.as_ref().zip(ctx).map(|(tr, c)| tr.enter(tr.apply, c));
                        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            timed(|| engine.apply_checked(&delta))
                        }));
                        drop(span);
                        (seq, outcome)
                    }
                    #[cfg(test)]
                    Job::Fail(seq, error, ctx) => {
                        drop(trace.as_ref().zip(ctx).map(|(tr, c)| tr.enter(tr.apply, c)));
                        (seq, Ok((Err(error), Duration::ZERO)))
                    }
                    Job::Replan {
                        seq,
                        cards,
                        db,
                        ctx,
                    } => {
                        // A replan "delta" is empty by construction: the
                        // replay reproduces the shard's exact state.
                        let free = engine.output_relation().schema().clone();
                        let span = trace
                            .as_ref()
                            .zip(ctx)
                            .map(|(tr, c)| tr.enter(tr.replan, c));
                        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            timed(|| {
                                engine
                                    .replan_with_cards(&db, cards)
                                    .map(|()| Relation::new(free))
                            })
                        }));
                        drop(span);
                        (seq, outcome)
                    }
                };
                let (delta, spent, dead) = match outcome {
                    Ok((delta, spent)) => (delta, spent, false),
                    Err(_) => (
                        Err(EngineError::ShardFailure(format!(
                            "shard {shard} worker panicked mid-batch"
                        ))),
                        Duration::ZERO,
                        true,
                    ),
                };
                busy += spent;
                let report = Report {
                    seq,
                    shard,
                    delta,
                    stats: engine.stats(),
                    busy,
                };
                if results.send(report).is_err() || dead {
                    break; // engine dropped, or this worker is poisoned
                }
            }
        })
        .expect("spawning a shard worker thread");
    WorkerHandle {
        jobs: Some(jobs_tx),
        thread: Some(thread),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::ops::lift_one;
    use ivm_data::{sym, tup, vars, Database, Update};
    use ivm_query::{Atom, Query};

    fn tiny_engine() -> (DataflowEngine<i64>, ivm_data::Sym) {
        let [x, y] = vars(["wrk_X", "wrk_Y"]);
        let r = sym("wrk_R");
        let q = Query::new("wrk_q", [x], vec![Atom::new(r, [x, y])]);
        (
            DataflowEngine::new(q, &Database::new(), lift_one).unwrap(),
            r,
        )
    }

    /// `updates` as the one routed part of a checked batch.
    fn part(engine: &DataflowEngine<i64>, updates: &[Update<i64>]) -> CheckedBatch<'static, i64> {
        let checked = CheckedBatch::new(&engine.query().atoms, updates).unwrap();
        checked.split(1, |_, _| Some(0)).remove(0)
    }

    #[test]
    fn worker_processes_jobs_in_order_and_reports_deltas() {
        let (engine, r) = tiny_engine();
        let parts: Vec<_> = (0..5i64)
            .map(|seq| part(&engine, &[Update::insert(r, tup![seq, 0i64])]))
            .collect();
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = spawn(3, engine, tx);
        for (seq, delta) in (0..5u64).zip(parts) {
            handle
                .send(Job::Batch {
                    seq,
                    delta,
                    ctx: None,
                })
                .unwrap();
        }
        for expect_seq in 0..5u64 {
            let rep = rx.recv().unwrap();
            assert_eq!(rep.seq, expect_seq, "FIFO per shard");
            assert_eq!(rep.shard, 3);
            let delta = rep.delta.unwrap();
            assert_eq!(delta.get(&tup![expect_seq as i64]), 1);
            assert_eq!(rep.stats.batches, expect_seq + 2); // +1 preprocessing
        }
        drop(handle); // joins cleanly
    }

    #[test]
    fn worker_reports_errors_instead_of_dying() {
        let (engine, r) = tiny_engine();
        let next = part(&engine, &[Update::insert(r, tup![7i64, 7i64])]);
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = spawn(0, engine, tx);
        handle
            .send(Job::Fail(
                0,
                EngineError::UnknownRelation(sym("wrk_unknown")),
                None,
            ))
            .unwrap();
        let rep = rx.recv().unwrap();
        assert!(matches!(rep.delta, Err(EngineError::UnknownRelation(_))));
        // The worker survives the error and keeps serving.
        handle
            .send(Job::Batch {
                seq: 1,
                delta: next,
                ctx: None,
            })
            .unwrap();
        let rep = rx.recv().unwrap();
        assert_eq!(rep.delta.unwrap().get(&tup![7i64]), 1);
        drop(handle);
    }

    #[test]
    fn busy_time_accumulates() {
        let (engine, r) = tiny_engine();
        let parts: Vec<_> = (0..3i64)
            .map(|seq| {
                let updates: Vec<Update<i64>> = (0..256)
                    .map(|i| Update::insert(r, tup![i as i64, seq]))
                    .collect();
                part(&engine, &updates)
            })
            .collect();
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = spawn(0, engine, tx);
        let mut last = Duration::ZERO;
        for (seq, delta) in (0..3u64).zip(parts) {
            handle
                .send(Job::Batch {
                    seq,
                    delta,
                    ctx: None,
                })
                .unwrap();
            let rep = rx.recv().unwrap();
            assert!(rep.busy >= last, "cumulative busy time is monotone");
            last = rep.busy;
        }
        drop(handle);
    }
}
