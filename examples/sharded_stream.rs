//! Asynchronous sharded ingestion through the session API: keep
//! enqueueing batches while the shard fleet is still processing earlier
//! ones, then drain once and verify the maintained view against a
//! single-threaded session over the same stream.
//!
//! The workload is the Retailer star join (fully hash-partitioned by
//! `locn` — no replication) under its Inventory insert stream. Watch the
//! enqueue timeline: `Session::enqueue_batch` returns long before the
//! fleet is done, which is the point — ingestion is decoupled from
//! processing by bounded per-shard queues, so a bursty producer is
//! absorbed instead of blocked (until a queue fills: then backpressure,
//! not unbounded buffering). The same two calls run unchanged against a
//! non-sharded session, where they degrade to synchronous application.
//!
//! Run: `cargo run --release --example sharded_stream`

use ivm::{EngineKind, Maintainer, Session};
use ivm_workloads::RetailerGen;
use std::time::Instant;

fn main() {
    let shards = 4;
    let n_batches = 40;
    let batch_size = 1000;

    // Identical generator seeds → identical initial db and stream for
    // both sessions.
    let mut gen = RetailerGen::new(48, 6, 48, 21);
    let db = gen.initial_db(40_000);
    let q = gen.query().clone();
    let batches: Vec<_> = (0..n_batches)
        .map(|_| gen.inventory_batch(batch_size))
        .collect();

    let mut sharded = Session::<i64>::builder(q.clone())
        .shards(shards)
        .build(&db)
        .unwrap();
    println!("fleet: {}", sharded.describe());

    // Phase 1 — enqueue everything without waiting for processing.
    let t0 = Instant::now();
    for b in &batches {
        sharded.enqueue_batch(b).unwrap();
    }
    let enqueue_done = t0.elapsed();

    // Phase 2 — settle all in-flight shard deltas into the view.
    sharded.drain().unwrap();
    let drained = t0.elapsed();
    println!(
        "enqueued {} batches x {batch_size} in {enqueue_done:?}; \
         drained at {drained:?} ({:.0} tuples/s wall)",
        n_batches,
        (n_batches * batch_size) as f64 / drained.as_secs_f64(),
    );
    let stats = sharded.sharded_stats().expect("shard-backed session");
    println!(
        "critical path: busiest shard {:?} of {:?} total busy \
         (balance {:.2}); {} entries routed, {} broadcast copies",
        stats.max_busy(),
        stats.total_busy(),
        stats.balance(),
        stats.router.routed,
        stats.router.broadcast_copies,
    );

    // Verify against a single-threaded dataflow session on the same
    // stream — same enqueue/drain spelling, synchronous under the hood.
    let mut single = Session::<i64>::builder(q)
        .engine(EngineKind::DataflowMultiway)
        .build(&db)
        .unwrap();
    for b in &batches {
        single.enqueue_batch(b).unwrap();
    }
    single.drain().unwrap();
    let (a, b) = (single.output(), sharded.output());
    assert_eq!(a.len(), b.len(), "view sizes must match");
    for (t, p) in a.iter() {
        assert_eq!(&b.get(t), p, "payload mismatch at {t:?}");
    }
    println!(
        "verified: sharded view ≡ single-threaded view ({} tuples)",
        a.len()
    );
}
