//! Conservation laws for the telemetry layer under concurrent sharded
//! ingestion.
//!
//! A 4-shard observed session runs proptest-generated update streams —
//! mixed inserts/deletes, duplicate tuples, arbitrary chunking — through
//! the async enqueue/drain path, where four worker threads publish into
//! the same `MetricsRegistry` concurrently. After `drain`, bookkeeping
//! must balance exactly, not approximately:
//!
//! * the fleet-merged dataflow counters equal the **sum of the per-shard
//!   series** (no double count from broadcast handling, no lost updates
//!   from worker-side mirror sync),
//! * every queue-depth gauge reads **zero** (each enqueue was matched by
//!   a drain decrement — the failure-poisoning side of this property,
//!   where a dead shard must also zero its gauges, lives next to the
//!   pub(crate) machinery it needs in `crates/shard`),
//! * the session-level update count equals the raw stream length
//!   (router consolidation may shrink what *workers* see, never what the
//!   session counted), and
//! * the Prometheus exposition scrapes to the same values as the
//!   snapshot it was rendered from, and the JSON export carries the same
//!   series.
//!
//! The vendored proptest shim seeds deterministically from the test
//! name, so failures reproduce. The star shape (every relation
//! hash-partitioned on the shared variable, so all four shards do real
//! work and nothing is broadcast) and the stream strategy live in
//! `tests/common`.

mod common;

use common::{edge_ops, edge_updates, star, EdgeOp};
use ivm::{Database, MetricsRegistry, Session};
use proptest::prelude::*;

fn check_conservation(ops: &[EdgeOp], chunk: usize) -> Result<(), TestCaseError> {
    let q = star("obp_");
    let registry = MetricsRegistry::new();
    let mut s = Session::<i64>::builder(q.clone())
        .shards(4)
        .observe(&registry)
        .build(&Database::new())
        .expect("star is shardable");

    let updates = edge_updates(&q, ops);
    let mut total = 0u64;
    for batch in updates.chunks(chunk) {
        s.enqueue_batch(batch).expect("valid batch");
        total += batch.len() as u64;
    }
    s.drain().expect("drain settles the fleet");

    let m = s.metrics();
    // The session counts the raw stream; consolidation happens below it.
    prop_assert_eq!(m.counter("ivm.session.updates"), total);
    prop_assert!(m.counter("ivm.session.batches") >= u64::from(!updates.is_empty()));

    // The facade's fleet-merged series, summed from worker reports, equal
    // the sum of what each worker's dataflow mirrors into
    // `shard{i}.dataflow.*` at batch boundaries. On an empty-database
    // build nothing predates the attach baseline but each shard's
    // preprocessing batch, which the mirrors do not count.
    for key in ["updates_in", "deltas_in", "output_delta_tuples", "batches"] {
        let fleet = m.counter(&format!("ivm.fleet.{key}"));
        let per_shard: u64 = (0..4)
            .map(|i| m.counter(&format!("ivm.fleet.shard{i}.dataflow.{key}")))
            .sum();
        let preprocessing = if key == "batches" { 4 } else { 0 };
        prop_assert_eq!(
            fleet,
            per_shard + preprocessing,
            "fleet {} diverged from its per-shard sum",
            key
        );
    }
    // What the workers jointly ingested is what the router sent them —
    // at most the raw total (consolidation only ever merges).
    prop_assert!(m.counter("ivm.fleet.updates_in") <= total);

    // A drained fleet owes nothing: every queue gauge back to zero.
    for i in 0..4 {
        prop_assert_eq!(m.gauge(&format!("ivm.fleet.shard{i}.queue_depth")), 0);
    }

    // Export agreement: the Prometheus text scrapes back to the snapshot
    // values, and the JSON snapshot carries the same series.
    let prom = m.to_prometheus();
    let json = m.render_json();
    for name in ["ivm.session.updates", "ivm.fleet.updates_in"] {
        let series = name.replace('.', "_");
        let scraped: Option<u64> = prom
            .lines()
            .find(|l| l.split_whitespace().next() == Some(series.as_str()))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok());
        prop_assert_eq!(scraped, Some(m.counter(name)), "series {}", series);
        prop_assert!(json.contains(&format!("\"{name}\"")));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_metrics_conserve_across_shards(
        ops in edge_ops(3, 6, 1..72),
        chunk in 1usize..9,
    ) {
        check_conservation(&ops, chunk)?;
    }
}
