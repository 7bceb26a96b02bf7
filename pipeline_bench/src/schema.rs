//! The metric contract: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names (a unit test keeps them equal).

/// `(name, unit)` of the end-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("updates_per_s", "1/s"),
    ("delta_p50_us", "us"),
    ("delta_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of the per-layer metrics, printed with `--trace 1`. A
/// metric a workload does not exercise reads 0 there — which is itself
/// the "stays flat on the workload that bypasses the layer" prediction.
pub const PER_LAYER: [(&str, &str); 69] = [
    ("read.p50_us", "us"),
    ("read.p99_us", "us"),
    ("read.ns_per_tuple", "ns"),
    ("read.tuples", "count"),
    ("data.consolidate_ns_per_update", "ns"),
    ("data.encoded_bytes_per_update", "B"),
    ("store.append_us_per_batch", "us"),
    ("store.fsync_us_per_batch", "us"),
    ("store.commits", "count"),
    ("store.journal_bytes_per_update", "B"),
    ("store.snapshot_ms", "ms"),
    ("store.snapshot_bytes", "B"),
    ("store.replayed_updates", "count"),
    ("store.recover_ms", "ms"),
    ("store.recover_load_ms", "ms"),
    ("store.recover_replay_ms", "ms"),
    ("shard.router_consolidate_ns_per_update", "ns"),
    ("shard.router_partition_ns_per_update", "ns"),
    ("shard.broadcast_copies", "count"),
    ("shard.routed", "count"),
    ("shard.queue_wait_share", "%"),
    ("shard.busy_ns_per_update", "ns"),
    ("shard.balance", "ratio"),
    ("shard.settle_us_per_batch", "us"),
    ("dataflow.work_per_update", "count"),
    ("dataflow.ns_per_work", "ns"),
    ("dataflow.multiway_seeds_per_update", "count"),
    ("dataflow.multiway_probes_per_update", "count"),
    ("dataflow.binary_join_tuples_per_update", "count"),
    ("dataflow.join_self_share", "%"),
    ("dataflow.aggregate_self_share", "%"),
    ("dataflow.hub_advance_us_per_epoch", "us"),
    ("hl.ns_per_update", "ns"),
    ("hl.work_per_update", "count"),
    ("hl.migrations", "count"),
    ("hl.rebalances", "count"),
    ("hl.heavy_hit_ratio", "ratio"),
    ("hl.view_entries", "count"),
    ("core.update_ns_per_update", "ns"),
    ("session.ingest_us_per_batch", "us"),
    ("session.overhead_ns_per_update", "ns"),
    ("session.resident_tuples", "count"),
    ("session.rss_bytes_per_base_tuple", "B"),
    ("session.replans", "count"),
    ("session.build_ms", "ms"),
    ("serve.notify_ns_per_delivery", "ns"),
    ("serve.deliveries_per_epoch", "count"),
    ("serve.group_apply_us_per_epoch", "us"),
    ("serve.drain_ns_per_delivery", "ns"),
    ("serve.subscribe_us", "us"),
    ("serve.groups", "count"),
    ("serve.dedup_hits", "count"),
    ("serve.store_dedup_hits", "count"),
    ("serve.evictions", "count"),
    ("serve.resident_tuples", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.waterfall_coverage", "ratio"),
    ("obs.spans_per_epoch", "count"),
    ("budget.epoch_us", "us"),
    ("budget.store_share", "%"),
    ("budget.shard_share", "%"),
    ("budget.dataflow_share", "%"),
    ("budget.hl_share", "%"),
    ("budget.core_share", "%"),
    ("budget.session_share", "%"),
    ("budget.serve_share", "%"),
    ("budget.unattributed_share", "%"),
    ("budget.dominant_share", "%"),
    ("checkpoint.reached", "count"),
];

/// Metric values by name; prints in the order of the contract table and
/// refuses names the contract does not list.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        let listed = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name);
        let (name, _) = listed.unwrap_or_else(|| panic!("metric {name} is not in the contract"));
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.retain(|(n, _)| n != name);
        // `+ 0.0` turns the -0.0 an empty f64 sum yields into 0.0.
        self.0.push((name, value + 0.0));
    }

    pub fn get(&self, name: &str) -> f64 {
        let hit = self.0.iter().find(|(n, _)| *n == name);
        hit.map_or(0.0, |(_, v)| *v)
    }
}
