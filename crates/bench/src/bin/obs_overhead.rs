//! Observability overhead guard: hub insert/delete probes on a multiway
//! dataflow triangle count, run metrics-attached vs detached, measured back to back on the **same
//! engine instance**, best-of-5 pairs (three left the 5 % gate inside the
//! run-to-run spread once the multiway epoch under test got shorter).
//!
//! The telemetry layer promises near-zero hot-path cost: relaxed atomic
//! adds on registered handles, nothing at all when detached. This bin
//! holds that promise to a number — if the attached configuration loses
//! more than the acceptance threshold in ingest throughput, it exits
//! nonzero and CI fails.
//!
//! Methodology: separate detached/attached processes (or even separate
//! engine builds) differ by allocator layout and cache history far more
//! than by the few hundred nanoseconds under test — run-to-run spread on
//! a shared box is ±10%. Instead each round builds one engine, warms the
//! probe path, times the hub probe phase detached, *then attaches the
//! registry mid-run* and times the identical phase again. The probe's
//! insert/delete pairs cancel, so both phases start from the same
//! logical state, same tries, same allocations; the only delta is the
//! telemetry. (Phase order slightly favors attached — second pass,
//! warmer caches — which is fine for a regression guard.)
//!
//! Run: `cargo run --release -p ivm-bench --bin obs_overhead`
//! Threshold override: `RIVM_OBS_MAX_REGRESSION_PCT` (default 5.0).
//! Also emits `BENCH_obs.json` (path override: `BENCH_OBS_JSON`).

use ivm_bench::{bench_doc, fmt, per_sec, scaled, time, Json, Table};
use ivm_core::Maintainer;
use ivm_data::ops::lift_one;
use ivm_data::{tup, Database, Update};
use ivm_dataflow::DataflowEngine;
use ivm_obs::{EpochWaterfall, LabelId, MetricsRegistry};
use ivm_workloads::graphs::EdgeStream;
use std::time::{Duration, Instant};

/// `probe` hub insert/delete pairs, rotating over the three relations. The
/// pairs cancel in the ring, so the engine's logical state is unchanged.
fn probe_phase(eng: &mut DataflowEngine<i64>, names: [ivm_data::Sym; 3], probe: usize) -> f64 {
    let hub = 0u64;
    let (_, d) = time(|| {
        for i in 0..probe {
            let r = names[i % 3];
            eng.apply_batch(&[Update::insert(r, tup![hub, hub])])
                .unwrap();
            eng.apply_batch(&[Update::with_payload(r, tup![hub, hub], -1i64)])
                .unwrap();
        }
    });
    per_sec(d, probe * 2)
}

/// The probe phase again, but with every apply under an epoch root
/// span — the full causal-tracing pipeline lit up, so each apply also
/// records a batch child and one span per operator into the ring.
fn traced_phase(
    eng: &mut DataflowEngine<i64>,
    names: [ivm_data::Sym; 3],
    probe: usize,
    registry: &MetricsRegistry,
) -> f64 {
    let hub = 0u64;
    let tracer = registry.tracer().clone();
    let root = tracer.intern("session.ingest");
    let mut epoch = 0u64;
    let (_, d) = time(|| {
        for i in 0..probe {
            let r = names[i % 3];
            let span = tracer.enter(root, epoch);
            eng.apply_batch(&[Update::insert(r, tup![hub, hub])])
                .unwrap();
            span.finish();
            epoch += 1;
            let span = tracer.enter(root, epoch);
            eng.apply_batch(&[Update::with_payload(r, tup![hub, hub], -1i64)])
                .unwrap();
            span.finish();
            epoch += 1;
        }
    });
    per_sec(d, probe * 2)
}

/// One paired measurement: load `edges` (untimed), warm up, time the
/// probe phase detached, attach a registry to the same engine, time it
/// again (metrics only, then with tracing roots). Returns `(detached,
/// attached, traced)` updates/second.
fn run_pair(edges: &[(u64, u64)], probe: usize) -> (f64, f64, f64) {
    let q = ivm_query::examples::triangle_count();
    let names = [q.atoms[0].name, q.atoms[1].name, q.atoms[2].name];
    let mut eng = DataflowEngine::<i64>::new(q, &Database::new(), lift_one).unwrap();
    for &(a, b) in edges {
        for r in names {
            eng.apply_batch(&[Update::insert(r, tup![a, b])]).unwrap();
        }
    }
    probe_phase(&mut eng, names, probe / 4 + 1); // warmup, untimed
    let detached = probe_phase(&mut eng, names, probe);

    let registry = MetricsRegistry::new();
    eng.observe(&registry, "tri");
    let attached = probe_phase(&mut eng, names, probe);
    // The attached phase must actually have been observed — a silently
    // detached registry would make the comparison meaningless. The
    // mirror baselines at attach, so exactly the probe updates count.
    assert_eq!(
        registry.snapshot().counter("tri.updates_in"),
        (probe * 2) as u64,
        "registry must mirror the attached probe phase"
    );
    let traced = traced_phase(&mut eng, names, probe, &registry);
    // The epoch_trace assertion pass: the ring must reconstruct into
    // well-formed waterfalls — a root per retained epoch, every span
    // attached (no orphans), a measured total on each, and the
    // engine's per-operator children actually present under the root.
    let events = registry.tracer().events();
    let falls = EpochWaterfall::from_events(&events);
    assert!(
        !falls.is_empty(),
        "traced phase must leave reconstructible epochs in the ring"
    );
    for w in &falls {
        assert_eq!(w.orphans, 0, "epoch {}: dangling spans", w.epoch);
        assert!(w.total_ns > 0, "epoch {}: unmeasured root", w.epoch);
    }
    assert!(
        falls
            .last()
            .unwrap()
            .stages
            .iter()
            .any(|s| s.label.starts_with("op.")),
        "per-operator spans must nest under the ingest root"
    );
    (detached, attached, traced)
}

/// Hot-path label cost, isolated: record `spans` spans the pre-PR way
/// (a fresh `String` label per span, interned on the spot) vs the
/// interned way (a `LabelId` resolved once at attach, `record_at` per
/// span). Returns `(alloc_ns_per_span, interned_ns_per_span)`.
fn intern_bench(spans: usize) -> (f64, f64) {
    let stages = [
        "ingest",
        "consolidate",
        "partition",
        "queue_wait",
        "apply",
        "advance",
        "notify",
        "flush",
    ];
    let registry = MetricsRegistry::new();
    let tracer = registry.tracer().clone();
    let (_, d_alloc) = time(|| {
        for i in 0..spans {
            let label = format!("stage.{}", stages[i % stages.len()]);
            tracer.span(&label).finish();
        }
    });
    let registry = MetricsRegistry::new();
    let tracer = registry.tracer().clone();
    let ids: Vec<LabelId> = stages
        .iter()
        .map(|s| tracer.intern(&format!("stage.{s}")))
        .collect();
    let t0 = Instant::now();
    let one = Duration::from_nanos(1);
    let (_, d_interned) = time(|| {
        for i in 0..spans {
            tracer.record_at(ids[i % ids.len()], None, 0, t0, one);
        }
    });
    (
        d_alloc.as_secs_f64() * 1e9 / spans as f64,
        d_interned.as_secs_f64() * 1e9 / spans as f64,
    )
}

fn main() {
    let n = scaled(16_000, 2_000);
    let probe = scaled(2_000, 400);
    let stream = EdgeStream::zipf((n / 8).max(32) as u64, n, 0.9, 3);
    let threshold: f64 = std::env::var("RIVM_OBS_MAX_REGRESSION_PCT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5.0);
    println!(
        "# Observability overhead guard — {n}-edge graph, {probe} hub \
         insert/delete probe pairs, \
         detached-then-attached on one engine, best of 5 pairs\n"
    );

    let mut best_detached = 0.0f64;
    let mut best_attached = 0.0f64;
    let mut best_traced = 0.0f64;
    for _ in 0..5 {
        let (d, a, t) = run_pair(&stream.edges, probe);
        best_detached = best_detached.max(d);
        best_attached = best_attached.max(a);
        best_traced = best_traced.max(t);
    }
    let regression_pct = (1.0 - best_attached / best_detached) * 100.0;
    let traced_pct = (1.0 - best_traced / best_detached) * 100.0;

    let mut table = Table::new(&["mode", "best tuples/s"]);
    table.row(vec!["detached".into(), fmt(best_detached)]);
    table.row(vec!["attached".into(), fmt(best_attached)]);
    table.row(vec!["attached+traced".into(), fmt(best_traced)]);
    table.print();
    println!(
        "\nattached vs detached: {regression_pct:.2}% regression, with \
         epoch tracing {traced_pct:.2}% (budget {threshold:.1}%)"
    );

    // Label-cost isolation: what interning bought the span hot path.
    let (alloc_ns, interned_ns) = intern_bench(scaled(200_000, 20_000));
    println!(
        "per-span label cost: {alloc_ns:.0} ns allocating a String \
         (pre-intern) vs {interned_ns:.0} ns with interned LabelId"
    );

    let doc = bench_doc("obs_overhead")
        .field("edges", Json::num(n as f64))
        .field("probe_updates", Json::num((probe * 2) as f64))
        .field("detached_tuples_per_sec", Json::num(best_detached))
        .field("attached_tuples_per_sec", Json::num(best_attached))
        .field("traced_tuples_per_sec", Json::num(best_traced))
        .field("regression_pct", Json::num(regression_pct))
        .field("traced_regression_pct", Json::num(traced_pct))
        .field("span_alloc_ns", Json::num(alloc_ns))
        .field("span_interned_ns", Json::num(interned_ns))
        .field("threshold_pct", Json::num(threshold));
    ivm_bench::write_bench_json("BENCH_OBS_JSON", "BENCH_obs.json", &doc);

    let worst = regression_pct.max(traced_pct);
    if worst > threshold {
        eprintln!(
            "FAIL: observed ingestion is {worst:.2}% slower than detached \
             (metrics-only {regression_pct:.2}%, with epoch tracing \
             {traced_pct:.2}%; budget {threshold:.1}%)"
        );
        std::process::exit(1);
    }
    println!("OK: within budget");
}
