//! The drivers: stand a workload's system up, run its timed phase through
//! the public `Session` / `ServeNode` / `Store` APIs, kill and recover the
//! durable ones, and check every maintained view against the oracle.
//!
//! Load model: a closed loop with one caller. Ingest is a `&mut self`
//! single-writer API whose caller waits for the delta, so an open-loop
//! schedule would only measure the generator. Every duration below is
//! time the caller spent *inside* a call into the system; generating the
//! next batch happens between calls and is not counted.

use crate::budget::{layer_of, Budget};
use crate::measure::{median, peak_rss_bytes, ratio, rss_bytes, Latencies, Ledger};
use crate::oracle::{evaluate, same_view};
use crate::schema::Metrics;
use crate::workloads::{
    catalog, final_base, Layer, Load, ServeLoad, SessionLoad, Spec, Stream, RECOVER_TAIL_UPDATES,
};
use ivm::core::EagerFactEngine;
use ivm::data::codec::to_bytes;
use ivm::data::ops::lift_one;
use ivm::data::{consolidate, Database, Relation, Update};
use ivm::dataflow::DataflowStats;
use ivm::obs::{Counter, Json, MetricsSnapshot, TraceEvent};
use ivm::serve::SubId;
use ivm::shard::ShardedStats;
use ivm::{
    EngineKind, HeavyLightEngine, Maintainer, MetricsRegistry, Query, ReplanPolicy, ServeNode,
    Session, SessionBuilder, Store, Subscription,
};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::hint::black_box;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

pub struct Config<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A directory of this run's own, inside the build directory.
    pub scratch: PathBuf,
}

pub struct Outcome {
    pub ledger: Ledger,
    pub metrics: Metrics,
    /// The human-readable report, one line per entry.
    pub report: Vec<String>,
}

/// `setup_s` is the median of at least `MIN_SETUPS` set-ups; fast ones
/// repeat until they add up to `SETUP_BUDGET` (at most `MAX_SETUPS`), so
/// a 10 ms set-up is not judged on three samples.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Undrained deliveries a channel subscriber may hold before eviction.
const CHANNEL_CAPACITY: usize = 4;
/// Raw epochs kept for the trace file.
const TRACE_TAIL_EPOCHS: usize = 8;

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match (cfg.spec.load(cfg.seed), cfg.trace) {
        (Load::Session(load), false) => session_untraced(cfg, load),
        (Load::Session(load), true) => session_traced(cfg, load),
        (Load::Serve(load), false) => serve_untraced(cfg, load),
        (Load::Serve(load), true) => serve_traced(cfg, load),
    }
}

/// The timed phase is cut into windows of this many consecutive batches.
/// Every end-to-end rate or quantile is taken per window and the reported
/// value is the window a quarter of the way in from the best one: what
/// the shared host adds (a neighbour on the core, a slow flush) comes in
/// bursts of a few batches and only ever slows a window down, so the
/// quiet windows are the program's own cost, while a slower program
/// moves every window. Over 85 recorded runs of `retailer-enum` and
/// `hub-hl-durable` the run-to-run deviation of `delta_p99_us` was 1.6x
/// that of `delta_p50_us` with the median over 1000-batch windows, 1.2x
/// with the quartile over 500-batch windows and 1.1x with this one;
/// what is left is the host's speed drifting from run to run. A window's
/// p99 has two samples beyond it; the slowest workload (`serve-fanout`)
/// closes about sixteen windows in a 20 s run.
const WINDOW_BATCHES: usize = 250;

/// Cumulative totals at the end of one window.
#[derive(Clone, Copy, Default)]
struct Mark {
    batches: usize,
    busy: Duration,
    updates: u64,
}

/// What the caller waited for during one timed phase.
#[derive(Default)]
struct Phase {
    /// Per batch: `apply_batch` entry → the last consumer holds the delta.
    delta: Latencies,
    /// Per read op (full enumeration, latecomer `view`).
    read: Latencies,
    read_tuples: u64,
    /// Subscribe/unsubscribe calls.
    other: Duration,
    updates: u64,
    marks: Vec<Mark>,
}

impl Phase {
    fn busy(&self) -> Duration {
        self.delta.total() + self.read.total() + self.other
    }

    fn batches(&self) -> u64 {
        self.delta.len() as u64
    }

    fn mark(&mut self) {
        self.marks.push(Mark {
            batches: self.delta.len(),
            busy: self.busy(),
            updates: self.updates,
        });
    }

    /// Between batches: close the window if it is full.
    fn tick(&mut self) {
        if self.delta.len() == (self.marks.len() + 1) * WINDOW_BATCHES {
            self.mark();
        }
    }

    /// After the last batch. The unfinished window is dropped, unless the
    /// run was too short to fill one: then the whole run is the window.
    fn close(&mut self) {
        if self.marks.is_empty() {
            self.mark();
        }
    }

    /// `stat(batch range, busy, updates)` of every window, ascending.
    fn window_stats(&self, stat: impl Fn(Range<usize>, Duration, u64) -> f64) -> Vec<f64> {
        let mut from = Mark::default();
        let mut values = Vec::with_capacity(self.marks.len());
        for to in &self.marks {
            let window = from.batches..to.batches;
            values.push(stat(window, to.busy - from.busy, to.updates - from.updates));
            from = *to;
        }
        values.sort_by(f64::total_cmp);
        values
    }

    /// Updates per second in the window a quarter of the way down from
    /// the fastest.
    fn updates_per_s(&self) -> f64 {
        let rates = self.window_stats(|_, busy, updates| ratio(updates as f64, busy.as_secs_f64()));
        rates[rates.len() - 1 - rates.len() / 4]
    }

    /// The `q`-quantile of the window a quarter of the way up from the
    /// one where it is lowest.
    fn delta_quantile_us(&self, q: f64) -> f64 {
        let quantiles = self.window_stats(|window, _, _| self.delta.quantile_us_in(window, q));
        quantiles[quantiles.len() / 4]
    }
}

/// Build a system repeatedly (once when `!repeat`), dropping each before
/// the next; returns the last one and the median build time in seconds.
fn stand_up<T>(
    repeat: bool,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::new();
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let system = build()?;
        secs.push(t.elapsed().as_secs_f64());
        let enough = secs.len() >= MIN_SETUPS && started.elapsed() >= SETUP_BUDGET;
        if !repeat || enough || secs.len() == MAX_SETUPS {
            return Ok((system, median(&mut secs)));
        }
    }
}

fn end_to_end(metrics: &mut Metrics, setup_s: f64, phase: &Phase, peak_rss: u64) {
    metrics.put("setup_s", setup_s);
    metrics.put("updates_per_s", phase.updates_per_s());
    metrics.put("delta_p50_us", phase.delta_quantile_us(0.50));
    metrics.put("delta_p99_us", phase.delta_quantile_us(0.99));
    metrics.put("peak_rss_mb", peak_rss as f64 / (1 << 20) as f64);
}

fn phase_report(report: &mut Vec<String>, phase: &Phase) {
    report.push(format!(
        "timed phase: {} batches in {} windows, {} updates, {:.3} s inside the system ({} reads)",
        phase.batches(),
        phase.marks.len(),
        phase.updates,
        phase.busy().as_secs_f64(),
        phase.read.len(),
    ));
    if phase.read.len() > 0 {
        report.push(format!(
            "reads: p50 {:.1} us, p99 {:.1} us, {} tuples enumerated",
            phase.read.quantile_us(0.50),
            phase.read.quantile_us(0.99),
            phase.read_tuples
        ));
    }
}

// ---------------------------------------------------------------------
// Session workloads
// ---------------------------------------------------------------------

fn configure(load: &SessionLoad, registry: Option<&MetricsRegistry>) -> SessionBuilder<i64> {
    let mut b = Session::<i64>::builder(load.query.clone());
    if let Some(n) = load.shards {
        b = b.shards(n);
    }
    if load.adaptive {
        b = b.adaptive(ReplanPolicy::default());
    }
    if let Some(bytes) = load.auto_snapshot {
        b = b.auto_snapshot(bytes);
    }
    if let Some(r) = registry {
        b = b.observe(r);
    }
    b
}

fn build_session(
    load: &SessionLoad,
    store_dir: &Path,
    registry: Option<&MetricsRegistry>,
) -> Result<Session<i64>, String> {
    let mut b = configure(load, registry);
    if load.durable {
        b = b.durable(store_dir);
    }
    b.build(&load.base).map_err(|e| format!("build: {e}"))
}

/// Ingest batches for `budget`, reading the view at the workload's
/// cadence. `after` runs after each batch, outside every timed section.
fn drive_session(
    session: &mut Session<i64>,
    load: &mut SessionLoad,
    budget: Duration,
    ledger: &mut Ledger,
    mut after: impl FnMut(&Session<i64>, &Phase, Duration),
) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    while started.elapsed() < budget {
        phase.tick();
        let batch = load.stream.next_batch();
        let t = Instant::now();
        let result = session.apply_batch(&batch);
        let dt = t.elapsed();
        phase.delta.push(dt);
        phase.updates += batch.len() as u64;
        match result {
            Ok(delta) => {
                ledger.ok(1);
                black_box(delta);
            }
            Err(e) => ledger.fail(format!("apply_batch: {e}")),
        }
        after(session, &phase, dt);
        if load.read_every.is_some_and(|n| phase.batches() % n == 0) {
            let mut tuples = 0u64;
            let t = Instant::now();
            session.for_each_output(&mut |tuple, payload| {
                tuples += 1;
                black_box((tuple, payload));
            });
            phase.read.push(t.elapsed());
            phase.read_tuples += tuples;
            ledger.ok(1);
        }
    }
    phase.close();
    phase
}

#[derive(Default)]
struct Recovery {
    /// `recover` start → first post-restart delta in hand.
    recover: Latencies,
    /// `Store::recover` alone: snapshot load + journal read.
    load: Latencies,
    snapshot: Latencies,
}

/// Kill/recover cycles: snapshot, journal a fixed tail behind it, drop
/// the session, recover from the directory, and take one more delta.
/// The drop is the kill — the OS cache stays warm, so `recover_ms` is
/// this sandbox's, not a cold device's.
fn recover_cycles(
    mut session: Session<i64>,
    load: &mut SessionLoad,
    cfg: &Config,
    store_dir: &Path,
    registry: Option<&MetricsRegistry>,
    ledger: &mut Ledger,
) -> Result<(Session<i64>, Recovery), String> {
    let mut rec = Recovery::default();
    for cycle in 0..cfg.spec.recover_cycles {
        let t = Instant::now();
        session.snapshot().map_err(|e| format!("snapshot: {e}"))?;
        rec.snapshot.push(t.elapsed());
        let mut tail = 0;
        while tail < RECOVER_TAIL_UPDATES {
            let batch = load.stream.next_batch();
            tail += batch.len();
            session
                .apply_batch(&batch)
                .map_err(|e| format!("journal tail: {e}"))?;
        }
        let before = session.output();
        drop(session);
        if cfg.trace {
            let t = Instant::now();
            black_box(Store::recover::<i64>(store_dir).map_err(|e| format!("store load: {e}"))?);
            rec.load.push(t.elapsed());
        }
        let t = Instant::now();
        let recovered = configure(load, registry).recover(store_dir, &load.base);
        let recover_time = t.elapsed();
        session = recovered.map_err(|e| format!("recover cycle {cycle}: {e}"))?;
        let after = session.output();
        ledger.check(same_view(&after, &before), || {
            format!(
                "recover cycle {cycle}: view has {} tuples, the killed session had {}",
                after.len(),
                before.len()
            )
        });
        let probe = load.stream.next_batch();
        let t = Instant::now();
        let delta = session.apply_batch(&probe);
        rec.recover.push(recover_time + t.elapsed());
        black_box(delta.map_err(|e| format!("post-restart delta: {e}"))?);
    }
    Ok((session, rec))
}

/// Compare the maintained view with a from-scratch evaluation over the
/// final base.
fn check_session(session: &mut Session<i64>, load: &SessionLoad, ledger: &mut Ledger) {
    let db = final_base(std::slice::from_ref(&load.query), &load.base, &*load.stream);
    let expect = evaluate(&load.query, &db);
    let got = session.output();
    ledger.check(same_view(&got, &expect), || {
        format!(
            "maintained view ({} tuples) disagrees with the from-scratch oracle ({} tuples)",
            got.len(),
            expect.len()
        )
    });
}

fn check_engine(
    session: &Session<i64>,
    load: &SessionLoad,
    ledger: &mut Ledger,
    report: &mut Vec<String>,
) {
    report.push(format!("engine: {}", session.describe()));
    ledger.check(session.engine_kind() == load.expect, || {
        format!(
            "auto-selection picked {:?}, the workload is built for {:?}",
            session.engine_kind(),
            load.expect
        )
    });
}

fn recovery_report(report: &mut Vec<String>, rec: &Recovery) {
    if rec.recover.len() > 0 {
        report.push(format!(
            "recovery: {} kill/recover cycles behind a {RECOVER_TAIL_UPDATES}-update tail, recover_ms median {:.2}",
            rec.recover.len(),
            rec.recover.quantile_us(0.5) / 1e3
        ));
    }
}

fn session_untraced(cfg: &Config, mut load: SessionLoad) -> Result<Outcome, String> {
    let (mut ledger, mut metrics, mut report) = (Ledger::default(), Metrics::default(), Vec::new());
    let store_dir = cfg.scratch.join("store");
    let (mut session, setup_s) = stand_up(true, || build_session(&load, &store_dir, None))?;
    check_engine(&session, &load, &mut ledger, &mut report);
    let budget = Duration::from_secs_f64(cfg.seconds);
    let phase = drive_session(&mut session, &mut load, budget, &mut ledger, |_, _, _| {});
    let (mut session, rec) =
        recover_cycles(session, &mut load, cfg, &store_dir, None, &mut ledger)?;
    let peak_rss = peak_rss_bytes();
    check_session(&mut session, &load, &mut ledger);
    end_to_end(&mut metrics, setup_s, &phase, peak_rss);
    phase_report(&mut report, &phase);
    recovery_report(&mut report, &rec);
    Ok(Outcome {
        ledger,
        metrics,
        report,
    })
}

/// Extra time the traced leg spent in ingest calls over the untraced leg,
/// in percent, on the batches both legs saw. The first half of that
/// common prefix is skipped: it is where each leg faults its heap in.
fn trace_overhead_pct(traced: &Phase, untraced: &Phase) -> f64 {
    let n = traced.delta.len().min(untraced.delta.len());
    let tail = |p: &Phase| p.delta.sum_ns(n / 2..n) as f64;
    100.0 * (ratio(tail(traced), tail(untraced)) - 1.0)
}

/// The program's own counters at one instant of the traced leg.
struct Capture {
    registry: MetricsSnapshot,
    stats: Option<DataflowStats>,
    sharded: Option<ShardedStats>,
    resident: usize,
    replans: usize,
    updates: u64,
    batches: u64,
    read_tuples: u64,
    spans: u64,
    journal_bytes: u64,
}

impl Capture {
    fn take(
        session: &Session<i64>,
        registry: &MetricsRegistry,
        phase: &Phase,
        probe: &Probe,
    ) -> Self {
        Capture {
            registry: registry.snapshot(),
            stats: session.stats(),
            sharded: session.sharded_stats(),
            resident: session.resident_tuples().unwrap_or(0),
            replans: session.explain().replans.len(),
            updates: phase.updates,
            batches: phase.batches(),
            read_tuples: phase.read_tuples,
            spans: probe.budget.spans,
            journal_bytes: probe.journal_bytes,
        }
    }

    fn counter_since(&self, start: &Capture, name: &str) -> f64 {
        (self.registry.counter(name) - start.registry.counter(name)) as f64
    }

    fn histogram_sum_since(&self, start: &Capture, name: &str) -> f64 {
        let sum = |c: &Capture| c.registry.histogram(name).map_or(0, |h| h.sum_ns);
        (sum(self) - sum(start)) as f64
    }
}

/// What the traced leg gathers between calls, besides the phase itself.
struct Probe {
    budget: Budget,
    /// `ivm.store.snapshots`, resolved once.
    snapshots: Counter,
    /// Raw spans of the last few epochs, for the trace file.
    tail: VecDeque<Vec<TraceEvent>>,
    /// Caller time beyond the root span in epochs that snapshotted: the
    /// auto-snapshot runs after the `session.ingest` span closes.
    snapshot_stall: Duration,
    snapshots_seen: u64,
    journal_bytes: u64,
    journal_prev: u64,
}

impl Probe {
    fn new(registry: &MetricsRegistry) -> Self {
        Probe {
            budget: Budget::default(),
            snapshots: registry.counter("ivm.store.snapshots"),
            tail: VecDeque::new(),
            snapshot_stall: Duration::ZERO,
            snapshots_seen: 0,
            journal_bytes: 0,
            journal_prev: 0,
        }
    }

    /// Drain the trace ring after one ingest call and fold the epoch in.
    fn absorb(&mut self, registry: &MetricsRegistry, caller: Duration) {
        let tracer = registry.tracer();
        let events = tracer.events();
        tracer.clear();
        self.budget.absorb(&events, caller);
        let snapshots = self.snapshots.get();
        if snapshots != self.snapshots_seen {
            self.snapshots_seen = snapshots;
            let root: Duration = events
                .iter()
                .filter(|e| e.parent.is_none())
                .map(|e| e.elapsed)
                .sum();
            self.snapshot_stall += caller.saturating_sub(root);
        }
        if self.tail.len() == TRACE_TAIL_EPOCHS {
            self.tail.pop_front();
        }
        self.tail.push_back(events);
    }

    /// Journal growth, summed over appends (a snapshot truncates it).
    fn journal(&mut self, bytes: Option<u64>) {
        let now = bytes.unwrap_or(0);
        self.journal_bytes += now.saturating_sub(self.journal_prev);
        self.journal_prev = now;
    }
}

/// The workload's first `n` batches again.
fn replay_batches(cfg: &Config, n: u64) -> Vec<Vec<Update<i64>>> {
    let mut stream: Box<dyn Stream> = match cfg.spec.load(cfg.seed) {
        Load::Session(load) => load.stream,
        Load::Serve(mut load) => {
            load.stream.preload_updates(load.base_edges);
            Box::new(load.stream)
        }
    };
    (0..n).map(|_| stream.next_batch()).collect()
}

/// Layer replay for the layers that publish no time of their own: feed
/// the workload's batches straight into the layer's public entry point.
/// Returns nanoseconds per update.
fn replay_engine(
    engine: &mut dyn Maintainer<i64>,
    batches: &[Vec<Update<i64>>],
) -> Result<f64, String> {
    let updates: usize = batches.iter().map(Vec::len).sum();
    let t = Instant::now();
    for b in batches {
        black_box(
            engine
                .apply_batch(b)
                .map_err(|e| format!("layer replay: {e}"))?,
        );
    }
    Ok(ratio(t.elapsed().as_nanos() as f64, updates as f64))
}

fn replay_data(metrics: &mut Metrics, batches: &[Vec<Update<i64>>]) {
    let updates: usize = batches.iter().map(Vec::len).sum();
    let t = Instant::now();
    for b in batches {
        black_box(consolidate(b));
    }
    let ns = t.elapsed().as_nanos() as f64;
    let bytes: usize = batches.iter().map(|b| to_bytes(b).len()).sum();
    metrics.put("data.consolidate_ns_per_update", ratio(ns, updates as f64));
    metrics.put(
        "data.encoded_bytes_per_update",
        ratio(bytes as f64, updates as f64),
    );
}

/// One row per layer (in `Layer::ALL` order), summing to the caller's
/// epoch time once `close`d.
#[derive(Default)]
struct Rows([f64; Layer::ALL.len()]);

impl Rows {
    fn get(&self, layer: Layer) -> f64 {
        self.0[layer as usize]
    }

    fn set(&mut self, layer: Layer, ns: f64) {
        self.0[layer as usize] = ns;
    }

    /// Whatever of the caller's own clock no row accounts for.
    fn close(&mut self, budget: &Budget) {
        let attributed: f64 = self.0.iter().sum();
        let caller = budget.caller.as_nanos() as f64;
        self.set(Layer::Unattributed, (caller - attributed).max(0.0));
    }
}

/// Print the budget table, record the shares, and check the guard: the
/// workload's named layers must hold at least half the epoch time, or the
/// run is not exercising the traffic its row describes.
fn budget_report(
    cfg: &Config,
    budget: &Budget,
    rows: &Rows,
    metrics: &mut Metrics,
    report: &mut Vec<String>,
) {
    let caller = budget.caller.as_nanos() as f64;
    let share = |ns: f64| 100.0 * ratio(ns, caller);
    report.push(format!(
        "budget over {} traced epochs, {:.1} us per epoch at the caller:",
        budget.epochs,
        ratio(caller / 1e3, budget.epochs as f64)
    ));
    report.push(format!(
        "  {:<14} {:>12} {:>8}",
        "layer", "us/epoch", "share"
    ));
    for layer in Layer::ALL {
        report.push(format!(
            "  {:<14} {:>12.2} {:>7.1}%",
            layer.name(),
            ratio(rows.get(layer) / 1e3, budget.epochs as f64),
            share(rows.get(layer))
        ));
    }
    report.push("  stages (wall-clock partition of the root span):".into());
    for (stage, ns) in &budget.by_stage {
        report.push(format!(
            "    {:<24} {:>10.2} us/epoch  [{}]",
            stage,
            ratio(ns / 1e3, budget.epochs as f64),
            layer_of(stage).name()
        ));
    }
    metrics.put("budget.epoch_us", ratio(caller / 1e3, budget.epochs as f64));
    for layer in Layer::ALL {
        let name = format!("budget.{}_share", layer.name());
        metrics.put(&name, share(rows.get(layer)));
    }
    let dominant: f64 = cfg.spec.dominant.iter().map(|l| share(rows.get(*l))).sum();
    metrics.put("budget.dominant_share", dominant);
    let names: Vec<&str> = cfg.spec.dominant.iter().map(|l| l.name()).collect();
    report.push(format!(
        "dominant layer(s) {} hold {dominant:.1}% of the traced epoch time{}",
        names.join(" + "),
        if dominant < 50.0 {
            " -- WARNING: under 50%, this run does not exercise the traffic its row describes"
        } else {
            ""
        }
    ));
    if share(rows.get(Layer::Unattributed)) > 10.0 {
        report.push("WARNING: more than 10% of the epoch time is unattributed".into());
    }
}

fn write_trace(
    cfg: &Config,
    budget: &Budget,
    rows: &Rows,
    tail: &VecDeque<Vec<TraceEvent>>,
) -> Option<PathBuf> {
    let stages = budget.by_stage.iter().fold(Json::obj(), |o, (stage, ns)| {
        o.field(stage.clone(), Json::num(*ns))
    });
    let layers = Layer::ALL.iter().fold(Json::obj(), |o, l| {
        o.field(l.name(), Json::num(rows.get(*l)))
    });
    let spans = |events: &Vec<TraceEvent>| {
        Json::Arr(
            events
                .iter()
                .map(|e| {
                    Json::obj()
                        .field("id", Json::num(e.id as f64))
                        .field(
                            "parent",
                            e.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                        )
                        .field("epoch", Json::num(e.epoch as f64))
                        .field("label", Json::str(e.label.clone()))
                        .field("start_ns", Json::num(e.start_ns() as f64))
                        .field("elapsed_ns", Json::num(e.elapsed_ns() as f64))
                })
                .collect(),
        )
    };
    let doc = Json::obj()
        .field("workload", Json::str(cfg.spec.name))
        .field("seed", Json::num(cfg.seed as f64))
        .field("epochs", Json::num(budget.epochs as f64))
        .field("caller_ns", Json::num(budget.caller.as_nanos() as f64))
        .field("root_ns", Json::num(budget.root_ns as f64))
        .field("spans", Json::num(budget.spans as f64))
        .field("orphan_spans", Json::num(budget.orphans as f64))
        .field("layer_ns", layers)
        .field("stage_ns", stages)
        .field("last_epochs", Json::Arr(tail.iter().map(spans).collect()));
    // The trace file sits beside the per-run scratch directories.
    let path = cfg
        .scratch
        .parent()?
        .join(format!("trace-{}.json", cfg.spec.name));
    std::fs::write(&path, doc.render() + "\n").ok()?;
    Some(path)
}

/// Whether the exact counters were taken at the frozen checkpoint.
fn checkpoint_report(
    cfg: &Config,
    reached: bool,
    phase: &Phase,
    metrics: &mut Metrics,
    report: &mut Vec<String>,
) {
    metrics.put("checkpoint.reached", f64::from(reached));
    if !reached {
        report.push(format!(
            "WARNING: the traced leg ended after {} batches, before the {}-batch checkpoint; exact counters are taken at the end instead and do not compare across runs",
            phase.batches(),
            cfg.spec.checkpoint
        ));
    }
}

/// The `read.*` metrics; `tuples` is the exact count at the checkpoint.
fn read_metrics(metrics: &mut Metrics, phase: &Phase, tuples: u64) {
    metrics.put("read.p50_us", phase.read.quantile_us(0.50));
    metrics.put("read.p99_us", phase.read.quantile_us(0.99));
    let ns = phase.read.total().as_nanos() as f64;
    metrics.put("read.ns_per_tuple", ratio(ns, phase.read_tuples as f64));
    metrics.put("read.tuples", tuples as f64);
}

/// Coverage of the root span by its child stages and spans per epoch.
fn obs_metrics(
    metrics: &mut Metrics,
    budget: &Budget,
    root: &str,
    spans_at_checkpoint: u64,
    epochs: u64,
    overhead_pct: f64,
) {
    let root_self = budget.stage_ns(|s| s == root);
    metrics.put(
        "obs.waterfall_coverage",
        1.0 - ratio(root_self, budget.root_ns as f64),
    );
    metrics.put(
        "obs.spans_per_epoch",
        ratio(spans_at_checkpoint as f64, epochs as f64),
    );
    metrics.put("obs.trace_overhead_pct", overhead_pct);
}

fn session_traced(cfg: &Config, load_a: SessionLoad) -> Result<Outcome, String> {
    let (mut ledger, mut metrics, mut report) = (Ledger::default(), Metrics::default(), Vec::new());
    let store_dir = cfg.scratch.join("store");

    // Leg A, a quarter of the run: the same stream through an untraced
    // system. obs.trace_overhead_pct compares the two legs over the same
    // batches, so only tracing differs between them. It is also the first
    // system this process builds, so its RSS growth is the system's own.
    let (untraced, rss_per_base_tuple) = {
        let mut load = load_a;
        let rss_before = rss_bytes();
        let (mut session, _) = stand_up(false, || build_session(&load, &store_dir, None))?;
        let budget = Duration::from_secs_f64(cfg.seconds / 4.0);
        let phase = drive_session(&mut session, &mut load, budget, &mut ledger, |_, _, _| {});
        let growth = rss_bytes().saturating_sub(rss_before) as f64;
        (phase, ratio(growth, load.base.size() as f64))
    };

    // Leg B: the traced system over the same stream from its start.
    let Load::Session(mut load) = cfg.spec.load(cfg.seed) else {
        unreachable!("a session workload loads as one");
    };
    let registry = MetricsRegistry::new();
    let (mut session, build_s) =
        stand_up(false, || build_session(&load, &store_dir, Some(&registry)))?;
    check_engine(&session, &load, &mut ledger, &mut report);
    let kind = session.engine_kind();
    registry.tracer().clear();
    let probe = RefCell::new(Probe::new(&registry));
    probe.borrow_mut().journal(session.journal_bytes());
    let start = Capture::take(&session, &registry, &Phase::default(), &probe.borrow());
    let mut checkpoint = None;
    let budget = Duration::from_secs_f64(cfg.seconds * 0.75);
    let phase = drive_session(
        &mut session,
        &mut load,
        budget,
        &mut ledger,
        |session, phase, dt| {
            let mut p = probe.borrow_mut();
            p.absorb(&registry, dt);
            p.journal(session.journal_bytes());
            if phase.batches() == cfg.spec.checkpoint {
                checkpoint = Some(Capture::take(session, &registry, phase, &p));
            }
        },
    );
    let probe = probe.into_inner();
    let leg_end = Capture::take(&session, &registry, &phase, &probe);
    let (mut session, rec) = recover_cycles(
        session,
        &mut load,
        cfg,
        &store_dir,
        Some(&registry),
        &mut ledger,
    )?;
    let end = registry.snapshot();
    check_session(&mut session, &load, &mut ledger);
    drop(session);

    checkpoint_report(cfg, checkpoint.is_some(), &phase, &mut metrics, &mut report);
    // Counts come from the checkpoint so they repeat exactly for a seed;
    // times come from the whole leg.
    let at = checkpoint.as_ref().unwrap_or(&leg_end);
    let updates = at.updates as f64;
    let leg_updates = phase.updates as f64;

    // Layer replays.
    let batches = replay_batches(cfg, cfg.spec.checkpoint);
    replay_data(&mut metrics, &batches);
    let (query, base) = (load.query.clone(), &load.base);
    let backend_ns_per_update = match kind {
        EngineKind::HeavyLight => {
            let mut engine =
                HeavyLightEngine::new(query, base, lift_one).map_err(|e| e.to_string())?;
            let ns = replay_engine(&mut engine, &batches)?;
            metrics.put("hl.ns_per_update", ns);
            ns
        }
        EngineKind::EagerFact => {
            let mut engine =
                EagerFactEngine::new(query, base, lift_one).map_err(|e| e.to_string())?;
            let ns = replay_engine(&mut engine, &batches)?;
            metrics.put("core.update_ns_per_update", ns);
            ns
        }
        _ => 0.0,
    };

    // The budget rows.
    let b = &probe.budget;
    let store_ns = leg_end.histogram_sum_since(&start, "ivm.store.append_ns")
        + leg_end.histogram_sum_since(&start, "ivm.store.fsync_ns");
    let root_self = b.stage_ns(|s| s == "session.ingest");
    let backend_ns = (backend_ns_per_update * leg_updates).min((root_self - store_ns).max(0.0));
    let mut rows = Rows::default();
    rows.set(
        Layer::Store,
        store_ns + probe.snapshot_stall.as_nanos() as f64,
    );
    rows.set(Layer::Shard, b.layer_ns(Layer::Shard));
    rows.set(Layer::Dataflow, b.layer_ns(Layer::Dataflow));
    rows.set(
        match kind {
            EngineKind::HeavyLight => Layer::Hl,
            _ => Layer::Core,
        },
        backend_ns,
    );
    rows.set(Layer::Session, (root_self - store_ns - backend_ns).max(0.0));
    rows.close(b);
    budget_report(cfg, b, &rows, &mut metrics, &mut report);

    // Reads.
    read_metrics(&mut metrics, &phase, at.read_tuples);

    // store
    let batches_in_leg = phase.batches() as f64;
    metrics.put(
        "store.append_us_per_batch",
        ratio(
            leg_end.histogram_sum_since(&start, "ivm.store.append_ns") / 1e3,
            batches_in_leg,
        ),
    );
    metrics.put(
        "store.fsync_us_per_batch",
        ratio(
            leg_end.histogram_sum_since(&start, "ivm.store.fsync_ns") / 1e3,
            batches_in_leg,
        ),
    );
    metrics.put(
        "store.commits",
        at.counter_since(&start, "ivm.store.commits"),
    );
    metrics.put(
        "store.journal_bytes_per_update",
        ratio(at.journal_bytes as f64, updates),
    );
    metrics.put("store.snapshot_ms", rec.snapshot.mean_us() / 1e3);
    metrics.put(
        "store.snapshot_bytes",
        end.gauge("ivm.store.snapshot_bytes") as f64,
    );
    metrics.put(
        "store.replayed_updates",
        end.counter("ivm.store.replayed_updates") as f64,
    );
    let (recover_ms, load_ms) = (
        rec.recover.quantile_us(0.5) / 1e3,
        rec.load.quantile_us(0.5) / 1e3,
    );
    metrics.put("store.recover_ms", recover_ms);
    metrics.put("store.recover_load_ms", load_ms);
    metrics.put("store.recover_replay_ms", (recover_ms - load_ms).max(0.0));

    // shard
    if let (Some(now), Some(then)) = (&leg_end.sharded, &start.sharded) {
        let busy: Vec<f64> = now
            .busy
            .iter()
            .zip(&then.busy)
            .map(|(n, t)| n.saturating_sub(*t).as_nanos() as f64)
            .collect();
        let (total, max) = (
            busy.iter().sum::<f64>(),
            busy.iter().cloned().fold(0.0, f64::max),
        );
        metrics.put("shard.busy_ns_per_update", ratio(total, leg_updates));
        metrics.put("shard.balance", ratio(total / busy.len() as f64, max));
        metrics.put(
            "shard.router_consolidate_ns_per_update",
            ratio(
                leg_end.counter_since(&start, "ivm.fleet.router.consolidate_ns"),
                leg_updates,
            ),
        );
        metrics.put(
            "shard.router_partition_ns_per_update",
            ratio(
                leg_end.counter_since(&start, "ivm.fleet.router.partition_ns"),
                leg_updates,
            ),
        );
        metrics.put(
            "shard.settle_us_per_batch",
            ratio(
                leg_end.histogram_sum_since(&start, "ivm.fleet.settle_ns") / 1e3,
                batches_in_leg,
            ),
        );
        metrics.put(
            "shard.queue_wait_share",
            100.0
                * ratio(
                    b.stage_ns(|s| s == "shard.queue_wait"),
                    b.caller.as_nanos() as f64,
                ),
        );
    }
    if let (Some(now), Some(then)) = (&at.sharded, &start.sharded) {
        metrics.put(
            "shard.routed",
            (now.router.routed - then.router.routed) as f64,
        );
        metrics.put(
            "shard.broadcast_copies",
            (now.router.broadcast_copies - then.router.broadcast_copies) as f64,
        );
    }

    // dataflow
    if let (Some(now), Some(then)) = (&at.stats, &start.stats) {
        let s = now.since(then);
        metrics.put("dataflow.work_per_update", ratio(s.work() as f64, updates));
        metrics.put(
            "dataflow.multiway_seeds_per_update",
            ratio(s.multiway_seeds as f64, updates),
        );
        metrics.put(
            "dataflow.multiway_probes_per_update",
            ratio(s.multiway_probes as f64, updates),
        );
        metrics.put(
            "dataflow.binary_join_tuples_per_update",
            ratio(s.binary_join_tuples as f64, updates),
        );
    }
    if let (Some(now), Some(then)) = (&leg_end.stats, &start.stats) {
        let dataflow_ns = rows.get(Layer::Dataflow);
        metrics.put(
            "dataflow.ns_per_work",
            ratio(dataflow_ns, now.since(then).work() as f64),
        );
        let joins = b.stage_ns(|s| s == "op.delta_join" || s == "op.multiway_join");
        metrics.put(
            "dataflow.join_self_share",
            100.0 * ratio(joins, dataflow_ns),
        );
        let aggregates = b.stage_ns(|s| s == "op.group_aggregate");
        metrics.put(
            "dataflow.aggregate_self_share",
            100.0 * ratio(aggregates, dataflow_ns),
        );
    }

    // hl
    if kind == EngineKind::HeavyLight {
        metrics.put(
            "hl.work_per_update",
            ratio(at.counter_since(&start, "ivm.hl.work"), updates),
        );
        metrics.put(
            "hl.migrations",
            at.counter_since(&start, "ivm.hl.migrations"),
        );
        metrics.put(
            "hl.rebalances",
            at.counter_since(&start, "ivm.hl.rebalances"),
        );
        let heavy = at.counter_since(&start, "ivm.hl.heavy_hits");
        let light = at.counter_since(&start, "ivm.hl.light_scans");
        metrics.put("hl.heavy_hit_ratio", ratio(heavy, heavy + light));
        metrics.put(
            "hl.view_entries",
            at.registry.gauge("ivm.hl.view_entries") as f64,
        );
    }

    // session
    metrics.put(
        "session.ingest_us_per_batch",
        ratio(
            leg_end.histogram_sum_since(&start, "ivm.session.ingest_ns") / 1e3,
            batches_in_leg,
        ),
    );
    metrics.put(
        "session.overhead_ns_per_update",
        ratio(rows.get(Layer::Session), leg_updates),
    );
    metrics.put("session.resident_tuples", at.resident as f64);
    metrics.put("session.rss_bytes_per_base_tuple", rss_per_base_tuple);
    metrics.put("session.replans", at.replans as f64);
    metrics.put("session.build_ms", build_s * 1e3);

    let overhead = trace_overhead_pct(&phase, &untraced);
    obs_metrics(
        &mut metrics,
        b,
        "session.ingest",
        at.spans,
        at.batches,
        overhead,
    );
    phase_report(&mut report, &phase);
    recovery_report(&mut report, &rec);
    if let Some(path) = write_trace(cfg, b, &rows, &probe.tail) {
        report.push(format!("trace written to {}", path.display()));
    }
    Ok(Outcome {
        ledger,
        metrics,
        report,
    })
}

// ---------------------------------------------------------------------
// The ServeNode workload
// ---------------------------------------------------------------------

/// A subscriber whose received deltas are summed and compared with the
/// oracle at the end; never churned.
struct Sampled {
    query: Query,
    id: SubId,
    /// `Some` for the channel kind; the callback kind folds in place.
    channel: Option<Subscription<i64>>,
    /// The view snapshot at subscribe time plus every delta since.
    sum: Rc<RefCell<Relation<i64>>>,
}

struct Fanout {
    node: ServeNode<i64>,
    /// Live replaceable subscribers, oldest first.
    channels: VecDeque<Subscription<i64>>,
    callbacks: VecDeque<SubId>,
    /// Deliveries and payload checksum over every callback subscriber —
    /// the cheapest realistic consumer.
    tally: Rc<Cell<(u64, i64)>>,
    sampled: Vec<Sampled>,
    /// Subscriptions made so far; picks the next catalog query.
    subscribed: usize,
}

fn fold(view: &mut Relation<i64>, delta: &Relation<i64>) {
    for (t, p) in delta.iter() {
        view.apply(t.clone(), p);
    }
}

impl Fanout {
    /// Subscribe the next catalog query as a replaceable subscriber.
    fn subscribe(&mut self, callback: bool) -> Result<SubId, String> {
        let query = catalog(self.subscribed);
        self.subscribed += 1;
        if callback {
            let tally = Rc::clone(&self.tally);
            let id = self.node.subscribe_with(query, move |vd| {
                let (n, sum) = tally.get();
                let payloads: i64 = vd.delta.iter().map(|(_, p)| *p).sum();
                tally.set((n + 1, sum.wrapping_add(payloads)));
            });
            let id = id.map_err(|e| format!("subscribe: {e}"))?;
            self.callbacks.push_back(id);
            Ok(id)
        } else {
            let sub = self.node.subscribe_bounded(query, CHANNEL_CAPACITY);
            let sub = sub.map_err(|e| format!("subscribe: {e}"))?;
            let id = sub.id();
            self.channels.push_back(sub);
            Ok(id)
        }
    }

    fn subscribers(&self) -> usize {
        self.channels.len() + self.callbacks.len() + self.sampled.len()
    }

    /// Every channel subscriber takes its delivery. Returns how many held
    /// exactly one.
    fn drain(&mut self) -> usize {
        let mut received = 0;
        for sub in &mut self.channels {
            if let Some(vd) = sub.try_next() {
                received += 1;
                black_box(vd);
            }
        }
        for s in &mut self.sampled {
            if let Some(vd) = s.channel.as_mut().and_then(Subscription::try_next) {
                received += 1;
                fold(&mut s.sum.borrow_mut(), &vd.delta);
            }
        }
        received
    }

    /// Stand the node up: one subscriber per catalog query declares the
    /// relations, the base streams in, then everyone else subscribes — ¾
    /// bounded channels, ¼ callbacks — and last the sampled subscribers.
    fn stand_up(
        load: &ServeLoad,
        preload: &[Update<i64>],
        registry: Option<&MetricsRegistry>,
    ) -> Result<Fanout, String> {
        let mut fan = Fanout {
            node: ServeNode::new(),
            channels: VecDeque::new(),
            callbacks: VecDeque::new(),
            tally: Rc::default(),
            sampled: Vec::new(),
            subscribed: 0,
        };
        if let Some(r) = registry {
            fan.node.observe(r);
        }
        for _ in 0..4 {
            fan.subscribe(false)?;
        }
        for chunk in preload.chunks(512) {
            fan.node
                .apply_batch(chunk)
                .map_err(|e| format!("preload: {e}"))?;
            fan.drain();
        }
        while fan.subscribers() + 8 < load.subscribers {
            // Groups of four cover the catalog; every fourth group is callbacks.
            fan.subscribe((fan.subscribed / 4) % 4 == 3)?;
        }
        for i in 0..8 {
            let query = catalog(i);
            let sum = Rc::new(RefCell::new(Relation::new(query.free.clone())));
            let (id, channel) = if i < 4 {
                let sub = fan
                    .node
                    .subscribe_bounded(query.clone(), CHANNEL_CAPACITY)
                    .map_err(|e| format!("subscribe: {e}"))?;
                (sub.id(), Some(sub))
            } else {
                let sink = Rc::clone(&sum);
                let id = fan
                    .node
                    .subscribe_with(query.clone(), move |vd| {
                        fold(&mut sink.borrow_mut(), &vd.delta)
                    })
                    .map_err(|e| format!("subscribe: {e}"))?;
                (id, None)
            };
            let snapshot = fan.node.view(id).ok_or("a fresh subscriber has a view")?;
            *sum.borrow_mut() = snapshot;
            fan.sampled.push(Sampled {
                query,
                id,
                channel,
                sum,
            });
        }
        Ok(fan)
    }

    /// Replace `load.churn` subscribers (¾ channels, ¼ callbacks): the
    /// oldest leave, latecomers subscribe and read their view.
    fn churn(
        &mut self,
        load: &ServeLoad,
        phase: &mut Phase,
        subscribe: &mut Latencies,
        ledger: &mut Ledger,
    ) -> Result<(), String> {
        for i in 0..load.churn {
            let callback = i % 4 == 3;
            let leaving = if callback {
                self.callbacks.pop_front()
            } else {
                self.channels.pop_front().map(|s| s.id())
            };
            let t = Instant::now();
            let left = leaving.is_some_and(|id| self.node.unsubscribe(id));
            phase.other += t.elapsed();
            ledger.check(left, || {
                "a subscriber was evicted before it could leave".into()
            });

            let t = Instant::now();
            let id = self.subscribe(callback)?;
            let dt = t.elapsed();
            subscribe.push(dt);
            phase.other += dt;

            let t = Instant::now();
            let view = self.node.view(id);
            phase.read.push(t.elapsed());
            match view {
                Some(v) => {
                    phase.read_tuples += v.len() as u64;
                    ledger.ok(1);
                }
                None => ledger.fail("a latecomer has no view"),
            }
        }
        Ok(())
    }

    /// Replace every replaceable subscriber once, untimed. An epoch takes
    /// ~3.6 ms while the subscribers are the ones set-up created and ~5 ms
    /// once latecomers have replaced them all, which the timed phase's
    /// churn only gets through after 8 192 epochs: without this an
    /// epoch's cost climbs for the whole run.
    fn warm_up(&mut self, load: &ServeLoad, ledger: &mut Ledger) -> Result<(), String> {
        let (mut phase, mut subscribe) = (Phase::default(), Latencies::default());
        for _ in 0..load.subscribers / load.churn {
            self.churn(load, &mut phase, &mut subscribe, ledger)?;
        }
        Ok(())
    }
}

/// Ingest batches for `budget`. Per epoch the delta latency runs from
/// `apply_batch` entry to the last subscriber's *receipt*: callbacks
/// return inside the call, channels are drained right after it.
fn drive_fanout(
    fan: &mut Fanout,
    load: &mut ServeLoad,
    budget: Duration,
    ledger: &mut Ledger,
    subscribe: &mut Latencies,
    mut after: impl FnMut(&Fanout, &Phase, Duration, Duration),
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let started = Instant::now();
    while started.elapsed() < budget {
        phase.tick();
        let batch = load.stream.next_batch();
        let callbacks_before = fan.tally.get().0;
        let t = Instant::now();
        let result = fan.node.apply_batch(&batch);
        let applied = t.elapsed();
        let received = fan.drain();
        let total = t.elapsed();
        phase.delta.push(total);
        phase.updates += batch.len() as u64;
        let received = received + (fan.tally.get().0 - callbacks_before) as usize;
        // The sampled callbacks fold instead of tallying.
        let expected =
            fan.subscribers() - fan.sampled.iter().filter(|s| s.channel.is_none()).count();
        match result {
            Ok(()) if received == expected => ledger.ok(1 + expected as u64),
            Ok(()) => ledger.fail(format!(
                "epoch {}: {received} of {expected} deliveries received",
                fan.node.epoch()
            )),
            Err(e) => ledger.fail(format!("apply_batch: {e}")),
        }
        after(fan, &phase, applied, total - applied);
        if phase.batches() % load.churn_every == 0 {
            fan.churn(load, &mut phase, subscribe, ledger)?;
        }
    }
    phase.close();
    Ok(phase)
}

/// Every group's view, and the sum of each sampled subscriber's received
/// deltas, against a from-scratch evaluation over the final base.
fn check_fanout(fan: &mut Fanout, load: &ServeLoad, ledger: &mut Ledger) {
    let queries: Vec<Query> = (0..4).map(catalog).collect();
    let db = final_base(&queries, &Database::new(), &load.stream);
    for s in &fan.sampled {
        let expect = evaluate(&s.query, &db);
        let view = fan.node.view(s.id);
        ledger.check(view.as_ref().is_some_and(|v| same_view(v, &expect)), || {
            format!(
                "view of {:?} disagrees with the from-scratch oracle",
                s.query.name
            )
        });
        ledger.check(same_view(&s.sum.borrow(), &expect), || {
            format!(
                "snapshot + received deltas of subscriber {} disagree with the oracle",
                s.id
            )
        });
    }
    ledger.check(fan.subscribers() == load.subscribers, || {
        format!(
            "{} of {} subscribers are live",
            fan.subscribers(),
            load.subscribers
        )
    });
}

fn serve_untraced(cfg: &Config, mut load: ServeLoad) -> Result<Outcome, String> {
    let (mut ledger, mut metrics, mut report) = (Ledger::default(), Metrics::default(), Vec::new());
    let preload = load.stream.preload_updates(load.base_edges);
    let (mut fan, setup_s) = stand_up(true, || Fanout::stand_up(&load, &preload, None))?;
    fan.warm_up(&load, &mut ledger)?;
    report.push(format!(
        "node: {} subscribers on {} engine groups",
        fan.subscribers(),
        fan.node.group_count()
    ));
    let budget = Duration::from_secs_f64(cfg.seconds);
    let mut subscribe = Latencies::default();
    let phase = drive_fanout(
        &mut fan,
        &mut load,
        budget,
        &mut ledger,
        &mut subscribe,
        |_, _, _, _| {},
    )?;
    let peak_rss = peak_rss_bytes();
    check_fanout(&mut fan, &load, &mut ledger);
    end_to_end(&mut metrics, setup_s, &phase, peak_rss);
    phase_report(&mut report, &phase);
    Ok(Outcome {
        ledger,
        metrics,
        report,
    })
}

fn serve_traced(cfg: &Config, load_a: ServeLoad) -> Result<Outcome, String> {
    let (mut ledger, mut metrics, mut report) = (Ledger::default(), Metrics::default(), Vec::new());
    let mut subscribe = Latencies::default();
    let untraced = {
        let mut load = load_a;
        let preload = load.stream.preload_updates(load.base_edges);
        let mut fan = Fanout::stand_up(&load, &preload, None)?;
        fan.warm_up(&load, &mut ledger)?;
        let budget = Duration::from_secs_f64(cfg.seconds / 4.0);
        drive_fanout(
            &mut fan,
            &mut load,
            budget,
            &mut ledger,
            &mut Latencies::default(),
            |_, _, _, _| {},
        )?
    };

    let Load::Serve(mut load) = cfg.spec.load(cfg.seed) else {
        unreachable!("the serve workload loads as one");
    };
    let preload = load.stream.preload_updates(load.base_edges);
    let registry = MetricsRegistry::new();
    let (mut fan, build_s) =
        stand_up(false, || Fanout::stand_up(&load, &preload, Some(&registry)))?;
    fan.warm_up(&load, &mut ledger)?;
    let groups = fan.node.group_count();
    // The preload epochs and the warm-up are set-up, not traffic.
    registry.tracer().clear();
    let probe = RefCell::new(Probe::new(&registry));
    let mut drained = Duration::ZERO;
    // (registry, resident tuples, batches, deliveries, spans) at one instant.
    let capture = |fan: &Fanout, phase: &Phase, deliveries: u64, spans: u64| {
        let resident = fan.node.resident_tuples();
        (
            registry.snapshot(),
            resident,
            phase.batches(),
            deliveries,
            spans,
        )
    };
    let mut checkpoint = None;
    let mut deliveries = 0u64;
    let budget = Duration::from_secs_f64(cfg.seconds * 0.75);
    let phase = drive_fanout(
        &mut fan,
        &mut load,
        budget,
        &mut ledger,
        &mut subscribe,
        |fan, phase, applied, drain| {
            let mut p = probe.borrow_mut();
            p.absorb(&registry, applied + drain);
            // Receipt is `Subscription::try_next`, which is serve code too.
            *p.budget
                .by_stage
                .entry("subscription.try_next".into())
                .or_default() += drain.as_nanos() as f64;
            drained += drain;
            deliveries += fan.subscribers() as u64;
            if phase.batches() == cfg.spec.checkpoint {
                checkpoint = Some(capture(fan, phase, deliveries, p.budget.spans));
            }
        },
    )?;
    let probe = probe.into_inner();
    check_fanout(&mut fan, &load, &mut ledger);

    checkpoint_report(cfg, checkpoint.is_some(), &phase, &mut metrics, &mut report);
    let (at, resident, at_batches, at_deliveries, at_spans) =
        checkpoint.unwrap_or_else(|| capture(&fan, &phase, deliveries, probe.budget.spans));

    replay_data(&mut metrics, &replay_batches(cfg, cfg.spec.checkpoint));

    let b = &probe.budget;
    let mut rows = Rows::default();
    rows.set(Layer::Serve, b.layer_ns(Layer::Serve));
    rows.set(Layer::Dataflow, b.layer_ns(Layer::Dataflow));
    rows.close(b);
    budget_report(cfg, b, &rows, &mut metrics, &mut report);

    let epochs = phase.batches() as f64;
    read_metrics(&mut metrics, &phase, phase.read_tuples);
    metrics.put(
        "serve.notify_ns_per_delivery",
        ratio(b.stage_ns(|s| s == "serve.notify"), deliveries as f64),
    );
    metrics.put(
        "serve.deliveries_per_epoch",
        ratio(at_deliveries as f64, at_batches as f64),
    );
    metrics.put(
        "serve.group_apply_us_per_epoch",
        ratio(b.stage_ns(|s| s == "serve.group_apply") / 1e3, epochs),
    );
    // Callback subscribers have nothing to drain.
    let channel_share = ratio((fan.channels.len() + 4) as f64, fan.subscribers() as f64);
    metrics.put(
        "serve.drain_ns_per_delivery",
        ratio(drained.as_nanos() as f64, deliveries as f64 * channel_share),
    );
    metrics.put("serve.subscribe_us", subscribe.mean_us());
    metrics.put("serve.groups", groups as f64);
    metrics.put(
        "serve.dedup_hits",
        at.counter("ivm.serve.dedup_hits") as f64,
    );
    metrics.put(
        "serve.store_dedup_hits",
        at.counter("ivm.serve.store_dedup_hits") as f64,
    );
    metrics.put("serve.evictions", at.counter("ivm.serve.evictions") as f64);
    metrics.put("serve.resident_tuples", resident as f64);
    metrics.put(
        "dataflow.hub_advance_us_per_epoch",
        ratio(b.stage_ns(|s| s == "hub.advance") / 1e3, epochs),
    );
    metrics.put("session.build_ms", build_s * 1e3);
    let overhead = trace_overhead_pct(&phase, &untraced);
    obs_metrics(
        &mut metrics,
        b,
        "serve.ingest",
        at_spans,
        at_batches,
        overhead,
    );
    phase_report(&mut report, &phase);
    if let Some(path) = write_trace(cfg, b, &rows, &probe.tail) {
        report.push(format!("trace written to {}", path.display()));
    }
    Ok(Outcome {
        ledger,
        metrics,
        report,
    })
}
