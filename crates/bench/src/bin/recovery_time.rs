//! Durability economics: what a restart costs with and without the
//! store, and what the journal's group commit buys.
//!
//! **Part 1 — journal append throughput.** The same record stream is
//! appended twice: once fsyncing after every record (commit-per-append;
//! each commit also pays the handoff to the journal's committer thread
//! and back) and once buffering everything behind a single group commit.
//! The gap is the whole argument for `Journal::commit` covering many
//! epochs with one fsync.
//!
//! **Part 2 — warm vs cold time-to-first-delta.** One durable session
//! ingests a fixed history of `H` updates, snapshotting so that a tail
//! of `T ∈ {0, 1k, 10k}` updates stays in the journal, then dies. The
//! **warm** restart is `SessionBuilder::recover` (snapshot load + tail
//! replay) followed by one probe batch; the **cold** baseline rebuilds
//! a fresh session and replays the entire raw history from scratch
//! before the same probe. Acceptance: warm beats cold at every tail,
//! and warm restart time tracks the *tail* — the fixed-tail rows at
//! half and full history land within noise of each other, while cold
//! grows with history.
//!
//! Run: `cargo run --release -p ivm-bench --bin recovery_time`
//! Also emits `BENCH_store.json` (path override: `BENCH_STORE_JSON`).

use ivm_bench::{bench_doc, fmt, per_sec, ratio, scaled, Json, Table};
use ivm_core::Maintainer;
use ivm_data::{sym, tup, vars, Database, Update};
use ivm_query::{Atom, Query};
use ivm_session::Session;
use ivm_store::Journal;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The cyclic triangle count `Q() = Σ E(a,b)·E(b,c)·E(c,a)` — the WCOJ
/// dataflow engine, where every replayed batch pays real multiway join
/// work, so the cold rebuild's cost is honest incremental maintenance
/// over the whole history rather than deferred evaluation.
fn triangle() -> Query {
    let [a, b, c] = vars(["rt_A", "rt_B", "rt_C"]);
    let e = sym("rt_E");
    Query::new(
        "rt_tri",
        [],
        vec![
            Atom::new(e, [a, b]),
            Atom::new(e, [b, c]),
            Atom::new(e, [c, a]),
        ],
    )
}

/// Deterministic splitmix-style generator: every scenario replays the
/// identical stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// `n` churning edge updates over a small node domain: half inserts,
/// half deletes of the same distribution, so multiplicities cancel and
/// the *consolidated* base stays far smaller than the history. This is
/// the stream shape snapshots exist for — a cold rebuild replays every
/// insert-then-deleted edge, a warm restart loads only what survived.
fn history(n: usize, seed: u64) -> Vec<Update<i64>> {
    let e = sym("rt_E");
    let mut rng = Rng(seed);
    (0..n)
        .map(|_| {
            let a = rng.next() % 60;
            let b = rng.next() % 60;
            let m = if rng.next().is_multiple_of(2) { 1 } else { -1 };
            Update::with_payload(e, tup![a, b], m)
        })
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ivm-bench-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct TailRow {
    label: String,
    history: usize,
    tail: usize,
    warm: Duration,
    replayed_updates: u64,
    cold: Duration,
}

/// One kill-and-recover scenario: ingest `updates` in batches of
/// `batch`, snapshot so `tail` updates stay journaled, kill, then time
/// warm recovery + probe vs a cold from-scratch rebuild + probe.
fn run_scenario(label: &str, updates: &[Update<i64>], batch: usize, tail: usize) -> TailRow {
    let q = triangle();
    let empty = Database::<i64>::new();
    let dir = scratch(label);
    let probe: Vec<Update<i64>> = history(batch, 0xdead_beef);

    let mut first = Session::<i64>::builder(q.clone())
        .durable(&dir)
        .build(&empty)
        .expect("durable build");
    let snap_at = updates.len() - tail;
    let mut fed = 0usize;
    let mut snapped = tail == updates.len();
    if snapped {
        // Tail == whole history: snapshot immediately (an empty base),
        // so recovery replays every journaled epoch.
        first.snapshot().expect("snapshot");
    }
    for chunk in updates.chunks(batch) {
        first.apply_batch(chunk).expect("ingest");
        fed += chunk.len();
        if !snapped && fed >= snap_at {
            first.snapshot().expect("snapshot");
            snapped = true;
        }
    }
    let expect_len = {
        let mut s = first;
        let out = s.output().len();
        drop(s); // the kill
        out
    };

    // Warm: recover from the store, then first delta, view visible.
    let warm_started = Instant::now();
    let mut warm = Session::<i64>::builder(q.clone())
        .recover(&dir, &empty)
        .expect("recover");
    warm.apply_batch(&probe).expect("probe");
    std::hint::black_box(warm.output().len());
    let warm_time = warm_started.elapsed();
    let note = warm.explain().recovered.clone().unwrap_or_default();
    let replayed_updates = note
        .split('(')
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    assert!(
        warm.output().len() >= expect_len,
        "{label}: recovery lost view tuples ({} < {expect_len})",
        warm.output().len()
    );
    drop(warm);

    // Cold: rebuild from nothing and replay the raw history, then the
    // same first delta, view visible.
    let cold_started = Instant::now();
    let mut cold = Session::<i64>::builder(q)
        .build(&empty)
        .expect("cold build");
    for chunk in updates.chunks(batch) {
        cold.apply_batch(chunk).expect("cold replay");
    }
    cold.apply_batch(&probe).expect("cold probe");
    std::hint::black_box(cold.output().len());
    let cold_time = cold_started.elapsed();

    let _ = std::fs::remove_dir_all(&dir);
    TailRow {
        label: label.to_string(),
        history: updates.len(),
        tail,
        warm: warm_time,
        replayed_updates,
        cold: cold_time,
    }
}

fn main() {
    // ----------------------------------------------------------------
    // Part 1: journal append throughput, fsync-per-record vs group
    // commit.
    // ----------------------------------------------------------------
    let records = scaled(2_000, 200);
    let batch: Vec<Update<i64>> = history(10, 7);
    let dir = scratch("journal");
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let per_record = {
        let mut j = Journal::create(dir.join("per-record.ivm")).expect("journal");
        let started = Instant::now();
        for epoch in 0..records as u64 {
            j.append(epoch + 1, &batch).expect("append");
            j.commit().expect("commit");
        }
        started.elapsed()
    };
    let grouped = {
        let mut j = Journal::create(dir.join("grouped.ivm")).expect("journal");
        let started = Instant::now();
        for epoch in 0..records as u64 {
            j.append(epoch + 1, &batch).expect("append");
        }
        j.commit().expect("commit");
        started.elapsed()
    };
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "journal append ({records} records of {} updates):",
        batch.len()
    );
    let mut t = Table::new(&["mode", "records/s", "speedup"]);
    t.row(vec![
        "fsync per record".into(),
        fmt(per_sec(per_record, records)),
        "1.0".into(),
    ]);
    t.row(vec![
        "one group commit".into(),
        fmt(per_sec(grouped, records)),
        fmt(ratio(
            per_sec(grouped, records),
            per_sec(per_record, records),
        )),
    ]);
    t.print();

    // ----------------------------------------------------------------
    // Part 2: warm vs cold time-to-first-delta across journal tails,
    // plus a fixed-tail half-history row isolating what warm restart
    // actually scales with.
    // ----------------------------------------------------------------
    let h = scaled(20_000, 2_000);
    let tail_1k = (h / 20).max(10);
    let tail_10k = (h / 2).max(20);
    let ingest_batch = 100;
    let full = history(h, 42);
    let half = &full[..h / 2];

    let rows = vec![
        run_scenario("tail 0", &full, ingest_batch, 0),
        run_scenario("tail 1k", &full, ingest_batch, tail_1k),
        run_scenario("tail 10k", &full, ingest_batch, tail_10k),
        run_scenario(
            "tail 1k, half history",
            half,
            ingest_batch,
            tail_1k.min(h / 2),
        ),
    ];

    println!("\nwarm vs cold time-to-first-delta (history {h} updates):");
    let mut t = Table::new(&[
        "scenario",
        "history",
        "tail",
        "replayed",
        "warm ms",
        "cold ms",
        "cold/warm",
    ]);
    for r in &rows {
        t.row(vec![
            r.label.clone(),
            r.history.to_string(),
            r.tail.to_string(),
            r.replayed_updates.to_string(),
            fmt(r.warm.as_secs_f64() * 1e3),
            fmt(r.cold.as_secs_f64() * 1e3),
            fmt(ratio(r.cold.as_secs_f64(), r.warm.as_secs_f64())),
        ]);
    }
    t.print();

    // Acceptance: warm beats cold wherever a snapshot consolidated
    // meaningful history (at the full-history tails, cold replays ≥ 2×
    // the updates recovery touches).
    for r in &rows[..3] {
        assert!(
            r.warm < r.cold,
            "{}: warm restart ({:?}) must beat the cold rebuild ({:?})",
            r.label,
            r.warm,
            r.cold
        );
    }
    // Acceptance: recovery work is the tail, not the history — the
    // fixed-tail rows replayed identical update counts at half and full
    // history.
    assert_eq!(
        rows[1].replayed_updates, rows[3].replayed_updates,
        "fixed tail must replay the same updates whatever the history"
    );

    let doc = bench_doc("recovery_time")
        .field(
            "journal",
            Json::obj()
                .field("records", Json::num(records as f64))
                .field(
                    "fsync_per_record_per_sec",
                    Json::num(per_sec(per_record, records)),
                )
                .field("group_commit_per_sec", Json::num(per_sec(grouped, records)))
                .field(
                    "group_commit_speedup",
                    Json::num(ratio(
                        per_sec(grouped, records),
                        per_sec(per_record, records),
                    )),
                ),
        )
        .field(
            "recovery",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj()
                            .field("scenario", Json::str(&r.label))
                            .field("history_updates", Json::num(r.history as f64))
                            .field("tail_updates", Json::num(r.tail as f64))
                            .field("replayed_updates", Json::num(r.replayed_updates as f64))
                            .field("warm_ms", Json::num(r.warm.as_secs_f64() * 1e3))
                            .field("cold_ms", Json::num(r.cold.as_secs_f64() * 1e3))
                            .field(
                                "cold_over_warm",
                                Json::num(ratio(r.cold.as_secs_f64(), r.warm.as_secs_f64())),
                            )
                    })
                    .collect(),
            ),
        );
    ivm_bench::write_bench_json("BENCH_STORE_JSON", "BENCH_store.json", &doc);
}
