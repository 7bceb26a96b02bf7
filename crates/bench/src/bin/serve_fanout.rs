//! Fan-out scaling of the serving layer: one [`ServeNode`] ingesting a
//! skewed mixed-sign stream while N ∈ {1, 8, 64, 256} subscribers hold
//! live views, versus the obvious baseline of **N independent
//! `Session`s**, each with its own private base mirror and engine, fed
//! the same per-view filtered stream.
//!
//! Subscribers cycle through a 4-entry query catalog over shared
//! relations — the triangle count, an α-renamed atom-rotated copy of it
//! (canonically equal: the fabric must collapse the two onto one
//! engine), the triangle *listing* (same base relation, different free
//! set — a second engine, but its trie store is hub-shared with the
//! count's), and the 4-cycle. So the fabric's two sharing levers are
//! both on the critical path: engine dedup (256 subscribers → 3
//! engines) and cross-engine store sharing (the triangle relation
//! resident once, not once per engine).
//!
//! Three of every four subscribers hold a bounded channel
//! ([`ServeNode::subscribe_bounded`]) drained after every epoch, the
//! fourth a callback — so the notify and ingest figures cover the queue
//! path, and the fabric's clock runs until the last subscriber holds
//! its delta.
//!
//! Reported per N: ingest throughput for both sides, the fabric's
//! per-delivery fan-out latency (p50/p99 pooled over every subscriber's
//! `ivm.serve.sub{id}.notify_ns` series) and per-epoch ingest latency,
//! and the resident-tuple census of both sides (the acceptance bar:
//! shared state strictly beats N sessions from N = 8 up). Outputs are
//! cross-checked tuple-for-tuple against the independent sessions
//! before anything is reported.
//!
//! Run: `cargo run --release -p ivm-bench --bin serve_fanout`
//! Also emits `BENCH_serve.json` (path override: `BENCH_SERVE_JSON`).

use ivm_bench::{bench_doc, fmt, per_sec, ratio, scaled, Json, Table};
use ivm_core::Maintainer;
use ivm_data::{sym, tup, vars, Database, FxHashSet, Relation, Sym, Update};
use ivm_obs::{HistogramSnapshot, MetricsRegistry};
use ivm_query::{Atom, Query};
use ivm_serve::{ServeNode, Subscription, ViewDelta};
use ivm_session::Session;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// The subscriber catalog (entries 0 and 1 canonicalize identically).
fn catalog(i: usize) -> Query {
    let e = sym("svf_E");
    match i % 4 {
        0 => {
            let [a, b, c] = vars(["svf_A", "svf_B", "svf_C"]);
            Query::new(
                "svf_tri",
                [],
                vec![
                    Atom::new(e, [a, b]),
                    Atom::new(e, [b, c]),
                    Atom::new(e, [c, a]),
                ],
            )
        }
        1 => {
            // α-renamed and rotated: same canonical key as entry 0.
            let [x, y, z] = vars(["svf_X", "svf_Y", "svf_Z"]);
            Query::new(
                "svf_tri_renamed",
                [],
                vec![
                    Atom::new(e, [y, z]),
                    Atom::new(e, [z, x]),
                    Atom::new(e, [x, y]),
                ],
            )
        }
        2 => {
            // Same relation, different free set: second engine, shared
            // trie store.
            let [a, b, c] = vars(["svf_LA", "svf_LB", "svf_LC"]);
            Query::new(
                "svf_tri_listing",
                [a, b, c],
                vec![
                    Atom::new(e, [a, b]),
                    Atom::new(e, [b, c]),
                    Atom::new(e, [c, a]),
                ],
            )
        }
        _ => {
            let [a, b, c, d] = vars(["svf_4A", "svf_4B", "svf_4C", "svf_4D"]);
            Query::new(
                "svf_cycle4",
                [],
                vec![
                    Atom::new(sym("svf_4R"), [a, b]),
                    Atom::new(sym("svf_4S"), [b, c]),
                    Atom::new(sym("svf_4T"), [c, d]),
                    Atom::new(sym("svf_4U"), [d, a]),
                ],
            )
        }
    }
}

/// Queue bound of the channel subscribers: they drain every epoch, so
/// any bound holds; a full queue would evict and fail the run.
const CHANNEL_CAPACITY: usize = 4;

/// Deterministic splitmix-style generator so every row sees the
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
    fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }
}

/// The skewed stream over every catalog relation: most edges land on a
/// small hub set (dense closures — real fan-out work per delta), a
/// minority on a wide sparse tail, with periodic deletes so payloads
/// churn in both directions.
fn stream() -> Vec<Vec<Update<i64>>> {
    let e = sym("svf_E");
    let cyc = ["svf_4R", "svf_4S", "svf_4T", "svf_4U"].map(sym);
    let mut rng = Rng(0x5eed_fa40);
    let n_batches = scaled(20, 5);
    let mut batches = Vec::with_capacity(n_batches);
    let mut backlog: Vec<(i64, i64)> = Vec::new();
    for bi in 0..n_batches {
        let mut b = Vec::new();
        for j in 0..96 {
            // 3:1 hub-to-tail skew.
            let (x, y) = if j % 4 != 0 {
                (rng.below(24), rng.below(24))
            } else {
                (rng.below(4_000), rng.below(4_000))
            };
            if j % 2 == 0 {
                backlog.push((x, y));
                b.push(Update::insert(e, tup![x, y]));
            } else {
                b.push(Update::insert(cyc[j % 4], tup![x, y]));
            }
        }
        // Late batches drain early edges: deletes on the critical path.
        if bi * 3 > n_batches {
            for _ in 0..16 {
                if let Some((x, y)) = backlog.pop() {
                    b.push(Update::delete(e, tup![x, y]));
                }
            }
        }
        batches.push(b);
    }
    batches
}

/// Pool per-subscriber histogram snapshots into one (bucket-wise merge).
fn pool(histograms: impl Iterator<Item = HistogramSnapshot>) -> HistogramSnapshot {
    let mut buckets: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut count, mut sum_ns) = (0u64, 0u64);
    for h in histograms {
        count += h.count;
        sum_ns += h.sum_ns;
        for (upper, n) in h.buckets {
            *buckets.entry(upper).or_default() += n;
        }
    }
    HistogramSnapshot {
        buckets: buckets.into_iter().collect(),
        count,
        sum_ns,
    }
}

struct Row {
    subscribers: usize,
    groups: usize,
    fabric_tps: f64,
    baseline_tps: f64,
    notify_p50_ns: u64,
    notify_p99_ns: u64,
    ingest_p50_ns: u64,
    ingest_p99_ns: u64,
    fabric_resident: usize,
    baseline_resident: usize,
    dedup_hits: u64,
    store_dedup_hits: u64,
}

fn run(n: usize, batches: &[Vec<Update<i64>>]) -> Row {
    // --- the fabric ---
    let registry = MetricsRegistry::new();
    let mut node = ServeNode::<i64>::new();
    node.observe(&registry);
    // Each subscriber tallies deliveries and a payload checksum — the
    // cheapest realistic consumer. Three in four receive through a
    // bounded channel, the fourth through a callback.
    let tallies: Vec<Rc<Cell<(u64, i64)>>> = (0..n).map(|_| Rc::default()).collect();
    let tally_up = |tally: &Cell<(u64, i64)>, vd: &ViewDelta<i64>| {
        let (deliveries, sum) = tally.get();
        let d: i64 = vd.delta.iter().map(|(_, p)| *p).sum();
        tally.set((deliveries + 1, sum + d));
    };
    let mut channels: Vec<(usize, Subscription<i64>)> = Vec::new();
    let ids: Vec<u64> = (0..n)
        .map(|i| {
            if i % 4 == 3 {
                let tally = Rc::clone(&tallies[i]);
                node.subscribe_with(catalog(i), move |vd| tally_up(&tally, vd))
                    .expect("catalog queries build")
            } else {
                let sub = node
                    .subscribe_bounded(catalog(i), CHANNEL_CAPACITY)
                    .expect("catalog queries build");
                let id = sub.id();
                channels.push((i, sub));
                id
            }
        })
        .collect();

    // Only relations some subscriber declared may appear in the stream.
    let known: FxHashSet<Sym> = (0..n)
        .flat_map(|i| catalog(i).atoms.iter().map(|a| a.name).collect::<Vec<_>>())
        .collect();
    let filtered: Vec<Vec<Update<i64>>> = batches
        .iter()
        .map(|b| {
            b.iter()
                .filter(|u| known.contains(&u.relation))
                .cloned()
                .collect()
        })
        .collect();
    let total: usize = filtered.iter().map(|b| b.len()).sum();

    let t0 = Instant::now();
    for b in &filtered {
        node.apply_batch(b).expect("declared relations only");
        for (i, sub) in &mut channels {
            let vd = sub.try_next().expect("one delivery per epoch");
            tally_up(&tallies[*i], &vd);
        }
    }
    let fabric_elapsed = t0.elapsed();
    for (i, tally) in tallies.iter().enumerate() {
        assert_eq!(
            tally.get().0,
            filtered.len() as u64,
            "subscriber {i} missed an epoch"
        );
    }

    // --- the baseline: N independent sessions ---
    let mut mirrors: Vec<Database<i64>> = Vec::with_capacity(n);
    let mut sessions: Vec<Session<i64>> = Vec::with_capacity(n);
    for i in 0..n {
        let q = catalog(i);
        let mut db = Database::<i64>::new();
        for atom in &q.atoms {
            if db.get(atom.name).is_none() {
                db.create(atom.name, atom.schema.clone());
            }
        }
        sessions.push(Session::<i64>::builder(q).build(&db).expect("builds"));
        mirrors.push(db);
    }
    let rels: Vec<Vec<Sym>> = (0..n)
        .map(|i| catalog(i).atoms.iter().map(|a| a.name).collect())
        .collect();
    let t0 = Instant::now();
    for b in &filtered {
        for i in 0..n {
            let sub: Vec<Update<i64>> = b
                .iter()
                .filter(|u| rels[i].contains(&u.relation))
                .cloned()
                .collect();
            sessions[i].apply_batch(&sub).expect("valid batch");
            mirrors[i].apply_batch(&sub);
        }
    }
    let baseline_elapsed = t0.elapsed();

    // Equivalence gate: every fabric view matches its independent twin.
    for i in 0..n {
        let got = node.view(ids[i]).expect("subscriber is live");
        let expect: Relation<i64> = sessions[i].output();
        assert_eq!(got.len(), expect.len(), "subscriber {i} view size");
        for (t, p) in expect.iter() {
            assert_eq!(&got.get(t), p, "subscriber {i} at {t:?}");
        }
    }

    let m = registry.snapshot();
    let notify = pool(ids.iter().filter_map(|id| {
        m.histogram(&format!("ivm.serve.sub{id}.notify_ns"))
            .cloned()
    }));
    let ingest = m
        .histogram("ivm.serve.ingest_ns")
        .cloned()
        .unwrap_or_default();
    let baseline_resident = (0..n)
        .map(|i| mirrors[i].size() + sessions[i].resident_tuples().unwrap_or(0))
        .sum();
    Row {
        subscribers: n,
        groups: node.group_count(),
        fabric_tps: per_sec(fabric_elapsed, total),
        baseline_tps: per_sec(baseline_elapsed, total),
        notify_p50_ns: notify.quantile_ns(0.50),
        notify_p99_ns: notify.quantile_ns(0.99),
        ingest_p50_ns: ingest.quantile_ns(0.50),
        ingest_p99_ns: ingest.quantile_ns(0.99),
        fabric_resident: node.resident_tuples(),
        baseline_resident,
        dedup_hits: m.counter("ivm.serve.dedup_hits"),
        store_dedup_hits: m.counter("ivm.serve.store_dedup_hits"),
    }
}

fn emit_json(rows: &[Row]) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = bench_doc("serve_fanout")
        .field("cores", Json::num(cores as f64))
        .field(
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj()
                            .field("subscribers", Json::num(r.subscribers as f64))
                            .field("groups", Json::num(r.groups as f64))
                            .field("fabric_tuples_per_sec", Json::num(r.fabric_tps))
                            .field("baseline_tuples_per_sec", Json::num(r.baseline_tps))
                            .field(
                                "speedup_vs_n_sessions",
                                Json::num(ratio(r.fabric_tps, r.baseline_tps)),
                            )
                            .field("notify_p50_ns", Json::num(r.notify_p50_ns as f64))
                            .field("notify_p99_ns", Json::num(r.notify_p99_ns as f64))
                            .field("ingest_p50_ns", Json::num(r.ingest_p50_ns as f64))
                            .field("ingest_p99_ns", Json::num(r.ingest_p99_ns as f64))
                            .field(
                                "fabric_resident_tuples",
                                Json::num(r.fabric_resident as f64),
                            )
                            .field(
                                "baseline_resident_tuples",
                                Json::num(r.baseline_resident as f64),
                            )
                            .field("dedup_hits", Json::num(r.dedup_hits as f64))
                            .field("store_dedup_hits", Json::num(r.store_dedup_hits as f64))
                    })
                    .collect(),
            ),
        );
    ivm_bench::write_bench_json("BENCH_SERVE_JSON", "BENCH_serve.json", &doc);
}

fn main() {
    let batches = stream();
    println!("# Serving fan-out: one ServeNode vs N independent sessions\n");
    println!(
        "{} batches x ~{} updates, skewed onto a 24-value hub set; \
         subscribers cycle 4 catalog queries collapsing onto 3 deduped \
         engines; every fabric view is asserted equal to its independent \
         twin before a number is reported\n",
        batches.len(),
        batches.iter().map(|b| b.len()).sum::<usize>() / batches.len(),
    );

    let rows: Vec<Row> = [1usize, 8, 64, 256]
        .into_iter()
        .map(|n| run(n, &batches))
        .collect();

    for r in &rows {
        if r.subscribers >= 8 {
            // The acceptance bar: the whole point of shared state.
            assert!(
                r.fabric_resident < r.baseline_resident,
                "at N={} the fabric holds {} resident tuples but N \
                 sessions hold {}",
                r.subscribers,
                r.fabric_resident,
                r.baseline_resident
            );
            assert_eq!(r.groups, 3, "4 catalog queries dedup onto 3 engines");
        }
    }

    let mut table = Table::new(&[
        "subs",
        "groups",
        "fabric tuples/s",
        "N-sessions tuples/s",
        "speedup",
        "notify p50/p99 ns",
        "resident (fabric vs N)",
    ]);
    for r in &rows {
        table.row(vec![
            r.subscribers.to_string(),
            r.groups.to_string(),
            fmt(r.fabric_tps),
            fmt(r.baseline_tps),
            fmt(ratio(r.fabric_tps, r.baseline_tps)),
            format!("{}/{}", r.notify_p50_ns, r.notify_p99_ns),
            format!("{} vs {}", r.fabric_resident, r.baseline_resident),
        ]);
    }
    table.print();
    println!(
        "\nExpected shape: near parity at N=1 (one subscriber cannot \
         dedup anything), then a widening gap as N grows — engine count \
         stays at 3 while the baseline pays N full engines and N private \
         base copies."
    );
    emit_json(&rows);
}
