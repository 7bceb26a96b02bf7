//! **Sec 3.3**: the ε sweep for IVMε triangle maintenance.
//!
//! Paper's claim: single-tuple update time O(N^max(ε,1−ε)), minimized at
//! ε = ½. The ε = 1.0 row is the unpartitioned ablation: θ = N exceeds
//! every degree after the first rebalance, so nothing is heavy, no `H⋈L`
//! view exists, and every count delta scans a light row — first-order
//! deltas with partition bookkeeping.
//!
//! Before printing, the sweep asserts its shape on the work counters
//! (clock-free, so the gate is deterministic): the minimum work/update
//! over the grid lies at ε ∈ [0.3, 0.6], and ε = 0.5 does less work per
//! update than the unpartitioned ε = 1.0.
//!
//! Run: `cargo run --release -p ivm-bench --bin eps_sweep`

use ivm_bench::{fmt, ns_per, scaled, time, Table};
use ivm_ivme::{Rel, TriangleIvmEps, TriangleMaintainer};
use ivm_workloads::graphs::EdgeStream;

const GRID: [f64; 11] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// One grid point: `(ε, work/update, ns/update, final count)`.
fn run(eps: f64, n: usize, probe: usize) -> (f64, f64, f64, i64) {
    let mut eng = TriangleIvmEps::new(eps);
    let stream = EdgeStream::zipf((n / 8).max(32) as u64, n + probe, 0.9, 5);
    for &(a, b) in &stream.edges[..n] {
        eng.apply(Rel::R, a, b, 1);
        eng.apply(Rel::S, a, b, 1);
        eng.apply(Rel::T, a, b, 1);
    }
    let w0 = eng.work();
    let (_, d) = time(|| {
        for i in 0..probe {
            let (oa, ob) = stream.edges[i];
            let (na, nb) = stream.edges[n + i];
            let rel = Rel::ALL[i % 3];
            eng.apply(rel, oa, ob, -1);
            eng.apply(rel, na, nb, 1);
        }
    });
    let ops = probe * 2;
    (
        eps,
        (eng.work() - w0) as f64 / ops as f64,
        ns_per(d, ops),
        eng.count(),
    )
}

fn main() {
    let n = scaled(40_000, 4_000);
    let probe = scaled(4_000, 400);
    let rows: Vec<_> = GRID.iter().map(|&eps| run(eps, n, probe)).collect();

    let work_at = |eps: f64| rows.iter().find(|r| r.0 == eps).expect("on the grid").1;
    let &(best_eps, best_work, _, _) = rows
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty grid");
    assert!(
        (0.3..=0.6).contains(&best_eps),
        "work/update must be minimized at ε ∈ [0.3, 0.6], got ε = {best_eps} ({best_work})"
    );
    assert!(
        work_at(0.5) < work_at(1.0),
        "ε = 0.5 must beat the unpartitioned ε = 1.0: {} vs {} work/update",
        work_at(0.5),
        work_at(1.0)
    );

    println!("# IVMε ε-sweep on triangle maintenance (N={n})\n");
    let mut table = Table::new(&["eps", "work/upd", "ns/upd", "count"]);
    for (eps, w, ns, c) in rows {
        table.row(vec![format!("{eps:.1}"), fmt(w), fmt(ns), c.to_string()]);
    }
    table.print();
    println!(
        "\nExpected shape (paper, asserted above on work): work/update is \
         U-shaped in eps with the minimum near 0.5; eps=1.0 is the \
         unpartitioned ablation."
    );
}
