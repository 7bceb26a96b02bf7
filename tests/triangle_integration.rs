//! Integration: triangle maintainers under realistic skewed streams, the
//! IVMε ε-sweep on work counters, and the OuMv reduction at a size where
//! rebalancing actually fires.

use ivm_ivme::{Rel, TriangleDelta, TriangleIvmEps, TriangleMaintainer, TrianglePairwiseMv};
use ivm_oumv::{solve, NaiveOuMv, OuMvInstance, ReductionOuMv};
use ivm_workloads::graphs::EdgeStream;

#[test]
fn sliding_window_agreement_under_skew() {
    let stream = EdgeStream::zipf(300, 4_000, 1.0, 21).sliding_window(1_500);
    let mut delta = TriangleDelta::new();
    let mut mv = TrianglePairwiseMv::new();
    let mut eps_half = TriangleIvmEps::new(0.5);
    let mut eps_low = TriangleIvmEps::new(0.2);
    for (i, &(a, b, m)) in stream.iter().enumerate() {
        let rel = Rel::ALL[i % 3];
        delta.apply(rel, a, b, m);
        mv.apply(rel, a, b, m);
        eps_half.apply(rel, a, b, m);
        eps_low.apply(rel, a, b, m);
        if i % 500 == 0 {
            assert_eq!(delta.count(), eps_half.count(), "step {i}");
            assert_eq!(delta.count(), eps_low.count(), "step {i}");
            assert_eq!(delta.count(), mv.count(), "step {i}");
        }
    }
    assert_eq!(delta.count(), eps_half.count());
    assert!(
        eps_half.migrations() + eps_half.rebalances() > 0,
        "skewed window must trigger partition maintenance"
    );
}

#[test]
fn ivme_work_beats_delta_on_heavy_keys() {
    // The motivating scenario of Sec 3.2/3.3: a single-tuple update
    // δR(a₀, b₀) where b₀ pairs with K C-values in S and a₀ pairs with the
    // same K C-values in T. The first-order delta query must intersect two
    // K-element lists (Θ(K) per update); IVMε answers the heavy/light case
    // with one lookup into the materialized view V_ST (O(1) per update
    // after O(N^½)-amortized maintenance).
    let k: u64 = 5_000;
    let (a0, b0) = (1_000_000u64, 2_000_000u64);
    let mut delta = TriangleDelta::new();
    let mut eps = TriangleIvmEps::new(0.5);
    for c in 0..k {
        delta.apply(Rel::S, b0, c, 1);
        delta.apply(Rel::T, c, a0, 1);
        eps.apply(Rel::S, b0, c, 1);
        eps.apply(Rel::T, c, a0, 1);
    }
    let (d0, e0) = (delta.work(), eps.work());
    let probes = 500u64;
    for _ in 0..probes {
        delta.apply(Rel::R, a0, b0, 1);
        delta.apply(Rel::R, a0, b0, -1);
        eps.apply(Rel::R, a0, b0, 1);
        eps.apply(Rel::R, a0, b0, -1);
    }
    let delta_work = delta.work() - d0;
    let eps_work = eps.work() - e0;
    assert_eq!(delta.count(), eps.count());
    assert_eq!(delta.count(), 0, "edge removed at the end of each probe");
    // Sanity: one insert must see K triangles.
    delta.apply(Rel::R, a0, b0, 1);
    eps.apply(Rel::R, a0, b0, 1);
    assert_eq!(delta.count(), k as i64);
    assert_eq!(eps.count(), k as i64);
    // Θ(K) vs O(1): require at least a 20× gap (measured is ~K/2 ≈ 2500×).
    assert!(
        eps_work * 20 < delta_work,
        "IVMε ({eps_work}) should beat first-order deltas ({delta_work}) on heavy keys"
    );
}

#[test]
fn oumv_reduction_at_scale() {
    let inst = OuMvInstance::random(48, 0.08, 99);
    let mut naive = NaiveOuMv::default();
    let mut red = ReductionOuMv::default();
    let expect = solve(&mut naive, &inst);
    let got = solve(&mut red, &inst);
    assert_eq!(expect, got);
    assert!(
        expect.iter().any(|&b| b) && expect.iter().any(|&b| !b),
        "instance should have both answers represented: {expect:?}"
    );
}

/// Sec 3.3: IVMε updates in O(N^max(ε,1−ε)), minimized at ε = ½. A
/// Zipf-skewed base of N = 4 000 edges per relation is probed with 400
/// delete/insert pairs at every point of an 11-point ε grid. Work per
/// update must be minimized at ε ∈ [0.3, 0.6], and ε = ½ must beat the
/// unpartitioned ε = 1 (θ = N exceeds every degree, so nothing is heavy
/// and every count delta scans a light row). The work totals are pinned:
/// any change to the partition, the views or the rebalance moves them.
#[test]
fn eps_sweep_work_is_minimized_near_one_half() {
    const GRID: [f64; 11] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    let (n, probe) = (4_000, 400);
    let stream = EdgeStream::zipf((n / 8) as u64, n + probe, 0.9, 5);
    let mut counts = Vec::new();
    let work: Vec<u64> = GRID
        .iter()
        .map(|&eps| {
            let mut eng = TriangleIvmEps::new(eps);
            for &(a, b) in &stream.edges[..n] {
                for rel in Rel::ALL {
                    eng.apply(rel, a, b, 1);
                }
            }
            let w0 = eng.work();
            for i in 0..probe {
                let (oa, ob) = stream.edges[i];
                let (na, nb) = stream.edges[n + i];
                let rel = Rel::ALL[i % 3];
                eng.apply(rel, oa, ob, -1);
                eng.apply(rel, na, nb, 1);
            }
            counts.push(eng.count());
            eng.work() - w0
        })
        .collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    let per_update = |i: usize| work[i] as f64 / (2 * probe) as f64;
    let best = (0..GRID.len()).min_by_key(|&i| work[i]).unwrap();
    assert!(
        (0.3..=0.6).contains(&GRID[best]),
        "work/update must be minimized at ε ∈ [0.3, 0.6], got ε = {} ({})",
        GRID[best],
        per_update(best)
    );
    assert!(
        work[5] < work[10],
        "ε = ½ must beat the unpartitioned ε = 1: {} vs {} work/update",
        per_update(5),
        per_update(10)
    );
    assert_eq!(
        work,
        [
            305_813, 117_388, 48_135, 21_371, 16_686, 24_892, 41_691, 41_691, 41_691, 41_691,
            41_691
        ]
    );
}
