//! Heavy-light (IVMε) partition-invariant harness for the generic
//! engine behind `EngineKind::HeavyLight`.
//!
//! Five properties, checked after *every* batch of generated
//! mixed-sign streams:
//!
//! 1. **Partition invariants** — the hysteresis band holds: every heavy
//!    key has degree > θ, every light key degree < 2θ
//!    ([`HeavyLightEngine::check_partition`]).
//! 2. **View invariants** — the three auxiliary HL views equal a
//!    from-scratch recompute over the current partition
//!    ([`HeavyLightEngine::check_views`]) — so the lazy global
//!    rebalances and per-key migrations never leave a stale entry.
//! 3. **Output equivalence** — the maintained count equals the
//!    from-scratch join-aggregate oracle over a mirrored base.
//! 4. **One algorithm at two key types** — the engine runs the core at
//!    dictionary ids; a [`HeavyLight<u64, i64>`] twin fed the
//!    consolidated batches in the order the engine applies them reports
//!    the same count, counters (work, migrations, rebalances, …) and
//!    heavy-key counts, and passes the same partition and view checks.
//! 5. **Id accounting** — every id the engine's pairs and view entries
//!    hold is live and counted once per holding column, and no other id
//!    is live ([`HeavyLightEngine::check_ids`]).
//!
//! The whole grid of ε values is exercised (ε = 0 makes nearly every
//! key heavy, ε = 1 nearly every key light — the two degenerate
//! partitions bracket the O(√N) optimum at ε = ½), and preprocessing is
//! pinned to streaming: an engine built over a preloaded base must be
//! indistinguishable from one that ingested the same tuples as updates.
//!
//! A last, deterministic check pits the engine against the
//! worst-case-optimal dataflow plan on skewed hub updates: heavy-light
//! must do less work per update there.
//!
//! Shapes, stream strategies, and the oracle live in `tests/common`.

mod common;

use common::{
    distinct_relations, edge_ops, edge_updates, mirror_db, oracle_db, outputs_match, triangle3,
    EdgeOp,
};
use ivm::{Database, DataflowEngine, HeavyLightEngine, Maintainer};
use ivm_data::ops::lift_one;
use ivm_data::{consolidate, sym, tup, Update};
use ivm_hl::HeavyLight;
use ivm_workloads::graphs::EdgeStream;
use proptest::prelude::*;

/// The ε grid every property runs over: both degenerate partitions, the
/// optimum, and two asymmetric points.
const EPS_GRID: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Assert every invariant the engine exposes, plus oracle equality.
fn assert_invariants(
    eng: &mut HeavyLightEngine<i64>,
    mirror: &ivm::Database<i64>,
    ctx: &str,
) -> Result<(), TestCaseError> {
    if let Err(e) = eng.check_partition() {
        return Err(TestCaseError::fail(format!("{ctx}: partition: {e}")));
    }
    if let Err(e) = eng.check_views() {
        return Err(TestCaseError::fail(format!("{ctx}: views: {e}")));
    }
    if let Err(e) = eng.check_ids() {
        return Err(TestCaseError::fail(format!("{ctx}: ids: {e}")));
    }
    let expect = oracle_db(eng.query(), mirror);
    let q = eng.query().clone();
    outputs_match(&eng.output(), &expect, &format!("{ctx} ({:?})", q.name))
}

/// Drive one generated stream through an engine at `eps` and through its
/// raw-`u64` twin, checking all five properties at every batch boundary.
fn check_stream(eps: f64, ops: &[EdgeOp], chunk: usize) -> Result<(), TestCaseError> {
    let q = triangle3("hp_");
    // The engine's rotation order is the atom order R(a,b), S(b,c), T(c,a).
    let rels = distinct_relations(&q);
    let updates = edge_updates(&q, ops);
    let mut mirror = mirror_db(&q);
    let mut eng = HeavyLightEngine::<i64>::new_with_eps(q.clone(), &mirror, lift_one, eps).unwrap();
    let mut twin = HeavyLight::<u64, i64>::new(eps);
    for (no, batch) in updates.chunks(chunk.max(1)).enumerate() {
        let ctx = format!("ε={eps} batch {no}");
        eng.apply_batch(batch).unwrap();
        for u in consolidate(batch) {
            let i = rels.iter().position(|&r| r == u.relation).unwrap();
            let key = |c: usize| u.tuple.at(c).as_int().unwrap() as u64;
            twin.apply(i, &key(0), &key(1), &u.payload);
        }
        for u in batch {
            mirror.apply(u);
        }
        assert_invariants(&mut eng, &mirror, &ctx)?;
        prop_assert_eq!(
            (*eng.count(), eng.stats()),
            (*twin.count(), twin.stats()),
            "{ctx}: id engine vs u64 twin (count, counters)"
        );
        prop_assert_eq!(eng.heavy_counts(), twin.heavy_counts(), "{ctx}: heavy keys");
        if let Err(e) = twin.check_partition().and_then(|()| twin.check_views()) {
            return Err(TestCaseError::fail(format!("{ctx}: u64 twin: {e}")));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Partition + view invariants and oracle equality under mixed-sign
    /// duplicate-heavy streams, across the whole ε grid.
    #[test]
    fn invariants_hold_at_every_eps(
        ops in edge_ops(3, 4, 0..48),
        chunk in 1usize..9,
        eps_idx in 0usize..EPS_GRID.len(),
    ) {
        check_stream(EPS_GRID[eps_idx], &ops, chunk)?;
    }

    /// A wider key domain reaches past the tiny-N regime where θ clamps
    /// to 1: rebalances and heavy/light migrations actually fire here,
    /// and the invariants must survive them.
    #[test]
    fn invariants_hold_under_wide_domains(
        ops in edge_ops(3, 12, 16..96),
        chunk in 1usize..13,
        eps_idx in 0usize..EPS_GRID.len(),
    ) {
        check_stream(EPS_GRID[eps_idx], &ops, chunk)?;
    }

    /// Preprocessing ≡ streaming: an engine built over a preloaded base
    /// must agree — output, partition, views — with one that started
    /// empty and ingested the prefix as updates, and both stay ≡ the
    /// oracle over the suffix.
    #[test]
    fn preloaded_build_is_indistinguishable_from_streaming(
        ops in edge_ops(3, 5, 8..64),
        cut_raw in 0usize..64,
        chunk in 1usize..9,
        eps_idx in 0usize..EPS_GRID.len(),
    ) {
        let eps = EPS_GRID[eps_idx];
        let q = triangle3("hp_");
        let updates = edge_updates(&q, &ops);
        let cut = cut_raw % (updates.len() + 1);

        let mut mirror = mirror_db(&q);
        let mut streamed =
            HeavyLightEngine::<i64>::new_with_eps(q.clone(), &mirror, lift_one, eps).unwrap();
        if cut > 0 {
            streamed.apply_batch(&updates[..cut]).unwrap();
        }
        for u in &updates[..cut] {
            mirror.apply(u);
        }
        let mut preloaded =
            HeavyLightEngine::<i64>::new_with_eps(q.clone(), &mirror, lift_one, eps).unwrap();
        assert_invariants(&mut preloaded, &mirror, &format!("ε={eps} preload"))?;
        outputs_match(
            &preloaded.output(),
            &streamed.output(),
            "preloaded vs streamed at the cut",
        )?;

        for (no, batch) in updates[cut..].chunks(chunk.max(1)).enumerate() {
            streamed.apply_batch(batch).unwrap();
            preloaded.apply_batch(batch).unwrap();
            for u in batch {
                mirror.apply(u);
            }
            assert_invariants(&mut streamed, &mirror, &format!("ε={eps} streamed {no}"))?;
            assert_invariants(&mut preloaded, &mirror, &format!("ε={eps} preloaded {no}"))?;
        }
    }
}

/// Deterministic rebalance exercise: grow a hub far past the size-drift
/// trigger, then delete it back down. Migrations and global rebalances
/// must both fire, and every invariant must hold at each step — this is
/// the lazy-rebalance ≡ oracle acceptance in a shape whose counters we
/// can assert on.
#[test]
fn hub_growth_and_collapse_forces_migrations_and_rebalances() {
    let q = triangle3("hpr_");
    let (r, s, t) = (sym("hpr_3R"), sym("hpr_3S"), sym("hpr_3T"));
    let mut mirror = mirror_db(&q);
    let mut eng = HeavyLightEngine::<i64>::new(q.clone(), &mirror, lift_one).unwrap();

    let step = |eng: &mut HeavyLightEngine<i64>,
                mirror: &mut ivm::Database<i64>,
                batch: Vec<Update<i64>>,
                ctx: &str| {
        eng.apply_batch(&batch).unwrap();
        for u in &batch {
            mirror.apply(u);
        }
        eng.check_partition()
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        eng.check_views().unwrap_or_else(|e| panic!("{ctx}: {e}"));
        eng.check_ids().unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let expect = oracle_db(&q, mirror);
        let got = eng.output();
        assert_eq!(got.len(), expect.len(), "{ctx}: sizes");
        for (tp, p) in expect.iter() {
            assert_eq!(&got.get(tp), p, "{ctx} at {tp:?}");
        }
    };

    // Grow: node 0 becomes an S-hub with `v` partners as T closes the
    // cycle — each batch adds triangles and pushes N across 2× drifts.
    for v in 1..=60i64 {
        let batch = vec![
            Update::with_payload(r, tup![v, 0i64], 1),
            Update::with_payload(s, tup![0i64, v], 1),
            Update::with_payload(t, tup![v, v], 1),
        ];
        step(&mut eng, &mut mirror, batch, &format!("grow {v}"));
    }
    let grown = eng.stats();
    assert!(
        grown.migrations > 0,
        "a 60-partner hub must cross the 2θ promotion band: {grown:?}"
    );
    assert!(
        grown.rebalances > 0,
        "180 pairs from 0 must cross the 2× size-drift trigger: {grown:?}"
    );
    assert!(
        eng.heavy_counts().iter().sum::<usize>() > 0,
        "the hub key must be resident in a heavy set"
    );

    // Collapse: retract whole triangles; the hub's degree falls through
    // θ (the demotion path, with its signed view transfer, runs) and the
    // base shrinks past the half-size drift trigger.
    for v in 1..=55i64 {
        let batch = vec![
            Update::with_payload(r, tup![v, 0i64], -1),
            Update::with_payload(s, tup![0i64, v], -1),
            Update::with_payload(t, tup![v, v], -1),
        ];
        step(&mut eng, &mut mirror, batch, &format!("collapse {v}"));
    }
    let shrunk = eng.stats();
    assert!(
        shrunk.migrations > grown.migrations,
        "the hub must demote on the way down: {shrunk:?}"
    );
    assert!(
        shrunk.rebalances > grown.rebalances,
        "dropping 165 of 180 pairs re-crosses the drift trigger: {shrunk:?}"
    );
}

/// Load a Zipf-skewed base of 4 000 edges into each triangle relation,
/// one update per batch, then probe with 40 insert/delete pairs of the
/// hub edge `(0, 0)`, rotating over the relations. Returns the probe's
/// work per update.
fn hub_probe_work<E: Maintainer<i64>>(mut eng: E, work: fn(&E) -> u64) -> f64 {
    let names: Vec<_> = eng.query().atoms.iter().map(|a| a.name).collect();
    let apply = |eng: &mut E, rel, a: u64, b: u64, m| {
        eng.apply_batch(&[Update::with_payload(rel, tup![a, b], m)])
            .unwrap();
    };
    for &(a, b) in &EdgeStream::zipf(500, 4_000, 0.9, 3).edges {
        for &rel in &names {
            apply(&mut eng, rel, a, b, 1);
        }
    }
    let w0 = work(&eng);
    for i in 0..40 {
        apply(&mut eng, names[i % 3], 0, 0, 1);
        apply(&mut eng, names[i % 3], 0, 0, -1);
    }
    (work(&eng) - w0) as f64 / 80.0
}

/// Sec 3.3's crossover on skewed hub updates: the worst-case-optimal
/// delta pass intersects two Θ(N)-sized lists per hub update, while
/// heavy-light answers in O(N^max(ε,1−ε)) from its `H⋈L` views. On the
/// hub probes heavy-light must do less work per update.
#[test]
fn heavy_light_beats_the_wcoj_delta_pass_on_hub_probes() {
    let q = ivm_query::examples::triangle_count();
    let wcoj = DataflowEngine::new(q.clone(), &Database::new(), lift_one).unwrap();
    let wcoj = hub_probe_work(wcoj, |e| {
        let s = e.stats();
        s.deltas_in + s.multiway_seeds + s.multiway_probes + s.output_delta_tuples
    });
    let hl = HeavyLightEngine::new(q, &Database::new(), lift_one).unwrap();
    let hl = hub_probe_work(hl, |e| e.stats().work);
    assert!(
        hl < wcoj,
        "heavy-light ({hl}) must beat the WCOJ delta pass ({wcoj}) on hub probes"
    );
}
