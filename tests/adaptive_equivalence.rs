//! Replanning-equivalence harness: re-lowering a running engine at
//! *arbitrary* stream points must be invisible in the maintained output.
//!
//! Each proptest case drives one query shape through a random mixed-sign
//! update stream and injects replans at generated batch boundaries —
//! flipping between the variable order *learned* from the live base
//! state and the blind tie-break order — into
//!
//! 1. a single-threaded `DataflowEngine`
//!    (`replan_with_cards`), and
//! 2. `ShardedEngine` fleets of **1, 2, and 4 shards** (the broadcast
//!    replan path through the worker queues),
//!
//! asserting after every batch that all agree with a from-scratch oracle
//! over the mirrored base relations, and that the carried counters are
//! monotone across every replan (history must survive, per-replay noise
//! must not double-count). Shapes cover the planner's and shard
//! planner's whole split: the self-join triangle (degenerate
//! single-shard routing), the 4-cycle (broadcast replication), the star
//! (fully partitioned), and — deterministically, below — the 5-relation
//! Retailer join under its Inventory stream.
//!
//! Two deterministic streams drive whole adaptive `Session`s: a skew flip
//! whose relation sizes invert halfway (every plan must agree with the
//! oracle at the end of each half, and the adaptive session must
//! replan), and a hub burst that must move a session forced onto the
//! multiway plan to the heavy-light family.
//!
//! Shapes, stream strategies, and the oracle live in `tests/common`.

mod common;

use common::{
    edge_ops, edge_ops_default, edge_updates, four_cycle, mirror_db, oracle_db, outputs_match,
    star, triangle, triangle3, EdgeOp,
};
use ivm::{EngineKind, Session};
use ivm_core::Maintainer;
use ivm_data::ops::{eval_join_aggregate, lift_one};
use ivm_data::{tup, Database, Relation, Tuple, Update};
use ivm_dataflow::{Cardinalities, DataflowEngine, DataflowStats, ReplanPolicy, ReplanTrigger};
use ivm_query::Query;
use ivm_shard::ShardedEngine;
use ivm_workloads::graphs::EdgeStream;
use ivm_workloads::RetailerGen;
use proptest::prelude::*;

/// Carried history must be monotone across a replan: every counter at
/// least its pre-replan value, and the ingestion totals exactly equal
/// (the replay's one-off preprocessing must not double-count).
fn assert_monotone(
    before: &DataflowStats,
    after: &DataflowStats,
    ctx: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(after.batches >= before.batches, "{}: batches shrank", ctx);
    prop_assert_eq!(
        after.updates_in,
        before.updates_in,
        "{}: replay double-counted updates_in",
        ctx
    );
    prop_assert!(
        after.deltas_in >= before.deltas_in,
        "{}: deltas shrank",
        ctx
    );
    prop_assert!(
        after.output_delta_tuples >= before.output_delta_tuples,
        "{}: output deltas shrank",
        ctx
    );
    prop_assert!(
        after.multiway_seeds >= before.multiway_seeds
            && after.multiway_probes >= before.multiway_probes,
        "{}: join counters shrank",
        ctx
    );
    Ok(())
}

/// The cardinalities a replan at the `k`-th injection point lowers from:
/// the live counts of `mirror` on even points, none (the blind tie-break
/// order) on odd ones, so consecutive replans flip the variable order
/// wherever the counts order it differently.
fn replan_cards(k: usize, mirror: &Database<i64>, q: &Query) -> Cardinalities {
    match k % 2 {
        0 => Cardinalities::from_db(mirror, q),
        _ => Cardinalities::none(),
    }
}

/// Drive one shape through the stream, replanning the single engine and
/// every fleet at the generated batch boundaries — alternating between
/// the learned and the blind variable order — and compare everything to
/// the oracle after every batch.
fn check_shape_with_replans(
    q: &Query,
    ops: &[EdgeOp],
    chunk: usize,
    replan_at: &[usize],
) -> Result<(), TestCaseError> {
    let updates = edge_updates(q, ops);

    let mut mirror = mirror_db(q);
    let mut single = DataflowEngine::<i64>::new(q.clone(), &mirror, lift_one).unwrap();
    let mut fleets: Vec<ShardedEngine<i64>> = [1usize, 2, 4]
        .into_iter()
        .map(|n| ShardedEngine::new(q.clone(), &mirror, lift_one, n).unwrap())
        .collect();

    let mut replans = 0;
    for (batch_no, batch) in updates.chunks(chunk.max(1)).enumerate() {
        if replan_at.contains(&batch_no) {
            let cards = replan_cards(replans, &mirror, q);
            replans += 1;
            let before = single.stats();
            single.replan_with_cards(&mirror, cards.clone()).unwrap();
            assert_monotone(&before, &single.stats(), "single replan")?;
            for eng in &mut fleets {
                let before = eng.stats();
                eng.replan_with_cards(&mirror, &cards).unwrap();
                assert_monotone(
                    &before,
                    &eng.stats(),
                    &format!("fleet x{} replan", eng.shards()),
                )?;
            }
        }
        single.apply_batch(batch).unwrap();
        for eng in &mut fleets {
            eng.apply_batch(batch).unwrap();
        }
        for u in batch {
            mirror.apply(u);
        }
        let expect = oracle_db(q, &mirror);
        outputs_match(
            single.output_relation(),
            &expect,
            &format!("{:?} single ({})", q.name, single.plan()),
        )?;
        for eng in &fleets {
            outputs_match(
                eng.output_relation(),
                &expect,
                &format!("{:?} sharded x{}", q.name, eng.shards()),
            )?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Self-join triangle (degenerate single-shard routing) under
    /// replans at arbitrary points.
    #[test]
    fn triangle_replans_agree(
        ops in edge_ops_default(),
        chunk in 1usize..9,
        r1 in 0usize..4,
        r2 in 4usize..8,
    ) {
        check_shape_with_replans(&triangle("ae_"), &ops, chunk, &[r1, r2])?;
    }

    /// 4-cycle (broadcast replication path) under replans.
    #[test]
    fn four_cycle_replans_agree(
        ops in edge_ops_default(),
        chunk in 1usize..9,
        r1 in 0usize..4,
        r2 in 4usize..8,
    ) {
        check_shape_with_replans(&four_cycle("ae_"), &ops, chunk, &[r1, r2])?;
    }

    /// Cross-family adaptive sessions on the 3-relation triangle: a
    /// `family_cost_ratio` below 1 makes the dataflow → heavy-light and
    /// heavy-light → dataflow hysteresis bands *overlap*, so with the
    /// clocks floored the session is free to swap engine families at
    /// every batch boundary the stream's skew happens to license —
    /// the adversarial schedule for the mid-stream rebuild-from-mirror
    /// path. Whatever family it lands on, the maintained output must
    /// stay ≡ the oracle after every batch, every shift must move
    /// between the two families in the comparison's domain, and the
    /// shift log must be exactly the `FamilyShift`-triggered suffix the
    /// session reports. (The deterministic ≥ 1-shift acceptance lives
    /// with the session's unit tests; here the schedule is generated.)
    #[test]
    fn cross_family_oscillation_agrees(
        ops in edge_ops(3, 4, 0..48),
        chunk in 1usize..9,
    ) {
        let q = triangle3("ae_");
        let updates = edge_updates(&q, &ops);
        let mut mirror = mirror_db(&q);
        let mut s = Session::<i64>::builder(q.clone())
            .adaptive(ReplanPolicy {
                min_batches_between: 1,
                min_replay_fraction: 0.0,
                family_cost_ratio: 0.5,
                ..ReplanPolicy::default()
            })
            .build(&mirror)
            .unwrap();
        prop_assert_eq!(s.engine_kind(), EngineKind::HeavyLight);
        for (no, batch) in updates.chunks(chunk.max(1)).enumerate() {
            s.apply_batch(batch).unwrap();
            for u in batch {
                mirror.apply(u);
            }
            let expect = oracle_db(&q, &mirror);
            outputs_match(&s.output(), &expect, &format!("cross-family batch {no}"))?;
            prop_assert!(
                matches!(
                    s.engine_kind(),
                    EngineKind::HeavyLight | EngineKind::DataflowMultiway
                ),
                "batch {}: family comparison left its domain: {:?}",
                no,
                s.engine_kind()
            );
        }
        for ev in &s.explain().replans {
            if ev.trigger == ReplanTrigger::FamilyShift {
                prop_assert!(
                    ev.to.contains("HeavyLight") != ev.from.contains("HeavyLight"),
                    "family shift that did not change family: {} -> {}",
                    ev.from,
                    ev.to
                );
            }
        }
    }

    /// Acyclic star (fully partitioned) under replans.
    #[test]
    fn star_replans_agree(
        ops in edge_ops_default(),
        chunk in 1usize..9,
        r1 in 0usize..4,
        r2 in 4usize..8,
    ) {
        check_shape_with_replans(&star("ae_"), &ops, chunk, &[r1, r2])?;
    }
}

/// The 5-relation Retailer join under its Inventory insert stream, with
/// order-flipping replans injected mid-stream into both the
/// single-threaded engine and a 2-shard fleet — deterministic, so it
/// doubles as the wide-arity (beyond binary atoms) replan check.
#[test]
fn retailer_replans_mid_stream_match_oracle() {
    let mut gen = RetailerGen::new(8, 3, 8, 42);
    let db = gen.initial_db(400);
    let q = gen.query().clone();
    let mut mirror = db.clone();
    let mut single = DataflowEngine::<i64>::new(q.clone(), &db, lift_one).unwrap();
    let mut fleet = ShardedEngine::<i64>::new(q.clone(), &db, lift_one, 2).unwrap();

    for i in 0..9 {
        if i % 3 == 2 {
            // Alternate the blind and the learned order.
            let cards = replan_cards(i / 3 + 1, &mirror, &q);
            let before = (single.stats(), fleet.stats());
            single.replan_with_cards(&mirror, cards.clone()).unwrap();
            fleet.replan_with_cards(&mirror, &cards).unwrap();
            assert!(single.stats().batches >= before.0.batches);
            assert_eq!(single.stats().updates_in, before.0.updates_in);
            assert!(fleet.stats().batches >= before.1.batches);
            assert_eq!(fleet.stats().updates_in, before.1.updates_in);
        }
        let batch = gen.inventory_batch(60);
        single.apply_batch(&batch).unwrap();
        fleet.apply_batch(&batch).unwrap();
        for u in &batch {
            mirror.apply(u);
        }
    }

    let per_atom: Vec<&Relation<i64>> = q
        .atoms
        .iter()
        .map(|atom| mirror.relation(atom.name))
        .collect();
    let expect = eval_join_aggregate(&per_atom, &q.free, lift_one);
    for (name, got) in [
        ("single", single.output_relation()),
        ("fleet", fleet.output_relation()),
    ] {
        assert_eq!(got.len(), expect.len(), "{name}");
        for (t, p) in expect.iter() {
            assert_eq!(&got.get(t), p, "{name} at {t:?}");
        }
    }
}

/// A triangle stream over `q`'s three relations whose size landscape
/// inverts at the returned flip index. Half A is sparse over a wide
/// domain with `|S| ≪ |R| ≪ |T|`, so deltas rarely find partners. Half B
/// drains T while R and S concentrate on 48 hubs: the sizes of S and T
/// invert, and every δR or δS finds many partners.
fn skew_flip_stream(q: &Query) -> (Vec<Vec<Update<i64>>>, usize) {
    const WIDE: u64 = 4_000;
    const HUBS: u64 = 48;
    let (r, s, t) = (q.atoms[0].name, q.atoms[1].name, q.atoms[2].name);
    let half = 30;
    let mut state = 0x5eed_ad47u64;
    let mut below = |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % n) as i64
    };
    let mut batches = Vec::with_capacity(2 * half);
    let mut t_backlog = Vec::new();
    for _ in 0..half {
        let mut b = Vec::new();
        for _ in 0..128 {
            let e = (below(WIDE), below(WIDE));
            t_backlog.push(e);
            b.push(Update::insert(t, tup![e.0, e.1]));
        }
        b.extend((0..32).map(|_| Update::insert(r, tup![below(WIDE), below(WIDE)])));
        b.extend((0..4).map(|_| Update::insert(s, tup![below(WIDE), below(WIDE)])));
        batches.push(b);
    }
    let drain = t_backlog.len() * 3 / half;
    for _ in 0..half {
        let mut b: Vec<_> = (0..drain)
            .map_while(|_| t_backlog.pop())
            .map(|(x, y)| Update::delete(t, tup![x, y]))
            .collect();
        b.extend((0..2).map(|_| Update::insert(t, tup![below(HUBS), below(HUBS)])));
        b.extend((0..96).map(|_| Update::insert(r, tup![below(HUBS), below(HUBS)])));
        b.extend((0..128).map(|_| Update::insert(s, tup![below(HUBS), below(HUBS)])));
        batches.push(b);
    }
    (batches, half)
}

/// Mid-stream drift: sessions built on an empty database (an all-zero
/// cost snapshot) — forced multiway and adaptive — ingest the skew flip.
/// Both must equal the oracle at the end of each half, and the adaptive
/// session must record at least one replan.
#[test]
fn skew_flip_sessions_match_oracle_and_adaptive_replans() {
    let q = triangle3("sf_");
    let (batches, flip) = skew_flip_stream(&q);
    let mut sessions: Vec<Session<i64>> = [Some(EngineKind::DataflowMultiway), None]
        .into_iter()
        .map(|kind| {
            let builder = Session::<i64>::builder(q.clone());
            let builder = match kind {
                Some(k) => builder.engine(k),
                None => builder.adaptive(ReplanPolicy::default()),
            };
            builder.build(&Database::new()).unwrap()
        })
        .collect();
    let mut mirror = mirror_db(&q);
    for (i, batch) in batches.iter().enumerate() {
        for s in &mut sessions {
            s.apply_batch(batch).unwrap();
        }
        for u in batch {
            mirror.apply(u);
        }
        if i + 1 == flip || i + 1 == batches.len() {
            let expect = oracle_db(&q, &mirror);
            for s in &mut sessions {
                let ctx = format!("{} after batch {i}", s.engine_kind());
                outputs_match(&s.output(), &expect, &ctx).unwrap();
            }
        }
    }
    assert!(
        !sessions[1].explain().replans.is_empty(),
        "the adaptive session must replan on the skew flip"
    );
}

/// Sec 3.3 end to end: a session forced onto the multiway plan, with an
/// adaptive policy armed, ingests a flat prefix and then a hub burst in
/// which every wedge `R(0,v)·S(v,anchor)·T(anchor,0)` closes through
/// one hub. The learned degree sketch must shift the engine family
/// mid-stream, and the session must end on heavy-light with the
/// oracle's count.
#[test]
fn hub_burst_shifts_a_forced_multiway_session_to_heavy_light() {
    let q = ivm_query::examples::triangle_count();
    let (r, s, t) = (q.atoms[0].name, q.atoms[1].name, q.atoms[2].name);
    let mut session = Session::<i64>::builder(q.clone())
        .engine(EngineKind::DataflowMultiway)
        .adaptive(ReplanPolicy {
            min_batches_between: 2,
            min_replay_fraction: 0.01,
            family_cost_ratio: 2.0,
            ..ReplanPolicy::default()
        })
        .build(&Database::new())
        .unwrap();
    let mut mirror = mirror_db(&q);
    let mut ingest = |batch: Vec<Update<i64>>| {
        session.apply_batch(&batch).unwrap();
        for u in &batch {
            mirror.apply(u);
        }
    };
    for chunk in EdgeStream::zipf(512, 150, 0.0, 7).edges.chunks(64) {
        ingest(
            chunk
                .iter()
                .flat_map(|&(a, b)| [r, s, t].map(|rel| Update::insert(rel, tup![a, b])))
                .collect(),
        );
    }
    let anchor = 1_000_000i64;
    for v in 1..=80i64 {
        ingest(vec![
            Update::insert(r, tup![0i64, v]),
            Update::insert(s, tup![v, anchor]),
            Update::insert(t, tup![anchor, 0i64]),
        ]);
    }
    let replans = &session.explain().replans;
    assert!(
        replans
            .iter()
            .any(|e| e.trigger == ReplanTrigger::FamilyShift),
        "the hub burst must shift the engine family: {replans:?}"
    );
    assert_eq!(session.engine_kind(), EngineKind::HeavyLight);
    let expect = oracle_db(&q, &mirror);
    assert_eq!(expect.get(&Tuple::empty()), 6_400);
    outputs_match(&session.output(), &expect, "after the hub burst").unwrap();
}
