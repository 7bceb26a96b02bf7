//! Randomized cross-engine equivalence harness.
//!
//! Every query shape runs the *same* proptest-generated update stream —
//! mixed inserts and deletes, duplicate tuples, deletes of tuples that
//! were never inserted (legal here: ring payloads just go negative) —
//! through independent evaluators:
//!
//! 1. `DataflowEngine`, the **worst-case-optimal multiway** join,
//! 2. `ShardedEngine` with **1, 2, and 4 shards** (hash-partitioned
//!    parallel workers merging deltas by ring ⊎),
//! 3. a multiway **`StoreHub` member** whose stores a listing query's
//!    engine shares,
//! 4. a **from-scratch oracle** (`eval_join_aggregate` over the final
//!    base relations),
//!
//! and asserts all agree after every batch. The shapes cover cyclic and
//! acyclic queries *and* the shard planner's whole split: the
//! cyclic self-join triangle (unshardable → degenerate single-shard
//! routing), the cyclic 4-cycle (two relations partitioned, two
//! broadcast — the replication path), and the acyclic star (everything
//! partitioned by the shared variable). 64 cases per shape; the vendored
//! proptest shim seeds each test deterministically from its name, so
//! failures reproduce.
//!
//! The multiway node aggregates onto the free variables inside its search,
//! so the cyclic shapes also run under every kind of free-variable set —
//! none, one, two, all in an order the search does not use — and under a
//! value-dependent lifting as well as `lift_one` (32 cases each).
//!
//! Shapes, stream strategies, and the oracle live in `tests/common`.

mod common;

use common::{
    clamped_updates, distinct_relations, edge_ops_default, edge_updates, empty_base, four_cycle,
    oracle, oracle_lifted, outputs_match, star, triangle, triangle3, wide_ops, WideOp,
};
use ivm_core::Maintainer;
use ivm_data::ops::{lift_one, Lift};
use ivm_data::{sym, tup, Database, Schema, Sym, Tuple, Update, Value};
use ivm_dataflow::cost::{variable_order, Cardinalities};
use ivm_dataflow::{DataflowEngine, DeltaBatch, StoreHub};
use ivm_query::Query;
use ivm_shard::ShardedEngine;
use proptest::prelude::*;

/// Drive one query shape through the engine, shard fleets, a `StoreHub`
/// member and the oracle, comparing after every applied batch. Every
/// batch also inserts and deletes its first tuple once more.
fn check_shape(
    q: &Query,
    updates: &[Update<i64>],
    chunk: usize,
    lift: Lift<i64>,
) -> Result<(), TestCaseError> {
    let db = Database::new();
    let engine = |q: &Query| DataflowEngine::<i64>::new(q.clone(), &db, lift).unwrap();
    let mut multi = engine(q);
    // The multiway node aggregates onto the free variables itself.
    prop_assert_eq!(multi.output_relation().schema(), &q.free);
    // The sharded engine must agree at every fleet size, including the
    // broadcast-replication path (4-cycle) and the degenerate self-join
    // fallback (triangle).
    let mut sharded: Vec<ShardedEngine<i64>> = [1usize, 2, 4]
        .into_iter()
        .map(|n| ShardedEngine::new(q.clone(), &db, lift, n).unwrap())
        .collect();
    // A hub member whose stores a listing query over the same atoms
    // adopts; the hub advances them once per batch, after both searched.
    let listing = Query::new(&format!("{}_list", q.name), q.variables(), q.atoms.clone());
    let hub = StoreHub::new();
    let mut member = engine(q);
    let mut lister = engine(&listing);
    prop_assert_eq!(member.share_stores(&hub), 0);
    prop_assert_eq!(lister.share_stores(&hub), distinct_relations(q).len());
    let mut base = empty_base(q);

    for chunk in updates.chunks(chunk.max(1)) {
        let mut batch = chunk.to_vec();
        if let Some(u) = chunk.first() {
            batch.push(Update::with_payload(u.relation, u.tuple.clone(), 1));
            batch.push(Update::with_payload(u.relation, u.tuple.clone(), -1));
        }
        for eng in [&mut multi, &mut member, &mut lister] {
            eng.apply_batch(&batch).unwrap();
        }
        for eng in &mut sharded {
            eng.apply_batch(&batch).unwrap();
        }
        hub.advance_batch(&DeltaBatch::from_updates(&batch));
        common::apply_to_base(&mut base, &batch);
        let expect = oracle_lifted(q, &base, lift);
        let engines = [(&multi, "multiway"), (&member, "hub member")];
        for (eng, what) in engines {
            let ctx = format!("{:?} {what}", q.name);
            outputs_match(eng.output_relation(), &expect, &ctx)?;
        }
        for eng in &sharded {
            outputs_match(
                eng.output_relation(),
                &expect,
                &format!("{:?} sharded x{}", q.name, eng.shards()),
            )?;
        }
        let listed = oracle_lifted(&listing, &base, lift);
        outputs_match(lister.output_relation(), &listed, "hub listing")?;
    }
    Ok(())
}

/// A lifting that depends on the value and is never zero on the
/// harness's domains.
fn lift_affine(_: Sym, v: &Value) -> i64 {
    3 * v.as_int().unwrap() - 1
}

/// `q`'s atoms under every kind of free-variable set: none, one, two in
/// reverse order, and all of them in reverse first-occurrence order —
/// not the planner's variable order, which on these cycles is
/// first-occurrence order.
fn free_variants(q: &Query) -> Vec<Query> {
    let vars = q.variables().vars().to_vec();
    let sets = [
        vec![],
        vec![vars[1]],
        vec![vars[2], vars[0]],
        vars.iter().rev().copied().collect(),
    ];
    sets.into_iter()
        .enumerate()
        .map(|(i, free)| {
            let name = format!("{}_free{i}", q.name);
            Query::new(&name, Schema::new(free), q.atoms.clone())
        })
        .collect()
}

/// [`check_shape`] over every free-variable set of `q` and both liftings,
/// on a valid mixed ± stream with payload-2 duplicates.
fn check_free_sets(q: &Query, ops: &[WideOp], chunk: usize) -> Result<(), TestCaseError> {
    for variant in free_variants(q) {
        let updates = clamped_updates(&variant, ops);
        for lift in [lift_one, lift_affine as Lift<i64>] {
            check_shape(&variant, &updates, chunk, lift)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cyclic self-join triangle: multiway ≡ fleets ≡ hub member ≡
    /// oracle on every batch prefix of a random mixed-sign stream.
    #[test]
    fn triangle_engines_agree(ops in edge_ops_default(), chunk in 1usize..9) {
        let q = triangle("pe_");
        check_shape(&q, &edge_updates(&q, &ops), chunk, lift_one)?;
    }

    /// Cyclic 4-cycle over four distinct relations.
    #[test]
    fn four_cycle_engines_agree(ops in edge_ops_default(), chunk in 1usize..9) {
        let q = four_cycle("pe_");
        check_shape(&q, &edge_updates(&q, &ops), chunk, lift_one)?;
    }

    /// Acyclic star with all variables free (multiway forced).
    #[test]
    fn star_engines_agree(ops in edge_ops_default(), chunk in 1usize..9) {
        let q = star("pe_");
        check_shape(&q, &edge_updates(&q, &ops), chunk, lift_one)?;
    }

    /// Pipelined ingestion is just a reordering of the same ring algebra:
    /// enqueue-everything-then-drain must equal the synchronous engine and
    /// the oracle, on the shape whose plan replicates (broadcasts) atoms.
    #[test]
    fn pipelined_sharded_four_cycle_agrees(ops in edge_ops_default(), chunk in 1usize..9) {
        let q = four_cycle("pe_");
        let updates = edge_updates(&q, &ops);
        let db = Database::new();
        let mut eng = ShardedEngine::<i64>::new(q.clone(), &db, lift_one, 3).unwrap();
        let mut base = empty_base(&q);
        for batch in updates.chunks(chunk.max(1)) {
            // Fire-and-forget; nothing is awaited until the drain below.
            eng.enqueue_batch(batch).unwrap();
            common::apply_to_base(&mut base, batch);
        }
        eng.drain().unwrap();
        let expect = oracle(&q, &base);
        outputs_match(eng.output_relation(), &expect, "pipelined 4-cycle x3")?;
    }

    /// Single-tuple application order is immaterial: one batch equals the
    /// same updates applied one at a time, on both plans — the blind
    /// variable order and the one skewed cardinalities derive.
    #[test]
    fn batch_equals_singles_on_both_plans(ops in edge_ops_default()) {
        let q = triangle3("pe_");
        let updates = edge_updates(&q, &ops);
        let mut skewed = Cardinalities::none();
        for (i, rel) in distinct_relations(&q).into_iter().enumerate() {
            skewed.set(rel, [1_000, 10, 1_000][i]);
        }
        let db = Database::new();
        let engine = |cards: &Cardinalities| {
            DataflowEngine::<i64>::new_with_cards(q.clone(), &db, lift_one, cards.clone()).unwrap()
        };
        let plans = [Cardinalities::none(), skewed];
        prop_assert!(engine(&plans[0]).plan() != engine(&plans[1]).plan());
        for cards in &plans {
            let (mut one, mut many) = (engine(cards), engine(cards));
            for u in &updates {
                one.apply_batch(std::slice::from_ref(u)).unwrap();
            }
            many.apply_batch(&updates).unwrap();
            outputs_match(
                many.output_relation(),
                one.output_relation(),
                &format!("batch-vs-singles {}", one.plan()),
            )?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Aggregation inside the multiway join, on the self-join triangle:
    /// every free-variable set, both liftings — multiway ≡ fleets ≡ hub
    /// member ≡ oracle.
    #[test]
    fn triangle_free_sets_agree(ops in wide_ops(), chunk in 1usize..9) {
        check_free_sets(&triangle("pe_"), &ops, chunk)?;
    }

    /// The same over three distinct relations.
    #[test]
    fn triangle3_free_sets_agree(ops in wide_ops(), chunk in 1usize..9) {
        check_free_sets(&triangle3("pe_"), &ops, chunk)?;
    }

    /// The same on the 4-cycle.
    #[test]
    fn four_cycle_free_sets_agree(ops in wide_ops(), chunk in 1usize..9) {
        check_free_sets(&four_cycle("pe_"), &ops, chunk)?;
    }
}

/// The listing variants of [`free_variants`] really list in an order the
/// planner does not search in, so the node's output projection permutes.
#[test]
fn listing_variants_permute_the_variable_order() {
    for q in [triangle("pe_"), triangle3("pe_"), four_cycle("pe_")] {
        let listing = free_variants(&q).pop().unwrap();
        assert_eq!(listing.free.arity(), q.variables().arity());
        let cards = Cardinalities::from_db(&Database::<i64>::new(), &listing);
        assert_ne!(variable_order(&listing, &cards), listing.free);
    }
}

/// The three harness shapes cover the shard planner's whole split, and
/// the streams above really exercise each path — deterministic check.
#[test]
fn harness_shapes_cover_all_shard_plan_paths() {
    let db = Database::new();
    // Self-join triangle: occurrences permute the columns of E, so no
    // physical partition serves all of them → degenerate serial routing.
    let tri = ShardedEngine::<i64>::new(triangle("pe_"), &db, lift_one, 4).unwrap();
    assert!(tri.plan().is_degenerate(), "{}", tri.describe());

    // 4-cycle: a covers R and U; S and T replicate → broadcast path.
    let mut cyc = ShardedEngine::<i64>::new(four_cycle("pe_"), &db, lift_one, 4).unwrap();
    assert_eq!(cyc.plan().partitioned_count(), 2, "{}", cyc.describe());
    assert_eq!(cyc.plan().broadcast_count(), 2, "{}", cyc.describe());
    let batch: Vec<Update<i64>> = (0..8u64)
        .flat_map(|i| {
            [
                Update::insert(sym("pe_4R"), tup![i, i + 1]),
                Update::insert(sym("pe_4S"), tup![i, i + 1]),
            ]
        })
        .collect();
    cyc.apply_batch(&batch).unwrap();
    let st = cyc.sharded_stats();
    assert!(
        st.router.broadcast_copies > 0,
        "the 4-cycle stream must exercise replication"
    );
    assert!(st.router.routed > 0);

    // Star: x occurs in every atom → everything partitions, nothing
    // replicates.
    let star_eng = ShardedEngine::<i64>::new(star("pe_"), &db, lift_one, 4).unwrap();
    assert_eq!(
        star_eng.plan().broadcast_count(),
        0,
        "{}",
        star_eng.describe()
    );
    assert_eq!(star_eng.plan().partitioned_count(), 3);
}

/// The acceptance check of the WCOJ change, deterministic: on a dense
/// triangle workload the multiway plan agrees with the oracle and holds
/// no state beyond the edge store and the one-entry view — no binary
/// intermediate, materialized or indexed.
#[test]
fn triangle_multiway_materializes_no_binary_intermediates() {
    let q = triangle("pe_");
    let e = q.atoms[0].name;
    let updates: Vec<Update<i64>> = (0..14u64)
        .flat_map(|i| (0..14u64).map(move |j| (i, j)))
        .filter(|&(i, j)| (i * 7 + j * 3) % 4 != 0 && i != j)
        .map(|(i, j)| Update::insert(e, tup![i, j]))
        .collect();

    let db = Database::new();
    let mut auto = DataflowEngine::<i64>::new(q.clone(), &db, lift_one).unwrap();
    assert!(auto.plan().contains("MultiwayJoin"), "{}", auto.plan());
    let mut base = empty_base(&q);
    for chunk in updates.chunks(16) {
        auto.apply_batch(chunk).unwrap();
        common::apply_to_base(&mut base, chunk);
        outputs_match(auto.output_relation(), &oracle(&q, &base), "dense triangle").unwrap();
    }
    let count = auto.output_relation().get(&Tuple::empty());
    assert!(count > 0, "the workload closes triangles");
    assert_eq!(auto.stats().binary_join_tuples, 0);
    assert_eq!(
        auto.resident_tuples(),
        updates.len() + 1,
        "resident state is the edge store plus the count"
    );
    assert!(auto.stats().multiway_seeds > 0);
}
