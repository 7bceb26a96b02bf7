//! The multiway join allocates per new index key and per output key, never
//! per seed, per probe, per candidate or per join tuple: two warmed-up
//! triangle engines over graphs of very different density, fed batches of
//! the same shape, make the same number of allocations per batch — and so
//! do two 4-cycle counts whose churned edge closes 43 and 211 cycles.
//! Both counts are pinned: a key of at most two value ids sits in its
//! table slot, so a stored tuple or an index key costs no allocation of
//! its own (a new key's candidate set still allocates its run).
//!
//! The gate needs a counting `#[global_allocator]`, which is why this test
//! is a binary of its own.

mod common;
#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use ivm_core::Maintainer;
use ivm_data::ops::lift_one;
use ivm_data::{tup, Database, Tuple, Update};
use ivm_dataflow::DataflowEngine;

/// Allocator calls per round of the steady state: a self-join triangle
/// count over `edges`, then rounds of one batch inserting `churn` and one
/// deleting it again. Two rounds warm every table up, two are counted.
fn allocations_per_round(prefix: &str, edges: Vec<Tuple>, churn: Vec<Tuple>) -> u64 {
    let q = common::triangle(prefix);
    let e = q.atoms[0].name;
    let mut eng = DataflowEngine::<i64>::new(q, &Database::new(), lift_one).unwrap();
    let load: Vec<Update<i64>> = edges.into_iter().map(|t| Update::insert(e, t)).collect();
    eng.apply_batch(&load).unwrap();
    let batch = |m: i64| -> Vec<Update<i64>> {
        let signed = churn.iter().map(|t| Update::with_payload(e, t.clone(), m));
        signed.collect()
    };
    let (insert, delete) = (batch(1), batch(-1));
    let mut counted = 0;
    for round in 0..4 {
        let before = counting_alloc::allocations();
        let closed =
            eng.apply_batch(&insert).unwrap().len() + eng.apply_batch(&delete).unwrap().len();
        assert_eq!(closed, 0, "the churn must not close a triangle");
        if round >= 2 {
            counted += counting_alloc::allocations() - before;
        }
    }
    assert!(
        eng.stats().multiway_seeds > 0,
        "the multiway path must have run"
    );
    counted / 2
}

#[test]
fn allocations_per_batch_do_not_depend_on_density() {
    // Degree 2: 2 560 sources with two sinks each — most index probes
    // miss, every candidate set is a two-element sorted vector.
    let n = 2_560u64;
    let sparse = (0..n).flat_map(|i| [tup![i, n + i], tup![i, n + (i + 1) % n]]);
    let sparse_churn = (0..16).map(|i| tup![i * 100, n + (i * 100 + 7) % n]);
    // Degree 40: a 128-ring, every node to its next 40 — every index probe
    // hits a 40-element hash set, and each seed intersects two of them.
    // Triangle-free like the first: three steps of at most 41 stay below 128.
    let m = 128u64;
    let dense = (0..m).flat_map(|i| (1..=40).map(move |k| tup![i, (i + k) % m]));
    let dense_churn = (0..16).map(|i| tup![i * 8, (i * 8 + 41) % m]);

    let sparse_allocs = allocations_per_round("mwa_s", sparse.collect(), sparse_churn.collect());
    let dense_allocs = allocations_per_round("mwa_d", dense.collect(), dense_churn.collect());
    assert_eq!(
        sparse_allocs, dense_allocs,
        "allocations per batch may follow the batch's size, not the graph's density"
    );
    // The operator that boxed every stored tuple and index key as a tuple
    // of `Value`s made 268 per round; 156 while each batch was first
    // copied into one `Relation` per source node; 110 while a consolidated
    // batch was a map of per-relation maps that cloned every update's
    // tuple.
    const PER_ROUND: u64 = 76;
    const { assert!(PER_ROUND < 156) };
    assert_eq!(sparse_allocs, PER_ROUND);
}

/// Allocator calls per batch of the Boolean 4-cycle count
/// `Σ R(a,b)·S(b,c)·T(c,d)·U(d,a)` over four copies of the complete
/// digraph on `hub` nodes, churning the one edge `R` lacks: inserting it
/// closes `(hub − 1) + (hub − 2)²` 4-cycles, deleting it opens them again.
fn four_cycle_allocations_per_batch(prefix: &str, hub: u64) -> u64 {
    let q = common::four_cycle(prefix);
    let complete = (0..hub).flat_map(|i| (0..hub).filter(move |&j| j != i).map(move |j| (i, j)));
    let mut load = Vec::new();
    for atom in &q.atoms {
        let edges = complete
            .clone()
            .filter(|&e| atom.name != q.atoms[0].name || e != (0, 1));
        load.extend(edges.map(|(i, j)| Update::insert(atom.name, tup![i, j])));
    }
    let mut eng = DataflowEngine::<i64>::new(q.clone(), &Database::new(), lift_one).unwrap();
    eng.apply_batch(&load).unwrap();
    let edge = |m: i64| [Update::with_payload(q.atoms[0].name, tup![0u64, 1u64], m)];
    let cycles = (hub - 1 + (hub - 2) * (hub - 2)) as i64;
    let mut counted = 0;
    for round in 0..4 {
        let before = counting_alloc::allocations();
        let inserted = eng.apply_batch(&edge(1)).unwrap().get(&Tuple::empty());
        let deleted = eng.apply_batch(&edge(-1)).unwrap().get(&Tuple::empty());
        assert_eq!((inserted, deleted), (cycles, -cycles));
        if round >= 2 {
            counted += counting_alloc::allocations() - before;
        }
    }
    counted / 4
}

#[test]
fn aggregated_count_allocations_do_not_depend_on_join_size() {
    // 43 and 211 4-cycles per inserted edge: a plan that lists the join
    // tuples before summing them allocates at least once per 4-cycle.
    let small = four_cycle_allocations_per_batch("mwa_c8", 8);
    let large = four_cycle_allocations_per_batch("mwa_c16", 16);
    assert_eq!(
        small, large,
        "a count's allocations per batch may not follow the number of join tuples"
    );
    // 18 per batch when stored tuples and index keys were boxed `Value`s,
    // 15 while each batch was first copied into per-source relations, 10
    // while a consolidated batch was a map of per-relation maps that cloned
    // every update's tuple.
    const PER_BATCH: u64 = 8;
    const { assert!(PER_BATCH < 15) };
    assert_eq!(small, PER_BATCH);
}
