//! The multiway join allocates per delta tuple and per output tuple,
//! never per seed, per probe or per candidate: two warmed-up triangle
//! engines over graphs of very different density, fed batches of the same
//! shape, make the same number of allocations per batch.
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
    assert!(sparse_allocs > 0);
    assert_eq!(
        sparse_allocs, dense_allocs,
        "allocations per batch may follow the batch's size, not the graph's density"
    );
}
