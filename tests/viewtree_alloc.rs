//! A view tree enumerates through one reused output row and updates
//! through borrowed keys: a full enumeration makes the same handful of
//! allocator calls whatever the output's size, and an update that creates
//! no stored tuple, group or entry makes none at all.
//!
//! The gate needs a counting `#[global_allocator]`, which is why this test
//! is a binary of its own.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use ivm_core::{EagerFactEngine, Maintainer};
use ivm_data::ops::lift_one;
use ivm_data::{tup, Database, Update};

/// The retailer view tree over a database whose join has exactly
/// `locations × dates × items` output tuples: one zip and population per
/// location, one rain value per (location, date), and one Inventory and
/// one Sales row per (location, date, item). Its `ksn` and `zip` nodes
/// are mixed (a bound leaf beside a free child).
fn retailer(locations: i64, dates: i64, items: i64) -> EagerFactEngine<i64> {
    let (q, n) = ivm_query::examples::retailer_query();
    let mut db = Database::new();
    for atom in &q.atoms {
        db.create(atom.name, atom.schema.clone());
    }
    for l in 0..locations {
        db.apply(&Update::insert(n.location, tup![l, 100 + l]));
        db.apply(&Update::insert(n.census, tup![l, 100 + l, 5_000 + l]));
        for d in 0..dates {
            db.apply(&Update::insert(n.weather, tup![l, d, d % 3]));
            for k in 0..items {
                db.apply(&Update::insert(n.inventory, tup![l, d, k]));
                db.apply(&Update::insert(n.sales, tup![l, d, k, k % 5 + 1]));
            }
        }
    }
    EagerFactEngine::new(q, &db, lift_one).unwrap()
}

/// Allocator calls of one full enumeration (after a warm-up one), and
/// the number of tuples it produced.
fn enumeration_allocations(eng: &mut EagerFactEngine<i64>) -> (u64, u64) {
    let mut tuples = 0u64;
    eng.for_each_output(&mut |_, _| tuples += 1);
    tuples = 0;
    let before = allocations();
    eng.for_each_output(&mut |_, _| tuples += 1);
    (allocations() - before, tuples)
}

#[test]
fn enumeration_allocations_do_not_depend_on_output_size() {
    let (small, small_tuples) = enumeration_allocations(&mut retailer(2, 4, 125));
    let (large, large_tuples) = enumeration_allocations(&mut retailer(4, 10, 500));
    assert_eq!((small_tuples, large_tuples), (1_000, 20_000));
    assert!(small <= 4, "{small} allocator calls for one enumeration");
    assert_eq!(
        small, large,
        "allocations per enumeration may not follow the output's size"
    );
}

#[test]
fn an_update_that_creates_nothing_allocates_nothing() {
    let mut eng = retailer(2, 4, 125);
    let n = ivm_query::examples::retailer_query().1;
    // Multiplicity 1 → 2 and back for one tuple of every relation: the
    // Inventory and Location updates move a mixed node's stored factor,
    // the Sales and Census ones reach a mixed node from a free child.
    let present = [
        Update::insert(n.inventory, tup![1i64, 2i64, 3i64]),
        Update::insert(n.sales, tup![1i64, 2i64, 3i64, 4i64]),
        Update::insert(n.weather, tup![1i64, 2i64, 2i64]),
        Update::insert(n.location, tup![1i64, 101i64]),
        Update::insert(n.census, tup![1i64, 101i64, 5_001i64]),
    ];
    let back: Vec<Update<i64>> = present.iter().map(Update::inverse).collect();
    let before_output = eng.output();
    let before = allocations();
    for upd in present.iter().chain(&back) {
        eng.apply(upd).unwrap();
    }
    assert_eq!(allocations() - before, 0, "allocator calls for 10 updates");
    assert_eq!(eng.output().len(), before_output.len());
}
