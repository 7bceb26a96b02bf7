//! Quickstart: choose nothing.
//!
//! `Session::builder(query).build(&db)` runs the paper's dichotomy
//! analyses, stands up the engine the query's class admits, and returns
//! one uniform handle — the same batch-first `apply_batch` surface
//! whether the backend is a factorized view tree, a worst-case-optimal
//! dataflow, or a sharded fleet. `explain()` shows its work.
//!
//! Run: `cargo run --example quickstart`

use ivm::{Database, EngineKind, Maintainer, Session, Update};
use ivm_data::{sym, tup, vars};
use ivm_query::{Atom, Query};

fn main() {
    // ── 1. A q-hierarchical query: Q(Y, X, Z) = R(Y, X) · S(Y, Z) (Fig 3).
    let [x, y, z] = vars(["qs_X", "qs_Y", "qs_Z"]);
    let (r, s) = (sym("qs_R"), sym("qs_S"));
    let q = Query::new(
        "qs_Q",
        [y, x, z],
        vec![Atom::new(r, [y, x]), Atom::new(s, [y, z])],
    );
    let mut session = Session::<i64>::builder(q).build(&Database::new()).unwrap();
    println!("{}\n", session.explain());
    assert_eq!(session.engine_kind(), EngineKind::EagerFact);

    // One batch through the one trait-level surface; the returned delta
    // contract is documented on `Maintainer::apply_checked`.
    session
        .apply_batch(&[
            Update::insert(r, tup![1i64, 10i64]),
            Update::insert(r, tup![1i64, 11i64]),
            Update::insert(s, tup![1i64, 20i64]),
            Update::insert(s, tup![2i64, 21i64]),
        ])
        .unwrap();
    println!("after one 4-insert batch:");
    session.for_each_output(&mut |t, m| println!("  Q{t:?} ↦ {m}"));

    session
        .apply_batch(&[Update::delete(r, tup![1i64, 10i64])])
        .unwrap();
    println!("\nafter deleting R(1, 10):");
    session.for_each_output(&mut |t, m| println!("  Q{t:?} ↦ {m}"));

    // ── 2. The triangle count admits the heavy-light IVMε family:
    // sublinear O(√N) amortized updates via degree partitioning. (A
    // cyclic query outside the triangle class — or one whose payload
    // lacks additive inverses — auto-selects the worst-case-optimal
    // multiway dataflow plan instead.)
    let tri = ivm_query::examples::triangle_count();
    let (tr, ts, tt) = (sym("tri_R"), sym("tri_S"), sym("tri_T"));
    let mut session = Session::<i64>::builder(tri)
        .build(&Database::new())
        .unwrap();
    println!("\n{}\n", session.explain());
    assert_eq!(session.engine_kind(), EngineKind::HeavyLight);
    let batch: Vec<Update<i64>> = [(1i64, 2i64), (2, 3), (3, 1)]
        .into_iter()
        .flat_map(|(a, b)| [tr, ts, tt].map(|rel| Update::insert(rel, tup![a, b])))
        .collect();
    session.apply_batch(&batch).unwrap();
    println!("triangles: {}", session.output().get(&ivm::Tuple::empty()));

    // ── 3. Scale-out is one builder call; ingestion code is unchanged.
    let mut session = Session::<i64>::builder(ivm_query::examples::fig3_query())
        .shards(4)
        .build(&Database::new())
        .unwrap();
    println!("\nsharded: {}", session.describe());
    session
        .apply_batch(&[
            Update::insert(sym("f3_R"), tup![1i64, 10i64]),
            Update::insert(sym("f3_S"), tup![1i64, 20i64]),
        ])
        .unwrap();
    assert_eq!(session.output().len(), 1);

    // ── 4. The dichotomy can still be *enforced* instead of routed
    //      around: forcing eager-fact onto a non-q-hierarchical query
    //      surfaces the classifier's rejection.
    let [a, b] = vars(["qs_A", "qs_B"]);
    let bad = Query::new(
        "qs_bad",
        [a],
        vec![
            Atom::new(sym("qs_R2"), [a, b]),
            Atom::new(sym("qs_S2"), ivm_data::Schema::from([b])),
        ],
    );
    let err = Session::<i64>::builder(bad.clone())
        .engine(EngineKind::EagerFact)
        .build(&Database::new())
        .unwrap_err();
    println!("\nforced eager-fact on a non-q-hierarchical query: {err}");

    // Auto-selection instead classifies it and runs the generic engine.
    let session = Session::<i64>::builder(bad)
        .build(&Database::new())
        .unwrap();
    println!(
        "auto-selection picks: {} ({})",
        session.engine_kind(),
        session.explain().class()
    );
}
