//! End-to-end checks of every worked example in the paper, spanning all
//! crates. Each test cites the figure/example it reproduces.

mod common;

use common::triangle::{Triangle, TriangleDelta};
use ivm_core::cascade::CascadeEngine;
use ivm_core::cqap::CqapEngine;
use ivm_core::fd::FdEngine;
use ivm_core::{EagerFactEngine, EagerListEngine, LazyFactEngine, LazyListEngine, Maintainer};
use ivm_data::ops::{eval_join_aggregate, lift_one};
use ivm_data::{sym, tup, Database, Relation, Tuple, Update};
use ivm_hl::HeavyLight;
use ivm_query::examples as ex;
use ivm_query::{is_hierarchical, is_q_hierarchical, is_tractable_cqap};

/// Fig 2: the triangle count over the example database is 19; after
/// δR = {(a2,b1) ↦ −2} it is 13 — via the generic relational operators
/// AND the heavy-light triangle plan at `u64` keys.
#[test]
fn fig2_exact_numbers() {
    // Generic operators.
    let q = ex::triangle_count();
    let mk = |name: &str, rows: &[(Tuple, i64)]| {
        Relation::from_rows(
            q.atoms
                .iter()
                .find(|a| a.name == sym(name))
                .unwrap()
                .schema
                .clone(),
            rows.iter().cloned(),
        )
    };
    let r = mk("tri_R", &[(tup![1i64, 1i64], 2), (tup![2i64, 1i64], 3)]);
    let s = mk("tri_S", &[(tup![1i64, 1i64], 2), (tup![1i64, 2i64], 1)]);
    let t = mk(
        "tri_T",
        &[
            (tup![1i64, 1i64], 1),
            (tup![2i64, 1i64], 3),
            (tup![2i64, 2i64], 3),
        ],
    );
    let out = eval_join_aggregate(&[&r, &s, &t], &q.free, lift_one);
    assert_eq!(out.get(&Tuple::empty()), 19);

    let r2 = {
        let mut r2 = r.clone();
        r2.apply(tup![2i64, 1i64], &-2);
        r2
    };
    let out2 = eval_join_aggregate(&[&r2, &s, &t], &q.free, lift_one);
    assert_eq!(out2.get(&Tuple::empty()), 13);

    // The heavy-light plan; relations 0, 1, 2 are R, S, T.
    let mut eng = HeavyLight::<u64, i64>::new(0.5);
    for (i, rows) in [
        vec![(1u64, 1u64, 2i64), (2, 1, 3)],
        vec![(1, 1, 2), (1, 2, 1)],
        vec![(1, 1, 1), (2, 1, 3), (2, 2, 3)],
    ]
    .into_iter()
    .enumerate()
    {
        for (x, y, m) in rows {
            eng.apply(i, &x, &y, &m);
        }
    }
    assert_eq!(*eng.count(), 19);
    eng.apply(0, &2, &1, &-2);
    assert_eq!(*eng.count(), 13);
}

/// Fig 3 / Ex 4.4: the q-hierarchical query maintained by all four Fig 4
/// engines with identical outputs.
#[test]
fn fig3_four_engines() {
    let q = ex::fig3_query();
    let (r, s) = (sym("f3_R"), sym("f3_S"));
    let db = Database::new();
    let mut engines: Vec<Box<dyn Maintainer<i64>>> = vec![
        Box::new(EagerFactEngine::new(q.clone(), &db, lift_one).unwrap()),
        Box::new(EagerListEngine::new(q.clone(), &db, lift_one).unwrap()),
        Box::new(LazyFactEngine::new(q.clone(), &db, lift_one).unwrap()),
        Box::new(LazyListEngine::new(q.clone(), &db, lift_one).unwrap()),
    ];
    let updates = [
        Update::insert(r, tup![1i64, 10i64]),
        Update::insert(r, tup![1i64, 11i64]),
        Update::insert(s, tup![1i64, 20i64]),
        Update::insert(s, tup![2i64, 21i64]),
        Update::delete(r, tup![1i64, 10i64]),
    ];
    for u in &updates {
        for e in &mut engines {
            e.apply(u).unwrap();
        }
    }
    let reference = engines[3].output();
    assert_eq!(reference.len(), 1);
    assert_eq!(reference.get(&tup![1i64, 11i64, 20i64]), 1);
    for e in &mut engines[..3] {
        assert_eq!(e.output().len(), reference.len());
        assert_eq!(e.output().get(&tup![1i64, 11i64, 20i64]), 1);
    }
}

/// Ex 4.5: the cascade protocol end to end.
#[test]
fn ex45_cascade_protocol() {
    let (q1, q2) = ex::ex45_pair();
    assert!(!is_hierarchical(&q1));
    assert!(is_q_hierarchical(&q2));
    let mut eng: CascadeEngine<i64> =
        CascadeEngine::new(q1, q2, &Database::new(), lift_one).unwrap();
    let (r, s, t) = (sym("e45_R"), sym("e45_S"), sym("e45_T"));
    for (rel, a, b) in [(r, 1i64, 2i64), (s, 2, 3), (t, 3, 4), (t, 3, 5)] {
        eng.apply(&Update::insert(rel, tup![a, b])).unwrap();
    }
    let q2_out = eng.q2_output().unwrap();
    assert_eq!(q2_out.len(), 1);
    let q1_out = eng.q1_output().unwrap();
    assert_eq!(q1_out.len(), 2);
    assert_eq!(q1_out.get(&tup![1i64, 2i64, 3i64, 4i64]), 1);
    assert_eq!(q1_out.get(&tup![1i64, 2i64, 3i64, 5i64]), 1);
    assert_eq!(eng.forced_refreshes(), 0);
}

/// Ex 4.6: CQAP classification and the triangle-detection access engine.
#[test]
fn ex46_cqaps() {
    assert!(is_tractable_cqap(&ex::triangle_detect_cqap()));
    assert!(!is_tractable_cqap(&ex::edge_triangle_listing_cqap()));
    assert!(is_tractable_cqap(&ex::lookup_cqap()));

    let mut eng: CqapEngine<i64> = CqapEngine::new(ex::triangle_detect_cqap(), lift_one).unwrap();
    let e = sym("tdc_E");
    for (a, b) in [(10u64, 20u64), (20, 30), (30, 10)] {
        eng.apply(&Update::insert(e, tup![a, b])).unwrap();
    }
    assert_eq!(eng.probe(&tup![10u64, 20u64, 30u64]).unwrap(), 1);
    assert_eq!(eng.probe(&tup![20u64, 10u64, 30u64]).unwrap(), 0);
}

/// Ex 4.12: FD-aware maintenance equals from-scratch evaluation.
#[test]
fn ex412_fd_engine() {
    let (q, sigma) = ex::ex412_query();
    let mut eng: FdEngine<i64> =
        FdEngine::new(q.clone(), &sigma, &Database::new(), lift_one).unwrap();
    let (r, s, t) = (sym("e412_R"), sym("e412_S"), sym("e412_T"));
    // Out of order on purpose: R before its FD providers.
    eng.apply(&Update::insert(r, tup![3i64, 30i64])).unwrap();
    eng.apply(&Update::insert(r, tup![3i64, 31i64])).unwrap();
    eng.apply(&Update::insert(s, tup![3i64, 33i64])).unwrap();
    eng.apply(&Update::insert(t, tup![33i64, 333i64])).unwrap();
    let out = eng.output();
    assert_eq!(out.len(), 2);
    assert_eq!(out.get(&tup![333i64, 33i64, 3i64, 30i64]), 1);
}

/// Ex 4.14: static-dynamic maintenance with the hand-validated order.
#[test]
fn ex414_static_dynamic() {
    let q = ex::ex414_query();
    let vo = ivm_query::varorder::find_tractable_order(&q).unwrap();
    let tname = sym("e414_T");
    let mut db: Database<i64> = Database::new();
    let mut t_rel = Relation::new(q.atoms[2].schema.clone());
    t_rel.insert(tup![5i64, 50i64]);
    db.add(tname, t_rel);
    let mut eng = EagerFactEngine::<i64>::with_order(q, vo, &db, lift_one).unwrap();
    eng.apply(&Update::insert(sym("e414_R"), tup![1i64, 9i64]))
        .unwrap();
    eng.apply(&Update::insert(sym("e414_S"), tup![1i64, 5i64]))
        .unwrap();
    let out = eng.output();
    assert_eq!(out.get(&tup![1i64, 5i64, 50i64]), 1);
    // Static relations reject updates.
    assert!(eng
        .apply(&Update::insert(tname, tup![6i64, 60i64]))
        .is_err());
}

/// Theorem 3.4's construction example: the displayed u, M, v with
/// u⊤Mv = 1, encoded through R, S, T exactly as in the paper.
#[test]
fn thm34_worked_encoding() {
    let mut eng = TriangleDelta::default();
    let a = 1_000u64; // the constant value "a"
    eng.update(0, a, 2, 1); // R: u has a 1 in column 2
    for (i, j) in [(2u64, 1u64), (1, 2), (3, 3)] {
        eng.update(1, i, j, 1); // S: M
    }
    eng.update(2, 1, a, 1); // T: v has a 1 in row 1
    assert_eq!(eng.triangles(), 1, "u⊤Mv = 1 in the paper's example");
}

/// The classification table (Sec. 4): every named query gets the verdict
/// the paper states.
#[test]
fn classification_verdicts() {
    assert!(!is_hierarchical(&ex::triangle_count()));
    assert!(!is_hierarchical(&ex::ex43_non_hierarchical()));
    assert!(is_hierarchical(&ex::ex51_query()));
    assert!(!is_q_hierarchical(&ex::ex51_query()));
    assert!(is_q_hierarchical(&ex::fig3_query()));
    assert!(is_q_hierarchical(&ex::retailer_query().0));
    let (q412, sigma) = ex::ex412_query();
    assert!(ivm_query::fd::reduct_is_q_hierarchical(&q412, &sigma));
    assert!(ivm_query::acyclic::is_acyclic(&ex::path3_query()));
    assert!(ivm_query::varorder::is_tractable_static_dynamic(
        &ex::ex414_query()
    ));
}
