//! Auto-selection acceptance harness: `Session::builder(q).build(&db)`
//! must (a) pick the engine the dichotomy predicts for every class, and
//! (b) produce a session whose maintained output stays ≡ a from-scratch
//! oracle under random mixed ± batch streams — whatever engine it picked,
//! and again when a shard fleet is requested on top.
//!
//! Shapes cover the whole selection table: the cyclic self-join triangle
//! (→ WCOJ multiway), the 3-relation triangle (→ heavy-light IVMε
//! partitioned maintenance), the cyclic 4-cycle, the
//! acyclic star and path (→ the same multiway dataflow), the paper's Fig 3 query
//! and the 5-relation Retailer join (→ eager-fact view trees), and the
//! triangle-detection CQAP (→ fractured CQAP engine, checked through both
//! full enumeration and constant-delay probes).
//!
//! Stream strategies and the oracle live in `tests/common`.

mod common;

use common::{
    clamped_updates, empty_base, four_cycle, oracle, outputs_match, oversized_cycle, triangle,
    wide_ops, WideOp,
};
use ivm::{Database, EngineKind, Maintainer, QueryClass, Relation, Session, Update};
use ivm_data::sym;
use ivm_query::examples;
use ivm_query::Query;
use proptest::prelude::*;

/// Drive one query through an auto-selected session and a 2-shard fleet,
/// comparing both against the oracle after every batch.
fn check_auto_selection(
    q: &Query,
    expected: EngineKind,
    ops: &[WideOp],
    chunk: usize,
) -> Result<(), TestCaseError> {
    let updates = clamped_updates(q, ops);
    let db = Database::new();
    let mut auto = Session::<i64>::builder(q.clone()).build(&db).unwrap();
    prop_assert_eq!(auto.engine_kind(), expected, "auto pick for {:?}", q.name);
    prop_assert!(auto.explain().fallback.is_none());
    let mut fleet = Session::<i64>::builder(q.clone())
        .shards(2)
        .build(&db)
        .unwrap();
    prop_assert_eq!(fleet.engine_kind(), EngineKind::Sharded);

    let mut base = empty_base(q);
    for batch in updates.chunks(chunk.max(1)) {
        auto.apply_batch(batch).unwrap();
        fleet.apply_batch(batch).unwrap();
        common::apply_to_base(&mut base, batch);
        let expect = oracle(q, &base);
        outputs_match(&auto.output(), &expect, &format!("{:?} auto", q.name))?;
        outputs_match(&fleet.output(), &expect, &format!("{:?} sharded", q.name))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cyclic self-join triangle → worst-case-optimal multiway.
    #[test]
    fn selects_multiway_for_self_join_triangle(ops in wide_ops(), chunk in 1usize..9) {
        check_auto_selection(&triangle("ss_"), EngineKind::DataflowMultiway, &ops, chunk)?;
    }

    /// The paper's 3-relation triangle count admits the heavy-light
    /// IVMε family (Sec 3.3) — and the session it stands up must stay
    /// ≡ the oracle under the same random mixed ± streams as every
    /// other engine.
    #[test]
    fn selects_heavy_light_for_triangle_count(ops in wide_ops(), chunk in 1usize..9) {
        check_auto_selection(
            &examples::triangle_count(),
            EngineKind::HeavyLight,
            &ops,
            chunk,
        )?;
    }

    /// Cyclic 4-cycle → multiway; the 2-shard fleet exercises the
    /// broadcast-replication routing underneath the session.
    #[test]
    fn selects_multiway_for_four_cycle(ops in wide_ops(), chunk in 1usize..9) {
        check_auto_selection(&four_cycle("ss_"), EngineKind::DataflowMultiway, &ops, chunk)?;
    }

    /// Acyclic full star with the center variable *bound* (all the leaf
    /// variables free, so q-hierarchy fails on the bound-dominating root)
    /// → multiway dataflow. Note the free set differs from the harness
    /// star in `tests/common`, which frees everything.
    #[test]
    fn selects_multiway_for_star(ops in wide_ops(), chunk in 1usize..9) {
        let [x, y, z, w] = ivm_data::vars(["ss_SX", "ss_SY", "ss_SZ", "ss_SW"]);
        let q = Query::new(
            "ss_bstar",
            [y, z, w],
            vec![
                ivm_query::Atom::new(sym("ss_SR"), [x, y]),
                ivm_query::Atom::new(sym("ss_SS"), [x, z]),
                ivm_query::Atom::new(sym("ss_ST"), [x, w]),
            ],
        );
        check_auto_selection(&q, EngineKind::DataflowMultiway, &ops, chunk)?;
    }

    /// The acyclic 3-path → multiway dataflow.
    #[test]
    fn selects_multiway_for_path3(ops in wide_ops(), chunk in 1usize..9) {
        check_auto_selection(
            &examples::path3_query(),
            EngineKind::DataflowMultiway,
            &ops,
            chunk,
        )?;
    }

    /// Fig 3 (q-hierarchical) → the eager-fact view tree.
    #[test]
    fn selects_eager_fact_for_fig3(ops in wide_ops(), chunk in 1usize..9) {
        check_auto_selection(&examples::fig3_query(), EngineKind::EagerFact, &ops, chunk)?;
    }

    /// The 5-relation Retailer join (q-hierarchical under the Σ-reduct)
    /// → eager-fact, including under mixed-sign multi-arity streams.
    #[test]
    fn selects_eager_fact_for_retailer(ops in wide_ops(), chunk in 1usize..9) {
        check_auto_selection(
            &examples::retailer_query().0,
            EngineKind::EagerFact,
            &ops,
            chunk,
        )?;
    }

    /// The triangle-detection CQAP → the fractured CQAP engine; its full
    /// enumeration (the Maintainer surface the session exposes) matches
    /// the oracle, and per-input probes match the oracle pointwise.
    #[test]
    fn selects_cqap_for_triangle_detection(ops in wide_ops(), chunk in 1usize..9) {
        let q = examples::triangle_detect_cqap();
        let updates = clamped_updates(&q, &ops);
        let mut s = Session::<i64>::builder(q.clone()).build(&Database::new()).unwrap();
        prop_assert_eq!(s.engine_kind(), EngineKind::Cqap);
        let mut base = empty_base(&q);
        for batch in updates.chunks(chunk.max(1)) {
            s.apply_batch(batch).unwrap();
            common::apply_to_base(&mut base, batch);
        }
        let expect = oracle(&q, &base);
        outputs_match(&s.output(), &expect, "cqap full enumeration")?;
        // Constant-delay access answers agree pointwise with the oracle.
        for (t, p) in expect.iter() {
            prop_assert_eq!(&s.probe(t).unwrap(), p, "probe at {:?}", t);
        }
    }
}

/// The deterministic acceptance table: one assertion per selection row,
/// plus the class each query was put in.
#[test]
fn selection_table_is_exactly_as_documented() {
    let db = Database::new();
    let cases: Vec<(Query, EngineKind, QueryClass)> = vec![
        (
            examples::fig3_query(),
            EngineKind::EagerFact,
            QueryClass::QHierarchical,
        ),
        (
            examples::retailer_query().0,
            EngineKind::EagerFact,
            QueryClass::QHierarchical,
        ),
        (
            examples::triangle_count(),
            EngineKind::HeavyLight,
            QueryClass::Cyclic,
        ),
        (
            examples::triangle_detect_cqap(),
            EngineKind::Cqap,
            QueryClass::CqapTractable,
        ),
        (
            examples::path3_query(),
            EngineKind::DataflowMultiway,
            QueryClass::Acyclic,
        ),
        (
            examples::ex51_query(),
            EngineKind::DataflowMultiway,
            QueryClass::Acyclic,
        ),
        // The intractable CQAP falls back to the class of its hypergraph.
        (
            examples::edge_triangle_listing_cqap(),
            EngineKind::DataflowMultiway,
            QueryClass::Cyclic,
        ),
    ];
    for (q, kind, class) in cases {
        let name = q.name;
        let s = Session::<i64>::builder(q).build(&db).unwrap();
        assert_eq!(s.engine_kind(), kind, "engine for {name}");
        assert_eq!(s.explain().class(), class, "class for {name}");
        assert!(s.explain().fallback.is_none(), "no fallback for {name}");
    }
    // Scale-out request overrides the table.
    let s = Session::<i64>::builder(examples::fig3_query())
        .shards(4)
        .build(&db)
        .unwrap();
    assert_eq!(s.engine_kind(), EngineKind::Sharded);
    assert_eq!(s.explain().shards, 4);
    // Degenerate shard plans report the fleet actually stood up.
    let s = Session::<i64>::builder(triangle("ss_d"))
        .shards(4)
        .build(&db)
        .unwrap();
    assert_eq!(s.engine_kind(), EngineKind::Sharded);
    assert_eq!(
        s.explain().shards,
        1,
        "column-permuting self-join is unshardable; fleet clamps to 1"
    );
}

/// Every engine kind — eager-fact, CQAP, dataflow, and the fleet —
/// ingests the *same batch slice* through the one
/// trait-level `apply_batch` and agrees on the output. (The CQAP engine
/// runs its own query shape; the rest share Fig 3.)
#[test]
fn one_apply_batch_surface_across_all_engines() {
    let db = Database::new();
    let (rn, sn) = (sym("f3_R"), sym("f3_S"));
    let batch: Vec<Update<i64>> = (0..24i64)
        .flat_map(|i| {
            [
                Update::with_payload(
                    rn,
                    ivm_data::tup![i % 3, i % 5],
                    if i % 7 == 0 { -1 } else { 1 },
                ),
                Update::insert(sn, ivm_data::tup![i % 3, i % 4]),
            ]
        })
        .collect();
    let kinds = [
        EngineKind::EagerFact,
        EngineKind::DataflowMultiway,
        EngineKind::Sharded,
    ];
    let mut reference: Option<Relation<i64>> = None;
    for kind in kinds {
        let mut b = Session::<i64>::builder(examples::fig3_query()).engine(kind);
        if kind == EngineKind::Sharded {
            // .shards only composes with the sharded kind; combining it
            // with a forced single-threaded engine is a build error.
            b = b.shards(2);
        }
        let mut s = b.build(&db).unwrap();
        s.apply_batch(&batch).unwrap();
        let got = s.output();
        match &reference {
            None => reference = Some(got),
            Some(expect) => {
                assert_eq!(got.len(), expect.len(), "{kind:?}");
                for (t, p) in expect.iter() {
                    assert_eq!(&got.get(t), p, "{kind:?} at {t:?}");
                }
            }
        }
    }
    // And the CQAP engine through the same trait surface.
    let mut s = Session::<i64>::builder(examples::lookup_cqap())
        .build(&db)
        .unwrap();
    assert_eq!(s.engine_kind(), EngineKind::Cqap);
    s.apply_batch(&[
        Update::insert(sym("lk_S"), ivm_data::tup![10i64, 1i64]),
        Update::insert(sym("lk_T"), ivm_data::tup![1i64]),
    ])
    .unwrap();
    assert_eq!(s.output().get(&ivm_data::tup![10i64, 1i64]), 1);
}

/// A bare `Session` refuses an arity-mismatched tuple — in release builds
/// too, where `Relation::apply`'s `debug_assert` is compiled out. The
/// refusal is atomic and happens before the journal: same error as
/// `ServeNode`, no epoch consumed, nothing journaled, base and view
/// untouched — on all three ingestion entry points.
#[test]
fn arity_mismatch_is_refused_before_the_journal_on_every_generic_backend() {
    let q = common::triangle3("sam_");
    let (rn, sn, tn) = (sym("sam_3R"), sym("sam_3S"), sym("sam_3T"));
    let good = [
        Update::<i64>::insert(rn, ivm_data::tup![1i64, 2i64]),
        Update::insert(sn, ivm_data::tup![2i64, 3i64]),
        Update::insert(tn, ivm_data::tup![3i64, 1i64]),
    ];
    // A well-formed update rides in front of each malformed one: refusal
    // must cover the whole batch, not stop at the bad tuple.
    let too_wide = [
        Update::<i64>::insert(rn, ivm_data::tup![4i64, 5i64]),
        Update::insert(sn, ivm_data::tup![5i64, 6i64, 7i64]),
    ];
    let too_narrow = Update::<i64>::insert(tn, ivm_data::tup![9i64]);
    for kind in [
        EngineKind::DataflowMultiway,
        EngineKind::Sharded,
        EngineKind::HeavyLight,
    ] {
        let dir = std::env::temp_dir().join(format!("ivm-sam-{}-{kind:?}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = Session::<i64>::builder(q.clone())
            .engine(kind)
            .durable(&dir)
            .build(&Database::new())
            .unwrap();
        assert_eq!(s.engine_kind(), kind);
        s.apply_batch(&good).unwrap();
        let journaled = s.journal_bytes();
        let refused = [
            s.apply_batch(&too_wide).map(|_| ()),
            s.enqueue_batch(&too_wide),
            s.apply(&too_narrow),
        ];
        for r in refused {
            let err = r.expect_err("a malformed tuple must be refused");
            assert!(
                matches!(
                    &err,
                    ivm_core::EngineError::ArityMismatch { declared: 2, .. }
                ),
                "{kind:?}: {err}"
            );
        }
        assert_eq!(s.journal_epoch(), Some(1), "{kind:?}: no epoch consumed");
        assert_eq!(s.journal_bytes(), journaled, "{kind:?}: nothing journaled");
        assert_eq!(s.output().get(&ivm_data::Tuple::empty()), 1, "{kind:?}");
        // The session keeps serving, and a restart replays only what was
        // acknowledged.
        s.apply_batch(&[Update::insert(rn, ivm_data::tup![1i64, 2i64])])
            .unwrap();
        assert_eq!(s.journal_epoch(), Some(2));
        assert_eq!(s.output().get(&ivm_data::Tuple::empty()), 2, "{kind:?}");
        drop(s);
        let mut back = Session::<i64>::builder(q.clone())
            .engine(kind)
            .recover(&dir, &Database::new())
            .unwrap();
        assert_eq!(back.journal_epoch(), Some(2));
        assert_eq!(back.output().get(&ivm_data::Tuple::empty()), 2, "{kind:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A query with more than 64 atom occurrences — here a 65-edge cycle —
/// is refused with `NotSupported` through every library entry point
/// (the multiway dataflow engine, whose delta terms are `u64` masks over
/// atoms, the sharded fleet, and `SessionBuilder::build`, whose
/// classification is), never with a panic. A fleet of zero shards is
/// refused the same way.
#[test]
fn oversized_query_is_refused_not_panicking() {
    use ivm_core::EngineError;
    let q = oversized_cycle("big_");
    let db = Database::new();
    let built = ivm::DataflowEngine::<i64>::new(q.clone(), &db, ivm_data::ops::lift_one);
    assert!(matches!(built, Err(EngineError::NotSupported(ref m)) if m.contains("64")));
    let fleet = ivm::shard::ShardedEngine::<i64>::new(q.clone(), &db, ivm_data::ops::lift_one, 2);
    assert!(matches!(fleet, Err(EngineError::NotSupported(ref m)) if m.contains("64")));
    let built = Session::<i64>::builder(q).build(&db);
    assert!(matches!(built, Err(EngineError::NotSupported(ref m)) if m.contains("64")));
    let empty_fleet = ivm::shard::ShardedEngine::<i64>::new(
        examples::triangle_count(),
        &db,
        ivm_data::ops::lift_one,
        0,
    );
    assert!(matches!(empty_fleet, Err(EngineError::NotSupported(ref m)) if m.contains("shard")));
}

/// A caller database that stores a heavy-light rotation relation at an
/// arity other than 2 is refused with `NotSupported` naming the relation
/// — never a panic (arity 1) or a silently dropped column (arity 3) — and
/// a session forcing the heavy-light engine returns that error unchanged.
#[test]
fn heavy_light_refuses_a_non_binary_base_relation() {
    let q = examples::triangle_count();
    for arity in [1usize, 3] {
        let vars: Vec<_> = (0..arity).map(|c| sym(&format!("nb_{c}"))).collect();
        let mut db = Database::<i64>::new();
        db.create(sym("tri_T"), ivm_data::Schema::new(vars));
        db.apply(&Update::with_payload(
            sym("tri_T"),
            ivm::Tuple::new((0..arity).map(|c| ivm::Value::Int(c as i64))),
            1,
        ));
        let err = ivm::HeavyLightEngine::new(q.clone(), &db, ivm_data::ops::lift_one)
            .expect_err("non-binary base relation");
        assert!(
            matches!(&err, ivm_core::EngineError::NotSupported(m)
                if m.contains("tri_T") && m.contains(&format!("arity {arity}"))),
            "{err}"
        );
        let built = Session::<i64>::builder(q.clone())
            .engine(EngineKind::HeavyLight)
            .build(&db);
        assert_eq!(built.err(), Some(err), "arity {arity}");
    }
}
