//! One ingestion rule for every entry point: an update must name a
//! relation of the query, dynamic in some atom (Sec. 4.5), with a tuple of
//! that atom's arity. Every engine, a durable `Session` and a `ServeNode`
//! refuse a batch that breaks it — with the same `EngineError` variant,
//! before any state moves — however the bad update is placed: here each
//! one rides behind a valid update of the same batch. The refused batch
//! leaves the output as it was, and the next valid batch is maintained
//! exactly (checked against a from-scratch oracle).

mod common;

use common::{mirror_db, oracle_db, outputs_match};
use ivm::{
    Database, DataflowEngine, HeavyLightEngine, Maintainer, ServeNode, Session, ShardedEngine,
    Update,
};
use ivm_core::cqap::CqapEngine;
use ivm_core::fd::FdEngine;
use ivm_core::{EagerFactEngine, EagerListEngine, EngineError, LazyFactEngine, LazyListEngine};
use ivm_data::ops::lift_one;
use ivm_data::{sym, tup, vars, Sym};
use ivm_query::{examples, Atom, Query};

/// A bad update and the error it must draw.
type Case = (Update<i64>, EngineError);

/// The refusals every query gets on its binary dynamic relation `rel`:
/// an arity-1 tuple, an arity-3 tuple and an unknown relation — plus an
/// update to `static_rel` (unary) where the query has a static atom.
fn cases(rel: Sym, static_rel: Option<Sym>) -> Vec<Case> {
    let arity = |got| EngineError::ArityMismatch {
        relation: rel,
        declared: 2,
        got,
    };
    let nope = sym("ir_Nope");
    let mut cases = vec![
        (Update::insert(rel, tup![7i64]), arity(1)),
        (Update::insert(rel, tup![7i64, 8i64, 9i64]), arity(3)),
        (
            Update::insert(nope, tup![7i64, 8i64]),
            EngineError::UnknownRelation(nope),
        ),
    ];
    if let Some(s) = static_rel {
        cases.push((
            Update::insert(s, tup![3i64]),
            EngineError::StaticRelation(s),
        ));
    }
    cases
}

/// Per case: a batch of `good(k)`'s first update and the bad one is
/// refused with the expected error and changes no output; then the valid
/// batch `good(k)` is accepted, and the output equals the oracle over
/// `base` with every accepted batch applied.
fn refuses_whole_batches(
    name: &str,
    eng: &mut dyn Maintainer<i64>,
    q: &Query,
    base: &mut Database<i64>,
    good: &dyn Fn(i64) -> Vec<Update<i64>>,
    cases: &[Case],
) {
    for (k, (bad, want)) in (0i64..).zip(cases) {
        let before = eng.output();
        let batch = [good(k)[0].clone(), bad.clone()];
        let got = eng.apply_batch(&batch).map(|_| ());
        assert_eq!(got, Err(want.clone()), "{name}: {bad:?}");
        outputs_match(&eng.output(), &before, &format!("{name} after {bad:?}")).unwrap();

        let next = good(k);
        if let Err(e) = eng.apply_batch(&next) {
            panic!("{name}: the batch after {bad:?} was refused: {e}");
        }
        base.apply_batch(&next);
        let expect = oracle_db(q, base);
        outputs_match(&eng.output(), &expect, &format!("{name} next to {bad:?}")).unwrap();
    }
}

/// `Q(A, B) = R(A, B) · S(A)` with `S` static, preloaded with `S = {1, 2}`;
/// and `P(A, B) = R(A, B) · T(B)`, all dynamic, sharing `R`.
fn mixed_and_dynamic() -> (Query, Query, Database<i64>) {
    let [a, b] = vars(["ir_A", "ir_B"]);
    let (r, s, t) = (sym("ir_R"), sym("ir_S"), sym("ir_T"));
    let mixed = Query::new(
        "ir_mixed",
        [a, b],
        vec![Atom::new(r, [a, b]), Atom::new_static(s, [a])],
    );
    let dynamic = Query::new(
        "ir_dynamic",
        [a, b],
        vec![Atom::new(r, [a, b]), Atom::new(t, [b])],
    );
    let mut db = mirror_db(&mixed);
    db.apply_batch(&[Update::insert(s, tup![1i64]), Update::insert(s, tup![2i64])]);
    (mixed, dynamic, db)
}

#[test]
fn every_entry_point_refuses_a_bad_batch_whole() {
    let (mixed, dynamic, db) = mixed_and_dynamic();
    let (r, s, t) = (sym("ir_R"), sym("ir_S"), sym("ir_T"));
    let mixed_cases = cases(r, Some(s));
    let into_s = |k: i64| vec![Update::insert(r, tup![1 + k % 2, 10 + k])];

    // The engines over the query with a static atom.
    let engines: Vec<(&str, Box<dyn Maintainer<i64>>)> = vec![
        (
            "DataflowEngine",
            Box::new(DataflowEngine::new(mixed.clone(), &db, lift_one).unwrap()),
        ),
        (
            "ShardedEngine",
            Box::new(ShardedEngine::new(mixed.clone(), &db, lift_one, 2).unwrap()),
        ),
        (
            "EagerFact",
            Box::new(EagerFactEngine::new(mixed.clone(), &db, lift_one).unwrap()),
        ),
        (
            "EagerList",
            Box::new(EagerListEngine::new(mixed.clone(), &db, lift_one).unwrap()),
        ),
        (
            "LazyFact",
            Box::new(LazyFactEngine::new(mixed.clone(), &db, lift_one).unwrap()),
        ),
        (
            "LazyList",
            Box::new(LazyListEngine::new(mixed.clone(), &db, lift_one).unwrap()),
        ),
        (
            "Fd",
            Box::new(FdEngine::new(mixed.clone(), &[], &db, lift_one).unwrap()),
        ),
    ];
    for (name, mut eng) in engines {
        let mut base = db.clone();
        refuses_whole_batches(name, eng.as_mut(), &mixed, &mut base, &into_s, &mixed_cases);
    }

    // Heavy-light: the triangle count, all dynamic.
    let tri = examples::triangle_count();
    let (tr, ts, tt) = (sym("tri_R"), sym("tri_S"), sym("tri_T"));
    let triangle = |k: i64| {
        let (x, y, z) = (10 * k, 10 * k + 1, 10 * k + 2);
        vec![
            Update::insert(tr, tup![x, y]),
            Update::insert(ts, tup![y, z]),
            Update::insert(tt, tup![z, x]),
        ]
    };
    let mut base = mirror_db(&tri);
    let mut hl = HeavyLightEngine::new(tri.clone(), &base, lift_one).unwrap();
    refuses_whole_batches(
        "HeavyLight",
        &mut hl,
        &tri,
        &mut base,
        &triangle,
        &cases(tr, None),
    );

    // CQAP: `Q(B | A) = S(A, B) · T(B)`, all dynamic.
    let lookup = examples::lookup_cqap();
    let (ls, lt) = (sym("lk_S"), sym("lk_T"));
    let lookups = |k: i64| {
        vec![
            Update::insert(ls, tup![k, k % 3]),
            Update::insert(lt, tup![k % 3]),
        ]
    };
    let mut base = mirror_db(&lookup);
    let mut cqap = CqapEngine::new(lookup.clone(), lift_one).unwrap();
    refuses_whole_batches(
        "Cqap",
        &mut cqap,
        &lookup,
        &mut base,
        &lookups,
        &cases(ls, None),
    );

    // A durable session: a refused batch reaches neither the journal nor
    // the base, so only the accepted batches consume epochs.
    let dir = std::env::temp_dir().join(format!("ivm-ir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut session = Session::<i64>::builder(mixed.clone())
        .durable(&dir)
        .build(&db)
        .unwrap();
    let mut base = db.clone();
    refuses_whole_batches(
        "Session",
        &mut session,
        &mixed,
        &mut base,
        &into_s,
        &mixed_cases,
    );
    assert_eq!(session.journal_epoch(), Some(mixed_cases.len() as u64));
    drop(session);
    let _ = std::fs::remove_dir_all(&dir);

    // A serve node with one group per query: a refused batch is no epoch,
    // reaches no subscriber and moves no view.
    let mut node = ServeNode::<i64>::new();
    let mut subs = [
        node.subscribe(mixed.clone()).unwrap(),
        node.subscribe(dynamic.clone()).unwrap(),
    ];
    let into_t = |k: i64| {
        vec![
            Update::insert(r, tup![k, 20 + k % 2]),
            Update::insert(t, tup![20 + k % 2]),
        ]
    };
    let mut base = mirror_db(&dynamic);
    for (k, (bad, want)) in (0i64..).zip(&mixed_cases) {
        let views: Vec<_> = subs
            .iter()
            .map(|sub| node.view(sub.id()).unwrap())
            .collect();
        let batch = [into_t(k)[0].clone(), bad.clone()];
        assert_eq!(
            node.apply_batch(&batch),
            Err(want.clone()),
            "ServeNode: {bad:?}"
        );
        assert_eq!(node.epoch(), k as u64, "a refused batch is no epoch");
        for (sub, before) in subs.iter_mut().zip(&views) {
            assert!(sub.try_next().is_none(), "ServeNode delivered {bad:?}");
            let after = node.view(sub.id()).unwrap();
            outputs_match(&after, before, &format!("ServeNode after {bad:?}")).unwrap();
        }

        let next = into_t(k);
        node.apply_batch(&next).unwrap();
        base.apply_batch(&next);
        for sub in &mut subs {
            assert_eq!(sub.try_next().map(|vd| vd.epoch), Some(k as u64));
        }
        let got = node.view(subs[1].id()).unwrap();
        outputs_match(&got, &oracle_db(&dynamic, &base), "ServeNode next").unwrap();
    }
}

/// One relation has one arity. A query that names `E` at two arities is
/// refused before any engine is built; a serve node keeps the arity its
/// base first declared, so a subscription that disagrees is refused and
/// the node serves on unchanged.
#[test]
fn a_relation_at_two_arities_is_refused_before_anything_is_built() {
    let [a, b, c] = vars(["ar_A", "ar_B", "ar_C"]);
    let e = sym("ar_E");
    let pairs = Query::new("ar_pairs", [a, b], vec![Atom::new(e, [a, b])]);
    let triples = Query::new("ar_triples", [a, b, c], vec![Atom::new(e, [a, b, c])]);
    let both = Query::new(
        "ar_both",
        [],
        vec![Atom::new(e, [a, b]), Atom::new(e, [a, b, c])],
    );
    let not_supported = |r: Result<(), EngineError>| matches!(r, Err(EngineError::NotSupported(_)));
    let empty = Database::new();
    assert!(not_supported(
        Session::<i64>::builder(both.clone())
            .build(&empty)
            .map(|_| ())
    ));
    assert!(not_supported(
        DataflowEngine::<i64>::new(both.clone(), &empty, lift_one).map(|_| ())
    ));
    let mut node = ServeNode::<i64>::new();
    assert!(not_supported(node.subscribe(both).map(|_| ())));

    let mut sub = node.subscribe(pairs.clone()).unwrap();
    let wider = EngineError::ArityMismatch {
        relation: e,
        declared: 2,
        got: 3,
    };
    assert_eq!(node.subscribe(triples).map(|_| ()).unwrap_err(), wider);
    assert_eq!((node.group_count(), node.subscriber_count()), (1, 1));
    let wide = [Update::insert(e, tup![1i64, 2i64, 3i64])];
    assert_eq!(node.apply_batch(&wide), Err(wider));
    assert_eq!(node.epoch(), 0);
    node.apply_batch(&[Update::insert(e, tup![1i64, 2i64])])
        .unwrap();
    assert_eq!(sub.drain_pending().len(), 1);
    assert_eq!(node.view(sub.id()).unwrap().get(&tup![1i64, 2i64]), 1);
}

/// A serve node with three groups over a shared relation refuses a bad
/// batch whole: every group's view, the node's resident tuples and its
/// epoch stay as they were, and no subscriber hears anything. The next
/// valid batch reaches every subscriber exactly once.
#[test]
fn a_refused_serve_batch_moves_no_group() {
    let [a, b, c] = vars(["sa_A", "sa_B", "sa_C"]);
    let (e, f) = (sym("sa_E"), sym("sa_F"));
    let queries = [
        Query::new("sa_edges", [a, b], vec![Atom::new(e, [a, b])]),
        Query::new(
            "sa_paths",
            [a, c],
            vec![Atom::new(e, [a, b]), Atom::new(e, [b, c])],
        ),
        Query::new(
            "sa_marked",
            [a, b],
            vec![Atom::new(e, [a, b]), Atom::new(f, [b])],
        ),
    ];
    let mut node = ServeNode::<i64>::new();
    // Two subscribers on the first view: one group, two deliveries.
    let mut subs: Vec<_> = queries
        .iter()
        .chain(&queries[..1])
        .map(|q| node.subscribe(q.clone()).unwrap())
        .collect();
    assert_eq!(node.group_count(), 3);
    let good = |k: i64| {
        vec![
            Update::insert(e, tup![k, k + 1]),
            Update::insert(e, tup![k + 1, k + 2]),
            Update::insert(f, tup![k + 1]),
        ]
    };
    let nope = sym("sa_Nope");
    let bad = [
        (
            Update::insert(e, tup![1i64]),
            EngineError::ArityMismatch {
                relation: e,
                declared: 2,
                got: 1,
            },
        ),
        (
            Update::insert(f, tup![1i64, 2i64]),
            EngineError::ArityMismatch {
                relation: f,
                declared: 1,
                got: 2,
            },
        ),
        (
            Update::insert(nope, tup![1i64]),
            EngineError::UnknownRelation(nope),
        ),
    ];
    let mut base = mirror_db(&queries[2]);
    for (k, (bad, want)) in (0i64..).zip(bad) {
        let views: Vec<_> = subs.iter().map(|s| node.view(s.id()).unwrap()).collect();
        let (resident, epoch) = (node.resident_tuples(), node.epoch());
        let mut batch = good(10 * k);
        batch.insert(1, bad.clone());
        assert_eq!(node.apply_batch(&batch), Err(want), "{bad:?}");
        assert_eq!((node.resident_tuples(), node.epoch()), (resident, epoch));
        for (sub, before) in subs.iter_mut().zip(&views) {
            assert!(sub.try_next().is_none(), "a delivery for {bad:?}");
            let after = node.view(sub.id()).unwrap();
            outputs_match(&after, before, &format!("after {bad:?}")).unwrap();
        }

        let next = good(10 * k);
        node.apply_batch(&next).unwrap();
        base.apply_batch(&next);
        for (sub, q) in subs.iter_mut().zip(queries.iter().chain(&queries[..1])) {
            let epochs: Vec<u64> = sub.drain_pending().iter().map(|vd| vd.epoch).collect();
            assert_eq!(epochs, [epoch], "{}", q.name);
            let view = node.view(sub.id()).unwrap();
            outputs_match(&view, &oracle_db(q, &base), &q.name.to_string()).unwrap();
        }
    }
}
