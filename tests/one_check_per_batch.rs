//! Each batch is checked against the ingestion rule once and consolidated
//! once, wherever it enters: on the five paths the `pipeline` benchmark
//! drives — `Session` over the multiway join, a durable adaptive `Session`
//! over heavy-light, a durable adaptive 2-shard `Session`, a `ServeNode`
//! with three groups, and `Session` over the eager-fact view tree. The
//! seam is the checked batch's debug-build counters, which count
//! process-wide (fleet workers included), so this binary holds one test.
#![cfg(debug_assertions)]

mod common;

use common::{mirror_db, oracle_db, outputs_match};
use ivm::{EngineKind, Maintainer, ReplanPolicy, ServeNode, Session, Update};
use ivm_core::checked::COUNTS;
use ivm_data::{sym, vars, Tuple};
use ivm_query::{examples, Atom, Query};
use std::sync::atomic::Ordering;

/// `[rule runs, consolidations]` so far.
fn counts() -> [u64; 2] {
    COUNTS.each_ref().map(|c| c.load(Ordering::Relaxed))
}

/// Eight batches over `q`'s dynamic relations, four updates each: three
/// inserts of fresh tuples and the delete of the batch's first one, so
/// each batch has something to consolidate.
fn batches(q: &Query) -> Vec<Vec<Update<i64>>> {
    let dynamic: Vec<&Atom> = q.atoms.iter().filter(|a| a.dynamic).collect();
    (0..8i64)
        .map(|k| {
            let mut batch: Vec<Update<i64>> = (0..3i64)
                .map(|i| {
                    let atom = dynamic[(k + i) as usize % dynamic.len()];
                    let values = (0..atom.schema.arity() as i64).map(|c| (k + i + c) % 5);
                    Update::insert(atom.name, Tuple::new(values.map(Into::into)))
                })
                .collect();
            batch.push(batch[0].inverse());
            batch
        })
        .collect()
}

/// Run each batch through `apply`, expecting one rule run and one
/// consolidation apiece.
fn once_each(path: &str, batches: &[Vec<Update<i64>>], mut apply: impl FnMut(&[Update<i64>])) {
    for batch in batches {
        let before = counts();
        apply(batch);
        let after = counts();
        let runs = [after[0] - before[0], after[1] - before[1]];
        assert_eq!(runs, [1, 1], "{path}: [rule runs, consolidations]");
    }
}

/// A session over `q` on `kind`, fed `q`'s batches and checked against
/// the oracle at the end.
fn session_path(path: &str, q: &Query, mut session: Session<i64>, kind: EngineKind) {
    assert_eq!(session.engine_kind(), kind, "{path}");
    let batches = batches(q);
    once_each(path, &batches, |b| {
        session.apply_batch(b).unwrap();
    });
    let mut base = mirror_db(q);
    batches.iter().for_each(|b| base.apply_batch(b));
    outputs_match(&session.output(), &oracle_db(q, &base), path).unwrap();
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ivm-once-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_path_checks_and_consolidates_each_batch_once() {
    // Session → the multiway join: a self-join triangle.
    let tri = common::triangle("once_");
    let session = Session::builder(tri.clone()).build(&mirror_db(&tri));
    session_path(
        "Session→Dataflow",
        &tri,
        session.unwrap(),
        EngineKind::DataflowMultiway,
    );

    // Durable adaptive session → heavy-light.
    let count = examples::triangle_count();
    let dir = scratch("hl");
    let session = Session::builder(count.clone())
        .durable(&dir)
        .adaptive(ReplanPolicy::default())
        .build(&mirror_db(&count));
    session_path(
        "durable adaptive Session→HeavyLight",
        &count,
        session.unwrap(),
        EngineKind::HeavyLight,
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Durable adaptive 2-shard session over the retailer join.
    let (retailer, _) = examples::retailer_query();
    let dir = scratch("fleet");
    let session = Session::builder(retailer.clone())
        .shards(2)
        .durable(&dir)
        .adaptive(ReplanPolicy::default())
        .build(&mirror_db(&retailer));
    session_path(
        "durable adaptive 2-shard Session",
        &retailer,
        session.unwrap(),
        EngineKind::Sharded,
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Session → the eager-fact view tree.
    let fig3 = examples::fig3_query();
    let session = Session::builder(fig3.clone()).build(&mirror_db(&fig3));
    session_path(
        "Session→EagerFact",
        &fig3,
        session.unwrap(),
        EngineKind::EagerFact,
    );

    // A serve node with three groups over one edge relation.
    let [a, b, c] = vars(["once_sA", "once_sB", "once_sC"]);
    let e = sym("once_sE");
    let queries = [
        Query::new("once_edges", [a, b], vec![Atom::new(e, [a, b])]),
        Query::new(
            "once_paths",
            [a, c],
            vec![Atom::new(e, [a, b]), Atom::new(e, [b, c])],
        ),
        Query::new(
            "once_triangles",
            [],
            vec![
                Atom::new(e, [a, b]),
                Atom::new(e, [b, c]),
                Atom::new(e, [c, a]),
            ],
        ),
    ];
    let mut node = ServeNode::<i64>::new();
    let mut subs: Vec<_> = queries
        .iter()
        .map(|q| node.subscribe(q.clone()).unwrap())
        .collect();
    assert_eq!(node.group_count(), 3);
    let batches = batches(&queries[0]);
    once_each("ServeNode, 3 groups", &batches, |batch| {
        node.apply_batch(batch).unwrap();
    });
    let mut base = mirror_db(&queries[0]);
    batches.iter().for_each(|b| base.apply_batch(b));
    for (q, sub) in queries.iter().zip(&mut subs) {
        assert_eq!(sub.drain_pending().len(), batches.len(), "{}", q.name);
        let view = node.view(sub.id()).unwrap();
        outputs_match(&view, &oracle_db(q, &base), "ServeNode").unwrap();
    }
}
