//! Serving-layer equivalence harness: a [`ServeNode`] fanning one ingest
//! stream out to N subscribers must be observationally identical to N
//! *independent* [`Session`]s, each fed the same stream filtered to its
//! own query's relations.
//!
//! Each proptest case draws a set of subscribers from a small query
//! catalog — the self-join triangle, an α-renamed *and* atom-rotated
//! copy of it (these two must dedup onto one engine), the 4-cycle, and
//! the all-free star — plus a mixed-sign duplicate-heavy update stream,
//! a chunking, a mid-stream subscribe point, and an unsubscribe point.
//! After every batch, for every live subscriber:
//!
//! * the pushed [`ViewDelta`] equals the delta the subscriber's private
//!   reference session returns for the same filtered batch,
//! * exactly one delivery arrived this epoch (empty deltas included),
//!   stamped with the right epoch number,
//! * [`ServeNode::view`] equals the reference session's full output,
//!
//! and structurally: the live group count equals the number of distinct
//! *canonical* queries among live subscribers (dedup neither merges two
//! different views nor splits one), a mid-stream subscriber's first
//! snapshot equals a fresh session built over the current base, and an
//! unsubscribed id is gone without perturbing anyone else. The reference
//! sessions are built *without* shared stores, so the comparison is
//! precisely "fabric vs N independent engines".
//!
//! Every other batch is cut down to one catalog query's relations, so the
//! other groups are provably untouched that epoch: they must still hear
//! exactly one — empty — delta with the right epoch stamp.
//!
//! Shapes, stream strategies, and the comparison helper live in
//! `tests/common`.

mod common;

use common::{edge_ops, four_cycle, outputs_match, oversized_cycle, star, triangle, EdgeOp};
use ivm_core::Maintainer;
use ivm_data::{sym, tup, Database, Sym, Update};
use ivm_query::{Atom, Query};
use ivm_serve::{ServeNode, Subscription};
use ivm_session::Session;
use proptest::prelude::*;
use std::cell::Cell;
use std::rc::Rc;

/// An α-renamed, atom-rotated triangle over the *same* relation as
/// `triangle("sv_")` — canonically equal, so it must share that engine.
fn renamed_triangle() -> Query {
    let [x, y, z] = ivm_data::vars(["sv_RX", "sv_RY", "sv_RZ"]);
    let e = sym("sv_E");
    Query::new(
        "sv_tri_renamed",
        [],
        vec![
            Atom::new(e, [y, z]),
            Atom::new(e, [z, x]),
            Atom::new(e, [x, y]),
        ],
    )
}

/// The subscriber catalog. Entries 0 and 1 canonicalize identically
/// (one dedup class); 2 and 3 are their own classes.
fn catalog(i: usize) -> Query {
    match i % 4 {
        0 => triangle("sv_"),
        1 => renamed_triangle(),
        2 => four_cycle("sv_"),
        _ => star("sv_"),
    }
}

/// Dedup class of catalog entry `i` (0 and 1 are isomorphic).
fn dedup_class(i: usize) -> usize {
    match i % 4 {
        0 | 1 => 0,
        k => k - 1,
    }
}

/// Every relation any catalog query mentions, in op-slot order.
fn all_relations() -> Vec<Sym> {
    [
        "sv_E", "sv_4R", "sv_4S", "sv_4T", "sv_4U", "sv_SR", "sv_SS", "sv_ST",
    ]
    .map(sym)
    .to_vec()
}

/// One live subscriber under test: the node-side subscription paired
/// with its independent reference session.
struct Pair {
    sub: Subscription<i64>,
    reference: Session<i64>,
    rels: Vec<Sym>,
    class: usize,
}

/// Subscribe `catalog(pick)` on the node and stand up the matching
/// reference session over `mirror` (the node base's exact mirror).
fn subscribe_pair(node: &mut ServeNode<i64>, mirror: &mut Database<i64>, pick: usize) -> Pair {
    let q = catalog(pick);
    // Mirror the node's create-on-first-mention so both sides always
    // hold identical base state for this query's relations.
    for atom in &q.atoms {
        if mirror.get(atom.name).is_none() {
            mirror.create(atom.name, atom.schema.clone());
        }
    }
    let rels: Vec<Sym> = q.atoms.iter().map(|a| a.name).collect();
    let reference = Session::<i64>::builder(q.clone()).build(mirror).unwrap();
    let sub = node.subscribe(q).unwrap();
    Pair {
        sub,
        reference,
        rels,
        class: dedup_class(pick),
    }
}

/// The number of engine groups the live pairs should occupy.
fn expected_groups(pairs: &[Pair]) -> usize {
    let mut classes: Vec<usize> = pairs.iter().map(|p| p.class).collect();
    classes.sort_unstable();
    classes.dedup();
    classes.len()
}

fn check_fabric(
    subs: &[usize],
    ops: &[EdgeOp],
    chunk: usize,
    mid_pick: usize,
    mid_at: usize,
    unsub_at: usize,
    focus: usize,
) -> Result<(), TestCaseError> {
    let rels = all_relations();
    let focus_rels: Vec<Sym> = catalog(focus).atoms.iter().map(|a| a.name).collect();
    let updates: Vec<Update<i64>> = ops
        .iter()
        .filter(|(_, _, m)| *m != 0)
        .map(|&(ri, (x, y), m)| Update::with_payload(rels[ri % rels.len()], tup![x, y], m))
        .collect();

    let mut node = ServeNode::<i64>::new();
    let mut mirror = Database::<i64>::new();
    // Relations some subscriber's query has declared on the node. The
    // node atomically rejects updates to anything else, so the driver —
    // like any real ingest frontend — sends only declared relations.
    let mut known: ivm_data::FxHashSet<Sym> = Default::default();
    let mut pairs: Vec<Pair> = subs
        .iter()
        .map(|&pick| subscribe_pair(&mut node, &mut mirror, pick))
        .collect();
    for p in &pairs {
        known.extend(p.rels.iter().copied());
    }
    prop_assert_eq!(node.subscriber_count(), pairs.len());
    prop_assert_eq!(node.group_count(), expected_groups(&pairs));

    let mut epoch = 0u64;
    for (batch_no, raw_batch) in updates.chunks(chunk.max(1)).enumerate() {
        if batch_no == mid_at {
            // Mid-stream registration: the newcomer snapshots the
            // current base and receives deltas from the next epoch on.
            let mut p = subscribe_pair(&mut node, &mut mirror, mid_pick);
            known.extend(p.rels.iter().copied());
            let expect = p.reference.output();
            outputs_match(
                &node.view(p.sub.id()).expect("just subscribed"),
                &expect,
                "mid-stream initial snapshot",
            )?;
            pairs.push(p);
            prop_assert_eq!(node.group_count(), expected_groups(&pairs));
        }
        if batch_no == unsub_at && !pairs.is_empty() {
            let p = pairs.remove(0);
            let id = p.sub.id();
            prop_assert!(node.unsubscribe(id), "first unsubscribe succeeds");
            prop_assert!(!node.is_subscribed(id));
            prop_assert!(!node.unsubscribe(id), "second unsubscribe is a no-op");
            prop_assert!(node.view(id).is_none());
            prop_assert_eq!(node.subscriber_count(), pairs.len());
            prop_assert_eq!(node.group_count(), expected_groups(&pairs));
        }

        // Odd batches feed only the focus query's relations: every group
        // over other relations is untouched that epoch.
        let batch: Vec<Update<i64>> = raw_batch
            .iter()
            .filter(|u| known.contains(&u.relation))
            .filter(|u| batch_no % 2 == 0 || focus_rels.contains(&u.relation))
            .cloned()
            .collect();
        node.apply_batch(&batch).unwrap();
        mirror.apply_batch(&batch);

        for p in &mut pairs {
            // The reference session sees the same stream filtered to its
            // own query's relations — exactly what "an independent
            // session over this view" would ingest.
            let filtered: Vec<Update<i64>> = batch
                .iter()
                .filter(|u| p.rels.contains(&u.relation))
                .cloned()
                .collect();
            let expect_delta = p.reference.apply_batch(&filtered).unwrap();
            let vd = p.sub.try_next();
            let Some(vd) = vd else {
                return Err(TestCaseError::fail(format!(
                    "subscriber {} missed its epoch-{epoch} delivery",
                    p.sub.id()
                )));
            };
            prop_assert_eq!(vd.epoch, epoch, "epoch stamp");
            prop_assert!(
                p.sub.try_next().is_none(),
                "more than one delivery in one epoch"
            );
            if filtered.is_empty() {
                prop_assert!(
                    vd.delta.is_empty(),
                    "subscriber {} of an untouched group heard a non-empty delta",
                    p.sub.id()
                );
            }
            outputs_match(
                &vd.delta,
                &expect_delta,
                &format!("delta of subscriber {} at epoch {epoch}", p.sub.id()),
            )?;
            let got_view = node.view(p.sub.id()).expect("subscriber is live");
            outputs_match(
                &got_view,
                &p.reference.output(),
                &format!("view of subscriber {} at epoch {epoch}", p.sub.id()),
            )?;
        }
        epoch += 1;
    }
    prop_assert_eq!(node.epoch(), epoch);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// N subscribers (duplicates and α-renamed queries included) over
    /// one shared node ≡ N independent sessions over the same filtered
    /// stream, at every batch boundary, with one subscriber joining and
    /// one leaving mid-stream at generated points.
    #[test]
    fn serve_node_matches_independent_sessions(
        subs in proptest::collection::vec(0usize..4, 1..5),
        ops in edge_ops(8, 4, 0..48),
        chunk in 1usize..9,
        // (mid-stream pick, focus query of the one-group batches)
        picks in (0usize..4, 0usize..4),
        mid_at in 0usize..4,
        unsub_at in 0usize..6,
    ) {
        let (mid_pick, focus) = picks;
        check_fabric(&subs, &ops, chunk, mid_pick, mid_at, unsub_at, focus)?;
    }
}

/// Deterministic dedup + shared-store acceptance: the triangle *count*
/// and the triangle *listing* are different views (different free sets →
/// different canonical keys → two groups) over the same base relation,
/// so their multiway engines share one `sv_E` trie store through the
/// hub — and both still match independent sessions exactly.
#[test]
fn two_views_one_relation_share_state_and_stay_correct() {
    let e = sym("sv_E");
    let count = triangle("sv_");
    let [a, b, c] = ivm_data::vars(["sv_LA", "sv_LB", "sv_LC"]);
    let listing = Query::new(
        "sv_tri_listing",
        [a, b, c],
        vec![
            Atom::new(e, [a, b]),
            Atom::new(e, [b, c]),
            Atom::new(e, [c, a]),
        ],
    );

    let mut node = ServeNode::<i64>::new();
    let mut sub_count = node.subscribe(count.clone()).unwrap();
    let mut sub_listing = node.subscribe(listing.clone()).unwrap();
    assert_eq!(node.group_count(), 2, "different free sets never dedup");

    let mut mirror = Database::<i64>::new();
    mirror.create(e, count.atoms[0].schema.clone());
    let mut ref_count = Session::<i64>::builder(count).build(&mirror).unwrap();
    let mut ref_listing = Session::<i64>::builder(listing).build(&mirror).unwrap();

    let stream: Vec<Update<i64>> = (0..30u64)
        .map(|i| {
            let (x, y) = (i % 5, (i * 3 + 1) % 5);
            Update::with_payload(e, tup![x, y], if i % 7 == 0 { -1 } else { 1 })
        })
        .collect();
    for batch in stream.chunks(6) {
        node.apply_batch(batch).unwrap();
        mirror.apply_batch(batch);
        let d_count = ref_count.apply_batch(batch).unwrap();
        let d_listing = ref_listing.apply_batch(batch).unwrap();
        let vd_count = sub_count.try_next().expect("count delivery");
        let vd_listing = sub_listing.try_next().expect("listing delivery");
        assert_eq!(vd_count.delta.len(), d_count.len());
        for (t, p) in d_count.iter() {
            assert_eq!(&vd_count.delta.get(t), p, "count delta at {t:?}");
        }
        assert_eq!(vd_listing.delta.len(), d_listing.len());
        for (t, p) in d_listing.iter() {
            assert_eq!(&vd_listing.delta.get(t), p, "listing delta at {t:?}");
        }
    }

    // The fabric's census: sv_E lives once in the base and once in the
    // hub-shared trie store; two private sessions each hold their own
    // engine copy on top of their own base.
    let independent = mirror.size() * 2
        + ref_count.resident_tuples().unwrap_or(0)
        + ref_listing.resident_tuples().unwrap_or(0);
    assert!(
        node.resident_tuples() < independent,
        "shared fabric ({}) must be smaller than independent sessions ({})",
        node.resident_tuples(),
        independent
    );
}

/// Rejection is atomic for malformed tuples too: an update whose arity
/// differs from the relation's declared schema refuses the whole batch
/// — well-formed updates ahead of it included — before the base, any
/// engine, any subscriber's queue or the epoch moves.
#[test]
fn malformed_tuple_refuses_the_whole_batch_and_touches_nothing() {
    let tri = triangle("svm_");
    let cyc = four_cycle("svm_");
    let (e, r4) = (sym("svm_E"), sym("svm_4R"));

    let mut node = ServeNode::<i64>::new();
    let mut tri_sub = node.subscribe(tri).unwrap();
    let mut cyc_sub = node.subscribe_bounded(cyc.clone(), 4).unwrap();
    let calls = Rc::new(Cell::new(0u32));
    let seen = Rc::clone(&calls);
    let cb = node
        .subscribe_with(cyc, move |_| seen.set(seen.get() + 1))
        .unwrap();

    let good = [
        Update::insert(e, tup![1i64, 2i64]),
        Update::insert(e, tup![2i64, 3i64]),
        Update::insert(e, tup![3i64, 1i64]),
        Update::insert(r4, tup![1i64, 2i64]),
    ];
    node.apply_batch(&good).unwrap();
    assert!(tri_sub.try_next().is_some() && cyc_sub.try_next().is_some());
    let ids = [tri_sub.id(), cyc_sub.id(), cb];
    let views: Vec<_> = ids.iter().map(|&id| node.view(id).unwrap()).collect();
    let resident = node.resident_tuples();

    for bad in [tup![4i64, 5i64, 6i64], tup![4i64]] {
        let batch = [
            Update::insert(e, tup![3i64, 4i64]),
            Update::insert(r4, bad),
            Update::insert(e, tup![4i64, 1i64]),
        ];
        let err = node.apply_batch(&batch).unwrap_err();
        assert!(
            matches!(&err, ivm_core::EngineError::ArityMismatch { relation, declared: 2, .. }
                if *relation == r4),
            "{err}"
        );
        assert_eq!(node.epoch(), 1, "a refused batch is not an epoch");
        assert!(tri_sub.try_next().is_none() && cyc_sub.try_next().is_none());
        assert_eq!(calls.get(), 1, "no callback ran for the refused batch");
        assert_eq!(node.resident_tuples(), resident);
        for (&id, before) in ids.iter().zip(&views) {
            let after = node.view(id).unwrap();
            outputs_match(&after, before, "view after a refused batch").unwrap();
        }
    }

    // The node carries on: the next well-formed batch is epoch 1.
    node.apply_batch(&[Update::insert(e, tup![3i64, 4i64])])
        .unwrap();
    assert_eq!(tri_sub.try_next().map(|vd| vd.epoch), Some(1));
    assert_eq!(cyc_sub.try_next().map(|vd| vd.epoch), Some(1));
    assert_eq!(calls.get(), 2);
}

/// A refused subscribe leaves the shared base as it found it: a 65-atom
/// query is refused with `NotSupported`, its relation stays undeclared
/// (so an update to it is refused with `UnknownRelation`), and the
/// resident footprint does not move.
#[test]
fn refused_subscribe_declares_no_relation() {
    let mut node = ServeNode::<i64>::new();
    let _tri = node.subscribe(triangle("svr_")).unwrap();
    node.apply_batch(&[Update::insert(sym("svr_E"), tup![1i64, 2i64])])
        .unwrap();
    let resident = node.resident_tuples();

    let Err(err) = node.subscribe(oversized_cycle("svrbig_")) else {
        panic!("a 65-atom query must be refused");
    };
    assert!(
        matches!(&err, ivm_core::EngineError::NotSupported(m) if m.contains("64")),
        "{err}"
    );
    let big = sym("svrbig_E");
    let err = node
        .apply_batch(&[Update::insert(big, tup![1i64, 2i64])])
        .unwrap_err();
    assert_eq!(err, ivm_core::EngineError::UnknownRelation(big));
    assert_eq!(node.resident_tuples(), resident);
}
