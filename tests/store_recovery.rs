//! Crash-consistency and kill-and-recover acceptance for `ivm-store`.
//!
//! Two layers of evidence that durable sessions survive a kill:
//!
//! 1. **Journal-level crash consistency** — for *every* byte offset
//!    inside the final record of a committed journal, and for every
//!    single-byte corruption of that record, replay stops deterministically
//!    at the last valid record. It never panics and never invents data.
//!
//! 2. **Session-level equivalence** — a session that is killed at an
//!    arbitrary point of a generated update stream (with a snapshot taken
//!    at an arbitrary earlier point) and then recovered must, after the
//!    rest of the stream, agree tuple-for-tuple with a never-killed
//!    oracle that saw the same stream. Warm restarts must come back on
//!    the pre-kill plan without a blind-build first-data replan.
//!
//! Shapes, stream strategies, and the oracle live in `tests/common`.

mod common;

use common::{
    clamped_updates, edge_ops_default, edge_updates, mirror_db, oracle_db, outputs_match, star,
    triangle, triangle3, wide_ops,
};
use ivm::{Database, EngineKind, Maintainer, Session, Update};
use ivm_data::{sym, tup};
use ivm_dataflow::{ReplanPolicy, ReplanTrigger};
use ivm_obs::MetricsRegistry;
use ivm_query::{Atom, Query};
use ivm_store::Journal;
use ivm_workloads::RetailerGen;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh scratch directory per call — proptest cases in one process
/// must not share journal files.
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ivm-recov-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------
// 1. Journal-level crash consistency
// ---------------------------------------------------------------------

/// Truncate a committed journal at every byte offset inside its final
/// record: replay must return exactly the earlier records, report the
/// torn tail, and hand back a `valid_bytes` that resumes cleanly.
#[test]
fn replay_stops_at_every_truncation_offset_of_the_final_record() {
    let dir = scratch("trunc");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.ivm");
    let e = sym("srj_E");
    let batch = |i: i64| {
        vec![
            Update::<i64>::with_payload(e, tup![i, i + 1], 1),
            Update::<i64>::with_payload(e, tup![i + 1, i], -2),
        ]
    };

    let mut journal = Journal::create(&path).unwrap();
    for epoch in 1..=3u64 {
        journal.append(epoch, &batch(epoch as i64)).unwrap();
    }
    journal.commit().unwrap();
    let keep = journal.committed_bytes();
    journal.append(4, &batch(4)).unwrap();
    journal.commit().unwrap();
    let full = journal.committed_bytes();
    drop(journal);
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len() as u64, full);

    // Sanity: the intact journal replays all four records.
    let whole = Journal::replay::<i64>(&path).unwrap();
    assert_eq!(whole.records.len(), 4);
    assert!(whole.torn.is_none());
    assert_eq!(whole.records[3], (4, batch(4)));

    for cut in keep..full {
        let torn_path = dir.join("torn.ivm");
        std::fs::write(&torn_path, &bytes[..cut as usize]).unwrap();
        let replay = Journal::replay::<i64>(&torn_path).unwrap();
        assert_eq!(
            replay.records.len(),
            3,
            "cut at byte {cut} of {full} must keep exactly the 3 committed records"
        );
        assert_eq!(replay.valid_bytes, keep, "cut at byte {cut}");
        assert!(
            cut == keep || replay.torn.is_some(),
            "a strictly partial final record (cut {cut}) must be reported torn"
        );
        // The replayed prefix is byte-identical history, not a best guess.
        for (i, (epoch, b)) in replay.records.iter().enumerate() {
            assert_eq!(*epoch, i as u64 + 1);
            assert_eq!(b, &batch(*epoch as i64));
        }
        // `valid_bytes` resumes: re-open there and append record 4 again.
        let mut resumed = Journal::open_at(&torn_path, replay.valid_bytes).unwrap();
        resumed.append(4, &batch(4)).unwrap();
        resumed.commit().unwrap();
        drop(resumed);
        let healed = Journal::replay::<i64>(&torn_path).unwrap();
        assert_eq!(healed.records.len(), 4, "resume after cut {cut}");
        assert!(healed.torn.is_none());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flip every single byte of the final record in turn: CRC (or the
/// length prefix) must reject it, replay keeps the earlier records, and
/// nothing panics.
#[test]
fn replay_rejects_every_single_byte_corruption_of_the_final_record() {
    let dir = scratch("flip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.ivm");
    let e = sym("srf_E");
    let batch: Vec<Update<i64>> = vec![
        Update::with_payload(e, tup![7u64, 8u64], 1),
        Update::with_payload(e, tup![8u64, 7u64], -1),
    ];

    let mut journal = Journal::create(&path).unwrap();
    journal.append(1, &batch).unwrap();
    journal.append(2, &batch).unwrap();
    journal.commit().unwrap();
    let keep_records = 1usize;
    drop(journal);
    let bytes = std::fs::read(&path).unwrap();
    let second_start = {
        // Find where record 2 begins: replay record 1 alone by truncating
        // is not possible without knowing the offset, so recompute it from
        // a one-record journal of identical content.
        let probe = dir.join("probe.ivm");
        let mut j = Journal::create(&probe).unwrap();
        j.append(1, &batch).unwrap();
        j.commit().unwrap();
        j.committed_bytes() as usize
    };
    assert!(second_start < bytes.len());

    for pos in second_start..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x5a;
        let flip_path = dir.join("flip.ivm");
        std::fs::write(&flip_path, &corrupt).unwrap();
        let replay = Journal::replay::<i64>(&flip_path).unwrap();
        assert_eq!(
            replay.records.len(),
            keep_records,
            "flipped byte {pos}: the corrupt record must be rejected"
        );
        assert_eq!(replay.records[0], (1, batch.clone()), "flipped byte {pos}");
        assert!(replay.torn.is_some(), "flipped byte {pos} must be reported");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 2. Session-level kill-and-recover equivalence
// ---------------------------------------------------------------------

/// Drive one shape through a kill-and-recover life cycle and compare the
/// survivor against a never-killed oracle over the same stream.
fn check_kill_recover(
    q: &Query,
    tag: &str,
    updates: &[Update<i64>],
    chunk: usize,
    kill_raw: usize,
    snap_raw: usize,
) -> Result<(), TestCaseError> {
    let chunks: Vec<&[Update<i64>]> = updates.chunks(chunk.max(1)).collect();
    let kill = kill_raw % (chunks.len() + 1);
    // Snapshot after `snap_after` pre-kill chunks; 0 = never (cold path).
    let snap_after = snap_raw % (kill + 1);

    let dir = scratch(tag);
    let empty = mirror_db(q);
    let mut first = Session::<i64>::builder(q.clone())
        .durable(&dir)
        .build(&empty)
        .map_err(|e| TestCaseError::fail(format!("build: {e}")))?;
    let pre_kill_kind = first.engine_kind();
    let mut snapped_epoch = None;
    for (i, batch) in chunks[..kill].iter().enumerate() {
        first
            .apply_batch(batch)
            .map_err(|e| TestCaseError::fail(format!("life 1 batch {i}: {e}")))?;
        if i + 1 == snap_after {
            let epoch = first
                .snapshot()
                .map_err(|e| TestCaseError::fail(format!("snapshot: {e}")))?;
            snapped_epoch = Some(epoch);
        }
    }
    let pre_kill_plan = first.describe();
    // The kill: no shutdown hook runs, the session is simply gone.
    drop(first);

    let mut second = Session::<i64>::builder(q.clone())
        .recover(&dir, &empty)
        .map_err(|e| TestCaseError::fail(format!("recover: {e}")))?;
    let note = second.explain().recovered.clone();
    prop_assert!(note.is_some(), "recovered session must say so in explain()");
    let note = note.unwrap();
    if let Some(epoch) = snapped_epoch {
        prop_assert!(
            note.contains(&format!("snapshot epoch {epoch}")),
            "explain must name the snapshot epoch: {note}"
        );
    } else {
        prop_assert!(
            note.contains("cold recovery"),
            "no snapshot was ever taken: {note}"
        );
    }
    prop_assert_eq!(
        second.engine_kind(),
        pre_kill_kind,
        "recovery must come back on the pre-kill engine"
    );
    prop_assert_eq!(
        second.describe(),
        pre_kill_plan,
        "recovery must come back on the pre-kill plan"
    );
    prop_assert_eq!(
        second.journal_epoch(),
        Some(kill as u64),
        "epoch numbering must continue where the dead session stopped"
    );

    // Rest of the stream into the survivor; the whole stream into the
    // oracle's mirror.
    for (i, batch) in chunks[kill..].iter().enumerate() {
        second
            .apply_batch(batch)
            .map_err(|e| TestCaseError::fail(format!("life 2 batch {i}: {e}")))?;
    }
    let mut mirror = mirror_db(q);
    mirror.apply_batch(updates);
    let expect = oracle_db(q, &mirror);
    outputs_match(&second.output(), &expect, &format!("{tag} recovered"))?;

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Triangle (cyclic self-join): kill anywhere, snapshot anywhere
    /// before it, recover, finish the stream — ≡ never-killed oracle.
    /// Cyclic ⇒ the dataflow/WCOJ backend, which takes unclamped ±
    /// streams (multiplicities may go negative).
    #[test]
    fn triangle_kill_and_recover_is_equivalent(
        ops in edge_ops_default(),
        chunk in 1usize..6,
        kill_raw in 0usize..16,
        snap_raw in 0usize..16,
    ) {
        let q = triangle("srt_");
        let updates = edge_updates(&q, &ops);
        check_kill_recover(&q, "srt", &updates, chunk, kill_raw, snap_raw)?;
    }

    /// Acyclic full star with free variables — auto-selection picks a
    /// specialized view-tree engine, which maintains the paper's update
    /// model (valid streams), so the generated stream is clamped.
    #[test]
    fn star_kill_and_recover_is_equivalent(
        ops in wide_ops(),
        chunk in 1usize..6,
        kill_raw in 0usize..16,
        snap_raw in 0usize..16,
    ) {
        let q = star("srs_");
        let updates = clamped_updates(&q, &ops);
        check_kill_recover(&q, "srs", &updates, chunk, kill_raw, snap_raw)?;
    }
}

/// The Retailer workload end to end: initial load, inventory stream,
/// snapshot mid-stream, kill, recover, finish — against a never-killed
/// session fed the identical stream.
#[test]
fn retailer_kill_and_recover_matches_never_killed_session() {
    let mut gen = RetailerGen::new(8, 3, 8, 17);
    let db = gen.initial_db(300);
    let q = gen.query().clone();
    let batches: Vec<Vec<Update<i64>>> = (0..6).map(|_| gen.inventory_batch(120)).collect();

    let dir = scratch("retailer");
    let mut durable = Session::<i64>::builder(q.clone())
        .durable(&dir)
        .build(&db)
        .unwrap();
    let mut oracle = Session::<i64>::builder(q.clone()).build(&db).unwrap();
    for batch in &batches[..4] {
        durable.apply_batch(batch).unwrap();
    }
    durable.snapshot().unwrap();
    drop(durable);

    let mut recovered = Session::<i64>::builder(q).recover(&dir, &db).unwrap();
    assert!(
        recovered
            .explain()
            .recovered
            .as_deref()
            .unwrap()
            .contains("warm restart"),
        "{:?}",
        recovered.explain().recovered
    );
    for batch in &batches[4..] {
        recovered.apply_batch(batch).unwrap();
    }
    for batch in &batches {
        oracle.apply_batch(batch).unwrap();
    }
    let expect = oracle.output();
    let got = recovered.output();
    assert_eq!(got.len(), expect.len(), "retailer view size");
    for (t, p) in expect.iter() {
        assert_eq!(&got.get(t), p, "retailer view at {t:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm restarts are *warm*: the recovered session runs the exact plan
/// the dead one had adapted to, with zero blind-build first-data
/// replans, and the recovery metrics land on the registry.
#[test]
fn warm_recovery_preserves_the_adapted_plan_without_first_data_replans() {
    let [a, b, c, d] = ivm_data::vars(["srw_A", "srw_B", "srw_C", "srw_D"]);
    let (rn, sn, tn) = (sym("srw_R"), sym("srw_S"), sym("srw_T"));
    let q = Query::new(
        "srw_chain",
        [],
        vec![
            Atom::new(rn, [a, b]),
            Atom::new(sn, [b, c]),
            Atom::new(tn, [c, d]),
        ],
    );

    let dir = scratch("warm");
    let mut first = Session::<i64>::builder(q.clone())
        .adaptive(ReplanPolicy::default())
        .durable(&dir)
        .build(&Database::new())
        .unwrap();
    // Skewed first batch over a blind (empty-database) build: the
    // adaptive policy must fire its first-data replan in life 1 …
    let mut batch: Vec<Update<i64>> = Vec::new();
    for i in 0..40i64 {
        batch.push(Update::insert(rn, tup![i, i + 1]));
    }
    for i in 0..10i64 {
        batch.push(Update::insert(sn, tup![i + 1, i + 2]));
    }
    batch.push(Update::insert(tn, tup![2i64, 3i64]));
    first.apply_batch(&batch).unwrap();
    assert_eq!(first.explain().replans.len(), 1, "{}", first.explain());
    assert_eq!(first.explain().replans[0].trigger, ReplanTrigger::FirstData);
    let adapted_plan = first.describe();
    first.snapshot().unwrap();
    drop(first);

    // … and life 2 must *not*: the snapshot base re-lowers the same plan
    // from the same cardinalities, so there is nothing blind to fix.
    let registry = MetricsRegistry::new();
    let mut second = Session::<i64>::builder(q)
        .adaptive(ReplanPolicy::default())
        .observe(&registry)
        .recover(&dir, &Database::new())
        .unwrap();
    assert_eq!(second.describe(), adapted_plan, "pre-kill plan restored");
    assert!(second.explain().replans.is_empty(), "{}", second.explain());

    second
        .apply_batch(&[Update::insert(tn, tup![3i64, 4i64])])
        .unwrap();
    assert!(
        second
            .explain()
            .replans
            .iter()
            .all(|ev| ev.trigger != ReplanTrigger::FirstData),
        "a warm restart must never first-data replan: {}",
        second.explain()
    );

    let m = registry.snapshot();
    assert_eq!(m.counter("ivm.store.recoveries"), 1);
    assert_eq!(
        m.counter("ivm.store.replayed_epochs"),
        0,
        "snapshot consolidated everything; the tail was empty"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn journal tail survives end to end: kill mid-write, recover (the
/// half-record is discarded and reported), keep ingesting, and the final
/// view matches the oracle over what was actually made durable.
#[test]
fn torn_tail_recovery_stops_cleanly_and_keeps_serving() {
    let q = triangle("srtorn_");
    let empty = mirror_db(&q);
    let dir = scratch("torn-e2e");
    let mut first = Session::<i64>::builder(q.clone())
        .durable(&dir)
        .build(&empty)
        .unwrap();
    let e = sym("srtorn_E");
    let edges = |lo: i64, hi: i64| -> Vec<Update<i64>> {
        (lo..hi)
            .flat_map(|i| {
                [
                    Update::insert(e, tup![i, (i + 1) % hi]),
                    Update::insert(e, tup![(i + 1) % hi, i]),
                ]
            })
            .collect()
    };
    first.apply_batch(&edges(0, 4)).unwrap();
    first.apply_batch(&edges(0, 6)).unwrap();
    drop(first);

    // Tear the final record mid-byte, as a crash during the write would.
    let journal = dir.join("journal.ivm");
    let len = std::fs::metadata(&journal).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&journal)
        .unwrap();
    file.set_len(len - 3).unwrap();
    drop(file);

    let mut second = Session::<i64>::builder(q.clone())
        .recover(&dir, &empty)
        .unwrap();
    let note = second.explain().recovered.clone().unwrap();
    assert!(note.contains("torn"), "torn tail must be reported: {note}");
    assert_eq!(
        second.journal_epoch(),
        Some(1),
        "only epoch 1 survived intact"
    );
    // The view reflects exactly the surviving epoch …
    let mut mirror = mirror_db(&q);
    mirror.apply_batch(&edges(0, 4));
    let expect = oracle_db(&q, &mirror);
    let got = second.output();
    assert_eq!(got.len(), expect.len());
    // … and the session keeps working, journaling onto the healed tail.
    second.apply_batch(&edges(0, 6)).unwrap();
    mirror.apply_batch(&edges(0, 6));
    let expect = oracle_db(&q, &mirror);
    let got = second.output();
    assert_eq!(got.len(), expect.len());
    for (t, p) in expect.iter() {
        assert_eq!(&got.get(t), p);
    }
    assert_eq!(second.journal_epoch(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovering a directory that holds a *different* query's history must
/// refuse loudly instead of replaying someone else's updates.
#[test]
fn recovery_refuses_a_snapshot_from_another_query() {
    let q1 = triangle("srq1_");
    let q2 = star("srq2_");
    let empty1 = mirror_db(&q1);
    let dir = scratch("wrongq");
    let mut s = Session::<i64>::builder(q1.clone())
        .durable(&dir)
        .build(&empty1)
        .unwrap();
    let e = sym("srq1_E");
    s.apply_batch(&[Update::insert(e, tup![1u64, 2u64])])
        .unwrap();
    s.snapshot().unwrap();
    drop(s);

    let err = Session::<i64>::builder(q2.clone())
        .recover(&dir, &mirror_db(&q2))
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("srq1_tri"),
        "must name the stored query: {msg}"
    );
    assert!(
        msg.contains("srq2_star"),
        "must name the asked query: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 3. Heavy-light family persistence
// ---------------------------------------------------------------------

/// The snapshot's strategy tag names the engine *family*: a killed
/// heavy-light session comes back on the heavy-light engine with its
/// per-key degree sketch rebuilt warm, so the tail replay (and further
/// ingestion) performs **zero** family re-selection — and the recovered
/// view stays ≡ the never-killed oracle.
#[test]
fn heavy_light_recovery_is_warm_with_zero_family_reselection() {
    let q = triangle3("srhl_");
    let (rn, sn, tn) = (sym("srhl_3R"), sym("srhl_3S"), sym("srhl_3T"));
    let policy = ReplanPolicy {
        min_batches_between: 1,
        min_replay_fraction: 0.0,
        ..ReplanPolicy::default()
    };
    let empty = mirror_db(&q);
    let dir = scratch("hl-warm");
    let mut first = Session::<i64>::builder(q.clone())
        .adaptive(policy)
        .durable(&dir)
        .build(&empty)
        .unwrap();
    assert_eq!(first.engine_kind(), EngineKind::HeavyLight);
    // Hub skew: every v closes the triangle (0, v, 9). The skew is what
    // keeps the family comparison pinned on heavy-light.
    let hub = |v: i64| {
        vec![
            Update::insert(rn, tup![0i64, v]),
            Update::insert(sn, tup![v, 9000i64]),
        ]
    };
    first
        .apply_batch(&[Update::insert(tn, tup![9000i64, 0i64])])
        .unwrap();
    for v in 1..=12i64 {
        first.apply_batch(&hub(v)).unwrap();
    }
    first.snapshot().unwrap();
    // Two journaled epochs beyond the snapshot — the replayed tail.
    for v in 13..=14i64 {
        first.apply_batch(&hub(v)).unwrap();
    }
    let pre_kill_plan = first.describe();
    assert!(first.explain().replans.is_empty(), "{}", first.explain());
    drop(first);

    let mut second = Session::<i64>::builder(q.clone())
        .adaptive(policy)
        .recover(&dir, &empty)
        .unwrap();
    assert_eq!(second.engine_kind(), EngineKind::HeavyLight);
    assert_eq!(
        second.describe(),
        pre_kill_plan,
        "pre-kill partition restored"
    );
    assert!(
        second.explain().replans.is_empty(),
        "recovery must not re-select the family: {}",
        second.explain()
    );
    // Keep streaming: the warm degree sketch means the policy still sees
    // the pre-kill skew — no family shift fires now either.
    for v in 15..=18i64 {
        second.apply_batch(&hub(v)).unwrap();
    }
    assert!(
        second.explain().replans.is_empty(),
        "warm statistics must prevent any post-recovery family shift: {}",
        second.explain()
    );
    assert_eq!(second.output().get(&ivm_data::Tuple::empty()), 18);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The opposite direction: a session whose adaptive policy had shifted
/// *away* from heavy-light to the dataflow family pre-kill must recover
/// on the dataflow family — auto-selection would lower heavy-light for
/// the query, and the persisted tag overrides it. Durable × adaptive ×
/// family-shifted, with a journaled tail beyond the snapshot: the
/// recovered session's one base, its degree counts and its view all equal
/// the pre-kill session's, and replaying the tail re-selects nothing.
#[test]
fn family_shifted_session_recovers_on_the_dataflow_family() {
    let q = triangle3("srfs_");
    let (rn, sn) = (sym("srfs_3R"), sym("srfs_3S"));
    let policy = ReplanPolicy {
        min_batches_between: 2,
        min_replay_fraction: 0.01,
        family_cost_ratio: 2.0,
        ..ReplanPolicy::default()
    };
    let empty = mirror_db(&q);
    let mut mirror = mirror_db(&q);
    let dir = scratch("hl-shifted");
    let mut first = Session::<i64>::builder(q.clone())
        .adaptive(policy)
        .durable(&dir)
        .build(&empty)
        .unwrap();
    assert_eq!(first.engine_kind(), EngineKind::HeavyLight);
    // Flat, wide streams: max degree stays 1 while N grows, so the
    // auxiliary views stop paying for themselves.
    let flat = |round: i64| -> Vec<Update<i64>> {
        (0..30i64)
            .map(|i| Update::insert(rn, tup![round * 30 + i, round * 30 + i]))
            .collect()
    };
    for round in 0..4i64 {
        first.apply_batch(&flat(round)).unwrap();
        mirror.apply_batch(&flat(round));
    }
    assert_eq!(
        first.engine_kind(),
        EngineKind::DataflowMultiway,
        "flat data must shift the family to dataflow: {}",
        first.explain()
    );
    assert!(first
        .explain()
        .replans
        .iter()
        .any(|ev| ev.trigger == ReplanTrigger::FamilyShift));
    first.snapshot().unwrap();
    // Two journaled epochs beyond the snapshot — the replayed tail; the
    // second retracts part of the first, so counts move both ways.
    let tail = [
        flat(4),
        vec![
            Update::delete(rn, tup![120i64, 120i64]),
            Update::insert(sn, tup![121i64, 7i64]),
        ],
    ];
    for batch in &tail {
        first.apply_batch(batch).unwrap();
        mirror.apply_batch(batch);
    }
    let pre_kill_replans = first.explain().replans.len();
    let pre_kill_view = first.output();
    drop(first);

    let mut second = Session::<i64>::builder(q.clone())
        .adaptive(policy)
        .recover(&dir, &empty)
        .unwrap();
    assert_eq!(
        second.engine_kind(),
        EngineKind::DataflowMultiway,
        "the persisted family overrides auto-selection: {}",
        second.explain()
    );
    assert!(
        second.explain().replans.is_empty(),
        "replaying the tail must re-select nothing: {}",
        second.explain()
    );
    assert!(pre_kill_replans > 0);
    assert_eq!(second.journal_epoch(), Some(6));
    outputs_match(&second.output(), &pre_kill_view, "recovered vs pre-kill").unwrap();
    outputs_match(
        &second.output(),
        &oracle_db(&q, &mirror),
        "recovered vs oracle",
    )
    .unwrap();
    // What the recovered session would persist next is what the pre-kill
    // session held: the same base, the same sizes, the same degrees.
    second.snapshot().unwrap();
    let doc = ivm_store::snapshot::read_snapshot::<i64>(&dir)
        .unwrap()
        .expect("just written");
    for (name, rel) in mirror.iter() {
        outputs_match(doc.base.relation(*name), rel, "recovered base").unwrap();
    }
    let mut expected = ivm_dataflow::LearnedCardinalities::new();
    expected.rebuild_degrees(&mirror, &q);
    assert_eq!(doc.degrees, expected.export_degrees());
    assert!(doc.cards.contains(&(rn, 149)), "{:?}", doc.cards);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 4. Automatic snapshot consolidation
// ---------------------------------------------------------------------

/// `.auto_snapshot(bytes)` keeps the journal bounded without manual
/// `snapshot()` calls: every ingestion call that leaves the journal past
/// the threshold consolidates it, so recovery replays (almost) nothing.
#[test]
fn auto_snapshot_bounds_the_journal_and_recovery_replays_nothing() {
    let q = triangle3("sras_");
    let (rn, sn, tn) = (sym("sras_3R"), sym("sras_3S"), sym("sras_3T"));
    let empty = mirror_db(&q);
    let dir = scratch("auto-snap");
    let mut s = Session::<i64>::builder(q.clone())
        .durable(&dir)
        .auto_snapshot(1)
        .build(&empty)
        .unwrap();
    // An empty journal still holds its file header; "consolidated" means
    // back to exactly that baseline.
    let baseline = s.journal_bytes().unwrap();
    for i in 1..=5i64 {
        s.apply_batch(&[
            Update::insert(rn, tup![i, i + 1]),
            Update::insert(sn, tup![i + 1, i + 2]),
            Update::insert(tn, tup![i + 2, i]),
        ])
        .unwrap();
        assert_eq!(
            s.journal_bytes(),
            Some(baseline),
            "a 1-byte threshold consolidates after every batch"
        );
    }
    drop(s);

    let registry = MetricsRegistry::new();
    let second = Session::<i64>::builder(q.clone())
        .observe(&registry)
        .recover(&dir, &empty)
        .unwrap();
    let m = registry.snapshot();
    assert_eq!(m.counter("ivm.store.replayed_epochs"), 0);
    assert_eq!(second.journal_epoch(), Some(5));
    let explain = second.explain();
    let note = explain.recovered.as_deref().unwrap();
    assert!(note.contains("snapshot epoch 5"), "{note}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 5. Write-ahead acknowledgement
// ---------------------------------------------------------------------

/// The newest epoch on disk in `dir`, read from outside the session: the
/// last journal record, or the snapshot's epoch when the journal behind
/// it is empty.
fn durable_epoch(dir: &std::path::Path) -> u64 {
    let replay = Journal::replay::<i64>(&dir.join(ivm_store::store::JOURNAL_FILE)).unwrap();
    assert!(replay.torn.is_none(), "{:?}", replay.torn);
    match replay.records.last() {
        Some((epoch, _)) => *epoch,
        None => ivm_store::snapshot::read_snapshot::<i64>(dir)
            .unwrap()
            .map_or(0, |s| s.epoch),
    }
}

/// Every `Ok` from `apply_batch` or `enqueue_batch` means the batch is
/// already on disk: the journal's fsync overlaps the engine, but the call
/// does not return before it. Auto-snapshots interleave with the commits.
#[test]
fn every_acknowledged_batch_is_durable_when_the_call_returns() {
    let q = triangle3("srack_");
    let (rn, sn, tn) = (sym("srack_3R"), sym("srack_3S"), sym("srack_3T"));
    let empty = mirror_db(&q);
    let mut mirror = mirror_db(&q);
    let dir = scratch("ack");
    let mut s = Session::<i64>::builder(q.clone())
        .shards(2)
        .durable(&dir)
        .auto_snapshot(600)
        .build(&empty)
        .unwrap();
    let mut snapshots = 0;
    for i in 0..24i64 {
        let batch = vec![
            Update::insert(rn, tup![i % 5, (i + 1) % 5]),
            Update::insert(sn, tup![(i + 1) % 5, (i + 2) % 5]),
            Update::insert(tn, tup![(i + 2) % 5, i % 5]),
            Update::delete(rn, tup![(i + 3) % 5, (i + 4) % 5]),
        ];
        if i % 2 == 0 {
            s.apply_batch(&batch).unwrap();
        } else {
            s.enqueue_batch(&batch).unwrap();
        }
        mirror.apply_batch(&batch);
        assert_eq!(Some(durable_epoch(&dir)), s.journal_epoch(), "batch {i}");
        // … and the store counts every byte on file as synced: no commit
        // is still in flight.
        let on_file = std::fs::metadata(dir.join(ivm_store::store::JOURNAL_FILE)).unwrap();
        assert_eq!(s.journal_bytes(), Some(on_file.len()), "batch {i}");
        if s.journal_bytes() == Some(ivm_store::JOURNAL_MAGIC.len() as u64) {
            snapshots += 1;
        }
    }
    assert!(
        snapshots > 0 && snapshots < 24,
        "{snapshots} auto-snapshots"
    );
    s.drain().unwrap();
    outputs_match(&s.output(), &oracle_db(&q, &mirror), "acknowledged").unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch the ingestion rule refuses (here an unknown relation) consumes
/// no epoch: it is refused before the journal. A journal written before
/// every kind of refusal happened there can still hold one — appended
/// here by hand — and recovery skips it, in every life, exactly as the
/// live path refused it.
#[test]
fn a_refused_batch_consumes_no_epoch_and_a_journaled_one_is_skipped_on_replay() {
    let q = triangle("srrej_");
    let (e, nope) = (sym("srrej_E"), sym("srrej_Nope"));
    let refused = [Update::<i64>::insert(nope, tup![1i64, 2i64])];
    let empty = mirror_db(&q);
    let dir = scratch("rejected");
    let mut live = Session::<i64>::builder(q.clone())
        .durable(&dir)
        .build(&empty)
        .unwrap();
    let ring = |n: i64| -> Vec<Update<i64>> {
        (0..n)
            .map(|i| Update::insert(e, tup![i, (i + 1) % n]))
            .collect()
    };
    live.apply_batch(&ring(3)).unwrap();
    assert_eq!(
        live.apply_batch(&refused).unwrap_err(),
        ivm_core::EngineError::UnknownRelation(nope)
    );
    assert_eq!(live.journal_epoch(), Some(1), "no epoch consumed");
    live.apply_batch(&ring(4)).unwrap();
    drop(live);

    // Epoch 3: a refused batch, as an older journal could hold one.
    let mut store = ivm_store::Store::recover::<i64>(&dir).unwrap().store;
    store.append(3, &refused).unwrap();
    store.commit().unwrap();
    drop(store);
    let mut back = Session::<i64>::builder(q.clone())
        .recover(&dir, &empty)
        .unwrap();
    assert_eq!(back.journal_epoch(), Some(3));
    back.apply_batch(&[Update::delete(e, tup![0i64, 1i64])])
        .unwrap();
    let (view, epoch) = (back.output(), back.journal_epoch());
    assert_eq!(epoch, Some(4));
    let mut mirror = empty.clone();
    mirror.apply_batch(&ring(3));
    mirror.apply_batch(&ring(4));
    mirror.apply_batch(&[Update::delete(e, tup![0i64, 1i64])]);
    outputs_match(&view, &oracle_db(&q, &mirror), "after the skipped epoch").unwrap();
    drop(back);

    for life in 3..=4 {
        let mut recovered = Session::<i64>::builder(q.clone())
            .recover(&dir, &empty)
            .unwrap();
        assert_eq!(recovered.journal_epoch(), epoch, "life {life}");
        outputs_match(&recovered.output(), &view, &format!("life {life}")).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An in-memory session cannot consolidate a journal it does not have.
#[test]
fn auto_snapshot_without_durable_is_refused() {
    let q = triangle3("srasx_");
    let err = Session::<i64>::builder(q)
        .auto_snapshot(1 << 20)
        .build(&Database::new())
        .unwrap_err();
    assert!(err.to_string().contains("durable"), "{err}");
}

/// A path3 base with 12 tuples per relation, `extra` applied on top.
fn path3_base(q: &Query, extra: &[Update<i64>]) -> Database<i64> {
    let mut base = mirror_db(q);
    let mut batch = extra.to_vec();
    for i in 0..12i64 {
        for (k, atom) in q.atoms.iter().enumerate() {
            batch.push(Update::insert(atom.name, tup![i % 4 + k as i64, i % 3]));
        }
    }
    base.apply_batch(&batch);
    base
}

/// Write a hand-made snapshot of `base` for `q` into a fresh store:
/// the recorded sizes are `sized_from`'s and the view is `q` over it.
fn write_snapshot(
    tag: &str,
    q: &Query,
    strategy_tag: u8,
    sized_from: &Database<i64>,
    base: Database<i64>,
) -> PathBuf {
    let mut cards: Vec<(ivm_data::Sym, u64)> = sized_from
        .iter()
        .map(|(s, r)| (*s, r.len() as u64))
        .collect();
    cards.sort_by_key(|(s, _)| s.name());
    let dir = scratch(tag);
    let mut store = ivm_store::Store::create(&dir).unwrap();
    store
        .snapshot(&ivm_store::SnapshotDoc {
            epoch: 1,
            query_name: q.name.name(),
            strategy_tag,
            cards,
            degrees: Vec::new(),
            view: oracle_db(q, sized_from),
            base,
        })
        .unwrap();
    dir
}

/// A snapshot written by a session that ran the since-retired left-deep
/// dataflow plan carries strategy tag 1. It must still recover — onto the
/// multiway dataflow, with the recorded view cross-checked — and keep
/// maintaining the view the oracle computes.
#[test]
fn left_deep_tagged_snapshot_recovers_onto_the_multiway_dataflow() {
    let q = ivm_query::examples::path3_query();
    let mut base = path3_base(&q, &[]);
    assert!(!oracle_db(&q, &base).is_empty());
    let dir = write_snapshot("tag1", &q, 1, &base, base.clone());

    let mut s = Session::<i64>::builder(q.clone())
        .recover(&dir, &Database::new())
        .unwrap();
    assert_eq!(s.engine_kind(), EngineKind::DataflowMultiway);
    assert!(s.explain().recovered.is_some());
    outputs_match(&s.output(), &oracle_db(&q, &base), "recovered").unwrap();
    let more = [
        Update::insert(q.atoms[0].name, tup![9i64, 1i64]),
        Update::delete(q.atoms[2].name, tup![2i64, 0i64]),
    ];
    s.apply_batch(&more).unwrap();
    base.apply_batch(&more);
    outputs_match(&s.output(), &oracle_db(&q, &base), "after recovery").unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The snapshot's recorded relation sizes are checked against its base.
/// A base that lost a dangling tuple — one that joins nothing, so the
/// recorded view still agrees — must be refused, naming the relation, and
/// counted as a recovery failure.
#[test]
fn recovery_refuses_a_snapshot_base_that_disagrees_with_its_sizes() {
    let q = ivm_query::examples::path3_query();
    // A tuple of the last relation whose join value no other tuple has.
    let dangling = Update::insert(q.atoms[2].name, tup![999i64, 999i64]);
    let recorded = path3_base(&q, std::slice::from_ref(&dangling));
    let lost = path3_base(&q, &[]);
    outputs_match(
        &oracle_db(&q, &lost),
        &oracle_db(&q, &recorded),
        "same view",
    )
    .unwrap();
    let dir = write_snapshot("cards", &q, 2, &recorded, lost);

    let reg = MetricsRegistry::new();
    let err = Session::<i64>::builder(q.clone())
        .observe(&reg)
        .recover(&dir, &Database::new())
        .unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, ivm_core::EngineError::Store(_)), "{msg}");
    let name = dangling.relation.to_string();
    assert!(msg.contains(&name), "must name the relation: {msg}");
    assert_eq!(reg.snapshot().counter("ivm.store.recovery_failures"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
