//! `Session::snapshot` serializes the session's base where it lives: the
//! bytes it allocates are the encode buffer (a small multiple of the
//! snapshot file), never a second `Database` — and what it writes still
//! decodes through `SnapshotDoc::decode` to the same base, view, sizes
//! and degrees under the unchanged `IVMSNAP2` format.
//!
//! The allocation gate needs a counting `#[global_allocator]`, which is
//! why this test is a binary of its own (the pattern of
//! `serve_zero_copy.rs`). The counter is per thread, so the harness's
//! other threads do not disturb it.

use ivm::{Database, EngineKind, Maintainer, Session, Update};
use ivm_data::{sym, tup};
use ivm_dataflow::LearnedCardinalities;
use ivm_query::examples;
use ivm_store::snapshot::{read_snapshot, SNAPSHOT_FILE};
use ivm_store::SNAPSHOT_MAGIC;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has requested from the allocator so far.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // A thread's last frees can run after its locals are gone.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local
// integer and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn snapshot_allocates_encode_buffers_not_a_second_base() {
    // Fig 3's `Q(y,x,z) = R(y,x)·S(y,z)` over 60 000 base tuples whose
    // join keys are disjoint between R and S — a large base under a
    // small view, so the base dominates whatever `snapshot()` touches.
    let q = examples::fig3_query();
    let (rn, sn) = (sym("f3_R"), sym("f3_S"));
    let mut db: Database<i64> = Database::new();
    db.create(rn, q.atoms[0].schema.clone());
    db.create(sn, q.atoms[1].schema.clone());
    for y in 0..60i64 {
        for v in 0..500i64 {
            db.apply(&Update::insert(rn, tup![y, v]));
            db.apply(&Update::insert(sn, tup![1000 + y, v]));
        }
    }
    assert_eq!(db.size(), 60_000);
    let dir = std::env::temp_dir().join(format!("ivm-snap-nocopy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The dataflow engine, so `apply_batch` reports the view's delta.
    let mut s = Session::<i64>::builder(q.clone())
        .engine(EngineKind::DataflowMultiway)
        .durable(&dir)
        .build(&db)
        .unwrap();
    let joined = [
        Update::insert(rn, tup![7000i64, 1i64]),
        Update::insert(sn, tup![7000i64, 2i64]),
    ];
    s.apply_batch(&joined).unwrap();
    db.apply_batch(&joined);

    let before = ALLOCATED.with(Cell::get);
    let epoch = s.snapshot().unwrap();
    let allocated = ALLOCATED.with(Cell::get) - before;
    assert_eq!(epoch, 1);
    let file = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    // A `Vec` grown by doubling requests under 4x its final length in
    // total; cloning this base alone requests more than twice the file.
    assert!(
        allocated < 4 * file.len() as u64,
        "snapshot() requested {allocated} B to write a {} B file — \
         more than its encode buffer explains",
        file.len()
    );

    // The format is the parent's: same magic, and the unchanged decoder
    // reads back exactly what the session holds.
    assert_eq!(SNAPSHOT_MAGIC, b"IVMSNAP2");
    assert_eq!(&file[..8], SNAPSHOT_MAGIC);
    let doc = read_snapshot::<i64>(&dir).unwrap().expect("just written");
    assert_eq!((doc.epoch, doc.query_name.as_str()), (1, "f3_Q"));
    for (name, rel) in db.iter() {
        let got = doc.base.relation(*name);
        assert_eq!(got.len(), rel.len());
        assert!(rel.iter().all(|(t, p)| &got.get(t) == p));
    }
    assert_eq!(doc.cards, vec![(rn, 30_001), (sn, 30_001)]);
    let mut counted = LearnedCardinalities::new();
    counted.rebuild_degrees(&db, &q);
    assert_eq!(doc.degrees, counted.export_degrees());
    assert_eq!(doc.view.len(), 1);
    assert_eq!(doc.view.get(&tup![7000i64, 1i64, 2i64]), 1);

    // The base went back where it was: the session keeps serving correct
    // deltas, and the next snapshot still holds all of it.
    let delta = s
        .apply_batch(&[Update::insert(sn, tup![7000i64, 3i64])])
        .unwrap();
    assert_eq!(delta.len(), 1);
    assert_eq!(delta.get(&tup![7000i64, 1i64, 3i64]), 1);
    assert_eq!(s.snapshot().unwrap(), 2);
    let doc = read_snapshot::<i64>(&dir).unwrap().expect("just written");
    assert_eq!(doc.base.size(), 60_003);
    assert_eq!(doc.view.get(&tup![7000i64, 1i64, 3i64]), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
