//! Surviving a restart: a durable session journals every batch
//! write-ahead, consolidates its history into an atomic snapshot, dies
//! without warning, and comes back *warm* — same view, same plan, same
//! epoch numbering — then finishes the stream as if nothing happened.
//!
//! The life cycle demonstrated here:
//!
//! 1. `SessionBuilder::durable(dir)` — every `apply_batch` appends the
//!    batch to an epoch-tagged journal and fsyncs it *before* the delta
//!    is returned (the fsync overlaps the engine's maintenance), so an
//!    acknowledged batch is never lost.
//! 2. `Session::snapshot()` — drains, writes one atomic snapshot (base
//!    relations, maintained view, learned cardinalities, resolved
//!    strategy) and truncates the journal behind it: recovery time is
//!    now bounded by the tail since the snapshot, not total history.
//! 3. the crash — `drop` with no shutdown hook, mid-stream.
//! 4. `SessionBuilder::recover(dir, &db)` — loads the snapshot, rebuilds
//!    the engine warm over its base (no blind build, no first-data
//!    replan), cross-checks the rebuilt view against the recorded one,
//!    replays the journal tail, and keeps journaling where the dead
//!    session stopped. `explain()` carries the `recovered:` audit line.
//!
//! Run: `cargo run --example durable_stream`

use ivm::{Database, Maintainer, Session, Update};
use ivm_data::{sym, tup, vars};
use ivm_query::{Atom, Query};

/// The triangle count over a mutating edge relation.
fn triangle() -> Query {
    let [a, b, c] = vars(["ds_A", "ds_B", "ds_C"]);
    let e = sym("ds_E");
    Query::new(
        "ds_tri",
        [],
        vec![
            Atom::new(e, [a, b]),
            Atom::new(e, [b, c]),
            Atom::new(e, [c, a]),
        ],
    )
}

/// A deterministic mutating edge stream: mostly inserts, periodic
/// deletes, chunked into the batches the session will journal.
fn stream() -> Vec<Vec<Update<i64>>> {
    let e = sym("ds_E");
    (0..8u64)
        .map(|epoch| {
            (0..12u64)
                .map(|i| {
                    let x = (epoch * 5 + i) % 9;
                    let y = (x + 1 + i % 3) % 9;
                    let m = if (epoch + i) % 7 == 0 { -1 } else { 1 };
                    Update::with_payload(e, tup![x, y], m)
                })
                .collect()
        })
        .collect()
}

fn count(session: &mut Session<i64>) -> i64 {
    session.output().iter().map(|(_, m)| *m).sum()
}

fn main() {
    let dir = std::env::temp_dir().join(format!("ivm-durable-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::<i64>::new();
    let batches = stream();

    // ---- life 1: journal, snapshot, die -----------------------------
    let mut session = Session::<i64>::builder(triangle())
        .durable(&dir)
        .build(&db)
        .unwrap();
    println!("life 1: {}", session.describe());
    for (i, batch) in batches[..5].iter().enumerate() {
        session.apply_batch(batch).unwrap();
        println!(
            "  epoch {:?}: {} updates journaled, triangle count {}",
            session.journal_epoch().unwrap(),
            batch.len(),
            count(&mut session),
        );
        if i == 2 {
            let epoch = session.snapshot().unwrap();
            println!("  snapshot consolidated through epoch {epoch}; journal truncated");
        }
    }
    let count_at_death = count(&mut session);
    let plan_at_death = session.describe();
    println!("  ── killed (no shutdown hook) with count {count_at_death} ──");
    drop(session);

    // ---- life 2: recover warm, finish the stream --------------------
    let mut session = Session::<i64>::builder(triangle())
        .recover(&dir, &db)
        .unwrap();
    println!("\nlife 2: {}", session.describe());
    println!("{}", session.explain());
    assert_eq!(
        session.describe(),
        plan_at_death,
        "same plan, not a rebuild"
    );
    assert_eq!(
        count(&mut session),
        count_at_death,
        "nothing acknowledged was lost"
    );
    assert_eq!(
        session.journal_epoch(),
        Some(5),
        "epochs continue, not restart"
    );

    for batch in &batches[5..] {
        session.apply_batch(batch).unwrap();
        println!(
            "  epoch {:?}: {} updates journaled, triangle count {}",
            session.journal_epoch().unwrap(),
            batch.len(),
            count(&mut session),
        );
    }

    // The never-killed reference agrees with the survivor.
    let mut reference = Session::<i64>::builder(triangle()).build(&db).unwrap();
    for batch in &batches {
        reference.apply_batch(batch).unwrap();
    }
    assert_eq!(count(&mut session), count(&mut reference));
    println!(
        "\nfinal triangle count {} — identical to a session that never died",
        count(&mut session)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
