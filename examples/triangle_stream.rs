//! Streaming triangle counting over a skewed sliding-window graph: a
//! heavy-light IVMε session (Sec 3.3) against a session forced onto the
//! worst-case-optimal multiway dataflow, on the same update stream.
//!
//! Run: `cargo run --release --example triangle_stream`

use ivm::{EngineKind, Maintainer, Session};
use ivm_data::{sym, tup, vars, Database, Tuple, Update};
use ivm_query::{Atom, Query};
use ivm_workloads::graphs::EdgeStream;
use std::time::Instant;

fn main() {
    let window = 30_000;
    let stream = EdgeStream::zipf(4_000, 60_000, 0.9, 11).sliding_window(window);
    let batch_size = 1_024;
    println!(
        "sliding window of {window} edges over a Zipf(0.9) graph \
         ({} single-tuple updates in batches of {batch_size} edges)\n",
        stream.len() * 3
    );

    // Three distinct relations in one oriented cycle: the classifier
    // routes the triangle count to heavy-light.
    let [a, b, c] = vars(["ts_A", "ts_B", "ts_C"]);
    let rels = [sym("ts_R"), sym("ts_S"), sym("ts_T")];
    let q = Query::new(
        "ts_tri",
        [],
        vec![
            Atom::new(rels[0], [a, b]),
            Atom::new(rels[1], [b, c]),
            Atom::new(rels[2], [c, a]),
        ],
    );
    let db = Database::new();
    let hl = Session::<i64>::builder(q.clone()).build(&db).unwrap();
    assert_eq!(hl.engine_kind(), EngineKind::HeavyLight);
    let wcoj = Session::<i64>::builder(q)
        .engine(EngineKind::DataflowMultiway)
        .build(&db)
        .unwrap();

    let mut counts = Vec::new();
    for mut session in [hl, wcoj] {
        let t0 = Instant::now();
        for chunk in stream.chunks(batch_size) {
            // The same edge stream feeds all three relation roles.
            let batch: Vec<Update<i64>> = chunk
                .iter()
                .flat_map(|&(x, y, m)| rels.map(|rel| Update::with_payload(rel, tup![x, y], m)))
                .collect();
            session.apply_batch(&batch).unwrap();
        }
        let count = session.output().get(&Tuple::empty());
        println!(
            "{}: count={count} in {:?} ({:.0} upd/s)",
            session.engine_kind(),
            t0.elapsed(),
            (stream.len() * 3) as f64 / t0.elapsed().as_secs_f64(),
        );
        if let Some(note) = &session.explain().heavy_light {
            println!("  partition: {note}");
        }
        counts.push(count);
    }
    assert_eq!(counts[0], counts[1], "sessions must agree");
}
