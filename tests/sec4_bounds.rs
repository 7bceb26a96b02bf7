//! The paper's Sec. 4 bounds on counted work, one test per claim.
//!
//! Each test runs its engine at sizes ×1, ×4 and ×16 and asserts that the
//! work it reads is flat in the size — the exponent
//! `log(w_k / w_1) / log k` lies in [−0.15, 0.15] at k = 4 and k = 16 —
//! and that the counters at the largest size equal pinned values. Work is
//! what the engines count: `ViewTree::work` (one unit per hash-map probe
//! and one per map entry visited), and the insert-only engine's
//! `rebuild_work`. **Delay** is the maximum work between two consecutive
//! output tuples, the gap before the first one included. Nothing here
//! reads the clock.
//!
//! The PK–FK bound (Ex 4.13) is `ivm-core`'s
//! `pkfk::tests::dimension_insert_fixes_up_waiting_facts`. The last test
//! holds the generic multiway dataflow to the same flat-work standard on
//! an acyclic chain, with `DataflowStats::work` as its counter.

mod common;

use common::{assert_exponents, outputs_match};
use ivm_core::acyclic::InsertOnlyEngine;
use ivm_core::cascade::CascadeEngine;
use ivm_core::cqap::CqapEngine;
use ivm_core::fd::FdEngine;
use ivm_core::{
    EagerFactEngine, EagerListEngine, LazyFactEngine, LazyListEngine, Maintainer, ViewTree,
};
use ivm_data::ops::lift_one;
use ivm_data::{sym, tup, Database, Relation, Update};
use ivm_query::examples;
use ivm_query::varorder::find_tractable_order;
use ivm_workloads::graphs::EdgeStream;
use ivm_workloads::RetailerGen;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The size multipliers every test runs.
const SIZES: [usize; 3] = [1, 4, 16];

/// Asserts that `w`, one reading per size of [`SIZES`], is flat.
fn assert_flat(what: &str, w: [f64; 3]) {
    let mut w = w.into_iter();
    assert_exponents(what, &SIZES, |_| w.next().unwrap(), -0.15..=0.15);
}

/// Work per operation: how many, the total and the maximum.
#[derive(Default)]
struct PerOp {
    ops: u64,
    total: u64,
    max: u64,
}

impl PerOp {
    fn record(&mut self, work: u64) {
        self.ops += 1;
        self.total += work;
        self.max = self.max.max(work);
    }

    fn mean(&self) -> f64 {
        self.total as f64 / self.ops as f64
    }
}

/// Enumerates `tree`'s output: the number of tuples and the delay.
fn enumerate(tree: &ViewTree<i64>) -> (u64, u64) {
    let (mut tuples, mut last, mut delay) = (0, tree.work(), 0);
    tree.for_each_output(&mut |_, _| {
        let now = tree.work();
        delay = delay.max(now - last);
        last = now;
        tuples += 1;
    });
    (tuples, delay)
}

/// Thm 4.1 / Fig 4: eager-fact maintains the q-hierarchical Retailer join
/// with constant work per Inventory insert, mean and max, and enumerates
/// it with constant delay. At ×1 the other three Fig 4 engines produce
/// the same output after every batch.
#[test]
fn fig4_retailer_update_and_delay_are_constant() {
    let (mut mean, mut max, mut delay) = ([0.0; 3], [0.0; 3], [0.0; 3]);
    let mut pins = (0, 0, 0, 0);
    for (i, &k) in SIZES.iter().enumerate() {
        let mut gen = RetailerGen::new(4 * k as u64, 6, 16, 7);
        let db = gen.initial_db(384 * k);
        let q = gen.query().clone();
        let mut eng = EagerFactEngine::new(q.clone(), &db, lift_one).unwrap();
        let mut others: Vec<(&str, Box<dyn Maintainer<i64>>)> = Vec::new();
        if k == 1 {
            others = vec![
                (
                    "eager-list",
                    Box::new(EagerListEngine::new(q.clone(), &db, lift_one).unwrap()),
                ),
                (
                    "lazy-fact",
                    Box::new(LazyFactEngine::new(q.clone(), &db, lift_one).unwrap()),
                ),
                (
                    "lazy-list",
                    Box::new(LazyListEngine::new(q, &db, lift_one).unwrap()),
                ),
            ];
        }
        let (mut upd, mut tuples, mut max_delay) = (PerOp::default(), 0, 0);
        for _ in 0..4 {
            let batch = gen.inventory_batch(96 * k);
            for u in &batch {
                let before = eng.tree().work();
                eng.apply(u).unwrap();
                upd.record(eng.tree().work() - before);
            }
            let (n, d) = enumerate(eng.tree());
            (tuples, max_delay) = (tuples + n, max_delay.max(d));
            let expect = eng.output();
            for (name, other) in &mut others {
                other.apply_batch(&batch).unwrap();
                outputs_match(&other.output(), &expect, name).unwrap();
            }
        }
        (mean[i], max[i], delay[i]) = (upd.mean(), upd.max as f64, max_delay as f64);
        pins = (upd.total, upd.max, max_delay, tuples);
    }
    assert_flat("update work (mean)", mean);
    assert_flat("update work (max)", max);
    assert_flat("enumeration delay", delay);
    assert_eq!(
        pins,
        (50_878, 12, 14, 10_661),
        "(update work, max update, delay, tuples) at ×16"
    );
}

/// Ex 4.14: with `T` static, `Q(A,B,C) = Σ_D R(A,D)·S(A,B)·T(B,C)` has
/// constant-work updates to `R` and `S` however large `T` is.
#[test]
fn static_relation_keeps_dynamic_updates_constant() {
    let q = examples::ex414_query();
    let (rn, sn, tn) = (sym("e414_R"), sym("e414_S"), sym("e414_T"));
    let mut max = [0.0; 3];
    let mut pins = (0, 0, 0);
    for (i, &k) in SIZES.iter().enumerate() {
        let t_size = 500 * k;
        let bdom = (t_size / 8) as i64;
        let mut rng = StdRng::seed_from_u64(31);
        let mut t = Relation::<i64>::new(q.atoms[2].schema.clone());
        for _ in 0..t_size {
            t.apply(tup![rng.gen_range(0..bdom), rng.gen_range(0..bdom)], &1);
        }
        let mut db = Database::new();
        db.add(tn, t);
        let vo = find_tractable_order(&q).expect("Ex 4.14 is tractable");
        let mut eng = EagerFactEngine::with_order(q.clone(), vo, &db, lift_one).unwrap();
        let mut upd = PerOp::default();
        for j in 0..2_000 {
            let (a, v) = (rng.gen_range(0..200i64), rng.gen_range(0..bdom));
            let u = Update::insert([rn, sn][j % 2], tup![a, v]);
            let before = eng.tree().work();
            eng.apply(&u).unwrap();
            upd.record(eng.tree().work() - before);
        }
        max[i] = upd.max as f64;
        pins = (upd.total, upd.max, eng.tree().view_entries());
    }
    assert_flat("max update work", max);
    assert_eq!(
        pins,
        (17_420, 11, 10_162),
        "(update work, max update, view entries) at ×16"
    );
}

/// Ex 4.6: the tractable CQAP "is there a triangle through (a, b, c)?"
/// has constant-work updates and constant-work probes as the graph grows.
#[test]
fn cqap_triangle_detection_updates_and_probes_are_constant() {
    let e = sym("tdc_E");
    let (mut upd_max, mut upd_mean, mut probe_max) = ([0.0; 3], [0.0; 3], [0.0; 3]);
    let mut pins = (0, 0, 0, 0, 0);
    for (i, &k) in SIZES.iter().enumerate() {
        let n = 1_000 * k;
        let q = examples::triangle_detect_cqap();
        let mut eng: CqapEngine<i64> = CqapEngine::new(q, lift_one).unwrap();
        let edges = EdgeStream::zipf((n / 8) as u64, n, 0.7, 9).edges;
        let mut upd = PerOp::default();
        let mut apply = |eng: &mut CqapEngine<i64>, u: Update<i64>| {
            let before = eng.work();
            eng.apply(&u).unwrap();
            upd.record(eng.work() - before);
        };
        for &(a, b) in &edges {
            apply(&mut eng, Update::insert(e, tup![a, b]));
        }
        for &(a, b) in edges.iter().take(500) {
            apply(&mut eng, Update::delete(e, tup![a, b]));
            apply(&mut eng, Update::insert(e, tup![a, b]));
        }
        let mut rng = StdRng::seed_from_u64(4);
        let (mut probe, mut hits) = (PerOp::default(), 0);
        for &(a, b) in edges.iter().take(1_000) {
            let c = edges[rng.gen_range(0..edges.len())].1;
            let before = eng.work();
            hits += eng.probe(&tup![a, b, c]).unwrap().signum();
            probe.record(eng.work() - before);
        }
        (upd_max[i], upd_mean[i]) = (upd.max as f64, upd.mean());
        probe_max[i] = probe.max as f64;
        pins = (upd.total, upd.max, probe.total, probe.max, hits);
    }
    assert_flat("max update work", upd_max);
    assert_flat("mean update work", upd_mean);
    assert_flat("max probe work", probe_max);
    assert_eq!(
        pins,
        (255_000, 15, 8_372, 12, 21),
        "(update work, max update, probe work, max probe, hits) at ×16"
    );
}

/// An FD-satisfying stream over the Ex 4.12 chain query: `y = 10x + 1`
/// under `X → Y`, `z = 10y + 3` under `Y → Z`.
fn fd_stream(n: usize, dom: i64) -> Vec<Update<i64>> {
    let (rn, sn, tn) = (sym("e412_R"), sym("e412_S"), sym("e412_T"));
    let mut rng = StdRng::seed_from_u64(23);
    (0..n)
        .map(|_| match rng.gen_range(0..4) {
            0 => {
                let x = rng.gen_range(0..dom);
                Update::insert(sn, tup![x, x * 10 + 1])
            }
            1 => {
                let y = rng.gen_range(0..dom) * 10 + 1;
                Update::insert(tn, tup![y, y * 10 + 3])
            }
            _ => Update::insert(rn, tup![rng.gen_range(0..dom), rng.gen_range(0..dom)]),
        })
        .collect()
}

/// Thm 4.11 / Ex 4.12: the chain query is not hierarchical, but its
/// Σ-reduct is q-hierarchical, so the FD-aware tree updates in constant
/// work; its output equals lazy re-evaluation's.
#[test]
fn fd_reduct_updates_are_constant() {
    let (mut mean, mut max) = ([0.0; 3], [0.0; 3]);
    let mut pins = (0, 0, 0);
    for (i, &k) in SIZES.iter().enumerate() {
        let n = 500 * k;
        let (q, sigma) = examples::ex412_query();
        let mut eng: FdEngine<i64> =
            FdEngine::new(q.clone(), &sigma, &Database::new(), lift_one).unwrap();
        let mut lazy = LazyListEngine::new(q, &Database::new(), lift_one).unwrap();
        let mut upd = PerOp::default();
        for u in &fd_stream(n, (n / 10) as i64) {
            let before = eng.tree().work();
            eng.apply(u).unwrap();
            upd.record(eng.tree().work() - before);
            lazy.apply(u).unwrap();
        }
        let got = eng.output();
        outputs_match(&got, &lazy.output(), "fd vs lazy").unwrap();
        (mean[i], max[i]) = (upd.mean(), upd.max as f64);
        pins = (upd.total, upd.max, got.len());
    }
    assert_flat("mean update work", mean);
    assert_flat("max update work", max);
    assert_eq!(
        pins,
        (79_417, 17, 3_299),
        "(update work, max update, output) at ×16"
    );
}

/// Sec. 4.2: the 3-path `Q1 = R·S·T` maintained through the
/// q-hierarchical `Q2 = R·S` under the protocol (enumerate `Q2` before
/// `Q1`) has constant-work updates and constant-delay `Q1` enumeration,
/// and never refreshes `Q2` on `Q1`'s behalf. At ×1 its output equals
/// lazy re-evaluation's.
#[test]
fn cascade_update_and_q1_delay_are_constant() {
    let (q1, q2) = examples::ex45_pair();
    let rels = [sym("e45_R"), sym("e45_S"), sym("e45_T")];
    let (mut mean, mut max, mut delay) = ([0.0; 3], [0.0; 3], [0.0; 3]);
    let mut pins = (0, 0, 0, 0);
    for (i, &k) in SIZES.iter().enumerate() {
        let n = 300 * k;
        let dom = (n / 20) as i64;
        let mut eng: CascadeEngine<i64> =
            CascadeEngine::new(q1.clone(), q2.clone(), &Database::new(), lift_one).unwrap();
        let mut lazy = LazyListEngine::new(q1.clone(), &Database::new(), lift_one).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let (mut upd, mut tuples, mut max_delay) = (PerOp::default(), 0, 0);
        for j in 1..=n {
            let u = Update::insert(
                rels[j % 3],
                tup![rng.gen_range(0..dom), rng.gen_range(0..dom)],
            );
            let before = eng.work();
            eng.apply(&u).unwrap();
            upd.record(eng.work() - before);
            if k == 1 {
                lazy.apply(&u).unwrap();
            }
            if j % (n / 3) == 0 {
                eng.enumerate_q2(&mut |_, _| {}).unwrap();
                let (t, d) = enumerate(eng.q1_tree());
                (tuples, max_delay) = (tuples + t, max_delay.max(d));
                let got = eng.q1_output().unwrap();
                if k == 1 {
                    outputs_match(&got, &lazy.output(), "cascade vs lazy").unwrap();
                }
            }
        }
        assert_eq!(eng.forced_refreshes(), 0);
        (mean[i], max[i], delay[i]) = (upd.mean(), upd.max as f64, max_delay as f64);
        pins = (upd.total, upd.max, max_delay, tuples);
    }
    assert_flat("mean update work", mean);
    assert_flat("max update work", max);
    assert_flat("Q1 enumeration delay", delay);
    assert_eq!(
        pins,
        (26_574, 6, 8, 90_785),
        "(update work, max update, Q1 delay, Q1 tuples) at ×16"
    );
}

/// Sec. 4.6: insert-only maintenance of the α-acyclic 3-path full join
/// rebuilds its factorized form on demand, so an enumeration every N/5
/// inserts costs amortized constant work per insert — less than the
/// output it enumerates, which it never materializes.
#[test]
fn insert_only_rebuilds_amortize_to_constant_work() {
    let q = examples::path3_query();
    let rels = [sym("p3_R"), sym("p3_S"), sym("p3_T")];
    let mut per_insert = [0.0; 3];
    let mut pins = (0, 0, 0);
    for (i, &k) in SIZES.iter().enumerate() {
        let n = 300 * k;
        let dom = (n / 20) as i64;
        let mut eng: InsertOnlyEngine<i64> = InsertOnlyEngine::new(q.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let mut tuples = 0;
        for j in 1..=n {
            let (x, y) = (rng.gen_range(0..dom), rng.gen_range(0..dom));
            eng.insert(&Update::insert(rels[j % 3], tup![x, y]))
                .unwrap();
            if j % (n / 5) == 0 {
                tuples = 0;
                eng.for_each_output(&mut |_, _| tuples += 1).unwrap();
            }
        }
        per_insert[i] = eng.rebuild_work() as f64 / n as f64;
        pins = (eng.rebuilds(), eng.rebuild_work(), tuples);
    }
    assert_flat("rebuild work per insert", per_insert);
    assert!(
        pins.2 > pins.1,
        "the output outgrows the rebuild work: {pins:?}"
    );
    assert_eq!(
        pins,
        (5, 14_240, 68_413),
        "(rebuilds, rebuild work, output) at ×16"
    );
}

/// The 4-atom chain `Σ R(a,b)·S(b,c)·T(c,d)·U(d,e)` with fan-out 1 — an
/// α-acyclic query, not q-hierarchical — maintained by the generic
/// multiway dataflow under single-tuple inserts and deletes at both ends.
/// Every seed plan binds next a variable that shares an atom with the
/// binding so far, so each step is keyed by it and an update costs O(1)
/// probes: the work per update (`DataflowStats::work`, one unit per probe
/// and per output delta) is flat. Binding in the global variable order
/// instead makes a seed from `U` enumerate all N values of `b` first —
/// work linear in N.
#[test]
fn multiway_chain_updates_at_both_ends_are_constant() {
    use ivm_dataflow::DataflowEngine;
    let [a, b, c, d, e] = ivm_data::vars(["s4c_A", "s4c_B", "s4c_C", "s4c_D", "s4c_E"]);
    let rels = [sym("s4c_R"), sym("s4c_S"), sym("s4c_T"), sym("s4c_U")];
    let q = ivm_query::Query::new(
        "s4c_chain",
        [],
        vec![
            ivm_query::Atom::new(rels[0], [a, b]),
            ivm_query::Atom::new(rels[1], [b, c]),
            ivm_query::Atom::new(rels[2], [c, d]),
            ivm_query::Atom::new(rels[3], [d, e]),
        ],
    );
    let mut per_update = [0.0; 3];
    let mut pins = (0, 0, 0);
    for (i, &k) in SIZES.iter().enumerate() {
        let n = 1_000 * k as i64;
        let mut db: Database<i64> = Database::new();
        for (rel, atom) in rels.iter().zip(&q.atoms) {
            db.create(*rel, atom.schema.clone());
            for v in 0..n {
                db.apply(&Update::insert(*rel, tup![v, v]));
            }
        }
        let mut eng = DataflowEngine::<i64>::new(q.clone(), &db, lift_one).unwrap();
        assert_eq!(eng.output_relation().get(&ivm_data::Tuple::empty()), n);
        let before = eng.stats();
        let mut rng = StdRng::seed_from_u64(29);
        let mut updates = 0u64;
        for j in 0..32 {
            let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let ends = [
                Update::insert(rels[0], tup![n + j, x]),
                Update::insert(rels[3], tup![y, n + j]),
            ];
            let undo = ends.clone().map(|u| Update::delete(u.relation, u.tuple));
            for u in ends.iter().chain(&undo) {
                eng.apply(u).unwrap();
                updates += 1;
            }
        }
        assert_eq!(eng.output_relation().get(&ivm_data::Tuple::empty()), n);
        let s = eng.stats().since(&before);
        per_update[i] = s.work() as f64 / updates as f64;
        pins = (updates, s.multiway_probes, s.output_delta_tuples);
    }
    assert_flat("multiway chain work per update", per_update);
    assert_eq!(
        pins,
        (128, 1_280, 128),
        "(updates, probes, output deltas) at ×16: 11 units per update"
    );
}
