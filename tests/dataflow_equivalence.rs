//! Property tests for the generic delta-dataflow engine: agreement with
//! from-scratch re-evaluation on arbitrary valid update streams — including
//! the *cyclic* triangle query no specialized engine accepts — and
//! order-independence of batches (Sec. 2: ring payloads make a batch's
//! cumulative effect independent of execution order).

use ivm_core::Maintainer;
use ivm_data::ops::{eval_join_aggregate, lift_one};
use ivm_data::{sym, Database, Relation, Tuple, Update, Value};
use ivm_dataflow::{DataflowEngine, DeltaBatch, StoreHub};
use ivm_query::{Atom, Query};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The cyclic self-join triangle count `Q() = Σ E(a,b)·E(b,c)·E(c,a)`.
fn triangle_query() -> Query {
    let [a, b, c] = ivm_data::vars(["dfq_A", "dfq_B", "dfq_C"]);
    let e = sym("dfq_E");
    Query::new(
        "dfq_tri",
        [],
        vec![
            Atom::new(e, [a, b]),
            Atom::new(e, [b, c]),
            Atom::new(e, [c, a]),
        ],
    )
}

/// A cyclic triangle *listing* variant with free vertex variables, over
/// three distinct edge relations.
fn triangle_listing_query() -> Query {
    let [a, b, c] = ivm_data::vars(["dfq_LA", "dfq_LB", "dfq_LC"]);
    Query::new(
        "dfq_tri_list",
        [a, b, c],
        vec![
            Atom::new(sym("dfq_LR"), [a, b]),
            Atom::new(sym("dfq_LS"), [b, c]),
            Atom::new(sym("dfq_LT"), [c, a]),
        ],
    )
}

/// From-scratch oracle for a (possibly self-join) query: one relation per
/// atom, re-schema'd to the atom's variables, joined and aggregated.
fn oracle(q: &Query, base: &[Relation<i64>]) -> Relation<i64> {
    let per_atom: Vec<Relation<i64>> = q
        .atoms
        .iter()
        .zip(base)
        .map(|(atom, rel)| {
            Relation::from_rows(
                atom.schema.clone(),
                rel.iter().map(|(t, r)| (t.clone(), *r)),
            )
        })
        .collect();
    let refs: Vec<&Relation<i64>> = per_atom.iter().collect();
    eval_join_aggregate(&refs, &q.free, lift_one)
}

fn assert_outputs_match(
    got: &Relation<i64>,
    expect: &Relation<i64>,
    ctx: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), expect.len(), "{}: sizes differ", ctx);
    for (t, p) in expect.iter() {
        prop_assert_eq!(&got.get(t), p, "{} at {:?}", ctx, t);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cyclic self-join triangle: the maintained count equals from-scratch
    /// re-evaluation after every prefix of a random insert/delete stream.
    #[test]
    fn triangle_self_join_matches_oracle(
        ops in proptest::collection::vec(((0u64..5, 0u64..5), proptest::bool::ANY), 0..50),
    ) {
        let q = triangle_query();
        let e = q.atoms[0].name;
        let mut eng = DataflowEngine::<i64>::new(q.clone(), &Database::new(), lift_one).unwrap();
        let mut edges = Relation::<i64>::new(q.atoms[0].schema.clone());
        for (i, ((a, b), del)) in ops.iter().enumerate() {
            let t = ivm_data::tup![*a, *b];
            let m: i64 = if *del && edges.get(&t) > 0 { -1 } else { 1 };
            edges.apply(t.clone(), &m);
            eng.apply(&Update::with_payload(e, t, m)).unwrap();
            if i % 7 == 0 {
                let expect = oracle(&q, &[edges.clone(), edges.clone(), edges.clone()]);
                prop_assert_eq!(
                    eng.output_relation().get(&Tuple::empty()),
                    expect.get(&Tuple::empty()),
                    "after op {}", i
                );
            }
        }
        let expect = oracle(&q, &[edges.clone(), edges.clone(), edges]);
        assert_outputs_match(eng.output_relation(), &expect, "final")?;
    }

    /// Cyclic triangle listing with free variables over three relations.
    #[test]
    fn triangle_listing_matches_oracle(
        ops in proptest::collection::vec(
            (0usize..3, (0u64..4, 0u64..4), proptest::bool::ANY),
            0..45,
        ),
    ) {
        let q = triangle_listing_query();
        let mut eng = DataflowEngine::<i64>::new(q.clone(), &Database::new(), lift_one).unwrap();
        let mut base: Vec<Relation<i64>> = q
            .atoms
            .iter()
            .map(|a| Relation::new(a.schema.clone()))
            .collect();
        for (ai, (x, y), del) in ops {
            let t = ivm_data::tup![x, y];
            let m: i64 = if del && base[ai].get(&t) > 0 { -1 } else { 1 };
            base[ai].apply(t.clone(), &m);
            eng.apply(&Update::with_payload(q.atoms[ai].name, t, m)).unwrap();
        }
        let expect = oracle(&q, &base);
        assert_outputs_match(eng.output_relation(), &expect, "listing")?;
    }

    /// Ring order-independence (Sec. 2): one consolidated `apply_batch` of
    /// N shuffled updates leaves the engine in a state identical to N
    /// single `apply` calls in original order — for a q-hierarchical star
    /// AND the cyclic triangle.
    #[test]
    fn batch_of_shuffled_updates_equals_singles(
        ops in proptest::collection::vec(
            (0usize..3, (0i64..4, 0i64..4), -1i64..3),
            0..60,
        ),
        seed in 0u64..1_000,
    ) {
        let [x, y, z, w] = ivm_data::vars(["dfq_SX", "dfq_SY", "dfq_SZ", "dfq_SW"]);
        let star = Query::new(
            "dfq_star",
            [x, y, z, w],
            vec![
                Atom::new(sym("dfq_SR"), [x, y]),
                Atom::new(sym("dfq_SS"), [x, z]),
                Atom::new(sym("dfq_ST"), [x, w]),
            ],
        );
        for q in [star, triangle_query()] {
            let updates: Vec<Update<i64>> = ops
                .iter()
                .filter(|(_, _, m)| *m != 0)
                .map(|(ai, (a, b), m)| {
                    let atom = &q.atoms[ai % q.atoms.len()];
                    Update::with_payload(atom.name, ivm_data::tup![*a, *b], *m)
                })
                .collect();

            let mut shuffled = updates.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..i + 1));
            }

            let db = Database::new();
            let mut singles = DataflowEngine::<i64>::new(q.clone(), &db, lift_one).unwrap();
            let mut batched = DataflowEngine::<i64>::new(q.clone(), &db, lift_one).unwrap();
            for u in &updates {
                singles.apply(u).unwrap();
            }
            batched.apply_batch(&shuffled).unwrap();

            let expect = singles.output();
            assert_outputs_match(batched.output_relation(), &expect, q.name.name().as_str())?;
            // Consolidation means the batch propagates at most once per
            // distinct (relation, tuple) key, usually far fewer deltas.
            prop_assert!(batched.stats().deltas_in <= singles.stats().deltas_in);
        }
    }
}

/// `Q(a,b,c,d) = R(a,b,c)·S(b,c,d)·T(d,a)`: a cycle through two ternary
/// atoms, so the multiway search probes two-column keys (`R` by `(a,b)`,
/// `S` by `(b,c)`, …), with `b` string-valued; plus `Q2(a,b,c) =
/// R(a,b,c)·T(c,a)` over the same relations, which probes `R` by the
/// non-adjacent pair `(a,c)` — a pattern `Q` never registers.
fn ternary_cycle_queries() -> (Query, Query) {
    let [a, b, c, d] = ivm_data::vars(["dfq_TA", "dfq_TB", "dfq_TC", "dfq_TD"]);
    let (r, s, t) = (sym("dfq_TR"), sym("dfq_TS"), sym("dfq_TT"));
    let q = Query::new(
        "dfq_ternary",
        [a, b, c, d],
        vec![
            Atom::new(r, [a, b, c]),
            Atom::new(s, [b, c, d]),
            Atom::new(t, [d, a]),
        ],
    );
    let q2 = Query::new(
        "dfq_ternary_chord",
        [a, b, c],
        vec![Atom::new(r, [a, b, c]), Atom::new(t, [c, a])],
    );
    (q, q2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The multiway path under everything a batch can hold — multi-column
    /// and string keys, payload-2 duplicates, negative payloads, a tuple
    /// inserted and deleted within one batch: after every batch the view
    /// equals the from-scratch oracle, equals the same updates applied one
    /// at a time, and two engines on one coordinator-advanced `StoreHub`
    /// (the second built mid-stream, so it adopts *resident* stores and
    /// registers a pattern of its own on them) equal two independent ones.
    #[test]
    fn multiway_ternary_cycle_batches_match_oracle_singles_and_hub(
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..3, (0i64..3, 0i64..3, 0i64..3), 0usize..3), 1..7),
            1..9,
        ),
    ) {
        let (q, q2) = ternary_cycle_queries();
        let b_pos = |ai: usize| [1, 0, 3][ai]; // column of the string-valued `b`, if any
        let engine =
            |q: &Query, db: &Database<i64>| DataflowEngine::<i64>::new(q.clone(), db, lift_one).unwrap();
        let mut db = Database::<i64>::new();
        for atom in &q.atoms {
            db.create(atom.name, atom.schema.clone());
        }
        let hub = StoreHub::new();
        let mut batched = engine(&q, &db);
        let mut singles = engine(&q, &db);
        let mut member = engine(&q, &db);
        member.share_stores(&hub);
        // (hub member, independent twin) of `q2`, built after the first batch.
        let mut late: Option<(DataflowEngine<i64>, DataflowEngine<i64>)> = None;

        for (bi, ops) in batches.iter().enumerate() {
            let mut batch: Vec<Update<i64>> = ops
                .iter()
                .map(|&(ai, (x, y, z), m)| {
                    let atom = &q.atoms[ai];
                    let vals = [x, y, z];
                    let t: Tuple = (0..atom.schema.arity())
                        .map(|c| match c == b_pos(ai) {
                            true => Value::str(format!("s{}", vals[c])),
                            false => Value::from(vals[c]),
                        })
                        .collect();
                    Update::with_payload(atom.name, t, [-1, 1, 2][m])
                })
                .collect();
            // The first tuple again, inserted and deleted within the batch.
            let again = batch[0].clone();
            batch.push(Update::with_payload(again.relation, again.tuple.clone(), 1));
            batch.push(Update::with_payload(again.relation, again.tuple, -1));

            for u in &batch {
                singles.apply(u).unwrap();
            }
            batched.apply_batch(&batch).unwrap();
            member.apply_batch(&batch).unwrap();
            if let Some((late_member, late_twin)) = &mut late {
                let on_q2: Vec<Update<i64>> =
                    batch.iter().filter(|u| u.relation != q.atoms[1].name).cloned().collect();
                late_member.apply_batch(&on_q2).unwrap();
                late_twin.apply_batch(&on_q2).unwrap();
            }
            hub.advance_batch(&DeltaBatch::from_updates(&batch));
            db.apply_batch(&batch);

            let ctx = format!("batch {bi}");
            let base: Vec<Relation<i64>> =
                q.atoms.iter().map(|a| db.relation(a.name).clone()).collect();
            assert_outputs_match(batched.output_relation(), &oracle(&q, &base), &ctx)?;
            assert_outputs_match(singles.output_relation(), batched.output_relation(), &ctx)?;
            assert_outputs_match(member.output_relation(), batched.output_relation(), &ctx)?;
            match &late {
                Some((late_member, late_twin)) => {
                    let base2 = [base[0].clone(), base[2].clone()];
                    assert_outputs_match(late_twin.output_relation(), &oracle(&q2, &base2), &ctx)?;
                    assert_outputs_match(late_member.output_relation(), late_twin.output_relation(), &ctx)?;
                }
                None => {
                    let mut late_member = engine(&q2, &db);
                    prop_assert_eq!(late_member.share_stores(&hub), 2, "R and T adopted");
                    late = Some((late_member, engine(&q2, &db)));
                }
            }
        }
    }
}

/// Deterministic end-to-end check mirroring Kara et al.'s triangle setting:
/// maintain the triangle count under interleaved inserts/deletes and
/// compare against brute force over the final edge set.
#[test]
fn triangle_count_brute_force_cross_check() {
    let q = triangle_query();
    let e = q.atoms[0].name;
    let mut eng = DataflowEngine::<i64>::new(q, &Database::new(), lift_one).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let mut edges = std::collections::HashMap::<(u64, u64), i64>::new();
    for _ in 0..400 {
        let a = rng.gen_range(0..12u64);
        let b = rng.gen_range(0..12u64);
        let cur = edges.entry((a, b)).or_insert(0);
        let m: i64 = if rng.gen_bool(0.35) && *cur > 0 {
            -1
        } else {
            1
        };
        *cur += m;
        eng.apply(&Update::with_payload(e, ivm_data::tup![a, b], m))
            .unwrap();
    }
    edges.retain(|_, v| *v != 0);
    let mut brute = 0i64;
    for (&(a, b), &m1) in &edges {
        for (&(b2, c), &m2) in &edges {
            if b2 != b {
                continue;
            }
            if let Some(&m3) = edges.get(&(c, a)) {
                brute += m1 * m2 * m3;
            }
        }
    }
    assert_eq!(eng.output_relation().get(&Tuple::empty()), brute);
}

/// The engine accepts every query of the q-hierarchical family used in
/// `engine_equivalence.rs` *and* queries outside that class — construction
/// is total over conjunctive queries.
#[test]
fn construction_is_total_over_query_shapes() {
    let queries = [
        ivm_query::examples::fig3_query(),
        ivm_query::examples::ex43_non_hierarchical(),
        ivm_query::examples::path3_query(),
        triangle_query(),
        triangle_listing_query(),
    ];
    for q in queries {
        let eng = DataflowEngine::<i64>::new(q.clone(), &Database::new(), lift_one);
        assert!(eng.is_ok(), "construction failed for {q:?}");
    }
}

/// Value-typed columns flow through the dataflow unchanged (string keys).
#[test]
fn string_valued_columns_supported() {
    let [k, v] = ivm_data::vars(["dfq_strK", "dfq_strV"]);
    let (rn, sn) = (sym("dfq_strR"), sym("dfq_strS"));
    let q = Query::new(
        "dfq_str",
        [k],
        vec![Atom::new(rn, [k, v]), Atom::new(sn, [k])],
    );
    let mut eng = DataflowEngine::<i64>::new(q, &Database::new(), lift_one).unwrap();
    eng.apply(&Update::insert(
        rn,
        Tuple::new([Value::str("apple"), Value::from(1i64)]),
    ))
    .unwrap();
    eng.apply(&Update::insert(sn, Tuple::new([Value::str("apple")])))
        .unwrap();
    eng.apply(&Update::insert(sn, Tuple::new([Value::str("pear")])))
        .unwrap();
    assert_eq!(eng.output().get(&Tuple::new([Value::str("apple")])), 1);
    assert_eq!(eng.output().get(&Tuple::new([Value::str("pear")])), 0);
}
