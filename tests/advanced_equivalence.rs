//! Second property suite: the specialized engines (CQAP, insert-only,
//! Ex 5.1's heavy-light plan, covariance-ring trees) against brute-force oracles.

use ivm_core::acyclic::InsertOnlyEngine;
use ivm_core::cqap::CqapEngine;
use ivm_core::viewtree::ViewTree;
use ivm_core::Maintainer;
use ivm_data::ops::{eval_join_aggregate, lift_one};
use ivm_data::{sym, FxHashMap, Relation, Tuple, Update, Value};
use ivm_hl::QhEps;
use ivm_ring::{Covar, Semiring};
use proptest::prelude::*;

// CQAP triangle detection: probes agree with a brute-force edge set for
// any mix of inserts and (valid) deletes.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cqap_probe_matches_bruteforce(
        ops in proptest::collection::vec(((0u64..5, 0u64..5), proptest::bool::ANY), 0..40),
        probes in proptest::collection::vec((0u64..5, 0u64..5, 0u64..5), 0..30),
    ) {
        let q = ivm_query::examples::triangle_detect_cqap();
        let mut eng: CqapEngine<i64> = CqapEngine::new(q, lift_one).unwrap();
        let e = sym("tdc_E");
        let mut edges: FxHashMap<(u64, u64), i64> = FxHashMap::default();
        for ((a, b), del) in ops {
            let cur = edges.entry((a, b)).or_insert(0);
            let m: i64 = if del && *cur > 0 { -1 } else { 1 };
            *cur += m;
            eng.apply(&Update::with_payload(e, ivm_data::tup![a, b], m)).unwrap();
        }
        edges.retain(|_, v| *v != 0);
        for (a, b, c) in probes {
            let expect = edges.get(&(a, b)).copied().unwrap_or(0)
                * edges.get(&(b, c)).copied().unwrap_or(0)
                * edges.get(&(c, a)).copied().unwrap_or(0);
            prop_assert_eq!(
                eng.probe(&ivm_data::tup![a, b, c]).unwrap(),
                expect,
                "probe ({}, {}, {})", a, b, c
            );
        }
    }

    /// Insert-only engine ≡ from-scratch evaluation on the 3-path, for any
    /// insert sequence and any interleaving of enumerations.
    #[test]
    fn insert_only_matches_oracle(
        ops in proptest::collection::vec((0usize..3, 0i64..4, 0i64..4), 0..50),
        check_at in proptest::collection::vec(0usize..50, 0..4),
    ) {
        let q = ivm_query::examples::path3_query();
        let names = [sym("p3_R"), sym("p3_S"), sym("p3_T")];
        let mut eng: InsertOnlyEngine<i64> = InsertOnlyEngine::new(q.clone()).unwrap();
        let mut oracle: Vec<Relation<i64>> = q
            .atoms
            .iter()
            .map(|a| Relation::new(a.schema.clone()))
            .collect();
        for (i, &(rel, x, y)) in ops.iter().enumerate() {
            let t: Tuple = [x, y].iter().map(|&v| Value::from(v)).collect();
            oracle[rel].apply(t.clone(), &1);
            eng.insert(&Update::insert(names[rel], t)).unwrap();
            if check_at.contains(&i) {
                let refs: Vec<&Relation<i64>> = oracle.iter().collect();
                let expect = eval_join_aggregate(&refs, &q.free, lift_one);
                let got = eng.output().unwrap();
                prop_assert_eq!(got.len(), expect.len(), "at op {}", i);
                for (t, p) in expect.iter() {
                    prop_assert_eq!(&got.get(t), p);
                }
            }
        }
    }

    /// Ex 5.1's heavy-light plan agrees with the oracle for every ε on arbitrary valid
    /// streams (including S-side deletes and degree churn).
    #[test]
    fn qh_eps_matches_oracle(
        ops in proptest::collection::vec(
            (proptest::bool::ANY, 0u64..6, 0u64..4, proptest::bool::ANY),
            0..60
        ),
        eps_idx in 0usize..5,
    ) {
        let eps = [0.0, 0.25, 0.5, 0.75, 1.0][eps_idx];
        let mut eng = QhEps::<u64, i64>::new(eps);
        let mut r: FxHashMap<(u64, u64), i64> = FxHashMap::default();
        let mut s: FxHashMap<u64, i64> = FxHashMap::default();
        for (is_r, a, b, del) in ops {
            if is_r {
                let cur = r.entry((a, b)).or_insert(0);
                let m: i64 = if del && *cur > 0 { -1 } else { 1 };
                *cur += m;
                eng.apply_r(&a, &b, &m);
            } else {
                let cur = s.entry(b).or_insert(0);
                let m: i64 = if del && *cur > 0 { -1 } else { 1 };
                *cur += m;
                eng.apply_s(&b, &m);
            }
        }
        // Oracle: Q(a) = Σ_b R(a,b)·S(b).
        let mut expect: FxHashMap<u64, i64> = FxHashMap::default();
        for (&(a, b), &rm) in &r {
            let sv = s.get(&b).copied().unwrap_or(0);
            if rm != 0 && sv != 0 {
                *expect.entry(a).or_insert(0) += rm * sv;
            }
        }
        expect.retain(|_, v| *v != 0);
        prop_assert_eq!(eng.output(), expect, "eps={}", eps);
    }
}

/// A covariance-ring view tree maintains exactly the statistics of the
/// (unmaterialized) join: count, sums, and cross-moments all match a
/// materialize-then-aggregate oracle.
#[test]
fn covariance_tree_matches_materialized_statistics() {
    use ivm_query::{Atom, Query};
    // Q() = Σ R(K, X) · S(K, Y): features X (index 0) and Y (index 1).
    let [k, x, y] = ivm_data::vars(["cov_K", "cov_X", "cov_Y"]);
    let (rn, sn) = (sym("cov_R"), sym("cov_S"));
    let q = Query::new(
        "cov_Q",
        [],
        vec![Atom::new(rn, [k, x]), Atom::new(sn, [k, y])],
    );
    fn lift(var: ivm_data::Sym, v: &Value) -> Covar<2> {
        match var.name().as_str() {
            "cov_X" => Covar::lift(0, v.to_f64()),
            "cov_Y" => Covar::lift(1, v.to_f64()),
            _ => Covar::one(),
        }
    }
    let mut tree: ViewTree<Covar<2>> = ViewTree::new(q, lift).unwrap();

    let r_rows = [(0i64, 2i64), (0, 3), (1, 5), (2, 7)];
    let s_rows = [(0i64, 10i64), (1, 20), (1, 30)];
    for &(kk, xx) in &r_rows {
        tree.apply(&Update::with_payload(
            rn,
            ivm_data::tup![kk, xx],
            Covar::one(),
        ))
        .unwrap();
    }
    for &(kk, yy) in &s_rows {
        tree.apply(&Update::with_payload(
            sn,
            ivm_data::tup![kk, yy],
            Covar::one(),
        ))
        .unwrap();
    }
    let mut agg = Covar::<2>::zero();
    tree.for_each_output(&mut |_, c| agg.add_assign(c));

    // Oracle: materialize the join, accumulate statistics.
    let mut n = 0i64;
    let (mut sx, mut sy, mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(kr, xx) in &r_rows {
        for &(ks, yy) in &s_rows {
            if kr == ks {
                n += 1;
                sx += xx as f64;
                sy += yy as f64;
                sxy += (xx * yy) as f64;
                sxx += (xx * xx) as f64;
                syy += (yy * yy) as f64;
            }
        }
    }
    assert_eq!(agg.count(), n);
    assert_eq!(agg.sum(0), sx);
    assert_eq!(agg.sum(1), sy);
    assert_eq!(agg.moment(0, 1), sxy);
    assert_eq!(agg.moment(0, 0), sxx);
    assert_eq!(agg.moment(1, 1), syy);

    // Deletes roll the statistics back exactly.
    for &(kk, xx) in &r_rows {
        tree.apply(&Update::with_payload(
            rn,
            ivm_data::tup![kk, xx],
            Covar::one().neg_wrapper(),
        ))
        .unwrap();
    }
    let mut agg2 = Covar::<2>::zero();
    tree.for_each_output(&mut |_, c| agg2.add_assign(c));
    assert!(agg2.is_zero());
}

/// `Ring::neg` through a helper (keeps the test readable).
trait NegWrapper {
    fn neg_wrapper(&self) -> Self;
}

impl NegWrapper for Covar<2> {
    fn neg_wrapper(&self) -> Self {
        ivm_ring::Ring::neg(self)
    }
}

/// The view tree is generic over *semirings*, not just rings: a min-plus
/// payload computes the cheapest derivation of each output tuple under an
/// insert-only stream (Sec. 4.6's setting, where inverses are not needed).
#[test]
fn tropical_viewtree_cheapest_derivation() {
    use ivm_query::{Atom, Query};
    use ivm_ring::MinPlus;
    // Q(K) = Σ_X,Y R(K, X) · S(K, Y): cost of a K-group = min over
    // derivations of (cost_R + cost_S), with costs lifted from X and Y.
    let [k, x, y] = ivm_data::vars(["mp_K", "mp_X", "mp_Y"]);
    let (rn, sn) = (sym("mp_R"), sym("mp_S"));
    let q = Query::new(
        "mp_Q",
        [k],
        vec![Atom::new(rn, [k, x]), Atom::new(sn, [k, y])],
    );
    fn lift(var: ivm_data::Sym, v: &Value) -> MinPlus {
        let name = var.name();
        if name == "mp_X" || name == "mp_Y" {
            MinPlus::cost(v.to_f64())
        } else {
            MinPlus::one()
        }
    }
    let mut tree: ViewTree<MinPlus> = ViewTree::new(q, lift).unwrap();
    for &(kk, cost) in &[(1i64, 7i64), (1, 3), (2, 10)] {
        tree.apply(&Update::with_payload(
            rn,
            ivm_data::tup![kk, cost],
            MinPlus::one(),
        ))
        .unwrap();
    }
    for &(kk, cost) in &[(1i64, 5i64), (2, 2)] {
        tree.apply(&Update::with_payload(
            sn,
            ivm_data::tup![kk, cost],
            MinPlus::one(),
        ))
        .unwrap();
    }
    let mut out: FxHashMap<i64, f64> = FxHashMap::default();
    tree.for_each_output(&mut |t, m| {
        out.insert(t.at(0).as_int().unwrap(), m.0);
    });
    // k=1: min(7,3) + 5 = 8; k=2: 10 + 2 = 12.
    assert_eq!(out.get(&1).copied(), Some(8.0));
    assert_eq!(out.get(&2).copied(), Some(12.0));
}

/// Delay smoke check: enumeration of a factorized output produces its
/// first tuple without touching the whole output (the constant-delay
/// guarantee, observed through work done before the first callback).
#[test]
fn first_tuple_does_not_scan_output() {
    use ivm_core::{EagerFactEngine, Maintainer};
    use ivm_data::Database;
    use std::time::Instant;
    let q = ivm_query::examples::fig3_query();
    let (rn, sn) = (sym("f3_R"), sym("f3_S"));
    let mut eng = EagerFactEngine::<i64>::new(q, &Database::new(), lift_one).unwrap();
    // One Y-group with a large cross product: 300 × 300 = 90k tuples.
    for i in 0..300i64 {
        eng.apply(&Update::insert(rn, ivm_data::tup![1i64, i]))
            .unwrap();
        eng.apply(&Update::insert(sn, ivm_data::tup![1i64, i]))
            .unwrap();
    }
    let t0 = Instant::now();
    let mut first = None;
    let mut count = 0usize;
    eng.for_each_output(&mut |_, _| {
        if first.is_none() {
            first = Some(t0.elapsed());
        }
        count += 1;
    });
    let total = t0.elapsed();
    assert_eq!(count, 90_000);
    let first = first.unwrap();
    // The first tuple must arrive in a tiny fraction of the full scan.
    assert!(
        first.as_nanos() * 50 < total.as_nanos().max(1),
        "first tuple after {first:?} of {total:?} total"
    );
}
