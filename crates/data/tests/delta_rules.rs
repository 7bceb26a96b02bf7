//! Property tests for the relational operators: the delta rules of
//! Sec. 3.1 (Eq. 1–3) hold as algebraic identities, join/union laws, and
//! grouped-index consistency.

use ivm_data::ops::{aggregate, join, lift_one, marginalize, union};
use ivm_data::{sym, GroupedIndex, Relation, Schema, Sym, Tuple, Value};
use proptest::prelude::*;

fn schema2(n1: &str, n2: &str) -> Schema {
    Schema::from([sym(n1), sym(n2)])
}

/// A small random relation over two integer columns with payloads in
/// [-3, 3] (deltas include deletes).
fn small_rel(n1: &'static str, n2: &'static str) -> impl Strategy<Value = Relation<i64>> {
    proptest::collection::vec(((0i64..6, 0i64..6), -3i64..4), 0..12).prop_map(move |rows| {
        Relation::from_rows(
            schema2(n1, n2),
            rows.into_iter().map(|((x, y), m)| (Tuple::from([x, y]), m)),
        )
    })
}

fn assert_rel_eq(a: &Relation<i64>, b: &Relation<i64>) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "sizes differ: {:?} vs {:?}", a, b);
    for (t, r) in a.iter() {
        // Align column order if schemas are permutations of each other.
        let t2 = if a.schema() == b.schema() {
            t.clone()
        } else {
            t.project(&a.schema().positions_of(b.schema()))
        };
        prop_assert_eq!(&b.get(&t2), r, "payload differs at {:?}", t);
    }
    Ok(())
}

proptest! {
    /// Eq. (1): δ(V1 ⊎ V2) = δV1 ⊎ δV2 — union is ring-linear.
    #[test]
    fn union_is_linear(
        v1 in small_rel("dr_A", "dr_B"),
        v2 in small_rel("dr_A", "dr_B"),
        d1 in small_rel("dr_A", "dr_B"),
        d2 in small_rel("dr_A", "dr_B"),
    ) {
        let lhs = union(&union(&v1, &d1), &union(&v2, &d2));
        let rhs = union(&union(&v1, &v2), &union(&d1, &d2));
        assert_rel_eq(&lhs, &rhs)?;
    }

    /// Eq. (2): (V1 ⊎ δV1)·(V2 ⊎ δV2) =
    ///          V1·V2 ⊎ δV1·V2 ⊎ V1·δV2 ⊎ δV1·δV2.
    #[test]
    fn join_delta_rule(
        v1 in small_rel("dr_A", "dr_B"),
        v2 in small_rel("dr_B", "dr_C"),
        d1 in small_rel("dr_A", "dr_B"),
        d2 in small_rel("dr_B", "dr_C"),
    ) {
        let lhs = join(&union(&v1, &d1), &union(&v2, &d2));
        let rhs = union(
            &union(&join(&v1, &v2), &join(&d1, &v2)),
            &union(&join(&v1, &d2), &join(&d1, &d2)),
        );
        assert_rel_eq(&lhs, &rhs)?;
    }

    /// Eq. (3): Σ_X (V ⊎ δV) = Σ_X V ⊎ Σ_X δV.
    #[test]
    fn aggregation_delta_rule(
        v in small_rel("dr_A", "dr_B"),
        d in small_rel("dr_A", "dr_B"),
    ) {
        let x = sym("dr_B");
        let lhs = marginalize(&union(&v, &d), x, lift_one);
        let rhs = union(&marginalize(&v, x, lift_one), &marginalize(&d, x, lift_one));
        assert_rel_eq(&lhs, &rhs)?;
    }

    /// Join is commutative up to column order.
    #[test]
    fn join_commutes(
        r in small_rel("dr_A", "dr_B"),
        s in small_rel("dr_B", "dr_C"),
    ) {
        let rs = join(&r, &s);
        let sr = join(&s, &r);
        prop_assert_eq!(rs.len(), sr.len());
        for (t, payload) in rs.iter() {
            let reordered = t.project(&rs.schema().positions_of(sr.schema()));
            prop_assert_eq!(&sr.get(&reordered), payload);
        }
    }

    /// Join is associative.
    #[test]
    fn join_associates(
        r in small_rel("dr_A", "dr_B"),
        s in small_rel("dr_B", "dr_C"),
        t in small_rel("dr_C", "dr_D"),
    ) {
        let left = join(&join(&r, &s), &t);
        let right = join(&r, &join(&s, &t));
        assert_rel_eq(&left, &right)?;
    }

    /// Aggregation order does not matter (Σ_X Σ_Y = Σ_Y Σ_X).
    #[test]
    fn marginalization_commutes(v in small_rel("dr_A", "dr_B")) {
        let (a, b) = (sym("dr_A"), sym("dr_B"));
        let ab = marginalize(&marginalize(&v, a, lift_one), b, lift_one);
        let ba = marginalize(&marginalize(&v, b, lift_one), a, lift_one);
        prop_assert_eq!(ab.get(&Tuple::empty()), ba.get(&Tuple::empty()));
        // And both equal the relation total.
        prop_assert_eq!(ab.get(&Tuple::empty()), v.total());
    }

    /// A grouped index maintained tuple-by-tuple agrees with one built from
    /// the final relation, for any interleaving of inserts and deletes.
    #[test]
    fn grouped_index_consistency(
        ops in proptest::collection::vec(((0i64..5, 0i64..5), -2i64..3), 0..30)
    ) {
        let schema = schema2("dr_gA", "dr_gB");
        let key = Schema::from([sym("dr_gA")]);
        let mut rel: Relation<i64> = Relation::new(schema.clone());
        let mut idx: GroupedIndex<i64> = GroupedIndex::new(schema, key.clone());
        for ((x, y), m) in ops {
            let t = Tuple::from([x, y]);
            rel.apply(t.clone(), &m);
            idx.apply(&t, &m);
        }
        let rebuilt = GroupedIndex::from_relation(&rel, key);
        prop_assert_eq!(idx.group_count(), rebuilt.group_count());
        for (k, g) in rebuilt.iter_groups() {
            let live = idx.group(k).expect("missing group");
            prop_assert_eq!(live.total(), g.total());
            prop_assert_eq!(live.len(), g.len());
            for (res, payload) in g.iter() {
                prop_assert_eq!(&live.get(res), payload);
            }
        }
    }

    /// Aggregation with the identity lifting preserves the grand total.
    #[test]
    fn aggregate_preserves_total(v in small_rel("dr_A", "dr_B")) {
        let agg = aggregate(&v, &Schema::from([sym("dr_A")]), lift_one);
        prop_assert_eq!(agg.total(), v.total());
    }

    /// One-pass `aggregate` ≡ marginalizing the bound variables one at a
    /// time in schema order, then reordering the columns — under a lifting
    /// that depends on both the variable and the value, for every subset
    /// of group-by variables (the empty one included), in schema order and
    /// reversed.
    #[test]
    fn aggregate_equals_chained_marginalize(
        rows in proptest::collection::vec(((0i64..4, 0i64..4, 0i64..4), -3i64..4), 0..24),
    ) {
        let vars = [sym("dr_aA"), sym("dr_aB"), sym("dr_aC")];
        let rel = Relation::from_rows(
            Schema::from(vars),
            rows.into_iter().map(|((x, y, z), m)| (Tuple::from([x, y, z]), m)),
        );
        for mask in 0..8usize {
            let group: Vec<Sym> = (0..3).filter(|i| mask >> i & 1 == 1).map(|i| vars[i]).collect();
            for group_by in [Schema::new(group.clone()), Schema::new(group.into_iter().rev())] {
                let mut chained = rel.clone();
                for &v in rel.schema().difference(&group_by).vars() {
                    chained = marginalize(&chained, v, lift_by_var);
                }
                let one_pass = aggregate(&rel, &group_by, lift_by_var);
                prop_assert_eq!(one_pass.schema(), &group_by);
                assert_rel_eq(&one_pass, &chained)?;
            }
        }
    }
}

/// A lifting that tells variables and values apart: a mix-up of either
/// changes the payload.
fn lift_by_var(var: Sym, v: &Value) -> i64 {
    let x = v.as_int().unwrap();
    match var.name().as_str() {
        "dr_aA" => x + 2,
        "dr_aB" => 2 * x - 1,
        _ => x * x + 1,
    }
}

/// Lifting with a value-dependent function also satisfies the delta rule —
/// linearity holds point-wise regardless of `g_X`.
#[test]
fn lifted_aggregation_is_linear() {
    fn lift_val(_: Sym, v: &Value) -> i64 {
        v.as_int().unwrap_or(0) * 10
    }
    let schema = schema2("dr_lA", "dr_lB");
    let x = sym("dr_lB");
    let v = Relation::from_rows(schema.clone(), [(Tuple::from([1i64, 2i64]), 3i64)]);
    let d = Relation::from_rows(schema, [(Tuple::from([1i64, 2i64]), -3i64)]);
    let lhs = marginalize(&union(&v, &d), x, lift_val);
    let rhs = union(&marginalize(&v, x, lift_val), &marginalize(&d, x, lift_val));
    assert_eq!(lhs.len(), 0);
    assert_eq!(rhs.len(), 0);
}
