//! The three relational operators of Sec. 2: union `⊎`, natural join `·`,
//! and aggregation `Σ_X`.
//!
//! These are *batch* operators: they materialize their output. The
//! incremental engines in `ivm-core` use them for preprocessing, for lazy
//! re-evaluation, and as the from-scratch oracle that every property test
//! compares maintained state against.

use crate::relation::{GroupedIndex, Relation};
use crate::schema::{Schema, Sym};
use crate::value::Value;
use ivm_ring::Semiring;

/// Union `R ⊎ S`: point-wise ring addition. Schemas must match.
pub fn union<R: Semiring>(a: &Relation<R>, b: &Relation<R>) -> Relation<R> {
    assert_eq!(
        a.schema(),
        b.schema(),
        "union requires identical schemas ({:?} vs {:?})",
        a.schema(),
        b.schema()
    );
    let mut out = a.clone();
    for (t, r) in b.iter() {
        out.apply(t.clone(), r);
    }
    out
}

/// Natural join `S · T`: for every pair of tuples agreeing on the shared
/// variables, output their combined tuple with multiplied payloads.
///
/// The output schema is `a`'s variables followed by `b`'s remaining ones.
/// Runs in time O(|a| + |b| + |output|) via a hash index on `b`.
pub fn join<R: Semiring>(a: &Relation<R>, b: &Relation<R>) -> Relation<R> {
    let common = a.schema().intersect(b.schema());
    let out_schema = a.schema().union(b.schema());
    let idx = GroupedIndex::from_relation(b, common.clone());
    let a_common_pos = a.schema().positions_of(&common);
    let mut out = Relation::new(out_schema);
    for (ta, ra) in a.iter() {
        let key = ta.project(&a_common_pos);
        if let Some(group) = idx.group(&key) {
            for (residual, rb) in group.iter() {
                out.apply(ta.concat(residual), &ra.times(rb));
            }
        }
    }
    out
}

/// A lifting function `g_X`: maps an `X`-value to a ring element when `X`
/// is marginalized (Sec. 2). The default [`lift_one`] maps everything to
/// `1`, which makes `Σ_X` a pure multiplicity marginalization.
pub type Lift<R> = fn(Sym, &Value) -> R;

/// The default lifting: `g_X(x) = 1` for all variables and values.
pub fn lift_one<R: Semiring>(_var: Sym, _v: &Value) -> R {
    R::one()
}

/// Aggregation `Σ_X R` marginalizing a single bound variable `X` with
/// lifting `g_X`: each tuple `t` contributes `R(t) * g_X(t.X)` to its
/// projection on `schema \ {X}`.
pub fn marginalize<R: Semiring>(rel: &Relation<R>, var: Sym, lift: Lift<R>) -> Relation<R> {
    let out_schema = rel.schema().difference(&Schema::from([var]));
    let out_pos = rel.schema().positions_of(&out_schema);
    let var_pos = rel
        .schema()
        .position(var)
        .unwrap_or_else(|| panic!("cannot marginalize {var}: not in {:?}", rel.schema()));
    let mut out = Relation::new(out_schema);
    for (t, r) in rel.iter() {
        let contrib = r.times(&lift(var, t.at(var_pos)));
        out.apply(t.project(&out_pos), &contrib);
    }
    out
}

/// Aggregation onto a set of group-by variables: marginalizes every other
/// variable with `lift`, in schema order, and orders the columns as
/// `group_by`. One pass: each tuple contributes `R(t)·g_X1(t.X1)·g_X2(t.X2)…`
/// to its group-by projection — the chained [`marginalize`] by
/// distributivity, without an intermediate relation per variable.
pub fn aggregate<R: Semiring>(rel: &Relation<R>, group_by: &Schema, lift: Lift<R>) -> Relation<R> {
    let proj = LiftedProjection::new(rel.schema(), group_by, lift);
    let mut out = Relation::new(group_by.clone());
    let mut key = Vec::new();
    for (t, r) in rel.iter() {
        proj.accumulate(&mut out, t.values(), r.clone(), &mut key);
    }
    out
}

/// One row's step of [`aggregate`], planned once per input schema and
/// group-by: which positions form the group key, and which variables are
/// marginalized — their lifts multiply in in input-schema order, the ring
/// order of the chained [`marginalize`]. The multiway join's search emits
/// each full binding through this too.
pub struct LiftedProjection<R> {
    group_pos: Box<[usize]>,
    bound: Box<[(usize, Sym)]>,
    lift: Lift<R>,
}

impl<R: Semiring> LiftedProjection<R> {
    /// Project rows over `schema` onto `group_by ⊆ schema`, marginalizing
    /// every other variable with `lift`.
    pub fn new(schema: &Schema, group_by: &Schema, lift: Lift<R>) -> Self {
        assert!(
            group_by.subset_of(schema),
            "group-by {group_by:?} must be within {schema:?}"
        );
        let bound = schema.vars().iter().enumerate();
        let bound = bound.filter(|&(_, &v)| !group_by.contains(v));
        LiftedProjection {
            group_pos: schema.positions_of(group_by).into(),
            bound: bound.map(|(p, &v)| (p, v)).collect(),
            lift,
        }
    }

    /// Add `r·g_X1(row.X1)·g_X2(row.X2)…` to `out` under `row`'s group-by
    /// projection. The key is assembled in `key`, a buffer the caller
    /// keeps across rows, and moves into `out` only when new
    /// ([`Relation::apply_buffered`]).
    pub fn accumulate(&self, out: &mut Relation<R>, row: &[Value], mut r: R, key: &mut Vec<Value>) {
        for &(p, v) in self.bound.iter() {
            r = r.times(&(self.lift)(v, &row[p]));
        }
        key.clear();
        // Exactly the key's length, so a moved-out key needs no shrinking.
        key.reserve_exact(self.group_pos.len());
        key.extend(self.group_pos.iter().map(|&p| row[p].clone()));
        out.apply_buffered(key, r);
    }
}

/// Evaluate `Q(group_by) = Σ_bound Π_i R_i` from scratch: join all inputs,
/// then aggregate. The textbook evaluation every engine is tested against.
pub fn eval_join_aggregate<R: Semiring>(
    relations: &[&Relation<R>],
    group_by: &Schema,
    lift: Lift<R>,
) -> Relation<R> {
    assert!(!relations.is_empty(), "need at least one relation");
    let mut acc = relations[0].clone();
    for rel in &relations[1..] {
        acc = join(&acc, rel);
    }
    aggregate(&acc, group_by, lift)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::vars;
    use crate::tup;
    use crate::tuple::Tuple;

    fn rel(schema: Schema, rows: &[(Tuple, i64)]) -> Relation<i64> {
        Relation::from_rows(schema, rows.iter().cloned())
    }

    #[test]
    fn paper_fig2_triangle_join_and_count() {
        // Fig 2 (top row): R, S, T with integer payloads; the triangle
        // count is 19.
        let [a, b, c] = vars(["ops_A", "ops_B", "ops_C"]);
        let r = rel(
            Schema::from([a, b]),
            &[(tup![1i64, 1i64], 2), (tup![2i64, 1i64], 3)],
        );
        let s = rel(
            Schema::from([b, c]),
            &[(tup![1i64, 1i64], 2), (tup![1i64, 2i64], 1)],
        );
        let t = rel(
            Schema::from([c, a]),
            &[
                (tup![1i64, 1i64], 1),
                (tup![2i64, 1i64], 3),
                (tup![2i64, 2i64], 3),
            ],
        );
        let rst = join(&join(&r, &s), &t);
        assert_eq!(rst.get(&tup![1i64, 1i64, 1i64]), 4); // 2*2*1
        assert_eq!(rst.get(&tup![1i64, 1i64, 2i64]), 6); // 2*1*3
        assert_eq!(rst.get(&tup![2i64, 1i64, 2i64]), 9); // 3*1*3
        assert_eq!(rst.len(), 3);

        let q = aggregate(&rst, &Schema::empty(), lift_one);
        assert_eq!(q.get(&Tuple::empty()), 19);
    }

    #[test]
    fn join_multiplies_payloads() {
        let [x, y, z] = vars(["ops_X", "ops_Y", "ops_Z"]);
        let r = rel(Schema::from([x, y]), &[(tup![1i64, 2i64], 3)]);
        let s = rel(Schema::from([y, z]), &[(tup![2i64, 5i64], 7)]);
        let j = join(&r, &s);
        assert_eq!(j.schema(), &Schema::from([x, y, z]));
        assert_eq!(j.get(&tup![1i64, 2i64, 5i64]), 21);
    }

    #[test]
    fn join_on_disjoint_schemas_is_cartesian_product() {
        let [x, y] = vars(["ops_X2", "ops_Y2"]);
        let r = rel(Schema::from([x]), &[(tup![1i64], 2), (tup![2i64], 1)]);
        let s = rel(Schema::from([y]), &[(tup![10i64], 3)]);
        let j = join(&r, &s);
        assert_eq!(j.len(), 2);
        assert_eq!(j.get(&tup![1i64, 10i64]), 6);
    }

    #[test]
    fn union_adds_and_cancels() {
        let [x] = vars(["ops_X3"]);
        let r = rel(Schema::from([x]), &[(tup![1i64], 2)]);
        let d = rel(Schema::from([x]), &[(tup![1i64], -2), (tup![2i64], 1)]);
        let u = union(&r, &d);
        assert_eq!(u.len(), 1);
        assert_eq!(u.get(&tup![2i64]), 1);
    }

    #[test]
    fn marginalize_with_lifting() {
        let [x, y] = vars(["ops_X4", "ops_Y4"]);
        let r = rel(
            Schema::from([x, y]),
            &[(tup![1i64, 10i64], 2), (tup![1i64, 20i64], 1)],
        );
        // Lift Y-values into the payload: g_Y(y) = y.
        fn lift_val(_: Sym, v: &Value) -> i64 {
            v.as_int().unwrap()
        }
        let m = marginalize(&r, y, lift_val);
        assert_eq!(m.get(&tup![1i64]), 2 * 10 + 20);
    }

    #[test]
    fn aggregate_reorders_group_by() {
        let [x, y, z] = vars(["ops_X5", "ops_Y5", "ops_Z5"]);
        let r = rel(Schema::from([x, y, z]), &[(tup![1i64, 2i64, 3i64], 1)]);
        let agg = aggregate(&r, &Schema::from([z, x]), lift_one);
        assert_eq!(agg.schema(), &Schema::from([z, x]));
        assert_eq!(agg.get(&tup![3i64, 1i64]), 1);
    }

    #[test]
    fn eval_join_aggregate_matches_manual() {
        let [x, y, z] = vars(["ops_X6", "ops_Y6", "ops_Z6"]);
        let r = rel(
            Schema::from([x, y]),
            &[(tup![1i64, 1i64], 1), (tup![2i64, 1i64], 1)],
        );
        let s = rel(Schema::from([y, z]), &[(tup![1i64, 5i64], 2)]);
        let q = eval_join_aggregate(&[&r, &s], &Schema::from([x]), lift_one);
        assert_eq!(q.get(&tup![1i64]), 2);
        assert_eq!(q.get(&tup![2i64]), 2);
    }
}
