//! From-scratch evaluation of a query over a base database — the reference
//! every maintained view is compared with.

use ivm::data::ops::{eval_join_aggregate, lift_one};
use ivm::data::{Database, FxHashMap, Relation, Schema, Tuple};
use ivm::Query;

/// Evaluate `query` over `db` with no incremental state.
pub fn evaluate(query: &Query, db: &Database<i64>) -> Relation<i64> {
    triangle(query, db).unwrap_or_else(|| join_aggregate(query, db))
}

/// The textbook join-then-aggregate, one relation copy per atom
/// (self-joins get one copy each, as the semantics require).
fn join_aggregate(query: &Query, db: &Database<i64>) -> Relation<i64> {
    let per_atom: Vec<Relation<i64>> = query
        .atoms
        .iter()
        .map(|atom| {
            Relation::from_rows(
                atom.schema.clone(),
                db.relation(atom.name).iter().map(|(t, r)| (t.clone(), *r)),
            )
        })
        .collect();
    let refs: Vec<&Relation<i64>> = per_atom.iter().collect();
    eval_join_aggregate(&refs, &query.free, lift_one)
}

fn ints(t: &Tuple) -> (i64, i64) {
    let at = |i| t.at(i).as_int().expect("edge endpoints are integers");
    (at(0), at(1))
}

/// Triangle-shaped queries `R(a,b)·S(b,c)·T(c,a)` by index nested loops.
/// Joining any two of the three relations first materializes every
/// 2-path through a hub — quadratic in the hub degree — which the skewed
/// workloads make infeasible; this probes the third relation instead.
fn triangle(query: &Query, db: &Database<i64>) -> Option<Relation<i64>> {
    let [r, s, t] = query.atoms.as_slice() else {
        return None;
    };
    let (&[a, b], &[b2, c], &[c2, a2]) = (r.schema.vars(), s.schema.vars(), t.schema.vars()) else {
        return None;
    };
    if (a, b, c) != (a2, b2, c2) {
        return None;
    }
    let mut s_by_b: FxHashMap<i64, Vec<(i64, i64)>> = FxHashMap::default();
    for (tuple, m) in db.relation(s.name).iter() {
        let (b, c) = ints(tuple);
        s_by_b.entry(b).or_default().push((c, *m));
    }
    let t_by_ca: FxHashMap<(i64, i64), i64> = db
        .relation(t.name)
        .iter()
        .map(|(tuple, m)| (ints(tuple), *m))
        .collect();
    let positions = Schema::from([a, b, c]).positions_of(&query.free);
    let mut out = Relation::new(query.free.clone());
    for (tuple, mr) in db.relation(r.name).iter() {
        let (a, b) = ints(tuple);
        for &(c, ms) in s_by_b.get(&b).map_or(&[][..], Vec::as_slice) {
            if let Some(mt) = t_by_ca.get(&(c, a)) {
                out.apply(Tuple::from([a, b, c]).project(&positions), &(mr * ms * mt));
            }
        }
    }
    Some(out)
}

/// Whether two views hold exactly the same tuples and payloads.
pub fn same_view(got: &Relation<i64>, expect: &Relation<i64>) -> bool {
    got.len() == expect.len() && expect.iter().all(|(t, p)| got.get(t) == *p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm::data::{sym, vars};
    use ivm::Atom;

    /// The index nested-loop path agrees with the textbook evaluation.
    #[test]
    fn triangle_path_matches_join_aggregate() {
        let [a, b, c] = vars(["pbo_A", "pbo_B", "pbo_C"]);
        let e = sym("pbo_E");
        let atoms = vec![
            Atom::new(e, [a, b]),
            Atom::new(e, [b, c]),
            Atom::new(e, [c, a]),
        ];
        let mut db = Database::new();
        let mut rel = Relation::new(Schema::from([a, b]));
        for (x, y) in [(1i64, 2i64), (2, 3), (3, 1), (3, 1), (1, 3), (3, 2), (2, 1)] {
            rel.insert(Tuple::from([x, y]));
        }
        db.add(e, rel);
        for free in [Schema::empty(), Schema::from([c, a, b])] {
            let q = Query::new("pbo_q", free.clone(), atoms.clone());
            let fast = triangle(&q, &db).expect("triangle-shaped");
            let slow = join_aggregate(&q, &db);
            assert!(!slow.is_empty());
            assert!(same_view(&fast, &slow), "{fast:?} vs {slow:?}");
        }
    }
}
