//! Shared test-support module for the equivalence harnesses.
//!
//! Every integration suite that drives an engine against a from-scratch
//! oracle needs the same ingredients: the canonical query shapes
//! (triangle / 4-cycle / star), proptest strategies generating mixed-sign
//! duplicate-heavy update streams, the oracle itself
//! (`eval_join_aggregate` over the mirrored base), and the
//! output-comparison helper. They used to be copy-pasted per suite; this
//! module is the single home, with shapes parameterized by a sym prefix
//! because syms are interned globally — two suites touching the *same*
//! relation name would share state across test binaries' processes only
//! by accident, but sharing names across suites would make failure
//! output ambiguous and couple generator domains. Each suite passes its
//! own prefix (`"pe_"`, `"ae_"`, `"ss_"`, `"obp_"`, `"sv_"`, …).
//!
//! Compiled once per test binary via `mod common;` — each suite uses a
//! subset, hence the module-wide `dead_code` allowance.
#![allow(dead_code)]

pub mod triangle;

use ivm_data::ops::{eval_join_aggregate, lift_one, Lift};
use ivm_data::{sym, tup, Database, FxHashMap, Relation, Schema, Sym, Tuple, Update, Value};
use ivm_query::{Atom, Query};
use proptest::prelude::*;
use std::ops::RangeInclusive;

// ---------------------------------------------------------------------
// Query shapes
// ---------------------------------------------------------------------

/// The cyclic self-join triangle count `Q() = Σ E(a,b)·E(b,c)·E(c,a)`,
/// over relation `{prefix}E`. Unshardable (columns of `E` permute across
/// occurrences), so fleets degenerate to single-shard routing.
pub fn triangle(prefix: &str) -> Query {
    let [a, b, c] = ivm_data::vars([
        format!("{prefix}A").as_str(),
        format!("{prefix}B").as_str(),
        format!("{prefix}C").as_str(),
    ]);
    let e = sym(format!("{prefix}E").as_str());
    Query::new(
        format!("{prefix}tri").as_str(),
        [],
        vec![
            Atom::new(e, [a, b]),
            Atom::new(e, [b, c]),
            Atom::new(e, [c, a]),
        ],
    )
}

/// The cyclic triangle count over THREE DISTINCT relations,
/// `Q() = Σ R(a,b)·S(b,c)·T(c,a)` over `{prefix}3R/{prefix}3S/
/// {prefix}3T` — the shape the heavy-light IVMε engine family admits
/// (the self-join [`triangle`] shares one relation across atoms, which
/// the heavy-light rotation refuses).
pub fn triangle3(prefix: &str) -> Query {
    let [a, b, c] = ivm_data::vars([
        format!("{prefix}3A").as_str(),
        format!("{prefix}3B").as_str(),
        format!("{prefix}3C").as_str(),
    ]);
    Query::new(
        format!("{prefix}tri3").as_str(),
        [],
        vec![
            Atom::new(sym(format!("{prefix}3R").as_str()), [a, b]),
            Atom::new(sym(format!("{prefix}3S").as_str()), [b, c]),
            Atom::new(sym(format!("{prefix}3T").as_str()), [c, a]),
        ],
    )
}

/// The cyclic 4-cycle `Q() = Σ R(a,b)·S(b,c)·T(c,d)·U(d,a)` over four
/// distinct relations `{prefix}4R…{prefix}4U`. Shard plans partition two
/// relations and broadcast the other two — the replication path.
pub fn four_cycle(prefix: &str) -> Query {
    let [a, b, c, d] = ivm_data::vars([
        format!("{prefix}4A").as_str(),
        format!("{prefix}4B").as_str(),
        format!("{prefix}4C").as_str(),
        format!("{prefix}4D").as_str(),
    ]);
    Query::new(
        format!("{prefix}cycle4").as_str(),
        [],
        vec![
            Atom::new(sym(format!("{prefix}4R").as_str()), [a, b]),
            Atom::new(sym(format!("{prefix}4S").as_str()), [b, c]),
            Atom::new(sym(format!("{prefix}4T").as_str()), [c, d]),
            Atom::new(sym(format!("{prefix}4U").as_str()), [d, a]),
        ],
    )
}

/// A 65-edge self-join cycle over relation `{prefix}E` — one atom
/// occurrence past `Query::MAX_ATOMS`, so every engine entry point must
/// refuse it.
pub fn oversized_cycle(prefix: &str) -> Query {
    let n = Query::MAX_ATOMS + 1;
    let v: Vec<Sym> = (0..n).map(|i| sym(&format!("{prefix}X{i}"))).collect();
    let e = sym(format!("{prefix}E").as_str());
    let atoms = (0..n).map(|i| Atom::new(e, [v[i], v[(i + 1) % n]]));
    Query::new(format!("{prefix}cycle{n}").as_str(), [], atoms.collect())
}

/// The acyclic full star `Q(x,y,z,w) = R(x,y)·S(x,z)·T(x,w)` with every
/// variable free, over `{prefix}SR/{prefix}SS/{prefix}ST`. All atoms
/// partition on the shared `x`; nothing broadcasts.
pub fn star(prefix: &str) -> Query {
    let [x, y, z, w] = ivm_data::vars([
        format!("{prefix}SX").as_str(),
        format!("{prefix}SY").as_str(),
        format!("{prefix}SZ").as_str(),
        format!("{prefix}SW").as_str(),
    ]);
    Query::new(
        format!("{prefix}star").as_str(),
        [x, y, z, w],
        vec![
            Atom::new(sym(format!("{prefix}SR").as_str()), [x, y]),
            Atom::new(sym(format!("{prefix}SS").as_str()), [x, z]),
            Atom::new(sym(format!("{prefix}ST").as_str()), [x, w]),
        ],
    )
}

// ---------------------------------------------------------------------
// Generated op streams
// ---------------------------------------------------------------------

/// One generated binary-edge op: (relation pick, edge endpoints, signed
/// ring multiplicity).
pub type EdgeOp = (usize, (u64, u64), i64);

/// One generated wide op: (atom pick, raw column values, signed
/// multiplicity). Tuples are cut to each relation's arity, so one
/// strategy serves every shape from binary edges to 4-column relations.
pub type WideOp = (usize, (u64, u64, u64, u64), i64);

/// The standard binary-edge stream: small value domain (forces
/// duplicates and closures), multiplicities biased to ±1 with occasional
/// ±2, deletes unconditional — absent tuples go to negative multiplicity
/// and must round-trip through every engine identically.
pub fn edge_ops(
    rels: usize,
    domain: u64,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<EdgeOp>> {
    proptest::collection::vec(
        (
            0usize..rels,
            (0u64..domain, 0u64..domain),
            prop_oneof![Just(1i64), Just(1), Just(-1), Just(2), Just(-2)],
        ),
        len,
    )
}

/// The default `edge_ops` shape used by the cross-engine harnesses:
/// up to 4 relations, endpoints in `0..4`, streams of up to 48 ops.
pub fn edge_ops_default() -> impl Strategy<Value = Vec<EdgeOp>> {
    edge_ops(4, 4, 0..48)
}

/// Wide-arity op stream for multi-relation schemas (up to 8 atoms,
/// column values in `0..3`, streams of up to 40 ops).
pub fn wide_ops() -> impl Strategy<Value = Vec<WideOp>> {
    proptest::collection::vec(
        (
            0usize..8,
            (0u64..3, 0u64..3, 0u64..3, 0u64..3),
            prop_oneof![Just(1i64), Just(1), Just(-1), Just(2), Just(-2)],
        ),
        0..40,
    )
}

/// Distinct relations of `q`, in first-occurrence order.
pub fn distinct_relations(q: &Query) -> Vec<Sym> {
    let mut rels = Vec::new();
    for atom in &q.atoms {
        if !rels.contains(&atom.name) {
            rels.push(atom.name);
        }
    }
    rels
}

/// Distinct relations of `q` with their schemas, first-occurrence order.
pub fn distinct_relations_with_schemas(q: &Query) -> Vec<(Sym, Schema)> {
    let mut rels: Vec<(Sym, Schema)> = Vec::new();
    for atom in &q.atoms {
        if !rels.iter().any(|(n, _)| *n == atom.name) {
            rels.push((atom.name, atom.schema.clone()));
        }
    }
    rels
}

/// Turn binary-edge ops into updates against `q`'s relations, dropping
/// zero-multiplicity no-ops. Deletes are *not* clamped: the ℤ-ring
/// engines must agree on negative multiplicities too.
pub fn edge_updates(q: &Query, ops: &[EdgeOp]) -> Vec<Update<i64>> {
    let rels = distinct_relations(q);
    ops.iter()
        .filter(|(_, _, m)| *m != 0)
        .map(|&(ri, (x, y), m)| Update::with_payload(rels[ri % rels.len()], tup![x, y], m))
        .collect()
}

/// Turn wide ops into a *valid* mixed ± stream (Sec. 2: deletes never
/// push a tuple's multiplicity below zero). The view-tree engines
/// maintain the paper's update model, where streams are valid by
/// definition; clamping keeps the comparison meaningful for every
/// backend while still exercising deletes, duplicates, and cancellation.
pub fn clamped_updates(q: &Query, ops: &[WideOp]) -> Vec<Update<i64>> {
    let rels = distinct_relations_with_schemas(q);
    let mut counts: FxHashMap<(Sym, Tuple), i64> = Default::default();
    ops.iter()
        .filter(|(_, _, m)| *m != 0)
        .filter_map(|&(ri, vals, m)| {
            let (name, schema) = &rels[ri % rels.len()];
            let cols = [vals.0, vals.1, vals.2, vals.3];
            let t = Tuple::new((0..schema.arity()).map(|i| Value::from(cols[i % 4] as i64)));
            let cur = counts.entry((*name, t.clone())).or_insert(0);
            let m = m.max(-*cur);
            if m == 0 {
                return None;
            }
            *cur += m;
            Some(Update::with_payload(*name, t, m))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Oracle and base mirrors
// ---------------------------------------------------------------------

/// An empty per-relation mirror for `q`, keyed by relation sym.
pub fn empty_base(q: &Query) -> FxHashMap<Sym, Relation<i64>> {
    distinct_relations_with_schemas(q)
        .into_iter()
        .map(|(n, s)| (n, Relation::new(s)))
        .collect()
}

/// An empty `Database` mirror holding one relation per distinct atom.
pub fn mirror_db(q: &Query) -> Database<i64> {
    let mut db = Database::new();
    for (n, s) in distinct_relations_with_schemas(q) {
        db.create(n, s);
    }
    db
}

/// Apply a batch to the per-relation mirror.
pub fn apply_to_base(base: &mut FxHashMap<Sym, Relation<i64>>, batch: &[Update<i64>]) {
    for u in batch {
        base.get_mut(&u.relation)
            .unwrap()
            .apply(u.tuple.clone(), &u.payload);
    }
}

/// From-scratch oracle: join-aggregate over one relation copy per atom
/// (self-joins get one copy *each*, as the semantics require).
pub fn oracle(q: &Query, base: &FxHashMap<Sym, Relation<i64>>) -> Relation<i64> {
    oracle_lifted(q, base, lift_one)
}

/// [`oracle`] marginalizing the bound variables with `lift`.
pub fn oracle_lifted(
    q: &Query,
    base: &FxHashMap<Sym, Relation<i64>>,
    lift: Lift<i64>,
) -> Relation<i64> {
    let per_atom: Vec<Relation<i64>> = q
        .atoms
        .iter()
        .map(|atom| {
            Relation::from_rows(
                atom.schema.clone(),
                base[&atom.name].iter().map(|(t, r)| (t.clone(), *r)),
            )
        })
        .collect();
    let refs: Vec<&Relation<i64>> = per_atom.iter().collect();
    eval_join_aggregate(&refs, &q.free, lift)
}

/// From-scratch oracle over a mirrored `Database`.
pub fn oracle_db(q: &Query, mirror: &Database<i64>) -> Relation<i64> {
    let per_atom: Vec<Relation<i64>> = q
        .atoms
        .iter()
        .map(|atom| {
            Relation::from_rows(
                atom.schema.clone(),
                mirror
                    .relation(atom.name)
                    .iter()
                    .map(|(t, r)| (t.clone(), *r)),
            )
        })
        .collect();
    let refs: Vec<&Relation<i64>> = per_atom.iter().collect();
    eval_join_aggregate(&refs, &q.free, lift_one)
}

/// Assert two output relations agree exactly: same size, same payload at
/// every tuple of `expect`.
pub fn outputs_match(
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

// ---------------------------------------------------------------------
// Growth exponents
// ---------------------------------------------------------------------

/// Reads `work` once at each of `sizes`, in order, and asserts that every
/// growth exponent `log(w_i / w_0) / log(n_i / n_0)` lies in `band`.
/// Returns the exponents, one per size after the first.
pub fn assert_exponents(
    what: &str,
    sizes: &[usize],
    mut work: impl FnMut(usize) -> f64,
    band: RangeInclusive<f64>,
) -> Vec<f64> {
    let w: Vec<f64> = sizes.iter().map(|&n| work(n)).collect();
    (1..sizes.len())
        .map(|i| {
            let e = (w[i] / w[0]).ln() / (sizes[i] as f64 / sizes[0] as f64).ln();
            assert!(
                band.contains(&e),
                "{what}: exponent {e:.3} at size {} is outside {band:?} \
                 (work {w:?} at sizes {sizes:?})",
                sizes[i]
            );
            e
        })
        .collect()
}
