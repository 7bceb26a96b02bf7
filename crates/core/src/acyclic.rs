//! α-acyclic joins: join trees, the Yannakakis full reducer, factorized
//! enumeration, and insert-only maintenance (Sec. 4.6).
//!
//! Every α-acyclic full join admits amortized constant time per insert in
//! the insert-only setting: buffer the inserts in the base relations and
//! (re)build the factorized output — semijoin-reduced relations plus
//! parent-to-child indexes — in time O(|D|) when needed; the build cost
//! amortizes to O(1) per insert (the paper's simplified argument). With
//! deletes allowed, Theorem 4.1's lower bound kicks in for the
//! non-q-hierarchical acyclic queries, so this engine rejects deletes.

use crate::bindings::Bindings;
use crate::checked::CheckedBatch;
use crate::error::EngineError;
use ivm_data::{FxHashSet, GroupedIndex, Relation, Tuple, Update};
use ivm_query::Query;
use ivm_ring::Semiring;

/// A join tree over a query's atoms: `parent[i]` is the atom index `i`
/// hangs under (`None` for the root).
#[derive(Clone, Debug)]
pub struct JoinTree {
    /// Parent atom per atom index.
    pub parent: Vec<Option<usize>>,
    /// Atom indices in elimination order (ears first, root last).
    pub order: Vec<usize>,
}

/// Build a join tree by GYO ear removal with witness tracking; `None` for
/// cyclic queries.
///
/// Cyclicity itself is decided by the vertex/edge GYO reduction in
/// [`ivm_query::acyclic`] — the same check the `ivm-dataflow` planner uses
/// to route cyclic queries to its worst-case-optimal multiway join — so
/// every layer agrees on one definition of "acyclic"; the ear removal
/// below then only runs to *construct* the tree, never to decide.
pub fn join_tree(q: &Query) -> Option<JoinTree> {
    if !ivm_query::acyclic::is_acyclic(q) {
        return None;
    }
    let n = q.atoms.len();
    let mut removed = vec![false; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n.saturating_sub(1) {
        // Find an ear: an atom i whose variables shared with other
        // remaining atoms are all contained in a single remaining atom j.
        let mut found = None;
        'outer: for i in 0..n {
            if removed[i] {
                continue;
            }
            let shared: Vec<_> = q.atoms[i]
                .schema
                .vars()
                .iter()
                .copied()
                .filter(|&v| (0..n).any(|k| k != i && !removed[k] && q.atoms[k].schema.contains(v)))
                .collect();
            #[allow(clippy::needless_range_loop)]
            for j in 0..n {
                if j == i || removed[j] {
                    continue;
                }
                if shared.iter().all(|&v| q.atoms[j].schema.contains(v)) {
                    found = Some((i, j));
                    break 'outer;
                }
            }
        }
        let (i, j) = found?;
        removed[i] = true;
        parent[i] = Some(j);
        order.push(i);
    }
    // The last remaining atom is the root.
    if let Some(root) = (0..n).find(|&i| !removed[i]) {
        order.push(root);
    }
    Some(JoinTree { parent, order })
}

/// A factorized representation of an α-acyclic full join: semijoin-reduced
/// relations plus per-child indexes, supporting constant-delay enumeration.
pub struct FactorizedJoin<R> {
    query: Query,
    jt: JoinTree,
    /// Reduced relation per atom.
    reduced: Vec<Relation<R>>,
    /// Per atom: index keyed by the variables shared with its parent.
    child_index: Vec<Option<GroupedIndex<R>>>,
    /// Children lists.
    children: Vec<Vec<usize>>,
}

impl<R: Semiring> FactorizedJoin<R> {
    /// Build from base relations (must align with `q.atoms` order);
    /// requires `q` to be an α-acyclic full join (all variables free).
    pub fn build(q: &Query, relations: &[Relation<R>]) -> Result<Self, EngineError> {
        if q.free != q.variables() {
            return Err(EngineError::NotSupported(
                "factorized join requires a full join (all variables free)".into(),
            ));
        }
        let jt = join_tree(q)
            .ok_or_else(|| EngineError::NotSupported(format!("{} is cyclic", q.name)))?;
        let n = q.atoms.len();
        let mut reduced: Vec<Relation<R>> = relations.to_vec();

        // Upward pass (elimination order): parent ⋉ child.
        for &i in &jt.order {
            if let Some(p) = jt.parent[i] {
                semijoin(&mut reduced, p, i);
            }
        }
        // Downward pass (reverse order): child ⋉ parent.
        for &i in jt.order.iter().rev() {
            if let Some(p) = jt.parent[i] {
                semijoin(&mut reduced, i, p);
            }
        }

        // Indexes for enumeration: each non-root atom keyed by the
        // variables shared with its parent.
        let mut child_index = Vec::with_capacity(n);
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            child_index.push(jt.parent[i].map(|p| {
                let key = q.atoms[i].schema.intersect(&q.atoms[p].schema);
                GroupedIndex::from_relation(&reduced[i], key)
            }));
        }
        let mut children = vec![Vec::new(); n];
        for i in 0..n {
            if let Some(p) = jt.parent[i] {
                children[p].push(i);
            }
        }
        Ok(FactorizedJoin {
            query: q.clone(),
            jt,
            reduced,
            child_index,
            children,
        })
    }

    /// The root atom index.
    fn root(&self) -> usize {
        *self.jt.order.last().expect("non-empty query")
    }

    /// Enumerate the full join output with constant delay: DFS from the
    /// root, extending bindings through the per-child indexes (every probe
    /// succeeds thanks to the full reduction).
    pub fn for_each(&self, f: &mut dyn FnMut(&Tuple, &R)) {
        if self.reduced.iter().any(|r| r.is_empty()) {
            return;
        }
        let mut bindings = Bindings::new();
        let root = self.root();
        let free = &self.query.free;
        for (t, p) in self.reduced[root].iter() {
            bindings.bind_tuple(&self.query.atoms[root].schema, t);
            self.descend_rec(
                root,
                0,
                &mut bindings,
                p.clone(),
                &mut |bs, m, f2| {
                    if let Some(out) = bs.project(free) {
                        f2(&out, &m);
                    }
                },
                f,
            );
        }
    }

    #[allow(clippy::type_complexity)]
    fn descend_rec(
        &self,
        node: usize,
        ci: usize,
        bindings: &mut Bindings,
        acc: R,
        k: &mut dyn FnMut(&mut Bindings, R, &mut dyn FnMut(&Tuple, &R)),
        f: &mut dyn FnMut(&Tuple, &R),
    ) {
        if acc.is_zero() {
            return;
        }
        if ci == self.children[node].len() {
            k(bindings, acc, f);
            return;
        }
        let child = self.children[node][ci];
        let idx = self.child_index[child].as_ref().expect("non-root");
        let key = bindings
            .project(idx.key())
            .expect("parent bound before child");
        let Some(group) = idx.group(&key) else { return };
        let residual = idx.residual_schema();
        for (res, p) in group.iter() {
            bindings.bind_tuple(&residual, res);
            self.descend_rec(
                child,
                0,
                bindings,
                acc.times(p),
                &mut |bs, m, f2| self.descend_rec(node, ci + 1, bs, m, k, f2),
                f,
            );
        }
    }

    /// Materialize the output (test helper).
    pub fn output(&self) -> Relation<R> {
        let mut out = Relation::new(self.query.free.clone());
        self.for_each(&mut |t, r| {
            out.apply(t.clone(), r);
        });
        out
    }
}

/// `target := target ⋉ other` (keep target tuples whose shared projection
/// appears in `other`); payloads untouched.
fn semijoin<R: Semiring>(rels: &mut [Relation<R>], target: usize, other: usize) {
    let shared = rels[target].schema().intersect(rels[other].schema());
    if shared.is_empty() {
        return;
    }
    let other_pos = rels[other].schema().positions_of(&shared);
    let mut keys: FxHashSet<Tuple> = FxHashSet::default();
    for (t, _) in rels[other].iter() {
        keys.insert(t.project(&other_pos));
    }
    let target_pos = rels[target].schema().positions_of(&shared);
    let schema = rels[target].schema().clone();
    let kept: Vec<(Tuple, R)> = rels[target]
        .iter()
        .filter(|(t, _)| keys.contains(&t.project(&target_pos)))
        .map(|(t, r)| (t.clone(), r.clone()))
        .collect();
    rels[target] = Relation::from_rows(schema, kept);
}

/// Insert-only maintenance of an α-acyclic full join (Sec. 4.6):
/// amortized O(1) per insert via deferred factorized rebuilds.
pub struct InsertOnlyEngine<R> {
    query: Query,
    relations: Vec<Relation<R>>,
    factorized: Option<FactorizedJoin<R>>,
    inserts: usize,
    rebuilds: usize,
    rebuild_work: usize,
}

impl<R: Semiring> InsertOnlyEngine<R> {
    /// Build an empty engine; the query must be an α-acyclic full join.
    pub fn new(query: Query) -> Result<Self, EngineError> {
        if join_tree(&query).is_none() {
            return Err(EngineError::NotSupported(format!(
                "{} is cyclic",
                query.name
            )));
        }
        if query.free != query.variables() {
            return Err(EngineError::NotSupported(
                "insert-only engine requires a full join".into(),
            ));
        }
        if !query.is_self_join_free() {
            return Err(EngineError::NotSupported("self-joins unsupported".into()));
        }
        let relations = query
            .atoms
            .iter()
            .map(|a| Relation::new(a.schema.clone()))
            .collect();
        Ok(InsertOnlyEngine {
            query,
            relations,
            factorized: None,
            inserts: 0,
            rebuilds: 0,
            rebuild_work: 0,
        })
    }

    /// Apply an insert (deletes are rejected: Sec. 4.6's asymmetry) that
    /// passes the ingestion rule ([`CheckedBatch::new`]).
    pub fn insert(&mut self, upd: &Update<R>) -> Result<(), EngineError> {
        CheckedBatch::new(&self.query.atoms, std::slice::from_ref(upd))?;
        let i = self.query.atoms.iter().position(|a| a.name == upd.relation);
        self.relations[i.expect("a checked update names an atom")]
            .apply(upd.tuple.clone(), &upd.payload);
        self.inserts += 1;
        self.factorized = None; // invalidate; rebuilt on demand
        Ok(())
    }

    /// Enumerate the output, rebuilding the factorized representation if
    /// stale. The rebuild is O(|D|); deferred builds amortize to O(1) per
    /// insert when enumerations are spaced out (the paper's batch
    /// argument).
    pub fn for_each_output(&mut self, f: &mut dyn FnMut(&Tuple, &R)) -> Result<(), EngineError> {
        if self.factorized.is_none() {
            self.factorized = Some(FactorizedJoin::build(&self.query, &self.relations)?);
            self.rebuilds += 1;
            self.rebuild_work += self.relations.iter().map(|r| r.len()).sum::<usize>();
        }
        self.factorized.as_ref().expect("just built").for_each(f);
        Ok(())
    }

    /// Number of factorized rebuilds so far.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Total tuples scanned across rebuilds (amortization numerator).
    pub fn rebuild_work(&self) -> usize {
        self.rebuild_work
    }

    /// Materialize the output (test helper).
    pub fn output(&mut self) -> Result<Relation<R>, EngineError> {
        let mut out = Relation::new(self.query.free.clone());
        self.for_each_output(&mut |t, r| {
            out.apply(t.clone(), r);
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::ops::{eval_join_aggregate, lift_one};
    use ivm_data::{sym, tup};

    fn path3() -> Query {
        ivm_query::examples::path3_query()
    }

    #[test]
    fn join_tree_for_path() {
        let q = path3();
        let jt = join_tree(&q).unwrap();
        // A path has a chain join tree; every non-root has a parent.
        let roots = jt.parent.iter().filter(|p| p.is_none()).count();
        assert_eq!(roots, 1);
    }

    #[test]
    fn join_tree_rejects_triangle() {
        let q = ivm_query::examples::triangle_count();
        assert!(join_tree(&q).is_none());
    }

    /// The tree builder and the shared GYO check must agree on every
    /// query shape both layers see (tree exists ⇔ acyclic).
    #[test]
    fn join_tree_agrees_with_shared_gyo_check() {
        use ivm_data::{sym, vars};
        use ivm_query::Atom;
        let [a, b, c, d] = vars(["jt_A", "jt_B", "jt_C", "jt_D"]);
        let cycle4 = Query::new(
            "jt_cycle4",
            [],
            vec![
                Atom::new(sym("jt_R"), [a, b]),
                Atom::new(sym("jt_S"), [b, c]),
                Atom::new(sym("jt_T"), [c, d]),
                Atom::new(sym("jt_U"), [d, a]),
            ],
        );
        let queries = [
            ivm_query::examples::triangle_count(),
            ivm_query::examples::fig3_query(),
            ivm_query::examples::path3_query(),
            ivm_query::examples::job_pkfk_query(),
            cycle4,
        ];
        for q in queries {
            assert_eq!(
                join_tree(&q).is_some(),
                ivm_query::acyclic::is_acyclic(&q),
                "disagreement on {q:?}"
            );
        }
    }

    #[test]
    fn factorized_join_matches_oracle() {
        let q = path3();
        let mut rels: Vec<Relation<i64>> = q
            .atoms
            .iter()
            .map(|a| Relation::new(a.schema.clone()))
            .collect();
        // R(A,B), S(B,C), T(C,D)
        for (a, b) in [(1i64, 10i64), (2, 10), (3, 11)] {
            rels[0].apply(tup![a, b], &1);
        }
        for (b, c) in [(10i64, 20i64), (10, 21), (12, 22)] {
            rels[1].apply(tup![b, c], &1);
        }
        for (c, d) in [(20i64, 30i64), (21, 31), (21, 32)] {
            rels[2].apply(tup![c, d], &1);
        }
        let fj = FactorizedJoin::build(&q, &rels).unwrap();
        let got = fj.output();
        let expect = eval_join_aggregate(&[&rels[0], &rels[1], &rels[2]], &q.free, lift_one);
        assert_eq!(got.len(), expect.len());
        for (t, p) in expect.iter() {
            assert_eq!(&got.get(t), p, "at {t:?}");
        }
        // 2 R-tuples on b=10 × (20→30, 21→31, 21→32) = 6 outputs.
        assert_eq!(got.len(), 6);
    }

    #[test]
    fn empty_relation_means_empty_output() {
        let q = path3();
        let rels: Vec<Relation<i64>> = q
            .atoms
            .iter()
            .map(|a| Relation::new(a.schema.clone()))
            .collect();
        let fj = FactorizedJoin::build(&q, &rels).unwrap();
        assert_eq!(fj.output().len(), 0);
    }

    #[test]
    fn insert_only_engine_amortizes() {
        let q = path3();
        let mut eng: InsertOnlyEngine<i64> = InsertOnlyEngine::new(q.clone()).unwrap();
        let (rn, sn, tn) = (sym("p3_R"), sym("p3_S"), sym("p3_T"));
        for i in 0..30i64 {
            eng.insert(&Update::insert(rn, tup![i, i % 5])).unwrap();
            eng.insert(&Update::insert(sn, tup![i % 5, i % 7])).unwrap();
            eng.insert(&Update::insert(tn, tup![i % 7, i])).unwrap();
        }
        let out = eng.output().unwrap();
        // Oracle.
        let mut rels: Vec<Relation<i64>> = q
            .atoms
            .iter()
            .map(|a| Relation::new(a.schema.clone()))
            .collect();
        for i in 0..30i64 {
            rels[0].apply(tup![i, i % 5], &1);
            rels[1].apply(tup![i % 5, i % 7], &1);
            rels[2].apply(tup![i % 7, i], &1);
        }
        let expect = eval_join_aggregate(&[&rels[0], &rels[1], &rels[2]], &q.free, lift_one);
        assert_eq!(out.len(), expect.len());
        assert_eq!(eng.rebuilds(), 1, "one deferred rebuild");
        // Second enumeration without new inserts: no rebuild.
        let _ = eng.output().unwrap();
        assert_eq!(eng.rebuilds(), 1);
    }

    #[test]
    fn payload_multiplicities_multiply() {
        let q = path3();
        let mut rels: Vec<Relation<i64>> = q
            .atoms
            .iter()
            .map(|a| Relation::new(a.schema.clone()))
            .collect();
        rels[0].apply(tup![1i64, 2i64], &2);
        rels[1].apply(tup![2i64, 3i64], &3);
        rels[2].apply(tup![3i64, 4i64], &5);
        let fj = FactorizedJoin::build(&q, &rels).unwrap();
        let out = fj.output();
        assert_eq!(out.get(&tup![1i64, 2i64, 3i64, 4i64]), 30);
    }
}
