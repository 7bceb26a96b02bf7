//! Maintenance of queries with free access patterns (Sec. 4.3).
//!
//! A tractable CQAP's *fracture* (Def. 4.7) splits the query into
//! connected components, each hierarchical with inputs dominating outputs.
//! The engine builds one view tree per component. Because input variables
//! are free and on top, an access request binds them at the roots; the
//! outputs are then enumerated with constant delay, and the overall answer
//! is the cross product of the per-component answers with multiplied
//! payloads.
//!
//! Self-joins are supported (the triangle detection CQAP mentions `E`
//! three times): each atom occurrence gets its own leaf relation in its
//! component, and one base-relation update fans out to every occurrence —
//! a constant number.

use crate::bindings::Bindings;
use crate::checked::CheckedBatch;
use crate::engine::Maintainer;
use crate::error::EngineError;
use crate::viewtree::ViewTree;
use ivm_data::ops::Lift;
use ivm_data::{sym, FxHashMap, Relation, Schema, Sym, Tuple};
use ivm_query::cqap::{fracture, is_tractable_cqap, Fracture};
use ivm_query::{Atom, Query};
use ivm_ring::Semiring;

/// Routing entry: one atom occurrence of a base relation.
struct Route {
    /// Component index.
    component: usize,
    /// The leaf's unique relation name inside the component tree.
    leaf_name: Sym,
    /// For each column of the (deduplicated) fractured schema, the column
    /// of the original tuple it comes from.
    keep: Vec<usize>,
    /// Column pairs of the original tuple that must be equal (repeated
    /// variables collapsed by the fracture).
    eq_checks: Vec<(usize, usize)>,
}

/// A maintenance engine for a tractable CQAP.
pub struct CqapEngine<R> {
    query: Query,
    fracture: Fracture,
    components: Vec<ViewTree<R>>,
    /// Per component: its input variables (fresh syms) with, for each, the
    /// position in the original input tuple.
    comp_inputs: Vec<Vec<(Sym, usize)>>,
    /// Per component: its output variables (original syms they map to,
    /// fresh syms in the tree).
    comp_outputs: Vec<Vec<(Sym, Sym)>>,
    routes: FxHashMap<Sym, Vec<Route>>,
}

impl<R: Semiring> CqapEngine<R> {
    /// Build the engine; fails when the CQAP is not tractable (Thm 4.8).
    pub fn new(query: Query, lift: Lift<R>) -> Result<Self, EngineError> {
        if !is_tractable_cqap(&query) {
            return Err(EngineError::NotSupported(format!(
                "{} is not a tractable CQAP (Theorem 4.8)",
                query.name
            )));
        }
        let fr = fracture(&query);
        let n_comps = fr.component.iter().copied().max().map_or(0, |m| m + 1);

        // Build one subquery per component, with unique leaf names.
        let mut comp_atoms: Vec<Vec<Atom>> = vec![Vec::new(); n_comps];
        let mut routes: FxHashMap<Sym, Vec<Route>> = FxHashMap::default();
        for (i, atom) in fr.query.atoms.iter().enumerate() {
            let cid = fr.component[i];
            let orig_atom = &query.atoms[i];
            let leaf_name = sym(&format!("{}◊{}", orig_atom.name, i));
            // Column mapping original → fractured (dedup aware): for each
            // fractured column, the first original column with the same
            // target variable; extra original columns with that variable
            // become equality checks.
            let frac_schema = &atom.schema;
            let orig_schema = &orig_atom.schema;
            // Original column → fractured variable: recompute the same way
            // the fracture did: input occurrences map per atom, others id.
            let orig_to_frac: Vec<Sym> = orig_schema
                .vars()
                .iter()
                .map(|&v| {
                    if query.is_input(v) {
                        // Find the fresh input var of this component that
                        // originates from v.
                        *frac_schema
                            .vars()
                            .iter()
                            .find(|&&fv| fr.origin.get(&fv) == Some(&v))
                            .expect("fracture maps every input occurrence")
                    } else {
                        v
                    }
                })
                .collect();
            let mut keep = Vec::with_capacity(frac_schema.arity());
            let mut eq_checks = Vec::new();
            for &fv in frac_schema.vars() {
                let first = orig_to_frac
                    .iter()
                    .position(|&m| m == fv)
                    .expect("fractured var has an origin column");
                keep.push(first);
                for (j, &m) in orig_to_frac.iter().enumerate().skip(first + 1) {
                    if m == fv {
                        eq_checks.push((first, j));
                    }
                }
            }
            comp_atoms[cid].push(Atom {
                name: leaf_name,
                schema: frac_schema.clone(),
                dynamic: orig_atom.dynamic,
            });
            routes.entry(orig_atom.name).or_default().push(Route {
                component: cid,
                leaf_name,
                keep,
                eq_checks,
            });
        }

        let mut components = Vec::with_capacity(n_comps);
        let mut comp_inputs = Vec::with_capacity(n_comps);
        let mut comp_outputs = Vec::with_capacity(n_comps);
        for (cid, atoms) in comp_atoms.into_iter().enumerate() {
            let mut vars = Schema::empty();
            for a in &atoms {
                vars = vars.union(&a.schema);
            }
            // Free variables of this component, inputs first (they must be
            // on top of the variable order; input-dominance makes the
            // canonical order put them there).
            let inputs: Vec<Sym> = fr
                .query
                .input
                .vars()
                .iter()
                .copied()
                .filter(|&v| vars.contains(v))
                .collect();
            let outputs: Vec<Sym> = fr
                .query
                .output()
                .vars()
                .iter()
                .copied()
                .filter(|&v| vars.contains(v))
                .collect();
            let mut free: Vec<Sym> = inputs.clone();
            free.extend(outputs.iter().copied());
            let subq = Query {
                name: sym(&format!("{}◊c{}", query.name, cid)),
                free: Schema::new(free),
                input: Schema::new(inputs.iter().copied()),
                atoms,
            };
            components.push(ViewTree::new(subq, lift)?);
            comp_inputs.push(
                inputs
                    .iter()
                    .map(|&v| {
                        let orig = fr.origin[&v];
                        let pos = query.input.position(orig).expect("input var position");
                        (v, pos)
                    })
                    .collect(),
            );
            comp_outputs.push(outputs.iter().map(|&v| (fr.origin[&v], v)).collect());
        }
        Ok(CqapEngine {
            query,
            fracture: fr,
            components,
            comp_inputs,
            comp_outputs,
            routes,
        })
    }

    /// The fracture (for inspection).
    pub fn fracture(&self) -> &Fracture {
        &self.fracture
    }

    /// Units of work of the component view trees (see
    /// [`ViewTree::work`]): updates and accesses both count.
    pub fn work(&self) -> u64 {
        self.components.iter().map(ViewTree::work).sum()
    }

    /// Answer an access request: bind the input variables to `input`
    /// (a tuple over `query.input`), and enumerate the output tuples
    /// (over `query.output()`) with their payloads, with constant delay.
    /// An `input` that does not bind every input variable is refused.
    pub fn access(&self, input: &Tuple, f: &mut dyn FnMut(&Tuple, &R)) -> Result<(), EngineError> {
        let (got, arity) = (input.arity(), self.query.input.arity());
        if got != arity {
            return Err(EngineError::NotSupported(format!(
                "an access request to {} carries a tuple of arity {got}, but \
                 the query has {arity} input variables",
                self.query.name
            )));
        }
        let out_schema = self.query.output();
        let mut out_bindings: FxHashMap<Sym, ivm_data::Value> = FxHashMap::default();
        self.access_rec(0, input, &mut out_bindings, R::one(), &out_schema, f);
        Ok(())
    }

    fn access_rec(
        &self,
        cid: usize,
        input: &Tuple,
        out_bindings: &mut FxHashMap<Sym, ivm_data::Value>,
        acc: R,
        out_schema: &Schema,
        f: &mut dyn FnMut(&Tuple, &R),
    ) {
        if acc.is_zero() {
            return;
        }
        if cid == self.components.len() {
            let t = Tuple::new(out_schema.vars().iter().map(|v| out_bindings[v].clone()));
            f(&t, &acc);
            return;
        }
        let mut pre = Bindings::new();
        for &(v, pos) in &self.comp_inputs[cid] {
            pre.set(v, input.at(pos).clone());
        }
        let comp_free = self.components[cid].query().free.clone();
        self.components[cid].for_each_output_bound(&pre, &mut |t, r| {
            // Record this component's output variable values.
            for (orig, fresh) in &self.comp_outputs[cid] {
                let pos = comp_free.position(*fresh).expect("output var in free");
                out_bindings.insert(*orig, t.at(pos).clone());
            }
            self.access_rec(cid + 1, input, out_bindings, acc.times(r), out_schema, f);
        });
    }

    /// Detection-style convenience: the scalar answer for an access with
    /// no output variables (zero when the pattern is absent).
    pub fn probe(&self, input: &Tuple) -> Result<R, EngineError> {
        let mut acc = R::zero();
        self.access(input, &mut |_, r| acc.add_assign(r))?;
        Ok(acc)
    }

    /// Materialize all answers for an access (test helper).
    pub fn access_output(&self, input: &Tuple) -> Result<Relation<R>, EngineError> {
        let mut out = Relation::new(self.query.output());
        self.access(input, &mut |t, r| {
            out.apply(t.clone(), r);
        })?;
        Ok(out)
    }

    /// Full enumeration over `query.free` (output ∪ input): walk the
    /// components in order, joining them on the *original* variables their
    /// fresh fracture copies originate from. Unlike [`Self::access`] this
    /// is **not** constant-delay — cross-component origin equality is a
    /// join the fracture deliberately severed (that is what buys O(1)
    /// access) — but it makes the engine a full [`Maintainer`], so the
    /// session layer can expose the same `output()`/`for_each_output`
    /// surface for every engine kind.
    fn enumerate_free(
        &self,
        cid: usize,
        orig: &mut FxHashMap<Sym, ivm_data::Value>,
        acc: R,
        free: &Schema,
        f: &mut dyn FnMut(&Tuple, &R),
    ) {
        if acc.is_zero() {
            return;
        }
        if cid == self.components.len() {
            let t = Tuple::new(free.vars().iter().map(|v| orig[v].clone()));
            f(&t, &acc);
            return;
        }
        // Pre-bind the fresh input copies whose origins earlier components
        // already fixed, so the tree only enumerates consistent rows.
        let mut pre = Bindings::new();
        for &(fresh, _) in &self.comp_inputs[cid] {
            if let Some(v) = orig.get(&self.fracture.origin[&fresh]) {
                pre.set(fresh, v.clone());
            }
        }
        let comp_free = self.components[cid].query().free.clone();
        self.components[cid].for_each_output_bound(&pre, &mut |t, r| {
            let mut added: Vec<Sym> = Vec::new();
            let mut consistent = true;
            // Two fresh copies of the same origin inside one component are
            // enumerated independently by the tree; equate them here.
            for &(fresh, _) in &self.comp_inputs[cid] {
                let o = self.fracture.origin[&fresh];
                let pos = comp_free.position(fresh).expect("input var is free");
                let val = t.at(pos);
                match orig.get(&o) {
                    Some(existing) if existing == val => {}
                    Some(_) => {
                        consistent = false;
                        break;
                    }
                    None => {
                        orig.insert(o, val.clone());
                        added.push(o);
                    }
                }
            }
            if consistent {
                for &(o, fresh) in &self.comp_outputs[cid] {
                    let pos = comp_free.position(fresh).expect("output var is free");
                    orig.insert(o, t.at(pos).clone());
                    added.push(o);
                }
                self.enumerate_free(cid + 1, orig, acc.times(r), free, f);
            }
            for o in added {
                orig.remove(&o);
            }
        });
    }
}

impl<R: Semiring> Maintainer<R> for CqapEngine<R> {
    fn query(&self) -> &Query {
        &self.query
    }

    /// Each update of a base relation fans out to every atom occurrence
    /// (a constant number), each in O(1).
    fn apply_checked(&mut self, batch: &CheckedBatch<'_, R>) -> Result<Relation<R>, EngineError> {
        for (rel, tuple, payload) in batch.entries() {
            for route in &self.routes[&rel] {
                // Repeated-variable occurrences only match diagonal tuples.
                if route
                    .eq_checks
                    .iter()
                    .any(|&(i, j)| tuple.at(i) != tuple.at(j))
                {
                    continue;
                }
                let t = tuple.project(&route.keep);
                self.components[route.component].apply_checked((route.leaf_name, &t, payload));
            }
        }
        Ok(Relation::new(self.query.free.clone()))
    }

    fn for_each_output(&mut self, f: &mut dyn FnMut(&Tuple, &R)) {
        let free = self.query.free.clone();
        let mut orig: FxHashMap<Sym, ivm_data::Value> = FxHashMap::default();
        self.enumerate_free(0, &mut orig, R::one(), &free, f);
    }
}

impl<R: ivm_ring::Semiring> std::fmt::Debug for CqapEngine<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CqapEngine").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::ops::lift_one;
    use ivm_data::{tup, Update};

    /// Ex 4.6: triangle detection — given (a,b,c), is there a triangle?
    #[test]
    fn triangle_detection_probe() {
        let q = ivm_query::examples::triangle_detect_cqap();
        let mut eng: CqapEngine<i64> = CqapEngine::new(q, lift_one).unwrap();
        let e = sym("tdc_E");
        eng.apply(&Update::insert(e, tup![1i64, 2i64])).unwrap();
        eng.apply(&Update::insert(e, tup![2i64, 3i64])).unwrap();
        eng.apply(&Update::insert(e, tup![3i64, 1i64])).unwrap();

        assert_eq!(eng.probe(&tup![1i64, 2i64, 3i64]).unwrap(), 1);
        assert_eq!(eng.probe(&tup![2i64, 3i64, 1i64]).unwrap(), 1);
        assert_eq!(
            eng.probe(&tup![1i64, 3i64, 2i64]).unwrap(),
            0,
            "orientation matters"
        );
        assert_eq!(eng.probe(&tup![1i64, 2i64, 4i64]).unwrap(), 0);

        eng.apply(&Update::delete(e, tup![2i64, 3i64])).unwrap();
        assert_eq!(eng.probe(&tup![1i64, 2i64, 3i64]).unwrap(), 0);
    }

    /// Payloads multiply across the three edge occurrences.
    #[test]
    fn probe_multiplies_multiplicities() {
        let q = ivm_query::examples::triangle_detect_cqap();
        let mut eng: CqapEngine<i64> = CqapEngine::new(q, lift_one).unwrap();
        let e = sym("tdc_E");
        eng.apply(&Update::with_payload(e, tup![1i64, 2i64], 2))
            .unwrap();
        eng.apply(&Update::with_payload(e, tup![2i64, 3i64], 3))
            .unwrap();
        eng.apply(&Update::with_payload(e, tup![3i64, 1i64], 5))
            .unwrap();
        assert_eq!(eng.probe(&tup![1i64, 2i64, 3i64]).unwrap(), 30);
    }

    /// Ex 4.6: Q(A|B) = S(A,B)·T(B) — outputs enumerate per input B.
    #[test]
    fn lookup_cqap_access() {
        let q = ivm_query::examples::lookup_cqap();
        let mut eng: CqapEngine<i64> = CqapEngine::new(q, lift_one).unwrap();
        let (s, t) = (sym("lk_S"), sym("lk_T"));
        eng.apply(&Update::insert(s, tup![10i64, 1i64])).unwrap();
        eng.apply(&Update::insert(s, tup![11i64, 1i64])).unwrap();
        eng.apply(&Update::insert(s, tup![12i64, 2i64])).unwrap();
        eng.apply(&Update::insert(t, tup![1i64])).unwrap();

        let out = eng.access_output(&tup![1i64]).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.get(&tup![10i64]), 1);
        assert_eq!(out.get(&tup![11i64]), 1);
        // B=2 is not in T: no outputs.
        assert_eq!(eng.access_output(&tup![2i64]).unwrap().len(), 0);
        // A value no relation holds, and the string twin of one that T
        // holds: no outputs, and no component's dictionary grows.
        let live = |eng: &CqapEngine<i64>| -> Vec<usize> {
            eng.components.iter().map(|c| c.dict().live()).collect()
        };
        let before = live(&eng);
        for b in [tup![7i64], tup!["1"]] {
            assert_eq!(eng.access_output(&b).unwrap().len(), 0, "B = {b:?}");
        }
        assert_eq!(live(&eng), before);
    }

    /// Intractable CQAPs are rejected.
    #[test]
    fn rejects_edge_triangle_listing() {
        let q = ivm_query::examples::edge_triangle_listing_cqap();
        let err = CqapEngine::<i64>::new(q, lift_one).unwrap_err();
        assert!(matches!(err, EngineError::NotSupported(_)));
    }

    /// Full enumeration (the `Maintainer` surface) joins the fracture's
    /// components back together on their origin variables: for triangle
    /// detection the output over free = (A,B,C) is exactly the directed
    /// triangle list, with payloads multiplied across the occurrences.
    #[test]
    fn full_enumeration_joins_components_on_origins() {
        let q = ivm_query::examples::triangle_detect_cqap();
        let mut eng: CqapEngine<i64> = CqapEngine::new(q, lift_one).unwrap();
        let e = sym("tdc_E");
        for (a, b) in [(1i64, 2i64), (2, 3), (3, 1), (2, 4), (4, 1), (1, 9)] {
            eng.apply(&Update::insert(e, tup![a, b])).unwrap();
        }
        let out = eng.output();
        // Triangles 1→2→3→1 and 1→2→4→1, each listed from every corner.
        assert_eq!(out.len(), 6, "{out:?}");
        for t in [
            tup![1i64, 2i64, 3i64],
            tup![2i64, 3i64, 1i64],
            tup![3i64, 1i64, 2i64],
            tup![1i64, 2i64, 4i64],
            tup![2i64, 4i64, 1i64],
            tup![4i64, 1i64, 2i64],
        ] {
            assert_eq!(out.get(&t), 1, "missing {t:?}");
        }
        // The `Maintainer` batch surface reaches the same state.
        let q = ivm_query::examples::lookup_cqap();
        let mut eng: CqapEngine<i64> = CqapEngine::new(q, lift_one).unwrap();
        let (s, t) = (sym("lk_S"), sym("lk_T"));
        eng.apply_batch(&[
            Update::insert(s, tup![10i64, 1i64]),
            Update::insert(s, tup![12i64, 2i64]),
            Update::insert(t, tup![1i64]),
        ])
        .unwrap();
        // free = (A, B); only B=1 survives the T join.
        let out = eng.output();
        assert_eq!(out.len(), 1);
        assert_eq!(out.get(&tup![10i64, 1i64]), 1);
    }

    /// A CQAP access agrees with brute-force evaluation on random graphs.
    #[test]
    fn triangle_probe_matches_bruteforce() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let q = ivm_query::examples::triangle_detect_cqap();
        let mut eng: CqapEngine<i64> = CqapEngine::new(q, lift_one).unwrap();
        let e = sym("tdc_E");
        let mut edges = std::collections::HashSet::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..60 {
            let a = rng.gen_range(0..6i64);
            let b = rng.gen_range(0..6i64);
            if edges.insert((a, b)) {
                eng.apply(&Update::insert(e, tup![a, b])).unwrap();
            }
        }
        for a in 0..6i64 {
            for b in 0..6i64 {
                for c in 0..6i64 {
                    let expect = i64::from(
                        edges.contains(&(a, b))
                            && edges.contains(&(b, c))
                            && edges.contains(&(c, a)),
                    );
                    assert_eq!(eng.probe(&tup![a, b, c]).unwrap(), expect, "({a},{b},{c})");
                }
            }
        }
    }
}
