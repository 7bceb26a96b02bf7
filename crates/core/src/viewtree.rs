//! Factorized view trees (F-IVM [33, 22], Sec. 4.1 and Fig 3 of the paper).
//!
//! A view tree follows a variable order: each variable node `X` maintains a
//! *grouped view* keyed by its dependency set `dep(X)`; a group holds one
//! entry per `X`-value with payload `Π_children` (the product of the
//! children's interface lookups) plus a running *total*
//! `Σ_x g_X(x)·entry(x)` (the lifting `g_X` applies when `X` is bound).
//! Parents read children through their totals, so:
//!
//! * a single-tuple update walks the leaf-to-root path, doing one constant
//!   time sibling lookup per step — O(1) per update when every view key on
//!   the path is covered by the updated atom's schema (guaranteed for
//!   q-hierarchical queries under the canonical order);
//! * the output is never materialized: it is *factorized over the views*,
//!   and enumerated with constant delay by descending from the roots
//!   (possible exactly when the free variables sit on top of the order).
//!
//! The same structure covers the mixed static-dynamic trees of Sec. 4.5
//! (static subtrees are built during preprocessing and never touched
//! again) and, with *FD fetchers* attached, the Σ-reduct trees of Sec. 4.4
//! (missing FD-implied values are fetched from sibling relations).
//!
//! # Validity assumption
//!
//! Like the paper (Sec. 2), enumeration assumes the database is *valid* at
//! enumeration time: all input (and hence output) tuples have non-negative
//! multiplicities. Updates may arrive in any order and pass through
//! transiently inconsistent states — the tree's final state depends only
//! on the multiset of updates — but if multiplicities are mixed-sign *at
//! enumeration time*, a group total can cancel to zero while individual
//! entries are non-zero, and the factorized enumeration will prune that
//! branch even though the flat output contains (mutually cancelling but
//! individually non-zero) tuples. See
//! `tests::mixed_sign_multiplicities_caveat`.

use crate::bindings::Bindings;
use crate::error::EngineError;
use ivm_data::ops::Lift;
use ivm_data::{Database, FxHashMap, GroupedIndex, Relation, Schema, Sym, Tuple, Value};
use ivm_query::varorder::Node;
use ivm_query::{Query, VarOrder};
use ivm_ring::Semiring;

/// One group of a grouped view: the `X`-values compatible with a `dep(X)`
/// key, plus their lifted total.
#[derive(Clone, Debug)]
struct VGroup<R> {
    /// `Σ_x g_X(x) · entries[x]` (or `Σ_x entries[x]` for free `X`).
    total: R,
    /// Per-`X`-value payload `Π_children interface`.
    entries: FxHashMap<Value, R>,
}

/// The grouped view of one variable node.
#[derive(Clone, Debug, Default)]
struct View<R> {
    groups: FxHashMap<Tuple, VGroup<R>>,
}

/// An FD *fetcher* (Sec. 4.4): completes update bindings with the value of
/// `var`, functionally determined by `lhs` through the `provider` atom's
/// relation (e.g. fetch the unique `Y` paired with `x` in `S` under
/// `X → Y`).
#[derive(Clone, Debug)]
pub struct Fetcher {
    /// The variable to complete.
    pub var: Sym,
    /// Its determinant set (must be bound before fetching).
    pub lhs: Schema,
    /// Atom index of the providing relation.
    pub provider: usize,
}

/// A factorized view tree over a query and a variable order.
pub struct ViewTree<R> {
    query: Query,
    vo: VarOrder,
    /// Grouped views, indexed by node id (`None` for atom leaves).
    views: Vec<Option<View<R>>>,
    /// Leaf storage, per atom index, over `storage_schema`.
    relations: Vec<Relation<R>>,
    /// Schema of the stored tuples per atom (the original schema for FD
    /// engines; the atom schema otherwise).
    storage_schema: Vec<Schema>,
    /// Relation name → atom index (unique names required).
    rel_atom: FxHashMap<Sym, usize>,
    /// Lifting applied when marginalizing bound variables.
    lift: Lift<R>,
    /// FD fetchers and their provider indexes.
    fetchers: Vec<Fetcher>,
    fetch_indexes: Vec<GroupedIndex<R>>,
    /// Per node: whether its subtree contains only static atoms.
    static_complete: Vec<bool>,
    /// Per node: whether its subtree contains a free variable.
    subtree_free: Vec<bool>,
    parents: Vec<Option<usize>>,
    /// Flattened enumeration plan (see `build_plan`).
    plan: Vec<PlanStep>,
    /// Scratch bindings buffer reused across updates.
    scratch: Bindings,
}

/// A step of the flattened enumeration plan: nested loops over free
/// variable nodes, with scalar factors folded in from bound subtrees.
#[derive(Clone, Debug)]
enum PlanStep {
    /// Iterate the entries of this free variable node (its dep set is
    /// bound by earlier steps).
    Free(usize),
    /// Multiply in the total of a bound root.
    ScalarRoot(usize),
}

impl<R: Semiring> ViewTree<R> {
    /// Build a view tree for `query` under the canonical variable order.
    ///
    /// Fails when the query is not hierarchical, when free variables are
    /// not on top (not q-hierarchical), or when some dynamic atom would
    /// not have constant-time updates.
    pub fn new(query: Query, lift: Lift<R>) -> Result<Self, EngineError> {
        let vo = VarOrder::canonical(&query)?;
        Self::with_order(query, vo, lift)
    }

    /// Build with an explicit variable order (Ex 4.14-style trees).
    pub fn with_order(query: Query, vo: VarOrder, lift: Lift<R>) -> Result<Self, EngineError> {
        let storage = query.atoms.iter().map(|a| a.schema.clone()).collect();
        Self::with_order_and_storage(query, vo, lift, storage, Vec::new())
    }

    /// Full-control constructor: explicit order, per-atom storage schemas,
    /// and FD fetchers (Theorem 4.11 trees, built by `FdEngine`).
    pub fn with_order_and_storage(
        query: Query,
        vo: VarOrder,
        lift: Lift<R>,
        storage_schema: Vec<Schema>,
        fetchers: Vec<Fetcher>,
    ) -> Result<Self, EngineError> {
        // Unique relation names (tree-local self-join-freeness).
        let mut rel_atom: FxHashMap<Sym, usize> = FxHashMap::default();
        for (i, a) in query.atoms.iter().enumerate() {
            if rel_atom.insert(a.name, i).is_some() {
                return Err(EngineError::DuplicateRelation(a.name));
            }
        }
        // Free variables must be upward-closed for enumeration.
        if !vo.free_top(&query) {
            return Err(EngineError::NotSupported(format!(
                "free variables of {} are not on top of the variable order \
                 (query is not q-hierarchical)",
                query.name
            )));
        }

        let parents = vo.parents();
        let static_complete = compute_static_complete(&query, &vo);
        let subtree_free = compute_subtree_free(&query, &vo);

        // Constant-update validation per atom: along the leaf-to-root path
        // (stopping where static propagation stops), every view key
        // dep(X) ∪ {X} must be derivable from the stored tuple, possibly
        // through FD fetchers.
        for (i, atom) in query.atoms.iter().enumerate() {
            let mut known = storage_schema[i].clone();
            // FD closure over the fetchers.
            loop {
                let mut grown = false;
                for f in &fetchers {
                    if f.lhs.subset_of(&known) && !known.contains(f.var) {
                        known = known.union(&Schema::from([f.var]));
                        grown = true;
                    }
                }
                if !grown {
                    break;
                }
            }
            let leaf = vo.atom_leaf(i).expect("validated order");
            for node in vo.path_to_root(leaf).into_iter().skip(1) {
                if !atom.dynamic && !static_complete[node] {
                    break; // static propagation stops here (Sec. 4.5)
                }
                if let Node::Var { var, dep, .. } = &vo.nodes[node] {
                    let needed = dep.union(&Schema::from([*var]));
                    if !needed.subset_of(&known) {
                        return Err(EngineError::NonConstantUpdate {
                            relation: atom.name,
                            detail: format!(
                                "view key {needed:?} at {var} not covered by \
                                 {known:?}"
                            ),
                        });
                    }
                }
            }
        }

        let views = vo
            .nodes
            .iter()
            .map(|n| match n {
                Node::Var { .. } => Some(View {
                    groups: FxHashMap::default(),
                }),
                Node::Atom { .. } => None,
            })
            .collect();
        let relations = storage_schema
            .iter()
            .map(|s| Relation::new(s.clone()))
            .collect();
        let fetch_indexes = fetchers
            .iter()
            .map(|f| GroupedIndex::new(storage_schema[f.provider].clone(), f.lhs.clone()))
            .collect();
        let plan = build_plan(&query, &vo, &subtree_free);
        Ok(ViewTree {
            query,
            vo,
            views,
            relations,
            storage_schema,
            rel_atom,
            lift,
            fetchers,
            fetch_indexes,
            static_complete,
            subtree_free,
            parents,
            plan,
            scratch: Bindings::new(),
        })
    }

    /// The query this tree maintains.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The variable order.
    pub fn order(&self) -> &VarOrder {
        &self.vo
    }

    /// The stored relation of an atom (by relation name).
    pub fn relation(&self, name: Sym) -> Option<&Relation<R>> {
        self.rel_atom.get(&name).map(|&i| &self.relations[i])
    }

    /// Total number of view entries across all nodes (space accounting).
    pub fn view_entries(&self) -> usize {
        self.views
            .iter()
            .flatten()
            .map(|v| v.groups.values().map(|g| g.entries.len()).sum::<usize>())
            .sum()
    }

    /// Load an initial database: static relations first (their propagation
    /// stops at the static-region boundary), then dynamic ones. O(|D|) for
    /// constant-update trees.
    pub fn preprocess(&mut self, db: &Database<R>) -> Result<(), EngineError> {
        let mut phases: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        for (i, a) in self.query.atoms.iter().enumerate() {
            phases[usize::from(a.dynamic)].push(i);
        }
        for phase in phases {
            for atom_idx in phase {
                let name = self.query.atoms[atom_idx].name;
                let Some(rel) = db.get(name) else { continue };
                assert_eq!(
                    rel.schema(),
                    &self.storage_schema[atom_idx],
                    "initial relation {name} schema mismatch"
                );
                let rows: Vec<(Tuple, R)> =
                    rel.iter().map(|(t, r)| (t.clone(), r.clone())).collect();
                for (t, r) in rows {
                    self.apply_internal(atom_idx, &t, &r);
                }
            }
        }
        Ok(())
    }

    /// Apply a single-tuple update to a dynamic relation. O(1) for
    /// constant-update trees.
    pub fn apply(&mut self, upd: &ivm_data::Update<R>) -> Result<(), EngineError> {
        let &atom_idx = self
            .rel_atom
            .get(&upd.relation)
            .ok_or(EngineError::UnknownRelation(upd.relation))?;
        if !self.query.atoms[atom_idx].dynamic {
            return Err(EngineError::StaticRelation(upd.relation));
        }
        self.apply_internal(atom_idx, &upd.tuple, &upd.payload);
        Ok(())
    }

    /// Shared update path (also used for static tuples at preprocessing).
    fn apply_internal(&mut self, atom_idx: usize, tuple: &Tuple, payload: &R) {
        if payload.is_zero() {
            return;
        }
        // 1. Update leaf storage and any fetch indexes on this relation.
        self.relations[atom_idx].apply(tuple.clone(), payload);
        for (f, idx) in self.fetchers.iter().zip(self.fetch_indexes.iter_mut()) {
            if f.provider == atom_idx {
                idx.apply(tuple, payload);
            }
        }

        // 2. Bindings from the stored tuple, completed through fetchers.
        let mut bindings = std::mem::take(&mut self.scratch);
        bindings.clear();
        bindings.bind_tuple(&self.storage_schema[atom_idx], tuple);
        self.complete_bindings(&mut bindings);

        // 3. Propagate the delta along the leaf-to-root path.
        let is_static = !self.query.atoms[atom_idx].dynamic;
        let mut delta = payload.clone();
        let mut node = self.vo.atom_leaf(atom_idx).expect("validated");
        while let Some(parent) = self.parents[node] {
            if is_static && !self.static_complete[parent] {
                break; // dynamic views above are driven by dynamic deltas
            }
            let Node::Var { var, dep, children } = &self.vo.nodes[parent] else {
                unreachable!("parents are variable nodes")
            };
            let (var, dep) = (*var, dep.clone());
            // Sibling lookups: all keys are covered by the (completed)
            // bindings for validated trees; a fetch miss (FD case) stops
            // the propagation — the missing tuple's own insertion will
            // carry the contribution later.
            let mut ok = true;
            for &c in &children.clone() {
                if c == node {
                    continue;
                }
                match self.interface(c, &bindings) {
                    Some(m) => {
                        delta = delta.times(&m);
                        if delta.is_zero() {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                break;
            }
            let (Some(key), Some(x)) = (bindings.project(&dep), bindings.get(var).cloned()) else {
                break; // FD fetch miss on the view key
            };
            // Lift when marginalizing a bound variable.
            let total_delta = if self.query.is_free(var) {
                delta.clone()
            } else {
                delta.times(&(self.lift)(var, &x))
            };
            let view = self.views[parent].as_mut().expect("var node");
            let group = view.groups.entry(key.clone()).or_insert_with(|| VGroup {
                total: R::zero(),
                entries: FxHashMap::default(),
            });
            group.total.add_assign(&total_delta);
            match group.entries.entry(x) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().add_assign(&delta);
                    if e.get().is_zero() {
                        e.remove();
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(delta.clone());
                }
            }
            if group.entries.is_empty() {
                view.groups.remove(&key);
            }
            delta = total_delta;
            if delta.is_zero() {
                break;
            }
            node = parent;
        }
        self.scratch = bindings;
    }

    /// Complete bindings with FD-implied values (Sec. 4.4): fetch the
    /// unique `var` value paired with the bound `lhs` values in the
    /// provider relation. Loops to a fixpoint so FD chains (X→Y, Y→Z)
    /// resolve.
    fn complete_bindings(&self, bindings: &mut Bindings) {
        if self.fetchers.is_empty() {
            return;
        }
        loop {
            let mut grown = false;
            for (f, idx) in self.fetchers.iter().zip(self.fetch_indexes.iter()) {
                if bindings.get(f.var).is_some() || !bindings.covers(&f.lhs) {
                    continue;
                }
                let key = bindings.project(&f.lhs).expect("covered");
                if let Some(group) = idx.group(&key) {
                    let residual_schema = idx.residual_schema();
                    let pos = residual_schema
                        .position(f.var)
                        .expect("fetcher var in provider residual");
                    if let Some((res, _)) = group.iter().next() {
                        bindings.set(f.var, res.at(pos).clone());
                        grown = true;
                    }
                }
            }
            if !grown {
                return;
            }
        }
    }

    /// The interface value of a child node under the current bindings:
    /// leaf payload for atoms, group total for variable nodes. `None` when
    /// a key variable is unbound (possible only on FD fetch misses).
    fn interface(&self, node: usize, bindings: &Bindings) -> Option<R> {
        match &self.vo.nodes[node] {
            Node::Atom { atom } => {
                let key = bindings.project(&self.storage_schema[*atom])?;
                Some(self.relations[*atom].get(&key))
            }
            Node::Var { dep, .. } => {
                let key = bindings.project(dep)?;
                Some(
                    self.views[node]
                        .as_ref()
                        .expect("var node")
                        .groups
                        .get(&key)
                        .map(|g| g.total.clone())
                        .unwrap_or_else(R::zero),
                )
            }
        }
    }

    /// Enumerate the query output with constant delay, calling `f` for
    /// each `(tuple over query.free, payload)`.
    pub fn for_each_output(&self, f: &mut dyn FnMut(&Tuple, &R)) {
        let mut bindings = Bindings::new();
        self.enumerate_plan(0, &mut bindings, R::one(), &None, f);
    }

    /// Enumerate with some free variables pre-bound (CQAP access requests,
    /// Sec. 4.3): only outputs agreeing with `prebound` are produced.
    pub fn for_each_output_bound(&self, prebound: &Bindings, f: &mut dyn FnMut(&Tuple, &R)) {
        let mut bindings = prebound.clone();
        self.enumerate_plan(0, &mut bindings, R::one(), &Some(prebound.clone()), f);
    }

    fn enumerate_plan(
        &self,
        step: usize,
        bindings: &mut Bindings,
        acc: R,
        prebound: &Option<Bindings>,
        f: &mut dyn FnMut(&Tuple, &R),
    ) {
        if acc.is_zero() {
            return;
        }
        if step == self.plan.len() {
            let t = bindings
                .project(&self.query.free)
                .expect("all free vars bound by plan");
            f(&t, &acc);
            return;
        }
        match &self.plan[step] {
            PlanStep::ScalarRoot(node) => {
                if let Some(m) = self.interface(*node, bindings) {
                    self.enumerate_plan(step + 1, bindings, acc.times(&m), prebound, f);
                }
            }
            PlanStep::Free(node) => {
                let Node::Var { var, dep, children } = &self.vo.nodes[*node] else {
                    unreachable!()
                };
                let key = bindings.project(dep).expect("deps bound by plan order");
                let Some(group) = self.views[*node]
                    .as_ref()
                    .expect("var node")
                    .groups
                    .get(&key)
                else {
                    return;
                };
                let fixed = prebound.as_ref().and_then(|p| p.get(*var)).cloned();
                let visit = |x: &Value, bindings: &mut Bindings, f: &mut dyn FnMut(&Tuple, &R)| {
                    bindings.set(*var, x.clone());
                    // Scalar contributions of bound children.
                    let mut m = acc.clone();
                    for &c in children {
                        if !self.subtree_free[c] {
                            match self.interface(c, bindings) {
                                Some(v) => m = m.times(&v),
                                None => m = R::zero(),
                            }
                            if m.is_zero() {
                                break;
                            }
                        }
                    }
                    self.enumerate_plan(step + 1, bindings, m, prebound, f);
                    bindings.unset(*var);
                };
                match fixed {
                    Some(x) => {
                        if group.entries.contains_key(&x) {
                            visit(&x, bindings, f);
                        }
                    }
                    None => {
                        for x in group.entries.keys() {
                            visit(x, bindings, f);
                        }
                    }
                }
            }
        }
    }

    /// Enumerate the *delta output* of a single-tuple update before it is
    /// applied: the set of output tuples whose payload changes, with their
    /// payload deltas. Used by the eager-list engine (Sec. 3.2 style) to
    /// maintain a materialized output; costs O(|δQ|).
    pub fn delta_for_each(
        &self,
        upd: &ivm_data::Update<R>,
        f: &mut dyn FnMut(&Tuple, &R),
    ) -> Result<(), EngineError> {
        let &atom_idx = self
            .rel_atom
            .get(&upd.relation)
            .ok_or(EngineError::UnknownRelation(upd.relation))?;
        let mut bindings = Bindings::new();
        bindings.bind_tuple(&self.storage_schema[atom_idx], &upd.tuple);
        self.complete_bindings(&mut bindings);

        // Walk the path: accumulate scalar sibling contributions, collect
        // free sibling subtrees for expansion.
        let mut scalar = upd.payload.clone();
        let mut expansions: Vec<usize> = Vec::new();
        let mut node = self.vo.atom_leaf(atom_idx).expect("validated");
        let mut path_nodes = vec![node];
        while let Some(parent) = self.parents[node] {
            let Node::Var { var, children, .. } = &self.vo.nodes[parent] else {
                unreachable!()
            };
            for &c in children {
                if c == node {
                    continue;
                }
                if self.subtree_free[c] {
                    expansions.push(c);
                } else {
                    match self.interface(c, &bindings) {
                        Some(m) => scalar = scalar.times(&m),
                        None => scalar = R::zero(),
                    }
                }
            }
            // Lift bound path variables into the delta.
            if !self.query.is_free(*var) {
                let x = bindings
                    .get(*var)
                    .ok_or_else(|| EngineError::NonConstantUpdate {
                        relation: upd.relation,
                        detail: format!("unbound path variable {var}"),
                    })?;
                scalar = scalar.times(&(self.lift)(*var, x));
            }
            node = parent;
            path_nodes.push(node);
        }
        // Other roots (disconnected components) multiply in too.
        for &r in &self.vo.roots {
            if r == node || path_nodes.contains(&r) {
                continue;
            }
            if self.subtree_free[r] {
                expansions.push(r);
            } else if let Some(m) = self.interface(r, &bindings) {
                scalar = scalar.times(&m);
            } else {
                scalar = R::zero();
            }
        }
        if scalar.is_zero() {
            return Ok(());
        }
        self.expand_delta(&expansions, 0, &mut bindings, scalar, f);
        Ok(())
    }

    /// Nested enumeration over free sibling subtrees of a delta.
    fn expand_delta(
        &self,
        expansions: &[usize],
        i: usize,
        bindings: &mut Bindings,
        acc: R,
        f: &mut dyn FnMut(&Tuple, &R),
    ) {
        if acc.is_zero() {
            return;
        }
        if i == expansions.len() {
            if let Some(t) = bindings.project(&self.query.free) {
                f(&t, &acc);
            }
            return;
        }
        self.for_each_subtree(
            expansions[i],
            bindings,
            acc,
            &mut |bs, m, f2| self.expand_delta(expansions, i + 1, bs, m, f2),
            f,
        );
    }

    /// Enumerate the free assignments within one subtree, threading the
    /// multiplied payload through `k`.
    #[allow(clippy::type_complexity)]
    fn for_each_subtree(
        &self,
        node: usize,
        bindings: &mut Bindings,
        acc: R,
        k: &mut dyn FnMut(&mut Bindings, R, &mut dyn FnMut(&Tuple, &R)),
        f: &mut dyn FnMut(&Tuple, &R),
    ) {
        debug_assert!(self.subtree_free[node]);
        let Node::Var { var, dep, children } = &self.vo.nodes[node] else {
            unreachable!("free subtrees are rooted at variable nodes")
        };
        let Some(key) = bindings.project(dep) else {
            return;
        };
        let Some(group) = self.views[node]
            .as_ref()
            .expect("var node")
            .groups
            .get(&key)
        else {
            return;
        };
        let free_children: Vec<usize> = children
            .iter()
            .copied()
            .filter(|&c| self.subtree_free[c])
            .collect();
        for x in group.entries.keys() {
            bindings.set(*var, x.clone());
            let mut m = acc.clone();
            for &c in children {
                if !self.subtree_free[c] {
                    match self.interface(c, bindings) {
                        Some(v) => m = m.times(&v),
                        None => m = R::zero(),
                    }
                    if m.is_zero() {
                        break;
                    }
                }
            }
            if !m.is_zero() {
                self.chain_children(&free_children, 0, bindings, m, k, f);
            }
            bindings.unset(*var);
        }
    }

    #[allow(clippy::type_complexity)]
    fn chain_children(
        &self,
        free_children: &[usize],
        i: usize,
        bindings: &mut Bindings,
        acc: R,
        k: &mut dyn FnMut(&mut Bindings, R, &mut dyn FnMut(&Tuple, &R)),
        f: &mut dyn FnMut(&Tuple, &R),
    ) {
        if i == free_children.len() {
            k(bindings, acc, f);
            return;
        }
        self.for_each_subtree(
            free_children[i],
            bindings,
            acc,
            &mut |bs, m, f2| self.chain_children(free_children, i + 1, bs, m, k, f2),
            f,
        );
    }

    /// Materialize the current output (test/oracle helper; O(|output|)).
    pub fn output(&self) -> Relation<R> {
        let mut out = Relation::new(self.query.free.clone());
        self.for_each_output(&mut |t, r| {
            out.apply(t.clone(), r);
        });
        out
    }
}

impl<R: Semiring> std::fmt::Debug for ViewTree<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewTree")
            .field("query", &self.query)
            .field("view_entries", &self.view_entries())
            .finish_non_exhaustive()
    }
}

/// Per node: subtree contains only static atoms.
fn compute_static_complete(q: &Query, vo: &VarOrder) -> Vec<bool> {
    let mut out = vec![true; vo.nodes.len()];
    fn rec(q: &Query, vo: &VarOrder, id: usize, out: &mut Vec<bool>) -> bool {
        let v = match &vo.nodes[id] {
            Node::Atom { atom } => !q.atoms[*atom].dynamic,
            Node::Var { children, .. } => {
                let mut all = true;
                for &c in children.clone().iter() {
                    all &= rec(q, vo, c, out);
                }
                all
            }
        };
        out[id] = v;
        v
    }
    for &r in &vo.roots {
        rec(q, vo, r, &mut out);
    }
    out
}

/// Per node: subtree contains a free variable node.
fn compute_subtree_free(q: &Query, vo: &VarOrder) -> Vec<bool> {
    let mut out = vec![false; vo.nodes.len()];
    fn rec(q: &Query, vo: &VarOrder, id: usize, out: &mut Vec<bool>) -> bool {
        let v = match &vo.nodes[id] {
            Node::Atom { .. } => false,
            Node::Var { var, children, .. } => {
                let mut any = q.is_free(*var);
                for &c in children.clone().iter() {
                    any |= rec(q, vo, c, out);
                }
                any
            }
        };
        out[id] = v;
        v
    }
    for &r in &vo.roots {
        rec(q, vo, r, &mut out);
    }
    out
}

/// DFS linearization of the free region: parents before children, so each
/// step's dep set is bound by earlier steps; bound roots become scalar
/// steps.
fn build_plan(_q: &Query, vo: &VarOrder, subtree_free: &[bool]) -> Vec<PlanStep> {
    let mut plan = Vec::new();
    fn rec(vo: &VarOrder, id: usize, subtree_free: &[bool], plan: &mut Vec<PlanStep>) {
        if !subtree_free[id] {
            return; // handled as a scalar factor by the parent step
        }
        if let Node::Var { children, .. } = &vo.nodes[id] {
            plan.push(PlanStep::Free(id));
            for &c in children {
                rec(vo, c, subtree_free, plan);
            }
        }
    }
    for &r in &vo.roots {
        if subtree_free[r] {
            rec(vo, r, subtree_free, &mut plan);
        } else {
            plan.push(PlanStep::ScalarRoot(r));
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::ops::{eval_join_aggregate, lift_one};
    use ivm_data::{sym, tup, vars, Update};
    use ivm_query::Atom;

    fn fig3_setup() -> (Query, ViewTree<i64>) {
        let q = ivm_query::examples::fig3_query();
        let tree = ViewTree::new(q.clone(), lift_one).unwrap();
        (q, tree)
    }

    #[test]
    fn fig3_insert_enumerate() {
        let (_, mut tree) = fig3_setup();
        let (r, s) = (sym("f3_R"), sym("f3_S"));
        // R(Y,X), S(Y,Z)
        tree.apply(&Update::insert(r, tup![1i64, 10i64])).unwrap();
        tree.apply(&Update::insert(r, tup![1i64, 11i64])).unwrap();
        tree.apply(&Update::insert(s, tup![1i64, 20i64])).unwrap();
        tree.apply(&Update::insert(s, tup![2i64, 21i64])).unwrap();
        let out = tree.output();
        // Q(Y,X,Z): y=1 joins (10,20) and (11,20); y=2 has no R partner.
        assert_eq!(out.len(), 2);
        assert_eq!(out.get(&tup![1i64, 10i64, 20i64]), 1);
        assert_eq!(out.get(&tup![1i64, 11i64, 20i64]), 1);
    }

    #[test]
    fn fig3_delete_restores() {
        let (_, mut tree) = fig3_setup();
        let (r, s) = (sym("f3_R"), sym("f3_S"));
        tree.apply(&Update::insert(r, tup![1i64, 10i64])).unwrap();
        tree.apply(&Update::insert(s, tup![1i64, 20i64])).unwrap();
        assert_eq!(tree.output().len(), 1);
        tree.apply(&Update::delete(r, tup![1i64, 10i64])).unwrap();
        assert_eq!(tree.output().len(), 0);
        // Only the S-side entry (z=20 under y=1) survives: the X-node
        // group and the root's y-entry are pruned on cancellation.
        assert_eq!(tree.view_entries(), 1);
    }

    #[test]
    fn maintained_equals_recompute_random() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let q = ivm_query::examples::fig3_query();
        let (rn, sn) = (sym("f3_R"), sym("f3_S"));
        let mut tree: ViewTree<i64> = ViewTree::new(q.clone(), lift_one).unwrap();
        let mut r_rel = Relation::<i64>::new(q.atoms[0].schema.clone());
        let mut s_rel = Relation::<i64>::new(q.atoms[1].schema.clone());
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..300 {
            let y = rng.gen_range(0..5i64);
            let v = rng.gen_range(0..5i64);
            // Valid streams only (Sec. 2): deletes target present tuples,
            // so multiplicities stay non-negative.
            let (rel, oracle) = if rng.gen_bool(0.5) {
                (rn, &mut r_rel)
            } else {
                (sn, &mut s_rel)
            };
            let m: i64 = if rng.gen_bool(0.3) && oracle.get(&tup![y, v]) > 0 {
                -1
            } else {
                1
            };
            tree.apply(&Update::with_payload(rel, tup![y, v], m))
                .unwrap();
            oracle.apply(tup![y, v], &m);
        }
        let expect = eval_join_aggregate(&[&r_rel, &s_rel], &q.free, lift_one);
        let got = tree.output();
        assert_eq!(got.len(), expect.len());
        for (t, p) in expect.iter() {
            assert_eq!(&got.get(t), p, "mismatch at {t:?}");
        }
    }

    #[test]
    fn boolean_query_counts_via_totals() {
        // Q() = Σ_{X,Y} R(X,Y)·S(Y): Boolean (no free vars) — output is
        // the single empty tuple with the full count.
        let [x, y] = vars(["vt_X", "vt_Y"]);
        let (rn, sn) = (sym("vt_R"), sym("vt_S"));
        let q = Query::new(
            "vt_bool",
            [],
            vec![Atom::new(rn, [x, y]), Atom::new(sn, [y])],
        );
        let mut tree: ViewTree<i64> = ViewTree::new(q, lift_one).unwrap();
        tree.apply(&Update::insert(rn, tup![1i64, 5i64])).unwrap();
        tree.apply(&Update::insert(rn, tup![2i64, 5i64])).unwrap();
        tree.apply(&Update::with_payload(sn, tup![5i64], 3))
            .unwrap();
        let out = tree.output();
        assert_eq!(out.get(&Tuple::empty()), 6);
    }

    #[test]
    fn rejects_non_q_hierarchical() {
        let q = ivm_query::examples::ex51_query();
        let err = ViewTree::<i64>::new(q, lift_one).unwrap_err();
        assert!(matches!(err, EngineError::NotSupported(_)));
    }

    #[test]
    fn rejects_self_join() {
        let q = ivm_query::examples::triangle_count();
        let err = ViewTree::<i64>::new(q, lift_one).unwrap_err();
        // Triangle has duplicate relation names AND is non-hierarchical;
        // the canonical order fails first.
        assert!(matches!(
            err,
            EngineError::VarOrder(_) | EngineError::DuplicateRelation(_)
        ));
    }

    #[test]
    fn static_updates_rejected() {
        let q = ivm_query::examples::ex414_query();
        let vo = ivm_query::varorder::find_tractable_order(&q).unwrap();
        let mut tree: ViewTree<i64> = ViewTree::with_order(q, vo, lift_one).unwrap();
        let err = tree
            .apply(&Update::insert(sym("e414_T"), tup![1i64, 2i64]))
            .unwrap_err();
        assert_eq!(err, EngineError::StaticRelation(sym("e414_T")));
    }

    #[test]
    fn ex414_static_dynamic_maintenance() {
        // Q(A,B,C) = Σ_D R(A,D)·S(A,B)·T(B,C), T static.
        let q = ivm_query::examples::ex414_query();
        let vo = ivm_query::varorder::find_tractable_order(&q).unwrap();
        let mut tree: ViewTree<i64> = ViewTree::with_order(q.clone(), vo, lift_one).unwrap();
        // Preprocess the static relation.
        let mut db: Database<i64> = Database::new();
        let t_schema = q.atoms[2].schema.clone();
        let mut t_rel = Relation::new(t_schema.clone());
        t_rel.insert(tup![7i64, 70i64]);
        t_rel.insert(tup![7i64, 71i64]);
        t_rel.insert(tup![8i64, 80i64]);
        db.add(sym("e414_T"), t_rel.clone());
        tree.preprocess(&db).unwrap();

        let (rn, sn) = (sym("e414_R"), sym("e414_S"));
        tree.apply(&Update::insert(rn, tup![1i64, 100i64])).unwrap();
        tree.apply(&Update::insert(sn, tup![1i64, 7i64])).unwrap();
        let out = tree.output();
        // Q(A,B,C): a=1, b=7, c ∈ {70, 71}.
        assert_eq!(out.len(), 2);
        assert_eq!(out.get(&tup![1i64, 7i64, 70i64]), 1);
        assert_eq!(out.get(&tup![1i64, 7i64, 71i64]), 1);

        // Against the oracle.
        let mut r_rel = Relation::<i64>::new(q.atoms[0].schema.clone());
        r_rel.insert(tup![1i64, 100i64]);
        let mut s_rel = Relation::<i64>::new(q.atoms[1].schema.clone());
        s_rel.insert(tup![1i64, 7i64]);
        let expect = eval_join_aggregate(&[&r_rel, &s_rel, &t_rel], &q.free, lift_one);
        assert_eq!(out.len(), expect.len());
        for (t, p) in expect.iter() {
            assert_eq!(&out.get(t), p);
        }
    }

    #[test]
    fn delta_enumeration_matches_output_diff() {
        let (q, mut tree) = fig3_setup();
        let (r, s) = (sym("f3_R"), sym("f3_S"));
        tree.apply(&Update::insert(r, tup![1i64, 10i64])).unwrap();
        tree.apply(&Update::insert(s, tup![1i64, 20i64])).unwrap();
        tree.apply(&Update::insert(s, tup![1i64, 21i64])).unwrap();

        let before = tree.output();
        let upd = Update::insert(r, tup![1i64, 11i64]);
        let mut delta = Relation::<i64>::new(q.free.clone());
        tree.delta_for_each(&upd, &mut |t, m| {
            delta.apply(t.clone(), m);
        })
        .unwrap();
        tree.apply(&upd).unwrap();
        let after = tree.output();

        // after = before ⊎ delta
        let merged = ivm_data::ops::union(&before, &delta);
        assert_eq!(merged.len(), after.len());
        for (t, p) in after.iter() {
            assert_eq!(&merged.get(t), p);
        }
        assert_eq!(delta.len(), 2, "one new X pairs with two Z values");
    }

    #[test]
    fn disconnected_query_cross_product() {
        let [a, b] = vars(["vt_A2", "vt_B2"]);
        let (rn, sn) = (sym("vt_R2"), sym("vt_S2"));
        let q = Query::new(
            "vt_disc",
            [a, b],
            vec![Atom::new(rn, [a]), Atom::new(sn, [b])],
        );
        let mut tree: ViewTree<i64> = ViewTree::new(q, lift_one).unwrap();
        tree.apply(&Update::insert(rn, tup![1i64])).unwrap();
        tree.apply(&Update::insert(rn, tup![2i64])).unwrap();
        tree.apply(&Update::insert(sn, tup![7i64])).unwrap();
        let out = tree.output();
        assert_eq!(out.len(), 2);
        assert_eq!(out.get(&tup![1i64, 7i64]), 1);
        assert_eq!(out.get(&tup![2i64, 7i64]), 1);
    }

    #[test]
    fn bound_enumeration_filters() {
        let (_, mut tree) = fig3_setup();
        let (r, s) = (sym("f3_R"), sym("f3_S"));
        for y in 0..3i64 {
            tree.apply(&Update::insert(r, tup![y, 10i64])).unwrap();
            tree.apply(&Update::insert(s, tup![y, 20i64])).unwrap();
        }
        let [yv] = vars(["f3_Y"]);
        let mut pre = Bindings::new();
        pre.set(yv, Value::from(1i64));
        let mut seen = Vec::new();
        tree.for_each_output_bound(&pre, &mut |t, _| seen.push(t.clone()));
        assert_eq!(seen, vec![tup![1i64, 10i64, 20i64]]);
    }

    /// The documented caveat: with mixed-sign multiplicities at
    /// enumeration time (an *invalid* database per Sec. 2), marginal
    /// totals can cancel and factorized enumeration prunes branches that
    /// the flat output keeps. Valid databases never hit this.
    #[test]
    fn mixed_sign_multiplicities_caveat() {
        let (q, mut tree) = fig3_setup();
        let (r, s) = (sym("f3_R"), sym("f3_S"));
        // Two R tuples under y=1 with multiplicities +1 and −1: the
        // X-marginal for y=1 cancels to zero.
        tree.apply(&Update::with_payload(r, tup![1i64, 10i64], 1))
            .unwrap();
        tree.apply(&Update::with_payload(r, tup![1i64, 11i64], -1))
            .unwrap();
        tree.apply(&Update::insert(s, tup![1i64, 20i64])).unwrap();
        // The flat output would have two tuples (payloads +1 and −1); the
        // factorized enumeration sees a zero root marginal and emits none.
        assert_eq!(tree.output().len(), 0);
        let mut r_rel = Relation::<i64>::new(q.atoms[0].schema.clone());
        r_rel.apply(tup![1i64, 10i64], &1);
        r_rel.apply(tup![1i64, 11i64], &-1);
        let mut s_rel = Relation::<i64>::new(q.atoms[1].schema.clone());
        s_rel.insert(tup![1i64, 20i64]);
        let flat = eval_join_aggregate(&[&r_rel, &s_rel], &q.free, lift_one);
        assert_eq!(flat.len(), 2, "the flat oracle keeps both tuples");
        // Restoring validity (delete the negative tuple) re-synchronizes.
        tree.apply(&Update::with_payload(r, tup![1i64, 11i64], 1))
            .unwrap();
        assert_eq!(tree.output().len(), 1);
    }

    #[test]
    fn lifting_applies_to_bound_vars() {
        // Q(X) = Σ_Y R(X,Y) with g_Y(y) = y: payload = Σ y per X.
        let [x, y] = vars(["vt_X3", "vt_Y3"]);
        let rn = sym("vt_R3");
        let q = Query::new("vt_lift", [x], vec![Atom::new(rn, [x, y])]);
        fn lift_val(_: Sym, v: &Value) -> i64 {
            v.as_int().unwrap()
        }
        let mut tree: ViewTree<i64> = ViewTree::new(q, lift_val).unwrap();
        tree.apply(&Update::insert(rn, tup![1i64, 10i64])).unwrap();
        tree.apply(&Update::insert(rn, tup![1i64, 20i64])).unwrap();
        let out = tree.output();
        assert_eq!(out.get(&tup![1i64]), 30);
    }
}
