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
//! # Slots and bound factors
//!
//! Every variable gets a *slot* when the tree is built — free variables
//! first, in output order — and each atom's leaf-to-root update path and
//! the enumeration plans are compiled against the slots: per step the
//! node, its variable's slot, its view key's slots, the sibling probes and
//! whether each child is *bound* (no free variable below it; atom leaves
//! are bound).
//!
//! The tree holds no [`Value`]: it owns a dictionary ([`Dict`], the one
//! the dataflow multiway join uses too) that maps each value to a dense
//! `u32` id, and every map is keyed by ids. A leaf is keyed by its stored
//! tuple and a grouped view by its `dep(X)` key, both [`IdMap`]s: a key
//! of up to two ids is packed into a `u64` table slot, one of three or
//! four into a `u128`, so a probe is one multiply and one bucket, and a
//! new key allocates nothing. A group's entries and a mixed node's factors
//! are keyed by the one id of `x`, and a group's only entry sits inline in
//! the group's slot; an FD fetch index is keyed by its determinant's ids.
//! An update encodes its tuple's columns once into one reused slot row of
//! ids (fetches fill their slots in ids too), and every lookup packs its
//! key straight from that row. Values are decoded only where they leave
//! the tree: a lift `g_X(x)`, and enumeration, which binds ids loop by
//! loop and decodes each bound id once, at its bind, into one reused
//! output row.
//!
//! Every stored key occurrence — a leaf tuple, a group key, an entry, a
//! factor group's key and its entries, a fetch-index key and its values —
//! holds one reference per id it contains, taken when it appears and given
//! back when it goes. Leaves alone would not do: with float payloads a
//! group entry can keep a non-zero residue after its leaf tuples have
//! left. The tree sweeps the dictionary at the end of every update and
//! preprocessing, so an id no key holds is freed and reused, and a stream
//! over ever-fresh values keeps the dictionary at its live distinct-value
//! count.
//!
//! Per entry of a free node, enumeration needs only its *factor*: `Π` over
//! the bound children — the payload itself when every child is bound, `1`
//! when none is. A **mixed** node (bound and free children) stores the
//! factor per entry under the invariant `factor(x) = Π_{bound c}
//! iface_c(x)`, kept by the update walk from the sibling lookups it makes
//! anyway. Arriving from bound child `c₀`, an existing entry's factor grows
//! by `Δiface(c₀) · Π` of the bound siblings and a created entry's is
//! `iface(c₀)` after the update (the walk carries it: the leaf's payload,
//! then each group's new total) `· Π` of the bound siblings; arriving from
//! a free child, a created entry's factor is the bound siblings' product
//! and an existing one's is unchanged; a factor goes with its entry. So
//! enumeration reads `(x, factor)` straight off a group and never probes a
//! base relation.
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
//!
//! # Work
//!
//! [`ViewTree::work`] counts the tree's work since it was built: one unit
//! per hash-map probe and one per map entry visited, on the update path and
//! the enumeration paths alike. The paper's Sec. 4 bounds are statements
//! about this count — constant per update, and constant between two
//! consecutive output tuples (the enumeration *delay*) — so tests assert
//! them on it instead of on the clock. A dictionary encode or decode is
//! not a unit: it is not a probe of the tree's maps, and an update encodes
//! at most one value per stored column, an enumeration decodes one per
//! bind, so the bounds hold for it too.

use crate::bindings::Bindings;
use crate::checked::CheckedBatch;
use crate::error::EngineError;
use ivm_data::ids::{gather, Dict, Id, IdMap};
use ivm_data::ops::Lift;
use ivm_data::{Database, Entry, FxHashMap, Presence, Relation, Schema, Sym, Tuple, Update, Value};
use ivm_query::varorder::Node;
use ivm_query::{Query, VarOrder};
use ivm_ring::Semiring;
use std::cell::Cell;

/// One group of a grouped view: the `X`-values compatible with a `dep(X)`
/// key, plus their lifted total.
struct VGroup<R> {
    /// `Σ_x g_X(x) · entries[x]` (or `Σ_x entries[x]` for free `X`).
    total: R,
    /// Per-`X`-value payload `Π_children interface`.
    entries: Entries<R>,
}

/// The grouped view of one variable node, keyed by the ids of `dep(X)`.
struct View<R> {
    groups: IdMap<VGroup<R>>,
    /// Mixed nodes only: per group, per-`X`-value `Π_bound children
    /// interface`, on exactly the keys of `groups` and their entries.
    factors: IdMap<Entries<R>>,
}

/// A group's entries, or its stored factors, by the id of `x`. A group
/// of a fine-grained view mostly holds one entry: it sits inline in the
/// group's table slot, so reading it follows no second pointer and
/// creating it allocates nothing. Emptied, it is an empty (unallocated)
/// map.
#[derive(Debug)]
enum Entries<R> {
    One(Id, R),
    Many(FxHashMap<Id, R>),
}

impl<R: Semiring> Entries<R> {
    fn len(&self) -> usize {
        match self {
            Entries::One(..) => 1,
            Entries::Many(m) => m.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get(&self, x: Id) -> Option<&R> {
        match self {
            Entries::One(y, r) => (*y == x).then_some(r),
            Entries::Many(m) => m.get(&x),
        }
    }

    fn get_mut(&mut self, x: Id) -> Option<&mut R> {
        match self {
            Entries::One(y, r) => (*y == x).then_some(r),
            Entries::Many(m) => m.get_mut(&x),
        }
    }

    /// Call `f` on every entry.
    fn for_each(&self, mut f: impl FnMut(Id, &R)) {
        match self {
            Entries::One(x, r) => f(*x, r),
            Entries::Many(m) => m.iter().for_each(|(&x, r)| f(x, r)),
        }
    }

    /// Add the entry `x ↦ r`; `x` has none. A second entry spills the
    /// inline one into a map.
    fn insert(&mut self, x: Id, r: R) {
        *self = match std::mem::replace(self, Entries::Many(FxHashMap::default())) {
            Entries::Many(m) if m.is_empty() => Entries::One(x, r),
            Entries::Many(mut m) => {
                m.insert(x, r);
                Entries::Many(m)
            }
            Entries::One(y, q) => Entries::Many([(y, q), (x, r)].into_iter().collect()),
        };
    }

    /// Drop the entry of `x`; whether it had one.
    fn remove(&mut self, x: Id) -> bool {
        match self {
            Entries::One(y, _) if *y == x => {
                *self = Entries::Many(FxHashMap::default());
                true
            }
            Entries::One(..) => false,
            Entries::Many(m) => m.remove(&x).is_some(),
        }
    }

    /// `self[x] += delta`, pruning a cancelled entry and counting `x` in or
    /// out of `dict` as its entry appears or vanishes: what happened.
    fn add(&mut self, x: Id, delta: &R, dict: &mut Dict) -> Presence {
        let Some(p) = self.get_mut(x) else {
            self.insert(x, delta.clone());
            dict.retain(x);
            return Presence::Appeared;
        };
        p.add_assign(delta);
        if !p.is_zero() {
            return Presence::Unchanged;
        }
        self.remove(x);
        dict.release(x);
        Presence::Vanished
    }
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

/// A compiled fetcher: the slot it fills from its determinant's slots,
/// and where the determinant and the fetched column sit in the provider's
/// stored tuples.
struct Fetch {
    slot: usize,
    lhs: Box<[usize]>,
    provider: usize,
    lhs_pos: Box<[usize]>,
    var_pos: usize,
}

/// A fetcher's index over its provider's stored tuples: per determinant
/// key, the ids the fetched variable takes, each with the number of stored
/// tuples supporting it (one, when the FD holds).
type FetchIndex = IdMap<Vec<(Id, u32)>>;

/// A compiled interface lookup: an atom's stored payload (`leaf`) or a
/// variable node's group total, keyed by slots.
struct Probe {
    leaf: Option<usize>,
    node: usize,
    key: Box<[usize]>,
}

/// One step of an atom's compiled leaf-to-root update path.
struct UpStep {
    node: usize,
    var: Sym,
    slot: usize,
    key: Box<[usize]>,
    /// `X` is bound: its total is lifted by `g_X(x)`.
    lift: bool,
    /// The node stores bound factors.
    mixed: bool,
    /// The child the walk arrives from is bound.
    from_bound: bool,
    /// The other children, each with whether it is bound.
    siblings: Vec<(Probe, bool)>,
    /// Slots the step reads; an FD fetch miss stops the walk before it.
    needs: u64,
}

/// Where an enumeration step reads each entry's factor.
#[derive(PartialEq)]
enum Factor {
    /// No bound child: `1`.
    One,
    /// Only bound children: the entry payload.
    Payload,
    /// A mixed node: the stored factor.
    Stored,
}

/// One loop of an enumeration: the entries of `node`'s group under the key
/// earlier loops fixed, bound into `slot`.
struct EnumStep {
    node: usize,
    slot: usize,
    key: Box<[usize]>,
    factor: Factor,
}

/// A compiled enumeration: scalar probes and lifts multiplied in once,
/// then nested loops over free variable nodes, parents first.
#[derive(Default)]
struct Plan {
    scalars: Vec<Probe>,
    lifts: Vec<(Sym, usize)>,
    steps: Vec<EnumStep>,
    /// Slots the scalars, lifts and loop keys read.
    needs: u64,
}

/// An atom's compiled update path, and its delta enumeration: bound
/// siblings and other bound roots as scalars, bound path variables as
/// lifts, free sibling subtrees and other free roots as loops.
struct Path {
    /// Slot of each stored column.
    cols: Box<[usize]>,
    steps: Vec<UpStep>,
    delta: Plan,
}

/// A factorized view tree over a query and a variable order.
pub struct ViewTree<R> {
    query: Query,
    vo: VarOrder,
    /// The dictionary every key of the tree is encoded in.
    dict: Dict,
    /// Grouped views, indexed by node id (atom leaves keep an empty one).
    views: Vec<View<R>>,
    /// Leaf storage, per atom index, over `storage_schema`.
    leaves: Vec<IdMap<R>>,
    /// Schema of the stored tuples per atom (the original schema for FD
    /// engines; the atom schema otherwise).
    storage_schema: Vec<Schema>,
    /// Relation name → atom index (unique names required).
    rel_atom: FxHashMap<Sym, usize>,
    /// Lifting applied when marginalizing bound variables.
    lift: Lift<R>,
    /// FD fetchers and their provider indexes.
    fetches: Vec<Fetch>,
    fetch_indexes: Vec<FetchIndex>,
    /// Per atom: the compiled update path.
    paths: Vec<Path>,
    /// The full enumeration.
    plan: Plan,
    /// Scratch reused by every update: the slot row, the encoded stored
    /// tuple and a gathered key.
    row: Vec<Id>,
    tuple: Vec<Id>,
    key: Vec<Id>,
    /// Units of work so far (see the module docs). A `Cell`, not an
    /// atomic: enumeration takes `&self`, and a locked add per visited
    /// entry would tax the enumeration loop.
    work: Cell<u64>,
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

        // Slots: free variables first (a free slot is its output column),
        // then the rest of what the query, the storage and the fetchers name.
        let (mut slots, named) = (query.free.vars().to_vec(), query.variables());
        let fetched = fetchers
            .iter()
            .flat_map(|f| f.lhs.vars().iter().chain([&f.var]));
        let stored = storage_schema.iter().flat_map(|s| s.vars());
        for &v in named.vars().iter().chain(stored).chain(fetched) {
            if !slots.contains(&v) {
                slots.push(v);
            }
        }
        if slots.len() > 64 {
            return Err(EngineError::NotSupported(format!(
                "{} names {} variables; a view tree slots at most 64",
                query.name,
                slots.len()
            )));
        }
        let c = Compiler {
            query: &query,
            vo: &vo,
            storage: &storage_schema,
            slots: &slots,
        };
        let (mut fetches, mut fetch_indexes) = (Vec::new(), Vec::new());
        for f in &fetchers {
            // The provider stores the determinant and, beside it, the
            // fetched variable.
            let schema = storage_schema
                .get(f.provider)
                .filter(|s| f.lhs.subset_of(s) && f.lhs.position(f.var).is_none());
            let var_pos = schema.and_then(|s| s.position(f.var));
            let (Some(schema), Some(var_pos)) = (schema, var_pos) else {
                return Err(EngineError::NotSupported(format!(
                    "atom #{} does not provide the fetcher {:?} → {}",
                    f.provider, f.lhs, f.var
                )));
            };
            let (slot, lhs) = (c.slot(f.var), c.slots_of(&f.lhs));
            fetches.push(Fetch {
                slot,
                lhs,
                provider: f.provider,
                lhs_pos: schema.positions_of(&f.lhs).into(),
                var_pos,
            });
            fetch_indexes.push(IdMap::new(f.lhs.arity()));
        }
        let paths = (0..query.atoms.len())
            .map(|i| c.path(i, &fetches))
            .collect::<Result<_, _>>()?;
        let mut plan = Plan::default();
        c.roots(None, &mut plan);
        // A view is keyed by its node's dependency set (an atom leaf's
        // empty one is never used).
        let dep_arity = |n: &Node| match n {
            Node::Var { dep, .. } => dep.arity(),
            Node::Atom { .. } => 0,
        };
        Ok(ViewTree {
            dict: Dict::default(),
            views: vo
                .nodes
                .iter()
                .map(|n| View {
                    groups: IdMap::new(dep_arity(n)),
                    factors: IdMap::new(dep_arity(n)),
                })
                .collect(),
            leaves: storage_schema
                .iter()
                .map(|s| IdMap::new(s.arity()))
                .collect(),
            row: vec![0; slots.len()],
            tuple: Vec::new(),
            key: Vec::new(),
            work: Cell::new(0),
            query,
            vo,
            storage_schema,
            rel_atom,
            lift,
            fetches,
            fetch_indexes,
            paths,
            plan,
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

    /// Units of work since the tree was built: one per hash-map probe and
    /// one per map entry visited, on the update and enumeration paths.
    /// Read it between two calls (or inside an enumeration callback) to
    /// measure the work of an update or the delay before an output tuple.
    pub fn work(&self) -> u64 {
        self.work.get()
    }

    /// Total number of view entries across all nodes (space accounting).
    pub fn view_entries(&self) -> usize {
        self.views
            .iter()
            .map(|v| v.groups.values().map(|g| g.entries.len()).sum::<usize>())
            .sum()
    }

    /// The dictionary the tree's keys are encoded in.
    #[cfg(test)]
    pub(crate) fn dict(&self) -> &Dict {
        &self.dict
    }

    /// Load an initial database: static relations first (their propagation
    /// stops at the static-region boundary), then dynamic ones. O(|D|) for
    /// constant-update trees. A relation whose schema is not the stored one
    /// is refused before anything is loaded.
    pub fn preprocess(&mut self, db: &Database<R>) -> Result<(), EngineError> {
        let mut order: Vec<usize> = (0..self.query.atoms.len()).collect();
        for (atom, stored) in self.query.atoms.iter().zip(&self.storage_schema) {
            if let Some(rel) = db.get(atom.name).filter(|r| r.schema() != stored) {
                return Err(EngineError::NotSupported(format!(
                    "initial relation {} has schema {:?}, but the tree stores {:?}",
                    atom.name,
                    rel.schema(),
                    stored
                )));
            }
        }
        order.sort_by_key(|&i| self.query.atoms[i].dynamic);
        for i in order {
            for (t, r) in db
                .get(self.query.atoms[i].name)
                .into_iter()
                .flat_map(|r| r.iter())
            {
                self.apply_internal(i, t, r);
            }
        }
        self.dict.sweep();
        Ok(())
    }

    /// Apply a single-tuple update that passes the ingestion rule
    /// ([`CheckedBatch::new`]). O(1) for constant-update trees.
    pub fn apply(&mut self, upd: &Update<R>) -> Result<(), EngineError> {
        CheckedBatch::new(&self.query.atoms, std::slice::from_ref(upd))?;
        self.apply_checked(upd.entry());
        Ok(())
    }

    /// [`Self::apply`] for an entry of a checked batch — the engines
    /// check each batch once, at the door.
    pub(crate) fn apply_checked(&mut self, (relation, tuple, payload): Entry<'_, R>) {
        let atom = self.rel_atom[&relation];
        self.apply_internal(atom, tuple, payload);
        self.dict.sweep();
    }

    /// Shared update path (also used for static tuples at preprocessing).
    /// The ids it releases are freed by the caller's sweep.
    fn apply_internal(&mut self, atom: usize, tuple: &Tuple, payload: &R) {
        if payload.is_zero() {
            return;
        }
        // 1. Leaf storage and the fetch indexes on this relation. `cur` is
        //    the interface value, after the update, of the node the walk
        //    arrives from.
        let (dict, work) = (&mut self.dict, &self.work);
        let ids = dict.encode_all(tuple.values(), &mut self.tuple);
        let (mut cur, presence) = add_at(&mut self.leaves[atom], ids, payload);
        track(dict, presence, ids);
        tick(work, 1);
        for (f, idx) in self.fetches.iter().zip(&mut self.fetch_indexes) {
            if f.provider == atom {
                support(idx, f, ids, presence, dict, &mut self.key);
                tick(work, 1);
            }
        }

        // 2. Slots from the stored tuple, completed through fetchers.
        let (path, row, key) = (&self.paths[atom], &mut self.row, &mut self.key);
        for (&s, &id) in path.cols.iter().zip(ids) {
            row[s] = id;
        }
        let filled = complete(
            &self.fetches,
            &self.fetch_indexes,
            row,
            mask(&path.cols),
            key,
            work,
        );

        // 3. Propagate the delta along the compiled leaf-to-root path.
        let mut delta = payload.clone();
        'walk: for step in &path.steps {
            // A fetch miss (FD case) stops the propagation: the missing
            // tuple's own insertion carries the contribution later.
            if step.needs & !filled != 0 {
                break;
            }
            // Sibling lookups, bound and free apart: the bound product is
            // also what a mixed node's factors move by.
            let (mut bound, mut free) = (R::one(), R::one());
            for (probe, is_bound) in &step.siblings {
                match lookup(&self.views, &self.leaves, probe, row, key, work) {
                    Some(v) if *is_bound => bound = bound.times(v),
                    Some(v) => free = free.times(v),
                    None => break 'walk,
                }
            }
            let fdelta = delta.times(&bound);
            let edelta = fdelta.times(&free);
            if edelta.is_zero() {
                break;
            }
            let x = row[step.slot];
            let total_delta = if step.lift {
                edelta.times(&(self.lift)(step.var, dict.value(x)))
            } else {
                edelta.clone()
            };
            // A created entry's factor (see the module docs).
            let created = |cur: &R| match step.from_bound {
                true => cur.times(&bound),
                false => bound.clone(),
            };
            let view = &mut self.views[step.node];
            let k = gather(row, &step.key, key);
            // The group probe and its entry's update.
            tick(work, 2);
            let (presence, now) = match view.groups.get_mut(k) {
                None => {
                    track(dict, Presence::Appeared, k);
                    dict.retain(x);
                    let group = VGroup {
                        total: total_delta.clone(),
                        entries: Entries::One(x, edelta),
                    };
                    view.groups.insert(k, group);
                    (Presence::Appeared, total_delta.clone())
                }
                Some(group) => {
                    group.total.add_assign(&total_delta);
                    let presence = group.entries.add(x, &edelta, dict);
                    let now = group.total.clone();
                    if group.entries.is_empty() {
                        view.groups.remove(k);
                        track(dict, Presence::Vanished, k);
                    }
                    (presence, now)
                }
            };
            if step.mixed {
                // The factor group probe and its entry's update.
                tick(work, 2);
                match (presence, view.factors.get_mut(k)) {
                    (Presence::Appeared, Some(m)) => {
                        // A factor goes with its entry, so `x` is new here.
                        m.insert(x, created(&cur));
                        dict.retain(x);
                    }
                    (Presence::Appeared, None) => {
                        track(dict, Presence::Appeared, k);
                        dict.retain(x);
                        view.factors.insert(k, Entries::One(x, created(&cur)));
                    }
                    (Presence::Vanished, Some(m)) => {
                        if m.remove(x) {
                            dict.release(x);
                        }
                        if m.is_empty() {
                            view.factors.remove(k);
                            track(dict, Presence::Vanished, k);
                        }
                    }
                    (Presence::Unchanged, Some(m)) if step.from_bound => {
                        m.add(x, &fdelta, dict);
                    }
                    _ => {}
                }
            }
            cur = now;
            delta = total_delta;
            if delta.is_zero() {
                break;
            }
        }
    }

    /// Enumerate the query output with constant delay, calling `f` for
    /// each `(tuple over query.free, payload)`.
    pub fn for_each_output(&self, f: &mut dyn FnMut(&Tuple, &R)) {
        self.enumerate(&[], f);
    }

    /// Enumerate with some free variables pre-bound (CQAP access requests,
    /// Sec. 4.3): only outputs agreeing with `prebound` are produced. A
    /// pre-bound value the tree does not hold is looked up, not encoded:
    /// its loop finds no entry, and the dictionary does not change.
    pub fn for_each_output_bound(&self, prebound: &Bindings, f: &mut dyn FnMut(&Tuple, &R)) {
        let free = self.query.free.vars();
        let fixed: Vec<Option<Option<Id>>> = free
            .iter()
            .map(|&v| prebound.get(v).map(|x| self.dict.lookup(x)))
            .collect();
        self.enumerate(&fixed, f);
    }

    fn enumerate(&self, fixed: &[Option<Option<Id>>], f: &mut dyn FnMut(&Tuple, &R)) {
        let arity = self.query.free.arity();
        let mut cur = Cursor {
            ids: vec![0; arity],
            out: Tuple::new((0..arity).map(|_| Value::Int(0))),
            key: Vec::new(),
        };
        let acc = self.times_probes(&self.plan.scalars, &cur.ids, &mut cur.key, R::one());
        if !acc.is_zero() {
            self.descend(&self.plan.steps, &mut cur, fixed, &acc, f);
        }
    }

    /// `acc ·` the interfaces `probes` read under `row` (zero on a miss).
    fn times_probes(&self, probes: &[Probe], row: &[Id], key: &mut Vec<Id>, acc: R) -> R {
        probes.iter().fold(acc, |acc, p| {
            lookup(&self.views, &self.leaves, p, row, key, &self.work)
                .map_or_else(R::zero, |v| acc.times(v))
        })
    }

    /// The one enumeration routine (full, prebound and delta): nested
    /// loops over `steps`, each binding its slot of `cur` to the entries
    /// of its group under the key earlier loops fixed — only the pinned
    /// id where `fixed` pins one (`Some(None)`: a value the tree does not
    /// hold, so none) — times the entry's factor. A bind decodes its id
    /// into the output row once, for every tuple below it.
    fn descend(
        &self,
        steps: &[EnumStep],
        cur: &mut Cursor,
        fixed: &[Option<Option<Id>>],
        acc: &R,
        f: &mut dyn FnMut(&Tuple, &R),
    ) {
        let Some((step, rest)) = steps.split_first() else {
            return f(&cur.out, acc);
        };
        let view = &self.views[step.node];
        tick(&self.work, 1);
        let map = match step.factor {
            Factor::Stored => view.factors.get_at(&cur.ids, &step.key, &mut cur.key),
            _ => view
                .groups
                .get_at(&cur.ids, &step.key, &mut cur.key)
                .map(|g| &g.entries),
        };
        let Some(map) = map else {
            return;
        };
        let mut visit = |x: Id, m: &R| {
            cur.ids[step.slot] = x;
            cur.out.values_mut()[step.slot].clone_from(self.dict.value(x));
            if step.factor == Factor::One {
                return self.descend(rest, cur, fixed, acc, f);
            }
            let m = acc.times(m);
            if !m.is_zero() {
                self.descend(rest, cur, fixed, &m, f);
            }
        };
        match fixed.get(step.slot) {
            Some(&Some(pin)) => {
                tick(&self.work, 1);
                if let Some((x, m)) = pin.and_then(|x| map.get(x).map(|m| (x, m))) {
                    visit(x, m);
                }
            }
            _ => map.for_each(|x, m| {
                tick(&self.work, 1);
                visit(x, m)
            }),
        }
    }

    /// Enumerate the *delta output* of a single-tuple update before it is
    /// applied: the set of output tuples whose payload changes, with their
    /// payload deltas. Used by the eager-list engine (Sec. 3.2 style) to
    /// maintain a materialized output; costs O(|δQ|). The update's values
    /// are encoded (an output tuple may carry them); the ids no key comes
    /// to hold are freed by the sweep after the update is applied. The
    /// caller has checked the update, as for [`Self::apply_checked`].
    pub(crate) fn delta_for_each(&mut self, entry: Entry<'_, R>, f: &mut dyn FnMut(&Tuple, &R)) {
        let (relation, tuple, payload) = entry;
        let path = &self.paths[self.rel_atom[&relation]];
        let (mut row, mut key) = (self.row.clone(), Vec::new());
        for (&s, v) in path.cols.iter().zip(tuple.values()) {
            row[s] = self.dict.encode(v);
        }
        let filled = complete(
            &self.fetches,
            &self.fetch_indexes,
            &mut row,
            mask(&path.cols),
            &mut key,
            &self.work,
        );
        if path.delta.needs & !filled != 0 {
            return; // a fetch miss: the update changes no output yet
        }
        let scalar = payload.clone();
        let mut acc = self.times_probes(&path.delta.scalars, &row, &mut key, scalar);
        for &(var, s) in &path.delta.lifts {
            acc = acc.times(&(self.lift)(var, self.dict.value(row[s])));
        }
        if !acc.is_zero() {
            // The free values the update fixes; the loops bind the rest.
            let arity = self.query.free.arity();
            let out = (0..arity).map(|s| match filled >> s & 1 {
                1 => self.dict.value(row[s]).clone(),
                _ => Value::Int(0),
            });
            let out = Tuple::new(out);
            row.truncate(arity);
            let mut cur = Cursor { ids: row, out, key };
            self.descend(&path.delta.steps, &mut cur, &[], &acc, f);
        }
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

/// The scratch of one enumeration: the ids bound to the free slots (loop
/// keys are packed from them), the output row their values are decoded
/// into, and the buffer a key of more than four ids is gathered in.
struct Cursor {
    ids: Vec<Id>,
    out: Tuple,
    key: Vec<Id>,
}

/// Plan-time compilation of update paths and enumerations onto slots.
struct Compiler<'a> {
    query: &'a Query,
    vo: &'a VarOrder,
    storage: &'a [Schema],
    slots: &'a [Sym],
}

impl Compiler<'_> {
    fn slot(&self, v: Sym) -> usize {
        self.slots
            .iter()
            .position(|&s| s == v)
            .expect("every variable has a slot")
    }

    fn slots_of(&self, schema: &Schema) -> Box<[usize]> {
        schema.vars().iter().map(|&v| self.slot(v)).collect()
    }

    /// Free variables at and below `node`; zero for a bound child.
    fn free_vars(&self, node: usize) -> usize {
        let own = self.vo.var_of(node).is_some_and(|v| self.query.is_free(v));
        let below = self.vo.children_of(node).iter().map(|&c| self.free_vars(c));
        usize::from(own) + below.sum::<usize>()
    }

    /// Whether every atom under `node` is static.
    fn all_static(&self, node: usize) -> bool {
        match &self.vo.nodes[node] {
            Node::Atom { atom } => !self.query.atoms[*atom].dynamic,
            Node::Var { children, .. } => children.iter().all(|&c| self.all_static(c)),
        }
    }

    /// The interface lookup of a child node.
    fn probe(&self, node: usize) -> Probe {
        let (leaf, key) = match &self.vo.nodes[node] {
            Node::Atom { atom } => (Some(*atom), &self.storage[*atom]),
            Node::Var { dep, .. } => (None, dep),
        };
        let key = self.slots_of(key);
        Probe { leaf, node, key }
    }

    fn factor(&self, node: usize) -> Factor {
        let children = self.vo.children_of(node);
        let free = children.iter().filter(|&&c| self.free_vars(c) > 0).count();
        match (free, children.len() - free) {
            (_, 0) => Factor::One,
            (0, _) => Factor::Payload,
            _ => Factor::Stored,
        }
    }

    /// Parents-first linearization of the free region under `node`, so
    /// each loop's key is bound by earlier loops; bound subtrees fold into
    /// their parent's factors. Siblings go narrowest first: a loop's group
    /// lookup repeats once per iteration of every loop outside it.
    fn linearize(&self, node: usize, out: &mut Vec<EnumStep>) {
        let Node::Var { var, dep, children } = &self.vo.nodes[node] else {
            return;
        };
        if self.free_vars(node) > 0 {
            let (slot, key, factor) = (self.slot(*var), self.slots_of(dep), self.factor(node));
            out.push(EnumStep {
                node,
                slot,
                key,
                factor,
            });
            let mut children = children.clone();
            children.sort_by_key(|&c| self.free_vars(c));
            children.iter().for_each(|&c| self.linearize(c, out));
        }
    }

    /// Free roots (but `skip`) become loops, bound roots scalars.
    fn roots(&self, skip: Option<usize>, plan: &mut Plan) {
        for &r in self.vo.roots.iter().filter(|&&r| Some(r) != skip) {
            if self.free_vars(r) > 0 {
                self.linearize(r, &mut plan.steps);
            } else {
                plan.scalars.push(self.probe(r));
            }
        }
    }

    /// An atom's update path (cut where static propagation stops, Sec.
    /// 4.5) and delta enumeration. Refuses a path step whose view key the
    /// stored tuple does not determine, even through the fetchers.
    fn path(&self, atom: usize, fetches: &[Fetch]) -> Result<Path, EngineError> {
        let (cols, dynamic) = (
            self.slots_of(&self.storage[atom]),
            self.query.atoms[atom].dynamic,
        );
        let mut known = mask(&cols);
        while let Some(f) = fetches
            .iter()
            .find(|f| known & 1 << f.slot == 0 && mask(&f.lhs) & !known == 0)
        {
            known |= 1 << f.slot;
        }
        let mut node = self.vo.atom_leaf(atom).expect("validated order");
        let (mut steps, mut delta) = (Vec::new(), Plan::default());
        let parents = self.vo.parents();
        while let Some(p) = parents[node] {
            let Node::Var { var, dep, children } = &self.vo.nodes[p] else {
                unreachable!("parents are variable nodes")
            };
            let mut siblings = Vec::new();
            for &c in children.iter().filter(|&&c| c != node) {
                let bound = self.free_vars(c) == 0;
                if bound {
                    delta.scalars.push(self.probe(c));
                } else {
                    self.linearize(c, &mut delta.steps);
                }
                siblings.push((self.probe(c), bound));
            }
            let (var, slot, key, lift) = (
                *var,
                self.slot(*var),
                self.slots_of(dep),
                !self.query.is_free(*var),
            );
            if lift {
                delta.lifts.push((var, slot));
            }
            let needs = siblings
                .iter()
                .fold(mask(&key) | 1 << slot, |m, (p, _)| m | mask(&p.key));
            delta.needs |= needs;
            if dynamic || self.all_static(p) {
                if (mask(&key) | 1 << slot) & !known != 0 {
                    return Err(EngineError::NonConstantUpdate {
                        relation: self.query.atoms[atom].name,
                        detail: format!(
                            "view key {dep:?} ∪ {{{var}}} is not covered by the stored \
                             {:?} and its fetches",
                            self.storage[atom]
                        ),
                    });
                }
                let (mixed, from_bound) =
                    (self.factor(p) == Factor::Stored, self.free_vars(node) == 0);
                steps.push(UpStep {
                    node: p,
                    var,
                    slot,
                    key,
                    lift,
                    mixed,
                    from_bound,
                    siblings,
                    needs,
                });
            }
            node = p;
        }
        self.roots(Some(node), &mut delta);
        Ok(Path { cols, steps, delta })
    }
}

/// The bit set of `slots`.
fn mask(slots: &[usize]) -> u64 {
    slots.iter().fold(0, |m, &s| m | 1 << s)
}

/// `map[key] += delta`, pruning a cancelled entry: the entry's value
/// after the update, and what happened.
fn add_at<R: Semiring>(map: &mut IdMap<R>, key: &[Id], delta: &R) -> (R, Presence) {
    let Some(p) = map.get_mut(key) else {
        map.insert(key, delta.clone());
        return (delta.clone(), Presence::Appeared);
    };
    p.add_assign(delta);
    if !p.is_zero() {
        return (p.clone(), Presence::Unchanged);
    }
    map.remove(key);
    (R::zero(), Presence::Vanished)
}

/// Count a stored key's ids in or out of `dict` as it appears or vanishes.
fn track(dict: &mut Dict, presence: Presence, ids: &[Id]) {
    match presence {
        Presence::Appeared => ids.iter().for_each(|&id| dict.retain(id)),
        Presence::Vanished => ids.iter().for_each(|&id| dict.release(id)),
        Presence::Unchanged => {}
    }
}

/// Add `n` units to a work counter.
fn tick(work: &Cell<u64>, n: u64) {
    work.set(work.get() + n);
}

/// A child's interface under `row` (`None`: zero); one probe.
fn lookup<'a, R>(
    views: &'a [View<R>],
    leaves: &'a [IdMap<R>],
    probe: &Probe,
    row: &[Id],
    key: &mut Vec<Id>,
    work: &Cell<u64>,
) -> Option<&'a R> {
    tick(work, 1);
    match probe.leaf {
        Some(atom) => leaves[atom].get_at(row, &probe.key, key),
        None => views[probe.node]
            .groups
            .get_at(row, &probe.key, key)
            .map(|g| &g.total),
    }
}

/// Keep `idx` in step with its provider's stored tuples: the stored tuple
/// `t` (ids) supports its `(determinant, fetched value)` row while it is
/// present, and a row holds its ids while some tuple supports it.
fn support(
    idx: &mut FetchIndex,
    f: &Fetch,
    t: &[Id],
    presence: Presence,
    dict: &mut Dict,
    buf: &mut Vec<Id>,
) {
    let (k, v) = (gather(t, &f.lhs_pos, buf), t[f.var_pos]);
    match presence {
        Presence::Appeared => match idx.get_mut(k) {
            Some(vals) => match vals.iter_mut().find(|e| e.0 == v) {
                Some(e) => {
                    e.1 = e.1.checked_add(1).expect(
                        "a support is bounded by 2^32 stored tuples sharing one fetched value",
                    )
                }
                None => {
                    vals.push((v, 1));
                    dict.retain(v);
                }
            },
            None => {
                idx.insert(k, vec![(v, 1)]);
                track(dict, Presence::Appeared, k);
                dict.retain(v);
            }
        },
        Presence::Vanished => {
            const HELD: &str = "a stored provider tuple supports its row";
            let vals = idx.get_mut(k).expect(HELD);
            let i = vals.iter().position(|e| e.0 == v).expect(HELD);
            vals[i].1 -= 1;
            if vals[i].1 == 0 {
                vals.swap_remove(i);
                dict.release(v);
                if vals.is_empty() {
                    idx.remove(k);
                    track(dict, Presence::Vanished, k);
                }
            }
        }
        Presence::Unchanged => {}
    }
}

/// Complete `row` with FD-implied ids (Sec. 4.4): fetch the unique value
/// paired with the filled determinant in the provider relation, to a
/// fixpoint so FD chains (X→Y, Y→Z) resolve; one probe per fetch tried.
/// Returns the filled slots.
fn complete(
    fetches: &[Fetch],
    indexes: &[FetchIndex],
    row: &mut [Id],
    mut filled: u64,
    key: &mut Vec<Id>,
    work: &Cell<u64>,
) -> u64 {
    loop {
        let before = filled;
        for (f, idx) in fetches.iter().zip(indexes) {
            if filled & 1 << f.slot != 0 || mask(&f.lhs) & !filled != 0 {
                continue;
            }
            tick(work, 1);
            if let Some(&(id, _)) = idx.get_at(row, &f.lhs, key).and_then(|v| v.first()) {
                row[f.slot] = id;
                filled |= 1 << f.slot;
            }
        }
        if filled == before {
            return filled;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::ops::{eval_join_aggregate, lift_one};
    use ivm_data::{sym, tup, vars, FxHashSet, Update};
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
        tree.delta_for_each(upd.entry(), &mut |t, m| {
            delta.apply(t.clone(), m);
        });
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
        let bound = |y: Value| {
            let mut pre = Bindings::new();
            pre.set(yv, y);
            let mut seen = Vec::new();
            tree.for_each_output_bound(&pre, &mut |t, _| seen.push(t.clone()));
            seen
        };
        assert_eq!(bound(Value::from(1i64)), vec![tup![1i64, 10i64, 20i64]]);
        // A value no relation holds — an `Int` the tree never saw, or the
        // string twin of one it holds — yields nothing and assigns no id.
        let live = tree.dict().live();
        for y in [Value::from(9i64), Value::str("1")] {
            assert_eq!(bound(y.clone()), vec![], "Y = {y:?}");
        }
        assert_eq!(tree.dict().live(), live);
    }

    /// A group's entries move between inline, spilled and empty, and
    /// count their ids in and out of the dictionary as they go.
    #[test]
    fn entries_spill_empty_and_refill() {
        let mut dict = Dict::default();
        let [a, b, c] = [1i64, 2, 3].map(|v| dict.encode(&Value::from(v)));
        dict.retain(a);
        let mut e = Entries::One(a, 5i64);
        assert_eq!(e.add(b, &3, &mut dict), Presence::Appeared);
        assert_eq!(e.add(b, &1, &mut dict), Presence::Unchanged);
        assert_eq!(e.add(a, &-5, &mut dict), Presence::Vanished);
        assert_eq!((e.len(), e.get(a), e.get(b)), (1, None, Some(&4)));
        assert!(e.remove(b) && !e.remove(b) && e.is_empty());
        dict.release(b);
        e.insert(c, 7);
        dict.retain(c);
        assert!(matches!(e, Entries::One(x, 7) if x == c), "{e:?}");
        assert_eq!(e.add(c, &-7, &mut dict), Presence::Vanished);
        assert_eq!(e.add(a, &2, &mut dict), Presence::Appeared);
        assert_eq!((e.len(), e.get(a)), (1, Some(&2)));
        assert_eq!([a, b, c].map(|id| dict.refs(id)), [1, 0, 0]);
    }

    /// A sliding window over ever-fresh values: every batch inserts tuples
    /// over three new values (ints and strings) and deletes the tuples of
    /// `WINDOW` batches ago. The output stays the oracle's, the dictionary
    /// holds exactly the ids stored keys hold, and freed ids are reused:
    /// the id space stays at the window's values plus one batch's.
    #[test]
    fn sliding_window_reclaims_ids() {
        const WINDOW: usize = 4;
        let (q, mut tree) = fig3_setup();
        let value = |i: usize| match i % 2 {
            0 => Value::Int(i as i64),
            _ => Value::str(format!("v{i}")),
        };
        let mut base: Vec<Relation<i64>> = q
            .atoms
            .iter()
            .map(|a| Relation::new(a.schema.clone()))
            .collect();
        let mut inserted: Vec<Vec<Update<i64>>> = Vec::new();
        for k in 0..10 * WINDOW {
            let [y, x, z] = [0, 1, 2].map(|j| value(3 * k + j));
            let fresh = vec![
                Update::insert(q.atoms[0].name, Tuple::new([y.clone(), x])),
                Update::insert(q.atoms[1].name, Tuple::new([y, z])),
            ];
            let expired = k.checked_sub(WINDOW).map_or(Vec::new(), |old| {
                inserted[old].iter().map(Update::inverse).collect()
            });
            for u in fresh.iter().chain(&expired) {
                tree.apply(u).unwrap();
                let atom = tree.rel_atom[&u.relation];
                base[atom].apply(u.tuple.clone(), &u.payload);
            }
            inserted.push(fresh);
            let expect = eval_join_aggregate(&[&base[0], &base[1]], &q.free, lift_one);
            same(&tree.output(), &expect, "output").unwrap();
            check_ids(&tree).unwrap();
            let resident: FxHashSet<&Value> = base
                .iter()
                .flat_map(|r| r.iter().flat_map(|(t, _)| t.values()))
                .collect();
            assert_eq!(tree.dict().live(), resident.len(), "batch {k}: live ids");
            assert!(
                tree.dict().capacity() <= 3 * (WINDOW + 1),
                "batch {k}: {} ids assigned, freed ids are not reused",
                tree.dict().capacity()
            );
        }
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

    #[test]
    fn preprocess_refuses_a_mismatched_schema_before_loading() {
        // `R` is fine and comes first; `S` has its columns swapped.
        let (q, mut tree) = fig3_setup();
        let mut db: Database<i64> = Database::new();
        let r = Relation::from_rows(q.atoms[0].schema.clone(), [(tup![1i64, 10i64], 1)]);
        let swapped = Schema::new(q.atoms[1].schema.vars().iter().rev().copied());
        db.add(q.atoms[0].name, r);
        db.add(q.atoms[1].name, Relation::new(swapped));
        let err = tree.preprocess(&db).unwrap_err();
        assert!(err.to_string().contains("f3_S"), "{err}");
        assert_eq!(tree.view_entries(), 0, "nothing is loaded");
    }

    #[test]
    fn direct_updates_of_the_wrong_arity_are_refused() {
        let (_, mut tree) = fig3_setup();
        let short = Update::insert(sym("f3_R"), tup![1i64]);
        assert!(matches!(
            tree.apply(&short),
            Err(EngineError::ArityMismatch { .. })
        ));
    }

    // -----------------------------------------------------------------
    // Factors, enumeration, bound enumeration and delta enumeration
    // against a from-scratch oracle, over every kind of tree.
    // -----------------------------------------------------------------

    use crate::engines::EagerListEngine;
    use crate::Maintainer;
    use proptest::prelude::*;

    /// Whether the subtree under `node` holds a free variable.
    fn has_free(tree: &ViewTree<i64>, node: usize) -> bool {
        let own = tree.vo.var_of(node).is_some_and(|v| tree.query.is_free(v));
        own || tree.vo.children_of(node).iter().any(|&c| has_free(tree, c))
    }

    /// Every stored factor equals `Π` of its node's bound children,
    /// recomputed from the stored leaves and group totals; factors are
    /// stored on exactly the mixed nodes, on exactly their entries' keys.
    fn check_factors(tree: &ViewTree<i64>) -> Result<(), String> {
        for (node, view) in tree.views.iter().enumerate() {
            let Node::Var { var, dep, children } = &tree.vo.nodes[node] else {
                continue;
            };
            let bound: Vec<usize> = children
                .iter()
                .copied()
                .filter(|&c| !has_free(tree, c))
                .collect();
            let mixed =
                tree.query.is_free(*var) && !bound.is_empty() && bound.len() < children.len();
            let stored = view.factors.len();
            if stored != if mixed { view.groups.len() } else { 0 } {
                return Err(format!("{var}: mixed {mixed}, {stored} factor groups"));
            }
            for (key, group) in view.groups.iter().filter(|_| mixed) {
                let key = &*key;
                let Some(factors) = view.factors.get(key) else {
                    return Err(format!("{var} {key:?}: no factors"));
                };
                if factors.len() != group.entries.len() {
                    return Err(format!("{var} {key:?}: {factors:?} vs {:?}", group.entries));
                }
                let mut all = Vec::new();
                factors.for_each(|x, &factor| all.push((x, factor)));
                for (x, factor) in all {
                    if group.entries.get(x).is_none() {
                        return Err(format!("{var} {key:?}: factor for absent {x:?}"));
                    }
                    let val = |v: Sym| dep.position(v).map_or(x, |i| key[i]);
                    let iface = |c: usize| match &tree.vo.nodes[c] {
                        Node::Atom { atom } => {
                            let t: Vec<Id> = tree.storage_schema[*atom]
                                .vars()
                                .iter()
                                .map(|&v| val(v))
                                .collect();
                            tree.leaves[*atom].get(&t).copied().unwrap_or(0)
                        }
                        Node::Var { dep, .. } => {
                            let t: Vec<Id> = dep.vars().iter().map(|&v| val(v)).collect();
                            tree.views[c].groups.get(&t).map_or(0, |g| g.total)
                        }
                    };
                    let expect: i64 = bound.iter().map(|&c| iface(c)).product();
                    if factor != expect {
                        return Err(format!(
                            "{var} {key:?} {x:?}: factor {factor}, bound Π {expect}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// No dangling or leaked id: every id a stored key holds decodes to a
    /// live value and is counted once per column holding it, and the
    /// dictionary holds no other id.
    fn check_ids(tree: &ViewTree<i64>) -> Result<(), String> {
        let mut held: FxHashMap<Id, u32> = FxHashMap::default();
        let mut hold = |ids: &[Id]| ids.iter().for_each(|&id| *held.entry(id).or_insert(0) += 1);
        for leaf in &tree.leaves {
            leaf.iter().for_each(|(t, _)| hold(&t));
        }
        for view in &tree.views {
            for (k, g) in view.groups.iter() {
                hold(&k);
                g.entries.for_each(|x, _| hold(&[x]));
            }
            for (k, m) in view.factors.iter() {
                hold(&k);
                m.for_each(|x, _| hold(&[x]));
            }
        }
        for idx in &tree.fetch_indexes {
            for (k, vals) in idx.iter() {
                hold(&k);
                vals.iter().for_each(|&(v, _)| hold(&[v]));
            }
        }
        let dict = &tree.dict;
        for (&id, &n) in &held {
            let (v, refs) = (dict.value(id), dict.refs(id));
            if dict.lookup(v) != Some(id) || refs != n {
                return Err(format!("id {id} ({v:?}): {refs} refs, held {n} times"));
            }
        }
        if dict.live() != held.len() {
            return Err(format!("{} live ids, {} held", dict.live(), held.len()));
        }
        Ok(())
    }

    /// Exact equality of two output relations.
    fn same(got: &Relation<i64>, expect: &Relation<i64>, what: &str) -> Result<(), String> {
        let mismatch = expect.iter().find(|(t, p)| got.get(t) != **p);
        if got.len() != expect.len() || mismatch.is_some() {
            return Err(format!("{what}: got {got:?}, expected {expect:?}"));
        }
        Ok(())
    }

    /// One scenario: a tree, the relations it mirrors (per atom), how a
    /// generated op becomes a tuple of an atom, and — for canonical trees
    /// — an eager-list engine fed the same batches.
    struct Scenario {
        tree: ViewTree<i64>,
        lift: Lift<i64>,
        base: Vec<Relation<i64>>,
        make: Maker,
        list: Option<EagerListEngine<i64>>,
    }

    /// How a generated op becomes a tuple of an atom.
    type Maker = fn(&Schema, usize, [u64; 4]) -> Tuple;

    /// A tuple over a domain of three values per column.
    fn small(schema: &Schema, _atom: usize, raw: [u64; 4]) -> Tuple {
        (0..schema.arity())
            .map(|i| Value::from((raw[i] % 3) as i64))
            .collect()
    }

    /// `small`, but the first column carries `Value::str("0")`..`"2"` for
    /// half the raw values: an `Int(1)` and a `"1"` meet in one column,
    /// and must neither join nor share an entry.
    fn stringy(schema: &Schema, atom: usize, raw: [u64; 4]) -> Tuple {
        let mut t = small(schema, atom, raw);
        if let (Some(v), 3..) = (t.values_mut().first_mut(), raw[0] % 6) {
            *v = Value::str((raw[0] % 3).to_string());
        }
        t
    }

    /// Ex 4.12 tuples that satisfy Σ = {X → Y, Y → Z} by construction.
    fn fd_valid(schema: &Schema, atom: usize, raw: [u64; 4]) -> Tuple {
        let x = (raw[0] % 3) as i64;
        match atom {
            1 => tup![x, x * 10 + 1],
            2 => tup![x * 10 + 1, x * 100 + 13],
            _ => small(schema, atom, raw),
        }
    }

    fn lift_plus(_: Sym, v: &Value) -> i64 {
        v.as_int().unwrap_or(0) + 1
    }

    fn scenario(tree: ViewTree<i64>, lift: Lift<i64>, listed: bool, make: Maker) -> Scenario {
        let q = tree.query().clone();
        let list = listed.then(|| EagerListEngine::new(q.clone(), &Database::new(), lift).unwrap());
        let base = q
            .atoms
            .iter()
            .map(|a| Relation::new(a.schema.clone()))
            .collect();
        Scenario {
            tree,
            lift,
            base,
            make,
            list,
        }
    }

    /// fig3; retailer; ex414 (static `T` preloaded); an FD reduct; a mixed
    /// node over a lifted bound variable; a Boolean query; a disconnected
    /// query with a bound root. Every scenario but the FD one (whose
    /// tuples must satisfy its FDs) draws its tuples with `make`.
    fn scenarios(make: Maker) -> Vec<(&'static str, Scenario)> {
        let canonical =
            |q: Query, lift| scenario(ViewTree::new(q, lift).unwrap(), lift, true, make);
        let [a, b, c, d, x, y] = vars(["vp_A", "vp_B", "vp_C", "vp_D", "vp_X", "vp_Y"]);
        let (r, s, t) = (sym("vp_R"), sym("vp_S"), sym("vp_T"));
        let lifted = Query::new(
            "vp_lift",
            [a, b],
            vec![Atom::new(r, [a, c]), Atom::new(s, [a, b])],
        );
        let boolean = Query::new("vp_bool", [], vec![Atom::new(r, [x, y]), Atom::new(s, [y])]);
        let atoms = vec![Atom::new(r, [a, c]), Atom::new(s, [b]), Atom::new(t, [d])];
        let disconnected = Query::new("vp_disc", [a, b], atoms);

        let q414 = ivm_query::examples::ex414_query();
        let vo = ivm_query::varorder::find_tractable_order(&q414).unwrap();
        let mut ex414 = scenario(
            ViewTree::with_order(q414.clone(), vo, lift_one).unwrap(),
            lift_one,
            false,
            make,
        );
        let static_t = Relation::from_rows(
            q414.atoms[2].schema.clone(),
            [
                (tup![0i64, 0i64], 1),
                (tup![0i64, 1i64], 2),
                (tup![2i64, 1i64], 1),
            ],
        );
        let mut db = Database::new();
        db.add(q414.atoms[2].name, static_t.clone());
        ex414.tree.preprocess(&db).unwrap();
        ex414.base[2] = static_t;

        let (q412, sigma) = ivm_query::examples::ex412_query();
        let fd = crate::fd::FdEngine::new(q412, &sigma, &Database::new(), lift_one).unwrap();
        let fd = scenario(fd.into_tree(), lift_one, false, fd_valid);

        vec![
            (
                "fig3",
                canonical(ivm_query::examples::fig3_query(), lift_one),
            ),
            (
                "retailer",
                canonical(ivm_query::examples::retailer_query().0, lift_one),
            ),
            ("ex414", ex414),
            ("fd", fd),
            ("lifted", canonical(lifted, lift_plus)),
            ("boolean", canonical(boolean, lift_one)),
            ("disconnected", canonical(disconnected, lift_one)),
        ]
    }

    type Op = (usize, (u64, u64, u64, u64), i64);

    /// Feed `ops` in batches that stay valid (no multiplicity below zero)
    /// while mixing ±1/±2 payloads, an insert+delete of one tuple in every
    /// batch, and every third batch deleting a whole relation that the
    /// next batch restores; check everything after each batch.
    fn run(sc: &mut Scenario, ops: &[Op], pin: (usize, u64)) -> Result<(), String> {
        let q = sc.tree.query().clone();
        let dynamic: Vec<usize> = (0..q.atoms.len()).filter(|&i| q.atoms[i].dynamic).collect();
        let mut restore: Vec<(usize, Tuple, i64)> = Vec::new();
        for (n, chunk) in ops.chunks(5).enumerate() {
            let mut batch: Vec<(usize, Tuple, i64)> = std::mem::take(&mut restore);
            for &(pick, (r0, r1, r2, r3), m) in chunk {
                let atom = dynamic[pick % dynamic.len()];
                let t = (sc.make)(&q.atoms[atom].schema, atom, [r0, r1, r2, r3]);
                let m = m.max(-sc.base[atom].get(&t));
                sc.base[atom].apply(t.clone(), &m);
                batch.push((atom, t, m));
            }
            if let Some(&(pick, (r0, r1, r2, r3), _)) = chunk.first() {
                let atom = dynamic[(pick + 1) % dynamic.len()];
                let t = (sc.make)(&q.atoms[atom].schema, atom, [r3, r2, r1, r0]);
                batch.extend([(atom, t.clone(), 1), (atom, t, -1)]);
            }
            if n % 3 == 2 {
                let atom = dynamic[n / 3 % dynamic.len()];
                let wiped = std::mem::replace(
                    &mut sc.base[atom],
                    Relation::new(q.atoms[atom].schema.clone()),
                );
                for (t, &m) in wiped.iter() {
                    batch.push((atom, t.clone(), -m));
                    restore.push((atom, t.clone(), m));
                }
            }
            let batch: Vec<Update<i64>> = batch
                .into_iter()
                .filter(|(_, _, m)| *m != 0)
                .map(|(atom, t, m)| Update::with_payload(q.atoms[atom].name, t, m))
                .collect();
            check_batch(sc, &q, &batch, pin).map_err(|e| format!("batch {n}: {e}"))?;
            for (atom, t, m) in &restore {
                sc.base[*atom].apply(t.clone(), m);
            }
        }
        Ok(())
    }

    fn check_batch(
        sc: &mut Scenario,
        q: &Query,
        batch: &[Update<i64>],
        pin: (usize, u64),
    ) -> Result<(), String> {
        let before = sc.tree.output();
        let mut delta = Relation::new(q.free.clone());
        for u in batch {
            sc.tree.delta_for_each(u.entry(), &mut |t, m| {
                delta.apply(t.clone(), m);
            });
            sc.tree.apply(u).map_err(|e| e.to_string())?;
        }
        let base: Vec<&Relation<i64>> = sc.base.iter().collect();
        let after = eval_join_aggregate(&base, &q.free, sc.lift);
        same(&sc.tree.output(), &after, "output")?;
        same(
            &ivm_data::ops::union(&before, &delta),
            &after,
            "before ⊎ delta",
        )?;
        check_factors(&sc.tree)?;
        check_ids(&sc.tree)?;
        if !q.free.is_empty() {
            // Pin one free column to a value the output holds, if any.
            let col = pin.0 % q.free.arity();
            let mut held: Vec<&Value> = after.iter().map(|(t, _)| t.at(col)).collect();
            held.sort();
            let v = held
                .get(pin.1 as usize % held.len().max(1))
                .map_or(Value::from(0i64), |v| (*v).clone());
            let mut pre = Bindings::new();
            pre.set(q.free.vars()[col], v.clone());
            let mut got = Relation::new(q.free.clone());
            sc.tree.for_each_output_bound(&pre, &mut |t, m| {
                got.apply(t.clone(), m);
            });
            let rows = after.iter().filter(|(t, _)| *t.at(col) == v);
            let expect = Relation::from_rows(q.free.clone(), rows.map(|(t, m)| (t.clone(), *m)));
            same(&got, &expect, "bound")?;
        }
        if let Some(list) = &mut sc.list {
            let got = list.apply_batch(batch).map_err(|e| e.to_string())?;
            let mut expect = after.clone();
            for (t, m) in before.iter() {
                expect.apply(t.clone(), &-m);
            }
            same(&got, &expect, "eager-list batch delta")?;
            same(&list.output(), &after, "eager-list output")?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn factors_and_enumerations_match_the_oracle(
            ops in proptest::collection::vec(
                (
                    0usize..8,
                    (0u64..6, 0u64..6, 0u64..6, 0u64..6),
                    prop_oneof![Just(1i64), Just(1), Just(2), Just(-1), Just(-2)],
                ),
                0..60,
            ),
            pin in (0usize..8, 0u64..8),
            strings in any::<bool>(),
        ) {
            let make = if strings { stringy } else { small };
            for (name, mut sc) in scenarios(make) {
                let outcome = run(&mut sc, &ops, pin);
                prop_assert!(outcome.is_ok(), "{}: {}", name, outcome.unwrap_err());
            }
        }
    }
}
