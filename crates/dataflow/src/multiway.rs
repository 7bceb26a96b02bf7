//! Worst-case-optimal multiway join state (generic leapfrog-style).
//!
//! The left-deep [`DeltaJoin`](crate::Dataflow::add_join) chain
//! materializes every binary intermediate, which on cyclic queries like the
//! triangle blows up to the size the AGM bound says a full join never needs
//! (Veldhuizen, *Incremental Maintenance for Leapfrog Triejoin*; Kara et
//! al., *Maintaining Triangle Queries under Updates*). This module
//! implements the attribute-at-a-time alternative: fix a global variable
//! order, then extend a partial binding one variable at a time by
//! *intersecting* the candidate values of every atom containing that
//! variable — iterate the smallest candidate set, probe the rest. No
//! intermediate relation is ever materialized, and not even the join
//! tuples are: each full binding is summed straight into the aggregated
//! output (§Aggregation).
//!
//! # Index structure
//!
//! Each distinct dataflow input (≈ base relation) owns one `Store`: the
//! tuple→payload map plus a vector of `PatternIndex`es, the hash-trie
//! analogue of leapfrog's sorted tries. A pattern `(key_pos, val_pos)`
//! maps an assignment of the key columns to the set of values the `val`
//! column can take (with support counts, so deletions retract candidates);
//! a set is a sorted `Vec` under binary search until it outgrows
//! `FLAT_MAX`, a hash set after. Every pattern a seed plan can probe is
//! known when the node is built, so it gets its *slot* in the store then
//! and each `Constraint` carries the slot: no batch looks a pattern up,
//! let alone builds one. Because the slots live on the *store*, atoms over
//! the same relation — the three occurrences of `E` in the self-join
//! triangle — share physical indexes instead of keeping three copies, and
//! an engine adopting a [`StoreHub`] store registers its patterns on it
//! once, at adoption.
//!
//! # Delta maintenance
//!
//! For a consolidated batch with deltas `δ_i` on the inputs, the output
//! delta expands symmetrically (each occurrence's new value is `R_i ⊎ δ_i`):
//!
//! ```text
//! δQ = Σ_{∅ ≠ S ⊆ atoms-with-delta}  Π_{i∈S} δ_i · Π_{i∉S} R_i^old
//! ```
//!
//! Every term *seeds* the search from changed tuples: the first atom of `S`
//! iterates its (small) delta, binding all its variables at once, and the
//! remaining variables are solved by the intersection search — atoms in `S`
//! probe their input's *delta store*, the rest the old shared stores. A
//! delta store is a `Store` with the old store's patterns that lives as
//! long as the node: a batch fills it through the same `Store::apply` that
//! maintains the old indexes and empties it after the search, keeping its
//! batch-sized tables. A step probes its constraints smallest index first,
//! so an `S`-atom's delta index — where the key is almost always absent —
//! ends the branch before the resident store is touched, and a term reading
//! an *empty* old store is zero and skipped outright: a preload costs one
//! term, not `2^k − 1`. Probe keys are borrowed from the binding
//! (`Tuple: Borrow<[Value]>`), so a batch allocates per delta tuple and per
//! distinct output key, never per seed, probe or join tuple. Old stores
//! advance only after all terms, so the old/new discipline needs no
//! sequencing and self-joins need no per-occurrence state.
//!
//! # Aggregation
//!
//! The node emits its delta already aggregated onto an output schema
//! `out ⊆ var_order` — the query's free variables — rather than over the
//! full `var_order`. A full binding `x` with payload product `p` adds
//! `p · g_X1(x.X1) · g_X2(x.X2) · …` under its projection onto `out`,
//! where `X1, X2, …` are the variables not in `out`, lifted in `var_order`
//! order: the product the chained marginalization of a separate aggregate
//! node formed per join tuple, in the same ring order (the F-IVM
//! ring-lifted payload of the paper's Sec. 4.1, applied at the leaf of
//! the search) — the same step, [`LiftedProjection`], that
//! `ops::aggregate` takes per row. The output key is assembled in a kept
//! buffer and moves into the output only when new, so a count (`out`
//! empty) accumulates into one entry and a listing (`out` a permutation
//! of `var_order`, nothing lifted) takes the same path. Only the leaf
//! changes: seeds, probes, intersections and the terms of the expansion
//! are those of the listing search, because aggregation is linear and
//! commutes with the sum over terms.

use crate::batch::DeltaBatch;
use crate::graph::DataflowStats;
use ivm_data::ops::{Lift, LiftedProjection};
use ivm_data::{FxHashMap, Relation, Schema, Sym, Tuple, Value};
use ivm_ring::Semiring;
use std::sync::{Arc, Mutex, MutexGuard};

/// Recover from a poisoned store lock: the store's invariants are
/// maintained tuple-at-a-time (no multi-step critical sections), so the
/// data is coherent even if a peer engine panicked mid-batch elsewhere.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `src` projected onto `pos` as a borrowed hash key: a single column is
/// borrowed in place, anything else is assembled in `buf`.
fn gather<'a>(src: &'a [Value], pos: &[usize], buf: &'a mut Vec<Value>) -> &'a [Value] {
    if let [p] = pos {
        return std::slice::from_ref(&src[*p]);
    }
    buf.clear();
    buf.extend(pos.iter().map(|&p| src[p].clone()));
    buf
}

/// Longest candidate set kept as a sorted `Vec`. Up to here an insert
/// moves at most 1 KiB and membership is five comparisons; a hub key's
/// set beyond it becomes a hash set, whose inserts do not move its
/// members (and which stays one even if it shrinks again).
const FLAT_MAX: usize = 32;

/// The values one key can be extended by, each with the number of tuples
/// supporting it.
enum Candidates {
    /// Sorted by value.
    Flat(Vec<(Value, u32)>),
    Hashed(FxHashMap<Value, u32>),
}

impl Candidates {
    fn len(&self) -> usize {
        match self {
            Candidates::Flat(v) => v.len(),
            Candidates::Hashed(m) => m.len(),
        }
    }

    fn contains(&self, val: &Value) -> bool {
        match self {
            Candidates::Flat(v) => v.binary_search_by(|e| e.0.cmp(val)).is_ok(),
            Candidates::Hashed(m) => m.contains_key(val),
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Value> {
        let (flat, hashed) = match self {
            Candidates::Flat(v) => (Some(v), None),
            Candidates::Hashed(m) => (None, Some(m)),
        };
        let flat = flat.into_iter().flatten().map(|e| &e.0);
        flat.chain(hashed.into_iter().flat_map(|m| m.keys()))
    }

    /// Count one more tuple supporting `val`.
    fn add(&mut self, val: &Value) {
        match self {
            Candidates::Flat(v) => match v.binary_search_by(|e| e.0.cmp(val)) {
                Ok(i) => v[i].1 += 1,
                Err(i) if v.len() < FLAT_MAX => v.insert(i, (val.clone(), 1)),
                Err(_) => {
                    let mut m: FxHashMap<Value, u32> = v.drain(..).collect();
                    m.insert(val.clone(), 1);
                    *self = Candidates::Hashed(m);
                }
            },
            Candidates::Hashed(m) => *m.entry(val.clone()).or_insert(0) += 1,
        }
    }

    /// Count one tuple supporting `val` less; `true` once the set is empty.
    fn remove(&mut self, val: &Value) -> bool {
        match self {
            Candidates::Flat(v) => {
                if let Ok(i) = v.binary_search_by(|e| e.0.cmp(val)) {
                    v[i].1 -= 1;
                    if v[i].1 == 0 {
                        v.remove(i);
                    }
                }
            }
            Candidates::Hashed(m) => {
                if let Some(n) = m.get_mut(val) {
                    *n -= 1;
                    if *n == 0 {
                        m.remove(val);
                    }
                }
            }
        }
        self.len() == 0
    }
}

/// A hash-trie level: for one access pattern `(key columns → value
/// column)`, the values reachable under each key assignment.
struct PatternIndex {
    key_pos: Box<[usize]>,
    val_pos: usize,
    map: FxHashMap<Tuple, Candidates>,
}

impl PatternIndex {
    /// Record one present tuple. Only a key seen for the first time is
    /// cloned into the map.
    fn add(&mut self, t: &Tuple, buf: &mut Vec<Value>) {
        let key = gather(t.values(), &self.key_pos, buf);
        let val = t.at(self.val_pos);
        match self.map.get_mut(key) {
            Some(c) => c.add(val),
            None => {
                let first = Candidates::Flat(vec![(val.clone(), 1)]);
                self.map.insert(key.iter().cloned().collect(), first);
            }
        }
    }

    /// Retract one no-longer-present tuple.
    fn remove(&mut self, t: &Tuple, buf: &mut Vec<Value>) {
        let key = gather(t.values(), &self.key_pos, buf);
        if let Some(c) = self.map.get_mut(key) {
            if c.remove(t.at(self.val_pos)) {
                self.map.remove(key);
            }
        }
    }
}

/// One input's state: payloads plus one index per registered pattern.
struct Store<R> {
    tuples: FxHashMap<Tuple, R>,
    indexes: Vec<PatternIndex>,
    /// Scratch for multi-column index keys.
    key_buf: Vec<Value>,
}

impl<R: Semiring> Store<R> {
    fn new() -> Self {
        Store {
            tuples: FxHashMap::default(),
            indexes: Vec::new(),
            key_buf: Vec::new(),
        }
    }

    /// The slot of pattern `(key_pos → val_pos)`, registered — and built
    /// over the resident tuples, O(|R|) — if no plan asked for it before.
    /// Called while a node is built or adopts a hub store, never per batch.
    fn slot(&mut self, key_pos: &[usize], val_pos: usize) -> usize {
        let known = |idx: &PatternIndex| *idx.key_pos == *key_pos && idx.val_pos == val_pos;
        if let Some(slot) = self.indexes.iter().position(known) {
            return slot;
        }
        let mut idx = PatternIndex {
            key_pos: key_pos.into(),
            val_pos,
            map: FxHashMap::default(),
        };
        for t in self.tuples.keys() {
            idx.add(t, &mut self.key_buf);
        }
        self.indexes.push(idx);
        self.indexes.len() - 1
    }

    /// Apply one delta tuple, keeping every index in sync with the present
    /// (non-zero payload) tuple set. The tuple is cloned only when it
    /// becomes present.
    fn apply(&mut self, t: &Tuple, delta: &R) {
        if delta.is_zero() {
            return;
        }
        match self.tuples.get_mut(t) {
            Some(p) => {
                p.add_assign(delta);
                if p.is_zero() {
                    self.tuples.remove(t);
                    for idx in &mut self.indexes {
                        idx.remove(t, &mut self.key_buf);
                    }
                }
            }
            None => {
                self.tuples.insert(t.clone(), delta.clone());
                for idx in &mut self.indexes {
                    idx.add(t, &mut self.key_buf);
                }
            }
        }
    }

    /// Fill this (empty) delta store with `delta`. Tables left over from a
    /// much larger batch — the preload — are given back first: an oversized
    /// table makes every later `clear` and seed scan O(capacity).
    fn refill(&mut self, delta: &Relation<R>) {
        self.tuples.shrink_to(2 * delta.len());
        for idx in &mut self.indexes {
            idx.map.shrink_to(2 * delta.len());
        }
        for (t, r) in delta.iter() {
            self.apply(t, r);
        }
    }

    /// Drop every tuple and candidate set, keeping the tables.
    fn clear(&mut self) {
        self.tuples.clear();
        for idx in &mut self.indexes {
            idx.map.clear();
        }
    }
}

/// One atom occurrence: which input it reads and how its columns map onto
/// the global variable order.
struct AtomSpec {
    /// Index into the node's inputs (and the store vectors).
    input: usize,
    /// For each atom column, the position of its variable in `var_order`.
    gpos: Vec<usize>,
}

/// A precomputed probe: one atom constraining the variable of a step.
struct Constraint {
    atom: usize,
    /// Atom-tuple positions of the atom's already-bound columns.
    key_pos: Box<[usize]>,
    /// Atom-tuple position of the step's variable.
    val_pos: usize,
    /// `var_order` positions aligned with `key_pos` (binding lookups).
    key_g: Box<[usize]>,
    /// Slot of `(key_pos → val_pos)` in the input's old store; re-resolved
    /// when the input adopts a hub store.
    slot: usize,
    /// Its slot in the node's own delta store.
    delta_slot: usize,
}

/// One variable of a seed plan's elimination order.
struct Step {
    /// Position of the variable in `var_order`.
    var_g: usize,
    /// Atoms containing the variable (each intersects the candidates).
    constraints: Vec<Constraint>,
    /// Atoms that become fully bound once this step's variable binds;
    /// their payload folds into the accumulator here.
    completed: Vec<usize>,
    /// Constraints in the plan's earlier steps (offset into `Search::order`).
    order_base: usize,
}

/// The search plan for delta terms seeded from one atom: bind the seed
/// atom's variables from a changed tuple, then eliminate the remaining
/// variables in global order.
struct SeedPlan {
    /// Atoms (≠ seed) whose variables are all covered by the seed's —
    /// presence-checked immediately after seeding.
    at_seed: Vec<usize>,
    steps: Vec<Step>,
}

/// A registry of multiway `Store`s shared *across* engines, keyed by
/// base relation. A serving layer maintaining many views over one ingest
/// stream hands the same hub to every member engine's builder: the first
/// engine to join a relation donates its store, later engines adopt it,
/// and the hub owner advances every shared store exactly once per batch
/// via [`StoreHub::advance_batch`].
///
/// # Coordinator-advance protocol
///
/// A store shared between engines must stay at the *pre-batch* state
/// until every member has run its inclusion–exclusion search for the
/// epoch — the `R_i^old` factors of the delta expansion. Member engines
/// therefore never advance shared slots inside
/// `MultiwayState::apply`; the coordinator calls
/// [`StoreHub::advance_batch`] once per epoch, after all members, with
/// the same consolidated batch it fed them. Owned (non-shared) slots
/// keep the original in-engine advance.
///
/// Adopting an existing store at build time is sound because a freshly
/// built engine's preprocessed store holds exactly the same tuples as
/// the hub store for that relation: both replay the same base state at
/// the same epoch. The swap is pure storage dedup, not a semantic
/// change.
pub struct StoreHub<R> {
    stores: Arc<Mutex<FxHashMap<Sym, SharedStore<R>>>>,
}

/// One store slot, aliasable across engines through a [`StoreHub`].
type SharedStore<R> = Arc<Mutex<Store<R>>>;

// Manual impls: `R` itself need not be Clone/Default for the hub handle
// to be cheap to copy around.
impl<R> Clone for StoreHub<R> {
    fn clone(&self) -> Self {
        StoreHub {
            stores: Arc::clone(&self.stores),
        }
    }
}

impl<R> Default for StoreHub<R> {
    fn default() -> Self {
        StoreHub {
            stores: Arc::new(Mutex::new(FxHashMap::default())),
        }
    }
}

impl<R: Semiring> StoreHub<R> {
    /// A fresh, empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Join the hub on `relation`, offering `own` as the donated store.
    /// Returns the store every member should use, plus `true` when an
    /// earlier member's store was adopted (a dedup hit: `own` is
    /// discarded, which is sound because its contents equal the adopted
    /// store's — see the type-level docs).
    fn join(&self, relation: Sym, own: SharedStore<R>) -> (SharedStore<R>, bool) {
        let mut map = relock(&self.stores);
        match map.entry(relation) {
            std::collections::hash_map::Entry::Occupied(e) => (Arc::clone(e.get()), true),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Arc::clone(&own));
                (own, false)
            }
        }
    }

    /// Advance every shared store by the epoch's consolidated batch.
    /// Call exactly once per epoch, after all member engines have
    /// processed the batch.
    pub fn advance_batch(&self, batch: &DeltaBatch<R>) {
        let map = relock(&self.stores);
        for (rel, store) in map.iter() {
            if let Some(delta) = batch.delta(*rel) {
                let mut s = relock(store);
                for (t, r) in delta.iter() {
                    s.apply(t, r);
                }
            }
        }
    }

    /// Relations currently shared through this hub.
    pub fn relations(&self) -> Vec<Sym> {
        relock(&self.stores).keys().copied().collect()
    }

    /// Total tuples resident across the hub's shared stores — each
    /// relation counted once no matter how many engines read it.
    pub fn stored_tuples(&self) -> usize {
        relock(&self.stores)
            .values()
            .map(|s| relock(s).tuples.len())
            .sum()
    }
}

/// State of one [`MultiwayJoin`](crate::Dataflow::add_multiway_join) node.
pub struct MultiwayState<R> {
    atoms: Vec<AtomSpec>,
    /// Output schema, and how a full binding over `var_order` is summed
    /// into it (see the module's §Aggregation).
    out: Schema,
    emit: LiftedProjection<R>,
    /// Per-input stores. Behind `Arc<Mutex<_>>` so a [`StoreHub`] can
    /// alias a slot across engines; a slot is uncontended (and the lock
    /// uncontested) unless it was [`Self::share_slot`]'d.
    stores: Vec<SharedStore<R>>,
    /// `shared[slot]` ⇒ the slot belongs to a hub and is advanced by the
    /// coordinator, not by [`Self::apply`].
    shared: Vec<bool>,
    plans: Vec<SeedPlan>,
    /// Per-input delta stores: the batch's `δ_i` under the input's
    /// patterns while [`Self::apply`] searches, empty between batches.
    delta: Vec<Store<R>>,
    /// Search scratch kept across batches (see [`Search`]).
    binding: Vec<Value>,
    key_buf: Vec<Value>,
    out_key: Vec<Value>,
    order: Vec<usize>,
}

impl<R: Semiring> MultiwayState<R> {
    /// Build the node state. `atoms` pairs each occurrence's input slot
    /// with its schema; `n_inputs` is the number of distinct inputs;
    /// `var_order` must cover every atom variable; the node emits its
    /// delta aggregated onto `out ⊆ var_order`, lifting every other
    /// variable with `lift`.
    pub(crate) fn new(
        atoms: &[(usize, Schema)],
        n_inputs: usize,
        var_order: Schema,
        out: Schema,
        lift: Lift<R>,
    ) -> Self {
        assert!(!atoms.is_empty(), "multiway join needs at least one atom");
        // Terms are subsets of atoms held in a u64 mask (and exponential
        // in their number regardless); the engine refuses larger queries.
        assert!(
            atoms.len() <= ivm_query::Query::MAX_ATOMS,
            "at most 64 atom occurrences"
        );
        let specs: Vec<AtomSpec> = atoms
            .iter()
            .map(|(input, schema)| {
                assert!(*input < n_inputs, "atom input slot out of range");
                let gpos = schema
                    .vars()
                    .iter()
                    .map(|&v| {
                        var_order
                            .position(v)
                            .unwrap_or_else(|| panic!("atom variable {v} missing from var order"))
                    })
                    .collect();
                AtomSpec {
                    input: *input,
                    gpos,
                }
            })
            .collect();
        // Planning registers every pattern a search can probe on the
        // delta stores; the old stores then get the same slots.
        let mut delta: Vec<Store<R>> = (0..n_inputs).map(|_| Store::new()).collect();
        let plans = (0..specs.len())
            .map(|s| Self::build_plan(&specs, &var_order, s, &mut delta))
            .collect();
        let stores = delta
            .iter()
            .map(|d| {
                let mut old = Store::new();
                for idx in &d.indexes {
                    old.slot(&idx.key_pos, idx.val_pos);
                }
                Arc::new(Mutex::new(old))
            })
            .collect();
        MultiwayState {
            atoms: specs,
            binding: vec![Value::Int(0); var_order.arity()],
            emit: LiftedProjection::new(&var_order, &out, lift),
            out,
            stores,
            shared: vec![false; n_inputs],
            plans,
            delta,
            key_buf: Vec::new(),
            out_key: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Swap input `slot`'s store for the hub's shared store of
    /// `relation` (donating ours if the hub has none yet), and mark the
    /// slot coordinator-advanced. Returns `true` on a dedup hit — an
    /// earlier engine's store was adopted; this node's patterns are then
    /// registered on it and its constraints re-pointed at those slots.
    pub(crate) fn share_slot(&mut self, slot: usize, relation: Sym, hub: &StoreHub<R>) -> bool {
        let (store, existing) = hub.join(relation, Arc::clone(&self.stores[slot]));
        if existing {
            let mut adopted = relock(&store);
            let steps = self.plans.iter_mut().flat_map(|p| &mut p.steps);
            for c in steps.flat_map(|s| &mut s.constraints) {
                if self.atoms[c.atom].input == slot {
                    c.slot = adopted.slot(&c.key_pos, c.val_pos);
                }
            }
        }
        self.stores[slot] = store;
        self.shared[slot] = true;
        existing
    }

    fn build_plan(
        specs: &[AtomSpec],
        var_order: &Schema,
        seed: usize,
        stores: &mut [Store<R>],
    ) -> SeedPlan {
        let n_g = var_order.arity();
        let mut bound = vec![false; n_g];
        for &g in &specs[seed].gpos {
            bound[g] = true;
        }
        let fully_bound = |spec: &AtomSpec, bound: &[bool]| spec.gpos.iter().all(|&g| bound[g]);
        let mut done: Vec<bool> = specs
            .iter()
            .enumerate()
            .map(|(j, spec)| j == seed || fully_bound(spec, &bound))
            .collect();
        let at_seed = (0..specs.len()).filter(|&j| j != seed && done[j]).collect();

        let mut steps = Vec::new();
        let mut order_base = 0;
        for g in 0..n_g {
            if bound[g] {
                continue;
            }
            let mut constraints = Vec::new();
            for (j, spec) in specs.iter().enumerate() {
                let Some(val_pos) = spec.gpos.iter().position(|&vg| vg == g) else {
                    continue;
                };
                let mut key_pos = Vec::new();
                let mut key_g = Vec::new();
                for (c, &cg) in spec.gpos.iter().enumerate() {
                    if bound[cg] {
                        key_pos.push(c);
                        key_g.push(cg);
                    }
                }
                let slot = stores[spec.input].slot(&key_pos, val_pos);
                constraints.push(Constraint {
                    atom: j,
                    key_pos: key_pos.into(),
                    val_pos,
                    key_g: key_g.into(),
                    slot,
                    delta_slot: slot,
                });
            }
            assert!(
                !constraints.is_empty(),
                "every variable occurs in some atom"
            );
            bound[g] = true;
            let mut completed = Vec::new();
            for (j, spec) in specs.iter().enumerate() {
                if !done[j] && fully_bound(spec, &bound) {
                    done[j] = true;
                    completed.push(j);
                }
            }
            let n = constraints.len();
            steps.push(Step {
                var_g: g,
                constraints,
                completed,
                order_base,
            });
            order_base += n;
        }
        SeedPlan { at_seed, steps }
    }

    /// Number of atom occurrences this node joins.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Number of pattern indexes on each input's store — exposed so tests
    /// can assert that self-join occurrences share indexes instead of
    /// duplicating them.
    pub fn index_counts(&self) -> Vec<usize> {
        self.stores
            .iter()
            .map(|s| relock(s).indexes.len())
            .collect()
    }

    /// Total tuples reachable across this node's stores, hub-shared slots
    /// included.
    pub fn stored_tuples(&self) -> usize {
        self.stores.iter().map(|s| relock(s).tuples.len()).sum()
    }

    /// Tuples in stores this node *owns* — hub-shared slots excluded, so
    /// a fleet-wide memory census never double-counts a shared store.
    pub fn owned_tuples(&self) -> usize {
        self.stores
            .iter()
            .zip(&self.shared)
            .filter(|(_, &sh)| !sh)
            .map(|(s, _)| relock(s).tuples.len())
            .sum()
    }

    /// Propagate one consolidated batch: run every inclusion–exclusion
    /// term seeded from the changed tuples, then advance the *owned*
    /// stores (hub-shared slots are advanced by the hub coordinator —
    /// see [`StoreHub`]). Returns the output delta over the node's output
    /// schema.
    pub(crate) fn apply(
        &mut self,
        input_deltas: &[Option<&Relation<R>>],
        stats: &mut DataflowStats,
    ) -> Option<Relation<R>> {
        assert_eq!(input_deltas.len(), self.stores.len(), "one delta per input");
        if input_deltas.iter().all(|d| d.is_none()) {
            return None;
        }
        for (store, d) in self.delta.iter_mut().zip(input_deltas) {
            if let Some(d) = d {
                store.refill(d);
            }
        }
        // Atoms whose input changed this batch, as a mask over atoms.
        let changed = (0..self.atoms.len())
            .filter(|&j| input_deltas[self.atoms[j].input].is_some())
            .fold(0u64, |mask, j| mask | 1 << j);

        // Lock every input slot once for the whole batch. With no hub the
        // locks are uncontended; with a hub this serializes member engines
        // per store, which the coordinator drives sequentially anyway.
        let mut guards: Vec<MutexGuard<'_, Store<R>>> =
            self.stores.iter().map(|s| relock(s)).collect();

        let mut out = Relation::new(self.out.clone());
        let mut search = Search {
            atoms: &self.atoms,
            old: &guards,
            delta: &self.delta,
            plans: &self.plans,
            in_s: 0,
            order: &mut self.order,
            // A step stacks at most one set per atom.
            cands: Vec::with_capacity(self.atoms.len() * self.binding.len()),
            binding: &mut self.binding,
            key_buf: &mut self.key_buf,
            emit: &self.emit,
            out_key: &mut self.out_key,
            out: &mut out,
            stats,
        };
        // One term per non-empty S ⊆ changed.
        let mut in_s = changed;
        while in_s != 0 {
            search.run_term(in_s);
            in_s = (in_s - 1) & changed;
        }

        // The deltas' indexed copies go before the old stores grow.
        for store in &mut self.delta {
            store.clear();
        }
        for (slot, d) in input_deltas.iter().enumerate() {
            if self.shared[slot] {
                continue; // the hub coordinator advances this store
            }
            if let Some(d) = d {
                for (t, r) in d.iter() {
                    guards[slot].apply(t, r);
                }
            }
        }
        Some(out)
    }
}

/// The search of one batch: what it reads, its scratch, where it emits.
/// `binding` is the partial assignment over `var_order`, `key_buf` the one
/// buffer multi-column probe keys are assembled in.
struct Search<'a, R> {
    atoms: &'a [AtomSpec],
    old: &'a [MutexGuard<'a, Store<R>>],
    delta: &'a [Store<R>],
    plans: &'a [SeedPlan],
    /// The current term's `S`, a mask over atoms: these read `delta`, and
    /// the first of them seeds the term.
    in_s: u64,
    /// Per step of `plan` (from `Step::order_base`), its constraints by
    /// ascending size of the index the current term probes them in.
    order: &'a mut Vec<usize>,
    binding: &'a mut Vec<Value>,
    key_buf: &'a mut Vec<Value>,
    /// Candidate sets of the steps on the search path, innermost last.
    cands: Vec<&'a Candidates>,
    /// How a full binding is summed into `out`, and the buffer its output
    /// key is assembled in.
    emit: &'a LiftedProjection<R>,
    out_key: &'a mut Vec<Value>,
    out: &'a mut Relation<R>,
    stats: &'a mut DataflowStats,
}

impl<'a, R: Semiring> Search<'a, R> {
    /// The store `atom` reads in the current term.
    fn store(&self, atom: usize) -> &'a Store<R> {
        let input = self.atoms[atom].input;
        if self.in_s >> atom & 1 == 1 {
            &self.delta[input]
        } else {
            &self.old[input]
        }
    }

    /// The index constraint `c` probes in the current term.
    fn index(&self, c: &Constraint) -> &'a PatternIndex {
        let in_s = self.in_s >> c.atom & 1 == 1;
        &self.store(c.atom).indexes[if in_s { c.delta_slot } else { c.slot }]
    }

    /// One inclusion–exclusion term: seed from the first S-atom's delta
    /// tuples, then search the remaining variables.
    fn run_term(&mut self, in_s: u64) {
        let atoms = self.atoms;
        // A factor read from an empty old store makes the term zero —
        // six of a triangle preload's seven terms, none in steady state.
        let reads_empty =
            |j: usize| in_s >> j & 1 == 0 && self.old[atoms[j].input].tuples.is_empty();
        if (0..atoms.len()).any(reads_empty) {
            return;
        }
        self.in_s = in_s;
        let seed = in_s.trailing_zeros() as usize;
        let plan = &self.plans[seed];
        let mut order = std::mem::take(self.order);
        order.clear();
        for step in &plan.steps {
            order.extend(0..step.constraints.len());
            order[step.order_base..]
                .sort_unstable_by_key(|&i| (self.index(&step.constraints[i]).map.len(), i));
        }
        *self.order = order;
        for (t, r) in self.store(seed).tuples.iter() {
            self.stats.multiway_seeds += 1;
            for (c, &g) in atoms[seed].gpos.iter().enumerate() {
                self.binding[g].clone_from(t.at(c));
            }
            if let Some(acc) = self.fold(&plan.at_seed, r) {
                self.search(0, acc);
            }
        }
    }

    /// `acc` times the payloads of the atoms `done`, which the binding now
    /// covers; `None` if one of them is absent or the product is zero.
    fn fold(&mut self, done: &[usize], acc: &R) -> Option<R> {
        let mut acc = acc.clone();
        for &j in done {
            self.stats.multiway_probes += 1;
            let tuples = &self.store(j).tuples;
            let key = gather(self.binding, &self.atoms[j].gpos, self.key_buf);
            acc = acc.times(tuples.get(key)?);
        }
        (!acc.is_zero()).then_some(acc)
    }

    /// Extend the binding by the variable of step `step_i`: intersect the
    /// candidate sets of every constraining atom (iterate the smallest,
    /// probe the rest), fold completed atoms' payloads, recurse.
    fn search(&mut self, step_i: usize, acc: R) {
        let plan = &self.plans[self.in_s.trailing_zeros() as usize];
        let Some(step) = plan.steps.get(step_i) else {
            // A full binding: lift the variables the output drops, and
            // add under its output key.
            self.emit
                .accumulate(self.out, self.binding, acc, self.out_key);
            return;
        };
        let base = self.cands.len();
        let n = step.constraints.len();
        for k in 0..n {
            let c = &step.constraints[self.order[step.order_base + k]];
            self.stats.multiway_probes += 1;
            let index = self.index(c);
            let key = gather(self.binding, &c.key_g, self.key_buf);
            match index.map.get(key) {
                Some(set) => self.cands.push(set),
                None => {
                    self.cands.truncate(base);
                    return;
                }
            }
        }
        let smallest = (base..base + n)
            .min_by_key(|&i| self.cands[i].len())
            .expect("at least one constraint per step");
        'vals: for val in self.cands[smallest].iter() {
            self.stats.multiway_intersections += 1;
            for i in (base..base + n).filter(|&i| i != smallest) {
                self.stats.multiway_probes += 1;
                if !self.cands[i].contains(val) {
                    continue 'vals;
                }
            }
            self.binding[step.var_g].clone_from(val);
            if let Some(acc) = self.fold(&step.completed, &acc) {
                self.search(step_i + 1, acc);
            }
        }
        self.cands.truncate(base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::ops::{eval_join_aggregate, lift_one};
    use ivm_data::{sym, tup, vars};

    /// Triangle over one shared input: E(a,b), E(b,c), E(c,a), listing
    /// every rotation.
    fn triangle_state() -> (MultiwayState<i64>, Schema) {
        let (atoms, vo) = triangle_atoms();
        (
            MultiwayState::new(&atoms, 1, vo.clone(), vo.clone(), lift_one),
            vo,
        )
    }

    /// The same triangle counted: aggregated onto the empty schema.
    fn triangle_count_state() -> MultiwayState<i64> {
        let (atoms, vo) = triangle_atoms();
        MultiwayState::new(&atoms, 1, vo, Schema::empty(), lift_one)
    }

    fn triangle_atoms() -> (Vec<(usize, Schema)>, Schema) {
        let [a, b, c] = vars(["mw_A", "mw_B", "mw_C"]);
        let atoms = vec![
            (0usize, Schema::from([a, b])),
            (0, Schema::from([b, c])),
            (0, Schema::from([c, a])),
        ];
        (atoms, Schema::from([a, b, c]))
    }

    fn edge_delta(edges: &[(i64, i64, i64)]) -> Relation<i64> {
        let [x, y] = vars(["mw_ex", "mw_ey"]);
        Relation::from_rows(
            Schema::from([x, y]),
            edges.iter().map(|&(a, b, m)| (tup![a, b], m)),
        )
    }

    #[test]
    fn triangle_insert_then_delete() {
        let mut st = triangle_count_state();
        let mut stats = DataflowStats::default();
        let d = edge_delta(&[(1, 2, 1), (2, 3, 1), (3, 1, 1), (1, 9, 1)]);
        let out = st.apply(&[Some(&d)], &mut stats).unwrap();
        // One directed triangle, counted once per rotation of (a,b,c).
        assert_eq!(out.total(), 3);
        // Deleting a non-triangle edge changes nothing.
        let d = edge_delta(&[(1, 9, -1)]);
        let out = st.apply(&[Some(&d)], &mut stats).unwrap();
        assert_eq!(out.total(), 0);
        // Deleting a triangle edge retracts all three rotations.
        let d = edge_delta(&[(2, 3, -1)]);
        let out = st.apply(&[Some(&d)], &mut stats).unwrap();
        assert_eq!(out.total(), -3);
        assert_eq!(st.stored_tuples(), 2);
    }

    #[test]
    fn self_join_occurrences_share_indexes() {
        let (mut st, _) = triangle_state();
        let mut stats = DataflowStats::default();
        let d = edge_delta(&[(1, 2, 1), (2, 3, 1), (3, 1, 1)]);
        st.apply(&[Some(&d)], &mut stats).unwrap();
        // Three occurrences, but the seed plans only ever probe E keyed by
        // its first or its second column — two shared patterns, one store.
        assert_eq!(st.index_counts(), vec![2]);
    }

    #[test]
    fn matches_oracle_on_distinct_relations() {
        // Cyclic listing R(a,b)·S(b,c)·T(c,a) with free a,b,c.
        let [a, b, c] = vars(["mw_LA", "mw_LB", "mw_LC"]);
        let vo = Schema::from([a, b, c]);
        let atoms = vec![
            (0usize, Schema::from([a, b])),
            (1, Schema::from([b, c])),
            (2, Schema::from([c, a])),
        ];
        let mut st: MultiwayState<i64> =
            MultiwayState::new(&atoms, 3, vo.clone(), vo.clone(), lift_one);
        let mut stats = DataflowStats::default();

        let mut rels: Vec<Relation<i64>> = vec![
            Relation::new(Schema::from([a, b])),
            Relation::new(Schema::from([b, c])),
            Relation::new(Schema::from([c, a])),
        ];
        let mut maintained = Relation::new(vo.clone());
        // Mixed batches, payload 2 on one edge, overlapping deltas.
        let batches: Vec<Vec<(usize, i64, i64, i64)>> = vec![
            vec![(0, 1, 2, 1), (1, 2, 3, 2), (2, 3, 1, 1)],
            vec![(0, 2, 2, 1), (1, 2, 2, 1), (2, 2, 2, 1), (0, 1, 2, 1)],
            vec![(1, 2, 3, -2), (2, 2, 2, -1)],
        ];
        for batch in batches {
            let mut deltas: Vec<Relation<i64>> = rels
                .iter()
                .map(|r| Relation::new(r.schema().clone()))
                .collect();
            for &(i, x, y, m) in &batch {
                deltas[i].apply(tup![x, y], &m);
                rels[i].apply(tup![x, y], &m);
            }
            let ds: Vec<Option<&Relation<i64>>> = deltas
                .iter()
                .map(|d| if d.is_empty() { None } else { Some(d) })
                .collect();
            if let Some(out) = st.apply(&ds, &mut stats) {
                for (t, r) in out.iter() {
                    maintained.apply(t.clone(), r);
                }
            }
            let expect = eval_join_aggregate(&[&rels[0], &rels[1], &rels[2]], &vo, lift_one);
            assert_eq!(maintained.len(), expect.len());
            for (t, p) in expect.iter() {
                assert_eq!(&maintained.get(t), p, "at {t:?}");
            }
        }
        assert!(stats.multiway_seeds > 0);
    }

    #[test]
    fn hub_shared_store_stays_oracle_correct() {
        // Two independent triangle states over the same edge relation,
        // joined through one hub: both must see identical deltas on every
        // batch, the hub must hold the relation's tuples exactly once,
        // and the second join must report a dedup hit.
        let e_sym = sym("mw_hubE");
        let (mut st1, _) = triangle_state();
        let (mut st2, _) = triangle_state();
        let hub: StoreHub<i64> = StoreHub::new();
        assert!(!st1.share_slot(0, e_sym, &hub), "first join donates");
        assert!(st2.share_slot(0, e_sym, &hub), "second join adopts");
        assert_eq!(hub.relations(), vec![e_sym]);

        let mut stats = DataflowStats::default();
        let batches: Vec<Vec<(i64, i64, i64)>> = vec![
            vec![(1, 2, 1), (2, 3, 1), (3, 1, 1), (1, 9, 1)],
            vec![(4, 5, 1), (5, 4, 1), (4, 4, 1)],
            vec![(2, 3, -1), (1, 9, -1)],
        ];
        for edges in batches {
            let d = edge_delta(&edges);
            let o1 = st1.apply(&[Some(&d)], &mut stats).unwrap();
            let o2 = st2.apply(&[Some(&d)], &mut stats).unwrap();
            assert_eq!(o1.len(), o2.len());
            for (t, r) in o1.iter() {
                assert_eq!(&o2.get(t), r, "members disagree at {t:?}");
            }
            // Neither member advanced the shared slot in-engine...
            assert_eq!(st1.stored_tuples(), st2.stored_tuples());
            assert_eq!(st1.owned_tuples(), 0, "shared slot is not owned");
            // ...the coordinator advances it once per epoch.
            let mut batch = DeltaBatch::new();
            for (t, r) in d.iter() {
                batch.push(&ivm_data::Update::with_payload(e_sym, t.clone(), *r));
            }
            hub.advance_batch(&batch);
        }
        // Post-stream: edges {12,23,31,19,45,54,44} minus {23,19} = 5
        // tuples, resident once in the hub, visible from both members.
        assert_eq!(hub.stored_tuples(), 5);
        assert_eq!(st1.stored_tuples(), 5);
        assert_eq!(st2.stored_tuples(), 5);
    }

    /// A fixed 40-update stream over 7 nodes: 16 inserts, then six batches
    /// of three inserts and one delete. Returns the counters of the six
    /// steady-state batches and the summed output payloads.
    fn pinned_stream_counters() -> (DataflowStats, i64) {
        let mut st = triangle_count_state();
        let mut stats = DataflowStats::default();
        let mut x = 12345u64;
        let mut edges: Vec<(i64, i64)> = Vec::new();
        while edges.len() < 34 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let e = (((x >> 33) % 7) as i64, ((x >> 13) % 7) as i64);
            if !edges.contains(&e) {
                edges.push(e);
            }
        }
        let first: Vec<(i64, i64, i64)> = edges[..16].iter().map(|&(a, b)| (a, b, 1)).collect();
        st.apply(&[Some(&edge_delta(&first))], &mut stats).unwrap();
        let after_first = stats;
        let mut total = 0;
        for k in 0..6 {
            let mut batch: Vec<(i64, i64, i64)> = edges[16 + 3 * k..19 + 3 * k]
                .iter()
                .map(|&(a, b)| (a, b, 1))
                .collect();
            batch.push((edges[k].0, edges[k].1, -1));
            total += st
                .apply(&[Some(&edge_delta(&batch))], &mut stats)
                .unwrap()
                .total();
        }
        (stats.since(&after_first), total)
    }

    /// Smallest-index-first probing may only *remove* probes: in steady
    /// state (every old store non-empty, so no term is skipped) the seeds
    /// and the outputs of a stream are those of the atom-order search this
    /// operator replaced, whose counters on the same stream are recorded
    /// here.
    #[test]
    fn steady_state_counters_pinned() {
        const PARENT_SEEDS: u64 = 168;
        const PARENT_PROBES: u64 = 764;
        const PROBES: u64 = 736;
        let (d, total) = pinned_stream_counters();
        assert_eq!(
            d.multiway_seeds, PARENT_SEEDS,
            "6 batches x 4 tuples x 7 terms"
        );
        assert_eq!(d.multiway_probes, PROBES);
        const { assert!(PROBES <= PARENT_PROBES) };
        assert_eq!(d.multiway_intersections, 226);
        assert_eq!(total, 68);
    }

    #[test]
    fn poisoned_hub_store_keeps_members_correct() {
        // A peer panicking while it holds a shared store's lock poisons
        // the mutex for every other member. Stores change tuple-at-a-time,
        // so `relock` may carry on: the members must keep agreeing with a
        // state that never shared anything.
        let e_sym = sym("mw_poisonE");
        let (mut m1, _) = triangle_state();
        let (mut m2, _) = triangle_state();
        let (mut alone, _) = triangle_state();
        let hub: StoreHub<i64> = StoreHub::new();
        m1.share_slot(0, e_sym, &hub);
        m2.share_slot(0, e_sym, &hub);
        let mut stats = DataflowStats::default();
        let batches: [&[(i64, i64, i64)]; 3] = [
            &[(1, 2, 1), (2, 3, 1), (3, 1, 1), (3, 4, 1)],
            &[(4, 1, 1), (2, 3, 1), (1, 2, -1)],
            &[(1, 2, 1), (3, 4, -1), (2, 3, -1)],
        ];
        for (i, edges) in batches.iter().enumerate() {
            if i == 1 {
                let store = Arc::clone(&m1.stores[0]);
                let peer = std::thread::spawn(move || {
                    let _held = store.lock().unwrap();
                    panic!("peer engine dies holding the shared store");
                });
                assert!(peer.join().is_err());
                assert!(m1.stores[0].is_poisoned());
            }
            let d = edge_delta(edges);
            let expect = alone.apply(&[Some(&d)], &mut stats).unwrap();
            for member in [&mut m1, &mut m2] {
                let got = member.apply(&[Some(&d)], &mut stats).unwrap();
                assert_eq!(got.len(), expect.len(), "batch {i}");
                for (t, r) in expect.iter() {
                    assert_eq!(&got.get(t), r, "batch {i} at {t:?}");
                }
            }
            let mut batch = DeltaBatch::new();
            for (t, r) in d.iter() {
                batch.push(&ivm_data::Update::with_payload(e_sym, t.clone(), *r));
            }
            hub.advance_batch(&batch);
            assert_eq!(hub.stored_tuples(), alone.stored_tuples(), "batch {i}");
        }
    }

    #[test]
    fn empty_batch_is_noop() {
        let (mut st, _) = triangle_state();
        let mut stats = DataflowStats::default();
        assert!(st.apply(&[None], &mut stats).is_none());
        assert_eq!(stats.multiway_seeds, 0);
    }

    #[test]
    fn seed_covering_all_variables_short_circuits() {
        // Q(a,b) = R(a,b)·R(a,b): the second occurrence is fully bound by
        // the seed, exercising the at_seed presence probe.
        let [a, b] = vars(["mw_DA", "mw_DB"]);
        let vo = Schema::from([a, b]);
        let atoms = vec![(0usize, vo.clone()), (0, vo.clone())];
        let mut st: MultiwayState<i64> = MultiwayState::new(&atoms, 1, vo.clone(), vo, lift_one);
        let mut stats = DataflowStats::default();
        let d = edge_delta(&[(1, 2, 3)]);
        let out = st.apply(&[Some(&d)], &mut stats).unwrap();
        // (R+δ)² − R² with R = 0: payload 9.
        assert_eq!(out.get(&tup![1i64, 2i64]), 9);
        let _ = sym("mw_unused");
    }
}
