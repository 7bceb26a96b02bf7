//! Worst-case-optimal multiway join state (generic leapfrog-style).
//!
//! A chain of binary joins materializes every intermediate, which on
//! cyclic queries like the triangle blows up to the size the AGM bound
//! says a full join never needs (Veldhuizen, *Incremental Maintenance for
//! Leapfrog Triejoin*; Kara et al., *Maintaining Triangle Queries under
//! Updates*). This module implements the attribute-at-a-time alternative,
//! one algorithm for every conjunctive query, acyclic or cyclic: fix a
//! global variable order, then extend a partial binding one variable at a
//! time by *intersecting* the candidate values of every atom containing
//! that variable — iterate the smallest candidate set, probe the rest. No
//! intermediate relation is ever materialized, and not even the join
//! tuples are: each full binding is summed straight into the aggregated
//! output (§Aggregation).
//!
//! # Value ids
//!
//! The node's state holds no [`Value`]. A dictionary
//! ([`ivm_data::ids::Dict`], the one the view tree uses too) maps each
//! value to a dense `u32` id, and a delta tuple is encoded once, when
//! `MultiwayState::apply` — or, for a hub-shared store,
//! [`StoreHub::advance_batch`] — receives it; stores, index keys,
//! candidate sets and the search binding hold only ids. An id hashes with
//! one multiply and compares with one instruction, where a `Value` is a
//! 24-byte tagged enum. Values are decoded only at a full binding, for the
//! lifts and the output key (§Aggregation). Every store a node reads uses
//! one dictionary: a [`StoreHub`] owns the dictionary its members share,
//! and a node re-encodes its owned stores into it once, when it joins the
//! hub. Resident tuples reference-count their ids, and an id no resident
//! tuple holds is freed at the end of the batch and reused by the next new
//! value, so a stream over ever-fresh values keeps the dictionary at its
//! live distinct-value count.
//!
//! # Index structure
//!
//! Each distinct relation the node reads (an *input*) owns one `Store`: its
//! resident id tuples with their payloads, plus a vector of
//! `PatternIndex`es, the hash-trie analogue of leapfrog's sorted tries. A
//! pattern `(key_pos, val_pos)` maps an assignment of the key columns to
//! the set of ids the `val` column can take (with support counts, so
//! deletions retract candidates); a set is an id-sorted run of `(id,
//! support)` pairs under binary search until it outgrows `FLAT_MAX`, a
//! hash set after. A key — a tuple of the store, or an index key — of at
//! most two ids is packed into the `u64` of its table slot, one of three
//! or four ids into a `u128` ([`IdMap`]): no heap hop, no allocation; a
//! longer one is boxed. Every pattern a seed plan can probe is known when
//! the node is built, so it gets its *slot* in the store then and each
//! `Constraint` carries the slot: no batch looks a pattern up, let alone
//! builds one. Because the slots live on the
//! *store*, atoms over the same relation — the three occurrences of `E`
//! in the self-join triangle — share physical indexes instead of keeping
//! three copies, and an engine adopting a [`StoreHub`] store registers its
//! patterns on it once, at adoption.
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
//! remaining variables are solved by the intersection search, next always
//! a variable that shares an atom with the binding so far (a Cartesian
//! step only where the query is disconnected) — atoms in `S`
//! probe their input's *delta store*, the rest the old shared stores. A
//! delta store is a `Store` with the old store's patterns that lives as
//! long as the node: a batch encodes its delta into it through the same
//! `Store::apply` that maintains the old indexes, advances the owned old
//! stores from it after the search, and empties it, keeping its
//! batch-sized tables — except that an owned store still empty (a preload)
//! takes the delta store's tables whole instead of re-inserting every
//! tuple. A step probes its constraints smallest index first,
//! so an `S`-atom's delta index — where the key is almost always absent —
//! ends the branch before the resident store is touched, and a term reading
//! an *empty* old store is zero and skipped outright: a preload costs one
//! term, not `2^k − 1`. Probe keys are packed from the id binding (past
//! four columns, gathered into one kept buffer), so a batch allocates per
//! new index key and per distinct output key, never per seed, probe or
//! join tuple. Old stores advance only after all terms, so the old/new
//! discipline needs no sequencing and self-joins need no per-occurrence
//! state.
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
//! `ops::aggregate` takes per row, fed the binding decoded into a kept
//! row of values. The output key is assembled in a kept buffer and moves
//! into the output only when new, so a count (`out` empty) accumulates
//! into one entry and a listing (`out` a permutation of `var_order`,
//! nothing lifted) takes the same path. Only the leaf changes: seeds,
//! probes, intersections and the terms of the expansion are those of the
//! listing search, because aggregation is linear and commutes with the sum
//! over terms.

use crate::engine::DataflowStats;
use ivm_data::ids::{gather, Dict, Id, IdMap};
use ivm_data::ops::{Lift, LiftedProjection};
use ivm_data::{DeltaBatch, Entry, FxHashMap, Relation, Schema, Sym, Value};
use ivm_ring::Semiring;
use std::sync::{Arc, Mutex, MutexGuard};

/// Recover from a poisoned store or dictionary lock. A store changes
/// tuple-at-a-time, and a tuple's ids are retained in the dictionary
/// before it becomes resident and released only after it has left, so a
/// peer engine that panicked mid-batch elsewhere can leave an id counted
/// above its resident tuples (kept alive, never reused) or unreferenced
/// until the next sweep — never a resident id that is free. The data is
/// coherent either way.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Longest candidate set kept as a sorted run. Up to here an insert
/// moves at most 256 bytes and membership is five comparisons; a hub key's
/// set beyond it becomes a hash set, whose inserts do not move its
/// members (and which stays one even if it shrinks again).
const FLAT_MAX: usize = 32;

/// One more tuple supporting a candidate.
fn bump(support: &mut u32) {
    *support = support
        .checked_add(1)
        .expect("a support is bounded by 2^32 resident tuples sharing one key and value");
}

/// The ids one key can be extended by, each with the number of tuples
/// supporting it.
enum Candidates {
    /// Sorted by id.
    Flat(Vec<(Id, u32)>),
    Hashed(Box<FxHashMap<Id, u32>>),
}

impl Candidates {
    /// The set `{id}` with support 1.
    fn one(id: Id) -> Self {
        Candidates::Flat(vec![(id, 1)])
    }

    fn len(&self) -> usize {
        match self {
            Candidates::Flat(v) => v.len(),
            Candidates::Hashed(m) => m.len(),
        }
    }

    fn contains(&self, id: Id) -> bool {
        match self {
            Candidates::Flat(v) => v.binary_search_by_key(&id, |e| e.0).is_ok(),
            Candidates::Hashed(m) => m.contains_key(&id),
        }
    }

    fn iter(&self) -> impl Iterator<Item = Id> + '_ {
        let (flat, hashed) = match self {
            Candidates::Flat(v) => (Some(v), None),
            Candidates::Hashed(m) => (None, Some(m)),
        };
        let flat = flat.into_iter().flatten().map(|e| e.0);
        flat.chain(hashed.into_iter().flat_map(|m| m.keys().copied()))
    }

    /// Count one more tuple supporting `id`.
    fn add(&mut self, id: Id) {
        match self {
            Candidates::Flat(v) => match v.binary_search_by_key(&id, |e| e.0) {
                Ok(i) => bump(&mut v[i].1),
                Err(i) if v.len() < FLAT_MAX => v.insert(i, (id, 1)),
                Err(_) => {
                    let mut m: FxHashMap<Id, u32> = v.drain(..).collect();
                    m.insert(id, 1);
                    *self = Candidates::Hashed(Box::new(m));
                }
            },
            Candidates::Hashed(m) => bump(m.entry(id).or_insert(0)),
        }
    }

    /// Count one tuple supporting `id` less; `true` once the set is empty.
    fn remove(&mut self, id: Id) -> bool {
        match self {
            Candidates::Flat(v) => {
                if let Ok(i) = v.binary_search_by_key(&id, |e| e.0) {
                    v[i].1 -= 1;
                    if v[i].1 == 0 {
                        v.remove(i);
                    }
                }
            }
            Candidates::Hashed(m) => {
                if let Some(n) = m.get_mut(&id) {
                    *n -= 1;
                    if *n == 0 {
                        m.remove(&id);
                    }
                }
            }
        }
        self.len() == 0
    }
}

/// A hash-trie level: for one access pattern `(key columns → value
/// column)`, the ids reachable under each key assignment.
struct PatternIndex {
    key_pos: Box<[usize]>,
    val_pos: usize,
    map: IdMap<Candidates>,
}

impl PatternIndex {
    /// Record one present tuple.
    fn add(&mut self, t: &[Id], buf: &mut Vec<Id>) {
        let key = gather(t, &self.key_pos, buf);
        let val = t[self.val_pos];
        match self.map.get_mut(key) {
            Some(c) => c.add(val),
            None => self.map.insert(key, Candidates::one(val)),
        }
    }

    /// Retract one no-longer-present tuple.
    fn remove(&mut self, t: &[Id], buf: &mut Vec<Id>) {
        let key = gather(t, &self.key_pos, buf);
        if let Some(c) = self.map.get_mut(key) {
            if c.remove(t[self.val_pos]) {
                self.map.remove(key);
            }
        }
    }
}

/// One input's state: payloads of its id tuples plus one index per
/// registered pattern.
struct Store<R> {
    tuples: IdMap<R>,
    indexes: Vec<PatternIndex>,
    /// Scratch for multi-column index keys.
    key_buf: Vec<Id>,
}

impl<R: Semiring> Store<R> {
    fn new(arity: usize) -> Self {
        Store {
            tuples: IdMap::new(arity),
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
            map: IdMap::new(key_pos.len()),
        };
        for (t, _) in self.tuples.iter() {
            idx.add(&t, &mut self.key_buf);
        }
        self.indexes.push(idx);
        self.indexes.len() - 1
    }

    /// Apply one delta tuple, keeping every index in sync with the present
    /// (non-zero payload) tuple set. A resident store passes its
    /// dictionary as `refs`: a tuple retains its ids before it becomes
    /// present and releases them once it is gone. A delta store passes
    /// `None`; its ids live until the batch's sweep.
    fn apply(&mut self, t: &[Id], delta: &R, refs: Option<&mut Dict>) {
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
                    if let Some(d) = refs {
                        t.iter().for_each(|&id| d.release(id));
                    }
                }
            }
            None => {
                if let Some(d) = refs {
                    t.iter().for_each(|&id| d.retain(id));
                }
                self.tuples.insert(t, delta.clone());
                for idx in &mut self.indexes {
                    idx.add(t, &mut self.key_buf);
                }
            }
        }
    }

    /// Re-encode every resident tuple from `from`'s ids into `to`'s,
    /// keeping the pattern slots.
    fn recode(&mut self, from: &Dict, to: &mut Dict) {
        let old = self.tuples.take();
        for idx in &mut self.indexes {
            idx.map.clear();
        }
        let mut ids = Vec::new();
        for (t, r) in old.iter() {
            ids.clear();
            ids.extend(t.iter().map(|&id| to.encode(from.value(id))));
            self.apply(&ids, r, Some(to));
        }
    }
}

impl<R> Store<R> {
    /// Empty this resident store, releasing its ids.
    fn release_all(&mut self, dict: &mut Dict) {
        for (t, _) in self.tuples.take().iter() {
            t.iter().for_each(|&id| dict.release(id));
        }
        for idx in &mut self.indexes {
            idx.map.clear();
        }
        dict.sweep();
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

/// The variable a seed plan binds next: the first unbound one in
/// `var_order` that shares an atom with a bound variable, so its step is
/// keyed by the binding. Only when none does — a disconnected query — the
/// first unbound one, a Cartesian step. Binding in plain `var_order` order
/// instead makes the 4-atom chain `R(a,b)·S(b,c)·T(c,d)·U(d,e)`, seeded
/// from `U`, enumerate every `b` before `c` pins it: work linear in N per
/// update where the connected order does O(1).
fn next_var(specs: &[AtomSpec], bound: &[bool]) -> Option<usize> {
    let linked = |g: usize| {
        specs
            .iter()
            .any(|s| s.gpos.contains(&g) && s.gpos.iter().any(|&h| bound[h]))
    };
    let mut unbound = (0..bound.len()).filter(|&g| !bound[g]);
    unbound
        .clone()
        .find(|&g| linked(g))
        .or_else(|| unbound.next())
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
/// via [`StoreHub::advance_batch`]. The hub also owns the value
/// dictionary every member's stores are encoded in (see the module's
/// §Value ids).
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
    dict: SharedDict,
}

/// One store slot, aliasable across engines through a [`StoreHub`].
type SharedStore<R> = Arc<Mutex<Store<R>>>;

/// A node's dictionary, shared with its hub's other members.
type SharedDict = Arc<Mutex<Dict>>;

// Manual impls: `R` itself need not be Clone/Default for the hub handle
// to be cheap to copy around.
impl<R> Clone for StoreHub<R> {
    fn clone(&self) -> Self {
        StoreHub {
            stores: Arc::clone(&self.stores),
            dict: Arc::clone(&self.dict),
        }
    }
}

impl<R> Default for StoreHub<R> {
    fn default() -> Self {
        StoreHub {
            stores: Arc::new(Mutex::new(FxHashMap::default())),
            dict: SharedDict::default(),
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
    pub fn advance_batch(&self, batch: &DeltaBatch<'_, R>) {
        let map = relock(&self.stores);
        let mut dict = relock(&self.dict);
        let mut ids = Vec::new();
        for (rel, t, r) in batch.iter() {
            if let Some(store) = map.get(&rel) {
                let t = dict.encode_all(t.values(), &mut ids);
                relock(store).apply(t, r, Some(&mut dict));
            }
        }
        dict.sweep();
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

/// State of the multiway join of a [`DataflowEngine`](crate::DataflowEngine).
pub struct MultiwayState<R> {
    atoms: Vec<AtomSpec>,
    /// The base relation each input reads, by input slot: one per
    /// distinct relation, in order of first occurrence.
    relations: Vec<Sym>,
    /// Output schema, and how a full binding over `var_order` is summed
    /// into it (see the module's §Aggregation).
    out: Schema,
    emit: LiftedProjection<R>,
    /// The dictionary every store of this node is encoded in: the node's
    /// own, or its hub's once a slot is shared.
    dict: SharedDict,
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
    binding: Vec<Id>,
    key_buf: Vec<Id>,
    row: Vec<Value>,
    out_key: Vec<Value>,
    order: Vec<usize>,
}

impl<R: Semiring> MultiwayState<R> {
    /// Build the node state. `atoms` pairs each occurrence's relation with
    /// its variable schema — occurrences of one relation share an input,
    /// and so its store and indexes; `var_order` must cover every atom
    /// variable; the node emits its delta aggregated onto
    /// `out ⊆ var_order`, lifting every other variable with `lift`.
    pub(crate) fn new(
        atoms: &[(Sym, Schema)],
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
        let mut relations: Vec<Sym> = Vec::new();
        let mut arity: Vec<usize> = Vec::new();
        let mut specs = Vec::with_capacity(atoms.len());
        for (rel, schema) in atoms {
            let input = match relations.iter().position(|r| r == rel) {
                Some(input) => input,
                None => {
                    relations.push(*rel);
                    arity.push(schema.arity());
                    relations.len() - 1
                }
            };
            assert_eq!(
                arity[input],
                schema.arity(),
                "every occurrence of {rel} has one arity"
            );
            let gpos = schema
                .vars()
                .iter()
                .map(|&v| {
                    var_order
                        .position(v)
                        .unwrap_or_else(|| panic!("atom variable {v} missing from var order"))
                })
                .collect();
            specs.push(AtomSpec { input, gpos });
        }
        // Planning registers every pattern a search can probe on the
        // delta stores; the old stores then get the same slots.
        let mut delta: Vec<Store<R>> = arity.iter().map(|&n| Store::new(n)).collect();
        let plans = (0..specs.len())
            .map(|s| Self::build_plan(&specs, &var_order, s, &mut delta))
            .collect();
        let stores = delta
            .iter()
            .zip(&arity)
            .map(|(d, &n)| {
                let mut old = Store::new(n);
                for idx in &d.indexes {
                    old.slot(&idx.key_pos, idx.val_pos);
                }
                Arc::new(Mutex::new(old))
            })
            .collect();
        MultiwayState {
            atoms: specs,
            shared: vec![false; relations.len()],
            relations,
            binding: vec![0; var_order.arity()],
            row: vec![Value::Int(0); var_order.arity()],
            emit: LiftedProjection::new(&var_order, &out, lift),
            out,
            dict: SharedDict::default(),
            stores,
            plans,
            delta,
            key_buf: Vec::new(),
            out_key: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Join every input onto `hub`'s shared store for its relation (see
    /// [`Self::share_slot`]). Returns the number of dedup hits — inputs
    /// that adopted a store some earlier engine had already donated.
    pub(crate) fn share_stores(&mut self, hub: &StoreHub<R>) -> usize {
        (0..self.relations.len())
            .filter(|&slot| self.share_slot(slot, hub))
            .count()
    }

    /// Swap input `slot`'s store for the hub's shared store of its
    /// relation (donating ours if the hub has none yet), and mark the
    /// slot coordinator-advanced. Returns `true` on a dedup hit — an
    /// earlier engine's store was adopted; this node's patterns are then
    /// registered on it and its constraints re-pointed at those slots.
    /// The first slot a node shares moves all its stores into the hub's
    /// dictionary, once.
    fn share_slot(&mut self, slot: usize, hub: &StoreHub<R>) -> bool {
        let relation = self.relations[slot];
        if !Arc::ptr_eq(&self.dict, &hub.dict) {
            assert!(
                !self.shared.contains(&true),
                "a multiway node shares its stores through one hub"
            );
            let from = relock(&self.dict);
            let mut to = relock(&hub.dict);
            for store in &self.stores {
                relock(store).recode(&from, &mut to);
            }
            drop(from);
            drop(to);
            self.dict = Arc::clone(&hub.dict);
        }
        let (store, existing) = hub.join(relation, Arc::clone(&self.stores[slot]));
        if existing {
            // Sharing a slot twice gets our own store back: only a
            // discarded copy gives its ids back.
            if !Arc::ptr_eq(&store, &self.stores[slot]) {
                let mut dict = relock(&self.dict);
                relock(&self.stores[slot]).release_all(&mut dict);
            }
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
        while let Some(g) = next_var(specs, &bound) {
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

    /// The relation each input reads, by input slot.
    pub fn relations(&self) -> &[Sym] {
        &self.relations
    }

    /// Propagate one consolidated batch: encode the deltas of the node's
    /// relations into the delta stores, run every inclusion–exclusion term
    /// seeded from the changed tuples, then advance the *owned* stores
    /// (hub-shared slots are advanced by the hub coordinator — see
    /// [`StoreHub`]) and free the ids no resident tuple holds. Returns the
    /// output delta over the node's output schema, `None` when the batch
    /// touches none of the node's relations. `batch` yields at most `len`.
    pub(crate) fn apply<'b>(
        &mut self,
        batch: impl IntoIterator<Item = Entry<'b, R>>,
        len: usize,
        stats: &mut DataflowStats,
    ) -> Option<Relation<R>> {
        let mut dict = relock(&self.dict);
        // One pass over the batch fills the delta stores. Inputs whose
        // relation changed this batch, as a mask over inputs (there are
        // no more inputs than atoms).
        let mut inputs_changed = 0u64;
        // A preload-sized delta table would make every `clear` and seed
        // scan slow, so each shrinks to this batch first.
        for store in &mut self.delta {
            store.tuples.shrink_to(2 * len);
            store
                .indexes
                .iter_mut()
                .for_each(|i| i.map.shrink_to(2 * len));
        }
        for (rel, t, r) in batch {
            if let Some(slot) = self.relations.iter().position(|&x| x == rel) {
                let ids = dict.encode_all(t.values(), &mut self.key_buf);
                self.delta[slot].apply(ids, r, None);
                inputs_changed |= 1 << slot;
            }
        }
        if inputs_changed == 0 {
            return None;
        }
        // Atoms whose input changed, as a mask over atoms.
        let changed = (0..self.atoms.len())
            .filter(|&j| inputs_changed >> self.atoms[j].input & 1 == 1)
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
            dict: &dict,
            row: &mut self.row,
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

        // The deltas' indexes go before the old stores grow; their tuples
        // advance the owned stores, then go too. A shared slot is advanced
        // by the hub coordinator.
        for (slot, store) in self.delta.iter_mut().enumerate() {
            if inputs_changed >> slot & 1 == 0 {
                continue;
            }
            let old = &mut guards[slot];
            if !self.shared[slot] && old.tuples.is_empty() {
                // An empty owned store (a preload) adopts the delta store
                // whole, with the same pattern slots: its tuples retain
                // their ids and the tables swap, instead of every tuple
                // being inserted again.
                debug_assert!(old
                    .indexes
                    .iter()
                    .map(|i| (&i.key_pos, i.val_pos))
                    .eq(store.indexes.iter().map(|i| (&i.key_pos, i.val_pos))));
                for (t, _) in store.tuples.iter() {
                    t.iter().for_each(|&id| dict.retain(id));
                }
                std::mem::swap(&mut **old, store);
            }
            for idx in &mut store.indexes {
                idx.map.clear();
            }
            if !self.shared[slot] {
                for (t, r) in store.tuples.iter() {
                    old.apply(&t, r, Some(&mut dict));
                }
            }
            store.tuples.clear();
        }
        dict.sweep();
        Some(out)
    }
}

impl<R> Drop for MultiwayState<R> {
    /// Owned stores give their ids back to a dictionary that outlives
    /// them: their hub's.
    fn drop(&mut self) {
        if Arc::strong_count(&self.dict) == 1 {
            return;
        }
        let mut dict = relock(&self.dict);
        for (store, _) in self.stores.iter().zip(&self.shared).filter(|(_, &sh)| !sh) {
            relock(store).release_all(&mut dict);
        }
    }
}

/// The search of one batch: what it reads, its scratch, where it emits.
/// `binding` is the partial assignment over `var_order`, `key_buf` the one
/// buffer probe keys of more than four columns are assembled in.
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
    binding: &'a mut Vec<Id>,
    key_buf: &'a mut Vec<Id>,
    /// Candidate sets of the steps on the search path, innermost last.
    cands: Vec<&'a Candidates>,
    /// Decodes a full binding into `row`.
    dict: &'a Dict,
    row: &'a mut Vec<Value>,
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
                self.binding[g] = t[c];
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
            let r = tuples.get_at(self.binding, &self.atoms[j].gpos, self.key_buf)?;
            acc = acc.times(r);
        }
        (!acc.is_zero()).then_some(acc)
    }

    /// Extend the binding by the variable of step `step_i`: intersect the
    /// candidate sets of every constraining atom (iterate the smallest,
    /// probe the rest), fold completed atoms' payloads, recurse.
    fn search(&mut self, step_i: usize, acc: R) {
        let plan = &self.plans[self.in_s.trailing_zeros() as usize];
        let Some(step) = plan.steps.get(step_i) else {
            // A full binding: decode it, lift the variables the output
            // drops, and add under its output key.
            for (v, &id) in self.row.iter_mut().zip(self.binding.iter()) {
                v.clone_from(self.dict.value(id));
            }
            self.emit.accumulate(self.out, self.row, acc, self.out_key);
            return;
        };
        let base = self.cands.len();
        let n = step.constraints.len();
        for k in 0..n {
            let c = &step.constraints[self.order[step.order_base + k]];
            self.stats.multiway_probes += 1;
            let index = self.index(c);
            match index.map.get_at(self.binding, &c.key_g, self.key_buf) {
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
            self.binding[step.var_g] = val;
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
    use crate::cost::{variable_order, Cardinalities};
    use ivm_data::ops::{eval_join_aggregate, lift_one};
    use ivm_data::{sym, tup, vars, FxHashSet, Tuple, Update};
    use ivm_query::{examples, Query};

    impl MultiwayState<i64> {
        fn apply_batch(
            &mut self,
            batch: &DeltaBatch<'_, i64>,
            stats: &mut DataflowStats,
        ) -> Option<Relation<i64>> {
            self.apply(batch.iter(), batch.len(), stats)
        }
    }

    /// Triangle over one edge relation `e`: E(a,b), E(b,c), E(c,a),
    /// listing every rotation.
    fn triangle_state(e: Sym) -> (MultiwayState<i64>, Schema) {
        let (atoms, vo) = triangle_atoms(e);
        (
            MultiwayState::new(&atoms, vo.clone(), vo.clone(), lift_one),
            vo,
        )
    }

    /// The same triangle counted: aggregated onto the empty schema.
    fn triangle_count_state(e: Sym) -> MultiwayState<i64> {
        let (atoms, vo) = triangle_atoms(e);
        MultiwayState::new(&atoms, vo, Schema::empty(), lift_one)
    }

    fn triangle_atoms(e: Sym) -> (Vec<(Sym, Schema)>, Schema) {
        let [a, b, c] = vars(["mw_A", "mw_B", "mw_C"]);
        let atoms = vec![
            (e, Schema::from([a, b])),
            (e, Schema::from([b, c])),
            (e, Schema::from([c, a])),
        ];
        (atoms, Schema::from([a, b, c]))
    }

    /// A consolidated batch of `(relation, tuple, multiplicity)` rows.
    fn batch_of(rows: impl IntoIterator<Item = (Sym, Tuple, i64)>) -> DeltaBatch<'static, i64> {
        let updates: Vec<_> = rows
            .into_iter()
            .map(|(rel, t, m)| Update::with_payload(rel, t, m))
            .collect();
        let mut batch = DeltaBatch::new();
        for (rel, t, m) in DeltaBatch::from_updates(&updates).iter() {
            batch.insert_consolidated(rel, t.clone(), *m);
        }
        batch
    }

    fn edge_batch(e: Sym, edges: &[(i64, i64, i64)]) -> DeltaBatch<'static, i64> {
        batch_of(edges.iter().map(|&(a, b, m)| (e, tup![a, b], m)))
    }

    #[test]
    fn triangle_insert_then_delete() {
        let e = sym("mw_triE");
        let mut st = triangle_count_state(e);
        let mut stats = DataflowStats::default();
        let d = edge_batch(e, &[(1, 2, 1), (2, 3, 1), (3, 1, 1), (1, 9, 1)]);
        let out = st.apply_batch(&d, &mut stats).unwrap();
        // One directed triangle, counted once per rotation of (a,b,c).
        assert_eq!(out.total(), 3);
        // Deleting a non-triangle edge changes nothing.
        let d = edge_batch(e, &[(1, 9, -1)]);
        let out = st.apply_batch(&d, &mut stats).unwrap();
        assert_eq!(out.total(), 0);
        // Deleting a triangle edge retracts all three rotations.
        let d = edge_batch(e, &[(2, 3, -1)]);
        let out = st.apply_batch(&d, &mut stats).unwrap();
        assert_eq!(out.total(), -3);
        assert_eq!(st.stored_tuples(), 2);
    }

    #[test]
    fn self_join_occurrences_share_indexes() {
        let e = sym("mw_shareE");
        let (mut st, _) = triangle_state(e);
        let mut stats = DataflowStats::default();
        let d = edge_batch(e, &[(1, 2, 1), (2, 3, 1), (3, 1, 1)]);
        st.apply_batch(&d, &mut stats).unwrap();
        // Three occurrences, but the seed plans only ever probe E keyed by
        // its first or its second column — two shared patterns, one store.
        assert_eq!(st.index_counts(), vec![2]);
    }

    #[test]
    fn matches_oracle_on_distinct_relations() {
        // Cyclic listing R(a,b)·S(b,c)·T(c,a) with free a,b,c.
        let [a, b, c] = vars(["mw_LA", "mw_LB", "mw_LC"]);
        let names = [sym("mw_LR"), sym("mw_LS"), sym("mw_LT")];
        let vo = Schema::from([a, b, c]);
        let schemas = [
            Schema::from([a, b]),
            Schema::from([b, c]),
            Schema::from([c, a]),
        ];
        let atoms: Vec<(Sym, Schema)> = names.into_iter().zip(schemas.clone()).collect();
        let mut st: MultiwayState<i64> =
            MultiwayState::new(&atoms, vo.clone(), vo.clone(), lift_one);
        let mut stats = DataflowStats::default();

        let mut rels: Vec<Relation<i64>> = schemas.into_iter().map(Relation::new).collect();
        let mut maintained = Relation::new(vo.clone());
        // Mixed batches, payload 2 on one edge, overlapping deltas.
        let batches: Vec<Vec<(usize, i64, i64, i64)>> = vec![
            vec![(0, 1, 2, 1), (1, 2, 3, 2), (2, 3, 1, 1)],
            vec![(0, 2, 2, 1), (1, 2, 2, 1), (2, 2, 2, 1), (0, 1, 2, 1)],
            vec![(1, 2, 3, -2), (2, 2, 2, -1)],
        ];
        for batch in batches {
            for &(i, x, y, m) in &batch {
                rels[i].apply(tup![x, y], &m);
            }
            let d = batch_of(batch.iter().map(|&(i, x, y, m)| (names[i], tup![x, y], m)));
            if let Some(out) = st.apply_batch(&d, &mut stats) {
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

    /// `g(v)`: an integer is itself, a string its length.
    fn lift_len(_: Sym, v: &Value) -> i64 {
        match v {
            Value::Int(i) => *i,
            Value::Str(s) => s.len() as i64,
        }
    }

    #[test]
    fn decodes_mixed_values_at_the_leaf() {
        // R(a,b)·S(b,c)·T(c,a) onto out = (b, a), summing g(c) = c or
        // len(c): output keys and lifts both read decoded values, a
        // string column `a`, an integer column `b`, and a `c` mixing both.
        let [a, b, c] = vars(["mw_VA", "mw_VB", "mw_VC"]);
        let names = [sym("mw_VR"), sym("mw_VS"), sym("mw_VT")];
        let vo = Schema::from([a, b, c]);
        let out = Schema::from([b, a]);
        let schemas = [
            Schema::from([a, b]),
            Schema::from([b, c]),
            Schema::from([c, a]),
        ];
        let atoms: Vec<(Sym, Schema)> = names.into_iter().zip(schemas.clone()).collect();
        let mut st: MultiwayState<i64> = MultiwayState::new(&atoms, vo, out.clone(), lift_len);
        let mut stats = DataflowStats::default();
        let mut rels: Vec<Relation<i64>> = schemas.iter().cloned().map(Relation::new).collect();
        let mut maintained = Relation::new(out.clone());
        let xyz = || Value::str("xyz");
        let batches: Vec<Vec<(usize, Tuple, i64)>> = vec![
            vec![
                (0, tup!["p", 1i64], 1),
                (0, tup!["q", 1i64], 1),
                (1, tup![1i64, 3i64], 1),
                (1, Tuple::new([Value::Int(1), xyz()]), 2),
                (2, tup![3i64, "p"], 1),
                (2, Tuple::new([xyz(), Value::str("p")]), 1),
                (2, Tuple::new([xyz(), Value::str("q")]), 1),
            ],
            vec![
                (0, tup!["p", 2i64], 1),
                (1, tup![2i64, 5i64], 1),
                (1, Tuple::new([Value::Int(2), xyz()]), 1),
                (2, tup![5i64, "p"], 3),
                (1, Tuple::new([Value::Int(1), xyz()]), -2),
            ],
            vec![(0, tup!["q", 1i64], -1), (2, tup![3i64, "p"], -1)],
        ];
        for batch in batches {
            for (i, t, m) in &batch {
                rels[*i].apply(t.clone(), m);
            }
            let d = batch_of(batch.into_iter().map(|(i, t, m)| (names[i], t, m)));
            if let Some(delta) = st.apply_batch(&d, &mut stats) {
                for (t, r) in delta.iter() {
                    maintained.apply(t.clone(), r);
                }
            }
            let expect = eval_join_aggregate(&[&rels[0], &rels[1], &rels[2]], &out, lift_len);
            assert!(!expect.is_empty());
            assert_eq!(maintained.len(), expect.len());
            for (t, p) in expect.iter() {
                assert_eq!(&maintained.get(t), p, "at {t:?}");
            }
        }
    }

    /// A sliding window over ever-fresh values: batch `k` inserts a
    /// triangle over three values never seen before (alternately integers
    /// and strings) plus an edge back to the previous batch's triangle,
    /// and deletes what batch `k − WINDOW` inserted. After every batch the
    /// listing matches the oracle, the dictionary holds exactly the
    /// distinct values of the resident tuples, and the id space stays at
    /// the window's values (and the one a back edge keeps alive) plus one
    /// batch's. With `hub`, the relation is
    /// read by two members through one [`StoreHub`] advanced by
    /// `advance_batch`.
    fn sliding_window_reclaims_ids(hub: bool) {
        const WINDOW: usize = 4;
        const FRESH: usize = 3;
        let e_sym = sym("mw_windowE");
        let (mut st, vo) = triangle_state(e_sym);
        let (mut peer, _) = triangle_state(e_sym);
        let store_hub: StoreHub<i64> = StoreHub::new();
        if hub {
            st.share_stores(&store_hub);
            assert_eq!(peer.share_stores(&store_hub), 1);
        }
        let (atoms, _) = triangle_atoms(e_sym);
        let mut rels: Vec<Relation<i64>> =
            atoms.into_iter().map(|(_, s)| Relation::new(s)).collect();
        let mut maintained = Relation::new(vo.clone());
        let value = |i: usize| match i % 2 {
            0 => Value::Int(i as i64),
            _ => Value::str(format!("v{i}")),
        };
        let mut inserted: Vec<Vec<Tuple>> = Vec::new();
        for k in 0..10 * WINDOW {
            let [p, q, r] = [0, 1, 2].map(|j| value(FRESH * k + j));
            let mut edges = vec![
                Tuple::new([p.clone(), q.clone()]),
                Tuple::new([q, r.clone()]),
                Tuple::new([r, p.clone()]),
            ];
            if k > 0 {
                edges.push(Tuple::new([p, value(FRESH * (k - 1))]));
            }
            let mut d = Relation::new(rels[0].schema().clone());
            for t in &edges {
                d.apply(t.clone(), &1);
            }
            if k >= WINDOW {
                for t in &inserted[k - WINDOW] {
                    d.apply(t.clone(), &-1);
                }
            }
            inserted.push(edges);
            for (t, m) in d.iter() {
                for rel in &mut rels {
                    rel.apply(t.clone(), m);
                }
            }
            let batch = batch_of(d.iter().map(|(t, m)| (e_sym, t.clone(), *m)));
            let got = st
                .apply_batch(&batch, &mut DataflowStats::default())
                .unwrap();
            if hub {
                let other = peer.apply_batch(&batch, &mut DataflowStats::default());
                let other = other.unwrap();
                assert_eq!(got.len(), other.len(), "members disagree");
                for (t, r) in got.iter() {
                    assert_eq!(&other.get(t), r, "members disagree at {t:?}");
                }
                store_hub.advance_batch(&batch);
            }
            for (t, r) in got.iter() {
                maintained.apply(t.clone(), r);
            }
            let expect = eval_join_aggregate(&[&rels[0], &rels[1], &rels[2]], &vo, lift_one);
            assert_eq!(maintained.len(), expect.len(), "batch {k}");
            for (t, p) in expect.iter() {
                assert_eq!(&maintained.get(t), p, "batch {k} at {t:?}");
            }
            let resident: FxHashSet<&Value> =
                rels[0].iter().flat_map(|(t, _)| t.values()).collect();
            let dict = relock(&st.dict);
            assert_eq!(dict.live(), resident.len(), "batch {k}: live ids");
            assert!(
                dict.capacity() <= FRESH * (WINDOW + 1) + 1,
                "batch {k}: {} ids assigned, freed ids are not reused",
                dict.capacity()
            );
        }
        assert_eq!(st.stored_tuples(), rels[0].len());
    }

    #[test]
    fn ids_are_reclaimed_on_owned_stores() {
        sliding_window_reclaims_ids(false);
    }

    #[test]
    fn ids_are_reclaimed_through_a_hub() {
        sliding_window_reclaims_ids(true);
    }

    /// A preload into empty owned stores takes the delta stores whole
    /// rather than re-inserting their tuples; the adopted tuples must then
    /// hold their ids exactly as inserted ones would. Retracting the base
    /// batch by batch keeps every view equal to the oracle, and once the
    /// last tuple is gone no id is live.
    #[test]
    fn adopted_preload_retracts_to_no_live_ids() {
        let [a, b, c] = vars(["mw_PA", "mw_PB", "mw_PC"]);
        let names = [sym("mw_PR"), sym("mw_PS"), sym("mw_PT")];
        let vo = Schema::from([a, b, c]);
        let out = Schema::from([a]);
        let schemas = [
            Schema::from([a, b]),
            Schema::from([b, c]),
            Schema::from([c, a]),
        ];
        let atoms: Vec<(Sym, Schema)> = names.into_iter().zip(schemas.clone()).collect();
        let mut st: MultiwayState<i64> = MultiwayState::new(&atoms, vo, out.clone(), lift_one);
        let mut rels: Vec<Relation<i64>> = schemas.into_iter().map(Relation::new).collect();
        let value = |i: u64| match i % 3 {
            0 => Value::str(format!("n{i}")),
            _ => Value::Int(i as i64),
        };
        let mut base: Vec<(usize, Tuple)> = Vec::new();
        let mut x = 7u64;
        while base.len() < 60 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let row = (
                (x >> 60) as usize % 3,
                Tuple::new([value(x >> 33 & 7), value(x >> 13 & 7)]),
            );
            if !base.contains(&row) {
                base.push(row);
            }
        }
        let mut maintained = Relation::new(out.clone());
        let mut stats = DataflowStats::default();
        let mut step = |st: &mut MultiwayState<i64>, rows: &[(usize, Tuple)], m: i64| {
            for (i, t) in rows {
                rels[*i].apply(t.clone(), &m);
            }
            let d = batch_of(rows.iter().map(|(i, t)| (names[*i], t.clone(), m)));
            if let Some(delta) = st.apply_batch(&d, &mut stats) {
                for (t, r) in delta.iter() {
                    maintained.apply(t.clone(), r);
                }
            }
            let expect = eval_join_aggregate(&[&rels[0], &rels[1], &rels[2]], &out, lift_one);
            assert_eq!(maintained.len(), expect.len());
            for (t, p) in expect.iter() {
                assert_eq!(&maintained.get(t), p, "at {t:?}");
            }
            maintained.len()
        };
        assert!(step(&mut st, &base, 1) > 0, "the preload closes triangles");
        assert_eq!(st.stored_tuples(), base.len());
        for rows in base.chunks(7) {
            step(&mut st, rows, -1);
        }
        assert_eq!(st.stored_tuples(), 0);
        assert_eq!(relock(&st.dict).live(), 0, "every adopted id is released");
    }

    /// Whether `q`'s atoms form one component of the shares-a-variable
    /// graph.
    fn connected(q: &Query) -> bool {
        let mut reached = vec![false; q.atoms.len()];
        let mut frontier = vec![0];
        reached[0] = true;
        while let Some(i) = frontier.pop() {
            for (j, atom) in q.atoms.iter().enumerate() {
                if !reached[j] && atom.schema.intersect(&q.atoms[i].schema).arity() > 0 {
                    reached[j] = true;
                    frontier.push(j);
                }
            }
        }
        reached.into_iter().all(|r| r)
    }

    /// On a connected query every step of every seed plan is keyed by the
    /// binding so far: some constraint of the step has a bound column, so
    /// no step enumerates a whole column (a Cartesian step).
    #[test]
    fn connected_queries_seed_no_cartesian_step() {
        let [a, b, c, d, e] = vars(["mw_CA", "mw_CB", "mw_CC", "mw_CD", "mw_CE"]);
        let chain4 = Query::new(
            "mw_chain4",
            [],
            vec![
                ivm_query::Atom::new(sym("mw_CR"), [a, b]),
                ivm_query::Atom::new(sym("mw_CS"), [b, c]),
                ivm_query::Atom::new(sym("mw_CT"), [c, d]),
                ivm_query::Atom::new(sym("mw_CU"), [d, e]),
            ],
        );
        let mut queries = vec![
            chain4,
            examples::triangle_count(),
            examples::triangle_detect_cqap(),
            examples::edge_triangle_listing_cqap(),
            examples::lookup_cqap(),
            examples::fig3_query(),
            examples::ex43_non_hierarchical(),
            examples::ex51_query(),
            examples::ex45_pair().0,
            examples::ex45_pair().1,
            examples::ex412_query().0,
            examples::ex414_query(),
            examples::retailer_query().0,
            examples::job_pkfk_query(),
            examples::path3_query(),
        ];
        queries.extend(ivm_query::tpch::tpch_queries().into_iter().map(|(_, q)| q));
        let mut checked = 0;
        for q in queries.iter().filter(|q| connected(q)) {
            let atoms: Vec<(Sym, Schema)> =
                q.atoms.iter().map(|a| (a.name, a.schema.clone())).collect();
            let order = variable_order(q, &Cardinalities::none());
            let st = MultiwayState::<i64>::new(&atoms, order, q.free.clone(), lift_one);
            for (seed, plan) in st.plans.iter().enumerate() {
                for step in &plan.steps {
                    assert!(
                        step.constraints.iter().any(|c| !c.key_pos.is_empty()),
                        "{:?} seeded from atom {seed}: a Cartesian step",
                        q.name
                    );
                }
            }
            checked += 1;
        }
        assert!(checked >= 20, "only {checked} connected queries checked");
    }

    #[test]
    #[should_panic(expected = "bounded by 2^32 resident tuples sharing one key and value")]
    fn candidate_support_overflow_panics() {
        let mut c = Candidates::one(7);
        if let Candidates::Flat(run) = &mut c {
            run[0].1 = u32::MAX;
        }
        c.add(7);
    }

    #[test]
    fn hub_shared_store_stays_oracle_correct() {
        // Two independent triangle states over the same edge relation,
        // joined through one hub: both must see identical deltas on every
        // batch, the hub must hold the relation's tuples exactly once,
        // and the second join must report a dedup hit.
        let e_sym = sym("mw_hubE");
        let (mut st1, _) = triangle_state(e_sym);
        let (mut st2, _) = triangle_state(e_sym);
        let hub: StoreHub<i64> = StoreHub::new();
        assert_eq!(st1.share_stores(&hub), 0, "first join donates");
        assert_eq!(st2.share_stores(&hub), 1, "second join adopts");
        assert_eq!(hub.relations(), vec![e_sym]);

        let mut stats = DataflowStats::default();
        let batches: Vec<Vec<(i64, i64, i64)>> = vec![
            vec![(1, 2, 1), (2, 3, 1), (3, 1, 1), (1, 9, 1)],
            vec![(4, 5, 1), (5, 4, 1), (4, 4, 1)],
            vec![(2, 3, -1), (1, 9, -1)],
        ];
        for edges in batches {
            let d = edge_batch(e_sym, &edges);
            let o1 = st1.apply_batch(&d, &mut stats).unwrap();
            let o2 = st2.apply_batch(&d, &mut stats).unwrap();
            assert_eq!(o1.len(), o2.len());
            for (t, r) in o1.iter() {
                assert_eq!(&o2.get(t), r, "members disagree at {t:?}");
            }
            // Neither member advanced the shared slot in-engine...
            assert_eq!(st1.stored_tuples(), st2.stored_tuples());
            assert_eq!(st1.owned_tuples(), 0, "shared slot is not owned");
            // ...the coordinator advances it once per epoch.
            hub.advance_batch(&d);
        }
        // Post-stream: edges {12,23,31,19,45,54,44} minus {23,19} = 5
        // tuples, resident once in the hub, visible from both members.
        assert_eq!(hub.stored_tuples(), 5);
        assert_eq!(st1.stored_tuples(), 5);
        assert_eq!(st2.stored_tuples(), 5);
    }

    #[test]
    fn sharing_a_slot_twice_changes_nothing() {
        let e_sym = sym("mw_twiceE");
        let mut st = triangle_count_state(e_sym);
        let hub: StoreHub<i64> = StoreHub::new();
        let mut stats = DataflowStats::default();
        assert_eq!(st.share_stores(&hub), 0, "first join donates");
        let d = edge_batch(e_sym, &[(1, 2, 1), (2, 3, 1), (3, 1, 1), (3, 4, 1)]);
        assert_eq!(st.apply_batch(&d, &mut stats).unwrap().total(), 3);
        hub.advance_batch(&d);
        let live = relock(&st.dict).live();
        // The second call gets the node's own store back from the hub.
        assert_eq!(st.share_stores(&hub), 1);
        assert_eq!(hub.stored_tuples(), 4);
        assert_eq!(relock(&st.dict).live(), live);
        // A second triangle, 1 → 2 → 4 → 1, closes over a resident edge.
        let d = edge_batch(e_sym, &[(2, 4, 1), (4, 1, 1)]);
        assert_eq!(st.apply_batch(&d, &mut stats).unwrap().total(), 3);
    }

    /// A fixed 40-update stream over 7 nodes: 16 inserts, then six batches
    /// of three inserts and one delete. Returns the counters of the six
    /// steady-state batches and the summed output payloads.
    fn pinned_stream_counters() -> (DataflowStats, i64) {
        let e = sym("mw_pinE");
        let mut st = triangle_count_state(e);
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
        st.apply_batch(&edge_batch(e, &first), &mut stats).unwrap();
        let after_first = stats;
        let mut total = 0;
        for k in 0..6 {
            let mut batch: Vec<(i64, i64, i64)> = edges[16 + 3 * k..19 + 3 * k]
                .iter()
                .map(|&(a, b)| (a, b, 1))
                .collect();
            batch.push((edges[k].0, edges[k].1, -1));
            total += st
                .apply_batch(&edge_batch(e, &batch), &mut stats)
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
        let (mut m1, _) = triangle_state(e_sym);
        let (mut m2, _) = triangle_state(e_sym);
        let (mut alone, _) = triangle_state(e_sym);
        let hub: StoreHub<i64> = StoreHub::new();
        m1.share_stores(&hub);
        m2.share_stores(&hub);
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
            let d = edge_batch(e_sym, edges);
            let expect = alone.apply_batch(&d, &mut stats).unwrap();
            for member in [&mut m1, &mut m2] {
                let got = member.apply_batch(&d, &mut stats).unwrap();
                assert_eq!(got.len(), expect.len(), "batch {i}");
                for (t, r) in expect.iter() {
                    assert_eq!(&got.get(t), r, "batch {i} at {t:?}");
                }
            }
            hub.advance_batch(&d);
            assert_eq!(hub.stored_tuples(), alone.stored_tuples(), "batch {i}");
        }
    }

    #[test]
    fn empty_batch_is_noop() {
        let e = sym("mw_emptyE");
        let (mut st, _) = triangle_state(e);
        let mut stats = DataflowStats::default();
        assert!(st.apply_batch(&DeltaBatch::new(), &mut stats).is_none());
        // A batch touching only relations the node does not read, too.
        let other = edge_batch(sym("mw_otherE"), &[(1, 2, 1)]);
        assert!(st.apply_batch(&other, &mut stats).is_none());
        assert_eq!(stats.multiway_seeds, 0);
    }

    #[test]
    fn seed_covering_all_variables_short_circuits() {
        // Q(a,b) = R(a,b)·R(a,b): the second occurrence is fully bound by
        // the seed, exercising the at_seed presence probe.
        let [a, b] = vars(["mw_DA", "mw_DB"]);
        let r = sym("mw_DR");
        let vo = Schema::from([a, b]);
        let atoms = vec![(r, vo.clone()), (r, vo.clone())];
        let mut st: MultiwayState<i64> = MultiwayState::new(&atoms, vo.clone(), vo, lift_one);
        let mut stats = DataflowStats::default();
        let out = st
            .apply_batch(&edge_batch(r, &[(1, 2, 3)]), &mut stats)
            .unwrap();
        // (R+δ)² − R² with R = 0: payload 9.
        assert_eq!(out.get(&tup![1i64, 2i64]), 9);
    }
}
