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
//! variable — iterate the smallest candidate set, hash-probe the rest. No
//! intermediate relation is ever materialized; only final join outputs are
//! emitted.
//!
//! # Index structure
//!
//! Each distinct dataflow input (≈ base relation) owns one `Store`: the
//! tuple→payload map plus a pool of `PatternIndex`es, the hash-trie
//! analogue of leapfrog's sorted tries. A pattern `(key_pos, val_pos)`
//! maps an assignment of the key columns to the set of values the `val`
//! column can take (with support counts, so deletions retract candidates).
//! Patterns are built lazily on first use and maintained incrementally
//! afterwards; because the pool lives on the *store*, atoms over the same
//! relation — the three occurrences of `E` in the self-join triangle —
//! share physical indexes instead of keeping three copies.
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
//! probe per-batch delta stores, the rest probe the old shared stores.
//! Old stores advance only after all terms, so the old/new discipline needs
//! no sequencing and self-joins need no per-occurrence state.

use crate::batch::DeltaBatch;
use crate::graph::DataflowStats;
use ivm_data::{FxHashMap, Relation, Schema, Sym, Tuple, Value};
use ivm_ring::Semiring;
use std::sync::{Arc, Mutex, MutexGuard};

/// Recover from a poisoned store lock: the store's invariants are
/// maintained tuple-at-a-time (no multi-step critical sections), so the
/// data is coherent even if a peer engine panicked mid-batch elsewhere.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A hash-trie level: for one access pattern `(key columns → value
/// column)`, the values reachable under each key assignment, with the
/// number of supporting tuples so cancellations retract candidates.
struct PatternIndex {
    key_pos: Box<[usize]>,
    val_pos: usize,
    map: FxHashMap<Tuple, FxHashMap<Value, u32>>,
}

impl PatternIndex {
    fn new(key_pos: Box<[usize]>, val_pos: usize) -> Self {
        PatternIndex {
            key_pos,
            val_pos,
            map: FxHashMap::default(),
        }
    }

    /// Record one present tuple.
    fn add(&mut self, t: &Tuple) {
        let key = t.project(&self.key_pos);
        *self
            .map
            .entry(key)
            .or_default()
            .entry(t.at(self.val_pos).clone())
            .or_insert(0) += 1;
    }

    /// Retract one no-longer-present tuple.
    fn remove(&mut self, t: &Tuple) {
        let key = t.project(&self.key_pos);
        let Some(vals) = self.map.get_mut(&key) else {
            return;
        };
        if let Some(c) = vals.get_mut(t.at(self.val_pos)) {
            *c -= 1;
            if *c == 0 {
                vals.remove(t.at(self.val_pos));
            }
        }
        if vals.is_empty() {
            self.map.remove(&key);
        }
    }

    /// The candidate values under `key`, if any.
    fn candidates(&self, key: &Tuple) -> Option<&FxHashMap<Value, u32>> {
        self.map.get(key)
    }
}

/// One input's shared state: payloads plus the lazily grown index pool.
struct Store<R> {
    tuples: FxHashMap<Tuple, R>,
    indexes: FxHashMap<(Box<[usize]>, usize), PatternIndex>,
}

impl<R: Semiring> Store<R> {
    fn new() -> Self {
        Store {
            tuples: FxHashMap::default(),
            indexes: FxHashMap::default(),
        }
    }

    /// Build a per-batch store over a consolidated delta relation.
    fn from_delta(delta: &Relation<R>) -> Self {
        let mut s = Store::new();
        for (t, r) in delta.iter() {
            s.tuples.insert(t.clone(), r.clone());
        }
        s
    }

    /// Apply one delta tuple, keeping every built index in sync with the
    /// present (non-zero payload) tuple set.
    fn apply(&mut self, t: &Tuple, delta: &R) {
        if delta.is_zero() {
            return;
        }
        match self.tuples.entry(t.clone()) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().add_assign(delta);
                if e.get().is_zero() {
                    e.remove();
                    for idx in self.indexes.values_mut() {
                        idx.remove(t);
                    }
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(delta.clone());
                for idx in self.indexes.values_mut() {
                    idx.add(t);
                }
            }
        }
    }

    /// Make sure the pattern `(key_pos → val_pos)` exists, building it from
    /// the current tuples on first request (O(|R|), amortized across the
    /// store's lifetime).
    fn ensure_index(&mut self, key_pos: &[usize], val_pos: usize) {
        let key = (Box::from(key_pos), val_pos);
        if self.indexes.contains_key(&key) {
            return;
        }
        let mut idx = PatternIndex::new(Box::from(key_pos), val_pos);
        for t in self.tuples.keys() {
            idx.add(t);
        }
        self.indexes.insert(key, idx);
    }

    /// The pattern index (must have been [`Self::ensure_index`]'d).
    fn index(&self, key_pos: &[usize], val_pos: usize) -> &PatternIndex {
        self.indexes
            .get(&(Box::from(key_pos), val_pos))
            .expect("pattern index must be ensured before the search")
    }
}

/// One atom occurrence: which input it reads and how its columns map onto
/// the global variable order.
struct AtomSpec {
    /// Index into the node's inputs (and the store pool).
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
    var_order: Schema,
    /// Per-input stores. Behind `Arc<Mutex<_>>` so a [`StoreHub`] can
    /// alias a slot across engines; a slot is uncontended (and the lock
    /// uncontested) unless it was [`Self::share_slot`]'d.
    stores: Vec<SharedStore<R>>,
    /// `shared[slot]` ⇒ the slot belongs to a hub and is advanced by the
    /// coordinator, not by [`Self::apply`].
    shared: Vec<bool>,
    plans: Vec<SeedPlan>,
}

impl<R: Semiring> MultiwayState<R> {
    /// Build the node state. `atoms` pairs each occurrence's input slot
    /// with its schema; `n_inputs` is the number of distinct inputs;
    /// `var_order` must cover every atom variable.
    pub(crate) fn new(atoms: &[(usize, Schema)], n_inputs: usize, var_order: Schema) -> Self {
        assert!(!atoms.is_empty(), "multiway join needs at least one atom");
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
        let plans = (0..specs.len())
            .map(|s| Self::build_plan(&specs, &var_order, s))
            .collect();
        MultiwayState {
            atoms: specs,
            var_order,
            stores: (0..n_inputs)
                .map(|_| Arc::new(Mutex::new(Store::new())))
                .collect(),
            shared: vec![false; n_inputs],
            plans,
        }
    }

    /// Swap input `slot`'s store for the hub's shared store of
    /// `relation` (donating ours if the hub has none yet), and mark the
    /// slot coordinator-advanced. Returns `true` on a dedup hit — an
    /// earlier engine's store was adopted.
    pub(crate) fn share_slot(&mut self, slot: usize, relation: Sym, hub: &StoreHub<R>) -> bool {
        let (store, existing) = hub.join(relation, Arc::clone(&self.stores[slot]));
        self.stores[slot] = store;
        self.shared[slot] = true;
        existing
    }

    fn build_plan(specs: &[AtomSpec], var_order: &Schema, seed: usize) -> SeedPlan {
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
                constraints.push(Constraint {
                    atom: j,
                    key_pos: key_pos.into(),
                    val_pos,
                    key_g: key_g.into(),
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
            steps.push(Step {
                var_g: g,
                constraints,
                completed,
            });
        }
        SeedPlan { at_seed, steps }
    }

    /// Number of atom occurrences this node joins.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Number of pattern indexes currently built on each input's store —
    /// exposed so tests can assert that self-join occurrences share
    /// indexes instead of duplicating them.
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
    /// see [`StoreHub`]). Returns the output delta over `var_order`.
    pub(crate) fn apply(
        &mut self,
        input_deltas: &[Option<&Relation<R>>],
        stats: &mut DataflowStats,
    ) -> Option<Relation<R>> {
        assert_eq!(input_deltas.len(), self.stores.len(), "one delta per input");
        if input_deltas.iter().all(|d| d.is_none()) {
            return None;
        }
        let delta_stores: Vec<Option<Store<R>>> = input_deltas
            .iter()
            .map(|d| d.map(Store::from_delta))
            .collect();
        // Atoms whose input changed this batch, in atom order. The term
        // enumeration below is a u64 subset mask (and exponential in this
        // count regardless), mirroring `Query::atoms_of`'s 64-atom cap.
        let d_atoms: Vec<usize> = (0..self.atoms.len())
            .filter(|&j| delta_stores[self.atoms[j].input].is_some())
            .collect();
        assert!(
            d_atoms.len() < 64,
            "more than 63 simultaneously updated atom occurrences unsupported"
        );

        // Lock every input slot once for the whole batch. With no hub
        // the locks are uncontended; with a hub this serializes member
        // engines per store, which the coordinator drives sequentially
        // anyway.
        let mut guards: Vec<MutexGuard<'_, Store<R>>> =
            self.stores.iter().map(|s| relock(s)).collect();

        // Ensure every pattern any term can probe, old and delta side,
        // before the search holds shared references into the stores.
        let mut delta_stores = delta_stores;
        for &seed in &d_atoms {
            for step in &self.plans[seed].steps {
                for c in &step.constraints {
                    let input = self.atoms[c.atom].input;
                    guards[input].ensure_index(&c.key_pos, c.val_pos);
                    if let Some(ds) = delta_stores[input].as_mut() {
                        ds.ensure_index(&c.key_pos, c.val_pos);
                    }
                }
            }
        }

        let mut out = Relation::new(self.var_order.clone());
        let mut binding: Vec<Option<Value>> = vec![None; self.var_order.arity()];
        {
            let old: Vec<&Store<R>> = guards.iter().map(|g| &**g).collect();
            for mask in 1u64..(1 << d_atoms.len()) {
                let in_s: Vec<usize> = (0..d_atoms.len())
                    .filter(|&k| mask & (1 << k) != 0)
                    .map(|k| d_atoms[k])
                    .collect();
                // Per-term store selection: S-atoms read the batch delta,
                // everyone else reads the old shared store.
                let sel: Vec<&Store<R>> = self
                    .atoms
                    .iter()
                    .enumerate()
                    .map(|(j, spec)| {
                        if in_s.contains(&j) {
                            delta_stores[spec.input]
                                .as_ref()
                                .expect("S-atoms have a delta")
                        } else {
                            old[spec.input]
                        }
                    })
                    .collect();
                run_term(
                    &self.atoms,
                    &self.plans,
                    &in_s,
                    &sel,
                    &mut binding,
                    &mut out,
                    stats,
                );
            }
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

/// Assemble an atom's full tuple from the (fully covering) binding.
fn atom_tuple(spec: &AtomSpec, binding: &[Option<Value>]) -> Tuple {
    spec.gpos
        .iter()
        .map(|&g| binding[g].clone().expect("atom variable bound"))
        .collect()
}

/// One inclusion–exclusion term: seed from the first S-atom's delta
/// tuples, then run the intersection search over the remaining variables.
fn run_term<R: Semiring>(
    atoms: &[AtomSpec],
    plans: &[SeedPlan],
    in_s: &[usize],
    sel: &[&Store<R>],
    binding: &mut [Option<Value>],
    out: &mut Relation<R>,
    stats: &mut DataflowStats,
) {
    let seed = in_s[0];
    let plan = &plans[seed];
    // Resolve every step's pattern indexes once per term — the stores are
    // immutable for the whole search, so the inner loops skip the pool
    // lookup (and its boxed-key allocation) entirely.
    let step_indexes: Vec<Vec<&PatternIndex>> = plan
        .steps
        .iter()
        .map(|step| {
            step.constraints
                .iter()
                .map(|c| sel[c.atom].index(&c.key_pos, c.val_pos))
                .collect()
        })
        .collect();
    for (t, r) in sel[seed].tuples.iter() {
        stats.multiway_seeds += 1;
        for (c, &g) in atoms[seed].gpos.iter().enumerate() {
            binding[g] = Some(t.at(c).clone());
        }
        let mut acc = r.clone();
        let mut alive = true;
        for &j in &plan.at_seed {
            stats.multiway_probes += 1;
            match sel[j].tuples.get(&atom_tuple(&atoms[j], binding)) {
                Some(p) => acc = acc.times(p),
                None => {
                    alive = false;
                    break;
                }
            }
        }
        if alive && !acc.is_zero() {
            search(atoms, plan, &step_indexes, 0, sel, binding, acc, out, stats);
        }
    }
}

/// Extend the binding by the variable of step `step_i`: intersect the
/// candidate sets of every constraining atom (iterate the smallest, probe
/// the rest), fold completed atoms' payloads, recurse.
#[allow(clippy::too_many_arguments)]
fn search<R: Semiring>(
    atoms: &[AtomSpec],
    plan: &SeedPlan,
    step_indexes: &[Vec<&PatternIndex>],
    step_i: usize,
    sel: &[&Store<R>],
    binding: &mut [Option<Value>],
    acc: R,
    out: &mut Relation<R>,
    stats: &mut DataflowStats,
) {
    let Some(step) = plan.steps.get(step_i) else {
        let tuple: Tuple = binding
            .iter()
            .map(|v| v.clone().expect("all variables bound at a leaf"))
            .collect();
        out.apply(tuple, &acc);
        return;
    };
    let mut maps: Vec<&FxHashMap<Value, u32>> = Vec::with_capacity(step.constraints.len());
    for (c, idx) in step.constraints.iter().zip(&step_indexes[step_i]) {
        stats.multiway_probes += 1;
        let key: Tuple = c
            .key_g
            .iter()
            .map(|&g| binding[g].clone().expect("key variable bound"))
            .collect();
        match idx.candidates(&key) {
            Some(m) => maps.push(m),
            None => return,
        }
    }
    let smallest = maps
        .iter()
        .enumerate()
        .min_by_key(|(_, m)| m.len())
        .map(|(i, _)| i)
        .expect("at least one constraint per step");
    'vals: for val in maps[smallest].keys() {
        stats.multiway_intersections += 1;
        for (i, m) in maps.iter().enumerate() {
            if i == smallest {
                continue;
            }
            stats.multiway_probes += 1;
            if !m.contains_key(val) {
                continue 'vals;
            }
        }
        binding[step.var_g] = Some(val.clone());
        let mut acc2 = acc.clone();
        let mut alive = true;
        for &j in &step.completed {
            stats.multiway_probes += 1;
            match sel[j].tuples.get(&atom_tuple(&atoms[j], binding)) {
                Some(p) => acc2 = acc2.times(p),
                None => {
                    alive = false;
                    break;
                }
            }
        }
        if alive && !acc2.is_zero() {
            search(
                atoms,
                plan,
                step_indexes,
                step_i + 1,
                sel,
                binding,
                acc2,
                out,
                stats,
            );
        }
    }
    binding[step.var_g] = None;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::ops::{eval_join_aggregate, lift_one};
    use ivm_data::{sym, tup, vars};

    /// Triangle over one shared input: E(a,b), E(b,c), E(c,a).
    fn triangle_state() -> (MultiwayState<i64>, Schema) {
        let [a, b, c] = vars(["mw_A", "mw_B", "mw_C"]);
        let vo = Schema::from([a, b, c]);
        let atoms = vec![
            (0usize, Schema::from([a, b])),
            (0, Schema::from([b, c])),
            (0, Schema::from([c, a])),
        ];
        (MultiwayState::new(&atoms, 1, vo.clone()), vo)
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
        let (mut st, _) = triangle_state();
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
        let mut st: MultiwayState<i64> = MultiwayState::new(&atoms, 3, vo.clone());
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
        let mut st: MultiwayState<i64> = MultiwayState::new(&atoms, 1, vo);
        let mut stats = DataflowStats::default();
        let d = edge_delta(&[(1, 2, 3)]);
        let out = st.apply(&[Some(&d)], &mut stats).unwrap();
        // (R+δ)² − R² with R = 0: payload 9.
        assert_eq!(out.get(&tup![1i64, 2i64]), 9);
        let _ = sym("mw_unused");
    }
}
