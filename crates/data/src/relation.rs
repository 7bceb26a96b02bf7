//! Ring relations and grouped projection indexes.

use crate::hash::FxHashMap;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use ivm_ring::Semiring;
use std::fmt;

/// What a single-tuple update did to its tuple's *presence* — the
/// transition degree counts and relation sizes are maintained from
/// ([`Relation::apply`] reports it; a payload change that leaves the tuple
/// present, or absent, is [`Presence::Unchanged`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Presence {
    /// The tuple was absent and is now present: `|R|` grew by one.
    Appeared,
    /// The tuple's payload cancelled to zero: `|R|` shrank by one.
    Vanished,
    /// Present before and after, or absent before and after.
    Unchanged,
}

/// A relation over a schema and a ring: a finite map from tuples to
/// non-zero payloads (Sec. 2 of the paper).
///
/// Tuples mapped to zero are pruned eagerly, so [`Relation::len`] is the
/// paper's `|R|` — the number of present tuples. Lookup, insert, and delete
/// are amortized O(1); iteration has constant delay.
#[derive(Clone)]
pub struct Relation<R> {
    schema: Schema,
    data: FxHashMap<Tuple, R>,
}

impl<R: Semiring> Relation<R> {
    /// An empty relation over `schema`.
    pub fn new(schema: Schema) -> Self {
        Relation {
            schema,
            data: FxHashMap::default(),
        }
    }

    /// Build from rows, merging duplicate keys with ring addition.
    pub fn from_rows(schema: Schema, rows: impl IntoIterator<Item = (Tuple, R)>) -> Self {
        let mut rel = Relation::new(schema);
        for (t, r) in rows {
            rel.apply(t, &r);
        }
        rel
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples with non-zero payload (`|R|`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The payload of `t` (zero when absent).
    pub fn get(&self, t: &Tuple) -> R {
        self.data.get(t).cloned().unwrap_or_else(R::zero)
    }

    /// The stored payload of `t`, if present.
    pub fn payload(&self, t: &Tuple) -> Option<&R> {
        self.data.get(t)
    }

    /// Whether `t` is present (non-zero payload).
    pub fn contains(&self, t: &Tuple) -> bool {
        self.data.contains_key(t)
    }

    /// Apply a single-tuple update: add `delta` to `t`'s payload, pruning
    /// on cancellation to zero. This is the `R := R ⊎ δR` of the paper for a
    /// singleton delta. Amortized O(1). Returns what the update did to
    /// `t`'s presence.
    pub fn apply(&mut self, t: Tuple, delta: &R) -> Presence {
        debug_assert_eq!(t.arity(), self.schema.arity(), "tuple arity mismatch");
        if delta.is_zero() {
            return Presence::Unchanged;
        }
        match self.data.entry(t) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().add_assign(delta);
                if e.get().is_zero() {
                    e.remove();
                    Presence::Vanished
                } else {
                    Presence::Unchanged
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(delta.clone());
                Presence::Appeared
            }
        }
    }

    /// [`Self::apply`] under a key assembled in a caller-kept buffer: the
    /// lookup borrows `key`, and only a new key is moved into the relation
    /// (leaving `key` empty for the caller to refill). Accumulating many
    /// contributions onto few keys thus allocates per key, not per
    /// contribution, and a new key's values are never cloned.
    pub fn apply_buffered(&mut self, key: &mut Vec<Value>, delta: R) -> Presence {
        debug_assert_eq!(key.len(), self.schema.arity(), "tuple arity mismatch");
        if delta.is_zero() {
            return Presence::Unchanged;
        }
        match self.data.get_mut(key.as_slice()) {
            Some(p) => {
                p.add_assign(&delta);
                if !p.is_zero() {
                    return Presence::Unchanged;
                }
                self.data.remove(key.as_slice());
                Presence::Vanished
            }
            None => {
                self.data.insert(Tuple::new(std::mem::take(key)), delta);
                Presence::Appeared
            }
        }
    }

    /// Insert one derivation of `t` (payload `+1`).
    pub fn insert(&mut self, t: Tuple) {
        self.apply(t, &R::one());
    }

    /// Iterate `(tuple, payload)` entries with constant delay.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &R)> {
        self.data.iter()
    }

    /// Sum of all payloads — the full aggregation `Σ_all R`.
    pub fn total(&self) -> R {
        let mut acc = R::zero();
        for r in self.data.values() {
            acc.add_assign(r);
        }
        acc
    }
}

impl<R: Semiring> fmt::Debug for Relation<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Relation{:?} {{", self.schema)?;
        let mut rows: Vec<_> = self.data.iter().collect();
        rows.sort_by(|a, b| a.0.cmp(b.0));
        for (t, r) in rows {
            writeln!(f, "  {t:?} ↦ {r:?}")?;
        }
        write!(f, "}}")
    }
}

/// One group of a [`GroupedIndex`]: the tuples agreeing on the group key.
#[derive(Clone, Debug)]
pub struct Group<R> {
    total: R,
    entries: FxHashMap<Tuple, R>,
}

impl<R: Semiring> Group<R> {
    fn new() -> Self {
        Group {
            total: R::zero(),
            entries: FxHashMap::default(),
        }
    }

    /// Σ of the group's payloads — an O(1) marginal lookup.
    pub fn total(&self) -> &R {
        &self.total
    }

    /// Number of distinct residual tuples in the group (the paper's
    /// degree `|σ_{key=k} R|`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the group holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Payload of a residual tuple within the group (zero if absent).
    pub fn get(&self, residual: &Tuple) -> R {
        self.entries.get(residual).cloned().unwrap_or_else(R::zero)
    }

    /// Constant-delay iteration over `(residual, payload)`.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &R)> {
        self.entries.iter()
    }
}

/// A projection index over a relation: for a key schema `K ⊆ S`, maps each
/// `K`-tuple to the group of tuples agreeing on it.
///
/// This is the index structure the paper assumes (Sec. 2): amortized O(1)
/// single-tuple maintenance, O(1) group lookup with an O(1) marginal
/// ([`Group::total`]), and constant-delay enumeration within a group.
#[derive(Clone)]
pub struct GroupedIndex<R> {
    schema: Schema,
    key: Schema,
    key_pos: Vec<usize>,
    residual_pos: Vec<usize>,
    groups: FxHashMap<Tuple, Group<R>>,
}

impl<R: Semiring> GroupedIndex<R> {
    /// An empty index over `schema`, grouped by `key ⊆ schema`.
    pub fn new(schema: Schema, key: Schema) -> Self {
        assert!(
            key.subset_of(&schema),
            "index key {key:?} must be a subset of schema {schema:?}"
        );
        let key_pos = schema.positions_of(&key);
        let residual = schema.difference(&key);
        let residual_pos = schema.positions_of(&residual);
        GroupedIndex {
            schema,
            key,
            key_pos,
            residual_pos,
            groups: FxHashMap::default(),
        }
    }

    /// Build an index over an existing relation.
    pub fn from_relation(rel: &Relation<R>, key: Schema) -> Self {
        let mut idx = GroupedIndex::new(rel.schema().clone(), key);
        for (t, r) in rel.iter() {
            idx.apply(t, r);
        }
        idx
    }

    /// The full schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The group-by key schema.
    pub fn key(&self) -> &Schema {
        &self.key
    }

    /// The residual schema (full minus key, in schema order).
    pub fn residual_schema(&self) -> Schema {
        self.schema.difference(&self.key)
    }

    /// Number of non-empty groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total tuples indexed across all groups. O(#groups) — meant for
    /// memory censuses, not hot paths.
    pub fn tuple_count(&self) -> usize {
        self.groups.values().map(|g| g.len()).sum()
    }

    /// Apply a single-tuple delta. Amortized O(1).
    pub fn apply(&mut self, t: &Tuple, delta: &R) {
        if delta.is_zero() {
            return;
        }
        let key = t.project(&self.key_pos);
        let residual = t.project(&self.residual_pos);
        let group = self.groups.entry(key.clone()).or_insert_with(Group::new);
        group.total.add_assign(delta);
        match group.entries.entry(residual) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().add_assign(delta);
                if e.get().is_zero() {
                    e.remove();
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(delta.clone());
            }
        }
        if group.entries.is_empty() {
            self.groups.remove(&key);
        }
    }

    /// The group for a key tuple, if non-empty. O(1).
    pub fn group(&self, key: &Tuple) -> Option<&Group<R>> {
        self.groups.get(key)
    }

    /// The marginal `Σ_{residual}` payload for a key (zero if absent). O(1).
    pub fn marginal(&self, key: &Tuple) -> R {
        self.groups
            .get(key)
            .map(|g| g.total.clone())
            .unwrap_or_else(R::zero)
    }

    /// Constant-delay iteration over `(key, group)` pairs.
    pub fn iter_groups(&self) -> impl Iterator<Item = (&Tuple, &Group<R>)> {
        self.groups.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::vars;
    use crate::tup;

    fn ab() -> Schema {
        let [a, b] = vars(["rel_a", "rel_b"]);
        Schema::from([a, b])
    }

    #[test]
    fn apply_merges_and_prunes() {
        let mut r: Relation<i64> = Relation::new(ab());
        r.apply(tup![1i64, 2i64], &2);
        r.apply(tup![1i64, 2i64], &3);
        assert_eq!(r.get(&tup![1i64, 2i64]), 5);
        r.apply(tup![1i64, 2i64], &-5);
        assert_eq!(r.len(), 0, "cancelled tuple must be pruned");
        assert!(!r.contains(&tup![1i64, 2i64]));
    }

    #[test]
    fn apply_buffered_matches_apply() {
        let mut r: Relation<i64> = Relation::new(ab());
        let fill = |key: &mut Vec<Value>| {
            key.clear();
            key.extend([Value::from(1i64), Value::from(2i64)]);
        };
        let mut key = Vec::new();
        fill(&mut key);
        assert_eq!(r.apply_buffered(&mut key, 2), Presence::Appeared);
        assert!(key.is_empty(), "a new key moves into the relation");
        fill(&mut key);
        assert_eq!(r.apply_buffered(&mut key, 3), Presence::Unchanged);
        assert_eq!(key.len(), 2, "a known key stays in the buffer");
        assert_eq!(r.get(&tup![1i64, 2i64]), 5);
        assert_eq!(r.apply_buffered(&mut key, 0), Presence::Unchanged);
        assert_eq!(r.apply_buffered(&mut key, -5), Presence::Vanished);
        assert!(r.is_empty());
    }

    #[test]
    fn zero_delta_is_noop() {
        let mut r: Relation<i64> = Relation::new(ab());
        r.apply(tup![1i64, 2i64], &0);
        assert!(r.is_empty());
    }

    #[test]
    fn total_sums_payloads() {
        let r = Relation::from_rows(ab(), [(tup![1i64, 1i64], 2i64), (tup![2i64, 1i64], 3i64)]);
        assert_eq!(r.total(), 5);
    }

    #[test]
    fn negative_payloads_are_representable() {
        // Out-of-order updates can transiently produce negative
        // multiplicities (Sec. 2); the store must keep them.
        let mut r: Relation<i64> = Relation::new(ab());
        r.apply(tup![1i64, 1i64], &-2);
        assert_eq!(r.get(&tup![1i64, 1i64]), -2);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn grouped_index_marginals_and_groups() {
        let schema = ab();
        let key = Schema::from([schema.vars()[0]]);
        let mut idx: GroupedIndex<i64> = GroupedIndex::new(schema, key);
        idx.apply(&tup![1i64, 10i64], &2);
        idx.apply(&tup![1i64, 20i64], &3);
        idx.apply(&tup![2i64, 10i64], &1);

        assert_eq!(idx.marginal(&tup![1i64]), 5);
        assert_eq!(idx.marginal(&tup![2i64]), 1);
        assert_eq!(idx.marginal(&tup![3i64]), 0);

        let g = idx.group(&tup![1i64]).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.get(&tup![10i64]), 2);
    }

    #[test]
    fn grouped_index_prunes_empty_groups() {
        let schema = ab();
        let key = Schema::from([schema.vars()[0]]);
        let mut idx: GroupedIndex<i64> = GroupedIndex::new(schema, key);
        idx.apply(&tup![1i64, 10i64], &2);
        idx.apply(&tup![1i64, 10i64], &-2);
        assert_eq!(idx.group_count(), 0);
        assert!(idx.group(&tup![1i64]).is_none());
    }

    #[test]
    fn from_relation_agrees_with_incremental() {
        let rel = Relation::from_rows(
            ab(),
            [
                (tup![1i64, 10i64], 1i64),
                (tup![1i64, 20i64], 2i64),
                (tup![2i64, 30i64], 3i64),
            ],
        );
        let key = Schema::from([ab().vars()[1]]);
        let idx = GroupedIndex::from_relation(&rel, key);
        assert_eq!(idx.marginal(&tup![10i64]), 1);
        assert_eq!(idx.marginal(&tup![20i64]), 2);
        assert_eq!(idx.marginal(&tup![30i64]), 3);
    }

    #[test]
    fn empty_key_groups_everything_together() {
        let mut idx: GroupedIndex<i64> = GroupedIndex::new(ab(), Schema::empty());
        idx.apply(&tup![1i64, 10i64], &2);
        idx.apply(&tup![2i64, 20i64], &3);
        assert_eq!(idx.marginal(&Tuple::empty()), 5);
        assert_eq!(idx.group(&Tuple::empty()).unwrap().len(), 2);
    }

    #[test]
    #[should_panic(expected = "subset")]
    fn key_outside_schema_rejected() {
        let [z] = vars(["rel_z"]);
        let _: GroupedIndex<i64> = GroupedIndex::new(ab(), Schema::from([z]));
    }
}
