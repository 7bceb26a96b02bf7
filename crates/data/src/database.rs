//! A database: a set of named relations over a common ring.

use crate::hash::FxHashMap;
use crate::relation::{Presence, Relation};
use crate::schema::{Schema, Sym};
use crate::update::Update;
use ivm_ring::Semiring;

/// A set of relations over the same ring, addressable by name (Sec. 2).
#[derive(Clone)]
pub struct Database<R> {
    relations: FxHashMap<Sym, Relation<R>>,
}

impl<R: Semiring> Default for Database<R> {
    fn default() -> Self {
        Database::new()
    }
}

impl<R: Semiring> std::fmt::Debug for Database<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<_> = self.relations.keys().collect();
        names.sort();
        f.debug_map()
            .entries(names.iter().map(|&&n| (n, &self.relations[&n])))
            .finish()
    }
}

impl<R: Semiring> Database<R> {
    /// An empty database.
    pub fn new() -> Self {
        Database {
            relations: FxHashMap::default(),
        }
    }

    /// Register an empty relation. Panics if the name is taken.
    pub fn create(&mut self, name: Sym, schema: Schema) {
        let prev = self.relations.insert(name, Relation::new(schema));
        assert!(prev.is_none(), "relation {name} already exists");
    }

    /// Register an existing relation. Panics if the name is taken.
    pub fn add(&mut self, name: Sym, rel: Relation<R>) {
        let prev = self.relations.insert(name, rel);
        assert!(prev.is_none(), "relation {name} already exists");
    }

    /// Look up a relation.
    pub fn get(&self, name: Sym) -> Option<&Relation<R>> {
        self.relations.get(&name)
    }

    /// Look up a relation, panicking when absent (compile-time names).
    pub fn relation(&self, name: Sym) -> &Relation<R> {
        self.relations
            .get(&name)
            .unwrap_or_else(|| panic!("unknown relation {name}"))
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, name: Sym) -> Option<&mut Relation<R>> {
        self.relations.get_mut(&name)
    }

    /// Apply a single-tuple update to its relation, reporting what it
    /// did to the tuple's presence.
    ///
    /// # Panics
    /// Panics when the relation does not exist.
    pub fn apply(&mut self, upd: &Update<R>) -> Presence {
        self.relations
            .get_mut(&upd.relation)
            .unwrap_or_else(|| panic!("unknown relation {}", upd.relation))
            .apply(upd.tuple.clone(), &upd.payload)
    }

    /// Apply a batch in order.
    pub fn apply_batch<'a>(&mut self, batch: impl IntoIterator<Item = &'a Update<R>>)
    where
        R: 'a,
    {
        for u in batch {
            self.apply(u);
        }
    }

    /// Total database size `|D|`: the sum of relation sizes.
    pub fn size(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Iterate `(name, relation)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Sym, &Relation<R>)> {
        self.relations.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{sym, vars};
    use crate::tup;

    #[test]
    fn create_apply_size() {
        let [a, b] = vars(["db_a", "db_b"]);
        let r = sym("db_R");
        let mut db: Database<i64> = Database::new();
        db.create(r, Schema::from([a, b]));
        db.apply(&Update::insert(r, tup![1i64, 2i64]));
        db.apply(&Update::insert(r, tup![1i64, 3i64]));
        assert_eq!(db.size(), 2);
        assert_eq!(db.relation(r).get(&tup![1i64, 2i64]), 1);
    }

    #[test]
    fn batch_order_does_not_matter_for_final_state() {
        let [a] = vars(["db_a2"]);
        let r = sym("db_R2");
        let mk = || {
            let mut db: Database<i64> = Database::new();
            db.create(r, Schema::from([a]));
            db
        };
        let ins = Update::insert(r, tup![1i64]);
        let del: Update<i64> = Update::delete(r, tup![1i64]);
        let mut d1 = mk();
        d1.apply_batch([&ins, &del, &ins]);
        let mut d2 = mk();
        d2.apply_batch([&ins, &ins, &del]);
        assert_eq!(d1.relation(r).get(&tup![1i64]), 1);
        assert_eq!(d2.relation(r).get(&tup![1i64]), 1);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_relation_rejected() {
        let [a] = vars(["db_a3"]);
        let r = sym("db_R3");
        let mut db: Database<i64> = Database::new();
        db.create(r, Schema::from([a]));
        db.create(r, Schema::from([a]));
    }

    #[test]
    #[should_panic(expected = "unknown relation")]
    fn update_to_missing_relation_panics() {
        let mut db: Database<i64> = Database::new();
        db.apply(&Update::insert(sym("db_missing"), tup![1i64]));
    }
}
