//! The Retailer-style workload behind Fig 4.
//!
//! The paper's Fig 4 runs a q-hierarchical 5-relation join over the
//! (proprietary) Retailer dataset; we generate a synthetic equivalent with
//! the same join shape and realistic fan-outs, which is all the
//! experiment's update and enumeration costs depend on:
//!
//! * `Inventory(locn, dateid, ksn)` — the streamed fact relation;
//! * `Sales(locn, dateid, ksn, units)`;
//! * `Weather(locn, dateid, rain)`;
//! * `Location(locn, zip)`;
//! * `Census(locn, zip, population)` — the Σ-reduct of
//!   `Census(zip, population)` under `zip → locn` (Ex 4.10): the
//!   FD-implied `locn` column is materialized so the join is
//!   q-hierarchical, exactly as Theorem 4.11 prescribes.

use ivm_data::{tup, Database, Relation, Tuple, Update};
use ivm_query::examples::{retailer_query, RetailerNames};
use ivm_query::Query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator parameters and state.
pub struct RetailerGen {
    /// Number of locations.
    pub locations: u64,
    /// Number of date ids.
    pub dates: u64,
    /// Number of SKUs (`ksn`).
    pub items: u64,
    rng: StdRng,
    query: Query,
    names: RetailerNames,
}

impl RetailerGen {
    /// A generator with the given dimension cardinalities.
    pub fn new(locations: u64, dates: u64, items: u64, seed: u64) -> Self {
        let (query, names) = retailer_query();
        RetailerGen {
            locations,
            dates,
            items,
            rng: StdRng::seed_from_u64(seed),
            query,
            names,
        }
    }

    /// The Fig 4 query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Relation names.
    pub fn names(&self) -> &RetailerNames {
        &self.names
    }

    /// The initial database: full dimension tables (Location, Census,
    /// Weather) plus `sales_rows` Sales facts. Inventory starts empty and
    /// is driven by the update stream.
    pub fn initial_db(&mut self, sales_rows: usize) -> Database<i64> {
        let mut db: Database<i64> = Database::new();
        let q = self.query.clone();
        let schema_of = |name| {
            q.atoms
                .iter()
                .find(|a| a.name == name)
                .expect("retailer atom")
                .schema
                .clone()
        };

        let mut location = Relation::new(schema_of(self.names.location));
        let mut census = Relation::new(schema_of(self.names.census));
        for locn in 0..self.locations {
            let zip = locn / 4; // several stores per zip: zip → locn is
                                // one-to-many in this direction only
            location.insert(tup![locn, zip]);
            let pop = 1_000 + self.rng.gen_range(0..9_000i64);
            census.insert(tup![locn, zip, pop]);
        }

        let mut weather = Relation::new(schema_of(self.names.weather));
        for locn in 0..self.locations {
            for dateid in 0..self.dates {
                let rain = i64::from(self.rng.gen_bool(0.3));
                weather.insert(tup![locn, dateid, rain]);
            }
        }

        let mut sales = Relation::new(schema_of(self.names.sales));
        for _ in 0..sales_rows {
            let t = self.sales_tuple();
            sales.insert(t);
        }

        db.add(self.names.location, location);
        db.add(self.names.census, census);
        db.add(self.names.weather, weather);
        db.add(self.names.sales, sales);
        db.create(self.names.inventory, schema_of(self.names.inventory));
        db
    }

    fn sales_tuple(&mut self) -> Tuple {
        let locn = self.rng.gen_range(0..self.locations);
        let dateid = self.rng.gen_range(0..self.dates);
        let ksn = self.rng.gen_range(0..self.items);
        let units = self.rng.gen_range(1..20i64);
        tup![locn, dateid, ksn, units]
    }

    /// One batch of `size` single-tuple Inventory inserts (the Fig 4
    /// stream: "a batch has 1000 single-tuple inserts").
    pub fn inventory_batch(&mut self, size: usize) -> Vec<Update<i64>> {
        (0..size)
            .map(|_| {
                let locn = self.rng.gen_range(0..self.locations);
                let dateid = self.rng.gen_range(0..self.dates);
                let ksn = self.rng.gen_range(0..self.items);
                Update::insert(self.names.inventory, tup![locn, dateid, ksn])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_query::is_q_hierarchical;

    #[test]
    fn query_is_q_hierarchical() {
        let gen = RetailerGen::new(16, 4, 8, 1);
        assert!(is_q_hierarchical(gen.query()));
    }

    #[test]
    fn initial_db_shapes() {
        let mut gen = RetailerGen::new(16, 4, 8, 1);
        let db = gen.initial_db(100);
        assert_eq!(db.relation(gen.names().location).len(), 16);
        assert_eq!(db.relation(gen.names().census).len(), 16);
        assert_eq!(db.relation(gen.names().weather).len(), 16 * 4);
        assert!(db.relation(gen.names().sales).len() <= 100);
        assert_eq!(db.relation(gen.names().inventory).len(), 0);
    }

    #[test]
    fn batches_are_inventory_inserts() {
        let mut gen = RetailerGen::new(16, 4, 8, 2);
        let batch = gen.inventory_batch(50);
        assert_eq!(batch.len(), 50);
        for u in &batch {
            assert_eq!(u.relation, gen.names().inventory);
            assert_eq!(u.payload, 1);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut g1 = RetailerGen::new(8, 2, 4, 42);
        let mut g2 = RetailerGen::new(8, 2, 4, 42);
        assert_eq!(g1.inventory_batch(10), g2.inventory_batch(10));
    }
}
