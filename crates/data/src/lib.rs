//! Relations over rings, following the data model of the paper (Sec. 2).
//!
//! A relation over schema `S` and ring `D` is a finite-support function
//! `R : Dom(S) → D` mapping *keys* (tuples) to *payloads* (ring values).
//! Relations are hash maps, so lookup/insert/delete run in amortized
//! constant time and entries enumerate with constant delay. [`GroupedIndex`]
//! adds the projection indexes the paper requires: constant-delay
//! enumeration of all tuples agreeing on a given projection, with amortized
//! constant-time maintenance.
//!
//! Updates are ordinary tuples with ring payloads: inserts carry positive
//! values, deletes negative ones, so batches commute (Sec. 2).
//!
//! The layers, bottom up:
//!
//! * [`Value`], [`Tuple`], [`Schema`] — domain values, keys and the
//!   variables naming their columns;
//! * [`ids`] — the value dictionary ([`Dict`]: [`Value`] ↔ dense `u32`
//!   id, reference-counted, freed ids reused) and [`IdMap`], the hash
//!   table keyed by id tuples packed into its slot. The dataflow multiway
//!   join and the factorized view tree keep their state over ids;
//! * [`Relation`], [`GroupedIndex`], [`Database`] — relations over rings
//!   and their projection indexes;
//! * [`Update`], [`DeltaBatch`] (the one consolidation: a batch summed
//!   per `(relation, tuple)`) and the batch operators of [`ops`];
//!   [`codec`] persists relations for the journal and snapshots.

pub mod batch;
pub mod codec;
pub mod database;
pub mod hash;
pub mod ids;
pub mod ops;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod update;
pub mod value;

pub use batch::DeltaBatch;
pub use codec::Persist;
pub use database::Database;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use ids::{Dict, Id, IdMap};
pub use relation::{GroupedIndex, Presence, Relation};
pub use schema::{sym, vars, Schema, Sym};
pub use tuple::Tuple;
pub use update::{consolidate, shard_of, shard_of_column, Batch, Entry, Update};
pub use value::Value;
