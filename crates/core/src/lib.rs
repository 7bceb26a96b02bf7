//! Incremental view maintenance engines.
//!
//! This crate implements every maintenance strategy described in the paper
//! for (hierarchies of) conjunctive queries with aggregates:
//!
//! * [`engines`] — the eager/lazy × list/fact grid of Fig 4;
//! * [`viewtree`] — factorized view trees (F-IVM), including mixed
//!   static-dynamic trees (Sec. 4.5) and FD-completed trees (Sec. 4.4);
//! * [`cascade`] — cascading q-hierarchical queries (Sec. 4.2);
//! * [`cqap`] — queries with free access patterns (Sec. 4.3);
//! * [`fd`] — maintenance through Σ-reducts under FDs (Theorem 4.11);
//! * [`pkfk`] — amortized star-join maintenance under valid PK–FK batches
//!   (Ex 4.13);
//! * [`acyclic`] — join trees, the Yannakakis reducer, and insert-only
//!   maintenance for α-acyclic joins (Sec. 4.6).
//!
//! The paper's bounds are on counted work, so the engines count it:
//! [`ViewTree::work`] (one unit per hash-map probe and one per map entry
//! visited, on the update and the enumeration paths), summed over the
//! component trees by [`cqap::CqapEngine::work`] and
//! [`cascade::CascadeEngine::work`]; [`pkfk::PkFkEngine::amortized_cost`]
//! and [`acyclic::InsertOnlyEngine::rebuild_work`] count their own.

pub mod acyclic;
pub mod bindings;
pub mod cascade;
pub mod checked;
pub mod cqap;
pub mod engine;
pub mod engines;
pub mod error;
pub mod fd;
pub mod pkfk;
pub mod viewtree;

pub use checked::CheckedBatch;
pub use engine::Maintainer;
pub use engines::{EagerFactEngine, EagerListEngine, LazyFactEngine, LazyListEngine};
pub use error::EngineError;
pub use viewtree::{Fetcher, ViewTree};
