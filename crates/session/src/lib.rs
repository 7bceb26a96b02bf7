//! One batch-first front door for every engine in the workspace.
//!
//! The paper's central message is a *dichotomy*: classify the query
//! first, then run the engine whose complexity its class admits. Before
//! this crate, the caller did the classifying — picking among
//! `EagerFactEngine::new`, `CqapEngine::new`,
//! `DataflowEngine::new`, and `ShardedEngine::new` by hand,
//! each with its own ingestion spelling. The session layer moves that
//! decision where the paper puts it, into the system:
//!
//! ```
//! use ivm_core::Maintainer;           // the one batch-first surface
//! use ivm_data::{sym, tup, Database, Update};
//! use ivm_session::{EngineKind, Session};
//!
//! let q = ivm_query::examples::fig3_query();       // q-hierarchical
//! let mut s = Session::<i64>::builder(q).build(&Database::new()).unwrap();
//! assert_eq!(s.engine_kind(), EngineKind::EagerFact);
//! println!("{}", s.explain());                     // class, engine, costs
//!
//! s.apply_batch(&[
//!     Update::insert(sym("f3_R"), tup![1i64, 10i64]),
//!     Update::insert(sym("f3_S"), tup![1i64, 20i64]),
//! ])
//! .unwrap();
//! assert_eq!(s.output().get(&tup![1i64, 10i64, 20i64]), 1);
//! ```
//!
//! Four modules, one pipeline:
//!
//! * [`mod@classify`] — run every dichotomy analysis (`is_q_hierarchical`,
//!   `is_tractable_cqap`, GYO acyclicity, free-connexity, self-join
//!   freedom) and condense them into a [`QueryClass`];
//! * [`mod@select`] — map the class (plus the builder's `.shards(n)` /
//!   `.engine(kind)` requests) to an [`EngineKind`];
//! * [`session`] — build the engine and wrap it in the uniform
//!   [`Session`] handle, itself an `ivm_core::Maintainer`;
//! * [`explain`] — the auditable report: which engine, why, and the
//!   predicted preprocessing/update/delay costs.
//!
//! This is the API the multi-node router and adaptive replanning
//! follow-ons plug into: both are engine swaps behind an unchanged
//! `Session` surface.

pub mod classify;
pub mod explain;
pub mod select;
pub mod session;

pub use classify::{classify, Classification, QueryClass};
pub use explain::{cost_profile, CostProfile, Explain, ReplanEvent};
pub use ivm_dataflow::{LearnedCardinalities, ReplanPolicy, ReplanTrigger};
pub use ivm_obs::{MetricsRegistry, MetricsSnapshot};
pub use select::{select, EngineKind, Selection};
pub use session::{Session, SessionBuilder};
