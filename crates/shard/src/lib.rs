//! Hash-partitioned parallel execution over `ivm-dataflow`.
//!
//! The paper's delta rules are linear over the payload ring, so a batch's
//! effect on a view is the ⊎-sum of the effects of *any* partition of the
//! batch (Koch et al., collection programming; the same property DBToaster
//! -style engines exploit). This crate turns that algebra into a parallel
//! runtime:
//!
//! * [`ShardPlanner`] inspects the query and picks a **shard key**: a
//!   variable shared by every atom when one exists (star, PK–FK,
//!   hierarchical queries — everything partitions, nothing replicates);
//!   otherwise the variable partitioning the most data, with the
//!   remaining relations **broadcast** to all shards (triangle and the
//!   other cyclic shapes). Self-joins whose occurrences permute the shard
//!   column degrade to a correct single-shard fallback.
//! * [`Router`] splits each consolidated batch into per-shard sub-batches
//!   by the deterministic hash of the shard column; broadcast entries fan
//!   out to every shard.
//! * One worker thread per shard owns an independent
//!   [`DataflowEngine`](ivm_dataflow::DataflowEngine) — the
//!   single-threaded engine's multiway join, unchanged — fed over a
//!   **bounded** queue, so ingestion is pipelined: the caller enqueues
//!   batch `k+1` while shards still process batch `k`, and backpressure
//!   is per shard.
//! * [`ShardedEngine`] merges the per-shard output deltas by ring
//!   addition into one maintained view, implements
//!   [`Maintainer`](ivm_core::Maintainer), and aggregates per-shard
//!   [`DataflowStats`](ivm_dataflow::DataflowStats) (plus per-shard busy
//!   time — the scalability critical path) into [`ShardedStats`].
//!
//! # Quickstart
//!
//! ```
//! use ivm_data::{ops::lift_one, sym, tup, vars, Database, Update};
//! use ivm_query::{Atom, Query};
//! use ivm_shard::ShardedEngine;
//!
//! // A star join: Q(x,y,z) = R(x,y)·S(x,z). x occurs in every atom, so
//! // both relations hash-partition by x and nothing is replicated.
//! let [x, y, z] = vars(["doc_sX", "doc_sY", "doc_sZ"]);
//! let q = Query::new(
//!     "doc_star",
//!     [x, y, z],
//!     vec![Atom::new(sym("doc_sR"), [x, y]), Atom::new(sym("doc_sS"), [x, z])],
//! );
//! let mut eng = ShardedEngine::<i64>::new(q, &Database::new(), lift_one, 4).unwrap();
//!
//! // Pipelined ingestion: enqueue returns before processing finishes.
//! for i in 0..8i64 {
//!     eng.enqueue_batch(&[
//!         Update::insert(sym("doc_sR"), tup![i, i * 10]),
//!         Update::insert(sym("doc_sS"), tup![i, i * 100]),
//!     ])
//!     .unwrap();
//! }
//! eng.drain().unwrap(); // settle all shard deltas into the view
//! assert_eq!(eng.output_relation().len(), 8);
//! ```

pub mod engine;
pub mod merge;
pub mod planner;
pub mod router;
pub mod stats;
pub mod worker;

pub use engine::ShardedEngine;
pub use merge::{fold_delta, merge_deltas};
pub use planner::{RelationRoute, ShardPlan, ShardPlanner};
pub use router::{Router, RouterStats};
pub use stats::ShardedStats;
pub use worker::QUEUE_DEPTH;
