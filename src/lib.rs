//! Umbrella crate: re-exports the whole IVM system under one name.
//!
//! The workspace reproduces *Recent Increments in Incremental View
//! Maintenance* (PODS 2024) as a set of layered crates; this crate exists
//! so downstream users (and the integration tests and examples in this
//! package) can depend on a single `ivm` crate:
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | payloads | [`ring`] | semirings/rings: `Z`, reals, Boolean, tropical, covariance |
//! | storage | [`data`] | relations, tuples, schemas, grouped indexes, updates |
//! | language | [`query`] | query AST + the dichotomy analyses (q-hierarchical, CQAP, FDs) |
//! | telemetry | [`obs`] | lock-free metrics registry, histograms, tracer, Prometheus/JSON export |
//! | engines | [`core`] | per-class maintenance engines (view trees, cascades, CQAPs) |
//! | runtime | [`dataflow`] | generic batched delta-dataflow engine for arbitrary CQs |
//! | sublinear | [`hl`] | one heavy-light partition (IVMε) under the triangle and Ex 5.1 view plans, and its engine |
//! | scale-out | [`shard`] | hash-partitioned parallel shards with async batch ingestion |
//! | durability | [`store`] | epoch-tagged update journal, consolidated snapshots, warm recovery |
//! | front door | [`session`] | classify → select → one uniform [`Session`] handle |
//! | serving | [`serve`] | one ingest stream fanned out to many live views ([`ServeNode`]) |
//! | lower bounds | [`oumv`] | the OuMv reduction of Theorem 3.4 |
//! | workloads | [`workloads`] | retailer, graph, PK-FK, Zipf generators |
//!
//! Most callers only need the front door:
//!
//! ```
//! use ivm::{Maintainer, Session};
//!
//! let q = ivm::query::examples::triangle_count();   // cyclic
//! let mut s = Session::<i64>::builder(q).build(&ivm::Database::new()).unwrap();
//! println!("{}", s.explain()); // → worst-case-optimal multiway dataflow
//! ```

pub use ivm_core as core;
pub use ivm_data as data;
pub use ivm_dataflow as dataflow;
pub use ivm_hl as hl;
pub use ivm_obs as obs;
pub use ivm_oumv as oumv;
pub use ivm_query as query;
pub use ivm_ring as ring;
pub use ivm_serve as serve;
pub use ivm_session as session;
pub use ivm_shard as shard;
pub use ivm_store as store;
pub use ivm_workloads as workloads;

pub use ivm_core::Maintainer;
pub use ivm_data::{Batch, Database, Relation, Tuple, Update, Value};
pub use ivm_dataflow::{DataflowEngine, DeltaBatch, StoreHub};
pub use ivm_hl::HeavyLightEngine;
pub use ivm_obs::{
    EpochWaterfall, FlightRecorder, MetricsRegistry, MetricsServer, MetricsSnapshot,
};
pub use ivm_query::{Atom, Query};
pub use ivm_ring::{Ring, Semiring};
pub use ivm_serve::{ServeNode, Subscription, ViewDelta};
pub use ivm_session::{
    EngineKind, Explain, QueryClass, ReplanEvent, ReplanPolicy, ReplanTrigger, Session,
    SessionBuilder,
};
pub use ivm_shard::ShardedEngine;
pub use ivm_store::{SnapshotDoc, Store};
