//! A generic batched delta-dataflow runtime for incremental view
//! maintenance.
//!
//! The engines in `ivm-core` are per-class specialists: each implements one
//! dichotomy class of the paper (q-hierarchical cascades, CQAPs, acyclic
//! join trees) with that class's constant-time guarantees. This crate is
//! the *generic fallback*: it maintains **any** conjunctive query with
//! aggregates — including cyclic queries such as the triangle query of
//! Kara et al., *Maintaining Triangle Queries under Updates* — by delta
//! propagation through one worst-case-optimal join, in the style of Koch
//! et al.'s collection programming and of DBSP.
//!
//! The layers:
//!
//! * [`DeltaBatch`] (re-exported from `ivm-data`) — consolidates a batch
//!   of single-tuple updates per `(relation, tuple)`; sound because ring
//!   payloads make batch effects order-independent (Sec. 2 of the paper);
//! * [`multiway`] — the one join operator: attribute-at-a-time
//!   intersection search over shared hash-trie indexes, deltas seeded from
//!   the changed tuples, aggregated onto the free variables inside the
//!   search. It serves every query, acyclic or cyclic, and materializes
//!   no binary intermediate;
//! * [`cost`] — the deterministic cost-based variable order, derived from
//!   relation cardinalities with stable tie-breaking, plus the coarse
//!   plan-cost proxy the replan policy ranks orders with;
//! * [`DataflowEngine`] — lowers a query onto the join, owns the join's
//!   state, the output view and the [`DataflowStats`], and drives each
//!   batch through [`apply_batch`](ivm_core::Maintainer::apply_batch). It
//!   is an `ivm_core::Maintainer`, so the runtime slots into the existing
//!   equivalence tests, benches, and examples;
//! * [`adapt`] — adaptive replanning: [`LearnedCardinalities`] (live
//!   per-relation counts from the stream) and [`ReplanPolicy`] (when a
//!   re-lowering through
//!   [`DataflowEngine::replan_with_cards`](engine::DataflowEngine::replan_with_cards)
//!   pays for itself: first data after a blind build, or a predicted cost
//!   ratio with hysteresis — and when skew calls for the heavy-light
//!   family instead).
//!
//! # Quickstart
//!
//! ```
//! use ivm_core::Maintainer;
//! use ivm_data::{ops::lift_one, sym, tup, vars, Database, Tuple, Update};
//! use ivm_dataflow::DataflowEngine;
//! use ivm_query::{Atom, Query};
//!
//! // The cyclic self-join triangle count Q() = Σ E(a,b)·E(b,c)·E(c,a):
//! // no specialized engine accepts it.
//! let [a, b, c] = vars(["doc_A", "doc_B", "doc_C"]);
//! let e = sym("doc_E");
//! let q = Query::new(
//!     "doc_tri",
//!     [],
//!     vec![Atom::new(e, [a, b]), Atom::new(e, [b, c]), Atom::new(e, [c, a])],
//! );
//! let mut eng = DataflowEngine::<i64>::new(q, &Database::new(), lift_one).unwrap();
//!
//! // One batch, consolidated and propagated once. The directed triangle
//! // 1→2→3→1 has three rotations of (a, b, c), hence payload 3.
//! let batch: Vec<Update<i64>> = [(1i64, 2i64), (2, 3), (3, 1)]
//!     .into_iter()
//!     .map(|(x, y)| Update::insert(e, tup![x, y]))
//!     .collect();
//! eng.apply_batch(&batch).unwrap();
//! assert_eq!(eng.output_relation().get(&Tuple::empty()), 3);
//! ```

pub mod adapt;
pub mod cost;
pub mod engine;
pub mod multiway;

pub use adapt::{
    DegreeSketch, EngineFamily, FamilyDecision, LearnedCardinalities, ReplanDecision, ReplanPolicy,
    ReplanTrigger,
};
pub use cost::Cardinalities;
pub use engine::{DataflowEngine, DataflowStats};
pub use ivm_data::DeltaBatch;
pub use multiway::StoreHub;
