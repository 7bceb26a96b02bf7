//! IVMε (Sec. 3.3 and Sec. 5 of the paper): worst-case optimal incremental
//! maintenance via heavy/light data partitioning, on raw `u64` keys and
//! `i64` multiplicities.
//!
//! These kernels take single-tuple updates as plain integers — no `Value`
//! hashing, no `Update` framing — so the scaling experiments measure the
//! algorithms, not the tuple layer. They store relations in the
//! [`ivm_hl::Adj`] adjacency store at `u64` keys:
//!
//! * [`triangle`] — the triangle count query
//!   `Q = Σ_{A,B,C} R(A,B)·S(B,C)·T(C,A)`: [`TriangleIvmEps`] is the
//!   [`ivm_hl::HeavyLight`] core (the same code the `Value`-keyed
//!   `HeavyLightEngine` runs), plus the three baselines the paper
//!   discusses: full recount, first-order deltas, and pairwise
//!   materialized views;
//! * [`qh`] — the simplest non-q-hierarchical query
//!   `Q(A) = Σ_B R(A,B)·S(B)` (Ex 5.1), realizing every point
//!   (1, ε, 1−ε) of the preprocessing/update/delay trade-off of Fig 7.

pub mod qh;
pub mod triangle;

pub use qh::QhEpsEngine;
pub use triangle::{
    Rel, TriangleDelta, TriangleIvmEps, TriangleMaintainer, TrianglePairwiseMv, TriangleRecount,
};
