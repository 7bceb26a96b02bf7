//! Heavy-light partitioned maintenance — IVMε (paper Sec. 3.3), held once.
//!
//! [`Partition`] holds the rules: θ = ⌈N^ε⌉, the hysteresis band, the
//! migrations and the lazy global rebalance. Two view plans sit on it,
//! both generic over the key and the ring payload and both over the
//! two-way [`Adj`] store: [`HeavyLight`] maintains the triangle count
//! through its auxiliary `H⋈L` views, and [`QhEps`] maintains Ex 5.1's
//! `Q(A) = Σ_B R(A,B)·S(B)` along Fig 7's update/delay trade-off.
//! [`HeavyLightEngine`] puts the triangle plan at dense value ids
//! ([`ivm_data::Id`], through a dictionary it owns) behind the
//! common [`ivm_core::Maintainer`] trait, so the session layer can
//! auto-select it, `explain()` it, adaptively swap to or away from it
//! mid-stream, and persist/recover it like every other backend.
//!
//! Amortized single-tuple updates cost O(N^max(ε,1−ε)) — O(√N) at the
//! default ε = ½ — against O(N^{1+min(ε,1−ε)}) auxiliary space, the
//! worst-case-optimal tradeoff for triangle-class cyclic queries.

pub mod adjacency;
pub mod engine;
pub mod heavy_light;
pub mod qh;
pub mod triangle;

pub use adjacency::Adj;
pub use engine::{admits, HeavyLightEngine};
pub use heavy_light::{bump, Partition};
pub use qh::QhEps;
pub use triangle::{HeavyLight, HlStats};
