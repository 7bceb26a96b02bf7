//! Heavy-light partitioned maintenance — IVMε (paper Sec. 3.3), held once.
//!
//! [`HeavyLight`] is the algorithm: the heavy-light partition, the
//! hysteresis band, the auxiliary `H⋈L` views and lazy global
//! rebalancing, generic over the key (`u64` or `Value`) and the ring
//! payload, over the two-way [`Adj`] store. Two thin wrappers use it:
//! [`HeavyLightEngine`] puts it at `Value` keys behind the common
//! [`ivm_core::Maintainer`] trait — so the session layer can auto-select
//! it, `explain()` it, adaptively swap to or away from it mid-stream, and
//! persist/recover it like every other backend — and
//! `ivm_ivme::TriangleIvmEps` puts it at raw `u64` keys for the paper's
//! scaling experiments. The two differ only in key type and in the
//! `Update` framing around each call.
//!
//! Amortized single-tuple updates cost O(N^max(ε,1−ε)) — O(√N) at the
//! default ε = ½ — against O(N^{1+min(ε,1−ε)}) auxiliary space, the
//! worst-case-optimal tradeoff for triangle-class cyclic queries.

pub mod adjacency;
pub mod engine;
pub mod heavy_light;

pub use adjacency::Adj;
pub use engine::{admits, HeavyLightEngine};
pub use heavy_light::{bump, HeavyLight, HlStats};
