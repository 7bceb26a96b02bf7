//! Synthetic workload generators for the reproduction experiments.
//!
//! Substitutes for the paper's datasets, which are not public; each keeps
//! the property its experiment depends on (join shape and fan-out, skew,
//! batch validity):
//!
//! * [`retailer`] — the 5-relation Retailer-style star schema behind
//!   Fig 4, with the FD `zip → locn` materialized per Theorem 4.11;
//! * [`graphs`] — uniform and Zipf-skewed edge streams for the triangle
//!   experiments (skew is what heavy/light partitioning exploits);
//! * [`pkfk`] — JOB-style valid out-of-order update batches for Ex 4.13;
//! * [`zipf`] — a seedable Zipf sampler.

pub mod graphs;
pub mod pkfk;
pub mod retailer;
pub mod zipf;

pub use retailer::RetailerGen;
pub use zipf::Zipf;
