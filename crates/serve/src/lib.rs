//! Reactive subscription fabric: one ingest stream, many live views.
//!
//! Every [`Session`](ivm_session::Session) owns a private engine and a
//! private copy of the base state, so N dashboard users over the same
//! update stream cost N redundant engines. This crate is the serving
//! layer the paper's framing points at — IVM as maintaining *many* views
//! over *one* update stream: a [`ServeNode`] owns one shared base
//! database and one ingest path, and subscribers register queries
//! against it with [`ServeNode::subscribe`]. Internally:
//!
//! - **Query dedup** — queries are canonicalized up to variable renaming
//!   and atom reordering ([`canonical_key`]); subscribers whose queries
//!   canonicalize identically share one maintained engine, each getting
//!   a private delivery tap. Canonicalization is conservative: a missed
//!   equivalence costs an extra engine, never a wrong answer.
//! - **Shared trie stores** — where deduped engines still overlap on a
//!   base relation (different queries, same feed), their
//!   worst-case-optimal multiway stores are shared through an
//!   [`ivm_dataflow::StoreHub`]: the relation is resident once
//!   node-wide, and the node advances the hub exactly once per batch
//!   after every member engine has processed it.
//! - **Fan-out delivery, by reference** — each
//!   [`ServeNode::apply_batch`] pushes exactly one [`ViewDelta`]
//!   (possibly empty) to every live subscriber, through a callback or a
//!   channel. A group's delta is built once per epoch and shared: the
//!   `ViewDelta` is an immutable handle (`Arc`) to it, so delivering,
//!   cloning or forwarding one is O(1), receipt is a refcount drop, and
//!   an epoch costs O(|batch| + Σ_groups |delta| + subscribers) — the
//!   batch is checked and consolidated once, each group gets the checked
//!   batch restricted to its dynamic relations, and a group it does not
//!   touch still delivers its (empty) delta.
//! - **One arity per relation per node** — the shared base outlives its
//!   groups, so a relation keeps the arity it was first declared with:
//!   [`ServeNode::subscribe`] refuses a query that names it at another
//!   arity ([`ivm_core::EngineError::ArityMismatch`]) and leaves the node
//!   unchanged. That is what lets a group take its share of a checked
//!   batch without checking it again.
//!
//! # Delivery and ordering guarantees
//!
//! - Per epoch (one `apply_batch` call), every live subscriber receives
//!   exactly one [`ViewDelta`] carrying the epoch number — empty deltas
//!   included, so subscribers can count epochs without gaps.
//! - Groups are notified in group-creation order, and taps within a
//!   group in subscription order; deliveries never interleave within an
//!   epoch.
//! - A subscriber sees exactly the view and per-batch deltas an
//!   independent `Session` over the same (filtered) stream would
//!   produce. Column *order* is the query's free-variable order; column
//!   *names* are those of the group's first-registered query (dedup
//!   identifies views up to variable renaming).
//! - Subscribers are isolated: a panicking callback or a dropped
//!   channel receiver evicts that subscriber at the current epoch and
//!   never stalls ingest or perturbs sibling views.
//! - A subscriber registered mid-stream starts from the node's current
//!   base state (snapshot via [`ServeNode::view`]) and receives deltas
//!   from the next epoch on.
//!
//! # The `ivm.serve.*` metric namespace
//!
//! With a registry attached ([`ServeNode::observe`]):
//!
//! | series | kind | meaning |
//! |---|---|---|
//! | `ivm.serve.subscribers` | gauge | live subscriber count |
//! | `ivm.serve.groups` | gauge | live deduped engine count |
//! | `ivm.serve.epochs` | counter | batches fanned out |
//! | `ivm.serve.ingest_ns` | histogram | whole-epoch latency |
//! | `ivm.serve.dedup_hits` | counter | subscriptions attached to an existing engine |
//! | `ivm.serve.store_dedup_hits` | counter | multiway stores adopted from the hub |
//! | `ivm.serve.evictions` | counter | subscribers dropped after a delivery failure |
//! | `ivm.serve.sub{id}.notify_ns` | histogram | per-subscriber delivery latency |
//! | `ivm.serve.sub{id}.queue_depth` | gauge | per-subscriber undrained deliveries |
//!
//! Timing is taken only while a registry is attached: a detached node
//! never reads the clock, an observed one reads it once per delivery
//! (the end of one delivery is the start of the next, so `notify_ns`
//! and the `serve.notify` spans tile the fan-out loop, bookkeeping
//! included). Per-subscriber series use the stable subscription id, not
//! the position, so identities survive churn; handles allocated before
//! `observe` are published by it — `queue_depth` with its current
//! value, `notify_ns` recording from then on. When a
//! subscriber leaves — unsubscribed or evicted — its `sub{id}.*`
//! series are **pruned** from the registry (an eviction first dumps a
//! flight-recorder post-mortem with the final snapshot and the recent
//! epochs' spans), so exports never accumulate dead series under
//! churn. Each `apply_batch` also records a causal span tree — a
//! `serve.ingest` root with per-group apply, per-subscriber notify,
//! and the hub advance as children — reconstructible per epoch via
//! [`ivm_obs::EpochWaterfall`], and [`ServeNode::serve_metrics`]
//! exposes the whole registry over a live HTTP scrape endpoint.
//!
//! # Quickstart
//!
//! ```
//! use ivm_data::{sym, tup, vars, Update};
//! use ivm_query::{Atom, Query};
//! use ivm_serve::ServeNode;
//!
//! let [a, b, c] = vars(["svdoc_A", "svdoc_B", "svdoc_C"]);
//! let e = sym("svdoc_E");
//! let tri = |name: &str| {
//!     Query::new(
//!         name,
//!         [],
//!         vec![Atom::new(e, [a, b]), Atom::new(e, [b, c]), Atom::new(e, [c, a])],
//!     )
//! };
//!
//! let mut node = ServeNode::<i64>::new();
//! let mut sub1 = node.subscribe(tri("svdoc_q1")).unwrap();
//! let mut sub2 = node.subscribe(tri("svdoc_q2")).unwrap(); // deduped: same engine
//! assert_eq!(node.group_count(), 1);
//!
//! let batch: Vec<Update<i64>> = [(1i64, 2i64), (2, 3), (3, 1)]
//!     .into_iter()
//!     .map(|(x, y)| Update::insert(e, tup![x, y]))
//!     .collect();
//! node.apply_batch(&batch).unwrap();
//!
//! let d1 = sub1.try_next().unwrap();
//! let d2 = sub2.try_next().unwrap();
//! assert_eq!(d1.delta.get(&ivm_data::Tuple::empty()), 3); // three rotations
//! assert_eq!(d1.epoch, d2.epoch);
//! ```

mod canon;
mod node;

pub use canon::canonical_key;
pub use node::{ServeNode, SubId, Subscription, ViewDelta};
