//! The per-layer budget: where an epoch's wall time went, from the spans
//! the program already records.
//!
//! Each traced epoch's spans are drained from the registry's trace ring
//! right after the ingest call and folded into a wall-clock partition of
//! the root span: every instant of the root window is credited to the
//! stages *executing* at that instant (a stage's own interval minus its
//! children's — the `EpochWaterfall` self-time rule), split evenly where
//! stages run concurrently on shard workers. The stage rows therefore
//! sum to the root's length exactly, which plain self-times do not once
//! two workers overlap. (`EpochWaterfall::for_epoch` itself is quadratic
//! in spans per epoch — unusable at 1024 notify spans times thousands of
//! epochs — so the fold is done here, linearithmically.)

use crate::workloads::Layer;
use ivm::data::FxHashMap;
use ivm::obs::TraceEvent;
use std::collections::BTreeMap;
use std::time::Duration;

/// A span label with instance numbers dropped: `op.3.delta_join` →
/// `op.delta_join`, `shard1.queue_wait` → `shard.queue_wait`,
/// `op.0.source_ret_Sales` → `op.source`.
fn stage_of(label: &str) -> String {
    if let Some(op) = label.strip_prefix("op.") {
        let kind = op.split_once('.').map_or(op, |(_, kind)| kind);
        let kind = if kind.starts_with("source") {
            "source"
        } else {
            kind
        };
        return format!("op.{kind}");
    }
    label.chars().filter(|c| !c.is_ascii_digit()).collect()
}

/// The crate a stage's time belongs to. The roots' own residue is split
/// further by the caller (journal time is known from the store's
/// histograms, span-less backends from a layer replay).
pub fn layer_of(stage: &str) -> Layer {
    match stage {
        "session.ingest" => Layer::Session,
        "serve.ingest" | "serve.notify" | "subscription.try_next" => Layer::Serve,
        // Group sessions under a `ServeNode` are built unobserved, so the
        // whole group apply is engine time.
        "serve.group_apply" | "engine.apply_batch" | "hub.advance" => Layer::Dataflow,
        s if s.starts_with("op.") => Layer::Dataflow,
        s if s.starts_with("router.") || s.starts_with("shard.") => Layer::Shard,
        _ => Layer::Unattributed,
    }
}

#[derive(Default)]
pub struct Budget {
    pub epochs: u64,
    /// Σ benchmark-side time around the ingest calls.
    pub caller: Duration,
    /// Σ root span lengths.
    pub root_ns: u64,
    /// Wall-clock nanoseconds per stage; sums to `root_ns`.
    pub by_stage: BTreeMap<String, f64>,
    pub spans: u64,
    /// Spans whose parent chain does not reach a root.
    pub orphans: u64,
}

impl Budget {
    /// Fold one ingest call's spans in. `caller` is the benchmark-side
    /// time around the call.
    pub fn absorb(&mut self, events: &[TraceEvent], caller: Duration) {
        self.epochs += 1;
        self.caller += caller;
        self.spans += events.len() as u64;
        let mut children: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
        for (i, e) in events.iter().enumerate() {
            if let Some(p) = e.parent {
                children.entry(p).or_default().push(i);
            }
        }
        let mut placed = 0usize;
        for root in events.iter().filter(|e| e.parent.is_none()) {
            self.root_ns += root.elapsed_ns();
            placed += self.sweep(events, &children, root);
        }
        self.orphans += (events.len() - placed) as u64;
    }

    /// Partition `root`'s window among the stages executing in it;
    /// returns how many spans its tree holds.
    fn sweep(
        &mut self,
        events: &[TraceEvent],
        children: &FxHashMap<u64, Vec<usize>>,
        root: &TraceEvent,
    ) -> usize {
        let (lo, hi) = (root.start_ns(), root.start_ns() + root.elapsed_ns());
        let mut stages: Vec<String> = Vec::new();
        // (time, stage index, +1 when the stage starts executing / -1 when it stops)
        let mut edges: Vec<(u64, usize, i32)> = Vec::new();
        let mut stack = vec![root];
        let mut placed = 0usize;
        while let Some(span) = stack.pop() {
            placed += 1;
            let stage = stage_of(&span.label);
            let idx = stages.iter().position(|s| *s == stage).unwrap_or_else(|| {
                stages.push(stage);
                stages.len() - 1
            });
            let (s, e) = (
                span.start_ns().max(lo),
                (span.start_ns() + span.elapsed_ns()).min(hi),
            );
            let mut kids: Vec<(u64, u64)> = Vec::new();
            for &k in children.get(&span.id).map_or(&[][..], Vec::as_slice) {
                let kid = &events[k];
                stack.push(kid);
                kids.push((
                    kid.start_ns().max(s),
                    (kid.start_ns() + kid.elapsed_ns()).min(e),
                ));
            }
            kids.sort_unstable();
            // The span executes wherever none of its children does.
            let mut cursor = s;
            for (ks, ke) in kids {
                if ks > cursor {
                    edges.push((cursor, idx, 1));
                    edges.push((ks, idx, -1));
                }
                cursor = cursor.max(ke);
            }
            if e > cursor {
                edges.push((cursor, idx, 1));
                edges.push((e, idx, -1));
            }
        }
        edges.sort_unstable_by_key(|&(t, _, _)| t);
        let mut active = vec![0i32; stages.len()];
        let mut running = 0i32;
        let mut credit = vec![0f64; stages.len()];
        let mut at = lo;
        for (t, idx, step) in edges {
            if t > at && running > 0 {
                let slice = (t - at) as f64 / running as f64;
                for (c, &n) in credit.iter_mut().zip(&active) {
                    *c += slice * n as f64;
                }
            }
            at = t;
            active[idx] += step;
            running += step;
        }
        for (stage, c) in stages.into_iter().zip(credit) {
            *self.by_stage.entry(stage).or_default() += c;
        }
        placed
    }

    /// Σ stage time of one layer.
    pub fn layer_ns(&self, layer: Layer) -> f64 {
        self.stage_ns(|s| layer_of(s) == layer)
    }

    /// Σ time of the stages `pick` selects.
    pub fn stage_ns(&self, pick: impl Fn(&str) -> bool) -> f64 {
        self.by_stage
            .iter()
            .filter(|(s, _)| pick(s))
            .map(|(_, ns)| ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, parent: Option<u64>, label: &str, start: u64, len: u64) -> TraceEvent {
        TraceEvent {
            id,
            parent,
            epoch: 0,
            label: label.into(),
            start: Duration::from_nanos(start),
            elapsed: Duration::from_nanos(len),
        }
    }

    #[test]
    fn stages_drop_instance_numbers() {
        assert_eq!(stage_of("op.3.delta_join"), "op.delta_join");
        assert_eq!(stage_of("op.0.source_ret_Sales"), "op.source");
        assert_eq!(stage_of("shard1.queue_wait"), "shard.queue_wait");
        assert_eq!(layer_of("shard.apply"), Layer::Shard);
        assert_eq!(layer_of("op.multiway_join"), Layer::Dataflow);
    }

    /// Two overlapping worker spans split the overlap; the rows sum to
    /// the root's length.
    #[test]
    fn concurrent_children_partition_the_root_window() {
        let events = vec![
            ev(1, None, "session.ingest", 0, 100),
            ev(2, Some(1), "router.partition", 0, 10),
            ev(3, Some(1), "shard0.apply", 10, 60),
            ev(4, Some(1), "shard1.apply", 30, 60),
            ev(5, Some(3), "op.2.delta_join", 20, 40),
            ev(6, Some(9), "stray", 0, 5),
        ];
        let mut b = Budget::default();
        b.absorb(&events, Duration::from_nanos(120));
        let total: f64 = b.by_stage.values().sum();
        assert!((total - 100.0).abs() < 1e-9, "{:?}", b.by_stage);
        assert_eq!(b.root_ns, 100);
        assert_eq!(b.orphans, 1);
        // Root executes only in [90, 100].
        assert!((b.by_stage["session.ingest"] - 10.0).abs() < 1e-9);
        // shard0.apply runs alone in [10,20], shares [60,70] with shard1.
        // join: alone [20,30], shared [30,60].
        assert!((b.by_stage["op.delta_join"] - 25.0).abs() < 1e-9);
        assert!((b.by_stage["shard.apply"] - 55.0).abs() < 1e-9);
        assert!((b.layer_ns(Layer::Shard) - 65.0).abs() < 1e-9);
    }
}
