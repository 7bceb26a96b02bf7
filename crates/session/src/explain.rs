//! The `explain()` report: which engine, why, and at what predicted cost.

use crate::classify::{Classification, QueryClass};
use crate::select::EngineKind;
use ivm_dataflow::ReplanTrigger;

/// Predicted asymptotic costs for one (class, engine) pairing, stated in
/// the paper's three-axis cost model: preprocessing, per-update work,
/// enumeration delay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostProfile {
    /// One-off construction over the initial database.
    pub preprocessing: &'static str,
    /// Work per single-tuple update (batched paths amortize over |batch|).
    pub update: &'static str,
    /// Gap between consecutive enumerated output tuples (or access
    /// answers, for CQAP engines).
    pub delay: &'static str,
}

/// The predicted costs of running `engine` (whose class-specific
/// guarantees the selection already matched to the query's class).
pub fn cost_profile(engine: EngineKind) -> CostProfile {
    match engine {
        EngineKind::EagerFact => CostProfile {
            preprocessing: "O(|D|)",
            update: "O(1)",
            delay: "O(1)",
        },
        EngineKind::Cqap => CostProfile {
            preprocessing: "O(|D|)",
            update: "O(1) (constant fan-out over atom occurrences)",
            delay: "O(1) per access answer; full enumeration pays the \
                    cross-component join the fracture severed",
        },
        EngineKind::DataflowMultiway => CostProfile {
            preprocessing: "O(|D|)",
            update: "worst-case-optimal per consolidated batch \
                     (no binary intermediates)",
            delay: "O(1) from the materialized view",
        },
        EngineKind::HeavyLight => CostProfile {
            preprocessing: "O(N^{1+min(\u{3b5},1\u{2212}\u{3b5})}) heavy-light views",
            update: "O(N^max(\u{3b5},1\u{2212}\u{3b5})) amortized per single-tuple \
                     update (sublinear; \u{221a}N at \u{3b5}=\u{bd})",
            delay: "O(1) from the maintained aggregate",
        },
        EngineKind::Sharded => CostProfile {
            preprocessing: "O(|D|) split across shards",
            update: "worst-case-optimal per shard sub-batch, shards in \
                     parallel, deltas ⊎-merged",
            delay: "O(1) from the merged view (drain first when \
                    ingesting pipelined)",
        },
    }
}

/// One recorded adaptive re-lowering of a session's plan.
#[derive(Clone, Debug)]
pub struct ReplanEvent {
    /// The session-wide ingestion index (1-based count of accepted
    /// `apply`/`apply_batch`/`enqueue_batch` calls — single updates count
    /// as one-update batches) after which the replan happened.
    pub batch_index: u64,
    /// The engine/plan before the replan.
    pub from: String,
    /// The engine/plan after the replan.
    pub to: String,
    /// Which policy trigger fired (machine-readable; its
    /// [`ReplanTrigger::name`] labels the timeline entry).
    pub trigger: ReplanTrigger,
    /// The policy trigger, verbatim.
    pub reason: String,
    /// Ingestion throughput (tuples/s) observed over the window that
    /// *ended* with this replan — the plan the policy walked away from.
    pub before_tps: f64,
    /// Ingestion throughput observed since this replan, refreshed on
    /// every later ingest. `None` until post-replan data arrives, so a
    /// replan on the final batch honestly reports "unmeasured" instead
    /// of a fabricated delta.
    pub after_tps: Option<f64>,
}

/// Render tuples/second compactly for the replan timeline: three
/// significant-ish digits with a `k`/`M` suffix keep the before→after
/// delta readable at a glance.
fn fmt_tps(tps: f64) -> String {
    if !tps.is_finite() || tps <= 0.0 {
        "0/s".to_string()
    } else if tps >= 1e6 {
        format!("{:.1}M/s", tps / 1e6)
    } else if tps >= 1e3 {
        format!("{:.1}k/s", tps / 1e3)
    } else {
        format!("{tps:.0}/s")
    }
}

impl std::fmt::Display for ReplanEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch {} [{}]: {} -> {} ({}); throughput {} -> {}",
            self.batch_index,
            self.trigger.name(),
            self.from,
            self.to,
            self.reason,
            fmt_tps(self.before_tps),
            self.after_tps.map_or("unmeasured".into(), fmt_tps),
        )
    }
}

/// The report [`crate::Session::explain`] returns: everything the
/// selection decided and why, so "choosing nothing" stays auditable.
#[derive(Clone, Debug)]
pub struct Explain {
    /// `Debug`-rendered query.
    pub query: String,
    /// The raw analysis flags.
    pub classification: Classification,
    /// The engine the session stood up — kept current across adaptive
    /// replans (a family shift updates this and [`Explain::cost`]).
    pub engine: EngineKind,
    /// Shard count (1 unless a fleet was requested; the shard planner may
    /// clamp a degenerate plan back to 1).
    pub shards: usize,
    /// Why the dichotomy picked this engine.
    pub reason: String,
    /// Predicted costs on the paper's three axes, refreshed after every
    /// adaptive replan.
    pub cost: CostProfile,
    /// Set when the preferred specialized engine failed to build and the
    /// session fell back to the generic dataflow engine.
    pub fallback: Option<String>,
    /// Adaptive-replanning status: `None` when no policy was requested,
    /// otherwise one line saying whether the policy is armed (dataflow/
    /// sharded backends) or inert (the specialized engines' per-class
    /// guarantees leave nothing to replan).
    pub adaptive: Option<String>,
    /// Every adaptive re-lowering this session performed, in stream
    /// order: batch index, old/new plan, and the policy trigger.
    pub replans: Vec<ReplanEvent>,
    /// Set when this session came back through
    /// [`crate::SessionBuilder::recover`]: the snapshot epoch it warm-
    /// started from and how much journal tail it replayed. `None` for a
    /// session built fresh.
    pub recovered: Option<String>,
    /// Live heavy-light partition state (\u{3b5}, threshold \u{3b8}, heavy keys
    /// per relation, view entries), read from the engine when
    /// [`crate::Session::explain`] is called while the heavy-light engine
    /// is the backend. `None` otherwise.
    pub heavy_light: Option<String>,
}

impl Explain {
    /// The condensed class.
    pub fn class(&self) -> QueryClass {
        self.classification.class
    }
}

impl std::fmt::Display for Explain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "query:    {}", self.query)?;
        writeln!(f, "class:    {}", self.classification.class)?;
        writeln!(
            f,
            "analyses: hierarchical={} q-hierarchical={} acyclic={} \
             free-connex={} self-join-free={} access-pattern={}{}",
            self.classification.hierarchical,
            self.classification.q_hierarchical,
            self.classification.acyclic,
            self.classification.free_connex,
            self.classification.self_join_free,
            self.classification.has_access_pattern,
            if self.classification.has_access_pattern {
                if self.classification.tractable_cqap {
                    " (tractable)"
                } else {
                    " (intractable)"
                }
            } else {
                ""
            },
        )?;
        write!(f, "engine:   {}", self.engine)?;
        if self.shards > 1 {
            write!(f, " × {}", self.shards)?;
        }
        writeln!(f)?;
        writeln!(f, "why:      {}", self.reason)?;
        if let Some(fb) = &self.fallback {
            writeln!(f, "fallback: {fb}")?;
        }
        if let Some(ad) = &self.adaptive {
            writeln!(f, "adaptive: {ad}")?;
        }
        if let Some(rec) = &self.recovered {
            writeln!(f, "recovered: {rec}")?;
        }
        if let Some(hl) = &self.heavy_light {
            writeln!(f, "sublinear: {hl}")?;
        }
        if !self.replans.is_empty() {
            writeln!(f, "replans:  {} (timeline below)", self.replans.len())?;
            for (i, ev) in self.replans.iter().enumerate() {
                writeln!(f, "  #{}: {ev}", i + 1)?;
            }
        }
        writeln!(f, "predicted: preprocessing {}", self.cost.preprocessing)?;
        writeln!(f, "           update        {}", self.cost.update)?;
        write!(f, "           delay         {}", self.cost.delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_hierarchical_eager_fact_is_all_constant() {
        let p = cost_profile(EngineKind::EagerFact);
        assert_eq!(p.update, "O(1)");
        assert_eq!(p.delay, "O(1)");
    }

    #[test]
    fn replan_event_renders_trigger_and_throughput_delta() {
        let ev = ReplanEvent {
            batch_index: 3,
            from: "MultiwayJoin order [a, b]".into(),
            to: "MultiwayJoin order [b, a]".into(),
            trigger: ReplanTrigger::CostRatio,
            reason: "learned cardinalities".into(),
            before_tps: 1500.0,
            after_tps: None,
        };
        let line = ev.to_string();
        assert!(line.contains("batch 3 [cost-ratio]"), "{line}");
        assert!(line.contains("1.5k/s -> unmeasured"), "{line}");
        let ev = ReplanEvent {
            after_tps: Some(2_500_000.0),
            ..ev
        };
        assert!(ev.to_string().contains("-> 2.5M/s"), "{}", ev);
    }
}
