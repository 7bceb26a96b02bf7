//! Dichotomy-driven engine selection.
//!
//! The selection table (also in the README):
//!
//! | condition (first match wins) | engine | why |
//! |---|---|---|
//! | `.engine(kind)` forced | that kind | benchmarking / comparison rows |
//! | `.shards(n)` requested | [`EngineKind::Sharded`] | scale-out across n workers |
//! | tractable CQAP | [`EngineKind::Cqap`] | O(1) update + O(1) access (Thm 4.8) |
//! | q-hierarchical ∧ self-join-free | [`EngineKind::EagerFact`] | O(1) update + O(1) delay (Thm 4.1) |
//! | triangle-class cycle over a ring | [`EngineKind::HeavyLight`] | O(N^max(ε,1−ε)) amortized updates |
//! | any other query | [`EngineKind::DataflowMultiway`] | worst-case-optimal, no binary intermediates |

use crate::classify::{Classification, QueryClass};

/// Every engine the session layer can stand up.
///
/// The factorized eager view tree of Fig 4 (the other three Fig 4
/// engines stay `ivm_core` types that no session builds), the CQAP
/// engine, the generic dataflow engine, the heavy-light engine, and the
/// hash-partitioned parallel fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// `ivm_core::EagerFactEngine` — factorized view tree, F-IVM style.
    EagerFact,
    /// `ivm_core::cqap::CqapEngine` — fractured view trees with O(1)
    /// access requests.
    Cqap,
    /// `ivm_dataflow::DataflowEngine`, one worst-case-optimal multiway
    /// join — the generic engine, for acyclic and cyclic queries alike.
    DataflowMultiway,
    /// `ivm_hl::HeavyLightEngine` — heavy-light partitioned IVMε
    /// maintenance with O(N^max(ε,1−ε)) amortized updates for
    /// triangle-class cyclic queries over a ring.
    HeavyLight,
    /// `ivm_shard::ShardedEngine` — one dataflow per shard behind a
    /// routing facade.
    Sharded,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineKind::EagerFact => "eager-fact (factorized view tree)",
            EngineKind::Cqap => "cqap (fractured view trees)",
            EngineKind::DataflowMultiway => "dataflow (worst-case-optimal multiway)",
            EngineKind::HeavyLight => "heavy-light (IVM\u{3b5} partitioned)",
            EngineKind::Sharded => "sharded dataflow fleet",
        })
    }
}

/// A selection verdict: the engine to build plus the human-readable
/// reason `explain()` reports.
#[derive(Clone, Debug)]
pub struct Selection {
    /// The engine to stand up.
    pub kind: EngineKind,
    /// Why the dichotomy picked it.
    pub reason: String,
}

/// Pick the engine for a classified query.
///
/// `shards` is the builder's `.shards(n)` request (scale-out overrides
/// the single-threaded dichotomy — every class runs behind the shard
/// router, each shard running the multiway dataflow).
pub fn select(cls: &Classification, shards: Option<usize>) -> Selection {
    if let Some(n) = shards {
        return Selection {
            kind: EngineKind::Sharded,
            reason: format!(
                "scale-out requested: {n} hash-partitioned shard(s), each \
                 running the auto-planned dataflow for this query"
            ),
        };
    }
    match cls.class {
        QueryClass::CqapTractable => Selection {
            kind: EngineKind::Cqap,
            reason: "tractable CQAP (Thm 4.8): fractured view trees serve \
                     access requests with constant delay under O(1) updates"
                .into(),
        },
        QueryClass::QHierarchical if cls.self_join_free => Selection {
            kind: EngineKind::EagerFact,
            reason: "q-hierarchical (Thm 4.1): a factorized view tree gives \
                     O(1) updates and O(1) enumeration delay"
                .into(),
        },
        QueryClass::QHierarchical => Selection {
            kind: EngineKind::DataflowMultiway,
            reason: "q-hierarchical but with a self-join: view trees need \
                     unique relation names, so the generic dataflow engine \
                     maintains it instead"
                .into(),
        },
        QueryClass::Acyclic => Selection {
            kind: EngineKind::DataflowMultiway,
            reason: "acyclic but not q-hierarchical: no O(1)-update engine \
                     exists (OuMv-conditional); the multiway join binds \
                     each variable keyed by the ones before it and \
                     materializes no binary intermediates"
                .into(),
        },
        QueryClass::Cyclic if cls.hl_eligible => Selection {
            kind: EngineKind::HeavyLight,
            reason: "triangle-class cycle: heavy-light partitioned \
                     maintenance (IVM\u{3b5}) amortizes single-tuple updates \
                     to O(N^max(\u{3b5},1\u{2212}\u{3b5})) \u{2014} sublinear, where any \
                     join-at-a-time delta pass can be forced to \u{3a9}(N) \
                     (Sec. 3.3)"
                .into(),
        },
        QueryClass::Cyclic => Selection {
            kind: EngineKind::DataflowMultiway,
            reason: "cyclic hypergraph: the worst-case-optimal multiway \
                     join materializes no binary intermediates (Sec. 3.3)"
                .into(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use ivm_query::examples;

    #[test]
    fn selection_follows_the_table() {
        let pick = |q: &ivm_query::Query| select(&classify(q), None).kind;
        assert_eq!(pick(&examples::fig3_query()), EngineKind::EagerFact);
        assert_eq!(pick(&examples::retailer_query().0), EngineKind::EagerFact);
        assert_eq!(pick(&examples::triangle_count()), EngineKind::HeavyLight);
        // A cyclic query outside the heavy-light shape (self-join
        // triangle stripped of its access pattern) still goes multiway.
        let [a, b, c] = ivm_data::vars(["sel_tA", "sel_tB", "sel_tC"]);
        let e = ivm_data::sym("sel_tE");
        let self_join_tri = ivm_query::Query::new(
            "sel_tri",
            [],
            vec![
                ivm_query::Atom::new(e, [a, b]),
                ivm_query::Atom::new(e, [b, c]),
                ivm_query::Atom::new(e, [c, a]),
            ],
        );
        assert_eq!(pick(&self_join_tri), EngineKind::DataflowMultiway);
        assert_eq!(pick(&examples::triangle_detect_cqap()), EngineKind::Cqap);
        assert_eq!(pick(&examples::path3_query()), EngineKind::DataflowMultiway);
        assert_eq!(pick(&examples::ex51_query()), EngineKind::DataflowMultiway);
    }

    #[test]
    fn shards_override_everything() {
        let cls = classify(&examples::fig3_query());
        assert_eq!(select(&cls, Some(4)).kind, EngineKind::Sharded);
    }

    #[test]
    fn q_hierarchical_self_join_falls_back_to_dataflow() {
        // Q(a,b) = E(a,b)·E(a,b): q-hierarchical as a query, but the view
        // tree cannot store two atoms under one relation name.
        let [a, b] = ivm_data::vars(["sel_A", "sel_B"]);
        let e = ivm_data::sym("sel_E");
        let q = ivm_query::Query::new(
            "sel_sj",
            [a, b],
            vec![
                ivm_query::Atom::new(e, [a, b]),
                ivm_query::Atom::new(e, [a, b]),
            ],
        );
        let cls = classify(&q);
        assert!(cls.q_hierarchical && !cls.self_join_free);
        assert_eq!(select(&cls, None).kind, EngineKind::DataflowMultiway);
    }
}
