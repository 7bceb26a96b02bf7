//! The dichotomy analyses, bundled into one verdict.
//!
//! The paper's central message is that maintenance should start with
//! *classification*: the syntactic class of the query decides which
//! complexity an engine can achieve, before a single tuple flows. This
//! module runs every analysis `ivm_query` provides and condenses them
//! into the [`QueryClass`] that drives engine selection in
//! [`mod@crate::select`].

use ivm_query::acyclic::{is_acyclic, is_free_connex};
use ivm_query::{is_hierarchical, is_q_hierarchical, is_tractable_cqap, Query};

/// The class the selection dichotomy branches on, in precedence order.
///
/// The classes are not disjoint as query properties (every q-hierarchical
/// query is free-connex acyclic, Sec. 4.1); `classify` reports the
/// *strongest* applicable class, because that is the one whose engine has
/// the best guarantees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryClass {
    /// Has an access pattern `Q(O | I)` and is a tractable CQAP
    /// (Thm 4.8): O(1) update, O(1) access delay.
    CqapTractable,
    /// q-hierarchical (Thm 4.1): O(|D|) preprocessing, O(1) single-tuple
    /// update, O(1) enumeration delay.
    QHierarchical,
    /// α-acyclic but not q-hierarchical: no O(1)-update engine exists
    /// (conditional on OuMv), but acyclic join plans avoid intermediate
    /// blow-up beyond O(|δQ|) per batch.
    Acyclic,
    /// Cyclic hypergraph (triangle, 4-cycle, …): worst-case-optimal
    /// multiway delta joins are the only plans that avoid binary
    /// intermediates dwarfing the output (Sec. 3.3).
    Cyclic,
}

impl std::fmt::Display for QueryClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            QueryClass::CqapTractable => "tractable CQAP",
            QueryClass::QHierarchical => "q-hierarchical",
            QueryClass::Acyclic => "acyclic (not q-hierarchical)",
            QueryClass::Cyclic => "cyclic",
        })
    }
}

/// Everything the analyses said about one query — the raw flags behind
/// the condensed [`QueryClass`], kept so `explain()` can show its work.
#[derive(Clone, Debug)]
pub struct Classification {
    /// The strongest applicable class (selection branches on this).
    pub class: QueryClass,
    /// Hierarchical (Def. 4.2, without the freeness condition).
    pub hierarchical: bool,
    /// q-hierarchical (Def. 4.2).
    pub q_hierarchical: bool,
    /// α-acyclic by GYO reduction.
    pub acyclic: bool,
    /// Free-connex: acyclic and still acyclic with a head hyperedge.
    pub free_connex: bool,
    /// No relation symbol occurs twice. View trees require this
    /// (per-relation storage is keyed by name), so a q-hierarchical
    /// *self-join* still runs on the dataflow engine.
    pub self_join_free: bool,
    /// The query declares input variables (`Q(O | I)`).
    pub has_access_pattern: bool,
    /// The access pattern satisfies Thm 4.8 (hierarchical + free- and
    /// input-dominant after fracturing).
    pub tractable_cqap: bool,
    /// The heavy-light (IVMε) engine admits this query: a triangle-class
    /// cycle of three distinct binary relations with no free variables,
    /// the shape with sublinear O(N^max(ε,1−ε)) amortized updates
    /// (Sec. 3.3). Feeds both auto-selection and the adaptive layer's
    /// cross-family replanning.
    pub hl_eligible: bool,
}

/// Run every dichotomy analysis on `q`.
pub fn classify(q: &Query) -> Classification {
    let has_access_pattern = !q.input.is_empty();
    let tractable_cqap = has_access_pattern && is_tractable_cqap(q);
    let hierarchical = is_hierarchical(q);
    let q_hierarchical = is_q_hierarchical(q);
    let acyclic = is_acyclic(q);
    let free_connex = acyclic && is_free_connex(q);
    let self_join_free = q.is_self_join_free();
    let hl_eligible = ivm_hl::admits(q);
    let class = if tractable_cqap {
        QueryClass::CqapTractable
    } else if q_hierarchical {
        QueryClass::QHierarchical
    } else if acyclic {
        QueryClass::Acyclic
    } else {
        QueryClass::Cyclic
    };
    Classification {
        class,
        hierarchical,
        q_hierarchical,
        acyclic,
        free_connex,
        self_join_free,
        has_access_pattern,
        tractable_cqap,
        hl_eligible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_query::examples;

    #[test]
    fn paper_examples_land_in_their_classes() {
        assert_eq!(
            classify(&examples::fig3_query()).class,
            QueryClass::QHierarchical
        );
        assert_eq!(
            classify(&examples::retailer_query().0).class,
            QueryClass::QHierarchical
        );
        assert_eq!(
            classify(&examples::triangle_count()).class,
            QueryClass::Cyclic
        );
        assert_eq!(
            classify(&examples::triangle_detect_cqap()).class,
            QueryClass::CqapTractable
        );
        assert_eq!(
            classify(&examples::path3_query()).class,
            QueryClass::Acyclic
        );
        assert_eq!(classify(&examples::ex51_query()).class, QueryClass::Acyclic);
        // The intractable CQAP falls through to the underlying hypergraph
        // class (cyclic: it is the triangle).
        let c = classify(&examples::edge_triangle_listing_cqap());
        assert!(c.has_access_pattern && !c.tractable_cqap);
        assert_eq!(c.class, QueryClass::Cyclic);
    }

    #[test]
    fn hl_eligibility_is_reported() {
        // The distinct-relation triangle is the heavy-light shape; the
        // self-join triangle and the acyclic chain are not.
        assert!(classify(&examples::triangle_count()).hl_eligible);
        assert!(!classify(&examples::triangle_detect_cqap()).hl_eligible);
        assert!(!classify(&examples::path3_query()).hl_eligible);
    }

    #[test]
    fn self_join_flag_is_reported() {
        assert!(!classify(&examples::triangle_detect_cqap()).self_join_free);
        assert!(classify(&examples::fig3_query()).self_join_free);
    }
}
