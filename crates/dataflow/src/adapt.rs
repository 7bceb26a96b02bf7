//! Adaptive replanning: learned cardinalities and the replan policy.
//!
//! Every dataflow plan is lowered from a [`Cardinalities`] snapshot taken
//! at build time. A session built before data arrives — the common
//! streaming pattern — cost-orders its joins from all-zero counts, so its
//! atom and variable orders are pure tie-break noise, and nothing ever
//! reconsiders them as the update stream makes the plan arbitrarily bad.
//! The heavy-light and IVMε lines of work (Abo-Khamis et al.; Kara et
//! al.) get their guarantees precisely by adapting the maintenance
//! strategy to *observed* relation sizes and skew. This module supplies
//! the two pieces a caller needs to do the same:
//!
//! * [`LearnedCardinalities`] — live per-relation sizes and per-key
//!   degrees, counted from the presence transitions the owner of the base
//!   state reports as it applies each update (O(1) per update);
//! * [`ReplanPolicy`] — decides *when* a re-lowering pays for itself, by
//!   comparing the variable order the running plan was lowered from
//!   against what [`cost::variable_order`] would derive from the learned
//!   counts (first data after a blind build, or a predicted-cost ratio
//!   with hysteresis), and when skew makes the heavy-light family the
//!   better one.
//!
//! The policy only decides; the *mechanism* is
//! [`DataflowEngine::replan_with_cards`](crate::DataflowEngine::replan_with_cards)
//! (and its sharded broadcast counterpart), which the session layer
//! invokes with the decision's learned snapshot.

use crate::cost::{self, Cardinalities};
use ivm_data::{Database, FxHashMap, Presence, Sym, Tuple, Value};
use ivm_query::Query;
use ivm_ring::Semiring;

/// Exact per-key degree counts for one binary relation: how many distinct
/// partners each first-column key currently has — the statistic the
/// heavy-light family thresholds on (a key is *heavy* at degree ≥ N^ε).
/// A count, not a partner set: the base relation already knows which
/// pairs are present, so its owner feeds each pair's [`Presence`]
/// transition in and the sketch only adds or subtracts one.
///
/// Beside each key's degree the sketch counts the keys at each degree, so
/// the maximum moves in O(1) per note: a key moves one degree at a time,
/// so when the top degree loses its last key, that key now sits one lower.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegreeSketch {
    degrees: FxHashMap<Value, u64>,
    /// `keys_at[d]`: how many keys have degree `d ≥ 1`. Its last index is
    /// the maximum degree (empty when no key has a partner), so the
    /// vector is a function of `degrees` and equal sketches compare equal.
    keys_at: Vec<usize>,
}

impl DegreeSketch {
    /// Count a pair with first column `x` appearing in, or vanishing
    /// from, the relation. Keys whose degree returns to zero are dropped.
    pub fn note(&mut self, x: &Value, change: Presence) {
        match change {
            Presence::Appeared => {
                let d = self.degrees.entry(x.clone()).or_default();
                *d += 1;
                let new = *d;
                self.move_key(new - 1, new);
            }
            Presence::Vanished => {
                if let Some(d) = self.degrees.get_mut(x) {
                    let old = *d;
                    *d -= 1;
                    if *d == 0 {
                        self.degrees.remove(x);
                    }
                    self.move_key(old, old - 1);
                }
            }
            Presence::Unchanged => {}
        }
    }

    /// Move one key from degree `from` to degree `to` (either may be 0,
    /// the absent key) in the per-degree counts.
    fn move_key(&mut self, from: u64, to: u64) {
        let (from, to) = (from as usize, to as usize);
        if to >= self.keys_at.len() {
            self.keys_at.resize(to + 1, 0);
        }
        if to > 0 {
            self.keys_at[to] += 1;
        }
        if from > 0 {
            self.keys_at[from] -= 1;
        }
        // The top degree emptied: the key moved one below it, or, at
        // degree 1, left the sketch (and `keys_at[0]` is never counted).
        if self.keys_at.last() == Some(&0) {
            self.keys_at.pop();
            if self.keys_at.len() == 1 {
                self.keys_at.pop();
            }
        }
    }

    /// The current degree (distinct present partners) of `x`.
    pub fn degree(&self, x: &Value) -> u64 {
        self.degrees.get(x).copied().unwrap_or(0)
    }

    /// The largest degree of any key — the skew statistic the family
    /// policy compares against the N^ε sublinear bound.
    pub fn max_degree(&self) -> u64 {
        self.keys_at.len().saturating_sub(1) as u64
    }

    /// How many keys have degree ≥ `threshold` (the would-be heavy set).
    pub fn keys_at_least(&self, threshold: u64) -> usize {
        if threshold == 0 {
            return self.degrees.len();
        }
        let from = usize::try_from(threshold).unwrap_or(usize::MAX);
        self.keys_at.get(from..).map_or(0, |at| at.iter().sum())
    }

    /// Per-key degrees sorted by key, for persistence: identical sketches
    /// export identical byte streams.
    pub fn export(&self) -> Vec<(Value, u64)> {
        let mut out: Vec<(Value, u64)> =
            self.degrees.iter().map(|(k, &d)| (k.clone(), d)).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }
}

/// Live per-relation sizes and per-key degrees, counted from the update
/// stream.
///
/// The tracker belongs to whoever owns the base relations (the session's
/// one base store): seed it from that base with [`refresh`](Self::refresh)
/// — and [`rebuild_degrees`](Self::rebuild_degrees) when the skew
/// statistic is wanted — then feed every applied update's [`Presence`]
/// transition through [`observe`](Self::observe). Counts stay exact at
/// O(1) per update with no second look at the base; degrees are kept only
/// for the binary relations `rebuild_degrees` seeded (the shape the
/// heavy-light family partitions).
#[derive(Clone, Debug, Default)]
pub struct LearnedCardinalities {
    sizes: FxHashMap<Sym, usize>,
    degrees: FxHashMap<Sym, DegreeSketch>,
}

impl LearnedCardinalities {
    /// A tracker that has seen nothing yet.
    pub fn new() -> Self {
        LearnedCardinalities::default()
    }

    /// Snapshot the live size of every relation of `q` from `db` (the
    /// maintained base state).
    pub fn refresh<R: Semiring>(&mut self, db: &Database<R>, q: &Query) {
        for atom in &q.atoms {
            self.sizes
                .insert(atom.name, db.get(atom.name).map_or(0, |r| r.len()));
        }
    }

    /// Count one applied update: `change` is what it did to `tuple`'s
    /// presence in `relation`, as [`Database::apply`] reports it. Moves
    /// the relation's size and, where degrees are tracked, the degree of
    /// the tuple's first column. The tracker must have been seeded from
    /// the base the update hit, or a tuple it never counted underflows.
    pub fn observe(&mut self, relation: Sym, tuple: &Tuple, change: Presence) {
        match change {
            Presence::Unchanged => return,
            Presence::Appeared => *self.sizes.entry(relation).or_default() += 1,
            Presence::Vanished => *self.sizes.entry(relation).or_default() -= 1,
        }
        if let Some(sketch) = self.degrees.get_mut(&relation) {
            sketch.note(tuple.at(0), change);
        }
    }

    /// The learned live size of `relation` (0 when never seen).
    pub fn get(&self, relation: Sym) -> usize {
        self.sizes.get(&relation).copied().unwrap_or(0)
    }

    /// Whether any relation has been observed non-empty.
    pub fn has_data(&self) -> bool {
        self.sizes.values().any(|&n| n > 0)
    }

    /// The total live base size `Σ |R_i|` over the learned relations —
    /// the policy's estimate of what a replan's replay would cost.
    pub fn total_size(&self) -> u64 {
        self.sizes.values().map(|&n| n as u64).sum()
    }

    /// The learned counts as a [`Cardinalities`] snapshot, ready to feed
    /// a re-lowering.
    pub fn to_cardinalities(&self) -> Cardinalities {
        let mut cards = Cardinalities::none();
        for (&rel, &n) in &self.sizes {
            cards.set(rel, n);
        }
        cards
    }

    /// Count every binary relation's per-key degrees from the base state
    /// in one scan, and track them from here on — the seed over a
    /// populated base, and the reference maintained counts must equal.
    pub fn rebuild_degrees<R: Semiring>(&mut self, db: &Database<R>, q: &Query) {
        self.degrees.clear();
        for atom in &q.atoms {
            // A self-join names one relation in several atoms: count it once.
            if atom.schema.arity() != 2 || self.degrees.contains_key(&atom.name) {
                continue;
            }
            let Some(rel) = db.get(atom.name) else {
                continue;
            };
            let sketch = self.degrees.entry(atom.name).or_default();
            for (t, _) in rel.iter() {
                sketch.note(t.at(0), Presence::Appeared);
            }
        }
    }

    /// The degree sketch of `relation`, when one is tracked.
    pub fn degree_sketch(&self, relation: Sym) -> Option<&DegreeSketch> {
        self.degrees.get(&relation)
    }

    /// The largest per-key degree across every tracked relation — the
    /// skew statistic [`ReplanPolicy::decide_family`] weighs against the
    /// N^ε sublinear bound.
    pub fn max_degree_any(&self) -> u64 {
        self.degrees
            .values()
            .map(|s| s.max_degree())
            .max()
            .unwrap_or(0)
    }

    /// Export every tracked degree sketch for persistence, sorted by
    /// relation name (and by key within each sketch).
    pub fn export_degrees(&self) -> Vec<(Sym, Vec<(Value, u64)>)> {
        let mut out: Vec<(Sym, Vec<(Value, u64)>)> = self
            .degrees
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(&rel, s)| (rel, s.export()))
            .collect();
        out.sort_by_key(|(rel, _)| rel.name());
        out
    }
}

/// Which of the policy's three triggers fired a replan. The session's
/// replan timeline renders these as short names, so an `explain()` reads
/// as an audit log rather than a debug dump.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplanTrigger {
    /// A blind-built plan re-lowered the moment learned counts would
    /// order it differently.
    FirstData,
    /// Predicted cost ratio of running vs. fresh orders crossed the
    /// threshold.
    CostRatio,
    /// Learned skew crossed the N^ε boundary: the *engine family*
    /// switched (dataflow ↔ heavy-light), not just the plan within one.
    FamilyShift,
}

impl ReplanTrigger {
    /// Short stable name, used in timelines and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            ReplanTrigger::FirstData => "first-data",
            ReplanTrigger::CostRatio => "cost-ratio",
            ReplanTrigger::FamilyShift => "family-shift",
        }
    }
}

/// The two backend *families* the adaptive layer can re-select between
/// mid-stream. Order replans re-derive the variable order within the
/// dataflow family; a family shift tears the backend down and rebuilds the
/// other kind from the session's base, carrying the learned statistics
/// across.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineFamily {
    /// Delta-dataflow: the worst-case-optimal multiway join.
    Dataflow,
    /// Heavy-light partitioned IVMε maintenance.
    HeavyLight,
}

impl std::fmt::Display for EngineFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineFamily::Dataflow => "dataflow",
            EngineFamily::HeavyLight => "heavy-light",
        })
    }
}

/// A family-shift verdict: rebuild the backend as `to`, seeded with the
/// learned `cards`, for the stated `reason`.
#[derive(Clone, Debug)]
pub struct FamilyDecision {
    /// The family to rebuild as.
    pub to: EngineFamily,
    /// The learned snapshot for the rebuild's lowering (dataflow only
    /// consults it, but carrying it keeps the contract uniform).
    pub cards: Cardinalities,
    /// Human-readable trigger, recorded in the session's replan events.
    pub reason: String,
}

impl std::fmt::Display for ReplanTrigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A policy verdict: re-lower with the variable order derived from
/// `cards`, for the stated `reason`.
#[derive(Clone, Debug)]
pub struct ReplanDecision {
    /// The learned snapshot to derive the fresh variable order from.
    pub cards: Cardinalities,
    /// Which trigger fired (machine-readable counterpart of `reason`).
    pub trigger: ReplanTrigger,
    /// Human-readable trigger, recorded in the session's replan events.
    pub reason: String,
}

/// When is a re-lowering worth its replay cost?
///
/// Two triggers, in priority order:
///
/// 1. **First data.** A plan lowered from all-zero/unknown counts (blind
///    build) re-lowers as soon as learned counts would order it
///    differently — no hysteresis, because the blind order was never a
///    decision to respect. (When the informed order happens to *equal*
///    the blind tie-break, the plan stays blind, and it re-lowers the
///    first time later counts do order it differently.)
/// 2. **Predicted reorder.** If the fresh variable order from learned
///    counts differs from the running plan's and the cost proxy rates the
///    running order ≥ `min_cost_ratio` times the fresh one, re-derive it.
///
/// Trigger 2 is doubly gated so thrashing is structurally
/// impossible, not merely unlikely: by `min_batches_between` (a clock in
/// ingestion calls since the last replan) *and* by replay amortization —
/// the window must have ingested at least `min_replay_fraction` of the
/// live base size in updates, because a replan replays the whole base, so
/// tying replans to ingested volume bounds total replay work at
/// `1/min_replay_fraction` times the stream's own work whatever the
/// batch size (per-update `apply` streams included).
#[derive(Clone, Copy, Debug)]
pub struct ReplanPolicy {
    /// Minimum ingestion calls (batches, or single updates on the
    /// `apply` path) between two policy-triggered replans.
    pub min_batches_between: u64,
    /// Minimum fraction of the live base size that must have been
    /// ingested (as updates) since the last replan — the amortization
    /// gate over the replay a replan costs.
    pub min_replay_fraction: f64,
    /// Minimum predicted cost ratio (current ÷ fresh) before a reorder
    /// fires.
    pub min_cost_ratio: f64,
    /// Skew margin for the cross-family switch: dataflow → heavy-light
    /// fires when the largest learned key degree reaches
    /// `family_cost_ratio × N^max(ε,1−ε)` (a delta pass pays O(d_max) per
    /// hub update where heavy-light pays O(N^max(ε,1−ε))); the reverse
    /// switch fires when the degree falls to `1/family_cost_ratio` of the
    /// bound, so the band between is hysteresis.
    pub family_cost_ratio: f64,
    /// The ε the family comparison (and a heavy-light rebuild) uses.
    pub eps: f64,
}

impl Default for ReplanPolicy {
    fn default() -> Self {
        ReplanPolicy {
            min_batches_between: 16,
            min_replay_fraction: 0.1,
            min_cost_ratio: 1.5,
            family_cost_ratio: 4.0,
            eps: 0.5,
        }
    }
}

impl ReplanPolicy {
    /// Decide whether the running plan should be re-lowered.
    ///
    /// * `lowered_cards` — the snapshot the running plan's variable order
    ///   was derived from;
    /// * `learned` — live counts from the stream;
    /// * `window_updates` — updates ingested since the last replan (or
    ///   build);
    /// * `batches_since_replan` — the hysteresis clock.
    ///
    /// Returns `None` when the plan should stand.
    pub fn decide(
        &self,
        q: &Query,
        lowered_cards: &Cardinalities,
        learned: &LearnedCardinalities,
        window_updates: u64,
        batches_since_replan: u64,
    ) -> Option<ReplanDecision> {
        if !learned.has_data() {
            return None;
        }
        let cards = learned.to_cardinalities();
        let running = cost::variable_order(q, lowered_cards);
        let fresh = cost::variable_order(q, &cards);
        if running == fresh {
            return None;
        }

        // 1. First data after a blind build: the running order is tie-
        // break noise; adopt the informed one the moment it differs.
        if lowered_cards.is_blind_for(q) {
            return Some(ReplanDecision {
                cards,
                trigger: ReplanTrigger::FirstData,
                reason: "first non-empty data: the plan was lowered from \
                         all-zero cardinalities, so its variable order was \
                         pure tie-breaking"
                    .into(),
            });
        }

        // Hysteresis clock AND replay amortization: a replan replays the
        // whole base, so the window must be both old enough and large
        // enough (in ingested updates relative to the base) to pay it off.
        if batches_since_replan < self.min_batches_between
            || (window_updates as f64) < self.min_replay_fraction * learned.total_size() as f64
        {
            return None;
        }

        // 2. Predicted reorder.
        let current = cost::multiway_cost(q, &running, &cards);
        let fresh = cost::multiway_cost(q, &fresh, &cards).max(f64::MIN_POSITIVE);
        (current >= self.min_cost_ratio * fresh).then(|| ReplanDecision {
            cards,
            trigger: ReplanTrigger::CostRatio,
            reason: format!(
                "learned cardinalities rate the running variable order \
                 {:.1}× the fresh one (threshold {:.1}×); re-deriving it",
                current / fresh,
                self.min_cost_ratio
            ),
        })
    }
}

impl ReplanPolicy {
    /// Decide whether the backend *family* should switch — the
    /// cross-family counterpart of [`decide`](Self::decide), consulted
    /// first by adaptive sessions whose query admits the heavy-light
    /// engine.
    ///
    /// The comparison is the heavy-light complexity argument read off the
    /// learned statistics: a delta-dataflow pass pays O(d_max) work for an
    /// update touching the most skewed key, while the partitioned engine
    /// bounds every update by O(N^max(ε,1−ε)). When the observed `d_max`
    /// exceeds that bound by `family_cost_ratio`, skew has made the
    /// dataflow family the wrong one; when it falls below the bound by
    /// the same ratio, the auxiliary views stop paying for themselves.
    /// Both directions share [`decide`](Self::decide)'s double gate
    /// (hysteresis clock and replay amortization) because a family shift
    /// replays the whole base too.
    pub fn decide_family(
        &self,
        current: EngineFamily,
        hl_eligible: bool,
        learned: &LearnedCardinalities,
        window_updates: u64,
        batches_since_replan: u64,
    ) -> Option<FamilyDecision> {
        if !hl_eligible || !learned.has_data() {
            return None;
        }
        if batches_since_replan < self.min_batches_between
            || (window_updates as f64) < self.min_replay_fraction * learned.total_size() as f64
        {
            return None;
        }
        let n = learned.total_size().max(1) as f64;
        let bound = n.powf(self.eps.max(1.0 - self.eps)).max(1.0);
        let d_max = learned.max_degree_any() as f64;
        match current {
            EngineFamily::Dataflow if d_max >= self.family_cost_ratio * bound => {
                Some(FamilyDecision {
                    to: EngineFamily::HeavyLight,
                    cards: learned.to_cardinalities(),
                    reason: format!(
                        "learned skew: max key degree {d_max:.0} ≥ {:.1}× the \
                         N^max(ε,1−ε) bound {bound:.0} (N={n:.0}, ε={}); \
                         switching to the heavy-light family for sublinear \
                         amortized updates",
                        self.family_cost_ratio, self.eps
                    ),
                })
            }
            EngineFamily::HeavyLight if d_max * self.family_cost_ratio <= bound => {
                Some(FamilyDecision {
                    to: EngineFamily::Dataflow,
                    cards: learned.to_cardinalities(),
                    reason: format!(
                        "skew subsided: max key degree {d_max:.0} ≤ the \
                         N^max(ε,1−ε) bound {bound:.0} / {:.1} (N={n:.0}, \
                         ε={}); the auxiliary views no longer pay for \
                         themselves, returning to the dataflow family",
                        self.family_cost_ratio, self.eps
                    ),
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_core::Maintainer;
    use ivm_data::ops::lift_one;
    use ivm_data::{sym, tup, vars, Update};
    use ivm_query::Atom;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The per-degree counts answer `max_degree` and `keys_at_least`
        /// as a scan of every key's degree would, after every note.
        #[test]
        fn degree_counts_match_a_scan(
            notes in proptest::collection::vec((0i64..6, any::<bool>()), 0..160),
        ) {
            let mut sketch = DegreeSketch::default();
            let mut degrees: FxHashMap<Value, u64> = FxHashMap::default();
            for (key, appeared) in notes {
                let x = Value::Int(key);
                if appeared {
                    sketch.note(&x, Presence::Appeared);
                    *degrees.entry(x).or_default() += 1;
                } else {
                    sketch.note(&x, Presence::Vanished);
                    if let Some(d) = degrees.get_mut(&x) {
                        *d -= 1;
                        if *d == 0 {
                            degrees.remove(&x);
                        }
                    }
                }
                let max = degrees.values().copied().max().unwrap_or(0);
                prop_assert_eq!(sketch.max_degree(), max);
                for t in 0..=max + 1 {
                    let scan = degrees.values().filter(|&&d| d >= t).count();
                    prop_assert_eq!(sketch.keys_at_least(t), scan, "threshold {}", t);
                }
                prop_assert_eq!(sketch.keys_at_least(u64::MAX), 0);
            }
        }
    }

    /// R(a,b)·S(b,c)·T(c,d) — acyclic, order-sensitive.
    fn chain() -> Query {
        let [a, b, c, d] = vars(["ad_A", "ad_B", "ad_C", "ad_D"]);
        Query::new(
            "ad_chain",
            [a, d],
            vec![
                Atom::new(sym("ad_R"), [a, b]),
                Atom::new(sym("ad_S"), [b, c]),
                Atom::new(sym("ad_T"), [c, d]),
            ],
        )
    }

    #[test]
    fn learned_cards_track_live_sizes() {
        let q = chain();
        let r = sym("ad_R");
        let mut db: Database<i64> = Database::new();
        db.create(r, q.atoms[0].schema.clone());
        let mut learned = LearnedCardinalities::new();
        assert!(!learned.has_data());
        db.apply(&Update::insert(r, tup![1i64, 2i64]));
        db.apply(&Update::insert(r, tup![3i64, 4i64]));
        learned.refresh(&db, &q);
        assert!(learned.has_data());
        assert_eq!(learned.get(r), 2);
        assert_eq!(learned.get(sym("ad_S")), 0);
        assert_eq!(learned.total_size(), 2);
        // A delete shrinks the live count — these are sizes, not totals.
        db.apply(&Update::delete(r, tup![1i64, 2i64]));
        learned.refresh(&db, &q);
        assert_eq!(learned.get(r), 1);
        assert_eq!(learned.to_cardinalities().get(r), 1);
    }

    fn learned_with(sizes: &[(Sym, usize)]) -> LearnedCardinalities {
        let mut l = LearnedCardinalities::new();
        let mut db: Database<i64> = Database::new();
        let q = chain();
        for atom in &q.atoms {
            db.create(atom.name, atom.schema.clone());
        }
        for &(rel, n) in sizes {
            for i in 0..n as i64 {
                db.apply(&Update::with_payload(rel, tup![i, i + 1], 1));
            }
        }
        l.refresh(&db, &q);
        l
    }

    #[test]
    fn blind_build_replans_on_first_data_without_hysteresis() {
        let q = chain();
        let policy = ReplanPolicy::default();
        // Sizes that flip the variable order: T's c opens it.
        let learned = learned_with(&[(sym("ad_R"), 50), (sym("ad_S"), 20), (sym("ad_T"), 1)]);
        let dec = policy
            .decide(
                &q,
                &Cardinalities::none(),
                &learned,
                0,
                0, // no batches elapsed: hysteresis must not block this
            )
            .expect("blind build must replan on first data");
        assert_eq!(dec.trigger, ReplanTrigger::FirstData);
        assert_eq!(dec.trigger.name(), "first-data");
        assert!(dec.reason.contains("all-zero"));
        assert_eq!(dec.cards.get(sym("ad_T")), 1);
    }

    #[test]
    fn identical_orders_do_not_replan() {
        let q = chain();
        let policy = ReplanPolicy::default();
        // Sizes under which the informed order equals the blind one.
        let learned = learned_with(&[(sym("ad_R"), 1), (sym("ad_S"), 2), (sym("ad_T"), 3)]);
        let blind = Cardinalities::none();
        assert!(policy.decide(&q, &blind, &learned, 30, 64).is_none());
        // The plan stays blind: once later counts do order it
        // differently, the first-data trigger still fires.
        let flipped = learned_with(&[(sym("ad_R"), 3), (sym("ad_S"), 2), (sym("ad_T"), 1)]);
        let dec = policy
            .decide(&q, &blind, &flipped, 30, 64)
            .expect("a still-blind plan replans once the orders differ");
        assert_eq!(dec.trigger, ReplanTrigger::FirstData);
    }

    #[test]
    fn hysteresis_blocks_early_informed_replans() {
        let q = chain();
        let policy = ReplanPolicy::default();
        let mut old = Cardinalities::none();
        old.set(sym("ad_R"), 1)
            .set(sym("ad_S"), 2)
            .set(sym("ad_T"), 3);
        // Sizes have inverted hard — but the plan was informed, so the
        // hysteresis clock and the replay-amortization gate both apply.
        let learned = learned_with(&[(sym("ad_R"), 500), (sym("ad_S"), 20), (sym("ad_T"), 1)]);
        // 200 updates: well past min_replay_fraction × 521.
        assert!(policy.decide(&q, &old, &learned, 200, 3).is_none());
        let dec = policy
            .decide(&q, &old, &learned, 200, 16)
            .expect("inverted sizes past hysteresis must reorder");
        assert_eq!(dec.trigger, ReplanTrigger::CostRatio);
        assert!(dec.reason.contains("re-deriving"));
        // A thin window (few updates ingested relative to the base the
        // replan would replay) blocks the reorder however old the clock:
        // replay work stays amortized against ingestion volume even on
        // per-update `apply` streams.
        assert!(policy.decide(&q, &old, &learned, 10, 1_000).is_none());
    }

    #[test]
    fn no_data_never_replans() {
        let q = chain();
        let policy = ReplanPolicy::default();
        assert!(policy
            .decide(
                &q,
                &Cardinalities::none(),
                &LearnedCardinalities::new(),
                0,
                1_000,
            )
            .is_none());
    }

    /// Apply `batch` to `db` and feed each presence transition to
    /// `learned` — what the owner of a base store does per update.
    fn apply_observed(
        db: &mut Database<i64>,
        learned: &mut LearnedCardinalities,
        batch: &[Update<i64>],
    ) {
        for u in batch {
            let change = db.apply(u);
            learned.observe(u.relation, &u.tuple, change);
        }
    }

    #[test]
    fn degree_counts_follow_presence_transitions() {
        let q = chain();
        let r = sym("ad_R");
        let mut db: Database<i64> = Database::new();
        db.create(r, q.atoms[0].schema.clone());
        let mut learned = LearnedCardinalities::new();
        learned.rebuild_degrees(&db, &q);
        let mut batch = vec![
            Update::insert(r, tup![0i64, 1i64]),
            Update::insert(r, tup![0i64, 2i64]),
            Update::insert(r, tup![5i64, 1i64]),
        ];
        apply_observed(&mut db, &mut learned, &batch);
        let sketch = learned.degree_sketch(r).unwrap();
        assert_eq!(sketch.degree(&Value::from(0i64)), 2);
        assert_eq!(sketch.max_degree(), 2);
        assert_eq!(learned.max_degree_any(), 2);
        assert_eq!(sketch.keys_at_least(2), 1);
        assert_eq!(learned.get(r), 3);
        // A delete drops the pair; multiplicity bumps don't change degree.
        batch = vec![
            Update::delete(r, tup![0i64, 2i64]),
            Update::insert(r, tup![5i64, 1i64]),
        ];
        apply_observed(&mut db, &mut learned, &batch);
        let sketch = learned.degree_sketch(r).unwrap();
        assert_eq!(sketch.degree(&Value::from(0i64)), 1);
        assert_eq!(sketch.degree(&Value::from(5i64)), 1);
        assert_eq!(learned.get(r), 2);
        // Counting the base from scratch gives the identical sketch (and
        // the identical sorted export), so recovery re-learns nothing.
        let observed = learned.export_degrees();
        let mut rebuilt = LearnedCardinalities::new();
        rebuilt.rebuild_degrees(&db, &q);
        assert_eq!(rebuilt.export_degrees(), observed);
    }

    /// A self-join names one relation in three atoms; the counting scan
    /// must visit it once, not once per atom.
    #[test]
    fn rebuild_counts_a_self_joined_relation_once() {
        let [a, b, c] = vars(["ad_sa", "ad_sb", "ad_sc"]);
        let e = sym("ad_E");
        let q = Query::new(
            "ad_self",
            [],
            vec![
                Atom::new(e, [a, b]),
                Atom::new(e, [b, c]),
                Atom::new(e, [c, a]),
            ],
        );
        let mut db: Database<i64> = Database::new();
        db.create(e, q.atoms[0].schema.clone());
        db.apply(&Update::insert(e, tup![0i64, 1i64]));
        db.apply(&Update::insert(e, tup![0i64, 2i64]));
        let mut learned = LearnedCardinalities::new();
        learned.rebuild_degrees(&db, &q);
        assert_eq!(learned.max_degree_any(), 2);
    }

    #[test]
    fn family_shift_follows_learned_skew_with_hysteresis() {
        let q = chain();
        let policy = ReplanPolicy {
            min_batches_between: 4,
            ..ReplanPolicy::default()
        };
        let r = sym("ad_R");
        let mut db: Database<i64> = Database::new();
        for atom in &q.atoms {
            db.create(atom.name, atom.schema.clone());
        }
        // 100 tuples, all sharing one hub key: d_max = 100 ≫ 4·√100.
        let batch: Vec<Update<i64>> = (0..100i64)
            .map(|i| Update::insert(r, tup![0i64, i]))
            .collect();
        let mut learned = LearnedCardinalities::new();
        learned.rebuild_degrees(&db, &q);
        apply_observed(&mut db, &mut learned, &batch);

        // Ineligible queries never shift family.
        assert!(policy
            .decide_family(EngineFamily::Dataflow, false, &learned, 100, 100)
            .is_none());
        // The double gate applies: young clock or thin window → stand.
        assert!(policy
            .decide_family(EngineFamily::Dataflow, true, &learned, 100, 2)
            .is_none());
        assert!(policy
            .decide_family(EngineFamily::Dataflow, true, &learned, 3, 100)
            .is_none());
        let dec = policy
            .decide_family(EngineFamily::Dataflow, true, &learned, 100, 100)
            .expect("hub skew past both gates must shift the family");
        assert_eq!(dec.to, EngineFamily::HeavyLight);
        assert!(dec.reason.contains("heavy-light"));
        assert_eq!(dec.cards.get(r), 100);
        // Already heavy-light: the same skew is where we want to be.
        assert!(policy
            .decide_family(EngineFamily::HeavyLight, true, &learned, 100, 100)
            .is_none());

        // Skew subsides (degree-1 keys only): heavy-light returns to
        // dataflow, but dataflow itself sits happily in the band.
        let mut flat_db: Database<i64> = Database::new();
        for atom in &q.atoms {
            flat_db.create(atom.name, atom.schema.clone());
        }
        let flat: Vec<Update<i64>> = (0..100i64)
            .map(|i| Update::insert(r, tup![i, i + 1]))
            .collect();
        let mut calm = LearnedCardinalities::new();
        calm.rebuild_degrees(&flat_db, &q);
        apply_observed(&mut flat_db, &mut calm, &flat);
        assert_eq!(calm.max_degree_any(), 1);
        let back = policy
            .decide_family(EngineFamily::HeavyLight, true, &calm, 100, 100)
            .expect("flat degrees must return to dataflow");
        assert_eq!(back.to, EngineFamily::Dataflow);
        assert!(policy
            .decide_family(EngineFamily::Dataflow, true, &calm, 100, 100)
            .is_none());
    }

    /// The end-to-end mechanism behind the policy: a blind-built engine
    /// re-lowered with learned cards converges to the plan a populated
    /// build would have produced.
    #[test]
    fn replan_with_cards_matches_populated_build() {
        let q = chain();
        let (rn, sn, tn) = (sym("ad_R"), sym("ad_S"), sym("ad_T"));
        let mut blind =
            crate::DataflowEngine::<i64>::new(q.clone(), &Database::new(), lift_one).unwrap();
        let mut db: Database<i64> = Database::new();
        for atom in &q.atoms {
            db.create(atom.name, atom.schema.clone());
        }
        let mut learned = LearnedCardinalities::new();
        let mut batch = Vec::new();
        for i in 0..40i64 {
            batch.push(Update::insert(rn, tup![i, i + 1]));
        }
        for i in 0..10i64 {
            batch.push(Update::insert(sn, tup![i + 1, i + 2]));
        }
        batch.push(Update::insert(tn, tup![2i64, 3i64]));
        blind.apply_batch(&batch).unwrap();
        db.apply_batch(&batch);
        learned.refresh(&db, &q);

        let blind_plan = blind.plan();
        blind
            .replan_with_cards(&db, learned.to_cardinalities())
            .unwrap();
        let populated = crate::DataflowEngine::<i64>::new(q, &db, lift_one).unwrap();
        assert_ne!(blind.plan(), blind_plan);
        assert_eq!(blind.plan(), populated.plan());
        assert_eq!(
            blind.output_relation().len(),
            populated.output_relation().len()
        );
    }
}
