//! The delta-dataflow operator DAG.
//!
//! A [`Dataflow`] is a topologically ordered DAG of operators over one ring
//! `R`. Each [`apply_batch`](Dataflow::apply_batch) consolidates the batch
//! (see [`DeltaBatch`]), then pushes one delta relation through every node
//! in topological order. Operators are *linear* in the ring sense — union,
//! filter, map, and aggregation commute with ⊎ — except the join, which
//! uses the semi-naive bilinear rule
//!
//! ```text
//! δ(L ⋈ R) = δL ⋈ R  ⊎  L ⋈ δR  ⊎  δL ⋈ δR
//!          = δL ⋈ (R ⊎ δR)  ⊎  L ⋈ δR
//! ```
//!
//! materialized as two probes against hash indexes (the right index is
//! advanced to `R ⊎ δR` before the left delta probes it). This is the
//! delta-query architecture of Koch et al.'s collection programming and of
//! DBSP, specialized to finite relations over rings; because payloads live
//! in a ring, batches commute and consolidation before propagation is
//! always sound.

use crate::batch::DeltaBatch;
use crate::multiway::{MultiwayState, StoreHub};
use ivm_core::EngineError;
use ivm_data::ops::{aggregate, Lift};
use ivm_data::{GroupedIndex, Relation, Schema, Sym, Tuple, Update, Value};
use ivm_obs::{Counter, Histogram, LabelId, MetricsRegistry, Tracer};
use ivm_ring::Semiring;
use std::sync::Arc;
use std::time::Instant;

/// Index of a node within its [`Dataflow`].
pub type NodeId = usize;

/// Where a join output column's value comes from when probing with a
/// right-side delta tuple (key and residual come from the left index).
#[derive(Clone, Copy, Debug)]
enum ColSrc {
    /// Position within the join-key tuple.
    Key(usize),
    /// Position within a left-index residual tuple.
    LeftResidual(usize),
    /// Position within the probing right tuple.
    RightTuple(usize),
}

/// State and precomputed plumbing of a binary delta join.
struct JoinState<R> {
    /// Left input, indexed by the shared variables.
    left: GroupedIndex<R>,
    /// Right input, indexed by the shared variables.
    right: GroupedIndex<R>,
    /// Positions of the shared variables within the left schema.
    left_key_pos: Vec<usize>,
    /// Positions of the shared variables within the right schema.
    right_key_pos: Vec<usize>,
    /// Output assembly plan for right-delta probes into the left index.
    right_probe_plan: Vec<ColSrc>,
}

/// One dataflow operator.
enum Operator<R> {
    /// Injects the consolidated delta of one base relation.
    Source {
        /// The base relation this node listens to.
        relation: Sym,
    },
    /// Keeps tuples satisfying a predicate (linear: payloads untouched).
    Filter {
        /// Tuple predicate (`Send + Sync` so whole dataflows move across
        /// worker threads in the sharded engine).
        predicate: Arc<dyn Fn(&Tuple) -> bool + Send + Sync>,
    },
    /// Rewrites tuples (linear: same-image tuples merge by ring addition).
    Map {
        /// Tuple transform; must produce tuples of the node's schema.
        f: Arc<dyn Fn(&Tuple) -> Tuple + Send + Sync>,
    },
    /// Semi-naive hash join of two inputs on their shared variables
    /// (boxed: the index state dwarfs the other variants).
    DeltaJoin(Box<JoinState<R>>),
    /// Worst-case-optimal multiway join over N atoms: attribute-at-a-time
    /// intersection search over shared hash-trie indexes, with delta terms
    /// seeded from the changed tuples, emitting a delta aggregated onto
    /// the node's schema (see [`crate::multiway`]). Unlike a chain of
    /// `DeltaJoin`s it materializes no binary intermediates.
    MultiwayJoin(Box<MultiwayState<R>>),
    /// Marginalizes every non-group-by variable with a lifting function
    /// and reorders columns to the group-by schema (linear).
    GroupAggregate {
        /// Output (group-by) schema.
        group_by: Schema,
        /// Lifting `g_X` applied to each marginalized variable.
        lift: Lift<R>,
    },
}

/// A node: an operator, its inputs, and its output schema.
struct Node<R> {
    op: Operator<R>,
    inputs: Vec<NodeId>,
    schema: Schema,
}

/// Counters exposed for benchmarking and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DataflowStats {
    /// Batches propagated.
    pub batches: u64,
    /// Single-tuple updates received (before consolidation).
    pub updates_in: u64,
    /// Consolidated source deltas actually propagated.
    pub deltas_in: u64,
    /// Delta tuples that reached the sink.
    pub output_delta_tuples: u64,
    /// Tuples emitted by binary `DeltaJoin` nodes — the materialized
    /// intermediates a worst-case-optimal plan avoids. Zero for a plan
    /// whose only join is a `MultiwayJoin`.
    pub binary_join_tuples: u64,
    /// Delta tuples that seeded a multiway variable-elimination search.
    pub multiway_seeds: u64,
    /// Probes performed by multiway searches — the machine-independent
    /// work measure of the WCOJ path. One probe is one lookup under a
    /// borrowed key: a step constraint's candidate set in a pattern index,
    /// a candidate value's membership in another constraint's set, or a
    /// fully bound atom's payload. A step probes its constraints smallest
    /// index first and stops at the first absent key, so in the mixed
    /// terms of the delta expansion the batch-sized delta index usually
    /// ends the branch after one probe; the count per update is therefore
    /// lower than under the atom-order search this replaced (22.7 → 20.8
    /// on the `tri-wcoj` pipeline row) for the same seeds and outputs.
    pub multiway_probes: u64,
    /// Candidate values enumerated by multiway intersection steps (the
    /// width of the leapfrog-style search frontier; each candidate then
    /// costs `multiway_probes` membership checks against the other
    /// atoms).
    pub multiway_intersections: u64,
}

impl DataflowStats {
    /// Machine-independent propagation-work measure: materialized binary
    /// intermediates + multiway probes + emitted output deltas. The
    /// trade-off bench scales this against N to estimate empirical
    /// update-cost exponents the way the specialized kernels do with
    /// their own `work()` counters.
    pub fn work(&self) -> u64 {
        self.binary_join_tuples + self.multiway_probes + self.output_delta_tuples
    }

    /// Fold `other` into `self`, field-wise. Used by [`DataflowEngine`]
    /// to carry counters across re-plans and by the sharded engine to
    /// aggregate per-shard counters into one fleet-wide view.
    ///
    /// [`DataflowEngine`]: crate::DataflowEngine
    pub fn merge(&mut self, other: &DataflowStats) {
        let DataflowStats {
            batches,
            updates_in,
            deltas_in,
            output_delta_tuples,
            binary_join_tuples,
            multiway_seeds,
            multiway_probes,
            multiway_intersections,
        } = other;
        self.batches += batches;
        self.updates_in += updates_in;
        self.deltas_in += deltas_in;
        self.output_delta_tuples += output_delta_tuples;
        self.binary_join_tuples += binary_join_tuples;
        self.multiway_seeds += multiway_seeds;
        self.multiway_probes += multiway_probes;
        self.multiway_intersections += multiway_intersections;
    }

    /// [`Self::merge`] by value, for iterator folds.
    pub fn merged(mut self, other: &DataflowStats) -> DataflowStats {
        self.merge(other);
        self
    }

    /// The counter increments since `earlier`, field-wise and saturating.
    /// The replan policy judges *windows* of the stream (counters since
    /// the last replan), not lifetime totals — a plan that blew up early
    /// and was fixed must not keep tripping the trigger forever.
    /// Saturating because a sharded fleet's merged snapshot can lag a
    /// baseline taken mid-settle.
    pub fn since(&self, earlier: &DataflowStats) -> DataflowStats {
        DataflowStats {
            batches: self.batches.saturating_sub(earlier.batches),
            updates_in: self.updates_in.saturating_sub(earlier.updates_in),
            deltas_in: self.deltas_in.saturating_sub(earlier.deltas_in),
            output_delta_tuples: self
                .output_delta_tuples
                .saturating_sub(earlier.output_delta_tuples),
            binary_join_tuples: self
                .binary_join_tuples
                .saturating_sub(earlier.binary_join_tuples),
            multiway_seeds: self.multiway_seeds.saturating_sub(earlier.multiway_seeds),
            multiway_probes: self.multiway_probes.saturating_sub(earlier.multiway_probes),
            multiway_intersections: self
                .multiway_intersections
                .saturating_sub(earlier.multiway_intersections),
        }
    }
}

/// Registry handles of one operator node: cumulative apply time plus
/// delta-in/delta-out tuple counts.
struct OpObs {
    apply_ns: Counter,
    in_tuples: Counter,
    out_tuples: Counter,
    /// Interned trace label (`op.{id}.{kind}`), resolved at attach time
    /// so the hot path records spans without allocating.
    span_label: LabelId,
}

/// Registry handles of a whole dataflow. The counters mirror
/// [`DataflowStats`] (pushed as increments at each batch boundary so the
/// registry stays cumulative across [`Dataflow::reset_stats`]); the
/// per-operator handles are written inline during propagation.
struct GraphObs {
    ops: Vec<OpObs>,
    batch_ns: Histogram,
    batches: Counter,
    updates_in: Counter,
    deltas_in: Counter,
    output_delta_tuples: Counter,
    binary_join_tuples: Counter,
    multiway_seeds: Counter,
    multiway_probes: Counter,
    multiway_intersections: Counter,
    /// The registry's tracer; per-operator spans join whatever epoch
    /// root is ambient on the applying thread.
    tracer: Tracer,
    /// Interned label for the whole-batch span (`engine.apply_batch`).
    batch_label: LabelId,
    /// Stats value already pushed to the registry; the next sync pushes
    /// `stats.since(mirrored)`.
    mirrored: DataflowStats,
}

impl GraphObs {
    /// Push counter increments accumulated since the last sync.
    fn sync(&mut self, stats: &DataflowStats) {
        let d = stats.since(&self.mirrored);
        self.batches.add(d.batches);
        self.updates_in.add(d.updates_in);
        self.deltas_in.add(d.deltas_in);
        self.output_delta_tuples.add(d.output_delta_tuples);
        self.binary_join_tuples.add(d.binary_join_tuples);
        self.multiway_seeds.add(d.multiway_seeds);
        self.multiway_probes.add(d.multiway_probes);
        self.multiway_intersections.add(d.multiway_intersections);
        self.mirrored = *stats;
    }
}

/// A runnable delta-dataflow: operator DAG + materialized output view.
pub struct Dataflow<R> {
    nodes: Vec<Node<R>>,
    source_relations: ivm_data::FxHashSet<Sym>,
    sink: Option<NodeId>,
    output: Relation<R>,
    stats: DataflowStats,
    /// Telemetry handles, present only while a registry is attached.
    /// `None` costs one branch per batch and nothing per tuple.
    obs: Option<GraphObs>,
}

impl<R: Semiring> Dataflow<R> {
    /// An empty dataflow (add nodes, then [`set_sink`](Self::set_sink)).
    pub fn new() -> Self {
        Dataflow {
            nodes: Vec::new(),
            source_relations: ivm_data::FxHashSet::default(),
            sink: None,
            output: Relation::new(Schema::empty()),
            stats: DataflowStats::default(),
            obs: None,
        }
    }

    /// Short lowercase operator label for metric names.
    fn op_label(op: &Operator<R>) -> String {
        match op {
            Operator::Source { relation } => format!("source_{relation}"),
            Operator::Filter { .. } => "filter".to_string(),
            Operator::Map { .. } => "map".to_string(),
            Operator::DeltaJoin(_) => "delta_join".to_string(),
            Operator::MultiwayJoin(_) => "multiway_join".to_string(),
            Operator::GroupAggregate { .. } => "group_aggregate".to_string(),
        }
    }

    /// Attach a metrics registry: every future batch records per-operator
    /// apply time and delta-in/delta-out tuple counts under
    /// `{prefix}.op.{id}.{kind}.*`, a `{prefix}.batch_apply_ns`
    /// histogram, and cumulative [`DataflowStats`] mirrors under
    /// `{prefix}.*`. Counting starts from the *current* state — history
    /// applied before attachment (e.g. preprocessing) is not back-filled.
    /// Attaching again (even to the same registry) just re-resolves the
    /// handles.
    pub fn attach_obs(&mut self, registry: &MetricsRegistry, prefix: &str) {
        let ops = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let kind = Self::op_label(&n.op);
                let base = format!("{prefix}.op.{i}.{kind}");
                OpObs {
                    apply_ns: registry.counter(&format!("{base}.apply_ns")),
                    in_tuples: registry.counter(&format!("{base}.in_tuples")),
                    out_tuples: registry.counter(&format!("{base}.out_tuples")),
                    span_label: registry.tracer().intern(&format!("op.{i}.{kind}")),
                }
            })
            .collect();
        self.obs = Some(GraphObs {
            ops,
            batch_ns: registry.histogram(&format!("{prefix}.batch_apply_ns")),
            batches: registry.counter(&format!("{prefix}.batches")),
            updates_in: registry.counter(&format!("{prefix}.updates_in")),
            deltas_in: registry.counter(&format!("{prefix}.deltas_in")),
            output_delta_tuples: registry.counter(&format!("{prefix}.output_delta_tuples")),
            binary_join_tuples: registry.counter(&format!("{prefix}.binary_join_tuples")),
            multiway_seeds: registry.counter(&format!("{prefix}.multiway_seeds")),
            multiway_probes: registry.counter(&format!("{prefix}.multiway_probes")),
            multiway_intersections: registry.counter(&format!("{prefix}.multiway_intersections")),
            tracer: registry.tracer().clone(),
            batch_label: registry.tracer().intern("engine.apply_batch"),
            mirrored: self.stats,
        });
    }

    /// Drop the registry handles; subsequent batches record nothing.
    pub fn detach_obs(&mut self) {
        self.obs = None;
    }

    fn push_node(&mut self, node: Node<R>) -> NodeId {
        for &i in &node.inputs {
            assert!(
                i < self.nodes.len(),
                "node input {i} must precede it (topological construction)"
            );
        }
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// The output schema of a node.
    pub fn schema_of(&self, id: NodeId) -> &Schema {
        &self.nodes[id].schema
    }

    /// Add a source listening to `relation`, emitting tuples under
    /// `schema` (the atom's variable naming; arity must match the
    /// relation's tuples).
    pub fn add_source(&mut self, relation: Sym, schema: Schema) -> NodeId {
        self.source_relations.insert(relation);
        self.push_node(Node {
            op: Operator::Source { relation },
            inputs: vec![],
            schema,
        })
    }

    /// Add a filter over `input`.
    pub fn add_filter(
        &mut self,
        input: NodeId,
        predicate: impl Fn(&Tuple) -> bool + Send + Sync + 'static,
    ) -> NodeId {
        let schema = self.nodes[input].schema.clone();
        self.push_node(Node {
            op: Operator::Filter {
                predicate: Arc::new(predicate),
            },
            inputs: vec![input],
            schema,
        })
    }

    /// Add a tuple-wise map over `input` producing tuples of `schema`.
    pub fn add_map(
        &mut self,
        input: NodeId,
        schema: Schema,
        f: impl Fn(&Tuple) -> Tuple + Send + Sync + 'static,
    ) -> NodeId {
        self.push_node(Node {
            op: Operator::Map { f: Arc::new(f) },
            inputs: vec![input],
            schema,
        })
    }

    /// Add a projection onto `keep ⊆ input schema` (a [`Self::add_map`]
    /// specialization; projected-together tuples merge by ring addition).
    pub fn add_project(&mut self, input: NodeId, keep: Schema) -> NodeId {
        let positions = self.nodes[input].schema.positions_of(&keep);
        self.add_map(input, keep, move |t| t.project(&positions))
    }

    /// Add a semi-naive hash join of `left` and `right` on their shared
    /// variables. Output schema: left's variables, then right's new ones.
    pub fn add_join(&mut self, left: NodeId, right: NodeId) -> NodeId {
        let lschema = self.nodes[left].schema.clone();
        let rschema = self.nodes[right].schema.clone();
        let common = lschema.intersect(&rschema);
        let out_schema = lschema.union(&rschema);

        let left_residual = lschema.difference(&common);
        let right_probe_plan = out_schema
            .vars()
            .iter()
            .map(|&v| {
                if let Some(p) = common.position(v) {
                    ColSrc::Key(p)
                } else if let Some(p) = left_residual.position(v) {
                    ColSrc::LeftResidual(p)
                } else {
                    ColSrc::RightTuple(rschema.position(v).expect("var must be in an input"))
                }
            })
            .collect();

        let state = JoinState {
            left: GroupedIndex::new(lschema.clone(), common.clone()),
            right: GroupedIndex::new(rschema.clone(), common.clone()),
            left_key_pos: lschema.positions_of(&common),
            right_key_pos: rschema.positions_of(&common),
            right_probe_plan,
        };
        self.push_node(Node {
            op: Operator::DeltaJoin(Box::new(state)),
            inputs: vec![left, right],
            schema: out_schema,
        })
    }

    /// Add a worst-case-optimal multiway join that emits its delta already
    /// aggregated. `inputs` are the distinct upstream nodes (one per base
    /// relation — self-join occurrences share an input and therefore share
    /// indexes); `atoms` pairs each atom occurrence's slot in `inputs`
    /// with its variable schema; `var_order` is the global elimination
    /// order and must cover every atom variable. `out ⊆ var_order` is the
    /// node's output schema: every join tuple adds its payload, times
    /// `lift` of each variable not in `out` (in `var_order` order), under
    /// its projection onto `out` — a count is `out` empty, a listing is
    /// `out` holding every variable in any order (see
    /// [`crate::multiway`]'s §Aggregation).
    pub fn add_multiway_join(
        &mut self,
        inputs: Vec<NodeId>,
        atoms: Vec<(usize, Schema)>,
        var_order: Schema,
        out: Schema,
        lift: Lift<R>,
    ) -> NodeId {
        for &(slot, ref schema) in &atoms {
            assert!(slot < inputs.len(), "atom input slot {slot} out of range");
            assert_eq!(
                schema.arity(),
                self.nodes[inputs[slot]].schema.arity(),
                "atom schema arity must match its input"
            );
            assert!(
                schema.subset_of(&var_order),
                "atom schema {schema:?} must be within var order {var_order:?}"
            );
        }
        let state = MultiwayState::new(&atoms, inputs.len(), var_order, out.clone(), lift);
        self.push_node(Node {
            op: Operator::MultiwayJoin(Box::new(state)),
            inputs,
            schema: out,
        })
    }

    /// Add an aggregation of `input` onto `group_by`, lifting marginalized
    /// variables with `lift`.
    pub fn add_aggregate(&mut self, input: NodeId, group_by: Schema, lift: Lift<R>) -> NodeId {
        assert!(
            group_by.subset_of(&self.nodes[input].schema),
            "group-by {group_by:?} must be within {:?}",
            self.nodes[input].schema
        );
        self.push_node(Node {
            op: Operator::GroupAggregate {
                group_by: group_by.clone(),
                lift,
            },
            inputs: vec![input],
            schema: group_by,
        })
    }

    /// Declare `id` the sink; its accumulated deltas form [`Self::output`].
    pub fn set_sink(&mut self, id: NodeId) {
        assert!(id < self.nodes.len(), "sink {id} out of range");
        self.sink = Some(id);
        self.output = Relation::new(self.nodes[id].schema.clone());
    }

    /// The maintained output view.
    pub fn output(&self) -> &Relation<R> {
        &self.output
    }

    /// Propagation counters.
    pub fn stats(&self) -> DataflowStats {
        self.stats
    }

    /// Zero the propagation counters. Used after a re-plan's preprocessing
    /// replay, whose one-off counter noise is not update-stream work.
    pub fn reset_stats(&mut self) {
        self.stats = DataflowStats::default();
        // The registry keeps its cumulative totals; re-base the mirror so
        // the next sync diffs against the fresh zeros instead of
        // saturating against the discarded history.
        if let Some(obs) = &mut self.obs {
            obs.mirrored = DataflowStats::default();
        }
    }

    /// Count updates received at a boundary that bypasses
    /// [`Self::apply_batch`] (pre-consolidated ingestion), so
    /// `updates_in` stays a truthful ingestion total.
    pub(crate) fn record_updates_in(&mut self, n: u64) {
        self.stats.updates_in += n;
    }

    /// Number of operator nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Join every multiway-join input fed directly by a [`Source`] node
    /// onto `hub`'s shared store for that source's relation, switching
    /// those slots to coordinator-driven advancement (see [`StoreHub`]).
    /// Returns the number of dedup hits — slots that adopted a store
    /// some earlier engine had already donated. Slots fed by derived
    /// (non-source) inputs keep their private stores.
    ///
    /// [`Source`]: Dataflow::add_source
    pub fn share_multiway_stores(&mut self, hub: &StoreHub<R>) -> usize {
        let source_of: Vec<Option<Sym>> = self
            .nodes
            .iter()
            .map(|n| match &n.op {
                Operator::Source { relation } => Some(*relation),
                _ => None,
            })
            .collect();
        let mut hits = 0;
        for node in &mut self.nodes {
            let inputs = node.inputs.clone();
            if let Operator::MultiwayJoin(state) = &mut node.op {
                for (slot, &input) in inputs.iter().enumerate() {
                    if let Some(rel) = source_of[input] {
                        if state.share_slot(slot, rel, hub) {
                            hits += 1;
                        }
                    }
                }
            }
        }
        hits
    }

    /// Tuples resident in state this dataflow *owns*: the output view,
    /// binary-join indexes, and non-hub multiway stores. Hub-shared
    /// stores are excluded so a census over many engines plus one hub
    /// counts each shared relation exactly once.
    pub fn resident_tuples(&self) -> usize {
        let mut n = self.output.len();
        for node in &self.nodes {
            match &node.op {
                Operator::DeltaJoin(js) => {
                    n += js.left.tuple_count() + js.right.tuple_count();
                }
                Operator::MultiwayJoin(state) => n += state.owned_tuples(),
                _ => {}
            }
        }
        n
    }

    /// Whether some source listens to `relation`. O(1).
    pub fn has_source_for(&self, relation: Sym) -> bool {
        self.source_relations.contains(&relation)
    }

    /// One human-readable line per node (for tests and plan debugging).
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let kind = match &n.op {
                Operator::Source { relation } => format!("Source({relation})"),
                Operator::Filter { .. } => "Filter".to_string(),
                Operator::Map { .. } => "Map".to_string(),
                Operator::DeltaJoin(_) => "DeltaJoin".to_string(),
                Operator::MultiwayJoin(s) => format!("MultiwayJoin(atoms={})", s.atom_count()),
                Operator::GroupAggregate { .. } => "GroupAggregate".to_string(),
            };
            let sink = if self.sink == Some(i) {
                "  <- sink"
            } else {
                ""
            };
            writeln!(s, "{i}: {kind}{:?} inputs={:?}{sink}", n.schema, n.inputs).unwrap();
        }
        s
    }

    /// Apply a batch of single-tuple updates: consolidate, propagate one
    /// delta per node in topological order, fold the sink delta into the
    /// output view, and return the output delta.
    ///
    /// Errors with [`EngineError::UnknownRelation`] if an update targets a
    /// relation no source listens to.
    pub fn apply_batch(&mut self, updates: &[Update<R>]) -> Result<Relation<R>, EngineError> {
        for u in updates {
            if !self.source_relations.contains(&u.relation) {
                return Err(EngineError::UnknownRelation(u.relation));
            }
        }
        self.stats.updates_in += updates.len() as u64;
        let batch = DeltaBatch::from_updates(updates);
        self.apply_delta_batch(&batch)
    }

    /// Propagate an already consolidated batch (relations must be known).
    pub fn apply_delta_batch(&mut self, batch: &DeltaBatch<R>) -> Result<Relation<R>, EngineError> {
        let sink = self.sink.expect("dataflow has no sink");
        self.stats.batches += 1;
        let out_schema = self.nodes[sink].schema.clone();
        if batch.is_empty() {
            if let Some(obs) = &mut self.obs {
                obs.sync(&self.stats);
            }
            return Ok(Relation::new(out_schema));
        }
        self.stats.deltas_in += batch.len() as u64;
        // Under an ambient epoch root (session/serve ingest), the whole
        // batch gets a span and each touched operator becomes its child;
        // standalone use (no root) traces nothing.
        let batch_span = self
            .obs
            .as_ref()
            .and_then(|o| o.tracer.child_span(o.batch_label));
        let t_batch = self.obs.as_ref().map(|_| Instant::now());

        let nodes = &mut self.nodes;
        let stats = &mut self.stats;
        let obs = &mut self.obs;
        let mut deltas: Vec<Option<Relation<R>>> = (0..nodes.len()).map(|_| None).collect();
        // Indexing, not iterating: each step splits `deltas` at `id` to
        // read predecessors while writing the current slot.
        // Per-operator timing rides one running clock: each node's cost is
        // the gap between consecutive reads (one `Instant::now()` per node,
        // not two), keeping the attached hot path near the detached one.
        let mut t_prev = t_batch;
        #[allow(clippy::needless_range_loop)]
        for id in 0..nodes.len() {
            let (done, rest) = deltas.split_at_mut(id);
            let node = &mut nodes[id];
            let delta = match &mut node.op {
                Operator::Source { relation } => batch.delta(*relation).map(|m| {
                    let mut rel = Relation::new(node.schema.clone());
                    for (t, r) in m {
                        debug_assert_eq!(
                            t.arity(),
                            node.schema.arity(),
                            "update arity mismatch for {relation}"
                        );
                        rel.apply(t.clone(), r);
                    }
                    rel
                }),
                Operator::Filter { predicate } => done[node.inputs[0]].as_ref().map(|d| {
                    let mut out = Relation::new(node.schema.clone());
                    for (t, r) in d.iter() {
                        if predicate(t) {
                            out.apply(t.clone(), r);
                        }
                    }
                    out
                }),
                Operator::Map { f } => done[node.inputs[0]].as_ref().map(|d| {
                    let mut out = Relation::new(node.schema.clone());
                    for (t, r) in d.iter() {
                        let mapped = f(t);
                        debug_assert_eq!(
                            mapped.arity(),
                            node.schema.arity(),
                            "map output arity mismatch"
                        );
                        out.apply(mapped, r);
                    }
                    out
                }),
                Operator::DeltaJoin(state) => {
                    let dl = done[node.inputs[0]].as_ref();
                    let dr = done[node.inputs[1]].as_ref();
                    let d = join_delta(state, &node.schema, dl, dr);
                    if let Some(d) = &d {
                        stats.binary_join_tuples += d.len() as u64;
                    }
                    d
                }
                Operator::MultiwayJoin(state) => {
                    let input_deltas: Vec<Option<&Relation<R>>> =
                        node.inputs.iter().map(|&i| done[i].as_ref()).collect();
                    state.apply(&input_deltas, stats)
                }
                Operator::GroupAggregate { group_by, lift } => done[node.inputs[0]]
                    .as_ref()
                    .map(|d| aggregate(d, group_by, *lift)),
            };
            if let (Some(o), Some(prev)) = (obs.as_ref(), t_prev) {
                let in_tuples: u64 = node
                    .inputs
                    .iter()
                    .map(|&i| done[i].as_ref().map_or(0, |d| d.len() as u64))
                    .sum();
                // Untouched nodes (no input delta, nothing produced) skip
                // the clock read and the counter writes entirely; their
                // ~ns of dispatch time folds into the next touched node.
                if in_tuples > 0 || delta.is_some() {
                    let now = Instant::now();
                    let h = &o.ops[id];
                    h.apply_ns.add((now - prev).as_nanos() as u64);
                    // The operator span rides the same running clock —
                    // no extra `Instant::now()` for tracing.
                    if let Some(bs) = &batch_span {
                        o.tracer.record_at(
                            h.span_label,
                            Some(bs.id()),
                            bs.epoch(),
                            prev,
                            now - prev,
                        );
                    }
                    t_prev = Some(now);
                    h.in_tuples.add(in_tuples);
                    h.out_tuples
                        .add(delta.as_ref().map_or(0, |d| d.len() as u64));
                }
            }
            // Propagate only non-empty deltas; empty ones are fixpoints.
            rest[0] = delta.filter(|d| !d.is_empty());
        }

        let out_delta = deltas[sink]
            .take()
            .unwrap_or_else(|| Relation::new(out_schema));
        self.stats.output_delta_tuples += out_delta.len() as u64;
        for (t, r) in out_delta.iter() {
            self.output.apply(t.clone(), r);
        }
        if let (Some(o), Some(t0)) = (self.obs.as_mut(), t_batch) {
            o.batch_ns.record_duration(t0.elapsed());
            o.sync(&self.stats);
        }
        Ok(out_delta)
    }
}

impl<R: Semiring> Default for Dataflow<R> {
    fn default() -> Self {
        Dataflow::new()
    }
}

/// The semi-naive join delta: advance the right index to `R ⊎ δR`, probe it
/// with `δL`, probe the *old* left index with `δR`, then advance the left
/// index. Together: `δL⋈R ⊎ L⋈δR ⊎ δL⋈δR`.
fn join_delta<R: Semiring>(
    state: &mut JoinState<R>,
    out_schema: &Schema,
    dl: Option<&Relation<R>>,
    dr: Option<&Relation<R>>,
) -> Option<Relation<R>> {
    if dl.is_none() && dr.is_none() {
        return None;
    }
    let mut out = Relation::new(out_schema.clone());

    if let Some(dr) = dr {
        for (t, r) in dr.iter() {
            state.right.apply(t, r);
        }
    }
    if let Some(dl) = dl {
        // δL ⋈ (R ⊎ δR): output = left tuple ++ right residual.
        for (lt, lr) in dl.iter() {
            let key = lt.project(&state.left_key_pos);
            if let Some(group) = state.right.group(&key) {
                for (residual, rr) in group.iter() {
                    out.apply(lt.concat(residual), &lr.times(rr));
                }
            }
        }
    }
    if let Some(dr) = dr {
        // L ⋈ δR against the pre-batch left index, assembled column-wise.
        for (rt, rr) in dr.iter() {
            let key = rt.project(&state.right_key_pos);
            if let Some(group) = state.left.group(&key) {
                for (lres, lr) in group.iter() {
                    let tuple: Tuple = state
                        .right_probe_plan
                        .iter()
                        .map(|src| -> Value {
                            match *src {
                                ColSrc::Key(p) => key.at(p).clone(),
                                ColSrc::LeftResidual(p) => lres.at(p).clone(),
                                ColSrc::RightTuple(p) => rt.at(p).clone(),
                            }
                        })
                        .collect();
                    out.apply(tuple, &lr.times(rr));
                }
            }
        }
    }
    if let Some(dl) = dl {
        for (t, r) in dl.iter() {
            state.left.apply(t, r);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::ops::{eval_join_aggregate, lift_one};
    use ivm_data::{sym, tup, vars};

    fn two_rel_flow() -> (Dataflow<i64>, Sym, Sym) {
        // Q(x, z) = Σ_y R(x, y) · S(y, z)
        let [x, y, z] = vars(["gr_X", "gr_Y", "gr_Z"]);
        let (rn, sn) = (sym("gr_R"), sym("gr_S"));
        let mut df: Dataflow<i64> = Dataflow::new();
        let r = df.add_source(rn, Schema::from([x, y]));
        let s = df.add_source(sn, Schema::from([y, z]));
        let j = df.add_join(r, s);
        let agg = df.add_aggregate(j, Schema::from([x, z]), lift_one);
        df.set_sink(agg);
        (df, rn, sn)
    }

    #[test]
    fn join_then_aggregate_matches_oracle() {
        let (mut df, rn, sn) = two_rel_flow();
        let ups: Vec<Update<i64>> = vec![
            Update::with_payload(rn, tup![1i64, 10i64], 2),
            Update::with_payload(rn, tup![2i64, 10i64], 1),
            Update::with_payload(sn, tup![10i64, 7i64], 3),
            Update::with_payload(sn, tup![10i64, 8i64], 1),
        ];
        df.apply_batch(&ups).unwrap();

        let [x, y, z] = vars(["gr_X", "gr_Y", "gr_Z"]);
        let r = Relation::from_rows(
            Schema::from([x, y]),
            [(tup![1i64, 10i64], 2i64), (tup![2i64, 10i64], 1)],
        );
        let s = Relation::from_rows(
            Schema::from([y, z]),
            [(tup![10i64, 7i64], 3i64), (tup![10i64, 8i64], 1)],
        );
        let expect = eval_join_aggregate(&[&r, &s], &Schema::from([x, z]), lift_one);
        assert_eq!(df.output().len(), expect.len());
        for (t, p) in expect.iter() {
            assert_eq!(&df.output().get(t), p, "at {t:?}");
        }
    }

    #[test]
    fn deletes_roll_back_to_empty() {
        let (mut df, rn, sn) = two_rel_flow();
        let ins: Vec<Update<i64>> = vec![
            Update::insert(rn, tup![1i64, 10i64]),
            Update::insert(sn, tup![10i64, 7i64]),
        ];
        df.apply_batch(&ins).unwrap();
        assert_eq!(df.output().len(), 1);
        let del: Vec<Update<i64>> = vec![Update::delete(rn, tup![1i64, 10i64])];
        let delta = df.apply_batch(&del).unwrap();
        assert_eq!(delta.get(&tup![1i64, 7i64]), -1);
        assert!(df.output().is_empty());
    }

    #[test]
    fn batch_with_both_sides_uses_bilinear_rule() {
        // δL and δR in the same batch must contribute the δL⋈δR term.
        let (mut df, rn, sn) = two_rel_flow();
        let ups: Vec<Update<i64>> = vec![
            Update::insert(rn, tup![1i64, 10i64]),
            Update::insert(sn, tup![10i64, 7i64]),
        ];
        let delta = df.apply_batch(&ups).unwrap();
        assert_eq!(delta.get(&tup![1i64, 7i64]), 1);
    }

    #[test]
    fn filter_and_map_are_linear() {
        let [x, y] = vars(["gr_FX", "gr_FY"]);
        let rn = sym("gr_FR");
        let mut df: Dataflow<i64> = Dataflow::new();
        let src = df.add_source(rn, Schema::from([x, y]));
        let flt = df.add_filter(src, |t| t.at(0).as_int().unwrap() > 0);
        let prj = df.add_project(flt, Schema::from([y]));
        df.set_sink(prj);

        let ups: Vec<Update<i64>> = vec![
            Update::with_payload(rn, tup![1i64, 5i64], 2),
            Update::with_payload(rn, tup![-1i64, 5i64], 7), // filtered out
            Update::with_payload(rn, tup![2i64, 5i64], 1),  // merges with first
        ];
        df.apply_batch(&ups).unwrap();
        assert_eq!(df.output().get(&tup![5i64]), 3);

        df.apply_batch(&[Update::with_payload(rn, tup![1i64, 5i64], -2)])
            .unwrap();
        assert_eq!(df.output().get(&tup![5i64]), 1);
    }

    #[test]
    fn cartesian_join_empty_common() {
        let [x, y] = vars(["gr_CX", "gr_CY"]);
        let (rn, sn) = (sym("gr_CR"), sym("gr_CS"));
        let mut df: Dataflow<i64> = Dataflow::new();
        let r = df.add_source(rn, Schema::from([x]));
        let s = df.add_source(sn, Schema::from([y]));
        let j = df.add_join(r, s);
        df.set_sink(j);
        df.apply_batch(&[
            Update::with_payload(rn, tup![1i64], 2),
            Update::with_payload(sn, tup![9i64], 3),
        ])
        .unwrap();
        assert_eq!(df.output().get(&tup![1i64, 9i64]), 6);
    }

    #[test]
    fn unknown_relation_rejected() {
        let (mut df, _, _) = two_rel_flow();
        let bad: Vec<Update<i64>> = vec![Update::insert(sym("gr_nope"), tup![1i64])];
        assert!(matches!(
            df.apply_batch(&bad),
            Err(EngineError::UnknownRelation(_))
        ));
    }

    #[test]
    fn consolidation_skips_cancelled_work() {
        let (mut df, rn, _) = two_rel_flow();
        let before = df.stats();
        let ups: Vec<Update<i64>> = vec![
            Update::insert(rn, tup![1i64, 1i64]),
            Update::delete(rn, tup![1i64, 1i64]),
        ];
        df.apply_batch(&ups).unwrap();
        let after = df.stats();
        assert_eq!(after.updates_in - before.updates_in, 2);
        assert_eq!(
            after.deltas_in, before.deltas_in,
            "cancelled batch propagates nothing"
        );
    }

    #[test]
    fn describe_lists_nodes() {
        let (df, _, _) = two_rel_flow();
        let d = df.describe();
        assert!(d.contains("Source"));
        assert!(d.contains("DeltaJoin"));
        assert!(d.contains("<- sink"));
    }

    /// The sharded engine moves whole dataflows (including filter/map
    /// closures, join indexes, and multiway tries) onto worker threads.
    #[test]
    fn dataflow_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Dataflow<i64>>();
        assert_send::<DataflowStats>();
    }

    #[test]
    fn stats_merge_sums_every_counter() {
        let a = DataflowStats {
            batches: 1,
            updates_in: 2,
            deltas_in: 3,
            output_delta_tuples: 4,
            binary_join_tuples: 5,
            multiway_seeds: 6,
            multiway_probes: 7,
            multiway_intersections: 8,
        };
        let b = DataflowStats {
            batches: 10,
            updates_in: 20,
            deltas_in: 30,
            output_delta_tuples: 40,
            binary_join_tuples: 50,
            multiway_seeds: 60,
            multiway_probes: 70,
            multiway_intersections: 80,
        };
        let m = a.merged(&b);
        assert_eq!(m.batches, 11);
        assert_eq!(m.updates_in, 22);
        assert_eq!(m.deltas_in, 33);
        assert_eq!(m.output_delta_tuples, 44);
        assert_eq!(m.binary_join_tuples, 55);
        assert_eq!(m.multiway_seeds, 66);
        assert_eq!(m.multiway_probes, 77);
        assert_eq!(m.multiway_intersections, 88);
        // Merging the default is the identity.
        assert_eq!(b.merged(&DataflowStats::default()), b);

        // since() is merge's saturating inverse. A window baseline can
        // exceed the current snapshot after a counter reset (replan) or
        // when a fleet's merged snapshot lags a baseline taken
        // mid-settle; every field must clamp to zero, never wrap.
        assert_eq!(m.since(&a), b);
        let window = a.since(&b);
        assert_eq!(window, DataflowStats::default(), "underflow must clamp");
        assert_eq!(DataflowStats::default().since(&m), DataflowStats::default());
    }

    /// Attached registry mirrors the stats counters and records
    /// per-operator apply time / tuple counts; detaching stops updates
    /// but keeps the registry's cumulative values.
    #[test]
    fn attached_registry_mirrors_stats() {
        use ivm_obs::MetricsRegistry;
        let (mut df, rn, sn) = two_rel_flow();
        let reg = MetricsRegistry::new();
        df.attach_obs(&reg, "t.df");
        let ups: Vec<Update<i64>> = vec![
            Update::with_payload(rn, tup![1i64, 10i64], 2),
            Update::with_payload(sn, tup![10i64, 7i64], 3),
        ];
        df.apply_batch(&ups).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("t.df.batches"), df.stats().batches);
        assert_eq!(snap.counter("t.df.updates_in"), 2);
        assert_eq!(
            snap.counter("t.df.output_delta_tuples"),
            df.stats().output_delta_tuples
        );
        // Per-operator series exist: node 0 is Source(gr_R) and saw the
        // consolidated R-delta on its output side.
        assert_eq!(snap.counter("t.df.op.0.source_gr_R.out_tuples"), 1);
        assert!(snap.histogram("t.df.batch_apply_ns").unwrap().count == 1);

        // reset_stats re-bases the mirror: the registry keeps counting
        // increments on top of its cumulative total.
        df.reset_stats();
        df.apply_batch(&[Update::with_payload(rn, tup![2i64, 10i64], 1)])
            .unwrap();
        let snap2 = reg.snapshot();
        assert_eq!(snap2.counter("t.df.updates_in"), 3);
        assert_eq!(snap2.counter("t.df.batches"), 2);

        df.detach_obs();
        df.apply_batch(&[Update::with_payload(rn, tup![3i64, 10i64], 1)])
            .unwrap();
        assert_eq!(reg.snapshot().counter("t.df.updates_in"), 3);
    }
}
