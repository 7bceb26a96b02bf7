//! The sharded [`Maintainer`]: N independent dataflows behind one facade.
//!
//! Construction plans the shard key ([`ShardPlanner`]), splits the initial
//! database with the [`Router`], and spawns one worker thread per shard,
//! each owning a fully independent [`DataflowEngine`] (the single-threaded
//! engine, untouched, every shard lowered from the same global
//! cardinalities). Updates then flow in two modes:
//!
//! * **Synchronous** — [`ShardedEngine::apply_batch`] routes a batch,
//!   waits for every shard's output delta, ⊎-merges them, folds the merge
//!   into the maintained view, and returns it: a drop-in replacement for
//!   `DataflowEngine::apply_batch`.
//! * **Pipelined** — [`ShardedEngine::enqueue_batch`] only routes and
//!   enqueues (bounded per-shard queues give backpressure) and returns the
//!   batch's sequence number immediately; the caller keeps feeding while
//!   shards work, then [`ShardedEngine::drain`] settles everything into
//!   the output view.
//!
//! Merging by ring addition is sound because shard sub-batches partition
//! each batch and delta propagation is linear over the payload ring — the
//! ⊎-sum of the shard deltas *is* the batch's delta, in any arrival order.

use crate::merge::fold_delta;
use crate::planner::{ShardPlan, ShardPlanner};
use crate::router::Router;
use crate::stats::ShardedStats;
use crate::worker::{self, Job, Report, TraceCtx, WorkerHandle};
use ivm_core::{CheckedBatch, EngineError, Maintainer};
use ivm_data::ops::Lift;
use ivm_data::{Database, FxHashMap, FxHashSet, Relation, Schema, Sym, Tuple, Update};
use ivm_dataflow::{cost, Cardinalities, DataflowEngine, DataflowStats};
use ivm_obs::{Counter, FlightRecorder, Gauge, Histogram, LabelId, MetricsRegistry, Tracer};
use ivm_query::Query;
use ivm_ring::Semiring;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

/// A batch whose shard deltas have not all arrived yet.
struct Pending<R> {
    remaining: usize,
    delta: Relation<R>,
    /// When the batch was enqueued — settling records the
    /// enqueue-to-settle latency when a registry is attached.
    enqueued: Instant,
    /// Replan broadcasts settle through the same path but are not
    /// stream batches; their latency is not a batch latency.
    replan: bool,
}

/// Facade-side registry handles of one shard.
struct ShardObs {
    /// Jobs sent to the shard and not yet reported back — the live
    /// depth of its bounded queue (plus the one job being applied).
    queue_depth: Gauge,
    /// Cumulative busy time (thread CPU where available; mirrors
    /// [`ShardedStats::busy`]).
    busy_ns: Counter,
    /// Wall time since attach not spent busy — the shard's idle/skew
    /// indicator, refreshed at every settled report.
    idle_ns: Gauge,
}

/// Facade-side registry handles of the whole fleet.
struct FleetObs {
    attached: Instant,
    per_shard: Vec<ShardObs>,
    /// Busy baseline at attach, per shard: idle accounting must not
    /// charge pre-attach history.
    busy_base: Vec<Duration>,
    /// Enqueue-to-settle latency of stream batches.
    settle_ns: Histogram,
    /// Router-side time consolidating a checked batch.
    router_consolidate_ns: Counter,
    /// Router-side time hash-partitioning a consolidated batch.
    router_partition_ns: Counter,
    routed: Counter,
    broadcast_copies: Counter,
    batches_enqueued: Counter,
    /// Fleet-merged cumulative counters (Σ of the per-shard report
    /// values, refreshed together at each settle). Each shard's own
    /// series are its engine's mirrors, `shard{i}.dataflow.*`.
    updates_in: Counter,
    batches: Counter,
    deltas_in: Counter,
    output_delta_tuples: Counter,
    /// The registry's tracer; router stages become children of whatever
    /// epoch root is ambient at enqueue time, and the same (parent,
    /// epoch) pair is shipped to workers in each job's [`TraceCtx`].
    tracer: Tracer,
    consolidate_label: LabelId,
    partition_label: LabelId,
    /// Post-mortem capture for the fleet's failure paths (shard
    /// poisoning, worker panic).
    flight: FlightRecorder,
}

impl FleetObs {
    /// Refresh one shard's queue and busy series from its report, and the
    /// fleet-merged series from the facade's per-shard snapshots.
    fn on_report(&self, shard: usize, busy: Duration, merged: &DataflowStats) {
        let s = &self.per_shard[shard];
        s.queue_depth.dec();
        s.busy_ns.store(busy.as_nanos() as u64);
        let spent = busy.saturating_sub(self.busy_base[shard]);
        s.idle_ns
            .set(self.attached.elapsed().saturating_sub(spent).as_nanos() as i64);
        self.batches.store(merged.batches);
        self.updates_in.store(merged.updates_in);
        self.deltas_in.store(merged.deltas_in);
        self.output_delta_tuples.store(merged.output_delta_tuples);
    }

    /// A poisoned fleet has no live queues: a stuck non-zero depth
    /// would read as permanent backlog on an engine that will never
    /// process anything again.
    fn on_poison(&self) {
        for s in &self.per_shard {
            s.queue_depth.set(0);
        }
    }
}

/// Hash-partitioned parallel engine over `ivm-dataflow` worker shards.
pub struct ShardedEngine<R: Semiring> {
    query: Query,
    router: Router,
    workers: Vec<WorkerHandle<R>>,
    results: Receiver<Report<R>>,
    next_seq: u64,
    /// The seq of the most recent batch that routed to zero shards (fully
    /// cancelled), so `wait_for` can answer it without a worker report.
    last_empty: Option<u64>,
    in_flight: FxHashMap<u64, Pending<R>>,
    shard_stats: Vec<DataflowStats>,
    shard_busy: Vec<Duration>,
    output: Relation<R>,
    /// The cardinality snapshot every shard's variable order was derived
    /// from: the global counts at construction, and the one snapshot each
    /// replan broadcasts to every shard.
    lowered_cards: Cardinalities,
    /// Set once a shard reports a failure (engine error or worker panic):
    /// the fleet's state is no longer trustworthy, so every subsequent
    /// operation fails fast with this error instead of hanging on reports
    /// that will never come.
    poisoned: Option<EngineError>,
    /// Facade-side telemetry handles; `None` (detached) costs nothing.
    obs: Option<FleetObs>,
}

impl<R: Semiring> ShardedEngine<R> {
    /// Shard `query` across `shards` workers, preprocessing `db` through
    /// the router (each shard sees only its slice of partitioned relations
    /// plus full copies of broadcast ones).
    ///
    /// When the plan is degenerate (no partitionable relation — see
    /// [`ShardPlanner`]), the fleet is clamped to one worker: every update
    /// would route to shard 0 anyway, so spawning more threads and
    /// preprocessing more engines would be pure waste. A fleet of zero
    /// shards is refused with [`EngineError::NotSupported`].
    pub fn new(
        query: Query,
        db: &Database<R>,
        lift: Lift<R>,
        shards: usize,
    ) -> Result<Self, EngineError> {
        if shards == 0 {
            return Err(EngineError::NotSupported(
                "a sharded engine needs at least one shard".into(),
            ));
        }
        let cards = Cardinalities::from_db(db, &query);
        let plan = ShardPlanner::plan(&query, &cards);
        let shards = if plan.is_degenerate() { 1 } else { shards };
        let router = Router::new(plan, shards);

        let shard_dbs = split_database(db, &query, &router);
        let (results_tx, results_rx) = std::sync::mpsc::channel();
        let mut workers = Vec::with_capacity(shards);
        let mut shard_stats = Vec::with_capacity(shards);
        let mut output = Relation::new(query.free.clone());
        for (shard, shard_db) in shard_dbs.into_iter().enumerate() {
            // Every shard runs the order the global counts derive — the
            // one `lowered_cards` reports and replans compare against —
            // not one derived from its own slice sizes.
            let engine =
                DataflowEngine::new_with_cards(query.clone(), &shard_db, lift, cards.clone())?;
            // The preprocessing pass already materialized this shard's
            // slice of the initial view and counted its replay; ⊎-merge
            // the view and snapshot the counters before the engine moves
            // onto its thread, so the facade starts equal to the
            // single-threaded engine's view *and* stats (reports then
            // overwrite the snapshots with cumulative values).
            fold_delta(&mut output, engine.output_relation());
            shard_stats.push(engine.stats());
            workers.push(worker::spawn(shard, engine, results_tx.clone()));
        }

        Ok(ShardedEngine {
            query,
            router,
            workers,
            results: results_rx,
            next_seq: 0,
            last_empty: None,
            in_flight: FxHashMap::default(),
            shard_stats,
            shard_busy: vec![Duration::ZERO; shards],
            output,
            lowered_cards: cards,
            poisoned: None,
            obs: None,
        })
    }

    /// Attach a metrics registry to the whole fleet under `{prefix}.*`:
    ///
    /// * facade side — per-shard `shard{i}.queue_depth` /
    ///   `shard{i}.busy_ns` / `shard{i}.idle_ns`, the fleet-merged
    ///   counters, the `settle_ns` enqueue-to-settle
    ///   latency histogram, and `router.*` consolidation/partition
    ///   timings;
    /// * worker side — each shard's dataflow attaches under
    ///   `{prefix}.shard{i}.dataflow.*` (the join's apply time and the
    ///   engine's counter mirrors, counting from the attach), via a
    ///   broadcast `Job::Observe` that FIFO ordering lands between
    ///   batches.
    ///
    /// The fleet-merged counters are *stored* cumulative values
    /// (report-driven), so they survive replans the same way
    /// [`Self::stats`] does.
    pub fn observe(&mut self, registry: &MetricsRegistry, prefix: &str) -> Result<(), EngineError> {
        self.check_poisoned()?;
        let per_shard = (0..self.workers.len())
            .map(|i| {
                let base = format!("{prefix}.shard{i}");
                let s = ShardObs {
                    queue_depth: registry.gauge(&format!("{base}.queue_depth")),
                    busy_ns: registry.counter(&format!("{base}.busy_ns")),
                    idle_ns: registry.gauge(&format!("{base}.idle_ns")),
                };
                // Seed from the facade's current snapshot so the series
                // starts truthful even before the first report arrives.
                s.busy_ns.store(self.shard_busy[i].as_nanos() as u64);
                s
            })
            .collect();
        let merged = self.stats();
        let obs = FleetObs {
            attached: Instant::now(),
            per_shard,
            busy_base: self.shard_busy.clone(),
            settle_ns: registry.histogram(&format!("{prefix}.settle_ns")),
            router_consolidate_ns: registry.counter(&format!("{prefix}.router.consolidate_ns")),
            router_partition_ns: registry.counter(&format!("{prefix}.router.partition_ns")),
            routed: registry.counter(&format!("{prefix}.router.routed")),
            broadcast_copies: registry.counter(&format!("{prefix}.router.broadcast_copies")),
            batches_enqueued: registry.counter(&format!("{prefix}.batches_enqueued")),
            updates_in: registry.counter(&format!("{prefix}.updates_in")),
            batches: registry.counter(&format!("{prefix}.batches")),
            deltas_in: registry.counter(&format!("{prefix}.deltas_in")),
            output_delta_tuples: registry.counter(&format!("{prefix}.output_delta_tuples")),
            tracer: registry.tracer().clone(),
            consolidate_label: registry.tracer().intern("router.consolidate"),
            partition_label: registry.tracer().intern("router.partition"),
            flight: FlightRecorder::new(registry),
        };
        obs.batches.store(merged.batches);
        obs.updates_in.store(merged.updates_in);
        obs.deltas_in.store(merged.deltas_in);
        obs.output_delta_tuples.store(merged.output_delta_tuples);
        let rs = self.router.stats();
        obs.routed.store(rs.routed);
        obs.broadcast_copies.store(rs.broadcast_copies);
        // Broadcast worker-side attachment (FIFO: lands between batches).
        for (i, w) in self.workers.iter().enumerate() {
            w.send(Job::Observe {
                registry: registry.clone(),
                prefix: format!("{prefix}.shard{i}.dataflow"),
            })?;
        }
        self.obs = Some(obs);
        Ok(())
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// The shard plan in force.
    pub fn plan(&self) -> &ShardPlan {
        self.router.plan()
    }

    /// One line describing the fleet: shard count, routing plan, and the
    /// variable order every shard's join runs.
    pub fn describe(&self) -> String {
        format!(
            "{} shard(s); {}; order {:?}",
            self.shards(),
            self.plan().describe(),
            cost::variable_order(&self.query, &self.lowered_cards)
        )
    }

    /// The cardinality snapshot the current fleet plan was ordered by.
    pub fn lowered_cards(&self) -> &Cardinalities {
        &self.lowered_cards
    }

    /// Re-lower **every** shard's dataflow with the variable order
    /// derived from `cards` (learned counts), replaying `db` — the
    /// current base state the caller owns — through the unchanged router.
    ///
    /// The replan is broadcast through the worker queues, so FIFO puts it
    /// exactly *between* batches on every shard: everything enqueued
    /// before it completes first (and settles into the view along the
    /// way), everything enqueued after runs on the fresh plan. All shards
    /// receive the same global cardinalities, so
    /// the fleet re-lowers consistently even where per-shard slice sizes
    /// would order differently. Counters survive exactly as in
    /// `DataflowEngine::replan_with_cards`; only the shard *routing* plan
    /// is fixed at construction and deliberately not revisited (re-keying
    /// would reshuffle every index across the fleet).
    ///
    /// Blocks until every shard has re-lowered; a shard failure poisons
    /// the engine per the usual contract.
    pub fn replan_with_cards(
        &mut self,
        db: &Database<R>,
        cards: &Cardinalities,
    ) -> Result<(), EngineError> {
        self.check_poisoned()?;
        let shard_dbs = split_database(db, &self.query, &self.router);
        let seq = self.next_seq;
        self.next_seq += 1;
        let shards = self.workers.len();
        for (shard, shard_db) in shard_dbs.into_iter().enumerate() {
            self.workers[shard].send(Job::Replan {
                seq,
                cards: cards.clone(),
                db: shard_db,
                ctx: self.trace_ctx(),
            })?;
            if let Some(obs) = &self.obs {
                obs.per_shard[shard].queue_depth.inc();
            }
        }
        self.last_empty = None;
        self.in_flight.insert(
            seq,
            Pending {
                remaining: shards,
                delta: Relation::new(self.query.free.clone()),
                enqueued: Instant::now(),
                replan: true,
            },
        );
        // The replan deltas are empty by construction; waiting here both
        // settles earlier in-flight batches and absorbs the refreshed
        // per-shard stats snapshots.
        self.wait_for(seq)?;
        self.lowered_cards = cards.clone();
        Ok(())
    }

    /// Route `batch` and enqueue it on the shard queues **without waiting
    /// for processing** — ingestion is pipelined: the call returns as
    /// soon as every sub-batch is accepted (blocking only for
    /// backpressure when a shard's bounded queue is full), so the caller
    /// can assemble and enqueue batch `k+1` while the fleet still
    /// processes batch `k`. Returns the batch's sequence number.
    ///
    /// The maintained view and [`Self::stats`] reflect an enqueued batch
    /// only after it has been settled by [`Self::drain`] (or by a later
    /// synchronous [`Self::apply_batch`]). The batch passes the ingestion
    /// rule here, before anything is routed.
    pub fn enqueue_batch(&mut self, batch: &[Update<R>]) -> Result<u64, EngineError> {
        self.enqueue_checked(&CheckedBatch::new(&self.query.atoms, batch)?)
    }

    /// [`Self::enqueue_batch`] for a checked batch, whose parts the workers apply.
    pub fn enqueue_checked(&mut self, batch: &CheckedBatch<'_, R>) -> Result<u64, EngineError> {
        self.check_poisoned()?;
        // Absorb any reports that already arrived, keeping `in_flight`
        // small during long enqueue-only streaks. (Before the new seq is
        // allocated, so this cannot complete the batch being enqueued.)
        self.pump_ready()?;

        let seq = self.next_seq;
        self.next_seq += 1;
        let t0 = self.obs.as_ref().map(|_| Instant::now());
        // The batch's one consolidation, unless a layer above asked first.
        batch.delta();
        let t1 = self.obs.as_ref().map(|_| Instant::now());
        let parts = self.router.split(batch);
        if let (Some(obs), Some(t0), Some(t1)) = (&self.obs, t0, t1) {
            obs.router_consolidate_ns
                .add(t1.duration_since(t0).as_nanos() as u64);
            obs.router_partition_ns.add(t1.elapsed().as_nanos() as u64);
            // Under an epoch root, the two router stages become child
            // spans too — recorded post-hoc from the instants the
            // counter timing already took.
            if let Some((parent, epoch)) = obs.tracer.current_ctx() {
                obs.tracer.record_at(
                    obs.consolidate_label,
                    Some(parent),
                    epoch,
                    t0,
                    t1.duration_since(t0),
                );
                obs.tracer
                    .record_at(obs.partition_label, Some(parent), epoch, t1, t1.elapsed());
            }
            let rs = self.router.stats();
            obs.routed.store(rs.routed);
            obs.broadcast_copies.store(rs.broadcast_copies);
            obs.batches_enqueued.inc();
        }
        let mut sent = 0usize;
        for (shard, part) in parts.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            self.workers[shard].send(Job::Batch {
                seq,
                delta: part,
                ctx: self.trace_ctx(),
            })?;
            if let Some(obs) = &self.obs {
                obs.per_shard[shard].queue_depth.inc();
            }
            sent += 1;
        }
        if sent == 0 {
            // Fully cancelled batch: nothing was shipped, delta is empty.
            self.last_empty = Some(seq);
        } else {
            self.last_empty = None;
            self.in_flight.insert(
                seq,
                Pending {
                    remaining: sent,
                    delta: Relation::new(self.query.free.clone()),
                    enqueued: Instant::now(),
                    replan: false,
                },
            );
        }
        Ok(seq)
    }

    /// Block until every enqueued batch is processed and folded into the
    /// maintained view.
    pub fn drain(&mut self) -> Result<(), EngineError> {
        self.check_poisoned()?;
        while !self.in_flight.is_empty() {
            let report = self.recv()?;
            self.settle(report, None)?;
        }
        Ok(())
    }

    /// The maintained output view over the settled batches. Call
    /// [`Self::drain`] first when using pipelined ingestion.
    pub fn output_relation(&self) -> &Relation<R> {
        &self.output
    }

    /// Fleet statistics: router counters plus the latest cumulative
    /// per-shard dataflow counters and busy times (as of the last settled
    /// report per shard).
    pub fn sharded_stats(&self) -> ShardedStats {
        ShardedStats {
            router: self.router.stats(),
            per_shard: self.shard_stats.clone(),
            busy: self.shard_busy.clone(),
        }
    }

    /// All shards' dataflow counters merged into one view (see
    /// [`ShardedStats::merged`]).
    pub fn stats(&self) -> DataflowStats {
        self.sharded_stats().merged()
    }

    /// The ambient epoch root (if any), handed to a worker with each job
    /// so its queue-wait and apply spans join this epoch's tree.
    fn trace_ctx(&self) -> Option<TraceCtx> {
        let (parent, epoch) = self.obs.as_ref()?.tracer.current_ctx()?;
        Some(TraceCtx {
            parent,
            epoch,
            enqueued: Instant::now(),
        })
    }

    /// Absorb every report that is already waiting, without blocking.
    fn pump_ready(&mut self) -> Result<(), EngineError> {
        while let Ok(report) = self.results.try_recv() {
            self.settle(report, None)?;
        }
        Ok(())
    }

    /// Fail fast once a shard has failed — the in-flight bookkeeping was
    /// discarded, so blocking on further reports could hang forever.
    fn check_poisoned(&self) -> Result<(), EngineError> {
        match &self.poisoned {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Block until batch `seq` is fully settled; return its merged delta.
    fn wait_for(&mut self, seq: u64) -> Result<Relation<R>, EngineError> {
        if self.last_empty == Some(seq) {
            return Ok(Relation::new(self.query.free.clone()));
        }
        loop {
            let report = self.recv()?;
            if let Some(delta) = self.settle(report, Some(seq))? {
                return Ok(delta);
            }
        }
    }

    fn recv(&mut self) -> Result<Report<R>, EngineError> {
        match self.results.recv() {
            Ok(report) => Ok(report),
            Err(_) => {
                let e = EngineError::ShardFailure("all shard workers hung up".into());
                self.poisoned = Some(e.clone());
                self.in_flight.clear();
                if let Some(obs) = &self.obs {
                    obs.on_poison();
                    obs.flight.dump("shard-poisoned", &e.to_string());
                }
                Err(e)
            }
        }
    }

    /// Fold one report into the pending batch; when the batch completes,
    /// fold its merged delta into the output view. Returns the merged
    /// delta iff the completed batch is the one `claim` asks for.
    ///
    /// A failure report **poisons** the engine: the failed batch (and any
    /// behind it) can never complete, so all bookkeeping is dropped and
    /// every later call fails fast instead of waiting on reports that
    /// will not come.
    fn settle(
        &mut self,
        report: Report<R>,
        claim: Option<u64>,
    ) -> Result<Option<Relation<R>>, EngineError> {
        self.shard_stats[report.shard] = report.stats;
        self.shard_busy[report.shard] = report.busy;
        if let Some(obs) = &self.obs {
            let merged = self
                .shard_stats
                .iter()
                .fold(DataflowStats::default(), |acc, s| acc.merged(s));
            obs.on_report(report.shard, report.busy, &merged);
        }
        let delta = match report.delta {
            Ok(d) => d,
            Err(e) => {
                self.poisoned = Some(e.clone());
                self.in_flight.clear();
                if let Some(obs) = &self.obs {
                    obs.on_poison();
                    // The post-mortem carries the failing epoch's spans:
                    // the whole last-K-epochs window plus a snapshot.
                    obs.flight.dump("shard-failure", &e.to_string());
                }
                return Err(e);
            }
        };
        let pending = self
            .in_flight
            .get_mut(&report.seq)
            .expect("report for a batch that is not in flight");
        fold_delta(&mut pending.delta, &delta);
        pending.remaining -= 1;
        if pending.remaining > 0 {
            return Ok(None);
        }
        let done = self
            .in_flight
            .remove(&report.seq)
            .expect("pending entry vanished");
        if let Some(obs) = &self.obs {
            if !done.replan {
                obs.settle_ns.record_duration(done.enqueued.elapsed());
            }
        }
        fold_delta(&mut self.output, &done.delta);
        Ok(if claim == Some(report.seq) {
            Some(done.delta)
        } else {
            None
        })
    }
}

impl<R: Semiring> Maintainer<R> for ShardedEngine<R> {
    fn query(&self) -> &Query {
        &self.query
    }

    /// Apply a batch synchronously: enqueue, wait for all shard deltas of
    /// *this* batch, and return the ⊎-merged output delta (already folded
    /// into [`Self::output_relation`]). Earlier enqueued batches complete
    /// along the way, shard queues being FIFO. This is the fleet's native
    /// batch path — the one trait-level ingestion surface, with
    /// [`Self::enqueue_batch`]/[`Self::drain`] as the pipelined variant.
    ///
    /// Per the trait contract's poisoning clause: once any shard fails,
    /// this method (and `drain`) fails fast with the original error on
    /// every subsequent call.
    fn apply_checked(&mut self, batch: &CheckedBatch<'_, R>) -> Result<Relation<R>, EngineError> {
        let seq = self.enqueue_checked(batch)?;
        self.wait_for(seq)
    }

    fn for_each_output(&mut self, f: &mut dyn FnMut(&Tuple, &R)) {
        self.drain().expect("sharded engine drain failed");
        for (t, r) in self.output.iter() {
            f(t, r);
        }
    }
}

impl<R: Semiring> std::fmt::Debug for ShardedEngine<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("query", &self.query)
            .field("shards", &self.shards())
            .field("plan", &self.plan().describe())
            .field("in_flight", &self.in_flight.len())
            .finish_non_exhaustive()
    }
}

/// Slice the initial database per shard: partitioned relations split by
/// the shard hash, broadcast relations copied everywhere, and every atom
/// relation present (if empty) so each shard's engine preprocesses the
/// same schema world.
fn split_database<R: Semiring>(
    db: &Database<R>,
    query: &Query,
    router: &Router,
) -> Vec<Database<R>> {
    let shards = router.shards();
    let mut out: Vec<Database<R>> = (0..shards).map(|_| Database::new()).collect();
    let mut seen: FxHashSet<Sym> = FxHashSet::default();
    for atom in &query.atoms {
        if !seen.insert(atom.name) {
            continue;
        }
        let schema: Schema = db
            .get(atom.name)
            .map(|r| r.schema().clone())
            .unwrap_or_else(|| atom.schema.clone());
        for shard_db in &mut out {
            shard_db.create(atom.name, schema.clone());
        }
        if let Some(rel) = db.get(atom.name) {
            for (t, payload) in rel.iter() {
                match router.shard_for(atom.name, t) {
                    Some(s) => {
                        out[s]
                            .get_mut(atom.name)
                            .expect("relation created above")
                            .apply(t.clone(), payload);
                    }
                    None => {
                        for shard_db in &mut out {
                            shard_db
                                .get_mut(atom.name)
                                .expect("relation created above")
                                .apply(t.clone(), payload);
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::ops::{eval_join_aggregate, lift_one};
    use ivm_data::{sym, tup, vars};
    use ivm_query::Atom;

    /// Q(x,y,z) = R(x,y)·S(x,z): fully partitionable by x.
    fn star2() -> Query {
        let [x, y, z] = vars(["she_X", "she_Y", "she_Z"]);
        Query::new(
            "she_star",
            [x, y, z],
            vec![
                Atom::new(sym("she_R"), [x, y]),
                Atom::new(sym("she_S"), [x, z]),
            ],
        )
    }

    #[test]
    fn sharded_matches_single_on_star() {
        let q = star2();
        let (rn, sn) = (q.atoms[0].name, q.atoms[1].name);
        let db = Database::new();
        let mut single = DataflowEngine::<i64>::new(q.clone(), &db, lift_one).unwrap();
        let mut sharded = ShardedEngine::<i64>::new(q, &db, lift_one, 4).unwrap();
        assert_eq!(sharded.shards(), 4);
        assert!(!sharded.plan().is_degenerate());

        for i in 0..40i64 {
            let batch = vec![
                Update::with_payload(rn, tup![i % 7, i], 1),
                Update::with_payload(sn, tup![i % 7, i + 100], if i % 5 == 0 { -1 } else { 1 }),
            ];
            let d1 = single.apply_batch(&batch).unwrap();
            let d2 = sharded.apply_batch(&batch).unwrap();
            assert_eq!(d1.len(), d2.len(), "deltas differ at step {i}");
            for (t, p) in d1.iter() {
                assert_eq!(&d2.get(t), p, "delta at {t:?} step {i}");
            }
        }
        let (a, b) = (single.output_relation(), sharded.output_relation());
        assert_eq!(a.len(), b.len());
        for (t, p) in a.iter() {
            assert_eq!(&b.get(t), p);
        }
    }

    #[test]
    fn preprocessing_routes_the_initial_database() {
        let q = star2();
        let (rn, sn) = (q.atoms[0].name, q.atoms[1].name);
        let mut db: Database<i64> = Database::new();
        db.create(rn, q.atoms[0].schema.clone());
        db.create(sn, q.atoms[1].schema.clone());
        for i in 0..16i64 {
            db.apply(&Update::insert(rn, tup![i, i * 10]));
            db.apply(&Update::insert(sn, tup![i, i * 100]));
        }
        let mut sharded = ShardedEngine::<i64>::new(q.clone(), &db, lift_one, 3).unwrap();
        // Preprocessing is already visible in the fleet stats, before any
        // worker has reported: 16 R + 16 S tuples replayed across shards.
        let pre = sharded.stats();
        assert_eq!(pre.updates_in, 32);
        assert_eq!(pre.batches, 3, "one preprocessing batch per shard");
        // Touch one x to force a delta through the preprocessed state.
        sharded
            .apply_batch(&[Update::insert(sn, tup![3i64, 999i64])])
            .unwrap();
        let r_rel = db.relation(rn).clone();
        let mut s_rel = db.relation(sn).clone();
        s_rel.apply(tup![3i64, 999i64], &1);
        let expect = eval_join_aggregate(&[&r_rel, &s_rel], &q.free, lift_one);
        let got = sharded.output_relation();
        assert_eq!(got.len(), expect.len());
        for (t, p) in expect.iter() {
            assert_eq!(&got.get(t), p, "at {t:?}");
        }
    }

    #[test]
    fn pipelined_enqueue_then_drain_matches_synchronous() {
        let q = star2();
        let (rn, sn) = (q.atoms[0].name, q.atoms[1].name);
        let db = Database::new();
        let mut sync = ShardedEngine::<i64>::new(q.clone(), &db, lift_one, 2).unwrap();
        let mut pipelined = ShardedEngine::<i64>::new(q, &db, lift_one, 2).unwrap();
        let batches: Vec<Vec<Update<i64>>> = (0..30i64)
            .map(|i| {
                vec![
                    Update::insert(rn, tup![i % 4, i]),
                    Update::with_payload(sn, tup![i % 4, i + 50], 2),
                ]
            })
            .collect();
        for b in &batches {
            sync.apply_batch(b).unwrap();
        }
        // Async path: enqueue everything without waiting, then drain once.
        let mut seqs = Vec::new();
        for b in &batches {
            seqs.push(pipelined.enqueue_batch(b).unwrap());
        }
        assert_eq!(seqs.len(), 30);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        pipelined.drain().unwrap();
        let (a, b) = (sync.output_relation(), pipelined.output_relation());
        assert_eq!(a.len(), b.len());
        for (t, p) in a.iter() {
            assert_eq!(&b.get(t), p);
        }
    }

    #[test]
    fn fully_cancelled_batch_completes_without_touching_workers() {
        let q = star2();
        let rn = q.atoms[0].name;
        let mut eng = ShardedEngine::<i64>::new(q, &Database::new(), lift_one, 2).unwrap();
        let delta = eng
            .apply_batch(&[
                Update::insert(rn, tup![1i64, 1i64]),
                Update::delete(rn, tup![1i64, 1i64]),
            ])
            .unwrap();
        assert!(delta.is_empty());
        assert_eq!(eng.sharded_stats().router.routed, 0);
    }

    #[test]
    fn static_and_unknown_relations_rejected_centrally() {
        let [x, y, z] = vars(["she_mX", "she_mY", "she_mZ"]);
        let (rn, sn) = (sym("she_mR"), sym("she_mS"));
        let q = Query::new(
            "she_mixed",
            [x],
            vec![
                Atom::new(rn, [x, y]),
                Atom::new_static(sn, Schema::from([y, z])),
            ],
        );
        let mut eng = ShardedEngine::<i64>::new(q, &Database::new(), lift_one, 2).unwrap();
        assert_eq!(
            eng.apply_batch(&[Update::insert(sn, tup![1i64, 2i64])])
                .unwrap_err(),
            EngineError::StaticRelation(sn)
        );
        assert_eq!(
            eng.apply_batch(&[Update::insert(sym("she_nope"), tup![1i64])])
                .unwrap_err(),
            EngineError::UnknownRelation(sym("she_nope"))
        );
        eng.apply_batch(&[Update::insert(rn, tup![1i64, 2i64])])
            .unwrap();
    }

    #[test]
    fn degenerate_plan_still_maintains_correctly() {
        // Self-join triangle: unshardable, runs serially on shard 0 but
        // behind the same facade.
        let [a, b, c] = vars(["she_tA", "she_tB", "she_tC"]);
        let e = sym("she_tE");
        let q = Query::new(
            "she_tri",
            [],
            vec![
                Atom::new(e, [a, b]),
                Atom::new(e, [b, c]),
                Atom::new(e, [c, a]),
            ],
        );
        let mut eng = ShardedEngine::<i64>::new(q, &Database::new(), lift_one, 4).unwrap();
        assert!(eng.plan().is_degenerate());
        // The fleet is clamped to one worker: extra shards would idle.
        assert_eq!(eng.shards(), 1, "{}", eng.describe());
        for (x, y) in [(1i64, 2i64), (2, 3), (3, 1), (1, 9)] {
            eng.apply(&Update::insert(e, tup![x, y])).unwrap();
        }
        assert_eq!(eng.output_relation().get(&Tuple::empty()), 3);
        let st = eng.sharded_stats();
        assert_eq!(st.per_shard.len(), 1);
        assert!(st.per_shard[0].batches > 0);
    }

    #[test]
    fn shard_failure_poisons_instead_of_hanging() {
        // Force a worker-side failure through the test-only worker fault.
        let q = star2();
        let mut eng = ShardedEngine::<i64>::new(q, &Database::new(), lift_one, 2).unwrap();
        eng.workers[0]
            .send(crate::worker::Job::Fail(
                0,
                EngineError::UnknownRelation(sym("she_rogue")),
                None,
            ))
            .unwrap();
        eng.next_seq = 1;
        eng.in_flight.insert(
            0,
            Pending {
                remaining: 1,
                delta: Relation::new(eng.query.free.clone()),
                enqueued: Instant::now(),
                replan: false,
            },
        );
        // The drain surfaces the failure instead of blocking forever...
        assert!(matches!(
            eng.drain().unwrap_err(),
            EngineError::UnknownRelation(_)
        ));
        // ...and the engine stays poisoned: everything fails fast now.
        let rn = eng.query.atoms[0].name;
        assert_eq!(
            eng.apply_batch(&[Update::insert(rn, tup![1i64, 1i64])])
                .unwrap_err(),
            EngineError::UnknownRelation(sym("she_rogue"))
        );
        assert!(eng.drain().is_err());
    }

    /// An observed fleet mirrors its counters into the registry —
    /// per-shard and fleet-merged values agree with `sharded_stats()` —
    /// and queue-depth gauges return to zero once drained.
    #[test]
    fn observed_fleet_mirrors_counters_and_queues_settle_to_zero() {
        let q = star2();
        let (rn, sn) = (q.atoms[0].name, q.atoms[1].name);
        let mut eng = ShardedEngine::<i64>::new(q, &Database::new(), lift_one, 4).unwrap();
        let reg = MetricsRegistry::new();
        eng.observe(&reg, "t.fleet").unwrap();
        for i in 0..12i64 {
            eng.enqueue_batch(&[
                Update::insert(rn, tup![i % 6, i]),
                Update::insert(sn, tup![i % 6, i + 100]),
            ])
            .unwrap();
        }
        eng.drain().unwrap();
        let snap = reg.snapshot();
        let st = eng.sharded_stats();
        let merged = st.merged();
        assert_eq!(snap.counter("t.fleet.updates_in"), merged.updates_in);
        let per_shard_sum: u64 = (0..4)
            .map(|i| snap.counter(&format!("t.fleet.shard{i}.dataflow.updates_in")))
            .sum();
        assert_eq!(per_shard_sum, merged.updates_in);
        for i in 0..4 {
            assert_eq!(
                snap.gauge(&format!("t.fleet.shard{i}.queue_depth")),
                0,
                "drained shard {i} must have an empty queue"
            );
            assert_eq!(
                snap.counter(&format!("t.fleet.shard{i}.busy_ns")),
                st.busy[i].as_nanos() as u64
            );
        }
        assert_eq!(snap.counter("t.fleet.batches_enqueued"), 12);
        assert_eq!(snap.counter("t.fleet.router.routed"), st.router.routed);
        assert!(snap.counter("t.fleet.router.consolidate_ns") > 0);
        let settle = snap.histogram("t.fleet.settle_ns").unwrap();
        assert_eq!(settle.count, 12, "one latency sample per settled batch");
        // Worker-side dataflow series arrived through Job::Observe.
        assert!(
            snap.counters
                .keys()
                .any(|k| k.starts_with("t.fleet.shard0.dataflow.op.")),
            "expected per-operator series, got: {:?}",
            snap.counters.keys().take(8).collect::<Vec<_>>()
        );
    }

    /// Killing a shard on an observed fleet writes a flight-recorder
    /// post-mortem: parseable JSON that carries the failing epoch's
    /// spans (queue wait and the apply that died) plus a snapshot.
    #[test]
    fn kill_a_shard_dumps_a_parseable_flight_record() {
        let q = star2();
        let mut eng = ShardedEngine::<i64>::new(q, &Database::new(), lift_one, 2).unwrap();
        let reg = MetricsRegistry::new();
        eng.observe(&reg, "t.flight").unwrap();

        // An epoch root on the shared tracer, exactly as a session would
        // open one; the rogue job joins it through its TraceCtx.
        let tracer = reg.tracer().clone();
        let root = tracer.enter(tracer.intern("session.ingest"), 7);
        let ctx = TraceCtx {
            parent: root.id(),
            epoch: 7,
            enqueued: Instant::now(),
        };
        eng.workers[0]
            .send(crate::worker::Job::Fail(
                0,
                EngineError::UnknownRelation(sym("she_rogue_fr")),
                Some(ctx),
            ))
            .unwrap();
        eng.next_seq = 1;
        eng.in_flight.insert(
            0,
            Pending {
                remaining: 1,
                delta: Relation::new(eng.query.free.clone()),
                enqueued: Instant::now(),
                replan: false,
            },
        );
        root.finish();
        assert!(eng.drain().is_err());

        // The dump names the rogue relation in its detail; find it among
        // whatever other tests dumped (files are pid+seq unique).
        let dir = std::path::Path::new("target/flight");
        let body = std::fs::read_dir(dir)
            .expect("flight dir exists after a poisoning")
            .filter_map(|e| std::fs::read_to_string(e.ok()?.path()).ok())
            .find(|b| b.contains("she_rogue_fr"))
            .expect("a post-mortem for this failure");
        let doc = ivm_obs::Json::parse(&body).expect("dump is parseable JSON");
        assert_eq!(
            doc.get("reason").and_then(|r| r.as_str()),
            Some("shard-failure")
        );
        let spans = doc.get("spans").and_then(|s| s.as_arr()).unwrap();
        let in_epoch7 = |label: &str| {
            spans.iter().any(|s| {
                s.get("epoch").and_then(|e| e.as_f64()) == Some(7.0)
                    && s.get("label").and_then(|l| l.as_str()) == Some(label)
            })
        };
        assert!(in_epoch7("session.ingest"), "failing epoch's root span");
        assert!(in_epoch7("shard0.queue_wait"), "queue-wait span");
        assert!(in_epoch7("shard0.apply"), "the apply that died");
        assert!(
            doc.get("snapshot").is_some(),
            "post-mortem staples the full metrics snapshot"
        );
    }

    /// Satellite: a poisoned shard must not leave gauges stuck non-zero
    /// — the queue depths of a dead fleet read zero, not a phantom
    /// backlog.
    #[test]
    fn poisoned_fleet_zeroes_queue_gauges() {
        let q = star2();
        let mut eng = ShardedEngine::<i64>::new(q, &Database::new(), lift_one, 2).unwrap();
        let reg = MetricsRegistry::new();
        eng.observe(&reg, "t.poison").unwrap();
        eng.workers[0]
            .send(crate::worker::Job::Fail(
                0,
                EngineError::UnknownRelation(sym("she_rogue2")),
                None,
            ))
            .unwrap();
        if let Some(obs) = &eng.obs {
            obs.per_shard[0].queue_depth.inc();
        }
        eng.next_seq = 1;
        eng.in_flight.insert(
            0,
            Pending {
                remaining: 1,
                delta: Relation::new(eng.query.free.clone()),
                enqueued: Instant::now(),
                replan: false,
            },
        );
        assert!(eng.drain().is_err());
        let snap = reg.snapshot();
        for i in 0..2 {
            assert_eq!(
                snap.gauge(&format!("t.poison.shard{i}.queue_depth")),
                0,
                "poisoned fleet must zero its queue gauges"
            );
        }
        // And observing a poisoned fleet fails fast like everything else.
        assert!(eng.observe(&reg, "t.poison").is_err());
    }

    /// A fleet runs the variable order its `lowered_cards` derive. On a
    /// 4-cycle whose relation sizes order differently per shard slice
    /// than globally, a freshly built fleet and the same fleet replanned
    /// to its own `lowered_cards` must do identical work on one stream.
    #[test]
    fn fresh_fleet_runs_the_order_it_reports() {
        let [a, b, c, d] = vars(["sh4_A", "sh4_B", "sh4_C", "sh4_D"]);
        let rels = [sym("sh4_R"), sym("sh4_S"), sym("sh4_T"), sym("sh4_U")];
        let schemas = [[a, b], [b, c], [c, d], [d, a]];
        let q = Query::new(
            "sh4_cycle",
            [],
            (0..4).map(|i| Atom::new(rels[i], schemas[i])).collect(),
        );
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as i64 % 200
        };
        let mut db: Database<i64> = Database::new();
        for (i, n) in [600, 4000, 500, 4000].into_iter().enumerate() {
            db.create(rels[i], Schema::from(schemas[i]));
            while db.relation(rels[i]).len() < n {
                db.apply(&Update::insert(rels[i], tup![next(), next()]));
            }
        }
        let stream: Vec<Update<i64>> = (0..800)
            .map(|i| Update::insert(rels[i % 4], tup![next(), next()]))
            .collect();

        let mut fresh = ShardedEngine::<i64>::new(q.clone(), &db, lift_one, 2).unwrap();
        let mut replanned = ShardedEngine::<i64>::new(q, &db, lift_one, 2).unwrap();
        assert_eq!(fresh.shards(), 2);
        let own = replanned.lowered_cards().clone();
        replanned.replan_with_cards(&db, &own).unwrap();
        assert_eq!(fresh.describe(), replanned.describe());
        let (f0, r0) = (fresh.stats(), replanned.stats());
        for batch in stream.chunks(16) {
            fresh.apply_batch(batch).unwrap();
            replanned.apply_batch(batch).unwrap();
        }
        let (f, r) = (fresh.stats().since(&f0), replanned.stats().since(&r0));
        assert!(f.multiway_probes > 0);
        assert_eq!(f.multiway_probes, r.multiway_probes);
        assert_eq!(f.multiway_seeds, r.multiway_seeds);
        assert_eq!(
            fresh.output_relation().get(&Tuple::empty()),
            replanned.output_relation().get(&Tuple::empty())
        );
    }

    #[test]
    fn fleet_replan_preserves_state_and_stats() {
        let q = star2();
        let (rn, sn) = (q.atoms[0].name, q.atoms[1].name);
        let mut db: Database<i64> = Database::new();
        db.create(rn, q.atoms[0].schema.clone());
        db.create(sn, q.atoms[1].schema.clone());
        let mut eng = ShardedEngine::<i64>::new(q.clone(), &db, lift_one, 3).unwrap();
        for i in 0..24i64 {
            let batch = vec![
                Update::insert(rn, tup![i % 5, i]),
                Update::insert(sn, tup![i % 5, i + 100]),
            ];
            eng.apply_batch(&batch).unwrap();
            db.apply_batch(&batch);
        }
        let before = eng.stats();
        let view_before: Vec<_> = {
            let mut v: Vec<_> = eng
                .output_relation()
                .iter()
                .map(|(t, p)| (t.clone(), *p))
                .collect();
            v.sort();
            v
        };

        // Broadcast a consistent re-lowering from learned-style cards.
        let mut cards = Cardinalities::none();
        cards.set(rn, db.relation(rn).len()).set(sn, 1);
        eng.replan_with_cards(&db, &cards).unwrap();
        assert_eq!(eng.lowered_cards().get(sn), 1);

        // State reproduced, history kept (monotone counters).
        let mut view_after: Vec<_> = eng
            .output_relation()
            .iter()
            .map(|(t, p)| (t.clone(), *p))
            .collect();
        view_after.sort();
        assert_eq!(view_before, view_after);
        let after = eng.stats();
        assert!(after.batches >= before.batches);
        assert_eq!(after.updates_in, before.updates_in);

        // And the fresh plan keeps maintaining correctly on top.
        let batch = vec![
            Update::insert(rn, tup![2i64, 999i64]),
            Update::delete(sn, tup![2i64, 102i64]),
        ];
        eng.apply_batch(&batch).unwrap();
        db.apply_batch(&batch);
        let expect = {
            let per_atom = [db.relation(rn), db.relation(sn)];
            eval_join_aggregate(&per_atom, &q.free, lift_one)
        };
        let got = eng.output_relation();
        assert_eq!(got.len(), expect.len());
        for (t, p) in expect.iter() {
            assert_eq!(&got.get(t), p, "at {t:?}");
        }
        assert!(eng.stats().updates_in > after.updates_in);
    }

    #[test]
    fn maintainer_facade_enumerates_after_draining() {
        let q = star2();
        let (rn, sn) = (q.atoms[0].name, q.atoms[1].name);
        let mut eng = ShardedEngine::<i64>::new(q, &Database::new(), lift_one, 2).unwrap();
        eng.enqueue_batch(&[
            Update::insert(rn, tup![1i64, 10i64]),
            Update::insert(sn, tup![1i64, 20i64]),
        ])
        .unwrap();
        // for_each_output drains implicitly.
        let mut n = 0;
        eng.for_each_output(&mut |t, p| {
            assert_eq!(t, &tup![1i64, 10i64, 20i64]);
            assert_eq!(*p, 1);
            n += 1;
        });
        assert_eq!(n, 1);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let q = star2();
        let (rn, sn) = (q.atoms[0].name, q.atoms[1].name);
        let mut eng = ShardedEngine::<i64>::new(q, &Database::new(), lift_one, 4).unwrap();
        let batch: Vec<Update<i64>> = (0..64i64)
            .flat_map(|i| {
                [
                    Update::insert(rn, tup![i, i]),
                    Update::insert(sn, tup![i, -i]),
                ]
            })
            .collect();
        eng.apply_batch(&batch).unwrap();
        let merged = eng.stats();
        // Every x joins once: 64 output delta tuples across the fleet.
        assert_eq!(merged.output_delta_tuples, 64);
        // Ingestion total survives the consolidated fast path.
        assert_eq!(merged.updates_in, 128);
        // Work spread over more than one shard.
        let st = eng.sharded_stats();
        let active = st.per_shard.iter().filter(|s| s.deltas_in > 0).count();
        assert!(active > 1, "expected multiple active shards, got {active}");
        assert_eq!(st.router.routed, 128);
        assert_eq!(st.router.broadcast_copies, 0);
    }
}
