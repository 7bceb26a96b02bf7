//! The generic heavy-light engine: IVMε (Sec. 3.3) over `ivm_data`
//! tuples and semiring payloads, behind the common [`Maintainer`] trait.

use crate::adjacency::Adj;
use ivm_core::{EngineError, Maintainer};
use ivm_data::ops::Lift;
use ivm_data::{consolidate, Database, FxHashMap, FxHashSet, Relation, Sym, Tuple, Update, Value};
use ivm_obs::{Counter, Gauge, MetricsRegistry};
use ivm_query::Query;
use ivm_ring::Semiring;
use std::collections::hash_map::Entry;

/// The rotation a triangle-class query must exhibit: three distinct
/// binary dynamic relations forming one oriented cycle
/// `R(a,b)·S(b,c)·T(c,a)` with no free and no input variables. Returns
/// the relation names and variables in rotation order (`vars[i]` is the
/// first column of `rels[i]`).
pub(crate) fn rotation(q: &Query) -> Option<([Sym; 3], [Sym; 3])> {
    if q.atoms.len() != 3 || q.free.arity() != 0 || q.input.arity() != 0 {
        return None;
    }
    if q.atoms.iter().any(|a| !a.dynamic) {
        return None;
    }
    let names: Vec<Sym> = q.atoms.iter().map(|a| a.name).collect();
    if names[0] == names[1] || names[0] == names[2] || names[1] == names[2] {
        return None;
    }
    let pair = |idx: usize| -> Option<(Sym, Sym)> {
        let v = q.atoms[idx].schema.vars();
        (v.len() == 2).then(|| (v[0], v[1]))
    };
    let (a, b) = pair(0)?;
    for (i, j) in [(1usize, 2usize), (2, 1)] {
        let (b2, c) = pair(i)?;
        let (c2, a2) = pair(j)?;
        if b2 == b && c2 == c && a2 == a && a != b && b != c && a != c {
            return Some(([names[0], names[i], names[j]], [a, b, c]));
        }
    }
    None
}

/// Whether `q` is a query the heavy-light engine maintains (see
/// `rotation`). The session layer consults this during classification
/// so auto-selection only routes eligible cyclic queries here.
pub fn admits(q: &Query) -> bool {
    rotation(q).is_some()
}

/// Cumulative engine counters, exposed for benches and `explain()`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HlStats {
    /// Single-tuple updates ingested (batch paths count their items).
    pub updates: u64,
    /// Inner-loop operations — the machine-independent cost measure the
    /// scaling experiments plot (same convention as `ivm_ivme`).
    pub work: u64,
    /// Per-key partition migrations performed.
    pub migrations: u64,
    /// Global θ-recomputing rebalances performed.
    pub rebalances: u64,
    /// Count deltas answered through the heavy path (HH loop + HL view
    /// lookup) — updates that would have paid O(deg) without the split.
    pub heavy_hits: u64,
    /// Count deltas answered by scanning a light (< 2θ) row.
    pub light_scans: u64,
}

/// Metric handles behind [`HeavyLightEngine::observe`]; counters publish
/// increments of [`HlStats`], gauges the live partition shape.
struct HlObs {
    updates: Counter,
    work: Counter,
    migrations: Counter,
    rebalances: Counter,
    heavy_hits: Counter,
    light_scans: Counter,
    threshold: Gauge,
    heavy_keys: Gauge,
    view_entries: Gauge,
    base_pairs: Gauge,
    /// Counters are cumulative; this remembers what was already published
    /// so re-entrant publishes add exactly the increment.
    published: HlStats,
}

fn bump<R: Semiring>(map: &mut FxHashMap<(Value, Value), R>, key: (Value, Value), d: R) {
    if d.is_zero() {
        return;
    }
    match map.entry(key) {
        Entry::Occupied(mut o) => {
            o.get_mut().add_assign(&d);
            if o.get().is_zero() {
                o.remove();
            }
        }
        Entry::Vacant(v) => {
            v.insert(d);
        }
    }
}

/// IVMε over generic tuples (Sec. 3.3): heavy-light partitioned triangle
/// maintenance with amortized O(N^max(ε,1−ε)) single-tuple updates —
/// O(√N) at the optimal ε = ½ — generalizing the raw-`u64`
/// `ivm_ivme::TriangleIvmEps` kernel to `Value` keys and any *ring*
/// payload behind the [`Maintainer`] trait.
///
/// Each relation is partitioned on its first column: a key is *heavy*
/// when its degree (distinct present partners) reaches 2θ and *light*
/// again below θ — the hysteresis band amortizes partition migrations —
/// with θ = ⌈N^ε⌉ recomputed, and the auxiliary views rebuilt, whenever
/// the database size drifts by 2× (lazy global rebalancing). The heavy
/// side is maintained through materialized views
/// `view[i][(u,w)] = Σ_v rel[i+1]_H(u,v)·rel[i+2]_L(v,w)`; the light
/// side answers deltas by enumerating its ≤ 2θ partners directly.
///
/// Payloads must form a ring in practice: migrating a key across the
/// partition boundary transfers its view contributions *with sign*, so
/// construction refuses payload types whose [`Semiring::try_neg`] is
/// `None`. Deletions arrive the usual way, as additive-inverse payloads.
pub struct HeavyLightEngine<R: Semiring> {
    query: Query,
    eps: f64,
    /// Relation names in rotation order (`rels[i]` maps var i → var i+1).
    rels: [Sym; 3],
    /// Rotation variables; `vars[i]` is the first column of `rels[i]`,
    /// and the column whose lifting is folded into `rels[i]`'s payloads.
    vars: [Sym; 3],
    lift: Lift<R>,
    rel: [Adj<R>; 3],
    /// Heavy first-column keys per relation.
    heavy: [FxHashSet<Value>; 3],
    /// `view[i][(u, w)] = Σ_v rel[i+1]_H(u,v) · rel[i+2]_L(v,w)`.
    view: [FxHashMap<(Value, Value), R>; 3],
    count: R,
    threshold: usize,
    /// Total size at the last rebalance — the 2× drift reference.
    base_n: usize,
    stats: HlStats,
    obs: Option<HlObs>,
}

impl<R: Semiring> std::fmt::Debug for HeavyLightEngine<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeavyLightEngine")
            .field("eps", &self.eps)
            .field("threshold", &self.threshold)
            .field("base_n", &self.base_n)
            .field("heavy", &self.heavy_counts())
            .field("view_entries", &self.view_entries())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<R: Semiring> HeavyLightEngine<R> {
    /// Build over `db` at the optimal ε = ½.
    pub fn new(query: Query, db: &Database<R>, lift: Lift<R>) -> Result<Self, EngineError> {
        Self::new_with_eps(query, db, lift, 0.5)
    }

    /// Build over `db` with an explicit ε ∈ [0, 1]: update time is
    /// O(N^max(ε,1−ε)) amortized against O(N^{1+min(ε,1−ε)}) view space.
    pub fn new_with_eps(
        query: Query,
        db: &Database<R>,
        lift: Lift<R>,
        eps: f64,
    ) -> Result<Self, EngineError> {
        if !(0.0..=1.0).contains(&eps) {
            return Err(EngineError::NotSupported(format!(
                "heavy-light ε must be in [0, 1], got {eps}"
            )));
        }
        let Some((rels, vars)) = rotation(&query) else {
            return Err(EngineError::NotSupported(
                "heavy-light maintenance needs a triangle-class query: \
                 three distinct binary dynamic relations forming one \
                 oriented cycle R(a,b)·S(b,c)·T(c,a) with no free \
                 variables"
                    .into(),
            ));
        };
        if R::one().try_neg().is_none() {
            return Err(EngineError::NotSupported(
                "heavy-light maintenance transfers view contributions \
                 with sign when a key migrates across the partition \
                 boundary, so the payload type must have additive \
                 inverses (a ring; see Semiring::try_neg)"
                    .into(),
            ));
        }
        let mut eng = HeavyLightEngine {
            query,
            eps,
            rels,
            vars,
            lift,
            rel: Default::default(),
            heavy: Default::default(),
            view: Default::default(),
            count: R::zero(),
            threshold: 1,
            base_n: 4,
            stats: HlStats::default(),
            obs: None,
        };
        // Preprocess by replaying the initial contents through the
        // ordinary update path: O(|D|·θ) worst case, and the size-drift
        // trigger keeps θ tracking the growing base as it loads.
        for i in 0..3 {
            if let Some(relation) = db.get(rels[i]) {
                for (t, r) in relation.iter() {
                    let m = r.times(&(eng.lift)(vars[i], t.at(0)));
                    if !m.is_zero() {
                        let (x, y) = (t.at(0).clone(), t.at(1).clone());
                        eng.apply_update(i, &x, &y, &m);
                    }
                }
            }
        }
        Ok(eng)
    }

    /// The ε this engine was built with.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The current heavy/light threshold θ = ⌈N^ε⌉ (as of the last
    /// rebalance).
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Cumulative engine counters.
    pub fn stats(&self) -> HlStats {
        self.stats
    }

    /// The maintained aggregate, without going through the
    /// `for_each_output` enumeration (which needs `&mut self`).
    pub fn count(&self) -> &R {
        &self.count
    }

    /// Heavy-key counts per relation, in rotation order.
    pub fn heavy_counts(&self) -> [usize; 3] {
        [0, 1, 2].map(|i| self.heavy[i].len())
    }

    /// Per-relation partition shape: `(relation, heavy keys, light keys)`
    /// over distinct first-column keys, in rotation order.
    pub fn part_sizes(&self) -> [(Sym, usize, usize); 3] {
        [0, 1, 2].map(|i| {
            let heavy = self.heavy[i].len();
            let keys = self.rel[i].keys_fwd().count();
            (self.rels[i], heavy, keys.saturating_sub(heavy))
        })
    }

    /// Total auxiliary-view entries (the O(N^{1+min(ε,1−ε)}) space term).
    pub fn view_entries(&self) -> usize {
        self.view.iter().map(|v| v.len()).sum()
    }

    /// Present pairs across the three base relations.
    pub fn base_pairs(&self) -> usize {
        self.rel.iter().map(|r| r.len()).sum()
    }

    /// Tuples resident in engine-owned state: base indexes (counted once
    /// per direction) plus auxiliary views.
    pub fn resident_tuples(&self) -> usize {
        2 * self.base_pairs() + self.view_entries()
    }

    /// One line describing the live plan, for `Session::describe`.
    pub fn plan(&self) -> String {
        let parts = self.part_sizes();
        format!(
            "HeavyLight(ε={}, θ={}, heavy/light keys {})",
            self.eps,
            self.threshold,
            parts
                .iter()
                .map(|(r, h, l)| format!("{r}:{h}/{l}"))
                .collect::<Vec<_>>()
                .join(" "),
        )
    }

    /// Publish `ivm.hl.*`-style series under `prefix`: counters for
    /// updates/work/migrations/rebalances/heavy-vs-light path hits,
    /// gauges for θ and the live partition/view sizes. Attaching twice
    /// (e.g. after a family replan rebuilt the engine) stays cumulative.
    pub fn observe(&mut self, registry: &MetricsRegistry, prefix: &str) {
        let mut obs = HlObs {
            updates: registry.counter(&format!("{prefix}.updates")),
            work: registry.counter(&format!("{prefix}.work")),
            migrations: registry.counter(&format!("{prefix}.migrations")),
            rebalances: registry.counter(&format!("{prefix}.rebalances")),
            heavy_hits: registry.counter(&format!("{prefix}.heavy_hits")),
            light_scans: registry.counter(&format!("{prefix}.light_scans")),
            threshold: registry.gauge(&format!("{prefix}.threshold")),
            heavy_keys: registry.gauge(&format!("{prefix}.heavy_keys")),
            view_entries: registry.gauge(&format!("{prefix}.view_entries")),
            base_pairs: registry.gauge(&format!("{prefix}.base_pairs")),
            published: HlStats::default(),
        };
        // A rebuilt engine (family replan) attaches fresh handles to the
        // same registry names: skip what the registry already counted so
        // the series stay cumulative across the swap.
        obs.published = HlStats {
            updates: obs.updates.get(),
            work: obs.work.get(),
            migrations: obs.migrations.get(),
            rebalances: obs.rebalances.get(),
            heavy_hits: obs.heavy_hits.get(),
            light_scans: obs.light_scans.get(),
        };
        self.obs = Some(obs);
        self.publish();
    }

    fn publish(&mut self) {
        let Some(obs) = self.obs.as_mut() else {
            return;
        };
        let s = self.stats;
        let p = obs.published;
        obs.updates.add(s.updates.saturating_sub(p.updates));
        obs.work.add(s.work.saturating_sub(p.work));
        obs.migrations
            .add(s.migrations.saturating_sub(p.migrations));
        obs.rebalances
            .add(s.rebalances.saturating_sub(p.rebalances));
        obs.heavy_hits
            .add(s.heavy_hits.saturating_sub(p.heavy_hits));
        obs.light_scans
            .add(s.light_scans.saturating_sub(p.light_scans));
        obs.published = s;
        obs.threshold.set(self.threshold as i64);
        obs.heavy_keys
            .set(self.heavy.iter().map(|h| h.len()).sum::<usize>() as i64);
        obs.view_entries
            .set(self.view.iter().map(|v| v.len()).sum::<usize>() as i64);
        obs.base_pairs
            .set(self.rel.iter().map(|r| r.len()).sum::<usize>() as i64);
    }

    /// Verify the partition invariants the hysteresis maintains after
    /// every update: a heavy key's degree exceeds θ, a light key's stays
    /// below 2θ, and no key is heavy without present pairs. For tests.
    pub fn check_partition(&self) -> Result<(), String> {
        for i in 0..3 {
            for x in &self.heavy[i] {
                let deg = self.rel[i].deg_fwd(x);
                if deg <= self.threshold {
                    return Err(format!(
                        "rel {} key {x:?}: heavy with degree {deg} ≤ θ={}",
                        self.rels[i], self.threshold
                    ));
                }
            }
            for x in self.rel[i].keys_fwd() {
                let deg = self.rel[i].deg_fwd(x);
                if !self.heavy[i].contains(x) && deg >= 2 * self.threshold {
                    return Err(format!(
                        "rel {} key {x:?}: light with degree {deg} ≥ 2θ={}",
                        self.rels[i],
                        2 * self.threshold
                    ));
                }
            }
        }
        Ok(())
    }

    /// Verify the three auxiliary views against a from-scratch recompute
    /// over the current partition. For tests; O(N·θ).
    pub fn check_views(&self) -> Result<(), String> {
        for i in 0..3 {
            let (j, k) = ((i + 1) % 3, (i + 2) % 3);
            let mut expect: FxHashMap<(Value, Value), R> = FxHashMap::default();
            for u in &self.heavy[j] {
                for (v, m1) in self.rel[j].row(u) {
                    if self.heavy[k].contains(v) {
                        continue;
                    }
                    for (w, m2) in self.rel[k].row(v) {
                        bump(&mut expect, (u.clone(), w.clone()), m1.times(m2));
                    }
                }
            }
            if expect != self.view[i] {
                return Err(format!(
                    "view[{i}] diverged: {} entries maintained vs {} recomputed",
                    self.view[i].len(),
                    expect.len()
                ));
            }
        }
        Ok(())
    }

    fn rot(&self, rel: Sym) -> Option<usize> {
        self.rels.iter().position(|&r| r == rel)
    }

    fn neg(&self, r: &R) -> R {
        r.try_neg()
            .expect("payload negation was validated at build time")
    }

    fn total_size(&self) -> usize {
        self.rel.iter().map(|r| r.len()).sum()
    }

    /// The skew-aware count delta for `δrel[i](x, y)` (Sec. 3.3): a
    /// light `y` enumerates its ≤ 2θ partners (LL + LH); a heavy `y`
    /// loops the ≤ N/θ heavy `rel[i+2]` keys (HH) and answers the HL
    /// case with one view lookup.
    fn count_delta(&mut self, i: usize, x: &Value, y: &Value) -> R {
        let (j, k) = ((i + 1) % 3, (i + 2) % 3);
        let mut d = R::zero();
        let mut work = 1u64;
        if !self.heavy[j].contains(y) {
            for (v, m1) in self.rel[j].row(y) {
                work += 1;
                let m2 = self.rel[k].get(v, x);
                if !m2.is_zero() {
                    d.add_assign(&m1.times(&m2));
                }
            }
            self.stats.light_scans += 1;
        } else {
            for v in &self.heavy[k] {
                work += 1;
                let m1 = self.rel[j].get(y, v);
                if m1.is_zero() {
                    continue;
                }
                let m2 = self.rel[k].get(v, x);
                if !m2.is_zero() {
                    d.add_assign(&m1.times(&m2));
                }
            }
            work += 1;
            if let Some(hl) = self.view[i].get(&(y.clone(), x.clone())) {
                d.add_assign(hl);
            }
            self.stats.heavy_hits += 1;
        }
        self.stats.work += work;
        d
    }

    /// Maintain the views that mention `rel[i]` under `δrel[i](x,y,m)`:
    /// `rel[i]` is the H-part of `view[i+2]` (at u = x) and the L-part of
    /// `view[i+1]` (at v = x).
    fn maintain_views(&mut self, i: usize, x: &Value, y: &Value, m: &R) {
        let (j, k) = ((i + 1) % 3, (i + 2) % 3);
        if self.heavy[i].contains(x) && !self.heavy[j].contains(y) {
            let row: Vec<(Value, R)> = self.rel[j]
                .row(y)
                .map(|(w, mj)| (w.clone(), mj.clone()))
                .collect();
            self.stats.work += row.len() as u64 + 1;
            for (w, mj) in row {
                bump(&mut self.view[k], (x.clone(), w), m.times(&mj));
            }
        }
        if !self.heavy[i].contains(x) {
            let heavy_k: Vec<Value> = self.heavy[k].iter().cloned().collect();
            self.stats.work += heavy_k.len() as u64 + 1;
            for u in heavy_k {
                let mk = self.rel[k].get(&u, x);
                if !mk.is_zero() {
                    bump(&mut self.view[j], (u, y.clone()), mk.times(m));
                }
            }
        }
    }

    /// Move `x` across the heavy/light boundary of partition `i`,
    /// transferring its contributions between `view[i+2]` (where it is
    /// an H-part key) and `view[i+1]` (where it is an L-part key) —
    /// the step that needs additive inverses.
    fn migrate(&mut self, i: usize, x: &Value, to_heavy: bool) {
        self.stats.migrations += 1;
        let (j, k) = ((i + 1) % 3, (i + 2) % 3);
        if to_heavy {
            self.heavy[i].insert(x.clone());
        } else {
            self.heavy[i].remove(x);
        }
        let row: Vec<(Value, R)> = self.rel[i]
            .row(x)
            .map(|(v, m)| (v.clone(), m.clone()))
            .collect();
        // H-part of view[k]: Σ_{v light in rel[j]} rel[i](x,v)·rel[j](v,w).
        for (v, m1) in &row {
            if !self.heavy[j].contains(v) {
                let inner: Vec<(Value, R)> = self.rel[j]
                    .row(v)
                    .map(|(w, m2)| (w.clone(), m2.clone()))
                    .collect();
                self.stats.work += inner.len() as u64 + 1;
                for (w, m2) in inner {
                    let d = m1.times(&m2);
                    let d = if to_heavy { d } else { self.neg(&d) };
                    bump(&mut self.view[k], (x.clone(), w), d);
                }
            }
        }
        // L-part of view[j]: Σ_{u heavy in rel[k]} rel[k](u,x)·rel[i](x,w)
        // — entering the heavy part removes these terms (and vice versa).
        let heavy_k: Vec<Value> = self.heavy[k].iter().cloned().collect();
        for u in heavy_k {
            let mk = self.rel[k].get(&u, x);
            if mk.is_zero() {
                continue;
            }
            self.stats.work += row.len() as u64 + 1;
            for (w, m1) in &row {
                let d = mk.times(m1);
                let d = if to_heavy { self.neg(&d) } else { d };
                bump(&mut self.view[j], (u.clone(), w.clone()), d);
            }
        }
    }

    /// Recompute θ, repartition every relation, and rebuild the three
    /// views from scratch. O(N·θ); amortized O(θ) over the ≥ N/2 updates
    /// between size-drift triggers.
    fn rebalance(&mut self) {
        self.stats.rebalances += 1;
        let n = self.total_size().max(4);
        self.base_n = n;
        self.threshold = (n as f64).powf(self.eps).ceil().max(1.0) as usize;
        let promote = (3 * self.threshold).div_ceil(2);
        for i in 0..3 {
            self.heavy[i] = self.rel[i]
                .keys_fwd()
                .filter(|x| self.rel[i].deg_fwd(x) >= promote)
                .cloned()
                .collect();
        }
        for i in 0..3 {
            let (j, k) = ((i + 1) % 3, (i + 2) % 3);
            self.view[i].clear();
            let heavy_j: Vec<Value> = self.heavy[j].iter().cloned().collect();
            for u in heavy_j {
                let rowj: Vec<(Value, R)> = self.rel[j]
                    .row(&u)
                    .map(|(v, m1)| (v.clone(), m1.clone()))
                    .collect();
                for (v, m1) in rowj {
                    if self.heavy[k].contains(&v) {
                        continue;
                    }
                    let inner: Vec<(Value, R)> = self.rel[k]
                        .row(&v)
                        .map(|(w, m2)| (w.clone(), m2.clone()))
                        .collect();
                    self.stats.work += inner.len() as u64 + 1;
                    for (w, m2) in inner {
                        bump(&mut self.view[i], (u.clone(), w), m1.times(&m2));
                    }
                }
            }
        }
    }

    /// The full single-update step; returns this update's contribution
    /// to the maintained count (already multiplied by `m`).
    fn apply_update(&mut self, i: usize, x: &Value, y: &Value, m: &R) -> R {
        self.stats.updates += 1;
        let d = self.count_delta(i, x, y);
        let contrib = m.times(&d);
        self.count.add_assign(&contrib);
        self.maintain_views(i, x, y, m);
        let new_deg = self.rel[i].apply(x, y, m);
        let is_heavy = self.heavy[i].contains(x);
        if !is_heavy && new_deg >= 2 * self.threshold {
            self.migrate(i, x, true);
        } else if is_heavy && new_deg <= self.threshold {
            self.migrate(i, x, false);
        }
        let n = self.total_size();
        if n > 2 * self.base_n || (n >= 8 && n * 2 < self.base_n) {
            self.rebalance();
        }
        contrib
    }

    /// Shared validation: the update must target one of the three
    /// rotation relations with a binary tuple.
    fn validate(&self, upd: &Update<R>) -> Result<usize, EngineError> {
        let i = self
            .rot(upd.relation)
            .ok_or(EngineError::UnknownRelation(upd.relation))?;
        if upd.tuple.arity() != 2 {
            return Err(EngineError::NotSupported(format!(
                "heavy-light relations are binary; got an arity-{} tuple \
                 for {}",
                upd.tuple.arity(),
                upd.relation
            )));
        }
        Ok(i)
    }

    fn ingest(&mut self, i: usize, upd: &Update<R>) -> R {
        if upd.payload.is_zero() {
            return R::zero();
        }
        let m = upd
            .payload
            .times(&(self.lift)(self.vars[i], upd.tuple.at(0)));
        if m.is_zero() {
            return R::zero();
        }
        self.apply_update(i, upd.tuple.at(0), upd.tuple.at(1), &m)
    }
}

impl<R: Semiring> Maintainer<R> for HeavyLightEngine<R> {
    fn query(&self) -> &Query {
        &self.query
    }

    fn apply(&mut self, upd: &Update<R>) -> Result<(), EngineError> {
        let i = self.validate(upd)?;
        self.ingest(i, upd);
        self.publish();
        Ok(())
    }

    /// Native batch path: consolidate, apply, and return the exact
    /// output delta (the count's change) this batch propagated. The
    /// whole batch is validated up front, so rejection is atomic —
    /// matching the dataflow engines' failure granularity.
    fn apply_batch(&mut self, batch: &[Update<R>]) -> Result<Relation<R>, EngineError> {
        for upd in batch {
            self.validate(upd)?;
        }
        let mut delta = R::zero();
        for upd in consolidate(batch) {
            let i = self.rot(upd.relation).expect("validated above");
            delta.add_assign(&self.ingest(i, &upd));
        }
        self.publish();
        let mut out = Relation::new(self.query.free.clone());
        if !delta.is_zero() {
            out.apply(Tuple::empty(), &delta);
        }
        Ok(out)
    }

    fn for_each_output(&mut self, f: &mut dyn FnMut(&Tuple, &R)) {
        if !self.count.is_zero() {
            f(&Tuple::empty(), &self.count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::ops::lift_one;
    use ivm_data::{sym, tup};
    use ivm_query::examples;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn upd(rel: &str, x: i64, y: i64, m: i64) -> Update<i64> {
        Update::with_payload(sym(rel), tup!(x, y), m)
    }

    /// Brute-force `Σ R(a,b)·S(b,c)·T(c,a)` over a cumulative update log.
    fn oracle(log: &[Update<i64>]) -> i64 {
        let mut rels: [FxHashMap<(Value, Value), i64>; 3] = Default::default();
        let names = [sym("tri_R"), sym("tri_S"), sym("tri_T")];
        for u in log {
            let i = names.iter().position(|&n| n == u.relation).unwrap();
            let e = rels[i]
                .entry((u.tuple.at(0).clone(), u.tuple.at(1).clone()))
                .or_insert(0);
            *e += u.payload;
        }
        let mut total = 0i64;
        for ((a, b), m1) in &rels[0] {
            for ((b2, c), m2) in &rels[1] {
                if b2 != b {
                    continue;
                }
                let m3 = rels[2].get(&(c.clone(), a.clone())).copied().unwrap_or(0);
                total += m1 * m2 * m3;
            }
        }
        total
    }

    fn count(eng: &mut HeavyLightEngine<i64>) -> i64 {
        let mut out = 0;
        eng.for_each_output(&mut |t, r| {
            assert_eq!(t.arity(), 0);
            out = *r;
        });
        out
    }

    #[test]
    fn rejects_non_triangle_queries_and_inverse_free_payloads() {
        let db = Database::<i64>::new();
        let err = HeavyLightEngine::new(examples::path3_query(), &db, lift_one::<i64>).unwrap_err();
        assert!(matches!(err, EngineError::NotSupported(_)), "{err}");

        let bdb = Database::<ivm_ring::BoolSemiring>::new();
        let err = HeavyLightEngine::new(
            examples::triangle_count(),
            &bdb,
            lift_one::<ivm_ring::BoolSemiring>,
        )
        .unwrap_err();
        assert!(
            matches!(err, EngineError::NotSupported(ref msg) if msg.contains("ring")),
            "{err}"
        );

        // Self-join triangles (one edge relation used three times) are out
        // of scope for the rotation detector.
        let err = HeavyLightEngine::new(examples::triangle_detect_cqap(), &db, lift_one::<i64>)
            .unwrap_err();
        assert!(matches!(err, EngineError::NotSupported(_)), "{err}");
    }

    #[test]
    fn rotation_accepts_any_atom_order() {
        let q = examples::triangle_count();
        let mut shuffled = q.clone();
        shuffled.atoms.rotate_left(1);
        let (rels, vars) = rotation(&shuffled).expect("rotated atom order still admitted");
        assert_eq!(vars.len(), 3);
        // The rotation starts at whatever atom is listed first.
        assert_eq!(rels[0], shuffled.atoms[0].name);
    }

    #[test]
    fn agrees_with_oracle_on_skewed_mixed_sign_streams() {
        let mut rng = StdRng::seed_from_u64(2024);
        let names = ["tri_R", "tri_S", "tri_T"];
        for &eps in &[0.0, 0.3, 0.5, 0.8, 1.0] {
            let mut eng = HeavyLightEngine::new_with_eps(
                examples::triangle_count(),
                &Database::new(),
                lift_one::<i64>,
                eps,
            )
            .unwrap();
            let mut log: Vec<Update<i64>> = Vec::new();
            for step in 0..250 {
                let rel = names[rng.gen_range(0..3usize)];
                let hub = rng.gen_bool(0.4);
                let x = if hub { 0 } else { rng.gen_range(0..8i64) };
                let y = rng.gen_range(0..8i64);
                let m = if rng.gen_bool(0.3) { -1 } else { 1 };
                let u = upd(rel, x, y, m);
                eng.apply(&u).unwrap();
                log.push(u);
                if step % 50 == 0 || step == 249 {
                    assert_eq!(count(&mut eng), oracle(&log), "eps={eps} step={step}");
                    eng.check_partition().unwrap();
                    eng.check_views().unwrap();
                }
            }
        }
    }

    #[test]
    fn batch_path_consolidates_and_returns_the_output_delta() {
        let mut eng = HeavyLightEngine::new(
            examples::triangle_count(),
            &Database::new(),
            lift_one::<i64>,
        )
        .unwrap();
        let setup = vec![
            upd("tri_R", 1, 2, 1),
            upd("tri_S", 2, 3, 1),
            upd("tri_T", 3, 1, 1),
        ];
        let d = eng.apply_batch(&setup).unwrap();
        assert_eq!(d.get(&Tuple::empty()), 1, "one triangle closed");
        // A self-cancelling batch propagates nothing.
        let noop = vec![upd("tri_R", 1, 9, 4), upd("tri_R", 1, 9, -4)];
        let d = eng.apply_batch(&noop).unwrap();
        assert!(d.is_empty());
        assert_eq!(count(&mut eng), 1);
        // A batch with one bad update is rejected atomically.
        let bad = vec![upd("tri_R", 7, 8, 1), upd("nope", 1, 2, 1)];
        assert!(eng.apply_batch(&bad).is_err());
        assert_eq!(count(&mut eng), 1, "rejected batch left no trace");
    }

    #[test]
    fn preprocessing_replays_the_initial_database() {
        let q = examples::triangle_count();
        let mut db = Database::<i64>::new();
        for atom in &q.atoms {
            db.create(atom.name, atom.schema.clone());
        }
        let mut log = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..120 {
            let u = upd(
                ["tri_R", "tri_S", "tri_T"][rng.gen_range(0..3usize)],
                rng.gen_range(0..6i64),
                rng.gen_range(0..6i64),
                1,
            );
            db.apply(&u);
            log.push(u);
        }
        let mut eng = HeavyLightEngine::new(q, &db, lift_one::<i64>).unwrap();
        assert_eq!(count(&mut eng), oracle(&log));
        eng.check_partition().unwrap();
        eng.check_views().unwrap();
    }

    #[test]
    fn rebalancing_and_migrations_kick_in_under_growth_and_skew() {
        let mut eng = HeavyLightEngine::new(
            examples::triangle_count(),
            &Database::new(),
            lift_one::<i64>,
        )
        .unwrap();
        for i in 0..400i64 {
            eng.apply(&upd("tri_R", 0, i, 1)).unwrap();
            eng.apply(&upd("tri_S", i, i + 1, 1)).unwrap();
            eng.apply(&upd("tri_T", i + 1, 0, 1)).unwrap();
        }
        let s = eng.stats();
        assert!(s.rebalances > 0, "size grew 300×: must rebalance");
        assert!(s.migrations > 0 || eng.heavy_counts()[0] > 0);
        assert!(s.heavy_hits > 0, "hub deltas must take the heavy path");
        // R(0,i)·S(i,i+1)·T(i+1,0) closes one triangle per i.
        assert_eq!(count(&mut eng), 400);
        let parts = eng.part_sizes();
        assert_eq!(parts[0].1, 1, "exactly the hub is heavy in R");
        assert!(eng.threshold() > 1);
        eng.check_partition().unwrap();
        eng.check_views().unwrap();
    }

    #[test]
    fn metrics_survive_reattachment_cumulatively() {
        let registry = MetricsRegistry::new();
        let mut eng = HeavyLightEngine::new(
            examples::triangle_count(),
            &Database::new(),
            lift_one::<i64>,
        )
        .unwrap();
        eng.observe(&registry, "ivm.hl");
        for i in 0..50i64 {
            eng.apply(&upd("tri_R", 0, i, 1)).unwrap();
        }
        let before = registry.counter("ivm.hl.updates").get();
        assert_eq!(before, 50);
        // A family replan rebuilds the engine and re-attaches: the series
        // must keep counting from where they were, not reset or double.
        let mut rebuilt = HeavyLightEngine::new(
            examples::triangle_count(),
            &Database::new(),
            lift_one::<i64>,
        )
        .unwrap();
        rebuilt.observe(&registry, "ivm.hl");
        rebuilt.apply(&upd("tri_R", 1, 2, 1)).unwrap();
        assert_eq!(registry.counter("ivm.hl.updates").get(), 51);
    }
}
