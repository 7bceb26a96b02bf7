//! The generic heavy-light engine: IVMε (Sec. 3.3) over `ivm_data`
//! tuples and semiring payloads, behind the common [`Maintainer`] trait.

use crate::triangle::{HeavyLight, HlStats};
use ivm_core::{CheckedBatch, EngineError, Maintainer};
use ivm_data::ops::Lift;
use ivm_data::{Database, Dict, FxHashMap, Id, Relation, Sym, Tuple};
use ivm_obs::{Counter, Gauge, MetricsRegistry};
use ivm_query::Query;
use ivm_ring::Semiring;

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

/// IVMε over generic tuples (Sec. 3.3): the [`HeavyLight`] core at
/// dictionary ids and any *ring* payload, behind the [`Maintainer`] trait.
/// This wrapper adds only the query's rotation, the value dictionary, the
/// lift of each relation's first column into its payloads, and the
/// metrics.
///
/// Each update's two values are encoded once, when it arrives; from then
/// on the adjacency, the partition and the views hold only ids. Every
/// present pair and every view entry holds one reference to each of its
/// two ids, and the dictionary frees the ids no one holds at the end of
/// each [`Maintainer::apply_batch`] and the preload, so ever-fresh values
/// do not grow it.
///
/// Construction refuses payload types whose [`Semiring::try_neg`] is
/// `None`: migrating a key across the partition boundary transfers its
/// view contributions *with sign*. Deletions arrive the usual way, as
/// additive-inverse payloads.
pub struct HeavyLightEngine<R: Semiring> {
    query: Query,
    /// Relation names in rotation order (`rels[i]` maps var i → var i+1).
    rels: [Sym; 3],
    /// Rotation variables; `vars[i]` is the first column of `rels[i]`,
    /// and the column whose lifting is folded into `rels[i]`'s payloads.
    vars: [Sym; 3],
    lift: Lift<R>,
    core: HeavyLight<Id, R>,
    /// The values behind the core's ids.
    dict: Dict,
    obs: Option<HlObs>,
}

impl<R: Semiring> std::fmt::Debug for HeavyLightEngine<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeavyLightEngine")
            .field("eps", &self.eps())
            .field("threshold", &self.threshold())
            .field("heavy", &self.heavy_counts())
            .field("view_entries", &self.view_entries())
            .field("stats", &self.stats())
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
        for rel in rels {
            let arity = db.get(rel).map_or(2, |r| r.schema().arity());
            if arity != 2 {
                return Err(EngineError::NotSupported(format!(
                    "heavy-light relations are binary, but the database \
                     stores {rel} with arity {arity}"
                )));
            }
        }
        let mut eng = HeavyLightEngine {
            query,
            rels,
            vars,
            lift,
            core: HeavyLight::new(eps),
            dict: Dict::default(),
            obs: None,
        };
        // Preprocess by replaying the initial contents through the
        // ordinary update path: O(|D|·θ) worst case, and the size-drift
        // trigger keeps θ tracking the growing base as it loads.
        for (i, rel) in rels.into_iter().enumerate() {
            for (t, r) in db.get(rel).into_iter().flat_map(|r| r.iter()) {
                eng.ingest(i, t, r);
            }
        }
        eng.dict.sweep();
        Ok(eng)
    }

    /// The ε this engine was built with.
    pub fn eps(&self) -> f64 {
        self.core.eps()
    }

    /// The current heavy/light threshold θ = ⌈N^ε⌉ (as of the last
    /// rebalance).
    pub fn threshold(&self) -> usize {
        self.core.threshold()
    }

    /// Cumulative engine counters.
    pub fn stats(&self) -> HlStats {
        self.core.stats()
    }

    /// The maintained aggregate, without going through the
    /// `for_each_output` enumeration (which needs `&mut self`).
    pub fn count(&self) -> &R {
        self.core.count()
    }

    /// Heavy-key counts per relation, in rotation order.
    pub fn heavy_counts(&self) -> [usize; 3] {
        self.core.heavy_counts()
    }

    /// Per-relation partition shape: `(relation, heavy keys, light keys)`
    /// over distinct first-column keys, in rotation order.
    pub fn part_sizes(&self) -> [(Sym, usize, usize); 3] {
        let heavy = self.heavy_counts();
        [0, 1, 2].map(|i| {
            let keys = self.core.relation(i).keys_fwd().count();
            (self.rels[i], heavy[i], keys.saturating_sub(heavy[i]))
        })
    }

    /// Total auxiliary-view entries (the O(N^{1+min(ε,1−ε)}) space term).
    pub fn view_entries(&self) -> usize {
        self.core.view_entries()
    }

    /// Present pairs across the three base relations.
    pub fn base_pairs(&self) -> usize {
        self.core.base_pairs()
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
            self.eps(),
            self.threshold(),
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
        let s = self.core.stats();
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
        obs.threshold.set(self.core.threshold() as i64);
        obs.heavy_keys
            .set(self.core.heavy_counts().iter().sum::<usize>() as i64);
        obs.view_entries.set(self.core.view_entries() as i64);
        obs.base_pairs.set(self.core.base_pairs() as i64);
    }

    /// See [`HeavyLight::check_partition`]. For tests.
    pub fn check_partition(&self) -> Result<(), String> {
        self.core.check_partition()
    }

    /// See [`HeavyLight::check_views`]. For tests; O(N·θ).
    pub fn check_views(&self) -> Result<(), String> {
        self.core.check_views()
    }

    /// Verify the dictionary against a recount of the ids the pairs and
    /// view entries hold: every held id decodes to a live value, each
    /// id's count equals its number of holding columns, and no other id
    /// is live. For tests; O(N + views).
    pub fn check_ids(&self) -> Result<(), String> {
        let mut held: FxHashMap<Id, u32> = FxHashMap::default();
        for i in 0..3 {
            let pairs = self.core.relation(i).iter().map(|(x, y, _)| (x, y));
            for (u, w) in pairs.chain(self.core.view_keys(i).map(|(u, w)| (u, w))) {
                *held.entry(*u).or_default() += 1;
                *held.entry(*w).or_default() += 1;
            }
        }
        for (&id, &n) in &held {
            if id as usize >= self.dict.capacity() {
                return Err(format!("id {id} was never assigned"));
            }
            let refs = self.dict.refs(id);
            if refs != n {
                return Err(format!("id {id}: count {refs}, held by {n} columns"));
            }
            let v = self.dict.value(id);
            if self.dict.lookup(v) != Some(id) {
                return Err(format!("id {id} decodes to {v:?}, which has another id"));
            }
        }
        if self.dict.live() != held.len() {
            return Err(format!(
                "{} live ids, {} held",
                self.dict.live(),
                held.len()
            ));
        }
        Ok(())
    }

    fn rot(&self, rel: Sym) -> Option<usize> {
        self.rels.iter().position(|&r| r == rel)
    }

    /// Lift, encode and apply one checked `δrel[i](t) ↦ payload`;
    /// returns its contribution to the count. The caller sweeps the
    /// dictionary.
    fn ingest(&mut self, i: usize, t: &Tuple, payload: &R) -> R {
        let m = payload.times(&(self.lift)(self.vars[i], t.at(0)));
        let (x, y) = (self.dict.encode(t.at(0)), self.dict.encode(t.at(1)));
        self.core.apply_with(i, &x, &y, &m, &mut self.dict)
    }
}

impl<R: Semiring> Maintainer<R> for HeavyLightEngine<R> {
    fn query(&self) -> &Query {
        &self.query
    }

    /// Native batch path: apply the consolidated entries and return the
    /// exact output delta (the count's change) this batch propagated.
    fn apply_checked(&mut self, batch: &CheckedBatch<'_, R>) -> Result<Relation<R>, EngineError> {
        let mut delta = R::zero();
        for (rel, t, payload) in batch.entries() {
            let i = self.rot(rel).expect("a checked relation");
            delta.add_assign(&self.ingest(i, t, payload));
        }
        self.dict.sweep();
        self.publish();
        let mut out = Relation::new(self.query.free.clone());
        if !delta.is_zero() {
            out.apply(Tuple::empty(), &delta);
        }
        Ok(out)
    }

    fn for_each_output(&mut self, f: &mut dyn FnMut(&Tuple, &R)) {
        let count = self.core.count();
        if !count.is_zero() {
            f(&Tuple::empty(), count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_data::ops::lift_one;
    use ivm_data::{sym, tup, FxHashMap, Update, Value};
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

    /// A caller database storing a rotation relation at another arity is
    /// refused before anything loads — arity 1 used to panic, arity 3
    /// to drop a column silently.
    #[test]
    fn refuses_a_database_whose_rotation_relation_is_not_binary() {
        let q = examples::triangle_count();
        for vars in [vec![sym("a")], vec![sym("a"), sym("b"), sym("c")]] {
            let mut db = Database::<i64>::new();
            db.create(sym("tri_S"), ivm_data::Schema::new(vars.clone()));
            db.apply(&Update::with_payload(
                sym("tri_S"),
                Tuple::new(vars.iter().map(|_| Value::Int(1))),
                1,
            ));
            let err = HeavyLightEngine::new(q.clone(), &db, lift_one::<i64>).unwrap_err();
            assert!(
                matches!(&err, EngineError::NotSupported(msg)
                    if msg.contains("tri_S") && msg.contains(&format!("arity {}", vars.len()))),
                "{err}"
            );
        }
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
                    eng.check_ids().unwrap();
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
        eng.check_ids().unwrap();
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

    /// A window of `w` triangles slides over ever-fresh values: triangle
    /// `n` is `R(hub, 2n)·S(2n, 2n+1)·T(2n+1, hub)` with a string hub that
    /// changes every 150 triangles, so each hub turns heavy in `R` as its
    /// triangles arrive and light again as they leave. After every batch
    /// the count equals the oracle and the ids are accounted; at the end
    /// the dictionary has reused the ids of the values that left.
    fn slide_fresh_window<R: Semiring>(payload: fn(i64) -> R, read: fn(&R) -> i64) {
        let w = 64;
        let batch = 8;
        let tri = |n: i64, m: i64| {
            let hub = Value::str(format!("hub{}", n / 150));
            let (b, c) = (Value::Int(2 * n), Value::Int(2 * n + 1));
            [
                ("tri_R", Tuple::new([hub.clone(), b.clone()])),
                ("tri_S", Tuple::new([b, c.clone()])),
                ("tri_T", Tuple::new([c, hub])),
            ]
            .map(|(rel, t)| (Update::with_payload(sym(rel), t.clone(), m), t))
        };
        let mut eng =
            HeavyLightEngine::new(examples::triangle_count(), &Database::new(), lift_one::<R>)
                .unwrap();
        for start in (0..1200).step_by(batch) {
            let end = start + batch as i64;
            let mut ups = Vec::new();
            for n in start..end {
                let leaving = (n >= w).then(|| tri(n - w, -1)).into_iter().flatten();
                for (u, t) in tri(n, 1).into_iter().chain(leaving) {
                    ups.push(Update::with_payload(u.relation, t, payload(u.payload)));
                }
            }
            eng.apply_batch(&ups).unwrap();
            let window: Vec<_> = ((end - w).max(0)..end)
                .flat_map(|n| tri(n, 1).map(|(u, _)| u))
                .collect();
            assert_eq!(read(eng.count()), oracle(&window), "batch at {start}");
            eng.check_ids().unwrap();
        }
        eng.check_partition().unwrap();
        eng.check_views().unwrap();
        let s = eng.stats();
        assert!(s.migrations >= 8 && s.rebalances > 0, "{s:?}");
        assert_eq!(read(eng.count()), w);
        // 2 408 distinct values passed through; about 2w are live.
        assert!(
            eng.dict.capacity() <= 2 * w as usize + 4 * batch,
            "{}",
            eng.dict.capacity()
        );
    }

    #[test]
    fn ever_fresh_string_and_int_values_reuse_freed_ids() {
        slide_fresh_window::<i64>(|m| m, |c| *c);
        slide_fresh_window::<ivm_ring::F64>(|m| ivm_ring::F64::new(m as f64), |c| c.0 as i64);
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
