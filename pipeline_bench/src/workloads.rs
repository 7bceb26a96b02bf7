//! The five workloads: frozen sizes, seeded input streams, and which layer
//! each one is built to stress.
//!
//! Every stream is a sliding window — each batch inserts new tuples and
//! retracts the oldest live ones — so the base stays bounded and a
//! time-bounded run measures a stationary system however fast the program
//! under test is. Inputs depend on `--seed` only; the program sees nothing
//! but the generated batches.

use ivm::data::{sym, vars, Database, Sym, Tuple, Update};
use ivm::query::examples;
use ivm::workloads::{RetailerGen, Zipf};
use ivm::{Atom, EngineKind, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// The layers of the budget table — the crate names, plus the residue no
/// span or counter accounts for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Store,
    Shard,
    Dataflow,
    Hl,
    Core,
    Session,
    Serve,
    Unattributed,
}

impl Layer {
    /// Every layer, in declaration order (`layer as usize` indexes it).
    pub const ALL: [Layer; 8] = [
        Layer::Store,
        Layer::Shard,
        Layer::Dataflow,
        Layer::Hl,
        Layer::Core,
        Layer::Session,
        Layer::Serve,
        Layer::Unattributed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Store => "store",
            Layer::Shard => "shard",
            Layer::Dataflow => "dataflow",
            Layer::Hl => "hl",
            Layer::Core => "core",
            Layer::Session => "session",
            Layer::Serve => "serve",
            Layer::Unattributed => "unattributed",
        }
    }
}

/// A seeded, endless update stream over a bounded base.
pub trait Stream {
    fn next_batch(&mut self) -> Vec<Update<i64>>;
    /// Every live derivation of the streamed relations, after all batches
    /// handed out so far — what the from-scratch oracle evaluates over.
    fn live(&self) -> Vec<(Sym, Tuple)>;
}

/// How edge endpoints are drawn.
enum Endpoints {
    /// Both endpoints Zipf(θ) over `nodes`; rank `r` names node
    /// `(r + shift) % nodes`, so moving `shift` moves the hubs.
    Zipf { dist: Zipf, nodes: u64 },
    /// Three draws in four land on a small dense hub set, the fourth on a
    /// wide sparse tail (the `serve_fanout` bench's shape).
    HubTail { hub: u64, tail: u64 },
}

/// Sliding-window edge stream over binary relations, updates dealt
/// round-robin over `rels` (a relation listed twice gets twice the share).
pub struct EdgeStream {
    rels: Vec<Sym>,
    endpoints: Endpoints,
    batch: usize,
    /// Batches per phase. With phases the insert share cycles grow (3/4)
    /// → steady → shrink (1/4) → steady and the hub identity moves at
    /// every phase boundary; without, every batch is half inserts.
    phase_len: Option<u64>,
    rng: StdRng,
    /// Live edges per distinct relation, oldest first.
    windows: Vec<(Sym, VecDeque<(u64, u64)>)>,
    batches: u64,
    ins_cursor: usize,
    del_cursor: usize,
}

impl EdgeStream {
    fn new(
        rels: Vec<Sym>,
        endpoints: Endpoints,
        batch: usize,
        phase_len: Option<u64>,
        seed: u64,
    ) -> Self {
        let mut windows: Vec<(Sym, VecDeque<(u64, u64)>)> = Vec::new();
        for &r in &rels {
            if !windows.iter().any(|(w, _)| *w == r) {
                windows.push((r, VecDeque::new()));
            }
        }
        EdgeStream {
            rels,
            endpoints,
            batch,
            phase_len,
            rng: StdRng::seed_from_u64(seed),
            windows,
            batches: 0,
            ins_cursor: 0,
            del_cursor: 0,
        }
    }

    fn draw(&mut self) -> (u64, u64) {
        match &self.endpoints {
            Endpoints::Zipf { dist, nodes } => {
                let shift = self.phase_len.map_or(0, |p| (self.batches / p) * 7);
                let a = (dist.sample(&mut self.rng) as u64 + shift) % nodes;
                let b = (dist.sample(&mut self.rng) as u64 + shift) % nodes;
                (a, b)
            }
            Endpoints::HubTail { hub, tail } => {
                let n = if self.rng.gen_range(0..4u32) != 0 {
                    *hub
                } else {
                    *tail
                };
                (self.rng.gen_range(0..n), self.rng.gen_range(0..n))
            }
        }
    }

    fn window(&mut self, rel: Sym) -> &mut VecDeque<(u64, u64)> {
        let slot = self.windows.iter_mut().find(|(w, _)| *w == rel);
        &mut slot.expect("windows cover every relation").1
    }

    fn insert(&mut self) -> Update<i64> {
        let rel = self.rels[self.ins_cursor % self.rels.len()];
        self.ins_cursor += 1;
        let (a, b) = self.draw();
        self.window(rel).push_back((a, b));
        Update::insert(rel, Tuple::from([a, b]))
    }

    /// `edges` inserts that fill the windows: the preloaded base, as the
    /// update batch a `ServeNode` ingests it through.
    pub fn preload_updates(&mut self, edges: usize) -> Vec<Update<i64>> {
        (0..edges).map(|_| self.insert()).collect()
    }

    /// The same preload as the relations of a base database.
    fn preload(&mut self, edges: usize, query: &Query) -> Database<i64> {
        let mut db = Database::new();
        for (rel, _) in &self.windows {
            db.create(*rel, atom_schema(query, *rel));
        }
        db.apply_batch(&self.preload_updates(edges));
        db
    }
}

impl Stream for EdgeStream {
    fn next_batch(&mut self) -> Vec<Update<i64>> {
        let inserts = match self.phase_len.map(|p| (self.batches / p) % 4) {
            Some(0) => self.batch * 3 / 4,
            Some(2) => self.batch / 4,
            _ => self.batch / 2,
        };
        let mut out = Vec::with_capacity(self.batch);
        for _ in 0..inserts {
            out.push(self.insert());
        }
        for _ in inserts..self.batch {
            let rel = self.rels[self.del_cursor % self.rels.len()];
            self.del_cursor += 1;
            if let Some((a, b)) = self.window(rel).pop_front() {
                out.push(Update::delete(rel, Tuple::from([a, b])));
            }
        }
        self.batches += 1;
        out
    }

    fn live(&self) -> Vec<(Sym, Tuple)> {
        self.windows
            .iter()
            .flat_map(|(rel, w)| w.iter().map(|&(a, b)| (*rel, Tuple::from([a, b]))))
            .collect()
    }
}

/// Sliding-window Inventory stream over the retailer schema: each batch
/// is half fresh `RetailerGen` inserts, half the retraction of the oldest
/// live half-batch.
pub struct RetailerStream {
    gen: RetailerGen,
    half_batch: usize,
    window: VecDeque<Vec<Update<i64>>>,
}

impl Stream for RetailerStream {
    fn next_batch(&mut self) -> Vec<Update<i64>> {
        let inserts = self.gen.inventory_batch(self.half_batch);
        let mut out = inserts.clone();
        if let Some(oldest) = self.window.pop_front() {
            out.extend(oldest.iter().map(Update::inverse));
        }
        self.window.push_back(inserts);
        out
    }

    fn live(&self) -> Vec<(Sym, Tuple)> {
        self.window
            .iter()
            .flatten()
            .map(|u| (u.relation, u.tuple.clone()))
            .collect()
    }
}

/// How a `Session` workload configures its builder and drives reads.
pub struct SessionLoad {
    pub query: Query,
    pub base: Database<i64>,
    pub stream: Box<dyn Stream>,
    pub shards: Option<usize>,
    pub durable: bool,
    pub auto_snapshot: Option<u64>,
    pub adaptive: bool,
    /// A full `for_each_output` enumeration every this many batches.
    pub read_every: Option<u64>,
    /// The engine auto-selection must land on, or the workload is not
    /// measuring what its row says.
    pub expect: EngineKind,
}

/// The `ServeNode` workload's shape.
pub struct ServeLoad {
    pub stream: EdgeStream,
    pub base_edges: usize,
    pub subscribers: usize,
    /// Every `churn_every` epochs, `churn` subscribers leave and as many
    /// latecomers subscribe and read their view.
    pub churn_every: u64,
    pub churn: usize,
}

pub enum Load {
    Session(SessionLoad),
    Serve(ServeLoad),
}

/// One row of the workload table.
pub struct Spec {
    pub name: &'static str,
    /// The frozen sizes, printed in the header and recorded in
    /// `BENCHMARK.json`.
    pub sizes: &'static str,
    /// Layers that together must hold at least half the traced epoch time.
    pub dominant: &'static [Layer],
    /// Batches after which the traced pass snapshots the exact counters,
    /// so they repeat bit for bit however long the run lasts.
    pub checkpoint: u64,
    /// Kill/recover cycles after the timed phase (durable workloads).
    pub recover_cycles: usize,
    build: fn(u64) -> Load,
}

impl Spec {
    pub fn load(&self, seed: u64) -> Load {
        (self.build)(seed)
    }
}

/// Updates journaled behind the snapshot before each kill.
pub const RECOVER_TAIL_UPDATES: usize = 2_000;

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "tri-wcoj",
        sizes: "32768 preloaded edges over 8192 nodes, Zipf 0.5, batches of 16 (8 inserts + 8 deletes)",
        dominant: &[Layer::Dataflow],
        checkpoint: 20_000,
        recover_cycles: 0,
        build: tri_wcoj,
    },
    Spec {
        name: "retailer-pipeline",
        sizes: "64 locations x 32 dates x 128 items, 100000 sales rows, 51200 live inventory rows, batches of 256 (128 inserts + 128 retractions), 2 shards",
        dominant: &[Layer::Store, Layer::Shard, Layer::Session],
        checkpoint: 1_024,
        recover_cycles: 5,
        build: retailer_pipeline,
    },
    Spec {
        name: "hub-hl-durable",
        sizes: "3 x 8192 preloaded edges over 4096 nodes, Zipf 1.1, batches of 64, grow/steady/shrink/steady phases of 1024 batches moving the hubs, auto-snapshot at 4 MiB",
        dominant: &[Layer::Store, Layer::Session],
        checkpoint: 4_096,
        recover_cycles: 11,
        build: hub_hl_durable,
    },
    Spec {
        name: "serve-fanout",
        sizes: "1024 subscribers (3/4 bounded channels, 1/4 callbacks) over a 4-query catalog, 4096 preloaded edges (16-node hub set + 4000-node tail), batches of 16, 8 subscribers replaced every 64 epochs",
        dominant: &[Layer::Serve],
        checkpoint: 1_024,
        recover_cycles: 0,
        build: serve_fanout,
    },
    Spec {
        name: "retailer-enum",
        sizes: "64 locations x 32 dates x 128 items, 100000 sales rows, 50000 live inventory rows, batches of 250 (125 inserts + 125 retractions), full enumeration every 40 batches",
        dominant: &[Layer::Core],
        checkpoint: 4_000,
        recover_cycles: 0,
        build: retailer_enum,
    },
];

/// The self-join triangle count `E(a,b)·E(b,c)·E(c,a)`: cyclic and not
/// heavy-light eligible, so auto-selection lands on the multiway plan.
fn self_join_triangle() -> Query {
    let [a, b, c] = vars(["pb_A", "pb_B", "pb_C"]);
    let e = sym("pb_E");
    Query::new(
        "pb_tri",
        [],
        vec![
            Atom::new(e, [a, b]),
            Atom::new(e, [b, c]),
            Atom::new(e, [c, a]),
        ],
    )
}

fn atom_schema(query: &Query, rel: Sym) -> ivm::data::Schema {
    let atom = query.atoms.iter().find(|a| a.name == rel);
    atom.expect("relation of the query").schema.clone()
}

fn tri_wcoj(seed: u64) -> Load {
    let query = self_join_triangle();
    let e = query.atoms[0].name;
    let nodes = 8_192;
    let mut stream = EdgeStream::new(
        vec![e],
        Endpoints::Zipf {
            dist: Zipf::new(nodes as usize, 0.5),
            nodes,
        },
        16,
        None,
        seed,
    );
    let base = stream.preload(32_768, &query);
    Load::Session(SessionLoad {
        query,
        base,
        stream: Box::new(stream),
        shards: None,
        durable: false,
        auto_snapshot: None,
        adaptive: false,
        read_every: None,
        expect: EngineKind::DataflowMultiway,
    })
}

fn hub_hl_durable(seed: u64) -> Load {
    let query = examples::triangle_count();
    let rels: Vec<Sym> = query.atoms.iter().map(|a| a.name).collect();
    let nodes = 4_096;
    let mut stream = EdgeStream::new(
        rels,
        Endpoints::Zipf {
            dist: Zipf::new(nodes as usize, 1.1),
            nodes,
        },
        64,
        Some(1_024),
        seed,
    );
    let base = stream.preload(3 * 8_192, &query);
    Load::Session(SessionLoad {
        query,
        base,
        stream: Box::new(stream),
        shards: None,
        durable: true,
        auto_snapshot: Some(4 << 20),
        adaptive: true,
        read_every: None,
        expect: EngineKind::HeavyLight,
    })
}

/// The retailer base plus a preloaded Inventory window of `window`
/// half-batches.
fn retailer(seed: u64, half_batch: usize, window: usize) -> (Query, Database<i64>, RetailerStream) {
    let mut gen = RetailerGen::new(64, 32, 128, seed);
    let query = gen.query().clone();
    let mut base = gen.initial_db(100_000);
    let mut stream = RetailerStream {
        gen,
        half_batch,
        window: VecDeque::new(),
    };
    let inventory = stream.gen.names().inventory;
    for _ in 0..window {
        let inserts = stream.gen.inventory_batch(half_batch);
        let rel = base.get_mut(inventory).expect("initial_db creates it");
        for u in &inserts {
            rel.insert(u.tuple.clone());
        }
        stream.window.push_back(inserts);
    }
    (query, base, stream)
}

fn retailer_pipeline(seed: u64) -> Load {
    let (query, base, stream) = retailer(seed, 128, 400);
    Load::Session(SessionLoad {
        query,
        base,
        stream: Box::new(stream),
        shards: Some(2),
        durable: true,
        auto_snapshot: None,
        adaptive: true,
        read_every: None,
        expect: EngineKind::Sharded,
    })
}

fn retailer_enum(seed: u64) -> Load {
    let (query, base, stream) = retailer(seed, 125, 400);
    Load::Session(SessionLoad {
        query,
        base,
        stream: Box::new(stream),
        shards: None,
        durable: false,
        auto_snapshot: None,
        adaptive: false,
        read_every: Some(40),
        expect: EngineKind::EagerFact,
    })
}

/// The subscriber catalog of the `serve_fanout` bench: the triangle
/// count, an α-renamed rotation of it (same engine group), the triangle
/// listing (second group, hub-shared trie store) and the 4-cycle count.
pub fn catalog(i: usize) -> Query {
    let e = sym("pb_sE");
    match i % 4 {
        0 => {
            let [a, b, c] = vars(["pb_sA", "pb_sB", "pb_sC"]);
            Query::new(
                "pb_s_tri",
                [],
                vec![
                    Atom::new(e, [a, b]),
                    Atom::new(e, [b, c]),
                    Atom::new(e, [c, a]),
                ],
            )
        }
        1 => {
            let [x, y, z] = vars(["pb_sX", "pb_sY", "pb_sZ"]);
            Query::new(
                "pb_s_tri_renamed",
                [],
                vec![
                    Atom::new(e, [y, z]),
                    Atom::new(e, [z, x]),
                    Atom::new(e, [x, y]),
                ],
            )
        }
        2 => {
            let [a, b, c] = vars(["pb_sLA", "pb_sLB", "pb_sLC"]);
            Query::new(
                "pb_s_tri_listing",
                [a, b, c],
                vec![
                    Atom::new(e, [a, b]),
                    Atom::new(e, [b, c]),
                    Atom::new(e, [c, a]),
                ],
            )
        }
        _ => {
            let [a, b, c, d] = vars(["pb_s4A", "pb_s4B", "pb_s4C", "pb_s4D"]);
            Query::new(
                "pb_s_cycle4",
                [],
                vec![
                    Atom::new(sym("pb_s4R"), [a, b]),
                    Atom::new(sym("pb_s4S"), [b, c]),
                    Atom::new(sym("pb_s4T"), [c, d]),
                    Atom::new(sym("pb_s4U"), [d, a]),
                ],
            )
        }
    }
}

fn serve_fanout(seed: u64) -> Load {
    let e = sym("pb_sE");
    let cycle = ["pb_s4R", "pb_s4S", "pb_s4T", "pb_s4U"].map(sym);
    // Half the stream feeds the triangle relation, half the 4-cycle's.
    let rels = cycle.iter().flat_map(|&c| [e, c]).collect();
    let stream = EdgeStream::new(
        rels,
        Endpoints::HubTail {
            hub: 16,
            tail: 4_000,
        },
        16,
        None,
        seed,
    );
    Load::Serve(ServeLoad {
        stream,
        base_edges: 4_096,
        subscribers: 1_024,
        churn_every: 64,
        churn: 8,
    })
}

/// The base after every batch `stream` has handed out: `base`'s static
/// relations plus the streamed relations rebuilt from the live window.
pub fn final_base(queries: &[Query], base: &Database<i64>, stream: &dyn Stream) -> Database<i64> {
    let live = stream.live();
    let mut db = Database::new();
    for atom in queries.iter().flat_map(|q| &q.atoms) {
        if db.get(atom.name).is_some() {
            continue;
        }
        match base.get(atom.name) {
            Some(rel) if !live.iter().any(|(r, _)| *r == atom.name) => {
                db.add(atom.name, rel.clone())
            }
            _ => db.create(atom.name, atom.schema.clone()),
        }
    }
    for (rel, tuple) in live {
        db.get_mut(rel).expect("created above").insert(tuple);
    }
    db
}
