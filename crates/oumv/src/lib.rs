//! The Online Vector-Matrix-Vector multiplication (OuMv) problem
//! (Def. 3.3) and the reduction of Theorem 3.4.
//!
//! OuMv: given a Boolean matrix `M ∈ B^{n×n}` and then `n` online pairs of
//! Boolean vectors `(u_r, v_r)`, output `u_rᵀ M v_r` after seeing each
//! pair. The OuMv conjecture says no algorithm solves this in O(n^{3−γ}).
//!
//! Theorem 3.4 turns a fast dynamic triangle-detection algorithm into a
//! fast OuMv algorithm — so, conditionally, no IVM algorithm maintains the
//! Boolean triangle query with O(N^{1/2−γ}) updates and O(N^{1−γ}) delay.
//! This crate implements both sides so the reduction is *runnable*:
//!
//! * [`NaiveOuMv`] — the direct bitset evaluation, O(n²/64) per round;
//! * [`ReductionOuMv`] — Algorithm B of the paper: encode `M` as `S`,
//!   each `u_r` as `R`, each `v_r` as `T`, and answer with the maintained
//!   triangle count.

pub mod bitvec;

use bitvec::BitVec;
use ivm_hl::HeavyLight;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An OuMv instance: the matrix and the online vector pairs.
#[derive(Clone, Debug)]
pub struct OuMvInstance {
    /// Dimension `n`.
    pub n: usize,
    /// Matrix rows (each a bitset of length `n`).
    pub m: Vec<BitVec>,
    /// The `n` online `(u_r, v_r)` pairs.
    pub pairs: Vec<(BitVec, BitVec)>,
}

impl OuMvInstance {
    /// A random instance with the given bit density.
    pub fn random(n: usize, density: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let rand_vec = |rng: &mut StdRng| {
            let mut v = BitVec::new(n);
            for i in 0..n {
                if rng.gen_bool(density) {
                    v.set(i);
                }
            }
            v
        };
        let m = (0..n).map(|_| rand_vec(&mut rng)).collect();
        let pairs = (0..n)
            .map(|_| (rand_vec(&mut rng), rand_vec(&mut rng)))
            .collect();
        OuMvInstance { n, m, pairs }
    }
}

/// An online OuMv solver: sees the matrix once, then answers rounds.
pub trait OuMvSolver {
    /// Initialize with the matrix.
    fn init(&mut self, n: usize, m: &[BitVec]);
    /// Answer one round: `uᵀ M v`.
    fn round(&mut self, u: &BitVec, v: &BitVec) -> bool;
}

/// Direct evaluation with bitsets: O(n²/64) per round, O(n³/64) total —
/// the best known elementary bound (up to polylog shavings).
#[derive(Default)]
pub struct NaiveOuMv {
    m: Vec<BitVec>,
}

impl OuMvSolver for NaiveOuMv {
    fn init(&mut self, _n: usize, m: &[BitVec]) {
        self.m = m.to_vec();
    }

    fn round(&mut self, u: &BitVec, v: &BitVec) -> bool {
        for i in u.iter_ones() {
            if self.m[i].intersects(v) {
                return true;
            }
        }
        false
    }
}

/// Algorithm B of Theorem 3.4: solve OuMv through a dynamic triangle
/// detection engine — the heavy-light triangle plan at `u64` keys, with
/// `R`, `S`, `T` its relations 0, 1, 2.
///
/// * `S(i, j) = M[i][j]` — loaded once, `< n²` inserts;
/// * each round deletes the previous `R`/`T` encodings (≤ 2n tuples),
///   inserts `R(a, i) = u[i]` and `T(j, a) = v[j]` for a fixed constant
///   node `a`, and reads `Qb = (count > 0)`.
///
/// With the IVMε engine at ε = ½ this runs in
/// O(n² · (n²)^{1/2}) = O(n³) — the reduction is what turns any
/// *sub-√N-update* engine into a sub-cubic OuMv solver.
pub struct ReductionOuMv {
    engine: HeavyLight<u64, i64>,
    /// The constant node `a` (distinct from all matrix indices).
    anchor: u64,
    prev_u: Vec<u64>,
    prev_v: Vec<u64>,
}

impl ReductionOuMv {
    /// Build with the given ε for the inner triangle engine.
    pub fn with_eps(eps: f64) -> Self {
        ReductionOuMv {
            engine: HeavyLight::new(eps),
            anchor: u64::MAX,
            prev_u: Vec::new(),
            prev_v: Vec::new(),
        }
    }

    /// Apply `m` to `R(a, i)` and `T(j, a)` for the current vectors.
    fn encode(&mut self, m: i64) {
        for i in &self.prev_u {
            self.engine.apply(0, &self.anchor, i, &m);
        }
        for j in &self.prev_v {
            self.engine.apply(2, j, &self.anchor, &m);
        }
    }
}

impl Default for ReductionOuMv {
    fn default() -> Self {
        Self::with_eps(0.5)
    }
}

impl OuMvSolver for ReductionOuMv {
    fn init(&mut self, _n: usize, m: &[BitVec]) {
        for (i, row) in m.iter().enumerate() {
            for j in row.iter_ones() {
                self.engine.apply(1, &(i as u64), &(j as u64), &1);
            }
        }
    }

    fn round(&mut self, u: &BitVec, v: &BitVec) -> bool {
        // Delete the previous round's vector encodings and insert the new.
        self.encode(-1);
        self.prev_u = u.iter_ones().map(|i| i as u64).collect();
        self.prev_v = v.iter_ones().map(|j| j as u64).collect();
        self.encode(1);
        *self.engine.count() > 0
    }
}

/// Run a solver over an instance, returning the per-round answers.
pub fn solve(solver: &mut dyn OuMvSolver, inst: &OuMvInstance) -> Vec<bool> {
    solver.init(inst.n, &inst.m);
    inst.pairs.iter().map(|(u, v)| solver.round(u, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's worked example (Sec. 3.4).
    #[test]
    fn paper_reduction_example() {
        // u⊤ = (0 1 0), M = [[0,1,0],[1,0,0],[0,0,1]], v = (1,0,0)ᵀ.
        let n = 3;
        let mut m = vec![BitVec::new(n), BitVec::new(n), BitVec::new(n)];
        m[0].set(1);
        m[1].set(0);
        m[2].set(2);
        let mut u = BitVec::new(n);
        u.set(1);
        let mut v = BitVec::new(n);
        v.set(0);
        // u⊤Mv = u[1]·M[1][0]·v[0] = 1.
        let inst = OuMvInstance {
            n,
            m,
            pairs: vec![(u, v)],
        };
        let mut naive = NaiveOuMv::default();
        let mut red = ReductionOuMv::default();
        assert_eq!(solve(&mut naive, &inst), vec![true]);
        assert_eq!(solve(&mut red, &inst), vec![true]);
    }

    /// A balanced instance: `u` and `v` dense (p = ½), `M` of density
    /// ≈ 2.8/n² so that P[uᵀMv = 1] ≈ ½ and the naive solver cannot
    /// early-exit half the time.
    fn balanced(n: usize, seed: u64) -> OuMvInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bits = |p: f64| {
            let mut v = BitVec::new(n);
            for i in 0..n {
                if rng.gen_bool(p) {
                    v.set(i);
                }
            }
            v
        };
        let m = (0..n).map(|_| bits(2.8 / (n * n) as f64)).collect();
        let pairs = (0..n).map(|_| (bits(0.5), bits(0.5))).collect();
        OuMvInstance { n, m, pairs }
    }

    /// The reduction agrees with the naive solver on random instances for
    /// several ε values and densities, and on balanced instances at
    /// n ∈ {32, 64, 128}. There it issues Θ(n²) triangle updates: the
    /// matrix load plus each round's delete and insert of both vectors
    /// stay within 3n².
    #[test]
    fn reduction_matches_naive() {
        for seed in 0..5u64 {
            for &density in &[0.05, 0.3, 0.7] {
                let inst = OuMvInstance::random(12, density, seed);
                let mut naive = NaiveOuMv::default();
                let expected = solve(&mut naive, &inst);
                for &eps in &[0.0, 0.5, 1.0] {
                    let mut red = ReductionOuMv::with_eps(eps);
                    assert_eq!(
                        solve(&mut red, &inst),
                        expected,
                        "seed={seed} density={density} eps={eps}"
                    );
                }
            }
        }
        for n in [32, 64, 128] {
            let inst = balanced(n, 42);
            let expected = solve(&mut NaiveOuMv::default(), &inst);
            assert_eq!(
                solve(&mut ReductionOuMv::default(), &inst),
                expected,
                "n={n}"
            );
            let updates: usize = inst.m.iter().map(BitVec::count_ones).sum::<usize>()
                + inst
                    .pairs
                    .iter()
                    .map(|(u, v)| 2 * (u.count_ones() + v.count_ones()))
                    .sum::<usize>();
            assert!(updates <= 3 * n * n, "n={n}: {updates} updates");
        }
    }

    /// All-zero vectors answer false; full vectors answer true whenever
    /// the matrix has any 1.
    #[test]
    fn degenerate_rounds() {
        let n = 8;
        let mut m = vec![BitVec::new(n); n];
        m[3].set(5);
        let zero = BitVec::new(n);
        let mut full = BitVec::new(n);
        for i in 0..n {
            full.set(i);
        }
        let inst = OuMvInstance {
            n,
            m,
            pairs: vec![
                (zero.clone(), zero.clone()),
                (full.clone(), full.clone()),
                (zero, full),
            ],
        };
        let mut red = ReductionOuMv::default();
        assert_eq!(solve(&mut red, &inst), vec![false, true, false]);
    }
}
