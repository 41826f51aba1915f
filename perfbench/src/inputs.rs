//! Seeded workload inputs built from the `sparsemat::gen` generators, and the
//! answer check every request goes through.
//!
//! The program only ever sees the generated `SymCscMatrix`: no coordinates,
//! problem names or ordering hints reach it.

use sparsemat::gen::{bcsstk_like, copter_like, cube3d, fleet_like, grid2d, SuiteScale};
use sparsemat::{Permutation, SparsityPattern, SymCscMatrix};

/// A request fails its answer check above this relative residual.
pub const MAX_RESIDUAL: f64 = 1e-10;

/// SplitMix64: a small deterministic generator, so inputs depend on the seed
/// alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| 2.0 * self.unit() - 1.0).collect()
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.range(0, i));
        }
    }
}

/// The `cold_mixed` structure families: `bcsstk_like`, `copter_like`,
/// `grid2d`, `cube3d` and `fleet_like`.
const COLD_FAMILIES: usize = 5;

/// The seeded sequence of never-seen-before `cold_mixed` structures.
///
/// Every run of five requests holds each family once, in seeded order, and
/// the k-th instance of a family takes its size from a seeded golden-ratio
/// sequence over the family's range. So every run covers the same mix and
/// the same spread of sizes, and the seed moves only which instances it
/// draws; without this, a seed that happens to draw many large cubes moves
/// the latency percentiles by more than any change worth detecting.
pub struct ColdStream {
    rng: Rng,
    round: Vec<usize>,
    offset: [f64; COLD_FAMILIES],
    drawn: [usize; COLD_FAMILIES],
}

impl ColdStream {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let offset = std::array::from_fn(|_| rng.unit());
        Self {
            rng,
            round: Vec::new(),
            offset,
            drawn: [0; COLD_FAMILIES],
        }
    }

    /// The next structure: a generator instance under a seeded random
    /// relabeling. The relabeling makes every structure distinct (grids and
    /// cubes of equal side would otherwise repeat and hit the plan cache)
    /// and keeps generator numbering from helping the ordering.
    pub fn next_matrix(&mut self) -> SymCscMatrix {
        if self.round.is_empty() {
            self.round = (0..COLD_FAMILIES).collect();
            self.rng.shuffle(&mut self.round);
        }
        let f = self.round.pop().expect("a round holds every family");
        let u = (self.offset[f] + self.drawn[f] as f64 * 0.618_033_988_749_895).fract();
        self.drawn[f] += 1;
        let size = |lo: usize, hi: usize| lo + (u * (hi - lo + 1) as f64) as usize;
        let gen_seed = self.rng.next_u64();
        let problem = match f {
            0 => bcsstk_like("b", size(1500, 4000), gen_seed),
            1 => copter_like("c", size(1500, 4000), gen_seed),
            2 => grid2d(size(40, 80)),
            3 => cube3d(size(11, 16)),
            _ => fleet_like("f", size(800, 1500), gen_seed),
        };
        let a = problem.matrix;
        let mut new_of_old: Vec<u32> = (0..a.n() as u32).collect();
        self.rng.shuffle(&mut new_of_old);
        let relabel = Permutation::from_new_of_old(new_of_old).expect("a shuffle is a permutation");
        relabel.apply_to_matrix(&a)
    }
}

/// A named matrix of the paper's Table 1 suite at full scale.
pub fn paper_matrix(name: &str) -> SymCscMatrix {
    sparsemat::gen::scaled_paper_suite(SuiteScale::Full)
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("{name} is not in the paper suite"))
        .matrix
}

/// Fresh SPD values on a fixed pattern: the base values times a positive
/// scale, with the diagonal further multiplied by a factor ≥ 1. Both steps
/// keep a diagonally dominant SPD matrix SPD.
pub fn spd_values(a: &SymCscMatrix, rng: &mut Rng) -> Vec<f64> {
    let scale = 0.5 + rng.unit();
    let bump = 1.0 + 0.5 * rng.unit();
    let p = a.pattern();
    let mut v: Vec<f64> = a.values().iter().map(|&x| x * scale).collect();
    for j in 0..p.n() {
        // The diagonal is the first stored entry of every column.
        v[p.col_ptr()[j]] *= bump;
    }
    v
}

/// `y = A·x` for the symmetric matrix stored as its lower triangle.
pub fn sym_matvec(p: &SparsityPattern, values: &[f64], x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; p.n()];
    for j in 0..p.n() {
        let range = p.col_ptr()[j]..p.col_ptr()[j + 1];
        for (&i, &v) in p.col(j).iter().zip(&values[range]) {
            let i = i as usize;
            y[i] += v * x[j];
            if i != j {
                y[j] += v * x[i];
            }
        }
    }
    y
}

/// `‖b − A·x‖∞ / ‖b‖∞` in the original ordering.
pub fn residual(p: &SparsityPattern, values: &[f64], x: &[f64], b: &[f64]) -> f64 {
    let ax = sym_matvec(p, values, x);
    let num = ax
        .iter()
        .zip(b)
        .map(|(a, b)| (b - a).abs())
        .fold(0.0, f64::max);
    let den = b.iter().map(|v| v.abs()).fold(0.0, f64::max);
    num / den
}

/// True when two vectors agree bit for bit.
pub fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(u, v)| u.to_bits() == v.to_bits())
}

/// True when two factors' block storage (or two sets of solutions) agree
/// bit for bit.
pub fn same_bits(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits_eq(x, y))
}
