//! Host-speed calibration for the end-to-end timings.
//!
//! The benchmark shares its cores with other tenants of the machine, and the
//! speed they leave it drifts: the same request runs up to ≈ 1.8× slower in
//! phases that last from seconds to minutes, often longer than a run. No
//! statistic taken inside one run removes a drift that outlasts it, so every
//! timed request is scaled by how fast the host ran at that moment. A fixed
//! calibration kernel is timed right before each request and after the
//! last one, on the cores the request runs on, and the request's wall time
//! is multiplied by `CAL_REF_S / c`, with `c` the median of the six samples
//! nearest to it, three taken before it and three after. The reported times
//! are therefore seconds on a host on which the kernel takes `CAL_REF_S`;
//! the raw wall-clock figures go to the context line.
//!
//! The kernel is this file's own code and no part of the solver, so no
//! change to the solver can change the scale. It mixes the work the
//! workloads spend their time in: a small dense `C += A·Bᵀ` (floating-point
//! throughput, like the block kernels), a banded triangular solve with
//! eight right-hand sides over two megabytes of values (like the solves and
//! the block updates that stream the factor through the caches) and a
//! scatter through random row indices (index-bound, like the assembly and
//! the graph code of the analysis).

use crate::serve::median;
use std::hint::black_box;
use std::time::Instant;

/// The calibration time that defines the reported unit: a round figure near
/// the kernel's median on a 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest
/// shared with other tenants, where it measures ≈ 0.75 ms in quiet periods
/// and up to ≈ 2 ms in busy ones.
pub const CAL_REF_S: f64 = 1.0e-3;

/// Timed repetitions of the kernel per thread in one sample; the sample is
/// their median, so one interrupt does not move it.
const REPS: usize = 3;

/// Edge of the dense matrices.
const DENSE: usize = 48;
/// Dense products per repetition.
const DENSE_ROUNDS: usize = 4;
/// Order of the banded factor.
const BAND_N: usize = 4096;
/// Entries below the diagonal in each column of the banded factor.
const BAND_W: usize = 64;
/// Right-hand sides of the banded solve, interleaved per row.
const BAND_RHS: usize = 8;
/// Columns of the random scatter.
const SCATTER_N: usize = 1 << 14;
/// Entries per scatter column.
const SCATTER_PER_COL: usize = 8;

/// Samples on each side of a timing whose median scales it, the two that
/// bracket it among them: one disturbed sample does not move a timing, and
/// phases of the host's speed, which last seconds, are still followed.
const WINDOW: usize = 3;

/// The kernel's inputs and work space, built from a fixed generator: the
/// same on every run, seed and thread.
struct Kernel {
    a: Vec<f64>,
    bt: Vec<f64>,
    c: Vec<f64>,
    band: Vec<f64>,
    xb: Vec<f64>,
    rows: Vec<u32>,
    vals: Vec<f64>,
    xs: Vec<f64>,
}

impl Kernel {
    fn new() -> Self {
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        let a = (0..DENSE * DENSE).map(|_| unit() - 0.5).collect();
        let bt = (0..DENSE * DENSE).map(|_| unit() - 0.5).collect();
        let band = (0..BAND_N * BAND_W)
            .map(|_| 1e-3 * (unit() - 0.5))
            .collect();
        let rows = (0..SCATTER_N * SCATTER_PER_COL)
            .map(|_| (unit() * SCATTER_N as f64) as u32)
            .collect();
        let vals = (0..SCATTER_N * SCATTER_PER_COL)
            .map(|_| 1e-3 * (unit() - 0.5))
            .collect();
        Self {
            a,
            bt,
            c: vec![0.0; DENSE * DENSE],
            band,
            xb: vec![0.0; BAND_N * BAND_RHS],
            rows,
            vals,
            xs: vec![0.0; SCATTER_N],
        }
    }

    /// Bytes of the buffers the kernel holds.
    fn bytes(&self) -> usize {
        8 * (self.a.len()
            + self.bt.len()
            + self.c.len()
            + self.band.len()
            + self.xb.len()
            + self.vals.len()
            + self.xs.len())
            + 4 * self.rows.len()
    }

    /// Median wall time of `REPS` runs, in seconds.
    fn median_time(&mut self) -> f64 {
        let mut t = [0.0; REPS];
        for t in &mut t {
            let t0 = Instant::now();
            self.run();
            *t = t0.elapsed().as_secs_f64();
        }
        t.sort_by(f64::total_cmp);
        t[REPS / 2]
    }

    fn run(&mut self) {
        let c = &mut self.c;
        c.fill(0.0);
        for _ in 0..DENSE_ROUNDS {
            for i in 0..DENSE {
                let ci = &mut c[i * DENSE..(i + 1) * DENSE];
                for k in 0..DENSE {
                    let aik = self.a[i * DENSE + k];
                    let bk = &self.bt[k * DENSE..(k + 1) * DENSE];
                    for (cij, &bkj) in ci.iter_mut().zip(bk) {
                        *cij += aik * bkj;
                    }
                }
            }
            black_box(&mut *c);
        }

        // Column j of the banded factor holds rows j+1..=j+BAND_W.
        let x = &mut self.xb;
        x.fill(1.0);
        for j in 0..BAND_N {
            let xj: [f64; BAND_RHS] = x[j * BAND_RHS..(j + 1) * BAND_RHS]
                .try_into()
                .expect("one row of right-hand sides");
            let col = &self.band[j * BAND_W..(j + 1) * BAND_W];
            let below = BAND_W.min(BAND_N - 1 - j);
            for (k, &l) in col[..below].iter().enumerate() {
                let row = &mut x[(j + 1 + k) * BAND_RHS..(j + 2 + k) * BAND_RHS];
                for (xi, &xjr) in row.iter_mut().zip(&xj) {
                    *xi -= l * xjr;
                }
            }
        }
        black_box(&mut *x);

        let xs = &mut self.xs;
        xs.fill(1.0);
        for j in 0..SCATTER_N {
            let xj = xs[j];
            let range = j * SCATTER_PER_COL..(j + 1) * SCATTER_PER_COL;
            for (&i, &l) in self.rows[range.clone()].iter().zip(&self.vals[range]) {
                xs[i as usize] -= l * xj;
            }
        }
        black_box(&mut *xs);
    }
}

/// Scales a run's timings by calibration samples taken around each one.
///
/// A sample runs the kernel on `threads` threads at once, the calling
/// thread among them, and is the mean of their medians: one thread for a
/// request that runs on the calling thread, one per worker for a request
/// that runs on a pool.
pub struct Scaler {
    kernels: Vec<Kernel>,
    samples: Vec<f64>,
}

impl Scaler {
    /// Builds the kernels and takes the sample that precedes the first
    /// timing.
    pub fn new(threads: usize) -> Self {
        let mut s = Self {
            kernels: (0..threads.max(1)).map(|_| Kernel::new()).collect(),
            samples: Vec::new(),
        };
        s.sample();
        s
    }

    /// Takes a sample: call it right after each timing, so that timing `i`
    /// lies between samples `i` and `i + 1`.
    pub fn sample(&mut self) {
        let (own, others) = self.kernels.split_first_mut().expect("one kernel");
        let t = std::thread::scope(|s| {
            let handles: Vec<_> = others
                .iter_mut()
                .map(|k| s.spawn(move || k.median_time()))
                .collect();
            let mine = own.median_time();
            mine + handles
                .into_iter()
                .map(|h| h.join().expect("calibration thread"))
                .sum::<f64>()
        });
        self.samples.push(t / self.kernels.len() as f64);
    }

    /// The factor that turns timing `i` into reference-host seconds:
    /// `CAL_REF_S` over the median of the samples within `WINDOW` of it.
    pub fn factor(&self, i: usize) -> f64 {
        let lo = (i + 1).saturating_sub(WINDOW);
        let hi = (i + WINDOW).min(self.samples.len() - 1);
        CAL_REF_S / median(&self.samples[lo..=hi])
    }

    /// All samples so far, in seconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Bytes of the kernels' buffers, which stay allocated for the run.
    pub fn bytes(&self) -> usize {
        self.kernels.iter().map(Kernel::bytes).sum()
    }
}
