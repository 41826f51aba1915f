//! Untraced run: set-up, then the closed loop of timed requests, each
//! checked against its seeded true solution. Supplies the end-to-end
//! metrics.

use crate::calib::{Scaler, CAL_REF_S};
use crate::inputs::{
    paper_matrix, residual, same_bits, spd_values, sym_matvec, ColdStream, Rng, MAX_RESIDUAL,
};
use crate::{alloc, metric, Ctx, Outcome, Workload};
use cholesky_core::{
    Assignment, FactorSession, MachineModel, PlanCache, Solver, SolverError, SolverOptions,
    SymCscMatrix, SymbolicPlan,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Right-hand sides per `warm_resolve` request.
pub const RESOLVE_LANES: usize = 8;

/// `cold_mixed` structures whose plans are simulated for
/// `paragon_efficiency_p64`: the first eight rounds of the seeded sequence.
const COLD_SIM_PLANS: usize = 40;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The fixed inputs each workload needs before set-up: the warm workloads'
/// matrix (paper Table 1), or for `cold_mixed` one warm-up structure per
/// family at a mid-range size (never relabeled, so no request repeats one).
pub fn fixed_matrices(w: Workload) -> Vec<SymCscMatrix> {
    use sparsemat::gen::{bcsstk_like, copter_like, cube3d, fleet_like, grid2d};
    match w {
        Workload::ColdMixed => vec![
            bcsstk_like("w", 2700, 1).matrix,
            copter_like("w", 2700, 2).matrix,
            grid2d(60).matrix,
            cube3d(13).matrix,
            fleet_like("w", 1150, 3).matrix,
        ],
        Workload::WarmRefactor => vec![paper_matrix("BCSSTK33")],
        // GRID150 of Table 1, without generating the whole suite.
        Workload::WarmResolve => vec![grid2d(150).matrix],
    }
}

/// Independent seeded streams: structures and values/right-hand sides, so
/// the k-th structure of a seed does not depend on how many vectors were
/// drawn before it.
pub fn streams(seed: u64) -> (ColdStream, Rng) {
    (
        ColdStream::new(seed),
        Rng::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1)),
    )
}

/// Workload state after set-up.
pub struct State {
    /// The long-lived plan cache every request goes through.
    pub cache: PlanCache,
    /// The warm workloads' solver, scheduling assignment and open session.
    pub warm: Option<(Solver, Option<Assignment>, FactorSession)>,
}

/// One `cold_mixed` request: matrix in, `x` out.
pub fn cold_request(
    cache: &PlanCache,
    opts: &SolverOptions,
    a: &SymCscMatrix,
    b: &[f64],
    x: &mut [f64],
) -> Result<(Solver, FactorSession), SolverError> {
    let solver = cache.try_solver_for(a, opts)?;
    let mut session = solver.try_session()?;
    session.refactor(a.values())?;
    session.resolve_into(b, x);
    Ok((solver, session))
}

/// Everything from inputs ready to the first timed request: plan lookup
/// (an analysis, since the cache is new), assignment, session and a
/// warm-up factorization.
pub fn setup(ctx: &Ctx, inputs: &[SymCscMatrix]) -> Result<State, SolverError> {
    let cache = PlanCache::new();
    let a = &inputs[0];
    let warm = match ctx.workload {
        Workload::ColdMixed => {
            for a in inputs {
                let b = vec![1.0; a.n()];
                let mut x = vec![0.0; a.n()];
                cold_request(&cache, &ctx.opts, a, &b, &mut x)?;
            }
            None
        }
        Workload::WarmRefactor => {
            let solver = cache.try_solver_for(a, &ctx.opts)?;
            let asg = solver.assign_default(4);
            let mut session = solver.try_session_sched(&asg, &ctx.sched)?;
            session.refactor(a.values())?;
            Some((solver, Some(asg), session))
        }
        Workload::WarmResolve => {
            let solver = cache.try_solver_for(a, &ctx.opts)?;
            let mut session = solver.try_session()?;
            session.refactor(a.values())?;
            Some((solver, None, session))
        }
    };
    Ok(State { cache, warm })
}

/// Runs `f` as one request: wall time, and its value unless it returned an
/// error or panicked (a panic is caught here, at the request boundary).
pub fn timed<T>(f: impl FnOnce() -> Result<T, SolverError>) -> (f64, Option<T>) {
    let t0 = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(f));
    let s = t0.elapsed().as_secs_f64();
    match r {
        Ok(Ok(v)) => (s, Some(v)),
        Ok(Err(e)) => {
            eprintln!("request failed: {e}");
            (s, None)
        }
        Err(_) => {
            eprintln!("request panicked");
            (s, None)
        }
    }
}

/// Median of a sample (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Simulated Paragon efficiency of a plan under the default mapping on 64
/// processors (the paper's headline number; deterministic).
pub fn paragon_efficiency(plan: &SymbolicPlan) -> f64 {
    let asg = plan.assign_default(64);
    plan.simulate(&asg, &MachineModel::paragon()).efficiency
}

pub fn run(ctx: &Ctx) -> Outcome {
    let w = ctx.workload;
    let inputs = fixed_matrices(w);
    let fixed = &inputs[0];
    let (mut srng, mut vrng) = streams(ctx.seed);

    // The scheduled session runs a request on its workers; the other
    // workloads run it on this thread (the analysis threads cover only part
    // of a cold request).
    let mut scaler = Scaler::new(match w {
        Workload::WarmRefactor => ctx.workers,
        _ => 1,
    });
    // Set up several times, keep the last state; peak heap covers set-up.
    let mut setup_raw = Vec::new();
    let mut state = None;
    let mut peak = 0i64;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        alloc::reset_peak();
        let (s, st) = timed(|| setup(ctx, &inputs));
        peak = peak.max(alloc::peak_bytes());
        setup_raw.push(s);
        scaler.sample();
        state = Some(st.expect("set-up must succeed"));
    }
    let mut state = state.expect("at least one set-up");

    let mut raw = Vec::new();
    let mut failed = 0u64;
    let mut oracle_ok = true;
    let mut efficiency = Vec::new();
    let t_loop = Instant::now();
    while raw.is_empty() || t_loop.elapsed().as_secs_f64() < ctx.seconds {
        let first = raw.is_empty();
        let (s, ok) = match (w, &mut state.warm) {
            (Workload::ColdMixed, _) => {
                let a = srng.next_matrix();
                let xt = vrng.vector(a.n());
                let b = sym_matvec(a.pattern(), a.values(), &xt);
                let mut x = vec![0.0; a.n()];
                let keep = efficiency.len() < COLD_SIM_PLANS;
                alloc::reset_peak();
                let (s, plan) = timed(|| {
                    let (solver, _) = cold_request(&state.cache, &ctx.opts, &a, &b, &mut x)?;
                    Ok(keep.then(|| solver.plan.clone()))
                });
                peak = peak.max(alloc::peak_bytes());
                let ok = plan.is_some() && residual(a.pattern(), a.values(), &x, &b) < MAX_RESIDUAL;
                // Outside the timed request: simulate, then let the plan go.
                efficiency.extend(plan.flatten().map(|p| paragon_efficiency(&p)));
                (s, ok)
            }
            (Workload::WarmRefactor, Some((solver, _, session))) => {
                let vals = spd_values(fixed, &mut vrng);
                let xt = vrng.vector(fixed.n());
                let b = sym_matvec(fixed.pattern(), &vals, &xt);
                let mut x = vec![0.0; fixed.n()];
                alloc::reset_peak();
                let (s, done) = timed(|| {
                    session.refactor(&vals)?;
                    session.resolve_into(&b, &mut x);
                    Ok(())
                });
                peak = peak.max(alloc::peak_bytes());
                if first {
                    // The sequential session is the repository's oracle.
                    let mut seq = solver.try_session().expect("sequential oracle session");
                    seq.refactor(&vals).expect("sequential oracle factor");
                    oracle_ok = same_bits(&seq.factor().data, &session.factor().data);
                }
                let ok = done.is_some() && residual(fixed.pattern(), &vals, &x, &b) < MAX_RESIDUAL;
                (s, ok)
            }
            (Workload::WarmResolve, Some((_, _, session))) => {
                let xts: Vec<Vec<f64>> =
                    (0..RESOLVE_LANES).map(|_| vrng.vector(fixed.n())).collect();
                let bs: Vec<Vec<f64>> = xts
                    .iter()
                    .map(|xt| sym_matvec(fixed.pattern(), fixed.values(), xt))
                    .collect();
                let refs: Vec<&[f64]> = bs.iter().map(Vec::as_slice).collect();
                alloc::reset_peak();
                let (s, xs) = timed(|| Ok(session.resolve_many(&refs)));
                peak = peak.max(alloc::peak_bytes());
                let ok = xs.is_some_and(|xs| {
                    xs.iter().zip(&bs).all(|(x, b)| {
                        residual(fixed.pattern(), fixed.values(), x, b) < MAX_RESIDUAL
                    })
                });
                (s, ok)
            }
            _ => unreachable!("warm workloads hold a session after set-up"),
        };
        raw.push(s);
        scaler.sample();
        failed += u64::from(!ok);
    }
    // Wall times scaled to reference-host seconds; set-ups were timed first.
    let setup_s: Vec<f64> = setup_raw
        .iter()
        .enumerate()
        .map(|(i, s)| s * scaler.factor(i))
        .collect();
    let lat: Vec<f64> = raw
        .iter()
        .enumerate()
        .map(|(i, s)| s * scaler.factor(setup_raw.len() + i))
        .collect();
    let attempted = lat.len() as u64;
    let completed = attempted - failed;
    let efficiency = match &state.warm {
        Some((solver, _, _)) => paragon_efficiency(&solver.plan),
        None => efficiency.iter().sum::<f64>() / efficiency.len().max(1) as f64,
    };
    let busy: f64 = lat.iter().sum();
    let raw_busy: f64 = raw.iter().sum();
    let cal = scaler.samples();
    eprintln!(
        "{}: {attempted} requests, {failed} failed, p50 {:.2} ms (wall {:.2} ms), \
         setup {:.3} s, calibration {:.3} ms (range {:.3}-{:.3})",
        w.name(),
        1e3 * median(&lat),
        1e3 * median(&raw),
        median(&setup_s),
        1e3 * median(cal),
        1e3 * cal.iter().copied().fold(f64::INFINITY, f64::min),
        1e3 * cal.iter().copied().fold(0.0, f64::max),
    );
    Outcome {
        correct: failed == 0 && oracle_ok,
        attempted,
        failed,
        metrics: vec![
            metric("latency_p50_s", median(&lat), "s"),
            metric("latency_p90_s", quantile(&lat, 0.9), "s"),
            metric("throughput_rps", completed as f64 / busy, "1/s"),
            metric("setup_s", median(&setup_s), "s"),
            // The calibration kernels' buffers are the benchmark's, not the
            // solver's.
            metric(
                "peak_heap_bytes",
                (peak - scaler.bytes() as i64) as f64,
                "bytes",
            ),
            metric("paragon_efficiency_p64", efficiency, "ratio"),
        ],
        context: vec![
            format!("\"requests\": {attempted}"),
            format!(
                "\"p90_samples_beyond\": {}",
                attempted - (attempted * 9).div_ceil(10)
            ),
            format!("\"setup_reps\": {}", setup_s.len()),
            format!("\"cal_ref_s\": {CAL_REF_S}"),
            format!("\"cal_samples\": {}", cal.len()),
            format!("\"cal_median_s\": {}", median(cal)),
            format!("\"wall_latency_p50_s\": {}", median(&raw)),
            format!("\"wall_latency_p90_s\": {}", quantile(&raw, 0.9)),
            format!("\"wall_throughput_rps\": {}", completed as f64 / raw_busy),
            format!("\"wall_setup_s\": {}", median(&setup_raw)),
            format!("\"oracle_bit_identical\": {oracle_ok}"),
        ],
    }
}
