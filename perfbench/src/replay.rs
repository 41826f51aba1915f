//! Traced run: every request is served once through the public API
//! (untraced, as the reference) and once replayed as the sequence of layer
//! calls the program makes, one span per call. The first requests of a run
//! are also swept: every layer the request does not reach (mapping, balance,
//! simulation, the scheduled factor, the multi-RHS solve, session
//! accounting) is called on the same structure. Spans stay in memory and are
//! written once, at the end, as Perfetto JSON.
//!
//! The replay checks itself: its permutation and factor (and its solutions)
//! must be bit-identical to the untraced path's, or the run aborts.

use crate::inputs::{bits_eq, residual, same_bits, spd_values, sym_matvec, MAX_RESIDUAL};
use crate::serve::{cold_request, fixed_matrices, median, setup, streams, timed, RESOLVE_LANES};
use crate::{alloc, metric, Ctx, Metric, Outcome, Workload};
use blockmat::{BlockMatrix, BlockWork};
use cholesky_core::{
    MachineModel, NumericFactor, OrderingChoice, PlanCache, SchedStats, Solver, SymCscMatrix,
    TraceOpts,
};
use fanout::{AssemblyTemplate, CscTemplate, FactorOpts};
use ordering::{NdGraphOptions, ProbeChoice};
use sparsemat::{Graph, Permutation};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Requests of a run that are also swept (and whose structures give the
/// per-workload counts). `cold_mixed` sweeps more because every request
/// has another structure.
fn sweeps(w: Workload) -> usize {
    match w {
        Workload::ColdMixed => 16,
        _ => 3,
    }
}

/// Traced/untraced scheduled refactor pairs per sweep for
/// `bench.trace_overhead_ratio`.
const OVERHEAD_PAIRS: usize = 3;

struct Span {
    name: &'static str,
    req: u32,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// In-memory span store on one clock.
struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u32,
}

impl Recorder {
    fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            req: self.req,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in order");
        self.spans[id].end = self.now();
    }

    /// One span around one layer call.
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Children of `parent` from stage timings the layer reports itself,
    /// laid end to end from the parent's start.
    fn stages(&mut self, parent: usize, stages: &[(&'static str, f64)]) {
        let mut t = self.spans[parent].start;
        for &(name, d) in stages {
            let req = self.spans[parent].req;
            self.spans.push(Span {
                name,
                req,
                parent: Some(parent),
                start: t,
                end: t + d,
            });
            t += d;
        }
    }

    fn dur(&self, id: usize) -> f64 {
        self.spans[id].end - self.spans[id].start
    }

    /// Durations of every span with this name.
    fn durs(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.dur(i))
            .collect()
    }

    /// Mean duration of the spans with this name, per request.
    fn mean_by_req(&self, name: &str) -> BTreeMap<u32, f64> {
        let mut acc: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                let e = acc.entry(s.req).or_default();
                e.0 += self.dur(i);
                e.1 += 1.0;
            }
        }
        acc.into_iter().map(|(r, (sum, k))| (r, sum / k)).collect()
    }

    /// Self time per span: its duration minus its children's.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = (0..self.spans.len()).map(|i| self.dur(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] -= self.dur(i);
            }
        }
        own
    }

    /// The root span of a span.
    fn root(&self, mut i: usize) -> usize {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        i
    }

    fn perfetto(&self, process: &str) -> String {
        let mut out = format!(
            "{{\"traceEvents\":[{{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\
             \"args\":{{\"name\":{}}}}}",
            trace::json_str(process)
        );
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                ",{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"request\":{},\"span\":{},\"parent\":{}}}}}",
                trace::json_str(s.name),
                trace::json_str(s.name.split('.').next().unwrap_or(s.name)),
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                s.req,
                i,
                s.parent.map_or(-1, |p| p as i64)
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Aborts the run: a replay that disagrees with the program measures
/// something else.
fn ensure(ok: bool, what: &str) {
    if !ok {
        eprintln!("traced replay diverged from the untraced path: {what}");
        std::process::exit(1);
    }
}

/// Runs a request untraced and replayed, alternating which goes first so
/// that neither always finds the caches warmer.
fn in_turn<A, B>(
    untraced_first: bool,
    untraced: impl FnOnce() -> A,
    replay: impl FnOnce() -> B,
) -> (A, B) {
    if untraced_first {
        let a = untraced();
        (a, replay())
    } else {
        let b = replay();
        (untraced(), b)
    }
}

/// The replay's own analysis products.
struct Analyzed {
    nd: bool,
    perm: Permutation,
    pattern: sparsemat::SparsityPattern,
    permuted: SymCscMatrix,
    bm: Arc<BlockMatrix>,
}

/// The analysis a plan-cache miss runs, one layer call per span: graph and
/// probe (Auto resolution), graph and ordering, symbolic analysis (with its
/// own stage timings as children), matrix permutation, blocking.
fn replay_analysis(rec: &mut Recorder, ctx: &Ctx, a: &SymCscMatrix) -> Analyzed {
    let opts = &ctx.opts;
    let workers = opts.analyze.resolved_workers();
    let g = rec.call("sparsemat.graph_build", || Graph::from_pattern(a.pattern()));
    let choice = rec.call("ordering.probe", move || {
        ordering::probe_structure(&g).choice
    });
    let nd = choice == ProbeChoice::NestedDissection;
    let g = rec.call("sparsemat.graph_build", || Graph::from_pattern(a.pattern()));
    let (fill, tree) = rec.call("ordering.order", move || {
        if nd {
            let (p, t) = ordering::nd_graph(&g, &NdGraphOptions::default());
            (p, Some(t))
        } else {
            (ordering::minimum_degree(&g), None)
        }
    });
    let id = rec.begin("symbolic.analyze");
    let (analysis, t) = if workers > 1 {
        let ranges = tree
            .map(|t| t.parallel_ranges(4 * workers))
            .unwrap_or_default();
        let (an, t, _) = symbolic::analyze_parallel_timed(
            a.pattern(),
            &fill,
            &opts.analyze.amalg,
            &ranges,
            workers,
        );
        (an, t)
    } else {
        symbolic::analyze_timed(a.pattern(), &fill, &opts.analyze.amalg)
    };
    rec.end(id);
    rec.stages(
        id,
        &[
            ("symbolic.etree", t.etree_s),
            ("symbolic.colcount", t.colcount_s),
            ("symbolic.supernodes", t.supernodes_s),
        ],
    );
    let permuted = rec.call("sparsemat.permute", || analysis.perm.apply_to_matrix(a));
    let bm = rec.call("blockmat.partition", || {
        let partition = opts.block_policy.build_partition(
            &analysis.supernodes,
            opts.block_size,
            &opts.work_model,
        );
        let bm = Arc::new(BlockMatrix::from_partition_parallel(
            analysis.supernodes.clone(),
            partition,
            workers,
        ));
        std::hint::black_box(BlockWork::compute(&bm, &opts.work_model));
        bm
    });
    Analyzed {
        nd,
        perm: analysis.perm,
        pattern: analysis.pattern,
        permuted,
        bm,
    }
}

/// Permute, substitute, permute back: one single-RHS solve.
fn replay_solve(
    rec: &mut Recorder,
    perm: &Permutation,
    csc: &CscTemplate,
    values: &[f64],
    b: &[f64],
    x: &mut [f64],
) {
    let mut pb = vec![0.0; b.len()];
    rec.call("sparsemat.permute_vec", || {
        perm.apply_to_vec_into(b, &mut pb)
    });
    rec.call("fanout.solve", || {
        fanout::solve_csc(&csc.col_ptr, &csc.row_idx, values, &mut pb)
    });
    rec.call("sparsemat.permute_vec", || {
        perm.apply_inverse_to_vec_into(&pb, x)
    });
}

/// Lane-interleaved multi-RHS solve, as `FactorSession::resolve_many`.
fn replay_solve_many(
    rec: &mut Recorder,
    perm: &Permutation,
    csc: &CscTemplate,
    values: &[f64],
    bs: &[&[f64]],
) -> Vec<Vec<f64>> {
    let (n, k) = (perm.len(), bs.len());
    let mut lanes = vec![0.0; n * k];
    rec.call("sparsemat.permute_vec", || {
        for (r, lane) in bs.iter().enumerate() {
            for (i, &v) in lane.iter().enumerate() {
                lanes[perm.new_of_old(i) * k + r] = v;
            }
        }
    });
    rec.call("fanout.solve_multi", || {
        fanout::solve_csc_multi(&csc.col_ptr, &csc.row_idx, values, &mut lanes, k)
    });
    rec.call("sparsemat.permute_vec", || {
        (0..k)
            .map(|r| (0..n).map(|i| lanes[perm.new_of_old(i) * k + r]).collect())
            .collect()
    })
}

/// Zero-fill plus scatter of original values through the plan's template.
fn scatter(f: &mut NumericFactor, targets: &[(u32, usize)], values: &[f64]) {
    for buf in &mut f.data {
        buf.iter_mut().for_each(|x| *x = 0.0);
    }
    for (&(p, at), &v) in targets.iter().zip(values) {
        f.data[p as usize][at] = v;
    }
}

/// The numeric half of a cold request on the replay's own analysis:
/// session storage, scatter, sequential factor, gather, solve.
fn replay_cold_numeric(
    rec: &mut Recorder,
    an: &Analyzed,
    b: &[f64],
    x: &mut [f64],
) -> NumericFactor {
    let id = rec.begin("core.session_new");
    let (asm, csc) = rec.call("fanout.templates", || {
        (
            AssemblyTemplate::build(&an.bm, &an.pattern),
            CscTemplate::build(&an.bm),
        )
    });
    let mut f = rec.call("fanout.alloc", || asm.alloc(an.bm.clone()));
    rec.end(id);
    rec.call("fanout.scatter", || {
        asm.assemble_into(an.permuted.values(), &mut f)
    });
    let mut arena = dense::KernelArena::new();
    let r = rec.call("fanout.factor_seq", || {
        fanout::factorize_seq_with_arena(&mut f, &FactorOpts::default(), &mut arena)
    });
    ensure(r.is_ok(), "replayed sequential factor failed");
    let mut values = Vec::new();
    rec.call("fanout.gather", || csc.gather_into(&f, &mut values));
    replay_solve(rec, &an.perm, &csc, &values, b, x);
    f
}

/// Per-structure counts from one sweep.
#[derive(Default)]
struct Swept {
    factor_flops: f64,
    nnz_l: f64,
    block_ops: f64,
    padding_ratio: f64,
    bound_p4: f64,
    bound_p64: f64,
    row_p64: f64,
    col_p64: f64,
    diag_p64: f64,
    makespan_p64: f64,
    messages_p64: f64,
    elements_p64: f64,
    session_bytes: f64,
    estimate_ratio: f64,
    probe_hit: f64,
    trace_overhead: f64,
}

/// Everything accumulated over a traced run.
#[derive(Default)]
struct Tally {
    swept: Vec<Swept>,
    sched: Vec<SchedStats>,
    nd_chosen: Vec<f64>,
    coverage: Vec<f64>,
    /// Factor flops and factor CSC entries of each request's structure.
    sizes: BTreeMap<u32, (u64, usize)>,
    lookups: (u64, u64),
    retries: u64,
}

/// Calls the layers a request does not reach, on the request's structure.
/// `a` carries the structure and the values to factor; `full` adds the
/// analysis and the sequential factor for workloads whose requests skip them.
fn sweep(
    rec: &mut Recorder,
    ctx: &Ctx,
    tally: &mut Tally,
    cache: &PlanCache,
    solver: &Solver,
    a: &SymCscMatrix,
    full: bool,
) {
    let plan = &solver.plan;
    let nd = plan.resolved_ordering == OrderingChoice::NestedDissection;
    let root = rec.begin("sweep");
    let mut s = Swept::default();
    if full {
        let an = replay_analysis(rec, ctx, a);
        ensure(an.perm == plan.analysis.perm, "swept permutation");
        tally.nd_chosen.push(f64::from(u8::from(an.nd)));
    }
    // Is the probe's pick at most as expensive as the other ordering?
    let g = Graph::from_pattern(a.pattern());
    let other = if nd {
        ordering::minimum_degree(&g)
    } else {
        ordering::nd_graph(&g, &NdGraphOptions::default()).0
    };
    let other_ops = symbolic::analyze(a.pattern(), &other, &ctx.opts.analyze.amalg)
        .stats
        .ops;
    s.probe_hit = f64::from(u8::from(plan.stats().ops <= other_ops));

    let (h0, m0) = (cache.hits(), cache.misses());
    let hit = rec.call("core.plan_lookup", || cache.try_solver_for(a, &ctx.opts));
    ensure(
        hit.is_ok_and(|h| Arc::ptr_eq(&h.plan, plan)),
        "plan lookup of a cached structure",
    );
    if ctx.workload != Workload::ColdMixed {
        tally.lookups.0 += cache.hits() - h0;
        tally.lookups.1 += cache.hits() - h0 + cache.misses() - m0;
    }

    // Session bytes: storage a session allocates once its first
    // refactor/resolve ran (the plan's shared templates already exist).
    let t = plan.numeric_templates();
    let mut x = vec![0.0; a.n()];
    let b = vec![1.0; a.n()];
    let live0 = alloc::live_bytes();
    let mut session = rec.call("core.session_new", || solver.try_session());
    if let Ok(se) = session.as_mut() {
        ensure(se.refactor(a.values()).is_ok(), "sweep session refactor");
        se.resolve_into(&b, &mut x);
        tally.retries += se.resilience().retries;
    }
    let session_bytes = (alloc::live_bytes() - live0) as f64;
    let session = session.expect("sweep session admitted");
    let est = plan.resource_estimate();
    s.session_bytes = session_bytes;
    s.estimate_ratio = est.factor_bytes as f64 / session_bytes;

    let stats = plan.stats();
    s.factor_flops = stats.ops as f64;
    s.nnz_l = stats.nnz_l as f64;
    s.block_ops = plan.work.num_ops as f64;
    s.padding_ratio = (est.factor_bytes / 8) as f64 / (stats.nnz_l + plan.n() as u64) as f64;

    let mut f = t.assembly.alloc(plan.bm.clone());
    if full {
        rec.call("fanout.scatter", || scatter(&mut f, &t.targets, a.values()));
        let mut arena = dense::KernelArena::new();
        let r = rec.call("fanout.factor_seq", || {
            fanout::factorize_seq_with_arena(&mut f, &FactorOpts::default(), &mut arena)
        });
        ensure(r.is_ok(), "swept sequential factor");
    }

    let asg4 = rec.call("mapping.assign", || plan.assign_default(4));
    s.bound_p4 = rec.call("balance.report", || plan.balance(&asg4)).overall;
    let exec = rec.call("fanout.plan_build", || plan.exec_templates(&asg4));
    rec.call("fanout.scatter", || scatter(&mut f, &t.targets, a.values()));
    let r = rec.call("fanout.factor_sched", || {
        fanout::factorize_sched_opts(&mut f, &exec.plan, &ctx.sched)
    });
    ensure(r.is_ok(), "swept scheduled factor");
    tally.sched.extend(r.ok());
    ensure(
        same_bits(&f.data, &session.factor().data),
        "scheduled factor vs sequential session",
    );
    let mut values = Vec::new();
    rec.call("fanout.gather", || t.csc.gather_into(&f, &mut values));
    replay_solve(rec, &plan.analysis.perm, &t.csc, &values, &b, &mut x);
    let bs: Vec<Vec<f64>> = (0..RESOLVE_LANES)
        .map(|r| vec![1.0 + r as f64; a.n()])
        .collect();
    let refs: Vec<&[f64]> = bs.iter().map(Vec::as_slice).collect();
    replay_solve_many(rec, &plan.analysis.perm, &t.csc, &values, &refs);

    // Tracing overhead of the executor itself, untraced vs traced, paired.
    let mut on = Vec::new();
    let mut off = Vec::new();
    for _ in 0..OVERHEAD_PAIRS {
        for traced in [false, true] {
            let o = cholesky_core::SchedOptions {
                trace: if traced {
                    TraceOpts::on()
                } else {
                    TraceOpts::off()
                },
                ..ctx.sched.clone()
            };
            scatter(&mut f, &t.targets, a.values());
            let t0 = Instant::now();
            let r = fanout::factorize_sched_opts(&mut f, &exec.plan, &o);
            let d = t0.elapsed().as_secs_f64();
            ensure(r.is_ok(), "overhead probe factor");
            if traced {
                on.push(d)
            } else {
                off.push(d)
            }
        }
    }
    s.trace_overhead = median(&on) / median(&off);

    let asg64 = rec.call("mapping.assign", || plan.assign_default(64));
    let bal = rec.call("balance.report", || plan.balance(&asg64));
    (s.bound_p64, s.row_p64, s.col_p64, s.diag_p64) = (bal.overall, bal.row, bal.col, bal.diag);
    let comm = rec.call("balance.comm", || plan.comm(&asg64));
    (s.messages_p64, s.elements_p64) = (comm.messages as f64, comm.elements as f64);
    rec.call("fanout.plan_build", || plan.exec_templates(&asg64));
    let sim = rec.call("simgrid.simulate", || {
        plan.simulate(&asg64, &MachineModel::paragon())
    });
    s.makespan_p64 = sim.report.makespan_s;
    rec.end(root);
    tally.swept.push(s);
}

/// Achieved rate of the packed GEMM kernel at the 48-wide panel shape
/// (`C -= A·Bᵀ`, all 48 × 48): the ceiling the factor's kernel share is
/// measured against. Median of five timed batches.
fn gemm_gflops() -> f64 {
    const B: usize = 48;
    let a = vec![0.5; B * B];
    let bt = vec![0.25; B * B];
    let mut c = vec![0.0; B * B];
    let mut packs = dense::PackBufs::default();
    let mut call = || {
        dense::pack::gemm_abt_packed(
            dense::pack::Mode::Sub,
            std::hint::black_box(&mut c),
            B,
            std::hint::black_box(&a),
            B,
            std::hint::black_box(&bt),
            B,
            B,
            B,
            B,
            &mut packs,
        )
    };
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut calls = 0u64;
            while t0.elapsed().as_secs_f64() < 0.05 {
                for _ in 0..64 {
                    call();
                }
                calls += 64;
            }
            (2 * B * B * B) as f64 * calls as f64 / t0.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let w = ctx.workload;
    let inputs = fixed_matrices(w);
    let fixed = &inputs[0];
    let (mut srng, mut vrng) = streams(ctx.seed);
    let (_, state) = timed(|| setup(ctx, &inputs));
    let mut state = state.expect("set-up must succeed");
    let dense_gflops = gemm_gflops();

    let mut rec = Recorder::new();
    let mut tally = Tally::default();
    let mut failed = 0u64;
    let mut requests = 0u32;
    // The warm replays factor into storage of their own, as a session does.
    let mut warm_storage = state.warm.as_ref().map(|(solver, asg, session)| {
        let t = solver.plan.numeric_templates();
        let mut f = t.assembly.alloc(solver.plan.bm.clone());
        let mut values = Vec::new();
        t.csc.gather_into(session.factor(), &mut values);
        let exec = asg.as_ref().map(|asg| solver.plan.exec_templates(asg));
        scatter(&mut f, &t.targets, fixed.values());
        (t, f, values, exec)
    });
    let t_loop = Instant::now();
    while (requests as usize) < sweeps(w) || t_loop.elapsed().as_secs_f64() < ctx.seconds {
        rec.req = requests;
        let swept = (requests as usize) < sweeps(w);
        let untraced_first = requests % 2 == 0;
        let ok = match (w, state.warm.as_mut(), warm_storage.as_mut()) {
            (Workload::ColdMixed, _, _) => {
                let a = srng.next_matrix();
                let xt = vrng.vector(a.n());
                let b = sym_matvec(a.pattern(), a.values(), &xt);
                let (mut x_ref, mut x_rep) = (vec![0.0; a.n()], vec![0.0; a.n()]);
                let cache = &state.cache;
                let ((lat, served, hits, misses), (root, an, f)) = in_turn(
                    untraced_first,
                    || {
                        let (h0, m0) = (cache.hits(), cache.misses());
                        let (lat, served) =
                            timed(|| cold_request(cache, &ctx.opts, &a, &b, &mut x_ref));
                        (lat, served, cache.hits() - h0, cache.misses() - m0)
                    },
                    || {
                        let root = rec.begin("request");
                        let an = replay_analysis(&mut rec, ctx, &a);
                        let f = replay_cold_numeric(&mut rec, &an, &b, &mut x_rep);
                        rec.end(root);
                        (root, an, f)
                    },
                );
                tally.lookups.0 += hits;
                tally.lookups.1 += hits + misses;
                match served {
                    Some((solver, session)) => {
                        ensure(an.perm == solver.plan.analysis.perm, "permutation");
                        ensure(same_bits(&f.data, &session.factor().data), "factor");
                        ensure(bits_eq(&x_rep, &x_ref), "solution");
                        tally.coverage.push(children(&rec, root) / lat);
                        tally.nd_chosen.push(f64::from(u8::from(an.nd)));
                        tally.retries += session.resilience().retries;
                        let csc_nnz = solver.plan.numeric_templates().csc.nnz();
                        tally
                            .sizes
                            .insert(requests, (solver.plan.stats().ops, csc_nnz));
                        if swept {
                            sweep(&mut rec, ctx, &mut tally, cache, &solver, &a, false);
                        }
                        residual(a.pattern(), a.values(), &x_ref, &b) < MAX_RESIDUAL
                    }
                    None => false,
                }
            }
            (Workload::WarmRefactor, Some((solver, _, session)), Some((t, f, values, exec))) => {
                let exec = exec
                    .as_ref()
                    .expect("warm_refactor schedules an assignment");
                let vals = spd_values(fixed, &mut vrng);
                let xt = vrng.vector(fixed.n());
                let b = sym_matvec(fixed.pattern(), &vals, &xt);
                let (mut x_ref, mut x_rep) = (vec![0.0; fixed.n()], vec![0.0; fixed.n()]);
                let perm = &solver.plan.analysis.perm;
                let ((lat, done), root) = in_turn(
                    untraced_first,
                    || {
                        timed(|| {
                            session.refactor(&vals)?;
                            session.resolve_into(&b, &mut x_ref);
                            Ok(())
                        })
                    },
                    || {
                        let root = rec.begin("request");
                        rec.call("fanout.scatter", || scatter(f, &t.targets, &vals));
                        let r = rec.call("fanout.factor_sched", || {
                            fanout::factorize_sched_opts(f, &exec.plan, &ctx.sched)
                        });
                        ensure(r.is_ok(), "replayed scheduled factor");
                        tally.sched.extend(r.ok());
                        rec.call("fanout.gather", || t.csc.gather_into(f, values));
                        replay_solve(&mut rec, perm, &t.csc, values, &b, &mut x_rep);
                        rec.end(root);
                        root
                    },
                );
                done.is_some() && {
                    ensure(same_bits(&f.data, &session.factor().data), "factor");
                    ensure(bits_eq(&x_rep, &x_ref), "solution");
                    tally.coverage.push(children(&rec, root) / lat);
                    tally.retries += session.resilience().retries;
                    tally
                        .sizes
                        .insert(requests, (solver.plan.stats().ops, t.csc.nnz()));
                    if swept {
                        sweep(&mut rec, ctx, &mut tally, &state.cache, solver, fixed, true);
                    }
                    residual(fixed.pattern(), &vals, &x_ref, &b) < MAX_RESIDUAL
                }
            }
            (Workload::WarmResolve, Some((solver, _, session)), Some((t, _, values, _))) => {
                let xts: Vec<Vec<f64>> =
                    (0..RESOLVE_LANES).map(|_| vrng.vector(fixed.n())).collect();
                let bs: Vec<Vec<f64>> = xts
                    .iter()
                    .map(|xt| sym_matvec(fixed.pattern(), fixed.values(), xt))
                    .collect();
                let refs: Vec<&[f64]> = bs.iter().map(Vec::as_slice).collect();
                let perm = &solver.plan.analysis.perm;
                let ((lat, xs), (root, xs_rep)) = in_turn(
                    untraced_first,
                    || timed(|| Ok(session.resolve_many(&refs))),
                    || {
                        let root = rec.begin("request");
                        let xs = replay_solve_many(&mut rec, perm, &t.csc, values, &refs);
                        rec.end(root);
                        (root, xs)
                    },
                );
                xs.is_some_and(|xs| {
                    ensure(same_bits(&xs_rep, &xs), "solutions");
                    tally.coverage.push(children(&rec, root) / lat);
                    tally
                        .sizes
                        .insert(requests, (solver.plan.stats().ops, t.csc.nnz()));
                    if swept {
                        sweep(&mut rec, ctx, &mut tally, &state.cache, solver, fixed, true);
                    }
                    xs.iter().zip(&bs).all(|(x, b)| {
                        residual(fixed.pattern(), fixed.values(), x, b) < MAX_RESIDUAL
                    })
                })
            }
            _ => unreachable!("warm workloads hold a session after set-up"),
        };
        failed += u64::from(!ok);
        requests += 1;
    }

    let json = rec.perfetto(&format!("perfbench {} seed {}", w.name(), ctx.seed));
    ensure(
        trace::validate_json(&json).is_ok(),
        "Perfetto export is not valid JSON",
    );
    let path = format!("perfbench/out/trace-{}-{}.json", w.name(), ctx.seed);
    std::fs::create_dir_all("perfbench/out").expect("create perfbench/out");
    std::fs::write(&path, &json).expect("write the Perfetto trace");

    let metrics = per_layer(&rec, &tally, dense_gflops);
    eprintln!(
        "{}: {requests} replayed requests, {} spans, trace in {path}",
        w.name(),
        rec.spans.len()
    );
    Outcome {
        correct: failed == 0,
        attempted: u64::from(requests),
        failed,
        metrics,
        context: vec![
            format!("\"replayed_requests\": {requests}"),
            format!("\"swept_requests\": {}", tally.swept.len()),
            format!("\"spans\": {}", rec.spans.len()),
            format!("\"perfetto\": {}", trace::json_str(&path)),
        ],
    }
}

/// Sum of the direct children of a span: the time its layer calls cover.
fn children(rec: &Recorder, root: usize) -> f64 {
    (0..rec.spans.len())
        .filter(|&i| rec.spans[i].parent == Some(root))
        .map(|i| rec.dur(i))
        .sum()
}

fn per_layer(rec: &Recorder, tally: &Tally, dense_gflops: f64) -> Vec<Metric> {
    let span = |name: &str| median(&rec.durs(name));
    let swept = |f: fn(&Swept) -> f64| median(&tally.swept.iter().map(f).collect::<Vec<_>>());
    let sched = |f: fn(&SchedStats) -> f64| median(&tally.sched.iter().map(f).collect::<Vec<_>>());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

    // Paired per request: sequential vs scheduled factor of one structure,
    // and rates against that structure's flops and CSC size.
    let seq = rec.mean_by_req("fanout.factor_seq");
    let sched_t = rec.mean_by_req("fanout.factor_sched");
    let speedup: Vec<f64> = seq
        .iter()
        .filter_map(|(r, s)| sched_t.get(r).map(|p| s / p))
        .collect();
    let gflops: Vec<f64> = seq
        .iter()
        .filter_map(|(r, s)| tally.sizes.get(r).map(|&(ops, _)| ops as f64 / s / 1e9))
        .collect();
    // Forward and backward substitution each stream L's values (8 bytes)
    // and row indices (4 bytes) once.
    let solve_gbs: Vec<f64> = rec
        .mean_by_req("fanout.solve_multi")
        .iter()
        .filter_map(|(r, s)| {
            tally
                .sizes
                .get(r)
                .map(|&(_, nnz)| 2.0 * 12.0 * nnz as f64 / s / 1e9)
        })
        .collect();

    // Self time of request spans by layer group, against the requests'
    // total time.
    let own = rec.self_times();
    let mut share: BTreeMap<&str, f64> = BTreeMap::new();
    let mut total = 0.0;
    for (i, s) in rec.spans.iter().enumerate() {
        if rec.spans[rec.root(i)].name != "request" {
            continue;
        }
        if s.parent.is_none() {
            total += rec.dur(i);
            continue;
        }
        let group = match s.name {
            "fanout.factor_seq" | "fanout.factor_sched" => "factor",
            "fanout.solve" | "fanout.solve_multi" => "solve",
            n if ["ordering.", "symbolic.", "blockmat."]
                .iter()
                .any(|p| n.starts_with(p)) =>
            {
                "analysis"
            }
            _ => "other",
        };
        *share.entry(group).or_default() += own[i];
    }
    let share_of = |g: &str| share.get(g).copied().unwrap_or(0.0) / total;
    let (hits, lookups) = tally.lookups;

    vec![
        metric(
            "sparsemat.graph_build_s",
            span("sparsemat.graph_build"),
            "s",
        ),
        metric("sparsemat.permute_s", span("sparsemat.permute"), "s"),
        metric("ordering.probe_s", span("ordering.probe"), "s"),
        metric("ordering.order_s", span("ordering.order"), "s"),
        metric("ordering.nd_chosen_ratio", mean(&tally.nd_chosen), "ratio"),
        metric(
            "ordering.probe_hit_ratio",
            mean(&tally.swept.iter().map(|s| s.probe_hit).collect::<Vec<_>>()),
            "ratio",
        ),
        metric("ordering.factor_flops", swept(|s| s.factor_flops), "count"),
        metric("symbolic.etree_s", span("symbolic.etree"), "s"),
        metric("symbolic.colcount_s", span("symbolic.colcount"), "s"),
        metric("symbolic.supernodes_s", span("symbolic.supernodes"), "s"),
        metric("symbolic.nnz_l", swept(|s| s.nnz_l), "count"),
        metric("blockmat.partition_s", span("blockmat.partition"), "s"),
        metric("blockmat.block_ops", swept(|s| s.block_ops), "count"),
        metric(
            "blockmat.padding_ratio",
            swept(|s| s.padding_ratio),
            "ratio",
        ),
        metric("mapping.assign_s", span("mapping.assign"), "s"),
        metric("balance.bound_p4", swept(|s| s.bound_p4), "ratio"),
        metric("balance.bound_p64", swept(|s| s.bound_p64), "ratio"),
        metric("balance.row_p64", swept(|s| s.row_p64), "ratio"),
        metric("balance.col_p64", swept(|s| s.col_p64), "ratio"),
        metric("balance.diag_p64", swept(|s| s.diag_p64), "ratio"),
        metric(
            "simgrid.makespan_p64_s",
            swept(|s| s.makespan_p64),
            "virtual_s",
        ),
        metric("simgrid.messages_p64", swept(|s| s.messages_p64), "count"),
        metric("simgrid.elements_p64", swept(|s| s.elements_p64), "count"),
        metric("dense.gemm_gflops", dense_gflops, "GF/s"),
        metric("fanout.scatter_s", span("fanout.scatter"), "s"),
        metric("fanout.gather_s", span("fanout.gather"), "s"),
        metric("fanout.factor_seq_s", span("fanout.factor_seq"), "s"),
        metric("fanout.factor_sched_s", span("fanout.factor_sched"), "s"),
        metric("fanout.sched_speedup", median(&speedup), "ratio"),
        metric("fanout.sched_busy_s", sched(|s| s.busy_s.iter().sum()), "s"),
        metric(
            "fanout.sched_idle_s",
            sched(|s| s.workers as f64 * s.elapsed_s - s.busy_s.iter().sum::<f64>()),
            "s",
        ),
        metric(
            "fanout.spawn_join_s",
            sched(|s| s.wall_s - s.elapsed_s),
            "s",
        ),
        metric("fanout.steals", sched(|s| s.steals as f64), "count"),
        metric(
            "fanout.spurious_claims",
            sched(|s| s.spurious_claims as f64),
            "count",
        ),
        metric("fanout.tasks_run", sched(|s| s.tasks_run as f64), "count"),
        metric("fanout.factor_gflops", median(&gflops), "GF/s"),
        metric(
            "fanout.kernel_share",
            median(&gflops) / dense_gflops,
            "ratio",
        ),
        metric("fanout.solve_s", span("fanout.solve"), "s"),
        metric("fanout.solve_multi_s", span("fanout.solve_multi"), "s"),
        metric("fanout.solve_gbytes_per_s", median(&solve_gbs), "GB/s"),
        metric("core.plan_lookup_s", span("core.plan_lookup"), "s"),
        metric(
            "core.plan_cache_hit_ratio",
            hits as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        metric("core.session_new_s", span("core.session_new"), "s"),
        metric("core.session_bytes", swept(|s| s.session_bytes), "bytes"),
        metric("core.estimate_ratio", swept(|s| s.estimate_ratio), "ratio"),
        metric("core.retries", tally.retries as f64, "count"),
        metric("bench.span_coverage", median(&tally.coverage), "ratio"),
        metric(
            "bench.trace_overhead_ratio",
            swept(|s| s.trace_overhead),
            "ratio",
        ),
        metric("bench.analysis_share", share_of("analysis"), "ratio"),
        metric("bench.factor_share", share_of("factor"), "ratio"),
        metric("bench.solve_share", share_of("solve"), "ratio"),
    ]
}
