//! Predicted-vs-achieved tracing benchmark.
//!
//! Factors benchmark problems with execution tracing enabled on both the
//! work-stealing scheduler (real wall-clock trace) and the simulated
//! Paragon (virtual-time trace), prints each run's [`trace::RunReport`]
//! (predicted balance bound beside achieved utilization, per-phase
//! breakdown), exports the scheduler trace as Chrome/Perfetto JSON
//! (`target/trace.json` unless `--trace` says otherwise, so the artifact
//! stays out of the source tree), and writes a `BENCH_trace.json` summary.
//!
//! ```text
//! tracebench [--json <path>] [--trace <path>] [--quick]
//! ```
//!
//! Open the exported trace at <https://ui.perfetto.dev> (or
//! `chrome://tracing`): one track per worker, one slice per block task.

use bench::table::{json_str, TextTable};
use cholesky_core::{
    MachineModel, RunReport, SchedOptions, SimPolicy, Solver, SolverOptions, TaskKind, Trace,
    TraceOpts,
};

struct Run {
    name: String,
    p: usize,
    report: RunReport,
    /// Wall seconds (sched) or virtual makespan (sim).
    total_s: f64,
    kind: &'static str,
}

/// Structural checks on an exported Perfetto trace: syntactically valid
/// JSON, every duration event inside `[0, span]`, one named track per
/// worker. Returns the number of `X` events.
fn check_perfetto(json: &str, trace: &Trace) -> usize {
    trace::validate_json(json).unwrap_or_else(|pos| {
        panic!("exported trace.json is not valid JSON (byte {pos})");
    });
    let threads = json.matches("\"thread_name\"").count();
    assert_eq!(threads, trace.workers(), "expected one named track per worker");
    let events = json.matches("\"ph\":\"X\"").count();
    assert_eq!(events, trace.num_events(), "every event must be exported");
    let span_us = trace.span_s() * 1e6;
    // All ts are re-based to the trace start, so [0, span] bounds them.
    for chunk in json.split("\"ts\":").skip(1) {
        let num: String = chunk
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        let ts: f64 = num.parse().expect("ts is numeric");
        assert!(
            ts >= 0.0 && ts <= span_us + 1e-6,
            "ts {ts}us outside [0, {span_us}us]"
        );
    }
    events
}

fn main() {
    let mut json_path = "BENCH_trace.json".to_string();
    let mut trace_path = "target/trace.json".to_string();
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_path = args.next().expect("--json needs a path"),
            "--trace" => trace_path = args.next().expect("--trace needs a path"),
            "--quick" => quick = true,
            other => {
                eprintln!("unknown arg {other}");
                std::process::exit(2);
            }
        }
    }
    let problems: Vec<(String, sparsemat::Problem, usize)> = if quick {
        vec![("grid2d(24)".into(), sparsemat::gen::grid2d(24), 8)]
    } else {
        vec![
            ("grid2d(48)".into(), sparsemat::gen::grid2d(48), 16),
            ("bcsstk_like(T,900,6)".into(), sparsemat::gen::bcsstk_like("T", 900, 6), 16),
        ]
    };
    let ps: &[usize] = if quick { &[16] } else { &[16, 64] };

    let mut runs: Vec<Run> = Vec::new();
    let mut perfetto: Option<(String, usize)> = None;
    for (name, prob, bs) in &problems {
        let solver = Solver::analyze_problem(
            prob,
            &SolverOptions { block_size: *bs, ..Default::default() },
        );
        for &p in ps {
            let asg = solver.assign_heuristic(p);
            // Real scheduler, traced.
            let sched_opts = SchedOptions { trace: TraceOpts::on(), ..Default::default() };
            let (_, stats, report) = solver
                .factor_sched_report(&asg, &sched_opts)
                .expect("sched run");
            println!("{report}");
            // Export the first (largest-coverage) sched trace to Perfetto.
            if perfetto.is_none() {
                let tr = stats.trace.as_ref().expect("traced run");
                let label = format!("{name} sched p={p}");
                let json = tr.to_perfetto_json(&label);
                let events = check_perfetto(&json, tr);
                perfetto = Some((json, events));
            }
            runs.push(Run {
                name: name.clone(),
                p,
                report,
                total_s: stats.wall_s,
                kind: "sched",
            });
            // Simulated Paragon, traced (virtual time).
            let (out, sim_report) =
                solver.simulate_report(&asg, &MachineModel::paragon(), SimPolicy::DataDriven);
            println!("{sim_report}");
            runs.push(Run {
                name: name.clone(),
                p,
                report: sim_report,
                total_s: out.report.makespan_s,
                kind: "sim",
            });
        }
    }

    let mut table = TextTable::new(
        "Predicted balance bound vs achieved utilization",
        &["problem", "p", "kind", "predicted", "achieved", "realized", "idle s", "steal s"],
    );
    for r in &runs {
        let pred = r.report.predicted.as_ref().map(|b| b.overall).unwrap_or(1.0);
        table.row(vec![
            r.name.clone(),
            r.p.to_string(),
            r.kind.to_string(),
            format!("{pred:.3}"),
            format!("{:.3}", r.report.utilization),
            r.report
                .bound_realized()
                .map_or_else(|| "n/a".to_string(), |x| format!("{:.1}%", 100.0 * x)),
            format!("{:.4}", r.report.phase_s[TaskKind::Idle as usize]),
            format!("{:.4}", r.report.phase_s[TaskKind::Steal as usize]),
        ]);
    }
    println!("{table}");

    let (trace_json, trace_events) = perfetto.expect("at least one sched run");
    if let Some(dir) = std::path::Path::new(&trace_path).parent() {
        std::fs::create_dir_all(dir).expect("create trace dir");
    }
    std::fs::write(&trace_path, &trace_json).expect("write perfetto trace");
    eprintln!("[wrote {trace_path} ({trace_events} events) — open at https://ui.perfetto.dev]");

    let env = bench::WorkerEnv::probe_and_warn("tracebench");
    let env_fields = env.json_fields();
    let mut out = String::from("{\"trace\":[\n");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let pred = r.report.predicted.as_ref();
        out.push_str(&format!(
            concat!(
                "  {{\"problem\":{},\"p\":{},\"kind\":{},\"block_policy\":\"uniform\",\"workers\":{},{}," ,
                "\"predicted_overall\":{:.4},\"predicted_row\":{:.4},",
                "\"predicted_col\":{:.4},\"predicted_diag\":{:.4},",
                "\"utilization\":{:.4},\"bound_realized\":{},",
                "\"span_s\":{:.6e},\"busy_s\":{:.6e},\"total_s\":{:.6e},",
                "\"bfac_s\":{:.6e},\"bdiv_s\":{:.6e},\"bmod_s\":{:.6e},",
                "\"steal_s\":{:.6e},\"idle_s\":{:.6e},\"recv_s\":{:.6e},",
                "\"worker_spread\":{:.4},\"dropped\":{}}}"
            ),
            json_str(&r.name),
            r.p,
            json_str(r.kind),
            r.report.workers,
            env_fields,
            pred.map(|b| b.overall).unwrap_or(1.0),
            pred.map(|b| b.row).unwrap_or(1.0),
            pred.map(|b| b.col).unwrap_or(1.0),
            pred.map(|b| b.diag).unwrap_or(1.0),
            r.report.utilization,
            r.report.bound_realized().map_or_else(|| "null".to_string(), |x| format!("{x:.4}")),
            r.report.span_s,
            r.report.busy_s,
            r.total_s,
            r.report.phase_s[TaskKind::Bfac as usize],
            r.report.phase_s[TaskKind::Bdiv as usize],
            r.report.phase_s[TaskKind::Bmod as usize],
            r.report.phase_s[TaskKind::Steal as usize],
            r.report.phase_s[TaskKind::Idle as usize],
            r.report.phase_s[TaskKind::Recv as usize],
            r.report.worker_spread(),
            r.report.dropped,
        ));
    }
    out.push_str("\n]}\n");
    trace::validate_json(&out).expect("summary json is valid");
    std::fs::write(&json_path, out).expect("write json");
    eprintln!("[wrote {json_path}]");
}
