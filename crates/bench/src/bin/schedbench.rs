//! End-to-end scheduler benchmark: the sequential reference
//! (`fanout::factorize_seq`) against the work-stealing scheduler
//! (`fanout::factorize_sched`, `min(p, num_cpus)` workers, critical-path
//! priorities, zero-copy publication) on the same factors, with the
//! scheduler's plans at p ∈ {16, 64}. The `sched/seq` column is the
//! scheduler's wall time over the sequential one: below 1 is a speedup.
//!
//! Writes `BENCH_sched.json` with wall-clock medians plus the scheduler's
//! execution counters ([`fanout::SchedStats`]).
//!
//! ```text
//! schedbench [--json <path>] [--quick]
//! ```

use bench::table::{json_str, TextTable};
use blockmat::{BlockMatrix, BlockWork, WorkModel};
use fanout::{factorize_sched, factorize_seq, NumericFactor, Plan, SchedStats};
use mapping::Assignment;
use std::sync::Arc;
use std::time::Instant;
use symbolic::AmalgamationOpts;

fn prepared(prob: &sparsemat::Problem, bs: usize, p: usize) -> (NumericFactor, Plan) {
    let perm = ordering::order_problem(prob);
    let analysis = symbolic::analyze(prob.matrix.pattern(), &perm, &AmalgamationOpts::default());
    let pa = analysis.perm.apply_to_matrix(&prob.matrix);
    let bm = Arc::new(BlockMatrix::build(analysis.supernodes, bs));
    let w = BlockWork::compute(&bm, &WorkModel::default());
    let asg = Assignment::cyclic(&bm, &w, p);
    let plan = Plan::build(&bm, &asg);
    let f = NumericFactor::from_matrix(bm, &pa);
    (f, plan)
}

/// Median factorization seconds over `samples` runs, each on a fresh copy of
/// the unfactored matrix (the clone is outside the timed region).
fn time_factor<T>(
    samples: usize,
    f0: &NumericFactor,
    mut run: impl FnMut(&mut NumericFactor) -> T,
) -> (f64, T) {
    let mut times = Vec::with_capacity(samples);
    let mut last = None;
    for _ in 0..samples {
        let mut f = f0.clone();
        let t0 = Instant::now();
        let out = run(&mut f);
        times.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (times[times.len() / 2], last.unwrap())
}

struct Row {
    problem: String,
    n: usize,
    p: usize,
    seq_s: f64,
    sched_s: f64,
    sched: SchedStats,
}

impl Row {
    fn sched_over_seq(&self) -> f64 {
        self.sched_s / self.seq_s
    }
}

fn main() {
    let mut json_path = "BENCH_sched.json".to_string();
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_path = args.next().expect("--json needs a path"),
            "--quick" => quick = true,
            other => {
                eprintln!("unknown arg {other}");
                std::process::exit(2);
            }
        }
    }
    let samples = if quick { 3 } else { 5 };
    let problems: Vec<(String, sparsemat::Problem, usize)> = if quick {
        vec![
            ("grid2d(24)".into(), sparsemat::gen::grid2d(24), 8),
            ("bcsstk_like(T,360,4)".into(), sparsemat::gen::bcsstk_like("T", 360, 4), 8),
        ]
    } else {
        vec![
            ("grid2d(48)".into(), sparsemat::gen::grid2d(48), 16),
            ("bcsstk_like(T,900,6)".into(), sparsemat::gen::bcsstk_like("T", 900, 6), 16),
        ]
    };

    let mut rows: Vec<Row> = Vec::new();
    for (name, prob, bs) in &problems {
        for p in [16usize, 64] {
            let (f0, plan) = prepared(prob, *bs, p);
            let (seq_s, ()) =
                time_factor(samples, &f0, |f| factorize_seq(f).expect("seq run"));
            let (sched_s, sched) =
                time_factor(samples, &f0, |f| factorize_sched(f, &plan).expect("sched run"));
            assert_eq!(sched.blocks_copied, 0, "scheduler must not copy blocks");
            rows.push(Row {
                problem: name.clone(),
                n: prob.n(),
                p,
                seq_s,
                sched_s,
                sched,
            });
        }
    }

    let mut table = TextTable::new(
        "End-to-end factorization: sequential reference (seq) vs work-stealing scheduler (sched)",
        &[
            "problem", "n", "p", "workers", "seq ms", "sched ms", "sched/seq", "steals",
            "sched copies",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.problem.clone(),
            r.n.to_string(),
            r.p.to_string(),
            r.sched.workers.to_string(),
            format!("{:.2}", r.seq_s * 1e3),
            format!("{:.2}", r.sched_s * 1e3),
            format!("{:.2}", r.sched_over_seq()),
            r.sched.steals.to_string(),
            r.sched.blocks_copied.to_string(),
        ]);
    }
    println!("{table}");

    let env = bench::WorkerEnv::probe_and_warn("schedbench");
    let env_fields = env.json_fields();
    let mut out = String::from("{\"sched\":[\n");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let busy: f64 = r.sched.busy_s.iter().sum();
        out.push_str(&format!(
            concat!(
                "  {{\"problem\":{},\"n\":{},\"p\":{},\"block_policy\":\"uniform\",\"workers\":{},{},",
                "\"seq_s\":{:.6e},\"sched_s\":{:.6e},\"sched_over_seq\":{:.3},",
                "\"sched_blocks_copied\":{},\"steals\":{},\"steal_attempts\":{},",
                "\"idle_polls\":{},\"spurious_claims\":{},\"ready_hwm\":{},",
                "\"tasks_run\":{},\"bmods_applied\":{},\"columns_factored\":{},",
                "\"busy_s\":{:.6e},\"elapsed_s\":{:.6e},\"wall_s\":{:.6e}}}"
            ),
            json_str(&r.problem),
            r.n,
            r.p,
            r.sched.workers,
            env_fields,
            r.seq_s,
            r.sched_s,
            r.sched_over_seq(),
            r.sched.blocks_copied,
            r.sched.steals,
            r.sched.steal_attempts,
            r.sched.idle_polls,
            r.sched.spurious_claims,
            r.sched.ready_hwm,
            r.sched.tasks_run,
            r.sched.bmods_applied,
            r.sched.columns_factored,
            busy,
            r.sched.elapsed_s,
            r.sched.wall_s,
        ));
    }
    out.push_str("\n]}\n");
    std::fs::write(&json_path, out).expect("write json");
    eprintln!("[wrote {json_path}]");
}
