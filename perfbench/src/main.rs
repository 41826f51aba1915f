//! The repository benchmark: one closed-loop client (each request is sent
//! after the previous answer arrives) driving the solver's public API on one
//! of three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_mixed|warm_refactor|warm_resolve> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced (`serve.rs`);
//! `--trace 1` replays the same requests one layer call at a time and reports
//! the per-layer metrics (`replay.rs`). The last stdout line is the result
//! object; the line before it records the host and measurement context.

mod alloc;
mod calib;
mod inputs;
mod replay;
mod serve;

use cholesky_core::{AnalyzeOpts, SchedOptions, SolverOptions};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdMixed,
    WarmRefactor,
    WarmResolve,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "cold_mixed" => Some(Self::ColdMixed),
            "warm_refactor" => Some(Self::WarmRefactor),
            "warm_resolve" => Some(Self::WarmResolve),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::ColdMixed => "cold_mixed",
            Self::WarmRefactor => "warm_refactor",
            Self::WarmResolve => "warm_resolve",
        }
    }
}

/// Host and run settings shared by both modes.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Cores the host reports.
    pub nproc: usize,
    /// Scheduler workers of the `warm_refactor` session: `min(4, nproc)`.
    pub workers: usize,
    /// Default options except the analyze thread count, set to `nproc`
    /// explicitly so no environment variable can change it.
    pub opts: SolverOptions,
    pub sched: SchedOptions,
}

impl Ctx {
    fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = nproc.min(4);
        let opts = SolverOptions {
            analyze: AnalyzeOpts {
                workers: Some(nproc),
                ..AnalyzeOpts::default()
            },
            ..SolverOptions::default()
        };
        let sched = SchedOptions {
            workers: Some(workers),
            ..SchedOptions::default()
        };
        Self {
            workload,
            seed,
            seconds,
            nproc,
            workers,
            opts,
            sched,
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run hands back for printing.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra context fields (`"key": value` JSON fragments).
    pub context: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <cold_mixed|warm_refactor|warm_resolve> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        usage()
    };
    let ctx = Ctx::new(workload, seed, seconds);
    let out = if traced {
        replay::run(&ctx)
    } else {
        serve::run(&ctx)
    };

    let mut context = vec![
        format!("\"workload\": \"{}\"", workload.name()),
        format!("\"seed\": {seed}"),
        format!("\"seconds\": {seconds}"),
        format!("\"trace\": {}", u8::from(traced)),
        format!("\"nproc\": {}", ctx.nproc),
        format!("\"analyze_workers\": {}", ctx.nproc),
        format!("\"sched_workers\": {}", ctx.workers),
        // Every thread count is capped at nproc, so this stays false; it is
        // recorded so that results taken with more threads than cores stand
        // out.
        format!("\"oversubscribed\": {}", ctx.workers > ctx.nproc),
        "\"client\": \"closed loop, 1 client\"".to_string(),
    ];
    context.extend(out.context);
    println!("{{\"context\": {{{}}}}}", context.join(", "));

    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            assert!(
                m.value.is_finite(),
                "metric {} is not finite: {}",
                m.name,
                m.value
            );
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
