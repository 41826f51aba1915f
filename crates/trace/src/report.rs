//! Predicted-vs-achieved balance reporting.
//!
//! The paper predicts a bound on parallel efficiency from the block→processor
//! assignment alone (Section 3.2's balance statistics); a trace measures what
//! an execution actually achieved. [`RunReport`] puts the two side by side
//! and breaks the gap down by phase, so "the map was fine but workers sat
//! idle" and "the map itself was skewed" become distinguishable.

use crate::{TaskKind, Trace};
use balance::BalanceReport;

/// The predicted balance bound, reduced to the four scalar statistics
/// (decoupled from [`BalanceReport`]'s per-processor vectors so a report can
/// be built for executions with no assignment, e.g. the sequential baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedBalance {
    /// `total / (P · max)` — the efficiency upper bound.
    pub overall: f64,
    /// Row balance of the 2-D mapped portion.
    pub row: f64,
    /// Column balance of the 2-D mapped portion.
    pub col: f64,
    /// Diagonal balance of the 2-D mapped portion.
    pub diag: f64,
    /// The processor count `P` the bound was predicted for.
    pub p: usize,
}

impl From<&BalanceReport> for PredictedBalance {
    fn from(r: &BalanceReport) -> Self {
        Self { overall: r.overall, row: r.row, col: r.col, diag: r.diag, p: r.per_proc.len() }
    }
}

/// One named span of the end-to-end pipeline (`order`, `etree`, `colcount`,
/// `supernodes`, `partition`, `assemble`, `factor`, `solve`, and — for
/// plan-reusing sessions — `refactor`, `resolve`; parallel analysis adds one
/// `analyze subtree k` span per subtree), on a clock starting at 0 when the
/// pipeline starts.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpan {
    /// Phase name.
    pub name: String,
    /// Start on the pipeline clock, seconds.
    pub start_s: f64,
    /// End on the pipeline clock, seconds.
    pub end_s: f64,
}

impl PhaseSpan {
    /// Span duration in seconds.
    #[inline]
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Lays out durations as consecutive [`PhaseSpan`]s starting at 0.
pub fn phase_spans(durations: &[(&str, f64)]) -> Vec<PhaseSpan> {
    let mut t = 0.0;
    durations
        .iter()
        .map(|&(name, d)| {
            let s = PhaseSpan { name: name.to_string(), start_s: t, end_s: t + d };
            t += d;
            s
        })
        .collect()
}

/// The join of a measured [`Trace`] with a predicted balance bound.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Label shown in the report header (e.g. `"sched p=16"`).
    pub name: String,
    /// Predicted statistics, when an assignment exists.
    pub predicted: Option<PredictedBalance>,
    /// Worker tracks in the trace.
    pub workers: usize,
    /// Traced execution window (first start → last end), seconds.
    pub span_s: f64,
    /// Total compute seconds across workers (`bfac + bdiv + bmod`).
    pub busy_s: f64,
    /// Achieved utilization `busy / (workers · span)`.
    pub utilization: f64,
    /// Seconds per [`TaskKind`], summed over workers.
    pub phase_s: [f64; TaskKind::COUNT],
    /// Compute seconds per worker (spread reveals placement skew).
    pub busy_per_worker: Vec<f64>,
    /// Events lost to ring overwrite (nonzero means the breakdown is partial).
    pub dropped: u64,
    /// End-to-end pipeline phases surrounding the traced execution
    /// (`order` … `solve`); empty when only the factor loop was measured.
    pub pipeline: Vec<PhaseSpan>,
}

impl RunReport {
    /// Builds the report from a collected trace and an optional predicted
    /// bound (pass the assignment's [`BalanceReport`] when one exists).
    pub fn new(name: impl Into<String>, trace: &Trace, predicted: Option<&BalanceReport>) -> Self {
        Self {
            name: name.into(),
            predicted: predicted.map(PredictedBalance::from),
            workers: trace.workers(),
            span_s: trace.span_s(),
            busy_s: trace.busy_s(),
            utilization: trace.utilization(),
            phase_s: trace.phase_totals(),
            busy_per_worker: trace.busy_per_worker(),
            dropped: trace.dropped,
            pipeline: Vec::new(),
        }
    }

    /// Attaches end-to-end pipeline phases (builder style).
    pub fn with_pipeline(mut self, pipeline: Vec<PhaseSpan>) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// `achieved / predicted_overall`: how much of the bound the execution
    /// realized. `None` without a prediction, and when the run's worker
    /// count differs from the predicted `P` — utilization over `w` workers
    /// divided by a bound for `P ≠ w` processors compares unlike things.
    pub fn bound_realized(&self) -> Option<f64> {
        match &self.predicted {
            Some(p) if p.overall > 0.0 && p.p == self.workers => {
                Some(self.utilization / p.overall)
            }
            _ => None,
        }
    }

    /// Worst/best per-worker compute seconds ratio (1.0 = perfectly even).
    pub fn worker_spread(&self) -> f64 {
        let max = self.busy_per_worker.iter().copied().fold(0.0, f64::max);
        let min = self
            .busy_per_worker
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        if max <= 0.0 || !min.is_finite() {
            1.0
        } else {
            min / max
        }
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== run report: {} ==", self.name)?;
        match &self.predicted {
            Some(p) => writeln!(
                f,
                "predicted balance   overall {:.3}  (row {:.3}  col {:.3}  diag {:.3})",
                p.overall, p.row, p.col, p.diag
            )?,
            None => writeln!(f, "predicted balance   (no assignment)")?,
        }
        writeln!(
            f,
            "achieved            util {:.3}  = busy {:.4}s / ({} workers x span {:.4}s)",
            self.utilization, self.busy_s, self.workers, self.span_s
        )?;
        if let Some(p) = &self.predicted {
            match self.bound_realized() {
                Some(r) => writeln!(f, "bound realized      {:.1}%", 100.0 * r)?,
                None => writeln!(
                    f,
                    "bound realized      n/a ({} workers, bound predicted for P = {})",
                    self.workers, p.p
                )?,
            }
        }
        write!(f, "phase breakdown    ")?;
        for k in TaskKind::ALL {
            let s = self.phase_s[k as usize];
            if s > 0.0 {
                write!(f, " {} {:.4}s", k.name(), s)?;
            }
        }
        writeln!(f)?;
        writeln!(
            f,
            "worker compute      min/max spread {:.3}",
            self.worker_spread()
        )?;
        if !self.pipeline.is_empty() {
            write!(f, "pipeline           ")?;
            for p in &self.pipeline {
                if p.dur_s() > 0.0 {
                    write!(f, " {} {:.4}s", p.name, p.dur_s())?;
                }
            }
            writeln!(f)?;
        }
        if self.dropped > 0 {
            writeln!(f, "warning             {} events dropped (ring overflow)", self.dropped)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceEvent, NO_BLOCK};

    fn two_worker_trace() -> Trace {
        let ev = |kind, block, t0: f64, t1: f64| TraceEvent { block, kind, t_start: t0, t_end: t1 };
        Trace::from_events(vec![
            vec![ev(TaskKind::Bfac, 0, 0.0, 0.6), ev(TaskKind::Bmod, 2, 0.6, 1.0)],
            vec![ev(TaskKind::Idle, NO_BLOCK, 0.0, 0.5), ev(TaskKind::Bmod, 3, 0.5, 1.0)],
        ])
    }

    #[test]
    fn joins_trace_with_prediction() {
        let t = two_worker_trace();
        let rep = RunReport::new("test", &t, None);
        assert_eq!(rep.workers, 2);
        assert!((rep.span_s - 1.0).abs() < 1e-12);
        assert!((rep.busy_s - 1.5).abs() < 1e-12);
        assert!((rep.utilization - 0.75).abs() < 1e-12);
        assert!((rep.worker_spread() - 0.5).abs() < 1e-12);
        assert_eq!(rep.bound_realized(), None);
        let s = rep.to_string();
        assert!(s.contains("(no assignment)"));
        assert!(s.contains("util 0.750"));
        assert!(s.contains("idle 0.5000s"));
    }

    #[test]
    fn pipeline_spans_lay_out_and_render() {
        let spans = super::phase_spans(&[("order", 0.25), ("etree", 0.0), ("factor", 1.0)]);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].start_s, 0.0);
        assert!((spans[2].start_s - 0.25).abs() < 1e-12);
        assert!((spans[2].end_s - 1.25).abs() < 1e-12);
        let rep = RunReport::new("pipe", &two_worker_trace(), None).with_pipeline(spans);
        let s = rep.to_string();
        assert!(s.contains("pipeline"));
        assert!(s.contains("order 0.2500s"));
        // Zero-length phases are elided from the rendering.
        assert!(!s.contains("etree"));
        // A plain report has no pipeline line.
        assert!(!RunReport::new("t", &two_worker_trace(), None).to_string().contains("pipeline"));
    }

    #[test]
    fn prediction_side_renders_and_ratios() {
        let t = two_worker_trace();
        let pred = BalanceReport {
            overall: 0.9,
            row: 0.95,
            col: 0.92,
            diag: 0.91,
            per_proc: vec![1, 1],
            total: 2,
            total_2d: 2,
        };
        let rep = RunReport::new("sched p=2", &t, Some(&pred));
        assert!((rep.bound_realized().unwrap() - 0.75 / 0.9).abs() < 1e-12);
        let s = rep.to_string();
        assert!(s.contains("overall 0.900"));
        assert!(s.contains("bound realized      83.3%"));
        assert!(!s.contains("warning"));
        // Two workers against a bound predicted for P = 4: no ratio.
        let pred4 = BalanceReport { per_proc: vec![1; 4], total: 4, ..pred };
        let rep = RunReport::new("sched p=4", &t, Some(&pred4));
        assert_eq!(rep.bound_realized(), None);
        let s = rep.to_string();
        assert!(s.contains("overall 0.900"));
        assert!(s.contains("bound realized      n/a (2 workers, bound predicted for P = 4)"));
    }
}
