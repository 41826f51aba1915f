//! The immutable symbolic plan: everything the pipeline computes *before*
//! numeric values enter, packaged for sharing and reuse.
//!
//! A [`SymbolicPlan`] is the product of ordering + elimination tree + column
//! counts + supernode amalgamation + block partition + work model. It is
//! immutable and `Sync`: wrap it in an `Arc` and any number of concurrent
//! factor/solve sessions ([`crate::FactorSession`]) can share it. The plan
//! also lazily caches the *positional* templates that repeated numeric work
//! needs — the input-entry scatter map and the per-assignment factorization
//! task DAG — so a session's `refactor`/`resolve` hot path does no structure
//! walks at all. Lazy construction keeps one-shot `Solver` users from paying
//! for any of it. The factor CSC gather map, which only the reference CSC
//! solve reads, is built lazily on its own ([`LazyCscTemplate`]).

use crate::cache::Lru;
use crate::resilience::ResourceEstimate;
use crate::{OrderingChoice, PhaseSpan, PhaseTimings, SolverError, SolverOptions};
use balance::{BalanceReport, CommStats};
use blockmat::{BlockMatrix, BlockWork};
use fanout::{AssemblyTemplate, CriticalPath, CscTemplate};
use mapping::{
    Assignment, ColPolicy, DomainPlan, Heuristic, ProcGrid, RowPolicy,
};
use simgrid::MachineModel;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use symbolic::{Analysis, FactorStats};

/// Locks a mutex, recovering the guard if a panicking holder poisoned it.
/// The plan's only mutex guards the exec-template LRU, whose entries are
/// immutable `Arc`s inserted after construction completes — a panic can
/// never leave a half-built entry visible, so the poison flag carries no
/// information and dropping it keeps the shared plan usable by every other
/// session after one caller's panic.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bound on cached per-assignment execution structures (task DAG) per
/// plan. Each entry holds the full block DAG; a caller sweeping
/// many grids/policies on one plan must not accumulate them all.
pub const DEFAULT_EXEC_CAPACITY: usize = 16;

/// Execution structures derived from one [`Assignment`]: the factorization
/// task DAG. Cached per assignment signature on the plan (see
/// [`SymbolicPlan::exec_templates`]).
#[derive(Debug)]
pub struct ExecTemplates {
    /// The factorization plan (ownership, sends, receive counts, priorities).
    pub plan: Arc<fanout::Plan>,
}

/// Numeric reuse templates for one input structure: where every input entry
/// lands in block storage, plus the on-demand CSC gather map of the
/// reference solve.
#[derive(Debug)]
pub struct NumericTemplates {
    /// Block-storage shape + permuted-entry scatter (for allocation).
    pub assembly: AssemblyTemplate,
    /// Per *original* (unpermuted) input entry, column-major:
    /// `(panel, flat position in data[panel])`. Scattering original values
    /// through this map reproduces permute + assemble bit-for-bit.
    pub targets: Vec<(u32, usize)>,
    /// Factor CSC structure + gather positions for the reference CSC solve
    /// ([`fanout::solve_csc`]), built on first dereference. No session or
    /// solver path reads it, so a plan carries it only once a test or
    /// replay harness asks for the oracle.
    pub csc: LazyCscTemplate,
}

/// A [`CscTemplate`] built on first dereference. Derefs to the template, so
/// `t.csc.gather_into(..)`, `t.csc.nnz()` and `&t.csc` as `&CscTemplate`
/// read like the template itself.
#[derive(Debug)]
pub struct LazyCscTemplate {
    bm: Arc<BlockMatrix>,
    built: OnceLock<CscTemplate>,
}

impl LazyCscTemplate {
    fn new(bm: Arc<BlockMatrix>) -> Self {
        Self { bm, built: OnceLock::new() }
    }

    /// True once something dereferenced the template (and so built it).
    pub fn is_built(&self) -> bool {
        self.built.get().is_some()
    }
}

impl Deref for LazyCscTemplate {
    type Target = CscTemplate;

    fn deref(&self) -> &CscTemplate {
        self.built.get_or_init(|| CscTemplate::build(&self.bm))
    }
}

/// An analyzed sparse SPD structure, ready to be mapped, factored, and
/// refactored. Immutable and shareable (`Arc<SymbolicPlan>` across threads);
/// [`crate::Solver`] derefs to this, so every structure-only method below is
/// available on a solver too.
#[derive(Debug)]
pub struct SymbolicPlan {
    /// Symbolic analysis results (permutation, etree, supernodes, stats).
    pub analysis: Analysis,
    /// The 2-D block structure.
    pub bm: Arc<BlockMatrix>,
    /// Per-block work model.
    pub work: BlockWork,
    /// Options used.
    pub opts: SolverOptions,
    /// The concrete ordering that produced this plan's permutation. When
    /// `opts.ordering` is [`OrderingChoice::Auto`], this records what the
    /// structure probe resolved it to ([`crate::resolve_ordering`]) —
    /// never `Auto` on plans built by [`crate::Solver::analyze`] /
    /// [`crate::Solver::analyze_problem`]. Plans built around a
    /// caller-provided permutation
    /// ([`crate::Solver::analyze_with_permutation`]) ran no ordering and
    /// record the caller's option verbatim.
    pub resolved_ordering: OrderingChoice,
    /// Wall-clock of the analyze phases (`assemble`/`factor`/`solve`/
    /// `refactor`/`resolve` are 0 here; per-run methods fill copies).
    pub timings: PhaseTimings,
    /// Per-subtree spans from the parallel symbolic analysis, on the same
    /// clock as [`PhaseTimings::spans`] (0 = pipeline start). Empty when the
    /// analysis ran sequentially. [`crate::FactorSession`] reports append
    /// these to the pipeline track so Perfetto shows the subtree fan-out.
    pub analyze_spans: Vec<PhaseSpan>,
    /// Lazily built numeric reuse templates (input scatter; the CSC gather
    /// map inside is lazy again).
    numeric: OnceLock<Arc<NumericTemplates>>,
    /// Lazily built per-assignment execution structures, keyed by
    /// [`Assignment::signature`], LRU-bounded at [`DEFAULT_EXEC_CAPACITY`].
    exec: Mutex<Lru<Arc<ExecTemplates>>>,
}

impl SymbolicPlan {
    /// Packages analysis products into a plan. Used by the `Solver`
    /// constructors; not part of the public surface area.
    pub(crate) fn new(
        analysis: Analysis,
        bm: Arc<BlockMatrix>,
        work: BlockWork,
        opts: SolverOptions,
        resolved_ordering: OrderingChoice,
        timings: PhaseTimings,
        analyze_spans: Vec<PhaseSpan>,
    ) -> Self {
        Self {
            analysis,
            bm,
            work,
            opts,
            resolved_ordering,
            timings,
            analyze_spans,
            numeric: OnceLock::new(),
            exec: Mutex::new(Lru::new(DEFAULT_EXEC_CAPACITY)),
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.bm.sn.n()
    }

    /// Factor statistics (paper Table 1 columns).
    pub fn stats(&self) -> FactorStats {
        self.analysis.stats
    }

    /// The cost of one numeric factorization on this plan, known from the
    /// symbolic fill: the bytes a sequential session holds once it has
    /// refactored and solved, and the factorization flops. The bytes are
    /// the block storage (each diagonal block stored as a full dense
    /// square, each off-diagonal block as dense rows × panel width —
    /// exactly the assembly layout) with its per-panel buffers and block
    /// offsets, the solve's permuted vector and panel scratch, and one
    /// kernel arena ([`dense::KernelArena::bytes_for`]). The basis of
    /// admission control ([`Self::check_budget`]).
    pub fn resource_estimate(&self) -> ResourceEstimate {
        let bm = &self.bm;
        let np = bm.num_panels() as u64;
        let (mut elems, mut blocks) = (0u64, 0u64);
        let (mut max_dim, mut panel_rows) = (0usize, 0usize);
        for (j, col) in bm.cols.iter().enumerate() {
            let w = bm.col_width(j);
            let m: usize = col.blocks[1..].iter().map(|b| b.nrows()).sum();
            elems += (w * (w + m)) as u64;
            blocks += col.blocks.len() as u64;
            max_dim = col.blocks.iter().fold(max_dim.max(w), |d, b| d.max(b.nrows()));
            panel_rows = panel_rows.max(m);
        }
        let vec_bytes = std::mem::size_of::<Vec<f64>>() as u64;
        // Per panel: a value buffer and an offset list (two `Vec`s in the
        // factor's outer vectors) plus one offset per block.
        let storage = elems * 8 + np * 2 * vec_bytes + blocks * 8;
        // Permuted right-hand side plus the backward pass's gather of one
        // panel's rows.
        let solve = (self.n() + bm.partition.max_width() + panel_rows) as u64 * 8;
        let arena = dense::KernelArena::bytes_for(max_dim, panel_rows) as u64;
        ResourceEstimate { factor_bytes: storage + solve + arena, flops: self.analysis.stats.ops }
    }

    /// Checks [`Self::resource_estimate`] against the plan's configured
    /// [`SolverOptions::budget`](crate::SolverOptions); `Err` is
    /// [`SolverError::BudgetExceeded`] carrying both sides. A plan with no
    /// budget admits everything.
    pub fn check_budget(&self) -> Result<(), SolverError> {
        let Some(budget) = self.opts.budget else { return Ok(()) };
        let estimate = self.resource_estimate();
        if budget.admits(&estimate) {
            Ok(())
        } else {
            Err(SolverError::BudgetExceeded { estimate, budget })
        }
    }

    /// Merges the plan's [`SolverOptions`] robustness settings into
    /// scheduler options: `deadline` fills in when `opts` has none, and
    /// `stall_timeout` overrides `opts` only when the latter sits at the
    /// [`fanout::SchedOptions`] default (an explicitly configured watchdog
    /// always wins).
    pub(crate) fn merged_sched_opts(&self, opts: &fanout::SchedOptions) -> fanout::SchedOptions {
        let mut o = opts.clone();
        if o.deadline.is_none() {
            o.deadline = self.opts.deadline;
        }
        if o.stall_timeout == fanout::SchedOptions::default().stall_timeout
            && self.opts.stall_timeout != o.stall_timeout
        {
            o.stall_timeout = self.opts.stall_timeout;
        }
        o
    }

    /// Builds a block-to-processor assignment on a square `√P × √P` grid.
    pub fn assign(&self, p: usize, row: RowPolicy, col: ColPolicy) -> Assignment {
        self.assign_on_grid(ProcGrid::square(p), row, col)
    }

    /// Builds an assignment on an arbitrary grid.
    pub fn assign_on_grid(&self, grid: ProcGrid, row: RowPolicy, col: ColPolicy) -> Assignment {
        let domains = self
            .opts
            .domains
            .as_ref()
            .map(|params| DomainPlan::select(&self.bm, &self.work, grid.p(), params));
        Assignment::build(&self.bm, &self.work, grid, row, col, domains)
    }

    /// The paper's baseline: 2-D cyclic on a square grid.
    pub fn assign_cyclic(&self, p: usize) -> Assignment {
        self.assign(
            p,
            RowPolicy::Heuristic(Heuristic::Cyclic),
            ColPolicy::Heuristic(Heuristic::Cyclic),
        )
    }

    /// The paper's recommended mapping (Table 7): increasing-depth rows,
    /// cyclic columns.
    pub fn assign_heuristic(&self, p: usize) -> Assignment {
        self.assign(
            p,
            RowPolicy::Heuristic(Heuristic::IncreasingDepth),
            ColPolicy::Heuristic(Heuristic::Cyclic),
        )
    }

    /// Builds an assignment using the policies configured in this plan's
    /// [`SolverOptions`] (`row_policy`/`col_policy`). With default options
    /// this matches [`assign_heuristic`](Self::assign_heuristic).
    pub fn assign_default(&self, p: usize) -> Assignment {
        self.assign(p, self.opts.row_policy, self.opts.col_policy)
    }

    /// Load balance statistics of an assignment.
    pub fn balance(&self, asg: &Assignment) -> BalanceReport {
        BalanceReport::compute(&self.bm, &self.work, asg)
    }

    /// Communication volume of an assignment.
    pub fn comm(&self, asg: &Assignment) -> CommStats {
        balance::comm_volume(&self.bm, asg)
    }

    /// Simulated factorization on the modeled machine (no numerics).
    pub fn simulate(&self, asg: &Assignment, model: &MachineModel) -> fanout::SimOutcome {
        let plan = self.exec_templates(asg).plan.clone();
        fanout::simulate(&self.bm, &plan, model)
    }

    /// Simulated factorization under an explicit scheduling policy
    /// (Section 5: data-driven vs critical-path priority).
    pub fn simulate_with_policy(
        &self,
        asg: &Assignment,
        model: &MachineModel,
        policy: fanout::SimPolicy,
    ) -> fanout::SimOutcome {
        let plan = self.exec_templates(asg).plan.clone();
        fanout::simulate_with_policy(&self.bm, &plan, model, policy)
    }

    /// Critical path of the block-operation DAG under a machine model: an
    /// upper bound on achievable parallelism independent of the mapping.
    pub fn critical_path(&self, model: &MachineModel) -> CriticalPath {
        fanout::critical_path(&self.bm, model)
    }

    /// The execution structures (factorization task DAG) for an assignment,
    /// built once per distinct [`Assignment::signature`] and shared
    /// thereafter. Repeated factorizations and simulations under the same
    /// assignment skip `Plan::build` entirely.
    pub fn exec_templates(&self, asg: &Assignment) -> Arc<ExecTemplates> {
        let key = asg.signature();
        let mut map = lock_ignore_poison(&self.exec);
        if let Some(t) = map.get(key) {
            return t.clone();
        }
        let plan = Arc::new(fanout::Plan::build(&self.bm, asg));
        let t = Arc::new(ExecTemplates { plan });
        map.insert(key, t.clone());
        t
    }

    /// Number of distinct assignments with cached execution structures.
    pub fn cached_exec_templates(&self) -> usize {
        lock_ignore_poison(&self.exec).len()
    }

    /// Execution structures dropped by the LRU bound
    /// ([`DEFAULT_EXEC_CAPACITY`]) since this plan was built. Sessions
    /// holding an `Arc<ExecTemplates>` keep theirs alive; eviction only
    /// means the next request for that assignment rebuilds.
    pub fn exec_evictions(&self) -> u64 {
        lock_ignore_poison(&self.exec).evictions()
    }

    /// The numeric reuse templates for this plan's input structure, built
    /// once on first use. Everything needed is already in the plan: the
    /// permuted pattern is `analysis.pattern`, and the original pattern is
    /// its image under the inverse permutation.
    pub fn numeric_templates(&self) -> Arc<NumericTemplates> {
        self.numeric
            .get_or_init(|| {
                let assembly = AssemblyTemplate::build(&self.bm, &self.analysis.pattern);
                let csc = LazyCscTemplate::new(self.bm.clone());
                let targets = original_entry_targets(
                    &self.analysis.perm,
                    &self.analysis.pattern,
                    assembly.targets(),
                );
                Arc::new(NumericTemplates { assembly, targets, csc })
            })
            .clone()
    }
}

/// Composes "original entry → permuted entry position" with the assembly
/// template's "permuted entry → block storage position", yielding a direct
/// original-values scatter map.
///
/// Permuting a symmetric matrix moves each stored lower-triangle entry
/// `(i, j)` to `(max(pi,pj), min(pi,pj))` without arithmetic (a bijection on
/// unordered index pairs cannot create duplicates), so scattering original
/// values through the composed map is bit-identical to permute-then-assemble.
fn original_entry_targets(
    perm: &sparsemat::Permutation,
    permuted_pattern: &sparsemat::SparsityPattern,
    permuted_targets: &[(u32, usize)],
) -> Vec<(u32, usize)> {
    let original = perm.inverse().apply_to_pattern(permuted_pattern);
    let n = original.n();
    let mut out = Vec::with_capacity(original.nnz());
    for j in 0..n {
        let nj = perm.new_of_old(j) as u32;
        for &i in original.col(j) {
            let ni = perm.new_of_old(i as usize) as u32;
            let (row, col) = if ni >= nj { (ni, nj) } else { (nj, ni) };
            let col = col as usize;
            let e = permuted_pattern
                .col(col)
                .binary_search(&row)
                .expect("permuted entry exists by construction");
            out.push(permuted_targets[permuted_pattern.col_ptr()[col] + e]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{SchedOptions, Solver, SolverOptions};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn exec_template_lock_survives_a_panicking_holder() {
        let p = sparsemat::gen::grid2d(8);
        let solver = Solver::analyze_problem(
            &p,
            &SolverOptions { block_size: 4, ..Default::default() },
        );
        let asg = solver.assign_cyclic(4);
        let t_before = solver.plan.exec_templates(&asg);
        // Poison the exec-template mutex: panic while holding its guard.
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            let _guard = solver.plan.exec.lock().unwrap();
            panic!("injected panic under the exec template lock");
        }));
        assert!(poisoned.is_err());
        assert!(solver.plan.exec.is_poisoned());
        // Every accessor keeps working and the cached entry is intact.
        assert_eq!(solver.plan.cached_exec_templates(), 1);
        assert_eq!(solver.plan.exec_evictions(), 0);
        let t_after = solver.plan.exec_templates(&asg);
        assert!(std::sync::Arc::ptr_eq(&t_before, &t_after));
        // The plan still drives a full factorization.
        let (f, _) = solver.factor_sched(&asg, &SchedOptions::default()).unwrap();
        assert!(solver.residual(&f) < 1e-12);
    }

    #[test]
    fn resource_estimate_matches_allocated_storage() {
        let p = sparsemat::gen::grid2d(8);
        let solver = Solver::analyze_problem(
            &p,
            &SolverOptions { block_size: 4, ..Default::default() },
        );
        let est = solver.plan.resource_estimate();
        let f = solver.assemble();
        let allocated: u64 = f.data.iter().map(|d| d.len() as u64 * 8).sum();
        // The block storage, plus the session's bookkeeping, solve vectors
        // and arena (pinned against a counting allocator in
        // tests/session_bytes.rs).
        assert!(est.factor_bytes > allocated, "{} vs {allocated}", est.factor_bytes);
        assert!(est.factor_bytes < 3 * allocated, "{} vs {allocated}", est.factor_bytes);
        assert!(est.flops > 0);
    }
}
