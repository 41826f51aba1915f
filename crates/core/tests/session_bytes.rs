//! Session memory, measured by a counting allocator: admission control's
//! [`ResourceEstimate`](cholesky_core::ResourceEstimate) must match what a
//! sequential session really allocates, and the session's steady state must
//! allocate nothing.
//!
//! Counters are per thread, so the tests in this binary can run in parallel
//! without seeing each other's allocations (sequential sessions allocate on
//! the calling thread only).

use cholesky_core::{Solver, SolverOptions};
use sparsemat::gen;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Bytes allocated by this thread (reallocations count their new size).
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    /// Bytes freed by this thread.
    static FREED: Cell<u64> = const { Cell::new(0) };
}

fn add(counter: &'static std::thread::LocalKey<Cell<u64>>, bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = counter.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(&ALLOCATED, layout.size());
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(&FREED, layout.size());
        // SAFETY: `ptr` was allocated by `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(&ALLOCATED, new_size);
        add(&FREED, layout.size());
        // SAFETY: as for `dealloc`, and `new_size` comes from the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

fn live() -> i64 {
    allocated() as i64 - FREED.with(Cell::get) as i64
}

fn structures() -> Vec<(&'static str, sparsemat::Problem)> {
    vec![
        ("grid2d(150)", gen::grid2d(150)),
        ("bcsstk_like(2700)", gen::bcsstk_like("B", 2700, 3)),
        ("cube3d(13)", gen::cube3d(13)),
    ]
}

/// The estimate admission control checks equals, within 10%, the live bytes
/// of a sequential session after its first refactor + resolve. Measured
/// from before `try_session`, with the plan's shared templates already
/// built (as every session after the first finds them): a CSC gather map
/// built on the way would add ≈ 2.3× the block storage and fail the ratio.
#[test]
fn resource_estimate_matches_measured_session_bytes() {
    for (name, p) in structures() {
        let solver = Solver::analyze_problem(&p, &SolverOptions::default());
        let templates = solver.plan.numeric_templates();
        let a = &p.matrix;
        let b = vec![1.0; a.n()];
        let mut x = vec![0.0; a.n()];

        let live0 = live();
        let mut session = solver.try_session().expect("no budget configured");
        session.refactor(a.values()).expect("SPD by construction");
        session.resolve_into(&b, &mut x);
        let measured = (live() - live0) as f64;

        let estimate = solver.plan.resource_estimate().factor_bytes as f64;
        let ratio = estimate / measured;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "{name}: estimate {estimate} B vs measured {measured} B (ratio {ratio:.3})"
        );
        assert!(
            !templates.csc.is_built(),
            "{name}: a session built the CSC map"
        );
        drop(session);
    }
}

/// After warm-up a sequential session's refactor + resolve_into allocate
/// nothing, and resolve_many allocates only the vectors it returns; no
/// session path ever builds the plan's CSC gather map.
#[test]
fn steady_state_session_allocates_nothing() {
    let p = gen::bcsstk_like("Z", 600, 5);
    let a = &p.matrix;
    let n = a.n();
    let solver = Solver::analyze_problem(
        &p,
        &SolverOptions {
            block_size: 16,
            ..Default::default()
        },
    );
    let mut session = solver.session();
    let b = vec![1.0; n];
    let mut x = vec![0.0; n];
    let k = 5;
    let rhs: Vec<Vec<f64>> = (0..k).map(|r| vec![1.0 + r as f64; n]).collect();
    let refs: Vec<&[f64]> = rhs.iter().map(Vec::as_slice).collect();
    // Warm-up: every buffer reaches its steady-state size.
    session.refactor(a.values()).expect("SPD by construction");
    session.resolve_into(&b, &mut x);
    drop(session.resolve_many(&refs));

    for _ in 0..3 {
        let before = allocated();
        session.refactor(a.values()).expect("SPD by construction");
        session.resolve_into(&b, &mut x);
        assert_eq!(allocated() - before, 0, "refactor + resolve_into allocated");

        let before = allocated();
        let xs = session.resolve_many(&refs);
        let returned = (k * n * 8 + k * std::mem::size_of::<Vec<f64>>()) as u64;
        assert_eq!(
            allocated() - before,
            returned,
            "resolve_many allocated beyond its result"
        );
        assert_eq!(xs.len(), k);
    }
    assert!(!session.plan().numeric_templates().csc.is_built());
}
