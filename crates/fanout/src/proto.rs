//! The per-processor data-driven state machine of the block fan-out method.
//!
//! Each processor reacts to *available* completed blocks (its own or
//! received). The protocol is exactly the paper's: a processor performs all
//! block operations destined for blocks it owns; a block completes when its
//! last `BMOD` has been applied and (for off-diagonal blocks) the factored
//! diagonal block of its column has arrived for the `BDIV`; completed blocks
//! are sent to every processor that needs them.
//!
//! The state machine itself is purely symbolic — it emits [`Action`]s in a
//! data-dependency-respecting order. The simulated executor ([`crate::sim`])
//! charges model time for them; [`factorize_protocol`], a single-threaded
//! test oracle, applies real kernels for them, so the protocol the simulator
//! times is checked numerically against the sequential factor.
//!
//! Pairing is *bucketed*: available source blocks of a column are kept in
//! two lists — those whose panel can be the destination **row** here
//! (`mapI(panel) = my grid row`) and those that can be the destination
//! **column** (`mapJ(panel) = my grid column`, or a domain column owned
//! here). An arriving block scans only the opposite bucket, so total pairing
//! work stays proportional to the `BMOD`s this processor actually executes
//! (each candidate is still confirmed with an exact ownership check).

use crate::factor::NumericFactor;
use crate::plan::Plan;
use crate::seq::apply_bmod;
use crate::{Error, StallReport};
use blockmat::BlockMatrix;
use dense::kernels::{potrf_with, trsm_right_lower_trans_with};
use dense::KernelArena;
use std::collections::VecDeque;

/// One step the executor must perform, in emission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Apply `BMOD`: sources are blocks `a` and `b` of column `k`
    /// (`a = b` for a symmetric update), destination is block `dest_b` of
    /// column `dest_j`, which this processor owns.
    Bmod { k: u32, a: u32, b: u32, dest_j: u32, dest_b: u32 },
    /// Complete an owned block: `b == 0` means `BFAC` the diagonal block;
    /// `b > 0` means `BDIV` the off-diagonal block against the (available)
    /// factored diagonal of its column. Afterwards the executor must ship
    /// the block to `plan.send_to[j][b]`.
    Complete { j: u32, b: u32 },
}

/// Data-driven protocol state for one processor.
#[derive(Debug)]
pub struct ProtocolState {
    me: u32,
    my_row: u32,
    my_col: u32,
    /// Per column: available blocks whose panel qualifies as a destination
    /// row on this processor.
    row_side: Vec<Vec<u32>>,
    /// Per column: available blocks whose panel qualifies as a destination
    /// column on this processor.
    col_side: Vec<Vec<u32>>,
    /// Remaining `BMOD`s per block (flat id; meaningful for owned blocks).
    pending: Vec<u32>,
    /// Per column: factored diagonal available here.
    diag_ready: Vec<bool>,
    /// Per column: owned off-diagonal blocks with all updates applied,
    /// awaiting the factored diagonal.
    waiting_bdiv: Vec<Vec<u32>>,
    received: u64,
    owned_remaining: u64,
    expected_recv: u64,
}

impl ProtocolState {
    /// Initializes the state for processor `me`.
    pub fn new(plan: &Plan, bm: &BlockMatrix, me: u32) -> Self {
        let np = bm.num_panels();
        let mut pending = vec![0u32; plan.num_blocks()];
        for j in 0..np {
            for b in 0..bm.cols[j].blocks.len() {
                if plan.owner[j][b] == me {
                    pending[plan.block_id(j as u32, b as u32)] = plan.pending[j][b];
                }
            }
        }
        let (my_row, my_col) = plan.grid.coords(me as usize);
        Self {
            me,
            my_row: my_row as u32,
            my_col: my_col as u32,
            row_side: vec![Vec::new(); np],
            col_side: vec![Vec::new(); np],
            pending,
            diag_ready: vec![false; np],
            waiting_bdiv: vec![Vec::new(); np],
            received: 0,
            owned_remaining: plan.owned_blocks[me as usize],
            expected_recv: plan.expected_recv[me as usize],
        }
    }

    /// Kick-off: completes every owned block that awaits no updates.
    /// (Off-diagonal blocks still wait for their diagonal, possibly
    /// completed within this same cascade.) Clears and fills `actions`.
    pub fn start(&mut self, plan: &Plan, bm: &BlockMatrix, actions: &mut Vec<Action>) {
        actions.clear();
        let mut worklist = Vec::new();
        for j in 0..bm.num_panels() {
            for b in 0..bm.cols[j].blocks.len() {
                if plan.owner[j][b] == self.me
                    && self.pending[plan.block_id(j as u32, b as u32)] == 0
                {
                    self.mods_done(j as u32, b as u32, actions, &mut worklist);
                }
            }
        }
        self.drain(plan, bm, actions, &mut worklist);
    }

    /// A completed block arrived from another processor. Clears and fills
    /// `actions`.
    pub fn on_receive(
        &mut self,
        plan: &Plan,
        bm: &BlockMatrix,
        j: u32,
        b: u32,
        actions: &mut Vec<Action>,
    ) {
        self.received += 1;
        actions.clear();
        let mut worklist = vec![(j, b)];
        self.drain(plan, bm, actions, &mut worklist);
    }

    /// True once every owned block is complete and every expected message
    /// has been received.
    pub fn is_done(&self) -> bool {
        self.owned_remaining == 0 && self.received == self.expected_recv
    }

    /// Messages received so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    fn drain(
        &mut self,
        plan: &Plan,
        bm: &BlockMatrix,
        actions: &mut Vec<Action>,
        worklist: &mut Vec<(u32, u32)>,
    ) {
        while let Some((j, b)) = worklist.pop() {
            self.available(plan, bm, j, b, actions, worklist);
        }
    }

    /// Emits the `BMOD` for pair `(hi, lo)` of column `k` and follows the
    /// destination's completion cascade.
    #[allow(clippy::too_many_arguments)]
    fn emit_pair(
        &mut self,
        plan: &Plan,
        bm: &BlockMatrix,
        k: u32,
        hi: u32,
        lo: u32,
        di: usize,
        dj: usize,
        actions: &mut Vec<Action>,
        worklist: &mut Vec<(u32, u32)>,
    ) {
        let Some(db) = bm.find_block(di, dj) else {
            unreachable!("BMOD destination must exist")
        };
        if plan.owner[dj][db] != self.me {
            return;
        }
        actions.push(Action::Bmod { k, a: hi, b: lo, dest_j: dj as u32, dest_b: db as u32 });
        let id = plan.block_id(dj as u32, db as u32);
        self.pending[id] -= 1;
        if self.pending[id] == 0 {
            self.mods_done(dj as u32, db as u32, actions, worklist);
        }
    }

    /// A completed block (ours or received) became usable at this processor.
    fn available(
        &mut self,
        plan: &Plan,
        bm: &BlockMatrix,
        j: u32,
        b: u32,
        actions: &mut Vec<Action>,
        worklist: &mut Vec<(u32, u32)>,
    ) {
        if b == 0 {
            // Factored diagonal: release owned blocks waiting on BDIV.
            self.diag_ready[j as usize] = true;
            let waiting = std::mem::take(&mut self.waiting_bdiv[j as usize]);
            for idx in waiting {
                actions.push(Action::Complete { j, b: idx });
                self.owned_remaining -= 1;
                worklist.push((j, idx));
            }
            return;
        }
        // Off-diagonal source block.
        let k = j;
        let x = bm.cols[k as usize].blocks[b as usize].row_panel;
        // Does this block qualify as destination row / column here?
        let domain_mine = !plan.eligible[k as usize] && plan.owner[k as usize][0] == self.me;
        let x_root = plan.eligible[x as usize];
        let q_row = domain_mine || (x_root && plan.map_i[x as usize] == self.my_row);
        let q_col = domain_mine || (x_root && plan.map_j[x as usize] == self.my_col);
        // Self-pair: destination is the diagonal block of panel x.
        {
            let owner = if plan.eligible[x as usize] {
                plan.grid.rank(
                    plan.map_i[x as usize] as usize,
                    plan.map_j[x as usize] as usize,
                ) as u32
            } else {
                plan.owner[x as usize][0]
            };
            if owner == self.me {
                self.emit_pair(plan, bm, k, b, b, x as usize, x as usize, actions, worklist);
            }
        }
        if q_col {
            // Partners with a larger panel: they are the destination row.
            let partners = std::mem::take(&mut self.row_side[k as usize]);
            for &a in &partners {
                let y = bm.cols[k as usize].blocks[a as usize].row_panel;
                if y > x {
                    self.emit_pair(
                        plan, bm, k,
                        a.max(b), a.min(b),
                        y as usize, x as usize,
                        actions, worklist,
                    );
                }
            }
            self.row_side[k as usize] = partners;
        }
        if q_row {
            // Partners with a smaller panel: they are the destination column.
            let partners = std::mem::take(&mut self.col_side[k as usize]);
            for &a in &partners {
                let y = bm.cols[k as usize].blocks[a as usize].row_panel;
                if y < x {
                    self.emit_pair(
                        plan, bm, k,
                        a.max(b), a.min(b),
                        x as usize, y as usize,
                        actions, worklist,
                    );
                }
            }
            self.col_side[k as usize] = partners;
        }
        if q_row {
            self.row_side[k as usize].push(b);
        }
        if q_col {
            self.col_side[k as usize].push(b);
        }
    }

    /// All updates into owned block `(j, b)` are applied.
    fn mods_done(
        &mut self,
        j: u32,
        b: u32,
        actions: &mut Vec<Action>,
        worklist: &mut Vec<(u32, u32)>,
    ) {
        if b == 0 || self.diag_ready[j as usize] {
            actions.push(Action::Complete { j, b });
            self.owned_remaining -= 1;
            worklist.push((j, b));
        } else {
            self.waiting_bdiv[j as usize].push(b);
        }
    }
}

/// Runs the fan-out protocol on `f` in place, single-threaded: a **test
/// oracle for the protocol**, not an executor.
///
/// One [`ProtocolState`] per virtual processor of `plan` is stepped against
/// one in-flight queue of completed-block deliveries, and every emitted
/// [`Action`] is applied to the one shared factor with the executors'
/// kernels (no channels, no block copies: a completed block is never
/// written again, so its consumers read it in place). `delivery_seed == 0`
/// delivers in FIFO order; any other seed picks the next delivery
/// pseudo-randomly, so receive-order variation is covered. The factor
/// matches [`crate::factorize_seq`] to rounding (updates are summed in
/// receive order).
///
/// A failing pivot is recorded and the column published as-is, so the
/// protocol drains and the smallest failing column is reported as
/// [`Error::NotPositiveDefinite`], exactly as the other executors do. A
/// processor whose state is not [`ProtocolState::is_done`] once the queue
/// is empty is a protocol bug, reported as [`Error::Stalled`].
pub fn factorize_protocol(
    f: &mut NumericFactor,
    plan: &Plan,
    delivery_seed: u64,
) -> Result<(), Error> {
    let bm = f.bm.clone();
    let mut states: Vec<ProtocolState> =
        (0..plan.p).map(|q| ProtocolState::new(plan, &bm, q as u32)).collect();
    let mut run = ProtocolRun {
        in_flight: VecDeque::new(),
        rng: delivery_seed,
        arena: KernelArena::new(),
        fail_col: None,
    };
    let mut actions = Vec::new();
    for st in states.iter_mut() {
        st.start(plan, &bm, &mut actions);
        run.apply(f, &bm, plan, &actions);
    }
    while let Some((q, j, b)) = run.next_delivery() {
        states[q].on_receive(plan, &bm, j, b, &mut actions);
        run.apply(f, &bm, plan, &actions);
    }
    if let Some(col) = run.fail_col {
        return Err(Error::NotPositiveDefinite { col });
    }
    if states.iter().any(|st| !st.is_done()) {
        return Err(Error::Stalled(Box::new(StallReport {
            columns_total: bm.num_panels(),
            ..StallReport::default()
        })));
    }
    Ok(())
}

/// The shared network and numeric state of one [`factorize_protocol`] run.
struct ProtocolRun {
    /// Deliveries not yet received: `(destination processor, j, b)`.
    in_flight: VecDeque<(usize, u32, u32)>,
    /// Delivery-order state; 0 means FIFO.
    rng: u64,
    arena: KernelArena,
    /// Smallest global column whose pivot failed.
    fail_col: Option<usize>,
}

impl ProtocolRun {
    /// Takes the next delivery: the oldest one when the seed is 0, else a
    /// seeded pseudo-random pick (splitmix64).
    fn next_delivery(&mut self) -> Option<(usize, u32, u32)> {
        if self.rng == 0 || self.in_flight.is_empty() {
            return self.in_flight.pop_front();
        }
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let pick = (z ^ (z >> 31)) % self.in_flight.len() as u64;
        self.in_flight.swap_remove_back(pick as usize)
    }

    /// Applies one processor's actions to the shared factor and queues each
    /// completed block for its remote consumers.
    fn apply(&mut self, f: &mut NumericFactor, bm: &BlockMatrix, plan: &Plan, actions: &[Action]) {
        for &act in actions {
            match act {
                Action::Bmod { k, a, b, dest_j, dest_b } => {
                    let (k, dest_j, dest_b) = (k as usize, dest_j as usize, dest_b as usize);
                    let blk_a = bm.cols[k].blocks[a as usize];
                    let blk_b = bm.cols[k].blocks[b as usize];
                    // Sources live in column k < dest_j: one split borrows both.
                    let (src, dst) = f.data.split_at_mut(dest_j);
                    let offs = &f.offsets;
                    let hi = offs[dest_j].get(dest_b + 1).copied().unwrap_or(dst[0].len());
                    apply_bmod(
                        bm,
                        &mut dst[0][offs[dest_j][dest_b]..hi],
                        blk_a.row_panel as usize,
                        blk_b.row_panel as usize,
                        dest_b,
                        &src[k][offs[k][a as usize]..],
                        bm.block_rows(k, &blk_a),
                        &src[k][offs[k][b as usize]..],
                        bm.block_rows(k, &blk_b),
                        bm.col_width(k),
                        &mut self.arena,
                    );
                }
                Action::Complete { j, b } => {
                    let (j, b) = (j as usize, b as usize);
                    let c = bm.col_width(j);
                    let lo = f.offsets[j][b];
                    let hi = f.offsets[j].get(b + 1).copied().unwrap_or(f.data[j].len());
                    let (diag, rest) = f.data[j].split_at_mut(c * c);
                    if b == 0 {
                        if let Err(e) = potrf_with(diag, c, &mut self.arena) {
                            let col = bm.partition.cols(j).start + e.pivot;
                            self.fail_col = Some(self.fail_col.map_or(col, |m| m.min(col)));
                        }
                    } else {
                        let block = &mut rest[lo - c * c..hi - c * c];
                        let rows = bm.cols[j].blocks[b].nrows();
                        trsm_right_lower_trans_with(diag, c, block, rows, &mut self.arena);
                    }
                    for &dest in &plan.send_to[j][b] {
                        self.in_flight.push_back((dest as usize, j as u32, b as u32));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockmat::{BlockWork, WorkModel};
    use mapping::Assignment;
    use std::collections::HashSet;
    use symbolic::AmalgamationOpts;

    fn setup(k: usize, p: usize) -> (BlockMatrix, Plan) {
        let prob = sparsemat::gen::grid2d(k);
        let perm = ordering::order_problem(&prob);
        let analysis = symbolic::analyze(prob.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let bm = BlockMatrix::build(analysis.supernodes, 3);
        let w = BlockWork::compute(&bm, &WorkModel::default());
        let asg = Assignment::cyclic(&bm, &w, p);
        let plan = Plan::build(&bm, &asg);
        (bm, plan)
    }

    /// Runs the protocol over an in-memory "perfect network" (instant
    /// delivery, per-destination FIFO) and returns per-proc action logs.
    fn run_protocol(bm: &BlockMatrix, plan: &Plan) -> Vec<Vec<Action>> {
        let p = plan.p;
        let mut states: Vec<ProtocolState> =
            (0..p).map(|q| ProtocolState::new(plan, bm, q as u32)).collect();
        let mut logs: Vec<Vec<Action>> = vec![Vec::new(); p];
        let mut queue: std::collections::VecDeque<(usize, u32, u32)> = Default::default();
        let handle = |q: usize,
                          actions: &[Action],
                          logs: &mut Vec<Vec<Action>>,
                          queue: &mut std::collections::VecDeque<(usize, u32, u32)>| {
            for act in actions {
                if let Action::Complete { j, b } = *act {
                    for &dest in &plan.send_to[j as usize][b as usize] {
                        queue.push_back((dest as usize, j, b));
                    }
                }
            }
            logs[q].extend_from_slice(actions);
        };
        let mut actions = Vec::new();
        for (q, st) in states.iter_mut().enumerate() {
            st.start(plan, bm, &mut actions);
            handle(q, &actions, &mut logs, &mut queue);
        }
        while let Some((dest, j, b)) = queue.pop_front() {
            states[dest].on_receive(plan, bm, j, b, &mut actions);
            handle(dest, &actions, &mut logs, &mut queue);
        }
        for (q, st) in states.iter().enumerate() {
            assert!(st.is_done(), "proc {q} not done: {st:?}");
        }
        logs
    }

    #[test]
    fn every_block_completes_exactly_once() {
        for p in [1, 4] {
            let (bm, plan) = setup(8, p);
            let logs = run_protocol(&bm, &plan);
            let mut completed = HashSet::new();
            for (q, log) in logs.iter().enumerate() {
                for act in log {
                    if let Action::Complete { j, b } = *act {
                        assert_eq!(plan.owner[j as usize][b as usize] as usize, q);
                        assert!(completed.insert((j, b)), "block ({j},{b}) completed twice");
                    }
                }
            }
            assert_eq!(completed.len(), bm.num_blocks());
        }
    }

    #[test]
    fn every_bmod_executes_exactly_once_at_dest_owner() {
        let (bm, plan) = setup(8, 4);
        let logs = run_protocol(&bm, &plan);
        let mut seen = HashSet::new();
        for (q, log) in logs.iter().enumerate() {
            for act in log {
                if let Action::Bmod { k, a, b, dest_j, dest_b } = *act {
                    assert_eq!(plan.owner[dest_j as usize][dest_b as usize] as usize, q);
                    assert!(seen.insert((k, a, b)), "duplicate BMOD {k} {a} {b}");
                }
            }
        }
        let mut expect = 0usize;
        blockmat::for_each_bmod(&bm, |_| expect += 1);
        assert_eq!(seen.len(), expect);
    }

    #[test]
    fn protocol_completes_under_every_mapping_policy() {
        use mapping::{ColPolicy, Heuristic, ProcGrid, RowPolicy};
        let prob = sparsemat::gen::grid2d(10);
        let perm = ordering::order_problem(&prob);
        let analysis = symbolic::analyze(prob.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let bm = BlockMatrix::build(analysis.supernodes, 3);
        let w = BlockWork::compute(&bm, &WorkModel::default());
        for grid in [ProcGrid::square(4), ProcGrid::new(2, 3), ProcGrid::new(1, 5)] {
            for row in [
                RowPolicy::Heuristic(Heuristic::DecreasingWork),
                RowPolicy::AltPerProcessor,
            ] {
                for col in [
                    ColPolicy::Heuristic(Heuristic::IncreasingDepth),
                    ColPolicy::Subtree,
                ] {
                    let domains =
                        mapping::DomainPlan::select(&bm, &w, grid.p(), &Default::default());
                    let asg = Assignment::build(&bm, &w, grid, row, col, Some(domains));
                    let plan = Plan::build(&bm, &asg);
                    run_protocol(&bm, &plan); // asserts completion internally
                }
            }
        }
    }

    #[test]
    fn protocol_tolerates_arbitrary_delivery_order() {
        // The fan-out method is "entirely data-driven": no assumption about
        // message order beyond causality. Deliver pending messages in a
        // pseudo-random order and check the run still completes with every
        // block finished exactly once.
        let (bm, plan) = setup(9, 4);
        for seed in [1u64, 7, 42, 1234] {
            let p = plan.p;
            let mut states: Vec<ProtocolState> =
                (0..p).map(|q| ProtocolState::new(&plan, &bm, q as u32)).collect();
            let mut pool: Vec<(usize, u32, u32)> = Vec::new();
            let mut actions = Vec::new();
            let mut completed = 0usize;
            let handle =
                |acts: &[Action], pool: &mut Vec<(usize, u32, u32)>, completed: &mut usize| {
                    for act in acts {
                        if let Action::Complete { j, b } = *act {
                            *completed += 1;
                            for &dest in &plan.send_to[j as usize][b as usize] {
                                pool.push((dest as usize, j, b));
                            }
                        }
                    }
                };
            for st in states.iter_mut() {
                st.start(&plan, &bm, &mut actions);
                handle(&actions, &mut pool, &mut completed);
            }
            let mut rng = seed | 1;
            while !pool.is_empty() {
                // xorshift pick
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let pick = (rng as usize) % pool.len();
                let (dest, j, b) = pool.swap_remove(pick);
                states[dest].on_receive(&plan, &bm, j, b, &mut actions);
                handle(&actions, &mut pool, &mut completed);
            }
            for (q, st) in states.iter().enumerate() {
                assert!(st.is_done(), "seed {seed}: proc {q} incomplete");
            }
            assert_eq!(completed, bm.num_blocks(), "seed {seed}");
        }
    }

    #[test]
    fn actions_respect_data_dependencies() {
        // Within each processor's log: a BMOD sourced from (k, a) must come
        // after Complete{k, a} if this processor owns that source, and a
        // Complete{j, b>0} must come after Complete{j, 0} when the diagonal
        // is local (otherwise the diagonal arrived by message — the network
        // run above already serializes that).
        let (bm, plan) = setup(10, 4);
        let logs = run_protocol(&bm, &plan);
        for (q, log) in logs.iter().enumerate() {
            let mut completed: HashSet<(u32, u32)> = HashSet::new();
            for act in log {
                match *act {
                    Action::Complete { j, b } => {
                        if b > 0 && plan.owner[j as usize][0] as usize == q {
                            assert!(
                                completed.contains(&(j, 0)),
                                "BDIV before local BFAC in col {j}"
                            );
                        }
                        completed.insert((j, b));
                    }
                    Action::Bmod { k, a, b, .. } => {
                        for src in [a, b] {
                            if plan.owner[k as usize][src as usize] as usize == q {
                                assert!(
                                    completed.contains(&(k, src)),
                                    "BMOD uses own incomplete source ({k},{src})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The unfactored matrix and its block storage, in fill-reducing order.
    fn factor_input(prob: &sparsemat::Problem, bs: usize) -> (NumericFactor, BlockWork) {
        let perm = ordering::order_problem(prob);
        let analysis =
            symbolic::analyze(prob.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let pa = analysis.perm.apply_to_matrix(&prob.matrix);
        let bm = std::sync::Arc::new(BlockMatrix::build(analysis.supernodes, bs));
        let w = BlockWork::compute(&bm, &WorkModel::default());
        (NumericFactor::from_matrix(bm, &pa), w)
    }

    #[test]
    fn protocol_oracle_matches_seq_across_p_and_delivery_orders() {
        for (prob, bs) in [
            (sparsemat::gen::grid2d(12), 3),
            (sparsemat::gen::bcsstk_like("T", 200, 4), 4),
        ] {
            let (f0, w) = factor_input(&prob, bs);
            let mut f_seq = f0.clone();
            crate::factorize_seq(&mut f_seq).unwrap();
            let (_, _, v_seq) = f_seq.to_csc();
            // Seeded orders must really reorder: some factor differs from
            // the FIFO one in its last bits (updates summed differently).
            let mut reordered = 0;
            for p in [1, 4, 16, 64] {
                let plan = Plan::build(&f0.bm, &Assignment::cyclic(&f0.bm, &w, p));
                let mut v_fifo = Vec::new();
                for seed in [0, 1, 2, 3, 7, 42, 1234, 0xDEAD_BEEF, u64::MAX] {
                    let mut f = f0.clone();
                    // Ok means every processor's state reached is_done().
                    factorize_protocol(&mut f, &plan, seed)
                        .unwrap_or_else(|e| panic!("{} p={p} seed {seed}: {e}", prob.name));
                    let (_, _, v) = f.to_csc();
                    for (x, y) in v_seq.iter().zip(&v) {
                        assert!(
                            (x - y).abs() < 1e-9 * (1.0 + x.abs()),
                            "{} p={p} seed {seed}: {y} vs seq {x}",
                            prob.name
                        );
                    }
                    if seed == 0 {
                        v_fifo = v;
                    } else if v.iter().zip(&v_fifo).any(|(x, y)| x.to_bits() != y.to_bits()) {
                        reordered += 1;
                    }
                }
            }
            assert!(reordered > 0, "{}: no seed changed the delivery order", prob.name);
        }
    }

    #[test]
    fn protocol_oracle_reports_an_unfinished_processor_as_a_stall() {
        // A plan promising a message that is never sent leaves processor 1
        // waiting once the network drains.
        let (f0, w) = factor_input(&sparsemat::gen::grid2d(8), 3);
        let mut plan = Plan::build(&f0.bm, &Assignment::cyclic(&f0.bm, &w, 4));
        plan.expected_recv[1] += 1;
        for seed in [0, 5] {
            let err = factorize_protocol(&mut f0.clone(), &plan, seed).unwrap_err();
            assert!(matches!(err, Error::Stalled(_)), "seed {seed}: {err:?}");
        }
    }
}
