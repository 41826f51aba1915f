//! Reusable scratch memory for the packed kernels.
//!
//! The packed GEMM/SYRK core ([`crate::pack`]) copies panels of its operands
//! into contiguous, microkernel-friendly buffers before multiplying. Doing a
//! heap allocation per BMOD would dwarf the arithmetic for the small blocks
//! the block fan-out method produces, so all scratch lives in a
//! [`KernelArena`] that each worker allocates once and reuses for every
//! kernel call. Buffers grow monotonically and are never cleared: every
//! kernel fully overwrites the region it uses (padding included).

/// Packing buffers for the blocked GEMM/SYRK cores (the `A`- and `B`-panel
/// scratch of the Goto-style algorithm).
///
/// Opaque on purpose: only the packed kernels write into these, and they
/// always overwrite the slice they request, so stale contents are harmless.
#[derive(Debug, Default)]
pub struct PackBufs {
    ap: Vec<f64>,
    bp: Vec<f64>,
}

impl PackBufs {
    /// Returns `(a_panel, b_panel)` buffers of at least the requested sizes.
    /// Contents are unspecified; callers must fully overwrite what they read.
    pub(crate) fn get(&mut self, ap_len: usize, bp_len: usize) -> (&mut [f64], &mut [f64]) {
        if self.ap.len() < ap_len {
            self.ap.resize(ap_len, 0.0);
        }
        if self.bp.len() < bp_len {
            self.bp.resize(bp_len, 0.0);
        }
        (&mut self.ap[..ap_len], &mut self.bp[..bp_len])
    }
}

/// Per-worker kernel scratch: packing buffers plus the scatter / panel-copy
/// buffers used by the blocked factorization kernels and the fused BMOD path.
///
/// Allocate one per worker thread (or rely on the crate's thread-local
/// default through the plain kernel entry points) and pass it to the `_with`
/// kernel variants; in steady state the numeric kernels then perform no heap
/// allocation at all.
#[derive(Debug, Default)]
pub struct KernelArena {
    packs: PackBufs,
    scratch: Vec<f64>,
    wbuf: Vec<f64>,
}

impl KernelArena {
    /// Creates an empty arena; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The packing buffers, for calling the strided kernels directly.
    pub fn packs(&mut self) -> &mut PackBufs {
        &mut self.packs
    }

    /// Grows every buffer up front for operands of at most `max_dim` rows
    /// and columns, so a worker thread allocates before entering its hot
    /// loop instead of growth-reallocating mid-factorization. `max_dim`
    /// should be the largest block dimension (rows or columns) the worker
    /// will feed to any kernel; larger requests later still grow lazily.
    pub fn preallocate(&mut self, max_dim: usize) {
        let [ap, bp, scratch, wbuf] = buffer_lens(max_dim, max_dim);
        if self.packs.ap.len() < ap {
            self.packs.ap.resize(ap, 0.0);
        }
        if self.packs.bp.len() < bp {
            self.packs.bp.resize(bp, 0.0);
        }
        if self.scratch.len() < scratch {
            self.scratch.resize(scratch, 0.0);
        }
        if self.wbuf.len() < wbuf {
            self.wbuf.resize(wbuf, 0.0);
        }
    }

    /// Estimated bytes an arena holds after factoring blocks of at most
    /// `max_dim` rows and columns whose panels have at most `panel_rows`
    /// off-diagonal rows (the blocked triangular solve of a panel copies
    /// and packs all of them). An admission-control estimate: the buffers'
    /// lazy growth may round capacities up.
    pub fn bytes_for(max_dim: usize, panel_rows: usize) -> usize {
        buffer_lens(max_dim, max_dim.max(panel_rows)).iter().sum::<usize>() * 8
    }

    /// Returns a scatter scratch buffer of `len` elements (contents
    /// **unspecified**) together with the packing buffers, so a packed kernel
    /// in `Set` mode can write into the scratch without a zeroing pass while
    /// still having pack space available.
    pub fn scratch_with_packs(&mut self, len: usize) -> (&mut [f64], &mut PackBufs) {
        if self.scratch.len() < len {
            self.scratch.resize(len, 0.0);
        }
        (&mut self.scratch[..len], &mut self.packs)
    }

    /// Panel-copy buffer used by the blocked `potrf`/`trsm` algorithms,
    /// handed out together with the packing buffers so the trailing update
    /// can read the copy while packing. Contents are unspecified.
    pub(crate) fn wbuf_with_packs(&mut self, len: usize) -> (&mut [f64], &mut PackBufs) {
        if self.wbuf.len() < len {
            self.wbuf.resize(len, 0.0);
        }
        (&mut self.wbuf[..len], &mut self.packs)
    }
}

/// Element counts `[ap, bp, scratch, wbuf]` covering kernels on blocks of at
/// most `max_dim` rows and columns and panels of at most `tall` rows.
fn buffer_lens(max_dim: usize, tall: usize) -> [usize; 4] {
    // Packing panels are bounded by one cache-blocking tile each (plus
    // microkernel padding), never by the full operand.
    let kc = max_dim.min(crate::pack::KC);
    let ap = (tall.min(crate::pack::MC) + crate::pack::MR) * kc;
    let bp = (max_dim.min(crate::pack::NC) + crate::pack::NR) * kc;
    // Scatter scratch holds a full BMOD product; the panel-copy buffer
    // holds one factorization panel.
    [ap, bp, max_dim * max_dim, tall * crate::kernels::NB]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_grow_and_are_reused() {
        let mut arena = KernelArena::new();
        {
            let (s, _) = arena.scratch_with_packs(10);
            assert_eq!(s.len(), 10);
            s.fill(3.0);
        }
        // A smaller request reuses the same allocation (no shrink).
        let (s, _) = arena.scratch_with_packs(4);
        assert_eq!(s.len(), 4);
        assert_eq!(s[0], 3.0);
    }

    #[test]
    fn preallocate_prevents_growth_for_bounded_requests() {
        let mut arena = KernelArena::new();
        arena.preallocate(64);
        let scratch_cap = arena.scratch.capacity();
        let ap_cap = arena.packs.ap.capacity();
        let bp_cap = arena.packs.bp.capacity();
        // Requests within the preallocated bound must not reallocate.
        let _ = arena.scratch_with_packs(64 * 64);
        let _ = arena.packs().get(ap_cap, bp_cap);
        let _ = arena.wbuf_with_packs(64 * crate::kernels::NB);
        assert_eq!(arena.scratch.capacity(), scratch_cap);
        assert_eq!(arena.packs.ap.capacity(), ap_cap);
        assert_eq!(arena.packs.bp.capacity(), bp_cap);
    }

    #[test]
    fn pack_bufs_hand_out_requested_sizes() {
        let mut packs = PackBufs::default();
        let (a, b) = packs.get(7, 9);
        assert_eq!((a.len(), b.len()), (7, 9));
        let (a, b) = packs.get(3, 20);
        assert_eq!((a.len(), b.len()), (3, 20));
    }
}
