//! Numeric block storage for the factor.
//!
//! Each block column stores its blocks contiguously: the dense `c × c`
//! diagonal block first (row-major; only the lower triangle is meaningful),
//! then each off-diagonal block as `r × c` row-major dense rows.

use blockmat::BlockMatrix;
use sparsemat::SymCscMatrix;
use std::sync::Arc;

/// The numeric factor (or, before factorization, the scattered input
/// matrix) in block form.
#[derive(Debug, Clone)]
pub struct NumericFactor {
    /// The symbolic block structure.
    pub bm: Arc<BlockMatrix>,
    /// Per block column: concatenated block buffers.
    pub data: Vec<Vec<f64>>,
    /// Per block column: offset of each block in `data[j]`.
    pub offsets: Vec<Vec<usize>>,
}

impl NumericFactor {
    /// Allocates zeroed storage and scatters the (already permuted) matrix
    /// `a` into it. Entries of `a` must fall inside the block structure.
    pub fn from_matrix(bm: Arc<BlockMatrix>, a: &SymCscMatrix) -> Self {
        assert_eq!(bm.sn.n(), a.n());
        let np = bm.num_panels();
        let mut data = Vec::with_capacity(np);
        let mut offsets = Vec::with_capacity(np);
        for j in 0..np {
            let c = bm.col_width(j);
            let mut offs = Vec::with_capacity(bm.cols[j].blocks.len());
            let mut len = 0usize;
            for (b, blk) in bm.cols[j].blocks.iter().enumerate() {
                offs.push(len);
                len += if b == 0 { c * c } else { blk.nrows() * c };
            }
            data.push(vec![0.0; len]);
            offsets.push(offs);
        }
        let mut f = Self { bm, data, offsets };
        f.scatter(a);
        f
    }

    /// Like [`Self::from_matrix`], but assembles block columns with up to
    /// `workers` threads and a merge-walk scatter.
    ///
    /// Ownership is per block column: every entry of source column `j` lands
    /// in the block column containing `j`, so panels are disjoint units of
    /// work and workers self-schedule panel chunks off an atomic cursor with
    /// no synchronization on the data buffers. Within a panel the scatter
    /// precomputes the flat position of every structure row once and then
    /// advances a cursor through the sorted row list per source column,
    /// replacing the per-entry block + row binary searches of the reference
    /// path — faster even at `workers == 1`.
    pub fn from_matrix_parallel(
        bm: Arc<BlockMatrix>,
        a: &SymCscMatrix,
        workers: usize,
    ) -> Self {
        assert_eq!(bm.sn.n(), a.n());
        const GRAIN: usize = 16;
        let np = bm.num_panels();
        if workers <= 1 || np < 2 * GRAIN {
            let mut data = Vec::with_capacity(np);
            let mut offsets = Vec::with_capacity(np);
            for j in 0..np {
                let (offs, buf) = assemble_panel(&bm, a, j);
                offsets.push(offs);
                data.push(buf);
            }
            return Self { bm, data, offsets };
        }
        use std::sync::atomic::{AtomicUsize, Ordering};
        type PanelChunk = Vec<(usize, Vec<usize>, Vec<f64>)>;
        let next = AtomicUsize::new(0);
        let nw = workers.min(np.div_ceil(GRAIN));
        let chunks: Vec<PanelChunk> = std::thread::scope(|scope| {
            let bm_ref: &BlockMatrix = &bm;
            let next = &next;
            let handles: Vec<_> = (0..nw)
                .map(|_| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let lo = next.fetch_add(1, Ordering::Relaxed) * GRAIN;
                            if lo >= np {
                                break;
                            }
                            for j in lo..(lo + GRAIN).min(np) {
                                let (offs, buf) = assemble_panel(bm_ref, a, j);
                                out.push((j, offs, buf));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("assembly worker")).collect()
        });
        let mut slots: Vec<Option<(Vec<usize>, Vec<f64>)>> = (0..np).map(|_| None).collect();
        for (j, offs, buf) in chunks.into_iter().flatten() {
            slots[j] = Some((offs, buf));
        }
        let mut data = Vec::with_capacity(np);
        let mut offsets = Vec::with_capacity(np);
        for s in slots {
            let (offs, buf) = s.expect("every panel assembled");
            offsets.push(offs);
            data.push(buf);
        }
        Self { bm, data, offsets }
    }

    fn scatter(&mut self, a: &SymCscMatrix) {
        let bm = self.bm.clone();
        for j in 0..a.n() {
            let pj = bm.partition.panel_of_col[j] as usize;
            let c = bm.col_width(pj);
            let col_off = j - bm.partition.cols(pj).start;
            for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
                let i = i as usize;
                let pi = bm.partition.panel_of_col[i] as usize;
                let b = bm
                    .find_block(pi, pj)
                    .unwrap_or_else(|| panic!("entry ({i},{j}) outside block structure"));
                let blk = bm.cols[pj].blocks[b];
                let buf_off = self.offsets[pj][b];
                let pos = if b == 0 {
                    // Diagonal block: dense c×c, row (i - panel start).
                    let r = i - bm.partition.cols(pj).start;
                    r * c + col_off
                } else {
                    let rows = bm.block_rows(pj, &blk);
                    let r = rows
                        .binary_search(&(i as u32))
                        .unwrap_or_else(|_| panic!("row {i} not dense in block ({pi},{pj})"));
                    r * c + col_off
                };
                self.data[pj][buf_off + pos] = v;
            }
        }
    }

    /// Borrow of block `b` of block column `j`.
    #[inline]
    pub fn block(&self, j: usize, b: usize) -> &[f64] {
        let lo = self.offsets[j][b];
        let hi = self
            .offsets[j]
            .get(b + 1)
            .copied()
            .unwrap_or(self.data[j].len());
        &self.data[j][lo..hi]
    }

    /// Mutable borrow of block `b` of block column `j`.
    #[inline]
    pub fn block_mut(&mut self, j: usize, b: usize) -> &mut [f64] {
        let lo = self.offsets[j][b];
        let hi = self
            .offsets[j]
            .get(b + 1)
            .copied()
            .unwrap_or(self.data[j].len());
        &mut self.data[j][lo..hi]
    }

    /// The factor entry `L[i][j]` (global indices, `i ≥ j`), or 0 when the
    /// position is outside the stored structure.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let bm = &self.bm;
        let pj = bm.partition.panel_of_col[j] as usize;
        let pi = bm.partition.panel_of_col[i] as usize;
        let Some(b) = bm.find_block(pi, pj) else { return 0.0 };
        let c = bm.col_width(pj);
        let col_off = j - bm.partition.cols(pj).start;
        if b == 0 {
            let r = i - bm.partition.cols(pj).start;
            if r < col_off {
                return 0.0; // upper triangle of the diagonal block
            }
            return self.block(pj, 0)[r * c + col_off];
        }
        let blk = bm.cols[pj].blocks[b];
        match bm.block_rows(pj, &blk).binary_search(&(i as u32)) {
            Ok(r) => self.block(pj, b)[r * c + col_off],
            Err(_) => 0.0,
        }
    }

    /// Extracts the factor as column-compressed arrays
    /// `(col_ptr, row_idx, values)` over the stored structure (explicit
    /// zeros from amalgamation included), rows ascending within columns and
    /// diagonal first. The input of the reference CSC solve
    /// ([`crate::solve_csc`]) and of factor bit comparisons in tests; no
    /// solve path calls it.
    pub fn to_csc(&self) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        let bm = &self.bm;
        let n = bm.sn.n();
        let mut col_ptr = vec![0; n + 1];
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        for j in 0..n {
            let pj = bm.partition.panel_of_col[j] as usize;
            let c = bm.col_width(pj);
            let col_off = j - bm.partition.cols(pj).start;
            for (b, blk) in bm.cols[pj].blocks.iter().enumerate() {
                if b == 0 {
                    for r in col_off..c {
                        row_idx.push((bm.partition.cols(pj).start + r) as u32);
                        values.push(self.block(pj, 0)[r * c + col_off]);
                    }
                } else {
                    let rows = bm.block_rows(pj, blk);
                    let buf = self.block(pj, b);
                    for (r, &gi) in rows.iter().enumerate() {
                        row_idx.push(gi);
                        values.push(buf[r * c + col_off]);
                    }
                }
            }
            col_ptr[j + 1] = row_idx.len();
        }
        (col_ptr, row_idx, values)
    }

    /// Per-phase flop counts `(bfac, bdiv, bmod)` of factoring this block
    /// structure — the denominator side of a predicted-vs-achieved report
    /// (phase busy seconds from a trace ÷ these counts = attained rate).
    /// Pure structure, independent of the numeric values.
    pub fn flop_counts(&self) -> (u64, u64, u64) {
        use dense::kernels::flops;
        let bm = &self.bm;
        let (mut bfac, mut bdiv, mut bmod) = (0u64, 0u64, 0u64);
        for j in 0..bm.num_panels() {
            let c = bm.col_width(j);
            bfac += flops::bfac(c);
            for blk in &bm.cols[j].blocks[1..] {
                bdiv += flops::bdiv(blk.nrows(), c);
            }
        }
        blockmat::for_each_bmod(bm, |op| bmod += op.flops());
        (bfac, bdiv, bmod)
    }

    /// Reconstructs `L·Lᵀ` densely — test helper for small problems.
    pub fn llt_dense(&self) -> dense::DenseMat {
        let n = self.bm.sn.n();
        let mut l = dense::DenseMat::zeros(n, n);
        let (cp, ri, vals) = self.to_csc();
        for j in 0..n {
            for e in cp[j]..cp[j + 1] {
                l[(ri[e] as usize, j)] = vals[e];
            }
        }
        let lt = l.transpose();
        l.matmul(&lt)
    }
}

/// Allocates and assembles one block column of `a`: the per-block offsets
/// and the zero-filled, scattered buffer.
///
/// Each source column does one binary search to align a row cursor (and
/// one to align a block cursor), then walks both forward per entry —
/// `O(nnz + blocks)` instead of the reference scatter's per-entry block
/// and row binary searches. The blocks cover the panel's structure-row
/// range contiguously, and the diagonal block needs no special case: its
/// rows are exactly the panel's own columns, so `(k − lo) · c` is the
/// dense row offset there too.
fn assemble_panel(bm: &BlockMatrix, a: &SymCscMatrix, pj: usize) -> (Vec<usize>, Vec<f64>) {
    let c = bm.col_width(pj);
    let col = &bm.cols[pj];
    let blocks = &col.blocks;
    let mut offs = Vec::with_capacity(blocks.len());
    let mut len = 0usize;
    for (b, blk) in blocks.iter().enumerate() {
        offs.push(len);
        len += if b == 0 { c * c } else { blk.nrows() * c };
    }
    let mut buf = vec![0.0; len];
    if blocks.is_empty() {
        return (offs, buf);
    }
    let rows = &bm.sn.rows[col.sn as usize];
    let start = col.blocks[0].lo as usize;
    let covered = col.blocks.last().unwrap().hi as usize - start;
    let row_of = &rows[start..start + covered];
    for (col_off, j) in bm.partition.cols(pj).enumerate() {
        let ai = a.col_rows(j);
        if ai.is_empty() {
            continue;
        }
        let mut k = row_of.partition_point(|&r| r < ai[0]);
        let mut bi = blocks.partition_point(|b| (b.hi as usize) <= k + start);
        for (&i, &v) in ai.iter().zip(a.col_values(j)) {
            // Walk a few fill rows linearly; past that the gap is large
            // (grid-like panels interleave long fill runs between source
            // entries), so finish with one binary search over the rest.
            let mut steps = 0;
            while k < covered && row_of[k] < i {
                k += 1;
                steps += 1;
                if steps == 8 {
                    k += row_of[k..covered].partition_point(|&r| r < i);
                    break;
                }
            }
            assert!(
                k < covered && row_of[k] == i,
                "entry ({i},{j}) outside block structure"
            );
            // k < covered, so a block with hi > k + start exists.
            while (blocks[bi].hi as usize) <= k + start {
                bi += 1;
            }
            buf[offs[bi] + (k + start - blocks[bi].lo as usize) * c + col_off] = v;
        }
    }
    (offs, buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbolic::AmalgamationOpts;

    fn build(k: usize, bs: usize) -> (Arc<BlockMatrix>, SymCscMatrix) {
        let p = sparsemat::gen::grid2d(k);
        let perm = ordering::order_problem(&p);
        let analysis = symbolic::analyze(p.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let pa = analysis.perm.apply_to_matrix(&p.matrix);
        let bm = Arc::new(BlockMatrix::build(analysis.supernodes, bs));
        (bm, pa)
    }

    #[test]
    fn scatter_roundtrips_matrix_entries() {
        let (bm, a) = build(6, 3);
        let f = NumericFactor::from_matrix(bm, &a);
        for j in 0..a.n() {
            for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
                assert_eq!(f.get(i as usize, j), v, "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn parallel_assembly_matches_reference_scatter() {
        // The merge-walk path must produce bit-identical buffers to the
        // per-entry reference scatter, at any worker count (including the
        // threaded path — grid2d(16) has enough panels at bs=2 to cross the
        // parallel threshold).
        for (k, bs) in [(6, 3), (16, 2)] {
            let (bm, a) = build(k, bs);
            let reference = NumericFactor::from_matrix(bm.clone(), &a);
            for workers in [1, 2, 4] {
                let par = NumericFactor::from_matrix_parallel(bm.clone(), &a, workers);
                assert_eq!(par.offsets, reference.offsets, "workers={workers}");
                assert_eq!(par.data, reference.data, "workers={workers}");
            }
        }
    }

    #[test]
    fn unset_structure_positions_are_zero() {
        let (bm, a) = build(6, 3);
        let f = NumericFactor::from_matrix(bm.clone(), &a);
        // Find a structural position not present in A: count nonzero slots.
        let stored: usize = f.data.iter().map(|d| d.len()).sum();
        assert!(stored > a.pattern().nnz(), "fill must create zero slots");
    }

    #[test]
    fn flop_counts_match_a_direct_enumeration() {
        use dense::kernels::flops;
        let (bm, a) = build(6, 3);
        let f = NumericFactor::from_matrix(bm.clone(), &a);
        let (bfac, bdiv, bmod) = f.flop_counts();
        let mut want_bfac = 0u64;
        let mut want_bdiv = 0u64;
        for j in 0..bm.num_panels() {
            let c = bm.col_width(j);
            want_bfac += flops::bfac(c);
            for blk in &bm.cols[j].blocks[1..] {
                want_bdiv += flops::bdiv(blk.nrows(), c);
            }
        }
        assert_eq!(bfac, want_bfac);
        assert_eq!(bdiv, want_bdiv);
        let mut want_bmod = 0u64;
        blockmat::for_each_bmod(&bm, |op| {
            want_bmod += if op.i == op.j {
                flops::bmod_diag(op.r_a as usize, op.c_k as usize)
            } else {
                flops::bmod(op.r_a as usize, op.r_b as usize, op.c_k as usize)
            };
        });
        assert_eq!(bmod, want_bmod);
        assert!(bfac > 0 && bdiv > 0 && bmod > 0);
    }

    #[test]
    fn to_csc_is_sorted_with_diagonal_first() {
        let (bm, a) = build(5, 2);
        let f = NumericFactor::from_matrix(bm, &a);
        let (cp, ri, _) = f.to_csc();
        for j in 0..a.n() {
            let rows = &ri[cp[j]..cp[j + 1]];
            assert_eq!(rows[0] as usize, j, "diagonal first in col {j}");
            for w in rows.windows(2) {
                assert!(w[0] < w[1], "unsorted rows in col {j}");
            }
        }
    }
}
