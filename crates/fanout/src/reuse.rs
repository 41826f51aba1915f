//! Precomputed scatter/gather templates for repeated factorization.
//!
//! A solver that refactors the same structure with new values should not pay
//! for symbolic work twice — and not for *positional* work either: locating
//! the block and flat offset of every input entry depends only on the block
//! structure. [`AssemblyTemplate`] computes those positions once; afterwards
//! [`AssemblyTemplate::assemble_into`] is a zero-fill plus one write per
//! input entry, allocation-free, and writes exactly the values that
//! [`NumericFactor::from_matrix_parallel`] writes (same positions, same
//! source floats).
//!
//! [`CscTemplate`] is the factor-storage → CSC gather map behind the
//! reference CSC solve ([`crate::solve_csc`]). Solves run on the panel
//! storage ([`crate::solve_lanes`]); the gather map exists so tests and
//! replay harnesses can rebuild the CSC oracle cheaply, and
//! [`CscTemplate::gather_into`] reads values in exactly the order of
//! [`NumericFactor::to_csc`].

use crate::factor::NumericFactor;
use blockmat::BlockMatrix;
use sparsemat::SparsityPattern;
use std::sync::Arc;

/// Precomputed input-entry → factor-storage scatter map.
///
/// Built against the *permuted* matrix's sparsity pattern; applying it to a
/// matrix with the same pattern but new values reproduces
/// [`NumericFactor::from_matrix_parallel`] without any structure walks.
#[derive(Debug, Clone)]
pub struct AssemblyTemplate {
    /// Per panel: total buffer length (diagonal block + off-diagonal rows).
    lens: Vec<usize>,
    /// Per panel: offset of each block in the panel buffer.
    offsets: Vec<Vec<usize>>,
    /// Per input CSC entry, in the matrix's column-major entry order:
    /// `(panel, flat position in data[panel])`.
    targets: Vec<(u32, usize)>,
}

impl AssemblyTemplate {
    /// Precomputes the scatter map for the (permuted) input pattern into
    /// `bm`'s block storage. Panics (like assembly itself) if an entry
    /// falls outside the block structure.
    pub fn build(bm: &BlockMatrix, a: &SparsityPattern) -> Self {
        assert_eq!(bm.sn.n(), a.n());
        let np = bm.num_panels();
        let mut lens = Vec::with_capacity(np);
        let mut offsets = Vec::with_capacity(np);
        for j in 0..np {
            let c = bm.col_width(j);
            let mut offs = Vec::with_capacity(bm.cols[j].blocks.len());
            let mut len = 0usize;
            for (b, blk) in bm.cols[j].blocks.iter().enumerate() {
                offs.push(len);
                len += if b == 0 { c * c } else { blk.nrows() * c };
            }
            lens.push(len);
            offsets.push(offs);
        }
        let mut targets = Vec::with_capacity(a.nnz());
        for j in 0..a.n() {
            let pj = bm.partition.panel_of_col[j] as usize;
            let c = bm.col_width(pj);
            let col_off = j - bm.partition.cols(pj).start;
            for &i in a.col(j) {
                let i = i as usize;
                let pi = bm.partition.panel_of_col[i] as usize;
                let b = bm
                    .find_block(pi, pj)
                    .unwrap_or_else(|| panic!("entry ({i},{j}) outside block structure"));
                let blk = bm.cols[pj].blocks[b];
                let r = if b == 0 {
                    i - bm.partition.cols(pj).start
                } else {
                    bm.block_rows(pj, &blk)
                        .binary_search(&(i as u32))
                        .unwrap_or_else(|_| panic!("row {i} not dense in block ({pi},{pj})"))
                };
                targets.push((pj as u32, offsets[pj][b] + r * c + col_off));
            }
        }
        Self { lens, offsets, targets }
    }

    /// Number of input entries the template scatters.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.targets.len()
    }

    /// The per-entry scatter targets, aligned with the source matrix's
    /// column-major entry order. Exposed so callers can compose this map
    /// with their own entry reordering (e.g. a fill permutation) into a
    /// single direct scatter.
    #[inline]
    pub fn targets(&self) -> &[(u32, usize)] {
        &self.targets
    }

    /// Allocates zeroed block storage shaped for this template.
    pub fn alloc(&self, bm: Arc<BlockMatrix>) -> NumericFactor {
        NumericFactor {
            bm,
            data: self.lens.iter().map(|&l| vec![0.0; l]).collect(),
            offsets: self.offsets.clone(),
        }
    }

    /// Scatters `values` (the permuted matrix's entries, column-major — the
    /// same order [`AssemblyTemplate::build`] walked) into `f`, zeroing the
    /// fill positions first. The result is bit-identical to assembling a
    /// fresh factor from a matrix with those values.
    pub fn assemble_into(&self, values: &[f64], f: &mut NumericFactor) {
        assert_eq!(values.len(), self.targets.len(), "value count != pattern nnz");
        debug_assert_eq!(f.data.len(), self.lens.len());
        for buf in &mut f.data {
            buf.iter_mut().for_each(|x| *x = 0.0);
        }
        for (&(p, at), &v) in self.targets.iter().zip(values) {
            f.data[p as usize][at] = v;
        }
    }
}

/// Precomputed factor-storage → CSC gather map: the reference side of the
/// panel solve, never on a solve path.
///
/// The structure side of [`NumericFactor::to_csc`] (column pointers, row
/// indices, and the flat storage position of every entry) is fixed per block
/// structure; only the values change between refactorizations. Gathering
/// through the template fills a reused value buffer with exactly the floats
/// `to_csc` would produce, in the same order, for the CSC oracle
/// ([`crate::solve_csc`]). It costs 20 bytes per factor entry, so plans
/// build it only on demand.
#[derive(Debug, Clone)]
pub struct CscTemplate {
    /// Factor column pointers (length `n + 1`).
    pub col_ptr: Vec<usize>,
    /// Factor row indices, diagonal first, ascending within each column.
    pub row_idx: Vec<u32>,
    /// Per CSC entry: `(panel, flat position in data[panel])`.
    gather: Vec<(u32, usize)>,
}

impl CscTemplate {
    /// Precomputes the gather map for `bm`'s block storage (the `offsets`
    /// layout is recomputed here with the same formula the factor uses).
    pub fn build(bm: &BlockMatrix) -> Self {
        let n = bm.sn.n();
        let np = bm.num_panels();
        let mut offsets = Vec::with_capacity(np);
        for j in 0..np {
            let c = bm.col_width(j);
            let mut offs = Vec::with_capacity(bm.cols[j].blocks.len());
            let mut len = 0usize;
            for (b, blk) in bm.cols[j].blocks.iter().enumerate() {
                offs.push(len);
                len += if b == 0 { c * c } else { blk.nrows() * c };
            }
            offsets.push(offs);
        }
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx = Vec::new();
        let mut gather = Vec::new();
        for j in 0..n {
            let pj = bm.partition.panel_of_col[j] as usize;
            let c = bm.col_width(pj);
            let col_off = j - bm.partition.cols(pj).start;
            for (b, blk) in bm.cols[pj].blocks.iter().enumerate() {
                if b == 0 {
                    for r in col_off..c {
                        row_idx.push((bm.partition.cols(pj).start + r) as u32);
                        gather.push((pj as u32, offsets[pj][0] + r * c + col_off));
                    }
                } else {
                    for (r, &gi) in bm.block_rows(pj, blk).iter().enumerate() {
                        row_idx.push(gi);
                        gather.push((pj as u32, offsets[pj][b] + r * c + col_off));
                    }
                }
            }
            col_ptr[j + 1] = row_idx.len();
        }
        Self { col_ptr, row_idx, gather }
    }

    /// Number of stored factor entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Gathers the factor's values into `out` (resized to [`Self::nnz`]),
    /// bit-identical to the value array of [`NumericFactor::to_csc`].
    pub fn gather_into(&self, f: &NumericFactor, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.gather.iter().map(|&(p, at)| f.data[p as usize][at]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbolic::AmalgamationOpts;

    fn build(k: usize, bs: usize) -> (Arc<BlockMatrix>, sparsemat::SymCscMatrix) {
        let p = sparsemat::gen::grid2d(k);
        let perm = ordering::order_problem(&p);
        let analysis = symbolic::analyze(p.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let pa = analysis.perm.apply_to_matrix(&p.matrix);
        let bm = Arc::new(BlockMatrix::build(analysis.supernodes, bs));
        (bm, pa)
    }

    #[test]
    fn template_assembly_is_bit_identical_to_fresh_assembly() {
        for (k, bs) in [(6, 3), (10, 4)] {
            let (bm, a) = build(k, bs);
            let reference = NumericFactor::from_matrix_parallel(bm.clone(), &a, 1);
            let tpl = AssemblyTemplate::build(&bm, a.pattern());
            let mut f = tpl.alloc(bm.clone());
            // Dirty the buffers to prove the zero-fill works.
            for buf in &mut f.data {
                buf.iter_mut().for_each(|x| *x = f64::NAN);
            }
            tpl.assemble_into(a.values(), &mut f);
            assert_eq!(f.offsets, reference.offsets);
            for (got, want) in f.data.iter().zip(&reference.data) {
                for (g, w) in got.iter().zip(want) {
                    assert_eq!(g.to_bits(), w.to_bits());
                }
            }
        }
    }

    #[test]
    fn template_gather_matches_to_csc() {
        let (bm, a) = build(7, 3);
        let mut f = NumericFactor::from_matrix(bm.clone(), &a);
        crate::seq::factorize_seq(&mut f).unwrap();
        let (cp, ri, v) = f.to_csc();
        let tpl = CscTemplate::build(&bm);
        assert_eq!(tpl.col_ptr, cp);
        assert_eq!(tpl.row_idx, ri);
        let mut out = Vec::new();
        tpl.gather_into(&f, &mut out);
        assert_eq!(out.len(), v.len());
        for (g, w) in out.iter().zip(&v) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }
}
