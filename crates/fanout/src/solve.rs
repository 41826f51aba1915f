//! Triangular solves with the computed factor, and residual checks.
//!
//! Every solve runs on the factor's panel storage ([`solve_lanes`]). The
//! CSC kernels ([`solve_csc`], [`solve_csc_multi`]) over
//! [`NumericFactor::to_csc`] are kept only as the reference the panel solve
//! is tested against, bit for bit.

use crate::factor::NumericFactor;
use sparsemat::SymCscMatrix;

/// Solves `L·Lᵀ·x = b` with the factor in `f` (indices in the *permuted*
/// ordering — callers apply/undo the fill permutation around this).
pub fn solve(f: &NumericFactor, b: &[f64]) -> Vec<f64> {
    assert_eq!(b.len(), f.bm.sn.n());
    let mut x = b.to_vec();
    solve_lanes(f, &mut x, 1, &mut Vec::new());
    x
}

/// Solves `L·Lᵀ·X = B` in place on the factor's panel storage, for `k`
/// interleaved right-hand sides (`x[i*k + r]` is row `i` of lane `r`).
///
/// Supernodal forward and backward substitution, one panel at a time, with
/// the lane loop innermost so the factor is streamed once for a group of up
/// to eight lanes. Each lane performs exactly the operation sequence of
/// [`solve_csc`] over [`NumericFactor::to_csc`] — same operands, same
/// order, no fused multiply-add — so every lane is bit-identical to the CSC
/// reference:
///
/// * forward, panels ascending: the diagonal block column by column
///   (`x[j] /= d`, then the rows below it in the block), then each
///   off-diagonal row accumulates its columns in ascending order;
/// * backward, panels descending: the panel's off-diagonal `x` rows are
///   gathered once into `scratch`, then per column (descending) the
///   diagonal-block rows and the off-diagonal rows are subtracted in
///   ascending storage order before the division.
///
/// Every group width, `k = 1` included, is its own monomorphized loop with
/// the lane accumulators in registers. `scratch` grows to the largest
/// panel's rows × the group width on first use and is reused thereafter:
/// repeated solves allocate nothing.
pub fn solve_lanes(f: &NumericFactor, x: &mut [f64], k: usize, scratch: &mut Vec<f64>) {
    assert_eq!(x.len(), f.bm.sn.n() * k, "x must hold k lanes of n rows");
    let mut r0 = 0;
    while r0 < k {
        r0 += match k - r0 {
            1 => group::<1>(f, x, k, r0, scratch),
            2 => group::<2>(f, x, k, r0, scratch),
            3 => group::<3>(f, x, k, r0, scratch),
            4 => group::<4>(f, x, k, r0, scratch),
            5 => group::<5>(f, x, k, r0, scratch),
            6 => group::<6>(f, x, k, r0, scratch),
            7 => group::<7>(f, x, k, r0, scratch),
            _ => group::<8>(f, x, k, r0, scratch),
        };
    }
}

/// Off-diagonal rows the forward substitution advances together: each
/// row's accumulation is a dependency chain, so interleaving rows keeps the
/// floating-point units busy without reordering any row's own sequence.
const ROWS: usize = 4;

/// Panel `j`'s first column, width, diagonal block (`c × c`, row-major),
/// off-diagonal rows (`m × c`, row-major, all blocks in storage order) and
/// their `m` global row indices. The blocks of a panel cover its supernode
/// row range contiguously, so the row indices are one slice.
fn panel(f: &NumericFactor, j: usize) -> (usize, usize, &[f64], &[f64], &[u32]) {
    let bm = &*f.bm;
    let c = bm.col_width(j);
    let col = &bm.cols[j];
    let (first, last) = (col.blocks[0], col.blocks[col.blocks.len() - 1]);
    let below = &bm.sn.rows[col.sn as usize][first.hi as usize..last.hi as usize];
    let (diag, off) = f.data[j].split_at(c * c);
    assert_eq!(off.len(), below.len() * c, "panel {j} rows are not contiguous");
    (bm.partition.cols(j).start, c, diag, off, below)
}

/// Forward and backward substitution for lanes `r0..r0 + W` of the `k`
/// interleaved lanes in `x`. Returns `W`.
fn group<const W: usize>(
    f: &NumericFactor,
    x: &mut [f64],
    k: usize,
    r0: usize,
    scratch: &mut Vec<f64>,
) -> usize {
    let lane = |i: usize| i * k + r0..i * k + r0 + W;
    for j in 0..f.bm.num_panels() {
        let (j0, c, diag, off, rows) = panel(f, j);
        // The panel's own lanes, contiguous: xd[cc*W + w].
        scratch.clear();
        for r in j0..j0 + c {
            scratch.extend_from_slice(&x[lane(r)]);
        }
        let xd = &mut scratch[..];
        for cc in 0..c {
            let d = diag[cc * c + cc];
            let (done, below) = xd.split_at_mut((cc + 1) * W);
            let xj = &mut done[cc * W..];
            xj.iter_mut().for_each(|v| *v /= d);
            for (l, xr) in diag.chunks_exact(c).skip(cc + 1).zip(below.chunks_exact_mut(W)) {
                let lv = l[cc];
                for (v, &w) in xr.iter_mut().zip(xj.iter()) {
                    *v -= lv * w;
                }
            }
        }
        for (r, xr) in (j0..j0 + c).zip(xd.chunks_exact(W)) {
            x[lane(r)].copy_from_slice(xr);
        }
        let (quads, tail) = rows.split_at(rows.len() - rows.len() % ROWS);
        let (lq, lt) = off.split_at(quads.len() * c);
        for (i, l) in quads.chunks_exact(ROWS).zip(lq.chunks_exact(ROWS * c)) {
            forward_rows::<W, ROWS>(x, lane, i, l, xd);
        }
        for (i, l) in tail.chunks(1).zip(lt.chunks_exact(c)) {
            forward_rows::<W, 1>(x, lane, i, l, xd);
        }
    }
    for j in (0..f.bm.num_panels()).rev() {
        let (j0, c, diag, off, rows) = panel(f, j);
        // The panel's own lanes, then its off-diagonal rows' (already
        // final) lanes: xd[cc*W + w], g[t*W + w].
        scratch.clear();
        for r in j0..j0 + c {
            scratch.extend_from_slice(&x[lane(r)]);
        }
        for &i in rows {
            scratch.extend_from_slice(&x[lane(i as usize)]);
        }
        let (xd, g) = scratch.split_at_mut(c * W);
        for cc in (0..c).rev() {
            let (head, done) = xd.split_at_mut((cc + 1) * W);
            let mut s = [0.0; W];
            s.copy_from_slice(&head[cc * W..]);
            for (l, xr) in diag.chunks_exact(c).skip(cc + 1).zip(done.chunks_exact(W)) {
                let lv = l[cc];
                for (v, &w) in s.iter_mut().zip(xr) {
                    *v -= lv * w;
                }
            }
            for (l, gr) in off.chunks_exact(c).zip(g.chunks_exact(W)) {
                let lv = l[cc];
                for (v, &w) in s.iter_mut().zip(gr) {
                    *v -= lv * w;
                }
            }
            let d = diag[cc * c + cc];
            s.iter_mut().for_each(|v| *v /= d);
            head[cc * W..].copy_from_slice(&s);
        }
        for (r, xr) in (j0..j0 + c).zip(xd.chunks_exact(W)) {
            x[lane(r)].copy_from_slice(xr);
        }
    }
    W
}

/// Forward update of `R` off-diagonal rows (global indices `rows`, factor
/// rows `l`, `R × c` row-major) by the panel's solved lanes `xd[cc*W + w]`:
/// each row subtracts its columns in ascending order, exactly as
/// [`solve_csc`] applies them.
fn forward_rows<const W: usize, const R: usize>(
    x: &mut [f64],
    lane: impl Fn(usize) -> std::ops::Range<usize>,
    rows: &[u32],
    l: &[f64],
    xd: &[f64],
) {
    let c = l.len() / R;
    let mut acc = [[0.0; W]; R];
    for (a, &i) in acc.iter_mut().zip(rows) {
        a.copy_from_slice(&x[lane(i as usize)]);
    }
    for (cc, xj) in xd.chunks_exact(W).enumerate() {
        for (q, a) in acc.iter_mut().enumerate() {
            let lv = l[q * c + cc];
            for (v, &w) in a.iter_mut().zip(xj) {
                *v -= lv * w;
            }
        }
    }
    for (a, &i) in acc.iter().zip(rows) {
        x[lane(i as usize)].copy_from_slice(a);
    }
}

/// Solves `L·Lᵀ·x = b` in place given the factor's CSC arrays (diagonal
/// entry first per column). The reference for [`solve_lanes`]: tests and
/// replay harnesses compare the panel solve against this kernel over
/// [`NumericFactor::to_csc`] (or a [`crate::CscTemplate`] gather) bit for
/// bit. No solve path calls it.
pub fn solve_csc(cp: &[usize], ri: &[u32], v: &[f64], x: &mut [f64]) {
    let n = x.len();
    debug_assert_eq!(cp.len(), n + 1);
    // Forward: L·y = b (column-oriented; diagonal entry first per column).
    for j in 0..n {
        let d = v[cp[j]];
        x[j] /= d;
        let xj = x[j];
        for e in cp[j] + 1..cp[j + 1] {
            x[ri[e] as usize] -= v[e] * xj;
        }
    }
    // Backward: Lᵀ·x = y (dot products against columns of L).
    for j in (0..n).rev() {
        let mut s = x[j];
        for e in cp[j] + 1..cp[j + 1] {
            s -= v[e] * x[ri[e] as usize];
        }
        x[j] = s / v[cp[j]];
    }
}

/// Multi-right-hand-side [`solve_csc`]: `x` holds `k` interleaved lanes
/// (`x[i*k + r]` is row `i` of lane `r`). The lane loop is innermost, so
/// each lane performs exactly the operation sequence of [`solve_csc`].
/// Like [`solve_csc`], a reference for [`solve_lanes`] only.
pub fn solve_csc_multi(cp: &[usize], ri: &[u32], v: &[f64], x: &mut [f64], k: usize) {
    if k == 0 {
        return;
    }
    if k == 1 {
        return solve_csc(cp, ri, v, x);
    }
    let n = x.len() / k;
    debug_assert_eq!(x.len(), n * k);
    debug_assert_eq!(cp.len(), n + 1);
    for j in 0..n {
        let d = v[cp[j]];
        for r in 0..k {
            x[j * k + r] /= d;
        }
        for e in cp[j] + 1..cp[j + 1] {
            let i = ri[e] as usize;
            let ve = v[e];
            for r in 0..k {
                x[i * k + r] -= ve * x[j * k + r];
            }
        }
    }
    for j in (0..n).rev() {
        let d = v[cp[j]];
        for r in 0..k {
            let mut s = x[j * k + r];
            for e in cp[j] + 1..cp[j + 1] {
                s -= v[e] * x[ri[e] as usize * k + r];
            }
            x[j * k + r] = s / d;
        }
    }
}

/// Relative residual `‖A·x − L·(Lᵀ·x)‖∞ / ‖A·x‖∞` for a deterministic probe
/// vector — a cheap global correctness check usable at any problem size.
pub fn residual_norm(a: &SymCscMatrix, f: &NumericFactor) -> f64 {
    let n = a.n();
    assert_eq!(n, f.bm.sn.n());
    let x: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 - 6.0) / 7.0 + 1.0).collect();
    let mut ax = vec![0.0; n];
    a.mul_vec(&x, &mut ax);
    // L·(Lᵀ·x)
    let (cp, ri, v) = f.to_csc();
    let mut ltx = vec![0.0; n];
    for j in 0..n {
        let mut s = 0.0;
        for e in cp[j]..cp[j + 1] {
            s += v[e] * x[ri[e] as usize];
        }
        ltx[j] = s;
    }
    let mut llt = vec![0.0; n];
    for j in 0..n {
        let w = ltx[j];
        for e in cp[j]..cp[j + 1] {
            llt[ri[e] as usize] += v[e] * w;
        }
    }
    let denom = ax.iter().fold(0.0f64, |m, &t| m.max(t.abs())).max(1e-300);
    ax.iter()
        .zip(&llt)
        .fold(0.0f64, |m, (&p, &q)| m.max((p - q).abs()))
        / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::factorize_seq;
    use blockmat::BlockMatrix;
    use std::sync::Arc;
    use symbolic::AmalgamationOpts;

    fn factored(p: &sparsemat::Problem, bs: usize) -> (NumericFactor, SymCscMatrix) {
        let perm = ordering::order_problem(p);
        let analysis = symbolic::analyze(p.matrix.pattern(), &perm, &AmalgamationOpts::default());
        let pa = analysis.perm.apply_to_matrix(&p.matrix);
        let bm = Arc::new(BlockMatrix::build(analysis.supernodes, bs));
        let mut f = NumericFactor::from_matrix(bm, &pa);
        factorize_seq(&mut f).unwrap();
        (f, pa)
    }

    #[test]
    fn solve_recovers_known_solution() {
        let p = sparsemat::gen::grid2d(6);
        let (f, pa) = factored(&p, 3);
        let n = p.n();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 2.0).collect();
        let mut b = vec![0.0; n];
        pa.mul_vec(&x_true, &mut b);
        let x = solve(&f, &b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn residual_is_tiny_for_correct_factor() {
        let p = sparsemat::gen::bcsstk_like("T", 120, 9);
        let (f, pa) = factored(&p, 6);
        assert!(residual_norm(&pa, &f) < 1e-12);
    }

    #[test]
    fn solve_many_lanes_are_bit_identical_to_single_solves() {
        let p = sparsemat::gen::grid2d(7);
        let (f, pa) = factored(&p, 4);
        let n = p.n();
        let k = 5;
        let rhs: Vec<Vec<f64>> = (0..k)
            .map(|r| {
                (0..n)
                    .map(|i| ((i * 3 + r * 7) as f64 * 0.21).cos() + 0.5)
                    .collect()
            })
            .collect();
        let mut x = vec![0.0; n * k];
        for (r, b) in rhs.iter().enumerate() {
            for (i, &bi) in b.iter().enumerate() {
                x[i * k + r] = bi;
            }
        }
        solve_lanes(&f, &mut x, k, &mut Vec::new());
        for (r, b) in rhs.iter().enumerate() {
            let single = solve(&f, b);
            for (i, s) in single.iter().enumerate() {
                assert_eq!(x[i * k + r].to_bits(), s.to_bits(), "lane diverged from single solve");
            }
        }
        // And the batch actually solves the system.
        let lane0: Vec<f64> = (0..n).map(|i| x[i * k]).collect();
        let mut ax = vec![0.0; n];
        pa.mul_vec(&lane0, &mut ax);
        for (a, b) in ax.iter().zip(&rhs[0]) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn residual_detects_corruption() {
        let p = sparsemat::gen::grid2d(5);
        let (mut f, pa) = factored(&p, 3);
        // Corrupt one stored value.
        f.data[0][0] += 0.5;
        assert!(residual_norm(&pa, &f) > 1e-6);
    }
}
