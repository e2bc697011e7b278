//! Matrix products, including the transposed variants used by backward
//! passes.
//!
//! All three product shapes run on one register-blocked micro-kernel
//! family: the output is walked in `MR × NR` tiles whose accumulators
//! live in registers for the whole `k` (reduction) extent, so each
//! output element costs one store instead of `k` load/store round trips
//! through the output row. The reduction always streams `p = 0..k` in
//! ascending order with one `acc += a·b` per term — exactly the order
//! the scalar reference uses — so blocked, parallel, and reference
//! kernels agree **bitwise**, not just approximately.
//!
//! Large products are split across the [`crate::pool`] by disjoint
//! output-row ranges; every element is still produced by one thread
//! running the same tile code, keeping results independent of
//! `JANUS_THREADS`.

use crate::matrix::Matrix;
use crate::pool;
use crate::simd;

/// Output-tile height (rows of the destination per micro-kernel step).
const MR: usize = 4;
/// Output-tile width (columns of the destination per micro-kernel step).
const NR: usize = 8;

/// Below this many multiply-adds a product stays on the calling thread:
/// scope spawn/join overhead would dominate the kernel. Measured on the
/// SIMD kernels: a 64×512×2048 product (~6.7e7 muladds) runs ~0.9 ms
/// single-threaded, so anything under ~2e6 muladds (<50 µs) is pure
/// spawn overhead.
const PAR_MIN_MULADDS: usize = 1 << 21;

/// Dispatch one row-range of the NN product to the AVX2 or scalar
/// kernel. Both produce bitwise-identical output (see [`crate::simd`]),
/// so the choice is invisible to everything above.
fn run_nn(a: &[f32], b: &[f32], k: usize, n: usize, r0: usize, r1: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd::active() {
        // SAFETY: `active()` implies AVX2 was detected at runtime.
        unsafe { simd::avx2::kernel_nn(a, b, k, n, r0, r1, out) };
        return;
    }
    kernel_nn(a, b, k, n, r0, r1, out);
}

/// Dispatch one row-range of the TN product (see [`run_nn`]).
#[allow(clippy::too_many_arguments)]
fn run_tn(
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    r0: usize,
    r1: usize,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd::active() {
        // SAFETY: `active()` implies AVX2 was detected at runtime.
        unsafe { simd::avx2::kernel_tn(a, b, k, m, n, r0, r1, out) };
        return;
    }
    kernel_tn(a, b, k, m, n, r0, r1, out);
}

/// Dispatch one row-range of the NT product (see [`run_nn`]).
fn run_nt(a: &[f32], b: &[f32], k: usize, n: usize, r0: usize, r1: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd::active() {
        // SAFETY: `active()` implies AVX2 was detected at runtime.
        unsafe { simd::avx2::kernel_nt(a, b, k, n, r0, r1, out) };
        return;
    }
    kernel_nt(a, b, k, n, r0, r1, out);
}

impl Matrix {
    /// `self · other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self · other`, written into `out` (resized as needed; prior
    /// contents are discarded). Steady-state callers reuse `out`'s
    /// allocation across iterations.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let (m, k, n) = (self.rows(), self.cols(), other.cols());
        out.resize(m, n);
        let (a, b) = (self.data(), other.data());
        if m * k * n >= PAR_MIN_MULADDS {
            pool::par_row_chunks(out.data_mut(), n, |r0, r1, chunk| {
                run_nn(a, b, k, n, r0, r1, chunk);
            });
        } else {
            run_nn(a, b, k, n, 0, m, out.data_mut());
        }
    }

    /// `selfᵀ · other` without materializing the transpose (weight
    /// gradients: `dW = xᵀ · dy`).
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// `selfᵀ · other`, written into `out` (resized as needed).
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows(),
            other.rows(),
            "matmul_tn shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let (k, m, n) = (self.rows(), self.cols(), other.cols());
        out.resize(m, n);
        let (a, b) = (self.data(), other.data());
        if m * k * n >= PAR_MIN_MULADDS {
            pool::par_row_chunks(out.data_mut(), n, |r0, r1, chunk| {
                run_tn(a, b, k, m, n, r0, r1, chunk);
            });
        } else {
            run_tn(a, b, k, m, n, 0, m, out.data_mut());
        }
    }

    /// `self · otherᵀ` without materializing the transpose (input
    /// gradients: `dx = dy · Wᵀ`).
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// `self · otherᵀ`, written into `out` (resized as needed).
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols(),
            other.cols(),
            "matmul_nt shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let (m, k, n) = (self.rows(), self.cols(), other.rows());
        out.resize(m, n);
        let (a, b) = (self.data(), other.data());
        if m * k * n >= PAR_MIN_MULADDS {
            pool::par_row_chunks(out.data_mut(), n, |r0, r1, chunk| {
                run_nt(a, b, k, n, r0, r1, chunk);
            });
        } else {
            run_nt(a, b, k, n, 0, m, out.data_mut());
        }
    }

    /// Column sums (bias gradients).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols()];
        self.col_sums_into(&mut sums);
        sums
    }

    /// Column sums written into `sums` (overwritten, length must match).
    pub fn col_sums_into(&self, sums: &mut [f32]) {
        assert_eq!(sums.len(), self.cols(), "col_sums_into length mismatch");
        #[cfg(target_arch = "x86_64")]
        if simd::active() {
            // SAFETY: `active()` implies AVX2 was detected at runtime.
            unsafe { simd::avx2::col_sums(self.data(), self.rows(), self.cols(), sums) };
            return;
        }
        sums.fill(0.0);
        for r in 0..self.rows() {
            for (s, v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
    }
}

/// Scalar reference product, kept as the ground truth the blocked and
/// parallel kernels are tested bitwise against (and as the baseline the
/// compute benchmarks measure speedups from). Plain `ijp` dot products,
/// ascending `p`, one rounding per term — the same reduction order the
/// tiled kernels use.
pub fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul shape mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[(i, p)] * b[(p, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// Rows `r0..r1` of `C = A·B` with `A: m×k`, `B: k×n`; `out` holds just
/// those rows. Register-blocked `MR × NR` tiles, `k` streamed whole.
fn kernel_nn(a: &[f32], b: &[f32], k: usize, n: usize, r0: usize, r1: usize, out: &mut [f32]) {
    let mut i = r0;
    while i < r1 {
        let h = MR.min(r1 - i);
        let mut arows: [&[f32]; MR] = [&[]; MR];
        for (r, arow) in arows.iter_mut().enumerate().take(h) {
            *arow = &a[(i + r) * k..(i + r) * k + k];
        }
        let mut j = 0;
        while j < n {
            let w = NR.min(n - j);
            let mut acc = [[0.0f32; NR]; MR];
            if w == NR {
                // Full-width tile: fixed NR-lane inner loop vectorizes.
                for p in 0..k {
                    let brow = &b[p * n + j..p * n + j + NR];
                    for r in 0..h {
                        let av = arows[r][p];
                        for c in 0..NR {
                            acc[r][c] += av * brow[c];
                        }
                    }
                }
            } else {
                for p in 0..k {
                    let brow = &b[p * n + j..p * n + j + w];
                    for r in 0..h {
                        let av = arows[r][p];
                        for (ac, &bv) in acc[r][..w].iter_mut().zip(brow) {
                            *ac += av * bv;
                        }
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate().take(h) {
                let dst = (i - r0 + r) * n + j;
                out[dst..dst + w].copy_from_slice(&accr[..w]);
            }
            j += w;
        }
        i += h;
    }
}

/// Rows `r0..r1` of `C = Aᵀ·B` with `A: k×m`, `B: k×n`. Both operands
/// are read along contiguous rows (`A[p][i..]`, `B[p][j..]`), so the TN
/// shape needs no transpose and no strided loads.
#[allow(clippy::too_many_arguments)]
fn kernel_tn(
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    r0: usize,
    r1: usize,
    out: &mut [f32],
) {
    let mut i = r0;
    while i < r1 {
        let h = MR.min(r1 - i);
        let mut j = 0;
        while j < n {
            let w = NR.min(n - j);
            let mut acc = [[0.0f32; NR]; MR];
            if w == NR {
                for p in 0..k {
                    let avals = &a[p * m + i..p * m + i + h];
                    let brow = &b[p * n + j..p * n + j + NR];
                    for (r, &av) in avals.iter().enumerate() {
                        for c in 0..NR {
                            acc[r][c] += av * brow[c];
                        }
                    }
                }
            } else {
                for p in 0..k {
                    let avals = &a[p * m + i..p * m + i + h];
                    let brow = &b[p * n + j..p * n + j + w];
                    for (r, &av) in avals.iter().enumerate() {
                        for (ac, &bv) in acc[r][..w].iter_mut().zip(brow) {
                            *ac += av * bv;
                        }
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate().take(h) {
                let dst = (i - r0 + r) * n + j;
                out[dst..dst + w].copy_from_slice(&accr[..w]);
            }
            j += w;
        }
        i += h;
    }
}

/// Rows `r0..r1` of `C = A·Bᵀ` with `A: m×k`, `B: n×k`: an `MR × NR`
/// block of simultaneous dot products over contiguous rows of both
/// operands.
fn kernel_nt(a: &[f32], b: &[f32], k: usize, n: usize, r0: usize, r1: usize, out: &mut [f32]) {
    let mut i = r0;
    while i < r1 {
        let h = MR.min(r1 - i);
        let mut arows: [&[f32]; MR] = [&[]; MR];
        for (r, arow) in arows.iter_mut().enumerate().take(h) {
            *arow = &a[(i + r) * k..(i + r) * k + k];
        }
        let mut j = 0;
        while j < n {
            let w = NR.min(n - j);
            let mut brows: [&[f32]; NR] = [&[]; NR];
            for (c, brow) in brows.iter_mut().enumerate().take(w) {
                *brow = &b[(j + c) * k..(j + c) * k + k];
            }
            let mut acc = [[0.0f32; NR]; MR];
            for p in 0..k {
                for r in 0..h {
                    let av = arows[r][p];
                    for c in 0..w {
                        acc[r][c] += av * brows[c][p];
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate().take(h) {
                let dst = (i - r0 + r) * n + j;
                out[dst..dst + w].copy_from_slice(&accr[..w]);
            }
            j += w;
        }
        i += h;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_small_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::uniform(3, 5, 1.0, &mut rng);
        assert_eq!(a.matmul(&Matrix::eye(5)), a);
        assert_eq!(Matrix::eye(3).matmul(&a), a);
    }

    #[test]
    fn blocked_matches_reference_bitwise_across_tile_edges() {
        // Shapes straddling MR/NR boundaries: remainder tiles in every
        // dimension must still reduce in the reference order.
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (13, 2, 31),
            (16, 16, 16),
        ] {
            let a = Matrix::uniform(m, k, 1.0, &mut rng);
            let b = Matrix::uniform(k, n, 1.0, &mut rng);
            let blocked = a.matmul(&b);
            let reference = matmul_reference(&a, &b);
            assert_eq!(
                blocked.max_abs_diff(&reference),
                0.0,
                "blocked != reference for {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn into_variants_reuse_and_resize_the_output() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = Matrix::uniform(5, 3, 1.0, &mut rng);
        let b = Matrix::uniform(3, 6, 1.0, &mut rng);
        // Start from a wrong-shaped, dirty buffer: it must be resized and
        // fully overwritten.
        let mut out = Matrix::from_vec(2, 2, vec![f32::NAN; 4]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // Second use reuses the allocation with fresh contents.
        let c = Matrix::uniform(5, 4, 1.0, &mut rng);
        let d = Matrix::uniform(4, 6, 1.0, &mut rng);
        c.matmul_into(&d, &mut out);
        assert_eq!(out, c.matmul(&d));
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::uniform(4, 3, 1.0, &mut rng);
        let b = Matrix::uniform(4, 5, 1.0, &mut rng);
        let via_tn = a.matmul_tn(&b);
        let explicit = a.transpose().matmul(&b);
        assert!(via_tn.max_abs_diff(&explicit) < 1e-5);

        let c = Matrix::uniform(6, 3, 1.0, &mut rng);
        let d = Matrix::uniform(2, 3, 1.0, &mut rng);
        let via_nt = c.matmul_nt(&d);
        let explicit = c.matmul(&d.transpose());
        assert!(via_nt.max_abs_diff(&explicit) < 1e-5);
    }

    #[test]
    fn matmul_is_associative_up_to_float_error() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::uniform(3, 4, 0.5, &mut rng);
        let b = Matrix::uniform(4, 2, 0.5, &mut rng);
        let c = Matrix::uniform(2, 5, 0.5, &mut rng);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert!(left.max_abs_diff(&right) < 1e-5);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn col_sums_match_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.col_sums(), vec![4.0, 6.0]);
        let mut buf = vec![9.0f32; 2];
        a.col_sums_into(&mut buf);
        assert_eq!(buf, vec![4.0, 6.0]);
    }
}
