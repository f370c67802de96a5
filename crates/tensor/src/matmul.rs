//! Matrix multiplication kernels.
//!
//! All matrices are dense row-major `f32` slices with explicit dimensions.
//! Each operation exists in two forms sharing one per-row micro-kernel:
//!
//! * a `*_serial` reference that walks rows in order on the calling thread;
//! * the public entry point, which row-parallelizes across the
//!   [`crate::par`] thread budget once the FLOP count crosses
//!   [`PAR_FLOP_THRESHOLD`].
//!
//! The micro-kernels fix each output element's floating-point operation
//! sequence as a function of the element's position and the matrix
//! dimensions alone: per `k`-panel the partial dot product accumulates in
//! registers via an ascending-`p` FMA chain and is flushed into `c` with a
//! single add. The `MR`-row block path and the single-row remainder path
//! follow the exact same per-element sequence, and row partitioning never
//! splits an element's accumulation, so the parallel results are bitwise
//! identical to the serial reference at any thread count — see
//! `crates/tensor/src/proptests.rs`.
//!
//! The register tile itself ([`CpuBackend::gemm_tile`]) and the row-dot
//! kernels ([`CpuBackend::dot_lanes`] and its 4×4 block
//! [`CpuBackend::dot_lanes_4x4`]) are provided by the active
//! [`crate::backend`]; because each output element's chain is independent
//! and every backend uses correctly-rounded FMAs in the same ascending-`p`
//! order, GEMM results are bitwise identical across scalar, AVX2, and
//! AVX-512 backends (DESIGN.md §4f).
//!
//! The kernels are cache-blocked: `k` is tiled in `KC` panels so a panel of
//! `b` stays in L2 across an output row block, `n` is tiled in `NC` columns
//! so the active output slices stay in L1, and rows are processed `MR` at a
//! time so each loaded `b` row is reused `MR` times. Within a column tile,
//! `WR`-wide stacks of accumulators stay in SIMD registers across the whole
//! `k` panel, so `c` is touched once per panel instead of once per `p`. The
//! dense path carries no `a_ip == 0.0` skip (the branch defeated
//! vectorization and only helped on the mostly-zero one-hot matrices that
//! no hot path multiplies today).

use crate::backend::{self, CpuBackend, DOT_BLOCK, MR};
use crate::{par, Tensor, TensorError};

/// `k`-panel height: one panel of `b` (`KC·NC` floats) stays L2-resident.
const KC: usize = 256;
/// Column-tile width: an `MR`-row output tile (`MR·NC` floats) fits in L1.
const NC: usize = 1024;

/// Minimum `2·m·k·n` FLOP count before the kernels fan out to threads.
/// Below this the dispatch overhead outweighs the parallel win.
pub const PAR_FLOP_THRESHOLD: u64 = 1 << 23;

fn flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

/// Picks a row-chunk size that spreads `m` rows over the thread budget.
fn rows_per_chunk(m: usize) -> usize {
    let threads = par::max_threads();
    // Aim for a few chunks per thread so uneven rows still balance.
    m.div_ceil(threads * 4).max(1)
}

// ------------------------------------------------------------ micro-kernels

/// Computes `c_rows += a_rows · b` for `rows` output rows starting at
/// global row `row0`. `a` and `b` are the full input matrices; `c_rows` is
/// exactly `rows·n` long. Full `MR`-row blocks and leftover single rows run
/// the same [`CpuBackend::gemm_tile`], so their per-element math is
/// identical.
#[allow(clippy::too_many_arguments)]
fn kernel_into(
    be: &dyn CpuBackend,
    a: &[f32],
    b: &[f32],
    c_rows: &mut [f32],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(c_rows.len(), rows * n);
    for jb in (0..n).step_by(NC) {
        let je = (jb + NC).min(n);
        let width = je - jb;
        for pb in (0..k).step_by(KC) {
            let pe = (pb + KC).min(k);
            // B(p, j) = b[(pb+p)·n + jb + j]: `b` is read in place.
            let b_base = pb * n + jb;
            let mut i = 0;
            while i + MR <= rows {
                // A(r, p) = a[(row0+i+r)·k + pb + p]: row stride k, p
                // stride 1.
                be.gemm_tile(
                    a,
                    (row0 + i) * k + pb,
                    k,
                    1,
                    MR,
                    pe - pb,
                    b,
                    b_base,
                    n,
                    width,
                    c_rows,
                    i * n + jb,
                    n,
                );
                i += MR;
            }
            while i < rows {
                be.gemm_tile(
                    a,
                    (row0 + i) * k + pb,
                    k,
                    1,
                    1,
                    pe - pb,
                    b,
                    b_base,
                    n,
                    width,
                    c_rows,
                    i * n + jb,
                    n,
                );
                i += 1;
            }
        }
    }
}

/// Computes `c_rows += aᵀ · b` rows (`a` stored `k×m`): the transpose-A
/// analogue of [`kernel_into`]. The `MR` per-row broadcasts read `MR`
/// consecutive elements of each `a` row, so the strided access stays cheap.
#[allow(clippy::too_many_arguments)]
fn kernel_transpose_a(
    be: &dyn CpuBackend,
    a: &[f32],
    b: &[f32],
    c_rows: &mut [f32],
    row0: usize,
    rows: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(c_rows.len(), rows * n);
    for jb in (0..n).step_by(NC) {
        let je = (jb + NC).min(n);
        let width = je - jb;
        for pb in (0..k).step_by(KC) {
            let pe = (pb + KC).min(k);
            // B(p, j) = b[(pb+p)·n + jb + j]: `b` is read in place.
            let b_base = pb * n + jb;
            let mut i = 0;
            while i + MR <= rows {
                // A(r, p) = a[(pb+p)·m + row0 + i + r]: row stride 1, p
                // stride m (the transpose walk).
                be.gemm_tile(
                    a,
                    pb * m + row0 + i,
                    1,
                    m,
                    MR,
                    pe - pb,
                    b,
                    b_base,
                    n,
                    width,
                    c_rows,
                    i * n + jb,
                    n,
                );
                i += MR;
            }
            while i < rows {
                be.gemm_tile(
                    a,
                    pb * m + row0 + i,
                    1,
                    m,
                    1,
                    pe - pb,
                    b,
                    b_base,
                    n,
                    width,
                    c_rows,
                    i * n + jb,
                    n,
                );
                i += 1;
            }
        }
    }
}

/// Computes `c_rows += a_rows · bᵀ` (`b` stored `n×k`): row-against-row dot
/// products, four rows against four columns at a time through
/// [`CpuBackend::dot_lanes_4x4`], the leftover rows and columns through
/// [`CpuBackend::dot_lanes`]. Each entry of the block is bitwise the
/// per-pair `dot_lanes` (the fixed 16-lane reduction tree — identical
/// across backends), and every output element gets exactly one `+=`, so
/// the blocking never shows in the result. Both operands stream
/// contiguously, so no `k`-tiling is needed; `j` is tiled (in whole
/// blocks) to keep the active `b` rows L2-resident across the row block.
#[allow(clippy::too_many_arguments)]
fn kernel_transpose_b(
    be: &dyn CpuBackend,
    a: &[f32],
    b: &[f32],
    c_rows: &mut [f32],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(c_rows.len(), rows * n);
    const B: usize = DOT_BLOCK;
    let jc = (NC * KC / k.max(1)).max(2 * B) / B * B;
    let a_row = |i: usize| a.get((row0 + i) * k..(row0 + i + 1) * k).unwrap_or(&[]);
    let b_row = |j: usize| b.get(j * k..(j + 1) * k).unwrap_or(&[]);
    let mut add_to = |i: usize, j: usize, v: f32| {
        if let Some(c_v) = c_rows.get_mut(i * n + j) {
            *c_v += v;
        }
    };
    let full_rows = rows / B * B;
    for jb in (0..n).step_by(jc) {
        let je = (jb + jc).min(n);
        let full_je = jb + (je - jb) / B * B;
        for i in (0..full_rows).step_by(B) {
            let a4: [&[f32]; B] = std::array::from_fn(|r| a_row(i + r));
            for j in (jb..full_je).step_by(B) {
                let block = be.dot_lanes_4x4(a4, std::array::from_fn(|s| b_row(j + s)));
                for (r, vals) in block.into_iter().enumerate() {
                    for (s, v) in vals.into_iter().enumerate() {
                        add_to(i + r, j + s, v);
                    }
                }
            }
            for j in full_je..je {
                for (r, ar) in a4.into_iter().enumerate() {
                    add_to(i + r, j, be.dot_lanes(ar, b_row(j)));
                }
            }
        }
        for i in full_rows..rows {
            for j in jb..je {
                add_to(i, j, be.dot_lanes(a_row(i), b_row(j)));
            }
        }
    }
}

// -------------------------------------------------------- serial reference

/// Serial reference for [`matmul_into`]: same micro-kernel, no threads.
pub fn matmul_into_serial(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    kernel_into(backend::active(), a, b, c, 0, m, k, n);
}

/// Serial reference for [`matmul_transpose_a`].
pub fn matmul_transpose_a_serial(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    kernel_transpose_a(backend::active(), a, b, c, 0, m, m, k, n);
}

/// Serial reference for [`matmul_transpose_b`].
pub fn matmul_transpose_b_serial(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    kernel_transpose_b(backend::active(), a, b, c, 0, m, k, n);
}

// ------------------------------------------------------- public entry points

/// Computes `c += a (m×k) · b (k×n)` into a caller-provided buffer.
///
/// Row-parallel above [`PAR_FLOP_THRESHOLD`]; bitwise identical to
/// [`matmul_into_serial`] at any thread count.
///
/// # Panics
///
/// Debug-asserts that the slice lengths match the given dimensions.
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let be = backend::active();
    if flops(m, k, n) < PAR_FLOP_THRESHOLD || par::max_threads() == 1 {
        kernel_into(be, a, b, c, 0, m, k, n);
        return;
    }
    let rows = rows_per_chunk(m);
    par::for_each_chunk_mut(c, rows * n, |chunk, c_rows| {
        let row0 = chunk * rows;
        kernel_into(be, a, b, c_rows, row0, c_rows.len() / n, k, n);
    });
}

/// Computes `aᵀ (k×m)ᵀ · b (k×n) -> (m×n)` without materializing `aᵀ`.
///
/// `a` is stored as `k×m`. Used for weight gradients (`grad_w = δᵀ·x`).
pub fn matmul_transpose_a(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let be = backend::active();
    if flops(m, k, n) < PAR_FLOP_THRESHOLD || par::max_threads() == 1 {
        kernel_transpose_a(be, a, b, c, 0, m, m, k, n);
        return;
    }
    let rows = rows_per_chunk(m);
    par::for_each_chunk_mut(c, rows * n, |chunk, c_rows| {
        let row0 = chunk * rows;
        kernel_transpose_a(be, a, b, c_rows, row0, c_rows.len() / n, m, k, n);
    });
}

/// Computes `a (m×k) · bᵀ (n×k)ᵀ -> (m×n)` without materializing `bᵀ`.
///
/// `b` is stored as `n×k`. Used for input gradients of dense layers.
pub fn matmul_transpose_b(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    let be = backend::active();
    if flops(m, k, n) < PAR_FLOP_THRESHOLD || par::max_threads() == 1 {
        kernel_transpose_b(be, a, b, c, 0, m, k, n);
        return;
    }
    // Whole 4-row blocks per chunk, so a split never leaves a row block
    // to the per-pair remainder path (the values are the same either way).
    let rows = rows_per_chunk(m).next_multiple_of(DOT_BLOCK);
    par::for_each_chunk_mut(c, rows * n, |chunk, c_rows| {
        let row0 = chunk * rows;
        kernel_transpose_b(be, a, b, c_rows, row0, c_rows.len() / n, k, n);
    });
}

/// Multiplies two rank-2 tensors: `a (m×k) · b (k×n) -> (m×n)`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs and
/// [`TensorError::ShapeMismatch`] when the inner dimensions disagree.
///
/// ```
/// use fabflip_tensor::{matmul, Tensor};
/// let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let i = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0])?;
/// assert_eq!(matmul(&a, &i)?.data(), a.data());
/// # Ok::<(), fabflip_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "matmul",
            expected: 2,
            actual: a.rank(),
        });
    }
    if b.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "matmul",
            expected: 2,
            actual: b.rank(),
        });
    }
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    let mut c = Tensor::zeros(vec![m, n]);
    matmul_into(a.data(), b.data(), c.data_mut(), m, k, n);
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::from_vec(shape.to_vec(), data.to_vec()).unwrap()
    }

    #[test]
    fn matmul_known_result() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(&[3, 2], &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = t(&[2, 3], &[0.0; 6]);
        let b = t(&[2, 3], &[0.0; 6]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::ShapeMismatch { .. })
        ));
        let v = t(&[3], &[0.0; 3]);
        assert!(matches!(
            matmul(&v, &b),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn transpose_a_matches_explicit_transpose() {
        // a is stored k×m = 3×2; logical op is (2×3)·(3×2).
        let a_t = [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]; // transpose of [[1,2,3],[4,5,6]]
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        let mut c = [0.0f32; 4];
        matmul_transpose_a(&a_t, &b, &mut c, 2, 3, 2);
        assert_eq!(c, [58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_b_matches_explicit_transpose() {
        // b is stored n×k = 2×3; logical op is (2×3)·(3×2).
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b_t = [7.0, 9.0, 11.0, 8.0, 10.0, 12.0]; // transpose of [[7,8],[9,10],[11,12]]
        let mut c = [0.0f32; 4];
        matmul_transpose_b(&a, &b_t, &mut c, 2, 3, 2);
        assert_eq!(c, [58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_into_accumulates() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [1.0, 2.0, 3.0, 4.0];
        let mut c = [10.0, 10.0, 10.0, 10.0];
        matmul_into(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [11.0, 12.0, 13.0, 14.0]);
    }

    /// Sizes straddling the MR/KC/NC tile boundaries against a textbook
    /// triple loop (exact equality holds: small integer-valued inputs).
    #[test]
    fn tiled_kernels_match_naive_on_awkward_sizes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (4, 4, 4),
            (5, 7, 9),
            (6, 3, 5),
            (9, 2, 11),
        ] {
            let a: Vec<f32> = (0..m * k).map(|v| ((v % 7) as f32) - 3.0).collect();
            let b: Vec<f32> = (0..k * n).map(|v| ((v % 5) as f32) - 2.0).collect();
            let mut naive = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    for p in 0..k {
                        naive[i * n + j] += a[i * k + p] * b[p * n + j];
                    }
                }
            }
            let mut c = vec![0.0f32; m * n];
            matmul_into(&a, &b, &mut c, m, k, n);
            assert_eq!(c, naive, "matmul_into {m}x{k}x{n}");
        }
    }
}
