//! Portable scalar backend: the pre-backend `matmul.rs`/`vecops.rs` inner
//! loops, extracted without changing a single floating-point operation.
//! This implementation is the bitwise reference — the committed goldens in
//! `crates/tensor/tests/backend_goldens.rs` pin its results to the
//! pre-refactor ones, and the autovectorizer is free to (and does)
//! vectorize these fixed-order loops because none of them reassociates.

use super::{CpuBackend, DOT_BLOCK, DOT_LANES, MR, WR};

/// The portable backend (unit struct; dispatched as `&'static dyn`).
pub(super) struct Scalar;

/// One `R`-row × `WR`-column register-tile update for a single `k` panel:
/// zeroed accumulators, an ascending-`p` FMA chain, then one flush add
/// into `c`. Remainder columns past the last full `WR` tile follow the
/// exact same per-element sequence with scalar accumulators. `av(p)`
/// yields the `R` broadcast values of `a` for step `p`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn mr_block<const R: usize>(
    av: impl Fn(usize) -> [f32; R],
    bp: &[f32],
    b_base: usize,
    b_stride: usize,
    kc: usize,
    width: usize,
    c: &mut [f32],
    c_base: usize,
    c_stride: usize,
) {
    let wr_end = width - width % WR;
    let mut jw = 0;
    while jw + WR <= width {
        let mut acc = [[0.0f32; WR]; R];
        for p in 0..kc {
            let a_vals = av(p);
            let off = b_base + p * b_stride + jw;
            let bv = &bp[off..off + WR];
            for r in 0..R {
                let ar = a_vals[r];
                let accr = &mut acc[r];
                for t in 0..WR {
                    accr[t] = ar.mul_add(bv[t], accr[t]);
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            let cr = &mut c[c_base + r * c_stride + jw..c_base + r * c_stride + jw + WR];
            for t in 0..WR {
                cr[t] += accr[t];
            }
        }
        jw += WR;
    }
    for t in wr_end..width {
        let mut s = [0.0f32; R];
        for p in 0..kc {
            let a_vals = av(p);
            let bv = bp[b_base + p * b_stride + t];
            for r in 0..R {
                s[r] = a_vals[r].mul_add(bv, s[r]);
            }
        }
        for (r, sr) in s.iter().enumerate() {
            c[c_base + r * c_stride + t] += sr;
        }
    }
}

impl CpuBackend for Scalar {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn gemm_tile(
        &self,
        a: &[f32],
        a_base: usize,
        a_row_stride: usize,
        a_p_stride: usize,
        rows: usize,
        kc: usize,
        bp: &[f32],
        b_base: usize,
        b_stride: usize,
        width: usize,
        c: &mut [f32],
        c_base: usize,
        c_stride: usize,
    ) {
        debug_assert!((1..=MR).contains(&rows), "gemm_tile: rows {rows}");
        let av1 = |p: usize| [a[a_base + p * a_p_stride]];
        match rows {
            4 => mr_block::<4>(
                |p| std::array::from_fn(|r| a[a_base + r * a_row_stride + p * a_p_stride]),
                bp,
                b_base,
                b_stride,
                kc,
                width,
                c,
                c_base,
                c_stride,
            ),
            3 => mr_block::<3>(
                |p| std::array::from_fn(|r| a[a_base + r * a_row_stride + p * a_p_stride]),
                bp,
                b_base,
                b_stride,
                kc,
                width,
                c,
                c_base,
                c_stride,
            ),
            2 => mr_block::<2>(
                |p| std::array::from_fn(|r| a[a_base + r * a_row_stride + p * a_p_stride]),
                bp,
                b_base,
                b_stride,
                kc,
                width,
                c,
                c_base,
                c_stride,
            ),
            _ => mr_block::<1>(av1, bp, b_base, b_stride, kc, width, c, c_base, c_stride),
        }
    }

    fn dot_lanes(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        const L: usize = DOT_LANES;
        let mut acc = [0.0f32; L];
        let chunks = a.len() / L;
        for q in 0..chunks {
            let av = &a[q * L..q * L + L];
            let bv = &b[q * L..q * L + L];
            for t in 0..L {
                acc[t] = av[t].mul_add(bv[t], acc[t]);
            }
        }
        let mut w = L / 2;
        while w > 0 {
            for t in 0..w {
                acc[t] += acc[t + w];
            }
            w /= 2;
        }
        let mut s = acc[0];
        for t in chunks * L..a.len() {
            s = a[t].mul_add(b[t], s);
        }
        s
    }

    /// The reference block: sixteen per-pair [`CpuBackend::dot_lanes`]
    /// calls. The portable x86-64 build has no FMA instruction, so each
    /// `mul_add` is a library call and register blocking would buy
    /// nothing here; the wide backends block for real and are pinned to
    /// this.
    fn dot_lanes_4x4(
        &self,
        a: [&[f32]; DOT_BLOCK],
        b: [&[f32]; DOT_BLOCK],
    ) -> [[f32; DOT_BLOCK]; DOT_BLOCK] {
        a.map(|ar| b.map(|bs| self.dot_lanes(ar, bs)))
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut s = 0.0f32;
        for (x, y) in a.iter().zip(b) {
            s += x * y;
        }
        s
    }

    fn sq_norm(&self, a: &[f32]) -> f32 {
        let mut s = 0.0f32;
        for x in a {
            s += x * x;
        }
        s
    }

    fn dot_delta(&self, a: &[f32], b: &[f32], r: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len(), r.len());
        let mut s = 0.0f32;
        for ((x, y), c) in a.iter().zip(b).zip(r) {
            s += (x - c) * (y - c);
        }
        s
    }

    fn sq_norm_delta(&self, a: &[f32], r: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), r.len());
        let mut s = 0.0f32;
        for (x, c) in a.iter().zip(r) {
            let d = x - c;
            s += d * d;
        }
        s
    }

    fn add_assign(&self, out: &mut [f32], src: &[f32]) {
        debug_assert_eq!(out.len(), src.len());
        for (o, x) in out.iter_mut().zip(src) {
            *o += x;
        }
    }

    fn scale_assign(&self, out: &mut [f32], alpha: f32) {
        for o in out {
            *o *= alpha;
        }
    }

    fn sq_dev_assign(&self, out: &mut [f32], v: &[f32], m: &[f32]) {
        debug_assert_eq!(out.len(), v.len());
        debug_assert_eq!(out.len(), m.len());
        for (o, (x, mv)) in out.iter_mut().zip(v.iter().zip(m)) {
            let diff = x - mv;
            *o += diff * diff;
        }
    }

    fn scale_sqrt_assign(&self, out: &mut [f32], alpha: f32) {
        for o in out {
            *o = (*o * alpha).sqrt();
        }
    }

    fn axpy_assign(&self, out: &mut [f32], alpha: f32, src: &[f32]) {
        debug_assert_eq!(out.len(), src.len());
        for (o, y) in out.iter_mut().zip(src) {
            *o += alpha * y;
        }
    }
}
