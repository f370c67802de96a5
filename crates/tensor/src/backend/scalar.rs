//! Portable scalar backend: the pre-backend `matmul.rs`/`vecops.rs` inner
//! loops, extracted without changing a single floating-point operation.
//! This implementation is the bitwise reference — the committed goldens in
//! `crates/tensor/tests/backend_goldens.rs` pin its results to the
//! pre-refactor ones, and the autovectorizer is free to (and does)
//! vectorize these fixed-order loops because none of them reassociates.

use super::{CpuBackend, DIST_ROWS, DOT_BLOCK, DOT_LANES, MR, WR};
use crate::vecops::sq_distance;

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

/// One `chunks_exact(4)` chunk as four lanes (the chunk is exactly four
/// long, so the fallback arm never runs).
#[inline(always)]
fn lanes(c: &[f32]) -> [f32; 4] {
    match c {
        [x0, x1, x2, x3] => [*x0, *x1, *x2, *x3],
        _ => [0.0; 4],
    }
}

/// One chunk step of [`sq_distance`](crate::vecops::sq_distance)'s
/// four lane chains for one pair: separate `sub`, `mul` and `add` per
/// lane, in the same order.
#[inline(always)]
fn sq_lanes_step(s: &mut [f32; 4], x: &[f32; 4], y: &[f32; 4]) {
    let ([x0, x1, x2, x3], [y0, y1, y2, y3], [s0, s1, s2, s3]) = (x, y, s);
    let d0 = x0 - y0;
    let d1 = x1 - y1;
    let d2 = x2 - y2;
    let d3 = x3 - y3;
    *s0 += d0 * d0;
    *s1 += d1 * d1;
    *s2 += d2 * d2;
    *s3 += d3 * d3;
}

/// The register-blocked distance kernel: entry `(r, c)` is
/// `sq_distance(rows[r], cols[c])`, bit for bit. Each of the 16 pairs
/// keeps its own four lane accumulators and runs
/// [`sq_distance`](crate::vecops::sq_distance)'s exact per-pair op
/// sequence and final fold `((s0+s1)+(s2+s3))+tail`; blocking
/// only interleaves the 16 independent chains (so the loop is bound by
/// add throughput, not latency) and loads each row/column chunk once per
/// block instead of once per pair. The accumulators are named locals on
/// purpose: an array of them is not kept in registers.
fn sq_distance_4x4(rows: [&[f32]; 4], cols: [&[f32]; 4]) -> [[f32; 4]; 4] {
    let z = [0.0f32; 4];
    let (mut s00, mut s01, mut s02, mut s03) = (z, z, z, z);
    let (mut s10, mut s11, mut s12, mut s13) = (z, z, z, z);
    let (mut s20, mut s21, mut s22, mut s23) = (z, z, z, z);
    let (mut s30, mut s31, mut s32, mut s33) = (z, z, z, z);
    let [a0, a1, a2, a3] = rows.map(|v| v.chunks_exact(4));
    let [b0, b1, b2, b3] = cols.map(|v| v.chunks_exact(4));
    let ra = [
        a0.remainder(),
        a1.remainder(),
        a2.remainder(),
        a3.remainder(),
    ];
    let rb = [
        b0.remainder(),
        b1.remainder(),
        b2.remainder(),
        b3.remainder(),
    ];
    let (qa, qb) = (a0.zip(a1).zip(a2).zip(a3), b0.zip(b1).zip(b2).zip(b3));
    for ((((x0, x1), x2), x3), (((y0, y1), y2), y3)) in qa.zip(qb) {
        let (x0, x1, x2, x3) = (lanes(x0), lanes(x1), lanes(x2), lanes(x3));
        let (y0, y1, y2, y3) = (lanes(y0), lanes(y1), lanes(y2), lanes(y3));
        sq_lanes_step(&mut s00, &x0, &y0);
        sq_lanes_step(&mut s01, &x0, &y1);
        sq_lanes_step(&mut s02, &x0, &y2);
        sq_lanes_step(&mut s03, &x0, &y3);
        sq_lanes_step(&mut s10, &x1, &y0);
        sq_lanes_step(&mut s11, &x1, &y1);
        sq_lanes_step(&mut s12, &x1, &y2);
        sq_lanes_step(&mut s13, &x1, &y3);
        sq_lanes_step(&mut s20, &x2, &y0);
        sq_lanes_step(&mut s21, &x2, &y1);
        sq_lanes_step(&mut s22, &x2, &y2);
        sq_lanes_step(&mut s23, &x2, &y3);
        sq_lanes_step(&mut s30, &x3, &y0);
        sq_lanes_step(&mut s31, &x3, &y1);
        sq_lanes_step(&mut s32, &x3, &y2);
        sq_lanes_step(&mut s33, &x3, &y3);
    }
    let acc = [
        [s00, s01, s02, s03],
        [s10, s11, s12, s13],
        [s20, s21, s22, s23],
        [s30, s31, s32, s33],
    ];
    let mut out = [[0.0f32; 4]; 4];
    for ((out_r, acc_r), ta) in out.iter_mut().zip(&acc).zip(ra) {
        for ((o, s), tb) in out_r.iter_mut().zip(acc_r).zip(rb) {
            let mut tail = 0.0f32;
            for (x, y) in ta.iter().zip(tb) {
                let d = x - y;
                tail += d * d;
            }
            let [s0, s1, s2, s3] = *s;
            *o = ((s0 + s1) + (s2 + s3)) + tail;
        }
    }
    out
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

    /// [`sq_distance_4x4`] over column blocks of four; the last `< 4`
    /// columns fall back to the per-pair `sq_distance`.
    fn sq_distance_rows(
        &self,
        rows: [&[f32]; DIST_ROWS],
        cols: &[&[f32]],
        out: [&mut [f32]; DIST_ROWS],
    ) {
        let blocks = cols.chunks_exact(4);
        let rest = blocks.remainder();
        let mut out = out;
        let mut j = 0;
        for block in blocks {
            let &[b0, b1, b2, b3] = block else {
                continue;
            };
            let dists = sq_distance_4x4(rows, [b0, b1, b2, b3]);
            for (dst, drow) in out.iter_mut().zip(dists) {
                if let Some(dst) = dst.get_mut(j..j + 4) {
                    dst.copy_from_slice(&drow);
                }
            }
            j += 4;
        }
        for (dst, row) in out.iter_mut().zip(rows) {
            for (slot, col) in dst.iter_mut().skip(j).zip(rest) {
                *slot = sq_distance(row, col);
            }
        }
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
