//! Portable scalar backend: the reference every other backend is pinned
//! to. The GEMM tile and `dot_lanes` are the pre-backend
//! `matmul.rs`/`vecops.rs` inner loops, extracted without
//! changing a floating-point operation; `dot`/`dot_delta` run the striped
//! order of [`striped`], which the SIMD backends hold in registers. The
//! committed goldens in `crates/tensor/tests/backend_goldens.rs` pin these
//! results, and the autovectorizer is free to vectorize the fixed-order
//! loops because none of them reassociates.

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

/// The fixed halving tree `acc[t] += acc[t+w]` for `w = 8, 4, 2, 1` that
/// folds [`DOT_LANES`] lane sums into one; the SIMD backends' horizontal
/// sums reproduce it exactly.
#[inline(always)]
fn halving_sum(mut acc: [f32; DOT_LANES]) -> f32 {
    let mut w = DOT_LANES / 2;
    while w > 0 {
        let (lo, hi) = acc.split_at_mut(w);
        for (x, y) in lo.iter_mut().zip(&*hi) {
            *x += y;
        }
        w /= 2;
    }
    let [s, ..] = acc;
    s
}

/// The one accumulation order of [`CpuBackend::dot`] and
/// [`CpuBackend::dot_delta`] on every backend, over the factor pairs
/// `terms` yields: four [`DOT_LANES`]-lane accumulators striped over
/// 16-term blocks (`block q → acc[q & 3]`, each lane a `mul_add` chain),
/// folded lane-wise as `(0+1) + (2+3)`, then [`halving_sum`], then a
/// `mul_add` tail over the last `len % 16` terms. The AVX-512 backend
/// holds each accumulator in one `zmm` register, AVX2 in two `ymm` halves.
#[inline(always)]
fn striped(terms: impl ExactSizeIterator<Item = (f32, f32)>) -> f32 {
    let blocks = terms.len() / DOT_LANES;
    let mut terms = terms;
    let mut acc = [[0.0f32; DOT_LANES]; 4];
    for q in 0..blocks {
        if let Some(lanes) = acc.get_mut(q & 3) {
            for (s, (x, y)) in lanes.iter_mut().zip(terms.by_ref().take(DOT_LANES)) {
                *s = x.mul_add(y, *s);
            }
        }
    }
    let [mut v, a1, a2, a3] = acc;
    for (((s, x1), x2), x3) in v.iter_mut().zip(a1).zip(a2).zip(a3) {
        *s = (*s + x1) + (x2 + x3);
    }
    let mut s = halving_sum(v);
    for (x, y) in terms {
        s = x.mul_add(y, s);
    }
    s
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
        let mut acc = [0.0f32; DOT_LANES];
        let (qa, qb) = (a.chunks_exact(DOT_LANES), b.chunks_exact(DOT_LANES));
        let (ra, rb) = (qa.remainder(), qb.remainder());
        for (ca, cb) in qa.zip(qb) {
            for ((s, x), y) in acc.iter_mut().zip(ca).zip(cb) {
                *s = x.mul_add(*y, *s);
            }
        }
        let mut s = halving_sum(acc);
        for (x, y) in ra.iter().zip(rb) {
            s = x.mul_add(*y, s);
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
        striped(a.iter().zip(b).map(|(x, y)| (*x, *y)))
    }

    fn dot_delta(&self, a: &[f32], b: &[f32], r: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len(), r.len());
        striped(a.iter().zip(b).zip(r).map(|((x, y), c)| (x - c, y - c)))
    }
}
