//! AVX2 + FMA backend (256-bit lanes).
//!
//! Only constructed by the dispatcher after
//! `is_x86_feature_detected!("avx2")` and `("fma")` both succeed, so every
//! `#[target_feature]` kernel below is reachable only on hosts that
//! execute it legally.
//!
//! Determinism: the GEMM tile and `dot_lanes` reproduce the scalar
//! backend's per-element operation chains exactly (see the module docs in
//! `backend/mod.rs`); the serial reductions (`dot`, `sq_norm`, `*_delta`)
//! use a fixed four-register lane layout folded by a fixed tree —
//! deterministic for this backend, ≈1 ULP-scaled from scalar. Element-wise
//! primitives use separate mul/add (no fused contraction), matching scalar
//! rounding bitwise.

use std::arch::x86_64::{
    __m256, _mm256_add_ps, _mm256_castps128_ps256, _mm256_castps256_ps128, _mm256_extractf128_ps,
    _mm256_fmadd_ps, _mm256_insertf128_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps,
    _mm256_set_m128, _mm256_setzero_ps, _mm256_sqrt_ps, _mm256_storeu_ps, _mm256_sub_ps,
    _mm_add_ps, _mm_add_ss, _mm_cvtss_f32, _mm_loadu_ps, _mm_movehl_ps, _mm_shuffle_ps,
};

use super::{CpuBackend, DIST_ROWS, DOT_BLOCK, MR};

/// The AVX2 + FMA backend (unit struct; dispatched as `&'static dyn`).
pub(super) struct Avx2;

/// Horizontal sum of one 8-lane register with the fixed halving tree
/// `acc[t] += acc[t+w]` for `w = 4, 2, 1` — the same tree the scalar
/// `dot_lanes` applies to lanes 0..8, so the two backends agree bitwise.
#[target_feature(enable = "avx2")]
fn hsum8(v: __m256) -> f32 {
    let q = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
    let h = _mm_add_ps(q, _mm_movehl_ps(q, q));
    let s = _mm_add_ss(h, _mm_shuffle_ps(h, h, 1));
    _mm_cvtss_f32(s)
}

/// One `R`-row GEMM register tile for a single `k` panel: 16-column
/// sub-tiles (two 8-lane accumulators per row, `2R + 1` live registers),
/// then 8-column sub-tiles, then scalar remainder columns. Every output
/// element keeps the scalar chain — zeroed accumulator, ascending-`p`
/// correctly-rounded FMA, one flush add — so results are bitwise equal to
/// the scalar backend.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
fn tile<const R: usize>(
    a: &[f32],
    a_base: usize,
    ars: usize,
    aps: usize,
    kc: usize,
    bp: &[f32],
    b_base: usize,
    b_stride: usize,
    width: usize,
    c: &mut [f32],
    c_base: usize,
    c_stride: usize,
) {
    let ap = a.as_ptr();
    let bpp = bp.as_ptr();
    let mut jw = 0;
    while jw + 16 <= width {
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        for p in 0..kc {
            let boff = b_base + p * b_stride + jw;
            // SAFETY(bound: b_base + p*b_stride + jw + 16 <= bp.len()): the
            // caller's panel contract puts the full `width` row in-bounds
            // for every p < kc, and jw + 16 <= width.
            let (b0, b1) = unsafe {
                (
                    _mm256_loadu_ps(bpp.wrapping_add(boff)),
                    _mm256_loadu_ps(bpp.wrapping_add(boff + 8)),
                )
            };
            for (r, accr) in acc.iter_mut().enumerate() {
                // SAFETY(bound: a_base + r*ars + p*aps < a.len()): row r <
                // R, step p < kc of `a` per the caller's tile contract.
                let av = _mm256_set1_ps(unsafe { *ap.wrapping_add(a_base + r * ars + p * aps) });
                accr[0] = _mm256_fmadd_ps(av, b0, accr[0]);
                accr[1] = _mm256_fmadd_ps(av, b1, accr[1]);
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            // SAFETY(bound: c_base + r*c_stride + jw + 16 <= c.len()): holds
            // for every r < R (caller's output-tile contract), so the two
            // 8-lane read-modify-write pairs stay inside `c`.
            unsafe {
                let cp = c.as_mut_ptr().wrapping_add(c_base + r * c_stride + jw);
                _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), accr[0]));
                _mm256_storeu_ps(
                    cp.wrapping_add(8),
                    _mm256_add_ps(_mm256_loadu_ps(cp.wrapping_add(8)), accr[1]),
                );
            }
        }
        jw += 16;
    }
    while jw + 8 <= width {
        let mut acc = [_mm256_setzero_ps(); R];
        for p in 0..kc {
            let boff = b_base + p * b_stride + jw;
            // SAFETY(bound: b_base + p*b_stride + jw + 8 <= bp.len()): jw +
            // 8 <= width keeps this load inside the caller-guaranteed panel
            // row for p < kc.
            let b0 = unsafe { _mm256_loadu_ps(bpp.wrapping_add(boff)) };
            for (r, accr) in acc.iter_mut().enumerate() {
                // SAFETY(bound: a_base + r*ars + p*aps < a.len()): r < R,
                // p < kc per the caller's tile contract.
                let av = _mm256_set1_ps(unsafe { *ap.wrapping_add(a_base + r * ars + p * aps) });
                *accr = _mm256_fmadd_ps(av, b0, *accr);
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            // SAFETY(bound: c_base + r*c_stride + jw + 8 <= c.len()): holds
            // for r < R (caller's output-tile contract).
            unsafe {
                let cp = c.as_mut_ptr().wrapping_add(c_base + r * c_stride + jw);
                _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), *accr));
            }
        }
        jw += 8;
    }
    for t in jw..width {
        let mut s = [0.0f32; R];
        for p in 0..kc {
            // SAFETY(bound: b_base + p*b_stride + t < bp.len()): t < width
            // keeps the panel read in-bounds for p < kc.
            let bv = unsafe { *bpp.wrapping_add(b_base + p * b_stride + t) };
            for (r, sr) in s.iter_mut().enumerate() {
                // SAFETY(bound: a_base + r*ars + p*aps < a.len()): r < R,
                // p < kc per the caller's tile contract.
                let av = unsafe { *ap.wrapping_add(a_base + r * ars + p * aps) };
                *sr = av.mul_add(bv, *sr);
            }
        }
        for (r, sr) in s.iter().enumerate() {
            // SAFETY(bound: c_base + r*c_stride + t < c.len()): holds for
            // r < R, t < width (caller's output-tile contract).
            unsafe {
                let cp = c.as_mut_ptr().wrapping_add(c_base + r * c_stride + t);
                *cp += sr;
            }
        }
    }
}

/// 16-lane dot kernel: two 8-lane FMA accumulators are exactly the scalar
/// `dot_lanes` array `acc[0..16]`; `acc0 + acc1` is its `w = 8` halving
/// step and [`hsum8`] the rest of the tree — bitwise equal to scalar.
#[target_feature(enable = "avx2,fma")]
fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    let chunks = a.len() / 16;
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    for q in 0..chunks {
        // SAFETY(bound: q*16 + 16 <= a.len() == b.len()): q < len/16, so
        // all four 8-lane loads are in-bounds.
        unsafe {
            acc0 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.wrapping_add(q * 16)),
                _mm256_loadu_ps(bp.wrapping_add(q * 16)),
                acc0,
            );
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.wrapping_add(q * 16 + 8)),
                _mm256_loadu_ps(bp.wrapping_add(q * 16 + 8)),
                acc1,
            );
        }
    }
    let mut s = hsum8(_mm256_add_ps(acc0, acc1));
    for (x, y) in a.iter().skip(chunks * 16).zip(b.iter().skip(chunks * 16)) {
        s = x.mul_add(*y, s);
    }
    s
}

/// Two rows against two columns of [`dot_lanes`]: four 16-lane
/// accumulators as two 8-lane halves each (8 of the 16 `ymm` registers,
/// plus eight for the loaded chunks), each the exact per-pair chain —
/// `fmadd(a, b, acc)` per half-chunk in ascending order, the `acc0 + acc1`
/// step and [`hsum8`], then the same scalar FMA tail — so every entry is
/// bitwise `dot_lanes(a[r], b[s])`. The 4×4 block runs four of these: a
/// full 4×4 set of accumulators would need 32 `ymm` registers.
#[target_feature(enable = "avx2,fma")]
fn dot_lanes_2x2(a: [&[f32]; 2], b: [&[f32]; 2]) -> [[f32; 2]; 2] {
    let len = a.iter().chain(&b).map(|v| v.len()).min().unwrap_or(0);
    let chunks = len / 16;
    let ap = a.map(<[f32]>::as_ptr);
    let bp = b.map(<[f32]>::as_ptr);
    let mut acc = [[[_mm256_setzero_ps(); 2]; 2]; 2];
    for q in 0..chunks {
        let mut av = [[_mm256_setzero_ps(); 2]; 2];
        let mut bv = [[_mm256_setzero_ps(); 2]; 2];
        for ((va, pa), (vb, pb)) in av.iter_mut().zip(ap).zip(bv.iter_mut().zip(bp)) {
            // SAFETY(bound: q*16 + 16 <= len <= every a[r].len() and b[s].len()):
            // q < len/16 with `len` the shortest of the four slices.
            unsafe {
                *va = [
                    _mm256_loadu_ps(pa.wrapping_add(q * 16)),
                    _mm256_loadu_ps(pa.wrapping_add(q * 16 + 8)),
                ];
                *vb = [
                    _mm256_loadu_ps(pb.wrapping_add(q * 16)),
                    _mm256_loadu_ps(pb.wrapping_add(q * 16 + 8)),
                ];
            }
        }
        for (accr, [a_lo, a_hi]) in acc.iter_mut().zip(av) {
            for (acc_rs, [b_lo, b_hi]) in accr.iter_mut().zip(bv) {
                let [lo, hi] = *acc_rs;
                *acc_rs = [
                    _mm256_fmadd_ps(a_lo, b_lo, lo),
                    _mm256_fmadd_ps(a_hi, b_hi, hi),
                ];
            }
        }
    }
    let tail = chunks * 16;
    let mut out = [[0.0f32; 2]; 2];
    for ((out_r, acc_r), ar) in out.iter_mut().zip(acc).zip(a) {
        for ((o, [lo, hi]), bs) in out_r.iter_mut().zip(acc_r).zip(b) {
            let mut s = hsum8(_mm256_add_ps(lo, hi));
            for (x, y) in ar.iter().skip(tail).zip(bs.iter().skip(tail)) {
                s = x.mul_add(*y, s);
            }
            *o = s;
        }
    }
    out
}

/// Columns per register block of [`sq_distance_rows`]: two column groups
/// of two, one accumulator per row and group (8 of the 16 `ymm`
/// registers).
const DIST_COLS: usize = 4;

/// One `DIST_ROWS × 2G` block of squared distances (`G ≤ 2` groups of two
/// columns; `cols.len() ≤ 2G`). Each `ymm` holds two pairs, one per
/// 128-bit half: a row's 4-float chunk fills both halves and two
/// columns' chunks go one per half, so half `k` of accumulator `(r, g)`
/// is pair `(r, 2g + k)`'s four lane sums — exactly `sq_distance`'s
/// `s0..s3`. A separate `sub`, `mul` and `add` per chunk (never FMA)
/// keeps every lane's rounding, and the fold `((s0+s1)+(s2+s3))+tail`
/// runs per pair in scalar, so each entry is bitwise
/// `sq_distance(rows[r], cols[c])`. A partial last group repeats the
/// block's last column; that lane pair is computed and dropped.
#[target_feature(enable = "avx2")]
fn sq_distance_block<const G: usize>(
    rows: [&[f32]; DIST_ROWS],
    cols: &[&[f32]],
) -> [[f32; DIST_COLS]; DIST_ROWS] {
    let cs: [[&[f32]; 2]; G] = std::array::from_fn(|g| {
        std::array::from_fn(|k| cols.get(2 * g + k).or(cols.last()).copied().unwrap_or(&[]))
    });
    let len = rows
        .iter()
        .chain(cs.iter().flatten())
        .map(|v| v.len())
        .min()
        .unwrap_or(0);
    let chunks = len / 4;
    let rp = rows.map(<[f32]>::as_ptr);
    let cp = cs.map(|g| g.map(<[f32]>::as_ptr));
    let mut acc = [[_mm256_setzero_ps(); G]; DIST_ROWS];
    for q in 0..chunks {
        let off = 4 * q;
        let mut y = [_mm256_setzero_ps(); G];
        for (yg, [c0, c1]) in y.iter_mut().zip(cp) {
            // SAFETY(bound: off + 4 <= len <= every column's length): q <
            // len/4 with `len` the shortest slice of the block.
            unsafe {
                let v = _mm256_castps128_ps256(_mm_loadu_ps(c0.wrapping_add(off)));
                *yg = _mm256_insertf128_ps::<1>(v, _mm_loadu_ps(c1.wrapping_add(off)));
            }
        }
        for (acc_r, p) in acc.iter_mut().zip(rp) {
            // SAFETY(bound: off + 4 <= len <= every row's length): q <
            // len/4 with `len` the shortest slice of the block.
            let xr = unsafe { _mm_loadu_ps(p.wrapping_add(off)) };
            let x = _mm256_set_m128(xr, xr);
            for (a, yg) in acc_r.iter_mut().zip(y) {
                let d = _mm256_sub_ps(x, yg);
                *a = _mm256_add_ps(*a, _mm256_mul_ps(d, d));
            }
        }
    }
    let tail = chunks * 4;
    let mut out = [[0.0f32; DIST_COLS]; DIST_ROWS];
    for ((out_r, acc_r), row) in out.iter_mut().zip(acc).zip(rows) {
        for ((out_g, a), cg) in out_r.chunks_exact_mut(2).zip(acc_r).zip(&cs) {
            let mut halves = [0.0f32; 8];
            // SAFETY(bound: halves.len() == 8): one 8-lane store into an
            // 8-float local.
            unsafe { _mm256_storeu_ps(halves.as_mut_ptr(), a) };
            for ((o, s), col) in out_g.iter_mut().zip(halves.chunks_exact(4)).zip(cg) {
                let mut t = 0.0f32;
                for (x, y) in row.iter().skip(tail).zip(col.iter().skip(tail)) {
                    let d = x - y;
                    t += d * d;
                }
                if let [s0, s1, s2, s3] = *s {
                    *o = ((s0 + s1) + (s2 + s3)) + t;
                }
            }
        }
    }
    out
}

/// Squared-distance rows in register blocks of `DIST_ROWS ×` [`DIST_COLS`]
/// (8 accumulators); a last block of one or two columns uses one group.
#[target_feature(enable = "avx2")]
fn sq_distance_rows(rows: [&[f32]; DIST_ROWS], cols: &[&[f32]], out: [&mut [f32]; DIST_ROWS]) {
    let mut out = out;
    for (b, block) in cols.chunks(DIST_COLS).enumerate() {
        let (j, w) = (b * DIST_COLS, block.len());
        let dists = if w > 2 {
            sq_distance_block::<2>(rows, block)
        } else {
            sq_distance_block::<1>(rows, block)
        };
        for (dst, drow) in out.iter_mut().zip(&dists) {
            if let (Some(dst), Some(src)) = (dst.get_mut(j..j + w), drow.get(..w)) {
                dst.copy_from_slice(src);
            }
        }
    }
}

/// Serial-reduction layout shared by `dot`/`sq_norm`/`*_delta`: four
/// 8-lane FMA accumulators striped over 8-element blocks (`block q →
/// acc[q & 3]`), folded `(0+1) + (2+3)` then [`hsum8`], scalar FMA tail.
/// Fixed order for this backend; reassociated relative to scalar.
#[target_feature(enable = "avx2,fma")]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let blocks = a.len() / 8;
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc = [_mm256_setzero_ps(); 4];
    for q in 0..blocks {
        // SAFETY(bound: q*8 + 8 <= a.len() == b.len()): q < len/8, so both
        // 8-lane loads are in-bounds.
        let (av, bv) = unsafe {
            (
                _mm256_loadu_ps(ap.wrapping_add(q * 8)),
                _mm256_loadu_ps(bp.wrapping_add(q * 8)),
            )
        };
        acc[q & 3] = _mm256_fmadd_ps(av, bv, acc[q & 3]);
    }
    let v = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
    let mut s = hsum8(v);
    for (x, y) in a.iter().skip(blocks * 8).zip(b.iter().skip(blocks * 8)) {
        s = x.mul_add(*y, s);
    }
    s
}

/// Same lane layout as [`dot`] with `x·x` terms.
#[target_feature(enable = "avx2,fma")]
fn sq_norm(a: &[f32]) -> f32 {
    let blocks = a.len() / 8;
    let ap = a.as_ptr();
    let mut acc = [_mm256_setzero_ps(); 4];
    for q in 0..blocks {
        // SAFETY(bound: q*8 + 8 <= a.len()): q < len/8, so the 8-lane load
        // is in-bounds.
        let av = unsafe { _mm256_loadu_ps(ap.wrapping_add(q * 8)) };
        acc[q & 3] = _mm256_fmadd_ps(av, av, acc[q & 3]);
    }
    let v = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
    let mut s = hsum8(v);
    for x in a.iter().skip(blocks * 8) {
        s = x.mul_add(*x, s);
    }
    s
}

/// [`dot`]'s exact structure on on-the-fly deltas — each `xᵢ−rᵢ` rounds
/// identically whether or not it is materialized, so this is bitwise
/// `dot(a−r, b−r)` for this backend.
#[target_feature(enable = "avx2,fma")]
fn dot_delta(a: &[f32], b: &[f32], r: &[f32]) -> f32 {
    let blocks = a.len() / 8;
    let (ap, bp, rp) = (a.as_ptr(), b.as_ptr(), r.as_ptr());
    let mut acc = [_mm256_setzero_ps(); 4];
    for q in 0..blocks {
        // SAFETY(bound: q*8 + 8 <= a.len() == b.len() == r.len()): q <
        // len/8, so all three 8-lane loads are in-bounds.
        let (av, bv, rv) = unsafe {
            (
                _mm256_loadu_ps(ap.wrapping_add(q * 8)),
                _mm256_loadu_ps(bp.wrapping_add(q * 8)),
                _mm256_loadu_ps(rp.wrapping_add(q * 8)),
            )
        };
        acc[q & 3] = _mm256_fmadd_ps(_mm256_sub_ps(av, rv), _mm256_sub_ps(bv, rv), acc[q & 3]);
    }
    let v = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
    let mut s = hsum8(v);
    let tail = blocks * 8;
    for ((x, y), cv) in a
        .iter()
        .skip(tail)
        .zip(b.iter().skip(tail))
        .zip(r.iter().skip(tail))
    {
        s = (x - cv).mul_add(y - cv, s);
    }
    s
}

/// [`sq_norm`]'s exact structure on on-the-fly deltas — bitwise
/// `sq_norm(a−r)` for this backend.
#[target_feature(enable = "avx2,fma")]
fn sq_norm_delta(a: &[f32], r: &[f32]) -> f32 {
    let blocks = a.len() / 8;
    let (ap, rp) = (a.as_ptr(), r.as_ptr());
    let mut acc = [_mm256_setzero_ps(); 4];
    for q in 0..blocks {
        // SAFETY(bound: q*8 + 8 <= a.len() == r.len()): q < len/8, so both
        // 8-lane loads are in-bounds.
        let (av, rv) = unsafe {
            (
                _mm256_loadu_ps(ap.wrapping_add(q * 8)),
                _mm256_loadu_ps(rp.wrapping_add(q * 8)),
            )
        };
        let d = _mm256_sub_ps(av, rv);
        acc[q & 3] = _mm256_fmadd_ps(d, d, acc[q & 3]);
    }
    let v = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
    let mut s = hsum8(v);
    for (x, cv) in a.iter().skip(blocks * 8).zip(r.iter().skip(blocks * 8)) {
        let d = x - cv;
        s = d.mul_add(d, s);
    }
    s
}

/// `out[i] += src[i]`, 8 lanes at a time — independent per-coordinate
/// adds, bitwise equal to scalar.
#[target_feature(enable = "avx2")]
fn add_assign(out: &mut [f32], src: &[f32]) {
    let blocks = out.len() / 8;
    let (op, sp) = (out.as_mut_ptr(), src.as_ptr());
    for q in 0..blocks {
        // SAFETY(bound: q*8 + 8 <= out.len() == src.len()): q < len/8, so
        // the 8-lane load/store pair stays in-bounds.
        unsafe {
            let o = _mm256_loadu_ps(op.wrapping_add(q * 8));
            _mm256_storeu_ps(
                op.wrapping_add(q * 8),
                _mm256_add_ps(o, _mm256_loadu_ps(sp.wrapping_add(q * 8))),
            );
        }
    }
    for (o, x) in out
        .iter_mut()
        .skip(blocks * 8)
        .zip(src.iter().skip(blocks * 8))
    {
        *o += x;
    }
}

/// `out[i] *= alpha` — bitwise equal to scalar.
#[target_feature(enable = "avx2")]
fn scale_assign(out: &mut [f32], alpha: f32) {
    let blocks = out.len() / 8;
    let av = _mm256_set1_ps(alpha);
    let op = out.as_mut_ptr();
    for q in 0..blocks {
        // SAFETY(bound: q*8 + 8 <= out.len()): q < len/8, so the 8-lane
        // load/store pair stays in-bounds.
        unsafe {
            _mm256_storeu_ps(
                op.wrapping_add(q * 8),
                _mm256_mul_ps(_mm256_loadu_ps(op.wrapping_add(q * 8)), av),
            );
        }
    }
    for o in out.iter_mut().skip(blocks * 8) {
        *o *= alpha;
    }
}

/// `out[i] += (v[i] − m[i])²` via separate sub/mul/add — the scalar
/// variance-accumulate rounding, bitwise equal to scalar.
#[target_feature(enable = "avx2")]
fn sq_dev_assign(out: &mut [f32], v: &[f32], m: &[f32]) {
    let blocks = out.len() / 8;
    let (op, vp, mp) = (out.as_mut_ptr(), v.as_ptr(), m.as_ptr());
    for q in 0..blocks {
        // SAFETY(bound: q*8 + 8 <= out.len() == v.len() == m.len()): q <
        // len/8, so every 8-lane access stays in-bounds.
        unsafe {
            let d = _mm256_sub_ps(
                _mm256_loadu_ps(vp.wrapping_add(q * 8)),
                _mm256_loadu_ps(mp.wrapping_add(q * 8)),
            );
            let o = _mm256_loadu_ps(op.wrapping_add(q * 8));
            _mm256_storeu_ps(
                op.wrapping_add(q * 8),
                _mm256_add_ps(o, _mm256_mul_ps(d, d)),
            );
        }
    }
    let tail = blocks * 8;
    for (o, (x, mv)) in out
        .iter_mut()
        .skip(tail)
        .zip(v.iter().skip(tail).zip(m.iter().skip(tail)))
    {
        let diff = x - mv;
        *o += diff * diff;
    }
}

/// `out[i] = sqrt(out[i] * alpha)` — `sqrt` is correctly rounded, bitwise
/// equal to scalar.
#[target_feature(enable = "avx2")]
fn scale_sqrt_assign(out: &mut [f32], alpha: f32) {
    let blocks = out.len() / 8;
    let av = _mm256_set1_ps(alpha);
    let op = out.as_mut_ptr();
    for q in 0..blocks {
        // SAFETY(bound: q*8 + 8 <= out.len()): q < len/8, so the 8-lane
        // load/store pair stays in-bounds.
        unsafe {
            let o = _mm256_loadu_ps(op.wrapping_add(q * 8));
            _mm256_storeu_ps(op.wrapping_add(q * 8), _mm256_sqrt_ps(_mm256_mul_ps(o, av)));
        }
    }
    for o in out.iter_mut().skip(blocks * 8) {
        *o = (*o * alpha).sqrt();
    }
}

/// `out[i] += alpha * src[i]` via separate mul/add — bitwise equal to
/// scalar `axpy_in_place`.
#[target_feature(enable = "avx2")]
fn axpy_assign(out: &mut [f32], alpha: f32, src: &[f32]) {
    let blocks = out.len() / 8;
    let av = _mm256_set1_ps(alpha);
    let (op, sp) = (out.as_mut_ptr(), src.as_ptr());
    for q in 0..blocks {
        // SAFETY(bound: q*8 + 8 <= out.len() == src.len()): q < len/8, so
        // the 8-lane load/store pair stays in-bounds.
        unsafe {
            let o = _mm256_loadu_ps(op.wrapping_add(q * 8));
            _mm256_storeu_ps(
                op.wrapping_add(q * 8),
                _mm256_add_ps(
                    o,
                    _mm256_mul_ps(av, _mm256_loadu_ps(sp.wrapping_add(q * 8))),
                ),
            );
        }
    }
    for (o, y) in out
        .iter_mut()
        .skip(blocks * 8)
        .zip(src.iter().skip(blocks * 8))
    {
        *o += alpha * y;
    }
}

impl CpuBackend for Avx2 {
    fn name(&self) -> &'static str {
        "avx2"
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
        // SAFETY(feature: avx2,fma): `Avx2` is only instantiated after the
        // dispatcher detected both features, so the tile kernels are
        // executable on this host.
        unsafe {
            match rows {
                4 => tile::<4>(
                    a,
                    a_base,
                    a_row_stride,
                    a_p_stride,
                    kc,
                    bp,
                    b_base,
                    b_stride,
                    width,
                    c,
                    c_base,
                    c_stride,
                ),
                3 => tile::<3>(
                    a,
                    a_base,
                    a_row_stride,
                    a_p_stride,
                    kc,
                    bp,
                    b_base,
                    b_stride,
                    width,
                    c,
                    c_base,
                    c_stride,
                ),
                2 => tile::<2>(
                    a,
                    a_base,
                    a_row_stride,
                    a_p_stride,
                    kc,
                    bp,
                    b_base,
                    b_stride,
                    width,
                    c,
                    c_base,
                    c_stride,
                ),
                _ => tile::<1>(
                    a,
                    a_base,
                    a_row_stride,
                    a_p_stride,
                    kc,
                    bp,
                    b_base,
                    b_stride,
                    width,
                    c,
                    c_base,
                    c_stride,
                ),
            }
        }
    }

    fn dot_lanes(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        // SAFETY(feature: avx2,fma): detected by the dispatcher before this
        // backend was handed out.
        unsafe { dot_lanes(a, b) }
    }

    fn dot_lanes_4x4(
        &self,
        a: [&[f32]; DOT_BLOCK],
        b: [&[f32]; DOT_BLOCK],
    ) -> [[f32; DOT_BLOCK]; DOT_BLOCK] {
        let [a0, a1, a2, a3] = a;
        let [b0, b1, b2, b3] = b;
        // SAFETY(feature: avx2,fma): detected by the dispatcher before this
        // backend was handed out.
        let [[tl0, tl1], [tr0, tr1], [bl0, bl1], [br0, br1]] = unsafe {
            [
                dot_lanes_2x2([a0, a1], [b0, b1]),
                dot_lanes_2x2([a0, a1], [b2, b3]),
                dot_lanes_2x2([a2, a3], [b0, b1]),
                dot_lanes_2x2([a2, a3], [b2, b3]),
            ]
        };
        let row = |[x, y]: [f32; 2], [z, w]: [f32; 2]| [x, y, z, w];
        [row(tl0, tr0), row(tl1, tr1), row(bl0, br0), row(bl1, br1)]
    }

    fn sq_distance_rows(
        &self,
        rows: [&[f32]; DIST_ROWS],
        cols: &[&[f32]],
        out: [&mut [f32]; DIST_ROWS],
    ) {
        // SAFETY(feature: avx2,fma): detected by the dispatcher before this
        // backend was handed out.
        unsafe { sq_distance_rows(rows, cols, out) }
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        // SAFETY(feature: avx2,fma): detected by the dispatcher before this
        // backend was handed out.
        unsafe { dot(a, b) }
    }

    fn sq_norm(&self, a: &[f32]) -> f32 {
        // SAFETY(feature: avx2,fma): detected by the dispatcher before this
        // backend was handed out.
        unsafe { sq_norm(a) }
    }

    fn dot_delta(&self, a: &[f32], b: &[f32], r: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len(), r.len());
        // SAFETY(feature: avx2,fma): detected by the dispatcher before this
        // backend was handed out.
        unsafe { dot_delta(a, b, r) }
    }

    fn sq_norm_delta(&self, a: &[f32], r: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), r.len());
        // SAFETY(feature: avx2,fma): detected by the dispatcher before this
        // backend was handed out.
        unsafe { sq_norm_delta(a, r) }
    }

    fn add_assign(&self, out: &mut [f32], src: &[f32]) {
        debug_assert_eq!(out.len(), src.len());
        // SAFETY(feature: avx2): detected by the dispatcher before this
        // backend was handed out.
        unsafe { add_assign(out, src) }
    }

    fn scale_assign(&self, out: &mut [f32], alpha: f32) {
        // SAFETY(feature: avx2): detected by the dispatcher before this
        // backend was handed out.
        unsafe { scale_assign(out, alpha) }
    }

    fn sq_dev_assign(&self, out: &mut [f32], v: &[f32], m: &[f32]) {
        debug_assert_eq!(out.len(), v.len());
        debug_assert_eq!(out.len(), m.len());
        // SAFETY(feature: avx2): detected by the dispatcher before this
        // backend was handed out.
        unsafe { sq_dev_assign(out, v, m) }
    }

    fn scale_sqrt_assign(&self, out: &mut [f32], alpha: f32) {
        // SAFETY(feature: avx2): detected by the dispatcher before this
        // backend was handed out.
        unsafe { scale_sqrt_assign(out, alpha) }
    }

    fn axpy_assign(&self, out: &mut [f32], alpha: f32, src: &[f32]) {
        debug_assert_eq!(out.len(), src.len());
        // SAFETY(feature: avx2): detected by the dispatcher before this
        // backend was handed out.
        unsafe { axpy_assign(out, alpha, src) }
    }
}
