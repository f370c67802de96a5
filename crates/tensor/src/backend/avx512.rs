//! AVX-512F backend (512-bit lanes, masked remainders).
//!
//! Only constructed by the dispatcher after
//! `is_x86_feature_detected!("avx512f")` succeeds. Mirrors `avx2.rs`
//! structurally; see `backend/mod.rs` for the per-backend determinism
//! contract. The horizontal tree uses `extractf64x4`/`castpd` shuffles so
//! everything stays inside the F subset (no DQ/BW requirements).

use std::arch::x86_64::{
    __m512, __mmask16, _mm256_add_ps, _mm256_castpd_ps, _mm512_add_ps, _mm512_broadcast_f32x4,
    _mm512_castps128_ps512, _mm512_castps_pd, _mm512_extractf64x4_pd, _mm512_fmadd_ps,
    _mm512_insertf32x4, _mm512_loadu_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps,
    _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_sqrt_ps, _mm512_storeu_ps,
    _mm512_sub_ps, _mm_loadu_ps,
};

use super::{CpuBackend, DIST_ROWS, DOT_BLOCK, MR};

/// The AVX-512F backend (unit struct; dispatched as `&'static dyn`).
pub(super) struct Avx512;

/// Lower 256 bits of a 512-bit register (bit-preserving casts only).
#[target_feature(enable = "avx512f")]
fn lo256(v: __m512) -> std::arch::x86_64::__m256 {
    _mm256_castpd_ps(std::arch::x86_64::_mm512_castpd512_pd256(_mm512_castps_pd(
        v,
    )))
}

/// Upper 256 bits of a 512-bit register via `extractf64x4` (AVX-512F;
/// `extractf32x8` would need DQ).
#[target_feature(enable = "avx512f")]
fn hi256(v: __m512) -> std::arch::x86_64::__m256 {
    _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1))
}

/// Horizontal sum of one 16-lane register with the fixed halving tree
/// `acc[t] += acc[t+w]` for `w = 8, 4, 2, 1` — exactly the scalar
/// `dot_lanes` combining tree, so the backends agree bitwise.
#[target_feature(enable = "avx512f")]
fn hsum16(v: __m512) -> f32 {
    use std::arch::x86_64::{
        _mm256_castps256_ps128, _mm256_extractf128_ps, _mm_add_ps, _mm_add_ss, _mm_cvtss_f32,
        _mm_movehl_ps, _mm_shuffle_ps,
    };
    let y = _mm256_add_ps(lo256(v), hi256(v));
    let q = _mm_add_ps(_mm256_castps256_ps128(y), _mm256_extractf128_ps(y, 1));
    let h = _mm_add_ps(q, _mm_movehl_ps(q, q));
    let s = _mm_add_ss(h, _mm_shuffle_ps(h, h, 1));
    _mm_cvtss_f32(s)
}

/// One `R`-row GEMM register tile for a single `k` panel: 64-column
/// sub-tiles (four 16-lane accumulators per row — 16 of the 32 `zmm`
/// registers at `R = 4`), then 16-column sub-tiles, then one masked
/// sub-tile for the remainder columns. Every output element keeps the
/// scalar chain (zeroed accumulator, ascending-`p` correctly-rounded FMA,
/// one flush add) — masking only selects *which* elements exist, never
/// reorders a chain — so results are bitwise equal to the scalar backend.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
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
    while jw + 64 <= width {
        let mut acc = [[_mm512_setzero_ps(); 4]; R];
        for p in 0..kc {
            let boff = b_base + p * b_stride + jw;
            // SAFETY(bound: b_base + p*b_stride + jw + 64 <= bp.len()): the
            // caller's panel contract puts the full `width` row in-bounds
            // for every p < kc, and jw + 64 <= width.
            let bv = unsafe {
                [
                    _mm512_loadu_ps(bpp.wrapping_add(boff)),
                    _mm512_loadu_ps(bpp.wrapping_add(boff + 16)),
                    _mm512_loadu_ps(bpp.wrapping_add(boff + 32)),
                    _mm512_loadu_ps(bpp.wrapping_add(boff + 48)),
                ]
            };
            for (r, accr) in acc.iter_mut().enumerate() {
                // SAFETY(bound: a_base + r*ars + p*aps < a.len()): row r <
                // R, step p < kc of `a` per the caller's tile contract.
                let av = _mm512_set1_ps(unsafe { *ap.wrapping_add(a_base + r * ars + p * aps) });
                for (t, b) in bv.iter().enumerate() {
                    accr[t] = _mm512_fmadd_ps(av, *b, accr[t]);
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            // SAFETY(bound: c_base + r*c_stride + jw + 64 <= c.len()): holds
            // for every r < R (caller's output-tile contract), so the four
            // 16-lane read-modify-write pairs stay inside `c`.
            unsafe {
                let cp = c.as_mut_ptr().wrapping_add(c_base + r * c_stride + jw);
                for (t, av) in accr.iter().enumerate() {
                    let dst = cp.wrapping_add(t * 16);
                    _mm512_storeu_ps(dst, _mm512_add_ps(_mm512_loadu_ps(dst), *av));
                }
            }
        }
        jw += 64;
    }
    while jw + 16 <= width {
        let mut acc = [_mm512_setzero_ps(); R];
        for p in 0..kc {
            let boff = b_base + p * b_stride + jw;
            // SAFETY(bound: b_base + p*b_stride + jw + 16 <= bp.len()): jw +
            // 16 <= width keeps this load inside the caller-guaranteed panel
            // row for p < kc.
            let b0 = unsafe { _mm512_loadu_ps(bpp.wrapping_add(boff)) };
            for (r, accr) in acc.iter_mut().enumerate() {
                // SAFETY(bound: a_base + r*ars + p*aps < a.len()): r < R,
                // p < kc per the caller's tile contract.
                let av = _mm512_set1_ps(unsafe { *ap.wrapping_add(a_base + r * ars + p * aps) });
                *accr = _mm512_fmadd_ps(av, b0, *accr);
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            // SAFETY(bound: c_base + r*c_stride + jw + 16 <= c.len()): holds
            // for r < R (caller's output-tile contract).
            unsafe {
                let cp = c.as_mut_ptr().wrapping_add(c_base + r * c_stride + jw);
                _mm512_storeu_ps(cp, _mm512_add_ps(_mm512_loadu_ps(cp), *accr));
            }
        }
        jw += 16;
    }
    let rem = width - jw;
    if rem > 0 {
        let mask: __mmask16 = (1u16 << rem) - 1;
        let mut acc = [_mm512_setzero_ps(); R];
        for p in 0..kc {
            let boff = b_base + p * b_stride + jw;
            // SAFETY(bound: b_base + p*b_stride + jw + rem <= bp.len()): the
            // masked load touches only the `rem` in-bounds lanes (jw + rem
            // == width); masked-out lanes never fault.
            let b0 = unsafe { _mm512_maskz_loadu_ps(mask, bpp.wrapping_add(boff)) };
            for (r, accr) in acc.iter_mut().enumerate() {
                // SAFETY(bound: a_base + r*ars + p*aps < a.len()): r < R,
                // p < kc per the caller's tile contract.
                let av = _mm512_set1_ps(unsafe { *ap.wrapping_add(a_base + r * ars + p * aps) });
                *accr = _mm512_fmadd_ps(av, b0, *accr);
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            // SAFETY(bound: c_base + r*c_stride + jw + rem <= c.len()): the
            // masked load/store touch only the `rem` lanes ending at the
            // caller-guaranteed row end; masked-out lanes never fault.
            unsafe {
                let cp = c.as_mut_ptr().wrapping_add(c_base + r * c_stride + jw);
                let cur = _mm512_maskz_loadu_ps(mask, cp);
                _mm512_mask_storeu_ps(cp, mask, _mm512_add_ps(cur, *accr));
            }
        }
    }
}

/// 16-lane dot kernel: one 16-lane FMA accumulator is exactly the scalar
/// `dot_lanes` array, [`hsum16`] its halving tree — bitwise equal to
/// scalar.
#[target_feature(enable = "avx512f")]
fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    let chunks = a.len() / 16;
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc = _mm512_setzero_ps();
    for q in 0..chunks {
        // SAFETY(bound: q*16 + 16 <= a.len() == b.len()): q < len/16, so
        // both 16-lane loads are in-bounds.
        unsafe {
            acc = _mm512_fmadd_ps(
                _mm512_loadu_ps(ap.wrapping_add(q * 16)),
                _mm512_loadu_ps(bp.wrapping_add(q * 16)),
                acc,
            );
        }
    }
    let mut s = hsum16(acc);
    for (x, y) in a.iter().skip(chunks * 16).zip(b.iter().skip(chunks * 16)) {
        s = x.mul_add(*y, s);
    }
    s
}

/// Four rows against four columns of [`dot_lanes`]: sixteen 16-lane FMA
/// accumulators (16 of the 32 `zmm` registers, plus eight for the loaded
/// chunks), each the exact per-pair chain — `fmadd(a, b, acc)` per chunk
/// in ascending order, [`hsum16`], then the same scalar FMA tail — so
/// every entry is bitwise `dot_lanes(a[r], b[s])`. Each loaded chunk
/// feeds four FMAs instead of one.
#[target_feature(enable = "avx512f")]
fn dot_lanes_4x4(a: [&[f32]; DOT_BLOCK], b: [&[f32]; DOT_BLOCK]) -> [[f32; DOT_BLOCK]; DOT_BLOCK] {
    let len = a.iter().chain(&b).map(|v| v.len()).min().unwrap_or(0);
    let chunks = len / 16;
    let ap = a.map(<[f32]>::as_ptr);
    let bp = b.map(<[f32]>::as_ptr);
    let mut acc = [[_mm512_setzero_ps(); DOT_BLOCK]; DOT_BLOCK];
    for q in 0..chunks {
        let mut av = [_mm512_setzero_ps(); DOT_BLOCK];
        let mut bv = [_mm512_setzero_ps(); DOT_BLOCK];
        for ((va, pa), (vb, pb)) in av.iter_mut().zip(ap).zip(bv.iter_mut().zip(bp)) {
            // SAFETY(bound: q*16 + 16 <= len <= every a[r].len() and b[s].len()):
            // q < len/16 with `len` the shortest of the eight slices.
            unsafe {
                *va = _mm512_loadu_ps(pa.wrapping_add(q * 16));
                *vb = _mm512_loadu_ps(pb.wrapping_add(q * 16));
            }
        }
        for (accr, va) in acc.iter_mut().zip(av) {
            for (acc_rs, vb) in accr.iter_mut().zip(bv) {
                *acc_rs = _mm512_fmadd_ps(va, vb, *acc_rs);
            }
        }
    }
    let tail = chunks * 16;
    let mut out = [[0.0f32; DOT_BLOCK]; DOT_BLOCK];
    for ((out_r, acc_r), ar) in out.iter_mut().zip(acc).zip(a) {
        for ((o, acc_rs), bs) in out_r.iter_mut().zip(acc_r).zip(b) {
            let mut s = hsum16(acc_rs);
            for (x, y) in ar.iter().skip(tail).zip(bs.iter().skip(tail)) {
                s = x.mul_add(*y, s);
            }
            *o = s;
        }
    }
    out
}

/// Columns per register block of [`sq_distance_rows`]: four column
/// groups of four, one accumulator per row and group.
const DIST_COLS: usize = 16;

/// One `DIST_ROWS × 4G` block of squared distances (`G ≤ 4` groups of
/// four columns; `cols.len() ≤ 4G`). Each `zmm` holds four pairs, one per
/// 128-bit quarter: a row's 4-float chunk is broadcast to all quarters and
/// four columns' chunks are inserted one per quarter, so quarter `k` of
/// accumulator `(r, g)` is pair `(r, 4g + k)`'s four lane sums — exactly
/// `sq_distance`'s `s0..s3`. A separate `sub`, `mul` and `add` per chunk
/// (never FMA) keeps every lane's rounding, and the fold
/// `((s0+s1)+(s2+s3))+tail` runs per pair in scalar, so each entry is
/// bitwise `sq_distance(rows[r], cols[c])`. A partial last group repeats
/// the block's last column; those lanes are computed and dropped.
#[target_feature(enable = "avx512f")]
fn sq_distance_block<const G: usize>(
    rows: [&[f32]; DIST_ROWS],
    cols: &[&[f32]],
) -> [[f32; DIST_COLS]; DIST_ROWS] {
    let cs: [[&[f32]; 4]; G] = std::array::from_fn(|g| {
        std::array::from_fn(|k| cols.get(4 * g + k).or(cols.last()).copied().unwrap_or(&[]))
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
    let mut acc = [[_mm512_setzero_ps(); G]; DIST_ROWS];
    for q in 0..chunks {
        let off = 4 * q;
        let mut y = [_mm512_setzero_ps(); G];
        for (yg, [c0, c1, c2, c3]) in y.iter_mut().zip(cp) {
            // SAFETY(bound: off + 4 <= len <= every column's length): q <
            // len/4 with `len` the shortest slice of the block.
            unsafe {
                let v = _mm512_castps128_ps512(_mm_loadu_ps(c0.wrapping_add(off)));
                let v = _mm512_insertf32x4::<1>(v, _mm_loadu_ps(c1.wrapping_add(off)));
                let v = _mm512_insertf32x4::<2>(v, _mm_loadu_ps(c2.wrapping_add(off)));
                *yg = _mm512_insertf32x4::<3>(v, _mm_loadu_ps(c3.wrapping_add(off)));
            }
        }
        for (acc_r, p) in acc.iter_mut().zip(rp) {
            // SAFETY(bound: off + 4 <= len <= every row's length): q <
            // len/4 with `len` the shortest slice of the block.
            let x = _mm512_broadcast_f32x4(unsafe { _mm_loadu_ps(p.wrapping_add(off)) });
            for (a, yg) in acc_r.iter_mut().zip(y) {
                let d = _mm512_sub_ps(x, yg);
                *a = _mm512_add_ps(*a, _mm512_mul_ps(d, d));
            }
        }
    }
    let tail = chunks * 4;
    let mut out = [[0.0f32; DIST_COLS]; DIST_ROWS];
    for ((out_r, acc_r), row) in out.iter_mut().zip(acc).zip(rows) {
        for ((out_g, a), cg) in out_r.chunks_exact_mut(4).zip(acc_r).zip(&cs) {
            let mut quarters = [0.0f32; 16];
            // SAFETY(bound: quarters.len() == 16): one 16-lane store into
            // a 16-float local.
            unsafe { _mm512_storeu_ps(quarters.as_mut_ptr(), a) };
            for ((o, s), col) in out_g.iter_mut().zip(quarters.chunks_exact(4)).zip(cg) {
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
/// (16 accumulators); the last block narrows to the groups it needs.
#[target_feature(enable = "avx512f")]
fn sq_distance_rows(rows: [&[f32]; DIST_ROWS], cols: &[&[f32]], out: [&mut [f32]; DIST_ROWS]) {
    let mut out = out;
    for (b, block) in cols.chunks(DIST_COLS).enumerate() {
        let (j, w) = (b * DIST_COLS, block.len());
        let dists = match w.div_ceil(4) {
            4 => sq_distance_block::<4>(rows, block),
            3 => sq_distance_block::<3>(rows, block),
            2 => sq_distance_block::<2>(rows, block),
            _ => sq_distance_block::<1>(rows, block),
        };
        for (dst, drow) in out.iter_mut().zip(&dists) {
            if let (Some(dst), Some(src)) = (dst.get_mut(j..j + w), drow.get(..w)) {
                dst.copy_from_slice(src);
            }
        }
    }
}

/// Serial-reduction layout shared by `dot`/`sq_norm`/`*_delta`: four
/// 16-lane FMA accumulators striped over 16-element blocks (`block q →
/// acc[q & 3]`), folded `(0+1) + (2+3)` then [`hsum16`], scalar FMA tail.
/// Fixed order for this backend; reassociated relative to scalar.
#[target_feature(enable = "avx512f")]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let blocks = a.len() / 16;
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc = [_mm512_setzero_ps(); 4];
    for q in 0..blocks {
        // SAFETY(bound: q*16 + 16 <= a.len() == b.len()): q < len/16, so
        // both 16-lane loads are in-bounds.
        let (av, bv) = unsafe {
            (
                _mm512_loadu_ps(ap.wrapping_add(q * 16)),
                _mm512_loadu_ps(bp.wrapping_add(q * 16)),
            )
        };
        acc[q & 3] = _mm512_fmadd_ps(av, bv, acc[q & 3]);
    }
    let v = _mm512_add_ps(_mm512_add_ps(acc[0], acc[1]), _mm512_add_ps(acc[2], acc[3]));
    let mut s = hsum16(v);
    for (x, y) in a.iter().skip(blocks * 16).zip(b.iter().skip(blocks * 16)) {
        s = x.mul_add(*y, s);
    }
    s
}

/// Same lane layout as [`dot`] with `x·x` terms.
#[target_feature(enable = "avx512f")]
fn sq_norm(a: &[f32]) -> f32 {
    let blocks = a.len() / 16;
    let ap = a.as_ptr();
    let mut acc = [_mm512_setzero_ps(); 4];
    for q in 0..blocks {
        // SAFETY(bound: q*16 + 16 <= a.len()): q < len/16, so the 16-lane
        // load is in-bounds.
        let av = unsafe { _mm512_loadu_ps(ap.wrapping_add(q * 16)) };
        acc[q & 3] = _mm512_fmadd_ps(av, av, acc[q & 3]);
    }
    let v = _mm512_add_ps(_mm512_add_ps(acc[0], acc[1]), _mm512_add_ps(acc[2], acc[3]));
    let mut s = hsum16(v);
    for x in a.iter().skip(blocks * 16) {
        s = x.mul_add(*x, s);
    }
    s
}

/// [`dot`]'s exact structure on on-the-fly deltas — bitwise
/// `dot(a−r, b−r)` for this backend.
#[target_feature(enable = "avx512f")]
fn dot_delta(a: &[f32], b: &[f32], r: &[f32]) -> f32 {
    let blocks = a.len() / 16;
    let (ap, bp, rp) = (a.as_ptr(), b.as_ptr(), r.as_ptr());
    let mut acc = [_mm512_setzero_ps(); 4];
    for q in 0..blocks {
        // SAFETY(bound: q*16 + 16 <= a.len() == b.len() == r.len()): q <
        // len/16, so all three 16-lane loads are in-bounds.
        let (av, bv, rv) = unsafe {
            (
                _mm512_loadu_ps(ap.wrapping_add(q * 16)),
                _mm512_loadu_ps(bp.wrapping_add(q * 16)),
                _mm512_loadu_ps(rp.wrapping_add(q * 16)),
            )
        };
        acc[q & 3] = _mm512_fmadd_ps(_mm512_sub_ps(av, rv), _mm512_sub_ps(bv, rv), acc[q & 3]);
    }
    let v = _mm512_add_ps(_mm512_add_ps(acc[0], acc[1]), _mm512_add_ps(acc[2], acc[3]));
    let mut s = hsum16(v);
    let tail = blocks * 16;
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
#[target_feature(enable = "avx512f")]
fn sq_norm_delta(a: &[f32], r: &[f32]) -> f32 {
    let blocks = a.len() / 16;
    let (ap, rp) = (a.as_ptr(), r.as_ptr());
    let mut acc = [_mm512_setzero_ps(); 4];
    for q in 0..blocks {
        // SAFETY(bound: q*16 + 16 <= a.len() == r.len()): q < len/16, so
        // both 16-lane loads are in-bounds.
        let (av, rv) = unsafe {
            (
                _mm512_loadu_ps(ap.wrapping_add(q * 16)),
                _mm512_loadu_ps(rp.wrapping_add(q * 16)),
            )
        };
        let d = _mm512_sub_ps(av, rv);
        acc[q & 3] = _mm512_fmadd_ps(d, d, acc[q & 3]);
    }
    let v = _mm512_add_ps(_mm512_add_ps(acc[0], acc[1]), _mm512_add_ps(acc[2], acc[3]));
    let mut s = hsum16(v);
    for (x, cv) in a.iter().skip(blocks * 16).zip(r.iter().skip(blocks * 16)) {
        let d = x - cv;
        s = d.mul_add(d, s);
    }
    s
}

/// `out[i] += src[i]`, 16 lanes at a time — bitwise equal to scalar.
#[target_feature(enable = "avx512f")]
fn add_assign(out: &mut [f32], src: &[f32]) {
    let blocks = out.len() / 16;
    let (op, sp) = (out.as_mut_ptr(), src.as_ptr());
    for q in 0..blocks {
        // SAFETY(bound: q*16 + 16 <= out.len() == src.len()): q < len/16,
        // so the 16-lane load/store pair stays in-bounds.
        unsafe {
            let o = _mm512_loadu_ps(op.wrapping_add(q * 16));
            _mm512_storeu_ps(
                op.wrapping_add(q * 16),
                _mm512_add_ps(o, _mm512_loadu_ps(sp.wrapping_add(q * 16))),
            );
        }
    }
    for (o, x) in out
        .iter_mut()
        .skip(blocks * 16)
        .zip(src.iter().skip(blocks * 16))
    {
        *o += x;
    }
}

/// `out[i] *= alpha` — bitwise equal to scalar.
#[target_feature(enable = "avx512f")]
fn scale_assign(out: &mut [f32], alpha: f32) {
    let blocks = out.len() / 16;
    let av = _mm512_set1_ps(alpha);
    let op = out.as_mut_ptr();
    for q in 0..blocks {
        // SAFETY(bound: q*16 + 16 <= out.len()): q < len/16, so the 16-lane
        // load/store pair stays in-bounds.
        unsafe {
            _mm512_storeu_ps(
                op.wrapping_add(q * 16),
                _mm512_mul_ps(_mm512_loadu_ps(op.wrapping_add(q * 16)), av),
            );
        }
    }
    for o in out.iter_mut().skip(blocks * 16) {
        *o *= alpha;
    }
}

/// `out[i] += (v[i] − m[i])²` via separate sub/mul/add — bitwise equal to
/// scalar.
#[target_feature(enable = "avx512f")]
fn sq_dev_assign(out: &mut [f32], v: &[f32], m: &[f32]) {
    let blocks = out.len() / 16;
    let (op, vp, mp) = (out.as_mut_ptr(), v.as_ptr(), m.as_ptr());
    for q in 0..blocks {
        // SAFETY(bound: q*16 + 16 <= out.len() == v.len() == m.len()): q <
        // len/16, so every 16-lane access stays in-bounds.
        unsafe {
            let d = _mm512_sub_ps(
                _mm512_loadu_ps(vp.wrapping_add(q * 16)),
                _mm512_loadu_ps(mp.wrapping_add(q * 16)),
            );
            let o = _mm512_loadu_ps(op.wrapping_add(q * 16));
            _mm512_storeu_ps(
                op.wrapping_add(q * 16),
                _mm512_add_ps(o, _mm512_mul_ps(d, d)),
            );
        }
    }
    let tail = blocks * 16;
    for (o, (x, mv)) in out
        .iter_mut()
        .skip(tail)
        .zip(v.iter().skip(tail).zip(m.iter().skip(tail)))
    {
        let diff = x - mv;
        *o += diff * diff;
    }
}

/// `out[i] = sqrt(out[i] * alpha)` — bitwise equal to scalar.
#[target_feature(enable = "avx512f")]
fn scale_sqrt_assign(out: &mut [f32], alpha: f32) {
    let blocks = out.len() / 16;
    let av = _mm512_set1_ps(alpha);
    let op = out.as_mut_ptr();
    for q in 0..blocks {
        // SAFETY(bound: q*16 + 16 <= out.len()): q < len/16, so the 16-lane
        // load/store pair stays in-bounds.
        unsafe {
            let o = _mm512_loadu_ps(op.wrapping_add(q * 16));
            _mm512_storeu_ps(
                op.wrapping_add(q * 16),
                _mm512_sqrt_ps(_mm512_mul_ps(o, av)),
            );
        }
    }
    for o in out.iter_mut().skip(blocks * 16) {
        *o = (*o * alpha).sqrt();
    }
}

/// `out[i] += alpha * src[i]` via separate mul/add — bitwise equal to
/// scalar.
#[target_feature(enable = "avx512f")]
fn axpy_assign(out: &mut [f32], alpha: f32, src: &[f32]) {
    let blocks = out.len() / 16;
    let av = _mm512_set1_ps(alpha);
    let (op, sp) = (out.as_mut_ptr(), src.as_ptr());
    for q in 0..blocks {
        // SAFETY(bound: q*16 + 16 <= out.len() == src.len()): q < len/16,
        // so the 16-lane load/store pair stays in-bounds.
        unsafe {
            let o = _mm512_loadu_ps(op.wrapping_add(q * 16));
            _mm512_storeu_ps(
                op.wrapping_add(q * 16),
                _mm512_add_ps(
                    o,
                    _mm512_mul_ps(av, _mm512_loadu_ps(sp.wrapping_add(q * 16))),
                ),
            );
        }
    }
    for (o, y) in out
        .iter_mut()
        .skip(blocks * 16)
        .zip(src.iter().skip(blocks * 16))
    {
        *o += alpha * y;
    }
}

impl CpuBackend for Avx512 {
    fn name(&self) -> &'static str {
        "avx512"
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
        // SAFETY(feature: avx512f): `Avx512` is only instantiated after the
        // dispatcher detected the feature, so the tile kernels are
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
        // SAFETY(feature: avx512f): detected by the dispatcher before this
        // backend was handed out.
        unsafe { dot_lanes(a, b) }
    }

    fn dot_lanes_4x4(
        &self,
        a: [&[f32]; DOT_BLOCK],
        b: [&[f32]; DOT_BLOCK],
    ) -> [[f32; DOT_BLOCK]; DOT_BLOCK] {
        // SAFETY(feature: avx512f): detected by the dispatcher before this
        // backend was handed out.
        unsafe { dot_lanes_4x4(a, b) }
    }

    fn sq_distance_rows(
        &self,
        rows: [&[f32]; DIST_ROWS],
        cols: &[&[f32]],
        out: [&mut [f32]; DIST_ROWS],
    ) {
        // SAFETY(feature: avx512f): detected by the dispatcher before this
        // backend was handed out.
        unsafe { sq_distance_rows(rows, cols, out) }
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        // SAFETY(feature: avx512f): detected by the dispatcher before this
        // backend was handed out.
        unsafe { dot(a, b) }
    }

    fn sq_norm(&self, a: &[f32]) -> f32 {
        // SAFETY(feature: avx512f): detected by the dispatcher before this
        // backend was handed out.
        unsafe { sq_norm(a) }
    }

    fn dot_delta(&self, a: &[f32], b: &[f32], r: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        debug_assert_eq!(a.len(), r.len());
        // SAFETY(feature: avx512f): detected by the dispatcher before this
        // backend was handed out.
        unsafe { dot_delta(a, b, r) }
    }

    fn sq_norm_delta(&self, a: &[f32], r: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), r.len());
        // SAFETY(feature: avx512f): detected by the dispatcher before this
        // backend was handed out.
        unsafe { sq_norm_delta(a, r) }
    }

    fn add_assign(&self, out: &mut [f32], src: &[f32]) {
        debug_assert_eq!(out.len(), src.len());
        // SAFETY(feature: avx512f): detected by the dispatcher before this
        // backend was handed out.
        unsafe { add_assign(out, src) }
    }

    fn scale_assign(&self, out: &mut [f32], alpha: f32) {
        // SAFETY(feature: avx512f): detected by the dispatcher before this
        // backend was handed out.
        unsafe { scale_assign(out, alpha) }
    }

    fn sq_dev_assign(&self, out: &mut [f32], v: &[f32], m: &[f32]) {
        debug_assert_eq!(out.len(), v.len());
        debug_assert_eq!(out.len(), m.len());
        // SAFETY(feature: avx512f): detected by the dispatcher before this
        // backend was handed out.
        unsafe { sq_dev_assign(out, v, m) }
    }

    fn scale_sqrt_assign(&self, out: &mut [f32], alpha: f32) {
        // SAFETY(feature: avx512f): detected by the dispatcher before this
        // backend was handed out.
        unsafe { scale_sqrt_assign(out, alpha) }
    }

    fn axpy_assign(&self, out: &mut [f32], alpha: f32, src: &[f32]) {
        debug_assert_eq!(out.len(), src.len());
        // SAFETY(feature: avx512f): detected by the dispatcher before this
        // backend was handed out.
        unsafe { axpy_assign(out, alpha, src) }
    }
}
