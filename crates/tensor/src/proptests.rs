//! Property-based tests for the tensor substrate.

use crate::{col2im, conv_out_dim, im2col, matmul, quant, vecops, Tensor};
use proptest::prelude::*;

fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The f16 roundtrip is a pure element-wise function with bounded
    /// relative error (2^-11 for normal halves) and is idempotent: a
    /// transported value re-transports to itself bitwise.
    #[test]
    fn f16_roundtrip_error_is_bounded_and_idempotent(data in vec_strategy(64)) {
        let mut once = data.clone();
        quant::roundtrip_in_place(quant::Codec::F16, &mut once);
        for (&x, &y) in data.iter().zip(&once) {
            // Inputs are in ±10, far from the subnormal/overflow edges.
            prop_assert!((x - y).abs() <= x.abs() * 4.9e-4 + 1e-7, "{x} -> {y}");
        }
        let mut twice = once.clone();
        quant::roundtrip_in_place(quant::Codec::F16, &mut twice);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The i8 roundtrip error is bounded by half a quantization step
    /// (scale/2) per coordinate, and encode is deterministic: the same
    /// input always yields the same wire payload.
    #[test]
    fn i8_roundtrip_error_is_bounded_and_deterministic(data in vec_strategy(64)) {
        let enc1 = quant::encode(quant::Codec::I8, &data);
        let enc2 = quant::encode(quant::Codec::I8, &data);
        prop_assert_eq!(&enc1, &enc2);
        let back = quant::decode(&enc1);
        let max_abs = data.iter().fold(0.0f32, |a, &x| a.max(x.abs()));
        let step = max_abs / 127.0;
        for (&x, &y) in data.iter().zip(&back) {
            prop_assert!((x - y).abs() <= 0.5 * step + 1e-6, "{x} -> {y} (step {step})");
        }
    }

    /// Every f16 bit pattern decodes to an f32 that encodes back to the
    /// same bits (decode is a right inverse of encode), modulo NaN
    /// payload quieting.
    #[test]
    fn f16_decode_then_encode_is_identity(h in 0i32..0x10000) {
        let h = h as u16;
        let x = quant::f16_bits_to_f32(h);
        let back = quant::f32_to_f16_bits(x);
        if x.is_nan() {
            prop_assert!(quant::f16_bits_to_f32(back).is_nan());
        } else {
            prop_assert_eq!(back, h, "h={h:#06x} x={x}");
        }
    }

    #[test]
    fn add_commutes(data in vec_strategy(16), data2 in vec_strategy(16)) {
        let a = Tensor::from_vec(vec![4, 4], data).unwrap();
        let b = Tensor::from_vec(vec![4, 4], data2).unwrap();
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert_eq!(ab.data(), ba.data());
    }

    #[test]
    fn sub_then_add_roundtrips(data in vec_strategy(12), data2 in vec_strategy(12)) {
        let a = Tensor::from_vec(vec![12], data).unwrap();
        let b = Tensor::from_vec(vec![12], data2).unwrap();
        let back = a.sub(&b).unwrap().add(&b).unwrap();
        for (x, y) in back.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn scale_is_linear_in_norm(data in vec_strategy(20), alpha in -4.0f32..4.0) {
        let a = Tensor::from_vec(vec![20], data).unwrap();
        let scaled = a.scale(alpha);
        let norm = |t: &Tensor| vecops::l2_norm(t.data());
        prop_assert!((norm(&scaled) - alpha.abs() * norm(&a)).abs() < 1e-2);
    }

    #[test]
    fn matmul_identity(data in vec_strategy(9)) {
        let a = Tensor::from_vec(vec![3, 3], data).unwrap();
        let eye = Tensor::from_vec(vec![3, 3],
            vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]).unwrap();
        let c = matmul(&a, &eye).unwrap();
        prop_assert_eq!(c.data(), a.data());
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in vec_strategy(6), b in vec_strategy(6), c in vec_strategy(6)
    ) {
        let a = Tensor::from_vec(vec![2, 3], a).unwrap();
        let b = Tensor::from_vec(vec![3, 2], b).unwrap();
        let c = Tensor::from_vec(vec![3, 2], c).unwrap();
        let lhs = matmul(&a, &b.add(&c).unwrap()).unwrap();
        let rhs = matmul(&a, &b).unwrap().add(&matmul(&a, &c).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-2, "{} vs {}", x, y);
        }
    }

    #[test]
    fn im2col_col2im_adjoint(
        h in 2usize..6, w in 2usize..6, kh in 1usize..4, kw in 1usize..4,
        stride in 1usize..3, pad in 0usize..2, seed in 0u64..1000
    ) {
        prop_assume!(conv_out_dim(h, kh, stride, pad).is_ok());
        prop_assume!(conv_out_dim(w, kw, stride, pad).is_ok());
        let c = 2usize;
        let oh = conv_out_dim(h, kh, stride, pad).unwrap();
        let ow = conv_out_dim(w, kw, stride, pad).unwrap();
        let n_img = c * h * w;
        let n_col = c * kh * kw * oh * ow;
        // Deterministic pseudo-random fill from the seed.
        let x: Vec<f32> = (0..n_img).map(|i| ((i as f32 + seed as f32) * 0.7).sin()).collect();
        let y: Vec<f32> = (0..n_col).map(|i| ((i as f32 * 1.3) + seed as f32).cos()).collect();
        let mut x_col = vec![0.0; n_col];
        im2col(&x, &mut x_col, c, h, w, kh, kw, stride, pad);
        let mut y_img = vec![0.0; n_img];
        col2im(&y, &mut y_img, c, h, w, kh, kw, stride, pad);
        let lhs: f32 = x_col.iter().zip(&y).map(|(p, q)| p * q).sum();
        let rhs: f32 = x.iter().zip(&y_img).map(|(p, q)| p * q).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{} vs {}", lhs, rhs);
    }

    #[test]
    fn median_bounded_by_extremes(rows in proptest::collection::vec(vec_strategy(5), 1..7)) {
        let refs: Vec<&[f32]> = rows.iter().map(|v| v.as_slice()).collect();
        let med = vecops::median(&refs);
        for i in 0..5 {
            let lo = refs.iter().map(|r| r[i]).fold(f32::INFINITY, f32::min);
            let hi = refs.iter().map(|r| r[i]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(med[i] >= lo - 1e-6 && med[i] <= hi + 1e-6);
        }
    }

    #[test]
    fn trimmed_mean_bounded_and_permutation_invariant(
        rows in proptest::collection::vec(vec_strategy(4), 5..9)
    ) {
        let refs: Vec<&[f32]> = rows.iter().map(|v| v.as_slice()).collect();
        let tm = vecops::trimmed_mean(&refs, 1);
        // Bounded by per-coordinate extremes.
        for i in 0..4 {
            let lo = refs.iter().map(|r| r[i]).fold(f32::INFINITY, f32::min);
            let hi = refs.iter().map(|r| r[i]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(tm[i] >= lo - 1e-5 && tm[i] <= hi + 1e-5);
        }
        // Permutation invariance: reverse the set of updates.
        let rev: Vec<&[f32]> = refs.iter().rev().copied().collect();
        let tm2 = vecops::trimmed_mean(&rev, 1);
        for (a, b) in tm.iter().zip(&tm2) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn mean_of_identical_vectors_is_identity(v in vec_strategy(8), n in 1usize..6) {
        let copies: Vec<&[f32]> = (0..n).map(|_| v.as_slice()).collect();
        let m = vecops::mean(&copies);
        for (a, b) in m.iter().zip(&v) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn unit_vector_has_unit_norm(v in vec_strategy(16)) {
        prop_assume!(vecops::l2_norm(&v) > 1e-3);
        let u = vecops::unit(&v);
        prop_assert!((vecops::l2_norm(&u) - 1.0).abs() < 1e-3);
    }
}

/// The per-element lowering the per-tap `im2col`/`col2im` replaced: one
/// bounds test per element, in `(c, ky, kx, oy, ox)` order. Kept as the
/// bitwise reference for the production kernels.
mod lowering_reference {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn ref_im2col(
        img: &[f32],
        col: &mut [f32],
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) {
        let oh = (h + 2 * pad - kh) / stride + 1;
        let ow = (w + 2 * pad - kw) / stride + 1;
        let out_area = oh * ow;
        for ch in 0..c {
            let img_ch = &img[ch * h * w..(ch + 1) * h * w];
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = ((ch * kh + ky) * kw + kx) * out_area;
                    let col_row = &mut col[row..row + out_area];
                    for oy in 0..oh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        let dst = &mut col_row[oy * ow..(oy + 1) * ow];
                        if iy < 0 || iy >= h as isize {
                            for v in dst.iter_mut() {
                                *v = 0.0;
                            }
                            continue;
                        }
                        let src_row = &img_ch[iy as usize * w..(iy as usize + 1) * w];
                        for (ox, v) in dst.iter_mut().enumerate() {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            *v = if ix < 0 || ix >= w as isize {
                                0.0
                            } else {
                                src_row[ix as usize]
                            };
                        }
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn ref_col2im(
        col: &[f32],
        img: &mut [f32],
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) {
        let oh = (h + 2 * pad - kh) / stride + 1;
        let ow = (w + 2 * pad - kw) / stride + 1;
        let out_area = oh * ow;
        for ch in 0..c {
            let img_ch = &mut img[ch * h * w..(ch + 1) * h * w];
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = ((ch * kh + ky) * kw + kx) * out_area;
                    let col_row = &col[row..row + out_area];
                    for oy in 0..oh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let src = &col_row[oy * ow..(oy + 1) * ow];
                        let dst_row = &mut img_ch[iy as usize * w..(iy as usize + 1) * w];
                        for (ox, &v) in src.iter().enumerate() {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix >= 0 && ix < w as isize {
                                dst_row[ix as usize] += v;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Values spread over seven decades, so a reordered addition shows
    /// in the low bits.
    fn mixed(seed: u64, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = ((i as f32 + seed as f32) * 0.73).sin();
                x * 10f32.powi((i % 7) as i32 - 3)
            })
            .collect()
    }

    /// [`mixed`] with IEEE edge values planted: `−0.0`, NaN and `±∞`. As
    /// the image `col2im` accumulates into, an element the reference
    /// leaves alone must keep these bits, and a stray `+0.0` add turns
    /// `−0.0` into `+0.0`.
    fn with_edges(seed: u64, len: usize) -> Vec<f32> {
        let mut v = mixed(seed, len);
        for (i, x) in v.iter_mut().enumerate() {
            match i % 6 {
                1 => *x = -0.0,
                3 => *x = f32::NAN,
                4 if i % 12 == 4 => *x = f32::INFINITY,
                4 => *x = f32::NEG_INFINITY,
                _ => {}
            }
        }
        v
    }

    /// [`mixed`] with every third value `+0.0`, so a column added where
    /// the reference adds nothing can be a `+0.0` add.
    fn with_zeros(seed: u64, len: usize) -> Vec<f32> {
        let mut v = mixed(seed, len);
        v.iter_mut().step_by(3).for_each(|x| *x = 0.0);
        v
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Image sides 1–33 (the models' 8/14/16/28/32 and odd widths that
    /// end a SIMD body early), with 1–5 weighted so single-pixel images
    /// and images smaller than the kernel come up often.
    fn side() -> impl Strategy<Value = usize> {
        prop_oneof![1usize..6, 1usize..34]
    }

    /// `im2col` writes every cell of a NaN-prefilled output, each with
    /// the reference's bits.
    #[allow(clippy::too_many_arguments)]
    fn check_im2col(
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let (kh, kw) = (kh.min(h + 2 * pad), kw.min(w + 2 * pad));
        let oh = conv_out_dim(h, kh, stride, pad).unwrap();
        let ow = conv_out_dim(w, kw, stride, pad).unwrap();
        let img = mixed(seed, c * h * w);
        let n_col = c * kh * kw * oh * ow;
        let mut want = vec![0.0f32; n_col];
        ref_im2col(&img, &mut want, c, h, w, kh, kw, stride, pad);
        let mut got = vec![f32::NAN; n_col];
        im2col(&img, &mut got, c, h, w, kh, kw, stride, pad);
        prop_assert_eq!(bits(&got), bits(&want));
        Ok(())
    }

    /// `col2im` accumulates into an edge-valued image with the
    /// reference's bits: each element's additions keep their order, and
    /// an element the reference never adds to keeps its bits.
    #[allow(clippy::too_many_arguments)]
    fn check_col2im(
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let (kh, kw) = (kh.min(h + 2 * pad), kw.min(w + 2 * pad));
        let oh = conv_out_dim(h, kh, stride, pad).unwrap();
        let ow = conv_out_dim(w, kw, stride, pad).unwrap();
        let col = with_zeros(seed, c * kh * kw * oh * ow);
        let base = with_edges(seed ^ 0x5EED, c * h * w);
        let mut want = base.clone();
        ref_col2im(&col, &mut want, c, h, w, kh, kw, stride, pad);
        let mut got = base;
        col2im(&col, &mut got, c, h, w, kh, kw, stride, pad);
        prop_assert_eq!(bits(&got), bits(&want));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any geometry: the per-row paths (stride > 1 or `ow ≠ w`) and
        /// the whole-tap path where it happens to apply.
        #[test]
        fn im2col_matches_per_element_reference_bitwise(
            c in 1usize..4, h in side(), w in side(),
            kh in 1usize..6, kw in 1usize..6, stride in 1usize..4,
            pad in 0usize..3, seed in 0u64..1000
        ) {
            check_im2col(c, h, w, kh, kw, stride, pad, seed)?;
        }

        #[test]
        fn col2im_matches_per_element_reference_bitwise(
            c in 1usize..4, h in side(), w in side(),
            kh in 1usize..6, kw in 1usize..6, stride in 1usize..4,
            pad in 0usize..3, seed in 0u64..1000
        ) {
            check_col2im(c, h, w, kh, kw, stride, pad, seed)?;
        }

        /// "Same" geometry (stride 1, `kw = 2·pad + 1`, so `ow == w`): the
        /// whole-tap block, with `|kx − pad|` up to 2 wrapped columns per
        /// row end.
        #[test]
        fn im2col_whole_tap_matches_per_element_reference_bitwise(
            c in 1usize..4, h in side(), w in side(), kh in 1usize..6,
            pad in 0usize..3, seed in 0u64..1000
        ) {
            check_im2col(c, h, w, kh, 2 * pad + 1, 1, pad, seed)?;
        }

        #[test]
        fn col2im_whole_tap_matches_per_element_reference_bitwise(
            c in 1usize..4, h in side(), w in side(), kh in 1usize..6,
            pad in 0usize..3, seed in 0u64..1000
        ) {
            check_col2im(c, h, w, kh, 2 * pad + 1, 1, pad, seed)?;
        }
    }

    /// A "same" tap that wraps more than `col2im`'s stack save (5×5/pad 2
    /// on 40 rows wraps 2 × 39 > 64) falls back to the per-row add loop.
    #[test]
    fn col2im_whole_tap_past_the_wrap_save_matches_reference_bitwise() {
        for (h, w) in [(40, 7), (70, 3), (33, 33)] {
            check_col2im(2, h, w, 5, 5, 1, 2, 3).unwrap();
            check_col2im(1, h, w, 3, 3, 1, 1, 4).unwrap();
            check_im2col(2, h, w, 5, 5, 1, 2, 5).unwrap();
        }
    }
}

/// Bitwise equivalence of the parallel kernels and their serial references.
///
/// The public entry points only fan out above their work thresholds, so
/// these tests pin the thread budget to a value > 1 and use shapes big
/// enough to cross the thresholds; a process-local lock keeps the budget
/// stable while each case runs.
mod parallel_equivalence {
    use crate::{
        matmul_into, matmul_into_serial, matmul_transpose_a, matmul_transpose_a_serial,
        matmul_transpose_b, matmul_transpose_b_serial, par, vecops, PAR_FLOP_THRESHOLD,
    };
    use proptest::prelude::*;
    use std::sync::Mutex;

    /// Serializes tests that pin the global thread budget.
    static THREADS_LOCK: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = par::max_threads();
        par::set_max_threads(n);
        let out = f();
        par::set_max_threads(prev);
        drop(guard);
        out
    }

    /// Cheap deterministic fill in [-1, 1) (SplitMix64 mix).
    fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                ((z >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Smallest `n` that pushes `2·m·k·n` past the parallel threshold.
    fn crossing_n(m: usize, k: usize) -> usize {
        (PAR_FLOP_THRESHOLD as usize).div_ceil(2 * m * k) + 1
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn matmul_into_parallel_is_bitwise_serial(
            m in 33usize..70, k in 30usize..90, seed in 0u64..1_000_000
        ) {
            let n = crossing_n(m, k);
            let a = fill(seed, m * k);
            let b = fill(seed ^ 0xABCD, k * n);
            let c0 = fill(seed ^ 0x1234, m * n);
            let mut c_par = c0.clone();
            with_threads(4, || matmul_into(&a, &b, &mut c_par, m, k, n));
            let mut c_ser = c0;
            matmul_into_serial(&a, &b, &mut c_ser, m, k, n);
            prop_assert_eq!(bits(&c_par), bits(&c_ser));
        }

        #[test]
        fn matmul_transpose_a_parallel_is_bitwise_serial(
            m in 33usize..70, k in 30usize..90, seed in 0u64..1_000_000
        ) {
            let n = crossing_n(m, k);
            let a = fill(seed, k * m);
            let b = fill(seed ^ 0xABCD, k * n);
            let c0 = fill(seed ^ 0x1234, m * n);
            let mut c_par = c0.clone();
            with_threads(4, || matmul_transpose_a(&a, &b, &mut c_par, m, k, n));
            let mut c_ser = c0;
            matmul_transpose_a_serial(&a, &b, &mut c_ser, m, k, n);
            prop_assert_eq!(bits(&c_par), bits(&c_ser));
        }

        #[test]
        fn matmul_transpose_b_parallel_is_bitwise_serial(
            m in 33usize..70, k in 30usize..90, seed in 0u64..1_000_000
        ) {
            let n = crossing_n(m, k);
            let a = fill(seed, m * k);
            let b = fill(seed ^ 0xABCD, n * k);
            let c0 = fill(seed ^ 0x1234, m * n);
            let mut c_par = c0.clone();
            with_threads(4, || matmul_transpose_b(&a, &b, &mut c_par, m, k, n));
            let mut c_ser = c0;
            matmul_transpose_b_serial(&a, &b, &mut c_ser, m, k, n);
            prop_assert_eq!(bits(&c_par), bits(&c_ser));
        }

        #[test]
        fn vecops_reductions_parallel_are_bitwise_serial(
            nv in 7usize..10, seed in 0u64..1_000_000
        ) {
            // nv · d must cross the vecops work threshold (1 << 20 floats).
            let d = 160_000usize;
            let data: Vec<Vec<f32>> = (0..nv).map(|i| fill(seed ^ i as u64, d)).collect();
            let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
            let (mean_p, std_p, med_p, tm_p) = with_threads(4, || {
                (
                    vecops::mean(&refs),
                    vecops::std_dev(&refs),
                    vecops::median(&refs),
                    vecops::trimmed_mean(&refs, 2),
                )
            });
            prop_assert_eq!(bits(&mean_p), bits(&vecops::mean_serial(&refs)));
            prop_assert_eq!(bits(&std_p), bits(&vecops::std_dev_serial(&refs)));
            prop_assert_eq!(bits(&med_p), bits(&vecops::median_serial(&refs)));
            prop_assert_eq!(bits(&tm_p), bits(&vecops::trimmed_mean_serial(&refs, 2)));
        }

        /// The persistent pool must give bitwise-serial results at every
        /// thread count, including odd ones that split the rows unevenly.
        #[test]
        fn pool_is_bitwise_serial_across_thread_counts(
            m in 33usize..70, k in 30usize..90, seed in 0u64..1_000_000
        ) {
            let n = crossing_n(m, k);
            let a = fill(seed, m * k);
            let b = fill(seed ^ 0xABCD, k * n);
            let c0 = fill(seed ^ 0x1234, m * n);
            let mut c_ser = c0.clone();
            matmul_into_serial(&a, &b, &mut c_ser, m, k, n);
            for threads in [1usize, 2, 7] {
                let mut c_par = c0.clone();
                with_threads(threads, || matmul_into(&a, &b, &mut c_par, m, k, n));
                prop_assert_eq!(bits(&c_par), bits(&c_ser), "threads={}", threads);
            }
        }

        /// Resizing the budget between dispatches parks or wakes workers
        /// but never changes results — the block boundaries each dispatch
        /// hands out depend only on the budget it started with.
        #[test]
        fn pool_is_bitwise_serial_after_mid_run_resize(
            m in 33usize..70, k in 30usize..90, seed in 0u64..1_000_000
        ) {
            let n = crossing_n(m, k);
            let a = fill(seed, m * k);
            let b = fill(seed ^ 0xABCD, k * n);
            let c0 = fill(seed ^ 0x1234, m * n);
            let mut c_ser = c0.clone();
            matmul_into_serial(&a, &b, &mut c_ser, m, k, n);
            let (c_wide, c_narrow) = with_threads(7, || {
                let mut c_wide = c0.clone();
                matmul_into(&a, &b, &mut c_wide, m, k, n);
                // Shrink the pool mid-run: surplus workers park, results
                // stay bitwise-identical.
                par::set_max_threads(2);
                let mut c_narrow = c0.clone();
                matmul_into(&a, &b, &mut c_narrow, m, k, n);
                (c_wide, c_narrow)
            });
            prop_assert_eq!(bits(&c_wide), bits(&c_ser));
            prop_assert_eq!(bits(&c_narrow), bits(&c_ser));
        }

        /// A panic in any block propagates to the dispatching caller, and
        /// the pool keeps serving bitwise-correct dispatches afterwards
        /// (workers survive the panic).
        #[test]
        fn pool_recovers_after_worker_panic(
            m in 33usize..70, k in 30usize..90, seed in 0u64..1_000_000
        ) {
            let n = crossing_n(m, k);
            let a = fill(seed, m * k);
            let b = fill(seed ^ 0xABCD, k * n);
            let c0 = fill(seed ^ 0x1234, m * n);
            let mut c_ser = c0.clone();
            matmul_into_serial(&a, &b, &mut c_ser, m, k, n);
            let (panicked, c_par) = with_threads(4, || {
                let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut sink = vec![0u8; 4096];
                    par::for_each_chunk_mut(&mut sink, 512, |idx, _| {
                        assert!(idx != 5, "injected test panic");
                    });
                }))
                .is_err();
                let mut c_par = c0.clone();
                matmul_into(&a, &b, &mut c_par, m, k, n);
                (panicked, c_par)
            });
            prop_assert!(panicked, "panic must propagate to the caller");
            prop_assert_eq!(bits(&c_par), bits(&c_ser));
        }

        /// `map_collect` claims one index at a time. With per-index work
        /// of uneven cost (0 to ~4 000 multiply-adds, like FL clients of
        /// different shard sizes), every index runs exactly once and the
        /// result is the serial map, bit for bit, at every thread count.
        #[test]
        fn map_collect_runs_each_uneven_unit_once_in_serial_order(
            n in 0usize..65, seed in 0u64..1_000_000
        ) {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let costs: Vec<usize> = fill(seed, n)
                .iter()
                .map(|c| ((c.abs() * 64.0) as usize).pow(2))
                .collect();
            let work = |i: usize| -> f32 {
                fill(seed ^ i as u64, costs[i])
                    .into_iter()
                    .fold(i as f32, |acc, x| acc.mul_add(0.5, x))
            };
            let serial: Vec<f32> = (0..n).map(work).collect();
            for threads in [1usize, 2, 7] {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let got = with_threads(threads, || {
                    par::map_collect(n, |i| {
                        runs[i].fetch_add(1, Ordering::Relaxed);
                        work(i)
                    })
                });
                prop_assert_eq!(bits(&got), bits(&serial), "threads={}", threads);
                for (i, r) in runs.iter().enumerate() {
                    prop_assert_eq!(r.load(Ordering::Relaxed), 1, "index {} threads={}", i, threads);
                }
            }
        }

        #[test]
        fn backend_gemm_tile_is_bitwise_identical_across_backends(
            rows in 1usize..5, k in 1usize..40, n in 1usize..90, seed in 0u64..1_000_000
        ) {
            // The panel is B itself (b_base = 0, b_stride = n), read in
            // place as `matmul`'s kernels read it.
            use crate::backend::{self, Kind, ALL_KINDS};
            let a = fill(seed, rows * k);
            let b = fill(seed ^ 0x5EED, k * n);
            let scalar = backend::instance(Kind::Scalar);
            let mut want = vec![0.0f32; rows * n];
            scalar.gemm_tile(&a, 0, k, 1, rows, k, &b, 0, n, n, &mut want, 0, n);
            for kind in ALL_KINDS {
                if !kind.supported() {
                    continue;
                }
                let be = backend::instance(kind);
                let mut got = vec![0.0f32; rows * n];
                be.gemm_tile(&a, 0, k, 1, rows, k, &b, 0, n, n, &mut got, 0, n);
                prop_assert_eq!(bits(&got), bits(&want), "backend {}", be.name());
            }
        }

        #[test]
        fn backend_dot_lanes_4x4_is_bitwise_per_pair_across_backends(
            d in 0usize..100, seed in 0u64..1_000_000
        ) {
            use crate::backend::{self, Kind, ALL_KINDS};
            let rows: Vec<Vec<f32>> = (0..8u64).map(|r| fill(seed ^ r, d)).collect();
            let a: [&[f32]; 4] = std::array::from_fn(|r| rows[r].as_slice());
            let b: [&[f32]; 4] = std::array::from_fn(|s| rows[4 + s].as_slice());
            let scalar = backend::instance(Kind::Scalar);
            let want = a.map(|ar| b.map(|bs| scalar.dot_lanes(ar, bs).to_bits()));
            for kind in ALL_KINDS {
                if !kind.supported() {
                    continue;
                }
                let be = backend::instance(kind);
                let got = be.dot_lanes_4x4(a, b).map(|row| row.map(f32::to_bits));
                prop_assert_eq!(got, want, "backend {}", be.name());
            }
        }

        #[test]
        fn backend_sq_distance_rows_is_bitwise_per_pair_across_backends(
            d in 0usize..100, ncols in 1usize..40, scale in -30i32..31, seed in 0u64..1_000_000
        ) {
            use crate::backend::{self, ALL_KINDS};
            let m = 10f32.powi(scale);
            let vs: Vec<Vec<f32>> = (0..4 + ncols as u64)
                .map(|u| fill(seed ^ (u << 20), d).iter().map(|x| x * m).collect())
                .collect();
            let rows: [&[f32]; 4] = std::array::from_fn(|r| vs[r].as_slice());
            let cols: Vec<&[f32]> = vs[4..].iter().map(Vec::as_slice).collect();
            let want: Vec<Vec<u32>> = rows
                .iter()
                .map(|r| cols.iter().map(|c| vecops::sq_distance(r, c).to_bits()).collect())
                .collect();
            for kind in ALL_KINDS {
                if !kind.supported() {
                    continue;
                }
                let be = backend::instance(kind);
                let mut out = vec![vec![f32::NAN; ncols]; 4];
                if let [o0, o1, o2, o3] = &mut out[..] {
                    be.sq_distance_rows(rows, &cols, [o0, o1, o2, o3]);
                }
                let got: Vec<Vec<u32>> = out.iter().map(|o| bits(o)).collect();
                prop_assert_eq!(&got, &want, "backend {}", be.name());
            }
        }

        #[test]
        fn backend_elementwise_primitives_are_bitwise_identical(
            d in 1usize..70, seed in 0u64..1_000_000, alpha in -2.0f32..2.0
        ) {
            use crate::backend::{self, CpuBackend, Kind, ALL_KINDS};
            let x = fill(seed, d);
            let y = fill(seed ^ 0xF00D, d);
            let mvs = fill(seed ^ 0x1DEA, d);
            let scalar = backend::instance(Kind::Scalar);
            // (add, scale, sq_dev, scale_sqrt, axpy) under the scalar
            // reference, then every supported backend must match bitwise.
            let run = |be: &dyn CpuBackend| {
                let mut add = x.clone();
                be.add_assign(&mut add, &y);
                let mut scale = x.clone();
                be.scale_assign(&mut scale, alpha);
                let mut sq = x.clone();
                be.sq_dev_assign(&mut sq, &y, &mvs);
                let mut ss: Vec<f32> = x.iter().map(|v| v.abs() + 0.25).collect();
                be.scale_sqrt_assign(&mut ss, alpha.abs() + 0.5);
                let mut ax = x.clone();
                be.axpy_assign(&mut ax, alpha, &y);
                [add, scale, sq, ss, ax]
            };
            let want = run(scalar);
            for kind in ALL_KINDS {
                if !kind.supported() {
                    continue;
                }
                let got = run(backend::instance(kind));
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(bits(g), bits(w), "backend {}", kind.name());
                }
            }
        }

        /// The fused delta reduction is bitwise identical to materializing
        /// the difference first, and `dot`, `dot_delta`, the norms built on
        /// them and `dot_lanes` return the same bits on every backend.
        #[test]
        fn backend_reductions_delta_identity_and_cross_backend_bitwise(
            d in 1usize..600, seed in 0u64..1_000_000
        ) {
            use crate::backend::{self, Kind, ALL_KINDS};
            let x = fill(seed, d);
            let y = fill(seed ^ 0xBEEF, d);
            let r = fill(seed ^ 0xCAFE, d);
            let diff_xr: Vec<f32> = x.iter().zip(&r).map(|(a, b)| a - b).collect();
            let diff_yr: Vec<f32> = y.iter().zip(&r).map(|(a, b)| a - b).collect();
            let run = |be: &dyn backend::CpuBackend| {
                [
                    be.dot(&x, &y),
                    be.dot(&x, &x).sqrt(),
                    be.dot_delta(&x, &y, &r),
                    be.dot_delta(&x, &x, &r).sqrt(),
                    be.dot_lanes(&x, &y),
                ]
                .map(f32::to_bits)
            };
            let want = run(backend::instance(Kind::Scalar));
            for kind in ALL_KINDS {
                if !kind.supported() {
                    continue;
                }
                let be = backend::instance(kind);
                prop_assert_eq!(
                    be.dot_delta(&x, &y, &r).to_bits(),
                    be.dot(&diff_xr, &diff_yr).to_bits(),
                    "dot_delta identity, backend {}", be.name()
                );
                prop_assert_eq!(
                    run(be), want,
                    "dot/l2_norm/dot_delta/l2_norm_delta/dot_lanes, backend {}", be.name()
                );
            }
        }

        #[test]
        fn pairwise_sq_distances_parallel_is_bitwise_serial(
            nv in 11usize..14, seed in 0u64..1_000_000
        ) {
            // pairs · d must cross the work threshold: C(11,2)=55 pairs.
            let d = 20_000usize;
            let data: Vec<Vec<f32>> = (0..nv).map(|i| fill(seed ^ i as u64, d)).collect();
            let refs: Vec<&[f32]> = data.iter().map(|v| v.as_slice()).collect();
            let par_d = with_threads(4, || vecops::pairwise_sq_distances(&refs));
            let ser_d = vecops::pairwise_sq_distances_serial(&refs);
            for (rp, rs) in par_d.iter().zip(&ser_d) {
                prop_assert_eq!(bits(rp), bits(rs));
            }
            // Bulyan's dense stage 1 under each backend's distance rows.
            let ser_flat: Vec<u32> = ser_d.iter().flat_map(|r| bits(r)).collect();
            for kind in crate::backend::ALL_KINDS {
                if !kind.supported() {
                    continue;
                }
                let be = crate::backend::instance(kind);
                let mut flat = vec![f32::NAN; nv * nv];
                with_threads(4, || vecops::pairwise_sq_distances_on(be, &refs, &mut flat));
                prop_assert_eq!(bits(&flat), ser_flat.clone(), "backend {}", be.name());
            }
        }
    }

    /// Inputs for the block-versus-pair test: finite values with every
    /// fifth element subnormal, plus `+inf` in row 1 and `-inf` in row 2
    /// (from `k = 1` on), so the `inf·x`, `inf − inf` and NaN paths run.
    fn special(seed: u64, rows: usize, k: usize, inf_row: usize, inf: f32) -> Vec<f32> {
        let mut v = fill(seed, rows * k);
        for (p, x) in v.iter_mut().enumerate() {
            if p % 5 == 3 {
                *x = f32::from_bits(1 + (p as u32 % 0x7F_FFFF)) * x.signum();
            }
        }
        if let Some(x) = v
            .get_mut(inf_row * k + k / 2)
            .filter(|_| inf_row < rows && k > 0)
        {
            *x = inf;
        }
        v
    }

    /// `matmul_transpose_b` (4×4 `dot_lanes_4x4` blocks plus per-pair
    /// remainders) equals one `dot_lanes` per output element added to
    /// `c`, bit for bit, for every m, n in 1..=9 (full blocks, partial
    /// blocks and remainders), at lengths around the 16-lane chunk, with
    /// subnormal and infinite inputs, at thread budgets 1, 2 and 7.
    #[test]
    fn matmul_transpose_b_is_bitwise_per_pair_dot_lanes() {
        let be = crate::backend::active();
        for k in [0usize, 1, 15, 16, 17, 33, 1024] {
            for m in 1usize..=9 {
                for n in 1usize..=9 {
                    let seed = (k * 100 + m * 10 + n) as u64;
                    let a = special(seed, m, k, 1, f32::INFINITY);
                    let b = special(seed ^ 0xB, n, k, 2, f32::NEG_INFINITY);
                    let c0 = fill(seed ^ 0xC, m * n);
                    let mut want = c0.clone();
                    for i in 0..m {
                        for j in 0..n {
                            want[i * n + j] +=
                                be.dot_lanes(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                        }
                    }
                    for threads in [1usize, 2, 7] {
                        let mut got = c0.clone();
                        with_threads(threads, || matmul_transpose_b(&a, &b, &mut got, m, k, n));
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "m={m} n={n} k={k} threads={threads} backend {}",
                            be.name()
                        );
                    }
                }
            }
        }
    }
}
