//! im2col / col2im lowering for 2-D convolution.
//!
//! `im2col` unfolds a `[C, H, W]` image into a `[C·KH·KW, OH·OW]` matrix so
//! convolution becomes one matrix multiply; `col2im` is its adjoint, folding
//! gradients back into image space. The pair is exercised by an adjointness
//! property test (`<x_col, y> == <x, col2im(y)>`), which pins down the
//! correctness of convolution backprop.

use crate::TensorError;

/// Output spatial dimension of a convolution:
/// `(input + 2·pad − kernel) / stride + 1`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidGeometry`] when the kernel does not fit the
/// padded input or `stride == 0`.
pub fn conv_out_dim(
    input: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Result<usize, TensorError> {
    if stride == 0 {
        return Err(TensorError::InvalidGeometry(
            "stride must be positive".into(),
        ));
    }
    let padded = input + 2 * pad;
    if kernel == 0 || kernel > padded {
        // fabcheck::allow(alloc_on_hot_path): error branch only.
        return Err(TensorError::InvalidGeometry(format!(
            "kernel {kernel} does not fit padded input {padded}"
        )));
    }
    Ok((padded - kernel) / stride + 1)
}

/// Output positions `[lo, hi)` of one kernel tap whose input index
/// `o·stride + tap − pad` lies inside `0..len`, clamped to `0..out`.
/// Outside the range the tap samples padding.
fn valid_range(len: usize, out: usize, tap: usize, stride: usize, pad: usize) -> (usize, usize) {
    let lo = pad.saturating_sub(tap).div_ceil(stride).min(out);
    let hi = (len + pad)
        .saturating_sub(tap)
        .div_ceil(stride)
        .clamp(lo, out);
    (lo, hi)
}

/// Channel and kernel offsets `(c, ky, kx)` of column-matrix row `tap`.
fn tap_coords(tap: usize, kh: usize, kw: usize) -> (usize, usize, usize) {
    (tap / (kh * kw), tap / kw % kh, tap % kw)
}

/// Unfolds one `[C, H, W]` image (flat slice) into column-major patches.
///
/// The output buffer `col` has layout `[C*KH*KW, OH*OW]` row-major: row
/// `(c*KH + kh)*KW + kw` holds, for each output position, the input pixel
/// that the kernel tap `(c, kh, kw)` sees (0 where padding is sampled).
///
/// Lowering is a copy: per tap, the output rows and columns whose input
/// lies inside the image are computed once, the rest is zero-filled, and
/// each inside row is one `copy_from_slice` (stride 1) or one strided
/// gather (stride > 1). Every element of `col` is written.
///
/// # Panics
///
/// Debug-asserts buffer sizes.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
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
    debug_assert_eq!(img.len(), c * h * w);
    debug_assert_eq!(col.len(), c * kh * kw * oh * ow);
    for (tap, col_row) in col.chunks_exact_mut(oh * ow).enumerate() {
        let (ch, ky, kx) = tap_coords(tap, kh, kw);
        let img_ch = img.get(ch * h * w..(ch + 1) * h * w).unwrap_or(&[]);
        let (y_lo, y_hi) = valid_range(h, oh, ky, stride, pad);
        let (x_lo, x_hi) = valid_range(w, ow, kx, stride, pad);
        let ix0 = (x_lo * stride + kx).saturating_sub(pad);
        for (oy, dst) in col_row.chunks_exact_mut(ow).enumerate() {
            let iy = (oy * stride + ky).saturating_sub(pad);
            let src = img_ch.get(iy * w + ix0..(iy + 1) * w).unwrap_or(&[]);
            let (lo, hi) = if (y_lo..y_hi).contains(&oy) {
                (x_lo, x_hi)
            } else {
                (ow, ow)
            };
            let (head, rest) = dst.split_at_mut(lo);
            head.fill(0.0);
            let (body, tail) = rest.split_at_mut(hi - lo);
            tail.fill(0.0);
            if stride == 1 {
                if let Some(src) = src.get(..body.len()) {
                    body.copy_from_slice(src);
                }
            } else {
                for (d, s) in body.iter_mut().zip(src.iter().step_by(stride)) {
                    *d = *s;
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: folds patch-space gradients back into image space,
/// accumulating into `img` (caller usually passes a zeroed buffer).
///
/// Per tap and inside output row, the columns whose input lies inside the
/// image are added as one slice `+=` (strided for stride > 1); padding
/// columns are skipped without a per-element test. Each image element
/// receives its additions in `(c, ky, kx, oy)` order, the order of the
/// per-element loop this replaced, so results are bitwise unchanged.
///
/// # Panics
///
/// Debug-asserts buffer sizes.
#[allow(clippy::too_many_arguments)]
pub fn col2im(
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
    debug_assert_eq!(img.len(), c * h * w);
    debug_assert_eq!(col.len(), c * kh * kw * oh * ow);
    for (tap, col_row) in col.chunks_exact(oh * ow).enumerate() {
        let (ch, ky, kx) = tap_coords(tap, kh, kw);
        let Some(img_ch) = img.get_mut(ch * h * w..(ch + 1) * h * w) else {
            continue;
        };
        let (y_lo, y_hi) = valid_range(h, oh, ky, stride, pad);
        let (x_lo, x_hi) = valid_range(w, ow, kx, stride, pad);
        let ix0 = (x_lo * stride + kx).saturating_sub(pad);
        for (oy, src) in col_row.chunks_exact(ow).enumerate().take(y_hi).skip(y_lo) {
            let iy = (oy * stride + ky).saturating_sub(pad);
            let src = src.get(x_lo..x_hi).unwrap_or(&[]);
            let dst = img_ch
                .get_mut(iy * w + ix0..(iy + 1) * w)
                .unwrap_or(&mut []);
            if stride == 1 {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += *s;
                }
            } else {
                for (d, s) in dst.iter_mut().step_by(stride).zip(src) {
                    *d += *s;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dim_formula() {
        assert_eq!(conv_out_dim(28, 3, 1, 1).unwrap(), 28);
        assert_eq!(conv_out_dim(28, 3, 1, 0).unwrap(), 26);
        assert_eq!(conv_out_dim(28, 2, 2, 0).unwrap(), 14);
        assert!(conv_out_dim(2, 5, 1, 0).is_err());
        assert!(conv_out_dim(8, 3, 0, 0).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: col equals the image.
        let img: Vec<f32> = (0..12).map(|i| i as f32).collect(); // 1x3x4
        let mut col = vec![0.0; 12];
        im2col(&img, &mut col, 1, 3, 4, 1, 1, 1, 0);
        assert_eq!(col, img);
    }

    #[test]
    fn im2col_known_patch() {
        // 2x2 image, 2x2 kernel, stride 1, no pad -> single output position.
        let img = [1.0, 2.0, 3.0, 4.0];
        let mut col = vec![0.0; 4];
        im2col(&img, &mut col, 1, 2, 2, 2, 2, 1, 0);
        assert_eq!(col, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn im2col_padding_zeroes() {
        // 1x1 image, 3x3 kernel, pad 1 -> one output, only center nonzero.
        let img = [5.0];
        let mut col = vec![0.0; 9];
        im2col(&img, &mut col, 1, 1, 1, 3, 3, 1, 1);
        let mut expect = [0.0f32; 9];
        expect[4] = 5.0;
        assert_eq!(col, expect);
    }

    #[test]
    fn col2im_adjoint_small() {
        // <im2col(x), y> == <x, col2im(y)> for fixed small geometry.
        let (c, h, w, kh, kw, s, p) = (2, 4, 3, 3, 2, 1, 1);
        let oh = (h + 2 * p - kh) / s + 1;
        let ow = (w + 2 * p - kw) / s + 1;
        let n_img = c * h * w;
        let n_col = c * kh * kw * oh * ow;
        let x: Vec<f32> = (0..n_img).map(|i| (i as f32 * 0.37).sin()).collect();
        let y: Vec<f32> = (0..n_col).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut x_col = vec![0.0; n_col];
        im2col(&x, &mut x_col, c, h, w, kh, kw, s, p);
        let mut y_img = vec![0.0; n_img];
        col2im(&y, &mut y_img, c, h, w, kh, kw, s, p);
        let lhs: f32 = x_col.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&y_img).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
