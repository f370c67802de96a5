//! im2col / col2im lowering for 2-D convolution.
//!
//! `im2col` unfolds a `[C, H, W]` image into a `[C·KH·KW, OH·OW]` matrix so
//! convolution becomes one matrix multiply; `col2im` is its adjoint, folding
//! gradients back into image space. The pair is exercised by an adjointness
//! property test (`<x_col, y> == <x, col2im(y)>`), which pins down the
//! correctness of convolution backprop.
//!
//! A stride-1 tap over a full-width output (`OW == W`, the "same"
//! padding every model conv uses) shifts the whole channel plane, so its
//! column row is one contiguous block of the plane ([`TapBlock`]): both
//! directions move it in one pass and then fix up the few positions the
//! shift wrapped across a row end (DESIGN.md §4b). Every other geometry
//! moves one output row at a time.

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

/// One stride-1 tap over a full-width output (`ow == w`) as a single
/// block. The tap reads the channel plane shifted by `(ky − pad, kx −
/// pad)`, so column-row positions `dst..dst + len` read plane positions
/// `src..src + len` one to one. The block spans `rows` output rows, each
/// with `run` valid columns; between one row's valid run and the next lie
/// `w − run` positions that the shift wrapped across a row end. They are
/// padding samples of the tap, not image reads.
struct TapBlock {
    dst: usize,
    src: usize,
    len: usize,
    rows: usize,
    run: usize,
}

impl TapBlock {
    /// The block of a tap whose valid output rows are `y` and valid
    /// output columns `x` (from [`valid_range`]); `None` when the tap
    /// samples only padding.
    fn new(
        w: usize,
        (ky, kx, pad): (usize, usize, usize),
        (y_lo, y_hi): (usize, usize),
        (x_lo, x_hi): (usize, usize),
    ) -> Option<Self> {
        if y_lo >= y_hi || x_lo >= x_hi {
            return None;
        }
        // Inside the valid ranges `oy + ky ≥ pad` and `ox + kx ≥ pad`.
        let (rows, run) = (y_hi - y_lo, x_hi - x_lo);
        Some(Self {
            dst: y_lo * w + x_lo,
            src: (y_lo + ky - pad) * w + x_lo + kx - pad,
            len: (rows - 1) * w + run,
            rows,
            run,
        })
    }
}

/// Floats of wrapped image elements [`col2im`] saves on the stack per
/// block; a tap that wraps more (a kernel far wider than the model
/// convs' 3×3/pad 1 on 32 rows, which wraps at most 31) is added one row
/// at a time instead.
const WRAP_SAVE: usize = 64;

/// `dst += src` over one tap block, leaving the
/// wrapped elements — the first `w − run` of each `w`-chunk after the
/// first `run` — bitwise untouched: they are saved, the whole block is
/// added, and they are restored. At most [`WRAP_SAVE`] are wrapped.
fn add_block_keeping_wrapped(dst: &mut [f32], src: &[f32], w: usize, run: usize) {
    let gap = w - run;
    debug_assert!(dst.len() / w * gap <= WRAP_SAVE);
    let mut saved = [0.0f32; WRAP_SAVE];
    if gap > 0 {
        let wrapped = dst.get(run..).unwrap_or(&[]).chunks_exact(w);
        for (keep, row) in saved.chunks_exact_mut(gap).zip(wrapped) {
            for (k, v) in keep.iter_mut().zip(row) {
                *k = *v;
            }
        }
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d += *s;
    }
    if gap > 0 {
        let wrapped = dst.get_mut(run..).unwrap_or(&mut []).chunks_exact_mut(w);
        for (keep, row) in saved.chunks_exact(gap).zip(wrapped) {
            for (v, k) in row.iter_mut().zip(keep) {
                *v = *k;
            }
        }
    }
}

/// Unfolds one `[C, H, W]` image (flat slice) into column-major patches.
///
/// The output buffer `col` has layout `[C*KH*KW, OH*OW]` row-major: row
/// `(c*KH + kh)*KW + kw` holds, for each output position, the input pixel
/// that the kernel tap `(c, kh, kw)` sees (0 where padding is sampled).
///
/// Lowering is a copy: per tap, the output rows and columns whose input
/// lies inside the image are computed once and the rest is zero-filled.
/// A stride-1 tap over a full-width output is one `copy_from_slice` of
/// its [`TapBlock`], after which the wrapped positions are zeroed;
/// otherwise each inside row is one `copy_from_slice` (stride 1) or one
/// strided gather (stride > 1). Every element of `col` is written.
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
        if stride == 1 && ow == w {
            let Some(b) = TapBlock::new(w, (ky, kx, pad), (y_lo, y_hi), (x_lo, x_hi)) else {
                col_row.fill(0.0);
                continue;
            };
            let (head, rest) = col_row.split_at_mut(b.dst);
            head.fill(0.0);
            let (block, tail) = rest.split_at_mut(b.len);
            tail.fill(0.0);
            if let Some(src) = img_ch.get(b.src..b.src + b.len) {
                block.copy_from_slice(src);
            }
            let gap = w - b.run;
            let wrapped = block
                .get_mut(b.run..)
                .unwrap_or(&mut [])
                .chunks_exact_mut(w);
            for row in wrapped {
                row.get_mut(..gap).unwrap_or(&mut []).fill(0.0);
            }
            continue;
        }
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
/// A stride-1 tap over a full-width output that wraps at most
/// [`WRAP_SAVE`] positions is added as one pass over its [`TapBlock`];
/// the image elements its wrapped positions map to are saved first and
/// restored after, so they never receive an add (not even `+0.0`, which
/// would turn a caller's `−0.0` into `+0.0`). Otherwise, per
/// tap and inside output row, the columns whose input lies inside the
/// image are added as one slice `+=` (strided for stride > 1); padding
/// columns are skipped without a per-element test. Within one tap the
/// output-to-input map is injective, so each image element receives its
/// additions in `(c, ky, kx)` tap order, the order of the per-element
/// loop this replaced, and results are bitwise unchanged.
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
        if stride == 1 && ow == w {
            let Some(b) = TapBlock::new(w, (ky, kx, pad), (y_lo, y_hi), (x_lo, x_hi)) else {
                continue;
            };
            // `rows − 1` row ends wrap `w − run` elements each.
            if (b.rows - 1) * (w - b.run) <= WRAP_SAVE {
                let src = col_row.get(b.dst..b.dst + b.len).unwrap_or(&[]);
                let dst = img_ch.get_mut(b.src..b.src + b.len).unwrap_or(&mut []);
                add_block_keeping_wrapped(dst, src, w, b.run);
                continue;
            }
        }
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
