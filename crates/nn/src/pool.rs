use crate::{Layer, NnError};
use fabflip_tensor::Tensor;

/// 2×2 (or k×k) max pooling with stride equal to the window size, over
/// `[N, C, H, W]` batches. Trailing rows/columns that do not fill a window
/// are dropped (floor semantics), matching PyTorch defaults.
///
/// Each window is scanned row by row; an element replaces the running
/// maximum only when strictly greater. So the first maximum wins, NaN
/// never wins, and a window of only −∞ or NaN routes its gradient to its
/// first element.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    k: usize,
    /// Flat argmax index into the input for every output element of the
    /// last forward; grow-only, reused across calls.
    argmax: Vec<usize>,
    /// Input shape of the last forward; `None` before the first.
    in_shape: Option<[usize; 4]>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer with window and stride `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> MaxPool2d {
        assert!(k > 0, "pool window must be positive");
        MaxPool2d {
            k,
            argmax: Vec::new(),
            in_shape: None,
        }
    }
}

/// One window step: `v` at input index `i` becomes the running maximum
/// when strictly greater. Selects, not a branch — the comparison goes
/// either way about half the time.
#[inline(always)]
fn take(best: &mut f32, at: &mut usize, v: f32, i: usize) {
    let wins = v > *best;
    *best = if wins { v } else { *best };
    *at = if wins { i } else { *at };
}

/// The `k = 2` forward over one `[h, w]` input plane whose first element
/// has flat input index `base`: one pass over each pair of rows, each
/// window in the order (0,0), (0,1), (1,0), (1,1).
fn pool2_plane(plane: &[f32], w: usize, base: usize, out: &mut [f32], argmax: &mut [usize]) {
    let ow = w / 2;
    let rows = plane
        .chunks_exact(2 * w)
        .zip(out.chunks_exact_mut(ow))
        .zip(argmax.chunks_exact_mut(ow));
    for (oy, ((pair, out_row), arg_row)) in rows.enumerate() {
        let (top, bottom) = pair.split_at(w);
        let (top, _) = top.as_chunks::<2>();
        let (bottom, _) = bottom.as_chunks::<2>();
        let row_base = base + 2 * oy * w;
        let cells = top.iter().zip(bottom).zip(out_row.iter_mut().zip(arg_row));
        for (ox, ((&[a, b], &[c, d]), (y, at))) in cells.enumerate() {
            let i = row_base + 2 * ox;
            let (mut best, mut idx) = (f32::NEG_INFINITY, i);
            take(&mut best, &mut idx, a, i);
            take(&mut best, &mut idx, b, i + 1);
            take(&mut best, &mut idx, c, i + w);
            take(&mut best, &mut idx, d, i + w + 1);
            *y = best;
            *at = idx;
        }
    }
}

/// The forward over one `[h, w]` input plane for any window `k`.
fn pool_plane(
    plane: &[f32],
    w: usize,
    k: usize,
    base: usize,
    out: &mut [f32],
    argmax: &mut [usize],
) {
    let ow = w / k;
    let bands = plane
        .chunks_exact(k * w)
        .zip(out.chunks_exact_mut(ow))
        .zip(argmax.chunks_exact_mut(ow));
    for (oy, ((band, out_row), arg_row)) in bands.enumerate() {
        for (ox, (y, at)) in out_row.iter_mut().zip(arg_row).enumerate() {
            let first = base + oy * k * w + ox * k;
            let (mut best, mut idx) = (f32::NEG_INFINITY, first);
            for (dy, row) in band.chunks_exact(w).enumerate() {
                for (dx, &v) in row.iter().skip(ox * k).take(k).enumerate() {
                    if v > best {
                        best = v;
                        idx = first + dy * w + dx;
                    }
                }
            }
            *y = best;
            *at = idx;
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let &[n, c, h, w] = input.shape() else {
            return Err(NnError::BadInput {
                layer: "MaxPool2d",
                // fabcheck::allow(alloc_on_hot_path): error branch only.
                detail: format!("expected rank-4 input, got {:?}", input.shape()),
            });
        };
        let k = self.k;
        if h < k || w < k {
            return Err(NnError::BadInput {
                layer: "MaxPool2d",
                // fabcheck::allow(alloc_on_hot_path): error branch only.
                detail: format!("input {h}x{w} smaller than window {k}"),
            });
        }
        let (oh, ow) = (h / k, w / k);
        // fabcheck::allow(alloc_on_hot_path): the Layer API returns a fresh
        // output tensor.
        let mut out = Tensor::zeros(vec![n, c, oh, ow]);
        // fabcheck::allow(alloc_on_hot_path): grow-only layer-owned buffer.
        self.argmax.resize(n * c * oh * ow, 0);
        let planes = input
            .data()
            .chunks_exact(h * w)
            .zip(out.data_mut().chunks_exact_mut(oh * ow))
            .zip(self.argmax.chunks_exact_mut(oh * ow));
        for (p, ((plane, out_plane), arg_plane)) in planes.enumerate() {
            let base = p * h * w;
            if k == 2 {
                pool2_plane(plane, w, base, out_plane, arg_plane);
            } else {
                pool_plane(plane, w, k, base, out_plane, arg_plane);
            }
        }
        self.in_shape = Some([n, c, h, w]);
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let in_shape = self
            .in_shape
            .ok_or(NnError::BackwardBeforeForward("MaxPool2d"))?;
        if grad_out.len() != self.argmax.len() {
            return Err(NnError::BadInput {
                layer: "MaxPool2d",
                // fabcheck::allow(alloc_on_hot_path): error branch only.
                detail: format!(
                    "grad len {} vs cached {}",
                    grad_out.len(),
                    self.argmax.len()
                ),
            });
        }
        // fabcheck::allow(alloc_on_hot_path): the Layer API returns a fresh
        // gradient tensor.
        let mut grad_in = Tensor::zeros(in_shape.to_vec());
        let gi = grad_in.data_mut();
        // `+=` onto zeros, not `=`: a −0.0 gradient lands as +0.0. Every
        // argmax lies inside the input the forward read.
        for (&g, &i) in grad_out.data().iter().zip(&self.argmax) {
            if let Some(v) = gi.get_mut(i) {
                *v += g;
            }
        }
        Ok(grad_in)
    }

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The max pool before its `k = 2` select path and iterator rewrite:
    /// `(output, argmax)` for a `[n, c, h, w]` input.
    fn reference_forward(data: &[f32], shape: [usize; 4], k: usize) -> (Vec<f32>, Vec<usize>) {
        let [n, c, h, w] = shape;
        let (oh, ow) = (h / k, w / k);
        let mut out_data = vec![0.0f32; n * c * oh * ow];
        let mut argmax = vec![0usize; n * c * oh * ow];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                let obase = (ni * c + ci) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = base + oy * k * w + ox * k;
                        for dy in 0..k {
                            for dx in 0..k {
                                let idx = base + (oy * k + dy) * w + (ox * k + dx);
                                if data[idx] > best {
                                    best = data[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        out_data[obase + oy * ow + ox] = best;
                        argmax[obase + oy * ow + ox] = best_idx;
                    }
                }
            }
        }
        (out_data, argmax)
    }

    /// The reference backward: each output gradient added onto zeros at
    /// its argmax.
    fn reference_backward(grad_out: &[f32], argmax: &[usize], in_len: usize) -> Vec<f32> {
        let mut grad_in = vec![0.0f32; in_len];
        for (g, &idx) in grad_out.iter().zip(argmax) {
            grad_in[idx] += g;
        }
        grad_in
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Forward then backward through `p`, bit for bit against the
    /// reference loops; the gradient is `grad` repeated.
    fn assert_matches_reference(p: &mut MaxPool2d, data: &[f32], shape: [usize; 4], grad: &[f32]) {
        let k = p.k;
        let (y_ref, arg_ref) = reference_forward(data, shape, k);
        let y = p
            .forward(&Tensor::from_vec(shape.to_vec(), data.to_vec()).unwrap())
            .unwrap();
        assert_eq!(bits(y.data()), bits(&y_ref), "k={k} forward of {data:?}");
        assert_eq!(p.argmax, arg_ref, "k={k} argmax of {data:?}");
        let g: Vec<f32> = grad.iter().copied().cycle().take(y_ref.len()).collect();
        let gx_ref = reference_backward(&g, &arg_ref, data.len());
        let gx = p
            .backward(&Tensor::from_vec(y.shape().to_vec(), g).unwrap())
            .unwrap();
        assert_eq!(gx.shape(), &shape);
        assert_eq!(bits(gx.data()), bits(&gx_ref), "k={k} backward of {data:?}");
    }

    const NAN: f32 = f32::NAN;
    const INF: f32 = f32::INFINITY;
    const NEG_INF: f32 = f32::NEG_INFINITY;

    /// Values whose order the strict `>` scan must respect: NaN, ±0, ±∞,
    /// a subnormal, and ties.
    const SPECIALS: [f32; 10] = [
        NAN,
        -NAN,
        0.0,
        -0.0,
        INF,
        NEG_INF,
        f32::MIN_POSITIVE / 2.0,
        1.0,
        1.0,
        -1.0,
    ];

    #[test]
    fn two_by_two_windows_match_the_reference_on_special_values() {
        // One window per row of this table, in (0,0), (0,1), (1,0), (1,1)
        // order: ties (first wins), NaN first/last (never wins), all NaN
        // and all −∞ (first index), ±0 ties, +∞ after NaN.
        let windows: [[f32; 4]; 10] = [
            [1.0, 1.0, 1.0, 1.0],
            [0.5, 2.0, 2.0, 1.0],
            [NAN, 1.0, 3.0, 3.0],
            [1.0, 2.0, 3.0, NAN],
            [NAN, NAN, NAN, NAN],
            [NEG_INF, NEG_INF, NEG_INF, NEG_INF],
            [NEG_INF, NAN, NEG_INF, NAN],
            [-0.0, 0.0, -0.0, 0.0],
            [0.0, -0.0, 0.0, -0.0],
            [NAN, INF, -1.0, INF],
        ];
        let mut p = MaxPool2d::new(2);
        for win in &windows {
            let [a, b, c, d] = *win;
            for grad in [1.0, -0.0, NAN, NEG_INF] {
                assert_matches_reference(&mut p, &[a, b, c, d], [1, 1, 2, 2], &[grad]);
            }
        }
        // The same windows side by side in one plane, plus an odd
        // trailing row and column that no window reads.
        let (h, w) = (5, 2 * windows.len() + 1);
        let mut plane = vec![7.0f32; h * w];
        for (i, win) in windows.iter().enumerate() {
            for (j, &v) in win.iter().enumerate() {
                plane[(j / 2) * w + 2 * i + j % 2] = v;
                plane[(2 + j / 2) * w + 2 * i + j % 2] = -v;
            }
        }
        assert_matches_reference(&mut p, &plane, [1, 1, h, w], &[1.0, -0.0, 2.5]);
    }

    #[test]
    fn other_windows_and_batches_match_the_reference() {
        let data: Vec<f32> = (0..2 * 3 * 7 * 8)
            .map(|i| {
                SPECIALS[(i * 7 + i / 5) % SPECIALS.len()] * if i % 3 == 0 { -1.0 } else { 1.0 }
            })
            .collect();
        for k in 1..=4 {
            let mut p = MaxPool2d::new(k);
            assert_matches_reference(&mut p, &data, [2, 3, 7, 8], &[1.0, -0.0, 0.25]);
        }
        // k = 3 on all −∞ and all NaN planes keeps each window's first index.
        let mut p = MaxPool2d::new(3);
        assert_matches_reference(&mut p, &[NEG_INF; 36], [1, 1, 6, 6], &[1.0]);
        assert_matches_reference(&mut p, &[NAN; 36], [1, 1, 6, 6], &[1.0]);
    }

    #[test]
    fn argmax_is_rebuilt_when_the_input_shrinks_and_grows() {
        let mut p = MaxPool2d::new(2);
        let big: Vec<f32> = (0..64).map(|i| ((i * 37) % 11) as f32).collect();
        assert_matches_reference(&mut p, &big, [1, 1, 8, 8], &[1.0]);
        assert_matches_reference(&mut p, &big[..16], [1, 1, 4, 4], &[1.0]);
        assert!(p.backward(&Tensor::zeros(vec![1, 1, 4, 4])).is_err());
        assert_matches_reference(&mut p, &big, [1, 4, 4, 4], &[2.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pooling_matches_the_reference(
            n in 1usize..3,
            c in 1usize..3,
            h in 1usize..8,
            w in 1usize..8,
            k in 1usize..4,
            codes in proptest::collection::vec(0usize..20, 196),
            values in proptest::collection::vec(-3.0f32..3.0, 196),
        ) {
            prop_assume!(h >= k && w >= k);
            // Codes below 10 pick a special value, the rest a random one.
            let data: Vec<f32> = codes[..n * c * h * w]
                .iter()
                .zip(&values)
                .map(|(&code, &v)| SPECIALS.get(code).copied().unwrap_or(v))
                .collect();
            let mut p = MaxPool2d::new(k);
            assert_matches_reference(&mut p, &data, [n, c, h, w], &[1.0, -0.5, -0.0]);
        }
    }

    #[test]
    fn forward_picks_max_and_routes_grad() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![1, 1, 2, 4],
            vec![1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 1.0, 8.0],
        )
        .unwrap();
        let y = p.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 1, 1, 2]);
        assert_eq!(y.data(), &[5.0, 8.0]);
        let g = Tensor::from_vec(vec![1, 1, 1, 2], vec![10.0, 20.0]).unwrap();
        let gx = p.backward(&g).unwrap();
        assert_eq!(gx.data(), &[0.0, 10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 20.0]);
    }

    #[test]
    fn odd_tail_is_dropped() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::zeros(vec![1, 1, 5, 5]);
        let y = p.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
    }

    #[test]
    fn rejects_too_small_input() {
        let mut p = MaxPool2d::new(4);
        assert!(p.forward(&Tensor::zeros(vec![1, 1, 2, 2])).is_err());
    }
}
