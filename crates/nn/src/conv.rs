use crate::{Layer, NnError};
use fabflip_tensor::scratch::{scratch_zeroed, Purpose};
use fabflip_tensor::{
    col2im, conv_out_dim, im2col, matmul_into, matmul_transpose_a, matmul_transpose_b, par, Tensor,
    PAR_FLOP_THRESHOLD,
};
use rand::Rng;

/// A 2-D convolution layer over `[N, C, H, W]` batches.
///
/// Weights are stored `[out_channels, in_channels, kh, kw]`; the forward
/// pass lowers each sample with [`im2col`] and performs one matrix multiply.
/// Initialization is He-normal (`std = sqrt(2 / fan_in)`), appropriate for
/// the ReLU networks of the paper.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    /// Input geometry from the last forward.
    cache: Option<ConvCache>,
    /// Per-sample im2col matrices from the last forward, one flat
    /// `[N, CKK·OH·OW]` buffer reused (grow-only) across rounds. `im2col`
    /// fully overwrites each sample's stripe before anything reads it.
    cols: Vec<f32>,
    /// Per-sample weight+bias gradient stripes `[N, OC·CKK + OC]`, zeroed
    /// and reused each backward, merged in ascending sample order.
    gwb: Vec<f32>,
}

#[derive(Debug, Clone, Copy)]
struct ConvCache {
    in_shape: [usize; 4],
    out_h: usize,
    out_w: usize,
}

impl Conv2d {
    /// Creates a convolution with square `kernel`, given `stride` and `pad`,
    /// He-normal initialized from `rng`.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Conv2d {
        let fan_in = (in_channels * kernel * kernel) as f32;
        let std = (2.0 / fan_in).sqrt();
        Conv2d {
            weight: Tensor::normal(
                vec![out_channels, in_channels, kernel, kernel],
                0.0,
                std,
                rng,
            ),
            bias: Tensor::zeros(vec![out_channels]),
            grad_weight: Tensor::zeros(vec![out_channels, in_channels, kernel, kernel]),
            grad_bias: Tensor::zeros(vec![out_channels]),
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            cache: None,
            cols: Vec::new(),
            gwb: Vec::new(),
        }
    }

    /// Output spatial size for a given input spatial size.
    ///
    /// # Errors
    ///
    /// Propagates the geometry error when the kernel does not fit.
    pub fn out_dim(&self, input: usize) -> Result<usize, NnError> {
        Ok(conv_out_dim(input, self.kernel, self.stride, self.pad)?)
    }

    /// The last forward's geometry, once `grad_out` has its output shape.
    fn check_grad(&self, grad_out: &Tensor) -> Result<ConvCache, NnError> {
        let cache = self.cache.ok_or(NnError::BackwardBeforeForward("Conv2d"))?;
        let [n, ..] = cache.in_shape;
        let expected = [n, self.out_channels, cache.out_h, cache.out_w];
        if grad_out.shape() != expected {
            return Err(NnError::BadInput {
                layer: "Conv2d",
                // fabcheck::allow(alloc_on_hot_path): error branch only.
                detail: format!("grad shape {:?}, expected {:?}", grad_out.shape(), expected),
            });
        }
        Ok(cache)
    }

    /// Accumulates the weight and bias gradients for `grad_out` and, when
    /// `grad_in` is given, writes `dL/d(input)` into it (zeroed, input
    /// shape). Without `grad_in` there is no `Wᵀ·g` GEMM and no `col2im`.
    fn accumulate_grads(
        &mut self,
        cache: ConvCache,
        grad_out: &[f32],
        grad_in: Option<&mut [f32]>,
    ) {
        let [n, c, h, w] = cache.in_shape;
        let out_area = cache.out_h * cache.out_w;
        let ckk = c * self.kernel * self.kernel;
        let sample_len = c * h * w;
        let out_sample_len = self.out_channels * out_area;
        let weight = self.weight.data();
        let out_channels = self.out_channels;
        let (kernel, stride, pad) = (self.kernel, self.stride, self.pad);
        let col_len = ckk * out_area;
        let cols = &self.cols;
        debug_assert_eq!(cols.len(), n * col_len, "cols stale relative to cache");
        // Per-sample input gradients are disjoint; per-sample weight/bias
        // contributions go into per-sample stripes of one flat reusable
        // buffer and are summed in ascending sample order afterwards, which
        // reproduces the serial accumulation sequence bitwise (each matmul
        // adds one complete dot product per element, so "accumulate in
        // place" and "accumulate locally then merge in order" perform the
        // identical chain of additions).
        let gw_len = out_channels * ckk;
        let gwb_len = gw_len + out_channels;
        self.gwb.clear();
        // fabcheck::allow(alloc_on_hot_path): grow-only layer-owned buffer.
        self.gwb.resize(n * gwb_len, 0.0);
        let sample_grad = |i: usize| &grad_out[i * out_sample_len..(i + 1) * out_sample_len];
        let param_grads = |i: usize, gwb: &mut [f32]| {
            let g = sample_grad(i);
            // Weight gradient: g [OC, A] · colᵀ [A, CKK]; bias gradient:
            // per-channel sums. Both land in this sample's gwb stripe.
            let (gw, gb) = gwb.split_at_mut(gw_len);
            for (gb_v, g_oc) in gb.iter_mut().zip(g.chunks_exact(out_area)) {
                // fabcheck::allow(unordered_float_reduction): serial per-channel sum over this sample's contiguous stripe
                *gb_v = g_oc.iter().sum::<f32>();
            }
            matmul_transpose_b(
                g,
                &cols[i * col_len..(i + 1) * col_len],
                gw,
                out_channels,
                out_area,
                ckk,
            );
        };
        let serial = |gemms: u64| {
            gemms * ((n * out_channels * ckk * out_area) as u64) < PAR_FLOP_THRESHOLD
                || par::max_threads() == 1
        };
        match grad_in {
            Some(grad_in) => {
                let per_sample = |i: usize, gi: &mut [f32], gwb: &mut [f32]| {
                    param_grads(i, gwb);
                    // Input gradient: Wᵀ [CKK, OC] · g [OC, A], folded back
                    // with col2im. Zeroed thread-local scratch: the matmul
                    // accumulates.
                    let mut grad_col = scratch_zeroed(Purpose::GradCol, col_len);
                    matmul_transpose_a(
                        weight,
                        sample_grad(i),
                        &mut grad_col,
                        ckk,
                        out_channels,
                        out_area,
                    );
                    col2im(&grad_col, gi, c, h, w, kernel, kernel, stride, pad);
                };
                if serial(4) {
                    for (i, (s, gwb)) in grad_in
                        .chunks_mut(sample_len)
                        .zip(self.gwb.chunks_mut(gwb_len))
                        .enumerate()
                    {
                        per_sample(i, s, gwb);
                    }
                } else {
                    par::for_each_chunk_pair_mut(
                        grad_in,
                        sample_len,
                        &mut self.gwb,
                        gwb_len,
                        per_sample,
                    );
                }
            }
            None if serial(2) => {
                for (i, gwb) in self.gwb.chunks_mut(gwb_len).enumerate() {
                    param_grads(i, gwb);
                }
            }
            None => par::for_each_chunk_mut(&mut self.gwb, gwb_len, param_grads),
        }
        for gwb in self.gwb.chunks(gwb_len) {
            let (gw, gb) = gwb.split_at(gw_len);
            for (dst, src) in self.grad_weight.data_mut().iter_mut().zip(gw) {
                *dst += *src;
            }
            for (dst, src) in self.grad_bias.data_mut().iter_mut().zip(gb) {
                *dst += *src;
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        if input.rank() != 4 || input.shape()[1] != self.in_channels {
            return Err(NnError::BadInput {
                layer: "Conv2d",
                // fabcheck::allow(alloc_on_hot_path): error branch only.
                detail: format!(
                    "expected [N, {}, H, W], got {:?}",
                    self.in_channels,
                    input.shape()
                ),
            });
        }
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let oh = conv_out_dim(h, self.kernel, self.stride, self.pad)?;
        let ow = conv_out_dim(w, self.kernel, self.stride, self.pad)?;
        let ckk = c * self.kernel * self.kernel;
        let out_area = oh * ow;
        // fabcheck::allow(alloc_on_hot_path): the Layer API returns a fresh
        // output tensor — one allocation per call, not O(model) per round.
        let mut out = Tensor::zeros(vec![n, self.out_channels, oh, ow]);
        let sample_len = c * h * w;
        let out_sample_len = self.out_channels * out_area;
        let weight = self.weight.data();
        let bias = self.bias.data();
        let out_channels = self.out_channels;
        let (kernel, stride, pad) = (self.kernel, self.stride, self.pad);
        let input_data = input.data();
        // Each sample writes a disjoint output slice and its own stripe of
        // the flat im2col buffer, so the batch dimension parallelizes
        // trivially; results are merged in sample order (determinism
        // contract in `fabflip_tensor::par`). The buffer is layer-owned and
        // grow-only: steady-state rounds allocate nothing here.
        let col_len = ckk * out_area;
        // fabcheck::allow(alloc_on_hot_path): grow-only layer-owned buffer.
        self.cols.resize(n * col_len, 0.0);
        let cols = &mut self.cols;
        let per_sample = |i: usize, out_sample: &mut [f32], col: &mut [f32]| {
            let img = &input_data[i * sample_len..(i + 1) * sample_len];
            im2col(img, col, c, h, w, kernel, kernel, stride, pad);
            matmul_into(weight, col, out_sample, out_channels, ckk, out_area);
            for oc in 0..out_channels {
                let b = bias[oc];
                for v in &mut out_sample[oc * out_area..(oc + 1) * out_area] {
                    *v += b;
                }
            }
        };
        let batch_flops = 2 * (n * out_channels * ckk * out_area) as u64;
        if batch_flops < PAR_FLOP_THRESHOLD || par::max_threads() == 1 {
            for (i, (s, col)) in out
                .data_mut()
                .chunks_mut(out_sample_len)
                .zip(cols.chunks_mut(col_len))
                .enumerate()
            {
                per_sample(i, s, col);
            }
        } else {
            par::for_each_chunk_pair_mut(out.data_mut(), out_sample_len, cols, col_len, per_sample);
        }
        self.cache = Some(ConvCache {
            in_shape: [n, c, h, w],
            out_h: oh,
            out_w: ow,
        });
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let cache = self.check_grad(grad_out)?;
        // fabcheck::allow(alloc_on_hot_path): fresh gradient tensor — the
        // Layer API hands ownership to the caller.
        let mut grad_in = Tensor::zeros(cache.in_shape.to_vec());
        self.accumulate_grads(cache, grad_out.data(), Some(grad_in.data_mut()));
        Ok(grad_in)
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<(), NnError> {
        let cache = self.check_grad(grad_out)?;
        self.accumulate_grads(cache, grad_out.data(), None);
        Ok(())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 4, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(vec![2, 1, 8, 8]);
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 4, 8, 8]);
        assert_eq!(conv.out_dim(8).unwrap(), 8);
    }

    #[test]
    fn forward_known_values() {
        // Identity-ish: single 1x1 kernel with weight 2, bias 1.
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        conv.weight.data_mut()[0] = 2.0;
        conv.bias.data_mut()[0] = 1.0;
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.data(), &[3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn rejects_wrong_channels() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(vec![1, 1, 8, 8]);
        assert!(matches!(conv.forward(&x), Err(NnError::BadInput { .. })));
    }

    #[test]
    fn backward_before_forward_fails() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        let g = Tensor::zeros(vec![1, 1, 8, 8]);
        assert!(matches!(
            conv.backward(&g),
            Err(NnError::BackwardBeforeForward(_))
        ));
    }

    #[test]
    fn backward_params_accumulates_the_same_bits_as_backward() {
        // Batch 1 takes the serial loop; batch 8 (≈19 MFLOP for the weight
        // gradient alone) the parallel one when the pool has threads.
        for n in [1, 8] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut full = Conv2d::new(8, 16, 3, 1, 1, &mut rng);
            let mut params_only = full.clone();
            let x = Tensor::uniform(vec![n, 8, 32, 32], -1.0, 1.0, &mut rng);
            let g = Tensor::uniform(vec![n, 16, 32, 32], -1.0, 1.0, &mut rng);
            // Two steps, so the second accumulates onto the first.
            for _ in 0..2 {
                full.forward(&x).unwrap();
                params_only.forward(&x).unwrap();
                assert_eq!(full.backward(&g).unwrap().shape(), x.shape());
                params_only.backward_params(&g).unwrap();
            }
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&full.grad_weight), bits(&params_only.grad_weight));
            assert_eq!(bits(&full.grad_bias), bits(&params_only.grad_bias));
        }
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut StdRng::seed_from_u64(0));
        assert!(conv
            .backward_params(&Tensor::zeros(vec![1, 1, 4, 4]))
            .is_err());
        conv.forward(&Tensor::zeros(vec![1, 1, 4, 4])).unwrap();
        assert!(conv
            .backward_params(&Tensor::zeros(vec![1, 1, 4, 3]))
            .is_err());
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        assert_eq!(conv.num_params(), 3 * 2 * 9 + 3);
    }
}
