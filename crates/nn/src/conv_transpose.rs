use crate::{Layer, NnError};
use fabflip_tensor::scratch::{scratch_f32, scratch_zeroed, Purpose};
use fabflip_tensor::{
    col2im, im2col, matmul_into, matmul_transpose_a, matmul_transpose_b, par, Tensor,
    PAR_FLOP_THRESHOLD,
};
use rand::Rng;

/// A 2-D transposed convolution ("deconvolution") over `[N, C, H, W]`
/// batches — the upsampling building block of the ZKA-G generator (the paper
/// uses a light-weight TCNN of two transposed convolutions and one
/// convolution, following the WGAN generator structure).
///
/// Weights are stored `[in_channels, out_channels, kh, kw]` (PyTorch
/// `ConvTranspose2d` layout). Output spatial size is
/// `(H − 1)·stride − 2·pad + kernel`.
///
/// Implementation note: the forward pass *is* the input-gradient pass of an
/// ordinary convolution, so it reuses the property-tested
/// [`col2im`]/[`im2col`] pair from `fabflip-tensor`.
#[derive(Debug, Clone)]
pub struct ConvTranspose2d {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    cache: Option<Cache>,
    /// Per-sample weight+bias gradient stripes `[N, IC·OKK + OC]`, zeroed
    /// and reused each backward, merged in ascending sample order.
    gwb: Vec<f32>,
}

#[derive(Debug, Clone)]
struct Cache {
    input: Tensor,
    out_h: usize,
    out_w: usize,
}

impl ConvTranspose2d {
    /// Creates a transposed convolution, He-normal initialized.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> ConvTranspose2d {
        let fan_in = (in_channels * kernel * kernel) as f32;
        let std = (2.0 / fan_in).sqrt();
        ConvTranspose2d {
            weight: Tensor::normal(
                vec![in_channels, out_channels, kernel, kernel],
                0.0,
                std,
                rng,
            ),
            bias: Tensor::zeros(vec![out_channels]),
            grad_weight: Tensor::zeros(vec![in_channels, out_channels, kernel, kernel]),
            grad_bias: Tensor::zeros(vec![out_channels]),
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            cache: None,
            gwb: Vec::new(),
        }
    }

    /// Output spatial size for a given input spatial size:
    /// `(input − 1)·stride − 2·pad + kernel`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when the input is empty, the layer's
    /// stride is zero, or the geometry underflows.
    pub fn out_dim(&self, input: usize) -> Result<usize, NnError> {
        if input == 0 || self.stride == 0 {
            return Err(NnError::BadInput {
                layer: "ConvTranspose2d",
                // fabcheck::allow(alloc_on_hot_path): error branch only.
                detail: format!("input {input} with stride {}", self.stride),
            });
        }
        let grown = (input - 1) * self.stride + self.kernel;
        if grown < 2 * self.pad + 1 {
            return Err(NnError::BadInput {
                layer: "ConvTranspose2d",
                // fabcheck::allow(alloc_on_hot_path): error branch only.
                detail: format!("padding {} too large for input {input}", self.pad),
            });
        }
        Ok(grown - 2 * self.pad)
    }
}

impl Layer for ConvTranspose2d {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        if input.rank() != 4 || input.shape()[1] != self.in_channels {
            return Err(NnError::BadInput {
                layer: "ConvTranspose2d",
                // fabcheck::allow(alloc_on_hot_path): error branch only.
                detail: format!(
                    "expected [N, {}, H, W], got {:?}",
                    self.in_channels,
                    input.shape()
                ),
            });
        }
        let (n, _c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let oh = self.out_dim(h)?;
        let ow = self.out_dim(w)?;
        let area_in = h * w;
        let okk = self.out_channels * self.kernel * self.kernel;
        // fabcheck::allow(alloc_on_hot_path): the Layer API returns a fresh
        // output tensor — one allocation per call, not O(model) per round.
        let mut out = Tensor::zeros(vec![n, self.out_channels, oh, ow]);
        let in_sample = self.in_channels * area_in;
        let out_sample = self.out_channels * oh * ow;
        let weight = self.weight.data();
        let bias = self.bias.data();
        let (in_channels, out_channels) = (self.in_channels, self.out_channels);
        let (kernel, stride, pad) = (self.kernel, self.stride, self.pad);
        let input_data = input.data();
        // Batch-parallel: each sample owns a disjoint output slice (see the
        // determinism contract in `fabflip_tensor::par`).
        let per_sample = |i: usize, y: &mut [f32]| {
            let x = &input_data[i * in_sample..(i + 1) * in_sample];
            // col = Wᵀ [OKK, IC] · x [IC, HW]; weight stored [IC, OKK].
            // Zeroed thread-local scratch: the matmul accumulates.
            let mut col = scratch_zeroed(Purpose::ConvCol, okk * area_in);
            matmul_transpose_a(weight, x, &mut col, okk, in_channels, area_in);
            col2im(&col, y, out_channels, oh, ow, kernel, kernel, stride, pad);
            for oc in 0..out_channels {
                let b = bias[oc];
                for v in &mut y[oc * oh * ow..(oc + 1) * oh * ow] {
                    *v += b;
                }
            }
        };
        let batch_flops = 2 * (n * okk * in_channels * area_in) as u64;
        if batch_flops < PAR_FLOP_THRESHOLD || par::max_threads() == 1 {
            for (i, y) in out.data_mut().chunks_mut(out_sample).enumerate() {
                per_sample(i, y);
            }
        } else {
            par::for_each_chunk_mut(out.data_mut(), out_sample, per_sample);
        }
        self.cache = Some(Cache {
            // fabcheck::allow(alloc_on_hot_path): backward's weight gradient
            // needs the forward input — one cached clone per forward call.
            input: input.clone(),
            out_h: oh,
            out_w: ow,
        });
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let cache = self
            .cache
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("ConvTranspose2d"))?;
        let input = &cache.input;
        let (n, _c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let (oh, ow) = (cache.out_h, cache.out_w);
        let expected = [n, self.out_channels, oh, ow];
        if grad_out.shape() != expected {
            return Err(NnError::BadInput {
                layer: "ConvTranspose2d",
                // fabcheck::allow(alloc_on_hot_path): error branch only.
                detail: format!("grad shape {:?}, expected {:?}", grad_out.shape(), expected),
            });
        }
        let area_in = h * w;
        let okk = self.out_channels * self.kernel * self.kernel;
        let in_sample = self.in_channels * area_in;
        let out_sample = self.out_channels * oh * ow;
        // fabcheck::allow(alloc_on_hot_path): fresh gradient tensor — the
        // Layer API hands ownership to the caller.
        let mut grad_in = Tensor::zeros(input.shape().to_vec());
        let weight = self.weight.data();
        let (in_channels, out_channels) = (self.in_channels, self.out_channels);
        let (kernel, stride, pad) = (self.kernel, self.stride, self.pad);
        let grad_out_data = grad_out.data();
        let input_data = input.data();
        // Batch-parallel with per-sample weight/bias contributions written
        // into per-sample stripes of one flat reusable buffer and merged in
        // ascending sample order (bitwise-identical to the serial
        // accumulation; see Conv2d::backward).
        let gw_len = in_channels * okk;
        let gwb_len = gw_len + out_channels;
        self.gwb.clear();
        // fabcheck::allow(alloc_on_hot_path): grow-only layer-owned buffer.
        self.gwb.resize(n * gwb_len, 0.0);
        let per_sample = |i: usize, gx: &mut [f32], gwb: &mut [f32]| {
            let g = &grad_out_data[i * out_sample..(i + 1) * out_sample];
            let (gw, gb) = gwb.split_at_mut(gw_len);
            for (oc, gb_v) in gb.iter_mut().enumerate() {
                // fabcheck::allow(unordered_float_reduction): serial per-channel sum over this sample's contiguous stripe
                *gb_v = g[oc * oh * ow..(oc + 1) * oh * ow].iter().sum::<f32>();
            }
            // col_g = im2col(g): [OKK, HW] — the forward conv's lowering.
            // Unspecified-contents scratch is fine: im2col writes every
            // element (padding included) before anything reads it.
            let mut col_g = scratch_f32(Purpose::Im2col, okk * area_in);
            im2col(
                g,
                &mut col_g,
                out_channels,
                oh,
                ow,
                kernel,
                kernel,
                stride,
                pad,
            );
            // grad_x = W [IC, OKK] · col_g [OKK, HW].
            matmul_into(weight, &col_g, gx, in_channels, okk, area_in);
            // grad_W contribution: x [IC, HW] · col_gᵀ [HW, OKK].
            let x = &input_data[i * in_sample..(i + 1) * in_sample];
            matmul_transpose_b(x, &col_g, gw, in_channels, area_in, okk);
        };
        let batch_flops = 4 * (n * in_channels * okk * area_in) as u64;
        if batch_flops < PAR_FLOP_THRESHOLD || par::max_threads() == 1 {
            for (i, (s, gwb)) in grad_in
                .data_mut()
                .chunks_mut(in_sample)
                .zip(self.gwb.chunks_mut(gwb_len))
                .enumerate()
            {
                per_sample(i, s, gwb);
            }
        } else {
            par::for_each_chunk_pair_mut(
                grad_in.data_mut(),
                in_sample,
                &mut self.gwb,
                gwb_len,
                per_sample,
            );
        }
        for gwb in self.gwb.chunks(gwb_len) {
            for (dst, src) in self.grad_weight.data_mut().iter_mut().zip(&gwb[..gw_len]) {
                *dst += *src;
            }
            for (dst, src) in self.grad_bias.data_mut().iter_mut().zip(&gwb[gw_len..]) {
                *dst += *src;
            }
        }
        Ok(grad_in)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn name(&self) -> &'static str {
        "ConvTranspose2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn out_dim_doubles_with_stride_2() {
        let mut rng = StdRng::seed_from_u64(0);
        let up = ConvTranspose2d::new(4, 2, 4, 2, 1, &mut rng);
        assert_eq!(up.out_dim(7).unwrap(), 14);
        assert_eq!(up.out_dim(14).unwrap(), 28);
    }

    #[test]
    fn out_dim_rejects_empty_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let up = ConvTranspose2d::new(4, 2, 4, 2, 1, &mut rng);
        assert!(matches!(up.out_dim(0), Err(NnError::BadInput { .. })));
    }

    #[test]
    fn zero_stride_is_bad_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut up = ConvTranspose2d::new(1, 1, 3, 0, 0, &mut rng);
        let x = Tensor::zeros(vec![1, 1, 4, 4]);
        assert!(matches!(up.forward(&x), Err(NnError::BadInput { .. })));
        assert!(matches!(up.out_dim(4), Err(NnError::BadInput { .. })));
    }

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut up = ConvTranspose2d::new(3, 2, 4, 2, 1, &mut rng);
        let x = Tensor::zeros(vec![2, 3, 7, 7]);
        let y = up.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 2, 14, 14]);
    }

    #[test]
    fn forward_known_value_1x1() {
        // 1x1 kernel stride 1: output = w * x + b.
        let mut rng = StdRng::seed_from_u64(0);
        let mut up = ConvTranspose2d::new(1, 1, 1, 1, 0, &mut rng);
        up.weight.data_mut()[0] = 3.0;
        up.bias.data_mut()[0] = 0.5;
        let x = Tensor::from_vec(vec![1, 1, 1, 2], vec![1.0, 2.0]).unwrap();
        let y = up.forward(&x).unwrap();
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn transpose_is_adjoint_of_conv() {
        // <convT(x), y> must equal <x, conv(y)> when convT's weight equals
        // the conv's weight (same [IC(out of conv), OC, k, k] layout match).
        use crate::Conv2d;
        let mut rng = StdRng::seed_from_u64(3);
        let mut up = ConvTranspose2d::new(2, 3, 3, 2, 1, &mut rng);
        up.bias.zero_();
        // Build conv sharing the same weight: conv maps 3ch -> 2ch. The
        // transposed layer stores weights [IC_up=2, OC_up=3, k, k], which is
        // byte-identical to the conv layout [OC_conv=2, IC_conv=3, k, k]
        // because convT's forward is exactly conv's input-gradient pass.
        let mut conv = Conv2d::new(3, 2, 3, 2, 1, &mut rng);
        let k = 3usize;
        let mut uw = vec![0.0f32; 2 * 3 * k * k];
        up.visit_params(&mut |p, _| {
            if p.len() == uw.len() {
                uw.copy_from_slice(p.data());
            }
        });
        conv.visit_params(&mut |p, _| {
            if p.len() == uw.len() {
                p.data_mut().copy_from_slice(&uw);
            } else {
                p.zero_();
            }
        });
        let mut r2 = StdRng::seed_from_u64(9);
        let x = Tensor::uniform(vec![1, 2, 5, 5], -1.0, 1.0, &mut r2);
        let up_out = up.forward(&x).unwrap();
        let y = Tensor::uniform(up_out.shape().to_vec(), -1.0, 1.0, &mut r2);
        let lhs: f32 = up_out.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let conv_y = conv.forward(&y).unwrap();
        assert_eq!(conv_y.shape(), x.shape());
        let rhs: f32 = x.data().iter().zip(conv_y.data()).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
            "{lhs} vs {rhs}"
        );
    }
}
