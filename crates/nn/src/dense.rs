use crate::{Layer, NnError};
use fabflip_tensor::{matmul_into, matmul_transpose_a, matmul_transpose_b, Tensor};
use rand::Rng;

/// A fully connected layer over `[N, IN]` batches: `y = x·Wᵀ + b`.
///
/// Weights are stored `[out_features, in_features]`, He-normal initialized.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    in_features: usize,
    out_features: usize,
    /// The last forward's input, `[rows, in_features]` row-major, copied
    /// into a grow-only layer-owned buffer; `rows` is `None` before the
    /// first forward.
    input: Vec<f32>,
    rows: Option<usize>,
}

impl Dense {
    /// Creates a dense layer, He-normal initialized from `rng`.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Dense {
        let std = (2.0 / in_features as f32).sqrt();
        Dense {
            weight: Tensor::normal(vec![out_features, in_features], 0.0, std, rng),
            bias: Tensor::zeros(vec![out_features]),
            grad_weight: Tensor::zeros(vec![out_features, in_features]),
            grad_bias: Tensor::zeros(vec![out_features]),
            in_features,
            out_features,
            input: Vec::new(),
            rows: None,
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        if input.rank() != 2 || input.shape()[1] != self.in_features {
            return Err(NnError::BadInput {
                layer: "Dense",
                detail: format!(
                    "expected [N, {}], got {:?}",
                    self.in_features,
                    input.shape()
                ),
            });
        }
        let n = input.shape()[0];
        let mut out = Tensor::zeros(vec![n, self.out_features]);
        // y = x (N×IN) · Wᵀ (IN×OUT), W stored (OUT×IN).
        matmul_transpose_b(
            input.data(),
            self.weight.data(),
            out.data_mut(),
            n,
            self.in_features,
            self.out_features,
        );
        for i in 0..n {
            let row = &mut out.data_mut()[i * self.out_features..(i + 1) * self.out_features];
            for (v, b) in row.iter_mut().zip(self.bias.data()) {
                *v += b;
            }
        }
        self.input.clear();
        // fabcheck::allow(alloc_on_hot_path): grow-only layer-owned buffer.
        self.input.extend_from_slice(input.data());
        self.rows = Some(n);
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        self.backward_params(grad_out)?;
        let n = grad_out.shape()[0];
        // grad_x = g (N×OUT) · W (OUT×IN).
        let mut grad_in = Tensor::zeros(vec![n, self.in_features]);
        matmul_into(
            grad_out.data(),
            self.weight.data(),
            grad_in.data_mut(),
            n,
            self.out_features,
            self.in_features,
        );
        Ok(grad_in)
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<(), NnError> {
        let n = self.rows.ok_or(NnError::BackwardBeforeForward("Dense"))?;
        if grad_out.shape() != [n, self.out_features] {
            return Err(NnError::BadInput {
                layer: "Dense",
                detail: format!(
                    "grad shape {:?}, expected [{n}, {}]",
                    grad_out.shape(),
                    self.out_features
                ),
            });
        }
        // grad_W += gᵀ (OUT×N) · x (N×IN).
        matmul_transpose_a(
            grad_out.data(),
            &self.input,
            self.grad_weight.data_mut(),
            self.out_features,
            n,
            self.in_features,
        );
        // grad_b += column sums of g.
        for i in 0..n {
            let row = &grad_out.data()[i * self.out_features..(i + 1) * self.out_features];
            for (gb, &g) in self.grad_bias.data_mut().iter_mut().zip(row) {
                *gb += g;
            }
        }
        Ok(())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn name(&self) -> &'static str {
        "Dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn forward_known_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(2, 2, &mut rng);
        d.weight.data_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]); // [[1,2],[3,4]]
        d.bias.data_mut().copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]).unwrap();
        let y = d.forward(&x).unwrap();
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn backward_shapes_and_grads() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::from_vec(vec![2, 3], vec![1.0; 6]).unwrap();
        let _ = d.forward(&x).unwrap();
        let g = Tensor::from_vec(vec![2, 2], vec![1.0; 4]).unwrap();
        let gx = d.backward(&g).unwrap();
        assert_eq!(gx.shape(), &[2, 3]);
        // grad bias = column sums = [2, 2].
        assert_eq!(d.grad_bias.data(), &[2.0, 2.0]);
        // grad weight: every entry = sum over batch of x = 2.
        assert!(d.grad_weight.data().iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn backward_params_accumulates_the_same_bits_as_backward() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut full = Dense::new(7, 5, &mut rng);
        let mut params_only = full.clone();
        let x = Tensor::uniform(vec![4, 7], -1.0, 1.0, &mut rng);
        let g = Tensor::uniform(vec![4, 5], -1.0, 1.0, &mut rng);
        full.forward(&x).unwrap();
        params_only.forward(&x).unwrap();
        full.backward(&g).unwrap();
        params_only.backward_params(&g).unwrap();
        assert_eq!(full.grad_weight, params_only.grad_weight);
        assert_eq!(full.grad_bias, params_only.grad_bias);
        assert!(params_only
            .backward_params(&Tensor::zeros(vec![4, 4]))
            .is_err());
    }

    /// The cached input follows the batch size down and back up: each
    /// backward sees exactly the last forward's rows, like a freshly built
    /// layer.
    #[test]
    fn cached_input_is_rebuilt_when_the_batch_shrinks_and_grows() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut reused = Dense::new(6, 3, &mut rng);
        for rows in [5usize, 2, 7] {
            let x = Tensor::uniform(vec![rows, 6], -1.0, 1.0, &mut rng);
            let g = Tensor::uniform(vec![rows, 3], -1.0, 1.0, &mut rng);
            let mut fresh = reused.clone();
            fresh.input = Vec::new();
            fresh.rows = None;
            assert_eq!(reused.forward(&x).unwrap(), fresh.forward(&x).unwrap());
            reused.backward(&g).unwrap();
            fresh.backward(&g).unwrap();
            assert_eq!(reused.grad_weight, fresh.grad_weight);
            assert_eq!(reused.grad_bias, fresh.grad_bias);
            // A gradient of the previous batch size is rejected.
            assert!(reused
                .backward_params(&Tensor::zeros(vec![rows + 1, 3]))
                .is_err());
        }
    }

    #[test]
    fn rejects_bad_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(3, 2, &mut rng);
        assert!(d.forward(&Tensor::zeros(vec![1, 4])).is_err());
        assert!(d.backward(&Tensor::zeros(vec![1, 2])).is_err());
    }
}
