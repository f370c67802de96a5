use crate::{Layer, NnError};
use fabflip_tensor::Tensor;

/// A feed-forward stack of [`Layer`]s with flat parameter-vector access.
///
/// `Sequential` is the model representation used everywhere in `fabflip`:
/// federated clients train it locally, and the server-side aggregation rules
/// exchange its weights as flat `Vec<f32>` via [`Sequential::flat_params`] /
/// [`Sequential::set_flat_params`].
///
/// # Examples
///
/// ```
/// use fabflip_nn::{Dense, Relu, Sequential};
/// use fabflip_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut model = Sequential::new();
/// model.push(Dense::new(4, 8, &mut rng));
/// model.push(Relu::new());
/// model.push(Dense::new(8, 2, &mut rng));
/// let y = model.forward(&Tensor::zeros(vec![3, 4]))?;
/// assert_eq!(y.shape(), &[3, 2]);
/// let w = model.flat_params();
/// model.set_flat_params(&w)?; // round-trip
/// # Ok::<(), fabflip_nn::NnError>(())
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        write!(f, "Sequential({names:?})")
    }
}

/// A deep copy: every layer's parameters, gradients and forward caches.
impl Clone for Sequential {
    fn clone(&self) -> Sequential {
        Sequential {
            layers: self.layers.iter().map(|l| l.boxed_clone()).collect(),
        }
    }
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Sequential {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) -> &mut Sequential {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs the forward pass through all layers. The first layer reads
    /// `input` in place; an empty model returns a copy of it.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut x: Option<Tensor> = None;
        for layer in &mut self.layers {
            x = Some(layer.forward(x.as_ref().unwrap_or(input))?);
        }
        Ok(x.unwrap_or_else(|| input.clone()))
    }

    /// Runs the backward pass, accumulating parameter gradients, and returns
    /// the gradient with respect to the model input (needed by the ZKA
    /// attacks, which differentiate *through* the frozen global model into a
    /// generator / filter layer). The last layer reads `grad_out` in place;
    /// an empty model returns a copy of it.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (e.g. backward before forward).
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let mut g: Option<Tensor> = None;
        for layer in self.layers.iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(grad_out))?);
        }
        Ok(g.unwrap_or_else(|| grad_out.clone()))
    }

    /// Runs the backward pass for the parameter gradients only: the first
    /// layer skips `dL/d(input)` ([`Layer::backward_params`]). Every
    /// parameter gradient is bit for bit that of [`Sequential::backward`].
    ///
    /// # Errors
    ///
    /// Propagates layer errors (e.g. backward before forward).
    pub fn backward_params(&mut self, grad_out: &Tensor) -> Result<(), NnError> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut g: Option<Tensor> = None;
        for layer in rest.iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(grad_out))?);
        }
        first.backward_params(g.as_ref().unwrap_or(grad_out))
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Total number of scalar parameters.
    pub fn num_params(&mut self) -> usize {
        self.layers.iter_mut().map(|l| l.num_params()).sum()
    }

    /// Copies all parameters into one flat vector (layer order, value order).
    pub fn flat_params(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        for layer in &mut self.layers {
            layer.visit_params(&mut |p, _| out.extend_from_slice(p.data()));
        }
        out
    }

    /// Copies all gradients into one flat vector (same ordering as
    /// [`Sequential::flat_params`]).
    pub fn flat_grads(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        for layer in &mut self.layers {
            layer.visit_params(&mut |_, g| out.extend_from_slice(g.data()));
        }
        out
    }

    /// Overwrites all parameters from a flat vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] when `flat` has the wrong
    /// length; in that case no parameter is modified.
    pub fn set_flat_params(&mut self, flat: &[f32]) -> Result<(), NnError> {
        let expected = self.num_params();
        if flat.len() != expected {
            return Err(NnError::ParamLengthMismatch {
                expected,
                actual: flat.len(),
            });
        }
        let mut offset = 0usize;
        for layer in &mut self.layers {
            layer.visit_params(&mut |p, _| {
                let n = p.len();
                p.data_mut().copy_from_slice(&flat[offset..offset + n]);
                offset += n;
            });
        }
        Ok(())
    }

    /// Adds `extra` to the accumulated gradients (flat ordering) — used to
    /// inject the ZKA distance-regularizer gradient before an SGD step.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] when `extra` has the wrong
    /// length; gradients are untouched in that case.
    pub fn add_to_grads(&mut self, extra: &[f32]) -> Result<(), NnError> {
        let expected = self.num_params();
        if extra.len() != expected {
            return Err(NnError::ParamLengthMismatch {
                expected,
                actual: extra.len(),
            });
        }
        let mut offset = 0usize;
        for layer in &mut self.layers {
            layer.visit_params(&mut |_, g| {
                let n = g.len();
                for (gv, ev) in g.data_mut().iter_mut().zip(&extra[offset..offset + n]) {
                    *gv += ev;
                }
                offset += n;
            });
        }
        Ok(())
    }

    /// One plain SGD step: `w ← w − lr·g`. Gradients are left untouched;
    /// call [`Sequential::zero_grads`] before the next accumulation.
    pub fn sgd_step(&mut self, lr: f32) {
        for layer in &mut self.layers {
            layer.visit_params(&mut |p, g| {
                for (pv, gv) in p.data_mut().iter_mut().zip(g.data()) {
                    *pv -= lr * gv;
                }
            });
        }
    }

    /// Convenience: zero grads, forward, loss-grad injection via `loss_fn`,
    /// backward ([`Sequential::backward_params`]), step. Returns the loss.
    ///
    /// `loss_fn` maps the logits to `(loss, dL/dlogits)`.
    ///
    /// # Errors
    ///
    /// Propagates layer and loss errors.
    pub fn train_step<F>(&mut self, input: &Tensor, lr: f32, loss_fn: F) -> Result<f32, NnError>
    where
        F: FnOnce(&Tensor) -> Result<(f32, Tensor), NnError>,
    {
        self.zero_grads();
        let logits = self.forward(input)?;
        let (loss, grad) = loss_fn(&logits)?;
        self.backward_params(&grad)?;
        self.sgd_step(lr);
        Ok(loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Relu};
    use rand::{rngs::StdRng, SeedableRng};

    fn small_mlp(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Sequential::new();
        m.push(Dense::new(3, 5, &mut rng));
        m.push(Relu::new());
        m.push(Dense::new(5, 2, &mut rng));
        m
    }

    #[test]
    fn flat_param_roundtrip() {
        let mut m = small_mlp(1);
        let w = m.flat_params();
        assert_eq!(w.len(), 3 * 5 + 5 + 5 * 2 + 2);
        let mut w2 = w.clone();
        for v in &mut w2 {
            *v += 1.0;
        }
        m.set_flat_params(&w2).unwrap();
        assert_eq!(m.flat_params(), w2);
        assert!(m.set_flat_params(&w2[1..]).is_err());
    }

    #[test]
    fn sgd_step_moves_against_gradient() {
        let mut m = small_mlp(2);
        let x = Tensor::full(vec![1, 3], 1.0);
        let before = m.flat_params();
        m.zero_grads();
        let y = m.forward(&x).unwrap();
        let g = Tensor::full(y.shape().to_vec(), 1.0);
        m.backward(&g).unwrap();
        let grads = m.flat_grads();
        m.sgd_step(0.1);
        let after = m.flat_params();
        for ((b, a), gr) in before.iter().zip(&after).zip(&grads) {
            assert!((a - (b - 0.1 * gr)).abs() < 1e-6);
        }
    }

    #[test]
    fn add_to_grads_accumulates() {
        let mut m = small_mlp(3);
        m.zero_grads();
        let n = m.num_params();
        m.add_to_grads(&vec![2.0; n]).unwrap();
        assert!(m.flat_grads().iter().all(|&g| g == 2.0));
        assert!(m.add_to_grads(&vec![0.0; n + 1]).is_err());
    }

    #[test]
    fn train_step_reduces_loss_on_toy_problem() {
        // Regression-to-zero: loss = 0.5 * ||y||^2, grad = y.
        let mut m = small_mlp(4);
        let x = Tensor::full(vec![4, 3], 0.7);
        let mut last = f32::INFINITY;
        for _ in 0..30 {
            let loss = m
                .train_step(&x, 0.05, |y| {
                    let loss = 0.5 * y.data().iter().map(|v| v * v).sum::<f32>();
                    Ok((loss, y.clone()))
                })
                .unwrap();
            last = loss;
        }
        assert!(last < 0.05, "loss did not shrink: {last}");
    }

    #[test]
    fn backward_params_matches_backward_bit_for_bit() {
        use crate::losses::softmax_cross_entropy_hard;
        use crate::models;
        let mut rng = StdRng::seed_from_u64(6);
        // A conv-first model at a batch large enough for the parallel conv
        // path, and a dense-first one.
        let cases = [
            (models::fashion_cnn(&mut rng), vec![24, 1, 28, 28]),
            (small_mlp(7), vec![5, 3]),
        ];
        for (model, shape) in cases {
            let x = Tensor::uniform(shape, -1.0, 1.0, &mut rng);
            let mut full = model.clone();
            let mut params_only = model;
            let mut grads = Vec::new();
            for (m, only_params) in [(&mut full, false), (&mut params_only, true)] {
                m.zero_grads();
                let y = m.forward(&x).unwrap();
                let labels: Vec<usize> = (0..y.shape()[0]).map(|i| i % 2).collect();
                let (_, g) = softmax_cross_entropy_hard(&y, &labels).unwrap();
                if only_params {
                    m.backward_params(&g).unwrap();
                } else {
                    assert_eq!(m.backward(&g).unwrap().shape(), x.shape());
                }
                grads.push(
                    m.flat_grads()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                );
            }
            assert!(grads[0].iter().any(|&b| b != 0));
            assert_eq!(grads[0], grads[1]);
        }
    }

    #[test]
    fn clone_is_deep() {
        let mut m = small_mlp(8);
        let x = Tensor::full(vec![2, 3], 0.3);
        let y = m.forward(&x).unwrap();
        let mut c = m.clone();
        assert_eq!(c.forward(&x).unwrap(), y);
        let w = m.flat_params();
        m.set_flat_params(&vec![0.0; w.len()]).unwrap();
        assert_eq!(c.flat_params(), w);
    }

    #[test]
    fn empty_model_passes_tensors_through() {
        let mut m = Sequential::new();
        let x = Tensor::full(vec![2, 3], 0.5);
        assert_eq!(m.forward(&x).unwrap(), x);
        assert_eq!(m.backward(&x).unwrap(), x);
        m.backward_params(&x).unwrap();
    }

    #[test]
    fn debug_lists_layers() {
        let m = small_mlp(5);
        let s = format!("{m:?}");
        assert!(s.contains("Dense") && s.contains("Relu"));
    }
}
