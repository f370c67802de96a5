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

    /// Runs the forward pass through all layers.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    /// Runs the backward pass, accumulating parameter gradients, and returns
    /// the gradient with respect to the model input (needed by the ZKA
    /// attacks, which differentiate *through* the frozen global model into a
    /// generator / filter layer).
    ///
    /// # Errors
    ///
    /// Propagates layer errors (e.g. backward before forward).
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
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
    /// backward, step. Returns the loss.
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
        self.backward(&grad)?;
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
    fn debug_lists_layers() {
        let m = small_mlp(5);
        let s = format!("{m:?}");
        assert!(s.contains("Dense") && s.contains("Relu"));
    }
}
