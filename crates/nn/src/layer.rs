use crate::NnError;
use fabflip_tensor::Tensor;

/// A differentiable layer with explicit forward/backward passes.
///
/// The contract mirrors classic define-by-run frameworks:
///
/// 1. `forward` consumes an input batch and caches whatever it needs,
/// 2. `backward` consumes `dL/d(output)` and returns `dL/d(input)`,
///    **accumulating** parameter gradients internally,
/// 3. [`Layer::visit_params`] exposes `(value, grad)` pairs so optimizers and
///    the federated-learning machinery can read/update weights uniformly.
///
/// This trait is used as a trait object inside [`crate::Sequential`]; it is
/// intentionally object-safe.
pub trait Layer: Send {
    /// Computes the layer output for `input`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] (or a wrapped tensor error) when the
    /// input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError>;

    /// Propagates `grad_out = dL/d(output)` back to `dL/d(input)`,
    /// accumulating parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if no forward pass cached
    /// the required activations, or a shape error if `grad_out` does not
    /// match the last forward output.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError>;

    /// Visits every `(parameter, gradient)` tensor pair of the layer.
    ///
    /// Layers without parameters (activations, pooling, reshapes) use the
    /// default empty implementation.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    /// Total number of scalar parameters.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.len());
        n
    }

    /// Sets every parameter gradient to zero.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |_, g| g.zero_());
    }

    /// Short human-readable layer name, e.g. `"Conv2d"`.
    fn name(&self) -> &'static str;
}
