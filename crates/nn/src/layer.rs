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
/// intentionally object-safe. Layers are `Send + Sync` so a model template
/// can be shared across the worker pool, and `Clone` (through
/// [`LayerClone`]) so [`crate::Sequential`] can be cloned.
pub trait Layer: LayerClone + Send + Sync {
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

    /// Like [`Layer::backward`], but only accumulates the parameter
    /// gradients: `dL/d(input)` is not needed. [`crate::Sequential`] calls
    /// it on its first layer, whose input is the data. Layers whose input
    /// gradient costs real work ([`crate::Conv2d`], [`crate::Dense`])
    /// override it to skip that work; their parameter gradients stay bit
    /// for bit those of `backward`.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, grad_out: &Tensor) -> Result<(), NnError> {
        self.backward(grad_out).map(drop)
    }

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

/// Object-safe cloning of a boxed [`Layer`], blanket-implemented for every
/// `Layer + Clone`. A clone copies parameters, gradients and whatever the
/// layer cached from its last forward pass.
pub trait LayerClone {
    /// Clones `self` into a new box.
    fn boxed_clone(&self) -> Box<dyn Layer>;
}

impl<T: Layer + Clone + 'static> LayerClone for T {
    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}
