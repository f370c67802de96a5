//! Element-wise activation layers: [`Relu`] and [`Sigmoid`]. Each caches
//! its forward output (or input mask) for the backward pass.

use crate::{Layer, NnError};
use fabflip_tensor::Tensor;

/// Rectified linear unit, `max(0, x)`.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Relu {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        self.mask = Some(input.data().iter().map(|&x| x > 0.0).collect());
        Ok(input.map(|x| if x > 0.0 { x } else { 0.0 }))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let mask = self
            .mask
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("Relu"))?;
        if mask.len() != grad_out.len() {
            return Err(NnError::BadInput {
                layer: "Relu",
                detail: format!("grad len {} vs cached {}", grad_out.len(), mask.len()),
            });
        }
        let mut g = grad_out.clone();
        for (v, &keep) in g.data_mut().iter_mut().zip(mask) {
            if !keep {
                *v = 0.0;
            }
        }
        Ok(g)
    }

    fn name(&self) -> &'static str {
        "Relu"
    }
}

/// Logistic sigmoid, `1 / (1 + e^(−x))` — used as the output of the ZKA-G
/// generator to produce images in `[0, 1]`.
#[derive(Debug, Default)]
pub struct Sigmoid {
    out: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Sigmoid {
        Sigmoid::default()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let out = input.map(|x| 1.0 / (1.0 + (-x).exp()));
        self.out = Some(out.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let out = self
            .out
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("Sigmoid"))?;
        if out.len() != grad_out.len() {
            return Err(NnError::BadInput {
                layer: "Sigmoid",
                detail: format!("grad len {} vs cached {}", grad_out.len(), out.len()),
            });
        }
        let mut g = grad_out.clone();
        for (v, &y) in g.data_mut().iter_mut().zip(out.data()) {
            *v *= y * (1.0 - y);
        }
        Ok(g)
    }

    fn name(&self) -> &'static str {
        "Sigmoid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![4], vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        let y = r.forward(&x).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = Tensor::from_vec(vec![4], vec![1.0; 4]).unwrap();
        let gx = r.backward(&g).unwrap();
        assert_eq!(gx.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn sigmoid_range_and_grad() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![3], vec![-5.0, 0.0, 5.0]).unwrap();
        let y = s.forward(&x).unwrap();
        assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        let g = Tensor::from_vec(vec![3], vec![1.0; 3]).unwrap();
        let gx = s.backward(&g).unwrap();
        // Max derivative at 0 is 0.25.
        assert!((gx.data()[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn backward_before_forward_errors() {
        assert!(Relu::new().backward(&Tensor::zeros(vec![1])).is_err());
        assert!(Sigmoid::new().backward(&Tensor::zeros(vec![1])).is_err());
    }
}
