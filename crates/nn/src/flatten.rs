use crate::{Layer, NnError};
use fabflip_tensor::Tensor;

/// Flattens `[N, …]` to `[N, F]` (keeps the batch axis).
#[derive(Debug, Default)]
pub struct Flatten {
    in_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Flatten {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        if input.rank() < 2 {
            return Err(NnError::BadInput {
                layer: "Flatten",
                detail: format!("expected rank >= 2, got {:?}", input.shape()),
            });
        }
        self.in_shape = Some(input.shape().to_vec());
        let n = input.shape()[0];
        let f: usize = input.shape()[1..].iter().product();
        Ok(input.reshape(vec![n, f])?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let shape = self
            .in_shape
            .clone()
            .ok_or(NnError::BackwardBeforeForward("Flatten"))?;
        Ok(grad_out.reshape(shape)?)
    }

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

/// Reshapes `[N, F]` to `[N, c, h, w]` — used between the dense stem and the
/// transposed convolutions of the ZKA-G generator.
#[derive(Debug)]
pub struct Reshape {
    target: [usize; 3],
}

impl Reshape {
    /// Creates a reshape to per-sample shape `[c, h, w]`.
    pub fn new(c: usize, h: usize, w: usize) -> Reshape {
        Reshape { target: [c, h, w] }
    }
}

impl Layer for Reshape {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        if input.rank() < 2 {
            return Err(NnError::BadInput {
                layer: "Reshape",
                detail: format!("expected rank >= 2, got {:?}", input.shape()),
            });
        }
        let n = input.shape()[0];
        let [c, h, w] = self.target;
        Ok(input.reshape(vec![n, c, h, w])?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let n = grad_out.shape()[0];
        let f: usize = grad_out.shape()[1..].iter().product();
        Ok(grad_out.reshape(vec![n, f])?)
    }

    fn name(&self) -> &'static str {
        "Reshape"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(vec![2, 3, 4, 5]);
        let y = f.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 60]);
        let gx = f.backward(&y).unwrap();
        assert_eq!(gx.shape(), &[2, 3, 4, 5]);
    }

    #[test]
    fn reshape_roundtrip() {
        let mut r = Reshape::new(3, 2, 2);
        let x = Tensor::zeros(vec![4, 12]);
        let y = r.forward(&x).unwrap();
        assert_eq!(y.shape(), &[4, 3, 2, 2]);
        let gx = r.backward(&y).unwrap();
        assert_eq!(gx.shape(), &[4, 12]);
    }

    #[test]
    fn reshape_rejects_bad_size() {
        let mut r = Reshape::new(3, 2, 2);
        assert!(r.forward(&Tensor::zeros(vec![1, 13])).is_err());
        assert!(r.forward(&Tensor::zeros(vec![])).is_err());
    }
}
