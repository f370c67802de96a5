//! Element-wise activation layers: [`Relu`] and [`Sigmoid`]. Each caches
//! its forward output (or input mask) for the backward pass.

use crate::{Layer, NnError};
use fabflip_tensor::Tensor;

/// Rectified linear unit, `max(0, x)`.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// `x > 0` for every input element of the last forward; grow-only,
    /// reused across calls. `None` before the first forward.
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
        // fabcheck::allow(alloc_on_hot_path): `Vec::new` does not allocate;
        // the mask grows once and is reused.
        let mask = self.mask.get_or_insert_with(Vec::new);
        // fabcheck::allow(alloc_on_hot_path): grow-only layer-owned buffer.
        mask.resize(input.len(), false);
        // fabcheck::allow(alloc_on_hot_path): the Layer API returns a fresh
        // output tensor.
        let mut out = Tensor::zeros(input.shape().to_vec());
        // One pass of selects: a sign that goes either way about half the
        // time costs a mispredicted branch, not a select. NaN and −0.0 map
        // to +0.0 with a cleared mask bit.
        for ((y, keep), &x) in out
            .data_mut()
            .iter_mut()
            .zip(mask.iter_mut())
            .zip(input.data())
        {
            let k = x > 0.0;
            *keep = k;
            *y = if k { x } else { 0.0 };
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let mask = self
            .mask
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward("Relu"))?;
        if mask.len() != grad_out.len() {
            return Err(NnError::BadInput {
                layer: "Relu",
                // fabcheck::allow(alloc_on_hot_path): error branch only.
                detail: format!("grad len {} vs cached {}", grad_out.len(), mask.len()),
            });
        }
        // fabcheck::allow(alloc_on_hot_path): the Layer API returns a fresh
        // gradient tensor.
        let mut g = Tensor::zeros(grad_out.shape().to_vec());
        for ((v, &go), &keep) in g.data_mut().iter_mut().zip(grad_out.data()).zip(mask) {
            *v = if keep { go } else { 0.0 };
        }
        Ok(g)
    }

    fn name(&self) -> &'static str {
        "Relu"
    }
}

/// Logistic sigmoid, `1 / (1 + e^(−x))` — used as the output of the ZKA-G
/// generator to produce images in `[0, 1]`.
#[derive(Debug, Clone, Default)]
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
    use proptest::prelude::*;

    /// The ReLU before its forward and backward became select passes:
    /// `(output, input gradient)` for input `x` and output gradient `g`.
    fn reference(x: &[f32], g: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mask: Vec<bool> = x.iter().map(|&x| x > 0.0).collect();
        let y = x.iter().map(|&x| if x > 0.0 { x } else { 0.0 }).collect();
        let mut gx = g.to_vec();
        for (v, &keep) in gx.iter_mut().zip(&mask) {
            if !keep {
                *v = 0.0;
            }
        }
        (y, gx)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Forward then backward through `r`, bit for bit against [`reference`].
    fn assert_matches_reference(r: &mut Relu, x: &[f32], g: &[f32]) {
        let (y_ref, gx_ref) = reference(x, g);
        let y = r
            .forward(&Tensor::from_vec(vec![x.len()], x.to_vec()).unwrap())
            .unwrap();
        let gx = r
            .backward(&Tensor::from_vec(vec![g.len()], g.to_vec()).unwrap())
            .unwrap();
        assert_eq!(bits(y.data()), bits(&y_ref), "forward of {x:?}");
        assert_eq!(bits(gx.data()), bits(&gx_ref), "backward of {x:?}, {g:?}");
    }

    /// NaN, ±0, ±∞, subnormals and both signs of each, as inputs and as
    /// gradients.
    const SPECIALS: [f32; 10] = [
        f32::NAN,
        -f32::NAN,
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE / 2.0,
        -f32::MIN_POSITIVE / 2.0,
        1.5,
        -2.5,
    ];

    #[test]
    fn relu_matches_the_branchy_reference_on_special_values() {
        let mut r = Relu::new();
        for &g in &SPECIALS {
            assert_matches_reference(&mut r, &SPECIALS, &[g; SPECIALS.len()]);
        }
        let mut grads = SPECIALS;
        grads.reverse();
        assert_matches_reference(&mut r, &SPECIALS, &grads);
    }

    #[test]
    fn relu_mask_is_rebuilt_when_the_input_shrinks_and_grows() {
        let mut r = Relu::new();
        assert_matches_reference(&mut r, &[1.0, -1.0, 2.0, -2.0, 3.0], &[1.0; 5]);
        assert_matches_reference(&mut r, &[-1.0, 1.0], &[1.0; 2]);
        assert_matches_reference(&mut r, &[-3.0, 2.0, -1.0, 4.0, 0.5, -0.5], &[2.0; 6]);
        // A stale mask length is still rejected.
        assert!(r.backward(&Tensor::zeros(vec![5])).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn relu_matches_the_reference(
            codes in proptest::collection::vec(0usize..20, 1..40),
            values in proptest::collection::vec(-3.0f32..3.0, 40),
            grads in proptest::collection::vec(-3.0f32..3.0, 40),
        ) {
            // Codes below 10 pick a special value, the rest a random one.
            let pick = |(i, &c): (usize, &usize)| SPECIALS.get(c).copied().unwrap_or(values[i]);
            let x: Vec<f32> = codes.iter().enumerate().map(pick).collect();
            let g: Vec<f32> = grads[..x.len()].to_vec();
            let mut r = Relu::new();
            assert_matches_reference(&mut r, &x, &g);
        }
    }

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
