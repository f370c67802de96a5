//! Finite-difference gradient checks for every layer type.
//!
//! For a scalar loss `L(model(x)) = Σ c_i · y_i` with fixed random
//! coefficients `c`, the analytic gradients (both parameter gradients and
//! the input gradient) must match `(L(w + εe) − L(w − εe)) / 2ε`.

use crate::losses::{softmax_cross_entropy_hard, softmax_cross_entropy_soft};
use crate::{Conv2d, ConvTranspose2d, Dense, MaxPool2d, Relu, Sequential, Sigmoid};
use fabflip_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Loss = Σ c_i y_i; returns (loss, dL/dy = c).
fn weighted_sum_loss(y: &Tensor, coeffs: &[f32]) -> (f32, Tensor) {
    let loss: f32 = y.data().iter().zip(coeffs).map(|(a, b)| a * b).sum();
    let grad = Tensor::from_vec(y.shape().to_vec(), coeffs.to_vec())
        .expect("loss-gradient tensor must match the output shape");
    (loss, grad)
}

/// Checks parameter and input gradients of `model` at input `x`.
fn check_model(model: &mut Sequential, x: &Tensor, tol: f32) {
    let mut rng = StdRng::seed_from_u64(99);
    let y0 = model
        .forward(x)
        .expect("forward pass failed during gradient check");
    let coeffs: Vec<f32> = Tensor::uniform(vec![y0.len()], -1.0, 1.0, &mut rng).into_vec();

    // Analytic gradients.
    model.zero_grads();
    let y = model
        .forward(x)
        .expect("forward pass failed during gradient check");
    let (_, gy) = weighted_sum_loss(&y, &coeffs);
    let gx = model
        .backward(&gy)
        .expect("backward pass failed during gradient check");
    let analytic_pg = model.flat_grads();
    let w0 = model.flat_params();

    let eps = 1e-2f32;
    // Parameter gradients: probe a subset of coordinates for speed.
    let n = w0.len();
    let stride = (n / 24).max(1);
    for i in (0..n).step_by(stride) {
        let mut wp = w0.clone();
        wp[i] += eps;
        model
            .set_flat_params(&wp)
            .expect("flat param vector must round-trip through the model");
        let yp = model
            .forward(x)
            .expect("forward pass failed at perturbed parameters");
        let lp: f32 = yp.data().iter().zip(&coeffs).map(|(a, b)| a * b).sum();
        let mut wm = w0.clone();
        wm[i] -= eps;
        model
            .set_flat_params(&wm)
            .expect("flat param vector must round-trip through the model");
        let ym = model
            .forward(x)
            .expect("forward pass failed at perturbed parameters");
        let lm: f32 = ym.data().iter().zip(&coeffs).map(|(a, b)| a * b).sum();
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = analytic_pg[i];
        assert!(
            (numeric - analytic).abs() < tol * (1.0 + numeric.abs().max(analytic.abs())),
            "param grad {i}: numeric {numeric} vs analytic {analytic}"
        );
    }
    model
        .set_flat_params(&w0)
        .expect("restoring the original parameters must succeed");

    // Input gradients: probe a subset of pixels.
    let m = x.len();
    let stride = (m / 16).max(1);
    for i in (0..m).step_by(stride) {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let yp = model
            .forward(&xp)
            .expect("forward pass failed at perturbed input");
        let lp: f32 = yp.data().iter().zip(&coeffs).map(|(a, b)| a * b).sum();
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let ym = model
            .forward(&xm)
            .expect("forward pass failed at perturbed input");
        let lm: f32 = ym.data().iter().zip(&coeffs).map(|(a, b)| a * b).sum();
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = gx.data()[i];
        assert!(
            (numeric - analytic).abs() < tol * (1.0 + numeric.abs().max(analytic.abs())),
            "input grad {i}: numeric {numeric} vs analytic {analytic}"
        );
    }
}

fn rand_input(shape: Vec<usize>, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::uniform(shape, -1.0, 1.0, &mut rng)
}

#[test]
fn gradcheck_dense() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut m = Sequential::new();
    m.push(Dense::new(5, 4, &mut rng));
    check_model(&mut m, &rand_input(vec![3, 5], 1), 2e-2);
}

#[test]
fn gradcheck_conv() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut m = Sequential::new();
    m.push(Conv2d::new(2, 3, 3, 1, 1, &mut rng));
    check_model(&mut m, &rand_input(vec![2, 2, 5, 5], 2), 2e-2);
}

#[test]
fn gradcheck_conv_stride2_nopad() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut m = Sequential::new();
    m.push(Conv2d::new(1, 2, 3, 2, 0, &mut rng));
    check_model(&mut m, &rand_input(vec![1, 1, 7, 7], 3), 2e-2);
}

#[test]
fn gradcheck_conv_transpose() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut m = Sequential::new();
    m.push(ConvTranspose2d::new(3, 2, 4, 2, 1, &mut rng));
    check_model(&mut m, &rand_input(vec![2, 3, 4, 4], 4), 2e-2);
}

#[test]
fn gradcheck_activations_stack() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut m = Sequential::new();
    m.push(Dense::new(6, 6, &mut rng));
    m.push(Dense::new(6, 6, &mut rng));
    m.push(Sigmoid::new());
    m.push(Dense::new(6, 3, &mut rng));
    check_model(&mut m, &rand_input(vec![2, 6], 5), 3e-2);
}

#[test]
fn gradcheck_pool_conv_stack() {
    // ReLU/MaxPool are only piecewise differentiable; shift inputs away from
    // kinks by using a smooth-ish random input and modest epsilon.
    let mut rng = StdRng::seed_from_u64(5);
    let mut m = Sequential::new();
    m.push(Conv2d::new(1, 4, 3, 1, 1, &mut rng));
    m.push(Relu::new());
    m.push(MaxPool2d::new(2));
    m.push(crate::Flatten::new());
    m.push(Dense::new(4 * 3 * 3, 5, &mut rng));
    check_model(&mut m, &rand_input(vec![1, 1, 6, 6], 6), 5e-2);
}

#[test]
fn gradcheck_attack_models() {
    // The ZKA-G generator and ZKA-R filter exactly as `models` builds them;
    // the generator's dense stem reaches its transposed convolutions through
    // `Reshape::backward`.
    let mut rng = StdRng::seed_from_u64(10);
    let mut g = crate::models::tcnn_generator(4, 1, 4, 4, &mut rng);
    check_model(&mut g, &rand_input(vec![2, 4], 11), 5e-2);
    let mut f = crate::models::filter_layer(3, 3, &mut rng);
    check_model(&mut f, &rand_input(vec![1, 3, 6, 6], 12), 5e-2);
}

#[test]
fn gradcheck_cross_entropy_hard() {
    // Verify the loss gradient itself through a dense layer.
    let mut rng = StdRng::seed_from_u64(6);
    let mut m = Sequential::new();
    m.push(Dense::new(4, 3, &mut rng));
    let x = rand_input(vec![2, 4], 7);
    let labels = [1usize, 2];

    m.zero_grads();
    let logits = m
        .forward(&x)
        .expect("forward pass failed during gradient check");
    let (_, g) = softmax_cross_entropy_hard(&logits, &labels)
        .expect("hard-label cross-entropy rejected well-shaped logits");
    m.backward(&g)
        .expect("backward pass failed during gradient check");
    let analytic = m.flat_grads();
    let w0 = m.flat_params();

    let eps = 1e-2f32;
    for i in 0..w0.len() {
        let mut wp = w0.clone();
        wp[i] += eps;
        m.set_flat_params(&wp)
            .expect("flat param vector must round-trip through the model");
        let fwd = m
            .forward(&x)
            .expect("forward pass failed at perturbed parameters");
        let (lp, _) = softmax_cross_entropy_hard(&fwd, &labels)
            .expect("hard-label cross-entropy rejected well-shaped logits");
        let mut wm = w0.clone();
        wm[i] -= eps;
        m.set_flat_params(&wm)
            .expect("flat param vector must round-trip through the model");
        let fwd = m
            .forward(&x)
            .expect("forward pass failed at perturbed parameters");
        let (lm, _) = softmax_cross_entropy_hard(&fwd, &labels)
            .expect("hard-label cross-entropy rejected well-shaped logits");
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - analytic[i]).abs() < 2e-2 * (1.0 + numeric.abs()),
            "ce grad {i}: {numeric} vs {}",
            analytic[i]
        );
    }
}

#[test]
fn gradcheck_cross_entropy_soft_uniform_target() {
    // The exact ZKA-R objective: CE against the uniform distribution.
    let mut rng = StdRng::seed_from_u64(8);
    let mut m = Sequential::new();
    m.push(Dense::new(4, 5, &mut rng));
    let x = rand_input(vec![2, 4], 9);
    let target = Tensor::full(vec![2, 5], 0.2);

    m.zero_grads();
    let logits = m
        .forward(&x)
        .expect("forward pass failed during gradient check");
    let (_, g) = softmax_cross_entropy_soft(&logits, &target)
        .expect("soft-target cross-entropy rejected well-shaped logits");
    m.backward(&g)
        .expect("backward pass failed during gradient check");
    let analytic = m.flat_grads();
    let w0 = m.flat_params();

    let eps = 1e-2f32;
    for i in (0..w0.len()).step_by(3) {
        let mut wp = w0.clone();
        wp[i] += eps;
        m.set_flat_params(&wp)
            .expect("flat param vector must round-trip through the model");
        let fwd = m
            .forward(&x)
            .expect("forward pass failed at perturbed parameters");
        let (lp, _) = softmax_cross_entropy_soft(&fwd, &target)
            .expect("soft-target cross-entropy rejected well-shaped logits");
        let mut wm = w0.clone();
        wm[i] -= eps;
        m.set_flat_params(&wm)
            .expect("flat param vector must round-trip through the model");
        let fwd = m
            .forward(&x)
            .expect("forward pass failed at perturbed parameters");
        let (lm, _) = softmax_cross_entropy_soft(&fwd, &target)
            .expect("soft-target cross-entropy rejected well-shaped logits");
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - analytic[i]).abs() < 2e-2 * (1.0 + numeric.abs()),
            "soft ce grad {i}: {numeric} vs {}",
            analytic[i]
        );
    }
}
