//! Shared adversarial-classifier training (paper Sec. IV-A step 2 and
//! Sec. IV-D).
//!
//! Given a set of (possibly synthetic) images all labelled with the random
//! class `Ỹ`, the attacker initializes a local model at the global weights
//! `w(t)` and minimizes `F(w, S) + λ·L_d`, where the distance-based
//! regularizer (Eq. 3)
//!
//! ```text
//! L_d = ‖w − w(t)‖₂ − ‖w(t) − w(t−1)‖₂
//! ```
//!
//! steers the crafted update to deviate from the global model by about as
//! much as the global model moved last round. Since the second term is
//! constant in `w`, the gradient contribution is
//! `∇L_d = (w − w(t)) / ‖w − w(t)‖₂`, applied only while the deviation
//! exceeds the previous round's global step (a hinge — pulling the update
//! *closer* than benign updates would itself look anomalous).

use crate::AttackError;
use fabflip_nn::losses::softmax_cross_entropy_hard;
use fabflip_nn::{NnError, Sequential};
use fabflip_tensor::{vecops, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Configuration of the distance-based regularizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceReg {
    /// Regularization strength λ; `0` disables the term (the "without
    /// regularization" arm of the paper's Table V ablation).
    pub lambda: f32,
}

impl DistanceReg {
    /// The paper's default-strength regularizer.
    pub fn enabled() -> DistanceReg {
        DistanceReg { lambda: 1.0 }
    }

    /// Disabled regularizer (ablation arm).
    pub fn disabled() -> DistanceReg {
        DistanceReg { lambda: 0.0 }
    }

    /// Gradient contribution of `L_d` at flat weights `w`, or `None` when
    /// inactive (λ = 0, no previous global model, or deviation within last
    /// round's global step).
    pub fn gradient(
        &self,
        w: &[f32],
        global: &[f32],
        prev_global: Option<&[f32]>,
    ) -> Option<Vec<f32>> {
        if self.lambda == 0.0 {
            return None;
        }
        let prev = prev_global?;
        let dev = vecops::sub(w, global);
        let dev_norm = vecops::l2_norm(&dev);
        if dev_norm < 1e-12 {
            return None;
        }
        let allowance = vecops::l2_distance(global, prev);
        if dev_norm <= allowance {
            return None;
        }
        Some(vecops::scale(&dev, self.lambda / dev_norm))
    }
}

/// Trains the adversarial classifier: starts from `global`, runs `epochs`
/// passes of mini-batch SGD on `(images, labels)` with cross-entropy plus
/// the distance regularizer, and returns the resulting flat weights.
///
/// The same routine serves ZKA-R, ZKA-G (their synthetic image sets) and
/// the real-data comparator of Fig. 7.
///
/// # Errors
///
/// Returns [`AttackError`] when the weight vector does not fit the model or
/// training fails.
#[allow(clippy::too_many_arguments)]
pub fn train_adversarial_classifier(
    model: &mut Sequential,
    global: &[f32],
    prev_global: Option<&[f32]>,
    images: &Tensor,
    labels: &[usize],
    epochs: usize,
    lr: f32,
    batch: usize,
    reg: DistanceReg,
    rng: &mut StdRng,
) -> Result<Vec<f32>, AttackError> {
    model.set_flat_params(global).map_err(AttackError::Nn)?;
    let n = images.shape()[0];
    if n != labels.len() {
        return Err(AttackError::BadContext(format!(
            "{n} images vs {} labels",
            labels.len()
        )));
    }
    let batch = batch.max(1);
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..epochs {
        order.shuffle(rng);
        for chunk in order.chunks(batch) {
            let x = images.gather_batch(chunk).map_err(NnError::from)?;
            let y: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
            model.zero_grads();
            let logits = model.forward(&x)?;
            let (_, grad) = softmax_cross_entropy_hard(&logits, &y)?;
            model.backward_params(&grad)?;
            let w = model.flat_params();
            if let Some(g) = reg.gradient(&w, global, prev_global) {
                model.add_to_grads(&g)?;
            }
            model.sgd_step(lr);
        }
    }
    Ok(model.flat_params())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabflip_nn::{Dense, Relu};
    use rand::SeedableRng;

    fn toy_model(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Sequential::new();
        m.push(Dense::new(4, 8, &mut rng));
        m.push(Relu::new());
        m.push(Dense::new(8, 3, &mut rng));
        m
    }

    #[test]
    fn reg_gradient_is_unit_direction_when_active() {
        let reg = DistanceReg::enabled();
        let global = vec![0.0f32; 3];
        let prev = vec![0.0f32, 0.0, 0.1]; // allowance = 0.1
        let w = vec![3.0f32, 4.0, 0.0]; // deviation norm 5 > 0.1
        let g = reg.gradient(&w, &global, Some(&prev)).unwrap();
        assert!((vecops::l2_norm(&g) - 1.0).abs() < 1e-5);
        assert!((g[0] - 0.6).abs() < 1e-5 && (g[1] - 0.8).abs() < 1e-5);
    }

    #[test]
    fn reg_inactive_inside_allowance_or_without_history() {
        let reg = DistanceReg::enabled();
        let global = vec![0.0f32; 2];
        let prev = vec![10.0f32, 0.0]; // allowance = 10
        let w = vec![1.0f32, 1.0]; // deviation √2 < 10
        assert!(reg.gradient(&w, &global, Some(&prev)).is_none());
        assert!(reg.gradient(&w, &global, None).is_none());
        assert!(DistanceReg::disabled()
            .gradient(&w, &global, Some(&prev))
            .is_none());
    }

    #[test]
    fn training_moves_towards_the_flipped_label() {
        let mut model = toy_model(0);
        let global = model.flat_params();
        let mut rng = StdRng::seed_from_u64(1);
        let images = Tensor::uniform(vec![12, 4], 0.0, 1.0, &mut rng);
        let labels = vec![2usize; 12];
        let w = train_adversarial_classifier(
            &mut model,
            &global,
            None,
            &images,
            &labels,
            12,
            0.2,
            4,
            DistanceReg::disabled(),
            &mut rng,
        )
        .unwrap();
        model.set_flat_params(&w).unwrap();
        let logits = model.forward(&images).unwrap();
        let acc = fabflip_nn::losses::accuracy(&logits, &labels);
        assert!(acc > 0.9, "model did not learn the flipped label: {acc}");
    }

    #[test]
    fn regularizer_limits_deviation() {
        // Same training with and without the regularizer: the regularized
        // update must stay closer to the global model.
        let labels = vec![1usize; 16];
        let mut rng = StdRng::seed_from_u64(3);
        let images = Tensor::uniform(vec![16, 4], 0.0, 1.0, &mut rng);
        let run = |reg: DistanceReg| -> f32 {
            let mut model = toy_model(7);
            let global = model.flat_params();
            // Previous global very close to current: tiny allowance.
            let prev: Vec<f32> = global.iter().map(|v| v + 1e-4).collect();
            let mut rng = StdRng::seed_from_u64(4);
            let w = train_adversarial_classifier(
                &mut model,
                &global,
                Some(&prev),
                &images,
                &labels,
                10,
                0.3,
                4,
                reg,
                &mut rng,
            )
            .unwrap();
            vecops::l2_distance(&w, &global)
        };
        let with = run(DistanceReg { lambda: 5.0 });
        let without = run(DistanceReg::disabled());
        assert!(with < without, "reg {with} !< noreg {without}");
    }

    #[test]
    fn rejects_mismatched_labels() {
        let mut model = toy_model(0);
        let global = model.flat_params();
        let mut rng = StdRng::seed_from_u64(0);
        let images = Tensor::zeros(vec![3, 4]);
        let labels = vec![0usize; 2];
        assert!(matches!(
            train_adversarial_classifier(
                &mut model,
                &global,
                None,
                &images,
                &labels,
                1,
                0.1,
                2,
                DistanceReg::disabled(),
                &mut rng
            ),
            Err(AttackError::BadContext(_))
        ));
    }
}
