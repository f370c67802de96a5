use crate::{Attack, AttackContext, AttackError, Capabilities};
use rand::rngs::StdRng;
use rand::Rng;

/// The naive strawman of Sec. IV-A: submit freshly drawn random model
/// weights. The paper reports it bypasses mKrum in only 2.62% / 6.57% of
/// cases (Fashion-MNIST / CIFAR-10) and Bulyan in ≤ 3.27% — the motivating
/// negative result for synthesizing data instead of weights.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomWeights;

impl RandomWeights {
    /// Standard deviation of the drawn weights, on the order of a fresh He
    /// initialization.
    const STD: f32 = 0.1;

    /// Creates the attack drawing weights from `N(0, 0.1²)`.
    pub fn new() -> RandomWeights {
        RandomWeights
    }
}

impl Attack for RandomWeights {
    fn craft(
        &mut self,
        ctx: &AttackContext<'_>,
        rng: &mut StdRng,
    ) -> Result<Vec<f32>, AttackError> {
        let d = ctx.global.len();
        let mut w = Vec::with_capacity(d);
        while w.len() < d {
            // Box–Muller pair.
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let t = std::f32::consts::TAU * u2;
            w.push(RandomWeights::STD * r * t.cos());
            if w.len() < d {
                w.push(RandomWeights::STD * r * t.sin());
            }
        }
        Ok(w)
    }

    fn name(&self) -> &'static str {
        "RandomWeights"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::zero_knowledge()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TaskInfo;
    use fabflip_nn::{Dense, Sequential};
    use rand::SeedableRng;

    #[test]
    fn produces_correct_length_and_scale() {
        let task = TaskInfo {
            channels: 1,
            height: 2,
            width: 2,
            num_classes: 2,
            synth_set_size: 4,
            local_lr: 0.1,
            local_batch: 2,
            local_epochs: 1,
        };
        let builder = |rng: &mut StdRng| {
            let mut m = Sequential::new();
            m.push(Dense::new(4, 2, rng));
            m
        };
        let global = vec![0.5f32; 1000];
        let ctx = AttackContext {
            global: &global,
            prev_global: None,
            benign_updates: &[],
            n_selected: 10,
            n_malicious_selected: 2,
            task: &task,
            build_model: &builder,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let w = RandomWeights::new().craft(&ctx, &mut rng).unwrap();
        assert_eq!(w.len(), 1000);
        let mean: f32 = w.iter().sum::<f32>() / 1000.0;
        let var: f32 = w.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 1000.0;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.1).abs() < 0.02, "std {}", var.sqrt());
        // Unrelated to the global model (zero-knowledge, pure noise).
        let w2 = RandomWeights::new().craft(&ctx, &mut rng).unwrap();
        assert_ne!(w, w2);
    }
}
