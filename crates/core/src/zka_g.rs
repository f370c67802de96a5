use crate::ZkaConfig;
use fabflip_attacks::trainer::train_adversarial_classifier;
use fabflip_attacks::{Attack, AttackContext, AttackError, Capabilities, TaskInfo};
use fabflip_nn::losses::softmax_cross_entropy_hard_negated;
use fabflip_nn::{models, Sequential};
use fabflip_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ZKA-G (Sec. IV-C): synthesize images with a light-weight
/// transposed-convolution generator trained against the global model.
///
/// A *fixed* noise batch `Z` (same seed every round, so the generator keeps
/// producing consistent data) feeds a freshly initialized TCNN generator
/// `G`; for `E` epochs, `G` is trained to **maximize** the frozen global
/// model's cross-entropy between its prediction on `G(Z)` and the
/// fabricated label `Ỹ` — images the model is confident are *not* `Ỹ`.
/// Training the local model on `(G(Z), Ỹ)` then injects a consistent,
/// low-variance bias, which is what makes ZKA-G stealthier than ZKA-R.
pub struct ZkaG {
    cfg: ZkaConfig,
    target: Option<usize>,
    last_losses: Vec<f32>,
}

impl std::fmt::Debug for ZkaG {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZkaG")
            .field("cfg", &self.cfg)
            .field("target", &self.target)
            .finish()
    }
}

impl ZkaG {
    /// Creates the attack.
    pub fn new(cfg: ZkaConfig) -> ZkaG {
        ZkaG {
            cfg,
            target: None,
            last_losses: Vec::new(),
        }
    }

    /// The fabricated label `Ỹ` (chosen uniformly on first craft).
    pub fn target(&self) -> Option<usize> {
        self.target
    }

    /// Mean generation loss per epoch of the last craft (Fig. 6 trace).
    /// ZKA-G *maximizes* the cross-entropy, so the reported (positive)
    /// cross-entropy trace increases.
    pub fn last_generation_losses(&self) -> &[f32] {
        &self.last_losses
    }

    /// The fixed noise batch `Z` of shape `[|S|, z_dim]`.
    pub fn fixed_noise(&self, set_size: usize) -> Tensor {
        let mut zrng = StdRng::seed_from_u64(self.cfg.z_seed);
        Tensor::normal(vec![set_size, self.cfg.z_dim], 0.0, 1.0, &mut zrng)
    }

    /// Synthesizes the malicious image set `S = G(Z)` for the given frozen
    /// global model and target `Ỹ`, returning the images and the per-epoch
    /// cross-entropy trace (increasing, since it is maximized).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError`] when the architecture does not match or a
    /// forward/backward pass fails.
    pub fn synthesize(
        &self,
        global_model: &mut Sequential,
        task: &TaskInfo,
        target: usize,
        rng: &mut StdRng,
    ) -> Result<(Tensor, Vec<f32>), AttackError> {
        let z = self.fixed_noise(task.synth_set_size);
        // Fresh random generator every round (paper: "randomly initialized
        // before training"); consistency across rounds comes from Z.
        let mut gen =
            models::tcnn_generator(self.cfg.z_dim, task.channels, task.height, task.width, rng);
        let labels = vec![target; task.synth_set_size];
        let mut trace = Vec::new();
        if self.cfg.trained {
            for _ in 0..self.cfg.gen_epochs {
                gen.zero_grads();
                global_model.zero_grads();
                let imgs = gen.forward(&z)?;
                let logits = global_model.forward(&imgs)?;
                // Maximize CE(pred, Ỹ) ⇔ minimize its negation.
                let (neg_loss, grad) = softmax_cross_entropy_hard_negated(&logits, &labels)?;
                let grad_imgs = global_model.backward(&grad)?;
                gen.backward_params(&grad_imgs)?;
                gen.sgd_step(self.cfg.gen_lr);
                trace.push(-neg_loss); // report the (maximized) positive CE
            }
        }
        let s = gen.forward(&z)?;
        Ok((s, trace))
    }
}

impl Attack for ZkaG {
    fn craft(
        &mut self,
        ctx: &AttackContext<'_>,
        rng: &mut StdRng,
    ) -> Result<Vec<f32>, AttackError> {
        let target = *self
            .target
            .get_or_insert_with(|| rng.gen_range(0..ctx.task.num_classes));
        let mut global_model = (ctx.build_model)(rng);
        global_model
            .set_flat_params(ctx.global)
            .map_err(AttackError::Nn)?;
        let (s, trace) = self.synthesize(&mut global_model, ctx.task, target, rng)?;
        self.last_losses = trace;
        let mut local = (ctx.build_model)(rng);
        let labels = vec![target; s.shape()[0]];
        train_adversarial_classifier(
            &mut local,
            ctx.global,
            ctx.prev_global,
            &s,
            &labels,
            ctx.task.local_epochs,
            ctx.task.local_lr,
            ctx.task.local_batch,
            self.cfg.reg(),
            rng,
        )
    }

    fn name(&self) -> &'static str {
        "ZKA-G"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::zero_knowledge()
    }

    fn checkpoint_state(&self) -> Vec<u64> {
        // The flip target Ỹ is chosen lazily on the first craft and must
        // survive a resume; `last_losses` is diagnostic only.
        self.target.map(|t| vec![1, t as u64]).unwrap_or_default()
    }

    fn restore_state(&mut self, state: &[u64]) {
        if state.len() == 2 && state[0] == 1 {
            self.target = Some(state[1] as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabflip_nn::losses::softmax;
    use rand::SeedableRng;

    fn task() -> TaskInfo {
        TaskInfo {
            channels: 1,
            height: 28,
            width: 28,
            num_classes: 10,
            synth_set_size: 6,
            local_lr: 0.05,
            local_batch: 4,
            local_epochs: 1,
        }
    }

    fn builder(rng: &mut StdRng) -> Sequential {
        models::fashion_cnn(rng)
    }

    #[test]
    fn fixed_noise_is_identical_across_rounds() {
        let attack = ZkaG::new(ZkaConfig::paper());
        let z1 = attack.fixed_noise(5);
        let z2 = attack.fixed_noise(5);
        assert_eq!(z1.data(), z2.data());
        assert_eq!(z1.shape(), &[5, 32]);
    }

    #[test]
    fn generation_maximizes_cross_entropy_to_target() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut global = models::fashion_cnn(&mut rng);
        let mut cfg = ZkaConfig::paper();
        cfg.gen_epochs = 8;
        cfg.gen_lr = 0.1;
        let attack = ZkaG::new(cfg);
        let t = task();
        let target = 3usize;
        let (s, trace) = attack
            .synthesize(&mut global, &t, target, &mut rng)
            .unwrap();
        assert_eq!(s.shape(), &[6, 1, 28, 28]);
        assert!(
            trace.last().unwrap() >= trace.first().unwrap(),
            "CE trace should rise (maximization): {trace:?}"
        );
        // The generated images must have low probability for Ỹ.
        let logits = global.forward(&s).unwrap();
        let p = softmax(&logits);
        let l = t.num_classes;
        for i in 0..6 {
            let p_target = p.data()[i * l + target];
            assert!(
                p_target < 0.3,
                "image {i} still predicted as Ỹ with p {p_target}"
            );
        }
    }

    #[test]
    fn static_variant_produces_images_without_training() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut global = models::fashion_cnn(&mut rng);
        let attack = ZkaG::new(ZkaConfig::static_variant());
        let (s, trace) = attack
            .synthesize(&mut global, &task(), 0, &mut rng)
            .unwrap();
        assert!(trace.is_empty());
        assert_eq!(s.shape()[0], 6);
        assert!(s.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn craft_is_zero_knowledge_and_model_sized() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut gm = models::fashion_cnn(&mut rng);
        let global = gm.flat_params();
        let t = task();
        let ctx = AttackContext {
            global: &global,
            prev_global: Some(&global),
            benign_updates: &[], // no oracle
            n_selected: 10,
            n_malicious_selected: 2,
            task: &t,
            build_model: &builder,
        };
        let mut attack = ZkaG::new(ZkaConfig::fast());
        let w = attack.craft(&ctx, &mut rng).unwrap();
        assert_eq!(w.len(), global.len());
        assert_ne!(w, global);
        assert_eq!(attack.capabilities(), Capabilities::zero_knowledge());
    }

    #[test]
    fn zka_g_images_have_lower_variance_than_zka_r() {
        // The Fig. 4 claim: ZKA-R's full-image randomness produces more
        // diverse synthetic data than ZKA-G's shared generator + fixed Z.
        use crate::ZkaR;
        let mut rng = StdRng::seed_from_u64(4);
        let mut global = models::fashion_cnn(&mut rng);
        let mut t = task();
        t.synth_set_size = 10;
        let cfg = ZkaConfig::fast();
        let (s_r, _) = ZkaR::new(cfg)
            .synthesize(&mut global, &t, &mut rng)
            .unwrap();
        let (s_g, _) = ZkaG::new(cfg)
            .synthesize(&mut global, &t, 0, &mut rng)
            .unwrap();
        // Mean per-pixel variance across the set.
        let set_variance = |s: &Tensor| -> f32 {
            let n = s.shape()[0];
            let d: usize = s.shape()[1..].iter().product();
            let mut var_sum = 0.0f32;
            for j in 0..d {
                let mean: f32 = (0..n).map(|i| s.data()[i * d + j]).sum::<f32>() / n as f32;
                var_sum += (0..n)
                    .map(|i| (s.data()[i * d + j] - mean).powi(2))
                    .sum::<f32>()
                    / n as f32;
            }
            var_sum / d as f32
        };
        let vr = set_variance(&s_r);
        let vg = set_variance(&s_g);
        assert!(vr > vg, "ZKA-R variance {vr} should exceed ZKA-G {vg}");
    }
}
