use crate::ZkaConfig;
use fabflip_attacks::trainer::train_adversarial_classifier;
use fabflip_attacks::{Attack, AttackContext, AttackError, Capabilities, TaskInfo};
use fabflip_nn::losses::softmax_cross_entropy_soft;
use fabflip_nn::{models, Sequential};
use fabflip_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// ZKA-R (Sec. IV-B): synthesize ambiguous images by reverse engineering
/// the global model through a trainable filter layer.
///
/// For each of the `|S|` synthetic images: draw a static uniform-random
/// image `A`, map it through a fresh `J×J` convolution into `B`, and train
/// *only the filter* for `E` epochs to minimize the cross-entropy between
/// the frozen global model's prediction on `B` and the uniform target
/// `Y_D = [1/L, …, 1/L]`. Training on such maximally ambiguous data (all
/// labelled `Ỹ`) confuses the global model's optimization objective.
pub struct ZkaR {
    cfg: ZkaConfig,
    target: Option<usize>,
    last_losses: Vec<f32>,
}

impl std::fmt::Debug for ZkaR {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZkaR")
            .field("cfg", &self.cfg)
            .field("target", &self.target)
            .finish()
    }
}

impl ZkaR {
    /// Creates the attack.
    pub fn new(cfg: ZkaConfig) -> ZkaR {
        ZkaR {
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
    /// ZKA-R *minimizes* this loss, so the trace decreases.
    pub fn last_generation_losses(&self) -> &[f32] {
        &self.last_losses
    }

    /// Synthesizes the malicious image set `S` for the given frozen global
    /// model, returning the images `[|S|, C, H, W]` and the per-epoch mean
    /// generation loss.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError`] when the global weights do not fit the task
    /// architecture or a forward/backward pass fails.
    pub fn synthesize(
        &self,
        global_model: &mut Sequential,
        task: &TaskInfo,
        rng: &mut StdRng,
    ) -> Result<(Tensor, Vec<f32>), AttackError> {
        let l = task.num_classes;
        let uniform = Tensor::full(vec![1, l], 1.0 / l as f32);
        let mut images = Vec::with_capacity(task.synth_set_size);
        let mut epoch_losses = vec![
            0.0f32;
            if self.cfg.trained {
                self.cfg.gen_epochs
            } else {
                0
            }
        ];
        for _ in 0..task.synth_set_size {
            // Static random input A (fixed during filter training).
            let a = Tensor::uniform(
                vec![1, task.channels, task.height, task.width],
                0.0,
                1.0,
                rng,
            );
            let mut filter = models::filter_layer(task.channels, self.cfg.filter_kernel, rng);
            if self.cfg.trained {
                for (epoch, slot) in epoch_losses.iter_mut().enumerate() {
                    let _ = epoch;
                    filter.zero_grads();
                    global_model.zero_grads();
                    let b = filter.forward(&a)?;
                    let logits = global_model.forward(&b)?;
                    let (loss, grad) = softmax_cross_entropy_soft(&logits, &uniform)?;
                    // Backprop through the frozen global model into the
                    // image, then into the filter; only the filter steps.
                    let grad_b = global_model.backward(&grad)?;
                    filter.backward_params(&grad_b)?;
                    filter.sgd_step(self.cfg.gen_lr);
                    *slot += loss;
                }
            }
            let b = filter.forward(&a)?;
            images.push(b);
        }
        for slot in &mut epoch_losses {
            *slot /= task.synth_set_size.max(1) as f32;
        }
        let s = Tensor::concat_batch(&images).map_err(fabflip_nn::NnError::from)?;
        Ok((s, epoch_losses))
    }
}

impl Attack for ZkaR {
    fn craft(
        &mut self,
        ctx: &AttackContext<'_>,
        rng: &mut StdRng,
    ) -> Result<Vec<f32>, AttackError> {
        let target = *self
            .target
            .get_or_insert_with(|| rng.gen_range(0..ctx.task.num_classes));
        // Frozen global model (never stepped; its accumulated grads are
        // zeroed before every use).
        let mut global_model = (ctx.build_model)(rng);
        global_model
            .set_flat_params(ctx.global)
            .map_err(AttackError::Nn)?;
        let (s, losses) = self.synthesize(&mut global_model, ctx.task, rng)?;
        self.last_losses = losses;
        // Step 2: adversarial classifier training on (S, Ỹ) with L_d.
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
        "ZKA-R"
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
    fn synthesized_images_have_task_geometry() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut global = models::fashion_cnn(&mut rng);
        let attack = ZkaR::new(ZkaConfig::fast());
        let (s, losses) = attack.synthesize(&mut global, &task(), &mut rng).unwrap();
        assert_eq!(s.shape(), &[6, 1, 28, 28]);
        assert_eq!(losses.len(), ZkaConfig::fast().gen_epochs);
        assert!(s.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn training_reduces_generation_loss_and_raises_ambiguity() {
        // The trained filter must push predictions towards uniform compared
        // to the static filter; the loss trace must decrease.
        let mut rng = StdRng::seed_from_u64(1);
        let mut global = models::fashion_cnn(&mut rng);
        let mut t = task();
        t.synth_set_size = 4;
        let mut cfg = ZkaConfig::paper();
        cfg.gen_epochs = 8;
        cfg.gen_lr = 0.1;
        let attack = ZkaR::new(cfg);
        let (s, losses) = attack.synthesize(&mut global, &t, &mut rng).unwrap();
        assert!(
            losses.last().unwrap() <= losses.first().unwrap(),
            "generation loss not decreasing: {losses:?}"
        );
        // Ambiguity: max softmax probability close-ish to uniform.
        let logits = global.forward(&s).unwrap();
        let p = softmax(&logits);
        let max_p = p.data().iter().fold(0.0f32, |a, &b| a.max(b));
        assert!(
            max_p < 0.9,
            "trained images still confidently classified: {max_p}"
        );
    }

    #[test]
    fn static_variant_skips_training() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut global = models::fashion_cnn(&mut rng);
        let attack = ZkaR::new(ZkaConfig::static_variant());
        let (s, losses) = attack.synthesize(&mut global, &task(), &mut rng).unwrap();
        assert!(losses.is_empty());
        assert_eq!(s.shape()[0], 6);
    }

    #[test]
    fn craft_returns_model_sized_update_with_fixed_target() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut gm = models::fashion_cnn(&mut rng);
        let global = gm.flat_params();
        let t = task();
        let ctx = AttackContext {
            global: &global,
            prev_global: None,
            benign_updates: &[],
            n_selected: 10,
            n_malicious_selected: 2,
            task: &t,
            build_model: &builder,
        };
        let mut attack = ZkaR::new(ZkaConfig::fast());
        let w = attack.craft(&ctx, &mut rng).unwrap();
        assert_eq!(w.len(), global.len());
        assert_ne!(w, global);
        let target = attack.target().unwrap();
        let _ = attack.craft(&ctx, &mut rng).unwrap();
        assert_eq!(attack.target().unwrap(), target, "Ỹ must stay fixed");
        assert_eq!(
            attack.last_generation_losses().len(),
            ZkaConfig::fast().gen_epochs
        );
    }

    #[test]
    fn zero_knowledge_capabilities() {
        assert_eq!(
            ZkaR::new(ZkaConfig::paper()).capabilities(),
            Capabilities::zero_knowledge()
        );
    }

    #[test]
    fn checkpoint_state_roundtrips_the_lazy_target() {
        let mut fresh = ZkaR::new(ZkaConfig::fast());
        assert!(fresh.checkpoint_state().is_empty(), "no target chosen yet");
        fresh.restore_state(&[]); // fresh start must be a no-op
        assert_eq!(fresh.target(), None);

        let mut chosen = ZkaR::new(ZkaConfig::fast());
        chosen.restore_state(&[1, 7]);
        assert_eq!(chosen.target(), Some(7));
        assert_eq!(chosen.checkpoint_state(), vec![1, 7]);

        let mut g = crate::ZkaG::new(ZkaConfig::fast());
        g.restore_state(&g.checkpoint_state());
        assert_eq!(g.target(), None);
        g.restore_state(&[1, 3]);
        assert_eq!(g.checkpoint_state(), vec![1, 3]);
    }
}
