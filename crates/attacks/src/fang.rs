use crate::{Attack, AttackContext, AttackError, Capabilities};
use fabflip_tensor::vecops;
use rand::rngs::StdRng;
use rand::Rng;

/// The Fang attack (Fang et al., 2020) — the TRmean/Median *directed
/// deviation* variant, the version whose source the original authors
/// released and the one the paper compares against.
///
/// Per coordinate `j`, the attacker estimates the benign update direction
/// `s_j = sign(mean_j(W_b) − w(t)_j)` and submits a value *just beyond the
/// benign extreme on the opposite side*: when the coordinate is moving up,
/// the malicious value sits below the benign minimum; when moving down,
/// above the benign maximum. Values are drawn uniformly from an interval
/// scaled by `b` (the original paper's default `b = 2`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fang;

impl Fang {
    /// The interval scale `b`, the original paper's default.
    const B: f32 = 2.0;

    /// Creates the attack.
    pub fn new() -> Fang {
        Fang
    }
}

impl Attack for Fang {
    fn craft(
        &mut self,
        ctx: &AttackContext<'_>,
        rng: &mut StdRng,
    ) -> Result<Vec<f32>, AttackError> {
        let refs = crate::types::finite_benign(ctx, "Fang", 1)?;
        let mean = vecops::mean(&refs);
        let d = mean.len();
        let mut w = vec![0.0f32; d];
        for j in 0..d {
            let lo = refs.iter().map(|r| r[j]).fold(f32::INFINITY, f32::min);
            let hi = refs.iter().map(|r| r[j]).fold(f32::NEG_INFINITY, f32::max);
            let dir = mean[j] - ctx.global[j];
            // Width of the overshoot interval; use a magnitude floor so
            // near-zero coordinates still deviate.
            if dir > 0.0 {
                let width = (Fang::B - 1.0) * lo.abs().max(1e-3);
                w[j] = lo - width * rng.gen_range(0.0f32..=1.0);
            } else {
                let width = (Fang::B - 1.0) * hi.abs().max(1e-3);
                w[j] = hi + width * rng.gen_range(0.0f32..=1.0);
            }
        }
        Ok(w)
    }

    fn name(&self) -> &'static str {
        "Fang"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            needs_benign_updates: true,
            defenses_known: vec!["TRmean", "Krum", "Median"],
            works_defense_unknown: false,
            needs_raw_data: false,
            handles_heterogeneity: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TaskInfo;
    use fabflip_nn::{Dense, Sequential};
    use rand::SeedableRng;

    fn toy_task() -> TaskInfo {
        TaskInfo {
            channels: 1,
            height: 2,
            width: 2,
            num_classes: 2,
            synth_set_size: 4,
            local_lr: 0.1,
            local_batch: 2,
            local_epochs: 1,
        }
    }

    fn toy_builder(rng: &mut StdRng) -> Sequential {
        let mut m = Sequential::new();
        m.push(Dense::new(4, 2, rng));
        m
    }

    #[test]
    fn deviates_opposite_to_benign_direction() {
        let task = toy_task();
        // Coordinate 0 moves up (mean 2 > global 0): attacker goes below min.
        // Coordinate 1 moves down (mean -2 < global 0): attacker goes above max.
        let benign = vec![vec![1.0f32, -1.0], vec![3.0, -3.0]];
        let global = vec![0.0f32, 0.0];
        let ctx = AttackContext {
            global: &global,
            prev_global: None,
            benign_updates: &benign,
            n_selected: 10,
            n_malicious_selected: 2,
            task: &task,
            build_model: &toy_builder,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let w = Fang::new().craft(&ctx, &mut rng).unwrap();
        assert!(w[0] <= 1.0, "coordinate 0 should undershoot the min: {w:?}");
        assert!(w[1] >= -1.0, "coordinate 1 should overshoot the max: {w:?}");
    }

    #[test]
    fn requires_benign_oracle() {
        let task = toy_task();
        let global = vec![0.0f32; 2];
        let benign: Vec<Vec<f32>> = Vec::new();
        let ctx = AttackContext {
            global: &global,
            prev_global: None,
            benign_updates: &benign,
            n_selected: 10,
            n_malicious_selected: 2,
            task: &task,
            build_model: &toy_builder,
        };
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            Fang::new().craft(&ctx, &mut rng),
            Err(AttackError::NeedsBenignUpdates(_))
        ));
    }

    #[test]
    fn capabilities_match_table1() {
        let c = Fang::new().capabilities();
        assert!(c.needs_benign_updates);
        assert!(!c.works_defense_unknown);
        assert!(c.handles_heterogeneity);
    }
}
