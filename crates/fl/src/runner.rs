//! Experiment runner: repeated paired runs, the clean baseline `acc_natk`,
//! and cell summaries — the machinery behind every table and figure bench.

use crate::metrics::attack_success_rate;
use crate::{simulate, AttackSpec, FlConfig, FlError};
use fabflip_agg::DefenseKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Mean/summary of one experiment-grid cell over `repeats` paired runs
/// (the paper averages three runs, Sec. V).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSummary {
    /// Attack label (paper column).
    pub attack: String,
    /// Defense label (paper row).
    pub defense: String,
    /// Task label.
    pub task: String,
    /// Dirichlet heterogeneity β.
    pub beta: f64,
    /// Mean clean no-attack/no-defense maximum accuracy (`acc_natk`).
    pub acc_natk: f32,
    /// Mean maximum accuracy under attack (`acc_max`, "acc" in Table II).
    pub acc_max: f32,
    /// Mean attack success rate (Eq. 4), paired per seed.
    pub asr: f32,
    /// Mean defense pass rate (Eq. 5); `None` = "NA" (statistic defenses).
    pub dpr: Option<f32>,
    /// Number of repeats averaged.
    pub repeats: usize,
}

impl CellSummary {
    /// `DPR` formatted as the paper prints it (percent or "NA").
    pub fn dpr_display(&self) -> String {
        match self.dpr {
            Some(d) => format!("{:.2}", d * 100.0),
            None => "NA".to_string(),
        }
    }
}

// BTreeMap, not HashMap: the fabcheck `nondeterministic-collection` rule
// keeps hash-iteration order out of the numeric crates wholesale, even
// where (as here) the map is only ever probed by key.
fn clean_cache() -> &'static Mutex<BTreeMap<String, f32>> {
    static CACHE: OnceLock<Mutex<BTreeMap<String, f32>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The clean-run ceiling `acc_natk` for the given configuration: the same
/// simulation with no attack and plain FedAvg. Memoized process-wide (the
/// whole grid shares one baseline per task/β/seed/scale).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn acc_natk(cfg: &FlConfig) -> Result<f32, FlError> {
    let mut clean = cfg.clone();
    clean.attack = AttackSpec::None;
    clean.defense = DefenseKind::FedAvg;
    let key = serde_json::to_string(&clean).expect("config serializes");
    if let Some(&v) = clean_cache().lock().expect("cache lock").get(&key) {
        return Ok(v);
    }
    let acc = simulate(&clean)?.max_accuracy();
    clean_cache().lock().expect("cache lock").insert(key, acc);
    Ok(acc)
}

/// Runs one grid cell: `repeats` paired (clean, attacked) simulations with
/// seeds `base.seed + k`, averaging `acc_natk`, `acc_max`, ASR and DPR.
///
/// # Errors
///
/// Propagates the first failing simulation.
pub fn run_cell(base: &FlConfig, repeats: usize) -> Result<CellSummary, FlError> {
    assert!(repeats > 0, "need at least one repeat");
    let mut natk_sum = 0.0f32;
    let mut accmax_sum = 0.0f32;
    let mut asr_sum = 0.0f32;
    let mut dpr_sum = 0.0f32;
    let mut dpr_count = 0usize;
    for k in 0..repeats {
        let mut cfg = base.clone();
        cfg.seed = base.seed + k as u64;
        let natk = acc_natk(&cfg)?;
        let result = simulate(&cfg)?;
        let acc_max = result.max_accuracy();
        natk_sum += natk;
        accmax_sum += acc_max;
        asr_sum += attack_success_rate(natk, acc_max);
        if let Some(d) = result.dpr() {
            dpr_sum += d;
            dpr_count += 1;
        }
    }
    let n = repeats as f32;
    Ok(CellSummary {
        attack: base.attack.label().to_string(),
        defense: base.defense.label().to_string(),
        task: base.task.label().to_string(),
        beta: base.beta,
        acc_natk: natk_sum / n,
        acc_max: accmax_sum / n,
        asr: asr_sum / n,
        dpr: if dpr_count > 0 {
            Some(dpr_sum / dpr_count as f32)
        } else {
            None
        },
        repeats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskKind;

    fn tiny(attack: AttackSpec, defense: DefenseKind) -> FlConfig {
        FlConfig::builder(TaskKind::Fashion)
            .rounds(2)
            .n_clients(10)
            .clients_per_round(6)
            .train_size(160)
            .test_size(60)
            .synth_set_size(4)
            .attack(attack)
            .defense(defense)
            .seed(11)
            .build()
    }

    #[test]
    fn acc_natk_is_memoized_and_attack_free() {
        let cfg = tiny(AttackSpec::RandomWeights, DefenseKind::Median);
        let a = acc_natk(&cfg).unwrap();
        let b = acc_natk(&cfg).unwrap();
        assert_eq!(a, b);
        // The cache must key on the *clean* config: a different attack with
        // the same task/seed hits the same entry.
        let cfg2 = tiny(AttackSpec::Lie, DefenseKind::Median);
        assert_eq!(acc_natk(&cfg2).unwrap(), a);
    }

    #[test]
    fn run_cell_produces_consistent_summary() {
        let cfg = tiny(AttackSpec::RandomWeights, DefenseKind::FedAvg);
        let s = run_cell(&cfg, 2).unwrap();
        assert_eq!(s.attack, "Random");
        assert_eq!(s.defense, "FedAvg");
        assert_eq!(s.repeats, 2);
        assert!(s.acc_natk >= s.acc_max - 1.0);
        assert!((0.0..=1.0).contains(&s.asr));
        // FedAvg exposes a selection, so DPR exists (and is 1: FedAvg keeps all).
        assert_eq!(s.dpr, Some(1.0));
    }

    #[test]
    fn statistic_defense_reports_na() {
        let cfg = tiny(AttackSpec::RandomWeights, DefenseKind::Median);
        let s = run_cell(&cfg, 1).unwrap();
        assert_eq!(s.dpr, None);
        assert_eq!(s.dpr_display(), "NA");
    }
}
