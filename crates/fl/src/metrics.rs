//! The paper's evaluation metrics (Sec. V-B).

use serde::{Deserialize, Serialize};

/// Per-round bookkeeping of one simulation.
///
/// Beyond the paper's ASR/DPR inputs, every round accounts for the fate
/// of each of the `K` sampled clients (DESIGN.md §4d): the degradation
/// counters below reconcile exactly to `clients_per_round` —
/// [`RoundRecord::reconciles`] states the identity — so partial
/// participation is observable, never silent. All counter fields default
/// to zero on deserialization, keeping records written before the fault
/// model readable.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index `t`.
    pub round: usize,
    /// Global test accuracy after aggregation.
    pub accuracy: f32,
    /// Malicious updates delivered to the defense this round (the DPR
    /// denominator: submissions, not merely sampled clients).
    pub malicious_selected: usize,
    /// Malicious updates the defense included (only meaningful for
    /// selection defenses; 0 otherwise).
    pub malicious_passed: usize,
    /// Whether the defense reported a per-update selection this round.
    pub selection_available: bool,
    /// Updates handed to the aggregator (fresh + stale deliveries).
    #[serde(default)]
    pub delivered: usize,
    /// Stale (previous-round straggler) entries among `delivered`.
    #[serde(default)]
    pub stale: usize,
    /// Submissions lost in transit (dropout faults, plus stragglers under
    /// the `Drop` policy).
    #[serde(default)]
    pub dropped: usize,
    /// Submissions that missed the deadline and were held for delivery
    /// next round (`Stale` straggler policy).
    #[serde(default)]
    pub straggling: usize,
    /// Fresh submissions the server's validator quarantined (malformed or
    /// non-finite payloads).
    #[serde(default)]
    pub quarantined: usize,
    /// Stale deliveries quarantined on arrival.
    #[serde(default)]
    pub stale_quarantined: usize,
    /// Sampled clients with no local data: they never submit.
    #[serde(default)]
    pub offline: usize,
    /// Sampled clients whose local training produced non-finite weights:
    /// they fail to submit.
    #[serde(default)]
    pub diverged: usize,
    /// Sampled malicious clients that submitted nothing (no attack
    /// configured, or an oracle-dependent attack starved of its oracle).
    #[serde(default)]
    pub silent: usize,
    /// The round produced no new global model: no deliveries, the
    /// surviving cohort fell below the defense's dynamic quorum, or the
    /// rule's precondition failed. The previous model is carried forward.
    #[serde(default)]
    pub skipped: bool,
}

impl RoundRecord {
    /// The degradation-accounting identity: every one of the `k` sampled
    /// clients is delivered fresh, dropped, held stale, quarantined,
    /// offline, diverged, or silent — exactly once. (`delivered − stale`
    /// is the *fresh* delivery count; stale entries were accounted as
    /// `straggling` by the round that sampled them.)
    pub fn reconciles(&self, k: usize) -> bool {
        (self.delivered - self.stale)
            + self.dropped
            + self.straggling
            + self.quarantined
            + self.offline
            + self.diverged
            + self.silent
            == k
    }
}

/// The outcome of one FL simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Per-round records, in order.
    pub rounds: Vec<RoundRecord>,
    /// The final global model (flat weights). Excluded from serialization —
    /// it is large and derivable by re-running the deterministic sim.
    #[serde(skip)]
    pub final_model: Vec<f32>,
}

impl RunResult {
    /// Maximum global accuracy over the run — the paper's `acc_max`
    /// (for clean FedAvg runs, `acc_natk`).
    pub fn max_accuracy(&self) -> f32 {
        // fabcheck::allow(unordered_float_reduction): running max over rounds in recorded order
        self.rounds.iter().map(|r| r.accuracy).fold(0.0, f32::max)
    }

    /// Final-round accuracy.
    pub fn final_accuracy(&self) -> f32 {
        self.rounds.last().map_or(0.0, |r| r.accuracy)
    }

    /// Defense pass rate (Eq. 5): the fraction of selected malicious
    /// clients whose update the defense included, over the whole run.
    /// `None` when the defense never exposed a selection (TRmean/Median —
    /// "NA" in the paper) or no malicious client was ever sampled.
    pub fn dpr(&self) -> Option<f32> {
        let mut passed = 0usize;
        let mut selected = 0usize;
        let mut any_selection = false;
        for r in &self.rounds {
            if r.selection_available {
                any_selection = true;
                passed += r.malicious_passed;
                selected += r.malicious_selected;
            }
        }
        if !any_selection || selected == 0 {
            return None;
        }
        Some(passed as f32 / selected as f32)
    }

    /// Accuracy trace (one entry per round).
    pub fn accuracy_trace(&self) -> Vec<f32> {
        self.rounds.iter().map(|r| r.accuracy).collect()
    }

    /// Rounds that produced no new global model (no quorum after faults).
    pub fn skipped_rounds(&self) -> usize {
        self.rounds.iter().filter(|r| r.skipped).count()
    }
}

/// Attack success rate (Eq. 4): the accuracy drop caused by the attack,
/// relative to the clean no-attack/no-defense accuracy `acc_natk`:
/// `ASR = (acc_natk − acc_max) / acc_natk`.
///
/// Clamped to `[0, 1]`: a run whose defended accuracy exceeds the clean
/// baseline has a fully failed attack.
pub fn attack_success_rate(acc_natk: f32, acc_max_under_attack: f32) -> f32 {
    if acc_natk <= 0.0 {
        return 0.0;
    }
    ((acc_natk - acc_max_under_attack) / acc_natk).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, acc: f32, sel: usize, pass: usize, avail: bool) -> RoundRecord {
        RoundRecord {
            round,
            accuracy: acc,
            malicious_selected: sel,
            malicious_passed: pass,
            selection_available: avail,
            ..RoundRecord::default()
        }
    }

    fn result(rounds: Vec<RoundRecord>) -> RunResult {
        RunResult {
            rounds,
            final_model: Vec::new(),
        }
    }

    #[test]
    fn max_and_final_accuracy() {
        let r = result(vec![
            record(0, 0.3, 0, 0, true),
            record(1, 0.7, 0, 0, true),
            record(2, 0.5, 0, 0, true),
        ]);
        assert_eq!(r.max_accuracy(), 0.7);
        assert_eq!(r.final_accuracy(), 0.5);
        assert_eq!(r.accuracy_trace(), vec![0.3, 0.7, 0.5]);
    }

    #[test]
    fn dpr_counts_only_selection_rounds() {
        let r = result(vec![
            record(0, 0.1, 2, 1, true),
            record(1, 0.1, 2, 2, true),
            record(2, 0.1, 5, 0, false), // statistic defense round: ignored
        ]);
        assert_eq!(r.dpr(), Some(0.75));
    }

    #[test]
    fn dpr_is_na_for_statistic_defenses_or_no_malicious() {
        let r = result(vec![record(0, 0.1, 3, 0, false)]);
        assert_eq!(r.dpr(), None);
        let r = result(vec![record(0, 0.1, 0, 0, true)]);
        assert_eq!(r.dpr(), None);
    }

    #[test]
    fn asr_formula_and_clamping() {
        assert!((attack_success_rate(0.82, 0.526) - 0.3585).abs() < 1e-3); // Table II ZKA-R/mKrum
        assert_eq!(attack_success_rate(0.8, 0.9), 0.0);
        assert_eq!(attack_success_rate(0.0, 0.5), 0.0);
        assert_eq!(attack_success_rate(0.5, 0.0), 1.0);
    }

    #[test]
    fn reconciliation_identity_counts_every_sampled_client() {
        // 6 sampled: 2 fresh-delivered, 1 dropped, 1 held stale, 1
        // quarantined, 1 offline — plus one stale delivery from the
        // previous round (not part of this round's 6).
        let r = RoundRecord {
            round: 0,
            delivered: 3,
            stale: 1,
            dropped: 1,
            straggling: 1,
            quarantined: 1,
            offline: 1,
            ..RoundRecord::default()
        };
        assert!(r.reconciles(6));
        assert!(!r.reconciles(7));
        // A fault-free full round.
        let r = RoundRecord {
            round: 0,
            delivered: 6,
            ..RoundRecord::default()
        };
        assert!(r.reconciles(6));
    }

    #[test]
    fn skipped_round_counter() {
        let mut a = record(0, 0.1, 0, 0, false);
        a.skipped = true;
        let r = result(vec![a, record(1, 0.2, 0, 0, false)]);
        assert_eq!(r.skipped_rounds(), 1);
    }

    #[test]
    fn old_records_deserialize_with_zero_fault_counters() {
        let legacy = r#"{"round":3,"accuracy":0.5,"malicious_selected":2,
            "malicious_passed":1,"selection_available":true}"#;
        let r: RoundRecord = serde_json::from_str(legacy).unwrap();
        assert_eq!(r.round, 3);
        assert_eq!(r.delivered, 0);
        assert_eq!(r.quarantined, 0);
        assert!(!r.skipped);
    }

    #[test]
    fn empty_run_is_harmless() {
        let r = result(Vec::new());
        assert_eq!(r.max_accuracy(), 0.0);
        assert_eq!(r.final_accuracy(), 0.0);
        assert_eq!(r.dpr(), None);
    }
}
