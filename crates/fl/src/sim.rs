//! The federated-learning simulation loop (paper Sec. II-A, V-A), plus
//! the deterministic fault-injection transport and graceful server-side
//! degradation of DESIGN.md §4d.
//!
//! Since the §4g serve split, this module is the *batch shell* around the
//! shared round engine in [`crate::round`]: [`ClientFleet`] stages every
//! submission, this loop plays the in-process fault transport over the
//! staged log, and [`ServerCore`] closes the round. The TCP server in
//! `fabflip-serve` drives the same two halves over real sockets.

use crate::checkpoint::{self, Checkpoint, CheckpointSpec, PendingStale};
use crate::faults::{corrupt_payload, streams, sub_seed, ClientFault, StragglerPolicy};
use crate::metrics::{RoundRecord, RunResult};
use crate::round::{server_accepts, ClientFleet, RoundInput, ServerCore};
use crate::{FlConfig, FlError};
use fabflip_tensor::quant;

/// A straggler submission held in memory for next-round delivery (the
/// checkpointable form is [`PendingStale`]).
struct Pending {
    client: usize,
    malicious: bool,
    weight: f32,
    payload: Vec<f32>,
}

/// Runs one full FL simulation described by `cfg`.
///
/// Per round: sample `K` clients uniformly; benign clients train locally
/// for one epoch; the single adversarial party crafts **one** malicious
/// update which every selected malicious client submits (Sec. III-A); the
/// server aggregates under the configured defense; the global model is
/// evaluated on the held-out test set. Rounds whose aggregation fails a
/// robustness precondition (too few finite updates) leave the global model
/// unchanged, like a round with no quorum.
///
/// # Errors
///
/// Returns [`FlError`] on configuration, partition, training or attack
/// failures. Aggregation "too few updates" is tolerated per round; all
/// other aggregation errors abort.
pub fn simulate(cfg: &FlConfig) -> Result<RunResult, FlError> {
    simulate_with(cfg, None, |_| {})
}

/// Like [`simulate`], invoking `observer` with each round's record as soon
/// as it is complete — for live progress display and streaming dashboards.
///
/// # Errors
///
/// Same conditions as [`simulate`].
pub fn simulate_observed<F: FnMut(&RoundRecord)>(
    cfg: &FlConfig,
    observer: F,
) -> Result<RunResult, FlError> {
    simulate_with(cfg, None, observer)
}

/// The full simulation entry point: [`simulate_observed`] plus an optional
/// crash-safe checkpoint sink.
///
/// With a [`CheckpointSpec`], the run first tries to resume from the
/// latest intact checkpoint for this config (restored rounds are **not**
/// replayed through `observer`), then saves its complete cross-round state
/// every `spec.every` completed rounds and at completion. Everything a
/// round reads beyond that state is a pure function of `(cfg, round)` —
/// per-round RNG streams, the fault schedule, datasets, the partition —
/// so a resumed run's remaining transcript is bitwise identical to an
/// uninterrupted one (pinned by the resume-equivalence proptest in
/// `tests/robustness.rs`).
///
/// # Errors
///
/// Same conditions as [`simulate`], plus [`FlError::Checkpoint`] when a
/// checkpoint cannot be *written* (corrupt checkpoints on read degrade to
/// recomputation instead).
pub fn simulate_with<F: FnMut(&RoundRecord)>(
    cfg: &FlConfig,
    ckpt: Option<&CheckpointSpec>,
    mut observer: F,
) -> Result<RunResult, FlError> {
    cfg.validate().map_err(FlError::BadConfig)?;
    let mut fleet = ClientFleet::new(cfg)?;
    let mut core = ServerCore::new(cfg)?;
    // The degradation layer (validator + dynamic quorum) switches on only
    // under a live fault plan, so fault-free configs take the exact
    // historical code path, bit for bit.
    let faults_active = cfg.faults.is_active();
    let fingerprint = ckpt.map(|_| checkpoint::fingerprint(cfg));

    let mut pending: Vec<Pending> = Vec::new();
    let mut rounds: Vec<RoundRecord> = Vec::with_capacity(cfg.rounds);
    let mut start_round = 0usize;

    if let Some(spec) = ckpt {
        if let Some(c) = checkpoint::load(&spec.dir, cfg) {
            if c.global_bits.len() == core.dim() {
                core.restore(
                    checkpoint::from_bits(&c.global_bits),
                    c.prev_global_bits.as_deref().map(checkpoint::from_bits),
                )?;
                pending = c
                    .pending
                    .iter()
                    .map(|p| Pending {
                        client: p.client,
                        malicious: p.malicious,
                        weight: f32::from_bits(p.weight_bits),
                        payload: checkpoint::from_bits(&p.payload_bits),
                    })
                    .collect();
                fleet.restore_attack_state(&c.attack_state);
                start_round = c.next_round;
                rounds = c.rounds;
            }
        }
    }

    for round in start_round..cfg.rounds {
        let round_u64 = round as u64;
        let staged_round = fleet.stage_round(round, core.global(), core.prev_global())?;
        let mut staged = staged_round.submissions;
        let mut dropped = staged_round.dropped;
        let mut straggling = 0usize;
        let mut quarantined = 0usize;
        let mut stale_quarantined = 0usize;
        let mut stale_delivered = 0usize;

        // Quantized transport (DESIGN.md §4e): every staged payload
        // crosses the wire through the configured codec before faults or
        // the server validator see it. `F32` is the identity and skips
        // the loop entirely, so fault-free f32 transcripts stay bitwise
        // identical to pre-quantization runs. Stale deliveries were
        // staged (and thus encoded) in their submission round.
        if !cfg.transport.is_f32() {
            for entry in &mut staged {
                quant::roundtrip_in_place(cfg.transport, &mut entry.payload);
            }
        }

        // Transport + delivery. Stale entries land first — they were
        // submitted a round earlier — then this round's staged submissions
        // pass through the fault plan.
        let d = core.dim();
        let mut updates: Vec<Vec<f32>> = Vec::new();
        let mut weights: Vec<f32> = Vec::new();
        let mut malicious_indices: Vec<usize> = Vec::new();
        let mut pending_next: Vec<Pending> = Vec::new();
        for p in pending.drain(..) {
            if server_accepts(&p.payload, d) {
                if p.malicious {
                    malicious_indices.push(updates.len());
                }
                updates.push(p.payload);
                weights.push(p.weight * cfg.faults.straggler_policy.discount());
                stale_delivered += 1;
            } else {
                stale_quarantined += 1;
            }
        }
        for entry in staged {
            match entry.fault {
                None => {
                    // Fault-free transport. Without a live plan this is an
                    // unconditional pass-through (the historical path);
                    // with one, the server validator quarantines malformed
                    // or non-finite submissions before the defense runs.
                    if !faults_active || server_accepts(&entry.payload, d) {
                        if entry.malicious {
                            malicious_indices.push(updates.len());
                        }
                        updates.push(entry.payload);
                        weights.push(entry.weight);
                    } else {
                        quarantined += 1;
                    }
                }
                Some(ClientFault::Dropout) => dropped += 1,
                Some(ClientFault::Straggler) => match cfg.faults.straggler_policy {
                    StragglerPolicy::Drop => dropped += 1,
                    StragglerPolicy::Stale { .. } => {
                        straggling += 1;
                        pending_next.push(Pending {
                            client: entry.client,
                            malicious: entry.malicious,
                            weight: entry.weight,
                            payload: entry.payload,
                        });
                    }
                },
                Some(ClientFault::Malformed(kind)) => {
                    let mut payload = entry.payload;
                    corrupt_payload(
                        kind,
                        &mut payload,
                        sub_seed(cfg.seed, streams::FAULTS, round_u64, entry.client as u64),
                    );
                    if server_accepts(&payload, d) {
                        if entry.malicious {
                            malicious_indices.push(updates.len());
                        }
                        updates.push(payload);
                        weights.push(entry.weight);
                    } else {
                        quarantined += 1;
                    }
                }
            }
        }
        pending = pending_next;

        // Server-side aggregation with graceful degradation: under a live
        // fault plan the defense's parameters are recomputed for the
        // surviving cohort (`DefenseKind::for_cohort`); an impossible
        // quorum skips the round and carries the global model forward.
        let record = core.close_round(
            round,
            RoundInput {
                updates,
                weights,
                malicious_indices,
                degrade: faults_active,
                stale_delivered,
                dropped,
                straggling,
                quarantined,
                stale_quarantined,
                offline: staged_round.offline,
                diverged: staged_round.diverged,
                silent: staged_round.silent,
            },
        )?;
        observer(&record);
        rounds.push(record);

        if let Some(spec) = ckpt {
            if spec.due(round + 1, cfg.rounds) {
                let c = Checkpoint {
                    version: checkpoint::CHECKPOINT_VERSION,
                    fingerprint: fingerprint.clone().expect("fingerprint set with spec"),
                    next_round: round + 1,
                    global_bits: checkpoint::to_bits(core.global()),
                    prev_global_bits: core.prev_global().map(checkpoint::to_bits),
                    rounds: rounds.clone(),
                    pending: pending
                        .iter()
                        .map(|p| PendingStale {
                            client: p.client,
                            malicious: p.malicious,
                            weight_bits: p.weight.to_bits(),
                            payload_bits: checkpoint::to_bits(&p.payload),
                        })
                        .collect(),
                    attack_state: fleet.attack_state(),
                    inflight: Vec::new(),
                    inflight_meta: Vec::new(),
                    checksum: 0,
                }
                .seal();
                checkpoint::save(&spec.dir, &c)?;
            }
        }
    }
    Ok(RunResult {
        rounds,
        final_model: core.global().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::{AttackSpec, TaskKind};
    use fabflip_agg::DefenseKind;

    fn tiny_cfg() -> FlConfig {
        FlConfig::builder(TaskKind::Fashion)
            .rounds(3)
            .n_clients(12)
            .clients_per_round(6)
            .train_size(240)
            .test_size(80)
            .synth_set_size(6)
            .seed(5)
            .build()
    }

    #[test]
    fn clean_run_learns() {
        // At this tiny scale (20 samples/client, ~2 SGD steps per client
        // per round) learning only clears chance after a dozen-odd rounds,
        // so this test runs longer than the other sims here.
        let mut cfg = tiny_cfg();
        cfg.rounds = 16;
        let r = simulate(&cfg).unwrap();
        assert_eq!(r.rounds.len(), 16);
        // Accuracy must beat chance (10 classes).
        assert!(r.max_accuracy() > 0.15, "trace {:?}", r.accuracy_trace());
    }

    /// The parallelism/determinism contract end-to-end: a fixed-seed round
    /// transcript (accuracies and final model, bitwise) must not depend on
    /// the thread budget. Mirrors running with `FABFLIP_THREADS` set to 1,
    /// 2 and 7. Besides the clean run it covers both craft schedules of
    /// `ClientFleet::stage_round`: ZKA-G and random weights are crafted in
    /// the same dispatch as benign training (random weights with Sybil
    /// noise, whose draws continue the craft's RNG after the dispatch), LIE
    /// after training from the oracle.
    #[test]
    fn transcript_is_thread_count_invariant() {
        let with = |attack: AttackSpec, sybil_noise: f32| FlConfig {
            attack,
            sybil_noise,
            defense: DefenseKind::MKrum { f: 1 },
            ..tiny_cfg()
        };
        let cfgs = [
            tiny_cfg(),
            with(
                AttackSpec::ZkaG {
                    cfg: fabflip::ZkaConfig::fast(),
                },
                0.0,
            ),
            with(AttackSpec::RandomWeights, 0.02),
            with(AttackSpec::Lie, 0.0),
        ];
        let bits = |r: &crate::RunResult| -> (Vec<u32>, Vec<u32>) {
            (
                r.accuracy_trace().iter().map(|a| a.to_bits()).collect(),
                r.final_model.iter().map(|w| w.to_bits()).collect(),
            )
        };
        let prev = fabflip_tensor::par::max_threads();
        for cfg in &cfgs {
            let runs: Vec<_> = [1, 2, 7]
                .into_iter()
                .map(|threads| {
                    fabflip_tensor::par::set_max_threads(threads);
                    simulate(cfg).unwrap()
                })
                .collect();
            let label = cfg.attack.label();
            if cfg.attack != AttackSpec::None {
                let crafted: usize = runs[0].rounds.iter().map(|x| x.malicious_selected).sum();
                assert!(crafted > 0, "{label}: no malicious submission staged");
            }
            for (threads, r) in [2, 7].into_iter().zip(&runs[1..]) {
                assert!(
                    bits(r) == bits(&runs[0]),
                    "{label}: transcript at {threads} threads differs from 1 thread"
                );
            }
        }
        fabflip_tensor::par::set_max_threads(prev);
    }

    #[test]
    fn simulation_is_deterministic() {
        let cfg = tiny_cfg();
        let a = simulate(&cfg).unwrap();
        let b = simulate(&cfg).unwrap();
        assert_eq!(a, b);
        let mut cfg2 = tiny_cfg();
        cfg2.seed = 6;
        let c = simulate(&cfg2).unwrap();
        assert_ne!(a.accuracy_trace(), c.accuracy_trace());
    }

    #[test]
    fn random_weight_attack_destroys_undefended_training() {
        let mut cfg = tiny_cfg();
        cfg.attack = AttackSpec::RandomWeights;
        cfg.malicious_fraction = 0.5;
        let attacked = simulate(&cfg).unwrap();
        let clean = simulate(&tiny_cfg()).unwrap();
        assert!(
            attacked.max_accuracy() <= clean.max_accuracy() + 0.05,
            "attack did not hurt: {} vs {}",
            attacked.max_accuracy(),
            clean.max_accuracy()
        );
    }

    #[test]
    fn mkrum_reports_dpr_and_median_does_not() {
        let mut cfg = tiny_cfg();
        cfg.attack = AttackSpec::RandomWeights;
        cfg.defense = DefenseKind::MKrum { f: 2 };
        let r = simulate(&cfg).unwrap();
        // Some round must have had a selection.
        assert!(r.rounds.iter().any(|x| x.selection_available));
        cfg.defense = DefenseKind::Median;
        let r = simulate(&cfg).unwrap();
        assert_eq!(r.dpr(), None);
    }

    #[test]
    fn observer_sees_every_round_in_order() {
        let cfg = tiny_cfg();
        let mut seen = Vec::new();
        let r = crate::sim::simulate_observed(&cfg, |rec| seen.push(rec.round)).unwrap();
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(r.rounds.len(), 3);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = tiny_cfg();
        cfg.rounds = 0;
        assert!(matches!(simulate(&cfg), Err(FlError::BadConfig(_))));
    }

    #[test]
    fn fault_free_records_reconcile_and_are_never_skipped_here() {
        let cfg = tiny_cfg();
        let r = simulate(&cfg).unwrap();
        for rec in &r.rounds {
            assert!(rec.reconciles(cfg.clients_per_round), "{rec:?}");
            assert!(!rec.skipped, "{rec:?}");
            assert_eq!(rec.dropped + rec.straggling + rec.quarantined, 0);
        }
    }

    #[test]
    fn dropout_faults_are_deterministic_and_accounted() {
        let mut cfg = tiny_cfg();
        cfg.faults = FaultPlan::dropout_only(0.4);
        let a = simulate(&cfg).unwrap();
        let b = simulate(&cfg).unwrap();
        assert_eq!(a, b, "fault schedule must be a pure function of cfg");
        assert!(
            a.rounds.iter().any(|rec| rec.dropped > 0),
            "0.4 dropout over {} slots never fired: {:?}",
            cfg.rounds * cfg.clients_per_round,
            a.rounds
        );
        for rec in &a.rounds {
            assert!(rec.reconciles(cfg.clients_per_round), "{rec:?}");
        }
        // And the fault schedule actually changes the transcript.
        let clean = simulate(&tiny_cfg()).unwrap();
        assert_ne!(clean.accuracy_trace(), a.accuracy_trace());
    }

    #[test]
    fn checkpointed_run_resumes_and_matches_uninterrupted() {
        let dir = crate::test_dir("sim-resume");
        let spec = CheckpointSpec::new(&dir, 1);
        let full = simulate(&tiny_cfg()).unwrap();

        // Interrupted run: a truncated round budget with the same
        // fingerprint (the fingerprint excludes `rounds`).
        let mut short = tiny_cfg();
        short.rounds = 2;
        let partial = simulate_with(&short, Some(&spec), |_| {}).unwrap();
        assert_eq!(partial.rounds.len(), 2);

        // Resume to the full budget: only round 2 runs, and the observer
        // confirms restored rounds are not replayed.
        let mut seen = Vec::new();
        let resumed = simulate_with(&tiny_cfg(), Some(&spec), |rec| seen.push(rec.round)).unwrap();
        assert_eq!(seen, vec![2]);
        assert_eq!(resumed, full, "resumed transcript must match bitwise");

        // A second resume finds the completed checkpoint: zero new rounds.
        let mut seen = Vec::new();
        let again = simulate_with(&tiny_cfg(), Some(&spec), |rec| seen.push(rec.round)).unwrap();
        assert!(seen.is_empty());
        assert_eq!(again, full);
        std::fs::remove_dir_all(&dir).ok();
    }
}
