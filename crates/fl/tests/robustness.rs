//! Robustness contract tests (DESIGN.md §4d): the fault plan is a pure
//! function of `(seed, round, client)`, every defense degrades gracefully
//! under faults, and a killed-and-resumed run is bitwise identical to an
//! uninterrupted one.

use fabflip_agg::DefenseKind;
use fabflip_fl::checkpoint::{fingerprint, path_for};
use fabflip_fl::{
    simulate, simulate_with, AttackSpec, CheckpointSpec, Codec, FaultPlan, FlConfig, RunResult,
    StragglerPolicy, TaskKind,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that mutate the process-global thread budget.
fn thread_lock() -> &'static Mutex<()> {
    static LOCK: Mutex<()> = Mutex::new(());
    &LOCK
}

/// Unique scratch directory (pid + counter; no wall clock).
fn test_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "fabflip-it-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).expect("test dir");
    d
}

fn mixed_faults() -> FaultPlan {
    FaultPlan {
        dropout: 0.2,
        straggler: 0.1,
        malformed: 0.1,
        straggler_policy: StragglerPolicy::Stale {
            discount_milli: 500,
        },
    }
}

fn faulted_cfg(defense: DefenseKind) -> FlConfig {
    FlConfig::builder(TaskKind::Fashion)
        .rounds(3)
        .n_clients(12)
        .clients_per_round(6)
        .train_size(240)
        .test_size(80)
        .synth_set_size(6)
        .attack(AttackSpec::RandomWeights)
        .defense(defense)
        .faults(mixed_faults())
        .seed(7)
        .build()
}

fn acc_bits(r: &RunResult) -> Vec<u32> {
    r.rounds.iter().map(|x| x.accuracy.to_bits()).collect()
}

fn model_bits(r: &RunResult) -> Vec<u32> {
    r.final_model.iter().map(|w| w.to_bits()).collect()
}

/// Acceptance criterion: under 20% dropout plus stragglers and malformed
/// payloads, no defense panics or errors — every round either aggregates
/// (with a dynamically shrunk quorum) or is recorded as skipped, and the
/// per-round ledger reconciles to `clients_per_round` exactly.
#[test]
fn fault_matrix_smoke_every_defense_degrades_gracefully() {
    let defenses = [
        DefenseKind::FedAvg,
        DefenseKind::Krum { f: 2 },
        DefenseKind::MKrum { f: 2 },
        DefenseKind::TrMean { trim: 2 },
        DefenseKind::Median,
        DefenseKind::Bulyan { f: 2 },
        DefenseKind::FoolsGold,
        DefenseKind::NormBound {
            max_norm_milli: 500,
        },
    ];
    for defense in defenses {
        let cfg = faulted_cfg(defense);
        let r = simulate(&cfg).unwrap_or_else(|e| panic!("{defense:?} failed under faults: {e}"));
        assert_eq!(r.rounds.len(), cfg.rounds);
        for rec in &r.rounds {
            assert!(
                rec.reconciles(cfg.clients_per_round),
                "{defense:?} round {} ledger does not reconcile: {rec:?}",
                rec.round
            );
            // A round either delivered something to the aggregator or was
            // skipped with the global model carried forward.
            assert!(
                rec.delivered > 0 || rec.skipped,
                "{defense:?} round {} neither aggregated nor skipped: {rec:?}",
                rec.round
            );
        }
    }
}

#[test]
fn faulted_transcript_is_thread_count_invariant() {
    let _guard = thread_lock().lock().unwrap_or_else(|e| e.into_inner());
    let cfg = faulted_cfg(DefenseKind::MKrum { f: 2 });
    let prev = fabflip_tensor::par::max_threads();
    let mut results = Vec::new();
    for threads in [1usize, 2, 7] {
        fabflip_tensor::par::set_max_threads(threads);
        results.push(simulate(&cfg).unwrap());
    }
    fabflip_tensor::par::set_max_threads(prev);
    assert_eq!(acc_bits(&results[0]), acc_bits(&results[1]));
    assert_eq!(acc_bits(&results[0]), acc_bits(&results[2]));
    assert_eq!(model_bits(&results[0]), model_bits(&results[1]));
    assert_eq!(model_bits(&results[0]), model_bits(&results[2]));
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], results[2]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite 3: the fault schedule is a pure function of
    /// `(seed, round, client)` — identical under any thread budget and
    /// across a mid-enumeration `set_max_threads` resize.
    #[test]
    fn fault_plan_is_pure_per_seed_round_client(
        seed in 0u64..1000,
        dropout in 0.0f32..0.4,
        straggler in 0.0f32..0.3,
        malformed in 0.0f32..0.3,
    ) {
        let plan = FaultPlan {
            dropout,
            straggler,
            malformed,
            straggler_policy: StragglerPolicy::Drop,
        };
        let schedule = |plan: &FaultPlan| -> Vec<_> {
            (0u64..6)
                .flat_map(|round| (0u64..16).map(move |client| (round, client)))
                .map(|(round, client)| plan.fault_for(seed, round, client))
                .collect()
        };
        let _guard = thread_lock().lock().unwrap_or_else(|e| e.into_inner());
        let prev = fabflip_tensor::par::max_threads();
        fabflip_tensor::par::set_max_threads(1);
        let at_one = schedule(&plan);
        fabflip_tensor::par::set_max_threads(2);
        let at_two = schedule(&plan);
        fabflip_tensor::par::set_max_threads(7);
        let at_seven = schedule(&plan);
        // Mid-enumeration resize: the schedule must not notice.
        let mut resized = Vec::new();
        for (i, (round, client)) in (0u64..6)
            .flat_map(|r| (0u64..16).map(move |c| (r, c)))
            .enumerate()
        {
            if i == 48 {
                fabflip_tensor::par::set_max_threads(2);
            }
            resized.push(plan.fault_for(seed, round, client));
        }
        fabflip_tensor::par::set_max_threads(prev);
        prop_assert_eq!(&at_one, &at_two);
        prop_assert_eq!(&at_one, &at_seven);
        prop_assert_eq!(&at_one, &resized);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tentpole acceptance: kill the run at any round boundary, resume
    /// from the checkpoint, and the completed transcript (accuracies and
    /// final model, bitwise; every per-round record) equals the
    /// uninterrupted run's — at thread counts 1, 2 and 7.
    #[test]
    fn resumed_transcript_equals_uninterrupted_bitwise(
        kill_round in 1usize..3,
        every in 1usize..3,
        tidx in 0usize..3,
    ) {
        let threads = [1usize, 2, 7][tidx];
        let cfg = faulted_cfg(DefenseKind::MKrum { f: 2 });
        let _guard = thread_lock().lock().unwrap_or_else(|e| e.into_inner());
        let prev = fabflip_tensor::par::max_threads();
        fabflip_tensor::par::set_max_threads(threads);
        let full = simulate(&cfg).unwrap();

        // "Kill" at the round boundary: run with a truncated round budget
        // (the fingerprint excludes `rounds`, so the checkpoint is the
        // same file an interrupted full run would have left).
        let dir = test_dir("resume");
        let spec = CheckpointSpec::new(&dir, every);
        let mut short = cfg.clone();
        short.rounds = kill_round;
        simulate_with(&short, Some(&spec), |_| {}).unwrap();

        let mut replayed = Vec::new();
        let resumed = simulate_with(&cfg, Some(&spec), |r| replayed.push(r.round)).unwrap();
        fabflip_tensor::par::set_max_threads(prev);

        prop_assert_eq!(&replayed, &(kill_round..cfg.rounds).collect::<Vec<_>>());
        prop_assert_eq!(acc_bits(&resumed), acc_bits(&full));
        prop_assert_eq!(model_bits(&resumed), model_bits(&full));
        prop_assert_eq!(&resumed, &full);
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Quantized transport (DESIGN.md §4e): with F16 or I8 on the wire,
    /// the full faulted transcript (accuracies and final model, bitwise)
    /// is invariant under thread counts 1/2/7, and a kill/resume at any
    /// round boundary reproduces it exactly — the encode→decode
    /// roundtrip is a pure per-payload function, so it composes with the
    /// §4b/§4d determinism contracts unchanged.
    #[test]
    fn quantized_transcript_is_thread_invariant_and_resumable(
        codec_idx in 0usize..2,
        kill_round in 1usize..3,
    ) {
        let codec = [Codec::F16, Codec::I8][codec_idx];
        let mut cfg = faulted_cfg(DefenseKind::TrMean { trim: 2 });
        cfg.transport = codec;
        let _guard = thread_lock().lock().unwrap_or_else(|e| e.into_inner());
        let prev = fabflip_tensor::par::max_threads();
        let mut results = Vec::new();
        for threads in [1usize, 2, 7] {
            fabflip_tensor::par::set_max_threads(threads);
            results.push(simulate(&cfg).unwrap());
        }

        // Kill at the round boundary and resume (still at 7 threads).
        let dir = test_dir("quant-resume");
        let spec = CheckpointSpec::new(&dir, 1);
        let mut short = cfg.clone();
        short.rounds = kill_round;
        simulate_with(&short, Some(&spec), |_| {}).unwrap();
        let resumed = simulate_with(&cfg, Some(&spec), |_| {}).unwrap();
        fabflip_tensor::par::set_max_threads(prev);

        prop_assert_eq!(acc_bits(&results[0]), acc_bits(&results[1]));
        prop_assert_eq!(acc_bits(&results[0]), acc_bits(&results[2]));
        prop_assert_eq!(model_bits(&results[0]), model_bits(&results[1]));
        prop_assert_eq!(model_bits(&results[0]), model_bits(&results[2]));
        prop_assert_eq!(model_bits(&resumed), model_bits(&results[0]));
        prop_assert_eq!(&resumed, &results[0]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Satellite 4 (end-to-end): corrupting the newest checkpoint falls back
/// to `*.prev.bin`; corrupting both restarts from round 0 — and in every
/// case the final transcript is still bitwise identical, just recomputed
/// from further back. Atomic writes leave no temp litter.
#[test]
fn corrupt_checkpoints_degrade_to_recomputation_not_garbage() {
    let cfg = faulted_cfg(DefenseKind::Median);
    let full = simulate(&cfg).unwrap();
    let dir = test_dir("corrupt");
    let spec = CheckpointSpec::new(&dir, 1);

    let mut short = cfg.clone();
    short.rounds = 2;
    simulate_with(&short, Some(&spec), |_| {}).unwrap();
    let path = path_for(&dir, &fingerprint(&cfg));
    let prev = path.with_extension("prev.bin");
    assert!(path.exists(), "current checkpoint written");
    assert!(prev.exists(), "previous checkpoint retained");
    let no_tmp = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .all(|e| e.path().extension().is_none_or(|x| x != "tmp"));
    assert!(no_tmp, "atomic writes must not leave temp files");

    // Truncate the newest file: the round-1 prev checkpoint takes over,
    // rounds 1 and 2 are recomputed, and the result still matches.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
    let mut replayed = Vec::new();
    let resumed = simulate_with(&cfg, Some(&spec), |r| replayed.push(r.round)).unwrap();
    assert_eq!(replayed, vec![1, 2], "resume fell back to the prev file");
    assert_eq!(resumed, full);

    // Corrupt both copies: a fresh start from round 0, same transcript.
    for p in [&path, &prev] {
        std::fs::write(p, "{ not json").unwrap();
    }
    let mut replayed = Vec::new();
    let resumed = simulate_with(&cfg, Some(&spec), |r| replayed.push(r.round)).unwrap();
    assert_eq!(replayed, vec![0, 1, 2], "both corrupt → round 0");
    assert_eq!(resumed, full);
    std::fs::remove_dir_all(&dir).ok();
}

/// An attack with lazily chosen cross-round state (ZKA's flip target) must
/// survive the kill/resume boundary via `Attack::checkpoint_state`.
#[test]
fn resume_preserves_lazily_chosen_attack_state() {
    let mut cfg = faulted_cfg(DefenseKind::FedAvg);
    cfg.attack = AttackSpec::ZkaR {
        cfg: fabflip::ZkaConfig::fast(),
    };
    let full = simulate(&cfg).unwrap();
    let dir = test_dir("attack-state");
    let spec = CheckpointSpec::new(&dir, 1);
    let mut short = cfg.clone();
    short.rounds = 2;
    simulate_with(&short, Some(&spec), |_| {}).unwrap();
    let resumed = simulate_with(&cfg, Some(&spec), |_| {}).unwrap();
    assert_eq!(
        resumed, full,
        "a resumed ZKA run re-choosing its target would diverge here"
    );
    std::fs::remove_dir_all(&dir).ok();
}
