//! Cross-crate integration tests of the FL simulator: determinism, attack
//! impact, defense behaviour, and metric plumbing.

use fabflip_agg::DefenseKind;
use fabflip_fl::{
    metrics::attack_success_rate, runner, simulate, AttackSpec, FaultPlan, FlConfig, RoundRecord,
    RunResult, StragglerPolicy, TaskKind,
};

fn small(attack: AttackSpec, defense: DefenseKind) -> FlConfig {
    FlConfig::builder(TaskKind::Fashion)
        .n_clients(20)
        .clients_per_round(8)
        .rounds(6)
        .train_size(400)
        .test_size(120)
        .synth_set_size(8)
        .attack(attack)
        .defense(defense)
        .seed(21)
        .build()
}

#[test]
fn same_seed_same_result_different_seed_different_result() {
    let cfg = small(AttackSpec::RandomWeights, DefenseKind::MKrum { f: 2 });
    let a = simulate(&cfg).unwrap();
    let b = simulate(&cfg).unwrap();
    assert_eq!(a, b, "simulation must be a pure function of its config");
    let mut cfg2 = cfg.clone();
    cfg2.seed += 1;
    let c = simulate(&cfg2).unwrap();
    assert_ne!(a.accuracy_trace(), c.accuracy_trace());
}

#[test]
fn random_weights_destroy_fedavg_but_not_mkrum() {
    // The motivating observation of Sec. IV-A: naive weight poisoning wrecks
    // an undefended server, while distance-based selection filters it out.
    // Needs a config whose clean run actually learns, so more rounds/epochs
    // than the smoke config.
    let grown = |attack: AttackSpec, defense: DefenseKind| {
        let mut cfg = small(attack, defense);
        cfg.rounds = 16;
        cfg.local_epochs = 3;
        cfg
    };
    let clean = simulate(&grown(AttackSpec::None, DefenseKind::FedAvg)).unwrap();
    assert!(
        clean.max_accuracy() > 0.25,
        "clean run failed to learn: {}",
        clean.max_accuracy()
    );
    let attacked_fedavg = simulate(&grown(AttackSpec::RandomWeights, DefenseKind::FedAvg)).unwrap();
    let attacked_mkrum = simulate(&grown(
        AttackSpec::RandomWeights,
        DefenseKind::MKrum { f: 2 },
    ))
    .unwrap();
    assert!(
        attacked_fedavg.max_accuracy() < clean.max_accuracy(),
        "random weights should hurt FedAvg: {} vs clean {}",
        attacked_fedavg.max_accuracy(),
        clean.max_accuracy()
    );
    // mKrum's protection manifests as filtering: almost no random-weight
    // update is selected, and the model still learns above chance. (A
    // direct accuracy comparison with attacked FedAvg is too noisy at this
    // scale — early random noise can accidentally regularize.)
    let dpr = attacked_mkrum.dpr().expect("mKrum reports a selection");
    assert!(
        dpr < 0.2,
        "mKrum let random weights through too often: {dpr}"
    );
    assert!(
        attacked_mkrum.max_accuracy() > 0.15,
        "mKrum-defended run collapsed: {}",
        attacked_mkrum.max_accuracy()
    );
}

#[test]
fn random_weights_rarely_pass_mkrum() {
    // Paper Sec. IV-A: random updates bypass mKrum in only a few percent of
    // cases. At this reduced scale we assert a loose upper bound.
    let r = simulate(&small(
        AttackSpec::RandomWeights,
        DefenseKind::MKrum { f: 2 },
    ))
    .unwrap();
    let dpr = r.dpr().expect("mKrum reports a selection");
    assert!(dpr < 0.35, "random weights passed mKrum too often: {dpr}");
}

#[test]
fn statistic_defenses_never_report_dpr() {
    for defense in [DefenseKind::Median, DefenseKind::TrMean { trim: 2 }] {
        let r = simulate(&small(AttackSpec::RandomWeights, defense)).unwrap();
        assert_eq!(r.dpr(), None, "{} must be NA", defense.label());
    }
}

#[test]
fn oracle_attacks_receive_benign_updates_and_zk_attacks_do_not_need_them() {
    // LIE requires the oracle; the simulator provides it, so the run works.
    let r = simulate(&small(AttackSpec::Lie, DefenseKind::TrMean { trim: 2 })).unwrap();
    assert_eq!(r.rounds.len(), 6);
    // ZKA-G runs with an empty oracle (zero-knowledge) — also fine.
    let r = simulate(&small(
        AttackSpec::ZkaG {
            cfg: fabflip::ZkaConfig::fast(),
        },
        DefenseKind::TrMean { trim: 2 },
    ))
    .unwrap();
    assert_eq!(r.rounds.len(), 6);
}

#[test]
fn extreme_heterogeneity_with_empty_shards_is_survivable() {
    // β = 0.05 concentrates classes on few clients; some clients own no
    // data and must silently skip. The simulation must still complete.
    let mut cfg = small(AttackSpec::None, DefenseKind::Median);
    cfg.beta = 0.05;
    let r = simulate(&cfg).unwrap();
    assert_eq!(r.rounds.len(), cfg.rounds);
}

#[test]
fn all_attacks_run_against_all_defenses_one_round() {
    // Smoke matrix: every attack × defense pair completes.
    let attacks = vec![
        AttackSpec::Lie,
        AttackSpec::Fang,
        AttackSpec::MinMax,
        AttackSpec::RandomWeights,
        AttackSpec::RealData { lambda: 1.0 },
        AttackSpec::ZkaR {
            cfg: fabflip::ZkaConfig::fast(),
        },
        AttackSpec::ZkaG {
            cfg: fabflip::ZkaConfig::fast(),
        },
    ];
    let defenses = vec![
        DefenseKind::FedAvg,
        DefenseKind::MKrum { f: 2 },
        DefenseKind::TrMean { trim: 2 },
        DefenseKind::Bulyan { f: 2 },
        DefenseKind::Median,
    ];
    for attack in &attacks {
        for defense in &defenses {
            let mut cfg = small(attack.clone(), *defense);
            cfg.rounds = 1;
            let r = simulate(&cfg).unwrap_or_else(|e| {
                panic!("{} vs {} failed: {e}", attack.label(), defense.label())
            });
            assert_eq!(r.rounds.len(), 1);
            assert!(r.rounds[0].accuracy.is_finite());
        }
    }
}

#[test]
fn asr_uses_paired_clean_baseline() {
    let cfg = small(AttackSpec::RandomWeights, DefenseKind::FedAvg);
    let natk = runner::acc_natk(&cfg).unwrap();
    let attacked = simulate(&cfg).unwrap();
    let asr = attack_success_rate(natk, attacked.max_accuracy());
    assert!((0.0..=1.0).contains(&asr));
    // A clean "attacked" run has (near) zero ASR against its own baseline.
    let clean_cfg = small(AttackSpec::None, DefenseKind::FedAvg);
    let clean = simulate(&clean_cfg).unwrap();
    let asr_clean =
        attack_success_rate(runner::acc_natk(&clean_cfg).unwrap(), clean.max_accuracy());
    assert!(asr_clean < 1e-6);
}

/// FNV-1a over each round's accuracy bits and client ledger, then the
/// final model's bits.
fn transcript_digest(r: &RunResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for rec in &r.rounds {
        eat(u64::from(rec.accuracy.to_bits()));
        for n in [
            rec.malicious_selected,
            rec.malicious_passed,
            usize::from(rec.selection_available),
            rec.delivered,
            rec.stale,
            rec.dropped,
            rec.straggling,
            rec.quarantined,
            rec.stale_quarantined,
            rec.offline,
            rec.diverged,
            rec.silent,
            usize::from(rec.skipped),
        ] {
            eat(n as u64);
        }
    }
    for w in &r.final_model {
        eat(u64::from(w.to_bits()));
    }
    h
}

#[test]
fn transcripts_match_their_pinned_digests() {
    // Bitwise pins of six small runs, one value on every CPU backend: a
    // moved digest means a seed-stream id, a defense, the round path or a
    // kernel's rounding changed what the simulator computes.
    let tiny = |attack: AttackSpec, defense: DefenseKind| {
        FlConfig::builder(TaskKind::Fashion)
            .n_clients(12)
            .clients_per_round(8)
            .rounds(3)
            .train_size(96)
            .test_size(40)
            .batch(8)
            .synth_set_size(4)
            .attack(attack)
            .defense(defense)
            .seed(17)
    };
    // mKrum under LIE with every transport fault, so the `FAULTS` stream
    // schedules dropouts, stale stragglers and malformed payloads.
    let faulty = tiny(AttackSpec::Lie, DefenseKind::MKrum { f: 2 })
        .faults(FaultPlan {
            dropout: 0.15,
            straggler: 0.15,
            malformed: 0.2,
            straggler_policy: StragglerPolicy::Stale {
                discount_milli: 500,
            },
        })
        .build();
    let total_of =
        |r: &RunResult, f: fn(&RoundRecord) -> usize| r.rounds.iter().map(f).sum::<usize>();
    let r = simulate(&faulty).unwrap();
    let total = |f: fn(&RoundRecord) -> usize| total_of(&r, f);
    assert!(total(|x| x.dropped) > 0, "no dropout exercised");
    assert!(total(|x| x.stale) > 0, "no stale delivery exercised");
    assert!(
        total(|x| x.quarantined) > 0,
        "no malformed payload exercised"
    );
    assert_eq!(
        transcript_digest(&r),
        11_957_660_298_366_345_886,
        "mKrum/LIE faulty transcript moved"
    );
    // FoolsGold against identical random-weight copies perturbed by
    // Sec. III-A's Sybil noise.
    let sybil = tiny(AttackSpec::RandomWeights, DefenseKind::FoolsGold)
        .sybil_noise(0.02)
        .build();
    let r = simulate(&sybil).unwrap();
    assert_eq!(
        transcript_digest(&r),
        13_451_313_149_285_140_286,
        "FoolsGold/Sybil-noise transcript moved"
    );
    // The oracle-free ZKA variants, which `ClientFleet::stage_round`
    // crafts in the same dispatch as benign training.
    let zka_r = tiny(
        AttackSpec::ZkaR {
            cfg: fabflip::ZkaConfig::fast(),
        },
        DefenseKind::MKrum { f: 2 },
    )
    .build();
    let r = simulate(&zka_r).unwrap();
    assert!(
        total_of(&r, |x| x.malicious_selected) > 0,
        "ZKA-R never selected"
    );
    assert_eq!(
        transcript_digest(&r),
        9_324_120_584_643_913_042,
        "mKrum/ZKA-R transcript moved"
    );
    let zka_g = tiny(
        AttackSpec::ZkaG {
            cfg: fabflip::ZkaConfig::fast(),
        },
        DefenseKind::Median,
    )
    .build();
    let r = simulate(&zka_g).unwrap();
    assert!(
        total_of(&r, |x| x.malicious_selected) > 0,
        "ZKA-G never selected"
    );
    assert_eq!(
        transcript_digest(&r),
        18_245_075_373_152_991_836,
        "Median/ZKA-G transcript moved"
    );
    // ZKA-R whose adversarial training takes two steps per round (16
    // synthetic images, batch 8), so the Eq. 3 hinge can fire: once in
    // this run, the second step's deviation outgrows last round's global
    // step and the distance gradient is scaled by 1/‖w − w(t)‖. With one
    // step per round (the pins above) the check only ever sees w = w(t).
    let hinge = tiny(
        AttackSpec::ZkaR {
            cfg: fabflip::ZkaConfig::fast(),
        },
        DefenseKind::FedAvg,
    )
    .synth_set_size(16)
    .build();
    let r = simulate(&hinge).unwrap();
    assert_eq!(
        transcript_digest(&r),
        12_542_220_523_263_900_730,
        "FedAvg/ZKA-R hinge transcript moved"
    );
    // Cifar: the eight-parameter-layer model and its three local epochs,
    // under LIE against TRmean.
    let cifar = FlConfig::builder(TaskKind::Cifar)
        .n_clients(6)
        .clients_per_round(4)
        .rounds(2)
        .train_size(48)
        .test_size(16)
        .batch(8)
        .synth_set_size(4)
        .attack(AttackSpec::Lie)
        .defense(DefenseKind::TrMean { trim: 1 })
        .seed(17)
        .build();
    assert_eq!(cifar.local_epochs, 3);
    let r = simulate(&cifar).unwrap();
    assert!(
        total_of(&r, |x| x.malicious_selected) > 0,
        "LIE never selected"
    );
    assert_eq!(
        transcript_digest(&r),
        18_027_929_739_142_783_990,
        "Cifar TRmean/LIE transcript moved"
    );
}
