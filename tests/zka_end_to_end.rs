//! End-to-end behaviour of the zero-knowledge attacks: they must damage an
//! undefended federation and be markedly stealthier than naive weight
//! poisoning — the two properties the paper's design hinges on.

use fabflip::ZkaConfig;
use fabflip_agg::DefenseKind;
use fabflip_fl::{simulate, AttackSpec, FlConfig, TaskKind};

fn cfg(attack: AttackSpec, defense: DefenseKind) -> FlConfig {
    FlConfig::builder(TaskKind::Fashion)
        .n_clients(20)
        .clients_per_round(8)
        .rounds(8)
        .local_epochs(2)
        .train_size(500)
        .test_size(150)
        .synth_set_size(10)
        .attack(attack)
        .defense(defense)
        .seed(33)
        .build()
}

#[test]
fn zka_r_damages_undefended_training() {
    let clean = simulate(&cfg(AttackSpec::None, DefenseKind::FedAvg)).unwrap();
    let attacked = simulate(&cfg(
        AttackSpec::ZkaR {
            cfg: ZkaConfig::fast(),
        },
        DefenseKind::FedAvg,
    ))
    .unwrap();
    assert!(
        attacked.max_accuracy() < clean.max_accuracy(),
        "ZKA-R failed to reduce accuracy: {} vs clean {}",
        attacked.max_accuracy(),
        clean.max_accuracy()
    );
}

#[test]
fn zka_g_damages_undefended_training() {
    let clean = simulate(&cfg(AttackSpec::None, DefenseKind::FedAvg)).unwrap();
    let attacked = simulate(&cfg(
        AttackSpec::ZkaG {
            cfg: ZkaConfig::fast(),
        },
        DefenseKind::FedAvg,
    ))
    .unwrap();
    assert!(
        attacked.max_accuracy() < clean.max_accuracy(),
        "ZKA-G failed to reduce accuracy: {} vs clean {}",
        attacked.max_accuracy(),
        clean.max_accuracy()
    );
}

#[test]
fn zka_is_stealthier_than_random_weights_under_mkrum() {
    // The paper's motivation (Sec. IV-A): random weights almost never pass
    // the selection defenses, while the fabricated-data updates do.
    let mkrum = DefenseKind::MKrum { f: 2 };
    let random = simulate(&cfg(AttackSpec::RandomWeights, mkrum)).unwrap();
    let zka_g = simulate(&cfg(
        AttackSpec::ZkaG {
            cfg: ZkaConfig::fast(),
        },
        mkrum,
    ))
    .unwrap();
    let dpr_random = random.dpr().expect("selection defense");
    let dpr_zka = zka_g.dpr().expect("selection defense");
    assert!(
        dpr_zka > dpr_random,
        "ZKA-G ({dpr_zka}) must pass mKrum more often than random weights ({dpr_random})"
    );
}

#[test]
fn zka_targets_stay_fixed_within_a_run_and_updates_vary_across_rounds() {
    // Indirect check through determinism: two identical runs give identical
    // traces (the fixed Ỹ and fixed Z make the attack reproducible).
    let c = cfg(
        AttackSpec::ZkaG {
            cfg: ZkaConfig::fast(),
        },
        DefenseKind::Median,
    );
    let a = simulate(&c).unwrap();
    let b = simulate(&c).unwrap();
    assert_eq!(a, b);
}

#[test]
fn foolsgold_catches_identical_copies_and_noise_evades_it() {
    // Sec. III-A of the paper: Sybil defenses would flag the ZKA adversary
    // (all clients submit one crafted update) — unless small perturbation
    // noise is added, which is why the paper excludes them.
    let base = cfg(
        AttackSpec::ZkaG {
            cfg: ZkaConfig::fast(),
        },
        DefenseKind::FoolsGold,
    );
    let identical = simulate(&base).unwrap();
    let mut noisy_cfg = base.clone();
    noisy_cfg.sybil_noise = 0.02;
    let noisy = simulate(&noisy_cfg).unwrap();
    let dpr_identical = identical.dpr().expect("FoolsGold reports a selection");
    let dpr_noisy = noisy.dpr().expect("FoolsGold reports a selection");
    assert!(
        dpr_noisy > dpr_identical,
        "perturbation should raise DPR: identical {dpr_identical} vs noisy {dpr_noisy}"
    );
    assert!(
        dpr_identical < 0.5,
        "identical sybils should mostly be caught: {dpr_identical}"
    );
}
