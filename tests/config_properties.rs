//! Property tests on configuration plumbing: serde stability (the result
//! cache keys on serialized configs) and validation monotonicity.

use fabflip_agg::DefenseKind;
use fabflip_fl::{AttackSpec, FlConfig, TaskKind};
use proptest::prelude::*;

fn task_strategy() -> impl Strategy<Value = TaskKind> {
    prop_oneof![Just(TaskKind::Fashion), Just(TaskKind::Cifar)]
}

fn defense_strategy() -> impl Strategy<Value = DefenseKind> {
    prop_oneof![
        Just(DefenseKind::FedAvg),
        (1usize..3).prop_map(|f| DefenseKind::MKrum { f }),
        (1usize..3).prop_map(|trim| DefenseKind::TrMean { trim }),
        Just(DefenseKind::Median),
        // Bulyan needs f >= 2 (`BULYAN_MIN_F`); smaller f is rejected.
        (2usize..4).prop_map(|f| DefenseKind::Bulyan { f }),
        Just(DefenseKind::FoolsGold),
        (1u32..2000).prop_map(|m| DefenseKind::NormBound { max_norm_milli: m }),
    ]
}

fn attack_strategy() -> impl Strategy<Value = AttackSpec> {
    prop_oneof![
        Just(AttackSpec::None),
        Just(AttackSpec::Lie),
        Just(AttackSpec::Fang),
        Just(AttackSpec::MinMax),
        Just(AttackSpec::MinSum),
        Just(AttackSpec::RandomWeights),
        (0.0f32..2.0).prop_map(|lambda| AttackSpec::RealData { lambda }),
        Just(AttackSpec::ZkaR {
            cfg: fabflip::ZkaConfig::paper()
        }),
        Just(AttackSpec::ZkaG {
            cfg: fabflip::ZkaConfig::fast()
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn config_serde_roundtrip(
        task in task_strategy(),
        defense in defense_strategy(),
        attack in attack_strategy(),
        // Grid betas only: arbitrary f64s are not guaranteed bit-exact
        // through JSON, and every real experiment uses one of these.
        beta in prop_oneof![Just(0.1f64), Just(0.5), Just(0.9)],
        seed in 0u64..1000,
    ) {
        let cfg = FlConfig::builder(task)
            .defense(defense)
            .attack(attack)
            .beta(beta)
            .seed(seed)
            .build();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FlConfig = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(cfg, back);
    }

    #[test]
    fn serialization_is_deterministic(defense in defense_strategy(), attack in attack_strategy()) {
        // Cache keys rely on serialize(cfg) being a pure function.
        let cfg = FlConfig::builder(TaskKind::Fashion).defense(defense).attack(attack).build();
        let a = serde_json::to_string(&cfg).unwrap();
        let b = serde_json::to_string(&cfg).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn zero_sybil_noise_does_not_appear_in_serialization(seed in 0u64..100) {
        // Backwards-compatible cache keys: the default sybil_noise must be
        // invisible in JSON.
        let cfg = FlConfig::builder(TaskKind::Fashion).seed(seed).build();
        let json = serde_json::to_string(&cfg).unwrap();
        prop_assert!(!json.contains("sybil_noise"));
        let mut noisy = cfg.clone();
        noisy.sybil_noise = 0.5;
        let json = serde_json::to_string(&noisy).unwrap();
        prop_assert!(json.contains("sybil_noise"));
    }

    #[test]
    fn validate_accepts_all_built_configs(
        task in task_strategy(),
        defense in defense_strategy(),
        attack in attack_strategy(),
    ) {
        let cfg = FlConfig::builder(task).defense(defense).attack(attack).build();
        prop_assert!(cfg.validate().is_ok());
        prop_assert!(cfg.n_malicious() <= cfg.n_clients / 2);
    }
}
