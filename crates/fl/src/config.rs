use crate::faults::FaultPlan;
use crate::AttackSpec;
use fabflip_agg::DefenseKind;
use fabflip_data::SynthSpec;
use fabflip_nn::{models, Sequential};
use fabflip_tensor::quant::Codec;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which of the paper's two image tasks to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// Fashion-MNIST stand-in: 28×28×1, 2-conv CNN.
    Fashion,
    /// CIFAR-10 stand-in: 32×32×3, 6-conv CNN.
    Cifar,
}

impl TaskKind {
    /// The procedural dataset specification for the task.
    pub fn spec(&self) -> SynthSpec {
        match self {
            TaskKind::Fashion => SynthSpec::fashion_like(),
            TaskKind::Cifar => SynthSpec::cifar_like(),
        }
    }

    /// Builds the task's classifier architecture.
    pub fn build_model<R: Rng + ?Sized>(&self, rng: &mut R) -> Sequential {
        match self {
            TaskKind::Fashion => models::fashion_cnn(rng),
            TaskKind::Cifar => models::cifar_cnn(rng),
        }
    }

    /// Default local learning rate (the deeper CIFAR net needs a smaller
    /// step, see the calibration notes in EXPERIMENTS.md).
    pub fn default_lr(&self) -> f32 {
        match self {
            TaskKind::Fashion => 0.08,
            TaskKind::Cifar => 0.05,
        }
    }

    /// Default local epochs. The paper trains one local epoch; on the
    /// reproduction's reduced data scale the deeper CIFAR net needs more
    /// local work per round to approach its accuracy ceiling within the
    /// rounds budget (calibration in EXPERIMENTS.md).
    pub fn default_local_epochs(&self) -> usize {
        match self {
            TaskKind::Fashion => 1,
            TaskKind::Cifar => 3,
        }
    }

    /// Default number of global rounds.
    pub fn default_rounds(&self) -> usize {
        match self {
            TaskKind::Fashion => 30,
            TaskKind::Cifar => 40,
        }
    }

    /// Display name matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            TaskKind::Fashion => "Fashion-MNIST",
            TaskKind::Cifar => "Cifar-10",
        }
    }
}

fn is_zero_f32(v: &f32) -> bool {
    *v == 0.0
}

/// Full configuration of one FL experiment (one cell of the paper's grid).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlConfig {
    /// The image task.
    pub task: TaskKind,
    /// Total number of clients `N` (paper: 100).
    pub n_clients: usize,
    /// Clients sampled uniformly per round `K` (paper: 10).
    pub clients_per_round: usize,
    /// Fraction of clients controlled by the adversary (paper: 0.2).
    pub malicious_fraction: f64,
    /// Global training rounds `R`.
    pub rounds: usize,
    /// Local epochs per selected client (paper: 1).
    pub local_epochs: usize,
    /// Uniform local learning rate `η`.
    pub lr: f32,
    /// Local mini-batch size.
    pub batch: usize,
    /// Total training images (the paper uses 10% of the full datasets).
    pub train_size: usize,
    /// Held-out test images for global evaluation.
    pub test_size: usize,
    /// Dirichlet heterogeneity `β` (paper default 0.5; Table III sweeps
    /// 0.1 / 0.5 / 0.9).
    pub beta: f64,
    /// Synthetic-set size `|S|` for data-free attacks.
    pub synth_set_size: usize,
    /// Server-side aggregation rule.
    pub defense: DefenseKind,
    /// The adversary's strategy ([`AttackSpec::None`] for clean runs).
    pub attack: AttackSpec,
    /// Standard deviation of independent Gaussian noise each malicious
    /// client adds to its copy of the crafted update — the paper's
    /// Sec. III-A Sybil-defense circumvention trick. `0` (default) submits
    /// identical copies. Skipped in serialization when zero so result-cache
    /// keys stay stable.
    #[serde(default, skip_serializing_if = "is_zero_f32")]
    pub sybil_noise: f32,
    /// Deterministic transport-fault rates (DESIGN.md §4d). The default
    /// plan is inactive — no faults, and the field is skipped in
    /// serialization so result-cache keys of fault-free configs stay
    /// stable.
    #[serde(default, skip_serializing_if = "FaultPlan::is_inactive")]
    pub faults: FaultPlan,
    /// Client→server update encoding (DESIGN.md §4e). The default `F32`
    /// is lossless and adds zero code to the round path, so fault-free
    /// f32 transcripts stay bitwise identical to pre-quantization runs;
    /// `F16`/`I8` apply the deterministic encode→decode roundtrip to
    /// every staged payload before the server sees it. Skipped in
    /// serialization when `F32` for cache-key stability.
    #[serde(default, skip_serializing_if = "Codec::is_f32")]
    pub transport: Codec,
    /// Master seed: fixes the task prototypes, the partition, client
    /// sampling, model init, all attack randomness and the fault plan.
    pub seed: u64,
}

impl FlConfig {
    /// Starts a builder with the paper's defaults for `task`, scaled to the
    /// reproduction's CPU budget (see DESIGN.md §3).
    pub fn builder(task: TaskKind) -> FlConfigBuilder {
        FlConfigBuilder {
            cfg: FlConfig {
                task,
                n_clients: 100,
                clients_per_round: 10,
                malicious_fraction: 0.2,
                rounds: task.default_rounds(),
                local_epochs: task.default_local_epochs(),
                lr: task.default_lr(),
                batch: 16,
                train_size: 2000,
                test_size: if matches!(task, TaskKind::Fashion) {
                    400
                } else {
                    300
                },
                beta: 0.5,
                synth_set_size: 20,
                defense: DefenseKind::FedAvg,
                attack: AttackSpec::None,
                sybil_noise: 0.0,
                faults: FaultPlan::default(),
                transport: Codec::F32,
                seed: 0,
            },
        }
    }

    /// Number of malicious clients `⌊fraction · N⌋`.
    pub fn n_malicious(&self) -> usize {
        (self.malicious_fraction * self.n_clients as f64).floor() as usize
    }

    /// Validates cross-field constraints.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.rounds == 0 {
            return Err("rounds must be positive".into());
        }
        if self.clients_per_round == 0 || self.clients_per_round > self.n_clients {
            return Err(format!(
                "clients_per_round {} must be in 1..={}",
                self.clients_per_round, self.n_clients
            ));
        }
        if !(0.0..=0.5).contains(&self.malicious_fraction) {
            return Err("malicious fraction must be within [0, 0.5] (threat model)".into());
        }
        if self.train_size == 0 || self.test_size == 0 {
            return Err("train and test sizes must be positive".into());
        }
        if self.batch == 0 {
            return Err("batch must be positive".into());
        }
        // Written so NaN fails too. The Dirichlet sampler asserts a positive
        // `beta`, and an infinite one never leaves its Gamma rejection loop.
        if !(self.beta > 0.0 && self.beta.is_finite()) {
            return Err(format!("beta {} must be finite and positive", self.beta));
        }
        if !(self.sybil_noise >= 0.0 && self.sybil_noise.is_finite()) {
            return Err(format!(
                "sybil noise {} must be finite and non-negative",
                self.sybil_noise
            ));
        }
        // A defense that cannot be built (Bulyan with f < 2, a zero norm
        // bound) would fail or skip every round.
        self.defense.build().map_err(|e| e.to_string())?;
        self.faults.validate()?;
        Ok(())
    }
}

/// Builder for [`FlConfig`] (non-consuming setters, terminal [`FlConfigBuilder::build`]).
#[derive(Debug, Clone)]
pub struct FlConfigBuilder {
    cfg: FlConfig,
}

impl FlConfigBuilder {
    /// Sets the number of global rounds.
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.cfg.rounds = rounds;
        self
    }

    /// Sets the total client population.
    pub fn n_clients(mut self, n: usize) -> Self {
        self.cfg.n_clients = n;
        self
    }

    /// Sets the per-round sample size `K`.
    pub fn clients_per_round(mut self, k: usize) -> Self {
        self.cfg.clients_per_round = k;
        self
    }

    /// Sets the adversary's share of the population.
    pub fn malicious_fraction(mut self, f: f64) -> Self {
        self.cfg.malicious_fraction = f;
        self
    }

    /// Sets the local learning rate.
    pub fn lr(mut self, lr: f32) -> Self {
        self.cfg.lr = lr;
        self
    }

    /// Sets local epochs per round.
    pub fn local_epochs(mut self, e: usize) -> Self {
        self.cfg.local_epochs = e;
        self
    }

    /// Sets the local mini-batch size.
    pub fn batch(mut self, b: usize) -> Self {
        self.cfg.batch = b;
        self
    }

    /// Sets the training-set size.
    pub fn train_size(mut self, n: usize) -> Self {
        self.cfg.train_size = n;
        self
    }

    /// Sets the test-set size.
    pub fn test_size(mut self, n: usize) -> Self {
        self.cfg.test_size = n;
        self
    }

    /// Sets the Dirichlet heterogeneity `β`.
    pub fn beta(mut self, beta: f64) -> Self {
        self.cfg.beta = beta;
        self
    }

    /// Sets the synthetic-set size `|S|`.
    pub fn synth_set_size(mut self, s: usize) -> Self {
        self.cfg.synth_set_size = s;
        self
    }

    /// Sets the server-side defense.
    pub fn defense(mut self, d: DefenseKind) -> Self {
        self.cfg.defense = d;
        self
    }

    /// Sets the attack.
    pub fn attack(mut self, a: AttackSpec) -> Self {
        self.cfg.attack = a;
        self
    }

    /// Sets the per-copy Sybil perturbation noise (Sec. III-A).
    pub fn sybil_noise(mut self, std: f32) -> Self {
        self.cfg.sybil_noise = std;
        self
    }

    /// Sets the deterministic transport-fault plan (DESIGN.md §4d).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = plan;
        self
    }

    /// Sets the client→server update encoding (DESIGN.md §4e).
    pub fn transport(mut self, codec: Codec) -> Self {
        self.cfg.transport = codec;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration violates [`FlConfig::validate`] —
    /// builder misuse is a programming error.
    pub fn build(self) -> FlConfig {
        if let Err(msg) = self.cfg.validate() {
            panic!("invalid FlConfig: {msg}");
        }
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_paper_population() {
        let cfg = FlConfig::builder(TaskKind::Fashion).build();
        assert_eq!(cfg.n_clients, 100);
        assert_eq!(cfg.clients_per_round, 10);
        assert_eq!(cfg.n_malicious(), 20);
        assert_eq!(cfg.beta, 0.5);
        assert_eq!(cfg.local_epochs, 1);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = FlConfig::builder(TaskKind::Fashion).build();
        cfg.rounds = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = FlConfig::builder(TaskKind::Fashion).build();
        cfg.malicious_fraction = 0.7;
        assert!(
            cfg.validate().is_err(),
            "threat model caps attackers at 50%"
        );
        let mut cfg = FlConfig::builder(TaskKind::Fashion).build();
        cfg.clients_per_round = 1000;
        assert!(cfg.validate().is_err());
        for beta in [f64::NAN, f64::INFINITY, 0.0, -0.5] {
            let mut cfg = FlConfig::builder(TaskKind::Fashion).build();
            cfg.beta = beta;
            assert!(cfg.validate().is_err(), "beta {beta} accepted");
        }
        for noise in [f32::NAN, f32::INFINITY, -0.1] {
            let mut cfg = FlConfig::builder(TaskKind::Fashion).build();
            cfg.sybil_noise = noise;
            assert!(cfg.validate().is_err(), "sybil noise {noise} accepted");
        }
    }

    #[test]
    fn validation_rejects_bulyan_below_two() {
        for f in 0..2 {
            let mut cfg = FlConfig::builder(TaskKind::Fashion).build();
            cfg.defense = DefenseKind::Bulyan { f };
            let err = cfg
                .validate()
                .expect_err("Bulyan f < 2 can never aggregate");
            assert!(err.contains("Bulyan"), "{err}");
        }
        let mut cfg = FlConfig::builder(TaskKind::Fashion).build();
        cfg.defense = DefenseKind::Bulyan { f: 2 };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid FlConfig")]
    fn builder_panics_on_invalid() {
        let _ = FlConfig::builder(TaskKind::Fashion).rounds(0).build();
    }

    #[test]
    fn task_kind_geometry() {
        assert_eq!(TaskKind::Fashion.spec().channels, 1);
        assert_eq!(TaskKind::Cifar.spec().channels, 3);
        assert_eq!(TaskKind::Fashion.label(), "Fashion-MNIST");
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
        let mut m = TaskKind::Fashion.build_model(&mut rng);
        assert!(m.num_params() > 1000);
    }

    #[test]
    fn inactive_fault_plan_keeps_cache_keys_stable() {
        let cfg = FlConfig::builder(TaskKind::Fashion).build();
        let s = serde_json::to_string(&cfg).unwrap();
        assert!(
            !s.contains("faults"),
            "fault-free configs must serialize exactly as before the fault model: {s}"
        );
        let active = FlConfig::builder(TaskKind::Fashion)
            .faults(FaultPlan::dropout_only(0.2))
            .build();
        let s = serde_json::to_string(&active).unwrap();
        assert!(s.contains("faults"));
        let back: FlConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(active, back);
    }

    #[test]
    #[should_panic(expected = "invalid FlConfig")]
    fn builder_rejects_bad_fault_rates() {
        let _ = FlConfig::builder(TaskKind::Fashion)
            .faults(FaultPlan::dropout_only(1.5))
            .build();
    }

    #[test]
    fn f32_transport_keeps_cache_keys_stable() {
        let cfg = FlConfig::builder(TaskKind::Fashion).build();
        let s = serde_json::to_string(&cfg).unwrap();
        assert!(
            !s.contains("transport"),
            "f32 configs must serialize exactly as before quantized transport: {s}"
        );
        let quant = FlConfig::builder(TaskKind::Fashion)
            .transport(Codec::I8)
            .build();
        let s = serde_json::to_string(&quant).unwrap();
        assert!(s.contains("transport"));
        let back: FlConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(quant, back);
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = FlConfig::builder(TaskKind::Cifar)
            .defense(DefenseKind::Bulyan { f: 2 })
            .attack(AttackSpec::Lie)
            .build();
        let s = serde_json::to_string(&cfg).unwrap();
        let back: FlConfig = serde_json::from_str(&s).unwrap();
        assert_eq!(cfg, back);
    }
}
