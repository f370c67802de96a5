//! # fabflip-fl
//!
//! The federated-learning simulator and experiment runner of the `fabflip`
//! reproduction — the paper's evaluation harness (Sec. V):
//!
//! * [`FlConfig`] — the full experiment configuration (task, client
//!   population, sampling, defense, attack, heterogeneity `β`, seeds),
//! * [`simulate`] — one FL run: per round, sample `K` clients uniformly,
//!   train benign clients locally for one epoch, let the single adversary
//!   craft one malicious update submitted by every selected malicious
//!   client, aggregate under the configured defense, and evaluate,
//! * [`metrics`] — attack success rate (ASR, Eq. 4) and defense pass rate
//!   (DPR, Eq. 5),
//! * [`runner`] — repeated runs, the clean-run baseline `acc_natk`, and the
//!   cell summaries the bench harness turns into the paper's tables.
//!
//! # Examples
//!
//! ```no_run
//! use fabflip_fl::{AttackSpec, FlConfig, TaskKind, simulate};
//! use fabflip_agg::DefenseKind;
//!
//! let cfg = FlConfig::builder(TaskKind::Fashion)
//!     .rounds(10)
//!     .defense(DefenseKind::MKrum { f: 2 })
//!     .attack(AttackSpec::ZkaG { cfg: fabflip::ZkaConfig::fast() })
//!     .seed(1)
//!     .build();
//! let result = simulate(&cfg)?;
//! println!("max accuracy: {}", result.max_accuracy());
//! # Ok::<(), fabflip_fl::FlError>(())
//! ```

mod attack_spec;
pub mod checkpoint;
mod config;
mod error;
pub mod faults;
pub mod metrics;
pub mod round;
pub mod runner;
mod sim;

pub use attack_spec::AttackSpec;
pub use checkpoint::CheckpointSpec;
pub use config::{FlConfig, FlConfigBuilder, TaskKind};
pub use error::FlError;
pub use fabflip_tensor::quant::Codec;
pub use faults::{FaultPlan, StragglerPolicy};
pub use metrics::{RoundRecord, RunResult};
pub use round::{ClientFleet, RoundInput, ServerCore, StagedRound, StagedSubmission};
pub use sim::{simulate, simulate_observed, simulate_with};

/// Unique per-test scratch directory under the system temp dir (pid +
/// counter, no wall clock: fabcheck's determinism rules hold even in
/// tests we control).
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "fabflip-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).expect("test dir");
    d
}
