//! Deterministic fault injection for the FL transport layer (DESIGN.md
//! §4d).
//!
//! A [`FaultPlan`] describes the *rates* of three client-side transport
//! faults — dropout, stragglers and malformed payloads — and resolves, for
//! any `(seed, round, client)` triple, which fault (if any) strikes that
//! client in that round. The resolution is a **pure function** of the
//! triple via the same SplitMix-style [`sub_seed`] mixing every other
//! random stream in the simulator uses (stream 11), so fault schedules
//! are bitwise deterministic, thread-count invariant, and — crucially for
//! checkpoint/resume — recomputable from the config alone: a resumed run
//! re-derives exactly the faults the interrupted run would have drawn.
//!
//! The plan only *labels* clients; applying the fault (withholding,
//! delaying or corrupting the payload) and degrading gracefully on the
//! server side is the simulator's job (`sim.rs`).

use serde::{Deserialize, Serialize};

/// The seed-stream registry: every independent random stream derived
/// from the master seed via [`sub_seed`] is named here, and **only**
/// here (DESIGN.md §4d). fabcheck's `seed-stream-registry` rule rejects
/// `sub_seed` call sites whose stream argument is a bare literal or a
/// constant declared anywhere else, and rejects two constants in this
/// module sharing an id — so a stream collision (two "independent" RNGs
/// drawing correlated values) is a compile-adjacent error, not a silent
/// statistics bug.
pub mod streams {
    /// Training-set synthesis (`Dataset::synthesize_split`, train half).
    pub const TRAIN_DATA: u64 = 1;
    /// Held-out test-set synthesis (same task spec, independent draw).
    pub const TEST_DATA: u64 = 2;
    /// Dirichlet non-IID shard assignment over the training set.
    pub const PARTITION: u64 = 3;
    /// Uniform choice of the adversary-controlled client subset.
    pub const MALICIOUS_SET: u64 = 4;
    /// Global model parameter initialisation.
    pub const MODEL_INIT: u64 = 5;
    /// Per-round client-sampling shuffle.
    pub const CLIENT_SAMPLING: u64 = 6;
    /// Per-(round, client) benign local-training RNG.
    pub const CLIENT_TRAIN: u64 = 7;
    /// Per-round adversarial update crafting.
    pub const ATTACK: u64 = 8;
    // Ids 9 and 10 are retired: never reuse them, and keep `FAULTS` at 11,
    // or every recorded fault schedule and transcript moves.
    /// Transport fault plan: dropout/straggler/malformed resolution and
    /// payload corruption (shared by [`super::FaultPlan::fault_for`] and
    /// `sim.rs`, which must draw the *same* word per (round, client)).
    pub const FAULTS: u64 = 11;
}

/// SplitMix-style mixing for independent deterministic sub-streams of one
/// master seed. Every RNG in the simulator is seeded through this
/// function; it lives here (rather than `sim.rs`) so the fault plan and
/// the simulator provably share one derivation scheme.
pub(crate) fn sub_seed(master: u64, stream: u64, a: u64, b: u64) -> u64 {
    let mut x = master
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ a.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ b.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What happens to an update that misses the round deadline.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StragglerPolicy {
    /// The server ignores late updates entirely.
    #[default]
    Drop,
    /// The update is delivered *next* round with its aggregation weight
    /// multiplied by `discount_milli / 1000` (staleness discount).
    /// Milli-units keep the policy `Eq`-able for result caching, like
    /// `DefenseKind::NormBound`.
    Stale {
        /// Staleness discount in milli-units (500 = weight halved).
        discount_milli: u32,
    },
}

impl StragglerPolicy {
    /// The multiplicative weight discount applied to stale deliveries
    /// (1.0 under [`StragglerPolicy::Drop`], where nothing is delivered).
    pub fn discount(&self) -> f32 {
        match self {
            StragglerPolicy::Drop => 1.0,
            StragglerPolicy::Stale { discount_milli } => *discount_milli as f32 / 1000.0,
        }
    }
}

/// How a malformed payload is corrupted in transit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MalformedKind {
    /// NaN and ∞ planted at salt-chosen coordinates.
    NonFinite,
    /// Vector truncated to half its length.
    Truncated,
    /// Vector padded past its expected length.
    Overlong,
    /// Every coordinate zeroed (a dead buffer).
    Zeroed,
}

/// The fault assigned to one `(round, client)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientFault {
    /// The update is never submitted.
    Dropout,
    /// The update misses the deadline; see [`StragglerPolicy`].
    Straggler,
    /// The payload arrives corrupted.
    Malformed(MalformedKind),
}

fn is_zero_f32(v: &f32) -> bool {
    *v == 0.0
}

fn is_drop(p: &StragglerPolicy) -> bool {
    *p == StragglerPolicy::Drop
}

/// Deterministic transport-fault rates for one experiment. The default
/// plan (all rates zero) is inactive: the simulator takes the exact
/// fault-free code path and configs serialize without any fault fields,
/// so result-cache keys of existing experiments are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Per-client per-round probability of dropout.
    #[serde(default, skip_serializing_if = "is_zero_f32")]
    pub dropout: f32,
    /// Per-client per-round probability of straggling.
    #[serde(default, skip_serializing_if = "is_zero_f32")]
    pub straggler: f32,
    /// Per-client per-round probability of a malformed payload.
    #[serde(default, skip_serializing_if = "is_zero_f32")]
    pub malformed: f32,
    /// What happens to straggling updates.
    #[serde(default, skip_serializing_if = "is_drop")]
    pub straggler_policy: StragglerPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            dropout: 0.0,
            straggler: 0.0,
            malformed: 0.0,
            straggler_policy: StragglerPolicy::Drop,
        }
    }
}

impl FaultPlan {
    /// A plan injecting only dropout.
    pub fn dropout_only(rate: f32) -> FaultPlan {
        FaultPlan {
            dropout: rate,
            ..FaultPlan::default()
        }
    }

    /// Whether any fault can ever fire. Inactive plans make the simulator
    /// take the exact fault-free code path of a plan-less config.
    pub fn is_active(&self) -> bool {
        self.dropout > 0.0 || self.straggler > 0.0 || self.malformed > 0.0
    }

    /// Serde helper: `true` for the all-zero plan (skipped when
    /// serializing so cache keys stay stable).
    pub fn is_inactive(plan: &FaultPlan) -> bool {
        !plan.is_active()
    }

    /// Validates the rates.
    ///
    /// # Errors
    ///
    /// Returns a message describing the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        for (name, r) in [
            ("dropout", self.dropout),
            ("straggler", self.straggler),
            ("malformed", self.malformed),
        ] {
            if !(0.0..=1.0).contains(&r) {
                return Err(format!("fault rate `{name}` {r} must be in [0, 1]"));
            }
        }
        let total = self.dropout as f64 + self.straggler as f64 + self.malformed as f64;
        if total > 1.0 {
            return Err(format!("fault rates sum to {total} > 1"));
        }
        if let StragglerPolicy::Stale { discount_milli } = self.straggler_policy {
            if discount_milli > 1000 {
                return Err("staleness discount must be <= 1000 milli".into());
            }
        }
        Ok(())
    }

    /// Resolves the fault striking `client` in `round`, or `None`. A pure
    /// function of `(seed, round, client)`: one mixed word supplies both
    /// the uniform variate (top 53 bits) deciding the mutually exclusive
    /// fault bands `[0, dropout) → [.., +straggler) → [.., +malformed)`
    /// and the malformed sub-kind (bottom 2 bits).
    pub fn fault_for(&self, seed: u64, round: u64, client: u64) -> Option<ClientFault> {
        if !self.is_active() {
            return None;
        }
        let x = sub_seed(seed, streams::FAULTS, round, client);
        let u = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let mut edge = self.dropout as f64;
        if u < edge {
            return Some(ClientFault::Dropout);
        }
        edge += self.straggler as f64;
        if u < edge {
            return Some(ClientFault::Straggler);
        }
        edge += self.malformed as f64;
        if u < edge {
            let kind = match x & 3 {
                0 => MalformedKind::NonFinite,
                1 => MalformedKind::Truncated,
                2 => MalformedKind::Overlong,
                _ => MalformedKind::Zeroed,
            };
            return Some(ClientFault::Malformed(kind));
        }
        None
    }
}

/// Applies a malformed-payload corruption in place. `salt` picks the
/// poisoned coordinates (pass the client's fault word so corruption is as
/// deterministic as the schedule).
pub fn corrupt_payload(kind: MalformedKind, payload: &mut Vec<f32>, salt: u64) {
    if payload.is_empty() {
        return;
    }
    match kind {
        MalformedKind::NonFinite => {
            let n = payload.len();
            payload[salt as usize % n] = f32::NAN;
            payload[(salt >> 17) as usize % n] = f32::INFINITY;
        }
        MalformedKind::Truncated => {
            let n = payload.len();
            payload.truncate(n / 2);
        }
        MalformedKind::Overlong => {
            let n = payload.len();
            payload.resize(n + n / 4 + 1, 0.0);
        }
        MalformedKind::Zeroed => payload.fill(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan {
            dropout: 0.2,
            straggler: 0.1,
            malformed: 0.1,
            straggler_policy: StragglerPolicy::Stale {
                discount_milli: 500,
            },
        }
    }

    #[test]
    fn inactive_plan_never_faults() {
        let p = FaultPlan::default();
        assert!(!p.is_active());
        for c in 0..100 {
            assert_eq!(p.fault_for(7, 3, c), None);
        }
    }

    #[test]
    fn rates_are_approximately_respected() {
        let p = plan();
        let mut counts = [0usize; 4]; // none, dropout, straggler, malformed
        let n = 20_000u64;
        for c in 0..n {
            match p.fault_for(42, 0, c) {
                None => counts[0] += 1,
                Some(ClientFault::Dropout) => counts[1] += 1,
                Some(ClientFault::Straggler) => counts[2] += 1,
                Some(ClientFault::Malformed(_)) => counts[3] += 1,
            }
        }
        let frac = |k: usize| counts[k] as f64 / n as f64;
        assert!((frac(1) - 0.2).abs() < 0.02, "dropout {}", frac(1));
        assert!((frac(2) - 0.1).abs() < 0.02, "straggler {}", frac(2));
        assert!((frac(3) - 0.1).abs() < 0.02, "malformed {}", frac(3));
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_triple() {
        let p = plan();
        for round in 0..8 {
            for client in 0..64 {
                let a = p.fault_for(9, round, client);
                let b = p.fault_for(9, round, client);
                assert_eq!(a, b);
            }
        }
        // Different seeds give different schedules somewhere.
        let diff = (0..64).any(|c| p.fault_for(1, 0, c) != p.fault_for(2, 0, c));
        assert!(diff);
    }

    #[test]
    fn validation_rejects_bad_rates() {
        let mut p = plan();
        p.dropout = 1.5;
        assert!(p.validate().is_err());
        let mut p = plan();
        p.dropout = 0.6;
        p.straggler = 0.6;
        assert!(p.validate().is_err(), "rates summing past 1 are rejected");
        let mut p = plan();
        p.straggler_policy = StragglerPolicy::Stale {
            discount_milli: 2000,
        };
        assert!(p.validate().is_err());
        assert!(plan().validate().is_ok());
        assert!(FaultPlan::default().validate().is_ok());
    }

    #[test]
    fn corruption_kinds_do_what_they_say() {
        let base = vec![1.0f32; 8];
        let mut p = base.clone();
        corrupt_payload(MalformedKind::NonFinite, &mut p, 0xABCD);
        assert!(p.iter().any(|v| !v.is_finite()));
        assert_eq!(p.len(), 8);

        let mut p = base.clone();
        corrupt_payload(MalformedKind::Truncated, &mut p, 0);
        assert_eq!(p.len(), 4);

        let mut p = base.clone();
        corrupt_payload(MalformedKind::Overlong, &mut p, 0);
        assert!(p.len() > 8);

        let mut p = base.clone();
        corrupt_payload(MalformedKind::Zeroed, &mut p, 0);
        assert!(p.iter().all(|&v| v == 0.0));

        let mut empty: Vec<f32> = Vec::new();
        corrupt_payload(MalformedKind::NonFinite, &mut empty, 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn plan_serde_roundtrip_and_inactive_skips_fields() {
        let p = plan();
        let s = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&s).unwrap();
        assert_eq!(p, back);
        // The inactive default serializes to an empty object, keeping
        // result-cache keys of fault-free configs stable.
        let s = serde_json::to_string(&FaultPlan::default()).unwrap();
        assert_eq!(s, "{}");
        let back: FaultPlan = serde_json::from_str("{}").unwrap();
        assert_eq!(back, FaultPlan::default());
    }

    #[test]
    fn discount_helper() {
        assert_eq!(StragglerPolicy::Drop.discount(), 1.0);
        assert_eq!(
            StragglerPolicy::Stale {
                discount_milli: 250
            }
            .discount(),
            0.25
        );
    }
}
