//! Sharded streaming aggregation: fold updates into bounded server state
//! as they arrive, instead of materializing the whole cohort (DESIGN.md
//! §4e).
//!
//! Two state families cover the rules that admit a streaming form:
//!
//! * **Mean family** ([`DefenseKind::FedAvg`], [`DefenseKind::NormBound`])
//!   — each update is folded into one of `shards` running weighted sums;
//!   [`StreamingAggregator::finalize`] merges the shard sums in shard
//!   index order and scales once by the reciprocal total weight. Resident
//!   state is O(shards · d), independent of the cohort size n.
//! * **Rank family** ([`DefenseKind::TrMean`], [`DefenseKind::Median`]) —
//!   per-coordinate order statistics need actual values, so updates land
//!   in a bounded reservoir of capacity `reservoir` (Vitter's Algorithm R
//!   with a deterministic splitmix64 coin). For cohorts up to the
//!   capacity the reservoir holds every update in arrival order and
//!   `finalize` is **bitwise identical** to the batch rule; beyond it the
//!   statistic is computed over a uniform sample — the documented
//!   degradation. Resident state is O(reservoir · d).
//!
//! Determinism: every admission decision is a pure function of
//! `(seed, arrival index)`, and `finalize` touches state in fixed (shard,
//! then coordinate) order, so a given push sequence always produces the
//! same aggregate, bit for bit, regardless of thread count or timing —
//! the streaming fold itself is single-threaded per aggregator.
//!
//! The mean-family fold uses a different float-op order than the batch
//! [`crate::FedAvg`] (per-shard `Σ w·x` then one scale, vs per-update
//! `Σ (w/W)·x`), so streaming results agree with batch only to rounding —
//! callers opt into the streaming path explicitly.
//!
//! Input validation (dimension, finiteness) is the transport layer's job:
//! callers quarantine malformed payloads (the `fl` crate's
//! `round::server_accepts`) before they reach
//! [`StreamingAggregator::ingest`], which only `debug_assert`s.

use crate::{AggError, Aggregation, DefenseKind, Selection};
use fabflip_tensor::vecops;

/// Sizing and seeding for a [`StreamingAggregator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingConfig {
    /// Number of partial-sum shards for the mean family (≥ 1). More
    /// shards trade memory for merge-tree parallel headroom; the fold
    /// itself stays deterministic at any value.
    pub shards: usize,
    /// Reservoir capacity for the rank family (≥ 1). Cohorts up to this
    /// size aggregate bitwise-identically to the batch rule.
    pub reservoir: usize,
    /// Seed for the deterministic reservoir admission coin.
    pub seed: u64,
}

impl Default for StreamingConfig {
    fn default() -> StreamingConfig {
        StreamingConfig {
            shards: 8,
            reservoir: 4096,
            seed: 0x5EED_5EED,
        }
    }
}

/// Deterministic admission coin: splitmix64 of the seed-offset arrival
/// index. Pure in `(seed, t)`, so replaying a push sequence — on any
/// thread, after any crash/resume — reproduces every reservoir decision.
fn admission_coin(seed: u64, t: u64) -> u64 {
    let mut z = seed
        .wrapping_add(t.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug)]
enum State {
    /// Running weighted sums: `sums[s]` is the d-vector `Σ w·x` of shard
    /// `s`, `weights[s]` its `Σ w`.
    Mean {
        sums: Vec<Vec<f32>>,
        weights: Vec<f32>,
        /// `Some` for NormBound: the per-update delta budget.
        max_norm: Option<f32>,
    },
    /// Bounded uniform sample of raw updates (arrival order while not
    /// full).
    Reservoir { slots: Vec<Vec<f32>>, cap: usize },
}

/// One-pass, bounded-memory aggregation server state. Feed updates with
/// [`push`](StreamingAggregator::push), close the round with
/// [`finalize`](StreamingAggregator::finalize).
#[derive(Debug)]
pub struct StreamingAggregator {
    kind: DefenseKind,
    d: usize,
    seed: u64,
    count: usize,
    reference: Option<Vec<f32>>,
    state: State,
}

impl StreamingAggregator {
    /// Whether `kind` has a streaming form. The quadratic selection rules
    /// (Krum/mKrum/Bulyan/FoolsGold) need pairwise geometry and cannot
    /// stream; they take the blocked O(B·n)-resident kernels instead.
    pub fn supports(kind: DefenseKind) -> bool {
        matches!(
            kind,
            DefenseKind::FedAvg
                | DefenseKind::NormBound { .. }
                | DefenseKind::TrMean { .. }
                | DefenseKind::Median
        )
    }

    /// Creates streaming state for one round of `kind` over `d`-dimension
    /// updates. `reference` is the current global model `w(t)`, required
    /// by NormBound (it clips deltas against it) and ignored by the rest.
    ///
    /// # Errors
    ///
    /// [`AggError::InvalidParameter`] when the rule has no streaming form,
    /// `d == 0`, a config size is zero, or NormBound's reference has the
    /// wrong length.
    pub fn new(
        kind: DefenseKind,
        d: usize,
        cfg: StreamingConfig,
        reference: Option<Vec<f32>>,
    ) -> Result<StreamingAggregator, AggError> {
        if d == 0 {
            return Err(AggError::InvalidParameter(
                "streaming aggregator needs d >= 1".into(),
            ));
        }
        if cfg.shards == 0 || cfg.reservoir == 0 {
            return Err(AggError::InvalidParameter(
                "streaming shards and reservoir must be >= 1".into(),
            ));
        }
        if let Some(r) = &reference {
            if r.len() != d {
                return Err(AggError::LengthMismatch {
                    expected: d,
                    actual: r.len(),
                });
            }
        }
        let state = match kind {
            DefenseKind::FedAvg => State::Mean {
                sums: vec![vec![0.0; d]; cfg.shards],
                weights: vec![0.0; cfg.shards],
                max_norm: None,
            },
            DefenseKind::NormBound { max_norm_milli } => {
                if max_norm_milli == 0 {
                    return Err(AggError::InvalidParameter(
                        "norm bound must be positive".into(),
                    ));
                }
                State::Mean {
                    sums: vec![vec![0.0; d]; cfg.shards],
                    weights: vec![0.0; cfg.shards],
                    max_norm: Some(max_norm_milli as f32 / 1000.0),
                }
            }
            DefenseKind::TrMean { .. } | DefenseKind::Median => State::Reservoir {
                slots: Vec::new(),
                cap: cfg.reservoir,
            },
            other => {
                return Err(AggError::InvalidParameter(format!(
                    "{} has no streaming form",
                    other.label()
                )));
            }
        };
        Ok(StreamingAggregator {
            kind,
            d,
            seed: cfg.seed,
            count: 0,
            reference,
            state,
        })
    }

    /// The rule this aggregator streams for.
    pub fn kind(&self) -> DefenseKind {
        self.kind
    }

    /// Updates folded in so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Bytes of f32 aggregation state currently resident — the quantity
    /// the n-sweep benchmark reports. O(shards·d) or O(reservoir·d);
    /// never a function of the cohort size.
    pub fn resident_bytes(&self) -> usize {
        let f = std::mem::size_of::<f32>();
        match &self.state {
            State::Mean { sums, weights, .. } => (sums.len() * self.d + weights.len()) * f,
            State::Reservoir { slots, .. } => slots.len() * self.d * f,
        }
    }

    /// Folds one validated update into the round. `update` must be
    /// `d`-dimensional and all-finite (the transport layer quarantines
    /// everything else before this point); `weight` is the client's
    /// sample count and must be positive for weighted rules.
    pub fn ingest(&mut self, update: &[f32], weight: f32) {
        debug_assert_eq!(update.len(), self.d, "streaming ingest: wrong dimension");
        debug_assert!(
            update.iter().all(|x| x.is_finite()),
            "streaming ingest: non-finite payload reached the aggregator"
        );
        let t = self.count;
        self.count += 1;
        match &mut self.state {
            State::Mean {
                sums,
                weights,
                max_norm,
            } => {
                let shard = t % sums.len();
                let reference = self.reference.as_deref();
                // NormBound: rescale the delta `x − w(t)` to at most the
                // budget. The clipped value `r + s·(x − r)` matches the
                // batch rule's `add(r, scale(sub(x, r), s))` bit for bit
                // (IEEE multiplication is commutative and the delta
                // kernels reproduce the materialized op order).
                let scale = match *max_norm {
                    Some(bound) => {
                        let norm = match reference {
                            Some(r) => vecops::l2_norm_delta(update, r),
                            None => vecops::l2_norm(update),
                        };
                        if norm > bound {
                            bound / norm
                        } else {
                            1.0
                        }
                    }
                    None => 1.0,
                };
                // `shard < len` by construction; `get_mut` keeps the
                // ingest path free of panicking indexing.
                let (Some(sum), Some(wsum)) = (sums.get_mut(shard), weights.get_mut(shard)) else {
                    return;
                };
                match (*max_norm, reference) {
                    (Some(_), Some(r)) => {
                        for ((m, &x), &rv) in sum.iter_mut().zip(update).zip(r) {
                            *m += weight * (rv + scale * (x - rv));
                        }
                    }
                    (Some(_), None) => {
                        for (m, &x) in sum.iter_mut().zip(update) {
                            *m += weight * (x * scale);
                        }
                    }
                    (None, _) => {
                        for (m, &x) in sum.iter_mut().zip(update) {
                            *m += weight * x;
                        }
                    }
                }
                *wsum += weight;
            }
            State::Reservoir { slots, cap } => {
                if slots.len() < *cap {
                    // fabcheck::allow(alloc_on_hot_path): reservoir warm-up
                    // is bounded by the configured capacity, never by the
                    // cohort size; a full reservoir only overwrites.
                    slots.push(update.to_vec());
                } else {
                    // Algorithm R: replace a uniform slot with probability
                    // cap/(t+1), decided by the deterministic coin.
                    let j = admission_coin(self.seed, t as u64) % (t as u64 + 1);
                    if let Some(slot) = slots.get_mut(j as usize) {
                        slot.copy_from_slice(update);
                    }
                }
            }
        }
    }

    /// Closes the round: merges shard state (mean family, fixed shard
    /// order) or evaluates the per-coordinate statistic over the
    /// reservoir (rank family).
    ///
    /// # Errors
    ///
    /// [`AggError::NoUpdates`] when nothing was pushed,
    /// [`AggError::InvalidParameter`] when the total weight is not
    /// positive, and [`AggError::TooFewUpdates`] when the reservoir holds
    /// too few updates for TRmean's trim.
    pub fn finalize(self) -> Result<Aggregation, AggError> {
        if self.count == 0 {
            return Err(AggError::NoUpdates);
        }
        match self.state {
            State::Mean { sums, weights, .. } => {
                let total: f32 = weights.iter().sum();
                // NaN-aware: a NaN total must also refuse to finalize.
                if total.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    return Err(AggError::InvalidParameter(
                        "total client weight is zero".into(),
                    ));
                }
                let mut model = vec![0.0f32; self.d];
                for sum in &sums {
                    for (m, &v) in model.iter_mut().zip(sum) {
                        *m += v;
                    }
                }
                let inv = 1.0 / total;
                for m in model.iter_mut() {
                    *m *= inv;
                }
                let selection = match self.kind {
                    DefenseKind::FedAvg => Selection::Chosen((0..self.count).collect()),
                    _ => Selection::PerCoordinate,
                };
                Ok(Aggregation {
                    model,
                    selection,
                    rejected_non_finite: Vec::new(),
                    rejected_malformed: Vec::new(),
                })
            }
            State::Reservoir { slots, .. } => {
                let refs: Vec<&[f32]> = slots.iter().map(|s| s.as_slice()).collect();
                let n = refs.len();
                let model = match self.kind {
                    DefenseKind::TrMean { trim } => {
                        if n <= 2 * trim {
                            return Err(AggError::TooFewUpdates {
                                rule: "trimmed-mean",
                                needed: 2 * trim + 1,
                                got: n,
                            });
                        }
                        vecops::trimmed_mean(&refs, trim)
                    }
                    _ => vecops::median(&refs),
                };
                Ok(Aggregation {
                    model,
                    selection: Selection::PerCoordinate,
                    rejected_non_finite: Vec::new(),
                    rejected_malformed: Vec::new(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Defense, FedAvg, Median, NormBound, TrimmedMean};

    fn synth(n: usize, d: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|u| (0..d).map(|i| ((u * d + i) as f32 * 0.37).sin()).collect())
            .collect()
    }

    fn stream(
        kind: DefenseKind,
        cfg: StreamingConfig,
        ups: &[Vec<f32>],
        weights: &[f32],
        reference: Option<Vec<f32>>,
    ) -> Aggregation {
        let mut s = StreamingAggregator::new(kind, ups[0].len(), cfg, reference).unwrap();
        for (u, &w) in ups.iter().zip(weights) {
            s.ingest(u, w);
        }
        s.finalize().unwrap()
    }

    #[test]
    fn fedavg_stream_matches_batch_to_rounding() {
        let ups = synth(37, 11);
        let weights: Vec<f32> = (0..37).map(|i| 1.0 + (i % 5) as f32).collect();
        let batch = FedAvg::new().aggregate(&ups, &weights).unwrap();
        for shards in [1usize, 3, 8] {
            let cfg = StreamingConfig {
                shards,
                ..StreamingConfig::default()
            };
            let agg = stream(DefenseKind::FedAvg, cfg, &ups, &weights, None);
            for (a, b) in agg.model.iter().zip(&batch.model) {
                assert!((a - b).abs() <= 1e-5 * b.abs().max(1.0), "{a} vs {b}");
            }
            assert_eq!(agg.selection, Selection::Chosen((0..37).collect()));
        }
    }

    #[test]
    fn stream_is_bitwise_deterministic_across_replays() {
        let ups = synth(64, 7);
        let weights = vec![1.0f32; 64];
        for kind in [
            DefenseKind::FedAvg,
            DefenseKind::TrMean { trim: 3 },
            DefenseKind::Median,
        ] {
            let cfg = StreamingConfig {
                reservoir: 16, // force replacements for the rank family
                ..StreamingConfig::default()
            };
            let a = stream(kind, cfg, &ups, &weights, None);
            let b = stream(kind, cfg, &ups, &weights, None);
            for (x, y) in a.model.iter().zip(&b.model) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn rank_family_is_bitwise_batch_below_reservoir_capacity() {
        let ups = synth(41, 9);
        let weights = vec![1.0f32; 41];
        let cfg = StreamingConfig {
            reservoir: 41,
            ..StreamingConfig::default()
        };
        let med_stream = stream(DefenseKind::Median, cfg, &ups, &weights, None);
        let med_batch = Median::new().aggregate(&ups, &weights).unwrap();
        let tr_stream = stream(DefenseKind::TrMean { trim: 4 }, cfg, &ups, &weights, None);
        let tr_batch = TrimmedMean::new(4).aggregate(&ups, &weights).unwrap();
        for (s, b) in med_stream
            .model
            .iter()
            .zip(&med_batch.model)
            .chain(tr_stream.model.iter().zip(&tr_batch.model))
        {
            assert_eq!(s.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn over_capacity_reservoir_stays_in_value_range() {
        // 500 arrivals into 32 slots: the sampled median must stay inside
        // the data range and be reproducible.
        let ups = synth(500, 5);
        let weights = vec![1.0f32; 500];
        let cfg = StreamingConfig {
            reservoir: 32,
            ..StreamingConfig::default()
        };
        let agg = stream(DefenseKind::Median, cfg, &ups, &weights, None);
        for &m in &agg.model {
            assert!((-1.0..=1.0).contains(&m));
        }
        let again = stream(DefenseKind::Median, cfg, &ups, &weights, None);
        assert_eq!(agg.model, again.model);
    }

    #[test]
    fn normbound_stream_matches_batch_to_rounding() {
        let global = vec![0.5f32; 6];
        let mut ups = synth(20, 6);
        ups.push(vec![100.0; 6]); // clipped
        let weights = vec![1.0f32; 21];
        let nb = NormBound::new(1.5);
        let batch = nb
            .aggregate_with_reference(&ups, &weights, Some(&global))
            .unwrap();
        let cfg = StreamingConfig::default();
        let agg = stream(
            DefenseKind::NormBound {
                max_norm_milli: 1500,
            },
            cfg,
            &ups,
            &weights,
            Some(global),
        );
        for (a, b) in agg.model.iter().zip(&batch.model) {
            assert!((a - b).abs() <= 1e-5 * b.abs().max(1.0), "{a} vs {b}");
        }
        assert_eq!(agg.selection, Selection::PerCoordinate);
    }

    #[test]
    fn resident_bytes_is_independent_of_cohort_size() {
        let cfg = StreamingConfig {
            shards: 4,
            reservoir: 8,
            seed: 1,
        };
        let mut s = StreamingAggregator::new(DefenseKind::FedAvg, 16, cfg, None).unwrap();
        let fixed = s.resident_bytes();
        assert_eq!(fixed, (4 * 16 + 4) * 4);
        let u = vec![0.25f32; 16];
        for _ in 0..1000 {
            s.ingest(&u, 1.0);
        }
        assert_eq!(s.resident_bytes(), fixed);
        let mut r = StreamingAggregator::new(DefenseKind::Median, 16, cfg, None).unwrap();
        for _ in 0..1000 {
            r.ingest(&u, 1.0);
        }
        assert_eq!(r.resident_bytes(), 8 * 16 * 4);
    }

    #[test]
    fn rejects_unsupported_and_degenerate_configs() {
        assert!(!StreamingAggregator::supports(DefenseKind::Krum { f: 1 }));
        assert!(!StreamingAggregator::supports(DefenseKind::Bulyan { f: 2 }));
        assert!(StreamingAggregator::supports(DefenseKind::Median));
        let cfg = StreamingConfig::default();
        assert!(StreamingAggregator::new(DefenseKind::Krum { f: 1 }, 4, cfg, None).is_err());
        assert!(StreamingAggregator::new(DefenseKind::FedAvg, 0, cfg, None).is_err());
        let zero = StreamingConfig {
            shards: 0,
            ..StreamingConfig::default()
        };
        assert!(StreamingAggregator::new(DefenseKind::FedAvg, 4, zero, None).is_err());
        let short_ref = Some(vec![0.0; 3]);
        assert!(StreamingAggregator::new(
            DefenseKind::NormBound {
                max_norm_milli: 1000
            },
            4,
            cfg,
            short_ref
        )
        .is_err());
        let empty = StreamingAggregator::new(DefenseKind::FedAvg, 4, cfg, None).unwrap();
        assert!(matches!(empty.finalize(), Err(AggError::NoUpdates)));
        let mut few =
            StreamingAggregator::new(DefenseKind::TrMean { trim: 2 }, 2, cfg, None).unwrap();
        few.ingest(&[1.0, 2.0], 1.0);
        assert!(matches!(
            few.finalize(),
            Err(AggError::TooFewUpdates { .. })
        ));
    }
}
