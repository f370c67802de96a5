use crate::{
    bulyan, AggError, Bulyan, FedAvg, FoolsGold, Krum, Median, MultiKrum, NormBound, TrimmedMean,
};
use serde::{Deserialize, Serialize};

/// Which updates an aggregation rule included in the new global model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// Indices (into the submitted update list) of updates that were
    /// selected and averaged. DPR (paper Eq. 5) is computable.
    Chosen(Vec<usize>),
    /// The rule combined statistics of every update per coordinate (median,
    /// trimmed mean); no per-update selection exists and DPR is "NA".
    PerCoordinate,
}

/// The result of one aggregation round.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregation {
    /// The new global model (flat parameter vector).
    pub model: Vec<f32>,
    /// Which updates were included.
    pub selection: Selection,
    /// Indices of updates discarded up front for containing NaN/∞.
    pub rejected_non_finite: Vec<usize>,
    /// Indices of updates discarded up front for having the wrong length
    /// (truncated or padded payloads). Like the non-finite filter, a
    /// malformed update must never panic an aggregator or corrupt the
    /// model — it is rejected and reported.
    pub rejected_malformed: Vec<usize>,
}

/// A Byzantine-robust aggregation rule.
///
/// Implementations must be deterministic functions of their inputs: the
/// simulator relies on this for reproducible runs.
pub trait Defense: Send + Sync {
    /// Aggregates `updates` (flat parameter vectors, one per client) with
    /// per-client sample-count `weights` (used only by weighted rules;
    /// robust rules ignore them, as in the original papers).
    ///
    /// # Errors
    ///
    /// Returns [`AggError`] when no finite updates remain, lengths are
    /// inconsistent, or the rule's robustness precondition fails.
    fn aggregate(&self, updates: &[Vec<f32>], weights: &[f32]) -> Result<Aggregation, AggError>;

    /// Short rule name for reports, e.g. `"mKrum"`.
    fn name(&self) -> &'static str;

    /// Aggregates with an optional *reference model* (the current global
    /// model `w(t)`). Distance-based rules are shift-invariant and ignore
    /// it — the default delegates to [`Defense::aggregate`] — but
    /// similarity-based rules (FoolsGold) must measure update *deltas*
    /// `w_i − w(t)`, which are not shift-invariant.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Defense::aggregate`].
    fn aggregate_with_reference(
        &self,
        updates: &[Vec<f32>],
        weights: &[f32],
        _reference: Option<&[f32]>,
    ) -> Result<Aggregation, AggError> {
        self.aggregate(updates, weights)
    }
}

/// Serializable defense configuration — the experiment-grid axis of the
/// paper's evaluation. Build the actual rule with [`DefenseKind::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DefenseKind {
    /// Plain weighted averaging (no defense).
    FedAvg,
    /// Classic Krum selecting a single update; `f` is the tolerated number
    /// of Byzantine clients.
    Krum {
        /// Tolerated Byzantine count.
        f: usize,
    },
    /// Multi-Krum: select the `m = n − f − 2` lowest-score updates.
    MKrum {
        /// Tolerated Byzantine count.
        f: usize,
    },
    /// Per-coordinate trimmed mean dropping `trim` values at each extreme.
    TrMean {
        /// Values trimmed per side.
        trim: usize,
    },
    /// Per-coordinate median.
    Median,
    /// Bulyan with tolerated Byzantine count `f`.
    Bulyan {
        /// Tolerated Byzantine count.
        f: usize,
    },
    /// FoolsGold cosine-similarity Sybil defense (extension; the paper's
    /// evaluation excludes Sybil defenses).
    FoolsGold,
    /// Norm-bounded averaging (extension: the "stronger defense" direction
    /// of the paper's conclusion).
    NormBound {
        /// Maximum L2 norm of each update's delta from the global model.
        /// Serialized as milli-units (integer) to keep the kind `Eq`-able
        /// and hashable for result caching.
        max_norm_milli: u32,
    },
}

impl DefenseKind {
    /// The four defenses of the paper's evaluation plus the FedAvg baseline,
    /// parameterized for `n` submitted updates and a server-assumed
    /// Byzantine count `f` (the paper's setting: n = 10, f = 2).
    pub fn paper_grid(f: usize) -> Vec<DefenseKind> {
        vec![
            DefenseKind::MKrum { f },
            DefenseKind::TrMean { trim: f },
            DefenseKind::Bulyan { f },
            DefenseKind::Median,
        ]
    }

    /// Instantiates the rule.
    ///
    /// # Errors
    ///
    /// Returns [`AggError::InvalidParameter`] for degenerate parameters:
    /// a zero norm bound, or Bulyan with `f` below [`crate::BULYAN_MIN_F`].
    pub fn build(&self) -> Result<Box<dyn Defense>, AggError> {
        Ok(match *self {
            DefenseKind::FedAvg => Box::new(FedAvg::new()),
            DefenseKind::Krum { f } => Box::new(Krum::new(f)),
            DefenseKind::MKrum { f } => Box::new(MultiKrum::with_default_m(f)),
            DefenseKind::TrMean { trim } => Box::new(TrimmedMean::new(trim)),
            DefenseKind::Median => Box::new(Median::new()),
            DefenseKind::Bulyan { f } => {
                bulyan::check_f(f)?;
                Box::new(Bulyan::new(f))
            }
            DefenseKind::FoolsGold => Box::new(FoolsGold::new()),
            DefenseKind::NormBound { max_norm_milli } => {
                if max_norm_milli == 0 {
                    return Err(AggError::InvalidParameter(
                        "norm bound must be positive".into(),
                    ));
                }
                Box::new(NormBound::new(max_norm_milli as f32 / 1000.0))
            }
        })
    }

    /// Degrades the rule's parameters to what a surviving cohort of `n`
    /// updates supports — the dynamic-quorum half of the fault model
    /// (DESIGN.md §4d). Returns the effective kind to build for this
    /// round, or `None` when no sound instantiation exists and the round
    /// must be skipped (global model carried forward).
    ///
    /// The tolerated-Byzantine bound is only ever *capped*, never raised:
    /// the configured `f` is the server's standing assumption, and a
    /// shrunken cohort can only lower what the rule's precondition
    /// admits.
    ///
    /// * Krum / mKrum need `n ≥ f + 3` → `f_dyn = min(f, n − 3)`,
    ///   requiring `n ≥ 3`.
    /// * TRmean needs `n ≥ 2·trim + 1` → `trim_dyn = min(trim, (n−1)/2)`.
    /// * Bulyan needs `θ = n − 2f ≥ 1` *and* `n ≥ θ + f + 2`, which
    ///   together force `f ≥ 2` and `n ≥ 2f + 1` → `f_dyn = min(f,
    ///   (n−1)/2)`, skipping whenever `f_dyn < 2` (i.e. `n < 5`).
    /// * FedAvg / Median / FoolsGold / NormBound accept any `n ≥ 1`.
    pub fn for_cohort(&self, n: usize) -> Option<DefenseKind> {
        if n == 0 {
            return None;
        }
        Some(match *self {
            DefenseKind::Krum { f } => {
                if n < 3 {
                    return None;
                }
                DefenseKind::Krum { f: f.min(n - 3) }
            }
            DefenseKind::MKrum { f } => {
                if n < 3 {
                    return None;
                }
                DefenseKind::MKrum { f: f.min(n - 3) }
            }
            DefenseKind::TrMean { trim } => DefenseKind::TrMean {
                trim: trim.min((n - 1) / 2),
            },
            DefenseKind::Bulyan { f } => {
                let f_dyn = f.min((n - 1) / 2);
                if f_dyn < 2 {
                    return None;
                }
                DefenseKind::Bulyan { f: f_dyn }
            }
            other => other,
        })
    }

    /// Stable display name matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            DefenseKind::FedAvg => "FedAvg",
            DefenseKind::Krum { .. } => "Krum",
            DefenseKind::MKrum { .. } => "mKrum",
            DefenseKind::TrMean { .. } => "TRmean",
            DefenseKind::Median => "Median",
            DefenseKind::Bulyan { .. } => "Bulyan",
            DefenseKind::FoolsGold => "FoolsGold",
            DefenseKind::NormBound { .. } => "NormBound",
        }
    }
}

/// The survivors of the shared up-front update validation, plus the
/// rejection bookkeeping every [`Aggregation`] reports.
pub(crate) struct ValidUpdates<'a> {
    /// Indices (into the submitted list) of the kept updates.
    pub idx: Vec<usize>,
    /// The kept updates, in submission order.
    pub refs: Vec<&'a [f32]>,
    /// Indices rejected for NaN/∞.
    pub rejected_non_finite: Vec<usize>,
    /// Indices rejected for wrong length.
    pub rejected_malformed: Vec<usize>,
}

/// The modal update length: what the cohort agrees the model dimension
/// is. Ties break toward the smaller length (deterministically). With a
/// benign majority this is always the true dimension; a lone truncated or
/// padded payload can never redefine it.
fn expected_len(updates: &[Vec<f32>]) -> usize {
    let mut lens: Vec<usize> = updates.iter().map(Vec::len).collect();
    lens.sort_unstable();
    let (mut best, mut best_count) = (lens[0], 0usize);
    let mut i = 0;
    while i < lens.len() {
        let mut j = i;
        while j < lens.len() && lens[j] == lens[i] {
            j += 1;
        }
        if j - i > best_count {
            best = lens[i];
            best_count = j - i;
        }
        i = j;
    }
    best
}

/// Validates submitted updates, filtering out (never erroring on, and
/// never panicking over) malformed ones: wrong-length payloads are
/// rejected against the cohort's modal length, non-finite payloads
/// against IEEE sanity. Every aggregation rule runs this first, so one
/// corrupt buffer cannot crash a round.
///
/// # Errors
///
/// Returns [`AggError::NoUpdates`] when no valid update remains.
pub(crate) fn finite_updates(updates: &[Vec<f32>]) -> Result<ValidUpdates<'_>, AggError> {
    if updates.is_empty() {
        return Err(AggError::NoUpdates);
    }
    let d = expected_len(updates);
    let mut v = ValidUpdates {
        idx: Vec::new(),
        refs: Vec::new(),
        rejected_non_finite: Vec::new(),
        rejected_malformed: Vec::new(),
    };
    for (i, u) in updates.iter().enumerate() {
        if u.len() != d {
            v.rejected_malformed.push(i);
        } else if u.iter().all(|x| x.is_finite()) {
            v.idx.push(i);
            v.refs.push(u.as_slice());
        } else {
            v.rejected_non_finite.push(i);
        }
    }
    if v.refs.is_empty() {
        return Err(AggError::NoUpdates);
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_builds_and_labels() {
        for kind in [
            DefenseKind::FedAvg,
            DefenseKind::Krum { f: 1 },
            DefenseKind::MKrum { f: 2 },
            DefenseKind::TrMean { trim: 2 },
            DefenseKind::Median,
            DefenseKind::Bulyan { f: 2 },
            DefenseKind::FoolsGold,
            DefenseKind::NormBound {
                max_norm_milli: 500,
            },
        ] {
            let d = kind.build().unwrap();
            assert!(!d.name().is_empty());
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn paper_grid_is_the_four_defenses() {
        let grid = DefenseKind::paper_grid(2);
        let labels: Vec<&str> = grid.iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["mKrum", "TRmean", "Bulyan", "Median"]);
    }

    #[test]
    fn normbound_kind_rejects_zero() {
        assert!(DefenseKind::NormBound { max_norm_milli: 0 }
            .build()
            .is_err());
    }

    #[test]
    fn kind_roundtrips_through_serde() {
        let kind = DefenseKind::Bulyan { f: 2 };
        let s = serde_json::to_string(&kind).unwrap();
        let back: DefenseKind = serde_json::from_str(&s).unwrap();
        assert_eq!(kind, back);
    }

    #[test]
    fn finite_filter_drops_nan_updates() {
        let ups = vec![vec![1.0, 2.0], vec![f32::NAN, 0.0], vec![3.0, 4.0]];
        let v = finite_updates(&ups).unwrap();
        assert_eq!(v.idx, vec![0, 2]);
        assert_eq!(v.refs.len(), 2);
        assert_eq!(v.rejected_non_finite, vec![1]);
        assert!(v.rejected_malformed.is_empty());
        let all_bad = vec![vec![f32::INFINITY]];
        assert!(matches!(finite_updates(&all_bad), Err(AggError::NoUpdates)));
        assert!(matches!(finite_updates(&[]), Err(AggError::NoUpdates)));
    }

    #[test]
    fn wrong_length_updates_are_filtered_not_fatal() {
        // The 2-element majority defines the model dimension; the
        // truncated and the padded payload are quarantined.
        let ups = vec![vec![1.0, 2.0], vec![9.0], vec![3.0, 4.0], vec![0.0; 5]];
        let v = finite_updates(&ups).unwrap();
        assert_eq!(v.idx, vec![0, 2]);
        assert_eq!(v.rejected_malformed, vec![1, 3]);
        assert!(v.rejected_non_finite.is_empty());
        // Length ties break toward the smaller length, deterministically.
        let tie = vec![vec![1.0], vec![1.0, 2.0]];
        let v = finite_updates(&tie).unwrap();
        assert_eq!(v.idx, vec![0]);
        assert_eq!(v.rejected_malformed, vec![1]);
    }

    #[test]
    fn for_cohort_caps_f_and_skips_impossible_rounds() {
        let krum = DefenseKind::Krum { f: 2 };
        assert_eq!(krum.for_cohort(10), Some(krum));
        assert_eq!(krum.for_cohort(4), Some(DefenseKind::Krum { f: 1 }));
        assert_eq!(krum.for_cohort(3), Some(DefenseKind::Krum { f: 0 }));
        assert_eq!(krum.for_cohort(2), None);
        let mkrum = DefenseKind::MKrum { f: 2 };
        assert_eq!(mkrum.for_cohort(5), Some(mkrum));
        assert_eq!(mkrum.for_cohort(4), Some(DefenseKind::MKrum { f: 1 }));
        let tr = DefenseKind::TrMean { trim: 2 };
        assert_eq!(tr.for_cohort(5), Some(tr));
        assert_eq!(tr.for_cohort(3), Some(DefenseKind::TrMean { trim: 1 }));
        assert_eq!(tr.for_cohort(1), Some(DefenseKind::TrMean { trim: 0 }));
        let bul = DefenseKind::Bulyan { f: 2 };
        assert_eq!(bul.for_cohort(10), Some(bul));
        assert_eq!(bul.for_cohort(5), Some(bul));
        assert_eq!(bul.for_cohort(4), None);
        // Degraded parameters must satisfy the rule they will instantiate:
        // every Some(kind) builds and aggregates a cohort of that size.
        for kind in [
            krum,
            mkrum,
            tr,
            bul,
            DefenseKind::FedAvg,
            DefenseKind::Median,
        ] {
            for n in 1..=10usize {
                if let Some(k) = kind.for_cohort(n) {
                    let ups: Vec<Vec<f32>> = (0..n)
                        .map(|i| vec![i as f32 * 0.1, 1.0 - i as f32])
                        .collect();
                    let rule = k.build().unwrap();
                    assert!(
                        rule.aggregate(&ups, &vec![1.0; n]).is_ok(),
                        "{kind:?} degraded to {k:?} must aggregate n = {n}"
                    );
                }
            }
            assert_eq!(kind.for_cohort(0), None);
        }
    }
}
