//! # fabflip-agg
//!
//! Byzantine-robust aggregation rules for federated learning — the defense
//! side of the `fabflip` reproduction (paper Sec. II-B):
//!
//! * [`FedAvg`] — the attack-free baseline, a sample-count-weighted mean,
//! * [`Krum`] / [`MultiKrum`] — outlier detection by cumulative squared
//!   distance to the nearest neighbours (Blanchard et al., 2017),
//! * [`TrimmedMean`] / [`Median`] — per-coordinate statistic defenses
//!   (Yin et al., 2018),
//! * [`Bulyan`] — iterative Multi-Krum selection followed by a per-
//!   coordinate trimmed mean around the median (El Mhamdi et al., 2018),
//! * [`FoolsGold`] — the Sybil defense class the paper's threat model
//!   discusses and deliberately excludes (Fung et al., 2020); implemented
//!   here as an extension so that exclusion argument is testable.
//!
//! Every rule implements [`Defense`] and returns an [`Aggregation`] carrying
//! both the new global model and a [`Selection`] describing *which* updates
//! were included — the information the paper's defense-pass-rate (DPR,
//! Eq. 5) is computed from. Statistic defenses report
//! [`Selection::PerCoordinate`], for which DPR is undefined ("NA" in the
//! paper's tables).
//!
//! Updates containing NaN/∞ are excluded up front (a production server must
//! not let one poisoned buffer corrupt the model); the excluded indices are
//! reported in [`Aggregation::rejected_non_finite`].
//!
//! # Examples
//!
//! ```
//! use fabflip_agg::{Defense, MultiKrum, Selection};
//!
//! let updates = vec![
//!     vec![1.0, 1.0], vec![1.1, 0.9], vec![0.9, 1.1], vec![1.0, 0.8],
//!     vec![9.0, 9.0], // outlier
//! ];
//! let mkrum = MultiKrum::new(1, 2)?; // tolerate f=1, select m=2
//! let agg = mkrum.aggregate(&updates, &[1.0; 5])?;
//! match agg.selection {
//!     fabflip_agg::Selection::Chosen(ref kept) => assert!(!kept.contains(&4)),
//!     _ => unreachable!(),
//! }
//! # Ok::<(), fabflip_agg::AggError>(())
//! ```

mod bulyan;
mod error;
mod fedavg;
mod fltrust;
mod foolsgold;
mod krum;
mod normbound;
mod statistic;
mod streaming;
mod types;

pub use bulyan::{bulyan_coordinate_chunk, Bulyan, BULYAN_DENSE_MAX};
pub use error::AggError;
pub use fedavg::FedAvg;
pub use fltrust::{fltrust_aggregate, FLTRUST_SELECT_CUTOFF};
pub use foolsgold::{foolsgold_weights, FoolsGold};
pub use krum::{
    krum_scores, krum_scores_from_dists, krum_scores_into, Krum, MultiKrum, KRUM_ROW_BLOCK,
};
pub use normbound::NormBound;
pub use statistic::{Median, TrimmedMean};
pub use streaming::{StreamingAggregator, StreamingConfig};
pub use types::{Aggregation, Defense, DefenseKind, Selection};

#[cfg(test)]
mod proptests;
