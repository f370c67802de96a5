//! Dirichlet label-skew partitioning (Sec. V-A of the paper).
//!
//! For every class, a proportion vector over the clients is drawn from a
//! symmetric Dirichlet with concentration `beta`, and the class's samples
//! are dealt out according to it. Lower `beta` ⇒ fewer clients own most of
//! a class ⇒ higher heterogeneity.

use crate::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;

/// Error returned by [`dirichlet_partition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// `num_clients` was zero.
    NoClients,
    /// `beta` was not a finite, strictly positive number.
    InvalidBeta,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::NoClients => write!(f, "cannot partition over zero clients"),
            PartitionError::InvalidBeta => write!(f, "dirichlet beta must be finite and positive"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// Partitions `dataset` over `num_clients` clients with label skew governed
/// by the Dirichlet concentration `beta` (paper notation; higher `beta` =
/// less heterogeneity). Returns one index list per client; every sample is
/// assigned to exactly one client. Clients may receive zero samples under
/// extreme skew — callers must tolerate empty shards.
///
/// # Errors
///
/// Returns [`PartitionError`] for zero clients, or a `beta` that is not
/// finite and positive.
pub fn dirichlet_partition(
    dataset: &Dataset,
    num_clients: usize,
    beta: f64,
    seed: u64,
) -> Result<Vec<Vec<usize>>, PartitionError> {
    if num_clients == 0 {
        return Err(PartitionError::NoClients);
    }
    if !(beta > 0.0 && beta.is_finite()) {
        return Err(PartitionError::InvalidBeta);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); num_clients];
    for class in 0..dataset.num_classes() {
        let mut members: Vec<usize> = dataset
            .labels()
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == class)
            .map(|(i, _)| i)
            .collect();
        members.shuffle(&mut rng);
        let props = crate::sample_dirichlet(beta, num_clients, &mut rng);
        // Cumulative split points over the class's members.
        let n = members.len();
        let mut start = 0usize;
        let mut acc = 0.0f64;
        for (client, &p) in props.iter().enumerate() {
            acc += p;
            let end = if client + 1 == num_clients {
                n
            } else {
                (acc * n as f64).round() as usize
            };
            let end = end.clamp(start, n);
            shards[client].extend_from_slice(&members[start..end]);
            start = end;
        }
    }
    Ok(shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SynthSpec;

    fn dataset(n: usize) -> Dataset {
        Dataset::synthesize(&SynthSpec::fashion_like(), n, 11)
    }

    #[test]
    fn partition_is_exhaustive_and_disjoint() {
        let d = dataset(500);
        let shards = dirichlet_partition(&d, 20, 0.5, 3).unwrap();
        assert_eq!(shards.len(), 20);
        let mut seen = vec![false; d.len()];
        for shard in &shards {
            for &i in shard {
                assert!(!seen[i], "sample {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "not all samples assigned");
    }

    #[test]
    fn partition_is_deterministic_in_seed() {
        let d = dataset(300);
        let a = dirichlet_partition(&d, 10, 0.5, 7).unwrap();
        let b = dirichlet_partition(&d, 10, 0.5, 7).unwrap();
        assert_eq!(a, b);
        let c = dirichlet_partition(&d, 10, 0.5, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn low_beta_produces_more_skew() {
        // Skew metric: mean over clients of (max class share within client).
        let d = dataset(2000);
        let skew_of = |beta: f64| -> f64 {
            let shards = dirichlet_partition(&d, 10, beta, 5).unwrap();
            let mut total = 0.0;
            let mut counted = 0usize;
            for shard in &shards {
                if shard.len() < 10 {
                    continue;
                }
                let mut hist = vec![0usize; d.num_classes()];
                for &i in shard {
                    hist[d.labels()[i]] += 1;
                }
                let max = *hist.iter().max().unwrap() as f64;
                total += max / shard.len() as f64;
                counted += 1;
            }
            total / counted.max(1) as f64
        };
        let hetero = skew_of(0.1);
        let homo = skew_of(5.0);
        assert!(hetero > homo + 0.1, "hetero {hetero} vs homo {homo}");
    }

    #[test]
    fn errors_on_degenerate_input() {
        let d = dataset(10);
        assert_eq!(
            dirichlet_partition(&d, 0, 0.5, 0),
            Err(PartitionError::NoClients)
        );
        for beta in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                dirichlet_partition(&d, 5, beta, 0),
                Err(PartitionError::InvalidBeta),
                "beta {beta}"
            );
        }
    }
}
