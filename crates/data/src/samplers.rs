//! Gamma and Dirichlet samplers, implemented locally (no distribution
//! crate) with the Marsaglia–Tsang squeeze method.

use rand::Rng;

/// Draws one sample from `Gamma(shape, 1)` via Marsaglia–Tsang (2000).
///
/// For `shape < 1` the boosting identity
/// `Gamma(a) = Gamma(a + 1) · U^(1/a)` is applied.
///
/// # Panics
///
/// Panics unless `shape` is finite and positive (an infinite shape would
/// never pass the squeeze test, and NaN compares false everywhere).
pub fn sample_gamma<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    assert!(
        shape > 0.0 && shape.is_finite(),
        "gamma shape must be finite and positive"
    );
    if shape < 1.0 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        return sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box–Muller.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Draws one sample from a symmetric Dirichlet distribution with
/// concentration `beta` over `k` categories.
///
/// This is the client-assignment distribution of the paper (Sec. V-A):
/// lower `beta` means higher label skew / data heterogeneity.
///
/// # Panics
///
/// Panics when `k == 0` or `beta` is not finite and positive.
pub fn sample_dirichlet<R: Rng + ?Sized>(beta: f64, k: usize, rng: &mut R) -> Vec<f64> {
    assert!(k > 0, "dirichlet needs at least one category");
    assert!(
        beta > 0.0 && beta.is_finite(),
        "dirichlet concentration must be finite and positive"
    );
    let mut draws: Vec<f64> = (0..k).map(|_| sample_gamma(beta, rng)).collect();
    let sum: f64 = draws.iter().sum();
    if sum <= 0.0 {
        // Numerically degenerate (possible for tiny beta): fall back to a
        // single random winner, the limit of Dirichlet as beta -> 0.
        let winner = rng.gen_range(0..k);
        draws.iter_mut().for_each(|d| *d = 0.0);
        draws[winner] = 1.0;
        return draws;
    }
    draws.iter_mut().for_each(|d| *d /= sum);
    draws
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gamma_mean_matches_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        for &shape in &[0.3f64, 1.0, 2.5, 8.0] {
            let n = 4000;
            let mean: f64 = (0..n).map(|_| sample_gamma(shape, &mut rng)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.15 * shape.max(1.0),
                "shape {shape}: mean {mean}"
            );
        }
    }

    #[test]
    fn gamma_is_positive() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            assert!(sample_gamma(0.1, &mut rng) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gamma_rejects_nonpositive_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = sample_gamma(0.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn gamma_rejects_infinite_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = sample_gamma(f64::INFINITY, &mut rng);
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = StdRng::seed_from_u64(2);
        for &beta in &[0.1f64, 0.5, 0.9, 5.0] {
            let p = sample_dirichlet(beta, 10, &mut rng);
            assert_eq!(p.len(), 10);
            let s: f64 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn low_beta_is_more_skewed_than_high_beta() {
        // Measure the mean max-probability over many draws: it must be
        // larger for beta = 0.1 (heterogeneous) than beta = 5 (homogeneous).
        let mut rng = StdRng::seed_from_u64(3);
        let mean_max = |beta: f64, rng: &mut StdRng| -> f64 {
            (0..300)
                .map(|_| {
                    sample_dirichlet(beta, 10, rng)
                        .into_iter()
                        .fold(0.0f64, f64::max)
                })
                .sum::<f64>()
                / 300.0
        };
        let skewed = mean_max(0.1, &mut rng);
        let flat = mean_max(5.0, &mut rng);
        assert!(skewed > flat + 0.2, "skewed {skewed} vs flat {flat}");
    }
}
