//! Order statistics for the report: median, quartiles, and the tail
//! percentile rule (the highest percentile with at least ten samples
//! beyond it).

/// Sorted copy of `xs` (NaN-free input; NaNs sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; `NaN` for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the "exclusive" method — the
/// default of Python's `statistics.quantiles(xs, n=4)`, which is how
/// run-to-run spread is judged. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Tail percentiles considered, highest first.
const TAILS: [(&str, f64); 3] = [("p99.9", 99.9), ("p99", 99.0), ("p90", 90.0)];

/// The highest tail percentile that has at least ten samples beyond it,
/// as `(label, value)` by nearest rank; `None` when even p90 has fewer
/// than ten samples beyond it (fewer than 100 samples).
pub fn tail_percentile(xs: &[f64]) -> Option<(&'static str, f64)> {
    let v = sorted(xs);
    let n = v.len();
    TAILS.iter().find_map(|&(label, p)| {
        let beyond = n as f64 * (100.0 - p) / 100.0;
        if beyond + 1e-9 < 10.0 {
            return None;
        }
        // Nearest rank; the epsilon keeps 0.999 · 10000 from rounding up.
        let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
        Some((label, v[rank.clamp(1, n) - 1]))
    })
}

/// Arithmetic mean; `NaN` for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of tiny samples.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some([2.0, 5.0, 8.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), None, "p90 has only 9.9 beyond");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some(("p90", 90.0)));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some(("p90", 900.0)));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some(("p99", 990.0)));
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some(("p99.9", 9990.0)));
    }
}
