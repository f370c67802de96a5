//! Loss functions. All losses return `(scalar_loss, dL/dlogits)` in one
//! call; the gradient is already averaged over the batch so callers can feed
//! it straight into [`crate::Sequential::backward`].
//!
//! The soft-target variant exists because ZKA-R (Sec. IV-B of the paper)
//! minimizes the cross-entropy between the global model's prediction and the
//! *uniform* distribution `Y_D = [1/L, …, 1/L]`, and ZKA-G (Sec. IV-C)
//! *maximizes* the cross-entropy to a one-hot class, which is implemented as
//! minimizing its negation via [`softmax_cross_entropy_hard_negated`].

use crate::NnError;
use fabflip_tensor::Tensor;

/// Numerically stable row-wise softmax of a `[N, L]` logits tensor.
pub fn softmax(logits: &Tensor) -> Tensor {
    let n = logits.shape()[0];
    let l = logits.shape()[1];
    let mut out = logits.clone();
    for i in 0..n {
        let row = &mut out.data_mut()[i * l..(i + 1) * l];
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

fn check_logits(
    logits: &Tensor,
    n_expected: usize,
    op: &'static str,
) -> Result<(usize, usize), NnError> {
    if logits.rank() != 2 {
        return Err(NnError::BadInput {
            layer: op,
            detail: format!("logits must be [N, L], got {:?}", logits.shape()),
        });
    }
    let (n, l) = (logits.shape()[0], logits.shape()[1]);
    if n != n_expected {
        return Err(NnError::BadInput {
            layer: op,
            detail: format!("batch {n} vs {n_expected} targets"),
        });
    }
    Ok((n, l))
}

/// Cross-entropy with integer class labels.
///
/// Returns the mean loss over the batch and `dL/dlogits = (softmax − onehot)/N`.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] for non-matrix logits, mismatched label
/// counts, or an out-of-range label.
pub fn softmax_cross_entropy_hard(
    logits: &Tensor,
    labels: &[usize],
) -> Result<(f32, Tensor), NnError> {
    let (n, l) = check_logits(logits, labels.len(), "cross_entropy_hard")?;
    let mut probs = softmax(logits);
    let mut loss = 0.0f32;
    for (i, &y) in labels.iter().enumerate() {
        if y >= l {
            return Err(NnError::BadInput {
                layer: "cross_entropy_hard",
                detail: format!("label {y} out of range for {l} classes"),
            });
        }
        let p = probs.data()[i * l + y].max(1e-12);
        loss -= p.ln();
        probs.data_mut()[i * l + y] -= 1.0;
    }
    let inv = 1.0 / n as f32;
    probs.scale_in_place(inv);
    Ok((loss * inv, probs))
}

/// *Negated* cross-entropy with integer labels: minimizing this loss
/// **maximizes** the ordinary cross-entropy — the ZKA-G generator objective
/// `max_θ F(w(t), (S, Ỹ))`.
///
/// # Errors
///
/// Same conditions as [`softmax_cross_entropy_hard`].
pub fn softmax_cross_entropy_hard_negated(
    logits: &Tensor,
    labels: &[usize],
) -> Result<(f32, Tensor), NnError> {
    let (loss, grad) = softmax_cross_entropy_hard(logits, labels)?;
    Ok((-loss, grad.scale(-1.0)))
}

/// Cross-entropy against per-sample target *distributions* (`[N, L]` rows
/// summing to 1) — used by ZKA-R with the uniform target `Y_D`.
///
/// # Errors
///
/// Returns [`NnError::BadInput`] on shape mismatch.
pub fn softmax_cross_entropy_soft(
    logits: &Tensor,
    targets: &Tensor,
) -> Result<(f32, Tensor), NnError> {
    if logits.shape() != targets.shape() {
        return Err(NnError::BadInput {
            layer: "cross_entropy_soft",
            detail: format!(
                "logits {:?} vs targets {:?}",
                logits.shape(),
                targets.shape()
            ),
        });
    }
    let rows = logits.shape().first().copied().unwrap_or(0);
    let (n, _l) = check_logits(logits, rows, "cross_entropy_soft")?;
    let mut probs = softmax(logits);
    let mut loss = 0.0f32;
    for (p, &t) in probs.data().iter().zip(targets.data()) {
        if t > 0.0 {
            loss -= t * p.max(1e-12).ln();
        }
    }
    for (p, &t) in probs.data_mut().iter_mut().zip(targets.data()) {
        *p -= t;
    }
    let inv = 1.0 / n as f32;
    probs.scale_in_place(inv);
    Ok((loss * inv, probs))
}

/// Fraction of rows whose argmax equals the label.
///
/// # Panics
///
/// Panics when `labels.len()` differs from the logits batch size.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    let n = logits.shape()[0];
    assert_eq!(n, labels.len(), "accuracy: batch mismatch");
    if n == 0 {
        return 0.0;
    }
    let l = logits.shape()[1];
    let mut correct = 0usize;
    for (i, &y) in labels.iter().enumerate() {
        let row = &logits.data()[i * l..(i + 1) * l];
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (j, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = j;
            }
        }
        if best == y {
            correct += 1;
        }
    }
    correct as f32 / n as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let p = softmax(&logits);
        for i in 0..2 {
            let s: f32 = p.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = Tensor::from_vec(vec![1, 2], vec![1000.0, 1001.0]).unwrap();
        let p = softmax(&a);
        assert!(p.data().iter().all(|v| v.is_finite()));
        let b = Tensor::from_vec(vec![1, 2], vec![0.0, 1.0]).unwrap();
        let q = softmax(&b);
        for (x, y) in p.data().iter().zip(q.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn hard_ce_perfect_prediction_has_low_loss() {
        let logits = Tensor::from_vec(vec![1, 3], vec![10.0, -10.0, -10.0]).unwrap();
        let (loss, _) = softmax_cross_entropy_hard(&logits, &[0]).unwrap();
        assert!(loss < 1e-3);
        let (loss_wrong, _) = softmax_cross_entropy_hard(&logits, &[1]).unwrap();
        assert!(loss_wrong > 5.0);
    }

    #[test]
    fn hard_ce_gradient_sums_to_zero_per_row() {
        let logits =
            Tensor::from_vec(vec![2, 4], vec![0.3, -0.2, 1.0, 0.5, 2.0, 0.0, -1.0, 0.1]).unwrap();
        let (_, g) = softmax_cross_entropy_hard(&logits, &[2, 0]).unwrap();
        for i in 0..2 {
            let s: f32 = g.data()[i * 4..(i + 1) * 4].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn hard_ce_rejects_bad_labels() {
        let logits = Tensor::zeros(vec![1, 3]);
        assert!(softmax_cross_entropy_hard(&logits, &[3]).is_err());
        assert!(softmax_cross_entropy_hard(&logits, &[0, 1]).is_err());
    }

    #[test]
    fn negated_ce_flips_sign() {
        let logits = Tensor::from_vec(vec![1, 3], vec![0.5, 0.1, -0.3]).unwrap();
        let (l1, g1) = softmax_cross_entropy_hard(&logits, &[1]).unwrap();
        let (l2, g2) = softmax_cross_entropy_hard_negated(&logits, &[1]).unwrap();
        assert!((l1 + l2).abs() < 1e-6);
        for (a, b) in g1.data().iter().zip(g2.data()) {
            assert!((a + b).abs() < 1e-7);
        }
    }

    #[test]
    fn soft_ce_uniform_target_minimized_by_uniform_logits() {
        // With uniform target, equal logits give loss ln(L) — the minimum.
        let uniform = Tensor::full(vec![1, 4], 0.25);
        let eq = Tensor::zeros(vec![1, 4]);
        let (loss_eq, grad_eq) = softmax_cross_entropy_soft(&eq, &uniform).unwrap();
        assert!((loss_eq - (4.0f32).ln()).abs() < 1e-5);
        assert!(grad_eq.data().iter().all(|g| g.abs() < 1e-6));
        let skew = Tensor::from_vec(vec![1, 4], vec![3.0, 0.0, 0.0, 0.0]).unwrap();
        let (loss_skew, _) = softmax_cross_entropy_soft(&skew, &uniform).unwrap();
        assert!(loss_skew > loss_eq);
    }

    #[test]
    fn soft_ce_matches_hard_for_onehot_targets() {
        let logits = Tensor::from_vec(vec![2, 3], vec![0.2, -1.0, 0.7, 1.5, 0.1, -0.4]).unwrap();
        let onehot = Tensor::from_vec(vec![2, 3], vec![0.0, 0.0, 1.0, 1.0, 0.0, 0.0]).unwrap();
        let (lh, gh) = softmax_cross_entropy_hard(&logits, &[2, 0]).unwrap();
        let (ls, gs) = softmax_cross_entropy_soft(&logits, &onehot).unwrap();
        assert!((lh - ls).abs() < 1e-6);
        for (a, b) in gh.data().iter().zip(gs.data()) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn soft_ce_rejects_bad_shapes() {
        let logits = Tensor::zeros(vec![2, 3]);
        assert!(softmax_cross_entropy_soft(&logits, &Tensor::zeros(vec![2, 4])).is_err());
        let row = Tensor::zeros(vec![3]);
        assert!(softmax_cross_entropy_soft(&row, &row).is_err());
        let scalar = Tensor::zeros(vec![]);
        assert!(softmax_cross_entropy_soft(&scalar, &scalar).is_err());
    }

    #[test]
    fn accuracy_counts_correct_rows() {
        let logits = Tensor::from_vec(vec![2, 2], vec![0.9, 0.1, 0.2, 0.8]).unwrap();
        assert_eq!(accuracy(&logits, &[0, 1]), 1.0);
        assert_eq!(accuracy(&logits, &[1, 1]), 0.5);
    }
}
