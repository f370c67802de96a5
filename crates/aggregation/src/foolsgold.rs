use crate::types::finite_updates;
use crate::{AggError, Aggregation, Defense, Selection};
use fabflip_tensor::scratch::{scratch_f32, Purpose};
use fabflip_tensor::vecops;

/// FoolsGold (Fung et al., 2020) — the *Sybil* defense class the paper's
/// threat model discusses (Sec. III-A): instead of rejecting outliers, it
/// down-weights groups of updates that are suspiciously *similar* (one
/// adversary controlling many clients tends to submit near-identical
/// updates — exactly what the ZKA adversary does).
///
/// This is the memoryless per-round variant: cosine similarities are
/// computed between the round's update **deltas** `w_i − w(t)` (the
/// stateful original accumulates per-client histories; one-round deltas
/// already carry the Sybil signal because every malicious client submits
/// the same crafted update). Cosine similarity is not shift-invariant, so
/// the rule needs the global model as a reference — use
/// [`Defense::aggregate_with_reference`]; plain
/// [`Defense::aggregate`] treats the inputs as already-centred deltas.
///
/// Algorithm per round: pairwise cosine similarity → "pardoning" rescale →
/// weight `w_i = 1 − max_j cs_ij` → normalize → logit squash. Aggregation
/// is the weighted mean; updates with weight below [`FoolsGold::CUTOFF`]
/// count as rejected for DPR purposes.
///
/// The paper deliberately *excludes* Sybil defenses from its evaluation,
/// citing that small perturbation noise circumvents them; this
/// implementation (plus the simulator's `sybil_noise` knob) makes that
/// claim testable — see `examples/foolsgold_sybil.rs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoolsGold;

impl FoolsGold {
    /// Creates the rule.
    pub fn new() -> FoolsGold {
        FoolsGold
    }

    /// Minimum post-squash weight for an update to count as "selected".
    pub const CUTOFF: f32 = 0.1;

    /// The per-update aggregation weights (after pardoning and the logit
    /// squash) for a set of update *deltas*, exposed for inspection.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FoolsGold::aggregate`].
    pub fn weights(&self, deltas: &[Vec<f32>]) -> Result<Vec<f32>, AggError> {
        let v = finite_updates(deltas)?;
        Ok(foolsgold_weights(&v.refs, None))
    }
}

/// Tile edge for the blocked similarity passes: at most `FG_TILE²`
/// similarity entries are resident at once (DESIGN.md §4e).
const FG_TILE: usize = 128;

/// FoolsGold weights, evaluated in `FG_TILE × FG_TILE` tiles of the
/// (never materialized) pairwise cosine matrix. When `reference` is set,
/// similarities are taken between the deltas `w_i − w(t)` without
/// materializing those either ([`vecops::dot_delta`] /
/// [`vecops::l2_norm_delta`]), so resident memory is O(n + B²) on top of
/// the inputs.
///
/// Bitwise identical to the dense formulation (pinned by
/// `tiled_weights_match_dense_bitwise`): cosine entries are pure
/// per-pair functions (`dot(a,b) == dot(b,a)` exactly — IEEE
/// multiplication commutes and the sum order is shared), and both row
/// folds visit `j` ascending exactly as the dense loops did, so tiling
/// only changes *when* entries are computed, never their values or the
/// fold order.
pub fn foolsgold_weights(refs: &[&[f32]], reference: Option<&[f32]>) -> Vec<f32> {
    let n = refs.len();
    if n == 1 {
        // fabcheck::allow(alloc_on_hot_path): the returned weight vector.
        return vec![1.0];
    }
    let d = refs[0].len();
    // Delta norms once per update; each tile entry then costs one dot.
    // Norm checks happen *before* the dot (as in the historical scalar
    // `cosine`), so zero-norm or length-0 rows never reach `dot`.
    let norms: Vec<f32> = refs
        .iter()
        .map(|u| match reference {
            Some(r) => vecops::l2_norm_delta(u, r),
            None => vecops::l2_norm(u),
        })
        // fabcheck::allow(alloc_on_hot_path): O(n), once per close.
        .collect();
    let entry = |i: usize, j: usize| -> f32 {
        let (na, nb) = (norms[i], norms[j]);
        if na < 1e-12 || nb < 1e-12 {
            return 0.0;
        }
        let dp = match reference {
            Some(r) => vecops::dot_delta(refs[i], refs[j], r),
            None => vecops::dot(refs[i], refs[j]),
        };
        (dp / (na * nb)).clamp(-1.0, 1.0)
    };
    let b = FG_TILE.min(n);
    let mut tile = scratch_f32(Purpose::DistTile, b * b);

    // Pass 1: per-row maxima of the similarity matrix. Column tiles are
    // swept in ascending j, so each row's `f32::max` fold runs in exactly
    // the dense order.
    // fabcheck::allow(alloc_on_hot_path): O(n), once per close.
    let mut maxes = vec![f32::NEG_INFINITY; n];
    let mut row_lo = 0;
    while row_lo < n {
        let rows = b.min(n - row_lo);
        let mut col_lo = 0;
        while col_lo < n {
            let cols = b.min(n - col_lo);
            let t = &mut tile[..rows * cols];
            vecops::pairwise_tile_into(row_lo, col_lo, cols, d, t, entry);
            for (r, row) in t.chunks(cols).enumerate() {
                let i = row_lo + r;
                let m = &mut maxes[i];
                for (c, &cs) in row.iter().enumerate() {
                    if col_lo + c != i {
                        *m = m.max(cs);
                    }
                }
            }
            col_lo += cols;
        }
        row_lo += rows;
    }

    // Pass 2: pardoning — honest clients that merely resemble a popular
    // direction are rescaled relative to the more-suspicious party. The
    // tiles are recomputed (compute is the cheap axis here; memory is the
    // scarce one) and each row folds its pardoned maximum in ascending j.
    // fabcheck::allow(alloc_on_hot_path): O(n), once per close.
    let mut max_cs = vec![f32::NEG_INFINITY; n];
    let mut row_lo = 0;
    while row_lo < n {
        let rows = b.min(n - row_lo);
        let mut col_lo = 0;
        while col_lo < n {
            let cols = b.min(n - col_lo);
            let t = &mut tile[..rows * cols];
            vecops::pairwise_tile_into(row_lo, col_lo, cols, d, t, entry);
            for (r, row) in t.chunks(cols).enumerate() {
                let i = row_lo + r;
                let m = &mut max_cs[i];
                for (c, &cs) in row.iter().enumerate() {
                    let j = col_lo + c;
                    if j == i {
                        continue;
                    }
                    let mut v = cs;
                    if maxes[j] > maxes[i] && maxes[i] > 0.0 {
                        v *= maxes[i] / maxes[j];
                    }
                    *m = m.max(v);
                }
            }
            col_lo += cols;
        }
        row_lo += rows;
    }

    // fabcheck::allow(alloc_on_hot_path): the returned weight vector.
    let mut w: Vec<f32> = max_cs.iter().map(|&m| 1.0 - m).collect();
    // Normalize to [0, 1] by the maximum weight.
    // fabcheck::allow(unordered_float_reduction): running max, serial left-to-right over the weight slice
    let wmax = w.iter().fold(0.0f32, |a, &b| a.max(b));
    if wmax > 0.0 {
        for v in &mut w {
            *v = (*v / wmax).clamp(0.0, 1.0);
        }
    }
    // Logit squash, clipped into [0, 1] (as in the original).
    for v in &mut w {
        let x = v.clamp(1e-5, 1.0 - 1e-5);
        *v = ((x / (1.0 - x)).ln() * 0.5 + 0.5).clamp(0.0, 1.0);
    }
    w
}

/// The historical dense formulation, kept as the bitwise reference for
/// the tiled rewrite above.
#[cfg(test)]
fn foolsgold_weights_dense(refs: &[&[f32]]) -> Vec<f32> {
    fn cosine(a: &[f32], b: &[f32]) -> f32 {
        let na = vecops::l2_norm(a);
        let nb = vecops::l2_norm(b);
        if na < 1e-12 || nb < 1e-12 {
            return 0.0;
        }
        (vecops::dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
    }
    let n = refs.len();
    if n == 1 {
        return vec![1.0];
    }
    let mut cs = vec![vec![0.0f32; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let c = cosine(refs[i], refs[j]);
            cs[i][j] = c;
            cs[j][i] = c;
        }
    }
    let maxes: Vec<f32> = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| j != i)
                .map(|j| cs[i][j])
                .fold(f32::NEG_INFINITY, f32::max)
        })
        .collect();
    let mut w = vec![0.0f32; n];
    for i in 0..n {
        let mut max_cs = f32::NEG_INFINITY;
        for j in 0..n {
            if i == j {
                continue;
            }
            let mut v = cs[i][j];
            if maxes[j] > maxes[i] && maxes[i] > 0.0 {
                v *= maxes[i] / maxes[j];
            }
            max_cs = max_cs.max(v);
        }
        w[i] = 1.0 - max_cs;
    }
    let wmax = w.iter().fold(0.0f32, |a, &b| a.max(b));
    if wmax > 0.0 {
        for v in &mut w {
            *v = (*v / wmax).clamp(0.0, 1.0);
        }
    }
    for v in &mut w {
        let x = v.clamp(1e-5, 1.0 - 1e-5);
        *v = ((x / (1.0 - x)).ln() * 0.5 + 0.5).clamp(0.0, 1.0);
    }
    w
}

impl FoolsGold {
    fn aggregate_inner(
        &self,
        updates: &[Vec<f32>],
        reference: Option<&[f32]>,
    ) -> Result<Aggregation, AggError> {
        let v = finite_updates(updates)?;
        if let Some(r) = reference {
            if r.len() != v.refs[0].len() {
                return Err(AggError::LengthMismatch {
                    expected: v.refs[0].len(),
                    actual: r.len(),
                });
            }
        }
        // Similarities on deltas w_i − w(t) (or raw inputs when no ref),
        // evaluated tile-by-tile without materializing the deltas.
        let w = foolsgold_weights(&v.refs, reference);
        let total: f32 = w.iter().sum();
        let model = if total > 0.0 {
            let mut model = vec![0.0f32; v.refs[0].len()];
            for (r, &wi) in v.refs.iter().zip(&w) {
                vecops::axpy_in_place(&mut model, wi / total, r);
            }
            model
        } else {
            // Everything looked Sybil-like: an uninformative round; fall
            // back to the plain mean so the server still makes progress.
            vecops::mean(&v.refs)
        };
        let chosen: Vec<usize> = v
            .idx
            .iter()
            .zip(&w)
            .filter(|(_, &wi)| wi >= FoolsGold::CUTOFF)
            .map(|(&i, _)| i)
            .collect();
        Ok(Aggregation {
            model,
            selection: Selection::Chosen(chosen),
            rejected_non_finite: v.rejected_non_finite,
            rejected_malformed: v.rejected_malformed,
        })
    }
}

impl Defense for FoolsGold {
    fn aggregate(&self, updates: &[Vec<f32>], _weights: &[f32]) -> Result<Aggregation, AggError> {
        self.aggregate_inner(updates, None)
    }

    fn aggregate_with_reference(
        &self,
        updates: &[Vec<f32>],
        _weights: &[f32],
        reference: Option<&[f32]>,
    ) -> Result<Aggregation, AggError> {
        self.aggregate_inner(updates, reference)
    }

    fn name(&self) -> &'static str {
        "FoolsGold"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-round deltas `w_i − w(t)`, materialized.
    fn centered_deltas(refs: &[&[f32]], reference: &[f32]) -> Vec<Vec<f32>> {
        refs.iter().map(|u| vecops::sub(u, reference)).collect()
    }

    /// Pseudo-random, low-mutual-cosine "honest" deltas.
    fn diverse_deltas(n: usize, d: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..d)
                    .map(|j| (((i * d + j) as f32) * 2.399 + 0.7).sin())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn identical_sybils_get_zero_weight() {
        let mut ups = diverse_deltas(6, 16);
        let sybil: Vec<f32> = (0..16).map(|j| (j as f32 * 1.1).cos()).collect();
        ups.push(sybil.clone());
        ups.push(sybil.clone());
        ups.push(sybil);
        let fg = FoolsGold::new();
        let w = fg.weights(&ups).unwrap();
        for i in 6..9 {
            assert!(w[i] < 0.05, "sybil {i} kept weight {} ({w:?})", w[i]);
        }
        let honest_mean: f32 = w[..6].iter().sum::<f32>() / 6.0;
        assert!(honest_mean > 0.5, "honest clients down-weighted: {w:?}");
        // DPR view: sybils excluded from the selection.
        let agg = fg.aggregate(&ups, &[1.0; 9]).unwrap();
        match agg.selection {
            Selection::Chosen(ref c) => {
                assert!(
                    !c.contains(&6) && !c.contains(&7) && !c.contains(&8),
                    "{c:?}"
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn perturbed_sybils_regain_weight() {
        // The paper's Sec. III-A claim: small noise circumvents the Sybil
        // defense. Perturb each copy; their pairwise cosine drops and the
        // weights recover.
        let mut ups = diverse_deltas(6, 16);
        let base: Vec<f32> = (0..16).map(|j| (j as f32 * 1.1).cos()).collect();
        for k in 0..3usize {
            let noisy: Vec<f32> = base
                .iter()
                .enumerate()
                .map(|(j, v)| v + 1.2 * ((k * 31 + j * 7) as f32 * 2.1).sin())
                .collect();
            ups.push(noisy);
        }
        let w = FoolsGold::new().weights(&ups).unwrap();
        let sybil_mean = (w[6] + w[7] + w[8]) / 3.0;
        assert!(sybil_mean > 0.4, "perturbed sybils still flagged: {w:?}");
    }

    #[test]
    fn reference_centering_exposes_sybils_hidden_by_a_common_offset() {
        // Absolute weight vectors all sit near the global model, so raw
        // cosine similarity is ~1 for everyone; only the delta view
        // separates honest diversity from Sybil identity.
        let global: Vec<f32> = (0..16).map(|j| 10.0 + (j as f32 * 0.3).sin()).collect();
        let honest_deltas = diverse_deltas(6, 16);
        let sybil_delta: Vec<f32> = (0..16).map(|j| (j as f32 * 1.1).cos() * 0.1).collect();
        let mut ups: Vec<Vec<f32>> = honest_deltas
            .iter()
            .map(|d| vecops::add(&vecops::scale(d, 0.1), &global))
            .collect();
        for _ in 0..3 {
            ups.push(vecops::add(&sybil_delta, &global));
        }
        let fg = FoolsGold::new();
        let agg = fg
            .aggregate_with_reference(&ups, &[1.0; 9], Some(&global))
            .unwrap();
        match agg.selection {
            Selection::Chosen(ref c) => {
                assert!(
                    !c.contains(&6) && !c.contains(&7) && !c.contains(&8),
                    "{c:?}"
                );
                assert!(c.len() >= 4, "honest majority should be kept: {c:?}");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn diverse_updates_are_all_kept() {
        let ups = diverse_deltas(8, 16);
        let agg = FoolsGold::new().aggregate(&ups, &[1.0; 8]).unwrap();
        match agg.selection {
            Selection::Chosen(ref c) => {
                assert!(c.len() >= 6, "too many honest clients dropped: {c:?}");
            }
            _ => panic!(),
        }
        assert!(agg.model.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn tiled_weights_match_dense_bitwise() {
        // n > FG_TILE so the tile sweep crosses block boundaries in both
        // passes; include a Sybil pair and a zero-norm row so every branch
        // of the entry kernel (skip, pardon, clamp) is exercised.
        let n = FG_TILE + 21;
        let mut ups: Vec<Vec<f32>> = (0..n - 3)
            .map(|u| {
                (0..9)
                    .map(|i| ((u * 9 + i) as f32 * 2.399 + 0.7).sin())
                    .collect()
            })
            .collect();
        let sybil: Vec<f32> = (0..9).map(|j| (j as f32 * 1.1).cos()).collect();
        ups.push(sybil.clone());
        ups.push(sybil);
        ups.push(vec![0.0; 9]);
        let refs: Vec<&[f32]> = ups.iter().map(|u| u.as_slice()).collect();
        let tiled = foolsgold_weights(&refs, None);
        let dense = foolsgold_weights_dense(&refs);
        for (t, d) in tiled.iter().zip(&dense) {
            assert_eq!(t.to_bits(), d.to_bits());
        }
        // The referenced path equals dense-on-materialized-deltas bitwise.
        let global: Vec<f32> = (0..9).map(|j| 10.0 + (j as f32 * 0.3).sin()).collect();
        let tiled_ref = foolsgold_weights(&refs, Some(&global));
        let deltas = centered_deltas(&refs, &global);
        let delta_refs: Vec<&[f32]> = deltas.iter().map(|d| d.as_slice()).collect();
        let dense_ref = foolsgold_weights_dense(&delta_refs);
        for (t, d) in tiled_ref.iter().zip(&dense_ref) {
            assert_eq!(t.to_bits(), d.to_bits());
        }
    }

    #[test]
    fn single_update_passes_through() {
        let ups = vec![vec![1.0f32, 2.0]];
        let agg = FoolsGold::new().aggregate(&ups, &[1.0]).unwrap();
        assert_eq!(agg.model, vec![1.0, 2.0]);
    }

    #[test]
    fn all_identical_round_falls_back_to_mean() {
        let ups = vec![vec![1.0f32, 2.0]; 4];
        let agg = FoolsGold::new().aggregate(&ups, &[1.0; 4]).unwrap();
        assert_eq!(agg.model, vec![1.0, 2.0]);
    }

    #[test]
    fn survives_nan_update() {
        let mut ups = diverse_deltas(5, 16);
        ups.push(vec![f32::NAN; 16]);
        let agg = FoolsGold::new().aggregate(&ups, &[1.0; 6]).unwrap();
        assert_eq!(agg.rejected_non_finite, vec![5]);
        assert!(agg.model.iter().all(|v| v.is_finite()));
    }
}
