use crate::types::finite_updates;
use crate::{AggError, Aggregation, Defense, Selection};
use fabflip_tensor::scratch::{scratch_f32, Purpose};
use fabflip_tensor::{par, vecops};

/// Row-block height for the blocked Krum scorer when the cohort outgrows
/// the update length (`n > d`): at most this many distance rows are
/// resident at once (DESIGN.md §4e).
pub const KRUM_ROW_BLOCK: usize = 128;

/// Tile entries (`rows × n`) from which [`krum_scores_blocked_into`]
/// spreads a tile's per-row selection over the `tensor::par` pool. Below
/// it the sorts are cheaper than waking the pool: the 10- and 40-update
/// rounds stay serial, a 1 000-update round goes parallel.
pub const KRUM_SELECT_PAR_ENTRIES: usize = 1 << 14;

/// Distance rows per tile of [`krum_scores_blocked_into`] for `n` updates
/// of length `d`: all `n` when `n ≤ d` (the `n × n` matrix is then no
/// larger than the cohort itself, so each pair is computed once), else
/// [`KRUM_ROW_BLOCK`] capped at `n`. Resident distance memory is
/// `krum_tile_rows(n, d) · n` floats, never more than `max(B·n, n·d)`.
pub fn krum_tile_rows(n: usize, d: usize) -> usize {
    if n <= d {
        n
    } else {
        KRUM_ROW_BLOCK.min(n)
    }
}

/// Computes Krum scores (Blanchard et al., 2017): for each update, the sum
/// of squared L2 distances to its `n − f − 2` nearest other updates. Lower
/// is "more central".
///
/// Allocates the returned scores and delegates to
/// [`krum_scores_blocked_into`].
///
/// # Errors
///
/// Returns [`AggError::TooFewUpdates`] when `n < f + 3`.
pub fn krum_scores(refs: &[&[f32]], f: usize) -> Result<Vec<f32>, AggError> {
    let mut scores = vec![0.0f32; refs.len()];
    krum_scores_blocked_into(refs, f, &mut scores)?;
    Ok(scores)
}

/// Allocation-free blocked Krum scorer: writes `scores[i]` for every
/// update `i` of `refs` (`scores.len() == refs.len()`).
///
/// Evaluated in tiles of [`krum_tile_rows`] distance rows through a
/// [`Purpose::DistTile`] scratch tile, so resident distance memory is at
/// most `max(B·n, n·d)`: one row tile, or no more than the cohort itself
/// (DESIGN.md §4e). When `n ≤ d` the one tile is the whole matrix, filled
/// by [`vecops::pairwise_sq_distances_into`]: each pair once, in the
/// upper triangle, then mirrored. Otherwise each [`KRUM_ROW_BLOCK`]-row
/// tile is filled by [`vecops::sq_distance_tile_into`], every pair of its
/// rows. Both run the active backend's `sq_distance_rows` kernel in
/// groups of four rows that threads claim one at a time (AVX-512: four
/// rows × 16 columns per register block); every entry is bitwise
/// `sq_distance(refs[i], refs[j])` on every backend. Then each tile row is
/// gathered, sorted and prefix-summed into its own `scores[i]`, the rows
/// spread over the thread pool once the tile holds
/// [`KRUM_SELECT_PAR_ENTRIES`] entries, each worker sorting in its own
/// [`Purpose::KrumRow`] scratch; a row's score depends on that row alone,
/// so the scores are the same at any thread count.
///
/// Bitwise identical to scoring against the dense matrix
/// ([`krum_scores_from_dists`]) in both regimes:
/// `sq_distance(a, b) == sq_distance(b, a)` exactly (each lane negates,
/// and IEEE negation and multiplication are exact/commutative), so a row
/// tile's full rows equal the upper-triangle-plus-mirror fill, and the
/// per-row gather → sort → sum sequence is the one [`krum_scores_into`]
/// runs.
///
/// # Errors
///
/// Returns [`AggError::TooFewUpdates`] when `n < f + 3`.
///
/// # Panics
///
/// Debug builds panic when `scores.len() != refs.len()`; the update
/// lengths must agree as for [`vecops::sq_distance_tile_into`].
pub fn krum_scores_blocked_into(
    refs: &[&[f32]],
    f: usize,
    scores: &mut [f32],
) -> Result<(), AggError> {
    let n = refs.len();
    if n < f + 3 {
        return Err(AggError::TooFewUpdates {
            rule: "krum",
            needed: f + 3,
            got: n,
        });
    }
    debug_assert_eq!(scores.len(), n, "krum: one score slot per update");
    let k = n - f - 2;
    let block = krum_tile_rows(n, refs.first().map_or(0, |v| v.len()));
    let mut tile = scratch_f32(Purpose::DistTile, block * n);
    for (b, out) in scores.chunks_mut(block).enumerate() {
        let lo = b * block;
        let Some(tile) = tile.get_mut(..out.len() * n) else {
            continue;
        };
        if out.len() == n {
            vecops::pairwise_sq_distances_into(refs, tile);
        } else {
            vecops::sq_distance_tile_into(refs, lo, tile);
        }
        let tile = &*tile;
        let select = |r: usize, score: &mut [f32]| {
            let i = lo + r;
            let mut row = scratch_f32(Purpose::KrumRow, n - 1);
            let drow = tile.get(r * n..(r + 1) * n).unwrap_or_default();
            let others = drow.iter().enumerate().filter(|&(j, _)| j != i);
            for (slot, (_, &dist)) in row.iter_mut().zip(others) {
                *slot = dist;
            }
            row.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            if let Some(s) = score.first_mut() {
                *s = row.iter().take(k).sum();
            }
        };
        if out.len() * n < KRUM_SELECT_PAR_ENTRIES {
            for (r, score) in out.chunks_mut(1).enumerate() {
                select(r, score);
            }
        } else {
            par::for_each_chunk_mut(out, 1, select);
        }
    }
    Ok(())
}

/// Krum scores for a `pool` of row/column indices into a precomputed flat
/// row-major `n_total × n_total` pairwise squared-distance matrix (as
/// filled by [`vecops::pairwise_sq_distances_into`]). Returns one score per
/// pool entry, in pool order, bitwise identical to [`krum_scores`] on the
/// pool's vectors. The sort row lives in a [`Purpose::KrumRow`] scratch
/// arena; allocation is limited to the returned `Vec`.
///
/// Bulyan's iterative selection uses the `*_into` form below with a
/// shrinking pool so the O(n²·d) distance pass runs once instead of once
/// per selection round.
///
/// # Errors
///
/// Returns [`AggError::TooFewUpdates`] when the pool has fewer than `f + 3`
/// entries.
pub fn krum_scores_from_dists(
    dists: &[f32],
    n_total: usize,
    pool: &[usize],
    f: usize,
) -> Result<Vec<f32>, AggError> {
    let n = pool.len();
    if n < f + 3 {
        return Err(AggError::TooFewUpdates {
            rule: "krum",
            needed: f + 3,
            got: n,
        });
    }
    let mut scores = vec![0.0f32; n];
    let mut row = scratch_f32(Purpose::KrumRow, n - 1);
    krum_scores_into(dists, n_total, pool, f, &mut scores, &mut row)?;
    Ok(scores)
}

/// Allocation-free Krum scoring kernel: writes one score per `pool` entry
/// into `scores` using `row` (length exactly `pool.len() − 1`) as the
/// nearest-neighbour sort workspace. `dists` is the flat row-major
/// `n_total × n_total` squared-distance matrix the pool indexes into. The
/// neighbour sort is `sort_unstable_by` — in-place, allocation-free, and
/// value-identical for equal `f32` keys, so scores match the stable-sorted
/// history bit for bit.
///
/// # Errors
///
/// Returns [`AggError::TooFewUpdates`] when the pool has fewer than `f + 3`
/// entries.
///
/// # Panics
///
/// Panics when `scores.len() != pool.len()`, `row.len() != pool.len() − 1`,
/// or a pool index falls outside the matrix.
pub fn krum_scores_into(
    dists: &[f32],
    n_total: usize,
    pool: &[usize],
    f: usize,
    scores: &mut [f32],
    row: &mut [f32],
) -> Result<(), AggError> {
    let n = pool.len();
    if n < f + 3 {
        return Err(AggError::TooFewUpdates {
            rule: "krum",
            needed: f + 3,
            got: n,
        });
    }
    assert_eq!(scores.len(), n, "krum: one score slot per pool entry");
    assert_eq!(row.len(), n - 1, "krum: row workspace must hold n-1 dists");
    let k = n - f - 2;
    for (s, &i) in scores.iter_mut().zip(pool) {
        // Checked gather of i's distances to the rest of the pool: a miss
        // is impossible (`dists` is the full n_total² matrix) and maps to
        // +inf so misuse would surface in the scores, not a panic.
        let others = pool
            .iter()
            .filter(|&&j| j != i)
            .map(|&j| dists.get(i * n_total + j).copied().unwrap_or(f32::INFINITY));
        for (slot, dist) in row.iter_mut().zip(others) {
            *slot = dist;
        }
        row.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        *s = row.iter().take(k).sum();
    }
    Ok(())
}

/// Classic Krum: selects the single update with the lowest score.
#[derive(Debug, Clone, Copy)]
pub struct Krum {
    f: usize,
}

impl Krum {
    /// Creates Krum tolerating `f` Byzantine clients.
    pub fn new(f: usize) -> Krum {
        Krum { f }
    }
}

impl Defense for Krum {
    fn aggregate(&self, updates: &[Vec<f32>], _weights: &[f32]) -> Result<Aggregation, AggError> {
        let v = finite_updates(updates)?;
        let scores = krum_scores(&v.refs, self.f)?;
        let best = scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .expect("scores nonempty");
        Ok(Aggregation {
            model: v.refs[best].to_vec(),
            selection: Selection::Chosen(vec![v.idx[best]]),
            rejected_non_finite: v.rejected_non_finite,
            rejected_malformed: v.rejected_malformed,
        })
    }

    fn name(&self) -> &'static str {
        "Krum"
    }
}

/// Multi-Krum (mKrum): selects the `m` lowest-score updates and averages
/// them — interpolating between Krum (`m = 1`) and plain averaging
/// (`m = n`). The paper's default is `m = n − f − 2`.
#[derive(Debug, Clone, Copy)]
pub struct MultiKrum {
    f: usize,
    m: Option<usize>,
}

impl MultiKrum {
    /// Creates Multi-Krum tolerating `f` Byzantine clients and selecting
    /// exactly `m` updates.
    ///
    /// # Errors
    ///
    /// Returns [`AggError::InvalidParameter`] when `m == 0`.
    pub fn new(f: usize, m: usize) -> Result<MultiKrum, AggError> {
        if m == 0 {
            return Err(AggError::InvalidParameter("mKrum needs m >= 1".into()));
        }
        Ok(MultiKrum { f, m: Some(m) })
    }

    /// Creates Multi-Krum with the default selection size `m = n − f − 2`
    /// (resolved per round from the number of submitted updates).
    pub fn with_default_m(f: usize) -> MultiKrum {
        MultiKrum { f, m: None }
    }
}

impl Defense for MultiKrum {
    fn aggregate(&self, updates: &[Vec<f32>], _weights: &[f32]) -> Result<Aggregation, AggError> {
        let v = finite_updates(updates)?;
        let n = v.refs.len();
        let scores = krum_scores(&v.refs, self.f)?;
        let m = self.m.unwrap_or_else(|| (n - self.f - 2).max(1)).min(n);
        let mut order: Vec<usize> = (0..n).collect();
        // Index tie-break: equal scores must order deterministically or
        // the selected cohort depends on the (unstable) sort's whims.
        order.sort_by(|&a, &b| {
            (scores[a], a)
                .partial_cmp(&(scores[b], b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let chosen_local = &order[..m];
        let chosen_refs: Vec<&[f32]> = chosen_local.iter().map(|&i| v.refs[i]).collect();
        let model = vecops::mean(&chosen_refs);
        let mut chosen: Vec<usize> = chosen_local.iter().map(|&i| v.idx[i]).collect();
        chosen.sort_unstable();
        Ok(Aggregation {
            model,
            selection: Selection::Chosen(chosen),
            rejected_non_finite: v.rejected_non_finite,
            rejected_malformed: v.rejected_malformed,
        })
    }

    fn name(&self) -> &'static str {
        "mKrum"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster_with_outlier() -> Vec<Vec<f32>> {
        vec![
            vec![1.0, 1.0],
            vec![1.1, 0.9],
            vec![0.9, 1.1],
            vec![1.05, 1.0],
            vec![0.95, 1.0],
            vec![50.0, -50.0],
        ]
    }

    #[test]
    fn scores_rank_outlier_last() {
        let ups = cluster_with_outlier();
        let refs: Vec<&[f32]> = ups.iter().map(|u| u.as_slice()).collect();
        let scores = krum_scores(&refs, 1).unwrap();
        let worst = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(worst, 5);
    }

    #[test]
    fn krum_picks_a_cluster_member() {
        let ups = cluster_with_outlier();
        let agg = Krum::new(1).aggregate(&ups, &[1.0; 6]).unwrap();
        match agg.selection {
            Selection::Chosen(ref c) => {
                assert_eq!(c.len(), 1);
                assert!(c[0] < 5, "picked the outlier");
            }
            _ => panic!("krum must report a selection"),
        }
        // Output equals the chosen update verbatim.
        assert!((agg.model[0] - 1.0).abs() < 0.2);
    }

    #[test]
    fn mkrum_excludes_outlier_and_averages() {
        let ups = cluster_with_outlier();
        let agg = MultiKrum::new(1, 3)
            .unwrap()
            .aggregate(&ups, &[1.0; 6])
            .unwrap();
        match agg.selection {
            Selection::Chosen(ref c) => {
                assert_eq!(c.len(), 3);
                assert!(!c.contains(&5));
            }
            _ => panic!(),
        }
        assert!((agg.model[0] - 1.0).abs() < 0.15);
        assert!((agg.model[1] - 1.0).abs() < 0.15);
    }

    #[test]
    fn default_m_is_n_minus_f_minus_2() {
        let ups = cluster_with_outlier(); // n = 6
        let agg = MultiKrum::with_default_m(1)
            .aggregate(&ups, &[1.0; 6])
            .unwrap();
        match agg.selection {
            Selection::Chosen(ref c) => assert_eq!(c.len(), 3), // 6 - 1 - 2
            _ => panic!(),
        }
    }

    #[test]
    fn too_few_updates_is_an_error() {
        let ups = vec![vec![1.0], vec![2.0], vec![3.0]];
        assert!(matches!(
            Krum::new(1).aggregate(&ups, &[1.0; 3]),
            Err(AggError::TooFewUpdates { .. })
        ));
    }

    #[test]
    fn mkrum_rejects_zero_m() {
        assert!(MultiKrum::new(1, 0).is_err());
    }

    #[test]
    fn blocked_scores_match_dense_matrix_bitwise() {
        // n > KRUM_ROW_BLOCK so the tile loop takes more than one block.
        let n = KRUM_ROW_BLOCK + 29;
        let ups: Vec<Vec<f32>> = (0..n)
            .map(|u| {
                (0..17)
                    .map(|i| ((u * 17 + i) as f32 * 0.13).sin())
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = ups.iter().map(|u| u.as_slice()).collect();
        let blocked = krum_scores(&refs, 7).unwrap();
        let mut dists = vec![0.0f32; n * n];
        vecops::pairwise_sq_distances_into(&refs, &mut dists);
        let pool: Vec<usize> = (0..n).collect();
        let dense = krum_scores_from_dists(&dists, n, &pool, 7).unwrap();
        for (b, d) in blocked.iter().zip(&dense) {
            assert_eq!(b.to_bits(), d.to_bits());
        }
    }

    /// Both tile regimes against the serial dense matrix: `n` just below,
    /// at and just above `d` (pair-once, pair-once, row tiles), the
    /// smallest cohort Krum accepts on either side of `d`, and a cohort
    /// above `KRUM_ROW_BLOCK` still below `d`.
    #[test]
    fn scores_match_serial_dense_matrix_on_both_sides_of_d() {
        let f = 3;
        for (n, d) in [
            (19, 20),
            (20, 20),
            (21, 20),
            (f + 3, 20),
            (f + 3, 5),
            (157, 300),
        ] {
            let ups: Vec<Vec<f32>> = (0..n)
                .map(|u| {
                    (0..d)
                        .map(|i| ((u * d + i) as f32 * 0.29).sin() * (1 + u % 3) as f32)
                        .collect()
                })
                .collect();
            let refs: Vec<&[f32]> = ups.iter().map(|u| u.as_slice()).collect();
            let got = krum_scores(&refs, f).unwrap();
            let dists: Vec<f32> = vecops::pairwise_sq_distances_serial(&refs).concat();
            let pool: Vec<usize> = (0..n).collect();
            let want = krum_scores_from_dists(&dists, n, &pool, f).unwrap();
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "n={n} d={d} score {i}");
            }
        }
    }

    #[test]
    fn tile_rows_cover_the_matrix_when_n_is_at_most_d() {
        assert_eq!(krum_tile_rows(993, 9_098), 993);
        assert_eq!(krum_tile_rows(1_024, 1_024), 1_024);
        assert_eq!(krum_tile_rows(1_025, 1_024), KRUM_ROW_BLOCK);
        assert_eq!(krum_tile_rows(40, 10), 40);
        assert_eq!(krum_tile_rows(5_000, 256), KRUM_ROW_BLOCK);
    }

    #[test]
    fn nan_update_cannot_hide_in_selection() {
        let mut ups = cluster_with_outlier();
        ups[5] = vec![f32::NAN, f32::NAN];
        let agg = MultiKrum::new(1, 3)
            .unwrap()
            .aggregate(&ups, &[1.0; 6])
            .unwrap();
        assert_eq!(agg.rejected_non_finite, vec![5]);
        assert!(agg.model.iter().all(|v| v.is_finite()));
    }
}

#[cfg(test)]
mod sybil_geometry_tests {
    use super::*;
    use crate::Selection;

    /// Documents the identical-copy phenomenon observed in the evaluation
    /// (EXPERIMENTS.md, micro_random): duplicate malicious updates have
    /// zero mutual distance, which *lowers* their Krum scores and can pull
    /// them into a selection that would reject a single copy. Distance
    /// defenses punish outliers, not collusion — that is exactly the gap
    /// Sybil defenses like FoolsGold fill.
    #[test]
    fn identical_copies_lower_each_others_krum_scores() {
        // Two rounds with the same total population n = 8 (so Krum's
        // neighbour count k is identical): 7 benign + 1 malicious copy vs
        // 6 benign + 2 identical malicious copies.
        let benign = |count: usize| -> Vec<Vec<f32>> {
            (0..count)
                .map(|i| {
                    let e = (i as f32 * 0.9).sin() * 0.2;
                    vec![1.0 + e, -1.0 - e, 0.5]
                })
                .collect()
        };
        let mal = vec![2.5f32, -2.5, 1.5];

        let mut one_copy = benign(7);
        one_copy.push(mal.clone());
        let refs1: Vec<&[f32]> = one_copy.iter().map(|u| u.as_slice()).collect();
        let s1 = krum_scores(&refs1, 2).unwrap();

        let mut two_copies = benign(6);
        two_copies.push(mal.clone());
        two_copies.push(mal.clone());
        let refs2: Vec<&[f32]> = two_copies.iter().map(|u| u.as_slice()).collect();
        let s2 = krum_scores(&refs2, 2).unwrap();

        // The malicious score strictly improves when a twin is present
        // (one of its k nearest-neighbour distances becomes zero).
        assert!(
            s2[6] < s1[7],
            "twin should lower the malicious score: {} !< {}",
            s2[6],
            s1[7]
        );
    }

    #[test]
    fn foolsgold_catches_what_mkrum_tolerates() {
        // The same colluding geometry: mKrum may select the twins, the
        // Sybil defense never does.
        use crate::{Defense, FoolsGold};
        let mut ups: Vec<Vec<f32>> = (0..6)
            .map(|i| {
                let e = (i as f32 * 2.1).sin();
                vec![e, (i as f32 * 1.3).cos(), -e, 0.4 * e, 1.0 - e, e * e]
            })
            .collect();
        let mal = vec![0.3f32, 0.3, 0.3, 0.3, 0.3, 0.3];
        ups.push(mal.clone());
        ups.push(mal);
        let fg = FoolsGold::new().aggregate(&ups, &[1.0; 8]).unwrap();
        match fg.selection {
            Selection::Chosen(ref c) => {
                assert!(
                    !c.contains(&6) && !c.contains(&7),
                    "foolsgold missed the twins: {c:?}"
                );
            }
            _ => panic!(),
        }
    }
}
