use crate::krum::{krum_scores, krum_scores_into};
use crate::types::finite_updates;
use crate::{AggError, Aggregation, Defense, Selection};
use fabflip_tensor::scratch::{scratch_f32, Purpose};
use fabflip_tensor::{par, vecops};

/// Minimum `coordinates × selected` work before stage 2 goes parallel.
const PAR_STAGE2_WORK: usize = 1 << 20;

/// Largest pool the exact iterative stage-1 selection handles. Up to this
/// size Bulyan materializes the dense `n × n` distance matrix and re-runs
/// Krum per selection round — the historical, bitwise-stable path. Above
/// it, stage 1 degrades to a single blocked Krum ranking (see
/// [`select_ranked`] and DESIGN.md §4e) so distance memory stays within
/// the blocked scorer's `max(B·n, n·d)`.
pub const BULYAN_DENSE_MAX: usize = 512;

/// Smallest tolerated Byzantine count Bulyan can aggregate with. Its last
/// selection round runs Krum on a pool of `n − θ + 1 = 2f + 1` updates,
/// and Krum needs `f + 3`, so `f ≥ 2`; a smaller `f` fails on every `n`.
pub const BULYAN_MIN_F: usize = 2;

/// Rejects a Bulyan `f` below [`BULYAN_MIN_F`].
pub(crate) fn check_f(f: usize) -> Result<(), AggError> {
    if f < BULYAN_MIN_F {
        return Err(AggError::InvalidParameter(format!(
            "Bulyan needs f >= {BULYAN_MIN_F}, got {f}: its last selection round \
             runs Krum (which needs f+3 updates) on a pool of 2f+1"
        )));
    }
    Ok(())
}

/// Bulyan's stage-2 coordinate kernel, allocation-free: for each
/// coordinate of `out` (coordinates `lo..lo + out.len()` of the model),
/// averages the `beta` values among `selected` closest to the
/// coordinate-wise median. `cols` is a `3 × selected.len()` workspace
/// (gather column, median sort, closeness sort).
///
/// Closeness ties break on the value itself — the sort key is the
/// lexicographic pair `(|v − median|, v)` — so the result is a pure
/// function of the column's *values*, independent of sort stability and
/// of the order updates arrived in.
///
/// # Panics
///
/// Panics when `cols.len() != 3 * selected.len()`, `beta` exceeds the
/// column length, or a coordinate index falls outside a selected update.
pub fn bulyan_coordinate_chunk(
    selected: &[&[f32]],
    lo: usize,
    out: &mut [f32],
    beta: usize,
    cols: &mut [f32],
) {
    let theta = selected.len();
    assert_eq!(cols.len(), 3 * theta, "bulyan: cols workspace is 3·θ");
    let (column, rest) = cols.split_at_mut(theta);
    let (sorted, by_closeness) = rest.split_at_mut(theta);
    for (i, out_v) in out.iter_mut().enumerate() {
        let coord = lo + i;
        for (slot, r) in column.iter_mut().zip(selected) {
            *slot = r[coord];
        }
        sorted.copy_from_slice(column);
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let med = if theta % 2 == 1 {
            sorted[theta / 2]
        } else {
            0.5 * (sorted[theta / 2 - 1] + sorted[theta / 2])
        };
        // β values closest to the median, value tie-broken.
        by_closeness.copy_from_slice(column);
        by_closeness.sort_unstable_by(|a, b| {
            ((a - med).abs(), *a)
                .partial_cmp(&((b - med).abs(), *b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        // fabcheck::allow(unordered_float_reduction): serial sum over the value-sorted prefix; iteration order is the sorted order, fixed
        *out_v = by_closeness[..beta].iter().sum::<f32>() / beta as f32;
    }
}

/// Exact stage-1 selection (pools of at most [`BULYAN_DENSE_MAX`]): the
/// flat pairwise distance matrix is computed once (parallel over rows
/// inside `vecops`) and each selection round re-scores the shrinking pool
/// from it with buffers reused across rounds, instead of recomputing all
/// O(n²·d) distances (and reallocating) per round. Returns `theta` local
/// indices in selection order.
fn select_iterative(refs: &[&[f32]], f: usize, theta: usize) -> Result<Vec<usize>, AggError> {
    let n = refs.len();
    let mut dists = vec![0.0f32; n * n];
    vecops::pairwise_sq_distances_into(refs, &mut dists);
    let mut pool: Vec<usize> = (0..n).collect(); // local indices
    let mut selected: Vec<usize> = Vec::with_capacity(theta);
    let mut scores_buf = vec![0.0f32; n];
    let mut row_buf = vec![0.0f32; n - 1];
    while selected.len() < theta {
        let m = pool.len();
        let scores = &mut scores_buf[..m];
        krum_scores_into(&dists, n, &pool, f, scores, &mut row_buf[..m - 1])?;
        let best_pos = scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .expect("pool nonempty");
        selected.push(pool.remove(best_pos));
    }
    Ok(selected)
}

/// Large-pool stage-1 degradation (DESIGN.md §4e): one blocked Krum
/// scoring pass over the full pool, then the θ lowest-score updates by the
/// deterministic key `(score, index)`. This keeps resident distance
/// memory within `max(B·n, n·d)`, no more than one row tile or the cohort
/// itself — the iterative rule needs the dense O(n²) matrix at any `d`
/// *and* θ ≈ n re-scoring rounds, both quadratic at million-client
/// scale. The selection set can differ from the iterative rule's (which
/// re-scores after each removal); stage 2 is unchanged and exact either
/// way.
fn select_ranked(refs: &[&[f32]], f: usize, theta: usize) -> Result<Vec<usize>, AggError> {
    let scores = krum_scores(refs, f)?;
    let mut order: Vec<usize> = (0..refs.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        (scores[a], a)
            .partial_cmp(&(scores[b], b))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    order.truncate(theta);
    Ok(order)
}

/// Bulyan (El Mhamdi et al., 2018): two-stage robust aggregation.
///
/// 1. **Selection** — iteratively run Krum, each time moving the
///    lowest-score update into the selection set `S` and removing it from
///    the pool, until `|S| = θ = n − 2f`. Pools above [`BULYAN_DENSE_MAX`]
///    switch to a single blocked Krum ranking (DESIGN.md §4e) so stage 1
///    never materializes the dense distance matrix.
/// 2. **Aggregation** — per coordinate, average the `β = θ − 2f` values of
///    `S` closest to the coordinate-wise median.
///
/// The paper calls Bulyan the most aggressive of its four defenses; with
/// `n = 10, f = 2` it keeps θ = 6 updates and averages the β = 2 most
/// median-like values per coordinate.
#[derive(Debug, Clone, Copy)]
pub struct Bulyan {
    f: usize,
}

impl Bulyan {
    /// Creates Bulyan tolerating `f` Byzantine clients. `f` must be at
    /// least [`BULYAN_MIN_F`]; below it `aggregate` returns
    /// [`AggError::InvalidParameter`] (and `DefenseKind::build` refuses
    /// to build it).
    pub fn new(f: usize) -> Bulyan {
        Bulyan { f }
    }
}

impl Defense for Bulyan {
    fn aggregate(&self, updates: &[Vec<f32>], _weights: &[f32]) -> Result<Aggregation, AggError> {
        let v = finite_updates(updates)?;
        let (idx, refs) = (v.idx, v.refs);
        let n = refs.len();
        let f = self.f;
        check_f(f)?;
        // Need θ = n − 2f ≥ 1 and the Krum precondition on the *last*
        // selection round: pool size n − θ + 1 ≥ f + 3.
        let theta = n
            .checked_sub(2 * f)
            .filter(|&t| t >= 1)
            .ok_or(AggError::TooFewUpdates {
                rule: "bulyan",
                needed: 2 * f + 1,
                got: n,
            })?;
        let beta = theta.saturating_sub(2 * f).max(1);
        if n < theta + f + 2 {
            return Err(AggError::TooFewUpdates {
                rule: "bulyan",
                needed: theta + f + 2,
                got: n,
            });
        }

        // Stage 1: pick θ most-central updates. Small pools use the exact
        // iterative selection on a dense distance matrix; large pools use
        // one blocked ranking pass so nothing O(n²) is ever resident.
        let selected = if n <= BULYAN_DENSE_MAX {
            select_iterative(&refs, f, theta)?
        } else {
            select_ranked(&refs, f, theta)?
        };

        // Stage 2: per-coordinate trimmed mean around the median, in fixed
        // coordinate chunks (parallel above PAR_STAGE2_WORK) with the
        // column/sort workspace drawn from the executing thread's scratch
        // arena. Every coordinate is an independent pure function of the
        // selected column, so chunking cannot change results.
        let d = refs[0].len();
        let mut model = vec![0.0f32; d];
        let selected_refs: Vec<&[f32]> = selected.iter().map(|&i| refs[i]).collect();
        let stage2 = |chunk_idx: usize, out: &mut [f32]| {
            let mut cols = scratch_f32(Purpose::BulyanCols, 3 * theta);
            bulyan_coordinate_chunk(&selected_refs, chunk_idx * par::CHUNK, out, beta, &mut cols);
        };
        if d.saturating_mul(theta) < PAR_STAGE2_WORK || par::max_threads() == 1 {
            for (ci, chunk) in model.chunks_mut(par::CHUNK).enumerate() {
                stage2(ci, chunk);
            }
        } else {
            par::for_each_chunk_mut(&mut model, par::CHUNK, stage2);
        }

        let mut chosen: Vec<usize> = selected.iter().map(|&i| idx[i]).collect();
        chosen.sort_unstable();
        Ok(Aggregation {
            model,
            selection: Selection::Chosen(chosen),
            rejected_non_finite: v.rejected_non_finite,
            rejected_malformed: v.rejected_malformed,
        })
    }

    fn name(&self) -> &'static str {
        "Bulyan"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benign_cluster(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                let eps = (i as f32 * 0.713).sin() * 0.1;
                vec![1.0 + eps, -1.0 - eps, 0.5 + 0.5 * eps]
            })
            .collect()
    }

    #[test]
    fn excludes_large_outliers_from_selection() {
        let mut ups = benign_cluster(8);
        ups.push(vec![100.0, 100.0, 100.0]);
        ups.push(vec![-100.0, -100.0, -100.0]);
        let agg = Bulyan::new(2).aggregate(&ups, &[1.0; 10]).unwrap();
        match agg.selection {
            Selection::Chosen(ref c) => {
                assert_eq!(c.len(), 6); // θ = 10 − 4
                assert!(!c.contains(&8) && !c.contains(&9));
            }
            _ => panic!(),
        }
        assert!((agg.model[0] - 1.0).abs() < 0.2, "{:?}", agg.model);
    }

    #[test]
    fn paper_geometry_n10_f2() {
        let ups = benign_cluster(10);
        let agg = Bulyan::new(2).aggregate(&ups, &[1.0; 10]).unwrap();
        match agg.selection {
            Selection::Chosen(ref c) => assert_eq!(c.len(), 6),
            _ => panic!(),
        }
    }

    #[test]
    fn output_bounded_by_selected_values() {
        let ups = benign_cluster(10);
        let agg = Bulyan::new(2).aggregate(&ups, &[1.0; 10]).unwrap();
        for coord in 0..3 {
            let lo = ups.iter().map(|u| u[coord]).fold(f32::INFINITY, f32::min);
            let hi = ups
                .iter()
                .map(|u| u[coord])
                .fold(f32::NEG_INFINITY, f32::max);
            assert!(agg.model[coord] >= lo && agg.model[coord] <= hi);
        }
    }

    #[test]
    fn large_pool_ranked_selection_excludes_outliers() {
        // n > BULYAN_DENSE_MAX exercises the single-pass ranked stage 1.
        let f = 6;
        let n = BULYAN_DENSE_MAX + 10;
        let mut ups = benign_cluster(n - f);
        for i in 0..f {
            let s = if i % 2 == 0 { 200.0 } else { -200.0 };
            ups.push(vec![s, s, s]);
        }
        let agg = Bulyan::new(f).aggregate(&ups, &vec![1.0; n]).unwrap();
        match agg.selection {
            Selection::Chosen(ref c) => {
                assert_eq!(c.len(), n - 2 * f);
                for outlier in (n - f)..n {
                    assert!(!c.contains(&outlier), "outlier {outlier} selected");
                }
            }
            _ => panic!(),
        }
        assert!((agg.model[0] - 1.0).abs() < 0.2, "{:?}", &agg.model[..3]);
    }

    #[test]
    fn ranked_selection_breaks_score_ties_by_index() {
        // Identical updates share a score; the (score, index) key must
        // order them by index deterministically.
        let ups: Vec<Vec<f32>> = (0..8).map(|_| vec![1.0, -1.0, 0.5]).collect();
        let refs: Vec<&[f32]> = ups.iter().map(|u| u.as_slice()).collect();
        let sel = select_ranked(&refs, 1, 4).unwrap();
        assert_eq!(sel, vec![0, 1, 2, 3]);
    }

    #[test]
    fn f_below_two_is_rejected_at_every_n() {
        use crate::DefenseKind;
        for f in 0..BULYAN_MIN_F {
            assert!(
                matches!(
                    DefenseKind::Bulyan { f }.build(),
                    Err(AggError::InvalidParameter(_))
                ),
                "build accepted Bulyan f = {f}"
            );
            for n in [3, 5, 10, 40] {
                let ups = benign_cluster(n);
                assert!(
                    matches!(
                        Bulyan::new(f).aggregate(&ups, &vec![1.0; n]),
                        Err(AggError::InvalidParameter(_))
                    ),
                    "f = {f}, n = {n}"
                );
                // The dynamic quorum never degrades into the bad range.
                assert_eq!(DefenseKind::Bulyan { f }.for_cohort(n), None);
            }
        }
        // f = 2 is the smallest that aggregates, from n = 2f + 1 up.
        for n in [5, 10, 40] {
            let ups = benign_cluster(n);
            assert!(Bulyan::new(BULYAN_MIN_F)
                .aggregate(&ups, &vec![1.0; n])
                .is_ok());
        }
    }

    #[test]
    fn too_few_updates_error() {
        // θ = n − 2f underflows at n = 4, f = 2.
        let ups = benign_cluster(4);
        assert!(matches!(
            Bulyan::new(2).aggregate(&ups, &[1.0; 4]),
            Err(AggError::TooFewUpdates { .. })
        ));
        // n = 5 is degenerate (θ = 1) but valid under the paper's relaxed
        // geometry (the paper itself runs n = 10 < 4f + 3): must succeed.
        let ups5 = benign_cluster(5);
        assert!(Bulyan::new(2).aggregate(&ups5, &[1.0; 5]).is_ok());
    }
}
