//! Algebra on flat `f32` parameter vectors.
//!
//! Federated aggregation rules (Krum, trimmed mean, median, Bulyan) and the
//! model-poisoning attacks (LIE, Min-Max, the ZKA distance regularizer) are
//! all defined on the flattened weight vector of a model. This module is the
//! shared vocabulary for those computations.
//!
//! The set-reductions (`mean`, `std_dev`, `median`, `trimmed_mean`,
//! `pairwise_sq_distances`) are chunk-parallel: coordinates are tiled into
//! fixed [`par::CHUNK`]-sized blocks dispatched across the [`crate::par`]
//! thread budget. Chunk boundaries never split a coordinate's reduction, so
//! results are bitwise identical to the retained `*_serial` references at
//! any thread count.
//!
//! Each reduction has an allocation-free `*_into` entry writing into a
//! caller-provided output slice (temporaries come from [`crate::scratch`]
//! arenas); the `Vec`-returning names are thin wrappers that allocate the
//! output once and delegate. The `*_into` family is the fabcheck hot-path
//! entry set — everything reachable from it must stay allocation-free.
//!
//! The hot primitives — [`dot`], [`l2_norm`], the `*_delta` forms, and the
//! mean/variance chunk kernels — execute on the active [`crate::backend`]
//! (DESIGN.md §4f), and every one of them returns the same bits on every
//! backend. The norms are square roots of [`dot`] and [`dot_delta`], and
//! `dot_delta`/`l2_norm_delta` stay bitwise equal to their materialized
//! `dot`/`l2_norm` counterparts.

use crate::backend::{self, CpuBackend};
use crate::par;
use crate::scratch::{scratch_f32, Purpose};

/// Work threshold (total input floats) below which the set-reductions stay
/// on the calling thread.
const PAR_ELEMS: usize = 1 << 20;

/// Dot product of two equally long slices, on the active backend (one
/// fixed striped accumulation order, bitwise identical on every backend;
/// see [`CpuBackend::dot`]).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    backend::active().dot(a, b)
}

/// Euclidean norm, `dot(a, a).sqrt()` — bitwise identical on every
/// backend.
pub fn l2_norm(a: &[f32]) -> f32 {
    backend::active().dot(a, a).sqrt()
}

/// Squared Euclidean distance between two vectors.
///
/// Accumulates in four independent lanes combined as
/// `((s0 + s1) + (s2 + s3)) + tail` — a fixed reduction tree, so results
/// are deterministic across calls. The register-blocked Krum/Bulyan tile
/// kernel ([`sq_distance_tile_into`], through
/// [`CpuBackend::sq_distance_rows`]) reproduces it entry for entry on
/// every backend.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sq_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "sq_distance: length mismatch");
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    // `chunks_exact` + slice patterns keep the four-lane shape with no
    // bounds checks (and no panic sites for the hot-path ratchet).
    let (qa, qb) = (a.chunks_exact(4), b.chunks_exact(4));
    let (ra, rb) = (qa.remainder(), qb.remainder());
    for (ca, cb) in qa.zip(qb) {
        if let ([a0, a1, a2, a3], [b0, b1, b2, b3]) = (ca, cb) {
            let d0 = a0 - b0;
            let d1 = a1 - b1;
            let d2 = a2 - b2;
            let d3 = a3 - b3;
            s0 += d0 * d0;
            s1 += d1 * d1;
            s2 += d2 * d2;
            s3 += d3 * d3;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ra.iter().zip(rb) {
        let d = x - y;
        tail += d * d;
    }
    ((s0 + s1) + (s2 + s3)) + tail
}

/// `Σᵢ (aᵢ−rᵢ)·(bᵢ−rᵢ)` without materializing the deltas — bitwise
/// identical to `dot(&sub(a, r), &sub(b, r))` (it runs [`dot`]'s
/// accumulation structure on the on-the-fly deltas), but O(1) resident.
/// The per-entry kernel of the tiled FoolsGold cosine pass.
///
/// # Panics
///
/// Panics if `b` or `r` differs in length from `a`.
pub fn dot_delta(a: &[f32], b: &[f32], r: &[f32]) -> f32 {
    check_lengths(&[b, r], a.len(), "dot_delta");
    backend::active().dot_delta(a, b, r)
}

/// `‖a − r‖₂`, `dot_delta(a, a, r).sqrt()` without materializing the
/// delta — bitwise identical to `l2_norm(&sub(a, r))`.
///
/// # Panics
///
/// Panics if `r` differs in length from `a`.
pub fn l2_norm_delta(a: &[f32], r: &[f32]) -> f32 {
    check_lengths(&[r], a.len(), "l2_norm_delta");
    backend::active().dot_delta(a, a, r).sqrt()
}

/// Euclidean distance between two vectors.
pub fn l2_distance(a: &[f32], b: &[f32]) -> f32 {
    sq_distance(a, b).sqrt()
}

/// `out = a + b` element-wise.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// `out = a - b` element-wise.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// `out = alpha * a`.
pub fn scale(a: &[f32], alpha: f32) -> Vec<f32> {
    a.iter().map(|x| x * alpha).collect()
}

/// In-place `a += alpha * b` (element-wise on the active backend; bitwise
/// identical across backends — separate mul/add per coordinate).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy_in_place(a: &mut [f32], alpha: f32, b: &[f32]) {
    assert_eq!(a.len(), b.len(), "axpy: length mismatch");
    backend::active().axpy_assign(a, alpha, b);
}

/// Returns the unit vector `a / ‖a‖₂`, or a zero vector when `‖a‖₂ == 0`.
pub fn unit(a: &[f32]) -> Vec<f32> {
    let n = l2_norm(a);
    if n == 0.0 {
        vec![0.0; a.len()]
    } else {
        scale(a, 1.0 / n)
    }
}

/// Element-wise sign vector (−1, 0, +1).
pub fn sign(a: &[f32]) -> Vec<f32> {
    a.iter()
        .map(|&x| {
            if x > 0.0 {
                1.0
            } else if x < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
        .collect()
}

/// Asserts every vector in `vs` has length `d`.
fn check_lengths(vs: &[&[f32]], d: usize, op: &str) {
    for v in vs {
        assert_eq!(v.len(), d, "{op}: length mismatch");
    }
}

/// Accumulation kernel shared by [`mean`] and [`mean_serial`]: fills
/// `out[..]` (the coordinates starting at `lo`) with the vector-order sum
/// scaled by `inv`. Element-wise on the active backend — per-coordinate
/// op chains, bitwise identical across backends.
fn mean_chunk(be: &dyn CpuBackend, vs: &[&[f32]], lo: usize, out: &mut [f32], inv: f32) {
    out.fill(0.0);
    for v in vs {
        // Entry validation (`check_lengths`) makes the miss arm
        // unreachable; checked slicing keeps the hot path panic-free.
        let Some(src) = v.get(lo..lo + out.len()) else {
            continue;
        };
        be.add_assign(out, src);
    }
    be.scale_assign(out, inv);
}

/// Variance kernel shared by [`std_dev`] and [`std_dev_serial`];
/// `m` is the already computed coordinate-wise mean. Element-wise on the
/// active backend — bitwise identical across backends.
fn std_chunk(be: &dyn CpuBackend, vs: &[&[f32]], lo: usize, out: &mut [f32], m: &[f32], inv: f32) {
    out.fill(0.0);
    let Some(ms) = m.get(lo..lo + out.len()) else {
        return;
    };
    for v in vs {
        // Entry validation (`check_lengths`) makes the miss arm
        // unreachable; checked slicing keeps the hot path panic-free.
        let Some(src) = v.get(lo..lo + out.len()) else {
            continue;
        };
        be.sq_dev_assign(out, src, ms);
    }
    be.scale_sqrt_assign(out, inv);
}

/// Sorted-column kernel shared by [`median_into`]/[`trimmed_mean_into`]
/// and the serial references. For each coordinate of the chunk, gathers
/// the column into `buf` (exactly `vs.len()` long, reused across the whole
/// chunk), sorts it in place, and reduces via `pick`. The sort is
/// `sort_unstable_by`: in-place pdqsort, no allocation, and for `f32` keys
/// stability is unobservable (equal floats are bitwise interchangeable),
/// so serial and parallel columns stay bitwise identical.
fn sorted_column_chunk(
    vs: &[&[f32]],
    lo: usize,
    out: &mut [f32],
    buf: &mut [f32],
    pick: impl Fn(&[f32]) -> f32,
) {
    debug_assert_eq!(buf.len(), vs.len());
    for (i, o) in out.iter_mut().enumerate() {
        for (slot, v) in buf.iter_mut().zip(vs) {
            // Checked gather: entry validation (`check_lengths`) makes the
            // miss arm unreachable, so no panic site on the hot path.
            *slot = v.get(lo + i).copied().unwrap_or(0.0);
        }
        buf.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Less));
        *o = pick(buf);
    }
}

fn median_of_sorted(buf: &[f32]) -> f32 {
    let n = buf.len();
    if n % 2 == 1 {
        buf[n / 2]
    } else {
        0.5 * (buf[n / 2 - 1] + buf[n / 2])
    }
}

/// Dispatches a per-chunk kernel over `out`, serially below the work
/// threshold and chunk-parallel above it. `work` is the total number of
/// input floats feeding the reduction.
fn run_chunked(out: &mut [f32], work: usize, kernel: impl Fn(usize, &mut [f32]) + Sync) {
    if work < PAR_ELEMS || par::max_threads() == 1 {
        for (idx, chunk) in out.chunks_mut(par::CHUNK).enumerate() {
            kernel(idx * par::CHUNK, chunk);
        }
    } else {
        par::for_each_chunk_mut(out, par::CHUNK, |idx, chunk| {
            kernel(idx * par::CHUNK, chunk)
        });
    }
}

/// Coordinate-wise mean of `vs`, written into `out` (allocation-free).
///
/// Chunk-parallel; bitwise identical to [`mean_serial`].
///
/// # Panics
///
/// Panics when `vs` is empty or any length differs from `out.len()`.
pub fn mean_into(vs: &[&[f32]], out: &mut [f32]) {
    assert!(!vs.is_empty(), "mean of zero vectors");
    let d = out.len();
    check_lengths(vs, d, "mean");
    let inv = 1.0 / vs.len() as f32;
    let be = backend::active();
    run_chunked(out, d * vs.len(), |lo, chunk| {
        mean_chunk(be, vs, lo, chunk, inv)
    });
}

/// Coordinate-wise mean of a set of equally long vectors.
///
/// Allocates the output then delegates to [`mean_into`].
///
/// # Panics
///
/// Panics when `vs` is empty or lengths differ.
pub fn mean(vs: &[&[f32]]) -> Vec<f32> {
    assert!(!vs.is_empty(), "mean of zero vectors");
    let mut out = vec![0.0f32; vs[0].len()];
    mean_into(vs, &mut out);
    out
}

/// Serial reference for [`mean`].
pub fn mean_serial(vs: &[&[f32]]) -> Vec<f32> {
    assert!(!vs.is_empty(), "mean of zero vectors");
    let d = vs[0].len();
    check_lengths(vs, d, "mean");
    let inv = 1.0 / vs.len() as f32;
    let be = backend::active();
    let mut out = vec![0.0f32; d];
    for (idx, chunk) in out.chunks_mut(par::CHUNK).enumerate() {
        mean_chunk(be, vs, idx * par::CHUNK, chunk, inv);
    }
    out
}

/// Coordinate-wise (population) standard deviation of `vs`, written into
/// `out`. The intermediate mean lives in a [`Purpose::CoordMean`] scratch
/// arena, so the steady state is allocation-free.
///
/// Chunk-parallel; bitwise identical to [`std_dev_serial`].
///
/// # Panics
///
/// Panics when `vs` is empty or any length differs from `out.len()`.
pub fn std_dev_into(vs: &[&[f32]], out: &mut [f32]) {
    assert!(!vs.is_empty(), "std_dev of zero vectors");
    let d = out.len();
    check_lengths(vs, d, "std_dev");
    let inv = 1.0 / vs.len() as f32;
    let be = backend::active();
    let mut m = scratch_f32(Purpose::CoordMean, d);
    run_chunked(&mut m, d * vs.len(), |lo, chunk| {
        mean_chunk(be, vs, lo, chunk, inv)
    });
    let m = &*m;
    run_chunked(out, d * vs.len(), |lo, chunk| {
        std_chunk(be, vs, lo, chunk, m, inv)
    });
}

/// Coordinate-wise (population) standard deviation of a set of vectors.
///
/// Allocates the output then delegates to [`std_dev_into`].
///
/// # Panics
///
/// Panics when `vs` is empty or lengths differ.
pub fn std_dev(vs: &[&[f32]]) -> Vec<f32> {
    assert!(!vs.is_empty(), "std_dev of zero vectors");
    let mut out = vec![0.0f32; vs[0].len()];
    std_dev_into(vs, &mut out);
    out
}

/// Serial reference for [`std_dev`].
pub fn std_dev_serial(vs: &[&[f32]]) -> Vec<f32> {
    let m = mean_serial(vs);
    let d = m.len();
    let inv = 1.0 / vs.len() as f32;
    let be = backend::active();
    let mut out = vec![0.0f32; d];
    for (idx, chunk) in out.chunks_mut(par::CHUNK).enumerate() {
        std_chunk(be, vs, idx * par::CHUNK, chunk, &m, inv);
    }
    out
}

/// Coordinate-wise median of a set of vectors.
///
/// For an even count the lower-upper midpoint is used. NaN coordinates are
/// sorted last and therefore never selected as median unless all values for
/// the coordinate are NaN. Chunk-parallel with one sort scratch per chunk;
/// bitwise identical to [`median_serial`].
///
/// # Panics
///
/// Panics when `vs` is empty or lengths differ.
pub fn median(vs: &[&[f32]]) -> Vec<f32> {
    assert!(!vs.is_empty(), "median of zero vectors");
    let mut out = vec![0.0f32; vs[0].len()];
    median_into(vs, &mut out);
    out
}

/// Coordinate-wise median of `vs`, written into `out`. Per-chunk sort
/// columns come from the executing thread's [`Purpose::SortColumn`]
/// arena, so warm steady-state calls never allocate.
///
/// Chunk-parallel; bitwise identical to [`median_serial`].
///
/// # Panics
///
/// Panics when `vs` is empty or any length differs from `out.len()`.
pub fn median_into(vs: &[&[f32]], out: &mut [f32]) {
    assert!(!vs.is_empty(), "median of zero vectors");
    let d = out.len();
    check_lengths(vs, d, "median");
    run_chunked(out, d * vs.len(), |lo, chunk| {
        let mut buf = scratch_f32(Purpose::SortColumn, vs.len());
        sorted_column_chunk(vs, lo, chunk, &mut buf, median_of_sorted);
    });
}

/// Serial reference for [`median`].
pub fn median_serial(vs: &[&[f32]]) -> Vec<f32> {
    assert!(!vs.is_empty(), "median of zero vectors");
    let d = vs[0].len();
    check_lengths(vs, d, "median");
    let mut out = vec![0.0f32; d];
    let mut buf = vec![0.0f32; vs.len()];
    for (idx, chunk) in out.chunks_mut(par::CHUNK).enumerate() {
        sorted_column_chunk(vs, idx * par::CHUNK, chunk, &mut buf, median_of_sorted);
    }
    out
}

/// Coordinate-wise trimmed mean: drops the `trim` smallest and `trim`
/// largest values per coordinate, averaging the rest.
///
/// Chunk-parallel with one sort scratch per chunk; bitwise identical to
/// [`trimmed_mean_serial`].
///
/// # Panics
///
/// Panics when `vs` is empty, lengths differ, or `2·trim >= vs.len()`.
pub fn trimmed_mean(vs: &[&[f32]], trim: usize) -> Vec<f32> {
    assert!(!vs.is_empty(), "trimmed mean of zero vectors");
    let mut out = vec![0.0f32; vs[0].len()];
    trimmed_mean_into(vs, trim, &mut out);
    out
}

/// Coordinate-wise trimmed mean of `vs`, written into `out`. Sort columns
/// come from the executing thread's [`Purpose::SortColumn`] arena.
///
/// Chunk-parallel; bitwise identical to [`trimmed_mean_serial`].
///
/// # Panics
///
/// Panics when `vs` is empty, any length differs from `out.len()`, or
/// `2·trim >= vs.len()`.
pub fn trimmed_mean_into(vs: &[&[f32]], trim: usize, out: &mut [f32]) {
    assert!(!vs.is_empty(), "trimmed mean of zero vectors");
    let n = vs.len();
    assert!(2 * trim < n, "trim {trim} too large for {n} vectors");
    let d = out.len();
    check_lengths(vs, d, "trimmed_mean");
    let keep = (n - 2 * trim) as f32;
    run_chunked(out, d * n, |lo, chunk| {
        let mut buf = scratch_f32(Purpose::SortColumn, n);
        sorted_column_chunk(vs, lo, chunk, &mut buf, |sorted| {
            // fabcheck::allow(unordered_float_reduction): serial sum over the sorted column window; order fixed by the sort
            sorted.iter().take(n - trim).skip(trim).sum::<f32>() / keep
        });
    });
}

/// Serial reference for [`trimmed_mean`].
pub fn trimmed_mean_serial(vs: &[&[f32]], trim: usize) -> Vec<f32> {
    assert!(!vs.is_empty(), "trimmed mean of zero vectors");
    let n = vs.len();
    assert!(2 * trim < n, "trim {trim} too large for {n} vectors");
    let d = vs[0].len();
    check_lengths(vs, d, "trimmed_mean");
    let keep = (n - 2 * trim) as f32;
    let mut out = vec![0.0f32; d];
    let mut buf = vec![0.0f32; n];
    for (idx, chunk) in out.chunks_mut(par::CHUNK).enumerate() {
        sorted_column_chunk(vs, idx * par::CHUNK, chunk, &mut buf, |sorted| {
            // fabcheck::allow(unordered_float_reduction): serial sum over the sorted column window; order fixed by the sort
            sorted.iter().take(n - trim).skip(trim).sum::<f32>() / keep
        });
    }
    out
}

/// Rows per unit of the blocked distance fill: one
/// [`CpuBackend::sq_distance_rows`] call, and the parallel unit.
const DIST_GROUP: usize = backend::DIST_ROWS;

/// Fills `out`, up to [`DIST_GROUP`] consecutive rows starting at row `i0`
/// of the `n × n` squared-distance matrix of `vs` (row-major, `n` columns).
/// With `upper`, only the strict upper triangle is computed and every
/// entry with `j ≤ i` is `0.0`; otherwise every off-diagonal entry is
/// computed and the diagonal is `0.0`.
///
/// A full group of four rows runs the backend's
/// [`CpuBackend::sq_distance_rows`] over every column from the first one
/// it needs; a group of fewer than four rows (the last of a tile) falls
/// back to [`sq_distance`]. Either way every computed entry is bitwise
/// `sq_distance(vs[i], vs[j])`, on every backend.
fn fill_distance_group(
    be: &dyn CpuBackend,
    vs: &[&[f32]],
    i0: usize,
    upper: bool,
    out: &mut [f32],
) {
    let n = vs.len();
    let wanted = |i: usize, j: usize| if upper { j > i } else { j != i };
    let first = if upper { i0 } else { 0 };
    let mut blocked = false;
    let group = vs
        .get(i0..i0 + DIST_GROUP)
        .filter(|_| out.len() == DIST_GROUP * n);
    if let Some(&[a0, a1, a2, a3]) = group {
        let mut rows = out
            .chunks_exact_mut(n)
            .map(|r| r.get_mut(first..).unwrap_or_default());
        if let (Some(o0), Some(o1), Some(o2), Some(o3)) =
            (rows.next(), rows.next(), rows.next(), rows.next())
        {
            let cols = vs.get(first..).unwrap_or_default();
            be.sq_distance_rows([a0, a1, a2, a3], cols, [o0, o1, o2, o3]);
            blocked = true;
        }
    }
    for (r, row) in out.chunks_mut(n).enumerate() {
        let i = i0 + r;
        // Checked access: callers keep `i < n`, so the miss arm is
        // unreachable.
        let vi = vs.get(i).copied().unwrap_or(&[]);
        for (j, (slot, vj)) in row.iter_mut().zip(vs).enumerate() {
            if !wanted(i, j) {
                *slot = 0.0;
            } else if !blocked {
                *slot = sq_distance(vi, vj);
            }
        }
    }
}

/// Dispatches [`fill_distance_group`] over `out` in groups of
/// [`DIST_GROUP`] rows from `row_lo`: serially below the work threshold,
/// group-parallel above it. The group is a fixed unit and every entry is
/// a pure function of its pair, so the result is the same at any thread
/// count.
fn sq_distance_groups(
    be: &dyn CpuBackend,
    vs: &[&[f32]],
    row_lo: usize,
    upper: bool,
    out: &mut [f32],
    work: usize,
) {
    let fill = |g: usize, rows: &mut [f32]| {
        fill_distance_group(be, vs, row_lo + g * DIST_GROUP, upper, rows);
    };
    let group = DIST_GROUP * vs.len();
    if work < PAR_ELEMS || par::max_threads() == 1 {
        for (g, rows) in out.chunks_mut(group).enumerate() {
            fill(g, rows);
        }
    } else {
        par::for_each_chunk_mut(out, group, fill);
    }
}

/// Fills rows `row_lo..row_lo + tile.len() / n` of the `n × n` pairwise
/// squared-distance matrix of `vs` (`n = vs.len()`) into `tile`,
/// row-major, with `0.0` on the diagonal — the distance tile of the
/// blocked Krum scorer (DESIGN.md §4e). Allocation-free.
///
/// Groups of four rows run the active backend's
/// [`CpuBackend::sq_distance_rows`] against every column (AVX-512: four
/// rows × 16 columns per register block, AVX2: four × four, scalar: the
/// portable 4×4 kernel); every entry is bitwise
/// `sq_distance(vs[i], vs[j])` on every backend, so the tile equals the
/// corresponding rows of [`pairwise_sq_distances_into`]'s matrix. Groups
/// of four rows are dispatched in parallel above the work threshold; the
/// result is the same at any thread count.
///
/// # Panics
///
/// Panics if vector lengths differ or the tile reaches past row `n`.
pub fn sq_distance_tile_into(vs: &[&[f32]], row_lo: usize, tile: &mut [f32]) {
    sq_distance_tile_on(backend::active(), vs, row_lo, tile);
}

/// [`sq_distance_tile_into`] on a given backend (the per-backend tests).
pub(crate) fn sq_distance_tile_on(
    be: &dyn CpuBackend,
    vs: &[&[f32]],
    row_lo: usize,
    tile: &mut [f32],
) {
    let n = vs.len();
    if n == 0 || tile.is_empty() {
        return;
    }
    debug_assert_eq!(tile.len() % n, 0, "sq_distance_tile: ragged tile");
    let d = vs.first().map_or(0, |v| v.len());
    check_lengths(vs, d, "sq_distance_tile");
    sq_distance_groups(be, vs, row_lo, false, tile, tile.len() * d);
}

/// Full pairwise squared-distance matrix, written into `out` as a flat
/// row-major `n × n` slice (symmetric, zero diagonal), allocation-free.
/// Each pair is computed once: Krum's scorer when `n ≤ d`, Bulyan's dense
/// stage 1, Min-Max and Min-Sum all fill their matrices here.
///
/// The strict upper triangle is filled by the same backend kernel as
/// [`sq_distance_tile_into`], then mirrored serially. A group of four
/// rows from row `i₀` covers the `n − i₀` columns right of it, so groups
/// shrink down the triangle; above the work threshold threads claim them
/// one at a time, which spreads the triangle evenly over the pool. Each
/// entry is bitwise `sq_distance(vs[i], vs[j])` on every backend, so the
/// matrix is bitwise identical to [`pairwise_sq_distances_serial`] at any
/// thread count.
///
/// # Panics
///
/// Panics if `out.len() != vs.len()²` or vector lengths differ.
pub fn pairwise_sq_distances_into(vs: &[&[f32]], out: &mut [f32]) {
    pairwise_sq_distances_on(backend::active(), vs, out);
}

/// [`pairwise_sq_distances_into`] on a given backend (the per-backend
/// tests).
pub(crate) fn pairwise_sq_distances_on(be: &dyn CpuBackend, vs: &[&[f32]], out: &mut [f32]) {
    let n = vs.len();
    assert_eq!(out.len(), n * n, "pairwise_sq_distances: out must be n*n");
    let d = vs.first().map_or(0, |v| v.len());
    check_lengths(vs, d, "pairwise_sq_distances");
    if n == 0 {
        return;
    }
    sq_distance_groups(be, vs, 0, true, out, n * (n - 1) / 2 * d);
    // Serial mirror of the upper triangle into the lower; checked access
    // (the bounds are guaranteed by the `n*n` entry assert).
    for i in 0..n {
        for j in (i + 1)..n {
            let v = out.get(i * n + j).copied().unwrap_or(0.0);
            if let Some(dst) = out.get_mut(j * n + i) {
                *dst = v;
            }
        }
    }
}

/// Full pairwise squared-distance matrix (symmetric, zero diagonal).
///
/// Allocates the nested output then delegates to
/// [`pairwise_sq_distances_into`].
///
/// # Panics
///
/// Panics if vector lengths differ.
pub fn pairwise_sq_distances(vs: &[&[f32]]) -> Vec<Vec<f32>> {
    let n = vs.len();
    let mut flat = vec![0.0f32; n * n];
    pairwise_sq_distances_into(vs, &mut flat);
    flat.chunks(n.max(1)).map(<[f32]>::to_vec).collect()
}

/// Serial reference for [`pairwise_sq_distances`].
pub fn pairwise_sq_distances_serial(vs: &[&[f32]]) -> Vec<Vec<f32>> {
    let n = vs.len();
    let mut m = vec![vec![0.0f32; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = sq_distance(vs[i], vs[j]);
            m[i][j] = d;
            m[j][i] = d;
        }
    }
    m
}

/// Fills one tile of an `n × n` pairwise matrix into `tile` (row-major,
/// `tile.len()/cols` rows × `cols` columns): tile entry `(r, c)` receives
/// `entry(row_lo + r, col_lo + c)`, with `0.0` on the global diagonal.
/// Allocation-free — the blocked FoolsGold cosine passes stream tiles
/// through a [`Purpose::DistTile`] scratch so only O(tile) floats of the
/// matrix are ever resident (DESIGN.md §4e). Squared-distance tiles use
/// the register-blocked [`sq_distance_tile_into`] instead.
///
/// Rows are dispatched in parallel above the work threshold (`elem_work`
/// is the per-entry input size). Each entry is a pure function of its
/// global index pair, so the tile is bitwise identical to the
/// corresponding slice of the dense matrix at any thread count.
pub fn pairwise_tile_into(
    row_lo: usize,
    col_lo: usize,
    cols: usize,
    elem_work: usize,
    tile: &mut [f32],
    entry: impl Fn(usize, usize) -> f32 + Sync,
) {
    if cols == 0 || tile.is_empty() {
        return;
    }
    debug_assert_eq!(tile.len() % cols, 0, "pairwise_tile: ragged tile");
    let rows = tile.len() / cols;
    let fill_row = |r: usize, row: &mut [f32]| {
        let i = row_lo + r;
        for (c, slot) in row.iter_mut().enumerate() {
            let j = col_lo + c;
            *slot = if i == j { 0.0 } else { entry(i, j) };
        }
    };
    let work = rows * cols * elem_work;
    if work < PAR_ELEMS || par::max_threads() == 1 {
        for (r, row) in tile.chunks_mut(cols).enumerate() {
            fill_row(r, row);
        }
    } else {
        par::for_each_chunk_mut(tile, cols, fill_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
        assert_eq!(sq_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(l2_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "dot_delta: length mismatch")]
    fn dot_delta_rejects_a_mis_sized_b() {
        let _ = dot_delta(&[1.0; 4096], &[1.0; 16], &[0.0; 4096]);
    }

    #[test]
    #[should_panic(expected = "dot_delta: length mismatch")]
    fn dot_delta_rejects_a_mis_sized_r() {
        let _ = dot_delta(&[1.0; 4096], &[1.0; 4096], &[0.0; 16]);
    }

    #[test]
    #[should_panic(expected = "l2_norm_delta: length mismatch")]
    fn l2_norm_delta_rejects_a_mis_sized_r() {
        let _ = l2_norm_delta(&[1.0; 4096], &[0.0; 16]);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(add(&[1.0], &[2.0]), vec![3.0]);
        assert_eq!(sub(&[1.0], &[2.0]), vec![-1.0]);
        assert_eq!(scale(&[2.0, -1.0], 3.0), vec![6.0, -3.0]);
        let mut a = vec![1.0, 1.0];
        axpy_in_place(&mut a, 2.0, &[1.0, 2.0]);
        assert_eq!(a, vec![3.0, 5.0]);
    }

    #[test]
    fn unit_and_sign() {
        assert_eq!(unit(&[3.0, 4.0]), vec![0.6, 0.8]);
        assert_eq!(unit(&[0.0, 0.0]), vec![0.0, 0.0]);
        assert_eq!(sign(&[-2.0, 0.0, 5.0]), vec![-1.0, 0.0, 1.0]);
    }

    #[test]
    fn mean_and_std() {
        let a = [1.0f32, 10.0];
        let b = [3.0f32, 10.0];
        let m = mean(&[&a, &b]);
        assert_eq!(m, vec![2.0, 10.0]);
        let s = std_dev(&[&a, &b]);
        assert_eq!(s, vec![1.0, 0.0]);
    }

    #[test]
    fn median_odd_even() {
        let a = [1.0f32];
        let b = [5.0f32];
        let c = [3.0f32];
        assert_eq!(median(&[&a, &b, &c]), vec![3.0]);
        assert_eq!(median(&[&a, &b]), vec![3.0]);
    }

    #[test]
    fn median_resists_one_outlier() {
        let a = [1.0f32];
        let b = [2.0f32];
        let c = [1e9f32];
        assert_eq!(median(&[&a, &b, &c]), vec![2.0]);
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        let vs: Vec<Vec<f32>> = vec![vec![-100.0], vec![1.0], vec![2.0], vec![3.0], vec![100.0]];
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        assert_eq!(trimmed_mean(&refs, 1), vec![2.0]);
    }

    #[test]
    #[should_panic(expected = "trim")]
    fn trimmed_mean_rejects_overtrim() {
        let vs: Vec<Vec<f32>> = vec![vec![1.0], vec![2.0]];
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let _ = trimmed_mean(&refs, 1);
    }

    #[test]
    fn pairwise_matrix_is_symmetric() {
        let vs: Vec<Vec<f32>> = vec![vec![0.0, 0.0], vec![3.0, 4.0], vec![6.0, 8.0]];
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let m = pairwise_sq_distances(&refs);
        assert_eq!(m[0][1], 25.0);
        assert_eq!(m[1][0], 25.0);
        assert_eq!(m[0][2], 100.0);
        assert_eq!(m[1][1], 0.0);
    }

    #[test]
    fn delta_kernels_match_materialized_path_bitwise() {
        let a: Vec<f32> = (0..97).map(|i| ((i as f32) * 0.7).sin()).collect();
        let b: Vec<f32> = (0..97).map(|i| ((i as f32) * 0.9).cos()).collect();
        let r: Vec<f32> = (0..97).map(|i| (i as f32) * 0.001).collect();
        let da = sub(&a, &r);
        let db = sub(&b, &r);
        // The identity holds through the public entries (whatever backend
        // is active)...
        assert_eq!(dot_delta(&a, &b, &r).to_bits(), dot(&da, &db).to_bits());
        assert_eq!(l2_norm_delta(&a, &r).to_bits(), l2_norm(&da).to_bits());
        // ...and on every backend this host supports, checked directly on
        // the instances so concurrent tests cannot race a global override.
        for kind in backend::ALL_KINDS {
            if !kind.supported() {
                continue;
            }
            let be = backend::instance(kind);
            assert_eq!(
                be.dot_delta(&a, &b, &r).to_bits(),
                be.dot(&da, &db).to_bits(),
                "dot_delta != dot∘sub on {}",
                kind.name()
            );
        }
    }

    /// `n` vectors of length `d` mixing four magnitude classes: ordinary
    /// values, values whose squared differences overflow to `+inf`,
    /// subnormal values, and values whose squared differences are
    /// subnormal.
    fn mixed_magnitudes(n: usize, d: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|u| {
                let scale = [1.0f32, 3e19, 1e-39, 2e-20][u % 4];
                (0..d)
                    .map(|i| ((u * 31 + i * 7) as f32 * 0.37).sin() * scale)
                    .collect()
            })
            .collect()
    }

    /// Every tile (every `row_lo` and row count) and the dense matrix, on
    /// every supported backend, against per-pair `sq_distance`. Cohorts of
    /// 1..=9 cover every rows × columns remainder of the 4-row group and
    /// the scalar/AVX2 4-column block; 16, 17, 21 and 35 cover whole and
    /// partial 16-column AVX-512 blocks (a few tiles each).
    #[test]
    fn blocked_distance_kernels_match_per_pair_bitwise() {
        let mut saw_inf = false;
        let mut saw_subnormal = false;
        let kinds = crate::backend::ALL_KINDS
            .into_iter()
            .filter(|k| k.supported());
        for be in kinds.map(crate::backend::instance) {
            for d in [0usize, 1, 3, 4, 5, 8, 17, 65] {
                for n in (1..=9).chain([16, 17, 21, 35]) {
                    let vs = mixed_magnitudes(n, d);
                    let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
                    let want = |i: usize, j: usize| {
                        if i == j {
                            0.0
                        } else {
                            sq_distance(refs[i], refs[j])
                        }
                    };
                    // Every row offset (including ones whose rows cross the
                    // diagonal) and every row count for small cohorts, so
                    // every rows × cols remainder mod 4 is covered.
                    let tiles: Vec<(usize, usize)> = if n <= 9 {
                        (0..n)
                            .flat_map(|lo| (1..=n - lo).map(move |rows| (lo, rows)))
                            .collect()
                    } else {
                        vec![(0, 4), (0, n), (3, 5), (n - 6, 6), (n - 4, 4)]
                    };
                    for (row_lo, rows) in tiles {
                        let mut tile = vec![f32::NAN; rows * n];
                        sq_distance_tile_on(be, &refs, row_lo, &mut tile);
                        for (r, row) in tile.chunks(n).enumerate() {
                            for (j, got) in row.iter().enumerate() {
                                let w = want(row_lo + r, j);
                                saw_inf |= w == f32::INFINITY;
                                saw_subnormal |= w.is_subnormal();
                                assert_eq!(
                                    got.to_bits(),
                                    w.to_bits(),
                                    "{} tile n={n} d={d} row_lo={row_lo} rows={rows} ({}, {j})",
                                    be.name(),
                                    row_lo + r
                                );
                            }
                        }
                    }
                    let mut dense = vec![f32::NAN; n * n];
                    pairwise_sq_distances_on(be, &refs, &mut dense);
                    for i in 0..n {
                        for j in 0..n {
                            let w = want(i.min(j), i.max(j));
                            let got = dense[i * n + j];
                            assert_eq!(
                                got.to_bits(),
                                w.to_bits(),
                                "{} dense n={n} d={d} ({i}, {j})",
                                be.name()
                            );
                        }
                    }
                }
            }
        }
        assert!(
            saw_inf && saw_subnormal,
            "inputs must reach +inf and subnormal distances"
        );
        let inputs = mixed_magnitudes(9, 17);
        assert!(inputs.iter().flatten().any(|v| v.is_subnormal()));
    }

    #[test]
    fn tile_matches_dense_matrix_slice() {
        let vs: Vec<Vec<f32>> = (0..7)
            .map(|u| (0..13).map(|i| ((u * 13 + i) as f32 * 0.2).sin()).collect())
            .collect();
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let n = refs.len();
        let mut dense = vec![0.0f32; n * n];
        pairwise_sq_distances_into(&refs, &mut dense);
        // Sweep every (row_lo, col_lo) block origin of a 3×4 tile.
        for row_lo in 0..n - 2 {
            for col_lo in 0..n - 3 {
                let mut tile = vec![f32::NAN; 3 * 4];
                pairwise_tile_into(row_lo, col_lo, 4, 13, &mut tile, |i, j| {
                    sq_distance(refs[i], refs[j])
                });
                for r in 0..3 {
                    for c in 0..4 {
                        let want = dense[(row_lo + r) * n + (col_lo + c)];
                        assert_eq!(tile[r * 4 + c].to_bits(), want.to_bits());
                    }
                }
            }
        }
    }
}
