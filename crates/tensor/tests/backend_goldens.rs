//! Golden tests for the CPU backend trait (DESIGN.md §4f): every kernel
//! returns the same bits on every backend.
//!
//! The `GOLD_*` constants below are exact bits pinned on every backend the
//! host supports (CI runs this suite under `FABFLIP_BACKEND=scalar`,
//! `avx2` and auto-detection):
//!
//! * **GEMM and elementwise ops** were captured from the pre-backend
//!   (autovectorized scalar) kernels on the unmodified tree. Each output
//!   element's FLOP chain is independent and identically ordered in the
//!   scalar, AVX2 and AVX-512 microkernels.
//! * **Reductions** (`dot`, `l2_norm` and their delta forms) are the bits
//!   of the striped four-accumulator order of `CpuBackend::dot`, captured
//!   from the AVX-512 backend.
//!
//! All per-backend assertions go through `backend::instance(kind)`
//! directly — never the global `force()` — so this suite is safe under
//! the parallel test harness.

use fabflip_tensor::backend::{self, Kind, ALL_KINDS};
use fabflip_tensor::vecops;
use fabflip_tensor::{matmul_into, matmul_transpose_a, matmul_transpose_b};

// Golden bits (inputs are the SplitMix64 streams below, flag-invariant
// under RUSTFLAGS="" and target-cpu=native). GEMM and elementwise: the
// pre-backend kernels.
const GOLD_MATMUL_FOLD: u32 = 0x728afd31;
const GOLD_MATMUL_FIRST: u32 = 0xc0b9c63e;
const GOLD_MATMUL_MID: u32 = 0xc017a959;
const GOLD_MATMUL_LAST: u32 = 0x3fe4e24b;
const GOLD_TRANSPOSE_A_FOLD: u32 = 0x9b08a9ff;
const GOLD_TRANSPOSE_B_FOLD: u32 = 0x353cd5c1;
const GOLD_MEAN_FOLD: u32 = 0x95a69f2e;
const GOLD_STD_FOLD: u32 = 0x9da5254e;
const GOLD_AXPY_FOLD: u32 = 0x5b258491;

/// (d, dot, l2_norm, dot_delta, l2_norm_delta) golden bits at
/// tail-exercising reduction lengths: the striped order's bits.
const GOLD_REDUCTIONS: [(usize, u32, u32, u32, u32); 3] = [
    (3, 0x3ded46dc, 0x3f30c5a6, 0x3ff4f196, 0x3fbac2a0),
    (16, 0x3f63d3c7, 0x401359b5, 0x406a0e0d, 0x403e2f3c),
    (4099, 0x41021263, 0x421342e5, 0x44b301d0, 0x42540696),
];

/// Deterministic SplitMix64 stream mapped to [-1, 1) — the exact input
/// generator the goldens were captured with.
fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((z >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Order-sensitive bit fold: any single-ULP drift anywhere flips it.
fn fold(v: &[f32]) -> u32 {
    v.iter().fold(0u32, |h, x| h.rotate_left(5) ^ x.to_bits())
}

/// GEMM golden bits hold under whichever backend is active: every
/// backend's register tile evaluates each C element with the identical
/// per-element FLOP chain, so the fold is backend-invariant.
#[test]
fn gemm_goldens_bitwise_under_active_backend() {
    // Sizes straddle the KC=256, NC=1024, WR=64, MR=4 boundaries so the
    // full-tile, sub-tile, and remainder paths all execute.
    let (m, k, n) = (37, 300, 1100);
    let a = fill(1, m * k);
    let b = fill(2, k * n);
    let mut c = vec![0.0f32; m * n];
    matmul_into(&a, &b, &mut c, m, k, n);
    assert_eq!(
        fold(&c),
        GOLD_MATMUL_FOLD,
        "backend {}",
        backend::active().name()
    );
    assert_eq!(c[0].to_bits(), GOLD_MATMUL_FIRST);
    assert_eq!(c[m * n / 2].to_bits(), GOLD_MATMUL_MID);
    assert_eq!(c[m * n - 1].to_bits(), GOLD_MATMUL_LAST);

    let at = fill(3, k * m); // stored k×m
    let mut c2 = vec![0.0f32; m * n];
    matmul_transpose_a(&at, &b, &mut c2, m, k, n);
    assert_eq!(fold(&c2), GOLD_TRANSPOSE_A_FOLD);

    let bt = fill(4, n * k); // stored n×k
    let mut c3 = vec![0.0f32; m * n];
    matmul_transpose_b(&a, &bt, &mut c3, m, k, n);
    assert_eq!(fold(&c3), GOLD_TRANSPOSE_B_FOLD);
}

/// mean/std/axpy are elementwise over independent coordinates (separate
/// mul/add, no fused reassociation), so their goldens are also
/// backend-invariant.
#[test]
fn elementwise_goldens_bitwise_under_active_backend() {
    let d = 2069;
    let vs: Vec<Vec<f32>> = (0..5).map(|u| fill(100 + u, d)).collect();
    let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
    assert_eq!(fold(&vecops::mean(&refs)), GOLD_MEAN_FOLD);
    assert_eq!(fold(&vecops::std_dev(&refs)), GOLD_STD_FOLD);

    let mut ax = fill(200, d);
    vecops::axpy_in_place(&mut ax, 0.37, &vs[0]);
    assert_eq!(fold(&ax), GOLD_AXPY_FOLD);
}

/// Every supported backend reproduces the reduction goldens bit for bit,
/// and so do the `vecops` entries on the active backend.
#[test]
fn reductions_match_goldens_bitwise_on_every_backend() {
    for &(d, g_dot, g_l2, g_dotd, g_l2d) in &GOLD_REDUCTIONS {
        let x = fill(10 + d as u64, d);
        let y = fill(20 + d as u64, d);
        let r = fill(30 + d as u64, d);
        let want = [g_dot, g_l2, g_dotd, g_l2d];
        let active = [
            vecops::dot(&x, &y),
            vecops::l2_norm(&x),
            vecops::dot_delta(&x, &y, &r),
            vecops::l2_norm_delta(&x, &r),
        ];
        assert_eq!(active.map(f32::to_bits), want, "vecops d={d}");
        for kind in ALL_KINDS {
            if !kind.supported() {
                continue;
            }
            let be = backend::instance(kind);
            let got = [
                be.dot(&x, &y),
                be.dot(&x, &x).sqrt(),
                be.dot_delta(&x, &y, &r),
                be.dot_delta(&x, &x, &r).sqrt(),
            ];
            assert_eq!(
                got.map(f32::to_bits),
                want,
                "dot/l2/dot_delta/l2_delta d={d} backend {}",
                be.name()
            );
        }
    }
}

/// Release builds drop the kernels' `debug_assert!` length checks, so
/// the SIMD loops must size themselves from the shortest slice they load:
/// a 16-float prefix of a NaN-filled buffer passed next to a 4 096-float
/// slice must never pull in the NaN that lies past it.
#[cfg(not(debug_assertions))]
#[test]
fn short_operands_are_never_read_past_their_end() {
    let long = fill(900, 4096);
    let mut buf = vec![f32::NAN; 4096];
    buf[..16].copy_from_slice(&long[..16]);
    let short = &buf[..16];
    for kind in ALL_KINDS {
        if !kind.supported() {
            continue;
        }
        let be = backend::instance(kind);
        let name = be.name();
        for (op, v) in [
            ("dot", be.dot(&long, short)),
            ("dot_delta b", be.dot_delta(&long, short, &long)),
            ("dot_delta r", be.dot_delta(&long, &long, short)),
            ("dot_lanes", be.dot_lanes(&long, short)),
        ] {
            assert!(!v.is_nan(), "{op} read past its short operand on {name}");
        }
        let mut out = long.clone();
        be.add_assign(&mut out, short);
        be.sq_dev_assign(&mut out, short, &long);
        be.sq_dev_assign(&mut out, &long, short);
        be.axpy_assign(&mut out, 0.5, short);
        assert!(
            !out.iter().any(|v| v.is_nan()),
            "an element-wise kernel read past its short operand on {name}"
        );
    }
}

/// The dot kernels are bitwise identical across backends at every length
/// up to 300 (each tail length, each partial set of `dot`'s four striped
/// accumulators) and at long lengths up to 65 537. `dot_lanes` (the
/// transpose-B / row-dot microkernel) keeps 16 lane sums, one zmm or two
/// ymm registers; `dot` and `dot_delta` keep four such accumulators
/// striped over 16-float blocks; every horizontal fold mirrors the scalar
/// halving tree exactly.
#[test]
fn dot_kernels_bitwise_identical_across_backends() {
    let scalar = backend::instance(Kind::Scalar);
    for d in (0usize..=300).chain([1000, 4099, 9098, 65_537]) {
        let x = fill(40 + d as u64, d);
        let y = fill(50 + d as u64, d);
        let r = fill(60 + d as u64, d);
        let run = |be: &dyn backend::CpuBackend| {
            [
                be.dot_lanes(&x, &y),
                be.dot(&x, &y),
                be.dot_delta(&x, &y, &r),
            ]
            .map(f32::to_bits)
        };
        let want = run(scalar);
        for kind in ALL_KINDS {
            if !kind.supported() {
                continue;
            }
            let be = backend::instance(kind);
            assert_eq!(
                run(be),
                want,
                "dot_lanes/dot/dot_delta d={d} backend {}",
                be.name()
            );
        }
    }
}

/// `dot_lanes_4x4` is sixteen `dot_lanes` chains side by side: on every
/// backend each block entry is bitwise that backend's per-pair
/// `dot_lanes`, hence (by the test above) the scalar one. Lengths cover
/// the empty, tail-only, exact-chunk and chunk-plus-tail cases; the rows
/// mix subnormals and one infinity so those paths run too.
#[test]
fn dot_lanes_4x4_is_bitwise_per_pair_dot_lanes_across_backends() {
    let scalar = backend::instance(Kind::Scalar);
    for d in [0usize, 1, 3, 15, 16, 17, 31, 32, 300, 4099] {
        let rows: Vec<Vec<f32>> = (0..8)
            .map(|r| {
                let mut v = fill(110 + r + d as u64, d);
                for (p, x) in v.iter_mut().enumerate().filter(|(p, _)| p % 7 == 2) {
                    *x = f32::from_bits(1 + p as u32) * x.signum();
                }
                if r == 5 && d > 0 {
                    v[d / 2] = f32::INFINITY;
                }
                v
            })
            .collect();
        let a: [&[f32]; 4] = std::array::from_fn(|r| rows[r].as_slice());
        let b: [&[f32]; 4] = std::array::from_fn(|s| rows[4 + s].as_slice());
        let want = a.map(|ar| b.map(|bs| scalar.dot_lanes(ar, bs).to_bits()));
        for kind in ALL_KINDS {
            if !kind.supported() {
                continue;
            }
            let be = backend::instance(kind);
            let got = be.dot_lanes_4x4(a, b).map(|row| row.map(f32::to_bits));
            assert_eq!(got, want, "dot_lanes_4x4 d={d} backend {}", be.name());
        }
    }
}

/// Vector `u` of length `d` for the distance-row tests: magnitudes from
/// ±1e-30 to ±1e30 in four classes by `u % 4` (so some distances are
/// ordinary, some overflow to `+inf`, some underflow to subnormal or
/// zero), with every 11th element subnormal and every 13th `±0`.
fn distance_vector(u: usize, d: usize) -> Vec<f32> {
    let (lo, hi) = [(-30, -18), (-3, 3), (10, 18), (20, 30)][u % 4];
    fill(300 + u as u64 * 7919 + d as u64, d)
        .iter()
        .enumerate()
        .map(|(p, &x)| match p % 143 {
            p if p % 13 == 5 => 0.0f32.copysign(x),
            p if p % 11 == 7 => f32::from_bits(1 + (p as u32) * 977) * x.signum(),
            _ => {
                let e = lo + ((x.abs() * 1e4) as i32).rem_euclid(hi - lo + 1);
                x.signum() * (1.0 + x.abs()) * 10f32.powi(e)
            }
        })
        .collect()
}

/// `sq_distance_rows` equals per-pair `vecops::sq_distance` bit for bit
/// on every backend: lengths around the 4-float chunk and both SIMD
/// widths up to the Fashion MLP's 9 098, column counts that are not a
/// multiple of any backend's register block (4 on scalar and AVX2, 16 on
/// AVX-512), inputs from ±1e-30 to ±1e30 with subnormals and signed
/// zeros. Output slots past the column run keep their sentinel.
#[test]
fn sq_distance_rows_is_bitwise_per_pair_sq_distance_across_backends() {
    let sentinel = f32::from_bits(0x7FC0_0BAD);
    let (mut saw_inf, mut saw_subnormal, mut saw_zero) = (false, false, false);
    for d in [0usize, 1, 3, 4, 5, 15, 16, 17, 63, 64, 65, 1023, 9098] {
        let vs: Vec<Vec<f32>> = (0..41).map(|u| distance_vector(u, d)).collect();
        let rows: [&[f32]; 4] = std::array::from_fn(|r| vs[r].as_slice());
        let all_cols: Vec<&[f32]> = vs[4..].iter().map(Vec::as_slice).collect();
        for ncols in [1usize, 2, 3, 5, 6, 7, 9, 13, 18, 23, 31, 37] {
            let cols = &all_cols[..ncols];
            let want: Vec<Vec<u32>> = rows
                .iter()
                .map(|r| {
                    cols.iter()
                        .map(|c| vecops::sq_distance(r, c).to_bits())
                        .collect()
                })
                .collect();
            for w in want.iter().flatten().map(|&b| f32::from_bits(b)) {
                saw_inf |= w == f32::INFINITY;
                saw_subnormal |= w.is_subnormal();
                saw_zero |= w == 0.0 && d > 0;
            }
            for kind in ALL_KINDS {
                if !kind.supported() {
                    continue;
                }
                let be = backend::instance(kind);
                let mut out = vec![vec![sentinel; ncols + 3]; 4];
                let [o0, o1, o2, o3] = &mut out[..] else {
                    unreachable!()
                };
                be.sq_distance_rows(rows, cols, [o0, o1, o2, o3]);
                for (r, (got, want)) in out.iter().zip(&want).enumerate() {
                    let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        &got_bits[..ncols],
                        &want[..],
                        "sq_distance_rows d={d} cols={ncols} row {r} backend {}",
                        be.name()
                    );
                    assert!(
                        got_bits[ncols..].iter().all(|&b| b == sentinel.to_bits()),
                        "sq_distance_rows wrote past the column run: d={d} cols={ncols} backend {}",
                        be.name()
                    );
                }
            }
        }
    }
    assert!(
        saw_inf && saw_subnormal && saw_zero,
        "distances must reach +inf, subnormal and zero: {saw_inf} {saw_subnormal} {saw_zero}"
    );
}

/// The elementwise `*_assign` kernels are bitwise identical across
/// backends: each output coordinate is an independent mul/add/sqrt chain
/// with no reassociation, so SIMD lanes compute exactly the scalar FLOPs.
/// Lengths straddle the 8- and 16-lane boundaries so every backend's
/// vector body and scalar tail both execute.
#[test]
fn assign_kernels_bitwise_identical_across_backends() {
    let scalar = backend::instance(Kind::Scalar);
    for d in [1usize, 7, 8, 15, 16, 17, 33, 2069] {
        let src = fill(80 + d as u64, d);
        let v = fill(81 + d as u64, d);
        let m = fill(82 + d as u64, d);
        // `scale_sqrt_assign` takes the root of `out * alpha`: start from
        // squared deviations so the product is non-negative.
        let mut sq = vec![0.0f32; d];
        scalar.sq_dev_assign(&mut sq, &v, &m);

        let run = |be: &dyn backend::CpuBackend| {
            let mut add = fill(90 + d as u64, d);
            be.add_assign(&mut add, &src);
            let mut scale = fill(91 + d as u64, d);
            be.scale_assign(&mut scale, 0.37);
            let mut dev = vec![0.0f32; d];
            be.sq_dev_assign(&mut dev, &v, &m);
            let mut root = sq.clone();
            be.scale_sqrt_assign(&mut root, 0.25);
            let mut axpy = fill(92 + d as u64, d);
            be.axpy_assign(&mut axpy, -1.75, &src);
            [
                fold(&add),
                fold(&scale),
                fold(&dev),
                fold(&root),
                fold(&axpy),
            ]
        };
        let want = run(scalar);
        for kind in ALL_KINDS {
            if !kind.supported() {
                continue;
            }
            let got = run(backend::instance(kind));
            assert_eq!(
                got,
                want,
                "assign kernels d={d} backend {} diverge from scalar \
                 (add/scale/sq_dev/scale_sqrt/axpy folds)",
                backend::instance(kind).name()
            );
        }
    }
}

/// The GEMM register tile itself is bitwise identical across backends,
/// exercised directly through `gemm_tile` so the 64/16/8-column
/// sub-tile and masked-remainder paths are all covered. The panel is
/// the B matrix itself (`b_base = 0`, `b_stride = n`), read in place as
/// `matmul`'s kernels read it.
#[test]
fn gemm_tile_bitwise_identical_across_backends() {
    let scalar = backend::instance(Kind::Scalar);
    // Widths cover: masked tail (3, 9, 15), one 16-lane block (16),
    // 8-col sub-tile (24), 64-col block + remainders (64, 77, 200).
    for &(rows, k, n) in &[
        (4usize, 31usize, 3usize),
        (1, 31, 9),
        (2, 7, 15),
        (3, 12, 16),
        (4, 5, 24),
        (4, 9, 64),
        (3, 20, 77),
        (4, 16, 200),
    ] {
        let a = fill(60 + (rows * k * n) as u64, rows * k);
        let b = fill(70 + (rows + k + n) as u64, k * n);
        let mut want = vec![0.0f32; rows * n];
        // A is row-major rows×k: element (r, p) at r*k + p.
        scalar.gemm_tile(&a, 0, k, 1, rows, k, &b, 0, n, n, &mut want, 0, n);
        for kind in ALL_KINDS {
            if !kind.supported() {
                continue;
            }
            let be = backend::instance(kind);
            let mut got = vec![0.0f32; rows * n];
            be.gemm_tile(&a, 0, k, 1, rows, k, &b, 0, n, n, &mut got, 0, n);
            let same = got
                .iter()
                .zip(want.iter())
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(
                same,
                "gemm_tile rows={rows} k={k} n={n} backend {} diverges from scalar",
                be.name()
            );
        }
    }
}
