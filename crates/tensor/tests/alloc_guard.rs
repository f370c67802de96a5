//! Dynamic witness for fabcheck's `alloc-on-hot-path` rule: a counting
//! global allocator proves the kernel-entry set performs **zero**
//! steady-state allocations once scratch arenas are warm.
//!
//! The static rule (crates/fabcheck/src/graph.rs) over-approximates
//! reachability and relies on `fabcheck::allow(alloc_on_hot_path)` escape
//! comments for grow-only arenas; this test is the other half of the
//! argument — it runs the real kernels and checks the allocator was never
//! called on the second (warm) pass.
//!
//! One `#[test]` on purpose: the counter is process-global and
//! `par::set_max_threads` is too, so concurrent tests would race.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use fabflip_tensor::vecops::{
    mean_into, median_into, pairwise_sq_distances_into, pairwise_tile_into, sq_distance_tile_into,
    std_dev_into, trimmed_mean_into,
};
use fabflip_tensor::{
    col2im, im2col, matmul_into, matmul_transpose_a, matmul_transpose_b, par, quant, Tensor,
};

/// Counts `alloc` + `realloc` calls (frees are irrelevant: a kernel that
/// frees without allocating cannot have allocated on the hot path).
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates every operation to `System`, which upholds the
// `GlobalAlloc` contract; the added counter bump has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`, to which this forwards.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    // SAFETY: same contract as `System::dealloc`, to which this forwards.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    // SAFETY: same contract as `System::realloc`, to which this forwards.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations observed while running `f`.
fn allocs_during<F: FnMut()>(mut f: F) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Warm pass (arenas grow), then measured passes that must not allocate.
///
/// A kernel that allocates on the hot path does so deterministically on
/// *every* warm repeat (fixed inputs, warmed arenas), so the claim is
/// refuted only when every measured pass allocates. The counter is
/// process-global on purpose — Phase B must see pool-worker allocations —
/// which means rare ambient allocations elsewhere in the process
/// (test-harness machinery, lazy std initialization) can land inside one
/// measured window; retrying distinguishes that noise from a real
/// hot-path allocation.
fn assert_steady_state_alloc_free(name: &str, mut kernel: impl FnMut()) {
    kernel();
    let mut deltas = Vec::new();
    for _ in 0..3 {
        let delta = allocs_during(&mut kernel);
        if delta == 0 {
            return;
        }
        deltas.push(delta);
    }
    panic!("{name}: steady-state allocation(s) in every measured pass: {deltas:?}");
}

#[test]
fn hot_kernels_are_allocation_free_once_warm() {
    // ---- Phase A: serial. Every kernel entry must hit zero exactly. ----
    par::set_max_threads(1);

    let (m, k, n) = (24, 32, 40);
    let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.11).cos()).collect();
    let bt: Vec<f32> = (0..n * k).map(|i| (i as f32 * 0.11).cos()).collect();
    let at: Vec<f32> = (0..k * m).map(|i| (i as f32 * 0.37).sin()).collect();
    let mut c = vec![0.0f32; m * n];
    assert_steady_state_alloc_free("matmul_into", || {
        matmul_into(&a, &b, &mut c, m, k, n);
    });
    assert_steady_state_alloc_free("matmul_transpose_a", || {
        c.iter_mut().for_each(|v| *v = 0.0);
        matmul_transpose_a(&at, &b, &mut c, m, k, n);
    });
    assert_steady_state_alloc_free("matmul_transpose_b", || {
        c.iter_mut().for_each(|v| *v = 0.0);
        matmul_transpose_b(&a, &bt, &mut c, m, k, n);
    });

    // The 4×4 `dot_lanes` block behind `matmul_transpose_b`, called
    // directly on the active backend.
    let be = fabflip_tensor::backend::active();
    let a4: [&[f32]; 4] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    let b4: [&[f32]; 4] = std::array::from_fn(|s| &bt[s * k..(s + 1) * k]);
    let mut tile_sink = 0.0f32;
    assert_steady_state_alloc_free("CpuBackend::dot_lanes_4x4", || {
        tile_sink += be.dot_lanes_4x4(a4, b4)[3][3];
    });
    assert!(tile_sink.is_finite());

    // Stride 1 (the whole-tap block), stride 2 (the strided gather) and
    // 5×5/pad 2 on 40 rows (taps wrapping two columns per row, past
    // `col2im`'s stack save, take its per-row loop), each with padding so
    // the zero-filled columns run too.
    let (ch, h, w) = (3usize, 40usize, 9usize);
    let img: Vec<f32> = (0..ch * h * w).map(|i| i as f32 * 0.01).collect();
    let mut col = vec![0.0f32; ch * 5 * 5 * h * w];
    let mut back = vec![0.0f32; ch * h * w];
    for (kk, stride, pad) in [(3usize, 1usize, 1usize), (3, 2, 1), (5, 1, 2)] {
        let oh = (h + 2 * pad - kk) / stride + 1;
        let ow = (w + 2 * pad - kk) / stride + 1;
        let col = &mut col[..ch * kk * kk * oh * ow];
        assert_steady_state_alloc_free("im2col", || {
            im2col(&img, col, ch, h, w, kk, kk, stride, pad);
        });
        assert_steady_state_alloc_free("col2im", || {
            back.iter_mut().for_each(|v| *v = 0.0);
            col2im(col, &mut back, ch, h, w, kk, kk, stride, pad);
        });
    }

    let d = 257;
    let n_up = 9;
    let updates: Vec<Vec<f32>> = (0..n_up)
        .map(|u| (0..d).map(|i| ((u * d + i) as f32 * 0.13).sin()).collect())
        .collect();
    let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
    let mut out = vec![0.0f32; d];
    assert_steady_state_alloc_free("mean_into", || mean_into(&refs, &mut out));
    assert_steady_state_alloc_free("std_dev_into", || std_dev_into(&refs, &mut out));
    assert_steady_state_alloc_free("median_into", || median_into(&refs, &mut out));
    assert_steady_state_alloc_free("trimmed_mean_into", || {
        trimmed_mean_into(&refs, 2, &mut out);
    });
    // Backend-dispatched reductions: the first call initializes the
    // dispatch `OnceLock` (env read + detection — warm pass absorbs it);
    // steady-state calls must never touch the allocator on any backend.
    let mut red_sink = 0.0f32;
    assert_steady_state_alloc_free("vecops::dot/l2_norm", || {
        red_sink += fabflip_tensor::vecops::dot(&refs[0][..d], &refs[1][..d]);
        red_sink += fabflip_tensor::vecops::l2_norm(&refs[0][..d]);
    });
    assert_steady_state_alloc_free("vecops::dot_delta/l2_norm_delta", || {
        red_sink += fabflip_tensor::vecops::dot_delta(refs[0], refs[1], refs[2]);
        red_sink += fabflip_tensor::vecops::l2_norm_delta(refs[0], refs[2]);
    });
    assert_steady_state_alloc_free("vecops::axpy_in_place", || {
        out.iter_mut().for_each(|v| *v = 0.0);
        fabflip_tensor::vecops::axpy_in_place(&mut out, 0.37, refs[0]);
    });
    assert!(red_sink.is_finite());

    let mut dists = vec![0.0f32; n_up * n_up];
    assert_steady_state_alloc_free("pairwise_sq_distances_into", || {
        pairwise_sq_distances_into(&refs, &mut dists);
    });

    // Five rows from row 3: one full 4-row register block crossing the
    // diagonal plus a remainder row, over 9 columns (two blocks + one).
    let mut dist_tile = vec![0.0f32; 5 * n_up];
    assert_steady_state_alloc_free("sq_distance_tile_into", || {
        sq_distance_tile_into(&refs, 3, &mut dist_tile);
    });

    let mut tile = vec![0.0f32; 4 * n_up];
    assert_steady_state_alloc_free("pairwise_tile_into", || {
        pairwise_tile_into(2, 0, n_up, d, &mut tile, |i, j| {
            fabflip_tensor::vecops::sq_distance(refs[i], refs[j])
        });
    });

    let mut f16_buf = vec![quant::F16(0); d];
    let mut i8_buf = vec![0i8; d];
    let mut dec = vec![0.0f32; d];
    assert_steady_state_alloc_free("quant f16/i8 encode+decode+roundtrip", || {
        quant::f16_encode_into(refs[0], &mut f16_buf);
        quant::f16_decode_into(&f16_buf, &mut dec);
        let scale = quant::i8_encode_into(refs[0], &mut i8_buf);
        quant::i8_decode_into(&i8_buf, scale, &mut dec);
        dec.copy_from_slice(refs[0]);
        quant::roundtrip_in_place(quant::Codec::F16, &mut dec);
        dec.copy_from_slice(refs[0]);
        quant::roundtrip_in_place(quant::Codec::I8, &mut dec);
    });

    let f_byz = 2;
    let pool: Vec<usize> = (0..n_up).collect();
    let mut scores = vec![0.0f32; n_up];
    let mut row = vec![0.0f32; n_up - 1];
    assert_steady_state_alloc_free("krum_scores_into", || {
        fabflip_agg::krum_scores_into(&dists, n_up, &pool, f_byz, &mut scores, &mut row)
            .expect("geometry valid");
    });

    // The blocked scorer: distance tiles plus the per-row selection, here
    // in its pair-once regime (9 updates of length 257: one tile, the
    // whole matrix) below the parallel thresholds. Phase B runs both
    // regimes above them.
    let mut blocked_scores = vec![0.0f32; n_up];
    assert_steady_state_alloc_free("krum_scores_blocked_into", || {
        fabflip_agg::krum_scores_blocked_into(&refs, f_byz, &mut blocked_scores)
            .expect("geometry valid");
    });

    let theta = n_up - 2 * f_byz;
    let beta = theta - 2 * f_byz;
    let sel: Vec<&[f32]> = refs[..theta].to_vec();
    let mut agg_out = vec![0.0f32; d];
    let mut cols3 = vec![0.0f32; 3 * theta];
    assert_steady_state_alloc_free("bulyan_coordinate_chunk", || {
        fabflip_agg::bulyan_coordinate_chunk(&sel, 0, &mut agg_out, beta, &mut cols3);
    });

    // Layers return fresh output tensors (escaped sites): their per-call
    // cost must stay O(1) allocations, independent of batch and model.
    use fabflip_nn::{Conv2d, ConvTranspose2d, Layer};
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(7);
    let mut conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng);
    let x = Tensor::uniform(vec![2, 3, 8, 8], -1.0, 1.0, &mut rng);
    let y = conv.forward(&x).expect("forward");
    let g = Tensor::uniform(y.shape().to_vec(), -1.0, 1.0, &mut rng);
    conv.backward(&g).expect("backward");
    let conv_delta = allocs_during(|| {
        conv.forward(&x).expect("forward");
        conv.backward(&g).expect("backward");
    });
    assert!(
        conv_delta <= 8,
        "Conv2d fwd+bwd: {conv_delta} allocations (want O(1) output tensors only)"
    );
    let mut up = ConvTranspose2d::new(3, 2, 4, 2, 1, &mut rng);
    let yu = up.forward(&x).expect("forward");
    let gu = Tensor::uniform(yu.shape().to_vec(), -1.0, 1.0, &mut rng);
    up.backward(&gu).expect("backward");
    let up_delta = allocs_during(|| {
        up.forward(&x).expect("forward");
        up.backward(&gu).expect("backward");
    });
    assert!(
        up_delta <= 8,
        "ConvTranspose2d fwd+bwd: {up_delta} allocations (want O(1) output tensors only)"
    );

    // ---- Phase B: parallel. Pool workers warm their own thread-local ----
    // arenas lazily and block claiming is dynamic, so warmth converges
    // instead of arriving in one pass: iterate until a full measured pass
    // allocates nothing (bounded; each worker grows each arena at most
    // once per size).
    par::set_max_threads(4);
    // Sizes chosen to clear PAR_FLOP_THRESHOLD (matmul) and the vecops
    // element threshold, so the measured passes really run parallel.
    let (pm, pk, pn) = (128, 256, 256);
    let pa: Vec<f32> = (0..pm * pk).map(|i| (i as f32 * 0.05).sin()).collect();
    let pb: Vec<f32> = (0..pk * pn).map(|i| (i as f32 * 0.07).cos()).collect();
    let mut pc = vec![0.0f32; pm * pn];
    let pd = 1 << 17;
    let par_updates: Vec<Vec<f32>> = (0..8)
        .map(|u| (0..pd).map(|i| ((u + i) as f32 * 0.003).sin()).collect())
        .collect();
    let par_refs: Vec<&[f32]> = par_updates.iter().map(Vec::as_slice).collect();
    let mut par_out = vec![0.0f32; pd];
    // A Krum cohort whose first 128-row tile crosses both the distance
    // fill's parallel threshold (2^20 input floats) and the parallel
    // selection's, so pool workers warm their own `KrumRow` scratch.
    const KN: usize = 150;
    const KD: usize = 64;
    const _: () = assert!(
        fabflip_agg::KRUM_ROW_BLOCK * KN * KD >= 1 << 20
            && fabflip_agg::KRUM_ROW_BLOCK * KN >= fabflip_agg::KRUM_SELECT_PAR_ENTRIES
    );
    let krum_updates: Vec<Vec<f32>> = (0..KN)
        .map(|u| {
            (0..KD)
                .map(|i| ((u * KD + i) as f32 * 0.07).sin())
                .collect()
        })
        .collect();
    let krum_refs: Vec<&[f32]> = krum_updates.iter().map(Vec::as_slice).collect();
    let mut krum_out = vec![0.0f32; KN];
    // The same cohort size with updates longer than the cohort: the
    // scorer's one tile is the whole matrix, its upper triangle filled by
    // `pairwise_sq_distances_into` above the distance fill's parallel
    // threshold, and all KN rows selected on the pool.
    const KD_PAIR_ONCE: usize = 160;
    const _: () = assert!(
        KN <= KD_PAIR_ONCE
            && KN * (KN - 1) / 2 * KD_PAIR_ONCE >= 1 << 20
            && KN * KN >= fabflip_agg::KRUM_SELECT_PAR_ENTRIES
    );
    let pair_once_updates: Vec<Vec<f32>> = (0..KN)
        .map(|u| {
            (0..KD_PAIR_ONCE)
                .map(|i| ((u * KD_PAIR_ONCE + i) as f32 * 0.05).cos())
                .collect()
        })
        .collect();
    let pair_once_refs: Vec<&[f32]> = pair_once_updates.iter().map(Vec::as_slice).collect();
    let mut pair_once_out = vec![0.0f32; KN];
    let mut pair_once_dists = vec![0.0f32; KN * KN];
    let mut converged = false;
    for _ in 0..64 {
        let delta = allocs_during(|| {
            matmul_into(&pa, &pb, &mut pc, pm, pk, pn);
            mean_into(&par_refs, &mut par_out);
            std_dev_into(&par_refs, &mut par_out);
            fabflip_agg::krum_scores_blocked_into(&krum_refs, 30, &mut krum_out)
                .expect("geometry valid");
            fabflip_agg::krum_scores_blocked_into(&pair_once_refs, 30, &mut pair_once_out)
                .expect("geometry valid");
            pairwise_sq_distances_into(&pair_once_refs, &mut pair_once_dists);
        });
        if delta == 0 {
            converged = true;
            break;
        }
    }
    assert!(
        converged,
        "parallel kernels kept allocating after 64 warm passes"
    );

    // `map_collect` claims one index at a time but allocates per call (its
    // slot array and output), never per index: 1 000 indices cost what 10
    // do. Retried like the steady-state checks above, since the counter
    // can catch an ambient allocation from elsewhere in the process.
    let mut sink = 0usize;
    let mut per_call = |n: usize| {
        allocs_during(|| {
            sink += par::map_collect(n, |i| i * 3).len();
        })
    };
    per_call(1000);
    let counts: Vec<(usize, usize)> = (0..3).map(|_| (per_call(10), per_call(1000))).collect();
    assert!(
        counts.iter().any(|&(small, large)| small == large),
        "map_collect allocations grow with n: (n = 10, n = 1000) per pass {counts:?}"
    );
    assert_eq!(sink, 3 * 1010 + 1000);
    par::set_max_threads(1);
}
