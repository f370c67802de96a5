//! Kernel/throughput benchmark: emits `BENCH_kernels.json` in the current
//! directory with matmul GFLOP/s (new tiled kernels vs the seed's ikj
//! kernel re-implemented below as the baseline), conv forward/backward
//! throughput at each of the eight workload conv shapes with its
//! per-phase lowering (GB/s, next to a same-run unshifted plane copy into
//! the same column matrix)
//! and GEMM (GFLOP/s) rates, per-rule aggregation timings at `n = 50,
//! d = 100k`, the worker-pool dispatch-overhead microbench (persistent
//! pool vs per-dispatch `thread::scope`), and the Sec. IV-E complexity claims
//! (ZKA crafting cost vs a benign client's local epoch).
//!
//! Run with `cargo run --release -p fabflip-bench --bin perf`. The thread
//! budget follows `FABFLIP_THREADS` (see README); the dispatch microbench
//! pins the budget to 4 so it exercises the pool even on small runners.
//!
//! The n-sweep (DESIGN.md §4e) times the quadratic selection rules
//! (Krum, mKrum, FoolsGold, Bulyan) as the cohort grows at fixed `d`,
//! through their blocked O(B·n)-resident kernels, and records each
//! rule's analytic resident aggregation bytes.
//!
//! The full run also reports the per-backend GEMM section (every
//! supported `fabflip_tensor::backend` at 256/1024), the per-backend
//! Krum distance-tile fill at the `cohort-fashion` shape (`krum_tile`:
//! n = 1 000, d = 9 098, 1 thread) with the whole Krum scorer at that
//! shape on 1 and 2 threads, pair-once against row tiles
//! (`krum_tile.scorer`), backend × thread
//! GEMM scaling, the per-backend `vecops` reduction microbench at
//! d = 256/4096/65536 (DESIGN.md §4f), and the checkpoint layer
//! (`checkpoint`: encode, checksum and durable save of the serve
//! deployment's write-ahead checkpoint, DESIGN.md §4d).
//!
//! `--smoke` runs the dispatch microbench with a reduced dispatch count
//! plus a reduced n-sweep (n = 50), the Krum distance-tile, SIMD Krum
//! tile and conv weight-gradient tile ratio gates and a checkpoint round
//! trip, does not write `BENCH_kernels.json`, and exits non-zero when the
//! pool is not measurably faster than per-dispatch spawning, a k = 40
//! checkpoint does not survive `save` → `load` bit for bit, blocked
//! `krum_scores` (in both tile regimes: n ≤ d, each pair once, and n > d,
//! row tiles) or the tiled `matmul_transpose_b` is not bitwise equal to
//! (or not enough faster than) its per-pair reference, `im2col` at one
//! Cifar conv writes its column matrix at less than
//! `LOWERING_GATE_MIN_RATIO` of the same-run unshifted plane copy, a
//! backend's Krum tile
//! differs from the scalar tile or (on a SIMD backend) fills less than
//! `KRUM_TILE_MIN_RATIO`× faster, or (on SIMD-capable hosts, unless
//! `FABFLIP_BACKEND` pins a narrower ISA) the detected backend's 1024³
//! GEMM falls below the committed autovectorized baseline — CI uses
//! this as a cheap perf/correctness regression gate.
//!
//! "Detected" is the widest backend the host supports; "active" is the
//! one running, which `FABFLIP_BACKEND` may pin narrower. Both are
//! printed and recorded.

use fabflip::{ZkaConfig, ZkaG, ZkaR};
use fabflip_agg::{
    krum_scores, krum_tile_rows, Bulyan, Defense, FedAvg, FoolsGold, Krum, Median, MultiKrum,
    NormBound, TrimmedMean, KRUM_ROW_BLOCK,
};
use fabflip_attacks::TaskInfo;
use fabflip_data::{Dataset, SynthSpec};
use fabflip_fl::checkpoint::{self, Checkpoint, InflightSubmission};
use fabflip_fl::{FlConfig, RoundRecord, TaskKind};
use fabflip_nn::losses::softmax_cross_entropy_hard;
use fabflip_nn::{Conv2d, Layer};
use fabflip_tensor::backend::{self, Kind, ALL_KINDS};
use fabflip_tensor::scratch::{scratch_f32, Purpose};
use fabflip_tensor::{
    col2im, im2col, matmul_into, matmul_into_serial, matmul_transpose_a, matmul_transpose_b, par,
    vecops, Tensor,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::time::Instant;

/// The seed repository's matmul kernel (ikj order with the zero-skip
/// branch), kept here verbatim as the performance baseline.
fn seed_matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_ip * b_v;
            }
        }
    }
}

/// 1024³ GEMM GFLOP/s of the pre-backend autovectorized
/// `target-cpu=native` build (committed BENCH_kernels.json baseline).
/// The detected-SIMD runtime backend must beat it — runtime dispatch is
/// only worth shipping if it recovers at least what static codegen gave.
const COMMITTED_AUTOVEC_1024_GFLOPS: f64 = 66.038;

/// Best-of-`reps` wall-clock seconds for `f`.
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn bench_matmul(sizes: &[usize]) -> (Vec<Value>, f64) {
    let mut rows = Vec::new();
    let mut speedup_1024 = 0.0f64;
    for &s in sizes {
        let mut rng = StdRng::seed_from_u64(42);
        let a: Vec<f32> = (0..s * s).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..s * s).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut c = vec![0.0f32; s * s];
        let flops = 2.0 * (s as f64).powi(3);
        let reps = if s >= 1024 { 3 } else { 5 };

        let t_new = time_best(reps, || {
            c.iter_mut().for_each(|v| *v = 0.0);
            matmul_into(&a, &b, &mut c, s, s, s);
        });
        let t_seed = time_best(reps.min(3), || {
            c.iter_mut().for_each(|v| *v = 0.0);
            seed_matmul_into(&a, &b, &mut c, s, s, s);
        });
        let speedup = t_seed / t_new;
        if s == 1024 {
            speedup_1024 = speedup;
        }
        println!(
            "matmul {s}x{s}x{s}: new {:.2} GFLOP/s, seed {:.2} GFLOP/s, speedup {:.2}x",
            flops / t_new / 1e9,
            flops / t_seed / 1e9,
            speedup
        );
        rows.push(serde_json::json!({
            "size": s as u64,
            "new_gflops": flops / t_new / 1e9,
            "seed_gflops": flops / t_seed / 1e9,
            "speedup": speedup,
        }));
    }
    (rows, speedup_1024)
}

/// The widest backend the host supports, whatever `FABFLIP_BACKEND`
/// pins: what detection alone would run.
fn detected_kind() -> Kind {
    ALL_KINDS
        .into_iter()
        .find(|k| k.supported())
        .unwrap_or(Kind::Scalar)
}

/// Per-backend serial GEMM throughput (DESIGN.md §4f): every supported
/// backend at each size, forced via `backend::force` (safe here — the
/// bench harness is single-threaded). Each row flags the host's detected
/// (widest) backend and the active one. Returns the rows plus the
/// detected backend's 1024³ GFLOP/s for the smoke gate.
fn bench_matmul_backends(sizes: &[usize]) -> (Vec<Value>, f64) {
    let detected = detected_kind();
    let active = backend::active_kind();
    let mut rows = Vec::new();
    let mut detected_1024 = 0.0f64;
    for &s in sizes {
        let mut rng = StdRng::seed_from_u64(42);
        let a: Vec<f32> = (0..s * s).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..s * s).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut c = vec![0.0f32; s * s];
        let flops = 2.0 * (s as f64).powi(3);
        let reps = if s >= 1024 { 5 } else { 7 };
        for kind in ALL_KINDS {
            if !kind.supported() {
                continue;
            }
            backend::force(Some(kind));
            let t = time_best(reps, || {
                c.iter_mut().for_each(|v| *v = 0.0);
                matmul_into_serial(&a, &b, &mut c, s, s, s);
            });
            backend::force(None);
            let gflops = flops / t / 1e9;
            if s == 1024 && kind == detected {
                detected_1024 = gflops;
            }
            println!(
                "matmul {s}x{s}x{s} [{}]: {gflops:.2} GFLOP/s{}{}",
                kind.name(),
                if kind == detected { " (detected)" } else { "" },
                if kind == active { " (active)" } else { "" }
            );
            rows.push(serde_json::json!({
                "backend": kind.name(),
                "detected": kind == detected,
                "active": kind == active,
                "size": s as u64,
                "gflops": gflops,
            }));
        }
    }
    (rows, detected_1024)
}

/// GEMM scaling across backend × thread budget: the same `matmul_into`
/// under every supported backend at explicit thread counts, so the JSON
/// reports how SIMD width and parallelism compose instead of only the
/// ambient (often 1-thread CI) budget.
fn bench_matmul_threads() -> Vec<Value> {
    const S: usize = 512;
    let mut rng = StdRng::seed_from_u64(42);
    let a: Vec<f32> = (0..S * S).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let b: Vec<f32> = (0..S * S).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut c = vec![0.0f32; S * S];
    let flops = 2.0 * (S as f64).powi(3);
    let prev = par::max_threads();
    let mut rows = Vec::new();
    for kind in ALL_KINDS {
        if !kind.supported() {
            continue;
        }
        backend::force(Some(kind));
        let mut t_one = 0.0f64;
        for threads in [1usize, 2, 4] {
            par::set_max_threads(threads);
            let t = time_best(3, || {
                c.iter_mut().for_each(|v| *v = 0.0);
                matmul_into(&a, &b, &mut c, S, S, S);
            });
            if threads == 1 {
                t_one = t;
            }
            println!(
                "matmul {S}x{S}x{S} [{}] @ {threads} threads: {:.2} GFLOP/s, speedup {:.2}x vs 1 thread",
                kind.name(),
                flops / t / 1e9,
                t_one / t
            );
            rows.push(serde_json::json!({
                "backend": kind.name(),
                "size": S as u64,
                "threads": threads as u64,
                "gflops": flops / t / 1e9,
                "speedup_vs_one_thread": t_one / t,
            }));
        }
        backend::force(None);
    }
    par::set_max_threads(prev);
    rows
}

/// Reduction microbench: `dot`/`l2_norm` and their fused delta forms per
/// backend at paper-relevant vector lengths (a conv layer's filter bank,
/// a small model, a Cifar-scale model slice).
/// Also returns the active backend's `l2_norm` GB/s at the largest `d`:
/// the streaming-read ceiling of the kernels this run executes.
fn bench_vecops_reduce() -> (Vec<Value>, f64) {
    let mut rows = Vec::new();
    let mut stream_gbps = f64::NAN;
    for &d in &[256usize, 4_096, 65_536] {
        let mut rng = StdRng::seed_from_u64(9 + d as u64);
        let x: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let y: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let r: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        // Repeat each timed call enough to rise above timer noise.
        let inner = (1 << 22) / d.max(1);
        let mut sink = 0.0f32;
        for kind in ALL_KINDS {
            if !kind.supported() {
                continue;
            }
            backend::force(Some(kind));
            let t_dot = time_best(3, || {
                for _ in 0..inner {
                    sink += vecops::dot(&x, &y);
                }
            }) / inner as f64;
            let t_l2 = time_best(3, || {
                for _ in 0..inner {
                    sink += vecops::l2_norm(&x);
                }
            }) / inner as f64;
            let t_dotd = time_best(3, || {
                for _ in 0..inner {
                    sink += vecops::dot_delta(&x, &y, &r);
                }
            }) / inner as f64;
            let t_l2d = time_best(3, || {
                for _ in 0..inner {
                    sink += vecops::l2_norm_delta(&x, &r);
                }
            }) / inner as f64;
            backend::force(None);
            // dot reads 2 vectors: 8 bytes per element per pass.
            let gbps = |t: f64, vecs: f64| (d as f64) * 4.0 * vecs / t / 1e9;
            println!(
                "vecops d={d} [{}]: dot {:.2} GB/s, l2 {:.2} GB/s, dot_delta {:.2} GB/s, l2_delta {:.2} GB/s",
                kind.name(),
                gbps(t_dot, 2.0),
                gbps(t_l2, 1.0),
                gbps(t_dotd, 3.0),
                gbps(t_l2d, 2.0),
            );
            if kind == backend::active_kind() {
                stream_gbps = gbps(t_l2, 1.0);
            }
            rows.push(serde_json::json!({
                "backend": kind.name(),
                "d": d as u64,
                "dot_gbps": gbps(t_dot, 2.0),
                "l2_norm_gbps": gbps(t_l2, 1.0),
                "dot_delta_gbps": gbps(t_dotd, 3.0),
                "l2_norm_delta_gbps": gbps(t_l2d, 2.0),
            }));
        }
        assert!(sink.is_finite());
    }
    (rows, stream_gbps)
}

/// One `Conv2d` the workloads train: `[cin, hw, hw] → [cout, hw, hw]`,
/// 3×3, stride 1, pad 1, at the local batch size of its task.
struct ConvShape {
    name: &'static str,
    batch: usize,
    cin: usize,
    cout: usize,
    hw: usize,
}

/// The eight convs of the Fashion (batch 4, the `cohort-fashion` client
/// shards) and Cifar (batch 16) classifiers, in layer order.
#[rustfmt::skip]
const CONV_SHAPES: [ConvShape; 8] = [
    ConvShape { name: "fashion.conv1", batch: 4, cin: 1, cout: 8, hw: 28 },
    ConvShape { name: "fashion.conv2", batch: 4, cin: 8, cout: 16, hw: 14 },
    ConvShape { name: "cifar.conv1", batch: 16, cin: 3, cout: 8, hw: 32 },
    ConvShape { name: "cifar.conv2", batch: 16, cin: 8, cout: 8, hw: 32 },
    ConvShape { name: "cifar.conv3", batch: 16, cin: 8, cout: 16, hw: 16 },
    ConvShape { name: "cifar.conv4", batch: 16, cin: 16, cout: 16, hw: 16 },
    ConvShape { name: "cifar.conv5", batch: 16, cin: 16, cout: 24, hw: 8 },
    ConvShape { name: "cifar.conv6", batch: 16, cin: 24, cout: 24, hw: 8 },
];

/// The shape `perf --smoke` gates lowering on: the Cifar 16→16 conv at
/// 16×16, whose 144-row column matrix (2.4 MB per batch) is large enough
/// for a stable rate and whose taps each copy a block of up to 256 floats.
const CONV_GATE_SHAPE: usize = 5;

/// One shape's conv phases, each timed alone on one thread over the
/// batch (best of `reps`).
struct ConvPhases {
    /// Seconds per batch of the unshifted lowering: each tap's column row
    /// is one `copy_from_slice` of its whole channel plane. The same
    /// reads and writes as `im2col`, without the shift, so it is the
    /// host's same-run ceiling for the lowering rates.
    copy_s: f64,
    /// Seconds per batch of `im2col` (column matrix written) and `col2im`
    /// (column matrix read).
    lowering_s: [f64; 2],
    /// Seconds per batch of the forward (`W·col`), weight-gradient
    /// (`g·colᵀ`) and input-gradient (`Wᵀ·g`) GEMMs.
    gemm_s: [f64; 3],
    col_bytes: f64,
    gemm_flops: f64,
}

impl ConvPhases {
    /// GB/s of column matrix moved in `t` seconds.
    fn gbps(&self, t: f64) -> f64 {
        self.col_bytes / t / 1e9
    }

    fn gflops(&self, phase: usize) -> f64 {
        self.gemm_flops / self.gemm_s[phase] / 1e9
    }

    /// `im2col`'s rate as a fraction of the same-run copy rate.
    fn im2col_over_copy(&self) -> f64 {
        self.copy_s / self.lowering_s[0]
    }

    fn to_json(&self, batch: usize) -> Value {
        let us = |t: f64| t / batch as f64 * 1e6;
        serde_json::json!({
            "threads": 1u64,
            "copy_gbps": self.gbps(self.copy_s),
            "im2col_gbps": self.gbps(self.lowering_s[0]),
            "col2im_gbps": self.gbps(self.lowering_s[1]),
            "im2col_over_copy": self.im2col_over_copy(),
            "col2im_over_copy": self.copy_s / self.lowering_s[1],
            "forward_gemm_gflops": self.gflops(0),
            "weight_grad_gemm_gflops": self.gflops(1),
            "input_grad_gemm_gflops": self.gflops(2),
            "us_per_sample": {
                "im2col": us(self.lowering_s[0]),
                "forward_gemm": us(self.gemm_s[0]),
                "weight_grad_gemm": us(self.gemm_s[1]),
                "input_grad_gemm": us(self.gemm_s[2]),
                "col2im": us(self.lowering_s[1]),
            },
        })
    }
}

/// The conv lowering and GEMMs of one [`ConvShape`], each phase timed
/// alone on one thread over the batch: the calls `Conv2d` makes, in
/// isolation. The copy ceiling and `im2col` are timed alternately, best
/// of `reps` each, so a noisy stretch of a shared host hits both.
fn bench_conv_phases(shape: &ConvShape, reps: usize) -> ConvPhases {
    let ConvShape {
        batch,
        cin,
        cout,
        hw,
        ..
    } = *shape;
    let (k, stride, pad) = (3usize, 1usize, 1usize);
    let (ckk, area) = (cin * k * k, hw * hw);
    let col_len = ckk * area;
    let mut rng = StdRng::seed_from_u64(8);
    let mut gen =
        |len: usize| -> Vec<f32> { (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect() };
    let img = gen(batch * cin * area);
    let g = gen(batch * cout * area);
    let weight = gen(cout * ckk);
    let mut cols = vec![0.0f32; batch * col_len];
    let mut out = vec![0.0f32; cout * area];
    let mut gw = vec![0.0f32; cout * ckk];
    let mut grad_col = vec![0.0f32; col_len];
    let mut grad_img = vec![0.0f32; cin * area];
    let prev_budget = par::max_threads();
    par::set_max_threads(1);
    let (mut t_copy, mut t_im2col) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        t_copy = t_copy.min(time_best(1, || {
            for (x, col) in img
                .chunks_exact(cin * area)
                .zip(cols.chunks_exact_mut(col_len))
            {
                for (plane, taps) in x.chunks_exact(area).zip(col.chunks_exact_mut(k * k * area)) {
                    for row in taps.chunks_exact_mut(area) {
                        row.copy_from_slice(plane);
                    }
                }
            }
            std::hint::black_box(&mut cols);
        }));
        t_im2col = t_im2col.min(time_best(1, || {
            for (i, col) in cols.chunks_exact_mut(col_len).enumerate() {
                let x = &img[i * cin * area..(i + 1) * cin * area];
                im2col(x, col, cin, hw, hw, k, k, stride, pad);
            }
            std::hint::black_box(&mut cols);
        }));
    }
    let col = |i: usize| &cols[i * col_len..(i + 1) * col_len];
    let g_of = |i: usize| &g[i * cout * area..(i + 1) * cout * area];
    let t_fwd = time_best(reps, || {
        for i in 0..batch {
            out.fill(0.0);
            matmul_into(&weight, col(i), &mut out, cout, ckk, area);
        }
    });
    let t_wgrad = time_best(reps, || {
        for i in 0..batch {
            gw.fill(0.0);
            matmul_transpose_b(g_of(i), col(i), &mut gw, cout, area, ckk);
        }
    });
    let t_igrad = time_best(reps, || {
        for i in 0..batch {
            grad_col.fill(0.0);
            matmul_transpose_a(&weight, g_of(i), &mut grad_col, ckk, cout, area);
        }
    });
    let t_col2im = time_best(reps, || {
        for i in 0..batch {
            grad_img.fill(0.0);
            col2im(col(i), &mut grad_img, cin, hw, hw, k, k, stride, pad);
        }
    });
    par::set_max_threads(prev_budget);
    ConvPhases {
        copy_s: t_copy,
        lowering_s: [t_im2col, t_col2im],
        gemm_s: [t_fwd, t_wgrad, t_igrad],
        col_bytes: (batch * col_len * 4) as f64,
        gemm_flops: (2 * batch * cout * ckk * area) as f64,
    }
}

/// The host a `BENCH_kernels.json` section was taken on: vCPU count,
/// the detected and active backends, and the CPU model where the OS
/// reports one.
fn host_record() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    serde_json::json!({
        "vcpus": std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        "backend_detected": detected_kind().name(),
        "backend_active": backend::active().name(),
        "cpu": cpu,
    })
}

/// Every workload conv ([`CONV_SHAPES`]): the `Conv2d` layer's forward
/// and backward samples/s at the process thread budget, and its phases
/// on one thread ([`bench_conv_phases`]), with the per-sample phase
/// times summed over the shapes.
fn bench_conv() -> Value {
    let mut rows = Vec::new();
    let mut sum_us = [0.0f64; 5];
    for shape in &CONV_SHAPES {
        let ConvShape {
            name,
            batch,
            cin,
            cout,
            hw,
        } = *shape;
        let mut rng = StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new(cin, cout, 3, 1, 1, &mut rng);
        let x = Tensor::uniform(vec![batch, cin, hw, hw], -1.0, 1.0, &mut rng);
        let y = conv.forward(&x).expect("conv forward");
        let g = Tensor::uniform(y.shape().to_vec(), -1.0, 1.0, &mut rng);
        let t_fwd = time_best(5, || {
            let _ = conv.forward(&x).expect("conv forward");
        });
        let t_bwd = time_best(5, || {
            let _ = conv.backward(&g).expect("conv backward");
        });
        let phases = bench_conv_phases(shape, 5);
        println!(
            "conv {name} (batch {batch}, {cin}->{cout} ch, {hw}x{hw}): fwd {:.0} samples/s, \
             bwd {:.0} samples/s; 1 thread: copy {:.2} GB/s, im2col {:.2} GB/s ({:.2}x copy), \
             col2im {:.2} GB/s, GEMM fwd {:.1} / weight-grad {:.1} / input-grad {:.1} GFLOP/s",
            batch as f64 / t_fwd,
            batch as f64 / t_bwd,
            phases.gbps(phases.copy_s),
            phases.gbps(phases.lowering_s[0]),
            phases.im2col_over_copy(),
            phases.gbps(phases.lowering_s[1]),
            phases.gflops(0),
            phases.gflops(1),
            phases.gflops(2),
        );
        let t = [
            phases.lowering_s[0],
            phases.gemm_s[0],
            phases.gemm_s[1],
            phases.gemm_s[2],
            phases.lowering_s[1],
        ];
        for (acc, t) in sum_us.iter_mut().zip(t) {
            *acc += t / batch as f64 * 1e6;
        }
        rows.push(serde_json::json!({
            "shape": name,
            "batch": batch as u64,
            "in_channels": cin as u64,
            "out_channels": cout as u64,
            "spatial": hw as u64,
            "col_bytes": phases.col_bytes,
            "forward_samples_per_s": batch as f64 / t_fwd,
            "backward_samples_per_s": batch as f64 / t_bwd,
            "phases": phases.to_json(batch),
        }));
    }
    let total: f64 = sum_us.iter().sum();
    println!(
        "conv phases summed over {} shapes (1 thread, us/sample): im2col {:.1}, forward GEMM \
         {:.1}, weight-grad GEMM {:.1}, input-grad GEMM {:.1}, col2im {:.1}, total {total:.1}",
        CONV_SHAPES.len(),
        sum_us[0],
        sum_us[1],
        sum_us[2],
        sum_us[3],
        sum_us[4],
    );
    serde_json::json!({
        "host": host_record(),
        "shapes": rows,
        "summed_us_per_sample": {
            "im2col": sum_us[0],
            "forward_gemm": sum_us[1],
            "weight_grad_gemm": sum_us[2],
            "input_grad_gemm": sum_us[3],
            "col2im": sum_us[4],
            "total": total,
        },
    })
}

fn bench_aggregation(n: usize, d: usize) -> Vec<Value> {
    let mut rng = StdRng::seed_from_u64(11);
    let updates: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let weights = vec![1.0f32; n];
    let rules: Vec<(&str, Box<dyn Defense>)> = vec![
        ("FedAvg", Box::new(FedAvg::new())),
        ("Krum", Box::new(Krum::new(10))),
        ("mKrum", Box::new(MultiKrum::with_default_m(10))),
        ("TRmean", Box::new(TrimmedMean::new(10))),
        ("Median", Box::new(Median::new())),
        ("Bulyan", Box::new(Bulyan::new(10))),
        ("FoolsGold", Box::new(FoolsGold::new())),
        ("NormBound", Box::new(NormBound::new(1.0))),
    ];
    let mut rows = Vec::new();
    for (name, rule) in &rules {
        let t = time_best(3, || {
            let _ = rule.aggregate(&updates, &weights).expect("aggregate");
        });
        println!("agg {name}: {:.1} ms (n={n}, d={d})", t * 1e3);
        rows.push(serde_json::json!({
            "rule": *name,
            "n": n as u64,
            "d": d as u64,
            "seconds": t,
        }));
    }
    rows
}

/// Deterministic per-client update for the n-sweep and the Krum benches,
/// reproducible from the client index alone.
fn gen_update(buf: &mut [f32], client: usize) {
    let mut rng = StdRng::seed_from_u64(0xBEEF ^ client as u64);
    for v in buf.iter_mut() {
        *v = rng.gen_range(-1.0f32..1.0);
    }
}

/// Minimum speed-up of blocked `krum_scores` over the in-run per-pair
/// reference in the same tile regime, on one thread. Measured on the
/// 2-vCPU AVX-512 host (portable build): pair-once 3.4–4.1×, row tiles
/// 3.7–4.6× (AVX2 pinned 3.2×/3.9×, scalar pinned 2.1×/2.5×). With the
/// SSE2-only tile kernel the row-tile gate measured 2.0–2.4×, and with
/// the per-pair loop planted as the tile kernel 1.2–1.4×.
const KRUM_GATE_MIN_SPEEDUP: f64 = 1.7;

/// The Krum scorer's per-row selection over one distance tile whose
/// first row is update `lo` (`n` columns): each row gathered without its
/// diagonal, sorted, its `k` smallest summed into `out`, rows spread over
/// the pool as in `krum_scores_blocked_into`.
fn select_tile_rows(tile: &[f32], lo: usize, n: usize, k: usize, out: &mut [f32]) {
    par::for_each_chunk_mut(out, 1, |r, score| {
        let i = lo + r;
        let mut row = scratch_f32(Purpose::KrumRow, n - 1);
        let others = tile[r * n..(r + 1) * n]
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i);
        for (slot, (_, &dist)) in row.iter_mut().zip(others) {
            *slot = dist;
        }
        row.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        score[0] = row[..k].iter().sum();
    });
}

/// The reference the Krum gate times against: `krum_scores`' tiles (one
/// tile of the whole matrix when n ≤ d, else `KRUM_ROW_BLOCK`-row tiles)
/// filled pair by pair through `vecops::sq_distance` (the per-pair loop
/// the register-blocked kernel replaced, in the form the kernel's own
/// remainder path uses; the whole matrix each pair once, then mirrored),
/// then the same gather, sort and prefix sum. Returns the scores and the
/// seconds spent in the distance and the selection phase.
fn krum_scores_per_pair(refs: &[&[f32]], f: usize) -> (Vec<f32>, f64, f64) {
    let n = refs.len();
    let k = n - f - 2;
    let block = krum_tile_rows(n, refs[0].len());
    let mut scores = vec![0.0f32; n];
    let mut tile = vec![0.0f32; block * n];
    let (mut dist_s, mut select_s) = (0.0, 0.0);
    for (b, out) in scores.chunks_mut(block).enumerate() {
        let lo = b * block;
        let tile = &mut tile[..out.len() * n];
        let t = Instant::now();
        if out.len() == n {
            for i in 0..n {
                tile[i * n + i] = 0.0;
                for j in i + 1..n {
                    let dist = vecops::sq_distance(refs[i], refs[j]);
                    tile[i * n + j] = dist;
                    tile[j * n + i] = dist;
                }
            }
        } else {
            for (r, drow) in tile.chunks_mut(n).enumerate() {
                let i = lo + r;
                for (j, (slot, vj)) in drow.iter_mut().zip(refs).enumerate() {
                    *slot = if j == i {
                        0.0
                    } else {
                        vecops::sq_distance(refs[i], vj)
                    };
                }
            }
        }
        let t_sel = Instant::now();
        select_tile_rows(tile, lo, n, k, out);
        select_s += t_sel.elapsed().as_secs_f64();
        dist_s += (t_sel - t).as_secs_f64();
    }
    (scores, dist_s, select_s)
}

/// Ratio gate for the register-blocked Krum scorer (DESIGN.md §4e), once
/// per tile regime on one thread: n = 1 000, d = 1 024 (n ≤ d: one tile,
/// each pair once) and n = 1 100, d = 1 024 (n > d: `KRUM_ROW_BLOCK`-row
/// tiles). In each, `krum_scores` must match the per-pair reference of
/// the same regime bit for bit and beat it by [`KRUM_GATE_MIN_SPEEDUP`].
///
/// d = 1 024 rather than 256: at d = 256 one pair is only 64 chunk steps,
/// the out-of-order core overlaps consecutive pairs of the per-pair loop,
/// and that loop's speed then swings with code placement — a build with
/// the per-pair loop planted as the kernel measured up to 1.46× there,
/// against 1.56–1.89× for the blocked kernel.
fn krum_gate() -> bool {
    let pair_once = krum_gate_case(1_000, 1_024);
    let row_tiles = krum_gate_case(1_100, 1_024);
    pair_once && row_tiles
}

/// One regime of [`krum_gate`]. Prints the distance and selection phases
/// of both sides; the blocked distance phase is that regime's fill alone
/// (the triangle and its mirror, or every row tile).
fn krum_gate_case(n: usize, d: usize) -> bool {
    const F: usize = 10;
    let mut buf = vec![0.0f32; d];
    let updates: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            gen_update(&mut buf, i);
            buf.clone()
        })
        .collect();
    let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
    let block = krum_tile_rows(n, d);
    let regime = if block == n { "pair-once" } else { "row tiles" };
    let prev_budget = par::max_threads();
    par::set_max_threads(1);
    let blocked = krum_scores(&refs, F).expect("krum geometry");
    let (reference, _, _) = krum_scores_per_pair(&refs, F);
    // Best of seven, the three timings interleaved so a noisy stretch of
    // a shared host hits both sides of the ratio.
    let mut tile = vec![0.0f32; block * n];
    let (mut t_ref, mut t_blocked, mut t_dist) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let (mut ref_dist, mut ref_select) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        t_ref = t_ref.min(time_best(1, || {
            let (scores, dist, select) = krum_scores_per_pair(&refs, F);
            std::hint::black_box(scores);
            ref_dist = ref_dist.min(dist);
            ref_select = ref_select.min(select);
        }));
        t_blocked = t_blocked.min(time_best(1, || {
            std::hint::black_box(krum_scores(&refs, F).expect("krum geometry"));
        }));
        t_dist = t_dist.min(time_best(1, || {
            if block == n {
                vecops::pairwise_sq_distances_into(&refs, &mut tile);
            } else {
                for lo in (0..n).step_by(block) {
                    let rows = block.min(n - lo);
                    vecops::sq_distance_tile_into(&refs, lo, &mut tile[..rows * n]);
                }
            }
            std::hint::black_box(&mut tile);
        }));
    }
    par::set_max_threads(prev_budget);
    let speedup = t_ref / t_blocked;
    println!(
        "krum gate {regime} (n={n}, d={d}, 1 thread): per-pair {:.1} ms (distance {:.1} + \
         selection {:.1}), blocked {:.1} ms (distance {:.1} + selection {:.1}), speed-up {speedup:.2}x",
        t_ref * 1e3,
        ref_dist * 1e3,
        ref_select * 1e3,
        t_blocked * 1e3,
        t_dist * 1e3,
        (t_blocked - t_dist).max(0.0) * 1e3,
    );
    let bitwise = blocked
        .iter()
        .zip(&reference)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    if !bitwise {
        eprintln!("FAIL: {regime} krum_scores differ from the per-pair reference");
    }
    if speedup < KRUM_GATE_MIN_SPEEDUP {
        eprintln!(
            "FAIL: {regime} krum_scores speed-up {speedup:.2}x < {KRUM_GATE_MIN_SPEEDUP}x \
             vs the per-pair reference"
        );
    }
    bitwise && speedup >= KRUM_GATE_MIN_SPEEDUP
}

/// `krum_scores` as it ran before its n ≤ d tiles held the whole matrix:
/// every `KRUM_ROW_BLOCK`-row tile filled by
/// `vecops::sq_distance_tile_into` (every pair of its rows), then the
/// scorer's selection. The row-tile side of the `krum_tile.scorer`
/// comparison.
fn krum_scores_row_tiles(refs: &[&[f32]], f: usize, tile: &mut [f32], scores: &mut [f32]) {
    let n = refs.len();
    for (b, out) in scores.chunks_mut(KRUM_ROW_BLOCK).enumerate() {
        let lo = b * KRUM_ROW_BLOCK;
        let tile = &mut tile[..out.len() * n];
        vecops::sq_distance_tile_into(refs, lo, tile);
        select_tile_rows(tile, lo, n, n - f - 2, out);
    }
}

/// The whole Krum scorer at the `cohort-fashion` shape on 1 and 2
/// threads: `krum_scores` (n ≤ d, so each pair once over the whole
/// matrix) against [`krum_scores_row_tiles`]. Best of `reps`, the two
/// interleaved. Returns one JSON row per thread count and whether the
/// two scorers agreed bit for bit.
fn bench_krum_scorer(refs: &[&[f32]], reps: usize) -> (Vec<Value>, bool) {
    const F: usize = 10;
    let n = refs.len();
    let prev_budget = par::max_threads();
    let mut tile = vec![0.0f32; KRUM_ROW_BLOCK * n];
    let mut tiled = vec![0.0f32; n];
    let mut rows = Vec::new();
    let mut bitwise = true;
    for threads in [1usize, 2] {
        par::set_max_threads(threads);
        let (mut t_pair_once, mut t_row_tiles) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps {
            let mut scores = Vec::new();
            t_pair_once = t_pair_once.min(time_best(1, || {
                scores = krum_scores(refs, F).expect("krum geometry");
            }));
            t_row_tiles = t_row_tiles.min(time_best(1, || {
                krum_scores_row_tiles(refs, F, &mut tile, &mut tiled);
            }));
            bitwise &= scores
                .iter()
                .zip(&tiled)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        }
        println!(
            "krum scorer (n={n}, d={}, {threads} thread(s)): pair-once {:.1} ms, row tiles {:.1} ms, \
             {:.2}x",
            refs[0].len(),
            t_pair_once * 1e3,
            t_row_tiles * 1e3,
            t_row_tiles / t_pair_once
        );
        rows.push(serde_json::json!({
            "threads": threads as u64,
            "pair_once_ms": t_pair_once * 1e3,
            "row_tiles_ms": t_row_tiles * 1e3,
            "row_tiles_over_pair_once": t_row_tiles / t_pair_once,
        }));
    }
    par::set_max_threads(prev_budget);
    (rows, bitwise)
}

/// Cohort size and update length of the `cohort-fashion` mKrum round
/// (N = K = 1 000 clients, the Fashion MLP's 9 098 parameters): the shape
/// the per-backend Krum tile section measures.
const KRUM_TILE_N: usize = 1_000;
const KRUM_TILE_D: usize = 9_098;

/// Minimum tile-fill rate of the active SIMD backend over the scalar
/// backend at [`KRUM_TILE_N`] × [`KRUM_TILE_D`] on one thread. Measured
/// on the 2-vCPU AVX-512 host (portable build): AVX-512 2.2–2.8×, AVX2
/// (forced) 1.9–2.0×; with the AVX-512 method delegating to the scalar
/// kernel the gate measures 0.99–1.04×.
const KRUM_TILE_MIN_RATIO: f64 = 1.5;

/// Per-backend fill rate of one `KRUM_ROW_BLOCK × n` Krum distance tile
/// (`vecops::sq_distance_tile_into` from row 0) at the `cohort-fashion`
/// shape on one thread, each backend forced in turn (safe here — the
/// bench is single-threaded at that point). Best of `reps`, the backends
/// interleaved per rep so a noisy stretch of a shared host hits all of
/// them. Every backend's tile must equal the scalar tile bit for bit.
/// With `scorer`, the section's `scorer` rows also time the whole scorer
/// on 1 and 2 threads ([`bench_krum_scorer`]), whose two sides must agree
/// too; without it they are empty.
/// Returns the JSON section, the active backend's rate over the scalar
/// rate, and whether the tiles (and scorers) agreed.
fn bench_krum_tile(reps: usize, scorer: bool) -> (Value, f64, bool) {
    let (n, d) = (KRUM_TILE_N, KRUM_TILE_D);
    let rows = KRUM_ROW_BLOCK.min(n);
    let mut buf = vec![0.0f32; d];
    let updates: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            gen_update(&mut buf, i);
            buf.clone()
        })
        .collect();
    let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
    let kinds: Vec<Kind> = ALL_KINDS.into_iter().filter(|k| k.supported()).collect();
    let active = backend::active_kind();
    let prev_budget = par::max_threads();
    par::set_max_threads(1);
    let mut tile = vec![0.0f32; rows * n];
    let mut want = vec![0.0f32; rows * n];
    backend::force(Some(Kind::Scalar));
    vecops::sq_distance_tile_into(&refs, 0, &mut want);
    let mut bitwise = true;
    let mut best = vec![f64::INFINITY; kinds.len()];
    for _ in 0..reps {
        for (kind, best) in kinds.iter().zip(best.iter_mut()) {
            backend::force(Some(*kind));
            *best = best.min(time_best(1, || {
                vecops::sq_distance_tile_into(&refs, 0, &mut tile);
            }));
            bitwise &= tile
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        }
    }
    backend::force(None);
    par::set_max_threads(prev_budget);
    // sub, mul, add per element pair.
    let flops = (3 * rows * n * d) as f64;
    let rate = |kind: Kind| {
        kinds
            .iter()
            .zip(&best)
            .find(|(k, _)| **k == kind)
            .map_or(f64::NAN, |(_, t)| flops / t)
    };
    let ratio = rate(active) / rate(Kind::Scalar);
    let mut backends = Vec::new();
    for (kind, t) in kinds.iter().zip(&best) {
        println!(
            "krum tile ({rows}x{n}, d={d}, 1 thread) {:>6}: {:.1} ms, {:.2} GFLOP/s",
            kind.name(),
            t * 1e3,
            flops / t / 1e9
        );
        backends.push(serde_json::json!({
            "backend": kind.name(),
            "tile_ms": t * 1e3,
            "gflops": flops / t / 1e9,
            "pairs_per_s": (rows * n) as f64 / t,
        }));
    }
    println!("krum tile: {} over scalar {ratio:.2}x", active.name());
    let (scorer_rows, scorer_bitwise) = if scorer {
        bench_krum_scorer(&refs, reps)
    } else {
        (Vec::new(), true)
    };
    let section = serde_json::json!({
        "n": n as u64,
        "d": d as u64,
        "rows": rows as u64,
        "threads": 1u64,
        "backends": backends,
        "active": active.name(),
        "active_over_scalar": ratio,
        "scorer": scorer_rows,
    });
    (section, ratio, bitwise && scorer_bitwise)
}

/// Ratio gate for the SIMD distance rows (DESIGN.md §4e/§4f): at the
/// `cohort-fashion` shape on one thread every backend's Krum tile must
/// equal the scalar tile bit for bit, and when the active backend is a
/// SIMD one (detected, or pinned by `FABFLIP_BACKEND`) it must fill the
/// tile [`KRUM_TILE_MIN_RATIO`]× faster than the scalar backend. With the
/// scalar backend active only equality is gated.
fn krum_tile_gate() -> bool {
    let (_, ratio, bitwise) = bench_krum_tile(5, false);
    if !bitwise {
        eprintln!("FAIL: a backend's Krum distance tile differs from the scalar tile");
    }
    let simd = backend::active_kind() != Kind::Scalar;
    let fast = !simd || ratio >= KRUM_TILE_MIN_RATIO;
    if !fast {
        eprintln!(
            "FAIL: {} Krum tile fill {ratio:.2}x < {KRUM_TILE_MIN_RATIO}x the scalar backend's",
            backend::active().name()
        );
    }
    bitwise && fast
}

/// Minimum speed-up of the tiled `matmul_transpose_b` over the in-run
/// per-pair reference at the 8→8 @ 32×32 weight-gradient shape on one
/// thread, on a SIMD backend. Measured on the 2-vCPU AVX-512 host
/// (portable build): 2.8–3.0× on AVX-512 and 2.0× with AVX2 forced; with
/// the per-pair loop planted as the AVX-512 tile the same gate measures
/// 1.00–1.06×.
const CONV_GATE_MIN_SPEEDUP: f64 = 1.5;

/// The reference the conv gate times against: one
/// [`backend::CpuBackend::dot_lanes`] per output element, added into `c`
/// — the weight-gradient loop the 4×4 tile replaced.
fn transpose_b_per_pair(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    let be = backend::active();
    for (c_row, a_row) in c.chunks_mut(n).zip(a.chunks(k)) {
        for (c_v, b_row) in c_row.iter_mut().zip(b.chunks(k)) {
            *c_v += be.dot_lanes(a_row, b_row);
        }
    }
}

/// Ratio gate for the register-blocked weight-gradient tile (DESIGN.md
/// §4b): at `cifar_cnn`'s 8→8 channel, 3×3, 32×32 layer, the weight
/// gradient `g [8, 1024] · colᵀ [1024, 72]` through `matmul_transpose_b`
/// must match the per-pair reference bit for bit and, on a SIMD backend,
/// beat it by [`CONV_GATE_MIN_SPEEDUP`]. The scalar backend's tile is
/// the per-pair loop by definition, so there only equality is gated.
fn conv_gate() -> bool {
    const M: usize = 8;
    const K: usize = 32 * 32;
    const N: usize = 8 * 3 * 3;
    let mut rng = StdRng::seed_from_u64(31);
    let g: Vec<f32> = (0..M * K).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let col: Vec<f32> = (0..N * K).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let prev_budget = par::max_threads();
    par::set_max_threads(1);
    let mut tiled = vec![0.0f32; M * N];
    matmul_transpose_b(&g, &col, &mut tiled, M, K, N);
    let mut reference = vec![0.0f32; M * N];
    transpose_b_per_pair(&g, &col, &mut reference, K, N);
    // Best of seven rounds of 32 products (one batch), the two sides
    // interleaved so a noisy stretch of a shared host hits both.
    let mut c = vec![0.0f32; M * N];
    let (mut t_ref, mut t_tiled) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        t_ref = t_ref.min(time_best(1, || {
            for _ in 0..32 {
                c.fill(0.0);
                transpose_b_per_pair(&g, &col, &mut c, K, N);
            }
            std::hint::black_box(&mut c);
        }));
        t_tiled = t_tiled.min(time_best(1, || {
            for _ in 0..32 {
                c.fill(0.0);
                matmul_transpose_b(&g, &col, &mut c, M, K, N);
            }
            std::hint::black_box(&mut c);
        }));
    }
    par::set_max_threads(prev_budget);
    let flops = (32 * 2 * M * K * N) as f64;
    let speedup = t_ref / t_tiled;
    let simd = backend::active_kind() != Kind::Scalar;
    println!(
        "conv gate (weight gradient {M}x{K} . ({N}x{K})^T, 1 thread, {}): per-pair {:.1} GFLOP/s, \
         tiled {:.1} GFLOP/s, speed-up {speedup:.2}x",
        backend::active().name(),
        flops / t_ref / 1e9,
        flops / t_tiled / 1e9,
    );
    let bitwise = tiled
        .iter()
        .zip(&reference)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    if !bitwise {
        eprintln!("FAIL: tiled matmul_transpose_b differs from the per-pair dot_lanes reference");
    }
    let fast = !simd || speedup >= CONV_GATE_MIN_SPEEDUP;
    if !fast {
        eprintln!(
            "FAIL: tiled matmul_transpose_b speed-up {speedup:.2}x < {CONV_GATE_MIN_SPEEDUP}x \
             vs the per-pair reference"
        );
    }
    bitwise && fast
}

/// Minimum `im2col` GB/s at [`CONV_GATE_SHAPE`] as a fraction of the
/// same-run unshifted plane copy (1 thread). Set between the two sides
/// on a 2-vCPU AVX-512 host: over 10 alternating `--smoke` pairs the
/// whole-tap block read 0.83–0.93 and the per-row loop it replaced
/// 0.36–0.52.
const LOWERING_GATE_MIN_RATIO: f64 = 0.7;

/// The lowering smoke gate: `im2col` at one Cifar conv must write its
/// column matrix at [`LOWERING_GATE_MIN_RATIO`] of the rate of the
/// same-run unshifted plane copy, which reads the same image and writes
/// the same column rows. A ratio of two rates from one run over the
/// same memory, so neither the host's speed nor its cache sizes favour
/// one side.
fn lowering_gate() -> bool {
    let shape = &CONV_SHAPES[CONV_GATE_SHAPE];
    let phases = bench_conv_phases(shape, 25);
    let ratio = phases.im2col_over_copy();
    println!(
        "lowering gate ({}: batch {}, {}->{} ch, {}x{}, 1 thread): copy {:.2} GB/s, \
         im2col {:.2} GB/s, ratio {ratio:.2}",
        shape.name,
        shape.batch,
        shape.cin,
        shape.cout,
        shape.hw,
        shape.hw,
        phases.gbps(phases.copy_s),
        phases.gbps(phases.lowering_s[0]),
    );
    let ok = ratio >= LOWERING_GATE_MIN_RATIO;
    if !ok {
        eprintln!(
            "FAIL: im2col {ratio:.2}x < {LOWERING_GATE_MIN_RATIO}x the same-run plane copy rate"
        );
    }
    ok
}

/// Model dimension of the Fashion MLP the serve deployment checkpoints.
const CKPT_DIM: usize = 9_098;

/// The serve engine's write-ahead checkpoint after ten closed rounds with
/// `k` submissions of the open round in flight, at [`CKPT_DIM`].
fn wal_checkpoint(cfg: &FlConfig, k: usize) -> Checkpoint {
    let mut rng = StdRng::seed_from_u64(41 + k as u64);
    let mut words = || -> Vec<u32> {
        (0..CKPT_DIM)
            .map(|_| rng.gen_range(-1.0f32..1.0).to_bits())
            .collect()
    };
    Checkpoint {
        version: checkpoint::CHECKPOINT_VERSION,
        fingerprint: checkpoint::fingerprint(cfg),
        next_round: 10,
        global_bits: words(),
        prev_global_bits: Some(words()),
        rounds: (0..10)
            .map(|round| RoundRecord {
                round,
                accuracy: 0.5,
                ..RoundRecord::default()
            })
            .collect(),
        pending: Vec::new(),
        attack_state: Vec::new(),
        inflight: (0..k)
            .map(|seq| InflightSubmission {
                seq: seq as u32,
                client: seq,
                malicious: seq % 5 == 0,
                weight_bits: 1.0f32.to_bits(),
                payload_bits: words(),
            })
            .collect(),
        inflight_meta: vec![k as u64, 0, 0, 0, 0],
        checksum: 0,
    }
    .seal()
}

fn ckpt_cfg() -> FlConfig {
    FlConfig::builder(TaskKind::Fashion).rounds(20).build()
}

fn ckpt_scratch_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fabflip-perf-ckpt-{}", std::process::id()))
}

/// The checkpoint layer at the serve deployment's shape: `encode`,
/// `body_checksum` and the full durable `save` (one write, two fsyncs,
/// two renames) for k = 0, 20 and 40 in-flight submissions, in ms and
/// MB/s, next to the host's streaming-read ceiling (`vecops` `l2_norm`
/// GB/s at the largest `d` on the active backend).
fn bench_checkpoint(ceiling_gbps: f64) -> Value {
    let cfg = ckpt_cfg();
    let dir = ckpt_scratch_dir();
    let mut rows = Vec::new();
    for k in [0usize, 20, 40] {
        let c = wal_checkpoint(&cfg, k);
        let bytes = checkpoint::encode(&c).len();
        let t_encode = time_best(5, || {
            std::hint::black_box(checkpoint::encode(&c));
        });
        let t_checksum = time_best(5, || {
            std::hint::black_box(c.body_checksum());
        });
        let t_save = time_best(5, || {
            checkpoint::save(&dir, &c).expect("checkpoint save");
        });
        let mbps = |t: f64| bytes as f64 / t / 1e6;
        println!(
            "checkpoint k={k} ({:.2} MB): encode {:.3} ms ({:.0} MB/s), checksum {:.3} ms \
             ({:.0} MB/s), save {:.3} ms ({:.0} MB/s); streaming ceiling {ceiling_gbps:.1} GB/s",
            bytes as f64 / 1e6,
            t_encode * 1e3,
            mbps(t_encode),
            t_checksum * 1e3,
            mbps(t_checksum),
            t_save * 1e3,
            mbps(t_save),
        );
        rows.push(serde_json::json!({
            "k": k as u64,
            "d": CKPT_DIM as u64,
            "bytes": bytes as u64,
            "encode_ms": t_encode * 1e3,
            "encode_mbps": mbps(t_encode),
            "checksum_ms": t_checksum * 1e3,
            "checksum_mbps": mbps(t_checksum),
            "save_ms": t_save * 1e3,
            "save_mbps": mbps(t_save),
        }));
    }
    std::fs::remove_dir_all(&dir).ok();
    serde_json::json!({
        "streaming_ceiling_gbps": ceiling_gbps,
        "saves": rows,
    })
}

/// Smoke check: a k = 40 serve checkpoint survives `save` → `load` bit
/// for bit.
fn checkpoint_gate() -> bool {
    let cfg = ckpt_cfg();
    let dir = ckpt_scratch_dir();
    let c = wal_checkpoint(&cfg, 40);
    let ok = checkpoint::save(&dir, &c).is_ok() && checkpoint::load(&dir, &cfg) == Some(c);
    std::fs::remove_dir_all(&dir).ok();
    if ok {
        println!("checkpoint gate: k=40 save -> load round-trips bitwise");
    } else {
        eprintln!("FAIL: a k=40 checkpoint does not round-trip through save -> load");
    }
    ok
}

/// The §4e n-sweep: per-rule seconds and resident aggregation bytes as
/// the cohort grows at fixed `d`. The quadratic selection family runs the
/// blocked kernels over a materialized cohort (resident O(B·n + B²),
/// analytic, excluding the inherent n·d input; Krum's `B` is its scorer's
/// tile height, `krum_tile_rows(n, d)`).
fn bench_n_sweep(smoke: bool) -> Vec<Value> {
    const D: usize = 256;
    const TILE: usize = 128; // FoolsGold FG_TILE (crate-private)
    let quad_ns: &[usize] = if smoke { &[50] } else { &[50, 1_000, 5_000] };
    let mut rows = Vec::new();
    let mut buf = vec![0.0f32; D];
    for &n in quad_ns {
        let updates: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                gen_update(&mut buf, i);
                buf.clone()
            })
            .collect();
        let weights = vec![1.0f32; n];
        let f = 10usize.min(n.saturating_sub(3));
        let block = krum_tile_rows(n, D);
        let krum_resident = (block * n + 2 * n) * 4;
        let fg_tile = TILE.min(n);
        let fg_resident = (fg_tile * fg_tile + 4 * n) * 4;
        let theta = n - 2 * f;
        let bulyan_resident = if n <= 512 {
            (n * n + 2 * n + 3 * theta) * 4
        } else {
            (block * n + 2 * n + 3 * theta) * 4
        };
        let rules: Vec<(&str, Box<dyn Defense>, usize)> = vec![
            ("Krum", Box::new(Krum::new(f)), krum_resident),
            (
                "mKrum",
                Box::new(MultiKrum::with_default_m(f)),
                krum_resident,
            ),
            ("FoolsGold", Box::new(FoolsGold::new()), fg_resident),
            ("Bulyan", Box::new(Bulyan::new(f)), bulyan_resident),
        ];
        for (name, rule, resident) in &rules {
            let reps = if n >= 1_000 { 1 } else { 2 };
            let t = time_best(reps, || {
                let _ = rule.aggregate(&updates, &weights).expect("aggregate");
            });
            println!(
                "n-sweep blocked {name}: n={n} d={D} {:.1} ms, resident {} B (+ {} B input)",
                t * 1e3,
                resident,
                n * D * 4
            );
            rows.push(serde_json::json!({
                "family": "blocked",
                "rule": *name,
                "n": n as u64,
                "d": D as u64,
                "seconds": t,
                "resident_bytes": *resident as u64,
                "input_bytes": (n * D * 4) as u64,
            }));
        }
    }
    rows
}

/// Dispatch-overhead microbench: many small parallel jobs, where per-job
/// fixed cost (thread hand-off) dominates the arithmetic. Compares the
/// persistent worker pool against [`par::spawn_reference`] — the pre-pool
/// per-dispatch `thread::scope` implementation kept verbatim as the
/// baseline. Pins the thread budget to 4 (restored afterwards) so both
/// sides actually hand work to helpers; each dispatch is a 32x32x32 matmul
/// split into four row blocks.
fn bench_dispatch(smoke: bool) -> (Value, f64) {
    const S: usize = 32;
    const ROWS_PER_BLOCK: usize = 8;
    let dispatches = if smoke { 1_000 } else { 10_000 };
    let reps = if smoke { 2 } else { 3 };
    let threads = 4usize;
    let prev_budget = par::max_threads();
    par::set_max_threads(threads);

    let mut rng = StdRng::seed_from_u64(21);
    let a: Vec<f32> = (0..S * S).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let b: Vec<f32> = (0..S * S).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut c = vec![0.0f32; S * S];
    let block = |lo_block: usize, chunk: &mut [f32]| {
        chunk.fill(0.0);
        let lo = lo_block * ROWS_PER_BLOCK;
        let rows = chunk.len() / S;
        matmul_into_serial(&a[lo * S..(lo + rows) * S], &b, chunk, rows, S, S);
    };

    // Both dispatch paths must agree bitwise with the serial kernel before
    // their timings mean anything.
    let mut c_serial = vec![0.0f32; S * S];
    matmul_into_serial(&a, &b, &mut c_serial, S, S, S);
    par::for_each_chunk_mut(&mut c, ROWS_PER_BLOCK * S, block);
    assert!(
        c.iter()
            .zip(&c_serial)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "pool dispatch diverged from serial"
    );
    c.fill(1.0);
    par::spawn_reference::for_each_chunk_mut(&mut c, ROWS_PER_BLOCK * S, block);
    assert!(
        c.iter()
            .zip(&c_serial)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "spawn-reference dispatch diverged from serial"
    );

    let t_pool = time_best(reps, || {
        for _ in 0..dispatches {
            par::for_each_chunk_mut(&mut c, ROWS_PER_BLOCK * S, block);
        }
    });
    let t_spawn = time_best(reps, || {
        for _ in 0..dispatches {
            par::spawn_reference::for_each_chunk_mut(&mut c, ROWS_PER_BLOCK * S, block);
        }
    });
    par::set_max_threads(prev_budget);

    let speedup = t_spawn / t_pool;
    println!(
        "dispatch ({dispatches} x {S}x{S}x{S} matmul, {threads} threads): \
         pool {:.2} us/dispatch, spawn {:.2} us/dispatch, speedup {:.2}x",
        t_pool / dispatches as f64 * 1e6,
        t_spawn / dispatches as f64 * 1e6,
        speedup
    );
    let row = serde_json::json!({
        "dispatches": dispatches as u64,
        "threads": threads as u64,
        "matmul_size": S as u64,
        "pool_seconds": t_pool,
        "spawn_seconds": t_spawn,
        "pool_us_per_dispatch": t_pool / dispatches as f64 * 1e6,
        "spawn_us_per_dispatch": t_spawn / dispatches as f64 * 1e6,
        "speedup_vs_spawn": speedup,
    });
    (row, speedup)
}

fn fashion_task(set_size: usize) -> TaskInfo {
    let spec = SynthSpec::fashion_like();
    TaskInfo {
        channels: spec.channels,
        height: spec.height,
        width: spec.width,
        num_classes: spec.num_classes,
        synth_set_size: set_size,
        local_lr: 0.08,
        local_batch: 16,
        local_epochs: 1,
    }
}

/// The paper's Sec. IV-E complexity claims, measured: the adversary's
/// per-round synthetic-set crafting (ZKA-R's O(|S| J² Q I²), ZKA-G's
/// O(|S| (P + Q) I²)) stays within a small factor of a benign client's
/// local epoch. Formerly a criterion bench (`benches/micro.rs`), folded
/// into this JSON so the numbers land next to the kernel timings.
fn bench_complexity() -> Value {
    let set_size = 20usize;
    let spec = SynthSpec::fashion_like();
    let data = Dataset::synthesize(&spec, set_size, 1);
    let idx: Vec<usize> = (0..set_size).collect();
    let t_benign = time_best(3, || {
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = TaskKind::Fashion.build_model(&mut rng);
        for batch in data.shuffled_batches(&idx, 16, &mut rng) {
            model
                .train_step(&batch.images, 0.08, |lg| {
                    softmax_cross_entropy_hard(lg, &batch.labels)
                })
                .expect("train step");
        }
    });

    let task = fashion_task(set_size);
    let t_zka_r = time_best(2, || {
        let mut rng = StdRng::seed_from_u64(3);
        let mut global = TaskKind::Fashion.build_model(&mut rng);
        let _ = ZkaR::new(ZkaConfig::paper())
            .synthesize(&mut global, &task, &mut rng)
            .expect("zka-r synthesize");
    });
    let t_zka_g = time_best(2, || {
        let mut rng = StdRng::seed_from_u64(4);
        let mut global = TaskKind::Fashion.build_model(&mut rng);
        let _ = ZkaG::new(ZkaConfig::paper())
            .synthesize(&mut global, &task, 0, &mut rng)
            .expect("zka-g synthesize");
    });
    println!(
        "complexity (|S|={set_size}, fashion): benign epoch {:.3} s, \
         zka-r {:.3} s ({:.1}x), zka-g {:.3} s ({:.1}x)",
        t_benign,
        t_zka_r,
        t_zka_r / t_benign,
        t_zka_g,
        t_zka_g / t_benign
    );
    serde_json::json!({
        "set_size": set_size as u64,
        "benign_local_epoch_s": t_benign,
        "zka_r_synthesize_s": t_zka_r,
        "zka_g_synthesize_s": t_zka_g,
        "zka_r_over_benign": t_zka_r / t_benign,
        "zka_g_over_benign": t_zka_g / t_benign,
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        // CI regression gate: dispatch overhead, a reduced n-sweep and the
        // correctness/ratio gates below, no JSON rewrite.
        let (_, speedup) = bench_dispatch(true);
        if speedup < 1.3 {
            eprintln!("FAIL: pool dispatch speedup {speedup:.2}x < 1.3x vs per-dispatch spawn");
            std::process::exit(1);
        }
        let _ = bench_n_sweep(true);
        let krum_ok = krum_gate();
        let krum_tile_ok = krum_tile_gate();
        let conv_ok = conv_gate();
        let lowering_ok = lowering_gate();
        if !(checkpoint_gate() && conv_ok && lowering_ok && krum_ok && krum_tile_ok) {
            std::process::exit(1);
        }
        // SIMD-dispatch gate (DESIGN.md §4f): on hosts where CPUID finds
        // a SIMD backend, its 1024³ GEMM must beat the committed
        // autovectorized `target-cpu=native` number — runtime dispatch
        // must not cost throughput vs the old static build. Scalar-only
        // hosts skip the gate (there the portable build is the baseline),
        // and so does a run whose `FABFLIP_BACKEND` pins any backend,
        // scalar included, below the host's widest: the committed number
        // was taken on the widest ISA, and the pinned backend's kernels
        // are held by the ratio gates above.
        let detected = detected_kind();
        let active = backend::active_kind();
        if detected == Kind::Scalar {
            println!("smoke: scalar-only host, skipping SIMD GEMM gate");
        } else if active != detected {
            println!(
                "smoke: backend pinned to {} below the host's {}, skipping SIMD GEMM gate",
                active.name(),
                detected.name()
            );
        } else {
            let (_, detected_1024) = bench_matmul_backends(&[1024]);
            if detected_1024 < COMMITTED_AUTOVEC_1024_GFLOPS {
                eprintln!(
                    "FAIL: detected backend {} 1024^3 GEMM {detected_1024:.2} GFLOP/s \
                     < committed autovectorized {COMMITTED_AUTOVEC_1024_GFLOPS} GFLOP/s",
                    detected.name()
                );
                std::process::exit(1);
            }
            println!(
                "smoke: {} 1024^3 GEMM {detected_1024:.2} GFLOP/s >= committed {COMMITTED_AUTOVEC_1024_GFLOPS}",
                detected.name()
            );
        }
        println!("smoke ok: pool dispatch {speedup:.2}x vs per-dispatch spawn, n-sweep ran");
        return;
    }
    println!(
        "backend: {} (active), {} (detected)",
        backend::active().name(),
        detected_kind().name()
    );
    println!("threads: {}", par::max_threads());
    // Backend comparison first: the committed per-backend GFLOP/s (and
    // the committed gate number they are read against) are captured on a
    // cold package, before the longer sections below pull the clock down.
    let (matmul_backends, _) = bench_matmul_backends(&[256, 1024]);
    let (matmul_rows, speedup_1024) = bench_matmul(&[256, 512, 1024]);
    let matmul_threads = bench_matmul_threads();
    let (vecops_reduce, stream_gbps) = bench_vecops_reduce();
    let checkpoint = bench_checkpoint(stream_gbps);
    let conv = bench_conv();
    let agg = bench_aggregation(50, 100_000);
    let (krum_tile, _, krum_tile_bitwise) = bench_krum_tile(5, true);
    if !krum_tile_bitwise {
        eprintln!(
            "FAIL: a backend's Krum distance tile differs from the scalar tile, \
             or pair-once scores from row-tile scores"
        );
        std::process::exit(1);
    }
    let n_sweep = bench_n_sweep(false);
    let (dispatch, dispatch_speedup) = bench_dispatch(false);
    let complexity = bench_complexity();
    let out = serde_json::json!({
        "threads": par::max_threads() as u64,
        "backend_detected": detected_kind().name(),
        "backend_active": backend::active().name(),
        "matmul": matmul_rows,
        "matmul_1024_speedup_vs_seed": speedup_1024,
        "matmul_backends": matmul_backends,
        "matmul_threads": matmul_threads,
        "vecops_reduce": vecops_reduce,
        "conv": conv,
        "checkpoint": checkpoint,
        "aggregation": agg,
        "krum_tile": krum_tile,
        "n_sweep": n_sweep,
        "dispatch": dispatch,
        "complexity": complexity,
    });
    let json = serde_json::to_string_pretty(&out).expect("serialize");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json (dispatch speedup {dispatch_speedup:.2}x)");
}
