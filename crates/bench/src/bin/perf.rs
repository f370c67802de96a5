//! Kernel/throughput benchmark: emits `BENCH_kernels.json` in the current
//! directory with matmul GFLOP/s (new tiled kernels vs the seed's ikj
//! kernel re-implemented below as the baseline), conv forward/backward
//! throughput with its per-phase lowering (GB/s) and GEMM (GFLOP/s)
//! rates, per-rule aggregation timings at `n = 50, d = 100k`, the
//! worker-pool dispatch-overhead microbench (persistent pool vs
//! per-dispatch `thread::scope`), and the Sec. IV-E complexity claims
//! (ZKA crafting cost vs a benign client's local epoch).
//!
//! Run with `cargo run --release -p fabflip-bench --bin perf`. The thread
//! budget follows `FABFLIP_THREADS` (see README); the dispatch microbench
//! pins the budget to 4 so it exercises the pool even on small runners.
//!
//! The million-client n-sweep (DESIGN.md §4e) times every aggregation
//! rule as the cohort grows at fixed `d`: the mean family streams through
//! a [`StreamingAggregator`] (per-rule seconds plus the actual O(shards·d)
//! resident aggregation state), FedAvg additionally at the f16/i8 wire
//! codecs, and the quadratic selection family runs the blocked O(B·n)-
//! resident kernels.
//!
//! The full run also reports the per-backend GEMM section (every
//! supported `fabflip_tensor::backend` at 256/1024), backend × thread
//! GEMM scaling, the per-backend `vecops` reduction microbench at
//! d = 256/4096/65536 (DESIGN.md §4f), and the checkpoint layer
//! (`checkpoint`: encode, checksum and durable save of the serve
//! deployment's write-ahead checkpoint, DESIGN.md §4d).
//!
//! `--smoke` runs the dispatch microbench with a reduced dispatch count
//! plus a reduced n-sweep (n = 50/500), the Krum distance-tile and
//! conv weight-gradient tile ratio gates and a checkpoint round trip,
//! does not write `BENCH_kernels.json`, and exits non-zero when the pool
//! is not measurably faster than per-dispatch spawning, the streaming
//! path diverges from batch FedAvg, a k = 40 checkpoint does not survive
//! `save` → `load` bit for bit, blocked `krum_scores` or the tiled
//! `matmul_transpose_b` is not bitwise equal to (or not enough faster
//! than) its per-pair reference, or (on
//! SIMD-capable hosts) the detected backend's 1024³ GEMM falls below the
//! committed autovectorized baseline — CI uses this as a cheap
//! perf/correctness regression gate.

use fabflip::{ZkaConfig, ZkaG, ZkaR};
use fabflip_agg::{
    krum_scores, Bulyan, Defense, DefenseKind, FedAvg, FoolsGold, Krum, Median, MultiKrum,
    NormBound, StreamingAggregator, StreamingConfig, TrimmedMean, KRUM_ROW_BLOCK,
};
use fabflip_attacks::TaskInfo;
use fabflip_data::{Dataset, SynthSpec};
use fabflip_fl::checkpoint::{self, Checkpoint, InflightSubmission};
use fabflip_fl::{Codec, FlConfig, RoundRecord, TaskKind};
use fabflip_nn::losses::softmax_cross_entropy_hard;
use fabflip_nn::{Conv2d, Layer};
use fabflip_tensor::backend::{self, Kind, ALL_KINDS};
use fabflip_tensor::{
    col2im, im2col, matmul_into, matmul_into_serial, matmul_transpose_a, matmul_transpose_b, par,
    quant, vecops, Tensor,
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

/// Per-backend serial GEMM throughput (DESIGN.md §4f): every supported
/// backend at each size, forced via `backend::force` (safe here — the
/// bench harness is single-threaded). Returns the rows plus the
/// auto-detected backend's 1024³ GFLOP/s for the smoke gate.
fn bench_matmul_backends(sizes: &[usize]) -> (Vec<Value>, f64) {
    let detected = backend::active_kind();
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
                "matmul {s}x{s}x{s} [{}]: {gflops:.2} GFLOP/s{}",
                kind.name(),
                if kind == detected { " (detected)" } else { "" }
            );
            rows.push(serde_json::json!({
                "backend": kind.name(),
                "detected": kind == detected,
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
/// Also returns the detected backend's `l2_norm` GB/s at the largest `d`:
/// the host's streaming-read ceiling.
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

/// One sample's conv lowering and GEMMs at `[cin, hw, hw] → [cout, hw,
/// hw]` (3×3, stride 1, pad 1), each phase timed alone on one thread over
/// `batch` samples: `im2col` and `col2im` in GB/s of column matrix
/// written/read, the forward (`W·col`), weight-gradient (`g·colᵀ`) and
/// input-gradient (`Wᵀ·g`) GEMMs in GFLOP/s — the calls `Conv2d` makes,
/// in isolation.
fn bench_conv_phases(batch: usize, cin: usize, cout: usize, hw: usize) -> Value {
    let (k, stride, pad) = (3usize, 1usize, 1usize);
    let (ckk, area) = (cin * k * k, hw * hw);
    let mut rng = StdRng::seed_from_u64(8);
    let mut gen =
        |len: usize| -> Vec<f32> { (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect() };
    let img = gen(batch * cin * area);
    let g = gen(batch * cout * area);
    let weight = gen(cout * ckk);
    let mut cols = vec![0.0f32; batch * ckk * area];
    let mut out = vec![0.0f32; cout * area];
    let mut gw = vec![0.0f32; cout * ckk];
    let mut grad_col = vec![0.0f32; ckk * area];
    let mut grad_img = vec![0.0f32; cin * area];
    let prev_budget = par::max_threads();
    par::set_max_threads(1);
    let t_im2col = time_best(5, || {
        for i in 0..batch {
            im2col(
                &img[i * cin * area..(i + 1) * cin * area],
                &mut cols[i * ckk * area..(i + 1) * ckk * area],
                cin,
                hw,
                hw,
                k,
                k,
                stride,
                pad,
            );
        }
    });
    let col = |i: usize| &cols[i * ckk * area..(i + 1) * ckk * area];
    let g_of = |i: usize| &g[i * cout * area..(i + 1) * cout * area];
    let t_fwd = time_best(5, || {
        for i in 0..batch {
            out.fill(0.0);
            matmul_into(&weight, col(i), &mut out, cout, ckk, area);
        }
    });
    let t_wgrad = time_best(5, || {
        for i in 0..batch {
            gw.fill(0.0);
            matmul_transpose_b(g_of(i), col(i), &mut gw, cout, area, ckk);
        }
    });
    let t_igrad = time_best(5, || {
        for i in 0..batch {
            grad_col.fill(0.0);
            matmul_transpose_a(&weight, g_of(i), &mut grad_col, ckk, cout, area);
        }
    });
    let t_col2im = time_best(5, || {
        for i in 0..batch {
            grad_img.fill(0.0);
            col2im(col(i), &mut grad_img, cin, hw, hw, k, k, stride, pad);
        }
    });
    par::set_max_threads(prev_budget);
    let col_bytes = (batch * ckk * area * 4) as f64;
    let gemm_flops = (2 * batch * cout * ckk * area) as f64;
    let gbps = |t: f64| col_bytes / t / 1e9;
    let gflops = |t: f64| gemm_flops / t / 1e9;
    println!(
        "conv phases (1 thread, {cin}->{cout} ch, {hw}x{hw}): im2col {:.2} GB/s, col2im {:.2} GB/s, \
         forward GEMM {:.1} GFLOP/s, weight-grad GEMM {:.1} GFLOP/s, input-grad GEMM {:.1} GFLOP/s",
        gbps(t_im2col),
        gbps(t_col2im),
        gflops(t_fwd),
        gflops(t_wgrad),
        gflops(t_igrad),
    );
    serde_json::json!({
        "threads": 1u64,
        "im2col_gbps": gbps(t_im2col),
        "col2im_gbps": gbps(t_col2im),
        "forward_gemm_gflops": gflops(t_fwd),
        "weight_grad_gemm_gflops": gflops(t_wgrad),
        "input_grad_gemm_gflops": gflops(t_igrad),
    })
}

fn bench_conv() -> Value {
    // Cifar-scale middle layer: batch 32, 8 -> 16 channels, 3x3 on 32x32.
    let (batch, cin, cout, hw) = (32usize, 8usize, 16usize, 32usize);
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
    println!(
        "conv fwd {:.1} samples/s, bwd {:.1} samples/s (batch {batch}, {cin}->{cout} ch, {hw}x{hw})",
        batch as f64 / t_fwd,
        batch as f64 / t_bwd
    );
    serde_json::json!({
        "batch": batch as u64,
        "in_channels": cin as u64,
        "out_channels": cout as u64,
        "spatial": hw as u64,
        "forward_samples_per_s": batch as f64 / t_fwd,
        "backward_samples_per_s": batch as f64 / t_bwd,
        "phases": bench_conv_phases(batch, cin, cout, hw),
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

/// Deterministic per-client update for the n-sweep, generated on the fly
/// so the streaming benches never hold an O(n·d) cohort.
fn gen_update(buf: &mut [f32], client: usize) {
    let mut rng = StdRng::seed_from_u64(0xBEEF ^ client as u64);
    for v in buf.iter_mut() {
        *v = rng.gen_range(-1.0f32..1.0);
    }
}

/// Correctness gate for the streaming path, run before its timings mean
/// anything: streaming FedAvg must match batch FedAvg to rounding and be
/// bitwise reproducible across replays.
fn streaming_gate(d: usize) -> bool {
    let n = 500usize;
    let mut buf = vec![0.0f32; d];
    let updates: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            gen_update(&mut buf, i);
            buf.clone()
        })
        .collect();
    let batch = FedAvg::new()
        .aggregate(&updates, &vec![1.0; n])
        .expect("batch fedavg");
    let run = || {
        let mut agg =
            StreamingAggregator::new(DefenseKind::FedAvg, d, StreamingConfig::default(), None)
                .expect("streaming aggregator");
        for u in &updates {
            agg.ingest(u, 1.0);
        }
        agg.finalize().expect("streaming finalize").model
    };
    let (a, b) = (run(), run());
    let bitwise = a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits());
    let close = a
        .iter()
        .zip(&batch.model)
        .all(|(x, y)| (x - y).abs() <= 1e-4 * y.abs().max(1.0));
    if !bitwise {
        eprintln!("FAIL: streaming FedAvg is not bitwise reproducible across replays");
    }
    if !close {
        eprintln!("FAIL: streaming FedAvg diverged from batch FedAvg beyond rounding");
    }
    bitwise && close
}

/// Minimum speed-up of blocked `krum_scores` over the in-run per-pair
/// reference at n = 1 000, d = 1 024 on one thread. Measured on the
/// 2-vCPU AVX-512 host (portable SSE2 build): 2.0–2.4×; with the per-pair
/// loop planted as the tile kernel the same gate measures 1.2–1.4×.
const KRUM_GATE_MIN_SPEEDUP: f64 = 1.7;

/// The reference the Krum gate times against: `krum_scores`' row-block
/// loop with each tile filled pair by pair through `vecops::sq_distance`
/// (the per-pair loop the register-blocked kernel replaced, in the form
/// the kernel's own remainder path uses), then the same gather, sort and
/// prefix sum. Returns the scores and the seconds spent in the distance
/// and the selection phase.
fn krum_scores_per_pair(refs: &[&[f32]], f: usize) -> (Vec<f32>, f64, f64) {
    let n = refs.len();
    let k = n - f - 2;
    let mut scores = vec![0.0f32; n];
    let mut tile = vec![0.0f32; KRUM_ROW_BLOCK * n];
    let mut row = vec![0.0f32; n - 1];
    let (mut dist_s, mut select_s) = (0.0, 0.0);
    for lo in (0..n).step_by(KRUM_ROW_BLOCK) {
        let tile = &mut tile[..KRUM_ROW_BLOCK.min(n - lo) * n];
        let t = Instant::now();
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
        let t_sel = Instant::now();
        for (r, drow) in tile.chunks(n).enumerate() {
            let i = lo + r;
            let others = drow.iter().enumerate().filter(|&(j, _)| j != i);
            for (slot, (_, &dist)) in row.iter_mut().zip(others) {
                *slot = dist;
            }
            row.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            scores[i] = row[..k].iter().sum();
        }
        select_s += t_sel.elapsed().as_secs_f64();
        dist_s += (t_sel - t).as_secs_f64();
    }
    (scores, dist_s, select_s)
}

/// Ratio gate for the register-blocked Krum distance tiles (DESIGN.md
/// §4e): on one thread at n = 1 000, d = 1 024, `krum_scores` must match
/// the per-pair reference bit for bit and beat it by
/// [`KRUM_GATE_MIN_SPEEDUP`]. Prints the distance and selection phases
/// separately; the blocked distance phase is the tile fills alone.
///
/// d = 1 024 rather than 256: at d = 256 one pair is only 64 chunk steps,
/// the out-of-order core overlaps consecutive pairs of the per-pair loop,
/// and that loop's speed then swings with code placement — a build with
/// the per-pair loop planted as the kernel measured up to 1.46× there,
/// against 1.56–1.89× for the blocked kernel.
fn krum_gate() -> bool {
    const N: usize = 1_000;
    const D: usize = 1_024;
    const F: usize = 10;
    let mut buf = vec![0.0f32; D];
    let updates: Vec<Vec<f32>> = (0..N)
        .map(|i| {
            gen_update(&mut buf, i);
            buf.clone()
        })
        .collect();
    let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
    let prev_budget = par::max_threads();
    par::set_max_threads(1);
    let blocked = krum_scores(&refs, F).expect("krum geometry");
    let (reference, _, _) = krum_scores_per_pair(&refs, F);
    // Best of seven, the three timings interleaved so a noisy stretch of
    // a shared host hits both sides of the ratio.
    let mut tile = vec![0.0f32; KRUM_ROW_BLOCK * N];
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
            for lo in (0..N).step_by(KRUM_ROW_BLOCK) {
                let rows = KRUM_ROW_BLOCK.min(N - lo);
                vecops::sq_distance_tile_into(&refs, lo, &mut tile[..rows * N]);
            }
            std::hint::black_box(&mut tile);
        }));
    }
    par::set_max_threads(prev_budget);
    let speedup = t_ref / t_blocked;
    println!(
        "krum gate (n={N}, d={D}, 1 thread): per-pair {:.1} ms (distance {:.1} + selection {:.1}), \
         blocked {:.1} ms (distance {:.1} + selection {:.1}), speed-up {speedup:.2}x",
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
        eprintln!("FAIL: blocked krum_scores differ from the per-pair reference");
    }
    if speedup < KRUM_GATE_MIN_SPEEDUP {
        eprintln!(
            "FAIL: blocked krum_scores speed-up {speedup:.2}x < {KRUM_GATE_MIN_SPEEDUP}x \
             vs the per-pair reference"
        );
    }
    bitwise && speedup >= KRUM_GATE_MIN_SPEEDUP
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
/// GB/s at the largest `d` on the detected backend).
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
/// the cohort grows at fixed `d`. The mean family streams (resident
/// O(shards·d), measured from the live aggregator); the quadratic selection
/// family runs the blocked kernels over a materialized cohort (resident
/// O(B·n + B²), analytic, excluding the inherent n·d input).
fn bench_n_sweep(smoke: bool) -> Vec<Value> {
    const D: usize = 256;
    const TILE: usize = 128; // FoolsGold FG_TILE (crate-private)
    let stream_ns: &[usize] = if smoke {
        &[50, 500]
    } else {
        &[50, 5_000, 50_000]
    };
    let quad_ns: &[usize] = if smoke { &[50] } else { &[50, 1_000, 5_000] };
    let mut rows = Vec::new();
    let scfg = StreamingConfig::default();

    let stream_cases: &[(&str, DefenseKind, Codec)] = &[
        ("FedAvg", DefenseKind::FedAvg, Codec::F32),
        ("FedAvg", DefenseKind::FedAvg, Codec::F16),
        ("FedAvg", DefenseKind::FedAvg, Codec::I8),
        ("TRmean", DefenseKind::TrMean { trim: 2 }, Codec::F32),
        ("Median", DefenseKind::Median, Codec::F32),
        (
            "NormBound",
            DefenseKind::NormBound {
                max_norm_milli: 1000,
            },
            Codec::F32,
        ),
    ];
    let reference = vec![0.1f32; D];
    let mut buf = vec![0.0f32; D];
    let mut decoded = vec![0.0f32; D];
    // The mean family's server state is O(shards·d): residency must be
    // byte-identical at every n, or streaming has silently re-grown with
    // the cohort.
    let mut mean_resident: Option<usize> = None;
    for &n in stream_ns {
        for &(label, kind, codec) in stream_cases {
            let reps = if n >= 5_000 { 1 } else { 2 };
            let mut resident = 0usize;
            let t = time_best(reps, || {
                let r = matches!(kind, DefenseKind::NormBound { .. }).then(|| reference.clone());
                let mut agg =
                    StreamingAggregator::new(kind, D, scfg, r).expect("streaming aggregator");
                for i in 0..n {
                    gen_update(&mut buf, i);
                    if codec.is_f32() {
                        agg.ingest(&buf, 1.0);
                    } else {
                        quant::decode_into(&quant::encode(codec, &buf), &mut decoded);
                        agg.ingest(&decoded, 1.0);
                    }
                }
                resident = agg.resident_bytes();
                let _ = agg.finalize().expect("streaming finalize");
            });
            if !matches!(kind, DefenseKind::TrMean { .. } | DefenseKind::Median) {
                let expect = *mean_resident.get_or_insert(resident);
                assert_eq!(
                    resident, expect,
                    "mean-family aggregation residency grew with n (n={n})"
                );
            }
            println!(
                "n-sweep stream {label}/{}: n={n} d={D} {:.1} ms, resident {} B",
                codec.label(),
                t * 1e3,
                resident
            );
            rows.push(serde_json::json!({
                "family": "stream",
                "rule": label,
                "codec": codec.label(),
                "n": n as u64,
                "d": D as u64,
                "seconds": t,
                "resident_bytes": resident as u64,
            }));
        }
    }

    for &n in quad_ns {
        let updates: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                gen_update(&mut buf, i);
                buf.clone()
            })
            .collect();
        let weights = vec![1.0f32; n];
        let f = 10usize.min(n.saturating_sub(3));
        let block = KRUM_ROW_BLOCK.min(n);
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
        // CI regression gate: dispatch overhead + reduced n-sweep with
        // the streaming correctness checks, no JSON rewrite.
        let (_, speedup) = bench_dispatch(true);
        if speedup < 1.3 {
            eprintln!("FAIL: pool dispatch speedup {speedup:.2}x < 1.3x vs per-dispatch spawn");
            std::process::exit(1);
        }
        if !streaming_gate(256) {
            std::process::exit(1);
        }
        let _ = bench_n_sweep(true);
        let krum_ok = krum_gate();
        let conv_ok = conv_gate();
        if !(checkpoint_gate() && conv_ok && krum_ok) {
            std::process::exit(1);
        }
        // SIMD-dispatch gate (DESIGN.md §4f): on hosts where CPUID finds
        // a SIMD backend, its 1024³ GEMM must beat the committed
        // autovectorized `target-cpu=native` number — runtime dispatch
        // must not cost throughput vs the old static build. Scalar-only
        // hosts skip the gate (there the portable build is the baseline).
        let detected = backend::active_kind();
        if detected == Kind::Scalar {
            println!("smoke: scalar-only host, skipping SIMD GEMM gate");
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
    println!("backend: {} (detected)", backend::active().name());
    println!("threads: {}", par::max_threads());
    if !streaming_gate(256) {
        std::process::exit(1);
    }
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
    let n_sweep = bench_n_sweep(false);
    let (dispatch, dispatch_speedup) = bench_dispatch(false);
    let complexity = bench_complexity();
    let out = serde_json::json!({
        "threads": par::max_threads() as u64,
        "backend_detected": backend::active().name(),
        "matmul": matmul_rows,
        "matmul_1024_speedup_vs_seed": speedup_1024,
        "matmul_backends": matmul_backends,
        "matmul_threads": matmul_threads,
        "vecops_reduce": vecops_reduce,
        "conv": conv,
        "checkpoint": checkpoint,
        "aggregation": agg,
        "n_sweep": n_sweep,
        "dispatch": dispatch,
        "complexity": complexity,
    });
    let json = serde_json::to_string_pretty(&out).expect("serialize");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json (dispatch speedup {dispatch_speedup:.2}x)");
}
