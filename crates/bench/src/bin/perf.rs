//! Kernel/throughput benchmark: emits `BENCH_kernels.json` in the current
//! directory with matmul GFLOP/s (new tiled kernels vs the seed's ikj
//! kernel re-implemented below as the baseline), conv forward/backward
//! throughput, per-rule aggregation timings at `n = 50, d = 100k`, one
//! full FL round, the worker-pool dispatch-overhead microbench (persistent
//! pool vs per-dispatch `thread::scope`), and the Sec. IV-E complexity
//! claims (ZKA crafting cost vs a benign client's local epoch).
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
//! GEMM scaling, and the per-backend `vecops` reduction microbench at
//! d = 256/4096/65536 (DESIGN.md §4f).
//!
//! `--smoke` runs the dispatch microbench with a reduced dispatch count
//! plus a reduced n-sweep (n = 50/500), does not write
//! `BENCH_kernels.json`, and exits non-zero when the pool is not
//! measurably faster than per-dispatch spawning, the streaming path
//! diverges from batch FedAvg, or (on SIMD-capable hosts) the detected
//! backend's 1024³ GEMM falls below the committed autovectorized
//! baseline — CI uses this as a cheap perf/correctness regression gate.

use fabflip::{ZkaConfig, ZkaG, ZkaR};
use fabflip_agg::{
    Bulyan, Defense, DefenseKind, FedAvg, FoolsGold, Krum, Median, MultiKrum, NormBound,
    StreamingAggregator, StreamingConfig, TrimmedMean, KRUM_ROW_BLOCK,
};
use fabflip_attacks::TaskInfo;
use fabflip_data::{Dataset, SynthSpec};
use fabflip_fl::{simulate, Codec, FlConfig, TaskKind};
use fabflip_nn::losses::softmax_cross_entropy_hard;
use fabflip_nn::{Conv2d, Layer};
use fabflip_tensor::backend::{self, Kind, ALL_KINDS};
use fabflip_tensor::{matmul_into, matmul_into_serial, par, quant, vecops, Tensor};
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
fn bench_vecops_reduce() -> Vec<Value> {
    let mut rows = Vec::new();
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
    rows
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

fn bench_fl_round() -> Value {
    let cfg = FlConfig::builder(TaskKind::Fashion)
        .rounds(1)
        .n_clients(12)
        .clients_per_round(6)
        .train_size(240)
        .test_size(80)
        .synth_set_size(6)
        .seed(5)
        .build();
    let t = time_best(2, || {
        let _ = simulate(&cfg).expect("fl round");
    });
    println!("fl round: {:.2} s (fashion, 6 clients)", t);
    serde_json::json!({
        "task": "fashion",
        "clients_per_round": 6u64,
        "seconds": t,
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
    let vecops_reduce = bench_vecops_reduce();
    let conv = bench_conv();
    let agg = bench_aggregation(50, 100_000);
    let n_sweep = bench_n_sweep(false);
    let fl_round = bench_fl_round();
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
        "aggregation": agg,
        "n_sweep": n_sweep,
        "fl_round": fl_round,
        "dispatch": dispatch,
        "complexity": complexity,
    });
    let json = serde_json::to_string_pretty(&out).expect("serialize");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json (dispatch speedup {dispatch_speedup:.2}x)");
}
