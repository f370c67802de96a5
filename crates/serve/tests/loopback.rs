//! Loopback integration tests for the aggregation server (DESIGN.md
//! §4g): serve/batch transcript parity, chaos-soak bitwise identity,
//! stop-and-respawn recovery of a mid-round write-ahead log, deadline
//! degradation of short cohorts, and client BUSY backpressure handling.

use fabflip_agg::DefenseKind;
use fabflip_fl::{checkpoint, simulate, AttackSpec, Codec, FlConfig, FlError, RunResult, TaskKind};
use fabflip_serve::chaos::{ChaosProfile, ChaosProxy};
use fabflip_serve::client::{RetryPolicy, ServeClient};
use fabflip_serve::loadgen::{run_load, LoadGenOptions};
use fabflip_serve::server::{spawn, ServeError, ServeHandle, ServeOptions};
use fabflip_serve::wire::{self, Frame, Submit, Verdict};
use fabflip_tensor::quant;
use std::path::PathBuf;
use std::time::Duration;

/// Unique scratch directory (pid + counter; no wall clock).
fn test_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    let d = std::env::temp_dir().join(format!(
        "fabflip-serve-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).expect("test dir");
    d
}

/// The robustness suite's tiny-but-real deployment: an attack the
/// defense must actually fight, at a scale where three rounds finish in
/// seconds.
fn tiny_cfg(seed: u64) -> FlConfig {
    FlConfig::builder(TaskKind::Fashion)
        .rounds(3)
        .n_clients(12)
        .clients_per_round(6)
        .train_size(240)
        .test_size(80)
        .synth_set_size(6)
        .attack(AttackSpec::Lie)
        .defense(DefenseKind::MKrum { f: 2 })
        .seed(seed)
        .build()
}

fn serve_opts(cfg: FlConfig, dir: &PathBuf) -> ServeOptions {
    let mut opts = ServeOptions::new(cfg, dir);
    opts.workers = 3;
    opts.queue_cap = 8;
    opts.deadline = Duration::from_secs(60);
    opts.io_timeout = Duration::from_secs(2);
    opts
}

fn model_bits(r: &RunResult) -> Vec<u32> {
    r.final_model.iter().map(|w| w.to_bits()).collect()
}

/// Re-binding the port a just-stopped server held can race lingering
/// connections (no `SO_REUSEADDR` in std); retry through the window.
fn spawn_retry(opts: &ServeOptions) -> ServeHandle {
    for _ in 0..200 {
        match spawn(opts.clone()) {
            Ok(h) => return h,
            Err(ServeError::Io(_)) => std::thread::sleep(Duration::from_millis(25)),
            Err(e) => panic!("respawn failed: {e}"),
        }
    }
    panic!("could not rebind {}", opts.bind);
}

/// Acceptance criterion (d): a fault-free serve run over loopback
/// produces the same per-round transcript — and the same final global
/// model, bitwise — as the batch simulator for the same (seed, config).
#[test]
fn fault_free_serve_matches_batch_transcript() {
    let cfg = tiny_cfg(11);
    let batch = simulate(&cfg).expect("batch");
    let dir = test_dir("parity");

    let handle = spawn(serve_opts(cfg.clone(), &dir)).expect("spawn");
    let mut opts = LoadGenOptions::new(cfg.clone(), handle.addr());
    opts.shutdown_when_done = true;
    let report = run_load(&opts).expect("loadgen");
    handle.stop();
    let records = handle.join().expect("join");

    assert_eq!(records, batch.rounds, "per-round transcripts diverge");
    assert_eq!(
        report.final_global_bits,
        model_bits(&batch),
        "final global model is not bitwise identical"
    );
    assert_eq!(report.rounds_driven, cfg.rounds);
    assert_eq!(report.quarantined, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Soak through the chaos proxy: with frames being delayed, corrupted,
/// truncated and dropped, retry + dedup must still converge to the exact
/// batch transcript. Quantized transport rides along for codec coverage.
#[test]
fn chaos_soak_still_converges_bitwise() {
    let mut cfg = tiny_cfg(12);
    cfg.transport = Codec::F16;
    let batch = simulate(&cfg).expect("batch");
    let dir = test_dir("chaos");

    let handle = spawn(serve_opts(cfg.clone(), &dir)).expect("spawn");
    let mut proxy = ChaosProxy::spawn(handle.addr(), ChaosProfile::light(99)).expect("proxy");
    let mut opts = LoadGenOptions::new(cfg.clone(), proxy.addr());
    opts.io_timeout = Duration::from_secs(1);
    let report = run_load(&opts).expect("loadgen");
    // Stop directly (not via a SHUTDOWN frame): chaos could eat it.
    handle.stop();
    let records = handle.join().expect("join");

    let stats = proxy.stats();
    assert!(stats.injected() > 0, "chaos injected nothing: {stats:?}");
    assert_eq!(records, batch.rounds, "per-round transcripts diverge");
    assert_eq!(
        report.final_global_bits,
        model_bits(&batch),
        "final global model is not bitwise identical under chaos"
    );
    proxy.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance criterion (c), in-process edition: stop the server with a
/// durable mid-round write-ahead log while clients keep hammering it,
/// respawn on the same address, and the run must finish with the exact
/// batch transcript. (The cli crate repeats this with a real `kill -9`.)
#[test]
fn stop_and_respawn_mid_round_resumes_bitwise() {
    let cfg = tiny_cfg(13);
    let batch = simulate(&cfg).expect("batch");
    let dir = test_dir("respawn");

    let handle = spawn(serve_opts(cfg.clone(), &dir)).expect("spawn");
    let addr = handle.addr();

    let lg_cfg = cfg.clone();
    let lg = std::thread::spawn(move || {
        let mut opts = LoadGenOptions::new(lg_cfg, addr);
        opts.shutdown_when_done = true;
        run_load(&opts)
    });

    // Wait for durable progress — a mid-round in-flight log if we catch
    // one, a closed round otherwise — then yank the server out from
    // under the load generator.
    loop {
        if let Some(c) = checkpoint::load(&dir, &cfg) {
            if !c.inflight.is_empty() || c.next_round >= 1 {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.stop();
    let _ = handle.join();

    let mut opts2 = serve_opts(cfg.clone(), &dir);
    opts2.bind = addr;
    let handle2 = spawn_retry(&opts2);

    let report = lg.join().expect("loadgen thread").expect("loadgen");
    handle2.stop();
    let records = handle2.join().expect("join");

    assert_eq!(records, batch.rounds, "resumed transcript diverges");
    assert_eq!(
        report.final_global_bits,
        model_bits(&batch),
        "resumed final global model is not bitwise identical"
    );
    assert!(
        report.rounds_driven >= cfg.rounds,
        "fleet staged every round"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// When the announced cohort stays short (deliberately omitted
/// submissions), the round deadline fires and the server closes degraded
/// over what was delivered — it never stalls and never skips the run.
#[test]
fn deadline_closes_short_cohorts_degraded() {
    let cfg = tiny_cfg(14);
    let dir = test_dir("deadline");

    let mut sopts = serve_opts(cfg.clone(), &dir);
    sopts.deadline = Duration::from_millis(1200);
    let handle = spawn(sopts).expect("spawn");
    let mut opts = LoadGenOptions::new(cfg.clone(), handle.addr());
    opts.omit_every = 3; // drop seqs 2 and 5 of every 6-strong cohort
    opts.shutdown_when_done = true;
    let report = run_load(&opts).expect("loadgen");
    handle.stop();
    let records = handle.join().expect("join");

    assert_eq!(records.len(), cfg.rounds, "every round must still close");
    for r in &records {
        assert_eq!(r.delivered, 4, "round {} cohort: {r:?}", r.round);
        assert!(!r.skipped, "degraded rounds still aggregate: {r:?}");
    }
    assert_eq!(report.omitted as usize, 2 * cfg.rounds);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A round whose close cannot be persisted stops the engine, and `join`
/// hands back the close's own error: one `checkpoint error:` prefix, not
/// a second one from re-wrapping its message.
#[test]
fn failed_close_reports_the_engine_error_unwrapped() {
    let cfg = tiny_cfg(15);
    let dir = test_dir("fatal");
    let not_a_dir = dir.join("file");
    std::fs::write(&not_a_dir, b"").expect("plant a file");

    let handle = spawn(serve_opts(cfg, &not_a_dir)).expect("spawn");
    let mut client = ServeClient::new(
        handle.addr(),
        Duration::from_secs(2),
        wire::DEFAULT_MAX_FRAME,
        RetryPolicy::default(),
    );
    client.meta(0, 0, 0, 0, 0).expect("meta");
    match handle.join() {
        Err(ServeError::Fl(FlError::Checkpoint(m))) => {
            assert!(!m.starts_with("checkpoint error:"), "re-wrapped: {m}");
        }
        other => panic!("expected a checkpoint error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The client treats `BUSY` as backpressure, not failure: it backs off,
/// retries, and reports the eventual verdict.
#[test]
fn client_honours_busy_backpressure() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        let mut busy_left = 3u32;
        loop {
            let frame = match wire::read_frame(&mut s, wire::DEFAULT_MAX_FRAME) {
                Ok(f) => f,
                Err(_) => return,
            };
            let reply = match frame {
                Frame::Hello => Frame::HelloOk {
                    dim: 4,
                    round: 0,
                    done: false,
                },
                Frame::Submit(_) if busy_left > 0 => {
                    busy_left -= 1;
                    Frame::Busy { retry_ms: 1 }
                }
                Frame::Submit(sub) => Frame::SubmitOk {
                    verdict: Verdict::Accepted,
                    round: sub.round,
                },
                _ => return,
            };
            let done = matches!(reply, Frame::SubmitOk { .. });
            if wire::write_frame(&mut s, &reply).is_err() || done {
                return;
            }
        }
    });

    let policy = RetryPolicy {
        base_ms: 1,
        cap_ms: 4,
        max_attempts: 50,
        seed: 9,
    };
    let mut client = ServeClient::new(
        addr,
        Duration::from_secs(2),
        wire::DEFAULT_MAX_FRAME,
        policy,
    );
    let sub = Submit {
        round: 0,
        seq: 0,
        client: 0,
        malicious: false,
        weight_bits: 1.0f32.to_bits(),
        payload: quant::encode(Codec::F32, &[0.0, 0.25, -0.5, 1.0]),
    };
    let (verdict, round) = client.submit(&sub).expect("submit");
    assert_eq!(verdict, Verdict::Accepted);
    assert_eq!(round, 0);
    assert_eq!(client.stats.busy, 3, "all three BUSY replies honoured");
    server.join().expect("fake server");
}
