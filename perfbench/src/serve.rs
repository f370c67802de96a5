//! The serve-path workload `serve-ingest`: the README deployment
//! (Fashion, LIE, mKrum) at N = 200, K = 40, against a
//! `fabflip-cli serve --workers 2` subprocess.
//!
//! One load driver runs a closed loop over two connections, built from the
//! same public pieces as `serve::loadgen` (`ClientFleet`, `quant::encode`,
//! `ServeClient`). Each round has four phases:
//!
//! 1. fetch — every selected client fetches the global model
//!    (`status(true)`), split over both connections (timed);
//! 2. stage — the load driver stages the round (off the clock);
//! 3. ingest — META, then the cohort's SUBMITs over both connections
//!    (timed from META sent to the last ack);
//! 4. close — back-to-back `status(false)` until the round advances
//!    (timed from the last ack). Each STATUS blocks on the engine lock
//!    while the close holds it, so no sleep is needed.
//!
//! An in-process `ServerCore` mirror closes every round on the same log
//! off the clock; the model each fetch returns, and the final model, must
//! equal the mirror's bit for bit (serve ≡ batch). The server's file
//! writes are the growth of its `/proc/<pid>/io` `wchar` and `syscw`
//! counters: std's `TcpStream` moves bytes with `send`/`recv`, which
//! those counters leave out, so they hold exactly the checkpoint writes
//! (the write-call check below would catch it if that changed).

use crate::procfs::{self, Stamp};
use crate::replay::{self, bits_eq, secs_since, Replayer, WalShape};
use crate::report::{metric, per_layer_metrics, span_summary, write_trace, Checks, Outcome};
use crate::stats::{mean, median, quartiles, tail_percentile};
use crate::trace::{SpanId, Tracer};
use crate::{setup_seed, Args, SETUP_REPS};
use fabflip_cli::{parse, Command};
use fabflip_fl::checkpoint;
use fabflip_fl::round::{ClientFleet, ServerCore, StagedSubmission};
use fabflip_fl::{FlConfig, RoundRecord};
use fabflip_serve::client::ClientStats;
use fabflip_serve::wire::{self, Frame, StatusOk, Submit, Verdict};
use fabflip_serve::{RetryPolicy, ServeClient};
use fabflip_tensor::quant;
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Process, ExitStatus, Stdio};
use std::time::{Duration, Instant};

const N_CLIENTS: usize = 200;
const COHORT: usize = 40;
const CONNS: usize = 2;

/// Typical timed round (fetch + ingest + close) on the reference host
/// (2 vCPU Xeon, AVX-512), used only to turn `--seconds` into rounds.
const NOMINAL_ROUND_S: f64 = 0.55;

fn serve_argv(seed: u64, rounds: usize, wal: &Path, port_file: &Path) -> Vec<String> {
    let mut argv: Vec<String> = vec![
        "serve".into(),
        "--ckpt-dir".into(),
        wal.to_string_lossy().into_owned(),
        "--bind".into(),
        "127.0.0.1:0".into(),
        "--port-file".into(),
        port_file.to_string_lossy().into_owned(),
        "--workers".into(),
        CONNS.to_string(),
    ];
    for (flag, value) in [
        ("--task", "fashion".to_string()),
        ("--attack", "lie".to_string()),
        ("--defense", "mkrum".to_string()),
        ("--n-clients", N_CLIENTS.to_string()),
        ("--clients-per-round", COHORT.to_string()),
        ("--seed", seed.to_string()),
        ("--rounds", rounds.to_string()),
    ] {
        argv.push(flag.into());
        argv.push(value);
    }
    argv
}

/// The deployment config exactly as the server parses it from `argv`.
fn server_config(argv: &[String]) -> Result<FlConfig, String> {
    match parse(argv).map_err(|e| format!("serve flags: {e}"))? {
        Command::Serve(s) => Ok(s.config),
        _ => Err("serve flags did not parse as `serve`".into()),
    }
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// A running `fabflip-cli serve` child. Dropping it kills and reaps the
/// process if it is still running.
struct Server {
    child: Child,
    pid: u32,
    addr: SocketAddr,
}

impl Server {
    fn spawn(bin: &Path, argv: &[String], log: &Path, port_file: &Path) -> Result<Server, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("server log: {e}"))?;
        let mut cmd = Process::new(bin);
        cmd.args(argv)
            .env("FABFLIP_THREADS", "2")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        // SAFETY: the hook runs in the forked child before exec and only
        // makes one async-signal-safe system call.
        unsafe {
            cmd.pre_exec(|| {
                // The kernel kills the server if this process dies without
                // stopping it (e.g. killed by a timeout), so no run leaves
                // one behind.
                if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("start {}: {e}", bin.display()))?;
        let pid = child.id();
        let mut server = Server {
            child,
            pid,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        // Set-up only: wait for the atomically written port file.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(addr) = std::fs::read_to_string(port_file)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                server.addr = addr;
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited before listening: {status}"));
            }
            if Instant::now() > deadline {
                return Err("server did not start listening within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Closes every connection but the first, sends SHUTDOWN on it and
    /// waits for the process to exit. (A worker blocked reading an idle
    /// connection would otherwise hold the exit up for its read timeout.)
    fn shutdown(&mut self, conns: &mut Vec<ServeClient>) -> Result<ExitStatus, String> {
        conns.truncate(1);
        conns[0].shutdown_server();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server ignored SHUTDOWN for 30 s".into()),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn client(addr: SocketAddr) -> ServeClient {
    // Bounded retries: a healthy run retries nothing, and a dead server
    // must fail the run in seconds, not minutes.
    let policy = RetryPolicy {
        base_ms: 5,
        cap_ms: 200,
        max_attempts: 20,
        ..RetryPolicy::default()
    };
    ServeClient::new(
        addr,
        Duration::from_secs(10),
        wire::DEFAULT_MAX_FRAME,
        policy,
    )
}

/// One connection's fetches: their intervals, the first reply, and
/// whether every reply equalled it.
type FetchResult = Result<(Vec<(Instant, Instant)>, StatusOk, bool), String>;

/// One connection's SUBMITs: `(seq, sent, acked, verdict)`.
type AckResult = Result<Vec<(u32, Instant, Instant, Verdict)>, String>;

fn frame_len(f: &Frame) -> u64 {
    f.to_bytes().len() as u64
}

/// Everything one round did, with the instants its phases began and
/// ended; spans and metrics are derived from these afterwards.
struct RoundRun {
    round: usize,
    t_round: Instant,
    t_fetch_end: Instant,
    stage: (Instant, Instant),
    t_meta: Instant,
    t_meta_end: Instant,
    t_ingest_end: Instant,
    t_seen: Instant,
    /// Steal per vCPU during the fetch, and from META to the close seen.
    fetch_steal_s: f64,
    tail_steal_s: f64,
    mirror_close: (Instant, Instant),
    fetches: Vec<(Instant, Instant)>,
    /// `(seq, sent, acked)` per SUBMIT.
    submits: Vec<(u32, Instant, Instant)>,
    polls: Vec<(Instant, Instant)>,
    encode_s: Vec<f64>,
    /// Driver CPU seconds spent inside the timed phases.
    driver_cpu_s: f64,
    accepted: u64,
    duplicates: u64,
    calls: u64,
    /// Wire bytes of the server's replies and of the load driver's requests.
    reply_bytes: u64,
    request_bytes: u64,
    /// Repair work of both connections this round.
    stats: ClientStats,
    record: RoundRecord,
    /// The model the round started from, its cohort, and the attack
    /// state before staging — kept for the traced run's replays.
    global: Vec<f32>,
    prev: Option<Vec<f32>>,
    attack_state: Vec<u64>,
    subs: Vec<StagedSubmission>,
    meta: [u64; 5],
    frames: Vec<Submit>,
}

impl RoundRun {
    fn fetch_s(&self) -> f64 {
        (self.t_fetch_end - self.t_round).as_secs_f64()
    }
    fn ingest_s(&self) -> f64 {
        (self.t_ingest_end - self.t_meta).as_secs_f64()
    }
    fn close_s(&self) -> f64 {
        (self.t_seen - self.t_ingest_end).as_secs_f64()
    }
    /// The timed part of the round: fetch, ingest and close.
    fn round_wall_s(&self) -> f64 {
        self.fetch_s() + (self.t_seen - self.t_meta).as_secs_f64()
    }
    /// The timed part of the round net of steal.
    fn round_s(&self) -> f64 {
        (self.round_wall_s() - self.fetch_steal_s - self.tail_steal_s).max(0.0)
    }
    /// Ingest time net of steal; the steal from META to the close seen is
    /// shared between ingest and close in proportion to their time.
    fn ingest_net_s(&self) -> f64 {
        let tail = (self.t_seen - self.t_meta).as_secs_f64();
        self.ingest_s() * (1.0 - self.tail_steal_s / tail).max(0.0)
    }
}

fn add_stats(a: ClientStats, b: ClientStats) -> ClientStats {
    ClientStats {
        reconnects: a.reconnects + b.reconnects,
        busy: a.busy + b.busy,
        retries: a.retries + b.retries,
    }
}

fn sub_stats(a: ClientStats, b: ClientStats) -> ClientStats {
    ClientStats {
        reconnects: a.reconnects - b.reconnects,
        busy: a.busy - b.busy,
        retries: a.retries - b.retries,
    }
}

/// The load driver's side of one deployment: two connections, the client
/// fleet and the in-process mirror of the server.
struct Driver {
    cfg: FlConfig,
    conns: Vec<ServeClient>,
    fleet: ClientFleet,
    mirror: ServerCore,
    records: Vec<RoundRecord>,
    keep_replay_inputs: bool,
}

impl Driver {
    fn stats(&self) -> ClientStats {
        self.conns
            .iter()
            .fold(ClientStats::default(), |acc, c| add_stats(acc, c.stats))
    }

    fn run_round(&mut self, round: usize, checks: &mut Checks) -> Result<RoundRun, String> {
        let stats0 = self.stats();
        let cfg = self.cfg.clone();
        let mut calls = 0u64;

        // Driver CPU is read just outside the timed phases.
        let cpu = || procfs::cpu_clock_s(None).unwrap_or(f64::NAN);
        let cpu0 = cpu();
        let stamp = || Stamp::now().map_err(|e| format!("/proc/stat: {e}"));

        // Phase 1: fetch, K STATUS(model) calls over both connections.
        let s_round = stamp()?;
        let t_round = s_round.at;
        let fetched: Vec<FetchResult> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(w, conn)| {
                    s.spawn(move || {
                        let n = (w..COHORT).step_by(CONNS).count();
                        let mut times = Vec::with_capacity(n);
                        let mut first: Option<StatusOk> = None;
                        let mut same = true;
                        for _ in 0..n {
                            let t = Instant::now();
                            let st = conn.status(true).map_err(|e| format!("fetch: {e}"))?;
                            times.push((t, Instant::now()));
                            match &first {
                                None => first = Some(st),
                                Some(f) => same &= *f == st,
                            }
                        }
                        let first = first.ok_or("no fetch")?;
                        Ok((times, first, same))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("fetch thread panicked".into()))
                })
                .collect()
        });
        let t_fetch_end = Instant::now();
        let fetch_steal_s = stamp()?.steal_since(s_round);
        let mut driver_cpu_s = cpu() - cpu0;
        let mut fetches = Vec::with_capacity(COHORT);
        let mut statuses = Vec::with_capacity(CONNS);
        for f in fetched {
            let (times, st, same) = f?;
            calls += times.len() as u64;
            checks.expect(same, || format!("round {round}: fetches disagree"));
            fetches.extend(times);
            statuses.push(st);
        }
        let st = statuses.swap_remove(0);
        checks.expect(statuses.iter().all(|o| *o == st), || {
            format!("round {round}: connections fetched different models")
        });
        checks.expect(st.round == round as u64 && !st.done, || {
            format!(
                "round {round}: fetch reported round {} (done {})",
                st.round, st.done
            )
        });
        let global = checkpoint::from_bits(st.global_bits.as_deref().unwrap_or(&[]));
        let prev = st.prev_global_bits.as_deref().map(checkpoint::from_bits);
        checks.expect(bits_eq(&global, self.mirror.global()), || {
            format!("round {round}: served model differs from the in-process ServerCore")
        });
        let mut reply_bytes = COHORT as u64 * frame_len(&Frame::StatusOk(Box::new(st)));
        let mut request_bytes = COHORT as u64
            * frame_len(&Frame::Status {
                include_model: true,
            });

        // Phase 2: stage and encode, off the clock.
        let attack_state = self.fleet.attack_state();
        let t = Instant::now();
        let staged = self
            .fleet
            .stage_round(round, &global, prev.as_deref())
            .map_err(|e| format!("stage round {round}: {e}"))?;
        let stage = (t, Instant::now());
        let mut encode_s = Vec::with_capacity(staged.submissions.len());
        let frames: Vec<Submit> = staged
            .submissions
            .iter()
            .enumerate()
            .map(|(seq, s)| {
                let t = Instant::now();
                let payload = quant::encode(cfg.transport, &s.payload);
                encode_s.push(secs_since(t));
                Submit {
                    round: round as u64,
                    seq: seq as u32,
                    client: s.client as u32,
                    malicious: s.malicious,
                    weight_bits: s.weight.to_bits(),
                    payload,
                }
            })
            .collect();
        request_bytes += frames
            .iter()
            .map(|f| frame_len(&Frame::Submit(f.clone())))
            .sum::<u64>();
        let meta = replay::meta_words(&staged);

        // Phase 3: ingest — META, then the cohort over both connections.
        let cpu2 = cpu();
        let s_meta = stamp()?;
        let t_meta = s_meta.at;
        let meta_round = self.conns[0]
            .meta(
                round as u64,
                meta[0] as u32,
                meta[1] as u32,
                meta[2] as u32,
                meta[3] as u32,
            )
            .map_err(|e| format!("meta: {e}"))?;
        let t_meta_end = Instant::now();
        calls += 1;
        checks.expect(meta_round == round as u64, || {
            format!("round {round}: META answered round {meta_round}")
        });
        let meta_frame = Frame::Meta {
            round: round as u64,
            expected: meta[0] as u32,
            offline: meta[1] as u32,
            diverged: meta[2] as u32,
            silent: meta[3] as u32,
        };
        request_bytes += frame_len(&meta_frame);
        reply_bytes += frame_len(&Frame::MetaOk {
            round: round as u64,
        });
        let frames_ref = &frames;
        let sent: Vec<AckResult> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(w, conn)| {
                    s.spawn(move || {
                        let mut acks = Vec::new();
                        for sub in frames_ref.iter().skip(w).step_by(CONNS) {
                            let t = Instant::now();
                            let (verdict, _) =
                                conn.submit(sub).map_err(|e| format!("submit: {e}"))?;
                            acks.push((sub.seq, t, Instant::now(), verdict));
                        }
                        Ok(acks)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("submit thread panicked".into()))
                })
                .collect()
        });
        let mut submits = Vec::with_capacity(frames.len());
        let (mut accepted, mut duplicates) = (0u64, 0u64);
        for acks in sent {
            for (seq, t0, t1, verdict) in acks? {
                calls += 1;
                match verdict {
                    Verdict::Accepted => accepted += 1,
                    // Durable already: a retry whose first ack was lost.
                    Verdict::Duplicate => duplicates += 1,
                    Verdict::Quarantined | Verdict::WrongRound => checks
                        .failures
                        .push(format!("round {round}: seq {seq} {verdict:?}")),
                }
                submits.push((seq, t0, t1));
            }
        }
        let t_ingest_end = submits.iter().map(|s| s.2).max().unwrap_or(t_meta_end);
        reply_bytes += submits.len() as u64
            * frame_len(&Frame::SubmitOk {
                verdict: Verdict::Accepted,
                round: round as u64,
            });

        // Phase 4: close — poll until the round advances.
        let mut polls = Vec::new();
        let mut poll_replies = Vec::new();
        let t_seen = loop {
            let t = Instant::now();
            let st = self.conns[0]
                .status(false)
                .map_err(|e| format!("close poll: {e}"))?;
            let now = Instant::now();
            polls.push((t, now));
            let next = st.round;
            poll_replies.push(Frame::StatusOk(Box::new(st)));
            if next != round as u64 {
                checks.expect(next == round as u64 + 1, || {
                    format!("round {round}: server jumped to round {next}")
                });
                break now;
            }
            if polls.len() > 100_000 {
                return Err(format!("round {round} never closed"));
            }
        };
        let tail_steal_s = stamp()?.steal_since(s_meta);
        driver_cpu_s += cpu() - cpu2;
        reply_bytes += poll_replies.iter().map(frame_len).sum::<u64>();
        calls += polls.len() as u64;
        request_bytes += polls.len() as u64
            * frame_len(&Frame::Status {
                include_model: false,
            });

        // Repair work adds replies: a BUSY per backoff, a HELLO_OK per
        // reconnect.
        let stats = sub_stats(self.stats(), stats0);
        let hello = frame_len(&Frame::HelloOk {
            dim: 0,
            round: 0,
            done: false,
        });
        reply_bytes +=
            stats.busy * frame_len(&Frame::Busy { retry_ms: 0 }) + stats.reconnects * hello;

        // The mirror closes the same log in process, off the clock.
        let subs = if self.keep_replay_inputs {
            staged.submissions.clone()
        } else {
            Vec::new()
        };
        let t = Instant::now();
        let record = self
            .mirror
            .close_round(round, replay::round_input(staged))
            .map_err(|e| format!("mirror close {round}: {e}"))?;
        let mirror_close = (t, Instant::now());
        checks.expect(
            record.reconciles(cfg.clients_per_round)
                && !record.skipped
                && record.delivered == frames.len(),
            || format!("round {round}: mirror record {record:?}"),
        );
        self.records.push(record.clone());
        Ok(RoundRun {
            round,
            t_round,
            t_fetch_end,
            stage,
            t_meta,
            t_meta_end,
            t_ingest_end,
            t_seen,
            fetch_steal_s,
            tail_steal_s,
            mirror_close,
            fetches,
            submits,
            polls,
            encode_s,
            driver_cpu_s,
            accepted,
            duplicates,
            calls,
            reply_bytes,
            request_bytes,
            stats,
            record,
            global,
            prev,
            attack_state,
            subs,
            meta,
            frames: if self.keep_replay_inputs {
                frames
            } else {
                Vec::new()
            },
        })
    }
}

/// A started server plus its driver, after the warm-up round.
struct Deployment {
    server: Server,
    driver: Driver,
    wal: PathBuf,
    setup_s: f64,
    data_setup_s: f64,
    warm_up: RoundRun,
}

fn deploy(
    args: &Args,
    rep: usize,
    rounds: usize,
    t0: Stamp,
    checks: &mut Checks,
) -> Result<Deployment, String> {
    let bin = args
        .server_bin
        .clone()
        .ok_or("serve-ingest needs --server-bin (the fabflip-cli binary)")?;
    let wal = args.out_dir.join(format!("wal-{rep}"));
    let port_file = args.out_dir.join(format!("server-{rep}.port"));
    std::fs::remove_dir_all(&wal).ok();
    std::fs::remove_file(&port_file).ok();
    let argv = serve_argv(setup_seed(args.seed, rep), rounds, &wal, &port_file);
    let cfg = server_config(&argv)?;
    let log = args.out_dir.join(format!("server-{rep}.log"));
    let server = Server::spawn(&bin, &argv, &log, &port_file)?;
    let t = Instant::now();
    let fleet = ClientFleet::new(&cfg).map_err(|e| e.to_string())?;
    let mirror = ServerCore::new(&cfg).map_err(|e| e.to_string())?;
    let data_setup_s = secs_since(t);
    let mut driver = Driver {
        conns: (0..CONNS).map(|_| client(server.addr)).collect(),
        cfg,
        fleet,
        mirror,
        records: Vec::new(),
        keep_replay_inputs: args.trace,
    };
    let warm_up = driver.run_round(0, checks)?;
    Ok(Deployment {
        setup_s: Stamp::now()
            .map_err(|e| format!("/proc/stat: {e}"))?
            .net_since(t0),
        server,
        driver,
        wal,
        data_setup_s,
        warm_up,
    })
}

pub fn run(args: &Args, start: Stamp) -> Result<Outcome, String> {
    let rounds = ((args.seconds / NOMINAL_ROUND_S).round() as usize).max(8);
    let mut out = Outcome::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);

    // Set-up repetitions: server start until listening, fleet and mirror
    // construction, and the warm-up round. The last goes on to the timed
    // rounds; the first is timed from process start.
    let mut dep = None;
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 {
            start
        } else {
            Stamp::now().map_err(|e| format!("/proc/stat: {e}"))?
        };
        let mut d = deploy(args, rep, 1 + rounds, t0, &mut out.checks)?;
        setup_s.push(d.setup_s);
        out.attempted += d.warm_up.calls;
        if rep + 1 < SETUP_REPS {
            let status = d.server.shutdown(&mut d.driver.conns)?;
            out.checks.expect(status.success(), || {
                format!("set-up server {rep} exited with {status}")
            });
            std::fs::remove_dir_all(&d.wal).ok();
        } else {
            dep = Some(d);
        }
    }
    let mut d = dep.ok_or("no deployment")?;
    let pid = d.server.pid;
    let mut rep = if args.trace {
        Some(Replayer::new(&d.driver.cfg)?)
    } else {
        None
    };

    let server_cpu = || procfs::cpu_mark(Some(pid)).map_err(|e| e.to_string());
    let mut cpu_marks = vec![server_cpu()?];
    let mut io_marks = vec![procfs::io(Some(pid)).map_err(|e| e.to_string())?];
    let mut runs: Vec<RoundRun> = Vec::with_capacity(rounds);
    let mut driver_cpu = Vec::with_capacity(rounds);
    let mut replay_rounds = Vec::new();
    let mut layer = ReplayLayers::default();
    for round in 1..=rounds {
        if round > 1 {
            cpu_marks.push(server_cpu()?);
            io_marks.push(procfs::io(Some(pid)).map_err(|e| e.to_string())?);
        }
        let run = d.driver.run_round(round, &mut out.checks)?;
        driver_cpu.push(run.driver_cpu_s);
        // Replays on every other round, so the rounds right after them
        // show what replay work costs the next round.
        if let Some(rep) = rep.as_mut().filter(|_| round % 2 == 1) {
            replay_round(rep, args, &d.driver, &run, &mut layer, &mut out.checks)?;
            replay_rounds.push(round);
        }
        runs.push(run);
    }
    // The close's checkpoint write finished before the engine released
    // the lock the last STATUS waited on.
    io_marks.push(procfs::io(Some(pid)).map_err(|e| e.to_string())?);
    cpu_marks.push(server_cpu()?);
    let cpu_s: Vec<f64> = cpu_marks
        .windows(2)
        .map(|w| w[1].clock_s - w[0].clock_s)
        .collect();
    let (first, last) = (cpu_marks[0], cpu_marks[cpu_marks.len() - 1]);
    out.checks.expect(procfs::cpu_agrees(first, last), || {
        format!("server CPU clock and /proc stat disagree: {first:?} -> {last:?}")
    });
    let peak_rss = procfs::peak_rss_mib(Some(pid)).map_err(|e| e.to_string())?;

    // serve ≡ batch: the served final model is the in-process one.
    let fin = d.driver.conns[0]
        .status(true)
        .map_err(|e| format!("final status: {e}"))?;
    out.attempted += 1;
    out.checks
        .expect(fin.done && fin.round == 1 + rounds as u64, || {
            format!("final status: round {} done {}", fin.round, fin.done)
        });
    let final_model = checkpoint::from_bits(fin.global_bits.as_deref().unwrap_or(&[]));
    out.checks
        .expect(bits_eq(&final_model, d.driver.mirror.global()), || {
            "final served model differs from ClientFleet + ServerCore in process".into()
        });
    let status = d.server.shutdown(&mut d.driver.conns)?;
    out.checks
        .expect(status.success(), || format!("server exited with {status}"));
    std::fs::remove_dir_all(&d.wal).ok();

    // Server file writes per round.
    let mut write_bytes = Vec::with_capacity(rounds);
    for (i, run) in runs.iter().enumerate() {
        let io = io_marks[i + 1].since(io_marks[i]);
        let (calls, bytes) = (io.syscw, io.wchar);
        let expected_calls = run.accepted + 1;
        out.checks.expect(calls == expected_calls, || {
            format!(
                "round {}: {calls} file writes, expected {expected_calls} \
                 (one per accepted SUBMIT plus one per close)",
                run.round
            )
        });
        write_bytes.push(bytes as f64);
        if let Some(&replayed) = layer.save_bytes.get(&run.round) {
            let rel = (bytes as f64 - replayed as f64).abs() / replayed as f64;
            out.checks.expect(rel <= 0.01, || {
                format!(
                    "round {}: {bytes} bytes written, replayed saves sum to {replayed}",
                    run.round
                )
            });
        }
    }

    let n = runs.len();
    let round_s: Vec<f64> = runs.iter().map(RoundRun::round_s).collect();
    let ingest_s: Vec<f64> = runs.iter().map(RoundRun::ingest_s).collect();
    let ingest_rates: Vec<f64> = runs
        .iter()
        .map(|r| r.accepted as f64 / r.ingest_net_s())
        .collect();
    let accepted: u64 = runs.iter().map(|r| r.accepted).sum();
    let duplicates: u64 = runs.iter().map(|r| r.duplicates).sum();
    let attempts: u64 = runs.iter().map(|r| r.submits.len() as u64).sum();
    let stats = runs
        .iter()
        .fold(ClientStats::default(), |a, r| add_stats(a, r.stats));
    out.attempted += runs.iter().map(|r| r.calls).sum::<u64>();
    out.failed += attempts - accepted - duplicates;
    let ms = |xs: Vec<f64>| xs.into_iter().map(|s| s * 1e3).collect::<Vec<f64>>();
    let ack_ms = ms(runs
        .iter()
        .flat_map(|r| r.submits.iter().map(|&(_, a, b)| (b - a).as_secs_f64()))
        .collect());
    let fetch_ms = ms(runs
        .iter()
        .flat_map(|r| r.fetches.iter().map(|&(a, b)| (b - a).as_secs_f64()))
        .collect());
    let close_ms = ms(runs.iter().map(RoundRun::close_s).collect());
    let meta_ms = ms(runs
        .iter()
        .map(|r| (r.t_meta_end - r.t_meta).as_secs_f64())
        .collect());
    let write_mb = mean(&write_bytes) / 1e6;
    let per_round = |f: fn(&RoundRun) -> u64| runs.iter().map(f).sum::<u64>() as f64 / n as f64;
    let up_mb = per_round(|r| r.request_bytes) / 1e6;
    let down_mb = per_round(|r| r.reply_bytes) / 1e6;
    let write_calls = io_marks[n].since(io_marks[0]).syscw as f64 / n as f64;
    let submits_per_s = accepted as f64 / ingest_s.iter().sum::<f64>();

    let mut extra = vec![
        metric("submits_per_s", "1/s", submits_per_s, n),
        metric("ack_ms_p50", "ms", median(&ack_ms), ack_ms.len()),
    ];
    if let Some((label, v)) = tail_percentile(&ack_ms) {
        extra.push(metric(format!("ack_ms_{label}"), "ms", v, ack_ms.len()));
    }
    extra.push(metric("close_ms_p50", "ms", median(&close_ms), n));
    extra.push(metric(
        "fetch_ms_p50",
        "ms",
        median(&fetch_ms),
        fetch_ms.len(),
    ));
    if let Some((label, v)) = tail_percentile(&fetch_ms) {
        extra.push(metric(format!("fetch_ms_{label}"), "ms", v, fetch_ms.len()));
    }
    extra.push(metric("serve.meta_ms", "ms", median(&meta_ms), n));
    extra.push(metric("write_mb_per_round", "MB", write_mb, n));
    extra.push(metric(
        "server.write_calls_per_round",
        "count",
        write_calls,
        n,
    ));
    extra.push(metric("wire.up_mb_per_round", "MB", up_mb, n));
    extra.push(metric("wire.down_mb_per_round", "MB", down_mb, n));
    extra.push(metric("driver.cpu_s_per_round", "s", mean(&driver_cpu), n));
    extra.push(metric("serve.duplicates", "count", duplicates as f64, n));
    if let Some([q1, _, q3]) = quartiles(&round_s) {
        extra.push(metric("round_s_q1", "s", q1, n));
        extra.push(metric("round_s_q3", "s", q3, n));
    }
    let wall: Vec<f64> = runs.iter().map(RoundRun::round_wall_s).collect();
    let steal: f64 = runs.iter().map(|r| r.fetch_steal_s + r.tail_steal_s).sum();
    extra.push(metric("round_wall_s_p50", "s", median(&wall), n));
    extra.push(metric(
        "steal_pct",
        "%",
        steal / wall.iter().sum::<f64>() * 100.0,
        n,
    ));
    out.lines.push(format!(
        "server: exit {status}, {} busy, {} retries, {} reconnects, {duplicates} duplicates, \
         {accepted}/{attempts} SUBMITs accepted",
        stats.busy, stats.retries, stats.reconnects
    ));

    if args.trace {
        let mut tr = Tracer::new(start.at);
        for run in std::iter::once(&d.warm_up).chain(&runs) {
            record_spans(&mut tr, run);
        }
        for &(round, name, a, b) in &layer.spans {
            tr.replay(name, None, Some(round), (a, b));
        }
        let after: Vec<f64> = runs
            .iter()
            .filter(|r| replay_rounds.contains(&(r.round - 1)))
            .map(RoundRun::round_s)
            .collect();
        let clean: Vec<f64> = runs
            .iter()
            .filter(|r| !replay_rounds.contains(&(r.round - 1)))
            .map(RoundRun::round_s)
            .collect();
        let stage_s: Vec<f64> = runs
            .iter()
            .map(|r| (r.stage.1 - r.stage.0).as_secs_f64())
            .collect();
        let mirror_s: Vec<f64> = runs
            .iter()
            .map(|r| (r.mirror_close.1 - r.mirror_close.0).as_secs_f64())
            .collect();
        let encode_ms = ms(runs.iter().flat_map(|r| r.encode_s.clone()).collect());
        let coverage: Vec<f64> = runs
            .iter()
            .map(|r| {
                let wall = (r.t_seen - r.t_round).as_secs_f64();
                (r.round_wall_s() + (r.stage.1 - r.stage.0).as_secs_f64()) / wall
            })
            .collect();
        let traced_round = median(&round_s);
        let nr = layer.ingest_share.len();
        out.metrics = per_layer_metrics(&[
            metric("fl.stage_s", "s", median(&stage_s), n),
            metric("fl.close_s", "s", median(&mirror_s), n),
            metric(
                "attacks.craft_s",
                "s",
                median(&layer.craft),
                layer.craft.len(),
            ),
            metric("aggregation.aggregate_s", "s", median(&layer.aggregate), nr),
            metric("aggregation.kept_ratio", "ratio", mean(&layer.kept), nr),
            metric(
                "aggregation.round_share",
                "ratio",
                median(&layer.aggregate) / traced_round,
                nr,
            ),
            metric("fl.eval_s", "s", median(&layer.eval), nr),
            metric("data.setup_s", "s", d.data_setup_s, 1),
            metric(
                "checkpoint.save_ms_k0",
                "ms",
                median(&layer.save_k0) * 1e3,
                nr,
            ),
            metric(
                "checkpoint.save_ms_khalf",
                "ms",
                median(&layer.save_khalf) * 1e3,
                nr,
            ),
            metric(
                "checkpoint.save_ms_kfull",
                "ms",
                median(&layer.save_kfull) * 1e3,
                nr,
            ),
            metric("checkpoint.bytes_k0", "bytes", median(&layer.bytes_k0), nr),
            metric(
                "checkpoint.bytes_khalf",
                "bytes",
                median(&layer.bytes_khalf),
                nr,
            ),
            metric(
                "checkpoint.bytes_kfull",
                "bytes",
                median(&layer.bytes_kfull),
                nr,
            ),
            metric(
                "checkpoint.ingest_share",
                "ratio",
                median(&layer.ingest_share),
                nr,
            ),
            metric("quant.encode_ms", "ms", median(&encode_ms), encode_ms.len()),
            metric(
                "quant.decode_ms",
                "ms",
                median(&layer.decode) * 1e3,
                layer.decode.len(),
            ),
            metric("serve.submits_per_s", "1/s", submits_per_s, n),
            metric("serve.ack_ms_p50", "ms", median(&ack_ms), ack_ms.len()),
            metric("serve.close_ms_p50", "ms", median(&close_ms), n),
            metric(
                "serve.fetch_ms_p50",
                "ms",
                median(&fetch_ms),
                fetch_ms.len(),
            ),
            metric("serve.busy", "count", stats.busy as f64, n),
            metric(
                "serve.retries",
                "count",
                (stats.retries + duplicates) as f64,
                n,
            ),
            metric("serve.reconnects", "count", stats.reconnects as f64, n),
            metric(
                "serve.accept_ratio",
                "ratio",
                accepted as f64 / (attempts + stats.busy) as f64,
                n,
            ),
            metric("server.write_calls_per_round", "count", write_calls, n),
            metric("server.write_mb_per_round", "MB", write_mb, n),
            metric("wire.up_mb_per_round", "MB", up_mb, n),
            metric("wire.down_mb_per_round", "MB", down_mb, n),
            metric("driver.cpu_s_per_round", "s", mean(&driver_cpu), n),
            metric("trace.round_s_p50", "s", traced_round, n),
            metric("trace.coverage_pct", "%", median(&coverage) * 100.0, n),
            metric(
                "trace.overhead_pct",
                "%",
                (median(&after) / median(&clean) - 1.0) * 100.0,
                after.len(),
            ),
        ]);
        out.extra = extra;
        out.lines.extend(span_summary(&tr));
        write_trace(args, &tr, &mut out)?;
    } else {
        out.metrics = vec![
            metric("setup_s", "s", median(&setup_s), setup_s.len()),
            metric("round_s_p50", "s", median(&round_s), n),
            metric("updates_per_s", "1/s", median(&ingest_rates), n),
            metric("cpu_s_per_round", "s", median(&cpu_s), n),
            metric("peak_rss_mb", "MiB", peak_rss, 1),
        ];
        out.extra = extra;
    }
    Ok(out)
}

/// Timings of the replayed layers, over the rounds that replayed.
#[derive(Default)]
struct ReplayLayers {
    craft: Vec<f64>,
    aggregate: Vec<f64>,
    kept: Vec<f64>,
    eval: Vec<f64>,
    decode: Vec<f64>,
    save_k0: Vec<f64>,
    save_khalf: Vec<f64>,
    save_kfull: Vec<f64>,
    bytes_k0: Vec<f64>,
    bytes_khalf: Vec<f64>,
    bytes_kfull: Vec<f64>,
    ingest_share: Vec<f64>,
    /// Bytes of every replayed save of a round, by round.
    save_bytes: std::collections::BTreeMap<usize, u64>,
    spans: Vec<(usize, &'static str, Instant, Instant)>,
}

/// Replays, after `run` closed: the attack, the defense and the
/// evaluation on the round's inputs, `quant::decode` of every frame, and
/// every `checkpoint::save` the engine made this round — after each of
/// the K accepted submissions and at the close — in its WAL shape.
fn replay_round(
    rep: &mut Replayer,
    args: &Args,
    driver: &Driver,
    run: &RoundRun,
    l: &mut ReplayLayers,
    checks: &mut Checks,
) -> Result<(), String> {
    let round = run.round;
    let prev = run.prev.as_deref();
    let t = Instant::now();
    if let Some((s, same)) = rep.craft(round, &run.attack_state, &run.global, prev, &run.subs)? {
        l.spans.push((round, "attacks.craft", t, Instant::now()));
        l.craft.push(s);
        checks.expect(same, || format!("round {round}: replayed craft differs"));
    }
    let t = Instant::now();
    let (s, kept, agg) = rep.aggregate(&run.subs, &run.global)?;
    l.spans
        .push((round, "aggregation.aggregate", t, Instant::now()));
    l.aggregate.push(s);
    l.kept.push(kept);
    // The mirror has closed only this round so far when this runs.
    checks.expect(bits_eq(&agg.model, driver.mirror.global()), || {
        format!("round {round}: replayed aggregate differs from the mirror's model")
    });
    let t = Instant::now();
    let (s, acc) = rep.eval(driver.mirror.global())?;
    l.spans.push((round, "fl.eval", t, Instant::now()));
    l.eval.push(s);
    checks.expect(acc.to_bits() == run.record.accuracy.to_bits(), || {
        format!("round {round}: replayed accuracy differs")
    });
    let t = Instant::now();
    for (f, s) in run.frames.iter().zip(&run.subs) {
        let t = Instant::now();
        let dec = quant::decode(&f.payload);
        l.decode.push(secs_since(t));
        checks.expect(bits_eq(&dec, &s.payload), || {
            format!("round {round}: decoded seq {} differs", f.seq)
        });
    }
    l.spans.push((round, "quant.decode", t, Instant::now()));

    let fingerprint = checkpoint::fingerprint(&driver.cfg);
    let dir = args.out_dir.join("replay-wal");
    let k = run.subs.len();
    let records = &driver.records;
    let before = &records[..records.len() - 1];
    let mut total_bytes = 0u64;
    let mut ingest_save_s = 0.0;
    let t = Instant::now();
    for i in 1..=k {
        let ckpt = WalShape {
            fingerprint: &fingerprint,
            next_round: round,
            global: &run.global,
            prev,
            rounds: before,
            inflight: &run.subs[..i],
            meta: Some(run.meta),
        }
        .checkpoint();
        let (s, bytes) = replay::timed_save(&dir, &ckpt)?;
        total_bytes += bytes;
        ingest_save_s += s;
        if i == k / 2 {
            l.save_khalf.push(s);
            l.bytes_khalf.push(bytes as f64);
        }
        if i == k {
            l.save_kfull.push(s);
            l.bytes_kfull.push(bytes as f64);
        }
    }
    let ckpt = WalShape {
        fingerprint: &fingerprint,
        next_round: round + 1,
        global: driver.mirror.global(),
        prev: Some(&run.global),
        rounds: records,
        inflight: &[],
        meta: None,
    }
    .checkpoint();
    let (s, bytes) = replay::timed_save(&dir, &ckpt)?;
    l.spans.push((round, "checkpoint.save", t, Instant::now()));
    std::fs::remove_dir_all(&dir).ok();
    l.save_k0.push(s);
    l.bytes_k0.push(bytes as f64);
    l.save_bytes.insert(round, total_bytes + bytes);
    l.ingest_share.push(ingest_save_s / run.ingest_s());
    Ok(())
}

/// Turns one round's recorded instants into spans.
fn record_spans(tr: &mut Tracer, run: &RoundRun) {
    let r = Some(run.round);
    let rs = tr.record("round", None, r, (run.t_round, run.t_seen));
    let fetch = tr.record("serve.fetch", Some(rs), r, (run.t_round, run.t_fetch_end));
    for &iv in &run.fetches {
        tr.record("serve.status", Some(fetch), r, iv);
    }
    tr.record("fl.stage", Some(rs), r, run.stage);
    let ingest = tr.record("serve.ingest", Some(rs), r, (run.t_meta, run.t_ingest_end));
    tr.record("serve.meta", Some(ingest), r, (run.t_meta, run.t_meta_end));
    for &(seq, a, b) in &run.submits {
        let id: SpanId = tr.record("serve.submit", Some(ingest), r, (a, b));
        tr.spans[id].seq = Some(seq);
    }
    let close = tr.record("serve.close", Some(rs), r, (run.t_ingest_end, run.t_seen));
    for &iv in &run.polls {
        tr.record("serve.status", Some(close), r, iv);
    }
    tr.record("fl.close", None, r, run.mirror_close);
}
