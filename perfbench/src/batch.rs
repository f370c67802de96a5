//! The batch-path workloads: one paper grid cell (`cell-cifar`) and one
//! cross-device cohort (`cohort-fashion`).
//!
//! The untraced run times rounds between `fl::simulate_observed`
//! callbacks. The traced run first repeats that untraced drive, then
//! drives the same rounds itself through `ClientFleet::stage_round` and
//! `ServerCore::close_round` (what `simulate` does for fault-free f32
//! configs), replays the other layers, and checks that both drives
//! produced the same records and model bit for bit.

use crate::procfs::{self, Stamp};
use crate::replay::{self, bits_eq, records_eq, secs_since, Replayer, WalShape};
use crate::report::{metric, per_layer_metrics, span_summary, write_trace, Checks, Outcome};
use crate::stats::{mean, median, quartiles};
use crate::trace::Tracer;
use crate::{setup_seed, Args, SETUP_REPS};
use fabflip::ZkaConfig;
use fabflip_agg::DefenseKind;
use fabflip_fl::round::{ClientFleet, ServerCore};
use fabflip_fl::{checkpoint, simulate_observed, AttackSpec, FlConfig, RoundRecord, TaskKind};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// Table II cell: Cifar-10 stand-in, ZKA-G against mKrum, N = 100,
    /// K = 10, β = 0.5, task defaults.
    CellCifar,
    /// Cross-device cohort: Fashion stand-in, ZKA-R against mKrum,
    /// N = K = 1000, 4000 training images.
    CohortFashion,
}

impl Batch {
    pub fn config(self, seed: u64, rounds: usize) -> FlConfig {
        match self {
            Batch::CellCifar => FlConfig::builder(TaskKind::Cifar)
                .attack(AttackSpec::ZkaG {
                    cfg: ZkaConfig::paper(),
                })
                .defense(DefenseKind::MKrum { f: 2 })
                .beta(0.5)
                .seed(seed)
                .rounds(rounds)
                .build(),
            Batch::CohortFashion => FlConfig::builder(TaskKind::Fashion)
                .attack(AttackSpec::ZkaR {
                    cfg: ZkaConfig::paper(),
                })
                .defense(DefenseKind::MKrum { f: 2 })
                .n_clients(1000)
                .clients_per_round(1000)
                .train_size(4000)
                .seed(seed)
                .rounds(rounds)
                .build(),
        }
    }

    /// Typical round time on the reference host (2 vCPU Xeon, AVX-512),
    /// used only to turn `--seconds` into a fixed number of rounds.
    fn nominal_round_s(self) -> f64 {
        match self {
            Batch::CellCifar => 0.65,
            Batch::CohortFashion => 1.8,
        }
    }
}

/// Rounds timed per run: `seconds` worth at the nominal round time.
fn timed_rounds(seconds: f64, nominal: f64, min: usize) -> usize {
    ((seconds / nominal).round() as usize).max(min)
}

/// One `simulate_observed` drive of `1 + rounds` rounds (round 0 is the
/// warm-up): the stamp and process CPU at every observer callback, and
/// the records.
struct Drive {
    marks: Vec<(Stamp, procfs::CpuMark)>,
    result: fabflip_fl::RunResult,
}

fn drive(cfg: &FlConfig) -> Result<Drive, String> {
    let mut marks = Vec::with_capacity(cfg.rounds);
    let mut err = None;
    let result = simulate_observed(cfg, |_| {
        match Stamp::now().and_then(|at| Ok((at, procfs::cpu_mark(None)?))) {
            Ok(mark) => marks.push(mark),
            Err(e) => err = Some(e),
        }
    })
    .map_err(|e| format!("simulate: {e}"))?;
    if let Some(e) = err {
        return Err(format!("steal or process CPU: {e}"));
    }
    Ok(Drive { marks, result })
}

impl Drive {
    /// Time of each timed round (every round after the warm-up), net of
    /// steal.
    fn round_s(&self) -> Vec<f64> {
        self.marks
            .windows(2)
            .map(|w| w[1].0.net_since(w[0].0))
            .collect()
    }

    /// Wall time of each timed round, steal included.
    fn round_wall_s(&self) -> Vec<f64> {
        self.marks
            .windows(2)
            .map(|w| (w[1].0.at - w[0].0.at).as_secs_f64())
            .collect()
    }

    /// Steal over the timed rounds as a share of their wall time, in %.
    fn steal_pct(&self) -> f64 {
        let (a, b) = (self.marks[0].0, self.marks[self.marks.len() - 1].0);
        b.steal_since(a) / (b.at - a.at).as_secs_f64() * 100.0
    }

    /// Process CPU time of each timed round.
    fn cpu_s(&self) -> Vec<f64> {
        self.marks
            .windows(2)
            .map(|w| w[1].1.clock_s - w[0].1.clock_s)
            .collect()
    }
}

/// Round-level checks shared by both modes: every sampled client is
/// accounted for exactly once and no round was skipped.
fn check_records(checks: &mut Checks, cfg: &FlConfig, records: &[RoundRecord]) -> u64 {
    checks.expect(records.len() == cfg.rounds, || {
        format!("{} of {} rounds ran", records.len(), cfg.rounds)
    });
    let mut failed = 0;
    for r in records {
        let ok = r.reconciles(cfg.clients_per_round)
            && !r.skipped
            && r.delivered > 0
            && r.accuracy.is_finite();
        if !ok {
            failed += 1;
            checks
                .failures
                .push(format!("round {} failed: {r:?}", r.round));
        }
    }
    failed
}

pub fn run(w: Batch, args: &Args, start: Stamp) -> Result<Outcome, String> {
    if args.trace {
        run_traced(w, args, start)
    } else {
        run_untraced(w, args, start)
    }
}

fn stamp() -> Result<Stamp, String> {
    Stamp::now().map_err(|e| format!("/proc/stat: {e}"))
}

fn run_untraced(w: Batch, args: &Args, start: Stamp) -> Result<Outcome, String> {
    let rounds = timed_rounds(args.seconds, w.nominal_round_s(), 8);
    let mut out = Outcome::default();
    // Set-up repetitions: data synthesis, partition, model init and the
    // warm-up round, each timed to its first observer callback. The last
    // repetition goes on into the timed rounds; the first is timed from
    // process start.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS - 1 {
        let t0 = if rep == 0 { start } else { stamp()? };
        let cfg = w.config(setup_seed(args.seed, rep), 1);
        let d = drive(&cfg)?;
        setup_s.push(d.marks[0].0.net_since(t0));
        out.attempted += 1;
        out.failed += check_records(&mut out.checks, &cfg, &d.result.rounds);
    }
    let cfg = w.config(args.seed, 1 + rounds);
    let t0 = stamp()?;
    let d = drive(&cfg)?;
    setup_s.push(d.marks[0].0.net_since(t0));

    let records = &d.result.rounds;
    out.attempted += records.len() as u64;
    out.failed += check_records(&mut out.checks, &cfg, records);
    let (first, last) = (d.marks[0].1, d.marks[d.marks.len() - 1].1);
    out.checks.expect(procfs::cpu_agrees(first, last), || {
        format!("CPU clock and /proc stat disagree: {first:?} -> {last:?}")
    });

    let round_s = d.round_s();
    let rates: Vec<f64> = records[1..]
        .iter()
        .zip(&round_s)
        .map(|(r, s)| r.delivered as f64 / s)
        .collect();
    let delivered: usize = records[1..].iter().map(|r| r.delivered).sum();
    let n = round_s.len();
    out.metrics = vec![
        metric("setup_s", "s", median(&setup_s), setup_s.len()),
        metric("round_s_p50", "s", median(&round_s), n),
        metric("updates_per_s", "1/s", median(&rates), n),
        metric("cpu_s_per_round", "s", median(&d.cpu_s()), n),
        metric(
            "peak_rss_mb",
            "MiB",
            procfs::peak_rss_mib(None).map_err(|e| e.to_string())?,
            1,
        ),
    ];
    if let Some([q1, _, q3]) = quartiles(&round_s) {
        out.extra.push(metric("round_s_q1", "s", q1, n));
        out.extra.push(metric("round_s_q3", "s", q3, n));
    }
    out.extra.push(metric(
        "round_wall_s_p50",
        "s",
        median(&d.round_wall_s()),
        n,
    ));
    out.extra.push(metric("steal_pct", "%", d.steal_pct(), n));
    out.extra.push(metric(
        "updates_per_round",
        "count",
        delivered as f64 / n as f64,
        n,
    ));
    Ok(out)
}

/// Per-round timings of the traced drive.
#[derive(Default)]
struct Layers {
    round: Vec<f64>,
    stage: Vec<f64>,
    close: Vec<f64>,
    coverage: Vec<f64>,
    craft: Vec<f64>,
    aggregate: Vec<f64>,
    kept: Vec<f64>,
    eval: Vec<f64>,
    encode: Vec<f64>,
    decode: Vec<f64>,
    cpu: Vec<f64>,
}

fn run_traced(w: Batch, args: &Args, start: Stamp) -> Result<Outcome, String> {
    let rounds = timed_rounds(args.seconds / 2.0, w.nominal_round_s(), 4);
    let cfg = w.config(args.seed, 1 + rounds);
    let mut out = Outcome::default();

    // The untraced reference drive over the same rounds.
    let reference = drive(&cfg)?;
    let untraced_round_s = median(&reference.round_s());

    let mut tr = Tracer::new(start.at);
    let t = Instant::now();
    let mut fleet = ClientFleet::new(&cfg).map_err(|e| e.to_string())?;
    let mut core = ServerCore::new(&cfg).map_err(|e| e.to_string())?;
    tr.record("data.setup", None, None, (t, Instant::now()));
    let data_setup_s = secs_since(t);
    let mut rep = Replayer::new(&cfg)?;
    let mut records: Vec<RoundRecord> = Vec::with_capacity(cfg.rounds);
    let mut l = Layers::default();
    let mut saves: Vec<(f64, u64)> = Vec::new();
    let wal_dir = args.out_dir.join("replay-wal");
    let fingerprint = checkpoint::fingerprint(&cfg);

    for round in 0..cfg.rounds {
        let timed = round > 0;
        let state = fleet.attack_state();
        let global = core.global().to_vec();
        let prev = core.prev_global().map(<[f32]>::to_vec);
        let cpu0 = procfs::cpu_clock_s(None).map_err(|e| e.to_string())?;
        let s0 = stamp()?;
        let rs = tr.open("round", None, Some(round));
        let t = Instant::now();
        let staged = fleet
            .stage_round(round, &global, prev.as_deref())
            .map_err(|e| format!("stage round {round}: {e}"))?;
        tr.record("fl.stage", Some(rs), Some(round), (t, Instant::now()));
        let stage_s = secs_since(t);
        // The replays need the submissions after the close has consumed
        // them: the copy is tracing overhead inside the round.
        let t = Instant::now();
        let subs = staged.submissions.clone();
        tr.replay("trace.copy", Some(rs), Some(round), (t, Instant::now()));
        let meta = Some(replay::meta_words(&staged));
        let t = Instant::now();
        let record = core
            .close_round(round, replay::round_input(staged))
            .map_err(|e| format!("close round {round}: {e}"))?;
        tr.record("fl.close", Some(rs), Some(round), (t, Instant::now()));
        let close_s = secs_since(t);
        tr.close(rs);
        let round_s = stamp()?.net_since(s0);
        let wall_s = tr.spans[rs].dur_ns() as f64 * 1e-9;
        let cpu_s = procfs::cpu_clock_s(None).map_err(|e| e.to_string())? - cpu0;
        if timed {
            l.round.push(round_s);
            l.stage.push(stage_s);
            l.close.push(close_s);
            l.coverage.push((stage_s + close_s) / wall_s);
            l.cpu.push(cpu_s);
        }

        // Replays, outside the round span.
        let t = Instant::now();
        if let Some((s, same)) = rep.craft(round, &state, &global, prev.as_deref(), &subs)? {
            tr.replay("attacks.craft", Some(rs), Some(round), (t, Instant::now()));
            out.checks.expect(same, || {
                format!("round {round}: replayed craft differs from the staged update")
            });
            if timed {
                l.craft.push(s);
            }
        }
        let t = Instant::now();
        let (agg_s, kept, agg) = rep.aggregate(&subs, &global)?;
        tr.replay(
            "aggregation.aggregate",
            Some(rs),
            Some(round),
            (t, Instant::now()),
        );
        out.checks.expect(bits_eq(&agg.model, core.global()), || {
            format!("round {round}: replayed aggregate differs from the closed model")
        });
        let t = Instant::now();
        let (eval_s, acc) = rep.eval(core.global())?;
        tr.replay("fl.eval", Some(rs), Some(round), (t, Instant::now()));
        out.checks
            .expect(acc.to_bits() == record.accuracy.to_bits(), || {
                format!(
                    "round {round}: replayed accuracy {acc} != {}",
                    record.accuracy
                )
            });
        let payloads: Vec<&[f32]> = subs.iter().map(|s| &s.payload[..]).collect();
        let t = Instant::now();
        let (enc, dec, same) = replay::quant_roundtrip(&cfg, &payloads);
        tr.replay(
            "quant.roundtrip",
            Some(rs),
            Some(round),
            (t, Instant::now()),
        );
        out.checks
            .expect(same, || format!("round {round}: quant roundtrip differs"));
        if timed {
            l.aggregate.push(agg_s);
            l.kept.push(kept);
            l.eval.push(eval_s);
            l.encode.extend(enc);
            l.decode.extend(dec);
        }

        // The batch path never checkpoints; once, on the last round,
        // replay what a WAL of this cohort would cost at k = 0, K/2, K.
        if round + 1 == cfg.rounds {
            let mut closed = records.clone();
            closed.push(record.clone());
            let shapes = [
                WalShape {
                    fingerprint: &fingerprint,
                    next_round: round + 1,
                    global: core.global(),
                    prev: Some(&global),
                    rounds: &closed,
                    inflight: &[],
                    meta: None,
                },
                WalShape {
                    fingerprint: &fingerprint,
                    next_round: round,
                    global: &global,
                    prev: prev.as_deref(),
                    rounds: &records,
                    inflight: &subs[..subs.len() / 2],
                    meta,
                },
                WalShape {
                    fingerprint: &fingerprint,
                    next_round: round,
                    global: &global,
                    prev: prev.as_deref(),
                    rounds: &records,
                    inflight: &subs,
                    meta,
                },
            ];
            for shape in &shapes {
                let ckpt = shape.checkpoint();
                let t = Instant::now();
                saves.push(replay::timed_save(&wal_dir, &ckpt)?);
                tr.replay(
                    "checkpoint.save",
                    Some(rs),
                    Some(round),
                    (t, Instant::now()),
                );
            }
        }
        records.push(record);
    }
    std::fs::remove_dir_all(&wal_dir).ok();

    out.attempted = records.len() as u64;
    out.failed = check_records(&mut out.checks, &cfg, &records);
    let same_records = records.len() == reference.result.rounds.len()
        && records
            .iter()
            .zip(&reference.result.rounds)
            .all(|(a, b)| records_eq(a, b));
    out.checks.expect(same_records, || {
        "traced drive's round records differ from simulate_observed's".into()
    });
    out.checks.expect(
        bits_eq(core.global(), &reference.result.final_model),
        || "traced drive's final model differs from simulate_observed's".into(),
    );

    let n = l.round.len();
    let traced_round_s = median(&l.round);
    let delivered_per_round =
        records[1..].iter().map(|r| r.delivered).sum::<usize>() as f64 / n as f64;
    let ms = |v: &[f64]| median(v) * 1e3;
    out.metrics = per_layer_metrics(&[
        metric("fl.stage_s", "s", median(&l.stage), n),
        metric("fl.close_s", "s", median(&l.close), n),
        metric("attacks.craft_s", "s", median(&l.craft), l.craft.len()),
        metric("aggregation.aggregate_s", "s", median(&l.aggregate), n),
        metric("aggregation.kept_ratio", "ratio", mean(&l.kept), n),
        metric(
            "aggregation.round_share",
            "ratio",
            median(&l.aggregate) / traced_round_s,
            n,
        ),
        metric("fl.eval_s", "s", median(&l.eval), n),
        metric("data.setup_s", "s", data_setup_s, 1),
        metric("checkpoint.save_ms_k0", "ms", saves[0].0 * 1e3, 1),
        metric("checkpoint.save_ms_khalf", "ms", saves[1].0 * 1e3, 1),
        metric("checkpoint.save_ms_kfull", "ms", saves[2].0 * 1e3, 1),
        metric("checkpoint.bytes_k0", "bytes", saves[0].1 as f64, 1),
        metric("checkpoint.bytes_khalf", "bytes", saves[1].1 as f64, 1),
        metric("checkpoint.bytes_kfull", "bytes", saves[2].1 as f64, 1),
        metric("quant.encode_ms", "ms", ms(&l.encode), l.encode.len()),
        metric("quant.decode_ms", "ms", ms(&l.decode), l.decode.len()),
        metric("serve.accept_ratio", "ratio", 1.0, n),
        metric("driver.cpu_s_per_round", "s", mean(&l.cpu), n),
        metric("trace.round_s_p50", "s", traced_round_s, n),
        metric("trace.coverage_pct", "%", median(&l.coverage) * 100.0, n),
        metric(
            "trace.overhead_pct",
            "%",
            (traced_round_s / untraced_round_s - 1.0) * 100.0,
            n,
        ),
    ]);
    out.extra
        .push(metric("untraced.round_s_p50", "s", untraced_round_s, n));
    out.extra
        .push(metric("updates_per_round", "count", delivered_per_round, n));
    out.lines.extend(span_summary(&tr));
    write_trace(args, &tr, &mut out)?;
    Ok(out)
}
