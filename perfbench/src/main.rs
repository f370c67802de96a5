//! `perfbench`: the end-to-end and per-layer benchmark of the fabflip
//! batch and serve paths. Normally started through `perfbench/run.py`,
//! which builds it and the `fabflip-cli` server first:
//!
//! ```text
//! perfbench --workload cell-cifar|cohort-fashion|serve-ingest --seed N
//!           --seconds S --trace 0|1 --server-bin PATH --out-dir DIR
//! ```
//!
//! Every run prints a host line, one human-readable line per metric
//! (value, unit, sample count), and as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A failed output check makes the run incorrect and its exit code 1.

mod batch;
mod procfs;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The config seed of set-up repetition `rep`: the last repetition, which
/// goes on into the timed rounds, uses the run's seed; the others use
/// seeds derived from it, so `setup_s` is a median over five warm-up
/// rounds' contents rather than five copies of one.
pub fn setup_seed(seed: u64, rep: usize) -> u64 {
    match SETUP_REPS - 1 - rep {
        0 => seed,
        k => seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    }
}

/// The per-layer metrics of `--trace 1` runs, as BENCHMARK.json lists
/// them. A workload that never exercises a layer reports it as 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("fl.stage_s", "s"),
    ("fl.close_s", "s"),
    ("attacks.craft_s", "s"),
    ("aggregation.aggregate_s", "s"),
    ("aggregation.kept_ratio", "ratio"),
    ("aggregation.round_share", "ratio"),
    ("fl.eval_s", "s"),
    ("data.setup_s", "s"),
    ("checkpoint.save_ms_k0", "ms"),
    ("checkpoint.save_ms_khalf", "ms"),
    ("checkpoint.save_ms_kfull", "ms"),
    ("checkpoint.bytes_k0", "bytes"),
    ("checkpoint.bytes_khalf", "bytes"),
    ("checkpoint.bytes_kfull", "bytes"),
    ("checkpoint.ingest_share", "ratio"),
    ("quant.encode_ms", "ms"),
    ("quant.decode_ms", "ms"),
    ("serve.submits_per_s", "1/s"),
    ("serve.ack_ms_p50", "ms"),
    ("serve.close_ms_p50", "ms"),
    ("serve.fetch_ms_p50", "ms"),
    ("serve.busy", "count"),
    ("serve.retries", "count"),
    ("serve.reconnects", "count"),
    ("serve.accept_ratio", "ratio"),
    ("server.write_calls_per_round", "count"),
    ("server.write_mb_per_round", "MB"),
    ("wire.up_mb_per_round", "MB"),
    ("wire.down_mb_per_round", "MB"),
    ("driver.cpu_s_per_round", "s"),
    ("trace.round_s_p50", "s"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `fabflip-cli` binary the serve workload starts.
    pub server_bin: Option<PathBuf>,
    /// Scratch directory for write-ahead logs, replays and traces.
    pub out_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload cell-cifar|cohort-fashion|serve-ingest \
                     --seed N --seconds S --trace 0|1 [--server-bin PATH] [--out-dir DIR]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server_bin: None,
        out_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--server-bin" => args.server_bin = Some(PathBuf::from(value()?)),
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The host facts every result depends on.
fn host_line(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let out_fs = std::fs::canonicalize(&args.out_dir)
        .ok()
        .and_then(|p| {
            let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
            procfs::fs_type_for(&p.to_string_lossy(), &mounts)
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "host nproc={nproc} cpu=\"{cpu}\" simd={} FABFLIP_THREADS={} pool_threads={} wal_fs={out_fs}",
        fabflip_tensor::backend::active_kind().name(),
        std::env::var("FABFLIP_THREADS").unwrap_or_else(|_| "unset".into()),
        fabflip_tensor::par::max_threads(),
    )
}

fn main() {
    let start = match procfs::Stamp::now() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: /proc/stat: {e}");
            std::process::exit(1);
        }
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(1);
    }
    println!("{}", host_line(&args));
    let result = match args.workload.as_str() {
        "cell-cifar" => batch::run(batch::Batch::CellCifar, &args, start),
        "cohort-fashion" => batch::run(batch::Batch::CohortFashion, &args, start),
        "serve-ingest" => serve::run(&args, start),
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    match result {
        Ok(out) => {
            print!("{}", out.human());
            println!("{}", out.json());
            std::process::exit(if out.correct() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let section = &text[text.find("\"per_layer\"").expect("per_layer key")..];
        assert_eq!(section.matches("\"name\"").count(), super::PER_LAYER.len());
        for (name, unit) in super::PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
