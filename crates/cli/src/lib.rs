//! # fabflip-cli
//!
//! Command-line front end for the `fabflip` testbed. Subcommands:
//!
//! * `list` — the available attacks (with their Table I assumption
//!   profiles) and defenses,
//! * `run` — one federated-learning simulation with live per-round
//!   progress, e.g.
//!
//! ```sh
//! fabflip-cli run --task fashion --attack zka-g --defense mkrum --rounds 20
//! fabflip-cli run --task cifar --attack min-max --defense bulyan --beta 0.1
//! fabflip-cli run --task fashion --attack zka-r --defense foolsgold --sybil-noise 0.02
//! ```
//!
//! The argument parser is hand-rolled (no CLI dependency) and exposed here
//! for testing.

use fabflip::ZkaConfig;
use fabflip_agg::DefenseKind;
use fabflip_fl::{AttackSpec, CheckpointSpec, FaultPlan, FlConfig, StragglerPolicy, TaskKind};
use std::net::SocketAddr;

/// A parsed `run` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// The full simulation config.
    pub config: FlConfig,
    /// Emit one line per round while running.
    pub live: bool,
    /// Emit the summary as JSON instead of text.
    pub json: bool,
    /// Crash-safe checkpointing (`--checkpoint-dir`), if requested.
    pub checkpoint: Option<CheckpointSpec>,
}

/// A parsed `serve` invocation (the crash-tolerant TCP aggregation
/// server, DESIGN.md §4g).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// The deployment config; must match the load generator's.
    pub config: FlConfig,
    /// Listen address (`:0` picks an ephemeral port).
    pub bind: SocketAddr,
    /// Checkpoint + write-ahead-log directory (required: the server's
    /// whole point is durability).
    pub ckpt_dir: String,
    /// Connection-handler threads (`0` = one per core).
    pub workers: usize,
    /// Bound on the submission queue before `BUSY` backpressure.
    pub queue_cap: usize,
    /// Per-round deadline in milliseconds.
    pub deadline_ms: u64,
    /// When set, the bound address is written there (atomically) once
    /// listening — how scripts find an ephemeral port.
    pub port_file: Option<String>,
}

/// A parsed `load-gen` invocation (drives a deployment's client side
/// against a running server).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadGenArgs {
    /// The deployment config; must match the server's.
    pub config: FlConfig,
    /// Server (or chaos proxy) address.
    pub addr: SocketAddr,
    /// Concurrent submission connections.
    pub senders: usize,
    /// Skip every Nth staged submission (deadline-degradation drills).
    pub omit_every: usize,
    /// Send SHUTDOWN to the server once all rounds are done.
    pub shutdown: bool,
    /// Emit the report as JSON instead of text.
    pub json: bool,
}

/// Top-level parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `list`
    List,
    /// `run …` (boxed: the config dwarfs the other variants).
    Run(Box<RunArgs>),
    /// `serve …`
    Serve(Box<ServeArgs>),
    /// `load-gen …`
    LoadGen(Box<LoadGenArgs>),
    /// `help` or `--help`
    Help,
}

/// Parse error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Parses an attack name (the labels used across the repo and the paper).
///
/// # Errors
///
/// Returns a message listing the valid names.
pub fn parse_attack(name: &str) -> Result<AttackSpec, ParseError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "none" => AttackSpec::None,
        "lie" => AttackSpec::Lie,
        "fang" => AttackSpec::Fang,
        "min-max" | "minmax" => AttackSpec::MinMax,
        "min-sum" | "minsum" => AttackSpec::MinSum,
        "random" | "random-weights" => AttackSpec::RandomWeights,
        "real-data" | "realdata" => AttackSpec::RealData { lambda: 1.0 },
        "zka-r" | "zkar" => AttackSpec::ZkaR {
            cfg: ZkaConfig::paper(),
        },
        "zka-g" | "zkag" => AttackSpec::ZkaG {
            cfg: ZkaConfig::paper(),
        },
        "zka-r-static" => AttackSpec::ZkaR {
            cfg: ZkaConfig::static_variant(),
        },
        "zka-g-static" => AttackSpec::ZkaG {
            cfg: ZkaConfig::static_variant(),
        },
        other => {
            return Err(ParseError(format!(
                "unknown attack `{other}`; one of: none, lie, fang, min-max, min-sum, random, \
                 real-data, zka-r, zka-g, zka-r-static, zka-g-static"
            )))
        }
    })
}

/// Parses a defense name.
///
/// # Errors
///
/// Returns a message listing the valid names.
pub fn parse_defense(name: &str) -> Result<DefenseKind, ParseError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "fedavg" | "none" => DefenseKind::FedAvg,
        "krum" => DefenseKind::Krum { f: 2 },
        "mkrum" | "multi-krum" => DefenseKind::MKrum { f: 2 },
        "trmean" | "trimmed-mean" => DefenseKind::TrMean { trim: 2 },
        "median" => DefenseKind::Median,
        "bulyan" => DefenseKind::Bulyan { f: 2 },
        "foolsgold" => DefenseKind::FoolsGold,
        "normbound" | "norm-bound" => DefenseKind::NormBound {
            max_norm_milli: 500,
        },
        other => {
            return Err(ParseError(format!(
                "unknown defense `{other}`; one of: fedavg, krum, mkrum, trmean, median, bulyan, \
                 foolsgold, normbound"
            )))
        }
    })
}

/// Parses a task name.
///
/// # Errors
///
/// Returns a message listing the valid names.
pub fn parse_task(name: &str) -> Result<TaskKind, ParseError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "fashion" | "fashion-mnist" => TaskKind::Fashion,
        "cifar" | "cifar-10" | "cifar10" => TaskKind::Cifar,
        other => {
            return Err(ParseError(format!(
                "unknown task `{other}`; fashion or cifar"
            )))
        }
    })
}

fn take_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, ParseError> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| ParseError(format!("{flag} needs a value")))
}

fn take_parsed<T: std::str::FromStr>(
    args: &[String],
    i: &mut usize,
    flag: &str,
    what: &str,
) -> Result<T, ParseError> {
    take_value(args, i, flag)?
        .parse()
        .map_err(|_| ParseError(format!("{flag} needs {what}")))
}

/// The experiment-shaping flags shared by `run`, `serve` and `load-gen` —
/// one parser so a server and its load generator cannot drift apart.
struct ConfigFlags {
    task: TaskKind,
    attack: AttackSpec,
    defense: DefenseKind,
    rounds: Option<usize>,
    beta: Option<f64>,
    seed: u64,
    sybil_noise: f32,
    n_clients: Option<usize>,
    clients_per_round: Option<usize>,
    train_size: Option<usize>,
    test_size: Option<usize>,
    synth_set: Option<usize>,
}

impl ConfigFlags {
    fn new() -> ConfigFlags {
        ConfigFlags {
            task: TaskKind::Fashion,
            attack: AttackSpec::None,
            defense: DefenseKind::FedAvg,
            rounds: None,
            beta: None,
            seed: 1,
            sybil_noise: 0.0,
            n_clients: None,
            clients_per_round: None,
            train_size: None,
            test_size: None,
            synth_set: None,
        }
    }

    /// Consumes `args[*i]` if it is a shared config flag; returns whether
    /// it did.
    fn accept(&mut self, args: &[String], i: &mut usize) -> Result<bool, ParseError> {
        match args[*i].as_str() {
            "--task" => self.task = parse_task(take_value(args, i, "--task")?)?,
            "--attack" => self.attack = parse_attack(take_value(args, i, "--attack")?)?,
            "--defense" => self.defense = parse_defense(take_value(args, i, "--defense")?)?,
            "--rounds" => self.rounds = Some(take_parsed(args, i, "--rounds", "an integer")?),
            "--beta" => self.beta = Some(take_parsed(args, i, "--beta", "a number")?),
            "--seed" => self.seed = take_parsed(args, i, "--seed", "an integer")?,
            "--sybil-noise" => {
                self.sybil_noise = take_parsed(args, i, "--sybil-noise", "a number")?
            }
            "--n-clients" => {
                self.n_clients = Some(take_parsed(args, i, "--n-clients", "an integer")?)
            }
            "--clients-per-round" => {
                self.clients_per_round =
                    Some(take_parsed(args, i, "--clients-per-round", "an integer")?)
            }
            "--train-size" => {
                self.train_size = Some(take_parsed(args, i, "--train-size", "an integer")?)
            }
            "--test-size" => {
                self.test_size = Some(take_parsed(args, i, "--test-size", "an integer")?)
            }
            "--synth-set" => {
                self.synth_set = Some(take_parsed(args, i, "--synth-set", "an integer")?)
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The config these flags describe, validated here so a bad value is
    /// a usage error (exit 2) like every other bad flag, not a panic.
    fn build(self, faults: FaultPlan) -> Result<FlConfig, ParseError> {
        let mut cfg = FlConfig::builder(self.task).build();
        cfg.attack = self.attack;
        cfg.defense = self.defense;
        cfg.seed = self.seed;
        cfg.sybil_noise = self.sybil_noise;
        cfg.faults = faults;
        cfg.rounds = self.rounds.unwrap_or(cfg.rounds);
        cfg.beta = self.beta.unwrap_or(cfg.beta);
        cfg.n_clients = self.n_clients.unwrap_or(cfg.n_clients);
        cfg.clients_per_round = self.clients_per_round.unwrap_or(cfg.clients_per_round);
        cfg.train_size = self.train_size.unwrap_or(cfg.train_size);
        cfg.test_size = self.test_size.unwrap_or(cfg.test_size);
        cfg.synth_set_size = self.synth_set.unwrap_or(cfg.synth_set_size);
        cfg.validate()
            .map_err(|e| ParseError(format!("invalid configuration: {e}")))?;
        Ok(cfg)
    }
}

/// Parses a full command line (without the program name). `--help` or
/// `-h` anywhere on the line asks for help (`run --help` included).
///
/// # Errors
///
/// Returns a user-facing message for unknown subcommands, flags or values.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Command::Help);
    }
    match args.first().map(String::as_str) {
        None | Some("help") => Ok(Command::Help),
        Some("list") => Ok(Command::List),
        Some("run") => {
            let mut cf = ConfigFlags::new();
            let mut live = true;
            let mut json = false;
            let mut faults = FaultPlan::default();
            let mut stale_policy = false;
            let mut stale_discount: f32 = 1.0;
            let mut checkpoint_dir: Option<String> = None;
            let mut checkpoint_every: usize = 5;
            let mut i = 1usize;
            while i < args.len() {
                if cf.accept(args, &mut i)? {
                    i += 1;
                    continue;
                }
                match args[i].as_str() {
                    "--dropout" => {
                        faults.dropout = take_value(args, &mut i, "--dropout")?
                            .parse()
                            .map_err(|_| ParseError("--dropout needs a rate in [0,1]".into()))?
                    }
                    "--stragglers" => {
                        faults.straggler = take_value(args, &mut i, "--stragglers")?
                            .parse()
                            .map_err(|_| ParseError("--stragglers needs a rate in [0,1]".into()))?
                    }
                    "--malformed" => {
                        faults.malformed = take_value(args, &mut i, "--malformed")?
                            .parse()
                            .map_err(|_| ParseError("--malformed needs a rate in [0,1]".into()))?
                    }
                    "--straggler-policy" => match take_value(args, &mut i, "--straggler-policy")? {
                        "drop" => stale_policy = false,
                        "stale" => stale_policy = true,
                        other => {
                            return Err(ParseError(format!(
                                "unknown straggler policy `{other}`; drop or stale"
                            )))
                        }
                    },
                    "--stale-discount" => {
                        stale_discount = take_value(args, &mut i, "--stale-discount")?
                            .parse()
                            .map_err(|_| {
                                ParseError("--stale-discount needs a factor in [0,1]".into())
                            })?
                    }
                    "--checkpoint-dir" => {
                        checkpoint_dir =
                            Some(take_value(args, &mut i, "--checkpoint-dir")?.to_string())
                    }
                    "--checkpoint-every" => {
                        checkpoint_every = take_value(args, &mut i, "--checkpoint-every")?
                            .parse()
                            .map_err(|_| {
                            ParseError("--checkpoint-every needs an integer".into())
                        })?
                    }
                    "--quiet" => live = false,
                    "--json" => json = true,
                    other => return Err(ParseError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            if !(0.0..=1.0).contains(&stale_discount) {
                return Err(ParseError(
                    "--stale-discount needs a factor in [0,1]".into(),
                ));
            }
            if stale_policy {
                faults.straggler_policy = StragglerPolicy::Stale {
                    discount_milli: (stale_discount * 1000.0).round() as u32,
                };
            }
            Ok(Command::Run(Box::new(RunArgs {
                config: cf.build(faults)?,
                live,
                json,
                checkpoint: checkpoint_dir.map(|d| CheckpointSpec::new(d, checkpoint_every)),
            })))
        }
        Some("serve") => {
            let mut cf = ConfigFlags::new();
            let mut bind: SocketAddr = "127.0.0.1:7117"
                .parse()
                .map_err(|_| ParseError("internal: default bind address is invalid".into()))?;
            let mut ckpt_dir: Option<String> = None;
            let mut workers = 0usize;
            let mut queue_cap = 16usize;
            let mut deadline_ms = 30_000u64;
            let mut port_file: Option<String> = None;
            let mut i = 1usize;
            while i < args.len() {
                if cf.accept(args, &mut i)? {
                    i += 1;
                    continue;
                }
                match args[i].as_str() {
                    "--bind" => {
                        bind =
                            take_parsed(args, &mut i, "--bind", "an address like 127.0.0.1:7117")?
                    }
                    "--ckpt-dir" => {
                        ckpt_dir = Some(take_value(args, &mut i, "--ckpt-dir")?.to_string())
                    }
                    "--workers" => workers = take_parsed(args, &mut i, "--workers", "an integer")?,
                    "--queue-cap" => {
                        queue_cap = take_parsed(args, &mut i, "--queue-cap", "an integer")?
                    }
                    "--deadline-ms" => {
                        deadline_ms = take_parsed(args, &mut i, "--deadline-ms", "milliseconds")?
                    }
                    "--port-file" => {
                        port_file = Some(take_value(args, &mut i, "--port-file")?.to_string())
                    }
                    other => return Err(ParseError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            let Some(ckpt_dir) = ckpt_dir else {
                return Err(ParseError(
                    "serve needs --ckpt-dir (crash tolerance is the point)".into(),
                ));
            };
            Ok(Command::Serve(Box::new(ServeArgs {
                config: cf.build(FaultPlan::default())?,
                bind,
                ckpt_dir,
                workers,
                queue_cap,
                deadline_ms,
                port_file,
            })))
        }
        Some("load-gen") => {
            let mut cf = ConfigFlags::new();
            let mut addr: Option<SocketAddr> = None;
            let mut senders = 4usize;
            let mut omit_every = 0usize;
            let mut shutdown = false;
            let mut json = false;
            let mut i = 1usize;
            while i < args.len() {
                if cf.accept(args, &mut i)? {
                    i += 1;
                    continue;
                }
                match args[i].as_str() {
                    "--addr" => {
                        addr = Some(take_parsed(
                            args,
                            &mut i,
                            "--addr",
                            "an address like 127.0.0.1:7117",
                        )?)
                    }
                    "--senders" => senders = take_parsed(args, &mut i, "--senders", "an integer")?,
                    "--omit-every" => {
                        omit_every = take_parsed(args, &mut i, "--omit-every", "an integer")?
                    }
                    "--shutdown" => shutdown = true,
                    "--json" => json = true,
                    other => return Err(ParseError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            let Some(addr) = addr else {
                return Err(ParseError("load-gen needs --addr".into()));
            };
            Ok(Command::LoadGen(Box::new(LoadGenArgs {
                config: cf.build(FaultPlan::default())?,
                addr,
                senders,
                omit_every,
                shutdown,
                json,
            })))
        }
        Some(other) => Err(ParseError(format!(
            "unknown subcommand `{other}`; try `list`, `run`, `serve`, `load-gen` or `help`"
        ))),
    }
}

/// The `help` text.
pub fn help_text() -> &'static str {
    "fabflip-cli — zero-knowledge FL poisoning testbed

USAGE:
    fabflip-cli list
    fabflip-cli run [--task fashion|cifar] [--attack NAME] [--defense NAME]
                    [--rounds N] [--beta B] [--seed S] [--sybil-noise X]
                    [--dropout R] [--stragglers R] [--straggler-policy drop|stale]
                    [--stale-discount F] [--malformed R]
                    [--checkpoint-dir PATH] [--checkpoint-every N]
                    [--quiet] [--json]
    fabflip-cli serve --ckpt-dir PATH [--bind ADDR] [--workers N]
                    [--queue-cap N] [--deadline-ms MS] [--port-file PATH]
                    [config flags as for run]
    fabflip-cli load-gen --addr ADDR [--senders N] [--omit-every N]
                    [--shutdown] [--json] [config flags as for run]

SCALE (shared by run/serve/load-gen; defaults are the paper's 100/10):
    --n-clients N --clients-per-round K --train-size N --test-size N
    --synth-set S          shrink a deployment for smoke tests and CI

FAULTS (deterministic per seed/round/client; rates in [0,1], sum ≤ 1):
    --dropout R            clients unreachable before local compute
    --stragglers R         submissions late; `drop` loses them, `stale`
                           delivers next round weighted by --stale-discount
    --malformed R          submissions corrupted in transit (NaN/truncated/
                           overlong/zeroed) and quarantined by the server

CHECKPOINTING:
    --checkpoint-dir PATH  save crash-safe state there; an interrupted run
                           with the same config resumes automatically
    --checkpoint-every N   rounds between saves (default 5)

SERVING (DESIGN.md §4g — live TCP aggregation instead of batch sim):
    serve                  crash-tolerant aggregation server; checkpoints
                           every accepted submission, so `kill -9` +
                           restart resumes bitwise-identically. --bind :0
                           plus --port-file is how scripts get the port.
    load-gen               drives the whole client fleet (including the
                           attack) against a server; --shutdown stops the
                           server when the run completes.

EXAMPLES:
    fabflip-cli run --task fashion --attack zka-g --defense mkrum --rounds 20
    fabflip-cli run --task cifar --attack min-max --defense bulyan --beta 0.1
    fabflip-cli run --attack random --defense krum --dropout 0.2 --malformed 0.05
    fabflip-cli run --rounds 50 --checkpoint-dir ckpts --checkpoint-every 10
    fabflip-cli serve --ckpt-dir ckpts --attack lie --defense mkrum --rounds 20
    fabflip-cli load-gen --addr 127.0.0.1:7117 --attack lie --defense mkrum --rounds 20 --shutdown
    fabflip-cli list
"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_names_case_insensitively() {
        assert_eq!(parse_attack("ZKA-G").unwrap().label(), "ZKA-G");
        assert_eq!(parse_attack("minmax").unwrap(), AttackSpec::MinMax);
        assert_eq!(parse_defense("MKRUM").unwrap().label(), "mKrum");
        assert_eq!(parse_task("CIFAR10").unwrap(), TaskKind::Cifar);
        assert!(parse_attack("bogus").is_err());
        assert!(parse_defense("bogus").is_err());
        assert!(parse_task("bogus").is_err());
    }

    #[test]
    fn parses_a_full_run_command() {
        let cmd = parse(&argv(
            "run --task cifar --attack zka-r --defense bulyan --rounds 7 --beta 0.1 --seed 9 --json",
        ))
        .unwrap();
        match cmd {
            Command::Run(r) => {
                assert_eq!(r.config.task, TaskKind::Cifar);
                assert_eq!(r.config.attack.label(), "ZKA-R");
                assert_eq!(r.config.defense.label(), "Bulyan");
                assert_eq!(r.config.rounds, 7);
                assert_eq!(r.config.beta, 0.1);
                assert_eq!(r.config.seed, 9);
                assert!(r.json);
                assert!(r.live);
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn defaults_are_sensible() {
        let cmd = parse(&argv("run")).unwrap();
        match cmd {
            Command::Run(r) => {
                assert_eq!(r.config.task, TaskKind::Fashion);
                assert_eq!(r.config.attack, AttackSpec::None);
                assert!(!r.json);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn help_and_list_and_errors() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        for help in [
            "--help",
            "-h",
            "run --help",
            "run --rounds 3 -h",
            "serve -h",
            "load-gen --help",
        ] {
            assert_eq!(parse(&argv(help)).unwrap(), Command::Help, "{help}");
        }
        assert_eq!(parse(&argv("list")).unwrap(), Command::List);
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run --rounds")).is_err());
        assert!(parse(&argv("run --rounds x")).is_err());
        assert!(parse(&argv("run --whatever")).is_err());
        assert!(!help_text().is_empty());
        // An invalid config is a usage error, not a builder panic.
        for bad in [
            "run --rounds 0",
            "run --beta nan",
            "run --beta inf",
            "run --beta 0",
            "run --sybil-noise nan",
            "run --sybil-noise inf",
            "run --sybil-noise -1",
            "run --n-clients 5 --clients-per-round 6",
            "run --dropout 1.5",
            "serve --ckpt-dir ck --rounds 0",
            "load-gen --addr 127.0.0.1:9000 --beta inf",
        ] {
            let err = parse(&argv(bad)).expect_err(bad);
            assert!(err.0.starts_with("invalid configuration"), "{bad}: {err}");
        }
    }

    #[test]
    fn fault_flags_reach_the_config() {
        let cmd = parse(&argv(
            "run --dropout 0.2 --stragglers 0.1 --straggler-policy stale --stale-discount 0.5 \
             --malformed 0.05",
        ))
        .unwrap();
        match cmd {
            Command::Run(r) => {
                let f = &r.config.faults;
                assert!((f.dropout - 0.2).abs() < 1e-6);
                assert!((f.straggler - 0.1).abs() < 1e-6);
                assert!((f.malformed - 0.05).abs() < 1e-6);
                assert_eq!(
                    f.straggler_policy,
                    StragglerPolicy::Stale {
                        discount_milli: 500
                    }
                );
                assert!(r.checkpoint.is_none());
            }
            _ => panic!(),
        }
        // Default policy stays Drop; the discount flag alone changes nothing.
        match parse(&argv("run --stragglers 0.1 --stale-discount 0.3")).unwrap() {
            Command::Run(r) => {
                assert_eq!(r.config.faults.straggler_policy, StragglerPolicy::Drop)
            }
            _ => panic!(),
        }
        assert!(parse(&argv("run --dropout x")).is_err());
        assert!(parse(&argv("run --straggler-policy eventually")).is_err());
        assert!(parse(&argv("run --stale-discount 1.5")).is_err());
    }

    #[test]
    fn checkpoint_flags_build_a_spec() {
        match parse(&argv("run --checkpoint-dir ckpts --checkpoint-every 10")).unwrap() {
            Command::Run(r) => {
                assert_eq!(r.checkpoint, Some(CheckpointSpec::new("ckpts", 10)));
            }
            _ => panic!(),
        }
        // --checkpoint-every defaults to 5 and is inert without a dir.
        match parse(&argv("run --checkpoint-dir out")).unwrap() {
            Command::Run(r) => assert_eq!(r.checkpoint, Some(CheckpointSpec::new("out", 5))),
            _ => panic!(),
        }
        match parse(&argv("run --checkpoint-every 3")).unwrap() {
            Command::Run(r) => assert!(r.checkpoint.is_none()),
            _ => panic!(),
        }
        assert!(parse(&argv("run --checkpoint-every x")).is_err());
    }

    #[test]
    fn parses_a_serve_command() {
        let cmd = parse(&argv(
            "serve --ckpt-dir /tmp/ck --bind 127.0.0.1:0 --workers 3 --queue-cap 8 \
             --deadline-ms 1500 --port-file /tmp/port --attack lie --defense mkrum \
             --rounds 5 --seed 21",
        ))
        .unwrap();
        match cmd {
            Command::Serve(s) => {
                assert_eq!(s.ckpt_dir, "/tmp/ck");
                assert_eq!(s.bind, "127.0.0.1:0".parse::<SocketAddr>().unwrap());
                assert_eq!(s.workers, 3);
                assert_eq!(s.queue_cap, 8);
                assert_eq!(s.deadline_ms, 1500);
                assert_eq!(s.port_file.as_deref(), Some("/tmp/port"));
                assert_eq!(s.config.attack, AttackSpec::Lie);
                assert_eq!(s.config.rounds, 5);
                assert_eq!(s.config.seed, 21);
            }
            other => panic!("expected serve, got {other:?}"),
        }
        // Defaults: fixed loopback bind, durable dir still required.
        match parse(&argv("serve --ckpt-dir ck")).unwrap() {
            Command::Serve(s) => {
                assert_eq!(s.bind, "127.0.0.1:7117".parse::<SocketAddr>().unwrap());
                assert_eq!(s.workers, 0);
                assert_eq!(s.queue_cap, 16);
                assert_eq!(s.deadline_ms, 30_000);
                assert!(s.port_file.is_none());
            }
            _ => panic!(),
        }
        assert!(parse(&argv("serve")).is_err(), "--ckpt-dir is required");
        assert!(parse(&argv("serve --ckpt-dir ck --bind nonsense")).is_err());
        assert!(parse(&argv("serve --ckpt-dir ck --frobnicate")).is_err());
    }

    #[test]
    fn parses_a_load_gen_command() {
        let cmd = parse(&argv(
            "load-gen --addr 127.0.0.1:9000 --senders 2 --omit-every 3 --shutdown --json \
             --attack lie --defense mkrum --rounds 5 --seed 21",
        ))
        .unwrap();
        match cmd {
            Command::LoadGen(l) => {
                assert_eq!(l.addr, "127.0.0.1:9000".parse::<SocketAddr>().unwrap());
                assert_eq!(l.senders, 2);
                assert_eq!(l.omit_every, 3);
                assert!(l.shutdown);
                assert!(l.json);
                assert_eq!(l.config.attack, AttackSpec::Lie);
                assert_eq!(l.config.seed, 21);
            }
            other => panic!("expected load-gen, got {other:?}"),
        }
        assert!(parse(&argv("load-gen")).is_err(), "--addr is required");
        assert!(parse(&argv("load-gen --addr nonsense")).is_err());
    }

    #[test]
    fn serve_and_load_gen_share_the_run_config_surface() {
        // The same config flags must produce the same FlConfig through
        // every subcommand — a server and its load generator parse their
        // (identical) command lines independently.
        let flags = "--task fashion --attack lie --defense mkrum --rounds 4 --beta 0.3 --seed 77 \
                     --n-clients 12 --clients-per-round 6 --train-size 240 --test-size 80 \
                     --synth-set 6";
        let run = match parse(&argv(&format!("run {flags}"))).unwrap() {
            Command::Run(r) => r.config,
            _ => panic!(),
        };
        let serve = match parse(&argv(&format!("serve --ckpt-dir ck {flags}"))).unwrap() {
            Command::Serve(s) => s.config,
            _ => panic!(),
        };
        let lg = match parse(&argv(&format!("load-gen --addr 127.0.0.1:1 {flags}"))).unwrap() {
            Command::LoadGen(l) => l.config,
            _ => panic!(),
        };
        assert_eq!(run, serve);
        assert_eq!(run, lg);
        assert_eq!(run.n_clients, 12);
        assert_eq!(run.clients_per_round, 6);
        assert_eq!(run.train_size, 240);
        assert_eq!(run.test_size, 80);
        assert_eq!(run.synth_set_size, 6);
    }

    #[test]
    fn sybil_noise_flag_reaches_config() {
        let cmd = parse(&argv("run --sybil-noise 0.05 --quiet")).unwrap();
        match cmd {
            Command::Run(r) => {
                assert!((r.config.sybil_noise - 0.05).abs() < 1e-6);
                assert!(!r.live);
            }
            _ => panic!(),
        }
    }
}
