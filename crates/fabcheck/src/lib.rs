//! # fabcheck
//!
//! A self-contained static-analysis pass enforcing this workspace's
//! determinism and panic-safety contracts (DESIGN.md § Static invariants).
//! No `syn`, no registry deps: a minimal hand-rolled Rust lexer
//! ([`lexer`]) feeds a whole-identifier rule engine ([`rules`]), and
//! counted rules ratchet against a committed baseline ([`ratchet`]).
//!
//! Run it from anywhere in the repo:
//!
//! ```text
//! cargo run -p fabcheck -- --ci          # what CI runs; exit 1 on any hit
//! cargo run -p fabcheck -- --json        # machine-readable report
//! cargo run -p fabcheck -- --bless       # rewrite FABCHECK_BASELINE.json
//! ```

pub mod diag;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod ratchet;
pub mod rules;
pub mod walk;

use ratchet::{Counts, Regression};
use rules::Finding;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Default baseline filename at the workspace root.
pub const BASELINE_FILE: &str = "FABCHECK_BASELINE.json";

/// `file → (claimed, total)` unsafe-site coverage: how many `unsafe`
/// sites in the file claim a SAFETY comment, out of all of them. Reported
/// by `--json` (the CI job summary tabulates it), never ratcheted.
pub type UnsafeAudit = BTreeMap<String, (u64, u64)>;

/// Everything one pass over the tree produces.
#[derive(Debug)]
pub struct Report {
    /// Forbidden-rule hits (any of these fails the run), sorted by
    /// file/line/column/rule.
    pub findings: Vec<Finding>,
    /// Counted-rule hits (ratcheted, not forbidden), same order.
    pub counted: Vec<Finding>,
    /// Counted tallies per `rule × file`. Always contains an entry for
    /// every counted rule so a blessed baseline pins zeros explicitly.
    pub counts: Counts,
    /// The hot-path call graph: kernel entries found and every function
    /// reachable from them (see [`graph::HOT_ENTRIES`]).
    pub hot: graph::HotSummary,
    /// Unsafe-site coverage per non-test file with at least one `unsafe`
    /// site: how many carry a SAFETY claim, out of how many exist.
    pub unsafe_audit: UnsafeAudit,
    /// Number of files scanned.
    pub files_checked: usize,
}

/// Scans every `.rs` file under `root/crates` and `root/compat`: the
/// per-file rules, then the workspace passes and the call-graph rules,
/// all over the same once-read, once-lexed sources.
///
/// # Errors
///
/// Propagates I/O failures from the walk.
pub fn check_workspace(root: &Path) -> std::io::Result<Report> {
    let files = walk::collect(root)?;
    let mut all = Vec::new();
    let mut unsafe_audit = UnsafeAudit::new();
    for file in &files {
        let (hits, (claimed, total)) = rules::check_file(file);
        all.extend(hits);
        if total > 0 && !file.class.is_test_file {
            unsafe_audit.insert(file.class.rel.clone(), (claimed, total));
        }
    }
    all.extend(rules::check_seed_streams(&files));
    all.extend(rules::check_backend_parity(&files));
    let analysis = graph::analyze(&files);
    all.extend(analysis.findings);
    let (mut findings, mut counted): (Vec<Finding>, Vec<Finding>) =
        all.into_iter().partition(|f| f.rule.is_forbidden());

    // Deterministic diagnostics regardless of rule evaluation order.
    let key = |f: &Finding| (f.file.clone(), f.line, f.col, f.rule.name());
    findings.sort_by_key(key);
    counted.sort_by_key(key);

    let mut counts = Counts::new();
    for rule in rules::Rule::ALL.iter().filter(|r| !r.is_forbidden()) {
        counts.insert(rule.name().to_string(), Default::default());
    }
    for f in &counted {
        *counts
            .entry(f.rule.name().to_string())
            .or_default()
            .entry(f.file.clone())
            .or_insert(0) += 1;
    }
    Ok(Report {
        findings,
        counted,
        counts,
        hot: analysis.summary,
        unsafe_audit,
        files_checked: files.len(),
    })
}

/// Parsed command line for [`run`].
#[derive(Debug, Default)]
pub struct Options {
    /// Workspace root; discovered from the current directory when absent.
    pub root: Option<PathBuf>,
    /// Baseline path; `<root>/FABCHECK_BASELINE.json` when absent.
    pub baseline: Option<PathBuf>,
    /// Emit the machine-readable JSON report instead of diagnostics.
    pub json: bool,
    /// Rewrite the baseline at the observed counts.
    pub bless: bool,
    /// CI mode: identical checks, but says so in the summary line.
    pub ci: bool,
    /// Print one rule's contract (and an example claim) and exit.
    pub explain: Option<String>,
}

impl Options {
    /// Parses CLI arguments (everything after the program name).
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown or incomplete flags.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--json" => opts.json = true,
                "--bless" => opts.bless = true,
                "--ci" => opts.ci = true,
                "--root" => {
                    opts.root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?));
                }
                "--baseline" => {
                    opts.baseline =
                        Some(PathBuf::from(it.next().ok_or("--baseline needs a path")?));
                }
                "--explain" => {
                    opts.explain = Some(it.next().ok_or("--explain needs a rule name")?);
                }
                "--help" | "-h" => {
                    return Err(USAGE.to_string());
                }
                other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
            }
        }
        Ok(opts)
    }
}

/// CLI usage text.
pub const USAGE: &str = "\
fabcheck — workspace lint for the determinism & panic-safety contracts

USAGE: cargo run -p fabcheck -- [FLAGS]

FLAGS:
  --ci              CI mode (same checks; exit 1 on any forbidden hit or
                    ratchet regression)
  --json            print the machine-readable JSON report
  --bless           rewrite FABCHECK_BASELINE.json at the current counts
                    (use after driving a counted rule down; never silences
                    forbidden rules)
  --explain RULE    print the rule's contract and an example claim, then
                    exit (no scan)
  --root DIR        workspace root (default: discovered from the cwd)
  --baseline PATH   baseline file (default: <root>/FABCHECK_BASELINE.json)";

/// Walks upward from `start` to the first directory containing both
/// `Cargo.toml` and `crates/` — the workspace root, regardless of which
/// subdirectory the tool is invoked from.
pub fn discover_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Runs the whole pass with CLI semantics, writing to `stdout`/`stderr`.
/// Returns the process exit code: `0` clean, `1` findings or regressions,
/// `2` usage or I/O errors.
pub fn run(opts: &Options) -> i32 {
    if let Some(rule) = &opts.explain {
        return match rules::explain(rule) {
            Some(text) => {
                println!("{text}");
                0
            }
            None => {
                let known: Vec<&str> = rules::Rule::ALL.iter().map(|r| r.name()).collect();
                eprintln!(
                    "fabcheck: unknown rule {rule:?}; known rules:\n  {}",
                    known.join("\n  ")
                );
                2
            }
        };
    }
    let root = match &opts.root {
        Some(r) => r.clone(),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match discover_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "fabcheck: no workspace root (Cargo.toml + crates/) above {}",
                        cwd.display()
                    );
                    return 2;
                }
            }
        }
    };
    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| root.join(BASELINE_FILE));

    let report = match check_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fabcheck: scan failed: {e}");
            return 2;
        }
    };
    let baseline = match ratchet::load(&baseline_path) {
        Ok(b) => b,
        // `--bless` is how an unreadable (e.g. old-schema) baseline gets
        // replaced, and it never compares against the old counts.
        Err(_) if opts.bless => Counts::new(),
        Err(e) => {
            eprintln!("fabcheck: {e}");
            return 2;
        }
    };
    let (regressions, improved) = ratchet::compare(&baseline, &report.counts);

    if opts.bless {
        if let Err(e) = ratchet::bless(&baseline_path, &report.counts) {
            eprintln!("fabcheck: {e}");
            return 2;
        }
    }
    let regressions: Vec<Regression> = if opts.bless { Vec::new() } else { regressions };

    if opts.json {
        print!(
            "{}",
            diag::render_json(
                &report.findings,
                &report.counts,
                &regressions,
                &report.hot,
                &report.unsafe_audit,
                report.files_checked
            )
        );
    } else {
        for f in &report.findings {
            print!("{}", diag::render_finding(f));
        }
        for r in &regressions {
            print!("{}", diag::render_regression(r));
        }
        let counted_total: u64 = report
            .counts
            .values()
            .flat_map(|files| files.values())
            .sum();
        let mode = if opts.ci { " (ci)" } else { "" };
        println!(
            "fabcheck{mode}: {} files, {} forbidden finding(s), {} regression(s), \
             counted debt: {counted_total}",
            report.files_checked,
            report.findings.len(),
            regressions.len(),
        );
        if opts.bless {
            println!("fabcheck: baseline blessed at {}", baseline_path.display());
        } else if improved && regressions.is_empty() {
            println!(
                "fabcheck: counted debt shrank below the baseline — run \
                 `cargo run -p fabcheck -- --bless` to lock it in"
            );
        }
    }

    if report.findings.is_empty() && regressions.is_empty() {
        0
    } else {
        1
    }
}
