//! The fabcheck rule set: project-specific invariants that protect the
//! bitwise-determinism and panic-safety contracts (DESIGN.md § Static
//! invariants).
//!
//! Rules come in two strengths:
//!
//! * **forbidden** — any hit fails CI (`nondeterministic-collection`,
//!   `entropy-rng`, `wallclock-in-kernel`, `env-var-outside-config`,
//!   `unsafe-without-safety-comment`, `thread-spawn-outside-par`,
//!   `raw-pointer-outside-par`, `alloc-on-hot-path`, `io-on-hot-path`,
//!   `seed-stream-registry`, `unordered-float-reduction`,
//!   `unclaimed-raw-span`, `target-feature-call-unguarded`,
//!   `backend-parity`);
//! * **counted** — hits are tallied per `rule × file` and ratcheted
//!   against `FABCHECK_BASELINE.json`: counts may shrink, never grow
//!   (`unwrap-in-lib`, `todo-unimplemented`, `panic-on-hot-path`).
//!
//! Two rules check a claim comment twice over. `unsafe-without-safety-comment`
//! requires every `unsafe` to claim its own SAFETY comment, and in the
//! non-test code of [`BLESSED_SIMD_DIR`] and [`BLESSED_THREAD_FILE`] that
//! comment must also parse under the claim grammar and match its site.
//! `unclaimed-raw-span` requires every `from_raw_parts_mut` to claim its
//! own `fabcheck::claim(disjoint)` comment naming one of the call's
//! arguments, and the span's offset must be a recognized partition.
//!
//! Matching is whole-identifier over the [`crate::lexer`] token stream, so
//! comments, strings, `Instantiates`, and `unwrap_or` never false-positive.
//! The hot-path rules are interprocedural and live in [`crate::graph`]
//! (reachability from the kernel entry set); `seed-stream-registry` is a
//! workspace-level pass ([`check_seed_streams`]) because the registry and
//! its call sites live in different files. This module hosts their
//! [`Rule`] identities plus every single-file rule.

use crate::lexer::{matching_close, Comment, Token};
use crate::parser::{target_feature_fns, TargetFeatureFn};
use crate::walk::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose float-accumulation order feeds the reproducibility
/// contract: map/set iteration order, entropy, and wall-clock reads leak
/// straight into results or JSON output here.
pub const NUMERIC_CRATES: &[&str] = &["tensor", "nn", "aggregation", "attacks", "data", "fl"];

/// Files allowed to read process environment variables: the
/// `FABFLIP_THREADS` thread budget (`tensor::par`, the one thread
/// runtime) plus the CPU-backend dispatcher, which reads
/// `FABFLIP_BACKEND` once at startup. Everything else must take
/// configuration as arguments so a run is a pure function of its config
/// + seed.
pub const BLESSED_ENV_FILES: &[&str] = &[
    "crates/tensor/src/backend/mod.rs",
    "crates/tensor/src/par.rs",
];

/// The directory holding the runtime-dispatched SIMD microkernels. Raw
/// pointers are allowed here alongside the worker pool: intrinsic
/// loads/stores are inherently pointer-based, and every unsafe block in
/// these files carries its own `// SAFETY:` comment claiming the
/// lane-width/bounds invariant (DESIGN.md §4f). Intrinsics or raw
/// pointers anywhere else in product code still fail `--ci`.
pub const BLESSED_SIMD_DIR: &str = "crates/tensor/src/backend/";

/// The single file allowed to create threads: the persistent worker pool.
/// All other crate code must go through `fabflip_tensor::par` so thread
/// count, block shape, and merge order stay under the §4b determinism
/// contract (and the pool's parked workers are actually reused).
pub const BLESSED_THREAD_FILE: &str = "crates/tensor/src/par.rs";

/// The crash-tolerant serving shell (DESIGN.md §4g). Its threads
/// (acceptors, connection handlers, the round engine, chaos-proxy pumps)
/// do blocking socket I/O, never numeric work — the §4b determinism
/// contract is carried by the pure round engine they call into, not by
/// thread count or interleaving. The same blessing covers
/// `io-on-hot-path` in the cross-crate graph: I/O is this shell's whole
/// job. Thread creation and hot-path I/O stay forbidden everywhere else.
pub const BLESSED_SERVE_DIR: &str = "crates/serve/";

/// The cli's kill-and-restart acceptance test: it must run a server
/// subprocess, a chaos proxy and a client fleet concurrently, so it
/// spawns its own driver threads.
pub const BLESSED_SERVE_TEST: &str = "crates/cli/tests/serve_chaos.rs";

/// How many lines above an `unsafe` token a `// SAFETY:` comment may end
/// and still annotate it (allows attributes and a signature line between).
const SAFETY_WINDOW_LINES: u32 = 5;

/// The target features the workspace's kernels may enable. A
/// `SAFETY(feature: …)` claim naming anything else is unparseable —
/// growing this list is the deliberate act that admits a new ISA.
pub const KNOWN_TARGET_FEATURES: &[&str] = &["avx2", "fma", "avx512f"];

/// A fabcheck rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet` in a numeric crate.
    NondeterministicCollection,
    /// `thread_rng`/`from_entropy`/`OsRng`/`getrandom` anywhere.
    EntropyRng,
    /// `Instant`/`SystemTime` in a numeric crate.
    WallclockInKernel,
    /// `env::var` outside the blessed thread-budget modules.
    EnvVarOutsideConfig,
    /// `unsafe` without a `// SAFETY:` comment just above (or beside) it,
    /// or, in the non-test code of the blessed unsafe regions
    /// ([`BLESSED_SIMD_DIR`], [`BLESSED_THREAD_FILE`]), with one that is
    /// free text, does not parse under the claim grammar
    /// (`SAFETY(bound: <expr>)` / `SAFETY(feature: <isa,…>)` /
    /// `SAFETY(sync: <type>)`), or claims the wrong kind for its site
    /// (e.g. a feature claim on a block doing raw-pointer arithmetic).
    UnsafeWithoutSafetyComment,
    /// `thread::spawn`/`thread::scope`/`thread::Builder` in `crates/`
    /// outside the worker pool (`crates/tensor/src/par.rs`).
    ThreadSpawnOutsidePar,
    /// Raw-pointer types (`*const T`/`*mut T`) in `crates/` product code
    /// outside the worker pool and the SIMD backend microkernels
    /// ([`BLESSED_SIMD_DIR`]): lifetime-erased pointers are their
    /// monopoly, everything else uses slices.
    RawPointerOutsidePar,
    /// A heap allocation reachable from the kernel entry set
    /// ([`crate::graph::HOT_ENTRIES`]). Forbidden: the steady-state
    /// per-round loop must not touch the allocator.
    AllocOnHotPath,
    /// A panic site (indexing, `assert!`, `unwrap`/`expect`, panic
    /// macros) reachable from the kernel entry set (counted — indexing
    /// is pervasive in kernels, so this ratchets shrink-only).
    PanicOnHotPath,
    /// I/O or blocking synchronization (`std::{fs,net,io}` paths,
    /// `println!`/`eprintln!`, `Mutex`/`Condvar` acquisition) reachable
    /// from the kernel entry set, outside the worker pool. Forbidden:
    /// the deterministic core stays pure so a wire shell can wrap it.
    IoOnHotPath,
    /// A `sub_seed(seed, STREAM, …)` call whose stream argument is a
    /// numeric literal or a name not declared in the `fl::faults::streams`
    /// registry — or two registry constants sharing one id. Forbidden:
    /// a stream collision silently correlates "independent" randomness.
    SeedStreamRegistry,
    /// An order-sensitive float reduction (`.sum::<f32>()`, `.fold(…)`
    /// seeded with a float literal, a `partial_cmp` sort over a derived
    /// float key without a value tie-break) in a numeric crate, outside
    /// kernels blessed with
    /// `// fabcheck::allow(unordered_float_reduction): why`.
    UnorderedFloatReduction,
    /// A `from_raw_parts_mut` span not covered by a
    /// `// fabcheck::claim(disjoint): …` annotation naming one of the
    /// call's arguments — the partition argument whose disjointness
    /// makes the aliasing sound — or whose offset is not a recognized
    /// non-overlapping pattern (a contiguous `i * chunk` stride,
    /// optionally `.min(len)`-clamped).
    UnclaimedRawSpan,
    /// `.unwrap()` in non-test library code (counted).
    UnwrapInLib,
    /// `todo!`/`unimplemented!` in non-test code (counted).
    TodoUnimplemented,
    /// A call edge into an `#[target_feature(enable = …)]` fn from a
    /// context that does not prove the ISA available: the caller neither
    /// declares a superset of the callee's features nor is a dispatcher
    /// method in [`BLESSED_SIMD_DIR`] (whose instances are only handed
    /// out after `is_x86_feature_detected!` succeeds). Evaluated on the
    /// cross-crate call graph by [`crate::graph`].
    TargetFeatureCallUnguarded,
    /// A `CpuBackend` trait method missing from one of the backend impls
    /// or absent from the cross-backend determinism coverage
    /// (`backend_goldens.rs` / `proptests.rs`). Evaluated workspace-wide
    /// by [`check_backend_parity`].
    BackendParity,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: [Rule; 17] = [
        Rule::NondeterministicCollection,
        Rule::EntropyRng,
        Rule::WallclockInKernel,
        Rule::EnvVarOutsideConfig,
        Rule::UnsafeWithoutSafetyComment,
        Rule::ThreadSpawnOutsidePar,
        Rule::RawPointerOutsidePar,
        Rule::AllocOnHotPath,
        Rule::PanicOnHotPath,
        Rule::IoOnHotPath,
        Rule::SeedStreamRegistry,
        Rule::UnorderedFloatReduction,
        Rule::UnclaimedRawSpan,
        Rule::UnwrapInLib,
        Rule::TodoUnimplemented,
        Rule::TargetFeatureCallUnguarded,
        Rule::BackendParity,
    ];

    /// The kebab-case rule id used in diagnostics, JSON, and the baseline.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NondeterministicCollection => "nondeterministic-collection",
            Rule::EntropyRng => "entropy-rng",
            Rule::WallclockInKernel => "wallclock-in-kernel",
            Rule::EnvVarOutsideConfig => "env-var-outside-config",
            Rule::UnsafeWithoutSafetyComment => "unsafe-without-safety-comment",
            Rule::ThreadSpawnOutsidePar => "thread-spawn-outside-par",
            Rule::RawPointerOutsidePar => "raw-pointer-outside-par",
            Rule::AllocOnHotPath => "alloc-on-hot-path",
            Rule::PanicOnHotPath => "panic-on-hot-path",
            Rule::IoOnHotPath => "io-on-hot-path",
            Rule::SeedStreamRegistry => "seed-stream-registry",
            Rule::UnorderedFloatReduction => "unordered-float-reduction",
            Rule::UnclaimedRawSpan => "unclaimed-raw-span",
            Rule::UnwrapInLib => "unwrap-in-lib",
            Rule::TodoUnimplemented => "todo-unimplemented",
            Rule::TargetFeatureCallUnguarded => "target-feature-call-unguarded",
            Rule::BackendParity => "backend-parity",
        }
    }

    /// Forbidden rules fail CI on any hit; counted rules only ratchet.
    pub fn is_forbidden(self) -> bool {
        !matches!(
            self,
            Rule::UnwrapInLib | Rule::TodoUnimplemented | Rule::PanicOnHotPath
        )
    }
}

/// One rule hit at a source position.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Root-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation with the remedy.
    pub message: String,
}

/// Where a file sits in the workspace — decides which rules apply.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Root-relative path with `/` separators (diagnostic + baseline key).
    pub rel: String,
    /// `true` under `crates/`, `false` under `compat/`.
    pub in_crates: bool,
    /// The crate directory name (`tensor`, `fl`, …).
    pub crate_name: String,
    /// Under `tests/` or `benches/`, or a `#[cfg(test)] mod x;` target
    /// file: all-test code, skipped by non-test-scoped rules.
    pub is_test_file: bool,
    /// Under `examples/`.
    pub is_example: bool,
    /// `src/main.rs` or under `src/bin/`: binary entry points may panic
    /// freely, so counted panic-debt rules skip them.
    pub is_bin: bool,
}

impl FileClass {
    fn is_numeric(&self) -> bool {
        self.in_crates && NUMERIC_CRATES.contains(&self.crate_name.as_str())
    }
}

/// Whether a rule looks at this file, and at which part of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// Rule does not apply to this file.
    Off,
    /// Rule applies outside `#[cfg(test)]` item spans.
    NonTest,
    /// Rule applies to every token, tests included.
    All,
}

fn scope(rule: Rule, class: &FileClass) -> Scope {
    match rule {
        // Determinism of the numeric pipeline: product code only — tests
        // may legitimately use a HashMap to assert order-independence.
        Rule::NondeterministicCollection | Rule::WallclockInKernel => {
            if class.is_numeric() && !class.is_test_file {
                Scope::NonTest
            } else {
                Scope::Off
            }
        }
        // Entropy anywhere (tests included) breaks fixed-seed replay.
        Rule::EntropyRng => Scope::All,
        Rule::EnvVarOutsideConfig => {
            if BLESSED_ENV_FILES.contains(&class.rel.as_str()) {
                Scope::Off
            } else {
                Scope::All
            }
        }
        // Unsafe needs its invariant written down wherever it appears
        // (test files included, e.g. `alloc_guard.rs`'s `unsafe impl
        // GlobalAlloc`); [`parses_safety_claims`] narrows the claim
        // grammar to the blessed unsafe homes.
        Rule::UnsafeWithoutSafetyComment => Scope::All,
        // Thread creation is the pool's monopoly: ad-hoc spawns bypass the
        // budget cap and the fixed-block determinism argument. Tests too —
        // a scoped spawn in a test still races the pool's parked workers.
        // The compat shims are exempt (vendored stand-ins for external
        // crates, outside the product code), as are the serving shell and
        // its kill/restart harness, whose threads block on sockets rather
        // than compute.
        Rule::ThreadSpawnOutsidePar => {
            if class.in_crates
                && class.rel != BLESSED_THREAD_FILE
                && !class.rel.starts_with(BLESSED_SERVE_DIR)
                && class.rel != BLESSED_SERVE_TEST
            {
                Scope::All
            } else {
                Scope::Off
            }
        }
        // Raw-pointer types are the pool's monopoly in product code,
        // shared only with the SIMD backend microkernels (whose unsafe
        // blocks are audited per-site by `unsafe-without-safety-comment`).
        // Test code (incl. the alloc_guard allocator harness) may use
        // them — tests never ship in the hot path.
        Rule::RawPointerOutsidePar => {
            if class.in_crates
                && class.rel != BLESSED_THREAD_FILE
                && !class.rel.starts_with(BLESSED_SIMD_DIR)
                && !class.is_test_file
            {
                Scope::NonTest
            } else {
                Scope::Off
            }
        }
        // Interprocedural rules: evaluated by `crate::graph`, never by
        // the single-file scan. `seed-stream-registry` is likewise
        // cross-file, evaluated by [`check_seed_streams`].
        Rule::AllocOnHotPath | Rule::PanicOnHotPath | Rule::IoOnHotPath => Scope::Off,
        Rule::SeedStreamRegistry => Scope::Off,
        // Float-reduction order feeds the §4b bitwise contract exactly
        // where HashMap order does: the numeric crates' product code.
        Rule::UnorderedFloatReduction => {
            if class.is_numeric() && !class.is_test_file {
                Scope::NonTest
            } else {
                Scope::Off
            }
        }
        // Every raw span in product code must claim its disjointness
        // argument and carve a recognized partition; raw-pointer
        // confinement already limits this to the worker pool, so in
        // practice the rule audits `par.rs`.
        Rule::UnclaimedRawSpan => {
            if class.in_crates && !class.is_test_file {
                Scope::NonTest
            } else {
                Scope::Off
            }
        }
        Rule::UnwrapInLib => {
            if class.in_crates && !class.is_test_file && !class.is_bin && !class.is_example {
                Scope::NonTest
            } else {
                Scope::Off
            }
        }
        Rule::TodoUnimplemented => {
            if class.in_crates && !class.is_test_file {
                Scope::NonTest
            } else {
                Scope::Off
            }
        }
        // Evaluated by `crate::graph` over the whole cross-crate call
        // graph (a guard and its guarded call live in different files).
        Rule::TargetFeatureCallUnguarded => Scope::Off,
        // Workspace-level pass: [`check_backend_parity`] (the trait, the
        // impls, and the coverage files are different files).
        Rule::BackendParity => Scope::Off,
    }
}

/// Whether `unsafe` sites in this file must carry a claim that parses
/// under the SAFETY claim grammar (non-test code of the blessed unsafe
/// homes only; elsewhere a free-text `// SAFETY:` passes).
fn parses_safety_claims(class: &FileClass) -> bool {
    (class.rel.starts_with(BLESSED_SIMD_DIR) || class.rel == BLESSED_THREAD_FILE)
        && !class.is_test_file
}

/// Returns the names of modules declared `#[cfg(test)] mod name;`
/// (out-of-line test modules): the walker marks `name.rs` / `name/mod.rs`
/// next to the declaring file as all-test files.
pub fn test_only_mods(tokens: &[Token]) -> Vec<String> {
    let mut out = Vec::new();
    for (_, end) in cfg_test_attr_ranges(tokens) {
        if let Some(ItemShape::OutOfLineMod(name)) = item_after_attrs(tokens, end) {
            out.push(name);
        }
    }
    out
}

/// Half-open token-index ranges covered by `#[cfg(test)]`-gated items
/// (inline `mod tests { … }` blocks, gated fns, …). Shared with the
/// call-graph builder so test fns stay out of the hot graph.
pub(crate) fn test_spans(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for (_, attr_end) in cfg_test_attr_ranges(tokens) {
        if let Some(ItemShape::Braced(open, close)) = item_after_attrs(tokens, attr_end) {
            spans.push((open, close + 1));
        }
    }
    spans
}

/// Finds every `#[cfg(test)]`-style attribute (any `cfg(...)` whose
/// argument list mentions the `test` identifier, so `cfg(all(test, …))`
/// also counts). Returns (start index of `#`, index one past `]`).
fn cfg_test_attr_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 3 < tokens.len() {
        if tokens[i].text == "#"
            && !tokens[i].is_ident
            && tokens[i + 1].text == "["
            && tokens[i + 2].is_ident
            && tokens[i + 2].text == "cfg"
            && tokens[i + 3].text == "("
        {
            // Balanced parens from i+3; look for the ident `test` inside.
            let j = matching_close(tokens, i + 3).unwrap_or(tokens.len());
            let saw_test = tokens[i + 3..j]
                .iter()
                .any(|t| t.is_ident && t.text == "test");
            // Expect the closing `]` right after the paren group.
            if saw_test && j + 1 < tokens.len() && tokens[j + 1].text == "]" {
                out.push((i, j + 2));
                i = j + 2;
                continue;
            }
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
    out
}

/// The shape of the item following an attribute: either a braced item
/// (span of `{`..`}` token indices) or an out-of-line `mod name;`.
enum ItemShape {
    Braced(usize, usize),
    OutOfLineMod(String),
}

/// Starting at `from` (just past an attribute's `]`), skips any further
/// attributes, then finds the first top-level `;` or `{` and classifies
/// the item.
fn item_after_attrs(tokens: &[Token], mut from: usize) -> Option<ItemShape> {
    // Skip subsequent attributes: `#[ … ]`.
    while from + 1 < tokens.len() && tokens[from].text == "#" && tokens[from + 1].text == "[" {
        from = matching_close(tokens, from + 1)? + 1;
    }
    let header_start = from;
    let mut paren = 0i64;
    let mut bracket = 0i64;
    let mut j = from;
    while j < tokens.len() {
        let t = &tokens[j];
        if !t.is_ident {
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                ";" if paren == 0 && bracket == 0 => {
                    // `mod name;` → out-of-line module.
                    let names: Vec<&Token> = tokens[header_start..j]
                        .iter()
                        .filter(|t| t.is_ident)
                        .collect();
                    if names.len() >= 2 && names[names.len() - 2].text == "mod" {
                        return Some(ItemShape::OutOfLineMod(names[names.len() - 1].text.clone()));
                    }
                    return None;
                }
                "{" if paren == 0 && bracket == 0 => {
                    let close = matching_close(tokens, j).unwrap_or(tokens.len() - 1);
                    return Some(ItemShape::Braced(j, close));
                }
                _ => {}
            }
        }
        j += 1;
    }
    None
}

/// Lines covered by `// fabcheck::allow(<marker>): why` comments: a
/// marker comment covers its own last line and the line below it, so
/// both a comment-above and a trailing same-line marker work. A
/// **full-line** comment starting on an already-covered line continues
/// the coverage (so a multi-line `//` allow block reaches the first code
/// line after it) — but a *trailing* comment on a covered code line does
/// not re-extend coverage downward, and a blank line always ends the
/// chain. Coverage never tunnels past code or blank lines to a later
/// statement.
pub(crate) fn allow_lines(comments: &[Comment], tokens: &[Token], marker: &str) -> BTreeSet<u32> {
    let needle = format!("fabcheck::allow({marker})");
    let code_lines: BTreeSet<u32> = tokens.iter().map(|t| t.line).collect();
    let mut out = BTreeSet::new();
    for c in comments {
        let continues = out.contains(&c.line_start) && !code_lines.contains(&c.line_start);
        if c.text.contains(&needle) || continues {
            out.insert(c.line_end);
            out.insert(c.line_end + 1);
        }
    }
    out
}

/// Whether `text` mentions `ident` as a whole word (identifier-boundary
/// match, so a claim naming `lo` does not satisfy an argument `slot`).
fn mentions_ident(text: &str, ident: &str) -> bool {
    let is_word = |c: char| c == '_' || c.is_alphanumeric();
    let mut from = 0;
    while let Some(pos) = text[from..].find(ident) {
        let start = from + pos;
        let end = start + ident.len();
        let before_ok = text[..start]
            .chars()
            .next_back()
            .is_none_or(|c| !is_word(c));
        let after_ok = text[end..].chars().next().is_none_or(|c| !is_word(c));
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Markers of a SAFETY comment: free text or the claim grammar.
const SAFETY_NEEDLES: &[&str] = &["SAFETY:", "SAFETY("];

/// Marker of a disjointness claim on a raw span.
const DISJOINT_NEEDLES: &[&str] = &["fabcheck::claim(disjoint)"];

/// A comment containing one of `needles` annotates a site when it ends
/// on the same line or at most [`SAFETY_WINDOW_LINES`] lines above it,
/// and each comment annotates exactly **one** site: this claims the
/// nearest eligible unclaimed comment (`claimed` is indexed parallel to
/// `comments`), so two unsafe blocks (or two raw spans) can never share
/// one comment. Returns the claimed comment's index so the caller can
/// inspect its content.
fn claim_comment(
    comments: &[Comment],
    claimed: &mut [bool],
    site_line: u32,
    needles: &[&str],
) -> Option<usize> {
    let best = comments
        .iter()
        .enumerate()
        .filter(|(i, c)| {
            !claimed[*i]
                && needles.iter().any(|n| c.text.contains(n))
                && c.line_end <= site_line
                && c.line_end + SAFETY_WINDOW_LINES >= site_line
        })
        .max_by_key(|(_, c)| c.line_end)
        .map(|(i, _)| i);
    if let Some(i) = best {
        claimed[i] = true;
    }
    best
}

/// A machine-parsed SAFETY claim: what kind of invariant the comment
/// asserts for its `unsafe` region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SafetyClaim {
    /// `SAFETY(bound: <len-expr>)` — memory validity / in-bounds.
    Bound(String),
    /// `SAFETY(feature: avx2,fma)` — ISA availability was detected
    /// before this code can execute.
    Feature(Vec<String>),
    /// `SAFETY(sync: <type>)` — a Send/Sync soundness argument for an
    /// `unsafe impl`.
    Sync(String),
}

/// Parses the first grammar claim in a comment. `None` means the comment
/// contains no `SAFETY(` opener at all (legacy free text); `Some(Err)`
/// means an opener is present but malformed — the error string names
/// what is wrong.
pub fn parse_safety_claim(text: &str) -> Option<Result<SafetyClaim, String>> {
    let start = text.find("SAFETY(")?;
    let inner_from = start + "SAFETY(".len();
    // The argument may itself contain balanced parens (`a.len()`).
    let mut depth = 1i64;
    let mut end = None;
    for (off, c) in text[inner_from..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    end = Some(inner_from + off);
                    break;
                }
            }
            _ => {}
        }
    }
    let Some(end) = end else {
        return Some(Err("unclosed `SAFETY(` claim".to_string()));
    };
    let inner = &text[inner_from..end];
    let Some((kind, arg)) = inner.split_once(':') else {
        return Some(Err(format!(
            "`SAFETY({inner})` is missing its `kind: argument` separator"
        )));
    };
    let arg = arg.trim();
    if arg.is_empty() {
        return Some(Err(format!(
            "`SAFETY({}: )` has an empty argument",
            kind.trim()
        )));
    }
    Some(match kind.trim() {
        "bound" => Ok(SafetyClaim::Bound(arg.to_string())),
        "feature" => {
            let feats: Vec<String> = arg.split(',').map(|f| f.trim().to_string()).collect();
            match feats
                .iter()
                .find(|f| !KNOWN_TARGET_FEATURES.contains(&f.as_str()))
            {
                Some(bad) => Err(format!(
                    "unknown target feature `{bad}` (known: {})",
                    KNOWN_TARGET_FEATURES.join(", ")
                )),
                None => Ok(SafetyClaim::Feature(feats)),
            }
        }
        "sync" => Ok(SafetyClaim::Sync(arg.to_string())),
        other => Err(format!(
            "unknown claim kind `{}` (expected `bound`, `feature`, or `sync`)",
            other.trim()
        )),
    })
}

/// The claim kind a given `unsafe` site must carry, derived from its
/// syntactic context.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ExpectedClaim {
    /// Inside a `#[target_feature]` kernel body, or the block performs
    /// raw-pointer arithmetic — must claim `bound`.
    Bound,
    /// `unsafe impl Send/Sync` — must claim `sync`.
    Sync,
    /// The block calls same-file `#[target_feature]` fns — must claim
    /// `feature` with at least these features.
    Feature(Vec<String>),
    /// No structural signal: any well-formed claim kind is accepted.
    Any,
}

/// Classifies the `unsafe` token at `i`: which claim kind its site
/// structurally requires. Precedence: target-feature kernel interior,
/// `unsafe impl`, pointer arithmetic in the block, same-file
/// target-feature callees, anything else.
fn expected_claim(toks: &[Token], i: usize, tfs: &[TargetFeatureFn]) -> ExpectedClaim {
    if tfs.iter().any(|f| f.body.0 < i && i < f.body.1) {
        return ExpectedClaim::Bound;
    }
    if toks
        .get(i + 1)
        .is_some_and(|n| n.is_ident && n.text == "impl")
    {
        return ExpectedClaim::Sync;
    }
    // The region: the `{` right after `unsafe` (an unsafe block), or the
    // body brace of an `unsafe fn` header.
    let mut open = i + 1;
    while open < toks.len() && (toks[open].is_ident || toks[open].text != "{") {
        open += 1;
    }
    if open >= toks.len() || open > i + 24 {
        return ExpectedClaim::Any;
    }
    let close = matching_close(toks, open).unwrap_or(toks.len() - 1);
    let mut features: BTreeSet<String> = BTreeSet::new();
    for j in open + 1..close {
        if !toks[j].is_ident {
            continue;
        }
        let after_dot = j >= 1 && !toks[j - 1].is_ident && toks[j - 1].text == ".";
        if toks[j].text == "from_raw_parts_mut"
            || (after_dot && matches!(toks[j].text.as_str(), "add" | "wrapping_add" | "offset"))
        {
            return ExpectedClaim::Bound;
        }
        if !after_dot
            && toks
                .get(j + 1)
                .is_some_and(|n| !n.is_ident && (n.text == "(" || n.text == ":"))
        {
            if let Some(tf) = tfs.iter().find(|f| f.name == toks[j].text) {
                features.extend(tf.features.iter().cloned());
            }
        }
    }
    if features.is_empty() {
        ExpectedClaim::Any
    } else {
        ExpectedClaim::Feature(features.into_iter().collect())
    }
}

/// Why the claimed SAFETY comment `text` fails the claim grammar at a
/// site that requires `expected`, or `None` when it passes.
fn claim_grammar_error(text: &str, expected: &ExpectedClaim) -> Option<String> {
    let claim = match parse_safety_claim(text) {
        None => {
            return Some(
                "free-text SAFETY comment in a blessed unsafe region; upgrade it to \
                 the machine-checked claim grammar: `// SAFETY(bound: <len-expr>)`, \
                 `// SAFETY(feature: <isa,…>)`, or `// SAFETY(sync: <type>)`"
                    .to_string(),
            )
        }
        Some(Err(why)) => return Some(format!("unparseable SAFETY claim: {why}")),
        Some(Ok(claim)) => claim,
    };
    let wrong_kind = match (expected, &claim) {
        (ExpectedClaim::Any, _)
        | (ExpectedClaim::Bound, SafetyClaim::Bound(_))
        | (ExpectedClaim::Sync, SafetyClaim::Sync(_)) => return None,
        (ExpectedClaim::Feature(req), SafetyClaim::Feature(got)) => {
            let missing: Vec<String> = req
                .iter()
                .filter(|f| !got.contains(f))
                .map(|f| format!("`{f}`"))
                .collect();
            return (!missing.is_empty()).then(|| {
                format!(
                    "the `SAFETY(feature: …)` claim omits {} required by the \
                     `#[target_feature]` fns this block calls; claim every feature \
                     the callees enable",
                    missing.join(", ")
                )
            });
        }
        (ExpectedClaim::Bound, _) => {
            "this unsafe region does raw-pointer arithmetic (or sits inside a \
             `#[target_feature]` kernel) — its claim must be \
             `SAFETY(bound: <len-expr>)` stating the in-bounds invariant"
        }
        (ExpectedClaim::Sync, _) => {
            "an `unsafe impl` must claim `SAFETY(sync: <type>)` stating why the \
             type is sound to share across threads"
        }
        (ExpectedClaim::Feature(_), _) => {
            "this block calls `#[target_feature]` fns — its claim must be \
             `SAFETY(feature: <isa,…>)` naming the detected features"
        }
    };
    Some(wrong_kind.to_string())
}

/// Whether a token can be an operand of a recognized partition product:
/// an identifier or a numeric literal.
fn is_operand(t: &Token) -> bool {
    t.is_ident || t.text.starts_with(|c: char| c.is_ascii_digit())
}

/// Whether a token slice is a recognized disjoint-partition expression:
/// `a * b`, or the clamped form `(a * b).min(c)`. Contiguous
/// `index * chunk` strides are the one partition shape whose spans are
/// provably non-overlapping for distinct indices.
fn product_expr(toks: &[Token]) -> bool {
    let is_p = |k: usize, s: &str| {
        toks.get(k)
            .is_some_and(|t: &Token| !t.is_ident && t.text == s)
    };
    if toks.len() == 3 {
        return is_operand(&toks[0]) && is_p(1, "*") && is_operand(&toks[2]);
    }
    // `( a * b ) . min ( c )` — 10 tokens exactly.
    toks.len() == 10
        && is_p(0, "(")
        && is_operand(&toks[1])
        && is_p(2, "*")
        && is_operand(&toks[3])
        && is_p(4, ")")
        && is_p(5, ".")
        && toks[6].is_ident
        && toks[6].text == "min"
        && is_p(7, "(")
        && is_operand(&toks[8])
        && is_p(9, ")")
}

/// Token index of the statement-ending `;` at delimiter depth 0,
/// starting from `from` (or the stream end when none).
fn stmt_end(toks: &[Token], from: usize) -> usize {
    let mut depth = 0i64;
    let mut j = from;
    while j < toks.len() {
        if !toks[j].is_ident {
            match toks[j].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth == 0 => return j,
                _ => {}
            }
        }
        j += 1;
    }
    j
}

/// Whether `off` is bound in this file by a `let` whose right-hand side
/// is a recognized partition product — either a plain
/// `let off = a * b;` (optionally `.min(…)`-clamped) or a tuple
/// `let (x, y) = (e1, e2);` with position-matched elements.
fn binding_is_block_product(toks: &[Token], off: &str) -> bool {
    let is_p = |k: usize, s: &str| {
        toks.get(k)
            .is_some_and(|t: &Token| !t.is_ident && t.text == s)
    };
    for (j, t) in toks.iter().enumerate() {
        if !(t.is_ident && t.text == "let") {
            continue;
        }
        // Optional `mut` between `let` and the pattern.
        let p = if toks
            .get(j + 1)
            .is_some_and(|n| n.is_ident && n.text == "mut")
        {
            j + 2
        } else {
            j + 1
        };
        if toks.get(p).is_some_and(|n| n.is_ident && n.text == off) && is_p(p + 1, "=") {
            return product_expr(&toks[p + 2..stmt_end(toks, p + 2)]);
        }
        if is_p(p, "(") {
            let close = matching_close(toks, p).unwrap_or(toks.len() - 1);
            let elems = arg_ranges(toks, p);
            let Some(pos) = elems
                .iter()
                .position(|&(a, b)| b - a == 1 && toks[a].is_ident && toks[a].text == off)
            else {
                continue;
            };
            if is_p(close + 1, "=") && is_p(close + 2, "(") {
                if let Some(&(ra, rb)) = arg_ranges(toks, close + 2).get(pos) {
                    return product_expr(&toks[ra..rb]);
                }
            }
            return false;
        }
    }
    false
}

/// Whether the `from_raw_parts_mut` call at token index `i` carves its
/// span with recognized disjoint-partition arithmetic: the pointer
/// argument is either a bare base (zero offset) or
/// `base…​.add/wrapping_add(off)` where `off` is bound to a block
/// product ([`binding_is_block_product`]).
fn span_partition_recognized(toks: &[Token], i: usize) -> bool {
    let Some(&(a, b)) = arg_ranges(toks, i + 1).first() else {
        return false;
    };
    if b - a == 1 && toks[a].is_ident {
        return true;
    }
    for j in a..b {
        if !(toks[j].is_ident
            && matches!(toks[j].text.as_str(), "add" | "wrapping_add" | "offset")
            && j >= 1
            && !toks[j - 1].is_ident
            && toks[j - 1].text == "."
            && toks
                .get(j + 1)
                .is_some_and(|n| !n.is_ident && n.text == "("))
        {
            continue;
        }
        let close = matching_close(toks, j + 1).unwrap_or(toks.len() - 1);
        return close == j + 3
            && toks[j + 2].is_ident
            && binding_is_block_product(toks, &toks[j + 2].text);
    }
    false
}

/// Splits the arguments of a call whose `(` sits at `open` into
/// half-open token-index ranges, one per top-level comma-separated
/// argument.
fn arg_ranges(toks: &[Token], open: usize) -> Vec<(usize, usize)> {
    let close = matching_close(toks, open).unwrap_or(toks.len() - 1);
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut start = open + 1;
    for (j, tok) in toks.iter().enumerate().take(close).skip(open + 1) {
        if tok.is_ident {
            continue;
        }
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => {
                out.push((start, j));
                start = j + 1;
            }
            _ => {}
        }
    }
    if start < close {
        out.push((start, close));
    }
    out
}

/// A numeric-literal token that is a float: has a decimal point or an
/// `f32`/`f64` suffix (hex literals can end in `f32` by coincidence of
/// digits, so those are excluded).
fn is_float_literal(text: &str) -> bool {
    !text.starts_with("0x")
        && (text.contains('.') || text.ends_with("f32") || text.ends_with("f64"))
}

/// Runs every applicable rule over one file. `class.is_test_file` must
/// already account for out-of-line `#[cfg(test)] mod x;` targets (see
/// [`test_only_mods`]). Also returns the file's unsafe-site tally
/// `(claimed, total)`: how many `unsafe` tokens claimed a SAFETY comment,
/// so "claimed" means exactly what `unsafe-without-safety-comment`
/// accepts before its grammar check.
pub fn check_file(file: &SourceFile) -> (Vec<Finding>, (u64, u64)) {
    let class = &file.class;
    let enabled: Vec<(Rule, Scope)> = Rule::ALL
        .iter()
        .map(|&r| (r, scope(r, class)))
        .filter(|(_, s)| *s != Scope::Off)
        .collect();
    let on = |rule: Rule, idx: usize| {
        enabled
            .iter()
            .any(|&(r, s)| r == rule && (s == Scope::All || !file.in_test(idx)))
    };

    let mut findings = Vec::new();
    let mut push = |rule: Rule, t: &Token, message: String| {
        findings.push(Finding {
            rule,
            file: class.rel.clone(),
            line: t.line,
            col: t.col,
            message,
        });
    };
    let lexed = &file.lexed;
    let toks = &lexed.tokens;
    let mut claimed_safety = vec![false; lexed.comments.len()];
    let mut claimed_disjoint = vec![false; lexed.comments.len()];
    let mut unsafe_sites = (0u64, 0u64);
    let float_allow = allow_lines(&lexed.comments, toks, "unordered_float_reduction");
    let parses_claims = parses_safety_claims(class);
    let tfs = if parses_claims {
        target_feature_fns(toks, &file.src)
    } else {
        Vec::new()
    };
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident {
            // `*` immediately before `const`/`mut` is a raw-pointer type
            // (`*const T` / `*mut T`); a deref or multiplication is
            // always followed by a non-keyword operand.
            if t.text == "*"
                && on(Rule::RawPointerOutsidePar, i)
                && toks
                    .get(i + 1)
                    .is_some_and(|n| n.is_ident && matches!(n.text.as_str(), "const" | "mut"))
            {
                push(
                    Rule::RawPointerOutsidePar,
                    t,
                    format!(
                        "raw-pointer type `*{}` outside `crates/tensor/src/par.rs` \
                         and `crates/tensor/src/backend/`; product code passes \
                         slices — lifetime-erased pointers are the worker pool's \
                         and the SIMD microkernels' monopoly",
                        toks[i + 1].text
                    ),
                );
            }
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" if on(Rule::NondeterministicCollection, i) => push(
                Rule::NondeterministicCollection,
                t,
                format!(
                    "`{}` iteration order is nondeterministic; float accumulation and \
                     JSON emission in numeric crates must use `BTreeMap`/`BTreeSet` \
                     or sorted-key iteration",
                    t.text
                ),
            ),
            "thread_rng" | "from_entropy" | "OsRng" | "ThreadRng" | "getrandom"
                if on(Rule::EntropyRng, i) =>
            {
                push(
                    Rule::EntropyRng,
                    t,
                    format!(
                        "`{}` draws OS entropy, breaking fixed-seed replay; derive a \
                         `StdRng` from the run seed via a SplitMix sub-stream instead",
                        t.text
                    ),
                )
            }
            "Instant" | "SystemTime" if on(Rule::WallclockInKernel, i) => push(
                Rule::WallclockInKernel,
                t,
                format!(
                    "`{}` reads the wall clock inside a numeric crate; timing belongs \
                     in `crates/bench`, not in kernels whose output must be a pure \
                     function of inputs",
                    t.text
                ),
            ),
            "var"
                if on(Rule::EnvVarOutsideConfig, i)
                    && i >= 3
                    && toks[i - 1].text == ":"
                    && !toks[i - 1].is_ident
                    && toks[i - 2].text == ":"
                    && !toks[i - 2].is_ident
                    && toks[i - 3].text == "env"
                    && toks[i - 3].is_ident =>
            {
                push(
                    Rule::EnvVarOutsideConfig,
                    t,
                    "`env::var` outside the FABFLIP_THREADS budget modules; pass \
                     configuration through `FlConfig`/CLI flags so runs are pure \
                     functions of their config"
                        .to_string(),
                )
            }
            "unsafe" if on(Rule::UnsafeWithoutSafetyComment, i) => {
                unsafe_sites.1 += 1;
                let claim =
                    claim_comment(&lexed.comments, &mut claimed_safety, t.line, SAFETY_NEEDLES);
                let error = match claim {
                    None => Some(
                        "`unsafe` without its own `// SAFETY:` comment in the preceding \
                         lines (each unsafe block claims exactly one); document the \
                         invariant that makes this sound"
                            .to_string(),
                    ),
                    Some(k) => {
                        unsafe_sites.0 += 1;
                        if parses_claims && !file.in_test(i) {
                            let expected = expected_claim(toks, i, &tfs);
                            claim_grammar_error(&lexed.comments[k].text, &expected)
                        } else {
                            None
                        }
                    }
                };
                if let Some(message) = error {
                    push(Rule::UnsafeWithoutSafetyComment, t, message);
                }
            }
            "spawn" | "scope" | "Builder"
                if on(Rule::ThreadSpawnOutsidePar, i)
                    && i >= 3
                    && toks[i - 1].text == ":"
                    && !toks[i - 1].is_ident
                    && toks[i - 2].text == ":"
                    && !toks[i - 2].is_ident
                    && toks[i - 3].text == "thread"
                    && toks[i - 3].is_ident =>
            {
                push(
                    Rule::ThreadSpawnOutsidePar,
                    t,
                    format!(
                        "`thread::{}` outside `crates/tensor/src/par.rs`; route \
                         parallel work through the `fabflip_tensor::par` worker \
                         pool so the thread budget and §4b block determinism hold",
                        t.text
                    ),
                )
            }
            "unwrap" if on(Rule::UnwrapInLib, i) => {
                let after_dot = i >= 1 && !toks[i - 1].is_ident && toks[i - 1].text == ".";
                let called = i + 1 < toks.len() && toks[i + 1].text == "(";
                if after_dot && called {
                    push(
                        Rule::UnwrapInLib,
                        t,
                        "`.unwrap()` in library code; use `expect(\"actionable \
                         message\")` or propagate a `Result`"
                            .to_string(),
                    )
                }
            }
            "todo" | "unimplemented"
                if on(Rule::TodoUnimplemented, i)
                    && i + 1 < toks.len()
                    && toks[i + 1].text == "!" =>
            {
                push(
                    Rule::TodoUnimplemented,
                    t,
                    format!("`{}!` in non-test code; tracked by the ratchet", t.text),
                )
            }
            // `.sum::<f32>()` / `.sum::<f64>()`: the turbofish names the
            // float type, so this is lexically certain to be a float
            // reduction whose result depends on accumulation order.
            "sum" | "product"
                if on(Rule::UnorderedFloatReduction, i)
                    && !float_allow.contains(&t.line)
                    && i >= 1
                    && !toks[i - 1].is_ident
                    && toks[i - 1].text == "."
                    && toks
                        .get(i + 1)
                        .is_some_and(|x| !x.is_ident && x.text == ":")
                    && toks
                        .get(i + 2)
                        .is_some_and(|x| !x.is_ident && x.text == ":")
                    && toks
                        .get(i + 3)
                        .is_some_and(|x| !x.is_ident && x.text == "<")
                    && toks.get(i + 4).is_some_and(|x| {
                        x.is_ident && matches!(x.text.as_str(), "f32" | "f64")
                    }) =>
            {
                push(
                    Rule::UnorderedFloatReduction,
                    t,
                    format!(
                        "`.{}::<{}>()` is an order-sensitive float reduction; route it \
                         through a fixed-order serial kernel (`tensor::vecops`), or \
                         bless this site with \
                         `// fabcheck::allow(unordered_float_reduction): why` stating \
                         the fixed-order argument",
                        t.text,
                        toks[i + 4].text
                    ),
                )
            }
            // `.fold(0.0, …)`: a float-literal accumulator seed marks a
            // float fold whose result is accumulation-order dependent.
            "fold"
                if on(Rule::UnorderedFloatReduction, i)
                    && !float_allow.contains(&t.line)
                    && i >= 1
                    && !toks[i - 1].is_ident
                    && toks[i - 1].text == "."
                    && toks
                        .get(i + 1)
                        .is_some_and(|x| !x.is_ident && x.text == "(")
                    && arg_ranges(toks, i + 1).first().is_some_and(|&(a, b)| {
                        toks[a..b].iter().any(|x| {
                            !x.is_ident
                                && x.text.starts_with(|c: char| c.is_ascii_digit())
                                && is_float_literal(&x.text)
                        })
                    }) =>
            {
                push(
                    Rule::UnorderedFloatReduction,
                    t,
                    "float-seeded `.fold(…)` is an order-sensitive reduction; use a \
                     fixed-order serial kernel, or bless this site with \
                     `// fabcheck::allow(unordered_float_reduction): why` stating the \
                     fixed-order argument"
                        .to_string(),
                )
            }
            // `sort_by`/`sort_unstable_by` comparing through `partial_cmp`
            // on a *derived* key (indexing/expression, not a bare closure
            // parameter) with no tuple tie-break: equal keys order by the
            // input permutation, which thread count can change.
            "sort_by" | "sort_unstable_by"
                if on(Rule::UnorderedFloatReduction, i)
                    && !float_allow.contains(&t.line)
                    && i >= 1
                    && !toks[i - 1].is_ident
                    && toks[i - 1].text == "."
                    && toks
                        .get(i + 1)
                        .is_some_and(|x| !x.is_ident && x.text == "(") =>
            {
                let close = matching_close(toks, i + 1).unwrap_or(toks.len() - 1);
                let mut bars = (i + 2..close).filter(|&j| !toks[j].is_ident && toks[j].text == "|");
                let params: Vec<&str> = match (bars.next(), bars.next()) {
                    (Some(a), Some(b)) => toks[a + 1..b]
                        .iter()
                        .filter(|x| x.is_ident && x.text != "mut")
                        .map(|x| x.text.as_str())
                        .collect(),
                    _ => Vec::new(),
                };
                for j in i + 2..close {
                    if !(toks[j].is_ident
                        && toks[j].text == "partial_cmp"
                        && j >= 2
                        && !toks[j - 1].is_ident
                        && toks[j - 1].text == ".")
                    {
                        continue;
                    }
                    let recv = &toks[j - 2];
                    if recv.is_ident && params.contains(&recv.text.as_str()) {
                        // `|a, b| a.partial_cmp(b)`: a direct value sort —
                        // equal floats are interchangeable.
                        continue;
                    }
                    let tie_broken = toks
                        .get(j + 1)
                        .is_some_and(|x| !x.is_ident && x.text == "(")
                        && (j + 2..matching_close(toks, j + 1).unwrap_or(toks.len() - 1))
                            .any(|k| !toks[k].is_ident && toks[k].text == ",");
                    if !tie_broken {
                        push(
                            Rule::UnorderedFloatReduction,
                            t,
                            "`partial_cmp` sort over a derived float key without a \
                             value tie-break; sort `(key, index)` tuples so equal keys \
                             order deterministically, or bless with \
                             `// fabcheck::allow(unordered_float_reduction): why`"
                                .to_string(),
                        );
                        break;
                    }
                }
            }
            // Every raw mutable span must claim the partition argument
            // that makes its aliasing sound.
            "from_raw_parts_mut"
                if on(Rule::UnclaimedRawSpan, i)
                    && toks
                        .get(i + 1)
                        .is_some_and(|x| !x.is_ident && x.text == "(") =>
            {
                let close = matching_close(toks, i + 1).unwrap_or(toks.len() - 1);
                let args: Vec<&str> = toks[i + 2..close]
                    .iter()
                    .filter(|x| x.is_ident)
                    .map(|x| x.text.as_str())
                    .collect();
                let Some(k) = claim_comment(
                    &lexed.comments,
                    &mut claimed_disjoint,
                    t.line,
                    DISJOINT_NEEDLES,
                ) else {
                    push(
                        Rule::UnclaimedRawSpan,
                        t,
                        "`from_raw_parts_mut` without its own \
                         `// fabcheck::claim(disjoint): …` annotation in the \
                         preceding lines (each span claims exactly one); state \
                         which argument partitions the spans disjointly"
                            .to_string(),
                    );
                    continue;
                };
                if !args
                    .iter()
                    .any(|a| mentions_ident(&lexed.comments[k].text, a))
                {
                    push(
                        Rule::UnclaimedRawSpan,
                        t,
                        "the `fabcheck::claim(disjoint)` annotation names none \
                         of this `from_raw_parts_mut` call's arguments; name \
                         the partition argument on the claim line itself"
                            .to_string(),
                    )
                }
                if !span_partition_recognized(toks, i) {
                    push(
                        Rule::UnclaimedRawSpan,
                        t,
                        "this `claim(disjoint)` span is not carved by a \
                         recognized partition pattern (a bare base pointer, or \
                         `.add/wrapping_add(off)` with `off` bound to an \
                         `index * chunk` product, optionally `.min(…)`-clamped); \
                         restructure the offset arithmetic into a block product"
                            .to_string(),
                    )
                }
            }
            _ => {}
        }
    }
    (findings, unsafe_sites)
}

/// Parses the integer value of a numeric-literal token (decimal or hex,
/// `_` separators and type suffixes tolerated).
fn int_value(text: &str) -> Option<u64> {
    let t: String = text.chars().filter(|&c| c != '_').collect();
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        let digits: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
        u64::from_str_radix(&digits, 16).ok()
    } else {
        let digits: String = t.chars().take_while(|c| c.is_ascii_digit()).collect();
        digits.parse().ok()
    }
}

/// The workspace-level `seed-stream-registry` pass (cross-file, so it
/// cannot run inside [`check_file`]).
///
/// Pass 1 collects the registry: every `pub const NAME: u64 = <id>;`
/// inside a `mod streams { … }` block in crate `fl`, flagging duplicate
/// ids (two streams sharing an id silently correlate their
/// "independent" randomness) and a second registry module. Pass 2 audits
/// every non-test `sub_seed(seed, STREAM, …)` call site in `crates/`:
/// the stream argument must be a path ending in a registered constant —
/// numeric literals and unregistered names are findings.
pub fn check_seed_streams(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut registry: BTreeSet<String> = BTreeSet::new();
    let mut by_id: BTreeMap<u64, String> = BTreeMap::new();
    let mut registry_file: Option<String> = None;

    for file in files {
        let class = &file.class;
        if !class.in_crates || class.crate_name != "fl" || class.is_test_file {
            continue;
        }
        let toks = &file.lexed.tokens;
        let mut i = 0;
        while i + 2 < toks.len() {
            if !(toks[i].is_ident
                && toks[i].text == "mod"
                && toks[i + 1].is_ident
                && toks[i + 1].text == "streams"
                && !toks[i + 2].is_ident
                && toks[i + 2].text == "{")
            {
                i += 1;
                continue;
            }
            match &registry_file {
                None => registry_file = Some(class.rel.clone()),
                Some(first) => findings.push(Finding {
                    rule: Rule::SeedStreamRegistry,
                    file: class.rel.clone(),
                    line: toks[i].line,
                    col: toks[i].col,
                    message: format!(
                        "second `mod streams` registry (first in `{first}`); the \
                         seed-stream registry must be a single module in `fl::faults`"
                    ),
                }),
            }
            // Walk the registry block, collecting `const NAME … = <id> ;`.
            let mut depth = 0i64;
            let mut j = i + 2;
            while j < toks.len() {
                let t = &toks[j];
                if !t.is_ident {
                    match t.text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                    continue;
                }
                if t.text == "const" && toks.get(j + 1).is_some_and(|n| n.is_ident) {
                    let name = &toks[j + 1];
                    let mut k = j + 2;
                    while k < toks.len() && toks[k].text != "=" && toks[k].text != ";" {
                        k += 1;
                    }
                    let value = toks
                        .get(k + 1)
                        .filter(|v| {
                            toks[k].text == "="
                                && !v.is_ident
                                && v.text.starts_with(|c: char| c.is_ascii_digit())
                        })
                        .and_then(|v| int_value(&v.text));
                    registry.insert(name.text.clone());
                    if let Some(v) = value {
                        if let Some(first) = by_id.get(&v) {
                            findings.push(Finding {
                                rule: Rule::SeedStreamRegistry,
                                file: class.rel.clone(),
                                line: name.line,
                                col: name.col,
                                message: format!(
                                    "stream id {v} is declared twice in the registry \
                                     (`{first}` and `{}`); two streams sharing an id \
                                     derive identical sub-seeds",
                                    name.text
                                ),
                            });
                        } else {
                            by_id.insert(v, name.text.clone());
                        }
                    }
                    j = k;
                    continue;
                }
                j += 1;
            }
            i = j.max(i + 1);
        }
    }

    for file in files {
        let class = &file.class;
        if !class.in_crates || class.is_test_file {
            continue;
        }
        let toks = &file.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if !(t.is_ident
                && t.text == "sub_seed"
                && toks.get(i + 1).is_some_and(|n| !n.is_ident && n.text == "(")
                && !file.in_test(i)
                // Skip the definition itself (`fn sub_seed(master, …)`).
                && !(i >= 1 && toks[i - 1].is_ident && toks[i - 1].text == "fn"))
            {
                continue;
            }
            let args = arg_ranges(toks, i + 1);
            let Some(&(a, b)) = args.get(1) else {
                continue;
            };
            let stream = &toks[a..b];
            if let Some(lit) = stream
                .iter()
                .find(|x| !x.is_ident && x.text.starts_with(|c: char| c.is_ascii_digit()))
            {
                findings.push(Finding {
                    rule: Rule::SeedStreamRegistry,
                    file: class.rel.clone(),
                    line: lit.line,
                    col: lit.col,
                    message: format!(
                        "`sub_seed` stream id is the magic number `{}`; declare it as \
                         a named constant in the `fl::faults::streams` registry and \
                         reference it, so stream collisions are visible in one place",
                        lit.text
                    ),
                });
                continue;
            }
            let Some(name) = stream.iter().rev().find(|x| x.is_ident) else {
                continue;
            };
            if !registry.contains(&name.text) {
                findings.push(Finding {
                    rule: Rule::SeedStreamRegistry,
                    file: class.rel.clone(),
                    line: name.line,
                    col: name.col,
                    message: format!(
                        "`sub_seed` stream id `{}` is not declared in the \
                         `fl::faults::streams` registry; every stream id lives there \
                         so collisions are impossible to miss",
                        name.text
                    ),
                });
            }
        }
    }
    findings
}

/// Collects `fn <name>` declarations between token indices `open..close`
/// as (name, line, col).
fn fn_names_in(toks: &[Token], open: usize, close: usize) -> Vec<(String, u32, u32)> {
    let mut out = Vec::new();
    let mut j = open;
    while j + 1 < close {
        if toks[j].is_ident && toks[j].text == "fn" && toks[j + 1].is_ident {
            out.push((toks[j + 1].text.clone(), toks[j + 1].line, toks[j + 1].col));
            j += 2;
            continue;
        }
        j += 1;
    }
    out
}

/// The workspace-level `backend-parity` pass: every method of the
/// `CpuBackend` trait must be implemented by **every**
/// `impl CpuBackend for <Type>` block in the trait's directory, and must
/// appear (as a whole-word identifier) in each cross-backend coverage
/// file (`backend_goldens.rs`, `proptests.rs`) present in the workspace.
/// Adding a trait method without a scalar fallback or determinism tests
/// therefore fails `--ci`. Trees without a `CpuBackend` trait are
/// silently exempt (the fixture workspaces that predate the backend
/// layer).
pub fn check_backend_parity(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Pass 1: the trait declaration and its method roster.
    let mut trait_at: Option<(String, String, String)> = None; // (rel, dir prefix, crate)
    let mut methods: Vec<(String, u32, u32)> = Vec::new();
    for file in files {
        let class = &file.class;
        if class.is_test_file || !class.in_crates {
            continue;
        }
        let toks = &file.lexed.tokens;
        let mut i = 0;
        while i + 1 < toks.len() {
            if toks[i].is_ident
                && toks[i].text == "trait"
                && toks[i + 1].is_ident
                && toks[i + 1].text == "CpuBackend"
            {
                let mut open = i + 2;
                while open < toks.len() && (toks[open].is_ident || toks[open].text != "{") {
                    open += 1;
                }
                let close = matching_close(toks, open).unwrap_or(toks.len() - 1);
                methods = fn_names_in(toks, open + 1, close);
                let dir = class
                    .rel
                    .rsplit_once('/')
                    .map(|(d, _)| format!("{d}/"))
                    .unwrap_or_default();
                trait_at = Some((class.rel.clone(), dir, class.crate_name.clone()));
                break;
            }
            i += 1;
        }
        if trait_at.is_some() {
            break;
        }
    }
    let Some((trait_rel, dir, trait_crate)) = trait_at else {
        return findings;
    };
    // Pass 2: the impl blocks in the trait's directory and the coverage
    // files' identifier sets.
    let mut impls: Vec<(String, String, BTreeSet<String>)> = Vec::new();
    let mut coverage: Vec<(String, BTreeSet<String>)> = Vec::new();
    for file in files {
        let class = &file.class;
        // Coverage lives in the trait's own crate — other crates carry
        // proptest modules of their own that say nothing about backends.
        let is_cov = class.crate_name == trait_crate
            && (class.rel.ends_with("tests/backend_goldens.rs")
                || class.rel.ends_with("src/proptests.rs"));
        if is_cov {
            let idents = file
                .lexed
                .tokens
                .iter()
                .filter(|t| t.is_ident)
                .map(|t| t.text.clone())
                .collect();
            coverage.push((class.rel.clone(), idents));
            continue;
        }
        if class.is_test_file || !class.rel.starts_with(&dir) {
            continue;
        }
        let toks = &file.lexed.tokens;
        let mut i = 0;
        while i + 3 < toks.len() {
            if !(toks[i].is_ident
                && toks[i].text == "impl"
                && toks[i + 1].is_ident
                && toks[i + 1].text == "CpuBackend"
                && toks[i + 2].is_ident
                && toks[i + 2].text == "for"
                && toks[i + 3].is_ident)
            {
                i += 1;
                continue;
            }
            let ty = toks[i + 3].text.clone();
            let mut open = i + 4;
            while open < toks.len() && (toks[open].is_ident || toks[open].text != "{") {
                open += 1;
            }
            let close = matching_close(toks, open).unwrap_or(toks.len() - 1);
            let names = fn_names_in(toks, open + 1, close)
                .into_iter()
                .map(|(n, _, _)| n)
                .collect();
            impls.push((class.rel.clone(), ty, names));
            i = close;
        }
    }
    coverage.sort();
    for (name, line, col) in &methods {
        for (file, ty, names) in &impls {
            if !names.contains(name) {
                findings.push(Finding {
                    rule: Rule::BackendParity,
                    file: trait_rel.clone(),
                    line: *line,
                    col: *col,
                    message: format!(
                        "`CpuBackend::{name}` has no implementation in \
                         `impl CpuBackend for {ty}` (`{file}`); every backend \
                         implements every kernel entry so dispatch can never \
                         fall through"
                    ),
                });
            }
        }
        for (file, idents) in &coverage {
            if !idents.contains(name) {
                findings.push(Finding {
                    rule: Rule::BackendParity,
                    file: trait_rel.clone(),
                    line: *line,
                    col: *col,
                    message: format!(
                        "`CpuBackend::{name}` never appears in the cross-backend \
                         coverage file `{file}`; add it to the bitwise parity \
                         tests so backend divergence is caught"
                    ),
                });
            }
        }
    }
    findings
}

/// `--explain <rule>`: the rule's contract and, where one exists, an
/// example claim. Returns `None` for unknown rule names.
pub fn explain(name: &str) -> Option<&'static str> {
    Some(match name {
        "nondeterministic-collection" => {
            "HashMap/HashSet iteration order varies per process, so any float \
             accumulation or JSON emission driven by it breaks bitwise replay. \
             Use BTreeMap/BTreeSet or sorted-key iteration in numeric crates."
        }
        "entropy-rng" => {
            "thread_rng/from_entropy/OsRng/getrandom draw OS entropy, breaking \
             fixed-seed replay everywhere (tests included). Derive a StdRng from \
             the run seed via a registered SplitMix sub-stream."
        }
        "wallclock-in-kernel" => {
            "Instant/SystemTime reads inside numeric crates make results a \
             function of the clock. Timing belongs in crates/bench."
        }
        "env-var-outside-config" => {
            "env::var is allowed only in the FABFLIP_THREADS budget modules and \
             the backend dispatcher (FABFLIP_BACKEND); all other configuration \
             arrives through FlConfig/CLI flags."
        }
        "unsafe-without-safety-comment" => {
            "Every `unsafe` (tests included) carries its own SAFETY comment \
             within the 5 lines above it, and no two sites share one. In the \
             non-test code of crates/tensor/src/backend/ and par.rs the \
             comment must also parse under the claim grammar and match its \
             site:\n\
             // SAFETY(bound: q*8 + 8 <= a.len()): pointer arithmetic stays \
             in bounds (required inside #[target_feature] kernels and at \
             raw-pointer sites);\n\
             // SAFETY(feature: avx2,fma): the dispatcher detected these \
             features before handing this backend out (required on blocks \
             calling #[target_feature] fns);\n\
             // SAFETY(sync: JobRef): why the type is sound to send/share \
             (required on `unsafe impl Send/Sync`)."
        }
        "thread-spawn-outside-par" => {
            "Thread creation is the worker pool's monopoly \
             (crates/tensor/src/par.rs); ad-hoc spawns bypass the thread budget \
             and the fixed-block determinism argument."
        }
        "raw-pointer-outside-par" => {
            "Raw-pointer types are confined to the worker pool and the SIMD \
             backend dir; product code everywhere else passes slices."
        }
        "alloc-on-hot-path" => {
            "No heap allocation is reachable from the kernel entry set: the \
             steady-state per-round loop must not touch the allocator. \
             Preallocate in setup and reuse buffers."
        }
        "panic-on-hot-path" => {
            "Counted debt: panic sites (indexing, assert!, unwrap) reachable \
             from kernel entries. Ratchets shrink-only against the baseline."
        }
        "io-on-hot-path" => {
            "No I/O or blocking synchronization reachable from kernel entries \
             outside the worker pool: the deterministic core stays pure so a \
             wire shell can wrap it."
        }
        "seed-stream-registry" => {
            "Every sub_seed stream id is a named constant in the single \
             fl::faults::streams registry; magic numbers and duplicate ids \
             silently correlate 'independent' randomness."
        }
        "unordered-float-reduction" => {
            "Order-sensitive float reductions (.sum::<f32>(), float-seeded \
             folds, partial_cmp sorts without tie-breaks) must route through \
             fixed-order kernels, or carry \
             `// fabcheck::allow(unordered_float_reduction): why`."
        }
        "unclaimed-raw-span" => {
            "Every from_raw_parts_mut span carries its own \
             `// fabcheck::claim(disjoint): …` naming the partition argument \
             that makes the aliasing sound, and its base offset must be a \
             recognized partition: a bare base, or `.add/wrapping_add(off)` \
             with `let off = index * chunk;` (optionally `.min(len)`-clamped, \
             tuple-lets allowed). Contiguous block products are provably \
             non-overlapping for distinct indices.\n\
             Example: let lo = b * items_per_worker; \
             // fabcheck::claim(disjoint): lo strides by worker index.\n\
             base.ptr().wrapping_add(lo)"
        }
        "unwrap-in-lib" => {
            "Counted debt: .unwrap() in non-test library code. Prefer \
             expect(\"actionable message\") or Result propagation."
        }
        "todo-unimplemented" => {
            "Counted debt: todo!/unimplemented! in non-test code — tracked so \
             stubs cannot silently accumulate."
        }
        "target-feature-call-unguarded" => {
            "Every call edge into an `#[target_feature(enable = …)]` fn must \
             prove the ISA available: the caller either declares a superset of \
             the callee's features, or is a dispatcher method in \
             crates/tensor/src/backend/ whose instances exist only after \
             `is_x86_feature_detected!` succeeds (backend::active()). Any \
             other edge could execute illegal instructions on an unsupporting \
             host. Remedy: route the call through backend::active()."
        }
        "backend-parity" => {
            "Every CpuBackend trait method must be implemented by every \
             backend impl in crates/tensor/src/backend/ AND appear in the \
             cross-backend coverage (backend_goldens.rs, proptests.rs). A new \
             kernel entry without a scalar fallback and determinism tests \
             fails --ci."
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::walk::classify;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::new(classify(rel), src.to_string())
    }

    fn run(rel: &str, src: &str) -> Vec<String> {
        check_file(&file(rel, src))
            .0
            .into_iter()
            .map(|f| f.rule.name().to_string())
            .collect()
    }

    #[test]
    fn hashmap_flagged_only_in_numeric_crates() {
        let src = "use std::collections::HashMap;";
        assert_eq!(
            run("crates/fl/src/runner.rs", src),
            ["nondeterministic-collection"]
        );
        assert!(run("crates/bench/src/lib.rs", src).is_empty());
        assert!(run("compat/serde/src/lib.rs", src).is_empty());
    }

    #[test]
    fn hashmap_in_comment_string_or_test_mod_is_clean() {
        assert!(run("crates/fl/src/a.rs", "// HashMap in prose").is_empty());
        assert!(run("crates/fl/src/a.rs", r#"let s = "HashMap";"#).is_empty());
        assert!(run(
            "crates/fl/src/a.rs",
            "#[cfg(test)]\nmod tests {\n use std::collections::HashMap;\n}"
        )
        .is_empty());
        // Non-test code after the test mod is still checked.
        assert_eq!(
            run(
                "crates/fl/src/a.rs",
                "#[cfg(test)]\nmod tests { }\nuse std::collections::HashMap;"
            ),
            ["nondeterministic-collection"]
        );
    }

    #[test]
    fn entropy_rng_flagged_everywhere_even_tests() {
        let src = "#[cfg(test)]\nmod tests { fn f() { let r = thread_rng(); } }";
        assert_eq!(run("crates/cli/src/lib.rs", src), ["entropy-rng"]);
        assert_eq!(
            run("compat/rand/src/lib.rs", "pub fn from_entropy() {}"),
            ["entropy-rng"]
        );
    }

    #[test]
    fn wallclock_scoped_to_numeric_crates() {
        let src = "let t = std::time::Instant::now();";
        assert_eq!(
            run("crates/tensor/src/matmul.rs", src),
            ["wallclock-in-kernel"]
        );
        assert!(run("crates/bench/src/lib.rs", src).is_empty());
        // Doc-comment prose like `/// Instantiates the rule.` is clean.
        assert!(run(
            "crates/aggregation/src/types.rs",
            "/// Instantiates the rule."
        )
        .is_empty());
    }

    #[test]
    fn env_var_blessed_only_in_budget_modules() {
        let src = r#"let v = std::env::var("FABFLIP_THREADS");"#;
        assert!(run("crates/tensor/src/par.rs", src).is_empty());
        assert_eq!(run("crates/fl/src/sim.rs", src), ["env-var-outside-config"]);
        // `tensor::par` is the only FABFLIP_THREADS reader: no compat shim
        // is blessed.
        assert_eq!(
            run("compat/rayon/src/lib.rs", src),
            ["env-var-outside-config"]
        );
        // env::args and env::temp_dir stay legal everywhere.
        assert!(run("crates/cli/src/main.rs", "let a = std::env::args();").is_empty());
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        // Snippets live at a compat path: the presence rule applies
        // everywhere, but neither the raw-pointer confinement nor the
        // blessed-dir claim grammar interferes there.
        let bad = "fn f(p: *const u8) { unsafe { p.read() }; }";
        assert_eq!(
            run("compat/simd/src/lib.rs", bad),
            ["unsafe-without-safety-comment"]
        );
        let good = "// SAFETY: p is valid for reads per the caller contract.\n\
                    fn f(p: *const u8) { unsafe { p.read() }; }";
        assert!(run("compat/simd/src/lib.rs", good).is_empty());
        // Attribute + doc-comment noise between the SAFETY line and the
        // unsafe token stays within the window.
        let noisy = "// SAFETY: index < len checked above.\n\
                     #[allow(clippy::missing_docs_in_private_items)]\n\
                     #[inline(always)]\n\
                     fn g(s: &[u8]) { unsafe { s.get_unchecked(0) }; }";
        assert!(run("compat/simd/src/lib.rs", noisy).is_empty());
        // A SAFETY comment far above does not annotate.
        let far = format!(
            "// SAFETY: stale.\n{}\nfn f(p: *const u8) {{ unsafe {{ p.read() }}; }}",
            "\n".repeat(8)
        );
        assert_eq!(
            run("compat/simd/src/lib.rs", &far),
            ["unsafe-without-safety-comment"]
        );
        // Trailing same-line comment counts.
        let inline = "fn f(p: *const u8) { unsafe { p.read() }; } // SAFETY: valid ptr.";
        assert!(run("compat/simd/src/lib.rs", inline).is_empty());
        // In the blessed unsafe dirs the grammar form also satisfies the
        // presence rule (the widened needle).
        let grammar = "// SAFETY(bound: p valid for 1 byte): caller contract.\n\
                       fn f(p: *const u8) { unsafe { p.read() }; }";
        assert!(run("crates/tensor/src/par.rs", grammar).is_empty());
        // The word SAFETY: inside a doc example string does not annotate
        // and an `unsafe` inside a string is not a finding.
        assert!(run("crates/nn/src/x.rs", r#"let s = "unsafe";"#).is_empty());
    }

    #[test]
    fn each_unsafe_claims_its_own_safety_comment() {
        // Two unsafe blocks, one comment: the second block is naked.
        let shared = "// SAFETY: covers only one block.\n\
                      fn f(s: &[u8]) { unsafe { s.get_unchecked(0) }; unsafe { s.get_unchecked(1) }; }";
        assert_eq!(
            run("compat/simd/src/lib.rs", shared),
            ["unsafe-without-safety-comment"]
        );
        // Two comments, two blocks: both annotated.
        let paired = "// SAFETY: first index in bounds.\n\
                      // SAFETY: second index in bounds.\n\
                      fn f(s: &[u8]) { unsafe { s.get_unchecked(0) }; unsafe { s.get_unchecked(1) }; }";
        assert!(run("compat/simd/src/lib.rs", paired).is_empty());
    }

    #[test]
    fn raw_pointer_types_confined_to_par() {
        let ty = "fn f(p: *const f32, q: *mut f32) {}";
        assert_eq!(
            run("crates/tensor/src/matmul.rs", ty),
            ["raw-pointer-outside-par", "raw-pointer-outside-par"]
        );
        assert!(run("crates/tensor/src/par.rs", ty).is_empty());
        // Multiplication and deref are not raw-pointer types.
        assert!(run("crates/tensor/src/matmul.rs", "let y = a * b; let z = *r;").is_empty());
        // Test files (e.g. the alloc_guard allocator) are exempt.
        assert!(run("crates/tensor/tests/alloc_guard.rs", ty).is_empty());
        assert!(run(
            "crates/nn/src/conv.rs",
            "#[cfg(test)]\nmod tests { fn t(p: *const u8) {} }"
        )
        .is_empty());
    }

    #[test]
    fn thread_spawn_flagged_outside_par() {
        let spawn = "std::thread::spawn(|| {});";
        assert_eq!(
            run("crates/fl/src/runner.rs", spawn),
            ["thread-spawn-outside-par"]
        );
        // The worker pool itself and the compat shims are exempt.
        assert!(run("crates/tensor/src/par.rs", spawn).is_empty());
        assert!(run("compat/proptest/src/lib.rs", spawn).is_empty());
        // `thread::scope` and `thread::Builder` count too.
        assert_eq!(
            run(
                "crates/nn/src/x.rs",
                "thread::scope(|s| { s.spawn(|| {}); });"
            ),
            ["thread-spawn-outside-par"]
        );
        assert_eq!(
            run("crates/fl/src/x.rs", "thread::Builder::new();"),
            ["thread-spawn-outside-par"]
        );
        // Test code is NOT exempt: scoped threads in tests still race the
        // pool's parked workers.
        assert_eq!(
            run(
                "crates/nn/src/x.rs",
                "#[cfg(test)]\nmod tests { fn t() { std::thread::spawn(|| {}); } }"
            ),
            ["thread-spawn-outside-par"]
        );
        // A method call `cmd.spawn()` (e.g. std::process::Command) and the
        // bare words in prose are clean.
        assert!(run("crates/fl/src/x.rs", "cmd.spawn();").is_empty());
        assert!(run("crates/fl/src/x.rs", "// thread::spawn in prose").is_empty());
    }

    #[test]
    fn unwrap_counted_in_lib_only() {
        let src = "fn f() { x.unwrap(); }";
        assert_eq!(run("crates/nn/src/gradcheck.rs", src), ["unwrap-in-lib"]);
        assert!(run("crates/nn/src/main.rs", src).is_empty());
        assert!(run("crates/bench/src/bin/perf.rs", src).is_empty());
        assert!(run("crates/fl/examples/probe.rs", src).is_empty());
        assert!(run("compat/rand/src/lib.rs", src).is_empty());
        // unwrap_or and a fn named unwrap don't count.
        assert!(run("crates/nn/src/a.rs", "x.unwrap_or(0);").is_empty());
        assert!(run("crates/nn/src/a.rs", "fn unwrap() {}").is_empty());
        // Test-module unwraps don't count.
        assert!(run(
            "crates/nn/src/a.rs",
            "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }"
        )
        .is_empty());
    }

    #[test]
    fn todo_and_unimplemented_counted() {
        assert_eq!(
            run("crates/fl/src/a.rs", "fn f() { todo!() }"),
            ["todo-unimplemented"]
        );
        assert_eq!(
            run("crates/fl/src/a.rs", "fn f() { unimplemented!() }"),
            ["todo-unimplemented"]
        );
        // The identifier alone (e.g. a variable named todo) is clean.
        assert!(run("crates/fl/src/a.rs", "let todo = 3;").is_empty());
    }

    #[test]
    fn cfg_all_test_gates_are_recognized() {
        let src = "#[cfg(all(test, feature = \"slow\"))]\nmod tests { fn t() { x.unwrap(); } }";
        assert!(run("crates/nn/src/a.rs", src).is_empty());
    }

    #[test]
    fn out_of_line_test_mods_are_reported() {
        let src = "#[cfg(test)]\nmod proptests;\npub fn f() {}";
        assert_eq!(test_only_mods(&lex(src).tokens), ["proptests"]);
        assert!(test_only_mods(&lex("mod proptests;").tokens).is_empty());
    }

    #[test]
    fn claim_grammar_parses_bound_feature_and_sync() {
        assert_eq!(
            parse_safety_claim("// SAFETY(bound: q*8 + 8 <= a.len() == b.len()): lanes fit."),
            Some(Ok(SafetyClaim::Bound(
                "q*8 + 8 <= a.len() == b.len()".into()
            )))
        );
        assert_eq!(
            parse_safety_claim("// SAFETY(feature: avx2, fma): detected at dispatch."),
            Some(Ok(SafetyClaim::Feature(vec!["avx2".into(), "fma".into()])))
        );
        assert_eq!(
            parse_safety_claim("// SAFETY(sync: JobRef): erased pointer outlives the job."),
            Some(Ok(SafetyClaim::Sync("JobRef".into())))
        );
        // Free text has no opener at all.
        assert_eq!(parse_safety_claim("// SAFETY: trust me."), None);
        // Malformed claims are errors, not silently free text.
        assert!(matches!(
            parse_safety_claim("// SAFETY(feature: neon): wrong ISA."),
            Some(Err(e)) if e.contains("neon")
        ));
        assert!(matches!(
            parse_safety_claim("// SAFETY(vibes: good): unknown kind."),
            Some(Err(e)) if e.contains("vibes")
        ));
        assert!(matches!(
            parse_safety_claim("// SAFETY(bound q < n): no separator."),
            Some(Err(_))
        ));
        assert!(matches!(
            parse_safety_claim("// SAFETY(bound: ): empty."),
            Some(Err(e)) if e.contains("empty")
        ));
    }

    #[test]
    fn claim_grammar_scoped_to_blessed_dirs() {
        // Free-text SAFETY: fine outside the blessed dirs and in test
        // code, a finding in the blessed dirs' product code.
        let free = "// SAFETY: p is valid per the caller contract.\n\
                    fn f(p: *const u8) { unsafe { p.read() }; }";
        let unsafe_hit = vec!["unsafe-without-safety-comment".to_string()];
        assert_eq!(run("crates/tensor/src/par.rs", free), unsafe_hit);
        assert_eq!(run("crates/tensor/src/backend/avx9.rs", free), unsafe_hit);
        assert_eq!(
            run("crates/nn/src/lib.rs", free),
            ["raw-pointer-outside-par"]
        );
        assert!(run("crates/tensor/tests/backend.rs", free).is_empty());
        let gated = format!("#[cfg(test)]\nmod tests {{\n{free}\n}}");
        assert!(run("crates/tensor/src/par.rs", &gated).is_empty());
    }

    #[test]
    fn claim_kind_must_match_site() {
        // A kernel block inside a #[target_feature] fn must claim bound.
        let tf_wrong = "#[target_feature(enable = \"avx2\")]\n\
                        fn k(a: &[f32]) {\n\
                            // SAFETY(feature: avx2): wrong kind for a kernel interior.\n\
                            unsafe { core::arch::x86_64::_mm_setzero_ps() };\n\
                        }";
        assert_eq!(
            run("crates/tensor/src/backend/avx2.rs", tf_wrong),
            ["unsafe-without-safety-comment"]
        );
        let tf_right = tf_wrong.replace(
            "// SAFETY(feature: avx2): wrong kind for a kernel interior.",
            "// SAFETY(bound: lanes never exceed a.len()): in bounds.",
        );
        assert!(run("crates/tensor/src/backend/avx2.rs", &tf_right).is_empty());
        // An unsafe impl must claim sync.
        let imp_wrong = "// SAFETY(bound: n/a): wrong kind.\n\
                         unsafe impl Send for JobRef {}";
        assert_eq!(
            run("crates/tensor/src/par.rs", imp_wrong),
            ["unsafe-without-safety-comment"]
        );
        let imp_right = "// SAFETY(sync: JobRef): the pointee outlives the job.\n\
                         unsafe impl Send for JobRef {}";
        assert!(run("crates/tensor/src/par.rs", imp_right).is_empty());
        // A dispatch block calling a same-file target-feature fn must
        // claim every feature the callee enables.
        let disp = "#[target_feature(enable = \"avx2,fma\")]\n\
                    fn dot(a: &[f32]) -> f32 { 0.0 }\n\
                    fn entry(a: &[f32]) -> f32 {\n\
                        // SAFETY(feature: avx2): fma missing.\n\
                        unsafe { dot(a) }\n\
                    }";
        let hits = run("crates/tensor/src/backend/avx2.rs", disp);
        assert_eq!(hits, ["unsafe-without-safety-comment"], "{hits:?}");
        let disp_ok = disp.replace("feature: avx2)", "feature: avx2,fma)");
        assert!(run("crates/tensor/src/backend/avx2.rs", &disp_ok).is_empty());
    }

    #[test]
    fn raw_spans_must_carve_recognized_partitions() {
        // Recognized: offset bound to a block product.
        let good = "fn f(base: *mut f32, b: usize, per: usize, hi: usize) {\n\
                    let lo = b * per;\n\
                    // SAFETY(bound: lo..hi within the allocation): carved.\n\
                    // fabcheck::claim(disjoint): lo strides by b, blocks are per wide.\n\
                    let s = unsafe { std::slice::from_raw_parts_mut(base.wrapping_add(lo), hi) };\n\
                    }";
        assert!(
            run("crates/tensor/src/par.rs", good).is_empty(),
            "{:?}",
            run("crates/tensor/src/par.rs", good)
        );
        // Tuple-let bindings match positionally.
        let tuple = good.replace("let lo = b * per;", "let (lo, other) = (b * per, b + per);");
        assert!(run("crates/tensor/src/par.rs", tuple.as_str()).is_empty());
        // Clamped products are recognized.
        let clamped = good.replace("let lo = b * per;", "let lo = (b * per).min(hi);");
        assert!(run("crates/tensor/src/par.rs", clamped.as_str()).is_empty());
        // A sum offset is NOT a recognized partition: a finding.
        let bad = good.replace("let lo = b * per;", "let lo = b + per;");
        assert_eq!(
            run("crates/tensor/src/par.rs", bad.as_str()),
            ["unclaimed-raw-span"]
        );
        // An unbound offset name likewise.
        let unbound = good.replace("let lo = b * per;", "");
        assert_eq!(
            run("crates/tensor/src/par.rs", unbound.as_str()),
            ["unclaimed-raw-span"]
        );
    }

    fn parity_run(files: &[(&str, &str)]) -> Vec<String> {
        let files: Vec<SourceFile> = files.iter().map(|(rel, src)| file(rel, src)).collect();
        check_backend_parity(&files)
            .into_iter()
            .map(|f| f.message)
            .collect()
    }

    #[test]
    fn backend_parity_requires_every_impl_and_coverage() {
        let trait_src = "pub trait CpuBackend: Send + Sync {\n\
                         fn name(&self) -> &'static str;\n\
                         fn dot(&self, a: &[f32]) -> f32;\n\
                         }";
        let scalar = "impl CpuBackend for Scalar {\n\
                      fn name(&self) -> &'static str { \"scalar\" }\n\
                      fn dot(&self, a: &[f32]) -> f32 { 0.0 }\n\
                      }";
        let avx2_missing_dot = "impl CpuBackend for Avx2 {\n\
                                fn name(&self) -> &'static str { \"avx2\" }\n\
                                }";
        let msgs = parity_run(&[
            ("crates/tensor/src/backend/mod.rs", trait_src),
            ("crates/tensor/src/backend/scalar.rs", scalar),
            ("crates/tensor/src/backend/avx2.rs", avx2_missing_dot),
        ]);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("CpuBackend::dot") && msgs[0].contains("Avx2"));
        // Coverage files must mention every method.
        let msgs = parity_run(&[
            ("crates/tensor/src/backend/mod.rs", trait_src),
            ("crates/tensor/src/backend/scalar.rs", scalar),
            (
                "crates/tensor/tests/backend_goldens.rs",
                "fn golden() { b.dot(&a); }",
            ),
            (
                "crates/tensor/src/proptests.rs",
                "fn prop() { b.name(); b.dot(&a); }",
            ),
        ]);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(
            msgs[0].contains("CpuBackend::name") && msgs[0].contains("backend_goldens"),
            "{msgs:?}"
        );
        // A workspace without the trait is silently exempt.
        assert!(parity_run(&[("crates/tensor/src/kernel.rs", "fn k() {}")]).is_empty());
    }

    #[test]
    fn unsafe_audit_counts_claimed_sites() {
        let src = "// SAFETY(bound: one): ok.\n\
                   fn f() { unsafe { a() }; unsafe { b() }; }";
        assert_eq!(check_file(&file("compat/a/src/lib.rs", src)).1, (1, 2));
        assert_eq!(
            check_file(&file("compat/a/src/lib.rs", "fn g() {}")).1,
            (0, 0)
        );
    }

    #[test]
    fn every_rule_has_an_explanation() {
        for rule in Rule::ALL {
            assert!(
                explain(rule.name()).is_some(),
                "missing --explain text for {}",
                rule.name()
            );
        }
        assert!(explain("no-such-rule").is_none());
        assert!(explain("unsafe-without-safety-comment")
            .expect("text")
            .contains("SAFETY(bound:"));
    }
}
