//! Workspace-wide call graph + hot-path reachability rules.
//!
//! Built from the [`crate::parser`] function items of every non-test
//! file under `crates/`, with cross-crate name resolution:
//!
//! * each file's `use` declarations become an alias map, so a path call
//!   expands through its import (`vecops::l2_norm_delta` after
//!   `use fabflip_tensor::vecops;` becomes
//!   `fabflip_tensor::vecops::l2_norm_delta`), and extern package names
//!   normalize to crate directories ([`CRATE_ALIASES`]:
//!   `fabflip_agg` → `aggregation`) — this is what lets a hot entry in
//!   `aggregation` prove edges down into `tensor`;
//! * the expanded path then resolves by fully-qualified-name suffix
//!   (exact match first — `start == 0` in the suffix loop — then
//!   retrying with leading segments dropped, so a partially-qualified
//!   `par::dispatch` still matches `tensor::par::dispatch`);
//! * bare calls resolve same-file, then same-crate, then workspace-wide;
//! * method calls resolve by *name* across **every** impl in the
//!   workspace — a deliberate over-approximation kept from v2, because
//!   receiver types are invisible to a token-level parser.
//!
//! All of this over-approximates: a call site may link to functions it
//! can never reach at runtime. That is the safe direction — a false-hot
//! function costs an escape comment or a ratchet entry, while a
//! false-cold one would let an allocation ship inside the per-round
//! kernel loop (DESIGN.md §4c). Unresolved names (std, core) produce no
//! edges but still hit the allocation/panic/io needle lists below.
//!
//! Reachability starts from [`HOT_ENTRIES`] — the declared kernel entry
//! set — and every reachable function is scanned for allocation sites
//! (`alloc-on-hot-path`, forbidden), panic sites (`panic-on-hot-path`,
//! ratcheted), and I/O or blocking synchronization (`io-on-hot-path`,
//! forbidden outside the worker pool — the purity boundary a serving
//! shell sits on). A line annotated with a
//! `// fabcheck::allow(alloc_on_hot_path): why` comment (or the
//! `panic_on_hot_path` / `io_on_hot_path` variants) — on the line itself
//! or the line above — is a declared setup-only branch: its sites are
//! suppressed for that rule, and alloc/panic escapes also drop the
//! line's call edges so they do not extend the hot region.

use crate::lexer::Lexed;
use crate::parser::{parse_tokens, parse_uses, Call, CallKind, FnNode};
use crate::rules::{
    allow_lines, Finding, Rule, BLESSED_SERVE_DIR, BLESSED_THREAD_FILE, NUMERIC_CRATES,
};
use crate::walk::SourceFile;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The kernel entry set: the functions executed O(rounds × clients ×
/// model-size) times whose steady-state cost decides grid throughput.
/// Everything reachable from here must be allocation-free and
/// panic-bounded. Matched exactly against generated fully-qualified
/// names (`crate_dir::file_modules::[ImplType::]fn`).
pub const HOT_ENTRIES: &[&str] = &[
    // GEMM entry points (parallel + serial reference).
    "tensor::matmul::matmul_into",
    "tensor::matmul::matmul_into_serial",
    "tensor::matmul::matmul_transpose_a",
    "tensor::matmul::matmul_transpose_a_serial",
    "tensor::matmul::matmul_transpose_b",
    "tensor::matmul::matmul_transpose_b_serial",
    // Convolution lowering kernels.
    "tensor::im2col::im2col",
    "tensor::im2col::col2im",
    // The worker-pool dispatch fast path.
    "tensor::par::dispatch",
    // Flat vector kernels.
    "tensor::vecops::dot",
    "tensor::vecops::l2_norm",
    "tensor::vecops::sq_distance",
    "tensor::vecops::l2_distance",
    "tensor::vecops::axpy_in_place",
    "tensor::vecops::mean_into",
    "tensor::vecops::std_dev_into",
    "tensor::vecops::median_into",
    "tensor::vecops::trimmed_mean_into",
    "tensor::vecops::pairwise_sq_distances_into",
    // FoolsGold's reference-centred kernels: every round close runs them
    // per update (`l2_norm_delta`) and per pair (`dot_delta`).
    "tensor::vecops::dot_delta",
    "tensor::vecops::l2_norm_delta",
    // Blocked/tiled O(n²) kernel drivers (§4e): the register-blocked Krum
    // distance tile, and the generic tile FoolsGold's cosine pass uses.
    "tensor::vecops::sq_distance_tile_into",
    "tensor::vecops::pairwise_tile_into",
    // Quantized-transport wire kernels: encode runs per client per round,
    // decode per submission on the server ingest path, and the in-place
    // roundtrip on every staged payload under a quantized transport.
    "tensor::quant::f16_encode_into",
    "tensor::quant::f16_decode_into",
    "tensor::quant::i8_encode_into",
    "tensor::quant::i8_decode_into",
    "tensor::quant::decode_into",
    "tensor::quant::roundtrip_in_place",
    // Aggregation score/coordinate kernels: the dense-matrix Krum scorer
    // and the blocked one (distance tiles plus the parallel selection).
    // The tensor helpers they call (`scratch::scratch_f32`) are NOT
    // listed — they must be proven hot *through* the cross-crate edge,
    // which is exactly the edge a per-crate graph would miss.
    "aggregation::krum::krum_scores_into",
    "aggregation::krum::krum_scores_blocked_into",
    "aggregation::bulyan::bulyan_coordinate_chunk",
    // FoolsGold's weight pass: every FoolsGold close runs its two tile
    // sweeps over all n² update pairs.
    "aggregation::foolsgold::foolsgold_weights",
    // Layer forward/backward over im2col + GEMM; `backward_params` is the
    // first layer's backward in every local training step.
    "nn::conv::Conv2d::forward",
    "nn::conv::Conv2d::backward",
    "nn::conv::Conv2d::backward_params",
    "nn::conv_transpose::ConvTranspose2d::forward",
    "nn::conv_transpose::ConvTranspose2d::backward",
    // The element-wise and pooling layers between the convolutions, which
    // touch every activation of every local training step.
    "nn::activations::Relu::forward",
    "nn::activations::Relu::backward",
    "nn::pool::MaxPool2d::forward",
    "nn::pool::MaxPool2d::backward",
];

/// Method names that allocate (or amortize allocation) on `std`
/// containers. Over-approximate on purpose: a workspace method sharing a
/// name is still hot-scanned, and `sort_unstable*` is deliberately
/// absent (in-place pdqsort — the blessed hot-loop sort).
const ALLOC_METHODS: &[&str] = &[
    "append",
    "clone",
    "cloned",
    "collect",
    "concat",
    "extend",
    "extend_from_slice",
    "insert",
    "into_vec",
    "join",
    "push",
    "repeat",
    "reserve",
    "reserve_exact",
    "resize",
    "resize_with",
    "sort",
    "sort_by",
    "sort_by_cached_key",
    "sort_by_key",
    "split_off",
    "to_owned",
    "to_string",
    "to_vec",
];

/// Two-segment path suffixes that construct heap storage.
const ALLOC_PATHS: &[&str] = &[
    "Arc::new",
    "BTreeMap::new",
    "BTreeSet::new",
    "Box::from",
    "Box::new",
    "HashMap::new",
    "HashSet::new",
    "Rc::new",
    "String::from",
    "String::new",
    "String::with_capacity",
    "Vec::from",
    "Vec::new",
    "Vec::with_capacity",
    "VecDeque::new",
];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["eprintln", "format", "println", "vec"];

/// Extern package name → crate directory, for the workspace's own
/// numeric crates (`Cargo.toml` package names differ from directory
/// names). Paths entering through `use fabflip_agg::…` or written
/// `fabflip_agg::…` inline normalize to the `aggregation::…` namespace
/// the node FQNs use.
const CRATE_ALIASES: &[(&str, &str)] = &[
    ("fabflip_agg", "aggregation"),
    ("fabflip_attacks", "attacks"),
    ("fabflip_data", "data"),
    ("fabflip_fl", "fl"),
    ("fabflip_nn", "nn"),
    ("fabflip_serve", "serve"),
    ("fabflip_tensor", "tensor"),
];

/// Macros that write to stdout/stderr.
const IO_MACROS: &[&str] = &["eprint", "eprintln", "print", "println"];

/// Methods that acquire blocking synchronization primitives.
const IO_BLOCKING_METHODS: &[&str] = &["lock", "wait", "wait_timeout", "wait_while"];

/// Path segments that mark filesystem/network/console I/O or blocking
/// primitives (`std::fs::read`, `io::stdout`, `Mutex::new`, …).
const IO_PATH_SEGS: &[&str] = &["Condvar", "Mutex", "fs", "io", "net"];

/// Methods that panic on `None`/`Err`.
const PANIC_METHODS: &[&str] = &["expect", "expect_err", "unwrap", "unwrap_err"];

/// Macros that panic. `debug_assert*` is excluded: the hot path ships in
/// release builds where those compile out.
const PANIC_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
];

/// One hot (entry-reachable) function, with the call chain that makes it
/// hot — emitted into the `--json` report so CI artifacts show *why*.
#[derive(Debug, Clone)]
pub struct HotNode {
    /// Fully qualified name.
    pub fqn: String,
    /// Root-relative file.
    pub file: String,
    /// 1-based line of the `fn`.
    pub line: u32,
    /// Shortest call chain from an entry to this function (inclusive).
    pub via: Vec<String>,
}

/// The call-graph side of a workspace report.
#[derive(Debug, Clone, Default)]
pub struct HotSummary {
    /// Entry-set functions actually present in the scanned tree.
    pub entries: Vec<String>,
    /// Every hot function, in deterministic (file, line) order.
    pub hot: Vec<HotNode>,
}

/// Result of the hot-path analysis.
#[derive(Debug, Default)]
pub struct Analysis {
    /// `alloc-on-hot-path` (forbidden) + `panic-on-hot-path` (counted)
    /// findings.
    pub findings: Vec<Finding>,
    /// The graph summary for `--json`.
    pub summary: HotSummary,
}

struct Node {
    fqn: String,
    file: String,
    file_idx: usize,
    crate_name: String,
    name: String,
    line: u32,
    calls: Vec<Call>,
    index_sites: Vec<(u32, u32)>,
    is_method: bool,
}

/// Per-file escape-comment lines, by rule.
#[derive(Default)]
struct Escapes {
    alloc: BTreeSet<u32>,
    panic: BTreeSet<u32>,
    io: BTreeSet<u32>,
}

impl Escapes {
    /// Whether an alloc or panic escape covers `line` — these drop call
    /// edges (a declared setup-only branch does not extend the hot
    /// region). An io escape only suppresses io findings: the code it
    /// blesses still runs hot.
    fn drops_edges(&self, line: u32) -> bool {
        self.alloc.contains(&line) || self.panic.contains(&line)
    }
}

/// The module path a file contributes to its crate's namespace:
/// `crates/tensor/src/matmul.rs` → `["matmul"]`, crate roots and
/// `mod.rs` → `[]`, `src/bin/perf.rs` → `["bin", "perf"]`.
fn file_mods(rel: &str, crate_name: &str) -> Vec<String> {
    let tail = rel
        .strip_prefix(&format!("crates/{crate_name}/"))
        .unwrap_or(rel);
    let tail = tail.strip_prefix("src/").unwrap_or(tail);
    let tail = tail.strip_suffix(".rs").unwrap_or(tail);
    tail.split('/')
        .filter(|seg| !seg.is_empty() && !matches!(*seg, "lib" | "main" | "mod"))
        .map(str::to_string)
        .collect()
}

fn fqn_of(crate_name: &str, rel: &str, f: &FnNode) -> String {
    let mut parts: Vec<String> = vec![crate_name.to_string()];
    parts.extend(file_mods(rel, crate_name));
    parts.extend(f.mods.iter().cloned());
    if let Some(ty) = &f.impl_type {
        parts.push(ty.clone());
    }
    parts.push(f.name.clone());
    parts.join("::")
}

/// Escape-comment coverage per rule; see [`allow_lines`] for the
/// coverage/continuation semantics (full-line comment chains continue, a
/// blank line or a trailing comment on a code line ends the chain).
fn escapes_of(lexed: &Lexed) -> Escapes {
    Escapes {
        alloc: allow_lines(&lexed.comments, &lexed.tokens, "alloc_on_hot_path"),
        panic: allow_lines(&lexed.comments, &lexed.tokens, "panic_on_hot_path"),
        io: allow_lines(&lexed.comments, &lexed.tokens, "io_on_hot_path"),
    }
}

/// Builds the call graph over the workspace's files and runs the
/// hot-path rules. Only numeric-crate product code enters the graph:
/// test code may allocate, and tooling crates (fabcheck itself, bench
/// harnesses outside [`NUMERIC_CRATES`]) would otherwise be dragged in
/// by method-name over-approximation (`.parse()` in `par` must not mark
/// every workspace `parse` method hot).
pub fn analyze(files: &[SourceFile]) -> Analysis {
    let mut nodes: Vec<Node> = Vec::new();
    let mut escapes: Vec<Escapes> = Vec::new();
    // Per-file import alias map: in-scope name → expanded path segments
    // with extern package names already normalized to crate directories.
    let mut use_maps: Vec<BTreeMap<String, Vec<String>>> = Vec::new();
    let crate_dir = |seg: &str| -> String {
        CRATE_ALIASES
            .iter()
            .find(|(pkg, _)| *pkg == seg)
            .map(|(_, dir)| (*dir).to_string())
            .unwrap_or_else(|| seg.to_string())
    };
    for (file_idx, file) in files.iter().enumerate() {
        let class = &file.class;
        // The serving shell joins the graph alongside the numeric crates:
        // its per-submission ingest calls straight into hot fl/tensor
        // kernels, and those cross-crate edges are what keep a stray
        // socket or Vec in the core visible from a serve-side route.
        let in_graph = NUMERIC_CRATES.contains(&class.crate_name.as_str())
            || class.rel.starts_with(BLESSED_SERVE_DIR);
        if !class.in_crates || class.is_test_file || !in_graph {
            escapes.push(Escapes::default());
            use_maps.push(BTreeMap::new());
            continue;
        }
        let lexed = &file.lexed;
        escapes.push(escapes_of(lexed));
        let mut aliases = BTreeMap::new();
        for u in parse_uses(&lexed.tokens) {
            let mut segs = u.segs;
            segs[0] = crate_dir(&segs[0]);
            aliases.insert(u.alias, segs);
        }
        use_maps.push(aliases);
        for f in parse_tokens(&lexed.tokens, &file.test_spans) {
            if f.is_test {
                continue;
            }
            nodes.push(Node {
                fqn: fqn_of(&class.crate_name, &class.rel, &f),
                file: class.rel.clone(),
                file_idx,
                crate_name: class.crate_name.clone(),
                name: f.name.clone(),
                line: f.line,
                calls: f.calls,
                index_sites: f.index_sites,
                is_method: f.impl_type.is_some(),
            });
        }
    }

    // Name indexes for resolution.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_name.entry(&n.name).or_default().push(i);
        if n.is_method {
            methods.entry(&n.name).or_default().push(i);
        }
    }
    let resolve = |call: &Call, from: &Node| -> Vec<usize> {
        match call.kind {
            CallKind::Method => methods.get(call.name()).cloned().unwrap_or_default(),
            CallKind::Macro => Vec::new(),
            CallKind::Path { .. } => {
                // Cross-crate expansion: rewrite the leading segment
                // through the file's `use` aliases (`vecops::x` →
                // `tensor::vecops::x` after `use fabflip_tensor::vecops`),
                // then normalize an extern package name written inline.
                let mut segs: Vec<String> = call.segs.clone();
                if let Some(mapped) = use_maps[from.file_idx].get(&segs[0]) {
                    let mut expanded = mapped.clone();
                    expanded.extend(segs[1..].iter().cloned());
                    segs = expanded;
                }
                segs[0] = crate_dir(&segs[0]);
                if segs.len() == 1 {
                    let cands = by_name.get(call.name()).map(Vec::as_slice).unwrap_or(&[]);
                    let same_file: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&i| nodes[i].file_idx == from.file_idx)
                        .collect();
                    if !same_file.is_empty() {
                        return same_file;
                    }
                    let same_crate: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&i| nodes[i].crate_name == from.crate_name)
                        .collect();
                    if !same_crate.is_empty() {
                        return same_crate;
                    }
                    return cands.to_vec();
                }
                // Longest-suffix match: `start == 0` is the exact
                // fully-qualified name after expansion; later starts drop
                // leading segments so partially-qualified paths (written
                // without an importing `use`) still resolve.
                for start in 0..segs.len() - 1 {
                    let suffix = segs[start..].join("::");
                    let hits: Vec<usize> = by_name
                        .get(segs.last().map(String::as_str).unwrap_or_default())
                        .map(Vec::as_slice)
                        .unwrap_or(&[])
                        .iter()
                        .copied()
                        .filter(|&i| {
                            nodes[i].fqn == suffix || nodes[i].fqn.ends_with(&format!("::{suffix}"))
                        })
                        .collect();
                    if !hits.is_empty() {
                        return hits;
                    }
                }
                Vec::new()
            }
        }
    };

    // BFS from the entry set; parent pointers give shortest "why hot"
    // chains. Entry order and adjacency order are deterministic (sorted
    // walk, source token order).
    let mut entry_idx: Vec<usize> = (0..nodes.len())
        .filter(|&i| HOT_ENTRIES.contains(&nodes[i].fqn.as_str()))
        .collect();
    entry_idx.sort_by(|&a, &b| nodes[a].fqn.cmp(&nodes[b].fqn));
    let mut visited = vec![false; nodes.len()];
    let mut parent: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &e in &entry_idx {
        visited[e] = true;
        queue.push_back(e);
    }
    let mut hot_order: Vec<usize> = Vec::new();
    while let Some(u) = queue.pop_front() {
        hot_order.push(u);
        for call in &nodes[u].calls {
            // An escaped line is a declared setup-only branch: it does
            // not extend the hot region.
            if escapes[nodes[u].file_idx].drops_edges(call.line) {
                continue;
            }
            for v in resolve(call, &nodes[u]) {
                // The serving shell is an I/O boundary, not a kernel:
                // hot reachability stops at its door. Its sockets,
                // checkpoint writes and queue locks are its job
                // (io-on-hot-path is directory-blessed below), and
                // letting name-over-approximated edges wander through
                // the shell would drag `fs`/`net` helpers of the core
                // into the hot set along false routes. Core functions
                // the shell calls stay audited through their own
                // entries (`aggregation::krum`, `tensor::quant`, …).
                if nodes[v].file.starts_with(BLESSED_SERVE_DIR) {
                    continue;
                }
                if !visited[v] {
                    visited[v] = true;
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
    }

    let chain = |mut i: usize| -> Vec<String> {
        let mut out = vec![nodes[i].fqn.clone()];
        while let Some(p) = parent[i] {
            out.push(nodes[p].fqn.clone());
            i = p;
        }
        out.reverse();
        out
    };

    let mut findings = Vec::new();
    for &u in &hot_order {
        let node = &nodes[u];
        let esc = &escapes[node.file_idx];
        let route = chain(u).join(" → ");
        // The worker pool is the one blessed home for blocking
        // synchronization (park/unpark handshakes), and the serving
        // shell's whole job is I/O (sockets, checkpoints, queue locks) —
        // mirroring BLESSED_SIMD_DIR, the shell is blessed as a
        // directory. Everything else hot must stay pure.
        let io_applies =
            node.file != BLESSED_THREAD_FILE && !node.file.starts_with(BLESSED_SERVE_DIR);
        let mut push = |rule: Rule, line: u32, col: u32, needle: &str| {
            let (verb, remedy) = match rule {
                Rule::AllocOnHotPath => (
                    "allocates",
                    "hoist it, reuse a `tensor::scratch` arena, or mark a setup-only \
                     branch with `// fabcheck::allow(alloc_on_hot_path): why`",
                ),
                Rule::IoOnHotPath => (
                    "performs I/O or blocking synchronization",
                    "the deterministic core stays pure so a serving shell can wrap \
                     it — move this behind the wire layer, or mark a setup-only \
                     branch with `// fabcheck::allow(io_on_hot_path): why`",
                ),
                _ => (
                    "can panic",
                    "ratcheted — prefer checked access, or shrink the committed baseline",
                ),
            };
            findings.push(Finding {
                rule,
                file: node.file.clone(),
                line,
                col,
                message: format!("`{needle}` {verb} on the hot path ({route}); {remedy}"),
            });
        };
        for call in &node.calls {
            let name = call.name();
            match call.kind {
                CallKind::Method => {
                    if ALLOC_METHODS.contains(&name) && !esc.alloc.contains(&call.line) {
                        push(
                            Rule::AllocOnHotPath,
                            call.line,
                            call.col,
                            &format!(".{name}()"),
                        );
                    }
                    if PANIC_METHODS.contains(&name) && !esc.panic.contains(&call.line) {
                        push(
                            Rule::PanicOnHotPath,
                            call.line,
                            call.col,
                            &format!(".{name}()"),
                        );
                    }
                    if io_applies
                        && IO_BLOCKING_METHODS.contains(&name)
                        && !esc.io.contains(&call.line)
                    {
                        push(
                            Rule::IoOnHotPath,
                            call.line,
                            call.col,
                            &format!(".{name}()"),
                        );
                    }
                }
                CallKind::Macro => {
                    if ALLOC_MACROS.contains(&name) && !esc.alloc.contains(&call.line) {
                        push(
                            Rule::AllocOnHotPath,
                            call.line,
                            call.col,
                            &format!("{name}!"),
                        );
                    }
                    if PANIC_MACROS.contains(&name) && !esc.panic.contains(&call.line) {
                        push(
                            Rule::PanicOnHotPath,
                            call.line,
                            call.col,
                            &format!("{name}!"),
                        );
                    }
                    if io_applies && IO_MACROS.contains(&name) && !esc.io.contains(&call.line) {
                        push(Rule::IoOnHotPath, call.line, call.col, &format!("{name}!"));
                    }
                }
                CallKind::Path { .. } => {
                    if call.segs.len() >= 2 {
                        let tail = format!(
                            "{}::{}",
                            call.segs[call.segs.len() - 2],
                            call.segs[call.segs.len() - 1]
                        );
                        if ALLOC_PATHS.contains(&tail.as_str()) && !esc.alloc.contains(&call.line) {
                            push(Rule::AllocOnHotPath, call.line, call.col, &tail);
                        }
                        if io_applies
                            && call.segs.iter().any(|s| IO_PATH_SEGS.contains(&s.as_str()))
                            && !esc.io.contains(&call.line)
                        {
                            push(
                                Rule::IoOnHotPath,
                                call.line,
                                call.col,
                                &call.segs.join("::"),
                            );
                        }
                    }
                }
            }
        }
        for &(line, col) in &node.index_sites {
            if !esc.panic.contains(&line) {
                push(Rule::PanicOnHotPath, line, col, "[..] indexing");
            }
        }
    }

    let mut hot: Vec<HotNode> = hot_order
        .iter()
        .map(|&u| HotNode {
            fqn: nodes[u].fqn.clone(),
            file: nodes[u].file.clone(),
            line: nodes[u].line,
            via: chain(u),
        })
        .collect();
    hot.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Analysis {
        findings,
        summary: HotSummary {
            entries: entry_idx.iter().map(|&e| nodes[e].fqn.clone()).collect(),
            hot,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::classify;

    fn run(files: &[(&str, &str)]) -> Analysis {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|(rel, src)| SourceFile::new(classify(rel), src.to_string()))
            .collect();
        analyze(&files)
    }

    fn rule_names(a: &Analysis) -> Vec<&str> {
        a.findings.iter().map(|f| f.rule.name()).collect()
    }

    #[test]
    fn allocation_two_calls_below_an_entry_is_found() {
        let a = run(&[(
            "crates/tensor/src/matmul.rs",
            "pub fn matmul_into(out: &mut [f32]) { stage(out); }\n\
             fn stage(out: &mut [f32]) { helper(out); }\n\
             fn helper(out: &mut [f32]) { let v = out.to_vec(); let _ = v; }\n",
        )]);
        assert_eq!(rule_names(&a), ["alloc-on-hot-path"]);
        let f = &a.findings[0];
        assert_eq!(f.line, 3);
        assert!(
            f.message
                .contains("matmul_into → tensor::matmul::stage → tensor::matmul::helper")
                || f.message.contains("stage"),
            "{}",
            f.message
        );
    }

    #[test]
    fn cold_functions_may_allocate_freely() {
        let a = run(&[(
            "crates/tensor/src/matmul.rs",
            "pub fn matmul_into(out: &mut [f32]) { kernel(out); }\n\
             fn kernel(out: &mut [f32]) { out[0] = 1.0; }\n\
             pub fn matmul(n: usize) -> Vec<f32> { let mut v = vec![0.0; n]; matmul_into(&mut v); v }\n",
        )]);
        // The wrapper calls INTO the entry; it is not reachable FROM it.
        assert_eq!(rule_names(&a), ["panic-on-hot-path"]);
    }

    #[test]
    fn escape_comment_suppresses_site_and_drops_the_edge() {
        let a = run(&[(
            "crates/tensor/src/matmul.rs",
            "pub fn matmul_into(out: &mut [f32]) {\n\
             // fabcheck::allow(alloc_on_hot_path): one-time setup\n\
             let v = setup();\n\
             let _ = (v, out);\n\
             }\n\
             fn setup() -> Vec<f32> { Vec::new() }\n",
        )]);
        assert!(rule_names(&a).is_empty(), "{:?}", a.findings);
        // setup() is not hot: the escaped line's edge was dropped.
        assert!(a
            .summary
            .hot
            .iter()
            .all(|h| h.fqn != "tensor::matmul::setup"));
    }

    #[test]
    fn method_calls_over_approximate_across_impls() {
        let a = run(&[
            (
                "crates/nn/src/conv.rs",
                "impl Conv2d { pub fn forward(&self, t: &Tensor) { t.payload(); } }\n",
            ),
            (
                "crates/tensor/src/lib.rs",
                "impl Tensor { pub fn payload(&self) -> Vec<f32> { self.data.clone() } }\n",
            ),
        ]);
        assert_eq!(rule_names(&a), ["alloc-on-hot-path"]);
        assert_eq!(a.findings[0].file, "crates/tensor/src/lib.rs");
    }

    #[test]
    fn panic_sites_are_counted_not_forbidden() {
        let a = run(&[(
            "crates/tensor/src/vecops.rs",
            "pub fn dot(a: &[f32], b: &[f32]) -> f32 {\n\
             assert_eq!(a.len(), b.len());\n\
             let x = a[0] * b[0];\n\
             let y = a.first().unwrap();\n\
             x + y\n\
             }\n",
        )]);
        // assert_eq!, a[0], b[0], unwrap → four counted sites.
        let names = rule_names(&a);
        assert_eq!(names, ["panic-on-hot-path"; 4]);
        assert!(a.findings.iter().all(|f| !f.rule.is_forbidden()));
    }

    #[test]
    fn test_code_and_non_crates_files_are_outside_the_graph() {
        let a = run(&[
            (
                "crates/tensor/src/matmul.rs",
                "pub fn matmul_into(o: &mut [f32]) { let _ = o; }\n\
                 #[cfg(test)]\nmod tests { fn t() { let v = Vec::new(); matmul_into(&mut v); } }\n",
            ),
            (
                "compat/serde/src/lib.rs",
                "pub fn join() -> Vec<u8> { Vec::new() }\n",
            ),
        ]);
        assert!(rule_names(&a).is_empty(), "{:?}", a.findings);
        assert_eq!(a.summary.entries, ["tensor::matmul::matmul_into"]);
    }

    #[test]
    fn entries_absent_from_the_tree_are_not_reported() {
        let a = run(&[("crates/fl/src/sim.rs", "pub fn run() {}\n")]);
        assert!(a.summary.entries.is_empty());
        assert!(a.summary.hot.is_empty());
    }

    #[test]
    fn impl_entries_match_their_type_qualified_name() {
        let a = run(&[(
            "crates/nn/src/conv.rs",
            "impl Conv2d { pub fn forward(&self) { let v: Vec<f32> = Vec::with_capacity(3); let _ = v; } }\n",
        )]);
        assert_eq!(a.summary.entries, ["nn::conv::Conv2d::forward"]);
        assert_eq!(rule_names(&a), ["alloc-on-hot-path"]);
    }
}
