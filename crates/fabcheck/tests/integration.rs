//! End-to-end tests: scan the known-bad and known-clean fixture
//! workspaces under `tests/fixtures/`, through both the library API and
//! the compiled binary (exit codes, `--json` output, `--bless`).

use fabcheck::rules::Rule;
use fabcheck::{check_workspace, ratchet};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Copies a fixture workspace into a fresh temp dir (for tests that
/// mutate files or bless baselines).
fn copy_fixture(name: &str, tag: &str) -> PathBuf {
    let dst = std::env::temp_dir().join(format!("fabcheck-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dst);
    copy_tree(&fixture(name), &dst).expect("fixture copy");
    dst
}

fn copy_tree(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

fn run_binary(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fabcheck"))
        .args(args)
        .output()
        .expect("spawn fabcheck binary");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_fixture_reports_every_forbidden_rule() {
    let report = check_workspace(&fixture("bad")).expect("scan");
    let fired: Vec<&str> = report.findings.iter().map(|f| f.rule.name()).collect();
    for rule in [
        "nondeterministic-collection",
        "entropy-rng",
        "wallclock-in-kernel",
        "env-var-outside-config",
        "unsafe-without-safety-comment",
        "thread-spawn-outside-par",
        "alloc-on-hot-path",
        "seed-stream-registry",
        "unordered-float-reduction",
        "io-on-hot-path",
        "unclaimed-raw-span",
        "backend-parity",
    ] {
        assert!(fired.contains(&rule), "missing {rule} in {fired:?}");
    }
    // The reachability finding names the route that makes the site hot.
    let alloc_hit = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::AllocOnHotPath)
        .expect("alloc finding");
    assert_eq!(alloc_hit.file, "crates/tensor/src/matmul.rs");
    assert!(
        alloc_hit
            .message
            .contains("tensor::matmul::matmul_into → tensor::matmul::pack"),
        "route missing: {}",
        alloc_hit.message
    );
    // Counted debt: two unwraps, one todo!, three hot-path panic sites.
    assert_eq!(
        report.counts["unwrap-in-lib"]["crates/nn/src/lib.rs"], 2,
        "counts: {:?}",
        report.counts
    );
    assert_eq!(
        report.counts["todo-unimplemented"]["crates/nn/src/lib.rs"],
        1
    );
    assert_eq!(
        report.counts["panic-on-hot-path"]["crates/tensor/src/matmul.rs"],
        3
    );
    // The sum-strided carve in par.rs: claimed disjoint, unprovable, and
    // so a forbidden raw-span finding at the call.
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == Rule::UnclaimedRawSpan
                && f.file == "crates/tensor/src/par.rs"
                && (f.line, f.col) == (28, 37)
                && f.message.contains("recognized partition pattern")),
        "{:?}",
        report.findings
    );
    // Findings carry exact positions, each at its `unsafe` token: the
    // free-text or wrong-kind SAFETY claims in the blessed regions, the
    // unproven avx512f call (avx512.rs:18), and the unsafe blocks outside
    // the blessed homes, documented (simd.rs:10) or not (kernel.rs:12).
    let unsafe_sites: Vec<(&str, u32)> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::UnsafeWithoutSafetyComment)
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    assert_eq!(
        unsafe_sites,
        [
            ("crates/tensor/src/backend/avx2.rs", 15),
            ("crates/tensor/src/backend/avx2.rs", 35),
            ("crates/tensor/src/backend/avx512.rs", 18),
            ("crates/tensor/src/kernel.rs", 12),
            ("crates/tensor/src/par.rs", 11),
            ("crates/tensor/src/par.rs", 15),
            ("crates/tensor/src/simd.rs", 10),
        ]
    );
}

#[test]
fn bad_fixture_regresses_against_its_baseline() {
    let report = check_workspace(&fixture("bad")).expect("scan");
    // The bad baseline was blessed before panic-on-hot-path was counted:
    // its counts have no cell for that rule.
    let baseline = ratchet::load(&fixture("bad").join("FABCHECK_BASELINE.json")).expect("baseline");
    let (regressions, _) = ratchet::compare(&baseline, &report.counts);
    // unwrap-in-lib grew 1 → 2, todo-unimplemented appeared 0 → 1, and
    // panic-on-hot-path (0 → 3) appeared.
    assert_eq!(regressions.len(), 3, "{regressions:?}");
    assert!(regressions
        .iter()
        .any(|r| r.rule == "unwrap-in-lib" && r.baseline == 1 && r.actual == 2));
    assert!(regressions
        .iter()
        .any(|r| r.rule == "todo-unimplemented" && r.baseline == 0));
    assert!(regressions
        .iter()
        .any(|r| r.rule == "panic-on-hot-path" && r.baseline == 0 && r.actual == 3));
}

#[test]
fn clean_fixture_is_silent() {
    let report = check_workspace(&fixture("clean")).expect("scan");
    assert!(
        report.findings.is_empty(),
        "false positives: {:?}",
        report.findings
    );
    assert!(report.counted.is_empty(), "{:?}", report.counted);
    // 9 files: the serve shell (`crates/serve/src/shell.rs`) is full of
    // sockets, locks, and spawns, and must still be silent — the blessed
    // I/O boundary.
    assert_eq!(report.files_checked, 9);
}

#[test]
fn binary_ci_mode_exit_codes() {
    let bad = fixture("bad");
    let (code, _, _) = run_binary(&["--ci", "--root", bad.to_str().expect("utf8 path")]);
    assert_eq!(code, 1);

    let clean = fixture("clean");
    let (code, stdout, stderr) =
        run_binary(&["--ci", "--root", clean.to_str().expect("utf8 path")]);
    assert_eq!(code, 0, "stdout: {stdout} stderr: {stderr}");
    assert!(stdout.contains("0 forbidden finding(s)"));
}

#[test]
fn binary_json_output_is_machine_readable() {
    let bad = fixture("bad");
    let (code, stdout, _) = run_binary(&["--json", "--root", bad.to_str().expect("utf8 path")]);
    assert_eq!(code, 1);
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    let map = v.as_map().expect("object");
    let findings = map
        .iter()
        .find(|(k, _)| k == "findings")
        .and_then(|(_, v)| match v {
            serde_json::Value::Seq(items) => Some(items.len()),
            _ => None,
        })
        .expect("findings array");
    assert!(findings >= 5, "expected >=5 findings, got {findings}");
}

#[test]
fn corrupting_a_clean_tree_flips_exit_to_nonzero() {
    let dir = copy_fixture("clean", "corrupt");
    let root = dir.to_str().expect("utf8 path");
    let (code, _, _) = run_binary(&["--ci", "--root", root]);
    assert_eq!(code, 0);
    // Introduce one entropy call.
    let target = dir.join("crates/fl/src/sim.rs");
    let mut src = std::fs::read_to_string(&target).expect("read fixture");
    src.push_str("\npub fn corrupted() {\n    let _ = rand::thread_rng();\n}\n");
    std::fs::write(&target, src).expect("write fixture");
    let (code, stdout, _) = run_binary(&["--ci", "--root", root]);
    assert_eq!(code, 1, "stdout: {stdout}");
    assert!(stdout.contains("entropy-rng"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance pin: planting a call to a `#[target_feature]` kernel from
/// an ordinary function in a clean tree flips `--ci` to failure via the
/// unsafe rule's ISA check, feature claim notwithstanding.
#[test]
fn unguarded_target_feature_call_flips_ci() {
    let dir = copy_fixture("clean", "tfcall");
    let root = dir.to_str().expect("utf8 path");
    let (code, _, _) = run_binary(&["--ci", "--root", root]);
    assert_eq!(code, 0);
    let target = dir.join("crates/tensor/src/backend/avx2.rs");
    let mut src = std::fs::read_to_string(&target).expect("read fixture");
    src.push_str(
        "\n#[target_feature(enable = \"avx512f\")]\n\
         fn gated(v: &[f32]) -> f32 {\n    v[0]\n}\n\n\
         pub fn hasty(v: &[f32]) -> f32 {\n    \
         // SAFETY(feature: avx512f): claimed but never detection-proven.\n    \
         unsafe { gated(v) }\n}\n",
    );
    std::fs::write(&target, src).expect("write fixture");
    let (code, stdout, _) = run_binary(&["--ci", "--root", root]);
    assert_eq!(code, 1, "stdout: {stdout}");
    assert!(
        stdout.contains("error[fabcheck::unsafe-without-safety-comment]"),
        "{stdout}"
    );
    assert!(stdout.contains("needing `avx512f`"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance pin: a `fabcheck::claim(disjoint)` carve whose offset the
/// recognizer cannot prove disjoint (an overlapping sum stride) is an
/// `unclaimed-raw-span` finding and flips `--ci` to failure.
#[test]
fn unprovable_span_claim_flips_ci() {
    let dir = copy_fixture("clean", "spanclaim");
    let root = dir.to_str().expect("utf8 path");
    let (code, _, _) = run_binary(&["--ci", "--root", root]);
    assert_eq!(code, 0);
    let target = dir.join("crates/tensor/src/par.rs");
    let mut src = std::fs::read_to_string(&target).expect("read fixture");
    src.push_str(
        "\npub fn overlapping(data: &mut [f32], w: usize, per: usize) {\n    \
         let base = data.as_mut_ptr();\n    \
         let off = w + per / 2;\n    \
         // SAFETY(bound: off + per <= data.len()): scanned, never compiled.\n    \
         // fabcheck::claim(disjoint): spans overlap by half a block — wrong.\n    \
         let s = unsafe { std::slice::from_raw_parts_mut(base.wrapping_add(off), per) };\n    \
         s.fill(0.0);\n}\n",
    );
    std::fs::write(&target, src).expect("write fixture");
    let (code, stdout, _) = run_binary(&["--ci", "--root", root]);
    assert_eq!(code, 1, "stdout: {stdout}");
    assert!(stdout.contains("unclaimed-raw-span"), "{stdout}");
    assert!(stdout.contains("recognized partition pattern"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance pin: a `CpuBackend` method with a default body, which lets
/// a backend skip it without rustc's E0046, is caught by `backend-parity`
/// — the bad fixture's `Scalar` impl inherits `axpy`'s, checked end to
/// end here.
#[test]
fn backend_default_body_fails_ci_with_exact_anchor() {
    let bad = fixture("bad");
    let (code, stdout, _) = run_binary(&["--ci", "--root", bad.to_str().expect("utf8 path")]);
    assert_eq!(code, 1);
    assert!(
        stdout.contains("`CpuBackend::axpy` has a default body"),
        "{stdout}"
    );
    assert!(
        stdout.contains("crates/tensor/src/backend/mod.rs:13"),
        "finding must anchor at the trait method declaration: {stdout}"
    );
}

/// `--explain` prints a rule's contract without scanning; unknown names
/// list the roster and exit 2.
#[test]
fn explain_prints_rule_contracts() {
    let (code, stdout, _) = run_binary(&["--explain", "unsafe-without-safety-comment"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("SAFETY(bound:"), "{stdout}");
    assert!(stdout.contains("SAFETY(feature:"), "{stdout}");
    let (code, _, stderr) = run_binary(&["--explain", "no-such-rule"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unsafe-without-safety-comment"), "{stderr}");
    assert!(stderr.contains("backend-parity"), "{stderr}");
}

/// Acceptance pin on the real tree: every unsafe site in the blessed
/// SIMD backends and the thread layer carries a machine-parsed claim —
/// the audit map reports full coverage for those files.
#[test]
fn real_tree_unsafe_audit_is_fully_claimed_in_blessed_regions() {
    let report = check_workspace(real_root()).expect("scan");
    let blessed: Vec<(&String, &(u64, u64))> = report
        .unsafe_audit
        .iter()
        .filter(|(file, _)| {
            file.starts_with("crates/tensor/src/backend/") || *file == "crates/tensor/src/par.rs"
        })
        .collect();
    assert!(
        !blessed.is_empty(),
        "audit map must cover the blessed regions: {:?}",
        report.unsafe_audit
    );
    for (file, (claimed, total)) in blessed {
        assert_eq!(
            claimed, total,
            "{file}: {claimed}/{total} unsafe sites claimed"
        );
    }
}

#[test]
fn bless_rewrites_baseline_and_future_runs_pass() {
    let dir = copy_fixture("bad", "bless");
    let root = dir.to_str().expect("utf8 path");
    // Counted debt exceeds the baseline: fails before blessing…
    let (code, _, _) = run_binary(&["--ci", "--root", root]);
    assert_eq!(code, 1);
    // …and still fails after, because forbidden findings are never
    // blessed away.
    let (code, _, _) = run_binary(&["--bless", "--root", root]);
    assert_eq!(code, 1);
    let baseline_path = dir.join("FABCHECK_BASELINE.json");
    let blessed = ratchet::load(&baseline_path).expect("blessed baseline");
    assert_eq!(blessed["unwrap-in-lib"]["crates/nn/src/lib.rs"], 2);
    assert_eq!(blessed["todo-unimplemented"]["crates/nn/src/lib.rs"], 1);
    assert_eq!(
        blessed["panic-on-hot-path"]["crates/tensor/src/matmul.rs"],
        3
    );
    // The blessed baseline is the v5 envelope: the counts and nothing
    // the ratchet does not compare.
    let raw = std::fs::read_to_string(&baseline_path).expect("read blessed");
    assert!(
        raw.starts_with("{\n  \"schema_version\": 5,\n  \"counts\": {"),
        "{raw}"
    );
    assert!(
        !raw.contains("\"rules\"") && !raw.contains("unsafe_audit"),
        "{raw}"
    );
    // With the counted debt blessed, only the forbidden findings remain.
    let report = check_workspace(&dir).expect("scan");
    let (regressions, _) = ratchet::compare(&blessed, &report.counts);
    assert!(regressions.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_baseline_fails_closed_on_counted_debt() {
    let dir = copy_fixture("bad", "nobase");
    std::fs::remove_file(dir.join("FABCHECK_BASELINE.json")).expect("remove baseline");
    let report = check_workspace(&dir).expect("scan");
    let baseline = ratchet::load(&dir.join("FABCHECK_BASELINE.json")).expect("empty baseline");
    let (regressions, _) = ratchet::compare(&baseline, &report.counts);
    assert!(
        !regressions.is_empty(),
        "counted debt must regress against an absent baseline"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Diagnostics are a deterministic function of the tree: two runs emit
/// byte-identical `--json` reports, pinned against a committed golden
/// file (regenerate with
/// `cargo run -p fabcheck -- --json --root crates/fabcheck/tests/fixtures/bad`).
#[test]
fn json_output_matches_golden_file() {
    let bad = fixture("bad");
    let root = bad.to_str().expect("utf8 path");
    let (_, first, _) = run_binary(&["--json", "--root", root]);
    let (_, second, _) = run_binary(&["--json", "--root", root]);
    assert_eq!(first, second, "two runs diverged");
    let golden = std::fs::read_to_string(bad.join("expected.json")).expect("golden file");
    assert_eq!(first, golden, "regenerate the golden file if intentional");
    // The report explains WHY a site is hot: the callgraph section lists
    // each hot function with its entry route.
    let v: serde_json::Value = serde_json::from_str(&first).expect("valid JSON");
    let callgraph = v
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == "callgraph"))
        .map(|(_, v)| format!("{v:?}"))
        .expect("callgraph section");
    assert!(callgraph.contains("tensor::matmul::pack"), "{callgraph}");
}

/// The allow-comment scoping bugfix, pinned against the fixture: an
/// allow separated from its site by a blank line must NOT suppress, and
/// coverage consumed by one line must not chain through a *trailing*
/// comment onto the next line. Only full-line comments continue a block.
#[test]
fn allow_comments_do_not_chain_past_blank_lines_or_trailing_comments() {
    let report = check_workspace(&fixture("bad")).expect("scan");
    let reduce_lines: Vec<u32> = report
        .findings
        .iter()
        .filter(|f| {
            f.rule == Rule::UnorderedFloatReduction && f.file == "crates/tensor/src/reduce.rs"
        })
        .map(|f| f.line)
        .collect();
    // Line 31: the site below the blank-line-separated allow still fires.
    assert!(reduce_lines.contains(&31), "{reduce_lines:?}");
    // Line 36 is covered by its allow; line 37 (after the trailing
    // comment on 36) must NOT inherit that coverage.
    assert!(!reduce_lines.contains(&36), "{reduce_lines:?}");
    assert!(reduce_lines.contains(&37), "{reduce_lines:?}");
}

/// The duplicate-stream-id fixture: both the collision and the
/// unregistered call sites are reported with exact positions.
#[test]
fn seed_stream_registry_findings_are_position_exact() {
    let report = check_workspace(&fixture("bad")).expect("scan");
    let streams: Vec<(&str, u32)> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::SeedStreamRegistry)
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    assert!(
        streams.contains(&("crates/fl/src/faults.rs", 9)),
        "duplicate id missing: {streams:?}"
    );
    assert!(
        streams.contains(&("crates/fl/src/faults.rs", 21)),
        "unregistered constant missing: {streams:?}"
    );
    assert!(
        streams.contains(&("crates/fl/src/sim.rs", 17)),
        "magic literal missing: {streams:?}"
    );
}

/// Only the v5 baseline schema is read: a clean tree whose baseline is
/// the previous v4 envelope fails `--ci` with a message naming that
/// version, and `--bless` replaces it with a v5 baseline the tree then
/// passes.
#[test]
fn old_schema_baseline_is_rejected_until_reblessed() {
    let dir = copy_fixture("clean", "oldschema");
    let root = dir.to_str().expect("utf8 path");
    let baseline_path = dir.join("FABCHECK_BASELINE.json");
    std::fs::write(
        &baseline_path,
        "{\"schema_version\": 4, \"rules\": [\"unwrap-in-lib\"], \
         \"counts\": {\"unwrap-in-lib\": {}}, \"unsafe_audit\": {}}\n",
    )
    .expect("write v4 baseline");
    let (code, _, stderr) = run_binary(&["--ci", "--root", root]);
    assert_eq!(code, 2, "a v4 baseline must not be read");
    assert!(stderr.contains("schema_version 4"), "{stderr}");
    assert!(stderr.contains("--bless"), "{stderr}");
    let (code, _, _) = run_binary(&["--bless", "--root", root]);
    assert_eq!(code, 0);
    let after = std::fs::read_to_string(&baseline_path).expect("read");
    assert!(after.contains("\"schema_version\": 5"), "{after}");
    let (code, _, _) = run_binary(&["--ci", "--root", root]);
    assert_eq!(code, 0, "the re-blessed baseline must pass");
    std::fs::remove_dir_all(&dir).ok();
}

/// Workspace root for tests that scan the real tree.
fn real_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
}

/// The cross-crate edge, pinned: the `--json` callgraph proves an
/// aggregation entry reaches `tensor::scratch::scratch_f32`, which is not
/// itself an entry — the chain a per-crate graph could not see. The
/// shortest route starts at `aggregation::foolsgold::foolsgold_weights`,
/// the first aggregation entry in the BFS's name order.
#[test]
fn cross_crate_hot_chain_appears_in_json_callgraph() {
    let root = real_root().to_str().expect("utf8 path");
    let (_, stdout, _) = run_binary(&["--json", "--root", root]);
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    fn field<'a>(v: &'a serde_json::Value, name: &str) -> Option<&'a serde_json::Value> {
        v.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == name))
            .map(|(_, v)| v)
    }
    fn names(v: &serde_json::Value) -> Vec<&str> {
        match v {
            serde_json::Value::Seq(items) => items.iter().filter_map(|i| i.as_str()).collect(),
            _ => Vec::new(),
        }
    }
    let callgraph = field(&v, "callgraph").expect("callgraph section");
    let entries = names(field(callgraph, "entries").expect("entries"));
    assert!(
        !entries.contains(&"tensor::scratch::scratch_f32"),
        "scratch_f32 must be proven hot, not declared"
    );
    let Some(serde_json::Value::Seq(hot)) = field(callgraph, "hot") else {
        panic!("hot section");
    };
    let record = hot
        .iter()
        .find(|h| {
            field(h, "fn").and_then(serde_json::Value::as_str)
                == Some("tensor::scratch::scratch_f32")
        })
        .expect("scratch_f32 is hot");
    assert_eq!(
        names(field(record, "via").expect("via chain")),
        [
            "aggregation::foolsgold::foolsgold_weights",
            "tensor::scratch::scratch_f32"
        ],
        "route must run from the aggregation entry"
    );
}

/// Copies the real workspace's `crates/`, `compat/`, manifest and
/// baseline into a fresh temp dir and checks that the copy starts clean.
fn copy_real_tree(tag: &str) -> PathBuf {
    let src = real_root();
    let dir = std::env::temp_dir().join(format!("fabcheck-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    copy_tree(&src.join("crates"), &dir.join("crates")).expect("copy crates");
    copy_tree(&src.join("compat"), &dir.join("compat")).expect("copy compat");
    std::fs::copy(src.join("Cargo.toml"), dir.join("Cargo.toml")).expect("copy manifest");
    std::fs::copy(
        src.join(fabcheck::BASELINE_FILE),
        dir.join(fabcheck::BASELINE_FILE),
    )
    .expect("copy baseline");
    let (code, stdout, _) = run_binary(&["--ci", "--root", dir.to_str().expect("utf8 path")]);
    assert_eq!(code, 0, "copied tree must start clean: {stdout}");
    dir
}

/// Planting an allocation in `tensor::scratch::scratch_f32` must flip
/// `--ci` to failure with a route from the aggregation entry — the
/// cross-crate false negative a per-crate graph would ship.
#[test]
fn vec_in_scratch_f32_flips_ci_from_aggregation_entry() {
    let dir = copy_real_tree("xcrate");
    let target = dir.join("crates/tensor/src/scratch.rs");
    let text = std::fs::read_to_string(&target).expect("read scratch.rs");
    let needle = "pub fn scratch_f32(purpose: Purpose, len: usize) -> ScratchBuf {";
    let planted = text.replace(
        needle,
        "pub fn scratch_f32(purpose: Purpose, len: usize) -> ScratchBuf {\n    \
         let _grow = vec![0.0f32; len];",
    );
    assert_ne!(
        planted, text,
        "scratch_f32 signature moved; update the test"
    );
    std::fs::write(&target, planted).expect("write scratch.rs");

    let (code, stdout, _) = run_binary(&["--ci", "--root", dir.to_str().expect("utf8 path")]);
    assert_eq!(code, 1, "planted alloc must fail CI: {stdout}");
    assert!(stdout.contains("alloc-on-hot-path"), "{stdout}");
    assert!(
        stdout.contains("aggregation::foolsgold::foolsgold_weights → tensor::scratch::scratch_f32"),
        "route must start at an aggregation entry: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// FoolsGold's reference-centred kernels are hot entries: planting an
/// allocation in `tensor::vecops::l2_norm_delta` flips `--ci` and names
/// the entry as the route.
#[test]
fn vec_in_l2_norm_delta_flips_ci() {
    let dir = copy_real_tree("normdelta");
    let target = dir.join("crates/tensor/src/vecops.rs");
    let text = std::fs::read_to_string(&target).expect("read vecops.rs");
    let needle = "pub fn l2_norm_delta(a: &[f32], r: &[f32]) -> f32 {";
    let planted = text.replace(
        needle,
        &format!("{needle}\n    let _grow = vec![0.0f32; a.len()];"),
    );
    assert_ne!(
        planted, text,
        "l2_norm_delta signature moved; update the test"
    );
    std::fs::write(&target, planted).expect("write vecops.rs");

    let (code, stdout, _) = run_binary(&["--ci", "--root", dir.to_str().expect("utf8 path")]);
    assert_eq!(code, 1, "planted alloc must fail CI: {stdout}");
    assert!(
        stdout.contains("`vec!` allocates on the hot path (tensor::vecops::l2_norm_delta)"),
        "{stdout}"
    );
    assert!(
        stdout.contains("--> crates/tensor/src/vecops.rs:"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// FoolsGold's weight pass is a hot entry: its O(n) per-close buffers are
/// escaped, so a `Vec::new()` planted in a tile loop flips `--ci`.
#[test]
fn vec_in_foolsgold_tile_loop_flips_ci() {
    let dir = copy_real_tree("foolsgold");
    let target = dir.join("crates/aggregation/src/foolsgold.rs");
    let text = std::fs::read_to_string(&target).expect("read foolsgold.rs");
    let needle = "            vecops::pairwise_tile_into(row_lo, col_lo, cols, d, t, entry);\n";
    let planted = text.replacen(
        needle,
        &format!("{needle}            let _grow: Vec<f32> = Vec::new();\n"),
        1,
    );
    assert_ne!(
        planted, text,
        "the FoolsGold tile loop moved; update the test"
    );
    std::fs::write(&target, planted).expect("write foolsgold.rs");

    let (code, stdout, _) = run_binary(&["--ci", "--root", dir.to_str().expect("utf8 path")]);
    assert_eq!(code, 1, "planted alloc must fail CI: {stdout}");
    assert!(
        stdout.contains(
            "`Vec::new` allocates on the hot path (aggregation::foolsgold::foolsgold_weights)"
        ),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `unsafe-without-safety-comment` reaches test files too: deleting the
/// SAFETY comment above `alloc_guard.rs`'s `unsafe impl GlobalAlloc`
/// flips `--ci`, although no other rule sees `unsafe` in a test file.
#[test]
fn unsafe_impl_in_test_file_needs_its_safety_comment() {
    let dir = copy_real_tree("allocguard");
    let target = dir.join("crates/tensor/tests/alloc_guard.rs");
    let text = std::fs::read_to_string(&target).expect("read alloc_guard.rs");
    let comment = "// SAFETY: delegates every operation to `System`, which upholds the\n\
                   // `GlobalAlloc` contract; the added counter bump has no effect on the\n\
                   // returned memory.\n";
    let planted = text.replace(comment, "");
    assert_ne!(
        planted, text,
        "the GlobalAlloc SAFETY comment moved; update the test"
    );
    std::fs::write(&target, planted).expect("write alloc_guard.rs");

    let (code, stdout, _) = run_binary(&["--ci", "--root", dir.to_str().expect("utf8 path")]);
    assert_eq!(
        code, 1,
        "an undocumented unsafe impl must fail CI: {stdout}"
    );
    assert!(
        stdout.contains("error[fabcheck::unsafe-without-safety-comment]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("--> crates/tensor/tests/alloc_guard.rs:"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The serve-dir blessing must not blunt the rule for the core: the bad
/// fixture's `aggregation::krum::krum_scores_blocked_into` dials a
/// `TcpStream`, and that is still an `io-on-hot-path` finding with a
/// route from the aggregation entry.
#[test]
fn stray_tcp_in_aggregation_hot_entry_still_fires_despite_serve_blessing() {
    let report = check_workspace(&fixture("bad")).expect("scan");
    let io_hit = report
        .findings
        .iter()
        .find(|f| f.rule == Rule::IoOnHotPath && f.file == "crates/aggregation/src/krum.rs")
        .expect("aggregation TcpStream finding");
    assert!(
        io_hit.message.contains("net::TcpStream::connect"),
        "{}",
        io_hit.message
    );
    assert!(
        io_hit
            .message
            .contains("aggregation::krum::krum_scores_blocked_into"),
        "route must name the aggregation entry: {}",
        io_hit.message
    );
}

/// Planting a `TcpStream` in `krum_scores_blocked_into` on the real
/// tree must flip `--ci` to failure — the `crates/serve/` blessing is a
/// directory boundary, not a hole in the aggregation core's purity.
#[test]
fn tcp_dial_in_krum_scorer_flips_ci() {
    let dir = copy_real_tree("tcpplant");
    let target = dir.join("crates/aggregation/src/krum.rs");
    let text = std::fs::read_to_string(&target).expect("read krum.rs");
    let needle = "pub fn krum_scores_blocked_into(\n    refs: &[&[f32]],\n    f: usize,\n    \
                  scores: &mut [f32],\n) -> Result<(), AggError> {";
    let planted = text.replace(
        needle,
        &format!("{needle}\n    let _probe = std::net::TcpStream::connect(\"127.0.0.1:9\");"),
    );
    assert_ne!(
        planted, text,
        "krum_scores_blocked_into signature moved; update the test"
    );
    std::fs::write(&target, planted).expect("write krum.rs");

    let (code, stdout, _) = run_binary(&["--ci", "--root", dir.to_str().expect("utf8 path")]);
    assert_eq!(code, 1, "planted TcpStream must fail CI: {stdout}");
    assert!(stdout.contains("io-on-hot-path"), "{stdout}");
    assert!(
        stdout.contains("aggregation::krum::krum_scores_blocked_into"),
        "route must name the aggregation entry: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The real workspace must stay clean: this is the same check CI runs,
/// kept as a test so `cargo test` alone catches contract violations.
#[test]
fn real_workspace_has_no_forbidden_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let report = check_workspace(root).expect("scan");
    assert!(
        report.findings.is_empty(),
        "forbidden findings in the real tree: {:#?}",
        report.findings
    );
    let baseline = ratchet::load(&root.join(fabcheck::BASELINE_FILE)).expect("baseline");
    let (regressions, _) = ratchet::compare(&baseline, &report.counts);
    assert!(
        regressions.is_empty(),
        "ratchet regressions: {regressions:#?}"
    );
}
