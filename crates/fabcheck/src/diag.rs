//! Diagnostic rendering: rustc-style human output and `--json` machine
//! output. Both are deterministic — findings arrive sorted by file, line,
//! column from the checker and maps are `BTreeMap`s.

use crate::graph::HotSummary;
use crate::ratchet::{json_string, render_counts, Counts, Regression};
use crate::rules::Finding;
use crate::UnsafeAudit;

/// Renders one finding like a rustc diagnostic:
///
/// ```text
/// error[fabcheck::entropy-rng]: `thread_rng` draws OS entropy…
///   --> crates/fl/src/sim.rs:42:17
/// ```
pub fn render_finding(f: &Finding) -> String {
    let severity = if f.rule.is_forbidden() {
        "error"
    } else {
        "note"
    };
    format!(
        "{severity}[fabcheck::{}]: {}\n  --> {}:{}:{}\n",
        f.rule.name(),
        f.message,
        f.file,
        f.line,
        f.col
    )
}

/// Renders a ratchet regression.
pub fn render_regression(r: &Regression) -> String {
    format!(
        "error[fabcheck::ratchet]: {} count in {} grew from {} to {}; \
         remove the new site (or, if the baseline is genuinely stale, run \
         `cargo run -p fabcheck -- --bless`)\n",
        r.rule, r.file, r.baseline, r.actual
    )
}

/// The complete machine-readable report for `--json`: forbidden findings,
/// counted tallies, ratchet regressions, the hot-path call graph
/// (each hot function with the entry chain that makes it hot — the CI
/// artifact answers *why* a path is hot, not just that it is), and the
/// unsafe-site coverage map the CI job summary tabulates.
pub fn render_json(
    findings: &[Finding],
    counts: &Counts,
    regressions: &[Regression],
    hot: &HotSummary,
    unsafe_audit: &UnsafeAudit,
    files_checked: usize,
) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}}}",
            json_string(f.rule.name()),
            json_string(&f.file),
            f.line,
            f.col,
            json_string(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"counts\": ");
    out.push_str(&render_counts(counts));
    out.push_str(",\n  \"regressions\": [");
    for (i, r) in regressions.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"rule\": {}, \"file\": {}, \"baseline\": {}, \"actual\": {}}}",
            json_string(&r.rule),
            json_string(&r.file),
            r.baseline,
            r.actual
        ));
    }
    if !regressions.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"callgraph\": {\n    \"entries\": [");
    for (i, e) in hot.entries.iter().enumerate() {
        out.push_str(if i == 0 { "" } else { ", " });
        out.push_str(&json_string(e));
    }
    out.push_str("],\n    \"hot\": [");
    for (i, h) in hot.hot.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let via: Vec<String> = h.via.iter().map(|v| json_string(v)).collect();
        out.push_str(&format!(
            "      {{\"fn\": {}, \"file\": {}, \"line\": {}, \"via\": [{}]}}",
            json_string(&h.fqn),
            json_string(&h.file),
            h.line,
            via.join(", ")
        ));
    }
    if !hot.hot.is_empty() {
        out.push_str("\n    ");
    }
    out.push_str("]\n  },\n  \"unsafe_audit\": {");
    for (i, (file, (claimed, total))) in unsafe_audit.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {}: {{\"claimed\": {claimed}, \"total\": {total}}}",
            json_string(file)
        ));
    }
    if !unsafe_audit.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("}},\n  \"files_checked\": {files_checked}\n}}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    fn finding() -> Finding {
        Finding {
            rule: Rule::EntropyRng,
            file: "crates/fl/src/sim.rs".into(),
            line: 42,
            col: 17,
            message: "`thread_rng` draws OS entropy".into(),
        }
    }

    #[test]
    fn human_rendering_is_rustc_shaped() {
        let text = render_finding(&finding());
        assert!(text.starts_with("error[fabcheck::entropy-rng]:"));
        assert!(text.contains("--> crates/fl/src/sim.rs:42:17"));
        let counted = Finding {
            rule: Rule::UnwrapInLib,
            ..finding()
        };
        assert!(render_finding(&counted).starts_with("note[fabcheck::unwrap-in-lib]:"));
    }

    #[test]
    fn json_report_parses_back() {
        let mut counts = Counts::new();
        counts
            .entry("unwrap-in-lib".to_string())
            .or_default()
            .insert("a.rs".to_string(), 3);
        let regs = vec![Regression {
            rule: "unwrap-in-lib".into(),
            file: "a.rs".into(),
            baseline: 2,
            actual: 3,
        }];
        let hot = HotSummary {
            entries: vec!["tensor::matmul::matmul_into".into()],
            hot: vec![crate::graph::HotNode {
                fqn: "tensor::matmul::kernel_into".into(),
                file: "crates/tensor/src/matmul.rs".into(),
                line: 7,
                via: vec![
                    "tensor::matmul::matmul_into".into(),
                    "tensor::matmul::kernel_into".into(),
                ],
            }],
        };
        let mut audit = UnsafeAudit::new();
        audit.insert("crates/tensor/src/par.rs".into(), (7, 7));
        let text = render_json(&[finding()], &counts, &regs, &hot, &audit, 90);
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let map = v.as_map().expect("object");
        let keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "findings",
                "counts",
                "regressions",
                "callgraph",
                "unsafe_audit",
                "files_checked"
            ]
        );
        assert!(text.contains("\"via\": [\"tensor::matmul::matmul_into\""));
        assert!(
            text.contains("\"crates/tensor/src/par.rs\": {\"claimed\": 7, \"total\": 7}"),
            "{text}"
        );
    }

    #[test]
    fn empty_report_is_valid_json() {
        let text = render_json(
            &[],
            &Counts::new(),
            &[],
            &HotSummary::default(),
            &UnsafeAudit::new(),
            0,
        );
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert!(v.as_map().is_some());
    }
}
