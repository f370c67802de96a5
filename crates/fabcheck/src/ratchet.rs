//! The counted-rule ratchet: a committed baseline of `rule × file`
//! counts. Counts may only shrink — CI fails when any cell grows, and
//! `fabcheck --bless` rewrites the baseline once counts have been driven
//! down, locking in the improvement. The baseline holds only what
//! [`compare`] reads: the counts.

use std::collections::BTreeMap;
use std::path::Path;

/// `rule name → file → count`, ordered so serialization is deterministic.
pub type Counts = BTreeMap<String, BTreeMap<String, u64>>;

/// Baseline file schema version, the only one `--bless` writes and the
/// only one `load` reads: `{"schema_version": 5, "counts": {…}}`. Every
/// counted rule has an explicit (possibly empty) cell, so the key set of
/// `counts` is the roster of counted rules the baseline was blessed
/// under. Any other version is rejected with a message naming it;
/// `--bless` replaces such a file.
pub const SCHEMA_VERSION: u64 = 5;

/// One cell whose count exceeds the committed baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// Counted rule name.
    pub rule: String,
    /// Root-relative file.
    pub file: String,
    /// Committed count (0 for a file new to the baseline).
    pub baseline: u64,
    /// Observed count.
    pub actual: u64,
}

/// Loads a baseline file. A missing file is an empty baseline (every
/// count regresses against 0), so a fresh checkout fails closed.
///
/// # Errors
///
/// Returns a message for unreadable files, malformed JSON, or a schema
/// version other than [`SCHEMA_VERSION`].
pub fn load(path: &Path) -> Result<Counts, String> {
    if !path.exists() {
        return Ok(Counts::new());
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("malformed baseline {}: {e}", path.display()))
}

/// Reads a non-negative integer out of a JSON value.
fn as_u64(v: &serde_json::Value, what: &str) -> Result<u64, String> {
    v.as_f64()
        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
        .map(|n| n as u64)
        .ok_or_else(|| format!("{what}: expected a non-negative integer"))
}

fn parse(text: &str) -> Result<Counts, String> {
    let value: serde_json::Value = serde_json::from_str(text).map_err(|e| format!("{e:?}"))?;
    let top = value.as_map().ok_or("expected a top-level object")?;
    let field = |name: &str| top.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let ver = field("schema_version")
        .ok_or_else(|| {
            "no \"schema_version\" (a v1 bare-map baseline, no longer read); \
             re-bless with `fabcheck --bless`"
                .to_string()
        })
        .and_then(|v| as_u64(v, "schema_version"))?;
    if ver > SCHEMA_VERSION {
        return Err(format!(
            "schema_version {ver} is newer than this fabcheck (v{SCHEMA_VERSION}); \
             update the tool or re-bless"
        ));
    }
    if ver < SCHEMA_VERSION {
        return Err(format!(
            "schema_version {ver} is no longer read (this fabcheck reads only \
             v{SCHEMA_VERSION}); re-bless with `fabcheck --bless`"
        ));
    }
    let rules = field("counts")
        .ok_or("baseline is missing the \"counts\" object")?
        .as_map()
        .ok_or("expected an object of rule counts")?;
    let mut counts = Counts::new();
    for (rule, files) in rules {
        let files = files
            .as_map()
            .ok_or_else(|| format!("rule {rule:?}: expected an object of file counts"))?;
        let mut per_file = BTreeMap::new();
        for (file, count) in files {
            per_file.insert(file.clone(), as_u64(count, &format!("{rule:?}/{file:?}"))?);
        }
        counts.insert(rule.clone(), per_file);
    }
    Ok(counts)
}

/// Serializes counts as stable, diff-friendly pretty JSON (always the
/// current [`SCHEMA_VERSION`] shape).
pub fn render(counts: &Counts) -> String {
    format!(
        "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"counts\": {}\n}}\n",
        render_counts(counts)
    )
}

/// The `rule → file → count` object, indented for a top-level key: shared
/// by the baseline and the `--json` report.
pub fn render_counts(counts: &Counts) -> String {
    let mut out = String::from("{");
    for (ri, (rule, files)) in counts.iter().enumerate() {
        out.push_str(if ri == 0 { "\n" } else { ",\n" });
        out.push_str(&format!("    {}: {{", json_string(rule)));
        for (fi, (file, n)) in files.iter().enumerate() {
            out.push_str(if fi == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("      {}: {n}", json_string(file)));
        }
        if !files.is_empty() {
            out.push_str("\n    ");
        }
        out.push('}');
    }
    if !counts.is_empty() {
        out.push_str("\n  ");
    }
    out.push('}');
    out
}

/// Writes the baseline (the `--bless` action).
///
/// # Errors
///
/// Propagates file-write failures as a message.
pub fn bless(path: &Path, counts: &Counts) -> Result<(), String> {
    std::fs::write(path, render(counts))
        .map_err(|e| format!("cannot write baseline {}: {e}", path.display()))
}

/// Compares observed counts against the baseline: cells that grew (CI
/// failures) and whether anything shrank (a `--bless` opportunity).
pub fn compare(baseline: &Counts, actual: &Counts) -> (Vec<Regression>, bool) {
    let empty = BTreeMap::new();
    let mut regressions = Vec::new();
    let mut improved = false;
    let mut rules: Vec<&String> = baseline.keys().chain(actual.keys()).collect();
    rules.sort();
    rules.dedup();
    for rule in rules {
        let base_files = baseline.get(rule).unwrap_or(&empty);
        let act_files = actual.get(rule).unwrap_or(&empty);
        let mut files: Vec<&String> = base_files.keys().chain(act_files.keys()).collect();
        files.sort();
        files.dedup();
        for file in files {
            let b = base_files.get(file).copied().unwrap_or(0);
            let a = act_files.get(file).copied().unwrap_or(0);
            if a > b {
                regressions.push(Regression {
                    rule: rule.clone(),
                    file: file.clone(),
                    baseline: b,
                    actual: a,
                });
            } else if a < b {
                improved = true;
            }
        }
    }
    (regressions, improved)
}

/// Escapes a string as a JSON literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(cells: &[(&str, &str, u64)]) -> Counts {
        let mut out = Counts::new();
        for (rule, file, n) in cells {
            out.entry(rule.to_string())
                .or_default()
                .insert(file.to_string(), *n);
        }
        out
    }

    #[test]
    fn render_parse_roundtrip() {
        let c = counts(&[
            ("unwrap-in-lib", "crates/nn/src/gradcheck.rs", 25),
            ("unwrap-in-lib", "crates/fl/src/sim.rs", 2),
            ("todo-unimplemented", "crates/core/src/lib.rs", 1),
        ]);
        let text = render(&c);
        assert_eq!(parse(&text).expect("roundtrip"), c);
        // v5 envelope plus deterministic ordering: rules and files sorted.
        assert!(text.starts_with(
            "{\n  \"schema_version\": 5,\n  \"counts\": {\n    \"todo-unimplemented\": {"
        ));
        assert!(text.ends_with("\n  }\n}\n"), "{text}");
    }

    #[test]
    fn only_the_current_schema_is_read() {
        // v1 (bare map, no version) and v2–v4 name themselves and point
        // at --bless; a future version still says it is newer.
        let v1 = "{\"unwrap-in-lib\": {\"crates/nn/src/a.rs\": 2}}";
        let err = parse(v1).expect_err("v1");
        assert!(err.contains("v1") && err.contains("--bless"), "{err}");
        for (ver, old) in [
            (2, "{\"schema_version\": 2, \"counts\": {}}"),
            (3, "{\"schema_version\": 3, \"rules\": [], \"counts\": {}}"),
            (
                4,
                "{\"schema_version\": 4, \"rules\": [], \"counts\": {}, \"unsafe_audit\": {}}",
            ),
        ] {
            let err = parse(old).expect_err("pre-v5");
            assert!(err.contains(&format!("schema_version {ver} ")), "{err}");
            assert!(err.contains("--bless"), "{err}");
        }
        let err = parse("{\"schema_version\": 99, \"counts\": {}}").expect_err("future");
        assert!(err.contains("newer"), "{err}");
        assert!(parse("{\"schema_version\": -1, \"counts\": {}}").is_err());
        // A v5 envelope still needs its counts.
        assert!(parse("{\"schema_version\": 5}").is_err());
    }

    #[test]
    fn empty_rule_maps_render_inline() {
        let mut c = Counts::new();
        c.insert("unwrap-in-lib".into(), BTreeMap::new());
        let text = render(&c);
        assert!(text.contains("\"unwrap-in-lib\": {}"));
        assert_eq!(parse(&text).expect("parse"), c);
    }

    #[test]
    fn growth_is_a_regression_shrink_is_improvement() {
        let base = counts(&[("unwrap-in-lib", "a.rs", 3), ("unwrap-in-lib", "b.rs", 1)]);
        let worse = counts(&[("unwrap-in-lib", "a.rs", 4), ("unwrap-in-lib", "b.rs", 1)]);
        let (regs, improved) = compare(&base, &worse);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].baseline, 3);
        assert_eq!(regs[0].actual, 4);
        assert!(!improved);

        let better = counts(&[("unwrap-in-lib", "a.rs", 2), ("unwrap-in-lib", "b.rs", 1)]);
        let (regs, improved) = compare(&base, &better);
        assert!(regs.is_empty());
        assert!(improved);
    }

    #[test]
    fn new_file_regresses_against_zero() {
        let base = counts(&[]);
        let act = counts(&[("todo-unimplemented", "new.rs", 1)]);
        let (regs, _) = compare(&base, &act);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].baseline, 0);
    }

    #[test]
    fn file_dropping_to_zero_is_fine() {
        let base = counts(&[("unwrap-in-lib", "gone.rs", 5)]);
        let act = counts(&[]);
        let (regs, improved) = compare(&base, &act);
        assert!(regs.is_empty());
        assert!(improved);
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        let v5 = |counts: &str| format!("{{\"schema_version\": 5, \"counts\": {counts}}}");
        assert!(parse("[1, 2]").is_err());
        assert!(parse(&v5("{\"r\": 3}")).is_err());
        assert!(parse(&v5("{\"r\": {\"f\": -1}}")).is_err());
        assert!(parse(&v5("{\"r\": {\"f\": 1.5}}")).is_err());
        assert!(parse(&v5("{\"r\": {\"f\": 1}}")).is_ok());
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
