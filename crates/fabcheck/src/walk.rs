//! Workspace walker: finds every `.rs` file under `crates/` and `compat/`,
//! reads and lexes each exactly once, classifies it for the rule engine,
//! and resolves out-of-line `#[cfg(test)] mod x;` targets so `x.rs` /
//! `x/mod.rs` count as all-test files.

use crate::lexer::{lex, Lexed};
use crate::rules::{test_only_mods, test_spans, FileClass};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Directory names never descended into: build output, VCS metadata, and
/// fabcheck's own deliberately-bad fixture trees.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// One classified source file, read and lexed once and shared by every
/// pass (the per-file rules, the workspace passes and the call graph).
#[derive(Debug)]
pub struct SourceFile {
    /// Classification (includes the root-relative path).
    pub class: FileClass,
    /// The file's text (the target-feature parser reads raw lines).
    pub src: String,
    /// Tokens and comments of `src`.
    pub lexed: Lexed,
    /// Half-open token-index ranges of `#[cfg(test)]`-gated items.
    pub test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes `src` and finds its `#[cfg(test)]` spans.
    pub fn new(class: FileClass, src: String) -> SourceFile {
        let lexed = lex(&src);
        let test_spans = test_spans(&lexed.tokens);
        SourceFile {
            class,
            src,
            lexed,
            test_spans,
        }
    }

    /// Whether token `idx` lies inside a `#[cfg(test)]` item.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|&(a, b)| idx >= a && idx < b)
    }
}

/// Collects and classifies every checkable source file under
/// `root/crates` and `root/compat`, sorted by relative path so output and
/// baseline ordering are deterministic.
///
/// # Errors
///
/// Propagates directory-walk and file-read I/O errors.
pub fn collect(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths: Vec<(PathBuf, String)> = Vec::new();
    for top in ["crates", "compat"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk_dir(&dir, root, &mut paths)?;
        }
    }
    paths.sort_by(|a, b| a.1.cmp(&b.1));
    let mut files = Vec::with_capacity(paths.len());
    for (path, rel) in paths {
        files.push(SourceFile::new(
            classify(&rel),
            std::fs::read_to_string(path)?,
        ));
    }

    // Files that are out-of-line #[cfg(test)] modules are all-test code.
    let mut test_files: BTreeSet<String> = BTreeSet::new();
    for file in &files {
        let dir = file.class.rel.rsplit_once('/').map_or("", |(d, _)| d);
        for name in test_only_mods(&file.lexed.tokens) {
            test_files.insert(format!("{dir}/{name}.rs"));
            test_files.insert(format!("{dir}/{name}/mod.rs"));
        }
    }
    for file in &mut files {
        file.class.is_test_file |= test_files.contains(&file.class.rel);
    }
    Ok(files)
}

fn walk_dir(dir: &Path, root: &Path, out: &mut Vec<(PathBuf, String)>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<std::io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk_dir(&path, root, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((path, rel));
        }
    }
    Ok(())
}

/// Classifies a root-relative path (`crates/<name>/…` or `compat/<name>/…`)
/// by its location alone; [`collect`] adds the out-of-line test modules.
pub(crate) fn classify(rel: &str) -> FileClass {
    let parts: Vec<&str> = rel.split('/').collect();
    let in_crates = parts.first() == Some(&"crates");
    let crate_name = parts.get(1).copied().unwrap_or("").to_string();
    // Everything after crates/<name>/ decides the target kind.
    let tail = &parts[2.min(parts.len())..];
    let in_dir = |d: &str| tail.iter().rev().skip(1).any(|p| *p == d);
    FileClass {
        rel: rel.to_string(),
        in_crates,
        crate_name,
        is_test_file: in_dir("tests") || in_dir("benches"),
        is_example: in_dir("examples"),
        is_bin: rel.ends_with("/src/main.rs") || in_dir("bin"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_kinds() {
        let c = classify("crates/tensor/src/matmul.rs");
        assert!(c.in_crates && c.crate_name == "tensor");
        assert!(!c.is_test_file && !c.is_bin && !c.is_example);

        assert!(classify("crates/fabcheck/tests/integration.rs").is_test_file);
        assert!(classify("crates/bench/benches/micro.rs").is_test_file);
        assert!(classify("crates/bench/src/bin/perf.rs").is_bin);
        assert!(classify("crates/cli/src/main.rs").is_bin);
        assert!(classify("crates/fl/examples/probe.rs").is_example);
        assert!(!classify("compat/rand/src/lib.rs").in_crates);
    }
}
