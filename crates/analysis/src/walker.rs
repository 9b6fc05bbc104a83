//! Workspace traversal and file classification.
//!
//! The determinism rules do not apply uniformly: wall-clock reads are
//! legitimate in bench binaries (they *measure* wall time), panics are
//! fine in test code, and the `tests/` host crate is all test code. The
//! walker finds every `.rs` file under the workspace and attaches the
//! classification the rules key their scopes on. Paths are always
//! stored and reported **relative to the workspace root with `/`
//! separators**, so diagnostics, allowlist entries and the unsafe
//! inventory are stable across machines.

use std::path::{Path, PathBuf};

/// How a source file participates in the build — decides rule scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under some `crates/*/src/`, excluding `src/bin/`.
    Library,
    /// Binary targets: `src/bin/**`, `src/main.rs`.
    Bin,
    /// Criterion-style benches under `crates/*/benches/`.
    Bench,
    /// `examples/**` demo programs.
    Example,
    /// The integration-test host crate (`tests/**`).
    TestHost,
}

/// One workspace source file, read and classified.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// Scope classification.
    pub kind: FileKind,
    /// File contents.
    pub text: String,
}

impl SourceFile {
    /// Builds a classified in-memory file — how the unit tests run rules
    /// on synthetic sources.
    #[cfg(test)]
    pub(crate) fn synthetic(path: &str, text: &str) -> SourceFile {
        SourceFile { path: path.to_string(), kind: classify(path), text: text.to_string() }
    }
}

/// Classifies a workspace-relative path.
pub fn classify(rel: &str) -> FileKind {
    if rel.starts_with("tests/") || rel.contains("/tests/") {
        FileKind::TestHost
    } else if rel.starts_with("examples/") || rel.contains("/examples/") {
        FileKind::Example
    } else if rel.contains("/benches/") {
        FileKind::Bench
    } else if rel.contains("/src/bin/") || rel.ends_with("/src/main.rs") {
        FileKind::Bin
    } else {
        FileKind::Library
    }
}

/// Walks the workspace at `root`, returning every `.rs` file in
/// deterministic (sorted-path) order. Skips `target/`, `.git/` and
/// `bench-out/`.
pub fn walk(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    collect(root, &mut paths)?;
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let text = std::fs::read_to_string(&p)?;
        out.push(SourceFile { kind: classify(&rel), path: rel, text });
    }
    Ok(out)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "bench-out" | ".github") {
                continue;
            }
            collect(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_target_layout() {
        assert_eq!(classify("crates/serve/src/runtime.rs"), FileKind::Library);
        assert_eq!(classify("crates/serve/src/obs/mod.rs"), FileKind::Library);
        assert_eq!(classify("crates/bench/src/bin/serve.rs"), FileKind::Bin);
        assert_eq!(classify("crates/foo/src/main.rs"), FileKind::Bin);
        assert_eq!(classify("crates/bench/benches/gemm.rs"), FileKind::Bench);
        assert_eq!(classify("examples/serving.rs"), FileKind::Example);
        assert_eq!(classify("tests/tests/serving.rs"), FileKind::TestHost);
        assert_eq!(classify("tests/src/lib.rs"), FileKind::TestHost);
        assert_eq!(classify("crates/analysis/tests/fixtures.rs"), FileKind::TestHost);
    }

    #[test]
    fn walk_finds_this_crate_in_sorted_order() {
        // CARGO_MANIFEST_DIR = crates/analysis → workspace root is ../..
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = walk(&root).expect("workspace walk");
        let mut sorted = files.iter().map(|f| f.path.clone()).collect::<Vec<_>>();
        assert!(sorted.iter().any(|p| p == "crates/analysis/src/walker.rs"));
        assert!(sorted.iter().all(|p| !p.contains("target/")));
        let orig = sorted.clone();
        sorted.sort();
        assert_eq!(orig, sorted, "walk order must be deterministic");
    }
}
