//! `defa-analysis` — machine-checking the determinism contract.
//!
//! Every headline claim in this repo (byte-identical `ServeReport`
//! across thread counts, the 108 pinned scheduler×router×controller
//! fingerprints, the paper-level energy tables) rests on rules that
//! used to exist only as prose in ROADMAP.md's design notes: no wall
//! clock or ambient randomness in the serving stack, no hash-order
//! iteration on digest paths, audited `unsafe`, no panics in library
//! code — plus no public API without a caller. This crate turns that prose into executable static analysis —
//! the same move PR 5 made for perf claims with the typed `bench_diff`
//! gate.
//!
//! The pass is a hand-rolled token-level lexer ([`lexer`]; the
//! container has no crates.io access, so no `syn` — the constraint
//! that already produced the local rayon/criterion stand-ins) plus a
//! rule engine ([`rules`]) with file/line-spanned diagnostics, an
//! in-repo allowlist with mandatory justifications ([`allowlist`]),
//! and a reporter ([`report`]) that renders human diagnostics and the
//! `--json` document CI gates under `bench_diff`'s exact-match
//! tolerance class.
//!
//! Run it with:
//!
//! ```sh
//! cargo run --release -p defa-analysis --bin lint_static            # human
//! cargo run --release -p defa-analysis --bin lint_static -- --json  # CI gate doc
//! ```

pub mod allowlist;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walker;

use report::AnalysisReport;
use std::path::{Path, PathBuf};

/// Name of the allowlist file at the workspace root.
pub const ALLOWLIST_FILE: &str = "analysis.allow";

/// Errors a full workspace pass can produce before any rule runs.
#[derive(Debug)]
pub enum AnalysisError {
    /// Filesystem problem while walking or reading sources.
    Io(std::io::Error),
    /// `analysis.allow` failed to parse.
    Allowlist(allowlist::AllowError),
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Io(e) => write!(f, "workspace walk failed: {e}"),
            AnalysisError::Allowlist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// The workspace to analyze when none is named: the nearest ancestor of
/// `start` (itself included) that holds [`ALLOWLIST_FILE`], or `None`.
///
/// Keying on the allowlist rather than on where the binary was built
/// means a copied tree — even one sharing a prebuilt `target/` — is
/// linted itself, never the checkout the binary came from.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    start.ancestors().find(|dir| dir.join(ALLOWLIST_FILE).is_file()).map(Path::to_path_buf)
}

/// Runs the full pass over the workspace at `root`: walk every `.rs`
/// file, lex, apply all rules, then match violations against the
/// allowlist (missing `analysis.allow` means an empty allowlist).
pub fn analyze_workspace(root: &Path) -> Result<AnalysisReport, AnalysisError> {
    let files = walker::walk(root).map_err(AnalysisError::Io)?;
    let allow_text = match std::fs::read_to_string(root.join(ALLOWLIST_FILE)) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(AnalysisError::Io(e)),
    };
    let allow =
        allowlist::parse(&allow_text, &rules::RULE_IDS).map_err(AnalysisError::Allowlist)?;
    let n = files.len();
    Ok(AnalysisReport::build(rules::run_rules(&files), &allow, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar for the whole PR: the pass runs clean on this
    /// workspace — zero unallowlisted violations, zero stale entries —
    /// and the negative fixtures in `rules::tests` prove every rule can
    /// still fire.
    #[test]
    fn workspace_is_clean_under_the_determinism_contract() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = analyze_workspace(&root).expect("pass must run");
        assert!(report.clean(), "determinism-contract violations:\n{}", report.render_human());
        assert!(report.files_scanned >= 90, "walker lost files: {}", report.files_scanned);
        // Every unsafe site in the tree carries a SAFETY justification.
        assert!(report.unsafe_sites.iter().all(|s| s.documented));
    }

    #[test]
    fn root_is_the_nearest_ancestor_holding_the_allowlist() {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        let workspace = manifest.parent().and_then(Path::parent).unwrap();
        assert_eq!(find_root(&manifest.join("src")).as_deref(), Some(workspace));
        assert_eq!(find_root(workspace).as_deref(), Some(workspace));

        // A nested allowlist wins over the outer one, and a tree without
        // one anywhere above it has no root.
        let outer = std::env::temp_dir().join(format!("defa-find-root-{}", std::process::id()));
        let inner = outer.join("copy");
        std::fs::create_dir_all(inner.join("crates/x")).unwrap();
        std::fs::write(inner.join(ALLOWLIST_FILE), "").unwrap();
        assert_eq!(find_root(&inner.join("crates/x")).as_deref(), Some(inner.as_path()));
        assert_eq!(find_root(&outer), None);
        std::fs::remove_dir_all(&outer).unwrap();
    }
}
