//! `lint_static` — run the determinism-contract pass over the tree.
//!
//! ```sh
//! lint_static [--root <path>] [--json]
//! ```
//!
//! * default: human diagnostics (`file:line:col: rule: message`) plus a
//!   one-line summary; exits non-zero on any unallowlisted violation,
//!   stale allowlist entry, or allowlist parse error;
//! * `--json`: emits the machine-readable report (rule → open and
//!   allowlisted violation counts, unsafe-inventory fingerprint) that
//!   joins `BENCH_serve.json` under `bench_diff`'s exact-match
//!   tolerance class — so *new* violations fail CI twice over: here and
//!   in the snapshot gate;
//! * `--root <path>`: workspace root (default: the nearest ancestor of
//!   the current directory holding `analysis.allow`; it is an error if
//!   there is none).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                json = true;
                i += 1;
            }
            "--root" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("lint_static: --root needs a value");
                    return ExitCode::FAILURE;
                };
                root = Some(PathBuf::from(v));
                i += 2;
            }
            other => {
                eprintln!("lint_static: unknown argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }
    let root =
        root.or_else(|| std::env::current_dir().ok().and_then(|d| defa_analysis::find_root(&d)));
    let Some(root) = root else {
        eprintln!(
            "lint_static: no {} in the current directory or above; pass --root",
            defa_analysis::ALLOWLIST_FILE
        );
        return ExitCode::FAILURE;
    };

    let report = match defa_analysis::analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint_static: {e}");
            return ExitCode::FAILURE;
        }
    };

    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        if json {
            // The JSON document went to stdout; still surface the
            // diagnostics where a CI log shows them.
            eprint!("{}", report.render_human());
        }
        ExitCode::FAILURE
    }
}
