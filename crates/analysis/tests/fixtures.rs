//! Negative fixtures: every rule (1) fires on a seeded violation and
//! (2) is silenced by an allowlist entry for exactly that violation —
//! proving the pass can fail and that the escape hatch works. A lint
//! whose rules cannot fire, or whose allowlist silences too much,
//! checks nothing.

use defa_analysis::allowlist::AllowEntry;
use defa_analysis::report::AnalysisReport;
use defa_analysis::rules::{run_rules, RULE_IDS};
use defa_analysis::walker::{classify, SourceFile};

/// One seeded violation per rule, in a file path inside the rule's scope.
fn seeded_violation(rule: &str) -> SourceFile {
    let (path, src) = match rule {
        "no-wall-clock" => (
            "crates/serve/src/runtime.rs",
            "fn now() -> u64 { let t = std::time::Instant::now(); 0 }",
        ),
        "no-ambient-randomness" => {
            ("crates/serve/src/loadgen.rs", "fn seed() -> u64 { let mut r = thread_rng(); 4 }")
        }
        "no-unordered-iteration" => {
            ("crates/serve/src/report.rs", "use std::collections::HashMap;")
        }
        "unsafe-audit" => (
            "crates/tensor/src/matmul.rs",
            "fn f() { unsafe { core::hint::unreachable_unchecked() } }",
        ),
        "no-panic-in-library" => {
            ("crates/core/src/runner.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }")
        }
        "no-dead-pub" => ("crates/core/src/runner.rs", "pub fn orphan() -> u32 { 7 }"),
        other => panic!("unknown rule {other}"),
    };
    SourceFile { path: path.to_string(), kind: classify(path), text: src.to_string() }
}

#[test]
fn every_rule_fires_on_its_seeded_violation() {
    for rule in RULE_IDS {
        let out = run_rules(&[seeded_violation(rule)]);
        let fired: Vec<_> = out.violations.iter().map(|v| v.rule).collect();
        assert_eq!(fired, vec![rule], "rule {rule} must fire exactly once on its fixture");
        let report = AnalysisReport::build(out, &[], 1);
        assert!(!report.clean(), "rule {rule}: an open violation must fail the pass");
        assert_eq!(report.open_count(rule), 1);
    }
}

#[test]
fn every_rule_is_silenced_by_a_matching_allowlist_entry() {
    for rule in RULE_IDS {
        let file = seeded_violation(rule);
        let entry = AllowEntry {
            rule: rule.to_string(),
            path: file.path.clone(),
            max: 1,
            why: "negative fixture: seeded violation, intentionally exempt".to_string(),
            line: 1,
        };
        let report = AnalysisReport::build(run_rules(&[file]), &[entry], 1);
        assert!(report.clean(), "rule {rule}: the allowlist entry must absorb the violation");
        assert_eq!(report.allowlisted_count(rule), 1);
        assert_eq!(report.open_count(rule), 0);
    }
}

#[test]
fn an_allowlist_entry_does_not_silence_other_rules_or_files() {
    // A no-panic budget in file A must not absorb a wall-clock read in
    // file A or a panic in file B.
    let files = [
        seeded_violation("no-wall-clock"), // crates/serve/src/runtime.rs
        seeded_violation("no-panic-in-library"), // crates/core/src/runner.rs
    ];
    let entry = AllowEntry {
        rule: "no-panic-in-library".to_string(),
        path: "crates/serve/src/runtime.rs".to_string(),
        max: 1,
        why: "wrong file on purpose".to_string(),
        line: 1,
    };
    let report = AnalysisReport::build(run_rules(&files), &[entry], 2);
    assert!(!report.clean());
    assert_eq!(report.open_count("no-wall-clock"), 1);
    assert_eq!(report.open_count("no-panic-in-library"), 1);
    // And the unconsumed entry is flagged as stale.
    assert_eq!(report.stale.len(), 1);
}

#[test]
fn the_json_gate_document_moves_when_violations_move() {
    // The CI gate compares these integers exactly: seeding a violation
    // must change the document even when it is allowlisted.
    let clean = AnalysisReport::build(run_rules(&[]), &[], 0);
    let file = seeded_violation("no-panic-in-library");
    let entry = AllowEntry {
        rule: "no-panic-in-library".to_string(),
        path: file.path.clone(),
        max: 1,
        why: "fixture".to_string(),
        line: 1,
    };
    let dirty = AnalysisReport::build(run_rules(&[file]), &[entry], 1);
    assert!(clean.clean() && dirty.clean());
    assert_ne!(clean.render_json(), dirty.render_json());
}
