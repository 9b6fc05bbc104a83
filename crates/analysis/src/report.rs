//! Applying the allowlist and rendering results — human diagnostics
//! and the machine-readable `--json` document the CI gate consumes.

use crate::allowlist::AllowEntry;
use crate::rules::{RuleOutput, UnsafeKind, UnsafeSite, Violation, RULE_IDS};
use std::collections::BTreeMap;

/// Final outcome of one analysis pass.
#[derive(Debug)]
pub struct AnalysisReport {
    /// Violations the allowlist did **not** absorb — each fails the run.
    pub open: Vec<Violation>,
    /// Violations absorbed by an allowlist entry, in report order.
    pub allowlisted: Vec<Violation>,
    /// Stale allowlist entries (matched zero violations) — also fail.
    pub stale: Vec<AllowEntry>,
    /// Every `unsafe` site in the tree (the audit inventory).
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Allowlist entries applied.
    pub allow_entries: usize,
}

impl AnalysisReport {
    /// Matches rule output against the allowlist. Within one
    /// `(rule, path)` group the first `max` violations (report order)
    /// are absorbed; the rest stay open, so *new* violations in an
    /// already-allowlisted file still fail.
    pub fn build(out: RuleOutput, allow: &[AllowEntry], files_scanned: usize) -> AnalysisReport {
        let mut budget: BTreeMap<(&str, &str), usize> = BTreeMap::new();
        for e in allow {
            budget.insert((e.rule.as_str(), e.path.as_str()), e.max);
        }
        let mut used: BTreeMap<(String, String), usize> = BTreeMap::new();
        let mut open = Vec::new();
        let mut allowlisted = Vec::new();
        for v in out.violations {
            let key = (v.rule, v.path.as_str());
            match budget.get(&key) {
                Some(&max) => {
                    let u = used.entry((v.rule.to_string(), v.path.clone())).or_insert(0);
                    if *u < max {
                        *u += 1;
                        allowlisted.push(v);
                    } else {
                        let mut v = v;
                        v.message = format!(
                            "{} [exceeds the allowlist budget of {max} for this file]",
                            v.message
                        );
                        open.push(v);
                    }
                }
                None => open.push(v),
            }
        }
        let stale = allow
            .iter()
            .filter(|e| !used.contains_key(&(e.rule.clone(), e.path.clone())))
            .cloned()
            .collect();
        AnalysisReport {
            open,
            allowlisted,
            stale,
            unsafe_sites: out.unsafe_sites,
            files_scanned,
            allow_entries: allow.len(),
        }
    }

    /// True when the tree is clean: no open violations, no stale entries.
    pub fn clean(&self) -> bool {
        self.open.is_empty() && self.stale.is_empty()
    }

    /// Allowlisted-violation count for one rule.
    pub fn allowlisted_count(&self, rule: &str) -> usize {
        self.allowlisted.iter().filter(|v| v.rule == rule).count()
    }

    /// Open-violation count for one rule.
    pub fn open_count(&self, rule: &str) -> usize {
        self.open.iter().filter(|v| v.rule == rule).count()
    }

    /// Fingerprint of the unsafe inventory: FNV-1a over the sorted
    /// `path:fn_count:block_count:impl_count` lines. Line-number
    /// agnostic (editing an unrelated part of a file does not churn the
    /// gate) but any *new or removed* `unsafe` site changes it — and the
    /// exact-match tolerance class in `bench_diff` turns that change
    /// into a reviewed snapshot update.
    pub fn unsafe_fingerprint(&self) -> u64 {
        let mut per_file: BTreeMap<&str, [usize; 3]> = BTreeMap::new();
        for s in &self.unsafe_sites {
            let e = per_file.entry(s.path.as_str()).or_default();
            match s.kind {
                UnsafeKind::Fn => e[0] += 1,
                UnsafeKind::Block => e[1] += 1,
                UnsafeKind::ImplOrTrait => e[2] += 1,
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (path, [fns, blocks, impls]) in &per_file {
            for &b in format!("{path}:{fns}:{blocks}:{impls};").as_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Human-readable diagnostics, `file:line:col: rule: message`.
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        for v in &self.open {
            s.push_str(&format!("{}:{}:{}: {}: {}\n", v.path, v.line, v.col, v.rule, v.message));
        }
        for e in &self.stale {
            s.push_str(&format!(
                "analysis.allow:{}: stale entry ({} {} max={}) matches no violation — delete it\n",
                e.line, e.rule, e.path, e.max
            ));
        }
        let fns = self.unsafe_sites.iter().filter(|s| s.kind == UnsafeKind::Fn).count();
        let blocks = self.unsafe_sites.len() - fns;
        s.push_str(&format!(
            "lint_static: {} file(s), {} open violation(s), {} allowlisted, \
             {} stale allowlist entr{}, unsafe inventory {} fn(s) + {} other site(s) \
             [fingerprint {:#018x}]\n",
            self.files_scanned,
            self.open.len(),
            self.allowlisted.len(),
            self.stale.len(),
            if self.stale.len() == 1 { "y" } else { "ies" },
            fns,
            blocks,
            self.unsafe_fingerprint()
        ));
        s
    }

    /// The machine-readable document the CI gate consumes. Every field
    /// is an integer or string, so `bench_diff` gates it under the
    /// exact-match tolerance class: a new wall-clock read, ambient-
    /// randomness call, unordered-iteration site, uncommented `unsafe`,
    /// library panic or uncalled `pub` item shifts a count or the
    /// fingerprint and fails CI.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\"bench\":\"lint_static\"");
        s.push_str(&format!(",\"files_scanned\":{}", self.files_scanned));
        s.push_str(&format!(",\"allow_entries\":{}", self.allow_entries));
        s.push_str(&format!(",\"open_violations\":{}", self.open.len()));
        s.push_str(&format!(",\"stale_allow_entries\":{}", self.stale.len()));
        s.push_str(",\"rules\":[");
        for (i, rule) in RULE_IDS.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"rule\":\"{rule}\",\"open\":{},\"allowlisted\":{}}}",
                self.open_count(rule),
                self.allowlisted_count(rule)
            ));
        }
        s.push_str("],\"unsafe_inventory\":{");
        let fns = self.unsafe_sites.iter().filter(|x| x.kind == UnsafeKind::Fn).count();
        let blocks = self.unsafe_sites.iter().filter(|x| x.kind == UnsafeKind::Block).count();
        let impls = self.unsafe_sites.iter().filter(|x| x.kind == UnsafeKind::ImplOrTrait).count();
        let undocumented = self.unsafe_sites.iter().filter(|x| !x.documented).count();
        s.push_str(&format!(
            "\"sites\":{},\"fns\":{fns},\"blocks\":{blocks},\"impls\":{impls},\
             \"undocumented\":{undocumented},\"fingerprint\":\"{:#018x}\"",
            self.unsafe_sites.len(),
            self.unsafe_fingerprint()
        ));
        s.push_str("}}");
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::run_rules;
    use crate::walker::SourceFile;

    fn violations_for(src: &str) -> RuleOutput {
        run_rules(&[SourceFile::synthetic("crates/x/src/lib.rs", src)])
    }

    fn entry(rule: &str, path: &str, max: usize) -> AllowEntry {
        AllowEntry {
            rule: rule.into(),
            path: path.into(),
            max,
            why: "test fixture".into(),
            line: 1,
        }
    }

    #[test]
    fn allowlist_absorbs_up_to_max_then_overflows() {
        let out = violations_for(
            "fn f(a: Option<u32>, b: Option<u32>) { a.unwrap(); b.unwrap(); panic!(\"x\"); }",
        );
        assert_eq!(out.violations.len(), 3);
        let allow = [entry("no-panic-in-library", "crates/x/src/lib.rs", 2)];
        let r = AnalysisReport::build(out, &allow, 1);
        assert_eq!(r.allowlisted.len(), 2);
        assert_eq!(r.open.len(), 1);
        assert!(!r.clean());
        assert!(r.open[0].message.contains("exceeds the allowlist budget"));
    }

    #[test]
    fn stale_entries_fail_the_run() {
        let out = violations_for("fn f() {}");
        let allow = [entry("no-wall-clock", "crates/x/src/lib.rs", 1)];
        let r = AnalysisReport::build(out, &allow, 1);
        assert!(r.open.is_empty());
        assert_eq!(r.stale.len(), 1);
        assert!(!r.clean());
        assert!(r.render_human().contains("stale entry"));
    }

    #[test]
    fn unsafe_fingerprint_tracks_sites_not_lines() {
        let a = violations_for("// SAFETY: ok\nfn f() { unsafe { g() } }");
        let b = violations_for("\n\n\n// SAFETY: ok\nfn f() { unsafe { g() } }");
        let ra = AnalysisReport::build(a, &[], 1);
        let rb = AnalysisReport::build(b, &[], 1);
        assert!(ra.clean() && rb.clean());
        assert_eq!(ra.unsafe_fingerprint(), rb.unsafe_fingerprint(), "line shifts don't churn");
        let c = violations_for(
            "// SAFETY: ok\nfn f() { unsafe { g() } }\n// SAFETY: ok\nfn h() { unsafe { g() } }",
        );
        let rc = AnalysisReport::build(c, &[], 1);
        assert_ne!(ra.unsafe_fingerprint(), rc.unsafe_fingerprint(), "new sites do");
    }

    #[test]
    fn json_document_shape_is_stable() {
        let out = violations_for("// SAFETY: ok\nfn f() { unsafe { g() } }");
        let r = AnalysisReport::build(out, &[], 1);
        let j = r.render_json();
        assert!(j.contains("\"bench\":\"lint_static\""));
        assert!(j.contains("\"rule\":\"no-wall-clock\""));
        assert!(j.contains("\"sites\":1"));
        assert!(j.contains("\"undocumented\":0"));
        assert!(j.contains("\"fingerprint\":\"0x"));
    }
}
