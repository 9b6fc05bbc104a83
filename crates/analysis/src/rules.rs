//! The determinism-contract rules.
//!
//! Each rule walks one file's token stream and emits spanned
//! violations (`no-dead-pub` also counts uses across the whole file
//! set). The scopes mirror the prose contract in ROADMAP.md's
//! design notes (see `crates/serve/README.md` § "Determinism contract,
//! machine-checked" for the rule-by-rule mapping):
//!
//! | rule id                  | forbids                                   | scope                                         |
//! |--------------------------|-------------------------------------------|-----------------------------------------------|
//! | `no-wall-clock`          | `Instant` / `SystemTime`                  | everywhere except `obs/profile.rs`, `crates/criterion`, bench bins/benches |
//! | `no-ambient-randomness`  | `thread_rng` / `from_entropy` / `RandomState` | the whole workspace                       |
//! | `no-unordered-iteration` | `HashMap` / `HashSet`                     | library code of `serve` (non-obs), `core`, `tensor`, `bench` |
//! | `unsafe-audit`           | `unsafe` without a `SAFETY`-marked comment | the whole workspace (also builds the inventory) |
//! | `no-panic-in-library`    | `.unwrap()` / `.expect(…)` / `panic!`     | library code outside `#[cfg(test)]` / `#[test]` regions |
//! | `no-dead-pub`            | a `pub` item no non-test code names       | library code outside test regions; uses counted across the workspace |
//!
//! `no-dead-pub` flags a `pub` `fn`/`struct`/`enum`/`const`/`static`/
//! `type`/`trait` whose identifier occurs in no non-test token but its
//! own definition. Bins, benches, examples and perfbench's bin count as
//! callers; comments, string contents, test regions and the `tests/`
//! crate do not, except that a `{name}` inline format capture is a use.
//! `pub(crate)`/`pub(super)` items are rustc's. Reference
//! implementations that tests compare against stay: under
//! `#[cfg(test)]` when only their own crate's tests use them, otherwise
//! `pub` with an `analysis.allow` entry naming the test.
//!
//! Rules are syntactic by design: a token named `Instant` that is not
//! `std::time::Instant` still fires, and the allowlist (with its
//! mandatory justification) is the pressure valve — exactly like the
//! `bench_diff --allow` escape hatch for intentional perf moves.

use crate::lexer::{lex, Token, TokenKind};
use crate::walker::{FileKind, SourceFile};
use std::collections::BTreeMap;

/// Stable rule identifiers (also the allowlist / JSON keys).
pub const RULE_IDS: [&str; 6] = [
    "no-wall-clock",
    "no-ambient-randomness",
    "no-unordered-iteration",
    "unsafe-audit",
    "no-panic-in-library",
    "no-dead-pub",
];

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id from [`RULE_IDS`].
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line / byte column of the offending token.
    pub line: u32,
    pub col: u32,
    /// Human explanation with the remediation.
    pub message: String,
}

/// What kind of `unsafe` site an inventory entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// `unsafe fn` declaration.
    Fn,
    /// `unsafe { … }` block (including `unsafe extern`).
    Block,
    /// `unsafe impl` / `unsafe trait`.
    ImplOrTrait,
}

impl UnsafeKind {
    pub fn label(&self) -> &'static str {
        match self {
            UnsafeKind::Fn => "fn",
            UnsafeKind::Block => "block",
            UnsafeKind::ImplOrTrait => "impl",
        }
    }
}

/// One `unsafe` site, SAFETY-commented or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeSite {
    pub path: String,
    pub line: u32,
    pub kind: UnsafeKind,
    /// Whether a `SAFETY`-marked comment justifies the site.
    pub documented: bool,
}

/// Output of running every rule over one file set.
#[derive(Debug, Default)]
pub struct RuleOutput {
    pub violations: Vec<Violation>,
    /// Every `unsafe` site found, documented or not (the inventory).
    pub unsafe_sites: Vec<UnsafeSite>,
}

/// Runs all six rules over `files` (workspace or synthetic fixtures).
/// `no-dead-pub` looks across files, so `files` is the whole set of
/// callers the dead-code verdict is taken against.
pub fn run_rules(files: &[SourceFile]) -> RuleOutput {
    let mut out = RuleOutput::default();
    let lexed: Vec<(Vec<Token>, Vec<bool>)> = files
        .iter()
        .map(|f| {
            let toks = lex(&f.text);
            let test_mask = test_region_mask(&toks);
            (toks, test_mask)
        })
        .collect();
    let uses = non_test_uses(files, &lexed);
    for (f, (toks, test_mask)) in files.iter().zip(&lexed) {
        no_wall_clock(f, toks, &mut out.violations);
        no_ambient_randomness(f, toks, &mut out.violations);
        no_unordered_iteration(f, toks, &mut out.violations);
        unsafe_audit(f, toks, &mut out);
        no_panic_in_library(f, toks, test_mask, &mut out.violations);
        no_dead_pub(f, toks, test_mask, &uses, &mut out.violations);
    }
    // Deterministic report order regardless of rule interleaving.
    out.violations
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    out.unsafe_sites.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

// ---------------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------------

/// Marks token indices that live inside `#[cfg(test)]` items or
/// `#[test]` functions — the regions `no-panic-in-library` and
/// `no-dead-pub` exempt.
///
/// Token-level heuristic: an attribute that compiles its item only
/// under test ([`requires_test`]) starts a test item; the region
/// runs to the matching `}` of the first `{` that follows (or to the
/// `;` of a braceless item).
fn test_region_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Find the attribute's closing `]` (attrs can nest brackets).
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < toks.len() {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let attr: Vec<&Token> =
                toks[i + 2..j.min(toks.len())].iter().filter(|t| !t.is_comment()).collect();
            if requires_test(&attr) {
                // Scan to the item body `{ … }` (or a `;` for braceless
                // items); everything through the matching brace is test
                // code. Later attributes may intervene (`#[test] #[ignore]`).
                let mut k = j + 1;
                while k < toks.len() && !toks[k].is_punct('{') && !toks[k].is_punct(';') {
                    k += 1;
                }
                if k < toks.len() && toks[k].is_punct('{') {
                    let mut bdepth = 0i32;
                    let mut end = k;
                    while end < toks.len() {
                        if toks[end].is_punct('{') {
                            bdepth += 1;
                        } else if toks[end].is_punct('}') {
                            bdepth -= 1;
                            if bdepth == 0 {
                                break;
                            }
                        }
                        end += 1;
                    }
                    for m in mask.iter_mut().take(end.min(toks.len() - 1) + 1).skip(i) {
                        *m = true;
                    }
                    i = end + 1;
                    continue;
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// True when the attribute body `attr` (the tokens between `#[` and
/// `]`) compiles its item only under test: `#[test]`, or a `cfg` whose
/// predicate requires `test`. `#[cfg(not(test))]`,
/// `#[cfg(any(test, …))]` and `#[cfg_attr(test, …)]` keep the item in
/// non-test builds, so they do not start a region. The attribute and a
/// cfg predicate share one grammar here: `test` alone, `cfg(p)` and
/// `all(…)` require test when any argument does, `any(…)` when all do.
fn requires_test(attr: &[&Token]) -> bool {
    match attr.first().and_then(|t| t.ident()) {
        Some("test") => attr.len() == 1,
        Some("cfg" | "all") => predicate_args(attr).iter().any(|p| requires_test(p)),
        Some("any") => {
            let args = predicate_args(attr);
            !args.is_empty() && args.iter().all(|p| requires_test(p))
        }
        _ => false,
    }
}

/// The arguments of `name(a, b, …)`, split at top-level commas.
fn predicate_args<'a, 't>(pred: &'a [&'t Token]) -> Vec<&'a [&'t Token]> {
    if !pred.get(1).is_some_and(|t| t.is_punct('(')) {
        return Vec::new();
    }
    let inner = pred.get(2..pred.len() - 1).unwrap_or_default();
    let mut parts = Vec::new();
    let (mut depth, mut start) = (0i32, 0);
    for (k, t) in inner.iter().enumerate() {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            parts.push(&inner[start..k]);
            start = k + 1;
        }
    }
    parts.push(&inner[start..]);
    parts.retain(|p| !p.is_empty());
    parts
}

// ---------------------------------------------------------------------------
// Rule: no-wall-clock
// ---------------------------------------------------------------------------

/// Paths where reading the host clock is sanctioned.
fn wall_clock_exempt(f: &SourceFile) -> bool {
    f.path == "crates/serve/src/obs/profile.rs"
        || f.path.starts_with("crates/criterion/")
        || matches!(f.kind, FileKind::Bin | FileKind::Bench)
}

fn no_wall_clock(f: &SourceFile, toks: &[Token], out: &mut Vec<Violation>) {
    if wall_clock_exempt(f) {
        return;
    }
    for t in toks {
        if matches!(t.ident(), Some("Instant") | Some("SystemTime")) {
            out.push(Violation {
                rule: "no-wall-clock",
                path: f.path.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` reads the host clock; the serving stack runs on virtual time — \
                     route wall-clock measurement through `obs::profile` or a bench bin",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: no-ambient-randomness
// ---------------------------------------------------------------------------

fn no_ambient_randomness(f: &SourceFile, toks: &[Token], out: &mut Vec<Violation>) {
    for t in toks {
        if matches!(t.ident(), Some("thread_rng") | Some("from_entropy") | Some("RandomState")) {
            out.push(Violation {
                rule: "no-ambient-randomness",
                path: f.path.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` draws OS entropy; all randomness must flow from an explicit \
                     seed (`defa_tensor::rng`) so reports replay byte-identically",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: no-unordered-iteration
// ---------------------------------------------------------------------------

/// Library code whose iteration order reaches digests or reports.
fn unordered_scope(f: &SourceFile) -> bool {
    if f.kind != FileKind::Library {
        return false;
    }
    (f.path.starts_with("crates/serve/") && !f.path.starts_with("crates/serve/src/obs/"))
        || f.path.starts_with("crates/core/")
        || f.path.starts_with("crates/tensor/")
        || f.path.starts_with("crates/bench/")
}

fn no_unordered_iteration(f: &SourceFile, toks: &[Token], out: &mut Vec<Violation>) {
    if !unordered_scope(f) {
        return;
    }
    for t in toks {
        if matches!(t.ident(), Some("HashMap") | Some("HashSet")) {
            out.push(Violation {
                rule: "no-unordered-iteration",
                path: f.path.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` iterates in hash order, which leaks into digests and reports — \
                     use `BTreeMap`/`BTreeSet`/`Vec` or allowlist with a justification",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: unsafe-audit
// ---------------------------------------------------------------------------

/// Looks backwards from token `i` for a comment containing a safety
/// marker (`SAFETY` or `# Safety`). The scan may cross anything within
/// the same statement/item head — attributes, visibility, qualifiers,
/// a `let x =`, a match-arm pattern — but stops cold at a statement or
/// item boundary (`;` or `}`): a justification on the *previous*
/// statement, function, or match arm never carries over.
fn has_safety_comment(toks: &[Token], i: usize) -> bool {
    let mut j = i;
    let mut hops = 0;
    while j > 0 && hops < 64 {
        j -= 1;
        hops += 1;
        let t = &toks[j];
        if t.is_comment() {
            if t.text.contains("SAFETY") || t.text.contains("# Safety") {
                return true;
            }
            // An unrelated or continuing comment line — keep scanning
            // upwards through the comment run.
            continue;
        }
        if t.is_punct(';') || t.is_punct('}') {
            return false;
        }
    }
    false
}

fn unsafe_audit(f: &SourceFile, toks: &[Token], out: &mut RuleOutput) {
    for (i, t) in toks.iter().enumerate() {
        if t.ident() != Some("unsafe") {
            continue;
        }
        // Classify the site from the next significant token.
        let next = toks[i + 1..].iter().find(|t| !t.is_comment());
        let kind = match next.and_then(|t| t.ident()) {
            Some("fn") => UnsafeKind::Fn,
            Some("impl") | Some("trait") => UnsafeKind::ImplOrTrait,
            _ => UnsafeKind::Block,
        };
        let documented = has_safety_comment(toks, i);
        out.unsafe_sites.push(UnsafeSite { path: f.path.clone(), line: t.line, kind, documented });
        if !documented {
            out.violations.push(Violation {
                rule: "unsafe-audit",
                path: f.path.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`unsafe` {} without a `// SAFETY:` comment — state the invariant \
                     that makes it sound directly above the site",
                    kind.label()
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: no-panic-in-library
// ---------------------------------------------------------------------------

fn no_panic_in_library(
    f: &SourceFile,
    toks: &[Token],
    test_mask: &[bool],
    out: &mut Vec<Violation>,
) {
    if f.kind != FileKind::Library {
        return;
    }
    let significant: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    for (si, &i) in significant.iter().enumerate() {
        if test_mask[i] {
            continue;
        }
        let t = &toks[i];
        let prev = si.checked_sub(1).map(|p| &toks[significant[p]]);
        let next = significant.get(si + 1).map(|&n| &toks[n]);
        let fires = match t.ident() {
            Some("unwrap") | Some("expect") => {
                prev.is_some_and(|p| p.is_punct('.')) && next.is_some_and(|n| n.is_punct('('))
            }
            Some("panic") => next.is_some_and(|n| n.is_punct('!')),
            _ => false,
        };
        if fires {
            out.push(Violation {
                rule: "no-panic-in-library",
                path: f.path.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` can abort a serving run from library code — return a typed \
                     error, prove the invariant, or allowlist with a justification",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: no-dead-pub
// ---------------------------------------------------------------------------

/// Item keywords whose `pub` definitions `no-dead-pub` checks.
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "const", "static", "type", "trait"];

/// How often each identifier occurs in the workspace's non-test code:
/// every identifier token outside the `tests/` crate and outside
/// `#[cfg(test)]`/`#[test]` regions, plus every `{ident}` /
/// `{ident:…}` capture inside a string literal (an inline format
/// argument is a use). Comments and other string contents never count.
fn non_test_uses<'a>(
    files: &[SourceFile],
    lexed: &'a [(Vec<Token>, Vec<bool>)],
) -> BTreeMap<&'a str, usize> {
    let mut uses = BTreeMap::new();
    for (f, (toks, test_mask)) in files.iter().zip(lexed) {
        if f.kind == FileKind::TestHost {
            continue;
        }
        for (t, _) in toks.iter().zip(test_mask).filter(|(_, &in_test)| !in_test) {
            if let Some(id) = t.ident() {
                *uses.entry(id).or_insert(0) += 1;
            } else if t.kind == TokenKind::StrLit {
                for id in format_captures(&t.text) {
                    *uses.entry(id).or_insert(0) += 1;
                }
            }
        }
    }
    uses
}

/// The identifiers a string literal captures as inline format
/// arguments: `{name}` and `{name:spec}`, never the escaped `{{`.
fn format_captures(lit: &str) -> Vec<&str> {
    let b = lit.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i] != b'{' {
            i += 1;
            continue;
        }
        if b.get(i + 1) == Some(&b'{') {
            i += 2;
            continue;
        }
        let start = i + 1;
        let mut end = start;
        while end < b.len() && (b[end] == b'_' || b[end].is_ascii_alphanumeric()) {
            end += 1;
        }
        let starts_ident = b.get(start).is_some_and(|c| *c == b'_' || c.is_ascii_alphabetic());
        if starts_ident && matches!(b.get(end), Some(b'}') | Some(b':')) {
            out.push(&lit[start..end]);
        }
        i = end.max(i + 1);
    }
    out
}

/// Flags a `pub` item in library code whose identifier occurs nowhere
/// in non-test code except at its own definition. Matching is by name
/// alone, so a use of any same-named item (or a second definition)
/// keeps it alive: the rule over-approximates use and never flags live
/// code. `pub(crate)` / `pub(super)` items are rustc's `dead_code`
/// territory and are skipped.
fn no_dead_pub(
    f: &SourceFile,
    toks: &[Token],
    test_mask: &[bool],
    uses: &BTreeMap<&str, usize>,
    out: &mut Vec<Violation>,
) {
    if f.kind != FileKind::Library {
        return;
    }
    let sig: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let ident_at = |k: usize| sig.get(k).and_then(|&i| toks[i].ident());
    for (si, &i) in sig.iter().enumerate() {
        if test_mask[i] || toks[i].ident() != Some("pub") {
            continue;
        }
        // Skip the qualifiers between `pub` and the item keyword.
        let mut k = si + 1;
        loop {
            match ident_at(k) {
                Some("const") if matches!(ident_at(k + 1), Some("fn" | "unsafe" | "async")) => {
                    k += 1
                }
                Some("unsafe" | "async") => k += 1,
                Some("extern") => {
                    k += 1;
                    if sig.get(k).is_some_and(|&n| toks[n].kind == TokenKind::StrLit) {
                        k += 1;
                    }
                }
                _ => break,
            }
        }
        let Some(keyword) = ident_at(k).filter(|kw| ITEM_KEYWORDS.contains(kw)) else {
            continue;
        };
        if keyword == "static" && ident_at(k + 1) == Some("mut") {
            k += 1;
        }
        let Some(name) = ident_at(k + 1) else { continue };
        if uses.get(name).copied().unwrap_or(0) > 1 {
            continue;
        }
        let t = &toks[sig[k + 1]];
        out.push(Violation {
            rule: "no-dead-pub",
            path: f.path.clone(),
            line: t.line,
            col: t.col,
            message: format!(
                "`pub {keyword} {name}` is never named outside its definition and test code — \
                 delete it, move it under `#[cfg(test)]`, or allowlist it as a test oracle"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::SourceFile;

    fn run_one(path: &str, src: &str) -> RuleOutput {
        run_rules(&[SourceFile::synthetic(path, src)])
    }

    fn rules_fired(out: &RuleOutput) -> Vec<&'static str> {
        let mut r: Vec<_> = out.violations.iter().map(|v| v.rule).collect();
        r.dedup();
        r
    }

    // -- no-wall-clock ----------------------------------------------------

    #[test]
    fn wall_clock_fires_in_library_code() {
        let out = run_one(
            "crates/serve/src/runtime.rs",
            "fn t() -> std::time::Instant { std::time::Instant::now() }",
        );
        assert_eq!(rules_fired(&out), ["no-wall-clock"]);
        assert_eq!(out.violations.len(), 2);
        assert_eq!(out.violations[0].line, 1);
    }

    #[test]
    fn wall_clock_is_sanctioned_in_profile_criterion_and_bench_bins() {
        for path in [
            "crates/serve/src/obs/profile.rs",
            "crates/criterion/src/lib.rs",
            "crates/bench/src/bin/serve.rs",
            "crates/bench/benches/gemm.rs",
        ] {
            let out = run_one(path, "fn t() { let _ = Instant::now(); }");
            assert!(out.violations.is_empty(), "{path} should be exempt");
        }
    }

    #[test]
    fn wall_clock_inside_strings_and_comments_does_not_fire() {
        let out = run_one(
            "crates/serve/src/runtime.rs",
            r##"// Instant::now is forbidden here
               const DOC: &str = "Instant::now()";
               const RAW: &str = r#"SystemTime"#;"##,
        );
        assert!(out.violations.is_empty());
    }

    #[test]
    fn system_time_fires_too() {
        let out = run_one("crates/core/src/runner.rs", "use std::time::SystemTime;");
        assert_eq!(rules_fired(&out), ["no-wall-clock"]);
    }

    // -- no-ambient-randomness --------------------------------------------

    #[test]
    fn ambient_randomness_fires_everywhere_including_bins() {
        for path in ["crates/serve/src/loadgen.rs", "crates/bench/src/bin/serve.rs"] {
            let out = run_one(path, "let mut rng = thread_rng();");
            assert_eq!(rules_fired(&out), ["no-ambient-randomness"], "{path}");
        }
        let out = run_one("crates/model/src/sampling.rs", "let s = RandomState::new();");
        assert_eq!(rules_fired(&out), ["no-ambient-randomness"]);
        let out = run_one("tests/tests/serving.rs", "let r = SmallRng::from_entropy();");
        assert_eq!(rules_fired(&out), ["no-ambient-randomness"]);
    }

    // -- no-unordered-iteration -------------------------------------------

    #[test]
    fn unordered_iteration_fires_in_digest_scope_only() {
        let src = "use std::collections::HashMap;";
        for path in [
            "crates/serve/src/report.rs",
            "crates/core/src/msgs.rs",
            "crates/tensor/src/tensor.rs",
            "crates/bench/src/json.rs",
        ] {
            let out = run_one(path, src);
            assert_eq!(rules_fired(&out), ["no-unordered-iteration"], "{path}");
        }
        // The obs subtree, other crates, and bins are out of scope.
        for path in [
            "crates/serve/src/obs/metrics.rs",
            "crates/model/src/config.rs",
            "crates/bench/src/bin/serve.rs",
        ] {
            let out = run_one(path, src);
            assert!(out.violations.is_empty(), "{path} should be out of scope");
        }
    }

    // -- unsafe-audit ------------------------------------------------------

    #[test]
    fn unsafe_without_safety_comment_fires_and_is_inventoried() {
        let out = run_one(
            "crates/tensor/src/matmul.rs",
            "fn f() { unsafe { danger() } }\nunsafe fn g() {}\n",
        );
        assert_eq!(rules_fired(&out), ["unsafe-audit"]);
        assert_eq!(out.violations.len(), 2);
        assert_eq!(out.unsafe_sites.len(), 2);
        assert_eq!(out.unsafe_sites[0].kind, UnsafeKind::Block);
        assert_eq!(out.unsafe_sites[1].kind, UnsafeKind::Fn);
        assert!(out.unsafe_sites.iter().all(|s| !s.documented));
    }

    #[test]
    fn safety_comment_silences_but_still_inventories() {
        let src = "\
// SAFETY: cpu features verified at dispatch.
fn f() { unsafe { danger() } }

/// Docs.
///
/// # Safety
///
/// Caller verified avx512f.
#[cfg(target_arch = \"x86_64\")]
#[target_feature(enable = \"avx512f\")]
unsafe fn g() {}
";
        let out = run_one("crates/tensor/src/matmul.rs", src);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.unsafe_sites.len(), 2);
        assert!(out.unsafe_sites.iter().all(|s| s.documented));
    }

    #[test]
    fn safety_comment_must_be_adjacent_not_anywhere_above() {
        let src = "\
// SAFETY: this one justifies f only.
fn f() { unsafe { a() } }
fn g() { let x = 1; unsafe { b() } }
";
        let out = run_one("crates/x/src/lib.rs", src);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].line, 3);
    }

    #[test]
    fn match_arm_unsafe_needs_its_own_safety_comment() {
        // Mirrors the matmul dispatch shape: the second arm cannot
        // borrow the first arm's justification.
        let src = "\
fn dispatch(isa: Isa) {
    match isa {
        // SAFETY: verified avx512f.
        Isa::A => unsafe { a() },
        Isa::B => unsafe { b() },
    }
}
";
        let out = run_one("crates/x/src/lib.rs", src);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].line, 5);
    }

    // -- no-panic-in-library ----------------------------------------------

    #[test]
    fn panics_fire_in_library_code_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g(x: Option<u32>) -> u32 { x.expect(\"msg\") }\n\
                   fn h() { panic!(\"boom\"); }\n";
        let out = run_one("crates/serve/src/runtime.rs", src);
        assert_eq!(out.violations.len(), 3);
        assert!(rules_fired(&out) == ["no-panic-in-library"]);
        // Bins, benches, examples and the test host are exempt.
        for path in [
            "crates/bench/src/bin/serve.rs",
            "crates/bench/benches/gemm.rs",
            "examples/serving.rs",
            "tests/tests/serving.rs",
        ] {
            assert!(run_one(path, src).violations.is_empty(), "{path}");
        }
    }

    #[test]
    fn cfg_test_modules_and_test_fns_are_exempt() {
        let src = "\
fn lib_code(x: Option<u32>) -> u32 { x.unwrap() }

#[cfg(test)]
mod tests {
    #[test]
    fn t() { None::<u32>.unwrap(); panic!(\"in test\"); }
}

#[test]
fn top_level_test() { Some(1).expect(\"fine\"); }
";
        let out = run_one("crates/serve/src/report.rs", src);
        assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
        assert_eq!(out.violations[0].line, 1);
    }

    #[test]
    fn cfg_attrs_that_keep_the_item_in_non_test_builds_are_not_test_regions() {
        // `not(test)` and `any(test, …)` compile the item into the
        // library, and `cfg_attr(test, …)` only adds an attribute.
        let src = "\
#[cfg(not(test))]
fn f(x: Option<u32>) -> u32 { x.unwrap() }

#[cfg_attr(test, allow(dead_code))]
fn g(x: Option<u32>) -> u32 { x.unwrap() }

#[cfg(any(test, feature = \"x\"))]
fn h(x: Option<u32>) -> u32 { x.unwrap() }

#[cfg(all(test, feature = \"x\"))]
fn t(x: Option<u32>) -> u32 { x.unwrap() }
";
        let out = run_one("crates/serve/src/report.rs", src);
        let lines: Vec<u32> = out.violations.iter().map(|v| v.line).collect();
        assert_eq!(lines, [2, 5, 8], "{:?}", out.violations);
    }

    #[test]
    fn expect_as_free_fn_or_field_does_not_fire() {
        // Only method-call position (`.expect(`) fires; a field named
        // `expect` or a local fn does not.
        let src = "fn f() { let expect = 1; let _ = expect; g(expect); }";
        let out = run_one("crates/x/src/lib.rs", src);
        assert!(out.violations.is_empty());
    }

    // -- no-dead-pub -------------------------------------------------------

    /// `no-dead-pub` verdicts for `lib` (at `crates/x/src/lib.rs`) given
    /// the other workspace files in `rest`.
    fn dead_pub(lib: &str, rest: &[(&str, &str)]) -> Vec<String> {
        let mut files = vec![SourceFile::synthetic("crates/x/src/lib.rs", lib)];
        files.extend(rest.iter().map(|(p, s)| SourceFile::synthetic(p, s)));
        let out = run_rules(&files);
        let dead = out.violations.iter().filter(|v| v.rule == "no-dead-pub");
        dead.map(|v| format!("{}:{}", v.path, v.line)).collect()
    }

    #[test]
    fn uncalled_pub_items_of_every_kind_fire() {
        let src = "\
pub fn a() {}
pub const fn b() -> u8 { 0 }
pub unsafe fn c() {}
pub struct D;
pub enum E { V }
pub const F: u8 = 0;
pub static mut G: u8 = 0;
pub type H = u8;
pub trait I {}
";
        let lines: Vec<String> = (1..=9).map(|l| format!("crates/x/src/lib.rs:{l}")).collect();
        assert_eq!(dead_pub(src, &[]), lines);
    }

    #[test]
    fn a_caller_in_any_non_test_target_keeps_an_item_alive() {
        let lib = "pub fn used() {}";
        assert_eq!(dead_pub(lib, &[]).len(), 1);
        for path in [
            "crates/x/src/other.rs",
            "crates/bench/src/bin/serve.rs",
            "crates/bench/benches/datapath.rs",
            "examples/quickstart.rs",
            "perfbench/src/bin/perfbench/main.rs",
        ] {
            assert!(dead_pub(lib, &[(path, "fn main() { x::used(); }")]).is_empty(), "{path}");
        }
        // A same-file caller counts too.
        assert!(dead_pub("pub fn used() {}\nfn f() { used() }", &[]).is_empty());
    }

    #[test]
    fn comments_strings_test_regions_and_the_test_crate_are_not_uses() {
        let lib = "\
/// Call `used()` like this.
pub fn used() {}
const S: &str = \"used\";
#[cfg(test)]
mod tests {
    #[test]
    fn t() { super::used(); }
}
";
        let rest = [("tests/tests/serving.rs", "fn t() { x::used(); }")];
        assert_eq!(dead_pub(lib, &rest), ["crates/x/src/lib.rs:2"]);
    }

    #[test]
    fn inline_format_captures_are_uses() {
        let lib = "pub const WIDTH: usize = 8;";
        let bin = "fn main() { println!(\"{WIDTH:>4} {{WIDTH}}\"); }";
        assert!(dead_pub(lib, &[("crates/bench/src/bin/b.rs", bin)]).is_empty());
        // An escaped brace is not a capture.
        let bin = "fn main() { println!(\"{{WIDTH}}\"); }";
        assert_eq!(dead_pub(lib, &[("crates/bench/src/bin/b.rs", bin)]).len(), 1);
        assert_eq!(format_captures("{a} {b:>8} {{c}} {0} {}"), ["a", "b"]);
    }

    #[test]
    fn restricted_visibility_and_non_item_pubs_never_fire() {
        let lib = "\
pub(crate) fn a() {}
pub(super) struct B;
pub(in crate::x) fn c() {}
pub mod m {}
pub use std::fmt;
pub struct Fields { pub field: u8 }
";
        assert_eq!(dead_pub(lib, &[]), ["crates/x/src/lib.rs:6"]);
    }

    #[test]
    fn a_caller_outside_a_cfg_not_test_region_still_counts() {
        let lib = "pub fn used() {}\n#[cfg(not(test))]\nfn f() { used() }";
        assert!(dead_pub(lib, &[]).is_empty());
    }

    #[test]
    fn dead_pub_allowlist_budget_and_stale_entries_behave_like_other_rules() {
        use crate::allowlist::AllowEntry;
        use crate::report::AnalysisReport;
        let entry = |max| AllowEntry {
            rule: "no-dead-pub".into(),
            path: "crates/x/src/lib.rs".into(),
            max,
            why: "oracle of some_test".into(),
            line: 1,
        };
        let files = [SourceFile::synthetic("crates/x/src/lib.rs", "pub fn a() {}\npub fn b() {}")];
        let r = AnalysisReport::build(run_rules(&files), &[entry(1)], 1);
        assert_eq!((r.allowlisted_count("no-dead-pub"), r.open_count("no-dead-pub")), (1, 1));
        let r = AnalysisReport::build(run_rules(&files), &[entry(2)], 1);
        assert!(r.clean());
        let live = [SourceFile::synthetic("crates/x/src/lib.rs", "pub fn a() {}\nfn f() { a() }")];
        let r = AnalysisReport::build(run_rules(&live), &[entry(1)], 1);
        assert_eq!(r.stale.len(), 1, "an entry for a live item is stale");
        assert!(!r.clean());
    }

    #[test]
    fn violations_sort_deterministically() {
        let files = [
            SourceFile::synthetic("crates/b/src/lib.rs", "fn f(x: Option<u32>) { x.unwrap(); }"),
            SourceFile::synthetic("crates/a/src/lib.rs", "use std::time::Instant;"),
        ];
        let out = run_rules(&files);
        assert_eq!(out.violations[0].path, "crates/a/src/lib.rs");
        assert_eq!(out.violations[1].path, "crates/b/src/lib.rs");
    }
}
