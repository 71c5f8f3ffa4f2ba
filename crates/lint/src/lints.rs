//! The repo-invariant lint passes (L001–L006) over lexed sources.
//!
//! Every pass works on the token/comment streams from [`crate::lexer`]
//! — never on raw text — so nothing inside a string, raw string, char
//! literal or comment can ever produce a finding (pinned by the
//! seeded-PRNG property tests in `tests/`).
//!
//! | code | invariant |
//! |------|-----------|
//! | L001 | every `unsafe` block/fn/impl is immediately preceded by a `// SAFETY:` comment |
//! | L002 | every atomic `Ordering::*` use in non-test code has a justification in `lint/atomics.allow` |
//! | L003 | panic-prone calls in non-test library code respect the per-crate ratchet in `lint/panics.baseline`; `// INVARIANT:` comments escape individual sites |
//! | L004 | no `CRACKDB_*` name in README/CI: crackdb reads no environment variable |
//! | L005 | `.lock().unwrap()` / `.lock().expect(...)` forbidden — use `lock_unpoisoned` |
//! | L006 | non-test code lines per crate respect the ratchet in `lint/loc.baseline` |

use crate::config::{AllowEntry, Baseline};
use crate::lexer::{lex, Comment, Lexed, TokKind, Token};
use crate::workspace::{LOC_BASELINE_PATH, PANICS_BASELINE_PATH};
use std::collections::{BTreeMap, BTreeSet};

/// The five atomic memory orderings; `std::cmp::Ordering`'s variants
/// (`Less`/`Equal`/`Greater`) are disjoint, so qualified matches can
/// never confuse the two enums.
pub const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// How severe a finding is; drives the process exit code
/// (clean → 0, warnings only → 1, any error → 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Exit 1: actionable but not a new violation (ratchet slack,
    /// stale allow entries).
    Warn,
    /// Exit 2: a violated invariant.
    Error,
}

/// One lint finding, pointing at a file/line when the violation is a
/// concrete site (ratchet-level findings point at the baseline file).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Lint code (`L001`..`L006`).
    pub code: &'static str,
    /// Drives the exit code.
    pub severity: Severity,
    /// Workspace-relative file.
    pub path: String,
    /// 1-based line, or 0 for file/workspace-level findings.
    pub line: usize,
    /// Human explanation including the fix direction.
    pub message: String,
}

/// What part of a crate a file belongs to — decides which lints apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// `src/` library code: all lints.
    Lib,
    /// `src/bin/` binary code: all but the L003 panic ratchet
    /// (bench/CLI binaries may fail fast; libraries may not).
    Bin,
    /// `tests/`, `benches/`, `examples/`: L001 and L005 only (and no
    /// lines counted by L006).
    TestDir,
}

/// One source file, virtualized so tests can lint inline fixtures.
#[derive(Debug, Clone)]
pub struct VFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The crate this file belongs to (baseline bucket for L003).
    pub crate_name: String,
    /// Which lints apply.
    pub role: Role,
    /// Full source text.
    pub content: String,
}

/// A whole workspace as the lints see it.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Every `.rs` file of every member crate.
    pub files: Vec<VFile>,
    /// Justified atomic-ordering uses (`lint/atomics.allow`).
    pub atomics_allow: Vec<AllowEntry>,
    /// Per-crate panic-site ratchet (`lint/panics.baseline`).
    pub panics_baseline: Baseline,
    /// Per-crate non-test line ratchet (`lint/loc.baseline`).
    pub loc_baseline: Baseline,
    /// Non-Rust documents scanned for `CRACKDB_*` drift: README, CI.
    pub docs: Vec<(String, String)>,
}

/// The result of a full lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (code, path, line).
    pub findings: Vec<Finding>,
    /// Actual panic-site counts per crate (post-escape), for baseline
    /// updates and the human summary.
    pub panic_counts: BTreeMap<String, usize>,
    /// Every counted panic site as `(crate, path, line)` — the
    /// burn-down worklist behind `--list-panics`.
    pub panic_sites: Vec<(String, String, usize)>,
    /// Non-test code lines per crate, for baseline updates and the
    /// human summary.
    pub loc_counts: BTreeMap<String, usize>,
}

impl Report {
    /// Severity-based process exit code.
    pub fn exit_code(&self) -> i32 {
        if self.findings.iter().any(|f| f.severity == Severity::Error) {
            2
        } else if self.findings.is_empty() {
            0
        } else {
            1
        }
    }
}

/// Run every lint over the workspace.
pub fn run(ws: &Workspace) -> Report {
    let mut report = Report::default();
    let mut ordering_uses: BTreeSet<(String, String)> = BTreeSet::new();
    let mut panic_counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut panic_sites: Vec<(String, String, usize)> = Vec::new();
    let mut loc_counts: BTreeMap<String, usize> = BTreeMap::new();

    // Crates with zero panic sites or code lines still need baseline
    // entries — so pre-seed every crate at 0.
    for f in &ws.files {
        panic_counts.entry(f.crate_name.clone()).or_insert(0);
        loc_counts.entry(f.crate_name.clone()).or_insert(0);
    }

    for f in &ws.files {
        let lexed = lex(&f.content);
        let test_spans = test_token_ranges(&lexed.tokens);
        lint_file(
            f,
            &lexed,
            &test_spans,
            &mut report.findings,
            &mut ordering_uses,
            &mut panic_sites,
        );
        if f.role != Role::TestDir {
            *loc_counts.entry(f.crate_name.clone()).or_insert(0) += code_lines(&lexed, &test_spans);
        }
    }
    for (krate, _, _) in &panic_sites {
        *panic_counts.entry(krate.clone()).or_insert(0) += 1;
    }

    check_atomics_allow(ws, &ordering_uses, &mut report.findings);
    check_ratchet(
        &PANIC_RATCHET,
        &ws.panics_baseline,
        &panic_counts,
        &mut report.findings,
    );
    check_ratchet(
        &LOC_RATCHET,
        &ws.loc_baseline,
        &loc_counts,
        &mut report.findings,
    );
    check_doc_drift(ws, &mut report.findings);

    report.panic_counts = panic_counts;
    report.panic_sites = panic_sites;
    report.loc_counts = loc_counts;
    report
        .findings
        .sort_by(|a, b| (a.code, &a.path, a.line).cmp(&(b.code, &b.path, b.line)));
    report
}

/// Token-index ranges covered by `#[cfg(test)]` / `#[test]` items: the
/// attribute arms a pending flag, the next `{` closes the excluded
/// region's head (the region runs from the attribute to the
/// brace-matched `}`), and a `;` before any `{` cancels (e.g.
/// `#[cfg(test)] use …;`).
fn test_token_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut pending: Option<usize> = None;
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokKind::Punct('#')
                if matches!(
                    tokens.get(i + 1).map(|t| &t.kind),
                    Some(TokKind::Punct('['))
                ) =>
            {
                let (idents, end) = attr_idents(tokens, i + 1);
                let is_test = idents.iter().any(|s| s == "test")
                    && (idents.len() == 1 || idents.iter().any(|s| s == "cfg"));
                if is_test && pending.is_none() {
                    pending = Some(i);
                }
                i = end;
                continue;
            }
            TokKind::Punct(';') if pending.is_some() => pending = None,
            TokKind::Punct('{') => {
                if let Some(start) = pending.take() {
                    ranges.push((start, matching_brace(tokens, i)));
                }
            }
            _ => {}
        }
        i += 1;
    }
    ranges
}

/// Identifiers inside a `[...]` attribute starting at the opening
/// bracket index; returns them plus the index just past the closing
/// bracket.
fn attr_idents(tokens: &[Token], open: usize) -> (Vec<String>, usize) {
    let mut depth = 0usize;
    let mut idents = Vec::new();
    let mut i = open;
    while i < tokens.len() {
        match &tokens[i].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (idents, i + 1);
                }
            }
            TokKind::Ident(s) => idents.push(s.clone()),
            _ => {}
        }
        i += 1;
    }
    (idents, i)
}

/// Index of the `}` matching the `{` at `open` (end of stream if the
/// source is unbalanced — lenient, like the lexer).
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}

fn in_ranges(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(a, b)| i >= a && i <= b)
}

/// True when a comment containing `marker` immediately precedes
/// `line`: either a contiguous comment block whose last line is
/// `line - 1` (chained upward, so multi-comment blocks work) or a
/// comment starting on `line` itself (trailing / inline).
fn marker_comment_precedes(comments: &[Comment], line: usize, marker: &str) -> bool {
    if comments
        .iter()
        .any(|c| c.start_line == line && c.text.contains(marker))
    {
        return true;
    }
    let mut expected = line.saturating_sub(1);
    while expected > 0 {
        match comments.iter().find(|c| c.end_line == expected) {
            Some(c) => {
                if c.text.contains(marker) {
                    return true;
                }
                expected = c.start_line.saturating_sub(1);
            }
            None => return false,
        }
    }
    false
}

/// A well-formed `CRACKDB_*` env name: the prefix plus uppercase /
/// digits / underscores only.
fn is_crackdb_name(s: &str) -> bool {
    s.starts_with("CRACKDB_")
        && s.len() > "CRACKDB_".len()
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// L006 front end: the lines of `lexed` holding code outside the test
/// spans. Comment-only and blank lines hold no token; a multi-line
/// string literal counts every line it spans.
fn code_lines(lexed: &Lexed, test_spans: &[(usize, usize)]) -> usize {
    let mut lines = BTreeSet::new();
    for (i, t) in lexed.tokens.iter().enumerate() {
        if in_ranges(test_spans, i) {
            continue;
        }
        let extra = match &t.kind {
            TokKind::Str(s) => s.matches('\n').count(),
            _ => 0,
        };
        lines.extend(t.line..=t.line + extra);
    }
    lines.len()
}

/// All single-file passes in one token walk per file.
fn lint_file(
    f: &VFile,
    lexed: &Lexed,
    test_spans: &[(usize, usize)],
    findings: &mut Vec<Finding>,
    ordering_uses: &mut BTreeSet<(String, String)>,
    panic_sites: &mut Vec<(String, String, usize)>,
) {
    let toks = &lexed.tokens;
    let ident = |i: usize| match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct = |i: usize, c: char| matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c);

    for (i, tok) in toks.iter().enumerate() {
        let line = tok.line;
        let in_test = f.role == Role::TestDir || in_ranges(test_spans, i);

        // L001 — unsafe demands a SAFETY argument, test code included:
        // an unsound test can corrupt every assertion that follows it.
        if ident(i) == Some("unsafe") && !marker_comment_precedes(&lexed.comments, line, "SAFETY:")
        {
            findings.push(Finding {
                code: "L001",
                severity: Severity::Error,
                path: f.path.clone(),
                line,
                message: "`unsafe` without an immediately preceding `// SAFETY:` comment".into(),
            });
        }

        // L005 — `.lock().unwrap()` / `.lock().expect(…)`: poison must
        // be recovered (`lock_unpoisoned`), not escalated into a
        // panic cascade across unrelated threads.
        if punct(i, '.')
            && ident(i + 1) == Some("lock")
            && punct(i + 2, '(')
            && punct(i + 3, ')')
            && punct(i + 4, '.')
            && matches!(ident(i + 5), Some("unwrap" | "expect"))
            && punct(i + 6, '(')
        {
            findings.push(Finding {
                code: "L005",
                severity: Severity::Error,
                path: f.path.clone(),
                line,
                message: format!(
                    "`.lock().{}(…)` — use `lock_unpoisoned` (poison-recovering idiom)",
                    ident(i + 5).unwrap_or("unwrap")
                ),
            });
        }

        if in_test {
            continue;
        }

        // L002 — atomic ordering uses (qualified `Ordering::X`, plus
        // the unambiguous bare imports `SeqCst` / `AcqRel`).
        if ident(i) == Some("Ordering") && punct(i + 1, ':') && punct(i + 2, ':') {
            if let Some(ord) = ident(i + 3).filter(|s| ATOMIC_ORDERINGS.contains(s)) {
                ordering_uses.insert((f.path.clone(), ord.to_string()));
            }
        }
        if matches!(ident(i), Some("SeqCst" | "AcqRel"))
            && !(punct(i.wrapping_sub(1), ':') && punct(i.wrapping_sub(2), ':'))
        {
            // A bare use without a `::` path — only possible via a
            // `use …::Ordering::X` import (itself caught above), so
            // record the use site too.
            if let Some(ord) = ident(i) {
                ordering_uses.insert((f.path.clone(), ord.to_string()));
            }
        }

        // L003 — panic-prone calls in library code (ratcheted;
        // `// INVARIANT:` comments escape individual argued sites).
        if f.role == Role::Lib {
            let is_panic_site = (matches!(ident(i), Some("unwrap" | "expect"))
                && punct(i + 1, '('))
                || (matches!(ident(i), Some("panic" | "todo" | "unimplemented"))
                    && punct(i + 1, '!'));
            if is_panic_site && !marker_comment_precedes(&lexed.comments, line, "INVARIANT:") {
                panic_sites.push((f.crate_name.clone(), f.path.clone(), line));
            }
        }
    }
}

/// L002 back end: every ordering use needs an allow entry; every allow
/// entry must still match a use (staleness keeps the file honest).
fn check_atomics_allow(
    ws: &Workspace,
    uses: &BTreeSet<(String, String)>,
    findings: &mut Vec<Finding>,
) {
    for (path, ord) in uses {
        let justified = ws
            .atomics_allow
            .iter()
            .any(|e| &e.path == path && &e.ordering == ord);
        if !justified {
            findings.push(Finding {
                code: "L002",
                severity: Severity::Error,
                path: path.clone(),
                line: 0,
                message: format!(
                    "`Ordering::{ord}` has no justification in lint/atomics.allow \
                     (add `{path} {ord} — <why this ordering is sufficient>`)"
                ),
            });
        }
    }
    for e in &ws.atomics_allow {
        if !uses.contains(&(e.path.clone(), e.ordering.clone())) {
            findings.push(Finding {
                code: "L002",
                severity: Severity::Warn,
                path: "lint/atomics.allow".into(),
                line: e.line,
                message: format!(
                    "stale entry: `{} {}` no longer matches any non-test use",
                    e.path, e.ordering
                ),
            });
        }
    }
}

/// A per-crate count that may only go down, checked against a
/// baseline file (L003 panic sites, L006 code lines).
struct Ratchet {
    code: &'static str,
    path: &'static str,
    /// What is counted, as it reads after a number.
    what: &'static str,
    /// How to get back under the baseline.
    fix: &'static str,
}

const PANIC_RATCHET: Ratchet = Ratchet {
    code: "L003",
    path: PANICS_BASELINE_PATH,
    what: "panic sites",
    fix: "convert to typed errors or argue `// INVARIANT:` escapes",
};

const LOC_RATCHET: Ratchet = Ratchet {
    code: "L006",
    path: LOC_BASELINE_PATH,
    what: "non-test lines",
    fix: "delete code to make room, or raise the baseline in a change that argues for it",
};

/// L003/L006 back end: a crate missing from the baseline or above it is
/// an error, a crate below it a warning to ratchet down.
fn check_ratchet(
    r: &Ratchet,
    baseline: &Baseline,
    counts: &BTreeMap<String, usize>,
    findings: &mut Vec<Finding>,
) {
    let mut push = |severity, message| {
        findings.push(Finding {
            code: r.code,
            severity,
            path: r.path.into(),
            line: 0,
            message,
        })
    };
    for (krate, &n) in counts {
        match baseline.counts.get(krate) {
            None => push(
                Severity::Error,
                format!(
                    "crate `{krate}` ({n} {}) missing from the baseline — \
                     run with --update-baselines",
                    r.what
                ),
            ),
            Some(&base) if n > base => push(
                Severity::Error,
                format!(
                    "crate `{krate}` has {n} {}, baseline allows {base}: {}",
                    r.what, r.fix
                ),
            ),
            Some(&base) if n < base => push(
                Severity::Warn,
                format!(
                    "crate `{krate}` improved to {n} {} (baseline {base}) — \
                     ratchet down with --update-baselines",
                    r.what
                ),
            ),
            Some(_) => {}
        }
    }
    for krate in baseline.counts.keys() {
        if !counts.contains_key(krate) {
            push(
                Severity::Warn,
                format!("baseline names unknown crate `{krate}`"),
            );
        }
    }
}

/// L004: crackdb reads no environment variable, so every `CRACKDB_*`
/// name mentioned in the scanned documents is doc drift.
fn check_doc_drift(ws: &Workspace, findings: &mut Vec<Finding>) {
    for (path, content) in &ws.docs {
        for (lineno, line) in content.lines().enumerate() {
            for name in crackdb_mentions(line) {
                findings.push(Finding {
                    code: "L004",
                    severity: Severity::Error,
                    path: path.clone(),
                    line: lineno + 1,
                    message: format!(
                        "`{name}` is not an environment variable crackdb reads — doc drift"
                    ),
                });
            }
        }
    }
}

/// Maximal `CRACKDB_[A-Z0-9_]+` runs in a plain-text line.
fn crackdb_mentions(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(off) = line[i..].find("CRACKDB_") {
        let start = i + off;
        // Must not be the tail of a larger identifier.
        if start > 0 {
            let prev = bytes[start - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                i = start + 1;
                continue;
            }
        }
        let mut end = start;
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        let name = line[start..end].trim_end_matches('_').to_string();
        if is_crackdb_name(&name) {
            out.push(name);
        }
        i = end;
    }
    out
}
