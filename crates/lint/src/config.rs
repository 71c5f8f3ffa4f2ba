//! The committed lint policy files.
//!
//! `lint/atomics.allow` — one justified atomic-ordering use per line:
//!
//! ```text
//! # path                                  ordering  why
//! crates/columnstore/src/ops/parallel.rs  Relaxed   advisory hint; staleness never changes answers
//! ```
//!
//! `lint/panics.baseline` and `lint/loc.baseline` — the per-crate
//! panic-site and non-test line ratchets, one format:
//!
//! ```text
//! crackdb-core 37
//! ```
//!
//! All formats are whitespace-separated so they diff line-per-fact;
//! `#` starts a comment, blank lines are ignored.

use std::collections::BTreeMap;

/// One `lint/atomics.allow` line: this file may use this ordering,
/// because.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Workspace-relative file the ordering appears in.
    pub path: String,
    /// One of the five atomic orderings.
    pub ordering: String,
    /// Why this ordering is sufficient at these sites.
    pub why: String,
    /// 1-based line in the allow file (for stale-entry findings).
    pub line: usize,
}

/// Parse `lint/atomics.allow`. Malformed lines are hard errors — a
/// silently dropped justification would let an unjustified ordering
/// through on the next edit.
pub fn parse_atomics_allow(content: &str) -> Result<Vec<AllowEntry>, String> {
    let mut out = Vec::new();
    for (i, raw) in content.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (path, ordering) = match (parts.next(), parts.next()) {
            (Some(p), Some(o)) => (p.to_string(), o.to_string()),
            _ => {
                return Err(format!(
                    "lint/atomics.allow:{}: expected `<path> <ordering> <why>`",
                    i + 1
                ))
            }
        };
        let why = parts.collect::<Vec<_>>().join(" ");
        if why
            .trim_matches(|c: char| c == '—' || c == '-' || c.is_whitespace())
            .is_empty()
        {
            return Err(format!(
                "lint/atomics.allow:{}: `{path} {ordering}` has no justification",
                i + 1
            ));
        }
        if !crate::lints::ATOMIC_ORDERINGS.contains(&ordering.as_str()) {
            return Err(format!(
                "lint/atomics.allow:{}: `{ordering}` is not an atomic ordering",
                i + 1
            ));
        }
        out.push(AllowEntry {
            path,
            ordering,
            why,
            line: i + 1,
        });
    }
    Ok(out)
}

/// A per-crate ratchet file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Max allowed count per crate.
    pub counts: BTreeMap<String, usize>,
}

/// Header of `lint/panics.baseline`.
pub const PANICS_HEADER: &str = "\
# L003 panic-site ratchet: per-crate counts of unwrap()/expect(/panic!/todo!/
# unimplemented! in non-test library code without an `// INVARIANT:` escape.
# Counts may only decrease. Regenerate with:
#   cargo run -p crackdb-lint -- --update-baselines
";

/// Header of `lint/loc.baseline`.
pub const LOC_HEADER: &str = "\
# L006 code-line ratchet: per-crate counts of non-blank, non-comment lines
# outside tests (src/ files, minus #[cfg(test)] / #[test] items).
# A count rises only in a change that argues for the growth. Regenerate with:
#   cargo run -p crackdb-lint -- --update-baselines
";

/// Parse a ratchet file (`lint/panics.baseline`, `lint/loc.baseline`).
pub fn parse_baseline(content: &str) -> Result<Baseline, String> {
    let mut counts = BTreeMap::new();
    for (i, raw) in content.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next().map(str::parse::<usize>)) {
            (Some(name), Some(Ok(n))) => {
                counts.insert(name.to_string(), n);
            }
            _ => return Err(format!("line {}: expected `<crate> <count>`", i + 1)),
        }
    }
    Ok(Baseline { counts })
}

/// Serialize a baseline back out under `header` (for
/// `--update-baselines`).
pub fn render_baseline(header: &str, counts: &BTreeMap<String, usize>) -> String {
    let mut s = String::from(header);
    for (k, v) in counts {
        s.push_str(&format!("{k} {v}\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_roundtrip_and_errors() {
        let ok = parse_atomics_allow(
            "# header\n\ncrates/columnstore/src/ops/parallel.rs Relaxed — advisory hint\n",
        )
        .expect("parses");
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].ordering, "Relaxed");
        assert_eq!(ok[0].line, 3);
        assert!(parse_atomics_allow("a.rs SeqCst").is_err(), "no why");
        assert!(parse_atomics_allow("a.rs Sideways because").is_err());
    }

    #[test]
    fn baseline_roundtrip() {
        let b = parse_baseline("# c\ncrackdb-core 37\ncrackdb-lint 0\n").expect("parses");
        assert_eq!(b.counts["crackdb-core"], 37);
        let out = render_baseline(PANICS_HEADER, &b.counts);
        assert_eq!(parse_baseline(&out).expect("reparses"), b);
        assert!(parse_baseline("crackdb-core many").is_err());
    }
}
