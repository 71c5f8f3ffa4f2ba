//! Finding output: a human-readable table on stdout and a
//! machine-readable JSON document for the CI artifact. JSON is
//! hand-rolled (the tool is zero-dependency); only strings need
//! escaping and only findings are emitted, so the writer stays tiny.

use crate::lints::{Report, Severity};
use std::fmt::Write as _;

/// Render the human table plus per-crate ratchet summary.
pub fn human(report: &Report) -> String {
    let mut out = String::new();
    if report.findings.is_empty() {
        out.push_str("crackdb-lint: no findings\n");
    } else {
        // Column widths over the actual rows keep the table aligned
        // without a table-layout dependency.
        let loc = |f: &crate::lints::Finding| {
            if f.line > 0 {
                format!("{}:{}", f.path, f.line)
            } else {
                f.path.clone()
            }
        };
        let wcode = report
            .findings
            .iter()
            .map(|f| f.code.len())
            .max()
            .unwrap_or(4);
        let wloc = report
            .findings
            .iter()
            .map(|f| loc(f).len())
            .max()
            .unwrap_or(8);
        for f in &report.findings {
            let sev = match f.severity {
                Severity::Error => "error",
                Severity::Warn => "warn ",
            };
            let _ = writeln!(
                out,
                "{sev}  {:<wcode$}  {:<wloc$}  {}",
                f.code,
                loc(f),
                f.message
            );
        }
    }
    let _ = writeln!(out, "\npanic-site ratchet (L003, non-test library code):");
    for (krate, n) in &report.panic_counts {
        let _ = writeln!(out, "  {krate:<24} {n}");
    }
    let _ = writeln!(out, "\ncode-line ratchet (L006, non-test code):");
    for (krate, n) in &report.loc_counts {
        let _ = writeln!(out, "  {krate:<24} {n}");
    }
    let errors = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    let warns = report.findings.len() - errors;
    let _ = writeln!(out, "\n{errors} error(s), {warns} warning(s)");
    out
}

/// Render the JSON findings document.
pub fn json(report: &Report) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let sev = match f.severity {
            Severity::Error => "error",
            Severity::Warn => "warn",
        };
        let _ = write!(
            out,
            "    {{\"code\": {}, \"severity\": {}, \"path\": {}, \"line\": {}, \"message\": {}}}",
            escape(f.code),
            escape(sev),
            escape(&f.path),
            f.line,
            escape(&f.message)
        );
        out.push_str(if i + 1 < report.findings.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    let maps: Vec<String> = [
        ("panic_counts", &report.panic_counts),
        ("loc_counts", &report.loc_counts),
    ]
    .iter()
    .map(|(key, counts)| {
        let rows: Vec<String> = counts
            .iter()
            .map(|(krate, count)| format!("    {}: {count}", escape(krate)))
            .collect();
        format!("  {}: {{\n{}\n  }}", escape(key), rows.join(",\n"))
    })
    .collect();
    out.push_str(&maps.join(",\n"));
    out.push_str("\n}\n");
    out
}

/// Minimal JSON string escaping: quotes, backslashes, control chars.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::Finding;

    #[test]
    fn json_escapes_and_structures() {
        let mut r = Report::default();
        r.findings.push(Finding {
            code: "L001",
            severity: Severity::Error,
            path: "a \"b\".rs".into(),
            line: 3,
            message: "back\\slash\nnewline".into(),
        });
        r.panic_counts.insert("crackdb-core".into(), 7);
        r.loc_counts.insert("crackdb-core".into(), 1234);
        let j = json(&r);
        assert!(j.contains(r#""path": "a \"b\".rs""#), "{j}");
        assert!(j.contains(r#"back\\slash\nnewline"#), "{j}");
        assert!(j.contains(r#""crackdb-core": 7"#), "{j}");
        assert!(j.contains(r#""loc_counts": {"#), "{j}");
        assert!(j.contains(r#""crackdb-core": 1234"#), "{j}");
    }

    #[test]
    fn human_mentions_ratchet_and_counts() {
        let mut r = Report::default();
        r.panic_counts.insert("crackdb-core".into(), 7);
        let h = human(&r);
        assert!(h.contains("no findings"));
        assert!(h.contains("crackdb-core"));
        assert!(h.contains("0 error(s)"));
    }
}
