//! End-to-end tests of the lint passes over in-memory fixtures: one
//! firing and one clean case per code, ratchet behavior, staleness,
//! doc drift, and seeded-PRNG property tests pinning the lexer-backed
//! guarantee that comments and strings can never produce findings.

use crackdb_lint::config::{parse_atomics_allow, parse_baseline};
use crackdb_lint::lints::{run, Role, Severity, VFile, Workspace};
use crackdb_rng::{Rng, SeedableRng};

/// One library file named `crates/x/src/lib.rs` in crate `x`.
fn lib_file(content: &str) -> VFile {
    VFile {
        path: "crates/x/src/lib.rs".into(),
        crate_name: "x".into(),
        role: Role::Lib,
        content: content.into(),
    }
}

/// A workspace holding just `f`, with a baseline allowing `panics`
/// sites in crate `x` and a line baseline at `f`'s own count (so L003
/// and L006 noise never leaks into other tests).
fn ws_with(f: VFile, panics: usize) -> Workspace {
    let mut ws = Workspace {
        files: vec![f],
        atomics_allow: Vec::new(),
        panics_baseline: parse_baseline(&format!("x {panics}\n")).expect("fixture baseline"),
        loc_baseline: Default::default(),
        docs: Vec::new(),
    };
    ws.loc_baseline.counts = run(&ws).loc_counts;
    ws
}

fn codes(ws: &Workspace) -> Vec<&'static str> {
    run(ws).findings.iter().map(|f| f.code).collect()
}

// ---------------------------------------------------------------- L001

#[test]
fn l001_fires_on_unsafe_without_safety_comment() {
    let ws = ws_with(
        lib_file("pub fn f(p: *const u8) -> u8 { unsafe { *p } }"),
        0,
    );
    assert_eq!(codes(&ws), vec!["L001"]);
}

#[test]
fn l001_clean_with_preceding_safety_comment() {
    let src = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller contract says p is valid.\n    unsafe { *p }\n}\n";
    let ws = ws_with(lib_file(src), 0);
    assert!(codes(&ws).is_empty(), "{:?}", run(&ws).findings);
}

#[test]
fn l001_accepts_multi_line_comment_blocks_and_trailing_comments() {
    let block = "fn f(p: *const u8) -> u8 {\n    // SAFETY: a longer argument\n    // spanning two comment lines.\n    unsafe { *p }\n}\n";
    assert!(codes(&ws_with(lib_file(block), 0)).is_empty());
    let trailing =
        "fn f(p: *const u8) -> u8 {\n    unsafe { *p } // SAFETY: same-line argument.\n}\n";
    assert!(codes(&ws_with(lib_file(trailing), 0)).is_empty());
}

#[test]
fn l001_fires_even_in_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { unsafe { std::hint::unreachable_unchecked() } }\n}\n";
    let ws = ws_with(lib_file(src), 0);
    assert_eq!(codes(&ws), vec!["L001"]);
}

// ---------------------------------------------------------------- L002

#[test]
fn l002_fires_on_unjustified_ordering() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Acquire) }\n";
    let ws = ws_with(lib_file(src), 0);
    assert_eq!(codes(&ws), vec!["L002"]);
}

#[test]
fn l002_clean_with_allow_entry_and_flags_stale_entries() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Acquire) }\n";
    let mut ws = ws_with(lib_file(src), 0);
    ws.atomics_allow = parse_atomics_allow(
        "crates/x/src/lib.rs Acquire — pairs with the writer's Release\n\
         crates/x/src/lib.rs SeqCst — no longer used anywhere\n",
    )
    .expect("fixture allow");
    let rep = run(&ws);
    assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
    let stale = &rep.findings[0];
    assert_eq!((stale.code, stale.severity), ("L002", Severity::Warn));
    assert!(stale.message.contains("stale"));
    assert_eq!(rep.exit_code(), 1);
}

#[test]
fn l002_catches_bare_imported_seqcst() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering::SeqCst};\npub fn f(a: &AtomicU64) -> u64 { a.load(SeqCst) }\n";
    let ws = ws_with(lib_file(src), 0);
    // Both the `use` path and the bare call site resolve to one
    // (file, SeqCst) pair — exactly one finding.
    assert_eq!(codes(&ws), vec!["L002"]);
}

#[test]
fn l002_ignores_cmp_ordering_and_test_code() {
    let cmp = "use std::cmp::Ordering;\npub fn f(a: i64, b: i64) -> bool { a.cmp(&b) == Ordering::Less }\n";
    assert!(codes(&ws_with(lib_file(cmp), 0)).is_empty());
    let test_only = "#[cfg(test)]\nmod tests {\n    use std::sync::atomic::{AtomicU64, Ordering};\n    #[test]\n    fn t() { AtomicU64::new(0).store(1, Ordering::SeqCst); }\n}\n";
    assert!(codes(&ws_with(lib_file(test_only), 0)).is_empty());
}

// ---------------------------------------------------------------- L003

#[test]
fn l003_ratchet_exceeded_is_an_error() {
    let src = "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
    let ws = ws_with(lib_file(src), 0);
    let rep = run(&ws);
    assert_eq!(rep.findings.len(), 1);
    assert_eq!(rep.findings[0].code, "L003");
    assert_eq!(rep.findings[0].severity, Severity::Error);
    assert_eq!(rep.exit_code(), 2);
}

#[test]
fn l003_at_baseline_is_clean_and_below_baseline_warns() {
    let src = "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
    assert!(codes(&ws_with(lib_file(src), 1)).is_empty());
    let rep = run(&ws_with(lib_file(src), 2));
    assert_eq!(rep.findings.len(), 1);
    assert_eq!(rep.findings[0].severity, Severity::Warn);
    assert!(rep.findings[0].message.contains("improved"));
}

#[test]
fn l003_missing_crate_is_an_error() {
    let mut ws = ws_with(lib_file("pub fn f() {}"), 0);
    ws.panics_baseline = Default::default();
    let rep = run(&ws);
    assert_eq!(rep.findings.len(), 1);
    assert!(rep.findings[0]
        .message
        .contains("missing from the baseline"));
}

#[test]
fn l003_invariant_comment_escapes_a_site() {
    let src = "pub fn f(v: Option<u8>) -> u8 {\n    // INVARIANT: caller checked is_some above.\n    v.unwrap()\n}\n";
    let ws = ws_with(lib_file(src), 0);
    assert!(codes(&ws).is_empty());
    assert_eq!(run(&ws).panic_counts["x"], 0);
}

#[test]
fn l003_skips_test_code_bins_and_test_dirs() {
    let src =
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Option::<u8>::None.unwrap(); }\n}\n";
    assert!(codes(&ws_with(lib_file(src), 0)).is_empty());
    for (path, role) in [
        ("crates/x/src/bin/tool.rs", Role::Bin),
        ("crates/x/tests/it.rs", Role::TestDir),
    ] {
        let f = VFile {
            path: path.into(),
            crate_name: "x".into(),
            role,
            content: "fn main() { Option::<u8>::None.unwrap(); }".into(),
        };
        assert!(codes(&ws_with(f, 0)).is_empty(), "{path}");
    }
}

#[test]
fn l003_counts_panic_macros_but_not_macro_named_idents() {
    let src = "pub fn f() { panic!(\"boom\"); }\npub fn g() { todo!() }\n";
    assert_eq!(run(&ws_with(lib_file(src), 0)).panic_counts["x"], 2);
    // `panic` / `unwrap` as plain identifiers (no `!` / `(`) don't count.
    let idents = "pub fn f(panic: u8, unwrap: u8) -> u8 { panic + unwrap }\n";
    assert_eq!(run(&ws_with(lib_file(idents), 0)).panic_counts["x"], 0);
}

// ---------------------------------------------------------------- L004

/// The source half of the env rule is clippy's (`disallowed-methods`
/// on `std::env::var`); L004 reads documents only.
#[test]
fn l004_scans_docs_not_source() {
    let src = "pub fn f() -> Option<String> { std::env::var(\"CRACKDB_DATA_DIR\").ok() }\n";
    assert!(codes(&ws_with(lib_file(src), 0)).is_empty());
    let mut ws = ws_with(lib_file("pub fn f() {}\n"), 0);
    ws.docs.push((
        ".github/workflows/ci.yml".into(),
        "env:\n  CRACKDB_KERNEL: scalar\n".into(),
    ));
    assert_eq!(codes(&ws), vec!["L004"]);
}

#[test]
fn l004_ignores_non_crackdb_vars() {
    let src = "pub fn f() -> Option<String> { std::env::var(\"HOME\").ok() }\n";
    let mut ws = ws_with(lib_file(src), 0);
    ws.docs.push((
        "README.md".into(),
        "Set MALLOC_ARENA_MAX=1 or XCRACKDB_FOO=1.\n".into(),
    ));
    assert!(codes(&ws).is_empty());
}

/// The registry is empty: crackdb reads no environment variable, so
/// every `CRACKDB_*` name a document mentions is drift.
#[test]
fn l004_doc_drift_flags_unregistered_names() {
    let mut ws = ws_with(lib_file("pub fn f() {}\n"), 0);
    ws.docs.push((
        "README.md".into(),
        "No knobs here.\nSet CRACKDB_DATA_DIR=/tmp/data.\nSet CRACKDB_IMAGINARY=1 for magic.\n"
            .into(),
    ));
    let rep = run(&ws);
    let found: Vec<_> = rep.findings.iter().map(|f| (f.code, f.line)).collect();
    assert_eq!(found, vec![("L004", 2), ("L004", 3)], "{:?}", rep.findings);
    assert!(rep.findings[0].message.contains("CRACKDB_DATA_DIR"));
    assert!(rep.findings[1].message.contains("CRACKDB_IMAGINARY"));
}

// ---------------------------------------------------------------- L005

#[test]
fn l005_fires_on_lock_unwrap_and_lock_expect_everywhere() {
    let src = "use std::sync::Mutex;\npub fn f(m: &Mutex<u8>) -> u8 { *m.lock().unwrap() }\n";
    // The unwrap is also an L003 panic site; baseline 1 isolates L005.
    assert_eq!(codes(&ws_with(lib_file(src), 1)), vec!["L005"]);
    let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { *std::sync::Mutex::new(0u8).lock().expect(\"lock\"); }\n}\n";
    assert_eq!(codes(&ws_with(lib_file(in_test), 0)), vec!["L005"]);
}

#[test]
fn l005_clean_on_the_recovering_idiom() {
    let src = "use std::sync::{Mutex, PoisonError};\npub fn f(m: &Mutex<u8>) -> u8 { *m.lock().unwrap_or_else(PoisonError::into_inner) }\n";
    let ws = ws_with(lib_file(src), 0);
    assert!(codes(&ws).is_empty());
}

// ---------------------------------------------------------------- L006

/// Twelve lines, four of them code: comments, blank lines and the test
/// module (attribute included) do not count; a two-line string counts
/// twice.
const LOC_SRC: &str = "// header comment\n\npub fn f() -> &'static str {\n    /* block */\n    \"two\nlines\"\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";

#[test]
fn l006_counts_code_lines_outside_tests_only() {
    assert_eq!(run(&ws_with(lib_file(LOC_SRC), 0)).loc_counts["x"], 4);
    let test_dir = VFile {
        path: "crates/x/tests/it.rs".into(),
        crate_name: "x".into(),
        role: Role::TestDir,
        content: LOC_SRC.into(),
    };
    assert_eq!(run(&ws_with(test_dir, 0)).loc_counts["x"], 0);
}

#[test]
fn l006_above_or_missing_from_the_baseline_is_an_error() {
    let mut ws = ws_with(lib_file(LOC_SRC), 0);
    ws.loc_baseline = parse_baseline("x 3\n").expect("fixture baseline");
    let rep = run(&ws);
    assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
    assert_eq!(
        (rep.findings[0].code, rep.findings[0].severity),
        ("L006", Severity::Error)
    );
    assert!(rep.findings[0].message.contains("4 non-test lines"));
    assert_eq!(rep.exit_code(), 2);
    ws.loc_baseline = Default::default();
    let rep = run(&ws);
    assert_eq!(rep.findings.len(), 1);
    assert!(rep.findings[0]
        .message
        .contains("missing from the baseline"));
}

#[test]
fn l006_at_baseline_is_clean_and_below_baseline_warns() {
    let mut ws = ws_with(lib_file(LOC_SRC), 0);
    assert!(codes(&ws).is_empty(), "{:?}", run(&ws).findings);
    ws.loc_baseline = parse_baseline("x 9\n").expect("fixture baseline");
    let rep = run(&ws);
    assert_eq!(rep.findings.len(), 1);
    assert_eq!(
        (rep.findings[0].code, rep.findings[0].severity),
        ("L006", Severity::Warn)
    );
    assert!(rep.findings[0].message.contains("ratchet down"));
    assert_eq!(rep.exit_code(), 1);
}

// ------------------------------------------------- property tests

/// Trigger phrases that would fire every lint if they ever leaked out
/// of comments or strings.
const TRIGGERS: [&str; 6] = [
    "unsafe { *p }",
    ".lock().unwrap()",
    "Ordering::SeqCst",
    "panic!(\"boom\")",
    "v.unwrap()",
    "todo!()",
];

/// Deterministically generated containers: every trigger phrase is
/// embedded only inside comments, strings, raw strings and byte
/// strings — the lexed token stream must stay trigger-free, so the
/// lints must report nothing.
#[test]
fn property_triggers_inside_comments_and_strings_never_fire() {
    let mut rng = crackdb_rng::rngs::StdRng::seed_from_u64(0x001D_0E05);
    for round in 0..200 {
        let mut src = String::from("pub fn f() -> &'static str {\n");
        for _ in 0..rng.gen_range(1usize..6) {
            let t = TRIGGERS[rng.gen_range(0usize..TRIGGERS.len())];
            match rng.gen_range(0u32..5) {
                0 => src.push_str(&format!("    // line comment with {t}\n")),
                1 => src.push_str(&format!("    /* block {t} comment */\n")),
                2 => src.push_str(&format!("    let _s = \"str with {t} inside\";\n")),
                3 => src.push_str(&format!("    let _r = r#\"raw {t} string\"#;\n")),
                _ => src.push_str(&format!("    /* nested /* {t} */ still comment */\n")),
            }
        }
        src.push_str("    \"done\"\n}\n");
        let ws = ws_with(lib_file(&src), 0);
        let rep = run(&ws);
        assert!(
            rep.findings.is_empty() && rep.panic_counts["x"] == 0,
            "round {round}: false positive on:\n{src}\n{:?}",
            rep.findings
        );
    }
}

/// The dual: the same triggers pasted as real code outside any
/// comment/string must keep firing no matter what commented/quoted
/// noise surrounds them.
#[test]
fn property_real_sites_fire_despite_surrounding_noise() {
    let mut rng = crackdb_rng::rngs::StdRng::seed_from_u64(0xCAFE);
    for round in 0..100 {
        let noise = |rng: &mut crackdb_rng::rngs::StdRng| {
            let t = TRIGGERS[rng.gen_range(0usize..TRIGGERS.len())];
            if rng.gen_bool(0.5) {
                format!("    // noise: {t}\n")
            } else {
                format!("    let _n = \"noise {t}\";\n")
            }
        };
        let mut src = String::from("pub fn f(v: Option<u8>, p: *const u8) -> u8 {\n");
        src.push_str(&noise(&mut rng));
        src.push_str("    let _x = unsafe { *p };\n"); // L001
        src.push_str(&noise(&mut rng));
        src.push_str("    v.unwrap()\n"); // one L003 site
        src.push_str("}\n");
        let ws = ws_with(lib_file(&src), 0);
        let rep = run(&ws);
        let codes: Vec<_> = rep.findings.iter().map(|f| f.code).collect();
        assert!(
            codes.contains(&"L001") && rep.panic_counts["x"] == 1,
            "round {round}: missed real sites in:\n{src}\n{codes:?}"
        );
    }
}
