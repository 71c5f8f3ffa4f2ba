//! Load the real workspace from disk into the [`crate::lints`] model:
//! member discovery from the root `Cargo.toml`, `.rs` file walking
//! with role classification, and the policy files.

use crate::config::{parse_atomics_allow, parse_baseline, Baseline};
use crate::lints::{Role, VFile, Workspace};
use std::fs;
use std::path::{Path, PathBuf};

/// Where the policy files live, relative to the workspace root.
pub const ATOMICS_ALLOW_PATH: &str = "lint/atomics.allow";
/// See [`ATOMICS_ALLOW_PATH`].
pub const PANICS_BASELINE_PATH: &str = "lint/panics.baseline";
/// See [`ATOMICS_ALLOW_PATH`].
pub const LOC_BASELINE_PATH: &str = "lint/loc.baseline";

/// Documents scanned for `CRACKDB_*` drift (L004): the README and CI.
pub const DOC_PATHS: [&str; 2] = ["README.md", ".github/workflows/ci.yml"];

/// Find the workspace root: walk up from `start` to the first
/// directory whose `Cargo.toml` contains a `[workspace]` table.
pub fn find_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest)
                .map_err(|e| format!("{}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml above the current directory".into());
        }
    }
}

/// Load everything the lints need from a workspace root.
pub fn load(root: &Path) -> Result<Workspace, String> {
    let mut ws = Workspace::default();
    for member in members(root)? {
        let dir = root.join(&member);
        let crate_name = package_name(&dir.join("Cargo.toml"))?;
        for (sub, role) in [
            ("src", Role::Lib),
            ("tests", Role::TestDir),
            ("benches", Role::TestDir),
            ("examples", Role::TestDir),
        ] {
            collect_rs(root, &dir.join(sub), &crate_name, role, &mut ws.files)?;
        }
    }
    ws.files.sort_by(|a, b| a.path.cmp(&b.path));

    ws.atomics_allow = read_policy(root, ATOMICS_ALLOW_PATH, parse_atomics_allow)?;
    ws.panics_baseline = read_baseline(root, PANICS_BASELINE_PATH)?;
    ws.loc_baseline = read_baseline(root, LOC_BASELINE_PATH)?;

    for doc in DOC_PATHS {
        let p = root.join(doc);
        if p.is_file() {
            ws.docs.push((
                doc.to_string(),
                fs::read_to_string(&p).map_err(|e| format!("{doc}: {e}"))?,
            ));
        }
    }
    Ok(ws)
}

/// A policy file is optional on disk (first run) but must parse when
/// present.
fn read_policy<T: Default>(
    root: &Path,
    rel: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<T, String> {
    let p = root.join(rel);
    if !p.is_file() {
        return Ok(T::default());
    }
    let text = fs::read_to_string(&p).map_err(|e| format!("{rel}: {e}"))?;
    parse(&text)
}

/// A ratchet file; a missing one is empty, so every crate is reported
/// as missing from it.
fn read_baseline(root: &Path, rel: &str) -> Result<Baseline, String> {
    read_policy(root, rel, |s| {
        parse_baseline(s).map_err(|e| format!("{rel}: {e}"))
    })
}

/// Workspace members from the root manifest's `members = [...]` list —
/// plus the root package itself when the manifest also has
/// `[package]`. Deliberately simple line-oriented parsing: the
/// manifest is ours and CI builds it with real cargo first.
fn members(root: &Path) -> Result<Vec<String>, String> {
    let manifest = root.join("Cargo.toml");
    let text = fs::read_to_string(&manifest).map_err(|e| format!("Cargo.toml: {e}"))?;
    let mut out = Vec::new();
    if text.contains("[package]") {
        out.push(".".to_string());
    }
    let Some(start) = text.find("members") else {
        return Err("Cargo.toml: no `members` list".into());
    };
    let Some(open) = text[start..].find('[') else {
        return Err("Cargo.toml: malformed `members` list".into());
    };
    let Some(close) = text[start + open..].find(']') else {
        return Err("Cargo.toml: unterminated `members` list".into());
    };
    let list = &text[start + open + 1..start + open + close];
    for part in list.split(',') {
        let name = part.trim().trim_matches('"');
        if !name.is_empty() && name != "." {
            out.push(name.to_string());
        }
    }
    Ok(out)
}

/// The `name = "..."` of a member's `[package]` table.
fn package_name(manifest: &Path) -> Result<String, String> {
    let text = fs::read_to_string(manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                return Ok(rest.trim().trim_matches('"').to_string());
            }
        }
    }
    Err(format!("{}: no package name", manifest.display()))
}

/// Recursively collect `.rs` files under `dir`. Files under a
/// `src/bin/` directory are binaries (L003-exempt) regardless of the
/// role the caller passed for `src/`, and a file literally named
/// `tests.rs` under `src/` is test code by workspace convention (it is
/// only reachable via a `#[cfg(test)] mod tests;` declaration, which
/// lives in the *parent* file where a single-file lint cannot see it).
fn collect_rs(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    role: Role,
    out: &mut Vec<VFile>,
) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            let role = if path.file_name().is_some_and(|n| n == "bin") && role == Role::Lib {
                Role::Bin
            } else {
                role
            };
            collect_rs(root, &path, crate_name, role, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let role = if role == Role::Lib && path.file_name().is_some_and(|n| n == "tests.rs") {
                Role::TestDir
            } else {
                role
            };
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .to_string_lossy()
                .replace('\\', "/");
            let content =
                fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            out.push(VFile {
                path: rel,
                crate_name: crate_name.to_string(),
                role,
                content,
            });
        }
    }
    Ok(())
}

// Re-exported so `main` can write the ratchet file.
pub use crate::config::render_baseline;
