//! `crackdb-lint` CLI.
//!
//! ```text
//! cargo run -p crackdb-lint -- --check [--json findings.json]
//! cargo run -p crackdb-lint -- --update-baselines
//! cargo run -p crackdb-lint -- --list-panics
//! ```
//!
//! Exit codes: 0 clean, 1 warnings only (e.g. ratchet slack — a crate
//! improved past its baseline), 2 errors (new unsafe without SAFETY,
//! unjustified ordering, panic or line ratchet exceeded, env/doc drift,
//! forbidden lock idiom) or usage/IO failure.

use crackdb_lint::{config, lints, report, workspace};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: Option<PathBuf>,
    json: Option<PathBuf>,
    update_baselines: bool,
    list_panics: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        json: None,
        update_baselines: false,
        list_panics: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => {} // the default mode
            "--update-baselines" => args.update_baselines = true,
            "--list-panics" => args.list_panics = true,
            "--json" => match it.next() {
                Some(p) => args.json = Some(PathBuf::from(p)),
                None => return Err("--json requires a path".into()),
            },
            "--root" => match it.next() {
                Some(p) => args.root = Some(PathBuf::from(p)),
                None => return Err("--root requires a path".into()),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let root = match &args.root {
        Some(r) => r.clone(),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
            workspace::find_root(&cwd)?
        }
    };
    let ws = workspace::load(&root)?;
    let rep = lints::run(&ws);

    if args.list_panics {
        // The L003 burn-down worklist: every counted site, one per line.
        for (krate, path, line) in &rep.panic_sites {
            println!("{krate}\t{path}:{line}");
        }
        return Ok(0);
    }

    if let Some(path) = &args.json {
        std::fs::write(path, report::json(&rep)).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    if args.update_baselines {
        for (rel, header, counts) in [
            (
                workspace::PANICS_BASELINE_PATH,
                config::PANICS_HEADER,
                &rep.panic_counts,
            ),
            (
                workspace::LOC_BASELINE_PATH,
                config::LOC_HEADER,
                &rep.loc_counts,
            ),
        ] {
            let path = root.join(rel);
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(&path, config::render_baseline(header, counts))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("wrote {rel} ({} crates)", counts.len());
        }
        // Re-lint against the fresh baseline so the exit code reflects
        // what CI would now see (ratchet findings disappear; anything
        // else stays loud).
        let ws = workspace::load(&root)?;
        let rep = lints::run(&ws);
        print!("{}", report::human(&rep));
        return Ok(rep.exit_code());
    }

    print!("{}", report::human(&rep));
    Ok(rep.exit_code())
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code as u8),
        Err(msg) => {
            eprintln!("crackdb-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
