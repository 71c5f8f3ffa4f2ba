//! crackbench: the repo's one benchmark. See `benchmark/README.md`.
//!
//! `crackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints, after a header and one
//! `workload metric unit value n` line per metric, a final JSON line
//! with `correct`, `attempted`, `failed` and `metrics`.
//! `crackbench --compare A.json B.json` compares two `run.sh` results.

mod compare;
mod host;
mod json;
mod run;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    append: Option<PathBuf>,
    commit: String,
    bench: String,
    compare: Vec<String>,
    header_only: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: 26.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        append: None,
        commit: "unknown".into(),
        bench: "BENCHMARK.json".into(),
        compare: Vec::new(),
        header_only: false,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let (key, inline) = match arg.split_once('=') {
            Some((k, v)) => (k.to_string(), Some(v.to_string())),
            None => (arg.clone(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next())
                .ok_or_else(|| format!("{key} needs a value"))
        };
        let bad = |what: &str, v: &str| format!("{key}: {v:?} is not {what}");
        match key.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| bad("a whole number", &v))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number", &v))?;
            }
            "--trace" => {
                let v = value()?;
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1", &v)),
                };
            }
            "--out" => a.out = value()?.into(),
            "--append" => a.append = Some(value()?.into()),
            "--commit" => a.commit = value()?,
            "--bench" => a.bench = value()?,
            "--compare" => {
                a.compare = vec![value()?, it.next().ok_or("--compare needs two files")?];
            }
            "--header" => a.header_only = true,
            "--list" => a.list = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

/// The result header: where and on what the numbers were taken.
fn header(a: &Args) -> Vec<(&'static str, String)> {
    let sizes = workloads::all()
        .iter()
        .map(|w| {
            let s = &w.spec;
            format!(
                "{}: {} rows x {} attrs, {} ops, warm-up {}, {} shards, budget {} us, {} checks",
                s.name, s.rows, s.attrs, s.ops, s.warmup, s.shards, s.budget_us, s.checks
            )
        })
        .collect::<Vec<_>>()
        .join("; ");
    vec![
        ("date", host::utc_now()),
        ("commit", a.commit.clone()),
        ("system", host::cpu_model()),
        ("nproc", host::nproc().to_string()),
        ("cpu_affinity", host::affinity()),
        ("target_cpu_flags", host::target_features()),
        ("malloc", host::malloc_settings()),
        ("seed", a.seed.to_string()),
        ("sizes", sizes),
    ]
}

fn header_json(a: &Args) -> String {
    let fields: Vec<String> = header(a)
        .iter()
        .map(|(k, v)| format!("{}: {}", json::quote(k), json::quote(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if let [a, b] = args.compare.as_slice() {
        return compare::compare(a, b, &args.bench);
    }
    if args.list {
        for w in workloads::all() {
            println!("{}", w.spec.name);
        }
        return Ok(true);
    }
    if args.header_only {
        println!("{}", header_json(&args));
        return Ok(true);
    }
    // The benchmark measures the defaults a user gets.
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("CRACKDB_"))
    {
        return Err(format!(
            "{} is set: crackbench measures crackdb's defaults and refuses to start under any CRACKDB_* variable",
            k.to_string_lossy()
        ));
    }
    let name = args.workload.as_deref().ok_or("no --workload given")?;
    let w = workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    // Before any thread is started: they inherit the mask.
    if host::pin_to_one_cpu().is_none() {
        eprintln!("crackbench: could not pin to one CPU; the numbers will be noisier");
    }

    for (k, v) in header(&args) {
        println!("# {k}: {v}");
    }
    println!(
        "# workload: {} (trace {}) - {}",
        name,
        u8::from(args.trace),
        w.why
    );
    let outcome = if args.trace {
        trace::measure(&w.spec, args.seed, args.seconds, &args.out)?
    } else {
        run::measure(&w.spec, args.seed, args.seconds, &args.out)?
    };
    println!("# rounds: {}", outcome.rounds);

    let mut fields = Vec::new();
    for m in &outcome.metrics {
        println!(
            "{name} {} {} {} {}",
            m.name,
            m.unit,
            json::num(m.value),
            m.n
        );
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(m.name),
            json::num(m.value),
            json::quote(m.unit)
        ));
    }
    let correct = outcome.failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    if let Some(path) = &args.append {
        let line = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"result\": {result}}}\n",
            json::quote(name),
            args.seed,
            u8::from(args.trace),
            json::num(args.seconds)
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{result}");
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("crackbench: {e}");
            ExitCode::from(2)
        }
    }
}
