//! `crackbench --compare A.json B.json`: is B the same as A?
//!
//! Both files are `run.sh` results. For every end-to-end metric on
//! every workload the medians are compared under the bound
//! `BENCHMARK.json` fixes; a metric whose run-to-run spread is wider
//! than its bound is `unresolved`, not `same`. Counts that must repeat
//! exactly are compared run by run, seed by seed.

use crate::json::{self, Value};
use crate::stats::{median, spread};
use crate::workloads;
use std::collections::BTreeMap;

/// Counts that repeat exactly for a seed: one caller drives every
/// workload.
const EXACT: [&str; 9] = [
    "aux_per_base",
    "cracking.kernel.tuples_touched",
    "cracking.index.boundaries",
    "cracking.index.advisory",
    "core.map.aux_tuples",
    "core.partial.chunks_created",
    "core.partial.chunks_dropped",
    "core.partial.chunks_spilled",
    "core.partial.chunks_reloaded",
];

/// `(workload, metric) -> [(seed, value)]`.
type Runs = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    let mut out = Runs::new();
    for run in runs {
        let field = |k: &str| {
            run.get(k)
                .ok_or_else(|| format!("{path}: a run lacks \"{k}\""))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_f64().unwrap_or(0.0) as u64;
        let Some(Value::Obj(metrics)) = field("result")?.get("metrics") else {
            return Err(format!("{path}: a result lacks \"metrics\""));
        };
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{path}: {workload} {name} has no value"))?;
            out.entry((workload.clone(), name.clone()))
                .or_default()
                .push((seed, v));
        }
    }
    Ok(out)
}

struct Bounded {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn bounds(path: &str) -> Result<Vec<Bounded>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no \"end_to_end\" array"))?
        .iter()
        .map(|m| {
            Ok(Bounded {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("a metric lacks a name")?
                    .to_string(),
                higher_is_better: m.get("better").and_then(Value::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("a metric lacks a bound")?,
            })
        })
        .collect()
}

/// Returns whether B is acceptable: nothing `worse`, nothing
/// `unresolved`, every exact count identical.
pub fn compare(a_path: &str, b_path: &str, bench_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounded = bounds(bench_path)?;
    let mut ok = true;
    println!("# workload metric verdict median_a median_b change spread bound");
    for w in workloads::all() {
        for m in &bounded {
            let key = (w.spec.name.to_string(), m.name.clone());
            let values = |r: &Runs| -> Vec<f64> {
                r.get(&key)
                    .map_or(Vec::new(), |v| v.iter().map(|x| x.1).collect())
            };
            let (va, vb) = (values(&a), values(&b));
            let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
                println!("{} {} missing", w.spec.name, m.name);
                ok = false;
                continue;
            };
            // Positive = B is worse, as a share of A's median.
            let change = if m.higher_is_better { ma - mb } else { mb - ma } / ma.abs();
            let spread = spread(&va).unwrap_or(0.0).max(spread(&vb).unwrap_or(0.0));
            let verdict = if spread > m.bound {
                "unresolved"
            } else if change > m.bound {
                "worse"
            } else {
                "same"
            };
            ok &= verdict == "same";
            println!(
                "{} {} {verdict} {ma} {mb} {change:+.4} {spread:.4} {}",
                w.spec.name, m.name, m.bound
            );
        }
        for name in EXACT {
            let key = (w.spec.name.to_string(), name.to_string());
            let by_seed = |r: &Runs| -> BTreeMap<u64, Vec<u64>> {
                let mut m: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
                for &(seed, v) in r.get(&key).into_iter().flatten() {
                    m.entry(seed).or_default().push(v.to_bits());
                }
                m
            };
            let (sa, sb) = (by_seed(&a), by_seed(&b));
            let mut repeats = true;
            let mut compared = 0;
            for (seed, va) in &sa {
                for v in va.iter().chain(sb.get(seed).into_iter().flatten()) {
                    compared += 1;
                    repeats &= *v == va[0];
                }
            }
            if compared == 0 {
                continue;
            }
            ok &= repeats;
            println!(
                "{} {name} {} over {compared} runs",
                w.spec.name,
                if repeats { "exact" } else { "DIFFERS" }
            );
        }
    }
    Ok(ok)
}
