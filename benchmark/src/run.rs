//! The untraced run: rounds of the workload as its callers see it, the
//! answer check, and the end-to-end metrics.

use crate::host;
use crate::stats::{
    mean, median, median_ns, percentile_f64, tail_percentile, tail_percentile_of, MIN_P99_SAMPLES,
};
use crate::sut::{self, Ctx, Layer, OpRecord, Spec, SpillDir, Table, Unit, UnitRun};
use std::path::Path;
use std::time::Instant;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value was computed from.
    pub n: usize,
}

pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
}

/// A run never stops before this many rounds: `setup_s` and
/// `first_query_ms` are taken over rounds.
pub const MIN_ROUNDS: usize = 3;
/// Answers compared with the oracle per round after the first
/// `MIN_ROUNDS` rounds (those compare `Spec::checks` each): a spot check.
const CHECKS_LATE: usize = 16;

pub struct Round {
    pub table: Table,
    pub units: Vec<Unit>,
    pub gen_ns: u64,
}

/// Round `round` of seed `seed`: its own table and op stream.
pub fn gen_round(spec: &Spec, seed: u64, round: usize) -> Round {
    // splitmix64 step, cut to 48 bits so the generators' small seed
    // offsets cannot overflow.
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(round as u64 + 1))
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 31;
    let sub = z >> 16;
    let t0 = Instant::now();
    let table = sut::gen_table(spec, sub);
    let units = sut::gen_units(spec, sub ^ 0x5eed);
    Round {
        table,
        units,
        gen_ns: t0.elapsed().as_nanos() as u64,
    }
}

/// The layer at which the workload is what its callers see.
pub fn outermost(spec: &Spec) -> Layer {
    *sut::chain(spec).last().expect("a chain has layers")
}

/// Ops in the last fifth of the stream: what the engine costs once the
/// stream has taught it.
pub fn is_converged(unit: &Unit, rec: &OpRecord) -> bool {
    rec.id as usize * 5 >= unit.ops.len() * 4
}

/// Busy time of a unit: the summed time of its ops.
pub fn busy_ns(run: &UnitRun) -> u64 {
    run.recs.iter().map(|r| r.ns).sum()
}

#[derive(Default)]
struct Acc {
    setup_s: Vec<f64>,
    busy_ns: u64,
    first_ms: Vec<f64>,
    lat: Vec<u64>,
    /// Per round, where a round alone has ten samples beyond its p99.
    round_p99: Vec<f64>,
    converged: Vec<u64>,
    in_budget: u64,
    attempted: u64,
    failed: u64,
    checked: u64,
    aux_per_base: f64,
    peak_rss_mb: f64,
}

/// One discarded round before anything is timed. The first round of a
/// process pays for every page of its working set; later rounds reuse
/// them (`run.sh` keeps the heap from shrinking). Timing only warm
/// rounds puts every round, and every layer of a traced run, in the
/// same regime.
pub fn warm_heap(spec: &Spec, seed: u64, spill: &SpillDir) -> Result<(), String> {
    let round = gen_round(spec, seed, usize::MAX - 1);
    let ctx = Ctx {
        spec,
        spill_dir: spill.path(),
        epoch: Instant::now(),
        keep_stride: 0,
        probe: false,
    };
    for unit in &round.units {
        sut::replay_unit(outermost(spec), round.table.clone(), unit, &ctx)?;
    }
    Ok(())
}

pub fn measure(spec: &Spec, seed: u64, seconds: f64, out_dir: &Path) -> Result<Outcome, String> {
    let spill = SpillDir::create(out_dir).map_err(|e| format!("spill dir: {e}"))?;
    warm_heap(spec, seed, &spill)?;
    let started = Instant::now();
    let layer = outermost(spec);
    let mut acc = Acc::default();
    let mut round = 0;
    while round < MIN_ROUNDS
        || started.elapsed().as_secs_f64() < seconds
        || acc.lat.len() < MIN_P99_SAMPLES
    {
        let Round {
            table,
            units,
            gen_ns,
        } = gen_round(spec, seed, round);
        let round_ops: usize = units.iter().map(|u| u.ops.len()).sum();
        let checks = if round < MIN_ROUNDS {
            spec.checks
        } else {
            CHECKS_LATE
        };
        let ctx = Ctx {
            spec,
            spill_dir: spill.path(),
            epoch: started,
            keep_stride: (round_ops / checks).max(1) as u32,
            probe: false,
        };
        let lat0 = acc.lat.len();
        let (mut setup_ns, mut aux) = (gen_ns, 0);
        let mut table = Some(table);
        for (u, unit) in units.iter().enumerate() {
            let t0 = Instant::now();
            let copy = table.clone().expect("the table lives until the last unit");
            setup_ns += t0.elapsed().as_nanos() as u64;
            let run = sut::replay_unit(layer, copy, unit, &ctx)?;
            setup_ns += run.setup_ns;
            acc.busy_ns += busy_ns(&run);
            aux += run.end.aux_tuples;
            acc.first_ms.push(run.first_ns as f64 / 1e6);
            for rec in &run.recs {
                acc.attempted += 1;
                if rec.failed {
                    acc.failed += 1;
                    continue;
                }
                acc.lat.push(rec.ns);
                if is_converged(unit, rec) {
                    acc.converged.push(rec.ns);
                }
                acc.in_budget += u64::from(rec.ns <= spec.budget_us * 1_000);
            }
            // The oracle takes the table itself after the last unit.
            let pristine = if u + 1 == units.len() {
                table.take()
            } else {
                table.clone()
            };
            let (checked, wrong) =
                sut::oracle_check(pristine.expect("checked above"), unit, &run.recs);
            acc.checked += checked;
            acc.failed += wrong;
        }
        if round == 0 {
            // Exactly repeatable for a seed when one caller drives the
            // engine: later rounds depend on how many rounds fit.
            let base = sut::base_values_of(spec) * units.len() as u64;
            acc.aux_per_base = aux as f64 / base as f64;
            // Likewise the heap's high-water mark: taken after the same
            // allocations in every run, not after as many rounds as fit.
            acc.peak_rss_mb = host::peak_rss_mb().ok_or("cannot read VmHWM")?;
        }
        acc.setup_s.push(setup_ns as f64 / 1e9);
        let mut round_lat = acc.lat[lat0..].to_vec();
        round_lat.sort_unstable();
        if let Some(p99) = tail_percentile_of(&round_lat, 99.0, 1) {
            acc.round_p99.push(p99 as f64);
        }
        round += 1;
    }
    drop(spill);

    eprintln!(
        "# {}: {round} rounds, {} ops, {} answers checked against the oracle, {} failed",
        spec.name, acc.attempted, acc.checked, acc.failed
    );
    let n = acc.lat.len();
    let p50 = median_ns(&mut acc.lat).ok_or("no op succeeded")?;
    // The tail is where interference on a shared box shows, and it only
    // ever adds time: pooled over the run, one disturbed fifth of the
    // rounds moved p99 by a quarter, and the median over rounds of each
    // round's own p99 still moved by a third between a quiet and a busy
    // half-hour, the better quartile by a fifth. So where every round has
    // its own p99, report the better quartile of those.
    let p99 = if acc.round_p99.len() == round {
        percentile_f64(&acc.round_p99, 25.0).expect("at least MIN_ROUNDS rounds ran")
    } else {
        tail_percentile(&acc.lat, 99.0).ok_or("too few samples for p99")? as f64
    };
    let conv_n = acc.converged.len();
    let conv = median_ns(&mut acc.converged).ok_or("no converged samples")?;
    let n_ok = n as f64;
    let metrics = vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&acc.setup_s).expect("at least MIN_ROUNDS rounds ran"),
            n: round,
        },
        Metric {
            name: "qps",
            unit: "ops/s",
            value: n_ok / (acc.busy_ns as f64 / 1e9),
            n,
        },
        Metric {
            name: "first_query_ms",
            unit: "ms",
            value: mean(&acc.first_ms).expect("at least MIN_ROUNDS rounds ran"),
            n: acc.first_ms.len(),
        },
        Metric {
            name: "p50_us",
            unit: "us",
            value: p50 as f64 / 1e3,
            n,
        },
        Metric {
            name: "p99_us",
            unit: "us",
            value: p99 / 1e3,
            n,
        },
        Metric {
            name: "converged_p50_us",
            unit: "us",
            value: conv as f64 / 1e3,
            n: conv_n,
        },
        Metric {
            name: "in_budget_frac",
            unit: "frac",
            value: acc.in_budget as f64 / acc.attempted as f64,
            n: acc.attempted as usize,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: acc.peak_rss_mb,
            n: 1,
        },
        Metric {
            name: "aux_per_base",
            unit: "ratio",
            value: acc.aux_per_base,
            n: 1,
        },
    ];
    Ok(Outcome {
        metrics,
        attempted: acc.attempted,
        failed: acc.failed,
        rounds: round,
    })
}
