//! The traced run: per-layer numbers by onion replay.
//!
//! This change may not put spans inside the program, so the benchmark
//! records them around its own calls: round 0's op stream is replayed on
//! fresh state at each public layer boundary, inside out, one span per
//! (op, layer). A layer's self time is its spans' total minus the total
//! of the next-inner layer — what the layer adds on top of the layers
//! below it. Spans stay in memory and are written out when the run ends.
//!
//! Self times are differences of totals that a few map-creation spikes
//! dominate, and those spikes vary by a fifth from one replay to the
//! next. So the whole onion is replayed as often as fits into
//! `--seconds`, and every number is taken from the per-op median span
//! over the replays.

use crate::json;
use crate::run::{busy_ns, gen_round, outermost, warm_heap, Metric, Outcome, Round};
use crate::stats::{median, median_ns, percentile};
use crate::sut::{self, Ctx, EndState, Layer, OpRecord, Spec, SpillDir};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One replay of the round at one layer.
struct Replay {
    /// Per unit, by op id.
    recs: Vec<Vec<OpRecord>>,
    busy_ns: u64,
    ends: Vec<EndState>,
}

impl Replay {
    fn sum(&self, f: impl Fn(&EndState) -> u64) -> u64 {
        self.ends.iter().map(f).sum()
    }
}

fn replay(layer: Layer, round: &Round, ctx: &Ctx) -> Result<Replay, String> {
    let mut out = Replay {
        recs: Vec::new(),
        busy_ns: 0,
        ends: Vec::new(),
    };
    for unit in &round.units {
        let mut run = sut::replay_unit(layer, round.table.clone(), unit, ctx)?;
        out.busy_ns += busy_ns(&run);
        run.recs.sort_by_key(|r| r.id);
        out.recs.push(run.recs);
        out.ends.push(run.end);
    }
    Ok(out)
}

/// One op's median span over the replays of a layer.
struct MedianSpan {
    unit: usize,
    op: u32,
    ns: u64,
    is_read: bool,
}

/// Every replay of one layer, and the per-op median span over them.
struct LayerRuns {
    layer: Layer,
    reps: Vec<Replay>,
    /// Filled by [`LayerRuns::settle`] once the replays are done.
    spans: Vec<MedianSpan>,
}

impl LayerRuns {
    fn new(layer: Layer) -> Self {
        LayerRuns {
            layer,
            reps: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn settle(&mut self) {
        for (u, recs) in self.reps[0].recs.iter().enumerate() {
            for (i, rec) in recs.iter().enumerate() {
                let mut ns: Vec<u64> = self.reps.iter().map(|r| r.recs[u][i].ns).collect();
                self.spans.push(MedianSpan {
                    unit: u,
                    op: rec.id,
                    ns: median_ns(&mut ns).expect("at least one replay"),
                    is_read: rec.is_read,
                });
            }
        }
    }

    fn total_ns(&self) -> f64 {
        self.spans.iter().map(|s| s.ns as f64).sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

const SELF_FRAC: [(Layer, &str); 6] = [
    (Layer::Kernel, "cracking.kernel.self_frac"),
    (Layer::Column, "cracking.column.self_frac"),
    (Layer::Store, "core.set.self_frac"),
    (Layer::Engine, "engine.exec.self_frac"),
    (Layer::Shard, "engine.shard.self_frac"),
    (Layer::Client, "engine.service.hop_frac"),
];

pub fn measure(spec: &Spec, seed: u64, seconds: f64, out_dir: &Path) -> Result<Outcome, String> {
    let spill = SpillDir::create(out_dir).map_err(|e| format!("spill dir: {e}"))?;
    warm_heap(spec, seed, &spill)?;
    let started = Instant::now();
    let chain = sut::chain(spec);
    let outer = outermost(spec);
    let data = gen_round(spec, seed, 0);
    let cal = sut::calibrate(&data.table, spec.domain());
    let traced = Ctx {
        spec,
        spill_dir: spill.path(),
        epoch: started,
        keep_stride: 0,
        probe: true,
    };
    // The outermost replay as the untraced run does it: no state
    // sampled between ops.
    let untraced = Ctx {
        probe: false,
        ..traced
    };

    let mut layers: Vec<LayerRuns> = chain.iter().map(|&l| LayerRuns::new(l)).collect();
    let mut reference = LayerRuns::new(outer);
    let mut last_rep_s = 0.0;
    // Never start a replay of the onion that cannot finish in time.
    while reference.reps.is_empty() || started.elapsed().as_secs_f64() + last_rep_s < seconds {
        let rep_started = Instant::now();
        for runs in &mut layers {
            runs.reps.push(replay(runs.layer, &data, &traced)?);
        }
        reference.reps.push(replay(outer, &data, &untraced)?);
        last_rep_s = rep_started.elapsed().as_secs_f64();
    }
    drop(spill);
    let reps = reference.reps.len();
    layers
        .iter_mut()
        .chain([&mut reference])
        .for_each(LayerRuns::settle);

    let at = |l: Layer| layers.iter().find(|x| x.layer == l);
    let top = at(outer).expect("the chain ends at the outermost layer");
    let column = at(Layer::Column).expect("every chain has the column layer");
    let engine = at(Layer::Engine).expect("every chain has the engine layer");
    // Counts come from the first replay: every replay of a layer one
    // caller drives does exactly the same work.
    let (top0, column0, engine0) = (&top.reps[0], &column.reps[0], &engine.reps[0]);
    let outer_ns = top.total_ns();
    let engine_ns = engine.total_ns();

    let mut m: Vec<Metric> = Vec::new();
    let mut push = |name, unit, value: f64, n| {
        m.push(Metric {
            name,
            unit,
            value,
            n,
        })
    };
    let n = spec.rows;
    push(
        "columnstore.scan_ns_per_tuple",
        "ns/tuple",
        cal.scan_ns_per_tuple,
        n,
    );
    push(
        "columnstore.gather_ns_per_tuple",
        "ns/tuple",
        cal.gather_ns_per_tuple,
        n / 8,
    );
    push(
        "cracking.kernel.crack2_ns_per_tuple",
        "ns/tuple",
        cal.crack2_ns_per_tuple,
        n,
    );
    push(
        "cracking.kernel.crack3_ns_per_tuple",
        "ns/tuple",
        cal.crack3_ns_per_tuple,
        n,
    );

    let touched = column0.sum(|e| e.kernel_touched) as f64;
    push("cracking.kernel.tuples_touched", "count", touched, 1);
    let (mut inner, mut self_sum) = (0.0, 0.0);
    for (layer, name) in SELF_FRAC {
        let own = at(layer).map_or(0.0, |l| {
            let total = l.total_ns();
            let own = (total - inner).max(0.0);
            inner = total;
            own
        });
        self_sum += own;
        push(name, "frac", ratio(own, outer_ns), reps);
        match layer {
            Layer::Column => {
                push("cracking.column.busy_s", "s", column.total_ns() / 1e9, reps);
                let b = column0.sum(|e| e.index_boundaries) as f64;
                push("cracking.index.boundaries", "count", b, 1);
                let a = column0.sum(|e| e.index_advisory) as f64;
                push("cracking.index.advisory", "count", a, 1);
                let lookups: Vec<f64> = column
                    .reps
                    .iter()
                    .flat_map(|r| r.ends.iter().map(|e| e.index_lookup_ns))
                    .collect();
                let lookup = median(&lookups).unwrap_or(0.0);
                push("cracking.index.lookup_ns", "ns", lookup, lookups.len());
                let switches = top0.sum(|e| e.policy_switches) as f64;
                push("cracking.policy.switches", "count", switches, 1);
            }
            Layer::Store => {
                let mut after_switch: Vec<u64> = top
                    .spans
                    .iter()
                    .filter(|s| data.units[s.unit].switches.contains(&(s.op as usize)))
                    .map(|s| s.ns)
                    .collect();
                let mut all: Vec<u64> = top.spans.iter().map(|s| s.ns).collect();
                push(
                    "core.align.switch_x",
                    "x",
                    ratio(
                        median_ns(&mut after_switch).unwrap_or(0) as f64,
                        median_ns(&mut all).unwrap_or(0) as f64,
                    ),
                    after_switch.len(),
                );
                let aux = at(Layer::Store).map_or(0, |s| s.reps[0].sum(|e| e.aux_tuples));
                push("core.map.aux_tuples", "count", aux as f64, 1);
                partial_metrics(&mut push, engine0, engine_ns);
            }
            Layer::Engine => {
                // Shares of the engine's own busy time, replay by replay
                // (the phase clocks and the spans of one replay saw the
                // same interference).
                let share = |f: fn(&OpRecord) -> u64| {
                    let v: Vec<f64> = engine
                        .reps
                        .iter()
                        .map(|r| {
                            let sum = |f: fn(&OpRecord) -> u64| {
                                r.recs.iter().flatten().map(f).sum::<u64>() as f64
                            };
                            ratio(sum(f), sum(|r| r.ns))
                        })
                        .collect();
                    median(&v).unwrap_or(0.0)
                };
                push(
                    "engine.exec.select_frac",
                    "frac",
                    share(|r| r.select_ns),
                    reps,
                );
                let reconstruct = share(|r| r.reconstruct_ns);
                push("engine.exec.reconstruct_frac", "frac", reconstruct, reps);
                let rows: u64 = engine0.recs.iter().flatten().map(|r| r.rows).sum();
                push(
                    "engine.exec.touched_per_row",
                    "ratio",
                    ratio(touched, rows as f64),
                    1,
                );
            }
            Layer::Shard => {
                // Base: the unsharded engine's busy time.
                let x = at(Layer::Shard).map_or(0.0, |s| ratio(engine_ns, s.total_ns()));
                push("engine.shard.speedup_x", "x", x, reps);
            }
            Layer::Client => {
                let reads = top0.recs.iter().flatten().filter(|r| r.is_read).count();
                let overloaded = top0.sum(|e| e.overloaded) as f64;
                push("engine.service.overloaded", "count", overloaded, 1);
                let spans = &top.spans;
                let p99 = |want_reads: bool| {
                    let mut v: Vec<u64> = spans
                        .iter()
                        .filter(|s| s.is_read == want_reads)
                        .map(|s| s.ns)
                        .collect();
                    v.sort_unstable();
                    percentile(&v, 99.0).unwrap_or(0) as f64
                };
                let x = ratio(p99(false), p99(true));
                push(
                    "engine.service.write_read_p99_x",
                    "x",
                    x,
                    spans.len() - reads,
                );
            }
            Layer::Kernel => {}
        }
    }
    push(
        "trace.reconcile_frac",
        "frac",
        ratio((self_sum - outer_ns).abs(), outer_ns),
        reps,
    );
    let untraced_ns = reference.total_ns();
    push(
        "trace.overhead_frac",
        "frac",
        ratio(outer_ns - untraced_ns, untraced_ns),
        reps,
    );
    let busy: Vec<f64> = top.reps.iter().map(|r| r.busy_ns as f64 / 1e9).collect();
    push(
        "trace.outer_busy_s",
        "s",
        median(&busy).expect("at least one replay"),
        reps,
    );
    let spans = write_trace(spec, seed, &layers, out_dir)?;
    push("trace.spans", "count", spans as f64, 1);

    let ops = top0.recs.iter().flatten();
    Ok(Outcome {
        attempted: ops.clone().count() as u64,
        failed: ops.filter(|r| r.failed).count() as u64,
        metrics: m,
        rounds: reps,
    })
}

/// `core.partial.*` from the engine's own counters (`stats_sum()`).
fn partial_metrics(
    push: &mut impl FnMut(&'static str, &'static str, f64, usize),
    engine: &Replay,
    engine_ns: f64,
) {
    let stats = engine
        .ends
        .iter()
        .filter_map(|e| e.partial)
        .reduce(|mut a, b| {
            a.merge(&b);
            a
        });
    let get = |f: fn(&sut::PartialStats) -> u64| stats.as_ref().map_or(0.0, |s| f(s) as f64);
    let reloaded = get(|s| s.chunks_reloaded);
    let dropped = get(|s| s.chunks_dropped);
    push(
        "core.partial.chunks_created",
        "count",
        get(|s| s.chunks_created),
        1,
    );
    push("core.partial.chunks_dropped", "count", dropped, 1);
    push(
        "core.partial.chunks_spilled",
        "count",
        get(|s| s.chunks_spilled),
        1,
    );
    push("core.partial.chunks_reloaded", "count", reloaded, 1);
    push(
        "core.partial.tuples_fetched",
        "count",
        get(|s| s.tuples_fetched),
        1,
    );
    push(
        "core.partial.tuples_reloaded",
        "count",
        get(|s| s.tuples_reloaded),
        1,
    );
    push(
        "core.partial.entries_replayed",
        "count",
        get(|s| s.entries_replayed),
        1,
    );
    push(
        "core.partial.updates_merged",
        "count",
        get(|s| s.updates_merged),
        1,
    );
    let peak = engine
        .ends
        .iter()
        .map(|e| e.usage_peak_tuples)
        .max()
        .unwrap_or(0);
    push("core.partial.usage_peak_tuples", "count", peak as f64, 1);
    push(
        "core.partial.spill_bytes",
        "bytes",
        engine.sum(|e| e.spill_bytes) as f64,
        1,
    );
    // Evicted chunks that came back from disk, over those plus the
    // ones thrown away (and recreated from the base if needed again).
    push(
        "core.partial.reload_ratio",
        "ratio",
        ratio(reloaded, reloaded + dropped),
        1,
    );
    // Shares of the engine's own busy time, from the engine's clocks.
    push(
        "core.partial.fetch_frac",
        "frac",
        ratio(get(|s| s.fetch_ns), engine_ns),
        1,
    );
    push(
        "core.partial.spill_write_frac",
        "frac",
        ratio(get(|s| s.spill_write_ns), engine_ns),
        1,
    );
    push(
        "core.partial.spill_read_frac",
        "frac",
        ratio(get(|s| s.spill_read_ns), engine_ns),
        1,
    );
}

/// Spans of the first replay as `[unit, op, layer, start_ns, ns,
/// median_ns]` rows. Spans of one op share `(unit, op)`; the span that
/// caused a span is the same op's span at the next layer of `layers`.
fn write_trace(
    spec: &Spec,
    seed: u64,
    layers: &[LayerRuns],
    out_dir: &Path,
) -> Result<usize, String> {
    let mut text = String::new();
    let names: Vec<String> = layers.iter().map(|l| json::quote(l.layer.name())).collect();
    let _ = write!(
        text,
        "{{\"workload\": {}, \"seed\": {seed}, \"replays\": {}, \"layers\": [{}], \
         \"columns\": [\"unit\", \"op\", \"layer\", \"start_ns\", \"ns\", \"median_ns\"], \
         \"spans\": [",
        json::quote(spec.name),
        layers[0].reps.len(),
        names.join(", ")
    );
    let mut spans = 0;
    for (l, runs) in layers.iter().enumerate() {
        for (rec, med) in runs.reps[0].recs.iter().flatten().zip(&runs.spans) {
            let sep = if spans == 0 { "\n" } else { ",\n" };
            let _ = write!(
                text,
                "{sep}[{},{},{l},{},{},{}]",
                med.unit, rec.id, rec.start_ns, rec.ns, med.ns
            );
            spans += 1;
        }
    }
    text.push_str("\n]}\n");
    let path = out_dir.join(format!("trace-{}.json", spec.name));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(spans)
}
