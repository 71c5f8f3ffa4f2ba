//! Workload-robustness sweep: pattern × crack policy × engine.
//!
//! The adversarial patterns of the interactive-exploration benchmarks
//! (IDEBench-style sweeps and drill-downs) are exactly where
//! crack-at-the-predicate cracking degenerates: a sequential sweep
//! leaves one huge uncracked tail piece that every query re-partitions
//! (per-query cost stays O(n)), and a hot-region drill-down shatters
//! the hot zone into thousands of AVL nodes. This sweep pits the three
//! [`CrackPolicy`] strategies against the three workload patterns on
//! every adaptive engine and emits a machine-readable
//! `BENCH_robustness.json` (per-query ns plus cumulative totals) via
//! `bench::harness`, so the perf trajectory is tracked run over run.
//!
//! The headline acceptance number: with `Stochastic`, cumulative time
//! for 1,000 sequential-pattern queries on a 10M-row table is >= 5x
//! lower than `Standard`. Policies never change answers — the sweep
//! asserts per-(engine, pattern) row totals are identical across
//! policies.
//!
//! The sweep also runs the per-column `Adaptive` advisor alongside the
//! static policies and reports its ratio to the best static choice per
//! (engine, pattern) — the advisor's bound is staying within a small
//! factor of the best static policy on *every* pattern while winning
//! outright on mixed traces (see the `idebench` suite).
//!
//! Every (engine, pattern, policy) cell is replayed `--repeats` times
//! with the policies interleaved (order rotated per cell) and scored by
//! its **minimum** cumulative time: the min filters scheduler and
//! memory-bandwidth interference while preserving the deterministic
//! work each policy actually does.
//!
//! Usage: `cargo run --release --bin robustness [--n=10000000]
//! [--queries=1000] [--seed=…] [--repeats=3]
//! [--patterns=sequential,random,skewed]
//! [--policies=standard,stochastic,coarse,adaptive]`

use crackdb_bench::harness::{write_bench_json, JsonList, JsonObj};
use crackdb_bench::{header, Args};
use crackdb_columnstore::types::{AggFunc, Val};
use crackdb_engine::{
    CrackPolicy, Engine, PartialEngine, SelCrackEngine, SelectQuery, SidewaysEngine,
};
use crackdb_workloads::{random_table, Pattern, RangeGen};
use std::time::Instant;

/// One engine constructor per adaptive physical design.
fn build_engine(
    which: &str,
    table: &crackdb_columnstore::column::Table,
    domain: (Val, Val),
    policy: CrackPolicy,
) -> Box<dyn Engine> {
    match which {
        "selcrack" => Box::new(SelCrackEngine::with_policy(table.clone(), domain, policy)),
        "sideways" => Box::new(SidewaysEngine::with_policy(table.clone(), domain, policy)),
        "partial" => Box::new(PartialEngine::with_policy(
            table.clone(),
            domain,
            None,
            policy,
        )),
        other => panic!("unknown engine {other}"),
    }
}

fn parse_list(prefix: &str, default: &[&str]) -> Vec<String> {
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix(prefix) {
            return v.split(',').map(|s| s.trim().to_string()).collect();
        }
    }
    default.iter().map(|s| s.to_string()).collect()
}

fn pattern_of(name: &str) -> Pattern {
    match name {
        "sequential" => Pattern::Sequential,
        "random" => Pattern::Random,
        // Exp5 / §4.2 skew: 90% of queries in the first 20% of the domain.
        "skewed" => Pattern::Skewed {
            hot_prob: 0.9,
            hot_frac: 0.2,
        },
        other => panic!("unknown pattern {other}"),
    }
}

fn policy_of(name: &str) -> CrackPolicy {
    CrackPolicy::parse(name).unwrap_or_else(|| panic!("unknown policy {name}"))
}

fn parse_usize(prefix: &str, default: usize) -> usize {
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix(prefix) {
            return v
                .parse()
                .unwrap_or_else(|_| panic!("{prefix} takes an integer"));
        }
    }
    default
}

/// Best-observed replay of one (engine, pattern, policy) cell.
struct Cell {
    min_ns: u64,
    per_query_ns: Vec<u64>,
    late_mean_ns: u64,
    rows: usize,
}

fn main() {
    let args = Args::parse(10_000_000, 1000);
    let domain: Val = args.n as Val;
    let patterns = parse_list("--patterns=", &["sequential", "random", "skewed"]);
    let policies = parse_list(
        "--policies=",
        &["standard", "stochastic", "coarse", "adaptive"],
    );
    let engines = ["selcrack", "sideways", "partial"];
    let repeats = parse_usize("--repeats=", 3).max(1);

    println!(
        "robustness: {} rows, {} queries/config, domain [1, {}], {} engines x {} patterns x {} policies, min of {} repeats",
        args.n,
        args.queries,
        domain,
        engines.len(),
        patterns.len(),
        policies.len(),
        repeats
    );
    let table = random_table(1, args.n, domain, args.seed);
    // Sweep stripe width: the sequential pattern covers the domain once
    // over the query budget.
    let width = (domain / args.queries as Val).max(1);

    header(&[
        "engine",
        "pattern",
        "policy",
        "total ms",
        "mean us",
        "p-late us",
        "rows",
    ]);

    let mut configs = JsonList::new();
    // (engine, pattern) -> total rows, for the answers-identical check.
    let mut row_checks: Vec<((String, String), usize)> = Vec::new();
    // cells[ei][pati][pi]: best replay observed so far.
    let mut cells: Vec<Vec<Vec<Option<Cell>>>> = engines
        .iter()
        .map(|_| {
            patterns
                .iter()
                .map(|_| policies.iter().map(|_| None).collect())
                .collect()
        })
        .collect();

    for rep in 0..repeats {
        for (ei, engine_name) in engines.iter().enumerate() {
            for (pati, pattern_name) in patterns.iter().enumerate() {
                // Policies interleave inside one (pattern, repeat) so
                // slow machine-state drift hits every policy equally,
                // and the order rotates per cell so no policy always
                // runs in the same (coldest/hottest) slot.
                for k in 0..policies.len() {
                    let pi = (k + rep + pati) % policies.len();
                    let policy_name = &policies[pi];
                    let policy = policy_of(policy_name);
                    let pattern = pattern_of(pattern_name);
                    let mut engine = build_engine(engine_name, &table, (1, domain), policy);
                    let mut gen = RangeGen::with_width(domain, width, args.seed + 1);
                    let mut per_query_ns: Vec<u64> = Vec::with_capacity(args.queries);
                    let mut total_rows = 0usize;
                    for _ in 0..args.queries {
                        let pred = gen.next_pattern(pattern);
                        let q = SelectQuery::aggregate(vec![(0, pred)], vec![(0, AggFunc::Count)]);
                        let t0 = Instant::now();
                        let out = engine.select(&q);
                        per_query_ns.push(t0.elapsed().as_nanos() as u64);
                        total_rows += out.rows;
                    }
                    let cumulative_ns: u64 = per_query_ns.iter().sum();
                    let late = &per_query_ns[args.queries / 2..];
                    let late_mean_ns = late.iter().sum::<u64>() / late.len().max(1) as u64;

                    // Policies must never change answers: identical preds
                    // -> identical row totals across policies and repeats.
                    let key = (engine_name.to_string(), pattern_name.clone());
                    match row_checks.iter().find(|(k, _)| *k == key) {
                        None => row_checks.push((key, total_rows)),
                        Some((_, expected)) => assert_eq!(
                            total_rows, *expected,
                            "{engine_name}/{pattern_name}: policy {policy_name} changed answers"
                        ),
                    }

                    let cell = &mut cells[ei][pati][pi];
                    if cell.as_ref().is_none_or(|c| cumulative_ns < c.min_ns) {
                        *cell = Some(Cell {
                            min_ns: cumulative_ns,
                            per_query_ns,
                            late_mean_ns,
                            rows: total_rows,
                        });
                    }
                }
            }
        }
    }

    // (engine, pattern, policy) -> cumulative ns, for headline ratios.
    let mut totals: Vec<(String, String, String, u64)> = Vec::new();
    for (ei, engine_name) in engines.iter().enumerate() {
        for (pati, pattern_name) in patterns.iter().enumerate() {
            for (pi, policy_name) in policies.iter().enumerate() {
                let cell = cells[ei][pati][pi].as_ref().expect("cell measured");
                println!(
                    "{:<10} {:<11} {:<11} {:>9.1} {:>9.1} {:>9.1} {:>10}",
                    engine_name,
                    pattern_name,
                    policy_name,
                    cell.min_ns as f64 / 1e6,
                    cell.min_ns as f64 / 1e3 / args.queries as f64,
                    cell.late_mean_ns as f64 / 1e3,
                    cell.rows,
                );
                totals.push((
                    engine_name.to_string(),
                    pattern_name.clone(),
                    policy_name.clone(),
                    cell.min_ns,
                ));
                configs.push(
                    JsonObj::new()
                        .str("engine", engine_name)
                        .str("pattern", pattern_name)
                        .str("policy", policy_name)
                        .u64("cumulative_ns", cell.min_ns)
                        .u64("mean_ns", cell.min_ns / args.queries as u64)
                        .u64("late_half_mean_ns", cell.late_mean_ns)
                        .u64("rows", cell.rows as u64)
                        .u64_array("per_query_ns", &cell.per_query_ns),
                );
            }
        }
    }

    // Headline ratios: sequential standard / stochastic per engine, and
    // adaptive vs the best *static* policy per (engine, pattern) — the
    // advisor's robustness bound is staying within a small factor of the
    // best static choice on every pattern.
    let mut ratios = JsonList::new();
    for engine_name in engines {
        let total = |pattern: &str, policy: &str| -> Option<u64> {
            totals
                .iter()
                .find(|(e, pat, pol, _)| e == engine_name && pat == pattern && pol == policy)
                .map(|&(_, _, _, ns)| ns)
        };
        if let (Some(std_ns), Some(sto_ns)) = (
            total("sequential", "standard"),
            total("sequential", "stochastic"),
        ) {
            let ratio = std_ns as f64 / sto_ns.max(1) as f64;
            println!(
                "{engine_name}: sequential standard/stochastic = {ratio:.1}x \
                 ({:.1} ms vs {:.1} ms)",
                std_ns as f64 / 1e6,
                sto_ns as f64 / 1e6
            );
            ratios.push(
                JsonObj::new()
                    .str("engine", engine_name)
                    .f64("sequential_standard_over_stochastic", ratio),
            );
        }
        for pattern_name in &patterns {
            let statics: Vec<u64> = totals
                .iter()
                .filter(|(e, pat, pol, _)| {
                    e == engine_name && pat == pattern_name && pol != "adaptive"
                })
                .map(|&(_, _, _, ns)| ns)
                .collect();
            let (Some(ada_ns), Some(&best_ns)) =
                (total(pattern_name, "adaptive"), statics.iter().min())
            else {
                continue;
            };
            let ratio = ada_ns as f64 / best_ns.max(1) as f64;
            println!(
                "{engine_name}/{pattern_name}: adaptive/best-static = {ratio:.2}x \
                 ({:.1} ms vs {:.1} ms)",
                ada_ns as f64 / 1e6,
                best_ns as f64 / 1e6
            );
            ratios.push(
                JsonObj::new()
                    .str("engine", engine_name)
                    .str("pattern", pattern_name)
                    .f64("adaptive_over_best_static", ratio),
            );
        }
    }

    let root = JsonObj::new()
        .str("bench", "robustness")
        .u64("rows", args.n as u64)
        .u64("queries", args.queries as u64)
        .u64("domain", domain as u64)
        .u64("seed", args.seed)
        .u64("repeats", repeats as u64)
        .u64("stripe_width", width as u64)
        .list("ratios", ratios)
        .list("configs", configs);
    let path = write_bench_json("robustness", root).expect("write BENCH_robustness.json");
    println!("wrote {path}");
}
