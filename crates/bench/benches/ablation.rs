//! Ablation benchmarks of the paper's design decisions:
//!
//! * adaptive alignment vs maps without alignment (correct plans need
//!   alignment; here we measure its replay cost in isolation);
//! * map-set choice: most selective vs least selective set;
//! * partial maps: chunk-wise processing vs full-map processing for a
//!   focused workload;
//! * crack-in-three vs two crack-in-twos (see microbench) at query level.

use crackdb_bench::harness::{BatchSize, Criterion};
use crackdb_columnstore::types::{AggFunc, RangePred, Val};
use crackdb_engine::{Engine, PartialEngine, SelectQuery, SidewaysEngine};
use crackdb_rng::rngs::StdRng;
use crackdb_rng::{Rng, SeedableRng};
use crackdb_workloads::random_table;
use std::hint::black_box;

const N: usize = 200_000;
const DOMAIN: Val = 200_000;

fn queries(seed: u64, count: usize, width: Val) -> Vec<SelectQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let lo = rng.gen_range(0..DOMAIN - width);
            SelectQuery::aggregate(
                vec![(0, RangePred::open(lo, lo + width))],
                vec![(1, AggFunc::Max), (2, AggFunc::Max)],
            )
        })
        .collect()
}

/// Alignment replay cost: a map set where one map lags 100 cracks behind
/// and must catch up, vs an always-on map.
fn bench_alignment_lag(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_alignment");
    g.sample_size(10);
    let table = random_table(3, N, DOMAIN, 11);
    g.bench_function("lagging_map_catches_up_100_cracks", |b| {
        b.iter_batched(
            || {
                let mut e = SidewaysEngine::new(table.clone(), (0, DOMAIN));
                // 100 queries touching only attribute 1's map.
                for q in queries(1, 100, DOMAIN / 50) {
                    let q1 = SelectQuery::aggregate(q.preds.clone(), vec![(1, AggFunc::Max)]);
                    e.select(&q1);
                }
                e
            },
            |mut e| {
                // First query touching attribute 2: creation + full replay.
                let q = SelectQuery::aggregate(
                    vec![(0, RangePred::open(100, 5000))],
                    vec![(2, AggFunc::Max)],
                );
                black_box(e.select(&q))
            },
            BatchSize::PerIteration,
        )
    });
    g.bench_function("aligned_map_no_replay", |b| {
        b.iter_batched(
            || {
                let mut e = SidewaysEngine::new(table.clone(), (0, DOMAIN));
                for q in queries(1, 100, DOMAIN / 50) {
                    e.select(&q); // touches both maps every query
                }
                e
            },
            |mut e| {
                let q = SelectQuery::aggregate(
                    vec![(0, RangePred::open(100, 5000))],
                    vec![(2, AggFunc::Max)],
                );
                black_box(e.select(&q))
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

/// Map-set choice: most selective (the paper's policy) vs the worst
/// possible (least selective) set for a conjunctive query.
fn bench_set_choice(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_set_choice");
    g.sample_size(10);
    let table = random_table(4, N, DOMAIN, 12);
    // Attribute 0 predicate is highly selective (0.5%), attribute 1's is
    // wide (50%).
    let narrow = RangePred::open(1000, 2000);
    let wide = RangePred::open(0, DOMAIN / 2);
    g.bench_function("choose_most_selective(paper)", |b| {
        b.iter_batched(
            || SidewaysEngine::new(table.clone(), (0, DOMAIN)),
            |mut e| {
                let q =
                    SelectQuery::aggregate(vec![(0, narrow), (1, wide)], vec![(2, AggFunc::Max)]);
                black_box(e.select(&q))
            },
            BatchSize::PerIteration,
        )
    });
    g.bench_function("choose_least_selective(worst)", |b| {
        b.iter_batched(
            || SidewaysEngine::new(table.clone(), (0, DOMAIN)),
            |mut e| {
                // Force the bad choice by making the wide predicate the
                // only cheap-looking one: swap roles via a disjunctive
                // trick is unavailable, so emulate by running with the
                // wide predicate as the head (single-pred query on the
                // wide attribute, then the narrow filter as residual).
                let q =
                    SelectQuery::aggregate(vec![(1, wide), (0, narrow)], vec![(2, AggFunc::Max)]);
                // Engine still picks the most selective — emulate the
                // worst case by querying the wide attribute alone first
                // (paying its map creation + crack) and then the real
                // query.
                let warm = SelectQuery::aggregate(vec![(1, wide)], vec![(2, AggFunc::Max)]);
                e.select(&warm);
                black_box(e.select(&q))
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

/// Focused workload: partial maps fetch ~1% of the column; full maps
/// materialize everything.
fn bench_partial_vs_full_focused(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_partial_focused");
    g.sample_size(10);
    let table = random_table(3, N, DOMAIN, 13);
    let qs = queries(2, 20, DOMAIN / 100);
    g.bench_function("full_maps_20_focused_queries", |b| {
        b.iter_batched(
            || SidewaysEngine::new(table.clone(), (0, DOMAIN)),
            |mut e| {
                for q in &qs {
                    black_box(e.select(q));
                }
            },
            BatchSize::PerIteration,
        )
    });
    g.bench_function("partial_maps_20_focused_queries", |b| {
        b.iter_batched(
            || PartialEngine::new(table.clone(), (0, DOMAIN), None),
            |mut e| {
                for q in &qs {
                    black_box(e.select(q));
                }
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

/// §3.4 extension: the partitioned cracker-join vs a flat hash join, at
/// increasing crack counts — the cracker-join gets faster as the inputs
/// self-organize, the flat join does not.
fn bench_cracker_join(c: &mut Criterion) {
    use crackdb_core::{cracker_join, flat_hash_join};
    use crackdb_cracking::CrackedArray;
    let mut g = c.benchmark_group("ablation_cracker_join");
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(21);
    let n = 200_000;
    let mk = |rng: &mut StdRng| -> CrackedArray<u32> {
        let head: Vec<Val> = (0..n).map(|_| rng.gen_range(0..n as Val)).collect();
        CrackedArray::new(head, (0..n as u32).collect())
    };
    for cracks in [0usize, 16, 256] {
        let mut l = mk(&mut rng);
        let mut r = mk(&mut rng);
        for i in 0..cracks {
            let lo = (i * n / cracks.max(1)) as Val;
            l.crack_range(&RangePred::open(lo, lo + 7));
            r.crack_range(&RangePred::open(lo, lo + 7));
        }
        g.bench_function(format!("cracker_join_{cracks}_cracks"), |b| {
            b.iter(|| black_box(cracker_join(&l, &r).len()))
        });
        g.bench_function(format!("flat_hash_join_{cracks}_cracks"), |b| {
            b.iter(|| black_box(flat_hash_join(&l, &r).len()))
        });
    }
    g.finish();
}

/// §3.4 extension: piece-aware max/count vs full scans over a cracked
/// array.
fn bench_piece_aware_aggregates(c: &mut Criterion) {
    use crackdb_core::aggregate::{head_count, head_max};
    use crackdb_cracking::CrackedArray;
    let mut g = c.benchmark_group("ablation_piece_aggregates");
    let mut rng = StdRng::seed_from_u64(22);
    let n = 1_000_000;
    let head: Vec<Val> = (0..n).map(|_| rng.gen_range(0..n as Val)).collect();
    let mut arr = CrackedArray::new(head.clone(), vec![(); n]);
    for i in 1..64 {
        let lo = (i * n / 64) as Val;
        arr.crack_range(&RangePred::open(lo, lo + 3));
    }
    g.bench_function("head_max_piece_aware", |b| {
        b.iter(|| black_box(head_max(&arr)))
    });
    g.bench_function("head_max_full_scan", |b| {
        b.iter(|| black_box(head.iter().copied().max()))
    });
    let pred = RangePred::open(200_000, 700_000);
    g.bench_function("head_count_piece_aware", |b| {
        b.iter(|| black_box(head_count(&arr, &pred)))
    });
    g.bench_function("head_count_full_scan", |b| {
        b.iter(|| black_box(head.iter().filter(|&&v| pred.matches(v)).count()))
    });
    g.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_alignment_lag(&mut c);
    bench_set_choice(&mut c);
    bench_partial_vs_full_focused(&mut c);
    bench_cracker_join(&mut c);
    bench_piece_aware_aggregates(&mut c);
}
