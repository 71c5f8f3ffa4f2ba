//! Micro-benchmarks of the kernels behind every figure: crack-in-two /
//! crack-in-three, map groups against separate maps, chunk groups
//! against separate chunks, cracker-index operations, bit-vector
//! filtering, aggregate folds, the three positional-reconstruction
//! access patterns, and ripple updates. Name groups on the command line
//! to run only those: `cargo bench --bench microbench -- fold ripple`.

use crackdb_bench::harness::{BatchSize, Criterion};
use crackdb_columnstore::column::{insert_headroom, Column, Table};
use crackdb_columnstore::ops::block::{PartialAgg, Stats};
use crackdb_columnstore::radix::radix_cluster;
use crackdb_columnstore::types::{Bound, RangePred, RowId, Val};
use crackdb_core::{BitVec, Chunk};
use crackdb_cracking::crack::{crack_in_three, crack_in_two, BoundKind};
use crackdb_cracking::{CrackedArray, CrackerColumn, CrackerIndex, SeedPlan};
use crackdb_rng::rngs::StdRng;
use crackdb_rng::seq::SliceRandom;
use crackdb_rng::{Rng, SeedableRng};
use std::hint::black_box;

const N: usize = 1 << 20;

/// The `svc_mixed`-shaped map the ripple and index benches run on:
/// [`SKEWED_ROWS`] seeded rows with about 13k boundaries, 90% of them in
/// the lowest fifth of the value domain `0..SKEWED_ROWS`.
const SKEWED_ROWS: usize = 3_000_000;

/// Lookups or records per sample of the ns-scale index benches: a
/// sample's time in µs reads as ns per op.
const OPS: usize = 1_000;

fn skewed_map() -> CrackedArray<RowId> {
    let mut rng = StdRng::seed_from_u64(11);
    let domain = SKEWED_ROWS as Val;
    let head: Vec<Val> = (0..SKEWED_ROWS).map(|_| rng.gen_range(0..domain)).collect();
    let tail: Vec<RowId> = (0..SKEWED_ROWS as RowId).collect();
    let mut arr = CrackedArray::seeded(&head, &[&tail], &[], None, insert_headroom(SKEWED_ROWS));
    for i in 0..13_000 {
        let hi = if i % 10 == 9 { domain } else { domain / 5 };
        let v = rng.gen_range(0..hi);
        arr.crack_range(&RangePred::less(Bound::exclusive(v)));
    }
    arr
}

/// A value in the crack-dense lowest fifth of the domain (`hot`) or in
/// the rest.
fn skewed_value(rng: &mut StdRng, hot: bool) -> Val {
    let fifth = SKEWED_ROWS as Val / 5;
    if hot {
        rng.gen_range(0..fifth)
    } else {
        rng.gen_range(fifth..5 * fifth)
    }
}

fn data(seed: u64) -> (Vec<Val>, Vec<RowId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let head: Vec<Val> = (0..N).map(|_| rng.gen_range(0..N as Val)).collect();
    let tail: Vec<RowId> = (0..N as RowId).collect();
    (head, tail)
}

fn bench_crack_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("crack_kernels");
    g.sample_size(10);
    let (head, tail) = data(1);
    g.bench_function("crack_in_two_1M", |b| {
        b.iter_batched(
            || (head.clone(), tail.clone()),
            |(mut h, mut t)| {
                black_box(crack_in_two(
                    &mut h,
                    &mut t,
                    0,
                    N,
                    N as Val / 2,
                    BoundKind::Lt,
                ))
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("crack_in_three_1M", |b| {
        b.iter_batched(
            || (head.clone(), tail.clone()),
            |(mut h, mut t)| {
                black_box(crack_in_three(
                    &mut h,
                    &mut t,
                    0,
                    N,
                    (N as Val / 4, BoundKind::Le),
                    (3 * N as Val / 4, BoundKind::Lt),
                ))
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("two_crack_in_twos_1M", |b| {
        b.iter_batched(
            || (head.clone(), tail.clone()),
            |(mut h, mut t)| {
                let a = crack_in_two(&mut h, &mut t, 0, N, N as Val / 4, BoundKind::Le);
                black_box(crack_in_two(
                    &mut h,
                    &mut t,
                    a,
                    N,
                    3 * N as Val / 4,
                    BoundKind::Lt,
                ))
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_index(c: &mut Criterion, skewed: &CrackedArray<RowId>) {
    let mut g = c.benchmark_group("cracker_index");
    let mut idx = CrackerIndex::new();
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..10_000 {
        idx.record(
            (rng.gen_range(0..1_000_000), BoundKind::Lt),
            rng.gen_range(0..N),
        );
    }
    g.bench_function("enclosing_piece_10k_boundaries", |b| {
        b.iter(|| {
            let k = (rng.gen_range(0..1_000_000), BoundKind::Lt);
            black_box(idx.enclosing_piece(k, N))
        })
    });
    g.bench_function("estimate_size", |b| {
        b.iter(|| {
            let lo = rng.gen_range(0..900_000);
            black_box(idx.estimate_size(&RangePred::open(lo, lo + 50_000), N, (0, 1_000_000)))
        })
    });
    let keys: Vec<_> = skewed
        .index()
        .boundaries()
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    let domain = SKEWED_ROWS as Val;
    g.bench_function(format!("piece_of_{}_boundaries_x{OPS}", keys.len()), |b| {
        b.iter(|| {
            for _ in 0..OPS {
                black_box(skewed.piece_of(rng.gen_range(0..domain)));
            }
        })
    });
    g.bench_function(
        format!("position_of_{}_boundaries_x{OPS}", keys.len()),
        |b| {
            b.iter(|| {
                for _ in 0..OPS {
                    let k = keys[rng.gen_range(0..keys.len())];
                    black_box(skewed.index().position_of(k));
                }
            })
        },
    );
    g.bench_function(
        format!("record_into_{}_boundaries_x{OPS}", keys.len()),
        |b| {
            b.iter_batched(
                || skewed.index().clone(),
                |mut idx| {
                    for _ in 0..OPS {
                        idx.record((rng.gen_range(0..domain), BoundKind::Le), 0);
                    }
                    idx
                },
                BatchSize::LargeInput,
            )
        },
    );
    g.finish();
}

/// Tuples per bit-vector area: about one `svc_mixed` shard's cracked
/// area. Each bit-vector sample runs [`AREAS`] areas, each under a
/// different predicate, so divide its time by `AREAS * AREA` for
/// ns/tuple.
const AREA: usize = 8192;
const AREAS: usize = 8;

fn bench_bitvec(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitvec");
    // Several arrays and predicates in rotation: one array under one
    // predicate, timed over and over, keeps every branch predicted and
    // hides what a per-value predicate test costs in place.
    let mut rng = StdRng::seed_from_u64(3);
    let areas: Vec<Vec<Val>> = (0..AREAS)
        .map(|_| (0..AREA).map(|_| rng.gen_range(0..1000)).collect())
        .collect();
    let preds = [
        RangePred::open(100, 600),
        RangePred::closed(250, 750),
        RangePred::less(Bound::exclusive(500)),
        RangePred::half_open(0, 900),
        RangePred::greater(Bound::inclusive(300)),
    ];
    let mut round = 0;
    let mut pred_of = move |a: usize| {
        round += 1;
        preds[(round + a) % preds.len()]
    };
    g.bench_function("create_bv_8x8K", |b| {
        b.iter(|| {
            for (a, vals) in areas.iter().enumerate() {
                black_box(BitVec::from_range(vals, &pred_of(a)));
            }
        })
    });
    let half = RangePred::half_open(0, 500);
    let bvs: Vec<BitVec> = areas.iter().map(|v| BitVec::from_range(v, &half)).collect();
    g.bench_function("refine_bv_8x8K", |b| {
        b.iter_batched(
            || bvs.clone(),
            |mut bvs| {
                for (a, (bv, vals)) in bvs.iter_mut().zip(&areas).enumerate() {
                    bv.refine_range(vals, &pred_of(a));
                }
                black_box(bvs)
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("fold_masked_50pct_8x8K", |b| {
        b.iter(|| {
            let mut agg = PartialAgg::default();
            for (bv, vals) in bvs.iter().zip(&areas) {
                agg.fold(vals, Some(bv.words()), Stats::ALL);
            }
            black_box(agg)
        })
    });
    let vals: Vec<Val> = (0..N).map(|_| rng.gen_range(0..1000)).collect();
    let bv = BitVec::from_range(&vals, &half);
    g.bench_function("iter_ones_1M", |b| {
        b.iter(|| black_box(bv.iter_ones().count()))
    });
    g.finish();
}

/// Values of the area the `fold` benches aggregate: about one
/// `svc_mixed` shard's cracked area. Each sample folds [`FOLD_AREAS`]
/// such areas, so divide its time by `FOLD_AREAS * FOLD_AREA` for
/// ns/value.
const FOLD_AREA: usize = 6_000;
const FOLD_AREAS: usize = 16;

/// The aggregate fold over a masked area (a 50% selection, bits at
/// random), asked for every statistic, the sum alone, the maximum alone
/// and the count alone: what `exec` folds for `sum`, `max` and `count`
/// against what it folded for each before it asked for only those.
fn bench_fold(c: &mut Criterion) {
    let mut g = c.benchmark_group("fold");
    g.sample_size(50);
    let mut rng = StdRng::seed_from_u64(8);
    let half = RangePred::half_open(0, 500);
    let areas: Vec<(Vec<Val>, BitVec)> = (0..FOLD_AREAS)
        .map(|_| {
            let vals: Vec<Val> = (0..FOLD_AREA).map(|_| rng.gen_range(0..1000)).collect();
            let sel = BitVec::from_range(&vals, &half);
            (vals, sel)
        })
        .collect();
    let count = Stats::default();
    let sum = Stats { sum: true, ..count };
    let max = Stats { max: true, ..count };
    for (name, stats) in [
        ("all", Stats::ALL),
        ("sum", sum),
        ("max", max),
        ("count", count),
    ] {
        g.bench_function(format!("{name}_{FOLD_AREA}_50pct_x{FOLD_AREAS}"), |b| {
            b.iter(|| {
                let mut agg = PartialAgg::new(stats);
                for (vals, sel) in &areas {
                    agg.fold(vals, Some(sel.words()), stats);
                }
                agg
            })
        });
    }
    g.finish();
}

fn bench_reconstruction_patterns(c: &mut Criterion) {
    let mut g = c.benchmark_group("reconstruction");
    g.sample_size(10);
    let (col, _) = data(4);
    let mut rng = StdRng::seed_from_u64(5);
    let mut keys: Vec<RowId> = (0..N as RowId).collect();
    keys.shuffle(&mut rng);
    keys.truncate(N / 5);
    let sorted = {
        let mut k = keys.clone();
        k.sort_unstable();
        k
    };
    let fetch = |keys: &[RowId]| -> Val {
        let mut acc = 0;
        for &k in keys {
            acc ^= col[k as usize];
        }
        acc
    };
    g.bench_function("sequential_200k_of_1M", |b| {
        b.iter(|| black_box(fetch(&sorted)))
    });
    g.bench_function("random_200k_of_1M", |b| b.iter(|| black_box(fetch(&keys))));
    g.bench_function("radix_clustered_200k_of_1M", |b| {
        b.iter(|| {
            let clustered = radix_cluster(&keys, N, 4);
            black_box(fetch(&clustered))
        })
    });
    g.finish();
}

/// One ripple insert or delete per sample into a copy of the skewed
/// map, its value in the crack-dense fifth (`hot`) or the rest
/// (`cold`). Before each sample a 32 MB sweep evicts the map from the
/// caches, as the queries between two merges do in `svc_mixed`.
fn bench_ripple(c: &mut Criterion, skewed: &CrackedArray<RowId>) {
    let mut g = c.benchmark_group("ripple_updates");
    g.sample_size(200);
    let bounds = skewed.index().len();
    let mut sweep = vec![0u64; 4 << 20];
    let mut evict = || {
        sweep
            .iter_mut()
            .for_each(|x| *x = black_box(x.wrapping_add(1)))
    };
    for hot in [true, false] {
        let temp = if hot { "hot" } else { "cold" };
        let mut rng = StdRng::seed_from_u64(7);
        let mut arr = skewed.clone();
        g.bench_function(format!("ripple_insert_{temp}_{bounds}_boundaries"), |b| {
            b.iter_batched(
                &mut evict,
                |()| arr.ripple_insert(skewed_value(&mut rng, hot), 0),
                BatchSize::PerIteration,
            )
        });
        let mut arr = skewed.clone();
        g.bench_function(format!("ripple_delete_{temp}_{bounds}_boundaries"), |b| {
            b.iter_batched(
                &mut evict,
                |()| {
                    let (s, e) = arr.piece_of(skewed_value(&mut rng, hot));
                    if s < e {
                        arr.ripple_delete_at(rng.gen_range(s..e));
                    }
                },
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

/// Rows of the arrays the `map_groups` benches crack and seed: a
/// `qi_cold` map.
const GROUP_ROWS: usize = 3_000_000;

/// `k` tail columns of [`GROUP_ROWS`] values each.
fn group_tails(k: usize, seed: u64) -> Vec<Vec<Val>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let domain = GROUP_ROWS as Val;
    let col = |_| (0..GROUP_ROWS).map(|_| rng.gen_range(0..domain)).collect();
    (0..k).map(col).collect()
}

/// The same rows as one `k`-tail group and as `k` one-tail arrays: a
/// head array of `piece`-tuple pieces (values `[i p, (i+1) p)` shuffled
/// within piece `i`), cut at every piece boundary.
fn pieces(k: usize, piece: usize) -> (CrackedArray<Val>, Vec<CrackedArray<Val>>) {
    let mut rng = StdRng::seed_from_u64(21);
    let mut head: Vec<Val> = (0..GROUP_ROWS as Val).collect();
    head.chunks_mut(piece).for_each(|c| c.shuffle(&mut rng));
    let tails = group_tails(k, 22);
    let cut = |arr: &mut CrackedArray<Val>| {
        for at in (piece..GROUP_ROWS).step_by(piece) {
            arr.index_mut().record((at as Val, BoundKind::Lt), at);
        }
    };
    let refs: Vec<&[Val]> = tails.iter().map(Vec::as_slice).collect();
    let mut group = CrackedArray::seeded(&head, &refs, &[], None, 0);
    cut(&mut group);
    let singles = tails
        .iter()
        .map(|t| {
            let mut arr = CrackedArray::new(head.clone(), t.clone());
            cut(&mut arr);
            arr
        })
        .collect();
    (group, singles)
}

/// The `svc_mixed`-shaped skewed map as a `k`-tail group and as `k`
/// one-tail arrays.
fn skewed_group(k: usize) -> (CrackedArray<Val>, Vec<CrackedArray<Val>>) {
    let tails = group_tails(k, 23);
    let skewed = skewed_map();
    let head = skewed.head();
    let refs: Vec<&[Val]> = tails.iter().map(Vec::as_slice).collect();
    let cut = |arr: &mut CrackedArray<Val>| {
        for ((v, kind), pos) in skewed.index().boundaries() {
            arr.index_mut().record((v, kind), pos);
        }
    };
    let mut group = CrackedArray::seeded(head, &refs, &[], None, insert_headroom(head.len()));
    cut(&mut group);
    let singles = refs
        .iter()
        .map(|t| {
            let mut arr = CrackedArray::seeded(head, &[t], &[], None, insert_headroom(head.len()));
            cut(&mut arr);
            arr
        })
        .collect();
    (group, singles)
}

/// Map groups against the separate maps they replace, each case on a
/// `k`-tail group (`group`) and on `k` one-tail arrays (`separate`):
/// 300 cold cracks, each in a random one of the array's pieces of a
/// given size (the 45 pieces of 66k tuples, a prepartitioned `qi_cold`
/// map's, are each cracked several times);
/// seeding 3M rows through a `SeedPlan`; and hot ripple inserts and
/// deletes at the `svc_mixed` shape. Two more first touches run on one
/// `(value, key)` array: `seed_3M_k1_rowid`, a chunk map's seed with its
/// keys written through the slots, and `cracker_column_first_query_6M`,
/// an `ide_sessions` session's cracker column at its first query —
/// copied, then prepartitioned by the crack (`_copy`), against seeded
/// straight into bucket order (`_fused`).
///
/// The seed and prepartition cases measure the heap state as much as
/// the scatter: run them under `benchmark/run.sh`'s `MALLOC_*` exports,
/// as crackbench runs. Under glibc's defaults every big buffer is a
/// fresh `mmap`: both the row-wise scatter and the per-column moves
/// then read ≈ 90 ms of page faults at these sizes, with no difference.
fn bench_map_groups(c: &mut Criterion) {
    let mut g = c.benchmark_group("map_groups");
    g.sample_size(10);
    for k in [2, 3] {
        for piece in [1_500, 6_000, 66_000] {
            let (group, singles) = pieces(k, piece);
            let mut rng = StdRng::seed_from_u64(24);
            let mut preds = || -> Vec<RangePred> {
                let n = (GROUP_ROWS / piece) as Val;
                let mut v = || rng.gen_range(0..n) * piece as Val + rng.gen_range(1..piece as Val);
                (0..300)
                    .map(|_| RangePred::less(Bound::exclusive(v())))
                    .collect()
            };
            g.bench_function(format!("crack_300_of_{piece}_k{k}_group"), |b| {
                b.iter_batched(
                    || (group.clone(), preds()),
                    |(mut arr, preds)| {
                        preds.iter().for_each(|p| {
                            black_box(arr.crack_range(p));
                        })
                    },
                    BatchSize::LargeInput,
                )
            });
            g.bench_function(format!("crack_300_of_{piece}_k{k}_separate"), |b| {
                b.iter_batched(
                    || (singles.clone(), preds()),
                    |(mut arrs, preds)| {
                        for arr in &mut arrs {
                            preds.iter().for_each(|p| {
                                black_box(arr.crack_range(p));
                            });
                        }
                    },
                    BatchSize::LargeInput,
                )
            });
        }
        let mut rng = StdRng::seed_from_u64(25);
        let domain = GROUP_ROWS as Val;
        let head: Vec<Val> = (0..GROUP_ROWS).map(|_| rng.gen_range(0..domain)).collect();
        let tails = group_tails(k, 26);
        let refs: Vec<&[Val]> = tails.iter().map(Vec::as_slice).collect();
        let first = RangePred::open(domain / 3, domain / 3 + 6_000);
        let plan = SeedPlan::new(&head, &[], &first).expect("3M rows prepartition");
        let headroom = insert_headroom(GROUP_ROWS);
        g.bench_function(format!("seed_3M_k{k}_group"), |b| {
            b.iter(|| CrackedArray::seeded(&head, &refs, &[], Some(&plan), headroom))
        });
        g.bench_function(format!("seed_3M_k{k}_separate"), |b| {
            b.iter(|| {
                refs.iter()
                    .map(|t| CrackedArray::seeded(&head, &[t], &[], Some(&plan), headroom))
                    .collect::<Vec<_>>()
            })
        });
    }
    let mut rng = StdRng::seed_from_u64(25);
    let domain = GROUP_ROWS as Val;
    let head: Vec<Val> = (0..GROUP_ROWS).map(|_| rng.gen_range(0..domain)).collect();
    let first = RangePred::open(domain / 3, domain / 3 + 6_000);
    let plan = SeedPlan::new(&head, &[], &first).expect("3M rows prepartition");
    g.bench_function("seed_3M_k1_rowid", |b| {
        b.iter(|| CrackedArray::seeded_keys(&head, &[], Some(&plan), 0))
    });
    let rows = 2 * GROUP_ROWS;
    let col = Column::new((0..rows).map(|_| rng.gen_range(0..rows as Val)).collect());
    let first = RangePred::open(rows as Val / 3, rows as Val / 3 + 12_000);
    g.bench_function("cracker_column_first_query_6M_copy", |b| {
        b.iter(|| {
            let mut column = CrackerColumn::from_column(&col);
            column.crack_select_span(&first);
            column
        })
    });
    g.bench_function("cracker_column_first_query_6M_fused", |b| {
        b.iter(|| {
            let mut column = CrackerColumn::for_query(&col, &[], &first);
            column.crack_select_span(&first);
            column
        })
    });
    drop(col);
    let (group, singles) = skewed_group(3);
    let bounds = group.index().len();
    const UPDATES: usize = 100;
    let mut rng = StdRng::seed_from_u64(27);
    let mut vals = || -> Vec<Val> { (0..UPDATES).map(|_| skewed_value(&mut rng, true)).collect() };
    g.bench_function(
        format!("ripple_insert_hot_x{UPDATES}_{bounds}_k3_group"),
        |b| {
            b.iter_batched(
                || (group.clone(), vals()),
                |(mut arr, vals)| {
                    vals.iter()
                        .for_each(|&v| arr.ripple_insert_row(v, &[v, v, v]))
                },
                BatchSize::LargeInput,
            )
        },
    );
    g.bench_function(
        format!("ripple_insert_hot_x{UPDATES}_{bounds}_k3_separate"),
        |b| {
            b.iter_batched(
                || (singles.clone(), vals()),
                |(mut arrs, vals)| {
                    for &v in &vals {
                        arrs.iter_mut().for_each(|arr| arr.ripple_insert(v, v));
                    }
                },
                BatchSize::LargeInput,
            )
        },
    );
    let mut positions = || -> Vec<usize> {
        let mut left = group.len();
        (0..UPDATES)
            .map(|_| {
                let (s, e) = group.piece_of(skewed_value(&mut rng, true));
                left -= 1;
                rng.gen_range(s..e.max(s + 1)).min(left - 1)
            })
            .collect()
    };
    g.bench_function(
        format!("ripple_delete_hot_x{UPDATES}_{bounds}_k3_group"),
        |b| {
            b.iter_batched(
                || (group.clone(), positions()),
                |(mut arr, ps)| {
                    ps.iter().for_each(|&p| {
                        black_box(arr.ripple_delete_at(p));
                    })
                },
                BatchSize::LargeInput,
            )
        },
    );
    g.bench_function(
        format!("ripple_delete_hot_x{UPDATES}_{bounds}_k3_separate"),
        |b| {
            b.iter_batched(
                || (singles.clone(), positions()),
                |(mut arrs, ps)| {
                    for &p in &ps {
                        arrs.iter_mut().for_each(|arr| {
                            black_box(arr.ripple_delete_at(p));
                        });
                    }
                },
                BatchSize::LargeInput,
            )
        },
    );
    g.finish();
}

/// Areas per sample of the `chunk_groups` benches, and their rows: a
/// `qi_spill` query's areas over its 3M-row table.
const CHUNK_AREAS: usize = 100;
const AREA_ROWS: usize = 3_600;

/// A `qi_spill`-shaped table (head `a0`, tails `a1`, `a2`, values
/// uniform over the row count) and [`CHUNK_AREAS`] random areas of its chunk
/// map: each the `(head, key)` pairs of [`AREA_ROWS`] rows adjacent in
/// value, in scattered order, with a predicate cutting inside it.
#[allow(clippy::type_complexity)]
fn chunk_areas() -> (Table, Vec<(Vec<Val>, Vec<RowId>, RangePred)>) {
    let mut rng = StdRng::seed_from_u64(31);
    let domain = GROUP_ROWS as Val;
    let mut table = Table::new();
    for c in 0..3 {
        let col = (0..GROUP_ROWS).map(|_| rng.gen_range(0..domain)).collect();
        table.add_column(format!("a{c}"), Column::new(col));
    }
    let head = table.column(0).values();
    let mut by_value: Vec<RowId> = (0..GROUP_ROWS as RowId).collect();
    by_value.sort_unstable_by_key(|&k| head[k as usize]);
    let areas = (0..CHUNK_AREAS)
        .map(|_| {
            let at = rng.gen_range(0..GROUP_ROWS - AREA_ROWS);
            let mut keys = by_value[at..at + AREA_ROWS].to_vec();
            keys.shuffle(&mut rng);
            let heads: Vec<Val> = keys.iter().map(|&k| head[k as usize]).collect();
            let (lo, hi) = (heads.iter().min().unwrap(), heads.iter().max().unwrap());
            let a = rng.gen_range(*lo..*hi);
            let pred = RangePred::open(a, rng.gen_range(a..=*hi));
            (heads, keys, pred)
        })
        .collect();
    (table, areas)
}

/// Chunk groups against the separate chunks they replace, at
/// `qi_spill`'s chunk shape ([`CHUNK_AREAS`] areas of [`AREA_ROWS`] rows
/// of a 3M-row table, two tails), area by area as a query that lacks an
/// area's maps handles them: fetching the two maps as one group (one
/// head copy, two gathers) or as two chunks (two of each); cracking the
/// fetched group once or each chunk; and both.
fn bench_chunk_groups(c: &mut Criterion) {
    let mut g = c.benchmark_group("chunk_groups");
    g.sample_size(20);
    let (table, areas) = chunk_areas();
    let fetch = |groups: &[&[usize]]| -> Vec<Vec<Chunk>> {
        let area = |(h, k, _): &(Vec<Val>, Vec<RowId>, RangePred)| -> Vec<Chunk> {
            let gather = |attrs: &&[usize]| Chunk::gather(attrs.to_vec(), (h, k), &table, None);
            groups.iter().map(gather).collect()
        };
        areas.iter().map(area).collect()
    };
    let crack = |chunks: Vec<Vec<Chunk>>| {
        for (cs, (_, _, pred)) in chunks.into_iter().zip(&areas) {
            for mut c in cs {
                black_box(c.crack_range(pred));
            }
        }
    };
    for (name, groups) in [("group", &[&[1, 2][..]][..]), ("separate", &[&[1], &[2]])] {
        g.bench_function(format!("fetch_{CHUNK_AREAS}_areas_k2_{name}"), |b| {
            b.iter(|| fetch(groups))
        });
        g.bench_function(format!("crack_{CHUNK_AREAS}_areas_k2_{name}"), |b| {
            b.iter_batched(|| fetch(groups), crack, BatchSize::LargeInput)
        });
        g.bench_function(format!("fetch_crack_{CHUNK_AREAS}_areas_k2_{name}"), |b| {
            b.iter(|| crack(fetch(groups)))
        });
    }
    g.finish();
}

fn main() {
    let mut c = Criterion::default();
    type Bench = fn(&mut Criterion);
    let groups: [(&str, Bench); 6] = [
        ("crack_kernels", bench_crack_kernels),
        ("map_groups", bench_map_groups),
        ("chunk_groups", bench_chunk_groups),
        ("bitvec", bench_bitvec),
        ("fold", bench_fold),
        ("reconstruction", bench_reconstruction_patterns),
    ];
    for (name, bench) in groups {
        if c.wants(name) {
            bench(&mut c);
        }
    }
    if c.wants("cracker_index") || c.wants("ripple_updates") {
        let skewed = skewed_map();
        if c.wants("cracker_index") {
            bench_index(&mut c, &skewed);
        }
        if c.wants("ripple_updates") {
            bench_ripple(&mut c, &skewed);
        }
    }
}
