//! Sharded-vs-unsharded differential testing: for every physical
//! design, `ShardedEngine<E>` at shard counts 1, 2 and 7 must return
//! results identical (up to projection row order, which is unordered by
//! contract) to the unsharded engine over seeded-PRNG workloads covering
//! conjunctions, disjunctions, projections and aggregates.

use crackdb_columnstore::column::Table;
use crackdb_columnstore::types::{AggFunc, RangePred, Val};
use crackdb_engine::{
    Engine, JoinQuery, JoinSide, Joined, PartialEngine, PlainEngine, PresortedEngine,
    SelCrackEngine, SelectQuery, ShardedEngine, SidewaysEngine,
};
use crackdb_rng::{rngs::StdRng, Rng, SeedableRng};
use crackdb_workloads::{random_table, random_table_shards};

const DOMAIN: (Val, Val) = (0, 1000);
const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

fn table(cols: usize, n: usize, seed: u64) -> Table {
    random_table(cols, n, DOMAIN.1, seed)
}

/// A random non-empty subset of the five functions on `attr`: every fold
/// shape, the count alone included.
fn random_funcs(rng: &mut StdRng, attr: usize) -> Vec<(usize, AggFunc)> {
    let funcs: u32 = rng.gen_range(1..32);
    let aggs = [
        AggFunc::Count,
        AggFunc::Max,
        AggFunc::Min,
        AggFunc::Sum,
        AggFunc::Avg,
    ];
    aggs.iter()
        .enumerate()
        .filter(|&(i, _)| funcs >> i & 1 == 1)
        .map(|(_, &f)| (attr, f))
        .collect()
}

/// A random aggregate query: 1–2 conjunctive open-range predicates over
/// distinct attributes, the full function set (count/max/min/sum/avg)
/// over a random attribute.
fn random_select(rng: &mut StdRng, cols: usize) -> SelectQuery {
    let npreds = rng.gen_range(1usize..3);
    let mut preds: Vec<(usize, RangePred)> = Vec::new();
    for _ in 0..npreds {
        let attr = rng.gen_range(0..cols);
        if preds.iter().any(|&(a, _)| a == attr) {
            continue;
        }
        let lo = rng.gen_range(0..DOMAIN.1 - 1);
        let hi = lo + 1 + rng.gen_range(1..=DOMAIN.1 - lo);
        preds.push((attr, RangePred::open(lo, hi)));
    }
    let agg_attr = rng.gen_range(0..cols);
    SelectQuery::aggregate(preds, random_funcs(rng, agg_attr))
}

/// Assert `out` equals `expected` up to projection row order.
fn assert_same(
    out: &crackdb_engine::QueryOutput,
    expected: &crackdb_engine::QueryOutput,
    ctx: &str,
) {
    assert_eq!(out.rows, expected.rows, "{ctx}: row count");
    assert_eq!(out.aggs, expected.aggs, "{ctx}: aggregates");
    assert_eq!(
        out.proj_values.len(),
        expected.proj_values.len(),
        "{ctx}: projection arity"
    );
    for (j, (got, want)) in out
        .proj_values
        .iter()
        .zip(&expected.proj_values)
        .enumerate()
    {
        let mut got = got.clone();
        let mut want = want.clone();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{ctx}: projection {j} (sorted)");
    }
}

/// Drive `queries` through an unsharded engine and its sharded variants
/// at every shard count; results must agree query by query.
fn check_select_differential<E: Engine>(
    name: &str,
    queries: &[SelectQuery],
    mut unsharded: E,
    mut make_sharded: impl FnMut(usize) -> ShardedEngine<E>,
) {
    let expected: Vec<_> = queries.iter().map(|q| unsharded.select(q)).collect();
    for shards in SHARD_COUNTS {
        let mut sharded = make_sharded(shards);
        for (i, (q, e)) in queries.iter().zip(&expected).enumerate() {
            let out = sharded.select(q);
            assert_same(&out, e, &format!("{name}, {shards} shards, query {i}"));
        }
    }
}

#[test]
fn plain_sharded_agrees_on_mixed_workload() {
    let t = table(4, 503, 11);
    let mut rng = StdRng::seed_from_u64(1);
    let mut queries: Vec<SelectQuery> = (0..30).map(|_| random_select(&mut rng, 4)).collect();
    // Mix in projections.
    for (i, q) in queries.iter_mut().enumerate() {
        if i % 3 == 0 {
            q.projs = vec![i % 4, (i + 1) % 4];
        }
    }
    check_select_differential("plain", &queries, PlainEngine::new(t.clone()), |s| {
        ShardedEngine::build(t.clone(), s, |_, part| PlainEngine::new(part))
    });
}

#[test]
fn presorted_sharded_agrees_on_mixed_workload() {
    let t = table(4, 490, 13);
    let mut rng = StdRng::seed_from_u64(2);
    let mut queries: Vec<SelectQuery> = (0..30).map(|_| random_select(&mut rng, 4)).collect();
    for (i, q) in queries.iter_mut().enumerate() {
        if i % 4 == 1 {
            q.projs = vec![i % 4];
        }
    }
    check_select_differential(
        "presorted",
        &queries,
        PresortedEngine::new(t.clone(), &[0, 1, 2, 3]),
        |s| {
            ShardedEngine::build(t.clone(), s, |_, part| {
                PresortedEngine::new(part, &[0, 1, 2, 3])
            })
        },
    );
}

#[test]
fn selcrack_sharded_agrees_on_mixed_workload() {
    let t = table(4, 511, 17);
    let mut rng = StdRng::seed_from_u64(3);
    let mut queries: Vec<SelectQuery> = (0..30).map(|_| random_select(&mut rng, 4)).collect();
    for (i, q) in queries.iter_mut().enumerate() {
        if i % 5 == 2 {
            q.projs = vec![(i + 2) % 4];
        }
    }
    check_select_differential(
        "selcrack",
        &queries,
        SelCrackEngine::new(t.clone(), DOMAIN),
        |s| ShardedEngine::build(t.clone(), s, |_, part| SelCrackEngine::new(part, DOMAIN)),
    );
}

#[test]
fn sideways_sharded_agrees_on_mixed_workload() {
    let t = table(4, 497, 19);
    let mut rng = StdRng::seed_from_u64(4);
    let mut queries: Vec<SelectQuery> = (0..30).map(|_| random_select(&mut rng, 4)).collect();
    for (i, q) in queries.iter_mut().enumerate() {
        if i % 3 == 1 {
            q.projs = vec![i % 4, (i + 3) % 4];
        }
    }
    check_select_differential(
        "sideways",
        &queries,
        SidewaysEngine::new(t.clone(), DOMAIN),
        |s| ShardedEngine::build(t.clone(), s, |_, part| SidewaysEngine::new(part, DOMAIN)),
    );
}

#[test]
fn partial_sharded_agrees_on_mixed_workload() {
    let t = table(4, 509, 23);
    let mut rng = StdRng::seed_from_u64(5);
    let mut queries: Vec<SelectQuery> = (0..30).map(|_| random_select(&mut rng, 4)).collect();
    for (i, q) in queries.iter_mut().enumerate() {
        if i % 4 == 3 {
            q.projs = vec![(i + 1) % 4];
        }
    }
    check_select_differential(
        "partial",
        &queries,
        PartialEngine::new(t.clone(), DOMAIN, None),
        |s| {
            ShardedEngine::build(t.clone(), s, |_, part| {
                PartialEngine::new(part, DOMAIN, None)
            })
        },
    );
}

/// Partial sideways cracking under a storage budget must also shard
/// cleanly (each shard gets its own budgeted chunk store).
#[test]
fn partial_with_budget_sharded_agrees() {
    let t = table(3, 450, 29);
    let mut rng = StdRng::seed_from_u64(6);
    let queries: Vec<SelectQuery> = (0..25).map(|_| random_select(&mut rng, 3)).collect();
    check_select_differential(
        "partial+budget",
        &queries,
        PartialEngine::new(t.clone(), DOMAIN, Some(300)),
        |s| {
            ShardedEngine::build(t.clone(), s, |_, part| {
                PartialEngine::new(part, DOMAIN, Some(300))
            })
        },
    );
}

/// Disjunctions through every engine that implements them.
#[test]
fn disjunctive_sharded_agreement() {
    let t = table(3, 480, 31);
    let mut rng = StdRng::seed_from_u64(7);
    let queries: Vec<SelectQuery> = (0..20)
        .map(|_| {
            let lo1 = rng.gen_range(0..850);
            let lo2 = rng.gen_range(0..850);
            SelectQuery {
                preds: vec![
                    (0, RangePred::open(lo1, lo1 + 150)),
                    (1, RangePred::open(lo2, lo2 + 150)),
                ],
                disjunctive: true,
                aggs: vec![
                    (2, AggFunc::Count),
                    (2, AggFunc::Sum),
                    (2, AggFunc::Min),
                    (2, AggFunc::Avg),
                ],
                projs: vec![2],
            }
        })
        .collect();
    check_select_differential("plain/disj", &queries, PlainEngine::new(t.clone()), |s| {
        ShardedEngine::build(t.clone(), s, |_, part| PlainEngine::new(part))
    });
    check_select_differential(
        "selcrack/disj",
        &queries,
        SelCrackEngine::new(t.clone(), DOMAIN),
        |s| ShardedEngine::build(t.clone(), s, |_, part| SelCrackEngine::new(part, DOMAIN)),
    );
    check_select_differential(
        "sideways/disj",
        &queries,
        SidewaysEngine::new(t.clone(), DOMAIN),
        |s| ShardedEngine::build(t.clone(), s, |_, part| SidewaysEngine::new(part, DOMAIN)),
    );
    check_select_differential(
        "presorted/disj",
        &queries,
        PresortedEngine::new(t.clone(), &[0, 1, 2]),
        |s| {
            ShardedEngine::build(t.clone(), s, |_, part| {
                PresortedEngine::new(part, &[0, 1, 2])
            })
        },
    );
    check_select_differential(
        "partial/disj",
        &queries,
        PartialEngine::new(t.clone(), DOMAIN, None),
        |s| {
            ShardedEngine::build(t.clone(), s, |_, part| {
                PartialEngine::new(part, DOMAIN, None)
            })
        },
    );
    check_select_differential(
        "partial/disj+budget",
        &queries,
        PartialEngine::new(t.clone(), DOMAIN, Some(350)),
        |s| {
            ShardedEngine::build(t.clone(), s, |_, part| {
                PartialEngine::new(part, DOMAIN, Some(350))
            })
        },
    );
}

/// Join queries: the primary table is sharded, the second replicated, so
/// per-shard joins must union to exactly the unsharded join.
#[test]
fn joins_sharded_agree() {
    let left = table(4, 240, 37);
    let right = table(4, 160, 41);
    let mut rng = StdRng::seed_from_u64(8);
    let queries: Vec<JoinQuery> = (0..10)
        .map(|_| {
            let llo = rng.gen_range(0..700);
            let rlo = rng.gen_range(0..700);
            JoinQuery {
                left: JoinSide {
                    preds: vec![(1, RangePred::open(llo, llo + 300))],
                    join_attr: 3,
                    aggs: random_funcs(&mut rng, 0),
                },
                right: JoinSide {
                    preds: vec![(1, RangePred::open(rlo, rlo + 300))],
                    join_attr: 3,
                    aggs: random_funcs(&mut rng, 2),
                },
            }
        })
        .collect();

    let mut plain = Joined::new(
        PlainEngine::new(left.clone()),
        PlainEngine::new(right.clone()),
    );
    let mut selcrack = Joined::new(
        SelCrackEngine::new(left.clone(), DOMAIN),
        SelCrackEngine::new(right.clone(), DOMAIN),
    );
    let mut sideways = Joined::new(
        SidewaysEngine::new(left.clone(), DOMAIN),
        SidewaysEngine::new(right.clone(), DOMAIN),
    );
    let mut presorted = Joined::new(
        PresortedEngine::new(left.clone(), &[1]),
        PresortedEngine::new(right.clone(), &[1]),
    );
    let mut partial = Joined::new(
        PartialEngine::new(left.clone(), DOMAIN, None),
        PartialEngine::new(right.clone(), DOMAIN, None),
    );
    let expected: Vec<_> = queries.iter().map(|q| plain.join(q)).collect();
    // Unsharded engines agree with each other first.
    for (i, (q, e)) in queries.iter().zip(&expected).enumerate() {
        for (name, out) in [
            ("selcrack", selcrack.join(q)),
            ("sideways", sideways.join(q)),
            ("presorted", presorted.join(q)),
            ("partial", partial.join(q)),
        ] {
            assert_eq!(out.rows, e.rows, "{name} join {i} rows");
            assert_eq!(out.aggs, e.aggs, "{name} join {i} aggs");
        }
    }
    for shards in SHARD_COUNTS {
        // The left table is sharded; every shard joins its part with
        // the whole right table.
        let mut sp = ShardedEngine::build(left.clone(), shards, |_, part| {
            Joined::new(PlainEngine::new(part), PlainEngine::new(right.clone()))
        });
        let mut ssc = ShardedEngine::build(left.clone(), shards, |_, part| {
            Joined::new(
                SelCrackEngine::new(part, DOMAIN),
                SelCrackEngine::new(right.clone(), DOMAIN),
            )
        });
        let mut ssw = ShardedEngine::build(left.clone(), shards, |_, part| {
            Joined::new(
                SidewaysEngine::new(part, DOMAIN),
                SidewaysEngine::new(right.clone(), DOMAIN),
            )
        });
        let mut spt = ShardedEngine::build(left.clone(), shards, |_, part| {
            Joined::new(
                PartialEngine::new(part, DOMAIN, None),
                PartialEngine::new(right.clone(), DOMAIN, None),
            )
        });
        let mut sptb = ShardedEngine::build(left.clone(), shards, |_, part| {
            Joined::new(
                PartialEngine::new(part, DOMAIN, Some(150)),
                PartialEngine::new(right.clone(), DOMAIN, None),
            )
        });
        for (i, (q, e)) in queries.iter().zip(&expected).enumerate() {
            for (name, out) in [
                ("plain", sp.join(q)),
                ("selcrack", ssc.join(q)),
                ("sideways", ssw.join(q)),
                ("partial", spt.join(q)),
                ("partial+budget", sptb.join(q)),
            ] {
                assert_eq!(out.rows, e.rows, "{name} sharded x{shards} join {i} rows");
                assert_eq!(out.aggs, e.aggs, "{name} sharded x{shards} join {i} aggs");
            }
        }
    }
}

/// The shard-aware workload builder composes with the pre-partitioned
/// constructor: `random_table_shards` + `ShardedEngine::from_shards`
/// must be answer- and key-stream-identical to partitioning the
/// unsharded table through `ShardedEngine::build` — including update
/// routing through the derived cuts.
#[test]
fn prepartitioned_workload_tables_match_build() {
    let mut rng = StdRng::seed_from_u64(12);
    let whole = random_table(3, 317, DOMAIN.1, 59);
    for shards in SHARD_COUNTS {
        let parts = random_table_shards(3, 317, DOMAIN.1, 59, shards);
        let mut from_parts =
            ShardedEngine::from_shards(parts, |_, p| SidewaysEngine::new(p, DOMAIN));
        let mut built =
            ShardedEngine::build(whole.clone(), shards, |_, p| SidewaysEngine::new(p, DOMAIN));
        assert_eq!(from_parts.cuts(), built.cuts(), "derived cuts must agree");
        for step in 0..20 {
            if step % 4 == 3 {
                let row = [rng.gen_range(1..=DOMAIN.1), 77, 88];
                from_parts.insert(&row);
                built.insert(&row);
                let victim = rng.gen_range(0..300) as u32;
                from_parts.delete(victim);
                built.delete(victim);
            }
            let q = random_select(&mut rng, 3);
            let a = from_parts.select(&q);
            let b = built.select(&q);
            assert_eq!(a.rows, b.rows, "x{shards} step {step} rows");
            assert_eq!(a.aggs, b.aggs, "x{shards} step {step} aggs");
        }
    }
}

/// More shards than rows: the router must tolerate empty shards for
/// every engine.
#[test]
fn more_shards_than_rows() {
    let t = table(3, 5, 43);
    let q = SelectQuery::aggregate(
        vec![(0, RangePred::all())],
        vec![
            (1, AggFunc::Count),
            (1, AggFunc::Sum),
            (1, AggFunc::Min),
            (1, AggFunc::Max),
        ],
    );
    let expected = PlainEngine::new(t.clone()).select(&q);
    let mut outs = vec![
        ShardedEngine::build(t.clone(), 7, |_, p| PlainEngine::new(p)).select(&q),
        ShardedEngine::build(t.clone(), 7, |_, p| SelCrackEngine::new(p, DOMAIN)).select(&q),
        ShardedEngine::build(t.clone(), 7, |_, p| SidewaysEngine::new(p, DOMAIN)).select(&q),
        ShardedEngine::build(t.clone(), 7, |_, p| PartialEngine::new(p, DOMAIN, None)).select(&q),
    ];
    for out in outs.drain(..) {
        assert_eq!(out.rows, expected.rows);
        assert_eq!(out.aggs, expected.aggs);
    }
}

/// The shapes block-at-a-time reconstruction and the per-attribute
/// partials a shard answers with must get right: all five functions of
/// one attribute, an attribute aggregated twice and both aggregated and
/// projected, an aggregate on the head attribute, empty results, a
/// disjunction, no predicates, each fold shape alone (count on a
/// non-head attribute, max, sum, avg, min with max), and two predicates
/// on the head attribute, conjunctive and disjunctive.
fn contract_queries(rng: &mut StdRng) -> Vec<SelectQuery> {
    use AggFunc::{Avg, Count, Max, Min, Sum};
    let all = |a: usize| vec![(a, Count), (a, Sum), (a, Min), (a, Max), (a, Avg)];
    let lo: Val = rng.gen_range(0..600);
    let head = RangePred::open(lo, lo + rng.gen_range(100..400i64));
    let rlo: Val = rng.gen_range(0..500);
    let residual = RangePred::open(rlo, rlo + 500);
    let select = |preds: Vec<(usize, RangePred)>, disjunctive, aggs, projs| SelectQuery {
        preds,
        disjunctive,
        aggs,
        projs,
    };
    let mut five_and_one = all(2);
    five_and_one.push((3, Sum));
    vec![
        select(vec![(0, head), (1, residual)], false, five_and_one, vec![]),
        select(
            vec![(0, head)],
            false,
            vec![(2, Sum), (2, Sum), (0, Max)],
            vec![2, 3, 2],
        ),
        select(
            vec![(0, RangePred::open(5000, 6000))],
            false,
            all(1),
            vec![1],
        ),
        select(
            vec![(0, head), (1, RangePred::open(-10, 0))],
            false,
            all(2),
            vec![3],
        ),
        select(vec![(0, head), (1, residual)], true, all(2), vec![2]),
        select(vec![], false, all(1), vec![]),
        select(
            vec![(0, head), (1, residual)],
            false,
            vec![(3, Count)],
            vec![],
        ),
        select(
            vec![(0, head), (1, residual)],
            false,
            vec![(2, Max)],
            vec![],
        ),
        select(vec![(0, head)], false, vec![(3, Sum)], vec![]),
        select(vec![(1, residual)], false, vec![(2, Avg)], vec![]),
        select(
            vec![(0, head), (2, residual)],
            false,
            vec![(1, Min), (1, Max)],
            vec![],
        ),
        select(
            vec![(0, head), (0, residual)],
            false,
            vec![(2, Sum), (0, Count)],
            vec![],
        ),
        select(
            vec![(0, head), (0, residual)],
            true,
            vec![(1, Max)],
            vec![3],
        ),
    ]
}

/// One engine kind at every shard count against the unsharded scan
/// baseline, on fresh, cracked and updated (insert + delete, global
/// keys) states.
fn check_contract<E: Engine>(name: &str, t: &Table, make: impl Fn(Table) -> E) {
    for shards in SHARD_COUNTS {
        let mut plain = PlainEngine::new(t.clone());
        let mut sharded = ShardedEngine::build(t.clone(), shards, |_, part| make(part));
        let mut rng = StdRng::seed_from_u64(14);
        for round in 0..5u32 {
            if round >= 2 {
                // Global key 400 + (round - 2).
                let row = [rng.gen_range(300..600), rng.gen_range(0..1000), -7, 1 << 40];
                plain.insert(&row);
                sharded.insert(&row);
                // An original row, and the row inserted a round ago.
                let inserted = (round > 2).then(|| 400 + round - 3);
                for victim in std::iter::once(round * 97).chain(inserted) {
                    plain.delete(victim);
                    sharded.delete(victim);
                }
            }
            for (i, q) in contract_queries(&mut rng).iter().enumerate() {
                let ctx = format!("{name}, {shards} shards, round {round}, query {i}");
                assert_same(&sharded.select(q), &plain.select(q), &ctx);
            }
        }
    }
}

#[test]
fn block_contract_holds_on_every_sharded_engine() {
    let t = table(4, 400, 61);
    check_contract("plain", &t, PlainEngine::new);
    check_contract("presorted", &t, |p| PresortedEngine::new(p, &[0, 1, 2, 3]));
    check_contract("selcrack", &t, |p| SelCrackEngine::new(p, DOMAIN));
    check_contract("sideways", &t, |p| SidewaysEngine::new(p, DOMAIN));
    check_contract("partial", &t, |p| PartialEngine::new(p, DOMAIN, None));
    check_contract("partial+budget", &t, |p| {
        PartialEngine::new(p, DOMAIN, Some(120))
    });
}

/// One engine kind sharded four ways against the same engine unsharded:
/// every answer must match, on fresh, cracked and updated states alike.
/// Four shards is a count the update suites do not build.
fn check_four_shards<E: Engine>(name: &str, t: &Table, make: impl Fn(Table) -> E) {
    let mut sharded = ShardedEngine::build(t.clone(), 4, |_, p| make(p));
    let mut whole = make(t.clone());
    let mut rng = StdRng::seed_from_u64(10);
    for i in 0..15u32 {
        if i > 0 && i % 5 == 0 {
            // One insert (global key 400, then 401) and one delete: an
            // original row first, then the row inserted five queries ago.
            let row = [rng.gen_range(0..1000), rng.gen_range(0..1000), -7];
            let victim = if i == 5 { 205 } else { 400 };
            sharded.insert(&row);
            sharded.delete(victim);
            whole.insert(&row);
            whole.delete(victim);
        }
        let q = random_select(&mut rng, 3);
        let ctx = format!("{name}, query {i}");
        assert_same(&sharded.select(&q), &whole.select(&q), &ctx);
    }
}

#[test]
fn four_shards_agree_with_unsharded_under_updates() {
    let t = table(3, 400, 53);
    check_four_shards("plain", &t, PlainEngine::new);
    check_four_shards("presorted", &t, |p| PresortedEngine::new(p, &[0, 1, 2]));
    check_four_shards("selcrack", &t, |p| SelCrackEngine::new(p, DOMAIN));
    check_four_shards("sideways", &t, |p| SidewaysEngine::new(p, DOMAIN));
    check_four_shards("partial", &t, |p| PartialEngine::new(p, DOMAIN, None));
    check_four_shards("partial+budget", &t, |p| {
        PartialEngine::new(p, DOMAIN, Some(120))
    });
}
