//! Differential testing: every physical design must return identical
//! answers for identical query sequences — including under updates.

use crackdb_columnstore::column::{Column, Table};
use crackdb_columnstore::types::{AggFunc, RangePred, Val};
use crackdb_engine::{
    Engine, JoinQuery, JoinSide, Joined, PartialEngine, PlainEngine, PresortedEngine,
    SelCrackEngine, SelectQuery, SidewaysEngine,
};

const DOMAIN: (Val, Val) = (0, 1000);

struct Lcg(u64);
impl Lcg {
    fn next(&mut self, m: i64) -> i64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as i64).rem_euclid(m)
    }
}

fn random_table(cols: usize, n: usize, seed: u64) -> Table {
    let mut rng = Lcg(seed);
    let mut t = Table::new();
    for c in 0..cols {
        t.add_column(
            format!("a{c}"),
            Column::new((0..n).map(|_| rng.next(DOMAIN.1)).collect()),
        );
    }
    t
}

fn random_select(rng: &mut Lcg, cols: usize) -> SelectQuery {
    let npreds = 1 + rng.next(2) as usize;
    let mut preds = Vec::new();
    let mut used = Vec::new();
    for _ in 0..npreds {
        let attr = rng.next(cols as i64) as usize;
        if used.contains(&attr) {
            continue;
        }
        used.push(attr);
        let lo = rng.next(DOMAIN.1 - 1);
        let hi = lo + 1 + rng.next(DOMAIN.1 - lo);
        preds.push((attr, RangePred::open(lo, hi)));
    }
    let agg_attr = rng.next(cols as i64) as usize;
    SelectQuery::aggregate(preds, random_funcs(rng, agg_attr))
}

/// A random non-empty subset of the five functions on `attr`: every fold
/// shape, the count alone included.
fn random_funcs(rng: &mut Lcg, attr: usize) -> Vec<(usize, AggFunc)> {
    let funcs = 1 + rng.next(31);
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

#[test]
fn all_engines_agree_on_random_conjunctions() {
    let table = random_table(4, 500, 42);
    let mut plain = PlainEngine::new(table.clone());
    let mut presorted = PresortedEngine::new(table.clone(), &[0, 1, 2, 3]);
    let mut selcrack = SelCrackEngine::new(table.clone(), DOMAIN);
    let mut sideways = SidewaysEngine::new(table.clone(), DOMAIN);
    let mut partial = PartialEngine::new(table.clone(), DOMAIN, None);

    let mut rng = Lcg(7);
    for i in 0..40 {
        let q = random_select(&mut rng, 4);
        let expected = plain.select(&q);
        for (name, out) in [
            ("presorted", presorted.select(&q)),
            ("selcrack", selcrack.select(&q)),
            ("sideways", sideways.select(&q)),
            ("partial", partial.select(&q)),
        ] {
            assert_eq!(out.rows, expected.rows, "query {i}: {name} row count");
            assert_eq!(out.aggs, expected.aggs, "query {i}: {name} aggregates");
        }
    }
}

#[test]
fn engines_agree_under_updates() {
    let table = random_table(3, 300, 99);
    let mut plain = PlainEngine::new(table.clone());
    let mut others: Vec<(&str, Box<dyn Engine>)> = vec![
        (
            "selcrack",
            Box::new(SelCrackEngine::new(table.clone(), DOMAIN)),
        ),
        (
            "sideways",
            Box::new(SidewaysEngine::new(table.clone(), DOMAIN)),
        ),
        (
            "presorted",
            Box::new(PresortedEngine::new(table.clone(), &[0, 1, 2])),
        ),
        (
            "partial",
            Box::new(PartialEngine::new(table.clone(), DOMAIN, None)),
        ),
        (
            "partial+budget",
            Box::new(PartialEngine::new(table.clone(), DOMAIN, Some(250))),
        ),
    ];

    let mut rng = Lcg(123);
    let mut live_keys: Vec<u32> = (0..300).collect();
    let mut next_insert = 0i64;
    for i in 0..60 {
        // Interleave queries and updates.
        if i % 3 == 2 {
            let row = [
                rng.next(DOMAIN.1),
                1_000_000 + next_insert,
                2_000_000 + next_insert,
            ];
            next_insert += 1;
            plain.insert(&row);
            live_keys.push(299 + next_insert as u32);
            let victim_idx = rng.next(live_keys.len() as i64) as usize;
            let victim = live_keys.swap_remove(victim_idx);
            plain.delete(victim);
            for (_, e) in others.iter_mut() {
                e.insert(&row);
                e.delete(victim);
            }
        }
        let q = random_select(&mut rng, 3);
        let expected = plain.select(&q);
        for (name, e) in others.iter_mut() {
            let out = e.select(&q);
            assert_eq!(out.rows, expected.rows, "query {i}: {name} rows");
            assert_eq!(out.aggs, expected.aggs, "query {i}: {name} aggs");
        }
    }
}

/// A join side's conjunction: none, one or three range predicates.
/// The first is on attribute 1, the presorted engines' sort attribute
/// (the presorted baseline restricts by its first predicate).
fn random_side_preds(rng: &mut Lcg) -> Vec<(usize, RangePred)> {
    let npreds = [0, 1, 3][rng.next(3) as usize];
    [1, 0, 2][..npreds]
        .iter()
        .map(|&attr| {
            let lo = rng.next(800);
            (attr, RangePred::open(lo, lo + 300 + rng.next(400)))
        })
        .collect()
}

#[test]
fn engines_agree_on_joins() {
    let left = random_table(4, 200, 5);
    let right = random_table(4, 150, 6);
    let mut plain = Joined::new(
        PlainEngine::new(left.clone()),
        PlainEngine::new(right.clone()),
    );
    let mut presorted = Joined::new(
        PresortedEngine::new(left.clone(), &[1]),
        PresortedEngine::new(right.clone(), &[1]),
    );
    let mut selcrack = Joined::new(
        SelCrackEngine::new(left.clone(), DOMAIN),
        SelCrackEngine::new(right.clone(), DOMAIN),
    );
    let mut sideways = Joined::new(
        SidewaysEngine::new(left.clone(), DOMAIN),
        SidewaysEngine::new(right.clone(), DOMAIN),
    );
    let mut partial = Joined::new(
        PartialEngine::new(left.clone(), DOMAIN, None),
        PartialEngine::new(right.clone(), DOMAIN, None),
    );
    let mut partial_b = Joined::new(
        PartialEngine::new(left.clone(), DOMAIN, Some(200)),
        PartialEngine::new(right.clone(), DOMAIN, None),
    );

    let mut rng = Lcg(31);
    for i in 0..30 {
        let q = JoinQuery {
            left: JoinSide {
                preds: random_side_preds(&mut rng),
                join_attr: 3,
                aggs: random_funcs(&mut rng, 0),
            },
            right: JoinSide {
                preds: random_side_preds(&mut rng),
                join_attr: 3,
                aggs: random_funcs(&mut rng, 2),
            },
        };
        let expected = plain.join(&q);
        for (name, out) in [
            ("presorted", presorted.join(&q)),
            ("selcrack", selcrack.join(&q)),
            ("sideways", sideways.join(&q)),
            ("partial", partial.join(&q)),
            ("partial+budget", partial_b.join(&q)),
        ] {
            assert_eq!(out.rows, expected.rows, "join {i}: {name} rows");
            assert_eq!(out.aggs, expected.aggs, "join {i}: {name} aggs");
        }
    }
}

#[test]
fn disjunctive_agreement() {
    let table = random_table(3, 400, 77);
    let mut plain = PlainEngine::new(table.clone());
    let mut sideways = SidewaysEngine::new(table.clone(), DOMAIN);
    let mut rng = Lcg(55);
    for i in 0..20 {
        let lo1 = rng.next(900);
        let lo2 = rng.next(900);
        let q = SelectQuery {
            preds: vec![
                (0, RangePred::open(lo1, lo1 + 100)),
                (1, RangePred::open(lo2, lo2 + 100)),
            ],
            disjunctive: true,
            aggs: vec![(2, AggFunc::Count), (2, AggFunc::Sum)],
            projs: vec![],
        };
        let expected = plain.select(&q);
        let sw = sideways.select(&q);
        assert_eq!(sw.rows, expected.rows, "disj {i}: rows");
        assert_eq!(sw.aggs, expected.aggs, "disj {i}: aggs");
    }
}

/// A randomized mixed workload (conjunctions, varying predicate counts,
/// aggregates *and* raw projections) through all five engines via the
/// shared access-path executor: every `QueryOutput` must be identical up
/// to row order of projections.
#[test]
fn all_engines_agree_on_projections_via_shared_executor() {
    let table = random_table(4, 400, 17);
    let mut plain = PlainEngine::new(table.clone());
    let mut presorted = PresortedEngine::new(table.clone(), &[0, 1, 2, 3]);
    let mut selcrack = SelCrackEngine::new(table.clone(), DOMAIN);
    let mut sideways = SidewaysEngine::new(table.clone(), DOMAIN);
    let mut partial = PartialEngine::new(table.clone(), DOMAIN, None);

    let mut rng = Lcg(2024);
    for i in 0..30 {
        let mut q = random_select(&mut rng, 4);
        // Project two attributes (possibly equal) on top of the aggregates.
        let p1 = rng.next(4) as usize;
        let p2 = rng.next(4) as usize;
        q.projs = vec![p1, p2];
        let expected = plain.select(&q);
        let mut expected_projs: Vec<Vec<Val>> = expected.proj_values.clone();
        for v in &mut expected_projs {
            v.sort_unstable();
        }
        for (name, out) in [
            ("presorted", presorted.select(&q)),
            ("selcrack", selcrack.select(&q)),
            ("sideways", sideways.select(&q)),
            ("partial", partial.select(&q)),
        ] {
            assert_eq!(out.rows, expected.rows, "query {i}: {name} row count");
            assert_eq!(out.aggs, expected.aggs, "query {i}: {name} aggregates");
            assert_eq!(out.proj_values.len(), expected_projs.len());
            for (j, vals) in out.proj_values.iter().enumerate() {
                let mut vals = vals.clone();
                vals.sort_unstable();
                assert_eq!(vals, expected_projs[j], "query {i}: {name} projection {j}");
            }
        }
    }
}

/// Disjunctions through all five engines: plain scans, presorted
/// whole-copy bit vectors, selection cracking, sideways cracking, and
/// partial sideways cracking's all-areas union pass (with and without a
/// budget).
#[test]
fn disjunctive_engines_agree() {
    let table = random_table(3, 400, 88);
    let mut plain = PlainEngine::new(table.clone());
    let mut selcrack = SelCrackEngine::new(table.clone(), DOMAIN);
    let mut sideways = SidewaysEngine::new(table.clone(), DOMAIN);
    let mut presorted = PresortedEngine::new(table.clone(), &[0, 1, 2]);
    let mut partial = PartialEngine::new(table.clone(), DOMAIN, None);
    let mut partial_b = PartialEngine::new(table.clone(), DOMAIN, Some(300));
    let mut rng = Lcg(404);
    for i in 0..20 {
        let lo1 = rng.next(900);
        let lo2 = rng.next(900);
        let q = SelectQuery {
            preds: vec![
                (0, RangePred::open(lo1, lo1 + 150)),
                (1, RangePred::open(lo2, lo2 + 150)),
            ],
            disjunctive: true,
            aggs: vec![(2, AggFunc::Count), (2, AggFunc::Sum), (2, AggFunc::Min)],
            projs: vec![],
        };
        let expected = plain.select(&q);
        for (name, out) in [
            ("selcrack", selcrack.select(&q)),
            ("sideways", sideways.select(&q)),
            ("presorted", presorted.select(&q)),
            ("partial", partial.select(&q)),
            ("partial+budget", partial_b.select(&q)),
        ] {
            assert_eq!(out.rows, expected.rows, "disj {i}: {name} rows");
            assert_eq!(out.aggs, expected.aggs, "disj {i}: {name} aggs");
        }
    }
}

/// Every adaptive engine must match the plain baseline on a mixed
/// query/update stream: random queries, then two exploration patterns,
/// a sequential sweep and nested drill-down zooms.
#[test]
fn adaptive_engines_agree_under_updates_and_exploration() {
    let pattern_query = |pred: RangePred| {
        SelectQuery::aggregate(
            vec![(0, pred)],
            vec![(1, AggFunc::Count), (1, AggFunc::Max), (1, AggFunc::Sum)],
        )
    };
    let table = random_table(3, 400, 4242);
    let mut plain = PlainEngine::new(table.clone());
    let mut others: Vec<(&str, Box<dyn Engine>)> = vec![
        (
            "selcrack",
            Box::new(SelCrackEngine::new(table.clone(), DOMAIN)),
        ),
        (
            "sideways",
            Box::new(SidewaysEngine::new(table.clone(), DOMAIN)),
        ),
        (
            "partial",
            Box::new(PartialEngine::new(table.clone(), DOMAIN, None)),
        ),
        (
            "partial+budget",
            Box::new(PartialEngine::new(table.clone(), DOMAIN, Some(300))),
        ),
    ];
    let mut rng = Lcg(1717);
    let mut live_keys: Vec<u32> = (0..400).collect();
    let mut next_insert = 0i64;
    for i in 0..90 {
        if i % 4 == 3 {
            let row = [rng.next(DOMAIN.1), 5_000_000 + next_insert, next_insert];
            next_insert += 1;
            plain.insert(&row);
            live_keys.push(399 + next_insert as u32);
            let victim = live_keys.swap_remove(rng.next(live_keys.len() as i64) as usize);
            plain.delete(victim);
            for (_, e) in others.iter_mut() {
                e.insert(&row);
                e.delete(victim);
            }
        }
        let q = if i < 40 {
            let mut q = random_select(&mut rng, 3);
            q.disjunctive = i % 5 == 4 && q.preds.len() > 1;
            q
        } else if i < 70 {
            let lo = (i - 40) * 33;
            pattern_query(RangePred::open(lo, lo + 34))
        } else {
            let half = 500 - (i - 70) * 24;
            pattern_query(RangePred::open(500 - half, 500 + half))
        };
        let expected = plain.select(&q);
        for (name, e) in others.iter_mut() {
            let out = e.select(&q);
            assert_eq!(out.rows, expected.rows, "query {i}: {name} rows");
            assert_eq!(out.aggs, expected.aggs, "query {i}: {name} aggs");
        }
    }
}

#[test]
fn partial_with_budget_agrees() {
    let table = random_table(4, 400, 11);
    let mut plain = PlainEngine::new(table.clone());
    let mut partial = PartialEngine::new(table.clone(), DOMAIN, Some(300));
    let mut rng = Lcg(66);
    for i in 0..40 {
        let q = random_select(&mut rng, 4);
        let expected = plain.select(&q);
        let p = partial.select(&q);
        assert_eq!(p.rows, expected.rows, "query {i}: rows");
        assert_eq!(p.aggs, expected.aggs, "query {i}: aggs");
    }
}

/// The query shapes block-at-a-time reconstruction must get right: all
/// five functions of one attribute (one fold), an attribute aggregated
/// twice and both aggregated and projected (twice), aggregates on the
/// head attribute, empty results (no area at all, and an area whose bit
/// vector is all zero), a disjunction, no predicates, each fold shape
/// alone (count on a non-head attribute, max, sum, avg, min with max),
/// and two predicates on the head attribute, conjunctive and
/// disjunctive.
fn contract_queries(rng: &mut Lcg) -> Vec<SelectQuery> {
    use AggFunc::{Avg, Count, Max, Min, Sum};
    let all = |a: usize| vec![(a, Count), (a, Sum), (a, Min), (a, Max), (a, Avg)];
    let lo = rng.next(600);
    let head = RangePred::open(lo, lo + 100 + rng.next(300));
    let rlo = rng.next(500);
    let residual = RangePred::open(rlo, rlo + 500);
    let select = |preds: Vec<(usize, RangePred)>, disjunctive, aggs, projs| SelectQuery {
        preds,
        disjunctive,
        aggs,
        projs,
    };
    let mut five_and_one = all(2);
    five_and_one.push((3, Sum));
    let mut union_aggs = all(2);
    union_aggs.push((0, Count));
    vec![
        select(vec![(0, head), (1, residual)], false, five_and_one, vec![]),
        select(
            vec![(0, head)],
            false,
            vec![(2, Sum), (2, Sum), (3, Max)],
            vec![2, 3, 2],
        ),
        select(vec![(0, head)], false, all(0), vec![]),
        select(
            vec![(0, head), (1, residual)],
            false,
            vec![(0, Min), (1, Max)],
            vec![0],
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
        select(vec![(0, head), (1, residual)], true, union_aggs, vec![2]),
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

/// Rows, aggregates, and projections as multisets.
fn assert_same_answer(
    out: &crackdb_engine::QueryOutput,
    expected: &crackdb_engine::QueryOutput,
    ctx: &str,
) {
    assert_eq!(out.rows, expected.rows, "{ctx}: rows");
    assert_eq!(out.aggs, expected.aggs, "{ctx}: aggs");
    assert_eq!(out.proj_values.len(), expected.proj_values.len(), "{ctx}");
    for (j, (got, want)) in out
        .proj_values
        .iter()
        .zip(&expected.proj_values)
        .enumerate()
    {
        let (mut got, mut want) = (got.clone(), want.clone());
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{ctx}: projection {j}");
    }
}

/// Every engine reconstructs through blocks — aligned areas, chunk
/// areas, gathered runs — and must answer the contract shapes exactly
/// like the scan baseline, on fresh structures, on cracked ones, and
/// after inserts and deletes were staged and merged.
#[test]
fn block_contract_holds_on_every_engine_and_update_state() {
    let table = random_table(4, 600, 808);
    let mut plain = PlainEngine::new(table.clone());
    let mut others: Vec<(&str, Box<dyn Engine>)> = vec![
        (
            "presorted",
            Box::new(PresortedEngine::new(table.clone(), &[0, 1, 2, 3])),
        ),
        (
            "selcrack",
            Box::new(SelCrackEngine::new(table.clone(), DOMAIN)),
        ),
        (
            "sideways",
            Box::new(SidewaysEngine::new(table.clone(), DOMAIN)),
        ),
        (
            "partial",
            Box::new(PartialEngine::new(table.clone(), DOMAIN, None)),
        ),
        (
            "partial+budget",
            Box::new(PartialEngine::new(table.clone(), DOMAIN, Some(350))),
        ),
    ];
    let mut rng = Lcg(20);
    let mut next_key = 600u32;
    for round in 0..6 {
        if round >= 2 {
            // Two inserts (one inside most heads, one at the domain's
            // edge) and two deletes (an original row, an inserted one).
            let rows = [
                [300 + rng.next(300), rng.next(1000), -7 - round, 1 << 40],
                [999, 0, Val::from(round), -(1 << 40)],
            ];
            let victims = [rng.next(600) as u32, next_key - (round > 2) as u32];
            plain.insert(&rows[0]);
            plain.insert(&rows[1]);
            for (_, e) in others.iter_mut() {
                e.insert(&rows[0]);
                e.insert(&rows[1]);
            }
            next_key += 2;
            for v in victims {
                plain.delete(v);
                for (_, e) in others.iter_mut() {
                    e.delete(v);
                }
            }
        }
        for (i, q) in contract_queries(&mut rng).iter().enumerate() {
            let expected = plain.select(q);
            for (name, e) in others.iter_mut() {
                let ctx = format!("round {round} query {i}: {name}");
                assert_same_answer(&e.select(q), &expected, &ctx);
            }
        }
    }
}

/// One partial-map query whose blocks come from several chunk areas,
/// some of them dropped earlier and recreated from the base: narrow
/// queries first cut the chunk map into areas and push their chunks
/// through a budget of about two areas, then wide queries span all of
/// them, dropping chunks of their own earlier areas as they go.
#[test]
fn partial_blocks_come_from_several_and_reloaded_chunks() {
    let table = random_table(4, 800, 4711);
    let mut plain = PlainEngine::new(table.clone());
    let mut partial = PartialEngine::new(table, DOMAIN, Some(200));
    let all = |a: usize| {
        use AggFunc::{Avg, Count, Max, Min, Sum};
        vec![(a, Count), (a, Sum), (a, Min), (a, Max), (a, Avg)]
    };
    for lo in (0..1000).step_by(100) {
        let q = SelectQuery::aggregate(vec![(0, RangePred::half_open(lo, lo + 100))], all(2));
        let out = partial.select(&q);
        assert_same_answer(&out, &plain.select(&q), &format!("narrow {lo}"));
    }
    let wide = RangePred::open(50, 950);
    let everything = RangePred::open(-1, 1001);
    let mut aggs = all(2);
    aggs.push((0, AggFunc::Max));
    for (i, preds) in [vec![(0, wide)], vec![(0, wide), (1, everything)]]
        .into_iter()
        .enumerate()
    {
        let q = SelectQuery {
            preds,
            disjunctive: false,
            aggs: aggs.clone(),
            projs: vec![3, 2],
        };
        let before = partial.store().stats_sum();
        let out = partial.select(&q);
        let after = partial.store().stats_sum();
        assert_same_answer(&out, &plain.select(&q), &format!("wide {i}"));
        assert!(
            after.chunks_dropped > before.chunks_dropped,
            "wide {i}: the query drops chunks to stay in budget"
        );
        assert!(
            after.chunks_created >= before.chunks_created + 2,
            "wide {i}: some blocks come from several recreated chunks"
        );
    }
}
