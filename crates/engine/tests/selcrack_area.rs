//! `crackers.select` as a view: a conjunctive `SelCrackEngine` plan
//! answers from the cracked area — the cracked attribute as the area's
//! head slice, every other attribute gathered through its tail slice,
//! residual predicates as a bit vector over it — and must agree with the
//! plain scan baseline, through queued updates, and behind
//! `ShardedEngine`.
//!
//! Seeded throughout.

use crackdb_columnstore::column::Table;
use crackdb_columnstore::types::{AggFunc, Bound, RangePred, RowId, Val};
use crackdb_engine::{
    Engine, PlainEngine, QueryOutput, SelCrackEngine, SelectQuery, ShardedEngine,
};
use crackdb_rng::{rngs::StdRng, Rng, SeedableRng};
use crackdb_workloads::random_table;

const DOMAIN: (Val, Val) = (0, 1000);
const COLS: usize = 3;
const ROWS: usize = 2500;

const FOUR: [AggFunc; 4] = [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max];

fn aggs_on(attr: usize) -> Vec<(usize, AggFunc)> {
    FOUR.iter().map(|&f| (attr, f)).collect()
}

fn range(rng: &mut StdRng) -> RangePred {
    let lo = rng.gen_range(0..DOMAIN.1 - 2);
    RangePred::open(lo, lo + 2 + rng.gen_range(0..DOMAIN.1 / 3))
}

/// Rows, aggregates, and projections compared as a multiset of *rows*:
/// the engines order qualifying tuples differently, but the projected
/// columns of one answer must stay aligned with each other.
fn assert_agrees(got: &QueryOutput, want: &QueryOutput, ctx: &str) {
    assert_eq!(got.rows, want.rows, "{ctx}: rows");
    assert_eq!(got.aggs, want.aggs, "{ctx}: aggs");
    let tuples = |o: &QueryOutput| {
        let n = o.proj_values.first().map_or(0, Vec::len);
        let mut rows: Vec<Vec<Val>> = (0..n)
            .map(|i| o.proj_values.iter().map(|col| col[i]).collect())
            .collect();
        rows.sort_unstable();
        rows
    };
    assert_eq!(got.proj_values.len(), want.proj_values.len(), "{ctx}");
    assert_eq!(tuples(got), tuples(want), "{ctx}: projected rows");
}

/// Run `queries` through a fresh `SelCrackEngine` and through the plain
/// baseline, comparing answer by answer.
fn check_against_plain(t: &Table, queries: &[SelectQuery]) {
    let mut plain = PlainEngine::new(t.clone());
    let mut e = SelCrackEngine::new(t.clone(), DOMAIN);
    for (i, q) in queries.iter().enumerate() {
        assert_agrees(&e.select(q), &plain.select(q), &format!("query {i} {q:?}"));
    }
}

#[test]
fn aggregates_on_the_cracked_attribute() {
    let t = random_table(COLS, ROWS, DOMAIN.1, 11);
    let mut rng = StdRng::seed_from_u64(12);
    let queries: Vec<SelectQuery> = (0..60)
        .map(|i| {
            let a = i % COLS;
            SelectQuery::aggregate(vec![(a, range(&mut rng))], aggs_on(a))
        })
        .collect();
    check_against_plain(&t, &queries);
}

#[test]
fn cracked_and_other_attributes_in_one_query() {
    let t = random_table(COLS, ROWS, DOMAIN.1, 13);
    let mut rng = StdRng::seed_from_u64(14);
    let queries: Vec<SelectQuery> = (0..60)
        .map(|i| {
            let (a, b) = (i % COLS, (i + 1) % COLS);
            let mut aggs = aggs_on(b);
            aggs.extend(aggs_on(a));
            aggs.push((b, AggFunc::Avg));
            SelectQuery::aggregate(vec![(a, range(&mut rng))], aggs)
        })
        .collect();
    check_against_plain(&t, &queries);
}

#[test]
fn projections_stay_row_aligned() {
    let t = random_table(COLS, ROWS, DOMAIN.1, 15);
    let mut rng = StdRng::seed_from_u64(16);
    let queries: Vec<SelectQuery> = (0..45)
        .map(|i| {
            let (a, b) = (i % COLS, (i + 2) % COLS);
            let mut q = SelectQuery::project(
                vec![(a, range(&mut rng))],
                if i % 2 == 0 { vec![a] } else { vec![b, a] },
            );
            // Aggregated *and* projected: the attribute streams once.
            if i % 3 == 0 {
                q.aggs = vec![(a, AggFunc::Sum), (b, AggFunc::Max)];
            }
            q
        })
        .collect();
    check_against_plain(&t, &queries);
}

#[test]
fn conjunctions_with_residual_predicates() {
    let t = random_table(COLS, ROWS, DOMAIN.1, 17);
    let mut rng = StdRng::seed_from_u64(18);
    let queries: Vec<SelectQuery> = (0..60)
        .map(|i| {
            let (a, b, c) = (i % COLS, (i + 1) % COLS, (i + 2) % COLS);
            let mut preds = vec![(a, range(&mut rng)), (b, range(&mut rng))];
            match i % 4 {
                1 => preds.push((c, range(&mut rng))),
                // A residual on the cracked attribute itself.
                2 => preds.push((a, range(&mut rng))),
                _ => {}
            }
            let mut q = SelectQuery::aggregate(preds, aggs_on(a));
            q.aggs.extend(aggs_on(c));
            if i % 3 == 0 {
                q.projs = vec![a, c];
            }
            q
        })
        .collect();
    check_against_plain(&t, &queries);
}

#[test]
fn whole_empty_and_point_ranges() {
    let t = random_table(COLS, ROWS, DOMAIN.1, 21);
    let mut queries = Vec::new();
    for pred in [
        RangePred::all(),
        RangePred::open(5, 6),
        RangePred::open(700, 100),
        RangePred::open(DOMAIN.1, DOMAIN.1 + 50),
        RangePred::point(1),
        RangePred::point(417),
        RangePred::point(DOMAIN.1),
        RangePred::point(-3),
        RangePred::all(),
    ] {
        for a in 0..COLS {
            let b = (a + 1) % COLS;
            let mut q = SelectQuery::aggregate(vec![(a, pred)], aggs_on(a));
            q.aggs.extend(aggs_on(b));
            queries.push(q.clone());
            q.projs = vec![a, b];
            queries.push(q.clone());
            q.preds.push((b, RangePred::open(100, 900)));
            queries.push(q);
            queries.push(SelectQuery::aggregate(vec![(a, pred)], vec![]));
        }
    }
    check_against_plain(&t, &queries);
}

enum Op {
    Insert(Vec<Val>),
    Delete(RowId),
    Select(SelectQuery),
}

/// A conjunctive query of one of the shapes above, or an unrestricted one.
fn conjunction(i: usize, rng: &mut StdRng) -> SelectQuery {
    let (a, b) = (i % COLS, (i + 1) % COLS);
    let mut q = SelectQuery::aggregate(vec![(a, range(rng))], aggs_on(a));
    q.aggs.extend(aggs_on(b));
    if i.is_multiple_of(4) {
        q.preds.push((b, range(rng)));
    }
    if i.is_multiple_of(7) {
        q.projs = vec![a, b];
    }
    // No predicate at all: the whole of attribute 0's cracker column.
    if i.is_multiple_of(11) {
        q.preds.clear();
    }
    q
}

/// `a < x or a > y`, sometimes with a third predicate on another
/// attribute.
fn same_attribute_disjunction(i: usize, rng: &mut StdRng) -> SelectQuery {
    let (a, b) = (i % COLS, (i + 1) % COLS);
    let x = rng.gen_range(1..DOMAIN.1 / 2);
    let y = x + rng.gen_range(0..DOMAIN.1 / 2);
    let mut preds = vec![
        (a, RangePred::less(Bound::exclusive(x))),
        (a, RangePred::greater(Bound::exclusive(y))),
    ];
    if i % 3 == 1 {
        preds.push((b, range(rng)));
    }
    SelectQuery {
        preds,
        disjunctive: true,
        aggs: aggs_on(a).into_iter().chain(aggs_on(b)).collect(),
        projs: if i.is_multiple_of(2) {
            vec![a, b]
        } else {
            vec![]
        },
    }
}

/// Inserts, deletes of live rows, and selects from `query`, interleaved.
fn update_stream(steps: usize, seed: u64, query: fn(usize, &mut StdRng) -> SelectQuery) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<RowId> = (0..ROWS as RowId).collect();
    (0..steps)
        .map(|i| match i % 5 {
            0 => {
                live.push((ROWS + i / 5) as RowId);
                Op::Insert((0..COLS).map(|_| rng.gen_range(1..=DOMAIN.1)).collect())
            }
            1 => Op::Delete(live.swap_remove(rng.gen_range(0..live.len()))),
            _ => Op::Select(query(i, &mut rng)),
        })
        .collect()
}

fn replay<E: Engine>(e: &mut E, ops: &[Op]) -> Vec<QueryOutput> {
    let mut outs = Vec::new();
    for op in ops {
        match op {
            Op::Insert(row) => e.insert(row),
            Op::Delete(key) => e.delete(*key),
            Op::Select(q) => outs.push(e.select(q)),
        }
    }
    outs
}

fn assert_all_agree(got: &[QueryOutput], want: &[QueryOutput], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_agrees(g, w, &format!("{ctx} select {i}"));
    }
}

/// Replay `ops` through a fresh `SelCrackEngine` and through the plain
/// baseline.
fn check_stream_against_plain(t: &Table, ops: &[Op]) {
    let want = replay(&mut PlainEngine::new(t.clone()), ops);
    let mut e = SelCrackEngine::new(t.clone(), DOMAIN);
    assert_all_agree(&replay(&mut e, ops), &want, "selcrack");
}

#[test]
fn areas_show_ripple_merged_updates() {
    let t = random_table(COLS, ROWS, DOMAIN.1, 23);
    check_stream_against_plain(&t, &update_stream(400, 24, conjunction));
}

/// `a < x or a > y` selects on the same column twice within one query,
/// and the second select ripples the queued updates of its range in —
/// shifting the tuples of the first select's area. The first area must
/// not be read by position after that.
#[test]
fn disjunctions_naming_the_same_attribute_twice() {
    let t = random_table(COLS, ROWS, DOMAIN.1, 19);
    check_stream_against_plain(&t, &update_stream(300, 20, same_attribute_disjunction));
}

/// An update outside the queried range stays queued (the cracker column
/// does not grow or shrink), and the first query whose range covers it
/// sees it in the area.
#[test]
fn out_of_range_updates_stay_pending() {
    let t = random_table(1, ROWS, DOMAIN.1, 25);
    let count = |e: &mut SelCrackEngine, pred| {
        let out = e.select(&SelectQuery::aggregate(vec![(0, pred)], aggs_on(0)));
        assert_eq!(out.aggs[0], Some(out.rows as Val));
        out
    };
    let mut e = SelCrackEngine::new(t.clone(), DOMAIN);
    let low = RangePred::open(100, 300);
    let high = RangePred::closed(900, 950);
    let before_low = count(&mut e, low).rows;
    let before_high = count(&mut e, high);
    assert_eq!(e.aux_tuples(), ROWS);

    e.insert(&[925]);
    e.insert(&[200]);
    assert_eq!(count(&mut e, low).rows, before_low + 1);
    assert_eq!(e.aux_tuples(), ROWS + 1, "the 925 insert is still queued");
    let after_high = count(&mut e, high);
    assert_eq!(after_high.rows, before_high.rows + 1);
    assert_eq!(after_high.aggs[1], before_high.aggs[1].map(|s| s + 925));
    assert_eq!(e.aux_tuples(), ROWS + 2);

    // Delete the two inserted rows again: one range at a time.
    e.delete(ROWS as RowId);
    e.delete(ROWS as RowId + 1);
    assert_eq!(count(&mut e, high).aggs, before_high.aggs);
    assert_eq!(e.aux_tuples(), ROWS + 1, "the 200 delete is still queued");
    assert_eq!(count(&mut e, low).rows, before_low);
    assert_eq!(e.aux_tuples(), ROWS);
}

/// The same stream behind `ShardedEngine`: every shard answers from its
/// own areas and the merged answers must not change.
#[test]
fn sharded_selcrack_answers_from_areas() {
    let t = random_table(COLS, ROWS, DOMAIN.1, 27);
    let ops = update_stream(400, 28, |i, rng| match i % 10 {
        2 | 7 => same_attribute_disjunction(i, rng),
        _ => conjunction(i, rng),
    });
    let want = replay(&mut PlainEngine::new(t.clone()), &ops);
    for shards in [1, 2, 7] {
        let mut e = ShardedEngine::build(t.clone(), shards, |_, p| SelCrackEngine::new(p, DOMAIN));
        assert_all_agree(&replay(&mut e, &ops), &want, &format!("x{shards}"));
    }
}

/// Long areas, unfiltered and filtered by a residual: every aggregate
/// folds the blocks `fetch` hands on — the head slice for the cracked
/// attribute, gathered tail runs for the other — and agrees with the
/// plain scan baseline.
#[test]
fn long_areas_fold_through_the_block_path() {
    let rows = 60_000;
    let t = random_table(COLS, rows, DOMAIN.1, 31);
    let mut rng = StdRng::seed_from_u64(32);
    let queries: Vec<SelectQuery> = (0..12)
        .map(|i| {
            let (a, b) = (i % COLS, (i + 1) % COLS);
            let lo = rng.gen_range(0..DOMAIN.1 / 4);
            let mut q = SelectQuery::aggregate(
                vec![(a, RangePred::open(lo, lo + DOMAIN.1 / 2))],
                aggs_on(a).into_iter().chain(aggs_on(b)).collect(),
            );
            if i % 3 == 2 {
                q.preds.push((b, RangePred::open(50, 950)));
            }
            q
        })
        .collect();
    check_against_plain(&t, &queries);
}

/// A stream of deletes (of live rows and of rows already deleted),
/// inserts and queries on every attribute of a `cols`-attribute table
/// of `rows` rows, the queries in the shapes of [`conjunction`].
fn mixed_stream(cols: usize, rows: usize, steps: usize, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = rows as RowId;
    (0..steps)
        .map(|i| match rng.gen_range(0..6) {
            0 | 1 => Op::Delete(rng.gen_range(0..keys)),
            2 => {
                keys += 1;
                Op::Insert((0..cols).map(|_| rng.gen_range(1..=DOMAIN.1)).collect())
            }
            _ => {
                let (a, b) = (i % cols, (i + 1 + i / cols) % cols);
                let mut q = SelectQuery::aggregate(vec![(a, range(&mut rng))], aggs_on(b));
                if i.is_multiple_of(3) {
                    q.preds.push((b, range(&mut rng)));
                }
                if i.is_multiple_of(5) {
                    q.projs = vec![b, a];
                }
                Op::Select(q)
            }
        })
        .collect()
}

/// A delete reaches only the cracker columns that exist. A column
/// created later is seeded from the base rows minus the deleted keys,
/// so deletes before any query create no column at all.
#[test]
fn deletes_create_no_cracker_column() {
    const ATTRS: usize = 4;
    let t = random_table(ATTRS, ROWS, DOMAIN.1, 33);
    let mut e = SelCrackEngine::new(t.clone(), DOMAIN);
    let mut plain = PlainEngine::new(t.clone());
    let deleted = [0, 17, 17, 999, ROWS as RowId - 1];
    for key in deleted {
        e.delete(key);
        plain.delete(key);
    }
    assert_eq!(e.aux_tuples(), 0, "deletes created a column");

    let q = SelectQuery::aggregate(vec![(2, RangePred::open(100, 700))], aggs_on(1));
    assert_agrees(&e.select(&q), &plain.select(&q), "first query");
    assert_eq!(
        e.aux_tuples(),
        ROWS - 4,
        "only attribute 2's column, without the deleted rows"
    );

    let ops = mixed_stream(ATTRS, ROWS, 400, 34);
    let want = replay(&mut plain, &ops);
    assert_all_agree(&replay(&mut e, &ops), &want, "mixed stream");
}

/// The same at a size where a column's first query seeds it in bucket
/// order (at least 2^20 live rows), with deletes before the first query
/// on every attribute. Release builds only: `cargo test --release -p
/// crackdb-engine -- --ignored`.
#[test]
#[ignore]
fn deletes_before_first_queries_at_seeding_scale() {
    const ATTRS: usize = 3;
    let rows = (1 << 20) + 20_000;
    let domain = 1_000_000;
    let t = random_table(ATTRS, rows, domain, 35);
    let mut e = SelCrackEngine::new(t.clone(), (0, domain));
    let mut plain = PlainEngine::new(t);
    let mut rng = StdRng::seed_from_u64(36);
    for _ in 0..5_000 {
        let key = rng.gen_range(0..rows as RowId);
        e.delete(key);
        plain.delete(key);
    }
    for i in 0..30 {
        let (a, b) = (i % ATTRS, (i + 1) % ATTRS);
        let lo = rng.gen_range(0..domain);
        let pred = RangePred::open(lo, lo + rng.gen_range(2..domain / 50));
        let mut q = SelectQuery::aggregate(vec![(a, pred)], aggs_on(a));
        q.aggs.extend(aggs_on(b));
        if i % 4 == 3 {
            q.projs = vec![a, b];
        }
        assert_agrees(&e.select(&q), &plain.select(&q), &format!("query {i}"));
        let key = rng.gen_range(0..rows as RowId);
        e.delete(key);
        plain.delete(key);
    }
}
