//! Update-path differential testing: the §5 insert/delete machinery
//! (ripple updates, pending-queues, tombstones, staged chunk-wise
//! merges, sorted-copy maintenance) exercised through `cargo test`
//! rather than only the exp6 benchmark binary.
//!
//! All five engines — plain, presorted, selection cracking, sideways
//! cracking and partial sideways cracking (with and without a storage
//! budget) — unsharded *and* behind `ShardedEngine` at shard counts 1,
//! 2 and 7 — receive the same interleaved insert/delete/select stream
//! and must agree with the plain baseline query by query. Partial
//! sideways cracking follows §3.5 chunk-wise (stage globally, merge on
//! access); the presorted baseline maintains its sorted copies the
//! expensive way the paper ascribes to it.
//!
//! A middle group pins down how sideways cracking finds deleted tuples:
//! by value on the first map that crosses a delete batch, and through
//! the key map only when twins make that ambiguous.
//!
//! The last group runs a `svc_mixed`-shaped stream whose reads first
//! crack every map into thousands of pieces, so each merged update
//! ripples across thousands of boundaries (and empty pieces).

use crackdb_columnstore::column::{Column, Table};
use crackdb_columnstore::types::{AggFunc, RangePred, RowId, Val};
use crackdb_engine::{
    Engine, PartialEngine, PlainEngine, PresortedEngine, QueryOutput, SelCrackEngine, SelectQuery,
    Service, ShardedEngine, SidewaysEngine,
};
use crackdb_rng::{rngs::StdRng, Rng, SeedableRng};
use crackdb_workloads::{random_table, RangeGen};
use std::collections::HashSet;

const DOMAIN: (Val, Val) = (0, 1000);
const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

/// One step of the interleaved workload.
enum Op {
    Insert(Vec<Val>),
    Delete(RowId),
    Select(SelectQuery),
}

/// Build a deterministic interleaved stream: inserts of fresh rows,
/// deletes of both original and previously inserted rows (always live
/// ones), and selects with aggregates and projections.
fn workload(cols: usize, initial_rows: usize, steps: usize, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(steps);
    let mut live: Vec<RowId> = (0..initial_rows as RowId).collect();
    let mut next_key = initial_rows as RowId;
    for i in 0..steps {
        match i % 4 {
            0 => {
                let row: Vec<Val> = (0..cols).map(|_| rng.gen_range(1..=DOMAIN.1)).collect();
                ops.push(Op::Insert(row));
                live.push(next_key);
                next_key += 1;
            }
            1 if live.len() > 1 => {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                ops.push(Op::Delete(victim));
            }
            _ => {
                let attr = rng.gen_range(0..cols);
                let lo = rng.gen_range(0..DOMAIN.1 - 2);
                let hi = lo + 1 + rng.gen_range(1..=DOMAIN.1 - lo);
                let agg = rng.gen_range(0..cols);
                let mut q = SelectQuery::aggregate(
                    vec![(attr, RangePred::open(lo, hi))],
                    vec![
                        (agg, AggFunc::Count),
                        (agg, AggFunc::Sum),
                        (agg, AggFunc::Min),
                        (agg, AggFunc::Max),
                        (agg, AggFunc::Avg),
                    ],
                );
                if i % 8 == 6 {
                    q.projs = vec![rng.gen_range(0..cols)];
                }
                ops.push(Op::Select(q));
            }
        }
    }
    ops
}

/// Replay `ops` on `engine`, returning the outputs of the select steps.
fn replay<E: Engine>(engine: &mut E, ops: &[Op]) -> Vec<QueryOutput> {
    let mut outs = Vec::new();
    for op in ops {
        match op {
            Op::Insert(row) => engine.insert(row),
            Op::Delete(key) => engine.delete(*key),
            Op::Select(q) => outs.push(engine.select(q)),
        }
    }
    outs
}

fn assert_same(outs: &[QueryOutput], expected: &[QueryOutput], ctx: &str) {
    assert_eq!(outs.len(), expected.len(), "{ctx}: select count");
    for (i, (o, e)) in outs.iter().zip(expected).enumerate() {
        assert_eq!(o.rows, e.rows, "{ctx}: select {i} rows");
        assert_eq!(o.aggs, e.aggs, "{ctx}: select {i} aggs");
        for (j, (got, want)) in o.proj_values.iter().zip(&e.proj_values).enumerate() {
            let mut got = got.clone();
            let mut want = want.clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{ctx}: select {i} projection {j}");
        }
    }
}

/// The expected outputs come from the plain baseline, whose update path
/// (append + tombstones) is trivially correct.
fn expected_for(t: &Table, ops: &[Op]) -> Vec<QueryOutput> {
    replay(&mut PlainEngine::new(t.clone()), ops)
}

#[test]
fn unsharded_engines_agree_under_interleaved_updates() {
    let t = random_table(3, 311, DOMAIN.1, 61);
    let ops = workload(3, 311, 120, 62);
    let expected = expected_for(&t, &ops);
    assert_same(
        &replay(&mut SelCrackEngine::new(t.clone(), DOMAIN), &ops),
        &expected,
        "selcrack",
    );
    assert_same(
        &replay(&mut SidewaysEngine::new(t.clone(), DOMAIN), &ops),
        &expected,
        "sideways",
    );
    assert_same(
        &replay(&mut PresortedEngine::new(t.clone(), &[0, 1, 2]), &ops),
        &expected,
        "presorted",
    );
    assert_same(
        &replay(&mut PartialEngine::new(t.clone(), DOMAIN, None), &ops),
        &expected,
        "partial",
    );
}

/// [`workload`]'s stream with every select turned into a two-predicate
/// conjunction that projects a third attribute: every area a read
/// touches checks out three chunks, so a tight budget drops some of
/// them while their siblings stay.
fn conjunctive(ops: &[Op]) -> Vec<Op> {
    ops.iter()
        .map(|op| match op {
            Op::Insert(row) => Op::Insert(row.clone()),
            Op::Delete(key) => Op::Delete(*key),
            Op::Select(q) => {
                let mut q = q.clone();
                let attr = q.preds[0].0;
                q.preds
                    .push(((attr + 1) % 3, RangePred::open(DOMAIN.1 / 8, DOMAIN.1)));
                q.projs = vec![(attr + 2) % 3];
                Op::Select(q)
            }
        })
        .collect()
}

/// §3.5 under §4 storage pressure: the partial engine must stay
/// bit-identical to the baseline while evicting chunks, its usage must
/// respect the budget exactly after every query, and every partial
/// set's bookkeeping must hold after every op, updates included. The
/// conjunctive stream runs under a budget below one area's three
/// chunks, so areas revert and their merged updates are staged again.
#[test]
fn partial_with_budget_agrees_and_respects_budget_under_updates() {
    let t = random_table(3, 311, DOMAIN.1, 61);
    let ops = workload(3, 311, 120, 62);
    let conj = conjunctive(&ops);
    for (name, ops, budget) in [("", &ops, 150), ("", &ops, 400), (" conj", &conj, 120)] {
        let expected = expected_for(&t, ops);
        let mut e = PartialEngine::new(t.clone(), DOMAIN, Some(budget));
        let mut outs = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Insert(row) => e.insert(row),
                Op::Delete(key) => e.delete(*key),
                Op::Select(q) => {
                    outs.push(e.select(q));
                    assert!(
                        e.store().usage() <= budget,
                        "usage {} exceeds budget {budget} post-query",
                        e.store().usage()
                    );
                }
            }
            for attr in 0..3 {
                if let Some(set) = e.store().set(attr) {
                    assert_eq!(set.check_invariants(), Ok(()), "op {i}: set {attr}");
                }
            }
        }
        assert_same(&outs, &expected, &format!("partial{name} budget={budget}"));
    }
}

#[test]
fn sharded_plain_agrees_under_interleaved_updates() {
    let t = random_table(3, 307, DOMAIN.1, 63);
    let ops = workload(3, 307, 120, 64);
    let expected = expected_for(&t, &ops);
    for shards in SHARD_COUNTS {
        let mut e = ShardedEngine::build(t.clone(), shards, |_, p| PlainEngine::new(p));
        assert_same(
            &replay(&mut e, &ops),
            &expected,
            &format!("plain x{shards}"),
        );
    }
}

#[test]
fn sharded_selcrack_agrees_under_interleaved_updates() {
    let t = random_table(3, 305, DOMAIN.1, 65);
    let ops = workload(3, 305, 120, 66);
    let expected = expected_for(&t, &ops);
    for shards in SHARD_COUNTS {
        let mut e = ShardedEngine::build(t.clone(), shards, |_, p| SelCrackEngine::new(p, DOMAIN));
        assert_same(
            &replay(&mut e, &ops),
            &expected,
            &format!("selcrack x{shards}"),
        );
    }
}

#[test]
fn sharded_sideways_agrees_under_interleaved_updates() {
    let t = random_table(3, 303, DOMAIN.1, 67);
    let ops = workload(3, 303, 120, 68);
    let expected = expected_for(&t, &ops);
    for shards in SHARD_COUNTS {
        let mut e = ShardedEngine::build(t.clone(), shards, |_, p| SidewaysEngine::new(p, DOMAIN));
        assert_same(
            &replay(&mut e, &ops),
            &expected,
            &format!("sideways x{shards}"),
        );
    }
}

#[test]
fn sharded_partial_agrees_under_interleaved_updates() {
    let t = random_table(3, 309, DOMAIN.1, 69);
    let ops = workload(3, 309, 120, 70);
    let expected = expected_for(&t, &ops);
    for shards in SHARD_COUNTS {
        for budget in [None, Some(200)] {
            let mut e = ShardedEngine::build(t.clone(), shards, |_, p| {
                PartialEngine::new(p, DOMAIN, budget)
            });
            assert_same(
                &replay(&mut e, &ops),
                &expected,
                &format!("partial x{shards} budget={budget:?}"),
            );
        }
    }
}

#[test]
fn sharded_presorted_agrees_under_interleaved_updates() {
    let t = random_table(3, 301, DOMAIN.1, 73);
    let ops = workload(3, 301, 120, 74);
    let expected = expected_for(&t, &ops);
    for shards in SHARD_COUNTS {
        let mut e = ShardedEngine::build(t.clone(), shards, |_, p| {
            PresortedEngine::new(p, &[0, 1, 2])
        });
        assert_same(
            &replay(&mut e, &ops),
            &expected,
            &format!("presorted x{shards}"),
        );
    }
}

/// The exp6 shape: a burst of updates between query batches (the paper
/// interleaves X updates per 10 queries), at a heavier volume than the
/// mixed stream above — deletes target original and inserted rows alike.
#[test]
fn update_bursts_between_query_batches() {
    let cols = 3;
    let n0 = 400;
    let t = random_table(cols, n0, DOMAIN.1, 71);
    let mut rng = StdRng::seed_from_u64(72);
    let mut ops: Vec<Op> = Vec::new();
    let mut live: Vec<RowId> = (0..n0 as RowId).collect();
    let mut next_key = n0 as RowId;
    for batch in 0..6 {
        // Burst of 20 inserts + 20 deletes.
        for _ in 0..20 {
            let row: Vec<Val> = (0..cols).map(|_| rng.gen_range(1..=DOMAIN.1)).collect();
            ops.push(Op::Insert(row));
            live.push(next_key);
            next_key += 1;
        }
        for _ in 0..20 {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            ops.push(Op::Delete(victim));
        }
        // Batch of 10 queries.
        for q in 0..10 {
            let lo = rng.gen_range(0..DOMAIN.1 / 2);
            ops.push(Op::Select(SelectQuery::aggregate(
                vec![(q % cols, RangePred::open(lo, lo + 100 + 50 * batch))],
                vec![
                    (0, AggFunc::Count),
                    (1, AggFunc::Sum),
                    (2, AggFunc::Max),
                    (2, AggFunc::Avg),
                ],
            )));
        }
    }
    let expected = expected_for(&t, &ops);
    assert_same(
        &replay(&mut SelCrackEngine::new(t.clone(), DOMAIN), &ops),
        &expected,
        "selcrack bursts",
    );
    assert_same(
        &replay(&mut SidewaysEngine::new(t.clone(), DOMAIN), &ops),
        &expected,
        "sideways bursts",
    );
    assert_same(
        &replay(&mut PresortedEngine::new(t.clone(), &[0, 1, 2]), &ops),
        &expected,
        "presorted bursts",
    );
    assert_same(
        &replay(&mut PartialEngine::new(t.clone(), DOMAIN, None), &ops),
        &expected,
        "partial bursts",
    );
    assert_same(
        &replay(&mut PartialEngine::new(t.clone(), DOMAIN, Some(250)), &ops),
        &expected,
        "partial bursts (budget)",
    );
    for shards in SHARD_COUNTS {
        let mut e = ShardedEngine::build(t.clone(), shards, |_, p| SidewaysEngine::new(p, DOMAIN));
        assert_same(
            &replay(&mut e, &ops),
            &expected,
            &format!("sideways bursts x{shards}"),
        );
        let mut e = ShardedEngine::build(t.clone(), shards, |_, p| {
            PartialEngine::new(p, DOMAIN, None)
        });
        assert_same(
            &replay(&mut e, &ops),
            &expected,
            &format!("partial bursts x{shards}"),
        );
    }
}

// ---------------------------------------------------------------------
// Delete resolution: by value, or through the key map
// ---------------------------------------------------------------------

/// Row `key` of the twin stream: attributes 0 and 1 come from `1..=3`,
/// so every row has many twins on (A, B); attributes 2 and 3 are
/// distinct for every key, so a map with one of them as its tail tells
/// the twins apart.
fn twin_row(rng: &mut StdRng, key: RowId) -> Vec<Val> {
    let (a, b) = (rng.gen_range(1..=3), rng.gen_range(1..=3));
    vec![a, b, key as Val * 10 + 2, key as Val * 10 + 3]
}

/// A read on attribute 0 whose first map is `M_AB` (`b_first`), which
/// must hand twins to the key map, or `M_AC`, which never needs it.
fn twin_read(rng: &mut StdRng, b_first: bool) -> SelectQuery {
    let lo = rng.gen_range(1..=3);
    let pred = RangePred::closed(lo, rng.gen_range(lo..=3));
    let aggs = if b_first {
        vec![(1, AggFunc::Sum), (1, AggFunc::Count)]
    } else {
        vec![(2, AggFunc::Sum), (3, AggFunc::Max), (2, AggFunc::Count)]
    };
    SelectQuery::aggregate(vec![(0, pred)], aggs)
}

/// Twins on (A, B) that differ on C and D. Attribute 0's map set must
/// build its key map exactly when a batch merged by `M_AB` names a tuple
/// with a live twin there, and answers must match the plain engine
/// after every op. The first half reads only through `M_AC`, so value
/// resolution carries it; the second half mixes in `M_AB` reads.
#[test]
fn twins_resolve_through_the_key_map_and_only_they_do() {
    let n0 = 240;
    let mut rng = StdRng::seed_from_u64(81);
    let mut rows: Vec<Vec<Val>> = (0..n0).map(|k| twin_row(&mut rng, k)).collect();
    let mut t = Table::new();
    for a in 0..4 {
        t.add_column(
            format!("A{a}"),
            Column::new(rows.iter().map(|r| r[a]).collect()),
        );
    }
    let mut plain = PlainEngine::new(t.clone());
    let mut e = SidewaysEngine::new(t, (0, 3));
    let mut live: HashSet<RowId> = (0..n0).collect();
    // Deletes staged into attribute 0's set and not merged yet.
    let mut pending: Vec<RowId> = Vec::new();
    let (mut value_batches, mut key_map_expected) = (0, false);
    for i in 0..400 {
        match rng.gen_range(0..4) {
            0 => {
                let row = twin_row(&mut rng, rows.len() as RowId);
                plain.insert(&row);
                e.insert(&row);
                live.insert(rows.len() as RowId);
                rows.push(row);
            }
            1 => {
                let mut keys: Vec<RowId> = live.iter().copied().collect();
                keys.sort_unstable();
                let key = keys[rng.gen_range(0..keys.len())];
                plain.delete(key);
                e.delete(key);
                live.remove(&key);
                if e.store().set(0).is_some() {
                    pending.push(key);
                }
            }
            _ => {
                let b_first = i >= 200 && rng.gen_range(0..2) == 0;
                let q = twin_read(&mut rng, b_first);
                let pred = q.preds[0].1;
                let batch: Vec<RowId> = pending
                    .iter()
                    .copied()
                    .filter(|&k| pred.matches(rows[k as usize][0]))
                    .collect();
                pending.retain(|k| !batch.contains(k));
                // Live tuples equal to `k` on (A, B) before the batch.
                let twins = |k: RowId| {
                    let ab = &rows[k as usize][..2];
                    let same = |r: &&RowId| &rows[**r as usize][..2] == ab;
                    live.iter().chain(&batch).filter(same).count()
                };
                if !batch.is_empty() {
                    if b_first {
                        key_map_expected |= batch.iter().any(|&k| twins(k) > 1);
                    } else if !key_map_expected {
                        value_batches += 1;
                    }
                }
                assert_same(&[e.select(&q)], &[plain.select(&q)], &format!("op {i}"));
            }
        }
        if let Some(set) = e.store().set(0) {
            assert_eq!(set.check_aligned(), Ok(()), "op {i}");
            assert_eq!(set.key_map().is_some(), key_map_expected, "op {i}");
        }
    }
    assert!(value_batches > 0, "batches resolved by value first");
    assert!(key_map_expected, "some twin reached the key map");
}

/// Every attribute value distinct, in a `svc_mixed`-shaped stream of
/// aggregate reads, inserts and deletes: every delete batch resolves by
/// value, so no map set of any shard builds a key map.
#[test]
fn unique_values_never_build_a_key_map() {
    const P: Val = 10_007;
    const N: usize = 3_000;
    // Distinct per attribute while keys stay below `P`.
    let value = |key: usize, a: usize| (key as Val * [1, 7_919, 104_729, 31][a] + a as Val) % P;
    let mut t = Table::new();
    for a in 0..4 {
        t.add_column(
            format!("A{a}"),
            Column::new((0..N).map(|k| value(k, a)).collect()),
        );
    }
    let mut sel = RangeGen::with_selectivity(P, 0.01, 95);
    let mut res = RangeGen::with_selectivity(P, 0.5, 96);
    let mut rng = StdRng::seed_from_u64(97);
    let mut ops: Vec<Op> = (0..200).map(|_| svc_read(&mut sel, &mut res)).collect();
    let mut live: Vec<RowId> = (0..N as RowId).collect();
    let mut next_key = N;
    for _ in 0..1_000 {
        match rng.gen_range(0..100) {
            0..=89 => ops.push(svc_read(&mut sel, &mut res)),
            90..=94 => {
                ops.push(Op::Insert((0..4).map(|a| value(next_key, a)).collect()));
                live.push(next_key as RowId);
                next_key += 1;
            }
            _ => ops.push(Op::Delete(live.swap_remove(rng.gen_range(0..live.len())))),
        }
    }
    let aggs = (1..4).flat_map(|a| [(a, AggFunc::Count), (a, AggFunc::Sum)]);
    ops.push(Op::Select(SelectQuery::aggregate(
        vec![(0, RangePred::all())],
        aggs.collect(),
    )));
    let expected = expected_for(&t, &ops);
    let check = |engines: &[SidewaysEngine], ctx: &str| {
        let sets = engines
            .iter()
            .flat_map(|e| (0..4).filter_map(|a| e.store().set(a)));
        let mut batches = 0;
        for set in sets {
            assert!(
                set.key_map().is_none(),
                "{ctx}: set {} built a key map",
                set.head_attr
            );
            batches += set.tape.delete_batches.len();
        }
        assert!(batches > 0, "{ctx}: deletes were merged");
    };
    let mut e = SidewaysEngine::new(t.clone(), (0, P));
    assert_same(&replay(&mut e, &ops), &expected, "sideways");
    check(std::slice::from_ref(&e), "sideways");
    let mut e = ShardedEngine::build(t, 2, |_, p| SidewaysEngine::new(p, (0, P)));
    assert_same(&replay(&mut e, &ops), &expected, "sideways x2");
    check(e.shards(), "sideways x2");
}

// ---------------------------------------------------------------------
// Ripple across many pieces
// ---------------------------------------------------------------------

/// Value domain of the many-pieces stream: wide enough that nearly
/// every query bound is a boundary of its own.
const WIDE: (Val, Val) = (0, 1_000_000);
const WIDE_ROWS: usize = 14_000;
const WIDE_COLS: usize = 4;
/// Reads before the first update; each adds up to two boundaries to
/// every map it uses.
const WARMUP_READS: usize = 1_100;
const STREAM_OPS: usize = 600;
/// Boundaries every map must hold when the first update arrives.
const MIN_BOUNDARIES: usize = 2_000;

/// `svc_mixed`'s read: a 0.2% range on attribute 0, nine in ten of them
/// in the lowest fifth of the domain, a 50% residual on attribute 1 and
/// three aggregates.
fn svc_read(sel: &mut RangeGen, res: &mut RangeGen) -> Op {
    Op::Select(SelectQuery::aggregate(
        vec![(0, sel.next_skewed(0.9, 0.2)), (1, res.next())],
        vec![(2, AggFunc::Max), (3, AggFunc::Sum), (3, AggFunc::Count)],
    ))
}

/// `WARMUP_READS` reads, then `STREAM_OPS` ops of which 90% are reads,
/// 5% in-domain inserts and 5% deletes of live rows, then one read of
/// the whole domain, which merges every update still staged.
fn many_pieces_stream(seed: u64) -> Vec<Op> {
    let mut sel = RangeGen::with_selectivity(WIDE.1, 0.002, seed);
    let mut res = RangeGen::with_selectivity(WIDE.1, 0.5, seed + 1);
    let mut rng = StdRng::seed_from_u64(seed + 2);
    let mut ops: Vec<Op> = (0..WARMUP_READS)
        .map(|_| svc_read(&mut sel, &mut res))
        .collect();
    let mut live: Vec<RowId> = (0..WIDE_ROWS as RowId).collect();
    let mut next_key = WIDE_ROWS as RowId;
    for _ in 0..STREAM_OPS {
        match rng.gen_range(0..100) {
            0..=89 => ops.push(svc_read(&mut sel, &mut res)),
            90..=94 => {
                let row = (0..WIDE_COLS).map(|_| rng.gen_range(1..=WIDE.1)).collect();
                ops.push(Op::Insert(row));
                live.push(next_key);
                next_key += 1;
            }
            _ => ops.push(Op::Delete(live.swap_remove(rng.gen_range(0..live.len())))),
        }
    }
    let aggs =
        (1..WIDE_COLS).flat_map(|a| [(a, AggFunc::Count), (a, AggFunc::Sum), (a, AggFunc::Min)]);
    ops.push(Op::Select(SelectQuery::aggregate(
        vec![(0, RangePred::closed(WIDE.0, WIDE.1))],
        aggs.collect(),
    )));
    ops
}

/// The fewest boundaries any map of a sideways engine's attribute-0 set
/// holds.
fn min_map_boundaries(e: &SidewaysEngine) -> usize {
    let set = e
        .store()
        .set(0)
        .expect("the reads built the set of attribute 0");
    let maps = set.map_attrs().into_iter().filter_map(|a| set.map(a));
    maps.map(|m| m.arr.index().len()).min().unwrap_or(0)
}

/// Replay the warm-up reads, check every map of every sideways engine
/// `engines` exposes is cracked into thousands of pieces, then replay
/// the rest; every answer must match the plain baseline's.
fn check_many_pieces<E: Engine>(
    engine: &mut E,
    engines: impl Fn(&E) -> Vec<&SidewaysEngine>,
    ops: &[Op],
    expected: &[QueryOutput],
    ctx: &str,
) {
    let mut outs = replay(engine, &ops[..WARMUP_READS]);
    for (i, e) in engines(engine).into_iter().enumerate() {
        let b = min_map_boundaries(e);
        assert!(
            b >= MIN_BOUNDARIES,
            "{ctx}: shard {i} maps hold {b} boundaries"
        );
    }
    outs.extend(replay(engine, &ops[WARMUP_READS..]));
    assert_same(&outs, expected, ctx);
}

fn wide_table() -> Table {
    random_table(WIDE_COLS, WIDE_ROWS, WIDE.1, 91)
}

fn sideways(t: Table) -> SidewaysEngine {
    SidewaysEngine::new(t, WIDE)
}

#[test]
fn sideways_ripple_across_thousands_of_pieces() {
    let t = wide_table();
    let ops = many_pieces_stream(92);
    let expected = expected_for(&t, &ops);
    check_many_pieces(
        &mut sideways(t.clone()),
        |e| vec![e],
        &ops,
        &expected,
        "sideways",
    );
    for shards in [2, 7] {
        let mut e = ShardedEngine::build(t.clone(), shards, |_, p| sideways(p));
        check_many_pieces(
            &mut e,
            |e| e.shards().iter().collect(),
            &ops,
            &expected,
            &format!("sideways x{shards}"),
        );
    }
}

/// One client, so the service serves the stream in order.
#[test]
fn served_ripple_across_thousands_of_pieces() {
    let t = wide_table();
    let ops = many_pieces_stream(93);
    let expected = expected_for(&t, &ops);
    let svc = Service::start(ShardedEngine::build(t, 2, |_, p| sideways(p))).expect("starts");
    let client = svc.client();
    let mut outs = Vec::new();
    for op in &ops {
        match op {
            Op::Insert(row) => {
                client.insert(row).expect("insert admitted");
            }
            Op::Delete(key) => {
                client.delete(*key).expect("delete admitted");
            }
            Op::Select(q) => outs.push(client.select(q).expect("select admitted").output),
        }
    }
    drop(client);
    let engine = svc.shutdown();
    for (i, e) in engine.shards().iter().enumerate() {
        let b = min_map_boundaries(e);
        assert!(b >= MIN_BOUNDARIES, "shard {i} maps hold {b} boundaries");
    }
    assert_same(&outs, &expected, "service x2");
}

/// Partial maps under a budget that keeps evicting chunks, and the
/// cracker columns of selection cracking.
#[test]
fn partial_and_selcrack_ripple_across_thousands_of_pieces() {
    let t = wide_table();
    let ops = many_pieces_stream(94);
    let expected = expected_for(&t, &ops);
    // Small enough that some areas lose one chunk while another stays
    // resident, so later reads rebuild it on the dropped chunk's lazily
    // deleted index shell (dozens of times in this stream).
    let budget = 6_000;
    let mut e = PartialEngine::new(t.clone(), WIDE, Some(budget));
    assert_same(&replay(&mut e, &ops), &expected, "partial");
    let stats = e.store().stats_sum();
    assert!(stats.chunks_dropped > 0, "the budget evicts: {stats:?}");
    assert!(stats.updates_merged > 0, "updates were merged: {stats:?}");
    let mut e = SelCrackEngine::new(t, WIDE);
    assert_same(&replay(&mut e, &ops), &expected, "selcrack");
}
