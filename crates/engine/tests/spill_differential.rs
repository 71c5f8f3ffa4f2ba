//! Spill-tier differential testing: a partial engine over file-backed
//! (segmented) columns whose budget forces chunks through the disk spill
//! tier (serialize → evict → reload on re-access) must stay bit-for-bit
//! identical to a never-evicted engine and to the plain-scan baseline —
//! under interleaved updates (the spilled-chunk
//! cursor is the staged-update watermark), and with the
//! `usage() <= budget` invariant and the partial sets' bookkeeping
//! invariants holding after every op. Plus the fault-injection
//! regression: a corrupted spill file fails exactly the queries that
//! read it, loudly and typed, and leaves the engine fully serviceable —
//! also behind the shard router and the query service.
//! And the other side of the eviction rule: over in-memory columns the
//! tier never writes, and the engine behaves as one without a tier.

use crackdb_columnstore::column::{Column, Table};
use crackdb_columnstore::shard::{partition_table, ShardCuts};
use crackdb_columnstore::types::{AggFunc, RangePred, Val};
use crackdb_core::PartialStats;
use crackdb_engine::{
    Engine, PartialEngine, PlainEngine, QueryError, SelectQuery, Service, ServiceError,
    ShardedEngine,
};

#[path = "../../core/tests/support/segmented.rs"]
mod support;
use support::segmented;

const DOMAIN: (Val, Val) = (0, 1000);
/// Tiny on purpose: almost every query overflows it, so chunks cycle
/// through spill and reload constantly.
const TINY_BUDGET: usize = 120;

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
    let mut q = SelectQuery::aggregate(
        preds,
        vec![
            (agg_attr, AggFunc::Count),
            (agg_attr, AggFunc::Max),
            (agg_attr, AggFunc::Min),
            (agg_attr, AggFunc::Sum),
        ],
    );
    // Raw projections too: spilled-and-reloaded chunks must reproduce
    // exact value multisets, not just aggregate summaries.
    q.projs = vec![rng.next(cols as i64) as usize];
    q
}

fn sorted(mut v: Vec<Val>) -> Vec<Val> {
    v.sort_unstable();
    v
}

/// The bookkeeping invariants of every partial set of `e` (debug builds
/// only, like the check each query already runs on its way out).
fn check_sets(e: &PartialEngine, cols: usize, ctx: &str) {
    if cfg!(debug_assertions) {
        for attr in 0..cols {
            if let Some(set) = e.store().set(attr) {
                assert_eq!(set.check_invariants(), Ok(()), "{ctx}: set {attr}");
            }
        }
    }
}

/// The spill round-trip property: a seeded random query/update stream
/// answers identically on (a) the plain baseline, (b) an unbudgeted
/// in-RAM partial engine, and (c) a tiny-budget spill engine over
/// file-backed columns whose chunks round-trip through disk — including
/// un-merge (area reverts under eviction pressure) and staged update
/// replay on reloaded chunks. The budget invariant is asserted after
/// every single query.
#[test]
fn spilled_runs_match_never_evicted_bit_for_bit() {
    let table = random_table(3, 400, 2026);
    let mut plain = PlainEngine::new(table.clone());
    let mut ram = PartialEngine::new(table.clone(), DOMAIN, None);
    let mut spilled = PartialEngine::with_spill_dir(
        segmented(&table),
        DOMAIN,
        Some(TINY_BUDGET),
        std::env::temp_dir(),
    );
    assert!(spilled.store().spill_enabled());

    let mut rng = Lcg(31337);
    let mut live_keys: Vec<u32> = (0..400).collect();
    let mut next_insert = 0i64;
    for i in 0..50 {
        if i % 4 == 3 {
            let row = [rng.next(DOMAIN.1), 7_000_000 + next_insert, next_insert];
            next_insert += 1;
            plain.insert(&row);
            ram.insert(&row);
            spilled.insert(&row);
            live_keys.push(399 + next_insert as u32);
            let victim = live_keys.swap_remove(rng.next(live_keys.len() as i64) as usize);
            plain.delete(victim);
            ram.delete(victim);
            spilled.delete(victim);
            check_sets(&spilled, 3, &format!("op {i}"));
        }
        let q = random_select(&mut rng, 3);
        let expected = plain.select(&q);
        let r = ram.select(&q);
        let s = spilled
            .try_select(&q)
            .expect("a healthy spill tier never errors");
        for (name, out) in [("ram", &r), ("spilled", &s)] {
            assert_eq!(out.rows, expected.rows, "query {i}: {name} rows");
            assert_eq!(out.aggs, expected.aggs, "query {i}: {name} aggs");
            assert_eq!(
                sorted(out.proj_values[0].clone()),
                sorted(expected.proj_values[0].clone()),
                "query {i}: {name} projection"
            );
        }
        assert!(
            spilled.store().usage() <= TINY_BUDGET,
            "query {i}: usage {} exceeds budget {TINY_BUDGET}",
            spilled.store().usage()
        );
        check_sets(&spilled, 3, &format!("query {i}"));
    }
    let stats = spilled.store().stats_sum();
    assert!(
        stats.chunks_spilled > 0,
        "the tiny budget must actually spill"
    );
    assert!(
        stats.chunks_reloaded > 0,
        "re-accessed chunks must reload from disk, not recrack"
    );
}

/// Un-merge interplay, directly: updates staged while a chunk sits on
/// disk must surface when it reloads (the spilled cursor is the
/// watermark), and dropping the last sibling while others are spilled
/// must NOT revert the area under the cold chunk's feet.
#[test]
fn updates_staged_while_spilled_replay_on_reload() {
    let mut t = Table::new();
    t.add_column("a", Column::new((0..300).collect()));
    t.add_column("b", Column::new((0..300).map(|v| v * 3).collect()));
    t.add_column("c", Column::new((0..300).map(|v| v * 7).collect()));
    let mut plain = PlainEngine::new(t.clone());
    let mut e =
        PartialEngine::with_spill_dir(segmented(&t), (0, 300), Some(80), std::env::temp_dir());

    let qa = SelectQuery::aggregate(
        vec![(0, RangePred::open(10, 150))],
        vec![(1, AggFunc::Count), (1, AggFunc::Sum), (1, AggFunc::Max)],
    );
    let qb = SelectQuery::aggregate(
        vec![(0, RangePred::open(160, 290))],
        vec![(2, AggFunc::Count), (2, AggFunc::Sum)],
    );
    // Crack + fetch area A, then push it to disk by touching area B.
    assert_eq!(plain.select(&qa).aggs, e.try_select(&qa).unwrap().aggs);
    plain.select(&qb);
    e.try_select(&qb).unwrap();
    check_sets(&e, 3, "after qb");
    assert!(
        e.store().spilled_tuples() > 0,
        "the 80-tuple budget must have spilled the first area"
    );
    // Stage updates landing inside the spilled area while it is cold.
    plain.insert(&[100, 9999, 9998]);
    plain.delete(20);
    e.insert(&[100, 9999, 9998]);
    e.delete(20);
    check_sets(&e, 3, "updates staged");
    // Reload: the staged insert and delete must replay into the
    // reloaded chunk exactly as they would have merged in RAM.
    let expected = plain.select(&qa);
    let out = e.try_select(&qa).unwrap();
    assert_eq!(out.rows, expected.rows);
    assert_eq!(out.aggs, expected.aggs);
    assert_eq!(
        out.aggs[2],
        Some(9999),
        "staged insert visible after reload"
    );
    assert!(e.store().usage() <= 80, "budget holds after reload");
    check_sets(&e, 3, "after the reload");
}

/// Overwrite every spill file of `e` with junk; returns how many there
/// were.
fn corrupt_spill_files(e: &PartialEngine) -> usize {
    use std::io::Write;

    let dir = e.store().spill_dir().expect("spill enabled");
    let mut corrupted_files = 0;
    for entry in std::fs::read_dir(dir).expect("spill dir exists") {
        let path = entry.expect("dir entry").path();
        let len = std::fs::metadata(&path).expect("metadata").len() as usize;
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("open spill file");
        f.write_all(&vec![0xFF; len]).expect("overwrite");
        corrupted_files += 1;
    }
    corrupted_files
}

/// The fault-injection regression (bugfix sweep): corrupting the spill
/// files makes exactly the reads that touch them fail — as a typed
/// `QueryError::Storage`, not a panic — and the engine stays fully
/// serviceable: retries recreate the lost chunks from the base and
/// return correct answers again.
#[test]
fn corrupted_spill_file_fails_loudly_and_engine_recovers() {
    let table = random_table(3, 400, 555);
    let mut plain = PlainEngine::new(table.clone());
    let mut e = PartialEngine::with_spill_dir(
        segmented(&table),
        DOMAIN,
        Some(TINY_BUDGET),
        std::env::temp_dir(),
    );

    // Warm a few areas so several chunks are sitting in spill files.
    let mut rng = Lcg(9);
    let queries: Vec<SelectQuery> = (0..8).map(|_| random_select(&mut rng, 3)).collect();
    for q in &queries {
        e.try_select(q).expect("healthy tier");
        check_sets(&e, 3, "warm-up");
    }
    assert!(e.store().spilled_tuples() > 0, "chunks must be on disk");

    // Flip every byte of every spill file: all cold chunks are now junk.
    assert!(corrupt_spill_files(&e) > 0, "spill files exist on disk");

    // Re-running the workload must hit the corruption at least once and
    // surface it as a typed storage error — never a panic. Every failed
    // reload consumes its slot, so retries converge back to health:
    // lost chunks are recreated from the base and answers are correct.
    let mut failures = 0;
    for (i, q) in queries.iter().enumerate() {
        let expected = plain.select(q);
        let out = loop {
            match e.try_select(q) {
                Ok(out) => break out,
                Err(err @ QueryError::Storage(_)) => {
                    failures += 1;
                    assert!(
                        err.to_string().contains("storage error"),
                        "typed error formats its tier context: {err}"
                    );
                    assert!(failures < 100, "failed reloads must converge");
                }
            }
            check_sets(&e, 3, &format!("faulty query {i}"));
        };
        assert_eq!(out.rows, expected.rows, "query {i} recovers rows");
        assert_eq!(out.aggs, expected.aggs, "query {i} recovers aggs");
        assert!(
            e.store().usage() <= TINY_BUDGET,
            "budget holds through faults"
        );
    }
    assert!(
        failures > 0,
        "at least one query must have read a corrupted record loudly"
    );

    // And the tier keeps working after the faults: new evictions write
    // fresh records that reload fine.
    for q in &queries {
        let expected = plain.select(q);
        let out = e.try_select(q).expect("tier healthy again");
        assert_eq!(out.aggs, expected.aggs);
        check_sets(&e, 3, "healthy again");
    }
}

/// The same corruption behind the layers above the engine: two
/// file-backed spill shards, queried once through `ShardedEngine` and
/// once through a `Service` client. Each storage failure must come back
/// typed — `QueryError::Storage` from the router, `ServiceError::Storage`
/// from the service — never as a panic or a lost worker, and retries
/// must converge to the plain engine's answers.
#[test]
fn corrupted_spill_file_fails_typed_through_shards_and_service() {
    let table = random_table(3, 400, 555);
    let mut plain = PlainEngine::new(table.clone());
    let mut rng = Lcg(9);
    let queries: Vec<SelectQuery> = (0..8).map(|_| random_select(&mut rng, 3)).collect();
    // Two segmented shards with spill tiers, warmed until chunks sit on
    // disk, then every spill file corrupted.
    let corrupted_shards = || {
        let parts = partition_table(&table, &ShardCuts::even(table.num_rows(), 2));
        let mut e = ShardedEngine::from_shards(parts.iter().map(segmented).collect(), |_, t| {
            PartialEngine::with_spill_dir(t, DOMAIN, Some(TINY_BUDGET), std::env::temp_dir())
        });
        for q in &queries {
            e.try_select(q).expect("healthy tier");
        }
        let files: usize = e.shards().iter().map(corrupt_spill_files).sum();
        assert!(files > 0, "spill files exist on disk");
        e
    };

    let mut sharded = corrupted_shards();
    let mut failures = 0;
    for (i, q) in queries.iter().enumerate() {
        let expected = plain.select(q);
        let out = loop {
            match sharded.try_select(q) {
                Ok(out) => break out,
                Err(QueryError::Storage(_)) => failures += 1,
            }
            assert!(failures < 100, "failed reloads must converge");
        };
        assert_eq!(out.rows, expected.rows, "sharded query {i} recovers rows");
        assert_eq!(out.aggs, expected.aggs, "sharded query {i} recovers aggs");
    }
    assert!(
        failures > 0,
        "a sharded query must have read a corrupted record"
    );

    let service = Service::start(corrupted_shards()).expect("service starts");
    let client = service.client();
    let mut failures = 0;
    for (i, q) in queries.iter().enumerate() {
        let expected = plain.select(q);
        let out = loop {
            match client.select(q) {
                Ok(reply) => break reply.output,
                Err(ServiceError::Storage(msg)) => {
                    assert!(msg.contains("storage error"), "typed error: {msg}");
                    failures += 1;
                }
                Err(other) => panic!("served query {i}: {other}"),
            }
            assert!(failures < 100, "failed reloads must converge");
        };
        assert_eq!(out.rows, expected.rows, "served query {i} recovers rows");
        assert_eq!(out.aggs, expected.aggs, "served query {i} recovers aggs");
    }
    assert!(
        failures > 0,
        "a served query must have read a corrupted record"
    );
    service.shutdown();
}

/// Every counter of a stats block except the timers.
fn counts(s: &PartialStats) -> [u64; 12] {
    [
        s.chunks_created,
        s.chunks_dropped,
        s.tuples_fetched,
        s.entries_replayed,
        s.query_cracks,
        s.chunk_map_cracks,
        s.heads_dropped,
        s.heads_recovered,
        s.updates_merged,
        s.chunks_spilled,
        s.chunks_reloaded,
        s.tuples_reloaded,
    ]
}

/// The eviction rule's other side: over in-memory columns a rebuild is a
/// regather from RAM, so an engine with a spill tier drops its evicted
/// chunks exactly like one without. Under one stream of selects, inserts,
/// deletes and a tiny budget, both answer identically and count
/// identically (timers aside) after every op, and the spill directory
/// never receives a record.
#[test]
fn resident_base_never_spills() {
    let table = random_table(3, 400, 4242);
    let mut plain = PlainEngine::new(table.clone());
    let mut dropping = PartialEngine::new(table.clone(), DOMAIN, Some(TINY_BUDGET));
    let mut tiered =
        PartialEngine::with_spill_dir(table, DOMAIN, Some(TINY_BUDGET), std::env::temp_dir());
    assert!(tiered.store().spill_enabled());

    let mut rng = Lcg(777);
    let mut live_keys: Vec<u32> = (0..400).collect();
    let mut next_key = 400;
    for i in 0..90 {
        match i % 6 {
            2 => {
                let row = [rng.next(DOMAIN.1), rng.next(DOMAIN.1), rng.next(DOMAIN.1)];
                plain.insert(&row);
                live_keys.push(next_key);
                next_key += 1;
                dropping.insert(&row);
                tiered.insert(&row);
            }
            5 => {
                let victim = live_keys.swap_remove(rng.next(live_keys.len() as i64) as usize);
                plain.delete(victim);
                dropping.delete(victim);
                tiered.delete(victim);
            }
            _ => {
                let q = random_select(&mut rng, 3);
                let expected = plain.select(&q);
                let d = dropping.try_select(&q).expect("no disk tier in use");
                let t = tiered.try_select(&q).expect("no disk tier in use");
                for (name, out) in [("dropping", &d), ("tiered", &t)] {
                    assert_eq!(out.rows, expected.rows, "op {i}: {name} rows");
                    assert_eq!(out.aggs, expected.aggs, "op {i}: {name} aggs");
                    assert_eq!(
                        sorted(out.proj_values[0].clone()),
                        sorted(expected.proj_values[0].clone()),
                        "op {i}: {name} projection"
                    );
                }
            }
        }
        let (ds, ts) = (dropping.store().stats_sum(), tiered.store().stats_sum());
        assert_eq!(counts(&ts), counts(&ds), "op {i}: counters");
        check_sets(&tiered, 3, &format!("op {i}"));
    }
    let stats = tiered.store().stats_sum();
    assert!(stats.chunks_dropped > 0, "the tiny budget must evict");
    assert_eq!(stats.chunks_spilled, 0);
    assert_eq!(tiered.store().spilled_tuples(), 0);
    let dir = tiered.store().spill_dir().expect("spill enabled");
    let records = std::fs::read_dir(dir).map_or(0, |d| d.count());
    assert_eq!(records, 0, "no spill file under {}", dir.display());
}
