//! Eviction-order properties of the partial-map storage manager.
//!
//! The set keeps its usage as a running count and its eviction order as
//! an index, both maintained as chunks go in and out. These tests drive
//! seeded random query and update streams at it and, after every
//! operation, hold both against what a scan over every resident chunk
//! finds — the victim search the index replaced, written out here over
//! the set's public read API.

use crackdb_columnstore::column::{Column, Table};
use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_core::partial::{retention_score, AreaId};
use crackdb_core::PartialSet;
use crackdb_rng::{rngs::StdRng, Rng, SeedableRng};

const CASES: u64 = 60;
const TAILS: usize = 4;
const DOMAIN: Val = 50;

/// The base table plus the keys deleted so far: the naive side of every
/// comparison.
struct Model {
    table: Table,
    dead: Vec<RowId>,
}

impl Model {
    fn new(rng: &mut StdRng, rows: usize) -> Self {
        let mut table = Table::new();
        for c in 0..=TAILS {
            let col = (0..rows).map(|i| match c {
                0 => rng.gen_range(0..DOMAIN),
                _ => (i * 13 + 1000 * c) as Val,
            });
            table.add_column(format!("a{c}"), Column::new(col.collect()));
        }
        Model {
            table,
            dead: Vec::new(),
        }
    }

    fn live_rows(&self) -> impl Iterator<Item = RowId> + '_ {
        (0..self.table.num_rows() as RowId).filter(|k| !self.dead.contains(k))
    }

    fn get(&self, attr: usize, key: RowId) -> Val {
        self.table.column(attr).get(key)
    }

    /// Sorted projection values of the live rows `keep` accepts.
    fn scan(&self, projs: &[usize], keep: impl Fn(RowId) -> bool) -> Vec<(usize, Vec<Val>)> {
        let rows: Vec<RowId> = self.live_rows().filter(|&k| keep(k)).collect();
        let project = |&p: &usize| {
            let mut vals: Vec<Val> = rows.iter().map(|&k| self.get(p, k)).collect();
            vals.sort_unstable();
            (p, vals)
        };
        projs.iter().map(project).collect()
    }
}

fn sorted_by_attr(projs: &[usize], got: Vec<(usize, Val)>) -> Vec<(usize, Vec<Val>)> {
    let of = |&p: &usize| {
        let mut vals: Vec<Val> = got.iter().filter(|(a, _)| *a == p).map(|x| x.1).collect();
        vals.sort_unstable();
        (p, vals)
    };
    projs.iter().map(of).collect()
}

/// The full-scan victim search: minimum `(score, attr, area)` over every
/// resident chunk that is not one of `pinned_area`'s chunks of
/// `pinned_attrs`.
fn victim_by_scan(
    set: &PartialSet,
    pinned_area: AreaId,
    pinned_attrs: &[usize],
) -> Option<(usize, AreaId)> {
    (0..=TAILS)
        .filter_map(|attr| set.map(attr).map(|m| (attr, m)))
        .flat_map(|(attr, m)| {
            m.chunks
                .iter()
                .map(move |(&area, c)| (retention_score(c.accesses, c.last_access), attr, area))
        })
        .filter(|(_, attr, area)| !(*area == pinned_area && pinned_attrs.contains(attr)))
        .min()
        .map(|(_, attr, area)| (attr, area))
}

/// After every operation: invariants hold, `usage()` equals the
/// re-summed chunk lengths, and the index names the scan's victim with
/// nothing pinned and with a random attribute subset of a resident
/// chunk's area pinned.
fn check(set: &PartialSet, rng: &mut StdRng, what: &str) {
    assert_eq!(set.check_invariants(), Ok(()), "{what}");
    let chunks: Vec<(AreaId, usize)> = (0..=TAILS)
        .filter_map(|attr| set.map(attr))
        .flat_map(|m| m.chunks.iter().map(|(&area, c)| (area, c.len())))
        .collect();
    assert_eq!(set.chunk_count(), chunks.len(), "{what}");
    let resummed: usize = chunks.iter().map(|c| c.1).sum();
    assert_eq!(set.usage(), resummed, "{what}");
    assert_eq!(
        set.next_victim(None, &[]),
        victim_by_scan(set, None, &[]),
        "{what}"
    );
    if !chunks.is_empty() {
        let area = chunks[rng.gen_range(0..chunks.len())].0;
        let pinned: Vec<usize> = (0..=TAILS).filter(|_| rng.gen_bool(0.5)).collect();
        assert_eq!(
            set.next_victim(area, &pinned),
            victim_by_scan(set, area, &pinned),
            "{what}, pinned {pinned:?} of {area:?}"
        );
    }
}

fn range(rng: &mut StdRng, attr: usize, rows: usize) -> RangePred {
    if attr == 0 {
        let lo = rng.gen_range(-2..DOMAIN);
        RangePred::open(lo, lo + 1 + rng.gen_range(1..DOMAIN / 2))
    } else {
        let span = (rows * 13) as Val;
        let lo = 1000 * attr as Val + rng.gen_range(0..span);
        RangePred::closed(lo, lo + rng.gen_range(span / 4..span))
    }
}

fn distinct_tails(rng: &mut StdRng, count: usize) -> Vec<usize> {
    let mut attrs: Vec<usize> = (1..=TAILS).collect();
    for i in 0..count {
        let j = rng.gen_range(i..attrs.len());
        attrs.swap(i, j);
    }
    attrs.truncate(count);
    attrs
}

/// One random operation against the set and the model; queries are
/// checked against the model's scan.
fn random_op(set: &mut PartialSet, model: &mut Model, rng: &mut StdRng) -> &'static str {
    let rows = model.table.num_rows();
    match rng.gen_range(0..10) {
        0 => {
            let head = rng.gen_range(0..DOMAIN);
            let row: Vec<Val> = (0..=TAILS as Val)
                .map(|c| if c == 0 { head } else { 1000 * c + head })
                .collect();
            let key = model.table.append_row(&row);
            set.stage_insert(key);
            "stage_insert"
        }
        1 => {
            let live: Vec<RowId> = model.live_rows().collect();
            if let Some(&key) = live.get(rng.gen_range(0..live.len().max(1))) {
                set.stage_delete(model.get(0, key), key);
                model.dead.push(key);
            }
            "stage_delete"
        }
        2 | 3 => {
            let attrs = distinct_tails(rng, 2);
            let preds = [
                (0, range(rng, 0, rows)),
                (attrs[0], range(rng, attrs[0], rows)),
            ];
            let projs = [attrs[1]];
            let mut got = Vec::new();
            set.disjunctive_project_blocks(&model.table, &preds, &projs, |b| {
                b.for_each(|v| got.push((b.attr, v)))
            });
            let want = model.scan(&projs, |k| {
                preds.iter().any(|(a, p)| p.matches(model.get(*a, k)))
            });
            assert_eq!(sorted_by_attr(&projs, got), want, "disjunction {preds:?}");
            "disjunction"
        }
        4..=6 => {
            let count = rng.gen_range(2..=3);
            let attrs = distinct_tails(rng, count);
            let head = range(rng, 0, rows);
            let sels = [(attrs[0], range(rng, attrs[0], rows))];
            let projs = &attrs[1..];
            let mut got = Vec::new();
            set.conjunctive_project_blocks(&model.table, &head, &sels, projs, |b| {
                b.for_each(|v| got.push((b.attr, v)))
            });
            let want = model.scan(projs, |k| {
                head.matches(model.get(0, k)) && sels[0].1.matches(model.get(sels[0].0, k))
            });
            assert_eq!(sorted_by_attr(projs, got), want, "conjunction {head:?}");
            "conjunction"
        }
        _ => {
            let projs = distinct_tails(rng, 1);
            let head = range(rng, 0, rows);
            let mut got = Vec::new();
            set.select_project_blocks(&model.table, &head, &projs, |b| {
                b.for_each(|v| got.push((b.attr, v)))
            });
            let want = model.scan(&projs, |k| head.matches(model.get(0, k)));
            assert_eq!(sorted_by_attr(&projs, got), want, "select {head:?}");
            "select"
        }
    }
}

/// Random select / project / disjunction streams with staged inserts and
/// deletes in between (chunk lengths change while checked out), under
/// budgets from about one chunk to almost the whole working set, with
/// and without head dropping.
#[test]
fn eviction_index_names_the_scans_victim_after_every_op() {
    let (mut evictions, mut merges) = (0, 0);
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE71C7 ^ case.wrapping_mul(0x9E3779B97F4A7C15));
        let rows = rng.gen_range(60..300usize);
        let mut model = Model::new(&mut rng, rows);
        let mut set = PartialSet::new(0);
        // A predicate covers up to half the domain, so a chunk holds up
        // to ~rows/2 tuples; the working set is TAILS maps of `rows`.
        let budget = match case % 4 {
            0 => rows / 2,
            1 => rows,
            2 => rng.gen_range(rows..TAILS * rows),
            _ => TAILS * rows - 1,
        };
        set.budget = Some(budget);
        if case % 5 < 2 {
            set.head_drop_threshold = Some(rng.gen_range(4..40));
        }
        for step in 0..rng.gen_range(20..50) {
            let op = random_op(&mut set, &mut model, &mut rng);
            check(&set, &mut rng, &format!("case {case}, step {step}: {op}"));
        }
        evictions += set.stats.chunks_dropped;
        merges += set.stats.updates_merged;
    }
    assert!(evictions > 1000, "the budgets must bite: {evictions}");
    assert!(merges > 100, "updates must reach resident chunks: {merges}");
}
