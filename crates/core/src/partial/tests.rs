//! Tests for partial sideways cracking: correctness against naive scans,
//! storage management, partial alignment, and head dropping.

use super::*;
use crackdb_columnstore::column::{Column, Table};
use crackdb_columnstore::types::{Bound, RangePred, Val};

/// Deterministic pseudo-random table: `cols` columns, `n` rows, values in
/// `[0, domain)`.
fn table(cols: usize, n: usize, domain: i64, seed: u64) -> Table {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as i64).rem_euclid(domain)
    };
    let mut t = Table::new();
    for c in 0..cols {
        t.add_column(
            format!("a{c}"),
            Column::new((0..n).map(|_| next()).collect()),
        );
    }
    t
}

/// Naive evaluation of `select projs where head_pred(A) and tail_sels`.
fn naive(
    t: &Table,
    head_attr: usize,
    head_pred: &RangePred,
    tail_sels: &[(usize, RangePred)],
    projs: &[usize],
) -> Vec<(usize, Vec<Val>)> {
    let mut out: Vec<(usize, Vec<Val>)> = projs.iter().map(|&p| (p, Vec::new())).collect();
    for row in 0..t.num_rows() {
        let row = row as u32;
        if !head_pred.matches(t.column(head_attr).get(row)) {
            continue;
        }
        if tail_sels
            .iter()
            .any(|(a, p)| !p.matches(t.column(*a).get(row)))
        {
            continue;
        }
        for (p, vals) in out.iter_mut() {
            vals.push(t.column(*p).get(row));
        }
    }
    out
}

fn collect(
    s: &mut PartialSet,
    t: &Table,
    head_pred: &RangePred,
    tail_sels: &[(usize, RangePred)],
    projs: &[usize],
) -> Vec<(usize, Vec<Val>)> {
    let mut got: Vec<(usize, Vec<Val>)> = projs.iter().map(|&p| (p, Vec::new())).collect();
    s.conjunctive_project_blocks(t, head_pred, tail_sels, projs, |b| {
        b.append_to(&mut got.iter_mut().find(|(p, _)| *p == b.attr).unwrap().1);
    });
    check(s);
    got
}

/// What must hold after every operation: the bookkeeping invariants,
/// and the eviction index naming the victim a scan of every resident
/// chunk finds — with nothing pinned and with each resident chunk's
/// area pinned for that chunk's attribute.
fn check(s: &PartialSet) {
    s.check_invariants().unwrap();
    let r = &s.resident;
    assert_eq!(r.next_victim(None, &[]), r.next_victim_by_scan(None, &[]));
    for (attr, map) in r.maps() {
        for &area in map.chunks.keys() {
            assert_eq!(
                r.next_victim(area, &[attr]),
                r.next_victim_by_scan(area, &[attr]),
                "pinned ({attr}, {area:?})"
            );
        }
    }
}

fn assert_same(mut a: Vec<(usize, Vec<Val>)>, mut b: Vec<(usize, Vec<Val>)>) {
    for (_, v) in a.iter_mut().chain(b.iter_mut()) {
        v.sort_unstable();
    }
    assert_eq!(a, b);
}

#[test]
fn single_selection_projection_matches_scan() {
    let t = table(3, 500, 1000, 7);
    let mut s = PartialSet::new(0);
    for (lo, hi) in [(100, 400), (50, 120), (380, 900), (0, 1000), (250, 260)] {
        let pred = RangePred::open(lo, hi);
        let got = collect(&mut s, &t, &pred, &[], &[1, 2]);
        assert_same(got, naive(&t, 0, &pred, &[], &[1, 2]));
    }
}

#[test]
fn conjunctive_matches_scan() {
    let t = table(4, 400, 500, 11);
    let mut s = PartialSet::new(0);
    for (a, b, c) in [(0, 250, 100), (100, 480, 300), (20, 70, 0)] {
        let head = RangePred::open(a, a + 200);
        let sels = vec![
            (1usize, RangePred::open(b - 250, b)),
            (2usize, RangePred::open(c, c + 300)),
        ];
        let got = collect(&mut s, &t, &head, &sels, &[3]);
        assert_same(got, naive(&t, 0, &head, &sels, &[3]));
    }
}

#[test]
fn random_query_sequence_differential() {
    let t = table(3, 300, 200, 13);
    let mut s = PartialSet::new(0);
    let mut state = 99u64;
    let mut next = move |m: i64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as i64).rem_euclid(m)
    };
    for _ in 0..60 {
        let lo = next(200);
        let hi = lo + 1 + next(60);
        let pred = RangePred::open(lo, hi);
        let got = collect(&mut s, &t, &pred, &[], &[1, 2]);
        assert_same(got, naive(&t, 0, &pred, &[], &[1, 2]));
    }
}

#[test]
fn repeat_query_cracks_nothing_new() {
    let t = table(2, 300, 1000, 3);
    let mut s = PartialSet::new(0);
    let pred = RangePred::open(200, 600);
    collect(&mut s, &t, &pred, &[], &[1]);
    let cracks = s.stats.query_cracks + s.stats.chunk_map_cracks;
    collect(&mut s, &t, &pred, &[], &[1]);
    assert_eq!(s.stats.query_cracks + s.stats.chunk_map_cracks, cracks);
}

#[test]
fn only_required_chunks_materialize() {
    let t = table(2, 1000, 1000, 5);
    let mut s = PartialSet::new(0);
    let pred = RangePred::open(400, 500);
    collect(&mut s, &t, &pred, &[], &[1]);
    // Roughly a tenth of the domain → roughly a tenth of the tuples.
    assert!(
        s.usage() < 300,
        "partial map materialized {} tuples",
        s.usage()
    );
    assert!(s.chunk_count() >= 1);
}

#[test]
fn budget_enforced_with_drops_and_recreation() {
    let t = table(3, 1000, 1000, 17);
    let mut s = PartialSet::new(0);
    s.budget = Some(600);
    let mut state = 5u64;
    let mut next = move |m: i64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as i64).rem_euclid(m)
    };
    for q in 0..40 {
        let lo = next(900);
        let pred = RangePred::open(lo, lo + 100);
        let proj = if q % 2 == 0 { 1 } else { 2 };
        let got = collect(&mut s, &t, &pred, &[], &[proj]);
        assert_same(got, naive(&t, 0, &pred, &[], &[proj]));
        assert!(
            s.usage() <= 600,
            "usage {} exceeds the budget post-query",
            s.usage()
        );
    }
    assert!(
        s.stats.chunks_dropped > 0,
        "budget pressure must drop chunks"
    );
}

#[test]
fn workload_shift_partial_alignment() {
    // Two "query types" over different tail attributes, alternating in
    // batches — the Fig. 13 scenario. Correctness must survive chunks
    // lagging behind each other.
    let t = table(3, 500, 500, 23);
    let mut s = PartialSet::new(0);
    let mut state = 1u64;
    let mut next = move |m: i64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as i64).rem_euclid(m)
    };
    for batch in 0..6 {
        let proj = 1 + (batch % 2) as usize;
        for _ in 0..10 {
            let lo = next(450);
            let pred = RangePred::open(lo, lo + 50);
            let got = collect(&mut s, &t, &pred, &[], &[proj]);
            assert_same(got, naive(&t, 0, &pred, &[], &[proj]));
        }
    }
}

#[test]
fn fetched_areas_are_frozen() {
    let t = table(2, 400, 400, 29);
    let mut s = PartialSet::new(0);
    collect(&mut s, &t, &RangePred::open(100, 300), &[], &[1]);
    let cm_cracks = s.stats.chunk_map_cracks;
    // A predicate cutting inside the fetched [100,300] area must crack
    // chunks, not the chunk map.
    collect(&mut s, &t, &RangePred::open(150, 250), &[], &[1]);
    assert_eq!(
        s.stats.chunk_map_cracks, cm_cracks,
        "fetched area was split"
    );
    assert!(s.stats.query_cracks > 0);
}

#[test]
fn head_dropping_with_recovery() {
    let t = table(2, 400, 400, 31);
    let mut s = PartialSet::new(0);
    s.head_drop_threshold = Some(1 << 30); // drop immediately after use
    let p1 = RangePred::open(100, 300);
    let got = collect(&mut s, &t, &p1, &[], &[1]);
    assert_same(got, naive(&t, 0, &p1, &[], &[1]));
    assert!(s.stats.heads_dropped > 0);
    // A new cut inside the same area forces head recovery.
    let p2 = RangePred::open(150, 250);
    let got = collect(&mut s, &t, &p2, &[], &[1]);
    assert_same(got, naive(&t, 0, &p2, &[], &[1]));
    assert!(s.stats.heads_recovered > 0);
}

#[test]
fn shell_reuse_on_recreation() {
    let t = table(2, 300, 300, 37);
    let mut s = PartialSet::new(0);
    collect(&mut s, &t, &RangePred::open(50, 250), &[], &[1]);
    collect(&mut s, &t, &RangePred::open(100, 200), &[], &[1]);
    // Drop a chunk explicitly while its area stays fetched via... a second
    // map referencing the same area.
    collect(&mut s, &t, &RangePred::open(50, 250), &[], &[1]);
    let area_ids: Vec<AreaId> = s.map(1).unwrap().chunks.keys().copied().collect();
    // Reference the areas from another attribute so shells are kept.
    collect(&mut s, &t, &RangePred::open(50, 250), &[], &[0]);
    for id in &area_ids {
        s.drop_chunk(1, *id);
        check(&s);
    }
    assert!(s.map(1).unwrap().chunks.is_empty());
    // Recreate; results stay correct.
    let got = collect(&mut s, &t, &RangePred::open(100, 200), &[], &[1]);
    assert_same(got, naive(&t, 0, &RangePred::open(100, 200), &[], &[1]));
}

#[test]
fn empty_and_full_predicates() {
    let t = table(2, 100, 50, 41);
    let mut s = PartialSet::new(0);
    let got = collect(&mut s, &t, &RangePred::open(10, 10), &[], &[1]);
    assert!(got[0].1.is_empty());
    let got = collect(&mut s, &t, &RangePred::all(), &[], &[1]);
    assert_eq!(got[0].1.len(), 100);
}

/// Naive evaluation over a base with deleted keys masked out.
fn naive_live(
    t: &Table,
    dead: &[u32],
    head_attr: usize,
    head_pred: &RangePred,
    projs: &[usize],
) -> Vec<(usize, Vec<Val>)> {
    let mut out: Vec<(usize, Vec<Val>)> = projs.iter().map(|&p| (p, Vec::new())).collect();
    for row in 0..t.num_rows() {
        let row = row as u32;
        if dead.contains(&row) || !head_pred.matches(t.column(head_attr).get(row)) {
            continue;
        }
        for (p, vals) in out.iter_mut() {
            vals.push(t.column(*p).get(row));
        }
    }
    out
}

#[test]
fn staged_updates_merge_on_access() {
    let mut t = table(3, 300, 300, 47);
    let mut s = PartialSet::new(0);
    let pred = RangePred::open(50, 200);
    collect(&mut s, &t, &pred, &[], &[1]);

    // Insert two rows (one inside the touched range, one outside) and
    // delete two existing rows likewise.
    let k1 = t.append_row(&[100, 1111, 2222]);
    let k2 = t.append_row(&[250, 3333, 4444]);
    s.stage_insert(k1);
    s.stage_insert(k2);
    let in_range = |v: Val| v > 50 && v < 200;
    let d_in = (0..300u32)
        .find(|&k| in_range(t.column(0).get(k)))
        .expect("some row inside the range");
    let d_out = (0..300u32)
        .find(|&k| !in_range(t.column(0).get(k)))
        .expect("some row outside the range");
    s.stage_delete(t.column(0).get(d_in), d_in);
    s.stage_delete(t.column(0).get(d_out), d_out);
    assert_eq!(s.staged(), 4);
    check(&s);

    // A query over (50,200) merges only the relevant updates.
    let got = collect(&mut s, &t, &pred, &[], &[1, 2]);
    assert_same(got, naive_live(&t, &[d_in, d_out], 0, &pred, &[1, 2]));
    assert!(s.staged() < 4, "in-range updates must merge");
    assert!(s.stats.updates_merged > 0);

    // A full-range query merges the rest; everything stays consistent.
    let all = RangePred::all();
    let got = collect(&mut s, &t, &all, &[], &[1, 2]);
    assert_same(got, naive_live(&t, &[d_in, d_out], 0, &all, &[1, 2]));
    assert_eq!(s.staged(), 0);
}

#[test]
fn recreated_chunk_picks_updates_up_for_free() {
    // §3.5 × §4.1: merge updates into an area, drop every chunk of the
    // area (it reverts to unfetched, updates return to the staged
    // lists), then query again — the recreated chunks must contain them.
    let mut t = table(2, 200, 200, 53);
    let mut s = PartialSet::new(0);
    let pred = RangePred::open(40, 160);
    collect(&mut s, &t, &pred, &[], &[1]);

    let k = t.append_row(&[100, 7777]);
    s.stage_insert(k);
    let dead = (0..200u32)
        .find(|&r| {
            let v = t.column(0).get(r);
            v > 40 && v < 160
        })
        .expect("some row inside the range");
    s.stage_delete(t.column(0).get(dead), dead);
    collect(&mut s, &t, &pred, &[], &[1]); // merge
    assert_eq!(s.staged(), 0);

    // Drop every chunk (all maps, all areas).
    let drops: Vec<(usize, AreaId)> = [0usize, 1]
        .iter()
        .flat_map(|&attr| {
            s.map(attr)
                .map(|m| m.chunks.keys().map(move |&a| (attr, a)).collect::<Vec<_>>())
                .unwrap_or_default()
        })
        .collect();
    for (attr, area) in drops {
        s.drop_chunk(attr, area);
        check(&s);
    }
    assert_eq!(s.usage(), 0);
    assert!(s.staged() > 0, "unfetched areas un-merge their updates");

    let got = collect(&mut s, &t, &pred, &[], &[1]);
    assert_same(got, naive_live(&t, &[dead], 0, &pred, &[1]));
    assert_eq!(s.staged(), 0);
}

#[test]
fn budget_exact_under_update_and_eviction_pressure() {
    let mut t = table(3, 1000, 1000, 59);
    let mut s = PartialSet::new(0);
    s.budget = Some(600);
    let mut state = 5u64;
    let mut next = move |m: i64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as i64).rem_euclid(m)
    };
    let mut dead: Vec<u32> = Vec::new();
    let mut next_key = 1000u32;
    for q in 0..40 {
        // Interleave updates with queries.
        if q % 3 == 0 {
            let v = next(1000);
            let k = t.append_row(&[v, v * 2, v * 3]);
            s.stage_insert(k);
            assert_eq!(k, next_key);
            next_key += 1;
            let victim = next(1000) as u32 % 1000;
            if !dead.contains(&victim) {
                s.stage_delete(t.column(0).get(victim), victim);
                dead.push(victim);
            }
        }
        let lo = next(900);
        let pred = RangePred::open(lo, lo + 100);
        let proj = if q % 2 == 0 { 1 } else { 2 };
        let got = collect(&mut s, &t, &pred, &[], &[proj]);
        assert_same(got, naive_live(&t, &dead, 0, &pred, &[proj]));
        assert!(
            s.usage() <= 600,
            "usage {} exceeds the budget post-query",
            s.usage()
        );
    }
    assert!(
        s.stats.chunks_dropped > 0,
        "budget pressure must drop chunks"
    );
    assert!(s.stats.updates_merged > 0);
}

#[test]
fn disjunctive_matches_scan() {
    let t = table(3, 400, 400, 61);
    let mut s = PartialSet::new(0);
    for (a, b) in [(0, 300), (150, 100), (350, 0)] {
        let preds = vec![
            (0usize, RangePred::open(a, a + 60)),
            (1usize, RangePred::open(b, b + 60)),
        ];
        let mut got: Vec<(usize, Vec<Val>)> = vec![(2, Vec::new())];
        s.disjunctive_project_blocks(&t, &preds, &[2], |b| {
            b.append_to(&mut got.iter_mut().find(|(p, _)| *p == b.attr).unwrap().1);
        });
        check(&s);
        // Naive union.
        let mut want = vec![(2usize, Vec::new())];
        for row in 0..t.num_rows() as u32 {
            if preds.iter().any(|(a, p)| p.matches(t.column(*a).get(row))) {
                want[0].1.push(t.column(2).get(row));
            }
        }
        assert_same(got, want);
    }
}

#[test]
fn projection_equals_selection_attribute() {
    // Project the same attribute that carries a tail selection.
    let t = table(3, 200, 100, 43);
    let mut s = PartialSet::new(0);
    let head = RangePred::open(20, 80);
    let sels = vec![(1usize, RangePred::open(10, 60))];
    let got = collect(&mut s, &t, &head, &sels, &[1]);
    assert_same(got, naive(&t, 0, &head, &sels, &[1]));
}

/// The chunk map of a big table is seeded for the crack that is about
/// to hit it, already in bucket order. The chunk map ends up exactly
/// where copying the live rows and cracking at the predicate's keys
/// puts it, the cuts count as that crack's, and staged deletions are
/// subsumed by the seed.
#[test]
fn chunk_map_first_touch_matches_copy_then_crack() {
    use crackdb_cracking::cracked::PREPARTITION_MIN_PIECE;
    let n = PREPARTITION_MIN_PIECE + 77;
    let t = table(2, n, 1_000_000, 0x5EED);
    let mut s = PartialSet::new(0);
    let dead = [5u32, 6, 6, n as u32 - 1];
    for k in dead {
        s.stage_delete(t.column(0).get(k), k);
    }
    let pred = RangePred::open(250_000, 260_000);
    let got = collect(&mut s, &t, &pred, &[], &[1]);

    let live = |k: &u32| !dead.contains(k);
    let keys: Vec<u32> = (0..n as u32).filter(live).collect();
    let head = keys.iter().map(|&k| t.column(0).get(k)).collect();
    let mut want = CrackedArray::new(head, keys);
    let (lo, hi) = pred_keys(&pred);
    for key in [lo, hi].into_iter().flatten() {
        want.ensure_boundary(key);
    }
    let cm = s.chunk_map.as_ref().unwrap();
    assert!(cm.head() == want.head() && cm.tail() == want.tail());
    assert_eq!(
        cm.index().boundaries_with_status(),
        want.index().boundaries_with_status()
    );
    assert_eq!(cm.touched(), want.touched());
    assert_eq!(s.stats.chunk_map_cracks, want.index().len() as u64);
    assert_eq!(s.staged(), 0);

    let (s0, e0) = (
        want.index().position_of(lo.unwrap()),
        want.index().position_of(hi.unwrap()),
    );
    let area = want.view((s0.unwrap(), e0.unwrap()));
    let mut expect: Vec<Val> = area.1.iter().map(|&k| t.column(1).get(k)).collect();
    expect.sort_unstable();
    assert_same(got, vec![(1, expect)]);
}

/// The whole-index walk `overlapping_areas` used to make: every area of
/// the chunk map in order, kept when it is neither wholly below nor
/// wholly above the predicate's region. Reference for the predecessor
/// walk.
fn overlapping_areas_by_full_walk(s: &PartialSet, base: &Table, pred: &RangePred) -> Vec<AreaRef> {
    let head_col = base.column(s.head_attr);
    let cm = s.chunk_map.as_ref().unwrap();
    let bs = cm.index().boundaries();
    let (lo_k, hi_k) = pred_keys(pred);
    let mut out = Vec::new();
    let (mut start_key, mut start_pos): (AreaId, usize) = (None, 0);
    for i in 0..=bs.len() {
        let (end_key, end_pos) = bs.get(i).map_or((None, cm.len()), |&(k, p)| (Some(k), p));
        let below = matches!((end_key, lo_k), (Some(e), Some(l)) if e <= l);
        let above = matches!((start_key, hi_k), (Some(s), Some(h)) if s >= h);
        let area = AreaRef {
            id: start_key,
            start: start_pos,
            end: end_pos,
            end_key,
        };
        let keep = end_pos > start_pos
            || s.areas.get(&area.id).is_some_and(|a| a.fetched)
            || s.staged_inserts
                .iter()
                .any(|&k| PartialSet::area_contains(&area, head_col.get(k)))
            || s.staged_deletes
                .iter()
                .any(|&(v, _)| PartialSet::area_contains(&area, v));
        if !below && !above && keep {
            out.push(area);
        }
        (start_key, start_pos) = (end_key, end_pos);
    }
    out
}

/// Both walks over every predicate shape on a small domain: each bound
/// absent, inclusive or exclusive at every value from below the least
/// to above the greatest boundary — so unbounded on either side,
/// landing on existing boundaries of both kinds, strictly inside areas,
/// inverted, and reaching the leftmost (`None`-id) and rightmost areas.
fn assert_area_lookup_matches_full_walk(s: &PartialSet, t: &Table) {
    let bounds = |v: Val| [Bound::inclusive(v), Bound::exclusive(v)].map(Some);
    let all: Vec<Option<Bound>> = std::iter::once(None)
        .chain((-1..=101).flat_map(bounds))
        .collect();
    let flat = |areas: Vec<AreaRef>| -> Vec<(AreaId, usize, usize, AreaId)> {
        let tuple = |a: AreaRef| (a.id, a.start, a.end, a.end_key);
        areas.into_iter().map(tuple).collect()
    };
    for &lo in &all {
        for &hi in &all {
            let pred = RangePred { lo, hi };
            assert_eq!(
                flat(s.overlapping_areas(t, &pred)),
                flat(overlapping_areas_by_full_walk(s, t, &pred)),
                "{pred:?}"
            );
        }
    }
}

#[test]
fn area_lookup_by_predecessor_walk_matches_full_walk() {
    // Head values are multiples of 10, so cuts at other values open
    // zero-row areas.
    let mut t = table(2, 400, 10, 71);
    let tens: Vec<Val> = (0..400u32).map(|k| t.column(0).get(k) * 10).collect();
    let tails: Vec<Val> = (0..400u32).map(|k| t.column(1).get(k)).collect();
    t = Table::new();
    t.add_column("a0", Column::new(tens));
    t.add_column("a1", Column::new(tails));

    let mut s = PartialSet::new(0);
    // Boundaries of both kinds: open → (lo, Le) and (hi, Lt); closed →
    // (lo, Lt) and (hi, Le). The first two areas end up fetched.
    collect(&mut s, &t, &RangePred::open(20, 60), &[], &[1]);
    collect(&mut s, &t, &RangePred::closed(70, 80), &[], &[1]);
    assert_area_lookup_matches_full_walk(&s, &t);

    // Cuts inside a frozen fetched area crack its chunk, not the chunk
    // map: the area stays one area for the lookup.
    let boundaries = s.chunk_map.as_ref().unwrap().index().len();
    collect(&mut s, &t, &RangePred::open(30, 50), &[], &[1]);
    assert_eq!(s.chunk_map.as_ref().unwrap().index().len(), boundaries);
    assert_area_lookup_matches_full_walk(&s, &t);

    // A zero-row area (no head value lies in (91, 95)) …
    collect(&mut s, &t, &RangePred::open(91, 95), &[], &[1]);
    let inside = RangePred::closed(92, 94);
    assert!(s.overlapping_areas(&t, &inside).is_empty());
    assert_area_lookup_matches_full_walk(&s, &t);
    // … is visited once it carries a staged insert …
    let key = t.append_row(&[93, 9393]);
    s.stage_insert(key);
    assert_eq!(s.overlapping_areas(&t, &inside).len(), 1);
    assert_area_lookup_matches_full_walk(&s, &t);
    // … and stays visited, zero rows in the chunk map or not, while the
    // merged insert (then the merged delete) sits on its tape.
    let got = collect(&mut s, &t, &inside, &[], &[1]);
    assert_same(got, vec![(1, vec![9393])]);
    assert_eq!(s.staged(), 0);
    assert_area_lookup_matches_full_walk(&s, &t);
    s.stage_delete(93, key);
    let got = collect(&mut s, &t, &inside, &[], &[1]);
    assert_same(got, vec![(1, vec![])]);
    let area = s.overlapping_areas(&t, &inside);
    assert_eq!(area.len(), 1);
    assert_eq!(area[0].start, area[0].end);
    assert_area_lookup_matches_full_walk(&s, &t);
}
