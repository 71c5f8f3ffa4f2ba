//! Late-seeded maps against the two things they must agree with: their
//! siblings (physical alignment at equal tape cursors, §3.2) and the
//! plain engine (answers) — on a table big enough that maps are seeded
//! already in prepartitioned bucket order.
//!
//! A map set cracks one map *k* times with insert and delete batches
//! merged in between, then seeds a second map, which replays the whole
//! tape from a fresh seed. Each scenario also rebuilds both maps the
//! slow way — copy the live rows, replay the tape entry by entry — and
//! requires bit-identical state, so a fused seed that is not exactly
//! copy-then-first-crack shows here even where every sibling took the
//! same wrong turn. One scenario starts the tape with an `Inserts`
//! batch: the first replayed entry is then not a crack and the seed
//! must stay a plain copy. Another seeds the second map for a query that
//! uses both maps, which merges them into one map group: each of its
//! tails must be the map the slow way builds without any merging.

use crackdb_columnstore::column::{insert_headroom, Table};
use crackdb_columnstore::types::{Bound, RangePred, RowId, Val};
use crackdb_core::{MapSet, TapeEntry};
use crackdb_cracking::cracked::PREPARTITION_MIN_PIECE;
use crackdb_cracking::CrackedArray;
use crackdb_engine::{Engine, PlainEngine, SelectQuery};
use crackdb_workloads::random_table;
use std::collections::HashSet;

const ROWS: usize = PREPARTITION_MIN_PIECE + 1_000;
const DOMAIN: Val = 1_000_000;
const EXCLUDED: [RowId; 3] = [3, 500, ROWS as RowId - 1];

fn sorted(mut v: Vec<Val>) -> Vec<Val> {
    v.sort_unstable();
    v
}

/// `select attr where pred(A)` through the map set.
fn set_answer(set: &mut MapSet, base: &Table, attr: usize, pred: &RangePred) -> Vec<Val> {
    let range = set.sideways_select(base, attr, pred);
    sorted(set.view_tail(attr, range).to_vec())
}

fn plain_answer(plain: &mut PlainEngine, attr: usize, pred: &RangePred) -> Vec<Val> {
    let out = plain.select(&SelectQuery::project(vec![(0, *pred)], vec![attr]));
    sorted(out.proj_values[0].clone())
}

/// Map `attr` of `set`, rebuilt without any shortcut: copy the seed
/// snapshot's live rows, with the front slack of every seeded array,
/// and replay the tape.
fn rebuilt(set: &MapSet, base: &Table, attr: usize) -> CrackedArray<Val> {
    let column = |a: usize| base.column(a).values()[..ROWS].to_vec();
    let mut arr = CrackedArray::seeded(
        &column(0),
        &[&column(attr)],
        &EXCLUDED,
        None,
        insert_headroom(ROWS - EXCLUDED.len()),
    );
    for i in 0..set.tape.len() {
        match *set.tape.entry(i) {
            TapeEntry::Crack(pred) => {
                arr.crack_range(&pred);
            }
            TapeEntry::Inserts(id) => {
                for &key in &set.tape.insert_batches[id as usize].keys {
                    arr.ripple_insert(base.column(0).get(key), base.column(attr).get(key));
                }
            }
            TapeEntry::Deletes(id) => {
                let resolved = set.tape.delete_batches[id as usize].resolved.as_ref();
                for &p in resolved.expect("a map crossed the batch") {
                    arr.ripple_delete_at(p);
                }
            }
        }
    }
    arr
}

/// `got`'s tail column `col` against the one-tail `want`.
fn assert_same_state(got: &CrackedArray<Val>, col: usize, want: &CrackedArray<Val>, ctx: &str) {
    assert!(got.head() == want.head(), "{ctx}: head order");
    assert!(got.tail_at(col) == want.tail(), "{ctx}: tail order");
    let status = |a: &CrackedArray<Val>| a.index().boundaries_with_status();
    assert_eq!(status(got), status(want), "{ctx}: index");
    assert_eq!(got.touched(), want.touched(), "{ctx}: touched");
}

/// `merged`: the late map is seeded for a query over both maps.
fn late_map_scenario(inserts_first: bool, merged: bool) {
    let ctx = format!("inserts_first={inserts_first} merged={merged}");
    let mut base = random_table(3, ROWS, DOMAIN, 0xA11E);
    let mut plain = PlainEngine::new(base.clone());
    for key in EXCLUDED {
        plain.delete(key);
    }
    let excluded: HashSet<RowId> = EXCLUDED.into_iter().collect();
    let mut set = MapSet::new(0, ROWS, excluded);

    let insert = |set: &mut MapSet, base: &mut Table, plain: &mut PlainEngine, a: Val| {
        let row = [a, a + 1, a + 2];
        set.stage_insert(base.append_row(&row));
        plain.insert(&row);
    };
    if inserts_first {
        insert(&mut set, &mut base, &mut plain, 450_000);
    }
    // Every query covers [440k, 460k], so each merges what was staged
    // since the one before it.
    for q in 0..6 {
        let pred = RangePred::open(440_000 - 7_000 * q, 460_000 + 11_000 * q);
        assert_eq!(
            set_answer(&mut set, &base, 1, &pred),
            plain_answer(&mut plain, 1, &pred),
            "{ctx}: query {q} on the early map"
        );
        if q % 2 == 0 {
            insert(&mut set, &mut base, &mut plain, 441_000 + q);
            insert(&mut set, &mut base, &mut plain, 459_000 - q);
        } else {
            // An original row inside the hot range, found by scan.
            let col = base.column(0);
            let victim = (10 * q as RowId..ROWS as RowId)
                .find(|&k| (445_000..455_000).contains(&col.get(k)) && !EXCLUDED.contains(&k))
                .expect("a million rows hit a 1% range");
            set.stage_delete(col.get(victim), victim);
            plain.delete(victim);
        }
    }
    assert!(matches!(set.tape.entry(0), TapeEntry::Inserts(_)) == inserts_first);
    assert!(!set.has_map(2));

    let pred = RangePred::open(300_000, 700_000);
    if merged {
        set.select_maps(&base, &[2, 1], &pred);
        assert_eq!(set.groups().len(), 1, "{ctx}: one group");
    }
    assert_eq!(
        set_answer(&mut set, &base, 2, &pred),
        plain_answer(&mut plain, 2, &pred),
        "{ctx}: the late map"
    );
    assert_eq!(
        set_answer(&mut set, &base, 1, &pred),
        plain_answer(&mut plain, 1, &pred),
        "{ctx}: the early map, re-aligned"
    );
    assert_eq!(set.check_aligned(), Ok(()), "{ctx}");
    assert_eq!(set.stats.maps_created, 2);
    for attr in [1, 2] {
        let map = set.map(attr).expect("both maps exist");
        assert_eq!(map.cursor, set.tape.len(), "{ctx}: map {attr} aligned");
        assert_same_state(
            &map.arr,
            map.column(attr).expect("the group holds its map"),
            &rebuilt(&set, &base, attr),
            &format!("{ctx} map {attr}"),
        );
    }
    // Fused exactly when the first replayed entry is a crack that opens
    // with a prepartition.
    assert_eq!(set.seed_is_clustered(), !inserts_first, "{ctx}");
}

#[test]
fn late_map_aligns_and_answers_under_standard() {
    late_map_scenario(false, false);
    late_map_scenario(true, false);
}

#[test]
fn merged_group_is_the_maps_built_without_merging() {
    late_map_scenario(false, true);
    late_map_scenario(true, true);
}

/// A first crack whose bound lands exactly on a prepartition cut adds
/// no boundary of its own. It made the cuts, so it is logged all the
/// same — a seed that already carries them must not hide that — and a
/// map seeded later replays it.
#[test]
fn first_crack_landing_on_a_cut_is_still_logged() {
    let base = random_table(3, ROWS, DOMAIN, 0xA11E);
    let mut set = MapSet::new(0, ROWS, HashSet::new());
    set.sideways_select(&base, 1, &RangePred::open(440_000, 460_000));
    let index = set.map(1).expect("just seeded").arr.index();
    let ((cut, _), _) = index
        .boundaries()
        .into_iter()
        .find(|&(k, _)| index.is_advisory(k))
        .expect("the first crack prepartitions");
    let on_cut = RangePred::less(Bound::exclusive(cut));

    let mut set = MapSet::new(0, ROWS, HashSet::new());
    let mut plain = PlainEngine::new(base.clone());
    assert_eq!(
        set_answer(&mut set, &base, 1, &on_cut),
        plain_answer(&mut plain, 1, &on_cut)
    );
    assert_eq!(
        set.tape.len(),
        1,
        "the crack that made the cuts is on the tape"
    );
    assert_eq!(set.stats.query_cracks, 1);
    assert_eq!(
        set_answer(&mut set, &base, 2, &on_cut),
        plain_answer(&mut plain, 2, &on_cut)
    );
    assert_eq!(set.tape.len(), 1);
    assert_eq!(set.check_aligned(), Ok(()));
    for attr in [1, 2] {
        let map = set.map(attr).expect("both maps exist");
        let mut want = CrackedArray::new(
            base.column(0).values().to_vec(),
            base.column(attr).values().to_vec(),
        );
        want.crack_range(&on_cut);
        assert_same_state(&map.arr, 0, &want, &format!("map {attr}"));
    }
}
