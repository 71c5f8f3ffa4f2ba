//! Insert headroom: the big arrays that take inserts after a copy — a
//! shard's base columns (`partition_table`), a seeded cracked array
//! (`CrackedArray::seeded`, with and without a `SeedPlan`) and the maps
//! of a map set — reserve `insert_headroom(n)` spare slots when they are
//! copied; seeded arrays reserve as many free slots at the front.
//! Up to that many inserts must leave every array where it is (same
//! allocation: base pointer and capacity — a front-ward insert moves
//! `head().as_ptr()` by design) and must leave exactly the state the
//! same inserts leave on an exact-capacity copy with the same front
//! slack.
//!
//! The map-set table is big enough that maps are seeded through a
//! `SeedPlan`.
//!
//! The partial chunk map is seeded too, but never merges an update
//! (its resolvers do): it reserves no headroom at either end.

use crackdb_columnstore::column::{insert_headroom, Column, Table};
use crackdb_columnstore::shard::{partition_table, ShardCuts};
use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_core::{MapSet, PartialSet, TapeEntry};
use crackdb_cracking::crack::BoundKind;
use crackdb_cracking::cracked::PREPARTITION_MIN_PIECE;
use crackdb_cracking::{CrackedArray, SeedPlan};
use crackdb_rng::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashSet;

fn values(n: usize, domain: Val, seed: u64) -> Vec<Val> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..domain)).collect()
}

/// `a`'s buffers, front slack included, and index, at exact capacity.
fn exact_copy<T: Copy>(a: &CrackedArray<T>) -> CrackedArray<T> {
    let (head, tail, index) = a.clone().into_parts();
    let exact = |cap: usize| cap == head.len();
    assert!(exact(head.capacity()) && exact(tail.capacity()));
    CrackedArray::from_parts(head, tail, index)
}

fn assert_same_state<T: Copy + PartialEq>(
    got: &CrackedArray<T>,
    want: &CrackedArray<T>,
    ctx: &str,
) {
    assert!(got.head() == want.head(), "{ctx}: head order");
    assert!(got.tail() == want.tail(), "{ctx}: tail order");
    let status = |a: &CrackedArray<T>| a.index().boundaries_with_status();
    assert_eq!(status(got), status(want), "{ctx}: index");
    assert_eq!(got.check_invariants(), Ok(()), "{ctx}");
}

#[test]
fn seeded_arrays_take_their_headroom_in_place() {
    const N: usize = 20_000;
    let head = values(N, 10_000, 1);
    let tail: Vec<Val> = head.iter().map(|v| 3 * v + 1).collect();
    let excluded: [RowId; 3] = [7, 1_000, N as RowId - 1];
    let live = N - excluded.len();
    let plan = SeedPlan::with_target(&head, &excluded, (5_000, BoundKind::Lt), 1_000);
    assert!(plan.is_some(), "a 10k-value domain cuts into buckets");
    for (ctx, plan) in [("plain copy", None), ("seed plan", plan.as_ref())] {
        let mut arr = CrackedArray::seeded(&head, &[&tail], &excluded, plan, insert_headroom(live));
        arr.crack_range(&RangePred::open(2_000, 2_500));
        arr.crack_range(&RangePred::closed(7_000, 9_000));
        let (at, mut want) = (arr.allocation(), exact_copy(&arr));
        assert_eq!(arr.index().origin(), insert_headroom(live), "{ctx}");
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..insert_headroom(live) as Val {
            // Below, inside and above the domain: every piece grows.
            let v = rng.gen_range(-100..10_100);
            arr.ripple_insert(v, -i);
            want.ripple_insert(v, -i);
        }
        assert_eq!(arr.allocation(), at, "{ctx}: an insert reallocated");
        assert!(
            arr.index().origin() < insert_headroom(live),
            "{ctx}: none went front-ward"
        );
        assert_eq!(arr.len(), live + insert_headroom(live), "{ctx}");
        assert_same_state(&arr, &want, ctx);
    }
}

#[test]
fn partition_parts_take_their_headroom_in_place() {
    const N: usize = 30_001;
    let mut table = Table::new();
    table.add_column("a", Column::new(values(N, 1 << 20, 3)));
    table.add_column("b", Column::new(values(N, 1 << 20, 4)));
    let columns = |t: &Table| -> Vec<*const Val> {
        (0..t.num_columns())
            .map(|c| t.column(c).values().as_ptr())
            .collect()
    };
    for (s, mut part) in partition_table(&table, &ShardCuts::even(N, 3))
        .into_iter()
        .enumerate()
    {
        let at = columns(&part);
        let mut want = Table::new();
        for (c, name) in part.names().iter().enumerate() {
            want.add_column(name.clone(), Column::new(part.column(c).values().to_vec()));
        }
        for i in 0..insert_headroom(part.num_rows()) as Val {
            let row = [i, -i];
            assert_eq!(part.append_row(&row), want.append_row(&row));
        }
        assert!(columns(&part) == at, "shard {s}: an append reallocated");
        for c in 0..part.num_columns() {
            assert!(
                part.column(c).values() == want.column(c).values(),
                "shard {s}: column {c}"
            );
        }
    }
}

#[test]
fn maps_merge_their_headroom_in_place() {
    const ROWS: usize = PREPARTITION_MIN_PIECE + 1_000;
    let mut base = Table::new();
    for (name, seed) in [("A", 5), ("B", 6), ("C", 7)] {
        base.add_column(name, Column::new(values(ROWS, 1_000_000, seed)));
    }
    let mut set = MapSet::new(0, ROWS, HashSet::new());
    let hot = RangePred::open(440_000, 460_000);
    for attr in [1, 2] {
        set.sideways_select(&base, attr, &hot);
    }
    let maps = [1, 2].map(|attr| {
        let arr = &set.map(attr).expect("just seeded").arr;
        (attr, arr.allocation(), exact_copy(arr))
    });
    let from = set.tape.len();

    // Every staged row falls inside `hot`, so the next query on each map
    // merges all of them.
    for i in 0..insert_headroom(ROWS) as Val {
        let key = base.append_row(&[445_000 + i % 10_000, i, -i]);
        set.stage_insert(key);
    }
    for attr in [1, 2] {
        set.sideways_select(&base, attr, &hot);
    }

    assert_eq!(set.check_aligned(), Ok(()));
    assert!(set.seed_is_clustered(), "seeded through a plan");
    for (attr, at, mut want) in maps {
        let arr = &set.map(attr).expect("still there").arr;
        assert_eq!(
            arr.allocation(),
            at,
            "map {attr}: a merged insert reallocated"
        );
        assert_eq!(arr.len(), ROWS + insert_headroom(ROWS), "map {attr}");
        for i in from..set.tape.len() {
            match *set.tape.entry(i) {
                TapeEntry::Crack(pred) => {
                    want.crack_range(&pred);
                }
                TapeEntry::Inserts(id) => {
                    for &key in &set.tape.insert_batches[id as usize].keys {
                        want.ripple_insert(base.column(0).get(key), base.column(attr).get(key));
                    }
                }
                TapeEntry::Deletes(_) => unreachable!("nothing was deleted"),
            }
        }
        assert_same_state(arr, &want, &format!("map {attr}"));
    }
}

#[test]
fn chunk_maps_reserve_no_headroom() {
    for rows in [20_000, PREPARTITION_MIN_PIECE + 1_000] {
        let mut base = Table::new();
        for (name, seed) in [("A", 8), ("B", 9)] {
            base.add_column(name, Column::new(values(rows, 1_000_000, seed)));
        }
        let mut set = PartialSet::new(0);
        set.stage_delete(base.column(0).get(3), 3);
        let hot = RangePred::open(440_000, 460_000);
        set.conjunctive_project_blocks(&base, &hot, &[], &[1], |_| {});
        let cm = set.chunk_map().expect("the query created it");
        let ctx = format!("{rows} rows");
        assert_eq!(cm.len(), rows - 1, "{ctx}: the deleted row is excluded");
        assert_eq!(cm.index().origin(), 0, "{ctx}: front slack");
        for (buffer, (_, capacity)) in cm.allocation().into_iter().enumerate() {
            assert_eq!(
                capacity,
                cm.len(),
                "{ctx}: spare capacity of buffer {buffer}"
            );
        }
        assert_eq!(cm.check_invariants(), Ok(()), "{ctx}");
        let planned = rows > PREPARTITION_MIN_PIECE;
        assert_eq!(cm.index().advisory_count() > 0, planned, "{ctx}: seed plan");
    }
}
