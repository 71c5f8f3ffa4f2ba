//! Selection cracking (Idreos et al., CIDR 2007): the cracker column and
//! its `crackers.select` operator, with ripple updates (SIGMOD 2007).
//!
//! This is the baseline the SIGMOD'09 paper improves upon: selections get
//! continuously faster, but because the cracker column is physically
//! reorganized, selection results are no longer aligned with base columns
//! and reconstructing any *other* attribute degenerates to random access.
//! The cracked attribute itself needs no reconstruction: `crackers.select`
//! returns a view ([`CrackedArea`]) whose head slice holds its values.

use crate::cracked::{CrackedArray, SeedPlan};
use crackdb_columnstore::column::Column;
use crackdb_columnstore::types::{RangePred, RowId, Val};
use std::ops::Range;

/// A cracker column `C_A`: a copy of base column `A` as `(value, key)`
/// pairs, physically reorganized by every selection, plus pending update
/// queues merged on demand by the Ripple algorithm.
#[derive(Debug, Clone)]
pub struct CrackerColumn {
    arr: CrackedArray<RowId>,
    pending_inserts: Vec<(Val, RowId)>,
    pending_deletes: Vec<(Val, RowId)>,
    /// Cumulative count of crack operations (for instrumentation).
    pub cracks: u64,
}

/// What `crackers.select` returns: a view of the contiguous area the
/// crack left the qualifying tuples in. It borrows the column, so it is
/// gone before the next crack or ripple moves the tuples under it.
#[derive(Debug, Clone, Copy)]
pub struct CrackedArea<'a> {
    /// `[start, end)` of the area within the column.
    pub range: (usize, usize),
    /// The area's values.
    pub head: &'a [Val],
    /// The area's keys, position for position with `head`.
    pub tail: &'a [RowId],
}

impl CrackedArea<'_> {
    /// The qualifying keys, copied out in area order.
    pub fn keys(&self) -> Vec<RowId> {
        self.tail.to_vec()
    }
}

impl CrackerColumn {
    /// Create the cracker column of base column `col` at its first
    /// query, `first` (the paper's "first time an attribute is required"
    /// step), from the base rows minus the `excluded` keys (ascending,
    /// duplicate-free: rows deleted before the column existed).
    ///
    /// When `first` would open by prepartitioning the whole fresh copy,
    /// the column is seeded straight into that bucket order
    /// ([`SeedPlan`]) instead of being copied and then clustered; either
    /// way the keys are written without an identity array. Once
    /// [`Self::crack_select`] has run `first`, the state — head and key
    /// order, boundaries, `touched`, `cracks` — is bit-for-bit that of a
    /// plain copy of the live rows after the same crack. Unlike a seeded
    /// map it reserves no insert headroom: here spare capacity measured
    /// slower first queries, from where the allocator placed the column.
    pub fn for_query(col: &Column, excluded: &[RowId], first: &RangePred) -> Self {
        let plan = SeedPlan::new(col.values(), excluded, first);
        Self::seeded(col.values(), excluded, plan.as_ref())
    }

    /// Create the cracker column as a plain copy of a base column,
    /// before any query is known: the first crack prepartitions the copy
    /// itself. [`Self::for_query`] without a plan and without exclusions.
    pub fn from_column(col: &Column) -> Self {
        Self::seeded(col.values(), &[], None)
    }

    /// Seed the column; the cuts a plan records count as cracks, as the
    /// first crack's prepartition would have counted them.
    fn seeded(head: &[Val], excluded: &[RowId], plan: Option<&SeedPlan>) -> Self {
        let arr = CrackedArray::seeded_keys(head, excluded, plan, 0);
        CrackerColumn {
            cracks: arr.index().len() as u64,
            arr,
            pending_inserts: Vec::new(),
            pending_deletes: Vec::new(),
        }
    }

    /// Cumulative tuples touched by the crack kernels (robustness
    /// instrumentation; see [`CrackedArray::touched`]).
    pub fn touched(&self) -> u64 {
        self.arr.touched()
    }

    /// Number of merged tuples (excludes pending).
    pub fn len(&self) -> usize {
        self.arr.len()
    }

    /// `true` when the column holds no merged tuples.
    pub fn is_empty(&self) -> bool {
        self.arr.is_empty()
    }

    /// The underlying cracked array (read-only).
    pub fn array(&self) -> &CrackedArray<RowId> {
        &self.arr
    }

    /// `crackers.select(A, v1, v2)`: merge relevant pending updates, crack
    /// so qualifying tuples are contiguous, and return that area as a
    /// view. The key order is **not** the insertion order — the cause of
    /// expensive tuple reconstruction for every attribute but this one.
    pub fn crack_select(&mut self, pred: &RangePred) -> CrackedArea<'_> {
        let Range { start, end } = self.crack_select_span(pred);
        let (head, tail) = self.arr.view((start, end));
        CrackedArea {
            range: (start, end),
            head,
            tail,
        }
    }

    /// The crack behind [`Self::crack_select`], returning only the
    /// positions of the qualifying area.
    pub fn crack_select_span(&mut self, pred: &RangePred) -> Range<usize> {
        self.merge_pending(pred);
        let before = self.arr.index().len();
        let (start, end) = self.arr.crack_range(pred);
        self.cracks += (self.arr.index().len() - before) as u64;
        start..end
    }

    /// [`Self::crack_select`] with the qualifying keys copied out, for
    /// plans that outlive the view (joins, disjunctions that crack the
    /// column again).
    pub fn select_keys(&mut self, pred: &RangePred) -> Vec<RowId> {
        self.crack_select(pred).keys()
    }

    /// Queue an insertion (applied on demand by the Ripple algorithm).
    pub fn queue_insert(&mut self, v: Val, key: RowId) {
        self.pending_inserts.push((v, key));
    }

    /// Queue a deletion (applied on demand).
    pub fn queue_delete(&mut self, v: Val, key: RowId) {
        self.pending_deletes.push((v, key));
    }

    /// Number of pending (unmerged) updates.
    pub fn pending(&self) -> usize {
        self.pending_inserts.len() + self.pending_deletes.len()
    }

    /// Ripple-merge, in queue order, the pending updates relevant to `pred`, i.e.,
    /// whose values the current query would observe. Other updates stay
    /// pending — the self-organizing behaviour of SIGMOD'07.
    fn merge_pending(&mut self, pred: &RangePred) {
        for (v, k) in self
            .pending_inserts
            .extract_if(.., |(v, _)| pred.matches(*v))
        {
            self.arr.ripple_insert(v, k);
        }
        for (v, k) in self
            .pending_deletes
            .extract_if(.., |(v, _)| pred.matches(*v))
        {
            self.arr.ripple_delete(v, |&t| t == k);
        }
    }

    /// Force-merge every pending update regardless of range (used by
    /// tests and by full-scan operations).
    pub fn merge_all_pending(&mut self) {
        self.merge_pending(&RangePred::all());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::BoundaryKey;
    use crackdb_columnstore::column::Column;

    fn base() -> Column {
        Column::new(vec![12, 3, 5, 9, 15, 22, 7, 26, 4, 2, 24, 11, 16])
    }

    #[test]
    fn select_returns_unordered_keys() {
        let mut c = CrackerColumn::from_column(&base());
        let keys = c.select_keys(&RangePred::open(2, 16));
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 6, 8, 11]);
    }

    #[test]
    fn select_matches_scan_semantics() {
        let col = base();
        let mut c = CrackerColumn::from_column(&col);
        for pred in [
            RangePred::open(5, 20),
            RangePred::closed(5, 20),
            RangePred::point(7),
            RangePred::open(-5, 100),
        ] {
            let mut got = c.select_keys(&pred);
            got.sort_unstable();
            let expected = crackdb_columnstore::ops::select::select(&col, &pred);
            assert_eq!(got, expected, "pred {pred:?}");
        }
        c.array().check_partitioning();
    }

    /// Every cracker column cracks under the one exact-bounds policy.
    /// Each predicate runs twice: the first round cracks new boundaries,
    /// the second answers from the ones already in the index and must
    /// not crack again.
    #[test]
    fn select_keys_correct_under_all_policies() {
        let col = base();
        let mut c = CrackerColumn::from_column(&col);
        let preds = [
            RangePred::open(5, 20),
            RangePred::closed(5, 20),
            RangePred::point(7),
            RangePred::open(-5, 100),
            RangePred::open(13, 14),
        ];
        for round in 0..2 {
            let cracks_before = c.cracks;
            for pred in preds {
                let mut got = c.select_keys(&pred);
                got.sort_unstable();
                let expected = crackdb_columnstore::ops::select::select(&col, &pred);
                assert_eq!(got, expected, "round {round} pred {pred:?}");
            }
            if round == 1 {
                assert_eq!(c.cracks, cracks_before, "repeated predicates cracked again");
            }
            c.array().check_partitioning();
        }
    }

    /// The view is `select_keys` without the copy: same keys, same
    /// crack.
    #[test]
    fn view_select_agrees_with_select_keys() {
        let col = Column::new((0..5000).map(|i| (i * 7919) % 1000).collect());
        let mut viewed = CrackerColumn::from_column(&col);
        let mut copied = CrackerColumn::from_column(&col);
        for pred in [
            RangePred::open(100, 400),
            RangePred::closed(250, 260),
            RangePred::point(7),
            RangePred::open(13, 14),
            RangePred::all(),
            RangePred::open(600, 100),
        ] {
            let area = viewed.crack_select(&pred);
            assert_eq!(area.head.len(), area.range.1 - area.range.0);
            assert_eq!(area.tail.len(), area.head.len());
            assert!(area.head.iter().all(|&v| pred.matches(v)));
            let keys = area.keys();
            assert_eq!(keys, copied.select_keys(&pred), "pred {pred:?}");
            assert!(keys.iter().all(|&k| pred.matches(col.get(k))));
            viewed.array().check_partitioning();
        }
        assert_eq!(viewed.touched(), copied.touched());
    }

    #[test]
    fn knowledge_accumulates() {
        let mut c = CrackerColumn::from_column(&base());
        c.crack_select(&RangePred::open(10, 15));
        let cracks_after_first = c.cracks;
        assert!(cracks_after_first >= 1);
        c.crack_select(&RangePred::open(10, 15));
        assert_eq!(c.cracks, cracks_after_first, "repeat query cracks nothing");
    }

    #[test]
    fn pending_inserts_merge_on_demand() {
        let mut c = CrackerColumn::from_column(&base());
        c.crack_select(&RangePred::open(10, 15));
        c.queue_insert(13, 100);
        c.queue_insert(999, 101);
        assert_eq!(c.pending(), 2);
        let area = c.crack_select(&RangePred::open(10, 15));
        let mut pairs = area.head.iter().zip(area.tail);
        assert!(pairs.any(|(&v, &k)| v == 13 && k == 100));
        // The out-of-range insert stays pending.
        assert_eq!(c.pending(), 1);
        c.array().check_partitioning();
    }

    #[test]
    fn pending_deletes_merge_on_demand() {
        let mut c = CrackerColumn::from_column(&base());
        c.crack_select(&RangePred::open(10, 15));
        c.queue_delete(12, 0);
        assert_eq!(c.crack_select(&RangePred::open(10, 15)).head, &[11]);
        assert_eq!(c.pending(), 0);
    }

    #[test]
    fn update_then_query_other_range() {
        let mut c = CrackerColumn::from_column(&base());
        c.queue_insert(6, 50);
        // Query a range not containing 6: insert must remain pending and
        // invisible.
        let keys = c.select_keys(&RangePred::open(10, 15));
        assert!(!keys.contains(&50));
        assert_eq!(c.pending(), 1);
        // Now query a range containing 6.
        let keys = c.select_keys(&RangePred::open(5, 8));
        assert!(keys.contains(&50));
        assert_eq!(c.pending(), 0);
    }

    /// A column created for its first query skips the excluded keys
    /// and answers like a column over the live rows.
    #[test]
    fn for_query_skips_excluded_keys() {
        let col = base();
        let pred = RangePred::open(2, 16);
        let mut c = CrackerColumn::for_query(&col, &[0, 4, 12], &pred);
        assert_eq!(c.len(), col.len() - 3);
        let mut keys = c.select_keys(&pred);
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 2, 3, 6, 8, 11]);
        c.array().check_partitioning();
    }

    #[test]
    fn merge_all_pending() {
        let mut c = CrackerColumn::from_column(&base());
        c.queue_insert(1, 60);
        c.queue_delete(12, 0);
        c.merge_all_pending();
        assert_eq!(c.pending(), 0);
        assert_eq!(c.len(), base().len()); // one in, one out
    }

    /// Everything observable about a cracker column.
    type State = (
        Vec<Val>,
        Vec<RowId>,
        Vec<(BoundaryKey, usize, bool)>,
        u64,
        u64,
    );

    fn state(c: &CrackerColumn) -> State {
        let arr = c.array();
        let index = arr.index().boundaries_with_status();
        (
            arr.head().to_vec(),
            arr.tail().to_vec(),
            index,
            arr.touched(),
            c.cracks,
        )
    }

    /// A base column of `n` pseudo-random values below 2^40, as large as
    /// an `ide_sessions` session's.
    fn big_column(n: usize, seed: u64) -> Column {
        let mut state = seed;
        let vals = (0..n).map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 24) as Val
        });
        Column::new(vals.collect())
    }

    /// The first query of the benchmark-scale columns.
    fn first() -> RangePred {
        RangePred::open(1 << 39, (1 << 39) + (1 << 30))
    }

    /// A 6M-row column built for its first predicate is, after that
    /// predicate's crack, bit for bit the plain copy after the same
    /// crack: the plan fires, so the seed replaces the copy's
    /// prepartition. Release builds only: `cargo test --release --
    /// --ignored`.
    #[test]
    #[ignore]
    fn first_query_column_of_6m_rows_equals_copy_then_crack() {
        let col = big_column(6_000_000, 46);
        assert!(SeedPlan::new(col.values(), &[], &first()).is_some());
        let mut fused = CrackerColumn::for_query(&col, &[], &first());
        let mut copied = CrackerColumn::from_column(&col);
        let range = fused.crack_select_span(&first());
        assert_eq!(range, copied.crack_select_span(&first()));
        assert!(copied.array().index().advisory_count() > 50);
        assert_eq!(state(&fused), state(&copied));
    }

    /// The same with about 1% of the keys excluded, against a column
    /// built from a copy of the live rows: its key `j` is the `j`-th
    /// live key.
    #[test]
    #[ignore]
    fn first_query_column_without_excluded_keys_equals_live_copy() {
        let col = big_column(6_000_000, 47);
        let excluded: Vec<RowId> = (0..col.len() as RowId)
            .filter(|k| k.wrapping_mul(2654435761) % 100 == 0)
            .collect();
        let live: Vec<RowId> = (0..col.len() as RowId)
            .filter(|k| excluded.binary_search(k).is_err())
            .collect();
        let live_col = Column::new(live.iter().map(|&k| col.get(k)).collect());
        assert!(SeedPlan::new(col.values(), &excluded, &first()).is_some());
        let mut fused = CrackerColumn::for_query(&col, &excluded, &first());
        let mut copied = CrackerColumn::from_column(&live_col);
        let range = fused.crack_select_span(&first());
        assert_eq!(range, copied.crack_select_span(&first()));
        let (head, keys, index, touched, cracks) = state(&copied);
        let keys: Vec<RowId> = keys.iter().map(|&j| live[j as usize]).collect();
        assert_eq!(state(&fused), (head, keys, index, touched, cracks));
    }
}
