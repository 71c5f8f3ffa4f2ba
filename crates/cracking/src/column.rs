//! Selection cracking (Idreos et al., CIDR 2007): the cracker column and
//! its `crackers.select` operator, with ripple updates (SIGMOD 2007).
//!
//! This is the baseline the SIGMOD'09 paper improves upon: selections get
//! continuously faster, but because the cracker column is physically
//! reorganized, selection results are no longer aligned with base columns
//! and reconstructing any *other* attribute degenerates to random access.
//! The cracked attribute itself needs no reconstruction: `crackers.select`
//! returns a view ([`CrackedArea`]) whose head slice holds its values.

use crate::cracked::CrackedArray;
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
    /// Create the cracker column by copying a base column (the paper's
    /// "first time an attribute is required" step). The column is copied
    /// before its first query is known, so this is a plain copy; the
    /// first crack prepartitions it. Unlike a seeded map it reserves no
    /// insert headroom: here spare capacity measured slower first
    /// queries, from where the allocator placed the copy.
    pub fn from_column(col: &Column) -> Self {
        let keys: Vec<RowId> = (0..col.len() as RowId).collect();
        CrackerColumn {
            arr: CrackedArray::new(col.values().to_vec(), keys.to_vec()),
            pending_inserts: Vec::new(),
            pending_deletes: Vec::new(),
            cracks: 0,
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

    #[test]
    fn merge_all_pending() {
        let mut c = CrackerColumn::from_column(&base());
        c.queue_insert(1, 60);
        c.queue_delete(12, 0);
        c.merge_all_pending();
        assert_eq!(c.pending(), 0);
        assert_eq!(c.len(), base().len()); // one in, one out
    }
}
