//! The "ultimate physical design" baseline: a presorted copy of the table.
//!
//! The paper's strongest competitor keeps, for each restriction attribute
//! `A`, a full copy of the relation sorted on `A`. Selections become binary
//! searches; every projected attribute is already positionally aligned with
//! the selection result, so tuple reconstruction is a contiguous slice read.
//! The price is the heavy presorting step (measured by
//! [`PresortedTable::build`]'s wall time in the benchmarks), plus the
//! inability to absorb updates cheaply — exactly the trade-off sideways
//! cracking removes.

use crate::column::Table;
use crate::ops::sort::{apply_permutation, sort_permutation};
use crate::types::{RangePred, RowId, Val};

/// A copy of a table fully sorted on one attribute, with the original tuple
/// keys materialized so results can be mapped back when needed.
#[derive(Debug, Clone)]
pub struct PresortedTable {
    /// Index (in the source table) of the sort attribute.
    sort_col: usize,
    /// All columns re-ordered by the sort permutation.
    columns: Vec<Vec<Val>>,
    /// `orig_keys[i]` is the original tuple key now living at position `i`.
    orig_keys: Vec<RowId>,
}

impl PresortedTable {
    /// Build the presorted copy — the expensive preparation step. Sorts on
    /// `sort_col` and applies the permutation to every column.
    pub fn build(table: &Table, sort_col: usize) -> Self {
        let perm = sort_permutation(table.column(sort_col).values());
        let columns = (0..table.num_columns())
            .map(|c| apply_permutation(table.column(c).values(), &perm))
            .collect();
        PresortedTable {
            sort_col,
            columns,
            orig_keys: perm,
        }
    }

    /// The attribute this copy is sorted on.
    pub fn sort_col(&self) -> usize {
        self.sort_col
    }

    /// Number of tuples.
    pub fn num_rows(&self) -> usize {
        self.orig_keys.len()
    }

    /// Binary-search selection on the sort attribute: returns the
    /// contiguous position range `[start, end)` of qualifying tuples.
    pub fn select_range(&self, pred: &RangePred) -> (usize, usize) {
        let vals = &self.columns[self.sort_col];
        let start = match pred.lo {
            None => 0,
            Some(b) => {
                if b.inclusive {
                    vals.partition_point(|&v| v < b.value)
                } else {
                    vals.partition_point(|&v| v <= b.value)
                }
            }
        };
        let end = match pred.hi {
            None => vals.len(),
            Some(b) => {
                if b.inclusive {
                    vals.partition_point(|&v| v <= b.value)
                } else {
                    vals.partition_point(|&v| v < b.value)
                }
            }
        };
        (start, end.max(start))
    }

    /// Aligned tuple reconstruction: project column `col` over a position
    /// range produced by [`Self::select_range`] — a contiguous slice, the
    /// best-case access pattern.
    pub fn project(&self, col: usize, range: (usize, usize)) -> &[Val] {
        &self.columns[col][range.0..range.1]
    }

    /// Original tuple keys for a selected range (needed when a downstream
    /// operator must join back to other tables).
    pub fn keys(&self, range: (usize, usize)) -> &[RowId] {
        &self.orig_keys[range.0..range.1]
    }

    /// Values of `col` at arbitrary positions of the *sorted* copy.
    pub fn column(&self, col: usize) -> &[Val] {
        &self.columns[col]
    }

    /// Insert a tuple (values in column order, original key `key`),
    /// keeping the copy sorted: a binary search finds the slot, then
    /// every column shifts — O(n) per copy, the §3.6 Exp6 maintenance
    /// cost the paper dismisses presorting for. Kept correct here so the
    /// presorted baseline can run the same update streams as the
    /// adaptive engines.
    pub fn insert_row(&mut self, row: &[Val], key: RowId) {
        let v = row[self.sort_col];
        let pos = self.columns[self.sort_col].partition_point(|&x| x <= v);
        for (c, col) in self.columns.iter_mut().enumerate() {
            col.insert(pos, row[c]);
        }
        self.orig_keys.insert(pos, key);
    }

    /// Remove the tuple with original key `key` (O(n) scan + shift per
    /// copy). Returns `false` when the key is not present.
    pub fn delete_key(&mut self, key: RowId) -> bool {
        let Some(pos) = self.orig_keys.iter().position(|&k| k == key) else {
            return false;
        };
        for col in &mut self.columns {
            col.remove(pos);
        }
        self.orig_keys.remove(pos);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, Table};

    fn table() -> Table {
        let mut t = Table::new();
        t.add_column("a", Column::new(vec![12, 3, 5, 9, 15, 22, 7]));
        t.add_column("b", Column::new(vec![70, 10, 20, 30, 50, 60, 25]));
        t
    }

    #[test]
    fn build_sorts_all_columns() {
        let p = PresortedTable::build(&table(), 0);
        assert_eq!(p.column(0), &[3, 5, 7, 9, 12, 15, 22]);
        assert_eq!(p.column(1), &[10, 20, 25, 30, 70, 50, 60]);
    }

    #[test]
    fn binary_search_select() {
        let p = PresortedTable::build(&table(), 0);
        let r = p.select_range(&RangePred::open(5, 15));
        assert_eq!(p.project(0, r), &[7, 9, 12]);
        assert_eq!(p.project(1, r), &[25, 30, 70]);
    }

    #[test]
    fn keys_map_back_to_original() {
        let t = table();
        let p = PresortedTable::build(&t, 0);
        let r = p.select_range(&RangePred::open(5, 15));
        for (&k, &v) in p.keys(r).iter().zip(p.project(0, r)) {
            assert_eq!(t.column(0).get(k), v);
        }
    }

    #[test]
    fn inclusive_bounds() {
        let p = PresortedTable::build(&table(), 0);
        let r = p.select_range(&RangePred::closed(5, 15));
        assert_eq!(p.project(0, r), &[5, 7, 9, 12, 15]);
    }

    #[test]
    fn unbounded_sides() {
        let p = PresortedTable::build(&table(), 0);
        let all = p.select_range(&RangePred::all());
        assert_eq!(all, (0, 7));
    }

    #[test]
    fn empty_result() {
        let p = PresortedTable::build(&table(), 0);
        let r = p.select_range(&RangePred::open(15, 16));
        assert_eq!(r.0, r.1);
    }

    #[test]
    fn insert_and_delete_keep_the_copy_sorted() {
        let t = table();
        let mut p = PresortedTable::build(&t, 0);
        p.insert_row(&[8, 28], 7);
        assert_eq!(p.column(0), &[3, 5, 7, 8, 9, 12, 15, 22]);
        assert_eq!(p.column(1), &[10, 20, 25, 28, 30, 70, 50, 60]);
        assert!(p.delete_key(0)); // original key 0: a=12, b=70
        assert_eq!(p.column(0), &[3, 5, 7, 8, 9, 15, 22]);
        assert!(!p.delete_key(0), "already removed");
        // Keys still map back for the surviving tuples.
        let r = p.select_range(&RangePred::closed(8, 9));
        assert_eq!(p.keys(r), &[7, 3]);
    }
}
