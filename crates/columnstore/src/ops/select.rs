//! The `select(A, v1, v2)` operator: scan a base column, return qualifying
//! keys (positions) in tuple-insertion order.
//!
//! Because base columns are stored in insertion order and the scan visits
//! them sequentially, the result key list is ordered — downstream
//! [`reconstruct`](crate::ops::reconstruct) calls then enjoy in-order
//! positional lookups, the cache-friendly pattern the paper contrasts with
//! selection cracking's unordered results.

use crate::column::Column;
use crate::types::{RangePred, RowId};

/// Full-scan range selection over a base column. Returns qualifying keys in
/// ascending (insertion) order.
pub fn select(col: &Column, pred: &RangePred) -> Vec<RowId> {
    let Some(iv) = pred.interval() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (i, &v) in col.values().iter().enumerate() {
        if iv.contains(v) {
            out.push(i as RowId);
        }
    }
    out
}

/// Count qualifying tuples without materializing keys (used by aggregate
/// pushdown and tests).
pub fn count(col: &Column, pred: &RangePred) -> usize {
    pred.interval().map_or(0, |iv| {
        col.values().iter().filter(|&&v| iv.contains(v)).count()
    })
}

/// Intersect an ordered key list with a predicate on another column:
/// keeps keys whose value in `col` matches `pred`. This is the plain
/// column-store plan for conjunctive multi-attribute selections (scan the
/// first column, then probe the remaining ones positionally).
pub fn refine(col: &Column, keys: &[RowId], pred: &RangePred) -> Vec<RowId> {
    let Some(iv) = pred.interval() else {
        return Vec::new();
    };
    keys.iter()
        .copied()
        .filter(|&k| iv.contains(col.get(k)))
        .collect()
}

/// Union-style refinement for disjunctions: returns the ordered merge of
/// `keys` with all other positions in `col` matching `pred`.
pub fn union_scan(col: &Column, keys: &[RowId], pred: &RangePred) -> Vec<RowId> {
    let iv = pred.interval();
    let mut out = Vec::with_capacity(keys.len());
    let mut ki = 0usize;
    for (i, &v) in col.values().iter().enumerate() {
        let i = i as RowId;
        let in_keys = ki < keys.len() && keys[ki] == i;
        if in_keys {
            ki += 1;
        }
        if in_keys || iv.is_some_and(|iv| iv.contains(v)) {
            out.push(i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RangePred;

    fn col() -> Column {
        Column::new(vec![12, 3, 5, 9, 15, 22, 7, 26, 4, 2])
    }

    #[test]
    fn select_open_range() {
        // The paper's Figure 1 query: 10 < A < 15 over the example column.
        let keys = select(&col(), &RangePred::open(10, 15));
        assert_eq!(keys, vec![0]); // only value 12 at position 0
    }

    #[test]
    fn select_is_ordered() {
        let keys = select(&col(), &RangePred::open(2, 16));
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys, vec![0, 1, 2, 3, 4, 6, 8]);
    }

    #[test]
    fn count_matches_select_len() {
        let p = RangePred::open(4, 23);
        assert_eq!(count(&col(), &p), select(&col(), &p).len());
    }

    #[test]
    fn refine_conjunction() {
        let c1 = col();
        let c2 = Column::new(vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let keys = select(&c1, &RangePred::open(2, 16)); // 0,1,2,3,4,6,8
        let refined = refine(&c2, &keys, &RangePred::open(3, 8));
        // keys where c2 value in (3,8): positions 3(4),4(5),6(7)
        assert_eq!(refined, vec![3, 4, 6]);
    }

    #[test]
    fn union_scan_disjunction() {
        let c = Column::new(vec![1, 5, 9, 5, 1]);
        let keys = vec![0]; // already-qualifying keys
        let merged = union_scan(&c, &keys, &RangePred::point(5));
        assert_eq!(merged, vec![0, 1, 3]);
    }

    #[test]
    fn union_scan_no_duplicates_when_overlapping() {
        let c = Column::new(vec![1, 5, 9]);
        let keys = vec![1];
        let merged = union_scan(&c, &keys, &RangePred::point(5));
        assert_eq!(merged, vec![1]);
    }
}
