//! Row-wise horizontal partitioning helpers.
//!
//! The sharded execution layer (`crackdb-engine`'s `ShardedEngine`)
//! splits a base table into contiguous row ranges, one per shard, and
//! gives every shard its own fully independent engine. The helpers here
//! own the arithmetic that layer needs: computing near-equal cuts,
//! slicing a [`Table`] along them, and translating tuple keys between
//! the global (unsharded) key space and a shard's local key space.
//!
//! The key-space contract: shard `s` holds the global rows
//! `[cuts[s], cuts[s+1])` in their original order, so a shard-local key
//! `l` corresponds to global key `cuts[s] + l` and vice versa. Keeping
//! this mapping explicit (rather than baked into each caller) is what
//! lets differential tests drive a sharded and an unsharded engine with
//! the *same* key stream.

use crate::column::{insert_headroom, Column, Table};
use crate::types::RowId;

/// The cut positions of a row-wise partitioning: `shards + 1` ascending
/// offsets with `cuts[0] == 0` and `cuts[shards] == rows`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCuts {
    cuts: Vec<usize>,
}

impl ShardCuts {
    /// Near-equal contiguous cuts of `rows` tuples into `shards` parts
    /// (the first `rows % shards` shards get one extra tuple). Shards may
    /// be empty when `shards > rows`.
    ///
    /// # Panics
    /// If `shards == 0`.
    pub fn even(rows: usize, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let base = rows / shards;
        let rem = rows % shards;
        let mut cuts = Vec::with_capacity(shards + 1);
        let mut lo = 0;
        cuts.push(0);
        for s in 0..shards {
            lo += base + usize::from(s < rem);
            cuts.push(lo);
        }
        ShardCuts { cuts }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.cuts.len() - 1
    }

    /// Total rows covered.
    pub fn total_rows(&self) -> usize {
        // INVARIANT: the constructor always pushes cut 0 first, so
        // `cuts` holds at least one element for the whole lifetime.
        *self.cuts.last().expect("cuts are never empty")
    }

    /// Global row range `[start, end)` of shard `s`.
    pub fn range(&self, s: usize) -> (usize, usize) {
        (self.cuts[s], self.cuts[s + 1])
    }

    /// Number of rows in shard `s`.
    pub fn len_of(&self, s: usize) -> usize {
        self.cuts[s + 1] - self.cuts[s]
    }

    /// Map a global key into `(shard, local key)`.
    ///
    /// # Panics
    /// If `key` is outside the partitioned range.
    pub fn locate(&self, key: RowId) -> (usize, RowId) {
        let k = key as usize;
        assert!(k < self.total_rows(), "key {key} outside partitioning");
        // partition_point: first cut > k, minus one, is k's shard. Empty
        // shards share a cut value and are skipped automatically.
        let s = self.cuts.partition_point(|&c| c <= k) - 1;
        (s, (k - self.cuts[s]) as RowId)
    }

    /// Cuts matching already-partitioned parts of the given sizes (the
    /// inverse of [`partition_table`]: data that arrives pre-sharded).
    ///
    /// # Panics
    /// If `sizes` is empty.
    pub fn from_sizes(sizes: impl IntoIterator<Item = usize>) -> Self {
        let mut cuts = vec![0];
        let mut lo = 0;
        for s in sizes {
            lo += s;
            cuts.push(lo);
        }
        assert!(cuts.len() > 1, "need at least one shard");
        ShardCuts { cuts }
    }
}

impl Table {
    /// A new table holding rows `[lo, hi)` of this one (same columns,
    /// same order). A shard takes its inserts as appended rows, so each
    /// column reserves [`insert_headroom`] spare capacity.
    ///
    /// # Panics
    /// If `lo > hi` or `hi` exceeds the row count.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Table {
        assert!(lo <= hi && hi <= self.num_rows(), "bad row range");
        let n = hi - lo;
        let mut out = Table::new();
        for (i, name) in self.names().iter().enumerate() {
            let mut vals = Vec::with_capacity(n + insert_headroom(n));
            vals.extend_from_slice(&self.column(i).values()[lo..hi]);
            out.add_column(name.clone(), Column::new(vals));
        }
        out
    }
}

/// Split `table` into one sub-table per shard along `cuts`. Concatenating
/// the results in shard order reproduces `table` exactly.
pub fn partition_table(table: &Table, cuts: &ShardCuts) -> Vec<Table> {
    assert_eq!(
        cuts.total_rows(),
        table.num_rows(),
        "cuts must cover the table"
    );
    (0..cuts.shard_count())
        .map(|s| {
            let (lo, hi) = cuts.range(s);
            table.slice_rows(lo, hi)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize) -> Table {
        let mut t = Table::new();
        t.add_column("a", Column::new((0..n as i64).collect()));
        t.add_column("b", Column::new((0..n as i64).map(|v| v * 10).collect()));
        t
    }

    #[test]
    fn even_cuts_cover_exactly() {
        for rows in [0usize, 1, 5, 7, 100] {
            for shards in [1usize, 2, 3, 7, 11] {
                let c = ShardCuts::even(rows, shards);
                assert_eq!(c.shard_count(), shards);
                assert_eq!(c.total_rows(), rows);
                let total: usize = (0..shards).map(|s| c.len_of(s)).sum();
                assert_eq!(total, rows);
                // Sizes differ by at most one. min/max default to 0 so
                // the 0-shard degenerate case (should `even` ever stop
                // rejecting it) reports a clean assertion failure
                // instead of an unwrap panic inside the test itself.
                let sizes: Vec<usize> = (0..shards).map(|s| c.len_of(s)).collect();
                let mn = sizes.iter().copied().min().unwrap_or(0);
                let mx = sizes.iter().copied().max().unwrap_or(0);
                assert!(mx - mn <= 1, "{rows} rows x {shards} shards: {sizes:?}");
            }
        }
    }

    #[test]
    fn locate_roundtrips_through_range() {
        let c = ShardCuts::even(10, 3); // 4, 3, 3
        for key in 0..10u32 {
            let (s, local) = c.locate(key);
            let (lo, hi) = c.range(s);
            assert!((lo..hi).contains(&(key as usize)));
            assert_eq!(lo + local as usize, key as usize);
        }
        assert_eq!(c.locate(0), (0, 0));
        assert_eq!(c.locate(4), (1, 0));
        assert_eq!(c.locate(9), (2, 2));
    }

    #[test]
    fn locate_skips_empty_shards() {
        let c = ShardCuts::even(2, 5); // 1, 1, 0, 0, 0
        assert_eq!(c.locate(0), (0, 0));
        assert_eq!(c.locate(1), (1, 0));
        assert_eq!(c.len_of(3), 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn locate_rejects_out_of_range() {
        ShardCuts::even(3, 2).locate(3);
    }

    #[test]
    fn partition_concat_identity() {
        let t = table(11);
        let cuts = ShardCuts::even(11, 4);
        let parts = partition_table(&t, &cuts);
        assert_eq!(parts.len(), 4);
        for col in 0..t.num_columns() {
            let concat: Vec<i64> = parts
                .iter()
                .flat_map(|p| p.column(col).values().iter().copied())
                .collect();
            assert_eq!(concat, t.column(col).values());
        }
        // Names preserved.
        assert_eq!(parts[0].names(), t.names());
    }

    #[test]
    fn partition_with_empty_shards() {
        let t = table(3);
        let parts = partition_table(&t, &ShardCuts::even(3, 7));
        assert_eq!(parts.len(), 7);
        assert_eq!(parts.iter().map(Table::num_rows).sum::<usize>(), 3);
        assert!(parts[5].num_rows() == 0 && parts[5].num_columns() == 2);
    }

    /// The 0-row / 0-shard degenerate cases `tests/degenerate.rs`
    /// stresses at the engine layer, pinned here at the helper layer:
    /// every total operation stays total on empty input, and the
    /// partial ones reject it with their documented message instead of
    /// an incidental unwrap panic.
    #[test]
    fn zero_row_degenerate_cases_are_total() {
        let c = ShardCuts::even(0, 3);
        assert_eq!(c.total_rows(), 0);
        assert_eq!((0..3).map(|s| c.len_of(s)).sum::<usize>(), 0);
        assert_eq!(c.range(2), (0, 0));
        // Partitioning a 0-row table yields empty shards with the
        // schema intact.
        let t = table(0);
        let parts = partition_table(&t, &c);
        assert_eq!(parts.len(), 3);
        assert!(parts
            .iter()
            .all(|p| p.num_rows() == 0 && p.num_columns() == 2));
        // Empty-boundary slicing and all-empty from_sizes stay total.
        assert_eq!(t.slice_rows(0, 0).num_rows(), 0);
        let z = ShardCuts::from_sizes([0, 0, 0]);
        assert_eq!(z.total_rows(), 0);
        assert_eq!(z.shard_count(), 3);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn locate_on_zero_rows_rejects_every_key() {
        ShardCuts::even(0, 2).locate(0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_are_rejected() {
        ShardCuts::even(10, 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn from_sizes_rejects_no_shards() {
        ShardCuts::from_sizes(Vec::new());
    }

    #[test]
    fn from_sizes_inverts_partitioning() {
        let even = ShardCuts::even(10, 3);
        assert_eq!(ShardCuts::from_sizes([4, 3, 3]), even);
        let uneven = ShardCuts::from_sizes([0, 5, 2]);
        assert_eq!(uneven.shard_count(), 3);
        assert_eq!(uneven.total_rows(), 7);
        assert_eq!(uneven.locate(4), (1, 4));
        assert_eq!(uneven.locate(5), (2, 0));
    }
}
