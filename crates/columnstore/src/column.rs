//! Base column (BAT) and table representations.
//!
//! MonetDB stores a relation of `k` attributes as `k` Binary Association
//! Tables of `(key, attr)` pairs, where the key is a dense ascending
//! sequence kept *virtual* (non-materialized). We mirror that: a
//! [`Column`] is just the attr vector; the key of position `i` is `i`.
//!
//! A column's tail lives in one of two storage tiers:
//!
//! * **Resident** — a plain `Vec<Val>` in RAM (the default; every
//!   operator works on it, and [`Column::values`] exposes the raw slice);
//! * **Segmented** — a fixed-size-segment file read on demand through a
//!   bounded segment cache ([`crate::storage::SegmentedColumn`]), plus a
//!   small resident *overlay* holding rows appended after load (the
//!   update path stays infallible for freshly inserted keys).
//!
//! Random access on a segmented column can fail (disk I/O, checksum
//! mismatch); query paths use the fallible [`Column::try_get`] /
//! [`Column::try_gather`] / [`Column::try_for_each_segment`] and surface
//! a [`StorageError`]. The infallible [`Column::get`] stays the hot-path
//! API for resident columns and panics only on an actual storage failure.

use crate::storage::{SegmentedColumn, StorageError};
use crate::types::{RowId, Val};
use std::borrow::Cow;
use std::sync::Arc;

/// Spare capacity, in tuples, that a copy of `n` tuples reserves when it
/// will take inserts later: `n / 64`. Reserved at the copies crackdb
/// makes anyway (a shard's base columns, a seeded map), so a shard's
/// first appended row or a map's first merged insert does not
/// reallocate and copy the whole array. A seeded map reserves as many
/// free slots at its front. It is capacity only: lengths, and so every
/// tuple count, stay the same.
pub const fn insert_headroom(n: usize) -> usize {
    n / 64
}

/// Storage tier behind a [`Column`].
#[derive(Debug, Clone)]
enum ColumnData {
    /// Fully in RAM.
    Resident(Vec<Val>),
    /// File-backed base values plus a resident overlay of appended rows:
    /// key `k` maps to the file when `k < seg.len()` and to
    /// `overlay[k - seg.len()]` otherwise.
    Segmented {
        seg: SegmentedColumn,
        overlay: Vec<Val>,
    },
}

/// A single base column. Position `i` holds the attribute value of the
/// relational tuple with (virtual) key `i`.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
}

impl Default for Column {
    fn default() -> Self {
        Column {
            data: ColumnData::Resident(Vec::new()),
        }
    }
}

impl Column {
    /// Build a resident column from raw values.
    pub fn new(values: Vec<Val>) -> Self {
        Column {
            data: ColumnData::Resident(values),
        }
    }

    /// Build a file-backed column over a segmented file.
    pub fn segmented(seg: SegmentedColumn) -> Self {
        Column {
            data: ColumnData::Segmented {
                seg,
                overlay: Vec::new(),
            },
        }
    }

    /// `true` when the tail is fully in RAM.
    pub fn is_resident(&self) -> bool {
        matches!(self.data, ColumnData::Resident(_))
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Resident(v) => v.len(),
            ColumnData::Segmented { seg, overlay } => seg.len() + overlay.len(),
        }
    }

    /// `true` when the column holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at position `key`.
    ///
    /// # Panics
    /// On a segmented column, if the segment read fails (I/O error or
    /// checksum mismatch). Query execution paths use [`Column::try_get`]
    /// and surface a typed error instead; this infallible accessor is for
    /// resident columns and singleton lookups.
    #[inline(always)]
    pub fn get(&self, key: RowId) -> Val {
        match &self.data {
            ColumnData::Resident(v) => v[key as usize],
            ColumnData::Segmented { .. } => self
                .try_get(key)
                // INVARIANT: the documented contract of this infallible
                // accessor — query paths use `try_get`; a failed segment
                // read here is unrecoverable corruption, not control flow.
                .unwrap_or_else(|e| panic!("segmented column read failed: {e}")),
        }
    }

    /// Value at position `key`, surfacing storage failures.
    #[inline]
    pub fn try_get(&self, key: RowId) -> Result<Val, StorageError> {
        match &self.data {
            ColumnData::Resident(v) => Ok(v[key as usize]),
            ColumnData::Segmented { seg, overlay } => {
                let k = key as usize;
                if k < seg.len() {
                    seg.get(key)
                } else {
                    Ok(overlay[k - seg.len()])
                }
            }
        }
    }

    /// Gather the values of `keys` in order, feeding each to `consume`.
    /// On a segmented column the last touched segment is memoized, so
    /// gathers with locality pay one cache probe per segment switch
    /// instead of one per key.
    pub fn try_gather(
        &self,
        keys: impl IntoIterator<Item = RowId>,
        mut consume: impl FnMut(Val),
    ) -> Result<(), StorageError> {
        match &self.data {
            ColumnData::Resident(v) => {
                for k in keys {
                    consume(v[k as usize]);
                }
                Ok(())
            }
            ColumnData::Segmented { seg, overlay } => {
                let base = seg.len();
                let mut memo: Option<(u32, Arc<Vec<Val>>)> = None;
                for k in keys {
                    let ku = k as usize;
                    let v = if ku < base {
                        seg.get_with_memo(k, &mut memo)?
                    } else {
                        overlay[ku - base]
                    };
                    consume(v);
                }
                Ok(())
            }
        }
    }

    /// Stream the whole tail in key order as `(first_key, values)` runs.
    /// Resident columns yield one run; segmented columns yield one run
    /// per segment (reads bypass the segment cache) plus the overlay.
    pub fn try_for_each_segment(
        &self,
        mut f: impl FnMut(usize, &[Val]),
    ) -> Result<(), StorageError> {
        match &self.data {
            ColumnData::Resident(v) => {
                f(0, v);
                Ok(())
            }
            ColumnData::Segmented { seg, overlay } => {
                seg.for_each_segment(&mut f)?;
                if !overlay.is_empty() {
                    f(seg.len(), overlay);
                }
                Ok(())
            }
        }
    }

    /// The whole tail as one slice on either tier: borrowed from a
    /// resident column, streamed segment-wise (bypassing the segment
    /// cache) into an owned copy from a segmented one. For bulk
    /// consumers that read every value once, such as map seeding.
    pub fn try_contiguous(&self) -> Result<Cow<'_, [Val]>, StorageError> {
        match &self.data {
            ColumnData::Resident(v) => Ok(Cow::Borrowed(v)),
            ColumnData::Segmented { .. } => {
                let mut out = Vec::with_capacity(self.len());
                self.try_for_each_segment(|_, vals| out.extend_from_slice(vals))?;
                Ok(Cow::Owned(out))
            }
        }
    }

    /// Raw value slice (the BAT tail).
    ///
    /// # Panics
    /// On a segmented column — a file-backed tail has no contiguous
    /// resident slice. Operators that need raw slices (radix clustering,
    /// shard partitioning) require resident columns.
    pub fn values(&self) -> &[Val] {
        match &self.data {
            ColumnData::Resident(v) => v,
            ColumnData::Segmented { .. } => {
                // INVARIANT: documented panic — slice-requiring operators
                // are only dispatched on resident columns (see `# Panics`).
                panic!("values(): segmented column has no resident slice; this operator requires resident storage")
            }
        }
    }

    /// Bytes currently resident in RAM for this column (full tail for
    /// resident columns; cached segments + overlay for segmented ones).
    pub fn resident_bytes(&self) -> usize {
        match &self.data {
            ColumnData::Resident(v) => v.len() * 8,
            ColumnData::Segmented { seg, overlay } => seg.resident_bytes() + overlay.len() * 8,
        }
    }

    /// Append a value (used by the update path); returns its key.
    /// Appends to a segmented column land in the resident overlay.
    pub fn push(&mut self, v: Val) -> RowId {
        match &mut self.data {
            ColumnData::Resident(vals) => {
                vals.push(v);
                (vals.len() - 1) as RowId
            }
            ColumnData::Segmented { seg, overlay } => {
                overlay.push(v);
                (seg.len() + overlay.len() - 1) as RowId
            }
        }
    }
}

/// A relational table as a set of equally long, tuple-order-aligned columns.
#[derive(Debug, Clone, Default)]
pub struct Table {
    names: Vec<String>,
    columns: Vec<Column>,
    len: usize,
}

impl Table {
    /// Create an empty table.
    pub fn new() -> Self {
        Table::default()
    }

    /// Add a named column; all columns must have equal length.
    ///
    /// # Panics
    /// If the column length differs from existing columns, or the name is
    /// already taken.
    pub fn add_column(&mut self, name: impl Into<String>, col: Column) -> usize {
        let name = name.into();
        assert!(
            self.columns.is_empty() || col.len() == self.len,
            "column {name} has length {} but table has {}",
            col.len(),
            self.len
        );
        assert!(!self.names.contains(&name), "duplicate column name {name}");
        if self.columns.is_empty() {
            self.len = col.len();
        }
        self.names.push(name);
        self.columns.push(col);
        self.columns.len() - 1
    }

    /// Number of tuples.
    pub fn num_rows(&self) -> usize {
        self.len
    }

    /// Number of attributes.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column by index.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column names in declaration order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// `true` when every column tail is fully in RAM.
    pub fn is_resident(&self) -> bool {
        self.columns.iter().all(Column::is_resident)
    }

    /// Bytes currently resident in RAM across all columns.
    pub fn resident_bytes(&self) -> usize {
        self.columns.iter().map(Column::resident_bytes).sum()
    }

    /// Append one tuple given values in column order (update path).
    ///
    /// # Panics
    /// If `row.len()` differs from the number of columns.
    pub fn append_row(&mut self, row: &[Val]) -> RowId {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        for (c, &v) in self.columns.iter_mut().zip(row) {
            c.push(v);
        }
        self.len += 1;
        (self.len - 1) as RowId
    }

    /// Materialize one tuple by key.
    pub fn row(&self, key: RowId) -> Vec<Val> {
        self.columns.iter().map(|c| c.get(key)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SegmentedColumn;
    use std::path::PathBuf;

    fn sample() -> Table {
        let mut t = Table::new();
        t.add_column("a", Column::new(vec![1, 2, 3]));
        t.add_column("b", Column::new(vec![10, 20, 30]));
        t
    }

    #[test]
    fn construction_and_lookup() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.names(), ["a", "b"]);
        assert_eq!(t.column(1).get(1), 20);
        assert_eq!(t.row(2), vec![3, 30]);
    }

    #[test]
    fn append_row_extends_all_columns() {
        let mut t = sample();
        let k = t.append_row(&[4, 40]);
        assert_eq!(k, 3);
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.column(0).get(3), 4);
        assert_eq!(t.column(1).get(3), 40);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn mismatched_column_length_panics() {
        let mut t = sample();
        t.add_column("c", Column::new(vec![1]));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_name_panics() {
        let mut t = sample();
        t.add_column("a", Column::new(vec![0, 0, 0]));
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("crackdb-column-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn segmented_column_reads_and_overlay() {
        let path = tmp("segcol");
        let seg = SegmentedColumn::create_with(&path, 100, 16, 2, |i| i as Val * 2).unwrap();
        let mut c = Column::segmented(seg);
        assert!(!c.is_resident());
        assert_eq!(c.len(), 100);
        assert_eq!(c.get(0), 0);
        assert_eq!(c.try_get(99).unwrap(), 198);
        // Appends land in the overlay and read back infallibly.
        assert_eq!(c.push(777), 100);
        assert_eq!(c.len(), 101);
        assert_eq!(c.try_get(100).unwrap(), 777);
        // Gather mixes file-backed and overlay keys.
        let mut got = Vec::new();
        c.try_gather([5u32, 50, 100, 0], |v| got.push(v)).unwrap();
        assert_eq!(got, vec![10, 100, 777, 0]);
        // Full scan sees file segments then the overlay.
        let mut all = Vec::new();
        c.try_for_each_segment(|start, vals| {
            assert_eq!(start, all.len());
            all.extend_from_slice(vals);
        })
        .unwrap();
        assert_eq!(all.len(), 101);
        assert_eq!(all[100], 777);
        // One slice on either tier: copied here, borrowed when resident.
        assert_eq!(c.try_contiguous().unwrap(), all);
        let r = Column::new(vec![4, 2]);
        assert!(matches!(r.try_contiguous().unwrap(), Cow::Borrowed([4, 2])));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "resident")]
    fn segmented_values_panics() {
        let path = tmp("segvals");
        let seg = SegmentedColumn::create_with(&path, 10, 4, 2, |i| i as Val).unwrap();
        let c = Column::segmented(seg);
        let _ = std::fs::remove_file(&path);
        let _ = c.values();
    }
}
