//! Base column (BAT) and table representations.
//!
//! MonetDB stores a relation of `k` attributes as `k` Binary Association
//! Tables of `(key, attr)` pairs, where the key is a dense ascending
//! sequence kept *virtual* (non-materialized). We mirror that: a
//! [`Column`] is just the attr vector, resident in RAM; the key of
//! position `i` is `i`.

use crate::types::{RowId, Val};

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

/// A single base column. Position `i` holds the attribute value of the
/// relational tuple with (virtual) key `i`.
#[derive(Debug, Clone, Default)]
pub struct Column {
    values: Vec<Val>,
}

impl Column {
    /// Build a column from raw values.
    pub fn new(values: Vec<Val>) -> Self {
        Column { values }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the column holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at position `key`.
    #[inline(always)]
    pub fn get(&self, key: RowId) -> Val {
        self.values[key as usize]
    }

    /// Raw value slice (the BAT tail).
    pub fn values(&self) -> &[Val] {
        &self.values
    }

    /// Append a value (used by the update path); returns its key.
    pub fn push(&mut self, v: Val) -> RowId {
        self.values.push(v);
        (self.values.len() - 1) as RowId
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
}
