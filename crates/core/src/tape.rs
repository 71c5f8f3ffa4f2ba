//! The cracker tape `T_A` (§3.2): an append-only log of every operation
//! that physically reorganized any map of a map set.
//!
//! Each map carries a *cursor* into its set's tape; aligning a map means
//! replaying all entries between its cursor and the tape's end. Because
//! the crack and ripple kernels are deterministic, two maps whose cursors
//! point at the same entry are positionally identical ("physically
//! aligned").
//!
//! Besides cracks, the tape logs update batches (§3.5): the first time a
//! set merges pending insertions/deletions, the merged subset is recorded
//! so every other map replays exactly the same update at the same point.
//!
//! A crack entry holds only its predicate: every map cracks exactly at
//! the predicate's bounds, so replay reproduces each crack
//! bit-identically.

use crackdb_columnstore::types::{RangePred, RowId, Val};

/// One logged reorganization (plain data: replay copies the entry out
/// of the tape and reads the batch it names in place).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TapeEntry {
    /// A selection predicate that cracked some map of the set.
    Crack(RangePred),
    /// Merge of insert batch `id` (index into [`Tape::insert_batches`]).
    Inserts(u32),
    /// Merge of delete batch `id` (index into [`Tape::delete_batches`]).
    Deletes(u32),
}

/// An insertion batch: the keys of the merged tuples. Attribute values are
/// read from the (append-only) base columns at replay time.
#[derive(Debug, Clone, Default)]
pub struct InsertBatch {
    /// Keys of the tuples merged by this batch.
    pub keys: Vec<RowId>,
}

/// A deletion batch: `(head value, key)` of each deleted tuple, plus the
/// physical positions at which the deletions were performed, recorded by
/// the first structure to replay the batch so that every map deletes
/// exactly the same physical slots. A cracker map finds them by value;
/// the key map (`M_A,key`) by key, when the values are ambiguous or it
/// is the first to cross.
#[derive(Debug, Clone, Default)]
pub struct DeleteBatch {
    /// Head value and key of each deleted tuple.
    pub items: Vec<(Val, RowId)>,
    /// Physical delete positions, in execution order, recorded at this
    /// batch's unique tape position. `None` until the first structure
    /// crosses the entry.
    pub resolved: Option<Vec<usize>>,
}

/// The tape of a map set, together with its update batches.
#[derive(Debug, Clone, Default)]
pub struct Tape {
    entries: Vec<TapeEntry>,
    /// Insert batches referenced by [`TapeEntry::Inserts`].
    pub insert_batches: Vec<InsertBatch>,
    /// Delete batches referenced by [`TapeEntry::Deletes`].
    pub delete_batches: Vec<DeleteBatch>,
}

impl Tape {
    /// Empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Number of entries; also the cursor value meaning "fully aligned".
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry at position `i`.
    pub fn entry(&self, i: usize) -> &TapeEntry {
        &self.entries[i]
    }

    /// Log a crack predicate; returns its tape position.
    pub fn log_crack(&mut self, pred: RangePred) -> usize {
        self.entries.push(TapeEntry::Crack(pred));
        self.entries.len() - 1
    }

    /// Log an insert batch; returns its tape position.
    pub fn log_inserts(&mut self, batch: InsertBatch) -> usize {
        let id = self.insert_batches.len() as u32;
        self.insert_batches.push(batch);
        self.entries.push(TapeEntry::Inserts(id));
        self.entries.len() - 1
    }

    /// Log a delete batch; returns its tape position.
    pub fn log_deletes(&mut self, batch: DeleteBatch) -> usize {
        let id = self.delete_batches.len() as u32;
        self.delete_batches.push(batch);
        self.entries.push(TapeEntry::Deletes(id));
        self.entries.len() - 1
    }

    /// Distance from `cursor` to the tape end — the paper's measure of how
    /// *unaligned* a map is (used to pick the most-aligned map for
    /// histogram estimates, §3.3).
    pub fn lag(&self, cursor: usize) -> usize {
        self.entries.len().saturating_sub(cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logging_and_lag() {
        let mut t = Tape::new();
        assert!(t.is_empty());
        let p0 = t.log_crack(RangePred::open(1, 5));
        let p1 = t.log_inserts(InsertBatch { keys: vec![7] });
        let p2 = t.log_deletes(DeleteBatch {
            items: vec![(3, 2)],
            resolved: None,
        });
        assert_eq!((p0, p1, p2), (0, 1, 2));
        assert_eq!(t.len(), 3);
        assert_eq!(t.lag(0), 3);
        assert_eq!(t.lag(3), 0);
        assert_eq!(t.lag(10), 0);
    }

    #[test]
    fn entries_are_replayable() {
        let mut t = Tape::new();
        t.log_crack(RangePred::open(1, 5));
        t.log_inserts(InsertBatch { keys: vec![1, 2] });
        match t.entry(1) {
            TapeEntry::Inserts(id) => {
                assert_eq!(t.insert_batches[*id as usize].keys, vec![1, 2]);
            }
            other => panic!("unexpected entry {other:?}"),
        }
    }
}
