//! Test support shared by the spill suites: a copy of a table whose
//! columns are segmented (file-backed). A partial set over such a table
//! rebuilds an evicted chunk through a bounded segment cache, so with a
//! spill tier attached it spills its chunks instead of dropping them.

use crackdb_columnstore::column::{Column, Table};
use crackdb_columnstore::storage::SegmentedColumn;
use crackdb_columnstore::types::RowId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Values per segment: small, so one chunk's regather crosses segments.
const SEGMENT_LEN: usize = 32;
/// Segments each column's cache keeps resident.
const CACHE_SEGMENTS: usize = 2;

/// `table` with every column rewritten as a segmented column holding the
/// same values. The segment files go to a fresh temporary directory that
/// is removed again before returning: each column keeps its file open,
/// and an unlinked file stays readable until its last handle closes.
pub fn segmented(table: &Table) -> Table {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "crackdb-segmented-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create the segment dir");
    let mut out = Table::new();
    for (i, name) in table.names().iter().enumerate() {
        let col = table.column(i);
        let path = dir.join(format!("{i}.seg"));
        let seg = SegmentedColumn::create_with(path, col.len(), SEGMENT_LEN, CACHE_SEGMENTS, |k| {
            col.get(k as RowId)
        })
        .expect("write a segment file");
        out.add_column(name.clone(), Column::segmented(seg));
    }
    std::fs::remove_dir_all(&dir).expect("remove the segment dir");
    assert!(!out.is_resident());
    out
}
