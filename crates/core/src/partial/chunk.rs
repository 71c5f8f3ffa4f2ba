//! A chunk of a partial map (§4.1): an independently cracked two-column
//! table covering one value range (area) of the head attribute, with its
//! own cracker index and its own cursor into the *area tape*.
//!
//! The head column is droppable ("Dropping the Head Column", §4.1): a
//! chunk that is no longer being cracked can shed half its storage; if a
//! later query needs to crack it after all, the head is recovered
//! deterministically by re-seeding from the chunk map and replaying the
//! area tape up to the chunk's cursor.

use super::AreaEntry;
use crackdb_columnstore::column::Column;
use crackdb_columnstore::types::{RangePred, Val};
use crackdb_cracking::index::pred_keys;
use crackdb_cracking::{BoundaryKey, CrackedArray, CrackerIndex};

/// One chunk of a partial map. Its buffers are those of a
/// [`CrackedArray`]: they start with the index's
/// [`CrackerIndex::origin`] free slots of front slack.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Head buffer; `None` after the head column was dropped.
    head: Option<Vec<Val>>,
    /// Tail (projected attribute) buffer.
    tail: Vec<Val>,
    /// Partitioning knowledge and front slack. Survives head drops, and
    /// (as a lazily deleted shell) even whole-chunk drops.
    index: CrackerIndex,
    /// Position in the area tape: entries `< cursor` have been applied.
    pub cursor: usize,
    /// LFU access counter.
    pub accesses: u64,
    /// Recency tiebreak for eviction.
    pub last_access: u64,
}

impl Chunk {
    /// Seed a fresh chunk from fetched head/tail values, optionally
    /// reviving a lazily deleted index shell (its nodes are reused as the
    /// tape replay re-records the same boundaries).
    pub fn seed(head: Vec<Val>, tail: Vec<Val>, shell: Option<CrackerIndex>) -> Self {
        assert_eq!(head.len(), tail.len());
        Chunk {
            head: Some(head),
            tail,
            index: shell.unwrap_or_default(),
            cursor: 0,
            accesses: 0,
            last_access: 0,
        }
    }

    /// Reassemble a chunk from deserialized spill-record parts: buffers
    /// with the index's origin of front slack. The cursor is the chunk's
    /// staged-update watermark: alignment resumes
    /// from it exactly as if the chunk had stayed resident, and the
    /// access bookkeeping (`accesses`, `last_access`) survives the
    /// round-trip so eviction scoring doesn't restart from cold.
    pub fn from_spill_parts(
        head: Option<Vec<Val>>,
        tail: Vec<Val>,
        index: CrackerIndex,
        cursor: usize,
        accesses: u64,
        last_access: u64,
    ) -> Self {
        if let Some(h) = &head {
            assert_eq!(h.len(), tail.len());
        }
        assert!(index.origin() <= tail.len(), "origin past the buffers");
        Chunk {
            head,
            tail,
            index,
            cursor,
            accesses,
            last_access,
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tail.len() - self.index.origin()
    }

    /// `true` when the chunk holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tail values (always present).
    pub fn tail(&self) -> &[Val] {
        &self.tail[self.index.origin()..]
    }

    /// Head values if not dropped.
    pub fn head(&self) -> Option<&[Val]> {
        let o = self.index.origin();
        self.head.as_deref().map(|h| &h[o..])
    }

    /// The head buffer, front slack included, for
    /// [`Self::restore_head`] on a chunk at the same tape cursor.
    pub fn into_head(self) -> Option<Vec<Val>> {
        self.head
    }

    /// `true` when the head column was dropped.
    pub fn head_dropped(&self) -> bool {
        self.head.is_none()
    }

    /// The chunk's cracker index.
    pub fn index(&self) -> &CrackerIndex {
        &self.index
    }

    /// Drop the head column, halving the chunk's value footprint at the
    /// price of losing the ability to crack without recovery.
    pub fn drop_head(&mut self) {
        self.head = None;
    }

    /// Restore a recovered head buffer (must be the deterministic rebuild
    /// for the current cursor, [`Self::into_head`] of a chunk replayed
    /// to it — the caller guarantees this).
    pub fn restore_head(&mut self, head: Vec<Val>) {
        assert_eq!(head.len(), self.tail.len());
        self.head = Some(head);
    }

    /// Largest piece size under the current partitioning (drives the
    /// "pieces fit in cache → drop head" policy).
    pub fn max_piece(&self) -> usize {
        let mut prev = 0;
        let mut largest = 0;
        for (_, pos) in self.index.boundaries() {
            largest = largest.max(pos - prev);
            prev = pos;
        }
        largest.max(self.len() - prev)
    }

    /// Are all of `keys` (crack boundaries) already present in the index?
    pub fn has_boundaries(&self, keys: &[BoundaryKey]) -> bool {
        keys.iter().all(|k| self.index.position_of(*k).is_some())
    }

    /// Run `f` on the chunk as a [`CrackedArray`].
    ///
    /// # Panics
    /// If the head column was dropped (recover it first).
    fn with_array<R>(&mut self, f: impl FnOnce(&mut CrackedArray<Val>) -> R) -> R {
        // INVARIANT: every caller that can reach a crack restores a
        // dropped head first (rebuild_head / restore_head); the panic is
        // the documented contract for direct misuse.
        let head = self.head.take().expect("cracking requires the head column");
        let tail = std::mem::take(&mut self.tail);
        let index = std::mem::take(&mut self.index);
        let mut arr = CrackedArray::from_parts(head, tail, index);
        let r = f(&mut arr);
        let (head, tail, index) = arr.into_parts();
        self.head = Some(head);
        self.tail = tail;
        self.index = index;
        r
    }

    /// Apply one area-tape entry. Cracks split exactly at the
    /// predicate's bounds — a pure function of the array state, so
    /// sibling chunks replaying the same tape stay bit-identical; the
    /// §3.5 update entries ripple one tuple in or out, reading the
    /// inserted tuple's head/tail values from the base columns
    /// (`head_col`, `tail_col`).
    pub fn apply(&mut self, entry: &AreaEntry, head_col: &Column, tail_col: &Column) {
        match *entry {
            AreaEntry::Crack(pred) => {
                self.crack_range(&pred);
            }
            AreaEntry::Insert(key) => {
                self.with_array(|a| a.ripple_insert(head_col.get(key), tail_col.get(key)));
            }
            AreaEntry::Delete { pos, .. } => {
                self.with_array(|a| {
                    a.ripple_delete_at(pos);
                });
            }
        }
    }

    /// Replay tape entries `[cursor, target)` — *partial alignment*.
    pub fn align_to(
        &mut self,
        tape: &[AreaEntry],
        target: usize,
        head_col: &Column,
        tail_col: &Column,
    ) -> usize {
        let mut replayed = 0;
        while self.cursor < target.min(tape.len()) {
            let entry = tape[self.cursor];
            self.apply(&entry, head_col, tail_col);
            self.cursor += 1;
            replayed += 1;
        }
        replayed
    }

    /// Monitored alignment (§4.1 "Partial Alignment"): keep replaying
    /// entries until all `needed` boundaries exist or the tape ends.
    /// Returns `(entries_replayed, still_missing)`; the caller cracks
    /// when boundaries are still missing.
    pub fn align_until_boundaries(
        &mut self,
        tape: &[AreaEntry],
        needed: &[BoundaryKey],
        head_col: &Column,
        tail_col: &Column,
    ) -> (usize, bool) {
        let mut replayed = 0;
        while !self.has_boundaries(needed) && self.cursor < tape.len() {
            let entry = tape[self.cursor];
            self.apply(&entry, head_col, tail_col);
            self.cursor += 1;
            replayed += 1;
        }
        (replayed, !self.has_boundaries(needed))
    }

    /// Crack the chunk by `pred` and return the qualifying local range.
    pub fn crack_range(&mut self, pred: &RangePred) -> (usize, usize) {
        self.with_array(|a| a.crack_range(pred))
    }

    /// The qualifying local range for `pred` assuming all its boundaries
    /// (clipped to this chunk) already exist — never reorganizes, so it
    /// works on head-dropped chunks.
    pub fn range_of(&self, pred: &RangePred) -> (usize, usize) {
        let n = self.len();
        let (lo_k, hi_k) = pred_keys(pred);
        let start = lo_k.map_or(0, |k| {
            self.index
                .position_of(k)
                .unwrap_or_else(|| self.index.enclosing_piece(k, n).0)
        });
        let end = hi_k.map_or(n, |k| {
            self.index
                .position_of(k)
                .unwrap_or_else(|| self.index.enclosing_piece(k, n).1)
        });
        (start, end.max(start))
    }

    /// Take the index out as a lazily deleted shell (chunk being
    /// dropped).
    pub fn into_shell(self) -> CrackerIndex {
        self.index.into_shell()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_cracking::crack::BoundKind;

    fn chunk() -> Chunk {
        Chunk::seed(
            vec![12, 3, 5, 9, 15, 22, 7],
            vec![120, 30, 50, 90, 150, 220, 70],
            None,
        )
    }

    /// Placeholder base column for crack-only tapes (update entries read
    /// values from the base; cracks never do).
    fn no_col() -> Column {
        Column::new(Vec::new())
    }

    fn cracks(preds: &[RangePred]) -> Vec<AreaEntry> {
        preds.iter().map(|&p| AreaEntry::Crack(p)).collect()
    }

    #[test]
    fn crack_and_view() {
        let mut c = chunk();
        let (s, e) = c.crack_range(&RangePred::open(4, 13));
        let mut vals: Vec<_> = c.tail()[s..e].to_vec();
        vals.sort_unstable();
        assert_eq!(vals, vec![50, 70, 90, 120]);
    }

    #[test]
    fn align_replays_tape() {
        let tape = cracks(&[RangePred::open(4, 13), RangePred::open(8, 20)]);
        let nc = no_col();
        let mut a = chunk();
        let mut b = chunk();
        // a applies entries as queries; b aligns later.
        a.apply(&tape[0], &nc, &nc);
        a.apply(&tape[1], &nc, &nc);
        a.cursor = 2;
        let replayed = b.align_to(&tape, 2, &nc, &nc);
        assert_eq!(replayed, 2);
        assert_eq!(a.head().unwrap(), b.head().unwrap());
        assert_eq!(a.tail(), b.tail());
    }

    #[test]
    fn monitored_alignment_stops_early() {
        let tape = cracks(&[
            RangePred::open(4, 13),
            RangePred::open(8, 20),
            RangePred::open(1, 6),
        ]);
        let nc = no_col();
        let mut c = chunk();
        // Boundary for "A > 8" appears in entry 1; alignment must stop
        // after applying it, leaving entry 2 unapplied.
        let needed = [(8, BoundKind::Le)];
        let (replayed, missing) = c.align_until_boundaries(&tape, &needed, &nc, &nc);
        assert_eq!(replayed, 2);
        assert!(!missing);
        assert_eq!(c.cursor, 2);
    }

    #[test]
    fn monitored_alignment_exhausts_tape() {
        let tape = cracks(&[RangePred::open(4, 13)]);
        let nc = no_col();
        let mut c = chunk();
        let needed = [(100, BoundKind::Lt)];
        let (_, missing) = c.align_until_boundaries(&tape, &needed, &nc, &nc);
        assert!(missing);
        assert_eq!(c.cursor, 1);
    }

    #[test]
    fn update_entries_replay_like_siblings() {
        // Two chunks of the same area replaying a tape with merged
        // updates end up physically identical.
        let head_col = Column::new(vec![0, 0, 0, 0, 0, 0, 0, 6]);
        let tail_col = Column::new(vec![0, 0, 0, 0, 0, 0, 0, 60]);
        let tape = vec![
            AreaEntry::Crack(RangePred::open(4, 13)),
            AreaEntry::Insert(7),
            AreaEntry::Delete {
                val: 9,
                key: 3,
                pos: 3,
            },
        ];
        let mut a = chunk();
        let mut b = chunk();
        a.align_to(&tape, 3, &head_col, &tail_col);
        b.align_to(&tape, 3, &head_col, &tail_col);
        assert_eq!(a.head().unwrap(), b.head().unwrap());
        assert_eq!(a.tail(), b.tail());
        assert_eq!(a.len(), 7); // 7 original + 1 insert - 1 delete
        assert!(a.tail().contains(&60));
    }

    #[test]
    fn head_drop_and_range_of() {
        let mut c = chunk();
        c.crack_range(&RangePred::open(4, 13));
        c.drop_head();
        assert!(c.head_dropped());
        let (s, e) = c.range_of(&RangePred::open(4, 13));
        let mut vals: Vec<_> = c.tail()[s..e].to_vec();
        vals.sort_unstable();
        assert_eq!(vals, vec![50, 70, 90, 120]);
    }

    #[test]
    #[should_panic(expected = "head column")]
    fn cracking_dropped_head_panics() {
        let mut c = chunk();
        c.drop_head();
        c.crack_range(&RangePred::open(4, 13));
    }

    #[test]
    fn shell_roundtrip_revives_knowledge() {
        let mut c = chunk();
        c.crack_range(&RangePred::open(4, 13));
        let nodes_before = c.index().boundaries().len();
        let shell = c.into_shell();
        // Recreate with the shell: replaying the same crack revives nodes.
        let mut c2 = Chunk::seed(
            vec![12, 3, 5, 9, 15, 22, 7],
            vec![120, 30, 50, 90, 150, 220, 70],
            Some(shell),
        );
        assert_eq!(c2.index().len(), 0, "shell starts all-deleted");
        c2.crack_range(&RangePred::open(4, 13));
        assert_eq!(c2.index().boundaries().len(), nodes_before);
        assert_eq!(c2.index().total_nodes(), nodes_before);
    }

    #[test]
    fn max_piece_shrinks_with_cracks() {
        let mut c = chunk();
        assert_eq!(c.max_piece(), 7);
        c.crack_range(&RangePred::open(4, 13));
        assert!(c.max_piece() < 7);
    }
}
