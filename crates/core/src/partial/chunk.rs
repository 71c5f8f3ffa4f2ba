//! A chunk group of a partial map set (§4.1): the chunks of one area
//! that queries use together, as one independently cracked table — one
//! head column (the area's values of the set's head attribute), one
//! tail column per map, one cracker index and one cursor into the *area
//! tape*. Chunks of one area at one cursor are byte-identical in head
//! and index (§4.1's alignment), so a group holds exactly what its `k`
//! chunks would, and every crack, merged update and replay happens once
//! for all of them. A one-tail group is a plain chunk.
//!
//! The head column is droppable ("Dropping the Head Column", §4.1): a
//! group that is no longer being cracked can shed it; if a later query
//! needs to crack it after all, the head is recovered deterministically
//! by re-seeding from the chunk map and replaying the area tape up to
//! the group's cursor.

use super::AreaEntry;
use crackdb_columnstore::column::Table;
use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_cracking::index::pred_keys;
use crackdb_cracking::{BoundaryKey, CrackedArray, CrackerIndex};

/// One chunk group of a partial map set: a [`CrackedArray`] with one
/// tail column per map, whose head may be out.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Attribute of each tail column, in column order.
    tail_attrs: Vec<usize>,
    /// Head, tails and index. The index survives head drops, and (as a
    /// lazily deleted shell) even whole-group drops.
    arr: CrackedArray<Val>,
    /// `true` while the head column is dropped.
    head_dropped: bool,
    /// Position in the area tape: entries `< cursor` have been applied.
    pub cursor: usize,
    /// LFU access counter.
    pub accesses: u64,
    /// Recency tiebreak for eviction.
    pub last_access: u64,
}

impl Chunk {
    /// Fetch the group of `tail_attrs` over one area of the chunk map,
    /// given as its `(head, key)` pairs: one copy of the heads and one
    /// gather from `base` per tail, optionally reviving a lazily deleted
    /// index shell (its nodes are reused as the tape replay re-records
    /// the same boundaries).
    ///
    /// # Panics
    /// If there is no tail (and the area is not empty).
    pub fn gather(
        tail_attrs: Vec<usize>,
        (heads, keys): (&[Val], &[RowId]),
        base: &Table,
        shell: Option<CrackerIndex>,
    ) -> Self {
        let head = heads.to_vec();
        let mut tails = tail_attrs.iter().map(|&a| {
            let col = base.column(a).values();
            keys.iter().map(|&k| col[k as usize]).collect()
        });
        let first = tails.next().unwrap_or_default();
        let mut arr = CrackedArray::from_parts(head, first, shell.unwrap_or_default());
        tails.for_each(|t| arr.push_tail(t));
        Chunk {
            tail_attrs,
            arr,
            head_dropped: false,
            cursor: 0,
            accesses: 0,
            last_access: 0,
        }
    }

    /// Number of tuples (read off a tail: the head may be out).
    pub fn len(&self) -> usize {
        self.arr.tail().len()
    }

    /// `true` when the group holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attribute of each tail column, in column order.
    pub fn tail_attrs(&self) -> &[usize] {
        &self.tail_attrs
    }

    /// The group's identity within its area: its least tail attribute
    /// (an attribute has at most one group per area).
    pub fn id(&self) -> usize {
        self.tail_attrs.iter().copied().min().unwrap_or_default()
    }

    /// Storage footprint in map tuples, as `CrackerMap::tuples` counts a
    /// map group: `n` head and `k n` tail values are `n (k + 1) / 2`
    /// two-column rows.
    pub fn tuples(&self) -> usize {
        self.len() * (self.tail_attrs.len() + 1) / 2
    }

    /// Does the group hold the chunk of `attr`?
    pub fn holds(&self, attr: usize) -> bool {
        self.tail_attrs.contains(&attr)
    }

    /// Are all of the group's tails among `attrs`? Only such groups of
    /// a query merge, so every group holds chunks one query used
    /// together.
    pub fn within(&self, attrs: &[usize]) -> bool {
        self.tail_attrs.iter().all(|a| attrs.contains(a))
    }

    /// Tail values of `attr`, if the group holds it.
    pub fn tail(&self, attr: usize) -> Option<&[Val]> {
        let c = self.tail_attrs.iter().position(|&a| a == attr)?;
        Some(self.arr.tail_at(c))
    }

    /// Take over `other`'s tails (a group merge). Both must be aligned
    /// to the same cursor, where they are physically identical; the
    /// merged group has a head if either had one.
    pub fn merge(&mut self, mut other: Chunk) {
        debug_assert_eq!(self.cursor, other.cursor, "merged groups differ in cursor");
        if self.head_dropped && !other.head_dropped {
            self.restore_head(other.drop_head());
        }
        self.arr.append_tails(other.arr);
        self.tail_attrs.extend(other.tail_attrs);
        self.accesses = self.accesses.max(other.accesses);
        self.last_access = self.last_access.max(other.last_access);
    }

    /// Head values if not dropped.
    pub fn head(&self) -> Option<&[Val]> {
        (!self.head_dropped).then(|| self.arr.head())
    }

    /// `true` when the head column was dropped.
    pub fn head_dropped(&self) -> bool {
        self.head_dropped
    }

    /// The group's cracker index.
    pub fn index(&self) -> &CrackerIndex {
        self.arr.index()
    }

    /// Drop the head column, shedding `1 / (k + 1)` of the group's
    /// values at the price of losing the ability to crack without
    /// recovery. Returns the head buffer, front slack included.
    pub fn drop_head(&mut self) -> Vec<Val> {
        self.head_dropped = true;
        self.arr.replace_head(Vec::new())
    }

    /// Restore a head buffer: the one [`Self::drop_head`] returned, or
    /// the deterministic rebuild for the current cursor (the caller
    /// guarantees this).
    pub fn restore_head(&mut self, head: Vec<Val>) {
        assert_eq!(head.len(), self.len() + self.arr.index().origin());
        self.arr.replace_head(head);
        self.head_dropped = false;
    }

    /// Largest piece size under the current partitioning (drives the
    /// "pieces fit in cache → drop head" policy).
    pub fn max_piece(&self) -> usize {
        let mut prev = 0;
        let mut largest = 0;
        for (_, pos) in self.arr.index().boundaries() {
            largest = largest.max(pos - prev);
            prev = pos;
        }
        largest.max(self.len() - prev)
    }

    /// Are all of `keys` (crack boundaries) already present in the index?
    pub fn has_boundaries(&self, keys: &[BoundaryKey]) -> bool {
        keys.iter()
            .all(|k| self.arr.index().position_of(*k).is_some())
    }

    /// The array, for an operation that reorganizes it.
    ///
    /// # Panics
    /// If the head column was dropped (recover it first).
    fn cracked(&mut self) -> &mut CrackedArray<Val> {
        assert!(!self.head_dropped, "cracking requires the head column");
        &mut self.arr
    }

    /// Apply one area-tape entry. Cracks split exactly at the
    /// predicate's bounds — a pure function of the array state, so
    /// sibling groups replaying the same tape stay bit-identical; the
    /// §3.5 update entries ripple one tuple in or out, reading the
    /// inserted tuple's values from the base columns (`head_attr` and
    /// each tail's).
    pub fn apply(&mut self, entry: &AreaEntry, base: &Table, head_attr: usize) {
        match *entry {
            AreaEntry::Crack(pred) => {
                self.crack_range(&pred);
            }
            AreaEntry::Insert(key) => {
                let row: Vec<Val> = self
                    .tail_attrs
                    .iter()
                    .map(|&a| base.column(a).get(key))
                    .collect();
                let v = base.column(head_attr).get(key);
                self.cracked().ripple_insert_row(v, &row);
            }
            AreaEntry::Delete { pos, .. } => {
                self.cracked().ripple_delete_at(pos);
            }
        }
    }

    /// Replay tape entries `[cursor, target)` — *partial alignment*.
    pub fn align_to(
        &mut self,
        tape: &[AreaEntry],
        target: usize,
        base: &Table,
        head_attr: usize,
    ) -> usize {
        let mut replayed = 0;
        while self.cursor < target.min(tape.len()) {
            self.apply(&tape[self.cursor], base, head_attr);
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
        base: &Table,
        head_attr: usize,
    ) -> (usize, bool) {
        let mut replayed = 0;
        while !self.has_boundaries(needed) && self.cursor < tape.len() {
            self.apply(&tape[self.cursor], base, head_attr);
            self.cursor += 1;
            replayed += 1;
        }
        (replayed, !self.has_boundaries(needed))
    }

    /// Crack the group by `pred` and return the qualifying local range.
    ///
    /// # Panics
    /// If the head column was dropped (recover it first).
    pub fn crack_range(&mut self, pred: &RangePred) -> (usize, usize) {
        self.cracked().crack_range(pred)
    }

    /// The qualifying local range for `pred` assuming all its boundaries
    /// (clipped to this area) already exist — never reorganizes, so it
    /// works on head-dropped groups.
    pub fn range_of(&self, pred: &RangePred) -> (usize, usize) {
        let (n, index) = (self.len(), self.arr.index());
        let (lo_k, hi_k) = pred_keys(pred);
        let start = lo_k.map_or(0, |k| {
            index
                .position_of(k)
                .unwrap_or_else(|| index.enclosing_piece(k, n).0)
        });
        let end = hi_k.map_or(n, |k| {
            index
                .position_of(k)
                .unwrap_or_else(|| index.enclosing_piece(k, n).1)
        });
        (start, end.max(start))
    }

    /// Take the index out as a lazily deleted shell (group being
    /// dropped).
    pub fn into_shell(mut self) -> CrackerIndex {
        std::mem::take(self.arr.index_mut()).into_shell()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_columnstore::column::Column;
    use crackdb_cracking::crack::BoundKind;

    const HEAD: [Val; 7] = [12, 3, 5, 9, 15, 22, 7];

    /// The group of `attrs` over the area of every row of a table whose
    /// attribute `a > 0` holds `HEAD` times `[10, 11, 12, 1][a - 1]`
    /// (plus 1 for attribute 4).
    pub(super) fn group(attrs: &[usize], shell: Option<CrackerIndex>) -> Chunk {
        let mut base = Table::new();
        base.add_column("a0", Column::new(HEAD.to_vec()));
        for m in [10, 11, 12, 1] {
            let col = HEAD.iter().map(|v| v * m + Val::from(m == 1)).collect();
            base.add_column(format!("x{m}"), Column::new(col));
        }
        let keys: Vec<RowId> = (0..HEAD.len() as RowId).collect();
        Chunk::gather(attrs.to_vec(), (&HEAD, &keys), &base, shell)
    }

    /// A one-tail group of attribute 1, tail values ten times the head's.
    fn chunk() -> Chunk {
        group(&[1], None)
    }

    /// Placeholder base for crack-only tapes (update entries read
    /// values from the base; cracks never do).
    fn no_base() -> Table {
        Table::new()
    }

    fn cracks(preds: &[RangePred]) -> Vec<AreaEntry> {
        preds.iter().map(|&p| AreaEntry::Crack(p)).collect()
    }

    #[test]
    fn crack_and_view() {
        let mut c = chunk();
        let (s, e) = c.crack_range(&RangePred::open(4, 13));
        let mut vals: Vec<_> = c.tail(1).unwrap()[s..e].to_vec();
        vals.sort_unstable();
        assert_eq!(vals, vec![50, 70, 90, 120]);
        assert_eq!(c.tail(2), None);
    }

    #[test]
    fn align_replays_tape() {
        let tape = cracks(&[RangePred::open(4, 13), RangePred::open(8, 20)]);
        let nb = no_base();
        let mut a = chunk();
        let mut b = chunk();
        // a applies entries as queries; b aligns later.
        a.apply(&tape[0], &nb, 0);
        a.apply(&tape[1], &nb, 0);
        a.cursor = 2;
        let replayed = b.align_to(&tape, 2, &nb, 0);
        assert_eq!(replayed, 2);
        assert_eq!(a.head().unwrap(), b.head().unwrap());
        assert_eq!(a.tail(1), b.tail(1));
    }

    #[test]
    fn monitored_alignment_stops_early() {
        let tape = cracks(&[
            RangePred::open(4, 13),
            RangePred::open(8, 20),
            RangePred::open(1, 6),
        ]);
        let mut c = chunk();
        // Boundary for "A > 8" appears in entry 1; alignment must stop
        // after applying it, leaving entry 2 unapplied.
        let needed = [(8, BoundKind::Le)];
        let (replayed, missing) = c.align_until_boundaries(&tape, &needed, &no_base(), 0);
        assert_eq!(replayed, 2);
        assert!(!missing);
        assert_eq!(c.cursor, 2);
    }

    #[test]
    fn monitored_alignment_exhausts_tape() {
        let tape = cracks(&[RangePred::open(4, 13)]);
        let mut c = chunk();
        let needed = [(100, BoundKind::Lt)];
        let (_, missing) = c.align_until_boundaries(&tape, &needed, &no_base(), 0);
        assert!(missing);
        assert_eq!(c.cursor, 1);
    }

    #[test]
    fn update_entries_replay_like_siblings() {
        // A two-tail group and the one-tail chunk of its first tail,
        // replaying a tape with merged updates, end up physically
        // identical.
        let mut base = Table::new();
        base.add_column("a0", Column::new(vec![0, 0, 0, 0, 0, 0, 0, 6]));
        base.add_column("a1", Column::new(vec![0, 0, 0, 0, 0, 0, 0, 60]));
        base.add_column("a2", Column::new(vec![0, 0, 0, 0, 0, 0, 0, 61]));
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
        let mut b = group(&[1, 2], None);
        a.align_to(&tape, 3, &base, 0);
        b.align_to(&tape, 3, &base, 0);
        assert_eq!(a.head().unwrap(), b.head().unwrap());
        assert_eq!(a.tail(1), b.tail(1));
        assert_eq!(a.len(), 7); // 7 original + 1 insert - 1 delete
        assert!(a.tail(1).unwrap().contains(&60));
        assert!(b.tail(2).unwrap().contains(&61));
        assert_eq!((a.tuples(), b.tuples()), (7, 10));
    }

    #[test]
    fn head_drop_and_range_of() {
        let mut c = chunk();
        c.crack_range(&RangePred::open(4, 13));
        let head = c.drop_head();
        assert!(c.head_dropped());
        assert_eq!(c.head(), None);
        let (s, e) = c.range_of(&RangePred::open(4, 13));
        let mut vals: Vec<_> = c.tail(1).unwrap()[s..e].to_vec();
        vals.sort_unstable();
        assert_eq!(vals, vec![50, 70, 90, 120]);
        c.restore_head(head);
        assert_eq!(c.crack_range(&RangePred::open(4, 13)), (s, e));
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
        let mut c2 = group(&[1], Some(shell));
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

    /// Merging keeps a head when only one side has one, and the merged
    /// group answers for both sides' tails.
    #[test]
    fn merge_keeps_the_head_either_side_had() {
        let mut a = chunk();
        let mut b = group(&[4], None);
        for c in [&mut a, &mut b] {
            c.crack_range(&RangePred::open(4, 13));
        }
        a.drop_head();
        a.merge(b);
        assert_eq!((a.tail_attrs(), a.id()), (&[1, 4][..], 1));
        assert!(!a.head_dropped());
        let (s, e) = a.crack_range(&RangePred::open(4, 13));
        let mut vals: Vec<_> = a.tail(4).unwrap()[s..e].to_vec();
        vals.sort_unstable();
        assert_eq!(vals, vec![6, 8, 10, 13]);
        assert_eq!(a.tuples(), 10);
    }
}
