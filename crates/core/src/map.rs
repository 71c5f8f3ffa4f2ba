//! Cracker maps (§3.1): the two-column `(head, tail)` tables that sideways
//! cracking materializes per attribute pair, plus the special key map
//! `M_A,key` for plans that need keys and ambiguous deletions (§3.5).
//!
//! Maps that queries use together are stored as one *map group*: one
//! head array, one cracker index and one tape cursor shared by `k` tail
//! columns, so every crack, ripple and tape replay happens once for all
//! of them. Aligned maps are byte-identical in head and index anyway
//! (§3.2), so a group holds exactly what its `k` maps would. A one-tail
//! group is a plain cracker map.

use crackdb_columnstore::types::{RowId, Val};
use crackdb_cracking::CrackedArray;

/// A map group: the cracker maps `M_AB`, `M_AC`, … of one set that share
/// a head (values of attribute `A`, physically reorganized — cracked —
/// as a side effect of queries), one tail column per attribute, and a
/// cursor into the set's tape recording how far their reorganization
/// history has progressed.
#[derive(Debug, Clone)]
pub struct CrackerMap {
    /// Attribute index of each tail (`B`, `C`, …), in column order.
    pub tail_attrs: Vec<usize>,
    /// The cracked head array, its tail columns and their index.
    pub arr: CrackedArray<Val>,
    /// Tape position of the next entry this group has *not* yet applied.
    pub cursor: usize,
    /// How many queries touched each tail, in column order (LFU storage
    /// management).
    pub accesses: Vec<u64>,
}

impl CrackerMap {
    /// Seed a group from a freshly seeded array (one tail column per
    /// attribute) with an empty reorganization history (cursor at tape
    /// position 0 — the group must replay the whole tape to align with
    /// its siblings).
    pub fn seed(tail_attrs: Vec<usize>, arr: CrackedArray<Val>) -> Self {
        CrackerMap {
            accesses: vec![0; tail_attrs.len()],
            tail_attrs,
            arr,
            cursor: 0,
        }
    }

    /// Storage footprint in map tuples (the paper's unit: one map row =
    /// one tuple of budget). A group of `k` tails over `n` tuples holds
    /// `n` head and `k n` tail values, `n (k + 1) / 2` two-column rows.
    pub fn tuples(&self) -> usize {
        self.arr.len() * (self.tail_attrs.len() + 1) / 2
    }

    /// The column of `tail_attr`, if this group holds it.
    pub fn column(&self, tail_attr: usize) -> Option<usize> {
        self.tail_attrs.iter().position(|&a| a == tail_attr)
    }

    /// Tail values of `tail_attr` (empty if the group does not hold it).
    pub fn tail(&self, tail_attr: usize) -> &[Val] {
        self.column(tail_attr).map_or(&[], |c| self.arr.tail_at(c))
    }

    /// Are all of this group's tails among `attrs`? Only such groups of
    /// a query merge, so every group holds maps one query used together.
    pub fn within(&self, attrs: &[usize]) -> bool {
        self.tail_attrs.iter().all(|a| attrs.contains(a))
    }

    /// Take over `other`'s tails (a group merge). Both must be aligned
    /// to the same cursor, where they are physically identical.
    pub fn merge(&mut self, other: CrackerMap) {
        debug_assert_eq!(self.cursor, other.cursor, "merged groups differ in cursor");
        self.arr.append_tails(other.arr);
        self.tail_attrs.extend(other.tail_attrs);
        self.accesses.extend(other.accesses);
    }
}

/// The key map `M_A,key`: head = values of `A`, tail = tuple keys. It is
/// aligned through the same tape and built only when needed: to provide
/// `(value, key)` results when a plan needs tuple identities (e.g. before
/// a join), and to resolve the physical positions of a delete batch that
/// a map group cannot resolve by value (a deleted tuple with a live
/// twin equal on the head and every tail).
#[derive(Debug, Clone)]
pub struct KeyMap {
    /// The cracked head/key arrays and their index.
    pub arr: CrackedArray<RowId>,
    /// Tape position of the next entry not yet applied.
    pub cursor: usize,
    /// Access counter.
    pub accesses: u64,
}

impl KeyMap {
    /// Seed from a freshly seeded array at tape position 0.
    pub fn seed(arr: CrackedArray<RowId>) -> Self {
        KeyMap {
            arr,
            cursor: 0,
            accesses: 0,
        }
    }

    /// Storage footprint in tuples.
    pub fn tuples(&self) -> usize {
        self.arr.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_columnstore::types::RangePred;

    #[test]
    fn seed_and_crack() {
        let mut m = CrackerMap::seed(vec![1], CrackedArray::new(vec![3, 1, 2], vec![30, 10, 20]));
        let r = m.arr.crack_range(&RangePred::closed(2, 3));
        let (h, t) = m.arr.view(r);
        let mut pairs: Vec<_> = h.iter().zip(t).collect();
        pairs.sort();
        assert_eq!(pairs, vec![(&2, &20), (&3, &30)]);
        assert_eq!(m.cursor, 0);
    }

    #[test]
    fn key_map_tracks_keys() {
        let mut km = KeyMap::seed(CrackedArray::new(vec![3, 1, 2], vec![0, 1, 2]));
        let r = km.arr.crack_range(&RangePred::point(1));
        let (_, keys) = km.arr.view(r);
        assert_eq!(keys, &[1]);
        assert_eq!(km.tuples(), 3);
    }
}
