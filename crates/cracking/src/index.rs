//! The cracker index: an ordered map from *boundary keys* to the
//! positions where crack values partition a physical array, plus the
//! piece arithmetic and the self-organizing-histogram estimates of §3.3.
//!
//! The paper's MonetDB implementation keeps this map in an AVL tree;
//! here it is std's B-tree ([`BTreeMap`]). What the index needs of it:
//!
//! * strict `floor` / `ceil` neighbour lookups to locate the piece a
//!   value falls into;
//! * in-order piece walks (the index doubles as a *self-organizing
//!   histogram*, §3.3);
//! * **lazy deletion** (§4.1): when a chunk is dropped, its boundaries
//!   are only marked deleted, so the partitioning knowledge can be
//!   revived if the chunk is recreated;
//! * the ripple walk behind [`crate::CrackedArray::ripple_insert`] and
//!   its delete twins: ripple updates grow or shrink the array by one
//!   tuple and move every boundary above the update by one slot, in one
//!   descending pass.

use crate::crack::BoundKind;
use crackdb_columnstore::types::{Bound, RangePred, Val};
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};

/// A boundary key: the crack value plus which side of it belongs to the
/// left piece. `(v, Lt)` sorts before `(v, Le)` so that the pieces
/// `< v`, `== v`, `> v` nest correctly.
pub type BoundaryKey = (Val, BoundKind);

/// Derive the boundary key whose *position* is the start of the qualifying
/// area for a lower bound.
pub fn lo_key(b: Bound) -> BoundaryKey {
    if b.inclusive {
        // A >= v: left piece < v.
        (b.value, BoundKind::Lt)
    } else {
        // A > v: left piece <= v.
        (b.value, BoundKind::Le)
    }
}

/// Derive the boundary key whose *position* is the end of the qualifying
/// area for an upper bound.
pub fn hi_key(b: Bound) -> BoundaryKey {
    if b.inclusive {
        // A <= v: left piece <= v.
        (b.value, BoundKind::Le)
    } else {
        // A < v: left piece < v.
        (b.value, BoundKind::Lt)
    }
}

/// Convert a range predicate into its (lower, upper) boundary keys.
pub fn pred_keys(pred: &RangePred) -> (Option<BoundaryKey>, Option<BoundaryKey>) {
    (pred.lo.map(lo_key), pred.hi.map(hi_key))
}

/// Result-size estimate from the cracker index (§3.3 "Self-organizing
/// Histograms").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeEstimate {
    /// Lower bound on qualifying tuples (whole pieces known inside).
    pub lower: usize,
    /// Upper bound (all touched pieces).
    pub upper: usize,
    /// Interpolated point estimate within `[lower, upper]`.
    pub estimate: f64,
    /// `true` when the bounds matched existing cracks exactly.
    pub exact: bool,
}

/// What the index knows about one boundary.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Position of the boundary in the cracked array; stale once the
    /// boundary is lazily deleted.
    pos: usize,
    /// Lazily deleted: invisible to every lookup but
    /// [`CrackerIndex::position_any`], revived by the next record.
    deleted: bool,
    /// Cut by a prepartition (see [`crate::CrackedArray::prepartition`])
    /// rather than mandated by a query predicate. Physically it
    /// partitions the array exactly like a query boundary; the flag
    /// exists for instrumentation and for the property tests ("every
    /// query bound is in the index and not advisory").
    advisory: bool,
}

/// The live `(key, pos)` of a map entry, `None` if lazily deleted.
fn live((&key, e): (&BoundaryKey, &Entry)) -> Option<(BoundaryKey, usize)> {
    (!e.deleted).then_some((key, e.pos))
}

/// The cracker index proper: an ordered map from boundary keys to
/// positions into the cracked array, with lazy deletion.
#[derive(Debug, Clone, Default)]
pub struct CrackerIndex {
    map: BTreeMap<BoundaryKey, Entry>,
    /// Number of entries not lazily deleted.
    live: usize,
}

impl CrackerIndex {
    /// Empty index (one piece spanning the whole array).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live boundaries; the array has `len() + 1` pieces.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when the array is one uncracked piece.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total entries including lazily deleted ones (storage-reuse tests).
    pub fn total_nodes(&self) -> usize {
        self.map.len()
    }

    /// Position of a live boundary, if this exact boundary was cracked.
    pub fn position_of(&self, key: BoundaryKey) -> Option<usize> {
        self.map.get(&key).filter(|e| !e.deleted).map(|e| e.pos)
    }

    /// Position of a boundary even if lazily deleted: `(pos, deleted)`.
    pub fn position_any(&self, key: BoundaryKey) -> Option<(usize, bool)> {
        self.map.get(&key).map(|e| (e.pos, e.deleted))
    }

    /// Insert or revive boundary `key` at `pos`. It ends up advisory iff
    /// `advisory` is set and it was not a live query-mandated boundary.
    fn upsert(&mut self, key: BoundaryKey, pos: usize, advisory: bool) {
        // A new key enters as a deleted entry, so that one revival path
        // below counts it live.
        let e = self.map.entry(key).or_insert(Entry {
            pos,
            deleted: true,
            advisory,
        });
        e.advisory = advisory && (e.deleted || e.advisory);
        if e.deleted {
            e.deleted = false;
            self.live += 1;
        }
        e.pos = pos;
    }

    /// Record a query-mandated crack: boundary `key` lives at `pos`. An
    /// advisory boundary at the same key is promoted to query-mandated.
    pub fn record(&mut self, key: BoundaryKey, pos: usize) {
        self.upsert(key, pos, false);
    }

    /// Record a prepartition's *advisory* cut: boundary `key` lives at
    /// `pos`, but no query predicate demanded it. A key that is already
    /// query-mandated stays query-mandated.
    pub fn record_advisory(&mut self, key: BoundaryKey, pos: usize) {
        self.upsert(key, pos, true);
    }

    /// Promote a boundary to query-mandated: the query key a
    /// prepartition was run for landed exactly on one of its cuts.
    pub fn promote(&mut self, key: BoundaryKey) {
        if let Some(e) = self.map.get_mut(&key) {
            e.advisory = false;
        }
    }

    /// Was this boundary cut by a prepartition (and never demanded by a
    /// query predicate)?
    pub fn is_advisory(&self, key: BoundaryKey) -> bool {
        self.map.get(&key).is_some_and(|e| e.advisory)
    }

    /// Number of live advisory boundaries.
    pub fn advisory_count(&self) -> usize {
        self.map
            .values()
            .filter(|e| e.advisory && !e.deleted)
            .count()
    }

    /// Greatest live boundary strictly below `key`, with its position.
    pub fn floor_strict(&self, key: BoundaryKey) -> Option<(BoundaryKey, usize)> {
        self.map.range(..key).rev().find_map(live)
    }

    /// Smallest live boundary strictly above `key`, with its position.
    pub fn ceil_strict(&self, key: BoundaryKey) -> Option<(BoundaryKey, usize)> {
        self.map.range((Excluded(key), Unbounded)).find_map(live)
    }

    /// Smallest live boundary, with its position. Together with
    /// [`Self::ceil_strict`] this walks a key range of the index
    /// without materialising [`Self::boundaries`].
    pub fn first(&self) -> Option<(BoundaryKey, usize)> {
        self.map.iter().find_map(live)
    }

    /// The enclosing uncracked piece `[start, end)` a new boundary falls
    /// into, given total array length `n`.
    pub fn enclosing_piece(&self, key: BoundaryKey, n: usize) -> (usize, usize) {
        let start = self.floor_strict(key).map_or(0, |(_, p)| p);
        let end = self.ceil_strict(key).map_or(n, |(_, p)| p);
        (start, end.max(start))
    }

    /// Mark one boundary lazily deleted; `false` if it was not live.
    pub fn mark_deleted(&mut self, key: BoundaryKey) -> bool {
        match self.map.get_mut(&key) {
            Some(e) if !e.deleted => {
                e.deleted = true;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Mark everything lazily deleted (chunk dropped).
    pub fn mark_all_deleted(&mut self) {
        for e in self.map.values_mut() {
            e.deleted = true;
        }
        self.live = 0;
    }

    /// Ripple updates: visit the live boundaries `above` accepts,
    /// highest first, and move each to the position `shift` returns for
    /// it. `above` sees a live boundary's key and position and must be
    /// monotone over the live boundaries in key order — false on a
    /// prefix, true on the rest (a key threshold, or a position
    /// threshold, since live positions ascend with their keys). The walk
    /// stops at the first live boundary `above` rejects. Lazily deleted
    /// boundaries on the way are passed through: their positions are
    /// stale, so they are neither tested nor shifted. Ripple shifts
    /// positions only, never creates partitioning knowledge, so each
    /// boundary keeps its query-mandated/advisory status.
    pub(crate) fn ripple_walk(
        &mut self,
        mut above: impl FnMut(&BoundaryKey, usize) -> bool,
        mut shift: impl FnMut(usize) -> usize,
    ) {
        for (key, e) in self.map.iter_mut().rev() {
            if e.deleted {
                continue;
            }
            if !above(key, e.pos) {
                return;
            }
            e.pos = shift(e.pos);
        }
    }

    /// Check what the map itself does not guarantee: the cached live
    /// count matches the entries not lazily deleted, and live positions
    /// do not decrease in key order. `Err` names the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let live = self.map.values().filter(|e| !e.deleted).count();
        if live != self.live {
            return Err(format!(
                "index caches {} live boundaries, holds {live}",
                self.live
            ));
        }
        let bounds = self.boundaries();
        match bounds.windows(2).find(|w| w[0].1 > w[1].1) {
            Some([(k0, p0), (k1, p1)]) => Err(format!(
                "boundary {k1:?}@{p1} outside [{p0}, ..): left of {k0:?}, the boundary below it"
            )),
            _ => Ok(()),
        }
    }

    /// Live boundaries in key order: `(key, pos)` pairs. Positions are
    /// guaranteed ascending.
    pub fn boundaries(&self) -> Vec<(BoundaryKey, usize)> {
        self.map.iter().filter_map(live).collect()
    }

    /// Everything the index knows, in key order: each live boundary
    /// with its position and whether it is advisory. Two indexes
    /// partition their arrays identically iff these are equal.
    pub fn boundaries_with_status(&self) -> Vec<(BoundaryKey, usize, bool)> {
        let entries = self.map.iter().filter(|(_, e)| !e.deleted);
        entries.map(|(&k, e)| (k, e.pos, e.advisory)).collect()
    }

    /// Drop all knowledge, lazily deleted boundaries included.
    pub fn clear(&mut self) {
        self.map.clear();
        self.live = 0;
    }

    /// §3.3: estimate the number of tuples qualifying `pred` in a cracked
    /// array of length `n` whose value domain is `[domain_lo, domain_hi]`.
    ///
    /// If both predicate bounds match existing cracks the answer is exact
    /// (piece sizes are known). Otherwise the touched boundary pieces
    /// contribute uncertainty: `upper` counts them fully, `lower` excludes
    /// them, and `estimate` interpolates assuming uniform values within
    /// each piece.
    pub fn estimate_size(&self, pred: &RangePred, n: usize, domain: (Val, Val)) -> SizeEstimate {
        let (lo_k, hi_k) = pred_keys(pred);

        // Resolve each bound to (known_pos or piece with interpolation).
        let resolve = |key: Option<BoundaryKey>, default: usize| -> (usize, usize, f64, bool) {
            match key {
                None => (default, default, default as f64, true),
                Some(k) => {
                    if let Some(p) = self.position_of(k) {
                        (p, p, p as f64, true)
                    } else {
                        let (s, e) = self.enclosing_piece(k, n);
                        // Interpolate position of the boundary value inside
                        // the piece assuming uniform distribution between
                        // the piece's value bounds.
                        let v_lo = self.floor_strict(k).map_or(domain.0, |(bk, _)| bk.0);
                        let v_hi = self.ceil_strict(k).map_or(domain.1, |(bk, _)| bk.0);
                        let frac = if v_hi > v_lo {
                            ((k.0 - v_lo) as f64 / (v_hi - v_lo) as f64).clamp(0.0, 1.0)
                        } else {
                            0.5
                        };
                        let est = s as f64 + frac * (e - s) as f64;
                        (s, e, est, false)
                    }
                }
            }
        };

        let (lo_min, lo_max, lo_est, lo_exact) = resolve(lo_k, 0);
        let (hi_min, hi_max, hi_est, hi_exact) = resolve(hi_k, n);

        let upper = hi_max.saturating_sub(lo_min);
        let lower = hi_min.saturating_sub(lo_max);
        let estimate = (hi_est - lo_est).max(0.0);
        SizeEstimate {
            lower,
            upper,
            estimate,
            exact: lo_exact && hi_exact,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_derivation() {
        assert_eq!(lo_key(Bound::inclusive(5)), (5, BoundKind::Lt));
        assert_eq!(lo_key(Bound::exclusive(5)), (5, BoundKind::Le));
        assert_eq!(hi_key(Bound::inclusive(5)), (5, BoundKind::Le));
        assert_eq!(hi_key(Bound::exclusive(5)), (5, BoundKind::Lt));
    }

    #[test]
    fn key_ordering_nests_pieces() {
        // (v, Lt) must sort before (v, Le): pieces <v | ==v | >v.
        assert!((5, BoundKind::Lt) < (5, BoundKind::Le));
        assert!((5, BoundKind::Le) < (6, BoundKind::Lt));
    }

    #[test]
    fn enclosing_piece_lookup() {
        let mut idx = CrackerIndex::new();
        assert_eq!(idx.enclosing_piece((5, BoundKind::Lt), 100), (0, 100));
        idx.record((10, BoundKind::Lt), 40);
        idx.record((20, BoundKind::Lt), 70);
        assert_eq!(idx.enclosing_piece((5, BoundKind::Lt), 100), (0, 40));
        assert_eq!(idx.enclosing_piece((15, BoundKind::Lt), 100), (40, 70));
        assert_eq!(idx.enclosing_piece((25, BoundKind::Lt), 100), (70, 100));
        // Same value, other kind still nests: (10,Le) sits between
        // (10,Lt)@40 and (20,Lt)@70.
        assert_eq!(idx.enclosing_piece((10, BoundKind::Le), 100), (40, 70));
    }

    #[test]
    fn estimate_exact_when_cracked() {
        let mut idx = CrackerIndex::new();
        idx.record((10, BoundKind::Le), 30);
        idx.record((20, BoundKind::Lt), 80);
        // 10 < A < 20 exactly matches boundaries.
        let e = idx.estimate_size(&RangePred::open(10, 20), 100, (0, 100));
        assert!(e.exact);
        assert_eq!(e.lower, 50);
        assert_eq!(e.upper, 50);
        assert!((e.estimate - 50.0).abs() < 1e-9);
    }

    #[test]
    fn estimate_bounds_when_not_cracked() {
        let mut idx = CrackerIndex::new();
        idx.record((10, BoundKind::Le), 30);
        idx.record((30, BoundKind::Lt), 90);
        // 15 < A < 25: both bounds inside the piece [30, 90).
        let e = idx.estimate_size(&RangePred::open(15, 25), 100, (0, 100));
        assert!(!e.exact);
        assert_eq!(e.upper, 60);
        assert_eq!(e.lower, 0);
        assert!(e.estimate > 0.0 && e.estimate < 60.0);
    }

    #[test]
    fn estimate_uncracked_index() {
        let idx = CrackerIndex::new();
        let e = idx.estimate_size(&RangePred::open(25, 75), 1000, (0, 100));
        assert_eq!(e.upper, 1000);
        assert_eq!(e.lower, 0);
        // Uniform interpolation: about half the tuples.
        assert!((e.estimate - 500.0).abs() < 50.0);
    }

    #[test]
    fn estimate_is_finite_on_degenerate_inputs() {
        // Empty array: every estimate is 0 and finite.
        let idx = CrackerIndex::new();
        let e = idx.estimate_size(&RangePred::open(1, 9), 0, (0, 10));
        assert_eq!((e.lower, e.upper), (0, 0));
        assert!(e.estimate.is_finite() && e.estimate == 0.0);

        // Single-value domain: the interpolation denominator collapses;
        // the estimate must stay finite (never NaN — a NaN would poison
        // the executor's predicate ordering).
        let e = idx.estimate_size(&RangePred::open(5, 5), 100, (5, 5));
        assert!(e.estimate.is_finite());
        let e = idx.estimate_size(&RangePred::closed(5, 5), 100, (5, 5));
        assert!(e.estimate.is_finite());
        assert!(e.estimate >= 0.0 && e.estimate <= 100.0);

        // Cracked index over identical values, degenerate domain.
        let mut idx = CrackerIndex::new();
        idx.record((5, BoundKind::Lt), 0);
        idx.record((5, BoundKind::Le), 100);
        let e = idx.estimate_size(&RangePred::closed(5, 5), 100, (5, 5));
        assert!(e.exact);
        assert_eq!(e.upper, 100);
        assert!(e.estimate.is_finite());
    }

    #[test]
    fn advisory_marking_and_promotion() {
        let mut idx = CrackerIndex::new();
        idx.record_advisory((10, BoundKind::Le), 40);
        idx.record((20, BoundKind::Lt), 70);
        assert!(idx.is_advisory((10, BoundKind::Le)));
        assert!(!idx.is_advisory((20, BoundKind::Lt)));
        assert_eq!(idx.advisory_count(), 1);
        // Ripple shifts preserve the flag.
        idx.ripple_walk(|_, _| true, |pos| pos + 1);
        assert_eq!(idx.position_of((10, BoundKind::Le)), Some(41));
        assert!(idx.is_advisory((10, BoundKind::Le)));
        assert!(!idx.is_advisory((20, BoundKind::Lt)));
        // A query landing exactly on the pivot promotes it.
        idx.promote((10, BoundKind::Le));
        assert!(!idx.is_advisory((10, BoundKind::Le)));
        assert_eq!(idx.advisory_count(), 0);
        // Re-recording an already query-mandated boundary as advisory
        // must not demote it.
        idx.record_advisory((20, BoundKind::Lt), 70);
        assert!(!idx.is_advisory((20, BoundKind::Lt)));
    }

    #[test]
    fn lazy_deletion_reopens_pieces() {
        let mut idx = CrackerIndex::new();
        idx.record((10, BoundKind::Lt), 40);
        idx.record((20, BoundKind::Lt), 70);
        idx.mark_deleted((10, BoundKind::Lt));
        assert_eq!(idx.position_of((10, BoundKind::Lt)), None);
        assert_eq!(idx.position_any((10, BoundKind::Lt)), Some((40, true)));
        assert_eq!(idx.enclosing_piece((15, BoundKind::Lt), 100), (0, 70));
        // Revive.
        idx.record((10, BoundKind::Lt), 40);
        assert_eq!(idx.enclosing_piece((15, BoundKind::Lt), 100), (40, 70));
    }

    /// Neighbour and first-boundary lookups see exactly the live
    /// boundaries `boundaries()` lists, whatever mix of lazily deleted
    /// shell nodes sits between them (including a deleted left edge and
    /// an all-deleted shell).
    #[test]
    fn neighbour_lookups_agree_with_boundaries_across_shell_nodes() {
        let mut state = 0xC0FFEE_u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let kinds = [BoundKind::Lt, BoundKind::Le];
        let mut idx = CrackerIndex::new();
        for round in 0..60 {
            for _ in 0..next(12) {
                idx.record(
                    (next(40) as Val, kinds[next(2) as usize]),
                    next(500) as usize,
                );
            }
            for _ in 0..next(12) {
                idx.mark_deleted((next(40) as Val, kinds[next(2) as usize]));
            }
            if round % 20 == 19 {
                idx.mark_all_deleted();
            }
            let live = idx.boundaries();
            assert_eq!(idx.first(), live.first().copied());
            for v in -1..=40 {
                for kind in kinds {
                    let key = (v, kind);
                    let below = live.iter().rev().find(|(k, _)| *k < key).copied();
                    let above = live.iter().find(|(k, _)| *k > key).copied();
                    assert_eq!(idx.floor_strict(key), below, "floor {key:?}");
                    assert_eq!(idx.ceil_strict(key), above, "ceil {key:?}");
                }
            }
        }
        assert!(idx.total_nodes() > idx.len(), "shell nodes were exercised");
    }

    #[test]
    fn boundaries_positions_ascending() {
        let mut idx = CrackerIndex::new();
        idx.record((30, BoundKind::Lt), 60);
        idx.record((10, BoundKind::Lt), 20);
        idx.record((20, BoundKind::Le), 45);
        let b = idx.boundaries();
        assert_eq!(b.len(), 3);
        assert!(b.windows(2).all(|w| w[0].1 <= w[1].1 && w[0].0 < w[1].0));
    }

    fn k(v: Val) -> BoundaryKey {
        (v, BoundKind::Lt)
    }

    #[test]
    fn insert_and_get() {
        let mut idx = CrackerIndex::new();
        for (i, v) in [50, 20, 70, 10, 30, 60, 80].into_iter().enumerate() {
            idx.record(k(v), i);
        }
        assert_eq!(idx.len(), 7);
        assert_eq!(idx.position_of(k(30)), Some(4));
        assert_eq!(idx.position_of(k(31)), None);
        assert_eq!(idx.position_of((30, BoundKind::Le)), None);
    }

    #[test]
    fn floor_and_ceil() {
        let mut idx = CrackerIndex::new();
        for v in [10, 20, 30, 40] {
            idx.record(k(v), v as usize);
        }
        assert_eq!(idx.floor_strict(k(25)), Some((k(20), 20)));
        assert_eq!(idx.floor_strict(k(20)), Some((k(10), 10)));
        assert_eq!(idx.floor_strict((20, BoundKind::Le)), Some((k(20), 20)));
        assert_eq!(idx.floor_strict(k(10)), None);
        assert_eq!(idx.ceil_strict(k(25)), Some((k(30), 30)));
        assert_eq!(idx.ceil_strict(k(30)), Some((k(40), 40)));
        assert_eq!(idx.ceil_strict((30, BoundKind::Le)), Some((k(40), 40)));
        assert_eq!(idx.ceil_strict(k(40)), None);
    }

    #[test]
    fn lazy_deletion_skips_in_queries() {
        let mut idx = CrackerIndex::new();
        for v in [10, 20, 30] {
            idx.record(k(v), v as usize);
        }
        assert!(idx.mark_deleted(k(20)));
        assert!(!idx.mark_deleted(k(20)));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.position_of(k(20)), None);
        assert_eq!(idx.position_any(k(20)), Some((20, true)));
        assert_eq!(idx.floor_strict(k(25)), Some((k(10), 10)));
        assert_eq!(idx.ceil_strict(k(15)), Some((k(30), 30)));
    }

    #[test]
    fn revive_deleted_key() {
        let mut idx = CrackerIndex::new();
        idx.record(k(5), 100);
        idx.mark_deleted(k(5));
        idx.record(k(5), 200);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.total_nodes(), 1);
        assert_eq!(idx.position_of(k(5)), Some(200));
    }

    #[test]
    fn iter_live_in_order() {
        let mut idx = CrackerIndex::new();
        for v in [30, 10, 20, 40] {
            idx.record(k(v), 0);
        }
        idx.mark_deleted(k(20));
        let keys: Vec<_> = idx.boundaries().into_iter().map(|(key, _)| key.0).collect();
        assert_eq!(keys, vec![10, 30, 40]);
    }

    #[test]
    fn ripple_walk_shifts_the_live_suffix() {
        let mut idx = CrackerIndex::new();
        for v in 0..20 {
            idx.record(k(v), 10 * v as usize);
        }
        idx.mark_deleted(k(15));
        idx.mark_deleted(k(3));
        let mut seen = Vec::new();
        idx.ripple_walk(
            |key, _| key.0 >= 8,
            |pos| {
                seen.push(pos);
                pos + 1
            },
        );
        // Largest key first; the deleted boundary is passed, not visited.
        let want: Vec<usize> = (8..20).rev().filter(|&v| v != 15).map(|v| 10 * v).collect();
        assert_eq!(seen, want);
        assert_eq!(idx.position_of(k(8)), Some(81));
        assert_eq!(idx.position_of(k(7)), Some(70));
        assert_eq!(
            idx.position_any(k(15)),
            Some((150, true)),
            "stale position kept"
        );
        // A position threshold, shifting down.
        idx.ripple_walk(|_, pos| pos > 100, |pos| pos - 1);
        assert_eq!(idx.position_of(k(10)), Some(100));
        assert_eq!(idx.position_of(k(11)), Some(110));
        assert_eq!(idx.position_of(k(19)), Some(190));
        assert_eq!(idx.position_any(k(3)), Some((30, true)));
        assert_eq!(idx.check_invariants(), Ok(()));
    }

    #[test]
    fn mark_all_deleted_then_revive() {
        let mut idx = CrackerIndex::new();
        for v in 0..10 {
            idx.record(k(v), v as usize);
        }
        idx.mark_all_deleted();
        assert!(idx.is_empty());
        assert_eq!(idx.total_nodes(), 10);
        idx.record(k(3), 33);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.total_nodes(), 10);
        assert_eq!(idx.position_of(k(3)), Some(33));
    }

    #[test]
    fn floor_ceil_with_many_deletions() {
        let mut idx = CrackerIndex::new();
        for v in 0..100 {
            idx.record(k(v), v as usize);
        }
        for v in (0..100).filter(|v| v % 2 == 0) {
            idx.mark_deleted(k(v));
        }
        assert_eq!(idx.floor_strict(k(50)).map(|x| x.0), Some(k(49)));
        assert_eq!(idx.ceil_strict(k(50)).map(|x| x.0), Some(k(51)));
        assert_eq!(idx.floor_strict(k(1)).map(|x| x.0), None);
        assert_eq!(idx.ceil_strict(k(99)).map(|x| x.0), None);
    }

    #[test]
    fn check_invariants_names_the_first_violation() {
        let mut idx = CrackerIndex::new();
        idx.record(k(10), 40);
        idx.record(k(20), 70);
        assert_eq!(idx.check_invariants(), Ok(()));
        idx.record(k(15), 80);
        let err = idx.check_invariants().unwrap_err();
        assert!(err.contains("(20, Lt)@70"), "{err}");
        // A deleted boundary's stale position orders nothing.
        idx.mark_deleted(k(15));
        assert_eq!(idx.check_invariants(), Ok(()));
        idx.live += 1;
        let err = idx.check_invariants().unwrap_err();
        assert!(err.contains("3 live"), "{err}");
    }

    /// The index's reference: a sorted list of
    /// `(key, pos, deleted, advisory)` searched by linear scans.
    #[derive(Default)]
    struct NaiveIndex(Vec<(BoundaryKey, usize, bool, bool)>);

    impl NaiveIndex {
        fn find(&self, key: BoundaryKey) -> Option<&(BoundaryKey, usize, bool, bool)> {
            self.0.iter().find(|e| e.0 == key)
        }

        fn find_mut(&mut self, key: BoundaryKey) -> Option<&mut (BoundaryKey, usize, bool, bool)> {
            self.0.iter_mut().find(|e| e.0 == key)
        }

        fn live(&self) -> impl DoubleEndedIterator<Item = (BoundaryKey, usize)> + '_ {
            self.0.iter().filter(|e| !e.2).map(|e| (e.0, e.1))
        }

        fn record(&mut self, key: BoundaryKey, pos: usize, advisory: bool) {
            match self.find_mut(key) {
                Some(e) => {
                    // A live query-mandated boundary stays query-mandated.
                    let live_query = !e.2 && !e.3;
                    *e = (key, pos, false, advisory && !live_query);
                }
                None => {
                    self.0.push((key, pos, false, advisory));
                    self.0.sort_by_key(|e| e.0);
                }
            }
        }
    }

    #[test]
    fn random_ops_match_naive_model() {
        let mut state = 12345u64;
        let mut rng = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let kinds = [BoundKind::Lt, BoundKind::Le];
        let mut idx = CrackerIndex::new();
        let mut model = NaiveIndex::default();
        for _ in 0..3000 {
            let kind = rng(2) as usize;
            let key = (rng(60) as Val, kinds[kind]);
            // Positions roughly follow keys, so some states order their
            // live positions and some do not.
            let pos = 20 * key.0 as usize + 10 * kind + rng(12) as usize;
            match rng(40) {
                0..=13 => {
                    idx.record(key, pos);
                    model.record(key, pos, false);
                }
                14..=23 => {
                    idx.record_advisory(key, pos);
                    model.record(key, pos, true);
                }
                24..=27 => {
                    idx.promote(key);
                    if let Some(e) = model.find_mut(key) {
                        e.3 = false;
                    }
                }
                28..=34 => {
                    let was_live = model.find(key).is_some_and(|e| !e.2);
                    if let Some(e) = model.find_mut(key) {
                        e.2 = true;
                    }
                    assert_eq!(idx.mark_deleted(key), was_live, "mark_deleted {key:?}");
                }
                35 => {
                    idx.mark_all_deleted();
                    model.0.iter_mut().for_each(|e| e.2 = true);
                }
                _ => {
                    let up = rng(2) == 0;
                    let shift = |p: usize| if up { p + 1 } else { p.saturating_sub(1) };
                    let mut seen = Vec::new();
                    idx.ripple_walk(
                        |k, _| *k >= key,
                        |p| {
                            seen.push(p);
                            shift(p)
                        },
                    );
                    let mut want = Vec::new();
                    for e in model.0.iter_mut().rev() {
                        if !e.2 && e.0 >= key {
                            want.push(e.1);
                            e.1 = shift(e.1);
                        }
                    }
                    assert_eq!(seen, want, "ripple above {key:?}");
                }
            }

            let live: Vec<_> = model.live().collect();
            let with_status = model.0.iter().filter(|e| !e.2);
            let with_status: Vec<_> = with_status.map(|e| (e.0, e.1, e.3)).collect();
            assert_eq!(idx.boundaries_with_status(), with_status);
            assert_eq!(idx.len(), live.len());
            assert_eq!(idx.total_nodes(), model.0.len());
            let advisory = model.0.iter().filter(|e| !e.2 && e.3).count();
            assert_eq!(idx.advisory_count(), advisory);
            assert_eq!(idx.first(), live.first().copied());
            let ordered = live.windows(2).all(|w| w[0].1 <= w[1].1);
            assert_eq!(idx.check_invariants().is_ok(), ordered);
            for _ in 0..6 {
                let probe = (rng(62) as Val - 1, kinds[rng(2) as usize]);
                let any = model.find(probe);
                assert_eq!(idx.position_any(probe), any.map(|e| (e.1, e.2)));
                let of = any.filter(|e| !e.2).map(|e| e.1);
                assert_eq!(idx.position_of(probe), of, "{probe:?}");
                assert_eq!(idx.is_advisory(probe), any.is_some_and(|e| e.3));
                let below = model.live().rev().find(|e| e.0 < probe);
                assert_eq!(idx.floor_strict(probe), below, "floor {probe:?}");
                let above = model.live().find(|e| e.0 > probe);
                assert_eq!(idx.ceil_strict(probe), above, "ceil {probe:?}");
            }
        }
        assert!(
            idx.total_nodes() > idx.len(),
            "deleted entries were exercised"
        );
    }
}
