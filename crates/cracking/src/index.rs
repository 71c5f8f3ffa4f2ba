//! The cracker index: an AVL tree over *boundary keys* recording how crack
//! values partition a physical array, plus the piece arithmetic and the
//! self-organizing-histogram estimates of §3.3.

use crate::avl::AvlTree;
use crate::crack::BoundKind;
use crackdb_columnstore::types::{Bound, RangePred, Val};
use std::collections::HashSet;

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

/// The cracker index proper: AVL over boundary keys with positions into the
/// cracked array.
#[derive(Debug, Clone, Default)]
pub struct CrackerIndex {
    tree: AvlTree<BoundaryKey>,
    /// Boundaries a prepartition cut rather than a query predicate
    /// mandated (see [`crate::CrackedArray::prepartition`]). Physically
    /// they partition the array exactly like query boundaries; the
    /// distinction exists for instrumentation and for the property tests
    /// ("every query bound is in the index and not advisory").
    advisory: HashSet<BoundaryKey>,
}

impl CrackerIndex {
    /// Empty index (one piece spanning the whole array).
    pub fn new() -> Self {
        CrackerIndex {
            tree: AvlTree::new(),
            advisory: HashSet::new(),
        }
    }

    /// Number of live boundaries; the array has `len() + 1` pieces.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// `true` when the array is one uncracked piece.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Total nodes including lazily deleted ones (storage-reuse tests).
    pub fn total_nodes(&self) -> usize {
        self.tree.total_nodes()
    }

    /// Position of a live boundary, if this exact boundary was cracked.
    pub fn position_of(&self, key: BoundaryKey) -> Option<usize> {
        self.tree.get(&key)
    }

    /// Position of a boundary even if lazily deleted: `(pos, deleted)`.
    pub fn position_any(&self, key: BoundaryKey) -> Option<(usize, bool)> {
        self.tree.get_any(&key)
    }

    /// Record a query-mandated crack: boundary `key` lives at `pos`. An
    /// advisory boundary at the same key is promoted to query-mandated.
    pub fn record(&mut self, key: BoundaryKey, pos: usize) {
        self.tree.insert(key, pos);
        self.advisory.remove(&key);
    }

    /// Record a prepartition's *advisory* cut: boundary `key` lives at
    /// `pos`, but no query predicate demanded it. A key that is already
    /// query-mandated stays query-mandated.
    pub fn record_advisory(&mut self, key: BoundaryKey, pos: usize) {
        let already_query = self.tree.get(&key).is_some() && !self.advisory.contains(&key);
        self.tree.insert(key, pos);
        if !already_query {
            self.advisory.insert(key);
        }
    }

    /// Promote a boundary to query-mandated: the query key a
    /// prepartition was run for landed exactly on one of its cuts.
    pub fn promote(&mut self, key: BoundaryKey) {
        self.advisory.remove(&key);
    }

    /// Was this boundary cut by a prepartition (and never demanded by a
    /// query predicate)?
    pub fn is_advisory(&self, key: BoundaryKey) -> bool {
        self.advisory.contains(&key)
    }

    /// Number of live advisory boundaries.
    pub fn advisory_count(&self) -> usize {
        self.advisory
            .iter()
            .filter(|k| self.tree.get(k).is_some())
            .count()
    }

    /// Greatest live boundary strictly below `key`, with its position.
    pub fn floor_strict(&self, key: BoundaryKey) -> Option<(BoundaryKey, usize)> {
        self.tree.floor_strict(&key)
    }

    /// Smallest live boundary strictly above `key`, with its position.
    pub fn ceil_strict(&self, key: BoundaryKey) -> Option<(BoundaryKey, usize)> {
        self.tree.ceil_strict(&key)
    }

    /// Smallest live boundary, with its position. Together with
    /// [`Self::ceil_strict`] this walks a key range of the index
    /// without materialising [`Self::boundaries`].
    pub fn first(&self) -> Option<(BoundaryKey, usize)> {
        self.tree.first_live()
    }

    /// The enclosing uncracked piece `[start, end)` a new boundary falls
    /// into, given total array length `n`.
    pub fn enclosing_piece(&self, key: BoundaryKey, n: usize) -> (usize, usize) {
        let start = self.floor_strict(key).map_or(0, |(_, p)| p);
        let end = self.ceil_strict(key).map_or(n, |(_, p)| p);
        (start, end.max(start))
    }

    /// Mark one boundary lazily deleted.
    pub fn mark_deleted(&mut self, key: BoundaryKey) -> bool {
        self.tree.mark_deleted(&key)
    }

    /// Mark everything lazily deleted (chunk dropped).
    pub fn mark_all_deleted(&mut self) {
        self.tree.mark_all_deleted()
    }

    /// Ripple updates: move every live boundary `above` accepts (a
    /// monotone test, see [`AvlTree::ripple_walk`]) to the position
    /// `shift` returns for it, highest boundary first. Ripple shifts
    /// positions only, never creates partitioning knowledge, so each
    /// boundary keeps its query-mandated/advisory status.
    pub(crate) fn ripple_walk(
        &mut self,
        above: impl FnMut(&BoundaryKey, usize) -> bool,
        shift: impl FnMut(usize) -> usize,
    ) {
        self.tree.ripple_walk(above, shift)
    }

    /// Verify the AVL invariants of the underlying tree (test / debug
    /// helper).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.tree.check_invariants()
    }

    /// Live boundaries in key order: `(key, pos)` pairs. Positions are
    /// guaranteed ascending.
    pub fn boundaries(&self) -> Vec<(BoundaryKey, usize)> {
        self.tree.iter_live()
    }

    /// Everything the index knows, in key order: each live boundary
    /// with its position and whether it is advisory. Two indexes
    /// partition their arrays identically iff these are equal.
    pub fn boundaries_with_status(&self) -> Vec<(BoundaryKey, usize, bool)> {
        let live = self.tree.iter_live().into_iter();
        live.map(|(k, pos)| (k, pos, self.advisory.contains(&k)))
            .collect()
    }

    /// Drop all knowledge.
    pub fn clear(&mut self) {
        self.tree.clear();
        self.advisory.clear();
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
                    if let Some(p) = self.tree.get(&k) {
                        (p, p, p as f64, true)
                    } else {
                        let (s, e) = self.enclosing_piece(k, n);
                        // Interpolate position of the boundary value inside
                        // the piece assuming uniform distribution between
                        // the piece's value bounds.
                        let v_lo = self.tree.floor_strict(&k).map_or(domain.0, |(bk, _)| bk.0);
                        let v_hi = self.tree.ceil_strict(&k).map_or(domain.1, |(bk, _)| bk.0);
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
}
