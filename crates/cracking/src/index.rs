//! The cracker index: an ordered map from *boundary keys* to the
//! positions where crack values partition a physical array, plus the
//! piece arithmetic and the self-organizing-histogram estimates of §3.3.
//!
//! The paper's MonetDB implementation keeps this map in an AVL tree.
//! Here it is a leaf-blocked sorted array: split-only leaves of at most
//! 256 entries, each a run of parallel `keys` / `pos` / `deleted` /
//! `advisory` arrays, plus a contiguous array of the leaves' first keys.
//! A lookup is two binary searches (leaf, then slot). What the index
//! needs of it:
//!
//! * strict `floor` / `ceil` neighbour lookups to locate the piece a
//!   value falls into;
//! * in-order piece walks (the index doubles as a *self-organizing
//!   histogram*, §3.3);
//! * **lazy deletion** (§4.1): when a chunk is dropped, its boundaries
//!   are only marked deleted, so the partitioning knowledge can be
//!   revived if the chunk is recreated;
//! * the rank of a key (live boundaries below it), from per-leaf live
//!   counts;
//! * the ripple walks behind [`crate::CrackedArray::ripple_insert`] and
//!   its delete twins: a ripple update grows or shrinks the array by one
//!   tuple at one of its two ends and moves every boundary between that
//!   end and the update by one slot. A walk is one lookup of the split
//!   key and a loop over contiguous `pos` slices.
//!
//! Positions are stored relative to the start of the array's buffers,
//! which may begin with free *front slack*; [`CrackerIndex::origin`] is
//! its length. Every accessor speaks origin-relative positions (tuple
//! `0` is the first tuple), so a ripple toward the front moves only the
//! boundaries below the update plus the origin.

use crate::crack::BoundKind;
use crackdb_columnstore::types::{Bound, RangePred, Val};

/// A boundary key: the crack value plus which side of it belongs to the
/// left piece. `(v, Lt)` sorts before `(v, Le)` so that the pieces
/// `< v`, `== v`, `> v` nest correctly.
pub type BoundaryKey = (Val, BoundKind);

/// Most entries a leaf holds; a leaf growing past it splits in halves.
/// Lookups and ripple walks cost about the same from 64 to 256 entries;
/// recording a new key pays more for small leaves (more splits).
const LEAF: usize = 256;

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

/// One leaf: a sorted run of entries as parallel arrays.
#[derive(Debug, Clone, Default)]
struct Leaf {
    keys: Vec<BoundaryKey>,
    /// A live entry's position in the array's buffers (origin included);
    /// a lazily deleted entry's stale origin-relative position, frozen
    /// when it was deleted.
    pos: Vec<usize>,
    /// Lazily deleted: invisible to every lookup but
    /// [`CrackerIndex::position_any`], revived by the next record.
    deleted: Vec<bool>,
    /// Cut by a prepartition (see [`crate::CrackedArray::prepartition`])
    /// rather than mandated by a query predicate. Physically it
    /// partitions the array exactly like a query boundary; the flag
    /// exists for instrumentation and for the property tests ("every
    /// query bound is in the index and not advisory").
    advisory: Vec<bool>,
    /// Entries not lazily deleted.
    live: usize,
}

/// The cracker index proper: an ordered map from boundary keys to
/// positions into the cracked array, with lazy deletion.
#[derive(Debug, Clone, Default)]
pub struct CrackerIndex {
    leaves: Vec<Leaf>,
    /// `leaves[i].keys[0]` for every leaf, for the first binary search.
    firsts: Vec<BoundaryKey>,
    /// Number of entries not lazily deleted.
    live: usize,
    /// Free slots before the array's first tuple; ripples toward the
    /// front move it.
    pub(crate) origin: usize,
}

impl CrackerIndex {
    /// Empty index (one piece spanning the whole array).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty index over an array whose buffers start with `origin` free
    /// slots.
    pub fn with_origin(origin: usize) -> Self {
        let empty = Self::default();
        Self { origin, ..empty }
    }

    /// Free slots before the first tuple in the buffers of the array
    /// this index describes: the room a front-ward ripple insert takes.
    pub fn origin(&self) -> usize {
        self.origin
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
        self.leaves.iter().map(|leaf| leaf.keys.len()).sum()
    }

    /// The slot `(leaf, slot)` of the first entry `below` rejects;
    /// `below` must hold on a prefix of the keys. Past the last entry it
    /// is one past the end of the last leaf.
    fn seek(&self, below: impl Fn(&BoundaryKey) -> bool) -> (usize, usize) {
        let l = self.firsts.partition_point(&below).saturating_sub(1);
        let keys = self.leaves.get(l).map_or(&[][..], |leaf| &leaf.keys[..]);
        let slot = keys.partition_point(&below);
        if slot == keys.len() && l + 1 < self.leaves.len() {
            return (l + 1, 0);
        }
        (l, slot)
    }

    /// The slot holding `key`, live or not.
    fn find(&self, key: BoundaryKey) -> Option<(usize, usize)> {
        let (l, s) = self.seek(|k| *k < key);
        (self.leaves.get(l)?.keys.get(s) == Some(&key)).then_some((l, s))
    }

    /// The first live entry at or after slot `(l, s)` (`up`), or the last
    /// one before it.
    fn live_near(&self, (mut l, s): (usize, usize), up: bool) -> Option<(BoundaryKey, usize)> {
        let mut range = if up { s..usize::MAX } else { 0..s };
        loop {
            let leaf = self.leaves.get(l)?;
            let range_in = range.start..range.end.min(leaf.keys.len());
            let mut live = range_in.filter(|&i| !leaf.deleted[i]);
            if let Some(i) = if up { live.next() } else { live.next_back() } {
                return Some((leaf.keys[i], leaf.pos[i] - self.origin));
            }
            l = if up { l + 1 } else { l.checked_sub(1)? };
            range = 0..usize::MAX;
        }
    }

    /// Position of a live boundary, if this exact boundary was cracked.
    pub fn position_of(&self, key: BoundaryKey) -> Option<usize> {
        let (l, s) = self.find(key)?;
        (!self.leaves[l].deleted[s]).then(|| self.leaves[l].pos[s] - self.origin)
    }

    /// Position of a boundary even if lazily deleted: `(pos, deleted)`.
    pub fn position_any(&self, key: BoundaryKey) -> Option<(usize, bool)> {
        let (l, s) = self.find(key)?;
        let deleted = self.leaves[l].deleted[s];
        let origin = if deleted { 0 } else { self.origin };
        Some((self.leaves[l].pos[s] - origin, deleted))
    }

    /// Insert or revive boundary `key` at `pos`. It ends up advisory iff
    /// `advisory` is set and it was not a live query-mandated boundary.
    fn upsert(&mut self, key: BoundaryKey, pos: usize, advisory: bool) {
        let (l, s) = self.seek(|k| *k < key);
        if self.leaves.is_empty() {
            self.leaves.push(Leaf::default());
            self.firsts.push(key);
        }
        let leaf = &mut self.leaves[l];
        if leaf.keys.get(s) != Some(&key) {
            // A new key enters as a deleted entry, so that one revival
            // path below counts it live.
            leaf.keys.insert(s, key);
            leaf.pos.insert(s, 0);
            leaf.deleted.insert(s, true);
            leaf.advisory.insert(s, advisory);
            self.firsts[l] = leaf.keys[0];
        }
        leaf.advisory[s] = advisory && (leaf.deleted[s] || leaf.advisory[s]);
        if leaf.deleted[s] {
            leaf.deleted[s] = false;
            leaf.live += 1;
            self.live += 1;
        }
        leaf.pos[s] = self.origin + pos;
        if leaf.keys.len() > LEAF {
            let at = leaf.keys.len() / 2;
            let deleted = leaf.deleted.split_off(at);
            let live = deleted.iter().filter(|&&d| !d).count();
            leaf.live -= live;
            let right = Leaf {
                keys: leaf.keys.split_off(at),
                pos: leaf.pos.split_off(at),
                deleted,
                advisory: leaf.advisory.split_off(at),
                live,
            };
            self.firsts.insert(l + 1, right.keys[0]);
            self.leaves.insert(l + 1, right);
        }
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
        if let Some((l, s)) = self.find(key) {
            self.leaves[l].advisory[s] = false;
        }
    }

    /// Was this boundary cut by a prepartition (and never demanded by a
    /// query predicate)?
    pub fn is_advisory(&self, key: BoundaryKey) -> bool {
        self.find(key)
            .is_some_and(|(l, s)| self.leaves[l].advisory[s])
    }

    /// Number of live advisory boundaries.
    pub fn advisory_count(&self) -> usize {
        self.entries().filter(|e| !e.2 && e.3).count()
    }

    /// Greatest live boundary strictly below `key`, with its position.
    pub fn floor_strict(&self, key: BoundaryKey) -> Option<(BoundaryKey, usize)> {
        self.live_near(self.seek(|k| *k < key), false)
    }

    /// Smallest live boundary strictly above `key`, with its position.
    pub fn ceil_strict(&self, key: BoundaryKey) -> Option<(BoundaryKey, usize)> {
        self.live_near(self.seek(|k| *k <= key), true)
    }

    /// Smallest live boundary, with its position. Together with
    /// [`Self::ceil_strict`] this walks a key range of the index
    /// without materialising [`Self::boundaries`].
    pub fn first(&self) -> Option<(BoundaryKey, usize)> {
        self.live_near((0, 0), true)
    }

    /// Number of live boundaries strictly below `key`.
    pub(crate) fn rank(&self, key: BoundaryKey) -> usize {
        let (l, s) = self.seek(|k| *k < key);
        let before: usize = self.leaves.iter().take(l).map(|leaf| leaf.live).sum();
        let live = |leaf: &Leaf| leaf.deleted[..s].iter().filter(|&&d| !d).count();
        before + self.leaves.get(l).map_or(0, live)
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
        match self.find(key) {
            Some((l, s)) if !self.leaves[l].deleted[s] => {
                self.delete(l, s);
                true
            }
            _ => false,
        }
    }

    /// Mark everything lazily deleted (chunk dropped).
    pub fn mark_all_deleted(&mut self) {
        for l in 0..self.leaves.len() {
            for s in 0..self.leaves[l].keys.len() {
                if !self.leaves[l].deleted[s] {
                    self.delete(l, s);
                }
            }
        }
    }

    /// Lazily delete the live entry at a slot, freezing its position.
    fn delete(&mut self, l: usize, s: usize) {
        let leaf = &mut self.leaves[l];
        leaf.deleted[s] = true;
        leaf.pos[s] -= self.origin;
        leaf.live -= 1;
        self.live -= 1;
    }

    /// The lazily deleted shell of a dropped chunk's index, ready to be
    /// revived over a fresh array without front slack.
    pub fn into_shell(mut self) -> Self {
        self.mark_all_deleted();
        self.origin = 0;
        self
    }

    /// Ripple updates: visit the live boundaries at or above `split`
    /// (`up`, highest first) or below it (lowest first) — walks that
    /// start at the array end the ripple grows or shrinks — and move
    /// each to the position `shift` returns for it. `shift` sees and
    /// returns buffer positions, origin included. Lazily deleted
    /// boundaries on the way are passed through: their positions are
    /// stale, so they are not shifted. Ripple shifts positions only,
    /// never creates partitioning knowledge, so each boundary keeps its
    /// query-mandated/advisory status.
    pub(crate) fn ripple(
        &mut self,
        split: BoundaryKey,
        up: bool,
        mut shift: impl FnMut(usize) -> usize,
    ) {
        let ((l, s), n) = (self.seek(|k| *k < split), self.leaves.len());
        let walk = if up { l..n } else { 0..n.min(l + 1) };
        for i in 0..walk.len() {
            let i = if up { walk.end - 1 - i } else { i };
            let leaf = &mut self.leaves[i];
            let all = 0..leaf.keys.len();
            let range = match (i == l, up) {
                (false, _) => all,
                (true, true) => s..all.end,
                (true, false) => 0..s,
            };
            let slots = leaf.pos[range.clone()].iter_mut().zip(&leaf.deleted[range]);
            let live = slots.filter(|(_, &d)| !d).map(|(p, _)| p);
            let mut step = |p: &mut usize| *p = shift(*p);
            if up {
                live.rev().for_each(&mut step);
            } else {
                live.for_each(&mut step);
            }
        }
    }

    /// Every entry in key order: `(key, pos, deleted, advisory)`, with
    /// live positions origin-relative.
    fn entries(&self) -> impl Iterator<Item = (BoundaryKey, usize, bool, bool)> + '_ {
        self.leaves.iter().flat_map(move |leaf| {
            (0..leaf.keys.len()).map(move |i| {
                let d = leaf.deleted[i];
                let pos = leaf.pos[i] - if d { 0 } else { self.origin };
                (leaf.keys[i], pos, d, leaf.advisory[i])
            })
        })
    }

    /// Check what the layout itself does not guarantee: leaves are
    /// non-empty, at most `LEAF` long and in step with their first
    /// keys and cached live counts, keys ascend within and across
    /// leaves, the cached live count matches the entries not lazily
    /// deleted, and live positions do not decrease in key order. `Err`
    /// names the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let firsts = self.leaves.iter().map(|leaf| leaf.keys.first());
        if !firsts.eq(self.firsts.iter().map(Some)) {
            return Err(format!(
                "firsts {:?} out of step with the leaves",
                self.firsts
            ));
        }
        for (l, leaf) in self.leaves.iter().enumerate() {
            let (n, live) = (
                leaf.keys.len(),
                leaf.deleted.iter().filter(|&&d| !d).count(),
            );
            let lens = [
                leaf.pos.len(),
                leaf.deleted.len(),
                leaf.advisory.len(),
                leaf.live,
            ];
            if n == 0 || n > LEAF || lens != [n, n, n, live] {
                return Err(format!(
                    "leaf {l}: {n} keys, {live} live, fields and cache {lens:?}"
                ));
            }
        }
        let (mut prev, mut below, mut live) = (None, None, 0);
        for (key, pos, deleted, _) in self.entries() {
            if prev.is_some_and(|k| k >= key) {
                return Err(format!("key {key:?} not above {prev:?}"));
            }
            prev = Some(key);
            if let Some((k0, p0)) = below.filter(|&(_, p0)| !deleted && p0 > pos) {
                return Err(format!(
                    "boundary {key:?}@{pos} outside [{p0}, ..): left of {k0:?}, the boundary below it"
                ));
            }
            if !deleted {
                (below, live) = (Some((key, pos)), live + 1);
            }
        }
        if live != self.live {
            let cached = self.live;
            return Err(format!(
                "index caches {cached} live boundaries, holds {live}"
            ));
        }
        Ok(())
    }

    /// Live boundaries in key order: `(key, pos)` pairs. Positions are
    /// guaranteed ascending.
    pub fn boundaries(&self) -> Vec<(BoundaryKey, usize)> {
        let live = self.entries().filter(|e| !e.2);
        live.map(|(k, pos, ..)| (k, pos)).collect()
    }

    /// Everything the index knows, in key order: each live boundary
    /// with its position and whether it is advisory. Two indexes
    /// partition their arrays identically iff these are equal.
    pub fn boundaries_with_status(&self) -> Vec<(BoundaryKey, usize, bool)> {
        let live = self.entries().filter(|e| !e.2);
        live.map(|(k, pos, _, a)| (k, pos, a)).collect()
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
        idx.ripple((Val::MIN, BoundKind::Lt), true, |pos| pos + 1);
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
    fn ripple_walks_shift_one_side_of_the_split() {
        let mut idx = CrackerIndex::with_origin(5);
        for v in 0..20 {
            idx.record(k(v), 10 * v as usize);
        }
        idx.mark_deleted(k(15));
        idx.mark_deleted(k(3));
        let mut seen = Vec::new();
        idx.ripple(k(8), true, |pos| {
            seen.push(pos);
            pos + 1
        });
        // Largest key first, buffer positions; the deleted boundary is
        // passed, not visited.
        let want: Vec<usize> = (8..20)
            .rev()
            .filter(|&v| v != 15)
            .map(|v| 5 + 10 * v)
            .collect();
        assert_eq!(seen, want);
        assert_eq!(idx.position_of(k(8)), Some(81));
        assert_eq!(idx.position_of(k(7)), Some(70));
        assert_eq!(
            idx.position_any(k(15)),
            Some((150, true)),
            "stale position kept"
        );
        // Front-ward: lowest first; with the origin, the walked
        // boundaries keep their positions and the others move down.
        seen.clear();
        idx.ripple(k(5), false, |pos| {
            seen.push(pos);
            pos + 1
        });
        idx.origin = 6;
        let want: Vec<usize> = (0..5).filter(|&v| v != 3).map(|v| 5 + 10 * v).collect();
        assert_eq!(seen, want);
        assert_eq!(idx.position_of(k(4)), Some(40));
        assert_eq!(idx.position_of(k(8)), Some(80));
        assert_eq!(idx.position_any(k(3)), Some((30, true)));
        assert_eq!(idx.check_invariants(), Ok(()));
        // A shell forgets the origin, not the stale positions.
        let shell = idx.into_shell();
        assert_eq!((shell.origin(), shell.len()), (0, 0));
        assert_eq!(shell.position_any(k(8)), Some((80, true)));
    }

    #[test]
    fn check_invariants_sees_leaf_order_and_firsts() {
        let mut idx = CrackerIndex::new();
        for v in 0..3 * LEAF as Val {
            idx.record(k(v), v as usize);
        }
        assert!(idx.leaves.len() >= 3, "{} leaves", idx.leaves.len());
        assert_eq!(idx.check_invariants(), Ok(()));
        let mut swapped = idx.clone();
        swapped.leaves.swap(0, 1);
        swapped.firsts.swap(0, 1);
        let err = swapped.check_invariants().unwrap_err();
        assert!(err.contains("not above"), "{err}");
        let mut stale = idx.clone();
        stale.firsts[1] = (-1, BoundKind::Lt);
        let err = stale.check_invariants().unwrap_err();
        assert!(err.contains("out of step"), "{err}");
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

    /// Random ops against the model, over enough keys that the index
    /// splits into many leaves.
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
        let (values, mut max_leaves) = (700, 0);
        for _ in 0..6000 {
            let kind = rng(2) as usize;
            let key = (rng(values) as Val, kinds[kind]);
            // Positions roughly follow keys, so some states order their
            // live positions and some do not.
            let pos = 20 * key.0 as usize + 10 * kind + rng(12) as usize;
            match rng(40) {
                0..=17 => {
                    idx.record(key, pos);
                    model.record(key, pos, false);
                }
                18..=25 => {
                    idx.record_advisory(key, pos);
                    model.record(key, pos, true);
                }
                26..=28 => {
                    idx.promote(key);
                    if let Some(e) = model.find_mut(key) {
                        e.3 = false;
                    }
                }
                29..=34 => {
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
                    let (up, grow) = (rng(2) == 0, rng(2) == 0);
                    let step = |p: usize| if grow { p + 1 } else { p.saturating_sub(1) };
                    let mut seen = Vec::new();
                    idx.ripple(key, up, |p| {
                        seen.push(p);
                        step(p)
                    });
                    let walked = model.0.iter_mut().filter(|e| !e.2 && (e.0 >= key) == up);
                    let mut walked: Vec<_> = walked.collect();
                    if up {
                        walked.reverse();
                    }
                    let want: Vec<usize> = walked.iter().map(|e| e.1).collect();
                    walked.into_iter().for_each(|e| e.1 = step(e.1));
                    assert_eq!(seen, want, "ripple {up} of {key:?}");
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
            max_leaves = max_leaves.max(idx.leaves.len());
            for _ in 0..3 {
                let probe = (rng(values + 2) as Val - 1, kinds[rng(2) as usize]);
                let any = model.find(probe);
                assert_eq!(idx.position_any(probe), any.map(|e| (e.1, e.2)));
                let of = any.filter(|e| !e.2).map(|e| e.1);
                assert_eq!(idx.position_of(probe), of, "{probe:?}");
                assert_eq!(idx.is_advisory(probe), any.is_some_and(|e| e.3));
                let below = model.live().rev().find(|e| e.0 < probe);
                assert_eq!(idx.floor_strict(probe), below, "floor {probe:?}");
                let above = model.live().find(|e| e.0 > probe);
                assert_eq!(idx.ceil_strict(probe), above, "ceil {probe:?}");
                let rank = model.live().filter(|e| e.0 < probe).count();
                assert_eq!(idx.rank(probe), rank, "rank {probe:?}");
            }
        }
        assert!(
            idx.total_nodes() >= 4 * LEAF && max_leaves >= 8,
            "{} keys in {max_leaves} leaves",
            idx.total_nodes()
        );
        assert!(
            idx.total_nodes() > idx.len(),
            "deleted entries were exercised"
        );
    }
}
