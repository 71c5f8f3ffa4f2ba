//! A generic cracked array: the shared physical structure behind cracker
//! columns (tail = tuple key) and cracker maps (tail = projected
//! attribute value). One head column carries `k >= 1` tail columns: one
//! for a column or a map, several for a *map group*, the maps a query
//! uses together, which share one head, one index and every crack and
//! ripple. The tails are column-major (each a contiguous column). Every
//! crack and ripple has one body generic over the tail set
//! ([`TailSet`]), whose one-tail instantiation is the slice code of the
//! plain kernels, and the seeding and prepartition compute each row's
//! destination once, then move the head and each tail column through
//! it, one column at a time.
//!
//! The buffers may start with free *front slack* (the index's
//! [`CrackerIndex::origin`]): a ripple update grows or shrinks the array
//! at whichever end has fewer live boundaries between it and the update,
//! so it moves one tuple across, and rewrites the index entry of, only
//! those boundaries. An insert goes front-ward only into existing slack;
//! a front-ward delete creates slack. The rule reads index state alone,
//! so siblings replaying a tape choose alike. Every accessor is
//! origin-relative: tuple `0` is the first tuple, wherever it sits.

use crate::crack::{crack_rows_in_three, crack_rows_in_two, BoundKind, TailSet};
use crate::index::{pred_keys, BoundaryKey, CrackerIndex};
#[cfg(doc)]
use crackdb_columnstore::column::insert_headroom;
use crackdb_columnstore::radix::{bucket_offsets, move_to_slots, ValueBuckets};
use crackdb_columnstore::types::{RangePred, RowId, Val};
use std::ops::Range;

/// Smallest uncracked piece the radix-prepartition fast path bothers
/// with: below this, one blocked crack-in-two pass is already cheap and
/// the advisory boundaries would not pay for their index entries.
pub const PREPARTITION_MIN_PIECE: usize = 1 << 20;

/// Piece size the prepartition aims for: roughly L2-resident pieces, so
/// every later crack of a seeded piece is cache-friendly.
pub const PREPARTITION_TARGET_PIECE: usize = 1 << 16;

/// The maximal runs of source positions `0..n` that are not in the
/// ascending, duplicate-free exclusion list.
fn live_runs(n: usize, excluded: &[RowId]) -> impl Iterator<Item = Range<usize>> + '_ {
    debug_assert!(excluded.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(excluded.last().is_none_or(|&x| (x as usize) < n));
    let mut start = 0;
    let ends = excluded.iter().map(|&x| x as usize).chain([n]);
    ends.filter_map(move |end| {
        let run = start..end;
        start = end + 1;
        (!run.is_empty()).then_some(run)
    })
}

/// `(min, max)` widened to cover `vals`.
fn widen((mut min, mut max): (Val, Val), vals: &[Val]) -> (Val, Val) {
    for &v in vals {
        min = min.min(v);
        max = max.max(v);
    }
    (min, max)
}

/// The equal-width buckets a prepartition cuts a piece of `len` tuples
/// with values in `[min, max]` into: roughly `target_piece`-sized,
/// capped at 256 buckets and at the distinct-value range. `None` when
/// there is nothing to cut (fewer than two values or two buckets).
fn prepartition_buckets(
    len: usize,
    target_piece: usize,
    min: Val,
    max: Val,
) -> Option<ValueBuckets> {
    if min >= max {
        return None;
    }
    let range = max as i128 - min as i128 + 1;
    let buckets = ((len / target_piece.max(1)).min(256) as i128).min(range) as usize;
    (buckets >= 2).then(|| ValueBuckets::new(buckets, min, max))
}

/// The key of the prepartition that `crack_range(pred)` opens with on
/// a virgin array of `n` tuples, if it opens with one: every condition
/// the crack tests before its first `maybe_prepartition` call, on state
/// known before the array exists.
fn first_prepartition(n: usize, pred: &RangePred) -> Option<BoundaryKey> {
    if n < PREPARTITION_MIN_PIECE || pred.is_empty_range() {
        return None;
    }
    let (lo_k, hi_k) = pred_keys(pred);
    lo_k.or(hi_k)
}

/// The fused first touch of a structure seeded from a base-column
/// snapshot: what the prepartition its first crack opens with would do
/// to the freshly copied array — bucket function and bucket offsets,
/// from one min/max pass and one counting pass over the snapshot's
/// head column. [`CrackedArray::seeded`] then scatters the snapshot
/// straight into bucket order instead of copying it and clustering the
/// copy. A plan depends on the head column, the exclusion list and the
/// first crack only, so sibling structures seeded from one snapshot
/// (the maps of a map set) share it.
#[derive(Debug, Clone)]
pub struct SeedPlan {
    key: BoundaryKey,
    by: ValueBuckets,
    offsets: Vec<usize>,
}

impl SeedPlan {
    /// Plan the seeding of an array over `head` minus the `excluded`
    /// positions (ascending, duplicate-free) whose first operation will
    /// be a crack by `pred`. `Some` exactly when that crack would start
    /// by prepartitioning the whole virgin array (at least
    /// [`PREPARTITION_MIN_PIECE`] tuples, a bounded predicate) *and* would
    /// leave no bucket big enough to be prepartitioned again — so the
    /// crack, run on the seeded array, finds nothing left to do there
    /// and continues exactly as it would have.
    pub fn new(head: &[Val], excluded: &[RowId], pred: &RangePred) -> Option<Self> {
        let key = first_prepartition(head.len() - excluded.len(), pred)?;
        Self::with_target(head, excluded, key, PREPARTITION_TARGET_PIECE).filter(|plan| {
            plan.offsets
                .windows(2)
                .all(|w| w[1] - w[0] < PREPARTITION_MIN_PIECE)
        })
    }

    /// The unconditional counterpart of [`CrackedArray::prepartition`]:
    /// plan what `prepartition(key, target_piece)` does to a virgin
    /// array, whatever its size. Public for benches and tests.
    pub fn with_target(
        head: &[Val],
        excluded: &[RowId],
        key: BoundaryKey,
        target_piece: usize,
    ) -> Option<Self> {
        let (min, max) = live_runs(head.len(), excluded)
            .fold((Val::MAX, Val::MIN), |range, run| widen(range, &head[run]));
        let live = head.len() - excluded.len();
        let by = prepartition_buckets(live, target_piece, min, max)?;
        let mut counts = vec![0usize; by.buckets()];
        for run in live_runs(head.len(), excluded) {
            by.count_into(&head[run], &mut counts);
        }
        Some(SeedPlan {
            key,
            by,
            offsets: bucket_offsets(&counts),
        })
    }
}

/// Run `$body` with `$t` bound to the tail columns (the first, `$tail`,
/// then `$more`) as the kernels take them: a single tail as its slice,
/// so a one-tail array runs the slice kernels' code, or a group's
/// columns — as slices in a fixed-size array for the common two and
/// three tails, so the per-row loop unrolls.
macro_rules! with_tails {
    ($tail:expr, $more:expr, |$t:ident| $body:expr) => {
        match &mut $more[..] {
            [] => {
                let $t = $tail.as_mut_slice();
                $body
            }
            [b] => {
                let $t = &mut [$tail.as_mut_slice(), b.as_mut_slice()];
                $body
            }
            [b, c] => {
                let $t = &mut [$tail.as_mut_slice(), b.as_mut_slice(), c.as_mut_slice()];
                $body
            }
            more => {
                let $t = &mut Columns(&mut $tail, more);
                $body
            }
        }
    };
}

/// The tail columns of a group of any width: the first, then the rest.
struct Columns<'a, T>(&'a mut Vec<T>, &'a mut [Vec<T>]);

impl<T: Copy> TailSet for Columns<'_, T> {
    type Row = Vec<T>;

    fn swap_rows(&mut self, i: usize, j: usize) {
        self.0.swap(i, j);
        self.1.iter_mut().for_each(|col| col.swap(i, j));
    }

    fn copy_row(&mut self, from: usize, to: usize) {
        self.0[to] = self.0[from];
        self.1.iter_mut().for_each(|col| col[to] = col[from]);
    }

    fn row(&self, i: usize) -> Vec<T> {
        let rest = self.1.iter().map(|col| col[i]);
        std::iter::once(self.0[i]).chain(rest).collect()
    }

    fn swap_row(&mut self, i: usize, row: &mut Vec<T>) {
        let cols = std::iter::once(&mut *self.0).chain(self.1.iter_mut());
        cols.zip(row)
            .for_each(|(col, x)| std::mem::swap(&mut col[i], x));
    }
}

/// Where a seeding puts each live source row, one outside the ascending
/// exclusion list: right after the live rows before it (a bulk copy), or
/// at its slot (a planned scatter: one slot per live row, in source
/// order). Each column is placed on its own.
struct Placement<'a> {
    /// Length of the source columns.
    len: usize,
    excluded: &'a [RowId],
    slots: Option<Vec<u32>>,
}

impl Placement<'_> {
    /// Each live run of the source, with the live positions it covers:
    /// its copy's destination, or its range of the slot array.
    fn runs(&self) -> impl Iterator<Item = (Range<usize>, Range<usize>)> + '_ {
        let mut at = 0;
        live_runs(self.len, self.excluded).map(move |run| {
            let from = at;
            at += run.len();
            (run, from..at)
        })
    }

    /// Place the live rows of source column `src` in `dst`.
    fn place<T: Copy>(&self, src: &[T], dst: &mut [T]) {
        for (run, at) in self.runs() {
            match &self.slots {
                None => dst[at].copy_from_slice(&src[run]),
                Some(slots) => move_to_slots(&src[run], &slots[at], dst),
            }
        }
    }

    /// Place each live row's key, its source position, in `dst`: what
    /// [`Self::place`] does to an identity column, without one.
    fn place_keys(&self, dst: &mut [RowId]) {
        for (run, at) in self.runs() {
            let keys = run.start as RowId..run.end as RowId;
            match &self.slots {
                None => dst[at].iter_mut().zip(keys).for_each(|(d, k)| *d = k),
                Some(slots) => {
                    for (k, &s) in keys.zip(&slots[at]) {
                        dst[s as usize] = k;
                    }
                }
            }
        }
    }
}

/// Move the values in `col` through `slots` (one per value, relative to
/// the slice) from a copy, which is freed on return.
fn reorder<T: Copy>(col: &mut [T], slots: &[u32]) {
    let src = col.to_vec();
    move_to_slots(&src, slots, col);
}

/// A head array and `k >= 1` tail columns, row-aligned and physically
/// reorganized together by cracking, plus the cracker index describing
/// the current partitioning. One tail is a cracker column or cracker
/// map; several are a *map group*: maps that queries use together share
/// one head, one index and every crack and ripple, each tail a
/// contiguous column of its own.
#[derive(Debug, Clone)]
pub struct CrackedArray<T: Copy> {
    /// Head and tail buffers: free front slack, then the tuples.
    head: Vec<Val>,
    /// The first tail column, then a group's further ones (none for a
    /// one-tail array, which so allocates nothing besides its buffers).
    tail: Vec<T>,
    more: Vec<Vec<T>>,
    /// The partitioning, and the length of the front slack.
    index: CrackerIndex,
    /// Cumulative tuples touched (scanned/swapped) by crack kernels —
    /// the robustness metric of the property tests and benches.
    touched: u64,
}

impl<T: Copy> CrackedArray<T> {
    /// Build from parallel head/tail vectors.
    ///
    /// # Panics
    /// If the vectors differ in length.
    pub fn new(head: Vec<Val>, tail: Vec<T>) -> Self {
        Self::from_parts(head, tail, CrackerIndex::new())
    }

    /// Seed from a base-column snapshot: the `head` source slice and one
    /// source slice per tail column, minus the `excluded` positions
    /// (ascending, duplicate-free).
    ///
    /// Without a plan this is a bulk copy of the live runs. With the
    /// [`SeedPlan`] of the same `head` and `excluded`, the result is
    /// bit-for-bit the state copy-then-`prepartition` produces — same
    /// head and tail order, same advisory cuts, same `touched` — from
    /// one scatter of the source into bucket order: a slot pass over the
    /// head, then the head and each tail column moved through the slots
    /// on its own.
    ///
    /// Either way the arrays reserve `headroom` free slots at each end
    /// for the inserts the structure merges later: spare capacity at the
    /// back, front slack at the front ([`insert_headroom`] for a
    /// structure that merges updates, 0 for one that never does).
    ///
    /// # Panics
    /// If there is no tail, the slices differ in length or the plan was
    /// made for a different number of live tuples.
    pub fn seeded(
        head: &[Val],
        tails: &[&[T]],
        excluded: &[RowId],
        plan: Option<&SeedPlan>,
        headroom: usize,
    ) -> Self
    where
        T: Default,
    {
        assert!(!tails.is_empty(), "no tail");
        assert!(
            tails.iter().all(|t| t.len() == head.len()),
            "head/tail length mismatch"
        );
        let fill = |place: &Placement<'_>, c: usize, dst: &mut [T]| place.place(tails[c], dst);
        Self::seed_with(head, tails.len(), excluded, plan, headroom, fill)
    }

    /// The body of [`Self::seeded`] for `width` tail columns, each filled
    /// by `fill(placement, column, destination)`.
    fn seed_with(
        head: &[Val],
        width: usize,
        excluded: &[RowId],
        plan: Option<&SeedPlan>,
        headroom: usize,
        fill: impl Fn(&Placement<'_>, usize, &mut [T]),
    ) -> Self
    where
        T: Default,
    {
        let (n, o) = (head.len() - excluded.len(), headroom);
        // Copy and scatter write every tuple slot once, so the fill is
        // never read. A zero fill is a zeroed allocation: on fresh pages
        // no write pass, and the slack pages stay untouched until ripples
        // use them. A chunk the heap reuses is cleared by `calloc`.
        fn buffer<X: Copy>(fill: X, len: usize, spare: usize) -> Vec<X> {
            let mut b = vec![fill; len + spare];
            b.truncate(len);
            b
        }
        let column = || buffer(T::default(), o + n, o);
        let mut arr = CrackedArray {
            head: buffer(0, o + n, o),
            tail: column(),
            more: (1..width).map(|_| column()).collect(),
            index: CrackerIndex::with_origin(o),
            touched: 0,
        };
        let slots = plan.map(|plan| {
            assert_eq!(
                plan.offsets.last(),
                Some(&n),
                "plan is for another snapshot"
            );
            let mut cursors = plan.offsets[..plan.by.buckets()].to_vec();
            let mut slots = Vec::with_capacity(n);
            for run in live_runs(head.len(), excluded) {
                plan.by.slots_into(&head[run], &mut cursors, &mut slots);
            }
            slots
        });
        let place = Placement {
            len: head.len(),
            excluded,
            slots,
        };
        place.place(head, &mut arr.head[o..]);
        for (c, dst) in arr.columns_mut().enumerate() {
            fill(&place, c, &mut dst[o..]);
        }
        // Free the slots before the index grows, so they leave no hole
        // below its leaves (see the allocation notes in the README).
        drop(place);
        if let Some(plan) = plan {
            arr.record_cuts(plan.key, 0, &plan.by, &plan.offsets);
        }
        arr
    }

    /// Assemble a one-tail array from its buffers and index (partial
    /// sideways cracking's chunks: gathered buffers and a revived index
    /// shell). The buffers start with the index's
    /// [`CrackerIndex::origin`] free slots. The touched-tuple counter
    /// starts at zero.
    ///
    /// # Panics
    /// If the buffers differ in length or are shorter than the origin.
    pub fn from_parts(head: Vec<Val>, tail: Vec<T>, index: CrackerIndex) -> Self {
        assert_eq!(head.len(), tail.len(), "head/tail length mismatch");
        assert!(index.origin() <= head.len(), "origin past the buffers");
        CrackedArray {
            head,
            tail,
            more: Vec::new(),
            index,
            touched: 0,
        }
    }

    /// Cumulative count of tuples the crack kernels have scanned or
    /// swapped over this array's lifetime. Per-query deltas of this
    /// counter are the workload-robustness metric (tuples touched per
    /// query must fall as the array converges).
    pub fn touched(&self) -> u64 {
        self.touched
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.head.len() - self.index.origin()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Head (selection attribute) values.
    pub fn head(&self) -> &[Val] {
        &self.head[self.index.origin()..]
    }

    /// Values of the first (for a one-tail array: the) tail column.
    pub fn tail(&self) -> &[T] {
        self.tail_at(0)
    }

    /// Values of tail column `c`.
    pub fn tail_at(&self, c: usize) -> &[T] {
        let col = if c == 0 {
            &self.tail
        } else {
            &self.more[c - 1]
        };
        &col[self.index.origin()..]
    }

    /// Number of tail columns.
    pub fn width(&self) -> usize {
        1 + self.more.len()
    }

    /// Every tail column's buffer, first to last.
    fn columns_mut(&mut self) -> impl Iterator<Item = &mut Vec<T>> {
        std::iter::once(&mut self.tail).chain(&mut self.more)
    }

    /// Take the other array's tail columns on as this array's last ones
    /// (a group merge). Only physically identical arrays merge: same
    /// head order (if neither head is out) and index, so every row stays
    /// one tuple.
    pub fn append_tails(&mut self, other: Self) {
        let state = |a: &Self| (a.index.origin, a.index.boundaries_with_status());
        let taken = self.head.is_empty() || other.head.is_empty();
        debug_assert!(taken || self.head() == other.head(), "merged heads differ");
        debug_assert_eq!(state(self), state(&other), "merged indexes differ");
        self.more.push(other.tail);
        self.more.extend(other.more);
    }

    /// Add a tail column as this array's last one: `tail` is the
    /// buffer, front slack included, of values in this array's row
    /// order.
    ///
    /// # Panics
    /// If `tail` is not as long as the other columns.
    pub fn push_tail(&mut self, tail: Vec<T>) {
        assert_eq!(tail.len(), self.tail.len(), "tail length mismatch");
        self.more.push(tail);
    }

    /// Swap the head buffer, front slack included, for `head`, and
    /// return the old one. An empty `head` takes the head out (§4.1's
    /// head drop): until a buffer of the head values in this array's row
    /// order is put back — the one taken, or a rebuild of it — the tails
    /// and the index stay readable, but reading the head, cracking or
    /// rippling panics.
    ///
    /// # Panics
    /// If `head` is neither empty nor as long as the tail columns.
    pub fn replace_head(&mut self, head: Vec<Val>) -> Vec<Val> {
        let fits = head.is_empty() || head.len() == self.tail.len();
        assert!(fits, "head/tail length mismatch");
        std::mem::replace(&mut self.head, head)
    }

    /// Drop tail column `c` of a group (storage management). The last
    /// tail stays: an array without one is no structure.
    pub fn remove_tail(&mut self, c: usize) {
        if c > 0 {
            self.more.remove(c - 1);
        } else if !self.more.is_empty() {
            self.tail = self.more.remove(0);
        }
    }

    /// Each buffer's (head first, then every tail) base pointer and
    /// capacity, which tests hold to show that an update did not
    /// reallocate.
    #[doc(hidden)]
    pub fn allocation(&self) -> Vec<(usize, usize)> {
        let head = (self.head.as_ptr() as usize, self.head.capacity());
        let tails = std::iter::once(&self.tail).chain(&self.more);
        let tails = tails.map(|t| (t.as_ptr() as usize, t.capacity()));
        [head].into_iter().chain(tails).collect()
    }

    /// The cracker index.
    pub fn index(&self) -> &CrackerIndex {
        &self.index
    }

    /// Mutable access to the index (storage-management paths only).
    pub fn index_mut(&mut self) -> &mut CrackerIndex {
        &mut self.index
    }

    /// Ensure a boundary exists, physically cracking the enclosing piece
    /// if needed. Returns the boundary position.
    pub fn ensure_boundary(&mut self, key: BoundaryKey) -> usize {
        if let Some(p) = self.index.position_of(key) {
            return p;
        }
        self.maybe_prepartition(key);
        if let Some(p) = self.index.position_of(key) {
            // A prepartition cut landed exactly on the queried boundary
            // (already promoted to query-mandated by `prepartition`).
            return p;
        }
        let ((s, e), o) = (
            self.index.enclosing_piece(key, self.len()),
            self.index.origin,
        );
        let head = &mut self.head;
        let split = with_tails!(self.tail, self.more, |t| {
            crack_rows_in_two(head, t, o + s, o + e, key.0, key.1)
        }) - o;
        self.touched += (e - s) as u64;
        self.index.record(key, split);
        split
    }

    /// Radix-prepartition fast path: when the first crack would have to
    /// plough a huge uncracked piece, pay one cache-friendly counting
    /// partition (`columnstore::radix`) instead and seed the piece with
    /// up to 256 equal-width *advisory* boundaries at once (boundaries
    /// no query asked for, which storage management may drop). Later
    /// cracks then run on roughly [`PREPARTITION_TARGET_PIECE`]-sized
    /// pieces. A structure whose *first* crack would do this to the
    /// whole virgin array is seeded in bucket order to begin with
    /// ([`SeedPlan`], [`Self::seeded`]) and never gets here.
    ///
    /// The one place the access pattern departs from the paper's.
    /// Deterministic given the array state, so tape replay on aligned
    /// siblings reproduces it exactly.
    fn maybe_prepartition(&mut self, key: BoundaryKey) {
        let (s, e) = self.index.enclosing_piece(key, self.len());
        if e - s >= PREPARTITION_MIN_PIECE {
            self.prepartition(key, PREPARTITION_TARGET_PIECE);
        }
    }

    /// Unconditionally counting-partition the piece enclosing `key` into
    /// roughly `target_piece`-sized advisory pieces (capped at 256
    /// buckets and at the piece's distinct-value range): one min/max
    /// pass, one counting pass, one slot pass, then one out-of-place
    /// move per column, with bucket membership in exact integer arithmetic
    /// ([`ValueBuckets`]). Public for benches and tests; queries reach it
    /// automatically through the [`PREPARTITION_MIN_PIECE`] size
    /// threshold. No-op when the piece holds fewer than two values or
    /// `key` already has a boundary.
    pub fn prepartition(&mut self, key: BoundaryKey, target_piece: usize) {
        if self.index.position_of(key).is_some() {
            return;
        }
        let (s, e) = self.index.enclosing_piece(key, self.len());
        let (o, n) = (self.index.origin, e - s);
        let piece = o + s..o + e;
        let (min, max) = widen((Val::MAX, Val::MIN), &self.head[piece.clone()]);
        let Some(by) = prepartition_buckets(n, target_piece, min, max) else {
            return; // empty, single-value or sub-target piece: nothing to cut
        };
        let offsets = self.cluster_piece(piece, &by);
        self.record_cuts(key, s, &by, &offsets);
    }

    /// Counting-partition the tuples in buffer range `piece` into the
    /// value ranges of `by`: one counting pass and one slot pass over the
    /// head in place, then each column in turn copied, moved back
    /// through the slots and its copy freed, so only the slots and one
    /// column's copy are live at once. Returns the bucket offsets. All
    /// of it is freed on return, before the caller's index grows: the
    /// big arrays of the next structure reuse their heap space (see the
    /// allocation notes in the README).
    fn cluster_piece(&mut self, piece: Range<usize>, by: &ValueBuckets) -> Vec<usize> {
        let mut counts = vec![0usize; by.buckets()];
        by.count_into(&self.head[piece.clone()], &mut counts);
        let offsets = bucket_offsets(&counts);
        let mut slots = Vec::with_capacity(piece.len());
        let mut cursors = offsets[..by.buckets()].to_vec();
        by.slots_into(&self.head[piece.clone()], &mut cursors, &mut slots);
        reorder(&mut self.head[piece.clone()], &slots);
        for col in self.columns_mut() {
            reorder(&mut col[piece.clone()], &slots);
        }
        offsets
    }

    /// Book a prepartition of the piece starting at `start`: one logical
    /// pass over it, like a crack of it (the counter is the paper's
    /// touched-tuples metric, not a physical sweep count), and an
    /// advisory cut at every inner bucket offset.
    fn record_cuts(
        &mut self,
        key: BoundaryKey,
        start: usize,
        by: &ValueBuckets,
        offsets: &[usize],
    ) {
        self.touched += offsets[by.buckets()] as u64;
        for (b, &off) in offsets.iter().enumerate().take(by.buckets()).skip(1) {
            self.index
                .record_advisory((by.lower_bound(b), BoundKind::Lt), start + off);
        }
        if self.index.position_of(key).is_some() {
            // The queried boundary coincides with a cut: it is
            // query-mandated, not advisory.
            self.index.promote(key);
        }
    }

    /// Assert the boundary-inversion invariant: the hi boundary of a
    /// non-empty predicate can never sit left of its lo boundary,
    /// because boundary keys are totally ordered and every recorded
    /// boundary physically partitions the same array. (This used to be a
    /// silent `b.max(a)` clamp; debug builds now fail loudly, and the
    /// clamp only remains as release-mode slicing protection.)
    fn checked_range(a: usize, b: usize) -> (usize, usize) {
        debug_assert!(
            b >= a,
            "boundary inversion: hi boundary at {b} left of lo boundary at {a}"
        );
        (a, b.max(a))
    }

    /// Crack so that all tuples qualifying `pred` form the contiguous area
    /// `[start, end)`; returns that range. Uses crack-in-three when both
    /// new boundaries fall into the same piece.
    pub fn crack_range(&mut self, pred: &RangePred) -> (usize, usize) {
        let n = self.len();
        if pred.is_empty_range() {
            return (0, 0);
        }
        let (lo_k, hi_k) = pred_keys(pred);
        match (lo_k, hi_k) {
            (None, None) => (0, n),
            (Some(lk), None) => (self.ensure_boundary(lk), n),
            (None, Some(hk)) => (0, self.ensure_boundary(hk)),
            (Some(lk), Some(hk)) => {
                debug_assert!(lk < hk, "non-empty pred must order its keys");
                // Seed huge virgin pieces before deciding between the
                // crack-in-three and two-crack paths: the piece layout
                // (and thus the choice) may change under prepartition.
                self.maybe_prepartition(lk);
                self.maybe_prepartition(hk);
                let lo_pos = self.index.position_of(lk);
                let hi_pos = self.index.position_of(hk);
                match (lo_pos, hi_pos) {
                    (Some(a), Some(b)) => Self::checked_range(a, b),
                    (Some(a), None) => {
                        let b = self.ensure_boundary(hk);
                        Self::checked_range(a, b)
                    }
                    (None, Some(b)) => {
                        let a = self.ensure_boundary(lk);
                        Self::checked_range(a, b)
                    }
                    (None, None) => {
                        let (s1, e1) = self.index.enclosing_piece(lk, n);
                        let (s2, e2) = self.index.enclosing_piece(hk, n);
                        if (s1, e1) == (s2, e2) {
                            let (head, o) = (&mut self.head, self.index.origin);
                            let (a, b) = with_tails!(self.tail, self.more, |t| {
                                crack_rows_in_three(head, t, o + s1, o + e1, lk, hk)
                            });
                            let (a, b) = (a - o, b - o);
                            self.touched += (e1 - s1) as u64;
                            self.index.record(lk, a);
                            self.index.record(hk, b);
                            (a, b)
                        } else {
                            let a = self.ensure_boundary(lk);
                            let b = self.ensure_boundary(hk);
                            Self::checked_range(a, b)
                        }
                    }
                }
            }
        }
    }

    /// Read-only view of a contiguous area (first tail column).
    pub fn view(&self, range: (usize, usize)) -> (&[Val], &[T]) {
        let r = range.0..range.1;
        (&self.head()[r.clone()], &self.tail()[r])
    }

    /// The piece `[start, end)` that value `v` currently belongs to: two
    /// O(log B) neighbour lookups. `(v, Lt)` and `(v, Le)` are adjacent
    /// keys, `v` belongs right of every boundary up to `(v, Lt)` and
    /// left of every boundary from `(v, Le)` on.
    pub fn piece_of(&self, v: Val) -> (usize, usize) {
        let below = self.index.floor_strict((v, BoundKind::Le));
        let above = self.index.ceil_strict((v, BoundKind::Lt));
        let s = below.map_or(0, |(_, p)| p);
        let e = above.map_or(self.len(), |(_, p)| p);
        (s, e.max(s))
    }

    /// Does a ripple update of a tuple with head value `v` have fewer
    /// live boundaries between it and the front than between it and
    /// the back? Ties ripple toward the back, as SIGMOD'07 always does.
    /// The boundaries above `v`'s piece are those from `(v, Le)` on.
    fn front_is_nearer(&self, v: Val) -> bool {
        2 * self.index.rank((v, BoundKind::Le)) < self.index.len()
    }

    /// Ripple-insert one tuple (Idreos et al., SIGMOD 2007): grow the
    /// array by one at its nearer end and shift each piece boundary
    /// between that end and the target piece by moving a single element
    /// per piece, preserving all cracker-index knowledge. The front end
    /// counts only while the front slack has a free slot. Costs one
    /// lookup plus one walk over those boundaries, starting at the end
    /// ([`CrackerIndex`]'s ripple walks): one moved tuple and one
    /// in-place position update per boundary passed.
    pub fn ripple_insert(&mut self, v: Val, t: T) {
        self.ripple_insert_row(v, std::slice::from_ref(&t));
    }

    /// [`Self::ripple_insert`] of a tuple with one value per tail column.
    pub fn ripple_insert_row(&mut self, v: Val, row: &[T]) {
        debug_assert_eq!(row.len(), self.width());
        let (split, o) = ((v, BoundKind::Le), self.index.origin);
        let up = o == 0 || !self.front_is_nearer(v);
        // The slot the growth frees: one past the last tuple, or the last
        // free slot before the first one, which joins the lowest piece.
        if up {
            self.head.push(v);
            for (col, &x) in self.columns_mut().zip(row) {
                col.push(x);
            }
        }
        let (head, index) = (&mut self.head, &mut self.index);
        let mut free = if up { head.len() - 1 } else { o - 1 };
        with_tails!(self.tail, self.more, |t| {
            index.ripple(split, up, |pos| {
                // The piece beside this boundary, on the side of the free
                // slot, gives the tuple at its far end to the free slot and
                // frees that end for the piece across the boundary.
                let from = if up { pos } else { pos - 1 };
                let to = if up { pos + 1 } else { from };
                head[free] = head[from];
                t.copy_row(from, free);
                free = from;
                to
            })
        });
        self.index.origin = if up { o } else { o - 1 };
        self.head[free] = v;
        for (col, &x) in self.columns_mut().zip(row) {
            col[free] = x;
        }
    }

    /// Ripple-delete the first tuple with head value `v` whose tail
    /// satisfies `matches`. Returns the position the deletion was
    /// performed at, or `None` if no such tuple exists. The position is
    /// what other aligned structures must replay (see the tape's delete
    /// batches). Costs the scan of `v`'s piece (found by
    /// [`Self::piece_of`]) plus one walk over the boundaries between it
    /// and the nearer end.
    pub fn ripple_delete<F: Fn(&T) -> bool>(&mut self, v: Val, matches: F) -> Option<usize> {
        let (s, e) = self.piece_of(v);
        let p = (s..e).find(|&i| self.head()[i] == v && matches(&self.tail()[i]))?;
        self.ripple_delete_at(p);
        Some(p)
    }

    /// Ripple-delete the tuple at a known position (replaying a
    /// deletion another aligned map already performed). Returns the
    /// removed `(head, tail)` pair. Costs one walk over the boundaries
    /// between `p` and the nearer end, which shrinks by one.
    ///
    /// Toward the back, every boundary above `p` moves down one slot, so
    /// each piece from `p`'s up gives up its last slot: the tuple there
    /// moves into the hole below it — `p` for `p`'s piece, the slot the
    /// piece gained for every piece above — and the array's last slot
    /// is left free. The walk runs top down, so it carries one tuple
    /// from slot to slot instead of chasing the hole up; the moves are
    /// those of the bottom-up order. Toward the front it is the mirror
    /// image: every boundary below `p` moves up one slot, each piece up
    /// to `p`'s gives up its first slot, and the first tuple slot joins
    /// the front slack. Boundaries sharing a position (empty pieces)
    /// move one tuple.
    pub fn ripple_delete_at(&mut self, p: usize) -> (Val, T) {
        let removed = (self.head()[p], self.tail()[p]);
        // The tuple sits in the piece of its head value.
        let (split, o) = ((removed.0, BoundKind::Le), self.index.origin);
        let front = self.front_is_nearer(removed.0);
        let (head, index) = (&mut self.head, &mut self.index);
        // `carry` is the tuple moving toward the hole and `filled` the
        // slot it came from: at first the end slot the shrink frees.
        let mut filled = if front { o } else { head.len() - 1 };
        with_tails!(self.tail, self.more, |t| {
            let mut carry = (head[filled], t.row(filled));
            index.ripple(split, !front, |pos| {
                // The piece beside this boundary, on the side of the hole,
                // gives up its slot next to the boundary. INVARIANT: toward
                // the back, a boundary above the hole sits at `pos > 0`.
                let slot = if front { pos } else { pos - 1 };
                let to = if front { slot + 1 } else { slot };
                if slot != filled {
                    std::mem::swap(&mut head[slot], &mut carry.0);
                    t.swap_row(slot, &mut carry.1);
                    filled = slot;
                }
                to
            });
            if o + p != filled {
                head[o + p] = carry.0;
                t.swap_row(o + p, &mut carry.1);
            }
        });
        self.index.origin = if front { o + 1 } else { o };
        if !front {
            self.head.pop();
            self.columns_mut()
                .for_each(|col| col.truncate(col.len() - 1));
        }
        removed
    }

    /// Check that the index describes the arrays: the index passes
    /// [`CrackerIndex::check_invariants`] (live boundary positions
    /// ascend in key order), head and tail have one length, live
    /// boundary positions lie within it, and every piece's head values
    /// belong right of the boundary below the piece and left of the one
    /// above it. Boundary keys are totally ordered, so the two
    /// neighbours imply every other boundary: one ordered walk,
    /// O(n + B). `Err` names the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.index.check_invariants()?;
        let n = self.len();
        if let Some(c) = (0..self.width()).find(|&c| self.tail_at(c).len() != n) {
            return Err(format!(
                "head holds {n} tuples, tail {c} {}",
                self.tail_at(c).len()
            ));
        }
        let mut below: Option<(BoundaryKey, usize)> = None;
        let bounds = self.index.boundaries().into_iter().map(Some);
        for above in bounds.chain([None]) {
            let start = below.map_or(0, |(_, p)| p);
            let end = above.map_or(n, |(_, p)| p);
            if let Some(((bv, kind), pos)) = above {
                if pos > n {
                    return Err(format!(
                        "boundary ({bv:?},{kind:?})@{pos} outside [{start}, {n}]"
                    ));
                }
            }
            for (i, &h) in (start..end).zip(&self.head()[start..end]) {
                let violated = below
                    .filter(|&((bv, kind), _)| kind.belongs_left(h, bv))
                    .or(above.filter(|&((bv, kind), _)| !kind.belongs_left(h, bv)));
                if let Some(((bv, kind), pos)) = violated {
                    return Err(format!(
                        "value {h} at {i} violates boundary ({bv:?},{kind:?})@{pos}"
                    ));
                }
            }
            below = above;
        }
        Ok(())
    }

    /// Test helper: panic unless [`Self::check_invariants`] holds.
    #[doc(hidden)]
    pub fn check_partitioning(&self) {
        if let Err(e) = self.check_invariants() {
            // INVARIANT: a test helper whose job is to fail loudly.
            panic!("{e}");
        }
    }
}

impl CrackedArray<RowId> {
    /// [`Self::seeded`] for a `(value, key)` structure — a cracker
    /// column, key map or chunk map — whose one tail holds each live
    /// row's key, its position in the source: the keys are written
    /// straight through the slot array (or, without a plan, run by
    /// run), so no identity array is built or moved. The result equals
    /// [`Self::seeded`] with the identity column `0..head.len()` as its
    /// tail.
    ///
    /// # Panics
    /// If the plan was made for a different number of live tuples.
    pub fn seeded_keys(
        head: &[Val],
        excluded: &[RowId],
        plan: Option<&SeedPlan>,
        headroom: usize,
    ) -> Self {
        let fill = |place: &Placement<'_>, _: usize, dst: &mut [RowId]| place.place_keys(dst);
        Self::seed_with(head, 1, excluded, plan, headroom, fill)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_columnstore::types::RangePred;

    fn arr() -> CrackedArray<u32> {
        let head = vec![12, 3, 5, 9, 15, 22, 7, 26, 4, 2, 24, 11, 16];
        let tail: Vec<u32> = (0..13).collect();
        CrackedArray::new(head, tail)
    }

    #[test]
    fn figure1_first_query() {
        // select B from R where 10 < A < 15.
        let mut a = arr();
        let (s, e) = a.crack_range(&RangePred::open(10, 15));
        let (h, t) = a.view((s, e));
        let mut pairs: Vec<_> = h.iter().zip(t).map(|(&v, &k)| (v, k)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(11, 11), (12, 0)]);
        a.check_partitioning();
        assert_eq!(a.index().len(), 2);
    }

    #[test]
    fn figure1_second_query_cracks_incrementally() {
        let mut a = arr();
        a.crack_range(&RangePred::open(10, 15));
        // select B from R where 5 <= A < 17: middle piece fully qualifies,
        // only outer pieces are cracked further.
        let (s, e) = a.crack_range(&RangePred::half_open(5, 17));
        let (h, _) = a.view((s, e));
        let mut vals: Vec<_> = h.to_vec();
        vals.sort_unstable();
        assert_eq!(vals, vec![5, 7, 9, 11, 12, 15, 16]);
        a.check_partitioning();
        assert_eq!(a.index().len(), 4);
    }

    #[test]
    fn repeat_query_needs_no_crack() {
        let mut a = arr();
        let r1 = a.crack_range(&RangePred::open(10, 15));
        let boundaries_before = a.index().len();
        let r2 = a.crack_range(&RangePred::open(10, 15));
        assert_eq!(r1, r2);
        assert_eq!(a.index().len(), boundaries_before);
    }

    #[test]
    fn one_sided_predicates() {
        let mut a = arr();
        let (s, e) = a.crack_range(&RangePred::less(
            crackdb_columnstore::types::Bound::exclusive(10),
        ));
        assert_eq!(s, 0);
        let (h, _) = a.view((s, e));
        assert!(h.iter().all(|&v| v < 10));
        assert_eq!(h.len(), 6);
        a.check_partitioning();
    }

    #[test]
    fn point_query() {
        let head = vec![5, 3, 5, 1, 5, 9];
        let tail: Vec<u32> = (0..6).collect();
        let mut a = CrackedArray::new(head, tail);
        let (s, e) = a.crack_range(&RangePred::point(5));
        let (h, _) = a.view((s, e));
        assert_eq!(h, &[5, 5, 5]);
        a.check_partitioning();
    }

    #[test]
    fn empty_pred_returns_empty() {
        let mut a = arr();
        let (s, e) = a.crack_range(&RangePred::open(5, 5));
        assert_eq!(s, e);
    }

    #[test]
    fn no_result_range() {
        let mut a = arr();
        let (s, e) = a.crack_range(&RangePred::open(16, 22));
        let (h, _) = a.view((s, e));
        assert!(h.is_empty());
        a.check_partitioning();
    }

    #[test]
    fn check_invariants_names_the_first_violation() {
        let mut a = arr();
        a.crack_range(&RangePred::open(10, 15));
        assert_eq!(a.check_invariants(), Ok(()));
        // One slot to the right: a middle-piece value is now left of
        // the lower boundary.
        let (key, pos) = a.index().boundaries()[0];
        let mut moved = a.clone();
        moved.index_mut().record(key, pos + 1);
        let err = moved.check_invariants().unwrap_err();
        assert!(err.contains("violates"), "{err}");
        // Past the end, and left of the boundary below it.
        for bad in [a.len() + 1, 0] {
            let mut b = a.clone();
            b.index_mut().record((99, BoundKind::Lt), bad);
            let err = b.check_invariants().unwrap_err();
            assert!(err.contains("outside"), "{err}");
        }
    }

    #[test]
    fn ripple_insert_into_each_piece() {
        let mut a = arr();
        a.crack_range(&RangePred::open(10, 15));
        let before = a.len();
        a.ripple_insert(1, 100); // lowest piece
        a.ripple_insert(13, 101); // middle piece
        a.ripple_insert(99, 102); // top piece
        assert_eq!(a.len(), before + 3);
        a.check_partitioning();
        // All three tuples findable via a fresh crack.
        let (s, e) = a.crack_range(&RangePred::open(10, 15));
        let (h, t) = a.view((s, e));
        assert!(h.iter().zip(t).any(|(&v, &k)| v == 13 && k == 101));
    }

    #[test]
    fn ripple_insert_uncracked() {
        let mut a = CrackedArray::new(vec![5, 1], vec![0u32, 1]);
        a.ripple_insert(3, 2);
        assert_eq!(a.len(), 3);
        let (s, e) = a.crack_range(&RangePred::closed(3, 3));
        assert_eq!(e - s, 1);
    }

    #[test]
    fn ripple_delete_from_middle_piece() {
        let mut a = arr();
        a.crack_range(&RangePred::open(10, 15));
        let before = a.len();
        assert!(a.ripple_delete(12, |&k| k == 0).is_some());
        assert_eq!(a.len(), before - 1);
        a.check_partitioning();
        let (s, e) = a.crack_range(&RangePred::open(10, 15));
        let (h, _) = a.view((s, e));
        assert_eq!(h, &[11]);
    }

    #[test]
    fn ripple_delete_missing_returns_false() {
        let mut a = arr();
        a.crack_range(&RangePred::open(10, 15));
        assert!(a.ripple_delete(12, |&k| k == 999).is_none());
        assert!(a.ripple_delete(1000, |_| true).is_none());
        a.check_partitioning();
    }

    #[test]
    fn ripple_roundtrip_many() {
        let mut a = arr();
        a.crack_range(&RangePred::open(5, 20));
        a.crack_range(&RangePred::open(2, 9));
        for i in 0..50 {
            a.ripple_insert(i % 30, 1000 + i as u32);
            a.check_partitioning();
        }
        for i in 0..50 {
            assert!(a
                .ripple_delete((i % 30) as Val, |&k| k == 1000 + i as u32)
                .is_some());
            a.check_partitioning();
        }
        assert_eq!(a.len(), 13);
    }

    /// Satellite regression for the `(Some(a), Some(b))` clamp audit:
    /// interleaved two-sided cracks (nested, overlapping, touching,
    /// repeated, point) must never record inverted boundaries — the
    /// debug assertion in `checked_range` fires if they do, and the
    /// returned ranges must always be well-formed supersets of nothing
    /// (start <= end) with correct partitioning.
    #[test]
    fn interleaved_two_sided_cracks_never_invert() {
        let mut state = 0xDEAD_BEEFu64;
        let mut next = |m: i64| -> i64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as i64).rem_euclid(m)
        };
        let head: Vec<Val> = (0..500).map(|_| next(100)).collect();
        let tail: Vec<u32> = (0..500).collect();
        let mut a = CrackedArray::new(head, tail);
        for i in 0..300 {
            let lo = next(100);
            let hi = lo + next(20);
            let pred = match i % 4 {
                0 => RangePred::open(lo, hi),
                1 => RangePred::closed(lo, hi),
                2 => RangePred::half_open(lo, hi),
                _ => RangePred::point(lo),
            };
            let (s, e) = a.crack_range(&pred);
            assert!(s <= e, "query {i}: inverted range ({s}, {e})");
            // Both recorded boundaries must resolve in order.
            if let (Some(lk), Some(hk)) = crate::index::pred_keys(&pred) {
                if !pred.is_empty_range() {
                    let pl = a.index().position_of(lk).expect("lo recorded");
                    let ph = a.index().position_of(hk).expect("hi recorded");
                    assert!(pl <= ph, "query {i}: boundaries inverted {pl} > {ph}");
                }
            }
            a.check_partitioning();
        }
    }

    #[test]
    fn touched_counter_accumulates_on_cracks_only() {
        let mut a = arr();
        assert_eq!(a.touched(), 0);
        a.crack_range(&RangePred::open(10, 15));
        let after_first = a.touched();
        assert!(after_first > 0);
        // Repeat query: boundaries exist, nothing touched.
        a.crack_range(&RangePred::open(10, 15));
        assert_eq!(a.touched(), after_first);
    }

    fn lcg_vals(n: usize, m: i64, seed: u64) -> Vec<Val> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as i64).rem_euclid(m)
            })
            .collect()
    }

    #[test]
    fn prepartition_seeds_advisory_cuts_and_keeps_answers() {
        let head = lcg_vals(20_000, 10_000, 42);
        let tail: Vec<u32> = (0..20_000).collect();
        let mut pre = CrackedArray::new(head.clone(), tail.clone());
        let mut plain = CrackedArray::new(head, tail);
        // Force the fast path below its automatic threshold.
        pre.prepartition((5_000, BoundKind::Lt), 1_000);
        assert!(pre.index().advisory_count() > 2, "cuts were seeded");
        pre.check_partitioning();
        // Every later query answers identically to the uncut twin.
        for (lo, hi) in [(100, 900), (4_990, 5_003), (0, 9_999), (7_500, 7_501)] {
            let (s1, e1) = pre.crack_range(&RangePred::open(lo, hi));
            let (s2, e2) = plain.crack_range(&RangePred::open(lo, hi));
            let mut a = pre.head()[s1..e1].to_vec();
            let mut b = plain.head()[s2..e2].to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "answers differ for ({lo}, {hi})");
            pre.check_partitioning();
        }
    }

    #[test]
    fn prepartition_promotes_coincident_query_key() {
        // Domain [0, 1000) split into 10 buckets puts a cut exactly at
        // value 100 — the same key a query for `< 100` mandates.
        let head = lcg_vals(50_000, 1_000, 7);
        let tail: Vec<u32> = (0..50_000).collect();
        let mut a = CrackedArray::new(head, tail);
        let key = (100, BoundKind::Lt);
        a.prepartition(key, 5_000);
        assert!(a.index().position_of(key).is_some(), "cut at the key");
        assert!(!a.index().is_advisory(key), "query key was promoted");
        a.check_partitioning();
    }

    #[test]
    fn prepartition_degenerates_are_noops() {
        // Single-value piece: nothing to cut.
        let mut a = CrackedArray::new(vec![7; 4096], (0..4096u32).collect());
        a.prepartition((3, BoundKind::Lt), 16);
        assert_eq!(a.index().len(), 0);
        // Tiny value range caps the bucket count at the range.
        let head: Vec<Val> = (0..4096).map(|i| i % 2).collect();
        let mut a = CrackedArray::new(head, (0..4096u32).collect());
        a.prepartition((1, BoundKind::Lt), 16);
        assert!(a.index().len() <= 1, "at most one cut for two values");
        a.check_partitioning();
        // Existing boundary at the key: no-op.
        let mut a = arr();
        a.crack_range(&RangePred::open(10, 15));
        let n_before = a.index().len();
        a.prepartition((15, BoundKind::Lt), 1);
        assert_eq!(a.index().len(), n_before);
    }

    #[test]
    fn automatic_prepartition_fires_above_threshold_under_block_kernel() {
        let n = super::PREPARTITION_MIN_PIECE + 10;
        let head = lcg_vals(n, 1 << 30, 11);
        let tail: Vec<u32> = (0..n as u32).collect();
        let mut a = CrackedArray::new(head, tail);
        let pred = RangePred::open(1 << 20, (1 << 20) + (1 << 14));
        let (s, e) = a.crack_range(&pred);
        // A piece just over the 2^20 threshold with a 2^16 target piece
        // yields 16 buckets, i.e. 15 advisory cuts (minus coincidences).
        assert!(
            a.index().advisory_count() >= 10,
            "first crack of a {n}-tuple piece seeds many cuts, got {}",
            a.index().advisory_count()
        );
        assert!(a.head()[s..e].iter().all(|&v| pred.matches(v)));
        // Pieces are now small: the next query in a far region cracks
        // only its enclosing bucket, not the whole array.
        let before = a.touched();
        a.crack_range(&RangePred::open(1 << 29, (1 << 29) + (1 << 14)));
        let delta = a.touched() - before;
        // Two bounds can each crack one ~n/16 bucket: well under n/4.
        assert!(
            delta < (n as u64) / 4,
            "post-seed crack ploughed {delta} of {n} tuples"
        );
    }

    /// The oracle of a counting partition: the rows' indices stably
    /// sorted by bucket, so each bucket keeps source order.
    fn bucket_order(head: &[Val], by: &ValueBuckets) -> Vec<usize> {
        let mut order: Vec<usize> = (0..head.len()).collect();
        order.sort_by_key(|&i| by.bucket_of(head[i]));
        order
    }

    fn permuted<X: Copy>(col: &[X], order: &[usize]) -> Vec<X> {
        order.iter().map(|&i| col[i]).collect()
    }

    /// A prepartition of an interior piece of a three-tail array with
    /// front slack moves that piece's rows, and only those, into the
    /// oracle's order, every tail with its head, and cuts at the bucket
    /// offsets.
    #[test]
    fn prepartition_of_an_interior_piece_matches_copy_then_oracle() {
        let n = 30_000;
        let head = lcg_vals(n, 10_000, 5);
        let tails: Vec<Vec<u32>> = (0..3u64)
            .map(|c| {
                lcg_vals(n, 1 << 30, 6 + c)
                    .iter()
                    .map(|&v| v as u32)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u32]> = tails.iter().map(Vec::as_slice).collect();
        let mut a = CrackedArray::seeded(&head, &refs, &[], None, 300);
        a.crack_range(&RangePred::open(2_000, 8_000));
        a.ripple_insert_row(100, &[1, 2, 3]);
        assert!(a.index().origin() > 0 && a.index().origin() < 300);
        let before = a.clone();
        let key = (5_000, BoundKind::Lt);
        let (s, e) = a.index().enclosing_piece(key, a.len());
        assert!(s > 0 && e < a.len(), "interior piece [{s}, {e})");
        let (min, max) = widen((Val::MAX, Val::MIN), &a.head()[s..e]);
        let by = prepartition_buckets(e - s, 1_000, min, max).expect("buckets");

        a.prepartition(key, 1_000);
        let order = bucket_order(&before.head()[s..e], &by);
        fn moved<X: Copy + PartialEq + std::fmt::Debug>(
            old: &[X],
            new: &[X],
            piece: Range<usize>,
            order: &[usize],
        ) {
            assert_eq!(old[..piece.start], new[..piece.start]);
            assert_eq!(permuted(&old[piece.clone()], order), new[piece.clone()]);
            assert_eq!(old[piece.end..], new[piece.end..]);
        }
        moved(before.head(), a.head(), s..e, &order);
        for c in 0..3 {
            moved(before.tail_at(c), a.tail_at(c), s..e, &order);
        }
        assert_eq!(a.touched(), before.touched() + (e - s) as u64);
        assert_eq!(a.index().origin(), before.index().origin());
        let cuts = a.index().advisory_count() - before.index().advisory_count();
        assert_eq!(cuts, by.buckets() - 1, "one advisory cut per inner offset");
        a.check_partitioning();
    }

    /// [`CrackedArray::seeded`] through a [`SeedPlan`] at benchmark
    /// scale: 3M rows minus an exclusion list, a head and three tails.
    /// Release builds only: `cargo test --release -- --ignored`.
    #[test]
    #[ignore]
    fn seeding_3m_rows_and_three_tails_matches_the_oracle() {
        let n = 3_000_000;
        let head = lcg_vals(n, n as Val, 42);
        let tails: Vec<Vec<Val>> = (0..3).map(|c| lcg_vals(n, Val::MAX, 43 + c)).collect();
        let refs: Vec<&[Val]> = tails.iter().map(Vec::as_slice).collect();
        let excluded: Vec<RowId> = (0..n as RowId).step_by(997).collect();
        let pred = RangePred::open(1_000_000, 1_006_000);
        let plan = SeedPlan::new(&head, &excluded, &pred).expect("3M rows prepartition");
        let arr = CrackedArray::seeded(&head, &refs, &excluded, Some(&plan), n / 64);

        let live = |col: &[Val]| -> Vec<Val> {
            let runs = live_runs(n, &excluded);
            runs.flat_map(|run| col[run].to_vec()).collect()
        };
        let live_head = live(&head);
        let order = bucket_order(&live_head, &plan.by);
        assert_eq!(permuted(&live_head, &order), arr.head());
        for (c, tail) in tails.iter().enumerate() {
            assert_eq!(permuted(&live(tail), &order), arr.tail_at(c), "tail {c}");
        }
    }

    /// The first crack's prepartition of a 6M-row cracker column (an
    /// `ide_sessions` session's): a `RowId` tail. Release builds only.
    #[test]
    #[ignore]
    fn prepartition_of_6m_rowid_rows_matches_the_oracle() {
        let n = 6_000_000;
        let head = lcg_vals(n, 1 << 40, 44);
        let keys: Vec<RowId> = (0..n as RowId).collect();
        let mut a = CrackedArray::new(head.clone(), keys.clone());
        let (min, max) = widen((Val::MAX, Val::MIN), &head);
        let by = prepartition_buckets(n, PREPARTITION_TARGET_PIECE, min, max).expect("buckets");
        a.prepartition((1 << 39, BoundKind::Lt), PREPARTITION_TARGET_PIECE);
        let order = bucket_order(&head, &by);
        assert_eq!(permuted(&head, &order), a.head());
        assert_eq!(permuted(&keys, &order), a.tail());
    }

    #[test]
    fn piece_of_locates_values() {
        let mut a = arr();
        a.crack_range(&RangePred::open(10, 15));
        let (s, e) = a.piece_of(12);
        assert!(a.head()[s..e].iter().all(|&v| v > 10 && v < 15));
        let (s2, e2) = a.piece_of(3);
        assert!(a.head()[s2..e2].iter().all(|&v| v <= 10));
        assert_eq!(s2, 0);
    }
}
