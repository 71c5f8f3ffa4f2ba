//! The physical reorganization kernels: crack-in-two and crack-in-three.
//!
//! These are the two algorithms of the original Database Cracking paper
//! (Idreos et al., CIDR 2007) that both selection cracking and sideways
//! cracking reuse (§3.1 of the SIGMOD'09 paper). They partition a piece of
//! a two-column array *in place*, swapping head and tail values together so
//! the columns stay positionally aligned.
//!
//! [`crack_in_two`] and [`crack_in_three`] are BlockQuicksort-style:
//! membership of a 64-tuple block is computed as a branch-free bit mask,
//! the mask bits are the buffered offsets-to-swap, and swaps are paired
//! between a left and a right block so every tuple is moved at most once.
//! [`crack_in_two_scalar`] and [`crack_in_three_scalar`] are the paper's
//! element-at-a-time loops, one unpredictable branch per tuple. They
//! finish the block kernel's sub-two-block remainder and are the
//! reference the block kernels are tested against.
//!
//! Both return identical split positions (the split is determined by the
//! *count* of qualifying tuples, which no reordering changes) and
//! permutation-equivalent piece contents; `tests/kernel_props.rs`
//! enforces the equivalence with seeded property tests.
//!
//! The kernels are generic over the tail type: cracker columns carry
//! `RowId` tails, cracker maps carry `Val` tails, and head-only arrays use
//! a `()` tail which compiles to nothing. Underneath they are generic over
//! a [`TailSet`]: one tail column, or the column-major tails of a map
//! group, whose row `i` every swap moves across all of its columns. The
//! one-column instantiation is the slice code of the public functions.

use crackdb_columnstore::types::Val;

/// Which side of a boundary value belongs to the left (lower) piece.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BoundKind {
    /// Left piece holds values `< v`; right piece holds `>= v`.
    Lt,
    /// Left piece holds values `<= v`; right piece holds `> v`.
    Le,
}

impl BoundKind {
    /// Does `v` belong to the left piece of a boundary `(pivot, self)`?
    #[inline(always)]
    pub fn belongs_left(self, v: Val, pivot: Val) -> bool {
        match self {
            BoundKind::Lt => v < pivot,
            BoundKind::Le => v <= pivot,
        }
    }
}

/// The tail columns the kernels move alongside the head column, row by
/// row: one column (`[T]`) or a map group's column-major columns (any
/// number of them, or `[&mut [T]; K]`, whose per-row loop unrolls), each
/// as long as the head.
pub trait TailSet {
    /// A row held apart from the columns: one value per column.
    type Row;
    /// Swap rows `i` and `j`.
    fn swap_rows(&mut self, i: usize, j: usize);
    /// Copy row `from` over row `to`.
    fn copy_row(&mut self, from: usize, to: usize);
    /// A copy of row `i`.
    fn row(&self, i: usize) -> Self::Row;
    /// Swap row `i` with `row`.
    fn swap_row(&mut self, i: usize, row: &mut Self::Row);
}

impl<T: Copy> TailSet for [T] {
    type Row = T;

    #[inline(always)]
    fn swap_rows(&mut self, i: usize, j: usize) {
        self.swap(i, j);
    }

    #[inline(always)]
    fn copy_row(&mut self, from: usize, to: usize) {
        self[to] = self[from];
    }

    fn row(&self, i: usize) -> T {
        self[i]
    }

    fn swap_row(&mut self, i: usize, row: &mut T) {
        std::mem::swap(&mut self[i], row);
    }
}

impl<T: Copy, const K: usize> TailSet for [&mut [T]; K] {
    type Row = [T; K];

    #[inline(always)]
    fn swap_rows(&mut self, i: usize, j: usize) {
        self.iter_mut().for_each(|col| col.swap(i, j));
    }

    #[inline(always)]
    fn copy_row(&mut self, from: usize, to: usize) {
        self.iter_mut().for_each(|col| col[to] = col[from]);
    }

    fn row(&self, i: usize) -> [T; K] {
        std::array::from_fn(|c| self[c][i])
    }

    fn swap_row(&mut self, i: usize, row: &mut [T; K]) {
        let cols = self.iter_mut().zip(row);
        cols.for_each(|(col, x)| std::mem::swap(&mut col[i], x));
    }
}

// ---------------------------------------------------------------------
// Scalar kernels (the paper's loops, bit-for-bit)
// ---------------------------------------------------------------------

/// [`crack_in_two`] as the paper writes it: a single Hoare-style pass with
/// paired swaps and one data-dependent branch per element.
pub fn crack_in_two_scalar<T: Copy>(
    head: &mut [Val],
    tail: &mut [T],
    start: usize,
    end: usize,
    pivot: Val,
    kind: BoundKind,
) -> usize {
    debug_assert_eq!(head.len(), tail.len());
    two_scalar(head, tail, start, end, pivot, kind)
}

fn two_scalar<R: TailSet + ?Sized>(
    head: &mut [Val],
    tail: &mut R,
    start: usize,
    end: usize,
    pivot: Val,
    kind: BoundKind,
) -> usize {
    debug_assert!(start <= end && end <= head.len());
    let mut lo = start;
    let mut hi = end;
    while lo < hi {
        if kind.belongs_left(head[lo], pivot) {
            lo += 1;
        } else {
            hi -= 1;
            head.swap(lo, hi);
            tail.swap_rows(lo, hi);
        }
    }
    lo
}

/// [`crack_in_three`] as the paper writes it: a single Dutch-national-flag
/// pass. The bounds must be consistent (`lo_bound <= hi_bound`).
pub fn crack_in_three_scalar<T: Copy>(
    head: &mut [Val],
    tail: &mut [T],
    start: usize,
    end: usize,
    lo_bound: (Val, BoundKind),
    hi_bound: (Val, BoundKind),
) -> (usize, usize) {
    debug_assert!(start <= end && end <= head.len());
    debug_assert_eq!(head.len(), tail.len());
    debug_assert!(
        lo_bound <= hi_bound,
        "bounds must be consistent and ordered"
    );
    let (v1, k1) = lo_bound;
    let (v2, k2) = hi_bound;
    let mut lo = start;
    let mut mid = start;
    let mut hi = end;
    while mid < hi {
        let v = head[mid];
        if k1.belongs_left(v, v1) {
            head.swap(lo, mid);
            tail.swap(lo, mid);
            lo += 1;
            mid += 1;
        } else if !k2.belongs_left(v, v2) {
            hi -= 1;
            head.swap(mid, hi);
            tail.swap(mid, hi);
        } else {
            mid += 1;
        }
    }
    (lo, hi)
}

// ---------------------------------------------------------------------
// Block kernels (branch-free, mask-buffered paired swaps)
// ---------------------------------------------------------------------

/// Tuples per block: one `u64` membership mask covers exactly one block.
const BLOCK: usize = 64;

/// Branch-free membership mask of one block: bit `i` is set iff
/// `offender(blk[i])`. The loop body is comparison-as-arithmetic with an
/// unconditional shift-or — no data-dependent branches, and a shape LLVM
/// can autovectorize on stable Rust (compare + widen + reduce).
#[inline(always)]
fn offender_mask<F: Fn(Val) -> bool>(blk: &[Val], offender: F) -> u64 {
    debug_assert!(blk.len() <= BLOCK);
    let mut m = 0u64;
    for (i, &v) in blk.iter().enumerate() {
        m |= (offender(v) as u64) << i;
    }
    m
}

/// The generic block partition: `belongs_left` monomorphized per
/// [`BoundKind`] so the per-element comparison compiles to a single
/// branch-free `setcc`.
///
/// Invariants maintained: `[start, l)` fully belongs left, `[r, end)`
/// fully belongs right. Each round computes the membership masks of the
/// 64-tuple blocks at `l` and at `r - 64`, then performs paired swaps
/// between the left block's belongs-right offsets and the right block's
/// belongs-left offsets (offsets read off the masks with
/// `trailing_zeros`). A block whose mask drains is wholly resolved and
/// its pointer advances. The sub-two-block remainder falls back to the
/// scalar pass, which also computes the final split.
#[inline(always)]
fn block_partition<R: TailSet + ?Sized, F: Fn(Val) -> bool + Copy>(
    head: &mut [Val],
    tail: &mut R,
    start: usize,
    end: usize,
    belongs_left: F,
    pivot: Val,
    kind: BoundKind,
) -> usize {
    debug_assert!(start <= end && end <= head.len());
    let mut l = start;
    let mut r = end;
    // Offenders still to fix inside the current left/right block.
    let mut ml: u64 = 0; // bits over [l, l + BLOCK): values belonging right
    let mut mr: u64 = 0; // bits over [r - BLOCK, r): values belonging left
    while r - l >= 2 * BLOCK {
        if ml == 0 {
            ml = offender_mask(&head[l..l + BLOCK], |v| !belongs_left(v));
            if ml == 0 {
                l += BLOCK;
                continue;
            }
        }
        if mr == 0 {
            mr = offender_mask(&head[r - BLOCK..r], belongs_left);
            if mr == 0 {
                r -= BLOCK;
                continue;
            }
        }
        // Paired swaps from the two masks: each swap fixes one offender
        // on each side, so every tuple moves at most once.
        while ml != 0 && mr != 0 {
            let i = l + ml.trailing_zeros() as usize;
            let j = r - BLOCK + mr.trailing_zeros() as usize;
            head.swap(i, j);
            tail.swap_rows(i, j);
            ml &= ml - 1;
            mr &= mr - 1;
        }
        if ml == 0 {
            l += BLOCK;
        }
        if mr == 0 {
            r -= BLOCK;
        }
    }
    // Remainder (< 128 tuples, possibly with partially drained blocks —
    // already-fixed tuples are simply re-examined): the scalar kernel
    // finishes the range and yields the split. `[start, l)` and
    // `[r, end)` are already resolved, so the overall split equals the
    // remainder's.
    two_scalar(head, tail, l, r, pivot, kind)
}

/// Partition `head[range]` (and `tail[range]` alongside) around
/// `(pivot, kind)`. Returns the split position: after the call, elements
/// in `[range.start, split)` belong left of the boundary and
/// `[split, range.end)` belong right. Same split position as
/// [`crack_in_two_scalar`], permutation-equivalent piece contents.
pub fn crack_in_two<T: Copy>(
    head: &mut [Val],
    tail: &mut [T],
    start: usize,
    end: usize,
    pivot: Val,
    kind: BoundKind,
) -> usize {
    debug_assert_eq!(head.len(), tail.len());
    crack_rows_in_two(head, tail, start, end, pivot, kind)
}

/// [`crack_in_two`] over any [`TailSet`].
pub(crate) fn crack_rows_in_two<R: TailSet + ?Sized>(
    head: &mut [Val],
    tail: &mut R,
    start: usize,
    end: usize,
    pivot: Val,
    kind: BoundKind,
) -> usize {
    match kind {
        BoundKind::Lt => block_partition(head, tail, start, end, |v| v < pivot, pivot, kind),
        BoundKind::Le => block_partition(head, tail, start, end, |v| v <= pivot, pivot, kind),
    }
}

/// Three-way partition of `head[range]` into `< lo-boundary`, middle, and
/// `> hi-boundary` regions.
///
/// `lo_bound = (v1, k1)` separates left from middle: values for which
/// `k1.belongs_left(v, v1)` go left. `hi_bound = (v2, k2)` separates middle
/// from right: values for which `!k2.belongs_left(v, v2)` go right.
/// Returns `(split1, split2)` with left `[start, split1)`, middle
/// `[split1, split2)`, right `[split2, end)`.
///
/// Two branch-free [`crack_in_two`] sweeps instead of one branchy
/// three-way loop: the first partitions the whole range by the *hi*
/// boundary (left+middle | right), the second partitions the surviving
/// prefix by the *lo* boundary (left | middle), touching
/// `n + |left+middle|` tuples. Split positions are identical to
/// [`crack_in_three_scalar`] (both are determined by value counts).
///
/// The bounds should be consistent — no value may classify both left
/// and right, which under the boundary-key ordering is exactly
/// `lo_bound < hi_bound` (callers derive the bounds from strictly
/// ordered cracker-index keys, so this holds by construction). A
/// contradictory or degenerate pair (`lo_bound >= hi_bound`, e.g. the
/// equal-value `(v,Le)` lo / `(v,Lt)` hi combo, where `v` itself
/// classifies both left and right) is resolved *deterministically* in
/// release and debug builds alike: the range is two-way partitioned at
/// `hi_bound` and the middle piece is empty.
pub fn crack_in_three<T: Copy>(
    head: &mut [Val],
    tail: &mut [T],
    start: usize,
    end: usize,
    lo_bound: (Val, BoundKind),
    hi_bound: (Val, BoundKind),
) -> (usize, usize) {
    debug_assert_eq!(head.len(), tail.len());
    crack_rows_in_three(head, tail, start, end, lo_bound, hi_bound)
}

/// [`crack_in_three`] over any [`TailSet`].
pub(crate) fn crack_rows_in_three<R: TailSet + ?Sized>(
    head: &mut [Val],
    tail: &mut R,
    start: usize,
    end: usize,
    lo_bound: (Val, BoundKind),
    hi_bound: (Val, BoundKind),
) -> (usize, usize) {
    let (v2, k2) = hi_bound;
    let split2 = crack_rows_in_two(head, tail, start, end, v2, k2);
    if lo_bound >= hi_bound {
        // Contradictory bounds cannot be expressed as a three-way
        // partition (the per-element left/right tests overlap): left of
        // `hi_bound` is `belongs_left(hi_bound)`, the middle is empty.
        return (split2, split2);
    }
    let (v1, k1) = lo_bound;
    let split1 = crack_rows_in_two(head, tail, start, split2, v1, k1);
    (split1, split2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_two(head: &[Val], pivot: Val, kind: BoundKind) {
        // The block kernel and its scalar reference.
        for block in [false, true] {
            let mut h = head.to_vec();
            let mut t: Vec<usize> = (0..h.len()).collect();
            let orig = h.clone();
            let n = h.len();
            let split = if block {
                crack_in_two(&mut h, &mut t, 0, n, pivot, kind)
            } else {
                crack_in_two_scalar(&mut h, &mut t, 0, n, pivot, kind)
            };
            for (i, &v) in h.iter().enumerate() {
                if i < split {
                    assert!(kind.belongs_left(v, pivot), "{v} at {i} should be right");
                } else {
                    assert!(!kind.belongs_left(v, pivot), "{v} at {i} should be left");
                }
                // Tail moved with head: tail value is the original position.
                assert_eq!(orig[t[i]], v);
            }
            let mut sorted_orig = orig;
            let mut sorted_new = h;
            sorted_orig.sort_unstable();
            sorted_new.sort_unstable();
            assert_eq!(sorted_orig, sorted_new, "multiset changed");
        }
    }

    #[test]
    fn crack_in_two_lt_and_le() {
        let data = [12, 3, 5, 9, 15, 22, 7, 26, 4, 2, 24, 11, 16];
        check_two(&data, 10, BoundKind::Lt);
        check_two(&data, 10, BoundKind::Le);
        check_two(&data, 12, BoundKind::Lt);
        check_two(&data, 12, BoundKind::Le);
    }

    #[test]
    fn crack_in_two_edge_pivots() {
        let data = [5, 5, 5];
        check_two(&data, 5, BoundKind::Lt); // all right
        check_two(&data, 5, BoundKind::Le); // all left
        check_two(&data, 0, BoundKind::Lt); // all right
        check_two(&data, 100, BoundKind::Le); // all left
    }

    #[test]
    fn crack_in_two_at_block_sizes() {
        // Sizes that exercise the blocked main loop: whole blocks, a
        // partial remainder, all-left blocks, all-right blocks.
        let mut state = 0x1234_5678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as Val).rem_euclid(1000)
        };
        for n in [0usize, 1, 63, 64, 127, 128, 129, 500, 1024, 1000] {
            let data: Vec<Val> = (0..n).map(|_| next()).collect();
            check_two(&data, 500, BoundKind::Lt);
            check_two(&data, 500, BoundKind::Le);
            check_two(&data, 0, BoundKind::Lt);
            check_two(&data, 999, BoundKind::Le);
            // Presorted ascending and descending inputs drain whole
            // blocks on one side of the scan.
            let mut asc = data.clone();
            asc.sort_unstable();
            check_two(&asc, 500, BoundKind::Lt);
            asc.reverse();
            check_two(&asc, 500, BoundKind::Le);
        }
    }

    #[test]
    fn block_and_scalar_agree_on_splits() {
        let mut state = 0xBEEFu64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as Val).rem_euclid(97)
        };
        let data: Vec<Val> = (0..777).map(|_| next()).collect();
        for pivot in [0, 13, 48, 96, 200] {
            for kind in [BoundKind::Lt, BoundKind::Le] {
                let mut h1 = data.clone();
                let mut t1: Vec<u32> = (0..777).collect();
                let mut h2 = data.clone();
                let mut t2 = t1.clone();
                let s1 = crack_in_two_scalar(&mut h1, &mut t1, 0, 777, pivot, kind);
                let s2 = crack_in_two(&mut h2, &mut t2, 0, 777, pivot, kind);
                assert_eq!(s1, s2, "splits agree for pivot {pivot} {kind:?}");
            }
        }
    }

    #[test]
    fn crack_in_two_subrange_only() {
        let mut h = vec![9, 1, 8, 2, 7, 3];
        let mut t = vec![0u32, 1, 2, 3, 4, 5];
        let split = crack_in_two(&mut h, &mut t, 2, 5, 5, BoundKind::Lt);
        // Outside the range untouched:
        assert_eq!(h[0], 9);
        assert_eq!(h[1], 1);
        assert_eq!(h[5], 3);
        for (i, &v) in h.iter().enumerate().take(5).skip(2) {
            if i < split {
                assert!(v < 5);
            } else {
                assert!(v >= 5);
            }
        }
    }

    #[test]
    fn block_kernel_subrange_only() {
        // A blocked-size subrange must leave both flanks untouched.
        let n = 400usize;
        let mut h: Vec<Val> = (0..n as Val).rev().collect();
        let mut t: Vec<u32> = (0..n as u32).collect();
        let orig = h.clone();
        let split = crack_in_two(&mut h, &mut t, 50, 350, 200, BoundKind::Lt);
        assert_eq!(&h[..50], &orig[..50], "left flank untouched");
        assert_eq!(&h[350..], &orig[350..], "right flank untouched");
        for (i, &v) in h.iter().enumerate().take(350).skip(50) {
            assert_eq!(v < 200, i < split);
        }
    }

    #[test]
    fn crack_in_three_partitions() {
        // Reproduce Figure 1: crack 10 < A < 15 over R.A.
        for block in [false, true] {
            let mut h = vec![12, 3, 5, 9, 15, 22, 7, 26, 4, 2, 24, 11, 16];
            let mut t: Vec<u32> = (0..13).collect();
            let n = h.len();
            let bounds = ((10, BoundKind::Le), (15, BoundKind::Lt));
            let (s1, s2) = if block {
                crack_in_three(&mut h, &mut t, 0, n, bounds.0, bounds.1)
            } else {
                crack_in_three_scalar(&mut h, &mut t, 0, n, bounds.0, bounds.1)
            };
            // Paper Figure 1 labels piece 2 as starting at (1-indexed)
            // position 7, i.e. six values are <= 10: {3, 5, 9, 7, 4, 2}.
            assert_eq!(s1, 6);
            for &v in &h[..s1] {
                assert!(v <= 10);
            }
            for &v in &h[s1..s2] {
                assert!(v > 10 && v < 15);
            }
            for &v in &h[s2..] {
                assert!(v >= 15);
            }
            // Middle piece holds exactly {12, 11}.
            let mut mid: Vec<_> = h[s1..s2].to_vec();
            mid.sort_unstable();
            assert_eq!(mid, vec![11, 12]);
        }
    }

    #[test]
    fn crack_in_three_empty_middle() {
        // `(5, Lt) < (5, Le)`: middle holds exactly the value 5 — none here.
        let mut h = vec![1, 2, 8, 9];
        let mut t = vec![(); 4];
        let (s1, s2) = crack_in_three(&mut h, &mut t, 0, 4, (5, BoundKind::Lt), (5, BoundKind::Le));
        assert_eq!(s1, s2);
    }

    #[test]
    fn crack_in_three_matches_two_crack_in_twos() {
        let data: Vec<Val> = vec![42, 17, 99, 3, 55, 23, 77, 8, 64, 31, 12, 88, 45, 6];
        let mut h3 = data.clone();
        let mut t3 = vec![(); h3.len()];
        let n = h3.len();
        let (a3, b3) = crack_in_three(
            &mut h3,
            &mut t3,
            0,
            n,
            (20, BoundKind::Le),
            (60, BoundKind::Lt),
        );

        let mut h2 = data.clone();
        let mut t2 = vec![(); h2.len()];
        let a2 = crack_in_two(&mut h2, &mut t2, 0, n, 20, BoundKind::Le);
        let b2 = crack_in_two(&mut h2, &mut t2, a2, n, 60, BoundKind::Lt);
        assert_eq!((a3, b3), (a2, b2));
        // Same piece *sets* (order within pieces may differ).
        for (x, y) in [(0, a3), (a3, b3), (b3, n)] {
            let mut p3 = h3[x..y].to_vec();
            let mut p2 = h2[x..y].to_vec();
            p3.sort_unstable();
            p2.sort_unstable();
            assert_eq!(p3, p2);
        }
    }

    #[test]
    fn crack_in_three_kernels_agree_on_splits() {
        let mut state = 0xACEDu64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as Val).rem_euclid(500)
        };
        let data: Vec<Val> = (0..999).map(|_| next()).collect();
        for (lo, hi) in [(100, 300), (0, 499), (250, 251), (480, 499)] {
            for (k1, k2) in [
                (BoundKind::Le, BoundKind::Lt),
                (BoundKind::Lt, BoundKind::Le),
                (BoundKind::Lt, BoundKind::Lt),
                (BoundKind::Le, BoundKind::Le),
            ] {
                let mut h1 = data.clone();
                let mut t1: Vec<u32> = (0..999).collect();
                let mut h2 = data.clone();
                let mut t2 = t1.clone();
                let s = crack_in_three_scalar(&mut h1, &mut t1, 0, 999, (lo, k1), (hi, k2));
                let b = crack_in_three(&mut h2, &mut t2, 0, 999, (lo, k1), (hi, k2));
                assert_eq!(s, b, "splits agree for ({lo},{k1:?})..({hi},{k2:?})");
                // Piece multisets agree.
                for (x, y) in [(0, s.0), (s.0, s.1), (s.1, 999)] {
                    let mut p1 = h1[x..y].to_vec();
                    let mut p2 = h2[x..y].to_vec();
                    p1.sort_unstable();
                    p2.sort_unstable();
                    assert_eq!(p1, p2);
                }
            }
        }
    }

    /// Contradictory / degenerate bound pairs must partition
    /// deterministically in *release* builds too (this test carries no
    /// debug-only meaning: `crack_in_three` resolves the case before any
    /// `debug_assert`, so the same semantics are exercised under
    /// `cargo test` and `cargo test --release`). The documented
    /// resolution: two-way crack at `hi_bound`, empty middle.
    #[test]
    fn contradictory_bounds_resolve_deterministically() {
        let data: Vec<Val> = vec![9, 5, 1, 5, 7, 3, 5, 8, 0, 5, 2, 6, 4];
        // (5,Le) lo with (5,Lt) hi: the value 5 classifies both left
        // and right — the combo PR 6 could only debug_assert about.
        // Plus a plainly inverted pair.
        for (lo_b, hi_b) in [
            ((5, BoundKind::Le), (5, BoundKind::Lt)),
            ((7, BoundKind::Lt), (3, BoundKind::Le)),
        ] {
            let mut h = data.clone();
            let mut t: Vec<u32> = (0..h.len() as u32).collect();
            let n = h.len();
            let (s1, s2) = crack_in_three(&mut h, &mut t, 0, n, lo_b, hi_b);
            assert_eq!(s1, s2, "middle piece must be empty");
            let (hv, hk) = hi_b;
            for (i, &v) in h.iter().enumerate() {
                if i < s1 {
                    assert!(hk.belongs_left(v, hv), "{v} at {i} belongs right");
                } else {
                    assert!(!hk.belongs_left(v, hv), "{v} at {i} belongs left");
                }
                assert_eq!(data[t[i] as usize], v, "tail no longer paired");
            }
            // The split is count-determined, hence kernel-invariant.
            let want = data.iter().filter(|&&v| hk.belongs_left(v, hv)).count();
            assert_eq!(s1, want);
            let mut sorted = h;
            sorted.sort_unstable();
            let mut orig = data.clone();
            orig.sort_unstable();
            assert_eq!(sorted, orig, "multiset changed");
        }
    }

    #[test]
    fn offender_mask_matches_bits() {
        let vals: Vec<Val> = (0..64).collect();
        let m = offender_mask(&vals, |v| v % 3 == 0);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!((m >> i) & 1 == 1, v % 3 == 0);
        }
        // Partial blocks leave the high bits clear.
        let m = offender_mask(&vals[..10], |_| true);
        assert_eq!(m, (1 << 10) - 1);
        assert_eq!(offender_mask(&[], |_: Val| true), 0);
    }
}
