//! Bit vector used for multi-predicate filtering (§3.3).
//!
//! Conjunctive plans allocate one bit per tuple of the cracked result area
//! `w`; disjunctive plans allocate one bit per tuple of the whole map.
//! Only sequential patterns are used: create, refine (and/or), iterate.
//!
//! All sequential patterns run word-at-a-time over the `u64` blocks. The
//! three that test a predicate — [`BitVec::from_range`],
//! [`BitVec::refine_range`] and [`BitVec::set_where_unset_range`] — share
//! one kernel: the predicate is resolved once to an [`Interval`], and
//! each word is [`Interval::word`] over 64 values, one unsigned compare
//! per value and no branch. Refinement skips zero words and the
//! disjunctive fill skips all-ones words, so sparse (resp. dense)
//! vectors stay cheap. [`BitVec::set_range`] edits at most two partial
//! words plus a `fill`. The naive bit-at-a-time loops survive only in
//! the property tests (`tests/` of this crate) as the reference oracle.
//!
//! [`Interval`]: crackdb_columnstore::types::Interval
//! [`Interval::word`]: crackdb_columnstore::types::Interval::word

use crackdb_columnstore::types::{RangePred, Val};

/// A fixed-length bit vector backed by `u64` blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    blocks: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// All-zero bit vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            blocks: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-one bit vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut bv = BitVec {
            blocks: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        bv.clear_tail();
        bv
    }

    /// Bits over `vals`, set where the value satisfies `pred`.
    pub fn from_range(vals: &[Val], pred: &RangePred) -> Self {
        match pred.interval() {
            Some(iv) => BitVec {
                blocks: vals.chunks(64).map(|chunk| iv.word(chunk)).collect(),
                len: vals.len(),
            },
            None => Self::zeros(vals.len()),
        }
    }

    /// Adopt `words` as the backing words of a `len`-bit vector (bit `i`
    /// is bit `i % 64` of word `i / 64`; bits at or beyond `len` are
    /// cleared), e.g. words built by
    /// [`Interval::word`](crackdb_columnstore::types::Interval::word)
    /// over values gathered run by run.
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "one word per 64 bits");
        let mut bv = BitVec { blocks: words, len };
        bv.clear_tail();
        bv
    }

    fn clear_tail(&mut self) {
        let extra = self.len % 64;
        if extra != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << extra) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`.
    #[inline(always)]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.blocks[i / 64] |= 1u64 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline(always)]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.blocks[i / 64] &= !(1u64 << (i % 64));
    }

    /// Read bit `i`.
    #[inline(always)]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.blocks[i / 64] >> (i % 64)) & 1 == 1
    }

    /// The backing words: bit `i` is bit `i % 64` of word `i / 64`, and
    /// no bit at or beyond `len` is set — the selection-word form a
    /// reconstruction [`Block`](crackdb_columnstore::ops::block::Block)
    /// carries.
    pub fn words(&self) -> &[u64] {
        &self.blocks
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// In-place AND with another vector of equal length (conjunctive
    /// refinement).
    pub fn and_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// In-place OR with another vector of equal length (disjunctive
    /// refinement).
    pub fn or_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// Refine in place: keep bit `i` only if `vals[i]` satisfies `pred`
    /// (the conjunctive `sideways.select_refine_bv` pass). Zero words are
    /// skipped in one test, so a sparse vector reads few values.
    pub fn refine_range(&mut self, vals: &[Val], pred: &RangePred) {
        assert_eq!(self.len, vals.len(), "bitvec length mismatch");
        let Some(iv) = pred.interval() else {
            self.blocks.fill(0);
            return;
        };
        for (block, chunk) in self.blocks.iter_mut().zip(vals.chunks(64)) {
            if *block != 0 {
                *block &= iv.word(chunk);
            }
        }
    }

    /// Set all bits in `[lo, hi)`: at most two partial-word mask edits
    /// plus a word `fill` for the interior (the disjunction planner's
    /// create step, which used to set one bit per qualifying tuple).
    pub fn set_range(&mut self, lo: usize, hi: usize) {
        debug_assert!(lo <= hi && hi <= self.len);
        if lo >= hi {
            return;
        }
        let (first, last) = (lo / 64, (hi - 1) / 64);
        // Mask of bits [lo % 64, 64) resp. [0, (hi - 1) % 64].
        let head_mask = u64::MAX << (lo % 64);
        let tail_mask = u64::MAX >> (63 - (hi - 1) % 64);
        if first == last {
            self.blocks[first] |= head_mask & tail_mask;
            return;
        }
        self.blocks[first] |= head_mask;
        self.blocks[first + 1..last].fill(u64::MAX);
        self.blocks[last] |= tail_mask;
    }

    /// Set every currently-zero bit `i` whose `vals[i]` satisfies `pred`
    /// — the disjunction residual-check pattern (`!bv.get(i) &&
    /// pred(i)`). All-ones words are skipped in one test, so the dense
    /// area an earlier OR-branch set costs nothing.
    pub fn set_where_unset_range(&mut self, vals: &[Val], pred: &RangePred) {
        assert_eq!(self.len, vals.len(), "bitvec length mismatch");
        let Some(iv) = pred.interval() else {
            return;
        };
        for (block, chunk) in self.blocks.iter_mut().zip(vals.chunks(64)) {
            if *block != u64::MAX {
                *block |= iv.word(chunk);
            }
        }
    }

    /// Iterate indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &block)| {
            let mut b = block;
            std::iter::from_fn(move || {
                if b == 0 {
                    None
                } else {
                    let tz = b.trailing_zeros() as usize;
                    b &= b - 1;
                    Some(bi * 64 + tz)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_columnstore::types::Bound;

    /// Bit `i` set where `f(i)` holds, one `set` at a time.
    fn naive(len: usize, f: impl Fn(usize) -> bool) -> BitVec {
        let mut bv = BitVec::zeros(len);
        (0..len).filter(|&i| f(i)).for_each(|i| bv.set(i));
        bv
    }

    /// The values `0..len`, so a predicate on values is one on indices.
    fn indices(len: usize) -> Vec<Val> {
        (0..len as Val).collect()
    }

    #[test]
    fn set_get_clear() {
        let mut bv = BitVec::zeros(130);
        assert!(!bv.get(0) && !bv.get(129));
        bv.set(0);
        bv.set(64);
        bv.set(129);
        assert!(bv.get(0) && bv.get(64) && bv.get(129));
        assert_eq!(bv.count_ones(), 3);
        bv.clear(64);
        assert!(!bv.get(64));
        assert_eq!(bv.count_ones(), 2);
    }

    #[test]
    fn ones_respects_length() {
        let bv = BitVec::ones(70);
        assert_eq!(bv.count_ones(), 70);
    }

    #[test]
    fn and_or() {
        let mut a = naive(10, |i| i % 2 == 0);
        let b = naive(10, |i| i % 3 == 0);
        let mut c = a.clone();
        a.and_with(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![0, 6]);
        c.or_with(&b);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![0, 2, 3, 4, 6, 8, 9]);
    }

    #[test]
    fn refine_only_clears() {
        let mut bv = BitVec::ones(8);
        bv.refine_range(&indices(8), &RangePred::greater(Bound::inclusive(4)));
        assert_eq!(bv.iter_ones().collect::<Vec<_>>(), vec![4, 5, 6, 7]);
    }

    #[test]
    fn iter_ones_across_blocks() {
        let mut bv = BitVec::zeros(200);
        for i in [0, 63, 64, 127, 128, 199] {
            bv.set(i);
        }
        assert_eq!(
            bv.iter_ones().collect::<Vec<_>>(),
            vec![0, 63, 64, 127, 128, 199]
        );
    }

    #[test]
    fn empty_vector() {
        let bv = BitVec::zeros(0);
        assert!(bv.is_empty());
        assert_eq!(bv.iter_ones().count(), 0);
    }

    #[test]
    fn from_range_matches_bitwise_reference() {
        for len in [0usize, 1, 63, 64, 65, 128, 200] {
            let vals: Vec<Val> = (0..len as Val).map(|i| i % 7).collect();
            let bv = BitVec::from_range(&vals, &RangePred::half_open(0, 3));
            for i in 0..len {
                assert_eq!(bv.get(i), i % 7 < 3, "bit {i} of {len}");
            }
            assert_eq!(bv.count_ones(), (0..len).filter(|i| i % 7 < 3).count());
        }
    }

    #[test]
    fn set_range_edits_partial_and_full_words() {
        for (lo, hi) in [
            (0usize, 0usize),
            (0, 1),
            (3, 17),
            (0, 64),
            (63, 65),
            (64, 128),
            (10, 200),
            (190, 200),
            (0, 200),
        ] {
            let mut bv = BitVec::zeros(200);
            bv.set_range(lo, hi);
            for i in 0..200 {
                assert_eq!(bv.get(i), lo <= i && i < hi, "bit {i} for [{lo},{hi})");
            }
        }
        // set_range never clears existing bits.
        let mut bv = BitVec::zeros(100);
        bv.set(2);
        bv.set(99);
        bv.set_range(40, 60);
        assert!(bv.get(2) && bv.get(99));
        assert_eq!(bv.count_ones(), 22);
    }

    #[test]
    fn set_where_unset_only_touches_zero_bits() {
        let mut bv = naive(130, |i| i % 2 == 0);
        let thirds: Vec<Val> = (0..130).map(|i| i % 3).collect();
        bv.set_where_unset_range(&thirds, &RangePred::point(0));
        for i in 0..130 {
            assert_eq!(bv.get(i), i % 2 == 0 || i % 3 == 0, "bit {i}");
        }
        // A predicate nothing satisfies leaves every bit as it was.
        let before = bv.clone();
        bv.set_where_unset_range(&thirds, &RangePred::open(0, 1));
        assert_eq!(bv, before);
        // Set bits stay set whatever their values.
        let mut bv = BitVec::ones(64);
        bv.set_where_unset_range(&[7; 64], &RangePred::point(0));
        assert_eq!(bv.count_ones(), 64);
    }

    #[test]
    fn refine_skips_cleared_words() {
        let mut bv = BitVec::zeros(256);
        bv.set(70);
        bv.set(200);
        // Every value of the zero words 0 and 2 matches: they stay zero.
        bv.refine_range(&indices(256), &RangePred::greater(Bound::exclusive(100)));
        assert_eq!(bv.iter_ones().collect::<Vec<_>>(), vec![200]);
        // A predicate nothing satisfies clears everything.
        bv.refine_range(&indices(256), &RangePred::closed(9, 1));
        assert_eq!(bv.count_ones(), 0);
    }

    #[test]
    fn from_words_clears_the_padding() {
        let bv = BitVec::from_words(70, vec![u64::MAX, u64::MAX]);
        assert_eq!(bv, BitVec::ones(70));
        assert_eq!(BitVec::from_words(0, Vec::new()), BitVec::zeros(0));
    }
}
