//! Block-at-a-time tuple reconstruction: the unit an aligned map area,
//! a chunk area or a gathered key run is handed on as, and the kernels
//! that fold or materialize it.
//!
//! `sideways.reconstruct` (§3.3) is a bulk operator — an aligned area
//! plus a bit vector in, a column out. A [`Block`] is that operator's
//! input as one value: the area's tail values and, when a bit vector
//! filters them, its words. Consumers fold a block into a
//! [`PartialAgg`] or append it to a projection column in one tight loop
//! each, instead of paying a call per value.

use crate::column::Column;
use crate::types::{AggFunc, RowId, Val};
use std::borrow::Borrow;

/// One attribute's values over one contiguous area, with the optional
/// selection over them.
#[derive(Debug, Clone, Copy)]
pub struct Block<'a> {
    /// The attribute the values belong to.
    pub attr: usize,
    /// The area's values, qualifying or not.
    pub vals: &'a [Val],
    /// Selection words over `vals`: bit `i % 64` of word `i / 64` set
    /// means `vals[i]` qualifies; `None` means every value does. Exactly
    /// `vals.len().div_ceil(64)` words, no bit set at or beyond
    /// `vals.len()`.
    pub sel: Option<&'a [u64]>,
}

impl Block<'_> {
    /// Number of qualifying values.
    pub fn count(&self) -> usize {
        match self.sel {
            Some(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
            None => self.vals.len(),
        }
    }

    /// Fold the qualifying values into `agg`.
    pub fn fold_into(&self, agg: &mut PartialAgg) {
        match self.sel {
            Some(words) => agg.fold_masked(self.vals, words),
            None => agg.fold_slice(self.vals),
        }
    }

    /// Append the qualifying values to `out`, in area order.
    pub fn append_to(&self, out: &mut Vec<Val>) {
        match self.sel {
            Some(words) => compress_masked(out, self.vals, words),
            None => out.extend_from_slice(self.vals),
        }
    }

    /// Visit the qualifying values one by one, in area order — what the
    /// closure-taking `*_with` adapters are built from.
    pub fn for_each(&self, mut f: impl FnMut(Val)) {
        match self.sel {
            Some(words) => for_each_masked(self.vals, words, |run| run.iter().for_each(|&v| f(v))),
            None => self.vals.iter().for_each(|&v| f(v)),
        }
    }
}

/// Values per gathered run: a run's buffer stays in L1 between the gather
/// that fills it and the fold or copy that drains it. A multiple of 64,
/// so every run but the last fills whole selection words.
const GATHER_RUN: usize = 1024;
const _: () = assert!(GATHER_RUN.is_multiple_of(64));

/// Positional gather for key lists: read `col[k]` for `keys`, in key
/// order, and hand the values on as dense blocks of at most
/// [`GATHER_RUN`]. The one gather loop: key lists and cracked-area tails
/// both read base columns through it.
pub fn gather_blocks(
    attr: usize,
    col: &Column,
    keys: impl IntoIterator<Item = impl Borrow<RowId>>,
    mut consume: impl FnMut(Block<'_>),
) {
    let mut buf = [0; GATHER_RUN];
    let mut keys = keys.into_iter();
    loop {
        let mut n = 0;
        for (v, k) in buf.iter_mut().zip(&mut keys) {
            *v = col.get(*k.borrow());
            n += 1;
        }
        if n == 0 {
            return;
        }
        consume(Block {
            attr,
            vals: &buf[..n],
            sel: None,
        });
    }
}

/// Walk `vals` under `words` a word at a time, handing `on_run` the
/// qualifying values as slices: an all-ones word is one 64-value run, any
/// other word yields its set bits one value at a time via
/// `trailing_zeros`, a zero word nothing.
#[inline(always)]
fn for_each_masked<'a>(vals: &'a [Val], words: &[u64], mut on_run: impl FnMut(&'a [Val])) {
    assert_eq!(
        words.len(),
        vals.len().div_ceil(64),
        "one selection word per 64 values"
    );
    for (chunk, &word) in vals.chunks(64).zip(words) {
        if word == u64::MAX {
            on_run(chunk);
            continue;
        }
        let mut rest = word;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            on_run(&chunk[i..=i]);
        }
    }
}

/// Append the values of `vals` whose bit in `words` is set to `out`
/// (the mask compress behind masked projections).
pub fn compress_masked(out: &mut Vec<Val>, vals: &[Val], words: &[u64]) {
    out.reserve(words.iter().map(|w| w.count_ones() as usize).sum());
    for_each_masked(vals, words, |run| out.extend_from_slice(run));
}

/// Running sum / min / max of a non-empty run, on plain integers.
#[derive(Clone, Copy)]
struct Run {
    sum: i64,
    lo: Val,
    hi: Val,
}

impl Run {
    const EMPTY: Run = Run {
        sum: 0,
        lo: Val::MAX,
        hi: Val::MIN,
    };

    #[inline(always)]
    fn fold(mut self, vals: &[Val]) -> Run {
        for &v in vals {
            self.sum = self.sum.wrapping_add(v);
            self.lo = self.lo.min(v);
            self.hi = self.hi.max(v);
        }
        self
    }
}

/// A mergeable partial aggregate: one fold computes every statistic the
/// aggregate functions need, so a block is scanned exactly once, and
/// shards' partials merge into the unsharded answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartialAgg {
    /// Number of values folded.
    pub count: i64,
    /// Wrapping sum.
    pub sum: i64,
    /// Minimum (`None` on empty input).
    pub min: Option<Val>,
    /// Maximum (`None` on empty input).
    pub max: Option<Val>,
}

impl PartialAgg {
    /// Fold one value.
    #[inline(always)]
    pub fn push(&mut self, v: Val) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Merge another partial (another shard's, say) into this one.
    pub fn merge(&mut self, other: &PartialAgg) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Fold a whole slice: equal to [`Self::push`] on every value, in a
    /// loop the compiler vectorizes (no `Option` inside it — whether a
    /// minimum exists is decided once, from the count).
    pub fn fold_slice(&mut self, vals: &[Val]) {
        self.absorb_run(vals.len(), Run::EMPTY.fold(vals));
    }

    /// Fold the values of `vals` whose bit in `words` is set: equal to
    /// [`Self::push`] on each of them. Branch-free: every value is
    /// visited, and its bit, stretched to an all-ones or all-zeros mask,
    /// selects between the value and the fold's neutral element (0 for
    /// the sum, `Val::MAX` / `Val::MIN` for the minimum / maximum).
    pub fn fold_masked(&mut self, vals: &[Val], words: &[u64]) {
        assert_eq!(
            words.len(),
            vals.len().div_ceil(64),
            "one selection word per 64 values"
        );
        let mut run = Run::EMPTY;
        let mut count = 0;
        for (chunk, &word) in vals.chunks(64).zip(words) {
            count += word.count_ones() as usize;
            for (i, &v) in chunk.iter().enumerate() {
                let keep = ((word >> i) & 1).wrapping_neg() as i64;
                run.sum = run.sum.wrapping_add(v & keep);
                run.lo = run.lo.min((v & keep) | (Val::MAX & !keep));
                run.hi = run.hi.max((v & keep) | (Val::MIN & !keep));
            }
        }
        self.absorb_run(count, run);
    }

    fn absorb_run(&mut self, count: usize, run: Run) {
        if count == 0 {
            return;
        }
        self.count += count as i64;
        self.sum = self.sum.wrapping_add(run.sum);
        self.min = Some(self.min.map_or(run.lo, |m| m.min(run.lo)));
        self.max = Some(self.max.map_or(run.hi, |m| m.max(run.hi)));
    }

    /// The value of aggregate `func` over everything folded so far
    /// (`None` for max/min/avg of nothing; avg truncated to integer). One
    /// partial answers every function asked of its attribute.
    pub fn finish(&self, func: AggFunc) -> Option<Val> {
        match func {
            AggFunc::Max => self.max,
            AggFunc::Min => self.min,
            AggFunc::Sum => Some(self.sum),
            AggFunc::Count => Some(self.count),
            AggFunc::Avg => (self.count != 0).then(|| self.sum / self.count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_matches_spec() {
        let mut p = PartialAgg::default();
        p.fold_slice(&[3, 9, 1]);
        assert_eq!(p.finish(AggFunc::Max), Some(9));
        assert_eq!(p.finish(AggFunc::Min), Some(1));
        assert_eq!(p.finish(AggFunc::Sum), Some(13));
        assert_eq!(p.finish(AggFunc::Count), Some(3));
        assert_eq!(p.finish(AggFunc::Avg), Some(4));
        let empty = PartialAgg::default();
        assert_eq!(empty.finish(AggFunc::Max), None);
        assert_eq!(empty.finish(AggFunc::Avg), None);
        assert_eq!(empty.finish(AggFunc::Count), Some(0));
        assert_eq!(empty.finish(AggFunc::Sum), Some(0));
    }

    #[test]
    fn merge_has_the_empty_partial_as_identity() {
        let mut a = PartialAgg::default();
        let empty = PartialAgg::default();
        a.push(5);
        a.push(-3);
        let mut b = a;
        b.merge(&empty);
        assert_eq!(a, b);
        let mut e = empty;
        e.merge(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn blocks_count_fold_and_append_what_qualifies() {
        let vals: Vec<Val> = (0..70).collect();
        let dense = Block {
            attr: 4,
            vals: &vals,
            sel: None,
        };
        assert_eq!(dense.count(), 70);
        // Bits 1 and 65.
        let words = [0b10, 0b10];
        let masked = Block {
            sel: Some(&words),
            ..dense
        };
        assert_eq!(masked.count(), 2);
        let mut out = vec![-1];
        masked.append_to(&mut out);
        assert_eq!(out, vec![-1, 1, 65]);
        let mut agg = PartialAgg::default();
        masked.fold_into(&mut agg);
        dense.fold_into(&mut agg);
        assert_eq!((agg.count, agg.min, agg.max), (72, Some(0), Some(69)));
        let mut seen = Vec::new();
        masked.for_each(|v| seen.push(v));
        assert_eq!(seen, vec![1, 65]);
    }

    #[test]
    fn gathered_runs_cover_the_key_list_in_order() {
        let col = Column::new((0..5000).map(|v| v * 3).collect());
        let keys: Vec<RowId> = (0..2500).rev().collect();
        let (mut got, mut blocks) = (Vec::new(), 0);
        gather_blocks(7, &col, &keys, |b| {
            assert_eq!((b.attr, b.sel), (7, None));
            assert!(b.vals.len() <= GATHER_RUN);
            blocks += 1;
            b.append_to(&mut got);
        });
        assert_eq!(blocks, 3);
        let want: Vec<Val> = keys.iter().map(|&k| k as Val * 3).collect();
        assert_eq!(got, want);
        gather_blocks(7, &col, [0; 0], |_| panic!("no keys, no blocks"));
        // Keys need not be a slice: an iterator fills runs the same way.
        let mut odd = Vec::new();
        gather_blocks(7, &col, keys.iter().filter(|&&k| k % 2 == 1), |b| {
            b.append_to(&mut odd)
        });
        assert_eq!(odd.len(), 1250);
        assert!(odd.iter().all(|v| v % 2 == 1));
    }

    #[test]
    #[should_panic(expected = "one selection word per 64 values")]
    fn a_short_mask_is_rejected() {
        PartialAgg::default().fold_masked(&[0; 65], &[0]);
    }
}
