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
/// read base columns through it, and join plans their matched pairs'
/// values.
pub fn gather_blocks(
    attr: usize,
    col: &[Val],
    keys: impl IntoIterator<Item = impl Borrow<RowId>>,
    mut consume: impl FnMut(Block<'_>),
) {
    let mut buf = [0; GATHER_RUN];
    let mut keys = keys.into_iter();
    loop {
        let mut n = 0;
        for (v, k) in buf.iter_mut().zip(&mut keys) {
            *v = col[*k.borrow() as usize];
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

/// The statistics a fold computes besides the count, which every fold
/// keeps. Each aggregate function needs at most one of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// The wrapping sum (Sum, Avg).
    pub sum: bool,
    /// The minimum (Min).
    pub min: bool,
    /// The maximum (Max).
    pub max: bool,
}

impl Stats {
    /// Every statistic: what [`PartialAgg::push`] folds.
    pub const ALL: Stats = Stats {
        sum: true,
        min: true,
        max: true,
    };

    /// What `funcs` need: the sum for Sum and Avg, the minimum for Min,
    /// the maximum for Max, nothing beyond the count for Count.
    pub fn of(funcs: impl IntoIterator<Item = AggFunc>) -> Stats {
        funcs.into_iter().fold(Stats::default(), |s, f| match f {
            AggFunc::Count => s,
            AggFunc::Sum | AggFunc::Avg => Stats { sum: true, ..s },
            AggFunc::Min => Stats { min: true, ..s },
            AggFunc::Max => Stats { max: true, ..s },
        })
    }
}

/// Running sum / min / max of a run, on plain integers: the fold's
/// neutral elements where nothing was folded.
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

    /// Fold the statistics `SUM`, `MIN` and `MAX` of the qualifying
    /// values: all of `vals` without `sel`. Masked, it is branch-free:
    /// every value is visited, and its bit, stretched to an all-ones or
    /// all-zeros mask, selects between the value and the fold's neutral
    /// element (0 for the sum, `Val::MAX` / `Val::MIN` for the minimum /
    /// maximum).
    #[inline(always)]
    fn fold<const SUM: bool, const MIN: bool, const MAX: bool>(
        vals: &[Val],
        sel: Option<&[u64]>,
    ) -> Run {
        let mut run = Run::EMPTY;
        let mut add = |v: Val, lo: Val, hi: Val| {
            if SUM {
                run.sum = run.sum.wrapping_add(v);
            }
            if MIN {
                run.lo = run.lo.min(lo);
            }
            if MAX {
                run.hi = run.hi.max(hi);
            }
        };
        match sel {
            None => vals.iter().for_each(|&v| add(v, v, v)),
            Some(words) => {
                for (chunk, &word) in vals.chunks(64).zip(words) {
                    for (i, &v) in chunk.iter().enumerate() {
                        let keep = ((word >> i) & 1).wrapping_neg() as i64;
                        let v = v & keep;
                        add(v, v | (Val::MAX & !keep), v | (Val::MIN & !keep));
                    }
                }
            }
        }
        run
    }
}

/// The one of two `Some`s that `pick` chooses, or whichever is set.
fn either(a: Option<Val>, b: Option<Val>, pick: fn(Val, Val) -> Val) -> Option<Val> {
    match (a, b) {
        (Some(a), Some(b)) => Some(pick(a, b)),
        (a, b) => a.or(b),
    }
}

/// A mergeable partial aggregate: one fold computes every statistic the
/// aggregate functions of one attribute need, so a block is scanned at
/// most once, and shards' partials merge into the unsharded answer. A
/// statistic nobody asked for stays `None`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartialAgg {
    /// Number of values folded.
    pub count: i64,
    /// Wrapping sum (`None` unless asked for; the sum of nothing is 0).
    pub sum: Option<i64>,
    /// Minimum (`None` unless asked for, or on empty input).
    pub min: Option<Val>,
    /// Maximum (`None` unless asked for, or on empty input).
    pub max: Option<Val>,
}

impl PartialAgg {
    /// The partial of no values that folds `stats`.
    pub fn new(stats: Stats) -> PartialAgg {
        PartialAgg {
            sum: stats.sum.then_some(0),
            ..PartialAgg::default()
        }
    }

    /// Fold one value into every statistic.
    #[inline(always)]
    pub fn push(&mut self, v: Val) {
        self.count += 1;
        self.sum = Some(self.sum.unwrap_or(0).wrapping_add(v));
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Merge another partial (another shard's, say) into this one. The
    /// default partial is the identity.
    pub fn merge(&mut self, other: &PartialAgg) {
        self.count += other.count;
        self.sum = either(self.sum, other.sum, i64::wrapping_add);
        self.min = either(self.min, other.min, Val::min);
        self.max = either(self.max, other.max, Val::max);
    }

    /// Fold the values of `vals` whose bit in `sel` is set (all of them
    /// without `sel`) into the count and `stats`: equal to [`Self::push`]
    /// on each of them, restricted to those. The count alone visits no
    /// value.
    pub fn fold(&mut self, vals: &[Val], sel: Option<&[u64]>, stats: Stats) {
        let count = match sel {
            Some(words) => {
                assert_eq!(
                    words.len(),
                    vals.len().div_ceil(64),
                    "one selection word per 64 values"
                );
                words.iter().map(|w| w.count_ones() as usize).sum()
            }
            None => vals.len(),
        };
        // The count alone folds nothing: its loop compiles to nothing.
        let fold: fn(&[Val], Option<&[u64]>) -> Run = match (stats.sum, stats.min, stats.max) {
            (false, false, false) => Run::fold::<false, false, false>,
            (true, false, false) => Run::fold::<true, false, false>,
            (false, true, false) => Run::fold::<false, true, false>,
            (false, false, true) => Run::fold::<false, false, true>,
            (false, true, true) => Run::fold::<false, true, true>,
            (true, true, false) => Run::fold::<true, true, false>,
            (true, false, true) => Run::fold::<true, false, true>,
            (true, true, true) => Run::fold::<true, true, true>,
        };
        let run = fold(vals, sel);
        self.count += count as i64;
        if stats.sum {
            self.sum = Some(self.sum.unwrap_or(0).wrapping_add(run.sum));
        }
        if count > 0 && stats.min {
            self.min = either(self.min, Some(run.lo), Val::min);
        }
        if count > 0 && stats.max {
            self.max = either(self.max, Some(run.hi), Val::max);
        }
    }

    /// The value of aggregate `func` over everything folded so far
    /// (`None` for max/min/avg of nothing, and for a statistic not
    /// folded; avg truncated to integer). One partial answers every
    /// function asked of its attribute.
    pub fn finish(&self, func: AggFunc) -> Option<Val> {
        match func {
            AggFunc::Max => self.max,
            AggFunc::Min => self.min,
            AggFunc::Sum => self.sum,
            AggFunc::Count => Some(self.count),
            AggFunc::Avg => self.sum.filter(|_| self.count != 0).map(|s| s / self.count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_matches_spec() {
        let mut p = PartialAgg::new(Stats::ALL);
        p.fold(&[3, 9, 1], None, Stats::ALL);
        assert_eq!(p.finish(AggFunc::Max), Some(9));
        assert_eq!(p.finish(AggFunc::Min), Some(1));
        assert_eq!(p.finish(AggFunc::Sum), Some(13));
        assert_eq!(p.finish(AggFunc::Count), Some(3));
        assert_eq!(p.finish(AggFunc::Avg), Some(4));
        let empty = PartialAgg::new(Stats::ALL);
        assert_eq!(empty.finish(AggFunc::Max), None);
        assert_eq!(empty.finish(AggFunc::Avg), None);
        assert_eq!(empty.finish(AggFunc::Count), Some(0));
        assert_eq!(empty.finish(AggFunc::Sum), Some(0));
        assert_eq!(PartialAgg::default().finish(AggFunc::Sum), None);
    }

    #[test]
    fn stats_follow_the_functions() {
        use AggFunc::{Avg, Count, Max, Min, Sum};
        assert_eq!(Stats::of([Count]), Stats::default());
        assert_eq!(Stats::of([Avg, Count]), Stats::of([Sum]));
        assert_eq!(Stats::of([Max, Min, Sum]), Stats::ALL);
        let min_max = Stats::of([Min, Max]);
        assert!(!min_max.sum && min_max.min && min_max.max);
    }

    /// Every subset of the statistics, dense and masked, folds what
    /// [`PartialAgg::push`] folds on the qualifying values, and leaves
    /// the rest `None`.
    #[test]
    fn a_subset_fold_sets_only_what_it_is_asked() {
        let vals: Vec<Val> = (0..200).map(|i| (i * 37) % 101 - 50).collect();
        // No bit at or beyond the 200th value.
        let words: Vec<u64> = (0..4u64).map(|w| 0x9e37_79b9_7f4a_7c15 >> w).collect();
        let words: &[u64] = &[words[0], words[1], words[2], words[3] & 0xff];
        let masked: Vec<Val> = vals
            .iter()
            .enumerate()
            .filter(|&(i, _)| words[i / 64] >> (i % 64) & 1 == 1)
            .map(|(_, &v)| v)
            .collect();
        for bits in 0..8u8 {
            let stats = Stats {
                sum: bits & 1 != 0,
                min: bits & 2 != 0,
                max: bits & 4 != 0,
            };
            for (sel, qualifying) in [(None, &vals), (Some(words), &masked)] {
                let mut want = PartialAgg::default();
                qualifying.iter().for_each(|&v| want.push(v));
                let mut got = PartialAgg::new(stats);
                got.fold(&vals, sel, stats);
                let keep = |on: bool, v: Option<Val>| v.filter(|_| on);
                assert_eq!(got.count, want.count, "{stats:?}");
                assert_eq!(got.sum, keep(stats.sum, want.sum), "{stats:?}");
                assert_eq!(got.min, keep(stats.min, want.min), "{stats:?}");
                assert_eq!(got.max, keep(stats.max, want.max), "{stats:?}");
            }
        }
    }

    /// A subset fold merged with a full fold's partial answers its own
    /// statistics over both inputs, and the full fold's others over its
    /// own: a merge never invents a value.
    #[test]
    fn a_subset_partial_merges_with_a_full_one() {
        let (left, right) = ([4, -2, 9], [7, 1]);
        let max = Stats::of([AggFunc::Max]);
        let mut part = PartialAgg::new(max);
        part.fold(&left, None, max);
        assert_eq!((part.count, part.sum, part.min), (3, None, None));
        let mut full = PartialAgg::new(Stats::ALL);
        full.fold(&right, None, Stats::ALL);
        let mut both = PartialAgg::new(Stats::ALL);
        both.fold(&left, None, Stats::ALL);
        both.fold(&right, None, Stats::ALL);
        for (mut a, b) in [(part, full), (full, part)] {
            a.merge(&b);
            assert_eq!(a.finish(AggFunc::Max), both.finish(AggFunc::Max));
            assert_eq!(a.finish(AggFunc::Count), both.finish(AggFunc::Count));
            assert_eq!((a.sum, a.min), (full.sum, full.min));
        }
        // Partials of one subset merge into that subset's full answer.
        let mut other = PartialAgg::new(max);
        other.fold(&right, None, max);
        part.merge(&other);
        assert_eq!(
            part,
            PartialAgg {
                sum: None,
                min: None,
                ..both
            }
        );
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
        agg.fold(masked.vals, masked.sel, Stats::ALL);
        agg.fold(dense.vals, dense.sel, Stats::ALL);
        assert_eq!((agg.count, agg.min, agg.max), (72, Some(0), Some(69)));
        let mut seen = Vec::new();
        masked.for_each(|v| seen.push(v));
        assert_eq!(seen, vec![1, 65]);
    }

    #[test]
    fn gathered_runs_cover_the_key_list_in_order() {
        let col: Vec<Val> = (0..5000).map(|v| v * 3).collect();
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
        PartialAgg::default().fold(&[0; 65], Some(&[0]), Stats::ALL);
    }
}
