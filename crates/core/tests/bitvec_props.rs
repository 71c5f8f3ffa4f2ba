//! Seeded-PRNG equivalence properties: the word-level `BitVec`
//! operations against naive bit-at-a-time reference loops.
//!
//! `BitVec`'s sequential patterns (build, refine, set-range, fill-zeros,
//! iterate) all run word-at-a-time over `u64` blocks. These properties
//! pin them to the obvious per-bit loops at awkward lengths (word
//! boundaries, partial tail words, empty) so the masking arithmetic can
//! never silently drop or invent bits — in particular in the tail
//! word's padding region. The three predicate kernels (`from_range`,
//! `refine_range`, `set_where_unset_range`) are pinned to a per-bit
//! `RangePred::matches` loop over predicates whose bounds sit at the
//! ends of the domain, inclusive and exclusive, empty and inverted.
//!
//! The block kernels that consume a `BitVec`'s words — the masked fold
//! and the mask compress of `columnstore::ops::block` — are pinned here
//! too, against the value-at-a-time `PartialAgg::push` and `iter_ones`
//! loops they replace.

use crackdb_columnstore::ops::block::{compress_masked, PartialAgg, Stats};
use crackdb_columnstore::types::{Bound, RangePred, Val};
use crackdb_core::bitvec::BitVec;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, m: usize) -> usize {
        (self.next() % m.max(1) as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// Lengths that stress every word-boundary case.
const LENGTHS: &[usize] = &[0, 1, 5, 63, 64, 65, 127, 128, 129, 200, 640, 1000];

/// The naive oracle: bit `i` set where `f(i)` holds, one `set` at a time.
fn bits(len: usize, mut f: impl FnMut(usize) -> bool) -> BitVec {
    let mut bv = BitVec::zeros(len);
    for i in 0..len {
        if f(i) {
            bv.set(i);
        }
    }
    bv
}

/// Values the edge predicates cut between: the ends of the domain, their
/// neighbours, and a few small integers.
const EDGES: &[Val] = &[
    Val::MIN,
    Val::MIN + 1,
    -3,
    -1,
    0,
    1,
    3,
    Val::MAX - 1,
    Val::MAX,
];

/// Predicates over [`EDGES`]: every pair of bounds (each edge inclusive
/// and exclusive, or absent) — so `RangePred::all()`, single values,
/// empty and inverted ranges and exclusive bounds at `i64::MIN` /
/// `i64::MAX` all occur — plus random ones.
fn predicates(rng: &mut Lcg) -> Vec<RangePred> {
    let mut bounds = vec![None];
    for &v in EDGES {
        bounds.push(Some(Bound::inclusive(v)));
        bounds.push(Some(Bound::exclusive(v)));
    }
    let mut preds: Vec<RangePred> = bounds
        .iter()
        .flat_map(|&lo| bounds.iter().map(move |&hi| RangePred { lo, hi }))
        .collect();
    for _ in 0..32 {
        let mut bound = || Bound {
            value: rng.below(40) as Val - 20,
            inclusive: rng.chance(50),
        };
        preds.push(RangePred {
            lo: Some(bound()),
            hi: Some(bound()),
        });
    }
    preds
}

/// Values a predicate kernel reads: mostly small (so random predicates
/// cut them), some at the edges of the domain.
fn predicate_values(len: usize, rng: &mut Lcg) -> Vec<Val> {
    (0..len)
        .map(|_| match rng.below(4) {
            0 => EDGES[rng.below(EDGES.len())],
            _ => rng.below(40) as Val - 20,
        })
        .collect()
}

#[test]
fn from_range_matches_naive_bits() {
    let mut rng = Lcg(1);
    for &len in LENGTHS {
        let vals = predicate_values(len, &mut rng);
        for pred in predicates(&mut rng) {
            let bv = BitVec::from_range(&vals, &pred);
            assert_eq!(
                bv,
                bits(len, |i| pred.matches(vals[i])),
                "len {len}, {pred:?}"
            );
        }
    }
}

#[test]
fn iter_ones_matches_naive_scan() {
    let mut rng = Lcg(2);
    for &len in LENGTHS {
        for density in [0, 3, 50, 97, 100] {
            let bv = bits(len, |_| rng.chance(density));
            let word: Vec<usize> = bv.iter_ones().collect();
            let naive: Vec<usize> = (0..len).filter(|&i| bv.get(i)).collect();
            assert_eq!(word, naive, "len {len} density {density}");
        }
    }
}

#[test]
fn refine_matches_naive_loop() {
    let mut rng = Lcg(3);
    for &len in LENGTHS {
        let vals = predicate_values(len, &mut rng);
        for pred in predicates(&mut rng) {
            // Sparse, dense and empty starting vectors: zero words skip.
            for density in [0, 10, 60, 100] {
                let mut word = bits(len, |_| rng.chance(density));
                let mut naive = word.clone();
                word.refine_range(&vals, &pred);
                for (i, &v) in vals.iter().enumerate() {
                    if naive.get(i) && !pred.matches(v) {
                        naive.clear(i);
                    }
                }
                assert_eq!(word, naive, "len {len}, {pred:?}");
            }
        }
    }
}

#[test]
fn set_range_matches_naive_loop() {
    let mut rng = Lcg(4);
    for &len in LENGTHS {
        for _ in 0..8 {
            let lo = rng.below(len + 1);
            let hi = lo + rng.below(len - lo + 1);
            let mut word = bits(len, |_| rng.chance(10));
            let mut naive = word.clone();
            word.set_range(lo, hi);
            for i in lo..hi {
                naive.set(i);
            }
            assert_eq!(word, naive, "len {len} range [{lo}, {hi})");
        }
    }
}

#[test]
fn set_where_unset_matches_naive_loop() {
    let mut rng = Lcg(5);
    for &len in LENGTHS {
        let vals = predicate_values(len, &mut rng);
        for pred in predicates(&mut rng) {
            // A set range first, as the disjunctive plan has: its
            // all-ones words skip.
            let lo = rng.below(len + 1);
            let hi = lo + rng.below(len - lo + 1);
            let mut word = bits(len, |_| rng.chance(30));
            word.set_range(lo, hi);
            let mut naive = word.clone();
            word.set_where_unset_range(&vals, &pred);
            for (i, &v) in vals.iter().enumerate() {
                if !naive.get(i) && pred.matches(v) {
                    naive.set(i);
                }
            }
            assert_eq!(word, naive, "len {len}, {pred:?}");
        }
    }
}

#[test]
fn and_or_count_roundtrip_at_word_boundaries() {
    let mut rng = Lcg(6);
    for &len in LENGTHS {
        let a = bits(len, |_| rng.chance(50));
        let b = bits(len, |_| rng.chance(50));
        let mut and = a.clone();
        and.and_with(&b);
        let mut or = a.clone();
        or.or_with(&b);
        for i in 0..len {
            assert_eq!(and.get(i), a.get(i) && b.get(i));
            assert_eq!(or.get(i), a.get(i) || b.get(i));
        }
        // Inclusion–exclusion over the whole vector.
        assert_eq!(
            and.count_ones() + or.count_ones(),
            a.count_ones() + b.count_ones(),
            "len {len}"
        );
    }
}

/// The masks the block kernels meet: nothing set, everything set, every
/// density in between, and only the bits of the last (partial) word.
fn kernel_masks(len: usize, rng: &mut Lcg) -> Vec<BitVec> {
    let last_word = len.saturating_sub(1) / 64 * 64;
    vec![
        BitVec::zeros(len),
        BitVec::ones(len),
        bits(len, |_| rng.chance(50)),
        bits(len, |_| rng.chance(3)),
        bits(len, |_| rng.chance(97)),
        bits(len, |i| i >= last_word),
    ]
}

/// Values whose extremes sit at the ends of the domain and whose sum
/// wraps: a few `Val::MIN` / `Val::MAX` among large magnitudes.
fn kernel_values(len: usize, rng: &mut Lcg) -> Vec<Val> {
    (0..len)
        .map(|_| match rng.below(8) {
            0 => Val::MIN,
            1 => Val::MAX,
            2 => rng.next() as Val - (1 << 52),
            _ => (rng.next() as Val) << 10,
        })
        .collect()
}

fn pushed(vals: impl Iterator<Item = Val>) -> PartialAgg {
    let mut agg = PartialAgg::new(Stats::ALL);
    vals.for_each(|v| agg.push(v));
    agg
}

#[test]
fn block_folds_match_value_at_a_time_push() {
    let mut rng = Lcg(7);
    for len in [0usize, 1, 63, 64, 65, 200, 10_007] {
        let vals = kernel_values(len, &mut rng);
        let mut dense = PartialAgg::new(Stats::ALL);
        dense.fold(&vals, None, Stats::ALL);
        assert_eq!(dense, pushed(vals.iter().copied()), "dense fold, len {len}");
        for bv in kernel_masks(len, &mut rng) {
            let want = pushed(bv.iter_ones().map(|i| vals[i]));
            let mut masked = PartialAgg::new(Stats::ALL);
            masked.fold(&vals, Some(bv.words()), Stats::ALL);
            assert_eq!(masked, want, "masked fold, len {len}");
            assert_eq!(masked.count as usize, bv.count_ones());
            // Folding continues a partial exactly as pushing would.
            let mut both = dense;
            both.fold(&vals, Some(bv.words()), Stats::ALL);
            let mut reference = dense;
            reference.merge(&want);
            assert_eq!(both, reference, "fold onto a non-empty partial, len {len}");
        }
    }
    // Nothing folded: no minimum, no maximum, nothing counted.
    let mut empty = PartialAgg::new(Stats::ALL);
    empty.fold(&[], None, Stats::ALL);
    empty.fold(&[5, 6, 7], Some(BitVec::zeros(3).words()), Stats::ALL);
    assert_eq!(empty, PartialAgg::new(Stats::ALL));
    assert_eq!((empty.count, empty.min, empty.max), (0, None, None));
    // The sum wraps instead of overflowing.
    let mut wrapped = PartialAgg::new(Stats::ALL);
    wrapped.fold(&[Val::MAX, Val::MAX, 2], None, Stats::ALL);
    let sum = Val::MAX.wrapping_add(Val::MAX).wrapping_add(2);
    assert_eq!(wrapped.sum, Some(sum));
}

#[test]
fn mask_compress_matches_iter_ones() {
    let mut rng = Lcg(8);
    for len in [0usize, 1, 63, 64, 65, 200, 10_007] {
        let vals = kernel_values(len, &mut rng);
        for bv in kernel_masks(len, &mut rng) {
            let mut got = vec![42];
            compress_masked(&mut got, &vals, bv.words());
            let want: Vec<Val> = std::iter::once(42)
                .chain(bv.iter_ones().map(|i| vals[i]))
                .collect();
            assert_eq!(got, want, "len {len}");
        }
    }
}
