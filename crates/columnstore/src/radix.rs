//! Cache-friendly radix-clustering of unordered intermediates (paper Exp3,
//! after Manegold et al., "Cache-Conscious Radix-Decluster Projections").
//!
//! Selection cracking produces selection results whose tuple keys are out
//! of insertion order, so reconstructing from base columns random-accesses
//! the whole column. One remedy the paper evaluates is to *reorder* the
//! intermediate first: either fully sort it by key (then reconstruct
//! sequentially) or radix-cluster it — partition keys by their high bits
//! into cache-sized clusters so each cluster's reconstruction touches only
//! a cache-resident region of the base column.

use crate::column::Column;
use crate::types::{RowId, Val};

/// Partition `keys` into `2^bits` clusters by their top bits (relative to
/// the key domain `[0, n)`). Within a cluster, original order is kept.
/// Returns the concatenated clustered key vector.
///
/// Degenerate inputs are hardened: zero/one keys, a zero/one-value
/// domain, and `bits = 0` are identity; `bits >= domain_bits` is capped
/// at the domain width (and at 20 bits overall, matching
/// [`bits_for_cache`]) so a wild `bits` cannot allocate `2^bits`
/// counters for clusters that can never hold more than one key.
pub fn radix_cluster(keys: &[RowId], n: usize, bits: u32) -> Vec<RowId> {
    // Shift that maps a key in [0, n) to its cluster id.
    let domain_bits = usize::BITS - (n.max(1) - 1).leading_zeros();
    let bits = bits.min(domain_bits).min(20);
    if keys.len() <= 1 || bits == 0 {
        return keys.to_vec();
    }
    let clusters = 1usize << bits;
    let shift = domain_bits - bits;

    let mut counts = vec![0usize; clusters];
    for &k in keys {
        counts[((k as usize) >> shift).min(clusters - 1)] += 1;
    }
    let mut offsets = vec![0usize; clusters];
    let mut acc = 0;
    for (o, c) in offsets.iter_mut().zip(&counts) {
        *o = acc;
        acc += c;
    }
    let mut out = vec![0 as RowId; keys.len()];
    for &k in keys {
        let c = ((k as usize) >> shift).min(clusters - 1);
        out[offsets[c]] = k;
        offsets[c] += 1;
    }
    out
}

/// Choose a radix so that each cluster of the base column roughly fits a
/// target cache budget of `cache_vals` values.
pub fn bits_for_cache(n: usize, cache_vals: usize) -> u32 {
    let mut bits = 0u32;
    let mut cluster_span = n;
    while cluster_span > cache_vals.max(1) && bits < 20 {
        bits += 1;
        cluster_span /= 2;
    }
    bits
}

/// Exact equal-width bucketing of the closed value domain `[min, max]`:
/// `bucket_of(v) = floor((v - min) * buckets / (max - min + 1))`, in
/// integers. Membership is monotone in the value — `bucket_of(v) < b`
/// iff `v < lower_bound(b)` — so every bucket offset of a
/// clustered array is a *valid* `BoundKind::Lt` crack boundary.
///
/// `(v - min) * buckets` fits `u64` whenever `(max - min + 1) * buckets`
/// does, i.e. on every column but a near-full-domain one: those (where
/// `max - min + 1` alone overflows `i64`) take the same formula in
/// `i128`. The width is chosen once per pass, not per tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueBuckets {
    buckets: usize,
    min: Val,
    max: Val,
    /// `max - min + 1` when its product with `buckets` fits `u64`.
    span: Option<u64>,
}

impl ValueBuckets {
    /// `buckets` (at least one) equal-width buckets over `[min, max]`.
    pub fn new(buckets: usize, min: Val, max: Val) -> Self {
        debug_assert!(min <= max);
        let buckets = buckets.max(1);
        let range = max as i128 - min as i128 + 1;
        let span = (range * buckets as i128 <= u64::MAX as i128).then_some(range as u64);
        ValueBuckets {
            buckets,
            min,
            max,
            span,
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// The lower value bound of bucket `b`: the smallest `v` with
    /// `bucket_of(v) >= b`. Bucket `b`'s span is exactly the values in
    /// `[lower_bound(b), lower_bound(b + 1))`, so `(lower_bound(b), Lt)`
    /// is the crack boundary at bucket offset `b`. (`i128`: a handful
    /// of calls per clustering, and `b * range` overflows `u64` where
    /// the per-tuple product does not.)
    pub fn lower_bound(&self, b: usize) -> Val {
        debug_assert!(b <= self.buckets);
        let range = self.max as i128 - self.min as i128 + 1;
        // ceil(b * range / buckets): first value whose product reaches b.
        let offset = (b as i128 * range + self.buckets as i128 - 1) / self.buckets as i128;
        (self.min as i128 + offset.min(range)) as Val
    }

    #[inline(always)]
    fn narrow(&self, v: Val, span: u64) -> usize {
        debug_assert!(v >= self.min && v <= self.max);
        ((v.wrapping_sub(self.min) as u64 * self.buckets as u64) / span) as usize
    }

    /// The wide-domain fallback, and the oracle `narrow` is tested
    /// against.
    #[inline(always)]
    fn wide(&self, v: Val) -> usize {
        debug_assert!(v >= self.min && v <= self.max);
        let range = self.max as i128 - self.min as i128 + 1;
        (((v as i128 - self.min as i128) * self.buckets as i128) / range) as usize
    }

    /// The bucket of `v`, which must lie in `[min, max]`.
    pub fn bucket_of(&self, v: Val) -> usize {
        match self.span {
            Some(span) => self.narrow(v, span),
            None => self.wide(v),
        }
    }

    /// Add `head`'s per-bucket tuple counts to `counts` (one slot per
    /// bucket): the counting pass. Callers with a source in several
    /// runs call it once per run.
    pub fn count_into(&self, head: &[Val], counts: &mut [usize]) {
        fn count(head: &[Val], counts: &mut [usize], bucket_of: impl Fn(Val) -> usize) {
            for &v in head {
                counts[bucket_of(v)] += 1;
            }
        }
        match self.span {
            Some(span) => count(head, counts, |v| self.narrow(v, span)),
            None => count(head, counts, |v| self.wide(v)),
        }
    }

    /// The slot pass of a value-domain counting partition (the
    /// value-domain twin of [`radix_cluster`], which buckets by key
    /// bits): append to `slots` each `head` value's destination slot,
    /// `cursors[bucket]`, advancing that cursor, so each bucket fills in
    /// source order. With `cursors` started at the bucket offsets of the
    /// whole source (see [`Self::count_into`]) the slots are a
    /// permutation of the destination, and [`move_to_slots`] then moves
    /// the head and each tail column through them one column at a time.
    /// A source in several runs takes one call per run through the same
    /// cursors.
    ///
    /// # Panics
    /// If a slot does not fit a `u32` (a [`RowId`]): no destination is
    /// longer than a table.
    pub fn slots_into(&self, head: &[Val], cursors: &mut [usize], slots: &mut Vec<u32>) {
        fn slot_pass(
            head: &[Val],
            cursors: &mut [usize],
            slots: &mut Vec<u32>,
            bucket_of: impl Fn(Val) -> usize,
        ) {
            slots.extend(head.iter().map(|&v| {
                let c = &mut cursors[bucket_of(v)];
                let slot = *c as u32;
                *c += 1;
                slot
            }));
        }
        // No cursor passes its start plus the run's length.
        let bound = cursors.iter().max().map_or(0, |&c| c + head.len());
        assert!(u32::try_from(bound).is_ok(), "slot past u32");
        match self.span {
            Some(span) => slot_pass(head, cursors, slots, |v| self.narrow(v, span)),
            None => slot_pass(head, cursors, slots, |v| self.wide(v)),
        }
    }
}

/// Exclusive prefix sums of per-bucket counts: the `buckets + 1` bucket
/// offsets (`offsets[0] = 0`, `offsets[buckets]` = total).
pub fn bucket_offsets(counts: &[usize]) -> Vec<usize> {
    let mut offsets = vec![0; counts.len() + 1];
    for (b, &c) in counts.iter().enumerate() {
        offsets[b + 1] = offsets[b] + c;
    }
    offsets
}

/// The move pass of a counting partition: `dst[slots[i]] = src[i]` for
/// every row, the slots from [`ValueBuckets::slots_into`]. One column
/// at a time, so at most one write stream per bucket is open.
pub fn move_to_slots<T: Copy>(src: &[T], slots: &[u32], dst: &mut [T]) {
    debug_assert_eq!(src.len(), slots.len());
    for (&x, &s) in src.iter().zip(slots) {
        dst[s as usize] = x;
    }
}

/// Reconstruct `col` at `keys` after radix-clustering them: the returned
/// values are in clustered order (not the original key order), which is
/// fine for order-insensitive consumers such as aggregates.
pub fn clustered_reconstruct(col: &Column, keys: &[RowId], bits: u32) -> Vec<Val> {
    let clustered = radix_cluster(keys, col.len(), bits);
    let vals = col.values();
    clustered.iter().map(|&k| vals[k as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counting-partition `head` (and `tail` alongside) in place into
    /// the value ranges of `by`, as a cracked array's prepartition does:
    /// one counting pass, one slot pass, then each column moved from a
    /// copy back into itself through the slots. Returns the bucket
    /// offsets.
    fn cluster_by_value<T: Copy>(
        head: &mut [Val],
        tail: &mut [T],
        by: &ValueBuckets,
    ) -> Vec<usize> {
        let mut counts = vec![0usize; by.buckets()];
        by.count_into(head, &mut counts);
        let offsets = bucket_offsets(&counts);
        let mut slots = Vec::new();
        by.slots_into(head, &mut offsets[..by.buckets()].to_vec(), &mut slots);
        let (src_head, src_tail) = (head.to_vec(), tail.to_vec());
        move_to_slots(&src_head, &slots, head);
        move_to_slots(&src_tail, &slots, tail);
        offsets
    }

    /// The row-wise scatter the slot and move passes replace, kept as
    /// their oracle: append each `(src_head[i], src_tail[i])` to its
    /// bucket's span of `dst_head`/`dst_tail` at `cursors[bucket]`, in
    /// source order, advancing the cursor, and call `more(i, slot)` so
    /// the caller moves row `i` of any further tail columns to the same
    /// slot.
    fn cluster_into<T: Copy>(
        (src_head, src_tail): (&[Val], &[T]),
        (dst_head, dst_tail): (&mut [Val], &mut [T]),
        by: &ValueBuckets,
        cursors: &mut [usize],
        mut more: impl FnMut(usize, usize),
    ) {
        for (i, (&v, &t)) in src_head.iter().zip(src_tail).enumerate() {
            let c = &mut cursors[by.bucket_of(v)];
            dst_head[*c] = v;
            dst_tail[*c] = t;
            more(i, *c);
            *c += 1;
        }
    }

    #[test]
    fn clustering_partitions_by_high_bits() {
        // Domain [0, 16), 1 bit => clusters [0,8) and [8,16).
        let keys = vec![9, 1, 15, 0, 8, 7];
        let out = radix_cluster(&keys, 16, 1);
        assert_eq!(out, vec![1, 0, 7, 9, 15, 8]);
    }

    #[test]
    fn clustering_preserves_multiset() {
        let keys = vec![5, 3, 9, 14, 2, 11, 7];
        let mut out = radix_cluster(&keys, 16, 2);
        let mut orig = keys.clone();
        out.sort_unstable();
        orig.sort_unstable();
        assert_eq!(out, orig);
    }

    #[test]
    fn zero_bits_is_identity() {
        let keys = vec![3, 1, 2];
        assert_eq!(radix_cluster(&keys, 4, 0), keys);
    }

    #[test]
    fn bits_for_cache_sizes() {
        assert_eq!(bits_for_cache(1 << 20, 1 << 20), 0);
        assert_eq!(bits_for_cache(1 << 20, 1 << 18), 2);
        assert!(bits_for_cache(usize::MAX, 1) <= 20);
    }

    #[test]
    fn degenerate_inputs_are_identity() {
        // Zero and one keys.
        assert_eq!(radix_cluster(&[], 16, 3), Vec::<RowId>::new());
        assert_eq!(radix_cluster(&[7], 16, 3), vec![7]);
        // Zero/one-value domains: domain_bits = 0, nothing to split on.
        assert_eq!(radix_cluster(&[0, 0, 0], 0, 4), vec![0, 0, 0]);
        assert_eq!(radix_cluster(&[0, 0], 1, 4), vec![0, 0]);
    }

    #[test]
    fn oversized_bits_are_capped_at_domain_width() {
        // Domain [0, 16) is 4 bits wide; bits = 64 must not try to
        // allocate 2^64 counters — it clusters at 4 bits, i.e. sorts.
        let keys = vec![9, 1, 15, 0, 8, 7];
        let out = radix_cluster(&keys, 16, 64);
        assert_eq!(out, vec![0, 1, 7, 8, 9, 15]);
        // bits exactly at the domain width behaves the same.
        assert_eq!(radix_cluster(&keys, 16, 4), out);
    }

    /// The pre-fusion `cluster_by_value` loop, verbatim in its
    /// arithmetic (every bucket computed in `i128`): the oracle.
    fn cluster_oracle<T: Copy>(head: &mut [Val], tail: &mut [T], by: &ValueBuckets) -> Vec<usize> {
        let buckets = by.buckets();
        let mut counts = vec![0usize; buckets];
        for &v in head.iter() {
            counts[by.wide(v)] += 1;
        }
        let offsets = bucket_offsets(&counts);
        let mut cursors = offsets[..buckets].to_vec();
        let (h2, t2) = (head.to_vec(), tail.to_vec());
        for i in 0..h2.len() {
            let b = by.wide(h2[i]);
            head[cursors[b]] = h2[i];
            tail[cursors[b]] = t2[i];
            cursors[b] += 1;
        }
        offsets
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 11
    }

    #[test]
    fn cluster_by_value_partitions_and_aligns() {
        let mut head: Vec<Val> = vec![12, 3, 5, 9, 15, 22, 7, 26, 4, 2, 24, 11, 16];
        let mut tail: Vec<RowId> = (0..head.len() as RowId).collect();
        let orig = head.clone();
        let by = ValueBuckets::new(4, 1, 28);
        let offsets = cluster_by_value(&mut head, &mut tail, &by);
        assert_eq!(offsets.len(), 5);
        assert_eq!(offsets[0], 0);
        assert_eq!(offsets[4], head.len());
        for b in 0..4 {
            let (lo, hi) = (by.lower_bound(b), by.lower_bound(b + 1));
            for &v in &head[offsets[b]..offsets[b + 1]] {
                assert!(v >= lo && v < hi, "{v} outside bucket {b} [{lo}, {hi})");
            }
        }
        // Tails moved with heads, and the multiset is preserved.
        for (i, &t) in tail.iter().enumerate() {
            assert_eq!(orig[t as usize], head[i]);
        }
        let mut sorted = head.clone();
        sorted.sort_unstable();
        let mut orig_sorted = orig;
        orig_sorted.sort_unstable();
        assert_eq!(sorted, orig_sorted);
    }

    #[test]
    fn cluster_by_value_extreme_domain_does_not_overflow() {
        // Full i64 domain: range = 2^64 overflows i64 (and the u64
        // product), so this takes the i128 fallback.
        let mut head: Vec<Val> = vec![Val::MIN, -1, 0, 1, Val::MAX];
        let mut tail = vec![(); head.len()];
        let by = ValueBuckets::new(2, Val::MIN, Val::MAX);
        assert!(by.span.is_none());
        let offsets = cluster_by_value(&mut head, &mut tail, &by);
        assert_eq!(by.lower_bound(1), 0);
        assert_eq!(head[..offsets[1]], [Val::MIN, -1]);
        assert_eq!(head[offsets[1]..], [0, 1, Val::MAX]);
    }

    #[test]
    fn value_bucket_bounds_bracket_the_domain() {
        let by = ValueBuckets::new(8, 10, 89);
        assert_eq!(by.lower_bound(0), 10);
        assert_eq!(by.lower_bound(8), 90);
        // Monotone, and every value lands in exactly one bucket.
        for b in 0..8 {
            assert!(by.lower_bound(b) < by.lower_bound(b + 1));
        }
    }

    /// The `u64` bucket function against the `i128` oracle where an
    /// off-by-one would show: at every bucket's lower bound and its two
    /// neighbours, over domains that are tiny, negative, at either
    /// end of `i64`, 2^55 wide (the product still fits `u64`) and
    /// awkwardly divisible.
    #[test]
    fn narrow_bucket_function_matches_the_i128_oracle_at_every_bound() {
        let domains: [(Val, Val); 8] = [
            (0, 1),
            (1, 28),
            (-1_000_003, 999_983),
            (Val::MIN, Val::MIN + 1_000),
            (Val::MAX - 77, Val::MAX),
            (-(1 << 54), 1 << 54),
            (1, 3_000_000),
            (-5, -5 + 255),
        ];
        for (min, max) in domains {
            let range = max as i128 - min as i128 + 1;
            for buckets in [1usize, 2, 3, 7, 45, 91, 255, 256] {
                if buckets as i128 > range {
                    continue;
                }
                let by = ValueBuckets::new(buckets, min, max);
                assert!(by.span.is_some(), "[{min}, {max}] x {buckets} fits u64");
                for b in 0..=buckets {
                    let bound = by.lower_bound(b) as i128;
                    for v in [bound - 1, bound, bound + 1] {
                        if v < min as i128 || v > max as i128 {
                            continue;
                        }
                        let v = v as Val;
                        assert_eq!(
                            by.bucket_of(v),
                            by.wide(v),
                            "v = {v}, [{min}, {max}] x {buckets}"
                        );
                        // Monotone membership: `bucket < b` iff `v < bound(b)`.
                        assert_eq!(by.bucket_of(v) < b, (v as i128) < bound);
                    }
                }
            }
        }
        // A product that does not fit u64 falls back, and says so.
        assert!(ValueBuckets::new(256, Val::MIN, Val::MAX).span.is_none());
        assert!(ValueBuckets::new(256, 0, 1 << 57).span.is_none());
        assert!(ValueBuckets::new(255, 0, (1 << 56) - 1).span.is_some());
    }

    /// `cluster_by_value` (count + `cluster_into`) against the oracle
    /// loop on seeded random columns, narrow and wide, both tail types.
    #[test]
    fn cluster_by_value_is_bit_identical_to_the_i128_loop() {
        let mut state = 0x5EED_u64;
        for case in 0..40 {
            let n = [0usize, 1, 2, 63, 1000, 4097][case % 6];
            let (min, max): (Val, Val) = match case % 5 {
                0 => (0, 9),
                1 => (-500, 499),
                2 => (Val::MIN, Val::MAX),
                3 => (7, 7),
                _ => (1, 3_000_000),
            };
            let range = max as i128 - min as i128 + 1;
            let buckets = (1 + lcg(&mut state) as usize % 64).min(range.min(64) as usize);
            let head: Vec<Val> = (0..n)
                .map(|_| (min as i128 + (lcg(&mut state) as i128 * 2048) % range) as Val)
                .collect();
            let by = ValueBuckets::new(buckets, min, max);

            let keys: Vec<RowId> = (0..n as RowId).collect();
            let (mut h1, mut t1) = (head.clone(), keys.clone());
            let (mut h2, mut t2) = (head.clone(), keys);
            let got = cluster_by_value(&mut h1, &mut t1, &by);
            let want = cluster_oracle(&mut h2, &mut t2, &by);
            assert_eq!((got, &h1, &t1), (want, &h2, &t2), "case {case} (keys)");

            let vals: Vec<Val> = head.iter().map(|v| v.wrapping_mul(3)).collect();
            let (mut h1, mut t1) = (head.clone(), vals.clone());
            let (mut h2, mut t2) = (head, vals);
            let got = cluster_by_value(&mut h1, &mut t1, &by);
            let want = cluster_oracle(&mut h2, &mut t2, &by);
            assert_eq!((got, &h1, &t1), (want, &h2, &t2), "case {case} (vals)");
        }
    }

    /// The slot pass plus one move pass per column, run by run, against
    /// the row-wise [`cluster_into`] through the same cursors, on a
    /// `head` with `tails` whose live rows are `runs`.
    fn assert_moves_match_the_row_wise_scatter<T: Copy + Default + PartialEq + std::fmt::Debug>(
        head: &[Val],
        tails: &[Vec<T>],
        runs: &[std::ops::Range<usize>],
        by: &ValueBuckets,
        case: &str,
    ) {
        let live: usize = runs.iter().map(|r| r.len()).sum();
        let mut counts = vec![0usize; by.buckets()];
        for run in runs {
            by.count_into(&head[run.clone()], &mut counts);
        }
        let cursors = bucket_offsets(&counts)[..by.buckets()].to_vec();

        let mut slots = Vec::with_capacity(live);
        let mut at = cursors.clone();
        for run in runs {
            by.slots_into(&head[run.clone()], &mut at, &mut slots);
        }
        fn moved<X: Copy + Default>(
            src: &[X],
            runs: &[std::ops::Range<usize>],
            slots: &[u32],
        ) -> Vec<X> {
            let mut dst = vec![X::default(); slots.len()];
            let mut at = 0;
            for run in runs {
                move_to_slots(&src[run.clone()], &slots[at..at + run.len()], &mut dst);
                at += run.len();
            }
            dst
        }
        let got_head = moved(head, runs, &slots);
        let got_tails: Vec<Vec<T>> = tails.iter().map(|t| moved(t, runs, &slots)).collect();

        let mut want_head = vec![0; live];
        let mut want_tails = vec![vec![T::default(); live]; tails.len()];
        let (first, rest) = want_tails.split_at_mut(1);
        let mut at = cursors;
        for run in runs {
            let src = (&head[run.clone()], &tails[0][run.clone()]);
            let dst = (&mut want_head[..], &mut first[0][..]);
            cluster_into(src, dst, by, &mut at, |i, c| {
                for (d, s) in rest.iter_mut().zip(&tails[1..]) {
                    d[c] = s[run.start + i];
                }
            });
        }
        assert_eq!(got_head, want_head, "{case}: head");
        assert_eq!(got_tails, want_tails, "{case}: tails");
    }

    /// Seeded property: slot pass + per-column moves equal the row-wise
    /// scatter for 1–4 tail columns of `Val` and of `RowId`, 2–256
    /// buckets, narrow and wide (`i128`) bucket functions, and sources
    /// split into runs by an exclusion list.
    #[test]
    fn slot_and_move_passes_match_the_row_wise_scatter() {
        let (mut state, mut wide) = (0x51075_u64, 0);
        for case in 0..120 {
            let n = [0usize, 1, 2, 63, 1000, 4097, 20_000][case % 7];
            let (min, max): (Val, Val) = match case % 4 {
                0 => (-500, 499),
                1 => (Val::MIN, Val::MAX),
                2 => (0, 1 << 57),
                _ => (1, 3_000_000),
            };
            let range = max as i128 - min as i128 + 1;
            let buckets = 2 + lcg(&mut state) as usize % 255;
            let by = ValueBuckets::new(buckets, min, max);
            wide += by.span.is_none() as usize;
            let head: Vec<Val> = (0..n)
                .map(|_| (min as i128 + (lcg(&mut state) as i128 * 4099) % range) as Val)
                .collect();
            // Exclude about one position in `gap`: the live rows fall
            // into runs, empty ones included where two exclusions meet.
            let gap = 1 + lcg(&mut state) % 64;
            let mut runs = Vec::new();
            let mut start = 0;
            for i in 0..n {
                if lcg(&mut state).is_multiple_of(gap) {
                    runs.push(start..i);
                    start = i + 1;
                }
            }
            runs.push(start.min(n)..n);
            let k = 1 + case % 4;
            let vals: Vec<Vec<Val>> = (0..k)
                .map(|_| (0..n).map(|_| lcg(&mut state) as Val).collect())
                .collect();
            let keys: Vec<Vec<RowId>> = (0..k)
                .map(|_| (0..n).map(|_| lcg(&mut state) as RowId).collect())
                .collect();
            let case = format!("case {case}: n {n}, {buckets} buckets over [{min}, {max}], k {k}");
            assert_moves_match_the_row_wise_scatter(&head, &vals, &runs, &by, &case);
            assert_moves_match_the_row_wise_scatter(&head, &keys, &runs, &by, &case);
        }
        assert!(
            (40..120).contains(&wide),
            "{wide} of 120 cases took the i128 path"
        );
    }

    #[test]
    fn clustered_reconstruct_returns_all_values() {
        let col = Column::new((0..16).map(|i| i * 10).collect());
        let keys = vec![9, 1, 15, 0];
        let mut vals = clustered_reconstruct(&col, &keys, 1);
        vals.sort_unstable();
        assert_eq!(vals, vec![0, 10, 90, 150]);
    }
}
