//! Seeded-PRNG equivalence properties: the crack kernels the product
//! calls (`crack_in_two`, `crack_in_three`) against the paper's
//! scalar loops.
//!
//! Both produce **identical split positions** (splits are determined by
//! value counts, which no reordering changes) and
//! **permutation-equivalent piece contents** (same multiset per piece,
//! head/tail pairing preserved): each crack splits where the paper's
//! loop would.
//!
//! All trials are driven by a fixed-seed LCG so failures replay.

use crackdb_columnstore::types::Val;
use crackdb_cracking::crack::{
    crack_in_three, crack_in_three_scalar, crack_in_two, crack_in_two_scalar,
};
use crackdb_cracking::BoundKind;

/// Deterministic 64-bit LCG (MMIX constants).
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

    fn val(&mut self, m: i64) -> Val {
        (self.next() as i64).rem_euclid(m.max(1))
    }
}

/// Assert the two layouts are permutation-equivalent per piece and that
/// each kernel kept its own head/tail pairing (tails carry the original
/// position of their head value).
fn assert_piece_equiv(
    splits: &[usize],
    orig: &[Val],
    scalar: (&[Val], &[u32]),
    block: (&[Val], &[u32]),
) {
    for w in splits.windows(2) {
        let (x, y) = (w[0], w[1]);
        let mut a = scalar.0[x..y].to_vec();
        let mut b = block.0[x..y].to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "piece [{x}, {y}) multisets differ between kernels");
    }
    for (h, t) in [scalar, block] {
        for (i, (&v, &tl)) in h.iter().zip(t).enumerate() {
            assert_eq!(orig[tl as usize], v, "pairing broken at {i}");
        }
    }
}

#[test]
fn crack_in_two_equivalence_under_random_trials() {
    let mut rng = Lcg(0xC0FFEE);
    for trial in 0..500 {
        // Sizes sweep the scalar-only, partial-block and multi-block
        // regimes; domains sweep heavy-duplicate to near-unique.
        let n = match trial % 5 {
            0 => rng.below(4),           // empty / singleton / tiny
            1 => 64 + rng.below(65),     // around one block
            2 => 128 + rng.below(129),   // around the 2-block threshold
            3 => rng.below(2000),        // general
            _ => 4096 + rng.below(1000), // comfortably blocked
        };
        let domain = [2, 5, 100, 1 << 30][trial % 4];
        let data: Vec<Val> = (0..n).map(|_| rng.val(domain)).collect();
        // Random subrange, sometimes degenerate or full.
        let start = rng.below(n + 1);
        let end = start + rng.below(n - start + 1);
        // Edge pivots (below/above every value) on a cadence, else random.
        let pivot = match trial % 7 {
            0 => -1,
            1 => domain + 1,
            _ => rng.val(domain + 2) - 1,
        };
        let kind = if rng.below(2) == 0 {
            BoundKind::Lt
        } else {
            BoundKind::Le
        };

        let mut h1 = data.clone();
        let mut t1: Vec<u32> = (0..n as u32).collect();
        let mut h2 = data.clone();
        let mut t2 = t1.clone();
        let s1 = crack_in_two_scalar(&mut h1, &mut t1, start, end, pivot, kind);
        let s2 = crack_in_two(&mut h2, &mut t2, start, end, pivot, kind);
        assert_eq!(
            s1, s2,
            "trial {trial}: splits differ (n={n} range=[{start},{end}) pivot={pivot} {kind:?})"
        );
        // Outside the subrange both kernels must not touch anything.
        assert_eq!(&h1[..start], &data[..start]);
        assert_eq!(&h2[..start], &data[..start]);
        assert_eq!(&h1[end..], &data[end..]);
        assert_eq!(&h2[end..], &data[end..]);
        // Partition correctness + per-piece permutation equivalence.
        for (h, _) in [(&h1, &t1), (&h2, &t2)] {
            for (i, &v) in h[start..end].iter().enumerate() {
                assert_eq!(
                    kind.belongs_left(v, pivot),
                    start + i < s1,
                    "trial {trial}: misplaced {v}"
                );
            }
        }
        assert_piece_equiv(&[start, s1, end], &data, (&h1, &t1), (&h2, &t2));
    }
}

#[test]
fn crack_in_three_equivalence_under_random_trials() {
    let mut rng = Lcg(0xB10C);
    for trial in 0..300 {
        let n = match trial % 4 {
            0 => rng.below(3),
            1 => 100 + rng.below(100),
            2 => 1000 + rng.below(500),
            _ => 4096 + rng.below(2000),
        };
        let domain = [3, 50, 1000][trial % 3];
        let data: Vec<Val> = (0..n).map(|_| rng.val(domain)).collect();
        let start = rng.below(n + 1);
        let end = start + rng.below(n - start + 1);
        // All four BoundKind combos, edge and crossing pivots included.
        let lo_v = rng.val(domain + 2) - 1;
        let hi_v = lo_v + rng.below(domain as usize / 2 + 1) as Val;
        let combos = [
            (BoundKind::Le, BoundKind::Lt),
            (BoundKind::Lt, BoundKind::Le),
            (BoundKind::Lt, BoundKind::Lt),
            (BoundKind::Le, BoundKind::Le),
        ];
        let (k1, k2) = combos[trial % 4];
        let lo_bound = (lo_v, k1);
        let hi_bound = (hi_v, k2);
        // The kernels require a consistent two-boundary predicate (no
        // value both left of lo and right of hi). Callers guarantee it
        // via strictly ordered boundary keys; `(v, Le)` + `(v, Lt)` is
        // the one equal-value combo that violates it.
        if lo_v == hi_v && (k1, k2) == (BoundKind::Le, BoundKind::Lt) {
            continue;
        }

        let mut h1 = data.clone();
        let mut t1: Vec<u32> = (0..n as u32).collect();
        let mut h2 = data.clone();
        let mut t2 = t1.clone();
        let s1 = crack_in_three_scalar(&mut h1, &mut t1, start, end, lo_bound, hi_bound);
        let s2 = crack_in_three(&mut h2, &mut t2, start, end, lo_bound, hi_bound);
        assert_eq!(
            s1, s2,
            "trial {trial}: splits differ (n={n} range=[{start},{end}) \
             lo=({lo_v},{k1:?}) hi=({hi_v},{k2:?}))"
        );
        assert_eq!(&h1[..start], &data[..start]);
        assert_eq!(&h2[..start], &data[..start]);
        assert_eq!(&h1[end..], &data[end..]);
        assert_eq!(&h2[end..], &data[end..]);
        for (h, _) in [(&h1, &t1), (&h2, &t2)] {
            for (i, &v) in h[start..end].iter().enumerate() {
                let pos = start + i;
                let left = k1.belongs_left(v, lo_v);
                let right = !k2.belongs_left(v, hi_v);
                assert_eq!(left, pos < s1.0, "trial {trial}: {v} vs left split");
                assert_eq!(right, pos >= s1.1, "trial {trial}: {v} vs right split");
            }
        }
        assert_piece_equiv(&[start, s1.0, s1.1, end], &data, (&h1, &t1), (&h2, &t2));
    }
}

#[test]
fn crack_in_three_equals_two_sequential_crack_in_twos() {
    // The blocked three-way kernel is *defined* as hi-pass + lo-pass;
    // the scalar Dutch-flag loop must land on the same splits as the
    // classical two-crack decomposition as well.
    let mut rng = Lcg(0x3A3A);
    for _ in 0..100 {
        let n = 200 + rng.below(800);
        let data: Vec<Val> = (0..n).map(|_| rng.val(500)).collect();
        let lo = rng.val(400);
        let hi = lo + rng.val(100);
        let lo_bound = (lo, BoundKind::Le);
        let hi_bound = (hi, BoundKind::Lt);

        let mut h3 = data.clone();
        let mut t3 = vec![(); n];
        let s3 = crack_in_three_scalar(&mut h3, &mut t3, 0, n, lo_bound, hi_bound);

        let mut h2 = data.clone();
        let mut t2 = vec![(); n];
        let b = crack_in_two_scalar(&mut h2, &mut t2, 0, n, hi, BoundKind::Lt);
        let a = crack_in_two_scalar(&mut h2, &mut t2, 0, b, lo, BoundKind::Le);
        assert_eq!(s3, (a, b));
    }
}
