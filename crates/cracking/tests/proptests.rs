//! Property-based tests of the cracking substrate's invariants, driven
//! by a deterministic seeded PRNG (the workspace builds offline, so no
//! `proptest` dependency).

use crackdb_columnstore::column::Column;
use crackdb_columnstore::types::{Bound, RangePred, Val};
use crackdb_cracking::crack::{crack_in_three, crack_in_two, BoundKind};
use crackdb_cracking::{CrackedArray, CrackerColumn};
use crackdb_rng::{rngs::StdRng, Rng, SeedableRng};

/// Independently verify the structural invariants tying a cracker index
/// to its physical array (deliberately *not* via
/// `CrackedArray::check_partitioning`, which is the code under test's
/// own helper):
///
/// 1. boundary keys are strictly ascending and their positions
///    non-decreasing, every position within `[0, len]`;
/// 2. each boundary partitions the array: values below its position
///    belong to the left piece, values at/after it do not;
/// 3. the index lookups agree with the flattened boundary list —
///    `position_of` resolves each live boundary to the recorded
///    position, and `enclosing_piece` of a key between two adjacent
///    boundaries returns exactly those positions.
fn assert_structural_invariants<T: Copy>(arr: &CrackedArray<T>) {
    let n = arr.len();
    let bs = arr.index().boundaries();

    // (1) sorted boundary list, in-range positions.
    for w in bs.windows(2) {
        assert!(w[0].0 < w[1].0, "boundary keys must strictly ascend");
        assert!(w[0].1 <= w[1].1, "boundary positions must not descend");
    }
    for &(_, pos) in &bs {
        assert!(pos <= n, "boundary position {pos} outside array of {n}");
    }

    // (2) every piece internally in-range with respect to its bounds.
    for &((bv, kind), pos) in &bs {
        for (i, &h) in arr.head().iter().enumerate() {
            if i < pos {
                assert!(
                    kind.belongs_left(h, bv),
                    "value {h} at {i} must be left of ({bv},{kind:?})@{pos}"
                );
            } else {
                assert!(
                    !kind.belongs_left(h, bv),
                    "value {h} at {i} must be right of ({bv},{kind:?})@{pos}"
                );
            }
        }
    }

    // (3) Index lookups consistent with the flattened list.
    for (i, &(key, pos)) in bs.iter().enumerate() {
        assert_eq!(
            arr.index().position_of(key),
            Some(pos),
            "live boundary must resolve through the index"
        );
        // A key nestled between boundary i and i+1 sees exactly that
        // piece. BoundKind::Lt sorts before Le on equal values, so
        // probing (key.0, Le) when this boundary is (key.0, Lt) stays
        // inside the right-adjacent piece.
        let next = bs.get(i + 1);
        let probe = (key.0, BoundKind::Le);
        if key.1 == BoundKind::Lt && arr.index().position_of(probe).is_none() {
            let (s, e) = arr.index().enclosing_piece(probe, n);
            assert_eq!(s, pos, "piece after boundary {i} starts at it");
            assert_eq!(
                e,
                next.map_or(n, |&(_, p)| p),
                "piece after boundary {i} ends at the next boundary"
            );
        }
    }
}

const CASES: u64 = 96;

fn cases(seed: u64, mut f: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_add(case.wrapping_mul(0x9E3779B97F4A7C15)));
        f(&mut rng);
    }
}

fn vec_of(rng: &mut StdRng, lo: Val, hi: Val, min_len: usize, max_len: usize) -> Vec<Val> {
    let len = rng.gen_range(min_len..max_len);
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

fn sorted(mut v: Vec<Val>) -> Vec<Val> {
    v.sort_unstable();
    v
}

/// crack_in_two partitions correctly and preserves the multiset and
/// head/tail pairing.
#[test]
fn crack_in_two_is_a_partition() {
    cases(0x2217, |rng| {
        let mut head = vec_of(rng, -100, 100, 0, 200);
        let pivot = rng.gen_range(-120i64..120);
        let kind = if rng.gen_bool(0.5) {
            BoundKind::Le
        } else {
            BoundKind::Lt
        };
        let orig = head.clone();
        let mut tail: Vec<usize> = (0..head.len()).collect();
        let n = head.len();
        let split = crack_in_two(&mut head, &mut tail, 0, n, pivot, kind);
        for (i, &v) in head.iter().enumerate() {
            assert_eq!(i < split, kind.belongs_left(v, pivot));
            assert_eq!(orig[tail[i]], v, "pairing broken");
        }
        assert_eq!(sorted(head), sorted(orig));
    });
}

/// crack_in_three produces the same piece sets as two crack_in_twos.
#[test]
fn crack_in_three_equivalent() {
    cases(0x3317, |rng| {
        let head = vec_of(rng, -100, 100, 0, 200);
        let a = rng.gen_range(-120i64..120);
        let b = a + rng.gen_range(0i64..50);
        let mut h3 = head.clone();
        let mut t3 = vec![(); h3.len()];
        let n = h3.len();
        let (s1, s2) = crack_in_three(
            &mut h3,
            &mut t3,
            0,
            n,
            (a, BoundKind::Le),
            (b, BoundKind::Lt),
        );
        let mut h2 = head.clone();
        let mut t2 = vec![(); h2.len()];
        let x1 = crack_in_two(&mut h2, &mut t2, 0, n, a, BoundKind::Le);
        let x2 = crack_in_two(&mut h2, &mut t2, x1, n, b, BoundKind::Lt);
        assert_eq!((s1, s2), (x1, x2));
        assert_eq!(sorted(h3[..s1].to_vec()), sorted(h2[..s1].to_vec()));
        assert_eq!(sorted(h3[s1..s2].to_vec()), sorted(h2[s1..s2].to_vec()));
        assert_eq!(sorted(h3[s2..].to_vec()), sorted(h2[s2..].to_vec()));
    });
}

/// Any sequence of crack_range calls keeps the index consistent with the
/// physical array and answers selections exactly.
#[test]
fn crack_range_sequences_are_consistent() {
    cases(0xC4AC2, |rng| {
        let head = vec_of(rng, -50, 50, 1, 150);
        let tail: Vec<u32> = (0..head.len() as u32).collect();
        let orig = head.clone();
        let mut arr = CrackedArray::new(head, tail);
        let nq = rng.gen_range(1usize..12);
        for _ in 0..nq {
            let lo = rng.gen_range(-60i64..60);
            let pred = RangePred {
                lo: Some(Bound {
                    value: lo,
                    inclusive: rng.gen_bool(0.5),
                }),
                hi: Some(Bound {
                    value: lo + rng.gen_range(0i64..40),
                    inclusive: rng.gen_bool(0.5),
                }),
            };
            if pred.is_empty_range() {
                continue;
            }
            let (s, e) = arr.crack_range(&pred);
            arr.check_partitioning();
            let (h, _) = arr.view((s, e));
            let got = sorted(h.to_vec());
            let expected = sorted(orig.iter().copied().filter(|&v| pred.matches(v)).collect());
            assert_eq!(got, expected);
        }
        assert_eq!(sorted(arr.head().to_vec()), sorted(orig));
    });
}

/// Structural invariants (piece in-range, sorted boundaries, index
/// consistency) hold after *any* random crack sequence — not just the
/// end-to-end answers tested above.
#[test]
fn crack_sequences_preserve_structural_invariants() {
    cases(0x57AB1E, |rng| {
        let head = vec_of(rng, -80, 80, 1, 160);
        let tail: Vec<u32> = (0..head.len() as u32).collect();
        let orig = sorted(head.clone());
        let mut arr = CrackedArray::new(head, tail);
        let nq = rng.gen_range(1usize..16);
        for _ in 0..nq {
            // Mix two-sided, one-sided and point predicates.
            let lo = rng.gen_range(-90i64..90);
            let pred = match rng.gen_range(0u32..4) {
                0 => RangePred::open(lo, lo + rng.gen_range(1i64..50)),
                1 => RangePred::closed(lo, lo + rng.gen_range(0i64..50)),
                2 => RangePred::greater(Bound {
                    value: lo,
                    inclusive: rng.gen_bool(0.5),
                }),
                _ => RangePred::less(Bound {
                    value: lo,
                    inclusive: rng.gen_bool(0.5),
                }),
            };
            if pred.is_empty_range() {
                continue;
            }
            arr.crack_range(&pred);
            assert_structural_invariants(&arr);
        }
        // Cracking permutes, never mutates, the multiset.
        assert_eq!(sorted(arr.head().to_vec()), orig);
    });
}

/// The same structural invariants survive ripple inserts and deletes
/// interleaved with cracks (boundaries shift but stay sorted, pieces
/// stay internally in-range, the index stays consistent).
#[test]
fn ripple_updates_preserve_structural_invariants() {
    cases(0x217C7, |rng| {
        let head = vec_of(rng, 0, 50, 1, 100);
        let tail: Vec<u32> = (0..head.len() as u32).collect();
        let mut arr = CrackedArray::new(head, tail);
        let mut next_tag = 1000u32;
        let nops = rng.gen_range(1usize..30);
        for _ in 0..nops {
            match rng.gen_range(0u32..3) {
                0 => {
                    arr.ripple_insert(rng.gen_range(0i64..50), next_tag);
                    next_tag += 1;
                }
                1 => {
                    let v = rng.gen_range(0i64..50);
                    arr.ripple_delete(v, |_| true);
                }
                _ => {
                    let lo = rng.gen_range(0i64..45);
                    let pred = RangePred::closed(lo, lo + rng.gen_range(0i64..15));
                    if !pred.is_empty_range() {
                        arr.crack_range(&pred);
                    }
                }
            }
            assert_structural_invariants(&arr);
        }
    });
}

/// The self-organizing histogram (§3.3) must bracket the true result
/// size: `lower <= actual <= upper` for every estimate, with exactness
/// exactly when both bounds hit existing cracks.
#[test]
fn size_estimates_bracket_the_truth() {
    cases(0xE57, |rng| {
        let head = vec_of(rng, 0, 100, 1, 150);
        let orig = head.clone();
        let tail: Vec<u32> = (0..head.len() as u32).collect();
        let mut arr = CrackedArray::new(head, tail);
        for _ in 0..rng.gen_range(0usize..8) {
            let lo = rng.gen_range(0i64..95);
            let pred = RangePred::open(lo, lo + rng.gen_range(1i64..40));
            if !pred.is_empty_range() {
                arr.crack_range(&pred);
            }
        }
        for _ in 0..10 {
            let lo = rng.gen_range(0i64..95);
            let pred = RangePred::open(lo, lo + rng.gen_range(1i64..40));
            if pred.is_empty_range() {
                continue;
            }
            let est = arr.index().estimate_size(&pred, arr.len(), (0, 100));
            let actual = orig.iter().filter(|&&v| pred.matches(v)).count();
            assert!(
                est.lower <= actual && actual <= est.upper,
                "estimate [{}, {}] must bracket actual {actual}",
                est.lower,
                est.upper
            );
            if est.exact {
                assert_eq!(est.lower, est.upper, "exact estimates have tight bounds");
                assert_eq!(actual, est.lower);
            }
        }
    });
}

/// Ripple inserts/deletes interleaved with cracks keep the column
/// equivalent to a naive multiset.
#[test]
fn ripple_updates_preserve_contents() {
    cases(0x21991E, |rng| {
        let base = vec_of(rng, 0, 40, 1, 80);
        let col = Column::new(base.clone());
        let mut cracker = CrackerColumn::from_column(&col);
        let mut reference: Vec<(Val, u32)> = base
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let mut next_key = base.len() as u32;
        let nops = rng.gen_range(1usize..40);
        for _ in 0..nops {
            let op = rng.gen_range(0u32..3);
            let v = rng.gen_range(0i64..40);
            match op {
                0 => {
                    cracker.queue_insert(v, next_key);
                    reference.push((v, next_key));
                    next_key += 1;
                }
                1 => {
                    if let Some(pos) = reference.iter().position(|&(rv, _)| rv == v) {
                        let (rv, rk) = reference.remove(pos);
                        cracker.queue_delete(rv, rk);
                    }
                }
                _ => {
                    let pred = RangePred::closed(v, v + rng.gen_range(0i64..20));
                    let mut got = cracker.select_keys(&pred);
                    got.sort_unstable();
                    let mut expected: Vec<u32> = reference
                        .iter()
                        .filter(|(rv, _)| pred.matches(*rv))
                        .map(|&(_, k)| k)
                        .collect();
                    expected.sort_unstable();
                    assert_eq!(got, expected);
                    cracker.array().check_partitioning();
                }
            }
        }
        cracker.merge_all_pending();
        assert_eq!(cracker.len(), reference.len());
    });
}
