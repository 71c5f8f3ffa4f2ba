//! Property tests of `CrackedArray::crack_range`, driven by a
//! deterministic seeded PRNG (the workspace builds offline, so no
//! `proptest` dependency):
//!
//! 1. the head column is always a permutation of the input (tails
//!    follow their heads);
//! 2. every query bound is in the index and not marked advisory, the
//!    physical partitioning honours every recorded boundary, and the
//!    returned area holds exactly the tuples a naive scan selects.

use crackdb_columnstore::types::{RangePred, Val};
use crackdb_cracking::index::pred_keys;
use crackdb_cracking::CrackedArray;
use crackdb_rng::{rngs::StdRng, Rng, SeedableRng};

fn random_array(n: usize, domain: Val, seed: u64) -> CrackedArray<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let head: Vec<Val> = (0..n).map(|_| rng.gen_range(1..=domain)).collect();
    let tail: Vec<u32> = (0..n as u32).collect();
    CrackedArray::new(head, tail)
}

fn random_pred(rng: &mut StdRng, domain: Val) -> RangePred {
    let lo = rng.gen_range(0..domain);
    let width = rng.gen_range(0..=domain / 4);
    match rng.gen_range(0..4) {
        0 => RangePred::open(lo, lo + width + 1),
        1 => RangePred::closed(lo, lo + width),
        2 => RangePred::half_open(lo, lo + width + 1),
        _ => RangePred::point(lo),
    }
}

/// (1) + (2): permutation invariant, query-bound exactness, and
/// scan-equivalent results.
#[test]
fn head_stays_a_permutation_and_boundaries_stay_exact() {
    let n = 4000;
    let domain = 1000;
    let mut arr = random_array(n, domain, 7);
    let mut reference: Vec<(Val, u32)> = arr
        .head()
        .iter()
        .copied()
        .zip(arr.tail().iter().copied())
        .collect();
    reference.sort_unstable();
    let mut rng = StdRng::seed_from_u64(99);
    for q in 0..60 {
        let pred = random_pred(&mut rng, domain);
        let (start, end) = arr.crack_range(&pred);

        // (1) Permutation: the (head, tail) pair multiset never changes,
        // only the order.
        let mut now: Vec<(Val, u32)> = arr
            .head()
            .iter()
            .copied()
            .zip(arr.tail().iter().copied())
            .collect();
        now.sort_unstable();
        assert_eq!(now, reference, "query {q}: head/tail permutation broken");

        // (2) Every recorded boundary partitions the array exactly.
        arr.check_partitioning();

        // Query bounds resolve through the index, *not* marked advisory.
        if !pred.is_empty_range() {
            let (lo_k, hi_k) = pred_keys(&pred);
            for k in [lo_k, hi_k].into_iter().flatten() {
                assert!(
                    arr.index().position_of(k).is_some(),
                    "query {q}: query boundary {k:?} missing"
                );
                assert!(
                    !arr.index().is_advisory(k),
                    "query {q}: query boundary {k:?} marked advisory"
                );
            }
        }

        // The area equals a naive scan.
        let mut got: Vec<Val> = arr.head()[start..end].to_vec();
        got.sort_unstable();
        assert!(
            got.iter().all(|&v| pred.matches(v)),
            "query {q}: area contains non-matching value"
        );
        let mut expected: Vec<Val> = reference
            .iter()
            .map(|&(v, _)| v)
            .filter(|&v| pred.matches(v))
            .collect();
        expected.sort_unstable();
        assert_eq!(got, expected, "query {q}: result set");
    }
}
