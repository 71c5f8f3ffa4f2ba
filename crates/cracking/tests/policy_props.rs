//! Property tests of the [`CrackPolicy`] invariants, driven by a
//! deterministic seeded PRNG (the workspace builds offline, so no
//! `proptest` dependency — per the PR 1 conventions):
//!
//! 1. the head column is always a permutation of the input (tails
//!    follow their heads), under every policy;
//! 2. every query-mandated boundary is exact under all policies — when
//!    a boundary is recorded for a predicate bound, it resolves through
//!    the index, it is not marked advisory, and the physical
//!    partitioning honours it (and exact spans contain exactly the
//!    qualifying tuples);
//! 3. the coarse-granular policy caps cracker-index growth under skew.

use crackdb_columnstore::types::{RangePred, Val};
use crackdb_cracking::index::pred_keys;
use crackdb_cracking::{CrackPolicy, CrackedArray};
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

fn policies() -> Vec<CrackPolicy> {
    vec![
        CrackPolicy::Standard,
        CrackPolicy::coarse(),
        CrackPolicy::CoarseGranular { min_piece: 32 },
    ]
}

/// (1) + (2): permutation invariant, recorded-boundary exactness, and
/// scan-equivalent results under every policy.
#[test]
fn head_stays_a_permutation_and_boundaries_stay_exact() {
    let n = 4000;
    let domain = 1000;
    for policy in policies() {
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
            let span = arr.crack_range_with(&pred, &policy);

            // (1) Permutation: the (head, tail) pair multiset never
            // changes, only the order.
            let mut now: Vec<(Val, u32)> = arr
                .head()
                .iter()
                .copied()
                .zip(arr.tail().iter().copied())
                .collect();
            now.sort_unstable();
            assert_eq!(
                now,
                reference,
                "{} query {q}: head/tail permutation broken",
                policy.label()
            );

            // (2) Every recorded boundary partitions the array exactly.
            arr.check_partitioning();

            // Query-mandated bounds: exact spans must expose both
            // boundaries through the index, *not* marked advisory.
            if span.exact && !pred.is_empty_range() {
                let (lo_k, hi_k) = pred_keys(&pred);
                for k in [lo_k, hi_k].into_iter().flatten() {
                    assert!(
                        arr.index().position_of(k).is_some(),
                        "{} query {q}: query boundary {k:?} missing",
                        policy.label()
                    );
                    assert!(
                        !arr.index().is_advisory(k),
                        "{} query {q}: query boundary {k:?} marked advisory",
                        policy.label()
                    );
                }
            }

            // The span (filtered when inexact) equals a naive scan.
            let mut got: Vec<Val> = arr.head()[span.start..span.end]
                .iter()
                .copied()
                .filter(|&v| span.exact || pred.matches(v))
                .collect();
            got.sort_unstable();
            if span.exact {
                assert!(
                    got.iter().all(|&v| pred.matches(v)),
                    "{} query {q}: exact span contains non-matching value",
                    policy.label()
                );
            }
            let mut expected: Vec<Val> = reference
                .iter()
                .map(|&(v, _)| v)
                .filter(|&v| pred.matches(v))
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "{} query {q}: result set", policy.label());
        }
    }
}

/// (3): a skewed drill-down workload shatters a hot region into tiny
/// pieces under the standard policy; the coarse-granular policy stops
/// at its leaf size, capping AVL growth.
#[test]
fn coarse_granular_caps_index_growth_under_skew() {
    let n = 50_000usize;
    let domain = n as Val;
    let min_piece = 512usize;
    let queries = 400usize;

    let run = |policy: CrackPolicy| -> (usize, usize) {
        let mut arr = random_array(n, domain, 23);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..queries {
            // Hot zone: first 2% of the domain, very narrow ranges.
            let lo = rng.gen_range(0..domain / 50);
            let pred = RangePred::open(lo, lo + 3);
            arr.crack_range_with(&pred, &policy);
        }
        arr.check_partitioning();
        (arr.index().len(), arr.index().total_nodes())
    };

    let (std_len, _) = run(CrackPolicy::Standard);
    let (coarse_len, coarse_nodes) = run(CrackPolicy::CoarseGranular { min_piece });

    assert!(
        coarse_len * 4 < std_len,
        "coarse must cap boundary count under skew (coarse {coarse_len} vs standard {std_len})"
    );
    // Structural cap: every recorded boundary split a piece larger than
    // min_piece, and the hot zone holds ~n/50 tuples, so the boundary
    // count is bounded by hot-tuples/min_piece plus a small constant
    // for the zone edges.
    let hot_tuples = n / 50;
    assert!(
        coarse_nodes <= hot_tuples / min_piece * 8 + 16,
        "coarse index grew past its structural cap: {coarse_nodes} nodes"
    );
}
