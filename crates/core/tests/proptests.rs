//! Property-based tests of sideways cracking's core invariants:
//! alignment, bit-vector plans, and partial-map equivalence.
//!
//! The workspace builds offline, so instead of `proptest` these
//! properties are driven by a deterministic seeded PRNG: every test runs
//! a fixed number of randomized cases and reports the failing case seed
//! in its panic message.

use crackdb_columnstore::column::{Column, Table};
use crackdb_columnstore::types::{RangePred, Val};
use crackdb_core::{MapSet, PartialSet};
use crackdb_rng::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashSet;

const CASES: u64 = 64;

/// Run `f` once per case with a per-case deterministic generator.
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

fn table(cols: Vec<Vec<Val>>) -> Table {
    let mut t = Table::new();
    for (i, c) in cols.into_iter().enumerate() {
        t.add_column(format!("a{i}"), Column::new(c));
    }
    t
}

fn pred(lo: Val, width: Val) -> RangePred {
    RangePred::open(lo, lo + width + 1)
}

/// After any interleaving of sideways selects over two maps, both maps
/// hold identical heads (physical alignment) and answer consistently
/// with a naive scan.
#[test]
fn maps_stay_aligned() {
    cases(0xA11CE, |rng| {
        let a = vec_of(rng, 0, 60, 2, 100);
        let n = a.len();
        let nq = rng.gen_range(1usize..15);
        let b: Vec<Val> = (0..n as Val).map(|i| i + 1000).collect();
        let c: Vec<Val> = (0..n as Val).map(|i| i + 2000).collect();
        let t = table(vec![a.clone(), b, c]);
        let mut set = MapSet::new(0, n, HashSet::new());
        for _ in 0..nq {
            let p = pred(rng.gen_range(0i64..60), rng.gen_range(0i64..30));
            let attr = 1 + rng.gen_range(0usize..2);
            let range = set.sideways_select(&t, attr, &p);
            let got: HashSet<Val> = set.view_tail(attr, range).iter().copied().collect();
            let expected: HashSet<Val> = (0..n)
                .filter(|&i| p.matches(a[i]))
                .map(|i| t.column(attr).get(i as u32))
                .collect();
            assert_eq!(got, expected);
            // Alignment invariant: maps whose cursors point at the same
            // tape position are physically identical. (A map unused by
            // recent queries deliberately lags — it aligns on demand.)
            if let (Some(m1), Some(m2)) = (set.map(1), set.map(2)) {
                if m1.cursor == m2.cursor {
                    assert_eq!(m1.arr.head(), m2.arr.head());
                }
            }
        }
    });
}

/// Conjunctive bit-vector plans equal naive evaluation for any pair of
/// predicates.
#[test]
fn conjunctive_plans_correct() {
    cases(0xC0171, |rng| {
        let a = vec_of(rng, 0, 40, 2, 80);
        let n = a.len();
        let b: Vec<Val> = a.iter().map(|v| (v * 7 + 3) % 40).collect();
        let d: Vec<Val> = (0..n as Val).collect();
        let t = table(vec![a.clone(), b.clone(), d]);
        let mut set = MapSet::new(0, n, HashSet::new());
        let nq = rng.gen_range(1usize..10);
        for _ in 0..nq {
            let ap = pred(rng.gen_range(0i64..40), rng.gen_range(0i64..20));
            let bp = pred(rng.gen_range(0i64..40), rng.gen_range(0i64..20));
            let area = set.select_maps(&t, &[1, 2], &ap);
            let bv = set.create_bv(1, area, &bp);
            let mut got = Vec::new();
            set.view_block(2, area, Some(&bv)).append_to(&mut got);
            got.sort_unstable();
            let mut expected: Vec<Val> = (0..n)
                .filter(|&i| ap.matches(a[i]) && bp.matches(b[i]))
                .map(|i| i as Val)
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected);
        }
    });
}

/// Partial maps under any budget answer exactly like a naive scan, and
/// never exceed the budget by more than one in-flight area fetch per
/// touched map.
#[test]
fn partial_maps_budget_correct() {
    cases(0xB4D6E7, |rng| {
        let a = vec_of(rng, 0, 50, 4, 120);
        let n = a.len();
        let budget_frac = rng.gen_range(1usize..4);
        let cols: Vec<Vec<Val>> = (0..4)
            .map(|c| {
                if c == 0 {
                    a.clone()
                } else {
                    (0..n as Val).map(|i| i + 1000 * c as Val).collect()
                }
            })
            .collect();
        let t = table(cols);
        let budget = (n * budget_frac).max(4);
        let mut set = PartialSet::new(0);
        set.budget = Some(budget);
        let nq = rng.gen_range(1usize..20);
        for _ in 0..nq {
            let p = pred(rng.gen_range(0i64..50), rng.gen_range(0i64..25));
            let attr = 1 + rng.gen_range(0usize..3);
            let mut got = Vec::new();
            set.select_project_blocks(&t, &p, &[attr], |b| b.append_to(&mut got));
            got.sort_unstable();
            let mut expected: Vec<Val> = (0..n)
                .filter(|&i| p.matches(a[i]))
                .map(|i| t.column(attr).get(i as u32))
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected);
            assert!(
                set.usage() <= budget + 3 * n,
                "usage {} far exceeds budget {}",
                set.usage(),
                budget
            );
        }
    });
}

/// Eviction round-trip property: a partial set with a tiny budget — so
/// chunks are constantly dropped, recreated from the base and their
/// areas un-merged — answers bit-for-bit like a never-evicted set and a
/// naive scan, and `usage() <= budget` holds *exactly* after every
/// query.
#[test]
fn evicted_partial_sets_match_never_evicted() {
    let (mut dropped, mut recreated) = (0, 0);
    cases(0x5B111ED, |rng| {
        let a = vec_of(rng, 0, 50, 8, 120);
        let n = a.len();
        let cols: Vec<Vec<Val>> = (0..4)
            .map(|c| {
                if c == 0 {
                    a.clone()
                } else {
                    (0..n as Val).map(|i| i * 13 + 1000 * c as Val).collect()
                }
            })
            .collect();
        let t = table(cols);
        let budget = (n / rng.gen_range(3usize..8)).max(8);
        let mut cold = PartialSet::new(0);
        cold.budget = Some(budget);
        let mut hot = PartialSet::new(0);
        let nq = rng.gen_range(4usize..20);
        for _ in 0..nq {
            let p = pred(rng.gen_range(0i64..50), rng.gen_range(0i64..25));
            let attr = 1 + rng.gen_range(0usize..3);
            let mut got_cold = Vec::new();
            cold.select_project_blocks(&t, &p, &[attr], |b| b.append_to(&mut got_cold));
            let mut got_hot = Vec::new();
            hot.select_project_blocks(&t, &p, &[attr], |b| b.append_to(&mut got_hot));
            got_cold.sort_unstable();
            got_hot.sort_unstable();
            assert_eq!(
                got_cold, got_hot,
                "evicted answers drift from never-evicted"
            );
            let mut expected: Vec<Val> = (0..n)
                .filter(|&i| p.matches(a[i]))
                .map(|i| t.column(attr).get(i as u32))
                .collect();
            expected.sort_unstable();
            assert_eq!(got_cold, expected, "evicted answers drift from scan");
            assert!(
                cold.usage() <= budget,
                "usage {} exceeds budget {} exactly after a query",
                cold.usage(),
                budget
            );
            assert_eq!(cold.check_invariants(), Ok(()));
            assert_eq!(hot.check_invariants(), Ok(()));
        }
        dropped += cold.stats.chunks_dropped;
        recreated += cold.stats.chunks_created;
    });
    assert!(dropped > 0, "the tiny budgets must drop chunks");
    assert!(recreated > dropped, "dropped chunks must be recreated");
}

/// The §3.3 histogram estimate always brackets the true result size
/// between its lower and upper bounds.
#[test]
fn histogram_bounds_hold() {
    cases(0x415706, |rng| {
        let a = vec_of(rng, 0, 100, 2, 150);
        let n = a.len();
        let b: Vec<Val> = (0..n as Val).collect();
        let t = table(vec![a.clone(), b]);
        let mut set = MapSet::new(0, n, HashSet::new());
        let nq = rng.gen_range(1usize..10);
        for _ in 0..nq {
            set.sideways_select(
                &t,
                1,
                &pred(rng.gen_range(0i64..100), rng.gen_range(0i64..40)),
            );
        }
        let p = pred(rng.gen_range(0i64..100), rng.gen_range(0i64..40));
        let truth = a.iter().filter(|&&v| p.matches(v)).count();
        let m = set.map(1).expect("map created");
        let est = m.arr.index().estimate_size(&p, m.arr.len(), (0, 100));
        assert!(est.lower <= truth, "lower {} > truth {}", est.lower, truth);
        assert!(est.upper >= truth, "upper {} < truth {}", est.upper, truth);
        assert!(est.estimate >= est.lower as f64 - 1e-9);
        assert!(est.estimate <= est.upper as f64 + 1e-9);
    });
}
