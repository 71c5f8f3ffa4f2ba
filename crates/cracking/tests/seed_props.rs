//! Seeded-PRNG bit-identity properties of the fused first touch.
//!
//! `CrackedArray::seeded` with a `SeedPlan` promises *exactly* the state
//! that copying the live rows and prepartitioning the copy produces:
//! same head and tail order, same boundaries at the same positions with
//! the same mandated/advisory status, same `touched`. Everything after
//! the first touch then runs on identical state, which is why the fused
//! path needs no case of its own anywhere downstream.
//!
//! Two layers are pinned:
//!
//! * the clustering itself, on small arrays, through the unconditional
//!   `SeedPlan::with_target` against `new` + `prepartition`;
//! * the decision to fuse, at lengths straddling
//!   `PREPARTITION_MIN_PIECE`, through `SeedPlan::new` + the first
//!   crack against `new` + the same crack.
//!
//! All trials are driven by a fixed-seed LCG so failures replay.

use crackdb_columnstore::column::insert_headroom;
use crackdb_columnstore::types::{Bound, RangePred, RowId, Val};
use crackdb_cracking::cracked::PREPARTITION_MIN_PIECE;
use crackdb_cracking::index::pred_keys;
use crackdb_cracking::{BoundKind, BoundaryKey, CrackedArray, SeedPlan};

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
}

/// Everything observable about a cracked array.
type State<T> = (Vec<Val>, Vec<T>, Vec<(BoundaryKey, usize, bool)>, u64);

fn state<T: Copy>(a: &CrackedArray<T>) -> State<T> {
    let boundaries = a.index().boundaries_with_status();
    (
        a.head().to_vec(),
        a.tail().to_vec(),
        boundaries,
        a.touched(),
    )
}

/// The reference seed: copy the live rows, element by element.
fn copy_live<T: Copy>(head: &[Val], tail: &[T], excluded: &[RowId]) -> CrackedArray<T> {
    let live = |i: &usize| excluded.binary_search(&(*i as RowId)).is_err();
    let h = (0..head.len()).filter(live).map(|i| head[i]).collect();
    let t = (0..head.len()).filter(live).map(|i| tail[i]).collect();
    CrackedArray::new(h, t)
}

/// Sorted, duplicate-free exclusion lists of the three shapes.
fn exclusions(rng: &mut Lcg, n: usize, shape: usize) -> Vec<RowId> {
    match shape {
        0 => Vec::new(),
        // Sparse: a handful of rows, first and last included.
        1 => {
            let mut x: Vec<RowId> = (0..5).map(|_| rng.below(n) as RowId).collect();
            x.extend([0, n.saturating_sub(1) as RowId]);
            x.retain(|&k| (k as usize) < n);
            x.sort_unstable();
            x.dedup();
            x
        }
        // Dense: about every other row, in runs of random length.
        _ => (0..n as RowId).filter(|_| rng.below(2) == 0).collect(),
    }
}

fn column(rng: &mut Lcg, n: usize, kind: usize) -> Vec<Val> {
    (0..n)
        .map(|i| match kind {
            0 => rng.below(10_000) as Val,        // uniform
            1 => 77,                              // all equal
            2 => rng.below(3) as Val,             // range < buckets
            3 => rng.below(2_000) as Val - 1_000, // negative
            // Full domain, extremes included: the i128 fallback.
            _ => match i {
                0 => Val::MIN,
                1 => Val::MAX,
                _ => (rng.next() << 11 | rng.next() >> 42) as Val,
            },
        })
        .collect()
}

/// The headroom a map set's structures seed with.
fn headroom(head: &[Val], excluded: &[RowId]) -> usize {
    insert_headroom(head.len() - excluded.len())
}

/// `with_target` + `seeded` against `new` + `prepartition`, one tail type.
fn check_clustering<T: Copy + Default + PartialEq + std::fmt::Debug>(
    head: &[Val],
    tail: &[T],
    excluded: &[RowId],
    key: BoundaryKey,
    target: usize,
    ctx: &str,
) -> Vec<(BoundaryKey, usize, bool)> {
    let mut reference = copy_live(head, tail, excluded);
    reference.prepartition(key, target);
    let plan = SeedPlan::with_target(head, excluded, key, target);
    let fused = CrackedArray::seeded(
        head,
        &[tail],
        excluded,
        plan.as_ref(),
        headroom(head, excluded),
    );
    assert_eq!(state(&fused), state(&reference), "{ctx}");
    // No plan means the prepartition had nothing to cut.
    assert_eq!(plan.is_none(), reference.index().is_empty(), "{ctx}");
    fused.check_partitioning();
    state(&fused).2
}

#[test]
fn clustered_seed_is_bit_identical_to_copy_then_prepartition() {
    let mut rng = Lcg(0x5EED_CAFE);
    for case in 0..180 {
        let n = [0usize, 1, 2, 97, 1_000, 4_099][case % 6];
        let kind = (case / 6) % 5;
        let shape = (case / 30) % 3;
        let head = column(&mut rng, n, kind);
        let vals: Vec<Val> = head.iter().map(|v| v.wrapping_mul(31)).collect();
        let keys: Vec<RowId> = (0..n as RowId).collect();
        let excluded = exclusions(&mut rng, n, shape);
        // 1..=16 buckets wanted; `range < buckets` caps it further.
        let target = (n / (1 + rng.below(16))).max(1);
        let key: BoundaryKey = (
            head.get(rng.below(n)).copied().unwrap_or(0),
            [BoundKind::Lt, BoundKind::Le][case % 2],
        );
        let ctx = format!("case {case}: n={n} kind={kind} shape={shape} target={target}");
        let cuts = check_clustering(&head, &vals, &excluded, key, target, &ctx);
        check_clustering(&head, &keys, &excluded, key, target, &ctx);

        // Promote-on-coincidence: ask for a boundary a cut lands on.
        if let Some(&(cut, _, advisory)) = cuts.first() {
            assert!(advisory || cut == key, "{ctx}: cuts are advisory");
            let again = check_clustering(&head, &vals, &excluded, cut, target, &ctx);
            check_clustering(&head, &keys, &excluded, cut, target, &ctx);
            assert_eq!(again[0], (cut, cuts[0].1, false), "{ctx}: promoted");
            assert!(again[1..].iter().all(|&(_, _, adv)| adv), "{ctx}");
        }
    }
}

/// One decision trial: plan + seed + first crack (+ a second one)
/// against copy + the same cracks. Returns whether the plan fired.
fn check_first_crack(head: &[Val], excluded: &[RowId], pred: &RangePred, ctx: &str) -> bool {
    let keys: Vec<RowId> = (0..head.len() as RowId).collect();
    let plan = SeedPlan::new(head, excluded, pred);
    let mut fused = CrackedArray::seeded(
        head,
        &[&keys],
        excluded,
        plan.as_ref(),
        headroom(head, excluded),
    );
    let mut reference = copy_live(head, &keys, excluded);
    let range = fused.crack_range(pred);
    assert_eq!(range, reference.crack_range(pred), "{ctx}: range");
    assert_eq!(
        state(&fused),
        state(&reference),
        "{ctx}: after the first crack"
    );
    let next = RangePred::open(pred.lo.map_or(5, |b| b.value) + 1_000, Val::MAX / 2);
    fused.crack_range(&next);
    reference.crack_range(&next);
    assert_eq!(
        state(&fused),
        state(&reference),
        "{ctx}: after the second crack"
    );
    plan.is_some()
}

#[test]
fn fusing_decision_straddles_the_prepartition_threshold() {
    let mut rng = Lcg(0xFEED_5EED);
    // Three excluded rows, so source and array lengths differ.
    let source = column(&mut rng, PREPARTITION_MIN_PIECE + 4, 0)
        .into_iter()
        .map(|v| v * 977 % 1_000_003)
        .collect::<Vec<Val>>();
    let two_sided = RangePred::open(40_000, 90_000);
    for live in [
        PREPARTITION_MIN_PIECE - 1,
        PREPARTITION_MIN_PIECE,
        PREPARTITION_MIN_PIECE + 1,
    ] {
        let head = &source[..live + 3];
        let excluded = [0, 17, live as RowId + 2];
        let ctx = format!("live={live}");
        let fired = check_first_crack(head, &excluded, &two_sided, &ctx);
        assert_eq!(fired, live >= PREPARTITION_MIN_PIECE, "{ctx}: fused");
    }
    // Which bound opens the crack, and the cracks that have none.
    let head = &source[..PREPARTITION_MIN_PIECE + 1];
    for (pred, bounded) in [
        (RangePred::greater(Bound::inclusive(500_000)), true),
        (RangePred::less(Bound::exclusive(3)), true),
        (RangePred::point(source[9]), true),
        (RangePred::all(), false),
        (RangePred::open(7, 7), false),
    ] {
        let ctx = format!("pred={pred:?}");
        let fired = check_first_crack(head, &[], &pred, &ctx);
        assert_eq!(fired, bounded, "{ctx}: fused");
    }
}

/// Only the bound that opens the crack is promoted when a cut lands on
/// it; a cut under the other bound stays advisory until the crack gets
/// there — whichever way the reference treats it, the fused seed must
/// agree.
#[test]
fn bounds_coinciding_with_cuts_promote_like_the_reference() {
    let mut rng = Lcg(0xD1CE);
    let head = column(&mut rng, PREPARTITION_MIN_PIECE, 0);
    let keys: Vec<RowId> = (0..head.len() as RowId).collect();
    let any = (0, BoundKind::Lt);
    let plan = SeedPlan::with_target(&head, &[], any, 1 << 16);
    let cuts = state(&CrackedArray::seeded(
        &head,
        &[&keys],
        &[],
        plan.as_ref(),
        headroom(&head, &[]),
    ))
    .2;
    let (a, b) = (cuts[3].0 .0, cuts[9].0 .0);
    for pred in [
        RangePred::half_open(a, b),     // both bounds on cuts
        RangePred::half_open(a, b + 5), // lo only
        RangePred::half_open(a + 1, b), // hi only
        RangePred::less(Bound::exclusive(b)),
        RangePred::greater(Bound::inclusive(a)),
    ] {
        let ctx = format!("pred={pred:?}");
        let fired = check_first_crack(&head, &[], &pred, &ctx);
        assert!(fired, "{ctx}");
    }
}

/// The chunk map opens with `ensure_boundary` at each of the
/// predicate's keys in turn instead of `crack_range`.
#[test]
fn fused_seed_is_identical_under_key_by_key_cracking() {
    let mut rng = Lcg(0xC0FFEE);
    let head = column(&mut rng, PREPARTITION_MIN_PIECE, 3);
    let keys: Vec<RowId> = (0..head.len() as RowId).collect();
    let pred = RangePred::closed(-250, 125);
    let plan = SeedPlan::new(&head, &[], &pred);
    assert!(plan.is_some());
    let mut fused = CrackedArray::seeded(&head, &[&keys], &[], plan.as_ref(), headroom(&head, &[]));
    let mut reference = CrackedArray::new(head.clone(), keys.clone());
    let (lo, hi) = pred_keys(&pred);
    for key in [lo, hi].into_iter().flatten() {
        let at = fused.ensure_boundary(key);
        assert_eq!(at, reference.ensure_boundary(key));
        assert_eq!(state(&fused), state(&reference), "at {key:?}");
    }
}

/// A first prepartition that would leave a bucket big enough to be
/// prepartitioned again is left to the crack itself: the seed stays a
/// plain copy, so the crack's own sequence of prepartitions is kept.
#[test]
fn skewed_column_is_not_fused() {
    let mut rng = Lcg(0xBADC0DE);
    let n = 2 * PREPARTITION_MIN_PIECE + 4_096;
    // All but 4,096 values in [0, 100); the rest spread to 10^9.
    let head: Vec<Val> = (0..n)
        .map(|i| {
            if i % 512 == 0 {
                rng.below(1_000_000_000) as Val
            } else {
                rng.below(100) as Val
            }
        })
        .collect();
    let pred = RangePred::open(10, 60);
    assert!(SeedPlan::new(&head, &[], &pred).is_none());
    // The unconditional plan exists; it is the re-fire rule that declined.
    let (lo, _) = pred_keys(&pred);
    assert!(SeedPlan::with_target(&head, &[], lo.unwrap(), 1 << 16).is_some());
    assert!(!check_first_crack(&head, &[], &pred, "skewed"));
}

/// The key-tail seed (`seeded_keys`) writes what `seeded` does with the
/// identity column as its tail: plans from `with_target` at small sizes
/// and no plan, with and without exclusion lists, with and without
/// headroom.
#[test]
fn key_tail_seed_equals_the_identity_tail() {
    let mut rng = Lcg(0x4B45_5953);
    let mut scattered = 0;
    for case in 0..360 {
        let n = [0usize, 1, 2, 97, 1_000, 4_099][case % 6];
        let kind = (case / 6) % 5;
        let shape = (case / 30) % 3;
        let planned = (case / 90) % 2 == 0;
        let spare = [0, 1 + rng.below(100)][(case / 180) % 2];
        let head = column(&mut rng, n, kind);
        let keys: Vec<RowId> = (0..n as RowId).collect();
        let excluded = exclusions(&mut rng, n, shape);
        let target = (n / (1 + rng.below(16))).max(1);
        let key = (head.get(rng.below(n)).copied().unwrap_or(0), BoundKind::Le);
        let plan = SeedPlan::with_target(&head, &excluded, key, target).filter(|_| planned);
        let ctx =
            format!("case {case}: n={n} kind={kind} shape={shape} plan={planned} spare={spare}");
        let direct = CrackedArray::seeded_keys(&head, &excluded, plan.as_ref(), spare);
        let identity = CrackedArray::seeded(&head, &[&keys], &excluded, plan.as_ref(), spare);
        assert_eq!(state(&direct), state(&identity), "{ctx}");
        assert_eq!(direct.index().origin(), identity.index().origin(), "{ctx}");
        assert_eq!(direct.index().origin(), spare, "{ctx}");
        direct.check_partitioning();
        scattered += usize::from(plan.is_some());
    }
    assert!(scattered > 60, "only {scattered} cases ran a plan");
}
