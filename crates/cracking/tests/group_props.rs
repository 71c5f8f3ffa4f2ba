//! A map group is `k` maps: a `CrackedArray` with `k` tail columns must
//! stay byte-identical to `k` one-tail arrays over the same head that
//! are fed the same operations — the head, every tail, every boundary's
//! position and advisory status, the front slack and the touched count
//! after every op, and every delete position an op returns. This is
//! what lets a map set keep maps that queries use together as one group
//! while siblings replay the positions it records (tapes, delete
//! batches).
//!
//! Streams are seeded random, for `k` = 1..4. Each starts from
//! `CrackedArray::seeded` (plain copy or through a `SeedPlan`, with and
//! without exclusions, with little or much front slack) and runs cracks
//! (two-way, three-way and explicit prepartitions), ripple inserts
//! (front-ward into the slack, past it once it is used up, back-ward)
//! and ripple deletes (by value and at a position). One stream is big
//! enough that its first crack prepartitions the whole array itself.

use crackdb_columnstore::types::{Bound, RangePred, RowId, Val};
use crackdb_cracking::cracked::PREPARTITION_MIN_PIECE;
use crackdb_cracking::{BoundKind, CrackedArray, SeedPlan};
use crackdb_rng::{rngs::StdRng, Rng, SeedableRng};

/// Tail `c` of row `key`: distinct per row, so a delete by value finds
/// the same row in every array.
fn tail_value(key: usize, c: usize) -> Val {
    key as Val * 8 + c as Val
}

/// A `k`-tail group and the `k` one-tail arrays it stands for.
struct Case {
    group: CrackedArray<Val>,
    singles: Vec<CrackedArray<Val>>,
    next_key: usize,
}

impl Case {
    fn seeded(
        head: &[Val],
        k: usize,
        excluded: &[RowId],
        plan: Option<&SeedPlan>,
        headroom: usize,
    ) -> Self {
        let tails: Vec<Vec<Val>> = (0..k)
            .map(|c| (0..head.len()).map(|key| tail_value(key, c)).collect())
            .collect();
        let refs: Vec<&[Val]> = tails.iter().map(Vec::as_slice).collect();
        Case {
            group: CrackedArray::seeded(head, &refs, excluded, plan, headroom),
            singles: refs
                .iter()
                .map(|t| CrackedArray::seeded(head, &[t], excluded, plan, headroom))
                .collect(),
            next_key: head.len(),
        }
    }

    /// Panic unless the group and the singles are identical.
    fn check(&self, ctx: &str) {
        let g = &self.group;
        assert_eq!(g.width(), self.singles.len(), "{ctx}: width");
        assert_eq!(g.check_invariants(), Ok(()), "{ctx}");
        for (c, s) in self.singles.iter().enumerate() {
            assert!(g.head() == s.head(), "{ctx}: head differs from single {c}");
            assert!(g.tail_at(c) == s.tail(), "{ctx}: tail {c} differs");
            assert_eq!(
                g.index().boundaries_with_status(),
                s.index().boundaries_with_status(),
                "{ctx}: index differs from single {c}"
            );
            assert_eq!(g.index().origin(), s.index().origin(), "{ctx}: origin {c}");
            assert_eq!(g.touched(), s.touched(), "{ctx}: touched {c}");
        }
    }

    fn crack(&mut self, pred: &RangePred) {
        let want = self.group.crack_range(pred);
        for s in &mut self.singles {
            assert_eq!(s.crack_range(pred), want, "area of {pred:?}");
        }
    }

    fn prepartition(&mut self, v: Val, target: usize) {
        self.group.prepartition((v, BoundKind::Lt), target);
        for s in &mut self.singles {
            s.prepartition((v, BoundKind::Lt), target);
        }
    }

    fn insert(&mut self, v: Val) {
        let key = self.next_key;
        self.next_key += 1;
        let row: Vec<Val> = (0..self.singles.len())
            .map(|c| tail_value(key, c))
            .collect();
        self.group.ripple_insert_row(v, &row);
        for (s, &t) in self.singles.iter_mut().zip(&row) {
            s.ripple_insert(v, t);
        }
    }

    /// Delete by value row `key` (none: a row that does not exist), if
    /// `v` is its head value.
    fn delete(&mut self, v: Val, key: Option<usize>) {
        let is = |c| move |&x: &Val| key.is_some_and(|key| x == tail_value(key, c));
        let want = self.group.ripple_delete(v, is(0));
        for (c, s) in self.singles.iter_mut().enumerate() {
            let got = s.ripple_delete(v, is(c));
            assert_eq!(got, want, "delete position of ({v}, {key:?}) in single {c}");
        }
    }

    fn delete_at(&mut self, p: usize) {
        let want = self.group.ripple_delete_at(p);
        for s in &mut self.singles {
            assert_eq!(s.ripple_delete_at(p).0, want.0, "head removed at {p}");
        }
    }
}

/// One random op on `case`, values drawn from `0..domain`.
fn step(case: &mut Case, rng: &mut StdRng, domain: Val) {
    let v = |rng: &mut StdRng| rng.gen_range(-2..domain + 2);
    match rng.gen_range(0..10) {
        0..=1 => {
            let lo = v(rng);
            let hi = lo + rng.gen_range(0..domain / 4 + 1);
            let pred = match rng.gen_range(0..4) {
                0 => RangePred::open(lo, hi),
                1 => RangePred::closed(lo, hi),
                2 => RangePred::less(Bound::exclusive(lo)),
                _ => RangePred::greater(Bound::inclusive(hi)),
            };
            case.crack(&pred);
        }
        2 => case.prepartition(v(rng), rng.gen_range(2..64)),
        // Low values sit below most boundaries: front-ward while the
        // front slack lasts, back-ward after it is used up.
        3..=4 => case.insert(rng.gen_range(-2..domain / 8 + 1)),
        5 => case.insert(v(rng)),
        6..=7 if !case.group.is_empty() => {
            let i = rng.gen_range(0..case.group.len());
            let (h, t) = (case.group.head()[i], case.group.tail()[i]);
            case.delete(h, Some(t as usize / 8));
        }
        8 if !case.group.is_empty() => case.delete_at(rng.gen_range(0..case.group.len())),
        _ => case.delete(v(rng), None), // no such row: nothing moves
    }
}

#[test]
fn a_group_is_its_maps() {
    let mut rng = StdRng::seed_from_u64(0x6_40);
    // Ops that took the front slack, and ops after it ran out.
    let (mut front, mut past) = (0, 0);
    for trial in 0..48 {
        let k = 1 + trial % 4;
        let n = rng.gen_range(0..600);
        let domain: Val = [3, 50, 1_000][trial % 3];
        let head: Vec<Val> = (0..n).map(|_| rng.gen_range(0..domain)).collect();
        let mut excluded: Vec<RowId> = (0..n as RowId)
            .filter(|_| rng.gen_range(0..8) == 0)
            .collect();
        if trial % 2 == 0 {
            excluded.clear();
        }
        let key = (rng.gen_range(0..domain), BoundKind::Lt);
        let plan = match trial % 3 {
            0 => None,
            _ => SeedPlan::with_target(&head, &excluded, key, rng.gen_range(4..40)),
        };
        let headroom = [0, 3, 40][trial / 3 % 3];
        let mut case = Case::seeded(&head, k, &excluded, plan.as_ref(), headroom);
        case.check(&format!("trial {trial} seed"));
        for op in 0..120 {
            let origin = case.group.index().origin();
            step(&mut case, &mut rng, domain);
            case.check(&format!("trial {trial} (k = {k}) op {op}"));
            front += usize::from(case.group.index().origin() < origin);
            past += usize::from(headroom > 0 && origin == 0);
        }
    }
    assert!(
        front > 100 && past > 100,
        "front-ward {front}, past the slack {past}"
    );
}

/// A first crack that prepartitions a virgin array by itself, seeded as
/// a plain copy, and one whose seed carries the same cuts already.
#[test]
fn prepartitioning_cracks_move_every_tail() {
    let n = PREPARTITION_MIN_PIECE + 500;
    let mut rng = StdRng::seed_from_u64(0x6_41);
    let domain = 1 << 22;
    let head: Vec<Val> = (0..n).map(|_| rng.gen_range(0..domain)).collect();
    let excluded: Vec<RowId> = vec![5, 77, 1_000];
    let first = RangePred::open(domain / 3, domain / 3 + 5_000);
    let plan = SeedPlan::new(&head, &excluded, &first);
    assert!(plan.is_some(), "a 1M-row array prepartitions");
    for (ctx, plan) in [("copied", None), ("planned", plan.as_ref())] {
        let mut case = Case::seeded(&head, 2, &excluded, plan, 16);
        case.crack(&first);
        assert!(case.group.index().advisory_count() > 1, "{ctx}: cuts");
        case.check(ctx);
        for op in 0..30 {
            step(&mut case, &mut rng, domain);
            case.check(&format!("{ctx} op {op}"));
        }
    }
}
