//! Ripple updates (Idreos et al., SIGMOD 2007) against a reference:
//! `CrackedArray::{ripple_insert, ripple_delete, ripple_delete_at}`
//! walk only the boundaries between an update and the nearer end of the
//! array, and must leave exactly the state the straightforward
//! implementation leaves — the one that flattens the index into
//! `boundaries()` and updates one boundary at a time, in either
//! direction. Head and tail bytes, the front slack, boundary positions
//! and advisory status, the stale positions of lazily deleted
//! boundaries and every returned delete position are compared after
//! each op, because sibling structures replay these positions (tapes,
//! delete batches, area tapes) and must stay physically identical.
//!
//! Arrays start without front slack (deletes toward the front make
//! some), with a few slots (inserts soon use them up and fall back to
//! the back end) or with many.
//!
//! Columns carry duplicates, single values, negatives and the `Val`
//! extremes; they are cracked at query bounds, seeded with advisory
//! prepartition cuts, and some
//! carry lazily deleted boundaries — single marks, and whole-index
//! marks with partial revival, as a dropped partial-map chunk leaves
//! its shell.

use crackdb_columnstore::types::{Bound, RangePred, Val};
use crackdb_cracking::{BoundKind, BoundaryKey, CrackedArray, CrackerIndex};
use crackdb_rng::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;

type Tag = u32;

/// The reference: the ripple updates as first written, plus their
/// front-ward transcription, over the flattened boundary list with one
/// index update per shifted boundary. `head` and `tail` hold the tuples
/// only; `front` counts the free slots before them.
#[derive(Clone)]
struct Reference {
    head: Vec<Val>,
    tail: Vec<Tag>,
    index: CrackerIndex,
    front: usize,
}

impl Reference {
    fn of(arr: &CrackedArray<Tag>) -> Self {
        Reference {
            head: arr.head().to_vec(),
            tail: arr.tail().to_vec(),
            index: arr.index().clone(),
            front: arr.index().origin(),
        }
    }

    /// Toward the front iff fewer live boundaries lie below the update
    /// (the first `below` of `bs`) than above it.
    fn front_is_nearer(below: usize, bs: &[(BoundaryKey, usize)]) -> bool {
        below < bs.len() - below
    }

    /// Move a live boundary, keeping its query-mandated/advisory status.
    fn reposition(&mut self, key: BoundaryKey, pos: usize) {
        if self.index.is_advisory(key) {
            self.index.record_advisory(key, pos);
        } else {
            self.index.record(key, pos);
        }
    }

    fn piece_of(&self, v: Val) -> (usize, usize) {
        let mut s = 0;
        let mut e = self.head.len();
        for ((bv, kind), pos) in self.index.boundaries() {
            if kind.belongs_left(v, bv) {
                e = pos;
                break;
            }
            s = pos;
        }
        (s, e.max(s))
    }

    fn ripple_insert(&mut self, v: Val, t: Tag) {
        let bs = self.index.boundaries();
        let below = bs
            .iter()
            .take_while(|((bv, kind), _)| !kind.belongs_left(v, *bv));
        let below = below.count();
        if self.front > 0 && Self::front_is_nearer(below, &bs) {
            self.insert_front(v, t, below, &bs);
            return;
        }
        self.head.push(v);
        self.tail.push(t);
        let mut free = self.head.len() - 1;
        for &((bv, kind), pos) in bs.iter().rev() {
            if kind.belongs_left(v, bv) {
                self.head[free] = self.head[pos];
                self.tail[free] = self.tail[pos];
                free = pos;
                self.reposition((bv, kind), pos + 1);
            } else {
                break;
            }
        }
        self.head[free] = v;
        self.tail[free] = t;
    }

    /// The free slot just before the tuples joins the lowest piece;
    /// each piece below `v`'s hands its last tuple to the free slot
    /// before it, so the boundaries below keep their positions.
    fn insert_front(&mut self, v: Val, t: Tag, below: usize, bs: &[(BoundaryKey, usize)]) {
        self.head.insert(0, v);
        self.tail.insert(0, t);
        self.front -= 1;
        let mut free = 0;
        for &(_, pos) in &bs[..below] {
            // The piece left of this boundary now ends at `pos + 1`.
            self.head[free] = self.head[pos];
            self.tail[free] = self.tail[pos];
            free = pos;
        }
        for &(key, pos) in &bs[below..] {
            self.reposition(key, pos + 1);
        }
        self.head[free] = v;
        self.tail[free] = t;
    }

    fn ripple_delete<F: Fn(&Tag) -> bool>(&mut self, v: Val, matches: F) -> Option<usize> {
        let n = self.head.len();
        let bs = self.index.boundaries();
        let mut s = 0;
        let mut first_above = bs.len();
        for (i, &((bv, kind), pos)) in bs.iter().enumerate() {
            if kind.belongs_left(v, bv) {
                first_above = i;
                break;
            }
            s = pos;
        }
        let e = if first_above < bs.len() {
            bs[first_above].1
        } else {
            n
        };
        let p = (s..e).find(|&i| self.head[i] == v && matches(&self.tail[i]))?;
        self.close_hole(p, e, first_above, &bs);
        Some(p)
    }

    fn ripple_delete_at(&mut self, p: usize) -> (Val, Tag) {
        let removed = (self.head[p], self.tail[p]);
        let bs = self.index.boundaries();
        let first_above = bs.partition_point(|&(_, pos)| pos <= p);
        let e = if first_above < bs.len() {
            bs[first_above].1
        } else {
            self.head.len()
        };
        self.close_hole(p, e, first_above, &bs);
        removed
    }

    fn close_hole(
        &mut self,
        p: usize,
        piece_end: usize,
        first_above: usize,
        bs: &[(BoundaryKey, usize)],
    ) {
        if Self::front_is_nearer(first_above, bs) {
            self.shift_hole_down(p, first_above, bs);
        } else {
            self.shift_hole_up(p, piece_end, first_above, bs);
        }
    }

    /// Each piece from `p`'s down gives its first tuple to the hole
    /// after it, and the first tuple slot joins the front slack: the
    /// boundaries below keep their positions, those above move down.
    fn shift_hole_down(&mut self, p: usize, first_above: usize, bs: &[(BoundaryKey, usize)]) {
        let mut hole = p;
        for &(_, pos) in bs[..first_above].iter().rev() {
            if hole != pos {
                self.head[hole] = self.head[pos];
                self.tail[hole] = self.tail[pos];
            }
            hole = pos;
        }
        if hole != 0 {
            self.head[hole] = self.head[0];
            self.tail[hole] = self.tail[0];
        }
        self.head.remove(0);
        self.tail.remove(0);
        self.front += 1;
        for &(key, pos) in &bs[first_above..] {
            self.reposition(key, pos - 1);
        }
    }

    fn shift_hole_up(
        &mut self,
        p: usize,
        piece_end: usize,
        first_above: usize,
        bs: &[(BoundaryKey, usize)],
    ) {
        let n = self.head.len();
        let mut hole = p;
        let mut piece_end = piece_end;
        let mut bi = first_above;
        loop {
            if hole != piece_end - 1 {
                self.head[hole] = self.head[piece_end - 1];
                self.tail[hole] = self.tail[piece_end - 1];
            }
            hole = piece_end - 1;
            while bi < bs.len() && bs[bi].1 == piece_end {
                self.reposition(bs[bi].0, piece_end - 1);
                bi += 1;
            }
            if piece_end == n {
                break;
            }
            piece_end = if bi < bs.len() { bs[bi].1 } else { n };
        }
        assert_eq!(hole, n - 1);
        self.head.pop();
        self.tail.pop();
    }
}

/// Every piece holds only values between its two delimiting boundaries
/// — the same property as `check_partitioning`, in one pass.
fn assert_pieces_in_range(arr: &CrackedArray<Tag>) {
    let bs = arr.index().boundaries();
    let mut start = 0;
    for (i, &((bv, kind), pos)) in bs.iter().enumerate() {
        assert!(
            start <= pos && pos <= arr.len(),
            "boundary {i} out of order"
        );
        for &h in &arr.head()[start..pos] {
            assert!(kind.belongs_left(h, bv), "{h} left of {bv}/{kind:?}");
        }
        if let Some(&((pv, pkind), _)) = i.checked_sub(1).and_then(|j| bs.get(j)) {
            for &h in &arr.head()[start..pos] {
                assert!(!pkind.belongs_left(h, pv), "{h} right of {pv}/{pkind:?}");
            }
        }
        start = pos;
    }
    if let Some(&((bv, kind), _)) = bs.last() {
        for &h in &arr.head()[start..] {
            assert!(!kind.belongs_left(h, bv), "{h} right of {bv}/{kind:?}");
        }
    }
}

/// The ripple op just run on `arr` left the state `want` reached.
fn assert_same_state(arr: &CrackedArray<Tag>, want: &Reference, keys: &BTreeSet<BoundaryKey>) {
    assert_eq!(arr.head(), &want.head[..], "head");
    assert_eq!(arr.tail(), &want.tail[..], "tail");
    let idx = arr.index();
    assert_eq!(idx.origin(), want.front, "front slack");
    assert_eq!(
        idx.boundaries_with_status(),
        want.index.boundaries_with_status(),
        "boundaries"
    );
    assert_eq!(idx.total_nodes(), want.index.total_nodes(), "nodes");
    for &k in keys {
        assert_eq!(
            idx.position_any(k),
            want.index.position_any(k),
            "position of {k:?}, deleted nodes included"
        );
    }
    assert_eq!(idx.check_invariants(), Ok(()));
    assert_pieces_in_range(arr);
    if arr.len() <= 128 {
        arr.check_partitioning();
    }
}

/// How a case draws its values.
#[derive(Clone, Copy, Debug)]
enum Values {
    /// Few distinct values: many duplicates and empty pieces.
    Dense,
    /// All tuples equal.
    Constant(Val),
    /// A range straddling zero.
    Signed,
    /// A small range plus the `Val` extremes.
    Extremes,
}

impl Values {
    fn draw(self, rng: &mut StdRng) -> Val {
        match self {
            Values::Dense => rng.gen_range(0i64..12),
            Values::Constant(c) => c,
            Values::Signed => rng.gen_range(-60i64..=60),
            Values::Extremes => match rng.gen_range(0u32..10) {
                0 => Val::MIN,
                1 => Val::MAX,
                2 => Val::MIN + 1,
                3 => Val::MAX - 1,
                _ => rng.gen_range(-20i64..=20),
            },
        }
    }
}

/// A value near the array's current structure: on, just below or just
/// above a boundary value, a value the array holds, or a fresh draw
/// (extremes included, for extremes cases) — so updates land in every
/// piece, including the first and the last.
fn probe(rng: &mut StdRng, arr: &CrackedArray<Tag>, values: Values) -> Val {
    let bs = arr.index().boundaries();
    if !bs.is_empty() && rng.gen_bool(0.6) {
        let ((bv, _), _) = bs[rng.gen_range(0..bs.len())];
        return match rng.gen_range(0u32..3) {
            0 => bv.saturating_sub(1),
            1 => bv,
            _ => bv.saturating_add(1),
        };
    }
    if !arr.is_empty() && rng.gen_bool(0.3) {
        return arr.head()[rng.gen_range(0..arr.len())];
    }
    values.draw(rng)
}

/// A random predicate whose bounds sit near the array's values.
fn pred(rng: &mut StdRng, arr: &CrackedArray<Tag>, values: Values) -> RangePred {
    let a = probe(rng, arr, values);
    let b = probe(rng, arr, values);
    let (lo, hi) = (a.min(b), a.max(b));
    let bound = |value, rng: &mut StdRng| Bound {
        value,
        inclusive: rng.gen_bool(0.5),
    };
    match rng.gen_range(0u32..5) {
        0 => RangePred::less(bound(hi, rng)),
        1 => RangePred::greater(bound(lo, rng)),
        2 => RangePred::point(lo),
        _ => RangePred {
            lo: Some(bound(lo, rng)),
            hi: Some(bound(hi, rng)),
        },
    }
}

const CASES: u64 = 200;
const RIPPLE_OPS: usize = 520;

/// What the ripple ops of a run met, so the test fails if the generator
/// stops reaching a shape.
#[derive(Debug, Default)]
struct Coverage {
    /// Ops on an index holding lazily deleted nodes.
    shells: usize,
    /// Ops on an index holding advisory boundaries.
    advisory: usize,
    /// Ops with boundaries at position 0 and at the array end.
    at_zero: usize,
    at_end: usize,
    /// Ops where two boundaries share a position (an empty piece).
    empty_pieces: usize,
    /// Value deletes that found no tuple.
    missing: usize,
    /// Most live boundaries an op ran against.
    max_boundaries: usize,
    /// Ops that rippled toward the front.
    front: usize,
    /// Inserts that would have rippled toward the front but found no
    /// free slot there.
    fallbacks: usize,
}

impl Coverage {
    fn note(&mut self, arr: &CrackedArray<Tag>) {
        let idx = arr.index();
        let bs = idx.boundaries();
        self.shells += usize::from(idx.total_nodes() > idx.len());
        self.advisory += usize::from(idx.advisory_count() > 0);
        self.at_zero += usize::from(bs.first().is_some_and(|&(_, p)| p == 0));
        self.at_end += usize::from(bs.last().is_some_and(|&(_, p)| p == arr.len()));
        self.empty_pieces += usize::from(bs.windows(2).any(|w| w[0].1 == w[1].1));
        self.max_boundaries = self.max_boundaries.max(bs.len());
    }
}

fn run_case(case: u64, cov: &mut Coverage) {
    let mut rng = StdRng::seed_from_u64(0x21BB_1E00 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let values = match case % 4 {
        0 => Values::Dense,
        1 => Values::Signed,
        2 => Values::Extremes,
        _ if case % 8 == 3 => Values::Constant(rng.gen_range(-5i64..5)),
        _ => Values::Dense,
    };
    // Mostly small columns; every tenth holds more than 1,000 tuples.
    let len = if case % 10 == 9 {
        rng.gen_range(1_100usize..1_500)
    } else {
        rng.gen_range(0usize..120)
    };
    let front = match case % 5 {
        0 | 1 => 0,
        2 | 3 => rng.gen_range(1usize..4),
        _ => rng.gen_range(16usize..64),
    };
    let mut head = vec![0; front];
    head.extend((0..len).map(|_| values.draw(&mut rng)));
    let mut next_tag = len as Tag;
    let tail: Vec<Tag> = (0..front as Tag).chain(0..next_tag).collect();
    let mut arr = CrackedArray::from_parts(head, tail, CrackerIndex::with_origin(front));
    let lazy = case % 3 == 1;
    let mut keys: BTreeSet<BoundaryKey> = BTreeSet::new();

    let mut ripples = 0;
    while ripples < RIPPLE_OPS {
        match rng.gen_range(0u32..20) {
            // Crack: new boundaries, possibly reviving deleted ones.
            0..=2 => {
                let p = pred(&mut rng, &arr, values);
                arr.crack_range(&p);
            }
            // Advisory cuts from an explicit prepartition.
            3 if rng.gen_bool(0.3) => {
                let key = (probe(&mut rng, &arr, values), BoundKind::Lt);
                arr.prepartition(key, rng.gen_range(2usize..24));
            }
            // Lazily deleted boundaries.
            4 if lazy => {
                let bs = arr.index().boundaries();
                if rng.gen_bool(0.25) {
                    // A dropped chunk's shell, partly revived with the
                    // positions its boundaries still hold.
                    arr.index_mut().mark_all_deleted();
                    for &(key, pos) in bs.iter().filter(|_| rng.gen_bool(0.4)) {
                        arr.index_mut().record(key, pos);
                    }
                } else if !bs.is_empty() {
                    let (key, _) = bs[rng.gen_range(0..bs.len())];
                    arr.index_mut().mark_deleted(key);
                }
            }
            _ => {
                cov.note(&arr);
                ripple_step(&mut rng, &mut arr, values, &mut next_tag, &keys, cov);
                ripples += 1;
            }
        }
        keys.extend(arr.index().boundaries().into_iter().map(|(k, _)| k));
    }
}

/// One ripple op on `arr` and on the reference copy of its state, then
/// the comparison. A value delete first compares the piece lookup.
fn ripple_step(
    rng: &mut StdRng,
    arr: &mut CrackedArray<Tag>,
    values: Values,
    next_tag: &mut Tag,
    keys: &BTreeSet<BoundaryKey>,
    cov: &mut Coverage,
) {
    let mut want = Reference::of(arr);
    let (touched, origin) = (arr.touched(), arr.index().origin());
    let op = if arr.is_empty() {
        0
    } else {
        rng.gen_range(0u32..3)
    };
    match op {
        0 => {
            let v = probe(rng, arr, values);
            let bs = arr.index().boundaries();
            let below = bs
                .iter()
                .filter(|((bv, kind), _)| !kind.belongs_left(v, *bv));
            let nearer = Reference::front_is_nearer(below.count(), &bs);
            cov.fallbacks += usize::from(nearer && arr.index().origin() == 0);
            arr.ripple_insert(v, *next_tag);
            want.ripple_insert(v, *next_tag);
            *next_tag += 1;
        }
        1 => {
            let v = probe(rng, arr, values);
            assert_eq!(arr.piece_of(v), want.piece_of(v), "piece of {v}");
            // A tuple that exists, any tuple with the value, or one
            // whose tag matches nothing (the value may be missing too).
            let tag = match arr.head().iter().position(|&h| h == v) {
                Some(i) if rng.gen_bool(0.6) => Some(arr.tail()[i]),
                _ if rng.gen_bool(0.5) => None,
                _ => Some(Tag::MAX),
            };
            let matches = |t: &Tag| tag.is_none_or(|want| *t == want);
            let got = arr.ripple_delete(v, matches);
            assert_eq!(got, want.ripple_delete(v, matches), "delete position");
            cov.missing += usize::from(got.is_none());
        }
        _ => {
            let p = rng.gen_range(0..arr.len());
            let got = arr.ripple_delete_at(p);
            assert_eq!(got, want.ripple_delete_at(p), "removed tuple");
        }
    }
    assert_eq!(arr.touched(), touched, "ripple touches no crack counter");
    cov.front += usize::from(arr.index().origin() != origin);
    assert_same_state(arr, &want, keys);
}

#[test]
fn ripple_updates_match_the_reference_bit_for_bit() {
    let mut cov = Coverage::default();
    for case in 0..CASES {
        run_case(case, &mut cov);
    }
    let ops = CASES as usize * RIPPLE_OPS;
    let floor = ops / 50;
    assert!(cov.shells > floor, "{cov:?}");
    assert!(cov.advisory > floor, "{cov:?}");
    assert!(cov.at_zero > floor, "{cov:?}");
    assert!(cov.at_end > floor, "{cov:?}");
    assert!(cov.empty_pieces > floor, "{cov:?}");
    assert!(cov.missing > floor, "{cov:?}");
    assert!(cov.max_boundaries >= 100, "{cov:?}");
    assert!(cov.front > floor, "{cov:?}");
    assert!(cov.fallbacks > floor / 10, "{cov:?}");
}

/// The shapes the walk must get right, spelled out: boundaries at 0 and
/// at the array end, several boundaries at one position (empty
/// pieces), deletes at the first and the last slot, and a lazily
/// deleted boundary whose stale position must not move — with and
/// without front slack.
#[test]
fn ripple_handles_edge_boundaries_and_shells() {
    for front in [0, 2, 9] {
        edge_boundaries_and_shells(front);
    }
}

fn edge_boundaries_and_shells(front: usize) {
    let mut head: Vec<Val> = vec![0; front];
    head.extend([5, 1, 9, 5, 3, 7, 5, 2]);
    let tail: Vec<Tag> = (0..(front + 8) as Tag).collect();
    let mut arr = CrackedArray::from_parts(head, tail, CrackerIndex::with_origin(front));
    arr.crack_range(&RangePred::closed(5, 5));
    arr.crack_range(&RangePred::less(Bound::exclusive(-1)));
    arr.crack_range(&RangePred::greater(Bound::exclusive(100)));
    arr.crack_range(&RangePred::open(5, 6));
    let keys: BTreeSet<BoundaryKey> = arr
        .index()
        .boundaries()
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    arr.index_mut().mark_deleted((5, BoundKind::Lt));
    let shell = arr.index().position_any((5, BoundKind::Lt));
    for (tag, v) in (100..).zip([Val::MIN, 5, 6, Val::MAX, 0, 100, 101]) {
        let mut want = Reference::of(&arr);
        arr.ripple_insert(v, tag);
        want.ripple_insert(v, tag);
        assert_same_state(&arr, &want, &keys);
    }
    for v in [101, 5, Val::MIN, 4, Val::MAX, 9] {
        let mut want = Reference::of(&arr);
        assert_eq!(
            arr.ripple_delete(v, |_| true),
            want.ripple_delete(v, |_| true)
        );
        assert_same_state(&arr, &want, &keys);
    }
    while !arr.is_empty() {
        let last = arr.len() - 1;
        let mut want = Reference::of(&arr);
        assert_eq!(arr.ripple_delete_at(last), want.ripple_delete_at(last));
        assert_same_state(&arr, &want, &keys);
        if arr.len() > 2 {
            let mut want = Reference::of(&arr);
            assert_eq!(arr.ripple_delete_at(0), want.ripple_delete_at(0));
            assert_same_state(&arr, &want, &keys);
        }
    }
    assert_eq!(arr.index().position_any((5, BoundKind::Lt)), shell);
    assert!(arr.index().boundaries().iter().all(|&(_, pos)| pos == 0));
}
