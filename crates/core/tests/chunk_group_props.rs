//! A chunk group is `k` chunks: a `k`-tail [`Chunk`] replaying an area
//! tape must stay byte-identical to `k` one-tail chunks of the same area
//! replaying the same tape — the head, the index (every boundary's
//! position and advisory status, the front slack) and every tail after
//! every entry. This is what lets a partial set keep the chunks one
//! query uses in an area as one group and apply each tape entry once.
//!
//! Streams are seeded random, for `k` = 1..4. Each area starts from a
//! random subset of a base table's rows in random order, as a chunk-map
//! area does, and its tape holds cracks of every predicate shape, §3.5
//! inserts of rows appended to the base, and deletes at the positions an
//! area resolver (the area's `(head, key)` pairs replaying the same
//! tape) hands out. The resolver's keys also say which base row every
//! slot holds, so each tail is checked against the base too. One area
//! is big enough that its first crack prepartitions it.

use crackdb_columnstore::column::{Column, Table};
use crackdb_columnstore::types::{Bound, RangePred, RowId, Val};
use crackdb_core::{AreaEntry, Chunk};
use crackdb_cracking::cracked::PREPARTITION_MIN_PIECE;
use crackdb_cracking::CrackedArray;
use crackdb_rng::{rngs::StdRng, Rng, SeedableRng};

/// Tail `c` (attribute `c + 1`) of row `key`: distinct per row.
fn tail_value(key: usize, c: usize) -> Val {
    key as Val * 8 + c as Val
}

/// A base table, one area of it as a `k`-tail group and as `k` one-tail
/// chunks, and the area's resolver.
struct Area {
    base: Table,
    group: Chunk,
    singles: Vec<Chunk>,
    resolver: CrackedArray<RowId>,
    tape: Vec<AreaEntry>,
}

impl Area {
    fn new(rng: &mut StdRng, rows: usize, k: usize, domain: Val) -> Self {
        let mut base = Table::new();
        let head: Vec<Val> = (0..rows).map(|_| rng.gen_range(0..domain)).collect();
        base.add_column("a0", Column::new(head));
        for c in 0..k {
            let tail = (0..rows).map(|key| tail_value(key, c)).collect();
            base.add_column(format!("a{}", c + 1), Column::new(tail));
        }
        let mut keys: Vec<RowId> = (0..rows as RowId)
            .filter(|_| rng.gen_range(0..4) > 0)
            .collect();
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.gen_range(0..=i));
        }
        let heads: Vec<Val> = keys.iter().map(|&key| base.column(0).get(key)).collect();
        let attrs: Vec<usize> = (1..=k).collect();
        let group = Chunk::gather(attrs.clone(), (&heads, &keys), &base, None);
        let singles = attrs
            .iter()
            .map(|&a| Chunk::gather(vec![a], (&heads, &keys), &base, None))
            .collect();
        Area {
            base,
            group,
            singles,
            resolver: CrackedArray::new(heads, keys),
            tape: Vec::new(),
        }
    }

    /// Log `entry` and replay it everywhere.
    fn push(&mut self, entry: AreaEntry) {
        if let AreaEntry::Crack(pred) = entry {
            self.resolver.crack_range(&pred);
        }
        self.tape.push(entry);
        let target = self.tape.len();
        assert_eq!(self.group.align_to(&self.tape, target, &self.base, 0), 1);
        for s in &mut self.singles {
            assert_eq!(s.align_to(&self.tape, target, &self.base, 0), 1);
        }
    }

    /// Append a row with head value `v` to the base and merge it.
    fn insert(&mut self, v: Val) {
        let key = self.base.num_rows();
        let row: Vec<Val> = std::iter::once(v)
            .chain((0..self.singles.len()).map(|c| tail_value(key, c)))
            .collect();
        let key = self.base.append_row(&row);
        self.resolver.ripple_insert(v, key);
        self.push(AreaEntry::Insert(key));
    }

    /// Delete the row in slot `i`, at the position the resolver finds
    /// for its `(head, key)`.
    fn delete(&mut self, i: usize) {
        let (val, key) = (self.resolver.head()[i], self.resolver.tail()[i]);
        let pos = self.resolver.ripple_delete(val, |&k| k == key);
        let pos = pos.expect("the resolver holds every live row of the area");
        self.push(AreaEntry::Delete { val, key, pos });
    }

    /// Panic unless the group, the singles, the resolver and the base
    /// agree.
    fn check(&self, ctx: &str) {
        let g = &self.group;
        let head = g.head().expect("never dropped here");
        assert!(
            head == self.resolver.head(),
            "{ctx}: head differs from the resolver's"
        );
        assert_eq!(g.cursor, self.tape.len(), "{ctx}: cursor");
        for (c, s) in self.singles.iter().enumerate() {
            let attr = c + 1;
            assert!(
                s.head() == Some(head),
                "{ctx}: head differs from single {c}"
            );
            assert_eq!(
                g.index().boundaries_with_status(),
                s.index().boundaries_with_status(),
                "{ctx}: index differs from single {c}"
            );
            assert_eq!(g.index().origin(), s.index().origin(), "{ctx}: origin {c}");
            assert!(g.tail(attr) == s.tail(attr), "{ctx}: tail {attr} differs");
            let base = self.base.column(attr);
            let want = self.resolver.tail().iter().map(|&key| base.get(key));
            assert!(
                want.eq(g.tail(attr).unwrap().iter().copied()),
                "{ctx}: tail {attr} vs base"
            );
        }
        assert_eq!(
            g.tuples(),
            g.len() * (self.singles.len() + 1) / 2,
            "{ctx}: tuples"
        );
    }
}

/// One random tape entry on `area`, values drawn around `0..domain`.
fn step(area: &mut Area, rng: &mut StdRng, domain: Val) {
    let v = |rng: &mut StdRng| rng.gen_range(-2..domain + 2);
    match rng.gen_range(0..10) {
        0..=4 => {
            let lo = v(rng);
            let hi = lo + rng.gen_range(0..domain / 4 + 1);
            let pred = match rng.gen_range(0..4) {
                0 => RangePred::open(lo, hi),
                1 => RangePred::closed(lo, hi),
                2 => RangePred::less(Bound::exclusive(lo)),
                _ => RangePred::greater(Bound::inclusive(hi)),
            };
            area.push(AreaEntry::Crack(pred));
        }
        5..=6 => area.insert(v(rng)),
        _ if area.resolver.is_empty() => area.insert(v(rng)),
        _ => area.delete(rng.gen_range(0..area.resolver.len())),
    }
}

#[test]
fn a_chunk_group_is_its_chunks() {
    let mut rng = StdRng::seed_from_u64(0xC4_42);
    let mut entries = [0usize; 3];
    for trial in 0..48 {
        let k = 1 + trial % 4;
        let domain: Val = [3, 50, 1_000][trial % 3];
        let rows = rng.gen_range(0..400);
        let mut area = Area::new(&mut rng, rows, k, domain);
        area.check(&format!("trial {trial} seed"));
        for op in 0..100 {
            step(&mut area, &mut rng, domain);
            area.check(&format!("trial {trial} (k = {k}) entry {op}"));
        }
        for e in &area.tape {
            entries[match e {
                AreaEntry::Crack(..) => 0,
                AreaEntry::Insert(..) => 1,
                AreaEntry::Delete { .. } => 2,
            }] += 1;
        }
    }
    assert!(
        entries.iter().all(|&n| n > 500),
        "cracks, inserts, deletes: {entries:?}"
    );
}

/// An area whose first crack prepartitions it replays the same cuts and
/// the same scatter of every tail.
#[test]
fn a_prepartitioning_crack_moves_every_tail_of_a_group() {
    let mut rng = StdRng::seed_from_u64(0xC4_43);
    let domain = 1 << 22;
    let mut area = Area::new(&mut rng, PREPARTITION_MIN_PIECE * 3 / 2, 2, domain);
    area.push(AreaEntry::Crack(RangePred::open(
        domain / 3,
        domain / 3 + 5_000,
    )));
    assert!(
        area.group.index().advisory_count() > 1,
        "the first crack prepartitions"
    );
    area.check("prepartition");
    for op in 0..10 {
        step(&mut area, &mut rng, domain);
        area.check(&format!("entry {op}"));
    }
}
