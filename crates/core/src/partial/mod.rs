//! Partial sideways cracking (§4): maps materialized chunk-by-chunk,
//! driven by the workload, under a storage budget.
//!
//! A [`PartialSet`] owns:
//!
//! * the **chunk map** `H_A` — `(A, key)` pairs, cracked into *areas*;
//!   unfetched areas may be cracked further; fetched areas are frozen so
//!   that all chunks created from them stay alignment-compatible;
//! * per-area metadata: fetched state, the *area tape* of chunk-level
//!   cracks, and lazily deleted index shells of dropped chunks;
//! * the partial maps themselves, as *chunk groups* ([`Chunk`]): the
//!   chunks of one area that queries use together share one head, one
//!   cracker index and one tape cursor, one tail column per map — the
//!   map groups of the full-map path, area by area. A query over the
//!   maps `attrs` fetches the ones an area lacks as one group (one copy
//!   of the head, one gather per tail), and the area's groups holding
//!   only maps of `attrs` merge into one once aligned, so every crack,
//!   merged update and replay runs once per group, not once per map.
//!   Groups are created on demand, evicted whole under storage pressure
//!   (lowest [`retention_score`] first: last access plus a
//!   log-frequency grace) and recreated when needed again. A group of
//!   `k` tails over `n` tuples counts `n (k + 1) / 2` map tuples
//!   against the budget, as a full-map group does. They live in one
//!   owner, `resident::Resident`, which keeps their total size and
//!   their eviction order current as groups go in and out, so a query
//!   pays O(log groups) per eviction and O(1) for `usage()` rather than
//!   a scan of every group.
//!
//! Queries proceed **chunk-wise** (§4.1): each operator loads, creates,
//! aligns, cracks and scans one area's groups at a time, and alignment
//! is *partial* — a group not being cracked only needs to reach the
//! maximum cursor of the groups used together with it, and even a
//! to-be-cracked group stops early when a tape entry already provides
//! its boundary.
//!
//! **Updates (§3.5, chunk-wise):** insertions and deletions are staged
//! globally on the set and merged on access — when a query next touches
//! the area a pending tuple belongs to, the update becomes an area-tape
//! entry ([`AreaEntry::Insert`] / [`AreaEntry::Delete`]) that every group
//! of the area replays during alignment, exactly like a crack. Deletion
//! positions are resolved once per area by a *resolver* (the area's
//! `(head, key)` pairs aligned through the same tape — the chunk-wise
//! analogue of the key map `M_A,key`), so sibling groups stay physically
//! identical. Partial alignment may skip trailing cracks (they only
//! reorganize) but never a merged update (it changes content). When an
//! area's last group is dropped the area reverts to unfetched, its tape
//! is discarded and its merged updates return to the staged lists — a
//! group recreated from the base later picks them up for free.
//!
//! **Storage manager:** as in the paper (§4.1), eviction only discards:
//! a dropped group is recreated from the in-memory base columns when a
//! query needs it again.

pub mod chunk;
mod resident;

pub use chunk::Chunk;
pub use resident::retention_score;

use crate::bitvec::BitVec;
use crate::set::growth;
use crackdb_columnstore::column::{Column, Table};
use crackdb_columnstore::ops::block::Block;
use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_cracking::index::pred_keys;
use crackdb_cracking::{BoundaryKey, CrackedArray, CrackerIndex, SeedPlan};
use resident::Resident;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Identity of an area: its start boundary in the chunk map (`None` for
/// the leftmost area). Stable while the area is fetched.
pub type AreaId = Option<BoundaryKey>;

/// The groups checked out of one area, plus a clone of the area's tape
/// for replay.
type CheckedOutArea = (Vec<Chunk>, Vec<AreaEntry>);

/// One entry of an area tape: the reorganization-and-update log every
/// group of the area replays during alignment (§3.5 applied per chunk).
#[derive(Debug, Clone, Copy)]
pub enum AreaEntry {
    /// A chunk-level crack at the predicate's bounds. Replay runs it
    /// again, so sibling groups and recreations stay bit-aligned.
    Crack(RangePred),
    /// Tuple `key` (appended to the base table) ripple-inserted into the
    /// area; replaying chunks read its values from the base columns.
    Insert(RowId),
    /// Tuple `key` with head value `val` ripple-deleted at physical
    /// position `pos` (resolved by the area resolver at merge time, so
    /// every sibling group deletes the same slot).
    Delete {
        /// Head-attribute value of the deleted tuple.
        val: Val,
        /// Base-table key of the deleted tuple.
        key: RowId,
        /// Physical position within the area at this tape point.
        pos: usize,
    },
}

/// Position just past the last update entry of a tape: groups may stop
/// partial alignment short of trailing cracks, never short of a merged
/// update.
fn update_floor(tape: &[AreaEntry]) -> usize {
    tape.iter()
        .rposition(|e| !matches!(e, AreaEntry::Crack(..)))
        .map_or(0, |i| i + 1)
}

/// Apply one area-tape entry to a `(head, key)` array seeded from the
/// chunk map: a resolver, or the array a dropped head is rebuilt on.
/// Cracks and ripples move rows by their head values alone, so it
/// holds the head order of every group at the same cursor.
fn replay_keyed(arr: &mut CrackedArray<RowId>, entry: &AreaEntry, head_col: &Column) {
    match *entry {
        AreaEntry::Crack(pred) => {
            arr.crack_range(&pred);
        }
        AreaEntry::Insert(key) => arr.ripple_insert(head_col.get(key), key),
        AreaEntry::Delete { pos, .. } => {
            arr.ripple_delete_at(pos);
        }
    }
}

/// The §3.5 position resolver of one area: the area's `(head, key)`
/// pairs, kept aligned to the tape end. It resolves a staged deletion
/// (head value + key) to the physical position all sibling groups must
/// replay. Infrastructure like the chunk map — not counted against the
/// storage budget.
#[derive(Debug, Clone)]
struct Resolver {
    arr: CrackedArray<RowId>,
    cursor: usize,
}

/// Per-area metadata.
#[derive(Debug, Clone, Default)]
struct AreaInfo {
    fetched: bool,
    /// Chunk-level cracks and merged updates logged for this area,
    /// replayed by sibling groups during (partial) alignment.
    tape: Vec<AreaEntry>,
    /// Lazily deleted cracker-index shells of dropped groups, reusable at
    /// recreation (§4.1 "lazy deletion"): every group of the area
    /// replays the same tape, so any shell fits any new group.
    shells: Vec<CrackerIndex>,
    /// Delete-position resolver, created at the area's first update
    /// merge.
    resolver: Option<Resolver>,
}

/// Instrumentation counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartialStats {
    /// Chunk groups fetched (including recreations): one per area a
    /// query lacks maps of, whatever the number of maps.
    pub chunks_created: u64,
    /// Chunk groups evicted by the storage manager.
    pub chunks_dropped: u64,
    /// Map tuples materialized by fetches, counted as the budget counts
    /// them: `n (k + 1) / 2` for a `k`-tail group over `n` tuples.
    pub tuples_fetched: u64,
    /// Area-tape entries replayed during alignment.
    pub entries_replayed: u64,
    /// Cracks performed directly by queries on chunk groups.
    pub query_cracks: u64,
    /// Cracks performed on the chunk map.
    pub chunk_map_cracks: u64,
    /// Head columns dropped.
    pub heads_dropped: u64,
    /// Head columns recovered (rebuilt) for further cracking.
    pub heads_recovered: u64,
    /// Staged updates merged into area tapes (§3.5).
    pub updates_merged: u64,
    /// Always 0: the storage manager drops, never spills. Kept only
    /// because `benchmark/src/sut.rs` reads it; ROADMAP item 1 deletes it.
    pub chunks_spilled: u64,
    /// Always 0, as `chunks_spilled`.
    pub chunks_reloaded: u64,
    /// Always 0, as `chunks_spilled`.
    pub tuples_reloaded: u64,
    /// Always 0, as `chunks_spilled`.
    pub spill_write_ns: u64,
    /// Always 0, as `chunks_spilled`.
    pub spill_read_ns: u64,
    /// Nanoseconds spent materializing chunks from the base columns.
    pub fetch_ns: u64,
}

impl PartialStats {
    /// Accumulate another stats block (store-level aggregation).
    pub fn merge(&mut self, other: &PartialStats) {
        self.chunks_created += other.chunks_created;
        self.chunks_dropped += other.chunks_dropped;
        self.tuples_fetched += other.tuples_fetched;
        self.entries_replayed += other.entries_replayed;
        self.query_cracks += other.query_cracks;
        self.chunk_map_cracks += other.chunk_map_cracks;
        self.heads_dropped += other.heads_dropped;
        self.heads_recovered += other.heads_recovered;
        self.updates_merged += other.updates_merged;
        self.fetch_ns += other.fetch_ns;
    }
}

/// A reference to one area of the chunk map at query time.
#[derive(Debug, Clone, Copy)]
struct AreaRef {
    id: AreaId,
    start: usize,
    end: usize,
    end_key: Option<BoundaryKey>,
}

/// The partial map set `S_A` of one head attribute.
#[derive(Debug, Clone)]
pub struct PartialSet {
    /// Head attribute of every map in the set.
    pub head_attr: usize,
    chunk_map: Option<CrackedArray<RowId>>,
    areas: HashMap<AreaId, AreaInfo>,
    /// The partial maps: every resident chunk group, with the running
    /// tuple count and the eviction order kept beside them.
    resident: Resident,
    /// Inserted base keys not yet merged into any area.
    staged_inserts: Vec<RowId>,
    /// Deleted `(head value, key)` pairs not yet merged into any area.
    staged_deletes: Vec<(Val, RowId)>,
    /// Storage budget in map tuples across all groups (`None` =
    /// unlimited).
    pub budget: Option<usize>,
    clock: u64,
    /// When set, groups whose largest piece is at most this many tuples
    /// drop their head column after use (§4.1 head dropping).
    pub head_drop_threshold: Option<usize>,
    /// Counters.
    pub stats: PartialStats,
    /// Recycled buffer for per-query area-tape snapshots (avoids a fresh
    /// allocation per processed area).
    tape_scratch: Vec<AreaEntry>,
}

impl PartialSet {
    /// Empty partial set for `head_attr`.
    pub fn new(head_attr: usize) -> Self {
        PartialSet {
            head_attr,
            chunk_map: None,
            areas: HashMap::new(),
            resident: Resident::default(),
            staged_inserts: Vec::new(),
            staged_deletes: Vec::new(),
            budget: None,
            clock: 0,
            head_drop_threshold: None,
            stats: PartialStats::default(),
            tape_scratch: Vec::new(),
        }
    }

    /// Rows of a `rows`-tuple base the chunk map's seed leaves out:
    /// those with a staged deletion, ascending and duplicate-free.
    fn seed_exclusions(&self, rows: usize) -> Vec<RowId> {
        let mut dead: Vec<RowId> = self.staged_deletes.iter().map(|&(_, k)| k).collect();
        dead.retain(|&k| (k as usize) < rows);
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// Current chunk storage in map tuples, `n (k + 1) / 2` per group of
    /// `k` tails over `n` tuples (the chunk map and the per-area
    /// resolvers are infrastructure, like a cracker column, and not
    /// counted against the budget). A running count of live group
    /// sizes, so merged inserts and deletes are reflected exactly.
    pub fn usage(&self) -> usize {
        self.resident.tuples()
    }

    /// Check what must hold of the storage manager's bookkeeping
    /// between queries (the partial-map sibling of
    /// `MapSet::check_aligned`):
    ///
    /// * the running usage equals the summed group sizes, the eviction
    ///   order holds exactly the resident groups, each under its
    ///   current score, and no attribute is in two groups of an area;
    /// * groups belong to fetched areas, and a fetched area has
    ///   something that needs it frozen: a resident group or merged
    ///   updates on its tape;
    /// * no group cursor points past its area's tape;
    /// * a resident group at its area resolver's cursor holds the
    ///   resolver's head order (unless its head was dropped), so the
    ///   positions the resolver hands out are the group's positions;
    /// * no update is both staged and merged: no staged insert key, and
    ///   no staged `(val, key)` delete, appears on any area tape;
    /// * `usage() <= budget` (nothing is pinned between queries).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.resident.check()?;
        let staged_inserts: HashSet<RowId> = self.staged_inserts.iter().copied().collect();
        let staged_deletes: HashSet<(Val, RowId)> = self.staged_deletes.iter().copied().collect();
        for (id, group) in self.resident.groups() {
            let attrs = group.tail_attrs();
            let Some(info) = self.areas.get(&id).filter(|a| a.fetched) else {
                return Err(format!("group {attrs:?} of unfetched area {id:?}"));
            };
            let tape_len = info.tape.len();
            if group.cursor > tape_len {
                return Err(format!(
                    "group {attrs:?} of {id:?} at cursor {} of a {tape_len}-entry tape",
                    group.cursor
                ));
            }
            if let (Some(r), Some(head)) = (&info.resolver, group.head()) {
                if group.cursor == r.cursor && head != r.arr.head() {
                    return Err(format!(
                        "group {attrs:?} of {id:?} at the resolver's cursor {} \
                         differs from its head order",
                        r.cursor
                    ));
                }
            }
        }
        for (id, info) in &self.areas {
            let staged = info.tape.iter().find(|e| match **e {
                AreaEntry::Insert(key) => staged_inserts.contains(&key),
                AreaEntry::Delete { val, key, .. } => staged_deletes.contains(&(val, key)),
                AreaEntry::Crack(..) => false,
            });
            if let Some(entry) = staged {
                return Err(format!(
                    "area {id:?} has merged {entry:?}, which is also staged"
                ));
            }
            let referenced = !self.resident.groups_of(*id).is_empty();
            if info.fetched && !referenced && update_floor(&info.tape) == 0 {
                return Err(format!(
                    "area {id:?} is fetched without a group or a merged update"
                ));
            }
        }
        match self.budget {
            Some(budget) if self.usage() > budget => Err(format!(
                "usage {} exceeds the budget {budget} with nothing pinned",
                self.usage()
            )),
            _ => Ok(()),
        }
    }

    // ----- updates (§3.5) ---------------------------------------------

    /// Stage an insertion: the tuple with key `key` was appended to the
    /// base table. Merged into an area when a query next touches it.
    pub fn stage_insert(&mut self, key: RowId) {
        self.staged_inserts.push(key);
    }

    /// Stage a deletion of tuple `key` whose head-attribute value is
    /// `head_val`. Stage each key at most once (`PartialStore` filters
    /// repeats): a repeat of a delete already merged into an area tape
    /// would be both staged and merged.
    pub fn stage_delete(&mut self, head_val: Val, key: RowId) {
        self.staged_deletes.push((head_val, key));
    }

    /// Number of staged (unmerged) updates.
    pub fn staged(&self) -> usize {
        self.staged_inserts.len() + self.staged_deletes.len()
    }

    /// Number of materialized chunk groups.
    pub fn chunk_count(&self) -> usize {
        self.resident.chunk_count()
    }

    /// Every resident chunk group with its area.
    pub fn chunks(&self) -> impl Iterator<Item = (AreaId, &Chunk)> {
        self.resident.groups()
    }

    /// The chunk map, once a query has created it.
    #[doc(hidden)]
    pub fn chunk_map(&self) -> Option<&CrackedArray<RowId>> {
        self.chunk_map.as_ref()
    }

    /// Create the chunk map on first use. `first` is the predicate whose
    /// cut points the caller is about to crack it at, if any: the chunk
    /// map is then seeded already in the bucket order that crack's
    /// opening prepartition would give it (see [`SeedPlan`]).
    fn ensure_chunk_map(&mut self, base: &Table, first: Option<&RangePred>) {
        if self.chunk_map.is_none() {
            // The seed is the *current* live snapshot: inserted rows are
            // already part of the base; rows with a staged deletion are
            // excluded. Everything staged so far is therefore subsumed by
            // the seed and cleared.
            let head = base.column(self.head_attr).values();
            let dead = self.seed_exclusions(head.len());
            let plan = first.and_then(|pred| SeedPlan::new(head, &dead, pred));
            // No headroom: resolvers merge the updates, never the chunk map.
            let cm = CrackedArray::seeded_keys(head, &dead, plan.as_ref(), 0);
            // The cuts of a fused first touch belong to the crack that
            // would have made them.
            debug_assert!(self.areas.is_empty());
            self.stats.chunk_map_cracks += cm.index().len() as u64;
            self.chunk_map = Some(cm);
            self.staged_inserts.clear();
            self.staged_deletes.clear();
        }
    }

    fn area_info(&mut self, id: AreaId) -> &mut AreaInfo {
        self.areas.entry(id).or_default()
    }

    /// Crack the chunk map at the predicate's cut points, but only inside
    /// unfetched areas (fetched areas are frozen; their chunks get
    /// cracked instead).
    fn crack_chunk_map_for(&mut self, pred: &RangePred) {
        let (lo_k, hi_k) = pred_keys(pred);
        for key in [lo_k, hi_k].into_iter().flatten() {
            // INVARIANT: every public query path calls ensure_chunk_map
            // before reaching the internal helpers; field access keeps
            // the borrow disjoint from `areas`/`stats`.
            let cm = self.chunk_map.as_ref().expect("chunk map ensured");
            if cm.index().position_of(key).is_some() {
                continue;
            }
            let id: AreaId = cm.index().floor_strict(key).map(|(k, _)| k);
            let fetched = self.areas.get(&id).is_some_and(|a| a.fetched);
            if !fetched {
                // INVARIANT: same — ensured by every public entry path.
                let cm = self.chunk_map.as_mut().expect("chunk map ensured");
                let before = cm.index().len();
                cm.ensure_boundary(key);
                self.stats.chunk_map_cracks += (cm.index().len() - before) as u64;
            }
        }
    }

    /// Enumerate areas overlapping the predicate's qualifying region.
    ///
    /// Zero-row areas (two chunk-map boundaries at the same position)
    /// are skipped *unless* they carry state a query must still visit:
    /// an area with merged updates (fetched), or one a staged update's
    /// head value falls into — an inserted tuple may be the only content
    /// of an otherwise empty area, and skipping it would lose the merge.
    fn overlapping_areas(&self, base: &Table, pred: &RangePred) -> Vec<AreaRef> {
        let head_col = base.column(self.head_attr);
        // INVARIANT: ensure_chunk_map runs at every public entry point
        // before the internal helpers; field access keeps the borrow
        // disjoint from the sibling fields mutated below.
        let cm = self.chunk_map.as_ref().expect("chunk map ensured");
        let index = cm.index();
        let n = cm.len();
        let (lo_k, hi_k) = pred_keys(pred);
        let mut out = Vec::new();
        // The leftmost area not wholly below the region is the one
        // starting at the greatest boundary <= lo_k; from there the walk
        // follows successor boundaries and stops at the first area
        // starting at or above hi_k, so only the areas between the
        // predicate's cut points are visited.
        let (mut start_key, mut start_pos): (AreaId, usize) = match lo_k {
            None => (None, 0),
            Some(l) => match index.position_of(l) {
                Some(pos) => (Some(l), pos),
                None => index
                    .floor_strict(l)
                    .map_or((None, 0), |(k, pos)| (Some(k), pos)),
            },
        };
        loop {
            if matches!((start_key, hi_k), (Some(s), Some(h)) if s >= h) {
                break;
            }
            let end = match start_key {
                None => index.first(),
                Some(s) => index.ceil_strict(s),
            };
            let (end_key, end_pos) = end.map_or((None, n), |(k, pos)| (Some(k), pos));
            let area = AreaRef {
                id: start_key,
                start: start_pos,
                end: end_pos,
                end_key,
            };
            let keep = end_pos > start_pos
                || self.areas.get(&area.id).is_some_and(|a| a.fetched)
                || self
                    .staged_inserts
                    .iter()
                    .any(|&k| Self::area_contains(&area, head_col.get(k)))
                || self
                    .staged_deletes
                    .iter()
                    .any(|&(v, _)| Self::area_contains(&area, v));
            if keep {
                out.push(area);
            }
            if end_key.is_none() {
                break;
            }
            start_key = end_key;
            start_pos = end_pos;
        }
        out
    }

    /// Does head value `v` fall inside `area`'s value range?
    fn area_contains(area: &AreaRef, v: Val) -> bool {
        let right_of_start = area.id.is_none_or(|(bv, kind)| !kind.belongs_left(v, bv));
        let left_of_end = area
            .end_key
            .is_none_or(|(bv, kind)| kind.belongs_left(v, bv));
        right_of_start && left_of_end
    }

    /// Merge staged updates whose head value falls inside `area` (§3.5
    /// merge-on-access at chunk granularity): inserts first, then
    /// deletes, each logged as an area-tape entry so every group of the
    /// area — including future recreations — replays the change during
    /// alignment. Deletion positions are resolved by the area resolver,
    /// seeded from the frozen chunk-map segment (the same seed every
    /// group starts from) and kept aligned to the tape end.
    fn flush_staged_for_area(&mut self, base: &Table, area: &AreaRef) {
        let head_col = base.column(self.head_attr);
        let inside = |v: Val| Self::area_contains(area, v);
        let ins = self
            .staged_inserts
            .extract_if(.., |k| inside(head_col.get(*k)));
        let ins: Vec<RowId> = ins.collect();
        let dels = self.staged_deletes.extract_if(.., |(v, _)| inside(*v));
        let dels: Vec<(Val, RowId)> = dels.collect();
        if ins.is_empty() && dels.is_empty() {
            return;
        }
        // INVARIANT: ensure_chunk_map runs at every public entry point
        // before the internal helpers; field access keeps the borrow
        // disjoint from the sibling fields mutated below.
        let cm = self.chunk_map.as_ref().expect("chunk map ensured");
        let (heads, keys) = cm.view((area.start, area.end));
        let info = self.areas.entry(area.id).or_default();
        // Merging freezes the area exactly like a fetch: the tape now
        // carries entries every future chunk must replay from this seed.
        info.fetched = true;
        let resolver = info.resolver.get_or_insert_with(|| Resolver {
            arr: CrackedArray::new(heads.to_vec(), keys.to_vec()),
            cursor: 0,
        });
        // Catch the resolver up with cracks logged since the last merge
        // (replayed like every sibling group).
        for entry in &info.tape[resolver.cursor..] {
            replay_keyed(&mut resolver.arr, entry, head_col);
        }
        resolver.cursor = info.tape.len();
        for key in ins {
            resolver.arr.ripple_insert(head_col.get(key), key);
            resolver.cursor += 1;
            info.tape.push(AreaEntry::Insert(key));
            self.stats.updates_merged += 1;
        }
        for (val, key) in dels {
            // A key the resolver no longer holds (e.g. a repeated delete
            // of the same key) is skipped silently — every engine treats
            // deletes idempotently, so the partial path must too.
            let Some(pos) = resolver.arr.ripple_delete(val, |&k| k == key) else {
                continue;
            };
            resolver.cursor += 1;
            info.tape.push(AreaEntry::Delete { val, key, pos });
            self.stats.updates_merged += 1;
        }
    }

    /// Predicate boundaries falling strictly inside an area (those require
    /// chunk-level cracks).
    fn keys_inside(pred: &RangePred, area: &AreaRef) -> Vec<BoundaryKey> {
        let (lo_k, hi_k) = pred_keys(pred);
        [lo_k, hi_k]
            .into_iter()
            .flatten()
            .filter(|k| {
                let after_start = area.id.is_none_or(|s| *k > s);
                let before_end = area.end_key.is_none_or(|e| *k < e);
                after_start && before_end
            })
            .collect()
    }

    /// Fetch (materialize) the group of `tail_attrs` for an area,
    /// reviving a lazily deleted index shell when available.
    fn fetch_group(&mut self, base: &Table, tail_attrs: Vec<usize>, area: &AreaRef) -> Chunk {
        let t0 = Instant::now();
        // INVARIANT: ensure_chunk_map runs at every public entry point
        // before the internal helpers; field access keeps the borrow
        // disjoint from the sibling fields mutated below.
        let cm = self.chunk_map.as_ref().expect("chunk map ensured");
        let info = self.areas.entry(area.id).or_default();
        info.fetched = true;
        let shell = info.shells.pop();
        let mut group = Chunk::gather(tail_attrs, cm.view((area.start, area.end)), base, shell);
        group.last_access = self.clock;
        self.stats.chunks_created += 1;
        self.stats.tuples_fetched += group.tuples() as u64;
        self.stats.fetch_ns += t0.elapsed().as_nanos() as u64;
        group
    }

    /// Evict cold groups until `extra` more map tuples fit in the
    /// budget. The groups of `pinned_area` holding one of `pinned_attrs`
    /// — the ones the running query is working on — are untouchable.
    ///
    /// The victim is the unpinned group with the lowest
    /// [`retention_score`]: recency
    /// plus a log-frequency grace, so a group the workload hammered
    /// keeps a bounded head start over a once-touched one. Pure
    /// frequency (no aging) would always evict the groups a workload
    /// shift just created — the previous batch's groups carry large
    /// counts — and thrash; the recency-dominated score keeps the
    /// adaptation property §4.1 asks of the storage manager ("the system
    /// always keeps the chunks that are really necessary for the
    /// workload hot-set"). A group's tails are always accessed together,
    /// so one score per group is what per-chunk scores would be. The
    /// `(group, area)` identity breaks score ties, so eviction (and
    /// therefore every downstream answer) is deterministic. [`Resident`]
    /// keeps that order and the usage current, so each eviction costs a
    /// tree lookup, not a scan.
    fn make_room(&mut self, extra: usize, pinned_area: AreaId, pinned_attrs: &[usize]) {
        let Some(budget) = self.budget else {
            return;
        };
        while self.resident.tuples() + extra > budget {
            let Some((group, area)) = self.next_victim(pinned_area, pinned_attrs) else {
                break;
            };
            self.drop_chunk(group, area);
        }
    }

    /// The group the storage manager evicts next, as `(group, area)`
    /// with the group named by [`Chunk::id`]: the resident group with
    /// the lowest retention score (ties broken by group, then area) that
    /// is not pinned — pinned being the groups of `pinned_area` that
    /// hold one of `pinned_attrs`.
    pub fn next_victim(
        &self,
        pinned_area: AreaId,
        pinned_attrs: &[usize],
    ) -> Option<(usize, AreaId)> {
        self.resident.next_victim(pinned_area, pinned_attrs)
    }

    /// Drop the group of `area_id` holding the chunk of `tail_attr`,
    /// keeping its index as a lazily deleted shell unless the area
    /// reverts to unfetched (see [`Self::unfetch_if_unreferenced`]).
    /// Returns the map tuples freed.
    pub fn drop_chunk(&mut self, tail_attr: usize, area_id: AreaId) -> usize {
        let Some(group) = self.resident.take(tail_attr, area_id) else {
            return 0;
        };
        let freed = group.tuples();
        self.stats.chunks_dropped += 1;
        if !self.unfetch_if_unreferenced(area_id) {
            self.area_info(area_id).shells.push(group.into_shell());
        }
        freed
    }

    /// An area that has lost its last group reverts to unfetched and its
    /// tape is removed (§4.1): merged updates return to the staged
    /// lists, so groups recreated from the base later pick them up for
    /// free. Returns whether the area reverted. Called only while the
    /// area's groups are resident, never while a query has them out.
    fn unfetch_if_unreferenced(&mut self, area_id: AreaId) -> bool {
        if !self.resident.groups_of(area_id).is_empty() {
            return false;
        }
        let info = self.areas.entry(area_id).or_default();
        info.fetched = false;
        info.shells.clear();
        info.resolver = None;
        for entry in info.tape.drain(..) {
            match entry {
                AreaEntry::Insert(key) => self.staged_inserts.push(key),
                AreaEntry::Delete { val, key, .. } => self.staged_deletes.push((val, key)),
                AreaEntry::Crack(..) => {}
            }
        }
        true
    }

    /// Give a head-dropped group its head back, deterministically: re-seed
    /// the area's `(head, key)` pairs from the (frozen) chunk map and
    /// replay the area tape up to the group's cursor (see
    /// [`replay_keyed`]).
    fn recover_head(
        &mut self,
        base: &Table,
        area: &AreaRef,
        group: &mut Chunk,
        tape: &[AreaEntry],
    ) {
        if !group.head_dropped() {
            return;
        }
        // INVARIANT: ensure_chunk_map runs at every public entry point
        // before the internal helpers.
        let cm = self.chunk_map.as_ref().expect("chunk map ensured");
        let (heads, keys) = cm.view((area.start, area.end));
        let mut arr = CrackedArray::new(heads.to_vec(), keys.to_vec());
        for entry in &tape[..group.cursor] {
            replay_keyed(&mut arr, entry, base.column(self.head_attr));
        }
        group.restore_head(arr.replace_head(Vec::new()));
        self.stats.heads_recovered += 1;
    }

    /// Single-selection, multi-projection query (`select P1.. from R where
    /// pred(A)`): one block per projection attribute per chunk area.
    pub fn select_project_blocks(
        &mut self,
        base: &Table,
        head_pred: &RangePred,
        projs: &[usize],
        consume: impl FnMut(Block<'_>),
    ) {
        self.conjunctive_project_blocks(base, head_pred, &[], projs, consume)
    }

    /// Conjunctive multi-selection query (§3.3 executed chunk-wise,
    /// §4.1): predicate on the head attribute plus `tail_sels` predicates
    /// on other attributes; hands `consume` one block per projection
    /// attribute per chunk area — the area's aligned tail values, the
    /// area's bit vector selecting the qualifying ones. Blocks of one
    /// area arrive in `projs` order and are positionally consistent
    /// across attributes.
    pub fn conjunctive_project_blocks(
        &mut self,
        base: &Table,
        head_pred: &RangePred,
        tail_sels: &[(usize, RangePred)],
        projs: &[usize],
        mut consume: impl FnMut(Block<'_>),
    ) {
        if head_pred.is_empty_range() || (tail_sels.is_empty() && projs.is_empty()) {
            return;
        }
        self.ensure_chunk_map(base, Some(head_pred));
        self.crack_chunk_map_for(head_pred);
        self.clock += 1;

        let mut attrs: Vec<usize> = tail_sels.iter().map(|(a, _)| *a).collect();
        for &p in projs {
            if !attrs.contains(&p) {
                attrs.push(p);
            }
        }
        for area in &self.overlapping_areas(base, head_pred) {
            self.process_area(
                base,
                area,
                head_pred,
                tail_sels,
                projs,
                &attrs,
                &mut consume,
            );
        }
        self.finish_query();
    }

    /// Disjunctive multi-selection (§3.3 executed chunk-wise): predicates
    /// on distinct attributes combined with OR. A disjunction needs every
    /// tuple examined, so the pass covers *all* areas of the chunk map,
    /// builds a per-area OR bit vector over the predicate chunks, and
    /// hands `consume` one block per projection attribute per area.
    pub fn disjunctive_project_blocks(
        &mut self,
        base: &Table,
        preds: &[(usize, RangePred)],
        projs: &[usize],
        mut consume: impl FnMut(Block<'_>),
    ) {
        if preds.is_empty() || projs.is_empty() {
            return;
        }
        // Adaptation still happens on the set's own predicate: its cut
        // points refine the chunk map for later conjunctive queries.
        let own = preds.iter().find(|(a, _)| *a == self.head_attr);
        let own = own.map(|(_, pred)| *pred);
        self.ensure_chunk_map(base, own.as_ref());
        if let Some(own) = &own {
            self.crack_chunk_map_for(own);
        }
        self.clock += 1;
        let mut attrs: Vec<usize> = Vec::new();
        for a in preds.iter().map(|(a, _)| *a).chain(projs.iter().copied()) {
            if !attrs.contains(&a) {
                attrs.push(a);
            }
        }
        for area in &self.overlapping_areas(base, &RangePred::all()) {
            self.process_area_disj(base, area, preds, projs, &attrs, &mut consume);
        }
        self.finish_query();
    }

    /// Every query ends here: nothing is pinned any more, so the budget
    /// is enforced exactly — a single query may transiently exceed it
    /// while its own groups are pinned, but no query may leave it
    /// exceeded.
    fn finish_query(&mut self) {
        self.make_room(0, None, &[]);
        debug_assert_eq!(self.check_invariants(), Ok(()));
    }

    /// Check the groups holding `attrs` out of one area for processing —
    /// the steps the conjunctive and disjunctive passes share:
    ///
    /// 1. fetch the maps of `attrs` the area lacks as one group, once
    ///    what it adds fits the budget ([`growth`], pinning the groups
    ///    this query uses);
    /// 2. merge staged updates belonging to the area (§3.5) — this must
    ///    follow materialization: with the query's groups resident the
    ///    area can no longer revert to unfetched mid-query (an eviction
    ///    of its last group would un-merge the tape back to the staged
    ///    lists);
    /// 3. take the groups out;
    /// 4. partial alignment — bring every group to the maximum cursor
    ///    among them, and always past the last merged update (cracks
    ///    only reorganize; updates change content), recovering dropped
    ///    heads as needed;
    /// 5. merge the groups holding only maps of `attrs` into one: they
    ///    are now physically identical.
    ///
    /// Returns the checked-out groups plus the area-tape clone; hand the
    /// groups back with [`Self::reinstall_chunks`].
    fn checkout_area_chunks(
        &mut self,
        base: &Table,
        area: &AreaRef,
        attrs: &[usize],
    ) -> CheckedOutArea {
        let missing: Vec<usize> = attrs
            .iter()
            .copied()
            .filter(|&a| !self.resident.holds(a, area.id))
            .collect();
        if !missing.is_empty() {
            let groups = self.resident.groups_of(area.id).iter();
            let extra = growth(groups.map(Chunk::tail_attrs), attrs, area.end - area.start);
            self.make_room(extra, area.id, attrs);
            let group = self.fetch_group(base, missing, area);
            self.resident.put(area.id, group);
        }
        self.flush_staged_for_area(base, area);
        let groups = self.resident.take_using(area.id, attrs);
        // Snapshot the tape into the recycled scratch buffer (returned to
        // the set by `recycle_tape` once the area is processed).
        let mut tape = std::mem::take(&mut self.tape_scratch);
        tape.clear();
        if let Some(a) = self.areas.get(&area.id) {
            tape.extend_from_slice(&a.tape);
        }
        let target = groups.iter().map(|g| g.cursor).max().unwrap_or(0);
        let target = target.max(update_floor(&tape));
        let mut merged: Vec<Chunk> = Vec::with_capacity(groups.len());
        for mut g in groups {
            if g.cursor < target {
                self.recover_head(base, area, &mut g, &tape);
            }
            let replayed = g.align_to(&tape, target, base, self.head_attr);
            self.stats.entries_replayed += replayed as u64;
            match merged.iter_mut().find(|m| m.within(attrs)) {
                Some(m) if g.within(attrs) => m.merge(g),
                _ => merged.push(g),
            }
        }
        (merged, tape)
    }

    /// Return the per-query tape snapshot buffer for reuse.
    fn recycle_tape(&mut self, tape: Vec<AreaEntry>) {
        if tape.capacity() > self.tape_scratch.capacity() {
            self.tape_scratch = tape;
        }
    }

    /// Hand processed groups back: access bookkeeping, the optional
    /// head-drop policy, and reinsertion into the resident set.
    fn reinstall_chunks(&mut self, area_id: AreaId, groups: Vec<Chunk>) {
        for mut g in groups {
            g.accesses += 1;
            g.last_access = self.clock;
            if let Some(t) = self.head_drop_threshold {
                if !g.head_dropped() && g.max_piece() <= t {
                    g.drop_head();
                    self.stats.heads_dropped += 1;
                }
            }
            self.resident.put(area_id, g);
        }
    }

    /// One area of a disjunctive pass: check out, OR-filter, hand on.
    fn process_area_disj<F: FnMut(Block<'_>)>(
        &mut self,
        base: &Table,
        area: &AreaRef,
        preds: &[(usize, RangePred)],
        projs: &[usize],
        attrs: &[usize],
        consume: &mut F,
    ) {
        let (groups, tape) = self.checkout_area_chunks(base, area, attrs);
        // checkout_area_chunks returns a group holding every attribute
        // in `attrs`, which includes every predicate and projection.
        let tail = |attr: usize| groups.iter().find_map(|g| g.tail(attr));

        // OR bit vector over the whole (aligned) area.
        let len = groups.first().map_or(0, Chunk::len);
        let mut bv = BitVec::zeros(len);
        for (attr, pred) in preds {
            for (i, &v) in tail(*attr).unwrap_or_default().iter().enumerate() {
                if pred.matches(v) {
                    bv.set(i);
                }
            }
        }

        for &p in projs {
            if let Some(vals) = tail(p) {
                consume(Block {
                    attr: p,
                    vals,
                    sel: Some(bv.words()),
                });
            }
        }

        self.reinstall_chunks(area.id, groups);
        self.recycle_tape(tape);
    }

    /// One area of a conjunctive pass: check out, answer, hand back.
    #[allow(clippy::too_many_arguments)]
    fn process_area<F: FnMut(Block<'_>)>(
        &mut self,
        base: &Table,
        area: &AreaRef,
        head_pred: &RangePred,
        tail_sels: &[(usize, RangePred)],
        projs: &[usize],
        attrs: &[usize],
        consume: &mut F,
    ) {
        // Materialize, merge staged updates, take out, align and merge
        // (§3.5 / §4.1 shared machinery).
        let (mut groups, tape) = self.checkout_area_chunks(base, area, attrs);
        self.answer_area(
            base,
            area,
            head_pred,
            tail_sels,
            projs,
            &mut groups,
            &tape,
            consume,
        );
        self.reinstall_chunks(area.id, groups);
        self.recycle_tape(tape);
    }

    /// Crack the aligned groups of one area where the predicate needs
    /// it, filter by the tail predicates, and hand on the projections.
    #[allow(clippy::too_many_arguments)]
    fn answer_area<F: FnMut(Block<'_>)>(
        &mut self,
        base: &Table,
        area: &AreaRef,
        head_pred: &RangePred,
        tail_sels: &[(usize, RangePred)],
        projs: &[usize],
        groups: &mut [Chunk],
        tape: &[AreaEntry],
        consume: &mut F,
    ) {
        let needed = Self::keys_inside(head_pred, area);

        // Boundary handling with monitored alignment: replay further
        //    entries until the needed boundaries appear; crack (logged on
        //    the tape) only if the tape never provides them. The groups
        //    are aligned, so each replays the same entries.
        let mut range = (0, groups.first().map_or(0, Chunk::len));
        if !needed.is_empty() {
            let mut missing = false;
            for g in groups.iter_mut() {
                if !g.has_boundaries(&needed) {
                    self.recover_head(base, area, g, tape);
                }
                let (replayed, m) = g.align_until_boundaries(tape, &needed, base, self.head_attr);
                self.stats.entries_replayed += replayed as u64;
                missing = m;
            }
            if missing {
                // Every group is now at the tape end; crack them all
                // (deterministically identical outcomes) and log the
                // crack, which records the missing boundaries.
                for g in groups.iter_mut() {
                    self.recover_head(base, area, g, tape);
                    g.crack_range(head_pred);
                    self.stats.query_cracks += 1;
                }
                let info = self.area_info(area.id);
                info.tape.push(AreaEntry::Crack(*head_pred));
                let new_len = info.tape.len();
                groups.iter_mut().for_each(|g| g.cursor = new_len);
            }
            range = groups[0].range_of(head_pred);
            for g in groups.iter() {
                debug_assert_eq!(g.range_of(head_pred), range, "aligned groups agree");
            }
        }
        // `attrs` contains every selection and projection attribute, so
        // the checkout returned a group holding each.
        let tail = |attr: usize| {
            let vals = groups.iter().find_map(|g| g.tail(attr));
            vals.map(|v| &v[range.0..range.1])
        };

        // Bit-vector filtering over the qualifying local range.
        let mut bv: Option<BitVec> = None;
        for (attr, pred) in tail_sels {
            let Some(tails) = tail(*attr) else {
                continue;
            };
            match &mut bv {
                None => bv = Some(BitVec::from_range(tails, pred)),
                Some(bv) => bv.refine_range(tails, pred),
            }
        }

        // One block per projection: the qualifying local range.
        for &p in projs {
            if let Some(vals) = tail(p) {
                consume(Block {
                    attr: p,
                    vals,
                    sel: bv.as_ref().map(BitVec::words),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests;
