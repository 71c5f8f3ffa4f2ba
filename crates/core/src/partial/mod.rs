//! Partial sideways cracking (§4): maps materialized chunk-by-chunk,
//! driven by the workload, under a storage budget.
//!
//! A [`PartialSet`] owns:
//!
//! * the **chunk map** `H_A` — `(A, key)` pairs, cracked into *areas*;
//!   unfetched areas may be cracked further; fetched areas are frozen so
//!   that all chunks created from them stay alignment-compatible;
//! * per-area metadata: fetched state, the *area tape* of chunk-level
//!   cracks, the set of maps referencing the area, and lazily deleted
//!   index shells of dropped chunks;
//! * the partial maps themselves: one [`Chunk`] per (attribute, area)
//!   pair, created on demand, evicted under storage pressure (lowest
//!   [`retention_score`] first: last
//!   access plus a log-frequency grace) and recreated or reloaded when
//!   needed again. They live in one owner, `resident::Resident`, which
//!   keeps their total length and their eviction order current as
//!   chunks go in and out, so a query pays O(log chunks) per eviction
//!   and O(1) for `usage()` rather than a scan of every chunk.
//!
//! Queries proceed **chunk-wise** (§4.1): each operator loads, creates,
//! aligns, cracks and scans one chunk at a time, and alignment is
//! *partial* — a chunk not being cracked only needs to reach the maximum
//! cursor of the chunks used together with it, and even a to-be-cracked
//! chunk stops early when a tape entry already provides its boundary.
//!
//! **Updates (§3.5, chunk-wise):** insertions and deletions are staged
//! globally on the set and merged on access — when a query next touches
//! the area a pending tuple belongs to, the update becomes an area-tape
//! entry ([`AreaEntry::Insert`] / [`AreaEntry::Delete`]) that every chunk
//! of the area replays during alignment, exactly like a crack. Deletion
//! positions are resolved once per area by a *resolver* (the area's
//! `(head, key)` pairs aligned through the same tape — the chunk-wise
//! analogue of the key map `M_A,key`), so sibling chunks stay physically
//! identical. Partial alignment may skip trailing cracks (they only
//! reorganize) but never a merged update (it changes content). When an
//! area's last chunk is dropped the area reverts to unfetched, its tape
//! is discarded and its merged updates return to the staged lists — a
//! chunk recreated from the base later picks them up for free.
//!
//! **Storage tiers:** the paper's storage manager only discards chunks,
//! and so does this one whenever rebuilding a chunk reads only
//! in-memory base columns: a regather from RAM costs no more per tuple
//! than writing the chunk out and reading it back. Only a chunk whose
//! tail column, or the set's head column, is segmented (file-backed) —
//! where a rebuild is a random gather through a bounded segment cache —
//! goes to an attached [`SpillTier`] instead: RAM budget → spill file →
//! (on spill failure) drop. A spilled chunk serializes with its tape
//! cursor (the staged-update watermark) and *reloads* on re-access
//! instead of being recracked; an area with spilled chunks stays
//! fetched, so merged updates are never lost while a sibling is cold.
//! Disk failures surface as [`StorageError`]s through every public
//! query entry point — never as panics.

pub mod chunk;
mod resident;
pub mod spill;

pub use chunk::Chunk;
pub use resident::{retention_score, PartialMap};
pub use spill::SpillTier;

use crate::bitvec::BitVec;
use crackdb_columnstore::column::Table;
use crackdb_columnstore::ops::block::Block;
use crackdb_columnstore::storage::StorageError;
use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_cracking::index::pred_keys;
use crackdb_cracking::{BoundaryKey, CrackedArray, CrackerIndex, SeedPlan};
use resident::Resident;
use spill::SpillSlot;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Identity of an area: its start boundary in the chunk map (`None` for
/// the leftmost area). Stable while the area is fetched.
pub type AreaId = Option<BoundaryKey>;

/// Chunks checked out of the maps for one area — `(attr, chunk)` pairs —
/// plus a clone of the area's tape for replay.
type CheckedOutArea = (Vec<(usize, Chunk)>, Vec<AreaEntry>);

/// One entry of an area tape: the reorganization-and-update log every
/// chunk of the area replays during alignment (§3.5 applied per chunk).
#[derive(Debug, Clone, Copy)]
pub enum AreaEntry {
    /// A chunk-level crack at the predicate's bounds. Replay runs it
    /// again, so sibling chunks and recreations stay bit-aligned.
    Crack(RangePred),
    /// Tuple `key` (appended to the base table) ripple-inserted into the
    /// area; replaying chunks read its values from the base columns.
    Insert(RowId),
    /// Tuple `key` with head value `val` ripple-deleted at physical
    /// position `pos` (resolved by the area resolver at merge time, so
    /// every sibling chunk deletes the same slot).
    Delete {
        /// Head-attribute value of the deleted tuple.
        val: Val,
        /// Base-table key of the deleted tuple.
        key: RowId,
        /// Physical position within the area at this tape point.
        pos: usize,
    },
}

/// Position just past the last update entry of a tape: chunks may stop
/// partial alignment short of trailing cracks, never short of a merged
/// update.
fn update_floor(tape: &[AreaEntry]) -> usize {
    tape.iter()
        .rposition(|e| !matches!(e, AreaEntry::Crack(..)))
        .map_or(0, |i| i + 1)
}

/// The §3.5 position resolver of one area: the area's `(head, key)`
/// pairs, kept aligned to the tape end. It resolves a staged deletion
/// (head value + key) to the physical position all sibling chunks must
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
    /// replayed by sibling chunks during (partial) alignment.
    tape: Vec<AreaEntry>,
    /// Tail attributes whose partial map currently holds a chunk of this
    /// area.
    refs: HashSet<usize>,
    /// Lazily deleted cracker-index shells of dropped chunks, reusable at
    /// recreation (§4.1 "lazy deletion").
    shells: HashMap<usize, CrackerIndex>,
    /// Delete-position resolver, created at the area's first update
    /// merge.
    resolver: Option<Resolver>,
    /// Chunks of this area currently on disk, by tail attribute. A
    /// spilled chunk keeps the area fetched (its record carries a cursor
    /// into the tape), so the tape must survive until it reloads.
    spilled: HashMap<usize, SpilledChunk>,
}

/// Where a spilled chunk's record is, and the tape cursor it was
/// written with — kept in memory so [`PartialSet::check_invariants`]
/// can hold it against the tape without reading the record back.
#[derive(Debug, Clone, Copy)]
struct SpilledChunk {
    slot: SpillSlot,
    cursor: usize,
}

/// Instrumentation counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartialStats {
    /// Chunks fetched (including recreations).
    pub chunks_created: u64,
    /// Chunks evicted by the storage manager.
    pub chunks_dropped: u64,
    /// Tuples materialized by fetches.
    pub tuples_fetched: u64,
    /// Area-tape entries replayed during alignment.
    pub entries_replayed: u64,
    /// Cracks performed directly by queries on chunks.
    pub query_cracks: u64,
    /// Cracks performed on the chunk map.
    pub chunk_map_cracks: u64,
    /// Head columns dropped.
    pub heads_dropped: u64,
    /// Head columns recovered (rebuilt) for further cracking.
    pub heads_recovered: u64,
    /// Staged updates merged into area tapes (§3.5).
    pub updates_merged: u64,
    /// Chunks evicted to the spill tier (instead of dropped).
    pub chunks_spilled: u64,
    /// Spilled chunks reloaded from disk on re-access.
    pub chunks_reloaded: u64,
    /// Tuples carried by reloaded chunks (per-tuple reload-cost metric).
    pub tuples_reloaded: u64,
    /// Nanoseconds spent serializing + writing spill records.
    pub spill_write_ns: u64,
    /// Nanoseconds spent reading + deserializing spill records.
    pub spill_read_ns: u64,
    /// Nanoseconds spent materializing chunks from the base columns
    /// (the recrack-from-scratch cost spilling avoids).
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
        self.chunks_spilled += other.chunks_spilled;
        self.chunks_reloaded += other.chunks_reloaded;
        self.tuples_reloaded += other.tuples_reloaded;
        self.spill_write_ns += other.spill_write_ns;
        self.spill_read_ns += other.spill_read_ns;
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
    /// The partial maps: every resident chunk, with the running tuple
    /// count and the eviction order kept beside them.
    resident: Resident,
    /// Inserted base keys not yet merged into any area.
    staged_inserts: Vec<RowId>,
    /// Deleted `(head value, key)` pairs not yet merged into any area.
    staged_deletes: Vec<(Val, RowId)>,
    /// Storage budget in tuples across all chunks (`None` = unlimited).
    pub budget: Option<usize>,
    clock: u64,
    /// When set, chunks whose largest piece is at most this many tuples
    /// drop their head column after use (§4.1 head dropping).
    pub head_drop_threshold: Option<usize>,
    /// Counters.
    pub stats: PartialStats,
    /// Optional disk tier: evicted chunks spill here and reload on
    /// re-access instead of being recracked.
    spill: Option<SpillTier>,
    /// Recycled buffer for per-query area-tape snapshots (avoids a fresh
    /// allocation per processed area).
    tape_scratch: Vec<AreaEntry>,
    /// Recycled buffer for spill records: encode and read reuse it so
    /// multi-MB evictions/reloads don't pay a fresh allocation (and its
    /// page faults) per chunk.
    spill_scratch: Vec<u8>,
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
            spill: None,
            tape_scratch: Vec::new(),
            spill_scratch: Vec::new(),
        }
    }

    /// Attach (or detach) the disk spill tier. With a tier attached,
    /// eviction spills the chunks whose rebuild would read a segmented
    /// base column and still drops the rest (see [`Self::evict_chunk`]).
    pub fn set_spill(&mut self, tier: Option<SpillTier>) {
        self.spill = tier;
    }

    /// `true` when a spill tier is attached.
    pub fn spill_enabled(&self) -> bool {
        self.spill.is_some()
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

    /// Current chunk storage in tuples (the chunk map and the per-area
    /// resolvers are infrastructure, like a cracker column, and not
    /// counted against the budget). A running count of live chunk
    /// lengths, so merged inserts and deletes are reflected exactly.
    pub fn usage(&self) -> usize {
        self.resident.tuples()
    }

    /// Tuples currently held by the spill tier (on disk, *not* counted
    /// by [`Self::usage`] — the budget governs resident storage only).
    pub fn spilled_tuples(&self) -> usize {
        self.areas
            .values()
            .flat_map(|a| a.spilled.values())
            .map(|s| s.slot.tuples as usize)
            .sum()
    }

    /// Check what must hold of the storage manager's bookkeeping
    /// between queries (the partial-map sibling of
    /// `MapSet::check_aligned`):
    ///
    /// * the running usage equals the summed chunk lengths, and the
    ///   eviction order holds exactly the resident chunks, each under
    ///   its current score;
    /// * an area's `refs` are exactly the attributes with a resident
    ///   chunk of it, and no chunk is both resident and spilled;
    /// * chunks belong to fetched areas, and a fetched area has
    ///   something that needs it frozen: a resident chunk, a spilled
    ///   chunk, or merged updates on its tape;
    /// * no chunk cursor, resident or spilled, points past its area's
    ///   tape;
    /// * a resident chunk at its area resolver's cursor holds the
    ///   resolver's head order (unless its head was dropped), so the
    ///   positions the resolver hands out are the chunk's positions;
    /// * no update is both staged and merged: no staged insert key, and
    ///   no staged `(val, key)` delete, appears on any area tape;
    /// * `usage() <= budget` (nothing is pinned between queries).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.resident.check()?;
        let staged_inserts: HashSet<RowId> = self.staged_inserts.iter().copied().collect();
        let staged_deletes: HashSet<(Val, RowId)> = self.staged_deletes.iter().copied().collect();
        for (attr, map) in self.resident.maps() {
            for &id in map.chunks.keys() {
                if !self.areas.get(&id).is_some_and(|a| a.refs.contains(&attr)) {
                    return Err(format!(
                        "resident chunk ({attr}, {id:?}) is not in its area's refs"
                    ));
                }
            }
        }
        for (id, info) in &self.areas {
            let tape_len = info.tape.len();
            for &attr in &info.refs {
                let Some(chunk) = self.map(attr).and_then(|m| m.chunks.get(id)) else {
                    return Err(format!(
                        "area {id:?} refs attr {attr} without a resident chunk"
                    ));
                };
                if info.spilled.contains_key(&attr) {
                    return Err(format!("chunk ({attr}, {id:?}) is resident and spilled"));
                }
                if chunk.cursor > tape_len {
                    return Err(format!(
                        "chunk ({attr}, {id:?}) at cursor {} of a {tape_len}-entry tape",
                        chunk.cursor
                    ));
                }
                if let (Some(r), Some(head)) = (&info.resolver, chunk.head()) {
                    if chunk.cursor == r.cursor && head != r.arr.head() {
                        return Err(format!(
                            "chunk ({attr}, {id:?}) at the resolver's cursor {} \
                             differs from its head order",
                            r.cursor
                        ));
                    }
                }
            }
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
            if let Some((attr, s)) = info.spilled.iter().find(|(_, s)| s.cursor > tape_len) {
                return Err(format!(
                    "spilled chunk ({attr}, {id:?}) at cursor {} of a {tape_len}-entry tape",
                    s.cursor
                ));
            }
            let referenced = !info.refs.is_empty() || !info.spilled.is_empty();
            if referenced && !info.fetched {
                return Err(format!("area {id:?} has chunks but is not fetched"));
            }
            if info.fetched && !referenced && update_floor(&info.tape) == 0 {
                return Err(format!(
                    "area {id:?} is fetched without a chunk or a merged update"
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

    /// Number of materialized chunks across all maps.
    pub fn chunk_count(&self) -> usize {
        self.resident.chunk_count()
    }

    /// Read access to a partial map.
    pub fn map(&self, tail_attr: usize) -> Option<&PartialMap> {
        self.resident.map(tail_attr)
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
    fn ensure_chunk_map(
        &mut self,
        base: &Table,
        first: Option<&RangePred>,
    ) -> Result<(), StorageError> {
        if self.chunk_map.is_none() {
            // The seed is the *current* live snapshot: inserted rows are
            // already part of the base; rows with a staged deletion are
            // excluded. Everything staged so far is therefore subsumed by
            // the seed and cleared. A file-backed base column streams
            // through segment-wise, without evicting its random-access
            // cache.
            let head = base.column(self.head_attr).try_contiguous()?;
            let keys: Vec<RowId> = (0..head.len() as RowId).collect();
            let dead = self.seed_exclusions(head.len());
            let plan = first.and_then(|pred| SeedPlan::new(&head, &dead, pred));
            // No headroom: resolvers merge the updates, never the chunk map.
            let cm = CrackedArray::seeded(&head, &[&keys], &dead, plan.as_ref(), 0);
            // The cuts of a fused first touch belong to the crack that
            // would have made them.
            debug_assert!(self.areas.is_empty());
            self.stats.chunk_map_cracks += cm.index().len() as u64;
            self.chunk_map = Some(cm);
            self.staged_inserts.clear();
            self.staged_deletes.clear();
        }
        Ok(())
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
    /// deletes, each logged as an area-tape entry so every chunk of the
    /// area — including future recreations — replays the change during
    /// alignment. Deletion positions are resolved by the area resolver,
    /// seeded from the frozen chunk-map segment (the same seed every
    /// chunk starts from) and kept aligned to the tape end.
    fn flush_staged_for_area(&mut self, base: &Table, area: &AreaRef) {
        let head_col = base.column(self.head_attr);
        let mut ins = Vec::new();
        let mut i = 0;
        while i < self.staged_inserts.len() {
            let key = self.staged_inserts[i];
            if Self::area_contains(area, head_col.get(key)) {
                ins.push(self.staged_inserts.swap_remove(i));
            } else {
                i += 1;
            }
        }
        let mut dels = Vec::new();
        let mut i = 0;
        while i < self.staged_deletes.len() {
            if Self::area_contains(area, self.staged_deletes[i].0) {
                dels.push(self.staged_deletes.swap_remove(i));
            } else {
                i += 1;
            }
        }
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
        // (replayed like every sibling chunk).
        while resolver.cursor < info.tape.len() {
            match info.tape[resolver.cursor] {
                AreaEntry::Crack(pred) => {
                    resolver.arr.crack_range(&pred);
                }
                AreaEntry::Insert(key) => {
                    resolver.arr.ripple_insert(head_col.get(key), key);
                }
                AreaEntry::Delete { pos, .. } => {
                    resolver.arr.ripple_delete_at(pos);
                }
            }
            resolver.cursor += 1;
        }
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

    /// Fetch (materialize) the chunk of `tail_attr` for an area, reviving
    /// a lazily deleted index shell when available.
    fn fetch_chunk(
        &mut self,
        base: &Table,
        tail_attr: usize,
        area: &AreaRef,
    ) -> Result<Chunk, StorageError> {
        let t0 = Instant::now();
        // INVARIANT: ensure_chunk_map runs at every public entry point
        // before the internal helpers; field access keeps the borrow
        // disjoint from the sibling fields mutated below.
        let cm = self.chunk_map.as_ref().expect("chunk map ensured");
        let (heads, keys) = cm.view((area.start, area.end));
        let tail_col = base.column(tail_attr);
        let head: Vec<Val> = heads.to_vec();
        let mut tail: Vec<Val> = Vec::with_capacity(keys.len());
        tail_col.try_gather(keys.iter().copied(), |v| tail.push(v))?;
        let info = self.areas.entry(area.id).or_default();
        info.fetched = true;
        info.refs.insert(tail_attr);
        let shell = info.shells.remove(&tail_attr);
        self.stats.chunks_created += 1;
        self.stats.tuples_fetched += head.len() as u64;
        self.stats.fetch_ns += t0.elapsed().as_nanos() as u64;
        let mut chunk = Chunk::seed(head, tail, shell);
        chunk.last_access = self.clock;
        Ok(chunk)
    }

    /// Evict cold chunks until `extra` more tuples fit in the budget.
    /// The chunks of `pinned_area` belonging to `pinned_attrs` — the
    /// ones the running query is working on — are untouchable.
    ///
    /// The victim is the unpinned chunk with the lowest
    /// [`retention_score`]: recency
    /// plus a log-frequency grace, so a chunk the workload hammered
    /// keeps a bounded head start over a once-touched one. Pure
    /// frequency (no aging) would always evict the chunks a workload
    /// shift just created — the previous batch's chunks carry large
    /// counts — and thrash; the recency-dominated score keeps the
    /// adaptation property §4.1 asks of the storage manager ("the system
    /// always keeps the chunks that are really necessary for the
    /// workload hot-set"). The `(attr, area)` identity breaks score
    /// ties, so eviction (and therefore every downstream answer) is
    /// deterministic. [`Resident`] keeps that order and the usage
    /// current, so each eviction costs a tree lookup, not a scan.
    fn make_room(
        &mut self,
        base: &Table,
        extra: usize,
        pinned_area: AreaId,
        pinned_attrs: &[usize],
    ) -> Result<(), StorageError> {
        let Some(budget) = self.budget else {
            return Ok(());
        };
        // A failed spill still frees its chunk (by dropping it), so the
        // loop carries on to the budget and reports the first failure.
        let mut outcome = Ok(());
        while self.resident.tuples() + extra > budget {
            let Some((attr, area)) = self.next_victim(pinned_area, pinned_attrs) else {
                break;
            };
            let evicted = self.evict_chunk(base, attr, area);
            outcome = outcome.and(evicted);
        }
        outcome
    }

    /// The chunk the storage manager evicts next, as `(attr, area)`:
    /// the resident chunk with the lowest retention score (ties broken
    /// by attribute, then area) that is not pinned — pinned being the
    /// chunks of `pinned_area` that belong to `pinned_attrs`.
    pub fn next_victim(
        &self,
        pinned_area: AreaId,
        pinned_attrs: &[usize],
    ) -> Option<(usize, AreaId)> {
        self.resident.next_victim(pinned_area, pinned_attrs)
    }

    /// Tiered eviction of one chunk: spill when a tier is attached *and*
    /// rebuilding the chunk would read a segmented base column (its tail
    /// column or the set's head column), otherwise drop. A rebuild from
    /// in-memory columns regathers at memory speed, no slower per tuple
    /// than a spill write plus its reload, and most evicted chunks are
    /// never read again — so for them the write is pure cost. A failed
    /// spill write falls back to dropping the chunk (so the budget
    /// invariant still holds) and then surfaces the error — loud, but
    /// never wedged.
    fn evict_chunk(
        &mut self,
        base: &Table,
        tail_attr: usize,
        area_id: AreaId,
    ) -> Result<(), StorageError> {
        let reads_disk = |attr: usize| !base.column(attr).is_resident();
        let spill_pays = reads_disk(tail_attr) || reads_disk(self.head_attr);
        let Some(tier) = self.spill.as_ref().filter(|_| spill_pays) else {
            self.drop_chunk(tail_attr, area_id);
            return Ok(());
        };
        let Some(chunk) = self.resident.take(tail_attr, area_id) else {
            return Ok(());
        };
        let t0 = Instant::now();
        spill::encode_chunk_into(&chunk, &mut self.spill_scratch);
        let written = tier.write(tail_attr, &self.spill_scratch, chunk.len() as u32);
        self.stats.spill_write_ns += t0.elapsed().as_nanos() as u64;
        match written {
            Ok(slot) => {
                let info = self.areas.entry(area_id).or_default();
                info.refs.remove(&tail_attr);
                let spilled = SpilledChunk {
                    slot,
                    cursor: chunk.cursor,
                };
                info.spilled.insert(tail_attr, spilled);
                self.stats.chunks_spilled += 1;
                Ok(())
            }
            Err(e) => {
                // Put the chunk back and drop it through the ordinary
                // path so shells/un-merge bookkeeping stays consistent.
                self.resident.put(tail_attr, area_id, chunk);
                self.drop_chunk(tail_attr, area_id);
                Err(e)
            }
        }
    }

    /// Reload the spilled chunk of `tail_attr` in `slot` from `tier`,
    /// through the recycled record buffer `scratch`.
    fn reload_chunk(
        tier: &SpillTier,
        scratch: &mut Vec<u8>,
        stats: &mut PartialStats,
        tail_attr: usize,
        slot: SpillSlot,
    ) -> Result<Chunk, StorageError> {
        let t0 = Instant::now();
        tier.read_into(tail_attr, slot, scratch)?;
        let chunk = spill::decode_chunk(
            scratch,
            &format!("decode spilled chunk of column {tail_attr}"),
        )?;
        stats.spill_read_ns += t0.elapsed().as_nanos() as u64;
        stats.chunks_reloaded += 1;
        stats.tuples_reloaded += chunk.len() as u64;
        Ok(chunk)
    }

    /// Drop one chunk, keeping its index as a lazily deleted shell
    /// unless the area reverts to unfetched (see
    /// [`Self::unfetch_if_unreferenced`]). Returns the tuples freed.
    pub fn drop_chunk(&mut self, tail_attr: usize, area_id: AreaId) -> usize {
        let Some(chunk) = self.resident.take(tail_attr, area_id) else {
            return 0;
        };
        let freed = chunk.len();
        self.stats.chunks_dropped += 1;
        self.area_info(area_id).refs.remove(&tail_attr);
        if !self.unfetch_if_unreferenced(area_id) {
            self.area_info(area_id)
                .shells
                .insert(tail_attr, chunk.into_shell());
        }
        freed
    }

    /// An area that has lost its last chunk — resident *or* spilled —
    /// reverts to unfetched and its tape is removed (§4.1): merged
    /// updates return to the staged lists, so chunks recreated from the
    /// base later pick them up for free. While any sibling chunk sits in
    /// the spill tier the tape must survive: the spilled record's cursor
    /// points into it. Returns whether the area reverted.
    fn unfetch_if_unreferenced(&mut self, area_id: AreaId) -> bool {
        let info = self.areas.entry(area_id).or_default();
        if !info.refs.is_empty() || !info.spilled.is_empty() {
            return false;
        }
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

    /// Deterministically rebuild the head column of a head-dropped chunk:
    /// re-seed from the (frozen) chunk-map area and replay the area tape
    /// up to the chunk's cursor.
    fn rebuild_head(
        &mut self,
        base: &Table,
        tail_attr: usize,
        area: &AreaRef,
        cursor: usize,
        tape: &[AreaEntry],
    ) -> Result<Vec<Val>, StorageError> {
        // INVARIANT: ensure_chunk_map runs at every public entry point
        // before the internal helpers; field access keeps the borrow
        // disjoint from the sibling fields mutated below.
        let cm = self.chunk_map.as_ref().expect("chunk map ensured");
        let (heads, keys) = cm.view((area.start, area.end));
        let head_col = base.column(self.head_attr);
        let tail_col = base.column(tail_attr);
        let head: Vec<Val> = heads.to_vec();
        let mut tail: Vec<Val> = Vec::with_capacity(keys.len());
        tail_col.try_gather(keys.iter().copied(), |v| tail.push(v))?;
        let mut tmp = Chunk::seed(head, tail, None);
        tmp.align_to(tape, cursor, head_col, tail_col);
        self.stats.heads_recovered += 1;
        // INVARIANT: Chunk::seed is constructed with a head column and
        // align_to never drops it.
        Ok(tmp.into_head().expect("fresh chunk has a head"))
    }

    /// Single-selection, multi-projection query (`select P1.. from R where
    /// pred(A)`): one block per projection attribute per chunk area.
    pub fn select_project_blocks(
        &mut self,
        base: &Table,
        head_pred: &RangePred,
        projs: &[usize],
        consume: impl FnMut(Block<'_>),
    ) -> Result<(), StorageError> {
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
    ) -> Result<(), StorageError> {
        if head_pred.is_empty_range() || (tail_sels.is_empty() && projs.is_empty()) {
            return Ok(());
        }
        self.ensure_chunk_map(base, Some(head_pred))?;
        self.crack_chunk_map_for(head_pred);
        self.clock += 1;

        let mut attrs: Vec<usize> = tail_sels.iter().map(|(a, _)| *a).collect();
        for &p in projs {
            if !attrs.contains(&p) {
                attrs.push(p);
            }
        }
        let areas = self.overlapping_areas(base, head_pred);
        let answered = areas.iter().try_for_each(|area| {
            self.process_area(
                base,
                area,
                head_pred,
                tail_sels,
                projs,
                &attrs,
                &mut consume,
            )
        });
        self.finish_query(base, answered)
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
    ) -> Result<(), StorageError> {
        if preds.is_empty() || projs.is_empty() {
            return Ok(());
        }
        // Adaptation still happens on the set's own predicate: its cut
        // points refine the chunk map for later conjunctive queries.
        let own = preds.iter().find(|(a, _)| *a == self.head_attr);
        let own = own.map(|(_, pred)| *pred);
        self.ensure_chunk_map(base, own.as_ref())?;
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
        let areas = self.overlapping_areas(base, &RangePred::all());
        let answered = areas.iter().try_for_each(|area| {
            self.process_area_disj(base, area, preds, projs, &attrs, &mut consume)
        });
        self.finish_query(base, answered)
    }

    /// Every query ends here, answered or not: nothing is pinned any
    /// more, so the budget is enforced exactly — a single query may
    /// transiently exceed it while its own chunks are pinned, but no
    /// query, not even one that failed half-way, may leave it exceeded —
    /// and the first error is the one reported.
    fn finish_query(
        &mut self,
        base: &Table,
        answered: Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let enforced = self.make_room(base, 0, None, &[]);
        debug_assert_eq!(self.check_invariants(), Ok(()));
        answered.and(enforced)
    }

    /// Check the chunks of `attrs` out of one area for processing — the
    /// steps the conjunctive and disjunctive passes share:
    ///
    /// 1. materialize missing chunks (budget-checked, pinning the chunks
    ///    this query needs);
    /// 2. merge staged updates belonging to the area (§3.5) — this must
    ///    follow materialization: with the query's chunks holding
    ///    references the area can no longer revert to unfetched
    ///    mid-query (an eviction of the last sibling chunk would
    ///    un-merge the tape back to the staged lists);
    /// 3. take the chunks out of the maps;
    /// 4. partial alignment — bring every chunk to the maximum cursor
    ///    among them, and always past the last merged update (cracks
    ///    only reorganize; updates change content), recovering dropped
    ///    heads as needed.
    ///
    /// Returns the checked-out `(attr, chunk)` pairs plus the area-tape
    /// clone; hand the chunks back with [`Self::reinstall_chunks`].
    fn checkout_area_chunks(
        &mut self,
        base: &Table,
        area: &AreaRef,
        attrs: &[usize],
    ) -> Result<CheckedOutArea, StorageError> {
        for &attr in attrs {
            if self.resident.contains(attr, area.id) {
                continue;
            }
            // Missing chunk: reload it from the spill tier when a spilled
            // sibling record exists (cheaper than recracking), otherwise
            // recreate it from the base columns. Either way the chunk's
            // tuples must first fit in the resident budget, with this
            // area's chunks of `attrs` pinned.
            let spilled = self
                .areas
                .get(&area.id)
                .and_then(|info| info.spilled.get(&attr))
                .map(|s| s.slot);
            let slot = spilled.filter(|_| self.spill.is_some());
            let incoming = slot.map_or(area.end - area.start, |s| s.tuples as usize);
            self.make_room(base, incoming, area.id, attrs)?;
            // Only now does the record stop counting as a chunk of the
            // area: had `make_room` failed, the area would otherwise be
            // left fetched with nothing to show for it.
            if spilled.is_some() {
                self.area_info(area.id).spilled.remove(&attr);
            }
            let chunk = match (slot, &self.spill) {
                (Some(slot), Some(tier)) => {
                    let loaded = Self::reload_chunk(
                        tier,
                        &mut self.spill_scratch,
                        &mut self.stats,
                        attr,
                        slot,
                    );
                    // The slot is consumed on success *and* on failure: a
                    // bad record is released and the next access simply
                    // recreates the chunk from the base, so one loud
                    // error never wedges the set.
                    tier.release(attr, slot);
                    let mut chunk = match loaded {
                        Ok(chunk) => chunk,
                        Err(e) => {
                            // The lost chunk may have been the area's last.
                            self.unfetch_if_unreferenced(area.id);
                            return Err(e);
                        }
                    };
                    chunk.last_access = self.clock;
                    self.area_info(area.id).refs.insert(attr);
                    chunk
                }
                _ => self.fetch_chunk(base, attr, area)?,
            };
            self.resident.put(attr, area.id, chunk);
        }
        self.flush_staged_for_area(base, area);
        // The loop above materialized (or reloaded) every chunk, so each
        // take-out succeeds; tolerating an absent entry keeps this path
        // panic-free without changing behaviour.
        let mut chunks: Vec<(usize, Chunk)> = Vec::with_capacity(attrs.len());
        for &attr in attrs {
            if let Some(c) = self.resident.take(attr, area.id) {
                chunks.push((attr, c));
            }
        }
        // Snapshot the tape into the recycled scratch buffer (returned to
        // the set by `recycle_tape` once the area is processed).
        let mut tape = std::mem::take(&mut self.tape_scratch);
        tape.clear();
        if let Some(a) = self.areas.get(&area.id) {
            tape.extend_from_slice(&a.tape);
        }
        // From here on the chunks are out of the set: a failure hands
        // them back (aligned as far as they got) before it surfaces.
        if let Err(e) = self.align_checked_out(base, area, &mut chunks, &tape) {
            self.reinstall_chunks(area.id, chunks);
            self.recycle_tape(tape);
            return Err(e);
        }
        Ok((chunks, tape))
    }

    /// Step 4 of [`Self::checkout_area_chunks`]: partial alignment of
    /// the checked-out chunks to their common target cursor.
    fn align_checked_out(
        &mut self,
        base: &Table,
        area: &AreaRef,
        chunks: &mut [(usize, Chunk)],
        tape: &[AreaEntry],
    ) -> Result<(), StorageError> {
        let head_col = base.column(self.head_attr);
        let target = chunks
            .iter()
            .map(|(_, c)| c.cursor)
            .max()
            .unwrap_or(0)
            .max(update_floor(tape));
        for (attr, c) in chunks.iter_mut() {
            if c.cursor < target && c.head_dropped() {
                let head = self.rebuild_head(base, *attr, area, c.cursor, tape)?;
                c.restore_head(head);
            }
            self.stats.entries_replayed +=
                c.align_to(tape, target, head_col, base.column(*attr)) as u64;
        }
        Ok(())
    }

    /// Return the per-query tape snapshot buffer for reuse.
    fn recycle_tape(&mut self, tape: Vec<AreaEntry>) {
        if tape.capacity() > self.tape_scratch.capacity() {
            self.tape_scratch = tape;
        }
    }

    /// Hand processed chunks back: access bookkeeping, the optional
    /// head-drop policy, and reinsertion into the maps.
    fn reinstall_chunks(&mut self, area_id: AreaId, chunks: Vec<(usize, Chunk)>) {
        let clock = self.clock;
        let threshold = self.head_drop_threshold;
        for (attr, mut c) in chunks {
            c.accesses += 1;
            c.last_access = clock;
            if let Some(t) = threshold {
                if !c.head_dropped() && c.max_piece() <= t {
                    c.drop_head();
                    self.stats.heads_dropped += 1;
                }
            }
            self.resident.put(attr, area_id, c);
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
    ) -> Result<(), StorageError> {
        let (chunks, tape) = self.checkout_area_chunks(base, area, attrs)?;

        // OR bit vector over the whole (aligned) area.
        let len = chunks.first().map_or(0, |(_, c)| c.len());
        let mut bv = BitVec::zeros(len);
        for (attr, pred) in preds {
            // checkout_area_chunks returns a chunk for every attr in
            // `attrs`, which includes every predicate attribute.
            let Some((_, c)) = chunks.iter().find(|(a, _)| a == attr) else {
                continue;
            };
            let tails = c.tail();
            for (i, &v) in tails.iter().enumerate() {
                if pred.matches(v) {
                    bv.set(i);
                }
            }
        }

        for &p in projs {
            let Some((_, c)) = chunks.iter().find(|(a, _)| *a == p) else {
                continue;
            };
            consume(Block {
                attr: p,
                vals: c.tail(),
                sel: Some(bv.words()),
            });
        }

        self.reinstall_chunks(area.id, chunks);
        self.recycle_tape(tape);
        Ok(())
    }

    /// One area of a conjunctive pass: check out, answer, hand back —
    /// also when answering failed.
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
    ) -> Result<(), StorageError> {
        // Materialize, merge staged updates, take out and align (§3.5 /
        // §4.1 shared machinery).
        let (mut chunks, tape) = self.checkout_area_chunks(base, area, attrs)?;
        let answered = self.answer_area(
            base,
            area,
            head_pred,
            tail_sels,
            projs,
            &mut chunks,
            &tape,
            consume,
        );
        self.reinstall_chunks(area.id, chunks);
        self.recycle_tape(tape);
        answered
    }

    /// Crack the aligned chunks of one area where the predicate needs
    /// it, filter by the tail predicates, and hand on the projections.
    #[allow(clippy::too_many_arguments)]
    fn answer_area<F: FnMut(Block<'_>)>(
        &mut self,
        base: &Table,
        area: &AreaRef,
        head_pred: &RangePred,
        tail_sels: &[(usize, RangePred)],
        projs: &[usize],
        chunks: &mut [(usize, Chunk)],
        tape: &[AreaEntry],
        consume: &mut F,
    ) -> Result<(), StorageError> {
        let needed = Self::keys_inside(head_pred, area);
        let head_col = base.column(self.head_attr);

        // Boundary handling with monitored alignment: replay further
        //    entries until the needed boundaries appear; crack (logged on
        //    the tape) only if the tape never provides them.
        let mut range = (0, chunks.first().map_or(0, |(_, c)| c.len()));
        if !needed.is_empty() {
            let mut missing = false;
            for (attr, c) in chunks.iter_mut() {
                if !c.has_boundaries(&needed) && c.head_dropped() {
                    let head = self.rebuild_head(base, *attr, area, c.cursor, tape)?;
                    c.restore_head(head);
                }
                let (replayed, m) =
                    c.align_until_boundaries(tape, &needed, head_col, base.column(*attr));
                self.stats.entries_replayed += replayed as u64;
                missing = m;
            }
            if missing {
                // Every chunk is now at the tape end; crack them all
                // (deterministically identical outcomes) and log the
                // crack, which records the missing boundaries.
                for (attr, c) in chunks.iter_mut() {
                    if c.head_dropped() {
                        let head = self.rebuild_head(base, *attr, area, c.cursor, tape)?;
                        c.restore_head(head);
                    }
                    c.crack_range(head_pred);
                    self.stats.query_cracks += 1;
                }
                let info = self.area_info(area.id);
                info.tape.push(AreaEntry::Crack(*head_pred));
                let new_len = info.tape.len();
                for (_, c) in chunks.iter_mut() {
                    c.cursor = new_len;
                }
            }
            range = chunks[0].1.range_of(head_pred);
            for (_, c) in chunks.iter() {
                debug_assert_eq!(c.range_of(head_pred), range, "aligned chunks agree");
            }
        }

        // Bit-vector filtering over the qualifying local range.
        let mut bv: Option<BitVec> = None;
        for (attr, pred) in tail_sels {
            // `attrs` contains every selection attribute, so the
            // checkout returned a chunk for each.
            let Some((_, c)) = chunks.iter().find(|(a, _)| a == attr) else {
                continue;
            };
            let tails = &c.tail()[range.0..range.1];
            match &mut bv {
                None => bv = Some(BitVec::from_range(tails, pred)),
                Some(bv) => bv.refine_range(tails, pred),
            }
        }

        // One block per projection: the qualifying local range.
        for &p in projs {
            let Some((_, c)) = chunks.iter().find(|(a, _)| *a == p) else {
                continue;
            };
            consume(Block {
                attr: p,
                vals: &c.tail()[range.0..range.1],
                sel: bv.as_ref().map(BitVec::words),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests;
