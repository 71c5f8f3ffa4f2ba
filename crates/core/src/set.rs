//! Map sets `S_A` (§3.2–§3.5): the per-attribute collection of cracker
//! maps, their shared tape, adaptive alignment, the bit-vector operators
//! for multi-selection queries, and on-demand update merging.
//!
//! The maps are stored as map groups ([`CrackerMap`]): the maps one query
//! uses together are seeded as one group (one seed plan, one scatter, one
//! tape replay), and the groups all of whose maps a query uses merge once
//! aligned, so a query's maps share one head and one index from then on
//! and no group holds more maps than one query used together. Groups
//! never split; the storage manager drops single tails.

use crate::bitvec::BitVec;
use crate::map::{CrackerMap, KeyMap};
use crate::tape::{DeleteBatch, InsertBatch, Tape, TapeEntry};
use crackdb_columnstore::column::{insert_headroom, Table};
use crackdb_columnstore::ops::block::Block;
use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_cracking::{CrackedArray, SeedPlan};
use std::collections::HashSet;

/// Instrumentation counters for a map set.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetStats {
    /// Maps (group tails) seeded from base columns (includes recreations
    /// after drops).
    pub maps_created: u64,
    /// Tape entries replayed during alignment (all groups).
    pub entries_replayed: u64,
    /// Cracks performed directly by queries (not via alignment).
    pub query_cracks: u64,
}

/// A map set `S_A`: all cracker maps with head attribute `A`, in map
/// groups, the tape `T_A`, the key map `M_A,key` (built only when a plan needs keys or a
/// delete batch cannot be resolved by value), and staged (not yet merged)
/// updates.
#[derive(Debug, Clone)]
pub struct MapSet {
    /// The head attribute all maps of this set share.
    pub head_attr: usize,
    /// The shared reorganization log.
    pub tape: Tape,
    groups: Vec<CrackerMap>,
    key_map: Option<KeyMap>,
    staged_inserts: Vec<RowId>,
    staged_deletes: Vec<(Val, RowId)>,
    /// Every key this set excludes, has staged or has merged a deletion
    /// of: a repeated deletion is ignored, so no batch names a dead key.
    deleted: HashSet<RowId>,
    /// Keys `[0, initial_len)` existed when the set was created; maps are
    /// always seeded from exactly this snapshot and then replay the tape,
    /// which keeps late-created maps deterministically aligned.
    initial_len: usize,
    /// Ascending.
    initial_excluded: Vec<RowId>,
    /// The first-touch clustering of the seed snapshot's head column,
    /// computed by the first map whose first replayed entry is a
    /// prepartitioning crack and shared by every sibling seeded after
    /// it: the snapshot and tape entry 0 never change.
    seed_plan: Option<SeedPlan>,
    /// Counters.
    pub stats: SetStats,
}

impl MapSet {
    /// Create the (empty) set for `head_attr` over a base table snapshot:
    /// `initial_len` rows of which `excluded` are already deleted.
    pub fn new(head_attr: usize, initial_len: usize, excluded: HashSet<RowId>) -> Self {
        let mut initial_excluded: Vec<RowId> = excluded
            .iter()
            .copied()
            .filter(|&k| (k as usize) < initial_len)
            .collect();
        initial_excluded.sort_unstable();
        MapSet {
            head_attr,
            tape: Tape::new(),
            groups: Vec::new(),
            key_map: None,
            staged_inserts: Vec::new(),
            staged_deletes: Vec::new(),
            deleted: excluded,
            initial_len,
            initial_excluded,
            seed_plan: None,
            stats: SetStats::default(),
        }
    }

    /// Does a map for `tail_attr` currently exist?
    pub fn has_map(&self, tail_attr: usize) -> bool {
        self.map(tail_attr).is_some()
    }

    /// Read access to the map group holding `tail_attr` (if materialized).
    pub fn map(&self, tail_attr: usize) -> Option<&CrackerMap> {
        self.groups.iter().find(|g| g.column(tail_attr).is_some())
    }

    /// The map groups.
    pub fn groups(&self) -> &[CrackerMap] {
        &self.groups
    }

    /// Read access to the key map (if materialized).
    pub fn key_map(&self) -> Option<&KeyMap> {
        self.key_map.as_ref()
    }

    /// Storage footprint in tuples across all map groups (see
    /// [`CrackerMap::tuples`]) and the key map.
    pub fn tuples(&self) -> usize {
        self.groups.iter().map(|m| m.tuples()).sum::<usize>()
            + self.key_map.as_ref().map_or(0, |k| k.tuples())
    }

    /// Tail attributes of currently materialized maps.
    pub fn map_attrs(&self) -> Vec<usize> {
        let attrs = self.groups.iter().flat_map(|g| &g.tail_attrs);
        attrs.copied().collect()
    }

    /// Instrumentation: are this set's structures seeded already in
    /// prepartitioned bucket order (see [`SeedPlan`])? Decided by the
    /// first seeding whose first replayed entry is a crack.
    pub fn seed_is_clustered(&self) -> bool {
        self.seed_plan.is_some()
    }

    /// The alignment invariant (§3.2): structures of the set whose
    /// cursors point at the same tape entry are physically aligned —
    /// identical head arrays, identical cracker indexes (positions and
    /// advisory status). Each structure must also pass
    /// [`CrackedArray::check_invariants`] on its own, every tail of a
    /// group included. `Err` names the first structure or pair that does
    /// not (a group by its tails, `None` the key map).
    pub fn check_aligned(&self) -> Result<(), String> {
        for g in &self.groups {
            g.arr
                .check_invariants()
                .map_err(|e| format!("maps {:?}: {e}", g.tail_attrs))?;
        }
        if let Some(k) = &self.key_map {
            k.arr
                .check_invariants()
                .map_err(|e| format!("key map: {e}"))?;
        }
        let groups = self.groups.iter();
        let mut all: Vec<_> = groups
            .map(|g| (g.cursor, Some(&*g.tail_attrs), g.arr.head(), g.arr.index()))
            .chain(
                self.key_map
                    .iter()
                    .map(|k| (k.cursor, None, k.arr.head(), k.arr.index())),
            )
            .collect();
        all.sort_by_key(|&(cursor, attrs, ..)| (cursor, attrs));
        for pair in all.windows(2) {
            let ((ca, na, ha, ia), (cb, nb, hb, ib)) = (pair[0], pair[1]);
            if ca == cb && ha != hb {
                return Err(format!(
                    "maps {na:?} and {nb:?} differ in head order at cursor {ca}"
                ));
            }
            if ca == cb && ia.boundaries_with_status() != ib.boundaries_with_status() {
                return Err(format!(
                    "maps {na:?} and {nb:?} differ in index at cursor {ca}"
                ));
            }
        }
        Ok(())
    }

    /// Drop a specific map — the tail column of its group, or the whole
    /// group when it is the last tail (storage management); returns the
    /// tuples freed.
    pub fn drop_map(&mut self, tail_attr: usize) -> usize {
        let holds = |g: &CrackerMap| g.column(tail_attr).is_some();
        let Some(g) = self.groups.iter().position(holds) else {
            return 0;
        };
        let group = &mut self.groups[g];
        let before = group.tuples();
        match group.column(tail_attr) {
            Some(c) if group.tail_attrs.len() > 1 => {
                group.arr.remove_tail(c);
                group.tail_attrs.remove(c);
                group.accesses.remove(c);
                before - group.tuples()
            }
            _ => self.groups.swap_remove(g).tuples(),
        }
    }

    // ----- updates ---------------------------------------------------

    /// Stage an insertion: the tuple with key `key` was appended to the
    /// base table. Merged on demand when a query touches its value range.
    pub fn stage_insert(&mut self, key: RowId) {
        self.staged_inserts.push(key);
    }

    /// Stage a deletion of the tuple `key` whose head-attribute value is
    /// `head_val`. A key already excluded, staged or merged is ignored:
    /// a batch may only name live tuples, or value resolution could
    /// remove a live twin in the dead tuple's place.
    pub fn stage_delete(&mut self, head_val: Val, key: RowId) {
        if self.deleted.insert(key) {
            self.staged_deletes.push((head_val, key));
        }
    }

    /// Number of staged (unmerged) updates.
    pub fn staged(&self) -> usize {
        self.staged_inserts.len() + self.staged_deletes.len()
    }

    /// Move staged updates whose head value is relevant to `pred` into
    /// tape batches (Ripple merging at set granularity): every map will
    /// apply exactly these subsets, in tape order, during alignment.
    fn flush_staged(&mut self, pred: &RangePred, base: &Table) {
        if !self.staged_inserts.is_empty() {
            let head_col = base.column(self.head_attr);
            let mut merged = Vec::new();
            let mut i = 0;
            while i < self.staged_inserts.len() {
                let key = self.staged_inserts[i];
                if pred.matches(head_col.get(key)) {
                    merged.push(key);
                    self.staged_inserts.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            if !merged.is_empty() {
                self.tape.log_inserts(InsertBatch { keys: merged });
            }
        }
        if !self.staged_deletes.is_empty() {
            let mut merged = Vec::new();
            let mut i = 0;
            while i < self.staged_deletes.len() {
                let (v, _) = self.staged_deletes[i];
                if pred.matches(v) {
                    merged.push(self.staged_deletes.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            if !merged.is_empty() {
                self.tape.log_deletes(DeleteBatch {
                    items: merged,
                    resolved: None,
                });
            }
        }
    }

    // ----- seeding & alignment ---------------------------------------

    /// Seed one structure of the set from the snapshot (`head` and each
    /// of `tails` are its rows of a base column), already in bucket order
    /// when the first entry it replays — tape entry 0, or the `query` it
    /// is seeded for while the tape is empty — is a crack that opens with
    /// a prepartition (see [`SeedPlan`]). Every structure of a set merges
    /// updates, so each reserves [`insert_headroom`] for them.
    fn seed<T: Copy + Default>(
        &mut self,
        head: &[Val],
        tails: &[&[T]],
        query: Option<&RangePred>,
    ) -> CrackedArray<T> {
        if self.seed_plan.is_none() {
            let first = if self.tape.is_empty() {
                query.copied()
            } else if let TapeEntry::Crack(pred) = *self.tape.entry(0) {
                Some(pred)
            } else {
                None
            };
            self.seed_plan =
                first.and_then(|pred| SeedPlan::new(head, &self.initial_excluded, &pred));
        }
        let (excluded, plan) = (&self.initial_excluded, self.seed_plan.as_ref());
        let headroom = insert_headroom(head.len() - excluded.len());
        CrackedArray::seeded(head, tails, excluded, plan, headroom)
    }

    /// Seed the maps of `tail_attrs` as one group.
    fn seed_map(&mut self, base: &Table, tail_attrs: Vec<usize>, query: &RangePred) -> CrackerMap {
        let n = self.initial_len;
        let head = base.column(self.head_attr).values();
        let tails: Vec<&[Val]> = tail_attrs
            .iter()
            .map(|&a| &base.column(a).values()[..n])
            .collect();
        self.stats.maps_created += tail_attrs.len() as u64;
        let arr = self.seed(&head[..n], &tails, Some(query));
        CrackerMap::seed(tail_attrs, arr)
    }

    fn seed_key_map(&mut self, base: &Table, query: Option<&RangePred>) -> KeyMap {
        let head = base.column(self.head_attr).values();
        let keys: Vec<RowId> = (0..self.initial_len as RowId).collect();
        KeyMap::seed(self.seed(&head[..keys.len()], &[&keys], query))
    }

    /// Align the key map up to (excluding) tape position `target`,
    /// resolving by key any unresolved delete batch it crosses: those
    /// [`Self::align_map`] found ambiguous, and those the key map is the
    /// first structure to reach. `query` is the crack the caller is about
    /// to apply (see [`Self::seed`]).
    fn align_key_map_to(&mut self, target: usize, base: &Table, query: Option<&RangePred>) {
        let mut km = match self.key_map.take() {
            Some(km) => km,
            None => self.seed_key_map(base, query),
        };
        let head_col = base.column(self.head_attr);
        while km.cursor < target {
            match *self.tape.entry(km.cursor) {
                TapeEntry::Crack(pred) => {
                    km.arr.crack_range(&pred);
                }
                TapeEntry::Inserts(id) => {
                    for &key in &self.tape.insert_batches[id as usize].keys {
                        km.arr.ripple_insert(head_col.get(key), key);
                    }
                }
                TapeEntry::Deletes(id) => {
                    let batch = &mut self.tape.delete_batches[id as usize];
                    match &batch.resolved {
                        Some(positions) => {
                            for &p in positions {
                                km.arr.ripple_delete_at(p);
                            }
                        }
                        None => {
                            // The key map is the first to cross this
                            // entry: perform the deletions by key and
                            // record the physical positions for siblings.
                            let mut positions = Vec::with_capacity(batch.items.len());
                            for &(v, key) in &batch.items {
                                if let Some(p) = km.arr.ripple_delete(v, |&t| t == key) {
                                    positions.push(p);
                                }
                            }
                            batch.resolved = Some(positions);
                        }
                    }
                }
            }
            km.cursor += 1;
            self.stats.entries_replayed += 1;
        }
        self.key_map = Some(km);
    }

    /// Align a (removed-from-the-registry) map group up to tape position
    /// `target` by replaying entries from its cursor. A group that is the
    /// first structure to cross a delete batch resolves it by value on
    /// itself ([`resolve_by_value`]); only an ambiguous batch goes
    /// through the key map.
    fn align_map(&mut self, m: &mut CrackerMap, target: usize, base: &Table) {
        let head_col = base.column(self.head_attr);
        let mut row = Vec::with_capacity(m.tail_attrs.len());
        while m.cursor < target {
            match *self.tape.entry(m.cursor) {
                TapeEntry::Crack(pred) => {
                    m.arr.crack_range(&pred);
                }
                TapeEntry::Inserts(id) => {
                    for &key in &self.tape.insert_batches[id as usize].keys {
                        row.clear();
                        row.extend(m.tail_attrs.iter().map(|&a| base.column(a).get(key)));
                        m.arr.ripple_insert_row(head_col.get(key), &row);
                    }
                }
                TapeEntry::Deletes(id) => {
                    let batch = &mut self.tape.delete_batches[id as usize];
                    let by_value = batch.resolved.is_none() && resolve_by_value(m, batch, base);
                    if !by_value {
                        if self.tape.delete_batches[id as usize].resolved.is_none() {
                            self.align_key_map_to(m.cursor + 1, base, None);
                        }
                        let positions = self.tape.delete_batches[id as usize]
                            .resolved
                            .as_deref()
                            // INVARIANT: align_key_map_to above crossed
                            // this entry, and the key map resolves every
                            // delete batch it crosses, so `resolved` is
                            // always `Some` here.
                            .expect("key map resolved the batch");
                        for &p in positions {
                            m.arr.ripple_delete_at(p);
                        }
                    }
                }
            }
            m.cursor += 1;
            self.stats.entries_replayed += 1;
        }
    }

    /// A query's own crack of an aligned structure, logged when it adds
    /// a boundary. While the tape is empty nothing has ever cracked, so
    /// whatever a structure seeded for this very crack already carries
    /// of it counts as added. Returns the area and the cursor after it.
    fn crack_logged<T: Copy>(
        &mut self,
        arr: &mut CrackedArray<T>,
        pred: &RangePred,
    ) -> ((usize, usize), usize) {
        let before = if self.tape.is_empty() {
            0
        } else {
            arr.index().len()
        };
        let range = arr.crack_range(pred);
        if arr.index().len() > before {
            self.tape.log_crack(*pred);
            self.stats.query_cracks += 1;
        }
        (range, self.tape.len())
    }

    // ----- the sideways.select operator family ------------------------

    /// `sideways.select(A, v1, v2, B)` (§3.2): create the map if missing,
    /// merge relevant staged updates, align, crack by `pred`, log the
    /// crack, and return the contiguous area: every tuple in it
    /// qualifies. View the area's values with [`Self::view_tail`].
    pub fn sideways_select(
        &mut self,
        base: &Table,
        tail_attr: usize,
        pred: &RangePred,
    ) -> (usize, usize) {
        self.select_maps(base, &[tail_attr], pred)
    }

    /// [`Self::sideways_select`] for every map a query uses at once (its
    /// residual selection and fetch attributes): the missing ones are
    /// seeded as one group, every group holding one of `tail_attrs` is
    /// aligned, those holding only maps of `tail_attrs` merge into one,
    /// and the crack runs once per group. Without tails, the key map's
    /// area.
    pub fn select_maps(
        &mut self,
        base: &Table,
        tail_attrs: &[usize],
        pred: &RangePred,
    ) -> (usize, usize) {
        self.flush_staged(pred, base);
        let missing = missing_maps(&self.groups, tail_attrs);
        let uses = |g: &CrackerMap| tail_attrs.iter().any(|&a| g.column(a).is_some());
        let (used, kept) = std::mem::take(&mut self.groups).into_iter().partition(uses);
        self.groups = kept;
        let late = !missing.is_empty();
        let seeded = late.then(|| self.seed_map(base, missing, pred));
        let target = self.tape.len();
        let mut groups: Vec<CrackerMap> = Vec::new();
        for mut g in used.into_iter().chain(seeded) {
            self.align_map(&mut g, target, base);
            match groups.iter_mut().find(|m| m.within(tail_attrs)) {
                Some(m) if g.within(tail_attrs) => m.merge(g),
                _ => groups.push(g),
            }
        }
        let Some((first, rest)) = groups.split_first_mut() else {
            return self.select_key_area(base, pred);
        };
        let range;
        (range, first.cursor) = self.crack_logged(&mut first.arr, pred);
        for g in rest {
            // Aligned with `first`: the same crack, logged once.
            g.arr.crack_range(pred);
            g.cursor = first.cursor;
        }
        let tails = groups
            .iter_mut()
            .flat_map(|g| g.tail_attrs.iter().zip(&mut g.accesses));
        tails
            .filter(|(a, _)| tail_attrs.contains(a))
            .for_each(|(_, n)| *n += 1);
        self.groups.extend(groups);
        if late {
            debug_assert_eq!(self.check_aligned(), Ok(()));
        }
        range
    }

    /// Tail values of a previously selected area.
    pub fn view_tail(&self, tail_attr: usize, range: (usize, usize)) -> &[Val] {
        let tail = self.map(tail_attr).map_or(&[][..], |m| m.tail(tail_attr));
        // INVARIANT: ranges only come from a select over this map, which
        // materializes it before returning.
        &tail[range.0..range.1]
    }

    /// [`Self::sideways_select`] over the key map, for plans with nothing
    /// to reconstruct: the qualifying area, whose length is the answer's
    /// cardinality. The area's keys are `key_map().arr.view(range).1`.
    pub fn select_key_area(&mut self, base: &Table, pred: &RangePred) -> (usize, usize) {
        self.flush_staged(pred, base);
        let late = self.key_map.is_none();
        let target = self.tape.len();
        self.align_key_map_to(target, base, Some(pred));
        // INVARIANT: align_key_map_to always leaves `key_map` populated.
        let mut km = self.key_map.take().expect("aligned above");
        let range;
        (range, km.cursor) = self.crack_logged(&mut km.arr, pred);
        km.accesses += 1;
        self.key_map = Some(km);
        if late {
            debug_assert_eq!(self.check_aligned(), Ok(()));
        }
        range
    }

    /// `sideways.select_create_bv` (§3.3): select on the head predicate,
    /// then build a bit vector over the qualifying area from a predicate
    /// on the tail attribute.
    pub fn select_create_bv(
        &mut self,
        base: &Table,
        tail_attr: usize,
        head_pred: &RangePred,
        tail_pred: &RangePred,
    ) -> ((usize, usize), BitVec) {
        let range = self.sideways_select(base, tail_attr, head_pred);
        let tails = self.view_tail(tail_attr, range);
        let bv = BitVec::from_range(tails, tail_pred);
        (range, bv)
    }

    /// `sideways.select_refine_bv` (§3.3): clear bits of tuples whose tail
    /// value fails `tail_pred`. The map is aligned first, so the area is
    /// positionally identical to the one `bv` was created over.
    pub fn select_refine_bv(
        &mut self,
        base: &Table,
        tail_attr: usize,
        head_pred: &RangePred,
        tail_pred: &RangePred,
        bv: &mut BitVec,
    ) {
        let range = self.sideways_select(base, tail_attr, head_pred);
        let tails = self.view_tail(tail_attr, range);
        assert_eq!(
            tails.len(),
            bv.len(),
            "aligned maps must agree on the area size"
        );
        bv.refine_range(tails, tail_pred);
    }

    /// [`Self::view_tail`] as a reconstruction block: the area's tail
    /// values with `bv` (one bit per tuple of the area) as the selection.
    pub fn view_block<'a>(
        &'a self,
        tail_attr: usize,
        range: (usize, usize),
        bv: Option<&'a BitVec>,
    ) -> Block<'a> {
        let vals = self.view_tail(tail_attr, range);
        if let Some(bv) = bv {
            assert_eq!(
                vals.len(),
                bv.len(),
                "aligned maps must agree on the area size"
            );
        }
        Block {
            attr: tail_attr,
            vals,
            sel: bv.map(BitVec::words),
        }
    }

    /// `sideways.reconstruct` (§3.3): align the map of `tail_attr` and
    /// return the qualifying area's tail values with `bv` selecting among
    /// them — a bulk operator, area and bit vector in, column out.
    pub fn reconstruct_block<'a>(
        &'a mut self,
        base: &Table,
        tail_attr: usize,
        head_pred: &RangePred,
        bv: &'a BitVec,
    ) -> Block<'a> {
        let range = self.sideways_select(base, tail_attr, head_pred);
        self.view_block(tail_attr, range, Some(bv))
    }

    // ----- disjunctive variants (§3.3) ---------------------------------

    /// Disjunctive first step: crack the maps of `tail_attrs` (the ones
    /// the query uses, [`Self::select_maps`]) by the head predicate and
    /// return a bit vector sized to the whole map with the qualifying
    /// area's bits set.
    pub fn disj_create_bv(
        &mut self,
        base: &Table,
        tail_attrs: &[usize],
        head_pred: &RangePred,
    ) -> ((usize, usize), BitVec) {
        // A disjunction examines every tuple, so *every* staged update is
        // relevant — merge them all first. A head-pred-scoped flush (the
        // conjunctive rule) would leave updates matching only the other
        // OR-predicates staged and therefore invisible to the pass: an
        // inserted tuple missing from the map entirely, or a deleted one
        // still contributing bits through its tail values.
        self.flush_staged(&RangePred::all(), base);
        let range = self.select_maps(base, tail_attrs, head_pred);
        let group = tail_attrs.iter().find_map(|&a| self.map(a));
        let n = group.map_or(0, |m| m.arr.len());
        let mut bv = BitVec::zeros(n);
        // A word-level range fill, not one set() per bit.
        bv.set_range(range.0, range.1);
        (range, bv)
    }

    /// Disjunctive refinement: scan the still-unset positions and set
    /// bits of tuples whose tail value satisfies `tail_pred`: exactly the
    /// areas outside the cracked area `w`, as in §3.3.
    pub fn disj_refine_bv(
        &mut self,
        base: &Table,
        tail_attr: usize,
        head_pred: &RangePred,
        tail_pred: &RangePred,
        bv: &mut BitVec,
    ) {
        self.sideways_select(base, tail_attr, head_pred);
        let tails = self.map(tail_attr).map_or(&[][..], |m| m.tail(tail_attr));
        assert_eq!(
            tails.len(),
            bv.len(),
            "aligned maps must agree on total size"
        );
        // Word-at-a-time: after the first OR-branch set a dense area, its
        // words are skipped wholesale.
        bv.set_where_unset_range(tails, tail_pred);
    }

    /// Disjunctive reconstruction: align the map of `tail_attr` and
    /// return the whole map's tail values with `bv` (whole-map indexing)
    /// selecting among them.
    pub fn disj_reconstruct_block<'a>(
        &'a mut self,
        base: &Table,
        tail_attr: usize,
        head_pred: &RangePred,
        bv: &'a BitVec,
    ) -> Block<'a> {
        self.sideways_select(base, tail_attr, head_pred);
        let n = self.map(tail_attr).map_or(0, |m| m.arr.len());
        self.view_block(tail_attr, (0, n), Some(bv))
    }

    // ----- self-organizing histogram (§3.3) ----------------------------

    /// Estimate the result size of `pred` using the most-aligned map's
    /// cracker index, falling back to a uniform assumption over `domain`
    /// when the set has no maps yet. `n` is the table cardinality.
    pub fn estimate(&self, pred: &RangePred, n: usize, domain: (Val, Val)) -> f64 {
        let best = self
            .groups
            .iter()
            .map(|m| (self.tape.lag(m.cursor), m.arr.index(), m.arr.len()))
            .chain(
                self.key_map
                    .as_ref()
                    .map(|k| (self.tape.lag(k.cursor), k.arr.index(), k.arr.len())),
            )
            .min_by_key(|(lag, _, _)| *lag);
        match best {
            Some((_, index, len)) => index.estimate_size(pred, len, domain).estimate,
            None => uniform_estimate(pred, n, domain),
        }
    }
}

/// Resolve a delete batch no structure has crossed yet on the map group
/// `m` itself, which is aligned up to it. Each item's tuple lies in the
/// piece of its head value; when it is the only tuple there equal to it
/// on the head *and every tail*, that slot is the item's row.
/// Ripple-delete every item there and record the positions in
/// `batch.resolved` for siblings and the key map to replay. Uniqueness is
/// checked for every item on the pre-batch state: if two live tuples of
/// some item's piece are equal on all values, nothing moves and `false`
/// sends the batch to the key map. Out of line, so the crack-replay loop
/// around it keeps its codegen.
#[inline(never)]
fn resolve_by_value(m: &mut CrackerMap, batch: &mut DeleteBatch, base: &Table) -> bool {
    let row = |key| {
        m.tail_attrs
            .iter()
            .map(|&a| base.column(a).get(key))
            .collect()
    };
    let rows: Vec<(Val, Vec<Val>)> = batch.items.iter().map(|&(v, key)| (v, row(key))).collect();
    let unique = rows.iter().all(|(v, row)| {
        let mut slots = slots_of(&m.arr, *v, row);
        slots.next().is_some() && slots.next().is_none()
    });
    if !unique {
        return false;
    }
    let positions = rows.iter().filter_map(|(v, row)| {
        let p = slots_of(&m.arr, *v, row).next()?;
        m.arr.ripple_delete_at(p);
        Some(p)
    });
    batch.resolved = Some(positions.collect());
    true
}

/// The slots of `v`'s piece of `arr` holding head `v` and `row`, one
/// value per tail column.
fn slots_of<'a>(
    arr: &'a CrackedArray<Val>,
    v: Val,
    row: &'a [Val],
) -> impl Iterator<Item = usize> + 'a {
    let (s, e) = arr.piece_of(v);
    let tails = move |i| row.iter().enumerate().all(|(c, &x)| arr.tail_at(c)[i] == x);
    (s..e).filter(move |&i| arr.head()[i] == v && tails(i))
}

/// The maps of `tail_attrs` no group holds, ascending.
fn missing_maps(groups: &[CrackerMap], tail_attrs: &[usize]) -> Vec<usize> {
    let held = |a: &usize| groups.iter().any(|g| g.column(*a).is_some());
    let mut missing: Vec<usize> = tail_attrs.iter().copied().filter(|a| !held(a)).collect();
    missing.sort_unstable();
    missing.dedup();
    missing
}

/// The map tuples [`MapSet::select_maps`] adds to a set of `n` tuples
/// with groups `groups` for a query over the maps of `tail_attrs`: the
/// missing maps and the groups holding only maps of `tail_attrs` become
/// one group, counted as [`CrackerMap::tuples`] counts it.
pub fn growth(groups: &[CrackerMap], tail_attrs: &[usize], n: usize) -> usize {
    let cost = |k: usize| if k == 0 { 0 } else { n * (k + 1) / 2 };
    let whole = groups.iter().filter(|g| g.within(tail_attrs));
    let (tails, tuples) = whole.fold((0, 0), |(k, t), g| {
        (k + g.tail_attrs.len(), t + cost(g.tail_attrs.len()))
    });
    cost(missing_maps(groups, tail_attrs).len() + tails).saturating_sub(tuples)
}

/// Uniform-distribution estimate of qualifying tuples with no index
/// knowledge at all. Total for degenerate inputs: empty tables yield
/// `0.0`, single-value and inverted domains are treated as unit spans —
/// never NaN, which would poison the executor's predicate ordering.
pub fn uniform_estimate(pred: &RangePred, n: usize, domain: (Val, Val)) -> f64 {
    let (d_lo, d_hi) = if domain.0 <= domain.1 {
        domain
    } else {
        (domain.1, domain.0)
    };
    let span = (d_hi - d_lo).max(1) as f64;
    let lo = pred.lo.map_or(d_lo, |b| b.value).clamp(d_lo, d_hi);
    let hi = pred.hi.map_or(d_hi, |b| b.value).clamp(d_lo, d_hi);
    let frac = ((hi - lo).max(0) as f64 / span).clamp(0.0, 1.0);
    frac * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_columnstore::column::Column;

    /// The Figure 2 example relation.
    fn fig2_table() -> Table {
        let mut t = Table::new();
        t.add_column("a", Column::new(vec![7, 4, 1, 2, 8, 3, 6]));
        t.add_column("b", Column::new(vec![71, 41, 11, 21, 81, 31, 61]));
        t.add_column("c", Column::new(vec![72, 42, 12, 22, 82, 32, 62]));
        t
    }

    fn sorted(mut v: Vec<Val>) -> Vec<Val> {
        v.sort_unstable();
        v
    }

    #[test]
    fn figure2_alignment_scenario() {
        // Q1: select B where A < 3; Q2: select C where A < 5;
        // Q3: select B, C where A < 4 — maps must be aligned.
        let base = fig2_table();
        let mut s = MapSet::new(0, base.num_rows(), HashSet::new());
        let lt = |v| RangePred::less(crackdb_columnstore::types::Bound::exclusive(v));

        let r1 = s.sideways_select(&base, 1, &lt(3));
        assert_eq!(sorted(s.view_tail(1, r1).to_vec()), vec![11, 21]);

        let r2 = s.sideways_select(&base, 2, &lt(5));
        assert_eq!(sorted(s.view_tail(2, r2).to_vec()), vec![12, 22, 32, 42]);

        // Q3: both maps used; results must be positionally aligned.
        let rb = s.sideways_select(&base, 1, &lt(4));
        let rc = s.sideways_select(&base, 2, &lt(4));
        assert_eq!(rb, rc, "aligned maps produce identical areas");
        let b_vals = s.view_tail(1, rb).to_vec();
        let c_vals = s.view_tail(2, rc).to_vec();
        assert_eq!(sorted(b_vals.clone()), vec![11, 21, 31]);
        // Positional alignment: b and c of the same tuple share position.
        for (b, c) in b_vals.iter().zip(&c_vals) {
            assert_eq!(b + 1, *c, "tuple identity preserved positionally");
        }
    }

    #[test]
    fn maps_and_heads_stay_consistent() {
        let base = fig2_table();
        let mut s = MapSet::new(0, base.num_rows(), HashSet::new());
        for pred in [
            RangePred::open(1, 5),
            RangePred::open(2, 7),
            RangePred::open(0, 3),
            RangePred::point(6),
        ] {
            let r1 = s.sideways_select(&base, 1, &pred);
            let r2 = s.sideways_select(&base, 2, &pred);
            assert_eq!(r1, r2);
            s.map(1).unwrap().arr.check_partitioning();
            s.map(2).unwrap().arr.check_partitioning();
            // Heads of both maps are identical after alignment.
            assert_eq!(s.map(1).unwrap().arr.head(), s.map(2).unwrap().arr.head());
        }
    }

    #[test]
    fn conjunctive_bitvec_plan() {
        // select C where 1 < A < 8 and 20 < B < 70 over fig2.
        let base = fig2_table();
        let mut s = MapSet::new(0, base.num_rows(), HashSet::new());
        let head_pred = RangePred::open(1, 8);
        let (_, mut bv) = s.select_create_bv(&base, 1, &head_pred, &RangePred::open(20, 70));
        let mut out = Vec::new();
        s.reconstruct_block(&base, 2, &head_pred, &bv)
            .append_to(&mut out);
        // Qualifying tuples: A in {2..7}\{1,8} with B in (20,70):
        // A=7(B=71 no), A=4(41 yes), A=2(21 yes), A=3(31 yes), A=6(61 yes).
        assert_eq!(sorted(out), vec![22, 32, 42, 62]);

        // Refine further with a predicate on C.
        s.select_refine_bv(&base, 2, &head_pred, &RangePred::open(30, 50), &mut bv);
        let mut out2 = Vec::new();
        s.reconstruct_block(&base, 2, &head_pred, &bv)
            .append_to(&mut out2);
        assert_eq!(sorted(out2), vec![32, 42]);
    }

    #[test]
    fn disjunctive_bitvec_plan() {
        // select C where A < 2 or B > 70 over fig2.
        let base = fig2_table();
        let mut s = MapSet::new(0, base.num_rows(), HashSet::new());
        let head_pred = RangePred::less(crackdb_columnstore::types::Bound::exclusive(2));
        let (_, mut bv) = s.disj_create_bv(&base, &[1], &head_pred);
        s.disj_refine_bv(
            &base,
            1,
            &head_pred,
            &RangePred::greater(crackdb_columnstore::types::Bound::exclusive(70)),
            &mut bv,
        );
        let mut out = Vec::new();
        s.disj_reconstruct_block(&base, 2, &head_pred, &bv)
            .append_to(&mut out);
        // A=1 qualifies (A<2); B=71 (A=7), B=81 (A=8) qualify via B>70.
        assert_eq!(sorted(out), vec![12, 72, 82]);
    }

    /// Regression: a staged update relevant only to a *non-head*
    /// OR-predicate must still be visible to a disjunctive pass. The
    /// old pred-scoped flush left the tuple staged — an inserted row
    /// was missing from the map entirely, a deleted one kept setting
    /// bits via its tail values.
    #[test]
    fn disjunction_merges_updates_matching_other_predicates() {
        let mut base = fig2_table();
        let mut s = MapSet::new(0, base.num_rows(), HashSet::new());
        // head pred on A; the "other" predicate filters on B via refine.
        let head_pred = RangePred::open(0, 3); // a in {1, 2}
        let b_pred = RangePred::open(900, 1100);
        // Insert (a=100, b=1000, c=42): matches only the B predicate.
        let key = base.append_row(&[100, 1000, 42]);
        s.stage_insert(key);
        let (_, mut bv) = s.disj_create_bv(&base, &[1], &head_pred);
        s.disj_refine_bv(&base, 1, &head_pred, &b_pred, &mut bv);
        let mut out = Vec::new();
        s.disj_reconstruct_block(&base, 2, &head_pred, &bv)
            .append_to(&mut out);
        assert!(out.contains(&42), "insert matching only the B pred seen");
        assert_eq!(s.staged(), 0, "disjunctions merge every staged update");

        // And the deletion direction: delete that row; it must stop
        // contributing although its head value matches no A range.
        s.stage_delete(100, key);
        let (_, mut bv) = s.disj_create_bv(&base, &[1], &head_pred);
        s.disj_refine_bv(&base, 1, &head_pred, &b_pred, &mut bv);
        let mut out = Vec::new();
        s.disj_reconstruct_block(&base, 2, &head_pred, &bv)
            .append_to(&mut out);
        assert!(!out.contains(&42), "deleted tuple no longer contributes");
    }

    #[test]
    fn select_keys_matches_scan() {
        let base = fig2_table();
        let mut s = MapSet::new(0, base.num_rows(), HashSet::new());
        let pred = RangePred::open(2, 7);
        let range = s.select_key_area(&base, &pred);
        let mut keys = s.key_map().unwrap().arr.view(range).1.to_vec();
        keys.sort_unstable();
        let expected = crackdb_columnstore::ops::select::select(base.column(0), &pred);
        assert_eq!(keys, expected);
    }

    #[test]
    fn inserts_merge_on_demand_and_align() {
        let mut base = fig2_table();
        let mut s = MapSet::new(0, base.num_rows(), HashSet::new());
        let pred = RangePred::open(1, 5);
        s.sideways_select(&base, 1, &pred);

        // Insert tuple (a=4, b=999, c=998).
        let key = base.append_row(&[4, 999, 998]);
        s.stage_insert(key);

        // A query in range merges it; first on map B only.
        let r = s.sideways_select(&base, 1, &pred);
        assert!(s.view_tail(1, r).contains(&999));

        // Map C created later must still align and contain the insert.
        let rc = s.sideways_select(&base, 2, &pred);
        assert_eq!(r, rc);
        assert!(s.view_tail(2, rc).contains(&998));
        // Positional identity.
        let b_pos = s.view_tail(1, r).iter().position(|&v| v == 999);
        let c_pos = s.view_tail(2, rc).iter().position(|&v| v == 998);
        assert_eq!(b_pos, c_pos);
    }

    #[test]
    fn inserts_out_of_range_stay_staged() {
        let mut base = fig2_table();
        let mut s = MapSet::new(0, base.num_rows(), HashSet::new());
        let key = base.append_row(&[100, 1000, 1001]);
        s.stage_insert(key);
        let r = s.sideways_select(&base, 1, &RangePred::open(1, 5));
        assert!(!s.view_tail(1, r).contains(&1000));
        assert_eq!(s.staged(), 1);
        // Now query the range containing it.
        let r2 = s.sideways_select(&base, 1, &RangePred::open(50, 200));
        assert!(s.view_tail(1, r2).contains(&1000));
        assert_eq!(s.staged(), 0);
    }

    #[test]
    fn deletes_merge_via_key_map() {
        let base = fig2_table();
        let mut s = MapSet::new(0, base.num_rows(), HashSet::new());
        let pred = RangePred::open(1, 5);
        s.sideways_select(&base, 1, &pred);
        s.sideways_select(&base, 2, &pred);

        // Delete tuple with key 3 (a=2, b=21, c=22). The key map is the
        // first structure to cross the batch, so it resolves it by key.
        s.stage_delete(2, 3);
        let rk = s.select_key_area(&base, &pred);
        assert!(!s.key_map().unwrap().arr.view(rk).1.contains(&3));

        let r = s.sideways_select(&base, 1, &pred);
        assert!(!s.view_tail(1, r).contains(&21));
        let rc = s.sideways_select(&base, 2, &pred);
        assert_eq!(r, rc);
        assert!(!s.view_tail(2, rc).contains(&22));
        // Maps still aligned.
        assert_eq!(s.map(1).unwrap().arr.head(), s.map(2).unwrap().arr.head());
        s.map(1).unwrap().arr.check_partitioning();
    }

    #[test]
    fn deletes_resolve_by_value_on_the_first_map() {
        let base = fig2_table();
        let mut s = MapSet::new(0, base.num_rows(), HashSet::new());
        let pred = RangePred::open(1, 5);
        s.sideways_select(&base, 1, &pred);
        s.sideways_select(&base, 2, &pred);
        // Delete tuple with key 3 (a=2, b=21, c=22): unique on (a, b),
        // so map B resolves the batch itself and map C replays it.
        s.stage_delete(2, 3);
        let r = s.sideways_select(&base, 1, &pred);
        assert!(!s.view_tail(1, r).contains(&21));
        let rc = s.sideways_select(&base, 2, &pred);
        assert_eq!(r, rc);
        assert_eq!(sorted(s.view_tail(2, rc).to_vec()), vec![32, 42]);
        assert!(s.key_map().is_none(), "no key map for a unique batch");
        assert_eq!(s.check_aligned(), Ok(()));
    }

    /// Keys 0 and 1 are twins on (a, b) and differ on c. A repeated
    /// delete of key 0 once it is merged must not reach a batch: value
    /// resolution would find key 1 as the one tuple equal on (a, b).
    #[test]
    fn repeated_deletes_are_idempotent() {
        let mut base = Table::new();
        base.add_column("a", Column::new(vec![5, 5, 3]));
        base.add_column("b", Column::new(vec![50, 50, 30]));
        base.add_column("c", Column::new(vec![1, 2, 3]));
        let mut s = MapSet::new(0, 3, HashSet::from([2]));
        let all = RangePred::all();
        s.sideways_select(&base, 1, &all);
        s.stage_delete(3, 2);
        assert_eq!(s.staged(), 0, "excluded at creation");
        s.stage_delete(5, 0);
        s.stage_delete(5, 0);
        assert_eq!(s.staged(), 1, "staged once");
        s.sideways_select(&base, 1, &all);
        assert!(s.key_map().is_some(), "twins on (a, b) need the key map");
        s.stage_delete(5, 0);
        assert_eq!(s.staged(), 0, "merged already");
        s.sideways_select(&base, 1, &all);
        let rc = s.sideways_select(&base, 2, &all);
        assert_eq!(s.view_tail(2, rc), &[2], "key 1 survives");
        assert_eq!(s.check_aligned(), Ok(()));
    }

    #[test]
    fn mixed_updates_keep_alignment() {
        let mut base = fig2_table();
        let mut s = MapSet::new(0, base.num_rows(), HashSet::new());
        let all = RangePred::all();
        s.sideways_select(&base, 1, &RangePred::open(2, 6));
        let k1 = base.append_row(&[5, 501, 502]);
        s.stage_insert(k1);
        s.stage_delete(7, 0);
        s.sideways_select(&base, 1, &all);
        let k2 = base.append_row(&[3, 301, 302]);
        s.stage_insert(k2);
        s.sideways_select(&base, 1, &RangePred::open(0, 9));
        // Map C created last replays everything.
        let rc = s.sideways_select(&base, 2, &all);
        let rb = s.sideways_select(&base, 1, &all);
        assert_eq!(rb, rc);
        assert_eq!(s.map(1).unwrap().arr.head(), s.map(2).unwrap().arr.head());
        let c_vals = s.view_tail(2, rc).to_vec();
        assert!(c_vals.contains(&502) && c_vals.contains(&302));
        assert!(!c_vals.contains(&72), "deleted tuple gone");
        assert_eq!(c_vals.len(), 8); // 7 original + 2 inserts - 1 delete
    }

    #[test]
    fn estimate_improves_with_cracking() {
        let vals: Vec<Val> = (0..1000).map(|i| (i * 37) % 1000).collect();
        let mut t = Table::new();
        t.add_column("a", Column::new(vals));
        t.add_column("b", Column::new((0..1000).collect()));
        let mut s = MapSet::new(0, 1000, HashSet::new());
        let pred = RangePred::open(100, 300);
        let naive = s.estimate(&pred, 1000, (0, 1000));
        assert!(
            (naive - 200.0).abs() < 20.0,
            "uniform estimate ~200, got {naive}"
        );
        s.sideways_select(base_ref(&t), 1, &pred);
        let exact = s.estimate(&pred, 1000, (0, 1000));
        // After cracking by exactly this predicate the estimate is exact.
        let true_count = crackdb_columnstore::ops::select::count(t.column(0), &pred);
        assert!((exact - true_count as f64).abs() < 1e-9);
    }

    fn base_ref(t: &Table) -> &Table {
        t
    }

    /// Sibling maps must stay physically aligned and produce
    /// scan-identical answers, with updates interleaved.
    #[test]
    fn maps_stay_aligned_and_correct() {
        let mut seed = 99u64;
        let mut next = |m: i64| -> i64 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as i64).rem_euclid(m)
        };
        let n = 3000usize;
        let mut base = Table::new();
        base.add_column("a", Column::new((0..n).map(|_| next(1000)).collect()));
        base.add_column("b", Column::new((0..n as Val).collect()));
        base.add_column("c", Column::new((0..n as Val).map(|v| v * 2).collect()));
        let mut s = MapSet::new(0, n, HashSet::new());
        let mut tombstones: Vec<RowId> = Vec::new();
        for q in 0..25 {
            let lo = next(950);
            let pred = RangePred::open(lo, lo + 50);
            if q % 5 == 4 {
                let key = base.append_row(&[next(1000), 10_000 + q, 20_000 + q]);
                s.stage_insert(key);
                let victim = (q % 7) as RowId;
                if !tombstones.contains(&victim) {
                    s.stage_delete(base.column(0).get(victim), victim);
                    tombstones.push(victim);
                }
            }
            // Alternate which map cracks first; the other aligns.
            let (first, second) = if q % 2 == 0 { (1, 2) } else { (2, 1) };
            let r1 = s.sideways_select(&base, first, &pred);
            let r2 = s.sideways_select(&base, second, &pred);
            assert_eq!(r1, r2, "areas agree at query {q}");
            assert_eq!(
                s.map(1).unwrap().arr.head(),
                s.map(2).unwrap().arr.head(),
                "heads aligned at query {q}"
            );
            s.map(1).unwrap().arr.check_partitioning();
            // The area matches a scan of the live rows.
            let mut got = s.view_tail(1, r1).to_vec();
            got.sort_unstable();
            let mut expected: Vec<Val> = (0..base.num_rows() as RowId)
                .filter(|k| !tombstones.contains(k))
                .filter(|&k| pred.matches(base.column(0).get(k)))
                .map(|k| base.column(1).get(k))
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "query {q} results");
        }
        // The table is far below the prepartition threshold, so no
        // advisory pivots appear.
        assert_eq!(s.map(1).unwrap().arr.index().advisory_count(), 0);
    }

    #[test]
    fn groups_merge_only_maps_one_query_uses() {
        let mut base = fig2_table();
        base.add_column("d", Column::new(vec![73, 43, 13, 23, 83, 33, 63]));
        let mut s = MapSet::new(0, base.num_rows(), HashSet::new());
        let groups = |s: &MapSet| {
            let mut g: Vec<Vec<usize>> = s.groups().iter().map(|g| g.tail_attrs.clone()).collect();
            g.iter_mut().for_each(|attrs| attrs.sort_unstable());
            g.sort();
            g
        };
        s.select_maps(&base, &[1, 2], &RangePred::open(1, 5));
        // Map 1 is not used: its group is cracked apart, map 3 is seeded
        // alone, and both stay aligned row by row.
        let r = s.select_maps(&base, &[2, 3], &RangePred::open(2, 7));
        assert_eq!(groups(&s), vec![vec![1, 2], vec![3]]);
        let (c, d) = (s.view_tail(2, r), s.view_tail(3, r));
        assert!(c.len() == 3 && c.iter().zip(d).all(|(c, d)| d - c == 1));
        s.select_maps(&base, &[1, 2, 3], &RangePred::open(0, 6));
        assert_eq!(groups(&s), vec![vec![1, 2, 3]]);
        assert_eq!(s.check_aligned(), Ok(()));
    }

    #[test]
    fn drop_and_recreate() {
        let base = fig2_table();
        let mut s = MapSet::new(0, base.num_rows(), HashSet::new());
        let pred = RangePred::open(1, 5);
        s.sideways_select(&base, 1, &pred);
        s.sideways_select(&base, 2, &pred);
        assert_eq!(s.tuples(), 14, "two one-tail groups are two maps");
        assert_eq!(s.drop_map(2), 7);
        assert!(!s.has_map(2));
        // Recreate on demand, still correct and aligned.
        let rc = s.sideways_select(&base, 2, &pred);
        let rb = s.sideways_select(&base, 1, &pred);
        assert_eq!(rb, rc);
        assert_eq!(s.stats.maps_created, 3);
        // A query over both merges them: 7 heads and 14 tails.
        s.select_maps(&base, &[1, 2], &pred);
        assert_eq!((s.groups().len(), s.tuples()), (1, 10));
        assert_eq!(s.drop_map(1), 3, "the tail goes, the group stays");
        assert_eq!(s.map(2).map(|m| m.tail_attrs.clone()), Some(vec![2]));
        assert_eq!(s.check_aligned(), Ok(()));
    }
}
