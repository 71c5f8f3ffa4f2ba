//! Query-level orchestration over map sets: the §3.3 map-set choice via
//! self-organizing histograms, full-map storage management (the policy
//! §4.2 benchmarks partial maps against), and the partial-store wrapper.

use crate::bitvec::BitVec;
use crate::partial::PartialSet;
use crate::set::{growth, uniform_estimate, MapSet};
use crackdb_columnstore::column::Table;
use crackdb_columnstore::ops::block::Block;
use crackdb_columnstore::types::{RangePred, RowId, Val};
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;

/// Result handle of a conjunctive multi-selection: the chosen map set,
/// the cracked area, and the qualifying-bit vector over that area.
#[derive(Debug, Clone)]
pub struct ConjHandle {
    /// Head attribute of the chosen set.
    pub set_attr: usize,
    /// The chosen set's own predicate.
    pub head_pred: RangePred,
    /// Contiguous qualifying area in every aligned map of the set.
    pub range: (usize, usize),
    /// Bits over `range`: set = tuple satisfies all predicates.
    pub bv: Option<BitVec>,
}

impl ConjHandle {
    /// Number of tuples satisfying all predicates.
    pub fn result_size(&self) -> usize {
        match &self.bv {
            Some(bv) => bv.count_ones(),
            None => self.range.1 - self.range.0,
        }
    }
}

/// Registry of full-map [`MapSet`]s with histogram-driven set choice and
/// LFU whole-map storage management.
#[derive(Debug, Clone, Default)]
pub struct SidewaysStore {
    sets: HashMap<usize, MapSet>,
    /// Value domain per attribute (for zero-knowledge estimates).
    domains: HashMap<usize, (Val, Val)>,
    default_domain: (Val, Val),
    /// Storage budget in tuples across all maps (`None` = unlimited).
    pub budget: Option<usize>,
    /// Maps dropped by the storage manager (instrumentation).
    pub maps_dropped: u64,
}

impl SidewaysStore {
    /// Empty store with a default attribute value domain used for
    /// estimates before any knowledge exists.
    pub fn new(default_domain: (Val, Val)) -> Self {
        SidewaysStore {
            default_domain,
            ..Default::default()
        }
    }

    /// Register a per-attribute value domain.
    pub fn set_domain(&mut self, attr: usize, domain: (Val, Val)) {
        self.domains.insert(attr, domain);
    }

    fn domain(&self, attr: usize) -> (Val, Val) {
        self.domains
            .get(&attr)
            .copied()
            .unwrap_or(self.default_domain)
    }

    /// Access (creating on demand) the map set of `head_attr`. `excluded`
    /// are the base-table keys already deleted at creation time. Combine
    /// with [`Self::reserve`] when a budget is active.
    pub fn ensure_set(
        &mut self,
        base: &Table,
        head_attr: usize,
        excluded: &HashSet<RowId>,
    ) -> &mut MapSet {
        self.sets
            .entry(head_attr)
            .or_insert_with(|| MapSet::new(head_attr, base.num_rows(), excluded.clone()))
    }

    /// Read access to a set.
    pub fn set(&self, head_attr: usize) -> Option<&MapSet> {
        self.sets.get(&head_attr)
    }

    /// Total storage in tuples across all sets.
    pub fn tuples(&self) -> usize {
        self.sets.values().map(|s| s.tuples()).sum()
    }

    /// Stage an insertion (tuple `key` appended to base) into every
    /// existing set.
    pub fn stage_insert(&mut self, key: RowId) {
        for s in self.sets.values_mut() {
            s.stage_insert(key);
        }
    }

    /// Stage a deletion of tuple `key` into every existing set (head
    /// values read from the base table).
    pub fn stage_delete(&mut self, base: &Table, key: RowId) {
        for s in self.sets.values_mut() {
            let v = base.column(s.head_attr).get(key);
            s.stage_delete(v, key);
        }
    }

    /// §3.3 self-organizing estimate for one predicate: the attribute's
    /// map-set histogram when one exists, a uniform assumption otherwise.
    pub fn estimate(&self, base: &Table, attr: usize, pred: &RangePred) -> f64 {
        let n = base.num_rows();
        match self.sets.get(&attr) {
            Some(s) => s.estimate(pred, n, self.domain(attr)),
            None => uniform_estimate(pred, n, self.domain(attr)),
        }
    }

    /// Index into `preds` of the chosen set's predicate (`None` only for
    /// an empty slice).
    fn choose_idx(
        &self,
        base: &Table,
        preds: &[(usize, RangePred)],
        largest: bool,
    ) -> Option<usize> {
        let score =
            |&(attr, pred): &(usize, RangePred)| -> f64 { self.estimate(base, attr, &pred) };
        preds
            .iter()
            .enumerate()
            .min_by(|a, b| {
                let (sa, sb) = (score(a.1), score(b.1));
                // total_cmp: a NaN estimate (degenerate domain statistics)
                // must never panic the planner; it just sorts last.
                let ord = sa.total_cmp(&sb);
                if largest {
                    ord.reverse()
                } else {
                    ord
                }
            })
            .map(|(i, _)| i)
    }

    /// Budget hook, also for executors driving map sets directly: make
    /// room for a query that will touch the `tail_attrs` maps of set
    /// `set_attr` before the missing ones are materialized (no-op
    /// without a budget), never dropping those maps. Drops the least
    /// frequently accessed maps, one group tail at a time (§4.2's
    /// full-map policy), until what the query adds ([`growth`]) fits.
    pub fn reserve(&mut self, base: &Table, set_attr: usize, tail_attrs: &[usize]) {
        let Some(budget) = self.budget else { return };
        let pinned: HashSet<(usize, usize)> = tail_attrs.iter().map(|&t| (set_attr, t)).collect();
        loop {
            let groups = self.sets.get(&set_attr).map_or(&[][..], |s| s.groups());
            let needed = growth(groups, tail_attrs, base.num_rows());
            if needed == 0 || self.tuples() + needed <= budget {
                return;
            }
            // Tie-break on the (set, tail) identity: eviction must not
            // depend on hash-map iteration order.
            let tails = self.sets.iter().flat_map(|(&sa, s)| {
                let tails = s
                    .groups()
                    .iter()
                    .flat_map(|m| m.tail_attrs.iter().zip(&m.accesses));
                tails.map(move |(&ta, &n)| (n, sa, ta))
            });
            let unpinned = tails.filter(|&(_, sa, ta)| !pinned.contains(&(sa, ta)));
            let Some((_, sa, ta)) = unpinned.min() else {
                return;
            };
            if let Some(s) = self.sets.get_mut(&sa) {
                s.drop_map(ta);
            }
            self.maps_dropped += 1;
        }
    }

    /// Single-selection, multi-projection query: hand `consume` one
    /// block per projection attribute — the cracked area's tail values.
    pub fn select_project_blocks(
        &mut self,
        base: &Table,
        sel_attr: usize,
        pred: &RangePred,
        projs: &[usize],
        excluded: &HashSet<RowId>,
        mut consume: impl FnMut(Block<'_>),
    ) {
        self.reserve(base, sel_attr, projs);
        let s = self.ensure_set(base, sel_attr, excluded);
        let range = s.select_maps(base, projs, pred);
        for &p in projs {
            consume(s.view_block(p, range, None));
        }
    }

    /// Conjunctive multi-selection (§3.3): returns the handle describing
    /// the qualifying tuples; follow with [`Self::reconstruct_block`] per
    /// projection attribute.
    pub fn conjunctive_bv(
        &mut self,
        base: &Table,
        preds: &[(usize, RangePred)],
        extra_attrs: &[usize],
        excluded: &HashSet<RowId>,
    ) -> ConjHandle {
        let chosen = self.choose_idx(base, preds, false).unwrap_or(0);
        let (set_attr, head_pred) = match preds.get(chosen) {
            Some(&(a, p)) => (a, p),
            None => {
                // Empty predicate list: nothing qualifies.
                return ConjHandle {
                    set_attr: 0,
                    head_pred: RangePred::all(),
                    range: (0, 0),
                    bv: None,
                };
            }
        };
        let (tails, needed) = plan_maps(preds, set_attr, extra_attrs);
        self.reserve(base, set_attr, &needed);
        let s = self.ensure_set(base, set_attr, excluded);
        // The selection phase aligns and cracks every map the plan uses,
        // as one group (§3.2: one sideways operator per map), so later
        // refinements and reconstructions find them aligned. With no map
        // needed, the key map's area.
        let range = s.select_maps(base, &needed, &head_pred);
        if tails.is_empty() {
            return ConjHandle {
                set_attr,
                head_pred,
                range,
                bv: None,
            };
        }

        let (range, mut bv) = s.select_create_bv(base, tails[0].0, &head_pred, &tails[0].1);
        for (attr, pred) in &tails[1..] {
            s.select_refine_bv(base, *attr, &head_pred, pred, &mut bv);
        }
        ConjHandle {
            set_attr,
            head_pred,
            range,
            bv: Some(bv),
        }
    }

    /// `sideways.reconstruct` for a conjunctive handle: align the map of
    /// `tail_attr` and return the handle's area of it, the handle's bit
    /// vector selecting the qualifying tuples. Empty for a stale handle
    /// (the set was dropped since).
    pub fn reconstruct_block<'a>(
        &'a mut self,
        base: &Table,
        handle: &'a ConjHandle,
        tail_attr: usize,
    ) -> Block<'a> {
        let Some(s) = self.sets.get_mut(&handle.set_attr) else {
            return Block {
                attr: tail_attr,
                vals: &[],
                sel: None,
            };
        };
        let range = s.sideways_select(base, tail_attr, &handle.head_pred);
        s.view_block(tail_attr, range, handle.bv.as_ref())
    }

    /// [`Self::reconstruct_block`] one value at a time.
    pub fn reconstruct_with<F: FnMut(Val)>(
        &mut self,
        base: &Table,
        handle: &ConjHandle,
        tail_attr: usize,
        consume: F,
    ) {
        self.reconstruct_block(base, handle, tail_attr)
            .for_each(consume);
    }

    /// Aligned tail slice of one map under the handle's head predicate —
    /// gives positional access for join plans (positions are relative to
    /// `range.0`).
    pub fn tail_slice(&mut self, base: &Table, handle: &ConjHandle, tail_attr: usize) -> &[Val] {
        let Some(s) = self.sets.get_mut(&handle.set_attr) else {
            return &[]; // stale handle: the set was dropped since
        };
        let range = s.sideways_select(base, tail_attr, &handle.head_pred);
        debug_assert_eq!(range, handle.range, "aligned maps agree on the area");
        s.view_tail(tail_attr, range)
    }

    /// Disjunctive multi-selection (§3.3): all predicates on distinct
    /// attributes combined with OR; hands `consume` one whole-map block
    /// per projection attribute.
    pub fn disjunctive_project_blocks(
        &mut self,
        base: &Table,
        preds: &[(usize, RangePred)],
        projs: &[usize],
        excluded: &HashSet<RowId>,
        mut consume: impl FnMut(Block<'_>),
    ) {
        let chosen = self.choose_idx(base, preds, true).unwrap_or(0);
        let Some(&(set_attr, head_pred)) = preds.get(chosen) else {
            return; // empty predicate list: nothing qualifies
        };
        let (tails, needed) = plan_maps(preds, set_attr, projs);
        self.reserve(base, set_attr, &needed);
        let s = self.ensure_set(base, set_attr, excluded);

        // Every needed map (or the head attribute's own when none is).
        let first = if needed.is_empty() {
            vec![set_attr]
        } else {
            needed
        };
        let (_, mut bv) = s.disj_create_bv(base, &first, &head_pred);
        for (attr, pred) in &tails {
            s.disj_refine_bv(base, *attr, &head_pred, pred, &mut bv);
        }
        for &p in projs {
            consume(s.disj_reconstruct_block(base, p, &head_pred, &bv));
        }
    }
}

/// The maps a plan on set `set_attr` uses: its residual predicates (those
/// on other attributes), and their attributes followed by the `extra`
/// ones (fetched or aggregated), without repeats.
pub fn plan_maps(
    preds: &[(usize, RangePred)],
    set_attr: usize,
    extra: &[usize],
) -> (Vec<(usize, RangePred)>, Vec<usize>) {
    let tails: Vec<(usize, RangePred)> = preds
        .iter()
        .filter(|(a, _)| *a != set_attr)
        .cloned()
        .collect();
    let mut needed: Vec<usize> = tails.iter().map(|(a, _)| *a).collect();
    for &a in extra {
        if !needed.contains(&a) {
            needed.push(a);
        }
    }
    (tails, needed)
}

/// Registry of [`PartialSet`]s sharing one global storage budget.
#[derive(Debug, Clone, Default)]
pub struct PartialStore {
    sets: HashMap<usize, PartialSet>,
    /// Global chunk budget in tuples (`None` = unlimited).
    pub budget: Option<usize>,
    /// Head-drop policy forwarded to sets.
    pub head_drop_threshold: Option<usize>,
    domains: HashMap<usize, (Val, Val)>,
    default_domain: (Val, Val),
    /// Every key deleted so far: sets created later must exclude them
    /// from their chunk-map seed (existing sets merge them lazily per
    /// area, §3.5).
    deleted: HashSet<RowId>,
}

impl PartialStore {
    /// Empty store.
    pub fn new(default_domain: (Val, Val)) -> Self {
        PartialStore {
            default_domain,
            ..Default::default()
        }
    }

    /// Register a per-attribute value domain (set-choice estimates).
    pub fn set_domain(&mut self, attr: usize, domain: (Val, Val)) {
        self.domains.insert(attr, domain);
    }

    /// Does nothing: the storage manager drops evicted chunks (§4.1).
    /// Kept only because `benchmark/src/sut.rs` calls it; ROADMAP item 1
    /// deletes it.
    pub fn enable_spill(&mut self, _base_dir: std::path::PathBuf) {}

    /// Aggregate instrumentation counters across all sets.
    pub fn stats_sum(&self) -> crate::partial::PartialStats {
        let mut acc = crate::partial::PartialStats::default();
        for s in self.sets.values() {
            acc.merge(&s.stats);
        }
        acc
    }

    fn domain(&self, attr: usize) -> (Val, Val) {
        self.domains
            .get(&attr)
            .copied()
            .unwrap_or(self.default_domain)
    }

    /// Zero-knowledge estimate for one predicate: partial sets keep no
    /// cross-query histogram, so §4's set choice uses the uniform domain
    /// assumption.
    pub fn estimate(&self, base: &Table, attr: usize, pred: &RangePred) -> f64 {
        uniform_estimate(pred, base.num_rows(), self.domain(attr))
    }

    /// Total chunk storage across all sets.
    pub fn usage(&self) -> usize {
        self.sets.values().map(|s| s.usage()).sum()
    }

    /// Read access to a set.
    pub fn set(&self, head_attr: usize) -> Option<&PartialSet> {
        self.sets.get(&head_attr)
    }

    /// Stage an insertion (tuple `key` appended to the base) into every
    /// existing set; sets created later see the row in their seed.
    pub fn stage_insert(&mut self, key: RowId) {
        for s in self.sets.values_mut() {
            s.stage_insert(key);
        }
    }

    /// Stage a deletion of tuple `key` into every existing set (head
    /// values read from the base table) and remember it for the seeds of
    /// sets created later. A repeated delete of a key is a no-op: the
    /// first one may already be merged into an area tape, and a set
    /// never holds one update both staged and merged.
    pub fn stage_delete(&mut self, base: &Table, key: RowId) {
        if !self.deleted.insert(key) {
            return;
        }
        for s in self.sets.values_mut() {
            let v = base.column(s.head_attr).get(key);
            s.stage_delete(v, key);
        }
    }

    /// Mutable access (creating on demand) with the budget share updated
    /// to the global remainder. `base` provides head values for deletions
    /// a newly created set must still exclude.
    pub fn set_mut(&mut self, base: &Table, head_attr: usize) -> &mut PartialSet {
        let other: usize = self
            .sets
            .iter()
            .filter(|(&a, _)| a != head_attr)
            .map(|(_, s)| s.usage())
            .sum();
        let budget = self.budget.map(|b| b.saturating_sub(other));
        let hd = self.head_drop_threshold;
        let deleted = &self.deleted;
        let s = self.sets.entry(head_attr).or_insert_with(|| {
            let mut s = PartialSet::new(head_attr);
            // Pre-stage past deletions: the set's chunk-map seed (taken
            // at its first query) subsumes staged deletes by exclusion.
            for &k in deleted {
                s.stage_delete(base.column(head_attr).get(k), k);
            }
            s
        });
        s.budget = budget;
        s.head_drop_threshold = hd;
        s
    }

    /// Conjunctive query with histogram-based set choice (uniform
    /// fallback), executed chunk-wise on the chosen partial set: one
    /// block per projection attribute per chunk area.
    pub fn conjunctive_project_blocks(
        &mut self,
        base: &Table,
        preds: &[(usize, RangePred)],
        projs: &[usize],
        consume: impl FnMut(Block<'_>),
    ) {
        let n = base.num_rows();
        let Some(&(chosen, head_pred)) = preds.iter().min_by(|a, b| {
            let sa = uniform_estimate(&a.1, n, self.domain(a.0));
            let sb = uniform_estimate(&b.1, n, self.domain(b.0));
            sa.total_cmp(&sb)
        }) else {
            return; // empty predicate list: nothing qualifies
        };
        let tails: Vec<(usize, RangePred)> = preds
            .iter()
            .filter(|(a, _)| *a != chosen)
            .cloned()
            .collect();
        self.set_mut(base, chosen)
            .conjunctive_project_blocks(base, &head_pred, &tails, projs, consume)
    }

    /// [`Self::conjunctive_project_blocks`] one value at a time, as
    /// `consume(attr, value)`. It cannot fail; the `Result` is kept only
    /// because `benchmark/src/sut.rs` calls `map_err` on it, and ROADMAP
    /// item 1 deletes it.
    pub fn conjunctive_project_with<F: FnMut(usize, Val)>(
        &mut self,
        base: &Table,
        preds: &[(usize, RangePred)],
        projs: &[usize],
        mut consume: F,
    ) -> Result<(), Infallible> {
        self.conjunctive_project_blocks(base, preds, projs, |b| b.for_each(|v| consume(b.attr, v)));
        Ok(())
    }

    /// Disjunctive query executed chunk-wise on the *least* selective
    /// predicate's set (so its own cracked areas stay large and the scan
    /// outside them small — the §3.3 disjunctive set choice).
    pub fn disjunctive_project_blocks(
        &mut self,
        base: &Table,
        preds: &[(usize, RangePred)],
        projs: &[usize],
        consume: impl FnMut(Block<'_>),
    ) {
        let n = base.num_rows();
        let Some(&(chosen, _)) = preds.iter().max_by(|a, b| {
            let sa = uniform_estimate(&a.1, n, self.domain(a.0));
            let sb = uniform_estimate(&b.1, n, self.domain(b.0));
            sa.total_cmp(&sb)
        }) else {
            return; // empty predicate list: nothing qualifies
        };
        self.set_mut(base, chosen)
            .disjunctive_project_blocks(base, preds, projs, consume)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_columnstore::column::Column;

    fn table() -> Table {
        let mut t = Table::new();
        // attr 0: 0..100; attr 1: reversed; attr 2: doubled.
        t.add_column("a", Column::new((0..100).collect()));
        t.add_column("b", Column::new((0..100).rev().collect()));
        t.add_column("c", Column::new((0..100).map(|v| v * 2).collect()));
        t
    }

    #[test]
    fn choose_most_selective_set() {
        let store = SidewaysStore::new((0, 100));
        let base = table();
        let preds = vec![
            (0usize, RangePred::open(0, 50)),  // ~50%
            (1usize, RangePred::open(10, 15)), // ~5%
        ];
        assert_eq!(store.choose_idx(&base, &preds, false), Some(1));
        assert_eq!(store.choose_idx(&base, &preds, true), Some(0));
    }

    #[test]
    fn conjunctive_roundtrip() {
        let mut store = SidewaysStore::new((0, 100));
        let base = table();
        let none = HashSet::new();
        let preds = vec![
            (0usize, RangePred::open(20, 40)),
            (1usize, RangePred::open(50, 75)),
        ];
        let h = store.conjunctive_bv(&base, &preds, &[2], &none);
        // a in (20,40) => rows 21..=39; b = 99-row in (50,75) => rows 25..=48.
        // Intersection rows 25..=39 => 15 rows.
        assert_eq!(h.result_size(), 15);
        let mut out = Vec::new();
        store.reconstruct_with(&base, &h, 2, |v| out.push(v));
        out.sort_unstable();
        let expected: Vec<Val> = (25..40).map(|r| r * 2).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn disjunctive_roundtrip() {
        let mut store = SidewaysStore::new((0, 100));
        let base = table();
        let none = HashSet::new();
        let preds = vec![
            (0usize, RangePred::open(-1, 5)),   // rows 0..=4
            (1usize, RangePred::open(94, 100)), // b in (94,100) => rows 0..=4... careful
        ];
        // b = 99-row in (94,100) => row in 0..=4 — same rows; union = 5 rows.
        let mut out = Vec::new();
        store.disjunctive_project_blocks(&base, &preds, &[2], &none, |b| b.append_to(&mut out));
        out.sort_unstable();
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn full_map_budget_drops_lfu() {
        let mut store = SidewaysStore::new((0, 100));
        store.budget = Some(250); // room for 2.5 maps of 100
        let base = table();
        let none = HashSet::new();
        let pred = RangePred::open(10, 30);
        store.select_project_blocks(&base, 0, &pred, &[1], &none, |_| {});
        store.select_project_blocks(&base, 0, &pred, &[1], &none, |_| {});
        store.select_project_blocks(&base, 0, &pred, &[2], &none, |_| {});
        assert!(store.tuples() <= 250);
        // A third projection attribute forces an eviction.
        store.select_project_blocks(&base, 1, &pred, &[2], &none, |_| {});
        assert!(store.tuples() <= 250 + 100);
        assert!(store.maps_dropped >= 1);
    }

    #[test]
    fn full_map_budget_reserves_what_a_group_adds() {
        let mut base = table();
        base.add_column("d", Column::new((0..100).map(|v| v * 3).collect()));
        let mut store = SidewaysStore::new((0, 300));
        let (none, pred) = (HashSet::new(), RangePred::open(10, 30));
        // A new two-tail group over 100 tuples counts 150: it fits a
        // budget of exactly 150.
        store.budget = Some(150);
        store.select_project_blocks(&base, 0, &pred, &[1, 2], &none, |_| {});
        assert_eq!((store.tuples(), store.maps_dropped), (150, 0));
        // A third map joining that group adds 50.
        store.budget = Some(200);
        store.select_project_blocks(&base, 0, &pred, &[1, 2, 3], &none, |_| {});
        assert_eq!((store.tuples(), store.maps_dropped), (200, 0));
        // A one-tail map of another set needs 100: two tails of 50 go,
        // the least used first.
        store.select_project_blocks(&base, 1, &pred, &[2], &none, |_| {});
        assert_eq!((store.tuples(), store.maps_dropped), (200, 2));
        assert_eq!(store.set(0).map(|s| s.map_attrs()), Some(vec![2]));
    }

    #[test]
    fn partial_store_updates_reach_late_created_sets() {
        let mut store = PartialStore::new((0, 100));
        let mut base = table();
        // Query set 0 first so it exists before the updates.
        let preds0 = vec![(0usize, RangePred::open(10, 30))];
        let Ok(()) = store.conjunctive_project_with(&base, &preds0, &[2], |_, _| {});
        // Insert one row, delete one original row (key 20: a=20, b=79).
        let key = base.append_row(&[25, 60, 999]);
        store.stage_insert(key);
        store.stage_delete(&base, 20);
        // Set 0 (existing) merges lazily.
        let mut out = Vec::new();
        let Ok(()) = store.conjunctive_project_with(&base, &preds0, &[2], |_, v| out.push(v));
        assert!(out.contains(&999), "staged insert merged on access");
        assert!(!out.contains(&40), "staged delete merged on access");
        // Set 1 is created only now: its seed must exclude the deleted
        // key and include the inserted row.
        let preds1 = vec![(1usize, RangePred::open(55, 80))];
        let mut out = Vec::new();
        let Ok(()) = store.conjunctive_project_with(&base, &preds1, &[2], |_, v| out.push(v));
        assert!(out.contains(&999), "late set sees the inserted row");
        assert!(!out.contains(&40), "late set excludes the deleted row");
    }

    #[test]
    fn partial_store_disjunctive_matches_naive() {
        let mut store = PartialStore::new((0, 100));
        let base = table();
        let preds = vec![
            (0usize, RangePred::open(-1, 5)),   // rows 0..=4
            (1usize, RangePred::open(94, 100)), // b = 99-row in (94,100) → rows 0..=4
        ];
        let mut out = Vec::new();
        store.disjunctive_project_blocks(&base, &preds, &[2], |b| b.append_to(&mut out));
        out.sort_unstable();
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn partial_store_conjunctive() {
        let mut store = PartialStore::new((0, 100));
        let base = table();
        let preds = vec![
            (0usize, RangePred::open(20, 40)),
            (1usize, RangePred::open(50, 75)),
        ];
        let mut out = Vec::new();
        let Ok(()) = store.conjunctive_project_with(&base, &preds, &[2], |_, v| out.push(v));
        out.sort_unstable();
        let expected: Vec<Val> = (25..40).map(|r| r * 2).collect();
        assert_eq!(out, expected);
        assert!(store.usage() > 0);
    }
}
