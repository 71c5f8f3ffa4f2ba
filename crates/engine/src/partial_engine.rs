//! Partial sideways cracking as an executor: the §4 system under a
//! storage budget — now a first-class engine. Conjunctions run the fused
//! chunk-wise pass of §4.1; disjunctions run the all-areas union pass;
//! updates are staged globally and merged chunk-wise on access (§3.5);
//! equi-joins reuse the partitioned [`cracker_join`] of §3.4 over the
//! chunk-wise selection results.

use crate::exec::{self, AccessPath, RestrictCtx, RowSet};
use crate::query::{
    finish_join_aggs, Engine, JoinQuery, JoinSide, QueryOutput, SelectQuery, Timings,
};
use crackdb_columnstore::column::Table;
use crackdb_columnstore::ops::block::Block;
use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_core::{cracker_join, PartialStore};
use crackdb_cracking::crack::BoundKind;
use crackdb_cracking::CrackedArray;
use std::time::Instant;

/// Partial-sideways-cracking executor.
pub struct PartialEngine {
    base: Table,
    second: Option<Table>,
    store: PartialStore,
    second_store: PartialStore,
}

impl PartialEngine {
    /// Single-table engine with optional storage budget (tuples).
    pub fn new(base: Table, domain: (Val, Val), budget: Option<usize>) -> Self {
        let mut store = PartialStore::new(domain);
        store.budget = budget;
        PartialEngine {
            base,
            second: None,
            store,
            second_store: PartialStore::new(domain),
        }
    }

    /// Two-table engine (join experiments). The second table gets its own
    /// (unbudgeted) partial store.
    pub fn with_second(
        base: Table,
        second: Table,
        domain: (Val, Val),
        budget: Option<usize>,
    ) -> Self {
        PartialEngine {
            second: Some(second),
            ..PartialEngine::new(base, domain, budget)
        }
    }

    /// [`Self::new`]; `dir` is ignored. Kept only because
    /// `benchmark/src/sut.rs` calls it; ROADMAP item 1 deletes it.
    pub fn with_spill_dir(
        base: Table,
        domain: (Val, Val),
        budget: Option<usize>,
        _dir: impl Into<std::path::PathBuf>,
    ) -> Self {
        PartialEngine::new(base, domain, budget)
    }

    /// Register the value domain of one primary-table attribute; its
    /// selectivity estimates use it instead of the constructor's domain.
    pub(crate) fn set_domain(&mut self, attr: usize, domain: (Val, Val)) {
        self.store.set_domain(attr, domain);
    }

    /// Access to the store (instrumentation: usage, chunk stats).
    pub fn store(&self) -> &PartialStore {
        &self.store
    }
}

/// One reconstructed join side: the join-attribute values plus the
/// `(attr, column)` pairs needed by the side's aggregates.
type SideRows = (Vec<Val>, Vec<(usize, Vec<Val>)>);

/// Chunk-wise selection + reconstruction of one join side: the fused
/// conjunctive pass hands on each needed attribute's qualifying values in
/// a positionally consistent order (same tuples, same order per
/// attribute), so zipping the columns recovers the side's tuples.
/// Returns `(join values, (attr, column) pairs)`.
fn side_rows(store: &mut PartialStore, base: &Table, side: &JoinSide) -> SideRows {
    let mut attrs = vec![side.join_attr];
    for &(a, _) in &side.aggs {
        if !attrs.contains(&a) {
            attrs.push(a);
        }
    }
    let preds: Vec<(usize, RangePred)> = if side.preds.is_empty() {
        vec![(side.join_attr, RangePred::all())]
    } else {
        side.preds.clone()
    };
    let mut cols: Vec<(usize, Vec<Val>)> = attrs.iter().map(|&a| (a, Vec::new())).collect();
    store.conjunctive_project_blocks(base, &preds, &attrs, |b| {
        for (a, col) in cols.iter_mut() {
            if *a == b.attr {
                b.append_to(col);
            }
        }
    });
    let join_vals = cols
        .iter()
        .find(|(a, _)| *a == side.join_attr)
        .expect("join attribute collected")
        .1
        .clone();
    (join_vals, cols)
}

/// Pre-partition a join input at shared equal-width cut points so
/// [`cracker_join`]'s partition pass pairs small, value-disjoint segments
/// (cache-resident hash tables) instead of one global table.
fn precrack(arr: &mut CrackedArray<RowId>, lo: Val, hi: Val, parts: Val) {
    if arr.is_empty() || hi <= lo {
        return;
    }
    let width = ((hi - lo) / parts).max(1);
    let mut v = lo + width;
    while v < hi {
        arr.ensure_boundary((v, BoundKind::Lt));
        v += width;
    }
}

impl AccessPath for PartialEngine {
    fn name(&self) -> &'static str {
        "Partial Sideways Cracking"
    }

    fn estimate(&self, attr: usize, pred: &RangePred) -> Option<f64> {
        Some(self.store.estimate(&self.base, attr, pred))
    }

    fn restrict(&mut self, attr: usize, pred: &RangePred, ctx: &RestrictCtx) -> RowSet {
        // Partial maps interleave selection, alignment, fetching and
        // reconstruction chunk-wise (§4.1): no materialized row set ever
        // exists, so the plan is recorded and executed fused in `fetch`.
        if ctx.disjunctive {
            return RowSet::DeferredUnion {
                preds: vec![(attr, *pred)],
            };
        }
        RowSet::Deferred {
            head: (attr, *pred),
            residual: Vec::new(),
        }
    }

    fn refine(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) {
        let RowSet::Deferred { residual, .. } = rows else {
            unreachable!("partial conjunctive plans are deferred")
        };
        residual.push((attr, *pred));
    }

    fn extend(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) {
        let RowSet::DeferredUnion { preds } = rows else {
            unreachable!("partial disjunctive plans are deferred unions")
        };
        preds.push((attr, *pred));
    }

    fn unrestricted(&mut self, _ctx: &RestrictCtx) -> RowSet {
        RowSet::Deferred {
            head: (0, RangePred::all()),
            residual: Vec::new(),
        }
    }

    fn fetch(&mut self, rows: &RowSet, attrs: &[usize], consume: &mut dyn FnMut(Block<'_>)) {
        match rows {
            // The fused chunk-wise pass: one traversal merges pending
            // updates, materializes, aligns and cracks the touched chunks
            // of every attribute and hands on one block per attribute per
            // chunk area.
            RowSet::Deferred { head, residual } => self
                .store
                .set_mut(&self.base, head.0)
                .conjunctive_project_blocks(&self.base, &head.1, residual, attrs, consume),
            // Union form: all areas of the least selective predicate's
            // set, one OR bit vector per area.
            RowSet::DeferredUnion { preds } => {
                let head = preds.first().map_or(0, |p| p.0);
                self.store
                    .set_mut(&self.base, head)
                    .disjunctive_project_blocks(&self.base, preds, attrs, consume)
            }
            _ => unreachable!("partial plans are deferred"),
        }
    }
}

impl Engine for PartialEngine {
    fn name(&self) -> &'static str {
        AccessPath::name(self)
    }

    fn select(&mut self, q: &SelectQuery) -> QueryOutput {
        exec::run_select(self, q)
    }

    fn join(&mut self, q: &JoinQuery) -> QueryOutput {
        let second = self.second.as_ref().expect("join needs a second table");
        let mut out = QueryOutput::default();
        let mut timings = Timings::default();

        // Selection + pre-join reconstruction, fused chunk-wise per side.
        let t0 = Instant::now();
        let (lvals, lcols) = side_rows(&mut self.store, &self.base, &q.left);
        let (rvals, rcols) = side_rows(&mut self.second_store, second, &q.right);
        timings.select = t0.elapsed();

        // §3.4 partitioned cracker join: both inputs become cracked
        // arrays over the join attribute, pre-partitioned at shared
        // equal-width cuts so each value-disjoint segment pair joins
        // through a small hash table.
        let t1 = Instant::now();
        let lo = lvals.iter().chain(&rvals).copied().min();
        let hi = lvals.iter().chain(&rvals).copied().max();
        let ln = lvals.len() as RowId;
        let rn = rvals.len() as RowId;
        let mut larr = CrackedArray::new(lvals, (0..ln).collect());
        let mut rarr = CrackedArray::new(rvals, (0..rn).collect());
        if let (Some(lo), Some(hi)) = (lo, hi) {
            precrack(&mut larr, lo, hi, 16);
            precrack(&mut rarr, lo, hi, 16);
        }
        let matched = cracker_join(&larr, &rarr);
        timings.join = t1.elapsed();
        out.rows = matched.len();

        // Post-join reconstruction: positions index the collected side
        // columns (small, already filtered — the sideways advantage).
        let t2 = Instant::now();
        let col_of = |cols: &[(usize, Vec<Val>)], attr: usize, i: RowId| -> Val {
            cols.iter()
                .find(|(a, _)| *a == attr)
                .expect("agg attribute collected")
                .1[i as usize]
        };
        out.partials =
            exec::fold_matched(&matched, &q.left, true, |attr, i| col_of(&lcols, attr, i));
        out.partials
            .extend(exec::fold_matched(&matched, &q.right, false, |attr, i| {
                col_of(&rcols, attr, i)
            }));
        out.aggs = finish_join_aggs(q, &out.partials);
        timings.post_join = t2.elapsed();
        out.timings = timings;
        out
    }

    fn insert(&mut self, row: &[Val]) {
        // §3.5: append to the base, stage everywhere; each partial set
        // merges the tuple into a chunk when a query next touches the
        // area it belongs to.
        let key = self.base.append_row(row);
        self.store.stage_insert(key);
    }

    fn delete(&mut self, key: RowId) {
        self.store.stage_delete(&self.base, key);
    }

    fn aux_tuples(&self) -> usize {
        self.store.usage() + self.second_store.usage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_columnstore::column::Column;
    use crackdb_columnstore::types::AggFunc;

    fn table() -> Table {
        let mut t = Table::new();
        t.add_column("a", Column::new((0..100).collect()));
        t.add_column("b", Column::new((0..100).map(|v| v * 3).collect()));
        t.add_column("c", Column::new((0..100).map(|v| v * 7).collect()));
        t
    }

    #[test]
    fn qi_shape_query() {
        // select C where 20 < A < 60 and 90 < B < 150.
        let mut e = PartialEngine::new(table(), (0, 100), None);
        let q = SelectQuery::project(
            vec![(0, RangePred::open(20, 60)), (1, RangePred::open(90, 150))],
            vec![2],
        );
        let out = e.select(&q);
        // B = 3a in (90,150) → a in (30,50); intersect a in (20,60) →
        // a in 31..=49 → 19 rows.
        assert_eq!(out.rows, 19);
        let mut vals = out.proj_values[0].clone();
        vals.sort_unstable();
        assert_eq!(vals, (31..50).map(|a| a * 7).collect::<Vec<_>>());
    }

    #[test]
    fn budget_holds_exactly_after_every_query() {
        let mut e = PartialEngine::new(table(), (0, 100), Some(50));
        for lo in [0, 20, 40, 60, 80] {
            let q = SelectQuery::aggregate(
                vec![(0, RangePred::open(lo, lo + 15))],
                vec![(1, AggFunc::Max), (2, AggFunc::Max)],
            );
            e.select(&q);
            assert!(
                e.aux_tuples() <= 50,
                "usage {} exceeds the budget post-query",
                e.aux_tuples()
            );
        }
    }

    #[test]
    fn disjunction_matches_scan() {
        let mut e = PartialEngine::new(table(), (0, 100), None);
        // a in (0,10) or b in (270,300) → a in 1..=9 plus a in 91..=99.
        let q = SelectQuery {
            preds: vec![(0, RangePred::open(0, 10)), (1, RangePred::open(270, 300))],
            disjunctive: true,
            aggs: vec![(2, AggFunc::Count), (2, AggFunc::Sum)],
            projs: vec![2],
        };
        let out = e.select(&q);
        assert_eq!(out.rows, 18);
        let expected: Vec<Val> = (1..10).chain(91..100).map(|a| a * 7).collect();
        let mut vals = out.proj_values[0].clone();
        vals.sort_unstable();
        assert_eq!(vals, expected);
        assert_eq!(out.aggs[0], Some(18));
        assert_eq!(out.aggs[1], Some(expected.iter().sum()));
        // Repeat — cracked chunks, same answer.
        assert_eq!(e.select(&q).aggs, out.aggs);
    }

    #[test]
    fn updates_merge_on_access() {
        let mut e = PartialEngine::new(table(), (0, 100), None);
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::open(20, 60))],
            vec![(1, AggFunc::Count), (1, AggFunc::Max)],
        );
        assert_eq!(e.select(&q).aggs, vec![Some(39), Some(59 * 3)]);
        e.insert(&[30, 999, 998]);
        e.delete(59); // a = 59, b = 177
        let out = e.select(&q);
        assert_eq!(out.aggs, vec![Some(39), Some(999)]);
        // And again after the merge settled.
        assert_eq!(e.select(&q).aggs, out.aggs);
    }

    #[test]
    fn repeated_deletes_are_idempotent() {
        // Every engine tolerates a delete of an already-deleted key; the
        // partial path must skip the unresolvable second entry silently.
        let mut e = PartialEngine::new(table(), (0, 100), None);
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::open(20, 60))],
            vec![(1, AggFunc::Count), (1, AggFunc::Sum)],
        );
        let before = e.select(&q);
        e.delete(30);
        e.delete(30);
        let out = e.select(&q);
        assert_eq!(out.aggs[0], before.aggs[0].map(|c| c - 1));
        assert_eq!(out.aggs[1], before.aggs[1].map(|s| s - 90));
        // Stays consistent on repeat.
        assert_eq!(e.select(&q).aggs, out.aggs);
        // A repeat after the first delete was merged is not staged
        // again: no update is both staged and merged.
        e.delete(30);
        let set = e.store().set(0).expect("set 0 answered the query");
        assert_eq!(set.check_invariants(), Ok(()));
        assert_eq!(set.staged(), 0);
        assert_eq!(e.select(&q).aggs, out.aggs);
    }

    #[test]
    fn join_matches_sideways() {
        let mut r = Table::new();
        r.add_column("r1", Column::new(vec![100, 200, 300, 400]));
        r.add_column("rsel", Column::new(vec![1, 2, 3, 4]));
        r.add_column("rj", Column::new(vec![7, 8, 9, 7]));
        let mut s = Table::new();
        s.add_column("s1", Column::new(vec![11, 22, 33]));
        s.add_column("ssel", Column::new(vec![5, 6, 7]));
        s.add_column("sj", Column::new(vec![7, 9, 7]));
        let mut e = PartialEngine::with_second(r, s, (0, 100), None);
        let q = JoinQuery {
            left: JoinSide {
                preds: vec![(1, RangePred::closed(2, 4))],
                join_attr: 2,
                aggs: vec![(0, AggFunc::Max)],
            },
            right: JoinSide {
                preds: vec![(1, RangePred::closed(5, 7))],
                join_attr: 2,
                aggs: vec![(0, AggFunc::Sum)],
            },
        };
        let out = e.join(&q);
        // Same scenario as the sideways test: 3 matches.
        assert_eq!(out.rows, 3);
        assert_eq!(out.aggs, vec![Some(400), Some(66)]);
    }
}
