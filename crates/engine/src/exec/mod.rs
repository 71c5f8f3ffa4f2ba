//! The shared query executor: one implementation of everything the
//! paper's five physical designs have in common, over the per-design
//! [`AccessPath`] abstraction.
//!
//! The executor owns:
//!
//! * selectivity-driven predicate ordering (§3.3/§3.6: every system
//!   evaluates from the most selective predicate; disjunctions pick the
//!   least selective head so the areas scanned outside the cracked
//!   region stay small);
//! * conjunctive / disjunctive combining, delegated per step to the
//!   path but built from the shared [`combine`] strategies;
//! * block-at-a-time reconstruction: one [`PartialAgg`] per distinct
//!   aggregated attribute, folded a [`Block`] at a time over only the
//!   statistics its functions return, and projection columns appended a
//!   block at a time;
//! * [`Timings`] phase instrumentation;
//! * the one join plan, [`run_join`], over one access path per table
//!   ([`Joined`] pairs two engines into one that answers joins).
//!
//! Queries run one at a time, as in the paper. On top, the
//! [`shard::ShardedEngine`] router splits the table row-wise into
//! shards, each a complete engine, and runs a query on them one after
//! another; the [`service::Service`] lets concurrent callers run on
//! different shards at once, the one parallelism.

pub mod combine;
pub mod join;
pub mod path;
pub mod service;
pub mod shard;

pub use join::{run_join, Joined};
pub use path::{AccessPath, JoinInput, RestrictCtx, RowSet};
pub use service::{Client, Service, ServiceError};
pub use shard::ShardedEngine;

use crate::query::{agg_attrs, agg_stats, finish_aggs, QueryOutput, SelectQuery};
use crackdb_columnstore::ops::block::{Block, PartialAgg, Stats};
use crackdb_columnstore::types::{RangePred, Val};
use std::time::Instant;

/// Order predicates by the path's selectivity estimates: ascending
/// (most selective first) for conjunctions, descending for disjunctions.
///
/// Predicates the path has *no* statistics for keep their plan
/// positions (the presorted baseline requires its head predicate to
/// stay first — its path reports no estimates at all); the predicates
/// that do have estimates are ordered among the remaining positions
/// instead of one unknown discarding all ordering.
fn order_preds<P: AccessPath + ?Sized>(
    path: &P,
    preds: &[(usize, RangePred)],
    disjunctive: bool,
) -> Vec<(usize, RangePred)> {
    if preds.len() < 2 {
        return preds.to_vec();
    }
    // `(slot, estimate)` for every estimable predicate; the sorted
    // estimable predicates are placed back into exactly these slots.
    let mut order: Vec<(usize, f64)> = preds
        .iter()
        .enumerate()
        .filter_map(|(i, (attr, pred))| Some((i, path.estimate(*attr, pred)?)))
        .collect();
    if order.len() < 2 {
        return preds.to_vec();
    }
    let slots: Vec<usize> = order.iter().map(|&(slot, _)| slot).collect();
    order.sort_by(|(_, ea), (_, eb)| {
        // total_cmp: degenerate statistics (empty tables, single-value
        // domains) must never panic the planner — a NaN simply sorts
        // last and the plan stays valid.
        let ord = ea.total_cmp(eb);
        if disjunctive {
            ord.reverse()
        } else {
            ord
        }
    });
    let mut out = preds.to_vec();
    for (&slot, &(src, _)) in slots.iter().zip(&order) {
        out[slot] = preds[src];
    }
    out
}

/// The selection phase of every plan: restrict by the first of
/// `ctx.preds` (already ordered) and refine — or, for a disjunction,
/// extend — by the rest; no predicate at all selects through
/// [`AccessPath::unrestricted`].
fn select_rows<P: AccessPath + ?Sized>(path: &mut P, ctx: &RestrictCtx) -> RowSet {
    let Some(((attr, pred), rest)) = ctx.preds.split_first() else {
        return path.unrestricted(ctx);
    };
    let mut rows = path.restrict(*attr, pred, ctx);
    for (attr, pred) in rest {
        if ctx.disjunctive {
            path.extend(&mut rows, *attr, pred, ctx);
        } else {
            path.refine(&mut rows, *attr, pred, ctx);
        }
    }
    rows
}

/// Execute a single-table query over any access path. This is the one
/// `select` implementation all five engines share.
pub fn run_select<P: AccessPath + ?Sized>(path: &mut P, q: &SelectQuery) -> QueryOutput {
    let mut out = QueryOutput::default();

    // Attributes the reconstruction phase needs, deduplicated, aggregates
    // first (matching the plan shape of §3.2: one sideways operator per
    // map in the selection phase, reconstruction after). The first
    // `nagg` are the aggregated ones, each with one partial.
    let mut fetch_attrs = agg_attrs(&q.aggs);
    let nagg = fetch_attrs.len();
    for &a in &q.projs {
        if !fetch_attrs.contains(&a) {
            fetch_attrs.push(a);
        }
    }

    let preds = order_preds(path, &q.preds, q.disjunctive);
    let ctx = RestrictCtx {
        preds: &preds,
        fetch_attrs: &fetch_attrs,
        disjunctive: q.disjunctive,
    };

    // --- Selection phase -------------------------------------------------
    let t0 = Instant::now();
    let rows = select_rows(path, &ctx);
    out.timings.select = t0.elapsed();

    // --- Reconstruction phase --------------------------------------------
    let t1 = Instant::now();
    let deferred_head = match &rows {
        RowSet::Deferred { head, .. } => Some(head.0),
        RowSet::DeferredUnion { preds } => Some(preds.first().map_or(0, |p| p.0)),
        RowSet::Keys { .. } | RowSet::Area { .. } => None,
    };
    // What each aggregated attribute's functions need folded.
    let stats: Vec<Stats> = fetch_attrs[..nagg]
        .iter()
        .map(|&a| agg_stats(&q.aggs, a))
        .collect();
    let mut answer = Answer {
        agg_attrs: &fetch_attrs[..nagg],
        projs: &q.projs,
        partials: stats.iter().map(|&s| PartialAgg::new(s)).collect(),
        stats: &stats,
        proj_values: q.projs.iter().map(|_| Vec::new()).collect(),
        // Chunk-wise plans learn the result size while reconstructing:
        // every attribute yields one value per qualifying tuple, so the
        // first one's are counted.
        counted: deferred_head.map(|head| fetch_attrs.first().copied().unwrap_or(head)),
        counted_rows: 0,
    };
    match deferred_head {
        // Chunk-wise plans run selection and reconstruction fused, in one
        // pass over all attributes. With nothing to reconstruct, the
        // result cardinality (and the adaptive reorganization) still
        // require the pass: count via the head attribute itself.
        Some(head) => {
            let attrs = match fetch_attrs.as_slice() {
                [] => std::slice::from_ref(&head),
                attrs => attrs,
            };
            path.fetch(&rows, attrs, &mut |b| answer.absorb(b));
        }
        // A materialized row set is reconstructed attribute by
        // attribute. It knows its size, so an attribute whose functions
        // need only the count, and which nothing projects, reads no
        // value.
        None => {
            for (slot, attr) in fetch_attrs.iter().enumerate() {
                let count_only =
                    slot < nagg && stats[slot] == Stats::default() && !q.projs.contains(attr);
                match rows.len() {
                    Some(n) if count_only => answer.partials[slot].count = n as i64,
                    _ => path.fetch(&rows, std::slice::from_ref(attr), &mut |b| answer.absorb(b)),
                }
            }
        }
    }

    out.aggs = finish_aggs(&q.aggs, answer.agg_attrs, &answer.partials);
    out.rows = rows.len().unwrap_or(answer.counted_rows);
    out.partials = answer.partials;
    out.proj_values = answer.proj_values;
    // Partial maps interleave selection, alignment, fetching and
    // reconstruction chunk-wise; the paper reports a single per-query
    // cost for them (under selection).
    if deferred_head.is_some() {
        out.timings.select += t1.elapsed();
    } else {
        out.timings.reconstruct = t1.elapsed();
    }
    out
}

/// What the reconstruction phase accumulates a block at a time: one
/// partial per distinct aggregated attribute (however many functions the
/// query asks of it), folding the statistics `stats` names for it, and
/// one value column per projection.
struct Answer<'q> {
    agg_attrs: &'q [usize],
    projs: &'q [usize],
    partials: Vec<PartialAgg>,
    stats: &'q [Stats],
    proj_values: Vec<Vec<Val>>,
    /// The attribute whose qualifying values are counted, if any.
    counted: Option<usize>,
    counted_rows: usize,
}

impl Answer<'_> {
    fn absorb(&mut self, b: Block<'_>) {
        if self.counted == Some(b.attr) {
            self.counted_rows += b.count();
        }
        if let Some(slot) = self.agg_attrs.iter().position(|&a| a == b.attr) {
            self.partials[slot].fold(b.vals, b.sel, self.stats[slot]);
        }
        for (vals, &p) in self.proj_values.iter_mut().zip(self.projs) {
            if p == b.attr {
                b.append_to(vals);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_columnstore::column::{Column, Table};
    use crackdb_columnstore::ops::block::gather_blocks;
    use crackdb_columnstore::types::{AggFunc, RowId};

    /// A minimal scan-based access path over one table, used to test the
    /// executor in isolation from the real engines.
    struct ScanPath {
        table: Table,
        fetch_calls: usize,
    }

    impl AccessPath for ScanPath {
        fn name(&self) -> &'static str {
            "test-scan"
        }

        fn restrict(&mut self, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) -> RowSet {
            RowSet::keys(
                crackdb_columnstore::ops::select::select(self.table.column(attr), pred),
                true,
            )
        }

        fn refine(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) {
            let RowSet::Keys { keys, .. } = rows else {
                unreachable!()
            };
            let col = self.table.column(attr);
            combine::refine_keys(keys, pred, |k| col.get(k));
        }

        fn extend(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) {
            let RowSet::Keys { keys, .. } = rows else {
                unreachable!()
            };
            *keys =
                crackdb_columnstore::ops::select::union_scan(self.table.column(attr), keys, pred);
        }

        fn unrestricted(&mut self, _ctx: &RestrictCtx) -> RowSet {
            RowSet::keys((0..self.table.num_rows() as RowId).collect(), true)
        }

        fn fetch(&mut self, rows: &RowSet, attrs: &[usize], consume: &mut dyn FnMut(Block<'_>)) {
            self.fetch_calls += 1;
            let RowSet::Keys { keys, .. } = rows else {
                unreachable!()
            };
            for &attr in attrs {
                gather_blocks(attr, self.table.column(attr).values(), keys, &mut *consume);
            }
        }
    }

    fn path() -> ScanPath {
        let mut t = Table::new();
        t.add_column("a", Column::new(vec![5, 1, 9, 3, 7]));
        t.add_column("b", Column::new(vec![50, 10, 90, 30, 70]));
        ScanPath {
            table: t,
            fetch_calls: 0,
        }
    }

    #[test]
    fn executor_runs_conjunction_with_partial_aggs() {
        let mut p = path();
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::open(2, 8))],
            vec![(1, AggFunc::Max), (1, AggFunc::Min), (0, AggFunc::Count)],
        );
        let out = run_select(&mut p, &q);
        assert_eq!(out.rows, 3);
        assert_eq!(out.aggs, vec![Some(70), Some(30), Some(3)]);
        // One fetch for attribute 1; attribute 0's count alone is the
        // key list's length, so its values are never read.
        assert_eq!(
            p.fetch_calls, 1,
            "one fetch per attribute that folds a value"
        );
    }

    #[test]
    fn executor_streams_projected_agg_attrs() {
        let mut p = path();
        let q = SelectQuery {
            preds: vec![(0, RangePred::open(2, 8))],
            disjunctive: false,
            aggs: vec![(1, AggFunc::Count)],
            projs: vec![1],
        };
        let out = run_select(&mut p, &q);
        // Attribute 1 is both aggregated and projected: one pass over
        // its blocks feeds both.
        assert_eq!(p.fetch_calls, 1);
        assert_eq!(out.aggs, vec![Some(3)]);
        let mut vals = out.proj_values[0].clone();
        vals.sort_unstable();
        assert_eq!(vals, vec![30, 50, 70]);
    }

    /// A scan path that reports selectivity estimates only for a chosen
    /// subset of attributes, for exercising mixed known/unknown
    /// predicate ordering.
    struct MixedStatsPath {
        inner: ScanPath,
        /// `(attr, estimate)` pairs; attrs not listed have no stats.
        stats: Vec<(usize, f64)>,
    }

    impl AccessPath for MixedStatsPath {
        fn name(&self) -> &'static str {
            "test-mixed-stats"
        }
        fn estimate(&self, attr: usize, _pred: &RangePred) -> Option<f64> {
            self.stats
                .iter()
                .find(|&&(a, _)| a == attr)
                .map(|&(_, e)| e)
        }
        fn restrict(&mut self, attr: usize, pred: &RangePred, ctx: &RestrictCtx) -> RowSet {
            self.inner.restrict(attr, pred, ctx)
        }
        fn refine(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, ctx: &RestrictCtx) {
            self.inner.refine(rows, attr, pred, ctx)
        }
        fn extend(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, ctx: &RestrictCtx) {
            self.inner.extend(rows, attr, pred, ctx)
        }
        fn unrestricted(&mut self, ctx: &RestrictCtx) -> RowSet {
            self.inner.unrestricted(ctx)
        }
        fn fetch(&mut self, rows: &RowSet, attrs: &[usize], consume: &mut dyn FnMut(Block<'_>)) {
            self.inner.fetch(rows, attrs, consume)
        }
    }

    /// Three-column table (a, b, c) for ordering tests.
    fn mixed_path(stats: Vec<(usize, f64)>) -> MixedStatsPath {
        let mut t = Table::new();
        t.add_column("a", Column::new(vec![5, 1, 9, 3, 7, 2, 8]));
        t.add_column("b", Column::new(vec![50, 10, 90, 30, 70, 20, 80]));
        t.add_column("c", Column::new(vec![500, 100, 900, 300, 700, 200, 800]));
        MixedStatsPath {
            inner: ScanPath {
                table: t,
                fetch_calls: 0,
            },
            stats,
        }
    }

    /// Predicates without statistics keep their plan positions — in
    /// particular a stat-less head predicate stays first (the presorted
    /// baseline's requirement) — while the estimable subset is still
    /// ordered most-selective-first instead of being abandoned.
    #[test]
    fn order_preds_orders_estimable_subset_around_unknowns() {
        // attr 0 has no stats; attr 1 is unselective, attr 2 selective.
        let p = mixed_path(vec![(1, 0.9), (2, 0.1)]);
        let preds = vec![
            (0, RangePred::open(0, 100)),
            (1, RangePred::open(0, 100)),
            (2, RangePred::open(0, 1000)),
        ];
        let ordered = order_preds(&p, &preds, false);
        let attrs: Vec<usize> = ordered.iter().map(|&(a, _)| a).collect();
        // Unknown attr 0 pinned at slot 0; attrs 2 and 1 swap into the
        // estimable slots by ascending selectivity.
        assert_eq!(attrs, vec![0, 2, 1]);
        // Disjunctions order the estimable subset descending.
        let attrs_disj: Vec<usize> = order_preds(&p, &preds, true)
            .iter()
            .map(|&(a, _)| a)
            .collect();
        assert_eq!(attrs_disj, vec![0, 1, 2]);
        // Unknown predicate in the middle: slots {0, 2} get the sorted
        // estimable preds, slot 1 keeps its stat-less predicate.
        let p2 = mixed_path(vec![(0, 0.9), (2, 0.1)]);
        let attrs2: Vec<usize> = order_preds(&p2, &preds, false)
            .iter()
            .map(|&(a, _)| a)
            .collect();
        assert_eq!(attrs2, vec![2, 1, 0]);
        // Fewer than two estimable predicates: nothing to order.
        let p3 = mixed_path(vec![(1, 0.5)]);
        let attrs3: Vec<usize> = order_preds(&p3, &preds, false)
            .iter()
            .map(|&(a, _)| a)
            .collect();
        assert_eq!(attrs3, vec![0, 1, 2]);
    }

    /// Differential: the same query must produce identical answers with
    /// mixed known/unknown statistics (subset ordering active), full
    /// statistics, and no statistics at all — ordering is a plan
    /// choice, never a semantics choice.
    #[test]
    fn mixed_statistics_never_change_answers() {
        let qs = [
            SelectQuery {
                preds: vec![
                    (0, RangePred::open(2, 8)),
                    (1, RangePred::open(0, 75)),
                    (2, RangePred::open(150, 1000)),
                ],
                disjunctive: false,
                aggs: vec![(1, AggFunc::Count), (2, AggFunc::Sum)],
                projs: vec![0],
            },
            SelectQuery {
                preds: vec![
                    (0, RangePred::open(0, 3)),
                    (1, RangePred::open(75, 100)),
                    (2, RangePred::open(0, 250)),
                ],
                disjunctive: true,
                aggs: vec![(0, AggFunc::Max)],
                projs: vec![],
            },
        ];
        for q in qs {
            let stats_sets: Vec<Vec<(usize, f64)>> = vec![
                vec![],
                vec![(0, 0.4), (1, 0.6), (2, 0.2)],
                vec![(1, 0.6), (2, 0.2)],
                vec![(0, 0.4), (2, 0.2)],
                vec![(2, 0.2)],
            ];
            let mut outs = Vec::new();
            for stats in stats_sets {
                let mut p = mixed_path(stats);
                let mut out = run_select(&mut p, &q);
                for v in &mut out.proj_values {
                    v.sort_unstable();
                }
                outs.push((out.rows, out.aggs, out.proj_values));
            }
            for o in &outs[1..] {
                assert_eq!(o, &outs[0], "answers must be ordering-invariant");
            }
        }
    }

    #[test]
    fn executor_handles_empty_predicates() {
        let mut p = path();
        let q = SelectQuery::aggregate(vec![], vec![(0, AggFunc::Count)]);
        assert_eq!(run_select(&mut p, &q).aggs, vec![Some(5)]);
        assert_eq!(p.fetch_calls, 0, "a count alone reads no value");
    }

    #[test]
    fn executor_disjunction_unions() {
        let mut p = path();
        let q = SelectQuery {
            preds: vec![(0, RangePred::open(0, 4)), (1, RangePred::open(60, 100))],
            disjunctive: true,
            aggs: vec![(0, AggFunc::Count)],
            projs: vec![],
        };
        // a in {1,3} plus b in {70,90} → 4 rows.
        let out = run_select(&mut p, &q);
        assert_eq!((out.rows, out.aggs), (4, vec![Some(4)]));
        assert_eq!(p.fetch_calls, 0, "a count alone reads no value");
    }
}
