//! The engine-wide snapshot the lock-free read path executes against.
//!
//! A [`ColumnSnapshot`](crackdb_cracking::ColumnSnapshot) freezes one
//! cracker column's converged pieces; an [`EngineSnapshot`] bundles one
//! per cracked attribute together with the value source the owner path
//! uses for everything that is *not* the head predicate: positional
//! lookups into the base columns. The base table of a cracking engine
//! is append-only (deletes ripple through the cracker columns, never
//! the base), so a frozen clone of the base plus the rows appended
//! since covers every key a published piece can mention.
//!
//! Planning ([`EngineSnapshot::plan`]) mirrors the owner path's plan
//! shape exactly: one predicate restricts through its column's piece
//! catalog (the head), every other predicate refines by positional
//! lookup, aggregates fold into one [`PartialAgg`] per distinct
//! attribute — what the serial engines answer with, so answers merge
//! bit-identically with worker-path partials. A query plans successfully only when its head
//! predicate resolves against published (converged, update-free)
//! pieces; otherwise the caller falls back to the sequenced worker
//! hop. Execution ([`EngineSnapshot::execute`]) is pure reads over
//! immutable data — no locks, no `&mut`.

use crate::query::{agg_attrs, finish_aggs, QueryOutput, SelectQuery};
use crackdb_columnstore::column::Table;
use crackdb_columnstore::ops::parallel::PartialAgg;
use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_core::BitVec;
use crackdb_cracking::{ColumnSnapshot, SnapSpan};
use std::sync::Arc;
use std::time::Instant;

/// Immutable picture of one engine's converged state: per-attribute
/// piece catalogs plus the positional value source for refinement,
/// aggregation and projection.
#[derive(Debug)]
pub struct EngineSnapshot {
    /// Piece catalog per attribute (`None` = attribute never cracked).
    cols: Vec<Option<Arc<ColumnSnapshot<RowId>>>>,
    /// The base table as of the first snapshot (cracking engines never
    /// mutate base rows in place, so this clone stays valid).
    frozen: Arc<Table>,
    /// Rows in `frozen` — keys below this resolve there.
    frozen_rows: usize,
    /// Rows appended after the freeze, in key order (key
    /// `frozen_rows + i` is `appended[i]`).
    appended: Arc<Vec<Vec<Val>>>,
}

/// A resolved fast-path plan: scan `span` of `col`'s piece catalog,
/// filtering edge pieces with predicate `head_pred` (an index into the
/// query's predicate list; `None` for unrestricted scans).
#[derive(Debug, Clone, Copy)]
pub struct SnapPlan {
    col: usize,
    span: SnapSpan,
    head_pred: Option<usize>,
}

impl EngineSnapshot {
    /// Assemble a snapshot from its parts (called by the engines).
    pub fn new(
        cols: Vec<Option<Arc<ColumnSnapshot<RowId>>>>,
        frozen: Arc<Table>,
        frozen_rows: usize,
        appended: Arc<Vec<Vec<Val>>>,
    ) -> Self {
        EngineSnapshot {
            cols,
            frozen,
            frozen_rows,
            appended,
        }
    }

    /// The value of `attr` for row `key`: frozen rows positionally,
    /// appended rows from the overlay.
    #[inline]
    fn value_of(&self, attr: usize, key: RowId) -> Val {
        let k = key as usize;
        if k < self.frozen_rows {
            self.frozen.column(attr).get(key)
        } else {
            self.appended[k - self.frozen_rows][attr]
        }
    }

    /// Resolve `q` to a fast-path plan, or `None` when any part of the
    /// query needs the owner thread (disjunctions over key-set unions,
    /// an unpublished piece in every candidate head's span, or no
    /// cracked attribute at all).
    pub fn plan(&self, q: &SelectQuery) -> Option<SnapPlan> {
        if q.disjunctive && !q.preds.is_empty() {
            return None;
        }
        if q.preds.is_empty() {
            // Unrestricted scan: any fully covered catalog enumerates
            // exactly the live rows (full coverage implies the column
            // has no staged updates hidden anywhere).
            let col = self
                .cols
                .iter()
                .position(|c| c.as_ref().is_some_and(|s| s.fully_covered()))?;
            let snap = self.cols[col].as_ref().expect("position() found Some");
            return Some(SnapPlan {
                col,
                span: SnapSpan {
                    first: 0,
                    last: snap.piece_count(),
                },
                head_pred: None,
            });
        }
        // The first predicate whose catalog resolves becomes the head;
        // the rest refine positionally, exactly like the owner path's
        // restrict-then-refine plans.
        for (i, (attr, pred)) in q.preds.iter().enumerate() {
            let Some(snap) = self.cols.get(*attr).and_then(Option::as_ref) else {
                continue;
            };
            if let Some(span) = snap.resolve(pred) {
                return Some(SnapPlan {
                    col: *attr,
                    span,
                    head_pred: Some(i),
                });
            }
        }
        None
    }

    /// Execute a resolved plan for `q`. Pure reads; the output carries
    /// the same per-attribute partials a worker's answer does and merges
    /// with them through the shared fold.
    pub fn execute(&self, plan: &SnapPlan, q: &SelectQuery) -> QueryOutput {
        let t0 = Instant::now();
        let snap = self.cols[plan.col]
            .as_ref()
            .expect("plan resolved against this catalog");
        let head_pred: Option<&RangePred> = plan.head_pred.map(|i| &q.preds[i].1);
        let rest: Vec<(usize, &RangePred)> = q
            .preds
            .iter()
            .enumerate()
            .filter(|&(i, _)| Some(i) != plan.head_pred)
            .map(|(_, (attr, pred))| (*attr, pred))
            .collect();
        let attrs = agg_attrs(&q.aggs);
        let mut partials = vec![PartialAgg::default(); attrs.len()];
        let mut out = QueryOutput {
            proj_values: q.projs.iter().map(|_| Vec::new()).collect(),
            ..QueryOutput::default()
        };
        for i in plan.span.first..plan.span.last {
            let piece = snap.piece(i).expect("plan resolved: span is published");
            // Interior pieces qualify wholesale; only the span's edge
            // pieces must test the head predicate per value.
            let edgeish = i == plan.span.first || i + 1 == plan.span.last;
            let n = piece.tail.len();

            // Wholesale fast path: every tuple of an interior piece of a
            // single-predicate plan qualifies — fold without building a
            // bit vector.
            if (!edgeish || head_pred.is_none()) && rest.is_empty() {
                out.rows += n;
                for (agg, &attr) in partials.iter_mut().zip(&attrs) {
                    for &k in &piece.tail {
                        agg.push(self.value_of(attr, k));
                    }
                }
                for (vals, &attr) in out.proj_values.iter_mut().zip(&q.projs) {
                    vals.extend(piece.tail.iter().map(|&k| self.value_of(attr, k)));
                }
                continue;
            }

            // Vectorized filtering: a word-level qualifying bit vector
            // per piece — head predicate over the clustered head values,
            // then one `refine` sweep per residual predicate (each sweep
            // only probes tuples still set, §3.3's bit-vector operators).
            let mut bv = match (edgeish, head_pred) {
                (true, Some(p)) => BitVec::from_fn(n, |j| p.matches(piece.head[j])),
                _ => BitVec::ones(n),
            };
            for &(attr, pred) in &rest {
                bv.refine(|j| pred.matches(self.value_of(attr, piece.tail[j])));
            }
            out.rows += bv.count_ones();
            for j in bv.iter_ones() {
                let k = piece.tail[j];
                for (agg, &attr) in partials.iter_mut().zip(&attrs) {
                    agg.push(self.value_of(attr, k));
                }
                for (vals, &attr) in out.proj_values.iter_mut().zip(&q.projs) {
                    vals.push(self.value_of(attr, k));
                }
            }
        }
        out.aggs = finish_aggs(&q.aggs, &attrs, &partials);
        out.partials = partials;
        out.timings.select = t0.elapsed();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Engine;
    use crate::selcrack::SelCrackEngine;
    use crackdb_columnstore::column::Column;
    use crackdb_columnstore::types::AggFunc;

    fn engine(n: i64) -> SelCrackEngine {
        let mut t = Table::new();
        t.add_column(
            "a",
            Column::new((0..n).map(|i| (i * 7919) % 1000).collect()),
        );
        t.add_column("b", Column::new((0..n).collect()));
        SelCrackEngine::new(t, (0, 1000))
    }

    fn range_q(lo: Val, hi: Val) -> SelectQuery {
        SelectQuery::aggregate(
            vec![(0, RangePred::open(lo, hi))],
            vec![
                (1, AggFunc::Count),
                (1, AggFunc::Sum),
                (1, AggFunc::Min),
                (1, AggFunc::Max),
            ],
        )
    }

    /// Warm an engine until attribute 0's catalog converges, then
    /// compare snapshot answers against the owner path on fresh,
    /// unaligned predicates.
    #[test]
    fn snapshot_answers_match_the_owner_path() {
        let mut e = engine(4000);
        for lo in (0..1000).step_by(50) {
            e.select(&range_q(lo, lo + 37));
        }
        let snap = e.snapshot().expect("selcrack publishes snapshots");
        for (lo, hi) in [(3, 510), (111, 112), (0, 1000), (700, 701)] {
            let q = range_q(lo, hi);
            let plan = snap
                .plan(&q)
                .unwrap_or_else(|| panic!("({lo},{hi}) resolves"));
            let fast = snap.execute(&plan, &q);
            let owner = e.select(&q);
            assert_eq!(fast.rows, owner.rows, "({lo},{hi})");
            assert_eq!(fast.aggs, owner.aggs, "({lo},{hi})");
        }
    }

    #[test]
    fn refinement_and_projection_use_base_values() {
        let mut e = engine(4000);
        for lo in (0..1000).step_by(25) {
            e.select(&range_q(lo, lo + 60));
        }
        let snap = e.snapshot().expect("snapshot");
        let q = SelectQuery {
            preds: vec![
                (0, RangePred::open(100, 400)),
                (1, RangePred::open(0, 2000)),
            ],
            disjunctive: false,
            aggs: vec![(1, AggFunc::Count)],
            projs: vec![1],
        };
        let plan = snap.plan(&q).expect("head resolves");
        let fast = snap.execute(&plan, &q);
        let owner = e.select(&q);
        assert_eq!(fast.rows, owner.rows);
        assert_eq!(fast.aggs, owner.aggs);
        let (mut a, mut b) = (fast.proj_values[0].clone(), owner.proj_values[0].clone());
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "projections agree as multisets");
    }

    #[test]
    fn disjunctive_queries_do_not_plan() {
        let mut e = engine(2000);
        for lo in (0..1000).step_by(50) {
            e.select(&range_q(lo, lo + 37));
        }
        let snap = e.snapshot().expect("snapshot");
        let q = SelectQuery {
            preds: vec![(0, RangePred::open(0, 10)), (0, RangePred::open(50, 60))],
            disjunctive: true,
            aggs: vec![(1, AggFunc::Count)],
            projs: vec![],
        };
        assert!(snap.plan(&q).is_none());
    }

    #[test]
    fn staged_updates_block_overlapping_plans_only() {
        let mut e = engine(4000);
        for lo in (0..1000).step_by(25) {
            e.select(&range_q(lo, lo + 60));
        }
        // Queue an insert with value 150: pieces covering 150 hide.
        e.insert(&[150, 99999]);
        let snap = e.snapshot().expect("snapshot");
        assert!(
            snap.plan(&range_q(140, 160)).is_none(),
            "a read overlapping the staged insert must take the owner path"
        );
        let q = range_q(600, 640);
        let plan = snap.plan(&q).expect("non-overlapping reads still resolve");
        let fast = snap.execute(&plan, &q);
        let owner = e.select(&q);
        assert_eq!(fast.aggs, owner.aggs);
    }

    /// After an insert is merged, the appended overlay must serve the
    /// new row's values for refinement and aggregation.
    #[test]
    fn appended_rows_resolve_through_the_overlay() {
        let mut e = engine(4000);
        for lo in (0..1000).step_by(25) {
            e.select(&range_q(lo, lo + 60));
        }
        e.snapshot().expect("freeze the base before the insert");
        e.insert(&[150, 77777]);
        // Merge the staged insert by querying over it.
        let q = range_q(100, 200);
        let owner = e.select(&q);
        let snap = e.snapshot().expect("snapshot after merge");
        let plan = snap.plan(&q).expect("merged range resolves again");
        let fast = snap.execute(&plan, &q);
        assert_eq!(fast.aggs, owner.aggs);
        assert_eq!(
            fast.aggs[3],
            Some(77777),
            "the appended row's b-value flows through aggregation"
        );
    }

    #[test]
    fn unrestricted_scan_requires_full_coverage() {
        let mut e = engine(4000);
        for lo in (0..1000).step_by(25) {
            e.select(&range_q(lo, lo + 60));
        }
        let q = SelectQuery::aggregate(vec![], vec![(1, AggFunc::Count), (1, AggFunc::Sum)]);
        let snap = e.snapshot().expect("snapshot");
        if let Some(plan) = snap.plan(&q) {
            let fast = snap.execute(&plan, &q);
            let owner = e.select(&q);
            assert_eq!(fast.aggs, owner.aggs);
        }
        // A staged delete anywhere kills full coverage on every column.
        e.delete(0);
        let snap = e.snapshot().expect("snapshot");
        assert!(
            snap.plan(&q).is_none(),
            "unrestricted scans must observe staged deletes via fallback"
        );
    }
}
