//! The plain-MonetDB baseline: full-column scans for selections,
//! order-preserving results, positional in-order tuple reconstruction.

use crate::exec::{self, combine, AccessPath, RestrictCtx, RowSet};
use crate::query::{finish_join_aggs, Engine, JoinQuery, QueryOutput, SelectQuery, Timings};
use crackdb_columnstore::column::Table;
use crackdb_columnstore::ops::block::{gather_blocks, Block};
use crackdb_columnstore::ops::join::hash_join;
use crackdb_columnstore::types::{RangePred, RowId, Val};
use std::collections::HashSet;
use std::time::Instant;

/// Plain column-store executor over one or two base tables.
pub struct PlainEngine {
    base: Table,
    second: Option<Table>,
    tombstones: HashSet<RowId>,
    second_tombstones: HashSet<RowId>,
}

impl PlainEngine {
    /// Single-table engine.
    pub fn new(base: Table) -> Self {
        PlainEngine {
            base,
            second: None,
            tombstones: HashSet::new(),
            second_tombstones: HashSet::new(),
        }
    }

    /// Two-table engine (join experiments). The left/outer table is
    /// `base`.
    pub fn with_second(base: Table, second: Table) -> Self {
        PlainEngine {
            second: Some(second),
            ..PlainEngine::new(base)
        }
    }

    /// Read access to the primary table.
    pub fn base(&self) -> &Table {
        &self.base
    }

    /// Tombstone-aware full scan; keys come out in ascending order.
    fn scan(table: &Table, tomb: &HashSet<RowId>, attr: usize, pred: &RangePred) -> Vec<RowId> {
        let mut keys = crackdb_columnstore::ops::select::select(table.column(attr), pred);
        if !tomb.is_empty() {
            keys.retain(|k| !tomb.contains(k));
        }
        keys
    }

    /// Conjunctive selection used by the join path: scan the first
    /// predicate, positionally refine with the rest (order-preserving
    /// throughout).
    fn select_keys(
        table: &Table,
        tomb: &HashSet<RowId>,
        preds: &[(usize, RangePred)],
    ) -> Vec<RowId> {
        if preds.is_empty() {
            return (0..table.num_rows() as RowId)
                .filter(|k| tomb.is_empty() || !tomb.contains(k))
                .collect();
        }
        let mut keys = Self::scan(table, tomb, preds[0].0, &preds[0].1);
        for (attr, pred) in &preds[1..] {
            let col = table.column(*attr);
            combine::refine_keys(&mut keys, pred, |k| col.get(k));
        }
        keys
    }
}

impl AccessPath for PlainEngine {
    fn name(&self) -> &'static str {
        "MonetDB"
    }

    fn restrict(&mut self, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) -> RowSet {
        RowSet::keys(Self::scan(&self.base, &self.tombstones, attr, pred), true)
    }

    fn refine(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) {
        let RowSet::Keys { keys, .. } = rows else {
            unreachable!("plain scans produce key lists")
        };
        let col = self.base.column(attr);
        combine::refine_keys(keys, pred, |k| col.get(k));
    }

    fn extend(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) {
        let RowSet::Keys { keys, .. } = rows else {
            unreachable!("plain scans produce key lists")
        };
        let col = self.base.column(attr);
        let mut merged = crackdb_columnstore::ops::select::union_scan(col, keys, pred);
        if !self.tombstones.is_empty() {
            merged.retain(|k| !self.tombstones.contains(k));
        }
        *keys = merged;
    }

    fn unrestricted(&mut self, _ctx: &RestrictCtx) -> RowSet {
        RowSet::keys(
            (0..self.base.num_rows() as RowId)
                .filter(|k| self.tombstones.is_empty() || !self.tombstones.contains(k))
                .collect(),
            true,
        )
    }

    fn fetch(&mut self, rows: &RowSet, attrs: &[usize], consume: &mut dyn FnMut(Block<'_>)) {
        let RowSet::Keys { keys, .. } = rows else {
            unreachable!("plain scans produce key lists")
        };
        // In-order positional lookups per projected attribute (cache
        // friendly — the ordered-reconstruction pattern of the baseline).
        for &attr in attrs {
            gather_blocks(attr, self.base.column(attr).values(), keys, &mut *consume);
        }
    }
}

impl Engine for PlainEngine {
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

        // Selections on both tables.
        let t0 = Instant::now();
        let lkeys = Self::select_keys(&self.base, &self.tombstones, &q.left.preds);
        let rkeys = Self::select_keys(second, &self.second_tombstones, &q.right.preds);
        timings.select = t0.elapsed();

        // Pre-join tuple reconstruction: fetch join attributes (ordered
        // keys → sequential pattern).
        let t1 = Instant::now();
        let lcol = self.base.column(q.left.join_attr);
        let rcol = second.column(q.right.join_attr);
        let lpairs: Vec<(RowId, Val)> = lkeys.iter().map(|&k| (k, lcol.get(k))).collect();
        let rpairs: Vec<(RowId, Val)> = rkeys.iter().map(|&k| (k, rcol.get(k))).collect();
        timings.reconstruct = t1.elapsed();

        let t2 = Instant::now();
        let matched = hash_join(&lpairs, &rpairs);
        timings.join = t2.elapsed();
        out.rows = matched.len();

        // Post-join reconstruction: inner-side keys are in hash order →
        // random access into full base columns.
        let t3 = Instant::now();
        out.partials = exec::fold_matched(&matched, &q.left, true, |attr| {
            self.base.column(attr).values()
        });
        out.partials
            .extend(exec::fold_matched(&matched, &q.right, false, |attr| {
                second.column(attr).values()
            }));
        out.aggs = finish_join_aggs(q, &out.partials);
        timings.post_join = t3.elapsed();
        out.timings = timings;
        out
    }

    fn insert(&mut self, row: &[Val]) {
        self.base.append_row(row);
    }

    fn delete(&mut self, key: RowId) {
        self.tombstones.insert(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_columnstore::column::Column;
    use crackdb_columnstore::types::AggFunc;

    fn table() -> Table {
        let mut t = Table::new();
        t.add_column("a", Column::new(vec![5, 1, 9, 3, 7]));
        t.add_column("b", Column::new(vec![50, 10, 90, 30, 70]));
        t
    }

    #[test]
    fn select_aggregate() {
        let mut e = PlainEngine::new(table());
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::open(2, 8))],
            vec![(1, AggFunc::Max), (1, AggFunc::Min)],
        );
        let out = e.select(&q);
        assert_eq!(out.rows, 3);
        assert_eq!(out.aggs, vec![Some(70), Some(30)]);
    }

    #[test]
    fn insert_and_delete_visible() {
        let mut e = PlainEngine::new(table());
        e.insert(&[4, 40]);
        e.delete(1); // removes a=1
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::all())],
            vec![(0, AggFunc::Count), (0, AggFunc::Min)],
        );
        let out = e.select(&q);
        assert_eq!(out.aggs, vec![Some(5), Some(3)]);
    }

    #[test]
    fn join_query() {
        let mut r = Table::new();
        r.add_column("r1", Column::new(vec![100, 200, 300]));
        r.add_column("j", Column::new(vec![1, 2, 3]));
        let mut s = Table::new();
        s.add_column("s1", Column::new(vec![11, 22]));
        s.add_column("j", Column::new(vec![2, 3]));
        let mut e = PlainEngine::with_second(r, s);
        let q = JoinQuery {
            left: JoinSide {
                preds: vec![(
                    0,
                    RangePred::greater(crackdb_columnstore::types::Bound::inclusive(150)),
                )],
                join_attr: 1,
                aggs: vec![(0, AggFunc::Max)],
            },
            right: JoinSide {
                preds: vec![],
                join_attr: 1,
                aggs: vec![(0, AggFunc::Sum)],
            },
        };
        let out = e.join(&q);
        assert_eq!(out.rows, 2);
        assert_eq!(out.aggs, vec![Some(300), Some(33)]);
    }

    #[test]
    fn deleted_rows_stay_out_of_disjunctions() {
        let mut e = PlainEngine::new(table());
        e.delete(2); // removes a=9 / b=90
        let q = SelectQuery {
            preds: vec![(0, RangePred::open(0, 4)), (1, RangePred::open(60, 100))],
            disjunctive: true,
            aggs: vec![(0, AggFunc::Count)],
            projs: vec![],
        };
        // a in {1,3} plus b=70 (b=90 is deleted) → 3 rows.
        assert_eq!(e.select(&q).rows, 3);
    }

    use crate::query::JoinSide;
}
