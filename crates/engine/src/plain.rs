//! The plain-MonetDB baseline: full-column scans for selections,
//! order-preserving results, positional in-order tuple reconstruction.

use crate::exec::{self, combine, AccessPath, JoinInput, RestrictCtx, RowSet};
use crate::query::{Engine, QueryOutput, SelectQuery};
use crackdb_columnstore::column::Table;
use crackdb_columnstore::ops::block::{gather_blocks, Block};
use crackdb_columnstore::types::{RangePred, RowId, Val};
use std::collections::HashSet;

/// Plain column-store executor over one base table.
pub struct PlainEngine {
    base: Table,
    tombstones: HashSet<RowId>,
}

impl PlainEngine {
    /// Engine over `base`.
    pub fn new(base: Table) -> Self {
        PlainEngine {
            base,
            tombstones: HashSet::new(),
        }
    }

    /// Read access to the table.
    pub fn base(&self) -> &Table {
        &self.base
    }

    /// Tombstone-aware full scan; keys come out in ascending order.
    fn scan(&self, attr: usize, pred: &RangePred) -> Vec<RowId> {
        let mut keys = crackdb_columnstore::ops::select::select(self.base.column(attr), pred);
        if !self.tombstones.is_empty() {
            keys.retain(|k| !self.tombstones.contains(k));
        }
        keys
    }
}

impl AccessPath for PlainEngine {
    fn name(&self) -> &'static str {
        "MonetDB"
    }

    fn restrict(&mut self, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) -> RowSet {
        RowSet::keys(self.scan(attr, pred), true)
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

    fn join_input(&mut self, rows: &RowSet, attrs: &[usize]) -> JoinInput<'_> {
        let RowSet::Keys { keys, .. } = rows else {
            unreachable!("plain scans produce key lists")
        };
        // Ordered keys: a sequential pattern before the join; the inner
        // side's keys come back in hash order, so post-join
        // reconstruction random-accesses the full base columns.
        JoinInput::keyed(keys.iter().copied(), &self.base, attrs)
    }
}

impl Engine for PlainEngine {
    fn name(&self) -> &'static str {
        AccessPath::name(self)
    }

    fn select(&mut self, q: &SelectQuery) -> QueryOutput {
        exec::run_select(self, q)
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
        let mut e = Joined::new(PlainEngine::new(r), PlainEngine::new(s));
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

    use crate::exec::Joined;
    use crate::query::{JoinQuery, JoinSide};
}
