//! The presorted baseline ("ultimate physical design"): one fully sorted
//! copy of the table per selection attribute. Binary-search selections,
//! slice-read reconstructions — and a heavy, measured preparation step.

use crate::exec::{self, combine, AccessPath, JoinInput, RestrictCtx, RowSet};
use crate::query::{Engine, QueryOutput, SelectQuery};
use crackdb_columnstore::column::Table;
use crackdb_columnstore::ops::block::Block;
use crackdb_columnstore::presorted::PresortedTable;
use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_core::BitVec;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Presorted column-store executor.
pub struct PresortedEngine {
    /// Construction-time snapshot only: copies are built from it once,
    /// and all reads go through the copies. Updates maintain the copies
    /// (inserts also append here so key allocation matches the other
    /// engines), but deletions are *not* reflected in `base` — never
    /// rebuild a copy from it after updates have been applied.
    base: Table,
    /// One presorted copy per selection attribute.
    copies: HashMap<usize, PresortedTable>,
    /// Wall time spent building copies (the paper reports presorting cost
    /// separately and excludes it from per-query numbers).
    pub presort_cost: Duration,
}

impl PresortedEngine {
    /// Build copies of `base` sorted on each of `sort_attrs`.
    pub fn new(base: Table, sort_attrs: &[usize]) -> Self {
        let mut e = PresortedEngine {
            base,
            copies: HashMap::new(),
            presort_cost: Duration::ZERO,
        };
        let t0 = Instant::now();
        for &a in sort_attrs {
            let copy = PresortedTable::build(&e.base, a);
            e.copies.insert(a, copy);
        }
        e.presort_cost = t0.elapsed();
        e
    }

    fn copy_for(&self, attr: usize) -> &PresortedTable {
        self.copies
            .get(&attr)
            .unwrap_or_else(|| panic!("no presorted copy for attribute {attr}"))
    }
}

impl AccessPath for PresortedEngine {
    fn name(&self) -> &'static str {
        "Presorted MonetDB"
    }

    fn restrict(&mut self, attr: usize, pred: &RangePred, ctx: &RestrictCtx) -> RowSet {
        let copy = self.copy_for(attr);
        let range = copy.select_range(pred);
        if ctx.disjunctive {
            // Disjunctions keep a bit vector over the whole copy: the
            // binary-searched range is marked wholesale and every further
            // predicate scans the aligned full columns (§3.3's plan shape
            // on sorted data).
            let n = copy.num_rows();
            let mut bv = BitVec::zeros(n);
            for i in range.0..range.1 {
                bv.set(i);
            }
            return RowSet::Area {
                head: (attr, *pred),
                range: (0, n),
                bv: Some(bv),
            };
        }
        RowSet::Area {
            head: (attr, *pred),
            range,
            bv: None,
        }
    }

    fn refine(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) {
        let RowSet::Area { head, range, bv } = rows else {
            unreachable!("presorted selections produce areas")
        };
        // Residual filtering: sequential reads of the aligned copy slice
        // into the qualifying-bit vector.
        let copy = self.copy_for(head.0);
        combine::fold_bv(bv, copy.project(attr, *range), pred);
    }

    fn extend(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) {
        let RowSet::Area {
            head, bv: Some(bv), ..
        } = rows
        else {
            unreachable!("disjunctive presorted plans carry a whole-copy bit vector")
        };
        let copy = self.copy_for(head.0);
        bv.set_where_unset_range(copy.column(attr), pred);
    }

    fn unrestricted(&mut self, ctx: &RestrictCtx) -> RowSet {
        // No predicates: the whole of any copy (every copy holds every
        // column) — prefer one covering a fetched attribute.
        let attr = ctx
            .fetch_attrs
            .iter()
            .copied()
            .find(|a| self.copies.contains_key(a))
            .or_else(|| self.copies.keys().copied().min())
            .expect("presorted engine needs at least one sorted copy");
        let n = self.copy_for(attr).num_rows();
        RowSet::Area {
            head: (attr, RangePred::all()),
            range: (0, n),
            bv: None,
        }
    }

    fn fetch(&mut self, rows: &RowSet, attrs: &[usize], consume: &mut dyn FnMut(Block<'_>)) {
        let RowSet::Area { head, range, bv } = rows else {
            unreachable!("presorted selections produce areas")
        };
        // Reconstruction: aligned slice reads, one block per attribute
        // over the whole area, filtered by the residual bit vector if
        // there is one.
        let copy = self.copy_for(head.0);
        for &attr in attrs {
            consume(Block {
                attr,
                vals: copy.project(attr, *range),
                sel: bv.as_ref().map(BitVec::words),
            });
        }
    }

    fn join_input(&mut self, rows: &RowSet, attrs: &[usize]) -> JoinInput<'_> {
        let RowSet::Area { head, range, bv } = rows else {
            unreachable!("presorted selections produce areas")
        };
        // Ids are positions in the clustered area, so post-join
        // reconstruction stays within it.
        let copy = self.copy_for(head.0);
        let columns = attrs.iter().map(|&a| copy.project(a, *range)).collect();
        JoinInput::area(columns, bv.as_ref())
    }
}

impl Engine for PresortedEngine {
    fn name(&self) -> &'static str {
        AccessPath::name(self)
    }

    fn select(&mut self, q: &SelectQuery) -> QueryOutput {
        exec::run_select(self, q)
    }

    fn insert(&mut self, row: &[Val]) {
        // Every sorted copy shifts O(n) values per insert — the §3.6
        // Exp6 maintenance cost that rules presorting out under updates.
        // Kept correct (not fast) so all five engines accept identical
        // update streams in the differential suites and exp6 can measure
        // exactly this trade-off.
        let key = self.base.append_row(row);
        for copy in self.copies.values_mut() {
            copy.insert_row(row, key);
        }
    }

    fn delete(&mut self, key: RowId) {
        // Physically removed from every copy; `base` keeps the row (it
        // is a construction-time snapshot — see the field docs).
        for copy in self.copies.values_mut() {
            copy.delete_key(key);
        }
    }

    fn aux_tuples(&self) -> usize {
        self.copies.values().map(|c| c.num_rows()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Joined;
    use crate::query::{JoinQuery, JoinSide};
    use crackdb_columnstore::column::Column;
    use crackdb_columnstore::types::AggFunc;

    fn table() -> Table {
        let mut t = Table::new();
        t.add_column("a", Column::new(vec![5, 1, 9, 3, 7]));
        t.add_column("b", Column::new(vec![50, 10, 90, 30, 70]));
        t
    }

    #[test]
    fn select_matches_plain() {
        let mut e = PresortedEngine::new(table(), &[0]);
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::open(2, 8))],
            vec![(1, AggFunc::Max), (1, AggFunc::Min)],
        );
        let out = e.select(&q);
        assert_eq!(out.rows, 3);
        assert_eq!(out.aggs, vec![Some(70), Some(30)]);
        assert!(e.presort_cost > Duration::ZERO);
    }

    #[test]
    fn residual_predicates() {
        let mut e = PresortedEngine::new(table(), &[0]);
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::open(0, 10)), (1, RangePred::open(25, 75))],
            vec![(0, AggFunc::Count)],
        );
        let out = e.select(&q);
        assert_eq!(out.rows, 3);
    }

    #[test]
    fn updates_maintain_sorted_copies() {
        let mut e = PresortedEngine::new(table(), &[0, 1]);
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::all())],
            vec![(1, AggFunc::Count), (1, AggFunc::Max)],
        );
        assert_eq!(e.select(&q).aggs, vec![Some(5), Some(90)]);
        e.insert(&[6, 95]);
        e.delete(2); // removes a=9 / b=90
        assert_eq!(e.select(&q).aggs, vec![Some(5), Some(95)]);
        // The copy sorted on b answers too (both copies maintained).
        let qb = SelectQuery::aggregate(
            vec![(1, RangePred::open(40, 100))],
            vec![(0, AggFunc::Count)],
        );
        assert_eq!(e.select(&qb).aggs, vec![Some(3)]); // b in {50, 70, 95}
    }

    #[test]
    fn disjunction_unions_over_the_copy() {
        let mut e = PresortedEngine::new(table(), &[0, 1]);
        let q = SelectQuery {
            preds: vec![(0, RangePred::open(0, 4)), (1, RangePred::open(60, 100))],
            disjunctive: true,
            aggs: vec![(0, AggFunc::Count)],
            projs: vec![1],
        };
        // a in {1,3} plus b in {70,90} → 4 rows.
        let out = e.select(&q);
        assert_eq!(out.rows, 4);
        let mut vals = out.proj_values[0].clone();
        vals.sort_unstable();
        assert_eq!(vals, vec![10, 30, 70, 90]);
    }

    #[test]
    fn no_predicate_query_uses_a_copy() {
        let mut e = PresortedEngine::new(table(), &[0]);
        let q = SelectQuery::aggregate(vec![], vec![(1, AggFunc::Sum)]);
        assert_eq!(e.select(&q).aggs, vec![Some(250)]);
    }

    #[test]
    fn join_on_copies() {
        let mut r = Table::new();
        r.add_column("r1", Column::new(vec![100, 200, 300]));
        r.add_column("rj", Column::new(vec![1, 2, 3]));
        let mut s = Table::new();
        s.add_column("s1", Column::new(vec![11, 22]));
        s.add_column("sj", Column::new(vec![2, 3]));
        let mut e = Joined::new(PresortedEngine::new(r, &[0]), PresortedEngine::new(s, &[0]));
        let q = JoinQuery {
            left: JoinSide {
                preds: vec![(0, RangePred::closed(150, 400))],
                join_attr: 1,
                aggs: vec![(0, AggFunc::Max)],
            },
            right: JoinSide {
                preds: vec![(0, RangePred::closed(0, 100))],
                join_attr: 1,
                aggs: vec![(0, AggFunc::Sum)],
            },
        };
        let out = e.join(&q);
        assert_eq!(out.rows, 2);
        assert_eq!(out.aggs, vec![Some(300), Some(33)]);
        // A side without predicates joins a whole copy.
        let mut all = q.clone();
        all.left.preds.clear();
        assert_eq!(e.join(&all).aggs, out.aggs);
    }
}
