//! The paper's system: sideways cracking with full maps.

use crate::exec::{self, AccessPath, JoinInput, RestrictCtx, RowSet};
use crate::query::{Engine, QueryOutput, SelectQuery};
use crackdb_columnstore::column::Table;
use crackdb_columnstore::ops::block::Block;
use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_core::store::plan_maps;
use crackdb_core::SidewaysStore;
use std::collections::HashSet;

/// Sideways-cracking executor (full maps).
pub struct SidewaysEngine {
    base: Table,
    store: SidewaysStore,
    tombstones: HashSet<RowId>,
}

impl SidewaysEngine {
    /// Engine over `base`; `domain` is the attribute value domain used
    /// for zero-knowledge selectivity estimates.
    pub fn new(base: Table, domain: (Val, Val)) -> Self {
        SidewaysEngine {
            base,
            store: SidewaysStore::new(domain),
            tombstones: HashSet::new(),
        }
    }

    /// Storage budget in tuples for maps (full-map storage management).
    pub fn set_budget(&mut self, budget: Option<usize>) {
        self.store.budget = budget;
    }

    /// Register the value domain of one attribute; its
    /// selectivity estimates use it instead of the constructor's domain.
    pub(crate) fn set_domain(&mut self, attr: usize, domain: (Val, Val)) {
        self.store.set_domain(attr, domain);
    }

    /// Access to the underlying store (instrumentation).
    pub fn store(&self) -> &SidewaysStore {
        &self.store
    }
}

impl AccessPath for SidewaysEngine {
    fn name(&self) -> &'static str {
        "Sideways Cracking"
    }

    fn estimate(&self, attr: usize, pred: &RangePred) -> Option<f64> {
        // §3.3 self-organizing histogram of the attribute's map set
        // (uniform assumption before any knowledge exists).
        Some(self.store.estimate(&self.base, attr, pred))
    }

    fn restrict(&mut self, attr: usize, pred: &RangePred, ctx: &RestrictCtx) -> RowSet {
        // Every map the query will touch: residual selection attributes
        // (the head attribute's own included) plus the attributes to
        // fetch. The executor restricts by its first predicate.
        debug_assert_eq!(ctx.preds.first(), Some(&(attr, *pred)));
        let (_, needed) = plan_maps(ctx.preds, 0, ctx.fetch_attrs);
        self.store.reserve(&self.base, attr, &needed);
        let s = self.store.ensure_set(&self.base, attr, &self.tombstones);

        if ctx.disjunctive {
            // Disjunctive plans keep a bit vector over the *whole* map:
            // the head predicate's cracked area is marked wholesale, and
            // each further predicate scans the areas outside it (§3.3).
            let first = if needed.is_empty() {
                vec![attr]
            } else {
                needed
            };
            let (_, bv) = s.disj_create_bv(&self.base, &first, pred);
            let n = bv.len();
            return RowSet::Area {
                head: (attr, *pred),
                range: (0, n),
                bv: Some(bv),
            };
        }

        // The sideways.select of every map the plan will touch (§3.2),
        // residual selection and fetch maps as one group: the query's only
        // selection. Refinements and reconstructions read this area of
        // the maps it leaves at the tape head. With nothing to
        // reconstruct, the key map's area is the answer's cardinality
        // and no key is copied.
        let range = s.select_maps(&self.base, &needed, pred);
        RowSet::Area {
            head: (attr, *pred),
            range,
            bv: None,
        }
    }

    fn refine(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) {
        let RowSet::Area { head, range, bv } = rows else {
            unreachable!("multi-predicate sideways plans operate on areas")
        };
        let s = self.store.ensure_set(&self.base, head.0, &self.tombstones);
        match bv {
            None => *bv = Some(s.create_bv(attr, *range, pred)),
            Some(bv) => s.refine_bv(attr, *range, pred, bv),
        }
    }

    fn extend(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) {
        let RowSet::Area {
            head, bv: Some(bv), ..
        } = rows
        else {
            unreachable!("disjunctive sideways plans carry a whole-map bit vector")
        };
        let s = self.store.ensure_set(&self.base, head.0, &self.tombstones);
        s.disj_refine_bv(attr, pred, bv);
    }

    fn unrestricted(&mut self, ctx: &RestrictCtx) -> RowSet {
        // No predicates: treat as an all-values restriction on the first
        // fetched attribute's set (or on attribute 0's key map when
        // nothing is fetched).
        let all = RangePred::all();
        let head = ctx.fetch_attrs.first().copied().unwrap_or(0);
        let s = self.store.ensure_set(&self.base, head, &self.tombstones);
        let range = s.select_maps(&self.base, ctx.fetch_attrs, &all);
        RowSet::Area {
            head: (head, all),
            range,
            bv: None,
        }
    }

    fn fetch(&mut self, rows: &RowSet, attrs: &[usize], consume: &mut dyn FnMut(Block<'_>)) {
        let RowSet::Area { head, range, bv } = rows else {
            unreachable!("sideways reconstruction operates on areas")
        };
        let s = self.store.ensure_set(&self.base, head.0, &self.tombstones);
        for &attr in attrs {
            // The area the selection phase left in this attribute's map:
            // the head predicate's cracked area for conjunctions, the
            // whole map for disjunctions.
            consume(s.view_block(attr, *range, bv.as_ref()));
        }
    }

    fn join_input(&mut self, rows: &RowSet, attrs: &[usize]) -> JoinInput<'_> {
        let RowSet::Area { head, range, bv } = rows else {
            unreachable!("sideways selections produce areas")
        };
        // Ids are positions in the cracked area of the aligned maps, so
        // post-join reconstruction random-accesses only that small area:
        // the sideways advantage.
        let s = &*self.store.ensure_set(&self.base, head.0, &self.tombstones);
        let columns = attrs.iter().map(|&a| s.view_tail(a, *range)).collect();
        JoinInput::area(columns, bv.as_ref())
    }
}

impl Engine for SidewaysEngine {
    fn name(&self) -> &'static str {
        AccessPath::name(self)
    }

    fn select(&mut self, q: &SelectQuery) -> QueryOutput {
        exec::run_select(self, q)
    }

    fn insert(&mut self, row: &[Val]) {
        let key = self.base.append_row(row);
        self.store.stage_insert(key);
    }

    fn delete(&mut self, key: RowId) {
        self.store.stage_delete(&self.base, key);
        self.tombstones.insert(key);
    }

    fn aux_tuples(&self) -> usize {
        self.store.tuples()
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
        t.add_column("c", Column::new(vec![55, 11, 99, 33, 77]));
        t
    }

    #[test]
    fn select_aggregate_matches_plain() {
        let mut e = SidewaysEngine::new(table(), (0, 10));
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::open(2, 8))],
            vec![(1, AggFunc::Max), (2, AggFunc::Min)],
        );
        let out = e.select(&q);
        assert_eq!(out.rows, 3);
        assert_eq!(out.aggs, vec![Some(70), Some(33)]);
        // Repeat — cracked maps, same answer.
        assert_eq!(e.select(&q).aggs, out.aggs);
    }

    #[test]
    fn conjunctive_with_bitvec() {
        let mut e = SidewaysEngine::new(table(), (0, 100));
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::open(0, 10)), (1, RangePred::open(25, 75))],
            vec![(2, AggFunc::Count), (2, AggFunc::Max)],
        );
        let out = e.select(&q);
        assert_eq!(out.rows, 3);
        assert_eq!(out.aggs, vec![Some(3), Some(77)]);
    }

    #[test]
    fn updates_visible() {
        let mut e = SidewaysEngine::new(table(), (0, 100));
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::all())],
            vec![(1, AggFunc::Count), (1, AggFunc::Max)],
        );
        assert_eq!(e.select(&q).aggs, vec![Some(5), Some(90)]);
        e.insert(&[6, 95, 66]);
        e.delete(2); // removes b=90
        assert_eq!(e.select(&q).aggs, vec![Some(5), Some(95)]);
    }

    #[test]
    fn join_matches_plain() {
        let mut r = Table::new();
        r.add_column("r1", Column::new(vec![100, 200, 300, 400]));
        r.add_column("rsel", Column::new(vec![1, 2, 3, 4]));
        r.add_column("rj", Column::new(vec![7, 8, 9, 7]));
        let mut s = Table::new();
        s.add_column("s1", Column::new(vec![11, 22, 33]));
        s.add_column("ssel", Column::new(vec![5, 6, 7]));
        s.add_column("sj", Column::new(vec![7, 9, 7]));
        let plain = |t: &Table| crate::PlainEngine::new(t.clone());
        let mut plain = Joined::new(plain(&r), plain(&s));
        let mut e = Joined::new(
            SidewaysEngine::new(r, (0, 100)),
            SidewaysEngine::new(s, (0, 100)),
        );
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
        // Left keys 1..=3 (rsel 2,3,4; j = 8,9,7); right all (sj 7,9,7).
        // Matches: j=9 ↔ s(9)=22 ; j=7 ↔ s rows {0,2} (11,33).
        // Pairs: (200/8: none), (300/9: 22), (400/7: 11,33) → 3 rows.
        assert_eq!(out.rows, 3);
        assert_eq!(out.aggs, vec![Some(400), Some(66)]);
        // A side without predicates joins every live tuple.
        let mut all = q.clone();
        all.left.preds.clear();
        let want = plain.join(&all);
        assert_eq!((e.join(&all).rows, want.rows), (5, 5));
        assert_eq!(e.join(&all).aggs, want.aggs);
    }
}
