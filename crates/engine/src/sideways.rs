//! The paper's system: sideways cracking with full maps.

use crate::exec::{self, AccessPath, RestrictCtx, RowSet};
use crate::query::{
    agg_attrs, finish_join_aggs, Engine, JoinQuery, QueryOutput, SelectQuery, Timings,
};
use crackdb_columnstore::column::Table;
use crackdb_columnstore::ops::block::{Block, PartialAgg};
use crackdb_columnstore::ops::join::hash_join;
use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_core::store::plan_maps;
use crackdb_core::SidewaysStore;
use std::collections::HashSet;
use std::time::Instant;

/// Sideways-cracking executor (full maps).
pub struct SidewaysEngine {
    base: Table,
    second: Option<Table>,
    store: SidewaysStore,
    second_store: SidewaysStore,
    tombstones: HashSet<RowId>,
}

impl SidewaysEngine {
    /// Single-table engine; `domain` is the attribute value domain used
    /// for zero-knowledge selectivity estimates.
    pub fn new(base: Table, domain: (Val, Val)) -> Self {
        SidewaysEngine {
            base,
            second: None,
            store: SidewaysStore::new(domain),
            second_store: SidewaysStore::new(domain),
            tombstones: HashSet::new(),
        }
    }

    /// Two-table engine.
    pub fn with_second(base: Table, second: Table, domain: (Val, Val)) -> Self {
        SidewaysEngine {
            second: Some(second),
            ..SidewaysEngine::new(base, domain)
        }
    }

    /// Storage budget in tuples for maps (full-map storage management).
    pub fn set_budget(&mut self, budget: Option<usize>) {
        self.store.budget = budget;
    }

    /// Register the value domain of one primary-table attribute; its
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
        // plus the attributes to fetch.
        let (_, needed) = plan_maps(ctx.preds, attr, ctx.fetch_attrs);
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
        // residual selection and fetch maps as one group, so refinements
        // and reconstructions find them aligned. With nothing to
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
            None => {
                let (r, b) = s.select_create_bv(&self.base, attr, &head.1, pred);
                *range = r;
                *bv = Some(b);
            }
            Some(bv) => s.select_refine_bv(&self.base, attr, &head.1, pred, bv),
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
        s.disj_refine_bv(&self.base, attr, &head.1, pred, bv);
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
            // Align (and crack, first time) this attribute's map, then
            // hand on the area — conjunctions use the head predicate's
            // cracked area, disjunctions the whole map.
            s.sideways_select(&self.base, attr, &head.1);
            consume(s.view_block(attr, *range, bv.as_ref()));
        }
    }
}

impl Engine for SidewaysEngine {
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
        let none = HashSet::new();

        // Selections: conjunctive bit vectors on both sides.
        let t0 = Instant::now();
        let lextra: Vec<usize> = q
            .left
            .aggs
            .iter()
            .map(|&(a, _)| a)
            .chain([q.left.join_attr])
            .collect();
        let rextra: Vec<usize> = q
            .right
            .aggs
            .iter()
            .map(|&(a, _)| a)
            .chain([q.right.join_attr])
            .collect();
        let lh = self
            .store
            .conjunctive_bv(&self.base, &q.left.preds, &lextra, &self.tombstones);
        let rh = self
            .second_store
            .conjunctive_bv(second, &q.right.preds, &rextra, &none);
        timings.select = t0.elapsed();

        // Pre-join reconstruction: join-attribute values from the aligned
        // maps; tuple identity = position within the cracked area.
        let t1 = Instant::now();
        let lpairs: Vec<(RowId, Val)> = {
            let tails = self.store.tail_slice(&self.base, &lh, q.left.join_attr);
            match &lh.bv {
                Some(bv) => bv.iter_ones().map(|i| (i as RowId, tails[i])).collect(),
                None => tails
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (i as RowId, v))
                    .collect(),
            }
        };
        let rpairs: Vec<(RowId, Val)> = {
            let tails = self.second_store.tail_slice(second, &rh, q.right.join_attr);
            match &rh.bv {
                Some(bv) => bv.iter_ones().map(|i| (i as RowId, tails[i])).collect(),
                None => tails
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (i as RowId, v))
                    .collect(),
            }
        };
        timings.reconstruct = t1.elapsed();

        let t2 = Instant::now();
        let matched = hash_join(&lpairs, &rpairs);
        timings.join = t2.elapsed();
        out.rows = matched.len();

        // Post-join reconstruction: random access *within the small
        // cracked areas* of the aligned maps — the sideways advantage.
        let t3 = Instant::now();
        for attr in agg_attrs(&q.left.aggs) {
            let tails = self.store.tail_slice(&self.base, &lh, attr);
            let mut agg = PartialAgg::default();
            for &(lp, _) in &matched {
                agg.push(tails[lp as usize]);
            }
            out.partials.push(agg);
        }
        for attr in agg_attrs(&q.right.aggs) {
            let tails = self.second_store.tail_slice(second, &rh, attr);
            let mut agg = PartialAgg::default();
            for &(_, rp) in &matched {
                agg.push(tails[rp as usize]);
            }
            out.partials.push(agg);
        }
        out.aggs = finish_join_aggs(q, &out.partials);
        timings.post_join = t3.elapsed();
        out.timings = timings;
        out
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
        self.store.tuples() + self.second_store.tuples()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::JoinSide;
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
        let mut e = SidewaysEngine::with_second(r, s, (0, 100));
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
    }
}
