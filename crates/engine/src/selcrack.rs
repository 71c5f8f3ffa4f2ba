//! The selection-cracking baseline (CIDR'07): fast, self-organizing
//! selections via cracker columns — but unordered selection results, so
//! reconstructing any attribute *other* than the cracked one
//! random-accesses its full base column.
//!
//! A conjunctive plan's row set is the cracked area itself
//! ([`RowSet::Area`]): the cracked attribute is the area's head slice,
//! other attributes are gathered through its tail slice, residual
//! predicates fold into a bit vector over it — no key list is allocated.
//! Disjunctions and joins copy the keys out ([`RowSet::Keys`]).

use crate::exec::{self, combine, AccessPath, RestrictCtx, RowSet};
use crate::query::{finish_join_aggs, Engine, JoinQuery, QueryOutput, SelectQuery, Timings};
use crackdb_columnstore::column::Table;
use crackdb_columnstore::ops::block::{gather_blocks, Block};
use crackdb_columnstore::ops::join::hash_join;
use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_core::BitVec;
use crackdb_cracking::CrackerColumn;
use std::collections::HashMap;
use std::time::Instant;

/// Selection-cracking executor.
pub struct SelCrackEngine {
    base: Table,
    second: Option<Table>,
    /// Cracker columns per (table, attribute), created on first use.
    crackers: HashMap<(bool, usize), CrackerColumn>,
    /// Value domain for ordering predicates by estimated selectivity
    /// ("all systems evaluate queries starting from the most selective
    /// predicate", §3.6 Exp4).
    domain: (Val, Val),
    /// Per-attribute domains of the primary table overriding `domain`.
    domains: HashMap<usize, (Val, Val)>,
}

impl SelCrackEngine {
    /// Single-table engine.
    pub fn new(base: Table, domain: (Val, Val)) -> Self {
        SelCrackEngine {
            base,
            second: None,
            crackers: HashMap::new(),
            domain,
            domains: HashMap::new(),
        }
    }

    /// Two-table engine.
    pub fn with_second(base: Table, second: Table, domain: (Val, Val)) -> Self {
        SelCrackEngine {
            second: Some(second),
            ..SelCrackEngine::new(base, domain)
        }
    }

    /// Register the value domain of one primary-table attribute; its
    /// selectivity estimates use it instead of the constructor's domain.
    pub(crate) fn set_domain(&mut self, attr: usize, domain: (Val, Val)) {
        self.domains.insert(attr, domain);
    }

    /// The value domain of an attribute: its registered one on the
    /// primary table, the constructor's otherwise.
    fn domain(&self, second: bool, attr: usize) -> (Val, Val) {
        match self.domains.get(&attr) {
            Some(&domain) if !second => domain,
            _ => self.domain,
        }
    }

    fn order_preds(
        &self,
        preds: &[(usize, RangePred)],
        n: usize,
        second: bool,
    ) -> Vec<(usize, RangePred)> {
        let estimate = |&(attr, pred): &(usize, RangePred)| {
            crackdb_core::set::uniform_estimate(&pred, n, self.domain(second, attr))
        };
        let mut ordered = preds.to_vec();
        // total_cmp, like the shared planner: a NaN estimate from
        // degenerate domain statistics must never panic predicate
        // ordering — it just sorts last and the plan stays valid.
        ordered.sort_by(|a, b| estimate(a).total_cmp(&estimate(b)));
        ordered
    }

    /// One attribute's cracker column, created on first use.
    fn cracker<'a>(
        crackers: &'a mut HashMap<(bool, usize), CrackerColumn>,
        table: &Table,
        second: bool,
        attr: usize,
    ) -> &'a mut CrackerColumn {
        crackers
            .entry((second, attr))
            .or_insert_with(|| CrackerColumn::from_column(table.column(attr)))
    }

    /// The head and tail slices of an area `restrict` produced. Positions,
    /// so valid only until the column cracks or ripples again — which a
    /// conjunctive plan never does between `restrict` and `fetch`.
    fn area(&self, head_attr: usize, range: (usize, usize)) -> (&[Val], &[RowId]) {
        self.crackers[&(false, head_attr)].array().view(range)
    }

    /// Conjunctive selection used by the join path: `crackers.select` for
    /// the first predicate, `rel_select` (positional filtering against
    /// base columns) for the rest.
    fn select_keys(
        crackers: &mut HashMap<(bool, usize), CrackerColumn>,
        table: &Table,
        second: bool,
        preds: &[(usize, RangePred)],
    ) -> Vec<RowId> {
        if preds.is_empty() {
            // No predicate: still answer through a cracker column so that
            // queued (ripple) insertions and deletions are respected.
            return Self::cracker(crackers, table, second, 0).select_keys(&RangePred::all());
        }
        let mut keys = Self::cracker(crackers, table, second, preds[0].0).select_keys(&preds[0].1);
        for (attr, pred) in &preds[1..] {
            let col = table.column(*attr);
            combine::refine_keys(&mut keys, pred, |k| col.get(k));
        }
        keys
    }
}

impl AccessPath for SelCrackEngine {
    fn name(&self) -> &'static str {
        "Selection Cracking"
    }

    fn estimate(&self, attr: usize, pred: &RangePred) -> Option<f64> {
        Some(crackdb_core::set::uniform_estimate(
            pred,
            self.base.num_rows(),
            self.domain(false, attr),
        ))
    }

    fn restrict(&mut self, attr: usize, pred: &RangePred, ctx: &RestrictCtx) -> RowSet {
        let cracker = Self::cracker(&mut self.crackers, &self.base, false, attr);
        // A disjunction's later selects may crack or ripple this very
        // column (`a < x or a > y`), moving the tuples under an area.
        if ctx.disjunctive {
            return RowSet::keys(cracker.select_keys(pred), false);
        }
        let area = cracker.crack_select(pred);
        RowSet::Area {
            head: (attr, *pred),
            range: area.range,
            bv: None,
        }
    }

    fn refine(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) {
        // rel_select: positional lookups into the base column through the
        // area's tail (random access — keys are unordered), gathered run
        // by run and folded into a bit vector over the area one
        // selection word per 64 values. Gathered runs are whole words
        // long but for the last, so word `i` covers tuples `64i..`.
        let RowSet::Area { head, range, bv } = rows else {
            return; // conjunctive plans start from `restrict`'s area
        };
        let (_, tail) = self.area(head.0, *range);
        let mut words = Vec::with_capacity(tail.len().div_ceil(64));
        if let Some(iv) = pred.interval() {
            gather_blocks(attr, self.base.column(attr), tail, |b| {
                words.extend(b.vals.chunks(64).map(|chunk| iv.word(chunk)))
            });
        }
        words.resize(tail.len().div_ceil(64), 0);
        let keep = BitVec::from_words(tail.len(), words);
        match bv {
            None => *bv = Some(keep),
            Some(bv) => bv.and_with(&keep),
        }
    }

    fn extend(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, _ctx: &RestrictCtx) {
        // Disjunctions fall back to per-predicate cracker selects and
        // key-set union (no aligned bit vectors available here).
        let RowSet::Keys { keys, .. } = rows else {
            return; // disjunctive plans start from `restrict`'s key list
        };
        let more = Self::cracker(&mut self.crackers, &self.base, false, attr).select_keys(pred);
        combine::union_keys_unordered(keys, more);
    }

    fn unrestricted(&mut self, ctx: &RestrictCtx) -> RowSet {
        // No predicate: still answer through a cracker column so that
        // queued (ripple) insertions and deletions are respected.
        self.restrict(0, &RangePred::all(), ctx)
    }

    fn fetch(&mut self, rows: &RowSet, attrs: &[usize], consume: &mut dyn FnMut(Block<'_>)) {
        match rows {
            // Tuple reconstruction: random-order positional lookups into
            // the full base columns — the cost the paper attacks.
            RowSet::Keys { keys, .. } => {
                for &attr in attrs {
                    gather_blocks(attr, self.base.column(attr), keys, &mut *consume);
                }
            }
            RowSet::Area { head, range, bv } => {
                let (heads, tail) = self.area(head.0, *range);
                for &attr in attrs {
                    // The cracked attribute needs no reconstruction: its
                    // values are the area's head slice.
                    if attr == head.0 {
                        consume(Block {
                            attr,
                            vals: heads,
                            sel: bv.as_ref().map(BitVec::words),
                        });
                        continue;
                    }
                    let col = self.base.column(attr);
                    match bv {
                        None => gather_blocks(attr, col, tail, &mut *consume),
                        Some(bv) => {
                            let keys = bv.iter_ones().map(|i| tail[i]);
                            gather_blocks(attr, col, keys, &mut *consume);
                        }
                    }
                }
            }
            // Chunk-wise plans: never produced here.
            RowSet::Deferred { .. } | RowSet::DeferredUnion { .. } => {}
        }
    }
}

impl Engine for SelCrackEngine {
    fn name(&self) -> &'static str {
        AccessPath::name(self)
    }

    fn select(&mut self, q: &SelectQuery) -> QueryOutput {
        exec::run_select(self, q)
    }

    fn join(&mut self, q: &JoinQuery) -> QueryOutput {
        let mut out = QueryOutput::default();
        let mut timings = Timings::default();
        let n = self.base.num_rows();
        let second = self.second.as_ref().expect("join needs a second table");
        let n2 = second.num_rows();

        let t0 = Instant::now();
        let lpreds = self.order_preds(&q.left.preds, n, false);
        let rpreds = self.order_preds(&q.right.preds, n2, true);
        let lkeys = Self::select_keys(&mut self.crackers, &self.base, false, &lpreds);
        let rkeys = Self::select_keys(&mut self.crackers, second, true, &rpreds);
        timings.select = t0.elapsed();

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

        let t3 = Instant::now();
        out.partials = exec::fold_matched(&matched, &q.left, true, |attr, k| {
            self.base.column(attr).get(k)
        });
        out.partials
            .extend(exec::fold_matched(&matched, &q.right, false, |attr, k| {
                second.column(attr).get(k)
            }));
        out.aggs = finish_join_aggs(q, &out.partials);
        timings.post_join = t3.elapsed();
        out.timings = timings;
        out
    }

    fn insert(&mut self, row: &[Val]) {
        let key = self.base.append_row(row);
        for ((second, attr), cracker) in self.crackers.iter_mut() {
            if !*second {
                cracker.queue_insert(self.base.column(*attr).get(key), key);
            }
        }
    }

    fn delete(&mut self, key: RowId) {
        // Cracking keeps base columns untouched; a deletion must reach the
        // cracker column of every attribute, so crackers are created on
        // demand here (from the current base, which still holds the row)
        // and the deletion queued for the Ripple algorithm.
        for attr in 0..self.base.num_columns() {
            Self::cracker(&mut self.crackers, &self.base, false, attr)
                .queue_delete(self.base.column(attr).get(key), key);
        }
    }

    fn aux_tuples(&self) -> usize {
        self.crackers.values().map(|c| c.len()).sum()
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
    fn select_matches_plain() {
        let mut e = SelCrackEngine::new(table(), (0, 10));
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::open(2, 8))],
            vec![(1, AggFunc::Max), (1, AggFunc::Min)],
        );
        let out = e.select(&q);
        assert_eq!(out.rows, 3);
        assert_eq!(out.aggs, vec![Some(70), Some(30)]);
        // Second run hits the cracked column.
        let out2 = e.select(&q);
        assert_eq!(out2.aggs, out.aggs);
    }

    #[test]
    fn conjunctive_rel_select() {
        let mut e = SelCrackEngine::new(table(), (0, 100));
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::open(0, 10)), (1, RangePred::open(25, 75))],
            vec![(0, AggFunc::Count)],
        );
        assert_eq!(e.select(&q).rows, 3);
    }

    #[test]
    fn updates_respected() {
        let mut e = SelCrackEngine::new(table(), (0, 100));
        let q = SelectQuery::aggregate(vec![(0, RangePred::all())], vec![(0, AggFunc::Count)]);
        assert_eq!(e.select(&q).rows, 5);
        e.insert(&[6, 60]);
        e.delete(0);
        assert_eq!(e.select(&q).rows, 5);
    }

    #[test]
    fn no_predicate_query_respects_updates() {
        let mut e = SelCrackEngine::new(table(), (0, 100));
        e.insert(&[6, 60]);
        e.delete(0); // removes a=5 / b=50
        let q = SelectQuery::aggregate(vec![], vec![(0, AggFunc::Count), (1, AggFunc::Sum)]);
        let out = e.select(&q);
        assert_eq!(out.rows, 5, "empty-predicate scans must see queued updates");
        assert_eq!(out.aggs, vec![Some(5), Some(10 + 90 + 30 + 70 + 60)]);
    }

    #[test]
    fn disjunctive_union() {
        let mut e = SelCrackEngine::new(table(), (0, 100));
        let q = SelectQuery {
            preds: vec![(0, RangePred::open(0, 4)), (1, RangePred::open(60, 100))],
            disjunctive: true,
            aggs: vec![(0, AggFunc::Count)],
            projs: vec![],
        };
        // a in {1,3} plus b in {70,90} → keys {1,3} ∪ {4,2} = 4.
        assert_eq!(e.select(&q).rows, 4);
    }
}
