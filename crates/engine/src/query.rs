//! The query shapes of the paper's experiments, and the common executor
//! interface every physical design implements.

use crackdb_columnstore::ops::block::PartialAgg;
use crackdb_columnstore::types::{AggFunc, RangePred, RowId, Val};
use std::convert::Infallible;
use std::time::Duration;

/// A single-table query: conjunctive or disjunctive range predicates plus
/// aggregate and/or raw projections. Covers q1/q3 (§3.6), the `Qi`
/// queries (§4.2) and most TPC-H selection blocks.
#[derive(Debug, Clone)]
pub struct SelectQuery {
    /// `(attribute, predicate)` restrictions.
    pub preds: Vec<(usize, RangePred)>,
    /// `true` = OR-combined predicates; `false` = AND-combined.
    pub disjunctive: bool,
    /// Aggregate projections `(attribute, function)`.
    pub aggs: Vec<(usize, AggFunc)>,
    /// Raw projections (results materialized).
    pub projs: Vec<usize>,
}

impl SelectQuery {
    /// Conjunctive aggregation query (the `select max(..) where ...`
    /// shape of q1/q3).
    pub fn aggregate(preds: Vec<(usize, RangePred)>, aggs: Vec<(usize, AggFunc)>) -> Self {
        SelectQuery {
            preds,
            disjunctive: false,
            aggs,
            projs: Vec::new(),
        }
    }

    /// Conjunctive projection query (the `Qi` shape).
    pub fn project(preds: Vec<(usize, RangePred)>, projs: Vec<usize>) -> Self {
        SelectQuery {
            preds,
            disjunctive: false,
            aggs: Vec::new(),
            projs,
        }
    }
}

/// One side of a join query: its selection block plus the attributes
/// needed after the join.
#[derive(Debug, Clone)]
pub struct JoinSide {
    /// Conjunctive restrictions on this table.
    pub preds: Vec<(usize, RangePred)>,
    /// The join attribute.
    pub join_attr: usize,
    /// Aggregates computed over this side's attributes post-join.
    pub aggs: Vec<(usize, AggFunc)>,
}

/// The q2 shape (§3.6 Exp4): conjunctive selections on both tables, an
/// equi-join, aggregates over both sides.
#[derive(Debug, Clone)]
pub struct JoinQuery {
    /// Outer (left) side.
    pub left: JoinSide,
    /// Inner (right) side.
    pub right: JoinSide,
}

/// Wall-clock phase breakdown (the paper reports selection cost, tuple
/// reconstruction before/after joins, and join cost separately).
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Selection work (scans, cracks, binary searches, bit vectors).
    pub select: Duration,
    /// Tuple reconstruction before any join (projection fetches).
    pub reconstruct: Duration,
    /// Join execution.
    pub join: Duration,
    /// Tuple reconstruction after the join.
    pub post_join: Duration,
}

impl Timings {
    /// Total across phases.
    pub fn total(&self) -> Duration {
        self.select + self.reconstruct + self.join + self.post_join
    }
}

/// Result of a query: aggregates in request order, materialized rows for
/// raw projections, result cardinality and phase timings.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// One value per requested aggregate (`None` on empty input for
    /// max/min).
    pub aggs: Vec<Option<Val>>,
    /// What `aggs` was finished from: one mergeable [`PartialAgg`] per
    /// distinct aggregated attribute, in [`agg_attrs`] order (for a join,
    /// the left side's followed by the right side's). This is what a
    /// shard answers with — the router merges the shards' partials and
    /// finishes the requested functions once, so an engine serving behind
    /// [`ShardedEngine`](crate::exec::ShardedEngine) must fill it.
    pub partials: Vec<PartialAgg>,
    /// Materialized projection columns (one `Vec` per requested raw
    /// projection, in request order). Values are unordered.
    pub proj_values: Vec<Vec<Val>>,
    /// Number of qualifying tuples.
    pub rows: usize,
    /// Phase breakdown.
    pub timings: Timings,
}

/// The common executor interface: one implementation per physical design
/// (plain column-store, presorted, selection cracking, sideways cracking,
/// partial sideways cracking).
pub trait Engine {
    /// Human-readable system name (used in benchmark output).
    fn name(&self) -> &'static str;

    /// Execute a single-table query.
    fn select(&mut self, q: &SelectQuery) -> QueryOutput;

    /// Execute a two-table join query.
    fn join(&mut self, q: &JoinQuery) -> QueryOutput;

    /// [`Engine::select`], which cannot fail. Kept only because
    /// `benchmark/src/sut.rs` calls it; ROADMAP item 1 deletes it.
    fn try_select(&mut self, q: &SelectQuery) -> Result<QueryOutput, Infallible> {
        Ok(self.select(q))
    }

    /// Append a new tuple (values in column order) to the primary table.
    fn insert(&mut self, row: &[Val]);

    /// Delete the tuple with base key `key` from the primary table.
    fn delete(&mut self, key: RowId);

    /// Auxiliary storage used (tuples), for storage-restriction plots.
    fn aux_tuples(&self) -> usize {
        0
    }

    /// Always 0: every cracker structure keeps the one policy it was
    /// built with. Kept only because `benchmark/src/sut.rs` calls it;
    /// ROADMAP item 1 deletes it.
    fn policy_switches(&self) -> u64 {
        0
    }
}

/// The distinct attributes of an aggregate list, in first-appearance
/// order: the slot order of [`QueryOutput::partials`]. However many
/// functions a query asks of one attribute, the attribute is folded once.
pub fn agg_attrs(aggs: &[(usize, AggFunc)]) -> Vec<usize> {
    let mut attrs = Vec::new();
    for &(a, _) in aggs {
        if !attrs.contains(&a) {
            attrs.push(a);
        }
    }
    attrs
}

/// Finish the requested aggregates from the per-attribute partials
/// (`partials[i]` folds attribute `attrs[i]`). Unsharded, sharded and
/// served answers all end here, so they cannot diverge —
/// averages included, computed from the merged sum and count.
pub fn finish_aggs(
    aggs: &[(usize, AggFunc)],
    attrs: &[usize],
    partials: &[PartialAgg],
) -> Vec<Option<Val>> {
    aggs.iter()
        .map(|&(a, func)| {
            let slot = attrs.iter().position(|&x| x == a);
            slot.map_or(PartialAgg::default(), |s| partials[s])
                .finish(func)
        })
        .collect()
}

/// [`finish_aggs`] for a join: `partials` holds the left side's slots
/// followed by the right side's; aggregates come out left then right, in
/// request order.
pub fn finish_join_aggs(q: &JoinQuery, partials: &[PartialAgg]) -> Vec<Option<Val>> {
    let lattrs = agg_attrs(&q.left.aggs);
    let rattrs = agg_attrs(&q.right.aggs);
    let (left, right) = partials.split_at(lattrs.len());
    let mut aggs = finish_aggs(&q.left.aggs, &lattrs, left);
    aggs.extend(finish_aggs(&q.right.aggs, &rattrs, right));
    aggs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_finish_from_one_partial_per_attribute() {
        let aggs = [
            (4, AggFunc::Max),
            (2, AggFunc::Count),
            (4, AggFunc::Avg),
            (2, AggFunc::Min),
        ];
        let attrs = agg_attrs(&aggs);
        assert_eq!(attrs, vec![4, 2]);
        let mut four = PartialAgg::default();
        four.fold_slice(&[3, 9, 1]);
        let none = PartialAgg::default();
        assert_eq!(
            finish_aggs(&aggs, &attrs, &[four, none]),
            vec![Some(9), Some(0), Some(4), None]
        );
        let side = |aggs: &[(usize, AggFunc)]| JoinSide {
            preds: Vec::new(),
            join_attr: 0,
            aggs: aggs.to_vec(),
        };
        let q = JoinQuery {
            left: side(&aggs[..1]),
            right: side(&aggs[1..2]),
        };
        assert_eq!(finish_join_aggs(&q, &[four, none]), vec![Some(9), Some(0)]);
    }

    #[test]
    fn timings_total() {
        let t = Timings {
            select: Duration::from_millis(1),
            reconstruct: Duration::from_millis(2),
            join: Duration::from_millis(3),
            post_join: Duration::from_millis(4),
        };
        assert_eq!(t.total(), Duration::from_millis(10));
    }
}
