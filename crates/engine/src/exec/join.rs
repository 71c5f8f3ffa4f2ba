//! The one join plan (§3.6 Exp4, q2): every design selects each side as
//! a single-table query does, hands the qualifying tuples over through
//! [`AccessPath::join_input`], and joins them here. What the paper
//! compares — how a side's selection is produced and where post-join
//! reconstruction reads (full base columns, a sorted copy's clustered
//! area, the aligned maps' area, collected chunk values) — stays with
//! each design's access path; only the plan is shared.

use super::{order_preds, select_rows, AccessPath, JoinInput, RestrictCtx, RowSet};
use crate::query::{
    agg_attrs, agg_stats, finish_join_aggs, Engine, JoinQuery, JoinSide, QueryOutput, SelectQuery,
};
use crackdb_columnstore::ops::block::{gather_blocks, PartialAgg, Stats};
use crackdb_columnstore::ops::join::hash_join;
use crackdb_columnstore::types::{RowId, Val};
use crackdb_core::cracker_join;
use crackdb_cracking::crack::BoundKind;
use crackdb_cracking::CrackedArray;
use std::borrow::Cow;
use std::time::Instant;

/// Execute a two-table equi-join over one access path per table. The
/// sides' inputs hash-join, except when both arrive as collected
/// columns: those cracker-join (§3.4) after a shared pre-partitioning.
pub fn run_join(
    left: &mut dyn AccessPath,
    right: &mut dyn AccessPath,
    q: &JoinQuery,
) -> QueryOutput {
    let mut out = QueryOutput::default();
    let (lattrs, rattrs) = (side_attrs(&q.left), side_attrs(&q.right));

    let t0 = Instant::now();
    let lrows = select_side(left, &q.left, &lattrs);
    let rrows = select_side(right, &q.right, &rattrs);
    out.timings.select = t0.elapsed();

    // Pre-join reconstruction: the join values and the columns post-join
    // reconstruction reads.
    let t1 = Instant::now();
    let lin = left.join_input(&lrows, &lattrs);
    let rin = right.join_input(&rrows, &rattrs);
    let matched = match (&lin, &rin) {
        (JoinInput::Collected(l), JoinInput::Collected(r)) => {
            // Chunk-wise plans collect in their fused selection pass,
            // which the paper reports as a single selection cost.
            out.timings.select += t1.elapsed();
            let t2 = Instant::now();
            let matched = partitioned_join(&l[0], &r[0]);
            out.timings.join = t2.elapsed();
            matched
        }
        _ => {
            let (lpairs, rpairs) = (pairs(&lin), pairs(&rin));
            out.timings.reconstruct = t1.elapsed();
            let t2 = Instant::now();
            let matched = hash_join(&lpairs, &rpairs);
            out.timings.join = t2.elapsed();
            matched
        }
    };
    out.rows = matched.len();

    let t3 = Instant::now();
    out.partials = fold_matched(&matched, &q.left, true, &lattrs, &lin);
    out.partials
        .extend(fold_matched(&matched, &q.right, false, &rattrs, &rin));
    out.aggs = finish_join_aggs(q, &out.partials);
    out.timings.post_join = t3.elapsed();
    out
}

/// The attributes a join side reads after its selection: the join
/// attribute first, then its aggregated ones.
fn side_attrs(side: &JoinSide) -> Vec<usize> {
    let mut attrs = vec![side.join_attr];
    for a in agg_attrs(&side.aggs) {
        if !attrs.contains(&a) {
            attrs.push(a);
        }
    }
    attrs
}

/// A join side's selection, planned and run as [`super::run_select`]
/// runs a conjunctive query that fetches `attrs`.
fn select_side(path: &mut dyn AccessPath, side: &JoinSide, attrs: &[usize]) -> RowSet {
    let preds = order_preds(path, &side.preds, false);
    let ctx = RestrictCtx {
        preds: &preds,
        fetch_attrs: attrs,
        disjunctive: false,
    };
    select_rows(path, &ctx)
}

/// A side's `(id, join value)` pairs; a collected side's ids are
/// positions.
fn pairs<'a>(input: &'a JoinInput<'_>) -> Cow<'a, [(RowId, Val)]> {
    match input {
        JoinInput::Pairs(pairs, _) => Cow::Borrowed(pairs),
        JoinInput::Collected(columns) => {
            Cow::Owned((0..).zip(columns[0].iter().copied()).collect())
        }
    }
}

/// §3.4's partitioned cracker join of two collected join columns: both
/// become cracked arrays over the join values (ids are positions),
/// pre-partitioned at shared equal-width cuts so each value-disjoint
/// segment pair joins through a small hash table.
fn partitioned_join(left: &[Val], right: &[Val]) -> Vec<(RowId, RowId)> {
    let cracked =
        |vals: &[Val]| CrackedArray::new(vals.to_vec(), (0..vals.len() as RowId).collect());
    let (mut larr, mut rarr) = (cracked(left), cracked(right));
    let lo = left.iter().chain(right).copied().min();
    let hi = left.iter().chain(right).copied().max();
    if let (Some(lo), Some(hi)) = (lo, hi) {
        precrack(&mut larr, lo, hi, 16);
        precrack(&mut rarr, lo, hi, 16);
    }
    cracker_join(&larr, &rarr)
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

/// Post-join reconstruction of one side over the matched
/// `(left id, right id)` pairs: one [`PartialAgg`] per distinct
/// aggregated attribute of the side, in [`agg_attrs`] order, folding
/// only the statistics the side's functions of it need, read from the
/// side's `input` columns (`attrs` names them).
fn fold_matched(
    matched: &[(RowId, RowId)],
    side: &JoinSide,
    left: bool,
    attrs: &[usize],
    input: &JoinInput<'_>,
) -> Vec<PartialAgg> {
    let ids = || matched.iter().map(|&(l, r)| if left { l } else { r });
    agg_attrs(&side.aggs)
        .into_iter()
        .map(|attr| {
            let stats = agg_stats(&side.aggs, attr);
            let mut agg = PartialAgg::new(stats);
            if stats == Stats::default() {
                // The count alone reads no value.
                agg.count = matched.len() as i64;
            } else {
                // `side_attrs` lists every aggregated attribute.
                let slot = attrs.iter().position(|&a| a == attr).unwrap_or_default();
                gather_blocks(attr, input.column(slot), ids(), |b| {
                    agg.fold(b.vals, None, stats)
                });
            }
            agg
        })
        .collect()
}

/// Two single-table engines joined through [`run_join`]: `left` holds
/// the primary table, `right` the second. Selections and updates go to
/// `left` only; joins read both.
pub struct Joined<L, R> {
    /// The primary (outer) table's engine.
    pub left: L,
    /// The second (inner) table's engine.
    pub right: R,
}

impl<L, R> Joined<L, R> {
    /// Join `left`'s table with `right`'s.
    pub fn new(left: L, right: R) -> Self {
        Joined { left, right }
    }
}

impl<L: Engine + AccessPath, R: Engine + AccessPath> Engine for Joined<L, R> {
    fn name(&self) -> &'static str {
        Engine::name(&self.left)
    }

    fn select(&mut self, q: &SelectQuery) -> QueryOutput {
        self.left.select(q)
    }

    fn join(&mut self, q: &JoinQuery) -> QueryOutput {
        run_join(&mut self.left, &mut self.right, q)
    }

    fn insert(&mut self, row: &[Val]) {
        self.left.insert(row);
    }

    fn delete(&mut self, key: RowId) {
        self.left.delete(key);
    }

    fn aux_tuples(&self) -> usize {
        self.left.aux_tuples() + self.right.aux_tuples()
    }
}
