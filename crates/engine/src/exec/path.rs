//! The access-path abstraction: the one interface every physical design
//! implements, reducing each engine to what actually differs between the
//! paper's systems — how the qualifying row set / contiguous area for a
//! single `(attr, RangePred)` restriction is produced and how values are
//! read back for it, a [`Block`] at a time. Everything else (predicate ordering, conjunctive /
//! disjunctive combining, aggregation, projection materialization, phase
//! timing) lives once in [`super::run_select`].

use crackdb_columnstore::column::Table;
use crackdb_columnstore::ops::block::Block;
use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_core::BitVec;

/// The qualifying-set representation an access path produces.
///
/// The three variants are exactly the three result shapes in the paper:
/// key lists from scans / cracker selects, contiguous areas (with an
/// optional qualifying-bit vector) from sorted copies and aligned cracker
/// maps, and deferred chunk-wise plans for partial sideways cracking,
/// where selection and reconstruction interleave per chunk and a
/// materialized row set never exists.
#[derive(Debug, Clone)]
pub enum RowSet {
    /// Base-table keys. `sorted` records whether they are in ascending
    /// (insertion) order — the property that makes downstream positional
    /// reconstruction sequential rather than random.
    Keys {
        /// Qualifying base-table keys.
        keys: Vec<crackdb_columnstore::types::RowId>,
        /// Ascending order flag.
        sorted: bool,
    },
    /// A contiguous qualifying area in an engine-private positional view
    /// (sorted copy or aligned cracker map), plus an optional bit vector
    /// over that area marking the tuples satisfying *all* predicates.
    Area {
        /// The restriction that defined the area (the engine re-derives
        /// its internal view — sorted copy or map set — from it).
        head: (usize, RangePred),
        /// `[start, end)` within the view.
        range: (usize, usize),
        /// Qualifying bits over `range` (all qualify when absent).
        bv: Option<BitVec>,
    },
    /// A deferred plan for chunk-wise engines: the restrictions are
    /// recorded and executed fused with reconstruction during
    /// [`AccessPath::fetch`].
    Deferred {
        /// The head restriction (most selective predicate).
        head: (usize, RangePred),
        /// The remaining conjunctive restrictions.
        residual: Vec<(usize, RangePred)>,
    },
    /// The union form of a deferred plan: OR-combined restrictions for
    /// chunk-wise engines, executed fused during [`AccessPath::fetch`]
    /// (a disjunction examines every tuple, so the pass covers all
    /// chunks).
    DeferredUnion {
        /// All OR-combined restrictions, in executor order (least
        /// selective first).
        preds: Vec<(usize, RangePred)>,
    },
}

impl RowSet {
    /// Keys constructor.
    pub fn keys(keys: Vec<crackdb_columnstore::types::RowId>, sorted: bool) -> Self {
        RowSet::Keys { keys, sorted }
    }

    /// Number of qualifying tuples, when known before reconstruction
    /// (deferred plans only learn it while streaming).
    pub fn len(&self) -> Option<usize> {
        match self {
            RowSet::Keys { keys, .. } => Some(keys.len()),
            RowSet::Area { range, bv, .. } => Some(match bv {
                Some(bv) => bv.count_ones(),
                None => range.1 - range.0,
            }),
            RowSet::Deferred { .. } | RowSet::DeferredUnion { .. } => None,
        }
    }

    /// `true` when the set is known to be empty.
    pub fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }
}

/// One join side's qualifying tuples as [`AccessPath::join_input`] hands
/// them to [`super::run_join`]. Both forms hold one column per requested
/// attribute, the join attribute first, which post-join reconstruction
/// reads by tuple id.
#[derive(Debug)]
pub enum JoinInput<'a> {
    /// `(id, join value)` per qualifying tuple, over columns indexed by
    /// id: full base columns for key lists (ids are base keys), area
    /// slices for sorted copies and aligned maps (ids are positions in
    /// the area).
    Pairs(Vec<(RowId, Val)>, Vec<&'a [Val]>),
    /// Columns collected in qualifying order, positionally consistent
    /// across attributes: a tuple's id is its position.
    Collected(Vec<Vec<Val>>),
}

impl<'a> JoinInput<'a> {
    /// The input of a key list: join values gathered from the base
    /// columns, which post-join reconstruction reads too.
    pub fn keyed(keys: impl Iterator<Item = RowId>, table: &'a Table, attrs: &[usize]) -> Self {
        let columns: Vec<&[Val]> = attrs.iter().map(|&a| table.column(a).values()).collect();
        let join = columns[0];
        JoinInput::Pairs(keys.map(|k| (k, join[k as usize])).collect(), columns)
    }

    /// The input of an area: `columns` are the area's slices of the
    /// requested attributes, `bv` (when present) marks its qualifying
    /// tuples.
    pub fn area(columns: Vec<&'a [Val]>, bv: Option<&BitVec>) -> Self {
        let join = columns[0];
        let pairs = match bv {
            Some(bv) => bv.iter_ones().map(|i| (i as RowId, join[i])).collect(),
            None => (0..).zip(join.iter().copied()).collect(),
        };
        JoinInput::Pairs(pairs, columns)
    }

    /// The `slot`-th requested attribute's column.
    pub fn column(&self, slot: usize) -> &[Val] {
        match self {
            JoinInput::Pairs(_, columns) => columns[slot],
            JoinInput::Collected(columns) => &columns[slot],
        }
    }
}

/// Query-wide context handed to [`AccessPath`] calls, letting adaptive
/// engines prepare internal structures (choose map sets, pre-align maps)
/// for everything the query will touch.
#[derive(Debug, Clone, Copy)]
pub struct RestrictCtx<'a> {
    /// All predicates of the query, in executor-chosen evaluation order.
    pub preds: &'a [(usize, RangePred)],
    /// Attributes the query will fetch afterwards (aggregations and
    /// projections, deduplicated, in request order).
    pub fetch_attrs: &'a [usize],
    /// `true` for OR-combined predicates.
    pub disjunctive: bool,
}

/// The per-physical-design interface. One implementation per engine; the
/// shared executor composes these calls into full query plans.
pub trait AccessPath {
    /// Human-readable system name (benchmark output).
    fn name(&self) -> &'static str;

    /// Estimated qualifying tuples for one restriction, driving the
    /// shared selectivity ordering (§3.3 / §3.6: start from the most
    /// selective predicate; disjunctions pick the least selective head).
    /// `None` means the engine has no statistics — the executor then
    /// preserves the query's plan order (the presorted baseline relies
    /// on this: its first predicate must name a presorted attribute).
    fn estimate(&self, attr: usize, pred: &RangePred) -> Option<f64> {
        let _ = (attr, pred);
        None
    }

    /// Produce the row set qualifying under a single restriction.
    fn restrict(&mut self, attr: usize, pred: &RangePred, ctx: &RestrictCtx) -> RowSet;

    /// AND-combine one more restriction into `rows`.
    fn refine(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, ctx: &RestrictCtx);

    /// OR-combine one more restriction into `rows`.
    fn extend(&mut self, rows: &mut RowSet, attr: usize, pred: &RangePred, ctx: &RestrictCtx);

    /// Row set for a query with no predicates at all.
    fn unrestricted(&mut self, ctx: &RestrictCtx) -> RowSet;

    /// Reconstruct each attribute in `attrs` for the qualifying rows, a
    /// [`Block`] at a time: one block per aligned area (sorted copy,
    /// cracker map), one per chunk area for chunk-wise plans, gathered
    /// runs for key lists. The qualifying values of one attribute arrive
    /// in row-set order over its blocks; chunk-wise engines interleave
    /// the attributes area by area.
    fn fetch(&mut self, rows: &RowSet, attrs: &[usize], consume: &mut dyn FnMut(Block<'_>));

    /// A join side's qualifying tuples for the conjunctive row set
    /// `rows`, with a column per attribute of `attrs` (the join
    /// attribute first) for post-join reconstruction to read. By
    /// default the columns are collected through [`Self::fetch`], as
    /// chunk-wise plans need.
    fn join_input(&mut self, rows: &RowSet, attrs: &[usize]) -> JoinInput<'_> {
        let mut columns = vec![Vec::new(); attrs.len()];
        self.fetch(rows, attrs, &mut |b| {
            for (col, &a) in columns.iter_mut().zip(attrs) {
                if a == b.attr {
                    b.append_to(col);
                }
            }
        });
        JoinInput::Collected(columns)
    }
}
