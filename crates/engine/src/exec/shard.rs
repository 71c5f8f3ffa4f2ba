//! The horizontal sharding layer: row-wise shards, each a complete
//! engine.
//!
//! Reorganizing one shared cracker map is order-dependent, so one
//! engine runs its queries strictly one at a time. [`ShardedEngine`]
//! removes the sharing: the base table is split row-wise into `N`
//! contiguous shards and every shard gets its own complete inner
//! engine — own columns, own cracker columns, own cracker maps and
//! chunk sets. A query runs on the shards one after another, in shard
//! order, on the caller's thread, and each shard's physical
//! reorganization sequence is exactly the serial one for its fraction
//! of the data — per-shard layouts stay reproducible. The parallelism
//! the layout allows is the query service's: concurrent callers run on
//! different shards at once ([`super::service`]).
//!
//! ## Merge semantics
//!
//! * **Aggregates** — each shard runs the query as asked and answers
//!   with the [`PartialAgg`] (the count, and whichever of wrapping sum /
//!   min / max the attribute's functions need) it folded per aggregated
//!   attribute ([`QueryOutput::partials`]); every shard folds the same
//!   statistics, so none is half-merged; the router
//!   folds the shards' partials with [`PartialAgg::merge`] and finishes
//!   each requested function through [`finish_aggs`], which is also how
//!   an unsharded engine finishes its own — so sharded answers are
//!   bit-identical (averages included, computed from the merged sum and
//!   count, never from per-shard averages).
//! * **Projections** — per-shard value lists concatenated in shard
//!   order (projection values are unordered by contract).
//! * **Row counts** — summed.
//! * **Timings** — per-phase sum across shards: the shards' total work
//!   in each phase, which is the phase's wall time, since the shards run
//!   one after another.
//!
//! ## Update routing (§5 sharded)
//!
//! `Routes` holds the routing both routers share, this one and the
//! query service's. Inserts go round-robin (insert `j` to shard
//! `j mod N`); deletes resolve the *global* key through [`ShardCuts`]
//! for original rows and through the round-robin arithmetic for
//! inserted ones. The sharded engine therefore accepts exactly the key
//! stream an unsharded engine would: global key `k < n₀` is original
//! row `k`, key `n₀ + j` is the `j`-th insert — which is what lets the
//! differential suite drive both with identical update sequences.
//!
//! Joins shard the primary (left) table and replicate the second table
//! into every shard, each shard a [`Joined`](super::Joined) pair:
//! `ShardedEngine::build(left, n, |_, part| Joined::new(make(part),
//! make(right.clone())))`. Each left row meets every right row exactly
//! once, so concatenating per-shard match sets yields the full join.
//!
//! ## Per-shard engines
//!
//! Shards never share cracker state, so an engine's options compose per
//! shard with no cross-shard coordination: pass them through the `make`
//! closure (`ShardedEngine::build(base, n, |_, t|
//! PartialEngine::new(t, domain, budget))`) and
//! every shard cracks its fraction of the data with them. Each shard's
//! cracks depend only on its own array state.

use crate::query::{
    agg_attrs, finish_aggs, finish_join_aggs, Engine, JoinQuery, QueryOutput, SelectQuery, Timings,
};
use crackdb_columnstore::column::Table;
use crackdb_columnstore::ops::block::PartialAgg;
use crackdb_columnstore::shard::{partition_table, ShardCuts};
use crackdb_columnstore::types::{RowId, Val};
use std::sync::Mutex;

/// Where a row lives: the partition-time cuts and the round-robin
/// insert count. The global key of original row `k` is `k`; the `j`-th
/// insert gets global key `total_rows + j` and goes to shard `j mod N`
/// at local position `len_of(j mod N) + j / N`.
#[derive(Debug, Clone)]
pub(crate) struct Routes {
    cuts: ShardCuts,
    /// Inserts routed so far.
    inserted: usize,
}

impl Routes {
    /// The routes of freshly partitioned shards: no inserts yet.
    pub(crate) fn new(cuts: ShardCuts) -> Self {
        Routes { cuts, inserted: 0 }
    }

    /// The partition-time cuts.
    pub(crate) fn cuts(&self) -> &ShardCuts {
        &self.cuts
    }

    /// Route one insert: its shard and the global key it gets.
    pub(crate) fn insert(&mut self) -> (usize, RowId) {
        let shard = self.inserted % self.cuts.shard_count();
        let key = (self.cuts.total_rows() + self.inserted) as RowId;
        self.inserted += 1;
        (shard, key)
    }

    /// Resolve a global key to `(shard, shard-local key)`, or `None` for
    /// a key no row ever had — callers decide between panicking
    /// ([`ShardedEngine::delete`]) and a recoverable error (the query
    /// service, which must not panic a shard over one bad client key).
    pub(crate) fn locate(&self, key: RowId) -> Option<(usize, RowId)> {
        let k = key as usize;
        let Some(j) = k.checked_sub(self.cuts.total_rows()) else {
            return Some(self.cuts.locate(key));
        };
        if j >= self.inserted {
            return None;
        }
        let n = self.cuts.shard_count();
        let s = j % n;
        Some((s, (self.cuts.len_of(s) + j / n) as RowId))
    }
}

/// Router executing one independent inner engine per row-wise shard.
pub struct ShardedEngine<E> {
    shards: Vec<E>,
    routes: Routes,
    name: &'static str,
}

impl<E: Engine> ShardedEngine<E> {
    /// Partition `base` row-wise into `shards` near-equal contiguous
    /// shards and build one inner engine per shard with `make(shard_idx,
    /// shard_table)`.
    ///
    /// # Panics
    /// If `shards == 0`.
    pub fn build(base: Table, shards: usize, mut make: impl FnMut(usize, Table) -> E) -> Self {
        let cuts = ShardCuts::even(base.num_rows(), shards);
        let parts = partition_table(&base, &cuts);
        let engines = parts.into_iter().enumerate().map(|(i, t)| make(i, t));
        Self::reassemble(Routes::new(cuts), engines.collect())
    }

    /// Build from already-partitioned shard tables (data that arrives
    /// pre-sharded — e.g. per-node partitions, or
    /// `workloads::random_table_shards`). The cuts are derived from the
    /// part sizes, so key routing and merge semantics are identical to
    /// handing the concatenated table to [`Self::build`].
    ///
    /// # Panics
    /// If `parts` is empty.
    pub fn from_shards(parts: Vec<Table>, mut make: impl FnMut(usize, Table) -> E) -> Self {
        let cuts = ShardCuts::from_sizes(parts.iter().map(Table::num_rows));
        let engines = parts.into_iter().enumerate().map(|(i, t)| make(i, t));
        Self::reassemble(Routes::new(cuts), engines.collect())
    }

    /// A router over `shards`, one engine per shard of `routes`: the
    /// end of both constructors and the inverse of [`Self::into_parts`]
    /// (with any inserts routed in between counted in `routes`). The
    /// shards must keep the round-robin insert discipline for key
    /// routing to stay exact.
    ///
    /// # Panics
    /// If `shards` does not hold one engine per shard of `routes`.
    pub(crate) fn reassemble(routes: Routes, shards: Vec<E>) -> Self {
        let n = routes.cuts().shard_count();
        assert_eq!(shards.len(), n, "one engine per shard");
        let name = interned_name(format!("Sharded {} x{}", shards[0].name(), shards.len()));
        ShardedEngine {
            shards,
            routes,
            name,
        }
    }

    /// Decompose the router into its routes and inner engines (in shard
    /// order), so the [`service::Service`](super::service::Service),
    /// which puts each shard behind its own lock, can hold the shards
    /// apart. Inverse of [`Self::reassemble`].
    pub(crate) fn into_parts(self) -> (Routes, Vec<E>) {
        (self.routes, self.shards)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard cut positions (global-key ↔ shard-local-key mapping).
    pub fn cuts(&self) -> &ShardCuts {
        self.routes.cuts()
    }

    /// Read access to the inner engines, in shard order.
    pub fn shards(&self) -> &[E] {
        &self.shards
    }

    /// Does nothing: a query runs its shards one after another on the
    /// caller's thread. The per-query thread fan-out this once capped
    /// lost its verdict and was deleted (ROADMAP item 12). Kept only
    /// because `benchmark/src/sut.rs` calls `set_threads(1)`; ROADMAP
    /// item 1 deletes it with crackbench's other adapters.
    pub fn set_threads(&mut self, _threads: usize) {}
}

/// Fold the shards' answers into one merged [`PartialAgg`] per slot.
fn merge_partials(outs: &[QueryOutput], slots: usize) -> Vec<PartialAgg> {
    let mut merged = vec![PartialAgg::default(); slots];
    for o in outs {
        assert_eq!(
            o.partials.len(),
            slots,
            "a shard answers one partial per distinct aggregated attribute"
        );
        for (m, p) in merged.iter_mut().zip(&o.partials) {
            m.merge(p);
        }
    }
    merged
}

/// Per-phase sum across shards: the shards' total work in each phase
/// (see the module notes for how it relates to wall time).
fn merge_timings(outs: &[QueryOutput]) -> Timings {
    let mut t = Timings::default();
    for o in outs {
        t.select += o.timings.select;
        t.reconstruct += o.timings.reconstruct;
        t.join += o.timings.join;
        t.post_join += o.timings.post_join;
    }
    t
}

/// Merge per-shard answers (in shard order) into the final
/// [`QueryOutput`]: partials fold through [`PartialAgg::merge`] and
/// finish the requested aggregates, projections concatenate in shard
/// order, rows sum, timings sum per phase. The one merge
/// implementation behind both the in-process [`ShardedEngine`] and the
/// query service's `Client` — they must stay bit-identical.
pub(crate) fn merge_select_outputs(q: &SelectQuery, outs: Vec<QueryOutput>) -> QueryOutput {
    let attrs = agg_attrs(&q.aggs);
    let partials = merge_partials(&outs, attrs.len());
    let mut out = QueryOutput {
        aggs: finish_aggs(&q.aggs, &attrs, &partials),
        partials,
        proj_values: q.projs.iter().map(|_| Vec::new()).collect(),
        rows: outs.iter().map(|o| o.rows).sum(),
        timings: merge_timings(&outs),
    };
    for o in outs {
        for (dst, src) in out.proj_values.iter_mut().zip(o.proj_values) {
            dst.extend(src);
        }
    }
    out
}

/// Merge per-shard join answers: a shard's partials are the left side's
/// followed by the right side's. Shared with the query service like
/// [`merge_select_outputs`].
pub(crate) fn merge_join_outputs(q: &JoinQuery, outs: &[QueryOutput]) -> QueryOutput {
    let slots = agg_attrs(&q.left.aggs).len() + agg_attrs(&q.right.aggs).len();
    let partials = merge_partials(outs, slots);
    QueryOutput {
        aggs: finish_join_aggs(q, &partials),
        partials,
        proj_values: Vec::new(),
        rows: outs.iter().map(|o| o.rows).sum(),
        timings: merge_timings(outs),
    }
}

impl<E: Engine> Engine for ShardedEngine<E> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn select(&mut self, q: &SelectQuery) -> QueryOutput {
        let outs = self.shards.iter_mut().map(|e| e.select(q)).collect();
        merge_select_outputs(q, outs)
    }

    fn join(&mut self, q: &JoinQuery) -> QueryOutput {
        let outs: Vec<QueryOutput> = self.shards.iter_mut().map(|e| e.join(q)).collect();
        merge_join_outputs(q, &outs)
    }

    fn insert(&mut self, row: &[Val]) {
        let (s, _) = self.routes.insert();
        self.shards[s].insert(row);
    }

    fn delete(&mut self, key: RowId) {
        let (s, local) = self
            .routes
            .locate(key)
            .unwrap_or_else(|| panic!("key {key} was never inserted"));
        self.shards[s].delete(local);
    }

    fn aux_tuples(&self) -> usize {
        self.shards.iter().map(E::aux_tuples).sum()
    }
}

/// Intern a dynamically built engine name: `Engine::name` returns
/// `&'static str`, and routers over the same inner engine and shard
/// count should share one allocation instead of leaking per instance.
///
/// The registry is a hashed set, so lookups are O(1) in the number of
/// distinct names rather than a linear scan under the lock. Leak bound:
/// exactly one `Box::leak` allocation per distinct `(inner engine name,
/// shard count)` pair over the process lifetime — a small constant for
/// any real deployment (five engine names × the handful of shard counts
/// in use), never per router instance or per query.
fn interned_name(name: String) -> &'static str {
    use std::collections::HashSet;
    use std::sync::OnceLock;
    static NAMES: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    // Insert-only registry: a panicking holder cannot leave it
    // inconsistent, so recover rather than cascade the poison.
    let mut names = crackdb_core::lock_unpoisoned(NAMES.get_or_init(Default::default));
    if let Some(&n) = names.get(name.as_str()) {
        return n;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    names.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain::PlainEngine;
    use crackdb_columnstore::column::Column;
    use crackdb_columnstore::types::{AggFunc, RangePred};

    fn table(n: usize) -> Table {
        let mut t = Table::new();
        t.add_column(
            "a",
            Column::new((0..n as i64).map(|i| (i * 37) % 100).collect()),
        );
        t.add_column("b", Column::new((0..n as i64).collect()));
        t
    }

    fn sharded(n: usize, shards: usize) -> ShardedEngine<PlainEngine> {
        ShardedEngine::build(table(n), shards, |_, t| PlainEngine::new(t))
    }

    #[test]
    fn select_merges_all_agg_functions() {
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::open(10, 60))],
            vec![
                (1, AggFunc::Count),
                (1, AggFunc::Sum),
                (1, AggFunc::Min),
                (1, AggFunc::Max),
                (1, AggFunc::Avg),
            ],
        );
        let mut whole = PlainEngine::new(table(101));
        let expected = whole.select(&q);
        for shards in [1, 2, 3, 7] {
            let mut e = sharded(101, shards);
            let out = e.select(&q);
            assert_eq!(out.rows, expected.rows, "{shards} shards");
            assert_eq!(out.aggs, expected.aggs, "{shards} shards");
        }
    }

    #[test]
    fn avg_is_not_an_average_of_shard_averages() {
        // Uneven shards: [10, 10] and [70]. Averaging the shard averages
        // would give (10 + 70) / 2 = 40; the true average is 90 / 3 = 30.
        let mut t = Table::new();
        t.add_column("a", Column::new(vec![10, 10, 70]));
        let mut e = ShardedEngine::build(t, 2, |_, t| PlainEngine::new(t));
        let q = SelectQuery::aggregate(vec![], vec![(0, AggFunc::Avg)]);
        assert_eq!(e.select(&q).aggs, vec![Some(30)]);
    }

    #[test]
    fn projections_concatenate_across_shards() {
        let q = SelectQuery::project(vec![(0, RangePred::open(-1, 1000))], vec![1]);
        let mut e = sharded(20, 4);
        let out = e.select(&q);
        let mut vals = out.proj_values[0].clone();
        vals.sort_unstable();
        assert_eq!(vals, (0..20).collect::<Vec<i64>>());
        assert_eq!(out.rows, 20);
    }

    #[test]
    fn update_routing_matches_unsharded_keys() {
        let mut whole = PlainEngine::new(table(10));
        let mut e = sharded(10, 3);
        // Insert four rows (round-robin) and delete a mix of original
        // and inserted rows using *global* keys.
        for (i, v) in [500, 501, 502, 503].iter().enumerate() {
            whole.insert(&[*v, 1000 + i as i64]);
            e.insert(&[*v, 1000 + i as i64]);
        }
        for key in [0u32, 9, 11] {
            // 11 = second inserted row (global key 10 + 1).
            whole.delete(key);
            e.delete(key);
        }
        let q = SelectQuery::aggregate(
            vec![(0, RangePred::all())],
            vec![(1, AggFunc::Count), (1, AggFunc::Sum), (1, AggFunc::Max)],
        );
        let expected = whole.select(&q);
        let out = e.select(&q);
        assert_eq!(out.rows, expected.rows);
        assert_eq!(out.aggs, expected.aggs);
    }

    #[test]
    #[should_panic(expected = "never inserted")]
    fn deleting_unknown_insert_panics() {
        let mut e = sharded(10, 2);
        e.delete(10);
    }

    #[test]
    fn empty_shards_are_harmless() {
        let mut e = sharded(3, 7);
        let q = SelectQuery::aggregate(
            vec![(1, RangePred::all())],
            vec![(1, AggFunc::Count), (1, AggFunc::Min)],
        );
        let out = e.select(&q);
        assert_eq!(out.rows, 3);
        assert_eq!(out.aggs, vec![Some(3), Some(0)]);
    }

    #[test]
    fn projections_concatenate_in_shard_order() {
        // 7 uneven shards. Plain scans return keys ascending and the
        // shards are contiguous cuts, so the merged projection is
        // exactly column b in row order.
        let mut e = sharded(101, 7);
        let q = SelectQuery::project(vec![(0, RangePred::all())], vec![1]);
        let out = e.select(&q);
        assert_eq!(out.proj_values[0], (0..101).collect::<Vec<i64>>());
        assert_eq!(out.rows, 101);
    }

    #[test]
    fn a_shard_panic_reaches_the_caller_with_its_payload() {
        struct Bomb;
        impl Engine for Bomb {
            fn name(&self) -> &'static str {
                "bomb"
            }
            fn select(&mut self, _q: &SelectQuery) -> QueryOutput {
                panic!("shard 1 exploded");
            }
            fn insert(&mut self, _row: &[Val]) {}
            fn delete(&mut self, _key: RowId) {}
        }
        let mut e = ShardedEngine::reassemble(Routes::new(ShardCuts::even(4, 2)), vec![Bomb, Bomb]);
        let q = SelectQuery::aggregate(vec![], vec![]);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e.select(&q)))
            .expect_err("shards panicked");
        assert_eq!(
            caught.downcast_ref::<&'static str>(),
            Some(&"shard 1 exploded"),
            "the shard's own payload must reach the caller"
        );
    }

    #[test]
    fn every_routed_insert_locates_back_to_its_shard() {
        for shards in [1, 2, 3, 7] {
            // Uneven cuts; at 7 shards the last one is empty.
            let sizes: Vec<usize> = (0..shards).map(|s| (s * 5 + 3) % 11).collect();
            let cuts = ShardCuts::from_sizes(sizes.iter().copied());
            let total = cuts.total_rows();
            let mut routes = Routes::new(cuts);
            for k in 0..total as RowId {
                let (s, local) = routes.locate(k).expect("an original row");
                assert_eq!(routes.cuts().range(s).0 + local as usize, k as usize);
            }
            let mut rows_in = sizes.clone();
            for j in 0..3 * shards + 2 {
                let (s, key) = routes.insert();
                assert_eq!(
                    (s, key as usize),
                    (j % shards, total + j),
                    "{shards} shards"
                );
                let local = rows_in[s] as RowId;
                rows_in[s] += 1;
                assert_eq!(routes.locate(key), Some((s, local)), "{shards} shards");
            }
            let past = (total + 3 * shards + 2) as RowId;
            assert_eq!(routes.locate(past), None, "{shards} shards: never inserted");
        }
    }

    #[test]
    fn names_are_interned() {
        let a = sharded(10, 2);
        let b = sharded(20, 2);
        assert_eq!(a.name(), "Sharded MonetDB x2");
        assert!(std::ptr::eq(a.name(), b.name()), "same name, same alloc");
        assert_eq!(a.shard_count(), 2);
        assert_eq!(a.cuts().total_rows(), 10);
        assert_eq!(a.shards().len(), 2);
    }
}
