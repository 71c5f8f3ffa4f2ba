//! The horizontal sharding layer: partition-parallel adaptive indexing,
//! and crackdb's only parallelism.
//!
//! Reorganizing one shared cracker map is order-dependent, so one
//! engine runs its queries strictly one at a time. [`ShardedEngine`]
//! parallelizes by removing the sharing: the base table is split
//! row-wise into `N` contiguous shards and every shard gets its own
//! complete inner engine — own columns, own cracker columns, own cracker
//! maps and chunk sets. Queries fan out to all shards on scoped threads,
//! so scans, gathers and the cracking itself all run in parallel, while
//! each shard's physical reorganization sequence remains exactly the
//! serial one for its fraction of the data — per-shard layouts stay
//! reproducible.
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
//!   in each phase. A served read runs its shards one after another, and
//!   so does `set_threads(1)`, where the sum is the phase's wall time;
//!   shards that run at once overlap, and the sum exceeds it.
//!
//! ## Update routing (§5 sharded)
//!
//! Inserts go round-robin (insert `j` to shard `j mod N`); deletes
//! resolve the *global* key through [`ShardCuts`] for original rows and
//! through the round-robin arithmetic for inserted ones. The sharded
//! engine therefore accepts exactly the key stream an unsharded engine
//! would: global key `k < n₀` is original row `k`, key `n₀ + j` is the
//! `j`-th insert — which is what lets the differential suite drive both
//! with identical update sequences.
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

/// Router executing one independent inner engine per row-wise shard.
pub struct ShardedEngine<E> {
    shards: Vec<E>,
    /// The partition-time cuts: shard sizes for insert routing and the
    /// global-key ↔ shard-local-key mapping for deletes (global keys at
    /// or above `cuts.total_rows()` are inserts).
    cuts: ShardCuts,
    /// Round-robin insert cursor (also the count of inserts so far).
    inserted: usize,
    threads: usize,
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
        Self::from_parts(cuts, parts.into_iter().enumerate().map(|(i, t)| make(i, t)))
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
        Self::from_parts(cuts, parts.into_iter().enumerate().map(|(i, t)| make(i, t)))
    }

    fn from_parts(cuts: ShardCuts, engines: impl Iterator<Item = E>) -> Self {
        let shards: Vec<E> = engines.collect();
        assert!(!shards.is_empty(), "need at least one shard");
        let name = interned_name(format!("Sharded {} x{}", shards[0].name(), shards.len()));
        ShardedEngine {
            cuts,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            name,
            inserted: 0,
            shards,
        }
    }

    /// Decompose the router into its cuts, inner engines (in shard
    /// order) and insert count, so another owner — the
    /// [`service::Service`](super::service::Service), which puts each
    /// shard behind its own lock — can hold the shards apart. Inverse of
    /// [`Self::reassemble`].
    pub fn into_parts(self) -> (ShardCuts, Vec<E>, usize) {
        (self.cuts, self.shards, self.inserted)
    }

    /// Rebuild a router from parts produced by [`Self::into_parts`]
    /// (plus any inserts routed in between, reflected in `inserted`).
    /// The parts must keep the round-robin insert discipline for key
    /// routing to stay exact.
    pub fn reassemble(cuts: ShardCuts, shards: Vec<E>, inserted: usize) -> Self {
        let mut e = Self::from_parts(cuts, shards.into_iter());
        e.inserted = inserted;
        e
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard cut positions (global-key ↔ shard-local-key mapping).
    pub fn cuts(&self) -> &ShardCuts {
        &self.cuts
    }

    /// Read access to the inner engines, in shard order.
    pub fn shards(&self) -> &[E] {
        &self.shards
    }

    /// Set the fan-out worker budget (1 = run shards sequentially).
    /// Defaults to one worker per available hardware thread. The budget
    /// changes how many shards run at once, never an answer or a
    /// shard's crack sequence.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Resolve a global key to `(shard, shard-local key)`: original rows
    /// by cut ranges, inserted rows by the round-robin arithmetic (the
    /// `j`-th insert went to shard `j mod N` at local position
    /// `partition_size + j / N`).
    fn locate(&self, key: RowId) -> (usize, RowId) {
        locate_key(&self.cuts, self.shards.len(), self.inserted, key)
            .unwrap_or_else(|| panic!("key {key} was never inserted"))
    }

    /// Run `work` over every shard and collect results in shard order.
    /// At most `threads` scoped worker threads run concurrently: shards
    /// are dealt to workers in contiguous groups, each group processed
    /// sequentially (with 1 worker everything runs on the caller's
    /// thread). A panicking shard re-raises its original payload on the
    /// caller's thread.
    fn fan_out<R: Send>(&mut self, work: impl Fn(&mut E) -> R + Sync) -> Vec<R>
    where
        E: Send,
    {
        let nshards = self.shards.len();
        if self.threads <= 1 || nshards <= 1 {
            return self.shards.iter_mut().map(&work).collect();
        }
        // Deal shards to exactly `workers` near-equal contiguous groups
        // (sizes differ by at most one), so the whole thread budget is
        // used even when the shard count is not a multiple of it. The
        // split arithmetic is ShardCuts::even itself — one tested owner.
        let workers = self.threads.min(nshards);
        let groups = ShardCuts::even(nshards, workers);
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(workers);
            let mut rest = self.shards.as_mut_slice();
            for g in 0..workers {
                let (group, tail) = rest.split_at_mut(groups.len_of(g));
                rest = tail;
                handles.push(s.spawn(|| group.iter_mut().map(&work).collect::<Vec<R>>()));
            }
            handles
                .into_iter()
                .flat_map(|h| match h.join() {
                    Ok(r) => r,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    }
}

/// The round-robin key arithmetic shared by the in-process router and
/// the service-layer router: a global key below the partitioned range is
/// an original row located by the cuts; key `total_rows + j` is the
/// `j`-th insert, which went to shard `j mod N` at local position
/// `partition_size + j / N`. Returns `None` for keys never inserted —
/// callers decide between panicking ([`ShardedEngine::delete`]) and a
/// recoverable error (the query service, which must not panic a shard
/// over one bad client key).
pub(crate) fn locate_key(
    cuts: &ShardCuts,
    nshards: usize,
    inserted: usize,
    key: RowId,
) -> Option<(usize, RowId)> {
    let k = key as usize;
    if k < cuts.total_rows() {
        return Some(cuts.locate(key));
    }
    let j = k - cuts.total_rows();
    if j >= inserted {
        return None;
    }
    let s = j % nshards;
    Some((s, (cuts.len_of(s) + j / nshards) as RowId))
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

impl<E: Engine + Send> Engine for ShardedEngine<E> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn select(&mut self, q: &SelectQuery) -> QueryOutput {
        let outs = self.fan_out(|e| e.select(q));
        merge_select_outputs(q, outs)
    }

    fn join(&mut self, q: &JoinQuery) -> QueryOutput {
        let outs = self.fan_out(|e| e.join(q));
        merge_join_outputs(q, &outs)
    }

    fn insert(&mut self, row: &[Val]) {
        let s = self.inserted % self.shards.len();
        self.inserted += 1;
        self.shards[s].insert(row);
    }

    fn delete(&mut self, key: RowId) {
        let (s, local) = self.locate(key);
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
    fn capped_fan_out_preserves_shard_order() {
        // 7 shards over a 2-worker budget → groups of 4 and 3; results
        // must still come back in shard order. Plain scans return keys
        // ascending and the shards are contiguous cuts, so the merged
        // projection is exactly column b in row order.
        let mut e = sharded(101, 7);
        e.set_threads(2);
        let q = SelectQuery::project(vec![(0, RangePred::all())], vec![1]);
        let out = e.select(&q);
        assert_eq!(out.proj_values[0], (0..101).collect::<Vec<i64>>());
        assert_eq!(out.rows, 101);
    }

    #[test]
    fn fan_out_preserves_panic_payload() {
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
        let mut e = ShardedEngine::from_parts(ShardCuts::even(4, 2), [Bomb, Bomb].into_iter());
        e.set_threads(2);
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
