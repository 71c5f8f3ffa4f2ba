#![warn(missing_docs)]
//! # crackdb-engine
//!
//! One query executor per physical design evaluated in the paper:
//!
//! | Engine | Paper system |
//! |--------|--------------|
//! | [`PlainEngine`] | plain MonetDB (full scans, ordered reconstruction) |
//! | [`PresortedEngine`] | MonetDB on presorted copies |
//! | [`SelCrackEngine`] | selection cracking (CIDR'07) |
//! | [`SidewaysEngine`] | **sideways cracking** (full maps, §3) |
//! | [`PartialEngine`] | **partial sideways cracking** (§4) |
//!
//! All implement the [`query::Engine`] trait over the same query shapes,
//! so every experiment drives them identically and compares phase
//! timings.
//!
//! Since the access-path refactor, each engine only implements the
//! [`exec::AccessPath`] abstraction — producing the qualifying row set /
//! contiguous area for a single `(attr, RangePred)` restriction and
//! reading values back for it. Predicate ordering, conjunctive and
//! disjunctive combining (the §3.3 bit-vector and intersection
//! strategies), aggregation, projection materialization and phase timing
//! live once in the shared executor [`exec::run_select`], which runs one
//! query at a time, as the paper does.
//!
//! Joins have one plan too, [`exec::run_join`], over one access path per
//! table: each side selects as `run_select` does, then hands over its
//! `(id, join value)` pairs and the columns post-join reconstruction
//! reads — full base columns (plain, selection cracking), the clustered
//! area (presorted) or the aligned maps' area (sideways), or columns
//! collected chunk-wise (partial). Every engine holds one table;
//! [`exec::Joined`] pairs two of them into an engine that answers
//! [`query::Engine::join`].
//!
//! On top sits the horizontal sharding layer [`exec::ShardedEngine`].
//! The base table is partitioned row-wise into `N` contiguous shards,
//! each owning a complete, independent inner engine (its own columns,
//! cracker indexes, cracker maps and chunk sets). A query runs on the
//! shards one after another, in shard order, and results merge
//! deterministically: each shard answers one
//! `PartialAgg` per aggregated attribute and [`query::finish_aggs`]
//! finishes the merged partials (averages from merged sums and counts,
//! never from per-shard averages), projections
//! concatenate in shard order, row counts sum, and per-phase
//! [`query::Timings`] sum across shards (the shards' total work per
//! phase). Round-robin insert and
//! cut-based delete routing keep the sharded engine answer-identical to
//! an unsharded one under the §5 update workloads; the differential
//! suite (`tests/shard_differential.rs`) enforces exactly that for all
//! five engines at several shard counts. Because the router only needs
//! the [`query::Engine`] trait, every scenario composes: 5 engines ×
//! sharded/unsharded.
//!
//! Every cracker column, map set and partial set the cracking engines
//! build cracks exactly at the predicate bounds, as the paper does
//! (§3.2): there is no pivot choice to configure. Shards never share
//! cracker state, so a `ShardedEngine` needs no cross-shard
//! coordination.
//!
//! Finally, [`exec::Service`] makes the whole stack *servable*: it
//! puts every shard of a `ShardedEngine` behind its own lock and hands
//! out cheap, cloneable [`exec::Client`] handles. A
//! `select`/`insert`/`delete`/`join` call takes a global sequence number
//! and one ticket per shard it touches under one short router critical
//! section, then runs each shard's part on the calling thread, in shard
//! order and in ticket order per shard, and merges the partial results.
//! So execution is linearizable (every client observes its own writes,
//! and a concurrent run replays bit-identically on a serial engine — the
//! concurrent differential suite asserts this); admission control
//! bounds the requests in flight, and shutdown waits for every issued
//! ticket and returns the `ShardedEngine`. There are no worker threads:
//! a caller waits only while an earlier request holds the shard it
//! needs next, and concurrent callers on different shards — the only
//! parallelism — run at once.

pub mod exec;
pub mod partial_engine;
pub mod plain;
pub mod presorted;
pub mod query;
pub mod selcrack;
pub mod sideways;
pub mod tpch;

pub use exec::service::{Client, Reply, Service, ServiceError, WriteReply};
pub use exec::{AccessPath, Joined, RestrictCtx, RowSet, ShardedEngine};
pub use partial_engine::PartialEngine;
pub use plain::PlainEngine;
pub use presorted::PresortedEngine;
pub use query::{Engine, JoinQuery, JoinSide, QueryOutput, SelectQuery, Timings};
pub use selcrack::SelCrackEngine;
pub use sideways::SidewaysEngine;
