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
//! The only parallelism sits on top: the horizontal sharding layer
//! [`exec::ShardedEngine`]. The base table is partitioned row-wise into
//! `N` contiguous shards, each owning a complete, independent inner
//! engine (its own columns, cracker indexes, cracker maps and chunk
//! sets). Queries fan out to every shard on scoped threads — scans,
//! gathers and the cracking itself run in parallel — and results merge
//! deterministically: each shard answers one
//! `PartialAgg` per aggregated attribute and [`query::finish_aggs`]
//! finishes the merged partials (averages from merged sums and counts,
//! never from per-shard averages), projections
//! concatenate in shard order, row counts sum, and per-phase
//! [`query::Timings`] take the max across shards. Round-robin insert and
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
//! moves every shard of a `ShardedEngine` onto its own long-lived
//! worker thread (share-nothing — cracking still needs no locks) and
//! hands out cheap, cloneable [`exec::Client`] handles whose
//! `select`/`insert`/`delete`/`join` calls enqueue requests over mpsc
//! channels and await merged results. Requests get a global sequence
//! number under one short router critical section, so execution is
//! linearizable (every client observes its own writes, and a
//! concurrent run replays bit-identically on a serial engine — the
//! concurrent differential suite asserts this); admission control
//! bounds the total queue depth, and shutdown drains in-flight queries
//! and returns the `ShardedEngine`. Every read takes that sequenced
//! hop: a select cracks its shard, so only the shard's worker runs it.

pub mod exec;
pub mod partial_engine;
pub mod plain;
pub mod presorted;
pub mod query;
pub mod selcrack;
pub mod sideways;
pub mod tpch;

pub use exec::service::{Client, Reply, Service, ServiceConfig, ServiceError, WriteReply};
pub use exec::{AccessPath, RestrictCtx, RowSet, ShardedEngine};
pub use partial_engine::PartialEngine;
pub use plain::PlainEngine;
pub use presorted::PresortedEngine;
pub use query::{Engine, JoinQuery, JoinSide, QueryOutput, SelectQuery, Timings};
pub use selcrack::SelCrackEngine;
pub use sideways::SidewaysEngine;
