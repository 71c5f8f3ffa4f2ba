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
//! live once in the shared executor [`exec::run_select`]. The
//! [`exec::BatchRunner`] session layer executes query batches with the
//! read-only scan/aggregate kernels data-parallel while cracking stays
//! sequential.
//!
//! On top of both sits the horizontal sharding layer
//! [`exec::ShardedEngine`]: the base table is partitioned row-wise into
//! `N` contiguous shards, each owning a complete, independent inner
//! engine (its own columns, cracker indexes, cracker maps and chunk
//! sets). Queries fan out to every shard on scoped threads — so the
//! *cracking itself* runs in parallel, not just the read-only kernels —
//! and results merge deterministically: each shard answers one
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
//! sharded/unsharded × serial/batch execution × crack policy.
//!
//! The adaptive engines additionally take a [`CrackPolicy`]
//! (standard / stochastic / coarse-granular pivot choice, from
//! `crackdb-cracking`) hardening cracking against adversarial
//! workloads; `SelCrackEngine::with_policy`,
//! `SidewaysEngine::with_policy` and `PartialEngine::with_policy`
//! select it explicitly, the plain `new` constructors read the
//! `CRACKDB_POLICY` environment hook (standard when unset; invalid
//! values fall back to standard with one warning — the strict check
//! lives in [`exec::env_policy`] and fails service startup and CI
//! loudly instead of panicking library constructors) so CI drives
//! the differential suites once per policy. A `ShardedEngine` composes
//! per shard: pass the policy through the `make` closure of
//! [`exec::ShardedEngine::build`] and every shard cracks under it —
//! shards never share cracker state, so no cross-shard coordination is
//! needed.
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
//! and returns the `ShardedEngine`.

pub mod exec;
pub mod partial_engine;
pub mod plain;
pub mod presorted;
pub mod query;
pub mod selcrack;
pub mod sideways;
pub mod tpch;

pub use crackdb_cracking::CrackPolicy;
pub use exec::service::{Client, Reply, Service, ServiceConfig, ServiceError, WriteReply};
pub use exec::{AccessPath, BatchRunner, RestrictCtx, RowSet, ShardedEngine};
pub use partial_engine::PartialEngine;
pub use plain::PlainEngine;
pub use presorted::PresortedEngine;
pub use query::{Engine, JoinQuery, JoinSide, QueryError, QueryOutput, SelectQuery, Timings};
pub use selcrack::SelCrackEngine;
pub use sideways::SidewaysEngine;
