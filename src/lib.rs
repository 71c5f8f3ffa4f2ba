#![warn(missing_docs)]
//! # crackdb
//!
//! A from-scratch Rust reproduction of *"Self-organizing Tuple
//! Reconstruction in Column-stores"* (Stratos Idreos, Martin L. Kersten,
//! Stefan Manegold; SIGMOD 2009): **sideways cracking** and **partial
//! sideways cracking** on top of a MonetDB-style column-store substrate,
//! together with every baseline the paper compares against and the full
//! experiment harness that regenerates its tables and figures.
//!
//! ## Crates
//!
//! * [`columnstore`] — BAT storage model, two-column physical algebra,
//!   presorted and row-store baselines, radix-cluster reordering.
//! * [`cracking`] — selection cracking: ordered-map cracker index, crack-in-two /
//!   crack-in-three kernels, cracker columns, ripple updates.
//! * [`core`] — the paper's contribution: cracker maps, map sets, tapes,
//!   adaptive alignment, bit-vector multi-selection plans, self-organizing
//!   histograms, and §4's chunked partial maps with storage management.
//! * [`workloads`] — synthetic workload generators (random / sequential
//!   / skewed patterns) and the TPC-H substrate (data + query
//!   parameters).
//! * [`engine`] — one query executor per physical design behind a shared
//!   access-path layer (`engine::exec`), the `ShardedEngine` row-wise
//!   shard router and the `Service` concurrent query service on top of
//!   it (concurrent callers on different shards are the only
//!   parallelism), plus the twelve TPC-H query
//!   plans, whose selections run through those same engines.
//!
//! The workspace builds fully offline with zero external dependencies;
//! `crackdb-rng` (a dev-dependency here) provides the deterministic PRNG
//! the workloads and tests use in place of `rand`.
//!
//! ## Quickstart
//!
//! ```
//! use crackdb::engine::{Engine, SelectQuery, SidewaysEngine};
//! use crackdb::columnstore::{Column, Table, RangePred, AggFunc};
//!
//! let mut table = Table::new();
//! table.add_column("a", Column::new(vec![12, 3, 5, 9, 15, 22, 7]));
//! table.add_column("b", Column::new(vec![1, 2, 3, 4, 5, 6, 7]));
//!
//! let mut engine = SidewaysEngine::new(table, (0, 30));
//! let q = SelectQuery::aggregate(
//!     vec![(0, RangePred::open(4, 14))],
//!     vec![(1, AggFunc::Max)],
//! );
//! let out = engine.select(&q);
//! assert_eq!(out.aggs, vec![Some(7)]); // max(b) where 4 < a < 14
//! ```
//!
//! ## Serving concurrent clients
//!
//! Adaptive indexing makes every query a write (selection *reorganizes*
//! the columns), so an engine value serves one query at a time. The
//! [`engine::Service`] layer lets many sessions share one
//! [`engine::ShardedEngine`]: each shard sits behind its own lock, and
//! cheap, cloneable [`engine::Client`] handles run their own shard work
//! on the calling thread, taking per-shard turns in the order the router
//! issued their tickets. Calls are globally sequenced (each reply
//! carries its sequence number), so every session observes its own
//! writes and a concurrent run replays bit-identically on a serial
//! engine; admission control bounds the requests in flight, and a
//! graceful shutdown waits for every issued ticket and returns the
//! engine.
//!
//! ```
//! use crackdb::engine::{Engine, Service, SelectQuery, ShardedEngine, SidewaysEngine};
//! use crackdb::columnstore::{Column, Table, RangePred, AggFunc};
//!
//! let mut table = Table::new();
//! table.add_column("a", Column::new(vec![12, 3, 5, 9, 15, 22, 7]));
//! table.add_column("b", Column::new(vec![1, 2, 3, 4, 5, 6, 7]));
//!
//! let sharded = ShardedEngine::build(table, 2, |_, part| SidewaysEngine::new(part, (0, 30)));
//! let service = Service::start(sharded).expect("valid startup configuration");
//!
//! // One clone per session; handles are usable from any thread.
//! let client = service.client();
//! let q = SelectQuery::aggregate(
//!     vec![(0, RangePred::open(4, 14))],
//!     vec![(1, AggFunc::Max)],
//! );
//! let reply = client.select(&q).expect("admitted");
//! assert_eq!(reply.output.aggs, vec![Some(7)]);
//!
//! // Sessions read their own writes: the insert's key comes back, the
//! // next select is sequenced after it.
//! let w = client.insert(&[10, 9]).expect("admitted");
//! assert_eq!(w.key, Some(7)); // 7 original rows, first insert
//! let reply = client.select(&q).expect("admitted");
//! assert_eq!(reply.output.aggs, vec![Some(9)]);
//! assert!(reply.seq > w.seq);
//!
//! // Graceful shutdown waits for every issued ticket and hands the
//! // (reorganized) sharded engine back.
//! let mut engine = service.shutdown();
//! assert_eq!(engine.select(&q).aggs, vec![Some(9)]);
//! ```

pub use crackdb_columnstore as columnstore;
pub use crackdb_core as core;
pub use crackdb_cracking as cracking;
pub use crackdb_engine as engine;
pub use crackdb_workloads as workloads;
