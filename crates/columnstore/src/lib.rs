#![warn(missing_docs)]
//! # crackdb-columnstore
//!
//! A self-contained, MonetDB-style column-store substrate: the storage
//! model and physical algebra that *"Self-organizing Tuple Reconstruction
//! in Column-stores"* (Idreos, Kersten, Manegold; SIGMOD 2009) builds on
//! and benchmarks against.
//!
//! The crate provides:
//!
//! * the BAT storage model ([`column::Column`], [`column::Table`]) with
//!   virtual dense keys and tuple-order alignment across base columns;
//! * the two-column physical algebra ([`ops`]) the engines' query paths
//!   use: order-preserving range [`ops::select`], positional
//!   [`ops::reconstruct`], hash [`ops::join`], block-at-a-time
//!   [`ops::block`] folds and gathers, and the [`ops::sort`] permutation
//!   the presorted copies are built with;
//! * the **presorted** baseline ([`presorted::PresortedTable`]) — the
//!   paper's "ultimate physical design" of per-attribute sorted copies;
//! * a **row-store** baseline ([`rowstore`]) standing in for MySQL in the
//!   TPC-H experiments;
//! * cache-conscious [`radix`] clustering of unordered intermediates
//!   (Exp3's reordering strategies);
//! * row-wise [`shard`] partitioning helpers ([`shard::ShardCuts`],
//!   [`shard::partition_table`]) — the arithmetic behind the horizontal
//!   sharding layer (`crackdb-engine`'s `ShardedEngine`).
//!
//! Everything here is deliberately simple and allocation-transparent: the
//! experiments measure *access patterns* (sequential vs random positional
//! lookups), and this substrate reproduces exactly those patterns.

pub mod column;
pub mod ops;
pub mod presorted;
pub mod radix;
pub mod rowstore;
pub mod shard;
pub mod sync;
pub mod types;

pub use column::{Column, Table};
pub use presorted::PresortedTable;
pub use rowstore::{PresortedRowTable, RowTable};
pub use shard::{partition_table, ShardCuts};
pub use sync::lock_unpoisoned;
pub use types::{AggFunc, Bound, RangePred, RowId, Val};
