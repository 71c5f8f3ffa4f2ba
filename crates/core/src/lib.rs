#![warn(missing_docs)]
//! # crackdb-core
//!
//! Sideways cracking and partial sideways cracking — the primary
//! contribution of *"Self-organizing Tuple Reconstruction in
//! Column-stores"* (Idreos, Kersten, Manegold; SIGMOD 2009).
//!
//! * [`set::MapSet`] — full cracker maps per head attribute, kept aligned
//!   through the cracker [`tape::Tape`]; the `sideways.select` operator
//!   family including the §3.3 bit-vector operators and on-demand update
//!   merging (§3.5).
//! * [`partial::PartialSet`] — §4's chunked, storage-bounded variant with
//!   chunk maps, per-area tapes, partial alignment, LFU chunk dropping,
//!   lazy index deletion and head-column dropping.
//! * [`bitvec::BitVec`] — the filtering bit vector.
//! * [`map`] — cracker map / key map structures.

pub mod bitvec;
pub mod cracker_join;
pub mod map;
pub mod partial;
pub mod set;
pub mod store;
pub mod tape;

pub use bitvec::BitVec;
pub use crackdb_columnstore::lock_unpoisoned;
pub use cracker_join::{cracker_join, flat_hash_join};
pub use map::{CrackerMap, KeyMap};
pub use partial::{AreaEntry, PartialMap, PartialSet, PartialStats};
pub use set::MapSet;
pub use store::{ConjHandle, PartialStore, SidewaysStore};
pub use tape::{DeleteBatch, InsertBatch, Tape, TapeEntry};
