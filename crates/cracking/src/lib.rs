#![warn(missing_docs)]
//! # crackdb-cracking
//!
//! Selection-based database cracking (Idreos, Kersten, Manegold;
//! CIDR 2007) with ripple updates (SIGMOD 2007): the foundation and the
//! baseline of the SIGMOD 2009 sideways-cracking paper.
//!
//! Provided building blocks, all reused by `crackdb-core` for sideways
//! cracking:
//!
//! * [`crack`] — the crack-in-two / crack-in-three partition kernels
//!   (branch-free block kernels, with the paper's scalar loops as their
//!   reference);
//! * [`index::CrackerIndex`] — the cracker index: leaf-blocked sorted
//!   arrays from boundaries to positions, with lazy deletion, plus §3.3
//!   histogram estimates;
//! * [`cracked::CrackedArray`] — a generic two-column cracked array with
//!   ripple insert/delete toward the nearer end;
//! * [`column::CrackerColumn`] — the selection-cracking baseline
//!   (`crackers.select`) with pending-update queues.
//!
//! Every structure cracks exactly at the predicate bounds, as the paper
//! does (§3.2), so a tape that logs only predicates replays each crack
//! bit-for-bit on a sibling. The one departure from the paper's access
//! pattern: a crack that would plough a huge virgin piece opens it with
//! a radix prepartition whose cuts the index keeps as *advisory*
//! boundaries.

pub mod column;
pub mod crack;
pub mod cracked;
pub mod index;

pub use column::{CrackedArea, CrackerColumn};
pub use crack::BoundKind;
pub use cracked::{CrackedArray, SeedPlan};
pub use index::{BoundaryKey, CrackerIndex, SizeEstimate};
