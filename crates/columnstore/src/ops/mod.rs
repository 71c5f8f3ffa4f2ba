//! MonetDB-style two-column physical algebra operators.

pub mod block;
pub mod join;
pub mod reconstruct;
pub mod select;
pub mod sort;
