//! The `reconstruct(A, r)` operator: fetch `(key, attr)` pairs of base
//! column `A` at the positions listed in `r`.
//!
//! This is *the* cost component the paper attacks. When `r` comes from an
//! order-preserving operator the lookups are in ascending position order —
//! sequential, cache-friendly. When `r` is unordered (e.g. after selection
//! cracking or a join) the lookups are random, lacking spatial and temporal
//! locality. Both paths execute identical code here; the memory system
//! makes the difference, which the benchmarks measure.

use crate::column::Column;
use crate::types::{RowId, Val};

/// Fetch values of `col` at `keys` (any order). The access pattern —
/// sequential vs random — is dictated by the order of `keys`.
pub fn reconstruct(col: &Column, keys: &[RowId]) -> Vec<Val> {
    let values = col.values();
    keys.iter().map(|&k| values[k as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_fetch() {
        let c = Column::new(vec![10, 20, 30, 40]);
        assert_eq!(reconstruct(&c, &[0, 2, 3]), vec![10, 30, 40]);
    }

    #[test]
    fn unordered_fetch_preserves_key_order_of_input() {
        let c = Column::new(vec![10, 20, 30, 40]);
        assert_eq!(reconstruct(&c, &[3, 0, 2]), vec![40, 10, 30]);
    }

    #[test]
    fn empty_keys() {
        let c = Column::new(vec![1]);
        assert!(reconstruct(&c, &[]).is_empty());
    }
}
