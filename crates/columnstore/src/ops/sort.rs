//! The sort permutation machinery used to build presorted table copies.

use crate::types::{RowId, Val};

/// Compute the sort permutation of `vals`: `perm[i]` is the original
/// position of the i-th smallest value (stable).
pub fn sort_permutation(vals: &[Val]) -> Vec<RowId> {
    let mut idx: Vec<RowId> = (0..vals.len() as RowId).collect();
    idx.sort_by_key(|&i| vals[i as usize]);
    idx
}

/// Apply a permutation: `out[i] = vals[perm[i]]`.
pub fn apply_permutation(vals: &[Val], perm: &[RowId]) -> Vec<Val> {
    perm.iter().map(|&i| vals[i as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_roundtrip() {
        let vals = [30, 10, 20];
        let perm = sort_permutation(&vals);
        assert_eq!(perm, vec![1, 2, 0]);
        assert_eq!(apply_permutation(&vals, &perm), vec![10, 20, 30]);
    }
}
