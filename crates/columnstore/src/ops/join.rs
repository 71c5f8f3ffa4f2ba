//! The `join(j1, j2)` operator: equi-join of two `(key, attr)` inputs on
//! their attr values, producing qualifying `(key1, key2)` pairs.
//!
//! As in MonetDB's physical algebra, the join preserves tuple order only
//! for the *outer* (left) input; the inner side's keys come out in hash
//! order, which is why post-join tuple reconstruction on the inner
//! relation degenerates to random access for every system in the paper's
//! Exp4.

use crate::types::{RowId, Val};
use std::collections::HashMap;

/// Hash equi-join. `left` is the outer input whose order is preserved in
/// the output; `right` is built into a hash table.
pub fn hash_join(left: &[(RowId, Val)], right: &[(RowId, Val)]) -> Vec<(RowId, RowId)> {
    let mut table: HashMap<Val, Vec<RowId>> = HashMap::with_capacity(right.len());
    for &(k, v) in right {
        table.entry(v).or_default().push(k);
    }
    let mut out = Vec::new();
    for &(lk, lv) in left {
        if let Some(matches) = table.get(&lv) {
            for &rk in matches {
                out.push((lk, rk));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_join() {
        let l = vec![(0, 7), (1, 8), (2, 7)];
        let r = vec![(10, 7), (11, 9)];
        let out = hash_join(&l, &r);
        assert_eq!(out, vec![(0, 10), (2, 10)]);
    }

    #[test]
    fn preserves_left_order() {
        let l = vec![(5, 1), (3, 2), (9, 1)];
        let r = vec![(0, 1), (1, 2)];
        let out = hash_join(&l, &r);
        let left_keys: Vec<_> = out.iter().map(|p| p.0).collect();
        assert_eq!(left_keys, vec![5, 3, 9]);
    }

    #[test]
    fn duplicates_multiply() {
        let l = vec![(0, 4)];
        let r = vec![(1, 4), (2, 4)];
        assert_eq!(hash_join(&l, &r).len(), 2);
    }

    #[test]
    fn empty_inputs() {
        assert!(hash_join(&[], &[(0, 1)]).is_empty());
        assert!(hash_join(&[(0, 1)], &[]).is_empty());
    }
}
