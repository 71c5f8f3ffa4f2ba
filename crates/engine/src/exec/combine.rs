//! The §3.3 combining strategies, shared by every access path:
//!
//! * **intersection strategy** — positional refinement of key lists
//!   (plain scans, selection cracking, row stores);
//! * **union strategies** — ordered merge for sorted key lists,
//!   hash-set union for unordered ones;
//! * **bit-vector strategy** — create/refine qualifying bits over a
//!   contiguous positionally-aligned area (presorted copies, sideways
//!   maps).
//!
//! Engines supply only the value accessors; the strategy code exists
//! exactly once here.

use crackdb_columnstore::types::{RangePred, RowId, Val};
use crackdb_core::BitVec;
use std::collections::HashSet;

/// Intersection strategy: keep the keys whose value (via `value_of`)
/// satisfies `pred`. Preserves key order.
pub fn refine_keys(keys: &mut Vec<RowId>, pred: &RangePred, value_of: impl Fn(RowId) -> Val) {
    keys.retain(|&k| pred.matches(value_of(k)));
}

/// Union strategy for *unordered* key lists: append every key of `more`
/// not already present (cracker-select disjunctions).
pub fn union_keys_unordered(keys: &mut Vec<RowId>, more: impl IntoIterator<Item = RowId>) {
    let mut seen: HashSet<RowId> = keys.iter().copied().collect();
    for k in more {
        if seen.insert(k) {
            keys.push(k);
        }
    }
}

/// Bit-vector strategy: create bits over a positionally-aligned value
/// slice, set where `pred` holds, or refine them (clear bits whose
/// aligned value fails `pred`) — the residual-predicate loop.
pub fn fold_bv(bv: &mut Option<BitVec>, vals: &[Val], pred: &RangePred) {
    match bv {
        None => *bv = Some(BitVec::from_range(vals, pred)),
        Some(bv) => bv.refine_range(vals, pred),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refine_keys_intersects() {
        let vals = [10i64, 20, 30, 40];
        let mut keys = vec![0u32, 1, 2, 3];
        refine_keys(&mut keys, &RangePred::open(15, 35), |k| vals[k as usize]);
        assert_eq!(keys, vec![1, 2]);
    }

    #[test]
    fn union_unordered_dedups() {
        let mut keys = vec![5u32, 1, 9];
        union_keys_unordered(&mut keys, [1, 2, 9, 3]);
        assert_eq!(keys, vec![5, 1, 9, 2, 3]);
    }

    #[test]
    fn bv_strategy_roundtrip() {
        let vals = [1i64, 5, 9, 5, 1];
        let mut bv = None;
        fold_bv(
            &mut bv,
            &vals,
            &RangePred::greater(crackdb_columnstore::types::Bound::inclusive(5)),
        );
        fold_bv(
            &mut bv,
            &vals,
            &RangePred::less(crackdb_columnstore::types::Bound::exclusive(9)),
        );
        let ones: Vec<usize> = bv.map_or(Vec::new(), |bv| bv.iter_ones().collect());
        assert_eq!(ones, vec![1, 3]);
    }
}
