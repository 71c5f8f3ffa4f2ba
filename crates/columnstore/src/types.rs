//! Fundamental value and predicate types shared across the workspace.
//!
//! The paper's experiments use integer attributes throughout; we fix the
//! attribute value type to [`Val`] (`i64`) and tuple identifiers to
//! [`RowId`] (`u32`, sufficient for the paper's 10^7-tuple tables while
//! halving the memory footprint of cracker maps).

/// Attribute value type. The paper's tables store random integers.
pub type Val = i64;

/// Tuple identifier (position in a base column). Dense and ascending for
/// base BATs, mirroring MonetDB's virtual OID column.
pub type RowId = u32;

/// One side of a range restriction: the boundary value and whether the
/// boundary itself qualifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bound {
    /// Boundary value.
    pub value: Val,
    /// `true` for `<=`/`>=` semantics, `false` for strict `<`/`>`.
    pub inclusive: bool,
}

impl Bound {
    /// Inclusive boundary (`value` itself qualifies).
    pub fn inclusive(value: Val) -> Self {
        Bound {
            value,
            inclusive: true,
        }
    }

    /// Exclusive boundary (`value` itself does not qualify).
    pub fn exclusive(value: Val) -> Self {
        Bound {
            value,
            inclusive: false,
        }
    }
}

/// A (possibly half-open) range restriction `lo < A < hi` as used by every
/// selection operator in the paper (`select(A, v1, v2)`).
///
/// Either side may be absent, giving one-sided predicates; both absent
/// selects everything. Point queries are expressed with two inclusive
/// bounds on the same value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RangePred {
    /// Lower bound, if any.
    pub lo: Option<Bound>,
    /// Upper bound, if any.
    pub hi: Option<Bound>,
}

impl RangePred {
    /// `lo < A < hi` (both exclusive), the paper's canonical form.
    pub fn open(lo: Val, hi: Val) -> Self {
        RangePred {
            lo: Some(Bound::exclusive(lo)),
            hi: Some(Bound::exclusive(hi)),
        }
    }

    /// `lo <= A < hi` (half-open), convenient for partition arithmetic.
    pub fn half_open(lo: Val, hi: Val) -> Self {
        RangePred {
            lo: Some(Bound::inclusive(lo)),
            hi: Some(Bound::exclusive(hi)),
        }
    }

    /// `lo <= A <= hi` (both inclusive).
    pub fn closed(lo: Val, hi: Val) -> Self {
        RangePred {
            lo: Some(Bound::inclusive(lo)),
            hi: Some(Bound::inclusive(hi)),
        }
    }

    /// Point restriction `A == v`.
    pub fn point(v: Val) -> Self {
        Self::closed(v, v)
    }

    /// One-sided `A < hi` / `A <= hi`.
    pub fn less(hi: Bound) -> Self {
        RangePred {
            lo: None,
            hi: Some(hi),
        }
    }

    /// One-sided `A > lo` / `A >= lo`.
    pub fn greater(lo: Bound) -> Self {
        RangePred {
            lo: Some(lo),
            hi: None,
        }
    }

    /// Unrestricted predicate (matches every value).
    pub fn all() -> Self {
        RangePred { lo: None, hi: None }
    }

    /// Does `v` satisfy the predicate?
    #[inline(always)]
    pub fn matches(&self, v: Val) -> bool {
        let lo_ok = match self.lo {
            None => true,
            Some(b) => {
                if b.inclusive {
                    v >= b.value
                } else {
                    v > b.value
                }
            }
        };
        let hi_ok = match self.hi {
            None => true,
            Some(b) => {
                if b.inclusive {
                    v <= b.value
                } else {
                    v < b.value
                }
            }
        };
        lo_ok && hi_ok
    }

    /// `true` if no value can satisfy the predicate.
    pub fn is_empty_range(&self) -> bool {
        match (self.lo, self.hi) {
            (Some(lo), Some(hi)) => {
                if lo.value > hi.value {
                    true
                } else if lo.value == hi.value {
                    !(lo.inclusive && hi.inclusive)
                } else {
                    false
                }
            }
            _ => false,
        }
    }
}

/// Aggregate functions used by the paper's workloads (`max(...)` in q1–q3,
/// sums and averages in TPC-H).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Maximum value.
    Max,
    /// Minimum value.
    Min,
    /// Sum of values.
    Sum,
    /// Number of values.
    Count,
    /// Arithmetic mean, reported as `(sum, count)` scaled by caller.
    Avg,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_range_matches() {
        let p = RangePred::open(10, 15);
        assert!(!p.matches(10));
        assert!(p.matches(11));
        assert!(p.matches(14));
        assert!(!p.matches(15));
    }

    #[test]
    fn closed_and_half_open() {
        let c = RangePred::closed(5, 8);
        assert!(c.matches(5) && c.matches(8) && !c.matches(9) && !c.matches(4));
        let h = RangePred::half_open(5, 8);
        assert!(h.matches(5) && h.matches(7) && !h.matches(8));
    }

    #[test]
    fn point_predicate() {
        let p = RangePred::point(42);
        assert!(p.matches(42));
        assert!(!p.matches(41) && !p.matches(43));
        assert!(!p.is_empty_range());
    }

    #[test]
    fn one_sided() {
        let lt = RangePred::less(Bound::exclusive(3));
        assert!(lt.matches(i64::MIN) && lt.matches(2) && !lt.matches(3));
        let ge = RangePred::greater(Bound::inclusive(3));
        assert!(ge.matches(3) && ge.matches(i64::MAX) && !ge.matches(2));
    }

    #[test]
    fn empty_ranges() {
        assert!(RangePred::open(5, 5).is_empty_range());
        assert!(!RangePred::open(5, 6).is_empty_range());
        // (5,6) open contains nothing over the integers but we only detect
        // syntactic emptiness; matches() still answers correctly.
        assert!(!RangePred::open(5, 6).matches(5));
        assert!(!RangePred::open(5, 6).matches(6));
        assert!(RangePred::closed(7, 5).is_empty_range());
    }
}
