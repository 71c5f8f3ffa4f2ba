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

    /// The predicate as one closed interval `[lo, lo + span]`, or `None`
    /// when no value satisfies it: an inverted range, or an exclusive
    /// bound at the end of the domain (`< i64::MIN`, `> i64::MAX`).
    #[inline(always)]
    pub fn interval(&self) -> Option<Interval> {
        let lo = match self.lo {
            None => Val::MIN,
            Some(b) if b.inclusive => b.value,
            Some(b) => b.value.checked_add(1)?,
        };
        let hi = match self.hi {
            None => Val::MAX,
            Some(b) if b.inclusive => b.value,
            Some(b) => b.value.checked_sub(1)?,
        };
        (lo <= hi).then(|| Interval {
            lo,
            span: hi.wrapping_sub(lo) as u64,
        })
    }

    /// Does `v` satisfy the predicate?
    #[inline(always)]
    pub fn matches(&self, v: Val) -> bool {
        self.interval().is_some_and(|i| i.contains(v))
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

/// A non-empty closed range `[lo, lo + span]` of values: a [`RangePred`]
/// with its bounds resolved to inclusive ones, so membership is one
/// unsigned compare and a word of 64 memberships builds branch-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest member.
    pub lo: Val,
    /// Largest member minus `lo`.
    pub span: u64,
}

impl Interval {
    /// Is `v` in `[lo, lo + span]`? Values below `lo` wrap to large
    /// unsigned offsets, so one compare tests both bounds.
    #[inline(always)]
    pub fn contains(&self, v: Val) -> bool {
        (v.wrapping_sub(self.lo) as u64) <= self.span
    }

    /// One selection word over at most 64 values: bit `i` is set when
    /// `chunk[i]` is a member, and no bit at or beyond `chunk.len()` is.
    #[inline(always)]
    pub fn word(&self, chunk: &[Val]) -> u64 {
        debug_assert!(chunk.len() <= 64);
        let mut m = 0u64;
        for (i, &v) in chunk.iter().enumerate() {
            m |= (self.contains(v) as u64) << i;
        }
        m
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
    /// Arithmetic mean, `sum / count` truncated toward zero (`None` over
    /// no values).
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

    /// The two-sided bound test `matches` was before it went through
    /// [`Interval`]: the truth table the interval form must keep.
    fn bounds_match(p: &RangePred, v: Val) -> bool {
        let lo_ok = p.lo.is_none_or(|b| {
            if b.inclusive {
                v >= b.value
            } else {
                v > b.value
            }
        });
        let hi_ok = p.hi.is_none_or(|b| {
            if b.inclusive {
                v <= b.value
            } else {
                v < b.value
            }
        });
        lo_ok && hi_ok
    }

    #[test]
    fn interval_keeps_the_bound_truth_table() {
        let edges = [
            Val::MIN,
            Val::MIN + 1,
            Val::MIN + 2,
            -2,
            -1,
            0,
            1,
            2,
            Val::MAX - 2,
            Val::MAX - 1,
            Val::MAX,
        ];
        let bounds = edges
            .iter()
            .flat_map(|&v| [Some(Bound::inclusive(v)), Some(Bound::exclusive(v))])
            .chain([None]);
        let bounds: Vec<Option<Bound>> = bounds.collect();
        for &lo in &bounds {
            for &hi in &bounds {
                let p = RangePred { lo, hi };
                let interval = p.interval();
                for &v in &edges {
                    let want = bounds_match(&p, v);
                    assert_eq!(
                        interval.is_some_and(|i| i.contains(v)),
                        want,
                        "{p:?} at {v}"
                    );
                    assert_eq!(p.matches(v), want, "{p:?} at {v}");
                }
            }
        }
    }

    #[test]
    fn interval_of_edge_predicates() {
        assert_eq!(
            RangePred::all().interval(),
            Some(Interval {
                lo: Val::MIN,
                span: u64::MAX
            })
        );
        assert_eq!(
            RangePred::point(7).interval(),
            Some(Interval { lo: 7, span: 0 })
        );
        assert_eq!(RangePred::open(5, 6).interval(), None);
        assert_eq!(RangePred::closed(7, 5).interval(), None);
        assert_eq!(RangePred::less(Bound::exclusive(Val::MIN)).interval(), None);
        assert_eq!(
            RangePred::greater(Bound::exclusive(Val::MAX)).interval(),
            None
        );
        let below_max = RangePred::less(Bound::exclusive(Val::MAX)).interval();
        assert!(below_max.is_some_and(|i| i.contains(Val::MAX - 1) && !i.contains(Val::MAX)));
    }
}
