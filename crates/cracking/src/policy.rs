//! Pluggable crack-pivot policies: how a cracked structure chooses its
//! physical split points for a query predicate.
//!
//! The paper (and the CIDR'07 baseline) always crack *exactly* at the
//! query's predicate bounds. That choice is optimal for repeated and
//! random workloads but pathological for two adversarial patterns the
//! interactive-exploration benchmarks stress:
//!
//! * **Sequential sweeps** (`Pattern::Sequential`) leave one huge
//!   uncracked tail piece that every query re-partitions — per-query
//!   cost stays O(n) instead of converging.
//! * **Skewed drill-downs** shatter a hot value region into thousands of
//!   tiny pieces, bloating the AVL cracker index with boundaries that
//!   never pay for themselves.
//!
//! [`CrackPolicy`] makes the pivot choice pluggable:
//!
//! * [`CrackPolicy::Standard`] — crack exactly at the predicate bounds
//!   (the paper's behaviour, bit-for-bit).
//! * [`CrackPolicy::CoarseGranular`] — never split a piece at or below
//!   `min_piece` tuples; the query filters inside the leaf piece
//!   instead, capping AVL growth under skew.
//!
//! The sequential-sweep pathology (one huge uncracked tail piece that
//! every query re-partitions) is handled below the policy layer: the
//! block kernel's radix prepartition cuts a large virgin piece into
//! cache-sized advisory pieces on its first touch.
//!
//! **Determinism contract.** Alignment in sideways and partial sideways
//! cracking replays tape-logged predicates on sibling structures and
//! requires bit-identical physical outcomes. Every policy is therefore a
//! *pure function of the array state and the predicate*, and a
//! structure's policy is fixed at construction: a cracker column, map
//! set or partial set cracks under the one policy it was built with for
//! its whole life, and replay uses that policy. So siblings, late-created
//! maps and spill-reloaded chunks reproduce each historic crack
//! bit-for-bit.

/// Default leaf-piece size for [`CrackPolicy::CoarseGranular`].
pub const DEFAULT_COARSE_MIN_PIECE: usize = 1 << 10;

/// Smallest uncracked piece the radix-prepartition fast path bothers
/// with: below this, one blocked crack-in-two pass is already cheap and
/// the advisory boundaries would not pay for their AVL nodes.
pub const PREPARTITION_MIN_PIECE: usize = 1 << 20;

/// Piece size the prepartition aims for: roughly L2-resident pieces, so
/// every later crack of a seeded piece is cache-friendly.
pub const PREPARTITION_TARGET_PIECE: usize = 1 << 16;

/// The pivot-choice strategy of a cracked structure. See the module docs
/// for the behavioural and determinism contracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrackPolicy {
    /// Crack exactly at the query's predicate bounds — the paper's
    /// behaviour, reproduced bit-for-bit (the default).
    #[default]
    Standard,
    /// Stop splitting pieces at or below `min_piece` tuples; queries
    /// filter inside the leaf piece instead of cracking it.
    CoarseGranular {
        /// Smallest piece the policy is willing to split.
        min_piece: usize,
    },
}

impl CrackPolicy {
    /// Coarse-granular policy with the default leaf size.
    pub fn coarse() -> Self {
        CrackPolicy::CoarseGranular {
            min_piece: DEFAULT_COARSE_MIN_PIECE,
        }
    }

    /// Short machine-readable name (benchmark output, CI matrices).
    pub fn label(&self) -> &'static str {
        match self {
            CrackPolicy::Standard => "standard",
            CrackPolicy::CoarseGranular { .. } => "coarse",
        }
    }

    /// Parse a policy name: `standard`, `coarse` (default leaf size) or
    /// `coarse:<min_piece>`.
    ///
    /// This is pure string parsing; the `CRACKDB_POLICY` environment
    /// hook the engine constructors consume lives next to the other env
    /// parsing in `crackdb-engine`'s `exec` module (`policy_from_env` /
    /// `env_policy`), where an invalid value is a recoverable startup
    /// error instead of a panic inside a library constructor.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        match s {
            "" | "standard" => Some(CrackPolicy::Standard),
            "coarse" => Some(CrackPolicy::coarse()),
            _ => {
                let rest = s.strip_prefix("coarse:")?;
                let min_piece: usize = rest.parse().ok()?;
                Some(CrackPolicy::CoarseGranular {
                    min_piece: min_piece.max(1),
                })
            }
        }
    }

    /// The piece size the radix-prepartition fast path should target
    /// under this policy. Coarse-granular cracking promises never to
    /// manufacture pieces below its leaf size, so its target is clamped
    /// up to `min_piece`; the standard policy takes the cache-friendly
    /// default. (Like every policy decision this is a pure function, so
    /// aligned siblings prepartition identically.)
    pub fn prepartition_target(&self) -> usize {
        match *self {
            CrackPolicy::Standard => PREPARTITION_TARGET_PIECE,
            CrackPolicy::CoarseGranular { min_piece } => PREPARTITION_TARGET_PIECE.max(min_piece),
        }
    }

    /// Both policy families at their defaults, for sweeps.
    pub fn all() -> [CrackPolicy; 2] {
        [CrackPolicy::Standard, CrackPolicy::coarse()]
    }
}

/// The qualifying area a policy-aware crack produced.
///
/// Under [`CrackPolicy::Standard`] the span is always **exact**: every tuple in `[start, end)` satisfies the
/// predicate. Under [`CrackPolicy::CoarseGranular`] a declined split
/// leaves the span **inexact** — a superset delimited by the enclosing
/// leaf pieces — and the caller must filter head values by the
/// predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First position of the (super)set of qualifying tuples.
    pub start: usize,
    /// One past the last position.
    pub end: usize,
    /// `true` when every tuple in the span satisfies the predicate.
    pub exact: bool,
}

impl Span {
    /// Exact span covering `[start, end)`.
    pub fn exact(start: usize, end: usize) -> Self {
        Span {
            start,
            end,
            exact: true,
        }
    }

    /// The `(start, end)` pair.
    pub fn range(&self) -> (usize, usize) {
        (self.start, self.end)
    }

    /// Number of tuples in the span (qualifying count only when exact).
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` when the span holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_labels() {
        for p in CrackPolicy::all() {
            assert_eq!(CrackPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(CrackPolicy::parse("adaptive"), None);
        assert_eq!(CrackPolicy::parse(""), Some(CrackPolicy::Standard));
        assert_eq!(
            CrackPolicy::parse("coarse:64"),
            Some(CrackPolicy::CoarseGranular { min_piece: 64 })
        );
        assert_eq!(
            CrackPolicy::parse("coarse:0"),
            Some(CrackPolicy::CoarseGranular { min_piece: 1 })
        );
        assert_eq!(CrackPolicy::parse("nonsense"), None);
        assert_eq!(CrackPolicy::parse("coarse:x"), None);
    }

    #[test]
    fn span_helpers() {
        let s = Span::exact(3, 7);
        assert_eq!(s.range(), (3, 7));
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(Span::exact(5, 5).is_empty());
    }
}
