//! Self-tuning crack-policy selection: per-structure workload statistics
//! and the pure decision function that maps them to a static
//! [`CrackPolicy`].
//!
//! PR 4 made the pivot strategy pluggable but *static*: one policy per
//! process, chosen up front, forever. The paper's promise is
//! self-organization driven by the workload, so the policy choice itself
//! should be workload-driven. This module supplies the two pieces:
//!
//! * [`WorkloadStats`] — an O(1)-per-query, allocation-free tracker of
//!   the three signals the static policies were designed around:
//!   **sequential runs** (consecutive adjacent-rightward predicates,
//!   where standard cracking re-ploughs an O(n) tail every query),
//!   **hot-range skew** (a windowed counter of queries landing near a
//!   stochastically-approximated median — concentration means exact
//!   cracking converges and stays cheap; *scatter* means mature indexes
//!   keep paying for cracks nobody revisits), and **boundary density**
//!   (a direct cap on cracker-index growth relative to the array).
//! * [`decide`] — a pure function `(stats, boundaries, len) →
//!   CrackPolicy` choosing Standard or CoarseGranular.
//!
//! [`PolicyAdvisor`] packages both behind the owning structure's
//! configured policy: advisors for a static policy are inert (observe is
//! a branch and a return), advisors for [`CrackPolicy::Adaptive`]
//! update stats and re-decide once per logical query.
//!
//! **Determinism.** Advisor state is a deterministic fold over the
//! observed predicate sequence, and [`decide`] is pure. Two advisors fed
//! the same predicates over structures in the same state make identical
//! decisions — so replicas, shards and replayed tapes stay bit-aligned.
//! The tape/replay layer additionally records the *effective* policy of
//! every crack (see the policy module docs), so replay never needs to
//! re-run the advisor at all.

use crate::policy::CrackPolicy;
use crackdb_columnstore::types::{RangePred, Val};

/// Consecutive adjacent-rightward queries before the advisor treats the
/// workload as a sequential sweep.
pub const SEQ_RUN_ON: u32 = 8;

/// Consecutive non-adjacent queries before sequential mode is left
/// again (hysteresis, so a single wrap-around does not flip-flop).
pub const SEQ_RUN_OFF: u32 = 8;

/// Size of the sliding skew window: once `recent` reaches this, both
/// skew counters are halved, giving an exponential-decay window.
const SKEW_WINDOW: u32 = 64;

/// Minimum observations inside the window before the skew signal is
/// trusted.
const SKEW_MIN_RECENT: u32 = 32;

/// Cracker-index size at which a scattered workload counts as *mature*:
/// past this many boundaries, further exact cracks on uniformly spread
/// predicates mostly shave already-small pieces, and coarse-granular
/// leaves save the crack and index-insert work.
pub const MATURE_BOUNDARIES: usize = 128;

/// Frequency-based grace for map/chunk retention scoring: each doubling
/// of a structure's access count keeps it alive this many clock ticks
/// longer than pure recency would.
pub const RETENTION_GRACE: u64 = 8;

/// O(1) per-query workload signals for one cracked structure.
///
/// All state is a handful of scalars; `observe` allocates nothing. The
/// tracker is a deterministic fold over the predicate sequence: feeding
/// two trackers the same predicates leaves them bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Total predicates observed.
    queries: u64,
    /// Predicates observed that carried at least one bound.
    located: u64,
    /// Bounds of the previous located predicate.
    last_lo: Val,
    last_hi: Val,
    /// Length of the current run of adjacent-rightward predicates.
    seq_run: u32,
    /// Lower bound of the predicate that anchored the current run (for
    /// the displacement gate: a run must cover real territory before it
    /// counts as a sweep).
    run_lo: Val,
    /// Length of the current run of non-adjacent predicates.
    seq_break: u32,
    /// Sticky sequential-sweep flag (entered at [`SEQ_RUN_ON`], left at
    /// [`SEQ_RUN_OFF`]).
    seq_mode: bool,
    /// Stochastic-approximation median of observed lower bounds.
    med: Val,
    /// Observed span of query locations (for scaling the median step
    /// and the hot-zone width).
    span_lo: Val,
    span_hi: Val,
    /// Queries in the decayed window that landed near the median.
    hot_hits: u32,
    /// Total queries in the decayed window.
    recent: u32,
}

impl WorkloadStats {
    /// Fresh tracker with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total predicates observed.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// `true` while the tracker classifies the workload as a sequential
    /// sweep.
    pub fn sequential_mode(&self) -> bool {
        self.seq_mode
    }

    /// Fraction (numerator, denominator) of recent queries that landed
    /// in the hot zone around the running median.
    pub fn hot_fraction(&self) -> (u32, u32) {
        (self.hot_hits, self.recent)
    }

    /// Fold one predicate into the tracker. O(1), allocation-free.
    pub fn observe(&mut self, pred: &RangePred) {
        self.queries += 1;
        // A predicate with no bounds (full scan) carries no locality
        // signal; count it and keep every other signal untouched.
        let (lo_b, hi_b) = (pred.lo.as_ref(), pred.hi.as_ref());
        let (lo, hi) = match (lo_b, hi_b) {
            (None, None) => return,
            (Some(l), Some(h)) => (l.value, h.value),
            (Some(l), None) => (l.value, l.value),
            (None, Some(h)) => (h.value, h.value),
        };
        self.located += 1;
        if self.located == 1 {
            // First located predicate: seed the span and median.
            self.span_lo = lo;
            self.span_hi = hi;
            self.med = lo;
            self.last_lo = lo;
            self.last_hi = hi;
            self.recent = 1;
            self.hot_hits = 1;
            return;
        }
        self.span_lo = self.span_lo.min(lo);
        self.span_hi = self.span_hi.max(hi);
        let span = (self.span_hi - self.span_lo).max(1);

        // Sequential-run detection: the new predicate starts to the
        // right of the old one, within one stripe width of its end, and
        // *advances the frontier* (`hi` grows). The frontier test is
        // what separates a sweep from a drill-down: nested zooms also
        // move `lo` rightward, but their upper bound shrinks — plying
        // them with anti-sweep cracking would pay a whole-array
        // prepartition for a session that never leaves its panel.
        let width = (hi - lo).max(1);
        let adjacent =
            lo > self.last_lo && hi > self.last_hi && lo <= self.last_hi.saturating_add(width);
        if adjacent {
            if self.seq_run == 0 {
                self.run_lo = self.last_lo;
            }
            self.seq_run += 1;
            self.seq_break = 0;
            // Displacement gate: only a run that has already ploughed a
            // real fraction of the observed span is a sweep. Local
            // stripe bursts (adjacent bins inside one panel) stay under
            // the gate and keep exact cracking.
            let covered = hi.saturating_sub(self.run_lo);
            if self.seq_run >= SEQ_RUN_ON && covered.saturating_mul(16) >= span {
                self.seq_mode = true;
            }
        } else {
            self.seq_break += 1;
            self.seq_run = 0;
            if self.seq_break >= SEQ_RUN_OFF {
                self.seq_mode = false;
            }
        }
        self.last_lo = lo;
        self.last_hi = hi;

        // Hot-range skew: a windowed count of queries landing within
        // span/8 of a stochastic-approximation median of lower bounds.
        if (lo - self.med).abs() * 8 < span {
            self.hot_hits += 1;
        }
        self.recent += 1;
        let step = (span / 64).max(1);
        if lo > self.med {
            self.med += step;
        } else if lo < self.med {
            self.med -= step;
        }
        if self.recent >= SKEW_WINDOW {
            self.recent /= 2;
            self.hot_hits /= 2;
        }
    }
}

/// Pure decision function: map workload signals plus the structure's
/// current shape (`boundaries` cracker-index entries over `len` tuples)
/// to the static policy the next crack should run under.
///
/// Priority order mirrors the severity of the pathologies: sequential
/// sweeps cost O(n) *per query* under exact cracking, so they win;
/// boundary bloat costs index growth and per-crack work, so it comes
/// second; everything else gets the paper's exact cracking.
///
/// Hot-range skew deliberately maps to `Standard`: exact cracking
/// *converges* inside a hot zone after a handful of queries (the paper's
/// §4.2 result), so the skew counter's job is to veto the coarse
/// downgrade — a skewed workload that matured its index is still best
/// served by exact cracks in the zone it keeps revisiting.
pub fn decide(stats: &WorkloadStats, boundaries: usize, len: usize) -> CrackPolicy {
    if stats.sequential_mode() {
        // A marching sweep touches each boundary once and moves on: the
        // exact crack per stripe edge never pays for itself, while
        // coarse-granular leaves stop splitting once the plough is
        // memory-bandwidth-bound anyway. (Under the block kernels the
        // huge-virgin-piece case is already covered by the radix
        // prepartition, so the anti-sweep answer is fewer cracks — not
        // randomized pivots.)
        return CrackPolicy::coarse();
    }
    // AVL-growth cap: once the average piece is below half the coarse
    // leaf size the index has stopped paying for itself.
    let min_piece = crate::policy::DEFAULT_COARSE_MIN_PIECE;
    let dense = boundaries >= 64 && boundaries.saturating_mul(min_piece) > len.saturating_mul(2);
    // Mature scattered workload: predicates spread out (no hot zone
    // soaking up the cracks), index already carved — coarse leaves stop
    // paying the per-query crack/insert tax on pieces that will never
    // be revisited.
    let (hot, recent) = stats.hot_fraction();
    let scattered = recent >= SKEW_MIN_RECENT
        && hot.saturating_mul(2) < recent
        && boundaries >= MATURE_BOUNDARIES;
    if dense || scattered {
        return CrackPolicy::coarse();
    }
    CrackPolicy::Standard
}

/// Per-structure policy selector.
///
/// Owns a configured [`CrackPolicy`] plus (when the configured policy is
/// [`CrackPolicy::Adaptive`]) the workload tracker that drives per-query
/// re-decisions. For a static configured policy the advisor is inert:
/// `observe` is a branch and a return, and `effective()` never changes.
#[derive(Debug, Clone, Copy)]
pub struct PolicyAdvisor {
    configured: CrackPolicy,
    stats: WorkloadStats,
    effective: CrackPolicy,
    switches: u64,
    /// The owning structure does not profit from the anti-sweep coarse
    /// downgrade: it cracks multi-column units (sideways map pairs)
    /// where every tape entry moves two physical columns and later maps
    /// re-align by replaying the tape — quantized sweep cracks leave
    /// stripe edges buried inside leaves that every replayed map then
    /// re-filters. For such structures a sweep decision resolves to
    /// `Standard` (measured fastest on map sweeps since the block
    /// kernels landed).
    sweep_immune: bool,
}

impl PolicyAdvisor {
    /// Advisor for a structure configured with `policy`. An adaptive
    /// advisor starts out effective-Standard (the paper's behaviour)
    /// until the workload says otherwise.
    pub fn new(policy: CrackPolicy) -> Self {
        let effective = if policy.is_adaptive() {
            CrackPolicy::Standard
        } else {
            policy
        };
        PolicyAdvisor {
            configured: policy,
            stats: WorkloadStats::new(),
            effective,
            switches: 0,
            sweep_immune: false,
        }
    }

    /// Advisor for a structure that does not profit from anti-sweep
    /// cracking (multi-column sideways map pairs): sequential-sweep
    /// decisions resolve to `Standard` instead of coarse. Deterministic
    /// — the flag is a static property of the structure, not of the
    /// workload.
    pub fn new_sweep_immune(policy: CrackPolicy) -> Self {
        PolicyAdvisor {
            sweep_immune: true,
            ..Self::new(policy)
        }
    }

    /// The policy the structure was configured with (possibly
    /// `Adaptive`).
    pub fn configured(&self) -> CrackPolicy {
        self.configured
    }

    /// The static policy the next crack should run under.
    pub fn effective(&self) -> CrackPolicy {
        self.effective
    }

    /// How many times the effective policy has changed.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// The underlying workload tracker.
    pub fn stats(&self) -> &WorkloadStats {
        &self.stats
    }

    /// Observe one logical query against a structure currently shaped as
    /// `boundaries` index entries over `len` tuples, and return the
    /// effective policy for it. Inert (constant-time, stats untouched)
    /// unless configured adaptive.
    pub fn observe(&mut self, pred: &RangePred, boundaries: usize, len: usize) -> CrackPolicy {
        if !self.configured.is_adaptive() {
            return self.effective;
        }
        self.stats.observe(pred);
        let mut next = decide(&self.stats, boundaries, len);
        if self.sweep_immune && self.stats.sequential_mode() {
            next = CrackPolicy::Standard;
        }
        if next != self.effective {
            self.switches += 1;
            self.effective = next;
        }
        self.effective
    }
}

/// Retention score for cache-style eviction of cracker maps and partial
/// chunks: recency boosted by log-frequency, so a structure that has
/// earned many accesses survives [`RETENTION_GRACE`] clock ticks per
/// doubling beyond what pure recency would grant. Higher scores are
/// worth keeping; evict the minimum. Deterministic and integral, so
/// eviction order is stable across runs.
pub fn retention_score(accesses: u64, last_access: u64) -> u64 {
    let freq = 63 - (accesses + 1).leading_zeros() as u64;
    last_access.saturating_add(freq * RETENTION_GRACE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(lo: Val, hi: Val) -> RangePred {
        RangePred::open(lo, hi)
    }

    #[test]
    fn sequential_sweep_enters_and_leaves_coarse() {
        let mut a = PolicyAdvisor::new(CrackPolicy::Adaptive);
        assert_eq!(a.effective(), CrackPolicy::Standard);
        let mut lo = 0;
        for _ in 0..SEQ_RUN_ON as i64 + 2 {
            a.observe(&open(lo, lo + 101), 10, 1 << 20);
            lo += 100;
        }
        assert_eq!(a.effective(), CrackPolicy::coarse());
        assert!(a.switches() >= 1);
        // A burst of scattered queries leaves sweep mode again.
        let spots = [
            901_234, 17, 500_000, 44_000, 999_000, 3, 700_500, 123_456, 42,
        ];
        for (i, s) in spots.iter().enumerate() {
            a.observe(&open(*s, *s + 101), 10, 1 << 20);
            let _ = i;
        }
        assert_eq!(a.effective(), CrackPolicy::Standard);
    }

    #[test]
    fn sweep_immune_advisor_resolves_sweeps_to_standard() {
        let mut a = PolicyAdvisor::new_sweep_immune(CrackPolicy::Adaptive);
        let mut lo = 0;
        for _ in 0..SEQ_RUN_ON as i64 + 2 {
            a.observe(&open(lo, lo + 101), 10, 1 << 20);
            lo += 100;
        }
        assert!(a.stats().sequential_mode());
        assert_eq!(a.effective(), CrackPolicy::Standard);
        assert_eq!(a.switches(), 0);
    }

    #[test]
    fn hot_range_skew_keeps_exact_cracking() {
        let mut a = PolicyAdvisor::new(CrackPolicy::Adaptive);
        // Deterministic LCG: 90% of queries inside a 5%-wide hot zone.
        // Exact cracking converges inside the zone, so even on a mature
        // index (boundaries past the scatter threshold) the advisor
        // must stay Standard — the skew counter vetoes the downgrade.
        let mut x = 12345u64;
        let mut rng = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let domain = 1_000_000i64;
        for _ in 0..200 {
            let r = rng();
            let lo = if r % 10 < 9 {
                (r % 50_000) as i64 // hot: [0, 5%)
            } else {
                (r % (domain as u64)) as i64
            };
            a.observe(&open(lo, lo + 1000), MATURE_BOUNDARIES * 4, 1 << 22);
        }
        assert_eq!(a.effective(), CrackPolicy::Standard);
    }

    #[test]
    fn mature_scattered_workload_downgrades_to_coarse() {
        let mut a = PolicyAdvisor::new(CrackPolicy::Adaptive);
        let mut x = 555u64;
        for i in 0..300usize {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lo = ((x >> 33) % 4_000_000) as i64;
            // Index matures past the boundary threshold mid-run.
            let boundaries = 2 * i;
            a.observe(&open(lo, lo + 500), boundaries, 1 << 22);
        }
        assert_eq!(a.effective(), CrackPolicy::coarse());
        // A sweep (stripes wide enough to clear the displacement gate
        // against the 4M span) still arms sequential mode on top of the
        // mature downgrade — both resolve to coarse leaves, so the
        // effective policy is stable, not flip-flopping.
        let mut lo = 0;
        for _ in 0..SEQ_RUN_ON as i64 + 1 {
            a.observe(&open(lo, lo + 300_001), 600, 1 << 22);
            lo += 300_000;
        }
        assert!(a.stats().sequential_mode());
        assert_eq!(a.effective(), CrackPolicy::coarse());
    }

    #[test]
    fn drill_down_zooms_are_not_a_sweep() {
        let mut a = PolicyAdvisor::new(CrackPolicy::Adaptive);
        // Nested zooms: lo creeps rightward but hi shrinks — the
        // frontier never advances. The advisor must keep exact
        // cracking: a drill-down revisits the pieces it carves, which is
        // exactly where coarse leaves would charge a rescan per query.
        let (mut lo, mut hi) = (0i64, 1 << 20);
        for _ in 0..40 {
            let w = (hi - lo).max(30);
            lo += w / 10;
            hi = lo + (w - w / 3).max(10);
            a.observe(&open(lo, hi), 20, 1 << 22);
        }
        assert_eq!(a.effective(), CrackPolicy::Standard);
        assert_eq!(a.switches(), 0);
    }

    #[test]
    fn local_bin_stripes_stay_under_the_displacement_gate() {
        let mut a = PolicyAdvisor::new(CrackPolicy::Adaptive);
        let domain = 16_000_000i64;
        // Establish the span with two far-apart panels, then scan 12
        // adjacent bins inside one narrow panel. The bins are a genuine
        // adjacent-rightward run, but they cover < span/16 — binned
        // aggregation over a panel is not a sweep.
        a.observe(&open(0, 1000), 10, 1 << 24);
        a.observe(&open(domain - 1000, domain), 10, 1 << 24);
        for round in 0..4 {
            let base = 2_000_000 + round * 1_000_000;
            for b in 0..12i64 {
                a.observe(&open(base + b * 500, base + b * 500 + 500), 10, 1 << 24);
            }
        }
        assert_eq!(a.effective(), CrackPolicy::Standard);
        assert_eq!(a.switches(), 0);
    }

    #[test]
    fn random_workload_stays_standard() {
        let mut a = PolicyAdvisor::new(CrackPolicy::Adaptive);
        let mut x = 777u64;
        for _ in 0..300 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lo = ((x >> 33) % 1_000_000) as i64;
            a.observe(&open(lo, lo + 500), 64, 1 << 22);
        }
        assert_eq!(a.effective(), CrackPolicy::Standard);
    }

    #[test]
    fn boundary_density_caps_index_growth() {
        let mut a = PolicyAdvisor::new(CrackPolicy::Adaptive);
        // Scattered workload, but the structure is already shattered:
        // 4096 boundaries over 2^20 tuples → avg piece 256 < 1024/2.
        let mut x = 99u64;
        for _ in 0..4 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lo = ((x >> 33) % 1_000_000) as i64;
            a.observe(&open(lo, lo + 100), 1 << 12, 1 << 20);
        }
        assert_eq!(a.effective(), CrackPolicy::coarse());
    }

    #[test]
    fn static_advisors_are_inert() {
        for p in CrackPolicy::all() {
            let mut a = PolicyAdvisor::new(p);
            for i in 0..100i64 {
                let got = a.observe(&open(i * 10, i * 10 + 11), 5, 1 << 16);
                assert_eq!(got, p);
            }
            assert_eq!(a.switches(), 0);
            assert_eq!(a.stats().queries(), 0);
        }
    }

    #[test]
    fn advisor_is_a_deterministic_fold() {
        let preds: Vec<RangePred> = (0..64i64)
            .map(|i| open((i * 7919) % 100_000, (i * 7919) % 100_000 + 333))
            .collect();
        let mut a = PolicyAdvisor::new(CrackPolicy::Adaptive);
        let mut b = PolicyAdvisor::new(CrackPolicy::Adaptive);
        for p in &preds {
            let pa = a.observe(p, 7, 1 << 18);
            let pb = b.observe(p, 7, 1 << 18);
            assert_eq!(pa, pb);
            assert_eq!(a.stats(), b.stats());
        }
        assert_eq!(a.switches(), b.switches());
    }

    #[test]
    fn unbounded_predicates_carry_no_locality_signal() {
        let mut a = PolicyAdvisor::new(CrackPolicy::Adaptive);
        for _ in 0..100 {
            a.observe(&RangePred::all(), 5, 1 << 16);
        }
        assert_eq!(a.effective(), CrackPolicy::Standard);
        assert_eq!(a.stats().queries(), 100);
    }

    #[test]
    fn retention_score_prefers_frequency_within_grace() {
        // Same recency, more accesses → higher score.
        assert!(retention_score(100, 50) > retention_score(1, 50));
        // Zero accesses degrade to pure recency.
        assert_eq!(retention_score(0, 50), 50);
        // Enough recency always wins over frequency eventually.
        assert!(retention_score(0, 10_000) > retention_score(1 << 20, 50));
    }
}
