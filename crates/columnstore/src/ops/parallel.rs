//! Data-parallel scan and aggregate kernels.
//!
//! The batch-execution layer (`crackdb-engine`'s `BatchRunner`) enables
//! these kernels for the *read-only* phases of query execution: full
//! scans over base columns, positional gathers, and aggregate folds.
//! Cracking (physical reorganization) always stays sequential — its
//! correctness depends on in-order reorganization — so adaptive engines
//! keep their write phases untouched and only the scan/aggregate work
//! fans out.
//!
//! Parallelism is plain `std::thread::scope` over contiguous chunks (the
//! build environment is offline, so no rayon): each kernel splits its
//! input into one chunk per worker, processes chunks independently, and
//! merges in chunk order, which keeps key output order identical to the
//! serial kernels. The active worker count is a process-wide setting
//! ([`set_threads`]) flipped on by the batch layer around a batch and
//! restored to serial afterwards; kernels fall back to the serial path
//! for small inputs where spawn overhead would dominate.

use crate::column::Column;
use crate::ops::block::gather_runs;
use crate::types::{RangePred, RowId, Val};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide worker count for the parallel kernels (1 = serial).
static THREADS: AtomicUsize = AtomicUsize::new(1);

/// Inputs smaller than this always take the serial path: thread spawn
/// costs ~10µs, a 16k-row chunk scans in about that.
pub const MIN_PARALLEL_ROWS: usize = 16_384;

/// Set the worker count used by the parallel kernels (clamped to ≥ 1).
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Current worker count.
pub fn threads() -> usize {
    THREADS.load(Ordering::Relaxed)
}

/// Split `[0, n)` into at most `t` near-equal chunks.
fn chunk_bounds(n: usize, t: usize) -> Vec<(usize, usize)> {
    let t = t.min(n).max(1);
    let base = n / t;
    let rem = n % t;
    let mut out = Vec::with_capacity(t);
    let mut lo = 0;
    for i in 0..t {
        let hi = lo + base + usize::from(i < rem);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

/// Run `f` over each chunk of `[0, n)` on its own worker and collect the
/// chunk results in chunk order.
fn scatter<R: Send>(n: usize, f: impl Fn(usize, usize) -> R + Sync) -> Vec<R> {
    let bounds = chunk_bounds(n, threads());
    if bounds.len() <= 1 {
        return bounds.into_iter().map(|(lo, hi)| f(lo, hi)).collect();
    }
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(lo, hi)| s.spawn(move || f(lo, hi)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                // Re-raise the worker's own payload so callers (tests,
                // batch sessions) see the original panic message instead
                // of a generic harness one.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

/// Parallel full-scan range selection. Returns qualifying keys in
/// ascending (insertion) order — identical output to
/// [`select`](crate::ops::select::select).
pub fn par_select(col: &Column, pred: &RangePred) -> Vec<RowId> {
    let n = col.len();
    if threads() <= 1 || n < MIN_PARALLEL_ROWS {
        return crate::ops::select::select(col, pred);
    }
    let vals = col.values();
    let parts = scatter(n, |lo, hi| {
        let mut out = Vec::new();
        for (i, &v) in vals[lo..hi].iter().enumerate() {
            if pred.matches(v) {
                out.push((lo + i) as RowId);
            }
        }
        out
    });
    let mut keys = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for p in parts {
        keys.extend_from_slice(&p);
    }
    keys
}

/// Parallel qualifying-tuple count (no key materialization).
pub fn par_count(col: &Column, pred: &RangePred) -> usize {
    let n = col.len();
    if threads() <= 1 || n < MIN_PARALLEL_ROWS {
        return crate::ops::select::count(col, pred);
    }
    let vals = col.values();
    scatter(n, |lo, hi| {
        vals[lo..hi].iter().filter(|&&v| pred.matches(v)).count()
    })
    .into_iter()
    .sum()
}

/// A mergeable partial aggregate: one fold computes every statistic the
/// aggregate functions need, so a chunk is scanned exactly once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartialAgg {
    /// Number of values folded.
    pub count: i64,
    /// Wrapping sum.
    pub sum: i64,
    /// Minimum (`None` on empty input).
    pub min: Option<Val>,
    /// Maximum (`None` on empty input).
    pub max: Option<Val>,
}

impl PartialAgg {
    /// Fold one value.
    #[inline(always)]
    pub fn push(&mut self, v: Val) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Merge another chunk's partial into this one.
    pub fn merge(&mut self, other: &PartialAgg) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// Parallel aggregate over a contiguous value slice.
pub fn par_agg_values(vals: &[Val]) -> PartialAgg {
    let fold = |vals: &[Val]| {
        let mut p = PartialAgg::default();
        p.fold_slice(vals);
        p
    };
    if threads() <= 1 || vals.len() < MIN_PARALLEL_ROWS {
        return fold(vals);
    }
    let mut total = PartialAgg::default();
    for p in scatter(vals.len(), |lo, hi| fold(&vals[lo..hi])) {
        total.merge(&p);
    }
    total
}

/// Parallel positional gather-aggregate: fold `col[k]` for every key.
/// Chunks the *key list*, so it parallelizes both the sequential
/// (ordered keys) and random (cracker results) reconstruction patterns.
/// Serial and per worker alike, values are gathered a run at a time and
/// folded with [`PartialAgg::fold_slice`].
pub fn par_agg_gather(col: &Column, keys: &[RowId]) -> PartialAgg {
    let fold = |keys: &[RowId]| {
        let mut p = PartialAgg::default();
        gather_runs(col, keys, |vals| p.fold_slice(vals));
        p
    };
    if threads() <= 1 || keys.len() < MIN_PARALLEL_ROWS {
        return fold(keys);
    }
    let mut total = PartialAgg::default();
    for p in scatter(keys.len(), |lo, hi| fold(&keys[lo..hi])) {
        total.merge(&p);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` with the worker count temporarily set to `n`.
    fn with_threads(n: usize, f: impl FnOnce()) {
        set_threads(n);
        f();
        set_threads(1);
    }

    fn col(n: usize) -> Column {
        // Deterministic, irregular values.
        Column::new((0..n as Val).map(|i| (i * 2654435761) % 100_000).collect())
    }

    #[test]
    fn chunk_bounds_cover_exactly() {
        for n in [0usize, 1, 7, 100, 16_385] {
            for t in [1usize, 2, 3, 8] {
                let b = chunk_bounds(n, t);
                assert_eq!(b.first().map_or(0, |x| x.0), 0);
                assert_eq!(b.last().map_or(0, |x| x.1), n);
                for w in b.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                }
            }
        }
    }

    #[test]
    fn par_select_matches_serial() {
        let c = col(50_000);
        let pred = RangePred::open(10_000, 60_000);
        let serial = crate::ops::select::select(&c, &pred);
        with_threads(4, || {
            assert_eq!(par_select(&c, &pred), serial);
            assert_eq!(par_count(&c, &pred), serial.len());
        });
    }

    #[test]
    fn par_agg_matches_serial() {
        let c = col(40_000);
        let mut expected = PartialAgg::default();
        for &v in c.values() {
            expected.push(v);
        }
        with_threads(3, || {
            assert_eq!(par_agg_values(c.values()), expected);
            let keys: Vec<RowId> = (0..c.len() as RowId).rev().collect();
            assert_eq!(par_agg_gather(&c, &keys), expected);
        });
    }

    #[test]
    fn serial_fallback_below_threshold() {
        let c = col(100);
        with_threads(8, || {
            let pred = RangePred::all();
            assert_eq!(par_select(&c, &pred).len(), 100);
            assert_eq!(par_agg_values(c.values()).count, 100);
            let keys: Vec<RowId> = (0..100).rev().collect();
            assert_eq!(par_agg_gather(&c, &keys), par_agg_values(c.values()));
        });
    }

    #[test]
    fn scatter_preserves_panic_payload() {
        with_threads(4, || {
            let caught = std::panic::catch_unwind(|| {
                scatter(MIN_PARALLEL_ROWS * 4, |lo, _hi| {
                    if lo > 0 {
                        panic!("worker exploded at {lo}");
                    }
                    lo
                })
            })
            .expect_err("a worker panicked");
            let msg = caught
                .downcast_ref::<String>()
                .expect("payload is the worker's formatted message");
            assert!(
                msg.starts_with("worker exploded at "),
                "original payload must survive the join, got {msg:?}"
            );
        });
    }

    #[test]
    fn partial_agg_merge_identities() {
        let mut a = PartialAgg::default();
        let empty = PartialAgg::default();
        a.push(5);
        a.push(-3);
        let mut b = a;
        b.merge(&empty);
        assert_eq!(a, b);
        let mut e = empty;
        e.merge(&a);
        assert_eq!(e, a);
    }
}
