//! IDEBench-style interactive data-exploration sessions.
//!
//! The IDEBench benchmark (Eichmann et al.) models *interactive* data
//! exploration instead of batch query streams: a user drills into a
//! panel, rolls back up, pans, requests binned histograms — with think
//! time between actions and a latency budget per action (the answer
//! must arrive before the user's next interaction). These access
//! patterns stress cracking where it is weakest: sequential sweeps
//! leave one huge tail piece that every query re-ploughs, drill-downs
//! crack ever smaller pieces of a hot region, and fine binning
//! shatters the index under dense boundaries.
//!
//! This module generates deterministic session traces of those shapes
//! for crackbench's `ide_sessions` workload, which replays them on bare
//! cracker columns.
//!
//! Every generator is a pure function of `(domain, seed)`: two
//! generators built alike produce byte-identical traces, so runs replay
//! *the same* session and answer-identity checks are meaningful.

use crackdb_columnstore::types::{RangePred, Val};
use crackdb_rng::rngs::StdRng;
use crackdb_rng::{Rng, SeedableRng};

/// One exploration step: the range predicates it issues — one for plain
/// panel ops, several adjacent sub-ranges for a binned aggregation —
/// plus the simulated user think time *before* the step.
#[derive(Debug, Clone)]
pub struct ExploreOp {
    /// Predicates this step issues, in order.
    pub preds: Vec<RangePred>,
    /// Simulated pause before the step (the user looks at the previous
    /// answer). Also the *previous* step's latency budget in the
    /// time-bounded answer mode: an answer that arrives after the user's
    /// next action is useless.
    pub think_ms: u64,
}

/// One exploration session: a named sequence of steps with a common
/// intent (drill-down, sweep, binned histograms, ...).
#[derive(Debug, Clone)]
pub struct Session {
    /// Phase label (stable across runs; used in bench output).
    pub name: &'static str,
    /// The steps, in user order.
    pub ops: Vec<ExploreOp>,
}

impl Session {
    /// Total number of range predicates the session issues.
    pub fn queries(&self) -> usize {
        self.ops.iter().map(|o| o.preds.len()).sum()
    }

    /// Total simulated think time across the session.
    pub fn think_total_ms(&self) -> u64 {
        self.ops.iter().map(|o| o.think_ms).sum()
    }
}

/// Deterministic generator of IDEBench-style sessions over a uniform
/// `[1, domain]` attribute.
#[derive(Debug)]
pub struct IdeBench {
    rng: StdRng,
    domain: Val,
}

impl IdeBench {
    /// Generator over value domain `[1, domain]`.
    pub fn new(domain: Val, seed: u64) -> Self {
        IdeBench {
            rng: StdRng::seed_from_u64(seed),
            domain,
        }
    }

    /// Simulated think time: 40–400 ms, the interactive-pause range the
    /// exploration benchmarks use between user actions.
    fn think(&mut self) -> u64 {
        self.rng.gen_range(40..=400)
    }

    fn op(&mut self, pred: RangePred) -> ExploreOp {
        ExploreOp {
            preds: vec![pred],
            think_ms: self.think(),
        }
    }

    /// A random panel of `width` values starting anywhere in the domain.
    fn panel(&mut self, width: Val) -> (Val, Val) {
        let width = width.clamp(1, self.domain);
        let lo = self.rng.gen_range(0..=(self.domain - width).max(1));
        (lo, width)
    }

    /// Drill-down: a wide opening panel, then `depth - 1` zooms, each
    /// keeping about a third of the previous width around a point the
    /// user clicked inside the panel.
    pub fn drill_down(&mut self, depth: usize) -> Session {
        let mut ops = Vec::with_capacity(depth);
        let (mut lo, mut width) = self.panel(self.domain / 2);
        for _ in 0..depth {
            ops.push(self.op(RangePred::open(lo, lo + width + 1)));
            let new_width = (width / 3).max(2);
            lo += self.rng.gen_range(0..=(width - new_width).max(1));
            width = new_width;
        }
        Session {
            name: "drill_down",
            ops,
        }
    }

    /// Roll-up: the inverse trajectory — start narrow, widen back out.
    /// Revisits enclosing ranges, so it rewards retained exact bounds.
    pub fn roll_up(&mut self, depth: usize) -> Session {
        let mut s = self.drill_down(depth);
        s.name = "roll_up";
        s.ops.reverse();
        // Think times were drawn per step; reversing the predicates
        // must not reverse time, so redraw them in order.
        for op in &mut s.ops {
            op.think_ms = self.think();
        }
        s
    }

    /// Binned aggregation: `panels` histogram requests, each splitting a
    /// random panel into `bins` adjacent sub-ranges issued back to back
    /// (one user action, `bins` queries, a single think time).
    pub fn binned(&mut self, panels: usize, bins: usize) -> Session {
        let bins = bins.max(1);
        let mut ops = Vec::with_capacity(panels);
        for _ in 0..panels {
            let (lo, width) = self.panel(self.domain / 4);
            let bin_w = (width / bins as Val).max(1);
            let preds = (0..bins as Val)
                .map(|b| {
                    let blo = lo + b * bin_w;
                    let bhi = if b == bins as Val - 1 {
                        lo + width
                    } else {
                        blo + bin_w
                    };
                    RangePred::open(blo, bhi + 1)
                })
                .collect();
            ops.push(ExploreOp {
                preds,
                think_ms: self.think(),
            });
        }
        Session {
            name: "binned",
            ops,
        }
    }

    /// Sweep (pan-through): `stripes` adjacent non-overlapping ranges
    /// marching left-to-right across the whole domain — the
    /// worst-case-for-cracking pattern where every query lands in the
    /// cold tail piece.
    pub fn sweep(&mut self, stripes: usize) -> Session {
        let stripes = stripes.max(1);
        let w = (self.domain / stripes as Val).max(1);
        let mut ops = Vec::with_capacity(stripes);
        let mut cursor: Val = 0;
        for _ in 0..stripes {
            if cursor + w > self.domain {
                cursor = 0;
            }
            ops.push(self.op(RangePred::open(cursor, cursor + w + 1)));
            cursor += w;
        }
        Session { name: "sweep", ops }
    }

    /// Uncorrelated random panels (the filler between focused phases).
    pub fn random_panels(&mut self, n: usize, width: Val) -> Session {
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            let (lo, w) = self.panel(width);
            ops.push(self.op(RangePred::open(lo, lo + w + 1)));
        }
        Session {
            name: "random",
            ops,
        }
    }

    /// Hot-zone browsing: `n` panels confined to one fifth of the domain
    /// (the user pans around the region they drilled into). Exact
    /// cracking converges inside the zone after a few queries; a
    /// first-touch prepartition of the whole array pays for regions this
    /// session never visits.
    pub fn hot_browse(&mut self, n: usize) -> Session {
        let zone_w = (self.domain / 5).max(1);
        let zone_lo = self.rng.gen_range(0..=(self.domain - zone_w).max(1));
        let panel_w = (zone_w / 40).max(1);
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            let lo = zone_lo + self.rng.gen_range(0..=(zone_w - panel_w).max(1));
            ops.push(self.op(RangePred::open(lo, lo + panel_w + 1)));
        }
        Session {
            name: "hot_browse",
            ops,
        }
    }

    /// The canonical mixed exploration trace, shaped like a real
    /// exploration arc: drill into a region, pan around it (hot zone),
    /// scan across the whole domain, zoom back out, request histograms,
    /// end with uncorrelated browsing.
    pub fn mixed(&mut self, scale: usize) -> Vec<Session> {
        let scale = scale.max(1);
        vec![
            self.drill_down(4 * scale),
            self.hot_browse(30 * scale),
            self.sweep(40 * scale),
            self.roll_up(4 * scale),
            self.binned(4 * scale, 12),
            self.random_panels(10 * scale, self.domain / 50),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds(p: &RangePred) -> (Val, Val) {
        (p.lo.unwrap().value, p.hi.unwrap().value)
    }

    #[test]
    fn traces_are_deterministic() {
        let mut a = IdeBench::new(1_000_000, 7);
        let mut b = IdeBench::new(1_000_000, 7);
        for (sa, sb) in a.mixed(1).iter().zip(b.mixed(1).iter()) {
            assert_eq!(sa.name, sb.name);
            assert_eq!(sa.ops.len(), sb.ops.len());
            for (oa, ob) in sa.ops.iter().zip(&sb.ops) {
                assert_eq!(oa.think_ms, ob.think_ms);
                let pa: Vec<_> = oa.preds.iter().map(bounds).collect();
                let pb: Vec<_> = ob.preds.iter().map(bounds).collect();
                assert_eq!(pa, pb);
            }
        }
    }

    #[test]
    fn drill_down_narrows_and_stays_nested() {
        let mut g = IdeBench::new(1_000_000, 3);
        let s = g.drill_down(5);
        assert_eq!(s.ops.len(), 5);
        let mut prev: Option<(Val, Val)> = None;
        for op in &s.ops {
            let (lo, hi) = bounds(&op.preds[0]);
            if let Some((plo, phi)) = prev {
                assert!(lo >= plo && hi <= phi + 1, "zoom stays inside the panel");
                assert!(hi - lo < phi - plo, "zoom narrows");
            }
            prev = Some((lo, hi));
        }
    }

    #[test]
    fn binned_ops_tile_their_panel() {
        let mut g = IdeBench::new(1_000_000, 11);
        let s = g.binned(3, 8);
        for op in &s.ops {
            assert_eq!(op.preds.len(), 8);
            for w in op.preds.windows(2) {
                let (_, hi) = bounds(&w[0]);
                let (lo2, _) = bounds(&w[1]);
                assert_eq!(hi - 1, lo2, "bins are adjacent");
            }
        }
    }

    #[test]
    fn sweep_marches_across_the_domain() {
        let mut g = IdeBench::new(1_000, 5);
        let s = g.sweep(10);
        let mut covered = std::collections::HashSet::new();
        for op in &s.ops {
            let (lo, hi) = bounds(&op.preds[0]);
            covered.extend(lo + 1..hi);
        }
        assert_eq!(covered.len(), 1_000, "stripes tile the whole domain");
    }

    #[test]
    fn think_times_are_interactive() {
        let mut g = IdeBench::new(1_000_000, 9);
        for s in g.mixed(1) {
            assert!(s.queries() >= s.ops.len());
            for op in &s.ops {
                assert!((40..=400).contains(&op.think_ms));
            }
        }
    }
}
