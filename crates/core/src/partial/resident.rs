//! The resident chunks of one [`PartialSet`](super::PartialSet) and the
//! two figures the storage manager reads off them on every query: how
//! many tuples they hold and which of them goes next.
//!
//! Both are kept current at the only two mutations there are —
//! [`Resident::put`] and [`Resident::take`] — so neither is ever
//! recomputed by scanning. That is sound because a chunk can only change
//! while it is *out*: queries take the chunks of an area out, align,
//! crack and ripple-update them (which is where lengths and access
//! counters move), and put them back.

use super::chunk::Chunk;
use super::AreaId;
use std::collections::{BTreeSet, HashMap};

/// Frequency-based grace for chunk retention scoring: each doubling of a
/// chunk's access count keeps it alive this many clock ticks longer than
/// pure recency would.
pub const RETENTION_GRACE: u64 = 8;

/// Retention score for cache-style eviction of partial chunks: recency
/// boosted by log-frequency, so a chunk that has earned many accesses
/// survives [`RETENTION_GRACE`] clock ticks per doubling beyond what pure
/// recency would grant. Higher scores are worth keeping; evict the
/// minimum. Deterministic and integral, so eviction order is stable
/// across runs.
pub fn retention_score(accesses: u64, last_access: u64) -> u64 {
    let freq = 63 - (accesses + 1).leading_zeros() as u64;
    last_access.saturating_add(freq * RETENTION_GRACE)
}

/// A partial map: the workload-selected subset of `M_AB`, one chunk per
/// fetched area.
#[derive(Debug, Clone, Default)]
pub struct PartialMap {
    /// Chunks keyed by area.
    pub chunks: HashMap<AreaId, Chunk>,
}

/// Eviction-order key of a resident chunk: lowest
/// [`retention_score`] first, the `(attr, area)` identity breaking ties
/// so the order never depends on hash-map iteration.
type EvictionKey = (u64, usize, AreaId);

fn eviction_key(attr: usize, area: AreaId, chunk: &Chunk) -> EvictionKey {
    (
        retention_score(chunk.accesses, chunk.last_access),
        attr,
        area,
    )
}

/// Resident chunks by `(attr, area)`, their total length, and their
/// eviction order.
#[derive(Debug, Clone, Default)]
pub(super) struct Resident {
    maps: HashMap<usize, PartialMap>,
    /// Σ `Chunk::len` over `maps`.
    tuples: usize,
    /// One key per chunk in `maps`, carrying the score the chunk had
    /// when it was put in — which is its score now.
    order: BTreeSet<EvictionKey>,
}

impl Resident {
    /// Make `chunk` the resident chunk of `(attr, area)`.
    pub fn put(&mut self, attr: usize, area: AreaId, chunk: Chunk) {
        // A chunk being replaced leaves the count and the order first.
        self.take(attr, area);
        self.tuples += chunk.len();
        self.order.insert(eviction_key(attr, area, &chunk));
        self.maps
            .entry(attr)
            .or_default()
            .chunks
            .insert(area, chunk);
    }

    /// Take the chunk of `(attr, area)` out, if resident.
    pub fn take(&mut self, attr: usize, area: AreaId) -> Option<Chunk> {
        let chunk = self.maps.get_mut(&attr)?.chunks.remove(&area)?;
        self.tuples -= chunk.len();
        self.order.remove(&eviction_key(attr, area, &chunk));
        Some(chunk)
    }

    /// Is a chunk of `(attr, area)` resident?
    pub fn contains(&self, attr: usize, area: AreaId) -> bool {
        self.map(attr).is_some_and(|m| m.chunks.contains_key(&area))
    }

    /// The partial map of `attr`, once it has held a chunk.
    pub fn map(&self, attr: usize) -> Option<&PartialMap> {
        self.maps.get(&attr)
    }

    /// Every partial map with its tail attribute.
    pub fn maps(&self) -> impl Iterator<Item = (usize, &PartialMap)> {
        self.maps.iter().map(|(&attr, m)| (attr, m))
    }

    /// Tuples held by resident chunks.
    pub fn tuples(&self) -> usize {
        self.tuples
    }

    /// Number of resident chunks.
    pub fn chunk_count(&self) -> usize {
        self.order.len()
    }

    /// The chunk to evict next: lowest eviction key among the chunks not
    /// pinned, where the pinned chunks are those of `pinned_area`
    /// belonging to `pinned_attrs` (the chunks the running query is
    /// working on — at most `pinned_attrs.len()` keys are skipped).
    pub fn next_victim(
        &self,
        pinned_area: AreaId,
        pinned_attrs: &[usize],
    ) -> Option<(usize, AreaId)> {
        self.order
            .iter()
            .find(|(_, attr, area)| !(*area == pinned_area && pinned_attrs.contains(attr)))
            .map(|&(_, attr, area)| (attr, area))
    }

    /// The reference for [`Self::next_victim`]: the full scan over every
    /// resident chunk it replaced.
    #[cfg(test)]
    pub fn next_victim_by_scan(
        &self,
        pinned_area: AreaId,
        pinned_attrs: &[usize],
    ) -> Option<(usize, AreaId)> {
        self.maps
            .iter()
            .flat_map(|(&attr, m)| {
                m.chunks
                    .iter()
                    .map(move |(&area, c)| eviction_key(attr, area, c))
            })
            .filter(|(_, attr, area)| !(*area == pinned_area && pinned_attrs.contains(attr)))
            .min()
            .map(|(_, attr, area)| (attr, area))
    }

    /// Recompute the running count and the eviction order from the
    /// chunks and compare.
    pub fn check(&self) -> Result<(), String> {
        let mut tuples = 0;
        let mut chunks = 0;
        for (attr, map) in self.maps() {
            for (&area, chunk) in &map.chunks {
                tuples += chunk.len();
                chunks += 1;
                let key = eviction_key(attr, area, chunk);
                if !self.order.contains(&key) {
                    return Err(format!(
                        "chunk ({attr}, {area:?}) is not in the eviction order under its current key {key:?}"
                    ));
                }
            }
        }
        if chunks != self.order.len() {
            return Err(format!(
                "eviction order holds {} keys for {chunks} resident chunks",
                self.order.len()
            ));
        }
        if tuples != self.tuples {
            return Err(format!(
                "running count {} but resident chunks hold {tuples} tuples",
                self.tuples
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_cracking::crack::BoundKind;

    fn chunk(len: usize, accesses: u64, last_access: u64) -> Chunk {
        let mut c = Chunk::seed(vec![0; len], vec![0; len], None);
        c.accesses = accesses;
        c.last_access = last_access;
        c
    }

    fn area(v: i64) -> AreaId {
        (v >= 0).then_some((v, BoundKind::Lt))
    }

    /// Random puts, takes, replacements and put-backs of grown, shrunk
    /// and re-scored chunks: the running count, the order and the next
    /// victim under any pin set stay equal to what a scan finds.
    #[test]
    fn count_and_order_follow_every_put_and_take() {
        let mut state = 0x5EED_u64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut r = Resident::default();
        for step in 0..4000 {
            let (attr, aid) = (next(4) as usize, area(next(7) as i64 - 1));
            match next(3) {
                0 => r.put(attr, aid, chunk(next(50) as usize, next(40), next(8))),
                1 => {
                    r.take(attr, aid);
                }
                _ => {
                    // What a query does: out, changed, back in.
                    if let Some(c) = r.take(attr, aid) {
                        let len = (c.len() + next(3) as usize).saturating_sub(1);
                        r.put(attr, aid, chunk(len, c.accesses + 1, step / 16));
                    }
                }
            }
            r.check().unwrap();
            let pinned: Vec<usize> = (0..4).filter(|_| next(2) == 0).collect();
            for pins in [&[][..], &pinned] {
                assert_eq!(
                    r.next_victim(aid, pins),
                    r.next_victim_by_scan(aid, pins),
                    "step {step}, pinned {pins:?} of {aid:?}"
                );
            }
        }
        assert!(r.chunk_count() > 0);
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

    #[test]
    fn stale_key_is_reported() {
        let mut r = Resident::default();
        r.put(1, None, chunk(5, 0, 3));
        r.check().unwrap();
        r.maps
            .get_mut(&1)
            .unwrap()
            .chunks
            .get_mut(&None)
            .unwrap()
            .last_access = 9;
        assert!(r.check().unwrap_err().contains("eviction order"));
    }
}
