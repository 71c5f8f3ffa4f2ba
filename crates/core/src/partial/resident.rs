//! The resident chunk groups of one [`PartialSet`](super::PartialSet)
//! and the two figures the storage manager reads off them on every
//! query: how many map tuples they hold and which of them goes next.
//!
//! Both are kept current at the only mutations there are —
//! [`Resident::put`] and the takes — so neither is ever recomputed by
//! scanning. That is sound because a group can only change while it is
//! *out*: queries take the groups of an area out, align, merge, crack
//! and ripple-update them (which is where lengths, widths and access
//! counters move), and put them back.

use super::chunk::Chunk;
use super::AreaId;
use std::collections::{BTreeSet, HashMap};

/// Frequency-based grace for chunk retention scoring: each doubling of a
/// group's access count keeps it alive this many clock ticks longer than
/// pure recency would.
pub const RETENTION_GRACE: u64 = 8;

/// Retention score for cache-style eviction of partial chunk groups:
/// recency boosted by log-frequency, so a group that has earned many
/// accesses survives [`RETENTION_GRACE`] clock ticks per doubling beyond
/// what pure recency would grant. Higher scores are worth keeping; evict
/// the minimum. Deterministic and integral, so eviction order is stable
/// across runs.
pub fn retention_score(accesses: u64, last_access: u64) -> u64 {
    let freq = 63 - (accesses + 1).leading_zeros() as u64;
    last_access.saturating_add(freq * RETENTION_GRACE)
}

/// Eviction-order key of a resident group: lowest [`retention_score`]
/// first, the `(group, area)` identity ([`Chunk::id`]) breaking ties so
/// the order never depends on hash-map iteration.
type EvictionKey = (u64, usize, AreaId);

fn eviction_key(area: AreaId, group: &Chunk) -> EvictionKey {
    (
        retention_score(group.accesses, group.last_access),
        group.id(),
        area,
    )
}

/// Resident groups by area, their total size in map tuples, and their
/// eviction order.
#[derive(Debug, Clone, Default)]
pub(super) struct Resident {
    /// Each area's groups; an attribute is in at most one group of an
    /// area. An area keeps its (then empty) list when its last group
    /// goes out, so a query taking an area's groups out and back
    /// allocates nothing here.
    areas: HashMap<AreaId, Vec<Chunk>>,
    /// Σ `Chunk::tuples` over `areas`.
    tuples: usize,
    /// One key per group in `areas`, carrying the score the group had
    /// when it was put in — which is its score now.
    order: BTreeSet<EvictionKey>,
}

impl Resident {
    /// Make `group` a resident group of `area`. It must share no
    /// attribute with the area's other groups.
    pub fn put(&mut self, area: AreaId, group: Chunk) {
        debug_assert!(
            !group.tail_attrs().iter().any(|&a| self.holds(a, area)),
            "an attribute in two groups of area {area:?}"
        );
        self.tuples += group.tuples();
        self.order.insert(eviction_key(area, &group));
        self.areas.entry(area).or_default().push(group);
    }

    /// Book a group out of the count and the order.
    fn forget(&mut self, area: AreaId, group: &Chunk) {
        self.tuples -= group.tuples();
        self.order.remove(&eviction_key(area, group));
    }

    /// Take out the group of `area` holding `attr`, if resident.
    pub fn take(&mut self, attr: usize, area: AreaId) -> Option<Chunk> {
        let groups = self.areas.get_mut(&area)?;
        let i = groups.iter().position(|g| g.holds(attr))?;
        let group = groups.remove(i);
        self.forget(area, &group);
        Some(group)
    }

    /// Take out every group of `area` holding one of `attrs`, in the
    /// order they were put in.
    pub fn take_using(&mut self, area: AreaId, attrs: &[usize]) -> Vec<Chunk> {
        let Some(groups) = self.areas.get_mut(&area) else {
            return Vec::new();
        };
        let uses = |g: &mut Chunk| attrs.iter().any(|&a| g.holds(a));
        let used: Vec<Chunk> = groups.extract_if(.., uses).collect();
        for group in &used {
            self.forget(area, group);
        }
        used
    }

    /// Does a resident group of `area` hold `attr`?
    pub fn holds(&self, attr: usize, area: AreaId) -> bool {
        self.groups_of(area).iter().any(|g| g.holds(attr))
    }

    /// The resident groups of `area`.
    pub fn groups_of(&self, area: AreaId) -> &[Chunk] {
        self.areas.get(&area).map_or(&[], Vec::as_slice)
    }

    /// Every resident group with its area.
    pub fn groups(&self) -> impl Iterator<Item = (AreaId, &Chunk)> {
        let areas = self.areas.iter();
        areas.flat_map(|(&area, groups)| groups.iter().map(move |g| (area, g)))
    }

    /// Map tuples held by resident groups.
    pub fn tuples(&self) -> usize {
        self.tuples
    }

    /// Number of resident groups.
    pub fn chunk_count(&self) -> usize {
        self.order.len()
    }

    /// The group to evict next, as `(group, area)`: lowest eviction key
    /// among the groups not pinned, where the pinned groups are those of
    /// `pinned_area` holding one of `pinned_attrs` (the groups the
    /// running query is working on — at most `pinned_attrs.len()` keys
    /// are skipped).
    pub fn next_victim(
        &self,
        pinned_area: AreaId,
        pinned_attrs: &[usize],
    ) -> Option<(usize, AreaId)> {
        let pins = |g: &Chunk| pinned_attrs.iter().any(|&a| g.holds(a));
        let pinned = |id| {
            self.groups_of(pinned_area)
                .iter()
                .any(|g| g.id() == id && pins(g))
        };
        let mut keys = self.order.iter().map(|&(_, id, area)| (id, area));
        keys.find(|&(id, area)| area != pinned_area || !pinned(id))
    }

    /// The reference for [`Self::next_victim`]: the full scan over every
    /// resident group it replaced.
    #[cfg(test)]
    pub fn next_victim_by_scan(
        &self,
        pinned_area: AreaId,
        pinned_attrs: &[usize],
    ) -> Option<(usize, AreaId)> {
        self.groups()
            .filter(|(area, g)| !(*area == pinned_area && pinned_attrs.iter().any(|&a| g.holds(a))))
            .map(|(area, g)| eviction_key(area, g))
            .min()
            .map(|(_, id, area)| (id, area))
    }

    /// Recompute the running count and the eviction order from the
    /// groups and compare; check that no attribute is in two groups of
    /// one area.
    pub fn check(&self) -> Result<(), String> {
        let mut tuples = 0;
        let mut groups = 0;
        for (area, group) in self.groups() {
            tuples += group.tuples();
            groups += 1;
            let key = eviction_key(area, group);
            if !self.order.contains(&key) {
                return Err(format!(
                    "group {:?} of {area:?} is not in the eviction order under its current key {key:?}",
                    group.tail_attrs()
                ));
            }
            let holders = |a: &usize| self.groups_of(area).iter().filter(|g| g.holds(*a)).count();
            if let Some(a) = group.tail_attrs().iter().find(|a| holders(a) > 1) {
                return Err(format!("attribute {a} is in two groups of {area:?}"));
            }
        }
        if groups != self.order.len() {
            return Err(format!(
                "eviction order holds {} keys for {groups} resident groups",
                self.order.len()
            ));
        }
        if tuples != self.tuples {
            return Err(format!(
                "running count {} but resident groups hold {tuples} map tuples",
                self.tuples
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crackdb_columnstore::column::{Column, Table};
    use crackdb_columnstore::types::RowId;
    use crackdb_cracking::crack::BoundKind;

    fn group(attrs: &[usize], len: usize, accesses: u64, last_access: u64) -> Chunk {
        let mut base = Table::new();
        for a in 0..4 {
            base.add_column(format!("a{a}"), Column::new(vec![0; 64]));
        }
        let keys: Vec<RowId> = (0..len as RowId).collect();
        let mut c = Chunk::gather(attrs.to_vec(), (&vec![0; len], &keys), &base, None);
        c.accesses = accesses;
        c.last_access = last_access;
        c
    }

    fn area(v: i64) -> AreaId {
        (v >= 0).then_some((v, BoundKind::Lt))
    }

    /// Random puts, takes, replacements and put-backs of grown, shrunk,
    /// re-scored, merged and split groups: the running count, the order
    /// and the next victim under any pin set stay equal to what a scan
    /// finds.
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
            let aid = area(next(7) as i64 - 1);
            let attrs: Vec<usize> = (0..4).filter(|_| next(2) == 0).collect();
            match next(3) {
                0 => {
                    // A fresh group of the attributes no group holds.
                    let free: Vec<usize> = attrs
                        .iter()
                        .copied()
                        .filter(|&a| !r.holds(a, aid))
                        .collect();
                    if !free.is_empty() {
                        r.put(aid, group(&free, next(50) as usize, next(40), next(8)));
                    }
                }
                1 => {
                    r.take(next(4) as usize, aid);
                }
                _ => {
                    // What a query does: out, merged, changed, back in.
                    let used = r.take_using(aid, &attrs);
                    if let Some(first) = used.first() {
                        let len = (first.len() + next(3) as usize).saturating_sub(1);
                        let all: Vec<usize> =
                            used.iter().flat_map(|g| g.tail_attrs().to_vec()).collect();
                        let hot = used.iter().map(|g| g.accesses).max().unwrap_or(0);
                        r.put(aid, group(&all, len, hot + 1, step / 16));
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
        assert!(r.groups().any(|(_, g)| g.tail_attrs().len() > 1));
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
        r.put(None, group(&[1, 2], 5, 0, 3));
        r.check().unwrap();
        assert_eq!(r.tuples(), 7);
        r.areas.get_mut(&None).unwrap()[0].last_access = 9;
        assert!(r.check().unwrap_err().contains("eviction order"));
    }
}
