//! The sharded shared-capacity map over every tenant's cached regions.
//!
//! Tenants keep private region namespaces (a region copied from one
//! tenant's program is never executable by another), but they compete
//! for shared cache capacity. The map tracks, per shard, how many
//! estimated bytes each tenant's live regions occupy. A region belongs
//! to the shard addressed by the fxhash of `(tenant, entry address)` —
//! or, in share mode, by its content key alone (see
//! [`shard_of_key`](crate::store::shard_of_key)) — so one tenant's
//! regions spread across shards and one shard mixes regions from many
//! tenants: capacity pressure is a property of the *shared* cache, not
//! of any single tenant.
//!
//! Occupancy is held sparsely, keyed by tenant id: a slot only stores
//! the tenants actually resident in it, so a 10k-tenant serve does not
//! pay `shards × tenants` dense entries (the old representation) for a
//! population where most tenants hold bytes in a few shards at a time.
//!
//! Workers update shards concurrently during a round (per-shard
//! locking; updates are commutative, so worker scheduling cannot leak
//! into results). All *decisions* — which shards are over budget, who
//! sheds — happen at the round barrier in deterministic order.

use rsel_program::Addr;
use rsel_program::fxhash::FxHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::sync::{Mutex, PoisonError};

/// The shard an entry of `tenant`'s cache maps to, out of
/// `shard_count`.
pub fn shard_of(tenant: u16, entry: Addr, shard_count: usize) -> usize {
    let mut h = FxHasher::default();
    h.write_u16(tenant);
    h.write_u64(entry.raw());
    (h.finish() % shard_count as u64) as usize
}

/// One shard's occupancy: estimated bytes per resident tenant (sparse,
/// tenant-id-keyed), plus which tenants touched it this round.
#[derive(Debug, Default)]
struct Slot {
    /// Estimated bytes per tenant; zero-byte tenants are absent.
    bytes: BTreeMap<u16, u64>,
    /// Tenants that published an update this round. Distinct count
    /// ≥ 2 means the shard's lock was shared by concurrent sessions
    /// this round — the contention metric. Small per round, so a
    /// linear-scanned vec beats a set.
    touched: Vec<u16>,
}

impl Slot {
    fn total(&self) -> u64 {
        self.bytes.values().sum()
    }

    fn set(&mut self, tenant: u16, bytes: u64) {
        if bytes == 0 {
            self.bytes.remove(&tenant);
        } else {
            self.bytes.insert(tenant, bytes);
        }
    }
}

/// Lifetime statistics for one shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardLifetime {
    /// Peak occupancy observed at any round barrier.
    pub peak_bytes: u64,
    /// Rounds in which two or more tenants updated this shard.
    pub contended_rounds: u64,
    /// Pressure waves: barriers at which the shard exceeded capacity
    /// (at most one per round, however many evictions resolving the
    /// wave took).
    pub pressure_waves: u64,
    /// Shed actions: individual eviction calls applied while resolving
    /// pressure waves (one wave may shed several times before the
    /// shard fits).
    pub shed_actions: u64,
    /// Regions evicted from this shard by pressure waves.
    pub evicted_regions: u64,
}

/// The sharded shared-capacity map.
///
/// Shared (`&self`) methods are safe to call from concurrent workers;
/// exclusive (`&mut self`) methods are barrier-only and lock-free.
///
/// Shard locks are poison-tolerant: every write to a slot is a single
/// assignment, so the data is consistent at whatever point a panicking
/// worker left it, and the scheduler quarantines the panicking tenant
/// at the next barrier anyway. One tenant's defect must not wedge the
/// map for everyone else.
#[derive(Debug)]
pub struct SharedCacheMap {
    slots: Vec<Mutex<Slot>>,
    capacity: u64,
    stats: Vec<ShardLifetime>,
}

impl SharedCacheMap {
    /// Creates a map of `shard_count` shards, each budgeted `capacity`
    /// estimated bytes. Occupancy is sparse, so the map's size scales
    /// with resident tenants, not the population.
    pub fn new(shard_count: usize, capacity: u64) -> Self {
        assert!(shard_count > 0, "need at least one shard");
        SharedCacheMap {
            slots: (0..shard_count).map(|_| Mutex::default()).collect(),
            capacity,
            stats: vec![ShardLifetime::default(); shard_count],
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// Per-shard byte budget.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Publishes one tenant's new occupancy for the changed shards
    /// (worker-side, per-shard locking). `changes` pairs a shard index
    /// with the tenant's new byte total in that shard.
    pub fn publish(&self, tenant: u16, changes: &[(usize, u64)]) {
        for &(shard, bytes) in changes {
            let mut slot = self.slots[shard]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            slot.set(tenant, bytes);
            if !slot.touched.contains(&tenant) {
                slot.touched.push(tenant);
            }
        }
    }

    /// Barrier: folds this round's touches into the contention and
    /// peak statistics and clears them for the next round.
    pub fn end_round(&mut self) {
        for (slot, stat) in self.slots.iter_mut().zip(self.stats.iter_mut()) {
            let slot = slot.get_mut().unwrap_or_else(PoisonError::into_inner);
            if slot.touched.len() >= 2 {
                stat.contended_rounds += 1;
            }
            slot.touched.clear();
            stat.peak_bytes = stat.peak_bytes.max(slot.total());
        }
    }

    /// Barrier: shard indices currently over the byte budget, in shard
    /// order.
    pub fn overflowing(&mut self) -> Vec<usize> {
        let capacity = self.capacity;
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| {
                (s.get_mut().unwrap_or_else(PoisonError::into_inner).total() > capacity)
                    .then_some(i)
            })
            .collect()
    }

    /// Barrier: the resident tenants of `shard` with their bytes, in
    /// ascending tenant order — the pressure planner's view. Zero-byte
    /// tenants are absent.
    pub fn shard_load(&mut self, shard: usize) -> Vec<(u16, u64)> {
        let slot = self.slots[shard]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        slot.bytes.iter().map(|(&t, &b)| (t, b)).collect()
    }

    /// Barrier: overwrites one tenant's byte total in `shard` (zero
    /// bytes removes the tenant from the slot).
    pub fn set_load(&mut self, shard: usize, tenant: u16, bytes: u64) {
        self.slots[shard]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .set(tenant, bytes);
    }

    /// Barrier: records that `shard` was over capacity at this round's
    /// barrier — one pressure wave, regardless of how many shed
    /// actions resolving it takes.
    pub fn note_wave(&mut self, shard: usize) {
        self.stats[shard].pressure_waves += 1;
    }

    /// Barrier: records one shed action against `shard` that evicted
    /// `evicted` regions.
    pub fn note_shed(&mut self, shard: usize, evicted: u64) {
        self.stats[shard].shed_actions += 1;
        self.stats[shard].evicted_regions += evicted;
    }

    /// Barrier: drops a departing tenant's occupancy from every shard
    /// (its regions are reclaimed when the session completes),
    /// returning the bytes reclaimed.
    pub fn clear_tenant(&mut self, tenant: u16) -> u64 {
        let mut reclaimed = 0;
        for slot in &mut self.slots {
            let slot = slot.get_mut().unwrap_or_else(PoisonError::into_inner);
            reclaimed += slot.bytes.remove(&tenant).unwrap_or(0);
        }
        reclaimed
    }

    /// Current total occupancy across all shards.
    pub fn total_bytes(&mut self) -> u64 {
        self.slots
            .iter_mut()
            .map(|s| s.get_mut().unwrap_or_else(PoisonError::into_inner).total())
            .sum()
    }

    /// Final per-shard statistics, paired with each shard's closing
    /// occupancy.
    pub fn into_stats(mut self) -> Vec<(ShardLifetime, u64)> {
        let finals: Vec<u64> = self
            .slots
            .iter_mut()
            .map(|s| s.get_mut().unwrap_or_else(PoisonError::into_inner).total())
            .collect();
        self.stats.into_iter().zip(finals).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let a = Addr::new(0x4000);
        let s = shard_of(3, a, 16);
        assert_eq!(s, shard_of(3, a, 16), "same inputs, same shard");
        assert!(s < 16);
        // Tenant id separates namespaces: the same address usually maps
        // elsewhere for another tenant.
        let spread: std::collections::HashSet<usize> =
            (0..64u16).map(|t| shard_of(t, a, 16)).collect();
        assert!(spread.len() > 4, "tenants spread across shards");
    }

    #[test]
    fn publish_and_pressure_accounting() {
        let mut map = SharedCacheMap::new(4, 100);
        map.publish(0, &[(1, 60)]);
        map.publish(1, &[(1, 70)]);
        map.publish(2, &[(2, 10)]);
        map.end_round();
        assert_eq!(map.overflowing(), vec![1]);
        assert_eq!(map.shard_load(1), vec![(0, 60), (1, 70)]);
        // Shard 1 saw two tenants this round; shard 2 only one.
        let stats = {
            map.set_load(1, 1, 0);
            assert_eq!(map.shard_load(1), vec![(0, 60)], "zero bytes drop out");
            assert_eq!(map.overflowing(), Vec::<usize>::new());
            // One wave over the shard, resolved by two shed actions.
            map.note_wave(1);
            map.note_shed(1, 3);
            map.note_shed(1, 2);
            map.clear_tenant(0);
            map.into_stats()
        };
        assert_eq!(stats[1].0.contended_rounds, 1);
        assert_eq!(stats[2].0.contended_rounds, 0);
        assert_eq!(stats[1].0.pressure_waves, 1);
        assert_eq!(stats[1].0.shed_actions, 2);
        assert_eq!(stats[1].0.evicted_regions, 5);
        assert_eq!(stats[1].0.peak_bytes, 130);
        assert_eq!(stats[1].1, 0, "shard 1 emptied");
        assert_eq!(stats[2].1, 10, "tenant 2 still resident");
    }

    #[test]
    fn clear_tenant_reclaims_everything() {
        let mut map = SharedCacheMap::new(2, 1000);
        map.publish(0, &[(0, 30), (1, 40)]);
        assert_eq!(map.total_bytes(), 70);
        assert_eq!(map.clear_tenant(0), 70);
        assert_eq!(map.total_bytes(), 0);
        assert_eq!(map.shard_load(0), vec![]);
    }

    #[test]
    fn occupancy_is_sparse_in_the_tenant_population() {
        // Tenant ids far beyond any dense-vec sizing work immediately,
        // and only resident tenants occupy slot memory.
        let mut map = SharedCacheMap::new(2, 1000);
        map.publish(u16::MAX, &[(0, 5)]);
        map.publish(9_999, &[(0, 7)]);
        assert_eq!(map.shard_load(0), vec![(9_999, 7), (u16::MAX, 5)]);
        assert_eq!(map.clear_tenant(u16::MAX), 5);
        assert_eq!(map.shard_load(0), vec![(9_999, 7)]);
    }
}
