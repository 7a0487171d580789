//! The unbounded code cache holding selected regions.

use super::region::{Region, RegionId};
use crate::error::SimError;
use crate::fxhash::{FxHashMap, FxHashSet};
use rsel_program::Addr;

/// Bytes per page of the invalidation index (512 = 2⁹).
///
/// Self-modifying-code writes dirty small ranges (a couple of patched
/// instructions — [`FaultConfig::smc_max_span`](crate::FaultConfig)
/// defaults to 64 bytes), so a fine page keeps the per-write lookup to
/// one or two buckets while still amortizing index maintenance across
/// a block's bytes. 512 B is deliberately finer than the 4 KiB
/// virtual-memory page the locality metrics use: the index models the
/// dirty-tracking granularity of the code cache, not the MMU.
pub const INDEX_PAGE_BYTES: u64 = 512;

/// Sentinel of the dense id and entry-block tables: no live region.
const NONE: u32 = u32::MAX;

/// The outcome of removing regions from the cache (a self-modifying-code
/// invalidation or a cache-pressure eviction wave).
#[derive(Debug, Default)]
pub struct Removal {
    /// The regions removed, in selection order, with their final state.
    pub removed: Vec<Region>,
    /// Inter-region links severed because one endpoint was removed.
    pub severed_links: u64,
}

/// The simulated code cache.
///
/// The paper's framework "assumes an unbounded code cache" (§2.3) and
/// that is the default here. As an extension, a cache may be *bounded*:
/// when an insertion would exceed the capacity, the whole cache is
/// flushed (Dynamo's preemptive-flush policy) and selection starts
/// over — the experiment §2.3 predicts its algorithms help with,
/// "because our algorithms reduce code duplication and produce fewer
/// cached regions ... and \[regenerates\] fewer evicted regions".
///
/// Beyond the paper, the cache supports *partial* removal, which real
/// systems need to survive self-modifying code and memory pressure:
///
/// - [`CodeCache::invalidate_range`] removes every region whose copied
///   blocks overlap a dirtied byte range;
/// - [`CodeCache::evict_oldest`] removes the oldest regions under a
///   pressure wave.
///
/// Region ids are *stable*: they are assigned monotonically and keep
/// naming the same region until it is removed (they restart only at a
/// full [`CodeCache::flush`]). Inter-region links installed by lazy
/// linking are registered with [`CodeCache::record_link`] and severed
/// automatically when either endpoint is removed, so no link ever
/// dangles.
///
/// The simulator's per-step paths never hash: ids resolve through a
/// dense table indexed by id, entries through a dense table indexed by
/// the entry's program block ([`CodeCache::lookup_block`]), and a
/// per-region memo turns a repeated [`CodeCache::record_link`] into two
/// compares. All regions of one cache must come from one program.
#[derive(Clone, Debug)]
pub struct CodeCache {
    /// Live regions in selection order.
    regions: Vec<Region>,
    /// Live entry address → region id (selectors' [`CodeCache::lookup`]
    /// and [`CodeCache::contains`]).
    entries: FxHashMap<Addr, RegionId>,
    /// Region id → index in `regions`, or [`NONE`] once the region is
    /// removed. Ids are assigned densely from zero until a flush, so
    /// the table's length is always `next_id`.
    index_of: Vec<u32>,
    /// Region id → the last two distinct `to` ids recorded by
    /// [`CodeCache::record_link`] from it, most recent first ([`NONE`]
    /// = none yet); parallel to `index_of`. Link sets only grow until
    /// an endpoint dies, and a dead id never comes back before a
    /// flush, so a memo hit is always a link already recorded (or one
    /// to a dead region, which is ignored anyway).
    last_link: Vec<[u32; 2]>,
    /// Program block index → id of the live region entered there, or
    /// [`NONE`]; grown on demand to the highest entry block seen.
    entry_blocks: Vec<u32>,
    /// Page-granular invalidation index: page number (at
    /// [`INDEX_PAGE_BYTES`] per page) → ids of live regions with a
    /// copied block whose bytes touch that page. Regions register
    /// their pages at insert time and deregister on removal, so an
    /// SMC write resolves its doomed set in O(pages touched) instead
    /// of scanning every live region.
    page_index: FxHashMap<u64, Vec<RegionId>>,
    /// Next id to assign; monotonic until a full flush.
    next_id: u32,
    /// Lazy links installed between live regions.
    links_out: FxHashMap<RegionId, FxHashSet<RegionId>>,
    links_in: FxHashMap<RegionId, FxHashSet<RegionId>>,
    capacity: Option<u64>,
    stub_bytes: u64,
    flushes: u64,
    next_offset: u64,
}

impl Default for CodeCache {
    fn default() -> Self {
        CodeCache {
            regions: Vec::new(),
            entries: FxHashMap::default(),
            index_of: Vec::new(),
            last_link: Vec::new(),
            entry_blocks: Vec::new(),
            page_index: FxHashMap::default(),
            next_id: 0,
            links_out: FxHashMap::default(),
            links_in: FxHashMap::default(),
            capacity: None,
            stub_bytes: 10, // the paper's layout estimate (§4.3.4)
            flushes: 0,
            next_offset: 0,
        }
    }
}

impl CodeCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        CodeCache::default()
    }

    /// Creates an empty cache bounded at `capacity` estimated bytes
    /// (instruction bytes plus `stub_bytes` per exit stub).
    pub fn bounded(capacity: u64, stub_bytes: u64) -> Self {
        CodeCache {
            capacity: Some(capacity),
            stub_bytes,
            ..CodeCache::default()
        }
    }

    /// The configured capacity, if bounded.
    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }

    /// Number of full flushes performed so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Whether inserting `region` would exceed a bounded capacity.
    pub fn would_overflow(&self, region: &Region) -> bool {
        match self.capacity {
            Some(cap) => {
                self.size_estimate(self.stub_bytes) + region.size_estimate(self.stub_bytes) > cap
            }
            None => false,
        }
    }

    /// Empties the cache (the bounded-cache flush policy). Region ids
    /// restart from zero and all links are dropped.
    pub fn flush(&mut self) {
        for r in &self.regions {
            self.entry_blocks[r.entry_block().index()] = NONE;
        }
        self.regions.clear();
        self.entries.clear();
        self.index_of.clear();
        self.last_link.clear();
        self.page_index.clear();
        self.links_out.clear();
        self.links_in.clear();
        self.next_id = 0;
        self.flushes += 1;
        self.next_offset = 0;
    }

    /// Looks up the region entered at `addr`, if any.
    pub fn lookup(&self, addr: Addr) -> Option<RegionId> {
        self.entries.get(&addr).copied()
    }

    /// Looks up the region entered at the start of program block
    /// `block` (a [`BlockId`](rsel_program::BlockId) index) — the same
    /// answer as [`CodeCache::lookup`] at that block's address, from a
    /// dense table instead of a hash probe.
    #[inline]
    pub fn lookup_block(&self, block: usize) -> Option<RegionId> {
        match self.entry_blocks.get(block) {
            Some(&id) if id != NONE => Some(RegionId(id)),
            _ => None,
        }
    }

    /// Whether some region is entered at `addr`.
    pub fn contains(&self, addr: Addr) -> bool {
        self.entries.contains_key(&addr)
    }

    /// Inserts a region, assigning its id (= selection order).
    ///
    /// # Panics
    ///
    /// Panics if a region with the same entry address already exists:
    /// selectors only select targets that miss the cache. Use
    /// [`CodeCache::try_insert`] where a duplicate must be tolerated
    /// (fault recovery can race a re-selection against a re-formation).
    pub fn insert(&mut self, region: Region) -> RegionId {
        match self.try_insert(region) {
            Ok(id) => id,
            Err(e) => panic!("duplicate region entry: {e}"),
        }
    }

    /// Inserts a region, assigning its id; rejects a duplicate entry
    /// address with [`SimError::DuplicateRegionEntry`] (the region is
    /// dropped).
    pub fn try_insert(&mut self, mut region: Region) -> Result<RegionId, SimError> {
        if self.entries.contains_key(&region.entry()) {
            return Err(SimError::DuplicateRegionEntry(region.entry()));
        }
        let id = RegionId(self.next_id);
        self.next_id += 1;
        region.set_id(id);
        region.set_cache_offset(self.next_offset);
        self.next_offset += region.size_estimate(self.stub_bytes);
        self.entries.insert(region.entry(), id);
        self.index_of.push(self.regions.len() as u32);
        self.last_link.push([NONE; 2]);
        let block = region.entry_block().index();
        if self.entry_blocks.len() <= block {
            self.entry_blocks.resize(block + 1, NONE);
        }
        debug_assert_eq!(self.entry_blocks[block], NONE, "one program per cache");
        self.entry_blocks[block] = id.0;
        for page in region.pages_spanned(INDEX_PAGE_BYTES) {
            self.page_index.entry(page).or_default().push(id);
        }
        self.regions.push(region);
        Ok(id)
    }

    /// The region with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name a live region. Use
    /// [`CodeCache::try_region`] where the id may have been
    /// invalidated.
    pub fn region(&self, id: RegionId) -> &Region {
        match self.try_region(id) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// The region with the given id, or [`SimError::UnknownRegion`] if
    /// it is not live (never existed, was invalidated, or was flushed).
    pub fn try_region(&self, id: RegionId) -> Result<&Region, SimError> {
        self.region_index(id)
            .map(|i| &self.regions[i])
            .ok_or(SimError::UnknownRegion(id))
    }

    /// The current index of a live region in [`CodeCache::regions`],
    /// or `None` if the id is not live. Indices shift on removal, so
    /// callers caching one as a hint must re-validate it against the
    /// region's id before use.
    #[inline]
    pub fn region_index(&self, id: RegionId) -> Option<usize> {
        match self.index_of.get(id.index()) {
            Some(&i) if i != NONE => Some(i as usize),
            _ => None,
        }
    }

    /// All live regions in selection order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Number of live regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Records a lazy link `from → to` (an exit stub of `from` patched
    /// to jump straight into `to`). Self-links are ignored; dead ids
    /// are ignored. Re-recording one of the last two links recorded
    /// from `from` costs two compares.
    #[inline]
    pub fn record_link(&mut self, from: RegionId, to: RegionId) {
        if !self
            .last_link
            .get(from.index())
            .is_some_and(|m| m.contains(&to.0))
        {
            self.insert_link(from, to);
        }
    }

    #[inline(never)]
    fn insert_link(&mut self, from: RegionId, to: RegionId) {
        if from == to || self.region_index(from).is_none() || self.region_index(to).is_none() {
            return;
        }
        let memo = &mut self.last_link[from.index()];
        *memo = [to.0, memo[0]];
        if self.links_out.entry(from).or_default().insert(to) {
            self.links_in.entry(to).or_default().insert(from);
        }
    }

    /// Live inter-region links, as `(from, to)` pairs in unspecified
    /// order.
    pub fn links(&self) -> impl Iterator<Item = (RegionId, RegionId)> + '_ {
        self.links_out
            .iter()
            .flat_map(|(&from, tos)| tos.iter().map(move |&to| (from, to)))
    }

    /// Number of live inter-region links.
    pub fn link_count(&self) -> u64 {
        self.links_out.values().map(|s| s.len() as u64).sum()
    }

    /// Ids of the live regions whose copied blocks overlap the byte
    /// range `[lo, hi)`, in ascending id order, resolved through the
    /// page-granular invalidation index: only regions filed under a
    /// page the range touches are tested, so the cost scales with
    /// pages touched (plus candidates on them), not with the live
    /// region count.
    ///
    /// Degenerate ranges spanning more pages than the index holds
    /// (e.g. a whole-address-space probe) walk the index's occupied
    /// pages instead of the range, so the cost is also bounded by the
    /// cache's own footprint.
    pub fn regions_overlapping(&self, lo: Addr, hi: Addr) -> Vec<RegionId> {
        if lo >= hi {
            return Vec::new();
        }
        let first = lo.raw() / INDEX_PAGE_BYTES;
        let last = (hi.raw() - 1) / INDEX_PAGE_BYTES;
        let mut ids: Vec<RegionId> = Vec::new();
        let candidates = |page_ids: &[RegionId], ids: &mut Vec<RegionId>| {
            for &id in page_ids {
                if self.regions[self.index_of[id.index()] as usize].overlaps_range(lo, hi) {
                    ids.push(id);
                }
            }
        };
        if last - first < self.page_index.len() as u64 {
            for page in first..=last {
                if let Some(page_ids) = self.page_index.get(&page) {
                    candidates(page_ids, &mut ids);
                }
            }
        } else {
            for (&page, page_ids) in &self.page_index {
                if (first..=last).contains(&page) {
                    candidates(page_ids, &mut ids);
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The pre-index implementation of [`CodeCache::regions_overlapping`]:
    /// a linear scan over every live region. Kept as the oracle the
    /// indexed path is checked against (a `debug_assert` on every
    /// invalidation, and property tests over arbitrary
    /// insert/invalidate/evict sequences).
    pub fn regions_overlapping_scan(&self, lo: Addr, hi: Addr) -> Vec<RegionId> {
        let mut ids: Vec<RegionId> = self
            .regions
            .iter()
            .filter(|r| r.overlaps_range(lo, hi))
            .map(Region::id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Removes every live region whose copied blocks overlap the byte
    /// range `[lo, hi)` — the recovery response to a self-modifying-code
    /// write. Links touching a removed region are severed. Doomed
    /// regions are resolved through the page index; debug builds
    /// cross-check the result against the linear-scan oracle.
    pub fn invalidate_range(&mut self, lo: Addr, hi: Addr) -> Removal {
        let indexed = self.regions_overlapping(lo, hi);
        debug_assert_eq!(
            indexed,
            self.regions_overlapping_scan(lo, hi),
            "page index diverged from the scan oracle for [{lo}, {hi})"
        );
        self.remove_ids(indexed)
    }

    /// Removes the `count` oldest (earliest-selected) live regions —
    /// the recovery response to a cache-pressure flush wave. Links
    /// touching a removed region are severed.
    pub fn evict_oldest(&mut self, count: usize) -> Removal {
        let doomed: Vec<RegionId> = self.regions.iter().take(count).map(Region::id).collect();
        self.remove_ids(doomed)
    }

    /// Removes the named live regions (dead ids are ignored) — the
    /// hook an external cache-management policy uses to shed specific
    /// regions, e.g. the multi-tenant runtime's shard-pressure
    /// eviction. Links touching a removed region are severed.
    pub fn remove_regions(&mut self, ids: &[RegionId]) -> Removal {
        self.remove_ids(ids.iter().copied())
    }

    /// Removes the named regions; dead and repeated ids are ignored.
    /// Each doomed id is marked dead in `index_of` first, so the pass
    /// over `regions` tells doomed from kept without a set.
    fn remove_ids(&mut self, ids: impl IntoIterator<Item = RegionId>) -> Removal {
        let mut severed = 0;
        let mut doomed = 0;
        for id in ids {
            if self.region_index(id).is_some() {
                self.index_of[id.index()] = NONE;
                severed += self.unlink(id);
                doomed += 1;
            }
        }
        if doomed == 0 {
            return Removal::default();
        }
        let mut removed = Vec::with_capacity(doomed);
        let mut kept = Vec::with_capacity(self.regions.len() - doomed);
        for r in std::mem::take(&mut self.regions) {
            if self.index_of[r.id().index()] == NONE {
                self.entries.remove(&r.entry());
                self.entry_blocks[r.entry_block().index()] = NONE;
                for page in r.pages_spanned(INDEX_PAGE_BYTES) {
                    let bucket = self
                        .page_index
                        .get_mut(&page)
                        .expect("removed region was filed under its pages");
                    bucket.retain(|&id| id != r.id());
                    if bucket.is_empty() {
                        self.page_index.remove(&page);
                    }
                }
                removed.push(r);
            } else {
                kept.push(r);
            }
        }
        self.regions = kept;
        for (i, r) in self.regions.iter().enumerate() {
            self.index_of[r.id().index()] = i as u32;
        }
        Removal {
            removed,
            severed_links: severed,
        }
    }

    /// Severs every link with `id` as an endpoint, returning how many
    /// were cut.
    fn unlink(&mut self, id: RegionId) -> u64 {
        let mut severed = 0;
        if let Some(outs) = self.links_out.remove(&id) {
            for o in outs {
                if let Some(ins) = self.links_in.get_mut(&o) {
                    ins.remove(&id);
                }
                severed += 1;
            }
        }
        if let Some(ins) = self.links_in.remove(&id) {
            for i in ins {
                if let Some(outs) = self.links_out.get_mut(&i) {
                    if outs.remove(&id) {
                        severed += 1;
                    }
                }
            }
        }
        severed
    }

    /// Total instructions copied into the cache (the paper's *code
    /// expansion* metric, §2.3); live regions only.
    pub fn insts_copied(&self) -> u64 {
        self.regions.iter().map(Region::inst_count).sum()
    }

    /// Total exit stubs across all live regions (Figure 19's metric).
    pub fn stub_count(&self) -> u64 {
        self.regions.iter().map(|r| r.stub_count() as u64).sum()
    }

    /// Estimated total cache size in bytes: instruction bytes plus
    /// `stub_bytes` per stub (paper §4.3.4); live regions only.
    pub fn size_estimate(&self, stub_bytes: u64) -> u64 {
        self.regions
            .iter()
            .map(|r| r.size_estimate(stub_bytes))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsel_program::ProgramBuilder;

    fn program() -> rsel_program::Program {
        let mut b = ProgramBuilder::new();
        let f = b.function("f", 0x100);
        let a = b.block(f);
        let c = b.block(f);
        let d = b.block_with(f, 0);
        b.cond_branch(a, a);
        b.cond_branch(c, a);
        b.ret(d);
        b.build().unwrap()
    }

    #[test]
    fn insert_and_lookup() {
        let p = program();
        let mut cache = CodeCache::new();
        assert!(cache.is_empty());
        let a = p.blocks()[0].start();
        let id = cache.insert(Region::trace(&p, &[a]));
        assert_eq!(cache.lookup(a), Some(id));
        assert!(cache.contains(a));
        assert!(!cache.contains(p.blocks()[1].start()));
        assert_eq!(cache.region(id).entry(), a);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn ids_follow_selection_order() {
        let p = program();
        let mut cache = CodeCache::new();
        let id0 = cache.insert(Region::trace(&p, &[p.blocks()[0].start()]));
        let id1 = cache.insert(Region::trace(&p, &[p.blocks()[1].start()]));
        assert!(id0 < id1);
        assert_eq!(cache.regions()[0].id(), id0);
        assert_eq!(cache.regions()[1].id(), id1);
    }

    #[test]
    #[should_panic(expected = "duplicate region entry")]
    fn duplicate_entry_rejected() {
        let p = program();
        let mut cache = CodeCache::new();
        let a = p.blocks()[0].start();
        cache.insert(Region::trace(&p, &[a]));
        cache.insert(Region::trace(&p, &[a]));
    }

    #[test]
    fn try_insert_reports_duplicates_gracefully() {
        let p = program();
        let mut cache = CodeCache::new();
        let a = p.blocks()[0].start();
        cache.try_insert(Region::trace(&p, &[a])).unwrap();
        let err = cache.try_insert(Region::trace(&p, &[a])).unwrap_err();
        assert_eq!(err, SimError::DuplicateRegionEntry(a));
        assert_eq!(cache.len(), 1, "the duplicate was dropped");
    }

    #[test]
    fn aggregates_sum_regions() {
        let p = program();
        let mut cache = CodeCache::new();
        cache.insert(Region::trace(&p, &[p.blocks()[0].start()]));
        cache.insert(Region::trace(
            &p,
            &[p.blocks()[1].start(), p.blocks()[0].start()],
        ));
        assert_eq!(
            cache.insts_copied(),
            cache.regions().iter().map(|r| r.inst_count()).sum::<u64>()
        );
        assert!(cache.stub_count() > 0);
        assert_eq!(
            cache.size_estimate(10),
            cache
                .regions()
                .iter()
                .map(|r| r.size_estimate(10))
                .sum::<u64>()
        );
    }

    #[test]
    fn invalidation_keeps_ids_stable() {
        let p = program();
        let mut cache = CodeCache::new();
        let s: Vec<Addr> = p.blocks().iter().map(|b| b.start()).collect();
        let id0 = cache.insert(Region::trace(&p, &[s[0]]));
        let id1 = cache.insert(Region::trace(&p, &[s[1]]));
        let id2 = cache.insert(Region::trace(&p, &[s[2]]));
        // Dirty block 1's bytes: only the middle region dies.
        let out = cache.invalidate_range(s[1], s[1].offset(1));
        assert_eq!(out.removed.len(), 1);
        assert_eq!(out.removed[0].id(), id1);
        assert_eq!(cache.len(), 2);
        // Survivors keep their ids and stay addressable.
        assert_eq!(cache.region(id0).entry(), s[0]);
        assert_eq!(cache.region(id2).entry(), s[2]);
        assert!(matches!(cache.try_region(id1), Err(SimError::UnknownRegion(i)) if i == id1));
        assert_eq!(cache.lookup(s[1]), None);
        // A later insertion continues the monotonic id sequence.
        let id3 = cache.insert(Region::trace(&p, &[s[1]]));
        assert!(id3 > id2);
    }

    #[test]
    fn invalidation_severs_links_both_ways() {
        let p = program();
        let mut cache = CodeCache::new();
        let s: Vec<Addr> = p.blocks().iter().map(|b| b.start()).collect();
        let id0 = cache.insert(Region::trace(&p, &[s[0]]));
        let id1 = cache.insert(Region::trace(&p, &[s[1]]));
        let id2 = cache.insert(Region::trace(&p, &[s[2]]));
        cache.record_link(id0, id1);
        cache.record_link(id1, id2);
        cache.record_link(id2, id0);
        cache.record_link(id2, id0); // duplicate: not double counted
        assert_eq!(cache.link_count(), 3);
        let out = cache.invalidate_range(s[1], s[1].offset(1));
        assert_eq!(out.severed_links, 2, "both links touching id1 cut");
        assert_eq!(cache.link_count(), 1);
        let remaining: Vec<_> = cache.links().collect();
        assert_eq!(remaining, vec![(id2, id0)]);
        // No link references a dead region.
        for (a, b) in cache.links() {
            assert!(cache.try_region(a).is_ok() && cache.try_region(b).is_ok());
        }
    }

    #[test]
    fn evict_oldest_removes_in_selection_order() {
        let p = program();
        let mut cache = CodeCache::new();
        let s: Vec<Addr> = p.blocks().iter().map(|b| b.start()).collect();
        let id0 = cache.insert(Region::trace(&p, &[s[0]]));
        let id1 = cache.insert(Region::trace(&p, &[s[1]]));
        let id2 = cache.insert(Region::trace(&p, &[s[2]]));
        let out = cache.evict_oldest(2);
        let gone: Vec<RegionId> = out.removed.iter().map(Region::id).collect();
        assert_eq!(gone, vec![id0, id1]);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.regions()[0].id(), id2);
        // Evicting more than live is harmless.
        let out = cache.evict_oldest(10);
        assert_eq!(out.removed.len(), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn page_index_matches_the_scan_oracle() {
        let p = program();
        let mut cache = CodeCache::new();
        let s: Vec<Addr> = p.blocks().iter().map(|b| b.start()).collect();
        let id0 = cache.insert(Region::trace(&p, &[s[0]]));
        let id1 = cache.insert(Region::trace(&p, &[s[1], s[0]]));
        let id2 = cache.insert(Region::trace(&p, &[s[2]]));
        // Point probes, a multi-region span, and a miss.
        let probes = [
            (s[0], s[0].offset(1)),
            (s[0], s[2].offset(1)),
            (s[1], s[2]),
            (Addr::new(0), Addr::new(0x50)),
            (s[2], s[2]), // empty range
        ];
        for (lo, hi) in probes {
            assert_eq!(
                cache.regions_overlapping(lo, hi),
                cache.regions_overlapping_scan(lo, hi),
                "probe [{lo}, {hi})"
            );
        }
        assert_eq!(
            cache.regions_overlapping(s[0], s[0].offset(1)),
            vec![id0, id1]
        );
        // A whole-address-space probe takes the index-walk path and
        // still finds everything exactly once.
        assert_eq!(
            cache.regions_overlapping(Addr::new(0), Addr::new(u64::MAX)),
            vec![id0, id1, id2]
        );
        // Removal deregisters: the dead region disappears from every
        // probe, survivors stay findable.
        cache.invalidate_range(s[1], s[1].offset(1));
        assert_eq!(cache.regions_overlapping(s[0], s[0].offset(1)), vec![id0]);
        assert_eq!(
            cache.regions_overlapping(Addr::new(0), Addr::new(u64::MAX)),
            vec![id0, id2]
        );
        cache.evict_oldest(1);
        assert_eq!(
            cache.regions_overlapping(Addr::new(0), Addr::new(u64::MAX)),
            vec![id2]
        );
        cache.flush();
        assert!(
            cache
                .regions_overlapping(Addr::new(0), Addr::new(u64::MAX))
                .is_empty()
        );
    }

    #[test]
    fn flush_restarts_ids_and_drops_links() {
        let p = program();
        let mut cache = CodeCache::new();
        let s: Vec<Addr> = p.blocks().iter().map(|b| b.start()).collect();
        let id0 = cache.insert(Region::trace(&p, &[s[0]]));
        let id1 = cache.insert(Region::trace(&p, &[s[1]]));
        cache.record_link(id0, id1);
        cache.flush();
        assert!(cache.is_empty());
        assert_eq!(cache.link_count(), 0);
        assert_eq!(cache.flushes(), 1);
        let id = cache.insert(Region::trace(&p, &[s[0]]));
        assert_eq!(id.index(), 0, "ids restart after a full flush");
    }
}
