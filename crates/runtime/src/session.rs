//! Tenant sessions: one recorded workload replayed epoch by epoch.
//!
//! A [`TenantSpec`] owns a workload's program and its compactly
//! recorded execution (record once, serve many). A [`TenantSession`]
//! borrows the spec and drives a persistent
//! [`Simulator`] through it in fixed-length
//! epochs: the code cache and every metric survive across epochs, the
//! selector may be swapped at epoch boundaries, and the scheduler may
//! run different epochs of the same session on different worker
//! threads (everything inside is `Send`).

use crate::shard::{SharedCacheMap, shard_of};
use crate::snapshot::{RegionSnapshot, SnapshotError, TenantSnapshot};
use crate::store::{RegionStore, region_key, shard_of_key};
use rsel_core::metrics::RunReport;
use rsel_core::select::SelectorKind;
use rsel_core::{RegionId, SimConfig, Simulator};
use rsel_program::{Executor, Program};
use rsel_trace::{CompactStream, DecodedStream, StreamStats};
use rsel_workloads::{Scale, Workload, suite};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A workload prepared for serving: the built program plus its full
/// recorded execution (kept both compact, for persistence-shaped
/// parity tests, and decoded once into dense arrays for serving),
/// replayable by any number of sessions.
///
/// The program and recording sit behind `Arc`s, so cloning a spec is
/// a refcount bump — that is what makes tenant replication
/// (`RSEL_REPLICAS`, thousands of homogeneous tenants over the same
/// twelve recordings) affordable: N tenants share one recording
/// instead of re-recording or deep-copying it N times.
#[derive(Clone)]
pub struct TenantSpec {
    name: &'static str,
    program: Arc<Program>,
    decoded: Arc<DecodedStream>,
}

impl TenantSpec {
    /// Builds `workload` at `(seed, scale)` and records its execution.
    pub fn record(workload: &Workload, seed: u64, scale: Scale) -> Self {
        let (program, spec) = workload.build(seed, scale);
        let stream = CompactStream::record(Executor::new(&program, spec));
        let decoded = DecodedStream::decode(stream, &program);
        TenantSpec {
            name: workload.name(),
            program: Arc::new(program),
            decoded: Arc::new(decoded),
        }
    }

    /// Records the whole twelve-workload suite at `(seed, scale)` —
    /// the standard serving population.
    pub fn record_suite(seed: u64, scale: Scale) -> Vec<TenantSpec> {
        suite()
            .iter()
            .map(|w| TenantSpec::record(w, seed, scale))
            .collect()
    }

    /// Clones each spec `replicas` times, *interleaved*: all replicas
    /// of one workload get adjacent tenant ids, so a bounded
    /// `max_active` admits identical tenants together and sharing can
    /// actually overlap in time. One replica returns the specs as
    /// given.
    pub fn replicate(specs: Vec<TenantSpec>, replicas: usize) -> Vec<TenantSpec> {
        if replicas <= 1 {
            return specs;
        }
        specs
            .into_iter()
            .flat_map(|s| std::iter::repeat_n(s, replicas))
            .collect()
    }

    /// The workload's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The built program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The recorded execution stream (owned by the decoded form).
    pub fn stream(&self) -> &CompactStream {
        self.decoded.compact()
    }

    /// The decode-once struct-of-arrays form of the recording.
    pub fn decoded(&self) -> &DecodedStream {
        &self.decoded
    }

    /// Recorded steps in the stream.
    pub fn len(&self) -> usize {
        self.decoded.len()
    }

    /// Decode-time stream statistics — the cheap program-shape
    /// features (block count, taken-branch density, backward-branch
    /// fraction) the adaptive policy engine conditions its priors on.
    pub fn stream_stats(&self) -> StreamStats {
        self.decoded.stats()
    }

    /// Whether the recording is empty.
    pub fn is_empty(&self) -> bool {
        self.decoded.is_empty()
    }
}

/// What one session executed during one epoch (deltas, not totals).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Steps (executed blocks) replayed this epoch.
    pub steps: u64,
    /// Instructions executed this epoch.
    pub insts: u64,
    /// Instructions executed from the code cache this epoch.
    pub cache_insts: u64,
    /// Instructions copied into the cache this epoch (code expansion).
    pub insts_selected: u64,
    /// Regions selected this epoch.
    pub regions_selected: u64,
    /// Self-modifying-code write faults that struck this epoch.
    pub smc_events: u64,
    /// Regions killed by those writes this epoch.
    pub smc_invalidated: u64,
}

impl EpochStats {
    /// Fraction of this epoch's instructions served from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.cache_insts as f64 / self.insts as f64
        }
    }

    /// Instructions copied per instruction executed this epoch.
    pub fn expansion(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.insts_selected as f64 / self.insts as f64
        }
    }
}

/// A region's share-store bookkeeping: its content key, the key's
/// shard, and the bytes charged for it.
#[derive(Clone, Copy, Debug)]
struct SharedRef {
    key: u64,
    shard: usize,
    bytes: u64,
}

/// One tenant's live serving session.
pub struct TenantSession<'p> {
    tenant: u16,
    workload: &'static str,
    sim: Simulator<'p>,
    decoded: &'p DecodedStream,
    /// Next step of the decoded stream to replay.
    pos: usize,
    program: &'p Program,
    kind: SelectorKind,
    shard_count: usize,
    stub_bytes: u64,
    /// Occupancy last published to the shared map, per shard.
    published: Vec<u64>,
    /// Share mode: content refs this session holds in the region
    /// store, per live region id. Region ids are stable until a full
    /// cache flush (tracked by `share_gen`), so only regions that
    /// appeared since the last publish need hashing.
    shared: BTreeMap<RegionId, SharedRef>,
    /// Cache flush count at the last shared publish; a change means
    /// every previously-tracked region id is invalid.
    share_gen: u64,
    /// SMC invalidations attributed to each shard (by the killed
    /// region's entry address), accumulated over the whole session.
    smc_by_shard: Vec<u64>,
    epochs_run: u64,
    finished: bool,
    /// Chaos hook: epoch count at which the session deliberately
    /// panics (see [`TenantSession::poison_after`]).
    poison_at: Option<u64>,
    // Simulator totals at the previous epoch boundary, for deltas.
    prev_insts: u64,
    prev_cache_insts: u64,
    prev_insts_selected: u64,
    prev_regions_selected: u64,
    prev_smc_events: u64,
    prev_smc_invalidated: u64,
}

impl<'p> TenantSession<'p> {
    /// Opens a session over `spec` as tenant `tenant`, starting with
    /// `kind` as its selector.
    pub fn new(
        tenant: u16,
        spec: &'p TenantSpec,
        kind: SelectorKind,
        config: &SimConfig,
        shard_count: usize,
    ) -> Self {
        let sim = Simulator::new(&spec.program, kind.make(&spec.program, config), config);
        TenantSession {
            tenant,
            workload: spec.name,
            sim,
            decoded: &spec.decoded,
            pos: 0,
            program: &spec.program,
            kind,
            shard_count,
            stub_bytes: config.stub_bytes,
            published: vec![0; shard_count],
            shared: BTreeMap::new(),
            share_gen: 0,
            smc_by_shard: vec![0; shard_count],
            epochs_run: 0,
            finished: false,
            poison_at: None,
            prev_insts: 0,
            prev_cache_insts: 0,
            prev_insts_selected: 0,
            prev_regions_selected: 0,
            prev_smc_events: 0,
            prev_smc_invalidated: 0,
        }
    }

    /// Opens a warm session over `spec` from a tenant's persisted
    /// state: the simulator starts on the snapshot's selector with
    /// every snapshotted region rebuilt against the spec's program
    /// (stubs and size estimates re-derived, nothing trusted from
    /// disk), then replays the recorded stream from the top.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::WorkloadMismatch`] if `snap` records a
    /// different workload than `spec`; [`SnapshotError::BadRegion`]
    /// (or [`SnapshotError::Malformed`]) if a region does not rebuild
    /// against the program.
    pub fn restore(
        tenant: u16,
        spec: &'p TenantSpec,
        snap: &TenantSnapshot,
        config: &SimConfig,
        shard_count: usize,
    ) -> Result<Self, SnapshotError> {
        if snap.workload != spec.name {
            return Err(SnapshotError::WorkloadMismatch {
                tenant,
                snapshot: snap.workload.clone(),
                spec: spec.name,
            });
        }
        let mut session = TenantSession::new(tenant, spec, snap.selector, config, shard_count);
        let mut regions = Vec::with_capacity(snap.regions.len());
        for r in &snap.regions {
            regions.push(r.rebuild(&spec.program).map_err(|e| match e {
                SnapshotError::BadRegion { source, .. } => {
                    SnapshotError::BadRegion { tenant, source }
                }
                other => other,
            })?);
        }
        session
            .sim
            .restore_regions(regions)
            .map_err(|source| SnapshotError::BadRegion { tenant, source })?;
        session.sim.restore_blacklist(&snap.blacklist);
        Ok(session)
    }

    /// The tenant id.
    pub fn tenant(&self) -> u16 {
        self.tenant
    }

    /// The workload this session replays.
    pub fn workload(&self) -> &'static str {
        self.workload
    }

    /// The selector currently driving the session.
    pub fn kind(&self) -> SelectorKind {
        self.kind
    }

    /// Epochs executed so far.
    pub fn epochs_run(&self) -> u64 {
        self.epochs_run
    }

    /// Whether the recorded stream is exhausted.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The next step of the decoded stream this session will replay.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Repositions the session at step `pos` of the recorded stream
    /// without executing anything — how a reconnect resumes from a
    /// checkpoint: the cache and metrics come from the snapshot (or
    /// start cold), and replay continues where the checkpoint was cut.
    ///
    /// # Panics
    ///
    /// If `pos` lies beyond the recorded stream.
    pub fn seek(&mut self, pos: usize) {
        assert!(
            pos <= self.decoded.len(),
            "seek past the recorded stream ({pos} > {})",
            self.decoded.len()
        );
        self.pos = pos;
    }

    /// Arms the chaos poison pill: the session panics at the start of
    /// its `epoch`-th epoch from now (0 = the very next one). This is
    /// the deliberate-defect hook the scheduler's quarantine path is
    /// tested against; it stands in for any bug that unwinds out of a
    /// worker mid-epoch.
    pub fn poison_after(&mut self, epoch: u64) {
        self.poison_at = Some(self.epochs_run + epoch);
    }

    /// Replays up to `epoch_len` steps, returning this epoch's deltas.
    /// Marks the session finished when the stream runs dry.
    ///
    /// Epochs are slices of the decoded recording replayed in one
    /// batch call, so a session pays no per-step iterator or decode
    /// overhead and spin phases fast-forward even across serving
    /// epochs (the detector only engages on phases wholly inside the
    /// epoch's range, keeping results bit-identical to stepping).
    pub fn run_epoch(&mut self, epoch_len: usize) -> EpochStats {
        if self.poison_at == Some(self.epochs_run) {
            panic!(
                "poison pill: tenant {} session corrupted at epoch {}",
                self.tenant, self.epochs_run
            );
        }
        let remaining = self.decoded.len() - self.pos;
        let executed = epoch_len.min(remaining);
        self.sim
            .replay_decoded_range(self.decoded, self.pos, self.pos + executed, true);
        self.pos += executed;
        // `finished` flips only when the stream came up short — an
        // exactly-full final epoch leaves it unset until the next
        // (empty) epoch observes the dry stream, matching the
        // iterator-driven behavior this replaces.
        if executed < epoch_len {
            self.finished = true;
        }
        let steps = executed as u64;
        self.epochs_run += 1;
        // Attribute this epoch's SMC kills to their cache shards (the
        // log is empty unless a fault schedule is active).
        for entry in self.sim.drain_invalidations() {
            self.smc_by_shard[shard_of(self.tenant, entry, self.shard_count)] += 1;
        }
        let res = self.sim.resilience();
        let stats = EpochStats {
            steps,
            insts: self.sim.total_insts() - self.prev_insts,
            cache_insts: self.sim.cache_insts() - self.prev_cache_insts,
            insts_selected: self.sim.insts_selected() - self.prev_insts_selected,
            regions_selected: self.sim.regions_selected() - self.prev_regions_selected,
            smc_events: res.smc_events - self.prev_smc_events,
            smc_invalidated: res.invalidated_regions - self.prev_smc_invalidated,
        };
        self.prev_insts = self.sim.total_insts();
        self.prev_cache_insts = self.sim.cache_insts();
        self.prev_insts_selected = self.sim.insts_selected();
        self.prev_regions_selected = self.sim.regions_selected();
        self.prev_smc_events = self.sim.resilience().smc_events;
        self.prev_smc_invalidated = self.sim.resilience().invalidated_regions;
        stats
    }

    /// This tenant's estimated bytes currently cached in `shard`.
    fn shard_occupancy(&self, shard: usize) -> u64 {
        self.sim
            .cache()
            .regions()
            .iter()
            .filter(|r| shard_of(self.tenant, r.entry(), self.shard_count) == shard)
            .map(|r| r.size_estimate(self.stub_bytes))
            .sum()
    }

    /// Full per-shard occupancy of this tenant's live regions.
    fn occupancy(&self) -> Vec<u64> {
        let mut occ = vec![0u64; self.shard_count];
        for r in self.sim.cache().regions() {
            occ[shard_of(self.tenant, r.entry(), self.shard_count)] +=
                r.size_estimate(self.stub_bytes);
        }
        occ
    }

    /// Publishes this tenant's occupancy to the shared map (worker
    /// side).
    pub fn publish_occupancy(&mut self, map: &SharedCacheMap) {
        self.publish_changed(map, self.occupancy());
    }

    /// Writes `occ` to the shared map for the shards whose occupancy
    /// changed since the last publish, so a quiet epoch takes no
    /// locks.
    fn publish_changed(&mut self, map: &SharedCacheMap, occ: Vec<u64>) {
        let changes: Vec<(usize, u64)> = (0..self.shard_count)
            .filter(|&s| occ[s] != self.published[s])
            .map(|s| (s, occ[s]))
            .collect();
        if !changes.is_empty() {
            map.publish(self.tenant, &changes);
            self.published = occ;
        }
    }

    /// Share mode: publishes this tenant's occupancy through the
    /// content-addressed store. Regions that appeared since the last
    /// publish are hashed ([`region_key`]) and acquire a ref in the
    /// key's shard; regions that vanished (SMC kills, flush waves,
    /// pressure eviction applied at a barrier) release theirs. The
    /// per-shard *logical* byte totals — grouped by content-key shard,
    /// not by `(tenant, entry)` — then go to the capacity map exactly
    /// like [`publish_occupancy`](TenantSession::publish_occupancy).
    ///
    /// Region ids are monotone until a full cache flush, so the diff
    /// against the previous publish touches only changed regions; a
    /// flush (the ids restart) is detected via the cache's flush count
    /// and releases everything before re-acquiring the live set.
    ///
    /// All store updates are commutative refcount operations, so
    /// worker scheduling cannot leak into the round's final state.
    pub fn publish_shared(&mut self, map: &SharedCacheMap, store: &RegionStore) {
        let flushes = self.sim.cache().flushes();
        if flushes != self.share_gen {
            for (_, r) in std::mem::take(&mut self.shared) {
                store.release(r.shard, r.key, self.tenant);
            }
            self.share_gen = flushes;
        }
        let cache = self.sim.cache();
        let live: Vec<RegionId> = cache.regions().iter().map(|r| r.id()).collect();
        let dead: Vec<RegionId> = {
            let live_set: std::collections::BTreeSet<RegionId> = live.iter().copied().collect();
            self.shared
                .keys()
                .filter(|id| !live_set.contains(id))
                .copied()
                .collect()
        };
        for id in dead {
            let r = self.shared.remove(&id).expect("collected from the map");
            store.release(r.shard, r.key, self.tenant);
        }
        for region in self.sim.cache().regions() {
            if self.shared.contains_key(&region.id()) {
                continue;
            }
            let key = region_key(self.workload, region);
            let shard = shard_of_key(key, self.shard_count);
            let bytes = region.size_estimate(self.stub_bytes);
            store.acquire(shard, key, bytes, self.tenant);
            self.shared
                .insert(region.id(), SharedRef { key, shard, bytes });
        }
        let mut occ = vec![0u64; self.shard_count];
        for r in self.shared.values() {
            occ[r.shard] += r.bytes;
        }
        self.publish_changed(map, occ);
    }

    /// Barrier-side share-mode pressure response: drops this
    /// session's regions whose content keys are in `doomed` (all
    /// belonging to store shard `shard` — the store already removed
    /// the entries), returning `(regions evicted, logical bytes left
    /// in the shard)`. The caller republishes the new total to the
    /// capacity map.
    pub fn evict_shared(&mut self, shard: usize, doomed: &[u64]) -> (u64, u64) {
        let dead: Vec<RegionId> = self
            .shared
            .iter()
            .filter(|(_, r)| r.shard == shard && doomed.contains(&r.key))
            .map(|(&id, _)| id)
            .collect();
        for id in &dead {
            self.shared.remove(id);
        }
        let evicted = self.sim.evict_regions(&dead) as u64;
        let left = self
            .shared
            .values()
            .filter(|r| r.shard == shard)
            .map(|r| r.bytes)
            .sum();
        self.published[shard] = left;
        (evicted, left)
    }

    /// Share mode: the content refs this session believes it holds —
    /// `(store shard, key, bytes)` per live region, for invariant
    /// checks.
    pub fn shared_refs(&self) -> Vec<(usize, u64, u64)> {
        self.shared
            .values()
            .map(|r| (r.shard, r.key, r.bytes))
            .collect()
    }

    /// Barrier-side pressure planning: this tenant's live regions in
    /// `shard` as `(id, size estimate)`, in selection order. The
    /// scheduler plans a shard's whole victim set against these lists
    /// and then applies it with one [`TenantSession::evict_planned`]
    /// call per tenant.
    pub fn shard_regions(&self, shard: usize) -> Vec<(RegionId, u64)> {
        self.sim
            .cache()
            .regions()
            .iter()
            .filter(|r| shard_of(self.tenant, r.entry(), self.shard_count) == shard)
            .map(|r| (r.id(), r.size_estimate(self.stub_bytes)))
            .collect()
    }

    /// Barrier-side pressure response: evicts the planned victim set
    /// `ids` from `shard` in one pass, recording `left` (the planner's
    /// byte total for the surviving regions) as the published
    /// occupancy. Returns the regions actually evicted.
    pub fn evict_planned(&mut self, shard: usize, ids: &[RegionId], left: u64) -> u64 {
        let evicted = self.sim.evict_regions(ids) as u64;
        debug_assert_eq!(left, self.shard_occupancy(shard), "planned bytes drifted");
        self.published[shard] = left;
        evicted
    }

    /// The persisted shape of every cached region, in selection order
    /// (see [`RegionSnapshot`]).
    pub fn region_snapshots(&self) -> Vec<RegionSnapshot> {
        self.sim
            .cache()
            .regions()
            .iter()
            .map(RegionSnapshot::capture)
            .collect()
    }

    /// Barrier-side selector switch: swaps the session onto `kind`
    /// with fresh profiling state; cache and metrics survive.
    pub fn switch_selector(&mut self, kind: SelectorKind, config: &SimConfig) {
        self.sim.set_selector(kind.make(self.program, config));
        self.kind = kind;
    }

    /// Total instructions executed so far.
    pub fn total_insts(&self) -> u64 {
        self.sim.total_insts()
    }

    /// Instructions served from the cache so far.
    pub fn cache_insts(&self) -> u64 {
        self.sim.cache_insts()
    }

    /// Instructions ever copied into the cache (monotone).
    pub fn insts_selected(&self) -> u64 {
        self.sim.insts_selected()
    }

    /// Regions ever selected (monotone).
    pub fn regions_selected(&self) -> u64 {
        self.sim.regions_selected()
    }

    /// Regions evicted from this session by shard pressure.
    pub fn pressure_evicted(&self) -> u64 {
        self.sim.resilience().pressure_evicted_regions
    }

    /// The session's resilience statistics so far.
    pub fn resilience(&self) -> &rsel_core::ResilienceStats {
        self.sim.resilience()
    }

    /// SMC invalidations attributed to each cache shard over the whole
    /// session (by the killed region's entry address).
    pub fn smc_by_shard(&self) -> &[u64] {
        &self.smc_by_shard
    }

    /// The persistent blacklist state: `(entry, invalidations)` in
    /// ascending entry order (see
    /// [`Simulator::export_blacklist`](rsel_core::Simulator::export_blacklist)).
    pub fn blacklist_snapshot(&self) -> Vec<(rsel_program::Addr, u32)> {
        self.sim.export_blacklist()
    }

    /// The session's full run report.
    pub fn report(&self) -> RunReport {
        self.sim.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TenantSpec {
        TenantSpec::record(&suite()[0], 7, Scale::Test)
    }

    #[test]
    fn epochs_partition_the_stream() {
        let spec = spec();
        let cfg = SimConfig::default();
        let mut s = TenantSession::new(0, &spec, SelectorKind::Net, &cfg, 8);
        let mut steps = 0;
        let mut insts = 0;
        while !s.finished() {
            let e = s.run_epoch(1000);
            steps += e.steps;
            insts += e.insts;
        }
        assert_eq!(steps as usize, spec.len(), "every step replayed once");
        assert_eq!(insts, s.total_insts(), "deltas sum to the total");
        assert!(s.epochs_run() >= spec.len() as u64 / 1000);
    }

    #[test]
    fn epoch_run_matches_monolithic_run() {
        let spec = spec();
        let cfg = SimConfig::default();
        let mut epoch = TenantSession::new(0, &spec, SelectorKind::Lei, &cfg, 8);
        while !epoch.finished() {
            epoch.run_epoch(777);
        }
        let mut mono = Simulator::new(
            spec.program(),
            SelectorKind::Lei.make(spec.program(), &cfg),
            &cfg,
        );
        mono.run(spec.stream().replay(spec.program()));
        assert_eq!(epoch.report(), mono.report(), "epoching is invisible");
    }

    #[test]
    fn occupancy_tracks_cache_and_shedding() {
        let spec = spec();
        let cfg = SimConfig::default();
        let map = SharedCacheMap::new(8, u64::MAX);
        let mut s = TenantSession::new(0, &spec, SelectorKind::Net, &cfg, 8);
        while !s.finished() {
            s.run_epoch(2000);
            s.publish_occupancy(&map);
        }
        let total: u64 = s.occupancy().iter().sum();
        assert_eq!(total, s.sim.cache().size_estimate(cfg.stub_bytes));
        assert!(total > 0, "the hot workload cached something");
        // Shed the oldest half of the heaviest shard in one planned
        // eviction, the way the scheduler's barrier does.
        let heavy = (0..8).max_by_key(|&i| s.occupancy()[i]).unwrap();
        let before = s.occupancy()[heavy];
        let regs = s.shard_regions(heavy);
        assert_eq!(regs.iter().map(|&(_, b)| b).sum::<u64>(), before);
        let count = regs.len().div_ceil(2);
        let doomed: Vec<RegionId> = regs[..count].iter().map(|&(id, _)| id).collect();
        let left: u64 = regs[count..].iter().map(|&(_, b)| b).sum();
        let evicted = s.evict_planned(heavy, &doomed, left);
        assert_eq!(evicted, count as u64);
        assert!(left < before);
        assert_eq!(left, s.occupancy()[heavy]);
        assert_eq!(s.pressure_evicted(), evicted);
    }

    #[test]
    fn switching_keeps_cache_and_totals() {
        let spec = spec();
        let cfg = SimConfig::default();
        let mut s = TenantSession::new(0, &spec, SelectorKind::Net, &cfg, 8);
        s.run_epoch(3000);
        let insts = s.total_insts();
        let cached = s.sim.cache().len();
        s.switch_selector(SelectorKind::Lei, &cfg);
        assert_eq!(s.kind(), SelectorKind::Lei);
        assert_eq!(s.total_insts(), insts);
        assert_eq!(s.sim.cache().len(), cached, "regions survive the switch");
        s.run_epoch(3000);
        assert!(s.total_insts() > insts, "the new selector keeps serving");
    }
}
