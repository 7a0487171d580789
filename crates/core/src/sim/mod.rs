//! The dynamic-optimization-system simulator (paper §2.1 and §2.3).
//!
//! The simulator consumes the executed basic-block stream (from
//! [`Executor`](rsel_program::Executor) or a recorded stream) and
//! re-enacts the system of the paper's Figure 1: interpretation with
//! branch profiling, region selection, an unbounded code cache, lazy
//! inter-region linking, and execution from the cache — while measuring
//! every quantity the evaluation reports.
//!
//! Beyond the paper, the simulator carries a deterministic
//! fault-injection layer ([`faults`]) exercising the recovery machinery
//! real systems need: range invalidation for self-modifying code,
//! pressure-wave eviction, counter-fault tolerance, and an
//! exponential-backoff blacklist for targets that keep being
//! invalidated. With the default all-zero fault rates the layer is
//! inert and runs are bit-identical to a simulator without it.

pub mod faults;
mod replay;

use replay::FfBuffers;
pub use replay::ReplayScratch;

use crate::cache::{CodeCache, Region, RegionId, TransferClass};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::metrics::domination::analyze_domination;
use crate::metrics::report::{RegionReport, ResilienceStats, RunReport};
use crate::select::{Arrival, RegionSelector};
use faults::{Fault, FaultConfig, FaultInjector};
use rsel_program::{Addr, Entry, Program, Step};

/// Virtual-memory page size used for the layout-locality metric.
const PAGE_BYTES: u64 = 4096;

/// The exit-edge memo's "nothing recorded" value: no live region has
/// this id.
const NO_EXIT: (RegionId, Addr) = (RegionId(u32::MAX), Addr::new(u64::MAX));

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Interp,
    InCache {
        region: RegionId,
        block: Addr,
        /// The current block's slot in the region (index into
        /// [`Region::blocks`]); tracked alongside the address so the
        /// hot path can classify transfers against the slot-indexed
        /// successor table without hashing. The entry is always slot 0.
        slot: u32,
    },
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RegionRuntime {
    executions: u64,
    cycle_ends: u64,
    insts_executed: u64,
}

/// Backoff state for an entry address whose regions keep being
/// invalidated by self-modifying code.
#[derive(Clone, Copy, Debug, Default)]
struct BlacklistEntry {
    /// Self-modifying-code invalidations suffered at this entry.
    invalidations: u32,
    /// Instruction count (total) until which selection is suppressed.
    cooldown_until: u64,
}

/// The trace-driven simulator.
///
/// Drive it with [`Simulator::run`] (or step-by-step with
/// [`Simulator::arrive`]) and collect the metrics with
/// [`Simulator::report`].
pub struct Simulator<'p> {
    program: &'p Program,
    selector: Box<dyn RegionSelector + Send + 'p>,
    cache: CodeCache,
    stub_bytes: u64,
    mode: Mode,
    // Control left the code cache and has not yet arrived in the
    // interpreter (the next arrival's `from_cache_exit`).
    left_cache: bool,
    prev_block: Option<Addr>,
    // Aggregate counters.
    total_insts: u64,
    cache_insts: u64,
    interpreted_taken: u64,
    transitions: u64,
    transition_distance_sum: u64,
    transition_page_crossings: u64,
    // Per-region runtime stats, indexed by RegionId raw value (ids are
    // monotonic within a cache generation, so the vec only grows; it
    // resets at a full flush together with the id sequence).
    runtime: Vec<RegionRuntime>,
    // Executed-predecessor relation over program blocks, dense by the
    // target's block index (arrival targets are always block starts).
    exec_preds: Vec<FxHashSet<Addr>>,
    // The last two distinct predecessors inserted into each block's
    // exec_preds set, most recent first (raw addresses; u64::MAX =
    // none yet). Steps overwhelmingly repeat one of a block's last two
    // edges (a join alternates between its predecessors), and the
    // relation only ever grows, so this memo turns the common per-step
    // set insert into two array compares.
    last_pred: Vec<[u64; 2]>,
    // Index of the mode's current region within the cache's region
    // list, validated by id before use (indices shift on removal).
    // Pure lookup acceleration — never observable in reports.
    region_idx_hint: usize,
    // Exits observed leaving the cache towards each block:
    // {(region, from block)}, dense by the target's block index.
    exit_edges: Vec<FxHashSet<(RegionId, Addr)>>,
    // The last two distinct exit edges inserted into each block's
    // exit_edges set, most recent first (NO_EXIT = none yet), as
    // last_pred does for exec_preds. A set only loses edges of removed
    // regions, whose ids never recur before a flush, so a memo hit is
    // an edge already present; retire_all resets the memo with the
    // sets when ids restart.
    last_exit: Vec<[(RegionId, Addr); 2]>,
    // Regions removed from the cache (bounded-cache flushes, fault
    // invalidations, pressure evictions), with their final stats.
    retired: Vec<RegionReport>,
    // Monotone selection totals surviving flushes and evictions.
    regions_selected: u64,
    insts_selected: u64,
    // Peaks carried over from selectors replaced by set_selector, so
    // reported peaks cover the whole run, not just the last selector.
    peak_counters_floor: usize,
    peak_observed_floor: usize,
    // Fault-injection layer.
    injector: FaultInjector,
    fault_cfg: FaultConfig,
    blacklist: FxHashMap<Addr, BlacklistEntry>,
    invalidated_entries: FxHashSet<Addr>,
    // Entry addresses of regions killed by SMC writes since the last
    // drain — the runtime's per-epoch resilience feed.
    invalidation_log: Vec<Addr>,
    resilience: ResilienceStats,
    // The spin fast-forward's working buffers (see `replay`).
    ff: FfBuffers,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator over `program` with the given selector.
    pub fn new(
        program: &'p Program,
        selector: Box<dyn RegionSelector + Send + 'p>,
        config: &SimConfig,
    ) -> Self {
        Simulator::recycled(program, selector, config, ReplayScratch::default())
    }

    /// [`Simulator::new`] reusing the allocations of a previous run's
    /// [`ReplayScratch`] (see [`Simulator::into_scratch`]). Behaviour
    /// is identical to a fresh simulator — the scratch only donates
    /// buffer capacity.
    pub fn recycled(
        program: &'p Program,
        selector: Box<dyn RegionSelector + Send + 'p>,
        config: &SimConfig,
        scratch: ReplayScratch,
    ) -> Self {
        let cache = match config.cache_capacity {
            Some(cap) => CodeCache::bounded(cap, config.stub_bytes),
            None => CodeCache::new(),
        };
        // Pre-size the per-step side tables from the program's shape so
        // the hot path never grows them: the dense tables are indexed by
        // block, and region count scales with block count.
        let block_count = program.blocks().len();
        let ReplayScratch {
            exec_preds,
            exit_edges,
            last_pred,
            last_exit,
            runtime,
            retired,
            ff,
        } = scratch.prepare(block_count);
        Simulator {
            program,
            selector,
            cache,
            stub_bytes: config.stub_bytes,
            mode: Mode::Interp,
            left_cache: false,
            prev_block: None,
            total_insts: 0,
            cache_insts: 0,
            interpreted_taken: 0,
            transitions: 0,
            transition_distance_sum: 0,
            transition_page_crossings: 0,
            runtime,
            exec_preds,
            last_pred,
            region_idx_hint: 0,
            exit_edges,
            last_exit,
            retired,
            regions_selected: 0,
            insts_selected: 0,
            peak_counters_floor: 0,
            peak_observed_floor: 0,
            injector: FaultInjector::new(&config.faults),
            fault_cfg: config.faults.clone(),
            blacklist: FxHashMap::default(),
            invalidated_entries: FxHashSet::default(),
            invalidation_log: Vec::new(),
            resilience: ResilienceStats::default(),
            ff,
        }
    }

    /// Feeds every step of `stream` through the system.
    pub fn run(&mut self, stream: impl IntoIterator<Item = Step>) {
        for step in stream {
            self.arrive(&step);
        }
    }

    /// The code cache (inspect regions after a run).
    pub fn cache(&self) -> &CodeCache {
        &self.cache
    }

    /// The selector (inspect profiling state).
    pub fn selector(&self) -> &dyn RegionSelector {
        self.selector.as_ref()
    }

    /// Total instructions executed so far.
    pub fn total_insts(&self) -> u64 {
        self.total_insts
    }

    /// Instructions executed from the code cache so far.
    pub fn cache_insts(&self) -> u64 {
        self.cache_insts
    }

    /// Regions ever inserted into the cache (monotone: survives
    /// flushes, invalidations and evictions).
    pub fn regions_selected(&self) -> u64 {
        self.regions_selected
    }

    /// Instructions ever copied into the cache (monotone code
    /// expansion: survives flushes, invalidations and evictions).
    pub fn insts_selected(&self) -> u64 {
        self.insts_selected
    }

    /// Replaces the region-selection algorithm mid-run, returning the
    /// old selector.
    ///
    /// This is the epoch-switch hook of the adaptive runtime: the new
    /// selector starts with fresh profiling state (counters, history
    /// buffers, observed traces), while the code cache, all cached
    /// regions, and every accumulated metric survive. Peak counter and
    /// observed-trace figures are folded into run-level floors so the
    /// final report covers every selector that ran, not just the last.
    pub fn set_selector(
        &mut self,
        selector: Box<dyn RegionSelector + Send + 'p>,
    ) -> Box<dyn RegionSelector + Send + 'p> {
        self.peak_counters_floor = self.peak_counters_floor.max(self.selector.peak_counters());
        self.peak_observed_floor = self
            .peak_observed_floor
            .max(self.selector.peak_observed_bytes());
        std::mem::replace(&mut self.selector, selector)
    }

    /// Re-inserts previously captured regions into the cache of a
    /// simulator that has not executed yet — the warm-start hook of the
    /// multi-tenant runtime's snapshot layer.
    ///
    /// Regions are inserted in the given order and receive fresh ids
    /// (0, 1, …), so the restored cache's selection order is the order
    /// of `regions`. Restored capacity is *not* charged to the monotone
    /// selection totals ([`Simulator::regions_selected`],
    /// [`Simulator::insts_selected`]): the code expansion was paid for
    /// by the run that produced the snapshot, and a warm run reports
    /// only what it selects itself. Like [`Simulator::set_selector`],
    /// restoring never loses run-level bookkeeping — at construction
    /// time every peak floor is still zero, so there is nothing to
    /// fold.
    ///
    /// Returns how many regions were inserted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateRegionEntry`] if two regions share
    /// an entry address. The cache may hold a prefix of `regions` after
    /// an error; callers treat that as fatal and discard the simulator.
    pub fn restore_regions(&mut self, regions: Vec<Region>) -> Result<usize, SimError> {
        debug_assert_eq!(self.total_insts, 0, "warm starts precede execution");
        let mut restored = 0;
        for r in regions {
            let id = self.cache.try_insert(r)?;
            if self.runtime.len() <= id.index() {
                self.runtime
                    .resize(id.index() + 1, RegionRuntime::default());
            }
            restored += 1;
        }
        Ok(restored)
    }

    /// Removes the named regions from the cache under external
    /// pressure (the multi-tenant runtime's shard-capacity policy),
    /// running the same recovery bookkeeping as a pressure-wave fault:
    /// stats are retired, severed links counted, execution falls back
    /// to the interpreter if it was inside a removed region, and
    /// re-selection at the same entry later counts as a reformation.
    /// Returns how many regions were actually removed (dead ids are
    /// ignored). No target is blamed, so nothing is blacklisted.
    pub fn evict_regions(&mut self, ids: &[RegionId]) -> usize {
        let out = self.cache.remove_regions(ids);
        let count = out.removed.len();
        self.resilience.pressure_evicted_regions += count as u64;
        self.handle_removal(out.removed, out.severed_links, false);
        count
    }

    /// Resilience statistics accumulated so far (all zeros when the
    /// fault layer is inert).
    pub fn resilience(&self) -> &ResilienceStats {
        &self.resilience
    }

    /// Drains the entry addresses of regions killed by
    /// self-modifying-code writes since the last drain, in kill order —
    /// the multi-tenant runtime attributes each to its cache shard at
    /// the epoch boundary. Empty (and allocation-free) when no SMC
    /// fault struck.
    pub fn drain_invalidations(&mut self) -> Vec<Addr> {
        std::mem::take(&mut self.invalidation_log)
    }

    /// The blacklist's persistent state: `(entry, invalidations)` in
    /// ascending entry order. Cooldown deadlines are *not* exported —
    /// they are denominated in this run's instruction count — so a
    /// restored target resumes demotion only on its next invalidation.
    pub fn export_blacklist(&self) -> Vec<(Addr, u32)> {
        let mut out: Vec<(Addr, u32)> = self
            .blacklist
            .iter()
            .map(|(&a, b)| (a, b.invalidations))
            .collect();
        out.sort_unstable_by_key(|&(a, _)| a);
        out
    }

    /// Seeds the blacklist of a simulator that has not executed yet
    /// with counts exported by [`Simulator::export_blacklist`] — the
    /// warm-start path. Restored entries carry no cooldown (deadlines
    /// do not translate across runs), so a restored target executes
    /// until its next invalidation escalates it straight past
    /// `blacklist_after`.
    pub fn restore_blacklist(&mut self, entries: &[(Addr, u32)]) {
        debug_assert_eq!(self.total_insts, 0, "warm starts precede execution");
        for &(entry, invalidations) in entries {
            self.blacklist.insert(
                entry,
                BlacklistEntry {
                    invalidations,
                    cooldown_until: 0,
                },
            );
        }
    }

    /// Inserts a hook's selected regions. Nearly every hook result is
    /// empty, so that case returns inline and costs one length test;
    /// the insertion loop stays out of line.
    #[inline(always)]
    fn insert_regions(&mut self, regions: Vec<Region>) {
        if !regions.is_empty() {
            self.insert_selected(regions);
        }
    }

    #[inline(never)]
    fn insert_selected(&mut self, regions: Vec<Region>) {
        for r in regions {
            // Targets demoted by the blacklist stay interpreted until
            // their cooldown expires.
            if self.is_blacklisted(r.entry()) {
                self.resilience.blacklist_hits += 1;
                continue;
            }
            if self.cache.would_overflow(&r) {
                self.retire_all();
            }
            let entry = r.entry();
            let insts = r.inst_count();
            if let Ok(id) = self.cache.try_insert(r) {
                self.regions_selected += 1;
                self.insts_selected += insts;
                if self.runtime.len() <= id.index() {
                    self.runtime
                        .resize(id.index() + 1, RegionRuntime::default());
                }
                if self.invalidated_entries.contains(&entry) {
                    self.resilience.reformations += 1;
                }
            }
            // A duplicate entry (fault recovery racing a re-selection
            // against a re-formation in the same event) is dropped.
        }
    }

    fn is_blacklisted(&self, entry: Addr) -> bool {
        self.blacklist.get(&entry).is_some_and(|b| {
            b.invalidations >= self.fault_cfg.blacklist_after && self.total_insts < b.cooldown_until
        })
    }

    /// Bounded-cache flush: every live region's final statistics move
    /// to the retired list, the cache empties, and region ids restart.
    fn retire_all(&mut self) {
        debug_assert_eq!(self.mode, Mode::Interp, "flushes happen while interpreting");
        self.retired
            .extend(Self::region_reports(&self.cache, &self.runtime));
        self.cache.flush();
        self.runtime.clear();
        // Exit edges refer to now-recycled region ids.
        for set in &mut self.exit_edges {
            set.clear();
        }
        self.last_exit.fill([NO_EXIT; 2]);
    }

    fn report_for(r: &Region, rt: RegionRuntime) -> RegionReport {
        RegionReport {
            entry: r.entry(),
            kind: r.kind(),
            insts_copied: r.inst_count(),
            bytes: r.byte_size(),
            stubs: r.stub_count(),
            spans_cycle: r.spans_cycle(),
            executions: rt.executions,
            cycle_ends: rt.cycle_ends,
            insts_executed: rt.insts_executed,
        }
    }

    fn region_reports(cache: &CodeCache, runtime: &[RegionRuntime]) -> Vec<RegionReport> {
        cache
            .regions()
            .iter()
            .map(|r| {
                let rt = runtime.get(r.id().index()).copied().unwrap_or_default();
                Self::report_for(r, rt)
            })
            .collect()
    }

    /// Draws and applies this block's scheduled faults. A no-op (and
    /// draw-free, preserving bit-identity) when every rate is zero.
    fn apply_faults(&mut self, at: Addr) {
        let struck = self.injector.poll(at);
        for fault in struck {
            if self.resilience.total_insts_at_first_fault.is_none() {
                self.resilience.total_insts_at_first_fault = Some(self.total_insts);
                self.resilience.cache_insts_at_first_fault = Some(self.cache_insts);
            }
            match fault {
                Fault::SmcWrite { lo, hi } => {
                    self.resilience.smc_events += 1;
                    let out = self.cache.invalidate_range(lo, hi);
                    self.resilience.invalidated_regions += out.removed.len() as u64;
                    self.handle_removal(out.removed, out.severed_links, true);
                }
                Fault::FlushWave { percent } => {
                    self.resilience.flush_waves += 1;
                    let count = (self.cache.len() * usize::from(percent)).div_ceil(100);
                    let out = self.cache.evict_oldest(count);
                    self.resilience.pressure_evicted_regions += out.removed.len() as u64;
                    self.handle_removal(out.removed, out.severed_links, false);
                }
                Fault::Counter(kind) => {
                    self.resilience.counter_faults += 1;
                    self.selector.on_fault(kind);
                }
            }
        }
    }

    /// Bookkeeping after regions left the cache mid-run: retire their
    /// stats, recover the execution mode, prune exit edges, and (for
    /// self-modifying-code invalidations) advance the blacklist.
    fn handle_removal(&mut self, removed: Vec<Region>, severed: u64, blame_target: bool) {
        self.resilience.severed_links += severed;
        if removed.is_empty() {
            return;
        }
        // The region being executed vanished: fall back to the
        // interpreter, landing as if through an exit stub.
        if let Mode::InCache { region, .. } = self.mode {
            if self.cache.region_index(region).is_none() {
                self.mode = Mode::Interp;
                self.left_cache = true;
                self.resilience.recovery_transitions += 1;
            }
        }
        for r in &removed {
            let rt = self
                .runtime
                .get(r.id().index())
                .copied()
                .unwrap_or_default();
            self.retired.push(Self::report_for(r, rt));
            self.invalidated_entries.insert(r.entry());
            if blame_target {
                self.invalidation_log.push(r.entry());
                let after = self.fault_cfg.blacklist_after;
                let base = self.fault_cfg.blacklist_cooldown_insts;
                let b = self.blacklist.entry(r.entry()).or_default();
                b.invalidations += 1;
                if b.invalidations >= after {
                    // Exponential backoff: the cooldown doubles with
                    // every invalidation past the demotion point.
                    let shift = (b.invalidations - after).min(16);
                    b.cooldown_until = self
                        .total_insts
                        .saturating_add(base.saturating_mul(1 << shift));
                    if b.invalidations == after {
                        self.resilience.blacklisted_targets += 1;
                    }
                }
            }
        }
        // Exit bookkeeping must not name dead regions (every region
        // named before this removal was live).
        let cache = &self.cache;
        for set in &mut self.exit_edges {
            set.retain(|&(rid, _)| cache.region_index(rid).is_some());
        }
    }

    /// The region entered at `target`, program block `block_idx`: the
    /// cache's block-indexed table, cross-checked against its address
    /// map in debug builds.
    #[inline]
    fn entry_region(&self, block_idx: usize, target: Addr) -> Option<RegionId> {
        let id = self.cache.lookup_block(block_idx);
        debug_assert_eq!(id, self.cache.lookup(target), "entry table at {target}");
        id
    }

    fn enter_region(&mut self, id: RegionId, target: Addr, len: u64) {
        self.runtime[id.index()].executions += 1;
        self.runtime[id.index()].insts_executed += len;
        self.cache_insts += len;
        // Entering always lands on the region entry — slot 0.
        self.mode = Mode::InCache {
            region: id,
            block: target,
            slot: 0,
        };
        if let Some(idx) = self.cache.region_index(id) {
            self.region_idx_hint = idx;
        }
    }

    /// Processes one executed block.
    pub fn arrive(&mut self, step: &Step) {
        let len = self.program.block(step.block).len() as u64;
        let program = self.program;
        // `prev` always starts a program block (it came from an
        // executed step); resolve it gracefully regardless — under
        // fault injection a missing block degrades to an unattributed
        // arrival, never a panic.
        self.arrive_with(step.block.index(), step.start, len, step.entry, |prev| {
            prev.and_then(|p| program.block_at(p))
                .map(|b| b.terminator().addr())
        });
    }

    /// The single arrival implementation shared by the live path
    /// ([`Simulator::arrive`]) and the decoded batch path, so the two
    /// cannot drift. `fall_src` resolves the fall-through source from
    /// the previous block's address — the live path looks it up in the
    /// program tables, the decoded path reads a precomputed terminator
    /// table; it is only invoked for fall-through entries.
    #[inline]
    fn arrive_with(
        &mut self,
        block_idx: usize,
        target: Addr,
        len: u64,
        entry: Entry,
        fall_src: impl FnOnce(Option<Addr>) -> Option<Addr>,
    ) {
        // Scheduled faults strike before the block runs (draw-free and
        // bit-identical to no fault layer when every rate is zero).
        if self.injector.active() {
            self.apply_faults(target);
        }
        self.total_insts += len;
        let prev = self.prev_block;
        self.prev_block = Some(target);
        if let Some(p) = prev {
            // Steps overwhelmingly repeat one of the last two edges
            // into a block; the relation only grows, so skipping the
            // repeat insert is a pure no-op spared.
            let memo = &mut self.last_pred[block_idx];
            if !memo.contains(&p.raw()) {
                self.exec_preds[block_idx].insert(p);
                *memo = [p.raw(), memo[0]];
            }
        }

        // --- In-cache execution ---------------------------------------
        if let Mode::InCache {
            region,
            block,
            slot,
        } = self.mode
        {
            // The region is live: fault recovery resets the mode when
            // the current region is removed. Classify gracefully
            // anyway — an unknown id degrades to an interpreter
            // recovery instead of a panic. The common case (the same
            // region as the previous step) revalidates the cached
            // index with one id compare, then classifies against the
            // slot-indexed successor table: no hash lookups.
            let hint = self.region_idx_hint;
            let idx = {
                let regions = self.cache.regions();
                if hint < regions.len() && regions[hint].id() == region {
                    Some(hint)
                } else {
                    self.cache.region_index(region)
                }
            };
            match idx {
                Some(i) => {
                    self.region_idx_hint = i;
                    let (class, tslot) = self.cache.regions()[i].classify_slot(slot, target);
                    match class {
                        TransferClass::Cycle => {
                            let rt = &mut self.runtime[region.index()];
                            rt.cycle_ends += 1;
                            rt.executions += 1;
                            rt.insts_executed += len;
                            self.cache_insts += len;
                            self.mode = Mode::InCache {
                                region,
                                block: target,
                                slot: 0,
                            };
                            return;
                        }
                        TransferClass::Internal => {
                            self.runtime[region.index()].insts_executed += len;
                            self.cache_insts += len;
                            self.mode = Mode::InCache {
                                region,
                                block: target,
                                slot: tslot,
                            };
                            return;
                        }
                        TransferClass::Exit => {
                            let exit = (region, block);
                            let memo = &mut self.last_exit[block_idx];
                            if !memo.contains(&exit) {
                                self.exit_edges[block_idx].insert(exit);
                                *memo = [exit, memo[0]];
                            }
                            if let Some(r2) = self.entry_region(block_idx, target) {
                                // Lazy linking: the exit stub jumps
                                // straight to the other region — a
                                // region transition.
                                self.transitions += 1;
                                self.cache.record_link(region, r2);
                                let from = self.cache.regions()[i].cache_offset();
                                let to = self.cache.region(r2).cache_offset();
                                self.transition_distance_sum += from.abs_diff(to);
                                if from / PAGE_BYTES != to / PAGE_BYTES {
                                    self.transition_page_crossings += 1;
                                }
                                self.enter_region(r2, target, len);
                                return;
                            }
                            // Exit to the interpreter; fall through to
                            // the interpreter arrival logic below.
                            self.mode = Mode::Interp;
                            self.left_cache = true;
                        }
                    }
                }
                None => {
                    self.mode = Mode::Interp;
                    self.left_cache = true;
                    self.resilience.recovery_transitions += 1;
                }
            }
        }

        // --- Interpreter arrival ---------------------------------------
        let from_exit = std::mem::take(&mut self.left_cache);
        match entry {
            Entry::Taken { src, .. } => {
                if !from_exit {
                    self.interpreted_taken += 1;
                    // Active trace growth sees the transfer first (stop
                    // conditions, Figure 6 line 7 / NET's rules).
                    let done = self.selector.on_transfer(&self.cache, src, target, true);
                    self.insert_regions(done);
                }
                // "At every interpreted taken branch, the system decides
                // whether to switch ... to executing a region" (§2.1).
                if let Some(rid) = self.entry_region(block_idx, target) {
                    self.enter_region(rid, target, len);
                    return;
                }
                let done = self.selector.on_arrival(
                    &self.cache,
                    Arrival {
                        src: Some(src),
                        tgt: target,
                        taken: true,
                        from_cache_exit: from_exit,
                    },
                );
                // Without a selection the cache is unchanged, so the
                // lookup above still stands.
                if !done.is_empty() {
                    self.insert_selected(done);
                    // "jump newT" (Figure 5, line 15): a freshly
                    // selected region whose entry is this target is
                    // entered at once.
                    if let Some(rid) = self.entry_region(block_idx, target) {
                        self.enter_region(rid, target, len);
                        return;
                    }
                }
            }
            Entry::Fallthrough => {
                let src = fall_src(prev);
                if from_exit {
                    // Landing from a fall-through exit stub.
                    let done = self.selector.on_arrival(
                        &self.cache,
                        Arrival {
                            src,
                            tgt: target,
                            taken: false,
                            from_cache_exit: true,
                        },
                    );
                    self.insert_regions(done);
                } else if let Some(src) = src {
                    let done = self.selector.on_transfer(&self.cache, src, target, false);
                    self.insert_regions(done);
                }
            }
            Entry::Start => {}
        }

        // Interpreted execution of the block (active growth extends).
        let done = self.selector.on_block(&self.cache, target);
        self.insert_regions(done);
    }

    /// Assembles the full metrics report. With a bounded cache, the
    /// region list covers every region ever selected (retired and
    /// live); the domination analysis covers live regions only.
    pub fn report(&self) -> RunReport {
        let mut regions = self.retired.clone();
        regions.extend(Self::region_reports(&self.cache, &self.runtime));
        RunReport {
            selector: self.selector.name().to_string(),
            total_insts: self.total_insts,
            cache_insts: self.cache_insts,
            interpreted_taken: self.interpreted_taken,
            region_transitions: self.transitions,
            regions,
            peak_counters: self.peak_counters_floor.max(self.selector.peak_counters()),
            peak_observed_bytes: self
                .peak_observed_floor
                .max(self.selector.peak_observed_bytes()),
            cache_size_estimate: self.cache.size_estimate(self.stub_bytes),
            domination: analyze_domination(
                self.program,
                &self.cache,
                &self.exec_preds,
                &self.exit_edges,
            ),
            cache_flushes: self.cache.flushes(),
            transition_distance_sum: self.transition_distance_sum,
            transition_page_crossings: self.transition_page_crossings,
            resilience: self.resilience.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::SelectorKind;
    use rsel_program::Executor;
    use rsel_program::patterns::ScenarioBuilder;

    fn run_kind(
        kind: SelectorKind,
        build: impl Fn(&mut ScenarioBuilder),
        seed: u64,
        config: &SimConfig,
    ) -> RunReport {
        let mut s = ScenarioBuilder::new(seed);
        build(&mut s);
        let (p, spec) = s.build().unwrap();
        let mut sim = Simulator::new(&p, kind.make(&p, config), config);
        sim.run(Executor::new(&p, spec));
        sim.report()
    }

    fn hot_loop(s: &mut ScenarioBuilder) {
        let f = s.function("main", 0x1000);
        let lp = s.counted_loop(f, 3, 100_000);
        s.ret_from(f, lp.exit);
    }

    #[test]
    fn net_caches_a_hot_loop() {
        let r = run_kind(SelectorKind::Net, hot_loop, 1, &SimConfig::default());
        assert!(r.hit_rate() > 0.99, "hit rate {}", r.hit_rate());
        assert_eq!(r.region_count(), 1);
        assert!(r.regions[0].spans_cycle);
        assert!(r.regions[0].cycle_ends > 90_000);
        assert_eq!(r.cover_set_size(0.9), Some(1));
    }

    #[test]
    fn all_selectors_conserve_instructions() {
        for kind in SelectorKind::all() {
            let r = run_kind(kind, hot_loop, 1, &SimConfig::default());
            assert!(r.cache_insts <= r.total_insts, "{kind}");
            assert!(r.total_insts > 0, "{kind}");
        }
    }

    /// Paper Figure 2: a loop whose dominant path calls a function at a
    /// lower address. NET needs two traces; LEI spans the cycle in one.
    fn interproc_loop(s: &mut ScenarioBuilder) {
        let main = s.function("main", 0x4000);
        let callee = s.function("callee", 0x1000);
        let head = s.block(main, 2);
        let latch = s.block(main, 1);
        s.call(head, callee);
        s.branch_trips(latch, head, 50_000);
        let done = s.block(main, 0);
        s.ret(done);
        let c0 = s.block(callee, 2);
        s.ret(c0);
    }

    #[test]
    fn lei_spans_interprocedural_cycle_net_does_not() {
        let cfg = SimConfig::default();
        let net = run_kind(SelectorKind::Net, interproc_loop, 1, &cfg);
        let lei = run_kind(SelectorKind::Lei, interproc_loop, 1, &cfg);
        // NET splits the cycle into multiple traces, none spanning it.
        assert!(
            net.region_count() >= 2,
            "NET regions: {}",
            net.region_count()
        );
        assert_eq!(net.regions.iter().filter(|r| r.spans_cycle).count(), 0);
        // LEI selects one cycle-spanning trace.
        assert!(lei.regions.iter().any(|r| r.spans_cycle));
        assert!(lei.region_count() < net.region_count());
        // Fewer regions, fewer transitions: better locality.
        assert!(lei.region_transitions < net.region_transitions);
        // Both execute almost everything from the cache.
        assert!(net.hit_rate() > 0.99);
        assert!(lei.hit_rate() > 0.99);
    }

    #[test]
    fn transitions_counted_between_regions() {
        let cfg = SimConfig::default();
        let net = run_kind(SelectorKind::Net, interproc_loop, 1, &cfg);
        // NET's two traces bounce between each other every iteration.
        assert!(net.region_transitions > 10_000);
    }

    #[test]
    fn bounded_cache_flushes_and_recovers() {
        let cfg = SimConfig {
            cache_capacity: Some(60),
            ..SimConfig::default()
        };
        let mut s = ScenarioBuilder::new(1);
        interproc_loop(&mut s);
        let (p, spec) = s.build().unwrap();
        let mut sim = Simulator::new(&p, SelectorKind::Net.make(&p, &cfg), &cfg);
        sim.run(Executor::new(&p, spec));
        let rep = sim.report();
        assert!(rep.cache_flushes > 0, "tiny capacity forces flushes");
        // Regions regenerate after each flush, so more are selected
        // than under an unbounded cache.
        let unbounded = run_kind(SelectorKind::Net, interproc_loop, 1, &SimConfig::default());
        assert_eq!(unbounded.cache_flushes, 0);
        assert!(rep.region_count() > unbounded.region_count());
        // Even while thrashing, the cache serves a nontrivial share of
        // execution between flushes.
        assert!(rep.hit_rate() > 0.3, "hit {:.3}", rep.hit_rate());
        // Live cache respects the capacity.
        assert!(sim.cache().size_estimate(cfg.stub_bytes) <= 60);
    }

    /// Indirect dispatch loop: head, indirect switch over two handlers,
    /// latch back to head.
    fn dispatch_loop(s: &mut ScenarioBuilder) {
        let f = s.function("main", 0x1000);
        let head = s.block(f, 1);
        let sw = s.block(f, 1);
        let h1 = s.block(f, 2);
        let h2 = s.block(f, 2);
        let latch = s.block(f, 1);
        let out = s.block(f, 0);
        let _ = head;
        s.indirect_jump_weighted(sw, vec![(h1, 9), (h2, 1)]);
        s.jump(h1, latch);
        s.jump(h2, latch);
        s.branch_trips(latch, head, 60_000);
        s.ret(out);
    }

    #[test]
    fn indirect_targets_match_and_mispredict_in_cache() {
        let cfg = SimConfig::default();
        let r = run_kind(SelectorKind::Net, dispatch_loop, 5, &cfg);
        // The hot handler's path is cached and runs from the cache; the
        // cold handler's indirect target mispredicts the embedded edge
        // and exits, so the cache still serves most execution.
        assert!(r.hit_rate() > 0.9, "hit {:.3}", r.hit_rate());
        assert!(r.region_count() >= 1);
        // Roughly 10% of iterations take the cold handler: they leave
        // the region (as a transition or an interpreter exit).
        assert!(r.region_transitions > 0 || r.interpreted_taken > 5_000);
    }

    #[test]
    fn page_crossings_never_exceed_transitions() {
        let cfg = SimConfig::default();
        for kind in SelectorKind::all() {
            let r = run_kind(kind, interproc_loop, 1, &cfg);
            assert!(
                r.transition_page_crossings <= r.region_transitions,
                "{kind}"
            );
            if r.region_transitions > 0 {
                assert!(r.mean_transition_distance() >= 0.0);
            }
        }
    }

    #[test]
    fn extended_selectors_run_the_interproc_loop() {
        let cfg = SimConfig::default();
        for kind in SelectorKind::extended() {
            let r = run_kind(kind, interproc_loop, 1, &cfg);
            assert!(r.cache_insts <= r.total_insts, "{kind}");
            // Every algorithm eventually caches this scorching loop.
            assert!(r.region_count() >= 1, "{kind} selected nothing");
            assert!(r.hit_rate() > 0.5, "{kind} hit {:.3}", r.hit_rate());
        }
    }

    fn fault_cfg(seed: u64) -> SimConfig {
        SimConfig {
            faults: FaultConfig {
                seed,
                smc_write_ppm: 2_000,
                flush_wave_ppm: 500,
                counter_fault_ppm: 300,
                ..FaultConfig::default()
            },
            ..SimConfig::default()
        }
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let cfg = fault_cfg(42);
        let a = run_kind(SelectorKind::Lei, interproc_loop, 1, &cfg);
        let b = run_kind(SelectorKind::Lei, interproc_loop, 1, &cfg);
        assert!(
            a.resilience.fault_events() > 0,
            "rates this high must strike"
        );
        assert_eq!(a, b, "same seed, same schedule, same report");
    }

    #[test]
    fn zero_rates_match_regardless_of_fault_seed() {
        // The injector is never polled when every rate is zero, so the
        // fault seed cannot leak into the run.
        let base = SimConfig::default();
        let seeded = SimConfig {
            faults: FaultConfig {
                seed: 0xdead_beef,
                ..FaultConfig::default()
            },
            ..SimConfig::default()
        };
        let a = run_kind(SelectorKind::CombinedNet, interproc_loop, 1, &base);
        let b = run_kind(SelectorKind::CombinedNet, interproc_loop, 1, &seeded);
        assert_eq!(a.resilience, crate::metrics::ResilienceStats::default());
        assert_eq!(a, b);
    }

    #[test]
    fn smc_invalidation_recovers_and_reforms() {
        // Demotion is pushed out of reach so the loop keeps reforming
        // after every invalidation instead of being blacklisted.
        let cfg = SimConfig {
            faults: FaultConfig {
                seed: 7,
                smc_write_ppm: 500,
                blacklist_after: 1_000_000,
                ..FaultConfig::default()
            },
            ..SimConfig::default()
        };
        let r = run_kind(SelectorKind::Net, hot_loop, 1, &cfg);
        let res = &r.resilience;
        assert!(res.smc_events > 0);
        assert!(
            res.invalidated_regions > 0,
            "the hot loop sits in the write path"
        );
        assert!(
            res.reformations > 0,
            "the loop gets re-selected after invalidation"
        );
        // Conservation still holds and the cache keeps serving most of
        // the run between invalidations.
        assert!(r.cache_insts <= r.total_insts);
        assert!(r.hit_rate() > 0.5, "hit {:.3}", r.hit_rate());
        let under = r.hit_rate_under_faults().expect("faults struck");
        assert!((0.0..=1.0).contains(&under));
    }

    #[test]
    fn repeated_invalidation_blacklists_the_target() {
        // Saturate the loop with SMC writes so its entry is invalidated
        // well past blacklist_after; with a long cooldown the target is
        // demoted and selections get dropped.
        let cfg = SimConfig {
            faults: FaultConfig {
                seed: 3,
                smc_write_ppm: 50_000,
                blacklist_after: 2,
                blacklist_cooldown_insts: 1_000_000,
                ..FaultConfig::default()
            },
            ..SimConfig::default()
        };
        let r = run_kind(SelectorKind::Net, hot_loop, 1, &cfg);
        let res = &r.resilience;
        assert!(res.blacklisted_targets > 0, "resilience: {res:?}");
        assert!(
            res.blacklist_hits > 0,
            "demoted selections are dropped: {res:?}"
        );
    }

    #[test]
    fn blacklist_exports_and_restores_counts() {
        let cfg = SimConfig {
            faults: FaultConfig {
                seed: 3,
                smc_write_ppm: 50_000,
                blacklist_after: 2,
                blacklist_cooldown_insts: 1_000_000,
                ..FaultConfig::default()
            },
            ..SimConfig::default()
        };
        let mut s = ScenarioBuilder::new(1);
        hot_loop(&mut s);
        let (p, spec) = s.build().unwrap();
        let mut sim = Simulator::new(&p, SelectorKind::Net.make(&p, &cfg), &cfg);
        sim.run(Executor::new(&p, spec));
        // SMC kills were logged, in kill order, one per invalidation.
        let log = sim.drain_invalidations();
        assert_eq!(log.len() as u64, sim.resilience().invalidated_regions);
        assert!(
            sim.drain_invalidations().is_empty(),
            "drain empties the log"
        );
        let exported = sim.export_blacklist();
        assert!(!exported.is_empty());
        assert!(exported.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        assert!(exported.iter().any(|&(_, n)| n >= 2), "counts exported");
        // A fresh simulator restored with saturated counts demotes the
        // target on its *next* invalidation, not before (no cooldown is
        // carried across runs).
        let mut warm = Simulator::new(&p, SelectorKind::Net.make(&p, &cfg), &cfg);
        warm.restore_blacklist(&exported);
        assert_eq!(warm.export_blacklist(), exported, "counts round-trip");
    }

    #[test]
    fn pressure_waves_evict_and_execution_continues() {
        let cfg = SimConfig {
            faults: FaultConfig {
                seed: 11,
                flush_wave_ppm: 5_000,
                ..FaultConfig::default()
            },
            ..SimConfig::default()
        };
        let r = run_kind(SelectorKind::Lei, interproc_loop, 1, &cfg);
        let res = &r.resilience;
        assert!(res.flush_waves > 0);
        assert!(res.pressure_evicted_regions > 0);
        assert_eq!(res.invalidated_regions, 0, "no SMC faults were enabled");
        assert_eq!(
            res.blacklisted_targets, 0,
            "pressure does not blame targets"
        );
        assert!(r.hit_rate() > 0.3, "hit {:.3}", r.hit_rate());
    }

    #[test]
    fn counter_faults_leave_selectors_standing() {
        let cfg = SimConfig {
            faults: FaultConfig {
                seed: 5,
                counter_fault_ppm: 20_000,
                ..FaultConfig::default()
            },
            ..SimConfig::default()
        };
        for kind in SelectorKind::extended() {
            let r = run_kind(kind, interproc_loop, 1, &cfg);
            assert!(r.resilience.counter_faults > 0, "{kind}");
            assert!(r.cache_insts <= r.total_insts, "{kind}");
        }
    }

    #[test]
    fn report_region_order_matches_cache() {
        let cfg = SimConfig::default();
        let mut s = ScenarioBuilder::new(1);
        interproc_loop(&mut s);
        let (p, spec) = s.build().unwrap();
        let mut sim = Simulator::new(&p, SelectorKind::Net.make(&p, &cfg), &cfg);
        sim.run(Executor::new(&p, spec));
        let rep = sim.report();
        for (i, (r, c)) in rep.regions.iter().zip(sim.cache().regions()).enumerate() {
            assert_eq!(r.entry, c.entry(), "region {i}");
        }
    }
}
