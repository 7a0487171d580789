//! The simulator's state apart from its selector, and the arrival
//! core that every way of driving the simulator runs through.
//!
//! [`Engine`] holds everything a run accumulates: the code cache, the
//! execution mode, the counters behind every metric, and the fault
//! layer. The selector lives beside it in the
//! [`Simulator`](super::Simulator), so the arrival core can borrow the
//! selector and the engine at the same time without ever taking the
//! selector out. The core is generic over the selector type: the
//! batch replay loop is instantiated once per selector type with its
//! hooks inlined (see [`RegionSelector`]), and the live path
//! instantiates the same code with `dyn RegionSelector`, so there is
//! exactly one arrival implementation.

use super::faults::{Fault, FaultConfig, FaultInjector};
use super::replay::{FfBuffers, ReplayScratch};
use crate::cache::{CodeCache, Region, RegionId, TransferClass};
use crate::config::SimConfig;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::metrics::report::{RegionReport, ResilienceStats};
use crate::select::{Arrival, RegionSelector};
use rsel_program::{Addr, Entry, Program, Step};

/// Virtual-memory page size used for the layout-locality metric.
const PAGE_BYTES: u64 = 4096;

/// The exit-edge memo's "nothing recorded" value: no live region has
/// this id.
pub(super) const NO_EXIT: (RegionId, Addr) = (RegionId(u32::MAX), Addr::new(u64::MAX));

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Mode {
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
pub(super) struct RegionRuntime {
    pub(super) executions: u64,
    pub(super) cycle_ends: u64,
    pub(super) insts_executed: u64,
}

/// Backoff state for an entry address whose regions keep being
/// invalidated by self-modifying code.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct BlacklistEntry {
    /// Self-modifying-code invalidations suffered at this entry.
    pub(super) invalidations: u32,
    /// Instruction count (total) until which selection is suppressed.
    pub(super) cooldown_until: u64,
}

/// The simulator's per-run state: everything but the selector.
///
/// Public only so that [`RegionSelector`]'s replay method can name it;
/// it lives in a private module, so no code outside this crate can
/// name, build or call it.
pub struct Engine<'p> {
    pub(super) program: &'p Program,
    pub(super) cache: CodeCache,
    stub_bytes: u64,
    pub(super) mode: Mode,
    // Control left the code cache and has not yet arrived in the
    // interpreter (the next arrival's `from_cache_exit`).
    pub(super) left_cache: bool,
    // The previous step's block: its start address and block index.
    pub(super) prev_block: Option<(Addr, usize)>,
    // Aggregate counters.
    pub(super) total_insts: u64,
    pub(super) cache_insts: u64,
    pub(super) interpreted_taken: u64,
    pub(super) transitions: u64,
    pub(super) transition_distance_sum: u64,
    pub(super) transition_page_crossings: u64,
    // Per-region runtime stats, indexed by RegionId raw value (ids are
    // monotonic within a cache generation, so the vec only grows; it
    // resets at a full flush together with the id sequence).
    pub(super) runtime: Vec<RegionRuntime>,
    // Executed-predecessor relation over program blocks, dense by the
    // target's block index (arrival targets are always block starts).
    pub(super) exec_preds: Vec<FxHashSet<Addr>>,
    // The last two distinct predecessors inserted into each block's
    // exec_preds set, most recent first (raw addresses; u64::MAX =
    // none yet). Steps overwhelmingly repeat one of a block's last two
    // edges (a join alternates between its predecessors), and the
    // relation only ever grows, so this memo turns the common per-step
    // set insert into two array compares.
    pub(super) last_pred: Vec<[u64; 2]>,
    // Index of the mode's current region within the cache's region
    // list, validated by id before use (indices shift on removal).
    // Pure lookup acceleration — never observable in reports.
    region_idx_hint: usize,
    // Exits observed leaving the cache towards each block:
    // {(region, from block)}, dense by the target's block index.
    pub(super) exit_edges: Vec<FxHashSet<(RegionId, Addr)>>,
    // The last two distinct exit edges inserted into each block's
    // exit_edges set, most recent first (NO_EXIT = none yet), as
    // last_pred does for exec_preds. A set only loses edges of removed
    // regions, whose ids never recur before a flush, so a memo hit is
    // an edge already present; retire_all resets the memo with the
    // sets when ids restart.
    pub(super) last_exit: Vec<[(RegionId, Addr); 2]>,
    // Regions removed from the cache (bounded-cache flushes, fault
    // invalidations, pressure evictions), with their final stats.
    pub(super) retired: Vec<RegionReport>,
    // Monotone selection totals surviving flushes and evictions.
    pub(super) regions_selected: u64,
    pub(super) insts_selected: u64,
    // Fault-injection layer.
    pub(super) injector: FaultInjector,
    fault_cfg: FaultConfig,
    pub(super) blacklist: FxHashMap<Addr, BlacklistEntry>,
    invalidated_entries: FxHashSet<Addr>,
    // Entry addresses of regions killed by SMC writes since the last
    // drain — the runtime's per-epoch resilience feed.
    pub(super) invalidation_log: Vec<Addr>,
    pub(super) resilience: ResilienceStats,
    // The spin fast-forward's working buffers (see `replay`).
    pub(super) ff: FfBuffers,
}

impl<'p> Engine<'p> {
    /// A fresh engine over `program`, reusing the allocations of
    /// `scratch`.
    pub(super) fn new(program: &'p Program, config: &SimConfig, scratch: ReplayScratch) -> Self {
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
        Engine {
            program,
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
            injector: FaultInjector::new(&config.faults),
            fault_cfg: config.faults.clone(),
            blacklist: FxHashMap::default(),
            invalidated_entries: FxHashSet::default(),
            invalidation_log: Vec::new(),
            resilience: ResilienceStats::default(),
            ff,
        }
    }

    /// The live cache's size estimate, with this run's stub size.
    pub(super) fn cache_size_estimate(&self) -> u64 {
        self.cache.size_estimate(self.stub_bytes)
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

    pub(super) fn region_reports(
        cache: &CodeCache,
        runtime: &[RegionRuntime],
    ) -> Vec<RegionReport> {
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
    fn apply_faults<S: RegionSelector + ?Sized>(&mut self, sel: &mut S, at: Addr) {
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
                    sel.on_fault(kind);
                }
            }
        }
    }

    /// Bookkeeping after regions left the cache mid-run: retire their
    /// stats, recover the execution mode, prune exit edges, and (for
    /// self-modifying-code invalidations) advance the blacklist.
    pub(super) fn handle_removal(
        &mut self,
        removed: Vec<Region>,
        severed: u64,
        blame_target: bool,
    ) {
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
    pub(super) fn arrive<S: RegionSelector + ?Sized>(&mut self, sel: &mut S, step: &Step) {
        let len = self.program.block(step.block).len() as u64;
        let program = self.program;
        // The transfer leaves the previous step's block.
        self.arrive_with(
            sel,
            step.block.index(),
            step.start,
            len,
            step.entry,
            |prev| prev.map(|b| (b, program.blocks()[b].terminator().addr())),
        );
    }

    /// The single arrival implementation shared by the live path
    /// ([`Simulator::arrive`](super::Simulator::arrive)) and the decoded
    /// batch path, so the two cannot drift. `source` resolves the block
    /// the transfer into `block_idx` leaves, and that block's
    /// terminator address (the fall-through source), from the previous
    /// step's block index — the live path reads the program tables, the
    /// decoded path the stream's precomputed ones. It is only invoked
    /// when the interpreter handles the arrival.
    #[inline]
    pub(super) fn arrive_with<S: RegionSelector + ?Sized>(
        &mut self,
        sel: &mut S,
        block_idx: usize,
        target: Addr,
        len: u64,
        entry: Entry,
        source: impl FnOnce(Option<usize>) -> Option<(usize, Addr)>,
    ) {
        // Scheduled faults strike before the block runs (draw-free and
        // bit-identical to no fault layer when every rate is zero).
        if self.injector.active() {
            self.apply_faults(sel, target);
        }
        self.total_insts += len;
        let prev = self.prev_block;
        self.prev_block = Some((target, block_idx));
        if let Some((p, _)) = prev {
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
        let blocks = self.program.blocks();
        let tgt_block = blocks[block_idx].id();
        let source = source(prev.map(|(_, b)| b));
        let src_block = source.map(|(b, _)| blocks[b].id());
        match entry {
            Entry::Taken { src, .. } => {
                debug_assert!(
                    source.is_none_or(|(_, term)| term == src),
                    "a taken transfer into {target} leaves its source block's terminator {src}"
                );
                if !from_exit {
                    self.interpreted_taken += 1;
                    // Active trace growth sees the transfer first (stop
                    // conditions, Figure 6 line 7 / NET's rules). A
                    // run's first step has no source block to name.
                    if let Some(sb) = src_block {
                        let done = sel.on_transfer(&self.cache, src, sb, target, tgt_block, true);
                        self.insert_regions(done);
                    }
                }
                // "At every interpreted taken branch, the system decides
                // whether to switch ... to executing a region" (§2.1).
                if let Some(rid) = self.entry_region(block_idx, target) {
                    self.enter_region(rid, target, len);
                    return;
                }
                let done = sel.on_arrival(
                    &self.cache,
                    Arrival {
                        src: Some(src),
                        src_block,
                        tgt: target,
                        tgt_block,
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
                if from_exit {
                    // Landing from a fall-through exit stub.
                    let done = sel.on_arrival(
                        &self.cache,
                        Arrival {
                            src: source.map(|(_, term)| term),
                            src_block,
                            tgt: target,
                            tgt_block,
                            taken: false,
                            from_cache_exit: true,
                        },
                    );
                    self.insert_regions(done);
                } else if let (Some((_, src)), Some(sb)) = (source, src_block) {
                    let done = sel.on_transfer(&self.cache, src, sb, target, tgt_block, false);
                    self.insert_regions(done);
                }
            }
            Entry::Start => {}
        }

        // Interpreted execution of the block (active growth extends).
        let done = sel.on_block(&self.cache, target, tgt_block);
        self.insert_regions(done);
    }
}
