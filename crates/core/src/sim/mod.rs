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

pub(crate) mod engine;
pub mod faults;
mod replay;

use engine::Engine;
pub use replay::ReplayScratch;

use crate::cache::{CodeCache, Region, RegionId};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::metrics::domination::analyze_domination;
use crate::metrics::report::{ResilienceStats, RunReport};
use crate::select::RegionSelector;
use rsel_program::{Addr, Program, Step};

/// The trace-driven simulator.
///
/// Drive it with [`Simulator::run`] (or step-by-step with
/// [`Simulator::arrive`]) and collect the metrics with
/// [`Simulator::report`].
pub struct Simulator<'p> {
    selector: Box<dyn RegionSelector + Send + 'p>,
    // Everything else: kept apart from the selector so the arrival
    // core borrows both at once and a panicking hook can never leave
    // the simulator without its selector.
    engine: Engine<'p>,
    // Peaks carried over from selectors replaced by set_selector, so
    // reported peaks cover the whole run, not just the last selector.
    peak_counters_floor: usize,
    peak_observed_floor: usize,
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
        Simulator {
            selector,
            engine: Engine::new(program, config, scratch),
            peak_counters_floor: 0,
            peak_observed_floor: 0,
        }
    }

    /// Feeds every step of `stream` through the system.
    pub fn run(&mut self, stream: impl IntoIterator<Item = Step>) {
        for step in stream {
            self.arrive(&step);
        }
    }

    /// Processes one executed block. The selector's hooks are called
    /// through its vtable; [`Simulator::replay_decoded_range`] runs the
    /// same arrival core with them inlined.
    pub fn arrive(&mut self, step: &Step) {
        self.engine.arrive(self.selector.as_mut(), step);
    }

    /// The code cache (inspect regions after a run).
    pub fn cache(&self) -> &CodeCache {
        &self.engine.cache
    }

    /// The selector (inspect profiling state).
    pub fn selector(&self) -> &dyn RegionSelector {
        self.selector.as_ref()
    }

    /// Total instructions executed so far.
    pub fn total_insts(&self) -> u64 {
        self.engine.total_insts
    }

    /// Instructions executed from the code cache so far.
    pub fn cache_insts(&self) -> u64 {
        self.engine.cache_insts
    }

    /// Regions ever inserted into the cache (monotone: survives
    /// flushes, invalidations and evictions).
    pub fn regions_selected(&self) -> u64 {
        self.engine.regions_selected
    }

    /// Instructions ever copied into the cache (monotone code
    /// expansion: survives flushes, invalidations and evictions).
    pub fn insts_selected(&self) -> u64 {
        self.engine.insts_selected
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
        debug_assert_eq!(self.engine.total_insts, 0, "warm starts precede execution");
        let mut restored = 0;
        for r in regions {
            let id = self.engine.cache.try_insert(r)?;
            if self.engine.runtime.len() <= id.index() {
                self.engine
                    .runtime
                    .resize(id.index() + 1, engine::RegionRuntime::default());
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
        let out = self.engine.cache.remove_regions(ids);
        let count = out.removed.len();
        self.engine.resilience.pressure_evicted_regions += count as u64;
        self.engine
            .handle_removal(out.removed, out.severed_links, false);
        count
    }

    /// Resilience statistics accumulated so far (all zeros when the
    /// fault layer is inert).
    pub fn resilience(&self) -> &ResilienceStats {
        &self.engine.resilience
    }

    /// Drains the entry addresses of regions killed by
    /// self-modifying-code writes since the last drain, in kill order —
    /// the multi-tenant runtime attributes each to its cache shard at
    /// the epoch boundary. Empty (and allocation-free) when no SMC
    /// fault struck.
    pub fn drain_invalidations(&mut self) -> Vec<Addr> {
        std::mem::take(&mut self.engine.invalidation_log)
    }

    /// The blacklist's persistent state: `(entry, invalidations)` in
    /// ascending entry order. Cooldown deadlines are *not* exported —
    /// they are denominated in this run's instruction count — so a
    /// restored target resumes demotion only on its next invalidation.
    pub fn export_blacklist(&self) -> Vec<(Addr, u32)> {
        let mut out: Vec<(Addr, u32)> = self
            .engine
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
        debug_assert_eq!(self.engine.total_insts, 0, "warm starts precede execution");
        for &(entry, invalidations) in entries {
            self.engine.blacklist.insert(
                entry,
                engine::BlacklistEntry {
                    invalidations,
                    cooldown_until: 0,
                },
            );
        }
    }

    /// Assembles the full metrics report. With a bounded cache, the
    /// region list covers every region ever selected (retired and
    /// live); the domination analysis covers live regions only.
    pub fn report(&self) -> RunReport {
        let e = &self.engine;
        let mut regions = e.retired.clone();
        regions.extend(Engine::region_reports(&e.cache, &e.runtime));
        RunReport {
            selector: self.selector.name().to_string(),
            total_insts: e.total_insts,
            cache_insts: e.cache_insts,
            interpreted_taken: e.interpreted_taken,
            region_transitions: e.transitions,
            regions,
            peak_counters: self.peak_counters_floor.max(self.selector.peak_counters()),
            peak_observed_bytes: self
                .peak_observed_floor
                .max(self.selector.peak_observed_bytes()),
            cache_size_estimate: e.cache_size_estimate(),
            domination: analyze_domination(e.program, &e.cache, &e.exec_preds, &e.exit_edges),
            cache_flushes: e.cache.flushes(),
            transition_distance_sum: e.transition_distance_sum,
            transition_page_crossings: e.transition_page_crossings,
            resilience: e.resilience.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::SelectorKind;
    use faults::FaultConfig;
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
