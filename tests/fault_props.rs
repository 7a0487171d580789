//! Property-based tests of the fault-injection layer: under arbitrary
//! seeded fault schedules, every selector must degrade gracefully —
//! no panics, no dangling cache links, balanced accounting, and fully
//! deterministic reports. A last property checks the code cache's
//! dense id, entry-block and link-memo tables against a plain model
//! under the removal operations fault recovery performs.

use proptest::prelude::*;
use regionsel::core::select::SelectorKind;
use regionsel::core::{
    CodeCache, FaultConfig, Region, RegionId, ResilienceStats, RunReport, SimConfig, Simulator,
};
use regionsel::program::patterns::ScenarioBuilder;
use regionsel::program::{Addr, BehaviorSpec, Executor, Program, ProgramBuilder};

/// A small terminating scenario with enough structure to exercise
/// multi-region selection: a driver loop calling a low-address leaf,
/// with a biased diamond and an inner loop in the body.
fn build(trips: u32, inner: u32, bias: f64, seed: u64) -> (Program, BehaviorSpec) {
    let mut s = ScenarioBuilder::new(seed);
    let callee = s.function("leaf", 0x1000);
    let cb = s.block(callee, 2);
    s.ret(cb);
    let main = s.function("main", 0x40_0000);
    s.set_entry(main);
    let head = s.block(main, 1);
    let _ = s.diamond(main, bias, 1);
    let ih = s.block(main, 1);
    let il = s.block(main, 1);
    s.branch_trips(il, ih, inner);
    let call = s.block(main, 1);
    s.call(call, callee);
    let latch = s.block(main, 1);
    s.branch_trips(latch, head, trips);
    let out = s.block(main, 0);
    s.ret(out);
    s.build().expect("generated scenario is well-formed")
}

fn low_thresholds(faults: FaultConfig) -> SimConfig {
    SimConfig {
        net_threshold: 8,
        lei_threshold: 6,
        t_prof: 4,
        t_min: 2,
        boa_threshold: 5,
        wr_sample_period: 13,
        wr_sample_threshold: 3,
        adore_sample_period: 7,
        adore_path_threshold: 2,
        mojo_exit_threshold: 4,
        faults,
        ..SimConfig::default()
    }
}

/// Runs to completion and returns both the report and the finished
/// simulator (for cache-structure assertions).
fn run<'p>(
    p: &'p Program,
    spec: BehaviorSpec,
    kind: SelectorKind,
    cfg: &SimConfig,
) -> (RunReport, Simulator<'p>) {
    let mut sim = Simulator::new(p, kind.make(p, cfg), cfg);
    sim.run(Executor::new(p, spec).take(120_000));
    (sim.report(), sim)
}

fn fault_strategy() -> impl Strategy<Value = FaultConfig> {
    (
        0u64..u64::MAX,
        0u32..=20_000,
        0u32..=5_000,
        0u32..=5_000,
        1u32..=6,
    )
        .prop_map(|(seed, smc, wave, ctr, after)| FaultConfig {
            seed,
            smc_write_ppm: smc,
            flush_wave_ppm: wave,
            counter_fault_ppm: ctr,
            blacklist_after: after,
            ..FaultConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every selector survives an arbitrary fault schedule with its
    /// invariants intact.
    #[test]
    fn selectors_degrade_gracefully_under_faults(
        faults in fault_strategy(),
        trips in 40u32..300,
        inner in 1u32..10,
        seed in 0u64..500,
    ) {
        let cfg = low_thresholds(faults);
        let (p, spec) = build(trips, inner, 0.9, seed);
        for kind in SelectorKind::extended() {
            let (r, sim) = run(&p, spec.clone(), kind, &cfg);
            // Conservation: cache execution never exceeds the total,
            // and every cached instruction is attributed to exactly
            // one region report (retired regions included).
            prop_assert!(r.cache_insts <= r.total_insts, "{kind}");
            let per: u64 = r.regions.iter().map(|x| x.insts_executed).sum();
            prop_assert_eq!(per, r.cache_insts, "{}", kind);
            // Rates stay in range even when faults truncate windows.
            let hit = r.hit_rate();
            prop_assert!((0.0..=1.0).contains(&hit), "{kind}: {hit}");
            if let Some(under) = r.hit_rate_under_faults() {
                prop_assert!((0.0..=1.0).contains(&under), "{kind}: {under}");
                prop_assert!(r.resilience.fault_events() > 0, "{kind}");
            }
            // No dangling links: invalidation severs both directions.
            for (from, to) in sim.cache().links() {
                prop_assert!(sim.cache().try_region(from).is_ok(), "{kind}: {from:?}");
                prop_assert!(sim.cache().try_region(to).is_ok(), "{kind}: {to:?}");
            }
            // Fault bookkeeping is internally consistent.
            let res = &r.resilience;
            // Every reformation follows a distinct removal (the cache
            // rejects duplicate entries, so an entry cannot reform
            // twice without being removed in between).
            prop_assert!(
                res.reformations <= res.invalidated_regions + res.pressure_evicted_regions,
                "{kind}: {res:?}"
            );
            prop_assert!(res.blacklisted_targets <= res.invalidated_regions, "{kind}");
            if res.smc_events == 0 {
                prop_assert_eq!(res.invalidated_regions, 0, "{}", kind);
                prop_assert_eq!(res.blacklisted_targets, 0, "{}", kind);
            }
            if res.flush_waves == 0 {
                prop_assert_eq!(res.pressure_evicted_regions, 0, "{}", kind);
            }
        }
    }

    /// The same fault seed replays the same schedule: two runs produce
    /// bit-identical reports.
    #[test]
    fn seeded_fault_schedules_are_deterministic(
        faults in fault_strategy(),
        trips in 40u32..200,
        kind_ix in 0usize..SelectorKind::extended().len(),
    ) {
        let kind = SelectorKind::extended()[kind_ix];
        let cfg = low_thresholds(faults);
        let (p, spec) = build(trips, 3, 0.8, 1);
        let (a, _) = run(&p, spec.clone(), kind, &cfg);
        let (b, _) = run(&p, spec, kind, &cfg);
        prop_assert_eq!(a, b);
    }

    /// With every rate at zero the fault layer is invisible: reports
    /// are bit-identical to a default-config run no matter the seed.
    #[test]
    fn zero_rates_are_bit_identical_to_no_fault_layer(
        seed in 0u64..u64::MAX,
        trips in 40u32..200,
        kind_ix in 0usize..SelectorKind::extended().len(),
    ) {
        let kind = SelectorKind::extended()[kind_ix];
        let base = low_thresholds(FaultConfig::default());
        let seeded = low_thresholds(FaultConfig { seed, ..FaultConfig::default() });
        let (p, spec) = build(trips, 3, 0.8, 1);
        let (a, _) = run(&p, spec.clone(), kind, &base);
        let (b, _) = run(&p, spec, kind, &seeded);
        prop_assert_eq!(&a.resilience, &ResilienceStats::default());
        prop_assert_eq!(a.hit_rate_under_faults(), None);
        prop_assert_eq!(a, b);
    }
}

/// `FUNCS` two-block leaf functions spaced 0x180 bytes apart, so entry
/// block indices and addresses both vary and invalidations straddle
/// regions at irregular offsets.
fn cache_program() -> Program {
    let mut b = ProgramBuilder::new();
    for i in 0..FUNCS {
        let f = b.function(&format!("f{i}"), 0x1000 + (i as u64) * 0x180);
        let head = b.block_with(f, 2);
        let tail = b.block_with(f, 1);
        b.cond_branch(head, tail);
        b.ret(tail);
    }
    b.build().expect("disjoint leaf functions are well-formed")
}

const FUNCS: usize = 24;
const BLOCKS: usize = 2 * FUNCS;
const LO: u64 = 0x1000;
const HI: u64 = LO + (FUNCS as u64) * 0x180 + 0x200;

#[derive(Clone, Debug)]
enum CacheOp {
    /// Insert the trace `[block a, block b]` (`[a]` when equal),
    /// skipped if block `a` already starts a live region.
    Insert(usize, usize),
    /// Invalidate `[lo, lo + span)`.
    Invalidate(u64, u64),
    /// Evict the `count` oldest regions.
    Evict(usize),
    /// Remove ids picked from every id handed out so far (live, dead
    /// or flushed alike), repeats allowed.
    Remove(Vec<usize>),
    /// Record a link between two live regions, picked by position.
    Link(usize, usize),
    /// Record a link between two ids handed out so far (live, dead or
    /// flushed alike).
    LinkAny(usize, usize),
    /// Drop everything.
    Flush,
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    // The vendored `prop_oneof!` is unweighted; inserts and live links
    // are listed twice to bias toward a populated, linked cache. Live
    // picks use small positions, so the same pair recurs, also across
    // a flush that hands the same raw ids out again.
    prop_oneof![
        (0usize..BLOCKS, 0usize..BLOCKS).prop_map(|(a, b)| CacheOp::Insert(a, b)),
        (0usize..BLOCKS, 0usize..BLOCKS).prop_map(|(a, b)| CacheOp::Insert(a, b)),
        (LO..HI, 1u64..768).prop_map(|(lo, span)| CacheOp::Invalidate(lo, span)),
        (1usize..4).prop_map(CacheOp::Evict),
        prop::collection::vec(0usize..64, 1..4).prop_map(CacheOp::Remove),
        (0usize..3, 0usize..3).prop_map(|(a, b)| CacheOp::Link(a, b)),
        (0usize..3, 0usize..3).prop_map(|(a, b)| CacheOp::Link(a, b)),
        (0usize..64, 0usize..64).prop_map(|(a, b)| CacheOp::LinkAny(a, b)),
        Just(CacheOp::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every insert, invalidation, eviction, removal, link and
    /// flush: the dense id index agrees with a linear scan of the live
    /// regions, dead and flushed ids resolve to nothing, the
    /// block-indexed entry lookup agrees with the address lookup, and
    /// the memoized link set equals a model that records every link.
    #[test]
    fn dense_cache_tables_match_a_linear_scan(
        ops in prop::collection::vec(cache_op(), 1..80)
    ) {
        let p = cache_program();
        let mut cache = CodeCache::new();
        // Every id ever handed out, across flushes.
        let mut issued: Vec<RegionId> = Vec::new();
        // This generation's ids by raw index: the live region's entry,
        // or `None` once removed.
        let mut model: Vec<Option<Addr>> = Vec::new();
        let mut links: Vec<(RegionId, RegionId)> = Vec::new();
        let pick = |issued: &[RegionId], k: usize| issued.get(k % issued.len().max(1)).copied();
        for op in ops {
            let removed: Vec<Region> = match op {
                CacheOp::Insert(a, b) => {
                    let (ea, eb) = (p.blocks()[a].start(), p.blocks()[b].start());
                    if !cache.contains(ea) {
                        let path = if a == b { vec![ea] } else { vec![ea, eb] };
                        let id = cache.insert(Region::trace(&p, &path));
                        prop_assert_eq!(id.index(), model.len(), "ids are dense");
                        model.push(Some(ea));
                        issued.push(id);
                    }
                    Vec::new()
                }
                CacheOp::Invalidate(lo, span) => {
                    cache.invalidate_range(Addr::new(lo), Addr::new(lo + span)).removed
                }
                CacheOp::Evict(count) => cache.evict_oldest(count).removed,
                CacheOp::Remove(picks) => {
                    let ids: Vec<RegionId> =
                        picks.iter().filter_map(|&k| pick(&issued, k)).collect();
                    cache.remove_regions(&ids).removed
                }
                CacheOp::Link(a, b) | CacheOp::LinkAny(a, b) => {
                    let ids: Vec<RegionId> = match op {
                        CacheOp::Link(..) => cache.regions().iter().map(Region::id).collect(),
                        _ => issued.clone(),
                    };
                    if let (Some(from), Some(to)) = (pick(&ids, a), pick(&ids, b)) {
                        cache.record_link(from, to);
                        let live = |id: RegionId| {
                            model.get(id.index()).is_some_and(Option::is_some)
                        };
                        if from != to && live(from) && live(to) && !links.contains(&(from, to)) {
                            links.push((from, to));
                        }
                    }
                    Vec::new()
                }
                CacheOp::Flush => {
                    cache.flush();
                    model.clear();
                    links.clear();
                    Vec::new()
                }
            };
            for r in &removed {
                prop_assert!(model[r.id().index()].take().is_some(), "removed twice");
            }
            links.retain(|&(f, t)| model[f.index()].is_some() && model[t.index()].is_some());

            // The dense index against a linear scan.
            for (i, r) in cache.regions().iter().enumerate() {
                prop_assert_eq!(cache.region_index(r.id()), Some(i));
                prop_assert_eq!(cache.try_region(r.id()).map(Region::entry).ok(), Some(r.entry()));
                prop_assert_eq!(model[r.id().index()], Some(r.entry()));
            }
            let live = model.iter().filter(|e| e.is_some()).count();
            prop_assert_eq!(live, cache.len());
            // Dead and flushed ids resolve to nothing (a flushed id may
            // only come back by being issued again).
            for &id in &issued {
                if model.get(id.index()).is_none_or(Option::is_none) {
                    prop_assert_eq!(cache.region_index(id), None);
                    prop_assert!(cache.try_region(id).is_err());
                }
            }
            // The block-indexed entry table against the address map.
            for b in p.blocks() {
                prop_assert_eq!(cache.lookup_block(b.id().index()), cache.lookup(b.start()));
            }
            // The memo never hides a link nor keeps a dead one.
            let mut got: Vec<(RegionId, RegionId)> = cache.links().collect();
            got.sort_unstable();
            let mut want = links.clone();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
