//! A selector defined outside the crate drives the simulator through
//! the open `RegionSelector` trait: batch replay gives the same report
//! as live stepping, and a hook that panics mid-replay leaves the
//! plug-in in place, so a caller that catches the panic (the serving
//! runtime's failure domain) still reads the plug-in's name and
//! counters.

use regionsel::core::cache::{CodeCache, Region};
use regionsel::core::select::{Arrival, RegionSelector};
use regionsel::core::{SimConfig, Simulator};
use regionsel::program::{Addr, Executor, Program};
use regionsel::trace::{CompactStream, DecodedStream};
use regionsel::workloads::{Scale, suite};
use std::collections::HashMap;
use std::panic::{AssertUnwindSafe, catch_unwind};

/// Caches every hot backward-branch or exit target as a one-block
/// region (the selector of `examples/custom_selector.rs`), optionally
/// panicking at its `panic_at`-th arrival.
struct SingleBlockSelector<'p> {
    program: &'p Program,
    threshold: u32,
    counters: HashMap<Addr, u32>,
    peak: usize,
    arrivals: u64,
    panic_at: Option<u64>,
}

impl<'p> SingleBlockSelector<'p> {
    fn new(program: &'p Program, threshold: u32, panic_at: Option<u64>) -> Self {
        SingleBlockSelector {
            program,
            threshold,
            counters: HashMap::new(),
            peak: 0,
            arrivals: 0,
            panic_at,
        }
    }
}

impl RegionSelector for SingleBlockSelector<'_> {
    fn on_arrival(&mut self, _: &CodeCache, a: Arrival) -> Vec<Region> {
        self.arrivals += 1;
        if self.panic_at == Some(self.arrivals) {
            panic!("plug-in hook failure at arrival {}", self.arrivals);
        }
        let backward = a.taken && a.src.is_some_and(|s| a.tgt.is_backward_from(s));
        if !(backward || a.from_cache_exit) {
            return Vec::new();
        }
        let c = self.counters.entry(a.tgt).or_insert(0);
        *c += 1;
        let hot = *c >= self.threshold;
        self.peak = self.peak.max(self.counters.len());
        if !hot {
            return Vec::new();
        }
        self.counters.remove(&a.tgt);
        vec![Region::trace(self.program, &[a.tgt])]
    }

    fn counters_in_use(&self) -> usize {
        self.counters.len()
    }

    fn peak_counters(&self) -> usize {
        self.peak
    }

    fn name(&self) -> &'static str {
        "single-block"
    }
}

/// gzip at test scale, recorded and decoded.
fn recorded() -> (Program, DecodedStream) {
    let w = suite()
        .into_iter()
        .find(|w| w.name() == "gzip")
        .expect("gzip exists");
    let (program, spec) = w.build(7, Scale::Test);
    let stream = CompactStream::record(Executor::new(&program, spec));
    let decoded = DecodedStream::decode(stream, &program);
    (program, decoded)
}

#[test]
fn plugin_replay_matches_live_stepping() {
    let (p, decoded) = recorded();
    let config = SimConfig::default();
    let plugin = || Box::new(SingleBlockSelector::new(&p, config.net_threshold, None));
    let mut live = Simulator::new(&p, plugin(), &config);
    live.run(decoded.steps());
    let mut batch = Simulator::new(&p, plugin(), &config);
    batch.replay_decoded(&decoded);
    let report = batch.report();
    assert_eq!(report, live.report());
    assert_eq!(report.selector, "single-block");
    assert!(report.region_count() > 0, "the plug-in selected regions");
}

#[test]
fn panicking_plugin_hook_leaves_the_plugin_in_place() {
    let (p, decoded) = recorded();
    let config = SimConfig::default();
    let mut sim = Simulator::new(
        &p,
        Box::new(SingleBlockSelector::new(
            &p,
            config.net_threshold,
            Some(100),
        )),
        &config,
    );
    let caught = catch_unwind(AssertUnwindSafe(|| sim.replay_decoded(&decoded)));
    assert!(caught.is_err(), "the hook panicked");
    assert_eq!(sim.selector().name(), "single-block");
    let peak = sim.selector().peak_counters();
    assert!(peak > 0, "the plug-in counted before it failed");
    let report = sim.report();
    assert_eq!(report.selector, "single-block");
    assert_eq!(report.peak_counters, peak);
}
