//! Plugging a custom region-selection algorithm into the simulator.
//!
//! The paper's framework "allows us to gather data for each
//! region-selection algorithm without modification" (§2.3, footnote 4),
//! and its conclusion mentions ongoing work to let Pin "accept a
//! user-specified trace-selection algorithm". This crate keeps the same
//! property: anything implementing
//! [`RegionSelector`](regionsel::core::select::RegionSelector) drives
//! the simulator. Only `on_arrival` and the counter statistics are
//! required: `on_transfer` and `on_block` default to selecting nothing,
//! so a selector without a trace-growth phase leaves them out. Nor does
//! a plug-in write anything for speed: `Simulator::replay_decoded`
//! runs a copy of the replay loop compiled for the plug-in's own type,
//! with its hooks called statically rather than through the vtable,
//! exactly as for the built-in selectors.
//!
//! The custom algorithm here is *single-block caching*: every backward
//! branch target above a threshold becomes a one-block region — roughly
//! the simplest sound selector. Comparing it against NET shows why
//! traces matter: hit rates are similar, but the single-block scheme
//! needs far more region transitions (poor locality of execution).
//!
//! ```sh
//! cargo run --release --example custom_selector
//! ```

use regionsel::core::cache::{CodeCache, Region};
use regionsel::core::select::{Arrival, RegionSelector, SelectorKind};
use regionsel::core::{SimConfig, Simulator};
use regionsel::program::{Addr, Executor, Program};
use regionsel::workloads::{Scale, suite};
use std::collections::HashMap;

/// Caches every hot backward-branch target as a one-block region.
struct SingleBlockSelector<'p> {
    program: &'p Program,
    threshold: u32,
    counters: HashMap<Addr, u32>,
    peak: usize,
}

impl<'p> SingleBlockSelector<'p> {
    fn new(program: &'p Program, threshold: u32) -> Self {
        SingleBlockSelector {
            program,
            threshold,
            counters: HashMap::new(),
            peak: 0,
        }
    }
}

impl RegionSelector for SingleBlockSelector<'_> {
    fn on_arrival(&mut self, _: &CodeCache, a: Arrival) -> Vec<Region> {
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

fn main() {
    let config = SimConfig::default();
    let workload = suite()
        .into_iter()
        .find(|w| w.name() == "gzip")
        .expect("gzip exists");
    println!("workload: {} ({})\n", workload.name(), workload.summary());

    // The custom selector.
    let (program, spec) = workload.build(7, Scale::Test);
    let mut sim = Simulator::new(
        &program,
        Box::new(SingleBlockSelector::new(&program, config.net_threshold)),
        &config,
    );
    sim.run(Executor::new(&program, spec));
    let custom = sim.report();
    println!("{custom}\n");

    // NET on the identical execution.
    let (program, spec) = workload.build(7, Scale::Test);
    let mut sim = Simulator::new(&program, SelectorKind::Net.make(&program, &config), &config);
    sim.run(Executor::new(&program, spec));
    let net = sim.report();
    println!("{net}\n");

    println!(
        "single-block regions bounce {}x as often between regions as NET's traces",
        custom.region_transitions / net.region_transitions.max(1)
    );
}
