//! Wiggins/Redstone's trace selection (paper §5).
//!
//! "Wiggins/Redstone is a transparent optimization system developed at
//! Compaq that uses a combination of hardware sampling and software
//! instrumentation. To identify the beginning of a trace, the program
//! counter is periodically sampled. From a starting instruction, a
//! trace is selected by adding instrumentation code that determines the
//! most frequent target of each selected branch."
//!
//! The model: every `wr_sample_period`-th interpreted block is a PC
//! sample; an address sampled `wr_sample_threshold` times becomes a
//! trace head, and the trace follows the most frequent direction of
//! each branch (the "instrumentation" is the continuously gathered
//! [`EdgeProfile`]).

use super::counters::CounterTable;
use super::profile::{EdgeProfile, majority_walk};
use super::{Arrival, RegionSelector};
use crate::cache::{CodeCache, Region};
use crate::config::SimConfig;
use rsel_program::{Addr, BlockId, Program};

/// The Wiggins/Redstone-style sampling selector. Its profile
/// double-counts taken branches; see [`EdgeProfile::record_arrival`].
#[derive(Debug)]
pub struct WigginsRedstoneSelector<'p> {
    program: &'p Program,
    sample_period: u64,
    sample_threshold: u32,
    max_trace_insts: usize,
    blocks_seen: u64,
    samples: CounterTable,
    profile: EdgeProfile,
}

impl<'p> WigginsRedstoneSelector<'p> {
    /// Creates a Wiggins/Redstone selector over `program`.
    pub fn new(program: &'p Program, config: &SimConfig) -> Self {
        WigginsRedstoneSelector {
            program,
            sample_period: config.wr_sample_period,
            sample_threshold: config.wr_sample_threshold,
            max_trace_insts: config.max_trace_insts,
            blocks_seen: 0,
            samples: CounterTable::new(program.blocks().len()),
            profile: EdgeProfile::new(program.blocks().len()),
        }
    }
}

impl RegionSelector for WigginsRedstoneSelector<'_> {
    fn on_transfer(
        &mut self,
        _cache: &CodeCache,
        _src: Addr,
        src_block: BlockId,
        tgt: Addr,
        _tgt_block: BlockId,
        taken: bool,
    ) -> Vec<Region> {
        self.profile.record(self.program, src_block, tgt, taken);
        Vec::new()
    }

    fn on_arrival(&mut self, _: &CodeCache, a: Arrival) -> Vec<Region> {
        self.profile.record_arrival(self.program, a);
        Vec::new()
    }

    fn on_block(&mut self, cache: &CodeCache, _start: Addr, block: BlockId) -> Vec<Region> {
        self.blocks_seen += 1;
        if !self.blocks_seen.is_multiple_of(self.sample_period) {
            return Vec::new();
        }
        // A PC sample landed on this block.
        let b = block.index();
        let c = self.samples.increment(b);
        if c < self.sample_threshold || cache.lookup_block(b).is_some() {
            return Vec::new();
        }
        self.samples.recycle(b);
        let blocks = majority_walk(
            self.program,
            cache,
            &self.profile,
            block,
            self.max_trace_insts,
        );
        if blocks.is_empty() {
            return Vec::new();
        }
        vec![Region::trace(self.program, &blocks)]
    }

    fn on_fault(&mut self, fault: super::CounterFault) {
        self.samples.apply_fault(fault);
    }

    fn counters_in_use(&self) -> usize {
        self.samples.in_use()
    }

    fn peak_counters(&self) -> usize {
        self.samples.peak()
    }

    fn name(&self) -> &'static str {
        "Wiggins/Redstone"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use rsel_program::Executor;
    use rsel_program::patterns::ScenarioBuilder;

    #[test]
    fn sampling_finds_the_hot_loop() {
        let mut s = ScenarioBuilder::new(4);
        let f = s.function("main", 0x1000);
        let lp = s.counted_loop(f, 3, 100_000);
        s.ret_from(f, lp.exit);
        let (p, spec) = s.build().unwrap();
        let config = SimConfig::default();
        let mut sim = Simulator::new(
            &p,
            Box::new(WigginsRedstoneSelector::new(&p, &config)) as Box<dyn RegionSelector + Send>,
            &config,
        );
        sim.run(Executor::new(&p, spec));
        let rep = sim.report();
        assert!(rep.region_count() >= 1, "sampling selected the loop");
        assert!(rep.hit_rate() > 0.9, "hit rate {:.3}", rep.hit_rate());
    }

    #[test]
    fn cold_code_is_never_sampled_to_selection() {
        // A short run never accumulates enough samples anywhere.
        let mut s = ScenarioBuilder::new(4);
        let f = s.function("main", 0x1000);
        let lp = s.counted_loop(f, 3, 50);
        s.ret_from(f, lp.exit);
        let (p, spec) = s.build().unwrap();
        let config = SimConfig::default();
        let mut sim = Simulator::new(
            &p,
            Box::new(WigginsRedstoneSelector::new(&p, &config)) as Box<dyn RegionSelector + Send>,
            &config,
        );
        sim.run(Executor::new(&p, spec));
        assert_eq!(sim.report().region_count(), 0);
    }
}
