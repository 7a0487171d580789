//! ADORE's trace selection (paper §5).
//!
//! "ADORE is a transparent optimization system developed at the
//! University of Minnesota that uses performance counters built into
//! the target processor. Specifically, it samples registers from the
//! performance monitoring unit of the Intel Itanium 2 in order to
//! detect the four most recently taken branches. When a set of four
//! branches occurs frequently, the corresponding path is selected and
//! linked with other frequent paths to form a trace. Besides being
//! hardware-based and processor-specific, the main difference between
//! this algorithm and others discussed is that frequent branch targets
//! are identified by random sampling."
//!
//! The model: a sliding window of the four most recent interpreted
//! taken branches stands in for the PMU's branch trace buffer; every
//! `adore_sample_period`-th taken branch the window is sampled, and a
//! four-branch path seen `adore_path_threshold` times is materialized
//! into a trace with the shared FORM-TRACE walk.

use super::lei::{TraceMarks, form_trace_from_branches};
use super::{Arrival, RegionSelector};
use crate::cache::{CodeCache, Region};
use crate::config::SimConfig;
use crate::fxhash::FxHashMap;
use rsel_program::{Addr, BlockId, Program};
use rsel_trace::AddrWidth;
use std::collections::VecDeque;

/// The ADORE-style sampling selector.
#[derive(Debug)]
pub struct AdoreSelector<'p> {
    program: &'p Program,
    sample_period: u64,
    path_threshold: u32,
    width: AddrWidth,
    /// The four most recent taken branches, each with its target's
    /// block.
    recent: VecDeque<((Addr, Addr), BlockId)>,
    taken_seen: u64,
    path_counts: FxHashMap<[(Addr, Addr); 4], u32>,
    peak_paths: usize,
    marks: TraceMarks,
}

impl<'p> AdoreSelector<'p> {
    /// Creates an ADORE selector over `program`.
    pub fn new(program: &'p Program, config: &SimConfig) -> Self {
        AdoreSelector {
            program,
            sample_period: config.adore_sample_period,
            path_threshold: config.adore_path_threshold,
            width: config.addr_width,
            recent: VecDeque::with_capacity(4),
            taken_seen: 0,
            path_counts: FxHashMap::default(),
            peak_paths: 0,
            marks: TraceMarks::new(),
        }
    }
}

impl RegionSelector for AdoreSelector<'_> {
    fn on_arrival(&mut self, cache: &CodeCache, a: Arrival) -> Vec<Region> {
        if !a.taken {
            return Vec::new();
        }
        let Some(src) = a.src else { return Vec::new() };
        if self.recent.len() == 4 {
            self.recent.pop_front();
        }
        self.recent.push_back(((src, a.tgt), a.tgt_block));
        self.taken_seen += 1;
        if !self.taken_seen.is_multiple_of(self.sample_period) || self.recent.len() < 4 {
            return Vec::new();
        }
        // PMU sample: the four most recently taken branches.
        let mut key = [(Addr::NULL, Addr::NULL); 4];
        for (slot, &(b, _)) in key.iter_mut().zip(self.recent.iter()) {
            *slot = b;
        }
        // The path starts at the target of the oldest sampled branch.
        let entry = key[0].1;
        if cache.lookup_block(self.recent[0].1.index()).is_some() {
            return Vec::new();
        }
        let c = self.path_counts.entry(key).or_insert(0);
        *c = c.saturating_add(1);
        let hot = *c >= self.path_threshold;
        self.peak_paths = self.peak_paths.max(self.path_counts.len());
        if !hot {
            return Vec::new();
        }
        self.path_counts.remove(&key);
        // The path spans from the oldest branch's target across the
        // remaining three branches.
        let tail = key[1..].iter().copied();
        match form_trace_from_branches(
            self.program,
            cache,
            entry,
            tail,
            &mut self.marks,
            self.width,
        ) {
            Some(t) => vec![Region::trace(self.program, &t.blocks)],
            None => Vec::new(),
        }
    }

    fn on_fault(&mut self, fault: super::CounterFault) {
        match fault {
            super::CounterFault::Saturate => {
                self.path_counts.values_mut().for_each(|c| *c = u32::MAX)
            }
            super::CounterFault::Reset => self.path_counts.clear(),
        }
    }

    fn counters_in_use(&self) -> usize {
        self.path_counts.len()
    }

    fn peak_counters(&self) -> usize {
        self.peak_paths
    }

    fn name(&self) -> &'static str {
        "ADORE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use rsel_program::Executor;
    use rsel_program::patterns::ScenarioBuilder;

    #[test]
    fn sampled_paths_become_traces_on_a_hot_loop() {
        let mut s = ScenarioBuilder::new(6);
        let f = s.function("main", 0x1000);
        let head = s.block(f, 2);
        let mid = s.block(f, 1);
        s.branch_trips(mid, head, 4); // small inner loop
        let latch = s.block(f, 1);
        s.branch_trips(latch, head, 200_000);
        let out = s.block(f, 0);
        s.ret(out);
        let (p, spec) = s.build().unwrap();
        let config = SimConfig::default();
        let mut sim = Simulator::new(
            &p,
            Box::new(AdoreSelector::new(&p, &config)) as Box<dyn RegionSelector + Send>,
            &config,
        );
        sim.run(Executor::new(&p, spec));
        let rep = sim.report();
        assert!(rep.region_count() >= 1, "sampling found the loop path");
        assert!(rep.hit_rate() > 0.8, "hit rate {:.3}", rep.hit_rate());
    }

    #[test]
    fn no_selection_without_enough_samples() {
        let mut s = ScenarioBuilder::new(6);
        let f = s.function("main", 0x1000);
        let lp = s.counted_loop(f, 2, 100);
        s.ret_from(f, lp.exit);
        let (p, spec) = s.build().unwrap();
        let config = SimConfig::default();
        let mut sel = AdoreSelector::new(&p, &config);
        {
            let mut sim = Simulator::new(
                &p,
                Box::new(AdoreSelector::new(&p, &config)) as Box<dyn RegionSelector + Send>,
                &config,
            );
            sim.run(Executor::new(&p, spec));
            assert_eq!(sim.report().region_count(), 0);
        }
        assert_eq!(sel.path_counts.len(), 0);
        let _ = &mut sel;
    }
}
