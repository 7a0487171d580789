//! Next-Executing Tail (NET) trace selection — the Dynamo baseline —
//! and Mojo's variant of it (paper §5).

use super::counters::CounterTable;
use super::form::TraceGrower;
use super::{Arrival, RegionSelector};
use crate::cache::{CodeCache, Region};
use crate::config::SimConfig;
use rsel_program::{Addr, BlockId, Program};
use rsel_trace::AddrWidth;

/// The NET selector of Duesterwald and Bala, as used by Dynamo,
/// DynamoRIO and Mojo (paper §2.1).
///
/// A counter is associated with the target of every taken *backward*
/// branch and with the target of every exit from the code cache. When a
/// counter reaches the execution threshold (50 by default), the counter
/// is recycled and a trace is selected by interpreting and copying the
/// path that executes next (see [`TraceGrower`]).
///
/// Mojo ([`NetSelector::mojo`]) is the same selector with a second,
/// lower threshold for addresses known as code-cache exit targets.
#[derive(Debug)]
pub struct NetSelector<'p> {
    program: &'p Program,
    name: &'static str,
    threshold: u32,
    exit_threshold: u32,
    max_trace_insts: usize,
    width: AddrWidth,
    counters: CounterTable,
    /// Per program block: whether a code-cache exit ever landed at its
    /// start, which keeps the exit threshold for the rest of the run;
    /// recorded (and sized) only when the two thresholds differ.
    exit_targets: Vec<bool>,
    grower: Option<TraceGrower>,
}

impl<'p> NetSelector<'p> {
    /// Creates a NET selector over `program`.
    pub fn new(program: &'p Program, config: &SimConfig) -> Self {
        NetSelector {
            program,
            name: "NET",
            threshold: config.net_threshold,
            exit_threshold: config.net_threshold,
            max_trace_insts: config.max_trace_insts,
            width: config.addr_width,
            counters: CounterTable::new(program.blocks().len()),
            exit_targets: Vec::new(),
            grower: None,
        }
    }

    /// Creates a Mojo selector over `program`: NET whose exit targets
    /// count to `mojo_exit_threshold` instead of `net_threshold`.
    ///
    /// Mojo is Microsoft's transparent optimization system for Windows,
    /// "very similar to Dynamo. One main difference is that it uses one
    /// threshold for backward-branch targets and a lower threshold for
    /// trace exits. The authors claim that this lower threshold reduces
    /// the impact of the rare case where the next-executing trace is a
    /// cold path. In terms of our analysis, having a lower threshold
    /// for exit targets also reduces the separation between related hot
    /// traces. However, this approach still does not allow the related
    /// traces to be optimized together."
    pub fn mojo(program: &'p Program, config: &SimConfig) -> Self {
        let mut mojo = NetSelector {
            name: "Mojo",
            exit_threshold: config.mojo_exit_threshold,
            ..NetSelector::new(program, config)
        };
        if mojo.exit_threshold != mojo.threshold {
            mojo.exit_targets = vec![false; program.blocks().len()];
        }
        mojo
    }
}

impl RegionSelector for NetSelector<'_> {
    fn on_transfer(
        &mut self,
        cache: &CodeCache,
        src: Addr,
        _src_block: BlockId,
        tgt: Addr,
        tgt_block: BlockId,
        taken: bool,
    ) -> Vec<Region> {
        let Some(g) = self.grower.as_mut() else {
            return Vec::new();
        };
        match g.feed_transfer(cache, src, tgt, tgt_block, taken) {
            Some(t) => {
                self.grower = None;
                vec![Region::trace(self.program, &t.blocks)]
            }
            None => Vec::new(),
        }
    }

    fn on_arrival(&mut self, _cache: &CodeCache, a: Arrival) -> Vec<Region> {
        let split = self.exit_threshold != self.threshold;
        let b = a.tgt_block.index();
        if split && a.from_cache_exit {
            self.exit_targets[b] = true;
        }
        // Profile targets of backward taken branches and of code-cache
        // exits.
        let backward = a.taken && a.src.is_some_and(|s| a.tgt.is_backward_from(s));
        if !(backward || a.from_cache_exit) {
            return Vec::new();
        }
        let c = self.counters.increment(b);
        let threshold = if split && self.exit_targets[b] {
            self.exit_threshold
        } else {
            self.threshold
        };
        if c >= threshold && self.grower.is_none() {
            self.counters.recycle(b);
            self.grower = Some(TraceGrower::new(
                self.program,
                a.tgt_block,
                self.max_trace_insts,
                self.width,
            ));
        }
        Vec::new()
    }

    fn on_block(&mut self, _cache: &CodeCache, _start: Addr, block: BlockId) -> Vec<Region> {
        let Some(g) = self.grower.as_mut() else {
            return Vec::new();
        };
        match g.feed_block(self.program, block) {
            Some(t) => {
                self.grower = None;
                vec![Region::trace(self.program, &t.blocks)]
            }
            None => Vec::new(),
        }
    }

    fn on_fault(&mut self, fault: super::CounterFault) {
        self.counters.apply_fault(fault);
    }

    fn counters_in_use(&self) -> usize {
        self.counters.in_use()
    }

    fn peak_counters(&self) -> usize {
        self.counters.peak()
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::arrival;
    use rsel_program::ProgramBuilder;

    fn program() -> Program {
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

    fn cfg() -> SimConfig {
        SimConfig {
            net_threshold: 3,
            ..SimConfig::default()
        }
    }

    #[test]
    fn forward_branches_are_not_profiled() {
        let p = program();
        let mut net = NetSelector::new(&p, &cfg());
        let cache = CodeCache::new();
        let lo = Addr::new(0x10);
        let hi = p.blocks()[2].start();
        for _ in 0..10 {
            net.on_arrival(&cache, arrival(&p, Some(lo), hi, true, false));
        }
        assert_eq!(net.counters_in_use(), 0);
        assert!(net.grower.is_none());
    }

    #[test]
    fn backward_target_reaches_threshold_and_grows() {
        let p = program();
        let mut net = NetSelector::new(&p, &cfg());
        let cache = CodeCache::new();
        let a = p.blocks()[0].start();
        let src = p.blocks()[0].terminator().addr();
        for i in 1..=3u32 {
            net.on_arrival(&cache, arrival(&p, Some(src), a, true, false));
            assert_eq!(net.grower.is_some(), i == 3);
        }
        // Counter recycled when growth starts.
        assert_eq!(net.counters_in_use(), 0);
        // Growth: block A executes, then its backward self-branch ends
        // the trace.
        let ab = p.blocks()[0].id();
        assert!(net.on_block(&cache, a, ab).is_empty());
        let regions = net.on_transfer(&cache, src, ab, a, ab, true);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].entry(), a);
        assert!(regions[0].spans_cycle());
        assert!(net.grower.is_none());
    }

    #[test]
    fn cache_exit_targets_are_profiled() {
        let p = program();
        let mut net = NetSelector::new(&p, &cfg());
        let cache = CodeCache::new();
        let d = p.blocks()[2].start();
        for _ in 0..2 {
            net.on_arrival(&cache, arrival(&p, None, d, false, true));
        }
        assert_eq!(net.counters_in_use(), 1);
        net.on_arrival(&cache, arrival(&p, None, d, false, true));
        assert!(net.grower.is_some(), "third exit landing reaches threshold");
    }

    #[test]
    fn only_one_trace_grows_at_a_time() {
        let p = program();
        let mut net = NetSelector::new(&p, &cfg());
        let cache = CodeCache::new();
        let a = p.blocks()[0].start();
        let c = p.blocks()[1].start();
        let src = Addr::new(0x500);
        for _ in 0..3 {
            net.on_arrival(&cache, arrival(&p, Some(src), a, true, false));
        }
        assert!(net.grower.is_some());
        // Another target reaching threshold while growing does not
        // start a second grower (and keeps its counter).
        for _ in 0..4 {
            net.on_arrival(&cache, arrival(&p, Some(src), c, true, false));
        }
        assert_eq!(net.counters_in_use(), 1);
        // `a`'s counter was recycled before `c`'s was created, so at
        // most one counter ever existed at a time.
        assert_eq!(net.peak_counters(), 1);
    }

    fn mojo_cfg() -> SimConfig {
        SimConfig {
            net_threshold: 10,
            mojo_exit_threshold: 3,
            ..SimConfig::default()
        }
    }

    #[test]
    fn exit_targets_use_the_lower_threshold() {
        let p = program();
        let mut mojo = NetSelector::mojo(&p, &mojo_cfg());
        let cache = CodeCache::new();
        let d = p.blocks()[2].start();
        for i in 1..=3u32 {
            mojo.on_arrival(&cache, arrival(&p, None, d, false, true));
            assert_eq!(
                mojo.grower.is_some(),
                i == 3,
                "exit threshold 3 fires on the third landing"
            );
        }
        assert_eq!(mojo.exit_targets.iter().filter(|&&e| e).count(), 1);
    }

    #[test]
    fn backward_targets_keep_the_full_threshold() {
        let p = program();
        let mut mojo = NetSelector::mojo(&p, &mojo_cfg());
        let cache = CodeCache::new();
        let a = p.blocks()[0].start();
        let src = p.blocks()[0].terminator().addr();
        let backward = arrival(&p, Some(src), a, true, false);
        for _ in 0..9 {
            mojo.on_arrival(&cache, backward);
        }
        assert!(
            mojo.grower.is_none(),
            "nine backward arrivals stay below 10"
        );
        mojo.on_arrival(&cache, backward);
        assert!(mojo.grower.is_some());
    }

    #[test]
    fn exit_classification_is_sticky() {
        let p = program();
        let mut mojo = NetSelector::mojo(&p, &mojo_cfg());
        let cache = CodeCache::new();
        let a = p.blocks()[0].start();
        let src = p.blocks()[0].terminator().addr();
        // One exit landing classifies `a` as an exit target...
        mojo.on_arrival(&cache, arrival(&p, Some(src), a, true, true));
        // ...so two more backward arrivals reach the lower threshold.
        for _ in 0..2 {
            mojo.on_arrival(&cache, arrival(&p, Some(src), a, true, false));
        }
        assert!(mojo.grower.is_some());
    }
}
