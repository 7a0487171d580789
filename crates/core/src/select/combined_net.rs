//! Trace combination over NET (paper §4, "combined NET").

use super::counters::CounterTable;
use super::form::{GrownTrace, TraceGrower};
use super::observe::ObservationStore;
use super::region_cfg::combine_traces;
use super::{Arrival, RegionSelector};
use crate::cache::{CodeCache, Region};
use crate::config::SimConfig;
use rsel_program::{Addr, BlockId, Program};
use rsel_trace::AddrWidth;

/// NET with trace combination (paper Figure 13).
///
/// Profiling begins at `T_start = net_threshold − T_prof`, so a region
/// is still selected after the same 50 interpreted executions as plain
/// NET. Each execution past `T_start` grows one *observed* trace (a
/// next-executing tail, charged at its compact size and not inserted
/// into the cache); when the `T_prof`-th observation completes, the
/// observed traces are combined into a single multi-path region.
#[derive(Debug)]
pub struct CombinedNetSelector<'p> {
    program: &'p Program,
    t_start: u32,
    t_prof: u32,
    t_min: u32,
    max_insts: usize,
    width: AddrWidth,
    counters: CounterTable,
    observers: Vec<TraceGrower>,
    /// Per program block: whether the target starting it combines when
    /// its in-flight observation completes.
    combine_on_complete: Vec<bool>,
    store: ObservationStore,
}

impl<'p> CombinedNetSelector<'p> {
    /// Creates a combined-NET selector over `program`.
    pub fn new(program: &'p Program, config: &SimConfig) -> Self {
        CombinedNetSelector {
            program,
            t_start: config.net_t_start(),
            t_prof: config.t_prof,
            t_min: config.t_min,
            max_insts: config.max_trace_insts,
            width: config.addr_width,
            counters: CounterTable::new(program.blocks().len()),
            observers: Vec::new(),
            combine_on_complete: vec![false; program.blocks().len()],
            store: ObservationStore::new(),
        }
    }

    /// Feeds one event to every active observation, in start order,
    /// and handles the ones it completes in that order.
    fn feed_observers(
        &mut self,
        mut feed: impl FnMut(&mut TraceGrower) -> Option<GrownTrace>,
    ) -> Vec<Region> {
        if self.observers.is_empty() {
            return Vec::new();
        }
        let mut done = Vec::new();
        self.observers.retain_mut(|g| match feed(g) {
            Some(t) => {
                done.push((g.entry_block(), t));
                false
            }
            None => true,
        });
        done.into_iter()
            .filter_map(|(e, t)| self.observation_done(e, t))
            .collect()
    }

    /// Handles one completed observation of the target starting block
    /// `entry`; returns the combined region when this completion was
    /// the target's last.
    fn observation_done(&mut self, entry: BlockId, trace: GrownTrace) -> Option<Region> {
        let addr = self.program.block(entry).start();
        self.store
            .add(self.program, addr, trace.blocks, &trace.compact);
        if !std::mem::take(&mut self.combine_on_complete[entry.index()]) {
            return None;
        }
        let paths = self.store.take(addr);
        Some(combine_traces(self.program, addr, &paths, self.t_min))
    }
}

impl RegionSelector for CombinedNetSelector<'_> {
    fn on_transfer(
        &mut self,
        cache: &CodeCache,
        src: Addr,
        _src_block: BlockId,
        tgt: Addr,
        tgt_block: BlockId,
        taken: bool,
    ) -> Vec<Region> {
        self.feed_observers(|g| g.feed_transfer(cache, src, tgt, tgt_block, taken))
    }

    fn on_arrival(&mut self, _cache: &CodeCache, a: Arrival) -> Vec<Region> {
        let backward = a.taken && a.src.is_some_and(|s| a.tgt.is_backward_from(s));
        if !(backward || a.from_cache_exit) {
            return Vec::new();
        }
        let b = a.tgt_block.index();
        if self.combine_on_complete[b] {
            // Combination already scheduled; stop counting.
            return Vec::new();
        }
        let c = self.counters.increment(b);
        if c <= self.t_start {
            return Vec::new();
        }
        if c >= self.t_start + self.t_prof {
            self.counters.recycle(b);
            self.combine_on_complete[b] = true;
        }
        if !self
            .observers
            .iter()
            .any(|g| g.entry_block() == a.tgt_block)
        {
            self.observers.push(TraceGrower::new(
                self.program,
                a.tgt_block,
                self.max_insts,
                self.width,
            ));
        }
        Vec::new()
    }

    fn on_block(&mut self, _cache: &CodeCache, _start: Addr, block: BlockId) -> Vec<Region> {
        let program = self.program;
        self.feed_observers(|g| g.feed_block(program, block))
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

    fn observed_bytes(&self) -> usize {
        self.store.bytes()
    }

    fn peak_observed_bytes(&self) -> usize {
        self.store.peak_bytes()
    }

    fn name(&self) -> &'static str {
        "combined NET"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::arrival;
    use rsel_program::ProgramBuilder;

    /// S(cond->T) ; F ; T ; J ; back(cond->S) ; X(ret); F jumps to J.
    fn diamond_loop() -> (Program, Vec<Addr>) {
        let mut b = ProgramBuilder::new();
        let f = b.function("f", 0x100);
        let s = b.block(f);
        let fall = b.block(f);
        let taken = b.block(f);
        let j = b.block(f);
        let back = b.block(f);
        let x = b.block_with(f, 0);
        b.cond_branch(s, taken);
        b.jump(fall, j);
        // taken falls into j; j falls into back
        b.cond_branch(back, s);
        b.ret(x);
        let p = b.build().unwrap();
        let addrs = [s, fall, taken, j, back, x]
            .iter()
            .map(|&id| p.block(id).start())
            .collect();
        (p, addrs)
    }

    /// Drives taken/fall alternating iterations of the loop through the
    /// selector, mimicking the simulator's event order.
    fn run_iterations(
        sel: &mut CombinedNetSelector<'_>,
        cache: &CodeCache,
        p: &Program,
        a: &[Addr],
        start: usize,
        n: usize,
    ) -> Vec<Region> {
        let term = |addr: Addr| p.block_at(addr).unwrap().terminator().addr();
        let id = |addr: Addr| p.block_at(addr).unwrap().id();
        let mut out = Vec::new();
        for i in start..start + n {
            let take = i % 2 == 0;
            // back -> S (backward taken): arrival then blocks.
            out.extend(sel.on_transfer(cache, term(a[4]), id(a[4]), a[0], id(a[0]), true));
            out.extend(sel.on_arrival(cache, arrival(p, Some(term(a[4])), a[0], true, false)));
            out.extend(sel.on_block(cache, a[0], id(a[0])));
            if take {
                out.extend(sel.on_transfer(cache, term(a[0]), id(a[0]), a[2], id(a[2]), true));
                out.extend(sel.on_block(cache, a[2], id(a[2])));
                out.extend(sel.on_transfer(cache, term(a[2]), id(a[2]), a[3], id(a[3]), false));
            } else {
                out.extend(sel.on_transfer(cache, term(a[0]), id(a[0]), a[1], id(a[1]), false));
                out.extend(sel.on_block(cache, a[1], id(a[1])));
                out.extend(sel.on_transfer(cache, term(a[1]), id(a[1]), a[3], id(a[3]), true));
            }
            out.extend(sel.on_block(cache, a[3], id(a[3])));
            out.extend(sel.on_transfer(cache, term(a[3]), id(a[3]), a[4], id(a[4]), false));
            out.extend(sel.on_block(cache, a[4], id(a[4])));
        }
        out
    }

    fn config() -> SimConfig {
        SimConfig {
            net_threshold: 8,
            t_prof: 4,
            t_min: 2,
            ..SimConfig::default()
        }
    }

    #[test]
    fn observes_then_combines_both_sides() {
        let (p, a) = diamond_loop();
        let cfg = config();
        assert_eq!(cfg.net_t_start(), 4);
        let mut sel = CombinedNetSelector::new(&p, &cfg);
        let cache = CodeCache::new();
        // Drive iterations until the first combined region appears (in
        // the real simulator the cache hit would then stop profiling).
        let mut regions = Vec::new();
        for i in 0..20 {
            regions = run_iterations(&mut sel, &cache, &p, &a, i, 1);
            if !regions.is_empty() {
                break;
            }
        }
        assert_eq!(regions.len(), 1, "exactly one combined region for S");
        let r = &regions[0];
        assert_eq!(r.entry(), a[0]);
        // Both diamond sides were observed in >= t_min traces.
        assert!(r.contains_block(a[1]), "fall side kept");
        assert!(r.contains_block(a[2]), "taken side kept");
        assert!(r.contains_block(a[3]) && r.contains_block(a[4]));
        assert!(r.spans_cycle(), "back edge to S promoted to internal edge");
        // After combination, storage for S is released.
        assert_eq!(sel.observed_bytes(), 0);
        assert!(sel.peak_observed_bytes() > 0);
        // The same iteration's arrival may have restarted S's counter
        // after the combination fired; nothing else is profiled.
        assert!(sel.counters_in_use() <= 1);
    }

    #[test]
    fn no_observation_before_t_start() {
        let (p, a) = diamond_loop();
        let mut sel = CombinedNetSelector::new(&p, &config());
        let cache = CodeCache::new();
        run_iterations(&mut sel, &cache, &p, &a, 0, 4);
        assert_eq!(sel.observers.len(), 0);
        assert_eq!(sel.peak_observed_bytes(), 0);
    }

    #[test]
    fn observation_starts_after_t_start() {
        let (p, a) = diamond_loop();
        let mut sel = CombinedNetSelector::new(&p, &config());
        let cache = CodeCache::new();
        run_iterations(&mut sel, &cache, &p, &a, 0, 5);
        // The 5th backward arrival pushes the counter past T_start = 4.
        assert!(!sel.observers.is_empty() || sel.peak_observed_bytes() > 0);
    }
}
