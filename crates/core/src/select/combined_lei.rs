//! Trace combination over LEI (paper §4, "combined LEI").

use super::lei::{CycleDetector, TraceMarks, form_lei_trace};
use super::observe::ObservationStore;
use super::region_cfg::combine_traces;
use super::{Arrival, RegionSelector};
use crate::cache::{CodeCache, Region};
use crate::config::SimConfig;
use rsel_program::Program;
use rsel_trace::AddrWidth;

/// LEI with trace combination.
///
/// Profiling begins at `T_start = lei_threshold − T_prof` cycle
/// completions. Each completion past `T_start` reconstructs the
/// just-executed cyclic path from the history buffer (an observed
/// trace, charged at its compact size); at `T_start + T_prof` the
/// stored traces are combined into one multi-path region. Because LEI
/// forms its observed traces instantly from the buffer, combination
/// happens the moment the final cycle completes — there is no
/// in-flight observation window as with NET.
#[derive(Debug)]
pub struct CombinedLeiSelector<'p> {
    program: &'p Program,
    t_start: u32,
    t_prof: u32,
    t_min: u32,
    width: AddrWidth,
    cycles: CycleDetector,
    marks: TraceMarks,
    store: ObservationStore,
}

impl<'p> CombinedLeiSelector<'p> {
    /// Creates a combined-LEI selector over `program`.
    pub fn new(program: &'p Program, config: &SimConfig) -> Self {
        CombinedLeiSelector {
            program,
            t_start: config.lei_t_start(),
            t_prof: config.t_prof,
            t_min: config.t_min,
            width: config.addr_width,
            cycles: CycleDetector::new(config.history_size, program.blocks().len()),
            marks: TraceMarks::new(),
            store: ObservationStore::new(),
        }
    }
}

impl RegionSelector for CombinedLeiSelector<'_> {
    fn on_arrival(&mut self, cache: &CodeCache, a: Arrival) -> Vec<Region> {
        // Releasing a counter also releases the target's stranded
        // observed traces.
        let (released, completed) = self.cycles.arrive(a);
        if let Some(gone) = released {
            let _ = self.store.take(gone);
        }
        let Some((old_seq, c)) = completed.filter(|&(_, c)| c > self.t_start) else {
            return Vec::new();
        };
        // Observe the just-executed cycle (Figure 13, line 8: "form a
        // trace t beginning at dest; store COMPACT-TRACE(t)").
        let buf = self.cycles.history();
        let formed = form_lei_trace(
            self.program,
            cache,
            buf,
            a.tgt,
            old_seq,
            &mut self.marks,
            self.width,
        );
        if let Some(t) = formed {
            self.store.add(self.program, a.tgt, t.blocks, &t.compact);
        }
        if c < self.t_start + self.t_prof {
            return Vec::new();
        }
        // Final observation: combine.
        for gone in self.cycles.complete(a.tgt_block, old_seq) {
            let _ = self.store.take(gone);
        }
        let paths = self.store.take(a.tgt);
        if paths.is_empty() {
            return Vec::new();
        }
        vec![combine_traces(self.program, a.tgt, &paths, self.t_min)]
    }

    fn on_fault(&mut self, fault: super::CounterFault) {
        self.cycles.apply_fault(fault);
    }

    fn counters_in_use(&self) -> usize {
        self.cycles.counters().in_use()
    }

    fn peak_counters(&self) -> usize {
        self.cycles.counters().peak()
    }

    fn observed_bytes(&self) -> usize {
        self.store.bytes()
    }

    fn peak_observed_bytes(&self) -> usize {
        self.store.peak_bytes()
    }

    fn name(&self) -> &'static str {
        "combined LEI"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::arrival;
    use rsel_program::{Addr, ProgramBuilder};

    /// Loop with a diamond: S(cond->T) ; F ; T ; J ; back(cond->S) ; X.
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
        b.cond_branch(back, s);
        b.ret(x);
        let p = b.build().unwrap();
        let addrs = [s, fall, taken, j, back, x]
            .iter()
            .map(|&id| p.block(id).start())
            .collect();
        (p, addrs)
    }

    /// Drives the selector through `n` loop iterations, alternating the
    /// diamond direction.
    fn run_iterations(
        sel: &mut CombinedLeiSelector<'_>,
        cache: &CodeCache,
        p: &Program,
        a: &[Addr],
        start: usize,
        n: usize,
    ) -> Vec<Region> {
        let term = |addr: Addr| p.block_at(addr).unwrap().terminator().addr();
        let mut out = Vec::new();
        for i in start..start + n {
            // back -> S backward taken branch completes the cycle.
            out.extend(sel.on_arrival(cache, arrival(p, Some(term(a[4])), a[0], true, false)));
            if i % 2 == 0 {
                // S takes its branch to T.
                out.extend(sel.on_arrival(cache, arrival(p, Some(term(a[0])), a[2], true, false)));
            } else {
                // S falls to F, which jumps to J.
                out.extend(sel.on_arrival(cache, arrival(p, Some(term(a[1])), a[3], true, false)));
            }
        }
        out
    }

    fn config() -> SimConfig {
        SimConfig {
            lei_threshold: 7,
            t_prof: 4,
            t_min: 2,
            ..SimConfig::default()
        }
    }

    #[test]
    fn combines_both_sides_of_the_diamond() {
        let (p, a) = diamond_loop();
        let cfg = config();
        assert_eq!(cfg.lei_t_start(), 3);
        let mut sel = CombinedLeiSelector::new(&p, &cfg);
        let cache = CodeCache::new();
        // Drive iterations until the first combined region appears (in
        // the real simulator the cache hit would then stop profiling).
        let mut regions = Vec::new();
        for i in 0..30 {
            regions = run_iterations(&mut sel, &cache, &p, &a, i, 1);
            if !regions.is_empty() {
                break;
            }
        }
        assert_eq!(regions.len(), 1);
        let r = &regions[0];
        assert_eq!(r.entry(), a[0]);
        assert!(
            r.contains_block(a[2]) && r.contains_block(a[1]),
            "both sides kept"
        );
        assert!(r.spans_cycle());
        assert_eq!(sel.observed_bytes(), 0, "storage released after combine");
        assert!(sel.peak_observed_bytes() > 0);
    }

    #[test]
    fn no_region_before_threshold() {
        let (p, a) = diamond_loop();
        let mut sel = CombinedLeiSelector::new(&p, &config());
        let cache = CodeCache::new();
        // Threshold 7: first cycle completes on iteration 2, so fewer
        // than 8 iterations cannot select.
        let regions = run_iterations(&mut sel, &cache, &p, &a, 0, 7);
        assert!(regions.is_empty());
    }

    #[test]
    fn observations_accumulate_after_t_start() {
        let (p, a) = diamond_loop();
        let mut sel = CombinedLeiSelector::new(&p, &config());
        let cache = CodeCache::new();
        run_iterations(&mut sel, &cache, &p, &a, 0, 6);
        // Counter reaches 5 => two observations stored (c = 4, 5).
        assert!(sel.observed_bytes() > 0);
        assert_eq!(sel.counters_in_use(), 1);
    }

    #[test]
    fn eviction_releases_the_counter_and_its_observations() {
        let (p, a) = diamond_loop();
        let cfg = SimConfig {
            history_size: 4,
            ..config()
        };
        let mut sel = CombinedLeiSelector::new(&p, &cfg);
        let cache = CodeCache::new();
        run_iterations(&mut sel, &cache, &p, &a, 0, 6);
        assert!(sel.observed_bytes() > 0, "S was counted past T_start");
        assert_eq!(sel.counters_in_use(), 1);
        // Four forward branches to other targets evict every buffered
        // occurrence of S.
        let src = Addr::new(0x10);
        for tgt in [a[1], a[2], a[3], a[5]] {
            sel.on_arrival(&cache, arrival(&p, Some(src), tgt, true, false));
        }
        assert_eq!(sel.counters_in_use(), 0, "S's counter is released");
        assert_eq!(sel.observed_bytes(), 0, "S's observations are dropped");
        assert!(sel.peak_observed_bytes() > 0);
    }
}
