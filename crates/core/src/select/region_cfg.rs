//! Combining observed traces into a multi-path region
//! (paper §4.2.2, "Constructing the CFG", and Figure 13 lines 12–17).

use super::rejoin::mark_rejoining_paths;
use crate::cache::Region;
use crate::fxhash::FxHashMap;
use rsel_program::{Addr, Program};

/// The CFG built incrementally from a target's observed traces.
///
/// "Rather than representing all possible branches, the CFG for a region
/// represents only those branches taken in an observed trace" (§4.2.2).
/// Each block is annotated with the number of observed traces in which
/// it occurs. Blocks are numbered by slot in first-observed order, so
/// the entry is slot 0.
#[derive(Clone, Debug)]
pub struct ObservedCfg {
    nodes: Vec<Addr>,
    /// Per slot: successor slots in first-observed order.
    succs: Vec<Vec<usize>>,
    occurrences: Vec<u32>,
    trace_count: u32,
}

impl ObservedCfg {
    /// Builds the CFG by adding each observed trace's block path in
    /// turn.
    ///
    /// # Panics
    ///
    /// Panics if `paths` is empty or a path does not start at `entry`.
    pub fn build(entry: Addr, paths: &[Vec<Addr>]) -> Self {
        assert!(!paths.is_empty(), "combination needs observed traces");
        let mut nodes = Vec::new();
        let mut slots: FxHashMap<Addr, usize> = FxHashMap::default();
        let mut occurrences = Vec::new();
        let mut succs: Vec<Vec<usize>> = Vec::new();
        // Per node: the last trace it occurred in.
        let mut last_trace = Vec::new();
        for (k, path) in paths.iter().enumerate() {
            assert_eq!(
                path.first(),
                Some(&entry),
                "observed trace starts at the region entry"
            );
            let mut prev: Option<usize> = None;
            for &b in path {
                let s = *slots.entry(b).or_insert_with(|| {
                    nodes.push(b);
                    occurrences.push(0);
                    last_trace.push(usize::MAX);
                    succs.push(Vec::new());
                    nodes.len() - 1
                });
                if last_trace[s] != k {
                    last_trace[s] = k;
                    occurrences[s] += 1;
                }
                if let Some(p) = prev {
                    if !succs[p].contains(&s) {
                        succs[p].push(s);
                    }
                }
                prev = Some(s);
            }
        }
        ObservedCfg {
            nodes,
            succs,
            occurrences,
            trace_count: paths.len() as u32,
        }
    }

    /// Blocks in first-observed order (entry first), indexed by slot.
    pub fn nodes(&self) -> &[Addr] {
        &self.nodes
    }

    /// Observed edges: each slot's successor slots.
    pub fn succs(&self) -> &[Vec<usize>] {
        &self.succs
    }

    /// Per slot, the number of observed traces containing the block.
    pub fn occurrences(&self) -> &[u32] {
        &self.occurrences
    }

    /// Number of observed traces.
    pub fn trace_count(&self) -> u32 {
        self.trace_count
    }
}

/// Runs the full combination pipeline of Figure 13 (lines 12–17) over
/// the observed traces' block paths: build the CFG, mark blocks occurring in at least `t_min` traces,
/// mark rejoining paths, drop everything unmarked, promote exits that
/// target kept blocks, and build the region.
///
/// When fewer than `t_min` traces were observed (possible when
/// observation windows overlap and some are skipped), the cut-off is
/// lowered to the number of traces so that the entry — present in every
/// trace — is always kept.
pub fn combine_traces(program: &Program, entry: Addr, paths: &[Vec<Addr>], t_min: u32) -> Region {
    let cfg = ObservedCfg::build(entry, paths);
    let cut = t_min.min(cfg.trace_count());
    let initially_marked: Vec<bool> = cfg.occurrences().iter().map(|&n| n >= cut).collect();
    debug_assert!(
        initially_marked[0],
        "the entry occurs in every observed trace"
    );
    let marked = mark_rejoining_paths(cfg.succs(), initially_marked).marked;
    let nodes = cfg.nodes();
    let kept: Vec<Addr> = (0..nodes.len())
        .filter(|&s| marked[s])
        .map(|s| nodes[s])
        .collect();
    let mut edge_pairs: Vec<(Addr, Addr)> = Vec::new();
    for (from, succs) in cfg.succs().iter().enumerate() {
        if marked[from] {
            edge_pairs.extend(
                succs
                    .iter()
                    .filter(|&&to| marked[to])
                    .map(|&to| (nodes[from], nodes[to])),
            );
        }
    }
    // Region::combined lists each block's observed successors in the
    // order given; address order is the canonical one.
    edge_pairs.sort_unstable();
    Region::combined(program, &kept, &edge_pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsel_program::{BehaviorSpec, Executor, ProgramBuilder};
    use rsel_trace::{AddrWidth, TraceRecorder};

    /// The block path of a recorded trace.
    fn path(p: &Program, r: TraceRecorder, end: Addr) -> Vec<Addr> {
        r.finish(end).decode(p).unwrap().blocks
    }

    /// split S(cond->T) ; F(fall side) ; T(taken side) ; J(join) ; X(ret)
    /// F jumps to J; T falls into J.
    fn diamond() -> (Program, [Addr; 5]) {
        let mut b = ProgramBuilder::new();
        let f = b.function("f", 0x100);
        let s = b.block(f);
        let fall = b.block(f);
        let taken = b.block(f);
        let j = b.block(f);
        let x = b.block_with(f, 0);
        b.cond_branch(s, taken);
        b.jump(fall, j);
        // taken falls into j
        b.ret(x);
        let p = b.build().unwrap();
        let addr = |id| p.block(id).start();
        (
            p.clone(),
            [addr(s), addr(fall), addr(taken), addr(j), addr(x)],
        )
    }

    /// Records a trace through the diamond, taking or falling at S.
    fn observe(p: &Program, s: &[Addr; 5], take: bool) -> Vec<Addr> {
        let mut r = TraceRecorder::new(s[0], AddrWidth::W32);
        r.record_cond(take);
        // J's terminator is straight (falls into X); trace ends at J.
        let j_end = p.block_at(s[3]).unwrap().terminator().addr();
        path(p, r, j_end)
    }

    #[test]
    fn cfg_counts_occurrences_per_trace() {
        let (p, s) = diamond();
        let traces = vec![
            observe(&p, &s, true),
            observe(&p, &s, false),
            observe(&p, &s, true),
        ];
        let cfg = ObservedCfg::build(s[0], &traces);
        let occurrences = |a: Addr| {
            let slot = cfg.nodes().iter().position(|&n| n == a).unwrap();
            cfg.occurrences()[slot]
        };
        assert_eq!(occurrences(s[0]), 3);
        assert_eq!(occurrences(s[2]), 2); // taken side
        assert_eq!(occurrences(s[1]), 1); // fall side
        assert_eq!(occurrences(s[3]), 3); // join
        assert_eq!(cfg.trace_count(), 3);
        assert_eq!(cfg.nodes()[0], s[0]);
    }

    #[test]
    fn unbiased_branch_keeps_both_sides_without_duplication() {
        // Both sides occur >= t_min: the combined region is the whole
        // diamond, with no tail duplication (paper Figure 4's fix).
        let (p, s) = diamond();
        let traces = vec![
            observe(&p, &s, true),
            observe(&p, &s, false),
            observe(&p, &s, true),
            observe(&p, &s, false),
        ];
        let r = combine_traces(&p, s[0], &traces, 2);
        assert!(r.contains_block(s[1]) && r.contains_block(s[2]));
        assert!(r.contains_block(s[3]));
        // Join appears once: no duplication of D/F blocks as under NET.
        assert_eq!(r.blocks().len(), 4);
        // The only exit is J's fall-through to X.
        assert_eq!(r.stub_count(), 1);
        assert_eq!(r.stubs()[0].target, Some(s[4]));
    }

    #[test]
    fn dominant_path_stays_a_single_trace() {
        // "If there is a single dominant path from a branch target,
        // trace combination selects only that path" (§4.2).
        let (p, s) = diamond();
        let traces: Vec<Vec<Addr>> = (0..5).map(|_| observe(&p, &s, true)).collect();
        let r = combine_traces(&p, s[0], &traces, 2);
        assert!(r.contains_block(s[2]));
        assert!(!r.contains_block(s[1]), "never-taken side is excluded");
        assert_eq!(r.blocks().len(), 3);
    }

    #[test]
    fn rare_rejoining_path_is_kept() {
        // The fall side occurs once (< t_min) but rejoins the marked
        // join block, so it is kept (exit-dominated duplication fix).
        let (p, s) = diamond();
        let traces = vec![
            observe(&p, &s, true),
            observe(&p, &s, true),
            observe(&p, &s, true),
            observe(&p, &s, false),
        ];
        let r = combine_traces(&p, s[0], &traces, 3);
        assert!(r.contains_block(s[1]), "rejoining path kept");
        assert_eq!(r.blocks().len(), 4);
    }

    #[test]
    fn dead_end_rare_path_is_dropped() {
        // S(cond->T) ; F ; T... where F returns instead of rejoining.
        let mut b = ProgramBuilder::new();
        let f = b.function("f", 0x100);
        let sb = b.block(f);
        let fall = b.block_with(f, 0);
        let taken = b.block(f);
        let x = b.block_with(f, 0);
        b.cond_branch(sb, taken);
        b.ret(fall);
        // taken falls into x
        b.ret(x);
        let p = b.build().unwrap();
        let s0 = p.block(sb).start();
        let mk = |take: bool| {
            let mut r = TraceRecorder::new(s0, AddrWidth::W32);
            r.record_cond(take);
            let end = if take {
                p.block(x).terminator().addr()
            } else {
                p.block(fall).terminator().addr()
            };
            path(&p, r, end)
        };
        let traces = vec![mk(true), mk(true), mk(true), mk(false)];
        let r = combine_traces(&p, s0, &traces, 3);
        assert!(!r.contains_block(p.block(fall).start()));
        assert_eq!(r.blocks().len(), 3);
    }

    #[test]
    fn combined_region_replays_real_execution() {
        // Sanity: traces recorded from actual executor runs decode and
        // combine.
        let (p, s) = diamond();
        let mut spec = BehaviorSpec::new(3);
        let s_branch = p.block_at(s[0]).unwrap().terminator().addr();
        spec.bernoulli(s_branch, 0.5);
        let steps: Vec<_> = Executor::new(&p, spec).collect();
        assert!(steps.len() >= 4);
        let traces = vec![observe(&p, &s, true), observe(&p, &s, false)];
        let r = combine_traces(&p, s[0], &traces, 1);
        assert!(r.spans_cycle() || r.stub_count() >= 1);
    }
}
