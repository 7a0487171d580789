//! Last-Executed Iteration (LEI) trace selection (paper §3, Figures 5–6).

use super::counters::CounterTable;
use super::history::HistoryBuffer;
use super::{Arrival, RegionSelector};
use crate::cache::{CodeCache, Region};
use crate::config::SimConfig;
use crate::fxhash::FxHashSet;
use rsel_program::{Addr, InstKind, Instruction, Program};
use rsel_trace::{AddrWidth, CompactTrace, TraceRecorder};

/// A trace formed from the history buffer by FORM-TRACE (Figure 6).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FormedTrace {
    /// Block start addresses along the cyclic path, entry first.
    pub blocks: Vec<Addr>,
    /// Compact encoding of the path (used by combined LEI).
    pub compact: CompactTrace,
    /// Total instructions in the selected blocks.
    pub insts: usize,
}

/// Reconstructs the just-executed cyclic path from the history buffer
/// (paper Figure 6, FORM-TRACE).
///
/// Given the taken branches recorded after the previous occurrence of
/// `start`, the full path is rebuilt by appending the blocks on the
/// fall-through path from each branch target to the next branch source.
/// The trace ends when a block begins an existing region, when the path
/// returns to a block already in the trace (a cycle is complete), or —
/// a robustness addition for stale buffers — when the recorded branches
/// stop lining up with the program's blocks.
///
/// Returns `None` when no consistent non-empty path can be formed.
pub fn form_lei_trace(
    program: &Program,
    cache: &CodeCache,
    buf: &HistoryBuffer,
    start: Addr,
    old_seq: u64,
    width: AddrWidth,
) -> Option<FormedTrace> {
    let branches: Vec<(Addr, Addr)> = buf
        .branches_after(old_seq)
        .map(|e| (e.src, e.tgt))
        .collect();
    form_trace_from_branches(program, cache, start, &branches, width)
}

/// Reconstructs a trace from an explicit sequence of `(src, tgt)` taken
/// branches starting at `start` — the core of FORM-TRACE, shared by LEI
/// (whose branches come from the history buffer) and the ADORE model
/// (whose branches come from sampled four-branch paths).
///
/// The walk advances a basic block at a time: only block starts can
/// begin a cached region or be reached again by a cycle, and validated
/// blocks are contiguous runs of straight instructions ending in their
/// terminator. Every recorded transfer leaves a block terminator for a
/// block start. A transfer that does not — a source before its block's
/// terminator, or a target that starts no block — is treated like a
/// stale record: the trace ends at the last whole block appended.
pub fn form_trace_from_branches(
    program: &Program,
    cache: &CodeCache,
    start: Addr,
    branches: &[(Addr, Addr)],
    width: AddrWidth,
) -> Option<FormedTrace> {
    let mut blocks = Vec::new();
    let mut in_trace: FxHashSet<Addr> = FxHashSet::default();
    let mut insts = 0;
    let mut rec = TraceRecorder::new(start, width);
    let mut prev = start;
    let mut last_inst = start;
    'branches: for &(branch_src, branch_tgt) in branches {
        let mut cur = prev;
        loop {
            // Stop if the next block begins an existing trace (Figure 6,
            // line 7) or completes a cycle on a fall-through path (§3.1).
            if cache.contains(cur) || in_trace.contains(&cur) {
                break 'branches;
            }
            let Some(block) = program.block_at(cur) else {
                break 'branches;
            };
            let term = block.terminator();
            if (cur..term.addr()).contains(&branch_src) {
                break 'branches;
            }
            in_trace.insert(cur);
            blocks.push(cur);
            insts += block.len();
            last_inst = term.addr();
            if term.addr() == branch_src {
                if !record_transfer(&mut rec, term, branch_tgt) {
                    break 'branches;
                }
                break;
            }
            if !record_fallthrough(&mut rec, term) {
                break 'branches;
            }
            cur = term.fallthrough_addr();
        }
        // Stop if the branch forms a cycle (Figure 6, line 12).
        if in_trace.contains(&branch_tgt) {
            break;
        }
        prev = branch_tgt;
    }
    (!blocks.is_empty()).then(|| FormedTrace {
        blocks,
        compact: rec.finish(last_inst),
        insts,
    })
}

/// Records the transfer from `inst`, a recorded branch source, to
/// `tgt`. Returns `false` when the transfer does not match the
/// instruction, i.e. the buffer is stale.
///
/// Entries made for fall-through exit-stub landings carry the
/// fall-through address as their target, so takenness is derived by
/// comparing the recorded target with the instruction.
fn record_transfer(rec: &mut TraceRecorder, inst: &Instruction, tgt: Addr) -> bool {
    match inst.kind() {
        InstKind::CondBranch { target } => {
            if tgt == target {
                rec.record_cond(true);
            } else if tgt == inst.fallthrough_addr() {
                rec.record_cond(false);
            } else {
                return false;
            }
        }
        InstKind::IndirectJump | InstKind::IndirectCall | InstKind::Ret => rec.record_indirect(tgt),
        InstKind::Jump { target } | InstKind::Call { target } => return tgt == target,
        // A fall-through continuation recorded by an exit landing: no
        // code needed.
        InstKind::Straight => return tgt == inst.fallthrough_addr(),
    }
    true
}

/// Records an instruction passed on the fall-through path between taken
/// branches: straight code or a not-taken conditional. Returns `false`
/// for an unconditional transfer, which means the buffer does not
/// describe a contiguous interpreted path (control visited the cache in
/// between) and the trace ends here.
fn record_fallthrough(rec: &mut TraceRecorder, inst: &Instruction) -> bool {
    match inst.kind() {
        InstKind::Straight => true,
        InstKind::CondBranch { .. } => {
            rec.record_cond(false);
            true
        }
        _ => false,
    }
}

/// The LEI selector (paper Figure 5).
///
/// Maintains a bounded history buffer of interpreted taken branches.
/// When a branch target already appears in the buffer, the just-executed
/// cycle is a selection candidate: if the completing branch is backward
/// or the previous occurrence followed a code-cache exit, the target's
/// counter is incremented, and at `T_cyc` the cyclic path is promoted to
/// a trace.
#[derive(Debug)]
pub struct LeiSelector<'p> {
    program: &'p Program,
    threshold: u32,
    width: AddrWidth,
    buf: HistoryBuffer,
    counters: CounterTable,
    pending_exit: bool,
}

impl<'p> LeiSelector<'p> {
    /// Creates an LEI selector over `program`.
    pub fn new(program: &'p Program, config: &SimConfig) -> Self {
        LeiSelector {
            program,
            threshold: config.lei_threshold,
            width: config.addr_width,
            buf: HistoryBuffer::new(config.history_size),
            counters: CounterTable::new(),
            pending_exit: false,
        }
    }

    /// The history buffer (for tests and diagnostics).
    pub fn history(&self) -> &HistoryBuffer {
        &self.buf
    }
}

impl RegionSelector for LeiSelector<'_> {
    fn on_transfer(&mut self, _: &CodeCache, _: Addr, _: Addr, _: bool) -> Vec<Region> {
        Vec::new() // LEI has no growth phase
    }

    fn on_arrival(&mut self, cache: &CodeCache, a: Arrival) -> Vec<Region> {
        // Exit-stub transfers are branches in the real system even when
        // the exit was the fall-through side of a conditional, so every
        // cache-exit landing enters the buffer (tagged `follows_exit`,
        // feeding line 9's second condition); otherwise only interpreted
        // taken branches do.
        if !(a.taken || a.from_cache_exit) {
            return Vec::new();
        }
        let Some(src) = a.src else { return Vec::new() };
        let follows_exit = a.from_cache_exit || std::mem::take(&mut self.pending_exit);
        // Figure 5 line 5: insert into the history buffer. A counter
        // only exists while its target stays in the buffer ("it must
        // also be in the history buffer of recently interpreted branch
        // targets", §3.2.4), so eviction releases the counter.
        let (new_seq, dropped) = self.buf.insert(src, a.tgt, follows_exit);
        if let Some(gone) = dropped {
            self.counters.recycle(gone);
        }
        // Line 6: does the target already appear in the buffer?
        let Some(old_seq) = self.buf.lookup(a.tgt) else {
            // Line 17.
            self.buf.update_hash(a.tgt, new_seq);
            return Vec::new();
        };
        let old_follows_exit = self
            .buf
            .entry(old_seq)
            .map(|e| e.follows_exit)
            .unwrap_or(false);
        // Line 8: point the hash at the new occurrence.
        self.buf.update_hash(a.tgt, new_seq);
        // Line 9: can this target begin a trace?
        if !(a.tgt.is_backward_from(src) || old_follows_exit) {
            return Vec::new();
        }
        // Lines 10–15.
        let c = self.counters.increment(a.tgt);
        if c < self.threshold {
            return Vec::new();
        }
        let formed = form_lei_trace(self.program, cache, &self.buf, a.tgt, old_seq, self.width);
        for gone in self.buf.truncate_after(old_seq) {
            self.counters.recycle(gone);
        }
        self.counters.recycle(a.tgt);
        match formed {
            Some(t) => vec![Region::trace(self.program, &t.blocks)],
            None => Vec::new(),
        }
    }

    fn on_block(&mut self, _: &CodeCache, _: Addr) -> Vec<Region> {
        Vec::new()
    }

    fn on_fault(&mut self, fault: super::CounterFault) {
        match fault {
            super::CounterFault::Saturate => self.counters.saturate_all(),
            super::CounterFault::Reset => self.counters.reset_all(),
        }
    }

    fn counters_in_use(&self) -> usize {
        self.counters.in_use()
    }

    fn distinct_targets_profiled(&self) -> usize {
        self.counters.distinct_ever()
    }

    fn peak_counters(&self) -> usize {
        self.counters.peak()
    }

    fn name(&self) -> &'static str {
        "LEI"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsel_program::ProgramBuilder;

    /// main at HIGH addresses: H(call E) ; L(latch, cond -> H) ; X(ret)
    /// callee E at LOW addresses: E(ret). The loop body spans the call:
    /// H -> E -> L -> H, an interprocedural cycle NET cannot span.
    fn interproc_program() -> (Program, [Addr; 4]) {
        let mut b = ProgramBuilder::new();
        let main = b.function("main", 0x4000);
        let callee = b.function("callee", 0x100);
        let h = b.block(main);
        let l = b.block(main);
        let x = b.block_with(main, 0);
        b.call(h, callee);
        b.cond_branch(l, h);
        b.ret(x);
        let e = b.block(callee);
        b.ret(e);
        let p = b.build().unwrap();
        let hs = p.block(h).start();
        let ls = p.block(l).start();
        let es = p.block(e).start();
        let xs = p.block(x).start();
        (p, [hs, ls, es, xs])
    }

    fn lei_cfg(threshold: u32) -> SimConfig {
        SimConfig {
            lei_threshold: threshold,
            ..SimConfig::default()
        }
    }

    /// Drives one loop iteration's taken branches through the selector.
    fn iterate(
        lei: &mut LeiSelector<'_>,
        cache: &CodeCache,
        p: &Program,
        s: &[Addr; 4],
    ) -> Vec<Region> {
        let [h, l, e, _] = *s;
        let call_src = p.block_at(h).unwrap().terminator().addr();
        let ret_src = p.block_at(e).unwrap().terminator().addr();
        let latch_src = p.block_at(l).unwrap().terminator().addr();
        let mut out = Vec::new();
        for (src, tgt) in [(call_src, e), (ret_src, l), (latch_src, h)] {
            out.extend(lei.on_arrival(
                cache,
                Arrival {
                    src: Some(src),
                    tgt,
                    taken: true,
                    from_cache_exit: false,
                },
            ));
        }
        out
    }

    #[test]
    fn selects_interprocedural_cycle_at_threshold() {
        let (p, s) = interproc_program();
        let mut lei = LeiSelector::new(&p, &lei_cfg(3));
        let cache = CodeCache::new();
        let mut regions = Vec::new();
        let mut iters = 0;
        while regions.is_empty() && iters < 20 {
            regions = iterate(&mut lei, &cache, &p, &s);
            iters += 1;
        }
        // Both E (the backward call target) and H (the backward latch
        // target) are cycle heads; E's counter fires first within the
        // iteration, so the first region is the cycle rooted at E. In
        // the full simulator the cache hit at E would then stop H's
        // profiling; driving the selector bare also forms [H].
        let r = &regions[0];
        assert_eq!(r.entry(), s[2]);
        assert!(r.contains_block(s[0]) && r.contains_block(s[1]) && r.contains_block(s[2]));
        assert!(r.spans_cycle(), "cycle closes back at E");
        // The first cycle completes on iteration 2; counting starts
        // there, so threshold 3 fires on iteration 4.
        assert_eq!(iters, 4);
    }

    #[test]
    fn cycle_head_counter_only_for_backward_completion() {
        let (p, s) = interproc_program();
        let mut lei = LeiSelector::new(&p, &lei_cfg(50));
        let cache = CodeCache::new();
        // Forward-completing "cycles" (target above source) never get
        // counters: drive a forward branch to the same target twice.
        let hi_src = Addr::new(0x9000);
        for _ in 0..2 {
            lei.on_arrival(
                &cache,
                Arrival {
                    src: Some(hi_src),
                    tgt: Addr::new(0x9100),
                    taken: true,
                    from_cache_exit: false,
                },
            );
        }
        let _ = s;
        assert_eq!(lei.counters_in_use(), 0);
    }

    #[test]
    fn buffer_truncated_after_selection() {
        let (p, s) = interproc_program();
        let mut lei = LeiSelector::new(&p, &lei_cfg(2));
        let cache = CodeCache::new();
        let mut selected = Vec::new();
        for _ in 0..10 {
            selected.extend(iterate(&mut lei, &cache, &p, &s));
            if !selected.is_empty() {
                break;
            }
        }
        assert!(!selected.is_empty());
        // Each selection truncates the buffer back to the old occurrence
        // of the selected head, so far fewer than the 3-per-iteration
        // inserted branches remain.
        assert!(lei.history().len() <= 6, "len {}", lei.history().len());
    }

    #[test]
    fn formed_trace_instruction_count_matches_blocks() {
        let (p, s) = interproc_program();
        let mut lei = LeiSelector::new(&p, &lei_cfg(2));
        let cache = CodeCache::new();
        let mut regions = Vec::new();
        for _ in 0..10 {
            regions = iterate(&mut lei, &cache, &p, &s);
            if !regions.is_empty() {
                break;
            }
        }
        let r = &regions[0];
        let expected: u64 = r.blocks().iter().map(|b| u64::from(b.inst_count())).sum();
        assert_eq!(r.inst_count(), expected);
    }

    #[test]
    fn fallthrough_exit_entries_record_not_taken() {
        // An exit-stub landing on the fall-through side of a cond
        // branch enters the buffer with the fall-through address as
        // target; FORM-TRACE must record NOT-taken for it, so the
        // compact trace replays along the fall-through path.
        let mut b = ProgramBuilder::new();
        let f = b.function("f", 0x100);
        let s0 = b.block(f);
        let fall = b.block(f);
        let j = b.block(f);
        let x = b.block_with(f, 0);
        b.cond_branch(s0, j);
        // fall falls through into j, j into x.
        let _ = fall;
        b.cond_branch(j, s0); // backward, closes the cycle
        b.ret(x);
        let p = b.build().unwrap();
        let cache = CodeCache::new();
        let s0a = p.block(s0).start();
        let falla = p.block(fall).start();
        let cond = p.block(s0).branch_addr().unwrap();
        let back = p.block(j).branch_addr().unwrap();
        let mut buf = HistoryBuffer::new(16);
        let (old, _) = buf.insert(back, s0a, false);
        buf.update_hash(s0a, old);
        // Fall-through landing: target is s0's fall-through (fall).
        let (q, _) = buf.insert(cond, falla, true);
        buf.update_hash(falla, q);
        let (q, _) = buf.insert(back, s0a, false);
        buf.update_hash(s0a, q);
        let t = form_lei_trace(&p, &cache, &buf, s0a, old, AddrWidth::W32).unwrap();
        assert_eq!(
            t.blocks,
            vec![s0a, falla, p.block(j).start()],
            "path follows the fall-through side"
        );
        // The compact encoding replays to the same path.
        let decoded = t.compact.decode(&p).unwrap();
        assert_eq!(decoded.blocks, t.blocks);
    }

    #[test]
    fn form_trace_stops_at_cached_entry() {
        let (p, s) = interproc_program();
        let mut cache = CodeCache::new();
        // Cache a region at E: FORM-TRACE must stop before it.
        cache.insert(Region::trace(&p, &[s[2]]));
        let mut buf = HistoryBuffer::new(16);
        let call_src = p.block_at(s[0]).unwrap().terminator().addr();
        let ret_src = p.block_at(s[2]).unwrap().terminator().addr();
        let latch_src = p.block_at(s[1]).unwrap().terminator().addr();
        let (s0, _) = buf.insert(latch_src, s[0], false);
        buf.update_hash(s[0], s0);
        for (src, tgt) in [(call_src, s[2]), (ret_src, s[1]), (latch_src, s[0])] {
            let (q, _) = buf.insert(src, tgt, false);
            buf.update_hash(tgt, q);
        }
        let t = form_lei_trace(&p, &cache, &buf, s[0], s0, AddrWidth::W32).unwrap();
        assert_eq!(t.blocks, vec![s[0]], "stops before the cached callee");
    }
}
