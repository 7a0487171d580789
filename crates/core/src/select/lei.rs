//! Last-Executed Iteration (LEI) trace selection (paper §3, Figures 5–6).

use super::counters::CounterTable;
use super::history::HistoryBuffer;
use super::{Arrival, RegionSelector};
use crate::cache::{CodeCache, Region};
use crate::config::SimConfig;
use rsel_program::{Addr, BlockId, InstKind, Instruction, Program};
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
    marks: &mut TraceMarks,
    width: AddrWidth,
) -> Option<FormedTrace> {
    let branches = buf.branches_after(old_seq).map(|e| (e.src, e.tgt));
    form_trace_from_branches(program, cache, start, branches, marks, width)
}

/// FORM-TRACE's set of blocks already in the trace, kept as one stamp
/// per program block: a formation starts a new stamp instead of
/// clearing, so one table, owned by its selector, serves every
/// formation of a run without hashing or reallocating.
#[derive(Clone, Debug, Default)]
pub struct TraceMarks {
    stamp: u32,
    marks: Vec<u32>,
}

impl TraceMarks {
    /// An empty mark table; it sizes itself to the program on first
    /// use.
    pub fn new() -> Self {
        TraceMarks::default()
    }

    /// Empties the set for a formation over `block_count` blocks.
    fn clear(&mut self, block_count: usize) {
        if self.marks.len() < block_count {
            self.marks.resize(block_count, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // The stamp wrapped: old marks could alias the new one.
            self.marks.fill(0);
            self.stamp = 1;
        }
    }

    fn insert(&mut self, block: usize) {
        self.marks[block] = self.stamp;
    }

    fn contains(&self, block: usize) -> bool {
        self.marks[block] == self.stamp
    }
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
///
/// `marks` is the caller's reusable in-trace set (see [`TraceMarks`]).
pub fn form_trace_from_branches(
    program: &Program,
    cache: &CodeCache,
    start: Addr,
    branches: impl IntoIterator<Item = (Addr, Addr)>,
    marks: &mut TraceMarks,
    width: AddrWidth,
) -> Option<FormedTrace> {
    marks.clear(program.blocks().len());
    let mut blocks = Vec::new();
    let mut insts = 0;
    let mut rec = TraceRecorder::new(start, width);
    // The block the walk continues from (`None` once it leaves the
    // block boundaries).
    let mut next = program.block_at(start);
    let mut last_inst = start;
    'branches: for (branch_src, branch_tgt) in branches {
        let mut cur = next;
        loop {
            let Some(block) = cur else {
                break 'branches;
            };
            // Stop if the next block begins an existing trace (Figure 6,
            // line 7) or completes a cycle on a fall-through path (§3.1).
            let b = block.id().index();
            if cache.lookup_block(b).is_some() || marks.contains(b) {
                break 'branches;
            }
            let at = block.start();
            let term = block.terminator();
            if (at..term.addr()).contains(&branch_src) {
                break 'branches;
            }
            marks.insert(b);
            blocks.push(at);
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
            cur = program.block_at(term.fallthrough_addr());
        }
        // Stop if the branch forms a cycle (Figure 6, line 12). Only
        // block starts are ever marked.
        next = program.block_at(branch_tgt);
        if next.is_some_and(|b| marks.contains(b.id().index())) {
            break;
        }
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

/// Figure 5's cycle detection (lines 5–10 and 13), shared by LEI and
/// combined LEI: the history buffer of interpreted taken branches and
/// the counters of the cycle heads found in it.
///
/// A counter only exists while its target stays in the buffer ("it
/// must also be in the history buffer of recently interpreted branch
/// targets", §3.2.4), so evicting or truncating a target's last
/// occurrence releases its counter.
#[derive(Debug)]
pub struct CycleDetector {
    buf: HistoryBuffer,
    counters: CounterTable,
}

impl CycleDetector {
    /// Creates a detector whose buffer keeps `history_size` branches,
    /// for a program of `block_count` blocks.
    pub fn new(history_size: usize, block_count: usize) -> Self {
        CycleDetector {
            buf: HistoryBuffer::new(history_size, block_count),
            counters: CounterTable::new(block_count),
        }
    }

    /// Feeds one interpreter arrival through Figure 5, lines 5–10.
    ///
    /// Exit-stub transfers are branches in the real system even when
    /// the exit was the fall-through side of a conditional, so every
    /// cache-exit landing enters the buffer (tagged `follows_exit`,
    /// feeding line 9's second condition); otherwise only interpreted
    /// taken branches do.
    ///
    /// Returns the target whose counter an eviction released, if it had
    /// one, and — when the arrival completed a cycle that passed line
    /// 9's test — the sequence number of the target's previous
    /// occurrence with its incremented counter.
    pub fn arrive(&mut self, a: Arrival) -> (Option<Addr>, Option<(u64, u32)>) {
        let Some(src) = a.src.filter(|_| a.taken || a.from_cache_exit) else {
            return (None, None);
        };
        let tgt_block = a.tgt_block.index();
        // Line 5: insert into the history buffer.
        let (new_seq, dropped) = self.buf.insert(src, a.tgt, tgt_block, a.from_cache_exit);
        let released = dropped
            .filter(|&(_, b)| self.counters.recycle(b).is_some())
            .map(|(gone, _)| gone);
        // Line 6: does the target already appear in the buffer?
        let Some(old_seq) = self.buf.lookup(tgt_block) else {
            // Line 17.
            self.buf.update_hash(tgt_block, new_seq);
            return (released, None);
        };
        // The one read through `HistoryBuffer::entry`, whose known
        // defect can return a neighbouring entry's flag.
        let old_follows_exit = self.buf.entry(old_seq).is_some_and(|e| e.follows_exit);
        // Line 8: point the hash at the new occurrence.
        self.buf.update_hash(tgt_block, new_seq);
        // Line 9: can this target begin a trace?
        if !(a.tgt.is_backward_from(src) || old_follows_exit) {
            return (released, None);
        }
        // Line 10.
        (
            released,
            Some((old_seq, self.counters.increment(tgt_block))),
        )
    }

    /// Ends the cycle of the target starting block `tgt_block` whose
    /// previous occurrence is `old_seq`: truncates the buffer after it
    /// (Figure 5, line 13) and recycles the counters of the target and
    /// of every target the truncation removed. Returns the removed
    /// targets that held a counter.
    pub fn complete(&mut self, tgt_block: BlockId, old_seq: u64) -> Vec<Addr> {
        self.counters.recycle(tgt_block.index());
        let mut gone = self.buf.truncate_after(old_seq);
        gone.retain(|&(_, b)| self.counters.recycle(b).is_some());
        gone.into_iter().map(|(t, _)| t).collect()
    }

    /// The history buffer.
    pub fn history(&self) -> &HistoryBuffer {
        &self.buf
    }

    /// The cycle-head counters.
    pub fn counters(&self) -> &CounterTable {
        &self.counters
    }

    /// Applies a profiling-counter fault to the counters.
    pub fn apply_fault(&mut self, fault: super::CounterFault) {
        self.counters.apply_fault(fault);
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
    cycles: CycleDetector,
    marks: TraceMarks,
}

impl<'p> LeiSelector<'p> {
    /// Creates an LEI selector over `program`.
    pub fn new(program: &'p Program, config: &SimConfig) -> Self {
        LeiSelector {
            program,
            threshold: config.lei_threshold,
            width: config.addr_width,
            cycles: CycleDetector::new(config.history_size, program.blocks().len()),
            marks: TraceMarks::new(),
        }
    }

    /// The history buffer.
    #[cfg(test)]
    fn history(&self) -> &HistoryBuffer {
        self.cycles.history()
    }
}

impl RegionSelector for LeiSelector<'_> {
    fn on_arrival(&mut self, cache: &CodeCache, a: Arrival) -> Vec<Region> {
        let (_, Some((old_seq, c))) = self.cycles.arrive(a) else {
            return Vec::new();
        };
        // Lines 11–15: at `T_cyc`, form the trace and end the cycle.
        if c < self.threshold {
            return Vec::new();
        }
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
        self.cycles.complete(a.tgt_block, old_seq);
        match formed {
            Some(t) => vec![Region::trace(self.program, &t.blocks)],
            None => Vec::new(),
        }
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

    fn name(&self) -> &'static str {
        "LEI"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::arrival;
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

    fn blk(p: &Program, a: Addr) -> usize {
        p.block_at(a).unwrap().id().index()
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
            out.extend(lei.on_arrival(cache, arrival(p, Some(src), tgt, true, false)));
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
        let lo_src = Addr::new(0x10);
        for _ in 0..2 {
            lei.on_arrival(&cache, arrival(&p, Some(lo_src), s[3], true, false));
        }
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
        let mut buf = HistoryBuffer::new(16, p.blocks().len());
        let (old, _) = buf.insert(back, s0a, blk(&p, s0a), false);
        buf.update_hash(blk(&p, s0a), old);
        // Fall-through landing: target is s0's fall-through (fall).
        let (q, _) = buf.insert(cond, falla, blk(&p, falla), true);
        buf.update_hash(blk(&p, falla), q);
        let (q, _) = buf.insert(back, s0a, blk(&p, s0a), false);
        buf.update_hash(blk(&p, s0a), q);
        let t = form_lei_trace(
            &p,
            &cache,
            &buf,
            s0a,
            old,
            &mut TraceMarks::new(),
            AddrWidth::W32,
        )
        .unwrap();
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
        let mut buf = HistoryBuffer::new(16, p.blocks().len());
        let call_src = p.block_at(s[0]).unwrap().terminator().addr();
        let ret_src = p.block_at(s[2]).unwrap().terminator().addr();
        let latch_src = p.block_at(s[1]).unwrap().terminator().addr();
        let (s0, _) = buf.insert(latch_src, s[0], blk(&p, s[0]), false);
        buf.update_hash(blk(&p, s[0]), s0);
        for (src, tgt) in [(call_src, s[2]), (ret_src, s[1]), (latch_src, s[0])] {
            let (q, _) = buf.insert(src, tgt, blk(&p, tgt), false);
            buf.update_hash(blk(&p, tgt), q);
        }
        let t = form_lei_trace(
            &p,
            &cache,
            &buf,
            s[0],
            s0,
            &mut TraceMarks::new(),
            AddrWidth::W32,
        )
        .unwrap();
        assert_eq!(t.blocks, vec![s[0]], "stops before the cached callee");
    }
}
