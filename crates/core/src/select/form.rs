//! Next-executing-tail trace growth (NET's formation rule, paper §2.1).

use crate::cache::CodeCache;
use rsel_program::{Addr, BlockId, InstKind, Program};
use rsel_trace::{AddrWidth, CompactTrace, TraceRecorder};

/// A completed next-executing-tail trace.
#[derive(Clone, Debug)]
pub struct GrownTrace {
    /// Block start addresses along the selected path, entry first.
    pub blocks: Vec<Addr>,
    /// The compact (Figure 14) encoding of the observed path.
    pub compact: CompactTrace,
    /// Total instructions in the selected blocks.
    pub insts: usize,
}

/// Grows a trace by watching the interpreted path that executes next.
///
/// Implements NET's formation rule: starting at the hot branch target,
/// the trace "continues to extend along the interpreted path until a
/// backward branch is taken, a branch is taken that targets the start of
/// another trace, or a size limit is reached" (§2.1). The same grower
/// also produces the *observed traces* stored by combined NET, which is
/// why it records a compact encoding as it goes.
#[derive(Clone, Debug)]
pub struct TraceGrower {
    entry: BlockId,
    max_insts: usize,
    blocks: Vec<Addr>,
    insts: usize,
    recorder: Option<TraceRecorder>,
    last_term: Option<(Addr, InstKind)>,
}

impl TraceGrower {
    /// Starts growing a trace at the start of `program`'s block
    /// `entry`.
    pub fn new(program: &Program, entry: BlockId, max_insts: usize, width: AddrWidth) -> Self {
        TraceGrower {
            entry,
            max_insts,
            blocks: Vec::new(),
            insts: 0,
            recorder: Some(TraceRecorder::new(program.block(entry).start(), width)),
            last_term: None,
        }
    }

    /// The trace-head block this grower was started for.
    pub fn entry_block(&self) -> BlockId {
        self.entry
    }

    /// Number of blocks appended so far.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether no blocks have been appended yet.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Observes the control transfer leaving the most recently appended
    /// block, before its target `tgt` (the start of block `tgt_block`)
    /// executes. Records the branch outcome and evaluates NET's stop
    /// conditions.
    ///
    /// Returns the completed trace if a stop condition fired; the
    /// target's block is *not* part of the trace.
    pub fn feed_transfer(
        &mut self,
        cache: &CodeCache,
        src: Addr,
        tgt: Addr,
        tgt_block: BlockId,
        taken: bool,
    ) -> Option<GrownTrace> {
        if self.blocks.is_empty() {
            return None;
        }
        // Record the outcome of the last block's terminator.
        let (_, kind) = self.last_term.expect("non-empty grower has a terminator");
        if let Some(rec) = self.recorder.as_mut() {
            match kind {
                InstKind::CondBranch { .. } => rec.record_cond(taken),
                InstKind::IndirectJump | InstKind::IndirectCall | InstKind::Ret => {
                    debug_assert!(taken, "indirect transfers are always taken");
                    rec.record_indirect(tgt);
                }
                InstKind::Straight | InstKind::Jump { .. } | InstKind::Call { .. } => {}
            }
        }
        // A taken branch ends the trace when it is backward, targets
        // the start of another trace, or completes a cycle at our own
        // head.
        if taken
            && (tgt.is_backward_from(src)
                || cache.lookup_block(tgt_block.index()).is_some()
                || tgt_block == self.entry)
        {
            return Some(self.finish());
        }
        None
    }

    /// Appends `program`'s block `block`, which the interpreter just
    /// began executing on the watched path. Returns the completed trace
    /// if the size limit was reached.
    ///
    /// # Panics
    ///
    /// Panics if `block` does not belong to `program`.
    pub fn feed_block(&mut self, program: &Program, block: BlockId) -> Option<GrownTrace> {
        let b = program.block(block);
        let start = b.start();
        debug_assert!(
            !self.blocks.contains(&start),
            "NET paths cannot revisit a block without a backward branch"
        );
        self.blocks.push(start);
        self.insts += b.len();
        self.last_term = Some((b.terminator().addr(), b.terminator_kind()));
        if self.insts >= self.max_insts {
            return Some(self.finish());
        }
        None
    }

    fn finish(&mut self) -> GrownTrace {
        let (last_inst, _) = self.last_term.expect("finished grower has blocks");
        let recorder = self.recorder.take().expect("finish called once");
        GrownTrace {
            blocks: std::mem::take(&mut self.blocks),
            compact: recorder.finish(last_inst),
            insts: self.insts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Region;
    use rsel_program::ProgramBuilder;

    /// A(cond->C) ; B ; C(cond->A) ; D(ret)
    fn program() -> Program {
        let mut b = ProgramBuilder::new();
        let f = b.function("f", 0x100);
        let a = b.block(f);
        let bb = b.block(f);
        let c = b.block(f);
        let d = b.block_with(f, 0);
        let _ = bb;
        b.cond_branch(a, c);
        b.cond_branch(c, a);
        b.ret(d);
        b.build().unwrap()
    }

    fn starts(p: &Program) -> Vec<Addr> {
        p.blocks().iter().map(|b| b.start()).collect()
    }

    fn id(p: &Program, a: Addr) -> BlockId {
        p.block_at(a).unwrap().id()
    }

    #[test]
    fn stops_at_backward_branch_and_spans_cycle() {
        let p = program();
        let s = starts(&p);
        let cache = CodeCache::new();
        let mut g = TraceGrower::new(&p, id(&p, s[0]), 100, AddrWidth::W32);
        assert!(g.feed_block(&p, id(&p, s[0])).is_none());
        // A takes its branch to C (forward): trace continues.
        let src_a = p.blocks()[0].terminator().addr();
        assert!(
            g.feed_transfer(&cache, src_a, s[2], id(&p, s[2]), true)
                .is_none()
        );
        assert!(g.feed_block(&p, id(&p, s[2])).is_none());
        // C takes its backward branch to A: trace ends (and loops).
        let src_c = p.blocks()[2].terminator().addr();
        let t = g
            .feed_transfer(&cache, src_c, s[0], id(&p, s[0]), true)
            .expect("backward ends trace");
        assert_eq!(t.blocks, vec![s[0], s[2]]);
        let region = Region::trace(&p, &t.blocks);
        assert!(region.spans_cycle());
        // The compact encoding replays to the same block path.
        let decoded = t.compact.decode(&p).unwrap();
        assert_eq!(decoded.blocks, t.blocks);
        assert_eq!(decoded.exit_target, Some(s[0]));
    }

    #[test]
    fn stops_at_existing_region_entry() {
        let p = program();
        let s = starts(&p);
        let mut cache = CodeCache::new();
        cache.insert(Region::trace(&p, &[s[2]]));
        let mut g = TraceGrower::new(&p, id(&p, s[0]), 100, AddrWidth::W32);
        g.feed_block(&p, id(&p, s[0]));
        let src_a = p.blocks()[0].terminator().addr();
        let t = g
            .feed_transfer(&cache, src_a, s[2], id(&p, s[2]), true)
            .expect("hits cached entry");
        assert_eq!(t.blocks, vec![s[0]], "the cached block is excluded");
    }

    #[test]
    fn fallthrough_extends_and_records_not_taken() {
        let p = program();
        let s = starts(&p);
        let cache = CodeCache::new();
        let mut g = TraceGrower::new(&p, id(&p, s[0]), 100, AddrWidth::W32);
        g.feed_block(&p, id(&p, s[0]));
        let src_a = p.blocks()[0].terminator().addr();
        // A's branch not taken: falls into B.
        assert!(
            g.feed_transfer(&cache, src_a, s[1], id(&p, s[1]), false)
                .is_none()
        );
        g.feed_block(&p, id(&p, s[1]));
        // B falls into C (straight terminator, no outcome recorded).
        let src_b = p.blocks()[1].terminator().addr();
        assert!(
            g.feed_transfer(&cache, src_b, s[2], id(&p, s[2]), false)
                .is_none()
        );
        g.feed_block(&p, id(&p, s[2]));
        let src_c = p.blocks()[2].terminator().addr();
        let t = g
            .feed_transfer(&cache, src_c, s[0], id(&p, s[0]), true)
            .unwrap();
        assert_eq!(t.blocks, vec![s[0], s[1], s[2]]);
        let decoded = t.compact.decode(&p).unwrap();
        assert_eq!(decoded.blocks, t.blocks);
    }

    #[test]
    fn size_limit_completes_trace() {
        let p = program();
        let s = starts(&p);
        let mut g = TraceGrower::new(&p, id(&p, s[0]), 2, AddrWidth::W32);
        let t = g
            .feed_block(&p, id(&p, s[0]))
            .expect("limit of 2 insts hit by first block");
        assert_eq!(t.blocks, vec![s[0]]);
        assert!(t.insts >= 2);
    }

    #[test]
    fn insts_match_block_lengths() {
        let p = program();
        let s = starts(&p);
        let cache = CodeCache::new();
        let mut g = TraceGrower::new(&p, id(&p, s[0]), 100, AddrWidth::W32);
        g.feed_block(&p, id(&p, s[0]));
        let src_a = p.blocks()[0].terminator().addr();
        g.feed_transfer(&cache, src_a, s[2], id(&p, s[2]), true);
        g.feed_block(&p, id(&p, s[2]));
        let src_c = p.blocks()[2].terminator().addr();
        let t = g
            .feed_transfer(&cache, src_c, s[0], id(&p, s[0]), true)
            .unwrap();
        let expected: usize = t.blocks.iter().map(|&a| p.block_at(a).unwrap().len()).sum();
        assert_eq!(t.insts, expected);
    }
}
