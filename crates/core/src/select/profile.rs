//! Edge profiling and majority-direction trace formation.
//!
//! The related-work selectors of the paper's §5 "profile more branches
//! in the hope of better identifying a hot trace": BOA keeps per-branch
//! direction counts, Wiggins/Redstone instruments selected branches for
//! their most frequent targets. Both then build a trace by following
//! the most frequent direction from a starting point. This module holds
//! the shared machinery.

use super::Arrival;
use crate::cache::CodeCache;
use crate::fxhash::FxHashMap;
use rsel_program::{Addr, BlockId, InstKind, Program};

/// Per-branch execution profile gathered while interpreting.
#[derive(Clone, Debug, Default)]
pub struct EdgeProfile {
    /// Per program block: the profile of its terminator, classified
    /// against the program text on its first record (`None` until
    /// then). Every recorded transfer leaves a block's terminator.
    sites: Vec<Option<Site>>,
}

/// The profile of one transfer source.
#[derive(Clone, Debug)]
enum Site {
    /// A conditional branch's direction counts.
    Cond { taken: u64, not_taken: u64 },
    /// An indirect transfer's per-target counts (taken transfers only).
    Indirect(FxHashMap<Addr, u64>),
    /// Any other terminator: nothing is profiled there.
    Other,
}

impl Site {
    /// An empty profile for the terminator of block `src_block`.
    fn classify(program: &Program, src_block: usize) -> Site {
        match program.blocks()[src_block].terminator_kind() {
            InstKind::CondBranch { .. } => Site::Cond {
                taken: 0,
                not_taken: 0,
            },
            InstKind::IndirectJump | InstKind::IndirectCall | InstKind::Ret => {
                Site::Indirect(FxHashMap::default())
            }
            _ => Site::Other,
        }
    }
}

impl EdgeProfile {
    /// Creates an empty profile for a program of `block_count` blocks.
    pub fn new(block_count: usize) -> Self {
        EdgeProfile {
            sites: vec![None; block_count],
        }
    }

    /// Records one interpreted transfer to `tgt` out of the terminator
    /// of block `src_block`. The terminator is classified against the
    /// program text only on its first record, so a repeat costs one
    /// index.
    pub fn record(&mut self, program: &Program, src_block: BlockId, tgt: Addr, taken: bool) {
        let b = src_block.index();
        let site = self.sites[b].get_or_insert_with(|| Site::classify(program, b));
        match site {
            Site::Cond { taken: t, .. } if taken => *t += 1,
            Site::Cond { not_taken: nt, .. } => *nt += 1,
            Site::Indirect(targets) if taken => *targets.entry(tgt).or_insert(0) += 1,
            Site::Indirect(_) | Site::Other => {}
        }
    }

    /// Records the taken edge of an interpreter arrival, whether or not
    /// it left the code cache. BOA and Wiggins/Redstone call this from
    /// `on_arrival` and record every interpreted transfer from
    /// `on_transfer` as well.
    ///
    /// Known defect (kept so that reports stay comparable; its fix moves
    /// both selectors' results): an interpreted taken branch to an
    /// uncached target is thus recorded twice and a not-taken branch
    /// once, so the direction counts lean towards taken: a branch taken
    /// 2 times in 5 reads as majority-taken.
    pub fn record_arrival(&mut self, program: &Program, a: Arrival) {
        if let (Some(src_block), true) = (a.src_block, a.taken) {
            self.record(program, src_block, a.tgt, true);
        }
    }

    /// The majority direction of the conditional branch ending block
    /// `block` (`None` if never observed; ties resolve to not-taken,
    /// the cheaper fall-through).
    pub fn majority_cond(&self, block: usize) -> Option<bool> {
        match self.sites[block].as_ref()? {
            Site::Cond { taken, not_taken } => Some(taken > not_taken),
            _ => None,
        }
    }

    /// The most frequent observed target of the indirect branch ending
    /// block `block`.
    pub fn majority_indirect(&self, block: usize) -> Option<Addr> {
        let Site::Indirect(targets) = self.sites[block].as_ref()? else {
            return None;
        };
        targets
            .iter()
            .max_by_key(|(a, c)| (*c, std::cmp::Reverse(a.raw())))
            .map(|(a, _)| *a)
    }

    /// Number of profiled branch sites: conditional branches, and
    /// indirect transfers with at least one taken record.
    #[cfg(test)]
    fn sites(&self) -> usize {
        self.sites
            .iter()
            .flatten()
            .filter(|s| match s {
                Site::Cond { .. } => true,
                Site::Indirect(targets) => !targets.is_empty(),
                Site::Other => false,
            })
            .count()
    }
}

/// Builds a trace from the start of block `entry` by following the
/// majority direction of every branch, in the style of BOA: "a trace is
/// selected by following the target of each conditional branch with
/// the highest count" (§5).
///
/// The walk ends — as under NET — when the chosen direction is a taken
/// backward branch (included), targets an existing region's entry,
/// revisits a block already in the trace, meets an unprofiled branch,
/// or reaches `max_insts`.
pub fn majority_walk(
    program: &Program,
    cache: &CodeCache,
    profile: &EdgeProfile,
    entry: BlockId,
    max_insts: usize,
) -> Vec<Addr> {
    let mut blocks: Vec<Addr> = Vec::new();
    let mut insts = 0usize;
    let mut next = Some(program.block(entry));
    while let Some(block) = next {
        let (addr, b) = (block.start(), block.id());
        if blocks.contains(&addr) || (b != entry && cache.lookup_block(b.index()).is_some()) {
            break;
        }
        blocks.push(addr);
        insts += block.len();
        if insts >= max_insts {
            break;
        }
        let term = block.terminator();
        let src = term.addr();
        let (to, taken) = match term.kind() {
            InstKind::Straight => (block.fallthrough_addr(), false),
            InstKind::Jump { target } | InstKind::Call { target } => (target, true),
            InstKind::CondBranch { target } => match profile.majority_cond(b.index()) {
                Some(true) => (target, true),
                Some(false) => (block.fallthrough_addr(), false),
                None => break,
            },
            InstKind::IndirectJump | InstKind::IndirectCall | InstKind::Ret => {
                match profile.majority_indirect(b.index()) {
                    Some(t) => (t, true),
                    None => break,
                }
            }
        };
        if taken && to.is_backward_from(src) {
            break; // the trace ends with this backward branch
        }
        next = program.block_at(to);
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn record_and_majorities() {
        let p = program();
        let s = starts(&p);
        let a_branch = p.block_at(s[0]).unwrap().id();
        let mut prof = EdgeProfile::new(p.blocks().len());
        prof.record(&p, a_branch, s[2], true);
        prof.record(&p, a_branch, s[2], true);
        prof.record(&p, a_branch, s[1], false);
        assert_eq!(prof.majority_cond(a_branch.index()), Some(true));
        assert_eq!(prof.majority_cond(3), None);
        assert_eq!(prof.sites(), 1);
        // A transfer out of a straight block is not a site, a
        // not-taken record leaves an indirect site empty, and a
        // conditional branch has no indirect majority.
        prof.record(&p, p.blocks()[1].id(), s[2], false);
        prof.record(&p, p.blocks()[3].id(), s[2], false);
        assert_eq!(prof.sites(), 1);
        assert_eq!(prof.majority_indirect(a_branch.index()), None);
    }

    #[test]
    fn tie_resolves_to_not_taken() {
        let p = program();
        let s = starts(&p);
        let a_branch = p.block_at(s[0]).unwrap().id();
        let mut prof = EdgeProfile::new(p.blocks().len());
        prof.record(&p, a_branch, s[2], true);
        prof.record(&p, a_branch, s[1], false);
        assert_eq!(prof.majority_cond(a_branch.index()), Some(false));
    }

    #[test]
    fn walk_follows_majority_and_stops_at_backward() {
        let p = program();
        let s = starts(&p);
        let a_branch = p.block_at(s[0]).unwrap().id();
        let c_branch = p.block_at(s[2]).unwrap().id();
        let mut prof = EdgeProfile::new(p.blocks().len());
        // A mostly taken to C; C mostly taken back to A (backward).
        for _ in 0..3 {
            prof.record(&p, a_branch, s[2], true);
            prof.record(&p, c_branch, s[0], true);
        }
        let cache = CodeCache::new();
        let t = majority_walk(&p, &cache, &prof, p.blocks()[0].id(), 100);
        assert_eq!(t, vec![s[0], s[2]], "ends at C's backward branch");
    }

    #[test]
    fn walk_stops_at_unprofiled_branch() {
        let p = program();
        let s = starts(&p);
        let prof = EdgeProfile::new(p.blocks().len());
        let cache = CodeCache::new();
        let t = majority_walk(&p, &cache, &prof, p.blocks()[0].id(), 100);
        assert_eq!(t, vec![s[0]], "cannot pick a direction without counts");
    }

    #[test]
    fn walk_stops_at_cached_entry_and_size_limit() {
        let p = program();
        let s = starts(&p);
        let a_branch = p.block_at(s[0]).unwrap().id();
        let mut prof = EdgeProfile::new(p.blocks().len());
        prof.record(&p, a_branch, s[1], false); // falls into B
        let mut cache = CodeCache::new();
        cache.insert(crate::cache::Region::trace(&p, &[s[1]]));
        let t = majority_walk(&p, &cache, &prof, p.blocks()[0].id(), 100);
        assert_eq!(t, vec![s[0]], "stops before the cached block B");
        // Size limit of 1 instruction stops after the first block.
        let cache2 = CodeCache::new();
        let t2 = majority_walk(&p, &cache2, &prof, p.blocks()[0].id(), 1);
        assert_eq!(t2, vec![s[0]]);
    }

    #[test]
    fn indirect_majority_target() {
        let mut b = ProgramBuilder::new();
        let f = b.function("f", 0x100);
        let sw = b.block(f);
        let t1 = b.block(f);
        let t2 = b.block(f);
        let d = b.block_with(f, 0);
        b.indirect_jump(sw);
        b.jump(t1, d);
        b.jump(t2, d);
        b.ret(d);
        let p = b.build().unwrap();
        let sw_branch = sw;
        let t1s = p.block(t1).start();
        let t2s = p.block(t2).start();
        let mut prof = EdgeProfile::new(p.blocks().len());
        // A not-taken record profiles nothing at an indirect site.
        prof.record(&p, sw_branch, t1s, false);
        assert_eq!(prof.sites(), 0);
        assert_eq!(prof.majority_indirect(sw_branch.index()), None);
        prof.record(&p, sw_branch, t1s, true);
        prof.record(&p, sw_branch, t2s, true);
        prof.record(&p, sw_branch, t2s, true);
        assert_eq!(prof.majority_indirect(sw_branch.index()), Some(t2s));
    }
}
