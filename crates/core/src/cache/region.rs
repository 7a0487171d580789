//! Regions: the unit of code caching and optimization.
//!
//! A region is a single-entry collection of copied basic blocks. A
//! *trace* region is an interprocedural superblock: blocks laid out
//! consecutively along one path, with an exit stub at every side exit
//! (paper §2.1). A *combined* region may contain multiple paths —
//! splits, joins and internal back edges — produced by the
//! trace-combination algorithm (paper §4.2).
//!
//! Control enters a region only at its entry address. A transfer from a
//! block inside the region stays inside when it follows an internal edge
//! or returns to the entry (completing a cycle); any other transfer
//! leaves through an exit stub, which either links directly to another
//! cached region or falls back to the interpreter.

use crate::error::SimError;
use rsel_program::{Addr, BlockId, InstKind, Program};
use std::fmt;

/// Identifier of a region within a [`CodeCache`](crate::CodeCache);
/// doubles as the selection order (lower = selected earlier).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub(crate) u32);

impl RegionId {
    /// The raw index of this region in the cache.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// Whether a region is a single-path trace or a combined multi-path
/// region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// An interprocedural superblock (NET or LEI trace).
    Trace,
    /// A multi-path region built by trace combination.
    Combined,
}

/// A basic block copied into a region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionBlock {
    start: Addr,
    block: BlockId,
    insts: u32,
    bytes: u64,
    term: InstKind,
    fallthrough: Addr,
}

impl RegionBlock {
    fn try_from_program(program: &Program, start: Addr) -> Result<Self, SimError> {
        let b = program
            .block_at(start)
            .ok_or(SimError::UnknownBlock(start))?;
        Ok(RegionBlock {
            start,
            block: b.id(),
            insts: b.len() as u32,
            bytes: b.byte_size(),
            term: b.terminator_kind(),
            fallthrough: b.fallthrough_addr(),
        })
    }

    /// The block's original start address.
    pub fn start(&self) -> Addr {
        self.start
    }

    /// Number of instructions copied.
    pub fn inst_count(&self) -> u32 {
        self.insts
    }

    /// Bytes of instructions copied.
    pub fn byte_size(&self) -> u64 {
        self.bytes
    }

    /// The terminator kind of the block.
    pub fn terminator(&self) -> InstKind {
        self.term
    }

    /// The statically known continuations of this block: where control
    /// can go next, excluding dynamically-targeted transfers. At most
    /// two: a conditional branch's target, then its fall-through.
    pub fn static_continuations(&self) -> impl Iterator<Item = Addr> {
        let (first, second) = match self.term {
            InstKind::Straight => (Some(self.fallthrough), None),
            InstKind::CondBranch { target } => (Some(target), Some(self.fallthrough)),
            InstKind::Jump { target } | InstKind::Call { target } => (Some(target), None),
            InstKind::IndirectJump | InstKind::IndirectCall | InstKind::Ret => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Whether the terminator's target is dynamic.
    pub fn has_indirect_terminator(&self) -> bool {
        self.term.is_indirect()
    }
}

/// An exit stub: the landing pad for one way control can leave a region.
///
/// Exit stubs cost code-cache space (charged at
/// [`SimConfig::stub_bytes`](crate::SimConfig::stub_bytes) each) and are
/// one of the paper's key cost metrics (Figure 19).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExitStub {
    /// Start address of the region block the exit leaves from.
    pub from: Addr,
    /// The exit's target address; `None` for dynamically-targeted
    /// (indirect) exits.
    pub target: Option<Addr>,
}

/// How a transfer out of a region block is classified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferClass {
    /// Control returns to the region entry, completing a cycle.
    Cycle,
    /// Control follows an internal edge to another block of the region.
    Internal,
    /// Control leaves the region (through an exit stub).
    Exit,
}

/// A single-entry cached region (trace or combined).
#[derive(Clone, Debug)]
pub struct Region {
    id: RegionId,
    kind: RegionKind,
    entry: Addr,
    blocks: Vec<RegionBlock>,
    /// `(start address, slot)` of every block, sorted by address: the
    /// membership and slot index.
    by_start: Vec<(Addr, u32)>,
    /// The internal edges in CSR form: block slot `s`'s successors are
    /// `succ[succ_off[s]..succ_off[s + 1]]`, with their slots in the
    /// parallel `succ_slot`. The simulator's hot loop classifies
    /// transfers against this table — a short linear scan over one
    /// contiguous array (regions rarely have more than two successors
    /// per block) instead of a hash lookup.
    succ_off: Vec<u32>,
    succ: Vec<Addr>,
    succ_slot: Vec<u32>,
    stubs: Vec<ExitStub>,
    cache_offset: u64,
}

impl Region {
    /// Builds a trace region from the ordered path of block start
    /// addresses.
    ///
    /// Internal edges connect consecutive blocks; in addition, any block
    /// whose static continuation is the entry gets a loop-back edge (the
    /// "branch to the top of the trace" that makes the trace span a
    /// cycle, §3.2.1).
    ///
    /// # Panics
    ///
    /// Panics if `path` is empty, contains duplicates, or names
    /// addresses that do not start program blocks. Use
    /// [`Region::try_trace`] for a fallible variant.
    pub fn trace(program: &Program, path: &[Addr]) -> Self {
        Region::try_trace(program, path).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Region::trace`].
    pub fn try_trace(program: &Program, path: &[Addr]) -> Result<Self, SimError> {
        let mut r = Region::with_blocks(program, RegionKind::Trace, path)?;
        let entry = r.entry;
        for s in 0..path.len() {
            // The next block on the path, then the loop-back edge to
            // the entry (never the next block: the path has no repeats).
            if let Some(&next) = path.get(s + 1) {
                r.push_succ(next, s as u32 + 1);
            }
            if r.blocks[s].static_continuations().any(|c| c == entry) {
                r.push_succ(entry, 0);
            }
            r.succ_off.push(r.succ.len() as u32);
        }
        r.derive_stubs();
        Ok(r)
    }

    /// Builds a combined multi-path region.
    ///
    /// `blocks` is the set of kept block addresses (entry first) and
    /// `observed_edges` the edges of the observed-trace CFG among them.
    /// Exits that statically target a kept block are promoted to
    /// internal edges, as in line 16 of the paper's Figure 13. Each
    /// block's successors are its observed edges in the order given
    /// (repeats and edges to foreign blocks dropped), then its promoted
    /// exits.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty, contains duplicates, its first
    /// element is not the entry of every path, or edges reference
    /// unknown blocks. Use [`Region::try_combined`] for a fallible
    /// variant.
    pub fn combined(program: &Program, blocks: &[Addr], observed_edges: &[(Addr, Addr)]) -> Self {
        Region::try_combined(program, blocks, observed_edges).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Region::combined`].
    pub fn try_combined(
        program: &Program,
        blocks: &[Addr],
        observed_edges: &[(Addr, Addr)],
    ) -> Result<Self, SimError> {
        let mut r = Region::with_blocks(program, RegionKind::Combined, blocks)?;
        // Observed edges between members as (from slot, to, to slot),
        // grouped by source in their given order.
        let mut observed = Vec::with_capacity(observed_edges.len());
        for &(from, to) in observed_edges {
            let f = r
                .slot_of(from)
                .ok_or(SimError::EdgeFromUnknownBlock(from))?;
            if let Some(t) = r.slot_of(to) {
                observed.push((f, to, t));
            }
        }
        observed.sort_by_key(|&(f, _, _)| f);
        let mut rest = observed.as_slice();
        for s in 0..blocks.len() as u32 {
            let (mine, tail) = rest.split_at(rest.partition_point(|&(f, _, _)| f == s));
            rest = tail;
            let lo = r.succ.len();
            for &(_, to, t) in mine {
                if !r.succ[lo..].contains(&to) {
                    r.push_succ(to, t);
                }
            }
            // Promote static exits that target kept blocks to edges.
            for c in r.blocks[s as usize].static_continuations() {
                if let Some(t) = r.slot_of(c) {
                    if !r.succ[lo..].contains(&c) {
                        r.push_succ(c, t);
                    }
                }
            }
            r.succ_off.push(r.succ.len() as u32);
        }
        r.derive_stubs();
        Ok(r)
    }

    /// A region of the given blocks with no edges yet: checks that the
    /// blocks exist (all of them first) and are distinct, and builds
    /// the sorted start index.
    fn with_blocks(program: &Program, kind: RegionKind, starts: &[Addr]) -> Result<Self, SimError> {
        let Some(&entry) = starts.first() else {
            return Err(SimError::EmptyRegion);
        };
        let blocks = starts
            .iter()
            .map(|&a| RegionBlock::try_from_program(program, a))
            .collect::<Result<Vec<_>, _>>()?;
        let mut by_start: Vec<(Addr, u32)> = (0..).zip(starts).map(|(s, &a)| (a, s)).collect();
        by_start.sort_unstable();
        // Name the block whose repeat comes first along `starts`.
        if let Some(w) = by_start
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .min_by_key(|w| w[1].1)
        {
            return Err(SimError::DuplicateBlock(w[0].0));
        }
        let mut succ_off = Vec::with_capacity(blocks.len() + 1);
        succ_off.push(0);
        Ok(Region {
            id: RegionId(u32::MAX),
            kind,
            entry,
            blocks,
            by_start,
            succ_off,
            succ: Vec::new(),
            succ_slot: Vec::new(),
            stubs: Vec::new(),
            cache_offset: 0,
        })
    }

    fn push_succ(&mut self, to: Addr, slot: u32) {
        self.succ.push(to);
        self.succ_slot.push(slot);
    }

    /// Enumerates exit stubs: every continuation of every block that is
    /// not an internal edge, plus one stub per dynamically-targeted
    /// terminator (whose observed target may still be internal at run
    /// time).
    fn derive_stubs(&mut self) {
        for (s, b) in self.blocks.iter().enumerate() {
            let from = b.start();
            let internal = &self.succ[self.succ_range(s as u32)];
            for c in b.static_continuations() {
                if !internal.contains(&c) {
                    self.stubs.push(ExitStub {
                        from,
                        target: Some(c),
                    });
                }
            }
            if b.has_indirect_terminator() {
                self.stubs.push(ExitStub { from, target: None });
            }
        }
    }

    fn slot_of(&self, addr: Addr) -> Option<u32> {
        self.by_start
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()
            .map(|i| self.by_start[i].1)
    }

    /// Where the block in `slot` keeps its successors in `succ` and
    /// `succ_slot`.
    fn succ_range(&self, slot: u32) -> std::ops::Range<usize> {
        self.succ_off[slot as usize] as usize..self.succ_off[slot as usize + 1] as usize
    }

    pub(crate) fn set_id(&mut self, id: RegionId) {
        self.id = id;
    }

    pub(crate) fn set_cache_offset(&mut self, offset: u64) {
        self.cache_offset = offset;
    }

    /// Byte offset at which this region was placed in the code cache
    /// (regions are laid out in selection order — the layout that makes
    /// trace *separation* costly, §1: a related trace "is inserted far
    /// from the original trace, potentially on a separate virtual
    /// memory page").
    pub fn cache_offset(&self) -> u64 {
        self.cache_offset
    }

    /// This region's identifier (also its selection order).
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// Trace or combined.
    pub fn kind(&self) -> RegionKind {
        self.kind
    }

    /// The single entry address.
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// The program block at the entry (both constructors put the entry
    /// in slot 0).
    pub fn entry_block(&self) -> BlockId {
        self.blocks[0].block
    }

    /// The copied blocks.
    pub fn blocks(&self) -> &[RegionBlock] {
        &self.blocks
    }

    /// Whether the region contains a copy of the program block starting
    /// at `addr`.
    pub fn contains_block(&self, addr: Addr) -> bool {
        self.slot_of(addr).is_some()
    }

    /// Whether an internal edge `from → to` exists.
    pub fn has_edge(&self, from: Addr, to: Addr) -> bool {
        self.successors(from).contains(&to)
    }

    /// The internal successors of the block starting at `from`: for a
    /// trace, the next block on the path, then the loop-back edge; for
    /// a combined region, observed edges first, then promoted exits.
    pub fn successors(&self, from: Addr) -> &[Addr] {
        self.slot_of(from)
            .map_or(&[], |s| &self.succ[self.succ_range(s)])
    }

    /// The exit stubs.
    pub fn stubs(&self) -> &[ExitStub] {
        &self.stubs
    }

    /// Number of exit stubs.
    pub fn stub_count(&self) -> usize {
        self.stubs.len()
    }

    /// Total instructions copied into this region (the paper's code
    /// expansion contribution).
    pub fn inst_count(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.inst_count())).sum()
    }

    /// Total instruction bytes copied.
    pub fn byte_size(&self) -> u64 {
        self.blocks.iter().map(|b| b.byte_size()).sum()
    }

    /// Estimated cache footprint: instruction bytes plus `stub_bytes`
    /// per exit stub (paper §4.3.4).
    pub fn size_estimate(&self, stub_bytes: u64) -> u64 {
        self.byte_size() + stub_bytes * self.stubs.len() as u64
    }

    /// Whether any copied block's original bytes intersect the address
    /// range `[lo, hi)` — the test a self-modifying-code write uses to
    /// decide which cached regions its dirtied range invalidates.
    pub fn overlaps_range(&self, lo: Addr, hi: Addr) -> bool {
        if lo >= hi {
            return false;
        }
        self.blocks.iter().any(|b| {
            let start = b.start().raw();
            let end = start.saturating_add(b.byte_size().max(1));
            start < hi.raw() && end > lo.raw()
        })
    }

    /// The sorted, deduplicated page numbers the region's copied
    /// blocks span, at `page_bytes` bytes per page — the keys under
    /// which the code cache's page-granular invalidation index files
    /// this region. A block occupies every page its byte range
    /// `[start, start + byte_size)` intersects (zero-byte blocks are
    /// charged one byte, matching [`Region::overlaps_range`]).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `page_bytes` is not a power of two.
    pub fn pages_spanned(&self, page_bytes: u64) -> Vec<u64> {
        debug_assert!(page_bytes.is_power_of_two(), "page size must be 2^k");
        let mut pages: Vec<u64> = Vec::with_capacity(self.blocks.len());
        for b in &self.blocks {
            let start = b.start().raw();
            let last = start.saturating_add(b.byte_size().max(1) - 1);
            for p in (start / page_bytes)..=(last / page_bytes) {
                pages.push(p);
            }
        }
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// Whether the region contains a branch back to its entry — the
    /// static "spans a cycle" property of §3.2.1.
    pub fn spans_cycle(&self) -> bool {
        self.succ.contains(&self.entry)
    }

    /// Classifies a transfer out of the block starting at `from`
    /// towards `target`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `from` is not a block of this region.
    pub fn classify(&self, from: Addr, target: Addr) -> TransferClass {
        debug_assert!(
            self.contains_block(from),
            "transfer from foreign block {from}"
        );
        if target == self.entry {
            TransferClass::Cycle
        } else if self.has_edge(from, target) {
            TransferClass::Internal
        } else {
            TransferClass::Exit
        }
    }

    /// The slot (index into [`Region::blocks`]) of the block starting
    /// at `addr`, if it is a member. The entry block is always slot 0.
    pub fn block_slot(&self, addr: Addr) -> Option<usize> {
        self.slot_of(addr).map(|s| s as usize)
    }

    /// Hash-free variant of [`Region::classify`] for the simulator's
    /// hot loop: classifies a transfer out of the block at `from_slot`
    /// towards `target`, returning the class together with the target's
    /// slot (0 for a cycle back to the entry; unspecified for an exit).
    /// Equivalent to `classify(blocks[from_slot].start(), target)` —
    /// the classification order (cycle, then internal edge, then exit)
    /// is identical.
    ///
    /// # Panics
    ///
    /// Panics if `from_slot` is out of range.
    #[inline]
    pub fn classify_slot(&self, from_slot: u32, target: Addr) -> (TransferClass, u32) {
        if target == self.entry {
            return (TransferClass::Cycle, 0);
        }
        let range = self.succ_range(from_slot);
        match self.succ[range.clone()].iter().position(|&a| a == target) {
            Some(k) => (TransferClass::Internal, self.succ_slot[range.start + k]),
            None => (TransferClass::Exit, 0),
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({:?}) entry {} blocks {} stubs {}",
            self.id,
            self.kind,
            self.entry,
            self.blocks.len(),
            self.stubs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsel_program::ProgramBuilder;

    /// A(cond -> C) ; B ; C(cond -> A) ; D(ret)
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
    fn trace_linear_edges_and_stubs() {
        let p = program();
        let s = starts(&p);
        // Trace A -> C (taken direction of A's branch).
        let t = Region::trace(&p, &[s[0], s[2]]);
        assert!(t.has_edge(s[0], s[2]));
        assert!(t.contains_block(s[0]) && t.contains_block(s[2]));
        assert!(!t.contains_block(s[1]));
        // Stubs: A's fall-through to B; C's taken (to A = entry, which
        // is a loop-back edge instead) and C's fall-through to D.
        assert!(t.spans_cycle(), "C branches back to A, the entry");
        let stub_targets: Vec<Option<Addr>> = t.stubs().iter().map(|e| e.target).collect();
        assert!(stub_targets.contains(&Some(s[1])), "A's fall-through exits");
        assert!(stub_targets.contains(&Some(s[3])), "C's fall-through exits");
        assert_eq!(t.stub_count(), 2);
    }

    #[test]
    fn trace_without_loopback_does_not_span() {
        let p = program();
        let s = starts(&p);
        let t = Region::trace(&p, &[s[1], s[2]]); // B -> C, C's branch goes to A (outside)
        assert!(!t.spans_cycle());
        // C's stubs: taken to A, fall-through to D.
        assert_eq!(t.stub_count(), 2);
    }

    #[test]
    fn classify_cycle_internal_exit() {
        let p = program();
        let s = starts(&p);
        let t = Region::trace(&p, &[s[0], s[2]]);
        assert_eq!(t.classify(s[2], s[0]), TransferClass::Cycle);
        assert_eq!(t.classify(s[0], s[2]), TransferClass::Internal);
        assert_eq!(t.classify(s[0], s[1]), TransferClass::Exit);
        assert_eq!(t.classify(s[2], s[3]), TransferClass::Exit);
    }

    #[test]
    fn classify_slot_matches_classify() {
        let p = program();
        let s = starts(&p);
        for r in [
            Region::trace(&p, &[s[0], s[2]]),
            Region::combined(&p, &[s[0], s[1], s[2]], &[(s[0], s[2]), (s[0], s[1])]),
        ] {
            assert_eq!(r.block_slot(r.entry()), Some(0), "entry is slot 0");
            for (slot, b) in r.blocks().iter().enumerate() {
                for &target in &s {
                    let (class, tslot) = r.classify_slot(slot as u32, target);
                    assert_eq!(class, r.classify(b.start(), target), "{slot} -> {target}");
                    match class {
                        TransferClass::Cycle => assert_eq!(tslot, 0),
                        TransferClass::Internal => {
                            assert_eq!(r.blocks()[tslot as usize].start(), target)
                        }
                        TransferClass::Exit => {}
                    }
                }
            }
        }
    }

    #[test]
    fn single_block_self_loop_spans_cycle() {
        let mut b = ProgramBuilder::new();
        let f = b.function("f", 0x100);
        let spin = b.block(f);
        let done = b.block_with(f, 0);
        b.cond_branch(spin, spin);
        b.ret(done);
        let p = b.build().unwrap();
        let t = Region::trace(&p, &[p.block(spin).start()]);
        assert!(t.spans_cycle());
        assert_eq!(t.stub_count(), 1, "only the fall-through exits");
    }

    #[test]
    fn combined_region_promotes_exits_to_edges() {
        let p = program();
        let s = starts(&p);
        // Region with A, B, C: A->C (taken) and A->B (observed
        // fall-through), B->C falls through, C->A backward.
        let r = Region::combined(&p, &[s[0], s[1], s[2]], &[(s[0], s[2]), (s[0], s[1])]);
        assert!(r.has_edge(s[0], s[1]));
        assert!(r.has_edge(s[0], s[2]));
        // Promotion: B falls through to C even though unobserved.
        assert!(r.has_edge(s[1], s[2]));
        // C's backward branch to A (entry) promoted too.
        assert!(r.has_edge(s[2], s[0]));
        assert!(r.spans_cycle());
        // Only exit: C's fall-through to D.
        assert_eq!(r.stub_count(), 1);
        assert_eq!(r.stubs()[0].target, Some(s[3]));
        assert_eq!(r.kind(), RegionKind::Combined);
    }

    #[test]
    fn indirect_terminator_gets_unknown_stub() {
        let mut b = ProgramBuilder::new();
        let f = b.function("f", 0x100);
        let a = b.block(f);
        let t = b.block(f);
        let d = b.block_with(f, 0);
        b.indirect_jump(a);
        b.jump(t, d);
        b.ret(d);
        let p = b.build().unwrap();
        let r = Region::trace(&p, &[p.block(a).start(), p.block(t).start()]);
        // a -> t is the trace edge; the indirect terminator still needs
        // a stub for mispredicted targets.
        let unknown = r.stubs().iter().filter(|s| s.target.is_none()).count();
        assert_eq!(unknown, 1);
    }

    #[test]
    fn sizes_accumulate() {
        let p = program();
        let s = starts(&p);
        let t = Region::trace(&p, &[s[0], s[2]]);
        assert_eq!(t.inst_count(), 4); // 2 blocks x (straight + branch)
        assert!(t.byte_size() > 0);
        assert_eq!(t.size_estimate(10), t.byte_size() + 20);
    }

    #[test]
    fn overlap_tracks_block_byte_ranges() {
        let p = program();
        let s = starts(&p);
        let t = Region::trace(&p, &[s[0], s[2]]);
        let a_end = s[0].offset(p.block_at(s[0]).unwrap().byte_size());
        // A range inside block A overlaps; the gap block B does not.
        assert!(t.overlaps_range(s[0], s[0].offset(1)));
        assert!(t.overlaps_range(s[0].offset(1), a_end));
        assert!(!t.overlaps_range(s[1], s[1].offset(1)));
        // Empty and inverted ranges never overlap.
        assert!(!t.overlaps_range(s[0], s[0]));
        assert!(!t.overlaps_range(a_end, s[0]));
        // A range spanning the whole program overlaps everything.
        assert!(t.overlaps_range(Addr::new(0), Addr::new(u64::MAX)));
    }

    #[test]
    fn pages_spanned_covers_block_bytes() {
        let p = program();
        let s = starts(&p);
        let t = Region::trace(&p, &[s[0], s[2]]);
        // With a page as large as the whole layout, one page suffices.
        assert_eq!(t.pages_spanned(1 << 20), vec![0]);
        // At byte granularity every copied byte gets its own "page";
        // zero-byte blocks are charged one byte.
        let bytes: u64 = t.blocks().iter().map(|b| b.byte_size().max(1)).sum();
        assert_eq!(t.pages_spanned(1).len() as u64, bytes);
        // Pages come out sorted and deduplicated.
        let pages = t.pages_spanned(8);
        let mut sorted = pages.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pages, sorted);
    }

    #[test]
    fn try_constructors_return_errors_not_panics() {
        use crate::error::SimError;
        let p = program();
        let s = starts(&p);
        assert!(matches!(
            Region::try_trace(&p, &[]),
            Err(SimError::EmptyRegion)
        ));
        assert!(matches!(
            Region::try_trace(&p, &[s[0], s[0]]),
            Err(SimError::DuplicateBlock(a)) if a == s[0]
        ));
        assert!(matches!(
            Region::try_trace(&p, &[Addr::new(0xdead)]),
            Err(SimError::UnknownBlock(_))
        ));
        assert!(matches!(
            Region::try_combined(&p, &[s[0]], &[(Addr::new(0xdead), s[0])]),
            Err(SimError::EdgeFromUnknownBlock(_))
        ));
        assert!(Region::try_trace(&p, &[s[0], s[2]]).is_ok());
    }

    #[test]
    #[should_panic(expected = "duplicate block")]
    fn duplicate_blocks_rejected() {
        let p = program();
        let s = starts(&p);
        let _ = Region::trace(&p, &[s[0], s[0]]);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn empty_trace_rejected() {
        let p = program();
        let _ = Region::trace(&p, &[]);
    }
}
