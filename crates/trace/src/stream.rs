//! Recording and replaying executor event streams.

use rsel_program::{BranchKind, Entry, Program, Step};

fn kind_to_tag(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Cond => 0,
        BranchKind::Jump => 1,
        BranchKind::IndirectJump => 2,
        BranchKind::Call => 3,
        BranchKind::IndirectCall => 4,
        BranchKind::Ret => 5,
    }
}

pub(crate) fn tag_to_kind(tag: u8) -> Option<BranchKind> {
    Some(match tag {
        0 => BranchKind::Cond,
        1 => BranchKind::Jump,
        2 => BranchKind::IndirectJump,
        3 => BranchKind::Call,
        4 => BranchKind::IndirectCall,
        5 => BranchKind::Ret,
        _ => return None,
    })
}

pub(crate) const ENTRY_START: u8 = 0;
pub(crate) const ENTRY_FALLTHROUGH: u8 = 1;
pub(crate) const ENTRY_TAKEN_BASE: u8 = 2;

/// A recorded execution: one `u32` block index and one tag byte per
/// step, with taken-branch sources in a side table.
///
/// Recording lets the same dynamic execution be fed to several
/// region-selection algorithms, guaranteeing an identical input stream —
/// the property the paper gets by abstracting "all details of region
/// selection ... out of the framework" (§2.3, footnote 4).
///
/// A full [`Step`] is 32 bytes. Because a step's `start` is always the
/// start address of its block, the stream is fully determined by the
/// block-index sequence, the entry tags, and — for taken entries only —
/// the branch source. This form stores exactly that, cutting the
/// per-step footprint to 5 bytes plus 8 per taken branch, so an entire
/// workload matrix worth of executions fits comfortably in memory and
/// can be replayed once per selector instead of re-executing the
/// program. [`DecodedStream`](crate::DecodedStream) expands it once
/// more into the simulator's batch replay input.
///
/// Replay requires the [`Program`] the stream was recorded from: block
/// indices are resolved back to [`Step`]s against it.
///
/// ```
/// use rsel_program::{ProgramBuilder, BehaviorSpec, Executor, Step};
/// use rsel_trace::CompactStream;
///
/// let mut b = ProgramBuilder::new();
/// let f = b.function("main", 0x100);
/// let bb = b.block(f);
/// let ex = b.block_with(f, 0);
/// b.cond_branch(bb, bb);
/// b.ret(ex);
/// let p = b.build().unwrap();
/// let mut spec = BehaviorSpec::new(1);
/// spec.loop_trips(p.block(bb).branch_addr().unwrap(), 3);
/// let live: Vec<Step> = Executor::new(&p, spec.clone()).collect();
/// let compact = CompactStream::record(Executor::new(&p, spec));
/// let replayed: Vec<Step> = compact.replay(&p).collect();
/// assert_eq!(replayed, live);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompactStream {
    /// Block index of each step, in execution order.
    blocks: Vec<u32>,
    /// Entry tag of each step: 0 start, 1 fall-through, 2 + kind tag
    /// for taken entries.
    tags: Vec<u8>,
    /// Branch source of each taken entry, in execution order.
    taken_srcs: Vec<rsel_program::Addr>,
}

impl CompactStream {
    /// Records every step of `source` to completion.
    pub fn record<I: IntoIterator<Item = Step>>(source: I) -> Self {
        let mut s = CompactStream::default();
        s.extend(source);
        s
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Number of taken-branch entries recorded.
    pub fn taken_count(&self) -> usize {
        self.taken_srcs.len()
    }

    /// Payload bytes held by the compact encoding (excluding `Vec`
    /// headers and spare capacity) — 5 per step plus 8 per taken
    /// branch.
    pub fn byte_size(&self) -> usize {
        self.blocks.len() * 4 + self.tags.len() + self.taken_srcs.len() * 8
    }

    /// Iterates the recorded steps, reconstructing each [`Step`]
    /// against `program`.
    ///
    /// # Panics
    ///
    /// Panics if a recorded block index is out of range for `program`
    /// (i.e. the stream was recorded from a different program).
    pub fn replay<'p>(&'p self, program: &'p Program) -> impl Iterator<Item = Step> + 'p {
        let mut srcs = self.taken_srcs.iter();
        self.blocks
            .iter()
            .zip(self.tags.iter())
            .map(move |(&idx, &tag)| {
                let block = program.blocks()[idx as usize].id();
                let entry = match tag {
                    ENTRY_START => Entry::Start,
                    ENTRY_FALLTHROUGH => Entry::Fallthrough,
                    t => Entry::Taken {
                        src: *srcs.next().expect("taken entry has a recorded source"),
                        kind: tag_to_kind(t - ENTRY_TAKEN_BASE)
                            .expect("recorded tag encodes a branch kind"),
                    },
                };
                Step {
                    block,
                    start: program.block(block).start(),
                    entry,
                }
            })
    }

    pub(crate) fn raw_parts(&self) -> (&[u32], &[u8], &[rsel_program::Addr]) {
        (&self.blocks, &self.tags, &self.taken_srcs)
    }

    pub(crate) fn from_raw_parts(
        blocks: Vec<u32>,
        tags: Vec<u8>,
        taken_srcs: Vec<rsel_program::Addr>,
    ) -> Self {
        CompactStream {
            blocks,
            tags,
            taken_srcs,
        }
    }
}

impl FromIterator<Step> for CompactStream {
    fn from_iter<I: IntoIterator<Item = Step>>(iter: I) -> Self {
        CompactStream::record(iter)
    }
}

impl Extend<Step> for CompactStream {
    fn extend<I: IntoIterator<Item = Step>>(&mut self, iter: I) {
        for step in iter {
            self.blocks
                .push(u32::try_from(step.block.index()).expect("block index fits in 32 bits"));
            match step.entry {
                Entry::Start => self.tags.push(ENTRY_START),
                Entry::Fallthrough => self.tags.push(ENTRY_FALLTHROUGH),
                Entry::Taken { src, kind } => {
                    self.tags.push(ENTRY_TAKEN_BASE + kind_to_tag(kind));
                    self.taken_srcs.push(src);
                }
            }
        }
    }
}

/// Summary statistics of an execution stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Basic blocks executed.
    pub blocks: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Taken branches observed.
    pub taken_branches: u64,
    /// Taken branches whose target is at or below the source
    /// (*backward* branches, the NET/LEI profiling trigger).
    pub backward_taken: u64,
}

impl StreamStats {
    /// Computes statistics for `steps` executed over `program` in one
    /// pass.
    pub fn collect<'a>(program: &Program, steps: impl IntoIterator<Item = &'a Step>) -> Self {
        let mut s = StreamStats::default();
        for step in steps {
            s.blocks += 1;
            s.instructions += program.block(step.block).len() as u64;
            if let Entry::Taken { src, .. } = step.entry {
                s.taken_branches += 1;
                if step.start.is_backward_from(src) {
                    s.backward_taken += 1;
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsel_program::{BehaviorSpec, Executor, ProgramBuilder};

    /// A four-trip loop and its live executor steps: the reference
    /// every recording is checked against.
    fn run() -> (Program, Vec<Step>) {
        let mut b = ProgramBuilder::new();
        let f = b.function("main", 0x100);
        let head = b.block(f);
        let body = b.block(f);
        let exit = b.block_with(f, 0);
        let _ = head;
        b.cond_branch(body, head);
        b.ret(exit);
        let p = b.build().unwrap();
        let mut spec = BehaviorSpec::new(1);
        spec.loop_trips(p.block(body).branch_addr().unwrap(), 4);
        let live = Executor::new(&p, spec).collect();
        (p, live)
    }

    #[test]
    fn stats_count_backward_branches() {
        let (p, live) = run();
        let stats = StreamStats::collect(&p, &live);
        // 4 iterations -> 3 backward taken branches (the 4th falls out).
        assert_eq!(stats.backward_taken, 3);
        assert_eq!(stats.blocks, live.len() as u64);
        assert!(stats.instructions >= stats.blocks);
    }

    #[test]
    fn compact_replay_is_bit_identical() {
        let (p, live) = run();
        let compact = CompactStream::record(live.iter().copied());
        let replayed: Vec<Step> = compact.replay(&p).collect();
        assert_eq!(replayed, live);
        assert_eq!(compact.len(), live.len());
    }

    #[test]
    fn compact_is_smaller_than_full_steps() {
        let (_, live) = run();
        let compact = CompactStream::record(live.iter().copied());
        assert!(!compact.is_empty());
        assert!(compact.byte_size() < live.len() * std::mem::size_of::<Step>());
    }

    #[test]
    fn compact_taken_sources_preserved() {
        let (p, live) = run();
        let compact = CompactStream::record(live.iter().copied());
        // One zipped pass over both streams: every live taken entry
        // replays with the same source and kind.
        let mut live_taken = 0usize;
        for (live, replayed) in live.iter().zip(compact.replay(&p)) {
            match (live.entry, replayed.entry) {
                (Entry::Taken { src: a, kind: ka }, Entry::Taken { src: b, kind: kb }) => {
                    assert_eq!((a, ka), (b, kb));
                    live_taken += 1;
                }
                (l, r) => assert!(!l.is_taken() && !r.is_taken(), "{l:?} vs {r:?}"),
            }
        }
        assert_eq!(compact.taken_count(), live_taken);
    }

    #[test]
    fn compact_collects_from_iterator() {
        let (p, live) = run();
        let compact: CompactStream = live.iter().copied().collect();
        assert_eq!(compact, CompactStream::record(live.iter().copied()));
        assert!(compact.replay(&p).eq(live));
    }
}
