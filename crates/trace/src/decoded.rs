//! Decode-once struct-of-arrays replay streams.
//!
//! [`CompactStream`] is the *storage* format: 5 bytes per step plus a
//! taken-source side table. Replaying it reconstructs a full
//! [`Step`] per event, paying a block-table hash lookup and an
//! enum rebuild on every step — and the benchmark matrix replays the
//! same recording once per selector, so that decode cost is paid eight
//! times per workload.
//!
//! [`DecodedStream`] is the *execution* format: the compact stream's
//! dense per-step arrays (block index, entry tag, taken sources —
//! taken over from the compact form it consumes, never copied)
//! augmented with a prefix index into the taken-source table and
//! per-block tables (start address, instruction count, terminator
//! address, [`BlockId`]) resolved against the program up front. The
//! simulator's batch replay path iterates the arrays directly — no
//! per-step hashing, no `Step` materialization — and any consumer can
//! still materialize [`Step`]s via [`DecodedStream::steps`],
//! bit-identical to [`CompactStream::replay`] on the owned stream
//! (exposed again by [`DecodedStream::compact`]).
//!
//! Decoding also runs a *spin-phase* detector (in the spirit of
//! gamegirl's waitloop optimization): maximal runs where the stream
//! repeats the same short step cycle are recorded as [`SpinPhase`]s, so
//! a replay engine can verify one period and fast-forward the rest in
//! O(1) — see `rsel_core`'s guarded fast-forward for the conditions
//! under which that is byte-identical.

use crate::stream::{
    CompactStream, ENTRY_FALLTHROUGH, ENTRY_START, ENTRY_TAKEN_BASE, StreamStats, tag_to_kind,
};
use rsel_program::{Addr, BlockId, Entry, Program, Step};

/// Longest step cycle the spin detector recognises. Spin phases worth
/// skipping are tight loops (a handful of blocks per iteration); a
/// small bound keeps detection linear-ish and the verify cost per
/// phase trivial.
const MAX_PERIOD: usize = 64;

/// Minimum whole repetitions for a periodic run to be recorded. The
/// fast-forward path spends two periods (warm-up + verify) before it
/// can skip, so shorter runs cannot profit.
const MIN_REPS: usize = 4;

/// A maximal periodic run in a decoded stream: starting at step
/// `start`, the `period`-step cycle repeats `reps` whole times
/// (step-for-step identical, including entry kinds and branch
/// sources).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpinPhase {
    /// Index of the first step of the first repetition.
    pub start: u32,
    /// Steps per repetition.
    pub period: u32,
    /// Whole repetitions (`>= 4`).
    pub reps: u32,
}

impl SpinPhase {
    /// Index one past the last step covered by the whole repetitions.
    pub fn end(&self) -> usize {
        self.start as usize + self.period as usize * self.reps as usize
    }
}

/// A recorded execution decoded once into dense, directly-iterable
/// arrays (see the module docs).
///
/// ```
/// use rsel_program::{ProgramBuilder, BehaviorSpec, Executor, Step};
/// use rsel_trace::{CompactStream, DecodedStream};
///
/// let mut b = ProgramBuilder::new();
/// let f = b.function("main", 0x100);
/// let bb = b.block(f);
/// let ex = b.block_with(f, 0);
/// b.cond_branch(bb, bb);
/// b.ret(ex);
/// let p = b.build().unwrap();
/// let mut spec = BehaviorSpec::new(1);
/// spec.loop_trips(p.block(bb).branch_addr().unwrap(), 8);
/// let live: Vec<Step> = Executor::new(&p, spec.clone()).collect();
/// let compact = CompactStream::record(Executor::new(&p, spec));
/// let decoded = DecodedStream::decode(compact, &p);
/// let steps: Vec<Step> = decoded.steps().collect();
/// assert_eq!(steps, live);
/// assert!(!decoded.phases().is_empty(), "the spin loop is detected");
/// ```
#[derive(Clone, Debug)]
pub struct DecodedStream {
    /// The storage form this stream was decoded from. Its per-step
    /// arrays (block indices, entry tags, taken sources) *are* the
    /// decoded stream's per-step arrays — decoding takes ownership
    /// instead of duplicating hundreds of megabytes at Full scale.
    stream: CompactStream,
    /// Prefix count of taken entries: `taken_prefix[i]` is the number
    /// of taken steps before step `i`, so a taken step's source is
    /// `srcs[taken_prefix[i]]` — O(1) random access into the side
    /// table a sequential iterator would otherwise have to thread.
    taken_prefix: Vec<u32>,
    // Per-block tables, indexed by program block index.
    ids: Vec<BlockId>,
    starts: Vec<Addr>,
    lens: Vec<u32>,
    term_addrs: Vec<Addr>,
    /// Detected spin phases, sorted by `start`, non-overlapping.
    phases: Vec<SpinPhase>,
    stats: StreamStats,
}

impl DecodedStream {
    /// Decodes `stream` against `program`: resolves every block index
    /// through the program tables once, builds the prefix index into
    /// the taken-source table, detects spin phases, and accumulates
    /// the stream statistics — all in a single pass over the steps.
    /// The stream is consumed, not copied; [`DecodedStream::compact`]
    /// hands it back.
    ///
    /// # Panics
    ///
    /// Panics if a recorded block index is out of range for `program`
    /// (the stream was recorded from a different program), matching
    /// [`CompactStream::replay`].
    pub fn decode(stream: CompactStream, program: &Program) -> Self {
        let (blocks, tags, srcs) = stream.raw_parts();
        let pblocks = program.blocks();
        let mut ids = Vec::with_capacity(pblocks.len());
        let mut starts = Vec::with_capacity(pblocks.len());
        let mut lens = Vec::with_capacity(pblocks.len());
        let mut term_addrs = Vec::with_capacity(pblocks.len());
        for b in pblocks {
            ids.push(b.id());
            starts.push(b.start());
            lens.push(b.len() as u32);
            term_addrs.push(b.terminator().addr());
        }

        let mut taken_prefix = Vec::with_capacity(blocks.len());
        let mut stats = StreamStats::default();
        let mut taken = 0u32;
        for (&idx, &tag) in blocks.iter().zip(tags) {
            let idx = idx as usize;
            assert!(
                idx < pblocks.len(),
                "recorded block index {idx} out of range for program"
            );
            taken_prefix.push(taken);
            stats.blocks += 1;
            stats.instructions += u64::from(lens[idx]);
            if tag >= ENTRY_TAKEN_BASE {
                stats.taken_branches += 1;
                if starts[idx].is_backward_from(srcs[taken as usize]) {
                    stats.backward_taken += 1;
                }
                taken += 1;
            }
        }

        let phases = detect_phases(blocks, tags, &taken_prefix, srcs);
        DecodedStream {
            stream,
            taken_prefix,
            ids,
            starts,
            lens,
            term_addrs,
            phases,
            stats,
        }
    }

    /// The compact storage form this stream was decoded from.
    pub fn compact(&self) -> &CompactStream {
        &self.stream
    }

    /// Number of decoded steps.
    pub fn len(&self) -> usize {
        self.stream.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.stream.is_empty()
    }

    /// The program block index executed at step `i`.
    #[inline]
    pub fn block_index(&self, i: usize) -> usize {
        self.stream.raw_parts().0[i] as usize
    }

    /// How control arrived at step `i`.
    #[inline]
    pub fn entry_at(&self, i: usize) -> Entry {
        let (_, tags, srcs) = self.stream.raw_parts();
        match tags[i] {
            ENTRY_START => Entry::Start,
            ENTRY_FALLTHROUGH => Entry::Fallthrough,
            t => Entry::Taken {
                src: srcs[self.taken_prefix[i] as usize],
                kind: tag_to_kind(t - ENTRY_TAKEN_BASE)
                    .expect("recorded tag encodes a branch kind"),
            },
        }
    }

    /// The id of program block `bidx`.
    #[inline]
    pub fn block_id(&self, bidx: usize) -> BlockId {
        self.ids[bidx]
    }

    /// The start address of program block `bidx`.
    #[inline]
    pub fn block_start(&self, bidx: usize) -> Addr {
        self.starts[bidx]
    }

    /// The instruction count of program block `bidx`.
    #[inline]
    pub fn block_len(&self, bidx: usize) -> u32 {
        self.lens[bidx]
    }

    /// The terminator address of program block `bidx` — the
    /// fall-through source a replay engine attributes to a sequential
    /// entry, without a per-step block lookup.
    #[inline]
    pub fn term_addr(&self, bidx: usize) -> Addr {
        self.term_addrs[bidx]
    }

    /// The detected spin phases, sorted by start index. Phases never
    /// overlap each other's whole repetitions.
    pub fn phases(&self) -> &[SpinPhase] {
        &self.phases
    }

    /// Stream statistics accumulated during the single decode pass —
    /// no second walk over the steps.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Materializes step `i`, bit-identical to the `i`-th item of
    /// [`CompactStream::replay`].
    #[inline]
    pub fn step_at(&self, i: usize) -> Step {
        let bidx = self.block_index(i);
        Step {
            block: self.ids[bidx],
            start: self.starts[bidx],
            entry: self.entry_at(i),
        }
    }

    /// Iterates the stream as full [`Step`]s (bit-identical to
    /// [`CompactStream::replay`] on the source stream).
    pub fn steps(&self) -> impl Iterator<Item = Step> + '_ {
        (0..self.len()).map(|i| self.step_at(i))
    }
}

/// Whether steps `a` and `b` are identical: same block, same entry
/// kind, and (for taken entries) the same branch source.
#[inline]
fn step_eq(
    blocks: &[u32],
    tags: &[u8],
    taken_prefix: &[u32],
    srcs: &[Addr],
    a: usize,
    b: usize,
) -> bool {
    blocks[a] == blocks[b]
        && tags[a] == tags[b]
        && (tags[a] < ENTRY_TAKEN_BASE
            || srcs[taken_prefix[a] as usize] == srcs[taken_prefix[b] as usize])
}

/// Finds maximal periodic runs: at each step whose block last occurred
/// `p <= MAX_PERIOD` steps ago with an identical step, extends the
/// period-`p` match as far as it holds and records the run when it
/// covers at least [`MIN_REPS`] whole repetitions.
///
/// Failed extensions are bounded by a global work budget (2x the
/// stream length) so adversarially near-periodic streams cannot make
/// decoding quadratic: when the budget runs out, detection stops and
/// the remaining stream simply replays step by step (a performance
/// fallback, never a correctness concern).
fn detect_phases(
    blocks: &[u32],
    tags: &[u8],
    taken_prefix: &[u32],
    srcs: &[Addr],
) -> Vec<SpinPhase> {
    let n = blocks.len();
    let mut phases = Vec::new();
    if n < 2 * MIN_REPS {
        return phases;
    }
    let max_block = blocks.iter().copied().max().unwrap_or(0) as usize;
    // Last occurrence of each block index, for O(1) period candidates.
    let mut last = vec![usize::MAX; max_block + 1];
    let eq = |a: usize, b: usize| step_eq(blocks, tags, taken_prefix, srcs, a, b);
    let mut budget = 2 * n;
    let mut i = 0usize;
    while i < n {
        let b = blocks[i] as usize;
        let prev = last[b];
        last[b] = i;
        if prev != usize::MAX && i - prev <= MAX_PERIOD && budget > 0 && eq(i, prev) {
            let p = i - prev;
            let mut j = i + 1;
            while j < n && eq(j, j - p) {
                j += 1;
            }
            budget = budget.saturating_sub(j - i);
            // A later candidate can start inside the previous phase's
            // covered range; clamp it — any suffix of a periodic run
            // is still periodic — so phases stay disjoint.
            let last_end = phases.last().map(SpinPhase::end).unwrap_or(0);
            let s = prev.max(last_end);
            let reps = j.saturating_sub(s) / p;
            if reps >= MIN_REPS {
                phases.push(SpinPhase {
                    start: s as u32,
                    period: p as u32,
                    reps: reps as u32,
                });
                // Resume after the run; refresh the last-occurrence
                // table with the final period so detection right after
                // the run still sees its blocks.
                for k in (j - p)..j {
                    last[blocks[k] as usize] = k;
                }
                i = j;
                continue;
            }
        }
        i += 1;
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsel_program::{BehaviorSpec, Executor, ProgramBuilder};

    fn spin_run(trips: u32) -> (Program, CompactStream) {
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
        spec.loop_trips(p.block(body).branch_addr().unwrap(), trips);
        let stream = CompactStream::record(Executor::new(&p, spec));
        (p, stream)
    }

    #[test]
    fn decoded_steps_match_compact_replay() {
        let (p, stream) = spin_run(50);
        let n = stream.len();
        let decoded = DecodedStream::decode(stream, &p);
        let a: Vec<Step> = decoded.steps().collect();
        let b: Vec<Step> = decoded.compact().replay(&p).collect();
        assert_eq!(a, b);
        assert_eq!(decoded.len(), n);
    }

    #[test]
    fn stats_match_step_walk() {
        let (p, stream) = spin_run(50);
        let decoded = DecodedStream::decode(stream, &p);
        let steps: Vec<Step> = decoded.compact().replay(&p).collect();
        assert_eq!(decoded.stats(), StreamStats::collect(&p, &steps));
    }

    #[test]
    fn spin_phase_detected_and_covers_the_loop() {
        let (p, stream) = spin_run(1000);
        let decoded = DecodedStream::decode(stream, &p);
        let phases = decoded.phases();
        assert!(!phases.is_empty(), "a 1000-trip loop is a spin phase");
        let ph = phases[0];
        assert!(ph.reps as usize >= MIN_REPS);
        assert!(ph.end() <= decoded.len());
        // Every covered step really repeats with the phase period.
        for k in (ph.start as usize + ph.period as usize)..ph.end() {
            assert_eq!(
                decoded.step_at(k),
                decoded.step_at(k - ph.period as usize),
                "step {k}"
            );
        }
    }

    #[test]
    fn phases_are_sorted_and_disjoint() {
        let (p, stream) = spin_run(200);
        let decoded = DecodedStream::decode(stream, &p);
        let phases = decoded.phases();
        for w in phases.windows(2) {
            assert!(w[0].end() <= w[1].start as usize, "{w:?}");
        }
    }

    #[test]
    fn short_runs_are_not_phases() {
        let (p, stream) = spin_run(2);
        let decoded = DecodedStream::decode(stream, &p);
        assert!(decoded.phases().is_empty(), "below MIN_REPS");
    }
}
