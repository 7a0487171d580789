//! The block-granular trace walks against instruction-granular oracles.
//!
//! FORM-TRACE (`form_trace_from_branches`) and `CompactTrace::decode`
//! advance a basic block at a time and fall back to an instruction walk
//! when a branch source, branch target or trace end lies strictly
//! inside a block. The oracles below are the plain instruction walks:
//! every instruction looked up by address, every check made per
//! instruction. Random inputs are drawn from the suite programs and
//! deliberately include stale buffer entries, sources and targets
//! inside blocks, cached region entries and traces that end inside a
//! block, so both the fast path and the fallbacks are compared.
//!
//! Trace combination reads an observed trace's formed block path
//! instead of decoding its compact encoding, so the same draws also
//! check that decoding every formed trace gives back its path: both
//! FORM-TRACE output and NET traces grown by `TraceGrower` from the
//! drawn start through the drawn cache.

use proptest::prelude::*;
use regionsel::core::select::lei::{FormedTrace, form_trace_from_branches};
use regionsel::core::select::{GrownTrace, TraceGrower};
use regionsel::core::{CodeCache, Region};
use regionsel::program::fxhash::FxHashSet;
use regionsel::program::{Addr, InstKind, Program};
use regionsel::trace::{AddrWidth, CompactTrace, DecodeError, DecodedPath, TraceRecorder};
use regionsel::workloads::{Scale, suite};
use std::sync::OnceLock;

/// The suite programs at test scale.
fn programs() -> &'static [Program] {
    static PROGRAMS: OnceLock<Vec<Program>> = OnceLock::new();
    PROGRAMS.get_or_init(|| {
        suite()
            .iter()
            .map(|w| w.build(2005, Scale::Test).0)
            .collect()
    })
}

/// SplitMix64: a small deterministic generator for the draws.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `pct` percent.
    fn pct(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

fn block_start(p: &Program, rng: &mut Rng) -> Addr {
    p.blocks()[rng.below(p.blocks().len())].start()
}

/// A non-terminator instruction of a random multi-instruction block.
fn mid_block(p: &Program, rng: &mut Rng) -> Addr {
    loop {
        let b = &p.blocks()[rng.below(p.blocks().len())];
        if b.len() > 1 {
            return b.instructions()[rng.below(b.len() - 1)].addr();
        }
    }
}

/// Which paths of the instruction walk a draw exercised.
#[derive(Clone, Copy, Debug, Default)]
struct Seen {
    /// The walk left a block from a non-terminator or entered one
    /// mid-way (the block walks' fallback).
    mid_block: bool,
    /// The trace ended inside a block (decode only).
    ended_mid_block: bool,
    /// The walk stopped at a cached region entry.
    cached: bool,
    /// A recorded transfer did not match its instruction.
    stale: bool,
    /// The walk ran through whole blocks only.
    whole_blocks: bool,
    /// A NET trace was grown from the draw (FORM-TRACE draws only).
    grown: bool,
}

// ---------------------------------------------------------------------
// FORM-TRACE
// ---------------------------------------------------------------------

/// FORM-TRACE (paper Figure 6) an instruction at a time.
fn oracle_form(
    p: &Program,
    cache: &CodeCache,
    start: Addr,
    branches: &[(Addr, Addr)],
    seen: &mut Seen,
) -> Option<FormedTrace> {
    let mut blocks = Vec::new();
    let mut in_trace: FxHashSet<Addr> = FxHashSet::default();
    let mut rec = TraceRecorder::new(start, AddrWidth::W32);
    let mut prev = start;
    let mut last_inst = start;
    'branches: for &(src, tgt) in branches {
        let mut cur = prev;
        if p.inst_at(cur).is_some() && p.block_at(cur).is_none() {
            seen.mid_block = true;
        }
        loop {
            if cache.contains(cur) {
                seen.cached = true;
                break 'branches;
            }
            if in_trace.contains(&cur) {
                break 'branches;
            }
            let Some(inst) = p.inst_at(cur) else {
                seen.stale = true;
                break 'branches;
            };
            in_trace.insert(cur);
            if p.block_at(cur).is_some() {
                blocks.push(cur);
            }
            last_inst = cur;
            if cur == src {
                if p.block_containing(cur).unwrap().terminator().addr() != cur {
                    seen.mid_block = true;
                }
                let fresh = match inst.kind() {
                    InstKind::CondBranch { target } => {
                        if tgt == target {
                            rec.record_cond(true);
                            true
                        } else if tgt == inst.fallthrough_addr() {
                            rec.record_cond(false);
                            true
                        } else {
                            false
                        }
                    }
                    InstKind::IndirectJump | InstKind::IndirectCall | InstKind::Ret => {
                        rec.record_indirect(tgt);
                        true
                    }
                    InstKind::Jump { target } | InstKind::Call { target } => tgt == target,
                    InstKind::Straight => tgt == inst.fallthrough_addr(),
                };
                if !fresh {
                    seen.stale = true;
                    break 'branches;
                }
                break;
            }
            match inst.kind() {
                InstKind::Straight => {}
                InstKind::CondBranch { .. } => rec.record_cond(false),
                _ => break 'branches,
            }
            cur = inst.fallthrough_addr();
        }
        if in_trace.contains(&tgt) {
            break;
        }
        prev = tgt;
    }
    if blocks.is_empty() {
        return None;
    }
    Some(FormedTrace {
        blocks,
        compact: rec.finish(last_inst),
        insts: in_trace.len(),
    })
}

/// Draws a FORM-TRACE input: a start, a branch sequence along a real
/// path with some entries perturbed, and a cache with some entries.
fn draw_form(p: &Program, rng: &mut Rng) -> (Addr, Vec<(Addr, Addr)>, CodeCache) {
    let start = if rng.pct(5) {
        mid_block(p, rng)
    } else {
        block_start(p, rng)
    };
    let mut branches = Vec::new();
    let mut path = vec![start];
    let mut cur = start;
    for _ in 0..rng.below(24) + 1 {
        let Some(b) = p.block_containing(cur) else {
            break;
        };
        let term = b.terminator();
        let (src, tgt) = match term.kind() {
            InstKind::Straight | InstKind::CondBranch { .. } if rng.pct(60) => {
                // Fall through, sometimes recorded as an exit landing.
                if rng.pct(15) {
                    branches.push((term.addr(), term.fallthrough_addr()));
                }
                cur = term.fallthrough_addr();
                path.push(cur);
                continue;
            }
            InstKind::Straight => (term.addr(), term.fallthrough_addr()),
            InstKind::CondBranch { target }
            | InstKind::Jump { target }
            | InstKind::Call { target } => (term.addr(), target),
            InstKind::IndirectJump | InstKind::IndirectCall | InstKind::Ret => {
                let tgt = if rng.pct(30) {
                    start
                } else {
                    block_start(p, rng)
                };
                (term.addr(), tgt)
            }
        };
        let (src, tgt) = match rng.below(100) {
            // A stale target.
            0..=4 => (src, block_start(p, rng)),
            // A target inside a block.
            5..=9 => (src, mid_block(p, rng)),
            // A source inside the current block, falling through.
            10..=14 if b.len() > 1 => {
                let inst = &b.instructions()[rng.below(b.len() - 1)];
                (inst.addr(), inst.fallthrough_addr())
            }
            // An address holding no instruction.
            15..=16 => (src, Addr::new(0xffff_fff0)),
            _ => (src, tgt),
        };
        branches.push((src, tgt));
        cur = tgt;
        path.push(cur);
    }
    if rng.pct(50) {
        // Close the cycle back at the start.
        if let Some(b) = p.block_containing(cur) {
            branches.push((b.terminator().addr(), start));
        }
    }
    let mut cache = CodeCache::new();
    if rng.pct(30) {
        for _ in 0..rng.below(3) + 1 {
            let at = path[rng.below(path.len())];
            if p.block_at(at).is_some() && !cache.contains(at) {
                cache.insert(Region::trace(p, &[at]));
            }
        }
    }
    (start, branches, cache)
}

fn check_form(rng: &mut Rng, totals: &mut [usize; 6]) {
    let p = &programs()[rng.below(programs().len())];
    let (start, branches, cache) = draw_form(p, rng);
    let mut seen = Seen::default();
    let want = oracle_form(p, &cache, start, &branches, &mut seen);
    let got = form_trace_from_branches(p, &cache, start, &branches, AddrWidth::W32);
    assert_eq!(got, want, "start {start}, branches {branches:?}");
    if let Some(t) = got {
        assert_decodes_to_path(p, &t.compact, &t.blocks);
    }
    if p.block_at(start).is_some() {
        if let Some(t) = grow(p, &cache, start, rng) {
            assert_decodes_to_path(p, &t.compact, &t.blocks);
            seen.grown = true;
        }
    }
    seen.whole_blocks = !seen.mid_block && want.is_some();
    tally(seen, totals);
}

/// Grows a NET trace from the block at `start` along a random
/// interpreted path, feeding the grower as the simulator does: each
/// transfer out of the last block, then the block it reaches.
fn grow(p: &Program, cache: &CodeCache, start: Addr, rng: &mut Rng) -> Option<GrownTrace> {
    let mut grower = TraceGrower::new(start, rng.below(256) + 1, AddrWidth::W32);
    let mut at = start;
    loop {
        if let Some(t) = grower.feed_block(p, at) {
            return Some(t);
        }
        let term = p
            .block_at(at)
            .expect("the walk stays on blocks")
            .terminator();
        let (tgt, taken) = match term.kind() {
            InstKind::Straight => (term.fallthrough_addr(), false),
            InstKind::Jump { target } | InstKind::Call { target } => (target, true),
            InstKind::CondBranch { target } if rng.pct(50) => (target, true),
            InstKind::CondBranch { .. } => (term.fallthrough_addr(), false),
            InstKind::IndirectJump | InstKind::IndirectCall | InstKind::Ret => {
                (block_start(p, rng), true)
            }
        };
        if let Some(t) = grower.feed_transfer(cache, term.addr(), tgt, taken) {
            return Some(t);
        }
        // Falling off the end of the program text ends the walk.
        p.block_at(tgt)?;
        at = tgt;
    }
}

/// A formed trace's compact encoding decodes to its block path.
fn assert_decodes_to_path(p: &Program, compact: &CompactTrace, blocks: &[Addr]) {
    let decoded = compact.decode(p).map(|d| d.blocks);
    assert_eq!(decoded.as_deref(), Ok(blocks), "trace {compact:?}");
}

// ---------------------------------------------------------------------
// Compact-trace decoding
// ---------------------------------------------------------------------

/// One recorded branch code (paper Figure 14).
#[derive(Clone, Copy, Debug)]
enum Code {
    Cond(bool),
    Indirect(Addr),
}

/// Decodes a trace given as its code sequence, an instruction at a
/// time, with the bit-stream decoder's error reporting.
fn oracle_decode(
    p: &Program,
    start: Addr,
    codes: &[Code],
    end: Addr,
    seen: &mut Seen,
) -> Result<DecodedPath, DecodeError> {
    let mut codes = codes.iter();
    let mut insts = Vec::new();
    let mut blocks = Vec::new();
    let mut addr = start;
    // Whether `addr` was reached by stepping over a straight instruction.
    let mut fell_through = false;
    loop {
        let inst = p
            .inst_at(addr)
            .ok_or(DecodeError::UnknownInstruction(addr))?;
        insts.push(addr);
        if p.block_at(addr).is_some() {
            blocks.push(addr);
        } else if !fell_through {
            seen.mid_block = true;
        }
        fell_through = inst.kind() == InstKind::Straight;
        if addr == end {
            if p.block_containing(addr).unwrap().terminator().addr() != addr {
                seen.ended_mid_block = true;
            }
            let exit_target = match codes.next() {
                None => None,
                Some(Code::Cond(true)) => inst.kind().static_target(),
                Some(Code::Cond(false)) => Some(inst.fallthrough_addr()),
                Some(Code::Indirect(a)) => Some(*a),
            };
            if codes.next().is_some() {
                return Err(DecodeError::UnexpectedCode { at: end });
            }
            return Ok(DecodedPath {
                insts,
                blocks,
                exit_target,
            });
        }
        addr = match inst.kind() {
            InstKind::Straight => inst.fallthrough_addr(),
            InstKind::Jump { target } | InstKind::Call { target } => target,
            InstKind::CondBranch { target } => match codes.next() {
                Some(Code::Cond(true)) => target,
                Some(Code::Cond(false)) => inst.fallthrough_addr(),
                Some(Code::Indirect(_)) => return Err(DecodeError::UnexpectedCode { at: addr }),
                None => return Err(DecodeError::OutOfBits),
            },
            InstKind::IndirectJump | InstKind::IndirectCall | InstKind::Ret => match codes.next() {
                Some(Code::Indirect(a)) => *a,
                Some(Code::Cond(_)) => return Err(DecodeError::UnexpectedCode { at: addr }),
                None => return Err(DecodeError::OutOfBits),
            },
        };
    }
}

/// Draws a compact trace by walking a suite program with random branch
/// outcomes and ending at a random instruction: mostly a terminator,
/// sometimes inside a block, sometimes after recording the final
/// branch's own outcome.
fn draw_trace(p: &Program, rng: &mut Rng) -> (Addr, Vec<Code>, Addr) {
    let start = if rng.pct(10) {
        mid_block(p, rng)
    } else {
        block_start(p, rng)
    };
    let mut codes = Vec::new();
    let mut addr = start;
    let mut visited = FxHashSet::default();
    let steps = rng.below(120) + 1;
    for step in 0.. {
        let inst = p.inst_at(addr).expect("draws stay on instructions");
        visited.insert(addr);
        let is_term = p.block_containing(addr).unwrap().terminator().addr() == addr;
        let stop = step >= steps && (is_term || rng.pct(20));
        let coded = codes.len();
        let next = match inst.kind() {
            InstKind::Straight => inst.fallthrough_addr(),
            InstKind::Jump { target } | InstKind::Call { target } => target,
            InstKind::CondBranch { target } => {
                let taken = rng.pct(50);
                codes.push(Code::Cond(taken));
                if taken {
                    target
                } else {
                    inst.fallthrough_addr()
                }
            }
            InstKind::IndirectJump | InstKind::IndirectCall | InstKind::Ret => {
                let tgt = if rng.pct(10) {
                    mid_block(p, rng)
                } else {
                    block_start(p, rng)
                };
                codes.push(Code::Indirect(tgt));
                tgt
            }
        };
        if stop || visited.contains(&next) || p.inst_at(next).is_none() {
            // The final instruction's own outcome stays recorded only
            // sometimes (where an observed execution left the trace).
            if rng.pct(50) {
                codes.truncate(coded);
            }
            if rng.pct(3) {
                // A corrupted tail: a code that does not fit.
                codes.push(Code::Cond(true));
            }
            return (start, codes, addr);
        }
        addr = next;
    }
    unreachable!()
}

fn encode(start: Addr, codes: &[Code], end: Addr) -> CompactTrace {
    let mut rec = TraceRecorder::new(start, AddrWidth::W32);
    for c in codes {
        match *c {
            Code::Cond(taken) => rec.record_cond(taken),
            Code::Indirect(a) => rec.record_indirect(a),
        }
    }
    rec.finish(end)
}

fn check_decode(rng: &mut Rng, totals: &mut [usize; 6]) {
    let p = &programs()[rng.below(programs().len())];
    let (start, codes, end) = draw_trace(p, rng);
    let mut seen = Seen::default();
    let want = oracle_decode(p, start, &codes, end, &mut seen);
    let got = encode(start, &codes, end).decode(p);
    assert_eq!(got, want, "start {start}, codes {codes:?}, end {end}");
    seen.whole_blocks = !seen.mid_block && !seen.ended_mid_block && want.is_ok();
    tally(seen, totals);
}

fn tally(seen: Seen, totals: &mut [usize; 6]) {
    let flags = [
        seen.mid_block,
        seen.ended_mid_block,
        seen.cached,
        seen.stale,
        seen.whole_blocks,
        seen.grown,
    ];
    for (t, f) in totals.iter_mut().zip(flags) {
        *t += usize::from(f);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn form_trace_matches_the_instruction_walk(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        for _ in 0..8 {
            check_form(&mut rng, &mut [0; 6]);
        }
    }

    #[test]
    fn decode_matches_the_instruction_walk(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        for _ in 0..8 {
            check_decode(&mut rng, &mut [0; 6]);
        }
    }
}

/// The draws reach every path the block walks distinguish, so the
/// properties above compare fallbacks as well as the fast path.
#[test]
fn draws_cover_fast_path_and_fallbacks() {
    let mut rng = Rng(2005);
    let mut form = [0; 6];
    let mut decode = [0; 6];
    for _ in 0..500 {
        check_form(&mut rng, &mut form);
        check_decode(&mut rng, &mut decode);
    }
    let [mid, _, cached, stale, whole, grown] = form;
    assert!(
        mid > 0 && cached > 0 && stale > 0 && whole > 0 && grown > 0,
        "FORM-TRACE draws {form:?}"
    );
    let [mid, ended_mid, _, _, whole, _] = decode;
    assert!(
        mid > 0 && ended_mid > 0 && whole > 0,
        "decode draws {decode:?}"
    );
}
