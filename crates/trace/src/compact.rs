//! The compact trace representation of the paper's Figure 14.
//!
//! Trace combination (paper §4.2.1) stores every observed trace until a
//! region is selected. To keep that memory overhead low, a trace is
//! stored as a sequence of two-bit branch-outcome codes:
//!
//! - `01` + target address — taken branch with an unknown (indirect)
//!   target;
//! - `10` — conditional branch, not taken;
//! - `11` — conditional branch, taken;
//! - direct unconditional jumps and calls consume no bits at all;
//! - the stream ends with `00` followed by the address of the last
//!   instruction in the trace.
//!
//! Decoding replays the codes against the program, reconstructing the
//! exact instruction (and basic-block) path — the optimizer "must
//! already decode each instruction and identify all branch targets", so
//! the representation "leads to a simple CFG construction algorithm that
//! decodes each instruction at most once".

use crate::bitstring::{BitReader, BitString};
use rsel_program::{Addr, InstKind, Instruction, Program};
use std::error::Error;
use std::fmt;

/// Width used to store explicit addresses in a compact trace.
///
/// The paper notes indirect targets require "an additional 32 or 64
/// bits"; the default is 32, matching the IA-32 setting of the original
/// evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AddrWidth {
    /// 32-bit addresses.
    #[default]
    W32,
    /// 64-bit addresses.
    W64,
}

impl AddrWidth {
    /// Number of bits per stored address.
    pub fn bits(self) -> u32 {
        match self {
            AddrWidth::W32 => 32,
            AddrWidth::W64 => 64,
        }
    }
}

const CODE_INDIRECT: u64 = 0b01;
const CODE_NOT_TAKEN: u64 = 0b10;
const CODE_TAKEN: u64 = 0b11;
const CODE_END: u64 = 0b00;

/// Incremental encoder used while *observing* a trace.
///
/// The selector drives it as execution unfolds: call
/// [`TraceRecorder::record_cond`] at each conditional branch,
/// [`TraceRecorder::record_indirect`] at each indirect branch or return,
/// nothing at direct jumps/calls, and [`TraceRecorder::finish`] with the
/// address of the trace's final instruction.
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    start: Addr,
    width: AddrWidth,
    bits: BitString,
}

impl TraceRecorder {
    /// Starts recording a trace whose first instruction is at `start`.
    pub fn new(start: Addr, width: AddrWidth) -> Self {
        TraceRecorder {
            start,
            width,
            bits: BitString::new(),
        }
    }

    fn push_addr(&mut self, addr: Addr) {
        let raw = addr.raw();
        if self.width == AddrWidth::W32 {
            assert!(
                raw <= u64::from(u32::MAX),
                "address {addr} exceeds 32-bit width"
            );
        }
        self.bits.push_bits(raw, self.width.bits());
    }

    /// Records the outcome of a conditional branch.
    pub fn record_cond(&mut self, taken: bool) {
        self.bits
            .push_bits(if taken { CODE_TAKEN } else { CODE_NOT_TAKEN }, 2);
    }

    /// Records a taken branch whose target is not statically known.
    pub fn record_indirect(&mut self, target: Addr) {
        self.bits.push_bits(CODE_INDIRECT, 2);
        self.push_addr(target);
    }

    /// Finishes the trace, noting its final instruction address.
    pub fn finish(mut self, last_inst: Addr) -> CompactTrace {
        self.bits.push_bits(CODE_END, 2);
        self.push_addr(last_inst);
        CompactTrace {
            start: self.start,
            width: self.width,
            bits: self.bits,
        }
    }
}

/// A fully encoded observed trace (paper Figure 14).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactTrace {
    start: Addr,
    width: AddrWidth,
    bits: BitString,
}

/// The path reconstructed from a [`CompactTrace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodedPath {
    /// Every instruction address on the path, in execution order.
    pub insts: Vec<Addr>,
    /// The start address of every basic block entered, in order
    /// (including the first).
    pub blocks: Vec<Addr>,
    /// Where control went after the final instruction, when the trace
    /// recorded it (the final branch's outcome, if it was a branch with
    /// a recorded outcome).
    pub exit_target: Option<Addr>,
}

/// An error reconstructing a compact trace against a program.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The path reached an address holding no instruction.
    UnknownInstruction(Addr),
    /// The bit stream ended before the path did.
    OutOfBits,
    /// An indirect branch was reached but the next code was not an
    /// indirect-target code.
    UnexpectedCode {
        /// Address of the branch being decoded.
        at: Addr,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnknownInstruction(a) => {
                write!(f, "no instruction at {a} while decoding trace")
            }
            DecodeError::OutOfBits => write!(f, "compact trace ended prematurely"),
            DecodeError::UnexpectedCode { at } => {
                write!(f, "unexpected branch code at {at}")
            }
        }
    }
}

impl Error for DecodeError {}

impl CompactTrace {
    /// The address of the first instruction.
    pub fn start(&self) -> Addr {
        self.start
    }

    /// Bytes of storage this trace occupies (code bits rounded up, plus
    /// the start address), as charged by the Figure 18 memory
    /// accounting.
    pub fn byte_len(&self) -> usize {
        self.bits.byte_len() + (self.width.bits() as usize) / 8
    }

    /// Reconstructs the instruction and block path against `program`.
    ///
    /// The terminator and end address sit at a fixed position at the
    /// tail of the bit stream, so decoding first splits the stream into
    /// `codes ++ [00] ++ end-address`, then replays the codes from the
    /// trace start until the walk reaches the end address. Any codes
    /// left over at that point describe the final instruction's own
    /// outcome (where the observed execution *exited* the trace) and are
    /// surfaced as [`DecodedPath::exit_target`].
    ///
    /// Traces produced by NET, LEI and trace-combination observation
    /// never visit the same instruction twice (cycles close *at* the
    /// final branch), which is what makes the stop-at-end-address rule
    /// unambiguous.
    ///
    /// Only block terminators consume codes, so the replay advances a
    /// basic block at a time. A trace whose walk enters a block mid-way
    /// or ends before a block's terminator is decoded again an
    /// instruction at a time, which yields the same path in every other
    /// case.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the program does not match the
    /// recording (different program, or corrupted bits).
    pub fn decode(&self, program: &Program) -> Result<DecodedPath, DecodeError> {
        let (mut r, end_addr) = self.split()?;
        let mut insts = Vec::new();
        let mut blocks = Vec::new();
        let mut addr = self.start;
        loop {
            let Some(block) = program.block_at(addr) else {
                return self.decode_by_insts(program);
            };
            let term = block.terminator();
            if (addr..term.addr()).contains(&end_addr) {
                return self.decode_by_insts(program);
            }
            blocks.push(addr);
            insts.extend(block.instructions().iter().map(|i| i.addr()));
            if term.addr() == end_addr {
                let exit_target =
                    self.read_exit(&mut r, term.kind(), term.fallthrough_addr(), end_addr)?;
                return Ok(DecodedPath {
                    insts,
                    blocks,
                    exit_target,
                });
            }
            addr = self.next_addr(&mut r, term)?;
        }
    }

    /// [`CompactTrace::decode`] an instruction at a time: the fallback
    /// for paths that enter or end inside a block.
    fn decode_by_insts(&self, program: &Program) -> Result<DecodedPath, DecodeError> {
        let (mut r, end_addr) = self.split()?;
        let mut insts = Vec::new();
        let mut blocks = Vec::new();
        let mut addr = self.start;
        loop {
            let inst = program
                .inst_at(addr)
                .ok_or(DecodeError::UnknownInstruction(addr))?;
            insts.push(addr);
            if program.block_at(addr).is_some() {
                blocks.push(addr);
            }
            if addr == end_addr {
                let exit_target =
                    self.read_exit(&mut r, inst.kind(), inst.fallthrough_addr(), addr)?;
                return Ok(DecodedPath {
                    insts,
                    blocks,
                    exit_target,
                });
            }
            addr = self.next_addr(&mut r, inst)?;
        }
    }

    /// Splits the stream into a reader over the branch codes and the
    /// trace's end address.
    fn split(&self) -> Result<(BitReader<'_>, Addr), DecodeError> {
        let aw = self.width.bits() as usize;
        let total = self.bits.bit_len();
        if total < aw + 2 {
            return Err(DecodeError::OutOfBits);
        }
        let end_addr = Addr::new(
            self.bits
                .bits_at(total - aw, aw as u32)
                .ok_or(DecodeError::OutOfBits)?,
        );
        let term = self
            .bits
            .bits_at(total - aw - 2, 2)
            .ok_or(DecodeError::OutOfBits)?;
        if term != CODE_END {
            return Err(DecodeError::UnexpectedCode { at: self.start });
        }
        Ok((self.bits.range_reader(0, total - aw - 2), end_addr))
    }

    /// Where control goes after `inst`, reading its code if it branches.
    fn next_addr(&self, r: &mut BitReader<'_>, inst: &Instruction) -> Result<Addr, DecodeError> {
        let at = inst.addr();
        Ok(match inst.kind() {
            InstKind::Straight => inst.fallthrough_addr(),
            InstKind::Jump { target } | InstKind::Call { target } => target,
            InstKind::CondBranch { target } => {
                match r.read_bits(2).ok_or(DecodeError::OutOfBits)? {
                    CODE_TAKEN => target,
                    CODE_NOT_TAKEN => inst.fallthrough_addr(),
                    _ => return Err(DecodeError::UnexpectedCode { at }),
                }
            }
            InstKind::IndirectJump | InstKind::IndirectCall | InstKind::Ret => {
                match r.read_bits(2).ok_or(DecodeError::OutOfBits)? {
                    CODE_INDIRECT => Addr::new(
                        r.read_bits(self.width.bits())
                            .ok_or(DecodeError::OutOfBits)?,
                    ),
                    _ => return Err(DecodeError::UnexpectedCode { at }),
                }
            }
        })
    }

    /// Parses any leftover code bits as the final instruction's outcome.
    fn read_exit(
        &self,
        r: &mut BitReader<'_>,
        last_kind: InstKind,
        fallthrough: Addr,
        end: Addr,
    ) -> Result<Option<Addr>, DecodeError> {
        if r.remaining() == 0 {
            return Ok(None);
        }
        let code = r.read_bits(2).ok_or(DecodeError::OutOfBits)?;
        let exit = match code {
            CODE_TAKEN => last_kind.static_target(),
            CODE_NOT_TAKEN => Some(fallthrough),
            CODE_INDIRECT => Some(Addr::new(
                r.read_bits(self.width.bits())
                    .ok_or(DecodeError::OutOfBits)?,
            )),
            _ => return Err(DecodeError::UnexpectedCode { at: end }),
        };
        if r.remaining() != 0 {
            return Err(DecodeError::UnexpectedCode { at: end });
        }
        Ok(exit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsel_program::ProgramBuilder;

    /// Program: b0 (cond -> b2), b1 (straight), b2 (indirect jump), b3 (ret)
    fn program() -> Program {
        let mut b = ProgramBuilder::new();
        let f = b.function("f", 0x100);
        let b0 = b.block(f);
        let b1 = b.block(f);
        let b2 = b.block(f);
        let b3 = b.block_with(f, 0);
        b.cond_branch(b0, b2);
        // b1 falls through into b2.
        let _ = b1;
        b.indirect_jump(b2);
        b.ret(b3);
        b.build().unwrap()
    }

    #[test]
    fn round_trip_taken_then_indirect() {
        let p = program();
        let b0 = &p.blocks()[0];
        let b2 = &p.blocks()[2];
        let b3 = &p.blocks()[3];
        let mut rec = TraceRecorder::new(b0.start(), AddrWidth::W32);
        rec.record_cond(true); // b0 -> b2
        rec.record_indirect(b3.start()); // b2 -> b3
        let ct = rec.finish(b3.terminator().addr());
        let path = ct.decode(&p).unwrap();
        assert_eq!(path.blocks, vec![b0.start(), b2.start(), b3.start()]);
        assert_eq!(path.exit_target, None);
        assert_eq!(*path.insts.last().unwrap(), b3.terminator().addr());
    }

    #[test]
    fn round_trip_not_taken_walks_fallthrough() {
        let p = program();
        let b0 = &p.blocks()[0];
        let b1 = &p.blocks()[1];
        let b2 = &p.blocks()[2];
        let mut rec = TraceRecorder::new(b0.start(), AddrWidth::W32);
        rec.record_cond(false); // falls into b1, then b2
        let ct = rec.finish(b2.terminator().addr());
        let path = ct.decode(&p).unwrap();
        assert_eq!(path.blocks, vec![b0.start(), b1.start(), b2.start()]);
    }

    #[test]
    fn final_branch_outcome_is_exposed() {
        let p = program();
        let b0 = &p.blocks()[0];
        let b2 = &p.blocks()[2];
        let mut rec = TraceRecorder::new(b0.start(), AddrWidth::W32);
        rec.record_cond(true);
        // The trace ends at b2's indirect jump, but we observed where it
        // went before finishing.
        rec.record_indirect(p.blocks()[3].start());
        let ct = rec.finish(b2.terminator().addr());
        let path = ct.decode(&p).unwrap();
        assert_eq!(*path.blocks.last().unwrap(), b2.start());
        assert_eq!(path.exit_target, Some(p.blocks()[3].start()));
    }

    #[test]
    fn single_block_trace() {
        let p = program();
        let b3 = &p.blocks()[3];
        let rec = TraceRecorder::new(b3.start(), AddrWidth::W32);
        let ct = rec.finish(b3.terminator().addr());
        let path = ct.decode(&p).unwrap();
        assert_eq!(path.blocks, vec![b3.start()]);
        assert_eq!(path.insts.len(), 1);
    }

    #[test]
    fn byte_len_matches_figure14_accounting() {
        let p = program();
        let b0 = &p.blocks()[0];
        let mut rec = TraceRecorder::new(b0.start(), AddrWidth::W32);
        rec.record_cond(true);
        let ct = rec.finish(p.blocks()[2].terminator().addr());
        // bits: 2 (cond) + 2 (end) + 32 (end addr) = 36 -> 5 bytes,
        // plus 4 bytes for the start address.
        assert_eq!(ct.byte_len(), 5 + 4);
    }

    #[test]
    fn end_mismatch_detected() {
        let p = program();
        let b0 = &p.blocks()[0];
        let mut rec = TraceRecorder::new(b0.start(), AddrWidth::W32);
        rec.record_cond(true);
        let ct = rec.finish(Addr::new(0x9999)); // bogus end
        // The walk follows codes; once bits run down to the tail the
        // terminator's address will not match where the walk stands.
        let err = ct.decode(&p).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::OutOfBits | DecodeError::UnknownInstruction(_)
        ));
    }

    #[test]
    fn wrong_program_detected() {
        let p = program();
        let b0 = &p.blocks()[0];
        let mut rec = TraceRecorder::new(b0.start(), AddrWidth::W32);
        rec.record_cond(true);
        rec.record_indirect(Addr::new(0xfff0)); // not an instruction
        let ct = rec.finish(Addr::new(0xfff0));
        assert!(matches!(
            ct.decode(&p),
            Err(DecodeError::UnknownInstruction(_))
        ));
    }

    #[test]
    fn w64_addresses_round_trip() {
        let p = program();
        let b0 = &p.blocks()[0];
        let b2 = &p.blocks()[2];
        let mut rec = TraceRecorder::new(b0.start(), AddrWidth::W64);
        rec.record_cond(true);
        let ct = rec.finish(b2.terminator().addr());
        let path = ct.decode(&p).unwrap();
        assert_eq!(path.blocks.len(), 2);
    }
}
