//! The whole-program container with address-indexed lookups.

use crate::addr::Addr;
use crate::block::{BasicBlock, BlockId};
use crate::error::BuildError;
use crate::function::{Function, FunctionId};
use crate::fxhash::{self, FxHashMap};
use crate::inst::Instruction;

/// A validated, immutable program: functions, basic blocks and
/// address-indexed lookup tables.
///
/// Construct with [`ProgramBuilder`](crate::ProgramBuilder). Validation
/// guarantees that every direct branch target and every reachable
/// fall-through address is the start of a basic block, so the execution
/// engine and the trace-formation algorithms can navigate by address
/// without error handling at every step. It also guarantees that each
/// block's instructions are contiguous (every instruction but the last
/// falls through to the next one in the block), so a walk along a
/// fall-through path may step over a whole block at once.
#[derive(Clone, Debug)]
pub struct Program {
    blocks: Vec<BasicBlock>,
    functions: Vec<Function>,
    entry: Addr,
    by_start: FxHashMap<Addr, BlockId>,
    /// Each instruction's block and its index within that block.
    by_inst: FxHashMap<Addr, (BlockId, u32)>,
}

impl Program {
    pub(crate) fn validated(
        blocks: Vec<BasicBlock>,
        functions: Vec<Function>,
        entry: Addr,
    ) -> Result<Self, BuildError> {
        if functions.is_empty() {
            return Err(BuildError::Empty);
        }
        for f in &functions {
            if f.blocks().is_empty() {
                return Err(BuildError::EmptyFunction {
                    name: f.name().to_string(),
                });
            }
        }
        let mut by_start = fxhash::map_with_capacity(blocks.len());
        let mut by_inst = FxHashMap::default();
        for b in &blocks {
            by_start.insert(b.start(), b.id());
            for (k, i) in b.instructions().iter().enumerate() {
                if by_inst.insert(i.addr(), (b.id(), k as u32)).is_some() {
                    return Err(BuildError::OverlappingAddresses { addr: i.addr() });
                }
            }
        }
        // Byte-range overlap: every instruction's bytes must not cross
        // into the next instruction's start address.
        {
            let mut addrs: Vec<&Instruction> =
                blocks.iter().flat_map(|b| b.instructions()).collect();
            addrs.sort_by_key(|i| i.addr());
            for w in addrs.windows(2) {
                if w[0].fallthrough_addr() > w[1].addr() {
                    return Err(BuildError::OverlappingAddresses { addr: w[1].addr() });
                }
            }
        }
        // Within a block, each instruction falls through to the next, so
        // a fall-through walk can step over a block as a unit.
        for b in &blocks {
            for w in b.instructions().windows(2) {
                if w[0].fallthrough_addr() != w[1].addr() {
                    return Err(BuildError::GapInBlock {
                        after: w[0].addr(),
                        next: w[1].addr(),
                    });
                }
            }
        }
        for b in &blocks {
            if let Some(target) = b.taken_target() {
                if !by_inst.contains_key(&target) {
                    return Err(BuildError::DanglingTarget {
                        src: b.terminator().addr(),
                        target,
                    });
                }
                if !by_start.contains_key(&target) {
                    return Err(BuildError::MidBlockTarget {
                        src: b.terminator().addr(),
                        target,
                    });
                }
            }
            if b.can_fall_through() && !by_start.contains_key(&b.fallthrough_addr()) {
                return Err(BuildError::DanglingFallthrough {
                    from: b.fallthrough_addr(),
                });
            }
        }
        Ok(Program {
            blocks,
            functions,
            entry,
            by_start,
            by_inst,
        })
    }

    /// The program's entry address (start of the first function built).
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// All basic blocks, in creation order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// All functions, in creation order.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// The function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    pub fn function(&self, id: FunctionId) -> &Function {
        &self.functions[id.index()]
    }

    /// The block starting exactly at `addr`, if any.
    pub fn block_at(&self, addr: Addr) -> Option<&BasicBlock> {
        self.by_start.get(&addr).map(|id| self.block(*id))
    }

    /// The block containing the instruction at `addr`, if any.
    pub fn block_containing(&self, addr: Addr) -> Option<&BasicBlock> {
        self.by_inst.get(&addr).map(|&(id, _)| self.block(id))
    }

    /// The instruction at exactly `addr`, if any.
    pub fn inst_at(&self, addr: Addr) -> Option<&Instruction> {
        let &(id, k) = self.by_inst.get(&addr)?;
        Some(&self.block(id).instructions()[k as usize])
    }

    /// Total number of instructions in the program.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }

    /// Total byte size of all instructions.
    pub fn byte_size(&self) -> u64 {
        self.blocks.iter().map(|b| b.byte_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::InstKind;

    fn two_block_program() -> Program {
        let mut b = ProgramBuilder::new();
        let f = b.function("f", 0x100);
        let b0 = b.block_with(f, 2);
        let b1 = b.block(f);
        b.fallthrough(b0, b1);
        b.ret(b1);
        b.build().unwrap()
    }

    #[test]
    fn lookup_by_start_and_inst() {
        let p = two_block_program();
        let b0 = &p.blocks()[0];
        assert_eq!(p.block_at(b0.start()).unwrap().id(), b0.id());
        let second_inst = b0.instructions()[1].addr();
        assert!(p.block_at(second_inst).is_none());
        assert_eq!(p.block_containing(second_inst).unwrap().id(), b0.id());
        assert_eq!(p.inst_at(second_inst).unwrap().addr(), second_inst);
        assert!(p.inst_at(Addr::new(0x9999)).is_none());
    }

    #[test]
    fn gap_inside_a_block_is_rejected() {
        // Two straight instructions with a byte hole between them; the
        // second ends the block.
        let block = BasicBlock::new(
            BlockId(0),
            vec![
                Instruction::new(Addr::new(0x100), 2, InstKind::Straight),
                Instruction::new(Addr::new(0x104), 2, InstKind::Ret),
            ],
        );
        let f = Function::new(
            FunctionId(0),
            "f".into(),
            Addr::new(0x100),
            vec![BlockId(0)],
        );
        let err = Program::validated(vec![block], vec![f], Addr::new(0x100)).unwrap_err();
        assert_eq!(
            err,
            BuildError::GapInBlock {
                after: Addr::new(0x100),
                next: Addr::new(0x104),
            }
        );
    }

    #[test]
    fn inst_at_finds_every_instruction() {
        let p = two_block_program();
        for b in p.blocks() {
            for i in b.instructions() {
                assert_eq!(p.inst_at(i.addr()), Some(i));
                assert_eq!(p.block_containing(i.addr()).unwrap().id(), b.id());
            }
        }
    }

    #[test]
    fn inst_count_and_bytes() {
        let p = two_block_program();
        assert_eq!(p.inst_count(), 4);
        assert!(p.byte_size() >= 3);
    }

    #[test]
    fn entry_is_first_function() {
        let p = two_block_program();
        assert_eq!(p.entry(), Addr::new(0x100));
        assert_eq!(p.functions().len(), 1);
        assert_eq!(p.function(p.functions()[0].id()).name(), "f");
    }
}
