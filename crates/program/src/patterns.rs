//! Reusable control-flow pattern generators.
//!
//! [`ScenarioBuilder`] couples a [`ProgramBuilder`] with behaviour
//! intents keyed by block, so whole scenarios — loop nests, unbiased
//! diamonds, call sites, switches — can be declared in one place and
//! resolved to a `(Program, BehaviorSpec)` pair at build time. The
//! workload crate composes these patterns into its SPECint2000-like
//! benchmarks, and the repository's examples use them to reconstruct the
//! paper's Figures 2–4.

use crate::behavior::{BehaviorSpec, CondBehavior};
use crate::block::BlockId;
use crate::builder::ProgramBuilder;
use crate::error::BuildError;
use crate::function::FunctionId;
use crate::program::Program;

#[derive(Clone, Debug)]
enum IndirectIntent {
    Weighted(Vec<(BlockId, u32)>),
    RoundRobin(Vec<BlockId>),
}

/// A scenario under construction: program structure plus branch
/// behaviour, resolved together by [`ScenarioBuilder::build`].
///
/// # Example
///
/// ```
/// use rsel_program::patterns::ScenarioBuilder;
///
/// let mut s = ScenarioBuilder::new(11);
/// let f = s.function("main", 0x1000);
/// let lp = s.counted_loop(f, 2, 100);
/// s.ret_from(f, lp.exit);
/// let (program, spec) = s.build()?;
/// assert!(program.inst_count() > 0);
/// assert!(!spec.is_empty());
/// # Ok::<(), rsel_program::BuildError>(())
/// ```
#[derive(Debug)]
pub struct ScenarioBuilder {
    pb: ProgramBuilder,
    seed: u64,
    block_scale: u32,
    cond: Vec<(BlockId, CondBehavior)>,
    indirect: Vec<(BlockId, IndirectIntent)>,
}

/// The blocks of a loop created by [`ScenarioBuilder::counted_loop`].
#[derive(Clone, Copy, Debug)]
pub struct LoopShape {
    /// Loop header (branch target of the back edge).
    pub head: BlockId,
    /// Final body block; carries the backward conditional branch.
    pub latch: BlockId,
    /// Block executed when the loop exits (falls through from `latch`).
    pub exit: BlockId,
}

/// The blocks of an if/else diamond created by
/// [`ScenarioBuilder::diamond`].
#[derive(Clone, Copy, Debug)]
pub struct DiamondShape {
    /// Block ending with the conditional branch.
    pub split: BlockId,
    /// Taken-direction block.
    pub taken: BlockId,
    /// Fall-through-direction block.
    pub fallthrough: BlockId,
    /// Join block reached by both sides.
    pub join: BlockId,
}

impl ScenarioBuilder {
    /// Creates a scenario with the given behaviour seed.
    pub fn new(seed: u64) -> Self {
        ScenarioBuilder {
            pb: ProgramBuilder::new(),
            seed,
            block_scale: 1,
            cond: Vec::new(),
            indirect: Vec::new(),
        }
    }

    /// Multiplies the straight-instruction count of every subsequently
    /// created block by `k` (block "fatness"; the workloads use this to
    /// approach SPEC-like basic-block sizes).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn set_block_scale(&mut self, k: u32) {
        assert!(k > 0, "block scale must be positive");
        self.block_scale = k;
    }

    /// Declares a function at an explicit base address.
    pub fn function(&mut self, name: &str, base: u64) -> FunctionId {
        self.pb.function(name, base)
    }

    /// Declares a function placed after everything so far.
    pub fn function_auto(&mut self, name: &str) -> FunctionId {
        self.pb.function_auto(name, 0x40)
    }

    /// Makes `f` the program entry point (default: the first function
    /// declared).
    pub fn set_entry(&mut self, f: FunctionId) {
        self.pb.set_entry(f);
    }

    /// Adds a block with `straight` straight-line instructions
    /// (multiplied by the block scale; zero stays zero).
    pub fn block(&mut self, f: FunctionId, straight: u32) -> BlockId {
        self.pb.block_with(f, straight * self.block_scale)
    }

    /// Ends `b` with a conditional branch to `target`, taken with
    /// probability `p`.
    pub fn branch_p(&mut self, b: BlockId, target: BlockId, p: f64) {
        self.pb.cond_branch(b, target);
        self.cond.push((b, CondBehavior::Bernoulli(p)));
    }

    /// Ends `b` with a conditional branch to `target` behaving as a
    /// counted back edge with `trips` iterations.
    pub fn branch_trips(&mut self, b: BlockId, target: BlockId, trips: u32) {
        self.pb.cond_branch(b, target);
        self.cond.push((b, CondBehavior::Trips(trips)));
    }

    /// Ends `b` with a conditional branch with fully custom behaviour.
    pub fn branch_custom(&mut self, b: BlockId, target: BlockId, behavior: CondBehavior) {
        self.pb.cond_branch(b, target);
        self.cond.push((b, behavior));
    }

    /// Ends `b` with an unconditional jump to `target`.
    pub fn jump(&mut self, b: BlockId, target: BlockId) {
        self.pb.jump(b, target);
    }

    /// Ends `b` with a direct call to `callee`.
    pub fn call(&mut self, b: BlockId, callee: FunctionId) {
        self.pb.call(b, callee);
    }

    /// Ends `b` with an indirect jump over weighted targets.
    pub fn indirect_jump_weighted(&mut self, b: BlockId, targets: Vec<(BlockId, u32)>) {
        self.pb.indirect_jump(b);
        self.indirect.push((b, IndirectIntent::Weighted(targets)));
    }

    /// Ends `b` with an indirect jump cycling through `targets`.
    pub fn indirect_jump_round_robin(&mut self, b: BlockId, targets: Vec<BlockId>) {
        self.pb.indirect_jump(b);
        self.indirect.push((b, IndirectIntent::RoundRobin(targets)));
    }

    /// Ends `b` with a return.
    pub fn ret(&mut self, b: BlockId) {
        self.pb.ret(b);
    }

    /// Adds a fresh returning block to `f` and jumps to it from `b`.
    pub fn ret_from(&mut self, f: FunctionId, b: BlockId) -> BlockId {
        let r = self.block(f, 0);
        self.pb.ret(r);
        self.pb.jump(b, r);
        r
    }

    // ------------------------------------------------------------------
    // Composite patterns
    // ------------------------------------------------------------------

    /// Adds a counted loop: `head` falls into `latch`, whose backward
    /// branch re-enters `head` `trips - 1` times per entry.
    pub fn counted_loop(&mut self, f: FunctionId, body_straight: u32, trips: u32) -> LoopShape {
        let head = self.block(f, body_straight);
        let latch = self.block(f, 1);
        let exit = self.block(f, 1);
        self.branch_trips(latch, head, trips);
        LoopShape { head, latch, exit }
    }

    /// Adds an if/else diamond whose branch is taken with probability
    /// `p` and whose sides rejoin. The paper's Figure 4 uses `p = 0.5`
    /// (the unbiased case that causes tail duplication under NET).
    pub fn diamond(&mut self, f: FunctionId, p: f64, side_straight: u32) -> DiamondShape {
        let split = self.block(f, 1);
        let fallthrough = self.block(f, side_straight);
        let taken = self.block(f, side_straight);
        let join = self.block(f, 1);
        self.branch_p(split, taken, p);
        self.jump(fallthrough, join);
        // `taken` falls through to `join` (laid out immediately before).
        DiamondShape {
            split,
            taken,
            fallthrough,
            join,
        }
    }

    /// Adds a chain of `n` diamonds with the given taken-probabilities
    /// (cycled), returning the entry block of the first and the join of
    /// the last.
    pub fn diamond_chain(
        &mut self,
        f: FunctionId,
        n: usize,
        probabilities: &[f64],
    ) -> (BlockId, BlockId) {
        assert!(n > 0 && !probabilities.is_empty());
        let first = self.diamond(f, probabilities[0], 1);
        let mut last_join = first.join;
        for i in 1..n {
            let d = self.diamond(f, probabilities[i % probabilities.len()], 1);
            // The previous join falls through into this split because of
            // sequential layout; nothing to connect explicitly.
            let _ = d;
            last_join = d.join;
        }
        (first.split, last_join)
    }

    /// Resolves block-level intents to branch addresses and builds the
    /// final `(Program, BehaviorSpec)` pair.
    ///
    /// # Errors
    ///
    /// Propagates any [`BuildError`] from program validation.
    ///
    /// # Panics
    ///
    /// Panics if a behaviour was attached to a block that ended up
    /// without a branch terminator (a scenario construction bug).
    pub fn build(self) -> Result<(Program, BehaviorSpec), BuildError> {
        let program = self.pb.build()?;
        let mut spec = BehaviorSpec::new(self.seed);
        for (b, behavior) in self.cond {
            let addr = program
                .block(b)
                .branch_addr()
                .unwrap_or_else(|| panic!("behaviour attached to non-branching block {b}"));
            spec.set_cond(addr, behavior);
        }
        for (b, intent) in self.indirect {
            let addr = program
                .block(b)
                .branch_addr()
                .unwrap_or_else(|| panic!("behaviour attached to non-branching block {b}"));
            match intent {
                IndirectIntent::Weighted(targets) => {
                    let resolved = targets
                        .into_iter()
                        .map(|(t, w)| (program.block(t).start(), w))
                        .collect();
                    spec.indirect_weighted(addr, resolved);
                }
                IndirectIntent::RoundRobin(targets) => {
                    let resolved = targets
                        .into_iter()
                        .map(|t| program.block(t).start())
                        .collect();
                    spec.indirect_round_robin(addr, resolved);
                }
            }
        }
        Ok((program, spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;

    #[test]
    fn counted_loop_executes_trips() {
        let mut s = ScenarioBuilder::new(3);
        let f = s.function("main", 0x100);
        let lp = s.counted_loop(f, 1, 7);
        s.ret_from(f, lp.exit);
        let (p, spec) = s.build().unwrap();
        let steps: Vec<_> = Executor::new(&p, spec).collect();
        let latches = steps.iter().filter(|st| st.block == lp.latch).count();
        assert_eq!(latches, 7);
    }

    #[test]
    fn diamond_takes_both_sides_when_unbiased() {
        let mut s = ScenarioBuilder::new(5);
        let f = s.function("main", 0x100);
        let outer = s.block(f, 1);
        let d = s.diamond(f, 0.5, 1);
        let back = s.block(f, 1);
        s.branch_trips(back, outer, 200);
        let tail = s.block(f, 0);
        s.ret(tail);
        let _ = d;
        let (p, spec) = s.build().unwrap();
        let steps: Vec<_> = Executor::new(&p, spec).collect();
        let taken_side = steps.iter().filter(|st| st.block == d.taken).count();
        let fall_side = steps.iter().filter(|st| st.block == d.fallthrough).count();
        assert!(taken_side > 40, "taken side executed {taken_side}");
        assert!(fall_side > 40, "fall-through side executed {fall_side}");
        assert_eq!(taken_side + fall_side, 200);
    }

    #[test]
    fn diamond_chain_connects() {
        let mut s = ScenarioBuilder::new(5);
        let f = s.function("main", 0x100);
        let (_entry, last_join) = s.diamond_chain(f, 3, &[0.5, 0.9]);
        s.ret_from(f, last_join);
        let (p, spec) = s.build().unwrap();
        let steps: Vec<_> = Executor::new(&p, spec).collect();
        assert!(steps.len() >= 7, "all diamonds execute");
    }

    #[test]
    fn indirect_round_robin_resolves_block_targets() {
        let mut s = ScenarioBuilder::new(0);
        let f = s.function("main", 0x100);
        let sw = s.block(f, 1);
        let a = s.block(f, 1);
        let bdone = s.block(f, 0);
        let c = s.block(f, 1);
        s.indirect_jump_round_robin(sw, vec![a, c]);
        s.jump(a, bdone);
        s.ret(bdone);
        s.jump(c, bdone);
        let (p, spec) = s.build().unwrap();
        let steps: Vec<_> = Executor::new(&p, spec).collect();
        assert_eq!(steps[1].block, a);
    }

    #[test]
    #[should_panic(expected = "non-branching block")]
    fn behaviour_on_plain_block_panics() {
        let mut s = ScenarioBuilder::new(0);
        let f = s.function("main", 0x100);
        let b0 = s.block(f, 1);
        let b1 = s.block(f, 0);
        s.ret(b1);
        // Attach behaviour to a block whose terminator is fall-through.
        s.cond.push((b0, CondBehavior::Taken));
        let _ = s.build();
    }
}
