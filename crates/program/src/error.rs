//! Errors reported while constructing programs.

use crate::addr::Addr;
use std::error::Error;
use std::fmt;

/// An error detected while validating a program under construction.
///
/// Returned by [`ProgramBuilder::build`](crate::ProgramBuilder::build).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// Two instructions occupy overlapping byte ranges.
    OverlappingAddresses {
        /// Address at which the overlap was detected.
        addr: Addr,
    },
    /// A direct branch targets an address with no instruction.
    DanglingTarget {
        /// Address of the branching instruction.
        src: Addr,
        /// The target address that has no instruction.
        target: Addr,
    },
    /// A branch targets the middle of a basic block rather than its start.
    MidBlockTarget {
        /// Address of the branching instruction.
        src: Addr,
        /// The offending target address.
        target: Addr,
    },
    /// Two consecutive instructions of one block are not contiguous:
    /// the first does not fall through to the second's address.
    GapInBlock {
        /// Address of the instruction before the gap.
        after: Addr,
        /// Address of the next instruction in the same block.
        next: Addr,
    },
    /// A block that can fall through has no block at its fall-through
    /// address.
    DanglingFallthrough {
        /// End address of the falling-through block.
        from: Addr,
    },
    /// The program has no functions.
    Empty,
    /// A function has no blocks.
    EmptyFunction {
        /// Name of the empty function.
        name: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::OverlappingAddresses { addr } => {
                write!(f, "instructions overlap at {addr}")
            }
            BuildError::DanglingTarget { src, target } => {
                write!(
                    f,
                    "branch at {src} targets {target}, which holds no instruction"
                )
            }
            BuildError::MidBlockTarget { src, target } => {
                write!(f, "branch at {src} targets mid-block address {target}")
            }
            BuildError::GapInBlock { after, next } => {
                write!(
                    f,
                    "instruction at {after} does not fall through to {next}, the next in its block"
                )
            }
            BuildError::DanglingFallthrough { from } => {
                write!(f, "block ending at {from} falls through to no block")
            }
            BuildError::Empty => write!(f, "program has no functions"),
            BuildError::EmptyFunction { name } => {
                write!(f, "function `{name}` has no blocks")
            }
        }
    }
}

impl Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_specific() {
        let e = BuildError::DanglingTarget {
            src: Addr::new(1),
            target: Addr::new(2),
        };
        let msg = e.to_string();
        assert!(msg.contains("0x1") && msg.contains("0x2"));
        assert!(msg.chars().next().unwrap().is_lowercase());
        assert_eq!(BuildError::Empty.to_string(), "program has no functions");
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn Error> = Box::new(BuildError::Empty);
        assert!(e.source().is_none());
    }
}
