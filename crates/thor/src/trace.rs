//! Execution-trace records: per-instruction read/write sets.
//!
//! These records serve two purposes from the paper: the *detail mode*
//! execution trace ("the system state is logged ... after the execution of
//! each machine instruction", Section 3.3) and the input to *pre-injection
//! analysis* ("determine when registers and other fault injection locations
//! hold live data", Section 4).

use serde::{Deserialize, Serialize};
use std::fmt;

/// An architectural location touched by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Loc {
    /// General-purpose register.
    Reg(u8),
    /// Memory word at a byte address.
    Mem(u32),
    /// Processor status word (condition flags).
    Psw,
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Loc::Reg(r) => write!(f, "r{r}"),
            Loc::Mem(a) => write!(f, "mem[{a:#x}]"),
            Loc::Psw => write!(f, "psw"),
        }
    }
}

/// What one executed instruction did.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepInfo {
    /// Address of the executed instruction.
    pub pc: u32,
    /// The raw instruction word.
    pub word: u32,
    /// Cycles consumed (1 + cache/multiplier penalties).
    pub cycles: u64,
    /// Locations read.
    pub reads: Vec<Loc>,
    /// Locations written.
    pub writes: Vec<Loc>,
    /// Whether this was a conditional branch.
    pub is_branch: bool,
    /// Whether this was a subprogram call (`jal`).
    pub is_call: bool,
    /// For branches: whether the branch was taken.
    pub branch_taken: bool,
}

impl StepInfo {
    pub(crate) fn new(pc: u32, word: u32) -> StepInfo {
        StepInfo {
            pc,
            word,
            cycles: 1,
            reads: Vec::new(),
            writes: Vec::new(),
            is_branch: false,
            is_call: false,
            branch_taken: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_display() {
        assert_eq!(Loc::Reg(3).to_string(), "r3");
        assert_eq!(Loc::Mem(0x100).to_string(), "mem[0x100]");
        assert_eq!(Loc::Psw.to_string(), "psw");
    }
}
