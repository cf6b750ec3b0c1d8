//! # thor-rd — simulated Thor RD target system
//!
//! The GOOFI paper's target is a board built around the Thor RD, a
//! radiation-hardened microprocessor from Saab Ericsson Space with
//! parity-protected instruction and data caches and IEEE 1149.1-style scan
//! chains reaching "almost 100% of the state elements". This crate is a
//! behavioural simulator of that target *as the host sees it*:
//!
//! * a 32-bit load/store CPU core ([`Machine`]) with PSW condition flags,
//!   arithmetic traps and a watchdog (DESIGN.md documents the ISA
//!   substitution),
//! * parity-protected direct-mapped I/D caches ([`Cache`]),
//! * memory-region protection ([`Memory`]),
//! * boundary and internal scan chains ([`ScanChain`]) with read-only
//!   observation fields,
//! * a host-side test card ([`TestCard`]) with workload download,
//!   breakpoints, scan access and debug events,
//! * a two-pass assembler ([`asm::assemble`]) for writing workloads.
//!
//! # Examples
//!
//! ```
//! use thor_rd::{asm::assemble, DebugEvent, MachineConfig, TestCard};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(
//!     "li r1, 6\n\
//!      li r2, 7\n\
//!      mul r3, r1, r2\n\
//!      la r4, out\n\
//!      st r3, (r4)\n\
//!      halt\n\
//!      .org 0x4000\n\
//!      out: .word 0\n",
//! )?;
//! let mut card = TestCard::new(MachineConfig::default());
//! card.download(&program)?;
//! assert_eq!(card.run(1_000_000), DebugEvent::Halted);
//! assert_eq!(card.read_memory(0x4000)?, 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod asm;
mod cache;
mod disasm;
mod edm;
mod isa;
mod machine;
mod memory;
mod scan;
mod testcard;
mod trace;

pub use asm::{AsmError, Program, Segment};
pub use cache::{Access, Cache, CacheConfig, CacheLine};
pub use disasm::disassemble;
pub use edm::{AccessKind, Exception, Mechanism};
pub use isa::{Cond, Instr, Reg, LINK_REG, NUM_REGS};
pub use machine::{CoreEvent, CoreState, Machine, MachineConfig, Step, PSW_C, PSW_N, PSW_V, PSW_Z};
pub use memory::{Memory, MemoryMap};
pub use scan::{BitVector, ChainField, Field, ScanChain};
pub use testcard::{CardError, CardSnapshot, DebugEvent, TestCard};
pub use trace::{Loc, StepInfo, Trace};
