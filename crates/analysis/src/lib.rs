//! # goofi-analysis — static workload analysis for GOOFI targets
//!
//! The campaign runner's one decision engine: every pruned, predicted
//! and class-proxied experiment is decided from the analysis this crate
//! builds. Instead of recording a full reference read/write trace (the
//! `goofi_core::preinject` oracle), it builds a control-flow graph over
//! the workload binary from each ISA's shared def/use tables, runs a
//! backward write-before-read *must* fixpoint over it for the lints, and
//! maps def/use onto injection times with a cheap concrete replay that
//! observes only the program counter (and, for the stack machine, the
//! stack shape) — no state trace, no read/write log. One first-touch
//! walk per location over that replay yields the dead, equivalence and
//! washout windows.
//!
//! The result is conservative by construction: the dynamic execution
//! from any injection time is one of the CFG paths the must-analysis
//! quantified over, so every statically dead `(location, time)` is also
//! dead under the trace-based [`goofi_core::LivenessAnalysis`]. The
//! static prune set is therefore always a subset of the trace-based one
//! (property-tested in `goofi-targets`).
//!
//! Seeded by that walk, the `propagation` module runs a
//! fault-propagation (taint washout) analysis along the same replayed
//! timeline: faults whose corrupted value is read but provably washes
//! out of the architectural state — without touching a control, address,
//! or trap-prone operand — re-converge with the reference run, so their
//! verdict is *predictable* with zero execution (surfaced as
//! `StaticAnalysis::washout` windows and consumed by
//! `StaticAnalysis::can_predict`).
//!
//! Frontends:
//!
//! * [`analyze_thor_program`] — instruction-address CFG over decoded
//!   Thor code segments; registers and the PSW are modelled, memory
//!   words are not (dynamic effective addresses).
//! * [`analyze_stackvm_program`] — abstract-state CFG `(pc, sp, return
//!   stack)` over StackVM bytecode; stack cells, call slots, pointers
//!   and data words are all modelled exactly.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod model;
mod propagation;
mod stackvm;
mod thor;

pub use model::{Model, Node, NodeKind};
pub use stackvm::analyze_stackvm_program;
pub use thor::analyze_thor_program;
