//! # goofi-stackvm — a second target system for GOOFI-rs
//!
//! The GOOFI paper's central claim is *genericity*: the same fault-injection
//! algorithms drive any target that implements the abstract interface. To
//! exercise that claim we provide a deliberately different second target: a
//! small Harvard-architecture stack machine with
//!
//! * a 16-entry data stack and an 8-entry call stack,
//! * separate instruction and data memories,
//! * hardware error detection: stack overflow/underflow, illegal opcodes,
//!   PC and data-address range checks,
//! * a scan-style debug port ([`StackVm::debug_fields`],
//!   [`StackVm::read_field`], [`StackVm::write_field`]) exposing every
//!   state element by name, with read-only observation fields.
//!
//! # Examples
//!
//! ```
//! use goofi_stackvm::{Op, StackVm, VmEvent};
//!
//! // Compute 6*7 and store it at data address 0.
//! let prog = vec![Op::Push(6), Op::Push(7), Op::Mul, Op::Store(0), Op::Halt];
//! let mut vm = StackVm::new(64);
//! vm.load(&prog);
//! assert_eq!(vm.run(1_000), VmEvent::Halted);
//! assert_eq!(vm.data(0), Some(42));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::fmt;

/// Data-stack capacity.
pub const STACK_DEPTH: usize = 16;
/// Call-stack capacity.
pub const CALL_DEPTH: usize = 8;

/// Stack-machine instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Push a 32-bit constant.
    Push(i32),
    /// Push `data[addr]`.
    Load(u32),
    /// Pop into `data[addr]`.
    Store(u32),
    /// Pop b, pop a, push a+b (wrapping).
    Add,
    /// Pop b, pop a, push a-b (wrapping).
    Sub,
    /// Pop b, pop a, push a*b (wrapping).
    Mul,
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Drop,
    /// Swap the two top entries.
    Swap,
    /// Jump to instruction index.
    Jmp(u32),
    /// Pop; jump if the popped value is zero.
    Jz(u32),
    /// Call a subroutine at an instruction index.
    Call(u32),
    /// Return from a subroutine.
    Ret,
    /// Iteration-boundary marker (environment exchange point).
    Sync,
    /// Stop.
    Halt,
}

impl Op {
    /// Encodes into a 32-bit word: opcode in the high byte, operand in the
    /// low 24 bits (sign-extended for `Push`).
    pub fn encode(self) -> u32 {
        let (op, arg): (u32, u32) = match self {
            Op::Push(v) => (0x01, (v as u32) & 0xff_ffff),
            Op::Load(a) => (0x02, a),
            Op::Store(a) => (0x03, a),
            Op::Add => (0x04, 0),
            Op::Sub => (0x05, 0),
            Op::Mul => (0x06, 0),
            Op::Dup => (0x07, 0),
            Op::Drop => (0x08, 0),
            Op::Swap => (0x09, 0),
            Op::Jmp(a) => (0x0a, a),
            Op::Jz(a) => (0x0b, a),
            Op::Call(a) => (0x0c, a),
            Op::Ret => (0x0d, 0),
            Op::Sync => (0x0e, 0),
            Op::Halt => (0x0f, 0),
        };
        op << 24 | (arg & 0xff_ffff)
    }

    /// Def/use sets for executing `self` with data-stack pointer `sp` and
    /// call-stack pointer `csp` as they stand *before* the op executes.
    ///
    /// Returns `None` when the op would trap on the stack bounds (overflow
    /// or underflow), in which case no architectural write completes. The
    /// same table drives both dynamic trace recording
    /// (`collect_trace` in the target adapter) and the static workload
    /// analyzer, so the two cannot drift.
    ///
    /// `PC` and `STEPS` are deliberately absent: every op touches them, and
    /// leaving them out makes pre-injection analysis treat faults there as
    /// unknown locations (never pruned) — the conservative choice.
    pub fn effect(self, sp: u8, csp: u8) -> Option<OpEffect> {
        use VmLoc::{Call, Csp, Data, Sp, Stack};
        let mut fx = OpEffect::default();
        let overflow = |n: u8| (n as usize) >= STACK_DEPTH;
        let underflow = |n: u8, need: u8| n < need || (n as usize) > STACK_DEPTH;
        match self {
            Op::Push(_) => {
                if overflow(sp) {
                    return None;
                }
                fx.reads.push(Sp);
                fx.writes.extend([Stack(sp), Sp]);
            }
            Op::Load(a) => {
                if overflow(sp) {
                    return None;
                }
                fx.reads.extend([Sp, Data(a)]);
                fx.writes.extend([Stack(sp), Sp]);
            }
            Op::Store(a) => {
                if underflow(sp, 1) {
                    return None;
                }
                fx.reads.extend([Sp, Stack(sp - 1)]);
                fx.writes.extend([Data(a), Sp]);
            }
            Op::Add | Op::Sub | Op::Mul => {
                if underflow(sp, 2) {
                    return None;
                }
                fx.reads.extend([Sp, Stack(sp - 1), Stack(sp - 2)]);
                fx.writes.extend([Stack(sp - 2), Sp]);
            }
            Op::Dup => {
                if underflow(sp, 1) || overflow(sp) {
                    return None;
                }
                fx.reads.extend([Sp, Stack(sp - 1)]);
                fx.writes.extend([Stack(sp - 1), Stack(sp), Sp]);
            }
            Op::Drop => {
                if underflow(sp, 1) {
                    return None;
                }
                fx.reads.extend([Sp, Stack(sp - 1)]);
                fx.writes.push(Sp);
            }
            Op::Swap => {
                if underflow(sp, 2) {
                    return None;
                }
                fx.reads.extend([Sp, Stack(sp - 1), Stack(sp - 2)]);
                fx.writes.extend([Stack(sp - 1), Stack(sp - 2), Sp]);
            }
            Op::Jmp(_) => {}
            Op::Jz(_) => {
                if underflow(sp, 1) {
                    return None;
                }
                fx.reads.extend([Sp, Stack(sp - 1)]);
                fx.writes.push(Sp);
                fx.is_branch = true;
            }
            Op::Call(_) => {
                if (csp as usize) >= CALL_DEPTH {
                    return None;
                }
                fx.reads.push(Csp);
                fx.writes.extend([Call(csp), Csp]);
                fx.is_call = true;
            }
            Op::Ret => {
                if csp == 0 || (csp as usize) > CALL_DEPTH {
                    return None;
                }
                fx.reads.extend([Csp, Call(csp - 1)]);
                fx.writes.push(Csp);
            }
            Op::Sync | Op::Halt => {}
        }
        Some(fx)
    }

    /// Decodes a word; `None` for illegal opcodes.
    pub fn decode(word: u32) -> Option<Op> {
        let arg = word & 0xff_ffff;
        // Sign extend 24-bit immediates for Push.
        let simm = if arg & 0x80_0000 != 0 {
            (arg | 0xff00_0000) as i32
        } else {
            arg as i32
        };
        Some(match word >> 24 {
            0x01 => Op::Push(simm),
            0x02 => Op::Load(arg),
            0x03 => Op::Store(arg),
            0x04 => Op::Add,
            0x05 => Op::Sub,
            0x06 => Op::Mul,
            0x07 => Op::Dup,
            0x08 => Op::Drop,
            0x09 => Op::Swap,
            0x0a => Op::Jmp(arg),
            0x0b => Op::Jz(arg),
            0x0c => Op::Call(arg),
            0x0d => Op::Ret,
            0x0e => Op::Sync,
            0x0f => Op::Halt,
            _ => return None,
        })
    }
}

/// A named architectural state element of the VM: the debug-port fields
/// (minus the observe-only `PC`/`STEPS`) plus data-memory words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VmLoc {
    /// Data-stack slot `S{n}`.
    Stack(u8),
    /// The data-stack pointer `SP`.
    Sp,
    /// Call-stack slot `C{n}`.
    Call(u8),
    /// The call-stack pointer `CSP`.
    Csp,
    /// Data-memory word at word address `a`.
    Data(u32),
}

impl fmt::Display for VmLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmLoc::Stack(i) => write!(f, "S{i}"),
            VmLoc::Sp => write!(f, "SP"),
            VmLoc::Call(i) => write!(f, "C{i}"),
            VmLoc::Csp => write!(f, "CSP"),
            VmLoc::Data(a) => write!(f, "data[{a}]"),
        }
    }
}

/// The def/use sets of one op at a concrete stack configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpEffect {
    /// Locations the op reads, in access order.
    pub reads: Vec<VmLoc>,
    /// Locations the op writes, in access order.
    pub writes: Vec<VmLoc>,
    /// Whether the op is a conditional branch.
    pub is_branch: bool,
    /// Whether the op is a subroutine call.
    pub is_call: bool,
}

/// A detected error condition (the StackVM's EDMs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmError {
    /// Push onto a full data stack.
    StackOverflow,
    /// Pop from an empty data stack.
    StackUnderflow,
    /// Call with a full call stack, or return with an empty one.
    CallStackFault,
    /// Undecodable opcode.
    IllegalOpcode {
        /// The offending word.
        word: u32,
    },
    /// PC outside the loaded program.
    PcOutOfRange {
        /// The offending instruction index.
        pc: u32,
    },
    /// Data access outside data memory.
    DataOutOfRange {
        /// The offending data address.
        addr: u32,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::StackOverflow => write!(f, "data stack overflow"),
            VmError::StackUnderflow => write!(f, "data stack underflow"),
            VmError::CallStackFault => write!(f, "call stack fault"),
            VmError::IllegalOpcode { word } => write!(f, "illegal opcode {word:#010x}"),
            VmError::PcOutOfRange { pc } => write!(f, "pc {pc} out of range"),
            VmError::DataOutOfRange { addr } => write!(f, "data address {addr} out of range"),
        }
    }
}

impl std::error::Error for VmError {}

/// Result of running the VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmEvent {
    /// Executed `Halt`.
    Halted,
    /// Executed `Sync` (iteration boundary).
    Sync,
    /// An EDM fired.
    Error(VmError),
    /// Step budget exhausted.
    TimedOut,
    /// A breakpoint fired (before executing instruction `pc`).
    Breakpoint {
        /// Instruction index.
        pc: u32,
        /// Instructions retired so far.
        steps: u64,
    },
}

/// Descriptor of one debug-port field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DebugField {
    /// Field name (e.g. `"S3"`, `"SP"`, `"PC"`).
    pub name: String,
    /// Width in bits.
    pub width: usize,
    /// Whether the field accepts writes through the debug port.
    pub writable: bool,
}

/// The stack-machine target.
#[derive(Debug, Clone)]
pub struct StackVm {
    program: Vec<u32>,
    data: Vec<i32>,
    stack: [i32; STACK_DEPTH],
    sp: u8,
    calls: [u32; CALL_DEPTH],
    csp: u8,
    pc: u32,
    steps: u64,
    halted: bool,
    latched: Option<VmError>,
    breakpoints: Vec<u64>,
}

impl StackVm {
    /// Creates a VM with `data_words` words of zeroed data memory.
    pub fn new(data_words: usize) -> StackVm {
        StackVm {
            program: Vec::new(),
            data: vec![0; data_words],
            stack: [0; STACK_DEPTH],
            sp: 0,
            calls: [0; CALL_DEPTH],
            csp: 0,
            pc: 0,
            steps: 0,
            halted: false,
            latched: None,
            breakpoints: Vec::new(),
        }
    }

    /// Loads a program (replacing any previous one) and resets execution
    /// state; data memory is preserved so input can be staged first.
    pub fn load(&mut self, ops: &[Op]) {
        self.program = ops.iter().map(|o| o.encode()).collect();
        self.pc = 0;
        self.sp = 0;
        self.csp = 0;
        self.steps = 0;
        self.halted = false;
        self.latched = None;
    }

    /// Full re-initialisation: execution state and data memory.
    pub fn reset(&mut self) {
        self.data.iter_mut().for_each(|w| *w = 0);
        self.stack = [0; STACK_DEPTH];
        self.calls = [0; CALL_DEPTH];
        self.pc = 0;
        self.sp = 0;
        self.csp = 0;
        self.steps = 0;
        self.halted = false;
        self.latched = None;
        self.breakpoints.clear();
    }

    /// Data word at `addr` (host access).
    pub fn data(&self, addr: u32) -> Option<i32> {
        self.data.get(addr as usize).copied()
    }

    /// Writes a data word (host access).
    pub fn set_data(&mut self, addr: u32, value: i32) -> bool {
        match self.data.get_mut(addr as usize) {
            Some(w) => {
                *w = value;
                true
            }
            None => false,
        }
    }

    /// Raw program word (host access, for pre-runtime SWIFI on the
    /// instruction memory).
    pub fn program_word(&self, index: usize) -> Option<u32> {
        self.program.get(index).copied()
    }

    /// Overwrites a raw program word (pre-runtime SWIFI).
    pub fn set_program_word(&mut self, index: usize, word: u32) -> bool {
        match self.program.get_mut(index) {
            Some(w) => {
                *w = word;
                true
            }
            None => false,
        }
    }

    /// Number of program words.
    pub fn program_len(&self) -> usize {
        self.program.len()
    }

    /// Instructions retired.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Whether the VM halted normally.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Arms a one-shot breakpoint at an instruction count.
    pub fn set_breakpoint_steps(&mut self, steps: u64) {
        self.breakpoints.push(steps);
    }

    // ------------------------------------------------------------------
    // Debug port (scan-chain equivalent)
    // ------------------------------------------------------------------

    /// Descriptors of all debug-port fields, in a stable order: the data
    /// stack (S0..), SP, the call stack (C0..), CSP, PC and STEPS (the step
    /// counter is observe-only, like the paper's read-only locations).
    pub fn debug_fields(&self) -> Vec<DebugField> {
        let mut fields = Vec::new();
        for i in 0..STACK_DEPTH {
            fields.push(DebugField {
                name: format!("S{i}"),
                width: 32,
                writable: true,
            });
        }
        fields.push(DebugField {
            name: "SP".into(),
            width: 8,
            writable: true,
        });
        for i in 0..CALL_DEPTH {
            fields.push(DebugField {
                name: format!("C{i}"),
                width: 32,
                writable: true,
            });
        }
        fields.push(DebugField {
            name: "CSP".into(),
            width: 8,
            writable: true,
        });
        fields.push(DebugField {
            name: "PC".into(),
            width: 32,
            writable: true,
        });
        fields.push(DebugField {
            name: "STEPS".into(),
            width: 64,
            writable: false,
        });
        fields
    }

    /// Reads a debug field by name.
    pub fn read_field(&self, name: &str) -> Option<u64> {
        if let Some(rest) = name.strip_prefix('S') {
            if let Ok(i) = rest.parse::<usize>() {
                return self.stack.get(i).map(|v| *v as u32 as u64);
            }
        }
        if let Some(rest) = name.strip_prefix('C') {
            if name != "CSP" {
                if let Ok(i) = rest.parse::<usize>() {
                    return self.calls.get(i).map(|v| *v as u64);
                }
            }
        }
        match name {
            "SP" => Some(self.sp as u64),
            "CSP" => Some(self.csp as u64),
            "PC" => Some(self.pc as u64),
            "STEPS" => Some(self.steps),
            _ => None,
        }
    }

    /// Writes a debug field by name; returns `false` for unknown or
    /// read-only fields.
    pub fn write_field(&mut self, name: &str, value: u64) -> bool {
        if let Some(rest) = name.strip_prefix('S') {
            if let Ok(i) = rest.parse::<usize>() {
                if let Some(slot) = self.stack.get_mut(i) {
                    *slot = value as u32 as i32;
                    return true;
                }
                return false;
            }
        }
        if let Some(rest) = name.strip_prefix('C') {
            if name != "CSP" {
                if let Ok(i) = rest.parse::<usize>() {
                    if let Some(slot) = self.calls.get_mut(i) {
                        *slot = value as u32;
                        return true;
                    }
                    return false;
                }
            }
        }
        match name {
            "SP" => {
                self.sp = value as u8;
                true
            }
            "CSP" => {
                self.csp = value as u8;
                true
            }
            "PC" => {
                self.pc = value as u32;
                true
            }
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    fn push(&mut self, v: i32) -> Result<(), VmError> {
        if (self.sp as usize) >= STACK_DEPTH {
            return Err(VmError::StackOverflow);
        }
        self.stack[self.sp as usize] = v;
        self.sp += 1;
        Ok(())
    }

    fn pop(&mut self) -> Result<i32, VmError> {
        if self.sp == 0 || (self.sp as usize) > STACK_DEPTH {
            return Err(VmError::StackUnderflow);
        }
        self.sp -= 1;
        Ok(self.stack[self.sp as usize])
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns the EDM error; the error is latched, and further steps keep
    /// returning it.
    pub fn step(&mut self) -> Result<Option<VmEvent>, VmError> {
        if let Some(e) = self.latched {
            return Err(e);
        }
        if self.halted {
            return Ok(Some(VmEvent::Halted));
        }
        let raise = |this: &mut Self, e: VmError| {
            this.latched = Some(e);
            Err(e)
        };
        let word = match self.program.get(self.pc as usize) {
            Some(w) => *w,
            None => return raise(self, VmError::PcOutOfRange { pc: self.pc }),
        };
        let op = match Op::decode(word) {
            Some(op) => op,
            None => return raise(self, VmError::IllegalOpcode { word }),
        };
        let mut next = self.pc + 1;
        let mut event = None;
        let result: Result<(), VmError> = (|| {
            match op {
                Op::Push(v) => self.push(v)?,
                Op::Load(a) => {
                    let v = *self
                        .data
                        .get(a as usize)
                        .ok_or(VmError::DataOutOfRange { addr: a })?;
                    self.push(v)?;
                }
                Op::Store(a) => {
                    let v = self.pop()?;
                    let slot = self
                        .data
                        .get_mut(a as usize)
                        .ok_or(VmError::DataOutOfRange { addr: a })?;
                    *slot = v;
                }
                Op::Add => {
                    let b = self.pop()?;
                    let a = self.pop()?;
                    self.push(a.wrapping_add(b))?;
                }
                Op::Sub => {
                    let b = self.pop()?;
                    let a = self.pop()?;
                    self.push(a.wrapping_sub(b))?;
                }
                Op::Mul => {
                    let b = self.pop()?;
                    let a = self.pop()?;
                    self.push(a.wrapping_mul(b))?;
                }
                Op::Dup => {
                    let v = self.pop()?;
                    self.push(v)?;
                    self.push(v)?;
                }
                Op::Drop => {
                    self.pop()?;
                }
                Op::Swap => {
                    let b = self.pop()?;
                    let a = self.pop()?;
                    self.push(b)?;
                    self.push(a)?;
                }
                Op::Jmp(a) => next = a,
                Op::Jz(a) => {
                    if self.pop()? == 0 {
                        next = a;
                    }
                }
                Op::Call(a) => {
                    if (self.csp as usize) >= CALL_DEPTH {
                        return Err(VmError::CallStackFault);
                    }
                    self.calls[self.csp as usize] = next;
                    self.csp += 1;
                    next = a;
                }
                Op::Ret => {
                    if self.csp == 0 || (self.csp as usize) > CALL_DEPTH {
                        return Err(VmError::CallStackFault);
                    }
                    self.csp -= 1;
                    next = self.calls[self.csp as usize];
                }
                Op::Sync => event = Some(VmEvent::Sync),
                Op::Halt => {
                    self.halted = true;
                    event = Some(VmEvent::Halted);
                }
            }
            Ok(())
        })();
        if let Err(e) = result {
            return raise(self, e);
        }
        if !self.halted {
            self.pc = next;
        }
        self.steps += 1;
        Ok(event)
    }

    /// Runs until halt, sync, error, a breakpoint, or `budget` instructions.
    pub fn run(&mut self, budget: u64) -> VmEvent {
        for _ in 0..budget {
            if let Some(pos) = self.breakpoints.iter().position(|b| *b == self.steps) {
                self.breakpoints.swap_remove(pos);
                return VmEvent::Breakpoint {
                    pc: self.pc,
                    steps: self.steps,
                };
            }
            match self.step() {
                Ok(Some(ev)) => return ev,
                Ok(None) => {}
                Err(e) => return VmEvent::Error(e),
            }
        }
        VmEvent::TimedOut
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_product() {
        let prog = vec![Op::Push(6), Op::Push(7), Op::Mul, Op::Store(0), Op::Halt];
        let mut vm = StackVm::new(8);
        vm.load(&prog);
        assert_eq!(vm.run(100), VmEvent::Halted);
        assert_eq!(vm.data(0), Some(42));
    }

    #[test]
    fn loop_with_jz_terminates() {
        // Sums 5+4+...+1 into data[1]; counter lives at data[0].
        let prog = vec![
            Op::Push(5),
            Op::Store(0),
            Op::Push(0),
            Op::Store(1),
            Op::Load(0), // 4: loop head
            Op::Jz(15),  // exit when counter == 0
            Op::Load(1),
            Op::Load(0),
            Op::Add,
            Op::Store(1),
            Op::Load(0),
            Op::Push(1),
            Op::Sub,
            Op::Store(0),
            Op::Jmp(4), // 14
            Op::Halt,   // 15
        ];
        let mut vm = StackVm::new(8);
        vm.load(&prog);
        assert_eq!(vm.run(1000), VmEvent::Halted);
        assert_eq!(vm.data(1), Some(15));
    }

    #[test]
    fn call_and_ret() {
        // main: call f; store result; halt. f: push 9; ret
        let prog = vec![
            Op::Call(3),
            Op::Store(0),
            Op::Halt,
            Op::Push(9), // 3
            Op::Ret,
        ];
        let mut vm = StackVm::new(4);
        vm.load(&prog);
        assert_eq!(vm.run(100), VmEvent::Halted);
        assert_eq!(vm.data(0), Some(9));
    }

    #[test]
    fn stack_underflow_detected() {
        let mut vm = StackVm::new(4);
        vm.load(&[Op::Add]);
        assert_eq!(vm.run(10), VmEvent::Error(VmError::StackUnderflow));
        // Latched.
        assert_eq!(vm.run(10), VmEvent::Error(VmError::StackUnderflow));
    }

    #[test]
    fn stack_overflow_detected() {
        let prog: Vec<Op> = (0..STACK_DEPTH as i32 + 1).map(Op::Push).collect();
        let mut vm = StackVm::new(4);
        vm.load(&prog);
        assert_eq!(vm.run(100), VmEvent::Error(VmError::StackOverflow));
    }

    #[test]
    fn illegal_opcode_detected() {
        let mut vm = StackVm::new(4);
        // No NOP in this ISA — craft an illegal word directly.
        vm.load(&[Op::Halt]);
        vm.set_program_word(0, 0xff00_0000);
        assert!(matches!(
            vm.run(10),
            VmEvent::Error(VmError::IllegalOpcode { .. })
        ));
    }

    #[test]
    fn pc_and_data_range_checks() {
        let mut vm = StackVm::new(2);
        vm.load(&[Op::Jmp(100)]);
        assert!(matches!(
            vm.run(10),
            VmEvent::Error(VmError::PcOutOfRange { .. })
        ));
        let mut vm = StackVm::new(2);
        vm.load(&[Op::Push(1), Op::Store(99)]);
        assert!(matches!(
            vm.run(10),
            VmEvent::Error(VmError::DataOutOfRange { .. })
        ));
    }

    #[test]
    fn debug_port_reads_and_writes() {
        let mut vm = StackVm::new(4);
        vm.load(&[Op::Push(5), Op::Push(6), Op::Halt]);
        vm.step().unwrap();
        vm.step().unwrap();
        assert_eq!(vm.read_field("SP"), Some(2));
        assert_eq!(vm.read_field("S0"), Some(5));
        assert_eq!(vm.read_field("S1"), Some(6));
        // Inject: corrupt S1.
        assert!(vm.write_field("S1", 0x7fff_ffff));
        assert_eq!(vm.read_field("S1"), Some(0x7fff_ffff));
        // STEPS is read-only.
        assert!(!vm.write_field("STEPS", 0));
        assert_eq!(vm.read_field("STEPS"), Some(2));
        assert_eq!(vm.read_field("BOGUS"), None);
    }

    #[test]
    fn debug_fields_cover_all_state() {
        let vm = StackVm::new(4);
        let fields = vm.debug_fields();
        assert_eq!(fields.len(), STACK_DEPTH + CALL_DEPTH + 4);
        for f in &fields {
            assert!(vm.read_field(&f.name).is_some(), "unreadable {}", f.name);
        }
        let steps = fields.iter().find(|f| f.name == "STEPS").unwrap();
        assert!(!steps.writable);
    }

    #[test]
    fn sp_corruption_triggers_edm() {
        // Injecting a bogus SP (the classic scan fault) must be caught by
        // the stack-bounds EDM on the next pop.
        let mut vm = StackVm::new(4);
        vm.load(&[Op::Push(1), Op::Push(2), Op::Add, Op::Store(0), Op::Halt]);
        vm.step().unwrap();
        vm.step().unwrap();
        vm.write_field("SP", 200);
        assert!(matches!(
            vm.run(10),
            VmEvent::Error(VmError::StackUnderflow)
        ));
    }

    #[test]
    fn breakpoint_at_step_count() {
        let mut vm = StackVm::new(4);
        vm.load(&[Op::Push(1), Op::Push(2), Op::Add, Op::Store(0), Op::Halt]);
        vm.set_breakpoint_steps(2);
        match vm.run(100) {
            VmEvent::Breakpoint { steps, .. } => assert_eq!(steps, 2),
            other => panic!("expected breakpoint, got {other:?}"),
        }
        assert_eq!(vm.run(100), VmEvent::Halted);
        assert_eq!(vm.data(0), Some(3));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ops = [
            Op::Push(-4),
            Op::Push(0x7f_ffff),
            Op::Load(3),
            Op::Store(9),
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Dup,
            Op::Drop,
            Op::Swap,
            Op::Jmp(7),
            Op::Jz(2),
            Op::Call(5),
            Op::Ret,
            Op::Sync,
            Op::Halt,
        ];
        for op in ops {
            assert_eq!(Op::decode(op.encode()), Some(op), "{op:?}");
        }
    }

    #[test]
    fn effect_table_matches_op_semantics() {
        use VmLoc::{Call, Csp, Data, Sp, Stack};
        let fx = Op::Push(3).effect(2, 0).unwrap();
        assert_eq!(fx.reads, vec![Sp]);
        assert_eq!(fx.writes, vec![Stack(2), Sp]);
        let fx = Op::Load(5).effect(1, 0).unwrap();
        assert_eq!(fx.reads, vec![Sp, Data(5)]);
        assert_eq!(fx.writes, vec![Stack(1), Sp]);
        let fx = Op::Store(5).effect(2, 0).unwrap();
        assert_eq!(fx.reads, vec![Sp, Stack(1)]);
        assert_eq!(fx.writes, vec![Data(5), Sp]);
        let fx = Op::Add.effect(3, 0).unwrap();
        assert_eq!(fx.reads, vec![Sp, Stack(2), Stack(1)]);
        assert_eq!(fx.writes, vec![Stack(1), Sp]);
        let fx = Op::Jz(9).effect(1, 0).unwrap();
        assert!(fx.is_branch);
        assert_eq!(fx.reads, vec![Sp, Stack(0)]);
        let fx = Op::Call(9).effect(0, 3).unwrap();
        assert!(fx.is_call);
        assert_eq!(fx.writes, vec![Call(3), Csp]);
        let fx = Op::Ret.effect(0, 1).unwrap();
        assert_eq!(fx.reads, vec![Csp, Call(0)]);
        // Trapping configurations have no architectural effect.
        assert_eq!(Op::Add.effect(1, 0), None);
        assert_eq!(Op::Push(0).effect(STACK_DEPTH as u8, 0), None);
        assert_eq!(Op::Ret.effect(0, 0), None);
        assert_eq!(Op::Call(0).effect(0, CALL_DEPTH as u8), None);
        // Halt/Jmp/Sync touch nothing the analyzer models.
        assert_eq!(Op::Halt.effect(0, 0), Some(OpEffect::default()));
    }

    #[test]
    fn effect_reads_writes_match_step_mutations() {
        // Dynamic cross-check: for a straight-line program, every state
        // element `step()` mutates must appear in the op's write set.
        let prog = vec![
            Op::Push(6),
            Op::Push(7),
            Op::Mul,
            Op::Dup,
            Op::Swap,
            Op::Store(0),
            Op::Drop,
            Op::Halt,
        ];
        let mut vm = StackVm::new(4);
        vm.load(&prog);
        loop {
            let pc = vm.pc as usize;
            let op = Op::decode(vm.program[pc]).unwrap();
            let fx = op.effect(vm.sp, vm.csp).expect("no traps in this program");
            let before = vm.clone();
            if let Ok(Some(VmEvent::Halted)) = vm.step() {
                break;
            }
            for i in 0..STACK_DEPTH as u8 {
                if vm.stack[i as usize] != before.stack[i as usize] {
                    assert!(fx.writes.contains(&VmLoc::Stack(i)), "{op:?} S{i}");
                }
            }
            if vm.sp != before.sp {
                assert!(fx.writes.contains(&VmLoc::Sp), "{op:?} SP");
            }
            for a in 0..4u32 {
                if vm.data(a) != before.data(a) {
                    assert!(fx.writes.contains(&VmLoc::Data(a)), "{op:?} data[{a}]");
                }
            }
        }
    }

    #[test]
    fn sync_reports_iteration() {
        let mut vm = StackVm::new(4);
        vm.load(&[Op::Sync, Op::Jmp(0)]);
        assert_eq!(vm.run(100), VmEvent::Sync);
        assert_eq!(vm.run(100), VmEvent::Sync);
    }

    #[test]
    fn reset_clears_everything() {
        let mut vm = StackVm::new(4);
        vm.load(&[Op::Push(1), Op::Store(0), Op::Halt]);
        vm.run(100);
        vm.reset();
        assert_eq!(vm.data(0), Some(0));
        assert_eq!(vm.steps(), 0);
        assert!(!vm.is_halted());
    }
}
