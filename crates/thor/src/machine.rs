//! The Thor RD processor core: fetch/decode/execute with parity-protected
//! caches, PSW condition flags, arithmetic traps and a watchdog timer.

use crate::cache::{Cache, CacheConfig};
use crate::edm::Exception;
use crate::isa::{Cond, Instr, InstrEffect, LINK_REG, NUM_REGS};
use crate::memory::{Memory, MemoryMap};
use crate::trace::{Loc, StepInfo};
use serde::{Deserialize, Serialize};

/// PSW flag bit: zero.
pub const PSW_Z: u32 = 1 << 0;
/// PSW flag bit: negative.
pub const PSW_N: u32 = 1 << 1;
/// PSW flag bit: carry.
pub const PSW_C: u32 = 1 << 2;
/// PSW flag bit: overflow.
pub const PSW_V: u32 = 1 << 3;

/// Static machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct MachineConfig {
    /// Memory layout.
    pub memory: MemoryMap,
    /// I-cache geometry.
    pub icache: CacheConfig,
    /// D-cache geometry.
    pub dcache: CacheConfig,
    /// Watchdog limit in instructions since the last `sync`/reset;
    /// 0 disables the watchdog.
    pub watchdog_limit: u32,
}

/// A non-error event produced by one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreEvent {
    /// The workload executed `halt`.
    Halted,
    /// The workload executed `sync` (iteration boundary).
    Sync,
}

/// Result of executing one instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Trace record of the executed instruction.
    pub info: StepInfo,
    /// Event raised, if any.
    pub event: Option<CoreEvent>,
}

/// What [`Machine::execute`] did, for [`Machine::step`] to turn into a
/// trace record; [`Machine::step_lean`] keeps only the event.
struct Executed {
    pc: u32,
    word: u32,
    instr: Instr,
    cycles: u64,
    branch_taken: bool,
    mem_addr: Option<u32>,
    event: Option<CoreEvent>,
}

/// The complete register-level core state: everything in [`Machine`]
/// except memory and caches. One value of this struct is what
/// [`Machine::reset`] zeroes and what a checkpoint restore writes back, so
/// the two paths cannot drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CoreState {
    /// General-purpose registers.
    pub regs: [u32; NUM_REGS],
    /// Program counter.
    pub pc: u32,
    /// Processor status word.
    pub psw: u32,
    /// Instruction register.
    pub ir: u32,
    /// Memory address register.
    pub mar: u32,
    /// Memory data register.
    pub mdr: u32,
    /// Watchdog counter.
    pub wdt: u32,
    /// Total cycles executed.
    pub cycles: u64,
    /// Total instructions retired.
    pub instret: u64,
    /// Whether the machine has executed `halt`.
    pub halted: bool,
}

/// One predecoded instruction slot: the decoded form plus the raw word it
/// was decoded from. The raw word doubles as the invalidation tag — a slot
/// is valid only while it matches the word the fetch path returns, so any
/// write to instruction memory (host download, SWIFI, scan-chain or cache
/// faults, snapshot restore) invalidates it implicitly, with no hook on
/// any mutation path to forget.
#[derive(Debug, Clone, Copy)]
struct PredecodedSlot {
    raw: u32,
    instr: Instr,
}

/// The simulated processor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Machine {
    config: MachineConfig,
    regs: [u32; NUM_REGS],
    pc: u32,
    psw: u32,
    ir: u32,
    mar: u32,
    mdr: u32,
    wdt: u32,
    cycles: u64,
    instret: u64,
    halted: bool,
    memory: Memory,
    icache: Cache,
    dcache: Cache,
    // Predecoded-instruction cache, one slot per code word, validated
    // against the fetched word on every step. Pure derived state: never
    // serialised (a deserialised machine starts cold and refills lazily)
    // and never part of equality or checkpoints.
    #[serde(skip)]
    predecode: Vec<Option<PredecodedSlot>>,
    // Ablation knob: `true` bypasses the predecode cache so every step
    // decodes its fetched word from scratch (the pre-optimisation
    // interpreter). Architecturally invisible either way; benches flip it
    // to measure the predecode speedup honestly.
    #[serde(skip)]
    predecode_off: bool,
}

impl Machine {
    /// Creates a machine in the reset state.
    pub fn new(config: MachineConfig) -> Machine {
        Machine {
            config,
            regs: [0; NUM_REGS],
            pc: 0,
            psw: 0,
            ir: 0,
            mar: 0,
            mdr: 0,
            wdt: 0,
            cycles: 0,
            instret: 0,
            halted: false,
            memory: Memory::new(config.memory),
            icache: Cache::new(config.icache),
            dcache: Cache::new(config.dcache),
            predecode: vec![None; (config.memory.code_end / 4) as usize],
            predecode_off: false,
        }
    }

    /// Enables (`true`, the default) or disables the predecoded-dispatch
    /// cache. With it off, [`Machine::step`] decodes every fetched word
    /// from scratch and [`TestCard::run`](crate::TestCard::run) falls back
    /// to its general loop — the pre-optimisation interpreter, kept as a
    /// benchmark ablation. Architectural behaviour is identical.
    pub fn set_predecode(&mut self, on: bool) {
        self.predecode_off = !on;
    }

    /// Whether the predecoded-dispatch cache is enabled.
    pub fn predecode_enabled(&self) -> bool {
        !self.predecode_off
    }

    /// The machine configuration.
    pub fn config(&self) -> MachineConfig {
        self.config
    }

    /// Resets all architectural state and clears memory and caches.
    pub fn reset(&mut self) {
        self.set_core_state(&CoreState::default());
        self.memory.clear();
        self.icache.invalidate_all();
        self.dcache.invalidate_all();
    }

    /// Captures the register-level core state (checkpointing).
    pub fn core_state(&self) -> CoreState {
        CoreState {
            regs: self.regs,
            pc: self.pc,
            psw: self.psw,
            ir: self.ir,
            mar: self.mar,
            mdr: self.mdr,
            wdt: self.wdt,
            cycles: self.cycles,
            instret: self.instret,
            halted: self.halted,
        }
    }

    /// Overwrites the register-level core state (reset, checkpoint restore).
    /// Memory and caches are untouched.
    pub fn set_core_state(&mut self, state: &CoreState) {
        self.regs = state.regs;
        self.pc = state.pc;
        self.psw = state.psw;
        self.ir = state.ir;
        self.mar = state.mar;
        self.mdr = state.mdr;
        self.wdt = state.wdt;
        self.cycles = state.cycles;
        self.instret = state.instret;
        self.halted = state.halted;
    }

    /// Program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Sets the program counter (host/scan access).
    pub fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    /// Register value.
    ///
    /// # Panics
    ///
    /// Panics if `r >= 16`.
    pub fn reg(&self, r: u8) -> u32 {
        self.regs[r as usize]
    }

    /// Sets a register (host/scan access).
    ///
    /// # Panics
    ///
    /// Panics if `r >= 16`.
    pub fn set_reg(&mut self, r: u8, v: u32) {
        self.regs[r as usize] = v;
    }

    /// Processor status word (condition flags in the low 4 bits).
    pub fn psw(&self) -> u32 {
        self.psw
    }

    /// Sets the PSW (host/scan access; only the low 8 bits are kept).
    pub fn set_psw(&mut self, v: u32) {
        self.psw = v & 0xff;
    }

    /// Instruction register (last fetched word).
    pub fn ir(&self) -> u32 {
        self.ir
    }
    /// Sets the instruction register (scan access).
    pub fn set_ir(&mut self, v: u32) {
        self.ir = v;
    }
    /// Memory address register (last memory transaction address).
    pub fn mar(&self) -> u32 {
        self.mar
    }
    /// Sets the memory address register (scan access).
    pub fn set_mar(&mut self, v: u32) {
        self.mar = v;
    }
    /// Memory data register (last memory transaction data).
    pub fn mdr(&self) -> u32 {
        self.mdr
    }
    /// Sets the memory data register (scan access).
    pub fn set_mdr(&mut self, v: u32) {
        self.mdr = v;
    }
    /// Watchdog counter (instructions since last `sync`/reset).
    pub fn wdt(&self) -> u32 {
        self.wdt
    }
    /// Sets the watchdog counter (scan access; 16 bits kept).
    pub fn set_wdt(&mut self, v: u32) {
        self.wdt = v & 0xffff;
    }

    /// Total cycles executed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total instructions retired.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// Whether the machine has executed `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Main memory (host access).
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Main memory, mutable (host access: download, SWIFI).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// Instruction cache (scan access).
    pub fn icache(&self) -> &Cache {
        &self.icache
    }
    /// Instruction cache, mutable (scan access).
    pub fn icache_mut(&mut self) -> &mut Cache {
        &mut self.icache
    }
    /// Data cache (scan access).
    pub fn dcache(&self) -> &Cache {
        &self.dcache
    }
    /// Data cache, mutable (scan access).
    pub fn dcache_mut(&mut self) -> &mut Cache {
        &mut self.dcache
    }

    fn set_flags_from(&mut self, value: u32, carry: bool, overflow: bool) {
        // A flag update drives the full PSW: the reserved upper bits are
        // hardwired to zero on every write, so a PSW write is a complete
        // overwrite (this matters for pre-injection liveness analysis —
        // a partial write would make "overwritten" pruning unsound).
        let mut psw = 0;
        if value == 0 {
            psw |= PSW_Z;
        }
        if (value as i32) < 0 {
            psw |= PSW_N;
        }
        if carry {
            psw |= PSW_C;
        }
        if overflow {
            psw |= PSW_V;
        }
        self.psw = psw;
    }

    #[inline(always)]
    fn cond_holds(&self, cond: Cond) -> bool {
        let z = self.psw & PSW_Z != 0;
        let n = self.psw & PSW_N != 0;
        let v = self.psw & PSW_V != 0;
        match cond {
            Cond::Eq => z,
            Cond::Ne => !z,
            Cond::Lt => n != v,
            Cond::Ge => n == v,
            Cond::Gt => !z && n == v,
            Cond::Le => z || n != v,
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Any [`Exception`] raised by the error-detection mechanisms; the
    /// machine state is left as of the failing micro-operation (the PC still
    /// points at the faulting instruction), mirroring a hardware trap.
    pub fn step(&mut self) -> Result<Step, Exception> {
        if self.halted {
            return Ok(Step {
                info: StepInfo::new(self.pc, 0),
                event: Some(CoreEvent::Halted),
            });
        }
        let done = self.execute()?;
        let mut info = StepInfo::new(done.pc, done.word);
        info.cycles = done.cycles;
        info.branch_taken = done.branch_taken;
        Self::record_effect(&mut info, &done.instr.effect(), done.mem_addr);
        Ok(Step {
            info,
            event: done.event,
        })
    }

    /// [`Machine::step`] without the trace record: only the event. Every
    /// architectural effect — registers, PSW, ir, mar, mdr, wdt, cycles,
    /// instret, memory, caches and their counters — is identical, so this
    /// is the inner-loop primitive for untraced execution.
    #[inline]
    pub(crate) fn step_lean(&mut self) -> Result<Option<CoreEvent>, Exception> {
        if self.halted {
            return Ok(Some(CoreEvent::Halted));
        }
        self.execute().map(|done| done.event)
    }

    /// An upper bound on the cycles one instruction can take: the base
    /// cycle, an I-cache miss, and the larger of a D-cache miss (`ld`) and
    /// `div`'s 11 extra cycles (`mul` adds 3, `st` nothing). A run that
    /// has at least `n` times this left of its budget can execute `n`
    /// instructions without checking it.
    pub(crate) fn max_step_cycles(&self) -> u64 {
        1 + self.icache.config().miss_penalty + self.dcache.config().miss_penalty.max(11)
    }

    /// The work of one step on a machine that has not halted; the caller
    /// builds whatever record it needs from the returned facts.
    #[inline(always)]
    fn execute(&mut self) -> Result<Executed, Exception> {
        // Watchdog.
        if self.config.watchdog_limit > 0 {
            self.wdt = self.wdt.wrapping_add(1) & 0xffff;
            if self.wdt as u64 > self.config.watchdog_limit as u64 {
                return Err(Exception::Watchdog);
            }
        }
        // Fetch through the I-cache; remap its parity exception variant.
        let pc = self.pc;
        self.mar = pc;
        let access = self
            .icache
            .read(&self.memory, pc, true)
            .map_err(|e| match e {
                Exception::DcacheParity { line } => Exception::IcacheParity { line },
                other => other,
            })?;
        let word = access.value;
        self.ir = word;
        let mut cycles = 1 + access.extra_cycles;

        // Dispatch through the predecode cache when the slot still matches
        // the word the fetch path just produced; (re)fill it otherwise.
        // An aligned fetch succeeds only below `code_end`, but a misaligned
        // one reads the word it falls in from anywhere (the I-cache fills
        // an unmappable line with zeros), so a pc past the code region is
        // decoded without a slot. A deserialised machine starts with an
        // empty cache and sizes it on first miss.
        let index = (pc >> 2) as usize;
        let instr = if self.predecode_off {
            Instr::decode(word).ok_or(Exception::IllegalInstruction { word })?
        } else {
            match self.predecode.get(index) {
                Some(&Some(slot)) if slot.raw == word => slot.instr,
                _ => {
                    let instr =
                        Instr::decode(word).ok_or(Exception::IllegalInstruction { word })?;
                    let slots = (self.config.memory.code_end / 4) as usize;
                    if index < slots {
                        if self.predecode.len() < slots {
                            self.predecode.resize(slots, None);
                        }
                        self.predecode[index] = Some(PredecodedSlot { raw: word, instr });
                    }
                    instr
                }
            }
        };

        let mut next_pc = pc.wrapping_add(4);
        let mut event = None;
        let mut branch_taken = false;
        // Effective data-memory address, captured by `ld`/`st` for the
        // trace record (the shared `InstrEffect` table only knows that a
        // memory operand exists, not where it lands).
        let mut mem_addr = None;

        macro_rules! alu {
            ($rd:expr, $rs1:expr, $rs2:expr, $f:expr, $flags:expr) => {{
                let a = self.regs[$rs1 as usize];
                let b = self.regs[$rs2 as usize];
                let (value, carry, overflow) = $f(a, b)?;
                self.regs[$rd as usize] = value;
                if $flags {
                    self.set_flags_from(value, carry, overflow);
                }
            }};
        }

        type AluOut = Result<(u32, bool, bool), Exception>;

        match instr {
            Instr::Nop => {}
            Instr::Halt => {
                self.halted = true;
                event = Some(CoreEvent::Halted);
            }
            Instr::Sync => {
                self.wdt = 0;
                event = Some(CoreEvent::Sync);
            }
            Instr::Add { rd, rs1, rs2 } => alu!(
                rd,
                rs1,
                rs2,
                |a: u32, b: u32| -> AluOut {
                    let (v, c) = a.overflowing_add(b);
                    (a as i32)
                        .checked_add(b as i32)
                        .ok_or(Exception::ArithmeticOverflow)?;
                    Ok((v, c, false))
                },
                true
            ),
            Instr::Sub { rd, rs1, rs2 } => alu!(
                rd,
                rs1,
                rs2,
                |a: u32, b: u32| -> AluOut {
                    let (v, c) = a.overflowing_sub(b);
                    (a as i32)
                        .checked_sub(b as i32)
                        .ok_or(Exception::ArithmeticOverflow)?;
                    Ok((v, c, false))
                },
                true
            ),
            Instr::Mul { rd, rs1, rs2 } => {
                cycles += 3;
                alu!(
                    rd,
                    rs1,
                    rs2,
                    |a: u32, b: u32| -> AluOut {
                        let v = (a as i32)
                            .checked_mul(b as i32)
                            .ok_or(Exception::ArithmeticOverflow)?;
                        Ok((v as u32, false, false))
                    },
                    true
                )
            }
            Instr::Div { rd, rs1, rs2 } => {
                cycles += 11;
                alu!(
                    rd,
                    rs1,
                    rs2,
                    |a: u32, b: u32| -> AluOut {
                        if b == 0 {
                            return Err(Exception::DivideByZero);
                        }
                        let v = (a as i32)
                            .checked_div(b as i32)
                            .ok_or(Exception::ArithmeticOverflow)?;
                        Ok((v as u32, false, false))
                    },
                    true
                )
            }
            Instr::And { rd, rs1, rs2 } => alu!(
                rd,
                rs1,
                rs2,
                |a: u32, b: u32| -> AluOut { Ok((a & b, false, false)) },
                true
            ),
            Instr::Or { rd, rs1, rs2 } => alu!(
                rd,
                rs1,
                rs2,
                |a: u32, b: u32| -> AluOut { Ok((a | b, false, false)) },
                true
            ),
            Instr::Xor { rd, rs1, rs2 } => alu!(
                rd,
                rs1,
                rs2,
                |a: u32, b: u32| -> AluOut { Ok((a ^ b, false, false)) },
                true
            ),
            Instr::Sll { rd, rs1, rs2 } => alu!(
                rd,
                rs1,
                rs2,
                |a: u32, b: u32| -> AluOut { Ok((a << (b & 31), false, false)) },
                true
            ),
            Instr::Srl { rd, rs1, rs2 } => alu!(
                rd,
                rs1,
                rs2,
                |a: u32, b: u32| -> AluOut { Ok((a >> (b & 31), false, false)) },
                true
            ),
            Instr::Sra { rd, rs1, rs2 } => alu!(
                rd,
                rs1,
                rs2,
                |a: u32, b: u32| -> AluOut { Ok((((a as i32) >> (b & 31)) as u32, false, false)) },
                true
            ),
            Instr::Addi { rd, rs1, imm } => {
                // Wrapping add: used for address arithmetic, no trap.
                let a = self.regs[rs1 as usize];
                self.regs[rd as usize] = a.wrapping_add(imm as i32 as u32);
            }
            Instr::Andi { rd, rs1, imm } => {
                self.regs[rd as usize] = self.regs[rs1 as usize] & imm as u32;
            }
            Instr::Ori { rd, rs1, imm } => {
                self.regs[rd as usize] = self.regs[rs1 as usize] | imm as u32;
            }
            Instr::Xori { rd, rs1, imm } => {
                self.regs[rd as usize] = self.regs[rs1 as usize] ^ imm as u32;
            }
            Instr::Slli { rd, rs1, imm } => {
                self.regs[rd as usize] = self.regs[rs1 as usize] << (imm & 31);
            }
            Instr::Srli { rd, rs1, imm } => {
                self.regs[rd as usize] = self.regs[rs1 as usize] >> (imm & 31);
            }
            Instr::Li { rd, imm } => {
                self.regs[rd as usize] = imm as i32 as u32;
            }
            Instr::Lui { rd, imm } => {
                self.regs[rd as usize] = (imm as u32) << 16;
            }
            Instr::Ld { rd, rs1, imm } => {
                let base = self.regs[rs1 as usize];
                let addr = base.wrapping_add(imm as i32 as u32);
                self.mar = addr;
                let access = self.dcache.read(&self.memory, addr, false)?;
                self.mdr = access.value;
                cycles += access.extra_cycles;
                mem_addr = Some(addr);
                self.regs[rd as usize] = self.mdr;
            }
            Instr::St { rd, rs1, imm } => {
                let base = self.regs[rs1 as usize];
                let addr = base.wrapping_add(imm as i32 as u32);
                self.mar = addr;
                self.mdr = self.regs[rd as usize];
                self.memory.write(addr, self.mdr)?;
                self.dcache.write_through(addr, self.mdr);
                mem_addr = Some(addr);
            }
            Instr::Cmp { rs1, rs2 } => {
                let a = self.regs[rs1 as usize];
                let b = self.regs[rs2 as usize];
                let (v, c) = a.overflowing_sub(b);
                let overflow = (a as i32).checked_sub(b as i32).is_none();
                self.set_flags_from(v, c, overflow);
            }
            Instr::Cmpi { rs1, imm } => {
                let a = self.regs[rs1 as usize];
                let b = imm as i32 as u32;
                let (v, c) = a.overflowing_sub(b);
                let overflow = (a as i32).checked_sub(b as i32).is_none();
                self.set_flags_from(v, c, overflow);
            }
            Instr::Branch { cond, imm } => {
                if self.cond_holds(cond) {
                    branch_taken = true;
                    next_pc = pc
                        .wrapping_add(4)
                        .wrapping_add((imm as i32 as u32).wrapping_mul(4));
                }
            }
            Instr::Jmp { imm } => {
                next_pc = (imm as u32) * 4;
            }
            Instr::Jal { imm } => {
                self.regs[LINK_REG as usize] = pc.wrapping_add(4);
                next_pc = (imm as u32) * 4;
            }
            Instr::Jr { rs1 } => {
                next_pc = self.regs[rs1 as usize];
            }
        }

        if event != Some(CoreEvent::Halted) {
            self.pc = next_pc;
        }
        self.cycles += cycles;
        self.instret += 1;
        Ok(Executed {
            pc,
            word,
            instr,
            cycles,
            branch_taken,
            mem_addr,
            event,
        })
    }

    /// Fills a step's trace record from the instruction's shared
    /// [`InstrEffect`] def/use table (the same table the static workload
    /// analyzer uses), plus the dynamic memory address when one exists.
    fn record_effect(info: &mut StepInfo, fx: &InstrEffect, mem_addr: Option<u32>) {
        for r in fx.reg_reads.into_iter().flatten() {
            info.reads.push(Loc::Reg(r));
        }
        if fx.reads_psw {
            info.reads.push(Loc::Psw);
        }
        if fx.mem_read {
            info.reads
                .push(Loc::Mem(mem_addr.expect("ld captured its address")));
        }
        if let Some(rd) = fx.reg_write {
            info.writes.push(Loc::Reg(rd));
        }
        if fx.writes_psw {
            info.writes.push(Loc::Psw);
        }
        if fx.mem_write {
            info.writes
                .push(Loc::Mem(mem_addr.expect("st captured its address")));
        }
        info.is_branch = fx.is_branch;
        info.is_call = fx.is_call;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Instr as I;

    fn machine_with(code: &[Instr]) -> Machine {
        let mut m = Machine::new(MachineConfig::default());
        let words: Vec<u32> = code.iter().map(|i| i.encode()).collect();
        m.memory_mut().host_write_block(0, &words);
        m
    }

    fn run(m: &mut Machine, max: usize) -> Result<(), Exception> {
        for _ in 0..max {
            let s = m.step()?;
            if s.event == Some(CoreEvent::Halted) {
                return Ok(());
            }
        }
        panic!("did not halt in {max} steps");
    }

    #[test]
    fn arithmetic_program_computes() {
        let mut m = machine_with(&[
            I::Li { rd: 1, imm: 6 },
            I::Li { rd: 2, imm: 7 },
            I::Mul {
                rd: 3,
                rs1: 1,
                rs2: 2,
            },
            I::St {
                rd: 3,
                rs1: 0,
                imm: 0x4000,
            },
            I::Halt,
        ]);
        m.set_reg(0, 0);
        run(&mut m, 10).unwrap();
        assert_eq!(m.memory().host_read(0x4000), Some(42));
        assert!(m.is_halted());
    }

    #[test]
    fn branch_loop_sums() {
        // sum = 1+2+...+5 into r3
        let mut m = machine_with(&[
            I::Li { rd: 1, imm: 5 }, // counter
            I::Li { rd: 3, imm: 0 }, // acc
            I::Add {
                rd: 3,
                rs1: 3,
                rs2: 1,
            },
            I::Addi {
                rd: 1,
                rs1: 1,
                imm: -1,
            },
            I::Cmpi { rs1: 1, imm: 0 },
            I::Branch {
                cond: Cond::Ne,
                imm: -4,
            },
            I::Halt,
        ]);
        run(&mut m, 100).unwrap();
        assert_eq!(m.reg(3), 15);
    }

    #[test]
    fn jal_and_jr_roundtrip() {
        // call a function at word 4 that sets r5=9 and returns
        let mut m = machine_with(&[
            I::Jal { imm: 3 }, // call word addr 3 (byte 12)
            I::St {
                rd: 5,
                rs1: 0,
                imm: 0x4000,
            },
            I::Halt,
            I::Li { rd: 5, imm: 9 },
            I::Jr { rs1: 15 },
        ]);
        run(&mut m, 20).unwrap();
        assert_eq!(m.memory().host_read(0x4000), Some(9));
    }

    #[test]
    fn overflow_detected() {
        let mut m = machine_with(&[
            I::Li { rd: 1, imm: 0x7fff },
            I::Slli {
                rd: 1,
                rs1: 1,
                imm: 16,
            }, // ~i32::MAX magnitude
            I::Add {
                rd: 2,
                rs1: 1,
                rs2: 1,
            },
            I::Halt,
        ]);
        let mut err = None;
        for _ in 0..10 {
            match m.step() {
                Ok(s) if s.event == Some(CoreEvent::Halted) => break,
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(err, Some(Exception::ArithmeticOverflow));
    }

    #[test]
    fn divide_by_zero_detected() {
        let mut m = machine_with(&[
            I::Li { rd: 1, imm: 10 },
            I::Li { rd: 2, imm: 0 },
            I::Div {
                rd: 3,
                rs1: 1,
                rs2: 2,
            },
            I::Halt,
        ]);
        let err = (0..5).find_map(|_| m.step().err());
        assert_eq!(err, Some(Exception::DivideByZero));
    }

    #[test]
    fn illegal_instruction_detected() {
        let mut m = Machine::new(MachineConfig::default());
        m.memory_mut().host_write(0, 0xff00_0000);
        let err = m.step().unwrap_err();
        assert!(matches!(err, Exception::IllegalInstruction { .. }));
    }

    #[test]
    fn store_to_code_region_detected() {
        let mut m = machine_with(&[
            I::Li { rd: 1, imm: 1 },
            I::St {
                rd: 1,
                rs1: 0,
                imm: 0,
            }, // write into code
        ]);
        m.set_reg(0, 0);
        let err = (0..3).find_map(|_| m.step().err());
        assert!(matches!(err, Some(Exception::MemoryViolation { .. })));
    }

    #[test]
    fn runaway_pc_detected() {
        let mut m = machine_with(&[I::Jmp { imm: 0x3fff }]); // jump out of code region
        m.step().unwrap();
        let err = m.step().unwrap_err();
        assert!(matches!(err, Exception::MemoryViolation { .. }));
    }

    #[test]
    fn watchdog_fires_without_sync() {
        let config = MachineConfig {
            watchdog_limit: 10,
            ..Default::default()
        };
        let mut m = Machine::new(config);
        // Infinite loop without sync: jmp 0
        m.memory_mut().host_write(0, I::Jmp { imm: 0 }.encode());
        let mut err = None;
        for _ in 0..20 {
            if let Err(e) = m.step() {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(Exception::Watchdog));
    }

    #[test]
    fn sync_kicks_watchdog() {
        let config = MachineConfig {
            watchdog_limit: 10,
            ..Default::default()
        };
        let mut m = Machine::new(config);
        // loop: sync; jmp loop — runs forever without watchdog
        m.memory_mut().host_write(0, I::Sync.encode());
        m.memory_mut().host_write(4, I::Jmp { imm: 0 }.encode());
        for _ in 0..100 {
            m.step().unwrap();
        }
        assert!(m.instret() == 100);
    }

    #[test]
    fn scan_injected_register_fault_changes_result() {
        let mut m = machine_with(&[
            I::Li { rd: 1, imm: 5 },
            I::Li { rd: 2, imm: 3 },
            I::Add {
                rd: 3,
                rs1: 1,
                rs2: 2,
            },
            I::St {
                rd: 3,
                rs1: 0,
                imm: 0x4000,
            },
            I::Halt,
        ]);
        m.step().unwrap();
        m.step().unwrap();
        // Inject: flip bit 1 of r1 (5 -> 7) before the add.
        m.set_reg(1, m.reg(1) ^ 0b10);
        run(&mut m, 10).unwrap();
        assert_eq!(m.memory().host_read(0x4000), Some(10)); // 7 + 3
    }

    #[test]
    fn psw_fault_redirects_branch() {
        let mut m = machine_with(&[
            I::Li { rd: 1, imm: 1 },
            I::Cmpi { rs1: 1, imm: 1 }, // Z set
            I::Branch {
                cond: Cond::Eq,
                imm: 1,
            }, // should skip next
            I::Li { rd: 2, imm: 99 },
            I::Halt,
        ]);
        m.step().unwrap();
        m.step().unwrap();
        // Flip Z in the PSW before the branch: branch now falls through.
        m.set_psw(m.psw() ^ PSW_Z);
        run(&mut m, 10).unwrap();
        assert_eq!(m.reg(2), 99);
    }

    #[test]
    fn step_records_reads_and_writes() {
        let mut m = machine_with(&[
            I::Li { rd: 1, imm: 4 },
            I::Ld {
                rd: 2,
                rs1: 1,
                imm: 0x4000,
            },
            I::Halt,
        ]);
        m.memory_mut().host_write(0x4004, 1234);
        m.step().unwrap();
        let s = m.step().unwrap();
        assert!(s.info.reads.contains(&Loc::Reg(1)));
        assert!(s.info.reads.contains(&Loc::Mem(0x4004)));
        assert!(s.info.writes.contains(&Loc::Reg(2)));
        assert_eq!(m.reg(2), 1234);
        assert_eq!(m.mar(), 0x4004);
        assert_eq!(m.mdr(), 1234);
    }

    #[test]
    fn halted_machine_stays_halted() {
        let mut m = machine_with(&[I::Halt]);
        run(&mut m, 2).unwrap();
        let s = m.step().unwrap();
        assert_eq!(s.event, Some(CoreEvent::Halted));
        assert_eq!(m.instret(), 1);
    }

    #[test]
    fn cycles_accumulate_with_cache_penalties() {
        let mut m = machine_with(&[I::Nop, I::Nop, I::Halt]);
        run(&mut m, 5).unwrap();
        // First fetch misses (penalty 8), next two hit in the same line.
        assert_eq!(m.cycles(), 8 + 3);
    }

    #[test]
    fn all_branch_conditions_with_signed_operands() {
        // For (a, b) pairs covering <, ==, > with negative values, every
        // condition must agree with the signed comparison semantics.
        let cases: [(i16, i16); 5] = [(-3, 2), (2, -3), (5, 5), (-7, -7), (-8, -2)];
        for (a, b) in cases {
            for (cond, expected) in [
                (Cond::Eq, a == b),
                (Cond::Ne, a != b),
                (Cond::Lt, a < b),
                (Cond::Ge, a >= b),
                (Cond::Gt, a > b),
                (Cond::Le, a <= b),
            ] {
                let mut m = machine_with(&[
                    I::Li { rd: 1, imm: a },
                    I::Li { rd: 2, imm: b },
                    I::Cmp { rs1: 1, rs2: 2 },
                    I::Branch { cond, imm: 1 }, // skip the marker when taken
                    I::Li { rd: 3, imm: 1 },    // marker: fall-through
                    I::Halt,
                ]);
                run(&mut m, 20).unwrap();
                let taken = m.reg(3) == 0;
                assert_eq!(
                    taken, expected,
                    "cond {cond:?} with a={a}, b={b}: taken={taken}"
                );
            }
        }
    }

    #[test]
    fn cmp_overflow_sets_v_flag_for_correct_signed_compare() {
        // i32::MIN < 1, but MIN - 1 overflows: Lt must still hold via N^V.
        let mut m = machine_with(&[
            I::Lui { rd: 1, imm: 0x8000 }, // i32::MIN
            I::Li { rd: 2, imm: 1 },
            I::Cmp { rs1: 1, rs2: 2 },
            I::Branch {
                cond: Cond::Lt,
                imm: 1,
            },
            I::Li { rd: 3, imm: 1 },
            I::Halt,
        ]);
        run(&mut m, 10).unwrap();
        assert_eq!(m.reg(3), 0, "MIN < 1 must be taken despite overflow");
    }

    #[test]
    fn flag_write_is_full_psw_overwrite() {
        // Reserved PSW bits are hardwired to zero on every flag update —
        // required for pre-injection liveness soundness.
        let mut m = machine_with(&[I::Li { rd: 1, imm: 1 }, I::Cmpi { rs1: 1, imm: 1 }, I::Halt]);
        m.set_psw(0xf0); // scan-injected garbage in reserved bits
        run(&mut m, 10).unwrap();
        assert_eq!(m.psw() & 0xf0, 0, "reserved bits cleared by flag write");
        assert_ne!(m.psw() & PSW_Z, 0);
    }

    #[test]
    fn predecode_invalidated_by_instruction_memory_write() {
        // First run fills the predecode cache; a host (SWIFI) write then
        // rewrites an instruction word in place. Replaying from the same
        // memory must dispatch the new word, not the stale decoded slot.
        let mut m = machine_with(&[
            I::Li { rd: 1, imm: 5 },
            I::St {
                rd: 1,
                rs1: 0,
                imm: 0x4000,
            },
            I::Halt,
        ]);
        run(&mut m, 10).unwrap();
        assert_eq!(m.memory().host_read(0x4000), Some(5));
        // Flip a bit in the li immediate (5 -> 7), rewind the core only.
        // The icache is invalidated so the new word actually reaches the
        // fetch stage; the predecode slot for word 0 still holds the old
        // decode and must be rejected by its raw-word tag.
        let word = m.memory().host_read(0).unwrap();
        m.memory_mut().host_write(0, word ^ 0b10);
        m.icache_mut().invalidate_all();
        m.set_core_state(&CoreState::default());
        run(&mut m, 10).unwrap();
        assert_eq!(m.memory().host_read(0x4000), Some(7));
    }

    /// One [`Machine::step_lean`], with the trace-record fields it does
    /// not return rebuilt from the state it leaves behind.
    fn step_lean_as_step(m: &mut Machine) -> Step {
        let (pc, cycles) = (m.pc(), m.cycles());
        let event = m.step_lean().unwrap();
        let mut info = StepInfo::new(pc, m.ir());
        info.cycles = m.cycles() - cycles;
        info.branch_taken =
            matches!(Instr::decode(m.ir()), Some(I::Branch { .. })) && m.pc() != pc.wrapping_add(4);
        Step { info, event }
    }

    #[test]
    fn step_lean_matches_step_architecturally() {
        let code = [
            I::Li { rd: 1, imm: 5 },
            I::Li { rd: 3, imm: 0 },
            I::Add {
                rd: 3,
                rs1: 3,
                rs2: 1,
            },
            I::Addi {
                rd: 1,
                rs1: 1,
                imm: -1,
            },
            I::Cmpi { rs1: 1, imm: 0 },
            I::Branch {
                cond: Cond::Ne,
                imm: -4,
            },
            I::Mul {
                rd: 4,
                rs1: 3,
                rs2: 3,
            },
            I::St {
                rd: 4,
                rs1: 0,
                imm: 0x4000,
            },
            I::Ld {
                rd: 5,
                rs1: 0,
                imm: 0x4000,
            },
            I::Halt,
        ];
        let mut a = machine_with(&code);
        let mut b = machine_with(&code);
        loop {
            let sa = a.step().unwrap();
            let sb = step_lean_as_step(&mut b);
            assert_eq!(sa.event, sb.event);
            assert_eq!(sa.info.pc, sb.info.pc);
            assert_eq!(sa.info.word, sb.info.word);
            assert_eq!(sa.info.cycles, sb.info.cycles);
            assert_eq!(sa.info.branch_taken, sb.info.branch_taken);
            assert_eq!(a.core_state(), b.core_state());
            if sa.event == Some(CoreEvent::Halted) {
                break;
            }
        }
        assert_eq!(a.memory().words(), b.memory().words());
    }

    #[test]
    fn predecode_off_matches_predecode_on() {
        // The ablation knob must be architecturally invisible: a machine
        // decoding every word from scratch steps identically to one
        // dispatching through the predecode cache.
        let code = [
            I::Li { rd: 1, imm: 9 },
            I::Li { rd: 2, imm: 4 },
            I::Sub {
                rd: 3,
                rs1: 1,
                rs2: 2,
            },
            I::St {
                rd: 3,
                rs1: 0,
                imm: 0x4000,
            },
            I::Halt,
        ];
        let mut a = machine_with(&code);
        let mut b = machine_with(&code);
        b.set_predecode(false);
        assert!(a.predecode_enabled());
        assert!(!b.predecode_enabled());
        loop {
            let sa = a.step().unwrap();
            let sb = b.step().unwrap();
            assert_eq!(sa.info.pc, sb.info.pc);
            assert_eq!(sa.info.word, sb.info.word);
            assert_eq!(a.core_state(), b.core_state());
            if sa.event == Some(CoreEvent::Halted) {
                break;
            }
        }
        assert_eq!(a.memory().words(), b.memory().words());
    }

    #[test]
    fn misaligned_pc_past_code_steps_without_a_predecode_slot() {
        // A misaligned fetch reads the word it falls in, even from an
        // unmappable line (as zeros, a `nop`), so the pc can leave the
        // code region without a trap; the predecode cache has no slot
        // there and must not be indexed.
        let mut m = machine_with(&[I::Jr { rs1: 1 }]);
        m.set_reg(1, 0x3_0001);
        m.step().unwrap();
        assert_eq!(m.step().unwrap().info.word, 0);
        assert_eq!(m.pc(), 0x3_0005);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut m = machine_with(&[I::Li { rd: 1, imm: 3 }, I::Halt]);
        run(&mut m, 5).unwrap();
        m.reset();
        assert_eq!(m.reg(1), 0);
        assert_eq!(m.pc(), 0);
        assert!(!m.is_halted());
        assert_eq!(m.cycles(), 0);
        assert_eq!(m.memory().host_read(0), Some(0));
    }
}
