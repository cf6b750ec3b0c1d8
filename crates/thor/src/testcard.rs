//! The test card: the host computer's access path to the target system.
//!
//! In the paper's setup (Fig. 1) the host talks to the Thor RD board
//! through a test card that can download workloads, set scan-chain
//! breakpoints, shift scan chains and observe debug events. This module is
//! that surface for the simulated target: everything GOOFI's
//! `TargetSystemInterface` needs — `initTestCard`, `loadWorkload`,
//! `runWorkload`, `waitForBreakpoint`, `read/writeMemory`,
//! `read/writeScanChain`, `waitForTermination` — is implemented on
//! [`TestCard`].

use crate::asm::Program;
use crate::cache::Cache;
use crate::edm::Exception;
use crate::machine::{CoreEvent, CoreState, Machine, MachineConfig};
use crate::scan::{BitVector, ScanChain};
use crate::trace::StepInfo;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A debug event delivered by the test card when workload execution stops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DebugEvent {
    /// A breakpoint fired (before executing the instruction at `pc`).
    Breakpoint {
        /// Current program counter.
        pc: u32,
        /// Instructions retired so far.
        instret: u64,
    },
    /// The workload executed `halt`.
    Halted,
    /// The workload executed `sync` (iteration boundary — exchange
    /// environment data now).
    IterationSync,
    /// A hardware error-detection mechanism fired.
    ErrorDetected(Exception),
    /// The cycle budget was exhausted (external time-out, distinct from the
    /// on-chip watchdog).
    TimedOut,
}

/// Error type for host-side test-card operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CardError {
    /// No scan chain with the requested name.
    NoSuchChain(String),
    /// Memory address outside the target's memory, or misaligned.
    BadAddress(u32),
    /// The supplied scan vector has the wrong width.
    WidthMismatch {
        /// Chain the write targeted.
        chain: String,
        /// Expected width in bits.
        expected: usize,
        /// Provided width in bits.
        got: usize,
    },
}

impl std::fmt::Display for CardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CardError::NoSuchChain(name) => write!(f, "no such scan chain `{name}`"),
            CardError::BadAddress(a) => write!(f, "bad target address {a:#x}"),
            CardError::WidthMismatch {
                chain,
                expected,
                got,
            } => write!(
                f,
                "scan vector for `{chain}` has {got} bits, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for CardError {}

/// A frozen copy of the complete target state mid-execution, produced by
/// [`TestCard::snapshot`] and consumed by [`TestCard::restore`].
///
/// Memory is stored as a shared full-size base image ([`Arc`]d, so many
/// snapshots of one execution share one copy) plus a sparse
/// `(word index, value)` overlay built from [`Memory`](crate::Memory)
/// dirty-word tracking — consecutive snapshots of a pilot run cost only
/// the words written since the previous snapshot.
#[derive(Debug, Clone)]
pub struct CardSnapshot {
    core: CoreState,
    icache: Cache,
    dcache: Cache,
    mem_base: Arc<Vec<u32>>,
    mem_delta: Vec<(u32, u32)>,
    instret_breakpoints: BTreeSet<u64>,
    latched: Option<DebugEvent>,
}

// The memory base image shared by consecutive snapshots of one execution,
// plus the cumulative overlay that brings it up to the latest snapshot.
#[derive(Debug, Clone)]
struct SnapBase {
    base: Arc<Vec<u32>>,
    delta: BTreeMap<u32, u32>,
}

/// The host's handle on the target system.
#[derive(Debug, Clone)]
pub struct TestCard {
    machine: Machine,
    chains: Vec<ScanChain>,
    instret_breakpoints: BTreeSet<u64>,
    latched: Option<DebugEvent>,
    snap_base: Option<SnapBase>,
}

impl TestCard {
    /// Creates a test card driving a freshly reset machine.
    pub fn new(config: MachineConfig) -> TestCard {
        let chains = vec![
            ScanChain::cpu_chain(),
            ScanChain::icache_chain(config.icache.lines, config.icache.words_per_line),
            ScanChain::dcache_chain(config.dcache.lines, config.dcache.words_per_line),
            ScanChain::boundary_chain(),
        ];
        TestCard {
            machine: Machine::new(config),
            chains,
            instret_breakpoints: BTreeSet::new(),
            latched: None,
            snap_base: None,
        }
    }

    /// Re-initialises the target: machine reset, breakpoints cleared,
    /// latched events dropped (the paper's per-experiment
    /// "reinitialising the target system").
    pub fn init(&mut self) {
        self.machine.reset();
        self.instret_breakpoints.clear();
        self.latched = None;
        self.snap_base = None;
    }

    /// The simulated machine (observation).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The simulated machine, mutable. Host-side access used by SWIFI and
    /// the boundary between core algorithms and the simulator.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Downloads a program image and sets the PC to its entry point.
    ///
    /// # Errors
    ///
    /// [`CardError::BadAddress`] if a segment does not fit in target memory.
    pub fn download(&mut self, program: &Program) -> Result<(), CardError> {
        self.snap_base = None;
        for seg in &program.segments {
            if !self
                .machine
                .memory_mut()
                .host_write_block(seg.base, &seg.words)
            {
                return Err(CardError::BadAddress(seg.base));
            }
        }
        self.machine.set_pc(program.entry);
        Ok(())
    }

    /// Host memory word read.
    ///
    /// # Errors
    ///
    /// [`CardError::BadAddress`].
    pub fn read_memory(&self, addr: u32) -> Result<u32, CardError> {
        self.machine
            .memory()
            .host_read(addr)
            .ok_or(CardError::BadAddress(addr))
    }

    /// Host memory word write.
    ///
    /// # Errors
    ///
    /// [`CardError::BadAddress`].
    pub fn write_memory(&mut self, addr: u32, value: u32) -> Result<(), CardError> {
        if self.machine.memory_mut().host_write(addr, value) {
            Ok(())
        } else {
            Err(CardError::BadAddress(addr))
        }
    }

    /// Host block read of `len` words.
    ///
    /// # Errors
    ///
    /// [`CardError::BadAddress`].
    pub fn read_memory_block(&self, addr: u32, len: usize) -> Result<Vec<u32>, CardError> {
        self.machine
            .memory()
            .host_read_block(addr, len)
            .ok_or(CardError::BadAddress(addr))
    }

    /// Names of the target's scan chains.
    pub fn chain_names(&self) -> Vec<&str> {
        self.chains.iter().map(|c| c.name()).collect()
    }

    /// Looks up a scan chain by name.
    pub fn chain(&self, name: &str) -> Option<&ScanChain> {
        self.chains.iter().find(|c| c.name() == name)
    }

    /// Shifts a scan chain out.
    ///
    /// # Errors
    ///
    /// [`CardError::NoSuchChain`].
    pub fn read_chain(&self, name: &str) -> Result<BitVector, CardError> {
        let chain = self
            .chain(name)
            .ok_or_else(|| CardError::NoSuchChain(name.to_owned()))?;
        Ok(chain.read(&self.machine))
    }

    /// Shifts a scan vector in (read-only fields are preserved).
    ///
    /// # Errors
    ///
    /// [`CardError::NoSuchChain`] / [`CardError::WidthMismatch`].
    pub fn write_chain(&mut self, name: &str, bits: &BitVector) -> Result<(), CardError> {
        let chain = self
            .chains
            .iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| CardError::NoSuchChain(name.to_owned()))?;
        if bits.len() != chain.width() {
            return Err(CardError::WidthMismatch {
                chain: name.to_owned(),
                expected: chain.width(),
                got: bits.len(),
            });
        }
        chain.write(&mut self.machine, bits);
        Ok(())
    }

    /// Arms a one-shot breakpoint at an instruction count ("point in time").
    pub fn set_breakpoint_instret(&mut self, instret: u64) {
        self.instret_breakpoints.insert(instret);
    }

    /// Executes a single instruction, returning its trace record and
    /// whether it was an iteration boundary (`sync`), or the stopping
    /// event. Breakpoints are ignored (single-step is the detail mode
    /// primitive).
    pub fn step(&mut self) -> Result<(StepInfo, bool), DebugEvent> {
        if let Some(ev) = &self.latched {
            return Err(ev.clone());
        }
        match self.machine.step() {
            Ok(step) => match step.event {
                Some(CoreEvent::Halted) => {
                    self.latched = Some(DebugEvent::Halted);
                    Err(DebugEvent::Halted)
                }
                Some(CoreEvent::Sync) => Ok((step.info, true)),
                None => Ok((step.info, false)),
            },
            Err(e) => {
                let ev = DebugEvent::ErrorDetected(e);
                self.latched = Some(ev.clone());
                Err(ev)
            }
        }
    }

    /// Freezes the complete target state: core registers, memory, both
    /// caches, armed breakpoints and any latched debug event.
    ///
    /// The first snapshot after an [`init`](TestCard::init) or
    /// [`download`](TestCard::download) copies the whole memory image;
    /// later snapshots of the same execution reuse it and record only the
    /// words written in between.
    pub fn snapshot(&mut self) -> CardSnapshot {
        let dirty = self.machine.memory_mut().drain_dirty();
        match &mut self.snap_base {
            Some(sb) => {
                let words = self.machine.memory().words();
                for index in dirty {
                    sb.delta.insert(index, words[index as usize]);
                }
            }
            None => {
                self.snap_base = Some(SnapBase {
                    base: Arc::new(self.machine.memory().words().to_vec()),
                    delta: BTreeMap::new(),
                });
            }
        }
        let sb = self.snap_base.as_ref().expect("snapshot base just set");
        CardSnapshot {
            core: self.machine.core_state(),
            icache: self.machine.icache().clone(),
            dcache: self.machine.dcache().clone(),
            mem_base: Arc::clone(&sb.base),
            mem_delta: sb.delta.iter().map(|(&i, &v)| (i, v)).collect(),
            instret_breakpoints: self.instret_breakpoints.clone(),
            latched: self.latched.clone(),
        }
    }

    /// Rewinds the target to a previously captured snapshot; execution
    /// resumes bit-identically to the run the snapshot was taken from.
    pub fn restore(&mut self, snapshot: &CardSnapshot) {
        self.machine.set_core_state(&snapshot.core);
        // When the current contents already derive from the snapshot's
        // memory image (the steady state of a checkpointed campaign: every
        // experiment restores from the same pilot), only the words written
        // since the last snapshot/restore boundary plus the two sparse
        // deltas can differ — revert those instead of copying the map.
        let same_base = self
            .snap_base
            .as_ref()
            .is_some_and(|sb| Arc::ptr_eq(&sb.base, &snapshot.mem_base));
        if same_base {
            let sb = self.snap_base.as_ref().expect("same_base checked");
            let prev: Vec<(u32, u32)> = sb.delta.iter().map(|(&i, &v)| (i, v)).collect();
            self.machine
                .memory_mut()
                .revert_words(&snapshot.mem_base, &prev, &snapshot.mem_delta);
        } else {
            self.machine
                .memory_mut()
                .restore_words(&snapshot.mem_base, &snapshot.mem_delta);
        }
        // `clone_from` copies into the caches' existing line storage.
        self.machine.icache_mut().clone_from(&snapshot.icache);
        self.machine.dcache_mut().clone_from(&snapshot.dcache);
        self.instret_breakpoints = snapshot.instret_breakpoints.clone();
        self.latched = snapshot.latched.clone();
        // Share the snapshot's memory image as the new base so snapshots
        // taken after a restore stay cheap.
        let mut delta = BTreeMap::new();
        delta.extend(snapshot.mem_delta.iter().copied());
        self.snap_base = Some(SnapBase {
            base: Arc::clone(&snapshot.mem_base),
            delta,
        });
        // Memory now equals base + delta exactly; from here on track fresh
        // writes only, relative to the base we just installed. (The full
        // restore path marked everything dirty; the revert path already
        // drained.)
        self.machine.memory_mut().drain_dirty();
    }

    /// Runs the workload until a breakpoint, `halt`, `sync`, a detected
    /// error, or exhaustion of `cycle_budget` cycles, whichever comes first
    /// (the paper's three termination conditions plus the iteration
    /// boundary). Breakpoints are one-shot: firing removes them, so
    /// resuming does not immediately re-trigger.
    pub fn run(&mut self, cycle_budget: u64) -> DebugEvent {
        if let Some(ev) = &self.latched {
            return ev.clone();
        }
        let deadline = self.machine.cycles().saturating_add(cycle_budget);
        // Fast path: with the predecoded interpreter, the only stopping
        // points are the next breakpoint and the deadline. The
        // breakpoint is hoisted out of
        // the loop (nothing inside inserts breakpoints, and `instret`
        // only counts up, so breakpoints already behind the machine can
        // never fire — exactly the general loop's semantics). Both are
        // checked once per stretch, as the general loop checks them, and
        // the stretch is only as long as neither can come due inside it:
        // it ends before the breakpoint, and with every instruction
        // costing at most `max_step` cycles, it leaves the deadline
        // unreached. Under one `max_step` of budget left, stretches are
        // single instructions.
        if self.machine.predecode_enabled() {
            let next_bp = self
                .instret_breakpoints
                .range(self.machine.instret()..)
                .next()
                .copied();
            let max_step = self.machine.max_step_cycles();
            loop {
                let instret = self.machine.instret();
                if Some(instret) == next_bp {
                    self.instret_breakpoints.remove(&instret);
                    return DebugEvent::Breakpoint {
                        pc: self.machine.pc(),
                        instret,
                    };
                }
                let cycles = self.machine.cycles();
                if cycles >= deadline {
                    return DebugEvent::TimedOut;
                }
                let stretch = ((deadline - cycles) / max_step)
                    .max(1)
                    .min(next_bp.map_or(u64::MAX, |bp| bp - instret));
                for _ in 0..stretch {
                    match self.machine.step_lean() {
                        Ok(None) => {}
                        Ok(Some(CoreEvent::Halted)) => {
                            self.latched = Some(DebugEvent::Halted);
                            return DebugEvent::Halted;
                        }
                        Ok(Some(CoreEvent::Sync)) => return DebugEvent::IterationSync,
                        Err(e) => {
                            let ev = DebugEvent::ErrorDetected(e);
                            self.latched = Some(ev.clone());
                            return ev;
                        }
                    }
                }
            }
        }
        // The plain fetch/decode interpreter (predecode off), one
        // instruction at a time.
        loop {
            // Breakpoints fire before the instruction executes.
            if self.instret_breakpoints.remove(&self.machine.instret()) {
                return DebugEvent::Breakpoint {
                    pc: self.machine.pc(),
                    instret: self.machine.instret(),
                };
            }
            if self.machine.cycles() >= deadline {
                return DebugEvent::TimedOut;
            }
            match self.machine.step() {
                Ok(step) => match step.event {
                    Some(CoreEvent::Halted) => {
                        self.latched = Some(DebugEvent::Halted);
                        return DebugEvent::Halted;
                    }
                    Some(CoreEvent::Sync) => return DebugEvent::IterationSync,
                    None => {}
                },
                Err(e) => {
                    let ev = DebugEvent::ErrorDetected(e);
                    self.latched = Some(ev.clone());
                    return ev;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::edm::Mechanism;

    fn card_with(src: &str) -> TestCard {
        let program = assemble(src).unwrap();
        let mut card = TestCard::new(MachineConfig::default());
        card.download(&program).unwrap();
        card
    }

    const SUM_PROGRAM: &str = "\
        li r1, 5\n\
        li r3, 0\n\
        loop: add r3, r3, r1\n\
        addi r1, r1, -1\n\
        cmpi r1, 0\n\
        bne loop\n\
        la r4, result\n\
        st r3, (r4)\n\
        halt\n\
        .org 0x4000\n\
        result: .word 0\n";

    #[test]
    fn runs_to_halt_and_reads_result() {
        let mut card = card_with(SUM_PROGRAM);
        assert_eq!(card.run(1_000_000), DebugEvent::Halted);
        assert_eq!(card.read_memory(0x4000).unwrap(), 15);
        // Latched: further runs report Halted again.
        assert_eq!(card.run(10), DebugEvent::Halted);
    }

    #[test]
    fn instret_breakpoint_fires_once() {
        let mut card = card_with(SUM_PROGRAM);
        card.set_breakpoint_instret(4);
        match card.run(1_000_000) {
            DebugEvent::Breakpoint { instret, .. } => assert_eq!(instret, 4),
            other => panic!("expected breakpoint, got {other:?}"),
        }
        // Resuming does not immediately re-trigger.
        assert_eq!(card.run(1_000_000), DebugEvent::Halted);
    }

    #[test]
    fn scan_injection_at_breakpoint_corrupts_result() {
        let mut card = card_with(SUM_PROGRAM);
        card.set_breakpoint_instret(2); // before first add
        card.run(1_000_000);
        // Flip bit 3 of R1 (5 -> 13) via the cpu chain.
        let mut bits = card.read_chain("cpu").unwrap();
        let (off, _, _) = card.chain("cpu").unwrap().locate("R1").unwrap();
        bits.flip(off + 3);
        card.write_chain("cpu", &bits).unwrap();
        assert_eq!(card.run(1_000_000), DebugEvent::Halted);
        // 13+12+...? The loop runs 13 times: sum 13..1 = 91.
        assert_eq!(card.read_memory(0x4000).unwrap(), 91);
    }

    #[test]
    fn icache_fault_detected_by_parity() {
        let mut card = card_with(SUM_PROGRAM);
        card.set_breakpoint_instret(3);
        card.run(1_000_000);
        // Flip a bit in the cached copy of the loop body.
        let mut bits = card.read_chain("icache").unwrap();
        let (off, _, _) = card.chain("icache").unwrap().locate("IC0.W2").unwrap();
        bits.flip(off + 7);
        card.write_chain("icache", &bits).unwrap();
        match card.run(1_000_000) {
            DebugEvent::ErrorDetected(e) => {
                assert_eq!(e.mechanism(), Mechanism::IcacheParity)
            }
            other => panic!("expected parity detection, got {other:?}"),
        }
    }

    #[test]
    fn timeout_budget_respected() {
        let mut card = card_with("loop: jmp loop\n");
        assert_eq!(card.run(1000), DebugEvent::TimedOut);
        // Not latched: can keep running.
        assert_eq!(card.run(1000), DebugEvent::TimedOut);
    }

    #[test]
    fn sync_reports_iteration_boundary() {
        let mut card = card_with("loop: sync\njmp loop\n");
        assert_eq!(card.run(1_000_000), DebugEvent::IterationSync);
        assert_eq!(card.run(1_000_000), DebugEvent::IterationSync);
    }

    #[test]
    fn init_resets_everything() {
        let mut card = card_with(SUM_PROGRAM);
        card.set_breakpoint_instret(3);
        card.run(1_000_000);
        card.init();
        assert_eq!(card.machine().instret(), 0);
        assert_eq!(card.read_memory(0).unwrap(), 0, "memory cleared");
        // No latched event; running empty memory decodes word 0 = NOP and
        // eventually runs off the code region.
        match card.run(1_000_000_000) {
            DebugEvent::ErrorDetected(_) => {}
            other => panic!("expected runaway detection, got {other:?}"),
        }
    }

    #[test]
    fn chain_errors_reported() {
        let mut card = card_with(SUM_PROGRAM);
        assert!(matches!(
            card.read_chain("nope"),
            Err(CardError::NoSuchChain(_))
        ));
        let bits = BitVector::zeros(3);
        assert!(matches!(
            card.write_chain("cpu", &bits),
            Err(CardError::WidthMismatch { .. })
        ));
        assert!(matches!(
            card.read_memory(0xffff_fff0),
            Err(CardError::BadAddress(_))
        ));
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        let mut card = card_with(SUM_PROGRAM);
        card.set_breakpoint_instret(6);
        assert!(matches!(
            card.run(1_000_000),
            DebugEvent::Breakpoint { instret: 6, .. }
        ));
        let snap = card.snapshot();
        assert_eq!(card.run(1_000_000), DebugEvent::Halted);
        let final_state = card.machine().core_state();
        assert_eq!(card.read_memory(0x4000).unwrap(), 15);

        card.restore(&snap);
        assert_eq!(card.machine().instret(), 6);
        assert!(!card.machine().is_halted());
        assert_eq!(card.run(1_000_000), DebugEvent::Halted);
        assert_eq!(card.machine().core_state(), final_state);
        assert_eq!(card.read_memory(0x4000).unwrap(), 15);
    }

    #[test]
    fn consecutive_snapshots_share_one_memory_base() {
        let mut card = card_with(SUM_PROGRAM);
        card.set_breakpoint_instret(3);
        card.run(1_000_000);
        let a = card.snapshot();
        card.set_breakpoint_instret(20);
        card.run(1_000_000);
        let b = card.snapshot();
        assert!(Arc::ptr_eq(&a.mem_base, &b.mem_base));
        // The store at instret 23 hasn't happened yet: only breakpoint-free
        // prefix writes land in the delta (none touch memory here).
        assert!(b.mem_delta.len() <= 1);

        // Restoring the earlier snapshot and re-running reaches the same
        // halt state as restoring the later one and re-running.
        card.restore(&a);
        card.run(1_000_000);
        let from_a = (
            card.machine().core_state(),
            card.read_memory(0x4000).unwrap(),
        );
        card.restore(&b);
        card.run(1_000_000);
        let from_b = (
            card.machine().core_state(),
            card.read_memory(0x4000).unwrap(),
        );
        assert_eq!(from_a, from_b);
    }

    #[test]
    fn restore_carries_latched_events_and_breakpoints() {
        let mut card = card_with(SUM_PROGRAM);
        card.set_breakpoint_instret(40);
        card.run(1_000_000); // halts before instret 40 fires
        let halted = card.snapshot();
        card.init();
        card.restore(&halted);
        // Latched halt survives the roundtrip.
        assert_eq!(card.run(10), DebugEvent::Halted);
    }

    #[test]
    fn swifi_memory_write_changes_program() {
        // Pre-runtime SWIFI: flip a bit in the downloaded image.
        let mut card = card_with(SUM_PROGRAM);
        let w = card.read_memory(0).unwrap();
        // Flip a bit inside the immediate of `li r1, 5` (bit 1: 5 -> 7).
        card.write_memory(0, w ^ 0b10).unwrap();
        assert_eq!(card.run(1_000_000), DebugEvent::Halted);
        assert_eq!(card.read_memory(0x4000).unwrap(), 28); // sum 7..1
    }
}
