//! The target-system interface: the paper's abstract building blocks.
//!
//! GOOFI's `FaultInjectionAlgorithms` class (paper Fig. 2) declares the
//! abstract methods — `initTestCard`, `loadWorkload`, `runWorkload`,
//! `waitForBreakpoint`, `write/readMemory`, `read/writeScanChain`,
//! `waitForTermination` — and each target implements them in a
//! `TargetSystemInterface` subclass created from the `Framework` template
//! (Fig. 3). In Rust the same split is a trait whose methods all have
//! default bodies returning [`GoofiError::Unsupported`]: a new target
//! overrides exactly the blocks its techniques need, and a technique driven
//! against a target missing a block fails with a precise diagnostic instead
//! of a compile error — mirroring the paper's runtime-extensible design.
//!
//! The simulator realisation is synchronous: `run_workload` arms execution
//! and the two `wait_*` methods advance the target until the next event.

use crate::bits::StateVector;
use crate::error::{GoofiError, Result};
use serde::{Deserialize, Serialize};

/// An event that stopped (or punctuated) workload execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetEvent {
    /// The armed breakpoint fired; the target is halted for injection.
    BreakpointHit {
        /// Instructions retired when the breakpoint fired.
        time: u64,
    },
    /// The workload terminated normally.
    Halted,
    /// A hardware error-detection mechanism fired.
    Detected {
        /// Stable mechanism name (e.g. `"dcache-parity"`).
        mechanism: String,
        /// Human-readable detail.
        detail: String,
    },
    /// A cyclic workload completed its configured number of iterations.
    IterationsDone,
    /// The external time-out expired (timeliness violation).
    TimedOut,
}

impl TargetEvent {
    /// Whether this event ends the experiment (vs. a breakpoint pause).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, TargetEvent::BreakpointHit { .. })
    }
}

/// Description of one scan-chain field, as shown in the paper's Fig. 5
/// configuration window and stored in `TargetSystemData`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldInfo {
    /// Location name (e.g. `"R3"`, `"DC0.TAG"`).
    pub name: String,
    /// Bit offset within the chain.
    pub offset: usize,
    /// Width in bits.
    pub width: usize,
    /// `false` for observe-only locations.
    pub writable: bool,
}

/// Description of one scan chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainInfo {
    /// Chain name (e.g. `"cpu"`, `"boundary"`).
    pub name: String,
    /// Total width in bits.
    pub width: usize,
    /// Fields in shift order.
    pub fields: Vec<FieldInfo>,
}

impl ChainInfo {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldInfo> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// The field covering bit `pos`.
    pub fn field_at(&self, pos: usize) -> Option<&FieldInfo> {
        self.fields
            .iter()
            .find(|f| pos >= f.offset && pos < f.offset + f.width)
    }
}

/// A writable memory range of the target (for SWIFI location selection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryRegion {
    /// First byte address.
    pub start: u32,
    /// Length in bytes.
    pub len: u32,
    /// Role label (`"code"`, `"data"`).
    pub role: MemoryRole,
}

/// The role of a memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemoryRole {
    /// Program code.
    Code,
    /// Workload data.
    Data,
}

/// Everything the tool needs to know about a target system: the contents
/// of the paper's `TargetSystemData` table row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TargetSystemConfig {
    /// Target (test-card) name.
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Scan chains, if the target supports SCIFI.
    pub chains: Vec<ChainInfo>,
    /// Memory regions, if the target supports SWIFI.
    pub memory: Vec<MemoryRegion>,
}

impl TargetSystemConfig {
    /// Looks up a chain by name.
    pub fn chain(&self, name: &str) -> Option<&ChainInfo> {
        self.chains.iter().find(|c| c.name == name)
    }
}

/// One step of a reference-run execution trace, used by detail-mode logging
/// and pre-injection analysis. Location names use the same vocabulary as
/// the scan-chain field names (`"R3"`, `"PSW"`) plus `"MEM[0x4000]"` for
/// memory words.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStep {
    /// Instruction index (0-based).
    pub time: u64,
    /// Locations read by this instruction.
    pub reads: Vec<String>,
    /// Locations written by this instruction.
    pub writes: Vec<String>,
    /// Whether this was a conditional branch (for branch triggers).
    pub is_branch: bool,
    /// Whether this was a subprogram call (for call triggers).
    pub is_call: bool,
}

/// Canonical name of a memory-word location in traces.
pub fn mem_loc_name(addr: u32) -> String {
    format!("MEM[0x{addr:x}]")
}

/// An opaque, type-erased snapshot of a target's full architectural state.
///
/// [`TargetSystemInterface::snapshot`] produces one and
/// [`TargetSystemInterface::restore`] consumes it; only the target that
/// created a snapshot can interpret it, so the payload is erased behind
/// `Any`. The value is `Send + Sync` because the checkpoint cache shares
/// snapshots by reference across scheduler worker threads.
pub struct TargetSnapshot(Box<dyn std::any::Any + Send + Sync>);

impl TargetSnapshot {
    /// Wraps a target-specific state value.
    pub fn new<T: std::any::Any + Send + Sync>(state: T) -> Self {
        TargetSnapshot(Box::new(state))
    }

    /// Recovers the target-specific state, or `None` if this snapshot was
    /// produced by a different target type.
    pub fn downcast_ref<T: std::any::Any + Send + Sync>(&self) -> Option<&T> {
        self.0.downcast_ref::<T>()
    }
}

impl std::fmt::Debug for TargetSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TargetSnapshot(..)")
    }
}

/// The abstract target interface (paper Fig. 2 + Fig. 3).
///
/// All methods default to [`GoofiError::Unsupported`]; a target overrides
/// the subset its fault-injection techniques require. SCIFI needs the scan
/// methods; pre-runtime SWIFI needs only memory access; runtime SWIFI needs
/// memory access plus breakpoints.
#[allow(unused_variables)]
pub trait TargetSystemInterface: Send {
    /// Stable target name (the paper's `testCardName`).
    fn target_name(&self) -> &str;

    /// Full target description for the configuration phase.
    fn describe(&self) -> TargetSystemConfig;

    /// Resets the test card and target hardware to a pristine state.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; target faults.
    fn init_test_card(&mut self) -> Result<()> {
        Err(self.unsupported("initTestCard"))
    }

    /// Downloads the workload image and initial input data.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; target faults.
    fn load_workload(&mut self) -> Result<()> {
        Err(self.unsupported("loadWorkload"))
    }

    /// Writes words into target memory (initial inputs, runtime SWIFI).
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; target faults.
    fn write_memory(&mut self, addr: u32, data: &[u32]) -> Result<()> {
        Err(self.unsupported("writeMemory"))
    }

    /// Reads words from target memory (results, state logging).
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; target faults.
    fn read_memory(&mut self, addr: u32, len: usize) -> Result<Vec<u32>> {
        Err(self.unsupported("readMemory"))
    }

    /// Arms a breakpoint at an instruction count ("point in time when the
    /// fault should be injected").
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; target faults.
    fn set_breakpoint(&mut self, time: u64) -> Result<()> {
        Err(self.unsupported("setBreakpoint"))
    }

    /// Starts (arms) workload execution from the entry point.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; target faults.
    fn run_workload(&mut self) -> Result<()> {
        Err(self.unsupported("runWorkload"))
    }

    /// Advances execution until the armed breakpoint or a terminal event.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; target faults.
    fn wait_for_breakpoint(&mut self) -> Result<TargetEvent> {
        Err(self.unsupported("waitForBreakpoint"))
    }

    /// Advances execution until the workload terminates (halt, detection,
    /// iteration budget, or time-out).
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; target faults.
    fn wait_for_termination(&mut self) -> Result<TargetEvent> {
        Err(self.unsupported("waitForTermination"))
    }

    /// Shifts a scan chain out.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; target faults.
    fn read_scan_chain(&mut self, chain: &str) -> Result<StateVector> {
        Err(self.unsupported("readScanChain"))
    }

    /// Shifts a scan vector in (read-only fields must be preserved by the
    /// target).
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; target faults.
    fn write_scan_chain(&mut self, chain: &str, bits: &StateVector) -> Result<()> {
        Err(self.unsupported("writeScanChain"))
    }

    /// Snapshot of all observable state (every chain concatenated, or the
    /// target's equivalent). Logged to `LoggedSystemState.stateVector`.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; target faults.
    fn observe_state(&mut self) -> Result<StateVector> {
        Err(self.unsupported("observeState"))
    }

    /// The workload's output/result words (used for escaped-error
    /// detection).
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; target faults.
    fn read_outputs(&mut self) -> Result<Vec<u32>> {
        Err(self.unsupported("readOutputs"))
    }

    /// Executes one instruction (detail mode). Returns the terminal event
    /// if the instruction ended the run.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; target faults.
    fn step_instruction(&mut self) -> Result<Option<TargetEvent>> {
        Err(self.unsupported("stepInstruction"))
    }

    /// Runs a full fault-free execution and returns the per-instruction
    /// trace (for trigger placement, and for the trace-based liveness
    /// oracle the static analysis is checked against).
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; target faults.
    fn collect_trace(&mut self) -> Result<Vec<TraceStep>> {
        Err(self.unsupported("collectTrace"))
    }

    /// Statically analyses the loaded workload binary: CFG construction,
    /// backward write-before-read liveness, lints and dead injection
    /// windows up to `horizon` (the largest injection time the campaign
    /// will use). Unlike
    /// [`collect_trace`](TargetSystemInterface::collect_trace) this needs
    /// no reference detail trace. The runner decides every pruned,
    /// predicted and class-proxied experiment from it (see
    /// [`Pruning`](crate::staticanalysis::Pruning)) and runs the campaign
    /// unpruned when the target does not implement it.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; target faults.
    fn static_analysis(&mut self, horizon: u64) -> Result<crate::staticanalysis::StaticAnalysis> {
        let _ = horizon;
        Err(self.unsupported("staticAnalysis"))
    }

    /// Instructions retired since the workload started (for timeliness
    /// analysis and multi-activation scheduling).
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; target faults.
    fn instructions_retired(&mut self) -> Result<u64> {
        Err(self.unsupported("instructionsRetired"))
    }

    /// Completed workload iterations (cyclic workloads).
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; target faults.
    fn iterations_completed(&mut self) -> Result<u32> {
        Err(self.unsupported("iterationsCompleted"))
    }

    /// Captures the target's full architectural state mid-execution so a
    /// later [`restore`](TargetSystemInterface::restore) can resume from
    /// exactly this point. The checkpoint cache uses this to share the
    /// fault-free prefix of a campaign across experiments.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; target faults.
    fn snapshot(&mut self) -> Result<TargetSnapshot> {
        Err(self.unsupported("snapshot"))
    }

    /// Rewinds the target to a state previously captured by
    /// [`snapshot`](TargetSystemInterface::snapshot). After a restore the
    /// target must behave bit-identically to the execution the snapshot was
    /// taken from.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Unsupported`] unless overridden; a snapshot from a
    /// different target type; target faults.
    fn restore(&mut self, snapshot: &TargetSnapshot) -> Result<()> {
        Err(self.unsupported("restore"))
    }

    /// Helper constructing the template error for an unimplemented block.
    fn unsupported(&self, method: &'static str) -> GoofiError {
        GoofiError::Unsupported {
            method,
            target: self.target_name().to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A target created straight from the framework template, overriding
    /// nothing (paper Fig. 3 before the programmer fills anything in).
    struct EmptyTarget;

    impl TargetSystemInterface for EmptyTarget {
        fn target_name(&self) -> &str {
            "empty"
        }

        fn describe(&self) -> TargetSystemConfig {
            TargetSystemConfig {
                name: "empty".into(),
                description: String::new(),
                chains: Vec::new(),
                memory: Vec::new(),
            }
        }
    }

    #[test]
    fn template_methods_report_which_block_is_missing() {
        let mut t = EmptyTarget;
        let err = t.read_scan_chain("cpu").unwrap_err();
        match err {
            GoofiError::Unsupported { method, target } => {
                assert_eq!(method, "readScanChain");
                assert_eq!(target, "empty");
            }
            other => panic!("wrong error {other}"),
        }
        assert!(t.load_workload().is_err());
        assert!(t.wait_for_termination().is_err());
        assert!(t.collect_trace().is_err());
    }

    #[test]
    fn trait_is_object_safe() {
        let mut targets: Vec<Box<dyn TargetSystemInterface>> = vec![Box::new(EmptyTarget)];
        assert_eq!(targets[0].target_name(), "empty");
        assert!(targets[0].init_test_card().is_err());
    }

    #[test]
    fn snapshot_defaults_to_unsupported() {
        let mut t = EmptyTarget;
        match t.snapshot().unwrap_err() {
            GoofiError::Unsupported { method, target } => {
                assert_eq!(method, "snapshot");
                assert_eq!(target, "empty");
            }
            other => panic!("wrong error {other}"),
        }
        let foreign = TargetSnapshot::new(42u32);
        assert!(t.restore(&foreign).is_err());
    }

    #[test]
    fn snapshot_downcast_roundtrip() {
        let snap = TargetSnapshot::new(vec![1u32, 2, 3]);
        assert_eq!(snap.downcast_ref::<Vec<u32>>().unwrap(), &vec![1, 2, 3]);
        assert!(snap.downcast_ref::<String>().is_none());
        assert_eq!(format!("{snap:?}"), "TargetSnapshot(..)");
    }

    #[test]
    fn chain_info_lookup() {
        let info = ChainInfo {
            name: "cpu".into(),
            width: 64,
            fields: vec![
                FieldInfo {
                    name: "R0".into(),
                    offset: 0,
                    width: 32,
                    writable: true,
                },
                FieldInfo {
                    name: "PC".into(),
                    offset: 32,
                    width: 32,
                    writable: true,
                },
            ],
        };
        assert_eq!(info.field("PC").unwrap().offset, 32);
        assert_eq!(info.field_at(40).unwrap().name, "PC");
        assert!(info.field_at(64).is_none());
    }

    #[test]
    fn breakpoint_is_not_terminal() {
        assert!(!TargetEvent::BreakpointHit { time: 3 }.is_terminal());
        assert!(TargetEvent::Halted.is_terminal());
        assert!(TargetEvent::TimedOut.is_terminal());
        assert!(TargetEvent::Detected {
            mechanism: "watchdog".into(),
            detail: String::new()
        }
        .is_terminal());
    }

    #[test]
    fn mem_loc_names_are_stable() {
        assert_eq!(mem_loc_name(0x4000), "MEM[0x4000]");
    }
}
