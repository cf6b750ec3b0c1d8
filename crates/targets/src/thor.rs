//! `TargetSystemInterface` adapter for the Thor RD target system.
//!
//! This is the paper's `TargetSystemInterface` subclass for the Thor RD
//! board: it implements the abstract building blocks on top of the
//! [`TestCard`] and handles the per-iteration environment exchange for
//! cyclic workloads (paper Section 3.2).

use goofi_core::{
    mem_loc_name, ChainInfo, FieldInfo, GoofiError, MemoryRegion, MemoryRole, Result, StateVector,
    TargetEvent, TargetSnapshot, TargetSystemConfig, TargetSystemInterface, TraceStep,
};
use goofi_envsim::Environment;
use goofi_telemetry::names;
use goofi_workloads::{Workload, WorkloadKind, IO_IN_ADDR, IO_OUT_ADDR};
use thor_rd::{
    BitVector, CardError, CardSnapshot, DebugEvent, Loc, MachineConfig, StepInfo, TestCard,
};

/// Default per-experiment cycle budget (external time-out).
pub const DEFAULT_CYCLE_BUDGET: u64 = 5_000_000;

/// Cap on reference-trace length, so runaway workloads cannot hang the
/// configuration phase.
const TRACE_CAP: usize = 2_000_000;

/// Words of the data region included in the observable state snapshot
/// (beyond the scan chains): covers every bundled workload's result area.
const OBSERVE_DATA_WORDS: usize = 256;

/// The Thor RD target adapter. One instance drives one simulated board and
/// one workload; campaigns of any technique (SCIFI, pre-runtime or runtime
/// SWIFI) can run against it.
pub struct ThorTarget {
    name: String,
    card: TestCard,
    machine_config: MachineConfig,
    workload: Workload,
    env: Option<Box<dyn Environment + Send>>,
    cycle_budget: u64,
    iterations: u32,
    output_history: Vec<u32>,
}

impl ThorTarget {
    /// Creates an adapter for a batch workload.
    pub fn new(name: impl Into<String>, workload: Workload) -> ThorTarget {
        Self::with_env_opt(name, workload, None)
    }

    /// Creates an adapter for a cyclic workload with its environment
    /// simulator.
    pub fn with_env(
        name: impl Into<String>,
        workload: Workload,
        env: Box<dyn Environment + Send>,
    ) -> ThorTarget {
        Self::with_env_opt(name, workload, Some(env))
    }

    fn with_env_opt(
        name: impl Into<String>,
        workload: Workload,
        env: Option<Box<dyn Environment + Send>>,
    ) -> ThorTarget {
        let machine_config = MachineConfig::default();
        ThorTarget {
            name: name.into(),
            card: TestCard::new(machine_config),
            machine_config,
            workload,
            env,
            cycle_budget: DEFAULT_CYCLE_BUDGET,
            iterations: 0,
            output_history: Vec::new(),
        }
    }

    /// Overrides the per-experiment cycle budget.
    pub fn set_cycle_budget(&mut self, budget: u64) {
        self.cycle_budget = budget;
    }

    /// Toggles the interpreter's predecoded fast path (on by default).
    /// Benches flip it off to measure the predecode speedup against the
    /// plain fetch/decode loop; results are architecturally identical.
    pub fn set_interpreter_fast_path(&mut self, on: bool) {
        self.card.machine_mut().set_predecode(on);
    }

    /// The underlying test card (for tests and ad-hoc inspection).
    pub fn card(&self) -> &TestCard {
        &self.card
    }

    /// The workload this adapter drives.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    fn card_err(e: CardError) -> GoofiError {
        GoofiError::Target(e.to_string())
    }

    /// Exchanges environment data at an iteration boundary: read the
    /// workload's outputs, advance the plant, write the next inputs.
    fn exchange_env(&mut self) -> Result<()> {
        let WorkloadKind::Cyclic {
            num_inputs,
            num_outputs,
            ..
        } = self.workload.kind
        else {
            return Ok(());
        };
        let mut outputs = Vec::with_capacity(num_outputs);
        for i in 0..num_outputs {
            let w = self
                .card
                .read_memory(IO_OUT_ADDR + (i as u32) * 4)
                .map_err(Self::card_err)?;
            outputs.push(w as i32);
        }
        self.output_history
            .extend(outputs.iter().map(|&v| v as u32));
        let env = self
            .env
            .as_mut()
            .ok_or_else(|| GoofiError::Target("cyclic workload without environment".into()))?;
        let inputs = env.exchange(&outputs);
        debug_assert_eq!(inputs.len(), num_inputs);
        for (i, v) in inputs.iter().enumerate() {
            self.card
                .write_memory(IO_IN_ADDR + (i as u32) * 4, *v as u32)
                .map_err(Self::card_err)?;
        }
        Ok(())
    }

    /// An iteration boundary (`sync`): exchanges environment data and
    /// counts the iteration. `true` once a cyclic workload has run its
    /// last iteration.
    fn iteration_sync(&mut self) -> Result<bool> {
        self.exchange_env()?;
        self.iterations += 1;
        Ok(matches!(
            self.workload.kind,
            WorkloadKind::Cyclic { max_iterations, .. } if self.iterations >= max_iterations
        ))
    }

    fn remaining_budget(&self) -> u64 {
        self.cycle_budget
            .saturating_sub(self.card.machine().cycles())
    }

    /// The shared run loop behind `wait_for_breakpoint` and
    /// `wait_for_termination`.
    fn run_until(&mut self, stop_at_breakpoint: bool) -> Result<TargetEvent> {
        loop {
            let budget = self.remaining_budget();
            if budget == 0 {
                return Ok(TargetEvent::TimedOut);
            }
            match self.card.run(budget) {
                DebugEvent::Breakpoint { instret, .. } => {
                    if stop_at_breakpoint {
                        return Ok(TargetEvent::BreakpointHit { time: instret });
                    }
                    // Stray breakpoint while running to termination: ignore.
                }
                DebugEvent::Halted => return Ok(TargetEvent::Halted),
                DebugEvent::IterationSync => {
                    if self.iteration_sync()? {
                        return Ok(TargetEvent::IterationsDone);
                    }
                }
                DebugEvent::ErrorDetected(e) => {
                    return Ok(TargetEvent::Detected {
                        mechanism: e.mechanism().name().to_owned(),
                        detail: e.to_string(),
                    })
                }
                DebugEvent::TimedOut => return Ok(TargetEvent::TimedOut),
            }
        }
    }

    fn loc_name(loc: &Loc) -> String {
        match loc {
            Loc::Reg(r) => format!("R{r}"),
            Loc::Psw => "PSW".to_owned(),
            Loc::Mem(a) => mem_loc_name(*a),
        }
    }

    fn trace_step(info: &StepInfo, time: u64) -> TraceStep {
        TraceStep {
            time,
            reads: info.reads.iter().map(Self::loc_name).collect(),
            writes: info.writes.iter().map(Self::loc_name).collect(),
            is_branch: info.is_branch,
            is_call: info.is_call,
        }
    }
}

/// The payload behind [`TargetSnapshot`] for [`ThorTarget`]: the full
/// test-card state plus the adapter's own iteration bookkeeping.
struct ThorSnapshot {
    card: CardSnapshot,
    iterations: u32,
    output_history: Vec<u32>,
}

fn to_core_bits(bits: &BitVector) -> StateVector {
    StateVector::from_bytes(bits.to_bytes(), bits.len())
}

fn to_thor_bits(bits: &StateVector) -> BitVector {
    BitVector::from_bytes(bits.as_bytes(), bits.len())
}

impl TargetSystemInterface for ThorTarget {
    fn target_name(&self) -> &str {
        &self.name
    }

    fn describe(&self) -> TargetSystemConfig {
        let chains = self
            .card
            .chain_names()
            .into_iter()
            .map(|name| {
                let chain = self.card.chain(name).expect("listed chain exists");
                ChainInfo {
                    name: chain.name().to_owned(),
                    width: chain.width(),
                    fields: chain
                        .fields()
                        .iter()
                        .map(|f| FieldInfo {
                            name: f.name.clone(),
                            offset: f.offset,
                            width: f.field.width(),
                            writable: f.field.is_writable(),
                        })
                        .collect(),
                }
            })
            .collect();
        let map = self.machine_config.memory;
        TargetSystemConfig {
            name: self.name.clone(),
            description: format!(
                "Thor RD board, workload `{}` ({} bytes memory)",
                self.workload.name, map.size
            ),
            chains,
            memory: vec![
                MemoryRegion {
                    start: 0,
                    len: map.code_end,
                    role: MemoryRole::Code,
                },
                MemoryRegion {
                    start: map.code_end,
                    len: map.size - map.code_end,
                    role: MemoryRole::Data,
                },
            ],
        }
    }

    fn init_test_card(&mut self) -> Result<()> {
        self.card.init();
        if let Some(env) = self.env.as_mut() {
            env.reset();
        }
        self.iterations = 0;
        self.output_history.clear();
        Ok(())
    }

    fn load_workload(&mut self) -> Result<()> {
        self.card
            .download(&self.workload.program)
            .map_err(Self::card_err)?;
        // Stage iteration-0 inputs for cyclic workloads: the environment's
        // first exchange (with all-zero outputs) happens at download time,
        // identically for reference and fault-injected runs.
        if let WorkloadKind::Cyclic {
            num_inputs,
            num_outputs,
            ..
        } = self.workload.kind
        {
            let env = self
                .env
                .as_mut()
                .ok_or_else(|| GoofiError::Target("cyclic workload without environment".into()))?;
            let inputs = env.exchange(&vec![0; num_outputs]);
            debug_assert_eq!(inputs.len(), num_inputs);
            for (i, v) in inputs.iter().enumerate() {
                self.card
                    .write_memory(IO_IN_ADDR + (i as u32) * 4, *v as u32)
                    .map_err(Self::card_err)?;
            }
        }
        Ok(())
    }

    fn write_memory(&mut self, addr: u32, data: &[u32]) -> Result<()> {
        for (i, w) in data.iter().enumerate() {
            self.card
                .write_memory(addr + (i as u32) * 4, *w)
                .map_err(Self::card_err)?;
        }
        Ok(())
    }

    fn read_memory(&mut self, addr: u32, len: usize) -> Result<Vec<u32>> {
        self.card
            .read_memory_block(addr, len)
            .map_err(Self::card_err)
    }

    fn set_breakpoint(&mut self, time: u64) -> Result<()> {
        self.card.set_breakpoint_instret(time);
        Ok(())
    }

    fn run_workload(&mut self) -> Result<()> {
        // Synchronous realisation: execution advances in the wait_* calls.
        Ok(())
    }

    fn wait_for_breakpoint(&mut self) -> Result<TargetEvent> {
        self.run_until(true)
    }

    fn wait_for_termination(&mut self) -> Result<TargetEvent> {
        self.run_until(false)
    }

    fn read_scan_chain(&mut self, chain: &str) -> Result<StateVector> {
        let _s = tracing::span(names::BLOCK_READ_SCAN_CHAIN);
        let bits = self.card.read_chain(chain).map_err(Self::card_err)?;
        Ok(to_core_bits(&bits))
    }

    fn write_scan_chain(&mut self, chain: &str, bits: &StateVector) -> Result<()> {
        let _s = tracing::span(names::BLOCK_WRITE_SCAN_CHAIN);
        self.card
            .write_chain(chain, &to_thor_bits(bits))
            .map_err(Self::card_err)
    }

    fn observe_state(&mut self) -> Result<StateVector> {
        // All scan chains plus the start of the data region (result areas).
        let mut bytes = Vec::new();
        let mut bit_len = 0;
        for name in ["cpu", "icache", "dcache", "boundary"] {
            let bits = self.card.read_chain(name).map_err(Self::card_err)?;
            // Byte-align each chain for simple concatenation.
            bytes.extend(bits.to_bytes());
            bit_len = bytes.len() * 8;
        }
        let data_start = self.machine_config.memory.code_end;
        let words = self
            .card
            .read_memory_block(data_start, OBSERVE_DATA_WORDS)
            .map_err(Self::card_err)?;
        for w in words {
            bytes.extend(w.to_le_bytes());
        }
        bit_len += OBSERVE_DATA_WORDS * 32;
        Ok(StateVector::from_bytes(bytes, bit_len))
    }

    fn read_outputs(&mut self) -> Result<Vec<u32>> {
        match self.workload.kind {
            WorkloadKind::Batch => self
                .card
                .read_memory_block(self.workload.result.addr, self.workload.result.len)
                .map_err(Self::card_err),
            WorkloadKind::Cyclic { .. } => Ok(self.output_history.clone()),
        }
    }

    fn step_instruction(&mut self) -> Result<Option<TargetEvent>> {
        if self.remaining_budget() == 0 {
            return Ok(Some(TargetEvent::TimedOut));
        }
        match self.card.step() {
            Ok((_info, sync)) => {
                Ok((sync && self.iteration_sync()?).then_some(TargetEvent::IterationsDone))
            }
            Err(DebugEvent::Halted) => Ok(Some(TargetEvent::Halted)),
            Err(DebugEvent::ErrorDetected(e)) => Ok(Some(TargetEvent::Detected {
                mechanism: e.mechanism().name().to_owned(),
                detail: e.to_string(),
            })),
            Err(DebugEvent::TimedOut) => Ok(Some(TargetEvent::TimedOut)),
            Err(DebugEvent::Breakpoint { .. }) | Err(DebugEvent::IterationSync) => {
                unreachable!("step never reports breakpoints or sync as errors")
            }
        }
    }

    fn static_analysis(&mut self, horizon: u64) -> Result<goofi_core::StaticAnalysis> {
        // Cyclic workloads depend on environment I/O the analyzer's
        // scratch replay cannot reproduce; the runner runs their
        // campaigns unpruned.
        if self.env.is_some() {
            return Err(self.unsupported("staticAnalysis"));
        }
        Ok(goofi_analysis::analyze_thor_program(
            &self.workload.program,
            self.machine_config,
            horizon,
        ))
    }

    fn collect_trace(&mut self) -> Result<Vec<TraceStep>> {
        // Assumes init_test_card + load_workload have run (the framework's
        // prepare step does both).
        let mut trace = Vec::new();
        loop {
            if trace.len() >= TRACE_CAP || self.remaining_budget() == 0 {
                return Ok(trace);
            }
            let time = self.card.machine().instret();
            match self.card.step() {
                Ok((info, sync)) => {
                    trace.push(Self::trace_step(&info, time));
                    if sync && self.iteration_sync()? {
                        return Ok(trace);
                    }
                }
                Err(DebugEvent::Halted) | Err(DebugEvent::TimedOut) => return Ok(trace),
                Err(DebugEvent::ErrorDetected(e)) => {
                    return Err(GoofiError::Target(format!(
                        "reference trace run hit an error: {e}"
                    )))
                }
                Err(other) => {
                    return Err(GoofiError::Target(format!(
                        "unexpected event during trace: {other:?}"
                    )))
                }
            }
        }
    }

    fn instructions_retired(&mut self) -> Result<u64> {
        Ok(self.card.machine().instret())
    }

    fn iterations_completed(&mut self) -> Result<u32> {
        Ok(self.iterations)
    }

    fn snapshot(&mut self) -> Result<TargetSnapshot> {
        // Cyclic workloads carry an environment simulator whose state lives
        // behind a non-cloneable trait object, so only batch workloads are
        // checkpointable; the engine treats this as "target does not
        // support checkpointing" and falls back to cold starts.
        if self.env.is_some() {
            return Err(self.unsupported("snapshot"));
        }
        let _s = tracing::span(names::BLOCK_SNAPSHOT);
        Ok(TargetSnapshot::new(ThorSnapshot {
            card: self.card.snapshot(),
            iterations: self.iterations,
            output_history: self.output_history.clone(),
        }))
    }

    fn restore(&mut self, snapshot: &TargetSnapshot) -> Result<()> {
        if self.env.is_some() {
            return Err(self.unsupported("restore"));
        }
        let _s = tracing::span(names::BLOCK_RESTORE);
        let snap = snapshot
            .downcast_ref::<ThorSnapshot>()
            .ok_or_else(|| GoofiError::Target("snapshot is not a Thor snapshot".into()))?;
        self.card.restore(&snap.card);
        self.iterations = snap.iterations;
        self.output_history = snap.output_history.clone();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goofi_core::{reference_run, Campaign, FaultModel, LocationSelector, Technique};
    use goofi_envsim::{DcMotorEnv, SCALE};
    use goofi_workloads::{fibonacci_workload, pid_workload, sort_workload, PidGains};

    fn scifi_campaign(target: &str, n: usize, window: (u64, u64)) -> Campaign {
        Campaign::builder("t-c", target, "w")
            .technique(Technique::Scifi)
            .select(LocationSelector::Chain {
                chain: "cpu".into(),
                field: None,
            })
            .fault_model(FaultModel::BitFlip)
            .window(window.0, window.1)
            .experiments(n)
            .seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn reference_run_reproduces_workload_result() {
        let w = sort_workload(8, 5);
        let expected = w.result.expected.clone();
        let mut t = ThorTarget::new("thor", w);
        let c = scifi_campaign("thor", 1, (0, 100));
        let run = reference_run(&mut t, &c).unwrap();
        assert_eq!(run.termination, TargetEvent::Halted);
        assert_eq!(run.outputs, expected);
        assert!(run.instructions > 0);
    }

    #[test]
    fn describe_exposes_chains_and_memory() {
        let t = ThorTarget::new("thor", fibonacci_workload(10));
        let cfg = t.describe();
        assert_eq!(cfg.chains.len(), 4);
        let cpu = cfg.chain("cpu").unwrap();
        assert!(cpu.field("R3").is_some());
        assert!(cpu.field("PC").is_some());
        let boundary = cfg.chain("boundary").unwrap();
        assert!(!boundary.field("ADDR").unwrap().writable);
        assert_eq!(cfg.memory.len(), 2);
    }

    #[test]
    fn scan_roundtrip_through_adapter() {
        let mut t = ThorTarget::new("thor", fibonacci_workload(10));
        t.init_test_card().unwrap();
        t.load_workload().unwrap();
        let bits = t.read_scan_chain("cpu").unwrap();
        t.write_scan_chain("cpu", &bits).unwrap();
        assert_eq!(t.read_scan_chain("cpu").unwrap(), bits);
        assert!(t.read_scan_chain("bogus").is_err());
    }

    #[test]
    fn trace_covers_whole_batch_run() {
        let mut t = ThorTarget::new("thor", fibonacci_workload(5));
        t.init_test_card().unwrap();
        t.load_workload().unwrap();
        let trace = t.collect_trace().unwrap();
        assert!(!trace.is_empty());
        // Trace mentions register and memory locations.
        assert!(trace.iter().any(|s| s.writes.iter().any(|w| w == "R1")));
        assert!(trace
            .iter()
            .any(|s| s.writes.iter().any(|w| w.starts_with("MEM["))));
        // Branches are flagged.
        assert!(trace.iter().any(|s| s.is_branch));
    }

    #[test]
    fn cyclic_workload_runs_iterations_with_env() {
        let w = pid_workload(PidGains::default(), 20);
        let env = Box::new(DcMotorEnv::new(2 * SCALE));
        let mut t = ThorTarget::with_env("thor", w, env);
        let c = scifi_campaign("thor", 1, (0, 100));
        let run = reference_run(&mut t, &c).unwrap();
        assert_eq!(run.termination, TargetEvent::IterationsDone);
        assert_eq!(run.iterations, 20);
        assert_eq!(run.outputs.len(), 20, "one control output per iteration");
    }

    #[test]
    fn cyclic_reference_is_deterministic() {
        let make = || {
            let w = pid_workload(PidGains::default(), 15);
            ThorTarget::with_env("thor", w, Box::new(DcMotorEnv::new(3 * SCALE)))
        };
        let c = scifi_campaign("thor", 1, (0, 100));
        let mut t1 = make();
        let mut t2 = make();
        let r1 = reference_run(&mut t1, &c).unwrap();
        let r2 = reference_run(&mut t2, &c).unwrap();
        assert_eq!(r1.outputs, r2.outputs);
        assert_eq!(r1.state, r2.state);
    }

    #[test]
    fn timeout_budget_reports_timed_out() {
        let w = pid_workload(PidGains::default(), u32::MAX);
        let env = Box::new(DcMotorEnv::new(SCALE));
        let mut t = ThorTarget::with_env("thor", w, env);
        t.set_cycle_budget(10_000);
        let c = scifi_campaign("thor", 1, (0, 100));
        let run = reference_run(&mut t, &c).unwrap();
        assert_eq!(run.termination, TargetEvent::TimedOut);
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let w = sort_workload(8, 5);
        let mut t = ThorTarget::new("thor", w);
        t.init_test_card().unwrap();
        t.load_workload().unwrap();
        t.run_workload().unwrap();
        t.set_breakpoint(50).unwrap();
        assert_eq!(
            t.wait_for_breakpoint().unwrap(),
            TargetEvent::BreakpointHit { time: 50 }
        );
        let snap = t.snapshot().unwrap();
        assert_eq!(t.wait_for_termination().unwrap(), TargetEvent::Halted);
        let outputs = t.read_outputs().unwrap();
        let state = t.observe_state().unwrap();
        let instret = t.instructions_retired().unwrap();

        t.restore(&snap).unwrap();
        assert_eq!(t.instructions_retired().unwrap(), 50);
        assert_eq!(t.wait_for_termination().unwrap(), TargetEvent::Halted);
        assert_eq!(t.read_outputs().unwrap(), outputs);
        assert_eq!(t.observe_state().unwrap(), state);
        assert_eq!(t.instructions_retired().unwrap(), instret);
    }

    #[test]
    fn cyclic_targets_do_not_support_snapshots() {
        let w = pid_workload(PidGains::default(), 5);
        let mut t = ThorTarget::with_env("thor", w, Box::new(DcMotorEnv::new(SCALE)));
        assert!(t.snapshot().is_err());
    }

    #[test]
    fn observe_state_sees_result_area() {
        let w = sort_workload(4, 2);
        let mut t = ThorTarget::new("thor", w);
        let c = scifi_campaign("thor", 1, (0, 100));
        let a = reference_run(&mut t, &c).unwrap();
        // Different workload data -> different observable state.
        let w2 = sort_workload(4, 3);
        let mut t2 = ThorTarget::new("thor", w2);
        let b = reference_run(&mut t2, &c).unwrap();
        assert_ne!(a.state, b.state);
    }
}
