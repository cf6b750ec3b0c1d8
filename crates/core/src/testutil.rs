//! Shared test fixtures for goofi-core's own unit tests.

use crate::bits::StateVector;
use crate::error::Result;
use crate::target::{
    ChainInfo, FieldInfo, TargetEvent, TargetSystemConfig, TargetSystemInterface, TraceStep,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Holds workload runs back so a test can act mid-campaign: the first
/// `free` runs across every target sharing the hold pass, later ones
/// block until [`Hold::release`].
pub(crate) struct Hold {
    free: usize,
    runs: AtomicUsize,
    released: Mutex<bool>,
    cv: Condvar,
}

impl Hold {
    pub(crate) fn new(free: usize) -> Arc<Hold> {
        Arc::new(Hold {
            free,
            runs: AtomicUsize::new(0),
            released: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn release(&self) {
        *self.released.lock().expect("hold lock not poisoned") = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        if self.runs.fetch_add(1, Ordering::SeqCst) < self.free {
            return;
        }
        let mut released = self.released.lock().expect("hold lock not poisoned");
        while !*released {
            released = self.cv.wait(released).expect("hold lock not poisoned");
        }
    }
}

/// A miniature deterministic target: one 8-bit "R0" register chain; the
/// workload reads R0 at t=5 into its output, overwrites R0 at t=10 and
/// halts at t=20.
pub(crate) struct MiniTarget {
    r0: u8,
    out: u8,
    now: u64,
    armed: Option<u64>,
    hold: Option<Arc<Hold>>,
}

impl MiniTarget {
    pub(crate) fn new() -> Self {
        MiniTarget {
            r0: 0,
            out: 0,
            now: 0,
            armed: None,
            hold: None,
        }
    }

    /// A target whose workload runs go through `hold`.
    pub(crate) fn held(hold: Arc<Hold>) -> Self {
        MiniTarget {
            hold: Some(hold),
            ..MiniTarget::new()
        }
    }

    fn advance_to(&mut self, t: u64) {
        while self.now < t && self.now < 20 {
            self.tick();
        }
    }

    fn tick(&mut self) {
        match self.now {
            5 => self.out = self.r0.wrapping_add(1),
            10 => self.r0 = 7,
            _ => {}
        }
        self.now += 1;
    }
}

impl TargetSystemInterface for MiniTarget {
    fn target_name(&self) -> &str {
        "mini"
    }

    fn describe(&self) -> TargetSystemConfig {
        TargetSystemConfig {
            name: "mini".into(),
            description: String::new(),
            chains: vec![ChainInfo {
                name: "cpu".into(),
                width: 8,
                fields: vec![FieldInfo {
                    name: "R0".into(),
                    offset: 0,
                    width: 8,
                    writable: true,
                }],
            }],
            memory: Vec::new(),
        }
    }

    fn init_test_card(&mut self) -> Result<()> {
        *self = MiniTarget {
            hold: self.hold.take(),
            ..MiniTarget::new()
        };
        Ok(())
    }

    fn load_workload(&mut self) -> Result<()> {
        self.r0 = 3;
        Ok(())
    }

    fn run_workload(&mut self) -> Result<()> {
        if let Some(hold) = &self.hold {
            hold.wait();
        }
        Ok(())
    }

    fn set_breakpoint(&mut self, time: u64) -> Result<()> {
        self.armed = Some(time);
        Ok(())
    }

    fn wait_for_breakpoint(&mut self) -> Result<TargetEvent> {
        match self.armed.take() {
            Some(t) if t < 20 => {
                self.advance_to(t);
                Ok(TargetEvent::BreakpointHit { time: t })
            }
            _ => {
                self.advance_to(20);
                Ok(TargetEvent::Halted)
            }
        }
    }

    fn wait_for_termination(&mut self) -> Result<TargetEvent> {
        self.advance_to(20);
        Ok(TargetEvent::Halted)
    }

    fn read_scan_chain(&mut self, _chain: &str) -> Result<StateVector> {
        let mut bits = StateVector::zeros(8);
        for i in 0..8 {
            bits.set(i, self.r0 & (1 << i) != 0);
        }
        Ok(bits)
    }

    fn write_scan_chain(&mut self, _chain: &str, bits: &StateVector) -> Result<()> {
        let mut v = 0u8;
        for i in 0..8 {
            if bits.get(i) {
                v |= 1 << i;
            }
        }
        self.r0 = v;
        Ok(())
    }

    fn observe_state(&mut self) -> Result<StateVector> {
        let mut bits = StateVector::zeros(16);
        for i in 0..8 {
            bits.set(i, self.r0 & (1 << i) != 0);
            bits.set(8 + i, self.out & (1 << i) != 0);
        }
        Ok(bits)
    }

    fn read_outputs(&mut self) -> Result<Vec<u32>> {
        Ok(vec![self.out as u32])
    }

    fn instructions_retired(&mut self) -> Result<u64> {
        Ok(self.now)
    }

    fn iterations_completed(&mut self) -> Result<u32> {
        Ok(0)
    }

    fn collect_trace(&mut self) -> Result<Vec<TraceStep>> {
        // R0 read at 5, written at 10.
        Ok(vec![
            TraceStep {
                time: 5,
                reads: vec!["R0".into()],
                writes: vec![],
                is_branch: false,
                is_call: false,
            },
            TraceStep {
                time: 10,
                reads: vec![],
                writes: vec!["R0".into()],
                is_branch: false,
                is_call: false,
            },
        ])
    }

    fn step_instruction(&mut self) -> Result<Option<TargetEvent>> {
        self.tick();
        if self.now >= 20 {
            Ok(Some(TargetEvent::Halted))
        } else {
            Ok(None)
        }
    }
}
