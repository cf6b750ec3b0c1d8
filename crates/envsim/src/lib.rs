//! # goofi-envsim — environment simulators for target workloads
//!
//! GOOFI campaigns may run cyclic workloads that "exchange data with a user
//! provided environment simulator emulating the target system environment"
//! at every loop iteration (paper, Fig. 1 and Section 3.2). This crate
//! defines the [`Environment`] trait that the target adapters call at each
//! iteration boundary, plus ready-made environments: constants, scripted
//! sequences, a recording wrapper, and closed-loop plant models for the
//! control-application experiments (the companion paper \[12\] evaluated a
//! control algorithm; our plant is a DC-motor speed-control loop).
//!
//! All values are fixed-point integers ([`SCALE`] units per 1.0) because
//! the target CPU is integer-only.
//!
//! # Examples
//!
//! ```
//! use goofi_envsim::{DcMotorEnv, Environment, SCALE};
//!
//! let mut env = DcMotorEnv::new(5 * SCALE); // setpoint = 5.0
//! let inputs = env.exchange(&[0]);          // zero control signal
//! assert_eq!(inputs.len(), 2);              // [setpoint, measured speed]
//! assert_eq!(inputs[0], 5 * SCALE);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod plants;
mod record;

pub use plants::{DcMotorEnv, WaterTankEnv};
pub use record::RecordingEnv;

/// Fixed-point scale: `SCALE` integer units represent 1.0.
pub const SCALE: i32 = 256;

/// An environment the target system interacts with once per workload
/// iteration.
///
/// At each `sync` point the target adapter reads the workload's output
/// words from target memory, calls [`Environment::exchange`], and writes
/// the returned input words back into target memory before resuming.
pub trait Environment {
    /// Number of input words the environment supplies to the target.
    fn num_inputs(&self) -> usize;

    /// Number of output words the environment consumes from the target.
    fn num_outputs(&self) -> usize;

    /// Advances the environment one iteration: consumes the target's
    /// outputs, returns the next inputs (length [`Environment::num_inputs`]).
    fn exchange(&mut self, outputs: &[i32]) -> Vec<i32>;

    /// Restores the initial environment state (between experiments).
    fn reset(&mut self);
}

/// An environment that always supplies the same inputs and ignores outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstantEnv {
    inputs: Vec<i32>,
}

impl ConstantEnv {
    /// Creates an environment supplying `inputs` every iteration.
    pub fn new(inputs: Vec<i32>) -> ConstantEnv {
        ConstantEnv { inputs }
    }
}

impl Environment for ConstantEnv {
    fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    fn num_outputs(&self) -> usize {
        0
    }

    fn exchange(&mut self, _outputs: &[i32]) -> Vec<i32> {
        self.inputs.clone()
    }

    fn reset(&mut self) {}
}

/// An environment that replays a scripted sequence of input vectors,
/// holding the last vector once the script is exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptedEnv {
    script: Vec<Vec<i32>>,
    cursor: usize,
}

impl ScriptedEnv {
    /// Creates a scripted environment.
    ///
    /// # Panics
    ///
    /// Panics if the script is empty or its vectors have differing lengths.
    pub fn new(script: Vec<Vec<i32>>) -> ScriptedEnv {
        assert!(!script.is_empty(), "script must not be empty");
        let width = script[0].len();
        assert!(
            script.iter().all(|v| v.len() == width),
            "script vectors must have equal lengths"
        );
        ScriptedEnv { script, cursor: 0 }
    }
}

impl Environment for ScriptedEnv {
    fn num_inputs(&self) -> usize {
        self.script[0].len()
    }

    fn num_outputs(&self) -> usize {
        0
    }

    fn exchange(&mut self, _outputs: &[i32]) -> Vec<i32> {
        let v = self.script[self.cursor.min(self.script.len() - 1)].clone();
        self.cursor += 1;
        v
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_env_repeats() {
        let mut e = ConstantEnv::new(vec![1, 2]);
        assert_eq!(e.exchange(&[]), vec![1, 2]);
        assert_eq!(e.exchange(&[9]), vec![1, 2]);
        assert_eq!(e.num_inputs(), 2);
    }

    #[test]
    fn scripted_env_plays_then_holds() {
        let mut e = ScriptedEnv::new(vec![vec![1], vec![2]]);
        assert_eq!(e.exchange(&[]), vec![1]);
        assert_eq!(e.exchange(&[]), vec![2]);
        assert_eq!(e.exchange(&[]), vec![2], "holds last vector");
        e.reset();
        assert_eq!(e.exchange(&[]), vec![1]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn scripted_env_rejects_ragged_script() {
        ScriptedEnv::new(vec![vec![1], vec![2, 3]]);
    }

    #[test]
    fn environment_is_object_safe() {
        let envs: Vec<Box<dyn Environment>> = vec![
            Box::new(ConstantEnv::new(vec![0])),
            Box::new(ScriptedEnv::new(vec![vec![0]])),
        ];
        assert_eq!(envs.len(), 2);
    }
}
