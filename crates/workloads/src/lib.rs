//! # goofi-workloads — target workloads with result oracles
//!
//! The paper's campaigns run workloads on the target: batch programs that
//! terminate by themselves, and cyclic control programs "executed as an
//! infinite loop" exchanging data with an environment simulator each
//! iteration (Section 3.2). This crate bundles both kinds as Thor RD
//! assembly, assembled at construction time, together with *host oracles* —
//! Rust reimplementations used to validate the workload and to know the
//! golden result independent of the target.
//!
//! Bundled workloads: selection sort, matrix multiply, CRC-32, Fibonacci
//! (batch) and a fixed-point PID controller (cyclic).
//!
//! # Examples
//!
//! ```
//! use goofi_workloads::{sort_workload, Workload};
//! use thor_rd::{DebugEvent, MachineConfig, TestCard};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let w = sort_workload(16, 42);
//! let mut card = TestCard::new(MachineConfig::default());
//! card.download(&w.program)?;
//! assert_eq!(card.run(10_000_000), DebugEvent::Halted);
//! let result = card.read_memory_block(w.result.addr, w.result.len)?;
//! assert_eq!(result, w.result.expected);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod batch;
mod control;

pub use batch::{
    crc32_host, crc32_workload, fibonacci_host, fibonacci_workload, matmul_host, matmul_workload,
    sort_workload,
};
pub use control::{pid_host_step, pid_workload, PidGains, PidState};

use thor_rd::Program;

/// Byte address where cyclic workloads read environment inputs.
pub const IO_IN_ADDR: u32 = 0x7f00;
/// Byte address where cyclic workloads write environment outputs.
pub const IO_OUT_ADDR: u32 = 0x7f80;

/// How a workload terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Runs to `halt` by itself.
    Batch,
    /// Runs as an infinite loop with a `sync` per iteration; the campaign
    /// terminates it after `max_iterations` iterations (paper: "the user
    /// must specify the maximum number of iterations").
    Cyclic {
        /// Words the environment writes into [`IO_IN_ADDR`].
        num_inputs: usize,
        /// Words the target writes at [`IO_OUT_ADDR`].
        num_outputs: usize,
        /// Iterations before the experiment is terminated.
        max_iterations: u32,
    },
}

/// Where a batch workload's result lives and what it should be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultSpec {
    /// Byte address of the first result word.
    pub addr: u32,
    /// Number of result words.
    pub len: usize,
    /// Golden values (host-oracle computed).
    pub expected: Vec<u32>,
}

/// A ready-to-download workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Stable name (stored in campaign data).
    pub name: String,
    /// Assembly source (what pre-runtime SWIFI corrupts is its image).
    pub source: String,
    /// The assembled image.
    pub program: Program,
    /// Termination behaviour.
    pub kind: WorkloadKind,
    /// Result location and golden values. For cyclic workloads this is the
    /// controller state snapshot, with `expected` empty (the oracle is the
    /// environment trajectory instead).
    pub result: ResultSpec,
}

impl Workload {
    /// Every bundled workload, with small default parameters — handy for
    /// campaign setup UIs and tests.
    pub fn all_default() -> Vec<Workload> {
        vec![
            sort_workload(16, 7),
            matmul_workload(4, 3),
            crc32_workload(16, 11),
            fibonacci_workload(20),
            pid_workload(PidGains::default(), 50),
        ]
    }
}

/// Resolves a workload by its stable name (as stored in `CampaignData`):
/// `sortN`, `matmulN`, `crc32xN`, `fibN` (seeds fixed at their defaults)
/// and `pid` (default gains, 100 iterations).
///
/// # Examples
///
/// ```
/// use goofi_workloads::workload_by_name;
/// assert!(workload_by_name("sort16").is_some());
/// assert!(workload_by_name("warp-drive").is_none());
/// ```
pub fn workload_by_name(name: &str) -> Option<Workload> {
    if name == "pid" || name.starts_with("pid-") {
        return Some(pid_workload(PidGains::default(), 100));
    }
    if let Some(n) = name.strip_prefix("sort") {
        let n: usize = n.parse().ok()?;
        return (n > 0 && n <= 256).then(|| sort_workload(n, 7));
    }
    if let Some(n) = name.strip_prefix("matmul") {
        let n: usize = n.parse().ok()?;
        return (n > 0 && n <= 16).then(|| matmul_workload(n, 3));
    }
    if let Some(n) = name.strip_prefix("crc32x") {
        let n: usize = n.parse().ok()?;
        return (n > 0 && n <= 256).then(|| crc32_workload(n, 11));
    }
    if let Some(n) = name.strip_prefix("fib") {
        let n: u32 = n.parse().ok()?;
        return (n <= 40).then(|| fibonacci_workload(n));
    }
    None
}

/// Deterministic pseudo-random data generator (host side) used to stage
/// workload input arrays.
pub(crate) fn lcg(seed: u32) -> impl FnMut() -> u32 {
    let mut state = seed.wrapping_mul(2891336453).wrapping_add(123456789);
    move || {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        state >> 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thor_rd::{DebugEvent, MachineConfig, TestCard};

    /// Every batch workload must produce its oracle result on the target.
    #[test]
    fn all_batch_workloads_match_their_oracles() {
        for w in Workload::all_default() {
            if w.kind != WorkloadKind::Batch {
                continue;
            }
            let mut card = TestCard::new(MachineConfig::default());
            card.download(&w.program).unwrap();
            assert_eq!(
                card.run(100_000_000),
                DebugEvent::Halted,
                "workload {} did not halt",
                w.name
            );
            let got = card.read_memory_block(w.result.addr, w.result.len).unwrap();
            assert_eq!(got, w.result.expected, "workload {} wrong result", w.name);
        }
    }

    #[test]
    fn workload_names_are_unique() {
        let all = Workload::all_default();
        let mut names: Vec<&str> = all.iter().map(|w| w.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn lcg_is_deterministic() {
        let mut a = lcg(5);
        let mut b = lcg(5);
        for _ in 0..10 {
            assert_eq!(a(), b());
        }
        let mut c = lcg(6);
        assert_ne!(a(), c());
    }
}
