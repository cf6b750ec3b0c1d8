//! # goofi-targets — target-system adapters for GOOFI-rs
//!
//! The paper's middle layer contains one `TargetSystemInterface` class per
//! supported target, written against the `Framework` template. This crate
//! holds those classes:
//!
//! * [`ThorTarget`] — the Thor RD board (SCIFI via scan chains, SWIFI via
//!   memory), with environment-simulator integration for cyclic workloads;
//! * [`StackVmTarget`] — a structurally different stack machine, proving
//!   the framework's genericity (the same algorithms drive both).
//!
//! # Examples
//!
//! ```
//! use goofi_core::{Campaign, CampaignRunner, FaultModel, LocationSelector, Technique};
//! use goofi_targets::ThorTarget;
//! use goofi_workloads::fibonacci_workload;
//!
//! # fn main() -> Result<(), goofi_core::GoofiError> {
//! let mut target = ThorTarget::new("thor-card", fibonacci_workload(12));
//! let campaign = Campaign::builder("demo", "thor-card", "fib12")
//!     .technique(Technique::Scifi)
//!     .select(LocationSelector::Chain { chain: "cpu".into(), field: None })
//!     .fault_model(FaultModel::BitFlip)
//!     .window(0, 60)
//!     .experiments(20)
//!     .seed(1)
//!     .build()?;
//! let result = CampaignRunner::new(&mut target, &campaign).run()?;
//! println!("{}", result.stats.report());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod stackvm;
mod thor;

pub use stackvm::{StackProgram, StackVmTarget, DEFAULT_STEP_BUDGET};
pub use thor::{ThorTarget, DEFAULT_CYCLE_BUDGET};

mod standard;

pub use standard::{analysis_target, standard_factory, standard_provider, standard_target};
