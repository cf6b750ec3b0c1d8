//! # goofi-core — the GOOFI generic fault-injection framework
//!
//! A Rust reproduction of the architecture of *GOOFI: Generic
//! Object-Oriented Fault Injection Tool* (Aidemark, Vinter, Folkesson,
//! Karlsson — DSN 2001). The paper's three layers map to:
//!
//! * **GUI** → the [`progress`] control surface plus the `goofi-cli` crate;
//! * **FaultInjectionAlgorithms / Framework / TargetSystemInterface** →
//!   the [`TargetSystemInterface`] trait (abstract building blocks with
//!   framework-template defaults), the [`algorithm`] module
//!   (`faultInjectorSCIFI` & friends), [`fault`] models, [`trigger`]s,
//!   campaign definitions ([`Campaign`]), [`preinject`]ion analysis and the
//!   [`runner`];
//! * **Database** → the [`store`] module on `goofi-db`, implementing the
//!   Fig. 4 schema (`TargetSystemData` → `CampaignData` →
//!   `LoggedSystemState` with a self-referencing `parentExperiment`).
//!
//! The [`analysis`] module implements the Section 3.4 outcome taxonomy
//! (Detected per mechanism / Escaped / Latent / Overwritten) and the
//! automatic analyzer the paper lists as future work.
//!
//! # Examples
//!
//! A campaign against an in-process target adapter (see `goofi-targets`
//! for real adapters):
//!
//! ```no_run
//! use goofi_core::{Campaign, FaultModel, LocationSelector, Technique};
//!
//! let campaign = Campaign::builder("demo", "thor-card", "sort16")
//!     .technique(Technique::Scifi)
//!     .select(LocationSelector::Chain { chain: "cpu".into(), field: None })
//!     .fault_model(FaultModel::BitFlip)
//!     .window(0, 1_000)
//!     .experiments(500)
//!     .seed(7)
//!     .build()
//!     .expect("valid campaign");
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod algorithm;
pub mod analysis;
mod bits;
mod campaign;
pub mod checkpoint;
pub mod dependability;
mod error;
pub mod fault;
pub mod preinject;
pub mod progress;
pub mod propagation;
pub mod rowcodec;
pub mod runner;
pub mod service;
pub mod staticanalysis;
pub mod store;
mod target;
#[cfg(test)]
mod testutil;
pub mod trigger;

pub use algorithm::{reference_run, run_experiment, ExperimentRun, DETAIL_SNAPSHOT_CAP};
pub use analysis::{
    analyze_campaign, classify, classify_records, detection_latency, wilson, CampaignStats,
    EscapeKind, LatencyStats, LocationSensitivity, Outcome, Proportion,
};
pub use bits::StateVector;
pub use campaign::{Campaign, CampaignBuilder, LogMode, Technique};
pub use checkpoint::{run_experiment_checkpointed, Checkpoint, CheckpointPlan};
pub use dependability::{
    duplex_mttf, duplex_reliability, duplex_reliability_interval, single_node_availability,
    single_node_reliability, DependabilityParams,
};
pub use error::{GoofiError, Result};
pub use fault::{
    generate_fault_list, FaultModel, Location, LocationSelector, PlannedFault, TriggerPolicy,
};
pub use goofi_telemetry::{
    CampaignTelemetry, CounterStat, PhaseStats, SpanRecord, TelemetryMode, WorkerTelemetry,
};
pub use preinject::{FirstUse, LivenessAnalysis};
pub use progress::{control_channel, Command, ControlHandle, Controller};
pub use propagation::{analyze_propagation, PropagationReport, PropagationStep};
pub use runner::{
    logged_experiment_name, plan_campaign, CampaignPlan, CampaignResult, CampaignRunner,
    ChunkExecutor, Decision, RunOptions,
};
pub use service::{
    drain, CampaignRef, CampaignService, ClassSavings, EventSink, EventStream, ExecOptions,
    FactoryProvider, JobId, JobRegistry, JobSpec, JobStatus, JobSummary, Launcher, LocalService,
    ServiceEvent, TargetFactory,
};
pub use staticanalysis::{ClassKind, EquivalenceClass, Lint, LintKind, Pruning, StaticAnalysis};
pub use store::{reference_experiment_name, ExperimentData, ExperimentRecord, GoofiStore};
pub use target::{
    mem_loc_name, ChainInfo, FieldInfo, MemoryRegion, MemoryRole, TargetEvent, TargetSnapshot,
    TargetSystemConfig, TargetSystemInterface, TraceStep,
};
pub use trigger::Trigger;
