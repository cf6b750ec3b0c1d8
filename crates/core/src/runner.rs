//! Campaign orchestration: the fault-injection phase end to end.
//!
//! [`CampaignRunner`] is the single campaign entry point — a builder over
//! the paper's Section 3.3 flow: read campaign data, make a reference
//! run, then execute every experiment, logging each to
//! `LoggedSystemState` and reporting progress to the Fig. 7 window
//! equivalent. Every campaign runs as planner → executor:
//!
//! * The **planner** ([`plan_campaign`]) generates the fault list, runs
//!   pruning, prediction and equivalence-class grouping, makes (or, on
//!   resume, reloads) the reference run, builds the checkpoint cache, and
//!   records one [`Decision`] per fault: already logged, pruned,
//!   predicted, proxied by a class representative, or executed.
//! * The **executor** walks the decisions and passes every finished row
//!   to one ordered sink, which logs rows to the store in fault-list order
//!   and emits progress events. With `workers(1)` (the default) it runs
//!   on the calling thread, on the planner's target, honouring pause and
//!   stop through [`Controller::checkpoint`]. With `workers(n)` and
//!   [`CampaignRunner::from_factory`] it runs the work-stealing pool
//!   (experiment E8): workers claim chunks of undecided indices off a
//!   shared atomic cursor, each on its own target, while a writer thread
//!   owns the sink and services the Fig. 7 controls.
//!
//! `resume_from(store)` restarts an interrupted campaign: the planner
//! marks the rows already stored as logged and only the rest run.
//!
//! When [`RunOptions::telemetry`] is enabled the runner installs a
//! [`goofi_telemetry::Recorder`] (thread-locally, on every campaign
//! thread), collects phase/building-block spans and per-worker scheduler
//! gauges, and persists the campaign rollup to the `CampaignTelemetry`
//! table. Telemetry never perturbs results: logged experiment rows are
//! byte-identical with telemetry on or off at any worker count.

use crate::algorithm::{reference_run, run_experiment, ExperimentRun};
use crate::analysis::CampaignStats;
use crate::campaign::{Campaign, LogMode, Technique};
use crate::checkpoint::{run_experiment_checkpointed, CheckpointPlan};
use crate::error::{GoofiError, Result};
use crate::fault::{generate_fault_list, PlannedFault, TriggerPolicy};
use crate::preinject::LivenessAnalysis;
use crate::progress::{Command, Controller, ProgressEvent};
use crate::staticanalysis::{ClassKind, Pruning, StaticAnalysis};
use crate::store::{reference_experiment_name, ExperimentData, ExperimentRecord, GoofiStore};
use crate::target::{TargetSystemConfig, TargetSystemInterface};
use goofi_telemetry::{names, CampaignTelemetry, Recorder, TelemetryMode, WorkerTelemetry};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs for campaign execution that do not change results, only
/// how they are obtained.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`RunOptions::new`] (or `Default`) and the chainable setters, so new
/// knobs are never breaking changes:
///
/// ```ignore
/// let opts = RunOptions::new().checkpoint(false).telemetry(TelemetryMode::Metrics);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Build an injection-time checkpoint cache (one pilot execution,
    /// snapshot at each distinct first activation time) and start
    /// experiments from the nearest preceding checkpoint instead of from
    /// reset. Byte-identical results either way; targets or campaigns the
    /// cache cannot serve (no snapshot support, detail mode, pre-runtime
    /// SWIFI) silently fall back to cold starts. Defaults to `true`.
    pub checkpoint: bool,
    /// How much telemetry to record. Defaults to [`TelemetryMode::Off`],
    /// which costs one thread-local read per instrumentation site.
    pub telemetry: TelemetryMode,
    /// How experiments are pruned before injection. Defaults to
    /// [`Pruning::Trace`], which honours the campaign's
    /// `pre_injection_analysis` flag with trace-based liveness.
    /// [`Pruning::Static`] prunes from the workload binary alone (no
    /// reference trace), falling back to no pruning on targets without a
    /// static analyzer. Pruned experiments synthesise the reference
    /// outcome either way, so logged rows are identical across modes for
    /// experiments that actually run.
    pub pruning: Pruning,
    /// Execute one representative experiment per fault equivalence class
    /// and synthesise the remaining class members' rows from it. Classes
    /// group faults that mutate the same bits with the same model at
    /// injection times within one first-touch window of the fault-free
    /// timeline, so member outcomes are provably identical to the
    /// representative's. Logged rows are byte-identical with the knob on
    /// or off. Requires a target with a static analyzer (silently falls
    /// back to executing everything otherwise). Defaults to `false`.
    pub class_execution: bool,
    /// Synthesise the rows of faults whose verdict the propagation
    /// analysis proved predictable (the corruption activates but washes
    /// out of the architectural state, so the outcome equals the
    /// reference) instead of executing them. Requires
    /// [`Pruning::Static`] on a target with a static analyzer (silently
    /// falls back to executing otherwise) and only applies to
    /// scan-chain/runtime-SWIFI campaigns in normal log mode — the same
    /// envelope as class execution. Logged rows are byte-identical with
    /// the knob on or off. Defaults to `false`.
    pub prediction: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            checkpoint: true,
            telemetry: TelemetryMode::Off,
            pruning: Pruning::Trace,
            class_execution: false,
            prediction: false,
        }
    }
}

impl RunOptions {
    /// The default options: checkpointing on, telemetry off, trace-based
    /// pruning.
    pub fn new() -> RunOptions {
        RunOptions::default()
    }

    /// Sets whether the injection-time checkpoint cache is built.
    pub fn checkpoint(mut self, on: bool) -> RunOptions {
        self.checkpoint = on;
        self
    }

    /// Sets the telemetry recording mode.
    pub fn telemetry(mut self, mode: TelemetryMode) -> RunOptions {
        self.telemetry = mode;
        self
    }

    /// Sets the pre-injection pruning mode.
    pub fn pruning(mut self, pruning: Pruning) -> RunOptions {
        self.pruning = pruning;
        self
    }

    /// Sets whether equivalence-class execution is enabled.
    pub fn class_execution(mut self, on: bool) -> RunOptions {
        self.class_execution = on;
        self
    }

    /// Sets whether statically-predicted verdicts are synthesised.
    pub fn prediction(mut self, on: bool) -> RunOptions {
        self.prediction = on;
        self
    }
}

/// Everything a finished campaign produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// The campaign that ran.
    pub campaign: Campaign,
    /// The fault-free reference run.
    pub reference: ExperimentRun,
    /// One run per experiment, in fault-list order (pruned experiments are
    /// synthesised from the reference and flagged).
    pub runs: Vec<ExperimentRun>,
    /// Classification statistics.
    pub stats: CampaignStats,
    /// The telemetry rollup, when [`RunOptions::telemetry`] was enabled
    /// (also persisted to the `CampaignTelemetry` table when a store was
    /// attached).
    pub telemetry: Option<CampaignTelemetry>,
    /// The static workload analysis, when the campaign ran with
    /// [`Pruning::Static`] on a target that supports it (also persisted
    /// to the `StaticAnalysisData` table when a store was attached).
    pub static_analysis: Option<StaticAnalysis>,
}

impl CampaignResult {
    /// Number of experiments pre-injection analysis skipped.
    pub fn pruned(&self) -> usize {
        self.runs.iter().filter(|r| r.pruned).count()
    }

    /// Number of experiments whose verdict the propagation analysis
    /// predicted statically (synthesised without execution).
    pub fn predicted(&self) -> usize {
        self.runs.iter().filter(|r| r.predicted).count()
    }
}

/// The recorder half of an enabled telemetry session: the runner installs
/// `dispatch` on every campaign thread and merges worker gauges into
/// `recorder` directly.
struct Telemetry {
    recorder: Arc<Recorder>,
    dispatch: tracing::Dispatch,
}

impl Telemetry {
    fn new(mode: TelemetryMode) -> Option<Telemetry> {
        if !mode.enabled() {
            return None;
        }
        let recorder = Arc::new(Recorder::new(mode));
        let dispatch = tracing::Dispatch::new(recorder.clone());
        Some(Telemetry { recorder, dispatch })
    }
}

/// A target factory shared by the worker threads.
type Factory<'a> = dyn Fn() -> Box<dyn TargetSystemInterface> + Sync + 'a;

/// Where experiment targets come from.
enum TargetSource<'a> {
    /// One caller-owned target: sequential execution only.
    Single(&'a mut dyn TargetSystemInterface),
    /// A factory producing the planner's target (which doubles as worker
    /// 0's) and one more target per additional worker.
    Factory(Box<Factory<'a>>),
}

/// The single campaign entry point: a builder selecting target source,
/// worker count, options, observer, store and resume, then [`run`].
///
/// ```ignore
/// // Sequential, no store:
/// let result = CampaignRunner::new(&mut target, &campaign).run()?;
/// // Four workers, streamed persistence, progress events:
/// let result = CampaignRunner::from_factory(make_target, &campaign)
///     .workers(4)
///     .store(&mut store)
///     .observer(&controller)
///     .run()?;
/// // Finish an interrupted campaign:
/// let result = CampaignRunner::from_factory(make_target, &campaign)
///     .workers(4)
///     .resume_from(&mut store)
///     .run()?;
/// ```
///
/// [`run`]: CampaignRunner::run
pub struct CampaignRunner<'a> {
    source: TargetSource<'a>,
    campaign: &'a Campaign,
    workers: usize,
    options: RunOptions,
    controller: Option<&'a Controller>,
    store: Option<&'a mut GoofiStore>,
    resume: bool,
}

impl<'a> CampaignRunner<'a> {
    /// A runner over one caller-owned target. Sequential only: asking for
    /// more than one worker is an error (workers each need their own
    /// target; use [`CampaignRunner::from_factory`]).
    pub fn new(
        target: &'a mut dyn TargetSystemInterface,
        campaign: &'a Campaign,
    ) -> CampaignRunner<'a> {
        CampaignRunner {
            source: TargetSource::Single(target),
            campaign,
            workers: 1,
            options: RunOptions::default(),
            controller: None,
            store: None,
            resume: false,
        }
    }

    /// A runner over a target factory: the planner's target, which also
    /// serves the first worker, and each further worker's target are
    /// created by `factory`. Works at any worker count.
    pub fn from_factory<F>(factory: F, campaign: &'a Campaign) -> CampaignRunner<'a>
    where
        F: Fn() -> Box<dyn TargetSystemInterface> + Sync + 'a,
    {
        CampaignRunner {
            source: TargetSource::Factory(Box::new(factory)),
            campaign,
            workers: 1,
            options: RunOptions::default(),
            controller: None,
            store: None,
            resume: false,
        }
    }

    /// Sets the worker count (default 1 = sequential). Zero is rejected
    /// by [`run`](CampaignRunner::run).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the execution options (checkpointing, telemetry, pruning,
    /// class execution, prediction).
    pub fn options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches a Fig. 7 progress controller: progress events are emitted
    /// and pause/stop commands honoured at experiment boundaries. A
    /// stopped campaign returns the completed prefix, not an error.
    pub fn observer(mut self, controller: &'a Controller) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Attaches a store: the reference run and every experiment are
    /// logged to `LoggedSystemState` (the campaign row must exist), and
    /// an enabled telemetry rollup is persisted to `CampaignTelemetry`.
    pub fn store(mut self, store: &'a mut GoofiStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Attaches a store *and* resumes from it: experiments whose
    /// `LoggedSystemState` row already exists are reused (no progress
    /// events, no re-logging) and only the missing ones run. The result
    /// is the complete campaign, in fault-list order.
    pub fn resume_from(mut self, store: &'a mut GoofiStore) -> Self {
        self.store = Some(store);
        self.resume = true;
        self
    }

    /// Runs the campaign: one planner call, then one executor call.
    ///
    /// # Errors
    ///
    /// Campaign validation errors, target errors, and database errors;
    /// [`GoofiError::Campaign`] for invalid configurations (zero workers,
    /// multiple workers without a factory). The first worker error aborts
    /// a parallel campaign.
    pub fn run(self) -> Result<CampaignResult> {
        let CampaignRunner {
            source,
            campaign,
            workers,
            options,
            controller,
            mut store,
            resume,
        } = self;
        if workers == 0 {
            return Err(GoofiError::Campaign(
                "worker count must be at least 1".into(),
            ));
        }

        let telemetry = Telemetry::new(options.telemetry);
        // Thread-locally scoped: concurrent campaigns (e.g. under
        // `cargo test`) never observe each other's telemetry. Worker and
        // writer threads install their own guards in the executor.
        let _guard = telemetry
            .as_ref()
            .map(|t| tracing::set_default(&t.dispatch));
        let wall = Instant::now();

        // The targets, fault list and checkpoint cache are dropped at the
        // end of this block, before the trailing tables are persisted.
        let (runs, reference, static_analysis) = {
            let mut owned: Box<dyn TargetSystemInterface>;
            let (target, factory): (&mut dyn TargetSystemInterface, Option<Box<Factory<'a>>>) =
                match source {
                    TargetSource::Single(_) if workers > 1 => {
                        return Err(GoofiError::Campaign(format!(
                            "{workers} workers each need their own target; construct the runner with CampaignRunner::from_factory"
                        )))
                    }
                    TargetSource::Single(target) => (target, None),
                    TargetSource::Factory(factory) => {
                        owned = factory();
                        (owned.as_mut(), Some(factory))
                    }
                };
            let mut plan = plan(
                target,
                campaign,
                &options,
                store.as_deref().filter(|_| resume),
            )?;
            let runs = execute(
                &mut plan,
                target,
                factory.as_deref(),
                workers,
                campaign,
                store.as_deref_mut(),
                controller,
                telemetry.as_ref(),
            )?;
            (runs, plan.reference, plan.static_analysis)
        };
        let stats = classify(&reference, &runs);
        let mut result = CampaignResult {
            campaign: campaign.clone(),
            reference,
            runs,
            stats,
            telemetry: None,
            static_analysis,
        };

        if let (Some(analysis), Some(store)) = (&result.static_analysis, store.as_deref_mut()) {
            store.put_static_analysis(&campaign.name, analysis)?;
        }
        if let Some(t) = &telemetry {
            let rollup =
                t.recorder
                    .finish(&campaign.name, workers, wall.elapsed().as_nanos() as u64);
            if let Some(store) = store {
                store.put_telemetry(&rollup)?;
            }
            result.telemetry = Some(rollup);
        }
        Ok(result)
    }
}

/// The experiment-row name the runner logs for index `index` of
/// `campaign` — public so services can test row existence when resuming.
pub fn logged_experiment_name(campaign: &str, index: usize) -> String {
    format!("{campaign}/{index:05}")
}

fn record_of(campaign: &Campaign, name: String, run: &ExperimentRun) -> ExperimentRecord {
    ExperimentRecord {
        name,
        parent: None,
        campaign: campaign.name.clone(),
        data: ExperimentData {
            fault: run.fault.clone(),
            termination: run.termination.clone(),
            outputs: run.outputs.clone(),
            iterations: run.iterations,
            instructions: run.instructions,
            detail_trace: run
                .detail_trace
                .as_ref()
                .map(|t| t.iter().map(|s| s.as_bytes().to_vec()).collect()),
        },
        state_vector: run.state.as_bytes().to_vec(),
    }
}

/// Builds the synthetic result of a pruned experiment: by the soundness of
/// the liveness analysis its outcome is exactly the reference outcome.
///
/// Built field by field rather than by cloning the reference so the
/// reference's `detail_trace` — potentially thousands of state vectors in
/// detail mode — is never copied into (and then dropped from) every pruned
/// row. Pruned rows carry no detail trace: the reference row already holds
/// the identical trace once.
fn pruned_run(reference: &ExperimentRun, fault: &PlannedFault) -> ExperimentRun {
    ExperimentRun {
        fault: Some(fault.clone()),
        termination: reference.termination.clone(),
        outputs: reference.outputs.clone(),
        state: reference.state.clone(),
        instructions: reference.instructions,
        iterations: reference.iterations,
        activations_done: 0,
        detail_trace: None,
        pruned: true,
        predicted: false,
    }
}

/// Builds the synthetic result of a statically *predicted* experiment:
/// the propagation analysis proved the fault activates but washes out of
/// the architectural state without touching control, addresses or
/// trap-prone operands, so the faulty execution re-converges with the
/// reference — same termination, outputs, state and instruction count.
/// Field-by-field for the same detail-trace reason as [`pruned_run`].
///
/// `activations_done` counts the activations at times within the
/// reference run (all of them — [`StaticAnalysis::can_predict`] proves
/// every activation window washes out, which requires each activation to
/// fire inside the covered execution).
fn predicted_run(reference: &ExperimentRun, fault: &PlannedFault) -> ExperimentRun {
    ExperimentRun {
        fault: Some(fault.clone()),
        termination: reference.termination.clone(),
        outputs: reference.outputs.clone(),
        state: reference.state.clone(),
        instructions: reference.instructions,
        iterations: reference.iterations,
        activations_done: fault.times.len(),
        detail_trace: None,
        pruned: false,
        predicted: true,
    }
}

/// Builds the synthetic result of an equivalence-class member from its
/// representative's executed run. Soundness: both faults mutate the same
/// bits with the same model, and every target location is untouched by
/// the fault-free execution between the two injection times (they share
/// the location's first-touch window), so the post-injection trajectories
/// — and therefore every logged observable — coincide exactly.
///
/// `activations_done` is copied from the representative so the member row
/// round-trips through the store identically to a directly-executed one.
fn fanned_run(representative: &ExperimentRun, fault: &PlannedFault) -> ExperimentRun {
    tracing::value(names::COUNTER_FANNED, 1);
    ExperimentRun {
        fault: Some(fault.clone()),
        termination: representative.termination.clone(),
        outputs: representative.outputs.clone(),
        state: representative.state.clone(),
        instructions: representative.instructions,
        iterations: representative.iterations,
        activations_done: representative.activations_done,
        detail_trace: None,
        pruned: false,
        predicted: false,
    }
}

/// How the campaign's prunability decisions are made, resolved once in
/// [`prepare`] from [`RunOptions::pruning`] and the campaign flags.
enum PruneInfo {
    /// No pruning (mode off, campaign opted out, or static analysis
    /// unsupported by the target).
    None,
    /// Trace-based liveness over the reference detail trace.
    Trace(LivenessAnalysis),
    /// Static analysis of the workload binary — no reference trace.
    Static(StaticAnalysis),
}

impl PruneInfo {
    fn can_prune(&self, config: &TargetSystemConfig, fault: &PlannedFault) -> bool {
        match self {
            PruneInfo::None => false,
            PruneInfo::Trace(liveness) => liveness.can_prune(config, fault),
            PruneInfo::Static(analysis) => analysis.can_prune(config, fault),
        }
    }
}

/// What the planner decided for one fault. Precedence, highest first:
/// logged > pruned > predicted > proxied > execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The row is already in the store (resume): reused, never re-logged.
    Logged,
    /// Pre-injection analysis proved the fault cannot differ from the
    /// reference: the row is synthesised from the reference.
    Pruned,
    /// The propagation analysis proved the fault washes out (only under
    /// [`RunOptions::prediction`] with static pruning): the row is
    /// synthesised from the reference.
    Predicted,
    /// An equivalence-class member: the row is synthesised from the run
    /// of the representative at this index, which is always the lowest
    /// member index.
    Proxied(usize),
    /// The experiment executes on a target.
    Execute,
}

/// Whether a campaign lies inside the envelope of the identical-outcome
/// proofs behind prediction and class execution: corrupt-targets-at-times
/// injection observed through terminal state only.
fn synthesis_envelope(campaign: &Campaign) -> bool {
    matches!(
        campaign.technique,
        Technique::Scifi | Technique::SwifiRuntime
    ) && campaign.log_mode == LogMode::Normal
}

/// A deterministic execution plan for one campaign on one target: the
/// generated fault list, one [`Decision`] per fault, the fault-free
/// reference run and (when enabled) the injection-time checkpoint cache.
///
/// Every campaign is planned here. `goofi-server` worker processes call
/// [`plan_campaign`] against the same campaign, derive the *same* plan
/// (fault-list generation is seeded), then execute whatever chunk of
/// experiment indices the server hands them. Rows produced through a plan
/// are byte-identical to the runner's.
pub struct CampaignPlan {
    /// The generated fault list, in campaign order.
    pub faults: Vec<PlannedFault>,
    /// What happens to each fault, in fault-list order.
    pub decisions: Vec<Decision>,
    /// The fault-free reference run.
    pub reference: ExperimentRun,
    /// The static analysis to persist, when the plan pruned statically or
    /// grouped execution classes.
    pub static_analysis: Option<StaticAnalysis>,
    checkpoints: Option<CheckpointPlan>,
    /// The stored runs of [`Decision::Logged`] faults, by index (resume
    /// only; empty otherwise).
    stored: Vec<Option<ExperimentRun>>,
    /// Whether the reference row still has to be logged (it is absent
    /// only when a resume reloaded it).
    log_reference: bool,
}

/// Builds the shared campaign plan on `target`. Identical inputs
/// (campaign, options) produce identical plans on every call — the
/// foundation of multi-process execution and its byte-identical-DB
/// guarantee. Equivalence-class execution is deliberately left out:
/// fanned rows are byte-identical to directly-executed ones, so
/// distributed workers always execute directly and the class knob stays
/// a single-process optimisation.
///
/// # Errors
///
/// Campaign validation and target errors, exactly as
/// [`CampaignRunner::run`].
pub fn plan_campaign(
    target: &mut dyn TargetSystemInterface,
    campaign: &Campaign,
    options: &RunOptions,
) -> Result<CampaignPlan> {
    plan(target, campaign, &options.class_execution(false), None)
}

/// The planner: fault list, pruning, prediction, class grouping,
/// reference run and checkpoint cache. With `resume`, rows already in
/// that store are marked [`Decision::Logged`] and a stored reference is
/// reused instead of re-run.
fn plan(
    target: &mut dyn TargetSystemInterface,
    campaign: &Campaign,
    options: &RunOptions,
    resume: Option<&GoofiStore>,
) -> Result<CampaignPlan> {
    let (faults, prune, class_analysis) = prepare(target, campaign, options)?;
    let config = target.describe();
    let predictor = match &prune {
        PruneInfo::Static(analysis) if options.prediction && synthesis_envelope(campaign) => {
            Some(analysis)
        }
        _ => None,
    };
    let mut decisions: Vec<Decision> = faults
        .iter()
        .map(|f| {
            if prune.can_prune(&config, f) {
                Decision::Pruned
            } else if predictor.is_some_and(|a| a.can_predict(&config, f)) {
                Decision::Predicted
            } else {
                Decision::Execute
            }
        })
        .collect();
    let static_analysis = match class_analysis {
        Some(mut analysis) => {
            group_classes(&mut analysis, campaign, &config, &faults, &mut decisions);
            Some(analysis)
        }
        None => match prune {
            PruneInfo::Static(analysis) => Some(analysis),
            _ => None,
        },
    };

    let mut stored = Vec::new();
    let mut reference = None;
    if let Some(store) = resume {
        stored = (0..faults.len())
            .map(|i| {
                store
                    .get_experiment(&logged_experiment_name(&campaign.name, i))
                    .ok()
                    .map(|record| record.to_run())
            })
            .collect();
        for (decision, run) in decisions.iter_mut().zip(&stored) {
            if run.is_some() {
                *decision = Decision::Logged;
            }
        }
        reference = store
            .get_experiment(&reference_experiment_name(&campaign.name))
            .ok()
            .map(|record| record.to_run());
    }
    let log_reference = reference.is_none();
    let reference = match reference {
        Some(reference) => reference,
        None => {
            let _s = tracing::span(names::PHASE_REFERENCE);
            reference_run(target, campaign)?
        }
    };

    // Only executed experiments contribute checkpoint snapshot times.
    let checkpoints = if options.checkpoint {
        let skip: Vec<bool> = decisions.iter().map(|&d| d != Decision::Execute).collect();
        CheckpointPlan::build(target, campaign, &faults, &skip)
    } else {
        None
    };
    Ok(CampaignPlan {
        faults,
        decisions,
        reference,
        static_analysis,
        checkpoints,
        stored,
        log_reference,
    })
}

/// Groups the executed faults into live equivalence classes (recorded on
/// `analysis` for persistence) and marks every member but the lowest-index
/// representative [`Decision::Proxied`].
///
/// Eligibility is conservative: the identical-trajectory proof covers
/// breakpoint-injected faults observed in normal log mode whose pre-final
/// activations (if any) provably wash out ([`StaticAnalysis::prefix_washed`],
/// checked inside [`StaticAnalysis::compute_execution_classes`]). Pruned
/// and predicted faults already synthesise the reference, so neither
/// executes nor anchors a class.
fn group_classes(
    analysis: &mut StaticAnalysis,
    campaign: &Campaign,
    config: &TargetSystemConfig,
    faults: &[PlannedFault],
    decisions: &mut [Decision],
) {
    let envelope = synthesis_envelope(campaign);
    let eligible: Vec<bool> = decisions
        .iter()
        .map(|&d| envelope && d == Decision::Execute)
        .collect();
    analysis.compute_execution_classes(config, faults, &eligible);
    for class in analysis
        .classes
        .iter()
        .filter(|c| c.kind == ClassKind::Live)
    {
        for &m in class.members.iter().filter(|&&m| m != class.representative) {
            decisions[m] = Decision::Proxied(class.representative);
        }
    }
}

impl CampaignPlan {
    /// Number of experiments in the campaign.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the fault list is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Executes experiment `index` (or synthesises it when pruned or
    /// predicted) and returns its run. Byte-identical to what the runner
    /// would log for the same index; a proxied experiment executes
    /// directly, which yields its representative's row by construction.
    ///
    /// # Errors
    ///
    /// Target errors from the experiment; out-of-range indices are a
    /// [`GoofiError::Campaign`] error.
    pub fn execute(
        &self,
        target: &mut dyn TargetSystemInterface,
        campaign: &Campaign,
        index: usize,
    ) -> Result<ExperimentRun> {
        let fault = self.faults.get(index).ok_or_else(|| {
            GoofiError::Campaign(format!(
                "experiment index {index} out of range (fault list has {})",
                self.faults.len()
            ))
        })?;
        match self.decisions[index] {
            Decision::Pruned => {
                tracing::value(names::COUNTER_PRUNED, 1);
                Ok(pruned_run(&self.reference, fault))
            }
            Decision::Predicted => {
                tracing::value(names::COUNTER_PREDICTED, 1);
                Ok(predicted_run(&self.reference, fault))
            }
            _ => {
                let _s = tracing::span(names::PHASE_EXPERIMENT);
                match &self.checkpoints {
                    // Warm start: rewind to the nearest checkpoint
                    // preceding the fault's first activation.
                    Some(plan) => run_experiment_checkpointed(target, campaign, fault, plan),
                    None => run_experiment(target, campaign, fault),
                }
            }
        }
    }

    /// The loggable record of experiment `index` from its `run`, named
    /// exactly as the runner names it (`{campaign}/{index:05}`).
    pub fn record(
        &self,
        campaign: &Campaign,
        index: usize,
        run: &ExperimentRun,
    ) -> ExperimentRecord {
        record_of(campaign, logged_experiment_name(&campaign.name, index), run)
    }

    /// The loggable record of the fault-free reference run.
    pub fn reference_record(&self, campaign: &Campaign) -> ExperimentRecord {
        record_of(
            campaign,
            reference_experiment_name(&campaign.name),
            &self.reference,
        )
    }
}

/// Prepares the shared campaign inputs: reference trace (when needed),
/// fault list, the pruning decision source, and — when
/// [`RunOptions::class_execution`] is on and the target has a static
/// analyzer — the analysis that will carry the execution classes.
fn prepare(
    target: &mut dyn TargetSystemInterface,
    campaign: &Campaign,
    options: &RunOptions,
) -> Result<(Vec<PlannedFault>, PruneInfo, Option<StaticAnalysis>)> {
    let _s = tracing::span(names::PHASE_PREPARE);
    campaign.validate()?;
    let config = target.describe();
    let trace_pruning = campaign.pre_injection_analysis && options.pruning == Pruning::Trace;
    // The reference trace is only collected when something needs it:
    // trace-based pruning, or trigger placement. Static pruning
    // deliberately does without it.
    let needs_trace = trace_pruning || matches!(campaign.trigger, TriggerPolicy::Triggers(_));
    let trace = if needs_trace {
        target.init_test_card()?;
        target.load_workload()?;
        Some(target.collect_trace()?)
    } else {
        None
    };
    let faults = generate_fault_list(
        &config,
        &campaign.selectors,
        campaign.fault_model,
        &campaign.trigger,
        campaign.experiments,
        campaign.seed,
        trace.as_deref(),
    )?;
    let horizon = faults
        .iter()
        .flat_map(|f| f.times.iter().copied())
        .max()
        .unwrap_or(0);
    let prune = match options.pruning {
        Pruning::Off => PruneInfo::None,
        Pruning::Trace if trace_pruning => PruneInfo::Trace(LivenessAnalysis::from_trace(
            trace.as_deref().expect("trace collected above"),
        )),
        Pruning::Trace => PruneInfo::None,
        Pruning::Static => match target.static_analysis(horizon) {
            Ok(mut analysis) => {
                analysis.compute_classes(&config, &faults);
                PruneInfo::Static(analysis)
            }
            // Same fallback idiom as the checkpoint cache: a target
            // without a static analyzer runs the campaign unpruned.
            Err(GoofiError::Unsupported { .. }) => PruneInfo::None,
            Err(e) => return Err(e),
        },
    };
    let class_analysis = if !options.class_execution {
        None
    } else if let PruneInfo::Static(analysis) = &prune {
        // Static pruning already computed the analysis; classes are
        // grouped on a copy so the persisted row carries both the dead
        // classes and the live execution classes.
        Some(analysis.clone())
    } else {
        match target.static_analysis(horizon) {
            Ok(analysis) => Some(analysis),
            // Same fallback as above: no analyzer, no classes — every
            // experiment executes directly.
            Err(GoofiError::Unsupported { .. }) => None,
            Err(e) => return Err(e),
        }
    };
    Ok((faults, prune, class_analysis))
}

/// Classification, as its own phase span.
fn classify(reference: &ExperimentRun, runs: &[ExperimentRun]) -> CampaignStats {
    let _s = tracing::span(names::PHASE_CLASSIFICATION);
    CampaignStats::from_runs(reference, runs)
}

// ----------------------------------------------------------------------
// The executor
// ----------------------------------------------------------------------

/// The single ordered sink every finished row passes through: it logs
/// the reference first, then experiment rows in fault-list order (a
/// reorder buffer absorbs out-of-order arrivals from the pool), and emits
/// progress events.
struct Sink<'a> {
    store: Option<&'a mut GoofiStore>,
    controller: Option<&'a Controller>,
    decisions: &'a [Decision],
    /// Rows done so far, stored rows included.
    completed: usize,
    /// The next fault index to log.
    next: usize,
    pending: BTreeMap<usize, ExperimentRecord>,
}

impl<'a> Sink<'a> {
    fn open(
        plan: &'a CampaignPlan,
        campaign: &'a Campaign,
        mut store: Option<&'a mut GoofiStore>,
        controller: Option<&'a Controller>,
    ) -> Result<Sink<'a>> {
        if let Some(ctl) = controller {
            ctl.emit(ProgressEvent::Started {
                campaign: campaign.name.clone(),
                total: plan.len(),
            });
        }
        if let (true, Some(store)) = (plan.log_reference, store.as_deref_mut()) {
            store.log_experiment(&plan.reference_record(campaign))?;
        }
        let mut sink = Sink {
            store,
            controller,
            decisions: &plan.decisions,
            completed: plan
                .decisions
                .iter()
                .filter(|&&d| d == Decision::Logged)
                .count(),
            next: 0,
            pending: BTreeMap::new(),
        };
        sink.skip_logged();
        Ok(sink)
    }

    fn skip_logged(&mut self) {
        while self.decisions.get(self.next) == Some(&Decision::Logged) {
            self.next += 1;
        }
    }

    /// Accepts finished row `index` (`record` is `None` without a store).
    fn accept(&mut self, index: usize, record: Option<ExperimentRecord>) -> Result<()> {
        if let Some(record) = record {
            self.pending.insert(index, record);
            while let Some(record) = self.pending.remove(&self.next) {
                if let Some(store) = self.store.as_deref_mut() {
                    store.log_experiment(&record)?;
                }
                self.next += 1;
                self.skip_logged();
            }
        }
        self.completed += 1;
        if let Some(ctl) = self.controller {
            ctl.emit(ProgressEvent::ExperimentDone {
                completed: self.completed,
                total: self.decisions.len(),
                pruned: self.decisions[index] == Decision::Pruned,
            });
        }
        Ok(())
    }

    /// Logs the rows a stop stranded behind gaps in the fault-index
    /// sequence, so no finished work is discarded (resume skips exactly
    /// the missing rows).
    fn close(self) -> Result<()> {
        if let Some(store) = self.store {
            for record in self.pending.into_values() {
                store.log_experiment(&record)?;
            }
        }
        Ok(())
    }
}

/// Produces row `index` on `target` per its decision — synthesised when
/// pruned or predicted, executed otherwise — charging executions to
/// `gauges`.
fn produce(
    plan: &CampaignPlan,
    target: &mut dyn TargetSystemInterface,
    campaign: &Campaign,
    index: usize,
    gauges: &mut WorkerTelemetry,
    timed: bool,
) -> Result<ExperimentRun> {
    if plan.decisions[index] != Decision::Execute {
        return plan.execute(target, campaign, index);
    }
    let busy_t0 = timed.then(Instant::now);
    let run = plan.execute(target, campaign, index)?;
    if let Some(t0) = busy_t0 {
        gauges.busy_nanos += t0.elapsed().as_nanos() as u64;
    }
    gauges.claimed += 1;
    Ok(run)
}

/// The executor: walks the plan's decisions and passes every finished row
/// through one [`Sink`]. One worker runs inline on the planner's target;
/// more run the work-stealing pool. Returns the runs in fault-list order
/// (the completed subset when stopped).
#[allow(clippy::too_many_arguments)]
fn execute(
    plan: &mut CampaignPlan,
    target: &mut dyn TargetSystemInterface,
    factory: Option<&Factory<'_>>,
    workers: usize,
    campaign: &Campaign,
    store: Option<&mut GoofiStore>,
    controller: Option<&Controller>,
    telemetry: Option<&Telemetry>,
) -> Result<Vec<ExperimentRun>> {
    let stored = std::mem::take(&mut plan.stored);
    let plan = &*plan;
    let mut sink = Sink::open(plan, campaign, store, controller)?;
    let (runs, stopped) = match factory {
        Some(factory) if workers > 1 => run_pool(
            plan, stored, target, factory, workers, campaign, sink, controller, telemetry,
        )?,
        _ => {
            let out = run_inline(
                plan, stored, target, campaign, &mut sink, controller, telemetry,
            )?;
            sink.close()?;
            out
        }
    };
    if let Some(ctl) = controller {
        ctl.emit(ProgressEvent::Finished {
            completed: runs.len(),
            stopped,
        });
    }
    Ok(runs)
}

/// One worker on the calling thread, in fault-list order: the sink is
/// called inline and pause/stop go through [`Controller::checkpoint`], so
/// a stopped campaign leaves exactly a fault-list prefix.
fn run_inline(
    plan: &CampaignPlan,
    mut stored: Vec<Option<ExperimentRun>>,
    target: &mut dyn TargetSystemInterface,
    campaign: &Campaign,
    sink: &mut Sink<'_>,
    controller: Option<&Controller>,
    telemetry: Option<&Telemetry>,
) -> Result<(Vec<ExperimentRun>, bool)> {
    let mut gauges = WorkerTelemetry::default();
    let mut runs: Vec<ExperimentRun> = Vec::with_capacity(plan.len());
    let mut stopped = false;
    for (i, &decision) in plan.decisions.iter().enumerate() {
        if decision == Decision::Logged {
            runs.push(stored[i].take().expect("logged rows are loaded"));
            continue;
        }
        if let Some(ctl) = controller {
            match ctl.checkpoint() {
                Ok(()) => {}
                Err(GoofiError::Stopped) => {
                    stopped = true;
                    break;
                }
                Err(other) => return Err(other),
            }
        }
        let run = match decision {
            // The representative has the lowest index in its class, so
            // its run — reloaded or executed — is already in `runs`.
            Decision::Proxied(rep) => fanned_run(&runs[rep], &plan.faults[i]),
            _ => produce(plan, target, campaign, i, &mut gauges, telemetry.is_some())?,
        };
        let record = sink.store.is_some().then(|| plan.record(campaign, i, &run));
        sink.accept(i, record)?;
        runs.push(run);
    }
    if let Some(t) = telemetry {
        t.recorder.record_worker(gauges);
    }
    Ok((runs, stopped))
}

/// Worker/writer pause-stop gate: workers ask for admission before every
/// row; the writer thread translates operator [`Command`]s into state
/// changes. Stop is terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GateState {
    Running,
    Paused,
    Stopped,
}

#[derive(Debug)]
struct Gate {
    state: parking_lot::Mutex<GateState>,
    cv: parking_lot::Condvar,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            state: parking_lot::Mutex::new(GateState::Running),
            cv: parking_lot::Condvar::new(),
        }
    }

    /// Blocks while paused; `false` once the campaign is stopped.
    fn admit(&self) -> bool {
        let mut state = self.state.lock();
        loop {
            match *state {
                GateState::Running => return true,
                GateState::Stopped => return false,
                GateState::Paused => {
                    self.cv.wait(&mut state);
                }
            }
        }
    }

    fn set(&self, new: GateState) {
        let mut state = self.state.lock();
        if *state != GateState::Stopped {
            *state = new;
        }
        self.cv.notify_all();
    }
}

/// Applies the commands already pending when the pool starts, on the
/// calling thread *before* any worker spawns, so that stop/pause-before-
/// start is deterministic (matching the inline executor) instead of
/// racing the first rows. Returns whether the campaign starts stopped.
fn drain_pre_commands(controller: Option<&Controller>, gate: &Gate) -> bool {
    let Some(ctl) = controller else {
        return false;
    };
    let mut paused = false;
    while let Ok(cmd) = ctl.command_receiver().try_recv() {
        match cmd {
            Command::Pause if !paused => {
                paused = true;
                ctl.emit(ProgressEvent::Paused);
            }
            Command::Resume if paused => {
                paused = false;
                ctl.emit(ProgressEvent::Resumed);
            }
            Command::Stop => {
                gate.set(GateState::Stopped);
                return true;
            }
            _ => {}
        }
    }
    if paused {
        gate.set(GateState::Paused);
    }
    false
}

/// The writer thread: owns the sink, drains finished rows from the
/// workers and applies operator commands to the worker gate. Returns
/// whether the campaign was stopped.
fn writer_loop(
    rx: crossbeam::channel::Receiver<(usize, Option<ExperimentRecord>)>,
    mut sink: Sink<'_>,
    controller: Option<&Controller>,
    gate: &Gate,
    abort: &AtomicBool,
    mut stopped: bool,
) -> Result<bool> {
    let never = crossbeam::channel::never::<Command>();
    let mut commands = controller
        .map(|c| c.command_receiver().clone())
        .unwrap_or_else(|| never.clone());
    let mut paused = *gate.state.lock() == GateState::Paused;
    let mut error = None;

    loop {
        crossbeam::channel::select! {
            recv(rx) -> msg => match msg {
                Ok((index, record)) => {
                    if error.is_none() {
                        if let Err(e) = sink.accept(index, record) {
                            error = Some(e);
                            abort.store(true, Ordering::Relaxed);
                        }
                    }
                }
                // All workers are done.
                Err(_) => break,
            },
            recv(commands) -> cmd => match cmd {
                Ok(Command::Pause) => {
                    if !paused {
                        paused = true;
                        gate.set(GateState::Paused);
                        if let Some(ctl) = controller {
                            ctl.emit(ProgressEvent::Paused);
                        }
                    }
                }
                Ok(Command::Resume) => {
                    if paused {
                        paused = false;
                        gate.set(GateState::Running);
                        if let Some(ctl) = controller {
                            ctl.emit(ProgressEvent::Resumed);
                        }
                    }
                }
                Ok(Command::Stop) => {
                    stopped = true;
                    gate.set(GateState::Stopped);
                }
                Err(_) => {
                    // Operator handle vanished: a campaign must not stay
                    // paused (or poll a dead channel) because its progress
                    // window closed.
                    if paused {
                        paused = false;
                        gate.set(GateState::Running);
                    }
                    commands = never.clone();
                }
            },
        }
    }
    match error {
        Some(e) => Err(e),
        None => sink.close().map(|()| stopped),
    }
}

/// The work-stealing pool.
///
/// * Workers claim chunks of the undecided indices off a shared atomic
///   cursor (chunked claims amortise contention) and synthesise pruned
///   and predicted rows inline. A worker executing a class representative
///   fans its members out right after it, so each member's row follows
///   its representative's on the same FIFO channel — a member row can
///   only be stored if its representative's is too, which keeps
///   stop/resume sound. Members of a representative reloaded from the
///   store are claimed like any other row.
/// * Worker 0 reuses the planner's target; the others build their own.
/// * The writer thread owns the [`Sink`] and honours pause/stop.
/// * With telemetry enabled, every worker (and the writer) installs the
///   recorder dispatch and reports scheduler gauges: experiments
///   executed, chunk claims beyond the first ("steals" relative to a
///   one-shot static partition), busy and idle time.
#[allow(clippy::too_many_arguments)]
fn run_pool(
    plan: &CampaignPlan,
    mut slots: Vec<Option<ExperimentRun>>,
    first: &mut dyn TargetSystemInterface,
    factory: &Factory<'_>,
    workers: usize,
    campaign: &Campaign,
    sink: Sink<'_>,
    controller: Option<&Controller>,
    telemetry: Option<&Telemetry>,
) -> Result<(Vec<ExperimentRun>, bool)> {
    let decisions = &plan.decisions;
    slots.resize_with(plan.len(), || None);
    let mut fanout: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut worklist = Vec::new();
    for (i, &decision) in decisions.iter().enumerate() {
        match decision {
            Decision::Logged => {}
            Decision::Proxied(rep) if decisions[rep] != Decision::Logged => {
                fanout.entry(rep).or_default().push(i);
            }
            _ => worklist.push(i),
        }
    }
    // Chunked claims: large enough to amortise cursor contention, small
    // enough that a slow experiment cannot strand a long tail behind one
    // worker.
    let chunk = (worklist.len() / (workers * 4)).clamp(1, 32);

    let gate = Gate::new();
    let stopped = drain_pre_commands(controller, &gate);
    let abort = AtomicBool::new(false);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = crossbeam::channel::unbounded::<(usize, Option<ExperimentRecord>)>();
    let wants_records = sink.store.is_some();

    let (locals, first_error, outcome) = std::thread::scope(|scope| {
        let (gate, abort, cursor) = (&gate, &abort, &cursor);
        let (worklist, fanout, slots) = (&worklist, &fanout, &slots);

        let writer = scope.spawn(move || {
            // Store logging happens here, so journal/store spans are only
            // visible if this thread carries the dispatch too.
            let _tguard = telemetry.map(|t| tracing::set_default(&t.dispatch));
            writer_loop(rx, sink, controller, gate, abort, stopped)
        });

        let mut first = Some(first);
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let tx = tx.clone();
                let first = first.take();
                scope.spawn(move || -> Result<Vec<(usize, ExperimentRun)>> {
                    let _tguard = telemetry.map(|t| tracing::set_default(&t.dispatch));
                    let mut gauges = WorkerTelemetry {
                        worker: w,
                        ..WorkerTelemetry::default()
                    };
                    let mut owned;
                    let target: &mut dyn TargetSystemInterface = match first {
                        Some(target) => target,
                        None => {
                            owned = factory();
                            owned.as_mut()
                        }
                    };
                    let record = |i: usize, run: &ExperimentRun| {
                        wants_records.then(|| plan.record(campaign, i, run))
                    };
                    let mut chunks_claimed = 0u64;
                    let mut local: Vec<(usize, ExperimentRun)> = Vec::new();
                    'claims: loop {
                        let idle_t0 = telemetry.map(|_| Instant::now());
                        if abort.load(Ordering::Relaxed) || !gate.admit() {
                            break;
                        }
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if let Some(t0) = idle_t0 {
                            gauges.idle_nanos += t0.elapsed().as_nanos() as u64;
                        }
                        if start >= worklist.len() {
                            break;
                        }
                        chunks_claimed += 1;
                        let end = (start + chunk).min(worklist.len());
                        for &i in &worklist[start..end] {
                            let idle_t0 = telemetry.map(|_| Instant::now());
                            if abort.load(Ordering::Relaxed) || !gate.admit() {
                                break 'claims;
                            }
                            if let Some(t0) = idle_t0 {
                                gauges.idle_nanos += t0.elapsed().as_nanos() as u64;
                            }
                            let run = match decisions[i] {
                                Decision::Proxied(rep) => fanned_run(
                                    slots[rep].as_ref().expect("stored representative"),
                                    &plan.faults[i],
                                ),
                                _ => match produce(
                                    plan,
                                    target,
                                    campaign,
                                    i,
                                    &mut gauges,
                                    telemetry.is_some(),
                                ) {
                                    Ok(run) => run,
                                    Err(e) => {
                                        abort.store(true, Ordering::Relaxed);
                                        return Err(e);
                                    }
                                },
                            };
                            let _ = tx.send((i, record(i, &run)));
                            for &m in fanout.get(&i).into_iter().flatten() {
                                let fan = fanned_run(&run, &plan.faults[m]);
                                let _ = tx.send((m, record(m, &fan)));
                                local.push((m, fan));
                            }
                            local.push((i, run));
                        }
                    }
                    if let Some(t) = telemetry {
                        gauges.steals = chunks_claimed.saturating_sub(1);
                        t.recorder.record_worker(gauges);
                    }
                    Ok(local)
                })
            })
            .collect();
        drop(tx); // the writer exits once every worker is gone

        let mut locals = Vec::with_capacity(workers);
        let mut first_error: Option<GoofiError> = None;
        for handle in handles {
            match handle.join() {
                Ok(Ok(local)) => locals.push(local),
                Ok(Err(e)) => {
                    first_error.get_or_insert(e);
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        let outcome = match writer.join() {
            Ok(outcome) => outcome,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        (locals, first_error, outcome)
    });

    if let Some(e) = first_error {
        return Err(e);
    }
    let stopped = outcome?;
    for (i, run) in locals.into_iter().flatten() {
        slots[i] = Some(run);
    }
    let runs = if stopped {
        // Completed subset, in fault-list order (gaps where the stop hit).
        slots.into_iter().flatten().collect()
    } else {
        slots
            .into_iter()
            .map(|s| s.ok_or_else(|| GoofiError::Protocol("missing experiment result".into())))
            .collect::<Result<_>>()?
    };
    Ok((runs, stopped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Technique;
    use crate::fault::{FaultModel, LocationSelector};
    use crate::progress::{control_channel, Command};
    use crate::testutil::{Hold, MiniTarget};

    fn campaign(n: usize, window: (u64, u64)) -> Campaign {
        Campaign::builder("mini-c", "mini", "w")
            .technique(Technique::Scifi)
            .select(LocationSelector::Chain {
                chain: "cpu".into(),
                field: Some("R0".into()),
            })
            .fault_model(FaultModel::BitFlip)
            .window(window.0, window.1)
            .experiments(n)
            .seed(42)
            .build()
            .unwrap()
    }

    fn mini_factory() -> Box<dyn TargetSystemInterface> {
        Box::new(MiniTarget::new())
    }

    #[test]
    fn campaign_produces_all_four_outcomes_where_expected() {
        // Window [0,4]: injected before the read at 5 -> wrong output
        // (escaped) unless the flip leaves out unchanged (impossible: any
        // bit flip changes r0 and out = r0+1 observes all 8 bits).
        let mut t = MiniTarget::new();
        let result = CampaignRunner::new(&mut t, &campaign(10, (0, 4)))
            .run()
            .unwrap();
        assert_eq!(result.stats.escaped_total(), 10);
        // Window [6,9]: after the read, before the overwrite at 10:
        // r0 is rewritten at 10, so flips vanish -> all overwritten.
        let mut t = MiniTarget::new();
        let result = CampaignRunner::new(&mut t, &campaign(10, (6, 9)))
            .run()
            .unwrap();
        assert_eq!(result.stats.overwritten, 10);
        // Window [11,19]: flips in r0 persist to final state but output
        // already produced -> latent.
        let mut t = MiniTarget::new();
        let result = CampaignRunner::new(&mut t, &campaign(10, (11, 19)))
            .run()
            .unwrap();
        assert_eq!(result.stats.latent, 10);
    }

    #[test]
    fn preinjection_prunes_exactly_the_dead_window() {
        let mut c = campaign(20, (6, 9));
        c.pre_injection_analysis = true;
        let mut t = MiniTarget::new();
        let result = CampaignRunner::new(&mut t, &c).run().unwrap();
        assert_eq!(result.pruned(), 20, "entire dead window pruned");
        assert_eq!(result.stats.overwritten, 20);
        // Live window: nothing pruned.
        let mut c = campaign(20, (0, 4));
        c.pre_injection_analysis = true;
        let mut t = MiniTarget::new();
        let result = CampaignRunner::new(&mut t, &c).run().unwrap();
        assert_eq!(result.pruned(), 0);
    }

    #[test]
    fn pruning_is_sound_versus_real_execution() {
        // Run the same campaign with and without pruning; classification
        // counts must be identical.
        let c_plain = campaign(30, (0, 19));
        let mut c_pruned = c_plain.clone();
        c_pruned.pre_injection_analysis = true;
        let mut t = MiniTarget::new();
        let plain = CampaignRunner::new(&mut t, &c_plain).run().unwrap();
        let mut t = MiniTarget::new();
        let pruned = CampaignRunner::new(&mut t, &c_pruned).run().unwrap();
        assert_eq!(plain.stats.escaped_total(), pruned.stats.escaped_total());
        assert_eq!(plain.stats.latent, pruned.stats.latent);
        assert_eq!(plain.stats.overwritten, pruned.stats.overwritten);
        assert!(pruned.pruned() > 0, "some experiments must be pruned");
    }

    #[test]
    fn store_logging_writes_reference_and_experiments() {
        let mut store = GoofiStore::new();
        let mut t = MiniTarget::new();
        store.put_target(&t.describe()).unwrap();
        let c = campaign(5, (0, 19));
        store.put_campaign(&c).unwrap();
        let result = CampaignRunner::new(&mut t, &c)
            .store(&mut store)
            .run()
            .unwrap();
        assert_eq!(result.runs.len(), 5);
        let rows = store.experiments_of("mini-c").unwrap();
        assert_eq!(rows.len(), 6, "reference + 5 experiments");
        assert!(rows.iter().any(|r| r.name == "mini-c/ref"));
        // Automatic analysis from the database agrees with in-memory stats.
        let stats = crate::analysis::analyze_campaign(&store, "mini-c").unwrap();
        assert_eq!(stats.total(), 5);
        assert_eq!(stats.escaped_total(), result.stats.escaped_total());
        assert_eq!(stats.latent, result.stats.latent);
        assert_eq!(stats.overwritten, result.stats.overwritten);
    }

    #[test]
    fn stop_command_ends_campaign_early() {
        let (ctl, handle) = control_channel();
        handle.send(Command::Stop);
        let mut t = MiniTarget::new();
        let result = CampaignRunner::new(&mut t, &campaign(50, (0, 19)))
            .observer(&ctl)
            .run()
            .unwrap();
        assert!(result.runs.is_empty());
        let events = handle.drain();
        assert!(events
            .iter()
            .any(|e| matches!(e, ProgressEvent::Finished { stopped: true, .. })));
    }

    #[test]
    fn progress_events_count_experiments() {
        let (ctl, handle) = control_channel();
        let mut t = MiniTarget::new();
        CampaignRunner::new(&mut t, &campaign(3, (0, 19)))
            .observer(&ctl)
            .run()
            .unwrap();
        let events = handle.drain();
        let done: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, ProgressEvent::ExperimentDone { .. }))
            .collect();
        assert_eq!(done.len(), 3);
        assert!(matches!(
            events.last(),
            Some(ProgressEvent::Finished {
                completed: 3,
                stopped: false
            })
        ));
    }

    #[test]
    fn parallel_runner_matches_sequential() {
        let c = campaign(24, (0, 19));
        let mut t = MiniTarget::new();
        let seq = CampaignRunner::new(&mut t, &c).run().unwrap();
        let par = CampaignRunner::from_factory(mini_factory, &c)
            .workers(4)
            .run()
            .unwrap();
        assert_eq!(seq.stats, par.stats);
        assert_eq!(seq.runs.len(), par.runs.len());
        for (a, b) in seq.runs.iter().zip(&par.runs) {
            assert_eq!(a.outputs, b.outputs);
            assert_eq!(a.termination, b.termination);
        }
    }

    fn store_for(c: &Campaign) -> GoofiStore {
        let mut store = GoofiStore::new();
        store.put_target(&MiniTarget::new().describe()).unwrap();
        store.put_campaign(c).unwrap();
        store
    }

    #[test]
    fn parallel_runner_logs_identical_rows() {
        let c = campaign(8, (0, 19));
        // Sequential with store.
        let mut seq_store = store_for(&c);
        let mut t = MiniTarget::new();
        CampaignRunner::new(&mut t, &c)
            .store(&mut seq_store)
            .run()
            .unwrap();
        // Parallel with store (streamed by the writer thread).
        let mut par_store = store_for(&c);
        CampaignRunner::from_factory(mini_factory, &c)
            .workers(3)
            .store(&mut par_store)
            .run()
            .unwrap();
        let a = seq_store.experiments_of(&c.name).unwrap();
        let b = par_store.experiments_of(&c.name).unwrap();
        assert_eq!(a, b, "row-identical logging");
        // The writer's reorder buffer streams rows in fault-list order, so
        // even the raw database files are byte-identical.
        assert_eq!(
            seq_store.database().to_json().unwrap(),
            par_store.database().to_json().unwrap(),
            "byte-identical database"
        );
    }

    #[test]
    fn parallel_runner_with_pruning_matches_sequential() {
        // Window [6,9] is entirely dead: the pre-pass must synthesise all
        // runs without any worker claiming them.
        let mut c = campaign(20, (6, 9));
        c.pre_injection_analysis = true;
        let mut t = MiniTarget::new();
        let seq = CampaignRunner::new(&mut t, &c).run().unwrap();
        let par = CampaignRunner::from_factory(mini_factory, &c)
            .workers(4)
            .run()
            .unwrap();
        assert_eq!(par.pruned(), 20);
        assert_eq!(seq.stats, par.stats);
    }

    #[test]
    fn parallel_runner_emits_live_progress() {
        let c = campaign(9, (0, 19));
        let (ctl, handle) = control_channel();
        CampaignRunner::from_factory(mini_factory, &c)
            .workers(3)
            .observer(&ctl)
            .run()
            .unwrap();
        let events = handle.drain();
        assert!(matches!(
            events.first(),
            Some(ProgressEvent::Started { total: 9, .. })
        ));
        let done: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                ProgressEvent::ExperimentDone { completed, .. } => Some(*completed),
                _ => None,
            })
            .collect();
        assert_eq!(
            done,
            (1..=9).collect::<Vec<_>>(),
            "monotone completion counter"
        );
        assert!(matches!(
            events.last(),
            Some(ProgressEvent::Finished {
                completed: 9,
                stopped: false
            })
        ));
    }

    #[test]
    fn parallel_stop_before_start_then_parallel_resume_completes() {
        let c = campaign(40, (0, 19));
        let mut t = MiniTarget::new();
        let full = CampaignRunner::new(&mut t, &c).run().unwrap();

        // Stop queued before the start: like the sequential runner, the
        // campaign runs zero experiments (the reference is still logged).
        let mut store = store_for(&c);
        let (ctl, handle) = control_channel();
        handle.send(Command::Stop);
        let stopped = CampaignRunner::from_factory(mini_factory, &c)
            .workers(4)
            .store(&mut store)
            .observer(&ctl)
            .run()
            .unwrap();
        assert!(stopped.runs.is_empty());
        assert_eq!(store.experiments_of(&c.name).unwrap().len(), 1);
        let events = handle.drain();
        assert!(events
            .iter()
            .any(|e| matches!(e, ProgressEvent::Finished { stopped: true, .. })));

        // Parallel resume finishes the campaign; totals match a full run.
        let resumed = CampaignRunner::from_factory(mini_factory, &c)
            .workers(4)
            .resume_from(&mut store)
            .run()
            .unwrap();
        assert_eq!(resumed.runs.len(), 40);
        assert_eq!(resumed.stats, full.stats);
        assert_eq!(store.experiments_of(&c.name).unwrap().len(), 41);

        // Resuming again is a pure replay.
        let again = CampaignRunner::from_factory(mini_factory, &c)
            .workers(4)
            .resume_from(&mut store)
            .run()
            .unwrap();
        assert_eq!(again.stats, full.stats);
    }

    #[test]
    fn parallel_mid_campaign_stop_keeps_finished_work() {
        // Stop from a live operator thread once a few experiments are
        // done. Timing decides how many complete, but never the outcome:
        // everything logged before the stop survives, and resume fills in
        // exactly the gaps. A hold keeps the campaign from finishing
        // before the operator has sent the stop.
        let c = campaign(60, (0, 19));
        let mut clean_store = store_for(&c);
        let mut t = MiniTarget::new();
        let full = CampaignRunner::new(&mut t, &c)
            .store(&mut clean_store)
            .run()
            .unwrap();
        let dir = std::env::temp_dir().join(format!("goofi-runner-stop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let clean_path = dir.join("clean.json");
        clean_store.save(&clean_path).unwrap();

        for workers in [1usize, 4] {
            let mut store = store_for(&c);
            let (ctl, handle) = control_channel();
            let hold = Hold::new(20);
            let held = {
                let hold = hold.clone();
                move || Box::new(MiniTarget::held(hold.clone())) as Box<dyn TargetSystemInterface>
            };
            let operator = std::thread::spawn(move || {
                let mut seen = 0;
                while let Some(ev) = handle.next() {
                    if matches!(ev, ProgressEvent::ExperimentDone { .. }) {
                        seen += 1;
                        if seen == 5 {
                            handle.send(Command::Stop);
                            hold.release();
                        }
                    }
                    if matches!(ev, ProgressEvent::Finished { .. }) {
                        break;
                    }
                }
            });
            let stopped = CampaignRunner::from_factory(held, &c)
                .workers(workers)
                .store(&mut store)
                .observer(&ctl)
                .run()
                .unwrap();
            drop(ctl);
            operator.join().unwrap();
            // Logged rows = completed runs + reference, whatever the timing.
            let logged = store.experiments_of(&c.name).unwrap();
            assert_eq!(logged.len(), stopped.runs.len() + 1);

            if workers == 1 {
                // One worker stops on an experiment boundary: the result
                // and the store hold a fault-list prefix.
                let k = stopped.runs.len();
                assert!(k < 60, "the stop must cut the campaign short");
                assert_eq!(
                    stopped.runs[..],
                    full.runs[..k],
                    "stopped runs are a prefix"
                );
                let clean_rows = clean_store.experiments_of(&c.name).unwrap();
                let expected: Vec<_> = clean_rows
                    .iter()
                    .filter(|r| {
                        r.name == reference_experiment_name(&c.name)
                            || (0..k).any(|i| r.name == logged_experiment_name(&c.name, i))
                    })
                    .cloned()
                    .collect();
                assert_eq!(logged, expected, "stored rows are a prefix");
            }

            let resumed = CampaignRunner::from_factory(mini_factory, &c)
                .workers(workers)
                .resume_from(&mut store)
                .run()
                .unwrap();
            assert_eq!(resumed.runs.len(), 60);
            assert_eq!(resumed.stats, full.stats);
            assert_eq!(store.experiments_of(&c.name).unwrap().len(), 61);

            if workers == 1 {
                // Prefix + resumed suffix = the clean run, byte for byte.
                let path = dir.join("resumed.json");
                store.save(&path).unwrap();
                assert_eq!(
                    std::fs::read(&path).unwrap(),
                    std::fs::read(&clean_path).unwrap(),
                    "stop + resume at one worker differs from a clean run"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_pause_blocks_and_resume_releases() {
        let c = campaign(30, (0, 19));
        let (ctl, handle) = control_channel();
        handle.send(Command::Pause);
        let worker = std::thread::spawn(move || {
            CampaignRunner::from_factory(mini_factory, &c)
                .workers(2)
                .observer(&ctl)
                .run()
                .unwrap()
        });
        // Wait for the pause acknowledgement, let the pool sit, resume.
        loop {
            match handle.next() {
                Some(ProgressEvent::Paused) => break,
                Some(_) => continue,
                None => panic!("campaign ended without acknowledging pause"),
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        handle.send(Command::Resume);
        let result = worker.join().unwrap();
        assert_eq!(result.runs.len(), 30);
        let events = handle.drain();
        assert!(events.contains(&ProgressEvent::Resumed));
    }

    #[test]
    fn resume_completes_a_stopped_campaign() {
        let c = campaign(30, (0, 19));
        // Simulate an interrupted campaign deterministically: log the
        // reference and the first 10 experiment rows of a full run.
        let mut t = MiniTarget::new();
        let full = CampaignRunner::new(&mut t, &c).run().unwrap();
        let mut store = GoofiStore::new();
        store.put_target(&MiniTarget::new().describe()).unwrap();
        store.put_campaign(&c).unwrap();
        store
            .log_experiment(&record_of(
                &c,
                reference_experiment_name(&c.name),
                &full.reference,
            ))
            .unwrap();
        for (i, run) in full.runs.iter().take(10).enumerate() {
            store
                .log_experiment(&record_of(&c, logged_experiment_name(&c.name, i), run))
                .unwrap();
        }

        // Resume: only the missing 20 run; totals complete and identical.
        let mut t = MiniTarget::new();
        let resumed = CampaignRunner::new(&mut t, &c)
            .resume_from(&mut store)
            .run()
            .unwrap();
        assert_eq!(resumed.runs.len(), 30);
        assert_eq!(store.experiments_of(&c.name).unwrap().len(), 31);
        assert_eq!(resumed.stats, full.stats);

        // Resuming again is a pure replay of stored rows.
        let mut t = MiniTarget::new();
        let again = CampaignRunner::new(&mut t, &c)
            .resume_from(&mut store)
            .run()
            .unwrap();
        assert_eq!(again.stats, full.stats);
    }

    #[test]
    fn parallel_with_one_worker_falls_back() {
        let c = campaign(4, (0, 19));
        let par = CampaignRunner::from_factory(mini_factory, &c)
            .workers(1)
            .run()
            .unwrap();
        assert_eq!(par.runs.len(), 4);
    }

    // ------------------------------------------------------------------
    // Builder validation
    // ------------------------------------------------------------------

    #[test]
    fn builder_rejects_zero_workers() {
        let c = campaign(4, (0, 19));
        let err = CampaignRunner::from_factory(mini_factory, &c)
            .workers(0)
            .run()
            .unwrap_err();
        assert!(matches!(err, GoofiError::Campaign(_)), "got {err:?}");
    }

    #[test]
    fn parallel_run_requires_factory() {
        let c = campaign(4, (0, 19));
        let mut t = MiniTarget::new();
        let err = CampaignRunner::new(&mut t, &c)
            .workers(2)
            .run()
            .unwrap_err();
        match err {
            GoofiError::Campaign(msg) => {
                assert!(msg.contains("from_factory"), "got {msg}");
            }
            other => panic!("expected Campaign error, got {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Telemetry
    // ------------------------------------------------------------------

    #[test]
    fn telemetry_off_records_nothing() {
        let c = campaign(6, (0, 19));
        let mut t = MiniTarget::new();
        let result = CampaignRunner::new(&mut t, &c).run().unwrap();
        assert!(result.telemetry.is_none());
        assert!(
            !tracing::enabled(),
            "no dispatcher must leak past the campaign"
        );
    }

    #[test]
    fn telemetry_metrics_rollup_counts_experiments() {
        let c = campaign(10, (0, 19));
        let mut t = MiniTarget::new();
        let plain = CampaignRunner::new(&mut t, &c).run().unwrap();
        let mut t = MiniTarget::new();
        let result = CampaignRunner::new(&mut t, &c)
            .options(RunOptions::new().telemetry(TelemetryMode::Metrics))
            .run()
            .unwrap();
        // Identical campaign outcome, telemetry riding alongside.
        assert_eq!(plain.stats, result.stats);
        let tel = result.telemetry.expect("metrics mode produces a rollup");
        assert_eq!(tel.mode, "metrics");
        assert_eq!(tel.workers, 1);
        let experiments = tel.phase(names::PHASE_EXPERIMENT).unwrap();
        assert_eq!(experiments.count, 10);
        let reference = tel.phase(names::PHASE_REFERENCE).unwrap();
        assert_eq!(reference.count, 1);
        assert!(tel.phase(names::PHASE_PREPARE).is_some());
        assert_eq!(tel.worker_stats.len(), 1);
        assert_eq!(tel.worker_stats[0].claimed, 10);
        assert!(tel.spans.is_empty(), "metrics mode logs no spans");
        assert!(!tracing::enabled(), "guard dropped after the campaign");
    }

    #[test]
    fn telemetry_counts_pruned_experiments() {
        let mut c = campaign(20, (6, 9));
        c.pre_injection_analysis = true;
        let mut t = MiniTarget::new();
        let result = CampaignRunner::new(&mut t, &c)
            .options(RunOptions::new().telemetry(TelemetryMode::Metrics))
            .run()
            .unwrap();
        let tel = result.telemetry.unwrap();
        let pruned = tel
            .counters
            .iter()
            .find(|ctr| ctr.name == names::COUNTER_PRUNED)
            .expect("pruned counter recorded");
        assert_eq!(pruned.value, 20);
        assert!(
            tel.phase(names::PHASE_EXPERIMENT).is_none(),
            "nothing actually executed"
        );
    }

    #[test]
    fn telemetry_parallel_records_worker_gauges_and_persists() {
        let c = campaign(16, (0, 19));
        let mut store = store_for(&c);
        let result = CampaignRunner::from_factory(mini_factory, &c)
            .workers(3)
            .store(&mut store)
            .options(RunOptions::new().telemetry(TelemetryMode::Trace))
            .run()
            .unwrap();
        let tel = result.telemetry.expect("trace mode produces a rollup");
        assert_eq!(tel.mode, "trace");
        assert_eq!(tel.workers, 3);
        let claimed: u64 = tel.worker_stats.iter().map(|w| w.claimed).sum();
        assert_eq!(claimed, 16, "every experiment claimed exactly once");
        assert_eq!(tel.phase(names::PHASE_EXPERIMENT).unwrap().count, 16);
        assert!(!tel.spans.is_empty(), "trace mode logs spans");
        // The rollup round-trips through the store.
        let stored = store.get_telemetry(&c.name).unwrap().unwrap();
        assert_eq!(stored, tel);
    }

    #[test]
    fn telemetry_does_not_change_logged_rows() {
        let c = campaign(12, (0, 19));
        let mut plain_store = store_for(&c);
        let mut t = MiniTarget::new();
        CampaignRunner::new(&mut t, &c)
            .store(&mut plain_store)
            .run()
            .unwrap();
        let mut tel_store = store_for(&c);
        let mut t = MiniTarget::new();
        CampaignRunner::new(&mut t, &c)
            .store(&mut tel_store)
            .options(RunOptions::new().telemetry(TelemetryMode::Metrics))
            .run()
            .unwrap();
        assert_eq!(
            plain_store.experiments_of(&c.name).unwrap(),
            tel_store.experiments_of(&c.name).unwrap(),
            "telemetry must not perturb experiment rows"
        );
        // Dropping the rollup row restores byte identity.
        tel_store.clear_telemetry(&c.name).unwrap();
        assert_eq!(
            plain_store.database().to_json().unwrap(),
            tel_store.database().to_json().unwrap()
        );
    }
}
