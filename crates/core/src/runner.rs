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
//! * The **executor** is one loop over chunks of the undecided indices:
//!   it hands each chunk's [`Decision::Execute`] indices to a
//!   [`ChunkExecutor`] — a target in this process, or a `goofi worker`
//!   process in `goofi-server` — produces the other rows itself, and
//!   passes every row to one ordered sink, which logs rows in fault-list
//!   order, classifies and counts them, and emits progress events. With
//!   one in-process worker (the default) it runs on the calling thread,
//!   honouring pause and stop through [`Controller::checkpoint`].
//!   Otherwise it runs the work-stealing pool (experiment E8): a driver
//!   thread per executor claims chunks off a shared atomic cursor, while
//!   a writer thread owns the sink and services the Fig. 7 controls.
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
use crate::analysis::{classify, CampaignStats, Outcome};
use crate::campaign::{Campaign, LogMode, Technique};
use crate::checkpoint::{run_experiment_checkpointed, CheckpointPlan};
use crate::error::{GoofiError, Result};
use crate::fault::{generate_fault_list, PlannedFault, TriggerPolicy};
use crate::progress::{Command, Controller, ProgressEvent};
use crate::rowcodec;
use crate::service::{ClassSavings, JobSummary};
use crate::staticanalysis::{ClassKind, Pruning, StaticAnalysis};
use crate::store::{reference_experiment_name, ExperimentRecord, GoofiStore};
use crate::target::{TargetSystemConfig, TargetSystemInterface};
use goofi_db::Row;
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
    /// Whether experiments are pruned before injection. Defaults to
    /// [`Pruning::Campaign`], which prunes when the campaign's
    /// `pre_injection_analysis` flag is set; [`Pruning::Static`] always
    /// prunes and [`Pruning::Off`] never does. Pruning is static: it
    /// needs no reference trace, and targets without a static analyzer
    /// run unpruned. Pruned experiments synthesise the reference outcome,
    /// so logged rows are identical across modes for experiments that
    /// actually run.
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
    /// reference) instead of executing them. Requires pruning in effect
    /// (see [`RunOptions::pruning`]) on a target with a static analyzer
    /// (silently falls back to executing otherwise) and only applies to
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
            pruning: Pruning::Campaign,
            class_execution: false,
            prediction: false,
        }
    }
}

impl RunOptions {
    /// The default options: checkpointing on, telemetry off, pruning as
    /// the campaign asks.
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
    /// The static workload analysis, when the campaign was pruned or ran
    /// with class execution on a target that supports it (also persisted
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

/// Executes chunks of a plan's [`Decision::Execute`] indices; the executor
/// loop around it produces every other row. A target of this process is
/// one; `goofi-server` runs `goofi worker` processes as another.
pub trait ChunkExecutor: Send {
    /// Readies the executor for `plan` on its driver thread, before the
    /// first chunk (a worker process finishes its own plan here). An
    /// error aborts the campaign.
    fn start(&mut self, plan: &CampaignPlan) -> Result<()> {
        let _ = plan;
        Ok(())
    }

    /// Executes `indices` (ascending, all [`Decision::Execute`] in
    /// `plan`) and returns their runs in the same order.
    ///
    /// # Errors
    ///
    /// Target or transport errors; the campaign aborts.
    fn run_chunk(
        &mut self,
        plan: &CampaignPlan,
        campaign: &Campaign,
        indices: &[usize],
    ) -> Result<Vec<ExperimentRun>>;
}

impl ChunkExecutor for &mut dyn TargetSystemInterface {
    fn run_chunk(
        &mut self,
        plan: &CampaignPlan,
        campaign: &Campaign,
        indices: &[usize],
    ) -> Result<Vec<ExperimentRun>> {
        indices
            .iter()
            .map(|&index| plan.execute(&mut **self, campaign, index))
            .collect()
    }
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
    /// Caller-supplied chunk executors and the indices per chunk.
    launched: Option<(Vec<Box<dyn ChunkExecutor + 'a>>, usize)>,
}

impl<'a> CampaignRunner<'a> {
    fn with_source(source: TargetSource<'a>, campaign: &'a Campaign) -> CampaignRunner<'a> {
        CampaignRunner {
            source,
            campaign,
            workers: 1,
            options: RunOptions::default(),
            controller: None,
            store: None,
            resume: false,
            launched: None,
        }
    }

    /// A runner over one caller-owned target. Sequential only: asking for
    /// more than one worker is an error (workers each need their own
    /// target; use [`CampaignRunner::from_factory`]).
    pub fn new(
        target: &'a mut dyn TargetSystemInterface,
        campaign: &'a Campaign,
    ) -> CampaignRunner<'a> {
        CampaignRunner::with_source(TargetSource::Single(target), campaign)
    }

    /// A runner over a target factory: the planner's target, which also
    /// serves the first worker, and each further worker's target are
    /// created by `factory`. Works at any worker count.
    pub fn from_factory<F>(factory: F, campaign: &'a Campaign) -> CampaignRunner<'a>
    where
        F: Fn() -> Box<dyn TargetSystemInterface> + Sync + 'a,
    {
        CampaignRunner::with_source(TargetSource::Factory(Box::new(factory)), campaign)
    }

    /// Sets the worker count (default 1 = sequential). Zero is rejected
    /// by [`run`](CampaignRunner::run).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Runs the experiments on `executors` (such as worker processes),
    /// claiming `chunk` indices at a time: the worker count becomes the
    /// executor count, and the planner's target only plans (without a
    /// checkpoint cache). The pool runs even with one executor, so store
    /// appends overlap its next chunk.
    pub fn executors(mut self, executors: Vec<Box<dyn ChunkExecutor + 'a>>, chunk: usize) -> Self {
        self.launched = Some((executors, chunk.max(1)));
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
        Ok(self.finish(true)?.0)
    }

    /// Runs the campaign like [`run`](CampaignRunner::run) but keeps no
    /// runs, only what the sink counted while logging (the services' job
    /// body).
    ///
    /// # Errors
    ///
    /// As [`run`](CampaignRunner::run).
    pub fn run_summary(self) -> Result<JobSummary> {
        Ok(self.finish(false)?.1)
    }

    /// Plans, executes and persists the trailing tables; the result holds
    /// runs only with `keep_runs`.
    fn finish(self, keep_runs: bool) -> Result<(CampaignResult, JobSummary)> {
        let CampaignRunner {
            source,
            campaign,
            workers,
            options,
            controller,
            mut store,
            resume,
            launched,
        } = self;
        let workers = launched.as_ref().map_or(workers, |(e, _)| e.len());
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

        // The targets, executors, fault list and checkpoint cache are
        // dropped at the end of this block, before the trailing tables are
        // persisted.
        let (tally, reference, static_analysis) = {
            let mut owned: Box<dyn TargetSystemInterface>;
            let (target, factory): (&mut dyn TargetSystemInterface, Option<Box<Factory<'a>>>) =
                match source {
                    TargetSource::Single(_) if workers > 1 && launched.is_none() => {
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
            let plan_options = options.checkpoint(options.checkpoint && launched.is_none());
            let mut plan = plan(
                target,
                campaign,
                &plan_options,
                store.as_deref().filter(|_| resume),
            )?;
            let mut more: Vec<Box<dyn TargetSystemInterface>>;
            let mut executors: Vec<Box<dyn ChunkExecutor + '_>>;
            let chunk = match launched {
                Some((launched, chunk)) => {
                    executors = launched;
                    Some(chunk)
                }
                None => {
                    more = (1..workers)
                        .filter_map(|_| factory.as_ref().map(|f| f()))
                        .collect();
                    let more = more
                        .iter_mut()
                        .map(|t| -> &mut dyn TargetSystemInterface { t.as_mut() });
                    executors = std::iter::once(target)
                        .chain(more)
                        .map(|t| Box::new(t) as _)
                        .collect();
                    None
                }
            };
            let tally = execute(
                &mut plan,
                &mut executors,
                chunk,
                campaign,
                store.as_deref_mut(),
                controller,
                telemetry.as_ref(),
                keep_runs,
            )?;
            (tally, plan.reference, plan.static_analysis)
        };

        if let (Some(analysis), Some(store)) = (&static_analysis, store.as_deref_mut()) {
            store.put_static_analysis(&campaign.name, analysis)?;
        }
        let telemetry = telemetry.map(|t| {
            t.recorder
                .finish(&campaign.name, workers, wall.elapsed().as_nanos() as u64)
        });
        if let (Some(rollup), Some(store)) = (&telemetry, store) {
            store.put_telemetry(rollup)?;
        }

        let mut summary = JobSummary::new(&campaign.name, workers);
        summary.experiments = tally.completed;
        summary.pruned = tally.stats.pruned;
        summary.predicted = tally.predicted;
        summary.stats = tally.stats.clone();
        summary.class_savings = static_analysis
            .as_ref()
            .map(StaticAnalysis::class_savings)
            .filter(|&(_, fanned)| fanned > 0)
            .map(|(representatives, fanned)| ClassSavings {
                representatives,
                fanned,
            });
        summary.telemetry = telemetry.clone();
        let result = CampaignResult {
            campaign: campaign.clone(),
            reference,
            // In fault-list order, with gaps where a stop hit.
            runs: tally
                .runs
                .unwrap_or_default()
                .into_iter()
                .flatten()
                .collect(),
            stats: tally.stats,
            telemetry,
            static_analysis,
        };
        Ok((result, summary))
    }
}

/// The experiment-row name the runner logs for index `index` of
/// `campaign` — public so services can test row existence when resuming.
pub fn logged_experiment_name(campaign: &str, index: usize) -> String {
    format!("{campaign}/{index:05}")
}

/// A synthesised row: `fault` with the observed outcome of `from`, built
/// field by field so `from`'s detail trace — potentially thousands of
/// state vectors — is never copied (the row it copies already holds it
/// once). The caller sets the activation count and flags.
fn outcome_of(from: &ExperimentRun, fault: &PlannedFault) -> ExperimentRun {
    ExperimentRun {
        fault: Some(fault.clone()),
        termination: from.termination.clone(),
        outputs: from.outputs.clone(),
        state: from.state.clone(),
        instructions: from.instructions,
        iterations: from.iterations,
        activations_done: 0,
        detail_trace: None,
        pruned: false,
        predicted: false,
    }
}

/// Builds the row of an equivalence-class member from its
/// representative's run. Soundness: both faults mutate the same bits with
/// the same model, and every target location is untouched by the
/// fault-free execution between the two injection times (they share the
/// location's first-touch window), so the post-injection trajectories —
/// and therefore every logged observable — coincide exactly. The
/// activation count is the representative's, so the member row
/// round-trips through the store identically to a directly-executed one.
fn fanned_run(representative: &ExperimentRun, fault: &PlannedFault) -> ExperimentRun {
    tracing::value(names::COUNTER_FANNED, 1);
    ExperimentRun {
        activations_done: representative.activations_done,
        ..outcome_of(representative, fault)
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
    /// [`RunOptions::prediction`] with pruning in effect): the row is
    /// synthesised from the reference.
    Predicted,
    /// An equivalence-class member: the row is synthesised from the run
    /// of the representative at this index, which is always the lowest
    /// member index.
    Proxied(usize),
    /// The experiment executes on a target.
    Execute,
}

impl Decision {
    /// The run a pruned or predicted experiment injecting `fault` stands
    /// for, synthesised from the campaign's `reference` run; `None` for
    /// any other decision. Both copy the reference outcome: a pruned
    /// fault is provably overwritten before any read (no activation
    /// counts), and a predicted one provably washes out of the
    /// architectural state without touching control, addresses or
    /// trap-prone operands, after all its activations fired inside the
    /// covered execution ([`StaticAnalysis::can_predict`]).
    pub fn synthesise(
        self,
        reference: &ExperimentRun,
        fault: &PlannedFault,
    ) -> Option<ExperimentRun> {
        Some(match self {
            Decision::Pruned => ExperimentRun {
                pruned: true,
                ..outcome_of(reference, fault)
            },
            Decision::Predicted => ExperimentRun {
                activations_done: fault.times.len(),
                predicted: true,
                ..outcome_of(reference, fault)
            },
            _ => return None,
        })
    }
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
/// experiment indices the daemon hands them. Rows produced through a plan
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
/// guarantee: the daemon and each of its worker processes derive the same
/// decisions, so the daemon can send workers only the indices its own
/// plan leaves to execution.
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
    plan(target, campaign, options, None)
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
    let (faults, mut static_analysis, prune) = prepare(target, campaign, options)?;
    let config = target.describe();
    let predict = prune && options.prediction && synthesis_envelope(campaign);
    let mut decisions: Vec<Decision> = faults
        .iter()
        .map(|f| match &static_analysis {
            Some(a) if prune && a.can_prune(&config, f) => Decision::Pruned,
            Some(a) if predict && a.can_predict(&config, f) => Decision::Predicted,
            _ => Decision::Execute,
        })
        .collect();
    if let (Some(analysis), true) = (&mut static_analysis, options.class_execution) {
        group_classes(analysis, campaign, &config, &faults, &mut decisions);
    }

    let mut stored = Vec::new();
    let mut reference = None;
    if let Some(store) = resume {
        // One scan of the campaign's rows through the store's
        // (campaignName, experimentName) index, not a lookup per fault.
        let mut logged: BTreeMap<String, ExperimentRecord> = store
            .experiments_of(&campaign.name)?
            .into_iter()
            .map(|record| (record.name.clone(), record))
            .collect();
        let mut take = |name: String| logged.remove(&name).map(|record| record.to_run());
        stored = (0..faults.len())
            .map(|i| take(logged_experiment_name(&campaign.name, i)))
            .collect();
        reference = take(reference_experiment_name(&campaign.name));
    }
    let log_reference = reference.is_none();
    let reference = match reference {
        Some(reference) => reference,
        None => {
            let _s = tracing::span(names::PHASE_REFERENCE);
            reference_run(target, campaign)?
        }
    };
    // A stored row is reused, never re-logged. A stored pruned or
    // predicted row stands for the run its decision synthesises, so a
    // resumed campaign tallies exactly like an uninterrupted one.
    for ((decision, run), fault) in decisions.iter_mut().zip(&mut stored).zip(&faults) {
        if let Some(run) = run {
            if let Some(decided) = decision.synthesise(&reference, fault) {
                *run = decided;
            }
            *decision = Decision::Logged;
        }
    }

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
    let _s = tracing::span(names::PHASE_CLASS_GROUPING);
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
        if let Some(run) = self.decide(index, true) {
            return Ok(run);
        }
        let _s = tracing::span(names::PHASE_EXPERIMENT);
        match &self.checkpoints {
            // Warm start: rewind to the nearest checkpoint preceding the
            // fault's first activation.
            Some(plan) => run_experiment_checkpointed(target, campaign, fault, plan),
            None => run_experiment(target, campaign, fault),
        }
    }

    /// Counts a pruned or predicted experiment in telemetry and, with
    /// `materialise`, returns its synthesised run
    /// ([`Decision::synthesise`]); `None` for any other decision.
    fn decide(&self, index: usize, materialise: bool) -> Option<ExperimentRun> {
        let decision = self.decisions[index];
        let counter = match decision {
            Decision::Pruned => names::COUNTER_PRUNED,
            Decision::Predicted => names::COUNTER_PREDICTED,
            _ => return None,
        };
        tracing::value(counter, 1);
        materialise
            .then(|| decision.synthesise(&self.reference, &self.faults[index]))
            .flatten()
    }

    /// The loggable record of experiment `index` from its `run`, named
    /// exactly as the runner names it (`{campaign}/{index:05}`).
    pub fn record(
        &self,
        campaign: &Campaign,
        index: usize,
        run: &ExperimentRun,
    ) -> ExperimentRecord {
        ExperimentRecord::from_run(
            logged_experiment_name(&campaign.name, index),
            &campaign.name,
            run,
        )
    }

    /// The loggable record of the fault-free reference run.
    pub fn reference_record(&self, campaign: &Campaign) -> ExperimentRecord {
        ExperimentRecord::from_run(
            reference_experiment_name(&campaign.name),
            &campaign.name,
            &self.reference,
        )
    }
}

/// Prepares the shared campaign inputs: the fault list (with the
/// reference trace only when triggers place it), whether the campaign is
/// pruned, and — when pruning or class execution needs it and the target
/// has a static analyzer — the one static analysis every pruned,
/// predicted and proxied decision comes from. A pruned campaign's
/// analysis carries the dead classes of its fault list.
fn prepare(
    target: &mut dyn TargetSystemInterface,
    campaign: &Campaign,
    options: &RunOptions,
) -> Result<(Vec<PlannedFault>, Option<StaticAnalysis>, bool)> {
    let _s = tracing::span(names::PHASE_PREPARE);
    campaign.validate()?;
    let config = target.describe();
    let trace = if matches!(campaign.trigger, TriggerPolicy::Triggers(_)) {
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
    let prune = options.pruning.prunes(campaign.pre_injection_analysis);
    if !prune && !options.class_execution {
        return Ok((faults, None, false));
    }
    let horizon = faults
        .iter()
        .flat_map(|f| f.times.iter().copied())
        .max()
        .unwrap_or(0);
    match target.static_analysis(horizon) {
        Ok(mut analysis) => {
            if prune {
                analysis.compute_classes(&config, &faults);
            }
            Ok((faults, Some(analysis), prune))
        }
        // Same fallback idiom as the checkpoint cache: a target without
        // a static analyzer runs the campaign unpruned, executing every
        // experiment directly.
        Err(GoofiError::Unsupported { .. }) => Ok((faults, None, false)),
        Err(e) => Err(e),
    }
}

// ----------------------------------------------------------------------
// The executor
// ----------------------------------------------------------------------

/// What the sink counted over a campaign's rows, stored rows included.
struct Tally {
    completed: usize,
    predicted: usize,
    /// Exactly what [`CampaignStats::from_runs`] gives for the same runs.
    stats: CampaignStats,
    /// Every run by fault index, when the caller keeps them.
    runs: Option<Vec<Option<ExperimentRun>>>,
}

/// A finished row's outcome on its way to the sink.
enum Done {
    /// An executed or fanned row, classified against the reference.
    Run(ExperimentRun),
    /// A pruned or predicted row, tallied from its decision; its
    /// synthesised run only when the caller keeps runs.
    Decided(Option<ExperimentRun>),
}

/// The single ordered sink every finished row passes through: it logs
/// the reference first, then experiment rows in fault-list order (a
/// reorder buffer absorbs out-of-order arrivals from the pool), tallies
/// each row, and emits progress events. Rows reach it, and wait in it,
/// in their physical form.
struct Sink<'a> {
    store: Option<&'a mut GoofiStore>,
    controller: Option<&'a Controller>,
    plan: &'a CampaignPlan,
    tally: Tally,
    /// How a predicted row classifies: the reference against itself.
    predicted_outcome: Outcome,
    /// The next fault index to log.
    next: usize,
    pending: BTreeMap<usize, Row>,
}

impl<'a> Sink<'a> {
    /// Opens the sink, tallying the `stored` runs of [`Decision::Logged`]
    /// rows.
    fn open(
        plan: &'a CampaignPlan,
        campaign: &'a Campaign,
        stored: Vec<Option<ExperimentRun>>,
        mut store: Option<&'a mut GoofiStore>,
        controller: Option<&'a Controller>,
        keep_runs: bool,
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
        let tally = Tally {
            completed: stored.iter().flatten().count(),
            predicted: stored.iter().flatten().filter(|r| r.predicted).count(),
            stats: CampaignStats::from_runs(&plan.reference, stored.iter().flatten()),
            runs: keep_runs.then(|| {
                let mut runs = stored;
                runs.resize_with(plan.len(), || None);
                runs
            }),
        };
        let mut sink = Sink {
            store,
            controller,
            plan,
            tally,
            predicted_outcome: classify(&plan.reference, &plan.reference),
            next: 0,
            pending: BTreeMap::new(),
        };
        sink.skip_logged();
        Ok(sink)
    }

    /// The base of `campaign`'s physical rows, its logged reference
    /// record; `None` without a store. [`Sink::open`] has logged it when
    /// the store did not hold it.
    fn base(&self, campaign: &str) -> Result<Option<Arc<ExperimentRecord>>> {
        let Some(store) = self.store.as_deref() else {
            return Ok(None);
        };
        match store.reference(campaign)? {
            Some(base) => Ok(Some(base)),
            None => Err(GoofiError::Protocol(format!(
                "campaign `{campaign}` has no logged reference row"
            ))),
        }
    }

    fn skip_logged(&mut self) {
        while self.plan.decisions.get(self.next) == Some(&Decision::Logged) {
            self.next += 1;
        }
    }

    /// Accepts finished row `index`, whose physical `row` is `None`
    /// without a store.
    fn accept(&mut self, index: usize, row: Option<Row>, done: Done) -> Result<()> {
        if let Some(row) = row {
            // A row in order, the common case, skips the reorder buffer.
            let mut ready = match index == self.next {
                true => Some(row),
                false => {
                    self.pending.insert(index, row);
                    None
                }
            };
            while let Some(row) = ready.take().or_else(|| self.pending.remove(&self.next)) {
                if let Some(store) = self.store.as_deref_mut() {
                    store.append_experiment(&row)?;
                }
                self.next += 1;
                self.skip_logged();
            }
        }
        let decision = self.plan.decisions[index];
        let tally = &mut self.tally;
        let run = match done {
            Done::Run(run) => {
                tally.stats.add_run(&self.plan.reference, &run);
                Some(run)
            }
            Done::Decided(run) => {
                match decision {
                    Decision::Pruned => tally.stats.add_pruned(),
                    _ => {
                        tally.predicted += 1;
                        tally.stats.add(self.predicted_outcome.clone());
                    }
                }
                run
            }
        };
        tally.completed += 1;
        if let Some(ctl) = self.controller {
            ctl.emit(ProgressEvent::ExperimentDone {
                completed: tally.completed,
                total: self.plan.len(),
                pruned: decision == Decision::Pruned,
            });
        }
        if let Some(runs) = &mut tally.runs {
            runs[index] = run;
        }
        Ok(())
    }

    /// Logs the rows a stop stranded behind gaps in the fault-index
    /// sequence, so no finished work is discarded (resume skips exactly
    /// the missing rows), and returns the tally.
    fn close(self) -> Result<Tally> {
        if let Some(store) = self.store {
            for row in self.pending.into_values() {
                store.append_experiment(&row)?;
            }
        }
        Ok(self.tally)
    }
}

/// What every driver shares: the plan and the rows still to produce.
struct Work<'a> {
    plan: &'a CampaignPlan,
    campaign: &'a Campaign,
    /// Fault indices to produce, ascending, claimed `chunk` at a time: all
    /// but stored rows and the members of live representatives.
    list: Vec<usize>,
    chunk: usize,
    /// Class members, produced right after their representative.
    fanout: BTreeMap<usize, Vec<usize>>,
    /// Stored runs of representatives whose members are claimed like any
    /// other row (resume only).
    stored_reps: BTreeMap<usize, ExperimentRun>,
    /// Whether drivers time their gauges.
    timed: bool,
    /// Whether decided rows materialise their runs.
    keep_runs: bool,
    /// The base physical rows are encoded against, when there is a store.
    base: Option<Arc<ExperimentRecord>>,
}

impl<'a> Work<'a> {
    fn new(
        plan: &'a CampaignPlan,
        campaign: &'a Campaign,
        stored: &[Option<ExperimentRun>],
    ) -> Self {
        let decisions = &plan.decisions;
        let (mut list, mut fanout, mut stored_reps) =
            (Vec::new(), BTreeMap::new(), BTreeMap::new());
        for (i, &decision) in decisions.iter().enumerate() {
            match decision {
                Decision::Logged => continue,
                Decision::Proxied(rep) if decisions[rep] != Decision::Logged => {
                    fanout.entry(rep).or_insert_with(Vec::new).push(i);
                    continue;
                }
                Decision::Proxied(rep) => {
                    let run = stored[rep].as_ref().expect("logged rows are loaded");
                    stored_reps.entry(rep).or_insert_with(|| run.clone());
                }
                _ => {}
            }
            list.push(i);
        }
        Work {
            plan,
            campaign,
            list,
            chunk: 1,
            fanout,
            stored_reps,
            timed: false,
            keep_runs: false,
            base: None,
        }
    }

    /// The physical row of row `i` for the store, when there is one: a
    /// decided row straight from its fault and the reference, any other
    /// through the record of its run.
    fn row(&self, i: usize, done: &Done) -> Option<Row> {
        let base = self.base.as_deref()?;
        let name = logged_experiment_name(&self.campaign.name, i);
        Some(match done {
            Done::Run(run) => rowcodec::compact_row(
                &ExperimentRecord::from_run(name, &self.campaign.name, run),
                Some(base),
            ),
            Done::Decided(_) => {
                rowcodec::decided_row(name, &self.campaign.name, &self.plan.faults[i], base)
            }
        })
    }

    /// The executor loop: claims chunks until `claim` runs dry, runs each
    /// chunk's executions on `executor`, then emits its rows in index
    /// order, each class member right after its representative (so a
    /// member is only logged if its representative is). Returns the claim
    /// count.
    fn drive(
        &self,
        executor: &mut dyn ChunkExecutor,
        gauges: &mut WorkerTelemetry,
        mut claim: impl FnMut() -> Result<Option<usize>>,
        mut emit: impl FnMut(usize, Done) -> Result<()>,
    ) -> Result<u64> {
        let plan = self.plan;
        executor.start(plan)?;
        let mut claims = 0;
        loop {
            let idle_t0 = self.timed.then(Instant::now);
            let Some(start) = claim()?.filter(|&s| s < self.list.len()) else {
                return Ok(claims);
            };
            if let Some(t0) = idle_t0 {
                gauges.idle_nanos += t0.elapsed().as_nanos() as u64;
            }
            claims += 1;
            let rows = &self.list[start..(start + self.chunk).min(self.list.len())];
            let executions: Vec<usize> = rows
                .iter()
                .copied()
                .filter(|&i| plan.decisions[i] == Decision::Execute)
                .collect();
            let busy_t0 = self.timed.then(Instant::now);
            let mut runs = match executions.is_empty() {
                true => Vec::new(),
                false => executor.run_chunk(plan, self.campaign, &executions)?,
            }
            .into_iter();
            if let Some(t0) = busy_t0 {
                gauges.busy_nanos += t0.elapsed().as_nanos() as u64;
            }
            gauges.claimed += executions.len() as u64;
            for &i in rows {
                let run = match plan.decisions[i] {
                    Decision::Execute => runs.next().ok_or_else(|| {
                        GoofiError::Protocol(format!("no run returned for experiment {i}"))
                    })?,
                    Decision::Proxied(rep) => fanned_run(&self.stored_reps[&rep], &plan.faults[i]),
                    _ => {
                        emit(i, Done::Decided(plan.decide(i, self.keep_runs)))?;
                        continue;
                    }
                };
                let members = self.fanout.get(&i).into_iter().flatten();
                let fans: Vec<_> = members
                    .map(|&m| (m, fanned_run(&run, &plan.faults[m])))
                    .collect();
                emit(i, Done::Run(run))?;
                for (m, fan) in fans {
                    emit(m, Done::Run(fan))?;
                }
            }
        }
    }
}

/// The executor: opens the sink and drives the executors over the plan's
/// undecided rows. Caller-supplied executors (`chunk` is `Some`) always
/// run the pool; one in-process target runs inline.
#[allow(clippy::too_many_arguments)]
fn execute(
    plan: &mut CampaignPlan,
    executors: &mut [Box<dyn ChunkExecutor + '_>],
    chunk: Option<usize>,
    campaign: &Campaign,
    store: Option<&mut GoofiStore>,
    controller: Option<&Controller>,
    telemetry: Option<&Telemetry>,
    keep_runs: bool,
) -> Result<Tally> {
    let stored = std::mem::take(&mut plan.stored);
    let plan = &*plan;
    let mut work = Work::new(plan, campaign, &stored);
    let mut sink = Sink::open(plan, campaign, stored, store, controller, keep_runs)?;
    (work.timed, work.keep_runs) = (telemetry.is_some(), keep_runs);
    work.base = sink.base(&campaign.name)?;
    let (tally, stopped) = match (chunk, executors) {
        // One worker on the calling thread: every row is its own claim and
        // pause and stop go through [`Controller::checkpoint`] before it,
        // so a stopped campaign leaves a fault-list prefix (plus, under
        // class execution, the members of the representatives it ran).
        (None, [executor]) => {
            let mut gauges = WorkerTelemetry::default();
            let (mut next, mut stopped) = (0, false);
            let claim = || {
                if next < work.list.len() {
                    match controller.map_or(Ok(()), Controller::checkpoint) {
                        Err(GoofiError::Stopped) => stopped = true,
                        other => other?,
                    }
                }
                next += 1;
                Ok((!stopped).then_some(next - 1))
            };
            let emit = |i, done| sink.accept(i, work.row(i, &done), done);
            work.drive(executor.as_mut(), &mut gauges, claim, emit)?;
            if let Some(t) = telemetry {
                t.recorder.record_worker(gauges);
            }
            (sink.close()?, stopped)
        }
        (chunk, executors) => {
            // Chunked claims: large enough to amortise cursor contention,
            // small enough that a slow experiment cannot strand a long
            // tail behind one worker.
            let workers = executors.len();
            work.chunk = chunk.unwrap_or((work.list.len() / (workers * 4)).clamp(1, 32));
            run_pool(&work, executors, sink, controller, telemetry)?
        }
    };
    if let Some(ctl) = controller {
        ctl.emit(ProgressEvent::Finished {
            completed: tally.completed,
            stopped,
        });
    }
    Ok(tally)
}

/// Driver/writer pause-stop gate: drivers ask for admission before every
/// claim; operator [`Command`]s change its state. Stop is terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GateState {
    Running,
    Paused,
    Stopped,
}

/// The gate drivers pass before every claim. Besides pause and stop it
/// bounds how far the drivers run ahead of the writer: while more than
/// `max_backlog` finished rows wait for the writer, no driver claims more
/// work. Rows cannot pile up in memory behind a slow store, and a command
/// (which the writer applies) lands within about one round of chunks even
/// when the drivers are faster than the writer.
#[derive(Debug)]
struct Gate {
    state: parking_lot::Mutex<GateState>,
    cv: parking_lot::Condvar,
    // Rows sent by the drivers and not yet taken by the writer.
    backlog: AtomicUsize,
    max_backlog: usize,
}

impl Gate {
    fn new(max_backlog: usize) -> Gate {
        Gate {
            state: parking_lot::Mutex::new(GateState::Running),
            cv: parking_lot::Condvar::new(),
            backlog: AtomicUsize::new(0),
            max_backlog,
        }
    }

    /// Blocks while paused or while the writer's backlog is over its
    /// bound; `false` once the campaign is stopped.
    fn admit(&self) -> bool {
        let mut state = self.state.lock();
        loop {
            match *state {
                GateState::Stopped => return false,
                GateState::Running if self.backlog.load(Ordering::Acquire) <= self.max_backlog => {
                    return true
                }
                _ => self.cv.wait(&mut state),
            }
        }
    }

    /// Driver side: one more row is on its way to the writer.
    fn row_sent(&self) {
        self.backlog.fetch_add(1, Ordering::AcqRel);
    }

    /// Writer side: one row taken. The decrement that brings the backlog
    /// back to its bound wakes the waiting drivers; it notifies under the
    /// lock, so a driver between its check and its wait cannot miss it.
    fn row_taken(&self) {
        if self.backlog.fetch_sub(1, Ordering::AcqRel) == self.max_backlog + 1 {
            let _state = self.state.lock();
            self.cv.notify_all();
        }
    }

    /// Applies an operator command, acknowledging on `ctl` a pause or
    /// resume that changes the state.
    fn command(&self, cmd: Command, ctl: &Controller) {
        let mut state = self.state.lock();
        let (next, ack) = match (cmd, *state) {
            (Command::Pause, GateState::Running) => {
                (GateState::Paused, Some(ProgressEvent::Paused))
            }
            (Command::Resume, GateState::Paused) => {
                (GateState::Running, Some(ProgressEvent::Resumed))
            }
            (Command::Stop, _) => (GateState::Stopped, None),
            _ => return,
        };
        *state = next;
        drop(state);
        self.cv.notify_all();
        if let Some(ack) = ack {
            ctl.emit(ack);
        }
    }

    fn stopped(&self) -> bool {
        *self.state.lock() == GateState::Stopped
    }
}

/// Held by the writer thread: if the writer unwinds, the gate stops, so no
/// driver waits forever on a backlog nobody will drain.
struct StopOnUnwind<'a>(&'a Gate);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            *self.0.state.lock() = GateState::Stopped;
            self.0.cv.notify_all();
        }
    }
}

/// A finished row on its way from a driver to the writer: its index,
/// its physical row when there is a store, and its outcome.
type Finished = (usize, Option<Row>, Done);

/// The writer thread: owns the sink, drains finished rows from the
/// drivers and applies operator commands to the gate. Returns the tally
/// and whether the campaign was stopped.
fn writer_loop(
    rx: crossbeam::channel::Receiver<Finished>,
    mut sink: Sink<'_>,
    controller: Option<&Controller>,
    gate: &Gate,
    abort: &AtomicBool,
) -> Result<(Tally, bool)> {
    let never = crossbeam::channel::never::<Command>();
    let mut commands = controller.map_or_else(|| never.clone(), |c| c.command_receiver().clone());
    let mut error = None;
    loop {
        // Commands are listed first: `select!` polls its arms in order
        // here, so a stop or pause is applied before the next queued row
        // instead of waiting behind the whole backlog.
        crossbeam::channel::select! {
            recv(commands) -> cmd => match (cmd, controller) {
                (Ok(cmd), Some(ctl)) => gate.command(cmd, ctl),
                _ => {
                    // Operator handle vanished: a campaign must not stay
                    // paused (or poll a dead channel) because its progress
                    // window closed.
                    let mut state = gate.state.lock();
                    if *state == GateState::Paused {
                        *state = GateState::Running;
                        gate.cv.notify_all();
                    }
                    commands = never.clone();
                }
            },
            recv(rx) -> msg => match msg {
                Ok((index, row, done)) => {
                    gate.row_taken();
                    if error.is_none() {
                        if let Err(e) = sink.accept(index, row, done) {
                            error = Some(e);
                            abort.store(true, Ordering::Relaxed);
                        }
                    }
                }
                // All drivers are done.
                Err(_) => break,
            },
        }
    }
    match error {
        Some(e) => Err(e),
        None => sink.close().map(|tally| (tally, gate.stopped())),
    }
}

/// The work-stealing pool: one driver thread per executor runs the
/// executor loop, claiming chunks off a shared atomic cursor, while the
/// writer thread owns the [`Sink`] and honours pause/stop. With telemetry
/// enabled, every driver (and the writer) installs the recorder dispatch
/// and reports scheduler gauges: experiments executed, chunk claims
/// beyond the first ("steals" relative to a one-shot static partition),
/// busy and idle time.
fn run_pool(
    work: &Work,
    executors: &mut [Box<dyn ChunkExecutor + '_>],
    sink: Sink<'_>,
    controller: Option<&Controller>,
    telemetry: Option<&Telemetry>,
) -> Result<(Tally, bool)> {
    // Commands already pending apply before any driver spawns, so that
    // stop or pause before the start is as deterministic as inline.
    // One round of chunks: enough that a driver never waits on a writer
    // that keeps up, small enough to keep stop and pause prompt.
    let gate = Gate::new(work.chunk * executors.len());
    if let Some(ctl) = controller {
        while let Ok(cmd) = ctl.command_receiver().try_recv() {
            gate.command(cmd, ctl);
        }
    }
    let abort = AtomicBool::new(false);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = crossbeam::channel::unbounded::<Finished>();

    std::thread::scope(|scope| {
        let (gate, abort, cursor) = (&gate, &abort, &cursor);

        let writer = scope.spawn(move || {
            // Store logging happens here, so journal/store spans are only
            // visible if this thread carries the dispatch too.
            let _tguard = telemetry.map(|t| tracing::set_default(&t.dispatch));
            let _stop = StopOnUnwind(gate);
            writer_loop(rx, sink, controller, gate, abort)
        });

        let handles: Vec<_> = executors
            .iter_mut()
            .enumerate()
            .map(|(w, executor)| {
                let tx = tx.clone();
                scope.spawn(move || -> Result<()> {
                    let _tguard = telemetry.map(|t| tracing::set_default(&t.dispatch));
                    let mut gauges = WorkerTelemetry {
                        worker: w,
                        ..WorkerTelemetry::default()
                    };
                    let claim = || {
                        let admitted = !abort.load(Ordering::Relaxed) && gate.admit();
                        Ok(admitted.then(|| cursor.fetch_add(work.chunk, Ordering::Relaxed)))
                    };
                    let emit = |i, done| {
                        gate.row_sent();
                        let _ = tx.send((i, work.row(i, &done), done));
                        Ok(())
                    };
                    let claims = work
                        .drive(executor.as_mut(), &mut gauges, claim, emit)
                        .inspect_err(|_| abort.store(true, Ordering::Relaxed))?;
                    if let Some(t) = telemetry {
                        gauges.steals = claims.saturating_sub(1);
                        t.recorder.record_worker(gauges);
                    }
                    Ok(())
                })
            })
            .collect();
        drop(tx); // the writer exits once every driver is gone

        let joined: Vec<Result<()>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect();
        let outcome = writer
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        joined.into_iter().collect::<Result<()>>().and(outcome)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Technique;
    use crate::fault::{FaultModel, LocationSelector};
    use crate::preinject::LivenessAnalysis;
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
    fn gate_holds_drivers_while_the_writer_backlog_is_over_its_bound() {
        let gate = Gate::new(2);
        for _ in 0..3 {
            gate.row_sent();
        }
        let taken = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                taken.store(true, Ordering::SeqCst);
                gate.row_taken();
            });
            // Over the bound, admission waits for the writer to take a row.
            assert!(gate.admit());
            assert!(
                taken.load(Ordering::SeqCst),
                "admitted over the backlog bound"
            );
        });
    }

    #[test]
    fn unwinding_writer_stops_the_gate() {
        let gate = Gate::new(0);
        gate.row_sent();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _stop = StopOnUnwind(&gate);
            std::panic::resume_unwind(Box::new("writer died"));
        }));
        assert!(unwound.is_err());
        assert!(!gate.admit(), "a driver must not wait on a dead writer");
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
    fn mini_target_dead_window_matches_its_trace() {
        let mut t = MiniTarget::new();
        let analysis = t.static_analysis(20).unwrap();
        let liveness = LivenessAnalysis::from_trace(&t.collect_trace().unwrap());
        for time in 0..=20 {
            assert_eq!(
                analysis.is_dead("R0", time),
                liveness.is_dead("R0", time),
                "R0 at {time}"
            );
        }
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
            seq_store.to_database().unwrap().to_json().unwrap(),
            par_store.to_database().unwrap().to_json().unwrap(),
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
            let stopped = stop_after_five(&c, workers, RunOptions::new(), &mut store);
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

    /// Runs `c` into `store` on held targets and stops it from an operator
    /// thread once five experiments are done.
    fn stop_after_five(
        c: &Campaign,
        workers: usize,
        options: RunOptions,
        store: &mut GoofiStore,
    ) -> CampaignResult {
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
        let stopped = CampaignRunner::from_factory(held, c)
            .workers(workers)
            .options(options)
            .store(store)
            .observer(&ctl)
            .run()
            .unwrap();
        drop(ctl);
        operator.join().unwrap();
        stopped
    }

    #[test]
    fn sink_statistics_match_from_runs() {
        // Trace pruning decides the dead window [6,9]; class execution
        // groups R0's equivalence windows; a stop then leaves rows that
        // the resume reloads. The sink's running classification must equal
        // classifying the result's runs afresh in every case.
        let mut c = campaign(60, (0, 19));
        c.pre_injection_analysis = true;
        let from_runs = |r: &CampaignResult| CampaignStats::from_runs(&r.reference, &r.runs);
        for class_execution in [false, true] {
            let options = RunOptions::new().class_execution(class_execution);
            for workers in [1usize, 4] {
                let runner = || {
                    CampaignRunner::from_factory(mini_factory, &c)
                        .workers(workers)
                        .options(options)
                };
                let full = runner().run().unwrap();
                assert_eq!(full.stats, from_runs(&full));
                assert!(full.stats.pruned > 0, "the dead window is pruned");
                let fanned = full.static_analysis.map(|a| a.class_savings().1);
                assert_eq!(fanned > Some(0), class_execution, "members fanned out");

                let mut store = store_for(&c);
                let stopped = stop_after_five(&c, workers, options, &mut store);
                assert_eq!(stopped.stats, from_runs(&stopped));
                let resumed = runner().resume_from(&mut store).run().unwrap();
                assert_eq!(resumed.runs.len(), 60);
                assert_eq!(resumed.stats, from_runs(&resumed), "{workers} worker(s)");
            }
        }
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
            .log_experiment(&ExperimentRecord::from_run(
                reference_experiment_name(&c.name),
                &c.name,
                &full.reference,
            ))
            .unwrap();
        for (i, run) in full.runs.iter().take(10).enumerate() {
            store
                .log_experiment(&ExperimentRecord::from_run(
                    logged_experiment_name(&c.name, i),
                    &c.name,
                    run,
                ))
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
            plain_store.to_database().unwrap().to_json().unwrap(),
            tel_store.to_database().unwrap().to_json().unwrap()
        );
    }
}
