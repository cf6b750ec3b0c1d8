//! The transport-agnostic campaign service.
//!
//! The paper drives GOOFI interactively: one operator, one GUI, one
//! campaign. This module is the step from tool to *service* — a single
//! [`CampaignService`] trait (submit / status / watch / cancel, with
//! resume riding [`JobSpec::resume`]) that every execution backend
//! implements:
//!
//! * [`LocalService`] — runs each job through [`CampaignRunner`]
//!   in-process: `goofi run` and `goofi resume` go through it.
//! * `ProcessService` (in `goofi-server`) — a `LocalService` whose
//!   [`Launcher`] runs each job's chunks on `goofi worker` processes.
//! * `RemoteService` (in `goofi-net`) — speaks the wire protocol to a
//!   `goofi-server` daemon: `goofi submit` / `watch` / `attach` /
//!   `cancel` go through it.
//!
//! All three share one event vocabulary ([`ServiceEvent`]) and one job
//! bookkeeping structure ([`JobRegistry`]), so a progress renderer
//! written against the trait works identically for a campaign running in
//! the same process, in worker processes on the same machine, or behind
//! a socket.

use crate::analysis::CampaignStats;
use crate::campaign::Campaign;
use crate::error::{GoofiError, Result};
use crate::progress::{Command, Controller};
use crate::runner::{CampaignRunner, ChunkExecutor, RunOptions};
use crate::staticanalysis::Pruning;
use crate::store::GoofiStore;
use crate::target::TargetSystemInterface;
use crossbeam::channel::{unbounded, Receiver, Sender};
use goofi_telemetry::{CampaignTelemetry, TelemetryMode};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Job identifier, unique within one service instance.
pub type JobId = String;

/// Execution options for a submitted campaign: the serializable mirror
/// of [`RunOptions`] plus the worker count, so a whole execution request
/// can ship over the wire protocol unchanged.
///
/// `workers` means threads for [`LocalService`]; a service with a
/// [`Launcher`] (the server) sizes its executor pool itself.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecOptions {
    /// Worker threads (ignored by a service with a [`Launcher`]).
    pub workers: usize,
    /// Build the injection-time checkpoint cache (default `true`).
    pub checkpoint: bool,
    /// Telemetry recording mode (default off).
    pub telemetry: TelemetryMode,
    /// Pre-injection pruning mode (default: as the campaign asks).
    pub pruning: Pruning,
    /// Equivalence-class execution (default off). Rows are
    /// byte-identical either way.
    pub class_execution: bool,
    /// Static verdict prediction: synthesise the rows of faults the
    /// propagation analysis proved wash out (default off; requires
    /// pruning in effect). Rows are byte-identical either way. Defaults via
    /// serde so pre-existing wire peers interoperate.
    #[serde(default)]
    pub prediction: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            workers: 1,
            checkpoint: true,
            telemetry: TelemetryMode::Off,
            pruning: Pruning::default(),
            class_execution: false,
            prediction: false,
        }
    }
}

impl ExecOptions {
    /// The default options (one worker, checkpointing on, telemetry off,
    /// pruning as the campaign asks, class execution off).
    pub fn new() -> ExecOptions {
        ExecOptions::default()
    }

    /// Sets the worker count.
    pub fn workers(mut self, workers: usize) -> ExecOptions {
        self.workers = workers;
        self
    }

    /// Sets whether the checkpoint cache is built.
    pub fn checkpoint(mut self, on: bool) -> ExecOptions {
        self.checkpoint = on;
        self
    }

    /// Sets the telemetry mode.
    pub fn telemetry(mut self, mode: TelemetryMode) -> ExecOptions {
        self.telemetry = mode;
        self
    }

    /// Sets the pruning mode.
    pub fn pruning(mut self, pruning: Pruning) -> ExecOptions {
        self.pruning = pruning;
        self
    }

    /// Sets equivalence-class execution.
    pub fn class_execution(mut self, on: bool) -> ExecOptions {
        self.class_execution = on;
        self
    }

    /// Sets static verdict prediction.
    pub fn prediction(mut self, on: bool) -> ExecOptions {
        self.prediction = on;
        self
    }

    /// The equivalent runner options.
    pub fn run_options(&self) -> RunOptions {
        RunOptions::new()
            .checkpoint(self.checkpoint)
            .telemetry(self.telemetry)
            .pruning(self.pruning)
            .class_execution(self.class_execution)
            .prediction(self.prediction)
    }
}

/// How a submission names its campaign.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CampaignRef {
    /// A campaign already stored in the service's database (`goofi
    /// setup` ran against it).
    Name(String),
    /// A full campaign definition carried with the submission; stored on
    /// arrival if absent.
    Inline(Campaign),
}

impl CampaignRef {
    /// The campaign name either way.
    pub fn name(&self) -> &str {
        match self {
            CampaignRef::Name(name) => name,
            CampaignRef::Inline(c) => &c.name,
        }
    }
}

/// A campaign submission: what to run and how.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// The campaign to execute.
    pub campaign: CampaignRef,
    /// Execution options.
    pub options: ExecOptions,
    /// Resume: reuse stored experiment rows, run only the missing ones.
    pub resume: bool,
}

impl JobSpec {
    /// A new submission with default options.
    pub fn new(campaign: CampaignRef) -> JobSpec {
        JobSpec {
            campaign,
            options: ExecOptions::default(),
            resume: false,
        }
    }

    /// Sets the execution options.
    pub fn options(mut self, options: ExecOptions) -> JobSpec {
        self.options = options;
        self
    }

    /// Sets resume mode.
    pub fn resume(mut self, resume: bool) -> JobSpec {
        self.resume = resume;
        self
    }
}

/// Equivalence-class execution savings, for the run summary line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassSavings {
    /// Executed class representatives.
    pub representatives: usize,
    /// Experiments whose rows were fanned out from a representative.
    pub fanned: usize,
}

/// Everything a finished job reports — enough for a client to render the
/// same summary `goofi run` prints, without shipping every row.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSummary {
    /// Campaign name.
    pub campaign: String,
    /// Worker count the job ran with.
    pub workers: usize,
    /// Experiments in the result (completed prefix if stopped early).
    pub experiments: usize,
    /// Experiments skipped by pre-injection analysis.
    pub pruned: usize,
    /// Experiments whose verdicts the propagation analysis predicted
    /// without execution (absent on the wire from older servers).
    #[serde(default)]
    pub predicted: usize,
    /// Classification statistics.
    pub stats: CampaignStats,
    /// Class-execution savings, when the run fanned anything out.
    pub class_savings: Option<ClassSavings>,
    /// Telemetry rollup, when recording was enabled.
    pub telemetry: Option<CampaignTelemetry>,
}

impl JobSummary {
    /// An empty summary skeleton — callers fill the public fields
    /// ([`CampaignRunner::run_summary`], tests).
    pub fn new(campaign: impl Into<String>, workers: usize) -> JobSummary {
        JobSummary {
            campaign: campaign.into(),
            workers,
            experiments: 0,
            pruned: 0,
            predicted: 0,
            stats: CampaignStats::default(),
            class_savings: None,
            telemetry: None,
        }
    }
}

/// Job lifecycle, as reported by [`CampaignService::status`].
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobStatus {
    /// Accepted, not yet started.
    Queued,
    /// Executing.
    Running {
        /// Experiments finished so far.
        completed: usize,
        /// Planned total.
        total: usize,
    },
    /// Finished successfully.
    Done {
        /// The job summary (boxed: much larger than the other arms).
        summary: Box<JobSummary>,
    },
    /// Aborted with an error.
    Failed {
        /// The error text.
        error: String,
    },
    /// Stopped by the operator; the completed prefix is stored.
    Cancelled {
        /// Experiments completed before the stop.
        completed: usize,
    },
}

impl JobStatus {
    /// Whether the job can make no further progress.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Done { .. } | JobStatus::Failed { .. } | JobStatus::Cancelled { .. }
        )
    }
}

/// The shared event vocabulary: the Fig. 7 progress events plus the
/// service lifecycle around them. Local and remote execution emit the
/// same stream, so one renderer serves both.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceEvent {
    /// The job was accepted.
    Queued {
        /// Assigned job id.
        job: JobId,
        /// Campaign name.
        campaign: String,
    },
    /// Execution began; `total` experiments planned.
    Started {
        /// Campaign name.
        campaign: String,
        /// Planned experiments.
        total: usize,
    },
    /// One experiment finished.
    Progress {
        /// Experiments finished so far.
        completed: usize,
        /// Planned total.
        total: usize,
        /// Whether pre-injection analysis skipped the physical run.
        pruned: bool,
    },
    /// The campaign acknowledged a pause.
    Paused,
    /// The campaign resumed.
    Resumed,
    /// The server spawned a worker process (multi-process engine only).
    WorkerSpawned {
        /// Worker slot index.
        worker: usize,
        /// Operating-system process id.
        pid: u32,
    },
    /// A worker process died; its outstanding chunk was re-issued.
    WorkerLost {
        /// Worker slot index.
        worker: usize,
        /// Experiments re-issued to the remaining pool.
        reissued: usize,
    },
    /// Execution ended (all experiments, or stopped early).
    Finished {
        /// Experiments completed.
        completed: usize,
        /// `true` if the operator stopped the campaign.
        stopped: bool,
    },
    /// The job is done and its results are durable.
    Completed {
        /// The job summary (boxed: much larger than the other arms).
        summary: Box<JobSummary>,
    },
    /// The job aborted.
    Failed {
        /// The error text.
        error: String,
    },
}

impl ServiceEvent {
    /// Whether this event ends the job's event stream.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            ServiceEvent::Completed { .. } | ServiceEvent::Failed { .. }
        )
    }
}

/// A blocking stream of [`ServiceEvent`]s for one job. Iteration ends
/// after the terminal event ([`ServiceEvent::is_terminal`]) or when the
/// source runs dry (the producer went away). Each event is read on the
/// thread that iterates the stream.
pub struct EventStream {
    events: Box<dyn Iterator<Item = ServiceEvent> + Send>,
    done: bool,
}

impl EventStream {
    /// A stream over `events` (a remote watch's socket reader, say).
    pub fn new(events: impl Iterator<Item = ServiceEvent> + Send + 'static) -> EventStream {
        EventStream {
            events: Box::new(events),
            done: false,
        }
    }

    /// A stream reading from `rx` until a terminal event or disconnect.
    pub fn from_receiver(rx: Receiver<ServiceEvent>) -> EventStream {
        EventStream::new(std::iter::from_fn(move || rx.recv().ok()))
    }
}

impl Iterator for EventStream {
    type Item = ServiceEvent;

    fn next(&mut self) -> Option<ServiceEvent> {
        if self.done {
            return None;
        }
        let ev = self.events.next();
        self.done = ev.as_ref().is_none_or(ServiceEvent::is_terminal);
        ev
    }
}

/// A consumer of job events — the CLI's progress renderer, a log file, a
/// test recorder. [`drain`] pumps an [`EventStream`] through one.
pub trait EventSink {
    /// Called once per event, in order.
    fn event(&mut self, ev: &ServiceEvent);
}

/// Pumps a job's event stream into `sink` until the job ends.
///
/// # Errors
///
/// [`GoofiError::Service`] with the job's own error text when the job
/// failed; [`GoofiError::Protocol`] when the stream ended without a
/// terminal event (a vanished server or killed local thread).
pub fn drain(stream: EventStream, sink: &mut dyn EventSink) -> Result<JobSummary> {
    let mut outcome = None;
    for ev in stream {
        sink.event(&ev);
        match ev {
            ServiceEvent::Completed { summary } => outcome = Some(Ok(*summary)),
            ServiceEvent::Failed { error } => outcome = Some(Err(GoofiError::Service(error))),
            _ => {}
        }
    }
    outcome.unwrap_or_else(|| {
        Err(GoofiError::Protocol(
            "event stream ended before the job finished".into(),
        ))
    })
}

/// The transport-agnostic campaign service: one API whether the campaign
/// runs in-process, in worker processes, or behind a socket. Resume is a
/// submission mode ([`JobSpec::resume`]), not a separate verb.
pub trait CampaignService {
    /// Submits a campaign; returns the job id. Campaign resolution
    /// errors (unknown name, unknown workload) surface here, execution
    /// errors through the event stream.
    fn submit(&mut self, spec: JobSpec) -> Result<JobId>;

    /// The job's current status.
    fn status(&mut self, job: &str) -> Result<JobStatus>;

    /// The job's event stream: from the beginning (`from_start`, the
    /// `watch` verb — buffered events replay first) or only from now
    /// (the `attach` verb).
    fn watch(&mut self, job: &str, from_start: bool) -> Result<EventStream>;

    /// Asks the job to stop at the next experiment boundary. `false`
    /// when the job had already finished.
    fn cancel(&mut self, job: &str) -> Result<bool>;

    /// All known jobs with their statuses, in submission order.
    fn jobs(&mut self) -> Result<Vec<(JobId, JobStatus)>>;
}

// ----------------------------------------------------------------------
// Job registry
// ----------------------------------------------------------------------

/// `mutex`'s guard, also after a thread panicked holding it. Each
/// critical section here leaves the map whole at every step, and a job
/// that panicked must not take the status of every other job down with
/// it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct JobEntry {
    status: JobStatus,
    events: Vec<ServiceEvent>,
    subscribers: Vec<Sender<ServiceEvent>>,
}

/// Shared job bookkeeping for service implementations: per-job status,
/// a full event replay buffer (so `watch` sees history) and live
/// subscriber fan-out (so `attach` follows along). [`LocalService`] and
/// the server's process engine both build on it.
#[derive(Default)]
pub struct JobRegistry {
    jobs: Mutex<HashMap<JobId, JobEntry>>,
    order: Mutex<Vec<JobId>>,
    next: AtomicU64,
}

impl JobRegistry {
    /// An empty registry.
    pub fn new() -> JobRegistry {
        JobRegistry::default()
    }

    /// Registers a new queued job and emits its `Queued` event.
    pub fn create(&self, campaign: &str) -> JobId {
        let id = format!("job-{:04}", self.next.fetch_add(1, Ordering::Relaxed) + 1);
        lock(&self.jobs).insert(
            id.clone(),
            JobEntry {
                status: JobStatus::Queued,
                events: Vec::new(),
                subscribers: Vec::new(),
            },
        );
        lock(&self.order).push(id.clone());
        self.emit(
            &id,
            ServiceEvent::Queued {
                job: id.clone(),
                campaign: campaign.to_owned(),
            },
        );
        id
    }

    /// Appends an event to the job's buffer, updates its status and fans
    /// the event out to live subscribers. Unknown jobs are ignored.
    pub fn emit(&self, job: &str, ev: ServiceEvent) {
        let mut jobs = lock(&self.jobs);
        let Some(entry) = jobs.get_mut(job) else {
            return;
        };
        match &ev {
            ServiceEvent::Started { total, .. } => {
                entry.status = JobStatus::Running {
                    completed: 0,
                    total: *total,
                };
            }
            ServiceEvent::Progress {
                completed, total, ..
            } => {
                entry.status = JobStatus::Running {
                    completed: *completed,
                    total: *total,
                };
            }
            ServiceEvent::Finished {
                completed,
                stopped: true,
            } => {
                entry.status = JobStatus::Cancelled {
                    completed: *completed,
                };
            }
            // A stopped job keeps its Cancelled status even though the
            // completed prefix still produces a summary.
            ServiceEvent::Completed { summary }
                if !matches!(entry.status, JobStatus::Cancelled { .. }) =>
            {
                entry.status = JobStatus::Done {
                    summary: summary.clone(),
                };
            }
            ServiceEvent::Failed { error } => {
                entry.status = JobStatus::Failed {
                    error: error.clone(),
                };
            }
            _ => {}
        }
        entry.subscribers.retain(|tx| tx.send(ev.clone()).is_ok());
        if ev.is_terminal() {
            entry.subscribers.clear();
        }
        entry.events.push(ev);
    }

    /// The job's status, if known.
    pub fn status(&self, job: &str) -> Option<JobStatus> {
        lock(&self.jobs).get(job).map(|e| e.status.clone())
    }

    /// Subscribes to the job's events — replaying history first when
    /// `from_start` — or `None` for unknown jobs.
    pub fn subscribe(&self, job: &str, from_start: bool) -> Option<EventStream> {
        let mut jobs = lock(&self.jobs);
        let entry = jobs.get_mut(job)?;
        let (tx, rx) = unbounded();
        if from_start {
            for ev in &entry.events {
                let _ = tx.send(ev.clone());
            }
        }
        if entry.status.is_terminal() {
            if !from_start {
                // Nothing more will happen; replay at least the terminal
                // event so the stream ends cleanly instead of hanging up.
                if let Some(last) = entry.events.last() {
                    let _ = tx.send(last.clone());
                }
            }
        } else {
            entry.subscribers.push(tx);
        }
        Some(EventStream::from_receiver(rx))
    }

    /// All jobs with statuses, in submission order.
    pub fn jobs(&self) -> Vec<(JobId, JobStatus)> {
        let jobs = lock(&self.jobs);
        lock(&self.order)
            .iter()
            .filter_map(|id| jobs.get(id).map(|e| (id.clone(), e.status.clone())))
            .collect()
    }
}

// ----------------------------------------------------------------------
// LocalService
// ----------------------------------------------------------------------

/// A per-campaign target factory, boxed for thread handoff.
pub type TargetFactory = Box<dyn Fn() -> Box<dyn TargetSystemInterface> + Send + Sync>;

/// Resolves a campaign to a target factory — the service-layer
/// equivalent of the CLI's target construction (`goofi-targets`
/// provides the standard one).
pub type FactoryProvider = Arc<dyn Fn(&Campaign) -> Result<TargetFactory> + Send + Sync>;

/// Starts a job's chunk executors outside the service's threads (the
/// server's `goofi worker` processes). Without one, a [`LocalService`]
/// runs each job on targets from its factory.
pub trait Launcher: Send + Sync {
    /// Experiment indices per chunk.
    fn chunk(&self) -> usize;

    /// Starts the executors of `job` (`campaign` with `options`) before
    /// it plans; their lifecycle events go to `registry`. An error fails
    /// the job.
    fn launch(
        &self,
        registry: &Arc<JobRegistry>,
        job: &str,
        campaign: &Campaign,
        options: &ExecOptions,
    ) -> Result<Vec<Box<dyn ChunkExecutor>>>;
}

/// [`CampaignService`] over [`CampaignRunner`]: each submitted job runs
/// on a background thread against the service's database file, with
/// journaled persistence and a final snapshot. Experiments run on the
/// factory's targets, or on the executors of a [`Launcher`].
pub struct LocalService {
    db: PathBuf,
    provider: FactoryProvider,
    launcher: Option<Arc<dyn Launcher>>,
    registry: Arc<JobRegistry>,
    /// Each job's command sender, for `cancel`.
    controls: HashMap<JobId, Sender<Command>>,
    threads: Vec<JoinHandle<()>>,
}

impl LocalService {
    /// A service over database file `db` (created on first submit if
    /// missing) building targets through `provider`.
    pub fn new(db: impl Into<PathBuf>, provider: FactoryProvider) -> LocalService {
        LocalService {
            db: db.into(),
            provider,
            launcher: None,
            registry: Arc::new(JobRegistry::new()),
            controls: HashMap::new(),
            threads: Vec::new(),
        }
    }

    /// Runs every job's chunks on the executors `launcher` starts; the
    /// provider's targets then only plan.
    pub fn launcher(mut self, launcher: Arc<dyn Launcher>) -> LocalService {
        self.launcher = Some(launcher);
        self
    }

    /// Waits for every submitted job to finish.
    pub fn join(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    fn load_store(db: &Path) -> Result<GoofiStore> {
        if db.exists() {
            GoofiStore::load(db)
        } else {
            Ok(GoofiStore::new())
        }
    }
}

impl Drop for LocalService {
    fn drop(&mut self) {
        self.join();
    }
}

impl CampaignService for LocalService {
    fn submit(&mut self, spec: JobSpec) -> Result<JobId> {
        let mut store = Self::load_store(&self.db)?;
        let campaign = match &spec.campaign {
            CampaignRef::Name(name) => store.get_campaign(name)?,
            CampaignRef::Inline(c) => c.clone(),
        };
        let factory = (self.provider)(&campaign)?;
        if let CampaignRef::Inline(c) = &spec.campaign {
            // Carried-along campaigns are stored on arrival (with their
            // target's configuration — `CampaignData` has a foreign key
            // into `TargetSystemData`).
            let mut dirty = false;
            if store.get_target(&c.target).is_err() {
                let probe = factory();
                store.put_target(&probe.describe())?;
                dirty = true;
            }
            if store.get_campaign(&c.name).is_err() {
                store.put_campaign(c)?;
                dirty = true;
            }
            if dirty {
                store.save(&self.db)?;
            }
        }
        let job = self.registry.create(&campaign.name);
        // The runner's events go straight into the registry, on the
        // thread that emits them.
        let (registry, id) = (self.registry.clone(), job.clone());
        let (controller, commands) = Controller::new(move |ev| registry.emit(&id, ev));
        self.controls.insert(job.clone(), commands);

        let registry = self.registry.clone();
        let db = self.db.clone();
        let launcher = self.launcher.clone();
        let id = job.clone();
        self.threads.push(std::thread::spawn(move || {
            run_local_job(
                &registry, &id, &db, &campaign, factory, &launcher, &spec, controller,
            );
        }));
        Ok(job)
    }

    fn status(&mut self, job: &str) -> Result<JobStatus> {
        self.registry
            .status(job)
            .ok_or_else(|| GoofiError::Service(format!("no such job `{job}`")))
    }

    fn watch(&mut self, job: &str, from_start: bool) -> Result<EventStream> {
        self.registry
            .subscribe(job, from_start)
            .ok_or_else(|| GoofiError::Service(format!("no such job `{job}`")))
    }

    fn cancel(&mut self, job: &str) -> Result<bool> {
        let commands = self
            .controls
            .get(job)
            .ok_or_else(|| GoofiError::Service(format!("no such job `{job}`")))?;
        Ok(commands.send(Command::Stop).is_ok())
    }

    fn jobs(&mut self) -> Result<Vec<(JobId, JobStatus)>> {
        Ok(self.registry.jobs())
    }
}

/// One job, on its own thread: open the store, journal, launch any
/// executors, run the campaign (its `controller` emits into the
/// registry), snapshot, and emit the terminal event.
#[allow(clippy::too_many_arguments)]
fn run_local_job(
    registry: &Arc<JobRegistry>,
    job: &str,
    db: &Path,
    campaign: &Campaign,
    factory: TargetFactory,
    launcher: &Option<Arc<dyn Launcher>>,
    spec: &JobSpec,
    controller: Controller,
) {
    let outcome = (|| -> Result<JobSummary> {
        let mut store = LocalService::load_store(db)?;
        store.enable_journal(db)?;
        let options = &spec.options;
        let mut runner = CampaignRunner::from_factory(|| factory(), campaign)
            .workers(options.workers)
            .options(options.run_options())
            .observer(&controller);
        if let Some(launcher) = launcher {
            let executors = launcher.launch(registry, job, campaign, options)?;
            runner = runner.executors(executors, launcher.chunk());
        }
        let runner = if spec.resume {
            runner.resume_from(&mut store)
        } else {
            runner.store(&mut store)
        };
        let summary = runner.run_summary()?;
        // Snapshot the full database; supersedes (and empties) the journal.
        store.save(db)?;
        Ok(summary)
    })();

    // The runner emitted `Finished` before it returned, so `Completed`
    // follows it.
    match outcome {
        Ok(summary) => registry.emit(
            job,
            ServiceEvent::Completed {
                summary: Box::new(summary),
            },
        ),
        Err(e) => registry.emit(
            job,
            ServiceEvent::Failed {
                error: e.to_string(),
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Technique;
    use crate::fault::{FaultModel, LocationSelector};

    fn mini_campaign(name: &str) -> Campaign {
        Campaign::builder(name, "mini", "count")
            .technique(Technique::Scifi)
            .select(LocationSelector::Chain {
                chain: "cpu".into(),
                field: None,
            })
            .fault_model(FaultModel::BitFlip)
            .window(0, 15)
            .experiments(12)
            .seed(3)
            .build()
            .expect("valid campaign")
    }

    fn mini_provider() -> FactoryProvider {
        Arc::new(|_c: &Campaign| {
            Ok(Box::new(|| {
                Box::new(crate::testutil::MiniTarget::new()) as Box<dyn TargetSystemInterface>
            }) as TargetFactory)
        })
    }

    struct Recorder(Vec<ServiceEvent>);
    impl EventSink for Recorder {
        fn event(&mut self, ev: &ServiceEvent) {
            self.0.push(ev.clone());
        }
    }

    #[test]
    fn local_service_runs_a_job_to_completion() {
        let dir = std::env::temp_dir().join(format!("goofi-svc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join("local-complete.db");
        let _ = std::fs::remove_file(&db);

        let mut svc = LocalService::new(&db, mini_provider());
        let spec = JobSpec::new(CampaignRef::Inline(mini_campaign("svc-c1")));
        let job = svc.submit(spec).expect("submit");
        let stream = svc.watch(&job, true).expect("watch");
        let mut sink = Recorder(Vec::new());
        let summary = drain(stream, &mut sink).expect("job completes");
        assert_eq!(summary.campaign, "svc-c1");
        assert_eq!(summary.experiments, 12);
        assert!(matches!(svc.status(&job).unwrap(), JobStatus::Done { .. }));
        assert!(matches!(sink.0.first(), Some(ServiceEvent::Queued { .. })));
        assert!(sink
            .0
            .iter()
            .any(|e| matches!(e, ServiceEvent::Started { total: 12, .. })));
        assert!(matches!(
            sink.0.last(),
            Some(ServiceEvent::Completed { .. })
        ));

        // The DB is durable: a second service resumes to the same state.
        let store = GoofiStore::load(&db).expect("saved db loads");
        assert_eq!(store.experiments_of("svc-c1").unwrap().len(), 12 + 1);
        let _ = std::fs::remove_file(&db);
    }

    #[test]
    fn watch_from_the_start_yields_the_whole_job_in_order() {
        let dir = std::env::temp_dir().join(format!("goofi-svc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join("local-sequence.db");
        let _ = std::fs::remove_file(&db);

        let mut svc = LocalService::new(&db, mini_provider());
        let job = svc
            .submit(JobSpec::new(CampaignRef::Inline(mini_campaign("svc-c4"))))
            .unwrap();
        let events: Vec<_> = svc.watch(&job, true).unwrap().collect();
        assert_eq!(events.len(), 1 + 1 + 12 + 1 + 1, "{events:?}");
        assert_eq!(
            events[0],
            ServiceEvent::Queued {
                job: job.clone(),
                campaign: "svc-c4".into()
            }
        );
        assert_eq!(
            events[1],
            ServiceEvent::Started {
                campaign: "svc-c4".into(),
                total: 12
            }
        );
        for (k, ev) in events[2..14].iter().enumerate() {
            assert!(
                matches!(ev, ServiceEvent::Progress { completed, total: 12, .. } if *completed == k + 1),
                "event {}: {ev:?}",
                k + 2
            );
        }
        assert_eq!(
            events[14],
            ServiceEvent::Finished {
                completed: 12,
                stopped: false
            }
        );
        assert!(
            matches!(&events[15], ServiceEvent::Completed { summary } if summary.experiments == 12),
            "{:?}",
            events[15]
        );
        let _ = std::fs::remove_file(&db);
    }

    #[test]
    fn unknown_campaign_fails_at_submit() {
        let dir = std::env::temp_dir().join(format!("goofi-svc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join("local-unknown.db");
        let _ = std::fs::remove_file(&db);
        let mut svc = LocalService::new(&db, mini_provider());
        let err = svc
            .submit(JobSpec::new(CampaignRef::Name("nope".into())))
            .unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn watch_after_completion_replays_history() {
        let dir = std::env::temp_dir().join(format!("goofi-svc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join("local-replay.db");
        let _ = std::fs::remove_file(&db);
        let mut svc = LocalService::new(&db, mini_provider());
        let job = svc
            .submit(JobSpec::new(CampaignRef::Inline(mini_campaign("svc-c2"))))
            .unwrap();
        svc.join();
        let events: Vec<_> = svc.watch(&job, true).unwrap().collect();
        assert!(matches!(events.first(), Some(ServiceEvent::Queued { .. })));
        assert!(matches!(
            events.last(),
            Some(ServiceEvent::Completed { .. })
        ));
        // attach after the end: just the terminal event.
        let tail: Vec<_> = svc.watch(&job, false).unwrap().collect();
        assert_eq!(tail.len(), 1);
        assert!(matches!(tail.first(), Some(ServiceEvent::Completed { .. })));
        let _ = std::fs::remove_file(&db);
    }

    #[test]
    fn cancel_stops_a_running_job() {
        let dir = std::env::temp_dir().join(format!("goofi-svc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join("local-cancel.db");
        let _ = std::fs::remove_file(&db);
        let mut svc = LocalService::new(&db, mini_provider());
        let campaign = Campaign::builder("svc-c3", "mini", "count")
            .technique(Technique::Scifi)
            .select(LocationSelector::Chain {
                chain: "cpu".into(),
                field: None,
            })
            .fault_model(FaultModel::BitFlip)
            .window(0, 15)
            .experiments(2000)
            .seed(3)
            .build()
            .unwrap();
        let job = svc
            .submit(JobSpec::new(CampaignRef::Inline(campaign)))
            .unwrap();
        // The stop command queues immediately; the runner honours it at
        // the first experiment boundary it reaches.
        svc.cancel(&job).unwrap();
        svc.join();
        assert!(matches!(
            svc.status(&job).unwrap(),
            JobStatus::Cancelled { .. }
        ));
        let _ = std::fs::remove_file(&db);
    }
}
