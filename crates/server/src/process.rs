//! [`ProcessService`] — the multi-process campaign engine.
//!
//! Each submitted job farms its fault list out to `goofi worker` child
//! processes over [`WorkerRequest`] / [`WorkerResponse`] pipes. Every
//! worker derives the identical seeded plan, so the daemon only has to
//! stream finished rows through an index-ordered reorder buffer to
//! produce a database byte-identical to a single-process run — and a
//! worker lost to a crash (or a `kill -9` drill) simply has its
//! outstanding chunk re-issued to the surviving pool.

use goofi_core::service::{
    CampaignRef, CampaignService, EventStream, JobId, JobRegistry, JobSpec, JobStatus, JobSummary,
    ServiceEvent,
};
use goofi_core::store::GoofiStore;
use goofi_core::{
    analyze_campaign, logged_experiment_name, Campaign, ExecOptions, GoofiError, Result,
};
use goofi_net::{read_frame, write_frame, IndexedRecord, NetError, WorkerRequest, WorkerResponse};
use goofi_targets::standard_factory;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Daemon configuration: where the database lives and how the worker
/// pool is built.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The database file all jobs share.
    pub db: PathBuf,
    /// Worker processes per job.
    pub workers: usize,
    /// Command line that starts one worker (`["goofi", "worker"]`; tests
    /// use their own binary with a sentinel argument).
    pub worker_cmd: Vec<String>,
    /// Experiment indices per chunk. Small chunks lose little work to a
    /// crash; large chunks amortise the pipe round trip.
    pub chunk: usize,
    /// Replacement workers a single job may spawn after crashes before
    /// the job fails.
    pub max_respawns: usize,
}

impl ServerConfig {
    /// A configuration with default pool sizing (2 workers, 16-index
    /// chunks, 8 respawns).
    pub fn new(db: impl Into<PathBuf>, worker_cmd: Vec<String>) -> ServerConfig {
        ServerConfig {
            db: db.into(),
            workers: 2,
            worker_cmd,
            chunk: 16,
            max_respawns: 8,
        }
    }

    /// Sets the worker-pool size.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> ServerConfig {
        self.workers = workers.max(1);
        self
    }

    /// Sets the chunk size.
    #[must_use]
    pub fn chunk(mut self, chunk: usize) -> ServerConfig {
        self.chunk = chunk.max(1);
        self
    }

    /// Sets the crash-respawn budget.
    #[must_use]
    pub fn max_respawns(mut self, max_respawns: usize) -> ServerConfig {
        self.max_respawns = max_respawns;
        self
    }
}

/// [`CampaignService`] over a pool of worker processes. Submissions run
/// on background threads; telemetry recording is not propagated to
/// workers (the rollup tables stay per-process).
pub struct ProcessService {
    config: ServerConfig,
    registry: Arc<JobRegistry>,
    cancels: Arc<Mutex<HashMap<JobId, Arc<AtomicBool>>>>,
    threads: Vec<JoinHandle<()>>,
}

impl ProcessService {
    /// A service executing jobs per `config`.
    pub fn new(config: ServerConfig) -> ProcessService {
        ProcessService {
            config,
            registry: Arc::new(JobRegistry::new()),
            cancels: Arc::new(Mutex::new(HashMap::new())),
            threads: Vec::new(),
        }
    }

    /// The shared registry.
    pub fn registry(&self) -> Arc<JobRegistry> {
        self.registry.clone()
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

impl Drop for ProcessService {
    fn drop(&mut self) {
        self.join();
    }
}

impl CampaignService for ProcessService {
    fn submit(&mut self, spec: JobSpec) -> Result<JobId> {
        let mut store = Self::load_store(&self.config.db)?;
        let campaign = match &spec.campaign {
            CampaignRef::Name(name) => store.get_campaign(name)?,
            CampaignRef::Inline(c) => c.clone(),
            other => {
                return Err(GoofiError::Service(format!(
                    "unsupported campaign reference {other:?}"
                )))
            }
        };
        // Validate eagerly: unknown workloads are a submit error, not a
        // mid-job event. The probe also supplies the target config an
        // inline campaign's foreign key needs.
        let factory = standard_factory(&campaign)?;
        if let CampaignRef::Inline(c) = &spec.campaign {
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
                store.save(&self.config.db)?;
            }
        }
        let job = self.registry.create(&campaign.name);
        let cancel = Arc::new(AtomicBool::new(false));
        self.cancels
            .lock()
            .unwrap()
            .insert(job.clone(), cancel.clone());

        let registry = self.registry.clone();
        let config = self.config.clone();
        let id = job.clone();
        let options = spec.options.clone();
        let resume = spec.resume;
        self.threads.push(std::thread::spawn(move || {
            let outcome = run_process_job(
                &registry, &id, &config, &campaign, &options, resume, &cancel,
            );
            match outcome {
                Ok(summary) => registry.emit(
                    &id,
                    ServiceEvent::Completed {
                        summary: Box::new(summary),
                    },
                ),
                Err(e) => registry.emit(
                    &id,
                    ServiceEvent::Failed {
                        error: e.to_string(),
                    },
                ),
            }
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
        let cancels = self.cancels.lock().unwrap();
        let flag = cancels
            .get(job)
            .ok_or_else(|| GoofiError::Service(format!("no such job `{job}`")))?;
        let running = !self.registry.status(job).is_some_and(|s| s.is_terminal());
        flag.store(true, Ordering::Relaxed);
        Ok(running)
    }

    fn jobs(&mut self) -> Result<Vec<(JobId, JobStatus)>> {
        Ok(self.registry.jobs())
    }
}

// ----------------------------------------------------------------------
// The worker pool
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Chunk {
    id: u64,
    indices: Vec<usize>,
}

/// Everything the pool learns from a worker's `Ready`.
struct ReadyInfo {
    experiments: usize,
    reference: goofi_core::store::ExperimentRecord,
    prunable: Vec<bool>,
    predicted: Vec<bool>,
    static_analysis: Option<goofi_core::StaticAnalysis>,
}

enum PoolMsg {
    Ready {
        worker: usize,
        pid: u32,
        info: Box<ReadyInfo>,
    },
    Rows {
        rows: Vec<IndexedRecord>,
    },
    /// The worker process died (crash or kill); `lost` is the chunk it
    /// was executing, to be re-issued.
    Died {
        worker: usize,
        lost: Option<Chunk>,
    },
    /// The worker reported a campaign-level failure; the job aborts.
    Broken {
        error: String,
    },
}

type ChunkQueue = Arc<Mutex<VecDeque<Chunk>>>;

fn spawn_child(cmd: &[String]) -> Result<Child> {
    if cmd.is_empty() {
        return Err(GoofiError::Service("empty worker command".into()));
    }
    Command::new(&cmd[0])
        .args(&cmd[1..])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| GoofiError::Service(format!("cannot spawn worker `{}`: {e}", cmd[0])))
}

/// One worker's driver thread: init handshake, then pull chunks from the
/// shared queue until it drains. Any pipe failure is reported as a death
/// with the in-flight chunk attached.
fn drive_worker(
    worker: usize,
    mut child: Child,
    campaign: Campaign,
    options: ExecOptions,
    queue: ChunkQueue,
    results: crossbeam::channel::Sender<PoolMsg>,
    cancel: Arc<AtomicBool>,
) {
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let died = |lost: Option<Chunk>| PoolMsg::Died { worker, lost };

    // Init handshake.
    let init = WorkerRequest::Init { campaign, options };
    let ready = init
        .to_frame()
        .map_err(GoofiError::from_net)
        .and_then(|f| write_frame(&mut stdin, &f).map_err(GoofiError::from_net))
        .and_then(|()| read_frame(&mut stdout).map_err(GoofiError::from_net))
        .and_then(|f| WorkerResponse::from_frame(&f).map_err(GoofiError::from_net));
    match ready {
        Ok(WorkerResponse::Ready {
            pid,
            experiments,
            reference,
            prunable,
            predicted,
            static_analysis,
        }) => {
            let _ = results.send(PoolMsg::Ready {
                worker,
                pid,
                info: Box::new(ReadyInfo {
                    experiments,
                    reference: *reference,
                    prunable,
                    predicted,
                    static_analysis: static_analysis.map(|a| *a),
                }),
            });
        }
        Ok(WorkerResponse::Failed { error }) => {
            let _ = results.send(PoolMsg::Broken { error });
            let _ = child.wait();
            return;
        }
        Ok(_) | Err(_) => {
            let _ = results.send(died(None));
            let _ = child.kill();
            let _ = child.wait();
            return;
        }
    }

    // Chunk loop.
    loop {
        if cancel.load(Ordering::Relaxed) {
            break;
        }
        let Some(chunk) = queue.lock().unwrap().pop_front() else {
            break;
        };
        let req = WorkerRequest::RunChunk {
            id: chunk.id,
            indices: chunk.indices.clone(),
        };
        let reply = req
            .to_frame()
            .map_err(GoofiError::from_net)
            .and_then(|f| write_frame(&mut stdin, &f).map_err(GoofiError::from_net))
            .and_then(|()| read_frame(&mut stdout).map_err(GoofiError::from_net))
            .and_then(|f| WorkerResponse::from_frame(&f).map_err(GoofiError::from_net));
        match reply {
            Ok(WorkerResponse::ChunkDone { rows, .. }) => {
                if results.send(PoolMsg::Rows { rows }).is_err() {
                    break;
                }
            }
            Ok(WorkerResponse::Failed { error }) => {
                let _ = results.send(PoolMsg::Broken { error });
                break;
            }
            Ok(_) | Err(_) => {
                // The pipe broke mid-chunk: the process is gone (kill -9,
                // OOM, crash). Hand the chunk back for re-issue.
                let _ = results.send(died(Some(chunk)));
                let _ = child.kill();
                let _ = child.wait();
                return;
            }
        }
    }

    // Clean shutdown: close the pipe politely and reap the child.
    if let Ok(f) = WorkerRequest::Shutdown.to_frame() {
        let _ = write_frame(&mut stdin, &f);
    }
    drop(stdin);
    let _ = child.wait();
}

/// Extension: uniform `NetError` → `GoofiError` lift for pipe plumbing.
trait FromNet {
    fn from_net(e: NetError) -> GoofiError;
}

impl FromNet for GoofiError {
    fn from_net(e: NetError) -> GoofiError {
        GoofiError::Protocol(e.to_string())
    }
}

/// One multi-process job. Returns the summary; the caller emits the
/// terminal event.
fn run_process_job(
    registry: &Arc<JobRegistry>,
    job: &str,
    config: &ServerConfig,
    campaign: &Campaign,
    options: &ExecOptions,
    resume: bool,
    cancel: &Arc<AtomicBool>,
) -> Result<JobSummary> {
    let mut store = ProcessService::load_store(&config.db)?;
    store.enable_journal(&config.db)?;

    // The worklist: all indices, minus rows already stored when resuming.
    let total = campaign.experiments;
    let preexisting: Vec<bool> = (0..total)
        .map(|i| {
            resume
                && store
                    .get_experiment(&logged_experiment_name(&campaign.name, i))
                    .is_ok()
        })
        .collect();
    let worklist: Vec<usize> = (0..total).filter(|&i| !preexisting[i]).collect();
    let done_before = total - worklist.len();
    let have_reference = resume
        && store
            .get_experiment(&goofi_core::store::reference_experiment_name(
                &campaign.name,
            ))
            .is_ok();

    if worklist.is_empty() && have_reference {
        // Nothing to run; report the stored state.
        registry.emit(
            job,
            ServiceEvent::Started {
                campaign: campaign.name.clone(),
                total,
            },
        );
        registry.emit(
            job,
            ServiceEvent::Finished {
                completed: total,
                stopped: false,
            },
        );
        let mut summary = JobSummary::new(&campaign.name, config.workers);
        summary.experiments = total;
        summary.stats = analyze_campaign(&store, &campaign.name)?;
        return Ok(summary);
    }

    // Build the chunk queue.
    let queue: ChunkQueue = Arc::new(Mutex::new(
        worklist
            .chunks(config.chunk)
            .enumerate()
            .map(|(id, indices)| Chunk {
                id: id as u64,
                indices: indices.to_vec(),
            })
            .collect(),
    ));
    let mut next_chunk_id = queue.lock().unwrap().len() as u64;

    // Spawn the pool.
    let (tx, rx) = crossbeam::channel::unbounded::<PoolMsg>();
    let mut pool: Vec<JoinHandle<()>> = Vec::new();
    let spawn = |worker: usize, pool: &mut Vec<JoinHandle<()>>| -> Result<()> {
        let child = spawn_child(&config.worker_cmd)?;
        let campaign = campaign.clone();
        let options = options.clone();
        let queue = queue.clone();
        let tx = tx.clone();
        let cancel = cancel.clone();
        pool.push(std::thread::spawn(move || {
            drive_worker(worker, child, campaign, options, queue, tx, cancel);
        }));
        Ok(())
    };
    let workers = config.workers.max(1);
    for w in 0..workers {
        spawn(w, &mut pool)?;
    }

    // The reorder buffer: rows keyed by index, flushed to the store in
    // worklist order so the database matches a sequential run byte for
    // byte.
    let mut buffer: HashMap<usize, goofi_net::IndexedRecord> = HashMap::new();
    let mut next_pos = 0usize; // position in `worklist`
    let mut plan: Option<Box<ReadyInfo>> = None;
    let mut started = false;
    let mut respawns = 0usize;
    let mut alive = workers;
    let mut next_worker = workers;
    let mut failure: Option<GoofiError> = None;

    while next_pos < worklist.len() {
        if cancel.load(Ordering::Relaxed) || failure.is_some() {
            break;
        }
        let Ok(msg) = rx.recv() else { break };
        match msg {
            PoolMsg::Ready { worker, pid, info } => {
                registry.emit(job, ServiceEvent::WorkerSpawned { worker, pid });
                if plan.is_none() {
                    if info.experiments != total {
                        failure = Some(GoofiError::Service(format!(
                            "worker planned {} experiments, campaign declares {total}",
                            info.experiments
                        )));
                        continue;
                    }
                    // First worker online: lay down the reference row
                    // exactly where the sequential runner would.
                    if !have_reference {
                        store.log_experiment(&info.reference)?;
                    }
                    registry.emit(
                        job,
                        ServiceEvent::Started {
                            campaign: campaign.name.clone(),
                            total,
                        },
                    );
                    started = true;
                    plan = Some(info);
                }
            }
            PoolMsg::Rows { rows } => {
                for row in rows {
                    buffer.insert(row.index, row);
                }
                let prunable = plan.as_ref().map_or(&[][..], |p| &p.prunable[..]);
                while next_pos < worklist.len() {
                    let Some(row) = buffer.remove(&worklist[next_pos]) else {
                        break;
                    };
                    store.log_experiment(&row.record)?;
                    next_pos += 1;
                    registry.emit(
                        job,
                        ServiceEvent::Progress {
                            completed: done_before + next_pos,
                            total,
                            pruned: prunable.get(row.index).copied().unwrap_or(false),
                        },
                    );
                }
            }
            PoolMsg::Died { worker, lost } => {
                alive -= 1;
                let reissued = lost.as_ref().map_or(0, |c| c.indices.len());
                registry.emit(job, ServiceEvent::WorkerLost { worker, reissued });
                if let Some(mut chunk) = lost {
                    // Fresh id so a late duplicate reply can't be confused
                    // with the re-issue (belt and braces: row indices are
                    // idempotent anyway).
                    chunk.id = next_chunk_id;
                    next_chunk_id += 1;
                    queue.lock().unwrap().push_back(chunk);
                }
                if respawns < config.max_respawns {
                    respawns += 1;
                    spawn(next_worker, &mut pool)?;
                    next_worker += 1;
                    alive += 1;
                } else if alive == 0 {
                    failure = Some(GoofiError::Service(format!(
                        "worker pool exhausted after {respawns} respawns"
                    )));
                }
            }
            PoolMsg::Broken { error } => {
                failure = Some(GoofiError::Service(error));
            }
        }
    }

    // Stop dispatch, wind the pool down, reap every child.
    queue.lock().unwrap().clear();
    if failure.is_some() {
        cancel.store(true, Ordering::Relaxed);
    }
    drop(tx);
    for t in pool {
        let _ = t.join();
    }

    if let Some(e) = failure {
        return Err(e);
    }

    let stopped = next_pos < worklist.len();
    if started {
        registry.emit(
            job,
            ServiceEvent::Finished {
                completed: done_before + next_pos,
                stopped,
            },
        );
    }

    // Trailing tables, in the sequential runner's order: static analysis,
    // then the snapshot (which supersedes the journal).
    if let Some(info) = &plan {
        if !stopped {
            if let Some(analysis) = &info.static_analysis {
                store.put_static_analysis(&campaign.name, analysis)?;
            }
        }
    }
    store.save(&config.db)?;

    let mut summary = JobSummary::new(&campaign.name, workers);
    summary.experiments = done_before + next_pos;
    summary.pruned = plan
        .as_ref()
        .map(|p| {
            worklist[..next_pos]
                .iter()
                .filter(|&&i| p.prunable.get(i).copied().unwrap_or(false))
                .count()
        })
        .unwrap_or(0);
    summary.predicted = plan
        .as_ref()
        .map(|p| {
            worklist[..next_pos]
                .iter()
                .filter(|&&i| p.predicted.get(i).copied().unwrap_or(false))
                .count()
        })
        .unwrap_or(0);
    if !stopped {
        summary.stats = analyze_campaign(&store, &campaign.name)?;
    }
    Ok(summary)
}
