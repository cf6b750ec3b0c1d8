//! [`ProcessService`]: a `LocalService` job (store, plan, pool, one
//! ordered sink, save, summary) with `goofi worker` child processes as
//! its chunk executors. Each worker gets `Init` before the daemon plans,
//! derives the same seeded plan, and answers `RunChunk` for the indices
//! the daemon's plan leaves to execution. A worker whose pipe dies (a
//! crash, a `kill -9`) is respawned from the job's `max_respawns` budget
//! and its chunk retried; once the budget is spent the job fails. A
//! reply that arrives whole but does not decode, or is not the reply
//! asked for, is a protocol fault a respawn would only repeat: it fails
//! the job at once.

use goofi_core::service::{
    CampaignService, EventStream, JobId, JobRegistry, JobSpec, JobStatus, Launcher, ServiceEvent,
};
use goofi_core::{
    Campaign, CampaignPlan, ChunkExecutor, ExecOptions, ExperimentRun, GoofiError, LocalService,
    Result,
};
use goofi_net::{read_frame, write_frame, Frame, WorkerRequest, WorkerResponse};
use goofi_targets::standard_provider;
use goofi_telemetry::names;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicIsize, AtomicUsize};
use std::sync::Arc;

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

/// [`CampaignService`] over worker processes: a [`LocalService`] whose
/// jobs run their chunks on `goofi worker` children.
pub struct ProcessService(LocalService);

impl ProcessService {
    /// A service executing jobs per `config`.
    pub fn new(config: ServerConfig) -> ProcessService {
        let service = LocalService::new(&config.db, standard_provider());
        ProcessService(service.launcher(Arc::new(config)))
    }

    /// Waits for every submitted job to finish.
    pub fn join(&mut self) {
        self.0.join();
    }
}

impl CampaignService for ProcessService {
    fn submit(&mut self, spec: JobSpec) -> Result<JobId> {
        self.0.submit(spec)
    }

    fn status(&mut self, job: &str) -> Result<JobStatus> {
        self.0.status(job)
    }

    fn watch(&mut self, job: &str, from_start: bool) -> Result<EventStream> {
        self.0.watch(job, from_start)
    }

    fn cancel(&mut self, job: &str) -> Result<bool> {
        self.0.cancel(job)
    }

    fn jobs(&mut self) -> Result<Vec<(JobId, JobStatus)>> {
        self.0.jobs()
    }
}

impl Launcher for ServerConfig {
    fn chunk(&self) -> usize {
        self.chunk
    }

    fn launch(
        &self,
        registry: &Arc<JobRegistry>,
        job: &str,
        campaign: &Campaign,
        options: &ExecOptions,
    ) -> Result<Vec<Box<dyn ChunkExecutor>>> {
        let init = WorkerRequest::Init {
            campaign: campaign.clone(),
            options: options.clone(),
        };
        let pool = Arc::new(Pool {
            cmd: self.worker_cmd.clone(),
            init: init.to_frame().map_err(protocol)?,
            registry: registry.clone(),
            job: job.to_owned(),
            respawns: AtomicIsize::new(isize::try_from(self.max_respawns).unwrap_or(isize::MAX)),
            next_slot: AtomicUsize::new(self.workers),
        });
        (0..self.workers)
            .map(|slot| Ok(Box::new(Worker::spawn(pool.clone(), slot)?) as Box<dyn ChunkExecutor>))
            .collect()
    }
}

fn protocol(e: impl std::fmt::Display) -> GoofiError {
    GoofiError::Protocol(e.to_string())
}

/// What one job's workers share.
struct Pool {
    cmd: Vec<String>,
    /// The encoded `Init` request, resent to every replacement.
    init: Frame,
    registry: Arc<JobRegistry>,
    job: JobId,
    /// Replacements left in the job's budget (negative once spent).
    respawns: AtomicIsize,
    /// The slot number the next replacement takes.
    next_slot: AtomicUsize,
}

/// One `goofi worker` child as a chunk executor.
struct Worker {
    pool: Arc<Pool>,
    slot: usize,
    child: Child,
    stdin: ChildStdin,
    stdout: ChildStdout,
}

impl Worker {
    /// Spawns the child and sends it `Init` without waiting for `Ready`.
    fn spawn(pool: Arc<Pool>, slot: usize) -> Result<Worker> {
        let (program, args) = pool
            .cmd
            .split_first()
            .ok_or_else(|| GoofiError::Service("empty worker command".into()))?;
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| GoofiError::Service(format!("cannot spawn worker `{program}`: {e}")))?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        // A dead child shows when `Ready` is awaited.
        let _ = write_frame(&mut stdin, &pool.init);
        Ok(Worker {
            pool,
            slot,
            child,
            stdin,
            stdout,
        })
    }

    /// Sends `request` (if any) and reads the reply; `Ok(None)` if the
    /// pipe died or the frame came apart on the way (EOF, I/O, a
    /// truncated or corrupt frame). A whole frame that does not decode is
    /// an error.
    fn exchange(&mut self, request: Option<&Frame>) -> Result<Option<WorkerResponse>> {
        if let Some(frame) = request {
            if write_frame(&mut self.stdin, frame).is_err() {
                return Ok(None);
            }
        }
        let Ok(frame) = read_frame(&mut self.stdout) else {
            return Ok(None);
        };
        tracing::value(names::NET_BYTES, frame.wire_len() as u64);
        let _s = tracing::span(names::NET_DECODE);
        WorkerResponse::from_frame(&frame)
            .map(Some)
            .map_err(|e| GoofiError::Service(format!("worker {} sent a bad reply: {e}", self.slot)))
    }

    /// Awaits `Ready` and announces the worker, respawning dead ones.
    fn await_ready(&mut self, plan: &CampaignPlan) -> Result<()> {
        loop {
            match self.exchange(None)? {
                Some(WorkerResponse::Ready { pid, experiments }) => {
                    if experiments != plan.len() {
                        return Err(GoofiError::Service(format!(
                            "worker planned {experiments} experiments, the daemon {}",
                            plan.len()
                        )));
                    }
                    let spawned = ServiceEvent::WorkerSpawned {
                        worker: self.slot,
                        pid,
                    };
                    self.pool.registry.emit(&self.pool.job, spawned);
                    return Ok(());
                }
                Some(WorkerResponse::Failed { error }) => return Err(GoofiError::Service(error)),
                Some(_) => return Err(protocol("worker answered Init with another reply")),
                None => self.respawn(0)?,
            }
        }
    }

    /// Replaces the dead child from the job's respawn budget; `lost`
    /// executions are re-run.
    fn respawn(&mut self, lost: usize) -> Result<()> {
        let pool = self.pool.clone();
        let worker = self.slot;
        let lost = ServiceEvent::WorkerLost {
            worker,
            reissued: lost,
        };
        pool.registry.emit(&pool.job, lost);
        let _ = self.child.kill();
        if pool.respawns.fetch_sub(1, SeqCst) <= 0 {
            let spent = format!("worker {worker} lost with the respawn budget spent");
            return Err(GoofiError::Service(spent));
        }
        let slot = pool.next_slot.fetch_add(1, SeqCst);
        *self = Worker::spawn(pool, slot)?;
        Ok(())
    }
}

impl ChunkExecutor for Worker {
    fn start(&mut self, plan: &CampaignPlan) -> Result<()> {
        self.await_ready(plan)
    }

    fn run_chunk(
        &mut self,
        plan: &CampaignPlan,
        _campaign: &Campaign,
        indices: &[usize],
    ) -> Result<Vec<ExperimentRun>> {
        // A chunk's first index identifies it within the job.
        let request = WorkerRequest::RunChunk {
            id: indices.first().map_or(0, |&i| i as u64),
            indices: indices.to_vec(),
        };
        let request = request.to_frame().map_err(protocol)?;
        loop {
            match self.exchange(Some(&request))? {
                Some(WorkerResponse::ChunkDone { rows, .. }) => {
                    if !rows.iter().map(|r| r.index).eq(indices.iter().copied()) {
                        return Err(protocol("worker answered a chunk with other experiments"));
                    }
                    return Ok(rows.iter().map(|r| r.record.to_run()).collect());
                }
                Some(WorkerResponse::Failed { error }) => return Err(GoofiError::Service(error)),
                Some(_) => return Err(protocol("worker answered RunChunk with another reply")),
                None => {
                    self.respawn(indices.len())?;
                    self.await_ready(plan)?;
                }
            }
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Nothing is in flight: ask the worker to exit and reap it.
        if let Ok(frame) = WorkerRequest::Shutdown.to_frame() {
            let _ = write_frame(&mut self.stdin, &frame);
        }
        let _ = self.child.wait();
    }
}
