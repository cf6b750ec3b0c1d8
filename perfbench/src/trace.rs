//! The traced run: the sample's campaign driven through the program's
//! own `CampaignRunner`, with every call into a layer timed from here.
//! No span is added inside the program.
//!
//! * store — `GoofiStore::load` + `enable_journal`, then the final
//!   `save`, timed around the calls; appends are read from the runner's
//!   own `store.log_experiment` telemetry;
//! * planner — a standalone `generate_fault_list`, then the runner's
//!   prepare, reference-run and checkpoint-build telemetry phases and its
//!   pruned / predicted / fanned decisions;
//! * target — a delegating [`TimedTarget`] around the Thor adapter, the
//!   runner's target, splits interpreter, scan-chain, snapshot, restore
//!   and static-analysis time;
//! * classification — `analyze_campaign`;
//! * net and server (`chain-server` only) — `ChunkDone` frame codec, and
//!   one worker process driven directly over its pipes.
//!
//! The layer times account for the traced wall time; the remainder is
//! reported as `trace.unaccounted_s`.

use crate::stats::{histogram_quantile, quantile};
use crate::workload::{copy_database, Workload, SERVER_CHUNK};
use goofi_core::{
    analyze_campaign, generate_fault_list, logged_experiment_name, CampaignRunner,
    ExperimentRecord, GoofiStore, PhaseStats, Result, StateVector, StaticAnalysis, TargetEvent,
    TargetSnapshot, TargetSystemConfig, TargetSystemInterface, TelemetryMode, TraceStep,
};
use goofi_db::storage::wal_path;
use goofi_net::{read_frame, write_frame, Frame, IndexedRecord, WorkerRequest, WorkerResponse};
use goofi_targets::standard_factory;
use goofi_telemetry::names;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Every per-layer metric the traced run reports, with its unit. A
/// layer that does not run on a workload reports 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("fault.generate_s", "s"),
    ("analysis.static_s", "s"),
    ("plan.reference_s", "s"),
    ("plan.s", "s"),
    ("runner.self_s", "s"),
    ("runner.executed", "count"),
    ("runner.pruned", "count"),
    ("runner.predicted", "count"),
    ("runner.fanned", "count"),
    ("runner.decided_share", "fraction"),
    ("thor.exec_s", "s"),
    ("thor.ns_per_instr", "ns"),
    ("targets.scan_s", "s"),
    ("targets.other_s", "s"),
    ("checkpoint.snapshot_s", "s"),
    ("checkpoint.restore_s", "s"),
    ("checkpoint.restore_count", "count"),
    ("checkpoint.restore_p50_s", "s"),
    ("checkpoint.restore_p99_s", "s"),
    ("exp.latency_p50_s", "s"),
    ("exp.latency_p99_s", "s"),
    ("exp.overhead_x", "x"),
    ("store.open_s", "s"),
    ("store.append_s", "s"),
    ("store.append_p50_s", "s"),
    ("store.append_p99_s", "s"),
    ("store.wal_bytes_per_row", "B/row"),
    ("store.checkpoint_s", "s"),
    ("classify.s", "s"),
    ("net.encode_s", "s"),
    ("net.decode_s", "s"),
    ("net.bytes_per_row", "B/row"),
    ("server.worker_ready_s", "s"),
    ("server.ready_bytes", "B"),
    ("server.chunk_rtt_p50_s", "s"),
    ("server.chunk_rtt_p99_s", "s"),
    ("server.ipc_overhead_share", "fraction"),
    ("service.progress_gap_p50_s", "s"),
    ("service.progress_gap_p99_s", "s"),
    ("service.finish_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Time spent inside the target, by layer.
#[derive(Debug, Default)]
struct TargetTimes {
    /// Interpreter stepping: run/wait/step calls.
    exec_s: f64,
    /// Target instructions retired inside those calls.
    instructions: u64,
    /// Scan-chain shifts in and out (injection reads and writes them).
    scan_s: f64,
    /// Resets, workload loads, memory and output reads, counters.
    other_s: f64,
    /// Checkpoint snapshots.
    snapshot_s: f64,
    /// One entry per checkpoint restore.
    restores: Vec<f64>,
    /// The target's static analyzer.
    analysis_s: f64,
}

impl TargetTimes {
    fn total_s(&self) -> f64 {
        self.exec_s
            + self.scan_s
            + self.other_s
            + self.snapshot_s
            + self.restores.iter().sum::<f64>()
            + self.analysis_s
    }
}

fn timed<T>(bucket: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *bucket += t.elapsed().as_secs_f64();
    out
}

/// A delegating target that times every building block it forwards.
struct TimedTarget {
    inner: Box<dyn TargetSystemInterface>,
    times: TargetTimes,
}

impl TimedTarget {
    /// Times an execution call and counts the instructions it retired.
    fn exec<T>(&mut self, f: impl FnOnce(&mut dyn TargetSystemInterface) -> T) -> T {
        let before = self.inner.instructions_retired().unwrap_or(0);
        let out = timed(&mut self.times.exec_s, || f(self.inner.as_mut()));
        let after = self.inner.instructions_retired().unwrap_or(0);
        self.times.instructions += after.saturating_sub(before);
        out
    }
}

impl TargetSystemInterface for TimedTarget {
    fn target_name(&self) -> &str {
        self.inner.target_name()
    }

    fn describe(&self) -> TargetSystemConfig {
        self.inner.describe()
    }

    fn init_test_card(&mut self) -> Result<()> {
        timed(&mut self.times.other_s, || self.inner.init_test_card())
    }

    fn load_workload(&mut self) -> Result<()> {
        timed(&mut self.times.other_s, || self.inner.load_workload())
    }

    fn write_memory(&mut self, addr: u32, data: &[u32]) -> Result<()> {
        timed(&mut self.times.other_s, || {
            self.inner.write_memory(addr, data)
        })
    }

    fn read_memory(&mut self, addr: u32, len: usize) -> Result<Vec<u32>> {
        timed(&mut self.times.other_s, || {
            self.inner.read_memory(addr, len)
        })
    }

    fn set_breakpoint(&mut self, time: u64) -> Result<()> {
        timed(&mut self.times.other_s, || self.inner.set_breakpoint(time))
    }

    fn run_workload(&mut self) -> Result<()> {
        self.exec(|t| t.run_workload())
    }

    fn wait_for_breakpoint(&mut self) -> Result<TargetEvent> {
        self.exec(|t| t.wait_for_breakpoint())
    }

    fn wait_for_termination(&mut self) -> Result<TargetEvent> {
        self.exec(|t| t.wait_for_termination())
    }

    fn read_scan_chain(&mut self, chain: &str) -> Result<StateVector> {
        timed(&mut self.times.scan_s, || self.inner.read_scan_chain(chain))
    }

    fn write_scan_chain(&mut self, chain: &str, bits: &StateVector) -> Result<()> {
        timed(&mut self.times.scan_s, || {
            self.inner.write_scan_chain(chain, bits)
        })
    }

    fn observe_state(&mut self) -> Result<StateVector> {
        timed(&mut self.times.scan_s, || self.inner.observe_state())
    }

    fn read_outputs(&mut self) -> Result<Vec<u32>> {
        timed(&mut self.times.other_s, || self.inner.read_outputs())
    }

    fn step_instruction(&mut self) -> Result<Option<TargetEvent>> {
        self.exec(|t| t.step_instruction())
    }

    fn collect_trace(&mut self) -> Result<Vec<TraceStep>> {
        self.exec(|t| t.collect_trace())
    }

    fn static_analysis(&mut self, horizon: u64) -> Result<StaticAnalysis> {
        timed(&mut self.times.analysis_s, || {
            self.inner.static_analysis(horizon)
        })
    }

    fn instructions_retired(&mut self) -> Result<u64> {
        timed(&mut self.times.other_s, || {
            self.inner.instructions_retired()
        })
    }

    fn iterations_completed(&mut self) -> Result<u32> {
        timed(&mut self.times.other_s, || {
            self.inner.iterations_completed()
        })
    }

    fn snapshot(&mut self) -> Result<TargetSnapshot> {
        timed(&mut self.times.snapshot_s, || self.inner.snapshot())
    }

    fn restore(&mut self, snapshot: &TargetSnapshot) -> Result<()> {
        let t = Instant::now();
        let out = self.inner.restore(snapshot);
        self.times.restores.push(t.elapsed().as_secs_f64());
        out
    }
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// What the server section measured.
struct Served {
    ready_s: f64,
    ready_bytes: usize,
    rtts: Vec<f64>,
    row_errors: usize,
}

/// Drives one worker process (this executable re-exec'd as `worker`)
/// over its pipes: `Init` until `Ready`, then the campaign in chunks.
/// Checks every row the worker returns against `rows`, which holds the
/// campaign's rows in fault-list order.
fn serve_one_worker(
    campaign: &goofi_core::Campaign,
    workload: Workload,
    rows: &[ExperimentRecord],
) -> Served {
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = Command::new(exe)
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn a worker process");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut send = |req: WorkerRequest| {
        write_frame(&mut stdin, &req.to_frame().expect("encode request")).expect("worker pipe");
    };

    let t = Instant::now();
    send(WorkerRequest::Init {
        campaign: campaign.clone(),
        options: workload.options(),
    });
    let ready = read_frame(&mut stdout).expect("worker answers Init");
    let ready_s = seconds_since(t);
    let ready_bytes = ready.encode().len();
    assert!(
        matches!(
            WorkerResponse::from_frame(&ready),
            Ok(WorkerResponse::Ready { .. })
        ),
        "worker did not get ready"
    );

    let mut served = Served {
        ready_s,
        ready_bytes,
        rtts: Vec::new(),
        row_errors: 0,
    };
    for (k, expected) in rows.chunks(SERVER_CHUNK).enumerate() {
        let first = k * SERVER_CHUNK;
        let indices: Vec<usize> = (first..first + expected.len()).collect();
        let t = Instant::now();
        send(WorkerRequest::RunChunk {
            id: k as u64,
            indices: indices.clone(),
        });
        let reply = read_frame(&mut stdout).expect("worker answers RunChunk");
        let reply = WorkerResponse::from_frame(&reply).expect("decodable reply");
        served.rtts.push(seconds_since(t));
        match reply {
            WorkerResponse::ChunkDone { rows: got, .. } => {
                served.row_errors += indices.len().saturating_sub(got.len());
                served.row_errors += got
                    .iter()
                    .zip(indices.iter().zip(expected))
                    .filter(|(g, (&i, want))| g.index != i || g.record != **want)
                    .count();
            }
            _ => served.row_errors += indices.len(),
        }
    }
    send(WorkerRequest::Shutdown);
    drop(stdin);
    let _ = child.wait();
    served
}

/// Runs the traced campaign in `dir` (which holds `template.db`) and
/// returns every per-layer measurement it makes by name. The traced
/// database is left at `dir/trace.db` for the caller's row check.
pub fn run(workload: Workload, seed: u64, dir: &Path) -> Vec<(&'static str, f64)> {
    let campaign = workload.campaign(seed);
    let db = dir.join("trace.db");
    copy_database(&dir.join("template.db"), &db);
    let factory = standard_factory(&campaign).expect("sort16 is a bundled workload");
    let mut target = TimedTarget {
        inner: factory(),
        times: TargetTimes::default(),
    };
    let config = target.describe();
    let n = campaign.experiments;
    let wall = Instant::now();

    // Store: open, as `LocalService` does before it runs a job.
    let t = Instant::now();
    let mut store = GoofiStore::load(&db).expect("template database loads");
    store.enable_journal(&db).expect("journal attaches");
    let open_s = seconds_since(t);

    // Planner: the fault list on its own. The runner generates it again
    // inside its prepare phase, among other work.
    let t = Instant::now();
    generate_fault_list(
        &config,
        &campaign.selectors,
        campaign.fault_model,
        &campaign.trigger,
        campaign.experiments,
        campaign.seed,
        None,
    )
    .expect("fault list generates");
    let generate_s = seconds_since(t);

    // The campaign: the program's runner over the timed target, logging
    // into the journal, with its own metrics telemetry switched on.
    let options = workload
        .options()
        .run_options()
        .telemetry(TelemetryMode::Metrics);
    let t = Instant::now();
    let result = CampaignRunner::new(&mut target, &campaign)
        .options(options)
        .store(&mut store)
        .run()
        .expect("campaign runs");
    let runner_s = seconds_since(t);
    let wal_bytes = std::fs::metadata(wal_path(&db)).map_or(0, |m| m.len());

    // Store: checkpoint, then classification from the saved rows.
    let t = Instant::now();
    store.save(&db).expect("checkpoint");
    let checkpoint_s = seconds_since(t);
    let t = Instant::now();
    analyze_campaign(&store, &campaign.name).expect("campaign classifies");
    let classify_s = seconds_since(t);

    let telemetry = result.telemetry.as_ref().expect("metrics telemetry is on");
    let phase = |name: &str| telemetry.phase(name);
    let total_s = |name: &str| phase(name).map_or(0.0, |p| p.total_nanos as f64 * 1e-9);
    let fanned = telemetry
        .counters
        .iter()
        .find(|c| c.name == names::COUNTER_FANNED)
        .map_or(0, |c| c.value) as usize;
    let experiments: Option<&PhaseStats> = phase(names::PHASE_EXPERIMENT);
    let executed = experiments.map_or(0, |p| p.count as usize);
    let (pruned, predicted) = (result.pruned(), result.predicted());
    let reference_s = total_s(names::PHASE_REFERENCE);
    let experiment_s = total_s(names::PHASE_EXPERIMENT);
    let append_s = total_s(names::STORE_LOG_EXPERIMENT);
    let appends = phase(names::STORE_LOG_EXPERIMENT).map_or(0, |p| p.count);
    let times = &target.times;
    let mut out: Vec<(&'static str, f64)> = vec![
        ("store.open_s", open_s),
        ("fault.generate_s", generate_s),
        ("analysis.static_s", times.analysis_s),
        ("plan.reference_s", reference_s),
        (
            "plan.s",
            total_s(names::PHASE_PREPARE) + reference_s + total_s(names::PHASE_CHECKPOINT_BUILD),
        ),
        ("runner.self_s", runner_s - times.total_s() - append_s),
        ("runner.executed", executed as f64),
        ("runner.pruned", pruned as f64),
        ("runner.predicted", predicted as f64),
        ("runner.fanned", fanned as f64),
        (
            "runner.decided_share",
            (pruned + predicted + fanned) as f64 / n.max(1) as f64,
        ),
        ("thor.exec_s", times.exec_s),
        (
            "thor.ns_per_instr",
            times.exec_s * 1e9 / times.instructions.max(1) as f64,
        ),
        ("targets.scan_s", times.scan_s),
        ("targets.other_s", times.other_s),
        ("checkpoint.snapshot_s", times.snapshot_s),
        ("checkpoint.restore_s", times.restores.iter().sum()),
        ("checkpoint.restore_count", times.restores.len() as f64),
        ("checkpoint.restore_p50_s", quantile(&times.restores, 0.5)),
        ("checkpoint.restore_p99_s", quantile(&times.restores, 0.99)),
        ("exp.latency_p50_s", histogram_quantile(experiments, 0.5)),
        ("exp.latency_p99_s", histogram_quantile(experiments, 0.99)),
        (
            "exp.overhead_x",
            experiment_s / executed.max(1) as f64 / reference_s,
        ),
        ("store.append_s", append_s),
        (
            "store.append_p50_s",
            histogram_quantile(phase(names::STORE_LOG_EXPERIMENT), 0.5),
        ),
        (
            "store.append_p99_s",
            histogram_quantile(phase(names::STORE_LOG_EXPERIMENT), 0.99),
        ),
        (
            "store.wal_bytes_per_row",
            wal_bytes as f64 / appends.max(1) as f64,
        ),
        ("store.checkpoint_s", checkpoint_s),
        ("classify.s", classify_s),
    ];
    let mut accounted = open_s + generate_s + runner_s + checkpoint_s + classify_s;

    if workload == Workload::ChainServer {
        // Net: the ChunkDone frames the worker would send for the traced
        // rows, read back in fault-list order.
        let block = Instant::now();
        let mut by_name: BTreeMap<String, ExperimentRecord> = store
            .experiments_of(&campaign.name)
            .expect("traced rows")
            .into_iter()
            .map(|r| (r.name.clone(), r))
            .collect();
        let rows: Vec<ExperimentRecord> = (0..n)
            .map(|i| {
                by_name
                    .remove(&logged_experiment_name(&campaign.name, i))
                    .expect("every experiment row was logged")
            })
            .collect();
        let (mut encode_s, mut decode_s, mut bytes) = (0.0, 0.0, 0usize);
        for (k, chunk) in rows.chunks(SERVER_CHUNK).enumerate() {
            let msg = WorkerResponse::ChunkDone {
                id: k as u64,
                rows: chunk
                    .iter()
                    .enumerate()
                    .map(|(j, record)| IndexedRecord {
                        index: k * SERVER_CHUNK + j,
                        record: record.clone(),
                    })
                    .collect(),
            };
            let t = Instant::now();
            let wire = msg.to_frame().expect("encode ChunkDone").encode();
            encode_s += seconds_since(t);
            let t = Instant::now();
            let (frame, _) = Frame::decode(&wire).expect("decode frame");
            WorkerResponse::from_frame(&frame).expect("decode ChunkDone");
            decode_s += seconds_since(t);
            bytes += wire.len();
        }
        accounted += seconds_since(block);
        out.extend([
            ("net.encode_s", encode_s),
            ("net.decode_s", decode_s),
            ("net.bytes_per_row", bytes as f64 / n.max(1) as f64),
        ]);

        // Server: one worker process over its pipes. The in-process cost
        // of the same experiments is the runner's experiment phase.
        let block = Instant::now();
        let served = serve_one_worker(&campaign, workload, &rows);
        accounted += seconds_since(block);
        let rtt_total: f64 = served.rtts.iter().sum();
        out.extend([
            ("server.worker_ready_s", served.ready_s),
            ("server.ready_bytes", served.ready_bytes as f64),
            ("server.chunk_rtt_p50_s", quantile(&served.rtts, 0.5)),
            ("server.chunk_rtt_p99_s", quantile(&served.rtts, 0.99)),
            (
                "server.ipc_overhead_share",
                (rtt_total - experiment_s - encode_s - decode_s) / rtt_total,
            ),
            ("worker_row_errors", served.row_errors as f64),
        ]);
    }

    let wall_s = seconds_since(wall);
    out.extend([
        ("trace.wall_s", wall_s),
        ("trace.unaccounted_s", wall_s - accounted),
    ]);
    out
}
