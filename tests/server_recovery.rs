//! Multi-process campaign engine recovery, through the real stack: the
//! [`ProcessService`] farms experiments out to worker processes (this
//! test binary re-execs itself as `worker`), and the resulting database
//! must be byte-identical to a single-process sequential run — for any
//! worker count, and even when a worker is `kill -9`ed mid-campaign and
//! its in-flight chunk re-issued.
//!
//! `harness = false`: the suite manages its own process tree, so it runs
//! as a plain `main` with one `eprintln` line per scenario.

use goofi_core::{
    Campaign, CampaignRef, CampaignRunner, CampaignService, ExecOptions, ExperimentData,
    ExperimentRecord, FaultModel, GoofiStore, JobSpec, JobSummary, LocalService, LocationSelector,
    Pruning, ServiceEvent, TargetEvent, Technique, TelemetryMode,
};
use goofi_net::{read_frame, write_frame, IndexedRecord, WorkerRequest, WorkerResponse};
use goofi_server::{ProcessService, ServerConfig};
use goofi_targets::{standard_factory, standard_provider};
use std::path::PathBuf;

fn campaign(name: &str, experiments: usize) -> Campaign {
    Campaign::builder(name, "thor-card", "sort8")
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: None,
        })
        .fault_model(FaultModel::BitFlip)
        .window(0, 900)
        .experiments(experiments)
        .seed(2001)
        .build()
        .expect("valid campaign")
}

fn seeded_db(path: &PathBuf, c: &Campaign) {
    let _ = std::fs::remove_file(path);
    let factory = standard_factory(c).expect("known workload");
    let mut store = GoofiStore::new();
    store.put_target(&factory().describe()).unwrap();
    store.put_campaign(c).unwrap();
    store.save(path).unwrap();
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("goofi_srv_rec_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The sequential in-process reference run: what every server
/// configuration must reproduce byte for byte.
fn sequential_bytes(c: &Campaign) -> Vec<u8> {
    let path = tmp("sequential.db");
    seeded_db(&path, c);
    let mut store = GoofiStore::load(&path).unwrap();
    // Journal exactly like the service paths do — rows stream through
    // the WAL before the final snapshot either way.
    store.enable_journal(&path).unwrap();
    let factory = standard_factory(c).unwrap();
    CampaignRunner::from_factory(|| factory(), c)
        .store(&mut store)
        .run()
        .unwrap();
    store.save(&path).unwrap();
    std::fs::read(&path).unwrap()
}

fn server_config(db: &PathBuf, workers: usize) -> ServerConfig {
    worker_config(db, workers, "worker")
}

/// A configuration whose workers are this binary run as `mode`.
fn worker_config(db: &PathBuf, workers: usize, mode: &str) -> ServerConfig {
    let exe = std::env::current_exe().unwrap();
    ServerConfig::new(db, vec![exe.to_string_lossy().into_owned(), mode.into()])
        .workers(workers)
        .chunk(5)
}

/// The sort16 `R6` campaign with static pruning, prediction and class
/// execution: most faults are decided without execution.
fn r6_campaign() -> (Campaign, ExecOptions) {
    let c = Campaign::builder("det-r6", "thor-card", "sort16")
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: Some("R6".into()),
        })
        .fault_model(FaultModel::BitFlip)
        .window(0, 1342)
        .experiments(2000)
        .seed(1)
        .build()
        .expect("valid campaign");
    let options = ExecOptions::new()
        .pruning(Pruning::Static)
        .prediction(true)
        .class_execution(true);
    (c, options)
}

/// The in-process service's database and summary for `c` with `options`.
fn local_run(c: &Campaign, options: &ExecOptions) -> (Vec<u8>, JobSummary) {
    let path = tmp("local.db");
    seeded_db(&path, c);
    let mut svc = LocalService::new(&path, standard_provider());
    let job = svc
        .submit(JobSpec::new(CampaignRef::Name(c.name.clone())).options(options.clone()))
        .expect("submit");
    let summary = match svc.watch(&job, true).expect("watch").last() {
        Some(ServiceEvent::Completed { summary }) => *summary,
        other => panic!("in-process run did not complete: {other:?}"),
    };
    svc.join();
    (std::fs::read(&path).unwrap(), summary)
}

/// Any worker-process count produces the in-process run's database and
/// summary: the plain sequential run for default options, and the
/// `LocalService` run for the static-pruning, prediction and
/// class-execution options.
fn multi_process_runs_are_byte_identical() {
    let plain = campaign("det-mp", 40);
    let plain_bytes = sequential_bytes(&plain);
    for workers in [1usize, 4] {
        let c = &plain;
        let reference = &plain_bytes;
        let db = tmp(&format!("mp{workers}.db"));
        seeded_db(&db, c);
        let mut svc = ProcessService::new(server_config(&db, workers));
        let job = svc
            .submit(JobSpec::new(CampaignRef::Name(c.name.clone())))
            .expect("submit");
        let stream = svc.watch(&job, true).expect("watch");
        let events: Vec<ServiceEvent> = stream.collect();
        assert!(
            matches!(events.last(), Some(ServiceEvent::Completed { summary }) if summary.experiments == 40),
            "{workers} workers: unexpected terminal event {:?}",
            events.last()
        );
        let spawned = events
            .iter()
            .filter(|e| matches!(e, ServiceEvent::WorkerSpawned { .. }))
            .count();
        assert_eq!(spawned, workers, "one Ready worker per slot");
        svc.join();
        let bytes = std::fs::read(&db).unwrap();
        assert_eq!(
            &bytes, reference,
            "{workers}-worker server DB differs from the sequential run"
        );
    }

    let (c, options) = r6_campaign();
    let (local_bytes, local) = local_run(&c, &options);
    assert!(
        local.pruned > 0 && local.predicted > 0 && local.class_savings.is_some(),
        "the campaign must prune, predict and fan out: {local:?}"
    );
    for workers in [1usize, 4] {
        let db = tmp(&format!("r6-{workers}.db"));
        seeded_db(&db, &c);
        let mut svc = ProcessService::new(server_config(&db, workers));
        let job = svc
            .submit(JobSpec::new(CampaignRef::Name(c.name.clone())).options(options.clone()))
            .expect("submit");
        let summary = match svc.watch(&job, true).expect("watch").last() {
            Some(ServiceEvent::Completed { summary }) => summary,
            other => panic!("{workers}-worker R6 run did not complete: {other:?}"),
        };
        svc.join();
        assert_eq!(
            (
                &summary.stats,
                summary.pruned,
                summary.predicted,
                summary.class_savings
            ),
            (
                &local.stats,
                local.pruned,
                local.predicted,
                local.class_savings
            ),
            "{workers}-worker R6 summary differs from the in-process run"
        );
        assert!(
            std::fs::read(&db).unwrap() == local_bytes,
            "{workers}-worker R6 server DB differs from the in-process run"
        );
    }
    eprintln!("server_recovery: multi_process_runs_are_byte_identical ... ok");
}

/// `kill -9` of a worker mid-campaign: its chunk is re-issued, a
/// replacement spawned, the campaign completes, and the database still
/// matches the sequential run byte for byte.
fn killed_worker_recovers_byte_identical() {
    let c = campaign("det-kill", 60);
    let reference = sequential_bytes(&c);
    let db = tmp("killed.db");
    seeded_db(&db, &c);
    let mut svc = ProcessService::new(server_config(&db, 2));
    let job = svc
        .submit(JobSpec::new(CampaignRef::Name(c.name.clone())))
        .expect("submit");
    let stream = svc.watch(&job, true).expect("watch");

    let mut pids: Vec<u32> = Vec::new();
    let mut killed = false;
    let mut lost = 0usize;
    let mut terminal = None;
    for ev in stream {
        match &ev {
            ServiceEvent::WorkerSpawned { pid, .. } => pids.push(*pid),
            ServiceEvent::WorkerLost { .. } => lost += 1,
            // Kill a live worker once the campaign is demonstrably in
            // flight; the driver must spot the dead pipe, re-queue the
            // chunk it held, and spawn a replacement.
            ServiceEvent::Progress { completed, .. } if *completed >= 5 && !killed => {
                killed = true;
                let victim = *pids.last().expect("a worker spawned before progress");
                let status = std::process::Command::new("kill")
                    .args(["-9", &victim.to_string()])
                    .status()
                    .expect("kill runs");
                assert!(status.success(), "kill -9 {victim} failed");
            }
            ev if ev.is_terminal() => terminal = Some(ev.clone()),
            _ => {}
        }
    }
    assert!(killed, "campaign finished before the kill was delivered");
    assert!(
        matches!(&terminal, Some(ServiceEvent::Completed { summary }) if summary.experiments == 60),
        "campaign did not complete after the kill: {terminal:?}"
    );
    assert!(lost >= 1, "no WorkerLost event after kill -9");
    assert!(
        pids.len() >= 3,
        "no replacement worker spawned after the loss (pids: {pids:?})"
    );
    svc.join();
    let bytes = std::fs::read(&db).unwrap();
    assert_eq!(
        bytes, reference,
        "post-recovery DB differs from the sequential run"
    );
    eprintln!("server_recovery: killed_worker_recovers_byte_identical ... ok");
}

/// A cancelled multi-process campaign keeps its completed prefix and is
/// completable by a resume submission — to the same rows and statistics
/// (not bytes: the intermediate snapshot leaves its own page layout).
fn cancel_then_resume_completes() {
    let c = campaign("det-resume", 40);
    let reference = sequential_bytes(&c);
    let db = tmp("resume.db");
    seeded_db(&db, &c);
    {
        let mut svc = ProcessService::new(server_config(&db, 2));
        let job = svc
            .submit(JobSpec::new(CampaignRef::Name(c.name.clone())))
            .expect("submit");
        let stream = svc.watch(&job, true).expect("watch");
        for ev in stream {
            if matches!(&ev, ServiceEvent::Progress { completed, .. } if *completed >= 5) {
                let _ = svc.cancel(&job);
            }
        }
        svc.join();
    }
    let store = GoofiStore::load(&db).unwrap();
    let partial = store.experiments_of(&c.name).unwrap().len();
    assert!(partial >= 1, "cancel discarded the completed prefix");

    let mut svc = ProcessService::new(server_config(&db, 2));
    let job = svc
        .submit(JobSpec::new(CampaignRef::Name(c.name.clone())).resume(true))
        .expect("resume submit");
    let stream = svc.watch(&job, true).expect("watch");
    let last = stream.last();
    assert!(
        matches!(&last, Some(ServiceEvent::Completed { .. })),
        "resume did not complete: {last:?}"
    );
    svc.join();
    let resumed = GoofiStore::load(&db).unwrap();
    let ref_path = tmp("resume_ref.db");
    std::fs::write(&ref_path, &reference).unwrap();
    let ref_store = GoofiStore::load(&ref_path).unwrap();
    assert_eq!(
        resumed.experiments_of(&c.name).unwrap().len(),
        ref_store.experiments_of(&c.name).unwrap().len(),
        "resumed DB is missing rows"
    );
    assert_eq!(
        goofi_core::analyze_campaign(&resumed, &c.name).unwrap(),
        goofi_core::analyze_campaign(&ref_store, &c.name).unwrap(),
        "resumed DB classifies differently from the sequential run"
    );
    eprintln!("server_recovery: cancel_then_resume_completes ... ok");
}

/// A job submitted with metrics telemetry records the daemon's layers —
/// plan, store appends, one gauge set per worker driver — and persists
/// the rollup next to its rows.
fn telemetry_rollup_is_persisted() {
    let c = campaign("det-tel", 40);
    let db = tmp("telemetry.db");
    seeded_db(&db, &c);
    let mut svc = ProcessService::new(server_config(&db, 2));
    let options = ExecOptions::new().telemetry(TelemetryMode::Metrics);
    let job = svc
        .submit(JobSpec::new(CampaignRef::Name(c.name.clone())).options(options))
        .expect("submit");
    let summary = match svc.watch(&job, true).expect("watch").last() {
        Some(ServiceEvent::Completed { summary }) => summary,
        other => panic!("telemetry job did not complete: {other:?}"),
    };
    svc.join();
    let rollup = summary.telemetry.expect("the summary carries a rollup");
    assert_eq!(rollup.workers, 2);
    assert!(rollup
        .phase(goofi_telemetry::names::PHASE_PREPARE)
        .is_some());
    assert_eq!(
        rollup
            .phase(goofi_telemetry::names::STORE_LOG_EXPERIMENT)
            .map(|p| p.count),
        Some(41),
        "reference + 40 rows appended by the daemon"
    );
    assert_eq!(rollup.worker_stats.len(), 2, "one gauge set per driver");
    let decoded = rollup.phase(goofi_telemetry::names::NET_DECODE);
    assert!(
        decoded.is_some_and(|p| p.count >= 1),
        "worker replies are decoded under a span"
    );
    let received = rollup
        .counters
        .iter()
        .find(|c| c.name == goofi_telemetry::names::NET_BYTES);
    assert!(
        received.is_some_and(|c| c.value > 0),
        "reply frame bytes are counted"
    );
    let claimed: u64 = rollup.worker_stats.iter().map(|w| w.claimed).sum();
    assert_eq!(claimed, 40, "every execution claimed once");
    let store = GoofiStore::load(&db).unwrap();
    assert_eq!(
        store.get_telemetry(&c.name).unwrap().as_ref(),
        Some(&rollup),
        "the rollup is persisted"
    );
    eprintln!("server_recovery: telemetry_rollup_is_persisted ... ok");
}

/// A reply that arrives whole (its CRC holds) but does not decode is a
/// protocol fault, not a dead worker: the job fails at once with the
/// codec error, and no worker is respawned.
fn undecodable_reply_fails_the_job() {
    let c = campaign("det-codec", 20);
    let db = tmp("codec.db");
    seeded_db(&db, &c);
    let mut svc = ProcessService::new(worker_config(&db, 1, "mangling-worker"));
    let job = svc
        .submit(JobSpec::new(CampaignRef::Name(c.name.clone())))
        .expect("submit");
    let events: Vec<ServiceEvent> = svc.watch(&job, true).expect("watch").collect();
    svc.join();
    assert!(
        !events
            .iter()
            .any(|ev| matches!(ev, ServiceEvent::WorkerLost { .. })),
        "an undecodable reply cost a respawn: {events:?}"
    );
    match events.last() {
        Some(ServiceEvent::Failed { error }) => assert!(
            error.contains("message codec error") && error.contains("unknown tag"),
            "the job failed without the codec error: {error}"
        ),
        other => panic!("the job did not fail: {other:?}"),
    }
    eprintln!("server_recovery: undecodable_reply_fails_the_job ... ok");
}

/// The `mangling-worker` mode: gets ready like a real worker, then
/// answers every chunk with a `ChunkDone` whose first row carries an
/// unknown value tag. The frame's CRC is computed over the mangled bytes,
/// so only the row decoder can object.
fn mangling_worker() -> i32 {
    let (mut input, mut output) = (std::io::stdin().lock(), std::io::stdout().lock());
    while let Ok(frame) = read_frame(&mut input) {
        let reply = match WorkerRequest::from_frame(&frame) {
            Ok(WorkerRequest::Init { campaign, .. }) => WorkerResponse::Ready {
                pid: std::process::id(),
                experiments: campaign.experiments,
            }
            .to_frame(),
            Ok(WorkerRequest::RunChunk { id, indices }) => {
                let record = ExperimentRecord {
                    name: "mangled".into(),
                    parent: None,
                    campaign: "mangled".into(),
                    data: ExperimentData {
                        fault: None,
                        termination: TargetEvent::Halted,
                        outputs: Vec::new(),
                        iterations: 0,
                        instructions: 0,
                        detail_trace: None,
                    },
                    state_vector: Vec::new(),
                };
                let rows = indices
                    .into_iter()
                    .map(|index| IndexedRecord {
                        index,
                        record: record.clone(),
                    })
                    .collect();
                WorkerResponse::ChunkDone { id, rows }
                    .to_frame()
                    .map(|mut frame| {
                        // id, count, the first row's index and length,
                        // its value count: then its first value's tag.
                        frame.payload[8 + 4 + 8 + 4 + 2] = 0xEE;
                        frame
                    })
            }
            _ => return 0,
        };
        let sent = reply.and_then(|frame| write_frame(&mut output, &frame));
        if sent.is_err() {
            return 1;
        }
    }
    0
}

fn main() {
    // The server spawns `<this binary> worker` children; route them to
    // the protocol loop before any test machinery runs.
    match std::env::args().nth(1).as_deref() {
        Some("worker") => std::process::exit(goofi_server::worker_main()),
        Some("mangling-worker") => std::process::exit(mangling_worker()),
        _ => {}
    }
    multi_process_runs_are_byte_identical();
    killed_worker_recovers_byte_identical();
    cancel_then_resume_completes();
    telemetry_rollup_is_persisted();
    undecodable_reply_fails_the_job();
    let dir = std::env::temp_dir().join(format!("goofi_srv_rec_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(dir);
    eprintln!("server_recovery: all scenarios ok");
}
