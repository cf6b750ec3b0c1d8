//! One untraced sample: a single campaign job submitted through the
//! public service API and timed from outside by its event stream.
//!
//! The load is closed-loop with one client: submit one job, watch its
//! events to completion, stop. `chain-server` puts a [`Daemon`] over a
//! [`ProcessService`] with one worker process in this process and
//! drives it through a [`RemoteService`] on loopback, so this process is
//! the one hosting the campaign engine (its `VmHWM` excludes the worker).

use crate::stats::{peak_rss_kib, quantile};
use crate::workload::{copy_database, database_bytes, Workload, SERVER_CHUNK};
use goofi_core::{CampaignRef, CampaignService, JobSpec, LocalService, ServiceEvent};
use goofi_net::RemoteService;
use goofi_server::{Daemon, ProcessService, ServerConfig};
use goofi_targets::standard_provider;
use std::path::Path;
use std::time::Instant;

/// What the client saw of one job, in seconds since the submit call.
#[derive(Default)]
struct Timeline {
    /// `(arrival, completed)` of every `Progress` event.
    progress: Vec<(f64, usize)>,
    /// Arrival of `Completed`, if the job completed.
    completed: Option<f64>,
}

/// Submits `spec` and follows the job's event stream to its end.
fn follow(svc: &mut dyn CampaignService, spec: JobSpec) -> Timeline {
    let t0 = Instant::now();
    let job = svc.submit(spec).expect("the service accepts the job");
    let stream = svc.watch(&job, true).expect("the job can be watched");
    let mut timeline = Timeline::default();
    for event in stream {
        let at = t0.elapsed().as_secs_f64();
        match event {
            ServiceEvent::Progress { completed, .. } => timeline.progress.push((at, completed)),
            ServiceEvent::Completed { .. } => timeline.completed = Some(at),
            ServiceEvent::Failed { error } => eprintln!("perfbench: job failed: {error}"),
            _ => {}
        }
    }
    timeline
}

/// The `chain-server` topology: daemon + process service in this
/// process, one worker process (this executable re-exec'd as `worker`),
/// a remote client on loopback.
fn follow_served(db: &Path, spec: JobSpec) -> Timeline {
    let exe = std::env::current_exe().expect("own executable path");
    let worker = vec![exe.to_string_lossy().into_owned(), "worker".to_owned()];
    let config = ServerConfig::new(db, worker).workers(1).chunk(SERVER_CHUNK);
    let daemon =
        Daemon::bind("127.0.0.1:0", ProcessService::new(config)).expect("bind a loopback port");
    let addr = daemon.local_addr().expect("bound address").to_string();
    let server = std::thread::spawn(move || daemon.serve());
    let mut client = RemoteService::connect(addr).expect("the daemon answers");
    let timeline = follow(&mut client, spec);
    client.shutdown().expect("the daemon shuts down");
    server
        .join()
        .expect("daemon thread")
        .expect("the daemon served to shutdown");
    timeline
}

/// Runs one sample in `dir` (which holds `template.db`) and returns its
/// measurements by name.
pub fn run(workload: Workload, seed: u64, dir: &Path) -> Vec<(&'static str, f64)> {
    let campaign = workload.campaign(seed);
    let db = dir.join("sample.db");
    copy_database(&dir.join("template.db"), &db);
    let spec = JobSpec::new(CampaignRef::Name(campaign.name.clone())).options(workload.options());
    let timeline = if workload == Workload::ChainServer {
        follow_served(&db, spec)
    } else {
        let mut svc = LocalService::new(&db, standard_provider());
        let timeline = follow(&mut svc, spec);
        svc.join();
        timeline
    };

    let (first, last) = match (timeline.progress.first(), timeline.progress.last()) {
        (Some(&first), Some(&last)) if timeline.completed.is_some() => (first, last),
        _ => return vec![("failed", 1.0)],
    };
    let completed = timeline.completed.unwrap_or(f64::NAN);
    let gaps: Vec<f64> = timeline
        .progress
        .windows(2)
        .map(|w| w[1].0 - w[0].0)
        .collect();
    vec![
        ("failed", 0.0),
        ("setup_s", first.0),
        (
            "exp_per_s",
            (last.1 - first.1) as f64 / (last.0 - first.0).max(f64::MIN_POSITIVE),
        ),
        ("campaign_s", completed),
        (
            "db_bytes_per_exp",
            database_bytes(&db) as f64 / campaign.experiments as f64,
        ),
        ("peak_rss_mb", peak_rss_kib() as f64 / 1024.0),
        ("progress_gap_p50_s", quantile(&gaps, 0.5)),
        ("progress_gap_p99_s", quantile(&gaps, 0.99)),
        ("finish_s", completed - last.0),
    ]
}
