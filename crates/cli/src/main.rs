//! `goofi` — command-line front-end for GOOFI-rs.
//!
//! The paper drives GOOFI through a Swing GUI whose dialogs configure
//! targets (Fig. 5), define campaigns (Fig. 6) and monitor progress
//! (Fig. 7). This binary is the same tool surface as subcommands:
//!
//! ```text
//! goofi configure --db goofi.json --target thor-card --workload sort16
//! goofi setup     --db goofi.json --campaign c1 --target thor-card \
//!                 --workload sort16 --technique scifi --chain cpu \
//!                 --experiments 200 --window 0:2000 --seed 7 [--preinject] [--detail]
//! goofi run       --db goofi.json --campaign c1
//! goofi analyze   --db goofi.json --campaign c1
//! goofi locations --db goofi.json --target thor-card [--chain cpu]
//! goofi list      --db goofi.json
//! goofi sql       --db goofi.json "SELECT outcome, COUNT(*) FROM ..."
//! ```
//!
//! Every campaign-executing verb goes through one [`CampaignService`]:
//! `run`/`resume` construct an in-process [`LocalService`], while
//! `serve` exposes the multi-process [`ProcessService`] over the wire
//! protocol and `submit`/`watch`/`attach`/`status`/`cancel`/`jobs`
//! drive it remotely through [`RemoteService`]. One event renderer
//! ([`CliSink`]) and one summary formatter serve them all.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod args;

use args::{parse, ParsedArgs};
use goofi_core::{
    analyze_campaign, drain, Campaign, CampaignRef, CampaignService, EventSink, ExecOptions,
    FaultModel, GoofiStore, JobSpec, JobStatus, JobSummary, LocalService, LocationSelector,
    LogMode, Pruning, ServiceEvent, TargetSystemInterface, Technique, TelemetryMode,
};
use goofi_net::RemoteService;
use goofi_server::{Daemon, ProcessService, ServerConfig};
use goofi_targets::{analysis_target, standard_provider, standard_target};
use goofi_workloads::workload_by_name;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
goofi — generic fault injection tool (GOOFI reproduction)

USAGE:
  goofi configure --db FILE --target NAME --workload WORKLOAD
  goofi setup     --db FILE --campaign NAME --target NAME --workload WORKLOAD
                  [--technique scifi|swifi-preruntime|swifi-runtime]
                  [--chain CHAIN [--field FIELD]] [--memory START:WORDS]
                  [--model bit-flip|multi-bit-flip|stuck-at|intermittent]
                  [--experiments N] [--window START:END] [--seed N]
                  [--detail] [--preinject]
  goofi run       --db FILE --campaign NAME [--workers N] [--no-checkpoint]
                  [--telemetry off|metrics|trace] [--pruning off|campaign|static]
                  [--class-exec] [--predict]
  goofi resume    --db FILE --campaign NAME [--workers N] [--no-checkpoint]
                  [--telemetry off|metrics|trace] [--pruning off|campaign|static]
                  [--class-exec] [--predict]
  goofi serve     --db FILE [--addr HOST:PORT] [--workers N] [--chunk N]
  goofi submit    --addr HOST:PORT --campaign NAME [--resume]
                  [--no-checkpoint] [--telemetry off|metrics|trace]
                  [--pruning off|campaign|static] [--class-exec] [--predict]
                  [--watch]
  goofi watch     --addr HOST:PORT --job ID
  goofi attach    --addr HOST:PORT --job ID
  goofi status    --addr HOST:PORT --job ID
  goofi cancel    --addr HOST:PORT --job ID
  goofi jobs      --addr HOST:PORT
  goofi shutdown  --addr HOST:PORT
  goofi analyze   --db FILE --campaign NAME
  goofi analyze   --workload WORKLOAD [--target NAME|stackvm] [--json]
                  [--lint] [--fault NAME@T1,T2[;...]] [--horizon N]
                  (with --lint/--json: exit status 2 when a gating
                   lint fires)
  goofi report    --db FILE --campaign NAME [--lambda L] [--mission HOURS]
                  [--trace-out FILE]
  goofi locations --db FILE --target NAME [--chain CHAIN]
  goofi workloads [--show WORKLOAD]
  goofi list      --db FILE
  goofi sql       --db FILE \"STATEMENT\"
  goofi db stats   --db FILE [--json]
  goofi db compact --db FILE

Workloads: sortN, matmulN, crc32xN, fibN, pid (Thor);
           sumN (with --target stackvm, analyze only)
";

/// Exit status of `goofi analyze --lint`: at least one gating lint fired.
const EXIT_LINT: u8 = 2;

/// A command's stdout plus its exit code. Most verbs exit 0 on success;
/// `analyze --lint`/`--json` exits [`EXIT_LINT`] when a gating lint
/// fires, so CI can gate on broken campaigns without parsing output.
struct CmdOutput {
    text: String,
    code: u8,
}

impl From<String> for CmdOutput {
    fn from(text: String) -> CmdOutput {
        CmdOutput { text, code: 0 }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `goofi worker` is the child process the campaign server spawns;
    // its stdout carries protocol frames, so it bypasses run() and its
    // stdout printing entirely.
    if argv.first().map(String::as_str) == Some("worker") {
        return match goofi_server::worker_main() {
            0 => ExitCode::SUCCESS,
            _ => ExitCode::FAILURE,
        };
    }
    match run(&argv) {
        Ok(output) => {
            print!("{}", output.text);
            ExitCode::from(output.code)
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn load_store(path: &str) -> Result<GoofiStore, String> {
    if Path::new(path).exists() {
        GoofiStore::load(path).map_err(|e| e.to_string())
    } else {
        Ok(GoofiStore::new())
    }
}

fn run(argv: &[String]) -> Result<CmdOutput, String> {
    let parsed = parse(argv)?;
    if parsed.command.is_empty() || parsed.has_flag("help") {
        return Ok(USAGE.to_owned().into());
    }
    // `analyze` is the one verb with a non-binary exit status (lint
    // gating); everything else reports plain text.
    if parsed.command == "analyze" {
        return cmd_analyze(&parsed);
    }
    match parsed.command.as_str() {
        "configure" => cmd_configure(&parsed),
        "setup" => cmd_setup(&parsed),
        "run" => cmd_run(&parsed),
        "resume" => cmd_resume(&parsed),
        "serve" => cmd_serve(&parsed),
        "submit" => cmd_submit(&parsed),
        "watch" => cmd_watch(&parsed, true),
        "attach" => cmd_watch(&parsed, false),
        "status" => cmd_status(&parsed),
        "cancel" => cmd_cancel(&parsed),
        "jobs" => cmd_jobs(&parsed),
        "shutdown" => cmd_shutdown(&parsed),
        "report" => cmd_report(&parsed),
        "locations" => cmd_locations(&parsed),
        "workloads" => cmd_workloads(&parsed),
        "list" => cmd_list(&parsed),
        "sql" => cmd_sql(&parsed),
        "db" => cmd_db(&parsed),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
    .map(CmdOutput::from)
}

/// Configuration phase (paper Fig. 5): store the target description.
fn cmd_configure(p: &ParsedArgs) -> Result<String, String> {
    let db = p.require("db")?;
    let target_name = p.require("target")?;
    let workload = p.require("workload")?;
    let target = standard_target(target_name, workload).map_err(|e| e.to_string())?;
    let config = target.describe();
    let mut store = load_store(db)?;
    store.put_target(&config).map_err(|e| e.to_string())?;
    store.save(db).map_err(|e| e.to_string())?;
    let chains: Vec<String> = config
        .chains
        .iter()
        .map(|c| {
            format!(
                "{} ({} bits, {} locations)",
                c.name,
                c.width,
                c.fields.len()
            )
        })
        .collect();
    Ok(format!(
        "configured target `{target_name}`\nscan chains: {}\n",
        chains.join(", ")
    ))
}

/// Set-up phase (paper Fig. 6): define and store a campaign.
fn cmd_setup(p: &ParsedArgs) -> Result<String, String> {
    let db = p.require("db")?;
    let name = p.require("campaign")?;
    let target = p.require("target")?;
    let workload = p.require("workload")?;
    if workload_by_name(workload).is_none() {
        return Err(format!("unknown workload `{workload}`"));
    }
    let technique_name = p.get("technique").unwrap_or("scifi");
    let technique = Technique::parse(technique_name)
        .ok_or_else(|| format!("unknown technique `{technique_name}`"))?;
    let model = match p.get("model").unwrap_or("bit-flip") {
        "bit-flip" => FaultModel::BitFlip,
        "multi-bit-flip" => FaultModel::MultiBitFlip {
            bits: p.int_or("bits", 2)? as usize,
        },
        "stuck-at" => FaultModel::StuckAt {
            value: p.get("stuck-value").unwrap_or("1") == "1",
            reassert_period: p.int_or("period", 50)?,
        },
        "intermittent" => FaultModel::Intermittent {
            activations: p.int_or("activations", 3)? as usize,
        },
        other => return Err(format!("unknown fault model `{other}`")),
    };
    let (start, end) = p.window("window", (0, 1000))?;
    let mut builder = Campaign::builder(name, target, workload)
        .technique(technique)
        .fault_model(model)
        .window(start, end)
        .experiments(p.int_or("experiments", 100)? as usize)
        .seed(p.int_or("seed", 1)?)
        .pre_injection_analysis(p.has_flag("preinject"));
    if p.has_flag("detail") {
        builder = builder.log_mode(LogMode::Detail);
    }
    match technique {
        Technique::Scifi => {
            builder = builder.select(LocationSelector::Chain {
                chain: p.get("chain").unwrap_or("cpu").to_owned(),
                field: p.get("field").map(str::to_owned),
            });
        }
        Technique::SwifiPreRuntime | Technique::SwifiRuntime => {
            let spec = p.get("memory").unwrap_or("0:1024");
            let (start, words) = spec
                .split_once(':')
                .ok_or_else(|| "--memory must be START:WORDS".to_owned())?;
            builder = builder.select(LocationSelector::Memory {
                start: parse_u32(start)?,
                words: parse_u32(words)?,
            });
        }
    }
    let campaign = builder.build().map_err(|e| e.to_string())?;
    let mut store = load_store(db)?;
    store.put_campaign(&campaign).map_err(|e| e.to_string())?;
    store.save(db).map_err(|e| e.to_string())?;
    Ok(format!(
        "campaign `{}` stored: {} experiments, {} via {}\n",
        campaign.name, campaign.experiments, campaign.fault_model, campaign.technique
    ))
}

fn parse_u32(s: &str) -> Result<u32, String> {
    if let Some(hex) = s.strip_prefix("0x") {
        u32::from_str_radix(hex, 16).map_err(|_| format!("bad number `{s}`"))
    } else {
        s.parse().map_err(|_| format!("bad number `{s}`"))
    }
}

/// The Fig. 7 progress window as a log line consumer — one renderer for
/// local runs, worker-process campaigns and remote watches, fed by
/// [`drain`] until the job's terminal event.
struct CliSink;

impl EventSink for CliSink {
    fn event(&mut self, ev: &ServiceEvent) {
        match ev {
            ServiceEvent::Started { campaign, total } => {
                eprintln!("campaign `{campaign}`: {total} experiments");
            }
            ServiceEvent::Progress {
                completed, total, ..
            } if completed % 50 == 0 || completed == total => {
                eprintln!("  {completed}/{total}");
            }
            ServiceEvent::WorkerSpawned { worker, pid } => {
                eprintln!("worker {worker}: pid {pid}");
            }
            ServiceEvent::WorkerLost { worker, reissued } => {
                eprintln!("worker {worker} lost, {reissued} experiments re-issued");
            }
            ServiceEvent::Finished { completed, stopped } => {
                eprintln!(
                    "finished: {completed} experiments{}",
                    if *stopped { " (stopped)" } else { "" }
                );
            }
            _ => {}
        }
    }
}

/// Submits `spec`, renders progress on stderr, and returns the finished
/// summary — the one execution path `run`, `resume` and `submit --watch`
/// share, whatever service backs it.
fn run_job(svc: &mut dyn CampaignService, spec: JobSpec) -> Result<JobSummary, String> {
    let job = svc.submit(spec).map_err(|e| e.to_string())?;
    let stream = svc.watch(&job, true).map_err(|e| e.to_string())?;
    drain(stream, &mut CliSink).map_err(|e| e.to_string())
}

/// The stdout summary of a finished campaign run.
fn render_run_summary(summary: &JobSummary) -> String {
    let worker_note = if summary.workers > 1 {
        format!(" ({} workers)", summary.workers)
    } else {
        String::new()
    };
    let mut out = format!(
        "{}pruned by pre-injection analysis: {}{}\n",
        summary.stats.report(),
        summary.pruned,
        worker_note
    );
    if summary.predicted > 0 {
        out.push_str(&format!(
            "predicted by propagation analysis: {}\n",
            summary.predicted
        ));
    }
    out.push_str(&class_savings_line(summary));
    if let Some(tel) = &summary.telemetry {
        out.push('\n');
        out.push_str(&tel.render());
    }
    out
}

/// One-line equivalence-class execution summary for `goofi run`/`resume`,
/// empty when the run fanned nothing out.
fn class_savings_line(summary: &JobSummary) -> String {
    match summary.class_savings {
        Some(s) => format!(
            "class execution: {} representatives executed, {} experiments fanned out\n",
            s.representatives, s.fanned
        ),
        None => String::new(),
    }
}

/// Shared option parsing for every verb that executes a campaign.
fn exec_options(p: &ParsedArgs) -> Result<ExecOptions, String> {
    let telemetry = match p.get("telemetry") {
        None => TelemetryMode::Off,
        Some(v) => TelemetryMode::parse(v).ok_or_else(|| {
            format!("option --telemetry must be off, metrics or trace (got `{v}`)")
        })?,
    };
    let pruning = match p.get("pruning") {
        // Class execution and verdict prediction both derive from the
        // static analysis the static pruner builds, so `--class-exec`
        // and `--predict` default to static pruning and compose with it
        // out of the box.
        None if p.has_flag("class-exec") || p.has_flag("predict") => Pruning::Static,
        None => Pruning::default(),
        Some(v) => v
            .parse::<Pruning>()
            .map_err(|e| format!("option --pruning: {e}"))?,
    };
    if p.has_flag("predict") && pruning != Pruning::Static {
        return Err("--predict requires --pruning static".to_owned());
    }
    Ok(ExecOptions::new()
        .workers(p.workers()?)
        .checkpoint(!p.has_flag("no-checkpoint"))
        .telemetry(telemetry)
        .pruning(pruning)
        .prediction(p.has_flag("predict"))
        .class_execution(p.has_flag("class-exec")))
}

/// Fault-injection phase with the Fig. 7 progress line: a submit + watch
/// against an in-process [`LocalService`]. Experiment rows stream into a
/// WAL-style journal beside the database as they finish, so an
/// interrupted campaign loses nothing and `goofi resume` picks up at the
/// exact experiment where the run died.
fn cmd_run(p: &ParsedArgs) -> Result<String, String> {
    let db = p.require("db")?;
    let name = p.require("campaign")?;
    let mut svc = LocalService::new(db, standard_provider());
    let spec = JobSpec::new(CampaignRef::Name(name.to_owned())).options(exec_options(p)?);
    let summary = run_job(&mut svc, spec)?;
    Ok(render_run_summary(&summary))
}

/// Resumes an interrupted campaign — the same service path as `goofi
/// run` with [`JobSpec::resume`] set: stored experiments are reused, the
/// missing ones run (the progress window's "restart").
fn cmd_resume(p: &ParsedArgs) -> Result<String, String> {
    let db = p.require("db")?;
    let name = p.require("campaign")?;
    let mut svc = LocalService::new(db, standard_provider());
    let spec = JobSpec::new(CampaignRef::Name(name.to_owned()))
        .options(exec_options(p)?)
        .resume(true);
    let summary = run_job(&mut svc, spec)?;
    let mut out = format!(
        "campaign `{name}` complete: {} experiments\n{}",
        summary.experiments,
        summary.stats.report()
    );
    out.push_str(&class_savings_line(&summary));
    if let Some(tel) = &summary.telemetry {
        out.push('\n');
        out.push_str(&tel.render());
    }
    Ok(out)
}

/// Runs the campaign daemon: a [`ProcessService`] farming experiments
/// out to `goofi worker` children, served over the wire protocol. Blocks
/// until `goofi shutdown`; the bound address is announced on stderr
/// first, so `--addr 127.0.0.1:0` works in scripts.
fn cmd_serve(p: &ParsedArgs) -> Result<String, String> {
    let db = p.require("db")?;
    let addr = p.get("addr").unwrap_or("127.0.0.1:7077");
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let config = ServerConfig::new(
        db,
        vec![exe.to_string_lossy().into_owned(), "worker".into()],
    )
    .workers(p.workers()?)
    .chunk(p.int_or("chunk", 16)? as usize);
    let daemon = Daemon::bind(addr, ProcessService::new(config)).map_err(|e| e.to_string())?;
    eprintln!(
        "goofi-server: listening on {}",
        daemon.local_addr().map_err(|e| e.to_string())?
    );
    daemon.serve().map_err(|e| e.to_string())?;
    Ok("server shut down\n".to_owned())
}

fn remote(p: &ParsedArgs) -> Result<RemoteService, String> {
    RemoteService::connect(p.require("addr")?).map_err(|e| e.to_string())
}

/// Submits a campaign to a running server; `--watch` stays attached and
/// renders the run exactly like a local `goofi run`.
fn cmd_submit(p: &ParsedArgs) -> Result<String, String> {
    if p.get("workers").is_some() {
        return Err(
            "goofi submit takes no --workers: the server sizes its worker pool with `goofi serve --workers N`"
                .to_owned(),
        );
    }
    let name = p.require("campaign")?;
    let mut svc = remote(p)?;
    let spec = JobSpec::new(CampaignRef::Name(name.to_owned()))
        .options(exec_options(p)?)
        .resume(p.has_flag("resume"));
    if p.has_flag("watch") {
        let summary = run_job(&mut svc, spec)?;
        return Ok(render_run_summary(&summary));
    }
    let job = svc.submit(spec).map_err(|e| e.to_string())?;
    Ok(format!(
        "submitted: {job} (goofi watch --addr {} --job {job})\n",
        svc.addr()
    ))
}

/// Streams a job's events: `watch` replays from the beginning, `attach`
/// joins live. Both render the final summary when the job completes.
fn cmd_watch(p: &ParsedArgs, from_start: bool) -> Result<String, String> {
    let job = p.require("job")?;
    let mut svc = remote(p)?;
    let stream = svc.watch(job, from_start).map_err(|e| e.to_string())?;
    let summary = drain(stream, &mut CliSink).map_err(|e| e.to_string())?;
    Ok(render_run_summary(&summary))
}

fn render_status(status: &JobStatus) -> String {
    match status {
        JobStatus::Queued => "queued".to_owned(),
        JobStatus::Running { completed, total } => format!("running {completed}/{total}"),
        JobStatus::Done { summary } => format!("done ({} experiments)", summary.experiments),
        JobStatus::Failed { error } => format!("failed: {error}"),
        JobStatus::Cancelled { completed } => format!("cancelled after {completed}"),
        other => format!("{other:?}"),
    }
}

/// One job's status line.
fn cmd_status(p: &ParsedArgs) -> Result<String, String> {
    let job = p.require("job")?;
    let mut svc = remote(p)?;
    let status = svc.status(job).map_err(|e| e.to_string())?;
    Ok(format!("{job}: {}\n", render_status(&status)))
}

/// Asks the server to stop a job at the next experiment boundary.
fn cmd_cancel(p: &ParsedArgs) -> Result<String, String> {
    let job = p.require("job")?;
    let mut svc = remote(p)?;
    let delivered = svc.cancel(job).map_err(|e| e.to_string())?;
    Ok(if delivered {
        format!("job {job}: stop requested\n")
    } else {
        format!("job {job} had already finished\n")
    })
}

/// Lists the server's jobs in submission order.
fn cmd_jobs(p: &ParsedArgs) -> Result<String, String> {
    let mut svc = remote(p)?;
    let jobs = svc.jobs().map_err(|e| e.to_string())?;
    if jobs.is_empty() {
        return Ok("no jobs\n".to_owned());
    }
    let mut out = String::new();
    for (job, status) in jobs {
        out.push_str(&format!("{job}  {}\n", render_status(&status)));
    }
    Ok(out)
}

/// Stops the server's accept loop.
fn cmd_shutdown(p: &ParsedArgs) -> Result<String, String> {
    let mut svc = remote(p)?;
    svc.shutdown().map_err(|e| e.to_string())?;
    Ok(format!("server at {} shutting down\n", svc.addr()))
}

/// Analysis phase. With `--workload` this is the *static* workload
/// analyzer (CFG, dead windows, washout, lints — no campaign, no
/// reference run); with `--db --campaign` it is the automatically
/// generated classifier over the stored experiments.
fn cmd_analyze(p: &ParsedArgs) -> Result<CmdOutput, String> {
    if let Some(workload) = p.get("workload") {
        return cmd_analyze_workload(p, workload);
    }
    let db = p.require("db")?;
    let name = p.require("campaign")?;
    let store = load_store(db)?;
    let stats = analyze_campaign(&store, name).map_err(|e| e.to_string())?;
    Ok(stats.report().into())
}

/// Parses `--fault` specs: `NAME@T1[,T2...]`, several separated by `;`.
/// Each names an architectural location of the target (a scan-chain
/// field such as `R1` or `SP`); the fault flips its first bit at the
/// listed activation times, so campaign lints can vet hand-written
/// fault lists without running anything.
fn parse_fault_specs(
    config: &goofi_core::TargetSystemConfig,
    spec: &str,
) -> Result<Vec<goofi_core::PlannedFault>, String> {
    let mut faults = Vec::new();
    for part in spec.split(';').filter(|s| !s.trim().is_empty()) {
        let (name, times_str) = part
            .trim()
            .split_once('@')
            .ok_or_else(|| format!("--fault spec `{part}` must be NAME@T1[,T2...]"))?;
        let target = config
            .chains
            .iter()
            .find_map(|c| {
                c.field(name).map(|f| goofi_core::Location::ChainBit {
                    chain: c.name.clone(),
                    bit: f.offset,
                })
            })
            .ok_or_else(|| format!("--fault location `{name}` is not a field of any chain"))?;
        let times: Vec<u64> = times_str
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .map_err(|_| format!("bad fault time `{t}`"))
            })
            .collect::<Result<_, String>>()?;
        if times.is_empty() {
            return Err(format!("--fault spec `{part}` lists no activation times"));
        }
        let model = match times.len() {
            1 => FaultModel::BitFlip,
            n => FaultModel::Intermittent { activations: n },
        };
        faults.push(goofi_core::PlannedFault {
            model,
            targets: vec![target],
            times,
        });
    }
    Ok(faults)
}

/// `goofi analyze --workload W`: static CFG + dataflow analysis of a
/// bundled workload (Thor by default, `--target stackvm` for the stack
/// machine), with human or `--json` output. `--fault` seeds a fault
/// list for the campaign lints; with `--lint` or `--json` the exit
/// code is [`EXIT_LINT`] when any gating lint fires.
fn cmd_analyze_workload(p: &ParsedArgs, workload: &str) -> Result<CmdOutput, String> {
    let horizon = p.int_or("horizon", 1_000_000)?;
    let mut target = analysis_target(p.get("target").unwrap_or("thor-card"), workload)
        .map_err(|e| e.to_string())?;
    let mut analysis = target.static_analysis(horizon).map_err(|e| e.to_string())?;
    let config = target.describe();
    if let Some(spec) = p.get("fault") {
        let faults = parse_fault_specs(&config, spec)?;
        let campaign_lints = analysis.campaign_lints(&config, &faults);
        analysis.lints.extend(campaign_lints);
    }
    let gating = analysis.lints.iter().filter(|l| l.kind.gates()).count();
    let code = if (p.has_flag("lint") || p.has_flag("json")) && gating > 0 {
        EXIT_LINT
    } else {
        0
    };
    if p.has_flag("json") {
        return Ok(CmdOutput {
            text: format!("{}\n", analysis.to_json()),
            code,
        });
    }

    let mut out = format!(
        "workload `{workload}`: {} basic blocks, {} CFG edges\n\
         replayed {} instructions (pc only, horizon {})\n",
        analysis.blocks, analysis.edges, analysis.steps, analysis.horizon
    );
    if analysis.dead.is_empty() {
        out.push_str("\nno statically dead injection windows\n");
    } else {
        out.push_str(
            "\nstatically dead injection windows (fault is overwritten before any read):\n",
        );
        let mut total = 0u64;
        for (loc, windows) in &analysis.dead {
            let slots: u64 = windows.iter().map(|&(s, e)| e - s + 1).sum();
            total += slots;
            out.push_str(&format!(
                "  {loc:<12} {slots:>6} dead slots in {:>4} windows, first {:?}\n",
                windows.len(),
                windows[0]
            ));
        }
        out.push_str(&format!(
            "  total: {total} provably dead (location, time) pairs\n"
        ));
    }
    if !analysis.equiv.is_empty() {
        let windows: usize = analysis.equiv.values().map(Vec::len).sum();
        out.push_str(&format!(
            "\nequivalence windows: {windows} across {} locations\n",
            analysis.equiv.len()
        ));
    }
    if !analysis.washout.is_empty() {
        let windows: usize = analysis.washout.values().map(Vec::len).sum();
        out.push_str(&format!(
            "washout windows (fault provably overwritten later): {windows} across {} locations\n",
            analysis.washout.len()
        ));
    }
    if analysis.lints.is_empty() {
        out.push_str("\nlints: none\n");
    } else {
        out.push_str("\nlints:\n");
        for lint in &analysis.lints {
            let gate = if lint.kind.gates() { " (gating)" } else { "" };
            out.push_str(&format!("  [{}]{gate} {}\n", lint.kind, lint.message));
        }
        if code != 0 {
            out.push_str(&format!("\n{gating} gating lint(s): exit status {code}\n"));
        }
    }
    Ok(CmdOutput { text: out, code })
}

/// Full campaign report: classification, per-location sensitivity,
/// detection latency, and the dependability figures the coverage feeds
/// (paper Section 1's analytical models).
fn cmd_report(p: &ParsedArgs) -> Result<String, String> {
    let db = p.require("db")?;
    let name = p.require("campaign")?;
    let store = load_store(db)?;
    let campaign = store.get_campaign(name).map_err(|e| e.to_string())?;
    let config = store
        .get_target(&campaign.target)
        .map_err(|e| e.to_string())?;
    let records = store.experiments_of(name).map_err(|e| e.to_string())?;
    let ref_name = goofi_core::reference_experiment_name(name);
    let reference = records
        .iter()
        .find(|r| r.name == ref_name)
        .ok_or_else(|| format!("campaign `{name}` has no reference run"))?
        .to_run();
    let runs: Vec<goofi_core::ExperimentRun> = records
        .iter()
        .filter(|r| r.name != ref_name)
        .map(goofi_core::ExperimentRecord::to_run)
        .collect();

    let stats = goofi_core::CampaignStats::from_runs(&reference, &runs);
    let mut out = format!("campaign `{name}`\n\n{}\n", stats.report());

    let sensitivity = goofi_core::LocationSensitivity::from_runs(&reference, &runs, &config);
    out.push_str("per-location sensitivity (most critical first):\n");
    out.push_str(&sensitivity.report(2));

    if let Some(lat) = goofi_core::detection_latency(&runs) {
        out.push_str(&format!(
            "\ndetection latency (instructions): mean {:.1}, median {}, p95 {}, max {} ({} samples)\n",
            lat.mean, lat.median, lat.p95, lat.max, lat.count
        ));
    }

    let lambda = p
        .get("lambda")
        .unwrap_or("1e-4")
        .parse::<f64>()
        .map_err(|_| "--lambda must be a number".to_owned())?;
    let mission = p
        .get("mission")
        .unwrap_or("5000")
        .parse::<f64>()
        .map_err(|_| "--mission must be a number".to_owned())?;
    let coverage = stats.detection_coverage();
    let (lo, pt, hi) = goofi_core::duplex_reliability_interval(coverage, lambda, mission);
    out.push_str(&format!(
        "\ndependability (duplex, lambda={lambda}/h, mission={mission}h):\n  R(t) = {pt:.6} [{lo:.6}, {hi:.6}] from the coverage CI\n"
    ));

    // Static pre-injection analysis, when the campaign was pruned or ran
    // with `--class-exec`: kept/pruned per location class and the fault
    // equivalence classes with their multiplicities — dead classes
    // collapse to the reference outcome, live classes executed one
    // representative for all members. The analysis holds dead classes
    // only when the run pruned, and then every member was pruned, so a
    // fault counts as pruned exactly when a dead class holds it.
    if let Some(sa) = store.get_static_analysis(name).map_err(|e| e.to_string())? {
        out.push_str(&format!(
            "\nstatic pre-injection analysis ({} blocks, {} edges, horizon {}):\n",
            sa.blocks, sa.edges, sa.horizon
        ));
        let dead: Vec<_> = sa
            .classes
            .iter()
            .filter(|c| c.kind == goofi_core::ClassKind::Dead)
            .collect();
        let pruned_rows: std::collections::HashSet<String> = dead
            .iter()
            .flat_map(|c| &c.members)
            .map(|&i| goofi_core::logged_experiment_name(name, i))
            .collect();
        let mut per_loc: std::collections::BTreeMap<String, (usize, usize)> =
            std::collections::BTreeMap::new();
        for r in &records {
            let Some(fault) = &r.data.fault else { continue };
            let mut names: Vec<String> = fault
                .targets
                .iter()
                .map(|t| {
                    t.architectural_name(&config)
                        .unwrap_or_else(|| "(untraceable)".into())
                })
                .collect();
            names.sort();
            names.dedup();
            let counts = per_loc.entry(names.join(",")).or_default();
            if pruned_rows.contains(&r.name) {
                counts.1 += 1;
            } else {
                counts.0 += 1;
            }
        }
        out.push_str("  location           kept  pruned\n");
        for (loc, (kept, pruned)) in &per_loc {
            out.push_str(&format!("  {loc:<16} {kept:>6} {pruned:>7}\n"));
        }
        if !dead.is_empty() {
            out.push_str(&format!(
                "  equivalence classes among pruned faults: {}\n",
                dead.len()
            ));
            for c in dead.iter().take(8) {
                out.push_str(&format!(
                    "    {} in dead window {:?}: multiplicity {}\n",
                    c.location, c.window, c.multiplicity
                ));
            }
            if dead.len() > 8 {
                out.push_str(&format!("    (+{} more)\n", dead.len() - 8));
            }
        }
        // Live classes: the campaign ran with `--class-exec`, executing
        // one representative per class and fanning its verdict out.
        let (live_classes, fanned) = sa.class_savings();
        if live_classes > 0 {
            out.push_str(&format!(
                "  class execution savings: {live_classes} classes executed, \
                 {fanned} faults fanned out ({fanned} experiments avoided)\n"
            ));
            for c in sa
                .classes
                .iter()
                .filter(|c| c.kind == goofi_core::ClassKind::Live)
                .take(8)
            {
                out.push_str(&format!(
                    "    {} in equivalence window {:?}: {} members, representative #{}\n",
                    c.location, c.window, c.multiplicity, c.representative
                ));
            }
            if live_classes > 8 {
                out.push_str(&format!("    (+{} more)\n", live_classes - 8));
            }
        }
    }

    // Campaign telemetry rollup, when the run recorded one.
    match store.get_telemetry(name).map_err(|e| e.to_string())? {
        Some(tel) => {
            out.push('\n');
            out.push_str(&tel.render());
            if let Some(path) = p.get("trace-out") {
                std::fs::write(path, tel.to_trace_jsonl()).map_err(|e| e.to_string())?;
                out.push_str(&format!(
                    "trace: {} logged spans written to {path}\n",
                    tel.spans.len()
                ));
            }
        }
        None => {
            if p.get("trace-out").is_some() {
                return Err(format!(
                    "campaign `{name}` has no stored telemetry; run with --telemetry metrics|trace"
                ));
            }
        }
    }
    Ok(out)
}

/// Lists a stored target's injectable locations (the Fig. 6 hierarchy).
fn cmd_locations(p: &ParsedArgs) -> Result<String, String> {
    let db = p.require("db")?;
    let name = p.require("target")?;
    let store = load_store(db)?;
    let config = store.get_target(name).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for chain in &config.chains {
        if let Some(filter) = p.get("chain") {
            if filter != chain.name {
                continue;
            }
        }
        out.push_str(&format!("{} ({} bits)\n", chain.name, chain.width));
        for f in &chain.fields {
            out.push_str(&format!(
                "  {:<12} bits {:>5}..{:<5}{}\n",
                f.name,
                f.offset,
                f.offset + f.width,
                if f.writable { "" } else { "  [read-only]" }
            ));
        }
    }
    Ok(out)
}

/// Lists the bundled workloads, or shows one workload's assembly source
/// and disassembled image.
fn cmd_workloads(p: &ParsedArgs) -> Result<String, String> {
    match p.get("show") {
        None => {
            let mut out = String::from("bundled workloads (N = size parameter):\n");
            for (name, descr) in [
                ("sortN", "selection sort over N pseudo-random words"),
                ("matmulN", "N x N integer matrix multiply"),
                ("crc32xN", "CRC-32 over N words"),
                ("fibN", "iterative Fibonacci"),
                ("pid", "cyclic PID controller (environment-coupled)"),
            ] {
                out.push_str(&format!("  {name:<10} {descr}\n"));
            }
            Ok(out)
        }
        Some(name) => {
            let w = workload_by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
            Ok(format!(
                "; workload `{}` ({} words)\n\n== source ==\n{}\n== image ==\n{}",
                w.name,
                w.program.word_count(),
                w.source,
                thor_rd::disassemble(&w.program, 0x4000)
            ))
        }
    }
}

fn cmd_list(p: &ParsedArgs) -> Result<String, String> {
    let db = p.require("db")?;
    let store = load_store(db)?;
    let targets = store.list_targets().map_err(|e| e.to_string())?;
    let campaigns = store.list_campaigns().map_err(|e| e.to_string())?;
    Ok(format!(
        "targets:   {}\ncampaigns: {}\n",
        if targets.is_empty() {
            "(none)".to_owned()
        } else {
            targets.join(", ")
        },
        if campaigns.is_empty() {
            "(none)".to_owned()
        } else {
            campaigns.join(", ")
        }
    ))
}

/// Ad-hoc SQL over the tool database (the paper's "tailor made scripts").
/// The statement runs on an in-memory copy; a mutating one rewrites the
/// file from that copy.
fn cmd_sql(p: &ParsedArgs) -> Result<String, String> {
    let db = p.require("db")?;
    let stmt = p
        .positional
        .first()
        .ok_or_else(|| "sql needs a statement argument".to_owned())?;
    let mut database = load_store(db)?.to_database().map_err(|e| e.to_string())?;
    let out = database.execute_sql(stmt).map_err(|e| e.to_string())?;
    if let goofi_db::SqlOutput::Rows(rs) = out {
        return Ok(rs.to_string());
    }
    GoofiStore::from_database(&database)
        .and_then(|mut store| store.save(db))
        .map_err(|e| e.to_string())?;
    Ok(match out {
        goofi_db::SqlOutput::Affected(n) => format!("{n} rows affected\n"),
        _ => "ok\n".to_owned(),
    })
}

/// Storage-engine maintenance: `goofi db stats` / `goofi db compact`.
fn cmd_db(p: &ParsedArgs) -> Result<String, String> {
    match p.positional.first().map(String::as_str) {
        Some("stats") => cmd_db_stats(p),
        Some("compact") => cmd_db_compact(p),
        other => Err(format!(
            "db needs a verb: `stats` or `compact` (got `{}`)",
            other.unwrap_or("")
        )),
    }
}

/// Page, WAL and index statistics of a paged database file.
fn cmd_db_stats(p: &ParsedArgs) -> Result<String, String> {
    use goofi_db::storage::{is_paged_file, PagedEngine};
    let db = p.require("db")?;
    let path = Path::new(db);
    if !path.exists() {
        return Err(format!("no database at `{db}`"));
    }
    if !is_paged_file(path) {
        return Err(format!(
            "`{db}` is a legacy JSON snapshot — run `goofi db compact --db {db}` to migrate it \
             to the paged format first"
        ));
    }
    let mut engine = PagedEngine::open(path).map_err(|e| e.to_string())?;
    let stats = engine.stats().map_err(|e| e.to_string())?;
    if p.has_flag("json") {
        return serde_json::to_string_pretty(&stats)
            .map(|s| s + "\n")
            .map_err(|e| e.to_string());
    }
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(out, "page size:   {} B", stats.page_size);
    let _ = writeln!(
        out,
        "data file:   {} pages, {} B",
        stats.page_count, stats.file_bytes
    );
    let _ = writeln!(
        out,
        "write-ahead: {} records, {} B",
        stats.wal_records, stats.wal_bytes
    );
    let dead: u64 = stats.tables.iter().map(|t| t.dead_slots).sum();
    let live: u64 = stats.tables.iter().map(|t| t.live_rows).sum();
    let _ = writeln!(
        out,
        "rows:        {live} live, {dead} dead slot(s){}",
        if dead > 0 {
            " — `goofi db compact` reclaims them"
        } else {
            ""
        }
    );
    for t in &stats.tables {
        let _ = writeln!(
            out,
            "  {:<20} {:>8} rows {:>6} dead {:>6} pages {:>8} indexed",
            t.name, t.live_rows, t.dead_slots, t.heap_pages, t.index_entries
        );
    }
    Ok(out)
}

/// Checkpoint + vacuum: rewrites the database as a compact paged file,
/// dropping dead slots and truncating the write-ahead log. Also migrates
/// legacy JSON snapshots to the paged format.
fn cmd_db_compact(p: &ParsedArgs) -> Result<String, String> {
    use goofi_db::storage::wal_path;
    let db = p.require("db")?;
    let path = Path::new(db);
    if !path.exists() {
        return Err(format!("no database at `{db}`"));
    }
    let file_len = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    let before = file_len(path) + file_len(&wal_path(path));
    load_store(db)?.compact(path).map_err(|e| e.to_string())?;
    let after = file_len(path) + file_len(&wal_path(path));
    Ok(format!("compacted `{db}`: {before} B -> {after} B\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdb(name: &str) -> String {
        let dir = std::env::temp_dir().join("goofi_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path.to_string_lossy().into_owned()
    }

    fn call(args: &[&str]) -> Result<String, String> {
        call_code(args).map(|out| out.text)
    }

    fn call_code(args: &[&str]) -> Result<CmdOutput, String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&argv)
    }

    #[test]
    fn full_flow_configure_setup_run_analyze() {
        let db = tmpdb("flow.json");
        call(&[
            "configure",
            "--db",
            &db,
            "--target",
            "thor-card",
            "--workload",
            "fib10",
        ])
        .unwrap();
        let out = call(&[
            "setup",
            "--db",
            &db,
            "--campaign",
            "c1",
            "--target",
            "thor-card",
            "--workload",
            "fib10",
            "--experiments",
            "15",
            "--window",
            "0:40",
            "--seed",
            "3",
        ])
        .unwrap();
        assert!(out.contains("campaign `c1` stored"));
        let out = call(&["run", "--db", &db, "--campaign", "c1"]).unwrap();
        assert!(out.contains("detection coverage"));
        let out = call(&["analyze", "--db", &db, "--campaign", "c1"]).unwrap();
        assert!(out.contains("experiments:"));
        assert!(out.contains("15"));
        let out = call(&["list", "--db", &db]).unwrap();
        assert!(out.contains("thor-card") && out.contains("c1"));
    }

    #[test]
    fn locations_lists_read_only_markers() {
        let db = tmpdb("loc.json");
        call(&[
            "configure",
            "--db",
            &db,
            "--target",
            "t",
            "--workload",
            "fib10",
        ])
        .unwrap();
        let out = call(&[
            "locations",
            "--db",
            &db,
            "--target",
            "t",
            "--chain",
            "boundary",
        ])
        .unwrap();
        assert!(out.contains("ADDR"));
        assert!(out.contains("[read-only]"));
        assert!(!out.contains("R0"), "filtered to boundary chain");
    }

    #[test]
    fn sql_queries_the_store() {
        let db = tmpdb("sql.json");
        call(&[
            "configure",
            "--db",
            &db,
            "--target",
            "t",
            "--workload",
            "fib10",
        ])
        .unwrap();
        let out = call(&[
            "sql",
            "--db",
            &db,
            "SELECT COUNT(*) AS n FROM TargetSystemData",
        ])
        .unwrap();
        assert!(out.contains('1'));
    }

    #[test]
    fn helpful_errors() {
        assert!(call(&["frobnicate"])
            .unwrap_err()
            .contains("unknown command"));
        assert!(call(&["run", "--db", "/tmp/definitely-missing.json"])
            .unwrap_err()
            .contains("--campaign"));
        let db = tmpdb("err.json");
        assert!(call(&[
            "setup",
            "--db",
            &db,
            "--campaign",
            "c",
            "--target",
            "t",
            "--workload",
            "warp-drive"
        ])
        .unwrap_err()
        .contains("unknown workload"));
        // Remote verbs name the unreachable server.
        assert!(
            call(&["submit", "--addr", "127.0.0.1:1", "--campaign", "c"])
                .unwrap_err()
                .contains("cannot reach goofi server")
        );
    }

    #[test]
    fn workloads_lists_and_shows() {
        let out = call(&["workloads"]).unwrap();
        assert!(out.contains("sortN"));
        let out = call(&["workloads", "--show", "fib10"]).unwrap();
        assert!(out.contains("== source =="));
        assert!(out.contains("fibout:"));
        assert!(call(&["workloads", "--show", "nope"]).is_err());
    }

    #[test]
    fn usage_on_no_command() {
        assert!(call(&[]).unwrap().contains("USAGE"));
    }

    #[test]
    fn analyze_workload_reports_windows_and_lints() {
        let out = call(&["analyze", "--workload", "sort16"]).unwrap();
        assert!(out.contains("basic blocks"), "{out}");
        assert!(out.contains("statically dead injection windows"), "{out}");
        assert!(
            out.contains("R6"),
            "the sort scratch register has windows: {out}"
        );
        // No DB and no campaign were needed.
        assert!(call(&["analyze", "--workload", "nope"]).is_err());
    }

    #[test]
    fn analyze_workload_json_roundtrips() {
        let out = call(&["analyze", "--workload", "fib10", "--json"]).unwrap();
        let parsed = goofi_core::StaticAnalysis::from_json(out.trim()).unwrap();
        assert!(parsed.blocks > 0);
        assert!(parsed.steps > 0);
        assert!(!parsed.dead.is_empty());
        // The horizon knob is honoured.
        let out = call(&["analyze", "--workload", "fib10", "--json", "--horizon", "5"]).unwrap();
        let parsed = goofi_core::StaticAnalysis::from_json(out.trim()).unwrap();
        assert_eq!(parsed.horizon, 5);
    }

    #[test]
    fn static_pruning_run_matches_unpruned_classification_and_reports() {
        let setup = |db: &str| {
            call(&[
                "configure",
                "--db",
                db,
                "--target",
                "t",
                "--workload",
                "sort8",
            ])
            .unwrap();
            call(&[
                "setup",
                "--db",
                db,
                "--campaign",
                "cs",
                "--target",
                "t",
                "--workload",
                "sort8",
                "--experiments",
                "30",
                "--window",
                "0:300",
                "--preinject",
            ])
            .unwrap();
        };
        let db_static = tmpdb("prune_static.json");
        setup(&db_static);
        let out = call(&[
            "run",
            "--db",
            &db_static,
            "--campaign",
            "cs",
            "--pruning",
            "static",
        ])
        .unwrap();
        let pruned: usize = out
            .lines()
            .find_map(|l| l.strip_prefix("pruned by pre-injection analysis: "))
            .and_then(|n| n.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .expect("run reports a pruned count");
        assert!(pruned > 0, "static pruning found nothing on sort8: {out}");

        // The campaign asks for pre-injection analysis, so the default
        // mode prunes it exactly as `--pruning static` does.
        let db_default = tmpdb("prune_default.json");
        setup(&db_default);
        let default_out = call(&["run", "--db", &db_default, "--campaign", "cs"]).unwrap();
        assert_eq!(default_out, out);

        // Unpruned, the same campaign classifies identically.
        let db_off = tmpdb("prune_off.json");
        setup(&db_off);
        let off_out = call(&[
            "run",
            "--db",
            &db_off,
            "--campaign",
            "cs",
            "--pruning",
            "off",
        ])
        .unwrap();
        let classification = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("pruned by"))
                .map(|l| l.split("  (of which").next().unwrap_or(l).to_owned())
                .collect::<Vec<_>>()
        };
        assert_eq!(classification(&out), classification(&off_out));

        // The report surfaces the persisted analysis.
        let report = call(&["report", "--db", &db_static, "--campaign", "cs"]).unwrap();
        assert!(report.contains("static pre-injection analysis"), "{report}");
        assert!(report.contains("kept  pruned"), "{report}");
        assert!(report.contains("equivalence classes"), "{report}");
        // An unpruned campaign stores no static analysis.
        let report = call(&["report", "--db", &db_off, "--campaign", "cs"]).unwrap();
        assert!(
            !report.contains("static pre-injection analysis"),
            "{report}"
        );
        // Bad modes are rejected with the option and the accepted values
        // named; trace-based pruning is gone.
        for mode in ["psychic", "trace"] {
            let err = call(&[
                "run",
                "--db",
                &db_static,
                "--campaign",
                "cs",
                "--pruning",
                mode,
            ])
            .unwrap_err();
            assert!(err.contains("--pruning"), "{err}");
            assert!(err.contains("off, campaign or static"), "{err}");
        }
    }

    #[test]
    fn class_exec_run_matches_plain_classification_and_reports() {
        let setup = |db: &str| {
            call(&[
                "configure",
                "--db",
                db,
                "--target",
                "t",
                "--workload",
                "sort8",
            ])
            .unwrap();
            // One 32-bit field keeps the location space small enough
            // that several faults provably share an equivalence class.
            call(&[
                "setup",
                "--db",
                db,
                "--campaign",
                "ce",
                "--target",
                "t",
                "--workload",
                "sort8",
                "--chain",
                "cpu",
                "--field",
                "R6",
                "--experiments",
                "200",
                "--window",
                "0:300",
                "--seed",
                "9",
            ])
            .unwrap();
        };
        let db_plain = tmpdb("class_plain.json");
        setup(&db_plain);
        let plain = call(&["run", "--db", &db_plain, "--campaign", "ce"]).unwrap();

        let db_class = tmpdb("class_exec.json");
        setup(&db_class);
        let classed =
            call(&["run", "--db", &db_class, "--campaign", "ce", "--class-exec"]).unwrap();
        assert!(
            classed.contains("class execution:"),
            "run reports fan-out savings: {classed}"
        );
        // `--class-exec` defaults to static pruning: the two compose.
        let pruned: usize = classed
            .lines()
            .find_map(|l| l.strip_prefix("pruned by pre-injection analysis: "))
            .and_then(|n| n.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .expect("run reports a pruned count");
        assert!(pruned > 0, "class-exec run pruned nothing: {classed}");
        // Classification is identical with class execution on, modulo
        // the pruned-count annotations: `--class-exec` defaults to
        // static pruning, while the plain run is unpruned (its campaign
        // does not ask for pre-injection analysis).
        let classification = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("class execution:") && !l.starts_with("pruned by"))
                .map(|l| l.split("  (of which").next().unwrap_or(l).to_owned())
                .collect::<Vec<_>>()
        };
        assert_eq!(classification(&plain), classification(&classed));

        // The report surfaces the savings from the persisted analysis.
        let report = call(&["report", "--db", &db_class, "--campaign", "ce"]).unwrap();
        assert!(report.contains("class execution savings"), "{report}");
        assert!(report.contains("equivalence window"), "{report}");
    }

    #[test]
    fn report_counts_the_faults_the_run_pruned() {
        // The sort16 R6 campaign run with class execution: its report's
        // kept/pruned table must repeat the run's own pruned count, also
        // when the run pruned nothing.
        let run_and_report = |pruning: &str| {
            let db = tmpdb(&format!("report_pruned_{pruning}.json"));
            call(&[
                "configure",
                "--db",
                &db,
                "--target",
                "t",
                "--workload",
                "sort16",
            ])
            .unwrap();
            call(&[
                "setup",
                "--db",
                &db,
                "--campaign",
                "rp",
                "--target",
                "t",
                "--workload",
                "sort16",
                "--chain",
                "cpu",
                "--field",
                "R6",
                "--experiments",
                "200",
                "--seed",
                "9",
            ])
            .unwrap();
            let out = call(&[
                "run",
                "--db",
                &db,
                "--campaign",
                "rp",
                "--class-exec",
                "--pruning",
                pruning,
            ])
            .unwrap();
            let pruned: usize = out
                .lines()
                .find_map(|l| l.strip_prefix("pruned by pre-injection analysis: "))
                .and_then(|n| n.split_whitespace().next())
                .and_then(|n| n.parse().ok())
                .expect("run reports a pruned count");
            let report = call(&["report", "--db", &db, "--campaign", "rp"]).unwrap();
            (pruned, report)
        };
        let row = |kept: usize, pruned: usize| format!("  {:<16} {kept:>6} {pruned:>7}\n", "R6");

        let (pruned, report) = run_and_report("off");
        assert_eq!(pruned, 0);
        assert!(report.contains(&row(200, 0)), "{report}");

        let (pruned, report) = run_and_report("static");
        assert!(pruned > 0, "static pruning found nothing on R6");
        assert!(report.contains(&row(200 - pruned, pruned)), "{report}");
    }

    #[test]
    fn resume_is_idempotent_when_complete() {
        let db = tmpdb("resume.json");
        call(&[
            "configure",
            "--db",
            &db,
            "--target",
            "t",
            "--workload",
            "fib10",
        ])
        .unwrap();
        call(&[
            "setup",
            "--db",
            &db,
            "--campaign",
            "crz",
            "--target",
            "t",
            "--workload",
            "fib10",
            "--experiments",
            "8",
            "--window",
            "0:40",
        ])
        .unwrap();
        // Resume on a never-run campaign runs everything...
        let out = call(&["resume", "--db", &db, "--campaign", "crz"]).unwrap();
        assert!(out.contains("8 experiments"), "{out}");
        // ...and resuming a complete campaign replays stored rows.
        let out = call(&["resume", "--db", &db, "--campaign", "crz"]).unwrap();
        assert!(out.contains("8 experiments"), "{out}");
    }

    #[test]
    fn report_combines_all_analyses() {
        let db = tmpdb("report.json");
        call(&[
            "configure",
            "--db",
            &db,
            "--target",
            "t",
            "--workload",
            "sort8",
        ])
        .unwrap();
        call(&[
            "setup",
            "--db",
            &db,
            "--campaign",
            "cr",
            "--target",
            "t",
            "--workload",
            "sort8",
            "--experiments",
            "40",
            "--window",
            "0:800",
        ])
        .unwrap();
        call(&["run", "--db", &db, "--campaign", "cr"]).unwrap();
        let out = call(&["report", "--db", &db, "--campaign", "cr"]).unwrap();
        assert!(out.contains("per-location sensitivity"), "{out}");
        assert!(out.contains("dependability"), "{out}");
        assert!(out.contains("R(t)"), "{out}");
    }

    #[test]
    fn parallel_run_via_workers_flag() {
        let db = tmpdb("par.json");
        call(&[
            "configure",
            "--db",
            &db,
            "--target",
            "t",
            "--workload",
            "fib10",
        ])
        .unwrap();
        call(&[
            "setup",
            "--db",
            &db,
            "--campaign",
            "cp",
            "--target",
            "t",
            "--workload",
            "fib10",
            "--experiments",
            "12",
            "--window",
            "0:40",
        ])
        .unwrap();
        let out = call(&["run", "--db", &db, "--campaign", "cp", "--workers", "3"]).unwrap();
        assert!(out.contains("(3 workers)"), "{out}");
        let out = call(&["analyze", "--db", &db, "--campaign", "cp"]).unwrap();
        assert!(out.contains("12"), "{out}");
    }

    #[test]
    fn no_checkpoint_flag_matches_checkpointed_run() {
        let setup = |db: &str, campaign: &str| {
            call(&[
                "configure",
                "--db",
                db,
                "--target",
                "t",
                "--workload",
                "fib10",
            ])
            .unwrap();
            call(&[
                "setup",
                "--db",
                db,
                "--campaign",
                campaign,
                "--target",
                "t",
                "--workload",
                "fib10",
                "--experiments",
                "10",
                "--window",
                "0:40",
            ])
            .unwrap();
        };
        let warm = tmpdb("nc_warm.json");
        setup(&warm, "nc");
        call(&["run", "--db", &warm, "--campaign", "nc"]).unwrap();
        let cold = tmpdb("nc_cold.json");
        setup(&cold, "nc");
        call(&["run", "--db", &cold, "--campaign", "nc", "--no-checkpoint"]).unwrap();
        let warm_json = std::fs::read(&warm).unwrap();
        let cold_json = std::fs::read(&cold).unwrap();
        assert_eq!(warm_json, cold_json, "checkpointing changed the database");
    }

    #[test]
    fn swifi_setup_and_run() {
        let db = tmpdb("swifi.json");
        call(&[
            "configure",
            "--db",
            &db,
            "--target",
            "t",
            "--workload",
            "sort8",
        ])
        .unwrap();
        let out = call(&[
            "setup",
            "--db",
            &db,
            "--campaign",
            "cs",
            "--target",
            "t",
            "--workload",
            "sort8",
            "--technique",
            "swifi-preruntime",
            "--memory",
            "0x4000:8",
            "--experiments",
            "5",
        ])
        .unwrap();
        assert!(out.contains("swifi-preruntime"));
        let out = call(&["run", "--db", &db, "--campaign", "cs"]).unwrap();
        assert!(out.contains("experiments:"));
    }

    #[test]
    fn db_stats_and_compact_report_engine_state() {
        let db = tmpdb("dbverbs.json");
        call(&[
            "configure",
            "--db",
            &db,
            "--target",
            "thor-card",
            "--workload",
            "fib10",
        ])
        .unwrap();
        call(&[
            "setup",
            "--db",
            &db,
            "--campaign",
            "cv",
            "--target",
            "thor-card",
            "--workload",
            "fib10",
            "--experiments",
            "8",
            "--window",
            "0:40",
            "--seed",
            "3",
        ])
        .unwrap();
        call(&["run", "--db", &db, "--campaign", "cv"]).unwrap();
        let out = call(&["db", "stats", "--db", &db]).unwrap();
        assert!(out.contains("LoggedSystemState"), "{out}");
        assert!(out.contains("page size:"), "{out}");
        let json = call(&["db", "stats", "--db", &db, "--json"]).unwrap();
        assert!(
            json.contains("\"page_count\"") && json.contains("\"tables\""),
            "{json}"
        );
        let out = call(&["db", "compact", "--db", &db]).unwrap();
        assert!(out.contains("compacted"), "{out}");
        // The compacted file still answers stats and reports.
        let out = call(&["db", "stats", "--db", &db]).unwrap();
        assert!(out.contains("0 dead"), "{out}");
        call(&["report", "--db", &db, "--campaign", "cv"]).unwrap();
        assert!(call(&["db", "frobnicate", "--db", &db]).is_err());
        assert!(call(&["db", "stats", "--db", "/tmp/definitely-missing.db"]).is_err());
    }

    #[test]
    fn analyze_lint_gates_exit_status_on_both_isas() {
        // A fault seeded into a provably-dead window fires the gating
        // lint; the exit status is 2 only under --lint or --json.
        let out = call_code(&[
            "analyze",
            "--workload",
            "sort16",
            "--fault",
            "R6@0",
            "--lint",
        ])
        .unwrap();
        assert_eq!(out.code, EXIT_LINT, "{}", out.text);
        assert!(
            out.text.contains("fault-targets-dead-location"),
            "{}",
            out.text
        );
        assert!(out.text.contains("(gating)"), "{}", out.text);
        let out = call_code(&[
            "analyze",
            "--workload",
            "sum8",
            "--target",
            "stackvm",
            "--fault",
            "S0@0",
            "--json",
        ])
        .unwrap();
        assert_eq!(out.code, EXIT_LINT);
        // Without --lint/--json the findings are reported, not gated.
        let out = call_code(&["analyze", "--workload", "sort16", "--fault", "R6@0"]).unwrap();
        assert_eq!(out.code, 0);
        // A clean workload passes the gate.
        let out = call_code(&["analyze", "--workload", "sort16", "--lint"]).unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        // Bad specs name the problem.
        let err = call(&["analyze", "--workload", "sort16", "--fault", "R6"]).unwrap_err();
        assert!(err.contains("NAME@T1"), "{err}");
        let err = call(&["analyze", "--workload", "sort16", "--fault", "NOPE@0"]).unwrap_err();
        assert!(err.contains("NOPE"), "{err}");
    }

    #[test]
    fn analyze_stackvm_json_reports_classes_and_washout() {
        let out = call(&[
            "analyze",
            "--workload",
            "sum8",
            "--target",
            "stackvm",
            "--json",
        ])
        .unwrap();
        let parsed = goofi_core::StaticAnalysis::from_json(out.trim()).unwrap();
        assert!(!parsed.dead.is_empty(), "stackvm dead windows missing");
        assert!(
            !parsed.equiv.is_empty(),
            "stackvm equivalence windows missing"
        );
        assert!(
            !parsed.washout.is_empty(),
            "stackvm washout windows missing"
        );
        // Only sumN programs ship for the stack machine.
        assert!(call(&["analyze", "--workload", "fib10", "--target", "stackvm"]).is_err());
    }

    #[test]
    fn predict_run_reports_and_requires_static_pruning() {
        let db = tmpdb("predict.json");
        call(&[
            "configure",
            "--db",
            &db,
            "--target",
            "t",
            "--workload",
            "sort16",
        ])
        .unwrap();
        // The sort scratch register has washout windows beyond the dead
        // set: some faults are predictable but not prunable.
        call(&[
            "setup",
            "--db",
            &db,
            "--campaign",
            "cp",
            "--target",
            "t",
            "--workload",
            "sort16",
            "--chain",
            "cpu",
            "--field",
            "R6",
            "--experiments",
            "120",
            "--window",
            "0:1100",
            "--seed",
            "7",
        ])
        .unwrap();
        let out = call(&["run", "--db", &db, "--campaign", "cp", "--predict"]).unwrap();
        let predicted: usize = out
            .lines()
            .find_map(|l| l.strip_prefix("predicted by propagation analysis: "))
            .and_then(|n| n.parse().ok())
            .expect("run reports a predicted count");
        assert!(
            predicted > 0,
            "prediction found nothing on sort16/R6: {out}"
        );
        // --predict composes with (and defaults to) static pruning only.
        let err = call(&[
            "run",
            "--db",
            &db,
            "--campaign",
            "cp",
            "--predict",
            "--pruning",
            "campaign",
        ])
        .unwrap_err();
        assert!(err.contains("--predict"), "{err}");
    }

    #[test]
    fn db_compact_migrates_legacy_json_snapshots() {
        let db = tmpdb("dblegacy.json");
        // A JSON-era snapshot and its journal (pre-engine on-disk format).
        let fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/json-era.json"
        );
        std::fs::copy(fixture, &db).unwrap();
        std::fs::copy(goofi_db::journal_path(fixture), goofi_db::journal_path(&db)).unwrap();
        let err = call(&["db", "stats", "--db", &db]).unwrap_err();
        assert!(err.contains("legacy JSON"), "{err}");
        let out = call(&["db", "compact", "--db", &db]).unwrap();
        assert!(out.contains("compacted"), "{out}");
        let out = call(&["db", "stats", "--db", &db]).unwrap();
        assert!(out.contains("TargetSystemData"), "{out}");
    }
}
