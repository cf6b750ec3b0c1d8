//! `goofi-perfbench` — the campaign benchmark every performance claim
//! in this repository is measured with.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload chain-inproc --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One invocation measures one workload (see `NOTES.md`). It computes
//! the workload's reference rows once, untimed, then runs untraced
//! samples — each a fresh process running one whole campaign through the
//! public service API — until `--seconds` have passed and at least the
//! workload's `fastest_of` samples have run, and checks every sample's
//! database against the reference rows. With `--trace 1` it then runs
//! the traced layer-by-layer breakdown in one more fresh process and
//! checks that its rows equal the untraced rows.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted` and `failed` (experiment rows checked and rows wrong or
//! missing) and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer breakdown with `--trace 1`. The lines before it stamp the
//! host and build and print every metric with its unit. The exit code is
//! 0 only when every row checked was correct.
//!
//! The same binary is its own sample, trace and worker process
//! (`sample`, `trace` and `worker` as the first argument), so no
//! separately built `goofi` binary is needed.

mod sample;
mod stats;
mod trace;
mod workload;

use stats::median;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use workload::{load_rows, reference_rows, row_errors, write_template, Workload};

const USAGE: &str = "usage: goofi-perfbench --workload <chain-inproc|r6-static|chain-server> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Sampling stops after this long even short of the workload's
/// `fastest_of` samples, so a run stays inside its time limit on a slow
/// host.
const SAMPLING_LIMIT_S: f64 = 100.0;

/// How a run turns its samples' values into the one value it reports.
#[derive(Clone, Copy)]
enum Pick {
    /// The median over every sample.
    Median,
    /// The lowest value among the workload's first `fastest_of` samples.
    Lowest,
    /// The highest value among the workload's first `fastest_of` samples.
    Highest,
}

/// The end-to-end metrics, with units and how a run combines its
/// samples. Campaign time and throughput report the fastest of a fixed
/// number of first samples: interference from other tenants of a shared
/// host only ever slows a sample down (`NOTES.md` has the measurements).
const END_TO_END: &[(&str, &str, Pick)] = &[
    ("setup_s", "s", Pick::Median),
    ("exp_per_s", "1/s", Pick::Highest),
    ("campaign_s", "s", Pick::Lowest),
    ("db_bytes_per_exp", "B/exp", Pick::Median),
    ("peak_rss_mb", "MiB", Pick::Median),
];

/// Per-layer metrics taken from the untraced samples' event streams.
const FROM_SAMPLES: &[(&str, &str)] = &[
    ("service.progress_gap_p50_s", "progress_gap_p50_s"),
    ("service.progress_gap_p99_s", "progress_gap_p99_s"),
    ("service.finish_s", "finish_s"),
];

type Measures = BTreeMap<String, f64>;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag `{value}`")),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `sample` / `trace` child entry: `<mode> <workload> <seed> <dir>`.
/// Prints the measurements as one `name=value ...` line.
fn child(args: &[String], measure: fn(Workload, u64, &Path) -> Vec<(&'static str, f64)>) -> i32 {
    let workload = args.get(1).and_then(|w| Workload::parse(w));
    let seed = args.get(2).and_then(|s| s.parse().ok());
    let (Some(workload), Some(seed), Some(dir)) = (workload, seed, args.get(3)) else {
        eprintln!("perfbench: bad child arguments {args:?}");
        return 2;
    };
    let line: Vec<String> = measure(workload, seed, Path::new(dir))
        .iter()
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    println!("{}", line.join(" "));
    0
}

/// Runs one child process and parses its measurement line; `None` when
/// it failed.
fn spawn_child(mode: &str, args: &Args, dir: &Path) -> Option<Measures> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args([mode, args.workload.name(), &args.seed.to_string()])
        .arg(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout);
    text.lines()
        .last()?
        .split_whitespace()
        .map(|pair| {
            let (name, value) = pair.split_once('=')?;
            Some((name.to_owned(), value.parse().ok()?))
        })
        .collect()
}

/// The commit of the checkout, read from `.git` without leaving it;
/// plain checkouts without git metadata report `none`.
fn git_commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// How the value was obtained, for the human-readable report.
    how: String,
}

/// One sample measure over all samples, combined as `pick` says.
fn combine(samples: &[Measures], key: &str, pick: Pick, fastest_of: usize) -> (f64, String) {
    let values: Vec<f64> = samples.iter().filter_map(|s| s.get(key).copied()).collect();
    let first = &values[..values.len().min(fastest_of)];
    let lo = first.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = first.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mid = median(&values);
    let (value, label) = match pick {
        Pick::Median => (mid, format!("median of {} samples", values.len())),
        Pick::Lowest | Pick::Highest => {
            let v = if matches!(pick, Pick::Lowest) { lo } else { hi };
            (v, format!("fastest of the first {}", first.len()))
        }
    };
    (
        value,
        format!(
            "{label}; median {mid:.6} of {}, first {}: min {lo:.6}, max {hi:.6}",
            values.len(),
            first.len()
        ),
    )
}

fn measure(args: &Args, dir: &Path) -> i32 {
    let workload = args.workload;
    let campaign = workload.campaign(args.seed);
    let n = campaign.experiments;
    let reference = reference_rows(&campaign);
    write_template(&campaign, &dir.join("template.db"));

    let start = Instant::now();
    let elapsed = || start.elapsed().as_secs_f64();
    let mut samples: Vec<Measures> = Vec::new();
    let (mut attempted, mut failed, mut broken) = (0usize, 0usize, 0usize);
    let fastest_of = workload.fastest_of();
    while (samples.len() < fastest_of || elapsed() < args.seconds) && elapsed() < SAMPLING_LIMIT_S {
        let measured = spawn_child("sample", args, dir).filter(|m| m.get("failed") == Some(&0.0));
        let errors = row_errors(&campaign, &reference, &dir.join("sample.db"));
        let shown: Vec<String> = measured
            .iter()
            .flatten()
            .map(|(name, value)| format!("{name}={value:.6}"))
            .collect();
        eprintln!(
            "perfbench: sample {}: {} rows_wrong={errors}",
            samples.len() + broken + 1,
            shown.join(" ")
        );
        attempted += n;
        failed += errors;
        match measured {
            Some(m) if errors == 0 => samples.push(m),
            _ => broken += 1,
        }
    }

    let mut metrics: Vec<Metric> = Vec::new();
    let mut rows_equal = true;
    if args.trace {
        let traced = spawn_child("trace", args, dir).unwrap_or_default();
        let errors = row_errors(&campaign, &reference, &dir.join("trace.db"));
        let worker_errors = traced.get("worker_row_errors").copied().unwrap_or(0.0) as usize;
        attempted += n;
        failed += errors + worker_errors;
        rows_equal = !traced.is_empty()
            && load_rows(&campaign, &dir.join("trace.db"))
                == load_rows(&campaign, &dir.join("sample.db"));
        let (campaign_s, _) = combine(&samples, "campaign_s", Pick::Median, fastest_of);
        for &(name, unit) in trace::LAYER_METRICS {
            let (value, how) =
                if let Some(&(_, key)) = FROM_SAMPLES.iter().find(|(layer, _)| *layer == name) {
                    combine(&samples, key, Pick::Median, fastest_of)
                } else if name == "trace.overhead_s" {
                    let wall = traced.get("trace.wall_s").copied().unwrap_or(0.0);
                    (
                        wall - campaign_s,
                        "traced wall minus untraced median campaign_s".into(),
                    )
                } else {
                    let how = if traced.contains_key(name) {
                        "traced run"
                    } else {
                        "layer does not run on this workload"
                    };
                    (traced.get(name).copied().unwrap_or(0.0), how.into())
                };
            metrics.push(Metric {
                name,
                unit,
                value,
                how,
            });
        }
    } else {
        for &(name, unit, pick) in END_TO_END {
            let (value, how) = combine(&samples, name, pick, fastest_of);
            metrics.push(Metric {
                name,
                unit,
                value,
                how,
            });
        }
    }

    let correct = failed == 0 && broken == 0 && rows_equal && !samples.is_empty();
    println!(
        "perfbench workload={} seed={} experiments={n} samples={} fastest_of={fastest_of} \
         broken={broken} nproc={} commit={} source={} rustc=\"{}\"",
        workload.name(),
        args.seed,
        samples.len(),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        git_commit(),
        env!("PERFBENCH_SOURCE"),
        env!("PERFBENCH_RUSTC"),
    );
    for m in &metrics {
        println!(
            "  {:<30} {:>14.6} {:<8} ({})",
            m.name, m.value, m.unit, m.how
        );
    }
    println!(
        "  {:<30} {:>14.6} {:<8} ({failed} of {attempted} rows wrong or missing{})",
        "error_share",
        failed as f64 / attempted.max(1) as f64,
        "fraction",
        if rows_equal {
            ""
        } else {
            "; traced rows differ from untraced rows"
        },
    );

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("worker") => goofi_server::worker_main(),
        Some("sample") => child(&args, sample::run),
        Some("trace") => child(&args, trace::run),
        _ => match parse_args(&args) {
            Ok(args) => {
                // Scratch space inside the checkout, one directory per
                // invocation, removed afterwards.
                let root = PathBuf::from(".perfbench_work");
                let dir = root.join(std::process::id().to_string());
                std::fs::create_dir_all(&dir).expect("create the scratch directory");
                let code = measure(&args, &dir);
                let _ = std::fs::remove_dir_all(&dir);
                let _ = std::fs::remove_dir(&root);
                code
            }
            Err(e) => {
                eprintln!("perfbench: {e}\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}
