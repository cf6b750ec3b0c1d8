//! Experiment E8: campaign-runner scaling — the work-stealing executor at
//! 1, 2, 4 and 8 workers (experiments are independent; each worker owns a
//! target instance).
//!
//! Besides the human-readable table, the run writes `BENCH_e8.json` at the
//! workspace root: one row per worker count with wall time and speedup
//! over the one-worker baseline, so CI and the docs can consume the
//! numbers without scraping stdout.

use criterion::{criterion_group, criterion_main, Criterion};
use goofi_bench::{scifi_campaign, workload};
use goofi_core::{Campaign, CampaignRunner};
use goofi_targets::ThorTarget;
use std::time::{Duration, Instant};

struct Row {
    workers: usize,
    wall: Duration,
    speedup: f64,
}

fn run_once(campaign: &Campaign, workers: usize) -> (Duration, usize) {
    let w = workload("sort16");
    let factory = move || {
        Box::new(ThorTarget::new("thor-card", w.clone()))
            as Box<dyn goofi_core::TargetSystemInterface>
    };
    let t0 = Instant::now();
    let result = CampaignRunner::from_factory(factory, campaign)
        .workers(workers)
        .run()
        .expect("campaign runs");
    (t0.elapsed(), result.runs.len())
}

fn measure() -> Vec<Row> {
    let campaign = scifi_campaign("e8", "sort16", 200, 2500);
    let mut rows = Vec::new();
    let mut base = None;
    for workers in [1usize, 2, 4, 8] {
        let (wall, _) = run_once(&campaign, workers);
        let base_wall = *base.get_or_insert(wall);
        rows.push(Row {
            workers,
            wall,
            speedup: base_wall.as_secs_f64() / wall.as_secs_f64(),
        });
    }
    rows
}

fn print_table(rows: &[Row], cores: usize) {
    println!("\n=== E8: runner scaling (sort16, 200 experiments, {cores} host core(s)) ===");
    println!("(speedup is over the sequential baseline and bounded by host cores)");
    for row in rows {
        println!(
            "{} worker(s): {:>10.3?}  speedup {:>5.2}x",
            row.workers, row.wall, row.speedup
        );
    }
}

/// Hand-formatted JSON (the bench crate deliberately has no serde dep).
fn write_json(rows: &[Row], cores: usize) {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"e8_runner_scaling\",\n");
    out.push_str(
        "  \"campaign\": {\"workload\": \"sort16\", \"experiments\": 200, \"window\": 2500},\n",
    );
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"wall_s\": {:.6}, \"speedup\": {:.3}}}{}\n",
            row.workers,
            row.wall.as_secs_f64(),
            row.speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e8.json");
    match std::fs::write(path, out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn bench(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rows = measure();
    print_table(&rows, cores);
    write_json(&rows, cores);

    // Criterion samples on a smaller campaign.
    let mut group = c.benchmark_group("e8");
    group.sample_size(10);
    let campaign = scifi_campaign("e8-b", "sort16", 64, 2500);
    for workers in [1usize, 4] {
        group.bench_function(format!("campaign64_workers{workers}"), |b| {
            b.iter(|| run_once(&campaign, workers))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
