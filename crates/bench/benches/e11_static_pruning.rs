//! Experiment E11: static vs. trace-based fault-list pruning.
//!
//! Campaigns prune with the static analyzer (CFG + def/use first-touch
//! walk over a pc-only replay, the `goofi-analysis` crate), which needs
//! no reference trace. E11 checks it against the trace-based liveness
//! oracle, which records every read and write of one fully instrumented
//! reference run:
//!
//! 1. pruning rate, static vs. trace, on the E3 rows (sort16 whole
//!    chain, R1, R6, R7) with the injection window clamped to the
//!    workload's execution — past the halt nothing is prunable by any
//!    sound analysis, so the unclamped window only dilutes both columns;
//! 2. fault equivalence classes among the statically pruned faults;
//! 3. end-to-end campaign wall time with pruning off / static.
//!
//! The run asserts the PR's acceptance gate — static pruning removes at
//! least 20% of the combined fault list — and writes `BENCH_e11.json`
//! at the workspace root for CI and the docs.

use criterion::{criterion_group, criterion_main, Criterion};
use goofi_bench::{
    execution_window, prune_comparison, scifi_campaign_windowed, thor_target, PruneComparison,
};
use goofi_core::{generate_fault_list, CampaignRunner, Pruning, RunOptions, TargetSystemInterface};
use std::time::{Duration, Instant};

const WORKLOAD: &str = "sort16";
const EXPERIMENTS: usize = 400;
const GATE_PCT: f64 = 20.0;

fn run_once(window_end: u64, pruning: Pruning) -> (Duration, usize) {
    let mut campaign = scifi_campaign_windowed("e11-wall", WORKLOAD, EXPERIMENTS, 0, window_end);
    campaign.pre_injection_analysis = true;
    // Best of three: one-shot campaign walls on a busy host are noisy
    // enough to invert the off/static ordering run to run.
    let mut best: Option<(Duration, usize)> = None;
    for _ in 0..3 {
        let mut target = thor_target(WORKLOAD);
        let t0 = Instant::now();
        let result = CampaignRunner::new(&mut target, &campaign)
            .options(RunOptions::new().pruning(pruning))
            .run()
            .expect("campaign runs");
        let sample = (t0.elapsed(), result.pruned());
        best = Some(match best {
            Some(b) if b.0 <= sample.0 => b,
            _ => sample,
        });
    }
    best.expect("three samples taken")
}

fn bench(c: &mut Criterion) {
    let window = execution_window(WORKLOAD);

    println!("\n=== E11: static vs. trace pruning ({WORKLOAD}, {EXPERIMENTS} faults per row, window 0..{window}) ===");
    println!(
        "{:<18} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "locations", "faults", "static", "static %", "trace", "trace %"
    );
    let rows: [(&str, Option<&str>); 4] = [
        ("cpu (whole chain)", None),
        ("R1 (loop counter)", Some("R1")),
        ("R6 (scratch)", Some("R6")),
        ("R7 (scratch)", Some("R7")),
    ];
    let mut results: Vec<(&str, PruneComparison)> = Vec::new();
    let (mut total, mut static_total, mut trace_total) = (0usize, 0usize, 0usize);
    for (label, field) in rows {
        let row = prune_comparison(WORKLOAD, EXPERIMENTS, window, field);
        println!(
            "{label:<18} {:>8} {:>10} {:>9.1}% {:>10} {:>9.1}%",
            row.faults,
            row.static_pruned,
            100.0 * row.static_pruned as f64 / row.faults as f64,
            row.trace_pruned,
            100.0 * row.trace_pruned as f64 / row.faults as f64,
        );
        total += row.faults;
        static_total += row.static_pruned;
        trace_total += row.trace_pruned;
        results.push((label, row));
    }
    let static_pct = 100.0 * static_total as f64 / total as f64;
    let trace_pct = 100.0 * trace_total as f64 / total as f64;
    println!(
        "combined: {static_total}/{total} static ({static_pct:.1}%) vs {trace_total}/{total} trace ({trace_pct:.1}%), gate {GATE_PCT}%"
    );

    // Equivalence classes over the whole-chain fault list.
    let campaign = scifi_campaign_windowed("e11-cls", WORKLOAD, EXPERIMENTS, 0, window);
    let mut target = thor_target(WORKLOAD);
    let config = target.describe();
    let faults = generate_fault_list(
        &config,
        &campaign.selectors,
        campaign.fault_model,
        &campaign.trigger,
        campaign.experiments,
        campaign.seed,
        None,
    )
    .expect("fault list generates");
    let mut analysis = target.static_analysis(window).expect("static analysis");
    analysis.compute_classes(&config, &faults);
    let largest = analysis
        .classes
        .iter()
        .map(|c| c.multiplicity)
        .max()
        .unwrap_or(0);
    println!(
        "equivalence classes (whole chain): {} classes cover {} pruned faults, largest multiplicity {largest}",
        analysis.classes.len(),
        analysis.classes.iter().map(|c| c.multiplicity).sum::<usize>(),
    );

    // End-to-end wall time per pruning mode.
    let (off_wall, off_pruned) = run_once(window, Pruning::Off);
    let (static_wall, static_pruned_run) = run_once(window, Pruning::Static);
    println!("wall  off:    {off_wall:>10.3?}  ({off_pruned} pruned)");
    println!("wall  static: {static_wall:>10.3?}  ({static_pruned_run} pruned)");

    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"e11_static_pruning\",\n");
    out.push_str(&format!(
        "  \"campaign\": {{\"workload\": \"{WORKLOAD}\", \"experiments\": {EXPERIMENTS}, \"window_end\": {window}}},\n"
    ));
    out.push_str("  \"rows\": [\n");
    for (i, (label, row)) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"locations\": \"{label}\", \"faults\": {}, \"static_pruned\": {}, \"trace_pruned\": {}}}{}\n",
            row.faults,
            row.static_pruned,
            row.trace_pruned,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"static_rate_pct\": {static_pct:.4},\n  \"trace_rate_pct\": {trace_pct:.4},\n  \"gate_pct\": {GATE_PCT},\n"
    ));
    out.push_str(&format!(
        "  \"equivalence_classes\": {},\n  \"largest_multiplicity\": {largest},\n",
        analysis.classes.len()
    ));
    out.push_str(&format!(
        "  \"wall_off_s\": {:.6},\n  \"wall_static_s\": {:.6}\n}}\n",
        off_wall.as_secs_f64(),
        static_wall.as_secs_f64()
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e11.json");
    match std::fs::write(path, out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    assert!(
        static_total <= trace_total,
        "static pruning must be a subset of trace pruning"
    );
    assert!(
        static_pct >= GATE_PCT,
        "static pruning rate {static_pct:.1}% misses the {GATE_PCT}% gate"
    );

    let mut group = c.benchmark_group("e11");
    group.sample_size(10);
    for (name, pruning) in [
        ("campaign_off", Pruning::Off),
        ("campaign_static", Pruning::Static),
    ] {
        let mut campaign = scifi_campaign_windowed("e11-b", WORKLOAD, 100, 0, window);
        campaign.pre_injection_analysis = true;
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut target = thor_target(WORKLOAD);
                CampaignRunner::new(&mut target, &campaign)
                    .options(RunOptions::new().pruning(pruning))
                    .run()
                    .expect("campaign runs")
            })
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
