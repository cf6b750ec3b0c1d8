//! Experiment E13: the paged storage engine (page heap + buffer pool +
//! binary WAL + secondary index) against the seed JSON-snapshot +
//! line-journal backend, whose writer `goofi_bench::e13` keeps.
//!
//! Measures, at `GOOFI_E13_ROWS` rows (default 100 000):
//!
//! 1. sustained durable append throughput with ten checkpoints spread
//!    over the run — the seed pays a full JSON snapshot per checkpoint,
//!    the engine a dirty-page flush;
//! 2. point-lookup latency through the `(campaignName, experimentName)`
//!    secondary index versus the full-scan reference executor;
//! 3. crash-recovery time: reopening a file whose WAL holds half the
//!    population past the last checkpoint.
//!
//! Asserts the PR gate — the engine sustains at least `GOOFI_E13_GATE`
//! (default 10) times the seed's append throughput and indexed lookups
//! beat scans — and writes `BENCH_e13.json` at the workspace root.

use goofi_bench::e13::{run_e13, to_json};

fn env_or(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let rows = env_or("GOOFI_E13_ROWS", 100_000.0) as usize;
    let gate = env_or("GOOFI_E13_GATE", 10.0);

    println!("\n=== E13: paged storage engine vs JSON snapshot + journal ({rows} rows) ===");
    let r = run_e13(rows, 10, 1000);

    println!(
        "append  json:  {:>9.3}s  ({:>10.1} rows/s, {} checkpoints, {} B)",
        r.json.wall_s, r.json.rows_per_s, r.json.checkpoints, r.json.file_bytes
    );
    println!(
        "append  paged: {:>9.3}s  ({:>10.1} rows/s, {} checkpoints, {} B)",
        r.paged.wall_s, r.paged.rows_per_s, r.paged.checkpoints, r.paged.file_bytes
    );
    println!("append speedup: {:.2}x (gate {gate}x)", r.append_speedup);
    println!(
        "lookup  index: {} lookups in {:.4}s ({:.1} us each)",
        r.lookups,
        r.indexed_wall_s,
        1e6 * r.indexed_wall_s / r.lookups as f64
    );
    println!(
        "lookup  scan:  {} lookups in {:.4}s ({:.1} us each) -> index {:.1}x faster",
        r.scan_lookups,
        r.scan_wall_s,
        1e6 * r.scan_wall_s / r.scan_lookups as f64,
        r.lookup_speedup
    );
    println!(
        "recovery: {} WAL records replayed in {:.4}s",
        r.recovery_records, r.recovery_wall_s
    );

    let out = to_json(&r, gate);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e13.json");
    match std::fs::write(path, out) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    assert!(
        r.append_speedup >= gate,
        "paged append speedup {:.2}x misses the {gate}x gate",
        r.append_speedup
    );
    assert!(
        r.lookup_speedup > 1.0,
        "indexed point lookups ({:.1}x) do not beat full scans",
        r.lookup_speedup
    );
}
