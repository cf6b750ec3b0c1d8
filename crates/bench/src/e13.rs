//! Experiment E13 core: the paged storage engine against the seed
//! JSON-snapshot + line-journal backend.
//!
//! Three measurements over a synthetic `LoggedSystemState` population,
//! shared by the `e13_storage` bench (full scale, writes
//! `BENCH_e13.json`) and the CI smoke gate in `tests/e13_gate.rs`
//! (small scale):
//!
//! 1. **Sustained append** — one durable record per experiment row plus a
//!    periodic checkpoint. The seed backend pays a full JSON snapshot per
//!    checkpoint; the engine flushes dirty pages and truncates its WAL.
//!    The seed's loop must also maintain the whole population as an
//!    in-memory [`Database`] — its snapshot serialises that structure,
//!    so the backend cannot run without it. The engine's durability
//!    path (constraint checks, WAL record, in-page heap write, primary
//!    key and declared secondary index) is self-contained, which is
//!    exactly the architectural win measured.
//!    `goofi-db` only reads the seed format now (`Database::load`), so
//!    the seed's writer lives here, as `run_seed_backend`.
//! 2. **Point lookup** — `campaignName = ? AND experimentName = ?`
//!    through the declared secondary index versus the full-scan
//!    reference executor.
//! 3. **Crash recovery** — reopening a paged file whose WAL holds half
//!    the population past the last checkpoint.

use goofi_db::storage::PagedEngine;
use goofi_db::{Column, Database, Expr, Insert, Select, TableSchema, Value, ValueType};
use std::fs::{self, File};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Campaigns the synthetic rows are spread over (round-robin).
pub const CAMPAIGNS: usize = 8;
/// Table the synthetic population lives in.
pub const TABLE: &str = "LoggedSystemState";

/// The paper's `LoggedSystemState` shape, with the secondary index the
/// paged engine era declares on (campaign, experiment).
fn indexed_schema() -> TableSchema {
    plain_schema()
        .with_index("byCampaignExperiment", &["campaignName", "experimentName"])
        .expect("static index")
}

/// The same table as the seed shipped it: no declared secondary index.
fn plain_schema() -> TableSchema {
    TableSchema::new(
        TABLE,
        vec![
            Column::new("experimentName", ValueType::Text).primary_key(),
            Column::new("parentExperiment", ValueType::Text),
            Column::new("campaignName", ValueType::Text).not_null(),
            Column::new("experimentData", ValueType::Text).not_null(),
            Column::new("stateVector", ValueType::Blob),
        ],
    )
    .expect("static schema")
}

///(campaignName, experimentName) of the `i`-th synthetic row.
pub fn row_keys(i: usize) -> (String, String) {
    let campaign = format!("c{:02}", i % CAMPAIGNS);
    let name = format!("{campaign}/{i:07}");
    (campaign, name)
}

/// The `i`-th synthetic experiment row: realistic experimentData JSON
/// (~200 B) and a 64-byte packed state vector.
pub fn experiment_row(i: usize) -> Vec<Value> {
    let (campaign, name) = row_keys(i);
    let data = format!(
        "{{\"fault\":{{\"model\":\"bit-flip\",\"targets\":[{{\"chain\":\"cpu\",\"bit\":{}}}],\
         \"times\":[{}]}},\"termination\":\"Halted\",\"outputs\":[{},{},{}],\
         \"iterations\":0,\"instructions\":{}}}",
        i % 1422,
        i % 1400,
        i % 65536,
        (i * 7) % 65536,
        (i * 13) % 65536,
        1000 + i % 5000
    );
    let state = vec![(i % 251) as u8; 64];
    vec![
        name.into(),
        Value::Null,
        campaign.into(),
        data.into(),
        state.into(),
    ]
}

/// One backend's sustained-append measurement.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// Wall time for the full append + checkpoint loop, seconds.
    pub wall_s: f64,
    /// Sustained throughput: rows / `wall_s`.
    pub rows_per_s: f64,
    /// On-disk size after the final checkpoint (data file only).
    pub file_bytes: u64,
    /// Checkpoints taken during the loop.
    pub checkpoints: usize,
}

/// The seed backend's sustained append at `path`: per row, a
/// `{"table":…,"row":[…]}` JSON line appended to the `.journal` sidecar
/// and flushed, plus the insert into the in-memory [`Database`]; every
/// `ckpt_every` rows, the whole database as JSON to a `.tmp` sibling,
/// renamed over the snapshot, then the journal truncated.
fn run_seed_backend(path: &Path, rows: usize, ckpt_every: usize) -> BackendRun {
    let tmp = path.with_extension("json.tmp");
    let snapshot = |db: &Database| {
        fs::write(&tmp, db.to_json().expect("snapshot serialises")).expect("snapshot write");
        fs::rename(&tmp, path).expect("snapshot rename");
    };
    let mut db = Database::new();
    db.create_table(plain_schema()).expect("fresh db");
    snapshot(&db);
    let mut journal = File::options()
        .create(true)
        .append(true)
        .open(goofi_db::journal_path(path))
        .expect("journal opens");
    let mut checkpoints = 0;
    let t0 = Instant::now();
    for i in 0..rows {
        let row = experiment_row(i);
        let line = format!(
            "{{\"table\":\"{TABLE}\",\"row\":{}}}\n",
            serde_json::to_string(&row).expect("row serialises")
        );
        journal
            .write_all(line.as_bytes())
            .and_then(|()| journal.flush())
            .expect("journal append");
        db.insert(Insert::into(TABLE, row)).expect("insert");
        if (i + 1) % ckpt_every == 0 {
            snapshot(&db);
            journal.set_len(0).expect("journal truncate");
            checkpoints += 1;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    BackendRun {
        wall_s,
        rows_per_s: rows as f64 / wall_s,
        file_bytes: fs::metadata(path).map(|m| m.len()).unwrap_or(0),
        checkpoints,
    }
}

/// Everything E13 measures; [`to_json`] serialises it for CI.
#[derive(Debug, Clone)]
pub struct E13Results {
    /// Rows appended per backend.
    pub rows: usize,
    /// Seed backend: JSON snapshot per checkpoint + line journal.
    pub json: BackendRun,
    /// Paged engine: WAL append per row + page-flush checkpoint.
    pub paged: BackendRun,
    /// `paged.rows_per_s / json.rows_per_s` — the headline gate.
    pub append_speedup: f64,
    /// Point lookups timed through the secondary index.
    pub lookups: usize,
    /// Wall seconds for all indexed lookups.
    pub indexed_wall_s: f64,
    /// Point lookups timed through the full-scan reference executor.
    pub scan_lookups: usize,
    /// Wall seconds for all scan lookups.
    pub scan_wall_s: f64,
    /// Per-lookup scan time / per-lookup indexed time.
    pub lookup_speedup: f64,
    /// WAL records replayed by the crash-recovery open.
    pub recovery_records: usize,
    /// Wall seconds for the recovery open (replay + index rebuild).
    pub recovery_wall_s: f64,
}

/// Runs all three measurements at the given scale. `checkpoints` is the
/// number of durability checkpoints spread over the append loop (the
/// seed pays a full snapshot per checkpoint), `lookups` the number of
/// indexed point lookups (scans run a twentieth of that, normalised
/// per-lookup).
pub fn run_e13(rows: usize, checkpoints: usize, lookups: usize) -> E13Results {
    assert!(rows >= 64, "E13 needs a non-trivial population");
    let dir = std::env::temp_dir().join(format!("goofi_e13_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt_every = (rows / checkpoints.max(1)).max(1);

    // --- Seed backend: JSON snapshot + line journal -------------------
    let json_path = dir.join("seed.json");
    let json_run = run_seed_backend(&json_path, rows, ckpt_every);

    // --- Paged engine: WAL append + page-flush checkpoint -------------
    let paged_path = dir.join("paged.db");
    let mut engine = PagedEngine::create(&paged_path).expect("engine creates");
    engine.create_table(&indexed_schema()).expect("catalog");
    let mut paged_ckpts = 0;
    let t0 = Instant::now();
    for i in 0..rows {
        let row = experiment_row(i);
        engine.append(TABLE, &row).expect("engine append");
        if (i + 1) % ckpt_every == 0 {
            engine.checkpoint().expect("checkpoint");
            paged_ckpts += 1;
        }
    }
    engine.checkpoint().expect("final checkpoint");
    let paged_wall = t0.elapsed().as_secs_f64();
    let paged_bytes = std::fs::metadata(&paged_path).map(|m| m.len()).unwrap_or(0);
    drop(engine);

    // --- Crash recovery: half the population past the last checkpoint -
    let crash_path = dir.join("crash.db");
    let mut engine = PagedEngine::create(&crash_path).expect("engine creates");
    engine.create_table(&indexed_schema()).expect("catalog");
    let half = rows / 2;
    for i in 0..rows {
        engine
            .append(TABLE, &experiment_row(i))
            .expect("engine append");
        if i + 1 == half {
            engine.checkpoint().expect("midpoint checkpoint");
        }
    }
    drop(engine); // crash: WAL holds rows - half records

    let t0 = Instant::now();
    let mut recovered = PagedEngine::open(&crash_path).expect("recovery");
    let recovery_wall = t0.elapsed().as_secs_f64();
    let recovered_rows = recovered.rows(TABLE).expect("recovered rows");
    assert_eq!(recovered_rows.len(), rows, "recovery lost rows");

    // --- Point lookups on the recovered population --------------------
    let lookup_db = recovered.to_database().expect("to_database");
    let stmt = |i: usize| {
        let (campaign, name) = row_keys(i);
        Select::from(TABLE)
            .filter(Expr::col("campaignName").eq(Expr::lit(campaign)))
            .filter(Expr::col("experimentName").eq(Expr::lit(name)))
    };
    let lookups = lookups.max(1);
    let step = (rows / lookups).max(1);
    let t0 = Instant::now();
    let mut hits = 0;
    for i in (0..rows).step_by(step) {
        hits += lookup_db.select(stmt(i)).expect("indexed select").len();
    }
    let indexed_wall = t0.elapsed().as_secs_f64();
    let indexed_done = (0..rows).step_by(step).count();
    assert_eq!(hits, indexed_done, "indexed lookups missed rows");

    let scan_lookups = (lookups / 20).max(10).min(indexed_done);
    let scan_step = (rows / scan_lookups).max(1);
    let t0 = Instant::now();
    let mut scan_hits = 0;
    for i in (0..rows).step_by(scan_step).take(scan_lookups) {
        scan_hits += lookup_db.select_scan(stmt(i)).expect("scan select").len();
    }
    let scan_wall = t0.elapsed().as_secs_f64();
    assert_eq!(scan_hits, scan_lookups, "scan lookups missed rows");

    let _ = std::fs::remove_dir_all(&dir);

    let per_indexed = indexed_wall / indexed_done as f64;
    let per_scan = scan_wall / scan_lookups as f64;
    let paged_run = BackendRun {
        wall_s: paged_wall,
        rows_per_s: rows as f64 / paged_wall,
        file_bytes: paged_bytes,
        checkpoints: paged_ckpts,
    };
    E13Results {
        rows,
        append_speedup: paged_run.rows_per_s / json_run.rows_per_s,
        json: json_run,
        paged: paged_run,
        lookups: indexed_done,
        indexed_wall_s: indexed_wall,
        scan_lookups,
        scan_wall_s: scan_wall,
        lookup_speedup: per_scan / per_indexed,
        recovery_records: rows - half,
        recovery_wall_s: recovery_wall,
    }
}

/// Serialises the results as the `BENCH_e13.json` document.
pub fn to_json(r: &E13Results, gate: f64) -> String {
    let backend = |b: &BackendRun| {
        format!(
            "{{\"wall_s\": {:.6}, \"rows_per_s\": {:.1}, \"file_bytes\": {}, \"checkpoints\": {}}}",
            b.wall_s, b.rows_per_s, b.file_bytes, b.checkpoints
        )
    };
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"e13_storage\",\n");
    out.push_str(&format!(
        "  \"rows\": {},\n  \"campaigns\": {CAMPAIGNS},\n",
        r.rows
    ));
    out.push_str(&format!(
        "  \"json_backend\": {},\n  \"paged_backend\": {},\n",
        backend(&r.json),
        backend(&r.paged)
    ));
    out.push_str(&format!(
        "  \"append_speedup\": {:.4},\n  \"gate_append_speedup\": {gate},\n",
        r.append_speedup
    ));
    out.push_str(&format!(
        "  \"point_lookup\": {{\"lookups\": {}, \"indexed_wall_s\": {:.6}, \"scan_lookups\": {}, \
         \"scan_wall_s\": {:.6}, \"speedup\": {:.4}}},\n",
        r.lookups, r.indexed_wall_s, r.scan_lookups, r.scan_wall_s, r.lookup_speedup
    ));
    out.push_str(&format!(
        "  \"recovery\": {{\"wal_records_replayed\": {}, \"open_wall_s\": {:.6}}},\n",
        r.recovery_records, r.recovery_wall_s
    ));
    out.push_str(&format!(
        "  \"gate_met\": {}\n}}\n",
        r.append_speedup >= gate && r.lookup_speedup > 1.0
    ));
    out
}
