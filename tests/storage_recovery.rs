//! Crash recovery through the whole stack: a campaign streamed to the
//! paged engine's write-ahead log, killed without a final save and with
//! its WAL tail truncated at arbitrary byte offsets, must recover to a
//! clean prefix — and resuming the campaign from the recovered store
//! must end with exactly the verdicts of an uninterrupted run.

use goofi_repro::core::{
    analyze_campaign, Campaign, CampaignRunner, FaultModel, GoofiStore, LocationSelector,
    TargetSystemInterface, Technique,
};
use goofi_repro::db::storage::wal_path;
use goofi_repro::targets::ThorTarget;
use goofi_repro::workloads::sort_workload;

const NAME: &str = "wal-recovery";
const EXPERIMENTS: usize = 24;

fn campaign() -> Campaign {
    Campaign::builder(NAME, "thor-card", "sort12")
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: None,
        })
        .fault_model(FaultModel::BitFlip)
        .window(0, 1500)
        .experiments(EXPERIMENTS)
        .seed(2001)
        .build()
        .unwrap()
}

fn factory() -> Box<dyn TargetSystemInterface> {
    Box::new(ThorTarget::new("thor-card", sort_workload(12, 9)))
}

fn seeded_store(c: &Campaign) -> GoofiStore {
    let mut store = GoofiStore::new();
    let target = ThorTarget::new("thor-card", sort_workload(12, 9));
    store.put_target(&target.describe()).unwrap();
    store.put_campaign(c).unwrap();
    store
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("goofi_storage_recovery");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Runs the campaign with journaling at `path` and "crashes" (drops the
/// store without saving), leaving every experiment row only in the WAL.
fn crashed_campaign_file(path: &std::path::Path) {
    let c = campaign();
    let mut store = seeded_store(&c);
    store.save(path).unwrap();
    store.enable_journal(path).unwrap();
    let result = CampaignRunner::from_factory(factory, &c)
        .workers(2)
        .store(&mut store)
        .run()
        .unwrap();
    assert_eq!(result.runs.len(), EXPERIMENTS);
    drop(store);
}

#[test]
fn truncated_wal_resumes_to_identical_verdicts() {
    // Ground truth: an uninterrupted in-memory run.
    let c = campaign();
    let mut full_store = seeded_store(&c);
    let mut target = ThorTarget::new("thor-card", sort_workload(12, 9));
    let full = CampaignRunner::new(&mut target, &c)
        .store(&mut full_store)
        .run()
        .unwrap();
    let full_rows = full_store.experiments_of(NAME).unwrap();

    let path = tmp("truncated.json");
    crashed_campaign_file(&path);
    let wal = wal_path(&path);
    let wal_bytes = std::fs::read(&wal).unwrap();
    assert!(!wal_bytes.is_empty(), "campaign rows must be in the WAL");

    // Cut the WAL mid-history and mid-record; each recovery must yield
    // a strict prefix and resume back to the full campaign.
    for cut in [
        wal_bytes.len() / 3,
        2 * wal_bytes.len() / 3,
        wal_bytes.len() - 5,
    ] {
        std::fs::write(&wal, &wal_bytes[..cut]).unwrap();
        let mut store = GoofiStore::load(&path).unwrap();
        let recovered = store.experiments_of(NAME).unwrap();
        // The final WAL records are the campaign telemetry, so the
        // smallest cut may lose only those — the deeper cuts must lose
        // experiment rows.
        if cut <= 2 * wal_bytes.len() / 3 {
            assert!(
                recovered.len() < EXPERIMENTS,
                "cut at {cut} of {} lost no experiments — not a crash",
                wal_bytes.len()
            );
        }
        // Two workers log rows in completion order, so a WAL prefix is
        // an arbitrary *subset* of the campaign — but every surviving
        // row must match the uninterrupted run's verdict exactly.
        for rec in &recovered {
            let reference = full_rows
                .iter()
                .find(|r| r.name == rec.name)
                .unwrap_or_else(|| panic!("recovered unknown experiment {}", rec.name));
            assert_eq!(rec, reference, "recovered row diverges from full run");
        }

        let resumed = CampaignRunner::from_factory(factory, &c)
            .workers(2)
            .resume_from(&mut store)
            .run()
            .unwrap();
        assert_eq!(resumed.runs.len(), EXPERIMENTS);
        assert_eq!(
            store.experiments_of(NAME).unwrap(),
            full_rows,
            "resumed verdicts differ from the uninterrupted run"
        );
        let stats = analyze_campaign(&store, NAME).unwrap();
        assert_eq!(stats, full.stats);
    }

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&wal).ok();
}

/// Workers 1, 2 and 4 streaming through the engine, crashed and
/// recovered, all yield the same logical database.
#[test]
fn engine_recovery_is_deterministic_across_worker_counts() {
    let c = campaign();
    let mut dumps = Vec::new();
    for workers in [1usize, 2, 4] {
        let path = tmp(&format!("det{workers}.json"));
        let mut store = seeded_store(&c);
        store.save(&path).unwrap();
        store.enable_journal(&path).unwrap();
        CampaignRunner::from_factory(factory, &c)
            .workers(workers)
            .store(&mut store)
            .run()
            .unwrap();
        drop(store); // crash: rows only in the WAL

        let recovered = GoofiStore::load(&path).unwrap();
        dumps.push(recovered.to_database().unwrap().logical_dump());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_path(&path)).ok();
    }
    assert_eq!(dumps[0], dumps[1], "1- vs 2-worker recovery differs");
    assert_eq!(dumps[0], dumps[2], "1- vs 4-worker recovery differs");
}

/// A database written before the paged engine — a JSON snapshot plus a
/// `.journal` sidecar whose last line is torn — loads with the records
/// its own reader gives, is rewritten once as a paged file (the sidecar
/// removed), and a second load leaves the file as it is.
#[test]
fn json_era_fixture_is_rewritten_once_with_its_records() {
    use goofi_repro::db::storage::is_paged_file;
    use goofi_repro::db::{journal_path, Database};
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/json-era.json");
    let path = tmp("json-era.json");
    std::fs::copy(&fixture, &path).unwrap();
    std::fs::copy(journal_path(&fixture), journal_path(&path)).unwrap();
    let expected = GoofiStore::from_database(&Database::load(&fixture).unwrap()).unwrap();
    let campaigns = expected.list_campaigns().unwrap();
    assert_eq!(campaigns, vec!["json-era"]);
    // The snapshot holds six experiment rows, the journal adds three.
    assert_eq!(expected.experiments_of("json-era").unwrap().len(), 9);

    let loaded = GoofiStore::load(&path).unwrap();
    assert_eq!(
        loaded.list_targets().unwrap(),
        expected.list_targets().unwrap()
    );
    assert_eq!(loaded.list_campaigns().unwrap(), campaigns);
    assert_eq!(
        loaded.experiments_of("json-era").unwrap(),
        expected.experiments_of("json-era").unwrap()
    );
    assert_eq!(
        loaded.to_database().unwrap().logical_dump(),
        expected.to_database().unwrap().logical_dump()
    );
    drop(loaded);
    assert!(is_paged_file(&path));
    assert!(!journal_path(&path).exists(), "the sidecar survived");

    // A rewrite is byte-deterministic, so the modification time tells
    // whether the second load wrote the file again.
    let long_ago = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1 << 30);
    let file = std::fs::File::options().write(true).open(&path).unwrap();
    file.set_modified(long_ago).unwrap();
    drop(file);
    let rewritten = std::fs::read(&path).unwrap();
    drop(GoofiStore::load(&path).unwrap());
    let modified = std::fs::metadata(&path).unwrap().modified().unwrap();
    assert_eq!(modified, long_ago, "rewritten twice");
    assert_eq!(std::fs::read(&path).unwrap(), rewritten);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(wal_path(&path)).ok();
}
