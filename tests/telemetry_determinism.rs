//! Telemetry must never perturb campaign results: with recording off,
//! aggregated (metrics) or fully traced, at any worker count, the
//! experiment rows — and the saved database bytes, once the rollup row is
//! cleared — are identical to a plain sequential run.

use goofi_repro::core::{
    Campaign, CampaignRunner, FaultModel, GoofiStore, LocationSelector, Pruning, RunOptions,
    TargetSystemInterface, Technique, TelemetryMode,
};
use goofi_repro::targets::ThorTarget;
use goofi_repro::workloads::sort_workload;
use goofi_telemetry::names;

fn campaign(name: &str, n: usize) -> Campaign {
    Campaign::builder(name, "thor-card", "sort12")
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: None,
        })
        .fault_model(FaultModel::BitFlip)
        .window(0, 1500)
        .experiments(n)
        .seed(77)
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
    let dir = std::env::temp_dir().join("goofi_tel_det");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Telemetry mode x worker count grid: every combination must leave a
/// database byte-identical to the plain (telemetry-off, sequential) run
/// after the rollup row — the only intended difference — is cleared.
#[test]
fn telemetry_never_changes_the_database() {
    let c = campaign("tel-det", 24);

    let mut base_store = seeded_store(&c);
    let mut target = ThorTarget::new("thor-card", sort_workload(12, 9));
    let base = CampaignRunner::new(&mut target, &c)
        .store(&mut base_store)
        .run()
        .unwrap();
    let base_path = tmp("base.json");
    base_store.save(&base_path).unwrap();
    let base_bytes = std::fs::read(&base_path).unwrap();
    std::fs::remove_file(&base_path).ok();

    for mode in [
        TelemetryMode::Off,
        TelemetryMode::Metrics,
        TelemetryMode::Trace,
    ] {
        for workers in [1usize, 2, 4] {
            let mut store = seeded_store(&c);
            let result = CampaignRunner::from_factory(factory, &c)
                .workers(workers)
                .options(RunOptions::new().telemetry(mode))
                .store(&mut store)
                .run()
                .unwrap();
            assert_eq!(result.stats, base.stats, "mode {mode:?} workers {workers}");

            if mode == TelemetryMode::Off {
                assert!(result.telemetry.is_none());
            } else {
                let tel = result
                    .telemetry
                    .as_ref()
                    .expect("enabled telemetry produces a rollup");
                assert!(!tel.phases.is_empty(), "mode {mode:?} workers {workers}");
                assert_eq!(tel.workers, workers);
                assert_eq!(
                    tel.worker_stats.len(),
                    workers,
                    "one gauge row per worker (mode {mode:?})"
                );
                // The rollup row is in the store and parses back.
                let stored = store.get_telemetry(&c.name).unwrap().unwrap();
                assert_eq!(&stored, tel);
            }

            // Drop the rollup row (the one intended difference) and the
            // database must match the plain run byte for byte.
            store.clear_telemetry(&c.name).unwrap();
            let path = tmp(&format!("tel_{}_{workers}.json", mode.name()));
            store.save(&path).unwrap();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                base_bytes,
                "telemetry mode {mode:?} workers {workers} changed the database"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}

/// The analysis layer is visible in telemetry: a campaign that builds a
/// static analysis records its CFG build, its pc replay and its window
/// walk once each, and the runner's class grouping once. No other test
/// in this binary analyses this workload image: the analyzer memoizes
/// per (image, horizon), and a cached analysis records none of its spans.
#[test]
fn static_analysis_layers_are_recorded() {
    let c = Campaign::builder("tel-analysis", "thor-card", "sort10")
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: Some("R6".into()),
        })
        .fault_model(FaultModel::BitFlip)
        .window(0, 300)
        .experiments(40)
        .seed(5)
        .build()
        .unwrap();
    let mut target = ThorTarget::new("thor-card", sort_workload(10, 57));
    let options = RunOptions::new()
        .telemetry(TelemetryMode::Metrics)
        .pruning(Pruning::Static)
        .class_execution(true);
    let result = CampaignRunner::new(&mut target, &c)
        .options(options)
        .run()
        .unwrap();
    let tel = result
        .telemetry
        .expect("enabled telemetry produces a rollup");
    for name in [
        names::ANALYSIS_CFG,
        names::ANALYSIS_REPLAY,
        names::ANALYSIS_WINDOWS,
        names::PHASE_CLASS_GROUPING,
    ] {
        assert_eq!(tel.phase(name).map(|p| p.count), Some(1), "{name}");
    }
}
