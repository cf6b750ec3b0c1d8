//! End-to-end integration: all four campaign phases through the real
//! stack (core framework + Thor simulator + database), store persistence,
//! and SQL analysis (experiments F1/F2/F4 fidelity).

use goofi_repro::core::{
    analyze_campaign, Campaign, CampaignRunner, FaultModel, GoofiStore, LocationSelector,
    TargetEvent, TargetSystemInterface, Technique,
};
use goofi_repro::targets::ThorTarget;
use goofi_repro::workloads::{sort_workload, workload_by_name};

fn campaign(n: usize, seed: u64) -> Campaign {
    Campaign::builder("e2e", "thor-card", "sort12")
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: None,
        })
        .fault_model(FaultModel::BitFlip)
        .window(0, 1500)
        .experiments(n)
        .seed(seed)
        .build()
        .unwrap()
}

#[test]
fn four_phases_against_real_target_and_database() {
    // Configuration phase.
    let mut target = ThorTarget::new("thor-card", sort_workload(12, 9));
    let mut store = GoofiStore::new();
    store.put_target(&target.describe()).unwrap();
    // Set-up phase.
    let c = campaign(60, 4);
    store.put_campaign(&c).unwrap();
    // Fault-injection phase.
    let result = CampaignRunner::new(&mut target, &c)
        .store(&mut store)
        .run()
        .unwrap();
    assert_eq!(result.runs.len(), 60);
    assert_eq!(result.reference.termination, TargetEvent::Halted);
    // Analysis phase — from the database alone.
    let stats = analyze_campaign(&store, "e2e").unwrap();
    assert_eq!(stats.total(), 60);
    assert_eq!(stats.detected, result.stats.detected);
    assert_eq!(stats.latent, result.stats.latent);
    // Every experiment classified exactly once.
    assert_eq!(
        stats.effective() + stats.non_effective(),
        60,
        "classification is total and exclusive"
    );
}

#[test]
fn store_survives_disk_roundtrip_with_campaign_data() {
    let mut target = ThorTarget::new("thor-card", sort_workload(12, 9));
    let mut store = GoofiStore::new();
    store.put_target(&target.describe()).unwrap();
    let c = campaign(10, 5);
    store.put_campaign(&c).unwrap();
    CampaignRunner::new(&mut target, &c)
        .store(&mut store)
        .run()
        .unwrap();

    let dir = std::env::temp_dir().join("goofi_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("e2e.json");
    store.save(&path).unwrap();
    let restored = GoofiStore::load(&path).unwrap();
    // Campaign and experiments intact.
    assert_eq!(restored.get_campaign("e2e").unwrap(), c);
    let stats = analyze_campaign(&restored, "e2e").unwrap();
    assert_eq!(stats.total(), 10);
    std::fs::remove_file(&path).ok();
}

#[test]
fn sql_breakdown_matches_classifier() {
    let mut target = ThorTarget::new("thor-card", sort_workload(12, 9));
    let mut store = GoofiStore::new();
    store.put_target(&target.describe()).unwrap();
    let c = campaign(40, 6);
    store.put_campaign(&c).unwrap();
    let result = CampaignRunner::new(&mut target, &c)
        .store(&mut store)
        .run()
        .unwrap();

    // "Tailor made script" (paper §3.5): count detections by grepping the
    // experimentData JSON for the Detected termination.
    let rs = store
        .to_database()
        .unwrap()
        .query(
            "SELECT COUNT(*) AS n FROM LoggedSystemState \
             WHERE campaignName = 'e2e' \
             AND experimentName <> 'e2e/ref' \
             AND experimentData LIKE '%Detected%'",
        )
        .unwrap();
    let detected_sql = rs.scalar().unwrap().as_integer().unwrap() as usize;
    assert_eq!(detected_sql, result.stats.detected_total());
}

#[test]
fn campaigns_are_reproducible_from_their_seed() {
    let run_with = |seed: u64| {
        let mut target = ThorTarget::new("thor-card", sort_workload(12, 9));
        CampaignRunner::new(&mut target, &campaign(30, seed))
            .run()
            .unwrap()
    };
    let a = run_with(42);
    let b = run_with(42);
    let c = run_with(43);
    assert_eq!(a.stats, b.stats, "same seed, same campaign");
    for (x, y) in a.runs.iter().zip(&b.runs) {
        assert_eq!(x.fault, y.fault);
        assert_eq!(x.termination, y.termination);
        assert_eq!(x.outputs, y.outputs);
    }
    assert_ne!(
        a.runs.iter().map(|r| r.fault.clone()).collect::<Vec<_>>(),
        c.runs.iter().map(|r| r.fault.clone()).collect::<Vec<_>>(),
        "different seed, different fault list"
    );
}

#[test]
fn workload_registry_covers_bundled_workloads() {
    for name in ["sort16", "matmul4", "crc32x16", "fib20", "pid"] {
        assert!(workload_by_name(name).is_some(), "missing {name}");
    }
    assert!(workload_by_name("sort0").is_none());
    assert!(workload_by_name("fib100").is_none());
}
