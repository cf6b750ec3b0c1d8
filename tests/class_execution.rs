//! Equivalence-class execution through the real stack (Thor simulator
//! target + store): with `RunOptions::class_execution` on, the runner
//! executes one representative per fault equivalence class and fans its
//! verdict out to the other members — and the logged experiment rows must
//! be byte-identical to a campaign that executed every fault directly, at
//! any worker count. The databases may differ only by the persisted
//! static-analysis row the class planner stores.

use goofi_repro::core::{
    analyze_campaign, Campaign, CampaignResult, CampaignRunner, ClassKind, FaultModel, GoofiStore,
    LocationSelector, RunOptions, TargetSystemInterface, Technique,
};
use goofi_repro::targets::ThorTarget;
use goofi_repro::workloads::workload_by_name;

/// A campaign narrow enough (one 32-bit register, 300 injection slots)
/// that several of its faults provably share an equivalence class.
fn campaign(name: &str) -> Campaign {
    Campaign::builder(name, "thor-card", "sort8")
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: Some("R6".into()),
        })
        .fault_model(FaultModel::BitFlip)
        .window(0, 300)
        .experiments(60)
        .seed(9)
        .build()
        .unwrap()
}

fn factory() -> Box<dyn TargetSystemInterface> {
    Box::new(ThorTarget::new(
        "thor-card",
        workload_by_name("sort8").unwrap(),
    ))
}

fn seeded_store(c: &Campaign) -> GoofiStore {
    let mut store = GoofiStore::new();
    let target = factory();
    store.put_target(&target.describe()).unwrap();
    store.put_campaign(c).unwrap();
    store
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("goofi_class_exec");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn assert_same_runs(a: &CampaignResult, b: &CampaignResult) {
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.runs.len(), b.runs.len());
    for (i, (x, y)) in a.runs.iter().zip(&b.runs).enumerate() {
        assert_eq!(x, y, "run {i} differs");
    }
}

/// Class execution at workers 1, 2 and 4 logs experiment rows
/// byte-identical to a plain sequential campaign; only the persisted
/// static analysis distinguishes the databases.
#[test]
fn class_execution_is_byte_identical_modulo_analysis_row() {
    let c = campaign("cls");

    let mut plain_store = seeded_store(&c);
    let mut target = factory();
    let plain = CampaignRunner::new(target.as_mut(), &c)
        .store(&mut plain_store)
        .run()
        .unwrap();
    let plain_path = tmp("plain.json");
    plain_store.save(&plain_path).unwrap();
    let plain_bytes = std::fs::read(&plain_path).unwrap();
    std::fs::remove_file(&plain_path).ok();

    for workers in [1usize, 2, 4] {
        let mut store = seeded_store(&c);
        let classed = CampaignRunner::from_factory(factory, &c)
            .workers(workers)
            .options(RunOptions::new().class_execution(true))
            .store(&mut store)
            .run()
            .unwrap();
        assert_same_runs(&plain, &classed);

        // The plan actually fanned something out (otherwise this test
        // exercises nothing) and was persisted for `goofi report`.
        let sa = store
            .get_static_analysis("cls")
            .unwrap()
            .expect("class-executing run persists its analysis");
        let (classes, fanned) = sa.class_savings();
        assert!(classes > 0 && fanned > 0, "campaign produced no classes");
        assert!(sa.classes.iter().any(|cl| cl.kind == ClassKind::Live));

        // Modulo that analysis row, the database is byte-identical.
        store.clear_static_analysis("cls").unwrap();
        let path = tmp(&format!("class{workers}.json"));
        store.save(&path).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            plain_bytes,
            "{workers}-worker class-executing database differs from plain sequential"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// A class-executing campaign resumed from a partial store completes with
/// exactly the rows of an uninterrupted plain run: fanning out from
/// representatives already in the store is as good as executing them.
#[test]
fn class_execution_resume_matches_uninterrupted_run() {
    let c = campaign("cls-resume");

    let mut full_store = seeded_store(&c);
    let mut target = factory();
    CampaignRunner::new(target.as_mut(), &c)
        .store(&mut full_store)
        .run()
        .unwrap();
    let full_rows = full_store.experiments_of("cls-resume").unwrap();

    // Seed a partial store with the first 20 rows (reference + 19
    // experiments) of the full run, as a stopped campaign would leave,
    // then resume inline (one worker) and on the pool (two workers).
    for workers in [1usize, 2] {
        let mut store = seeded_store(&c);
        for record in full_rows.iter().take(20) {
            store.log_experiment(record).unwrap();
        }
        let resumed = CampaignRunner::from_factory(factory, &c)
            .workers(workers)
            .options(RunOptions::new().class_execution(true))
            .resume_from(&mut store)
            .run()
            .unwrap();
        assert_eq!(resumed.runs.len(), 60);
        store.clear_static_analysis("cls-resume").unwrap();
        assert_eq!(
            store.experiments_of("cls-resume").unwrap(),
            full_rows,
            "resumed class-executing store differs from an uninterrupted run at {workers} worker(s)"
        );
        let stats = analyze_campaign(&store, "cls-resume").unwrap();
        assert_eq!(stats, resumed.stats);
    }
}
