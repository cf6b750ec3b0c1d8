//! Determinism of the work-stealing campaign runner through the real stack
//! (Thor simulator target + store + paged storage engine): any worker count
//! must produce results — and persisted databases — identical to the
//! sequential runner, including across stop/resume and crash recovery from
//! the engine's write-ahead log.

use goofi_repro::core::{
    analyze_campaign, control_channel, Campaign, CampaignResult, CampaignRunner, Command,
    FaultModel, GoofiStore, LocationSelector, ProgressEvent, RunOptions, TargetSystemInterface,
    Technique,
};
use goofi_repro::targets::ThorTarget;
use goofi_repro::workloads::sort_workload;

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
    let dir = std::env::temp_dir().join("goofi_par_det");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn assert_same_runs(a: &CampaignResult, b: &CampaignResult) {
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.runs.len(), b.runs.len());
    for (x, y) in a.runs.iter().zip(&b.runs) {
        assert_eq!(x.fault, y.fault);
        assert_eq!(x.termination, y.termination);
        assert_eq!(x.outputs, y.outputs);
    }
}

/// Workers 1, 2 and 4 (and the static round-robin ablation) all yield the
/// sequential runner's results, and the saved databases are byte-identical.
#[test]
fn any_worker_count_is_byte_identical_to_sequential() {
    let c = campaign("det", 40);

    let mut seq_store = seeded_store(&c);
    let mut target = ThorTarget::new("thor-card", sort_workload(12, 9));
    let seq = CampaignRunner::new(&mut target, &c)
        .store(&mut seq_store)
        .run()
        .unwrap();
    let seq_path = tmp("seq.json");
    seq_store.save(&seq_path).unwrap();
    let seq_bytes = std::fs::read(&seq_path).unwrap();

    for workers in [1usize, 2, 4] {
        let mut store = seeded_store(&c);
        let par = CampaignRunner::from_factory(factory, &c)
            .workers(workers)
            .store(&mut store)
            .run()
            .unwrap();
        assert_same_runs(&seq, &par);
        let path = tmp(&format!("par{workers}.json"));
        store.save(&path).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            seq_bytes,
            "{workers}-worker database differs from sequential"
        );
        std::fs::remove_file(&path).ok();
    }

    std::fs::remove_file(&seq_path).ok();
}

/// The checkpoint cache is invisible in the results: with checkpointing on
/// or off, at workers 1, 2 and 4, every database is byte-identical to a
/// cold-start sequential run.
#[test]
fn checkpointing_on_or_off_is_byte_identical() {
    let c = campaign("det-ckpt", 40);

    // Cold-start sequential run (no checkpoint cache) is the ground truth.
    let mut cold_store = seeded_store(&c);
    let mut target = ThorTarget::new("thor-card", sort_workload(12, 9));
    let cold = CampaignRunner::new(&mut target, &c)
        .store(&mut cold_store)
        .options(RunOptions::new().checkpoint(false))
        .run()
        .unwrap();
    let cold_path = tmp("ckpt_cold.json");
    cold_store.save(&cold_path).unwrap();
    let cold_bytes = std::fs::read(&cold_path).unwrap();
    std::fs::remove_file(&cold_path).ok();

    for checkpoint in [false, true] {
        for workers in [1usize, 2, 4] {
            let mut store = seeded_store(&c);
            let result = CampaignRunner::from_factory(factory, &c)
                .workers(workers)
                .store(&mut store)
                .options(RunOptions::new().checkpoint(checkpoint))
                .run()
                .unwrap();
            assert_same_runs(&cold, &result);
            let path = tmp(&format!("ckpt_{checkpoint}_{workers}.json"));
            store.save(&path).unwrap();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                cold_bytes,
                "checkpoint={checkpoint} workers={workers} database differs from cold sequential"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}

/// A campaign stopped mid-flight and resumed in parallel ends with exactly
/// the rows and statistics of an uninterrupted run.
#[test]
fn stop_then_parallel_resume_recovers_full_campaign() {
    let c = campaign("det-resume", 40);

    let mut full_store = seeded_store(&c);
    let mut target = ThorTarget::new("thor-card", sort_workload(12, 9));
    CampaignRunner::new(&mut target, &c)
        .store(&mut full_store)
        .run()
        .unwrap();
    let full_rows = full_store.experiments_of("det-resume").unwrap();

    // Stop after the 5th completed experiment.
    let (controller, handle) = control_channel();
    let watcher = std::thread::spawn(move || {
        let mut done = 0;
        while let Some(event) = handle.next() {
            match event {
                ProgressEvent::ExperimentDone { .. } => {
                    done += 1;
                    if done == 5 {
                        handle.send(Command::Stop);
                    }
                }
                ProgressEvent::Finished { .. } => break,
                _ => {}
            }
        }
    });
    let mut store = seeded_store(&c);
    let stopped = CampaignRunner::from_factory(factory, &c)
        .workers(2)
        .store(&mut store)
        .observer(&controller)
        .run()
        .unwrap();
    drop(controller);
    watcher.join().unwrap();
    assert!(stopped.runs.len() < 40, "stop must cut the campaign short");

    let resumed = CampaignRunner::from_factory(factory, &c)
        .workers(4)
        .resume_from(&mut store)
        .run()
        .unwrap();
    assert_eq!(resumed.runs.len(), 40);
    assert_eq!(
        store.experiments_of("det-resume").unwrap(),
        full_rows,
        "resumed store rows differ from an uninterrupted run"
    );
    let stats = analyze_campaign(&store, "det-resume").unwrap();
    assert_eq!(stats.total(), 40);
    assert_eq!(stats, resumed.stats);
}

/// Crash recovery: a parallel campaign streamed to the write-ahead log but
/// never checkpointed is fully reconstructed by `GoofiStore::load`
/// replaying the WAL tail.
#[test]
fn journal_replay_recovers_unsnapshotted_parallel_campaign() {
    let c = campaign("det-crash", 30);
    let path = tmp("crash.json");

    let mut store = seeded_store(&c);
    store.save(&path).unwrap(); // snapshot holds config only, no experiments
    store.enable_journal(&path).unwrap();
    let result = CampaignRunner::from_factory(factory, &c)
        .workers(2)
        .store(&mut store)
        .run()
        .unwrap();
    assert_eq!(result.runs.len(), 30);
    drop(store); // crash: no `save` — rows live only in the journal

    let recovered = GoofiStore::load(&path).unwrap();
    let stats = analyze_campaign(&recovered, "det-crash").unwrap();
    assert_eq!(stats.total(), 30);
    assert_eq!(stats, result.stats);

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(path.with_extension("json.wal")).ok();
}
