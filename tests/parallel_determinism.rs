//! Determinism of the work-stealing campaign runner through the real stack
//! (Thor simulator target + store + paged storage engine): any worker count
//! must produce results — and persisted databases — identical to the
//! sequential runner, including across stop/resume and crash recovery from
//! the engine's write-ahead log.

use goofi_repro::core::{
    analyze_campaign, control_channel, Campaign, CampaignResult, CampaignRunner, CampaignStats,
    Command, FaultModel, GoofiStore, JobSummary, LocationSelector, ProgressEvent, Pruning, Result,
    RunOptions, StateVector, StaticAnalysis, TargetEvent, TargetSnapshot, TargetSystemConfig,
    TargetSystemInterface, Technique, TraceStep,
};
use goofi_repro::targets::ThorTarget;
use goofi_repro::workloads::sort_workload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

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

/// Holds experiment read-backs so a stop lands mid-campaign however the
/// threads are scheduled: the first `free` read-backs across every target
/// sharing the hold pass, later ones wait for [`Hold::release`].
struct Hold {
    free: usize,
    reads: AtomicUsize,
    released: Mutex<bool>,
    cv: Condvar,
}

impl Hold {
    fn new(free: usize) -> Arc<Hold> {
        Arc::new(Hold {
            free,
            reads: AtomicUsize::new(0),
            released: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        if self.reads.fetch_add(1, Ordering::SeqCst) < self.free {
            return;
        }
        let mut released = self.released.lock().unwrap();
        while !*released {
            released = self.cv.wait(released).unwrap();
        }
    }
}

/// The Thor target with its read-back (one per experiment, checkpointed
/// or cold) going through a [`Hold`].
struct HeldThor {
    inner: ThorTarget,
    hold: Arc<Hold>,
}

impl TargetSystemInterface for HeldThor {
    fn target_name(&self) -> &str {
        self.inner.target_name()
    }
    fn describe(&self) -> TargetSystemConfig {
        self.inner.describe()
    }
    fn init_test_card(&mut self) -> Result<()> {
        self.inner.init_test_card()
    }
    fn load_workload(&mut self) -> Result<()> {
        self.inner.load_workload()
    }
    fn write_memory(&mut self, addr: u32, data: &[u32]) -> Result<()> {
        self.inner.write_memory(addr, data)
    }
    fn read_memory(&mut self, addr: u32, len: usize) -> Result<Vec<u32>> {
        self.inner.read_memory(addr, len)
    }
    fn set_breakpoint(&mut self, time: u64) -> Result<()> {
        self.inner.set_breakpoint(time)
    }
    fn run_workload(&mut self) -> Result<()> {
        self.inner.run_workload()
    }
    fn wait_for_breakpoint(&mut self) -> Result<TargetEvent> {
        self.inner.wait_for_breakpoint()
    }
    fn wait_for_termination(&mut self) -> Result<TargetEvent> {
        self.inner.wait_for_termination()
    }
    fn read_scan_chain(&mut self, chain: &str) -> Result<StateVector> {
        self.inner.read_scan_chain(chain)
    }
    fn write_scan_chain(&mut self, chain: &str, bits: &StateVector) -> Result<()> {
        self.inner.write_scan_chain(chain, bits)
    }
    fn observe_state(&mut self) -> Result<StateVector> {
        self.inner.observe_state()
    }
    fn read_outputs(&mut self) -> Result<Vec<u32>> {
        self.hold.wait();
        self.inner.read_outputs()
    }
    fn step_instruction(&mut self) -> Result<Option<TargetEvent>> {
        self.inner.step_instruction()
    }
    fn collect_trace(&mut self) -> Result<Vec<TraceStep>> {
        self.inner.collect_trace()
    }
    fn static_analysis(&mut self, horizon: u64) -> Result<StaticAnalysis> {
        self.inner.static_analysis(horizon)
    }
    fn instructions_retired(&mut self) -> Result<u64> {
        self.inner.instructions_retired()
    }
    fn iterations_completed(&mut self) -> Result<u32> {
        self.inner.iterations_completed()
    }
    fn snapshot(&mut self) -> Result<TargetSnapshot> {
        self.inner.snapshot()
    }
    fn restore(&mut self, snapshot: &TargetSnapshot) -> Result<()> {
        self.inner.restore(snapshot)
    }
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

    // Stop after the 5th completed experiment. Read-backs past the 20th
    // wait until the stop is sent, so the campaign cannot finish first.
    let (controller, handle) = control_channel();
    let hold = Hold::new(20);
    let held = {
        let hold = hold.clone();
        move || {
            Box::new(HeldThor {
                inner: ThorTarget::new("thor-card", sort_workload(12, 9)),
                hold: hold.clone(),
            }) as Box<dyn TargetSystemInterface>
        }
    };
    let watcher = std::thread::spawn(move || {
        let mut done = 0;
        while let Some(event) = handle.next() {
            match event {
                ProgressEvent::ExperimentDone { .. } => {
                    done += 1;
                    if done == 5 {
                        handle.send(Command::Stop);
                        hold.release();
                    }
                }
                ProgressEvent::Finished { .. } => break,
                _ => {}
            }
        }
    });
    let mut store = seeded_store(&c);
    let stopped = CampaignRunner::from_factory(held, &c)
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

/// A sort12 R6 campaign that decides most of its 400 rows without
/// executing them under [`decided_options`].
fn decided_campaign(name: &str) -> Campaign {
    Campaign::builder(name, "thor-card", "sort12")
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: Some("R6".into()),
        })
        .fault_model(FaultModel::BitFlip)
        .window(0, 400)
        .experiments(400)
        .seed(3)
        .build()
        .unwrap()
}

/// Static pruning, prediction and class execution.
fn decided_options() -> RunOptions {
    RunOptions::new()
        .pruning(Pruning::Static)
        .prediction(true)
        .class_execution(true)
}

/// Runs `c` on two workers into `store` and stops it after its 5th
/// completed row; read-backs past the 20th wait for the stop, so the
/// campaign cannot finish first.
fn stop_early(c: &Campaign, options: RunOptions, store: &mut GoofiStore) -> JobSummary {
    let (controller, handle) = control_channel();
    let hold = Hold::new(20);
    let held = {
        let hold = hold.clone();
        move || {
            Box::new(HeldThor {
                inner: ThorTarget::new("thor-card", sort_workload(12, 9)),
                hold: hold.clone(),
            }) as Box<dyn TargetSystemInterface>
        }
    };
    let watcher = std::thread::spawn(move || {
        let mut done = 0;
        while let Some(event) = handle.next() {
            match event {
                ProgressEvent::ExperimentDone { .. } => {
                    done += 1;
                    if done == 5 {
                        handle.send(Command::Stop);
                        hold.release();
                    }
                }
                ProgressEvent::Finished { .. } => break,
                _ => {}
            }
        }
    });
    let stopped = CampaignRunner::from_factory(held, c)
        .workers(2)
        .store(store)
        .options(options)
        .observer(&controller)
        .run_summary()
        .unwrap();
    drop(controller);
    watcher.join().unwrap();
    stopped
}

/// Pruned and predicted rows are written straight from the fault and the
/// reference, and class members from their representative: a campaign
/// that decides most of its rows so saves the same bytes as the
/// sequential runner that keeps every run, at workers 1, 2 and 4, and
/// after a stop and a parallel resume.
#[test]
fn decided_rows_are_byte_identical_at_any_worker_count_and_across_resume() {
    let c = decided_campaign("det-decided");
    let options = decided_options();
    let saved = |store: &mut GoofiStore, name: &str| {
        let path = tmp(name);
        store.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    };

    let mut seq_store = seeded_store(&c);
    let mut target = ThorTarget::new("thor-card", sort_workload(12, 9));
    let seq = CampaignRunner::new(&mut target, &c)
        .store(&mut seq_store)
        .options(options)
        .run()
        .unwrap();
    let fanned = seq.static_analysis.as_ref().map(|a| a.class_savings().1);
    assert!(
        seq.pruned() > 0 && seq.predicted() > 0 && fanned > Some(0),
        "the campaign must prune ({}), predict ({}) and fan out ({fanned:?})",
        seq.pruned(),
        seq.predicted()
    );
    // Decided rows are tallied from their decisions, not classified.
    assert_eq!(
        seq.stats,
        CampaignStats::from_runs(&seq.reference, &seq.runs)
    );
    let seq_bytes = saved(&mut seq_store, "decided_seq.db");

    // The services' body keeps no runs, so no decided row is ever
    // materialised on this path.
    for workers in [1usize, 2, 4] {
        let mut store = seeded_store(&c);
        let summary = CampaignRunner::from_factory(factory, &c)
            .workers(workers)
            .store(&mut store)
            .options(options)
            .run_summary()
            .unwrap();
        assert_eq!(summary.stats, seq.stats, "{workers} worker(s)");
        assert_eq!(summary.predicted, seq.predicted(), "{workers} worker(s)");
        assert_eq!(
            saved(&mut store, &format!("decided_par{workers}.db")),
            seq_bytes,
            "{workers}-worker database differs from sequential"
        );
    }

    let mut store = seeded_store(&c);
    let stopped = stop_early(&c, options, &mut store);
    assert!(
        stopped.experiments < 400,
        "stop must cut the campaign short"
    );

    let resumed = CampaignRunner::from_factory(factory, &c)
        .workers(4)
        .options(options)
        .resume_from(&mut store)
        .run_summary()
        .unwrap();
    assert_eq!(resumed.experiments, 400);
    assert_eq!(
        analyze_campaign(&store, &c.name).unwrap(),
        analyze_campaign(&seq_store, &c.name).unwrap()
    );
    assert_eq!(
        saved(&mut store, "decided_resumed.db"),
        seq_bytes,
        "stop + resume differs from an uninterrupted run"
    );
}

/// A stopped campaign's resume tallies the decided rows the stopped run
/// stored as what they were decided to be, so its summary (stats, pruned
/// and predicted counts) is the uninterrupted run's.
#[test]
fn resumed_campaign_counts_its_stored_decided_rows() {
    let c = decided_campaign("det-tally");
    let options = decided_options();
    let full = CampaignRunner::from_factory(factory, &c)
        .store(&mut seeded_store(&c))
        .options(options)
        .run_summary()
        .unwrap();
    let mut store = seeded_store(&c);
    let stopped = stop_early(&c, options, &mut store);
    assert!(
        stopped.experiments < 400 && stopped.pruned + stopped.predicted > 0,
        "the stopped run must store some decided rows: {stopped:?}"
    );
    let resumed = CampaignRunner::from_factory(factory, &c)
        .workers(2)
        .options(options)
        .resume_from(&mut store)
        .run_summary()
        .unwrap();
    assert_eq!(resumed.experiments, 400);
    assert_eq!(resumed.pruned, full.pruned);
    assert_eq!(resumed.predicted, full.predicted);
    assert_eq!(resumed.stats, full.stats);
}

/// A campaign whose rows all reached the write-ahead log but whose final
/// checkpoint never ran (a kill between the two) resumes to nothing left
/// to run, and the saved file is byte-identical to a clean run's: the
/// resume does not rewrite the unchanged static-analysis row.
#[test]
fn resume_after_an_unsaved_finish_saves_a_clean_runs_bytes() {
    let c = decided_campaign("det-unsaved");
    let options = decided_options();
    let run = |path: &std::path::Path| {
        let mut store = seeded_store(&c);
        store.save(path).unwrap();
        store.enable_journal(path).unwrap();
        CampaignRunner::from_factory(factory, &c)
            .store(&mut store)
            .options(options)
            .run_summary()
            .unwrap();
        store
    };
    let clean = tmp("unsaved_clean.db");
    run(&clean).save(&clean).unwrap();

    let crashed = tmp("unsaved_crash.db");
    drop(run(&crashed)); // no save: the rows live only in the WAL
    let mut store = GoofiStore::load(&crashed).unwrap();
    let resumed = CampaignRunner::from_factory(factory, &c)
        .options(options)
        .resume_from(&mut store)
        .run_summary()
        .unwrap();
    assert_eq!(resumed.experiments, 400);
    store.save(&crashed).unwrap();
    assert_eq!(
        std::fs::read(&crashed).unwrap(),
        std::fs::read(&clean).unwrap(),
        "the resumed file differs from a clean run's"
    );
    for path in [clean, crashed] {
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(path.with_extension("db.wal")).ok();
    }
}
