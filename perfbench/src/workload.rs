//! The benchmark workloads: one Thor `sort16` SCIFI bit-flip campaign
//! shape, driven three ways so that each stresses different layers (see
//! `NOTES.md` for why each was chosen).
//!
//! Everything here is set-up and checking, never timed: campaign
//! construction, the seeded database each sample starts from, and the
//! reference rows every sample's database is checked against.

use goofi_core::{
    Campaign, CampaignRunner, ExecOptions, ExperimentRecord, FaultModel, GoofiStore,
    LocationSelector, Pruning, RunOptions, Technique,
};
use goofi_db::storage::wal_path;
use goofi_targets::standard_factory;
use std::collections::BTreeMap;
use std::path::Path;

/// The injection window's end: the measured execution length of
/// `sort16` in retired instructions. Faults past the halt stay latent in
/// the scan chain and only dilute the campaign.
pub const WINDOW_END: u64 = 1342;

/// Experiment indices per chunk on the server (the `goofi serve`
/// default).
pub const SERVER_CHUNK: usize = 16;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Whole `cpu` chain, default options, `LocalService`, one worker.
    ChainInproc,
    /// Field `R6`, static pruning + prediction + class execution.
    R6Static,
    /// The `chain-inproc` campaign through the daemon and one worker
    /// process, watched over loopback.
    ChainServer,
}

impl Workload {
    /// Every workload, in the order the notes list them.
    pub const ALL: [Workload; 3] = [
        Workload::ChainInproc,
        Workload::R6Static,
        Workload::ChainServer,
    ];

    /// Parses a `--workload` argument.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in the notes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChainInproc => "chain-inproc",
            Workload::R6Static => "r6-static",
            Workload::ChainServer => "chain-server",
        }
    }

    /// Faults in the campaign: as many as still leave a 30 s run several
    /// samples (about 1 s for `r6-static`, 2 s in-process and 5 s served
    /// for the chain), because the fault mix a seed draws moves campaign
    /// time less the larger the campaign (see `NOTES.md`).
    pub fn experiments(self) -> usize {
        match self {
            Workload::R6Static => 20_000,
            _ => 10_000,
        }
    }

    /// How many first samples `exp_per_s` and `campaign_s` take the
    /// fastest of. The count is fixed so that a faster program, which
    /// fits more samples into `--seconds`, does not also get a better
    /// best-of-n by chance. Each is about what the workload fits in a
    /// 30 s run; more samples cut the short bursts of a shared host out
    /// better (see `NOTES.md`).
    pub fn fastest_of(self) -> usize {
        match self {
            Workload::ChainInproc => 10,
            Workload::R6Static => 15,
            Workload::ChainServer => 5,
        }
    }

    /// The campaign for `seed` (the workload seed becomes the campaign
    /// seed, so the same seed always yields the same fault list).
    pub fn campaign(self, seed: u64) -> Campaign {
        let field = match self {
            Workload::R6Static => Some("R6".to_owned()),
            _ => None,
        };
        Campaign::builder(format!("perf-{}", self.name()), "thor-card", "sort16")
            .technique(Technique::Scifi)
            .select(LocationSelector::Chain {
                chain: "cpu".into(),
                field,
            })
            .fault_model(FaultModel::BitFlip)
            .window(0, WINDOW_END)
            .experiments(self.experiments())
            .seed(seed)
            .build()
            .expect("benchmark campaigns are valid")
    }

    /// The execution options the job is submitted with.
    pub fn options(self) -> ExecOptions {
        match self {
            Workload::R6Static => ExecOptions::new()
                .pruning(Pruning::Static)
                .prediction(true)
                .class_execution(true),
            _ => ExecOptions::new(),
        }
    }
}

/// The rows a correct campaign logs, by experiment name: the plain
/// sequential runner's output with pruning, prediction, class execution
/// and checkpointing all off.
pub fn reference_rows(campaign: &Campaign) -> BTreeMap<String, ExperimentRecord> {
    let factory = standard_factory(campaign).expect("sort16 is a bundled workload");
    let mut target = factory();
    let mut store = GoofiStore::new();
    store.put_target(&target.describe()).expect("target row");
    store.put_campaign(campaign).expect("campaign row");
    CampaignRunner::new(target.as_mut(), campaign)
        .options(RunOptions::new().checkpoint(false).pruning(Pruning::Off))
        .store(&mut store)
        .run()
        .expect("reference campaign runs");
    store
        .experiments_of(&campaign.name)
        .expect("reference rows")
        .into_iter()
        .map(|r| (r.name.clone(), r))
        .collect()
}

/// Writes the database a sample starts from to `path`: the target and
/// campaign rows, checkpointed.
pub fn write_template(campaign: &Campaign, path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(wal_path(path));
    let factory = standard_factory(campaign).expect("sort16 is a bundled workload");
    let mut store = GoofiStore::new();
    store.put_target(&factory().describe()).expect("target row");
    store.put_campaign(campaign).expect("campaign row");
    store.save(path).expect("template database");
}

/// Copies the template database to `to`, dropping the write-ahead log a
/// previous sample left there.
pub fn copy_database(from: &Path, to: &Path) {
    std::fs::copy(from, to).expect("copy template database");
    let _ = std::fs::remove_file(wal_path(to));
}

/// Bytes of the database file plus its write-ahead log.
pub fn database_bytes(path: &Path) -> u64 {
    let len = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    len(path) + len(&wal_path(path))
}

/// Counts the experiment rows of `path`'s campaign that are missing from
/// it or differ from `expected`. The reference row is checked too.
pub fn row_errors(
    campaign: &Campaign,
    expected: &BTreeMap<String, ExperimentRecord>,
    path: &Path,
) -> usize {
    let found = load_rows(campaign, path);
    expected
        .iter()
        .filter(|(name, row)| found.get(*name) != Some(row))
        .count()
}

/// The campaign's rows in the database at `path`, by name (empty when
/// the database cannot be read — every row then counts as missing).
pub fn load_rows(campaign: &Campaign, path: &Path) -> BTreeMap<String, ExperimentRecord> {
    GoofiStore::load(path)
        .and_then(|store| store.experiments_of(&campaign.name))
        .map(|rows| rows.into_iter().map(|r| (r.name.clone(), r)).collect())
        .unwrap_or_default()
}
