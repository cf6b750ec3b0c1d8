//! Golden-row parity for the Thor simulator: fixed campaigns whose logged
//! rows are folded into a 64-bit digest and compared with constants
//! recorded from a known-good build.
//!
//! Benchmarks and determinism tests compare a run against references
//! computed by the *same* binary, so a change in interpreter, cache or
//! scan-chain semantics would pass them unnoticed. These digests pin the
//! rows themselves: a digest mismatch means some verdict, output, state
//! vector or instruction count moved. Update a constant only for an
//! intended change of target semantics, and say so.

use goofi_repro::core::{
    logged_experiment_name, reference_experiment_name, Campaign, CampaignRunner, FaultModel,
    GoofiStore, LocationSelector, TargetSystemInterface, Technique,
};
use goofi_repro::targets::ThorTarget;
use goofi_repro::workloads::workload_by_name;

const EXPERIMENTS: usize = 400;

/// 64-bit FNV-1a, folded incrementally.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn thor() -> ThorTarget {
    ThorTarget::new("thor-card", workload_by_name("sort16").unwrap())
}

/// Runs `campaign` on sort16 and returns the FNV-1a digest of every logged
/// row (reference first, then experiments in index order), each row
/// length-prefixed in the storage engine's row codec.
fn digest(campaign: &Campaign) -> u64 {
    let mut target = thor();
    let mut store = GoofiStore::new();
    store.put_target(&target.describe()).unwrap();
    store.put_campaign(campaign).unwrap();
    CampaignRunner::new(&mut target, campaign)
        .store(&mut store)
        .run()
        .unwrap();
    let names = std::iter::once(reference_experiment_name(&campaign.name))
        .chain((0..EXPERIMENTS).map(|i| logged_experiment_name(&campaign.name, i)));
    let mut fnv = Fnv1a::new();
    for name in names {
        let row = store.get_experiment(&name).unwrap().to_bytes().unwrap();
        fnv.write(&(row.len() as u64).to_le_bytes());
        fnv.write(&row);
    }
    fnv.0
}

fn campaign(name: &str, technique: Technique, select: LocationSelector) -> Campaign {
    Campaign::builder(name, "thor-card", "sort16")
        .technique(technique)
        .select(select)
        .fault_model(FaultModel::BitFlip)
        .window(0, 2500)
        .experiments(EXPERIMENTS)
        .seed(5)
        .build()
        .unwrap()
}

fn scifi(chain: &str) -> Campaign {
    campaign(
        &format!("golden-{chain}"),
        Technique::Scifi,
        LocationSelector::Chain {
            chain: chain.into(),
            field: None,
        },
    )
}

fn check(campaign: &Campaign, expected: u64) {
    let got = digest(campaign);
    assert_eq!(
        got, expected,
        "campaign `{}` rows drifted: digest {got:#018x}, recorded {expected:#018x}",
        campaign.name
    );
}

#[test]
fn scifi_cpu_chain_rows_match_golden_digest() {
    check(&scifi("cpu"), 0xc4d7_c985_c74a_0bae);
}

#[test]
fn scifi_icache_chain_rows_match_golden_digest() {
    check(&scifi("icache"), 0x1fd7_2898_ded7_14dc);
}

#[test]
fn scifi_dcache_chain_rows_match_golden_digest() {
    check(&scifi("dcache"), 0x637e_1c74_d12d_4999);
}

/// Runtime SWIFI into sort16's data region: the array being sorted and
/// the words around it.
#[test]
fn swifi_data_memory_rows_match_golden_digest() {
    let c = campaign(
        "golden-swifi",
        Technique::SwifiRuntime,
        LocationSelector::Memory {
            start: 0x4000,
            words: 32,
        },
    );
    check(&c, 0x4535_76db_fedc_6217);
}
