//! Quickstart: configure a target, define a campaign, inject faults,
//! analyse — the paper's four phases in ~60 lines.
//!
//! Run with: `cargo run --example quickstart`

use goofi_repro::core::{
    analyze_campaign, Campaign, CampaignRunner, FaultModel, GoofiStore, LocationSelector,
    TargetSystemInterface, Technique,
};
use goofi_repro::targets::ThorTarget;
use goofi_repro::workloads::sort_workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Configuration phase (paper Fig. 5): build the target system — a
    // simulated Thor RD board running a selection-sort workload — and
    // store its description (scan chains, memory map) in the database.
    let mut target = ThorTarget::new("thor-card", sort_workload(16, 42));
    let mut store = GoofiStore::new();
    store.put_target(&target.describe())?;

    // Set-up phase (paper Fig. 6): 200 single bit-flips, injected via the
    // scan chains (SCIFI) into any writable bit of the CPU chain, at a
    // uniformly random instant in the first 2000 instructions.
    let campaign = Campaign::builder("quickstart", "thor-card", "sort16")
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: None,
        })
        .fault_model(FaultModel::BitFlip)
        .window(0, 2000)
        .experiments(200)
        .seed(7)
        .build()?;
    store.put_campaign(&campaign)?;

    // Fault-injection phase (paper Fig. 2): reference run, then one
    // injection per experiment, everything logged to LoggedSystemState.
    let result = CampaignRunner::new(&mut target, &campaign)
        .store(&mut store)
        .run()?;
    println!("== in-memory classification ==");
    println!("{}", result.stats.report());

    // Analysis phase: the automatic analyzer re-derives the same numbers
    // from the database alone.
    let stats = analyze_campaign(&store, "quickstart")?;
    println!("== re-derived from the database ==");
    println!("{}", stats.report());
    assert_eq!(stats.detected_total(), result.stats.detected_total());

    // Ad-hoc SQL still works for "tailor made" analyses (paper §3.5).
    let rs = store
        .to_database()?
        .query("SELECT COUNT(*) AS n FROM LoggedSystemState WHERE campaignName = 'quickstart'")?;
    println!("logged rows (incl. reference): {}", rs.rows[0][0]);
    Ok(())
}
