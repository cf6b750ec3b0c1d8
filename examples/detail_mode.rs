//! Detail mode and the `parentExperiment` flow (paper §2.3 and §3.3):
//! run a campaign in normal mode, pick an interesting experiment (a
//! fail-silence violation), then re-run just that experiment in detail
//! mode — logging the state after every instruction — and store the
//! detail run with `parentExperiment` pointing at the original.
//!
//! Run with: `cargo run --release --example detail_mode`

use goofi_repro::core::{
    classify, run_experiment, Campaign, CampaignRunner, EscapeKind, ExperimentData,
    ExperimentRecord, FaultModel, GoofiStore, LocationSelector, LogMode, Outcome, StateVector,
    TargetSystemInterface, Technique,
};
use goofi_repro::targets::ThorTarget;
use goofi_repro::workloads::fibonacci_workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut store = GoofiStore::new();
    let mut target = ThorTarget::new("thor-card", fibonacci_workload(24));
    store.put_target(&target.describe())?;

    let campaign = Campaign::builder("hunt", "thor-card", "fib24")
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: None,
        })
        .fault_model(FaultModel::BitFlip)
        .window(0, 120)
        .experiments(300)
        .seed(17)
        .build()?;
    store.put_campaign(&campaign)?;
    let result = CampaignRunner::new(&mut target, &campaign)
        .store(&mut store)
        .run()?;

    // Find the first escaped (wrong result) experiment.
    let interesting = result.runs.iter().enumerate().find(|(_, r)| {
        matches!(
            classify(&result.reference, r),
            Outcome::Escaped {
                kind: EscapeKind::WrongOutput
            }
        )
    });
    let Some((index, run)) = interesting else {
        println!("no fail-silence violation in this campaign — try another seed");
        return Ok(());
    };
    let fault = run.fault.clone().expect("injected run");
    println!(
        "experiment #{index} escaped with wrong output {:?} (reference {:?})",
        run.outputs, result.reference.outputs
    );
    println!("fault: {}", fault.describe());

    // Re-run THAT experiment in detail mode: same campaign data, same
    // fault, per-instruction state logging.
    let mut detail_campaign = campaign.clone();
    detail_campaign.log_mode = LogMode::Detail;
    let detail = run_experiment(&mut target, &detail_campaign, &fault)?;
    let trace = detail.detail_trace.as_ref().expect("detail trace");
    println!("detail re-run captured {} state snapshots", trace.len());

    // Error-propagation analysis: when did the faulty state first diverge
    // from the reference detail trace? The faulty trace starts at the
    // injection breakpoint, so align the reference by the injection time.
    let injection_time = fault.times[0] as usize;
    let mut ref_target = ThorTarget::new("thor-card", fibonacci_workload(24));
    let ref_detail = goofi_repro::core::reference_run(&mut ref_target, &detail_campaign)?;
    let ref_trace = ref_detail.detail_trace.as_ref().expect("reference trace");
    let aligned_ref = &ref_trace[injection_time.min(ref_trace.len())..];
    let first_diff = trace
        .iter()
        .zip(aligned_ref)
        .position(|(a, b)| a != b)
        .map(|i| (injection_time + i) as i64)
        .unwrap_or(-1);
    println!("first state divergence at instruction {first_diff}");
    let diverged: usize = trace
        .iter()
        .zip(aligned_ref)
        .filter(|(a, b)| a != b)
        .count();
    println!(
        "diverging snapshots: {diverged}/{} — the propagation footprint",
        trace.len().min(aligned_ref.len())
    );

    // Log the re-run with parentExperiment tracking (paper §2.3).
    let parent_name = format!("hunt/{index:05}");
    store.log_experiment(&ExperimentRecord {
        name: format!("{parent_name}-detail"),
        parent: Some(parent_name.clone()),
        campaign: "hunt".into(),
        data: ExperimentData {
            fault: Some(fault),
            termination: detail.termination.clone(),
            outputs: detail.outputs.clone(),
            iterations: detail.iterations,
            instructions: detail.instructions,
            detail_trace: Some(
                trace
                    .iter()
                    .map(StateVector::as_bytes)
                    .map(<[u8]>::to_vec)
                    .collect(),
            ),
        },
        state_vector: detail.state.as_bytes().to_vec(),
    })?;
    println!("stored detail re-run with parentExperiment = {parent_name}");

    // The foreign keys let us walk back from the detail run to the
    // original campaign data.
    let rs = store.to_database()?.query(
        "SELECT l.experimentName, c.nrOfExperiments \
         FROM LoggedSystemState l \
         JOIN LoggedSystemState p ON l.parentExperiment = p.experimentName \
         JOIN CampaignData c ON p.campaignName = c.campaignName",
    )?;
    println!("detail runs tracked through the schema:\n{rs}");
    Ok(())
}
