//! Experiment F1: the three-layer architecture of Fig. 1, enforced and
//! exercised end to end — GUI surface (progress control + CLI-equivalent
//! library calls) above, algorithms/framework in the middle, the database
//! below, with the environment simulator beside the target.

use goofi_repro::core::{
    analyze_propagation, control_channel, reference_run, Campaign, CampaignRunner, FaultModel,
    GoofiStore, LocationSelector, LogMode, ServiceEvent, TargetSystemInterface, Technique,
};
use goofi_repro::envsim::{DcMotorEnv, Environment, RecordingEnv, SCALE};
use goofi_repro::targets::ThorTarget;
use goofi_repro::workloads::{pid_workload, sort_workload, PidGains};

#[test]
fn all_three_layers_cooperate_in_one_flow() {
    // Bottom layer: the database.
    let mut store = GoofiStore::new();
    // Middle layer: a target behind the abstract interface.
    let mut target = ThorTarget::new("thor-card", sort_workload(8, 1));
    store.put_target(&target.describe()).unwrap();
    let campaign = Campaign::builder("arch", "thor-card", "sort8")
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: None,
        })
        .fault_model(FaultModel::BitFlip)
        .window(0, 500)
        .experiments(20)
        .seed(2)
        .build()
        .unwrap();
    store.put_campaign(&campaign).unwrap();
    // Top layer: the progress surface (Fig. 7).
    let (controller, handle) = control_channel();
    let result = CampaignRunner::new(&mut target, &campaign)
        .store(&mut store)
        .observer(&controller)
        .run()
        .unwrap();
    drop(controller);
    // Every layer saw the campaign.
    assert_eq!(result.runs.len(), 20);
    assert_eq!(store.experiments_of("arch").unwrap().len(), 21);
    assert!(handle
        .drain()
        .iter()
        .any(|e| matches!(e, ServiceEvent::Finished { .. })));
}

#[test]
fn environment_simulator_sits_beside_the_target() {
    // Fig. 1 shows the workload exchanging data with an environment
    // simulator: verify the recorded exchange stream exists and has the
    // per-iteration shape.
    let env = RecordingEnv::new(DcMotorEnv::new(3 * SCALE));
    assert_eq!(env.num_inputs(), 2);
    let mut target = ThorTarget::with_env("thor-card", pid_workload(PidGains::default(), 10), {
        Box::new(env)
    });
    let campaign = Campaign::builder("env", "thor-card", "pid")
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: None,
        })
        .window(0, 100)
        .experiments(1)
        .seed(1)
        .build()
        .unwrap();
    let reference = reference_run(&mut target, &campaign).unwrap();
    assert_eq!(reference.iterations, 10);
    assert_eq!(
        reference.outputs.len(),
        10,
        "one recorded exchange per iteration"
    );
}

#[test]
fn propagation_analysis_reads_detail_traces() {
    // Detail traces flow from the target through the algorithm layer into
    // the analysis layer (the paper's stated purpose of detail mode).
    let mut campaign = Campaign::builder("prop", "thor-card", "sort8")
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: Some("R3".into()),
        })
        .window(5, 5)
        .experiments(1)
        .seed(1)
        .build()
        .unwrap();
    campaign.log_mode = LogMode::Detail;
    let mut target = ThorTarget::new("thor-card", sort_workload(8, 1));
    let chains = target.describe().chains;
    let result = CampaignRunner::new(&mut target, &campaign).run().unwrap();
    let faulty = result.runs[0].detail_trace.as_ref().expect("detail trace");
    let reference = result
        .reference
        .detail_trace
        .as_ref()
        .expect("reference trace");
    let injected_at = result.runs[0].fault.as_ref().unwrap().times[0] as usize;
    let report = analyze_propagation(reference, faulty, injected_at, &chains);
    // The injected flip is visible immediately after the breakpoint.
    assert_eq!(report.first_divergence, Some(injected_at as u64));
    assert!(
        report.infection_order.iter().any(|(f, _)| f == "cpu.R3"),
        "{:?}",
        report.infection_order
    );
}
