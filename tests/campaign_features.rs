//! Campaign-level feature tests against the real Thor target: extended
//! fault models (E6), extended triggers, pre-injection analysis (E3),
//! detail mode (E4), campaign merging (F6) and progress control (F7).

use goofi_repro::core::{
    control_channel, Campaign, CampaignRunner, Command, FaultModel, LocationSelector, LogMode,
    ServiceEvent, Technique, Trigger, TriggerPolicy,
};
use goofi_repro::targets::ThorTarget;
use goofi_repro::workloads::{crc32_workload, fibonacci_workload, sort_workload};
use std::thread;
use std::time::Duration;

fn base_campaign(name: &str) -> Campaign {
    Campaign::builder(name, "thor", "w")
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: None,
        })
        .window(0, 1500)
        .experiments(120)
        .seed(21)
        .build()
        .unwrap()
}

fn target() -> ThorTarget {
    ThorTarget::new("thor", sort_workload(10, 4))
}

#[test]
fn fault_model_severity_ordering() {
    // E6: permanent stuck-at faults must be at least as effective as
    // intermittent faults, which must be at least as effective as single
    // transients, on the same locations and window.
    let run_model = |model: FaultModel| {
        let mut c = base_campaign("models");
        c.fault_model = model;
        let mut t = target();
        CampaignRunner::new(&mut t, &c).run().unwrap().stats
    };
    let transient = run_model(FaultModel::BitFlip);
    let intermittent = run_model(FaultModel::Intermittent { activations: 4 });
    let stuck = run_model(FaultModel::StuckAt {
        value: true,
        reassert_period: 100,
    });
    assert!(
        intermittent.effective() >= transient.effective(),
        "intermittent {} < transient {}",
        intermittent.effective(),
        transient.effective()
    );
    assert!(
        stuck.effective() >= transient.effective(),
        "stuck-at {} < transient {}",
        stuck.effective(),
        transient.effective()
    );
}

#[test]
fn multi_bit_flips_are_more_effective_than_single() {
    let run_bits = |model: FaultModel| {
        let mut c = base_campaign("bits");
        c.fault_model = model;
        let mut t = target();
        CampaignRunner::new(&mut t, &c).run().unwrap().stats
    };
    let single = run_bits(FaultModel::BitFlip);
    let multi = run_bits(FaultModel::MultiBitFlip { bits: 4 });
    assert!(
        multi.effective() + multi.latent >= single.effective() + single.latent,
        "4-bit flips should disturb at least as much state"
    );
}

#[test]
fn extended_triggers_resolve_against_the_trace() {
    // Inject right after the 5th executed branch, every experiment.
    let mut c = base_campaign("trig");
    c.trigger = TriggerPolicy::Triggers(vec![Trigger::AfterBranch { n: 5 }]);
    c.experiments = 20;
    let mut t = target();
    let result = CampaignRunner::new(&mut t, &c).run().unwrap();
    let times: Vec<u64> = result
        .runs
        .iter()
        .map(|r| r.fault.as_ref().unwrap().times[0])
        .collect();
    assert!(
        times.windows(2).all(|w| w[0] == w[1]),
        "same instant every time"
    );
    // OnWrite trigger: after the first write of R3.
    let mut c = base_campaign("trig2");
    c.trigger = TriggerPolicy::Triggers(vec![Trigger::OnWrite {
        location: "R3".into(),
        n: 1,
    }]);
    c.experiments = 5;
    let mut t = target();
    let result = CampaignRunner::new(&mut t, &c).run().unwrap();
    assert_eq!(result.runs.len(), 5);
}

#[test]
fn preinjection_analysis_is_sound_on_thor() {
    // E3: with and without pruning, classification must agree exactly —
    // the liveness analysis may only skip experiments whose outcome is the
    // reference outcome.
    let mut plain = base_campaign("prune-off");
    plain.experiments = 150;
    let mut pruned = plain.clone();
    pruned.name = "prune-on".into();
    pruned.pre_injection_analysis = true;

    let mut t = target();
    let plain_result = CampaignRunner::new(&mut t, &plain).run().unwrap();
    let mut t = target();
    let pruned_result = CampaignRunner::new(&mut t, &pruned).run().unwrap();

    assert_eq!(plain_result.stats.detected, pruned_result.stats.detected);
    assert_eq!(
        plain_result.stats.escaped_total(),
        pruned_result.stats.escaped_total()
    );
    assert_eq!(plain_result.stats.latent, pruned_result.stats.latent);
    assert_eq!(
        plain_result.stats.overwritten,
        pruned_result.stats.overwritten
    );
    assert!(
        pruned_result.pruned() > 0,
        "a 1500-instruction window over all registers must contain dead intervals"
    );
}

#[test]
fn preinjection_is_sound_for_psw_faults() {
    // Regression test: PSW flag updates must be full-width writes, or
    // pruning a fault in a reserved PSW bit would be unsound.
    let mut plain = base_campaign("psw-off");
    plain.selectors = vec![LocationSelector::Chain {
        chain: "cpu".into(),
        field: Some("PSW".into()),
    }];
    plain.experiments = 120;
    let mut pruned = plain.clone();
    pruned.name = "psw-on".into();
    pruned.pre_injection_analysis = true;

    let mut t = target();
    let a = CampaignRunner::new(&mut t, &plain).run().unwrap();
    let mut t = target();
    let b = CampaignRunner::new(&mut t, &pruned).run().unwrap();
    assert_eq!(a.stats.detected, b.stats.detected);
    assert_eq!(a.stats.escaped_total(), b.stats.escaped_total());
    assert_eq!(a.stats.latent, b.stats.latent);
    assert_eq!(a.stats.overwritten, b.stats.overwritten);
    assert!(
        b.pruned() > 0,
        "PSW is rewritten constantly; pruning must fire"
    );
}

#[test]
fn detail_mode_collects_propagation_trace() {
    // E4 fidelity: detail mode yields per-instruction snapshots and the
    // same classification as normal mode for the same fault list.
    let mut normal = base_campaign("dm-normal");
    normal.experiments = 12;
    let mut detail = normal.clone();
    detail.name = "dm-detail".into();
    detail.log_mode = LogMode::Detail;

    let mut t = ThorTarget::new("thor", fibonacci_workload(18));
    let n = CampaignRunner::new(&mut t, &normal).run().unwrap();
    let mut t = ThorTarget::new("thor", fibonacci_workload(18));
    let d = CampaignRunner::new(&mut t, &detail).run().unwrap();

    assert_eq!(n.stats.detected, d.stats.detected);
    assert_eq!(n.stats.escaped_total(), d.stats.escaped_total());
    // Injected runs carry detail traces (when the fault activated).
    assert!(d
        .runs
        .iter()
        .any(|r| r.detail_trace.as_ref().is_some_and(|t| !t.is_empty())));
    // Snapshot sizes are consistent.
    for r in &d.runs {
        if let Some(trace) = &r.detail_trace {
            for s in trace {
                assert_eq!(s.len(), r.state.len());
            }
        }
    }
}

#[test]
fn campaign_merge_runs_as_one() {
    // F6: merge two stored campaigns (different fields) and run the union.
    let mut a = base_campaign("a");
    a.selectors = vec![LocationSelector::Chain {
        chain: "cpu".into(),
        field: Some("R1".into()),
    }];
    a.experiments = 10;
    let mut b = base_campaign("b");
    b.selectors = vec![LocationSelector::Chain {
        chain: "cpu".into(),
        field: Some("PC".into()),
    }];
    b.experiments = 10;
    let merged = Campaign::merge("ab", &[&a, &b]).unwrap();
    assert_eq!(merged.experiments, 20);
    let mut t = ThorTarget::new("thor", crc32_workload(8, 2));
    let result = CampaignRunner::new(&mut t, &merged).run().unwrap();
    assert_eq!(result.runs.len(), 20);
    // All faults land in R1 or PC bit ranges (R1: 32..64, PC: 512..544).
    for r in &result.runs {
        match &r.fault.as_ref().unwrap().targets[0] {
            goofi_repro::core::Location::ChainBit { bit, .. } => {
                assert!(
                    (32..64).contains(bit) || (512..544).contains(bit),
                    "bit {bit} outside merged selectors"
                );
            }
            other => panic!("unexpected location {other:?}"),
        }
    }
}

#[test]
fn pause_resume_stop_controls_a_live_campaign() {
    // F7: drive a real campaign from another thread through the control
    // handle: pause after a few experiments, resume, then stop early.
    let (controller, handle) = control_channel();
    let worker = thread::spawn(move || {
        let mut t = target();
        let mut c = base_campaign("ctl");
        c.experiments = 500;
        CampaignRunner::new(&mut t, &c)
            .observer(&controller)
            .run()
            .unwrap()
    });
    // Wait for a few experiments, then pause.
    let mut seen = 0;
    while seen < 5 {
        if let Some(ServiceEvent::Progress { .. }) = handle.next() {
            seen += 1;
        }
    }
    handle.send(Command::Pause);
    // Drain until Paused arrives.
    loop {
        match handle.next() {
            Some(ServiceEvent::Paused) => break,
            Some(_) => {}
            None => panic!("campaign died while pausing"),
        }
    }
    thread::sleep(Duration::from_millis(30));
    handle.send(Command::Resume);
    handle.send(Command::Stop);
    let result = worker.join().unwrap();
    assert!(
        result.runs.len() < 500,
        "stop must end the campaign early (ran {})",
        result.runs.len()
    );
    let events = handle.drain();
    assert!(events
        .iter()
        .any(|e| matches!(e, ServiceEvent::Finished { stopped: true, .. })));
}
