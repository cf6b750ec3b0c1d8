//! Property tests for the propagation engine's prediction contract: a
//! fault the static analysis prunes ([`StaticAnalysis::can_prune`]) or
//! predicts ([`StaticAnalysis::can_predict`]) must, when actually
//! executed, log a row byte-identical to the synthesised one (the
//! reference verdict). This is the soundness the runner's
//! [`RunOptions::prediction`] knob rests on. Exercised on both ISAs with
//! random multi-activation fault lists — the chaining rules
//! (washed-or-untouched consecutive pairs, washed final activation) are
//! exactly what random intermittent faults stress.
//!
//! [`StaticAnalysis::can_prune`]: goofi_core::StaticAnalysis::can_prune
//! [`StaticAnalysis::can_predict`]: goofi_core::StaticAnalysis::can_predict
//! [`RunOptions::prediction`]: goofi_core::RunOptions

use goofi_core::{
    plan_campaign, run_experiment, Campaign, Decision, FaultModel, LocationSelector, Pruning,
    RunOptions, TargetSystemInterface, Technique,
};
use goofi_stackvm::Op;
use goofi_targets::{StackProgram, StackVmTarget, ThorTarget};
use goofi_workloads::{crc32_workload, fibonacci_workload, sort_workload};
use proptest::prelude::*;

/// The shared property: plan the campaign with static pruning and
/// prediction on, then execute every pruned/predicted experiment for
/// real and demand the logged record match the synthesised one. Returns
/// how many faults were cross-checked (for the vacuity guard below).
fn assert_synthesised_rows_match_execution(
    target: &mut dyn TargetSystemInterface,
    window: (u64, u64),
    model: FaultModel,
    experiments: usize,
    seed: u64,
) -> (usize, usize) {
    let config = target.describe();
    let campaign = Campaign::builder("prop", config.name.clone(), "w")
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: config.chains[0].name.clone(),
            field: None,
        })
        .fault_model(model)
        .window(window.0, window.1)
        .experiments(experiments)
        .seed(seed)
        .build()
        .expect("campaign builds");
    let options = RunOptions::new()
        .pruning(Pruning::Static)
        .prediction(true)
        .checkpoint(false);
    let plan = match plan_campaign(target, &campaign, &options) {
        Ok(p) => p,
        // The analyzer declined the program, or the fault-free run
        // itself traps (random StackVM programs underflow freely): the
        // runner would fall back to executing everything.
        Err(_) => return (0, 0),
    };
    // A timed-out reference never reaches a terminal state: the faulted
    // re-execution stops `budget` steps after its *last breakpoint*, so
    // its timeout cuts at a different instruction count even when the
    // machine states agree step for step. Verdict synthesis is exactly
    // how the runner sidesteps that; there is no byte-level ground truth
    // to compare against, only the verdict itself.
    if plan.reference.termination == goofi_core::TargetEvent::TimedOut {
        return (0, 0);
    }
    let mut pruned = 0;
    let mut predicted = 0;
    for i in 0..plan.len() {
        match plan.decisions[i] {
            Decision::Pruned => pruned += 1,
            Decision::Predicted => predicted += 1,
            _ => continue,
        }
        let synthesised = plan
            .execute(target, &campaign, i)
            .expect("synthesised rows cannot fail");
        let real = run_experiment(target, &campaign, &plan.faults[i])
            .expect("a provably washed fault executes like the reference");
        assert_eq!(
            plan.record(&campaign, i, &synthesised),
            plan.record(&campaign, i, &real),
            "synthesised row diverged from real execution for fault {:?} \
             ({:?})",
            plan.faults[i],
            plan.decisions[i],
        );
    }
    (pruned, predicted)
}

/// A random StackVM instruction (same shape as the static-soundness
/// suite): wild jumps and stack underflows must trap identically whether
/// the verdict was synthesised or executed.
fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (-4i32..8).prop_map(Op::Push),
        (8i32..16).prop_map(Op::Push),
        (0u32..6).prop_map(Op::Load),
        (0u32..6).prop_map(Op::Store),
        Just(Op::Add),
        Just(Op::Sub),
        Just(Op::Mul),
        Just(Op::Dup),
        Just(Op::Drop),
        Just(Op::Swap),
        (0u32..25).prop_map(Op::Jmp),
        (0u32..25).prop_map(Op::Jz),
        (0u32..25).prop_map(Op::Call),
        Just(Op::Ret),
        Just(Op::Halt),
    ]
}

/// Single- or multi-activation fault model for one proptest case.
fn arb_model() -> impl Strategy<Value = FaultModel> {
    prop_oneof![
        Just(FaultModel::BitFlip),
        (2usize..5).prop_map(|activations| FaultModel::Intermittent { activations }),
    ]
}

proptest! {
    #[test]
    fn thor_synthesised_verdicts_match_execution(
        kind in 0u8..3,
        n in 2usize..16,
        wseed in 0u32..16,
        model in arb_model(),
        start in 0u64..200,
        width in 1u64..1_500,
        fseed in 0u64..1_000,
    ) {
        let workload = match kind {
            0 => sort_workload(n, wseed),
            1 => fibonacci_workload(n as u32 + 1),
            _ => crc32_workload(n, wseed),
        };
        let mut target = ThorTarget::new("thor-card", workload);
        assert_synthesised_rows_match_execution(
            &mut target, (start, start + width), model, 30, fseed,
        );
    }

    #[test]
    fn stackvm_synthesised_verdicts_match_execution(
        body in proptest::collection::vec(arb_op(), 1..24),
        model in arb_model(),
        start in 0u64..50,
        width in 1u64..500,
        fseed in 0u64..1_000,
    ) {
        let mut ops = vec![Op::Push(3), Op::Push(1), Op::Push(4), Op::Push(1)];
        ops.extend(body);
        ops.push(Op::Halt);
        let program = StackProgram {
            name: "prop".into(),
            ops,
            result_addrs: vec![1],
        };
        let mut target = StackVmTarget::new("stackvm", program, 8);
        target.set_step_budget(8_000);
        assert_synthesised_rows_match_execution(
            &mut target, (start, start + width), model, 30, fseed,
        );
    }
}

/// Guards the property against vacuity: a campaign shape known to have
/// washout windows beyond the dead set (`R6` in the bubble-sort inner
/// loop) must actually exercise the *predicted* branch, not just the
/// pruned one.
#[test]
fn thor_sort_campaign_exercises_real_predictions() {
    let mut target = ThorTarget::new("thor-card", sort_workload(16, 1));
    let config = target.describe();
    let campaign = Campaign::builder("prop", config.name.clone(), "w")
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: Some("R6".into()),
        })
        .fault_model(FaultModel::BitFlip)
        .window(0, 1100)
        .experiments(120)
        .seed(7)
        .build()
        .unwrap();
    let options = RunOptions::new()
        .pruning(Pruning::Static)
        .prediction(true)
        .checkpoint(false);
    let plan = plan_campaign(&mut target, &campaign, &options).unwrap();
    let predicted = plan
        .decisions
        .iter()
        .filter(|&&d| d == Decision::Predicted)
        .count();
    assert!(
        predicted > 0,
        "no fault ever hit a washout-beyond-dead window"
    );
    for i in 0..plan.len() {
        if !matches!(plan.decisions[i], Decision::Pruned | Decision::Predicted) {
            continue;
        }
        let synthesised = plan.execute(&mut target, &campaign, i).unwrap();
        let real = run_experiment(&mut target, &campaign, &plan.faults[i]).unwrap();
        assert_eq!(
            plan.record(&campaign, i, &synthesised),
            plan.record(&campaign, i, &real),
        );
    }
}
