//! Experiment E15 core: the fault-propagation dataflow engine's verdict
//! prediction, measured end to end.
//!
//! E11 measured how many faults the static analyzer *prunes* (the fault
//! lands in a provably-dead window — the run cannot differ from the
//! reference). E15 measures the next rung: faults the propagation
//! analysis *predicts* — the corrupted value is read, but every tainted
//! location is provably overwritten before anything observable depends
//! on it, so the verdict ("no error") is synthesised without executing.
//!
//! Three campaigns on the bubble-sort workload exercise the three
//! mechanisms, shared by the `e15_propagation` bench (writes
//! `BENCH_e15.json`) and the CI smoke gate in `tests/e15_gate.rs`:
//!
//! 1. **whole chain, BitFlip** — the classic pruning surface; prediction
//!    adds the washout windows the dead set misses;
//! 2. **R6 (scratch), BitFlip** — the inner-loop scratch register whose
//!    washout windows extend past the dead set: the campaign where the
//!    *predicted* (not just pruned) count is provably non-zero;
//! 3. **R6, Intermittent ×2** — multi-activation faults; an activation
//!    pair only prunes/predicts when the propagation engine proves the
//!    earlier activation washed out before the later one fires.
//!
//! Every synthesised verdict is cross-checked against real execution of
//! the same fault: the gate demands byte-identical records, a non-zero
//! predicted count, and a combined (pruned + predicted) rate of at
//! least [`GATE_RATE`].

use crate::thor_target;
use goofi_core::{
    plan_campaign, run_experiment, Campaign, Decision, FaultModel, LocationSelector, Pruning,
    RunOptions, Technique,
};

/// Acceptance gate: fraction of the combined fault list that must be
/// pruned or predicted without execution.
pub const GATE_RATE: f64 = 0.15;

/// One campaign's prediction outcome.
pub struct E15Campaign {
    /// Human-readable campaign label.
    pub label: &'static str,
    /// Faults in the campaign's list.
    pub experiments: usize,
    /// Faults in provably-dead windows (never read).
    pub pruned: usize,
    /// Faults read but provably washed out (verdict synthesised).
    pub predicted: usize,
    /// Synthesised rows that did NOT match real execution (must be 0).
    pub mismatches: usize,
}

/// The whole experiment: per-campaign rows plus the combined gate.
pub struct E15Result {
    /// One row per campaign.
    pub campaigns: Vec<E15Campaign>,
    /// Combined fault-list size.
    pub total: usize,
    /// Combined pruned count.
    pub pruned: usize,
    /// Combined predicted count.
    pub predicted: usize,
}

impl E15Result {
    /// Combined (pruned + predicted) / total.
    pub fn rate(&self) -> f64 {
        (self.pruned + self.predicted) as f64 / self.total.max(1) as f64
    }

    /// Whether every synthesised verdict matched real execution.
    pub fn verdicts_identical(&self) -> bool {
        self.campaigns.iter().all(|c| c.mismatches == 0)
    }
}

/// The three E15 campaigns at the given per-campaign scale.
fn campaigns(experiments: usize) -> Vec<(&'static str, Campaign)> {
    let build = |name: &str, field: Option<&str>, model: FaultModel, seed: u64| {
        Campaign::builder(name, "thor-card", "sort16")
            .technique(Technique::Scifi)
            .select(LocationSelector::Chain {
                chain: "cpu".into(),
                field: field.map(str::to_owned),
            })
            .fault_model(model)
            .window(0, 1100)
            .experiments(experiments)
            .seed(seed)
            .build()
            .expect("valid campaign")
    };
    vec![
        (
            "cpu chain / BitFlip",
            build("e15-chain", None, FaultModel::BitFlip, 1234),
        ),
        (
            "R6 scratch / BitFlip",
            build("e15-r6", Some("R6"), FaultModel::BitFlip, 7),
        ),
        (
            "R6 scratch / Intermittent x2",
            build(
                "e15-r6i",
                Some("R6"),
                FaultModel::Intermittent { activations: 2 },
                7,
            ),
        ),
    ]
}

/// Plans one campaign with static pruning + prediction, cross-checks
/// every synthesised verdict against real execution.
fn run_campaign(label: &'static str, campaign: &Campaign) -> E15Campaign {
    let mut target = thor_target("sort16");
    let options = RunOptions::new()
        .pruning(Pruning::Static)
        .prediction(true)
        .checkpoint(false);
    let plan = plan_campaign(&mut target, campaign, &options).expect("campaign plans");
    let mut row = E15Campaign {
        label,
        experiments: plan.len(),
        pruned: 0,
        predicted: 0,
        mismatches: 0,
    };
    for i in 0..plan.len() {
        match plan.decisions[i] {
            Decision::Pruned => row.pruned += 1,
            Decision::Predicted => row.predicted += 1,
            _ => continue,
        }
        let synthesised = plan
            .execute(&mut target, campaign, i)
            .expect("synthesised rows cannot fail");
        let real = run_experiment(&mut target, campaign, &plan.faults[i]).expect("fault executes");
        if plan.record(campaign, i, &synthesised) != plan.record(campaign, i, &real) {
            row.mismatches += 1;
        }
    }
    row
}

/// Runs all three campaigns at the given per-campaign scale.
pub fn run_e15(experiments: usize) -> E15Result {
    let mut result = E15Result {
        campaigns: Vec::new(),
        total: 0,
        pruned: 0,
        predicted: 0,
    };
    for (label, campaign) in campaigns(experiments) {
        let row = run_campaign(label, &campaign);
        result.total += row.experiments;
        result.pruned += row.pruned;
        result.predicted += row.predicted;
        result.campaigns.push(row);
    }
    result
}

/// The `BENCH_e15.json` document CI greps for.
pub fn to_json(r: &E15Result) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"e15_propagation\",\n");
    out.push_str("  \"workload\": \"sort16\",\n");
    out.push_str("  \"campaigns\": [\n");
    for (i, c) in r.campaigns.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"experiments\": {}, \"pruned\": {}, \"predicted\": {}, \"mismatches\": {}}}{}\n",
            c.label,
            c.experiments,
            c.pruned,
            c.predicted,
            c.mismatches,
            if i + 1 < r.campaigns.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"total_experiments\": {},\n  \"total_pruned\": {},\n  \"total_predicted\": {},\n",
        r.total, r.pruned, r.predicted
    ));
    out.push_str(&format!(
        "  \"rate\": {:.4},\n  \"gate_rate\": {GATE_RATE},\n",
        r.rate()
    ));
    out.push_str(&format!(
        "  \"verdicts_identical\": {},\n  \"gate_met\": {}\n}}\n",
        r.verdicts_identical(),
        r.verdicts_identical() && r.predicted >= 1 && r.rate() >= GATE_RATE
    ));
    out
}
