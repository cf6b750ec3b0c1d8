//! The analysis phase: outcome classification and campaign statistics.
//!
//! Implements the paper's Section 3.4 taxonomy — *Effective* errors split
//! into **Detected** (per error-detection mechanism) and **Escaped**
//! (incorrect results or timeliness violations); *Non-effective* errors
//! split into **Latent** (state differs from the reference but nothing
//! visible happened) and **Overwritten** (no difference at all) — plus the
//! Section 4 extension of automatically generated analysis software:
//! [`analyze_campaign`] classifies every logged experiment straight out of
//! the `LoggedSystemState` table.

use crate::algorithm::ExperimentRun;
use crate::error::{GoofiError, Result};
use crate::store::{reference_experiment_name, ExperimentRecord, GoofiStore};
use crate::target::TargetEvent;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Why an effective error escaped detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EscapeKind {
    /// The workload produced wrong results.
    WrongOutput,
    /// The workload missed its deadline (external time-out) or completed
    /// fewer iterations than the reference.
    TimelinessViolation,
}

/// The classification of one experiment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// Detected by the named error-detection mechanism.
    Detected {
        /// Stable mechanism name.
        mechanism: String,
    },
    /// Escaped detection and caused a failure.
    Escaped {
        /// Failure kind.
        kind: EscapeKind,
    },
    /// State differs from the reference, but results were correct and no
    /// mechanism fired.
    Latent,
    /// No observable difference from the reference.
    Overwritten,
}

impl Outcome {
    /// Whether the error was effective (paper Section 3.4).
    pub fn is_effective(&self) -> bool {
        matches!(self, Outcome::Detected { .. } | Outcome::Escaped { .. })
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Detected { mechanism } => write!(f, "detected({mechanism})"),
            Outcome::Escaped {
                kind: EscapeKind::WrongOutput,
            } => write!(f, "escaped(wrong-output)"),
            Outcome::Escaped {
                kind: EscapeKind::TimelinessViolation,
            } => write!(f, "escaped(timeliness)"),
            Outcome::Latent => write!(f, "latent"),
            Outcome::Overwritten => write!(f, "overwritten"),
        }
    }
}

/// Classifies one run against the reference run. Every experiment falls in
/// exactly one class.
pub fn classify(reference: &ExperimentRun, run: &ExperimentRun) -> Outcome {
    classify_parts(
        &run.termination,
        &run.outputs,
        run.state.as_bytes(),
        run.iterations,
        &reference.outputs,
        reference.state.as_bytes(),
        reference.iterations,
    )
}

/// Classifies from stored rows (the automatic analyzer's path).
pub fn classify_records(reference: &ExperimentRecord, run: &ExperimentRecord) -> Outcome {
    classify_parts(
        &run.data.termination,
        &run.data.outputs,
        &run.state_vector,
        run.data.iterations,
        &reference.data.outputs,
        &reference.state_vector,
        reference.data.iterations,
    )
}

#[allow(clippy::too_many_arguments)]
fn classify_parts(
    termination: &TargetEvent,
    outputs: &[u32],
    state: &[u8],
    iterations: u32,
    ref_outputs: &[u32],
    ref_state: &[u8],
    ref_iterations: u32,
) -> Outcome {
    match termination {
        TargetEvent::Detected { mechanism, .. } => Outcome::Detected {
            mechanism: mechanism.clone(),
        },
        TargetEvent::TimedOut => Outcome::Escaped {
            kind: EscapeKind::TimelinessViolation,
        },
        _ => {
            if iterations < ref_iterations {
                return Outcome::Escaped {
                    kind: EscapeKind::TimelinessViolation,
                };
            }
            if outputs != ref_outputs {
                return Outcome::Escaped {
                    kind: EscapeKind::WrongOutput,
                };
            }
            if state != ref_state {
                Outcome::Latent
            } else {
                Outcome::Overwritten
            }
        }
    }
}

/// A proportion with a Wilson 95% confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Proportion {
    /// Point estimate.
    pub p: f64,
    /// Lower 95% bound.
    pub lo: f64,
    /// Upper 95% bound.
    pub hi: f64,
}

/// Wilson score interval for `successes` out of `n` at z=1.96 (95%).
/// Returns `p = lo = hi = 0` for `n = 0`.
pub fn wilson(successes: usize, n: usize) -> Proportion {
    if n == 0 {
        return Proportion {
            p: 0.0,
            lo: 0.0,
            hi: 0.0,
        };
    }
    let z = 1.96f64;
    let n_f = n as f64;
    let p = successes as f64 / n_f;
    let z2 = z * z;
    let denom = 1.0 + z2 / n_f;
    let centre = p + z2 / (2.0 * n_f);
    let margin = z * ((p * (1.0 - p) + z2 / (4.0 * n_f)) / n_f).sqrt();
    Proportion {
        p,
        lo: ((centre - margin) / denom).max(0.0),
        hi: ((centre + margin) / denom).min(1.0),
    }
}

/// Aggregated campaign statistics (the numbers in the paper's Section 3.4
/// list of "typical results obtained").
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignStats {
    /// Experiments per detection mechanism.
    pub detected: BTreeMap<String, usize>,
    /// Escaped errors with wrong results.
    pub escaped_wrong_output: usize,
    /// Escaped errors with timeliness violations.
    pub escaped_timeliness: usize,
    /// Latent errors.
    pub latent: usize,
    /// Overwritten errors.
    pub overwritten: usize,
    /// Experiments skipped by pre-injection analysis (counted as
    /// overwritten in coverage numbers, but reported separately).
    pub pruned: usize,
}

impl CampaignStats {
    /// Classifies a set of runs against the reference and aggregates.
    pub fn from_runs<'a>(
        reference: &ExperimentRun,
        runs: impl IntoIterator<Item = &'a ExperimentRun>,
    ) -> CampaignStats {
        let mut stats = CampaignStats::default();
        for run in runs {
            stats.add_run(reference, run);
        }
        stats
    }

    /// Classifies one run against the reference and adds it. A pruned
    /// run counts as pruned and overwritten without classification.
    pub fn add_run(&mut self, reference: &ExperimentRun, run: &ExperimentRun) {
        if run.pruned {
            self.pruned += 1;
            self.overwritten += 1;
        } else {
            self.add(classify(reference, run));
        }
    }

    /// Adds one classified outcome.
    pub fn add(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Detected { mechanism } => {
                *self.detected.entry(mechanism).or_insert(0) += 1;
            }
            Outcome::Escaped {
                kind: EscapeKind::WrongOutput,
            } => self.escaped_wrong_output += 1,
            Outcome::Escaped {
                kind: EscapeKind::TimelinessViolation,
            } => self.escaped_timeliness += 1,
            Outcome::Latent => self.latent += 1,
            Outcome::Overwritten => self.overwritten += 1,
        }
    }

    /// Total detected errors across mechanisms.
    pub fn detected_total(&self) -> usize {
        self.detected.values().sum()
    }

    /// Total escaped errors.
    pub fn escaped_total(&self) -> usize {
        self.escaped_wrong_output + self.escaped_timeliness
    }

    /// Effective errors (detected + escaped).
    pub fn effective(&self) -> usize {
        self.detected_total() + self.escaped_total()
    }

    /// Non-effective errors (latent + overwritten).
    pub fn non_effective(&self) -> usize {
        self.latent + self.overwritten
    }

    /// All experiments.
    pub fn total(&self) -> usize {
        self.effective() + self.non_effective()
    }

    /// Error-detection coverage: detected / effective, with CI.
    pub fn detection_coverage(&self) -> Proportion {
        wilson(self.detected_total(), self.effective())
    }

    /// Fraction of effective errors among all experiments, with CI.
    pub fn effectiveness(&self) -> Proportion {
        wilson(self.effective(), self.total())
    }

    /// Renders the classic campaign summary table.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let total = self.total().max(1);
        let pct = |n: usize| 100.0 * n as f64 / total as f64;
        out.push_str(&format!("experiments:        {:6}\n", self.total()));
        out.push_str(&format!(
            "effective:          {:6} ({:5.1}%)\n",
            self.effective(),
            pct(self.effective())
        ));
        out.push_str(&format!(
            "  detected:         {:6} ({:5.1}%)\n",
            self.detected_total(),
            pct(self.detected_total())
        ));
        for (mech, n) in &self.detected {
            out.push_str(&format!("    {mech:<18}{n:4} ({:5.1}%)\n", pct(*n)));
        }
        out.push_str(&format!(
            "  escaped:          {:6} ({:5.1}%)\n",
            self.escaped_total(),
            pct(self.escaped_total())
        ));
        out.push_str(&format!(
            "    wrong output:   {:6} ({:5.1}%)\n",
            self.escaped_wrong_output,
            pct(self.escaped_wrong_output)
        ));
        out.push_str(&format!(
            "    timeliness:     {:6} ({:5.1}%)\n",
            self.escaped_timeliness,
            pct(self.escaped_timeliness)
        ));
        out.push_str(&format!(
            "non-effective:      {:6} ({:5.1}%)\n",
            self.non_effective(),
            pct(self.non_effective())
        ));
        out.push_str(&format!(
            "  latent:           {:6} ({:5.1}%)\n",
            self.latent,
            pct(self.latent)
        ));
        out.push_str(&format!(
            "  overwritten:      {:6} ({:5.1}%)  (of which {} pruned)\n",
            self.overwritten,
            pct(self.overwritten),
            self.pruned
        ));
        let cov = self.detection_coverage();
        out.push_str(&format!(
            "detection coverage: {:.3} [{:.3}, {:.3}]\n",
            cov.p, cov.lo, cov.hi
        ));
        out
    }
}

/// Per-location sensitivity: classification counts grouped by the
/// architectural location (scan-chain field or memory word) the fault was
/// injected into — the per-location tables of the Thor SCIFI studies.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LocationSensitivity {
    /// Stats per location name, sorted by name.
    pub by_location: BTreeMap<String, CampaignStats>,
}

impl LocationSensitivity {
    /// Groups a campaign's runs by the injected location's architectural
    /// name (multi-bit faults count once per distinct location touched).
    /// Runs without a resolvable location land under `"?"`.
    pub fn from_runs<'a>(
        reference: &ExperimentRun,
        runs: impl IntoIterator<Item = &'a ExperimentRun>,
        config: &crate::target::TargetSystemConfig,
    ) -> LocationSensitivity {
        let mut by_location: BTreeMap<String, CampaignStats> = BTreeMap::new();
        for run in runs {
            let outcome = if run.pruned {
                Outcome::Overwritten
            } else {
                classify(reference, run)
            };
            let mut names: Vec<String> = run
                .fault
                .as_ref()
                .map(|f| {
                    f.targets
                        .iter()
                        .map(|t| t.architectural_name(config).unwrap_or_else(|| "?".into()))
                        .collect()
                })
                .unwrap_or_default();
            names.sort_unstable();
            names.dedup();
            if names.is_empty() {
                names.push("?".into());
            }
            for name in names {
                by_location.entry(name).or_default().add(outcome.clone());
            }
        }
        LocationSensitivity { by_location }
    }

    /// The locations ranked by effectiveness (most safety-critical first);
    /// ties break towards more experiments, then by name.
    pub fn ranked(&self) -> Vec<(&str, &CampaignStats)> {
        let mut rows: Vec<(&str, &CampaignStats)> = self
            .by_location
            .iter()
            .map(|(k, v)| (k.as_str(), v))
            .collect();
        rows.sort_by(|(na, a), (nb, b)| {
            let ea = a.effectiveness().p;
            let eb = b.effectiveness().p;
            eb.partial_cmp(&ea)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.total().cmp(&a.total()))
                .then(na.cmp(nb))
        });
        rows
    }

    /// Renders the per-location table (locations with at least
    /// `min_samples` experiments).
    pub fn report(&self, min_samples: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>6} {:>9} {:>9} {:>8} {:>12} {:>8}\n",
            "location", "n", "detected", "escaped", "latent", "overwritten", "eff%"
        ));
        for (name, stats) in self.ranked() {
            if stats.total() < min_samples {
                continue;
            }
            out.push_str(&format!(
                "{:<14} {:>6} {:>9} {:>9} {:>8} {:>12} {:>7.1}%\n",
                name,
                stats.total(),
                stats.detected_total(),
                stats.escaped_total(),
                stats.latent,
                stats.overwritten,
                100.0 * stats.effectiveness().p
            ));
        }
        out
    }
}

/// Summary statistics of error-detection latency (instructions between
/// injection and the detection event) — one of the classic measures a
/// GOOFI campaign yields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of detected experiments with a measurable latency.
    pub count: usize,
    /// Mean latency in instructions.
    pub mean: f64,
    /// Minimum latency.
    pub min: u64,
    /// Median latency.
    pub median: u64,
    /// 95th-percentile latency.
    pub p95: u64,
    /// Maximum latency.
    pub max: u64,
}

/// Computes detection latencies over a campaign's runs: for every run that
/// terminated in a detection and had at least one activation, the latency
/// is `instructions_at_termination − first_activation_time`. Returns
/// `None` when no run qualifies.
pub fn detection_latency<'a>(
    runs: impl IntoIterator<Item = &'a ExperimentRun>,
) -> Option<LatencyStats> {
    let mut latencies: Vec<u64> = runs
        .into_iter()
        .filter(|r| matches!(r.termination, TargetEvent::Detected { .. }))
        .filter(|r| r.activations_done > 0)
        .filter_map(|r| {
            let injected_at = *r.fault.as_ref()?.times.first()?;
            r.instructions.checked_sub(injected_at)
        })
        .collect();
    if latencies.is_empty() {
        return None;
    }
    latencies.sort_unstable();
    let count = latencies.len();
    let sum: u64 = latencies.iter().sum();
    Some(LatencyStats {
        count,
        mean: sum as f64 / count as f64,
        min: latencies[0],
        median: latencies[count / 2],
        p95: latencies[(count * 95 / 100).min(count - 1)],
        max: latencies[count - 1],
    })
}

/// Automatically analyses a stored campaign: the Section 4 extension
/// "automatic generation of software for analysing the database table
/// LoggedSystemState". Reads all rows of the campaign, classifies each
/// against the stored reference run and aggregates.
///
/// # Errors
///
/// [`GoofiError::Analysis`] if the reference row is missing; database and
/// decoding errors.
pub fn analyze_campaign(store: &GoofiStore, campaign: &str) -> Result<CampaignStats> {
    let records = store.experiments_of(campaign)?;
    let ref_name = reference_experiment_name(campaign);
    let reference = records.iter().find(|r| r.name == ref_name).ok_or_else(|| {
        GoofiError::Analysis(format!(
            "campaign `{campaign}` has no reference run `{ref_name}`"
        ))
    })?;
    let mut stats = CampaignStats::default();
    for rec in &records {
        if rec.name == ref_name {
            continue;
        }
        stats.add(classify_records(reference, rec));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::StateVector;

    fn run(termination: TargetEvent, outputs: Vec<u32>, state_bits: &[usize]) -> ExperimentRun {
        let mut state = StateVector::zeros(32);
        for b in state_bits {
            state.flip(*b);
        }
        ExperimentRun {
            fault: None,
            termination,
            outputs,
            state,
            instructions: 100,
            iterations: 0,
            activations_done: 1,
            detail_trace: None,
            pruned: false,
            predicted: false,
        }
    }

    fn reference() -> ExperimentRun {
        run(TargetEvent::Halted, vec![42], &[])
    }

    #[test]
    fn detection_classified_per_mechanism() {
        let r = reference();
        let o = classify(
            &r,
            &run(
                TargetEvent::Detected {
                    mechanism: "dcache-parity".into(),
                    detail: String::new(),
                },
                vec![],
                &[],
            ),
        );
        assert_eq!(
            o,
            Outcome::Detected {
                mechanism: "dcache-parity".into()
            }
        );
        assert!(o.is_effective());
    }

    #[test]
    fn wrong_output_is_escaped() {
        let o = classify(&reference(), &run(TargetEvent::Halted, vec![43], &[]));
        assert_eq!(
            o,
            Outcome::Escaped {
                kind: EscapeKind::WrongOutput
            }
        );
    }

    #[test]
    fn timeout_is_timeliness_violation() {
        let o = classify(&reference(), &run(TargetEvent::TimedOut, vec![42], &[]));
        assert_eq!(
            o,
            Outcome::Escaped {
                kind: EscapeKind::TimelinessViolation
            }
        );
    }

    #[test]
    fn fewer_iterations_is_timeliness_violation() {
        let mut r = reference();
        r.iterations = 50;
        let mut faulty = run(TargetEvent::IterationsDone, vec![42], &[]);
        faulty.iterations = 30;
        assert_eq!(
            classify(&r, &faulty),
            Outcome::Escaped {
                kind: EscapeKind::TimelinessViolation
            }
        );
    }

    #[test]
    fn state_difference_is_latent() {
        let o = classify(&reference(), &run(TargetEvent::Halted, vec![42], &[7]));
        assert_eq!(o, Outcome::Latent);
        assert!(!o.is_effective());
    }

    #[test]
    fn identical_run_is_overwritten() {
        let o = classify(&reference(), &run(TargetEvent::Halted, vec![42], &[]));
        assert_eq!(o, Outcome::Overwritten);
    }

    #[test]
    fn stats_aggregate_and_report() {
        let r = reference();
        let runs = vec![
            run(
                TargetEvent::Detected {
                    mechanism: "watchdog".into(),
                    detail: String::new(),
                },
                vec![],
                &[],
            ),
            run(
                TargetEvent::Detected {
                    mechanism: "dcache-parity".into(),
                    detail: String::new(),
                },
                vec![],
                &[],
            ),
            run(TargetEvent::Halted, vec![43], &[]),
            run(TargetEvent::Halted, vec![42], &[3]),
            run(TargetEvent::Halted, vec![42], &[]),
        ];
        let stats = CampaignStats::from_runs(&r, &runs);
        assert_eq!(stats.total(), 5);
        assert_eq!(stats.detected_total(), 2);
        assert_eq!(stats.escaped_total(), 1);
        assert_eq!(stats.latent, 1);
        assert_eq!(stats.overwritten, 1);
        assert_eq!(stats.effective(), 3);
        let report = stats.report();
        assert!(report.contains("dcache-parity"));
        assert!(report.contains("detection coverage"));
    }

    #[test]
    fn pruned_runs_count_as_overwritten() {
        let r = reference();
        let mut pruned = run(TargetEvent::Halted, vec![42], &[]);
        pruned.pruned = true;
        let stats = CampaignStats::from_runs(&r, &[pruned]);
        assert_eq!(stats.pruned, 1);
        assert_eq!(stats.overwritten, 1);
    }

    #[test]
    fn wilson_interval_properties() {
        let p = wilson(0, 0);
        assert_eq!(p.p, 0.0);
        let p = wilson(50, 100);
        assert!(p.lo < 0.5 && 0.5 < p.hi);
        assert!(p.lo > 0.40 && p.hi < 0.60);
        let p = wilson(100, 100);
        assert_eq!(p.p, 1.0);
        assert!(p.lo > 0.95);
        assert!(p.hi <= 1.0);
        // Narrower with more samples.
        let small = wilson(5, 10);
        let large = wilson(500, 1000);
        assert!(large.hi - large.lo < small.hi - small.lo);
    }

    #[test]
    fn sensitivity_groups_by_architectural_location() {
        use crate::fault::{FaultModel, Location, PlannedFault};
        use crate::target::{ChainInfo, FieldInfo, TargetSystemConfig};
        let config = TargetSystemConfig {
            name: "t".into(),
            description: String::new(),
            chains: vec![ChainInfo {
                name: "cpu".into(),
                width: 64,
                fields: vec![
                    FieldInfo {
                        name: "R0".into(),
                        offset: 0,
                        width: 32,
                        writable: true,
                    },
                    FieldInfo {
                        name: "R1".into(),
                        offset: 32,
                        width: 32,
                        writable: true,
                    },
                ],
            }],
            memory: Vec::new(),
        };
        let reference = reference();
        let mk = |bit: usize, detected: bool| {
            let mut r = run(
                if detected {
                    TargetEvent::Detected {
                        mechanism: "m".into(),
                        detail: String::new(),
                    }
                } else {
                    TargetEvent::Halted
                },
                vec![42],
                &[],
            );
            r.fault = Some(PlannedFault {
                model: FaultModel::BitFlip,
                targets: vec![Location::ChainBit {
                    chain: "cpu".into(),
                    bit,
                }],
                times: vec![1],
            });
            r
        };
        // R0: 2 detected; R1: 1 overwritten.
        let runs = vec![mk(3, true), mk(7, true), mk(40, false)];
        let sens = LocationSensitivity::from_runs(&reference, &runs, &config);
        assert_eq!(sens.by_location["R0"].detected_total(), 2);
        assert_eq!(sens.by_location["R1"].overwritten, 1);
        // Ranking: R0 (100% effective) before R1 (0%).
        let ranked = sens.ranked();
        assert_eq!(ranked[0].0, "R0");
        let report = sens.report(1);
        assert!(report.contains("R0") && report.contains("R1"));
        assert!(!sens.report(3).contains("R1"), "min_samples filters");
    }

    #[test]
    fn detection_latency_statistics() {
        use crate::fault::{FaultModel, Location, PlannedFault};
        let mk = |injected: u64, ended: u64, detected: bool| {
            let mut r = run(
                if detected {
                    TargetEvent::Detected {
                        mechanism: "m".into(),
                        detail: String::new(),
                    }
                } else {
                    TargetEvent::Halted
                },
                vec![],
                &[],
            );
            r.fault = Some(PlannedFault {
                model: FaultModel::BitFlip,
                targets: vec![Location::ChainBit {
                    chain: "cpu".into(),
                    bit: 0,
                }],
                times: vec![injected],
            });
            r.instructions = ended;
            r
        };
        let runs = vec![mk(10, 30, true), mk(5, 10, true), mk(0, 100, false)];
        let stats = detection_latency(&runs).unwrap();
        assert_eq!(stats.count, 2);
        assert_eq!(stats.min, 5);
        assert_eq!(stats.max, 20);
        assert_eq!(stats.mean, 12.5);
        assert!(detection_latency(&[mk(0, 100, false)]).is_none());
    }

    #[test]
    fn every_run_gets_exactly_one_class() {
        // Totality check across a grid of (termination, output, state).
        let r = reference();
        let terminations = [
            TargetEvent::Halted,
            TargetEvent::TimedOut,
            TargetEvent::Detected {
                mechanism: "m".into(),
                detail: String::new(),
            },
            TargetEvent::IterationsDone,
        ];
        for t in terminations {
            for wrong_out in [false, true] {
                for diff_state in [false, true] {
                    let out = if wrong_out { vec![1] } else { vec![42] };
                    let bits: &[usize] = if diff_state { &[1] } else { &[] };
                    let o = classify(&r, &run(t.clone(), out, bits));
                    // Display never panics and maps to one of the classes.
                    let s = o.to_string();
                    assert!(
                        s.starts_with("detected")
                            || s.starts_with("escaped")
                            || s == "latent"
                            || s == "overwritten"
                    );
                }
            }
        }
    }
}
