//! Static pre-injection analysis results — the runner's one decision
//! engine.
//!
//! The static analyzer (the `goofi-analysis` crate) builds a
//! control-flow graph over the workload binary with per-instruction
//! def/use sets decoded from the ISA, replays the workload observing only
//! the program counter, and produces this [`StaticAnalysis`] summary:
//! per-location windows of injection times whose value is provably
//! overwritten before any read (dead), left untouched (equivalence) or
//! washed out of the architectural state (washout), workload lints, and
//! fault equivalence classes. Every pruned, predicted and proxied
//! experiment is decided from it; no reference detail trace is needed.
//! The result is conservative by construction — any fault it prunes is
//! also dead under the trace-based
//! [`LivenessAnalysis`](crate::preinject::LivenessAnalysis) oracle — and
//! it is target-agnostic, so it lives here in `goofi-core` next to the
//! fault list and runner that consume it.

use crate::fault::{FaultModel, Location, PlannedFault};
use crate::target::TargetSystemConfig;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// Whether the runner prunes experiments before injection. Pruning is
/// always static: a fault is skipped when the workload's static analysis
/// proves every activation lands in a dead window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Pruning {
    /// Never prune, even when the campaign asks for pre-injection
    /// analysis.
    Off,
    /// Honour the campaign's `pre_injection_analysis` flag (the
    /// default): prune statically when it is set.
    #[default]
    Campaign,
    /// Always prune statically, whatever the campaign asks.
    Static,
}

impl Pruning {
    /// Whether a campaign with `pre_injection_analysis` set as given is
    /// pruned under this mode. Targets without a static analyzer run
    /// unpruned in every mode.
    pub fn prunes(self, pre_injection_analysis: bool) -> bool {
        match self {
            Pruning::Off => false,
            Pruning::Campaign => pre_injection_analysis,
            Pruning::Static => true,
        }
    }
}

impl fmt::Display for Pruning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Pruning::Off => "off",
            Pruning::Campaign => "campaign",
            Pruning::Static => "static",
        })
    }
}

impl FromStr for Pruning {
    type Err = String;

    fn from_str(s: &str) -> Result<Pruning, String> {
        match s {
            "off" => Ok(Pruning::Off),
            "campaign" => Ok(Pruning::Campaign),
            "static" => Ok(Pruning::Static),
            other => Err(format!(
                "unknown pruning mode `{other}` (expected off, campaign or static)"
            )),
        }
    }
}

/// Category of a workload or campaign lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LintKind {
    /// A basic block no CFG path from the entry reaches.
    UnreachableCode,
    /// A write whose value no CFG path can ever read.
    DeadStore,
    /// A read of a location no earlier CFG path ever writes.
    ReadNeverWritten,
    /// No CFG path from the entry reaches a terminating instruction.
    NoPathToTermination,
    /// A campaign fault whose every activation lands in a provably-dead
    /// window: the experiment cannot differ from the reference, so it
    /// measures nothing.
    FaultTargetsDeadLocation,
    /// Two campaign faults the analysis proves equivalent (same bits,
    /// same model, activation times in the same equivalence windows):
    /// the duplicate buys no additional coverage.
    DuplicateEquivalentFault,
    /// A campaign fault with an activation time at or past the measured
    /// end of the workload (or past the analysis horizon): it can never
    /// fire inside the observed execution.
    ActivationBeyondHorizon,
}

impl LintKind {
    /// Whether this lint gates `goofi analyze --lint` (exit code 2).
    /// The informational workload lints (dead stores and friends) report
    /// code-quality smells; the gating set flags campaigns or workloads
    /// that cannot measure what they claim to.
    pub fn gates(self) -> bool {
        matches!(
            self,
            LintKind::NoPathToTermination
                | LintKind::FaultTargetsDeadLocation
                | LintKind::DuplicateEquivalentFault
                | LintKind::ActivationBeyondHorizon
        )
    }
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LintKind::UnreachableCode => "unreachable-code",
            LintKind::DeadStore => "dead-store",
            LintKind::ReadNeverWritten => "read-never-written",
            LintKind::NoPathToTermination => "no-path-to-termination",
            LintKind::FaultTargetsDeadLocation => "fault-targets-dead-location",
            LintKind::DuplicateEquivalentFault => "duplicate-equivalent-fault",
            LintKind::ActivationBeyondHorizon => "activation-beyond-horizon",
        })
    }
}

/// One workload lint finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lint {
    /// What kind of defect this is.
    pub kind: LintKind,
    /// Human-readable description with the program location.
    pub message: String,
}

/// How an [`EquivalenceClass`] was proved and what the runner may do
/// with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClassKind {
    /// Members land in a statically *dead* window: all collapse to the
    /// reference outcome without executing anything. Pruning handles
    /// them; the class only weights reports.
    Dead,
    /// Members share the same first-touch step of every target location
    /// (an *equivalence window*, read- or write-terminated): executing
    /// the representative yields the exact outcome of every member, so
    /// the runner may execute one and fan the verdict out.
    Live,
}

/// A set of planned faults the analysis proved equivalent. For
/// [`ClassKind::Dead`] classes they land in the same statically dead
/// window of the same location(s) and all collapse to the reference
/// outcome. For [`ClassKind::Live`] classes they mutate the exact same
/// bits and differ only in injection time within one first-touch
/// equivalence window, so one representative execution is a faithful
/// proxy for every member.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EquivalenceClass {
    /// Architectural location(s) of the member faults, comma-joined.
    pub location: String,
    /// The window `[start, end]` the members share (dead window for
    /// `Dead` classes, equivalence window of the first location for
    /// `Live` classes).
    pub window: (u64, u64),
    /// Fault-list index of the representative member.
    pub representative: usize,
    /// Number of faults in the class (including the representative).
    pub multiplicity: usize,
    /// Fault-list indices of every member, ascending; the first is the
    /// representative.
    pub members: Vec<usize>,
    /// How the class was proved (and whether it is an execution proxy).
    pub kind: ClassKind,
}

/// What an execution class groups on: sorted target bits, fault model,
/// and each target location's equivalence window at the effective time
/// ([`StaticAnalysis::class_key`]).
type ClassKey = (Vec<Location>, FaultModel, Vec<(u64, u64)>);

/// The persisted result of static workload analysis.
///
/// `dead` maps an architectural location name to sorted, disjoint,
/// inclusive windows `[start, end]` of injection times at which a fault
/// in that location is provably overwritten before any read — the first
/// instruction at or after the injection time whose statically decoded
/// def/use touches the location is a pure write. Locations absent from
/// the map are never pruned (the
/// conservative treatment of state the analysis cannot see — mirrors
/// [`LivenessAnalysis`](crate::preinject::LivenessAnalysis) reporting
/// `FirstUse::Never` for unknown locations).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StaticAnalysis {
    /// Largest injection time the analysis covers; times beyond it are
    /// never dead.
    pub horizon: u64,
    /// Injection-time slots the pc-only replay observed before the
    /// workload halted, trapped, or the replay cap cut in. Times at or
    /// beyond this are never dead; campaigns that want a fully-covered
    /// injection window can clamp it to `steps`.
    pub steps: u64,
    /// Basic blocks in the workload CFG.
    pub blocks: usize,
    /// CFG edges.
    pub edges: usize,
    /// location -> sorted disjoint inclusive dead windows.
    pub dead: BTreeMap<String, Vec<(u64, u64)>>,
    /// location -> sorted disjoint inclusive *equivalence* windows:
    /// maximal runs of injection times sharing the same first-touch step
    /// of the location along the fault-free path. Two single-activation
    /// faults on the same bits whose times fall in the same window of
    /// every target location provably produce identical outcomes.
    pub equiv: BTreeMap<String, Vec<(u64, u64)>>,
    /// location -> sorted disjoint inclusive *washout* windows
    /// `(start, end, died_by)`: a fault injected into the location
    /// anywhere in `[start, end]` propagates (its value may be read) but
    /// provably washes out of the architectural state after step
    /// `died_by` executes, without ever reaching a control-flow, memory
    /// address, or trap-prone operand. The faulty run re-converges with
    /// the reference, so its verdict is predictable with zero execution.
    /// Absent in analyses persisted before the propagation engine.
    #[serde(default)]
    pub washout: BTreeMap<String, Vec<(u64, u64, u64)>>,
    /// Workload lints.
    pub lints: Vec<Lint>,
    /// Fault equivalence classes over the campaign's fault list (filled
    /// in by the runner via [`StaticAnalysis::compute_classes`]; empty
    /// for a bare `goofi analyze`).
    pub classes: Vec<EquivalenceClass>,
    /// Faults the runner flagged eligible in the last
    /// [`StaticAnalysis::compute_execution_classes`] call. When
    /// `classes` stays empty this says whether no fault qualified at all
    /// or the eligible ones simply never collided. Absent (0) in
    /// analyses persisted before the counter existed.
    #[serde(default)]
    pub eligible_faults: usize,
    /// Candidate groups dropped because only one fault shared the
    /// (targets, model, windows) key — a singleton class buys nothing,
    /// its one member executes anyway. Absent (0) in analyses persisted
    /// before the counter existed.
    #[serde(default)]
    pub singleton_classes: usize,
}

impl StaticAnalysis {
    /// The dead window containing `time` for `location`, if any.
    pub fn dead_window(&self, location: &str, time: u64) -> Option<(u64, u64)> {
        let windows = self.dead.get(location)?;
        let idx = windows.partition_point(|&(_, end)| end < time);
        windows
            .get(idx)
            .filter(|&&(start, _)| start <= time)
            .copied()
    }

    /// Whether a fault injected into `location` at `time` is statically
    /// provably dead. Unknown locations and times beyond the horizon are
    /// never dead.
    pub fn is_dead(&self, location: &str, time: u64) -> bool {
        time <= self.horizon && self.dead_window(location, time).is_some()
    }

    /// The equivalence window containing `time` for `location`, if any.
    /// Unknown locations and times beyond the horizon have none.
    pub fn equiv_window(&self, location: &str, time: u64) -> Option<(u64, u64)> {
        if time > self.horizon {
            return None;
        }
        let windows = self.equiv.get(location)?;
        let idx = windows.partition_point(|&(_, end)| end < time);
        windows
            .get(idx)
            .filter(|&&(start, _)| start <= time)
            .copied()
    }

    /// The washout window containing `time` for `location`, if any,
    /// as `(start, end, died_by)`. Unknown locations and times beyond
    /// the horizon have none.
    pub fn washout_window(&self, location: &str, time: u64) -> Option<(u64, u64, u64)> {
        if time > self.horizon {
            return None;
        }
        let windows = self.washout.get(location)?;
        let idx = windows.partition_point(|&(_, end, _)| end < time);
        windows
            .get(idx)
            .filter(|&&(start, _, _)| start <= time)
            .copied()
    }

    /// Whether corruption of `location` injected at `time` provably
    /// leaves the architectural state strictly before step `bound`
    /// executes: either the location's window is dead (overwritten
    /// before any read) or it washes out through clean dataflow.
    fn washed_before(&self, location: &str, time: u64, bound: u64) -> bool {
        // The washout table subsumes dead windows: a pure-write first
        // touch is recorded with `died_by` = the touch step itself.
        self.washout_window(location, time)
            .is_some_and(|(_, _, died)| died < bound)
    }

    /// Whether `location` is provably untouched between activation
    /// times `t` and `tn`: both land in the same first-touch
    /// equivalence window, so no instruction reads or writes the
    /// location in `[t, tn)` and corruption present at `t` is still
    /// exactly there (and nothing else) at `tn`.
    fn untouched_between(&self, location: &str, t: u64, tn: u64) -> bool {
        match (
            self.equiv_window(location, t),
            self.equiv_window(location, tn),
        ) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// Decides whether a planned fault's verdict is statically
    /// predictable as the reference outcome without executing it.
    ///
    /// Every target must resolve to a modeled location, and for each
    /// consecutive activation pair `(t_i, t_{i+1})` each target's
    /// corruption must either *wash out* strictly before `t_{i+1}`
    /// (state at `t_{i+1}` equals the reference, so re-corrupting the
    /// targets there is exactly a fresh activation) or stay *confined*
    /// (the location untouched between the activations, so the
    /// re-corruption at `t_{i+1}` subsumes the residue — corruption is
    /// still exactly a subset of the target locations). After the final
    /// activation every target must wash out before the run ends. Taint
    /// of a multi-location fault is covered by the union of the
    /// per-location walks, so per-target windows compose soundly.
    pub fn can_predict(&self, config: &TargetSystemConfig, fault: &PlannedFault) -> bool {
        let Some((names, times)) = self.activations(config, fault) else {
            return false;
        };
        let last = times[times.len() - 1];
        self.pairs_hold(&names, &times, true)
            && names.iter().all(|n| self.washout_window(n, last).is_some())
    }

    /// Decides whether all activations *before the last* provably wash
    /// out, so that the machine state just before the final activation
    /// equals the fault-free reference. Such a multi-activation fault
    /// behaves exactly like a single-activation fault at its last time
    /// and may join the corresponding execution equivalence class.
    ///
    /// Stricter than [`StaticAnalysis::can_predict`]: confinement
    /// (untouched-between) is only acceptable on non-final pairs — a
    /// residue merely confined into the last activation would make the
    /// pre-state differ from the reference.
    pub fn prefix_washed(&self, config: &TargetSystemConfig, fault: &PlannedFault) -> bool {
        self.activations(config, fault)
            .is_some_and(|(names, times)| self.pairs_hold(&names, &times, false))
    }

    /// A fault's resolved target names ([`StaticAnalysis::named_targets`])
    /// and its activation times, sorted and deduplicated; `None` when a
    /// target is unmodeled or the fault never activates.
    fn activations(
        &self,
        config: &TargetSystemConfig,
        fault: &PlannedFault,
    ) -> Option<(Vec<String>, Vec<u64>)> {
        let names = self.named_targets(config, fault)?;
        let mut times = fault.times.clone();
        times.sort_unstable();
        times.dedup();
        (!times.is_empty()).then_some((names, times))
    }

    /// Whether, for every consecutive activation pair `(t, tn)`, each
    /// target's corruption from `t` washes out strictly before `tn` or
    /// stays confined (untouched until `tn`). Confinement counts on the
    /// final pair only with `confine_last`.
    fn pairs_hold(&self, names: &[String], times: &[u64], confine_last: bool) -> bool {
        times.windows(2).enumerate().all(|(i, pair)| {
            let (t, tn) = (pair[0], pair[1]);
            let confine = confine_last || i + 2 < times.len();
            names.iter().all(|name| {
                self.washed_before(name, t, tn) || (confine && self.untouched_between(name, t, tn))
            })
        })
    }

    /// All target locations resolved to architectural names (sorted,
    /// deduped), or `None` when any target is unmodeled.
    fn named_targets(
        &self,
        config: &TargetSystemConfig,
        fault: &PlannedFault,
    ) -> Option<Vec<String>> {
        let mut names = Vec::with_capacity(fault.targets.len());
        for target in &fault.targets {
            names.push(target.architectural_name(config)?);
        }
        names.sort();
        names.dedup();
        Some(names)
    }

    /// The key two faults share exactly when executing one yields the
    /// other's outcome: the sorted target bits, the fault model, and the
    /// equivalence window of every target location at the fault's
    /// effective (last) time. `None` when the fault has no such proof: no
    /// activation, an unwashed prefix ([`StaticAnalysis::prefix_washed`]),
    /// an unmodeled target, or a time outside every window.
    fn class_key(&self, config: &TargetSystemConfig, fault: &PlannedFault) -> Option<ClassKey> {
        let &time = fault.times.iter().max()?;
        if fault.times.len() > 1 && !self.prefix_washed(config, fault) {
            return None;
        }
        let windows = self
            .named_targets(config, fault)?
            .iter()
            .map(|name| self.equiv_window(name, time))
            .collect::<Option<Vec<_>>>()?;
        let mut targets = fault.targets.clone();
        targets.sort();
        Some((targets, fault.model, windows))
    }

    /// Decides whether a whole planned fault can be skipped: every target
    /// bit, at every activation time, must map to a named location whose
    /// window is statically dead. Mirrors
    /// [`LivenessAnalysis::can_prune`](crate::preinject::LivenessAnalysis::can_prune).
    pub fn can_prune(&self, config: &TargetSystemConfig, fault: &PlannedFault) -> bool {
        fault.targets.iter().all(|target| {
            match target.architectural_name(config) {
                None => false, // untraceable location: keep the experiment
                Some(name) => fault.times.iter().all(|&t| self.is_dead(&name, t)),
            }
        })
    }

    /// Groups the prunable faults of a campaign's fault list into
    /// equivalence classes: faults whose targets resolve to the same
    /// locations and whose activation times fall in the same dead
    /// window collapse to one representative (lowest fault index) with a
    /// multiplicity weight. The classes are stored on `self` so they are
    /// persisted with the analysis.
    pub fn compute_classes(&mut self, config: &TargetSystemConfig, faults: &[PlannedFault]) {
        let mut groups: BTreeMap<(String, (u64, u64)), Vec<usize>> = BTreeMap::new();
        for (i, fault) in faults.iter().enumerate() {
            if !self.can_prune(config, fault) {
                continue;
            }
            // A prunable fault's targets are all named.
            let names = self.named_targets(config, fault).unwrap_or_default();
            let location = names.join(",");
            // All activation times of a prunable fault sit in dead
            // windows; key on the window of the first activation.
            let window = fault
                .times
                .first()
                .and_then(|&t| names.first().and_then(|name| self.dead_window(name, t)))
                .unwrap_or((0, 0));
            groups.entry((location, window)).or_default().push(i);
        }
        self.classes = groups
            .into_iter()
            .map(|((location, window), members)| EquivalenceClass {
                location,
                window,
                representative: members[0],
                multiplicity: members.len(),
                members,
                kind: ClassKind::Dead,
            })
            .collect();
    }

    /// Groups the faults the runner is about to execute into
    /// [`ClassKind::Live`] execution classes and appends them to
    /// `self.classes`. Only faults flagged `eligible` by the caller (the
    /// runner excludes prunable faults and technique/log-mode
    /// combinations whose injection path the proof does not cover) are
    /// considered. Single-activation faults key on their one time;
    /// multi-activation faults qualify when every activation before the
    /// last provably washes out ([`StaticAnalysis::prefix_washed`]), in
    /// which case they behave exactly like a single-activation fault at
    /// their *last* time and key on it. In both cases **every** target
    /// bit must resolve to a modeled location whose equivalence window
    /// contains the effective time. Two faults join the same class iff
    /// they mutate the exact same bits with the same model and every
    /// target location puts their effective times in the same
    /// equivalence window — the soundness condition for executing one
    /// member on behalf of the other.
    pub fn compute_execution_classes(
        &mut self,
        config: &TargetSystemConfig,
        faults: &[PlannedFault],
        eligible: &[bool],
    ) {
        self.eligible_faults = eligible.iter().filter(|&&e| e).count();
        self.singleton_classes = 0;
        let mut groups: BTreeMap<ClassKey, Vec<usize>> = BTreeMap::new();
        for (i, fault) in faults.iter().enumerate() {
            if !eligible.get(i).copied().unwrap_or(false) {
                continue;
            }
            if let Some(key) = self.class_key(config, fault) {
                groups.entry(key).or_default().push(i);
            }
        }
        for ((_, _, windows), members) in groups {
            // Singleton classes buy nothing (their one member executes
            // anyway) — only multi-member classes are worth recording.
            if members.len() < 2 {
                self.singleton_classes += 1;
                continue;
            }
            let names = self
                .named_targets(config, &faults[members[0]])
                .unwrap_or_default();
            self.classes.push(EquivalenceClass {
                location: names.join(","),
                window: windows.first().copied().unwrap_or((0, 0)),
                representative: members[0],
                multiplicity: members.len(),
                members,
                kind: ClassKind::Live,
            });
        }
    }

    /// Savings equivalence-class execution realises on a full run:
    /// `(live classes executed, member experiments fanned out from their
    /// representatives)`. The second number is how many experiments a
    /// class-executing campaign avoids running.
    pub fn class_savings(&self) -> (usize, usize) {
        self.classes
            .iter()
            .filter(|c| c.kind == ClassKind::Live)
            .fold((0, 0), |(classes, fanned), c| {
                (classes + 1, fanned + c.multiplicity.saturating_sub(1))
            })
    }

    /// Lints a campaign's planned fault list against the analysis:
    ///
    /// * [`LintKind::FaultTargetsDeadLocation`] — every activation of
    ///   the fault lands in a provably-dead window; the experiment
    ///   cannot differ from the reference.
    /// * [`LintKind::DuplicateEquivalentFault`] — two faults mutate the
    ///   same bits with the same model and provably produce identical
    ///   outcomes (single-activation or washed-prefix faults whose
    ///   effective times share every target's equivalence window — the
    ///   same grouping key execution classes use); the later one buys no
    ///   coverage.
    /// * [`LintKind::ActivationBeyondHorizon`] — an activation time at
    ///   or past the measured end of the workload (or past the analysis
    ///   horizon) can never fire inside the observed execution.
    pub fn campaign_lints(
        &self,
        config: &TargetSystemConfig,
        faults: &[PlannedFault],
    ) -> Vec<Lint> {
        let mut lints = Vec::new();
        let mut seen: BTreeMap<ClassKey, usize> = BTreeMap::new();
        for (i, fault) in faults.iter().enumerate() {
            if self.can_prune(config, fault) {
                let names = self
                    .named_targets(config, fault)
                    .unwrap_or_default()
                    .join(",");
                lints.push(Lint {
                    kind: LintKind::FaultTargetsDeadLocation,
                    message: format!(
                        "fault {i} targets {names} only in provably-dead windows \
                         (times {:?}): it cannot differ from the reference run",
                        fault.times
                    ),
                });
            }
            for &t in &fault.times {
                if t >= self.steps || t > self.horizon {
                    lints.push(Lint {
                        kind: LintKind::ActivationBeyondHorizon,
                        message: format!(
                            "fault {i} activates at time {t}, at or past the measured \
                             end of the workload (steps {}, horizon {})",
                            self.steps, self.horizon
                        ),
                    });
                }
            }
            if let Some(key) = self.class_key(config, fault) {
                match seen.entry(key) {
                    Entry::Occupied(first) => lints.push(Lint {
                        kind: LintKind::DuplicateEquivalentFault,
                        message: format!(
                            "fault {i} is provably equivalent to fault {} \
                             (same bits, same model, activation times in the \
                             same equivalence windows)",
                            first.get()
                        ),
                    }),
                    Entry::Vacant(slot) => {
                        slot.insert(i);
                    }
                }
            }
        }
        lints
    }

    /// Serialises to JSON (for persistence and `goofi analyze --json`).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("StaticAnalysis serialises")
    }

    /// Deserialises from JSON.
    ///
    /// # Errors
    ///
    /// A description of the parse failure.
    pub fn from_json(json: &str) -> Result<StaticAnalysis, String> {
        serde_json::from_str(json).map_err(|e| format!("corrupt StaticAnalysis: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultModel, Location};
    use crate::target::{ChainInfo, FieldInfo};

    fn analysis() -> StaticAnalysis {
        StaticAnalysis {
            horizon: 100,
            steps: 101,
            blocks: 3,
            edges: 3,
            dead: BTreeMap::from([
                ("R1".to_string(), vec![(3, 5), (10, 20)]),
                ("R2".to_string(), vec![(0, 0)]),
            ]),
            equiv: BTreeMap::from([
                ("R1".to_string(), vec![(3, 5), (10, 20), (30, 40)]),
                ("R2".to_string(), vec![(0, 0), (3, 8), (10, 20)]),
            ]),
            washout: BTreeMap::from([
                // Dead windows re-surface as washouts dying at the
                // first-touch (pure write) step; (30, 40) is a genuine
                // propagating washout whose taint dies at step 45.
                (
                    "R1".to_string(),
                    vec![(3, 5, 5), (10, 20, 20), (30, 40, 45)],
                ),
                ("R2".to_string(), vec![(0, 0, 0), (3, 8, 12), (10, 20, 25)]),
            ]),
            lints: Vec::new(),
            classes: Vec::new(),
            eligible_faults: 0,
            singleton_classes: 0,
        }
    }

    fn config() -> TargetSystemConfig {
        TargetSystemConfig {
            name: "t".into(),
            description: String::new(),
            chains: vec![ChainInfo {
                name: "cpu".into(),
                width: 64,
                fields: vec![
                    FieldInfo {
                        name: "R1".into(),
                        offset: 0,
                        width: 32,
                        writable: true,
                    },
                    FieldInfo {
                        name: "R2".into(),
                        offset: 32,
                        width: 32,
                        writable: true,
                    },
                ],
            }],
            memory: Vec::new(),
        }
    }

    fn fault(bit: usize, times: Vec<u64>) -> PlannedFault {
        PlannedFault {
            model: FaultModel::BitFlip,
            targets: vec![Location::ChainBit {
                chain: "cpu".into(),
                bit,
            }],
            times,
        }
    }

    #[test]
    fn dead_windows_are_inclusive_and_sorted() {
        let a = analysis();
        assert!(!a.is_dead("R1", 2));
        assert!(a.is_dead("R1", 3));
        assert!(a.is_dead("R1", 5));
        assert!(!a.is_dead("R1", 6));
        assert!(a.is_dead("R1", 15));
        assert_eq!(a.dead_window("R1", 15), Some((10, 20)));
        assert!(!a.is_dead("R1", 21));
        assert!(a.is_dead("R2", 0));
        assert!(!a.is_dead("R2", 1));
    }

    #[test]
    fn unknown_locations_and_beyond_horizon_are_kept() {
        let mut a = analysis();
        assert!(!a.is_dead("R9", 4));
        a.dead.insert("R9".into(), vec![(0, u64::MAX)]);
        assert!(a.is_dead("R9", 100));
        assert!(!a.is_dead("R9", 101), "beyond the horizon");
    }

    #[test]
    fn can_prune_requires_all_times_dead_and_named_targets() {
        let a = analysis();
        let cfg = config();
        assert!(a.can_prune(&cfg, &fault(5, vec![4])));
        assert!(!a.can_prune(&cfg, &fault(5, vec![4, 7])));
        // Bit outside any field: unnamed, kept.
        let mut f = fault(5, vec![4]);
        f.targets = vec![Location::ChainBit {
            chain: "cpu".into(),
            bit: 999,
        }];
        assert!(!a.can_prune(&cfg, &f));
    }

    #[test]
    fn classes_group_same_window_faults() {
        let mut a = analysis();
        let cfg = config();
        let faults = vec![
            fault(5, vec![4]),  // R1 window (3,5)
            fault(6, vec![3]),  // R1 window (3,5) -> same class
            fault(5, vec![12]), // R1 window (10,20)
            fault(5, vec![7]),  // live, no class
            fault(40, vec![0]), // R2 window (0,0)
        ];
        a.compute_classes(&cfg, &faults);
        assert_eq!(a.classes.len(), 3);
        let c = a
            .classes
            .iter()
            .find(|c| c.window == (3, 5))
            .expect("class for (3,5)");
        assert_eq!(c.location, "R1");
        assert_eq!(c.representative, 0);
        assert_eq!(c.multiplicity, 2);
        assert!(a.classes.iter().all(|c| c.window != (7, 7)));
    }

    #[test]
    fn equiv_windows_lookup() {
        let a = analysis();
        assert_eq!(a.equiv_window("R1", 35), Some((30, 40)));
        assert_eq!(a.equiv_window("R1", 3), Some((3, 5)));
        assert_eq!(a.equiv_window("R1", 6), None);
        assert_eq!(a.equiv_window("R9", 3), None);
        assert_eq!(a.equiv_window("R1", 200), None, "beyond the horizon");
    }

    #[test]
    fn washout_windows_lookup() {
        let a = analysis();
        assert_eq!(a.washout_window("R1", 35), Some((30, 40, 45)));
        assert_eq!(a.washout_window("R1", 3), Some((3, 5, 5)));
        assert_eq!(a.washout_window("R1", 6), None);
        assert_eq!(a.washout_window("R9", 3), None);
        assert_eq!(a.washout_window("R1", 200), None, "beyond the horizon");
    }

    #[test]
    fn can_predict_single_activation() {
        let a = analysis();
        let cfg = config();
        assert!(a.can_predict(&cfg, &fault(5, vec![30])), "washes at 45");
        assert!(a.can_predict(&cfg, &fault(5, vec![4])), "dead is washed");
        assert!(!a.can_predict(&cfg, &fault(5, vec![50])), "no window");
        assert!(!a.can_predict(&cfg, &fault(5, vec![])), "no activations");
        // Unnamed target: never predictable.
        let mut f = fault(5, vec![30]);
        f.targets = vec![Location::ChainBit {
            chain: "cpu".into(),
            bit: 999,
        }];
        assert!(!a.can_predict(&cfg, &f));
    }

    #[test]
    fn can_predict_multi_activation_chains() {
        let a = analysis();
        let cfg = config();
        // (4 -> washed by 5 < 12), 12 washes at 20: predictable.
        assert!(a.can_predict(&cfg, &fault(5, vec![4, 12])));
        // Final activation has no washout window: not predictable.
        assert!(!a.can_predict(&cfg, &fault(5, vec![4, 50])));
        // 30 and 35 share the equivalence window (confined residue is
        // re-corrupted by the second activation), 35 washes at 45.
        assert!(a.can_predict(&cfg, &fault(5, vec![30, 35])));
        // Chain break: R2's residue from time 3 dies only at 12, after
        // the next activation at 10, and the windows differ — even
        // though the final activation itself would wash at 25.
        assert!(!a.can_predict(&cfg, &fault(40, vec![3, 10])));
        assert!(a.can_predict(&cfg, &fault(40, vec![3, 15])), "12 < 15");
    }

    #[test]
    fn prefix_washed_requires_washed_final_pair() {
        let a = analysis();
        let cfg = config();
        assert!(a.prefix_washed(&cfg, &fault(5, vec![35])), "single");
        assert!(a.prefix_washed(&cfg, &fault(5, vec![12, 35])), "washed");
        assert!(
            !a.prefix_washed(&cfg, &fault(5, vec![30, 35])),
            "merged residue reaches the last activation"
        );
        assert!(a.prefix_washed(&cfg, &fault(5, vec![4, 12, 35])));
        // Merge on a non-final pair, then the merged residue washes
        // before the last activation: the pre-state is reference again.
        assert!(a.prefix_washed(&cfg, &fault(5, vec![30, 35, 50])));
        assert!(!a.prefix_washed(&cfg, &fault(5, vec![])));
    }

    #[test]
    fn execution_classes_accept_washed_prefix_multi_activation() {
        let mut a = analysis();
        let cfg = config();
        let faults = vec![
            fault(5, vec![30]),     // single, window (30,40)
            fault(5, vec![12, 35]), // prefix washes by 20, last in (30,40)
            fault(5, vec![30, 35]), // residue merges into the last: out
        ];
        let eligible = vec![true; faults.len()];
        a.compute_execution_classes(&cfg, &faults, &eligible);
        assert_eq!(a.classes.len(), 1);
        assert_eq!(a.classes[0].members, vec![0, 1]);
        assert_eq!(a.classes[0].window, (30, 40));
    }

    #[test]
    fn campaign_lints_fire_and_gate() {
        let a = analysis();
        let cfg = config();
        let faults = vec![
            fault(5, vec![7]),   // live, in no window: clean
            fault(5, vec![4]),   // all-dead activation
            fault(5, vec![200]), // beyond horizon and measured end
            fault(5, vec![30]),  // first of an equivalent pair
            fault(5, vec![35]),  // duplicate of fault 3
        ];
        let lints = a.campaign_lints(&cfg, &faults);
        let kinds: Vec<LintKind> = lints.iter().map(|l| l.kind).collect();
        assert!(kinds.contains(&LintKind::FaultTargetsDeadLocation));
        assert!(kinds.contains(&LintKind::ActivationBeyondHorizon));
        assert!(kinds.contains(&LintKind::DuplicateEquivalentFault));
        assert_eq!(lints.len(), 3, "the clean fault raises nothing");
        assert!(lints.iter().all(|l| l.kind.gates()));
        let dup = lints
            .iter()
            .find(|l| l.kind == LintKind::DuplicateEquivalentFault)
            .unwrap();
        assert!(dup.message.contains("fault 4"), "{}", dup.message);
        assert!(dup.message.contains("fault 3"), "{}", dup.message);
        assert!(!LintKind::DeadStore.gates());
        assert!(LintKind::NoPathToTermination.gates());
    }

    #[test]
    fn execution_classes_group_same_bits_same_window() {
        let mut a = analysis();
        let cfg = config();
        let faults = vec![
            fault(5, vec![30]),     // R1 equiv window (30,40)
            fault(5, vec![35]),     // same bit, same window -> same class
            fault(5, vec![40]),     // same again
            fault(6, vec![30]),     // different bit -> singleton, dropped
            fault(5, vec![50]),     // no equiv window -> no class
            fault(5, vec![30, 35]), // multi-activation -> ineligible
        ];
        let eligible = vec![true; faults.len()];
        a.compute_execution_classes(&cfg, &faults, &eligible);
        assert_eq!(a.classes.len(), 1, "singletons are not recorded");
        let big = &a.classes[0];
        assert_eq!(big.kind, ClassKind::Live);
        assert_eq!(big.multiplicity, 3);
        assert_eq!(big.members, vec![0, 1, 2]);
        assert_eq!(big.representative, 0);
        assert_eq!(big.location, "R1");
        assert_eq!(big.window, (30, 40));
        assert_eq!(a.class_savings(), (1, 2), "one class saves two runs");
    }

    #[test]
    fn class_savings_ignore_dead_classes() {
        let mut a = analysis();
        let cfg = config();
        a.compute_classes(&cfg, &[fault(5, vec![4]), fault(6, vec![3])]);
        assert!(!a.classes.is_empty());
        assert_eq!(a.class_savings(), (0, 0));
    }

    #[test]
    fn execution_classes_respect_eligibility_mask() {
        let mut a = analysis();
        let cfg = config();
        let faults = vec![fault(5, vec![30]), fault(5, vec![35]), fault(5, vec![40])];
        a.compute_execution_classes(&cfg, &faults, &[false, true, true]);
        assert_eq!(a.classes.len(), 1);
        assert_eq!(a.classes[0].members, vec![1, 2]);
        assert_eq!(a.classes[0].representative, 1);
    }

    #[test]
    fn json_roundtrip() {
        let mut a = analysis();
        a.lints.push(Lint {
            kind: LintKind::DeadStore,
            message: "store at pc 12 is never read".into(),
        });
        a.compute_classes(&config(), &[fault(5, vec![4])]);
        let json = a.to_json();
        assert_eq!(StaticAnalysis::from_json(&json).unwrap(), a);
        assert!(StaticAnalysis::from_json("not json").is_err());
    }

    #[test]
    fn pruning_mode_parses() {
        assert_eq!("off".parse::<Pruning>().unwrap(), Pruning::Off);
        assert_eq!("campaign".parse::<Pruning>().unwrap(), Pruning::Campaign);
        assert_eq!("static".parse::<Pruning>().unwrap(), Pruning::Static);
        assert!("bogus".parse::<Pruning>().is_err());
        let err = "trace".parse::<Pruning>().unwrap_err();
        assert!(err.contains("off, campaign or static"), "{err}");
        assert_eq!(Pruning::default(), Pruning::Campaign);
        assert!(!Pruning::Off.prunes(true));
        assert!(Pruning::Campaign.prunes(true) && !Pruning::Campaign.prunes(false));
        assert!(Pruning::Static.prunes(false));
        assert_eq!(Pruning::Static.to_string(), "static");
    }
}
