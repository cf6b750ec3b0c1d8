//! Pre-injection (liveness) analysis — paper Section 4.
//!
//! "The purpose of this analysis is to determine when registers and other
//! fault injection locations hold live data. Injecting a fault into a
//! location that does not hold live data serves no purpose, since the
//! fault will be overwritten." The analysis walks the reference-run trace
//! once and answers, for any `(location, time)` pair, whether the first
//! subsequent use of the location is a read (fault may propagate: *live*)
//! or a write (fault is dead: provably **Overwritten**).
//!
//! The runner does not prune with it: campaigns prune with the static
//! analysis ([`crate::staticanalysis`]), which needs no reference trace.
//! This trace-based analysis is the oracle the static one is checked
//! against — every statically dead `(location, time)` must be dead here
//! too (experiments E3/E11 and the soundness tests).

use crate::fault::PlannedFault;
use crate::target::{TargetSystemConfig, TraceStep};
use std::collections::HashMap;

/// How a location was first used after a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstUse {
    /// Read before any write: the fault can propagate.
    Read,
    /// Written before any read: the fault is dead.
    Write,
    /// Never used again: the fault stays as a latent state difference.
    Never,
}

/// Per-location event timeline distilled from a reference trace.
#[derive(Debug, Clone)]
pub struct LivenessAnalysis {
    /// location -> sorted (time, is_write) events. Reads sort before
    /// writes at the same time (an instruction that reads and writes the
    /// same location — e.g. `add r1, r1, r2` — consumes the old value
    /// first).
    events: HashMap<String, Vec<(u64, bool)>>,
    end_time: u64,
}

impl LivenessAnalysis {
    /// Builds the timeline from a reference trace.
    pub fn from_trace(trace: &[TraceStep]) -> LivenessAnalysis {
        let mut events: HashMap<String, Vec<(u64, bool)>> = HashMap::new();
        let mut end_time = 0;
        for step in trace {
            end_time = end_time.max(step.time);
            for r in &step.reads {
                events
                    .entry(r.clone())
                    .or_default()
                    .push((step.time, false));
            }
            for w in &step.writes {
                events.entry(w.clone()).or_default().push((step.time, true));
            }
        }
        for list in events.values_mut() {
            // Stable by construction per step; sort by (time, is_write) so
            // the read of a read-modify-write instruction comes first.
            list.sort_by_key(|&(t, w)| (t, w));
        }
        LivenessAnalysis { events, end_time }
    }

    /// Last instruction index seen in the trace.
    pub fn end_time(&self) -> u64 {
        self.end_time
    }

    /// Locations known to the analysis.
    pub fn known_locations(&self) -> impl Iterator<Item = &str> {
        self.events.keys().map(String::as_str)
    }

    /// How `location` is first used at or after `time`. Unknown locations
    /// report [`FirstUse::Never`].
    pub fn first_use_after(&self, location: &str, time: u64) -> FirstUse {
        match self.events.get(location) {
            None => FirstUse::Never,
            Some(list) => {
                let idx = list.partition_point(|&(t, _)| t < time);
                match list.get(idx) {
                    None => FirstUse::Never,
                    Some(&(_, true)) => FirstUse::Write,
                    Some(&(_, false)) => FirstUse::Read,
                }
            }
        }
    }

    /// Whether a fault injected into `location` at `time` is provably dead
    /// (next use is a write). Unknown locations are *not* dead — we cannot
    /// prove anything about state the trace never mentions.
    pub fn is_dead(&self, location: &str, time: u64) -> bool {
        // A location never used again is latent, not dead: the final state
        // comparison will still see the flip, so it must not be pruned if
        // the location is observable. Only a definite overwrite is dead.
        self.first_use_after(location, time) == FirstUse::Write
    }

    /// Decides whether a whole planned fault can be skipped: every target
    /// bit, at every activation time, must map to a traced location whose
    /// next use is a write.
    pub fn can_prune(&self, config: &TargetSystemConfig, fault: &PlannedFault) -> bool {
        fault.targets.iter().all(|target| {
            match target.architectural_name(config) {
                None => false, // untraceable location: keep the experiment
                Some(name) => fault.times.iter().all(|&t| self.is_dead(&name, t)),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultModel, Location};
    use crate::target::{ChainInfo, FieldInfo};

    fn step(time: u64, reads: &[&str], writes: &[&str]) -> TraceStep {
        TraceStep {
            time,
            reads: reads.iter().map(|s| s.to_string()).collect(),
            writes: writes.iter().map(|s| s.to_string()).collect(),
            is_branch: false,
            is_call: false,
        }
    }

    /// r1 is written at 0, read at 2; written again at 5 (dead window
    /// [3,5]); r2 written at 1 and never read.
    fn analysis() -> LivenessAnalysis {
        LivenessAnalysis::from_trace(&[
            step(0, &[], &["R1"]),
            step(1, &[], &["R2"]),
            step(2, &["R1"], &["R3"]),
            step(5, &[], &["R1"]),
        ])
    }

    #[test]
    fn live_before_read_dead_before_write() {
        let a = analysis();
        assert_eq!(a.first_use_after("R1", 1), FirstUse::Read);
        assert!(!a.is_dead("R1", 1), "will be read at 2");
        assert_eq!(a.first_use_after("R1", 3), FirstUse::Write);
        assert!(a.is_dead("R1", 3), "overwritten at 5");
        assert_eq!(a.first_use_after("R1", 6), FirstUse::Never);
        assert!(!a.is_dead("R1", 6), "stays latent, not pruned");
    }

    #[test]
    fn injection_at_write_time_is_dead() {
        // Breakpoint at t fires before instruction t executes; if t writes
        // the location, the fault dies immediately.
        let a = analysis();
        assert!(a.is_dead("R1", 5));
        assert!(a.is_dead("R1", 0));
    }

    #[test]
    fn read_modify_write_is_live() {
        let a = LivenessAnalysis::from_trace(&[step(4, &["R1"], &["R1"])]);
        assert_eq!(a.first_use_after("R1", 4), FirstUse::Read);
        assert!(!a.is_dead("R1", 4));
    }

    #[test]
    fn unknown_locations_are_never_dead() {
        let a = analysis();
        assert!(!a.is_dead("IR", 0));
        assert_eq!(a.first_use_after("IR", 0), FirstUse::Never);
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
    fn prune_decision_uses_architectural_mapping() {
        let a = analysis();
        let cfg = config();
        // Bit 5 lives in R1; injection at 3 is dead (write at 5).
        assert!(a.can_prune(&cfg, &fault(5, vec![3])));
        // Injection at 1 is live (read at 2).
        assert!(!a.can_prune(&cfg, &fault(5, vec![1])));
        // Multi-activation: any live activation keeps the experiment.
        assert!(!a.can_prune(&cfg, &fault(5, vec![1, 3])));
        assert!(a.can_prune(&cfg, &fault(5, vec![3, 4])));
    }

    #[test]
    fn soundness_a_pruned_fault_is_overwritten_on_a_real_machine() {
        // End-to-end soundness check with a tiny synthetic trace shape:
        // location written at t=2 without a read in between.
        let a = LivenessAnalysis::from_trace(&[
            step(0, &[], &["R1"]),
            step(2, &[], &["R1"]),
            step(3, &["R1"], &[]),
        ]);
        // Window [1,2] is dead, window [3,..] is live.
        assert!(a.is_dead("R1", 1));
        assert!(!a.is_dead("R1", 3));
    }
}
