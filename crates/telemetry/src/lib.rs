//! Campaign telemetry for GOOFI-rs.
//!
//! The fault-injection engine is instrumented with the vendored `tracing`
//! facade: every abstract building block (`inject_fault`,
//! `wait_for_breakpoint`, `read_scan_chain`, …) and every experiment
//! phase (checkpoint build/restore, stepping, classification, WAL
//! append/fsync) opens a named span; the work-stealing runner additionally
//! reports per-worker gauges (experiments claimed, chunk steals, busy and
//! idle time). This crate provides the subscriber side:
//!
//! * [`TelemetryMode`] — the runner knob: `Off` (default, zero cost),
//!   `Metrics` (histograms + gauges), `Trace` (metrics plus a bounded
//!   per-span log exportable as JSONL).
//! * [`Recorder`] — a [`tracing::Subscriber`] aggregating spans into
//!   per-name latency accumulators (count / total / max / log2-bucket
//!   histogram) plus named counters and worker gauges.
//! * [`CampaignTelemetry`] — the immutable campaign-level rollup produced
//!   by [`Recorder::finish`]; serializable (it is persisted into the
//!   `CampaignTelemetry` database table), renderable as the `goofi
//!   report` telemetry section, and exportable as a JSONL trace.
//!
//! Telemetry never perturbs campaign *results*: the recorder only
//! observes durations and counts, and the runner persists the rollup in a
//! separate table that determinism checks exclude.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Well-known span and counter names emitted by the instrumented engine.
///
/// The constants exist so instrumentation sites and report consumers agree
/// on spelling; the recorder itself accepts any `&'static str`. The
/// `goofi-db` crate cannot depend on this crate (layering: telemetry sits
/// above the database), so it emits the `wal.*` and `checkpoint` names as literals that
/// must match the constants here.
pub mod names {
    /// Fault-list generation + validation + the optional static analysis.
    pub const PHASE_PREPARE: &str = "phase.prepare";
    /// The fault-free reference execution.
    pub const PHASE_REFERENCE: &str = "phase.reference_run";
    /// One injected experiment, end to end.
    pub const PHASE_EXPERIMENT: &str = "phase.experiment";
    /// Pilot execution building the checkpoint cache.
    pub const PHASE_CHECKPOINT_BUILD: &str = "phase.checkpoint_build";
    /// Restoring a target from a cached snapshot.
    pub const PHASE_CHECKPOINT_RESTORE: &str = "phase.checkpoint_restore";
    /// Instruction-level stepping in detail log mode.
    pub const PHASE_STEPPING: &str = "phase.stepping";
    /// Outcome classification over the finished run set.
    pub const PHASE_CLASSIFICATION: &str = "phase.classification";

    /// Grouping the executed faults into equivalence classes (runner).
    pub const PHASE_CLASS_GROUPING: &str = "phase.class_grouping";

    /// Building a workload's CFG with its def/use sets (emitted by
    /// `goofi-analysis`).
    pub const ANALYSIS_CFG: &str = "analysis.cfg";
    /// The pc-only replay mapping injection times to CFG nodes (emitted
    /// by `goofi-analysis`).
    pub const ANALYSIS_REPLAY: &str = "analysis.replay";
    /// The first-touch walk deriving dead, equivalence and washout
    /// windows from the replay (emitted by `goofi-analysis`).
    pub const ANALYSIS_WINDOWS: &str = "analysis.windows";

    /// `injectFault` building block (scan-chain or memory write-back).
    pub const BLOCK_INJECT_FAULT: &str = "block.inject_fault";
    /// `waitForBreakpoint` building block.
    pub const BLOCK_WAIT_FOR_BREAKPOINT: &str = "block.wait_for_breakpoint";
    /// `waitForTermination` building block.
    pub const BLOCK_WAIT_FOR_TERMINATION: &str = "block.wait_for_termination";
    /// `readScanChain` building block.
    pub const BLOCK_READ_SCAN_CHAIN: &str = "block.read_scan_chain";
    /// `writeScanChain` building block.
    pub const BLOCK_WRITE_SCAN_CHAIN: &str = "block.write_scan_chain";
    /// `snapshot` building block (target side).
    pub const BLOCK_SNAPSHOT: &str = "block.snapshot";
    /// `restore` building block (target side).
    pub const BLOCK_RESTORE: &str = "block.restore";

    /// Appending one experiment row to the store.
    pub const STORE_LOG_EXPERIMENT: &str = "store.log_experiment";
    /// Framing + writing one record to the paged engine's write-ahead
    /// log (emitted by `goofi-db`).
    pub const WAL_APPEND: &str = "wal.append";
    /// Flushing the write-ahead log after an append (emitted by
    /// `goofi-db`).
    pub const WAL_FSYNC: &str = "wal.fsync";
    /// One engine checkpoint: flushing dirty pages (with torn-page
    /// protection) and truncating the write-ahead log (emitted by
    /// `goofi-db`).
    pub const STORE_CHECKPOINT: &str = "checkpoint";

    /// Decoding one worker reply frame into its message (emitted by the
    /// daemon's process executor).
    pub const NET_DECODE: &str = "net.decode";
    /// Value: bytes of one worker reply frame, header included (emitted
    /// by the daemon's process executor).
    pub const NET_BYTES: &str = "net.bytes";

    /// Counter: experiments that fell back to a cold start because a
    /// checkpoint restore was unavailable or failed.
    pub const COUNTER_CHECKPOINT_COLD: &str = "checkpoint.cold_fallback";
    /// Counter: experiments served from the checkpoint cache.
    pub const COUNTER_CHECKPOINT_HIT: &str = "checkpoint.restore_hit";
    /// Counter: experiments skipped by static pre-injection pruning.
    pub const COUNTER_PRUNED: &str = "experiments.pruned";
    /// Counter: experiments synthesised by fanning an equivalence-class
    /// representative's verdict out to its members.
    pub const COUNTER_FANNED: &str = "experiments.fanned";
    /// Counter: experiments whose verdict the propagation analysis
    /// predicted statically (fault washes out; reference outcome
    /// synthesised without execution).
    pub const COUNTER_PREDICTED: &str = "experiments.predicted";
}

/// How much telemetry a campaign run records.
///
/// Serializable so execution options can ship over the `goofi-net` wire
/// protocol to server workers unchanged.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TelemetryMode {
    /// No recorder installed; instrumentation sites cost one thread-local
    /// read each. The default.
    #[default]
    Off,
    /// Phase histograms, counters and worker gauges.
    Metrics,
    /// Everything in `Metrics` plus a bounded per-span log for JSONL
    /// trace export.
    Trace,
}

impl TelemetryMode {
    /// Whether any recording happens at all.
    pub fn enabled(self) -> bool {
        !matches!(self, TelemetryMode::Off)
    }

    /// Whether individual spans are logged (for `--trace-out`).
    pub fn trace(self) -> bool {
        matches!(self, TelemetryMode::Trace)
    }

    /// Parses a CLI spelling (`off` / `metrics` / `trace`).
    pub fn parse(s: &str) -> Option<TelemetryMode> {
        match s {
            "off" => Some(TelemetryMode::Off),
            "metrics" => Some(TelemetryMode::Metrics),
            "trace" => Some(TelemetryMode::Trace),
            _ => None,
        }
    }

    /// The canonical spelling, inverse of [`TelemetryMode::parse`].
    pub fn name(self) -> &'static str {
        match self {
            TelemetryMode::Off => "off",
            TelemetryMode::Metrics => "metrics",
            TelemetryMode::Trace => "trace",
        }
    }
}

/// Number of log2 latency buckets: bucket `i` counts spans with
/// `duration_nanos` in `[2^i, 2^(i+1))` (bucket 0 also counts 0 ns).
pub const BUCKETS: usize = 32;

/// Cap on the per-span log in [`TelemetryMode::Trace`]; spans beyond it
/// are still aggregated into the histograms but not individually logged.
pub const SPAN_LOG_CAP: usize = 10_000;

fn bucket_of(nanos: u64) -> usize {
    // 0..=1 ns → bucket 0, then one bucket per power of two, saturating.
    (64 - nanos.leading_zeros() as usize)
        .saturating_sub(1)
        .min(BUCKETS - 1)
}

#[derive(Clone)]
struct PhaseAcc {
    count: u64,
    total_nanos: u64,
    max_nanos: u64,
    buckets: [u64; BUCKETS],
}

impl PhaseAcc {
    fn new() -> PhaseAcc {
        PhaseAcc {
            count: 0,
            total_nanos: 0,
            max_nanos: 0,
            buckets: [0; BUCKETS],
        }
    }

    fn record(&mut self, nanos: u64) {
        self.count += 1;
        self.total_nanos += nanos;
        self.max_nanos = self.max_nanos.max(nanos);
        self.buckets[bucket_of(nanos)] += 1;
    }
}

/// Per-worker scheduler gauges reported by the runner at worker exit.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerTelemetry {
    /// Worker index (0-based; the sequential runner reports worker 0).
    pub worker: usize,
    /// Experiments this worker claimed and executed.
    pub claimed: u64,
    /// Chunks claimed beyond the worker's first — the extra dynamic
    /// claims a static one-shot partition would not have made.
    pub steals: u64,
    /// Wall time spent executing experiments.
    pub busy_nanos: u64,
    /// Wall time spent waiting at the gate or for the claim cursor.
    pub idle_nanos: u64,
}

impl WorkerTelemetry {
    /// Busy fraction of the worker's accounted time, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_nanos + self.idle_nanos;
        if total == 0 {
            return 0.0;
        }
        self.busy_nanos as f64 / total as f64
    }
}

/// One individually logged span ([`TelemetryMode::Trace`] only). Times are
/// nanoseconds relative to recorder creation (campaign start).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Span name (see [`names`]).
    pub name: String,
    /// Start offset from campaign start, nanoseconds.
    pub start_nanos: u64,
    /// Span duration, nanoseconds.
    pub duration_nanos: u64,
}

/// Aggregated latency statistics for one span name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Span name (see [`names`]).
    pub name: String,
    /// Number of spans recorded.
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub total_nanos: u64,
    /// Largest single duration, nanoseconds.
    pub max_nanos: u64,
    /// Log2 histogram; bucket `i` counts durations in `[2^i, 2^(i+1))`.
    pub buckets: Vec<u64>,
}

impl PhaseStats {
    /// Mean duration in nanoseconds (0 when no spans were recorded).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket containing the given quantile
    /// (`q` in `[0, 1]`), e.g. `quantile_nanos(0.95)` for an
    /// upper-bounded p95. Returns 0 when no spans were recorded.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        self.max_nanos
    }
}

/// A named monotonic counter total.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterStat {
    /// Counter name (see [`names`]).
    pub name: String,
    /// Sum of all recorded increments.
    pub value: u64,
}

/// The campaign-level telemetry rollup: everything the recorder saw,
/// frozen at campaign end. Persisted as JSON in the `CampaignTelemetry`
/// database table and rendered by `goofi report`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignTelemetry {
    /// Campaign name (FK to `CampaignData`).
    pub campaign: String,
    /// Recording mode, canonical spelling (`metrics` / `trace`).
    pub mode: String,
    /// Worker count the campaign ran with.
    pub workers: usize,
    /// Campaign wall time, nanoseconds.
    pub wall_nanos: u64,
    /// Per-span-name latency statistics, sorted by name.
    pub phases: Vec<PhaseStats>,
    /// Counter totals, sorted by name.
    pub counters: Vec<CounterStat>,
    /// Per-worker scheduler gauges, sorted by worker index.
    pub worker_stats: Vec<WorkerTelemetry>,
    /// Individually logged spans (`Trace` mode, capped at
    /// [`SPAN_LOG_CAP`]); empty in `Metrics` mode.
    pub spans: Vec<SpanRecord>,
    /// Spans aggregated but not individually logged (log cap overflow,
    /// or all of them in `Metrics` mode).
    pub unlogged_spans: u64,
}

fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

impl CampaignTelemetry {
    /// Serializes the rollup to the JSON stored in the database row.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("telemetry rollup serializes")
    }

    /// Parses a rollup from its stored JSON.
    pub fn from_json(json: &str) -> Result<CampaignTelemetry, String> {
        serde_json::from_str(json).map_err(|e| format!("corrupt telemetry JSON: {e}"))
    }

    /// Renders the human-readable telemetry section of `goofi report`:
    /// phase timing table, counters, and worker utilization/steal table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Telemetry for campaign '{}' (mode {}, {} worker(s), wall {})",
            self.campaign,
            self.mode,
            self.workers,
            fmt_nanos(self.wall_nanos)
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "phase/span", "count", "total", "mean", "p95<", "max"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>12} {:>12} {:>12} {:>12}",
                p.name,
                p.count,
                fmt_nanos(p.total_nanos),
                fmt_nanos(p.mean_nanos()),
                fmt_nanos(p.quantile_nanos(0.95)),
                fmt_nanos(p.max_nanos)
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "  counters:");
            for c in &self.counters {
                let _ = writeln!(out, "    {:<28} {:>8}", c.name, c.value);
            }
        }
        if !self.worker_stats.is_empty() {
            let _ = writeln!(
                out,
                "  {:<8} {:>8} {:>8} {:>12} {:>12} {:>12}",
                "worker", "claimed", "steals", "busy", "idle", "utilization"
            );
            for w in &self.worker_stats {
                let _ = writeln!(
                    out,
                    "  {:<8} {:>8} {:>8} {:>12} {:>12} {:>11.1}%",
                    w.worker,
                    w.claimed,
                    w.steals,
                    fmt_nanos(w.busy_nanos),
                    fmt_nanos(w.idle_nanos),
                    w.utilization() * 100.0
                );
            }
        }
        if self.unlogged_spans > 0 && self.mode == "trace" {
            let _ = writeln!(
                out,
                "  ({} span(s) aggregated beyond the {}-span trace log)",
                self.unlogged_spans, SPAN_LOG_CAP
            );
        }
        out
    }

    /// Renders the logged spans as JSON Lines (one object per span), the
    /// `goofi report --trace-out` format.
    pub fn to_trace_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"start_nanos\": {}, \"duration_nanos\": {}}}",
                span.name, span.start_nanos, span.duration_nanos
            );
        }
        out
    }

    /// Looks up the statistics for one span name.
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Total spans observed (logged and aggregated-only).
    pub fn span_count(&self) -> u64 {
        self.phases.iter().map(|p| p.count).sum()
    }
}

#[derive(Default)]
struct Inner {
    phases: BTreeMap<&'static str, PhaseAcc>,
    counters: BTreeMap<&'static str, u64>,
    spans: Vec<SpanRecord>,
    unlogged_spans: u64,
    workers: BTreeMap<usize, WorkerTelemetry>,
}

/// The campaign recorder: a [`tracing::Subscriber`] the runner installs
/// (thread-locally, on every campaign thread) when telemetry is enabled.
pub struct Recorder {
    mode: TelemetryMode,
    start: Instant,
    inner: Mutex<Inner>,
}

impl Recorder {
    /// Creates a recorder; `start` for span offsets is "now".
    pub fn new(mode: TelemetryMode) -> Recorder {
        Recorder {
            mode,
            start: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The recording mode this recorder was created with.
    pub fn mode(&self) -> TelemetryMode {
        self.mode
    }

    /// Merges one worker's scheduler gauges; called once per worker when
    /// its loop exits. Re-reports for the same index accumulate.
    pub fn record_worker(&self, stats: WorkerTelemetry) {
        let mut inner = self.inner.lock();
        let entry = inner
            .workers
            .entry(stats.worker)
            .or_insert_with(|| WorkerTelemetry {
                worker: stats.worker,
                ..WorkerTelemetry::default()
            });
        entry.claimed += stats.claimed;
        entry.steals += stats.steals;
        entry.busy_nanos += stats.busy_nanos;
        entry.idle_nanos += stats.idle_nanos;
    }

    /// Freezes the recorder into the campaign rollup.
    pub fn finish(&self, campaign: &str, workers: usize, wall_nanos: u64) -> CampaignTelemetry {
        let inner = self.inner.lock();
        CampaignTelemetry {
            campaign: campaign.to_string(),
            mode: self.mode.name().to_string(),
            workers,
            wall_nanos,
            phases: inner
                .phases
                .iter()
                .map(|(name, acc)| PhaseStats {
                    name: (*name).to_string(),
                    count: acc.count,
                    total_nanos: acc.total_nanos,
                    max_nanos: acc.max_nanos,
                    buckets: acc.buckets.to_vec(),
                })
                .collect(),
            counters: inner
                .counters
                .iter()
                .map(|(name, value)| CounterStat {
                    name: (*name).to_string(),
                    value: *value,
                })
                .collect(),
            worker_stats: inner.workers.values().cloned().collect(),
            spans: inner.spans.clone(),
            unlogged_spans: inner.unlogged_spans,
        }
    }
}

impl tracing::Subscriber for Recorder {
    fn on_span(&self, name: &'static str, nanos: u64) {
        let mut inner = self.inner.lock();
        inner
            .phases
            .entry(name)
            .or_insert_with(PhaseAcc::new)
            .record(nanos);
        if self.mode.trace() && inner.spans.len() < SPAN_LOG_CAP {
            // The facade reports only the duration; reconstruct the start
            // as (now - recorder start) - duration, clamped at 0.
            let end = self.start.elapsed().as_nanos() as u64;
            inner.spans.push(SpanRecord {
                name: name.to_string(),
                start_nanos: end.saturating_sub(nanos),
                duration_nanos: nanos,
            });
        } else {
            inner.unlogged_spans += 1;
        }
    }

    fn on_value(&self, name: &'static str, value: u64) {
        let mut inner = self.inner.lock();
        *inner.counters.entry(name).or_insert(0) += value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tracing::Subscriber as _;

    #[test]
    fn mode_parses_and_round_trips() {
        for mode in [
            TelemetryMode::Off,
            TelemetryMode::Metrics,
            TelemetryMode::Trace,
        ] {
            assert_eq!(TelemetryMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(TelemetryMode::parse("verbose"), None);
        assert!(!TelemetryMode::Off.enabled());
        assert!(TelemetryMode::Metrics.enabled());
        assert!(!TelemetryMode::Metrics.trace());
        assert!(TelemetryMode::Trace.trace());
        assert_eq!(TelemetryMode::default(), TelemetryMode::Off);
    }

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn recorder_aggregates_spans_and_counters() {
        let r = Recorder::new(TelemetryMode::Metrics);
        r.on_span("phase.experiment", 100);
        r.on_span("phase.experiment", 300);
        r.on_span("wal.append", 50);
        r.on_value("checkpoint.cold_fallback", 1);
        r.on_value("checkpoint.cold_fallback", 2);
        let t = r.finish("c", 2, 1_000);
        assert_eq!(t.campaign, "c");
        assert_eq!(t.workers, 2);
        assert_eq!(t.wall_nanos, 1_000);
        let exp = t.phase("phase.experiment").unwrap();
        assert_eq!(exp.count, 2);
        assert_eq!(exp.total_nanos, 400);
        assert_eq!(exp.max_nanos, 300);
        assert_eq!(exp.mean_nanos(), 200);
        assert_eq!(t.phase("wal.append").unwrap().count, 1);
        assert_eq!(
            t.counters,
            vec![CounterStat {
                name: "checkpoint.cold_fallback".into(),
                value: 3
            }]
        );
        // Metrics mode logs no individual spans but counts them.
        assert!(t.spans.is_empty());
        assert_eq!(t.unlogged_spans, 3);
        assert_eq!(t.span_count(), 3);
    }

    #[test]
    fn trace_mode_logs_spans_up_to_cap() {
        let r = Recorder::new(TelemetryMode::Trace);
        r.on_span("a", 10);
        r.on_span("b", 20);
        let t = r.finish("c", 1, 100);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].name, "a");
        assert_eq!(t.spans[0].duration_nanos, 10);
        assert_eq!(t.unlogged_spans, 0);
        let jsonl = t.to_trace_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn worker_gauges_merge_by_index() {
        let r = Recorder::new(TelemetryMode::Metrics);
        r.record_worker(WorkerTelemetry {
            worker: 1,
            claimed: 7,
            steals: 2,
            busy_nanos: 30,
            idle_nanos: 10,
        });
        r.record_worker(WorkerTelemetry {
            worker: 0,
            claimed: 5,
            steals: 0,
            busy_nanos: 20,
            idle_nanos: 20,
        });
        r.record_worker(WorkerTelemetry {
            worker: 1,
            claimed: 1,
            steals: 1,
            busy_nanos: 10,
            idle_nanos: 0,
        });
        let t = r.finish("c", 2, 100);
        assert_eq!(t.worker_stats.len(), 2);
        assert_eq!(t.worker_stats[0].worker, 0);
        assert_eq!(t.worker_stats[1].claimed, 8);
        assert_eq!(t.worker_stats[1].steals, 3);
        assert!((t.worker_stats[0].utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn rollup_serde_round_trips() {
        let r = Recorder::new(TelemetryMode::Trace);
        r.on_span("phase.experiment", 1_234);
        r.on_value("experiments.pruned", 4);
        r.record_worker(WorkerTelemetry {
            worker: 0,
            claimed: 3,
            steals: 1,
            busy_nanos: 9,
            idle_nanos: 1,
        });
        let t = r.finish("round-trip", 4, 999);
        let back = CampaignTelemetry::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
        assert!(CampaignTelemetry::from_json("{not json").is_err());
    }

    #[test]
    fn render_mentions_phases_workers_and_steals() {
        let r = Recorder::new(TelemetryMode::Metrics);
        r.on_span(names::PHASE_EXPERIMENT, 2_000_000);
        r.record_worker(WorkerTelemetry {
            worker: 0,
            claimed: 10,
            steals: 3,
            busy_nanos: 80,
            idle_nanos: 20,
        });
        let t = r.finish("shown", 1, 5_000_000);
        let text = t.render();
        assert!(text.contains("phase.experiment"));
        assert!(text.contains("utilization"));
        assert!(text.contains("steals"));
        assert!(text.contains("80.0%"));
    }

    #[test]
    fn quantile_uses_bucket_upper_bound() {
        let r = Recorder::new(TelemetryMode::Metrics);
        for _ in 0..99 {
            r.on_span("q", 100); // bucket 6: [64, 128)
        }
        r.on_span("q", 1 << 20);
        let t = r.finish("c", 1, 1);
        let p = t.phase("q").unwrap();
        assert_eq!(p.quantile_nanos(0.5), 128);
        assert_eq!(p.quantile_nanos(0.95), 128);
        assert_eq!(p.quantile_nanos(1.0), 1 << 21);
    }

    #[test]
    fn recorder_subscribes_through_the_facade() {
        let r = Arc::new(Recorder::new(TelemetryMode::Metrics));
        let d = tracing::Dispatch::new(r.clone());
        tracing::with_default(&d, || {
            let _s = tracing::span("via.facade");
            tracing::value("via.counter", 5);
        });
        let t = r.finish("c", 1, 1);
        assert_eq!(t.phase("via.facade").unwrap().count, 1);
        assert_eq!(t.counters[0].value, 5);
    }
}
