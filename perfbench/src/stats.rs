//! Order statistics and process measurements shared by the samples, the
//! traced run and the measuring process.
//!
//! Every quantile here is nearest-rank: the value at rank ⌈q·n⌉.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by nearest rank; 0 for an
/// empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q`-quantile, in seconds, of the span durations a telemetry
/// phase recorded; 0 when there is none. The phase keeps only a log2
/// histogram, so the value is interpolated linearly inside the bucket
/// that holds the rank, and capped at the longest span seen.
pub fn histogram_quantile(phase: Option<&goofi_core::PhaseStats>, q: f64) -> f64 {
    let Some(phase) = phase.filter(|p| p.count > 0) else {
        return 0.0;
    };
    let rank = ((q * phase.count as f64).ceil() as u64).clamp(1, phase.count);
    let mut seen = 0;
    for (i, &n) in phase.buckets.iter().enumerate() {
        if n > 0 && seen + n >= rank {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = (1u64 << (i + 1)) as f64;
            let nanos = lo + (hi - lo) * (rank - seen) as f64 / n as f64;
            return nanos.min(phase.max_nanos as f64) * 1e-9;
        }
        seen += n;
    }
    phase.max_nanos as f64 * 1e-9
}

/// The median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// This process's peak resident set size (`VmHWM`) in KiB, or 0 where
/// `/proc` does not report it.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
