//! Small statistics and host helpers: medians, nearest-rank percentiles,
//! self-time subtraction, and `/proc` parsing.

use std::time::Duration;

/// Samples that must lie beyond a percentile's rank before it is reported:
/// a tail percentile resting on fewer samples is noise, not a measurement.
pub const MIN_BEYOND: u64 = 10;

/// Median of `values` (the mean of the middle two for an even count), or
/// `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[mid]),
        _ => Some((v[mid - 1] + v[mid]) / 2.0),
    }
}

/// Nearest-rank `pct`-th percentile of ascending `sorted`: the smallest
/// sample with at least `pct`% of the samples at or below it. `None` unless
/// at least [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(sorted: &[u64], pct: u64) -> Option<u64> {
    debug_assert!(sorted.is_sorted(), "percentile needs ascending samples");
    let n = sorted.len() as u64;
    let rank = (pct * n).div_ceil(100).max(1);
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[(rank - 1) as usize])
}

/// A layer's self time: its span minus the spans of the layers it calls.
/// Saturates at zero, since clock jitter can make children sum past a
/// short parent span.
pub fn self_time(span: Duration, children: &[Duration]) -> Duration {
    children.iter().fold(span, |left, &child| left.saturating_sub(child))
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text, in
/// KiB.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// This process's peak resident set in MiB, if `/proc` reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// The CPU model named in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                let (key, value) = l.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `ns` nanoseconds in microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nanoseconds per job of a run over `jobs` jobs.
pub fn ns_per_job(d: Duration, jobs: u64) -> f64 {
    d.as_secs_f64() * 1e9 / jobs.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50), Some(50));
        assert_eq!(percentile(&samples, 90), Some(90));
        assert_eq!(percentile(&samples, 1), Some(1));
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&samples, 99), Some(990));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 999 samples has rank 990 and 9 samples beyond: withheld.
        let samples: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&samples, 99), None);
        let samples: Vec<u64> = (1..=1000).collect();
        assert!(percentile(&samples, 99).is_some());
        // p50 needs 20 samples: rank 10 of 20 leaves exactly 10 beyond.
        let samples: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&samples, 50), Some(10));
        assert_eq!(percentile(&samples[..19], 50), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let ms = Duration::from_millis;
        assert_eq!(self_time(ms(10), &[ms(3), ms(4)]), ms(3));
        assert_eq!(self_time(ms(10), &[ms(7), ms(6)]), Duration::ZERO);
        assert_eq!(self_time(ms(10), &[]), ms(10));
    }

    #[test]
    fn vm_hwm_parses_the_status_line() {
        let status =
            "Name:\trrs-benchmark\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(12345));
        assert_eq!(vm_hwm_kib("VmRSS:\t 100 kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t lots kB\n"), None);
    }
}
