//! Small helpers shared by the workloads.

use crate::stats;
use interp::Env;
use semlock::value::Value;
use std::time::Instant;

/// Requests per section per thread fed to the rungs.
pub const RUNG_REQS: usize = 2048;

/// A seed for one input stream of a run: the run seed mixed with the
/// stream's tag (splitmix64 finaliser), so streams are independent.
pub fn stream(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median wall time of `reps` calls of `f`, ms.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&v)
}

/// Tracing overhead, %: how much faster the untraced runs were than the
/// traced ones, by median throughput.
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let t = stats::median(traced);
    if t <= 0.0 {
        return 0.0;
    }
    (stats::median(untraced) / t - 1.0) * 100.0
}

/// Summed `(acquisitions, contended, timeouts)` of some instances'
/// semantic locks.
pub fn contention(env: &Env, handles: &[Value]) -> (u64, u64, u64) {
    handles.iter().fold((0, 0, 0), |(a, c, t), &h| {
        let adt = env.resolve(h);
        let (da, dc) = adt.sem().contention();
        (a + da, c + dc, t + adt.sem().timeout_count())
    })
}

/// Peak resident set size of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        assert_eq!(stream(7, 1), stream(7, 1));
        assert_ne!(stream(7, 1), stream(7, 2));
        assert_ne!(stream(7, 1), stream(8, 1));
    }

    #[test]
    fn overhead_compares_medians() {
        assert_eq!(overhead_pct(&[110.0, 90.0, 100.0], &[50.0]), 100.0);
        assert_eq!(overhead_pct(&[1.0], &[]), 0.0);
    }
}
