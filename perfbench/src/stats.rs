//! The arithmetic behind every reported figure: percentiles, medians,
//! span self time and the ladder residual. Kept apart from the timing
//! code so the unit tests below can pin it down exactly.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` of the sample at or below it. `p` is a share
/// in `0.0..=1.0`; an empty sample reads 0.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample (mean of the two middle values for an even count);
/// 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile mean: the mean of the values left after dropping the
/// lowest and the highest quarter (`n / 4` values each side). Robust to a
/// few outliers, like the median, but averages more of the sample.
pub fn iq_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// A timed interval in nanoseconds on the benchmark's clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Start, ns.
    pub start: u64,
    /// End, ns (`end >= start`).
    pub end: u64,
}

/// Self time of a span: its duration minus the part of it that the
/// union of its children's intervals covers. Children may overlap each
/// other or stick out of the parent; only the covered part of the parent
/// is subtracted, once.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    covered += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (parent.end - parent.start) - covered
}

/// One section's entry in the ladder: its share of the workload's
/// requests, the in-workload single-worker service time (p50, ns) and
/// the sum of the isolated rungs that make up one request (ns).
#[derive(Clone, Copy, Debug)]
pub struct LadderRow {
    /// Share of requests (weights need not sum to 1; they are normalised).
    pub weight: f64,
    /// Service time p50 measured inside the workload, ns.
    pub service_ns: f64,
    /// Sum of the rungs measured in isolation, ns.
    pub rung_sum_ns: f64,
}

/// How much of the single-worker service time the rungs leave
/// unexplained, as a percentage of it: `(S - R) / S * 100`, where `S` and
/// `R` are the request-mix-weighted service time and rung sum. Positive
/// means the workload pays for something no rung measures; negative means
/// the isolated rungs cost more than the request does in place.
pub fn ladder_residual_pct(rows: &[LadderRow]) -> f64 {
    let w: f64 = rows.iter().map(|r| r.weight).sum();
    if w <= 0.0 {
        return 0.0;
    }
    let s: f64 = rows.iter().map(|r| r.weight * r.service_ns).sum::<f64>() / w;
    let r: f64 = rows.iter().map(|r| r.weight * r.rung_sum_ns).sum::<f64>() / w;
    if s <= 0.0 {
        return 0.0;
    }
    (s - r) / s * 100.0
}

/// Request-mix-weighted mean of per-section values.
pub fn weighted_mean(pairs: &[(f64, f64)]) -> f64 {
    let w: f64 = pairs.iter().map(|&(w, _)| w).sum();
    if w <= 0.0 {
        return 0.0;
    }
    pairs.iter().map(|&(w, v)| w * v).sum::<f64>() / w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // 10 samples: p99 is the largest, p50 the fifth.
        let t: Vec<u64> = (10..20).collect();
        assert_eq!(percentile(&t, 0.99), 19);
        assert_eq!(percentile(&t, 0.5), 14);
    }

    #[test]
    fn median_handles_odd_even_and_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn iq_mean_drops_outer_quarters() {
        assert_eq!(iq_mean(&[1.0, 2.0, 3.0, 100.0]), 2.5);
        assert_eq!(iq_mean(&[5.0]), 5.0);
        assert_eq!(iq_mean(&[1.0, 3.0]), 2.0);
        // 8 values: drop 2 each side, mean of the middle 4.
        assert_eq!(iq_mean(&[0.0, 50.0, 4.0, 5.0, 6.0, 7.0, -9.0, 99.0]), 5.5);
        assert_eq!(iq_mean(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_covered_union_once() {
        let p = Interval {
            start: 100,
            end: 200,
        };
        assert_eq!(self_time(p, &[]), 100);
        let c1 = Interval {
            start: 110,
            end: 150,
        };
        assert_eq!(self_time(p, &[c1]), 60);
        // Overlapping children count their union.
        let c2 = Interval {
            start: 140,
            end: 170,
        };
        assert_eq!(self_time(p, &[c1, c2]), 40);
        // Disjoint children add.
        let c3 = Interval {
            start: 180,
            end: 190,
        };
        assert_eq!(self_time(p, &[c3, c1]), 50);
        // Children sticking out of the parent are clipped.
        let c4 = Interval {
            start: 50,
            end: 120,
        };
        let c5 = Interval {
            start: 195,
            end: 300,
        };
        assert_eq!(self_time(p, &[c4, c5]), 75);
        // A child outside the parent subtracts nothing.
        let c6 = Interval {
            start: 300,
            end: 400,
        };
        assert_eq!(self_time(p, &[c6]), 100);
        // Full cover leaves no self time.
        assert_eq!(self_time(p, &[p]), 0);
    }

    #[test]
    fn ladder_residual_weights_sections_by_mix() {
        // Rungs explain all of the service time: residual 0.
        let exact = [LadderRow {
            weight: 1.0,
            service_ns: 1000.0,
            rung_sum_ns: 1000.0,
        }];
        assert_eq!(ladder_residual_pct(&exact), 0.0);
        // 40/60 mix: S = 0.4*1000 + 0.6*500 = 700, R = 0.4*800 + 0.6*500 = 620.
        let mix = [
            LadderRow {
                weight: 40.0,
                service_ns: 1000.0,
                rung_sum_ns: 800.0,
            },
            LadderRow {
                weight: 60.0,
                service_ns: 500.0,
                rung_sum_ns: 500.0,
            },
        ];
        let got = ladder_residual_pct(&mix);
        assert!((got - 80.0 / 700.0 * 100.0).abs() < 1e-9, "{got}");
        // Rungs costing more than the request reads negative.
        let over = [LadderRow {
            weight: 1.0,
            service_ns: 100.0,
            rung_sum_ns: 150.0,
        }];
        assert_eq!(ladder_residual_pct(&over), -50.0);
        assert_eq!(ladder_residual_pct(&[]), 0.0);
    }

    #[test]
    fn weighted_mean_normalises_weights() {
        assert_eq!(weighted_mean(&[(1.0, 10.0), (3.0, 20.0)]), 17.5);
        assert_eq!(weighted_mean(&[]), 0.0);
    }
}
