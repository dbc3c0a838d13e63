//! Small, separately tested numeric helpers: percentiles that refuse to
//! report a tail they have too few samples for, the closed-loop Little's
//! law ratio, and span self time.

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank `q`-quantile of ascending `sorted`, or `None` when fewer
/// than [`MIN_TAIL_SAMPLES`] samples lie beyond it (so p99 needs at least
/// 1000 samples).
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Arithmetic mean (0 for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of unsorted samples (0 for no samples).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Little's law for a closed loop: `X · R / N`, the mean number of
/// requests in flight per client. Each client has at most one request
/// outstanding, so this is at most 1; well below 1 means the generator
/// stalled or added think time between requests.
pub fn littles_ratio(throughput_per_s: f64, mean_latency_s: f64, clients: usize) -> f64 {
    throughput_per_s * mean_latency_s / clients as f64
}

/// Self time of a span `[start, end)`: its length minus the part of it
/// that the union of its children's intervals covers. Children may
/// overlap each other (parallel pool items) and stick out of the parent.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(2000), 0.99), Some(1980.0));
        assert_eq!(percentile(&ramp(21), 0.5), Some(11.0));
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn mean_and_median() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn littles_ratio_on_hand_built_loops() {
        // Two clients, 100 req/s, 20 ms each: both always busy.
        assert!((littles_ratio(100.0, 0.020, 2) - 1.0).abs() < 1e-12);
        // One client, 50 req/s, 10 ms each: in flight half the time.
        assert!((littles_ratio(50.0, 0.010, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children (two pool workers) count once.
        assert_eq!(self_time(0, 100, &[(10, 60), (40, 80)]), 30);
        // Nested and duplicate children.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30), (10, 60)]), 50);
        // Children sticking out of the parent are clipped.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time(10, 20, &[(0, 40)]), 0);
        assert_eq!(self_time(10, 20, &[(30, 40)]), 10);
    }
}
