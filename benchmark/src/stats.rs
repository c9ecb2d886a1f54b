//! The one percentile definition every number of the benchmark uses.

/// Nearest-rank percentile of `values` for `q` in `[0, 1]`: the smallest
/// sample with at least a `q` share of all samples at or below it. The
/// median is `percentile(values, 0.5)`, which for an even count is the
/// lower of the two middle samples. `NaN` for an empty set.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // The epsilon keeps `0.07 * 100 = 7.000000000000001` at rank 7.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// `percentile(values, 0.5)`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Parts a window's operations are cut into by [`summarize`].
pub const PARTS: usize = 5;

/// Latency and throughput of a window of operations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median latency, ms.
    pub p50_ms: f64,
    /// Operations per second.
    pub ops_per_s: f64,
}

/// Summarize the latencies of a window's operations, in start order,
/// run by `concurrency` closed-loop callers.
///
/// A burst of load from outside the benchmark would move a statistic
/// of the whole window, so the operations are cut into [`PARTS`]
/// consecutive parts of equal count, and each statistic is the median
/// over the parts of its value in each part. Throughput in a part is
/// `concurrency / mean latency` (Little's law for a closed loop without
/// think time), which stays continuous when a part holds only a few
/// slow operations.
pub fn summarize(latency_ms: &[f64], concurrency: usize) -> Summary {
    let parts = PARTS.min(latency_ms.len()).max(1);
    let mut p50 = Vec::with_capacity(parts);
    let mut rate = Vec::with_capacity(parts);
    for k in 0..parts {
        let part = &latency_ms[k * latency_ms.len() / parts..(k + 1) * latency_ms.len() / parts];
        p50.push(median(part));
        let mean_s = part.iter().sum::<f64>() / part.len() as f64 / 1e3;
        rate.push(concurrency as f64 / mean_s);
    }
    Summary {
        p50_ms: median(&p50),
        ops_per_s: median(&rate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.07), 7.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn small_sets_and_even_medians() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 1.0);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0], 0.99), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn summary_shrugs_off_a_burst_in_one_part() {
        // 50 operations of 10 ms, the second part slowed 5× by a burst.
        let lat: Vec<f64> = (0..50)
            .map(|i| if (10..20).contains(&i) { 50.0 } else { 10.0 })
            .collect();
        let s = summarize(&lat, 2);
        assert_eq!(s.p50_ms, 10.0);
        assert_eq!(s.ops_per_s, 200.0);
        // Fewer operations than parts: one part per operation.
        let s = summarize(&[4.0, 2.0], 1);
        assert_eq!((s.p50_ms, s.ops_per_s), (2.0, 250.0));
    }
}
