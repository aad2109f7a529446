//! Order statistics for the reports: medians, best-of set-up times and
//! the tail-percentile rule.

/// Percentiles tried for a latency tail, highest first. The top rung is
/// p99, the tail the metric names promise.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The median of `v` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Repeated timings of a few set-up items (deployments, daemon starts).
/// Each item keeps its fastest repeat, which is what the set-up costs
/// when no other tenant of the machine slows it; the value is the median
/// of those minima over the items.
#[derive(Debug, Clone)]
pub struct BestOf {
    best: Vec<f64>,
    repeats: usize,
}

impl BestOf {
    pub fn new(items: usize) -> BestOf {
        BestOf {
            best: vec![f64::INFINITY; items],
            repeats: 0,
        }
    }

    pub fn items(&self) -> usize {
        self.best.len()
    }

    /// Records one timing of `item`.
    pub fn record(&mut self, item: usize, secs: f64) {
        self.best[item] = self.best[item].min(secs);
        self.repeats += 1;
    }

    /// Timings recorded.
    pub fn repeats(&self) -> usize {
        self.repeats
    }

    /// Median over the items of each item's fastest repeat.
    pub fn value(&self) -> f64 {
        median(&self.best)
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100] of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with its value: `(p, value)`.
/// `None` when even the median has fewer than ten samples beyond it.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .find(|&&p| n > 0 && n - rank(p, n) >= TAIL_MIN_BEYOND)
        .map(|&p| (p, percentile(sorted, p)))
}

/// `p99`, `p99.9`, `p95`, … as used in metric names.
pub fn label(p: f64) -> String {
    format!("p{p}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|k| k as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn best_of_is_the_median_of_per_item_minima() {
        let mut b = BestOf::new(3);
        // Item 0 is slowed once, item 1 twice; item 2 never.
        for (item, t) in [(0, 9.0), (1, 8.0), (2, 3.0), (0, 2.0), (1, 7.0), (1, 4.0)] {
            b.record(item, t);
        }
        // Minima 2, 4, 3: the median is 3.
        assert_eq!(b.value(), 3.0);
        assert_eq!(b.repeats(), 6);
        assert_eq!(b.items(), 3);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: rank 990 leaves exactly 10 beyond p99.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // One sample fewer and p99 leaves only 9: fall back to p95.
        assert_eq!(tail(&ramp(999)), Some((95.0, 950.0)));
        // Plenty of samples still stop at the top rung.
        assert_eq!(tail(&ramp(100_000)), Some((99.0, 99_000.0)));
        // 20 samples: the median leaves 10 beyond, p75 only 5.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn labels_print_like_metric_names() {
        assert_eq!(label(99.0), "p99");
        assert_eq!(label(99.9), "p99.9");
        assert_eq!(label(50.0), "p50");
    }
}
