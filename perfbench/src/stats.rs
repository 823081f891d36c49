//! Order statistics over timing samples.
//!
//! Timings are reported as a median plus the highest percentile that still
//! has at least [`TAIL_MIN_BEYOND`] samples beyond it, so a tail figure is
//! never read off a handful of outliers.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, highest first. The ladder stops at
/// p99: the workloads' sample counts make p99.9 rest on a few dozen values.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// A percentile read off a sorted sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile, in `(0, 100]`.
    pub pct: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Number of samples the percentile was read from.
    pub samples: usize,
}

/// One-based nearest rank of percentile `pct` among `n` samples.
fn nearest_rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n` samples.
fn beyond(pct: f64, n: usize) -> usize {
    n - nearest_rank(pct, n)
}

/// The nearest-rank `pct` percentile of `samples` (`None` when empty).
pub fn percentile(samples: &[f64], pct: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile {
        pct,
        value: sorted[nearest_rank(pct, sorted.len()) - 1],
        samples: sorted.len(),
    })
}

/// The median: the middle sample, or the mean of the two middle samples of
/// an even count.
pub fn median(samples: &[f64]) -> Option<Percentile> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let value = match n {
        0 => return None,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    };
    Some(Percentile {
        pct: 50.0,
        value,
        samples: n,
    })
}

/// The highest percentile of the ladder with at least [`TAIL_MIN_BEYOND`]
/// of `n` samples beyond it. With fewer than 20 samples no percentile
/// qualifies and the median is used.
pub fn tail_pct(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&pct| n > 0 && beyond(pct, n) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0)
}

/// The sample at [`tail_pct`].
pub fn tail(samples: &[f64]) -> Option<Percentile> {
    percentile(samples, tail_pct(samples.len()))
}

/// Arithmetic mean (`0.0` when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order: the helpers must sort.
        (0..n).rev().map(|i| (i + 1) as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        let p = tail(&ramp(1000)).unwrap();
        assert_eq!((p.pct, p.value, p.samples), (99.0, 990.0, 1000));
        // 999 samples: p99 is rank 990 with only 9 beyond; p95 qualifies.
        let p = tail(&ramp(999)).unwrap();
        assert_eq!((p.pct, p.value), (95.0, 950.0));
        // 40 samples: p90 leaves 4, p75 leaves exactly 10.
        let p = tail(&ramp(40)).unwrap();
        assert_eq!((p.pct, p.value), (75.0, 30.0));
        // 20 samples: only the median leaves 10 beyond it.
        let p = tail(&ramp(20)).unwrap();
        assert_eq!((p.pct, p.value), (50.0, 10.0));
    }

    #[test]
    fn tail_falls_back_to_the_median_on_small_sets() {
        let p = tail(&ramp(7)).unwrap();
        assert_eq!((p.pct, p.value, p.samples), (50.0, 4.0, 7));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn every_reported_tail_has_ten_samples_beyond_it() {
        for n in 20..3000 {
            let p = tail(&ramp(n)).unwrap();
            let strictly_above = ramp(n).iter().filter(|&&v| v > p.value).count();
            assert!(strictly_above >= TAIL_MIN_BEYOND, "n={n} pct={}", p.pct);
        }
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap().value, 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap().value, 2.5);
        assert!(median(&[]).is_none());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
