//! Order statistics shared by every report: the median, nearest-rank
//! percentiles and the tail rule.

/// Percentile ladder the tail rule walks, highest first.
const TAIL_LADDER: [f64; 7] = [0.9999, 0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// A tail percentile is reported only with this many samples beyond it.
const TAIL_MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Rank (1-based) of the nearest-rank `q`-quantile among `n` samples:
/// `⌈q · n⌉`, clamped to `[1, n]`.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The tail of a latency sample: which percentile, its value, and how
/// many samples the whole distribution had.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in `[0, 1]`.
    pub quantile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Total samples.
    pub samples: usize,
}

/// The highest ladder percentile with at least ten samples beyond it
/// (the median when the sample is too small for any of them).
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return Tail {
            quantile: 0.5,
            value: 0.0,
            samples: 0,
        };
    }
    let quantile = TAIL_LADDER
        .into_iter()
        .find(|&q| n - nearest_rank(n, q) >= TAIL_MIN_BEYOND)
        .unwrap_or(0.5);
    Tail {
        quantile,
        value: s[nearest_rank(n, quantile) - 1],
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        let ramp = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only one.
        let t = tail(&ramp(1000));
        assert_eq!((t.quantile, t.value, t.samples), (0.99, 990.0, 1000));
        // 999 samples: ⌈0.99·999⌉ = 990 leaves 9 beyond, so fall to p95.
        let t = tail(&ramp(999));
        assert_eq!((t.quantile, t.value), (0.95, 950.0));
        // 100 samples: p90 leaves exactly 10.
        let t = tail(&ramp(100));
        assert_eq!((t.quantile, t.value), (0.9, 90.0));
        // 40 samples: p75 leaves 10.
        assert_eq!(tail(&ramp(40)).quantile, 0.75);
        // Too few for any tail: the median is all there is.
        let t = tail(&ramp(12));
        assert_eq!((t.quantile, t.value, t.samples), (0.5, 6.0, 12));
        assert_eq!(tail(&[]).samples, 0);
    }
}
