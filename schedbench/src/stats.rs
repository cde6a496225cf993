//! Latency summaries: the median and the tail percentile rule.

/// The tail of a sample: the highest percentile that still has at least
/// ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: u64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// Samples strictly beyond it in rank (ten, unless the sample has
    /// ten or fewer values, when the tail is the maximum).
    pub beyond: usize,
    /// Sample size.
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median of `sorted` (ascending); the mean of the two middle values
/// for an even count.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(sorted: &[u64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2] as f64
    } else {
        (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0
    }
}

/// The tail of `sorted` (ascending): the value with exactly
/// [`TAIL_BEYOND`] samples ranked above it, at percentile
/// `100 · (n − 10) / n`. With ten or fewer samples it is the maximum,
/// with nothing beyond it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn tail(sorted: &[u64]) -> Tail {
    assert!(!sorted.is_empty(), "tail of an empty sample");
    let n = sorted.len();
    let beyond = if n > TAIL_BEYOND { TAIL_BEYOND } else { 0 };
    let rank = n - beyond;
    Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let sample: Vec<u64> = (1..=1000).collect();
        let t = tail(&sample);
        assert_eq!(t.value, 990);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 1000);
        assert!((t.percentile - 99.0).abs() < 1e-9);
        assert_eq!(sample.iter().filter(|&&v| v > t.value).count(), 10);

        let t = tail(&(1..=11).collect::<Vec<u64>>());
        assert_eq!((t.value, t.beyond), (1, 10));
    }

    #[test]
    fn small_samples_fall_back_to_the_maximum() {
        for n in 1..=10u64 {
            let t = tail(&(1..=n).collect::<Vec<u64>>());
            assert_eq!((t.value, t.beyond, t.samples), (n, 0, n as usize));
            assert!((t.percentile - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[1, 2, 9]), 2.0);
        assert_eq!(median(&[1, 2, 4, 9]), 3.0);
    }
}
