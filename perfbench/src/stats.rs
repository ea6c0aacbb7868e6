//! Timing summaries: nearest-rank percentiles that refuse to report a
//! tail they have too few samples for, and the plain median used for
//! repeated set-ups.

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// 1-based rank of that sample in sorted order.
    pub rank: usize,
    /// Samples in all.
    pub n: usize,
    /// Samples ranked above it.
    pub beyond: usize,
}

/// The nearest-rank `p`-th percentile (`p` in 1..=100) of `sorted`
/// (ascending): the sample at 1-based rank `ceil(p * n / 100)`.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_BEYOND`] samples lie beyond the rank,
/// naming the sample count.
pub fn nearest_rank(sorted: &[f64], p: u32) -> Result<Percentile, String> {
    assert!((1..=100).contains(&p), "percentile {p} out of 1..=100");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted"
    );
    let n = sorted.len();
    let rank = (p as usize * n).div_ceil(100).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} needs at least {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}"
        ));
    }
    Ok(Percentile {
        value: sorted[rank - 1],
        rank,
        n,
        beyond,
    })
}

/// Sorts `samples` ascending (NaN-free input).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
}

/// The median of a handful of repeated measurements (mean of the two
/// middle values for an even count).
///
/// # Panics
///
/// On an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s = ramp(100);
        let p50 = nearest_rank(&s, 50).unwrap();
        assert_eq!(
            (p50.value, p50.rank, p50.n, p50.beyond),
            (50.0, 50, 100, 50)
        );
        assert_eq!(nearest_rank(&s, 90).unwrap().value, 90.0);
        // 1000 samples: p99 is rank 990, exactly ten beyond.
        let s = ramp(1000);
        let p99 = nearest_rank(&s, 99).unwrap();
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        // Non-integral rank rounds up: ceil(0.9 * 101) = 91.
        assert_eq!(nearest_rank(&ramp(101), 90).unwrap().value, 91.0);
    }

    #[test]
    fn refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        assert!(nearest_rank(&ramp(100), 90).is_ok());
        let err = nearest_rank(&ramp(99), 90).unwrap_err();
        assert!(err.contains("99 samples leave 9"), "{err}");
        assert!(nearest_rank(&ramp(999), 99).is_err());
        assert!(nearest_rank(&ramp(19), 50).is_err());
        assert!(nearest_rank(&ramp(20), 50).is_ok());
        assert!(nearest_rank(&[], 50).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
