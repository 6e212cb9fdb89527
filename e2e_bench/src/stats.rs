//! Metric math: percentiles, tail support, and outcome shares.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile (`q` in `(0, 1]`) of `samples`: the
/// smallest sample with at least `q · n` samples at or below it.
/// Returns `None` for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q)])
}

/// Zero-based index of the nearest-rank `q` percentile in `n` sorted
/// samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// Whether `n` samples support reporting the `q` percentile: at least
/// [`TAIL_SUPPORT`] samples lie beyond it.
pub fn tail_supported(n: usize, q: f64) -> bool {
    beyond(n, q) >= TAIL_SUPPORT
}

/// Median of `samples` (the nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// How the attempted units of one pass ended. A refusal (admission
/// rejection) is a failure: the caller got no layout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Units attempted (ops, or batch slots).
    pub attempted: u64,
    /// Units that returned an error.
    pub failed: u64,
    /// Units refused by admission control.
    pub refused: u64,
    /// Successful units that carried any degradation note.
    pub degraded: u64,
}

impl Outcomes {
    /// Failed or refused units.
    pub fn errors(&self) -> u64 {
        self.failed + self.refused
    }

    /// Share of attempted units that failed or were refused.
    pub fn error_share(&self) -> f64 {
        share(self.errors(), self.attempted)
    }

    /// Share of attempted units that came back degraded.
    pub fn degraded_share(&self) -> f64 {
        share(self.degraded, self.attempted)
    }
}

/// `part / whole`, zero when nothing was attempted.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Arithmetic mean, zero for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of arrival does not matter.
        let mut reversed = samples.clone();
        reversed.reverse();
        assert_eq!(percentile(&reversed, 0.9), Some(90.0));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: rank 90, so exactly 10 lie beyond the p90.
        assert_eq!(beyond(100, 0.9), 10);
        assert!(tail_supported(100, 0.9));
        // 99 samples: rank 90 of 99 leaves only 9 beyond.
        assert_eq!(beyond(99, 0.9), 9);
        assert!(!tail_supported(99, 0.9));
        // The median of 20 samples has 10 beyond it; of 19, only 9.
        assert!(tail_supported(20, 0.5));
        assert!(!tail_supported(19, 0.5));
        assert_eq!(beyond(0, 0.9), 0);
    }

    #[test]
    fn refusals_count_as_failures() {
        let outcomes = Outcomes {
            attempted: 8,
            failed: 1,
            refused: 3,
            degraded: 2,
        };
        assert_eq!(outcomes.errors(), 4);
        assert_eq!(outcomes.error_share(), 0.5);
        assert_eq!(outcomes.degraded_share(), 0.25);
        // A refusal alone is a failure.
        let refused = Outcomes {
            attempted: 4,
            refused: 1,
            ..Outcomes::default()
        };
        assert_eq!(refused.errors(), 1);
        assert_eq!(refused.error_share(), 0.25);
        assert_eq!(Outcomes::default().error_share(), 0.0);
    }
}
