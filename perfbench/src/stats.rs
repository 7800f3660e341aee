//! The order statistics the benchmark reports — median, quartiles, the
//! tail rank the sample supports — and failure counting.

/// Samples that must lie beyond a percentile before it is reported as
/// the tail.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them (its default
/// `exclusive` method). `None` below two samples, where Python raises.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4, ld + 1);
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some([q(1), q(2), q(3)])
}

/// The tail of a timing sample: the highest order statistic with at least
/// [`TAIL_BEYOND`] samples beyond it, never below the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The tail value.
    pub value: f64,
    /// 1-based rank of the value in the ascending sample (the median's
    /// rank, rounded up, when the sample is too small for a tail).
    pub rank: usize,
    /// Percentile the rank stands for.
    pub percentile: f64,
    /// Sample count.
    pub samples: usize,
}

/// Selects the tail of `xs`. Below `2 * TAIL_BEYOND` samples no rank above
/// the median has enough samples beyond it, so the median is reported.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    let med = median(&s)?;
    let rank = n.saturating_sub(TAIL_BEYOND);
    Some(if rank > n.div_ceil(2) {
        Tail { value: s[rank - 1], rank, percentile: 100.0 * rank as f64 / n as f64, samples: n }
    } else {
        Tail { value: med, rank: n.div_ceil(2), percentile: 50.0, samples: n }
    })
}

/// Counts calls and checks attempted and the ones that failed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one attempted operation; `Err` counts it as failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `true` when every attempted operation succeeded.
    pub fn ok(&self) -> bool {
        self.failed == 0
    }
}

/// `num ÷ den` as a float, 0 for an empty base.
pub fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=60).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.rank, t.samples), (50, 60));
        assert_eq!(t.value, 50.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!((t.percentile - 100.0 * 50.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn small_samples_report_the_median_as_tail() {
        for n in 1..=20 {
            let xs: Vec<f64> = (1..=n).map(f64::from).collect();
            let t = tail(&xs).unwrap();
            assert_eq!(t.value, median(&xs).unwrap(), "n = {n}");
            assert_eq!(t.percentile, 50.0);
        }
        let xs: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().rank, 11);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_ratio(), 0.0);
        t.record(Ok(()));
        t.record(Err("digest mismatch".into()));
        t.record(Ok(()));
        t.record(Ok(()));
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_ratio(), 0.25);
        assert!(!t.ok());
        assert_eq!(t.failures, vec!["digest mismatch".to_string()]);
    }
}
