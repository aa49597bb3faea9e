//! Percentiles with their sample-count rule, and the JSON number format.

/// Percentiles the benchmark may report, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a percentile needs beyond it before it is worth reporting.
const TAIL_SAMPLES: f64 = 10.0;

/// Whether `n` samples leave at least [`TAIL_SAMPLES`] above percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= TAIL_SAMPLES - 1e-9
}

/// The highest percentile on the ladder that `n` samples support
/// (`None` below 20 samples, where not even the median has ten beyond it).
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| supports(n, p))
}

/// A reported percentile together with the sample count behind it.
#[derive(Clone, Debug)]
pub struct Pct {
    /// The value (NaN without samples).
    pub value: f64,
    /// The percentile asked for.
    pub p: f64,
    /// Samples it was computed from.
    pub n: usize,
}

impl Pct {
    /// Percentile `p` of `values` (linear interpolation between ranks).
    pub fn of(values: &[f64], p: f64) -> Pct {
        let value = if values.is_empty() {
            f64::NAN
        } else {
            spire_sim::stats::percentile(values, p)
        };
        Pct {
            value,
            p,
            n: values.len(),
        }
    }

    /// True when the sample count is too small for this percentile.
    pub fn flagged(&self) -> bool {
        !supports(self.n, self.p)
    }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    Pct::of(values, 50.0).value
}

/// A finite number as JSON with all its digits; non-finite values, which
/// JSON cannot carry, become 0 (the benchmark's "not applicable").
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(!supports(19, 50.0));
        assert!(supports(20, 50.0));
        assert!(!supports(99, 90.0));
        assert!(supports(100, 90.0));
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
    }

    #[test]
    fn highest_supported_walks_the_ladder() {
        assert_eq!(highest_supported(10), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(150), Some(90.0));
        assert_eq!(highest_supported(2_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(100_000), Some(99.99));
    }

    #[test]
    fn flag_marks_unsupported_percentiles() {
        let few: Vec<f64> = (0..500).map(f64::from).collect();
        assert!(Pct::of(&few, 99.0).flagged());
        assert!(!Pct::of(&few, 90.0).flagged());
        assert!(Pct::of(&[], 50.0).value.is_nan());
    }

    #[test]
    fn json_numbers_keep_digits_and_stay_valid() {
        assert_eq!(json_num(1.203_456_789), "1.203456789");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(f64::INFINITY), "0");
    }
}
