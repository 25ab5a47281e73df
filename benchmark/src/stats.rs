//! Sample sets and the percentile rule.

/// Samples beyond a percentile that make it reportable: a p90 needs 100
/// samples, a p99 needs 1 000.
const MIN_BEYOND: f64 = 10.0;

/// Measurements of one quantity, in arrival order.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one measurement.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Median (mean of the two middle values for an even count), 0 for an
    /// empty set.
    pub fn p50(&self) -> f64 {
        let s = self.sorted();
        match s.len() {
            0 => 0.0,
            n if n % 2 == 1 => s[n / 2],
            n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
        }
    }

    /// Nearest-rank percentile `p` in (0.5, 1), or `None` when fewer than
    /// ten samples lie beyond it.
    pub fn tail(&self, p: f64) -> Option<f64> {
        let n = self.0.len();
        if (n as f64) * (1.0 - p) < MIN_BEYOND - 1e-9 {
            return None;
        }
        let rank = ((n as f64 * p).ceil() as usize).clamp(1, n);
        Some(self.sorted()[rank - 1])
    }

    fn sorted(&self) -> Vec<f64> {
        let mut s = self.0.clone();
        s.sort_by(f64::total_cmp);
        s
    }
}

impl Extend<f64> for Samples {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(n: usize) -> Samples {
        let mut s = Samples::new();
        // Reverse order: percentiles must not depend on arrival order.
        s.extend((1..=n).rev().map(|v| v as f64));
        s
    }

    #[test]
    fn median_of_odd_even_and_empty_sets() {
        assert_eq!(range(5).p50(), 3.0);
        assert_eq!(range(4).p50(), 2.5);
        assert_eq!(Samples::new().p50(), 0.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(range(99).tail(0.90), None);
        assert_eq!(range(100).tail(0.90), Some(90.0));
        assert_eq!(range(250).tail(0.90), Some(225.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(range(999).tail(0.99), None);
        assert_eq!(range(1000).tail(0.99), Some(990.0));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
