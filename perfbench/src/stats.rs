//! Percentiles over latency samples.

use std::time::Duration;

/// Percentiles the tail rule chooses from, highest first.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];
/// Samples a reported tail percentile must have beyond it.
const TAIL_BEYOND: usize = 10;

/// Latency samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_ms(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile `q` in `(0, 1]`; `NaN` when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        v[rank(q, v.len())]
    }

    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    pub fn mean(&self) -> f64 {
        self.sum() / self.0.len() as f64
    }

    /// The highest ladder percentile with at least ten samples beyond
    /// it: `(percentile, value, samples beyond)`. `None` when even the
    /// lowest rung has fewer.
    pub fn tail(&self) -> Option<(f64, f64, usize)> {
        let n = self.0.len();
        TAIL_LADDER.iter().find_map(|&q| {
            let beyond = n - 1 - rank(q, n).min(n.saturating_sub(1));
            (n > 0 && beyond >= TAIL_BEYOND).then(|| (q, self.percentile(q), beyond))
        })
    }
}

/// 0-based nearest-rank index of percentile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        for i in 1..=n {
            s.push_ms(i as f64);
        }
        s
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p90 is the 90th value with 10 beyond; p95 has 5.
        assert_eq!(samples(100).tail(), Some((0.9, 90.0, 10)));
        assert_eq!(samples(1000).tail(), Some((0.99, 990.0, 10)));
        assert_eq!(samples(30).tail(), None);
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(samples(4).median(), 2.5);
        assert_eq!(samples(5).median(), 3.0);
    }
}
