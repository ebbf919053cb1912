//! Latency recorder: raw samples, exact nearest-rank percentiles.
//!
//! Every sample is kept (a run records at most a few million), so p50 and
//! p99 are exact rather than bucketed.

#[derive(Debug, Default, Clone)]
pub struct Recorder {
    samples: Vec<u64>,
    sorted: bool,
}

impl Recorder {
    pub fn record(&mut self, ns: u64) {
        self.samples.push(ns);
        self.sorted = false;
    }

    pub fn count(&self) -> usize {
        self.samples.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile in ns: the smallest sample with at least
    /// `p`% of the samples at or below it. `None` when empty.
    pub fn percentile(&mut self, p: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        self.sort();
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
        Some(self.samples[rank - 1])
    }

    /// Samples strictly above the `p`th percentile.
    pub fn beyond(&mut self, p: f64) -> usize {
        let Some(cut) = self.percentile(p) else { return 0 };
        self.samples.len() - self.samples.partition_point(|&s| s <= cut)
    }

    pub fn merge(&mut self, other: &Recorder) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Rng;

    /// Reference: sort, then index the nearest rank directly.
    fn reference(samples: &[u64], p: f64) -> u64 {
        let mut s = samples.to_vec();
        s.sort();
        let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
        s[rank.max(1) - 1]
    }

    #[test]
    fn percentiles_equal_a_sorted_sample_reference() {
        let mut rng = Rng::new(11);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 12_345] {
            let samples: Vec<u64> = (0..n).map(|_| rng.next_u64() % 1_000_000).collect();
            let mut r = Recorder::default();
            samples.iter().for_each(|&s| r.record(s));
            for p in [0.1, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                assert_eq!(r.percentile(p), Some(reference(&samples, p)), "n={n} p={p}");
            }
            let cut = reference(&samples, 99.0);
            assert_eq!(r.beyond(99.0), samples.iter().filter(|&&s| s > cut).count());
            assert!(r.beyond(99.0) <= n / 100 + 1);
        }
        assert_eq!(Recorder::default().percentile(50.0), None);
    }

    #[test]
    fn p99_is_not_a_power_of_two_bucket_edge() {
        let mut r = Recorder::default();
        (1..=1000u64).for_each(|i| r.record(i * 1000 + 7));
        assert_eq!(r.percentile(99.0), Some(990_007));
        assert_eq!(r.percentile(50.0), Some(500_007));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
