//! Order statistics and the geometric mean.

/// Median of `values` (the mean of the two middle values for an even
/// count; 0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Buckets per doubling of a [`Histogram`]: each bucket is 2^(1/128),
/// about 0.54%, wide.
const BUCKETS_PER_OCTAVE: f64 = 128.0;
/// Octaves a [`Histogram`] covers, from 1 up to 2^40 (1 ns to 18 minutes
/// for nanosecond samples).
const OCTAVES: usize = 40;

/// A log-bucketed histogram of positive samples: fixed memory however
/// many samples it holds, at most one bucket (0.54%) of error on a quantile.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; OCTAVES * BUCKETS_PER_OCTAVE as usize],
            total: 0,
        }
    }
}

impl Histogram {
    /// Records one sample; values below 1 land in the first bucket, values
    /// beyond the range in the last.
    pub fn record(&mut self, v: f64) {
        let bucket = (v.max(1.0).log2() * BUCKETS_PER_OCTAVE) as usize;
        let last = self.counts.len() - 1;
        self.counts[bucket.min(last)] += 1;
        self.total += 1;
    }

    /// Nearest-rank quantile `p` (in `0..=1`): the smallest sample with at
    /// least `p` of the samples at or below it. Within its bucket the
    /// sample is placed by its rank among the bucket's samples, spread
    /// evenly on the log scale, so the quantile moves with the data rather
    /// than in bucket-wide steps. 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (bucket, &n) in self.counts.iter().enumerate() {
            if seen + n >= rank {
                let within = (rank - seen) as f64 - 0.5;
                return 2f64.powf((bucket as f64 + within / n as f64) / BUCKETS_PER_OCTAVE);
            }
            seen += n;
        }
        unreachable!("rank is at most the sample count")
    }
}

/// Geometric mean from the sum of `n` natural logarithms (0 for none).
pub fn geomean(log_sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket_of_the_exact_ones() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(0.5), 0.0);
        for v in 1..=1000 {
            h.record(f64::from(v) * 1000.0);
        }
        for (p, exact) in [(0.5, 500e3), (0.99, 990e3), (1.0, 1000e3), (0.0, 1e3)] {
            let got = h.percentile(p);
            assert!((got / exact - 1.0).abs() < 0.003, "p{p}: {got} vs {exact}");
        }
    }

    #[test]
    fn geomean_of_logs() {
        let logs = 2f64.ln() + 8f64.ln();
        assert!((geomean(logs, 2) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(0.0, 0), 0.0);
    }
}
