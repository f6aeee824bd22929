//! Order statistics over host-time samples.

/// Nearest-rank percentile of `samples` (`q` in `[0, 1]`); 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank, lower middle); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Log-linear histogram of nanosecond durations: 32 linear sub-buckets
/// per power of two, so a percentile read back is within ~3 % of the
/// sample it stands for. Used where there are millions of samples (one
/// per simulated step) and keeping them all would distort peak memory.
#[derive(Debug, Clone)]
pub struct NsHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
}

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

impl NsHistogram {
    pub fn new() -> Self {
        Self {
            buckets: vec![0; (64 * SUB) as usize],
            count: 0,
            sum: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) & (SUB - 1);
        ((u64::from(exp - SUB_BITS + 1) << SUB_BITS) + sub) as usize
    }

    fn lower_bound(index: usize) -> u64 {
        let index = index as u64;
        if index < SUB {
            return index;
        }
        let exp = (index >> SUB_BITS) + u64::from(SUB_BITS) - 1;
        let sub = index & (SUB - 1);
        (1 << exp) + (sub << (exp - u64::from(SUB_BITS)))
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.sum += u128::from(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The lower edge of the bucket holding the `q` quantile.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::lower_bound(i) as f64;
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_tight() {
        let mut last = 0;
        for ns in [0, 1, 31, 32, 33, 63, 64, 100, 1000, 123_456, 9_999_999] {
            let i = NsHistogram::index(ns);
            assert!(i >= last);
            last = i;
            let lo = NsHistogram::lower_bound(i);
            assert!(lo <= ns && ns - lo <= ns / 32 + 1, "{ns} -> {lo}");
        }
        let mut h = NsHistogram::new();
        for ns in 1..=1000 {
            h.record(ns);
        }
        assert!((h.percentile(0.5) - 500.0).abs() <= 16.0);
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }
}
