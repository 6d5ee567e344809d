//! Log-linear latency histogram: 128 linear buckets per power of two, so a
//! reported quantile is within 1/256 (< 1 %) of a recorded value. The
//! library's `LatencyHistogram` keeps about two digits, too coarse to
//! resolve a 10 % bound on a percentile.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values below `2 * SUB` get a bucket each; above, 64 - 8 octaves of `SUB`.
const BUCKETS: usize = (2 * SUB + (64 - SUB_BITS as u64 - 1) * SUB) as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

fn index_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    // (v >> shift) is in [SUB, 2*SUB).
    ((shift as u64 + 1) * SUB + (v >> shift)) as usize - SUB as usize
}

/// Inclusive lower bound and width of bucket `i`.
fn bucket(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < 2 * SUB {
        return (i, 1);
    }
    let shift = i / SUB - 1;
    ((SUB + i % SUB) << shift, 1 << shift)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index_of(ns)] += 1;
        self.n += 1;
        self.sum = self.sum.saturating_add(ns);
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.n += other.n;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q` in [0, 1]: the midpoint of the bucket
    /// holding the `ceil(q·n)`-th smallest sample, clamped to the observed
    /// range. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (low, width) = bucket(i);
                let mid = low as f64 + (width - 1) as f64 / 2.0;
                return mid.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_u64_range() {
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (low, width) = bucket(i);
            assert_eq!(low, next, "bucket {i} starts where {} ended", i.max(1) - 1);
            assert_eq!(index_of(low), i);
            assert_eq!(index_of(low + (width - 1)), i);
            next = low.wrapping_add(width);
        }
        assert_eq!(next, 0, "last bucket ends at 2^64");
    }

    #[test]
    fn quantile_error_stays_below_one_percent() {
        // A geometric ladder from 1 ns to ~100 s, one sample per rung:
        // every rank's true value is known exactly.
        let mut values = Vec::new();
        let mut v = 1.0f64;
        while v < 1e11 {
            values.push(v as u64);
            v *= 1.003;
        }
        values.dedup();
        let mut h = Hist::default();
        for &v in &values {
            h.record(v);
        }
        for q in [0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1] as f64;
            let got = h.quantile(q);
            assert!(
                (got - truth).abs() <= truth * 0.01,
                "q={q}: got {got}, truth {truth}"
            );
        }
    }

    #[test]
    fn quantiles_clamp_to_the_observed_range() {
        let mut h = Hist::default();
        assert_eq!(h.quantile(0.5), 0.0);
        h.record(1_000_003);
        assert_eq!(h.quantile(0.0), 1_000_003.0);
        assert_eq!(h.quantile(1.0), 1_000_003.0);
        assert_eq!((h.count(), h.sum(), h.max()), (1, 1_000_003, 1_000_003));
    }
}
