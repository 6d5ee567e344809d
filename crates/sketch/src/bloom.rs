//! Bloom filters (Bloom, CACM 1970): "Space/Time Trade-offs in Hash Coding
//! with Allowable Errors" — the canonical space-optimized structure of the
//! paper's Figure 1.

use crate::{hash1, hash2};

/// A standard Bloom filter over `u64` keys with double hashing.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: u64,
    k: u32,
    inserted: usize,
}

impl BloomFilter {
    /// Filter sized for `expected` keys at `bits_per_key` bits each; the
    /// optimal number of hash functions `k = bits_per_key · ln 2` is
    /// derived automatically.
    pub fn new(expected: usize, bits_per_key: f64) -> Self {
        assert!(bits_per_key > 0.0, "bits_per_key must be positive");
        let n_bits = ((expected.max(1) as f64 * bits_per_key).ceil() as u64).max(64);
        let k = ((bits_per_key * std::f64::consts::LN_2).round() as u32).clamp(1, 30);
        BloomFilter {
            bits: vec![0u64; n_bits.div_ceil(64) as usize],
            n_bits,
            k,
            inserted: 0,
        }
    }

    /// Number of hash functions in use.
    pub fn hashes(&self) -> u32 {
        self.k
    }

    /// Filter size in bytes (the auxiliary space it costs).
    pub fn size_bytes(&self) -> u64 {
        (self.bits.len() * 8) as u64
    }

    /// Keys inserted so far.
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    #[inline]
    fn bit_positions(&self, key: u64) -> impl Iterator<Item = u64> + '_ {
        let h1 = hash1(key);
        let h2 = hash2(key);
        (0..self.k).map(move |i| h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.n_bits)
    }

    /// Insert a key.
    pub fn insert(&mut self, key: u64) {
        let n_bits = self.n_bits;
        let h1 = hash1(key);
        let h2 = hash2(key);
        for i in 0..self.k {
            let b = h1.wrapping_add((i as u64).wrapping_mul(h2)) % n_bits;
            self.bits[(b / 64) as usize] |= 1 << (b % 64);
        }
        self.inserted += 1;
    }

    /// Whether `key` *may* have been inserted. `false` is authoritative.
    pub fn may_contain(&self, key: u64) -> bool {
        self.bit_positions(key)
            .all(|b| self.bits[(b / 64) as usize] & (1 << (b % 64)) != 0)
    }

    /// Theoretical false-positive rate at the current fill.
    pub fn expected_fpr(&self) -> f64 {
        let m = self.n_bits as f64;
        let n = self.inserted as f64;
        let k = self.k as f64;
        (1.0 - (-k * n / m).exp()).powf(k)
    }

    /// Fraction of set bits (diagnostic).
    pub fn fill_ratio(&self) -> f64 {
        let set: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        set as f64 / self.n_bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(10_000, 10.0);
        for k in 0..10_000u64 {
            f.insert(k);
        }
        for k in 0..10_000u64 {
            assert!(f.may_contain(k), "false negative for {k}");
        }
    }

    #[test]
    fn false_positive_rate_near_theory() {
        let mut f = BloomFilter::new(10_000, 10.0);
        for k in 0..10_000u64 {
            f.insert(k);
        }
        let fp = (1_000_000..1_100_000u64)
            .filter(|&k| f.may_contain(k))
            .count();
        let rate = fp as f64 / 100_000.0;
        // ~1% at 10 bits/key; allow generous slack.
        assert!(rate < 0.03, "fpr {rate} too high");
        assert!((rate - f.expected_fpr()).abs() < 0.02);
    }

    #[test]
    fn more_bits_fewer_false_positives() {
        let rate = |bits: f64| {
            let mut f = BloomFilter::new(5_000, bits);
            for k in 0..5_000u64 {
                f.insert(k);
            }
            (1_000_000..1_050_000u64)
                .filter(|&k| f.may_contain(k))
                .count() as f64
                / 50_000.0
        };
        let r2 = rate(2.0);
        let r8 = rate(8.0);
        let r16 = rate(16.0);
        assert!(r2 > r8, "{r2} <= {r8}");
        assert!(r8 > r16, "{r8} <= {r16}");
    }

    #[test]
    fn size_scales_with_bits_per_key() {
        let small = BloomFilter::new(1000, 4.0).size_bytes();
        let large = BloomFilter::new(1000, 16.0).size_bytes();
        assert!(large >= 3 * small);
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::new(100, 10.0);
        assert!(!f.may_contain(0));
        assert!(!f.may_contain(12345));
        assert_eq!(f.fill_ratio(), 0.0);
    }

    #[test]
    fn fill_ratio_grows() {
        let mut f = BloomFilter::new(1000, 10.0);
        let before = f.fill_ratio();
        for k in 0..1000u64 {
            f.insert(k);
        }
        assert!(f.fill_ratio() > before);
        assert!(f.fill_ratio() < 0.6, "should be near 50% at design point");
    }
}
