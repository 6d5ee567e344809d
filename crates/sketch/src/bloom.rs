//! Bloom filters (Bloom, CACM 1970): "Space/Time Trade-offs in Hash Coding
//! with Allowable Errors" — the canonical space-optimized structure of the
//! paper's Figure 1.
//!
//! Key `x`'s `i`-th bit is `(h1(x) + i·h2(x)) mod n_bits`. The reduction
//! takes no divide: with `M = ⌈2¹²⁸ / n_bits⌉` fixed at construction,
//! `x mod n_bits` is the high 64 bits of `(M·x mod 2¹²⁸) · n_bits`
//! (Lemire, Kaser & Kurz, "Faster Remainder by Direct Computation", 2019).
//! The identity is exact for every 64-bit `x` and every divisor of at least
//! 2, because `M` carries 128 ≥ 64 + log₂ n_bits bits, so every filter
//! sets and tests the very bits a `%` would.

use crate::{hash1, hash2};

/// A standard Bloom filter over `u64` keys with double hashing.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: u64,
    /// `⌈2¹²⁸ / n_bits⌉`, the multiplier of [`reduce`].
    inverse: u128,
    k: u32,
    inserted: usize,
}

/// `⌈2¹²⁸ / d⌉` for a divisor `d ≥ 2` (it would not fit for `d = 1`).
fn inverse_of(d: u64) -> u128 {
    debug_assert!(d >= 2);
    u128::MAX / d as u128 + 1
}

/// `x mod d` for `inverse = inverse_of(d)`, by four 64-bit multiplies and
/// no divide: the fraction `inverse·x mod 2¹²⁸` of `x / d`, scaled back up
/// by `d`.
#[inline]
fn reduce(x: u64, inverse: u128, d: u64) -> u64 {
    let frac = inverse.wrapping_mul(x as u128);
    let d = d as u128;
    let low = (frac as u64 as u128) * d;
    let high = (frac >> 64) * d;
    ((high + (low >> 64)) >> 64) as u64
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
            inverse: inverse_of(n_bits),
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
    fn bit_positions(&self, key: u64) -> impl Iterator<Item = u64> {
        let (inverse, n_bits) = (self.inverse, self.n_bits);
        let h1 = hash1(key);
        let h2 = hash2(key);
        (0..self.k).map(move |i| {
            reduce(
                h1.wrapping_add((i as u64).wrapping_mul(h2)),
                inverse,
                n_bits,
            )
        })
    }

    /// Insert a key.
    pub fn insert(&mut self, key: u64) {
        for b in self.bit_positions(key) {
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

    /// The reduction equals `%` at the edges: the smallest filter (64
    /// bits), every power of two, odd primes up to the largest below 2⁶⁴,
    /// and `u64::MAX`, each against 0, 1, the divisor's neighbours and
    /// multiples, the top of the key space and a spread of mixed values.
    #[test]
    fn reduction_equals_the_remainder() {
        let mut divisors: Vec<u64> = (6..64).map(|s| 1u64 << s).collect();
        divisors.extend([
            65,
            67,
            10_007,
            1_000_003,
            4_294_967_311,
            (1 << 61) - 1,
            (1 << 63) + 1,
            18_446_744_073_709_551_557,
            u64::MAX - 1,
            u64::MAX,
        ]);
        let mut mix = 0x853c_49e6_748f_ea9bu64;
        for &d in &divisors {
            let inverse = inverse_of(d);
            let mut xs = vec![0, 1, 2, 1 << 63, u64::MAX, u64::MAX - 1, u64::MAX - d + 1];
            for m in [1u64, 2, 3, 1000] {
                let base = d.wrapping_mul(m);
                xs.extend([base.wrapping_sub(1), base, base.wrapping_add(1)]);
            }
            for _ in 0..64 {
                mix = mix.wrapping_add(0x9E37_79B9_7F4A_7C15);
                xs.push((mix ^ (mix >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9));
            }
            for x in xs {
                assert_eq!(reduce(x, inverse, d), x % d, "{x} mod {d}");
            }
        }
    }

    /// FNV-1a over 64-bit words.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// Every filter's bit array and every `may_contain` answer, folded:
    /// bit counts that are a power of two, odd, or even but not a power,
    /// keys ascending, scattered and at the ends of the key space. The pin
    /// was taken with the `%` reduction; a position that moves fails here.
    #[test]
    fn bit_arrays_and_answers_match_their_pin() {
        let scattered = |n: u64| (0..n).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i >> 3));
        let sets: [(usize, f64, Vec<u64>); 5] = [
            (64, 1.0, (0..64).collect()),
            (1000, 10.0, (0..1000).collect()),
            (777, 7.3, scattered(777).collect()),
            (4096, 4.0, scattered(4096).map(|k| k | 1 << 63).collect()),
            (3, 5.0, vec![0, u64::MAX, u64::MAX - 1]),
        ];
        let mut digest = Vec::new();
        for (expected, bits_per_key, keys) in &sets {
            let mut f = BloomFilter::new(*expected, *bits_per_key);
            for &k in keys {
                f.insert(k);
            }
            digest.push(f.n_bits);
            digest.push(fnv(f.bits.iter().copied()));
            let probes = keys
                .iter()
                .copied()
                .chain(scattered(20_000).map(|k| k.rotate_left(17)));
            digest.push(fnv(probes.map(|k| f.may_contain(k) as u64)));
        }
        assert_eq!(
            fnv(digest.iter().copied()),
            0x57f2_1bc0_58eb_4cf6,
            "{digest:x?}"
        );
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
