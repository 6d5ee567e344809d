//! Property-based tests for the probabilistic structures: one-sided error
//! guarantees must hold under any input.

use proptest::prelude::*;
use rum_sketch::{BloomFilter, QuotientFilter};

proptest! {
    #[test]
    fn bloom_never_forgets(keys in proptest::collection::hash_set(any::<u64>(), 1..500)) {
        let mut f = BloomFilter::new(keys.len(), 8.0);
        for &k in &keys {
            f.insert(k);
        }
        for &k in &keys {
            prop_assert!(f.may_contain(k));
        }
    }

    #[test]
    fn quotient_filter_is_an_exact_fingerprint_multiset(
        ops in proptest::collection::vec((0u8..3, 0u64..200), 1..500)
    ) {
        let mut f = QuotientFilter::new(10, 6);
        let mut model: std::collections::HashMap<u64, u32> = Default::default();
        // Fingerprint geometry is stable as long as we stay under the
        // resize threshold; bail out before that.
        for &(op, k) in &ops {
            if f.load() > 0.7 {
                break;
            }
            match op {
                0 => {
                    f.insert(k);
                    *model.entry(fingerprint_of(k)).or_insert(0) += 1;
                }
                1 => {
                    let had = model.get(&fingerprint_of(k)).copied().unwrap_or(0) > 0;
                    prop_assert_eq!(f.remove(k), had);
                    if had {
                        *model.get_mut(&fingerprint_of(k)).unwrap() -= 1;
                    }
                }
                _ => {
                    let expect = model.get(&fingerprint_of(k)).copied().unwrap_or(0) > 0;
                    prop_assert_eq!(f.may_contain(k), expect);
                }
            }
        }
        let total: u32 = model.values().sum();
        prop_assert_eq!(f.len(), total as usize);
    }
}

/// The fingerprint a `QuotientFilter::new(10, 6)` assigns to `key`: the
/// top q + r = 16 bits of the crate's first hash, recomputed here.
fn fingerprint_of(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48
}
