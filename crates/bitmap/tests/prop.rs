//! Property-based tests: WAH compression is lossless and its compressed
//! operators agree with plain boolean algebra; update-friendly bitmaps
//! agree with a plain bitset under any update stream.

use proptest::prelude::*;
use rum_bitmap::{UpdateFriendlyBitmap, WahVec};

proptest! {
    #[test]
    fn wah_roundtrip_is_lossless(bits in proptest::collection::vec(any::<bool>(), 0..4000)) {
        let w = WahVec::from_bools(&bits);
        prop_assert_eq!(w.to_bools(), bits);
    }

    #[test]
    fn wah_count_matches(bits in proptest::collection::vec(any::<bool>(), 0..4000)) {
        let w = WahVec::from_bools(&bits);
        prop_assert_eq!(w.count_ones() as usize, bits.iter().filter(|&&b| b).count());
    }

    #[test]
    fn wah_ops_match_boolean_algebra(
        pair in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..3000)
    ) {
        let a: Vec<bool> = pair.iter().map(|&(x, _)| x).collect();
        let b: Vec<bool> = pair.iter().map(|&(_, y)| y).collect();
        let wa = WahVec::from_bools(&a);
        let wb = WahVec::from_bools(&b);
        let and: Vec<bool> = pair.iter().map(|&(x, y)| x && y).collect();
        let or: Vec<bool> = pair.iter().map(|&(x, y)| x || y).collect();
        let andnot: Vec<bool> = pair.iter().map(|&(x, y)| x && !y).collect();
        prop_assert_eq!(wa.and(&wb).to_bools(), and);
        prop_assert_eq!(wa.or(&wb).to_bools(), or);
        prop_assert_eq!(wa.and_not(&wb).to_bools(), andnot);
    }

    #[test]
    fn wah_runs_compress_clustered_data(
        run_lens in proptest::collection::vec(1usize..200, 1..30),
    ) {
        // Alternating all-zero / all-one runs: WAH must not exceed the
        // plain size by more than the 32/31 literal overhead.
        let mut bits = Vec::new();
        for (i, len) in run_lens.iter().enumerate() {
            bits.extend(std::iter::repeat_n(i % 2 == 1, *len));
        }
        let w = WahVec::from_bools(&bits);
        let plain_bytes = bits.len().div_ceil(8) as u64;
        prop_assert!(w.size_bytes() <= plain_bytes * 2 + 16);
        prop_assert_eq!(w.to_bools(), bits);
    }

    #[test]
    fn updatable_bitmap_matches_bitset(
        ops in proptest::collection::vec((any::<bool>(), 0u64..512), 1..400),
        threshold in 1usize..64,
    ) {
        let mut b = UpdateFriendlyBitmap::new(512, threshold);
        let mut model = vec![false; 512];
        for (set, pos) in ops {
            if set {
                b.set(pos);
                model[pos as usize] = true;
            } else {
                b.clear(pos);
                model[pos as usize] = false;
            }
        }
        for (i, &m) in model.iter().enumerate() {
            prop_assert_eq!(b.get(i as u64), m, "bit {}", i);
        }
        let expect: Vec<u64> = model
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| i as u64)
            .collect();
        prop_assert_eq!(b.ones(), expect.clone());
        prop_assert_eq!(b.materialize().ones(), expect);
    }

    #[test]
    fn wah_built_from_positions_and_grown_in_place_is_canonical(
        runs in proptest::collection::vec((any::<bool>(), 1u64..80), 0..12),
        extra in 0u64..160,
        deltas in proptest::collection::vec((any::<bool>(), any::<u64>()), 0..24),
    ) {
        // Clustered runs, so all-ones groups (fills of 1) occur as well as
        // literals and zero fills; `extra` crosses group boundaries.
        let bits: Vec<bool> = runs
            .iter()
            .flat_map(|&(b, len)| std::iter::repeat_n(b, len as usize))
            .collect();
        let n = bits.len() as u64;
        let grown = n + extra;
        let ones: Vec<u64> = (0..n).filter(|&i| bits[i as usize]).collect();

        let w = WahVec::from_positions(&ones, n);
        prop_assert_eq!(&w, &WahVec::from_bools(&bits));
        prop_assert_eq!(w.iter_ones().collect::<Vec<_>>(), ones.clone());
        let mut g = w.clone();
        g.grow_zeros(grown);
        prop_assert_eq!(&g, &WahVec::from_positions(&ones, grown));

        // `grow` with deltas pending: the footprint is the rebuilt base's
        // plus the deltas', and the bits read through are unchanged.
        let mut b = UpdateFriendlyBitmap::from_base(w, usize::MAX);
        let mut model = bits.clone();
        for &(set, pos) in deltas.iter().filter(|_| n > 0) {
            let pos = pos % n;
            if set {
                b.set(pos);
            } else {
                b.clear(pos);
            }
            model[pos as usize] = set;
        }
        b.grow(grown);
        let rebuilt = WahVec::from_positions(&ones, grown).size_bytes();
        prop_assert_eq!(b.size_bytes(), rebuilt + 8 * b.delta_len() as u64);
        let expect: Vec<u64> = (0..n).filter(|&i| model[i as usize]).collect();
        prop_assert_eq!(b.count_ones(), expect.len() as u64);
        prop_assert_eq!(b.ones(), expect);
    }
}
