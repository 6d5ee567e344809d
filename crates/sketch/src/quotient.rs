//! A quotient filter (Bender et al.'s formulation of Cleary's compact hash
//! table) — the §5 roadmap's updatable probabilistic structure:
//! "Approximate (tree) indexing that supports updates ... by absorbing them
//! in updatable probabilistic data structures (like quotient filters)."
//!
//! Unlike a Bloom filter, a quotient filter supports **deletion** and
//! **resizing**, because it stores the fingerprints themselves: a p-bit
//! fingerprint splits into a q-bit *quotient* (the canonical slot) and an
//! r-bit *remainder* (stored in the slot). Collision resolution is linear
//! probing with three metadata bits per slot (`occupied`, `continuation`,
//! `shifted`) that preserve enough structure to recover every fingerprint
//! exactly — the filter behaves as an exact multiset of p-bit
//! fingerprints, with false positives only from fingerprint collisions.

use crate::hash1;

/// Grow when entries exceed this fraction of slots.
const MAX_LOAD: f64 = 0.75;

/// The quotient filter.
#[derive(Clone, Debug)]
pub struct QuotientFilter {
    qbits: u32,
    rbits: u32,
    remainders: Vec<u64>,
    occupied: Vec<bool>,
    continuation: Vec<bool>,
    shifted: Vec<bool>,
    entries: usize,
}

impl QuotientFilter {
    /// Filter with `2^qbits` slots and `rbits`-bit remainders. The
    /// fingerprint is `qbits + rbits` bits; false-positive rate is about
    /// `2^-rbits × load`.
    pub fn new(qbits: u32, rbits: u32) -> Self {
        assert!(qbits >= 3 && rbits >= 2, "need qbits >= 3 and rbits >= 2");
        assert!(qbits + rbits <= 60, "fingerprint must fit in 60 bits");
        let slots = 1usize << qbits;
        QuotientFilter {
            qbits,
            rbits,
            remainders: vec![0; slots],
            occupied: vec![false; slots],
            continuation: vec![false; slots],
            shifted: vec![false; slots],
            entries: 0,
        }
    }

    /// Filter sized for `expected` keys with ~`2^-rbits` false positives.
    pub fn with_capacity(expected: usize, rbits: u32) -> Self {
        let qbits = (expected.max(8) as f64 / MAX_LOAD).log2().ceil().max(3.0) as u32;
        Self::new(qbits, rbits)
    }

    pub fn len(&self) -> usize {
        self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    pub fn slots(&self) -> usize {
        1 << self.qbits
    }

    /// Remainder bits stored per slot. A probe touches one `(rbits + 3)`-bit
    /// slot cluster, which is what a caller pricing probes in bytes needs.
    pub fn rbits(&self) -> u32 {
        self.rbits
    }

    pub fn load(&self) -> f64 {
        self.entries as f64 / self.slots() as f64
    }

    /// Logical size in bytes: `(r + 3)` bits per slot, as a bit-packed
    /// implementation would use.
    pub fn size_bytes(&self) -> u64 {
        ((self.slots() as u64) * (self.rbits as u64 + 3)).div_ceil(8)
    }

    #[inline]
    fn fingerprint(&self, key: u64) -> u64 {
        hash1(key) >> (64 - (self.qbits + self.rbits))
    }

    #[inline]
    fn quot(&self, f: u64) -> usize {
        (f >> self.rbits) as usize
    }

    #[inline]
    fn rem(&self, f: u64) -> u64 {
        f & ((1u64 << self.rbits) - 1)
    }

    #[inline]
    fn inc(&self, i: usize) -> usize {
        (i + 1) & (self.slots() - 1)
    }

    #[inline]
    fn dec(&self, i: usize) -> usize {
        (i + self.slots() - 1) & (self.slots() - 1)
    }

    #[inline]
    fn slot_empty(&self, i: usize) -> bool {
        !self.occupied[i] && !self.continuation[i] && !self.shifted[i]
    }

    /// Start position of the run for canonical slot `fq`
    /// (requires `occupied[fq]`).
    fn find_run_start(&self, fq: usize) -> usize {
        debug_assert!(self.occupied[fq]);
        // Walk left to the cluster start.
        let mut b = fq;
        while self.shifted[b] {
            b = self.dec(b);
        }
        // Walk runs forward until we reach fq's run.
        let mut s = b;
        let mut q = b;
        while q != fq {
            // Skip the current run.
            loop {
                s = self.inc(s);
                if !self.continuation[s] {
                    break;
                }
            }
            // Next occupied canonical slot.
            loop {
                q = self.inc(q);
                if self.occupied[q] {
                    break;
                }
            }
        }
        s
    }

    /// Insert `(r, cont)` at `pos` (canonical slot `fq`), rippling
    /// displaced entries right. `fix_displaced_head` demotes the entry
    /// previously at `pos` to a continuation (used when the new entry
    /// becomes its run's head).
    fn shift_insert(
        &mut self,
        fq: usize,
        pos: usize,
        r: u64,
        cont: bool,
        fix_displaced_head: bool,
    ) {
        let mut i = pos;
        let mut r_cur = r;
        let mut c_cur = cont;
        let mut s_cur = pos != fq;
        loop {
            let was_empty = self.slot_empty(i);
            let old = (self.remainders[i], self.continuation[i]);
            self.remainders[i] = r_cur;
            self.continuation[i] = c_cur;
            self.shifted[i] = s_cur;
            if was_empty {
                self.entries += 1;
                return;
            }
            r_cur = old.0;
            c_cur = if i == pos && fix_displaced_head {
                true
            } else {
                old.1
            };
            s_cur = true;
            i = self.inc(i);
        }
    }

    /// Insert a key (multiset semantics: duplicates accumulate).
    pub fn insert(&mut self, key: u64) {
        if self.load() >= MAX_LOAD {
            self.grow();
        }
        let f = self.fingerprint(key);
        self.insert_fingerprint(f);
    }

    fn insert_fingerprint(&mut self, f: u64) {
        let fq = self.quot(f);
        let fr = self.rem(f);
        if self.slot_empty(fq) && !self.occupied[fq] {
            self.remainders[fq] = fr;
            self.occupied[fq] = true;
            self.entries += 1;
            return;
        }
        let was_occupied = self.occupied[fq];
        self.occupied[fq] = true;
        let run_start = self.find_run_start(fq);
        if was_occupied {
            // Keep remainders sorted within the run.
            let mut p = run_start;
            let mut found_ge = false;
            loop {
                if self.remainders[p] >= fr {
                    found_ge = true;
                    break;
                }
                let n = self.inc(p);
                if !self.continuation[n] {
                    p = n; // one past the run's last entry
                    break;
                }
                p = n;
            }
            if found_ge {
                self.shift_insert(fq, p, fr, p != run_start, true);
            } else {
                self.shift_insert(fq, p, fr, true, false);
            }
        } else {
            self.shift_insert(fq, run_start, fr, false, false);
        }
    }

    /// Whether `key` *may* be present. `false` is authoritative.
    pub fn may_contain(&self, key: u64) -> bool {
        let f = self.fingerprint(key);
        let fq = self.quot(f);
        let fr = self.rem(f);
        if !self.occupied[fq] {
            return false;
        }
        let mut p = self.find_run_start(fq);
        loop {
            match self.remainders[p].cmp(&fr) {
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Greater => return false, // sorted runs
                std::cmp::Ordering::Less => {}
            }
            p = self.inc(p);
            if !self.continuation[p] {
                return false;
            }
        }
    }

    /// Remove one occurrence of `key`. Returns whether a matching
    /// fingerprint was found. Only delete keys that were inserted —
    /// deleting a colliding fingerprint of a different key removes that
    /// fingerprint (the standard quotient-filter caveat).
    pub fn remove(&mut self, key: u64) -> bool {
        let f = self.fingerprint(key);
        let fq = self.quot(f);
        let fr = self.rem(f);
        if !self.occupied[fq] {
            return false;
        }
        let run_start = self.find_run_start(fq);
        // Locate the fingerprint within the (sorted) run.
        let mut p = run_start;
        loop {
            match self.remainders[p].cmp(&fr) {
                std::cmp::Ordering::Equal => break,
                std::cmp::Ordering::Greater => return false,
                std::cmp::Ordering::Less => {
                    let n = self.inc(p);
                    if !self.continuation[n] {
                        return false;
                    }
                    p = n;
                }
            }
        }
        let deleting_head = p == run_start;
        let after = self.inc(p);
        let run_survives = !self.slot_empty(after) && self.continuation[after];
        if deleting_head && !run_survives {
            self.occupied[fq] = false;
        }
        // Shift the rest of the cluster left.
        let mut curr_q = fq;
        let mut i = p;
        loop {
            let n = self.inc(i);
            if self.slot_empty(n) || !self.shifted[n] {
                self.remainders[i] = 0;
                self.continuation[i] = false;
                self.shifted[i] = false;
                break;
            }
            let mut c = self.continuation[n];
            if !c {
                // `n` heads the next run: advance to its quotient.
                loop {
                    curr_q = self.inc(curr_q);
                    if self.occupied[curr_q] {
                        break;
                    }
                }
            }
            if i == p && deleting_head && c {
                c = false; // promote the second element to run head
            }
            self.remainders[i] = self.remainders[n];
            self.continuation[i] = c;
            self.shifted[i] = i != curr_q;
            i = n;
        }
        self.entries -= 1;
        true
    }

    /// Every stored fingerprint (quotient ‖ remainder), in no particular
    /// order. Exact: this is what makes the filter resizable and mergeable.
    pub fn fingerprints(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.entries);
        for q in 0..self.slots() {
            if !self.occupied[q] {
                continue;
            }
            let mut p = self.find_run_start(q);
            loop {
                out.push(((q as u64) << self.rbits) | self.remainders[p]);
                p = self.inc(p);
                if !self.continuation[p] {
                    break;
                }
            }
        }
        out
    }

    /// Double the slot count by moving one fingerprint bit from the
    /// remainder to the quotient (the fingerprint itself is unchanged, so
    /// no rehashing of keys is needed).
    fn grow(&mut self) {
        assert!(self.rbits > 2, "cannot grow: remainder bits exhausted");
        let fps = self.fingerprints();
        let mut bigger = QuotientFilter::new(self.qbits + 1, self.rbits - 1);
        for f in fps {
            bigger.insert_fingerprint(f);
        }
        *self = bigger;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn no_false_negatives() {
        let mut f = QuotientFilter::new(12, 8);
        for k in 0..2000u64 {
            f.insert(k);
        }
        for k in 0..2000u64 {
            assert!(f.may_contain(k), "false negative for {k}");
        }
        assert_eq!(f.len(), 2000);
    }

    #[test]
    fn false_positive_rate_tracks_rbits() {
        let rate = |rbits: u32| {
            let mut f = QuotientFilter::new(13, rbits);
            for k in 0..4000u64 {
                f.insert(k);
            }
            (1_000_000..1_050_000u64)
                .filter(|&k| f.may_contain(k))
                .count() as f64
                / 50_000.0
        };
        let r4 = rate(4);
        let r12 = rate(12);
        assert!(r12 < r4 / 4.0, "r4={r4} r12={r12}");
        assert!(r12 < 0.01);
    }

    #[test]
    fn deletion_really_deletes() {
        let mut f = QuotientFilter::new(10, 10);
        for k in 0..500u64 {
            f.insert(k);
        }
        for k in (0..500u64).step_by(2) {
            assert!(f.remove(k), "remove {k}");
        }
        assert_eq!(f.len(), 250);
        for k in (1..500u64).step_by(2) {
            assert!(f.may_contain(k), "survivor {k} lost");
        }
        let false_pos = (0..500u64).step_by(2).filter(|&k| f.may_contain(k)).count();
        // Deleted keys should now miss (up to fingerprint collisions).
        assert!(false_pos < 10, "{false_pos} deleted keys still positive");
    }

    #[test]
    fn remove_of_absent_key_is_false() {
        let mut f = QuotientFilter::new(8, 8);
        f.insert(5);
        assert!(!f.remove(6));
        assert!(f.remove(5));
        assert!(!f.remove(5));
        assert!(f.is_empty());
    }

    #[test]
    fn grows_transparently() {
        let mut f = QuotientFilter::new(6, 12); // 64 slots
        for k in 0..5000u64 {
            f.insert(k);
        }
        assert_eq!(f.len(), 5000);
        assert!(f.slots() >= 5000);
        for k in (0..5000u64).step_by(37) {
            assert!(f.may_contain(k));
        }
    }

    #[test]
    fn behaves_exactly_like_a_fingerprint_multiset() {
        // The QF is an exact multiset of fingerprints; model it as such.
        let mut f = QuotientFilter::new(10, 6);
        let mut model: std::collections::HashMap<u64, u32> = Default::default();
        let mut rng = StdRng::seed_from_u64(77);
        let fp = |qf: &QuotientFilter, k: u64| qf.fingerprint(k);
        for _ in 0..30_000 {
            let k = rng.gen_range(0..800u64);
            match rng.gen_range(0..3) {
                0 => {
                    // Track against the *current* geometry: skip model ops
                    // across grows by keeping load below the threshold.
                    if f.load() < 0.70 {
                        f.insert(k);
                        *model.entry(fp(&f, k)).or_insert(0) += 1;
                    }
                }
                1 => {
                    let had = model.get(&fp(&f, k)).copied().unwrap_or(0) > 0;
                    assert_eq!(f.remove(k), had, "remove {k}");
                    if had {
                        *model.get_mut(&fp(&f, k)).unwrap() -= 1;
                    }
                }
                _ => {
                    let expect = model.get(&fp(&f, k)).copied().unwrap_or(0) > 0;
                    assert_eq!(f.may_contain(k), expect, "contains {k}");
                }
            }
            let model_count: u32 = model.values().sum();
            assert_eq!(f.len(), model_count as usize);
        }
    }

    #[test]
    fn fingerprints_roundtrip() {
        let mut f = QuotientFilter::new(9, 9);
        let keys: Vec<u64> = (0..300).map(|i| i * 977).collect();
        for &k in &keys {
            f.insert(k);
        }
        let mut got = f.fingerprints();
        got.sort_unstable();
        let mut expect: Vec<u64> = keys.iter().map(|&k| f.fingerprint(k)).collect();
        expect.sort_unstable();
        // Fingerprints may collide; compare as multisets.
        assert_eq!(got, expect);
    }

    #[test]
    fn duplicates_accumulate_and_delete_one_at_a_time() {
        let mut f = QuotientFilter::new(8, 8);
        f.insert(42);
        f.insert(42);
        assert_eq!(f.len(), 2);
        assert!(f.remove(42));
        assert!(f.may_contain(42));
        assert!(f.remove(42));
        assert!(!f.may_contain(42));
    }

    #[test]
    fn size_is_compact() {
        let f = QuotientFilter::new(10, 8);
        // 1024 slots × 11 bits = 1408 bytes.
        assert_eq!(f.size_bytes(), 1408);
    }

    #[test]
    fn heavy_clustering_stress() {
        // Keys engineered to collide into few quotients, maximizing shifts.
        let mut f = QuotientFilter::new(8, 16);
        let mut inserted = Vec::new();
        let mut rng = StdRng::seed_from_u64(123);
        for _ in 0..150 {
            let k: u64 = rng.gen_range(0..400);
            f.insert(k);
            inserted.push(k);
        }
        for &k in &inserted {
            assert!(f.may_contain(k));
        }
        // Delete everything in random order.
        use rand::seq::SliceRandom;
        inserted.shuffle(&mut rng);
        for &k in &inserted {
            assert!(f.remove(k), "remove {k}");
        }
        assert!(f.is_empty());
        assert!(f.fingerprints().is_empty());
    }
}

#[cfg(test)]
mod fpr {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn false_positive_rate_matches_theory_at_small_rbits() {
        // FPR ≈ load × 2^-rbits; at load 0.5 and r = 3 that is ~6.25%.
        let mut f = QuotientFilter::with_capacity(1024, 3);
        for k in 0..1024u64 {
            f.insert(k * 2);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let fp = (0..100_000)
            .filter(|_| f.may_contain(rng.gen::<u64>()))
            .count();
        let rate = fp as f64 / 100_000.0;
        assert!((rate - 0.0625).abs() < 0.02, "fpr {rate} far from theory");
    }
}
