//! The §5 roadmap item, realized: "Update-friendly bitmap indexes, where
//! updates are absorbed using additional, highly compressible, bitvectors
//! which are gradually merged."
//!
//! A compressed, immutable base bitmap absorbs updates through two small
//! delta sets (bits turned on, bits turned off). Reads merge base and
//! deltas on the fly; once the deltas grow past a threshold they are
//! folded into a fresh compressed base. The RUM consequences are explicit:
//! updates become O(1) (UO ↓), reads pay a merge (RO ↑ slightly), and the
//! deltas cost extra space until merged (MO ↑ slightly).

use std::collections::BTreeSet;

use crate::wah::WahVec;

/// A WAH base bitmap plus set/clear deltas.
#[derive(Clone, Debug)]
pub struct UpdateFriendlyBitmap {
    base: WahVec,
    set_delta: BTreeSet<u64>,
    clear_delta: BTreeSet<u64>,
    n_bits: u64,
    merge_threshold: usize,
    merges: u64,
}

impl UpdateFriendlyBitmap {
    /// Empty bitmap of `n_bits`, merging deltas once they exceed
    /// `merge_threshold` entries.
    pub fn new(n_bits: u64, merge_threshold: usize) -> Self {
        UpdateFriendlyBitmap {
            base: WahVec::zeros(n_bits),
            set_delta: BTreeSet::new(),
            clear_delta: BTreeSet::new(),
            n_bits,
            merge_threshold: merge_threshold.max(1),
            merges: 0,
        }
    }

    /// Wrap an existing compressed bitmap.
    pub fn from_base(base: WahVec, merge_threshold: usize) -> Self {
        let n_bits = base.len_bits();
        UpdateFriendlyBitmap {
            base,
            set_delta: BTreeSet::new(),
            clear_delta: BTreeSet::new(),
            n_bits,
            merge_threshold: merge_threshold.max(1),
            merges: 0,
        }
    }

    /// Times the deltas have been folded into the base.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Pending delta entries (diagnostic).
    pub fn delta_len(&self) -> usize {
        self.set_delta.len() + self.clear_delta.len()
    }

    /// Total footprint: compressed base + delta entries.
    pub fn size_bytes(&self) -> u64 {
        self.base.size_bytes() + (self.delta_len() * 8) as u64
    }

    /// Grow the logical domain to at least `n_bits` (zero-filled). The
    /// base grows in place ([`WahVec::grow_zeros`]); its words, and so
    /// [`size_bytes`](Self::size_bytes), are what a rebuild would give.
    pub fn grow(&mut self, n_bits: u64) {
        if n_bits <= self.n_bits {
            return;
        }
        self.base.grow_zeros(n_bits);
        self.n_bits = n_bits;
    }

    /// Set bit `pos` — O(log delta), no touch of the compressed base.
    pub fn set(&mut self, pos: u64) {
        debug_assert!(pos < self.n_bits);
        self.clear_delta.remove(&pos);
        self.set_delta.insert(pos);
        self.maybe_merge();
    }

    /// Clear bit `pos`.
    pub fn clear(&mut self, pos: u64) {
        debug_assert!(pos < self.n_bits);
        self.set_delta.remove(&pos);
        self.clear_delta.insert(pos);
        self.maybe_merge();
    }

    /// Read bit `pos` through the deltas.
    pub fn get(&self, pos: u64) -> bool {
        if self.set_delta.contains(&pos) {
            return true;
        }
        if self.clear_delta.contains(&pos) {
            return false;
        }
        self.base.get(pos)
    }

    /// All set bits, ascending, with deltas applied.
    pub fn ones(&self) -> Vec<u64> {
        self.iter_ones().collect()
    }

    /// [`ones`](Self::ones) without collecting: the base's set bits, minus
    /// `clear_delta`, merged with the sorted `set_delta`.
    pub fn iter_ones(&self) -> impl Iterator<Item = u64> + '_ {
        let mut base = self
            .base
            .iter_ones()
            .filter(|p| !self.clear_delta.contains(p))
            .peekable();
        let mut set = self.set_delta.iter().copied().peekable();
        std::iter::from_fn(move || match (base.peek(), set.peek()) {
            (Some(&b), Some(&s)) if s < b => set.next(),
            (Some(&b), Some(&s)) => {
                if s == b {
                    set.next();
                }
                base.next()
            }
            (Some(_), None) => base.next(),
            (None, _) => set.next(),
        })
    }

    pub fn count_ones(&self) -> u64 {
        self.iter_ones().count() as u64
    }

    /// Materialize the merged view as a compressed bitmap.
    pub fn materialize(&self) -> WahVec {
        let set: Vec<u64> = self.set_delta.iter().copied().collect();
        let clear: Vec<u64> = self.clear_delta.iter().copied().collect();
        let set_w = WahVec::from_positions(&set, self.n_bits);
        let clear_w = WahVec::from_positions(&clear, self.n_bits);
        self.base.or(&set_w).and_not(&clear_w)
    }

    /// Fold deltas into the base now.
    pub fn merge(&mut self) {
        if self.delta_len() == 0 {
            return;
        }
        self.base = self.materialize();
        self.set_delta.clear();
        self.clear_delta.clear();
        self.merges += 1;
    }

    fn maybe_merge(&mut self) {
        if self.delta_len() > self.merge_threshold {
            self.merge();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = UpdateFriendlyBitmap::new(1000, 64);
        b.set(5);
        b.set(999);
        assert!(b.get(5));
        assert!(b.get(999));
        assert!(!b.get(6));
        b.clear(5);
        assert!(!b.get(5));
        assert_eq!(b.ones(), vec![999]);
    }

    #[test]
    fn deltas_merge_at_threshold() {
        let mut b = UpdateFriendlyBitmap::new(10_000, 10);
        for i in 0..10 {
            b.set(i * 7);
        }
        assert_eq!(b.merges(), 0);
        b.set(77);
        assert_eq!(b.merges(), 1);
        assert_eq!(b.delta_len(), 0);
        assert_eq!(b.count_ones(), 11);
    }

    #[test]
    fn matches_plain_bitset_model() {
        let mut rng = StdRng::seed_from_u64(21);
        let n = 5000u64;
        let mut b = UpdateFriendlyBitmap::new(n, 50);
        let mut model = vec![false; n as usize];
        for _ in 0..20_000 {
            let pos = rng.gen_range(0..n);
            if rng.gen_bool(0.5) {
                b.set(pos);
                model[pos as usize] = true;
            } else {
                b.clear(pos);
                model[pos as usize] = false;
            }
        }
        for (i, &m) in model.iter().enumerate() {
            assert_eq!(b.get(i as u64), m, "bit {i}");
        }
        let expect: Vec<u64> = model
            .iter()
            .enumerate()
            .filter(|(_, &m)| m)
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(b.ones(), expect);
        assert_eq!(b.materialize().ones(), expect);
    }

    #[test]
    fn updates_do_not_touch_base_until_merge() {
        let base = WahVec::from_positions(&(0..1000u64).step_by(3).collect::<Vec<_>>(), 10_000);
        let base_size = base.size_bytes();
        let mut b = UpdateFriendlyBitmap::from_base(base, 1_000_000);
        for i in 5000..5100u64 {
            b.set(i);
        }
        // Base untouched, deltas carry the updates.
        assert_eq!(b.delta_len(), 100);
        assert!(b.size_bytes() > base_size);
        b.merge();
        assert_eq!(b.delta_len(), 0);
        assert!(b.get(5050));
        assert!(b.get(3));
    }

    #[test]
    fn grow_preserves_contents() {
        let mut b = UpdateFriendlyBitmap::new(100, 8);
        b.set(50);
        b.merge();
        b.grow(1000);
        assert!(b.get(50));
        b.set(999);
        assert_eq!(b.ones(), vec![50, 999]);
    }

    #[test]
    fn set_then_clear_cancels_in_delta() {
        let mut b = UpdateFriendlyBitmap::new(100, 1000);
        b.set(7);
        b.clear(7);
        assert!(!b.get(7));
        // Both directions tracked without duplication.
        assert_eq!(b.delta_len(), 1);
        b.set(7);
        assert!(b.get(7));
        assert_eq!(b.delta_len(), 1);
    }
}
