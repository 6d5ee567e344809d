//! Word-Aligned Hybrid (WAH) bitmap compression (Wu et al., FastBit).
//!
//! The bit stream is chopped into 31-bit groups. Each 32-bit output word
//! is either a *literal* (MSB = 0, 31 payload bits) or a *fill*
//! (MSB = 1, bit 30 = fill value, low 30 bits = run length in groups).
//! Sparse and clustered bitmaps compress by orders of magnitude, and
//! logical operations run directly on the compressed form — computation
//! traded for space, the paper's recurring theme.

/// Bits per group.
const GROUP_BITS: u32 = 31;
const LITERAL_MASK: u32 = (1 << GROUP_BITS) - 1;
const FILL_FLAG: u32 = 1 << 31;
const FILL_VALUE: u32 = 1 << 30;
const MAX_RUN: u32 = (1 << 30) - 1;

/// A WAH-compressed bitmap.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WahVec {
    words: Vec<u32>,
    /// Logical length in bits.
    n_bits: u64,
}

/// One decoded run: `count` consecutive groups, each equal to `group`.
#[derive(Clone, Copy, Debug)]
struct Run {
    group: u32,
    count: u32,
}

struct RunCursor<'a> {
    words: &'a [u32],
    idx: usize,
    /// Remaining groups in the current fill word.
    pending: Option<Run>,
}

impl<'a> RunCursor<'a> {
    fn new(words: &'a [u32]) -> Self {
        RunCursor {
            words,
            idx: 0,
            pending: None,
        }
    }

    /// Next run (fills come out whole; literals as count = 1).
    fn next_run(&mut self) -> Option<Run> {
        if let Some(r) = self.pending.take() {
            return Some(r);
        }
        let w = *self.words.get(self.idx)?;
        self.idx += 1;
        if w & FILL_FLAG != 0 {
            let group = if w & FILL_VALUE != 0 { LITERAL_MASK } else { 0 };
            Some(Run {
                group,
                count: w & MAX_RUN,
            })
        } else {
            Some(Run { group: w, count: 1 })
        }
    }
}

/// Iterator over a [`WahVec`]'s set-bit positions, ascending
/// ([`WahVec::iter_ones`]). Zero fills are skipped whole.
pub struct Ones<'a> {
    cursor: RunCursor<'a>,
    /// The current run's group and how many of its groups are unstarted.
    group: u32,
    left: u32,
    /// Position of the next unstarted group's bit 0.
    next_base: u64,
    /// Unvisited set bits of the group at `base`.
    bits: u32,
    base: u64,
    n_bits: u64,
}

impl Iterator for Ones<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            if self.bits != 0 {
                let pos = self.base + self.bits.trailing_zeros() as u64;
                self.bits &= self.bits - 1;
                if pos < self.n_bits {
                    return Some(pos);
                }
                continue;
            }
            if self.left == 0 {
                let r = self.cursor.next_run()?;
                if r.group == 0 {
                    self.next_base += GROUP_BITS as u64 * r.count as u64;
                    continue;
                }
                self.group = r.group;
                self.left = r.count;
            }
            self.base = self.next_base;
            self.next_base += GROUP_BITS as u64;
            self.bits = self.group;
            self.left -= 1;
        }
    }
}

impl WahVec {
    /// An empty bitmap of `n_bits` logical zero bits.
    pub fn zeros(n_bits: u64) -> Self {
        let mut v = WahVec::default();
        v.grow_zeros(n_bits);
        v
    }

    /// Extend the logical length to `n_bits` with zero bits, appending
    /// zero groups to the words as they stand. Bits past the old length
    /// are already zero, and the words are canonical (a literal is never
    /// 0 or all-ones, and fills merge greedily), so the result is word for
    /// word what compressing the grown bit stream afresh would give.
    pub fn grow_zeros(&mut self, n_bits: u64) {
        if n_bits <= self.n_bits {
            return;
        }
        let groups = |bits: u64| bits.div_ceil(GROUP_BITS as u64);
        self.push_zero_groups(groups(n_bits) - groups(self.n_bits));
        self.n_bits = n_bits;
    }

    /// Append `groups` zero groups (any count; fills split at `MAX_RUN`).
    fn push_zero_groups(&mut self, mut groups: u64) {
        while groups > 0 {
            let chunk = groups.min(MAX_RUN as u64) as u32;
            self.push_run(0, chunk);
            groups -= chunk as u64;
        }
    }

    /// Compress a plain bit slice (`bits[i]` = bit `i`).
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = WahVec {
            words: Vec::new(),
            n_bits: bits.len() as u64,
        };
        for chunk in bits.chunks(GROUP_BITS as usize) {
            let mut g = 0u32;
            for (i, &b) in chunk.iter().enumerate() {
                if b {
                    g |= 1 << i;
                }
            }
            v.push_run(g, 1);
        }
        v
    }

    /// Compress from set-bit positions (must be sorted ascending, unique,
    /// and below `n_bits`). Groups are built straight from the positions,
    /// with one zero fill between set groups: the same words as
    /// [`from_bools`](Self::from_bools) on the expanded bits, without
    /// expanding them.
    pub fn from_positions(positions: &[u64], n_bits: u64) -> Self {
        let mut v = WahVec {
            words: Vec::new(),
            n_bits,
        };
        // Groups pushed so far.
        let mut done = 0u64;
        let mut rest = positions;
        while let Some(&first) = rest.first() {
            debug_assert!(first < n_bits, "position {first} past {n_bits} bits");
            let group_idx = first / GROUP_BITS as u64;
            let base = group_idx * GROUP_BITS as u64;
            let in_group = rest.partition_point(|&p| p < base + GROUP_BITS as u64);
            let group = rest[..in_group]
                .iter()
                .fold(0u32, |g, &p| g | 1 << (p - base));
            v.push_zero_groups(group_idx - done);
            v.push_run(group, 1);
            done = group_idx + 1;
            rest = &rest[in_group..];
        }
        v.push_zero_groups(n_bits.div_ceil(GROUP_BITS as u64) - done);
        v
    }

    /// Logical bit length.
    pub fn len_bits(&self) -> u64 {
        self.n_bits
    }

    /// Compressed size in bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.words.len() * 4 + 8) as u64
    }

    /// Append `count` groups equal to `group`, merging runs.
    fn push_run(&mut self, group: u32, mut count: u32) {
        if count == 0 {
            return;
        }
        let is_fill = group == 0 || group == LITERAL_MASK;
        if is_fill {
            // Merge with a preceding fill of the same value.
            if let Some(&last) = self.words.last() {
                if last & FILL_FLAG != 0 {
                    let last_val = last & FILL_VALUE != 0;
                    let this_val = group == LITERAL_MASK;
                    if last_val == this_val {
                        let have = last & MAX_RUN;
                        let add = count.min(MAX_RUN - have);
                        if add > 0 {
                            *self.words.last_mut().unwrap() = (last & !MAX_RUN) | (have + add);
                            count -= add;
                        }
                    }
                } else if last == group && count < MAX_RUN {
                    // Previous literal equals this fill value: coalesce.
                    self.words.pop();
                    count += 1;
                }
            }
            while count > 0 {
                let chunk = count.min(MAX_RUN);
                let mut w = FILL_FLAG | chunk;
                if group == LITERAL_MASK {
                    w |= FILL_VALUE;
                }
                self.words.push(w);
                count -= chunk;
            }
        } else {
            for _ in 0..count {
                self.words.push(group);
            }
        }
    }

    /// Pointwise combine with another bitmap of the same logical length.
    fn combine(&self, other: &WahVec, f: impl Fn(u32, u32) -> u32) -> WahVec {
        assert_eq!(
            self.n_bits, other.n_bits,
            "combining bitmaps of different lengths"
        );
        let mut out = WahVec {
            words: Vec::new(),
            n_bits: self.n_bits,
        };
        let mut a = RunCursor::new(&self.words);
        let mut b = RunCursor::new(&other.words);
        let mut ra = a.next_run();
        let mut rb = b.next_run();
        while let (Some(x), Some(y)) = (ra, rb) {
            let take = x.count.min(y.count);
            out.push_run(f(x.group, y.group) & LITERAL_MASK, take);
            ra = if x.count > take {
                Some(Run {
                    group: x.group,
                    count: x.count - take,
                })
            } else {
                a.next_run()
            };
            rb = if y.count > take {
                Some(Run {
                    group: y.group,
                    count: y.count - take,
                })
            } else {
                b.next_run()
            };
        }
        out
    }

    /// Bitwise OR on the compressed form.
    pub fn or(&self, other: &WahVec) -> WahVec {
        self.combine(other, |x, y| x | y)
    }

    /// Bitwise AND on the compressed form.
    pub fn and(&self, other: &WahVec) -> WahVec {
        self.combine(other, |x, y| x & y)
    }

    /// Bitwise AND-NOT (`self & !other`).
    pub fn and_not(&self, other: &WahVec) -> WahVec {
        self.combine(other, |x, y| x & !y)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        let mut cursor = RunCursor::new(&self.words);
        let mut total = 0u64;
        while let Some(r) = cursor.next_run() {
            total += r.group.count_ones() as u64 * r.count as u64;
        }
        total
    }

    /// Positions of set bits, ascending.
    pub fn ones(&self) -> Vec<u64> {
        self.iter_ones().collect()
    }

    /// Positions of set bits, ascending, decoded as they are walked.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            cursor: RunCursor::new(&self.words),
            group: 0,
            left: 0,
            next_base: 0,
            bits: 0,
            base: 0,
            n_bits: self.n_bits,
        }
    }

    /// Random access to one bit (O(words) scan — use [`ones`] for bulk).
    ///
    /// [`ones`]: WahVec::ones
    pub fn get(&self, pos: u64) -> bool {
        debug_assert!(pos < self.n_bits);
        let target_group = pos / GROUP_BITS as u64;
        let bit = (pos % GROUP_BITS as u64) as u32;
        let mut cursor = RunCursor::new(&self.words);
        let mut group_idx = 0u64;
        while let Some(r) = cursor.next_run() {
            if target_group < group_idx + r.count as u64 {
                return r.group & (1 << bit) != 0;
            }
            group_idx += r.count as u64;
        }
        false
    }

    /// Decompress to a bool vector (for tests and merging).
    pub fn to_bools(&self) -> Vec<bool> {
        let mut out = vec![false; self.n_bits as usize];
        for p in self.ones() {
            out[p as usize] = true;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_bools(n: usize, density: f64, seed: u64) -> Vec<bool> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen::<f64>() < density).collect()
    }

    #[test]
    fn roundtrip_exact() {
        for density in [0.0, 0.001, 0.1, 0.5, 0.999, 1.0] {
            for n in [0usize, 1, 30, 31, 32, 62, 63, 1000, 10_000] {
                let bits = random_bools(n, density, 42);
                let w = WahVec::from_bools(&bits);
                assert_eq!(w.to_bools(), bits, "n={n} density={density}");
            }
        }
    }

    #[test]
    fn zeros_is_empty() {
        let w = WahVec::zeros(100_000);
        assert_eq!(w.count_ones(), 0);
        assert!(w.ones().is_empty());
        assert!(!w.get(99_999));
        // A hundred thousand zero bits fit in a couple of words.
        assert!(w.size_bytes() < 32, "{} bytes", w.size_bytes());
    }

    #[test]
    fn sparse_bitmaps_compress_massively() {
        let n = 1_000_000usize;
        let mut bits = vec![false; n];
        for i in (0..n).step_by(50_000) {
            bits[i] = true;
        }
        let w = WahVec::from_bools(&bits);
        let plain_bytes = n / 8;
        assert!(
            w.size_bytes() < plain_bytes as u64 / 100,
            "wah {} vs plain {plain_bytes}",
            w.size_bytes()
        );
        assert_eq!(w.count_ones(), 20);
    }

    #[test]
    fn dense_uniform_random_does_not_compress() {
        let bits = random_bools(100_000, 0.5, 7);
        let w = WahVec::from_bools(&bits);
        // ~32/31 expansion over plain is the worst case.
        assert!(w.size_bytes() as f64 <= 100_000.0 / 8.0 * 1.1);
    }

    #[test]
    fn and_or_andnot_match_reference() {
        for seed in 0..5u64 {
            let a = random_bools(5000, 0.02, seed);
            let b = random_bools(5000, 0.3, seed + 100);
            let wa = WahVec::from_bools(&a);
            let wb = WahVec::from_bools(&b);
            let and: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| x && y).collect();
            let or: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| x || y).collect();
            let andnot: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| x && !y).collect();
            assert_eq!(wa.and(&wb).to_bools(), and);
            assert_eq!(wa.or(&wb).to_bools(), or);
            assert_eq!(wa.and_not(&wb).to_bools(), andnot);
        }
    }

    #[test]
    fn ops_on_long_fills_are_compact() {
        let a = WahVec::zeros(10_000_000);
        let b = WahVec::zeros(10_000_000);
        let c = a.or(&b);
        assert!(c.size_bytes() < 32);
        assert_eq!(c.count_ones(), 0);
    }

    #[test]
    fn from_positions_matches() {
        let pos = vec![0u64, 31, 62, 63, 93, 999];
        let w = WahVec::from_positions(&pos, 1000);
        assert_eq!(w.ones(), pos);
        for &p in &pos {
            assert!(w.get(p));
        }
        assert!(!w.get(1));
        assert!(!w.get(998));
    }

    #[test]
    fn grow_zeros_matches_rebuild_past_one_fill_word() {
        // More zero groups than one fill word holds: the growth splits
        // into fills exactly as compressing the grown bits afresh does.
        let huge = GROUP_BITS as u64 * (MAX_RUN as u64 + 5);
        for pos in [vec![], vec![3u64], vec![0, 1, 2, 30, 31, 61]] {
            let mut w = WahVec::from_positions(&pos, 100);
            w.grow_zeros(huge);
            assert_eq!(w, WahVec::from_positions(&pos, huge), "{pos:?}");
            assert_eq!(w.ones(), pos);
        }
        assert_eq!(WahVec::zeros(huge).size_bytes(), 8 + 2 * 4);
    }

    #[test]
    fn get_against_reference() {
        let bits = random_bools(3000, 0.1, 9);
        let w = WahVec::from_bools(&bits);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(w.get(i as u64), b, "bit {i}");
        }
    }

    #[test]
    fn run_merging_in_push() {
        // All-ones bitmap: groups coalesce into a single fill word.
        let bits = vec![true; 31 * 1000];
        let w = WahVec::from_bools(&bits);
        assert!(w.size_bytes() <= 16, "{} bytes", w.size_bytes());
        assert_eq!(w.count_ones(), 31_000);
    }
}
