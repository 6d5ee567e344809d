//! [`KeySet`]: the exact set of live keys a method keeps as bookkeeping.
//!
//! Several methods cannot tell from their own structure whether a key is
//! live: an LSM-tree or an append log would have to read to find out, and a
//! partitioned B-tree shadows older copies. They keep a liveness oracle
//! beside the structure for `len()` and the return values of update and
//! delete. The oracle is neither charged nor counted as space, so its only
//! price is the wall clock and the heap, and both are paid on every write.
//!
//! The layout is Roaring's (Chambi, Lemire, Kaser & Godin, "Better bitmap
//! performance with Roaring bitmaps", 2016), over 64-bit keys. Keys that
//! share `key >> 16` form one chunk. A chunk of at most 4096 keys
//! is their sorted low halves, two bytes a key; a fuller one is a bitmap of
//! 2¹⁶ bits, 8 KiB. A million dense keys are then sixteen bitmaps, 128 KiB,
//! where a `HashSet<u64>` takes about 18 MiB and a cache miss per probe.
//! A key space with one key per 2¹⁶ window pays a chunk per key instead,
//! and every new chunk shifts the directory: the set is made for the dense
//! and evenly sparse key spaces the workloads draw.

use crate::types::Key;

/// Most keys an array chunk holds: 4096 low halves are 8 KiB, the size of a
/// bitmap, so an array past it would cost more than the bitmap does.
const ARRAY_MAX: usize = 4096;

/// A bitmap of 2¹⁶ bits in 16-bit words.
const BITMAP_WORDS: usize = 4096;

/// A bitmap that drains to this many keys turns back into an array. Half of
/// [`ARRAY_MAX`], so a chunk whose count swings around the limit does not
/// convert on every operation.
const ARRAY_AGAIN: u32 = (ARRAY_MAX / 2) as u32;

/// The keys that share one `key >> 16`.
#[derive(Debug, PartialEq, Eq)]
struct Chunk {
    /// `key >> 16` of every key in the chunk.
    high: u64,
    /// Keys in the chunk.
    count: u32,
    /// Whether `words` is a bitmap (bit `lo & 15` of word `lo >> 4` set iff
    /// the low half `lo` is in) rather than the ascending low halves.
    bitmap: bool,
    words: Vec<u16>,
}

/// Word and mask of low half `lo` in a bitmap.
#[inline]
fn bit(lo: u16) -> (usize, u16) {
    ((lo >> 4) as usize, 1 << (lo & 15))
}

impl Chunk {
    #[inline]
    fn contains(&self, lo: u16) -> bool {
        if self.bitmap {
            let (w, mask) = bit(lo);
            self.words[w] & mask != 0
        } else {
            self.words.binary_search(&lo).is_ok()
        }
    }

    fn insert(&mut self, lo: u16) -> bool {
        if self.bitmap {
            let (w, mask) = bit(lo);
            if self.words[w] & mask != 0 {
                return false;
            }
            self.words[w] |= mask;
        } else {
            // Ascending input (a bulk load, fresh keys) appends without a
            // search.
            let at = match self.words.last() {
                Some(&last) if last < lo => self.words.len(),
                _ => match self.words.binary_search(&lo) {
                    Ok(_) => return false,
                    Err(at) => at,
                },
            };
            if self.words.len() == ARRAY_MAX {
                self.become_bitmap();
                return self.insert(lo);
            }
            self.words.insert(at, lo);
        }
        self.count += 1;
        true
    }

    fn remove(&mut self, lo: u16) -> bool {
        if self.bitmap {
            let (w, mask) = bit(lo);
            if self.words[w] & mask == 0 {
                return false;
            }
            self.words[w] &= !mask;
            self.count -= 1;
            if self.count == ARRAY_AGAIN {
                self.become_array();
            }
        } else {
            let Ok(at) = self.words.binary_search(&lo) else {
                return false;
            };
            self.words.remove(at);
            self.count -= 1;
        }
        true
    }

    /// A full array becomes a bitmap in its own buffer: the array's 4096
    /// low halves already hold the bitmap's 8 KiB, so nothing is allocated.
    fn become_bitmap(&mut self) {
        let mut lows = [0u16; ARRAY_MAX];
        let n = self.words.len();
        lows[..n].copy_from_slice(&self.words);
        self.words.clear();
        self.words.resize(BITMAP_WORDS, 0);
        for &lo in &lows[..n] {
            let (w, mask) = bit(lo);
            self.words[w] |= mask;
        }
        self.bitmap = true;
    }

    /// A drained bitmap becomes an array again and gives back the half of
    /// its buffer the array does not need.
    fn become_array(&mut self) {
        let mut lows = [0u16; ARRAY_MAX];
        let mut n = 0;
        for (w, &word) in self.words.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                lows[n] = (w << 4) as u16 | rest.trailing_zeros() as u16;
                n += 1;
                rest &= rest - 1;
            }
        }
        self.words.clear();
        self.words.extend_from_slice(&lows[..n]);
        self.words.shrink_to_fit();
        self.bitmap = false;
    }
}

/// An exact set of [`Key`]s, laid out for memory: chunked by `key >> 16`,
/// each chunk a sorted `u16` array or a 2¹⁶-bit bitmap (see the module
/// doc).
#[derive(Debug, Default)]
pub struct KeySet {
    /// Chunks by ascending `high`, none of them empty.
    chunks: Vec<Chunk>,
    /// Buffers of chunks that emptied or were cleared, for the next chunk
    /// opened (`clear` keeps its storage, as `HashSet::clear` does).
    spare: Vec<Vec<u16>>,
    len: usize,
}

/// A key's chunk and its low half within it.
#[inline]
fn split(key: Key) -> (u64, u16) {
    (key >> 16, key as u16)
}

impl KeySet {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Where chunk `high` is, or where it would go.
    #[inline]
    fn find(&self, high: u64) -> Result<usize, usize> {
        // Dense key spaces number their chunks consecutively: the first
        // chunk's `high` predicts the slot, and a miss falls back to the
        // search.
        if let Some(first) = self.chunks.first() {
            let guess = usize::try_from(high.wrapping_sub(first.high)).unwrap_or(usize::MAX);
            if self.chunks.get(guess).is_some_and(|c| c.high == high) {
                return Ok(guess);
            }
        }
        self.chunks.binary_search_by_key(&high, |c| c.high)
    }

    /// Open an empty chunk `high` at slot `at`. A chunk opened right after a
    /// bitmap continues a dense stretch of keys (fresh keys past a bulk
    /// load do this), so it takes at once the 8 KiB its bitmap will need
    /// and never grows by steps.
    fn open(&mut self, at: usize, high: u64) {
        let dense = at > 0 && {
            let prev = &self.chunks[at - 1];
            prev.bitmap && prev.high + 1 == high
        };
        let mut words = self.spare.pop().unwrap_or_default();
        if dense {
            words.reserve_exact(BITMAP_WORDS);
        }
        self.chunks.insert(
            at,
            Chunk {
                high,
                count: 0,
                bitmap: false,
                words,
            },
        );
    }

    /// Whether `key` is in the set.
    #[inline]
    pub fn contains(&self, key: Key) -> bool {
        let (high, lo) = split(key);
        self.find(high).is_ok_and(|at| self.chunks[at].contains(lo))
    }

    /// Add `key`; whether it was absent.
    pub fn insert(&mut self, key: Key) -> bool {
        let (high, lo) = split(key);
        let at = self.find(high).unwrap_or_else(|at| {
            self.open(at, high);
            at
        });
        let fresh = self.chunks[at].insert(lo);
        self.len += fresh as usize;
        fresh
    }

    /// Drop `key`; whether it was present.
    pub fn remove(&mut self, key: Key) -> bool {
        let (high, lo) = split(key);
        let Ok(at) = self.find(high) else {
            return false;
        };
        if !self.chunks[at].remove(lo) {
            return false;
        }
        if self.chunks[at].count == 0 {
            let mut words = self.chunks.remove(at).words;
            words.clear();
            self.spare.push(words);
        }
        self.len -= 1;
        true
    }

    /// Empty the set, keeping every buffer for the chunks to come.
    pub fn clear(&mut self) {
        for chunk in self.chunks.drain(..) {
            let mut words = chunk.words;
            words.clear();
            self.spare.push(words);
        }
        self.len = 0;
    }

    /// Make the set exactly `keys`. Ascending keys (every bulk load's)
    /// build it in one pass: each lands in the last chunk or opens the next,
    /// with no search and no hashing. A key out of order takes
    /// [`insert`](Self::insert)'s path, so any order gives the same set.
    pub fn assign(&mut self, keys: impl IntoIterator<Item = Key>) {
        self.clear();
        for key in keys {
            let (high, lo) = split(key);
            let last = self.chunks.last().map(|c| c.high);
            if last.is_some_and(|h| h > high) {
                self.insert(key);
                continue;
            }
            if last != Some(high) {
                self.open(self.chunks.len(), high);
            }
            let chunk = self.chunks.last_mut().expect("opened above");
            self.len += chunk.insert(lo) as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    impl KeySet {
        /// Every key, ascending.
        fn keys(&self) -> Vec<Key> {
            let mut out = Vec::with_capacity(self.len);
            for c in &self.chunks {
                let base = c.high << 16;
                if c.bitmap {
                    out.extend(
                        (0..=u16::MAX)
                            .filter(|&lo| c.contains(lo))
                            .map(|lo| base | lo as u64),
                    );
                } else {
                    out.extend(c.words.iter().map(|&lo| base | lo as u64));
                }
            }
            out
        }

        /// Heap bytes held, spare buffers included.
        fn heap_bytes(&self) -> usize {
            let words: usize = self
                .chunks
                .iter()
                .map(|c| c.words.capacity())
                .sum::<usize>()
                + self.spare.iter().map(Vec::capacity).sum::<usize>();
            self.chunks.capacity() * std::mem::size_of::<Chunk>()
                + self.spare.capacity() * std::mem::size_of::<Vec<u16>>()
                + words * 2
        }

        /// The layout's invariants: chunks ascending and non-empty, counts
        /// exact, arrays sorted and within [`ARRAY_MAX`], bitmaps whole.
        fn check(&self) {
            assert!(self.chunks.windows(2).all(|w| w[0].high < w[1].high));
            for c in &self.chunks {
                assert!(c.count > 0, "empty chunk {}", c.high);
                if c.bitmap {
                    assert_eq!(c.words.len(), BITMAP_WORDS);
                    let ones: u32 = c.words.iter().map(|w| w.count_ones()).sum();
                    assert_eq!(ones, c.count);
                    assert!(c.count > ARRAY_AGAIN);
                } else {
                    assert_eq!(c.words.len(), c.count as usize);
                    assert!(c.words.len() <= ARRAY_MAX);
                    assert!(c.words.windows(2).all(|w| w[0] < w[1]));
                }
            }
            assert_eq!(
                self.chunks.iter().map(|c| c.count as usize).sum::<usize>(),
                self.len
            );
        }
    }

    /// One step of the model run: insert, remove, or ask.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Insert(Key),
        Remove(Key),
        Contains(Key),
    }

    /// Keys from one of the shapes the set must handle: dense from a base,
    /// `Sparse{4}`-like (a quarter of a window), random 64-bit keys, and the
    /// edges (0, the 2¹⁶ boundary, `u64::MAX`).
    fn key_strategy(shape: u8, base: u64) -> impl Fn(u64) -> Key {
        move |r: u64| match shape % 4 {
            0 => base.wrapping_add(r % 9000),
            1 => base.wrapping_add((r % 20_000) * 4 + (r >> 40) % 4),
            2 => r.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            _ => [
                0,
                1,
                65_535,
                65_536,
                65_537,
                u64::MAX,
                u64::MAX - 1,
                1 << 48,
            ][(r % 8) as usize],
        }
    }

    /// Run `steps` on `set` and on a `HashSet` model started empty,
    /// comparing every answer, then the layout and the whole contents.
    fn replay(set: &mut KeySet, steps: &[Step]) {
        assert!(set.is_empty());
        let mut model = HashSet::new();
        for (i, &step) in steps.iter().enumerate() {
            match step {
                Step::Insert(k) => {
                    assert_eq!(set.insert(k), model.insert(k), "step {i}: insert {k}")
                }
                Step::Remove(k) => {
                    assert_eq!(set.remove(k), model.remove(&k), "step {i}: remove {k}")
                }
                Step::Contains(k) => {
                    assert_eq!(set.contains(k), model.contains(&k), "step {i}: {k}")
                }
            }
            assert_eq!(set.len(), model.len(), "step {i}");
        }
        set.check();
        let mut want: Vec<Key> = model.into_iter().collect();
        want.sort_unstable();
        assert_eq!(set.keys(), want);
    }

    /// Random steps: half inserts, three tenths removes, the rest asks.
    fn random_steps(key: &impl Fn(u64) -> Key, raw: &[(u8, u64)]) -> Vec<Step> {
        raw.iter()
            .map(|&(op, r)| match op {
                0..=4 => Step::Insert(key(r)),
                5..=7 => Step::Remove(key(r)),
                _ => Step::Contains(key(r)),
            })
            .collect()
    }

    proptest! {
        /// Streams over each key shape agree with `HashSet` step by step:
        /// the shape's first `fill` keys inserted (past 4096 a dense chunk
        /// turns into a bitmap), random steps, the first `drain` removed
        /// (a drained bitmap turns back into an array, an emptied chunk
        /// goes), random steps again; then the set is cleared and reused
        /// for a second random stream.
        #[test]
        fn the_set_matches_the_hash_set_model(
            shape in any::<u8>(),
            base in prop_oneof![Just(0u64), Just(65_000u64), Just(u64::MAX - 70_000), any::<u64>()],
            fill in 0u64..7000,
            drain in 0u64..7000,
            raw in proptest::collection::vec((0u8..10, any::<u64>()), 0..1500),
            after in proptest::collection::vec((0u8..10, any::<u64>()), 0..1500),
        ) {
            let key = key_strategy(shape, base);
            let (mid, _) = raw.split_at(raw.len() / 2);
            let mut steps: Vec<Step> = (0..fill).map(|i| Step::Insert(key(i))).collect();
            steps.extend(random_steps(&key, mid));
            steps.extend((0..drain).map(|i| Step::Remove(key(i))));
            steps.extend(random_steps(&key, &raw[mid.len()..]));
            let mut set = KeySet::default();
            replay(&mut set, &steps);
            set.clear();
            replay(&mut set, &random_steps(&key, &after));
        }

        /// A build from ascending keys is the same set, in the same layout,
        /// as the keys inserted one by one, and a cleared set reused for a
        /// second build equals a fresh one.
        #[test]
        fn a_sorted_build_equals_inserts_one_by_one(
            shape in any::<u8>(),
            base in any::<u64>(),
            raw in proptest::collection::vec(any::<u64>(), 0..6000),
            again in proptest::collection::vec(any::<u64>(), 0..200),
        ) {
            let key = key_strategy(shape, base);
            let mut keys: Vec<Key> = raw.iter().map(|&r| key(r)).collect();
            keys.sort_unstable();
            keys.dedup();
            let mut built = KeySet::default();
            built.assign(keys.iter().copied());
            let mut inserted = KeySet::default();
            for &k in &keys {
                inserted.insert(k);
            }
            built.check();
            prop_assert_eq!(&built.chunks, &inserted.chunks);
            prop_assert_eq!(built.len(), keys.len());

            let mut more: Vec<Key> = again.iter().map(|&r| key(r)).collect();
            more.sort_unstable();
            more.dedup();
            built.assign(more.iter().copied());
            let mut fresh = KeySet::default();
            fresh.assign(more.iter().copied());
            built.check();
            prop_assert_eq!(&built.chunks, &fresh.chunks);
        }
    }

    /// A chunk fills past the array limit (array → bitmap), drains below
    /// the return mark (bitmap → array), empties, and refills after a
    /// `clear`, agreeing with the model throughout.
    #[test]
    fn chunks_convert_both_ways_and_survive_a_clear() {
        let base = 5 << 16;
        let mut steps: Vec<Step> = (0..ARRAY_MAX as u64 + 10)
            .map(|i| Step::Insert(base + i * 13 % 65_536))
            .collect();
        steps.extend((0..ARRAY_MAX as u64 + 10).flat_map(|i| {
            [
                Step::Contains(base + i),
                Step::Remove(base + i * 13 % 65_536),
            ]
        }));
        replay(&mut KeySet::default(), &steps);

        let mut set = KeySet::default();
        for i in 0..=ARRAY_MAX as u64 {
            set.insert(base + i);
        }
        assert!(set.chunks[0].bitmap);
        for i in 0..=(ARRAY_MAX as u64 - ARRAY_AGAIN as u64) {
            set.remove(base + i);
        }
        assert!(!set.chunks[0].bitmap);
        set.check();
        set.clear();
        assert!(set.is_empty() && !set.contains(base + 4000));
        let held = set.heap_bytes();
        assert!(held > 0, "clear keeps the buffers");
        for i in 0..100 {
            assert!(set.insert(base + i));
        }
        set.check();
        assert_eq!(set.heap_bytes(), held, "a refill after clear reuses them");
    }

    /// A million dense keys take sixteen bitmaps: 128 KiB and a directory.
    #[test]
    fn a_million_dense_keys_fit_in_sixteen_bitmaps() {
        let mut set = KeySet::default();
        set.assign(0..1_000_000);
        assert_eq!(set.len(), 1_000_000);
        assert_eq!(set.chunks.len(), 16);
        assert!(set.heap_bytes() < 132 * 1024, "{} bytes", set.heap_bytes());
        assert!(set.contains(999_999) && !set.contains(1_000_000));
    }

    /// Fresh keys past a bulk load open the next chunk at its final size:
    /// it fills to a bitmap without growing its buffer.
    #[test]
    fn a_chunk_opened_past_a_bitmap_never_grows() {
        let mut set = KeySet::default();
        set.assign(0..65_536);
        set.insert(65_536);
        let held = set.heap_bytes();
        for k in 65_537..2 * 65_536 {
            set.insert(k);
        }
        assert!(set.chunks[1].bitmap);
        assert_eq!(set.heap_bytes(), held);
        set.check();
    }
}
