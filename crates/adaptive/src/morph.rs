//! A morphing access method — §5: "Morphing access methods, combining
//! multiple shapes at once" and "access methods that can automatically and
//! dynamically adapt to new workload requirements".
//!
//! The index watches its own operation mix over a sliding window and
//! physically re-shapes itself:
//!
//! * **Log shape** (write-optimized): records append unsorted; reads scan.
//! * **Sorted shape** (read-optimized): records sorted; binary-search
//!   reads; inserts shift.
//!
//! Crossing a read-fraction threshold triggers a morph (a charged full
//! rewrite); hysteresis keeps it from thrashing. The result is a single
//! method that traces a *path* through the RUM triangle as its workload
//! drifts — the paper's Figure 3 vision, automated.

use std::sync::Arc;

use rum_core::{base_bytes, AccessMethod, CostTracker, Key, Record, Result, SpaceProfile, Value};

/// Which physical shape the index currently holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Append-ordered, scan-to-read (write-optimized).
    Log,
    /// Key-ordered, binary-search reads (read-optimized).
    Sorted,
}

/// Operations per observation window.
const WINDOW: usize = 256;
/// Morph to [`Shape::Sorted`] when the window's read fraction exceeds this.
const TO_SORTED_AT: f64 = 0.6;
/// Morph to [`Shape::Log`] when the window's read fraction falls below
/// this; the gap up to [`TO_SORTED_AT`] is the hysteresis band.
const TO_LOG_AT: f64 = 0.2;

/// The morphing index.
pub struct MorphingIndex {
    data: Vec<Record>,
    shape: Shape,
    /// Reads and writes observed in the current window.
    window_reads: usize,
    window_writes: usize,
    morphs: u64,
    tracker: Arc<CostTracker>,
}

impl MorphingIndex {
    pub fn new() -> Self {
        MorphingIndex {
            data: Vec::new(),
            shape: Shape::Log,
            window_reads: 0,
            window_writes: 0,
            morphs: 0,
            tracker: CostTracker::new(),
        }
    }

    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Shape transitions performed so far.
    pub fn morphs(&self) -> u64 {
        self.morphs
    }

    fn observe(&mut self, read: bool) {
        if read {
            self.window_reads += 1;
        } else {
            self.window_writes += 1;
        }
        let total = self.window_reads + self.window_writes;
        if total < WINDOW {
            return;
        }
        let read_frac = self.window_reads as f64 / total as f64;
        self.window_reads = 0;
        self.window_writes = 0;
        match self.shape {
            Shape::Log if read_frac > TO_SORTED_AT => self.morph_to(Shape::Sorted),
            Shape::Sorted if read_frac < TO_LOG_AT => self.morph_to(Shape::Log),
            _ => {}
        }
    }

    /// Physically re-shape: a charged full read + rewrite of the data.
    fn morph_to(&mut self, shape: Shape) {
        self.tracker.read_records(self.data.len());
        if shape == Shape::Sorted {
            self.data.sort_unstable();
        }
        // (Morphing to Log keeps the current order; future appends restore
        // the log property.)
        self.tracker.write_records(self.data.len());
        self.shape = shape;
        self.morphs += 1;
    }

    /// Position of `key`, with shape-appropriate charging.
    fn find(&self, key: Key) -> Option<usize> {
        match self.shape {
            Shape::Sorted => {
                self.tracker.search_records(self.data.len());
                self.data.binary_search_by_key(&key, |r| r.key).ok()
            }
            Shape::Log => {
                let pos = self.data.iter().rposition(|r| r.key == key);
                let examined = pos.map(|p| self.data.len() - p).unwrap_or(self.data.len());
                self.tracker.read_records(examined);
                pos
            }
        }
    }
}

impl Default for MorphingIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessMethod for MorphingIndex {
    fn name(&self) -> String {
        "morphing-index".into()
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        &self.tracker
    }

    fn space_profile(&self) -> SpaceProfile {
        SpaceProfile::from_physical(self.data.len(), base_bytes(self.data.len()))
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        self.observe(true);
        Ok(self.find(key).map(|i| self.data[i].value))
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        self.observe(true);
        match self.shape {
            Shape::Sorted => {
                let start = self.data.partition_point(|r| r.key < lo);
                let end = self.data.partition_point(|r| r.key <= hi);
                self.tracker.search_records(self.data.len());
                self.tracker.read_records(end - start);
                Ok(self.data[start..end].to_vec())
            }
            Shape::Log => {
                self.tracker.read_records(self.data.len());
                let mut out: Vec<Record> = self
                    .data
                    .iter()
                    .copied()
                    .filter(|r| r.key >= lo && r.key <= hi)
                    .collect();
                out.sort_unstable();
                Ok(out)
            }
        }
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        self.observe(false);
        match self.shape {
            Shape::Log => {
                // Upsert in a log: overwrite the newest copy if present,
                // else append. (The scan is the log's read debt; keys are
                // unique so one copy exists at most.)
                if let Some(i) = self.find(key) {
                    self.data[i].value = value;
                } else {
                    self.data.push(Record::new(key, value));
                }
                self.tracker.write_records(1);
            }
            Shape::Sorted => match self.data.binary_search_by_key(&key, |r| r.key) {
                Ok(i) => {
                    self.data[i].value = value;
                    self.tracker.write_records(1);
                }
                Err(i) => {
                    // Shifting the tail is the sorted shape's write debt.
                    let shifted = self.data.len() - i;
                    self.data.insert(i, Record::new(key, value));
                    self.tracker.write_records(shifted + 1);
                }
            },
        }
        Ok(())
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        self.observe(false);
        match self.find(key) {
            Some(i) => {
                self.data[i].value = value;
                self.tracker.write_records(1);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        self.observe(false);
        match self.find(key) {
            Some(i) => {
                match self.shape {
                    Shape::Log => {
                        // Swap-remove keeps the log dense with one write.
                        self.data.swap_remove(i);
                        self.tracker.write_records(1);
                    }
                    Shape::Sorted => {
                        let shifted = self.data.len() - i - 1;
                        self.data.remove(i);
                        self.tracker.write_records(shifted.max(1));
                    }
                }
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        self.data = records.to_vec();
        self.tracker.write_records(records.len());
        // A sorted bulk load leaves the index in its read-optimized shape.
        self.shape = Shape::Sorted;
        self.window_reads = 0;
        self.window_writes = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::oracle::{check, hostile_ops};

    #[test]
    fn crud_roundtrip_across_shapes() {
        let mut m = MorphingIndex::new();
        for k in [9u64, 1, 5, 3, 7] {
            m.insert(k, k * 10).unwrap();
        }
        assert_eq!(m.shape(), Shape::Log);
        assert_eq!(m.get(5).unwrap(), Some(50));
        assert!(m.update(5, 55).unwrap());
        assert!(m.delete(9).unwrap());
        assert_eq!(m.len(), 4);
        // Read-heavy burst: should morph to sorted.
        for _ in 0..WINDOW {
            m.get(1).unwrap();
        }
        assert_eq!(m.shape(), Shape::Sorted);
        assert_eq!(m.get(5).unwrap(), Some(55));
        assert_eq!(
            m.range(0, 10)
                .unwrap()
                .iter()
                .map(|r| r.key)
                .collect::<Vec<_>>(),
            vec![1, 3, 5, 7]
        );
    }

    #[test]
    fn morphs_to_sorted_under_reads_and_back_under_writes() {
        let mut m = MorphingIndex::new();
        for k in 0..100u64 {
            m.insert(k, k).unwrap();
        }
        assert_eq!(m.shape(), Shape::Log);
        for _ in 0..2 * WINDOW {
            m.get(50).unwrap();
        }
        assert_eq!(m.shape(), Shape::Sorted);
        let morphs = m.morphs();
        let end = 100 + 2 * WINDOW as u64;
        for k in 100..end {
            m.insert(k, k).unwrap();
        }
        assert_eq!(m.shape(), Shape::Log);
        assert!(m.morphs() > morphs);
        // Contents intact throughout.
        for k in (0..end).step_by(37) {
            assert_eq!(m.get(k).unwrap(), Some(k));
        }
    }

    #[test]
    fn hysteresis_prevents_thrash_on_balanced_mixes() {
        let mut m = MorphingIndex::new();
        for k in 0..50u64 {
            m.insert(k, k).unwrap();
        }
        let before = m.morphs();
        // 50/50 mix sits inside the hysteresis band: no morphs.
        for i in 0..4 * WINDOW as u64 {
            if i % 2 == 0 {
                m.get(i % 50).unwrap();
            } else {
                m.update(i % 50, i).unwrap();
            }
        }
        assert_eq!(m.morphs(), before, "balanced mix must not thrash");
    }

    #[test]
    fn read_cost_falls_after_morph() {
        let mut m = MorphingIndex::new();
        for k in 0..4000u64 {
            m.insert(k, k).unwrap();
        }
        let probe_cost = |m: &mut MorphingIndex| {
            let before = m.tracker().snapshot();
            m.get(1).unwrap(); // oldest key: worst case for the log scan
            m.tracker().since(&before).total_read_bytes()
        };
        let log_cost = probe_cost(&mut m);
        for _ in 0..2 * WINDOW {
            m.get(0).unwrap();
        }
        assert_eq!(m.shape(), Shape::Sorted);
        let sorted_cost = probe_cost(&mut m);
        assert!(
            sorted_cost * 20 < log_cost,
            "morphing should slash read cost: {log_cost} -> {sorted_cost}"
        );
    }

    #[test]
    fn write_cost_falls_after_morph_back() {
        let mut m = MorphingIndex::new();
        let recs: Vec<Record> = (0..4000u64).map(|k| Record::new(k * 2, k)).collect();
        m.bulk_load(&recs).unwrap();
        assert_eq!(m.shape(), Shape::Sorted);
        let insert_cost = |m: &mut MorphingIndex, k: u64| {
            let before = m.tracker().snapshot();
            m.insert(k, 0).unwrap();
            m.tracker().since(&before).total_write_bytes()
        };
        let sorted_cost = insert_cost(&mut m, 1); // front insert: max shift
                                                  // Write burst flips it back to the log.
        for i in 0..WINDOW as u64 {
            m.insert(100_000 + i, 0).unwrap();
        }
        assert_eq!(m.shape(), Shape::Log);
        let log_cost = insert_cost(&mut m, 3);
        assert!(
            log_cost * 100 < sorted_cost,
            "log appends must be cheap: {sorted_cost} -> {log_cost}"
        );
    }

    #[test]
    fn model_check_random_ops() {
        // The hostile mix reads ~42% of the time, inside the hysteresis
        // band, so each four-window chunk puts its reads first: a window
        // mostly in the reads morphs to sorted, one in the writes back to
        // the log.
        let mut stream = hostile_ops(83, 16 * WINDOW, 800);
        for chunk in stream.ops.chunks_mut(4 * WINDOW) {
            chunk.sort_by_key(|op| !op.is_read());
        }
        let mut m = MorphingIndex::new();
        check(&mut m, &stream).unwrap();
        assert!(m.morphs() >= 6, "the stream should have triggered morphs");
        // Unreordered, the same mix stays in the band: a bulk-loaded index
        // stays sorted, reads following writes in the sorted shape.
        let mut stream = hostile_ops(83, 16 * WINDOW, 800);
        stream.initial = (0..400u64).map(|k| Record::new(k * 2, k)).collect();
        let mut m = MorphingIndex::new();
        check(&mut m, &stream).unwrap();
        assert_eq!((m.shape(), m.morphs()), (Shape::Sorted, 0));
    }

    #[test]
    fn mo_is_always_minimal() {
        // Morphing trades R against U but never spends space.
        let mut m = MorphingIndex::new();
        for k in 0..1000u64 {
            m.insert(k, k).unwrap();
        }
        assert_eq!(m.space_profile().space_amplification(), 1.0);
    }
}
