//! The LSM-tree proper: memtable + levelled/tiered run hierarchy.

use std::sync::Arc;

use rum_core::trace::{EventKind, TraceSink};
use rum_core::{
    merge_streams, AccessMethod, CostSnapshot, CostTracker, Key, KeySet, Record, Result,
    SpaceProfile, Value,
};
use rum_storage::{BlockDevice, CheckedDevice, MemDevice, Pager, RetryPolicy, ScrubReport};

use crate::memtable::Memtable;
use crate::run::{overlay, FilterKind, SortedRun};
use crate::view::{SortedView, ENTRY_BYTES};
use crate::TOMBSTONE;

/// How levels absorb runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompactionPolicy {
    /// One run per level: every flush/overflow merges eagerly. Best reads
    /// and space, highest write amplification.
    Levelling,
    /// Up to `T` runs per level, merged only when the level fills. Lowest
    /// write amplification, more runs to probe (higher RO) and more
    /// overlapping versions (higher MO).
    Tiering,
}

/// LSM tuning knobs — `T` and `MEM` of Table 1 plus the §5 dynamic knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LsmConfig {
    /// Memtable capacity in records (`MEM`).
    pub memtable_records: usize,
    /// Size ratio between adjacent levels (`T`).
    pub size_ratio: usize,
    pub policy: CompactionPolicy,
    /// Bits per key for per-run point-probe filters; 0 disables them.
    pub bloom_bits_per_key: f64,
    /// Which filter family guards point probes (Bloom or quotient); the
    /// per-key budget above applies to either.
    pub filter: FilterKind,
    /// Maintain a REMIX-style cross-run [`SortedView`] so range queries
    /// pay one binary search instead of a probe per run. Buys RO with MO
    /// (the view's anchors) and maintenance (after a flush or compaction
    /// the next range merges the new runs into the anchors).
    pub sorted_view: bool,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_records: 4096,
            size_ratio: 4,
            policy: CompactionPolicy::Levelling,
            bloom_bits_per_key: 10.0,
            filter: FilterKind::Bloom,
            sorted_view: false,
        }
    }
}

/// Shape diagnostics for experiments.
#[derive(Clone, Debug)]
pub struct LsmStats {
    /// `(runs, entries)` per level, top down.
    pub levels: Vec<(usize, usize)>,
    /// Entries in the memtable.
    pub memtable_entries: usize,
    /// Total entries across all runs (live + shadowed + tombstones).
    pub total_entries: usize,
    /// Compactions performed so far.
    pub compactions: u64,
}

/// The log-structured merge tree, generic over its backing
/// [`BlockDevice`] (in-memory by default; wrap the device in a
/// [`CheckedDevice`] to get checksum-sealed pages and [`scrub`]).
///
/// [`scrub`]: LsmTree::scrub
pub struct LsmTree<D: BlockDevice = MemDevice> {
    config: LsmConfig,
    memtable: Memtable,
    /// `levels[i]` holds the runs of level i, **oldest first**.
    levels: Vec<Vec<SortedRun>>,
    pager: Pager<D>,
    /// The tree's account. Kept beside the pager's, not read from it:
    /// `ensure_view` points the pager at a scratch tracker for the length
    /// of a view refresh, then rebooks that traffic here.
    tracker: Arc<CostTracker>,
    /// Liveness oracle for `len()` and update/delete return values — not
    /// part of the structure (neither charged nor counted as space); an
    /// LSM cannot know liveness without reads, and the paper's UO model
    /// assumes blind writes.
    live: KeySet,
    compactions: u64,
    /// Structured-event channel for flush/compaction records; the disabled
    /// [`NoopSink`](rum_core::trace::NoopSink) by default.
    pub(crate) sink: Arc<dyn TraceSink>,
    /// Cross-run sorted view, present once a view-enabled range has built
    /// it. A flush or compaction leaves the anchors resident but stale.
    view: Option<SortedView>,
    /// Whether `view` was refreshed over exactly the current run set.
    view_current: bool,
    /// Id the next placed run is stamped with.
    next_run_id: u32,
}

/// Every run, **oldest → newest**: deepest level first, and within a
/// level in placement order.
fn runs_oldest_first(levels: &[Vec<SortedRun>]) -> impl Iterator<Item = &SortedRun> + Clone {
    levels.iter().rev().flatten()
}

impl LsmTree {
    pub fn new() -> Self {
        Self::with_config(LsmConfig::default())
    }

    pub fn with_config(config: LsmConfig) -> Self {
        Self::with_device(MemDevice::new(), config)
    }
}

impl<D: BlockDevice> LsmTree<D> {
    /// A tree over a caller-supplied device (e.g. a [`CheckedDevice`] for
    /// corruption detection, or a fault-injecting device for resilience
    /// experiments).
    pub fn with_device(device: D, config: LsmConfig) -> Self {
        assert!(config.size_ratio >= 2, "size ratio T must be >= 2");
        assert!(config.memtable_records >= 16, "memtable too small");
        let tracker = CostTracker::new();
        LsmTree {
            config,
            memtable: Memtable::new(),
            levels: Vec::new(),
            pager: Pager::new(device, Arc::clone(&tracker)),
            tracker,
            live: KeySet::default(),
            compactions: 0,
            sink: rum_core::trace::noop_sink(),
            view: None,
            view_current: false,
            next_run_id: 0,
        }
    }

    /// The underlying block device.
    pub fn device(&self) -> &D {
        self.pager.device()
    }

    /// Mutable access to the underlying block device.
    pub fn device_mut(&mut self) -> &mut D {
        self.pager.device_mut()
    }

    /// How transient device faults are retried on every page the tree
    /// touches (see [`RetryPolicy`]; the default retries 3 times with
    /// exponential backoff).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.pager.set_retry_policy(retry);
    }

    pub fn config(&self) -> &LsmConfig {
        &self.config
    }

    /// Toggle the cross-run sorted view in place — the one shape change
    /// that needs no drain-and-rebuild. Turning it on builds the view
    /// eagerly (the build's scan and anchors are charged to the tracker
    /// exactly like a lazy refresh); turning it off drops the anchors and
    /// frees their MO. Run set and contents are untouched.
    pub fn set_sorted_view(&mut self, on: bool) -> Result<()> {
        self.config.sorted_view = on;
        if on {
            self.ensure_view()?;
        } else {
            self.mark_view_stale();
            self.view = None;
        }
        Ok(())
    }

    pub fn stats(&self) -> LsmStats {
        LsmStats {
            levels: self
                .levels
                .iter()
                .map(|runs| (runs.len(), runs.iter().map(|r| r.len()).sum()))
                .collect(),
            memtable_entries: self.memtable.len(),
            total_entries: self
                .levels
                .iter()
                .flat_map(|runs| runs.iter())
                .map(|r| r.len())
                .sum(),
            compactions: self.compactions,
        }
    }

    /// Capacity of level `i` in records.
    fn capacity(&self, level: usize) -> usize {
        self.config
            .memtable_records
            .saturating_mul(self.config.size_ratio.pow(level as u32 + 1))
    }

    fn ensure_level(&mut self, i: usize) {
        while self.levels.len() <= i {
            self.levels.push(Vec::new());
        }
    }

    /// Whether every level strictly below `level` is empty.
    fn is_bottom(&self, level: usize) -> bool {
        self.levels
            .iter()
            .skip(level + 1)
            .all(|runs| runs.is_empty())
    }

    /// Merge record streams ordered **oldest → newest**, newest version
    /// winning; optionally drop tombstones (safe only at the bottom).
    fn merge_records(inputs: &mut [Vec<Record>], drop_tombstones: bool) -> Vec<Record> {
        merge_streams(
            inputs,
            |r| r.key,
            |r| !(drop_tombstones && r.value == TOMBSTONE),
        )
    }

    /// [`merge_records`](Self::merge_records) for runs about to be
    /// destroyed. The sorted view drops a destroyed run's anchors and
    /// relies on every one of its keys reappearing in the merged run,
    /// unless its newest version is a tombstone dropped at the bottom.
    fn merge_doomed(mut inputs: Vec<Vec<Record>>, drop_tombstones: bool) -> Vec<Record> {
        let merged = Self::merge_records(&mut inputs, drop_tombstones);
        let newest = |key: Key| {
            inputs.iter().rev().find_map(|run| {
                let at = run.binary_search_by_key(&key, |r| r.key).ok()?;
                Some(run[at].value)
            })
        };
        debug_assert!(
            inputs.iter().flatten().all(|r| {
                merged.binary_search_by_key(&r.key, |m| m.key).is_ok()
                    || (drop_tombstones && newest(r.key) == Some(TOMBSTONE))
            }),
            "a merge may lose a key only to a tombstone dropped at the bottom"
        );
        merged
    }

    /// Lay the memtable's `[lo, hi]` over `out`, the runs' live answer
    /// for that range: its versions win and its tombstones delete.
    fn overlay_memtable(&self, out: &mut Vec<Record>, lo: Key, hi: Key) {
        let mem = self.memtable.range(lo, hi, &self.tracker);
        overlay(out, mem, |r| r.key, |r| r.value == TOMBSTONE);
    }

    /// Resident bytes of the sorted view's anchors, current or stale (0
    /// when disabled or never built).
    pub fn view_bytes(&self) -> u64 {
        self.view.as_ref().map_or(0, |v| v.size_bytes())
    }

    /// The run set is changing: a current view goes stale. Its anchors
    /// stay resident for the next view-enabled range to refresh.
    fn mark_view_stale(&mut self) {
        if !self.view_current {
            return;
        }
        self.view_current = false;
        if let (Some(v), true) = (&self.view, self.sink.enabled()) {
            self.sink.emit(
                EventKind::LsmViewInvalidate,
                &[("entries", v.len() as u64), ("bytes", v.size_bytes())],
            );
        }
    }

    /// Refresh the sorted view if it is stale (a cold build is a refresh
    /// from the empty view). Lazy on purpose: run from `place_run`, the
    /// anchor traffic of every memtable fill would land in the write
    /// class and a bulk load would pay the cold build. The scan of the
    /// added runs, the old anchors consumed and the new anchors written
    /// are all booked as auxiliary **write** bytes: refreshing the view is
    /// maintenance spent to cheapen future reads, the same way a
    /// compaction's traffic is, so leaving it on the read side would let
    /// the view hide its own cost inside the RO it is supposed to lower.
    fn ensure_view(&mut self) -> Result<()> {
        if self.view_current {
            return Ok(());
        }
        let scratch = CostTracker::new();
        self.pager.set_tracker(Arc::clone(&scratch));
        let view = self.view.get_or_insert_with(SortedView::default);
        let refreshed = view.refresh(&mut self.pager, runs_oldest_first(&self.levels));
        self.pager.set_tracker(Arc::clone(&self.tracker));
        let did = refreshed?;
        self.view_current = true;
        let d = scratch.snapshot();
        let consumed = d.total_read_bytes() + did.old_anchors as u64 * ENTRY_BYTES;
        self.tracker.absorb(&CostSnapshot {
            aux_write_bytes: consumed + view.size_bytes(),
            page_writes: d.page_reads,
            sim_time_ns: d.sim_time_ns,
            ..Default::default()
        });
        if self.sink.enabled() {
            self.sink.emit(
                EventKind::LsmViewBuild,
                &[
                    ("entries", view.len() as u64),
                    ("bytes", view.size_bytes()),
                    ("read_bytes", consumed),
                    ("added_runs", did.added_runs as u64),
                    ("dropped_runs", did.dropped_runs as u64),
                    ("scanned_pages", d.page_reads),
                ],
            );
        }
        Ok(())
    }

    /// Build `records` into a run at `level`. Every change to the run set
    /// ends here, so this is where the view goes stale and where a run
    /// gets its id. The view's refresh needs the new run to be newer than
    /// every run that survives it: it is pushed last in its level, and the
    /// cascade that calls this has emptied every shallower level.
    fn place_run(&mut self, level: usize, records: &[Record]) -> Result<()> {
        self.mark_view_stale();
        self.ensure_level(level);
        debug_assert!(
            self.levels[..level].iter().all(Vec::is_empty),
            "a placed run must be the newest on disk"
        );
        if records.is_empty() {
            return Ok(());
        }
        let run = SortedRun::build(
            &mut self.pager,
            records,
            self.config.filter,
            self.config.bloom_bits_per_key,
        )?
        .with_id(self.next_run_id);
        // Ids only have to tell apart runs alive within one refresh
        // interval; 2^32 placements apart is as good as unique.
        self.next_run_id = self.next_run_id.wrapping_add(1);
        self.levels[level].push(run);
        Ok(())
    }

    /// Free every run in `runs`, in order, leaving the vector empty with
    /// its capacity.
    fn destroy_runs(pager: &mut Pager<D>, runs: &mut Vec<SortedRun>) -> Result<()> {
        for run in runs.drain(..) {
            run.destroy(pager)?;
        }
        Ok(())
    }

    /// Restore level-size invariants after new data arrived at `from`.
    fn compact_from(&mut self, from: usize) -> Result<()> {
        let mut level = from;
        loop {
            self.ensure_level(level);
            let trigger = match self.config.policy {
                CompactionPolicy::Levelling => {
                    let entries: usize = self.levels[level].iter().map(|r| r.len()).sum();
                    entries > self.capacity(level)
                }
                CompactionPolicy::Tiering => self.levels[level].len() >= self.config.size_ratio,
            };
            if !trigger {
                return Ok(());
            }
            let traced = self.sink.enabled();
            let before = traced.then(|| self.tracker.snapshot());
            // Merge everything at `level` plus (for levelling) the run
            // already at level+1, and place the result at level+1.
            self.ensure_level(level + 1);
            let levelling = self.config.policy == CompactionPolicy::Levelling;
            let mut below = if levelling {
                std::mem::take(&mut self.levels[level + 1])
            } else {
                Vec::new()
            };
            let mut inputs: Vec<Vec<Record>> =
                Vec::with_capacity(below.len() + self.levels[level].len());
            for run in &below {
                inputs.push(run.scan_all(&mut self.pager)?);
            }
            // Oldest first within the level.
            let mut here = std::mem::take(&mut self.levels[level]);
            for run in &here {
                inputs.push(run.scan_all(&mut self.pager)?);
            }
            // Tombstones may be dropped only when every older version is
            // part of this merge: nothing deeper than level+1, and (for
            // tiering, which does not consume level+1's runs) level+1
            // itself must be empty.
            let drop_tomb = match self.config.policy {
                CompactionPolicy::Levelling => self.is_bottom(level + 1),
                CompactionPolicy::Tiering => {
                    self.levels[level + 1].is_empty() && self.is_bottom(level + 1)
                }
            };
            let records_in: usize = inputs.iter().map(Vec::len).sum();
            let merged = Self::merge_doomed(inputs, drop_tomb);
            let records_out = merged.len();
            Self::destroy_runs(&mut self.pager, &mut below)?;
            Self::destroy_runs(&mut self.pager, &mut here)?;
            // The emptied levels keep their buffers for the runs to come.
            self.levels[level] = here;
            if levelling {
                self.levels[level + 1] = below;
            }
            self.place_run(level + 1, &merged)?;
            self.compactions += 1;
            if let Some(before) = before {
                let d = self.tracker.since(&before);
                self.sink.emit(
                    EventKind::LsmCompaction,
                    &[
                        ("level", level as u64),
                        ("to_level", level as u64 + 1),
                        ("records_in", records_in as u64),
                        ("records_out", records_out as u64),
                        ("read_bytes", d.total_read_bytes()),
                        ("bytes", d.total_write_bytes()),
                    ],
                );
            }
            level += 1;
        }
    }
}

impl Default for LsmTree {
    fn default() -> Self {
        Self::new()
    }
}

/// Walk every live run page behind the checksum seal (see
/// [`Pager::scrub`]): proactive detection of silent corruption, charged
/// as auxiliary reads.
impl<D: BlockDevice> LsmTree<CheckedDevice<D>> {
    pub fn scrub(&mut self) -> Result<ScrubReport> {
        self.pager.scrub()
    }
}

impl<D: BlockDevice> AccessMethod for LsmTree<D> {
    fn name(&self) -> String {
        let base = match self.config.policy {
            CompactionPolicy::Levelling => "lsm-tree",
            CompactionPolicy::Tiering => "lsm-tree-tiered",
        };
        if self.config.sorted_view {
            format!("{base}+view")
        } else {
            base.into()
        }
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        &self.tracker
    }

    fn space_profile(&self) -> SpaceProfile {
        let aux: u64 = self
            .levels
            .iter()
            .flat_map(|runs| runs.iter())
            .map(|r| r.aux_bytes())
            .sum();
        let physical =
            self.pager.physical_bytes() + aux + self.memtable.size_bytes() + self.view_bytes();
        SpaceProfile::from_physical(self.live.len(), physical)
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        if let Some(v) = self.memtable.get(key, &self.tracker) {
            return Ok(if v == TOMBSTONE { None } else { Some(v) });
        }
        // Top level first; within a level, newest run first.
        let (levels, pager) = (&self.levels, &mut self.pager);
        for level in levels {
            for run in level.iter().rev() {
                if let Some(v) = run.get(pager, key)? {
                    return Ok(if v == TOMBSTONE { None } else { Some(v) });
                }
            }
        }
        Ok(None)
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        if self.config.sorted_view {
            self.ensure_view()?;
            // Snapshot after ensure_view so the hit event prices the
            // query itself, not a refresh it happened to trigger.
            let before = self.sink.enabled().then(|| self.tracker.snapshot());
            let view = self.view.as_ref().expect("ensure_view just refreshed it");
            let runs = runs_oldest_first(&self.levels);
            let mut out = view.range(&mut self.pager, runs, lo, hi)?;
            self.overlay_memtable(&mut out, lo, hi);
            if let Some(before) = before {
                let d = self.tracker.since(&before);
                self.sink.emit(
                    EventKind::LsmViewHit,
                    &[
                        ("records", out.len() as u64),
                        ("read_bytes", d.total_read_bytes()),
                    ],
                );
            }
            return Ok(out);
        }
        // Oldest sources first so newer versions overwrite.
        let mut inputs: Vec<Vec<Record>> = Vec::new();
        let (levels, pager) = (&self.levels, &mut self.pager);
        for run in runs_oldest_first(levels) {
            // Envelope pruning: a run whose [min, max] is disjoint
            // from the query cannot contribute — skip it for free.
            if !run.overlaps(lo, hi) {
                continue;
            }
            inputs.push(run.range(pager, lo, hi)?);
        }
        let mut out = Self::merge_records(&mut inputs, true);
        self.overlay_memtable(&mut out, lo, hi);
        Ok(out)
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        self.memtable.put(key, value, &self.tracker);
        self.live.insert(key);
        if self.memtable.len() >= self.config.memtable_records {
            self.flush()?;
        }
        Ok(())
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        if !self.live.contains(key) {
            return Ok(false);
        }
        self.memtable.put(key, value, &self.tracker);
        if self.memtable.len() >= self.config.memtable_records {
            self.flush()?;
        }
        Ok(true)
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        if !self.live.remove(key) {
            return Ok(false);
        }
        self.memtable.put(key, TOMBSTONE, &self.tracker);
        if self.memtable.len() >= self.config.memtable_records {
            self.flush()?;
        }
        Ok(true)
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        // Tear down.
        self.memtable = Memtable::new();
        for runs in std::mem::take(&mut self.levels) {
            for run in runs {
                run.destroy(&mut self.pager)?;
            }
        }
        self.live.assign(records.iter().map(|r| r.key));
        // One run at the shallowest level that fits it.
        let mut level = 0;
        while self.capacity(level) < records.len() {
            level += 1;
        }
        self.place_run(level, records)
    }

    /// Flush the memtable and run compactions to restore invariants.
    fn flush(&mut self) -> Result<()> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        let traced = self.sink.enabled();
        let before = traced.then(|| self.tracker.snapshot());
        let fresh = self.memtable.drain_sorted();
        let records_in = fresh.len();
        let records_out;
        match self.config.policy {
            CompactionPolicy::Levelling => {
                // Merge with the existing level-0 run eagerly.
                self.ensure_level(0);
                let mut old = std::mem::take(&mut self.levels[0]);
                let mut inputs = Vec::with_capacity(old.len() + 1);
                for run in &old {
                    inputs.push(run.scan_all(&mut self.pager)?);
                }
                inputs.push(fresh);
                let drop_tomb = self.is_bottom(0);
                let merged = Self::merge_doomed(inputs, drop_tomb);
                records_out = merged.len();
                Self::destroy_runs(&mut self.pager, &mut old)?;
                // The emptied level keeps its buffer for the merged run.
                self.levels[0] = old;
                self.place_run(0, &merged)?;
            }
            CompactionPolicy::Tiering => {
                records_out = fresh.len();
                self.place_run(0, &fresh)?;
            }
        }
        if let Some(before) = before {
            // Bytes of the flush itself; the compactions it triggers below
            // report their own traffic in their own events.
            let d = self.tracker.since(&before);
            self.sink.emit(
                EventKind::LsmFlush,
                &[
                    ("level", 0),
                    ("records_in", records_in as u64),
                    ("records_out", records_out as u64),
                    ("read_bytes", d.total_read_bytes()),
                    ("bytes", d.total_write_bytes()),
                ],
            );
        }
        self.compact_from(0)
    }

    /// Keep the sink for flush/compaction events and forward it to the
    /// pager (fault/retry/corruption events). The tree only observes the
    /// tracker through it, so installing a sink never changes a counted
    /// byte.
    fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.pager.set_trace_sink(Arc::clone(&sink));
        self.sink = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::oracle::{check, hostile_ops, Oracle};
    use rum_core::workload::Op;
    use rum_core::{RumError, RECORDS_PER_PAGE};

    fn small_config(policy: CompactionPolicy) -> LsmConfig {
        LsmConfig {
            memtable_records: 64,
            size_ratio: 3,
            policy,
            bloom_bits_per_key: 10.0,
            ..Default::default()
        }
    }

    #[test]
    fn crud_roundtrip_levelling() {
        let mut t = LsmTree::with_config(small_config(CompactionPolicy::Levelling));
        for k in 0..500u64 {
            t.insert(k, k * 2).unwrap();
        }
        assert_eq!(t.len(), 500);
        assert_eq!(t.get(123).unwrap(), Some(246));
        assert_eq!(t.get(999).unwrap(), None);
        assert!(t.update(123, 1).unwrap());
        assert!(!t.update(9999, 0).unwrap());
        assert_eq!(t.get(123).unwrap(), Some(1));
        assert!(t.delete(123).unwrap());
        assert!(!t.delete(123).unwrap());
        assert_eq!(t.get(123).unwrap(), None);
        assert_eq!(t.len(), 499);
    }

    #[test]
    fn crud_roundtrip_tiering() {
        let mut t = LsmTree::with_config(small_config(CompactionPolicy::Tiering));
        for k in 0..500u64 {
            t.insert(k, k * 2).unwrap();
        }
        assert_eq!(t.get(321).unwrap(), Some(642));
        assert!(t.delete(321).unwrap());
        assert_eq!(t.get(321).unwrap(), None);
        // Deleted key stays deleted across flushes and compactions.
        for k in 1000..2000u64 {
            t.insert(k, 0).unwrap();
        }
        assert_eq!(t.get(321).unwrap(), None);
    }

    #[test]
    fn newest_version_wins_across_levels() {
        let mut t = LsmTree::with_config(small_config(CompactionPolicy::Tiering));
        t.insert(7, 1).unwrap();
        // Push key 7's first version deep by inserting lots of other keys.
        for k in 100..800u64 {
            t.insert(k, 0).unwrap();
        }
        t.insert(7, 2).unwrap();
        for k in 800..1000u64 {
            t.insert(k, 0).unwrap();
        }
        assert_eq!(t.get(7).unwrap(), Some(2));
        let rs = t.range(7, 7).unwrap();
        assert_eq!(rs, vec![Record::new(7, 2)]);
    }

    #[test]
    fn levels_respect_size_ratio() {
        let mut t = LsmTree::with_config(small_config(CompactionPolicy::Levelling));
        for k in 0..5000u64 {
            t.insert(k, k).unwrap();
        }
        let stats = t.stats();
        assert!(stats.levels.len() >= 2);
        for (runs, _) in &stats.levels {
            assert!(*runs <= 1, "levelling keeps one run per level");
        }
        // Levels grow roughly by T.
        let sizes: Vec<usize> = stats.levels.iter().map(|&(_, n)| n).collect();
        for w in sizes.windows(2) {
            if w[0] > 0 && w[1] > 0 {
                assert!(w[1] >= w[0], "deeper levels are larger: {sizes:?}");
            }
        }
    }

    #[test]
    fn tiering_has_fewer_compactions_than_levelling() {
        let run = |policy| {
            let mut t = LsmTree::with_config(small_config(policy));
            for k in 0..20_000u64 {
                t.insert(k, k).unwrap();
            }
            (
                t.stats().compactions,
                t.tracker().snapshot().total_write_bytes(),
            )
        };
        let (lc, lw) = run(CompactionPolicy::Levelling);
        let (tc, tw) = run(CompactionPolicy::Tiering);
        let _ = (lc, tc);
        assert!(
            tw < lw,
            "tiering must write less than levelling: {tw} vs {lw}"
        );
    }

    #[test]
    fn insert_write_amplification_is_low() {
        // The headline LSM property: amortized insert cost ≪ B-tree's
        // page-per-insert.
        let mut t = LsmTree::with_config(LsmConfig {
            memtable_records: 1024,
            size_ratio: 4,
            policy: CompactionPolicy::Levelling,
            bloom_bits_per_key: 10.0,
            ..Default::default()
        });
        for k in 0..50_000u64 {
            t.insert(k, k).unwrap();
        }
        let s = t.tracker().snapshot();
        let uo = s.write_amplification();
        // Levelling UO ≈ T × levels; with T=4 and ~3-4 levels that is ~16,
        // far below the B-tree's B = 256.
        assert!(uo < 64.0, "write amplification {uo} unexpectedly high");
        assert!(uo > 1.0);
    }

    #[test]
    fn point_reads_probe_runs_not_levels_of_pages() {
        let mut t = LsmTree::with_config(LsmConfig {
            memtable_records: 1024,
            size_ratio: 4,
            policy: CompactionPolicy::Levelling,
            bloom_bits_per_key: 10.0,
            ..Default::default()
        });
        for k in 0..50_000u64 {
            t.insert(k, k).unwrap();
        }
        let before = t.tracker().snapshot();
        for k in (0..50_000u64).step_by(991) {
            assert_eq!(t.get(k).unwrap(), Some(k));
        }
        let probes = 50_000 / 991 + 1;
        let d = t.tracker().since(&before);
        let per_op = d.page_reads as f64 / probes as f64;
        // With blooms, most hits read ~1 page (the one run that has it).
        assert!(per_op < 4.0, "pages per point read: {per_op}");
    }

    #[test]
    fn blooms_cut_miss_cost() {
        let build = |bits: f64| {
            let mut t = LsmTree::with_config(LsmConfig {
                memtable_records: 512,
                size_ratio: 3,
                policy: CompactionPolicy::Tiering,
                bloom_bits_per_key: bits,
                ..Default::default()
            });
            for k in 0..20_000u64 {
                t.insert(k * 2, k).unwrap();
            }
            let before = t.tracker().snapshot();
            for k in 0..2000u64 {
                t.get(2 * k + 1).unwrap(); // in-domain misses
            }
            t.tracker().since(&before).page_reads
        };
        let with_bloom = build(10.0);
        let without = build(0.0);
        assert!(
            with_bloom * 5 < without,
            "blooms should cut miss reads: {with_bloom} vs {without}"
        );
    }

    #[test]
    fn range_spans_levels() {
        let mut t = LsmTree::with_config(small_config(CompactionPolicy::Tiering));
        for k in (0..3000u64).rev() {
            t.insert(k, k + 1).unwrap();
        }
        t.update(1500, 99).unwrap();
        t.delete(1501).unwrap();
        let rs = t.range(1498, 1503).unwrap();
        assert_eq!(
            rs,
            vec![
                Record::new(1498, 1499),
                Record::new(1499, 1500),
                Record::new(1500, 99),
                Record::new(1502, 1503),
                Record::new(1503, 1504),
            ]
        );
    }

    #[test]
    fn bulk_load_builds_single_run() {
        let recs: Vec<Record> = (0..10_000u64).map(|k| Record::new(k, k)).collect();
        let mut t = LsmTree::new();
        t.bulk_load(&recs).unwrap();
        let stats = t.stats();
        let total_runs: usize = stats.levels.iter().map(|&(r, _)| r).sum();
        assert_eq!(total_runs, 1);
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.get(5000).unwrap(), Some(5000));
    }

    #[test]
    fn tombstones_disappear_at_the_bottom() {
        let mut t = LsmTree::with_config(small_config(CompactionPolicy::Levelling));
        for k in 0..1000u64 {
            t.insert(k, k).unwrap();
        }
        for k in 0..1000u64 {
            t.delete(k).unwrap();
        }
        // Force everything through the hierarchy.
        AccessMethod::flush(&mut t).unwrap();
        let stats = t.stats();
        assert_eq!(t.len(), 0);
        // After full merges the bottom run should hold nothing (or nearly
        // nothing if intermediate levels still shelter tombstones).
        assert!(
            stats.total_entries <= 1000,
            "tombstone GC failed: {} entries",
            stats.total_entries
        );
        assert_eq!(t.range(0, u64::MAX).unwrap(), vec![]);
    }

    #[test]
    fn space_amplification_bounded_by_ratio() {
        let mut t = LsmTree::with_config(LsmConfig {
            memtable_records: 512,
            size_ratio: 4,
            policy: CompactionPolicy::Levelling,
            bloom_bits_per_key: 10.0,
            ..Default::default()
        });
        for k in 0..40_000u64 {
            t.insert(k, k).unwrap();
        }
        // Overwrite everything once to create shadowed versions.
        for k in 0..40_000u64 {
            t.update(k, k + 1).unwrap();
        }
        let mo = t.space_profile().space_amplification();
        assert!(mo < 3.0, "levelled MO should stay near T/(T-1): {mo}");
    }

    #[test]
    fn model_check_random_ops() {
        for policy in [CompactionPolicy::Levelling, CompactionPolicy::Tiering] {
            let mut t = LsmTree::with_config(small_config(policy));
            check(&mut t, &hostile_ops(71, 4000, 1200)).unwrap();
        }
    }

    #[test]
    fn rejects_tombstone_value() {
        let mut t = LsmTree::new();
        assert!(t.insert(1, TOMBSTONE).is_err());
    }

    #[test]
    fn larger_ratio_means_fewer_levels() {
        let depth = |ratio: usize| {
            let mut t = LsmTree::with_config(LsmConfig {
                memtable_records: 256,
                size_ratio: ratio,
                policy: CompactionPolicy::Levelling,
                bloom_bits_per_key: 10.0,
                ..Default::default()
            });
            for k in 0..40_000u64 {
                t.insert(k, k).unwrap();
            }
            // Depth = deepest level holding data (transiently empty upper
            // levels don't count against the hierarchy's depth).
            t.stats()
                .levels
                .iter()
                .rposition(|&(_, n)| n > 0)
                .map(|i| i + 1)
                .unwrap_or(0)
        };
        let deep = depth(2);
        let shallow = depth(10);
        assert!(shallow < deep, "T=10 ({shallow}) vs T=2 ({deep})");
        let _ = RECORDS_PER_PAGE;
    }

    #[test]
    fn pruned_run_charges_zero_reads() {
        // Two disjoint key clusters end up in separate runs under tiering
        // (no eager merging); a range inside one cluster must not charge
        // a single read byte against the other run.
        let mut t = LsmTree::with_config(LsmConfig {
            memtable_records: 64,
            size_ratio: 10,
            policy: CompactionPolicy::Tiering,
            bloom_bits_per_key: 0.0,
            ..Default::default()
        });
        for k in 0..64u64 {
            t.insert(k, k).unwrap();
        }
        AccessMethod::flush(&mut t).unwrap();
        for k in 10_000..10_064u64 {
            t.insert(k, k).unwrap();
        }
        AccessMethod::flush(&mut t).unwrap();
        let runs: usize = t.stats().levels.iter().map(|&(r, _)| r).sum();
        assert_eq!(runs, 2, "setup should leave two disjoint runs");
        // Cost of a range confined to the low cluster...
        let before = t.tracker().snapshot();
        assert_eq!(t.range(0, 63).unwrap().len(), 64);
        let with_other_run = t.tracker().since(&before);
        // ...equals the cost of the same range on a tree holding only
        // the low cluster: the disjoint run contributed zero reads.
        let mut solo = LsmTree::with_config(LsmConfig {
            memtable_records: 64,
            size_ratio: 10,
            policy: CompactionPolicy::Tiering,
            bloom_bits_per_key: 0.0,
            ..Default::default()
        });
        for k in 0..64u64 {
            solo.insert(k, k).unwrap();
        }
        AccessMethod::flush(&mut solo).unwrap();
        let before = solo.tracker().snapshot();
        assert_eq!(solo.range(0, 63).unwrap().len(), 64);
        let alone = solo.tracker().since(&before);
        assert_eq!(
            with_other_run.total_read_bytes(),
            alone.total_read_bytes(),
            "pruned run must charge zero reads"
        );
        assert_eq!(with_other_run.page_reads, alone.page_reads);
    }

    #[test]
    fn view_ranges_match_disabled_tree() {
        for policy in [CompactionPolicy::Levelling, CompactionPolicy::Tiering] {
            let mut plain = LsmTree::with_config(small_config(policy));
            let mut viewed = LsmTree::with_config(LsmConfig {
                sorted_view: true,
                ..small_config(policy)
            });
            for k in 0..1500u64 {
                for t in [&mut plain, &mut viewed] {
                    t.insert(k * 3 % 1501, k).unwrap();
                }
            }
            for k in (0..1500u64).step_by(7) {
                for t in [&mut plain, &mut viewed] {
                    t.delete(k).unwrap();
                }
            }
            for (lo, hi) in [(0, 1500), (100, 250), (1499, 1499), (0, u64::MAX)] {
                assert_eq!(
                    plain.range(lo, hi).unwrap(),
                    viewed.range(lo, hi).unwrap(),
                    "policy {policy:?} range {lo}..{hi}"
                );
            }
            // Results must also stay identical when the memtable holds
            // newer versions and tombstones than the viewed runs.
            for t in [&mut plain, &mut viewed] {
                t.insert(200, 9999).unwrap();
                t.delete(201).unwrap();
            }
            assert_eq!(
                plain.range(195, 205).unwrap(),
                viewed.range(195, 205).unwrap()
            );
        }
    }

    #[test]
    fn view_cuts_range_reads_and_costs_memory() {
        // The shape the view exists for: a big sorted base plus a trickle
        // of fresh runs that each span the whole key domain. The probe-
        // every-run path pays a fence search and a boundary page on every
        // fresh run for every query; the view touches only pages that
        // actually hold a newest version inside the range.
        let build = |view: bool| {
            let mut t = LsmTree::with_config(LsmConfig {
                memtable_records: 256,
                size_ratio: 8,
                policy: CompactionPolicy::Tiering,
                sorted_view: view,
                ..Default::default()
            });
            let recs: Vec<Record> = (0..30_000u64).map(|k| Record::new(k, k)).collect();
            t.bulk_load(&recs).unwrap();
            for k in 0..1200u64 {
                t.insert(k.wrapping_mul(7919) % 30_000, k).unwrap();
            }
            let before = t.tracker().snapshot();
            let mut total = 0usize;
            for lo in (0..29_000u64).step_by(500) {
                total += t.range(lo, lo + 15).unwrap().len();
            }
            assert_eq!(total, 58 * 16);
            (
                t.tracker().since(&before).total_read_bytes(),
                t.view_bytes(),
            )
        };
        let (ro_off, vb_off) = build(false);
        let (ro_on, vb_on) = build(true);
        assert_eq!(vb_off, 0);
        assert!(vb_on > 0, "enabled view must report resident bytes");
        assert!(
            ro_on * 2 <= ro_off,
            "view should at least halve range RO: {ro_on} vs {ro_off}"
        );
    }

    #[test]
    fn view_rebuild_is_charged_as_aux_writes() {
        let mut t = LsmTree::with_config(LsmConfig {
            memtable_records: 64,
            size_ratio: 3,
            sorted_view: true,
            ..Default::default()
        });
        for k in 0..1000u64 {
            t.insert(k, k).unwrap();
        }
        AccessMethod::flush(&mut t).unwrap();
        let before = t.tracker().snapshot();
        t.range(0, 10).unwrap(); // triggers the lazy build
        let d = t.tracker().since(&before);
        assert!(
            d.aux_write_bytes >= t.view_bytes(),
            "build must charge at least the view bytes as UO: {} vs {}",
            d.aux_write_bytes,
            t.view_bytes()
        );
        // The build's scan was re-classed: the only base reads surfaced
        // are the query's own single page, not the full-tree scan.
        assert!(d.page_reads <= 1, "build reads must land on UO, not RO");
        // A second range hits the cached view: no further build charge.
        let before = t.tracker().snapshot();
        t.range(0, 10).unwrap();
        assert_eq!(t.tracker().since(&before).aux_write_bytes, 0);
        // A flush leaves the anchors stale but resident: still MO.
        t.insert(5000, 1).unwrap();
        AccessMethod::flush(&mut t).unwrap();
        let stale = t.view_bytes();
        assert!(stale > 0, "a stale view is still resident memory");
        assert!(t.space_profile().total_bytes() > stale);
        // The next range refreshes them and pays for it as aux writes.
        let before = t.tracker().snapshot();
        t.range(0, 10).unwrap();
        let d = t.tracker().since(&before);
        assert_eq!(t.view_bytes(), stale + 16, "one new key, one new anchor");
        assert!(d.aux_write_bytes >= t.view_bytes());
        assert!(d.page_reads <= 1, "refresh reads must not land on RO");
        // Field for field what the merge-into-a-new-array refresh charged:
        // the added run's page, 1000 old and 1001 new anchors as aux
        // writes; the query's own page, anchor search and answer as reads.
        let page = rum_core::PAGE_SIZE as u64;
        assert_eq!(
            d,
            CostSnapshot {
                base_read_bytes: page,
                aux_read_bytes: 80,
                aux_write_bytes: page + 1000 * 16 + 1001 * 16,
                logical_read_bytes: 11 * 16,
                page_reads: 1,
                page_writes: 1,
                sim_time_ns: 1400,
                ..Default::default()
            }
        );
    }

    /// The anchors of `t`'s view, which must be current.
    fn anchors(t: &LsmTree) -> Vec<crate::view::ViewEntry> {
        assert!(t.view_current);
        t.view.as_ref().unwrap().anchors().to_vec()
    }

    /// What a from-scratch build over `t`'s runs yields. Reads through
    /// `t`'s pager on a throwaway tracker, so `t`'s charges do not move.
    fn cold_anchors(t: &mut LsmTree) -> Vec<crate::view::ViewEntry> {
        t.pager.set_tracker(CostTracker::new());
        let cold = SortedView::build(&mut t.pager, runs_oldest_first(&t.levels));
        t.pager.set_tracker(Arc::clone(&t.tracker));
        cold.unwrap().anchors().to_vec()
    }

    #[test]
    fn refresh_equals_cold_build() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for policy in [CompactionPolicy::Levelling, CompactionPolicy::Tiering] {
            for size_ratio in [2, 3] {
                let config = LsmConfig {
                    size_ratio,
                    ..small_config(policy)
                };
                let mut rng = StdRng::seed_from_u64(2100 + size_ratio as u64);
                let mut viewed = LsmTree::with_config(LsmConfig {
                    sorted_view: true,
                    ..config
                });
                let sink = rum_core::trace::MemorySink::shared();
                viewed.set_trace_sink(sink.clone());
                let mut oracle = Oracle::load(&mut viewed, &[]).unwrap();
                // A range the model agrees with, answered from anchors
                // equal to a cold rebuild's.
                let ranged = |viewed: &mut LsmTree, oracle: &mut Oracle, lo, hi| {
                    let held = oracle.step(viewed, Op::Range(lo, hi));
                    held.unwrap_or_else(|d| panic!("{policy:?} T={size_ratio}: {d:?}"));
                    assert_eq!(anchors(viewed), cold_anchors(viewed));
                };
                for step in 0..12_000u64 {
                    let k = rng.gen_range(0..900u64);
                    let op = match rng.gen_range(0..16) {
                        0..=5 => Op::Insert(k, step),
                        6..=8 => Op::Update(k, step),
                        9..=12 => Op::Delete(k),
                        13 => {
                            AccessMethod::flush(&mut viewed).unwrap();
                            continue;
                        }
                        // Rare enough that whole cascades (several flushes,
                        // merges into deeper levels) pass between two ranges.
                        _ if step % 32 == 0 => {
                            let hi = k + rng.gen_range(0..80u64);
                            ranged(&mut viewed, &mut oracle, k, hi);
                            continue;
                        }
                        _ => continue,
                    };
                    oracle.step(&mut viewed, op).unwrap();
                }
                // Delete everything: tombstones that reach the bottom are
                // dropped there and the rest shadow what lies deeper, so
                // either way the refreshed view must end with no anchor.
                ranged(&mut viewed, &mut oracle, 0, u64::MAX);
                for k in 0..900u64 {
                    oracle.step(&mut viewed, Op::Delete(k)).unwrap();
                }
                AccessMethod::flush(&mut viewed).unwrap();
                ranged(&mut viewed, &mut oracle, 0, u64::MAX);
                assert!(viewed.is_empty() && anchors(&viewed).is_empty());
                let field = |e: &rum_core::trace::Event, name| {
                    e.detail.iter().find(|&&(k, _)| k == name).unwrap().1
                };
                let refreshes: Vec<(u64, u64)> = sink
                    .events()
                    .iter()
                    .filter(|e| e.kind == EventKind::LsmViewBuild)
                    .map(|e| (field(e, "added_runs"), field(e, "dropped_runs")))
                    .collect();
                assert!(refreshes.len() > 20, "{refreshes:?}");
                assert!(
                    refreshes
                        .iter()
                        .any(|&(added, dropped)| added >= 2 && dropped >= 2),
                    "no refresh absorbed a whole cascade: {refreshes:?}"
                );
            }
        }
    }

    #[test]
    fn view_refresh_reads_only_new_runs() {
        let mut t = LsmTree::with_config(LsmConfig {
            sorted_view: true,
            ..small_config(CompactionPolicy::Tiering)
        });
        let recs: Vec<Record> = (0..3000u64).map(|k| Record::new(k * 2, k)).collect();
        t.bulk_load(&recs).unwrap();
        // The cold build charges, number for number, what the from-scratch
        // rebuild it replaced charged: every page scanned once in order,
        // re-classed as page writes, plus the anchors.
        let before = t.tracker().snapshot();
        t.range(0, 10).unwrap();
        let pages = 3000u64.div_ceil(RECORDS_PER_PAGE as u64);
        let scan = pages * rum_core::PAGE_SIZE as u64;
        assert_eq!(
            t.tracker().since(&before),
            CostSnapshot {
                base_read_bytes: rum_core::PAGE_SIZE as u64,
                aux_read_bytes: 12 * 8,
                aux_write_bytes: scan + 3000 * 16,
                logical_read_bytes: 6 * 16,
                page_reads: 1,
                page_writes: pages,
                sim_time_ns: 6400,
                ..Default::default()
            }
        );
        // One flush adds one run; the refresh scans that run and no other.
        for k in 0..64u64 {
            t.insert(k * 2 + 1, k).unwrap();
        }
        assert_eq!(t.stats().levels[0], (1, 64));
        let added_pages = t.levels[0][0].num_pages() as u64;
        let before = t.tracker().snapshot();
        t.range(6001, 6002).unwrap(); // nothing there: the refresh alone
        let d = t.tracker().since(&before);
        assert_eq!(d.page_writes, added_pages);
        assert_eq!(d.page_reads, 0);
        assert_eq!(
            d.aux_write_bytes,
            added_pages * rum_core::PAGE_SIZE as u64 + 3000 * 16 + 3064 * 16,
            "added-run scan + old anchors consumed + new anchors written"
        );
    }

    #[test]
    fn garbled_page_under_a_current_view_is_an_error() {
        let mut t = LsmTree::with_config(LsmConfig {
            sorted_view: true,
            ..small_config(CompactionPolicy::Levelling)
        });
        for k in 0..2000u64 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.range(0, 5000).unwrap().len(), 2000);
        assert!(t.view_current);
        // Overwrite every run page behind the view's back.
        let mut junk = rum_storage::PageBuf::zeroed();
        junk.as_mut_slice().fill(0xA5);
        for id in 0..64 {
            let _ = t.device_mut().write_page(rum_storage::PageId(id), &junk);
        }
        for (lo, hi) in [(0, 5000), (100, 110), (1000, 1000)] {
            let err = t.range(lo, hi).unwrap_err();
            assert!(matches!(err, RumError::Corrupt(_)), "{lo}..{hi}: {err:?}");
        }
    }

    #[test]
    fn failed_refresh_leaves_the_view_as_it_was() {
        let mut t = LsmTree::with_config(LsmConfig {
            sorted_view: true,
            ..small_config(CompactionPolicy::Tiering)
        });
        for k in 0..64u64 {
            t.insert(k * 2, k).unwrap(); // the 64th insert flushes run 1
        }
        assert_eq!(t.range(0, 10).unwrap().len(), 6);
        // Nothing has been freed, so the next run's pages are the next ids.
        let first_new_page = t.device().live_pages() as u64;
        for k in 0..64u64 {
            t.insert(k * 2 + 1, k).unwrap(); // flushes run 2, no compaction
        }
        assert_eq!(t.stats().levels[0], (2, 128));
        let before = t.view.as_ref().unwrap().anchors().to_vec();
        let bytes = t.view_bytes();
        assert!(!t.view_current);
        t.device_mut()
            .free(rum_storage::PageId(first_new_page))
            .unwrap();
        let err = t.range(0, 10).unwrap_err();
        assert!(matches!(err, RumError::Storage(_)), "{err:?}");
        assert_eq!(t.view.as_ref().unwrap().anchors(), &before[..]);
        assert!(!t.view_current);
        assert_eq!(t.view_bytes(), bytes);
    }

    #[test]
    fn view_events_tell_a_cold_build_from_a_refresh() {
        let sink = rum_core::trace::MemorySink::shared();
        let mut t = LsmTree::with_config(LsmConfig {
            sorted_view: true,
            ..small_config(CompactionPolicy::Tiering)
        });
        t.set_trace_sink(sink.clone());
        for k in 0..100u64 {
            t.insert(k, k).unwrap();
        }
        AccessMethod::flush(&mut t).unwrap(); // runs: 64 + 36 records
        t.range(0, 10).unwrap();
        for k in 100..164u64 {
            t.insert(k, k).unwrap(); // third run: level 0 compacts to one
        }
        t.range(0, 10).unwrap();
        let events = sink.events();
        let of = |kind| events.iter().filter(move |e| e.kind == kind);
        assert_eq!(of(EventKind::LsmViewInvalidate).count(), 1);
        let builds: Vec<_> = of(EventKind::LsmViewBuild)
            .map(|e| e.detail.clone())
            .collect();
        let page = rum_core::PAGE_SIZE as u64;
        assert_eq!(
            builds,
            vec![
                vec![
                    ("entries", 100),
                    ("bytes", 1600),
                    ("read_bytes", 2 * page),
                    ("added_runs", 2),
                    ("dropped_runs", 0),
                    ("scanned_pages", 2),
                ],
                vec![
                    ("entries", 164),
                    ("bytes", 164 * 16),
                    ("read_bytes", page),
                    ("added_runs", 1),
                    ("dropped_runs", 2),
                    ("scanned_pages", 1),
                ],
            ]
        );
    }

    #[test]
    fn quotient_filter_matches_bloom_semantics() {
        let build = |filter: FilterKind, bits: f64| {
            let mut t = LsmTree::with_config(LsmConfig {
                memtable_records: 256,
                size_ratio: 3,
                policy: CompactionPolicy::Tiering,
                filter,
                bloom_bits_per_key: bits,
                ..Default::default()
            });
            for k in 0..10_000u64 {
                t.insert(k * 2, k).unwrap();
            }
            // Hits stay correct under either filter...
            for k in 0..1000u64 {
                assert_eq!(t.get(4 * k).unwrap(), Some(2 * k));
            }
            // ...and out-of-domain misses price the filter's worth.
            let before = t.tracker().snapshot();
            for k in 0..1000u64 {
                assert_eq!(t.get(2 * (k + 20_000) + 1).unwrap(), None);
            }
            let miss_reads = t.tracker().since(&before).page_reads;
            (miss_reads, t.space_profile().total_bytes())
        };
        let (bloom_reads, bloom_bytes) = build(FilterKind::Bloom, 10.0);
        let (q_reads, q_bytes) = build(FilterKind::Quotient { rbits: 10 }, 10.0);
        let (bare_reads, bare_bytes) = build(FilterKind::Bloom, 0.0);
        // Both filter kinds prune the vast majority of miss probes.
        assert!(
            bloom_reads * 5 < bare_reads,
            "{bloom_reads} vs {bare_reads}"
        );
        assert!(q_reads * 5 < bare_reads, "{q_reads} vs {bare_reads}");
        // Both charge their resident bytes as space (MO above filterless).
        assert!(bloom_bytes > bare_bytes);
        assert!(q_bytes > bare_bytes);
    }
}
