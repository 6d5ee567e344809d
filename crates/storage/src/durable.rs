//! [`Durable<M>`] — crash consistency as a composable wrapper.
//!
//! Any [`AccessMethod`] becomes crash-consistent by wrapping it: every
//! mutation is appended to a [`Wal`] and synced *before* it touches the
//! inner structure (write-ahead), and a commit marker is synced *after*
//! the apply succeeds. An operation is committed — guaranteed to survive
//! recovery — exactly when its caller got `Ok`. [`Durable::flush`]
//! checkpoints the live contents and truncates the log;
//! [`Durable::recover`] rebuilds a fresh inner structure from checkpoint
//! plus the committed WAL prefix.
//!
//! All durability traffic (WAL syncs and checkpoint writes) is charged to
//! the method's [`CostTracker`] as auxiliary
//! writes, so the wrapped method's UO honestly includes the price of its
//! logging protocol — the RUM cost the paper folds into write
//! amplification. [`Durable::logging_bytes`] reports that extra traffic
//! exactly (WAL syncs plus checkpoints). The crash-matrix bench holds
//! the WAL's share to the op-phase write delta:
//! `UO(with WAL) − UO(without) == wal().synced_total() / logical_write_bytes`.

use std::sync::Arc;

use rum_core::trace::{EventKind, TraceSink};
use rum_core::{
    base_bytes, succeed, AccessMethod, CostTracker, Key, Record, Result, RumError, SpaceProfile,
    Value,
};

use crate::fault::FaultInjector;
use crate::wal::{log_write, Wal, WalEntry};

/// Quarantine-rebuild cycles one operation may consume before detected
/// corruption is surfaced to the caller (see
/// [`Durable`]'s internal `with_healing`). Bounded so actively decaying
/// storage degrades into an error, not an infinite repair loop.
pub const MAX_HEAL_CYCLES: usize = 3;

/// What [`Durable::recover`] rebuilt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed WAL records re-applied to the fresh structure.
    pub committed_ops: usize,
    /// Sequence number of the last commit marker found, if any.
    pub last_commit_seq: Option<u64>,
    /// Whether the log ended in a torn/corrupt frame (detected, discarded).
    pub torn_tail: bool,
    /// Valid but uncommitted records discarded (trailing suffix of an
    /// in-flight op, or leftovers of an op that failed mid-apply).
    pub uncommitted_discarded: usize,
    /// Whether every committed record was re-applied. Only
    /// [`Durable::recover_prefix`] (used to model a crash *during*
    /// recovery) can leave this `false`.
    pub complete: bool,
}

/// A crash-consistent wrapper around any [`AccessMethod`].
///
/// The `factory` rebuilds an empty inner structure during recovery — a
/// simulated reboot gets a cold structure, then replays checkpoint +
/// committed log. The factory must produce a structure configured
/// identically to the original (same name, same parameters).
pub struct Durable<M: AccessMethod> {
    inner: M,
    factory: Box<dyn Fn() -> M + Send>,
    wal: Wal,
    /// Live contents as of the last checkpoint ([`flush`](Self::flush) or
    /// bulk load); recovery starts from here.
    checkpoint: Vec<Record>,
    /// Cumulative auxiliary bytes charged for checkpoints.
    checkpoint_bytes: u64,
    next_seq: u64,
    /// Whether the WAL holds committed work not yet captured in the
    /// checkpoint (drives checkpoint-on-flush and makes a second
    /// consecutive flush free).
    dirty: bool,
    /// Structured-event channel for checkpoint/recovery events; the
    /// disabled [`NoopSink`](rum_core::trace::NoopSink) by default.
    sink: Arc<dyn TraceSink>,
}

impl<M: AccessMethod> Durable<M> {
    /// Wrap the method `factory` builds, logging to a fault-free WAL.
    pub fn new(factory: impl Fn() -> M + Send + 'static) -> Self {
        Self::build(factory, None)
    }

    /// Wrap with a [`FaultInjector`] armed on the WAL's sync path.
    pub fn with_injector(
        factory: impl Fn() -> M + Send + 'static,
        injector: Arc<FaultInjector>,
    ) -> Self {
        Self::build(factory, Some(injector))
    }

    fn build(
        factory: impl Fn() -> M + Send + 'static,
        injector: Option<Arc<FaultInjector>>,
    ) -> Self {
        let inner = factory();
        let tracker = Arc::clone(inner.tracker());
        let wal = match injector {
            Some(inj) => Wal::with_injector(tracker, inj),
            None => Wal::new(tracker),
        };
        Durable {
            inner,
            factory: Box::new(factory),
            wal,
            checkpoint: Vec::new(),
            checkpoint_bytes: 0,
            next_seq: 0,
            dirty: false,
            sink: rum_core::trace::noop_sink(),
        }
    }

    /// The wrapped structure.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The write-ahead log.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Sequence number of the last committed operation, if any.
    pub fn last_committed_seq(&self) -> Option<u64> {
        self.next_seq.checked_sub(1)
    }

    /// Total auxiliary bytes this wrapper has charged for durability: WAL
    /// syncs plus checkpoint writes. This is exactly the write-byte delta
    /// against the bare inner method on the same workload.
    pub fn logging_bytes(&self) -> u64 {
        self.wal.synced_total() + self.checkpoint_bytes
    }

    /// Charge a checkpoint of `records` records at the log price and trace
    /// it.
    fn charge_checkpoint(&mut self, records: usize) {
        let bytes = base_bytes(records);
        log_write(self.inner.tracker(), 0, bytes);
        self.checkpoint_bytes += bytes;
        if self.sink.enabled() {
            self.sink.emit(
                EventKind::WalCheckpoint,
                &[("records", records as u64), ("bytes", bytes)],
            );
        }
    }

    /// The write-ahead protocol for one mutation: log the record, sync it,
    /// apply, then sync a commit marker covering exactly this record. An
    /// apply failure leaves the record uncovered in the log — replay will
    /// discard it, never resurrect it. Detected corruption during the
    /// apply quarantines the inner structure, rebuilds it from the
    /// checkpoint plus the committed WAL prefix, and retries the whole
    /// sequence on the healed structure, up to [`MAX_HEAL_CYCLES`] times
    /// (the aborted attempts' records stay uncommitted forever).
    fn log_write<T>(&mut self, entry: WalEntry, apply: impl Fn(&mut M) -> Result<T>) -> Result<T> {
        self.with_healing(|d| d.log_write_once(entry, &apply))
    }

    fn log_write_once<T>(
        &mut self,
        entry: WalEntry,
        apply: impl Fn(&mut M) -> Result<T>,
    ) -> Result<T> {
        self.wal.append(&entry);
        self.wal.sync()?;
        let out = apply(&mut self.inner)?;
        self.wal.append(&WalEntry::Commit {
            seq: self.next_seq,
            count: 1,
        });
        self.wal.sync()?;
        self.next_seq += 1;
        self.dirty = true;
        Ok(out)
    }

    /// Read-path healing: run `op` against the inner structure; on
    /// detected corruption, quarantine + rebuild, then retry (bounded).
    fn read_healing<T>(&mut self, op: impl Fn(&mut M) -> Result<T>) -> Result<T> {
        self.with_healing(|d| op(&mut d.inner))
    }

    /// Run `op`, quarantining + rebuilding on every detected corruption,
    /// up to [`MAX_HEAL_CYCLES`] rebuilds. More than one cycle is needed
    /// when the storage is actively decaying: a rebuild writes fresh
    /// pages, and those very pages can be silently damaged before the
    /// retried operation reads them back. Persistent corruption beyond
    /// the bound surfaces as the final [`RumError::CorruptPage`] — the
    /// caller learns the storage is unsalvageable, never wrong data.
    fn with_healing<T>(&mut self, op: impl Fn(&mut Self) -> Result<T>) -> Result<T> {
        let mut last = op(self);
        for _ in 0..MAX_HEAL_CYCLES {
            match last {
                Err(RumError::CorruptPage { .. }) => {
                    self.repair()?;
                    last = op(self);
                }
                other => return other,
            }
        }
        last
    }

    /// Quarantine and rebuild after detected corruption: the inner
    /// structure's physical pages can no longer be trusted, so it is
    /// discarded wholesale and reborn from the checkpoint plus the
    /// committed WAL prefix — fresh storage, corrupted pages abandoned.
    /// The rebuild's I/O is charged to the shared tracker like any
    /// recovery. (Detection itself is traced where it happened, at the
    /// pager; this emits the matching [`EventKind::RepairComplete`].)
    pub fn repair(&mut self) -> Result<RecoveryReport> {
        let report = self.recover()?;
        if self.sink.enabled() {
            self.sink.emit(
                EventKind::RepairComplete,
                &[
                    ("committed_ops", report.committed_ops as u64),
                    ("checkpoint_records", self.checkpoint.len() as u64),
                ],
            );
        }
        Ok(report)
    }

    /// Simulated reboot: rebuild a fresh structure from the checkpoint plus
    /// the entire committed WAL prefix. Idempotent — recovering twice
    /// yields the same structure and the same space profile.
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        self.recover_prefix(usize::MAX)
    }

    /// Recovery that stops after re-applying at most `max_ops` committed
    /// records — models a crash *during* recovery. A subsequent full
    /// [`recover`](Self::recover) starts over from the same durable state
    /// and completes the job.
    pub fn recover_prefix(&mut self, max_ops: usize) -> Result<RecoveryReport> {
        let replay = self.wal.replay();
        let before = self.inner.tracker().snapshot();
        let mut fresh = (self.factory)();
        // The reborn structure inherits the history of charges and the
        // trace sink, then pays for its own recovery I/O on top.
        succeed(&mut fresh, self.inner.tracker(), &self.sink);
        if !self.checkpoint.is_empty() {
            fresh.bulk_load_impl(&self.checkpoint)?;
        }
        let applied = replay.committed.len().min(max_ops);
        for entry in &replay.committed[..applied] {
            apply_entry(&mut fresh, entry)?;
        }
        self.wal.set_tracker(Arc::clone(fresh.tracker()));
        self.inner = fresh;
        let complete = applied == replay.committed.len();
        if complete {
            // Cut any torn tail so post-recovery appends follow valid
            // frames (idempotent: the valid prefix is already durable).
            self.wal.truncate_torn_tail(replay.valid_len);
            self.next_seq = replay.last_commit_seq.map_or(0, |s| s + 1);
            self.dirty = !replay.committed.is_empty();
        }
        if self.sink.enabled() {
            // The reborn tracker = inherited history + recovery I/O, so
            // the delta against the pre-recovery snapshot is exactly what
            // the rebuild cost — the bytes a debt ledger should charge
            // back to the writes being replayed.
            let d = self.inner.tracker().snapshot().delta(&before);
            self.sink.emit(
                EventKind::WalRecovery,
                &[
                    ("committed_ops", applied as u64),
                    ("torn", u64::from(replay.torn_tail)),
                    ("discarded", replay.uncommitted as u64),
                    ("complete", u64::from(complete)),
                    ("bytes", d.total_write_bytes()),
                    ("read_bytes", d.total_read_bytes()),
                ],
            );
        }
        Ok(RecoveryReport {
            committed_ops: applied,
            last_commit_seq: replay.last_commit_seq,
            torn_tail: replay.torn_tail,
            uncommitted_discarded: replay.uncommitted,
            complete,
        })
    }
}

/// Re-apply one committed WAL record to a structure.
fn apply_entry<M: AccessMethod>(method: &mut M, entry: &WalEntry) -> Result<()> {
    match *entry {
        WalEntry::Insert { key, value } => method.insert_impl(key, value),
        WalEntry::Update { key, value } => method.update_impl(key, value).map(|_| ()),
        WalEntry::Delete { key } => method.delete_impl(key).map(|_| ()),
        WalEntry::Commit { .. } => Ok(()),
    }
}

impl<M: AccessMethod> AccessMethod for Durable<M> {
    fn name(&self) -> String {
        format!("{}+wal", self.inner.name())
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        self.inner.tracker()
    }

    fn space_profile(&self) -> SpaceProfile {
        let mut profile = self.inner.space_profile();
        profile.aux_bytes += self.wal.total_len() + base_bytes(self.checkpoint.len());
        profile
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        self.read_healing(|m| m.get_impl(key))
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        self.read_healing(|m| m.range_impl(lo, hi))
    }

    /// The inner method's reservations, asked before anything is logged.
    fn check_records(&self, records: &[Record]) -> Result<()> {
        self.inner.check_records(records)
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        self.log_write(WalEntry::Insert { key, value }, |m| {
            m.insert_impl(key, value)
        })
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        self.log_write(WalEntry::Update { key, value }, |m| {
            m.update_impl(key, value)
        })
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        self.log_write(WalEntry::Delete { key }, |m| m.delete_impl(key))
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        self.inner.bulk_load_impl(records)?;
        // The load itself is the checkpoint: nothing to replay.
        self.checkpoint = records.to_vec();
        self.wal.truncate();
        self.charge_checkpoint(records.len());
        self.next_seq = 0;
        self.dirty = false;
        Ok(())
    }

    /// Checkpoint: flush the inner structure, persist its live contents,
    /// and truncate the log. A second consecutive flush performs zero
    /// additional physical writes.
    fn flush(&mut self) -> Result<()> {
        self.inner.flush()?;
        self.wal.sync()?;
        if self.dirty {
            self.checkpoint = self.inner.range_impl(0, Key::MAX)?;
            self.charge_checkpoint(self.checkpoint.len());
            self.wal.truncate();
            self.dirty = false;
        }
        Ok(())
    }

    fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.inner.set_trace_sink(Arc::clone(&sink));
        self.wal.set_trace_sink(Arc::clone(&sink));
        self.sink = sink;
    }

    /// A durable wrapper can always heal itself: rebuild from checkpoint
    /// + committed WAL prefix, exactly the acked state.
    fn try_heal(&mut self) -> Result<bool> {
        self.repair()?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjector, FaultPlan};
    use rum_core::oracle::Oracle;
    use rum_core::workload::Op;
    use rum_core::RumError;
    use std::collections::BTreeMap;

    /// Minimal correct method for exercising the wrapper.
    struct Toy {
        data: BTreeMap<Key, Value>,
        tracker: Arc<CostTracker>,
    }

    impl Toy {
        fn new() -> Self {
            Toy {
                data: BTreeMap::new(),
                tracker: CostTracker::new(),
            }
        }
    }

    impl AccessMethod for Toy {
        fn name(&self) -> String {
            "toy".into()
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
            Ok(self.data.get(&key).copied())
        }
        fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
            Ok(self
                .data
                .range(lo..=hi)
                .map(|(&k, &v)| Record::new(k, v))
                .collect())
        }
        fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
            self.tracker.write_records(1);
            self.data.insert(key, value);
            Ok(())
        }
        fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
            match self.data.get_mut(&key) {
                Some(v) => {
                    self.tracker.write_records(1);
                    *v = value;
                    Ok(true)
                }
                None => Ok(false),
            }
        }
        fn delete_impl(&mut self, key: Key) -> Result<bool> {
            Ok(self.data.remove(&key).is_some())
        }
        fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
            self.tracker.write_records(records.len());
            self.data = records.iter().map(|r| (r.key, r.value)).collect();
            Ok(())
        }
    }

    fn contents<M: AccessMethod>(m: &mut M) -> Vec<Record> {
        m.range_impl(0, Key::MAX).unwrap()
    }

    #[test]
    fn writes_are_logged_and_charged_as_aux() {
        let mut d = Durable::new(Toy::new);
        d.insert(1, 10).unwrap();
        d.update(1, 11).unwrap();
        d.delete(1).unwrap();
        assert_eq!(d.last_committed_seq(), Some(2));
        let s = d.tracker().snapshot();
        assert_eq!(s.aux_write_bytes, d.wal().synced_total());
        assert!(s.aux_write_bytes > 0, "WAL traffic must be visible in UO");
        assert_eq!(d.logging_bytes(), s.aux_write_bytes);
    }

    #[test]
    fn each_checkpoint_is_charged_and_traced_once() {
        let mut d = Durable::new(Toy::new);
        let sink = rum_core::trace::MemorySink::shared();
        d.set_trace_sink(Arc::clone(&sink) as _);
        let records: Vec<Record> = (0..10u64).map(|k| Record::new(k, k)).collect();
        d.bulk_load(&records).unwrap();
        d.insert(20, 1).unwrap();
        d.flush().unwrap();
        d.flush().unwrap(); // clean: no second checkpoint
        let checkpoints: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::WalCheckpoint)
            .map(|e| e.detail)
            .collect();
        assert_eq!(
            checkpoints,
            vec![
                vec![("records", 10), ("bytes", base_bytes(10))],
                vec![("records", 11), ("bytes", base_bytes(11))],
            ]
        );
        assert_eq!(
            d.logging_bytes(),
            d.wal().synced_total() + base_bytes(10) + base_bytes(11)
        );
    }

    #[test]
    fn recover_replays_the_committed_prefix() {
        let mut d = Durable::new(Toy::new);
        for k in 0..10u64 {
            d.insert(k, k * 10).unwrap();
        }
        d.delete(3).unwrap();
        d.update(4, 999).unwrap();
        let before = contents(&mut d);
        let report = d.recover().unwrap();
        assert!(report.complete);
        assert!(!report.torn_tail);
        assert_eq!(report.committed_ops, 12);
        assert_eq!(report.uncommitted_discarded, 0);
        assert_eq!(contents(&mut d), before, "recovery is lossless");
        // And idempotent: a second recovery changes nothing.
        let profile = d.space_profile();
        d.recover().unwrap();
        assert_eq!(contents(&mut d), before);
        assert_eq!(d.space_profile(), profile);
    }

    #[test]
    fn crash_mid_sync_recovers_exactly_the_committed_prefix() {
        // First, learn the full WAL footprint of the op sequence.
        let mut reference = Durable::new(Toy::new);
        for k in 0..20u64 {
            reference.insert(k, k).unwrap();
        }
        let total = reference.wal().synced_total();
        // Crash at every byte of that footprint.
        for cut in 0..total {
            for torn in [false, true] {
                let plan = if torn {
                    FaultPlan::torn_at(cut)
                } else {
                    FaultPlan::crash_at(cut)
                };
                let mut d = Durable::with_injector(Toy::new, FaultInjector::new(plan));
                let mut oracle = Oracle::load(&mut d, &[]).unwrap();
                let inserts = (0..20u64).map(|k| Op::Insert(k, k));
                let committed = oracle.step_until_crash(&mut d, inserts).unwrap();
                assert!(committed < 20, "cut={cut} must interrupt some sync");
                let report = d.recover().unwrap();
                assert!(report.complete);
                assert_eq!(
                    report.committed_ops, committed,
                    "cut={cut} torn={torn}: recovery must match acknowledged ops"
                );
                let held = oracle.finish(&mut d);
                held.unwrap_or_else(|e| panic!("cut={cut} torn={torn}: {e:?}"));
            }
        }
    }

    #[test]
    fn failed_commit_flush_means_the_op_never_happened() {
        // Flush #2 is the commit-marker sync of the first insert: the data
        // record is durable but uncovered, so recovery must drop it.
        let inj = FaultInjector::new(FaultPlan::fail_flush(2));
        let mut d = Durable::with_injector(Toy::new, inj);
        assert!(matches!(d.insert(1, 10), Err(RumError::Crash(_))));
        let report = d.recover().unwrap();
        assert_eq!(report.committed_ops, 0);
        assert_eq!(report.uncommitted_discarded, 1);
        assert_eq!(contents(&mut d), vec![]);
        // The structure still works after the power event.
        d.insert(2, 20).unwrap();
        d.recover().unwrap();
        assert_eq!(contents(&mut d), vec![Record::new(2, 20)]);
    }

    #[test]
    fn flush_checkpoints_truncates_and_is_idempotent() {
        let mut d = Durable::new(Toy::new);
        for k in 0..8u64 {
            d.insert(k, k).unwrap();
        }
        assert!(d.wal().durable_len() > 0);
        d.flush().unwrap();
        assert_eq!(d.wal().durable_len(), 0, "checkpoint truncates the log");
        let before = d.tracker().snapshot();
        d.flush().unwrap();
        let delta = d.tracker().since(&before);
        assert_eq!(delta.total_write_bytes(), 0, "second flush writes nothing");
        assert_eq!(delta.page_writes, 0);
        // Recovery now comes purely from the checkpoint.
        let report = d.recover().unwrap();
        assert_eq!(report.committed_ops, 0);
        assert_eq!(contents(&mut d).len(), 8);
    }

    #[test]
    fn bulk_load_is_a_checkpoint() {
        let mut d = Durable::new(Toy::new);
        d.insert(99, 1).unwrap();
        let records: Vec<Record> = (0..5u64).map(|k| Record::new(k, k)).collect();
        d.bulk_load(&records).unwrap();
        assert_eq!(d.wal().durable_len(), 0, "load resets the log");
        d.recover().unwrap();
        assert_eq!(contents(&mut d), records, "pre-load state is gone");
    }

    #[test]
    fn crash_during_recovery_then_full_recovery_converges() {
        let mut d = Durable::new(Toy::new);
        for k in 0..10u64 {
            d.insert(k, k).unwrap();
        }
        let want = contents(&mut d);
        for partial in 0..10usize {
            let report = d.recover_prefix(partial).unwrap();
            assert!(!report.complete);
            let report = d.recover().unwrap();
            assert!(report.complete);
            assert_eq!(report.committed_ops, 10);
            assert_eq!(contents(&mut d), want, "partial={partial}");
        }
    }

    #[test]
    fn torn_tail_is_cut_so_later_commits_survive() {
        // Crash with a torn final frame, recover, keep writing: the new
        // commits must be visible to a second recovery (the torn bytes
        // were trimmed, not buried).
        let mut reference = Durable::new(Toy::new);
        reference.insert(1, 10).unwrap();
        let one_op = reference.wal().synced_total();
        let inj = FaultInjector::new(FaultPlan::torn_at(one_op + 10));
        let mut d = Durable::with_injector(Toy::new, inj);
        d.insert(1, 10).unwrap();
        assert!(matches!(d.insert(2, 20), Err(RumError::Crash(_))));
        let report = d.recover().unwrap();
        assert!(report.torn_tail, "the tear must be detected");
        assert_eq!(report.committed_ops, 1);
        d.insert(3, 30).unwrap();
        d.recover().unwrap();
        assert_eq!(
            contents(&mut d),
            vec![Record::new(1, 10), Record::new(3, 30)]
        );
    }

    /// A method whose reads/applies report detected corruption until the
    /// factory rebuilds it — the storage-level stand-in for a flipped bit
    /// under a checksum seal.
    struct Rotten {
        inner: Toy,
        bad: Arc<std::sync::atomic::AtomicBool>,
    }
    impl Rotten {
        fn check(&self) -> Result<()> {
            if self.bad.load(std::sync::atomic::Ordering::Relaxed) {
                Err(RumError::CorruptPage {
                    id: 42,
                    stored: 1,
                    computed: 2,
                })
            } else {
                Ok(())
            }
        }
    }
    impl AccessMethod for Rotten {
        fn name(&self) -> String {
            "rotten".into()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn tracker(&self) -> &Arc<CostTracker> {
            self.inner.tracker()
        }
        fn space_profile(&self) -> SpaceProfile {
            self.inner.space_profile()
        }
        fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
            self.check()?;
            self.inner.get_impl(key)
        }
        fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
            self.check()?;
            self.inner.range_impl(lo, hi)
        }
        fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
            self.check()?;
            self.inner.insert_impl(key, value)
        }
        fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
            self.check()?;
            self.inner.update_impl(key, value)
        }
        fn delete_impl(&mut self, key: Key) -> Result<bool> {
            self.check()?;
            self.inner.delete_impl(key)
        }
        fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
            self.inner.bulk_load_impl(records)
        }
    }

    /// A factory over a shared rot flag: instances share it, and recovery
    /// (fresh physical storage) clears it — like abandoning bad pages.
    fn rotten_factory() -> (
        impl Fn() -> Rotten + Send + 'static,
        Arc<std::sync::atomic::AtomicBool>,
    ) {
        let bad = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let shared = Arc::clone(&bad);
        let factory = move || {
            // A rebuilt instance starts on clean storage.
            shared.store(false, std::sync::atomic::Ordering::Relaxed);
            Rotten {
                inner: Toy::new(),
                bad: Arc::clone(&shared),
            }
        };
        (factory, bad)
    }

    #[test]
    fn detected_corruption_on_read_heals_to_the_acked_state() {
        let (factory, bad) = rotten_factory();
        let mut d = Durable::new(factory);
        let sink = rum_core::trace::MemorySink::shared();
        d.set_trace_sink(Arc::clone(&sink) as _);
        for k in 0..12u64 {
            d.insert(k, k * 7).unwrap();
        }
        bad.store(true, std::sync::atomic::Ordering::Relaxed);
        // The read heals transparently: quarantine, rebuild from WAL,
        // retry — and serves the acked value.
        assert_eq!(d.get(5).unwrap(), Some(35));
        assert_eq!(contents(&mut d).len(), 12, "all acked ops survived");
        let repairs = sink
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::RepairComplete)
            .count();
        assert_eq!(repairs, 1, "exactly one repair cycle");
        // And the structure keeps serving afterwards.
        d.insert(100, 1).unwrap();
        assert_eq!(d.get(100).unwrap(), Some(1));
    }

    #[test]
    fn detected_corruption_mid_apply_heals_and_retries_the_write() {
        let (factory, bad) = rotten_factory();
        let mut d = Durable::new(factory);
        for k in 0..6u64 {
            d.insert(k, k).unwrap();
        }
        bad.store(true, std::sync::atomic::Ordering::Relaxed);
        // The apply hits corruption after the record is logged: heal,
        // re-log, re-apply. The caller just sees Ok.
        d.insert(50, 500).unwrap();
        assert_eq!(d.get(50).unwrap(), Some(500));
        // The aborted first record stays uncommitted forever: recovery
        // reports it discarded and the contents stay exactly the acked set.
        let report = d.recover().unwrap();
        assert!(report.uncommitted_discarded >= 1, "aborted record dropped");
        let mut want: Vec<Record> = (0..6u64).map(|k| Record::new(k, k)).collect();
        want.push(Record::new(50, 500));
        assert_eq!(contents(&mut d), want);
    }

    #[test]
    fn try_heal_rebuilds_a_durable_method() {
        let (factory, _bad) = rotten_factory();
        let mut d = Durable::new(factory);
        for k in 0..4u64 {
            d.insert(k, k + 1).unwrap();
        }
        assert!(d.try_heal().unwrap(), "durable methods can heal");
        assert_eq!(
            contents(&mut d),
            (0..4u64).map(|k| Record::new(k, k + 1)).collect::<Vec<_>>()
        );
        // The default implementation reports no capability.
        let mut toy = Toy::new();
        assert!(!toy.try_heal().unwrap());
    }

    #[test]
    fn failed_apply_is_never_resurrected() {
        /// A method whose nth insert fails after the WAL already holds the
        /// record — the aborted record must stay uncommitted forever.
        struct Flaky {
            inner: Toy,
            fail_at: usize,
            inserts: usize,
        }
        impl AccessMethod for Flaky {
            fn name(&self) -> String {
                "flaky".into()
            }
            fn len(&self) -> usize {
                self.inner.len()
            }
            fn tracker(&self) -> &Arc<CostTracker> {
                self.inner.tracker()
            }
            fn space_profile(&self) -> SpaceProfile {
                self.inner.space_profile()
            }
            fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
                self.inner.get_impl(key)
            }
            fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
                self.inner.range_impl(lo, hi)
            }
            fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
                self.inserts += 1;
                if self.inserts == self.fail_at {
                    return Err(RumError::Storage("injected apply failure".into()));
                }
                self.inner.insert_impl(key, value)
            }
            fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
                self.inner.update_impl(key, value)
            }
            fn delete_impl(&mut self, key: Key) -> Result<bool> {
                self.inner.delete_impl(key)
            }
            fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
                self.inner.bulk_load_impl(records)
            }
        }
        // Only the original instance is flaky — the factory disarms the
        // failure for the instances recovery rebuilds.
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let mut d = Durable::new(move || Flaky {
            inner: Toy::new(),
            fail_at: if armed.swap(false, std::sync::atomic::Ordering::Relaxed) {
                2
            } else {
                usize::MAX
            },
            inserts: 0,
        });
        d.insert(1, 10).unwrap();
        assert!(matches!(d.insert(2, 20), Err(RumError::Storage(_))));
        d.insert(3, 30).unwrap();
        let report = d.recover().unwrap();
        assert_eq!(report.committed_ops, 2);
        assert_eq!(report.uncommitted_discarded, 1, "aborted record dropped");
        assert_eq!(
            contents(&mut d),
            vec![Record::new(1, 10), Record::new(3, 30)],
            "key 2 was aborted and must not reappear"
        );
    }
}
