//! Write-ahead log: append-only, checksummed, length-prefixed records with
//! commit markers and torn-tail detection.
//!
//! The paper's UO discussion counts logging as part of write amplification;
//! this module is where that cost becomes measurable. Every byte the log
//! persists is charged to the owning method's
//! [`CostTracker`] as auxiliary write traffic (plus
//! page-granular accesses for the log pages touched), so a method wrapped
//! in [`Durable`](crate::durable::Durable) reports UO *including* its
//! durability protocol — and the delta against the bare method is exactly
//! `WAL bytes / logical bytes`.
//!
//! ## On-"disk" format
//!
//! ```text
//! frame   := len:u32le  crc:u32le  payload
//! payload := tag:u8  fields...
//!   tag 1 = Insert  key:u64le value:u64le   (17 bytes)
//!   tag 2 = Update  key:u64le value:u64le   (17 bytes)
//!   tag 3 = Delete  key:u64le               (9 bytes)
//!   tag 4 = Commit  seq:u64le count:u32le   (13 bytes)
//! ```
//!
//! `crc` is CRC-32 (IEEE, the zlib polynomial) over the payload,
//! implemented in-tree ([`crc`](crate::crc)). A payload is at most 17
//! bytes, under the 64 at which `crc32` switches to its hardware kernel,
//! so every frame is summed by the portable byte loop on every machine
//! (the folding needs a whole 64-byte block to start from).
//! Replay applies data records **only when a commit
//! marker covers them**: `Commit { seq, count }` commits exactly the
//! `count` records staged immediately before it — records staged earlier
//! belong to an operation that failed mid-apply (logged, never committed)
//! and are discarded, so a later commit can never resurrect them. A frame
//! that is truncated, oversized, fails its CRC, or does not decode ends
//! replay on the spot — a torn tail is detected and discarded, never
//! replayed.

use std::sync::Arc;

use rum_core::trace::{EventKind, TraceSink};
use rum_core::{CostTracker, DataClass, Key, Result, RumError, Value, PAGE_SIZE};

use crate::crc::crc32;
use crate::fault::{FaultInjector, RetryPolicy, WriteOutcome};

/// Frame header size: u32 length + u32 CRC.
pub const WAL_HEADER_BYTES: usize = 8;

/// Largest valid payload (Insert/Update: tag + key + value).
const MAX_PAYLOAD: usize = 17;

// ---- log entries --------------------------------------------------------

/// One logical WAL record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalEntry {
    /// Upsert of `key` to `value`.
    Insert { key: Key, value: Value },
    /// Update of a (presumed live) `key` to `value`.
    Update { key: Key, value: Value },
    /// Deletion of `key`.
    Delete { key: Key },
    /// The `count` records staged immediately before this marker are now
    /// atomic and durable; `seq` is the monotonically increasing commit
    /// number. Earlier staged records (from an op whose apply failed after
    /// logging) stay uncommitted forever.
    Commit { seq: u64, count: u32 },
}

impl WalEntry {
    /// Write the payload into `buf` and return its length.
    fn encode_payload(&self, buf: &mut [u8; MAX_PAYLOAD]) -> usize {
        let mut put = |tag: u8, first: u64, rest: &[u8]| {
            buf[0] = tag;
            buf[1..9].copy_from_slice(&first.to_le_bytes());
            buf[9..9 + rest.len()].copy_from_slice(rest);
            9 + rest.len()
        };
        match *self {
            WalEntry::Insert { key, value } => put(1, key, &value.to_le_bytes()),
            WalEntry::Update { key, value } => put(2, key, &value.to_le_bytes()),
            WalEntry::Delete { key } => put(3, key, &[]),
            WalEntry::Commit { seq, count } => put(4, seq, &count.to_le_bytes()),
        }
    }

    /// Strict decode: the tag must be known and the payload exactly the
    /// tag's size. Anything else is treated as corruption by replay.
    fn decode_payload(buf: &[u8]) -> Option<WalEntry> {
        let u64_at = |off: usize| -> u64 {
            u64::from_le_bytes(
                buf[off..off + 8]
                    .try_into()
                    .expect("slice is exactly 8 bytes"),
            )
        };
        match (buf.first(), buf.len()) {
            (Some(1), 17) => Some(WalEntry::Insert {
                key: u64_at(1),
                value: u64_at(9),
            }),
            (Some(2), 17) => Some(WalEntry::Update {
                key: u64_at(1),
                value: u64_at(9),
            }),
            (Some(3), 9) => Some(WalEntry::Delete { key: u64_at(1) }),
            (Some(4), 13) => Some(WalEntry::Commit {
                seq: u64_at(1),
                count: u32::from_le_bytes(buf[9..13].try_into().expect("slice is exactly 4 bytes")),
            }),
            _ => None,
        }
    }
}

/// Outcome of scanning the durable log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalReplay {
    /// Data records covered by a commit marker, in append order. These —
    /// and only these — may be re-applied.
    pub committed: Vec<WalEntry>,
    /// Sequence number of the last valid commit marker, if any.
    pub last_commit_seq: Option<u64>,
    /// Whether scanning stopped at a torn/corrupt frame (truncated header
    /// or payload, bad CRC, unknown tag, wrong size).
    pub torn_tail: bool,
    /// Valid data records no commit marker covers — a trailing uncommitted
    /// suffix, or records of an op that failed after logging — discarded.
    pub uncommitted: usize,
    /// Byte offset of the end of the last valid frame. Recovery passes this
    /// to [`Wal::truncate_torn_tail`] so appends after a crash never land
    /// behind a corrupt frame (where replay would never see them).
    pub valid_len: u64,
}

/// The log price: `n` bytes landing at durable offset `start` are `n`
/// auxiliary bytes written plus one page write per log page they span, at
/// least one (an fsync rewrites at least the tail page). Every WAL sync
/// and every [`Durable`](crate::durable::Durable) checkpoint (a log of its
/// own, written from offset 0) is charged through it.
pub(crate) fn log_write(tracker: &CostTracker, start: u64, n: u64) {
    if n == 0 {
        return;
    }
    tracker.write(DataClass::Aux, n);
    let page = PAGE_SIZE as u64;
    for _ in 0..((start + n).div_ceil(page) - start / page).max(1) {
        tracker.page_write();
    }
}

/// The write-ahead log. `pending` models volatile buffered appends;
/// `durable` models what survives power loss. [`Wal::sync`] moves pending
/// bytes to durable — consulting the [`FaultInjector`], when armed, which
/// may cut the transfer short (crash), corrupt the kept tail (torn write),
/// or drop it entirely (failed flush).
pub struct Wal {
    durable: Vec<u8>,
    pending: Vec<u8>,
    tracker: Arc<CostTracker>,
    injector: Option<Arc<FaultInjector>>,
    /// Total bytes ever synced to durable storage (across truncations) —
    /// the exact amount charged to the tracker as auxiliary writes.
    synced_total: u64,
    /// Structured-event channel for sync outcomes; the disabled
    /// [`NoopSink`](rum_core::trace::NoopSink) by default.
    sink: Arc<dyn TraceSink>,
}

impl Wal {
    /// A WAL charging `tracker`, with no fault injection.
    pub fn new(tracker: Arc<CostTracker>) -> Self {
        Wal {
            durable: Vec::new(),
            pending: Vec::new(),
            tracker,
            injector: None,
            synced_total: 0,
            sink: rum_core::trace::noop_sink(),
        }
    }

    /// A WAL whose syncs are subject to `injector`'s fault plan.
    pub fn with_injector(tracker: Arc<CostTracker>, injector: Arc<FaultInjector>) -> Self {
        Wal {
            injector: Some(injector),
            ..Wal::new(tracker)
        }
    }

    /// Rebind cost charges (used by recovery to keep accounting continuous
    /// across a rebuilt structure).
    pub fn set_tracker(&mut self, tracker: Arc<CostTracker>) {
        self.tracker = tracker;
    }

    /// Install a sink for [`EventKind::WalSync`] events. The log only ever
    /// reads its own state for them, so tracing never changes what is
    /// persisted or charged.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = sink;
    }

    /// Bytes surviving on durable storage right now.
    pub fn durable_len(&self) -> usize {
        self.durable.len()
    }

    /// Buffered (volatile) bytes awaiting sync.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Current physical footprint of the log (durable + buffered).
    pub fn total_len(&self) -> u64 {
        (self.durable.len() + self.pending.len()) as u64
    }

    /// Total bytes ever synced — equals the auxiliary write bytes this log
    /// has charged to the tracker.
    pub fn synced_total(&self) -> u64 {
        self.synced_total
    }

    /// Buffer `entry` (volatile until [`sync`](Self::sync)).
    pub fn append(&mut self, entry: &WalEntry) {
        let mut buf = [0u8; MAX_PAYLOAD];
        let len = entry.encode_payload(&mut buf);
        let payload = &buf[..len];
        self.pending.extend_from_slice(&(len as u32).to_le_bytes());
        self.pending
            .extend_from_slice(&crc32(payload).to_le_bytes());
        self.pending.extend_from_slice(payload);
    }

    /// Make pending appends durable. Returns `Err(RumError::Crash)` when
    /// the armed fault fires; whatever prefix the injector let through is
    /// already on "disk" (and charged), mirroring a real power event.
    /// Transient injector faults are retried in place under the default
    /// [`RetryPolicy`] — pending bytes are kept across failed attempts, and
    /// backoff is charged as simulated time — before surfacing
    /// [`RumError::Transient`].
    pub fn sync(&mut self) -> Result<()> {
        let mut attempt = 1u32;
        loop {
            let e = match self.sync_attempt() {
                Err(e @ RumError::Transient(_)) => e,
                other => return other,
            };
            if self.sink.enabled() {
                self.sink.emit(
                    EventKind::FaultInjected,
                    &[("attempt", u64::from(attempt)), ("wal", 1)],
                );
            }
            // The retry weighs the pending bytes the failed attempt tried
            // (and the next will try again) to land.
            let pending = self.pending.len() as u64;
            let delay = RetryPolicy::default()
                .retry_after(&e, attempt, &*self.sink, None, pending)
                .ok_or(e)?;
            self.tracker.sim_time(delay);
            attempt += 1;
        }
    }

    /// One sync attempt against the injector.
    fn sync_attempt(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let n = self.pending.len() as u64;
        let outcome = match &self.injector {
            Some(inj) => inj.on_durable_write(n),
            None => WriteOutcome::Persist,
        };
        let start = self.durable.len() as u64;
        match outcome {
            WriteOutcome::Persist | WriteOutcome::PersistFlipped { .. } => {
                self.durable.append(&mut self.pending);
                // Silent media corruption inside the just-landed bytes;
                // the per-frame CRC turns it into a torn tail on replay.
                outcome.land(&mut self.durable[start as usize..]);
                log_write(&self.tracker, start, n);
                self.synced_total += n;
                if self.sink.enabled() {
                    self.sink.emit(
                        EventKind::WalSync,
                        &[("bytes", n), ("durable_len", self.durable.len() as u64)],
                    );
                }
                Ok(())
            }
            WriteOutcome::Transient => Err(RumError::Transient(format!(
                "transient WAL sync fault: {n} bytes still buffered"
            ))),
            WriteOutcome::CrashKeeping { keep, torn } => {
                let keep = (keep as usize).min(self.pending.len());
                self.durable.extend_from_slice(&self.pending[..keep]);
                outcome.land(&mut self.durable[start as usize..]);
                self.pending.clear();
                log_write(&self.tracker, start, keep as u64);
                self.synced_total += keep as u64;
                if self.sink.enabled() {
                    self.sink.emit(
                        EventKind::WalSync,
                        &[
                            ("bytes", keep as u64),
                            ("lost", n - keep as u64),
                            ("torn", u64::from(torn)),
                        ],
                    );
                }
                Err(RumError::Crash(format!(
                    "power loss during WAL sync: {keep} of {n} bytes persisted{}",
                    if torn { " (torn tail)" } else { "" }
                )))
            }
            WriteOutcome::FailFlush => {
                self.pending.clear();
                if self.sink.enabled() {
                    self.sink
                        .emit(EventKind::WalSync, &[("bytes", 0), ("lost", n)]);
                }
                Err(RumError::Crash(format!(
                    "WAL flush failed: {n} buffered bytes lost"
                )))
            }
        }
    }

    /// Drop the log after a checkpoint: durable and pending both reset.
    /// (`synced_total` is cumulative — truncation reclaims space, it does
    /// not refund write traffic.)
    pub fn truncate(&mut self) {
        self.durable.clear();
        self.pending.clear();
    }

    /// Keep only the first `len` durable bytes — recovery cuts the torn
    /// tail off the log so later appends follow valid frames instead of
    /// hiding forever behind a corrupt one.
    pub fn truncate_torn_tail(&mut self, len: u64) {
        self.durable.truncate(len as usize);
    }

    /// Scan the durable log and return the committed prefix. Never fails:
    /// corruption terminates the scan and is reported in the outcome.
    pub fn replay(&self) -> WalReplay {
        let log = &self.durable;
        let mut out = WalReplay::default();
        let mut staged: Vec<WalEntry> = Vec::new();
        let mut off = 0usize;
        loop {
            if off == log.len() {
                break; // clean end of log
            }
            if off + WAL_HEADER_BYTES > log.len() {
                out.torn_tail = true; // truncated header
                break;
            }
            let len = u32::from_le_bytes(
                log[off..off + 4]
                    .try_into()
                    .expect("slice is exactly 4 bytes"),
            ) as usize;
            let crc = u32::from_le_bytes(
                log[off + 4..off + 8]
                    .try_into()
                    .expect("slice is exactly 4 bytes"),
            );
            if len == 0 || len > MAX_PAYLOAD || off + WAL_HEADER_BYTES + len > log.len() {
                out.torn_tail = true; // absurd length or truncated payload
                break;
            }
            let payload = &log[off + WAL_HEADER_BYTES..off + WAL_HEADER_BYTES + len];
            if crc32(payload) != crc {
                out.torn_tail = true;
                break;
            }
            let Some(entry) = WalEntry::decode_payload(payload) else {
                out.torn_tail = true;
                break;
            };
            match entry {
                WalEntry::Commit { seq, count } => {
                    let count = count as usize;
                    if count > staged.len() {
                        // A commit covering records that are not in the
                        // log cannot be honored; stop, like corruption.
                        out.torn_tail = true;
                        break;
                    }
                    let aborted = staged.len() - count; // aborted-op leftovers
                    out.committed.extend_from_slice(&staged[aborted..]);
                    out.uncommitted += aborted;
                    staged.clear();
                    out.last_commit_seq = Some(seq);
                }
                data => staged.push(data),
            }
            off += WAL_HEADER_BYTES + len;
        }
        // `off` only ever advances past fully-validated frames, so at any
        // break it marks the end of the trustworthy prefix.
        out.valid_len = off as u64;
        out.uncommitted += staged.len();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjector, FaultPlan};
    use proptest::prelude::*;

    fn entries() -> Vec<WalEntry> {
        vec![
            WalEntry::Insert { key: 1, value: 10 },
            WalEntry::Update { key: 1, value: 11 },
            WalEntry::Delete { key: 2 },
            WalEntry::Commit { seq: 0, count: 3 },
            WalEntry::Insert { key: 3, value: 30 },
            WalEntry::Commit { seq: 1, count: 1 },
        ]
    }

    #[test]
    fn committed_prefix_roundtrips() {
        let mut wal = Wal::new(CostTracker::new());
        for e in entries() {
            wal.append(&e);
        }
        wal.sync().unwrap();
        let replay = wal.replay();
        assert!(!replay.torn_tail);
        assert_eq!(replay.last_commit_seq, Some(1));
        assert_eq!(replay.uncommitted, 0);
        assert_eq!(
            replay.committed,
            vec![
                WalEntry::Insert { key: 1, value: 10 },
                WalEntry::Update { key: 1, value: 11 },
                WalEntry::Delete { key: 2 },
                WalEntry::Insert { key: 3, value: 30 },
            ]
        );
    }

    /// A log on "disk" outlives the kernel that checksummed it: frames
    /// written with the byte loop are, byte for byte, what `append` writes
    /// now, and replay to the same result.
    #[test]
    fn a_log_written_by_the_byte_loop_replays_the_same() {
        let mut written = Wal::new(CostTracker::new());
        let mut old_bytes = Vec::new();
        for e in entries() {
            written.append(&e);
            let mut buf = [0u8; MAX_PAYLOAD];
            let len = e.encode_payload(&mut buf);
            let payload = &buf[..len];
            old_bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            old_bytes.extend_from_slice(&crate::crc::reference(payload).to_le_bytes());
            old_bytes.extend_from_slice(payload);
        }
        written.sync().unwrap();
        assert_eq!(written.durable, old_bytes);
        let mut old = Wal::new(CostTracker::new());
        old.durable = old_bytes;
        assert_eq!(old.replay(), written.replay());
        assert_eq!(old.replay().committed.len(), 4);
    }

    #[test]
    fn uncommitted_tail_is_not_replayed() {
        let mut wal = Wal::new(CostTracker::new());
        wal.append(&WalEntry::Insert { key: 1, value: 1 });
        wal.append(&WalEntry::Commit { seq: 0, count: 1 });
        wal.append(&WalEntry::Insert { key: 2, value: 2 }); // never committed
        wal.sync().unwrap();
        let replay = wal.replay();
        assert!(!replay.torn_tail, "clean frames, just uncommitted");
        assert_eq!(
            replay.committed,
            vec![WalEntry::Insert { key: 1, value: 1 }]
        );
        assert_eq!(replay.uncommitted, 1);
    }

    #[test]
    fn aborted_op_is_never_resurrected_by_a_later_commit() {
        // An op that logged its record but failed mid-apply leaves an
        // uncovered record; the next op's commit must not adopt it.
        let mut wal = Wal::new(CostTracker::new());
        wal.append(&WalEntry::Insert { key: 7, value: 70 }); // aborted op
        wal.append(&WalEntry::Insert { key: 8, value: 80 });
        wal.append(&WalEntry::Commit { seq: 0, count: 1 });
        wal.sync().unwrap();
        let replay = wal.replay();
        assert!(!replay.torn_tail);
        assert_eq!(
            replay.committed,
            vec![WalEntry::Insert { key: 8, value: 80 }]
        );
        assert_eq!(replay.uncommitted, 1, "the aborted record is discarded");
    }

    #[test]
    fn overreaching_commit_stops_replay() {
        let mut wal = Wal::new(CostTracker::new());
        wal.append(&WalEntry::Insert { key: 1, value: 1 });
        wal.append(&WalEntry::Commit { seq: 0, count: 2 }); // covers 2, only 1 staged
        wal.sync().unwrap();
        let replay = wal.replay();
        assert!(replay.torn_tail);
        assert!(replay.committed.is_empty());
    }

    #[test]
    fn torn_tail_is_detected_and_discarded() {
        // Crash mid-log at every byte offset: replay must never yield more
        // than the commits whose frames fully landed, and must flag tears.
        let mut reference = Wal::new(CostTracker::new());
        for e in entries() {
            reference.append(&e);
        }
        reference.sync().unwrap();
        let total = reference.durable_len() as u64;
        let full = reference.replay();
        let mut saw_torn = false;
        for cut in 0..total {
            for torn in [false, true] {
                let plan = if torn {
                    FaultPlan::torn_at(cut)
                } else {
                    FaultPlan::crash_at(cut)
                };
                let mut wal = Wal::with_injector(CostTracker::new(), FaultInjector::new(plan));
                for e in entries() {
                    wal.append(&e);
                }
                let err = wal.sync().unwrap_err();
                assert!(matches!(err, RumError::Crash(_)));
                assert_eq!(wal.durable_len() as u64, cut);
                let replay = wal.replay();
                saw_torn |= replay.torn_tail;
                // Only fully-committed prefixes of the reference replay.
                assert!(replay.committed.len() <= full.committed.len());
                assert_eq!(
                    replay.committed[..],
                    full.committed[..replay.committed.len()],
                    "cut={cut} torn={torn}"
                );
                if let Some(seq) = replay.last_commit_seq {
                    assert!(seq <= 1);
                }
            }
        }
        assert!(saw_torn, "some cut must land mid-frame");
    }

    #[test]
    fn sync_charges_aux_bytes_and_log_pages() {
        let tracker = CostTracker::new();
        let mut wal = Wal::new(Arc::clone(&tracker));
        wal.append(&WalEntry::Insert { key: 1, value: 1 });
        wal.append(&WalEntry::Commit { seq: 0, count: 1 });
        wal.sync().unwrap();
        let s = tracker.snapshot();
        assert_eq!(s.aux_write_bytes, wal.synced_total());
        assert_eq!(s.base_write_bytes, 0, "WAL traffic is auxiliary");
        assert_eq!(s.page_writes, 1, "one small sync touches one log page");
        // A sync spanning a page boundary touches both pages.
        let tracker2 = CostTracker::new();
        let mut big = Wal::new(Arc::clone(&tracker2));
        let mut k = 0;
        while big.pending_len() <= PAGE_SIZE {
            big.append(&WalEntry::Insert { key: k, value: k });
            k += 1;
        }
        big.sync().unwrap();
        let s2 = tracker2.snapshot();
        assert_eq!(s2.aux_write_bytes, big.synced_total());
        assert_eq!(s2.page_writes, 2, "straddling sync touches two pages");
    }

    #[test]
    fn failed_flush_loses_pending_only() {
        let tracker = CostTracker::new();
        let mut wal = Wal::with_injector(
            Arc::clone(&tracker),
            FaultInjector::new(FaultPlan::fail_flush(2)),
        );
        wal.append(&WalEntry::Insert { key: 1, value: 1 });
        wal.append(&WalEntry::Commit { seq: 0, count: 1 });
        wal.sync().unwrap();
        let durable_before = wal.durable_len();
        let charged_before = tracker.snapshot().aux_write_bytes;
        wal.append(&WalEntry::Insert { key: 2, value: 2 });
        wal.append(&WalEntry::Commit { seq: 1, count: 1 });
        assert!(matches!(wal.sync(), Err(RumError::Crash(_))));
        assert_eq!(wal.durable_len(), durable_before, "nothing landed");
        assert_eq!(wal.pending_len(), 0, "buffered bytes are gone");
        assert_eq!(
            tracker.snapshot().aux_write_bytes,
            charged_before,
            "a failed flush writes nothing, charges nothing"
        );
        assert_eq!(wal.replay().last_commit_seq, Some(0));
    }

    #[test]
    fn truncate_resets_the_log_but_not_the_accounting() {
        let mut wal = Wal::new(CostTracker::new());
        wal.append(&WalEntry::Insert { key: 1, value: 1 });
        wal.append(&WalEntry::Commit { seq: 0, count: 1 });
        wal.sync().unwrap();
        let synced = wal.synced_total();
        assert!(synced > 0);
        wal.truncate();
        assert_eq!(wal.durable_len(), 0);
        assert_eq!(wal.replay(), WalReplay::default());
        assert_eq!(wal.synced_total(), synced, "charges are not refunded");
    }

    #[test]
    fn empty_sync_is_free_and_infallible() {
        let tracker = CostTracker::new();
        // Even with a fail-on-first-flush plan armed, an empty sync has
        // nothing to lose and must not consume the fault.
        let mut wal = Wal::with_injector(
            Arc::clone(&tracker),
            FaultInjector::new(FaultPlan::fail_flush(1)),
        );
        wal.sync().unwrap();
        assert_eq!(tracker.snapshot(), Default::default());
    }

    proptest! {
        /// The log is input from outside the program once it has been on
        /// "disk": whatever a crash or the media did to it, replay returns
        /// (no index or arithmetic panic) exactly the operations whose
        /// commit marker lies wholly before the first damaged byte.
        #[test]
        fn replay_of_a_garbled_log_is_a_committed_prefix_never_a_panic(
            ops in proptest::collection::vec((0u8..3, any::<u64>(), any::<u64>()), 1..40),
            damage in 0u8..3,
            at in any::<u64>(),
            forged in any::<u64>(),
        ) {
            let mut wal = Wal::new(CostTracker::new());
            let mut acknowledged = Vec::new();
            let mut boundaries = vec![0usize];
            for (seq, &(kind, key, value)) in ops.iter().enumerate() {
                let entry = match kind {
                    0 => WalEntry::Insert { key, value },
                    1 => WalEntry::Update { key, value },
                    _ => WalEntry::Delete { key },
                };
                wal.append(&entry);
                boundaries.push(wal.pending_len());
                wal.append(&WalEntry::Commit { seq: seq as u64, count: 1 });
                boundaries.push(wal.pending_len());
                acknowledged.push(entry);
            }
            wal.sync().unwrap();
            let intact = wal.durable.clone();
            let at = at as usize;
            match damage {
                // One flipped byte anywhere.
                0 => wal.durable[at % intact.len()] ^= (forged as u8) | 1,
                // A forged header on some frame: a length that is sometimes
                // plausible, sometimes absurd, and an arbitrary CRC.
                1 => {
                    let frame = boundaries[at % (boundaries.len() - 1)];
                    let len = match forged & 1 {
                        0 => forged as u32 % 32,
                        _ => (forged >> 1) as u32,
                    };
                    wal.durable[frame..frame + 4].copy_from_slice(&len.to_le_bytes());
                    wal.durable[frame + 4..frame + 8]
                        .copy_from_slice(&((forged >> 32) as u32).to_le_bytes());
                }
                // Truncation at any offset, frame boundary or not.
                _ => wal.durable.truncate(at % (intact.len() + 1)),
            }
            let damaged_at = intact
                .iter()
                .zip(&wal.durable)
                .position(|(a, b)| a != b)
                .unwrap_or(wal.durable.len());

            let replay = wal.replay();

            let valid_len = replay.valid_len as usize;
            let frames = boundaries
                .iter()
                .position(|&b| b == valid_len)
                .expect("valid_len lands on a frame boundary");
            prop_assert!(valid_len <= damaged_at, "replay read past the damage");
            prop_assert_eq!(&replay.committed[..], &acknowledged[..frames / 2]);
            prop_assert_eq!(replay.uncommitted, frames % 2);
            prop_assert_eq!(replay.torn_tail, valid_len < wal.durable.len());
        }
    }
}
