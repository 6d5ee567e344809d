//! Deterministic fault injection: the storage substrate as a crash-test
//! rig.
//!
//! A [`FaultPlan`] describes *one* failure — crash after N durable bytes
//! (optionally tearing the write in progress), or failing the nth flush —
//! and a [`FaultInjector`] arms it over a shared atomic byte/flush clock.
//! A [`FaultProfile`] layers *recurring* faults on top of the one-shot
//! plan: seeded transient read/write errors with bounded burst length,
//! and silent bit-flips spliced into stored bytes.
//! Everything is deterministic: the same plan and profile over the same
//! operation sequence fire at exactly the same byte/op, so every cell of
//! the crash and fault-storm matrices is reproducible bit-for-bit.
//!
//! The injector is consulted by the [`Wal`](crate::wal::Wal) on every
//! `sync()` and by [`FaultDevice`] on every page read and write — both
//! through the same [`FaultInjector::on_durable_write`] helper, so the
//! byte clock advances once per durable write no matter which path
//! carries it, and a transiently-failed write (which will be retried)
//! never consumes byte-clock budget. Both paths damage the bytes an
//! injected fault let through the same way, [`WriteOutcome::land`], and
//! the pager and the WAL decide every retry by the same step,
//! [`RetryPolicy::retry_after`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use rum_core::trace::{EventKind, TraceSink};
use rum_core::{Result, RumError, PAGE_SIZE};

use crate::device::{BlockDevice, IoStats};
use crate::page::{PageBuf, PageId};

/// One planned failure. `None` is the control cell of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPlan {
    /// Never fire.
    None,
    /// Power loss once cumulative durable bytes would exceed `offset`: the
    /// write in flight keeps exactly its first `offset - written_so_far`
    /// bytes. With `torn`, the kept tail is additionally bit-flipped —
    /// modelling a sector that was mid-write when power dropped — so
    /// checksums, not luck, must catch it.
    CrashAtByte { offset: u64, torn: bool },
    /// The `nth` (1-based) flush/sync call fails outright: nothing in that
    /// flush reaches durable storage.
    FailFlush { nth: u64 },
}

impl FaultPlan {
    /// Clean power loss at a byte offset.
    pub fn crash_at(offset: u64) -> Self {
        FaultPlan::CrashAtByte {
            offset,
            torn: false,
        }
    }

    /// Power loss at a byte offset with the kept tail corrupted.
    pub fn torn_at(offset: u64) -> Self {
        FaultPlan::CrashAtByte { offset, torn: true }
    }

    /// Fail the `nth` flush (1-based).
    pub fn fail_flush(nth: u64) -> Self {
        FaultPlan::FailFlush { nth: nth.max(1) }
    }

    /// A seeded crash point inside `[0, total_bytes)` — `splitmix64` keeps
    /// the sweep deterministic without pulling in an RNG dependency.
    pub fn seeded_crash(seed: u64, total_bytes: u64, torn: bool) -> Self {
        FaultPlan::CrashAtByte {
            offset: splitmix64(seed) % total_bytes.max(1),
            torn,
        }
    }
}

/// `splitmix64` — the classic 64-bit finalizer; one u64 in, one u64 out,
/// full-period and well mixed. Enough randomness for picking crash points.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A profile of *recurring* faults layered over the one-shot [`FaultPlan`].
/// All draws are splitmix64-seeded: the same profile over the same op
/// sequence injects exactly the same faults.
///
/// Probabilities are in parts per million so integer arithmetic stays
/// exact. A transient fault that fires at op `n` keeps failing for a
/// seeded burst of `1..=max_burst` consecutive attempts — a retry policy
/// converges whenever `max_attempts > max_burst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultProfile {
    /// Seed for every draw this profile makes.
    pub seed: u64,
    /// Per-read probability (ppm) of a transient read error.
    pub read_error_ppm: u32,
    /// Per-write probability (ppm) of a transient write error. Transient
    /// write failures do **not** advance the durable byte clock — the
    /// write will be retried, and double-counting would shift every
    /// downstream `CrashAtByte` point.
    pub write_error_ppm: u32,
    /// Longest transient burst: a firing fault fails `1..=max_burst`
    /// consecutive attempts (seeded draw). Zero behaves as one.
    pub max_burst: u32,
    /// Per-persisted-write probability (ppm) of silently flipping one
    /// seeded bit in the stored bytes. The write reports success — only a
    /// checksum can reveal the damage.
    pub bitflip_ppm: u32,
}

/// Domain-separation salts so read, write, and flip draws sample
/// independent splitmix64 streams from one seed.
const READ_SALT: u64 = 0x5245_4144_5F53_4C54;
const WRITE_SALT: u64 = 0x5752_4954_455F_534C;
const FLIP_SALT: u64 = 0x464C_4950_5F53_414C;

impl FaultProfile {
    /// A profile that injects nothing (the matrix's control cell).
    pub fn none(seed: u64) -> Self {
        FaultProfile {
            seed,
            read_error_ppm: 0,
            write_error_ppm: 0,
            max_burst: 1,
            bitflip_ppm: 0,
        }
    }

    /// Transient read+write errors at `ppm`, bursts up to `max_burst`.
    pub fn transient(seed: u64, ppm: u32, max_burst: u32) -> Self {
        FaultProfile {
            read_error_ppm: ppm,
            write_error_ppm: ppm,
            max_burst: max_burst.max(1),
            ..Self::none(seed)
        }
    }

    /// Silent bit-flips on stored writes at `ppm`.
    pub fn bitflips(seed: u64, ppm: u32) -> Self {
        FaultProfile {
            bitflip_ppm: ppm,
            ..Self::none(seed)
        }
    }
}

/// Simulated delay before retry number `attempt` (1-based: the delay
/// taken after the `attempt`-th failed try): 1 µs doubling to a 1 ms cap,
/// no jitter (jitter would break bit-exact replay).
fn backoff_ns(attempt: u32) -> u64 {
    (1_000u64 << attempt.saturating_sub(1).min(10)).min(1_000_000)
}

/// How many times to attempt a page access or a WAL sync that keeps
/// failing transiently. Consulted by the [`Pager`](crate::pager::Pager)
/// and the [`Wal`](crate::wal::Wal); every failed attempt is still
/// charged to the cost tracker, and every wait as simulated time along
/// one curve (1 µs doubling to a 1 ms cap), so resilience shows up as
/// RO/UO in the RUM report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (minimum 1).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// Fail on the first transient error — the "no resilience" baseline.
    pub fn none() -> Self {
        Self::attempts(1)
    }

    /// `max_attempts` tries.
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
        }
    }

    /// The one decision made after failed attempt number `attempt`. Gives
    /// up (`None`) when `e` is not transient or the attempts are spent;
    /// otherwise answers the simulated delay to wait before the next
    /// attempt, which the caller charges, and announces the retry on
    /// `sink` as a [`EventKind::RetryAttempt`] led by the caller's `lead`
    /// field and weighing `bytes`, the traffic the retry will try again.
    pub fn retry_after(
        &self,
        e: &RumError,
        attempt: u32,
        sink: &dyn TraceSink,
        lead: Option<(&'static str, u64)>,
        bytes: u64,
    ) -> Option<u64> {
        if !e.is_transient() || attempt >= self.max_attempts {
            return None;
        }
        let delay = backoff_ns(attempt);
        if sink.enabled() {
            let [a, b, c] = [
                ("attempt", u64::from(attempt)),
                ("backoff_ns", delay),
                ("bytes", bytes),
            ];
            match lead {
                Some(l) => sink.emit(EventKind::RetryAttempt, &[l, a, b, c]),
                None => sink.emit(EventKind::RetryAttempt, &[a, b, c]),
            }
        }
        Some(delay)
    }
}

impl Default for RetryPolicy {
    /// Three attempts. On a clean device the policy is never consulted, so
    /// the default changes nothing unless faults are injected.
    fn default() -> Self {
        Self::attempts(3)
    }
}

/// What a durable-write path must do with the bytes it is persisting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// All bytes reach durable storage.
    Persist,
    /// All bytes land, but bit `bit` (an offset into this write's bytes)
    /// is flipped in the stored copy. The caller persists the damaged
    /// bytes and reports success — silent corruption by construction.
    PersistFlipped { bit: u64 },
    /// Power loss: only the first `keep` bytes land; with `torn`, the kept
    /// tail is corrupted in place. The caller must then fail with
    /// [`RumError::Crash`].
    CrashKeeping { keep: u64, torn: bool },
    /// This flush fails wholesale; nothing lands.
    FailFlush,
    /// Transient device error: nothing lands and the byte clock did not
    /// advance. The caller surfaces [`RumError::Transient`] and may retry.
    Transient,
}

impl WriteOutcome {
    /// Damage `landed`, the bytes this write left on durable storage, the
    /// one way every durable path does: a flip flips its bit (drawn from
    /// this write's bits, so it lies inside `landed`), and a torn crash
    /// XORs the last `min(8, keep)` kept bytes with `0xA5` (the
    /// sector under the write head when power dropped), so only a
    /// checksum, not truncation, can reveal it. Other outcomes leave the
    /// bytes as they are.
    pub fn land(&self, landed: &mut [u8]) {
        match *self {
            WriteOutcome::PersistFlipped { bit } => landed[(bit / 8) as usize] ^= 1 << (bit % 8),
            WriteOutcome::CrashKeeping { torn: true, .. } => {
                let lo = landed.len().saturating_sub(8);
                for b in &mut landed[lo..] {
                    *b ^= 0xA5;
                }
            }
            _ => {}
        }
    }
}

/// Arms a [`FaultPlan`] (and optionally a recurring [`FaultProfile`]) over
/// shared atomic counters. Cheap to clone via `Arc` so a WAL and a device
/// can share one byte clock. The one-shot plan fires **at most once**
/// (`fired`), mirroring a single power event; the profile keeps firing for
/// as long as its seeded draws say so.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    profile: Option<FaultProfile>,
    durable_bytes: AtomicU64,
    flush_calls: AtomicU64,
    fired: AtomicBool,
    // Profile op clocks: reads and writes draw from independent seeded
    // streams; `*_faulty_until` carries an in-progress transient burst.
    read_ops: AtomicU64,
    write_ops: AtomicU64,
    read_faulty_until: AtomicU64,
    write_faulty_until: AtomicU64,
    flip_ops: AtomicU64,
    // Tallies for reporting.
    transient_faults: AtomicU64,
    bitflips: AtomicU64,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Self::with_profile(plan, None)
    }

    /// An injector arming both a one-shot plan and a recurring profile.
    pub fn with_profile(plan: FaultPlan, profile: Option<FaultProfile>) -> Arc<Self> {
        Arc::new(FaultInjector {
            plan,
            profile,
            durable_bytes: AtomicU64::new(0),
            flush_calls: AtomicU64::new(0),
            fired: AtomicBool::new(false),
            read_ops: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            read_faulty_until: AtomicU64::new(0),
            write_faulty_until: AtomicU64::new(0),
            flip_ops: AtomicU64::new(0),
            transient_faults: AtomicU64::new(0),
            bitflips: AtomicU64::new(0),
        })
    }

    /// An injector that never fires (the matrix's reference cell).
    pub fn inert() -> Arc<Self> {
        Self::new(FaultPlan::None)
    }

    /// The plan this injector arms.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// The recurring profile, if any.
    pub fn profile(&self) -> Option<FaultProfile> {
        self.profile
    }

    /// Whether the one-shot fault has fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }

    /// Cumulative bytes allowed through to durable storage.
    pub fn durable_bytes(&self) -> u64 {
        self.durable_bytes.load(Ordering::Relaxed)
    }

    /// Transient faults injected so far (reads and writes).
    pub fn transient_faults(&self) -> u64 {
        self.transient_faults.load(Ordering::Relaxed)
    }

    /// Silent bit-flips injected so far.
    pub fn bitflips(&self) -> u64 {
        self.bitflips.load(Ordering::Relaxed)
    }

    /// One seeded transient draw on the `ops`/`until` clock pair. Advances
    /// the op clock, starts a burst when the per-op draw fires, and keeps
    /// failing while inside a burst.
    fn transient_hit(&self, ops: &AtomicU64, until: &AtomicU64, ppm: u32, salt: u64) -> bool {
        let profile = match self.profile {
            Some(p) if ppm > 0 => p,
            _ => return false,
        };
        let n = ops.fetch_add(1, Ordering::Relaxed) + 1;
        let burst_end = until.load(Ordering::Relaxed);
        if n <= burst_end {
            self.transient_faults.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        if burst_end > 0 && n == burst_end + 1 {
            // The first op after a burst is forced clean: bursts never
            // chain, so consecutive failures are hard-capped at
            // `max_burst` and a retry policy with `max_attempts >
            // max_burst` provably converges.
            return false;
        }
        let r = splitmix64(profile.seed ^ salt ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if r % 1_000_000 < u64::from(ppm) {
            let burst = 1 + splitmix64(r) % u64::from(profile.max_burst.max(1));
            until.store(n + burst - 1, Ordering::Relaxed);
            self.transient_faults.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Consult the profile for one page read: whether it fails
    /// transiently.
    pub fn on_read(&self) -> bool {
        let ppm = self.profile.map_or(0, |p| p.read_error_ppm);
        self.transient_hit(&self.read_ops, &self.read_faulty_until, ppm, READ_SALT)
    }

    /// Consult the plan and profile for a durable write of `len` bytes
    /// (one WAL sync or one page write) — the **single** helper every
    /// durable path goes through, so the byte/flush clocks advance exactly
    /// once per landed write. Transient failures are checked first and
    /// advance neither clock: the write will be retried, and charging it
    /// would shift every downstream `CrashAtByte` point. Callers are
    /// driven `&mut`, so the two-step check-then-advance below is not racy
    /// in practice; the atomics only make sharing one injector across
    /// structures safe.
    pub fn on_durable_write(&self, len: u64) -> WriteOutcome {
        let ppm = self.profile.map_or(0, |p| p.write_error_ppm);
        if self.transient_hit(&self.write_ops, &self.write_faulty_until, ppm, WRITE_SALT) {
            return WriteOutcome::Transient;
        }
        let flush_no = self.flush_calls.fetch_add(1, Ordering::Relaxed) + 1;
        let written = self.durable_bytes.load(Ordering::Relaxed);
        match self.plan {
            FaultPlan::FailFlush { nth } if flush_no == nth && !self.fired() => {
                self.fired.store(true, Ordering::Relaxed);
                WriteOutcome::FailFlush
            }
            FaultPlan::CrashAtByte { offset, torn }
                if !self.fired() && written.saturating_add(len) > offset =>
            {
                self.fired.store(true, Ordering::Relaxed);
                let keep = offset.saturating_sub(written).min(len);
                self.durable_bytes.fetch_add(keep, Ordering::Relaxed);
                WriteOutcome::CrashKeeping { keep, torn }
            }
            _ => {
                self.durable_bytes.fetch_add(len, Ordering::Relaxed);
                match self.flip_draw(len * 8) {
                    Some(bit) => WriteOutcome::PersistFlipped { bit },
                    None => WriteOutcome::Persist,
                }
            }
        }
    }

    /// Seeded bit-flip draw for a persisted write of `len_bits` bits.
    fn flip_draw(&self, len_bits: u64) -> Option<u64> {
        let profile = self.profile?;
        if profile.bitflip_ppm == 0 || len_bits == 0 {
            return None;
        }
        let n = self.flip_ops.fetch_add(1, Ordering::Relaxed) + 1;
        let r = splitmix64(profile.seed ^ FLIP_SALT ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if r % 1_000_000 < u64::from(profile.bitflip_ppm) {
            self.bitflips.fetch_add(1, Ordering::Relaxed);
            Some(splitmix64(r ^ FLIP_SALT) % len_bits)
        } else {
            None
        }
    }
}

/// A [`BlockDevice`] wrapper that runs every page access past a
/// [`FaultInjector`]: a crash mid-page persists a *torn page* (new prefix
/// spliced over the old contents) and surfaces [`RumError::Crash`]; a
/// recurring profile adds transient read/write errors
/// ([`RumError::Transient`]) and silent bit-flips in the stored bytes. Stack a
/// [`CheckedDevice`](crate::checked::CheckedDevice) *around* this wrapper
/// so flips land under the seal and are caught on read.
pub struct FaultDevice<D: BlockDevice> {
    inner: D,
    injector: Arc<FaultInjector>,
}

impl<D: BlockDevice> FaultDevice<D> {
    pub fn new(inner: D, injector: Arc<FaultInjector>) -> Self {
        FaultDevice { inner, injector }
    }

    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: BlockDevice> BlockDevice for FaultDevice<D> {
    fn allocate(&mut self) -> Result<PageId> {
        self.inner.allocate()
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        self.inner.free(id)
    }

    fn read_page(&mut self, id: PageId) -> Result<PageBuf> {
        self.with_page(id, PageBuf::from_bytes)
    }

    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        if self.injector.on_read() {
            return Err(RumError::Transient(format!("transient read error on {id}")));
        }
        self.inner.with_page(id, f)
    }

    fn write_page(&mut self, id: PageId, page: &PageBuf) -> Result<()> {
        let outcome = self.injector.on_durable_write(PAGE_SIZE as u64);
        match outcome {
            WriteOutcome::Persist => self.inner.write_page(id, page),
            WriteOutcome::PersistFlipped { .. } => {
                // Silent corruption: store the page with one bit flipped
                // and report success — only a checksum can tell.
                let mut damaged = page.clone();
                outcome.land(damaged.as_mut_slice());
                self.inner.write_page(id, &damaged)
            }
            WriteOutcome::Transient => Err(RumError::Transient(format!(
                "transient write error on {id}"
            ))),
            WriteOutcome::CrashKeeping { keep, .. } => {
                // Persist a torn page: new prefix over old suffix.
                let mut merged = self.inner.read_page(id)?;
                let keep = (keep as usize).min(PAGE_SIZE);
                let landed = &mut merged.as_mut_slice()[..keep];
                landed.copy_from_slice(&page.as_slice()[..keep]);
                outcome.land(landed);
                self.inner.write_page(id, &merged)?;
                Err(RumError::Crash(format!(
                    "power loss during write of {id}: {keep} of {PAGE_SIZE} bytes persisted"
                )))
            }
            WriteOutcome::FailFlush => Err(RumError::Crash(format!(
                "flush failed while writing {id}: nothing persisted"
            ))),
        }
    }

    fn live_pages(&self) -> usize {
        self.inner.live_pages()
    }

    fn stats(&self) -> &Arc<IoStats> {
        self.inner.stats()
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    #[test]
    fn splitmix_is_deterministic_and_mixed() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        let spread: std::collections::HashSet<u64> = (0..64).map(|i| splitmix64(i) % 97).collect();
        assert!(spread.len() > 32, "outputs should spread across residues");
    }

    #[test]
    fn crash_plan_fires_once_at_the_byte() {
        let inj = FaultInjector::new(FaultPlan::crash_at(100));
        assert_eq!(inj.on_durable_write(60), WriteOutcome::Persist);
        assert_eq!(
            inj.on_durable_write(60),
            WriteOutcome::CrashKeeping {
                keep: 40,
                torn: false
            }
        );
        assert!(inj.fired());
        assert_eq!(inj.durable_bytes(), 100);
        // Once fired, the power event is over; later writes persist.
        assert_eq!(inj.on_durable_write(60), WriteOutcome::Persist);
    }

    #[test]
    fn fail_flush_targets_the_nth_call() {
        let inj = FaultInjector::new(FaultPlan::fail_flush(2));
        assert_eq!(inj.on_durable_write(10), WriteOutcome::Persist);
        assert_eq!(inj.on_durable_write(10), WriteOutcome::FailFlush);
        assert_eq!(inj.on_durable_write(10), WriteOutcome::Persist);
        assert_eq!(inj.durable_bytes(), 20, "failed flush persisted nothing");
    }

    #[test]
    fn seeded_crash_is_reproducible_and_in_range() {
        for seed in 0..32u64 {
            let a = FaultPlan::seeded_crash(seed, 1000, false);
            let b = FaultPlan::seeded_crash(seed, 1000, false);
            assert_eq!(a, b);
            match a {
                FaultPlan::CrashAtByte { offset, .. } => assert!(offset < 1000),
                other => panic!("unexpected plan {other:?}"),
            }
        }
    }

    /// A profile whose first `k` page reads and first `k` durable
    /// writes all fail transiently: the first seed whose opening bursts
    /// are that long.
    fn busy_for(k: usize) -> FaultProfile {
        (0..)
            .map(|seed| FaultProfile::transient(seed, 1_000_000, 64))
            .find(|&p| {
                let inj = FaultInjector::with_profile(FaultPlan::None, Some(p));
                (0..k).all(|_| inj.on_read() && inj.on_durable_write(1) == WriteOutcome::Transient)
            })
            .expect("some seed opens with long bursts")
    }

    #[test]
    fn backoff_doubles_from_one_microsecond_to_a_one_millisecond_cap() {
        use crate::cost::DeviceProfile;
        use crate::device::MemDevice;
        use crate::pager::Pager;
        use crate::wal::{Wal, WalEntry};
        use rum_core::{CostTracker, DataClass};

        assert_eq!(backoff_ns(u32::MAX), 1_000_000, "huge attempts saturate");
        // Through the pager: simulated time after a read that fails all of
        // its `attempts` tries, on a device whose accesses cost nothing.
        let free = DeviceProfile {
            name: "free",
            seq_read_ns: 0,
            rand_read_ns: 0,
            seq_write_ns: 0,
            rand_write_ns: 0,
        };
        let busy = busy_for(12);
        let waited = |attempts: u32| {
            let inj = FaultInjector::with_profile(FaultPlan::None, Some(busy));
            let tracker = CostTracker::new();
            let mut pager = Pager::with_profile(
                FaultDevice::new(MemDevice::new(), inj),
                Arc::clone(&tracker),
                free,
            );
            pager.set_retry_policy(RetryPolicy::attempts(attempts));
            let id = pager.allocate().unwrap();
            let err = pager.read(id, DataClass::Base).unwrap_err();
            assert!(matches!(err, RumError::Transient(_)), "got {err:?}");
            tracker.snapshot().sim_time_ns
        };
        let totals: Vec<u64> = (1..=12).map(waited).collect();
        let deltas: Vec<u64> = totals.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(totals[0], 0, "one attempt never waits");
        assert_eq!(deltas[..3], [1_000, 2_000, 4_000]);
        assert_eq!(deltas[9..], [512_000, 1_000_000], "retry 11 is capped");
        // Through the WAL, which retries under the default three attempts:
        // a sync that fails all three waits 1 µs, then 2 µs, and charges
        // nothing else.
        let inj = FaultInjector::with_profile(FaultPlan::None, Some(busy));
        let tracker = CostTracker::new();
        let mut wal = Wal::with_injector(Arc::clone(&tracker), inj);
        let sink = rum_core::trace::MemorySink::shared();
        wal.set_trace_sink(sink.clone());
        wal.append(&WalEntry::Delete { key: 1 });
        let err = wal.sync().unwrap_err();
        assert!(matches!(err, RumError::Transient(_)), "got {err:?}");
        assert_eq!(tracker.snapshot().sim_time_ns, 3_000);
        let waits: Vec<u64> = sink
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::RetryAttempt)
            .map(|e| e.detail[1].1)
            .collect();
        assert_eq!(waits, [1_000, 2_000]);
    }

    #[test]
    fn an_injected_write_fault_lands_as_one_flipped_bit_or_a_torn_tail() {
        let landed = |outcome: WriteOutcome, len: usize| {
            let mut bytes = vec![0x11u8; len];
            outcome.land(&mut bytes);
            bytes
        };
        let mut want = vec![0x11u8; 16];
        want[2] ^= 1 << 3;
        assert_eq!(landed(WriteOutcome::PersistFlipped { bit: 19 }, 16), want);
        for keep in [0usize, 3, 8, 16] {
            let torn = WriteOutcome::CrashKeeping {
                keep: keep as u64,
                torn: true,
            };
            let mut want = vec![0x11u8; keep];
            for b in &mut want[keep.saturating_sub(8)..] {
                *b = 0x11 ^ 0xA5;
            }
            assert_eq!(landed(torn, keep), want, "keep {keep}");
            let clean = WriteOutcome::CrashKeeping {
                keep: keep as u64,
                torn: false,
            };
            assert_eq!(landed(clean, keep), vec![0x11u8; keep]);
        }
        for outcome in [
            WriteOutcome::Persist,
            WriteOutcome::FailFlush,
            WriteOutcome::Transient,
        ] {
            assert_eq!(landed(outcome, 16), vec![0x11u8; 16]);
        }
    }

    #[test]
    fn transient_profile_is_deterministic_and_bounded() {
        let profile = FaultProfile::transient(42, 200_000, 3);
        let a = FaultInjector::with_profile(FaultPlan::None, Some(profile));
        let b = FaultInjector::with_profile(FaultPlan::None, Some(profile));
        let seq_a: Vec<WriteOutcome> = (0..400).map(|_| a.on_durable_write(64)).collect();
        let seq_b: Vec<WriteOutcome> = (0..400).map(|_| b.on_durable_write(64)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same op sequence, same faults");
        assert!(a.transient_faults() > 0, "20% ppm over 400 ops must fire");
        // No burst of consecutive transient failures exceeds max_burst.
        let mut run = 0u32;
        for o in &seq_a {
            if *o == WriteOutcome::Transient {
                run += 1;
                assert!(run <= 3, "burst exceeded max_burst");
            } else {
                run = 0;
            }
        }
    }

    #[test]
    fn transient_reads_are_deterministic() {
        let profile = FaultProfile::transient(7, 100_000, 2);
        let inj = FaultInjector::with_profile(FaultPlan::None, Some(profile));
        let twin = FaultInjector::with_profile(FaultPlan::None, Some(profile));
        let seq: Vec<bool> = (0..300).map(|_| inj.on_read()).collect();
        let seq2: Vec<bool> = (0..300).map(|_| twin.on_read()).collect();
        assert_eq!(seq, seq2);
        assert!(seq.contains(&true));
    }

    #[test]
    fn transient_write_never_advances_the_byte_clock() {
        let profile = FaultProfile {
            read_error_ppm: 0,
            ..FaultProfile::transient(3, 300_000, 2)
        };
        let inj = FaultInjector::with_profile(FaultPlan::None, Some(profile));
        let mut persisted = 0u64;
        for _ in 0..500 {
            match inj.on_durable_write(10) {
                WriteOutcome::Persist => persisted += 10,
                WriteOutcome::Transient => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(
            inj.durable_bytes(),
            persisted,
            "byte clock counts only landed bytes"
        );
    }

    /// Satellite: the byte clock across *mixed* WAL + device traffic.
    /// Recurring transient write faults must not double-count or shift the
    /// one-shot crash point: the crash still fires exactly when cumulative
    /// *landed* bytes cross the offset, no matter how many transiently
    /// failed attempts were interleaved on either path.
    #[test]
    fn byte_clock_is_shared_and_stable_across_mixed_wal_and_device_traffic() {
        use crate::device::MemDevice;
        use crate::wal::{Wal, WalEntry};
        use rum_core::CostTracker;

        let crash_offset = 3 * PAGE_SIZE as u64 + 100;
        let profile = FaultProfile {
            read_error_ppm: 0,
            ..FaultProfile::transient(11, 250_000, 2)
        };
        let inj = FaultInjector::with_profile(FaultPlan::crash_at(crash_offset), Some(profile));
        // The WAL's three attempts outlast the profile's bursts of at most
        // two, so transient faults never surface from sync().
        let mut wal = Wal::with_injector(CostTracker::new(), Arc::clone(&inj));
        let mut dev = FaultDevice::new(MemDevice::new(), Arc::clone(&inj));
        let id = dev.allocate().unwrap();
        let page = PageBuf::zeroed();

        let mut landed = 0u64;
        let mut crashed = false;
        'outer: for round in 0..64u64 {
            // One WAL record synced (8-byte frame header + 17-byte payload)...
            wal.append(&WalEntry::Insert {
                key: round,
                value: round,
            });
            match wal.sync() {
                Ok(()) => landed += 25,
                Err(RumError::Crash(_)) => {
                    crashed = true;
                    break 'outer;
                }
                Err(e) => panic!("unexpected WAL error {e:?}"),
            }
            // ...then one page write, retried past transient faults.
            let mut attempts = 0;
            loop {
                match dev.write_page(id, &page) {
                    Ok(()) => {
                        landed += PAGE_SIZE as u64;
                        break;
                    }
                    Err(RumError::Transient(_)) => {
                        attempts += 1;
                        assert!(attempts <= 8, "burst exceeded profile bound");
                    }
                    Err(RumError::Crash(_)) => {
                        crashed = true;
                        break 'outer;
                    }
                    Err(e) => panic!("unexpected device error {e:?}"),
                }
            }
        }
        assert!(crashed, "the crash plan must eventually fire");
        assert_eq!(
            inj.durable_bytes(),
            crash_offset,
            "crash fired exactly at the planned byte despite interleaved transients"
        );
        assert!(
            landed >= crash_offset - PAGE_SIZE as u64,
            "landed bytes track the clock up to the final partial write"
        );
    }

    #[test]
    fn bitflips_are_silent_and_deterministic() {
        let profile = FaultProfile::bitflips(5, 1_000_000); // always flip
        let inj = FaultInjector::with_profile(FaultPlan::None, Some(profile));
        let mut dev = FaultDevice::new(MemDevice::new(), Arc::clone(&inj));
        let id = dev.allocate().unwrap();
        let mut page = PageBuf::zeroed();
        page.as_mut_slice().fill(0x11);
        dev.write_page(id, &page).unwrap(); // reports success
        assert_eq!(inj.bitflips(), 1);
        let stored = dev.read_page(id).unwrap();
        let differing: Vec<usize> = (0..PAGE_SIZE)
            .filter(|&i| stored.as_slice()[i] != 0x11)
            .collect();
        assert_eq!(differing.len(), 1, "exactly one byte damaged");
        let delta = stored.as_slice()[differing[0]] ^ 0x11;
        assert_eq!(delta.count_ones(), 1, "exactly one bit flipped");
        // Same seed → same bit.
        let twin_inj = FaultInjector::with_profile(FaultPlan::None, Some(profile));
        let mut twin = FaultDevice::new(MemDevice::new(), Arc::clone(&twin_inj));
        let tid = twin.allocate().unwrap();
        twin.write_page(tid, &page).unwrap();
        assert_eq!(
            twin.read_page(tid).unwrap().as_slice(),
            stored.as_slice(),
            "flip position is a pure function of the seed and op clock"
        );
    }

    #[test]
    fn fault_device_persists_a_torn_page() {
        let inj = FaultInjector::new(FaultPlan::torn_at(PAGE_SIZE as u64 + 100));
        let mut dev = FaultDevice::new(MemDevice::new(), Arc::clone(&inj));
        let a = dev.allocate().unwrap();
        let b = dev.allocate().unwrap();
        let mut old = PageBuf::zeroed();
        old.as_mut_slice().fill(0x11);
        dev.write_page(b, &old).unwrap(); // first page write: fits budget
        let mut new = PageBuf::zeroed();
        new.as_mut_slice().fill(0x22);
        let err = dev.write_page(b, &new).unwrap_err();
        assert!(matches!(err, RumError::Crash(_)), "got {err:?}");
        let after = dev.read_page(b).unwrap();
        // 100 bytes of budget remained: prefix is new (except the torn,
        // bit-flipped tail of the kept range), suffix is the old contents.
        assert_eq!(after.as_slice()[0], 0x22);
        assert_eq!(after.as_slice()[99], 0x22 ^ 0xA5, "tail of keep is torn");
        assert_eq!(after.as_slice()[100], 0x11, "suffix keeps old contents");
        // The untouched page is unaffected, and the device still works.
        let _ = dev.read_page(a).unwrap();
        assert_eq!(dev.write_page(b, &new), Ok(()));
    }
}
