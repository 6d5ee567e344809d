//! # rum-storage
//!
//! The simulated block-storage substrate beneath every paged access method
//! in the RUM reproduction.
//!
//! The paper's cost model (Aggarwal–Vitter I/O complexity, Table 1) counts
//! block accesses; its §4 "Memory Hierarchy" discussion replays the RUM
//! tradeoffs at every level of a cache/memory/storage stack. This crate
//! provides both measurement substrates:
//!
//! * [`page`] / [`device`] — 4 KiB pages over an instrumented in-memory
//!   block device ([`MemDevice`]) that counts reads,
//!   writes, allocations and frees ([`IoStats`]).
//! * [`cost`] — a device cost model
//!   ([`DeviceProfile`]) translating page accesses
//!   into simulated nanoseconds, with HDD / SSD / DRAM presets that honor
//!   the sequential-vs-random distinction the paper calls out ("in the
//!   1970s ... minimize the number of random accesses on disk; ... now we
//!   minimize the number of random accesses to main memory").
//! * [`lru`] — an intrusive O(1) LRU used by the hierarchy's buffer.
//! * [`pager`] — the [`Pager`]: the facade access methods
//!   allocate and touch pages through; every access is charged to a
//!   [`CostTracker`](rum_core::CostTracker) with its
//!   [`DataClass`](rum_core::DataClass) (base vs. auxiliary), which is what
//!   makes RO/UO/MO measurable. Reads are lent
//!   ([`Pager::with_page`]) and edits are made where the page lies
//!   ([`Pager::with_page_mut`], one read-modify-write charged as a read
//!   and a write), so neither copies a page the device already holds.
//! * [`hierarchy`] — the [`MemoryHierarchy`] simulator behind the
//!   Figure 2 experiment: one DRAM buffer over a storage device whose
//!   bytes a [`MemDevice`] holds.
//! * [`crc`] — the CRC-32 both integrity layers below share. One
//!   function, three kernels chosen from the machine and the input, same
//!   bits from each: two carry-less-multiply folding kernels (`x86_64`:
//!   512-bit registers with `avx512f` + `vpclmulqdq` from 256 bytes, so
//!   every page; 128-bit lanes with `pclmulqdq` from 64 bytes), so that
//!   sealing and verifying a page runs at memory speed, and a portable
//!   braided table kernel for everything else (other targets; WAL frames,
//!   which are at most 17 bytes and stay on its byte loop). The call into
//!   the hardware kernels is the workspace's one `unsafe` block; this crate
//!   denies the keyword everywhere else and every other crate forbids it.
//! * [`wal`] / [`durable`] — the crash-consistency layer: a checksummed
//!   write-ahead log whose every synced byte is charged as auxiliary write
//!   traffic (so UO includes the durability protocol), and the
//!   [`Durable`] wrapper adding WAL + checkpoint +
//!   recovery to any access method.
//! * [`fault`] — deterministic fault injection
//!   ([`FaultInjector`]): seeded crash points, torn
//!   writes, and failed flushes over the WAL sync path and the block
//!   device, powering the crash-matrix experiment; plus recurring seeded
//!   faults ([`FaultProfile`]) — transient read/write errors with bounded
//!   bursts and silent bit-flips. Both durable paths land an injected
//!   write fault the one way [`WriteOutcome::land`] does, and the pager
//!   and the WAL answer a failed attempt with the one step
//!   [`RetryPolicy::retry_after`]: give up, or retry after a
//!   deterministic backoff that is charged as simulated time.
//! * [`checked`] — sealed pages: [`CheckedDevice`]
//!   seals every write with a CRC-32 ([`crc`]) in a sidecar map and verifies
//!   on read, turning silent bit-rot into
//!   [`RumError::CorruptPage`](rum_core::RumError::CorruptPage); the
//!   pager's [`scrub`](Pager::scrub) walks the seals and prices the
//!   verification as auxiliary reads.

#![deny(unsafe_code)]

pub mod checked;
pub mod cost;
pub mod crc;
pub mod device;
pub mod durable;
pub mod fault;
pub mod hierarchy;
pub mod lru;
pub mod page;
pub mod pager;
pub mod wal;

pub use checked::{CheckedDevice, ScrubReport};
pub use cost::DeviceProfile;
pub use crc::crc32;
pub use device::{BlockDevice, EditFault, IoStats, MemDevice};
pub use durable::{Durable, RecoveryReport};
pub use fault::{
    splitmix64, FaultDevice, FaultInjector, FaultPlan, FaultProfile, RetryPolicy, WriteOutcome,
};
pub use hierarchy::MemoryHierarchy;
pub use lru::LruSet;
pub use page::{PageBuf, PageId};
pub use pager::Pager;
pub use wal::{Wal, WalEntry, WalReplay};
