//! The [`AccessMethod`] trait — the paper's notion of "algorithms and data
//! structures for organizing and accessing data" (Hellerstein et al.), with
//! RUM instrumentation baked in.
//!
//! Implementors provide the `*_impl` methods; callers use the provided
//! wrappers ([`get`](AccessMethod::get), [`insert`](AccessMethod::insert),
//! ...) which automatically charge the *logical* side of each operation to
//! the method's [`CostTracker`], so read/write amplification is always
//! well-defined no matter who drives the structure.

use std::sync::Arc;

use crate::error::Result;
use crate::trace::TraceSink;
use crate::tracker::CostTracker;
use crate::types::{base_bytes, Key, Record, Value, TOMBSTONE};

/// Space occupied by a structure, split per the paper's MO definition.
///
/// `base_bytes` is the logical size of the live data (`N × 16`);
/// `aux_bytes` is everything beyond that: index nodes, filters, directory
/// metadata, fragmentation, and redundant copies (e.g. LSM levels).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpaceProfile {
    /// Logical bytes of live base data.
    pub base_bytes: u64,
    /// Physical bytes beyond the base data.
    pub aux_bytes: u64,
}

impl SpaceProfile {
    /// Profile for a structure storing `n` live records in `physical_bytes`
    /// total physical space. Auxiliary space is whatever exceeds the logical
    /// base size; a structure that somehow uses *less* than the logical size
    /// (it cannot, without compression) is clamped to zero auxiliary bytes.
    pub fn from_physical(n_records: usize, physical_bytes: u64) -> Self {
        let base = base_bytes(n_records);
        SpaceProfile {
            base_bytes: base,
            aux_bytes: physical_bytes.saturating_sub(base),
        }
    }

    /// Total physical footprint.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.base_bytes + self.aux_bytes
    }

    /// MO per the paper: "the ratio between the space utilized for auxiliary
    /// and base data, divided by the space utilized for base data".
    ///
    /// The theoretical minimum is 1.0 (no auxiliary data at all). An empty
    /// structure reports its raw overhead relative to one record to avoid a
    /// division by zero.
    pub fn space_amplification(&self) -> f64 {
        if self.base_bytes == 0 {
            if self.aux_bytes == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.total_bytes() as f64 / self.base_bytes as f64
        }
    }
}

/// A key/value access method with RUM instrumentation.
///
/// ## Contract
///
/// * Keys are unique. [`insert`](Self::insert) of an existing key replaces
///   the value (upsert, last-writer-wins) — differential structures like the
///   LSM-tree cannot afford an existence check on the write path, and the
///   paper's UO model assumes they do not perform one.
/// * [`update`](Self::update) returns whether a live key was modified, when
///   the method can tell; blind-write structures may report `true`
///   unconditionally (the workload generator only updates live keys).
/// * [`range`](Self::range) is inclusive on both ends and returns records in
///   ascending key order. An inverted range (`lo > hi`) is
///   [`RumError::InvalidArgument`] for every method: the provided `range`
///   decides it before [`range_impl`](Self::range_impl) runs, so no
///   implementor answers it its own way.
/// * [`bulk_load`](Self::bulk_load) takes records sorted by strictly
///   ascending key and replaces the current contents. Any other order is
///   [`RumError::InvalidArgument`] for every method: the provided
///   `bulk_load` decides it before [`bulk_load_impl`](Self::bulk_load_impl)
///   runs, so a refused load changes nothing and no hook re-checks it.
/// * The value [`TOMBSTONE`] is the workspace's reservation: the
///   differential structures (the LSM-tree, the append log) write it to
///   mark a delete, so the provided `insert`, `update` and `bulk_load`
///   refuse it for every method, before any hook runs, whatever a wrapper
///   forwards.
/// * A method may also reserve keys (the static hash index's two slot
///   markers, the direct-address array's keys past its universe). It says
///   so in [`check_records`](Self::check_records), which the same three
///   entry points ask before any hook runs. A refused write is
///   [`RumError::InvalidArgument`], is charged nothing and changes
///   nothing. A wrapper that forwards the hooks of a method that reserves
///   keys forwards `check_records` too.
///
/// [`RumError::InvalidArgument`]: crate::error::RumError::InvalidArgument
///
/// [`oracle`](crate::oracle) holds a method to all of this, op by op.
///
/// Methods are `Send` so the measurement harness can fan a suite out
/// across worker threads ([`run_suite_stream`]); each instance is still
/// driven from one thread at a time (`&mut self`), so no `Sync` bound is
/// needed.
///
/// [`run_suite_stream`]: crate::runner::run_suite_stream
pub trait AccessMethod: Send {
    /// Human-readable name used in reports and plots.
    fn name(&self) -> String;

    /// Number of live records.
    fn len(&self) -> usize;

    /// Whether the method currently holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tracker this method charges physical traffic to: its account.
    ///
    /// One rule keeps the account whole across the method's life. A
    /// structure rebuilt in place (recovery, a family swap, an LSM retune,
    /// a poisoned shard's self-repair) hands its history and its trace
    /// sink to its successor with [`succeed`] before the successor does
    /// any work, so the new tracker starts where the old one stopped and
    /// its events reach the same sink. The `Arc` returned
    /// here may therefore change across any `&mut self` call, and every
    /// reader (the runner at each settle, observers at each window) asks
    /// for it again instead of keeping a clone. Sharing one tracker among
    /// parts of one structure is composition, not succession, and is
    /// unaffected.
    fn tracker(&self) -> &Arc<CostTracker>;

    /// Space footprint, split into base and auxiliary bytes.
    fn space_profile(&self) -> SpaceProfile;

    // ---- implementation hooks -------------------------------------------

    /// Point lookup.
    fn get_impl(&mut self, key: Key) -> Result<Option<Value>>;

    /// Inclusive range scan in ascending key order.
    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>>;

    /// Upsert.
    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()>;

    /// Modify an existing key; `Ok(false)` if the key was known absent.
    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool>;

    /// Remove a key; `Ok(false)` if the key was known absent.
    fn delete_impl(&mut self, key: Key) -> Result<bool>;

    /// Replace contents from records sorted by strictly ascending key
    /// (the provided [`bulk_load`](Self::bulk_load) has checked the order).
    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()>;

    /// Refuse `records` if they carry a key this method reserves: the one
    /// place a key reservation is checked (see the Contract). Default:
    /// nothing is reserved.
    fn check_records(&self, _records: &[Record]) -> Result<()> {
        Ok(())
    }

    /// Push any buffered state to its final place (e.g. flush an LSM
    /// memtable). Default: nothing to do.
    fn flush(&mut self) -> Result<()> {
        Ok(())
    }

    /// Install a [`TraceSink`] for structured event emission (LSM
    /// flush/compaction, WAL sync/checkpoint, shard dispatch...). Default:
    /// ignore it — methods without noteworthy internal events need no
    /// wiring, and the compiled-in default everywhere is the disabled
    /// [`NoopSink`](crate::trace::NoopSink). Wrappers forward the sink to
    /// their inner methods.
    fn set_trace_sink(&mut self, _sink: Arc<dyn TraceSink>) {}

    /// Attempt in-place self-repair after a worker panic or detected
    /// corruption left this instance in a suspect state. Returns
    /// `Ok(true)` when the method rebuilt itself to a trustworthy state
    /// (e.g. a durable wrapper replaying checkpoint + committed WAL);
    /// `Ok(false)` when it has no repair capability — the caller must
    /// rebuild from scratch (losing volatile contents) or keep the
    /// instance quarantined. Default: no repair capability.
    fn try_heal(&mut self) -> Result<bool> {
        Ok(false)
    }

    // ---- instrumented entry points --------------------------------------

    /// Point lookup; charges the retrieved bytes as logical reads.
    fn get(&mut self, key: Key) -> Result<Option<Value>> {
        let r = self.get_impl(key)?;
        if r.is_some() {
            self.tracker().logical_read(base_bytes(1));
        }
        Ok(r)
    }

    /// Inclusive range scan; charges the result size as logical reads.
    /// `lo > hi` is refused here, for every method alike.
    fn range(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        if lo > hi {
            return Err(crate::error::RumError::InvalidArgument(format!(
                "inverted range {lo}..{hi}"
            )));
        }
        let rs = self.range_impl(lo, hi)?;
        self.tracker().logical_read(base_bytes(rs.len()));
        Ok(rs)
    }

    /// Upsert; charges one record as the logical write.
    fn insert(&mut self, key: Key, value: Value) -> Result<()> {
        let record = [Record::new(key, value)];
        check_input(&record)?;
        self.check_records(&record)?;
        self.insert_impl(key, value)?;
        self.tracker().logical_write(base_bytes(1));
        Ok(())
    }

    /// Update; charges one record as the logical write when applied.
    fn update(&mut self, key: Key, value: Value) -> Result<bool> {
        let record = [Record::new(key, value)];
        check_input(&record)?;
        self.check_records(&record)?;
        let applied = self.update_impl(key, value)?;
        if applied {
            self.tracker().logical_write(base_bytes(1));
        }
        Ok(applied)
    }

    /// Delete; charges one record as the logical write when applied.
    fn delete(&mut self, key: Key) -> Result<bool> {
        let applied = self.delete_impl(key)?;
        if applied {
            self.tracker().logical_write(base_bytes(1));
        }
        Ok(applied)
    }

    /// Bulk load; charges the full input as the logical write, so the write
    /// amplification of construction is meaningful. Input whose keys are
    /// not strictly ascending, or that carries [`TOMBSTONE`], is refused
    /// here, for every method alike, and so is input
    /// [`check_records`](Self::check_records) refuses.
    fn bulk_load(&mut self, records: &[Record]) -> Result<()> {
        check_input(records)?;
        self.check_records(records)?;
        self.bulk_load_impl(records)?;
        self.tracker().logical_write(base_bytes(records.len()));
        Ok(())
    }
}

/// Make `successor` take over from the structure it replaces in place,
/// before it does any work (the rule on [`AccessMethod::tracker`]): it
/// absorbs `predecessor`, the old account, and installs `sink`, the trace
/// sink the old structure reported to. The only place an account passes
/// from one structure to another.
pub fn succeed<M: AccessMethod + ?Sized>(
    successor: &mut M,
    predecessor: &CostTracker,
    sink: &Arc<dyn TraceSink>,
) {
    successor.tracker().absorb(&predecessor.snapshot());
    successor.set_trace_sink(Arc::clone(sink));
}

/// Validate write input in one pass: strictly ascending keys, and no
/// value that is [`TOMBSTONE`].
fn check_input(records: &[Record]) -> Result<()> {
    let mut prev: Option<Key> = None;
    for r in records {
        if prev.is_some_and(|p| p >= r.key) {
            return Err(crate::error::RumError::InvalidArgument(format!(
                "bulk_load input not strictly ascending at key {}",
                r.key
            )));
        }
        if r.value == TOMBSTONE {
            return Err(crate::error::RumError::InvalidArgument(
                "value u64::MAX is reserved as the tombstone sentinel".into(),
            ));
        }
        prev = Some(r.key);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RumError;
    use crate::runner::tests::Amp2;

    #[test]
    fn wrappers_charge_logical_traffic() {
        let mut m = Amp2::new();
        m.insert(1, 10).unwrap();
        m.insert(2, 20).unwrap();
        assert_eq!(m.get(1).unwrap(), Some(10));
        assert_eq!(m.get(99).unwrap(), None);
        let s = m.tracker().snapshot();
        // two inserts charged 32 logical write bytes
        assert_eq!(s.logical_write_bytes, 32);
        // only the hit charged 16 logical read bytes
        assert_eq!(s.logical_read_bytes, 16);
    }

    #[test]
    fn update_miss_charges_nothing_logical() {
        let mut m = Amp2::new();
        assert!(!m.update(5, 1).unwrap());
        assert_eq!(m.tracker().snapshot().logical_write_bytes, 0);
    }

    #[test]
    fn range_charges_result_size() {
        let mut m = Amp2::new();
        for k in 0..10 {
            m.insert(k, k).unwrap();
        }
        let before = m.tracker().snapshot();
        let rs = m.range(2, 5).unwrap();
        assert_eq!(rs.len(), 4);
        let d = m.tracker().since(&before);
        assert_eq!(d.logical_read_bytes, 64);
        // An inverted range is refused before `range_impl` runs.
        let before = m.tracker().snapshot();
        assert!(matches!(m.range(5, 2), Err(RumError::InvalidArgument(_))));
        assert_eq!(m.tracker().snapshot(), before);
    }

    /// `Amp2`'s hook checks nothing: the refusal, and the untouched
    /// contents and account, are the provided `bulk_load`'s.
    fn refused_load(recs: &[Record]) {
        let mut m = Amp2::new();
        m.insert(7, 7).unwrap();
        let before = m.tracker().snapshot();
        assert!(matches!(
            m.bulk_load(recs),
            Err(RumError::InvalidArgument(_))
        ));
        assert_eq!(m.tracker().snapshot(), before);
        assert_eq!(m.range(0, Key::MAX).unwrap(), [Record::new(7, 7)]);
    }

    #[test]
    fn bulk_rejects_unsorted() {
        refused_load(&[Record::new(2, 0), Record::new(1, 0)]);
    }

    #[test]
    fn bulk_rejects_duplicates() {
        refused_load(&[Record::new(1, 0), Record::new(1, 1)]);
    }

    #[test]
    fn bulk_rejects_the_tombstone() {
        refused_load(&[Record::new(1, 0), Record::new(2, TOMBSTONE)]);
    }

    /// The tombstone is refused for a method that reserves nothing itself.
    #[test]
    fn writes_refuse_the_tombstone_and_charge_nothing() {
        let mut m = Amp2::new();
        m.insert(7, 7).unwrap();
        let before = m.tracker().snapshot();
        assert!(matches!(
            m.insert(8, TOMBSTONE),
            Err(RumError::InvalidArgument(_))
        ));
        assert!(matches!(
            m.update(7, TOMBSTONE),
            Err(RumError::InvalidArgument(_))
        ));
        assert_eq!(m.tracker().snapshot(), before);
        assert_eq!(m.range(0, Key::MAX).unwrap(), [Record::new(7, 7)]);
    }

    #[test]
    fn space_profile_math() {
        let p = SpaceProfile::from_physical(10, 200);
        assert_eq!(p.base_bytes, 160);
        assert_eq!(p.aux_bytes, 40);
        assert!((p.space_amplification() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn space_profile_empty() {
        let p = SpaceProfile::from_physical(0, 0);
        assert_eq!(p.space_amplification(), 1.0);
        let p = SpaceProfile::from_physical(0, 4096);
        assert!(p.space_amplification().is_infinite());
    }

    #[test]
    fn space_profile_clamps_compression() {
        // A physically smaller-than-logical footprint clamps aux to 0.
        let p = SpaceProfile::from_physical(10, 100);
        assert_eq!(p.aux_bytes, 0);
    }
}
