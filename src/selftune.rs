//! Cross-family self-tuning — the paper's §5 endgame: an access method
//! that does not just re-tune its knobs but *changes family* when the
//! workload drifts far enough, while its answers and its cost account
//! stay continuous.
//!
//! [`FamilyMorph`] wraps any suite structure and reports the resident
//! structure's own [`CostTracker`]. A family swap (drain → build → bulk
//! load, one [`migrate`]) hands the old account and the trace sink to the
//! new structure before it loads, so the costs accumulated so far carry
//! forward and the swap is just another
//! priced reorganization — its I/O lands in UO and its transient
//! double-residency is reported as MO in the [`MigrationReceipt`]. The
//! [`AutoTuner`](rum_core::autotune::AutoTuner) drives swaps through the
//! [`Morphable`] face using the calibrated advisor's family ranking.

use std::sync::Arc;

use rum_core::autotune::{migrate, MigrationReceipt, Morphable, RetuneEstimate};
use rum_core::trace::TraceSink;
use rum_core::wizard::{Environment, Family};
use rum_core::workload::OpMix;
use rum_core::{AccessMethod, CostTracker, Key, Record, Result, SpaceProfile, Value};

/// Build a fresh, empty representative of `family`: the
/// [`standard_suite`](crate::standard_suite) method it is calibrated from
/// ([`Family::suite_method`]), so a drift-scale LSM flushes and compacts
/// at the suite's memtable size. `None` for families that cannot serve
/// the full range contract (hash indexes).
pub fn build_family(family: Family) -> Option<Box<dyn AccessMethod>> {
    match family {
        Family::HashIndex => None,
        _ => crate::suite_method(family.suite_method()),
    }
}

/// An access method that can swap its entire family under the
/// [`AutoTuner`](rum_core::autotune::AutoTuner)'s direction.
pub struct FamilyMorph {
    inner: Box<dyn AccessMethod>,
    family: Family,
    sink: Arc<dyn TraceSink>,
    swaps: u64,
}

impl FamilyMorph {
    /// Wrap a fresh representative of `family`. `None` only for
    /// [`Family::HashIndex`] (no range contract, so it cannot be drained
    /// into — or out of — by a swap).
    pub fn new(family: Family) -> Option<Self> {
        Some(FamilyMorph {
            inner: build_family(family)?,
            family,
            sink: rum_core::trace::noop_sink(),
            swaps: 0,
        })
    }

    /// Family swaps performed so far.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }
}

impl AccessMethod for FamilyMorph {
    fn name(&self) -> String {
        format!("family-morph[{}]", self.inner.name())
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

    fn check_records(&self, records: &[Record]) -> Result<()> {
        self.inner.check_records(records)
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
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

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }

    fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = Arc::clone(&sink);
        self.inner.set_trace_sink(sink);
    }

    fn try_heal(&mut self) -> Result<bool> {
        self.inner.try_heal()
    }
}

impl Morphable for FamilyMorph {
    fn family(&self) -> Family {
        self.family
    }

    fn shape(&self) -> String {
        format!("{:?}", self.family)
    }

    fn retune_gain(&mut self, _mix: &OpMix, _env: &Environment) -> Option<RetuneEstimate> {
        // The facade has no knobs of its own; in-place advice belongs to
        // knob-aware structures like `LsmTree`. The tuner's family-swap
        // path (calibrated advisor ranking) is how this structure adapts.
        None
    }

    fn morph_to(&mut self, family: Family, _mix: &OpMix) -> Result<Option<MigrationReceipt>> {
        if family == self.family {
            return Ok(None);
        }
        let Some(mut fresh) = build_family(family) else {
            return Ok(None);
        };
        // Drain through the priced read path: the old shape's RO is the
        // first half of the migration bill.
        let shapes = [self.shape(), format!("{family:?}")];
        let receipt = migrate(
            self.inner.as_mut(),
            fresh.as_mut(),
            &self.sink,
            shapes,
            |m| m.range_impl(0, u64::MAX),
        )?;
        self.inner = fresh;
        self.family = family;
        self.swaps += 1;
        Ok(Some(receipt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::{AccessMethod, CostSnapshot, RECORD_SIZE};

    #[test]
    fn every_range_capable_family_builds() {
        for family in Family::ALL {
            let built = build_family(family);
            assert_eq!(
                built.is_some(),
                family != Family::HashIndex,
                "{family:?} availability"
            );
        }
    }

    #[test]
    fn swap_preserves_contents_answers_and_cost_history() {
        let mut m = FamilyMorph::new(Family::BTree).unwrap();
        for k in 0..2000u64 {
            m.insert(k * 3, k).unwrap();
        }
        m.delete(30).unwrap();
        let before_answers = m.range(0, 600).unwrap();
        let before = m.tracker().snapshot();

        let receipt = m
            .morph_to(Family::LsmTree, &OpMix::WRITE_HEAVY)
            .unwrap()
            .expect("cross-family morph must run");
        let after = m.tracker().snapshot();
        assert_eq!(m.family(), Family::LsmTree);
        assert_eq!(m.swaps(), 1);
        assert!(receipt.bytes_read > 0, "drain must be priced");
        assert!(receipt.bytes_written > 0, "rebuild must be priced");
        assert!(
            receipt.peak_extra_bytes as usize >= 1999 * RECORD_SIZE,
            "double residency must cover the drain buffer"
        );
        // The history survives the swap: every counter only grew, and by
        // exactly what the receipt prices.
        let counters = |s: &CostSnapshot| {
            [
                s.base_read_bytes,
                s.aux_read_bytes,
                s.base_write_bytes,
                s.aux_write_bytes,
                s.logical_read_bytes,
                s.logical_write_bytes,
                s.page_reads,
                s.page_writes,
                s.sim_time_ns,
            ]
        };
        let mut grew = counters(&after).into_iter().zip(counters(&before));
        assert!(grew.all(|(a, b)| a >= b), "history lost");
        let delta = after.delta(&before);
        assert_eq!(delta.total_read_bytes(), receipt.bytes_read);
        assert_eq!(delta.total_write_bytes(), receipt.bytes_written);
        assert_eq!(m.len(), 1999);
        assert_eq!(m.range(0, 600).unwrap(), before_answers);
        assert_eq!(m.get(30).unwrap(), None);
        assert_eq!(m.get(33).unwrap(), Some(11));
    }

    /// A tuned run that swaps families mid-stream: the runner reads the
    /// account each new shape inherited, so the report holds every byte.
    #[test]
    fn autotuned_swaps_report_every_byte() {
        use rum_core::advisor::ProfileStore;
        use rum_core::autotune::{AutoTuneConfig, AutoTuner};
        use rum_core::runner::run_stream_autotuned;
        use rum_core::trace::{noop_sink, TraceCollector};
        use rum_core::wizard::Constraints;
        use rum_core::workload::{OpStream, WorkloadSpec};

        let spec = WorkloadSpec {
            initial_records: 2000,
            operations: 20_000,
            mix: OpMix::READ_HEAVY,
            seed: 5,
            ..Default::default()
        };
        let mut tuner = AutoTuner::new(
            AutoTuneConfig {
                allow_family_swap: true,
                ..Default::default()
            },
            &OpMix::WRITE_HEAVY,
            ProfileStore::default(),
            Environment {
                n: spec.initial_records,
                ..Default::default()
            },
            Constraints {
                needs_ranges: true,
                ..Default::default()
            },
        );
        let mut m = FamilyMorph::new(Family::LsmTree).unwrap();
        let mut trace = TraceCollector::new(512, noop_sink());
        let (report, summary) =
            run_stream_autotuned(&mut m, OpStream::new(&spec), &mut tuner, &mut trace).unwrap();
        assert!(summary.migrations >= 1 && m.swaps() >= 1, "no swap ran");
        let reported = report
            .load_costs
            .add(&report.read_costs)
            .add(&report.write_costs);
        assert_eq!(reported, m.tracker().snapshot());
    }

    #[test]
    fn migration_io_lands_on_the_facade_account() {
        let mut m = FamilyMorph::new(Family::SortedColumn).unwrap();
        for k in 0..500u64 {
            m.insert(k, k).unwrap();
        }
        let before = m.tracker().snapshot();
        m.morph_to(Family::CrackedColumn, &OpMix::BALANCED)
            .unwrap()
            .unwrap();
        let delta = m.tracker().since(&before);
        assert!(delta.total_read_bytes() > 0 && delta.total_write_bytes() > 0);
        // Post-swap traffic keeps flowing into the same account.
        let mark = m.tracker().snapshot();
        m.get(250).unwrap();
        assert!(m.tracker().since(&mark).total_read_bytes() > 0);
    }

    #[test]
    fn unsupported_or_identity_swaps_are_declined() {
        let mut m = FamilyMorph::new(Family::BTree).unwrap();
        m.insert(1, 1).unwrap();
        assert!(m
            .morph_to(Family::BTree, &OpMix::BALANCED)
            .unwrap()
            .is_none());
        assert!(m
            .morph_to(Family::HashIndex, &OpMix::BALANCED)
            .unwrap()
            .is_none());
        assert_eq!(m.family(), Family::BTree);
        assert_eq!(m.swaps(), 0);
    }
}
