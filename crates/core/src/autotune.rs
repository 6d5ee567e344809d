//! Online self-tuning: the closed loop over trace trajectories.
//!
//! The RUM conjecture says no static design wins everywhere — so the
//! interesting online question is *when to move* along the RO/UO/MO
//! tradeoff surface as the workload shifts. This module closes that loop:
//!
//! * [`AutoTuner`] consumes the [`TrajectoryWindow`]s the
//!   [`TraceCollector`] already produces,
//!   maintains a decaying estimate of the live operation mix, and detects
//!   drift when the estimate moves beyond hysteresis thresholds (mix L1
//!   distance plus windowed RO/UO slope).
//! * On drift it asks the advisor ([`ProfileStore::recommend`], at the
//!   tuner's own estimate) and the structure itself
//!   ([`Morphable::retune_gain`]) what a better shape would cost, and
//!   orders a migration only when the
//!   predicted per-op win, amortized over [`AutoTuneConfig::horizon_ops`],
//!   exceeds the migration bill (rewriting the resident data).
//! * Every migration is priced in the paper's own currency: its I/O is
//!   charged to UO through the structure's [`CostTracker`]
//!   (the runner settles migration traffic into the write class), and the
//!   transient double-residency is reported as
//!   [`MigrationReceipt::peak_extra_bytes`] (an MO spike while both copies
//!   exist).
//!
//! Decisions are observable through [`TraceSink`] events
//! (`DriftDetected` / `TuneDecision` / `MigrationStart` /
//! `MigrationComplete`) and summarized in [`AutoTuneSummary`].
//!
//! The tuner is strictly opt-in: nothing in the suite consults it unless a
//! runner is invoked through
//! [`run_stream_autotuned`](crate::runner::run_stream_autotuned), so
//! tuner-off runs are bit-identical to pre-tuner builds.
//!
//! [`CostTracker`]: crate::tracker::CostTracker

use std::sync::Arc;

use crate::access::{succeed, AccessMethod};
use crate::advisor::ProfileStore;
use crate::error::Result;
use crate::runner::{RumReport, RunObserver};
use crate::trace::{noop_sink, EventKind, TraceCollector, TraceSink, TrajectoryWindow};
use crate::tracker::{CostSnapshot, CostTracker};
use crate::types::{Record, PAGE_SIZE, RECORD_SIZE};
use crate::wizard::{Constraints, Environment, Family};
use crate::workload::{Op, OpMix};

/// Per-window operation-kind counts — the raw material of the tuner's mix
/// estimate. The autotuned runner accumulates one per trajectory window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    pub get: u64,
    pub insert: u64,
    pub update: u64,
    pub delete: u64,
    pub range: u64,
}

impl OpCounts {
    /// Count one operation.
    pub fn observe(&mut self, op: &Op) {
        match op {
            Op::Get(_) => self.get += 1,
            Op::Insert(..) => self.insert += 1,
            Op::Update(..) => self.update += 1,
            Op::Delete(_) => self.delete += 1,
            Op::Range(..) => self.range += 1,
        }
    }

    /// Total ops counted.
    pub fn total(&self) -> u64 {
        self.get + self.insert + self.update + self.delete + self.range
    }

    /// The observed mix (normalized), or `None` for an empty window.
    pub fn to_mix(&self) -> Option<OpMix> {
        if self.total() == 0 {
            return None;
        }
        let counted = OpMix {
            get: self.get as f64,
            insert: self.insert as f64,
            update: self.update as f64,
            delete: self.delete as f64,
            range: self.range as f64,
        };
        Some(counted.normalized())
    }
}

/// What an in-place re-tune of the current structure is predicted to be
/// worth, in expected page-equivalents per operation under the query mix.
#[derive(Clone, Debug, PartialEq)]
pub struct RetuneEstimate {
    /// Expected cost/op of the current shape.
    pub current_cost: f64,
    /// Expected cost/op of the advised shape.
    pub advised_cost: f64,
    /// Human-readable description of the advised shape.
    pub advised_shape: String,
    /// Migration bill in pages when the structure knows a cheaper path
    /// than a full drain-and-rebuild (e.g. an LSM sorted-view toggle that
    /// only builds or drops the anchors). `None` means the default bill:
    /// rewriting the whole resident footprint.
    pub bill_pages: Option<f64>,
}

/// The priced outcome of one migration: the I/O it cost (charged to UO by
/// the structure's tracker) and the transient double-residency it imposed
/// (an MO spike while source and destination coexist).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationReceipt {
    /// Shape before the migration.
    pub from: String,
    /// Shape after the migration.
    pub to: String,
    /// Physical bytes read draining the old shape.
    pub bytes_read: u64,
    /// Physical bytes written building the new shape.
    pub bytes_written: u64,
    /// Peak bytes resident *beyond* the final footprint while both copies
    /// existed — the transient MO of the migration.
    pub peak_extra_bytes: u64,
}

/// A live structure the [`AutoTuner`] can reshape.
///
/// Two migration granularities, both priced: an in-place knob re-tune
/// (same family, new configuration — LSM `T`/memtable/filter/sorted-view)
/// and a family swap (drain into a different access method entirely, the
/// `crates/adaptive` crack/merge/morph move).
pub trait Morphable: AccessMethod {
    /// The wizard family the current shape belongs to.
    fn family(&self) -> Family;

    /// Human-readable description of the current shape (knobs included).
    fn shape(&self) -> String;

    /// Price an in-place re-tune for `mix`: `Some` when the advised
    /// configuration differs from the current one, `None` when the
    /// structure is already shaped right (or has no knobs).
    fn retune_gain(&mut self, mix: &OpMix, env: &Environment) -> Option<RetuneEstimate>;

    /// Reshape in place: re-tune the knobs (when `family` matches the
    /// current one) or swap family. Returns `Ok(None)` when no work was
    /// needed (already in the advised shape, or the target family is
    /// unsupported); `Ok(Some(receipt))` prices the migration performed.
    ///
    /// Implementations must keep the logical contents and carry the
    /// accumulated costs forward: a structure rebuilt by the migration
    /// succeeds its predecessor through [`migrate`] (the rule on
    /// [`AccessMethod::tracker`]), so answers, history and the trace sink
    /// all survive.
    fn morph_to(&mut self, family: Family, mix: &OpMix) -> Result<Option<MigrationReceipt>>;
}

/// The one drain-and-rebuild migration: `drain` reads every record out of
/// `old` through its priced read path, then `fresh` [`succeed`]s `old`
/// (account and `sink`) and bulk loads them. The caller puts `fresh` in
/// `old`'s place. The receipt's window opens before `drain`, so whatever
/// `drain` charges (an LSM flushes its memtable first) is migration I/O;
/// its transient MO is `old`'s resident bytes plus the drain buffer.
pub fn migrate<M: AccessMethod + ?Sized>(
    old: &mut M,
    fresh: &mut M,
    sink: &Arc<dyn TraceSink>,
    [from, to]: [String; 2],
    drain: impl FnOnce(&mut M) -> Result<Vec<Record>>,
) -> Result<MigrationReceipt> {
    let old_resident = old.space_profile().total_bytes();
    let mark = old.tracker().snapshot();
    let all = drain(old)?;
    succeed(fresh, old.tracker(), sink);
    fresh.bulk_load_impl(&all)?;
    let delta = fresh.tracker().since(&mark);
    Ok(MigrationReceipt {
        from,
        to,
        bytes_read: delta.total_read_bytes(),
        bytes_written: delta.total_write_bytes(),
        peak_extra_bytes: old_resident + (all.len() * RECORD_SIZE) as u64,
    })
}

/// Migration granularity of a [`TunePlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TuneKind {
    /// Same family, new knobs.
    Retune,
    /// Drain into a different family.
    FamilySwap,
}

/// A migration order: what to morph into and why it pays.
#[derive(Clone, Debug)]
pub struct TunePlan {
    pub kind: TuneKind,
    /// Target family (the current one for [`TuneKind::Retune`]).
    pub family: Family,
    /// The mix estimate the decision was made for.
    pub mix: OpMix,
    /// Predicted saving in page-equivalents per op.
    pub predicted_win: f64,
    /// Migration bill: pages to read + write rewriting the resident data.
    pub bill_pages: f64,
    /// Trajectory window the decision closed on.
    pub window: usize,
}

/// L1 mix distance between the tuner's estimate and the mix the current
/// shape was chosen for, beyond which drift is declared.
const MIX_THRESHOLD: f64 = 0.3;

/// Relative jump in windowed RO or UO between consecutive windows, beyond
/// which drift is declared (catches cost drift the mix alone does not
/// show, e.g. a skew spike).
const SLOPE_THRESHOLD: f64 = 0.75;

/// Hysteresis and pricing knobs of the [`AutoTuner`].
#[derive(Clone, Copy, Debug)]
pub struct AutoTuneConfig {
    /// Weight of history in the decaying mix estimate
    /// (`est ← decay·est + (1−decay)·window`).
    pub decay: f64,
    /// The estimate must move less than this (L1) between consecutive
    /// windows to count as settled.
    pub settle_epsilon: f64,
    /// Consecutive settled windows required before migrating — the
    /// hysteresis that keeps a drifting estimate from triggering a
    /// migration per window mid-transition.
    pub settle_windows: usize,
    /// Windows to wait after a migration before considering another.
    pub cooldown_windows: usize,
    /// Windows to observe before the first decision.
    pub warmup_windows: usize,
    /// Operations the predicted per-op win is amortized over when weighed
    /// against the migration bill; the amortized win must exceed the bill.
    pub horizon_ops: u64,
    /// Whether family swaps (via the advisor ranking) are on the table, or
    /// only in-place re-tunes.
    pub allow_family_swap: bool,
}

impl Default for AutoTuneConfig {
    fn default() -> Self {
        AutoTuneConfig {
            decay: 0.5,
            settle_epsilon: 0.06,
            settle_windows: 2,
            cooldown_windows: 4,
            warmup_windows: 3,
            horizon_ops: 100_000,
            allow_family_swap: false,
        }
    }
}

/// What the tuner did over a run.
#[derive(Clone, Debug, Default)]
pub struct AutoTuneSummary {
    /// Trajectory windows observed.
    pub windows: usize,
    /// Drift episodes announced (`DriftDetected` events).
    pub drift_events: u64,
    /// Migration decisions taken (`TuneDecision` events).
    pub decisions: u64,
    /// Migrations actually performed (structure changed shape).
    pub migrations: u64,
    /// Decisions the structure answered with "already in that shape".
    pub noop_decisions: u64,
    /// Total bytes read by migrations (charged to UO).
    pub migration_read_bytes: u64,
    /// Total bytes written by migrations (charged to UO).
    pub migration_write_bytes: u64,
    /// Largest transient double-residency of any single migration.
    pub peak_extra_bytes: u64,
    /// One receipt per performed migration, in order.
    pub receipts: Vec<MigrationReceipt>,
}

impl AutoTuneSummary {
    /// Total migration I/O in bytes (the UO charge).
    pub fn migration_bytes(&self) -> u64 {
        self.migration_read_bytes + self.migration_write_bytes
    }
}

/// The online controller. Feed it one ([`TrajectoryWindow`],
/// [`OpCounts`]) pair per closed window via [`plan`](Self::plan); execute
/// the returned [`TunePlan`] (if any) against the structure and report the
/// outcome via [`complete`](Self::complete).
///
/// [`run_stream_autotuned`](crate::runner::run_stream_autotuned) does this
/// wiring; the tuner itself never touches the structure's data path.
pub struct AutoTuner {
    cfg: AutoTuneConfig,
    store: ProfileStore,
    env: Environment,
    cons: Constraints,
    sink: Arc<dyn TraceSink>,
    /// Decaying estimate of the live mix (normalized).
    est: OpMix,
    /// The mix the current shape was (last) chosen for.
    active_mix: OpMix,
    stable_streak: usize,
    windows_seen: usize,
    cooldown_until: usize,
    drift_open: bool,
    last_ro: Option<f64>,
    last_uo: Option<f64>,
    summary: AutoTuneSummary,
}

impl AutoTuner {
    /// Build a tuner. `initial_mix` is the mix the structure's starting
    /// shape was chosen for; `store` carries measured profiles for family
    /// ranking (an empty store ranks by the analytic Table 1 model).
    pub fn new(
        cfg: AutoTuneConfig,
        initial_mix: &OpMix,
        store: ProfileStore,
        env: Environment,
        cons: Constraints,
    ) -> AutoTuner {
        let start = initial_mix.normalized();
        AutoTuner {
            cfg,
            store,
            env,
            cons,
            sink: noop_sink(),
            est: start,
            active_mix: start,
            stable_streak: 0,
            windows_seen: 0,
            cooldown_until: 0,
            drift_open: false,
            last_ro: None,
            last_uo: None,
            summary: AutoTuneSummary::default(),
        }
    }

    /// Route decision events (`DriftDetected`/`TuneDecision`/...) to `sink`.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = sink;
    }

    /// The tuner's decision log so far.
    pub fn summary(&self) -> &AutoTuneSummary {
        &self.summary
    }

    /// The current decayed mix estimate.
    pub fn estimate(&self) -> &OpMix {
        &self.est
    }

    fn emit(&self, kind: EventKind, detail: &[(&'static str, u64)]) {
        if self.sink.enabled() {
            self.sink.emit(kind, detail);
        }
    }

    /// Observe one closed window and decide whether to migrate.
    ///
    /// Hysteresis: drift must be declared (mix distance or RO/UO slope
    /// over threshold), the estimate must have settled
    /// ([`settle_windows`](AutoTuneConfig::settle_windows) consecutive
    /// quiet windows — so one regime change yields one migration, not one
    /// per window of the transition), warmup and cooldown must have
    /// passed, and the amortized predicted win must beat the bill.
    pub fn plan(
        &mut self,
        window: &TrajectoryWindow,
        counts: &OpCounts,
        method: &mut dyn Morphable,
    ) -> Option<TunePlan> {
        self.windows_seen += 1;
        self.summary.windows += 1;
        let observed = counts.to_mix()?;

        let prev = self.est;
        self.est = blend(&prev, &observed, self.cfg.decay);
        if self.est.l1_distance(&prev) < self.cfg.settle_epsilon {
            self.stable_streak += 1;
        } else {
            self.stable_streak = 0;
        }

        let slope = f64::max(
            slope_step(&mut self.last_ro, window.ro()),
            slope_step(&mut self.last_uo, window.uo()),
        );

        let dist = self.est.l1_distance(&self.active_mix);
        let drifted = dist > MIX_THRESHOLD || slope > SLOPE_THRESHOLD;
        if !drifted {
            self.drift_open = false;
            return None;
        }
        if !self.drift_open {
            self.drift_open = true;
            self.summary.drift_events += 1;
            self.emit(
                EventKind::DriftDetected,
                &[
                    ("window", window.index as u64),
                    ("mix_distance_micros", micros(dist)),
                    ("slope_micros", micros(slope)),
                ],
            );
        }
        if self.windows_seen < self.cfg.warmup_windows
            || self.windows_seen < self.cooldown_until
            || self.stable_streak < self.cfg.settle_windows
        {
            return None;
        }

        // Candidate 1: in-place knob re-tune, priced by the structure.
        let mut best: Option<TunePlan> = None;
        let mut bill_hint = None;
        if let Some(gain) = method.retune_gain(&self.est, &self.env) {
            let win = gain.current_cost - gain.advised_cost;
            if win > 0.0 {
                bill_hint = gain.bill_pages;
                best = Some(TunePlan {
                    kind: TuneKind::Retune,
                    family: method.family(),
                    mix: self.est,
                    predicted_win: win,
                    bill_pages: 0.0,
                    window: window.index,
                });
            }
        }

        // Candidate 2: family swap, priced by the advisor.
        if self.cfg.allow_family_swap {
            let current = method.family();
            let ranking = self.store.recommend(&self.est, &self.env, &self.cons);
            let swap = ranking.top().and_then(|top| {
                if top.family == current || !top.feasible {
                    return None;
                }
                let cur = ranking.recs.iter().find(|r| r.family == current)?;
                Some((top.family, cur.expected_cost - top.expected_cost))
            });
            if let Some((family, win)) = swap {
                if win > 0.0 && best.as_ref().is_none_or(|b| win > b.predicted_win) {
                    // A swap drains everything; the re-tune's cheap-path
                    // hint (if any) no longer applies.
                    bill_hint = None;
                    best = Some(TunePlan {
                        kind: TuneKind::FamilySwap,
                        family,
                        mix: self.est,
                        predicted_win: win,
                        bill_pages: 0.0,
                        window: window.index,
                    });
                }
            }
        }

        let mut plan = best?;
        // The bill: rewriting the resident data (read it all, write it
        // all) in pages — unless the structure quoted a cheaper path
        // (floored at one page so a "free" migration still needs a
        // nonzero predicted win to fire).
        let resident = method.space_profile().total_bytes();
        plan.bill_pages = bill_hint
            .map(|pages| pages.max(1.0))
            .unwrap_or((2 * resident) as f64 / PAGE_SIZE as f64);
        if plan.predicted_win * self.cfg.horizon_ops as f64 <= plan.bill_pages {
            return None;
        }

        self.summary.decisions += 1;
        self.emit(
            EventKind::TuneDecision,
            &[
                ("window", plan.window as u64),
                ("family_swap", u64::from(plan.kind == TuneKind::FamilySwap)),
                ("win_micros_per_op", micros(plan.predicted_win)),
                ("bill_pages", plan.bill_pages as u64),
            ],
        );
        Some(plan)
    }

    /// Announce an imminent migration (the runner calls this right before
    /// [`Morphable::morph_to`], after settling op-phase attribution so the
    /// migration's I/O lands in the write class).
    pub fn begin_migration(&self, plan: &TunePlan) {
        self.emit(
            EventKind::MigrationStart,
            &[
                ("window", plan.window as u64),
                ("family_swap", u64::from(plan.kind == TuneKind::FamilySwap)),
            ],
        );
    }

    /// Record the outcome of an executed plan: adopt the estimate as the
    /// active mix, start the cooldown, and account the receipt (if the
    /// structure actually moved).
    pub fn complete(&mut self, plan: TunePlan, receipt: Option<MigrationReceipt>) {
        self.active_mix = plan.mix;
        self.cooldown_until = self.windows_seen + self.cfg.cooldown_windows;
        self.stable_streak = 0;
        self.drift_open = false;
        match receipt {
            Some(r) => {
                self.emit(
                    EventKind::MigrationComplete,
                    &[
                        ("window", plan.window as u64),
                        ("bytes_read", r.bytes_read),
                        ("bytes_written", r.bytes_written),
                        ("peak_extra_bytes", r.peak_extra_bytes),
                    ],
                );
                self.summary.migrations += 1;
                self.summary.migration_read_bytes += r.bytes_read;
                self.summary.migration_write_bytes += r.bytes_written;
                self.summary.peak_extra_bytes =
                    self.summary.peak_extra_bytes.max(r.peak_extra_bytes);
                self.summary.receipts.push(r);
            }
            None => self.summary.noop_decisions += 1,
        }
    }
}

/// A collector and a tuner observing one run together
/// ([`run_stream_autotuned`](crate::runner::run_stream_autotuned)): every
/// window the collector closes goes to [`AutoTuner::plan`] with the
/// window's op-kind counts, and an ordered migration runs in place before
/// the next op.
pub(crate) struct Tuning<'a> {
    trace: &'a mut TraceCollector,
    tuner: &'a mut AutoTuner,
    /// Op kinds seen since the last window close.
    counts: OpCounts,
    /// The migration `on_window` ordered, until `migrate` executes it.
    plan: Option<TunePlan>,
}

impl<'a> Tuning<'a> {
    pub(crate) fn new(trace: &'a mut TraceCollector, tuner: &'a mut AutoTuner) -> Self {
        Tuning {
            trace,
            tuner,
            counts: OpCounts::default(),
            plan: None,
        }
    }
}

impl<'m> RunObserver<dyn Morphable + 'm> for Tuning<'_> {
    fn on_begin(&mut self, _load: &CostSnapshot, tracker: &CostTracker) {
        self.trace.begin(tracker);
    }

    fn on_op(&mut self, op: Op, latency_ns: u64, method: &(dyn Morphable + 'm)) -> bool {
        self.counts.observe(&op);
        self.trace.on_op(op, latency_ns, method)
    }

    fn on_window(&mut self, method: &mut (dyn Morphable + 'm)) -> bool {
        let window = self.trace.windows().last().expect("a window just closed");
        let counts = std::mem::take(&mut self.counts);
        self.plan = self.tuner.plan(window, &counts, method);
        self.plan.is_some()
    }

    fn migrate(&mut self, method: &mut (dyn Morphable + 'm)) -> Result<()> {
        let plan = self.plan.take().expect("on_window ordered a migration");
        self.tuner.begin_migration(&plan);
        let receipt = method.morph_to(plan.family, &plan.mix)?;
        self.tuner.complete(plan, receipt);
        Ok(())
    }

    fn on_finish(&mut self, method: &(dyn Morphable + 'm), report: &mut RumReport) {
        self.trace.on_finish(method, report);
    }
}

/// `decay·a + (1−decay)·b`, renormalized.
fn blend(a: &OpMix, b: &OpMix, decay: f64) -> OpMix {
    let w = decay.clamp(0.0, 1.0);
    OpMix {
        get: w * a.get + (1.0 - w) * b.get,
        insert: w * a.insert + (1.0 - w) * b.insert,
        update: w * a.update + (1.0 - w) * b.update,
        delete: w * a.delete + (1.0 - w) * b.delete,
        range: w * a.range + (1.0 - w) * b.range,
    }
    .normalized()
}

/// `|now − baseline| / max(baseline, 1)` — the windowed slope signal —
/// after which `now` becomes the baseline. The first window has no
/// baseline and reports no jump. A non-finite `now` (a window that read
/// pages but retrieved nothing has RO = ∞) carries no signal and leaves
/// the baseline alone, so it neither fakes drift nor turns the next
/// window's jump into `∞/∞`.
fn slope_step(baseline: &mut Option<f64>, now: f64) -> f64 {
    if !now.is_finite() {
        return 0.0;
    }
    let jump = baseline.map_or(0.0, |b| (now - b).abs() / b.max(1.0));
    *baseline = Some(now);
    jump
}

fn micros(x: f64) -> u64 {
    (x * 1e6).round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MemorySink;
    use crate::tracker::CostTracker;
    use crate::types::Record;
    use crate::SpaceProfile;

    /// A fake morphable structure with scripted costs: current shape costs
    /// `current`, the advised shape `advised`, per op.
    struct Scripted {
        tracker: Arc<CostTracker>,
        current: f64,
        advised: f64,
        morphs: usize,
        resident: u64,
    }

    impl Scripted {
        fn new(current: f64, advised: f64, resident: u64) -> Scripted {
            Scripted {
                tracker: CostTracker::new(),
                current,
                advised,
                morphs: 0,
                resident,
            }
        }
    }

    impl AccessMethod for Scripted {
        fn name(&self) -> String {
            "scripted".into()
        }
        fn len(&self) -> usize {
            1
        }
        fn tracker(&self) -> &Arc<CostTracker> {
            &self.tracker
        }
        fn space_profile(&self) -> SpaceProfile {
            SpaceProfile {
                base_bytes: self.resident,
                aux_bytes: 0,
            }
        }
        fn get_impl(&mut self, _key: u64) -> Result<Option<u64>> {
            Ok(None)
        }
        fn range_impl(&mut self, _lo: u64, _hi: u64) -> Result<Vec<Record>> {
            Ok(Vec::new())
        }
        fn insert_impl(&mut self, _key: u64, _value: u64) -> Result<()> {
            Ok(())
        }
        fn update_impl(&mut self, _key: u64, _value: u64) -> Result<bool> {
            Ok(false)
        }
        fn delete_impl(&mut self, _key: u64) -> Result<bool> {
            Ok(false)
        }
        fn bulk_load_impl(&mut self, _records: &[Record]) -> Result<()> {
            Ok(())
        }
    }

    impl Morphable for Scripted {
        fn family(&self) -> Family {
            Family::LsmTree
        }
        fn shape(&self) -> String {
            "scripted".into()
        }
        fn retune_gain(&mut self, _mix: &OpMix, _env: &Environment) -> Option<RetuneEstimate> {
            if self.current > self.advised {
                Some(RetuneEstimate {
                    current_cost: self.current,
                    advised_cost: self.advised,
                    advised_shape: "advised".into(),
                    bill_pages: None,
                })
            } else {
                None
            }
        }
        fn morph_to(&mut self, _family: Family, _mix: &OpMix) -> Result<Option<MigrationReceipt>> {
            self.morphs += 1;
            self.current = self.advised;
            Ok(Some(MigrationReceipt {
                from: "scripted".into(),
                to: "advised".into(),
                bytes_read: self.resident,
                bytes_written: self.resident,
                peak_extra_bytes: self.resident,
            }))
        }
    }

    fn window(index: usize) -> TrajectoryWindow {
        TrajectoryWindow {
            index,
            ops: 256,
            delta: Default::default(),
            cumulative: Default::default(),
            mo: 1.0,
        }
    }

    fn counts_of(mix: &OpMix, total: u64) -> OpCounts {
        let q = mix.normalized();
        OpCounts {
            get: (q.get * total as f64) as u64,
            insert: (q.insert * total as f64) as u64,
            update: (q.update * total as f64) as u64,
            delete: (q.delete * total as f64) as u64,
            range: (q.range * total as f64) as u64,
        }
    }

    fn drive(
        tuner: &mut AutoTuner,
        method: &mut Scripted,
        mixes: &[(usize, OpMix)],
    ) -> (usize, u64) {
        // Feed `count` windows per mix segment, executing any plans.
        let mut executed = 0usize;
        let mut idx = 0usize;
        for &(count, mix) in mixes {
            for _ in 0..count {
                let w = window(idx);
                idx += 1;
                if let Some(plan) = tuner.plan(&w, &counts_of(&mix, 256), method) {
                    tuner.begin_migration(&plan);
                    let receipt = method.morph_to(plan.family, &plan.mix).unwrap();
                    tuner.complete(plan, receipt);
                    executed += 1;
                }
            }
        }
        (executed, tuner.summary().migrations)
    }

    #[test]
    fn constant_mix_never_migrates() {
        let mut tuner = AutoTuner::new(
            AutoTuneConfig::default(),
            &OpMix::BALANCED,
            ProfileStore::new(),
            Environment::default(),
            Constraints::default(),
        );
        // Already in the advised shape: no gain to be had.
        let mut method = Scripted::new(1.0, 1.0, 1 << 20);
        let (executed, migrations) = drive(&mut tuner, &mut method, &[(40, OpMix::BALANCED)]);
        assert_eq!(executed, 0);
        assert_eq!(migrations, 0);
        assert_eq!(
            tuner.summary().drift_events,
            0,
            "no drift on a constant mix"
        );
    }

    #[test]
    fn a_window_with_infinite_ro_is_not_drift() {
        let mut tuner = AutoTuner::new(
            AutoTuneConfig::default(),
            &OpMix::BALANCED,
            ProfileStore::new(),
            Environment::default(),
            Constraints::default(),
        );
        let mut method = Scripted::new(4.0, 1.0, 1 << 20);
        let counts = counts_of(&OpMix::BALANCED, 256);
        // Pages read, nothing retrieved: RO = ∞ (e.g. a flush scanned a
        // run in a window whose reads all missed).
        let mut blind = window(1);
        blind.delta.base_read_bytes = PAGE_SIZE as u64;
        assert!(blind.ro().is_infinite());
        for w in [window(0), blind, window(2)] {
            assert!(tuner.plan(&w, &counts, &mut method).is_none());
        }
        assert_eq!(tuner.summary().drift_events, 0);
    }

    #[test]
    fn hard_flip_triggers_exactly_one_migration() {
        let mut tuner = AutoTuner::new(
            AutoTuneConfig::default(),
            &OpMix::READ_HEAVY,
            ProfileStore::new(),
            Environment::default(),
            Constraints::default(),
        );
        let mut method = Scripted::new(4.0, 1.0, 1 << 20);
        let (_, migrations) = drive(
            &mut tuner,
            &mut method,
            &[(10, OpMix::READ_HEAVY), (30, OpMix::WRITE_HEAVY)],
        );
        assert_eq!(migrations, 1, "one regime change, one migration");
        assert_eq!(method.morphs, 1);
        assert_eq!(tuner.summary().drift_events, 1);
        let receipt = &tuner.summary().receipts[0];
        assert!(receipt.bytes_read > 0 && receipt.bytes_written > 0);
    }

    #[test]
    fn tiny_win_does_not_cover_the_bill() {
        // 0.001 pages/op win over a 100k-op horizon = 100 pages; the bill
        // for rewriting 16 MiB is ~8192 pages. Must not migrate.
        let mut tuner = AutoTuner::new(
            AutoTuneConfig::default(),
            &OpMix::READ_HEAVY,
            ProfileStore::new(),
            Environment::default(),
            Constraints::default(),
        );
        let mut method = Scripted::new(1.001, 1.0, 16 << 20);
        let (executed, _) = drive(
            &mut tuner,
            &mut method,
            &[(10, OpMix::READ_HEAVY), (30, OpMix::WRITE_HEAVY)],
        );
        assert_eq!(executed, 0, "win below the migration bill");
        assert!(tuner.summary().drift_events >= 1, "drift was still seen");
    }

    #[test]
    fn decisions_are_emitted_as_trace_events() {
        let sink = MemorySink::shared();
        let mut tuner = AutoTuner::new(
            AutoTuneConfig::default(),
            &OpMix::READ_HEAVY,
            ProfileStore::new(),
            Environment::default(),
            Constraints::default(),
        );
        tuner.set_trace_sink(sink.clone());
        let mut method = Scripted::new(4.0, 1.0, 1 << 20);
        drive(
            &mut tuner,
            &mut method,
            &[(10, OpMix::READ_HEAVY), (20, OpMix::SCAN_HEAVY)],
        );
        let events = sink.events();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::DriftDetected));
        assert!(kinds.contains(&EventKind::TuneDecision));
        assert!(kinds.contains(&EventKind::MigrationStart));
        assert!(kinds.contains(&EventKind::MigrationComplete));
        let complete = events
            .iter()
            .find(|e| e.kind == EventKind::MigrationComplete)
            .unwrap();
        assert!(complete.field("bytes_written").unwrap() > 0);
        assert_eq!(complete.kind.component(), "autotune");
    }

    #[test]
    fn family_swap_is_priced_by_the_ranking_at_the_estimate() {
        let (env, cons) = (Environment::default(), Constraints::default());
        let mut tuner = AutoTuner::new(
            AutoTuneConfig {
                allow_family_swap: true,
                ..Default::default()
            },
            &OpMix::WRITE_HEAVY,
            ProfileStore::new(),
            env,
            cons,
        );
        // No knob gain on offer: only the advisor can order a move.
        let mut method = Scripted::new(1.0, 1.0, 1 << 20);
        let plan = (0..30)
            .find_map(|i| tuner.plan(&window(i), &counts_of(&OpMix::READ_HEAVY, 256), &mut method))
            .expect("point reads on an LSM order a swap");
        assert_eq!(plan.kind, TuneKind::FamilySwap);
        let ranking = ProfileStore::new().recommend(tuner.estimate(), &env, &cons);
        let top = ranking.top().unwrap();
        let cur = ranking
            .recs
            .iter()
            .find(|r| r.family == method.family())
            .unwrap();
        assert_eq!(plan.family, top.family);
        assert_eq!(
            plan.predicted_win.to_bits(),
            (cur.expected_cost - top.expected_cost).to_bits(),
            "the tuner and a direct query disagree about the same mix"
        );
    }

    #[test]
    fn estimate_decays_toward_the_observed_mix() {
        let mut tuner = AutoTuner::new(
            AutoTuneConfig::default(),
            &OpMix::READ_HEAVY,
            ProfileStore::new(),
            Environment::default(),
            Constraints::default(),
        );
        let mut method = Scripted::new(1.0, 1.0, 1 << 20);
        drive(&mut tuner, &mut method, &[(20, OpMix::WRITE_HEAVY)]);
        let est = tuner.estimate();
        let target = OpMix::WRITE_HEAVY.normalized();
        assert!(
            est.l1_distance(&target) < 0.05,
            "estimate did not converge: {est:?}"
        );
    }
}
