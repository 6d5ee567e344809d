//! Property tests for the AutoTuner's hysteresis on a live LSM-tree:
//! a constant mix must never trigger a migration (the drift gate holds),
//! and a hard mix flip must trigger exactly one (the tuner reacts, then
//! the adopted estimate keeps it quiet).

use proptest::prelude::*;
use rum_core::advisor::ProfileStore;
use rum_core::autotune::{AutoTuneConfig, AutoTuneSummary, AutoTuner};
use rum_core::runner::run_stream_autotuned;
use rum_core::trace::{noop_sink, TraceCollector};
use rum_core::wizard::{Constraints, Environment};
use rum_core::workload::{Drift, OpMix, OpStream, WorkloadSpec};
use rum_lsm::tuning::advise;
use rum_lsm::{LsmConfig, LsmTree};

const N: usize = 4096;
const OPS: usize = 8192;
const WINDOW: usize = 256;

/// The canonical mixes whose advised LSM shapes are pairwise distinct —
/// a flip between any two of them gives the tuner a real gain to chase.
const MIXES: [(&str, OpMix); 3] = [
    ("read-heavy", OpMix::READ_HEAVY),
    ("write-heavy", OpMix::WRITE_HEAVY),
    ("scan-heavy", OpMix::SCAN_HEAVY),
];

/// Same reactive shape the drift bench uses: a drift segment is only a
/// handful of trajectory windows at this scale, so the estimate must
/// settle (and the tuner fire) a few windows after a flip.
fn reactive() -> AutoTuneConfig {
    AutoTuneConfig {
        decay: 0.35,
        settle_epsilon: 0.12,
        settle_windows: 1,
        cooldown_windows: 3,
        warmup_windows: 2,
        ..Default::default()
    }
}

/// Run one tuned stream: tree starts at the advised shape for `start`,
/// the workload runs `mix` under `drift`.
fn run_tuned(start: &OpMix, mix: OpMix, drift: Drift, seed: u64) -> AutoTuneSummary {
    let spec = WorkloadSpec {
        initial_records: N,
        operations: OPS,
        mix,
        range_len: 16,
        seed,
        drift,
        ..Default::default()
    };
    // The advised shape for `start`, with a memtable small enough that
    // the tree actually builds levels at this scale (advice preserves
    // the live memtable size, so this never reads as "mis-shaped").
    let config = LsmConfig {
        memtable_records: 256,
        ..advise(start)
    };
    let mut method = LsmTree::with_config(config);
    let mut tuner = AutoTuner::new(
        reactive(),
        start,
        ProfileStore::default(),
        Environment { n: N, m: 16 },
        Constraints {
            needs_ranges: true,
            ..Default::default()
        },
    );
    let mut trace = TraceCollector::new(WINDOW, noop_sink());
    let (_, summary) =
        run_stream_autotuned(&mut method, OpStream::new(&spec), &mut tuner, &mut trace)
            .expect("tuned stream");
    summary
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hysteresis, quiet side: when the workload never drifts and the
    /// tree already has the advised shape for its mix, the tuner must
    /// not migrate — window-to-window sampling noise alone is below the
    /// drift gate, and even a spurious drift flag finds no better shape.
    #[test]
    fn constant_mix_never_migrates(which in 0usize..MIXES.len(), seed in any::<u64>()) {
        let (name, mix) = MIXES[which];
        let summary = run_tuned(&mix, mix, Drift::None, seed);
        prop_assert!(summary.windows > 0);
        prop_assert_eq!(
            summary.migrations, 0,
            "{name} (seed {seed}) migrated {} times on a constant mix",
            summary.migrations
        );
        prop_assert_eq!(summary.migration_read_bytes + summary.migration_write_bytes, 0);
    }

    /// Hysteresis, reactive side: one hard mix flip mid-stream must
    /// trigger exactly one priced migration — the tuner fires once the
    /// estimate settles on the new mix, adopts it, and stays quiet for
    /// the rest of the stream. The scan→read flip is deliberately
    /// excluded: its only shape delta is dropping the sorted view, which
    /// a range-free mix neither pays for nor suffers from (no rebuilds
    /// without range queries), so the predicted win is zero and the
    /// tuner correctly declines (the constant-mix property covers
    /// staying quiet). The read→scan flip is the cheap path the other
    /// way: a view-only toggle whose receipt prices the eager build.
    #[test]
    fn hard_mix_flip_triggers_exactly_one_migration(
        pair in 0usize..5,
        seed in any::<u64>(),
    ) {
        const PAIRS: [(usize, usize); 5] = [(0, 1), (1, 0), (0, 2), (1, 2), (2, 1)];
        let (from, to) = PAIRS[pair];
        let (from_name, start) = MIXES[from];
        let (to_name, target) = MIXES[to];
        let drift = Drift::Flip { at: OPS / 2, mix: target };
        let summary = run_tuned(&start, start, drift, seed);
        prop_assert_eq!(
            summary.migrations, 1,
            "{from_name}->{to_name} (seed {seed}): {} migrations, {} drift events, {} noop decisions",
            summary.migrations, summary.drift_events, summary.noop_decisions
        );
        let receipt = &summary.receipts[0];
        prop_assert!(receipt.bytes_read + receipt.bytes_written > 0, "migration was free");
        prop_assert!(summary.peak_extra_bytes > 0, "no double-residency charged");
    }
}
