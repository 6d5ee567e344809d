//! Property-based tests for the metrics plane ([`rum_core::metrics`]):
//! snapshot merge is a commutative monoid, per-shard registries merge to
//! exactly what one registry would have recorded, and the debt ledger's
//! causal re-attribution conserves bytes under arbitrary charge/event
//! interleavings.

use proptest::prelude::*;
use rum_core::metrics::{DebtLedger, MetricsRegistry, MetricsSnapshot, OpClass};
use rum_core::trace::EventKind;
use rum_core::{CostSnapshot, CostTracker};

/// xorshift64* — deterministic synthetic sequences from one seed.
fn next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

const NAMES: [&str; 3] = ["rum_ops_total", "rum_bytes_total", "rum_latency_ns"];
const LABELS: [&[(&str, &str)]; 3] = [
    &[],
    &[("kind", "flush")],
    &[("kind", "sync"), ("level", "2")],
];

/// One synthetic registry operation: counter bump, or histogram sample.
/// Gauges are deliberately absent — they are plane-level last-write-wins
/// values, not shardable streams (merging sums them), so the shard-merge
/// law below is stated for the shardable metric kinds.
#[derive(Clone, Copy)]
struct SynthOp {
    name: usize,
    labels: usize,
    value: u64,
    histogram: bool,
}

fn synth_ops(seed: u64, n: usize) -> Vec<SynthOp> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| SynthOp {
            name: (next(&mut state) % NAMES.len() as u64) as usize,
            labels: (next(&mut state) % LABELS.len() as u64) as usize,
            value: next(&mut state) % 100_000,
            histogram: next(&mut state).is_multiple_of(3),
        })
        .collect()
}

fn apply(reg: &MetricsRegistry, op: SynthOp) {
    if op.histogram {
        reg.observe(NAMES[op.name], LABELS[op.labels], op.value);
    } else {
        reg.counter_add(NAMES[op.name], LABELS[op.labels], op.value);
    }
}

fn synth_snapshot(seed: u64, n: usize) -> MetricsSnapshot {
    let reg = MetricsRegistry::new();
    for op in synth_ops(seed, n) {
        apply(&reg, op);
    }
    reg.snapshot()
}

/// A synthetic cost delta whose fields stay small enough that repeated
/// accumulation cannot overflow u64.
fn synth_delta(state: &mut u64) -> CostSnapshot {
    CostSnapshot {
        base_read_bytes: next(state) % 100_000,
        aux_read_bytes: next(state) % 100_000,
        base_write_bytes: next(state) % 100_000,
        aux_write_bytes: next(state) % 100_000,
        logical_read_bytes: next(state) % 50_000,
        logical_write_bytes: next(state) % 50_000,
        page_reads: next(state) % 64,
        page_writes: next(state) % 64,
        sim_time_ns: next(state) % 10_000,
    }
}

const KINDS: [EventKind; 7] = [
    EventKind::LsmFlush,
    EventKind::LsmCompaction,
    EventKind::WalSync,
    EventKind::WalCheckpoint,
    EventKind::WalRecovery,
    EventKind::LsmViewBuild,
    EventKind::MigrationComplete,
];

proptest! {
    /// Snapshot merge is commutative and associative — the algebraic
    /// property that makes per-worker sharding sound in any merge order.
    #[test]
    fn snapshot_merge_is_commutative_and_associative(
        sa in any::<u64>(), sb in any::<u64>(), sc in any::<u64>(),
        n in 1usize..80,
    ) {
        let (a, b, c) = (synth_snapshot(sa, n), synth_snapshot(sb, n), synth_snapshot(sc, n));

        let ab = a.add(&b);
        let ba = b.add(&a);
        prop_assert_eq!(&ab, &ba);

        let ab_c = ab.add(&c);
        let a_bc = a.add(&b.add(&c));
        prop_assert_eq!(&ab_c, &a_bc);

        // Identity: merging the empty snapshot changes nothing.
        prop_assert_eq!(&a.add(&MetricsSnapshot::default()), &a);
    }

    /// Sharding law: split one op sequence across K per-worker registries
    /// in round-robin, merge the shards, and the result is bit-identical
    /// to a single registry that saw every op.
    #[test]
    fn shard_merge_equals_single_registry(
        seed in any::<u64>(),
        n in 1usize..200,
        shards in 1usize..6,
    ) {
        let ops = synth_ops(seed, n);

        let single = MetricsRegistry::new();
        let workers: Vec<MetricsRegistry> =
            (0..shards).map(|_| MetricsRegistry::new()).collect();
        for (i, op) in ops.iter().enumerate() {
            apply(&single, *op);
            apply(&workers[i % shards], *op);
        }

        let mut merged = MetricsSnapshot::default();
        for w in &workers {
            merged.absorb(&w.snapshot());
        }
        prop_assert_eq!(&merged, &single.snapshot());
    }

    /// Conservation is structural: whatever interleaving of class
    /// switches, foreground charges, and background events the ledger
    /// sees, per-class attributed bytes always sum bit-equal to the
    /// tracker totals, and every re-attribution is zero-sum.
    #[test]
    fn ledger_conserves_under_arbitrary_interleavings(
        seed in any::<u64>(),
        steps in 1usize..120,
    ) {
        let mut state = seed | 1;
        let ledger = DebtLedger::new();
        let tracker = CostTracker::new();
        // The load phase always runs first, as in the real runner.
        ledger.begin_class(OpClass::Load);

        for _ in 0..steps {
            match next(&mut state) % 4 {
                0 => {
                    let class = match next(&mut state) % 3 {
                        0 => OpClass::Load,
                        1 => OpClass::Read,
                        _ => OpClass::Write,
                    };
                    ledger.begin_class(class);
                }
                1 | 2 => {
                    // A foreground charge mirrors a settled phase delta:
                    // the tracker absorbs exactly what the ledger charges.
                    let class = if next(&mut state).is_multiple_of(2) {
                        OpClass::Read
                    } else {
                        OpClass::Write
                    };
                    let d = synth_delta(&mut state);
                    tracker.absorb(&d);
                    ledger.charge(class, &d);
                }
                _ => {
                    // A background event re-attributes already-charged
                    // bytes between classes; it must never create or
                    // destroy any.
                    let kind = KINDS[(next(&mut state) % KINDS.len() as u64) as usize];
                    let detail: Vec<(&'static str, u64)> = vec![
                        ("bytes", next(&mut state) % 20_000),
                        ("read_bytes", next(&mut state) % 20_000),
                        ("bytes_read", next(&mut state) % 20_000),
                        ("bytes_written", next(&mut state) % 20_000),
                    ];
                    ledger.on_event(kind, &detail);
                }
            }
        }

        let totals = tracker.snapshot();
        let debt = ledger.snapshot();
        prop_assert!(debt.conserves(&totals), "attribution must conserve: {debt:?} vs {totals:?}");
        // Zero-sum across classes, directly.
        prop_assert_eq!(
            debt.attributed_read_total(),
            totals.total_read_bytes() as i128
        );
        prop_assert_eq!(
            debt.attributed_write_total(),
            totals.total_write_bytes() as i128
        );
    }
}
