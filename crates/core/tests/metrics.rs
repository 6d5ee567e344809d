//! Property-based test for the metrics plane ([`rum_core::metrics`]):
//! the debt ledger's causal re-attribution conserves bytes under
//! arbitrary charge/event interleavings.

use proptest::prelude::*;
use rum_core::metrics::{DebtLedger, OpClass};
use rum_core::trace::EventKind;
use rum_core::{CostSnapshot, CostTracker};

/// xorshift64* — deterministic synthetic sequences from one seed.
fn next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
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
