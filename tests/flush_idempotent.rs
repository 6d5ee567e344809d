//! Flush idempotence across the standard suite: `flush()` pushes buffered
//! state to its final place, so a second consecutive flush must have
//! nothing left to push — zero additional physical write bytes and zero
//! page writes, pinned via `CostTracker` deltas. A method that rewrites
//! state on every flush would silently inflate UO for any driver that
//! flushes defensively.

use rum::prelude::*;

#[test]
fn second_flush_performs_zero_physical_writes() {
    let spec = WorkloadSpec {
        initial_records: 2000,
        operations: 1500,
        mix: OpMix::BALANCED,
        seed: 0xF1u64,
        ..Default::default()
    };
    let workload = Workload::generate(&spec);
    for mut method in rum::standard_suite() {
        let name = method.name();
        run_stream(method.as_mut(), &workload)
            .unwrap_or_else(|e| panic!("{name}: workload failed: {e}"));
        method
            .flush()
            .unwrap_or_else(|e| panic!("{name}: first flush failed: {e}"));
        let before = method.tracker().snapshot();
        method
            .flush()
            .unwrap_or_else(|e| panic!("{name}: second flush failed: {e}"));
        let delta = method.tracker().since(&before);
        assert_eq!(
            delta.total_write_bytes(),
            0,
            "{name}: second flush wrote {} bytes",
            delta.total_write_bytes()
        );
        assert_eq!(
            delta.page_writes, 0,
            "{name}: second flush touched {} pages",
            delta.page_writes
        );
    }
}
