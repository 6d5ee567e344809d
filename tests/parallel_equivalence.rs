//! The parallel harness's contract: `run_suite_stream` on N workers
//! produces exactly the same reports as on one — same methods, same order
//! (sorted by name), same costs and amplifications — with only the
//! wall-clock fields free to differ. Checked across a balanced mix, a
//! read-heavy mix, and a skewed (zipfian) stream.

use rum::prelude::*;

/// Every field of the two reports except the wall-clock ones must match
/// bit-for-bit.
fn assert_reports_identical(s: &RumReport, p: &RumReport) {
    let ctx = &s.method;
    assert_eq!(s.method, p.method);
    assert_eq!(s.counted_diff(p), None, "{ctx}");
    assert_eq!(
        s.pages_per_read_op.to_bits(),
        p.pages_per_read_op.to_bits(),
        "{ctx}: pages_per_read_op"
    );
    assert_eq!(
        s.pages_per_write_op.to_bits(),
        p.pages_per_write_op.to_bits(),
        "{ctx}: pages_per_write_op"
    );
    assert_eq!(s.sim_ns, p.sim_ns, "{ctx}: sim_ns");
    // And the rendered forms must therefore agree too — except the final
    // `ops_per_sec` column, the one deliberate wall-clock-derived value.
    assert_eq!(
        drop_last_column(&s.table_row(), ' '),
        drop_last_column(&p.table_row(), ' '),
        "{ctx}: table_row"
    );
    assert_eq!(
        drop_last_column(&s.csv_row(), ','),
        drop_last_column(&p.csv_row(), ','),
        "{ctx}: csv_row"
    );
}

/// Strip the trailing column (everything after the last separator), plus
/// any field padding left behind — ops/s is right-aligned, so the padding
/// width varies with the magnitude of the dropped number.
fn drop_last_column(row: &str, sep: char) -> &str {
    let trimmed = row.trim_end();
    trimmed
        .rsplit_once(sep)
        .map(|(head, _)| head.trim_end())
        .unwrap_or(trimmed)
}

#[test]
fn parallel_suite_reports_match_serial_bit_for_bit() {
    let specs = [
        WorkloadSpec {
            initial_records: 2048,
            operations: 2048,
            mix: OpMix::BALANCED,
            seed: 0xE0_45,
            ..Default::default()
        },
        WorkloadSpec {
            initial_records: 2048,
            operations: 2048,
            mix: OpMix::READ_HEAVY,
            seed: 17,
            ..Default::default()
        },
        WorkloadSpec {
            initial_records: 1024,
            operations: 3072,
            mix: OpMix::BALANCED,
            dist: KeyDist::Zipf { theta: 0.99 },
            seed: 23,
            ..Default::default()
        },
    ];
    for spec in specs {
        let serial = run_suite_stream(&mut rum::standard_suite(), &spec, 1).expect("serial");
        // An awkward worker count (3) exercises the queue re-balancing;
        // default_threads() covers whatever the machine really has.
        for threads in [3, default_threads()] {
            let parallel =
                run_suite_stream(&mut rum::standard_suite(), &spec, threads).expect("parallel");
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_reports_identical(s, p);
            }
        }
    }
}
