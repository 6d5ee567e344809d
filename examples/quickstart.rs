//! Quickstart: build an access method, run a workload, read its RUM
//! profile.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rum::prelude::*;

fn main() -> Result<()> {
    // 1. Pick any access method. They all speak the same trait.
    let mut btree = rum::btree::BTree::new();
    let mut lsm = rum::lsm::LsmTree::new();
    let mut zonemap = rum::sparse::ZoneMappedColumn::new();

    // 2. Describe a workload: 50k records, 20k mixed operations.
    let spec = WorkloadSpec {
        initial_records: 50_000,
        operations: 20_000,
        mix: OpMix::BALANCED,
        seed: 42,
        ..Default::default()
    };
    let workload = Workload::generate(&spec);

    // 3. Run it and compare the measured RUM overheads.
    println!("{}", RumReport::table_header());
    let mut points = Vec::new();
    for method in [&mut btree as &mut dyn AccessMethod, &mut lsm, &mut zonemap] {
        let report = run_stream(method, &workload)?;
        println!("{}", report.table_row());
        points.push(rum_point(
            report.method.clone(),
            report.ro,
            report.uo,
            report.mo,
        ));
    }

    // 4. The paper's Figure-1 view of the same numbers.
    println!("\n{}", render_ascii(&points, 64, 20));

    // 5. Use a method directly, too.
    btree.insert(999_999, 7)?;
    assert_eq!(btree.get(999_999)?, Some(7));
    let hits = btree.range(100, 140)?;
    println!("range(100..=140) -> {} records", hits.len());
    Ok(())
}
