//! Scan-heavy analytics over a fact column: zone maps prune partitions,
//! SMAs answer aggregates from metadata, column imprints skip cachelines,
//! and a bitmap index serves the low-cardinality dimension — the paper's
//! space-optimized corner at work.
//!
//! ```sh
//! cargo run --release --example analytics_scan
//! ```

use rum::bitmap::BitmapIndex;
use rum::prelude::*;
use rum::sparse::{ColumnImprint, ZoneMapConfig, ZoneMappedColumn};

fn main() -> Result<()> {
    let n: u64 = 1 << 18;
    let records: Vec<Record> = (0..n).map(|k| Record::new(k, k % 97)).collect();

    // --- Zone maps + SMA ---------------------------------------------
    let mut zm = ZoneMappedColumn::with_config(ZoneMapConfig {
        partition_records: 4096,
        ..Default::default()
    });
    zm.bulk_load(&records)?;
    let before = zm.tracker().snapshot();
    let rs = zm.range(100_000, 101_000)?;
    let d = zm.tracker().since(&before);
    println!(
        "zonemap range of {} records: {} page reads ({} zones), MO {:.5}",
        rs.len(),
        d.page_reads,
        zm.zone_count(),
        zm.space_profile().space_amplification()
    );
    let before = zm.tracker().snapshot();
    let (count, sum) = zm.aggregate(0, u64::MAX)?;
    let d = zm.tracker().since(&before);
    println!(
        "SMA whole-table aggregate: count={count} sum={sum} with {} page reads",
        d.page_reads
    );

    // --- Column imprints ----------------------------------------------
    let imprint = ColumnImprint::build(&records);
    let (hits, lines_read) = imprint.scan(&records, 5000, 5200);
    println!(
        "imprint scan: {} hits reading {} of {} cachelines ({:.1}% skipped), {} bytes of imprint",
        hits.len(),
        lines_read,
        imprint.lines(),
        imprint.skip_ratio(5000, 5200) * 100.0,
        imprint.size_bytes()
    );

    // --- Bitmap index on the dimension --------------------------------
    let mut bi = BitmapIndex::new();
    bi.bulk_load(&records)?;
    let before = bi.tracker().snapshot();
    let rs = bi.range(40_000, 41_000)?;
    let d = bi.tracker().since(&before);
    println!(
        "bitmap index range of {} records: {} page reads, MO {:.4}",
        rs.len(),
        d.page_reads,
        bi.space_profile().space_amplification()
    );
    Ok(())
}
