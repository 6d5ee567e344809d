//! A write-heavy key-value store tunes its LSM-tree, Figure-3 style:
//! sweep the size ratio and compaction policy, then let the §5 advisor
//! pick a configuration when the workload flips to reads.
//!
//! ```sh
//! cargo run --release --example kv_store_tuning
//! ```

use rum::lsm::{advise, retune, CompactionPolicy, LsmConfig, LsmTree};
use rum::prelude::*;

fn ingest(t: &mut LsmTree, n: u64) -> Result<()> {
    for k in 0..n {
        // Scattered keys so runs overlap (the hard case).
        let key = (k.wrapping_mul(7919)) % n;
        t.insert(2 * key, k)?;
    }
    Ok(())
}

fn main() -> Result<()> {
    println!("=== Phase 1: pick a shape for heavy ingest ===");
    println!(
        "{:<12} {:>14} {:>12} {:>10}",
        "config", "write amp", "page writes", "MO"
    );
    for (tag, policy, ratio) in [
        ("T=2  lvl", CompactionPolicy::Levelling, 2),
        ("T=8  lvl", CompactionPolicy::Levelling, 8),
        ("T=4 tier", CompactionPolicy::Tiering, 4),
    ] {
        let mut t = LsmTree::with_config(LsmConfig {
            size_ratio: ratio,
            policy,
            memtable_records: 1024,
            ..Default::default()
        });
        ingest(&mut t, 50_000)?;
        let s = t.tracker().snapshot();
        println!(
            "{:<12} {:>14.2} {:>12} {:>10.3}",
            tag,
            s.write_amplification(),
            s.page_writes,
            t.space_profile().space_amplification()
        );
    }

    println!("\n=== Phase 2: the workload flips to reads; ask the advisor ===");
    let cfg = advise(&OpMix::READ_HEAVY);
    println!(
        "advisor says: policy={:?}, T={}, bloom={} bits/key",
        cfg.policy, cfg.size_ratio, cfg.bloom_bits_per_key
    );

    let mut t = LsmTree::with_config(LsmConfig {
        size_ratio: 4,
        policy: CompactionPolicy::Tiering,
        memtable_records: 1024,
        bloom_bits_per_key: 4.0,
        ..Default::default()
    });
    ingest(&mut t, 50_000)?;

    let read_phase = |t: &mut LsmTree| -> Result<u64> {
        t.tracker().reset();
        for k in 0..20_000u64 {
            t.get((k * 13) % 200_000)?; // ~50% misses
        }
        Ok(t.tracker().snapshot().page_reads)
    };
    let before = read_phase(&mut t)?;
    retune(&mut t, cfg)?;
    let after = read_phase(&mut t)?;
    println!(
        "read-phase page reads: {before} before retune, {after} after ({:.1}x better)",
        before as f64 / after.max(1) as f64
    );
    Ok(())
}
