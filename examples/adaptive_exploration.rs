//! An exploratory data-science session over a fresh dump: database
//! cracking turns each ad-hoc range query into a little more index —
//! "the application, the workload, and the hardware should dictate how we
//! access our data" (§1).
//!
//! ```sh
//! cargo run --release --example adaptive_exploration
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rum::adaptive::{AdaptiveMerger, CrackedColumn};
use rum::prelude::*;

fn main() -> Result<()> {
    let n: usize = 1 << 18;
    let records: Vec<Record> = (0..n as u64).map(|k| Record::new(k, k)).collect();

    let mut cracked = CrackedColumn::new();
    cracked.bulk_load(&records)?;
    let mut merger = AdaptiveMerger::new();
    merger.bulk_load(&records)?;

    println!(
        "{:>8} {:>18} {:>18} {:>10}",
        "query#", "cracking rd(KB)", "adaptive-merge rd(KB)", "pieces"
    );
    let mut rng = StdRng::seed_from_u64(7);
    for q in 0..100 {
        let lo = rng.gen_range(0..(n as u64 - 2000));
        let hi = lo + 1000;
        let cost = |m: &mut dyn AccessMethod| -> Result<u64> {
            let before = m.tracker().snapshot();
            m.range(lo, hi)?;
            Ok(m.tracker().since(&before).total_read_bytes() / 1024)
        };
        let ck = cost(&mut cracked)?;
        let am = cost(&mut merger)?;
        if q % 10 == 0 {
            println!("{:>8} {:>18} {:>18} {:>10}", q, ck, am, cracked.pieces());
        }
    }
    println!(
        "\nafter 100 queries: cracker index {} pivots ({} bytes); merger consolidated {} of {} records",
        cracked.pieces() - 1,
        cracked.index_bytes(),
        merger.merged_records(),
        merger.merged_records() + merger.unmerged_records(),
    );
    println!("both converge toward index-like reads while cold data stays untouched.");
    Ok(())
}
