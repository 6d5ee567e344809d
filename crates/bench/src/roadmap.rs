//! §5 of the paper — "Building RUM access methods" — demonstrated:
//!
//! 1. **Adaptive indexing** (database cracking, plain vs. stochastic vs.
//!    the static extremes): read cost converges query by query while
//!    update cost and memory creep up.
//! 2. **Update-friendly bitmap indexes**: "updates are absorbed using
//!    additional, highly compressible, bitvectors which are gradually
//!    merged" — sweep the merge threshold.
//! 3. **Dynamic RUM balance for the LSM-tree**: re-tune the merge
//!    hierarchy when the workload flips from write-heavy to read-heavy.
//! 4. **Approximate indexing with an updatable filter**: a quotient
//!    filter (supports deletes, unlike Bloom) in front of a heap file.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rum_adaptive::CrackedColumn;
use rum_bitmap::UpdateFriendlyBitmap;
use rum_core::workload::value_for;
use rum_core::{AccessMethod, Record};
use rum_lsm::{advise, retune, CompactionPolicy, LsmConfig, LsmTree};
use rum_sketch::QuotientFilter;

use crate::{dataset, Outcome, Scale, Table, Target};

fn section_cracking() {
    println!("=== §5.1 Adaptive indexing: cracking converges ===");
    let n = 1 << 18;
    let mut recs = dataset(n);
    use rand::seq::SliceRandom;
    recs.sort_unstable();
    let sorted = recs.clone();
    recs.shuffle(&mut StdRng::seed_from_u64(1));
    // Load *shuffled* physical order via per-record inserts.
    let build = |stochastic: bool| -> CrackedColumn {
        let mut c = if stochastic {
            CrackedColumn::stochastic(3)
        } else {
            CrackedColumn::new()
        };
        c.bulk_load(&sorted).unwrap();
        c
    };
    let mut plain = build(false);
    let mut stoch = build(true);
    let mut rows = Vec::new();
    let mut rng = StdRng::seed_from_u64(5);
    for q in 0..200 {
        let lo = 2 * rng.gen_range(0..(n as u64 - 200));
        let cost = |c: &mut CrackedColumn| {
            let before = c.tracker().snapshot();
            c.range(lo, lo + 256).unwrap();
            c.tracker().since(&before).total_read_bytes()
        };
        let cp = cost(&mut plain);
        let cs = cost(&mut stoch);
        if q % 25 == 0 || q == 199 {
            let mo = plain.space_profile().space_amplification();
            rows.push((q, cp, cs, plain.pieces(), mo));
        }
    }
    let table = Table::<(usize, u64, u64, usize, f64)>::default()
        .col("", "query#:>8", |r| r.0)
        .col("", "plain rd(bytes):>16", |r| r.1)
        .col("", "stoch rd(bytes):>16", |r| r.2)
        .col("", "pieces:>10", |r| r.3)
        .col("", "MO:>10.5", |r| r.4);
    print!("{}", table.text(&rows));
    println!("  -> read cost falls by orders of magnitude as the cracker index forms;\n     MO creeps up by the pivot table only.\n");
}

fn section_bitmaps() {
    println!("=== §5.2 Update-friendly bitmaps: delta merge threshold sweep ===");
    let mut rows = Vec::new();
    for threshold in [16usize, 256, 4096, 65536] {
        let mut b = UpdateFriendlyBitmap::new(1 << 20, threshold);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20_000 {
            let pos = rng.gen_range(0..1 << 20);
            if rng.gen_bool(0.7) {
                b.set(pos);
            } else {
                b.clear(pos);
            }
        }
        rows.push((threshold, b.merges(), b.size_bytes(), b.count_ones()));
    }
    let table = Table::<(usize, u64, u64, u64)>::default()
        .col("", "threshold:>12", |r| r.0)
        .col("", "merges:>12", |r| r.1)
        .col("", "size(bytes):>12", |r| r.2)
        .col("", "ones:>12", |r| r.3);
    print!("{}", table.text(&rows));
    println!("  -> small thresholds merge constantly (UO high, MO low);\n     large thresholds defer work into deltas (UO low, MO higher).\n");
}

fn section_lsm_retune() {
    println!("=== §5.3 Dynamic RUM balance: LSM retunes on workload shift ===");
    let run = |adapt: bool| -> (u64, u64) {
        let mut t = LsmTree::with_config(LsmConfig {
            memtable_records: 1024,
            size_ratio: 4,
            policy: CompactionPolicy::Tiering, // start write-optimized
            bloom_bits_per_key: 4.0,
            ..Default::default()
        });
        // Phase 1: heavy ingest with scattered keys (runs overlap).
        for k in 0..60_000u64 {
            let key = (k.wrapping_mul(7919)) % 60_000;
            t.insert(2 * key, value_for(key, 0)).unwrap();
        }
        let write_phase = t.tracker().snapshot();
        // The workload flips to reads; optionally re-tune.
        if adapt {
            let cfg = advise(&rum_core::workload::OpMix::READ_HEAVY);
            retune(&mut t, cfg).unwrap();
        }
        t.tracker().reset();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30_000 {
            let k = rng.gen_range(0..120_000u64); // ~50% misses
            t.get(k).unwrap();
        }
        let read_phase = t.tracker().snapshot();
        (write_phase.page_writes, read_phase.page_reads)
    };
    let (w_fixed, r_fixed) = run(false);
    let (w_adapt, r_adapt) = run(true);
    let table = Table::<(&str, u64, u64)>::default()
        .col("", ":>24", |r| r.0)
        .col("", "ingest pg-wr:>14", |r| r.1)
        .col("", "read pg-rd:>14", |r| r.2);
    let rows = [
        ("fixed (tiered, 4b/key)", w_fixed, r_fixed),
        ("retuned at the shift", w_adapt, r_adapt),
    ];
    print!("{}", table.text(&rows));
    println!(
        "  -> identical ingest cost; re-tuning cuts the read phase by {:.1}x.\n",
        r_fixed as f64 / r_adapt.max(1) as f64
    );
}

fn section_quotient_index() {
    println!("=== §5.4 Approximate indexing with an updatable filter ===");
    // A heap file guarded by a quotient filter: point misses are answered
    // by the filter; deletes REMOVE from the filter (a Bloom filter
    // cannot), so miss performance survives churn.
    let n = 40_000usize;
    let recs: Vec<Record> = dataset(n);
    let mut heap = rum_columns::UnsortedColumn::new();
    heap.bulk_load(&recs).unwrap();
    let mut qf = QuotientFilter::with_capacity(n, 12);
    for r in &recs {
        qf.insert(r.key);
    }
    // Churn: delete half the keys, from the heap AND the filter.
    for i in (0..n as u64).step_by(2) {
        heap.delete(2 * i).unwrap();
        qf.remove(2 * i);
    }
    // Misses on deleted keys: the filter prunes them.
    let mut rng = StdRng::seed_from_u64(4);
    let mut filtered_reads = 0u64;
    let mut raw_reads = 0u64;
    for _ in 0..2000 {
        let key = 2 * 2 * rng.gen_range(0..(n as u64 / 2)); // a deleted key
        let before = heap.tracker().snapshot();
        if qf.may_contain(key) {
            heap.get(key).unwrap();
        }
        filtered_reads += heap.tracker().since(&before).page_reads;
        let before = heap.tracker().snapshot();
        heap.get(key).unwrap();
        raw_reads += heap.tracker().since(&before).page_reads;
    }
    println!(
        "  2000 point misses on deleted keys: {} page reads with the quotient filter, {} without ({}x saved)",
        filtered_reads,
        raw_reads,
        raw_reads / filtered_reads.max(1)
    );
    println!(
        "  filter: {} bytes for {} live keys ({:.2} bytes/key), load {:.2}",
        qf.size_bytes(),
        qf.len(),
        qf.size_bytes() as f64 / qf.len().max(1) as f64,
        qf.load()
    );
    println!(
        "  -> deletes kept the filter accurate — the updatable-filter property §5 asks for.\n"
    );
}

/// `rum-bench roadmap`: the four sections print as they finish, in the
/// order of §5; there are no verdicts to add.
pub fn experiment(_: Scale, _: &Target) -> Outcome {
    section_cracking();
    section_bitmaps();
    section_lsm_retune();
    section_quotient_index();
    Outcome::default()
}
