//! Dynamic RUM balance for the LSM-tree — §5 of the paper:
//!
//! "We envision access methods that can automatically and dynamically
//! adapt to new workload requirements or hardware changes ... in the case
//! of access methods based on iterative merges, by changing the number of
//! merge trees dynamically, the depth of the merge hierarchy and the
//! frequency of merging, we can build access methods that dynamically
//! adapt to workload and hardware changes."
//!
//! [`advise`] maps an observed operation mix to an [`LsmConfig`];
//! [`retune`] applies a new configuration to a live tree, performing a
//! major compaction so the new shape takes effect immediately, and
//! returns what that migration cost. [`LsmTree`]'s [`Morphable`] face,
//! which the [`AutoTuner`](rum_core::autotune::AutoTuner) drives, uses
//! both.

use std::sync::Arc;

use rum_core::autotune::{migrate, MigrationReceipt, Morphable, RetuneEstimate};
use rum_core::wizard::{Environment, Family};
use rum_core::workload::OpMix;
use rum_core::{AccessMethod, Result, RECORDS_PER_PAGE};

use crate::tree::{CompactionPolicy, LsmConfig, LsmTree};

/// Recommend a configuration for an operation mix.
///
/// Rules follow Table 1's cost model: levelling with a large size ratio
/// collapses the hierarchy (reads and space improve, merges cost more);
/// tiering with a small ratio defers merges (writes improve, reads and
/// space suffer); Bloom bits buy read performance with auxiliary space.
pub fn advise(mix: &OpMix) -> LsmConfig {
    let total = mix.total().max(f64::EPSILON);
    let read_frac = (mix.get + mix.range) / total;
    let write_frac = 1.0 - read_frac;

    let mut cfg = LsmConfig::default();
    if read_frac > 0.7 {
        cfg.policy = CompactionPolicy::Levelling;
        cfg.size_ratio = 8;
        cfg.bloom_bits_per_key = 12.0;
    } else if write_frac > 0.7 {
        cfg.policy = CompactionPolicy::Tiering;
        cfg.size_ratio = 4;
        cfg.bloom_bits_per_key = 8.0;
    } else {
        // Mixed mixes are still read-majority in physical I/O: every read
        // must probe, while writes amortize across merges. Keep the
        // read-leaning ratio (fewer runs to probe and scan) and spend a
        // mid-size filter budget.
        cfg.policy = CompactionPolicy::Levelling;
        cfg.size_ratio = 8;
        cfg.bloom_bits_per_key = 10.0;
    }
    // A range-dominated mix amortizes the sorted view's refresh cost over
    // many cheap walks: buy RO with MO/UO.
    if mix.range / total >= 0.5 {
        cfg.sorted_view = true;
    }
    cfg
}

/// Expected pages per operation for `cfg` under `mix` — the Table 1 cost
/// model specialized to the LSM knobs, used to decide whether a re-tune
/// pays for itself. Deterministic and cheap: no tree is touched.
///
/// Shapes mirror the paper: levelling keeps one run per level (reads and
/// space improve, each record is rewritten ~`T/2` times per level);
/// tiering keeps up to `T` runs per level (writes improve, point reads
/// probe more runs); Bloom bits suppress the per-run probes; a sorted
/// view collapses range queries to one seek at an extra refresh cost.
pub fn expected_cost(cfg: &LsmConfig, mix: &OpMix, n: usize, m: usize) -> f64 {
    let b = RECORDS_PER_PAGE as f64;
    let t = cfg.size_ratio.max(2) as f64;
    let fill = (n.max(1) as f64 / cfg.memtable_records.max(16) as f64).max(2.0);
    let levels = fill.log(t).ceil().max(1.0);
    let runs = levels
        * match cfg.policy {
            CompactionPolicy::Levelling => 1.0,
            CompactionPolicy::Tiering => (t + 1.0) / 2.0,
        };
    // False-positive rate per filtered run; bits == 0 disables the filter
    // (fp = 1). The same per-key budget drives either filter kind.
    let fp = 0.6185f64.powf(cfg.bloom_bits_per_key.max(0.0));
    let point = 1.0 + (runs - 1.0).max(0.0) * fp * 0.5;
    let scan_pages = m as f64 / b;
    // Without the view a range probes every run — but fence pointers
    // prune runs whose key span misses the window, so on average only
    // about half the extra runs cost a page. Pricing the full `runs`
    // overstates what a view (or a shape with fewer runs) can save.
    let range = if cfg.sorted_view {
        1.0 + scan_pages
    } else {
        1.0 + (runs - 1.0).max(0.0) * 0.5 + scan_pages
    };
    // Amortized merge traffic per ingested record, in pages.
    let write = match cfg.policy {
        CompactionPolicy::Levelling => levels * (t / 2.0) / b,
        CompactionPolicy::Tiering => levels / b,
    } + 1.0 / b;
    // Updates and deletes are blind writes in an LSM (the live-set check
    // is in-memory): they cost the same amortized merge traffic as
    // inserts, with no read-before-write.
    let total = mix.total().max(f64::EPSILON);
    let mut cost =
        (mix.get * point + mix.range * range + (mix.insert + mix.update + mix.delete) * write)
            / total;
    if cfg.sorted_view {
        // Every flush leaves the view stale and the next view-enabled
        // range query refreshes it by merging the old anchors with the
        // new runs. An anchor is as wide as a record, so one refresh
        // reads the old anchor array (`n/b` pages' worth), writes the new
        // one (`n/b` again) and scans the runs the flush and its cascade
        // produced: the `2.5 n/b` that priced a whole-tree rebuild (scan
        // `n/b`, anchors ~`1.5 n/b`) still prices a refresh, so the term
        // stays and no tuner decision or digest moves. At most one refresh
        // happens per flush (every `memtable_records` ingested records)
        // and per range query, whichever is rarer. This is the
        // maintenance the view spends to buy its RO — underpricing it
        // makes a mixed read/write mix look like it wants a view it
        // would thrash.
        let write_frac = (mix.insert + mix.update + mix.delete) / total;
        let range_frac = mix.range / total;
        let refreshes_per_op = (write_frac / cfg.memtable_records.max(16) as f64).min(range_frac);
        cost += refreshes_per_op * view_refresh_pages(n.max(1));
    }
    cost
}

/// What one sorted-view refresh over `n` records costs, in pages: scan
/// `n/b`, anchors ~`1.5 n/b`. The same price bills a view-only toggle.
fn view_refresh_pages(n: usize) -> f64 {
    2.5 * (n as f64 / RECORDS_PER_PAGE as f64)
}

/// One-line shape description for receipts and trace events.
pub fn describe(cfg: &LsmConfig) -> String {
    format!(
        "lsm({:?},T={},mem={},bloom={},view={})",
        cfg.policy, cfg.size_ratio, cfg.memtable_records, cfg.bloom_bits_per_key, cfg.sorted_view
    )
}

/// Apply `config` to a live tree: its contents are drained and rebuilt
/// under the new shape (a major compaction) by [`migrate`], so the rebuilt
/// tree takes over the old tree's account and trace sink before it loads,
/// and the flush, drain and rebuild I/O land on top of the history, where
/// the runner's phase accounting books them as UO. The
/// [`MigrationReceipt`] prices that I/O and the transient double-residency
/// (old shape + drain buffer) as MO.
pub fn retune(tree: &mut LsmTree, config: LsmConfig) -> Result<MigrationReceipt> {
    let mut rebuilt = LsmTree::with_config(config);
    let sink = Arc::clone(&tree.sink);
    let shapes = [describe(tree.config()), describe(&config)];
    let receipt = migrate(tree, &mut rebuilt, &sink, shapes, |t| {
        t.flush()?;
        t.range_impl(0, u64::MAX)
    })?;
    *tree = rebuilt;
    Ok(receipt)
}

/// Toggle only the sorted view, priced: the one re-tune that needs no
/// drain. Turning the view on builds it eagerly (the build's scan and
/// anchors land on the tracker as aux writes, so the runner books them
/// as UO); turning it off drops the anchors for free and releases their
/// MO. The receipt's transient residency is the anchors themselves.
pub fn toggle_view_priced(tree: &mut LsmTree, on: bool) -> Result<MigrationReceipt> {
    let from = describe(tree.config());
    let before = tree.tracker().snapshot();
    tree.set_sorted_view(on)?;
    let delta = tree.tracker().since(&before);
    Ok(MigrationReceipt {
        from,
        to: describe(tree.config()),
        bytes_read: delta.total_read_bytes(),
        bytes_written: delta.total_write_bytes(),
        peak_extra_bytes: tree.view_bytes(),
    })
}

/// A self-tuning LSM is an [`LsmTree`]: the tree is itself
/// [`Morphable`]. This name only builds one, for callers that spell it.
pub enum SelfTuningLsm {}

impl SelfTuningLsm {
    /// The tree itself, ready for the
    /// [`AutoTuner`](rum_core::autotune::AutoTuner).
    #[allow(clippy::new_ret_no_self)]
    pub fn new(tree: LsmTree) -> LsmTree {
        tree
    }
}

impl LsmTree {
    /// The advised shape for `mix`, keeping the live memtable size:
    /// `advise` tunes policy/ratio/filter/view, not the write buffer, so
    /// a tree with a non-default memtable must not look perpetually
    /// "mis-shaped" (that would make every drift flag a migration).
    ///
    /// The rule table's crude `range/total >= 0.5` view threshold is then
    /// refined with the cost model at the *live* size: the view pays
    /// exactly when its range savings beat its refresh thrash, which
    /// depends on how many anchors a refresh streams — something a
    /// size-blind rule cannot weigh. (`m` cancels between the two arms,
    /// so any value prices the comparison.)
    fn advised_for(&self, mix: &OpMix) -> LsmConfig {
        let mut cfg = LsmConfig {
            memtable_records: self.config().memtable_records,
            ..advise(mix)
        };
        let n = self.len().max(1);
        let cost = |sorted_view| expected_cost(&LsmConfig { sorted_view, ..cfg }, mix, n, 16);
        cfg.sorted_view = cost(true) < cost(false);
        cfg
    }

    /// The migration bill for moving to `advised`, in pages — `Some` only
    /// when a cheap path exists (a view-only toggle skips the drain: on
    /// costs one whole-tree scan plus the anchors, off is a free drop).
    fn cheap_bill(&self, advised: &LsmConfig) -> Option<f64> {
        let current = self.config();
        let view_only = LsmConfig {
            sorted_view: current.sorted_view,
            ..*advised
        } == *current;
        if !view_only {
            return None;
        }
        Some(if advised.sorted_view {
            view_refresh_pages(self.len())
        } else {
            0.0
        })
    }
}

/// An LSM reshapes itself: the [`Morphable`] face the
/// [`AutoTuner`](rum_core::autotune::AutoTuner) drives re-tunes its knobs
/// in place and declines every other family.
impl Morphable for LsmTree {
    fn family(&self) -> Family {
        Family::LsmTree
    }

    fn shape(&self) -> String {
        describe(self.config())
    }

    fn retune_gain(&mut self, mix: &OpMix, env: &Environment) -> Option<RetuneEstimate> {
        let advised = self.advised_for(mix);
        if advised == *self.config() {
            return None;
        }
        let current_cost = expected_cost(self.config(), mix, env.n, env.m);
        let advised_cost = expected_cost(&advised, mix, env.n, env.m);
        if advised_cost >= current_cost {
            return None;
        }
        Some(RetuneEstimate {
            current_cost,
            advised_cost,
            advised_shape: describe(&advised),
            bill_pages: self.cheap_bill(&advised),
        })
    }

    fn morph_to(&mut self, family: Family, mix: &OpMix) -> Result<Option<MigrationReceipt>> {
        if family != Family::LsmTree {
            return Ok(None);
        }
        let advised = self.advised_for(mix);
        if advised == *self.config() {
            return Ok(None);
        }
        if self.cheap_bill(&advised).is_some() {
            return toggle_view_priced(self, advised.sorted_view).map(Some);
        }
        retune(self, advised).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_heavy_mix_gets_levelling_with_big_ratio() {
        let cfg = advise(&OpMix::READ_HEAVY);
        assert_eq!(cfg.policy, CompactionPolicy::Levelling);
        assert!(cfg.size_ratio >= 8);
        assert!(cfg.bloom_bits_per_key >= 10.0);
    }

    #[test]
    fn write_heavy_mix_gets_tiering() {
        let cfg = advise(&OpMix::WRITE_HEAVY);
        assert_eq!(cfg.policy, CompactionPolicy::Tiering);
    }

    #[test]
    fn range_heavy_mix_gets_sorted_view() {
        let cfg = advise(&OpMix::RANGE_HEAVY);
        assert!(cfg.sorted_view, "range-heavy should enable the view");
        // Point-read mixes don't pay for a structure they rarely use.
        assert!(!advise(&OpMix::READ_HEAVY).sorted_view);
    }

    #[test]
    fn retune_preserves_contents() {
        let mut t = LsmTree::with_config(LsmConfig {
            memtable_records: 64,
            size_ratio: 2,
            policy: CompactionPolicy::Tiering,
            bloom_bits_per_key: 0.0,
            ..Default::default()
        });
        for k in 0..2000u64 {
            t.insert(k, k + 7).unwrap();
        }
        t.delete(100).unwrap();
        retune(
            &mut t,
            LsmConfig {
                memtable_records: 256,
                size_ratio: 8,
                policy: CompactionPolicy::Levelling,
                bloom_bits_per_key: 12.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(t.config().size_ratio, 8);
        assert_eq!(t.len(), 1999);
        assert_eq!(t.get(500).unwrap(), Some(507));
        assert_eq!(t.get(100).unwrap(), None);
    }

    #[test]
    fn retune_changes_read_cost_shape() {
        // Tiered with many runs → retune to levelled → fewer probes.
        let mut t = LsmTree::with_config(LsmConfig {
            memtable_records: 128,
            size_ratio: 8,
            policy: CompactionPolicy::Tiering,
            bloom_bits_per_key: 0.0,
            ..Default::default()
        });
        // Scatter keys so every flushed run spans the whole key domain —
        // otherwise fence pointers prune disjoint runs and tiering's extra
        // probes never materialize.
        for k in 0..10_000u64 {
            let key = (k.wrapping_mul(7919)) % 10_000;
            t.insert(key * 2, k).unwrap();
        }
        let miss_cost = |t: &mut LsmTree| {
            let before = t.tracker().snapshot();
            for k in 0..500u64 {
                t.get(2 * k + 1).unwrap();
            }
            t.tracker().since(&before).page_reads
        };
        let tiered_cost = miss_cost(&mut t);
        retune(
            &mut t,
            LsmConfig {
                memtable_records: 128,
                size_ratio: 8,
                policy: CompactionPolicy::Levelling,
                bloom_bits_per_key: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        let levelled_cost = miss_cost(&mut t);
        assert!(
            levelled_cost < tiered_cost,
            "levelled misses ({levelled_cost}) should beat tiered ({tiered_cost})"
        );
    }

    #[test]
    fn expected_cost_orders_advised_shapes_correctly() {
        let (n, m) = (1 << 20, 256);
        let read_cfg = advise(&OpMix::READ_HEAVY);
        let write_cfg = advise(&OpMix::WRITE_HEAVY);
        let scan_cfg = advise(&OpMix::SCAN_HEAVY);
        // Each advised shape should win (or tie) its own mix against the
        // shapes advised for the opposite mixes.
        let at = |cfg: &LsmConfig, mix: &OpMix| expected_cost(cfg, mix, n, m);
        assert!(at(&write_cfg, &OpMix::WRITE_HEAVY) < at(&read_cfg, &OpMix::WRITE_HEAVY));
        assert!(at(&write_cfg, &OpMix::WRITE_HEAVY) < at(&scan_cfg, &OpMix::WRITE_HEAVY));
        assert!(at(&read_cfg, &OpMix::READ_HEAVY) < at(&write_cfg, &OpMix::READ_HEAVY));
        assert!(at(&scan_cfg, &OpMix::SCAN_HEAVY) < at(&write_cfg, &OpMix::SCAN_HEAVY));
        assert!(at(&scan_cfg, &OpMix::SCAN_HEAVY) < at(&read_cfg, &OpMix::SCAN_HEAVY));
    }

    #[test]
    fn retune_priced_charges_the_migration_and_keeps_contents() {
        let mut t = LsmTree::with_config(LsmConfig {
            memtable_records: 64,
            size_ratio: 2,
            policy: CompactionPolicy::Tiering,
            ..Default::default()
        });
        for k in 0..3000u64 {
            t.insert(k, k + 1).unwrap();
        }
        let receipt = retune(
            &mut t,
            LsmConfig {
                memtable_records: 256,
                size_ratio: 8,
                policy: CompactionPolicy::Levelling,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(receipt.bytes_read > 0, "drain must be priced");
        assert!(receipt.bytes_written > 0, "rebuild must be priced");
        assert!(
            receipt.peak_extra_bytes as usize >= 3000 * rum_core::RECORD_SIZE,
            "double residency must cover at least the drain buffer"
        );
        assert_ne!(receipt.from, receipt.to);
        assert_eq!(t.len(), 3000);
        assert_eq!(t.get(1234).unwrap(), Some(1235));
    }

    #[test]
    fn self_tuning_lsm_retunes_only_when_the_advice_changes() {
        let env = Environment {
            n: 4096,
            ..Default::default()
        };
        let balanced = advise(&OpMix::BALANCED);
        let mut m = LsmTree::with_config(balanced);
        for k in 0..4096u64 {
            m.insert(k, k).unwrap();
        }
        // Already shaped for the mix it was advised for: no gain, no work.
        assert!(m.retune_gain(&OpMix::BALANCED, &env).is_none());
        assert!(m
            .morph_to(Family::LsmTree, &OpMix::BALANCED)
            .unwrap()
            .is_none());
        // A write-heavy mix advises tiering: positive gain, priced morph.
        let est = m
            .retune_gain(&OpMix::WRITE_HEAVY, &env)
            .expect("mix flip should open a gain");
        assert!(est.advised_cost < est.current_cost);
        let receipt = m
            .morph_to(Family::LsmTree, &OpMix::WRITE_HEAVY)
            .unwrap()
            .expect("morph should happen");
        assert!(receipt.bytes_written > 0);
        assert_eq!(m.config().policy, CompactionPolicy::Tiering);
        assert_eq!(m.len(), 4096);
        // Foreign families are declined without touching the tree.
        assert!(m
            .morph_to(Family::BTree, &OpMix::WRITE_HEAVY)
            .unwrap()
            .is_none());
    }
}
