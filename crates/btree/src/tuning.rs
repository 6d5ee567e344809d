//! Knob retuning for the B+-tree — §5's "dynamically tuned parameters,
//! including tree height, node size, and split condition", wired to the
//! [`Morphable`] face so the
//! [`AutoTuner`](rum_core::autotune::AutoTuner) can drive it.
//!
//! The knobs here trade RUM overheads exactly as the paper describes:
//! slack in the leaves (fill factor < 1) buys UO (fewer splits) with MO
//! (more nodes) and a sliver of RO; bigger nodes buy range RO (fewer
//! seeks per scanned record) with point RO (every probe drags the whole
//! node through the tracker).

use std::sync::Arc;

use rum_core::autotune::{MigrationReceipt, Morphable, RetuneEstimate};
use rum_core::wizard::{Environment, Family};
use rum_core::workload::OpMix;
use rum_core::{AccessMethod, Record, Result, PAGE_SIZE, RECORD_SIZE};

use crate::node::{internal_capacity, leaf_capacity};
use crate::tree::{BTree, BTreeConfig};

/// Recommend a configuration for an operation mix.
///
/// Write-leaning mixes get slack leaves (fill 0.7: splits become rare);
/// read- and scan-leaning mixes keep packed single-page nodes — in a
/// page-cost model that is already the read optimum (any slack inflates
/// both the scan length and the node count).
pub fn advise_btree(mix: &OpMix) -> BTreeConfig {
    let total = mix.total().max(f64::EPSILON);
    let write_frac = (mix.insert + mix.update + mix.delete) / total;

    let mut cfg = BTreeConfig::default();
    if write_frac > 0.5 {
        cfg.fill_factor = 0.7;
    }
    cfg
}

/// Expected pages per operation for `cfg` under `mix` — the Table 1
/// B-tree row with the §5 knobs exposed. Deterministic and cheap.
pub fn expected_cost_btree(cfg: &BTreeConfig, mix: &OpMix, n: usize, m: usize) -> f64 {
    let pages_per_node = cfg.node_size.div_ceil(PAGE_SIZE) as f64;
    let cap = (leaf_capacity(cfg.node_size) as f64).max(2.0);
    let leaf_cap = (cap * cfg.fill_factor).max(2.0);
    let fanout = (internal_capacity(cfg.node_size) as f64).max(2.0);
    let leaves = (n.max(1) as f64 / leaf_cap).max(1.0);
    // Continuous height: the fractional part stands in for the partially
    // filled top level, so slack's extra leaves show up in read cost.
    let height = leaves.log(fanout).max(0.0) + 1.0;
    let point = height * pages_per_node;
    let range = point + (m as f64 / leaf_cap) * pages_per_node;
    // A split rewrites two nodes. After a bulk load at fill factor `f`
    // every leaf is a fraction `f` full, so the first insert epoch splits
    // with probability ~`f^4` (sharply rarer with slack); steady state
    // adds one split per half-capacity of inserts.
    let split_rate = cfg.fill_factor.clamp(0.0, 1.0).powi(4) + 2.0 / cap;
    let write = point + 2.0 * pages_per_node * split_rate + pages_per_node;
    // Space rent: slack and wide nodes are resident MO every operation
    // indirectly pays for (buffer pressure in a real system).
    let rent = 0.2 * pages_per_node / cfg.fill_factor.clamp(0.05, 1.0);
    let total = mix.total().max(f64::EPSILON);
    (mix.get * point + mix.range * range + (mix.insert + mix.update + mix.delete) * write) / total
        + rent
}

/// One-line shape description for receipts and trace events.
pub fn describe_btree(cfg: &BTreeConfig) -> String {
    format!(
        "btree(node={},fill={},split={:?})",
        cfg.node_size, cfg.fill_factor, cfg.split_policy
    )
}

/// Drain-and-rebuild retune, priced: the receipt charges the drain and
/// rebuild I/O (booked on the tree's own tracker, so the runner's phase
/// accounting lands it in UO) and the transient double-residency as MO.
pub fn retune_btree(tree: &mut BTree, config: BTreeConfig) -> Result<MigrationReceipt> {
    let from = describe_btree(tree.config());
    let old_resident = tree.space_profile().total_bytes();
    let before = tree.tracker().snapshot();
    let all: Vec<Record> = tree.range_impl(0, u64::MAX)?;
    let buffer_bytes = (all.len() * RECORD_SIZE) as u64;
    let mut rebuilt = BTree::with_config(config).adopt_tracker(Arc::clone(tree.tracker()));
    rebuilt.bulk_load_impl(&all)?;
    *tree = rebuilt;
    let delta = tree.tracker().since(&before);
    Ok(MigrationReceipt {
        from,
        to: describe_btree(tree.config()),
        bytes_read: delta.total_read_bytes(),
        bytes_written: delta.total_write_bytes(),
        peak_extra_bytes: old_resident + buffer_bytes,
    })
}

impl Morphable for BTree {
    fn family(&self) -> Family {
        Family::BTree
    }

    fn shape(&self) -> String {
        describe_btree(self.config())
    }

    fn retune_gain(&mut self, mix: &OpMix, env: &Environment) -> Option<RetuneEstimate> {
        let advised = advise_btree(mix);
        if advised == *self.config() {
            return None;
        }
        let current_cost = expected_cost_btree(self.config(), mix, env.n, env.m);
        let advised_cost = expected_cost_btree(&advised, mix, env.n, env.m);
        if advised_cost >= current_cost {
            return None;
        }
        Some(RetuneEstimate {
            current_cost,
            advised_cost,
            advised_shape: describe_btree(&advised),
            bill_pages: None,
        })
    }

    fn morph_to(&mut self, family: Family, mix: &OpMix) -> Result<Option<MigrationReceipt>> {
        if family != Family::BTree {
            return Ok(None);
        }
        let advised = advise_btree(mix);
        if advised == *self.config() {
            return Ok(None);
        }
        retune_btree(self, advised).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SplitPolicy;

    #[test]
    fn advice_matches_the_knob_story() {
        assert_eq!(advise_btree(&OpMix::READ_HEAVY), BTreeConfig::default());
        // Packed single-page nodes are already the scan optimum here.
        assert_eq!(advise_btree(&OpMix::SCAN_HEAVY), BTreeConfig::default());
        let w = advise_btree(&OpMix::WRITE_HEAVY);
        assert!(w.fill_factor < 1.0, "write-heavy should leave slack");
        assert_eq!(w.split_policy, SplitPolicy::Half);
        assert_eq!(w.node_size, PAGE_SIZE);
    }

    #[test]
    fn expected_cost_prefers_each_advised_shape_on_its_own_mix() {
        let (n, m) = (1 << 20, 1024);
        let read_cfg = advise_btree(&OpMix::READ_HEAVY);
        let write_cfg = advise_btree(&OpMix::WRITE_HEAVY);
        let scan_cfg = advise_btree(&OpMix::SCAN_HEAVY);
        let at = |cfg: &BTreeConfig, mix: &OpMix| expected_cost_btree(cfg, mix, n, m);
        assert!(at(&write_cfg, &OpMix::WRITE_HEAVY) < at(&read_cfg, &OpMix::WRITE_HEAVY));
        assert!(at(&scan_cfg, &OpMix::SCAN_HEAVY) < at(&write_cfg, &OpMix::SCAN_HEAVY));
        assert!(at(&read_cfg, &OpMix::READ_HEAVY) <= at(&write_cfg, &OpMix::READ_HEAVY));
    }

    #[test]
    fn morph_retunes_knobs_in_place_and_keeps_contents() {
        let env = Environment {
            n: 4096,
            ..Default::default()
        };
        let mut t = BTree::new();
        for k in 0..4096u64 {
            t.insert(k * 2, k).unwrap();
        }
        // Already at the advised read shape: no gain, no work.
        assert!(t.retune_gain(&OpMix::READ_HEAVY, &env).is_none());
        assert!(t
            .morph_to(Family::BTree, &OpMix::READ_HEAVY)
            .unwrap()
            .is_none());
        // Write-heavy advice differs: priced morph, contents preserved,
        // tracker identity stable.
        let tracker = Arc::clone(t.tracker());
        assert!(t.retune_gain(&OpMix::WRITE_HEAVY, &env).is_some());
        let receipt = t
            .morph_to(Family::BTree, &OpMix::WRITE_HEAVY)
            .unwrap()
            .expect("morph should happen");
        assert!(receipt.bytes_read > 0 && receipt.bytes_written > 0);
        assert!(Arc::ptr_eq(&tracker, t.tracker()));
        assert_eq!(t.len(), 4096);
        assert_eq!(t.get(2468).unwrap(), Some(1234));
        assert!(t.config().fill_factor < 1.0);
        // Foreign families are declined.
        assert!(t
            .morph_to(Family::LsmTree, &OpMix::WRITE_HEAVY)
            .unwrap()
            .is_none());
    }
}
