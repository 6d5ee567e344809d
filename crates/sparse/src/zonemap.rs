//! ZoneMaps / Small Materialized Aggregates: a packed column plus one
//! tiny metadata record (min, max, count, sum) per partition of `P`
//! records.
//!
//! Table 1 notes: "ZoneMaps have the smaller size being a sparse index"
//! with `O(N/P/B)` cost for everything — *in the best case*, which assumes
//! the data is clustered so a single partition overlaps any given key.
//! This implementation makes that dependence visible: bulk-loaded (sorted)
//! data gets disjoint zones and near-optimal pruning, while random inserts
//! widen zones until pruning stops working — exactly the degradation the
//! paper's "best case" footnote hides.

use std::ops::{ControlFlow, Range};
use std::sync::Arc;

use rum_columns::packed::PackedFile;
use rum_core::{
    AccessMethod, CostTracker, DataClass, Key, Record, Result, SpaceProfile, Value,
    RECORDS_PER_PAGE,
};

/// Per-zone metadata: 32 bytes (min, max, count, sum) — the SMA extension
/// of the plain min/max zone map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Zone {
    pub min: Key,
    pub max: Key,
    pub count: u32,
    pub sum: u64,
}

impl Zone {
    const BYTES: u64 = 32;

    fn empty() -> Zone {
        Zone {
            min: Key::MAX,
            max: 0,
            count: 0,
            sum: 0,
        }
    }

    fn overlaps(&self, lo: Key, hi: Key) -> bool {
        self.count > 0 && self.min <= hi && self.max >= lo
    }

    fn cover(&mut self, r: &Record) {
        self.min = self.min.min(r.key);
        self.max = self.max.max(r.key);
        self.count += 1;
        self.sum = self.sum.wrapping_add(r.value);
    }
}

/// Configuration: partition size `P` in records (Table 1's parameter),
/// and whether inserts are blind appends (the paper's O(1)-ish zone-map
/// maintenance; the caller guarantees fresh keys).
#[derive(Clone, Copy, Debug)]
pub struct ZoneMapConfig {
    pub partition_records: usize,
    pub blind_appends: bool,
}

impl Default for ZoneMapConfig {
    fn default() -> Self {
        ZoneMapConfig {
            partition_records: 16 * RECORDS_PER_PAGE, // P = 4096 records
            blind_appends: false,
        }
    }
}

/// A packed column with zone-map pruning.
pub struct ZoneMappedColumn {
    file: PackedFile,
    zones: Vec<Zone>,
    config: ZoneMapConfig,
}

impl ZoneMappedColumn {
    pub fn new() -> Self {
        Self::with_config(ZoneMapConfig::default())
    }

    pub fn with_config(config: ZoneMapConfig) -> Self {
        assert!(
            config.partition_records >= RECORDS_PER_PAGE,
            "partitions must be at least one page"
        );
        assert_eq!(
            config.partition_records % RECORDS_PER_PAGE,
            0,
            "partition size must be page-aligned"
        );
        ZoneMappedColumn {
            file: PackedFile::default(),
            zones: Vec::new(),
            config,
        }
    }

    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    fn p(&self) -> usize {
        self.config.partition_records
    }

    fn zone_of(&self, record_idx: usize) -> usize {
        record_idx / self.p()
    }

    /// Charge a scan of the zone directory (auxiliary metadata).
    fn charge_zone_scan(&self) {
        self.tracker()
            .read(DataClass::Aux, self.zones.len() as u64 * Zone::BYTES);
    }

    /// The pages holding zone `zi`'s records. Zones are page-aligned
    /// (`P` is a multiple of `B`), so every record on them is the zone's.
    fn zone_pages(&self, zi: usize) -> Range<usize> {
        let start = zi * self.p();
        let end = ((zi + 1) * self.p()).min(self.file.len());
        start / RECORDS_PER_PAGE..end.div_ceil(RECORDS_PER_PAGE)
    }

    /// The zone-pruned lookup every point op starts with: scan the zone
    /// directory, then search each zone that may hold `key` until it turns
    /// up. Returns the zone and the record's global index; the search stops
    /// on the page holding it, so a `get` or `set` of that index is a memo
    /// hit.
    fn locate(&mut self, key: Key) -> Result<Option<(usize, usize)>> {
        self.charge_zone_scan();
        for zi in 0..self.zones.len() {
            if self.zones[zi].overlaps(key, key) {
                if let Some(idx) = self.file.find(key, self.zone_pages(zi))? {
                    return Ok(Some((zi, idx)));
                }
            }
        }
        Ok(None)
    }

    /// Recompute zone `zi`'s metadata by reading its pages.
    fn recompute_zone(&mut self, zi: usize) -> Result<()> {
        let mut z = Zone::empty();
        self.file.scan(self.zone_pages(zi), |_, recs| {
            recs.iter().for_each(|r| z.cover(&r));
            ControlFlow::<()>::Continue(())
        })?;
        if zi < self.zones.len() {
            self.zones[zi] = z;
            // Trim trailing empty zones.
            while matches!(self.zones.last(), Some(last) if last.count == 0) {
                self.zones.pop();
            }
            // Maintaining the sparse index costs one metadata write.
            self.tracker().write(DataClass::Aux, Zone::BYTES);
        }
        Ok(())
    }

    /// SUM/COUNT over `[lo, hi]` answered from zone metadata where zones
    /// are fully covered, reading pages only for partially covered zones —
    /// the Small Materialized Aggregates trick.
    pub fn aggregate(&mut self, lo: Key, hi: Key) -> Result<(u64, u64)> {
        self.charge_zone_scan();
        let mut count = 0u64;
        let mut sum = 0u64;
        for zi in 0..self.zones.len() {
            let z = self.zones[zi];
            if !z.overlaps(lo, hi) {
                continue;
            }
            if z.min >= lo && z.max <= hi {
                // Fully covered: metadata answers it.
                count += z.count as u64;
                sum = sum.wrapping_add(z.sum);
            } else {
                // Partially covered: fall back to data pages.
                self.file.scan(self.zone_pages(zi), |_, recs| {
                    for r in recs.iter().filter(|r| r.key >= lo && r.key <= hi) {
                        count += 1;
                        sum = sum.wrapping_add(r.value);
                    }
                    ControlFlow::<()>::Continue(())
                })?;
            }
        }
        Ok((count, sum))
    }
}

impl Default for ZoneMappedColumn {
    fn default() -> Self {
        Self::new()
    }
}

impl AccessMethod for ZoneMappedColumn {
    fn name(&self) -> String {
        "zonemap".into()
    }

    fn len(&self) -> usize {
        self.file.len()
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        self.file.tracker()
    }

    fn space_profile(&self) -> SpaceProfile {
        let physical = self.file.physical_bytes() + self.zones.len() as u64 * Zone::BYTES;
        SpaceProfile::from_physical(self.file.len(), physical)
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        match self.locate(key)? {
            Some((_, idx)) => Ok(Some(self.file.get(idx)?.value)),
            None => Ok(None),
        }
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        self.charge_zone_scan();
        let mut out = Vec::new();
        for zi in 0..self.zones.len() {
            if !self.zones[zi].overlaps(lo, hi) {
                continue;
            }
            self.file.scan(self.zone_pages(zi), |_, recs| {
                out.extend(recs.iter().filter(|r| r.key >= lo && r.key <= hi));
                ControlFlow::<()>::Continue(())
            })?;
        }
        out.sort_unstable();
        Ok(out)
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        // Upsert: an existing copy is updated in place. Blind-append mode
        // skips that search (the caller guarantees fresh keys) but still
        // scans the zone directory.
        if self.config.blind_appends {
            self.charge_zone_scan();
        } else if self.update_impl(key, value)? {
            return Ok(());
        }
        // Append; extend the zone directory as needed.
        let zi = self.zone_of(self.file.len());
        self.file.push(Record::new(key, value))?;
        if zi >= self.zones.len() {
            self.zones.push(Zone::empty());
        }
        self.zones[zi].cover(&Record::new(key, value));
        self.tracker().write(DataClass::Aux, Zone::BYTES);
        Ok(())
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        let Some((zi, idx)) = self.locate(key)? else {
            return Ok(false);
        };
        let old = self.file.get(idx)?;
        self.file.set(idx, Record::new(key, value))?;
        // Fix the SMA sum in place; min/max are unchanged by a value
        // update.
        let z = &mut self.zones[zi];
        z.sum = z.sum.wrapping_sub(old.value).wrapping_add(value);
        self.tracker().write(DataClass::Aux, Zone::BYTES);
        Ok(true)
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        let Some((zi, idx)) = self.locate(key)? else {
            return Ok(false);
        };
        // Swap-remove with the global tail record.
        let last = self.file.len() - 1;
        let last_zone = self.zone_of(last);
        if idx != last {
            let tail = self.file.get(last)?;
            self.file.set(idx, tail)?;
        }
        self.file.pop()?;
        // Both affected zones need their metadata rebuilt: the hole zone (a
        // foreign record moved in) and the tail zone (its last record
        // left).
        if zi < self.zones.len() {
            self.recompute_zone(zi)?;
        }
        if last_zone != zi && last_zone < self.zones.len() {
            self.recompute_zone(last_zone)?;
        }
        Ok(true)
    }

    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        self.file.rebuild(records)?;
        self.zones.clear();
        for chunk in records.chunks(self.p()) {
            let mut z = Zone::empty();
            for r in chunk {
                z.cover(r);
            }
            self.zones.push(z);
        }
        self.tracker()
            .write(DataClass::Aux, self.zones.len() as u64 * Zone::BYTES);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::oracle::{check, hostile_ops};

    fn loaded(n: u64, p: usize) -> ZoneMappedColumn {
        let recs: Vec<Record> = (0..n).map(|k| Record::new(k, 1)).collect();
        let mut z = ZoneMappedColumn::with_config(ZoneMapConfig {
            partition_records: p,
            ..Default::default()
        });
        z.bulk_load(&recs).unwrap();
        z
    }

    #[test]
    fn crud_roundtrip() {
        let mut z = ZoneMappedColumn::new();
        z.insert(10, 100).unwrap();
        z.insert(20, 200).unwrap();
        assert_eq!(z.get(10).unwrap(), Some(100));
        assert_eq!(z.get(15).unwrap(), None);
        assert!(z.update(20, 222).unwrap());
        assert!(!z.update(21, 0).unwrap());
        assert!(z.delete(10).unwrap());
        assert!(!z.delete(10).unwrap());
        assert_eq!(z.len(), 1);
    }

    #[test]
    fn insert_is_upsert() {
        let mut z = ZoneMappedColumn::new();
        z.insert(5, 1).unwrap();
        z.insert(5, 2).unwrap();
        assert_eq!(z.len(), 1);
        assert_eq!(z.get(5).unwrap(), Some(2));
    }

    #[test]
    fn clustered_point_query_reads_one_zone() {
        let p = 4 * RECORDS_PER_PAGE;
        let mut z = loaded(64 * RECORDS_PER_PAGE as u64, p);
        let zones = z.zone_count();
        assert_eq!(zones, 16);
        let before = z.tracker().snapshot();
        z.get(12345).unwrap();
        let reads = z.tracker().since(&before).page_reads as usize;
        assert!(
            reads <= p / RECORDS_PER_PAGE,
            "clustered lookup should stay within one zone's {} pages, read {reads}",
            p / RECORDS_PER_PAGE
        );
    }

    #[test]
    fn pruning_degrades_without_clustering() {
        // Random-order inserts widen every zone to the full key domain, so
        // a miss must scan everything — the hidden cost of the paper's
        // "best case" assumption.
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
        let n = 16 * RECORDS_PER_PAGE as u64;
        // Even keys only, so odd keys are in-domain misses.
        let mut keys: Vec<u64> = (0..n).map(|k| k * 2).collect();
        keys.shuffle(&mut StdRng::seed_from_u64(4));
        let mut scattered = ZoneMappedColumn::with_config(ZoneMapConfig {
            partition_records: 4 * RECORDS_PER_PAGE,
            ..Default::default()
        });
        for &k in &keys {
            scattered.insert(k, 1).unwrap();
        }
        let recs: Vec<Record> = (0..n).map(|k| Record::new(k * 2, 1)).collect();
        let mut clustered = ZoneMappedColumn::with_config(ZoneMapConfig {
            partition_records: 4 * RECORDS_PER_PAGE,
            ..Default::default()
        });
        clustered.bulk_load(&recs).unwrap();

        let cost = |z: &mut ZoneMappedColumn| {
            let before = z.tracker().snapshot();
            z.get(n + 1).unwrap(); // an in-domain miss (odd key)
            z.tracker().since(&before).page_reads
        };
        let c_clustered = cost(&mut clustered);
        let c_scattered = cost(&mut scattered);
        assert!(
            c_clustered <= 4,
            "clustered miss confined to one zone, read {c_clustered}"
        );
        assert!(
            c_scattered >= 12,
            "scattered miss must scan most pages, read {c_scattered}"
        );
    }

    #[test]
    fn index_size_is_tiny() {
        let z = loaded(64 * RECORDS_PER_PAGE as u64, 16 * RECORDS_PER_PAGE);
        let p = z.space_profile();
        let mo = p.space_amplification();
        assert!(mo < 1.005, "zone maps are nearly free: mo = {mo}");
        assert!(p.aux_bytes > 0);
    }

    #[test]
    fn smaller_partitions_cost_more_space_but_prune_better() {
        let n = 64 * RECORDS_PER_PAGE as u64;
        let mut fine = loaded(n, RECORDS_PER_PAGE);
        let mut coarse = loaded(n, 32 * RECORDS_PER_PAGE);
        assert!(fine.space_profile().aux_bytes > coarse.space_profile().aux_bytes);
        let cost = |z: &mut ZoneMappedColumn| {
            let before = z.tracker().snapshot();
            z.range(1000, 1100).unwrap();
            z.tracker().since(&before).page_reads
        };
        assert!(cost(&mut fine) < cost(&mut coarse));
    }

    #[test]
    fn range_results_are_correct() {
        let mut z = loaded(3000, RECORDS_PER_PAGE);
        let rs = z.range(500, 520).unwrap();
        let keys: Vec<u64> = rs.iter().map(|r| r.key).collect();
        assert_eq!(keys, (500..=520).collect::<Vec<_>>());
    }

    #[test]
    fn aggregate_uses_metadata_for_covered_zones() {
        let n = 16 * RECORDS_PER_PAGE as u64;
        let mut z = loaded(n, 4 * RECORDS_PER_PAGE);
        let before = z.tracker().snapshot();
        // Whole-domain aggregate: every zone fully covered, zero page reads.
        let (count, sum) = z.aggregate(0, u64::MAX).unwrap();
        assert_eq!(count, n);
        assert_eq!(sum, n); // every value is 1
        assert_eq!(z.tracker().since(&before).page_reads, 0);
        // Partial range: only boundary zones read pages.
        let before = z.tracker().snapshot();
        let (count, _) = z.aggregate(100, 2100).unwrap();
        assert_eq!(count, 2001);
        let reads = z.tracker().since(&before).page_reads;
        assert!(reads <= 8, "only boundary zones read, got {reads}");
    }

    #[test]
    fn delete_keeps_zones_consistent() {
        let mut z = loaded(3 * RECORDS_PER_PAGE as u64, RECORDS_PER_PAGE);
        for k in (0..200u64).step_by(3) {
            assert!(z.delete(k).unwrap());
        }
        // Every remaining key still reachable, deleted ones gone.
        for k in 0..200u64 {
            let expect = if k % 3 == 0 { None } else { Some(1) };
            assert_eq!(z.get(k).unwrap(), expect, "key {k}");
        }
    }

    #[test]
    fn model_check_random_ops() {
        let mut z = ZoneMappedColumn::with_config(ZoneMapConfig {
            partition_records: RECORDS_PER_PAGE,
            ..Default::default()
        });
        check(&mut z, &hostile_ops(99, 3000, 1000)).unwrap();
    }
}
