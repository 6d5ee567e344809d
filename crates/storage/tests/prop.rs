//! Property-based tests for the storage substrate.

use proptest::prelude::*;
use rum_core::{Result, RumError};
use rum_storage::{
    BlockDevice, CheckedDevice, DeviceProfile, FaultDevice, FaultInjector, FaultPlan, FaultProfile,
    LruSet, MemDevice, MemoryHierarchy, PageBuf, PageId, Pager, RetryPolicy,
};

/// Any sequence of device ops applied to a raw device and a hierarchy
/// must read back identical data.
fn apply_ops(ops: &[(u8, u8, u64)]) -> Result<()> {
    let mut raw = MemDevice::new();
    let mut hier = MemoryHierarchy::new(5, DeviceProfile::SSD);
    let mut ids: Vec<(PageId, PageId)> = Vec::new();

    for &(op, slot, val) in ops {
        match op % 3 {
            0 => {
                ids.push((raw.allocate()?, hier.allocate()?));
            }
            1 if !ids.is_empty() => {
                let (a, c) = ids[slot as usize % ids.len()];
                let mut page = PageBuf::zeroed();
                page.write_u64(0, val);
                raw.write_page(a, &page)?;
                hier.write_page(c, &page)?;
            }
            _ if !ids.is_empty() => {
                let (a, c) = ids[slot as usize % ids.len()];
                let x = raw.read_page(a)?.read_u64(0);
                let z = hier.read_page(c)?.read_u64(0);
                assert_eq!(x, z, "hierarchy diverged");
            }
            _ => {}
        }
    }
    // Final full comparison after sync.
    hier.sync()?;
    for &(a, c) in &ids {
        let x = raw.read_page(a)?.read_u64(0);
        let z = hier.read_page(c)?.read_u64(0);
        assert_eq!(x, z);
    }
    Ok(())
}

proptest! {
    #[test]
    fn cached_devices_never_diverge_from_raw(
        ops in proptest::collection::vec((0u8..3, any::<u8>(), any::<u64>()), 1..200)
    ) {
        apply_ops(&ops).unwrap();
    }

    /// Seal → verify is the identity for arbitrary page bytes: whatever
    /// goes through a CheckedDevice comes back bit-identical, across
    /// rewrites of the same page.
    #[test]
    fn checked_page_roundtrip(
        pages in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), rum_core::PAGE_SIZE..rum_core::PAGE_SIZE + 1),
            1..8,
        )
    ) {
        let mut dev = CheckedDevice::new(MemDevice::new());
        let id = dev.allocate().unwrap();
        for bytes in &pages {
            let page = PageBuf::from_bytes(bytes);
            dev.write_page(id, &page).unwrap();
            let back = dev.read_page(id).unwrap();
            prop_assert_eq!(back.as_slice(), bytes.as_slice());
        }
    }

    /// Flip any single bit anywhere in a sealed page: the next read must
    /// fail with CorruptPage — never serve the damaged bytes.
    #[test]
    fn any_single_bitflip_is_detected(
        bytes in proptest::collection::vec(any::<u8>(), rum_core::PAGE_SIZE..rum_core::PAGE_SIZE + 1),
        bit in 0usize..(rum_core::PAGE_SIZE * 8),
    ) {
        let mut dev = CheckedDevice::new(MemDevice::new());
        let id = dev.allocate().unwrap();
        dev.write_page(id, &PageBuf::from_bytes(&bytes)).unwrap();
        let mut damaged = bytes.clone();
        damaged[bit / 8] ^= 1 << (bit % 8);
        dev.inner_mut().write_page(id, &PageBuf::from_bytes(&damaged)).unwrap();
        match dev.read_page(id) {
            Err(RumError::CorruptPage { id: pid, stored, computed }) => {
                prop_assert_eq!(pid, id.0);
                prop_assert_ne!(stored, computed);
            }
            Ok(_) => prop_assert!(false, "single-bit damage served as truth"),
            Err(other) => prop_assert!(false, "wrong error class: {:?}", other),
        }
    }

    /// Under any seeded transient-fault profile, a retried read either
    /// converges (when max_attempts exceeds the burst bound) or errors
    /// after exactly its bounded attempts — and the whole outcome
    /// sequence is deterministic per seed.
    #[test]
    fn retry_converges_or_errors(
        seed in any::<u64>(),
        ppm in 0u32..600_000,
        max_burst in 1u32..4,
        attempts in 1u32..6,
        reads in 1usize..60,
    ) {
        let run = || {
            let inj = FaultInjector::with_profile(
                FaultPlan::None,
                Some(FaultProfile {
                    write_error_ppm: 0,
                    ..FaultProfile::transient(seed, ppm, max_burst)
                }),
            );
            let tracker = rum_core::CostTracker::new();
            let mut pager = Pager::new(
                FaultDevice::new(MemDevice::new(), std::sync::Arc::clone(&inj)),
                std::sync::Arc::clone(&tracker),
            );
            pager.set_retry_policy(RetryPolicy::attempts(attempts));
            let id = pager.allocate().unwrap();
            pager.write(id, rum_core::DataClass::Base, &PageBuf::zeroed()).unwrap();
            let outcomes: Vec<bool> = (0..reads)
                .map(|_| match pager.read(id, rum_core::DataClass::Base) {
                    Ok(_) => true,
                    Err(RumError::Transient(_)) => false,
                    Err(other) => panic!("unexpected error {other:?}"),
                })
                .collect();
            (outcomes, tracker.snapshot())
        };
        let (outcomes, costs) = run();
        if attempts > max_burst {
            prop_assert!(
                outcomes.iter().all(|&ok| ok),
                "attempts {} > max_burst {} must converge",
                attempts, max_burst
            );
        }
        // Attempts are bounded: at most `attempts` charged page touches
        // per logical read (plus the one seeding write).
        prop_assert!(costs.page_reads <= reads as u64 * u64::from(attempts));
        // Deterministic per seed: bit-identical outcomes and costs.
        let (outcomes2, costs2) = run();
        prop_assert_eq!(outcomes, outcomes2);
        prop_assert_eq!(costs, costs2);
    }

    #[test]
    fn lru_set_matches_naive_model(
        capacity in 1usize..12,
        keys in proptest::collection::vec(0u64..24, 1..300),
    ) {
        let mut lru = LruSet::new(capacity);
        // Naive model: Vec ordered MRU-first.
        let mut model: Vec<u64> = Vec::new();
        for k in keys {
            if let Some(pos) = model.iter().position(|&x| x == k) {
                model.remove(pos);
            }
            model.insert(0, k);
            let evicted = lru.insert(k, false);
            if model.len() > capacity {
                let victim = model.pop().unwrap();
                prop_assert_eq!(evicted.map(|(v, _)| v), Some(victim));
            } else {
                prop_assert!(evicted.is_none());
            }
            prop_assert_eq!(lru.len(), model.len());
            prop_assert_eq!(lru.keys(), model.clone());
        }
    }
}
