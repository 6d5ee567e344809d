//! Pin the calling thread (and every thread it spawns later) to one CPU,
//! and let it go again.
//!
//! Two things on the 2-vCPU reference box make an unpinned run unrepeatable:
//!
//! * The scheduler moves a lone busy thread between the cores every few
//!   hundred milliseconds, and each move lands on a cold private L2 (4 MiB,
//!   a quarter of a workload's data). Unpinned, `get_p50_ns` on
//!   `btree-point` read 1660–3140 ns over six runs of one seed; pinned,
//!   1790–2260 ns.
//! * A wake-up across vCPUs costs either a few microseconds or a few tens,
//!   for minutes at a time (the guest's halt-polling adapts), and
//!   `sharded-balanced` hands a batch of about two operations to the pool
//!   and waits, every time. Unpinned, its `ops_per_s` read 147 k–163 k for
//!   four runs and then 34 k–37 k for eight; with main thread and pool on
//!   one CPU, 157 k–168 k. The two-core figure is kept as the per-layer
//!   `shard.unpinned_speedup`.

/// One bit per CPU, 1024 CPUs: the kernel's default `cpu_set_t`.
#[cfg(target_os = "linux")]
type Mask = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread was allowed on when first asked.
#[cfg(target_os = "linux")]
fn allowed() -> Option<Mask> {
    static ALLOWED: std::sync::OnceLock<Option<Mask>> = std::sync::OnceLock::new();
    *ALLOWED.get_or_init(|| {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 is the calling thread. glibc, which std already
        // links, exports the symbol with this signature.
        let rc = unsafe { sched_getaffinity(0, size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    })
}

/// With `one`, restrict the calling thread to the highest-numbered CPU it
/// may run on (CPU 0 takes most interrupts); without, give it back every
/// CPU it started with. Threads spawned later inherit the mask.
///
/// Returns whether the mask was set. Where it cannot be (another OS, a
/// refusing sandbox) the benchmark still runs, only noisier.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu(one: bool) -> bool {
    let Some(all) = allowed() else { return false };
    let mut mask = all;
    if one {
        let Some(word) = all.iter().rposition(|w| *w != 0) else {
            return false;
        };
        mask = [0; 16];
        mask[word] = 1 << (63 - all[word].leading_zeros());
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed and is
    // only read; it names only CPUs the thread started out allowed on.
    unsafe { sched_setaffinity(0, size_of::<Mask>(), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu(_one: bool) -> bool {
    false
}
