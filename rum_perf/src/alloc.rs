//! Counting global allocator (this binary only).
//!
//! Counters are striped per thread so the two shard workers of
//! `sharded-balanced` never share a cache line: a single set of atomics
//! would add a contended RMW to every allocation and bill it to
//! `core::shard`. A stripe is only ever written by the thread that owns it
//! (until more than [`STRIPES`] threads exist), so `Relaxed` is enough: the
//! counts are statistics and publish no other data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

const STRIPES: usize = 16;

#[repr(align(128))]
struct Stripe {
    allocs: AtomicU64,
    alloc_bytes: AtomicU64,
    freed_bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Stripe = Stripe {
    allocs: AtomicU64::new(0),
    alloc_bytes: AtomicU64::new(0),
    freed_bytes: AtomicU64::new(0),
};
static STRIPE: [Stripe; STRIPES] = [EMPTY; STRIPES];
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates.
    static MY_STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn my_stripe() -> &'static Stripe {
    let i = MY_STRIPE.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_STRIPE.fetch_add(1, Relaxed) % STRIPES);
        }
        s.get()
    });
    &STRIPE[i]
}

fn count_alloc(bytes: usize) -> &'static Stripe {
    let s = my_stripe();
    s.allocs.fetch_add(1, Relaxed);
    s.alloc_bytes.fetch_add(bytes as u64, Relaxed);
    s
}

pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        my_stripe()
            .freed_bytes
            .fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` was returned by `System` for this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size)
            .freed_bytes
            .fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation totals so far: calls, bytes requested, bytes released.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub freed_bytes: u64,
}

impl Counts {
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            allocs: self.allocs - earlier.allocs,
            alloc_bytes: self.alloc_bytes - earlier.alloc_bytes,
            freed_bytes: self.freed_bytes - earlier.freed_bytes,
        }
    }
}

fn read(s: &Stripe) -> Counts {
    Counts {
        allocs: s.allocs.load(Relaxed),
        alloc_bytes: s.alloc_bytes.load(Relaxed),
        freed_bytes: s.freed_bytes.load(Relaxed),
    }
}

/// What the calling thread allocated. Cheap enough to read around every
/// timed call; every per-op path of the program runs on the caller.
pub fn thread_counts() -> Counts {
    read(my_stripe())
}

/// Heap bytes live across all threads (requested sizes, not block sizes).
pub fn live_bytes() -> u64 {
    let (mut allocated, mut freed) = (0u64, 0u64);
    for s in &STRIPE {
        let c = read(s);
        allocated += c.alloc_bytes;
        freed += c.freed_bytes;
    }
    allocated.saturating_sub(freed)
}
