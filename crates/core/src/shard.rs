//! Hash-sharded composition of access methods: one logical
//! [`AccessMethod`] backed by `K` inner instances, each owning a disjoint
//! key partition, its own storage, and its own private
//! [`CostTracker`].
//!
//! Sharding is the paper's RUM tradeoff applied at the *system* level: the
//! K auxiliary structures cost MO (K roots, K directories, K memtables...)
//! and range queries pay a fan-out, in exchange for write and read traffic
//! that can be absorbed by K workers concurrently. The cost model stays
//! deterministic: every physical byte a shard touches is folded back into
//! the wrapper's tracker as a u64 sum, so RO/UO/MO from a concurrent run
//! are **bit-identical** to the same sharded structure driven serially —
//! only wall-clock time changes. `tests/shard_equivalence.rs` pins this.
//!
//! ## Execution model: a persistent worker pool
//!
//! Batched execution ([`submit_batch`](ShardedMethod::submit_batch) /
//! [`finish_batch`](ShardedMethod::finish_batch)) runs on a **persistent
//! pool** of long-lived named worker threads (`rum-shard-{w}`), started
//! lazily by the first threaded batch and joined when the facade drops.
//! Shard `s` is always served by worker `s % workers` through that
//! worker's FIFO job lane, so each shard's job stream executes in
//! submission order even when one worker serves several shards
//! (`threads < K`). Jobs carry whole per-shard sub-batches in, reads and
//! writes mixed in stream order; completions carry the shard's tracker
//! delta split by op class (plus optional per-class op latency
//! histograms) back over a per-dispatch channel, and the facade
//! folds them in shard order. A dispatch costs one channel round trip per
//! shard however many ops it carries, so the runner ends a batch only
//! where its buffer is full ([`dispatches`](ShardedMethod::dispatches) /
//! [`dispatched_ops`](ShardedMethod::dispatched_ops) count what was
//! shipped). Keeping each dispatch class-pure instead, by cutting batches
//! at the stream's read↔write switches, ships two ops per round trip on a
//! balanced mix and spends more than half of every op on hand-off;
//! spawning and joining K scoped threads per batch costs 25–60×.
//!
//! Per-op facade calls ([`get`](AccessMethod::get), ...) never touch the
//! pool: each shard lives behind its own mutex, so the facade locks the
//! owning shard and runs inline. The lock is uncontended whenever no batch
//! is in flight, which is the only way the measurement runners drive it.
//!
//! ## Cost accounting
//!
//! The wrapper's tracker is the single source of truth. Inner trackers are
//! scratch space: after every delegated call (or per-shard job), the
//! inner tracker's delta is [`absorb`](crate::tracker::CostTracker::absorb)ed
//! into the wrapper's tracker. Logical traffic is charged exactly once —
//! by the wrapper's instrumented entry points on the per-op path, or by
//! the inner wrappers on the batched path — so both paths report the same
//! totals.
//!
//! Whoever holds a shard's lock owns its tracker. The factory builds every
//! shard on the calling thread, which would make every charge a pool
//! worker makes a foreign one (a `fetch_add` each); so the wrapper
//! releases each shard's tracker once, and locking a shard (for a job, a
//! per-op call, a heal or a read of its state) takes the tracker until it
//! unlocks. Its charges then take the owner's fence-free path on whichever
//! thread runs them, and the hand-over keeps them exact
//! (`rum_core::tracker`'s module doc). Each shard needs a tracker of its
//! own: a job's delta of a tracker two shards share would hold its
//! neighbour's concurrent traffic too, so the facade refuses such shards.
//!
//! RO and UO need those totals split by the class of op that incurred
//! them, and on the batched path the wrapper's tracker cannot give that:
//! by the time a mixed batch is folded it holds both classes. The split is
//! made where the bytes are counted instead: a shard job runs the per-op
//! runner's own op loop over its sub-batch, on its private tracker, which
//! snapshots wherever *its* sub-batch switches class. Between two switches
//! the shard runs ops of one class only, alone on its tracker, so every
//! byte in the span belongs to that class, which is the argument the
//! per-op runner makes about the whole stream. The completion carries the
//! two class sums the loop booked; the loop is closed after the job's
//! panic boundary, so the pair adds up to what the wrapper absorbed also
//! when an op errors or panics mid-job (its partial traffic stays in its
//! own class). Summing the per-shard pairs is `u64` addition, so the
//! per-class totals are bit-identical to the serial per-op run's at any K,
//! pool width and batch size.

use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::access::{AccessMethod, SpaceProfile};
use crate::error::{panic_payload_message, Result, RumError};
use crate::runner::OpPhase;
use crate::trace::{ClassLatency, EventKind, LatencyHistogram, TraceSink};
use crate::tracker::{CostSnapshot, CostTracker};
use crate::types::{merge_streams, Key, Record, Value};
use crate::workload::Op;

/// One shard slot, shared between the facade and the pool workers.
///
/// The mutex serializes access to the inner method; the `poisoned` flag is
/// this module's own panic containment (a job that panics mid-mutation
/// leaves the structure in an unknown state, so every later access is
/// refused with [`RumError::Corrupt`] instead of reading garbage).
struct Shard {
    method: Mutex<Box<dyn AccessMethod>>,
    poisoned: AtomicBool,
}

impl Shard {
    fn new(method: Box<dyn AccessMethod>) -> Arc<Shard> {
        // Built on the caller's thread; whoever locks it next takes it.
        method.tracker().release();
        Arc::new(Shard {
            method: Mutex::new(method),
            poisoned: AtomicBool::new(false),
        })
    }

    /// Lock the inner method. Std mutex poisoning is deliberately ignored:
    /// job panics are caught *inside* the guard scope (so they never poison
    /// the std mutex), and the `poisoned` flag — not the mutex — is the
    /// authoritative "state is unreliable" signal.
    ///
    /// The lock holder owns the shard's tracker (module doc): the lock
    /// takes it, and the drop gives it up before unlocking.
    fn lock(&self) -> Locked<'_> {
        let guard = self
            .method
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.tracker().hold();
        Locked(guard)
    }
}

/// A locked shard, holding the shard's tracker until it unlocks.
struct Locked<'a>(MutexGuard<'a, Box<dyn AccessMethod>>);

impl Deref for Locked<'_> {
    type Target = Box<dyn AccessMethod>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for Locked<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl Drop for Locked<'_> {
    fn drop(&mut self) {
        // Whatever this thread owns of it: the tracker the lock took, or
        // the one a heal's rebuild just built here.
        self.0.tracker().release();
    }
}

fn poisoned_error(shard: usize) -> RumError {
    RumError::Corrupt(format!(
        "shard {shard} was poisoned by an earlier worker panic; its state is unreliable"
    ))
}

/// What a worker should do with its shard.
enum JobPayload {
    /// Execute ops through the instrumented wrappers (measurement path;
    /// results are discarded, logical traffic lands on the inner tracker).
    Ops(Vec<Op>),
    /// Replace contents from this shard's bulk-load partition (via
    /// `bulk_load_impl`: the facade charges the logical write once).
    Load(Vec<Record>),
}

/// One unit of work on a worker's job lane.
struct Job {
    shard: usize,
    payload: JobPayload,
    /// Record a per-op latency histogram while executing.
    timed: bool,
    reply: Sender<Completion>,
}

/// What a worker sends back when a job finishes (or fails).
struct Completion {
    shard: usize,
    outcome: Result<()>,
    /// The job's traffic by the class of op that incurred it, as the
    /// shard's op loop booked it; a bulk load is write-class. Their sum
    /// is the shard tracker's delta over the job.
    read_delta: CostSnapshot,
    write_delta: CostSnapshot,
    /// Per-op latencies by class, present when the job was `timed`.
    latency: Option<ClassLatency>,
    /// The job's op buffer, cleared and returned for reuse (submission
    /// never reallocates in steady state).
    recycled: Option<Vec<Op>>,
}

/// Execute one job against its shard, with panic containment.
///
/// This is the single execution path for *both* the pool workers and the
/// inline (threads ≤ 1) mode, which is what makes the two modes trivially
/// cost-equivalent: same per-shard op order, same instrumented wrappers,
/// same tracker delta arithmetic. Ops run through the per-op runner's own
/// loop ([`OpPhase::step`]), timed into a [`ClassLatency`] when `timed`.
///
/// Latency semantics on the sharded path: a range op fans out to every
/// shard, so it contributes one observation *per shard visited* (the
/// per-shard probe latency), not one end-to-end fan-out latency.
fn run_shard_job(shard: &Shard, index: usize, payload: JobPayload, timed: bool) -> Completion {
    if shard.poisoned.load(Ordering::Acquire) {
        return Completion {
            shard: index,
            outcome: Err(poisoned_error(index)),
            read_delta: CostSnapshot::default(),
            write_delta: CostSnapshot::default(),
            latency: None,
            recycled: recycle(payload),
        };
    }
    let mut guard = shard.lock();
    // The phase lives outside the panic boundary and is closed after it.
    let mut phase = OpPhase::start(guard.tracker());
    let mut latency = timed.then(ClassLatency::default);
    let caught = {
        let method = guard.as_mut();
        let (phase, latency) = (&mut phase, &mut latency);
        // The catch_unwind boundary sits inside the lock scope, so a
        // panicking op never unwinds through the guard (no std mutex
        // poisoning) and the tracker can still be read for the partial
        // delta the op accrued before it died.
        catch_unwind(AssertUnwindSafe(|| match &payload {
            JobPayload::Ops(ops) => ops.iter().try_for_each(|&op| {
                match latency.as_mut() {
                    Some(latency) => phase.step(method, op, latency),
                    None => phase.step(method, op, &mut ()),
                }
                .map(drop)
            }),
            JobPayload::Load(records) => {
                phase.settle::<dyn AccessMethod, _>(method.tracker(), Some(false), &mut ());
                method.bulk_load_impl(records)
            }
        }))
    };
    // Close the running class on every exit path: success, `Err` and
    // panic all leave the failed op's partial traffic in its own class.
    phase.settle::<dyn AccessMethod, _>(guard.tracker(), None, &mut ());
    drop(guard);
    let (read_delta, write_delta) = (phase.read_costs, phase.write_costs);
    let outcome = match caught {
        Ok(result) => result,
        Err(payload) => {
            shard.poisoned.store(true, Ordering::Release);
            Err(RumError::Corrupt(format!(
                "shard worker panicked on shard {index} ({}); shard state is unreliable",
                panic_payload_message(&payload)
            )))
        }
    };
    Completion {
        shard: index,
        outcome,
        read_delta,
        write_delta,
        latency,
        recycled: recycle(payload),
    }
}

/// Reclaim a job's op buffer (cleared) so the facade can reuse it.
fn recycle(payload: JobPayload) -> Option<Vec<Op>> {
    match payload {
        JobPayload::Ops(mut ops) => {
            ops.clear();
            Some(ops)
        }
        JobPayload::Load(_) => None,
    }
}

/// The persistent worker pool: long-lived named threads, one FIFO job lane
/// each. Dropping the pool closes every lane and joins every worker.
struct WorkerPool {
    /// `lanes[w]` feeds worker `w`; shard `s` always uses lane `s % lanes.len()`,
    /// so each shard's jobs execute in submission order.
    lanes: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    fn start(shards: &[Arc<Shard>], workers: usize) -> WorkerPool {
        let mut lanes = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = channel::<Job>();
            let shards: Vec<Arc<Shard>> = shards.to_vec();
            // Named workers so panics and profiler output say which worker
            // fired instead of `<unnamed>`.
            let handle = std::thread::Builder::new()
                .name(format!("rum-shard-{w}"))
                .spawn(move || {
                    for job in rx {
                        let completion =
                            run_shard_job(&shards[job.shard], job.shard, job.payload, job.timed);
                        // A dropped receiver means the dispatch was
                        // abandoned; nothing useful to do with the result.
                        let _ = job.reply.send(completion);
                    }
                })
                .expect("spawn rum-shard worker");
            lanes.push(tx);
            handles.push(handle);
        }
        WorkerPool { lanes, handles }
    }

    fn workers(&self) -> usize {
        self.handles.len()
    }

    fn lane_for(&self, shard: usize) -> &Sender<Job> {
        &self.lanes[shard % self.lanes.len()]
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect every lane; workers drain their queues and exit.
        self.lanes.clear();
        for handle in self.handles.drain(..) {
            // Worker panics are caught per-job; a join error here means the
            // runtime died outside a job, which drop cannot surface.
            let _ = handle.join();
        }
    }
}

/// A dispatched batch awaiting collection — returned by
/// [`ShardedMethod::submit_batch`], consumed by
/// [`ShardedMethod::finish_batch`].
///
/// Every submitted batch **must** be finished: the per-shard cost deltas
/// travel in the completions, so dropping a `PendingBatch` unfinished
/// loses that traffic from the facade tracker.
pub struct PendingBatch {
    /// What is folded already: the whole batch when it ran inline (no
    /// pool), nothing yet when it went to the pool.
    outcome: BatchOutcome,
    /// The pool's reply channel and how many completions it still owes.
    in_flight: Option<(Receiver<Completion>, usize)>,
}

/// A collected batch: what failed first (in shard order) and the traffic
/// of every completion that arrived, folded in shard order and split by
/// the op class that incurred it. `read_delta + write_delta` is exactly
/// what the facade tracker absorbed, whether or not the batch failed.
pub(crate) struct BatchOutcome {
    pub(crate) result: Result<()>,
    pub(crate) read_delta: CostSnapshot,
    pub(crate) write_delta: CostSnapshot,
    /// Per-class op latencies, present when the batch was timed.
    pub(crate) latency: Option<ClassLatency>,
}

impl BatchOutcome {
    fn new(timed: bool) -> Self {
        BatchOutcome {
            result: Ok(()),
            read_delta: CostSnapshot::default(),
            write_delta: CostSnapshot::default(),
            latency: timed.then(ClassLatency::default),
        }
    }
}

/// `K` instances of an access method behind one [`AccessMethod`] facade,
/// partitioned by key hash. Built from a factory so every shard gets its
/// own storage and tracker:
///
/// ```
/// use rum_core::shard::ShardedMethod;
/// # use rum_core::access::{AccessMethod, SpaceProfile};
/// # use rum_core::tracker::CostTracker;
/// # use rum_core::types::{Key, Record, Value, RECORD_SIZE};
/// # use std::sync::Arc;
/// # struct Toy { data: std::collections::BTreeMap<Key, Value>, t: Arc<CostTracker> }
/// # impl Toy { fn new() -> Self { Toy { data: Default::default(), t: CostTracker::new() } } }
/// # impl AccessMethod for Toy {
/// #     fn name(&self) -> String { "toy".into() }
/// #     fn len(&self) -> usize { self.data.len() }
/// #     fn tracker(&self) -> &Arc<CostTracker> { &self.t }
/// #     fn space_profile(&self) -> SpaceProfile {
/// #         SpaceProfile::from_physical(self.data.len(), (self.data.len() * RECORD_SIZE) as u64)
/// #     }
/// #     fn get_impl(&mut self, k: Key) -> rum_core::Result<Option<Value>> { Ok(self.data.get(&k).copied()) }
/// #     fn range_impl(&mut self, lo: Key, hi: Key) -> rum_core::Result<Vec<Record>> {
/// #         Ok(self.data.range(lo..=hi).map(|(&k, &v)| Record::new(k, v)).collect())
/// #     }
/// #     fn insert_impl(&mut self, k: Key, v: Value) -> rum_core::Result<()> { self.data.insert(k, v); Ok(()) }
/// #     fn update_impl(&mut self, k: Key, v: Value) -> rum_core::Result<bool> {
/// #         Ok(self.data.get_mut(&k).map(|slot| *slot = v).is_some())
/// #     }
/// #     fn delete_impl(&mut self, k: Key) -> rum_core::Result<bool> { Ok(self.data.remove(&k).is_some()) }
/// #     fn bulk_load_impl(&mut self, rs: &[Record]) -> rum_core::Result<()> {
/// #         self.data = rs.iter().map(|r| (r.key, r.value)).collect(); Ok(())
/// #     }
/// # }
/// let mut sharded = ShardedMethod::new(4, |_| Box::new(Toy::new()));
/// sharded.insert(7, 70).unwrap();
/// assert_eq!(sharded.get(7).unwrap(), Some(70));
/// assert_eq!(sharded.shards(), 4);
/// ```
pub struct ShardedMethod {
    name: String,
    /// Declared before `shards` so drop joins the workers first; the
    /// workers' own `Arc<Shard>` clones keep the shards alive meanwhile.
    pool: Option<WorkerPool>,
    shards: Vec<Arc<Shard>>,
    /// The externally visible tracker: logical charges from the wrapper
    /// entry points plus every absorbed inner delta.
    tracker: Arc<CostTracker>,
    /// Worker count for the batch pool; `<= 1` runs batches inline
    /// (identical costs, no threads at all).
    threads: usize,
    /// Structured-event channel for batch dispatches; the disabled
    /// [`NoopSink`](crate::trace::NoopSink) by default.
    sink: Arc<dyn TraceSink>,
    /// Cleared op buffers recycled through completions, so steady-state
    /// batch submission allocates nothing.
    spare: Vec<Vec<Op>>,
    /// [`submit_batch`](Self::submit_batch) calls so far, and the ops they
    /// carried.
    dispatches: u64,
    dispatched_ops: u64,
}

impl ShardedMethod {
    /// `k` shards from `factory(shard_index)`, with the batch worker pool
    /// capped at [`default_threads`](crate::runner::default_threads) — on
    /// a host with fewer cores than shards (or under `RUM_THREADS`), a
    /// worker serves several shard queues instead of oversubscribing.
    pub fn new<F>(k: usize, factory: F) -> Self
    where
        F: Fn(usize) -> Box<dyn AccessMethod>,
    {
        Self::with_threads(k, crate::runner::default_threads(), factory)
    }

    /// `k` shards with an explicit batch worker count (capped at `k`;
    /// `threads <= 1` executes batches inline, in shard order, with no
    /// pool). Panics if `k` is 0 or two shards share one tracker.
    pub fn with_threads<F>(k: usize, threads: usize, factory: F) -> Self
    where
        F: Fn(usize) -> Box<dyn AccessMethod>,
    {
        assert!(k >= 1, "a sharded method needs at least one shard");
        let methods: Vec<_> = (0..k).map(factory).collect();
        for (i, m) in methods.iter().enumerate() {
            assert!(
                methods[..i]
                    .iter()
                    .all(|o| !Arc::ptr_eq(o.tracker(), m.tracker())),
                "shard {i} shares its tracker with an earlier shard; each shard needs its own"
            );
        }
        let shards: Vec<Arc<Shard>> = methods.into_iter().map(Shard::new).collect();
        let name = format!("{}-x{}", shards[0].lock().name(), k);
        ShardedMethod {
            name,
            pool: None,
            shards,
            tracker: CostTracker::new(),
            threads: threads.clamp(1, k),
            sink: crate::trace::noop_sink(),
            spare: Vec::new(),
            dispatches: 0,
            dispatched_ops: 0,
        }
    }

    /// Number of shards (the paper's `K`).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Batch worker threads this wrapper will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Batches handed to [`submit_batch`](Self::submit_batch) so far. With
    /// [`dispatched_ops`](Self::dispatched_ops) it gives the mean batch
    /// size, the number the per-batch hand-off is amortized over.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// Ops carried by the batches counted in
    /// [`dispatches`](Self::dispatches).
    pub fn dispatched_ops(&self) -> u64 {
        self.dispatched_ops
    }

    /// Whether the persistent pool is currently running (it starts lazily
    /// on the first threaded batch and stops on drop).
    pub fn pool_running(&self) -> bool {
        self.pool.is_some()
    }

    /// Indices of shards currently refusing service after a worker panic.
    pub fn poisoned_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.poisoned.load(Ordering::Acquire))
            .map(|(i, _)| i)
            .collect()
    }

    /// Restore service on every poisoned shard and return how many were
    /// healed. Healing is **explicit** — a poisoned shard keeps refusing
    /// until the operator (or a supervising layer) decides its state
    /// question is answered — and has one path: the inner method repairs
    /// itself ([`AccessMethod::try_heal`]). A [`Durable`]-wrapped method
    /// rebuilds from its checkpoint + committed WAL prefix, so the healed
    /// shard serves exactly the acknowledged writes.
    ///
    /// Repair I/O lands on the shard tracker and is folded into the
    /// wrapper tracker like any other delegated work; each healed shard
    /// emits one [`EventKind::RepairComplete`].
    ///
    /// Errors if a poisoned shard cannot repair itself: it stays refused,
    /// since refusing service is strictly safer than serving unknown (or
    /// silently emptied) state.
    ///
    /// [`Durable`]: AccessMethod::try_heal
    pub fn heal(&mut self) -> Result<usize> {
        let poisoned = self.poisoned_shards();
        for &index in &poisoned {
            self.heal_shard(index)?;
        }
        Ok(poisoned.len())
    }

    /// Heal one shard (see [`heal`](Self::heal)).
    fn heal_shard(&self, index: usize) -> Result<()> {
        let slot = &self.shards[index];
        let mut guard = slot.lock();
        let before = guard.tracker().snapshot();
        let repaired = guard.try_heal();
        // Folded on every exit: a failed repair's traffic is still spent.
        self.tracker.absorb(&guard.tracker().since(&before));
        if !repaired? {
            return Err(RumError::Corrupt(format!(
                "shard {index} cannot heal: the inner method has no self-repair"
            )));
        }
        drop(guard);
        slot.poisoned.store(false, Ordering::Release);
        if self.sink.enabled() {
            self.sink
                .emit(EventKind::RepairComplete, &[("shard", index as u64)]);
        }
        Ok(())
    }

    /// Which shard owns `key`. Fibonacci hashing, so dense sequential key
    /// universes spread evenly instead of aliasing onto `key % K`.
    #[inline]
    pub fn shard_of(&self, key: Key) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % self.shards.len()
        }
    }

    /// Run `f` against one shard and fold the physical traffic it accrued
    /// on its private tracker into the wrapper tracker. This is the per-op
    /// path: it locks the shard and runs inline, never touching the pool.
    fn mirrored<T>(
        &self,
        shard: usize,
        f: impl FnOnce(&mut dyn AccessMethod) -> Result<T>,
    ) -> Result<T> {
        let slot = &self.shards[shard];
        if slot.poisoned.load(Ordering::Acquire) {
            return Err(poisoned_error(shard));
        }
        let mut guard = slot.lock();
        let before = guard.tracker().snapshot();
        let out = f(guard.as_mut());
        let delta = guard.tracker().since(&before);
        self.tracker.absorb(&delta);
        out
    }

    /// Start the pool if this wrapper is configured for threaded batches.
    /// Returns whether batches should be dispatched to the pool.
    fn ensure_pool(&mut self) -> bool {
        if self.threads <= 1 || self.shards.len() <= 1 {
            return false;
        }
        if self.pool.is_none() {
            let workers = self.threads.min(self.shards.len());
            self.pool = Some(WorkerPool::start(&self.shards, workers));
        }
        true
    }

    /// A cleared per-shard op buffer, recycled when possible.
    fn part_buffer(&mut self) -> Vec<Op> {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Partition `ops` into per-shard sub-batches (ranges fan out to every
    /// shard) and hand them to the worker pool, returning without waiting
    /// for completion — the caller can assemble the next batch while the
    /// workers run this one, then [`finish_batch`](Self::finish_batch) to
    /// fold the costs in.
    ///
    /// Per-shard sub-batches preserve the batch's relative op order, and
    /// every key deterministically maps to one shard, so each shard's
    /// state and cost evolution is identical to the serial execution —
    /// cross-shard interleaving only changes wall-clock time. Results are
    /// discarded (this is the measurement path); per-op logical traffic is
    /// charged by the inner instrumented wrappers and folded into the
    /// wrapper tracker afterwards, giving totals bit-identical to driving
    /// the wrapper one op at a time.
    ///
    /// A batch may mix read-class and write-class ops freely: each shard
    /// job splits its own traffic by class where it is counted.
    ///
    /// Without a pool (`threads <= 1` or `K == 1`) the batch executes
    /// inline, in shard order, before returning; `finish_batch` then just
    /// reports its outcome. With `timed`, each worker records a per-op
    /// [`LatencyHistogram`] returned (merged in shard order) by
    /// `finish_batch`.
    pub fn submit_batch(&mut self, ops: &[Op], timed: bool) -> Result<PendingBatch> {
        self.dispatches += 1;
        self.dispatched_ops += ops.len() as u64;
        let k = self.shards.len();
        let mut parts: Vec<Vec<Op>> = Vec::with_capacity(k);
        for _ in 0..k {
            let buf = self.part_buffer();
            parts.push(buf);
        }
        for &op in ops {
            match op {
                Op::Range(..) => {
                    for part in parts.iter_mut() {
                        part.push(op);
                    }
                }
                Op::Get(key) | Op::Insert(key, _) | Op::Update(key, _) | Op::Delete(key) => {
                    let shard = self.shard_of(key);
                    parts[shard].push(op);
                }
            }
        }
        let pooled = self.ensure_pool();
        if self.sink.enabled() {
            let largest = parts.iter().map(Vec::len).max().unwrap_or(0);
            let workers = self.pool.as_ref().map_or(1, WorkerPool::workers);
            let reads = ops.iter().filter(|op| op.is_read()).count();
            self.sink.emit(
                EventKind::ShardDispatch,
                &[
                    ("ops", ops.len() as u64),
                    ("shards", k as u64),
                    ("workers", workers as u64),
                    ("largest_part", largest as u64),
                    ("reads", reads as u64),
                    ("writes", (ops.len() - reads) as u64),
                ],
            );
        }
        self.dispatch(parts.into_iter().map(JobPayload::Ops), pooled, timed)
    }

    /// Hand shard `i` the `i`-th payload: inline in shard order with costs
    /// folded immediately when not `pooled` (the exact job runner the
    /// workers use), else on the pool for [`collect`](Self::collect). An
    /// empty op part is skipped and its buffer kept for reuse; a load part
    /// is sent even when empty, since a bulk load replaces every shard's
    /// contents.
    fn dispatch(
        &mut self,
        payloads: impl Iterator<Item = JobPayload>,
        pooled: bool,
        timed: bool,
    ) -> Result<PendingBatch> {
        let mut outcome = BatchOutcome::new(timed);
        let (reply, rx) = pooled.then(channel).unzip();
        let mut expected = 0usize;
        for (index, payload) in payloads.enumerate() {
            let payload = match payload {
                JobPayload::Ops(part) if part.is_empty() => {
                    self.spare.push(part);
                    continue;
                }
                payload => payload,
            };
            match &reply {
                Some(reply) => {
                    let job = Job {
                        shard: index,
                        payload,
                        timed,
                        reply: reply.clone(),
                    };
                    self.send_job(index, job)?;
                    expected += 1;
                }
                None => {
                    let c = run_shard_job(&self.shards[index], index, payload, timed);
                    self.fold(&mut outcome, c);
                }
            }
        }
        Ok(PendingBatch {
            outcome,
            in_flight: rx.map(|rx| (rx, expected)),
        })
    }

    fn send_job(&self, shard: usize, job: Job) -> Result<()> {
        let pool = self.pool.as_ref().expect("send_job requires a pool");
        pool.lane_for(shard).send(job).map_err(|_| {
            RumError::Corrupt(format!(
                "worker lane {} is dead (worker thread exited); pool is unusable",
                shard % pool.workers()
            ))
        })
    }

    /// Wait for a submitted batch, fold every completed shard's tracker
    /// delta into the wrapper tracker **in shard order**, and return the
    /// merged latency histogram when the batch was timed.
    ///
    /// Errors surface in shard order too: the first failing shard's error
    /// is returned after *all* completions (and their cost deltas) have
    /// been folded in, so a failed batch never loses counted traffic from
    /// the shards that did finish.
    pub fn finish_batch(&mut self, batch: PendingBatch) -> Result<Option<LatencyHistogram>> {
        let BatchOutcome {
            result, latency, ..
        } = self.finish_batch_by_class(batch);
        result.map(|()| latency.map(|latency| latency.overall()))
    }

    /// [`finish_batch`](Self::finish_batch) for the batched runner: the
    /// same wait and the same shard-order fold, returning the traffic and
    /// the latencies split by op class instead of merged.
    pub(crate) fn finish_batch_by_class(&mut self, batch: PendingBatch) -> BatchOutcome {
        match batch.in_flight {
            None => batch.outcome,
            Some((rx, expected)) => self.collect(rx, expected, batch.outcome),
        }
    }

    /// Fold one completion into the wrapper tracker and the batch's
    /// per-class totals. Called in shard order, so the first error kept is
    /// the lowest failing shard's.
    fn fold(&mut self, outcome: &mut BatchOutcome, c: Completion) {
        self.tracker.absorb(&c.read_delta.add(&c.write_delta));
        outcome.read_delta = outcome.read_delta.add(&c.read_delta);
        outcome.write_delta = outcome.write_delta.add(&c.write_delta);
        if let Some(buf) = c.recycled {
            self.spare.push(buf);
        }
        if let (Some(merged), Some(latency)) = (outcome.latency.as_mut(), c.latency.as_ref()) {
            merged.merge(latency);
        }
        if outcome.result.is_ok() {
            outcome.result = c.outcome;
        }
    }

    /// Receive `expected` completions and fold them into `outcome` in
    /// shard order.
    fn collect(
        &mut self,
        rx: Receiver<Completion>,
        expected: usize,
        mut outcome: BatchOutcome,
    ) -> BatchOutcome {
        let k = self.shards.len();
        let mut completions: Vec<Option<Completion>> =
            std::iter::repeat_with(|| None).take(k).collect();
        let mut received = 0usize;
        while received < expected {
            match rx.recv() {
                Ok(c) => {
                    let slot = c.shard;
                    completions[slot] = Some(c);
                    received += 1;
                }
                // Every sender dropped with completions missing: a worker
                // died outside the per-job panic guard.
                Err(_) => break,
            }
        }
        if received < expected {
            outcome.result = Err(RumError::Corrupt(
                "a shard worker died before completing its job; its cost delta is lost".into(),
            ));
        }
        for c in completions.into_iter().flatten() {
            self.fold(&mut outcome, c);
        }
        outcome
    }
}

impl AccessMethod for ShardedMethod {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    fn tracker(&self) -> &Arc<CostTracker> {
        &self.tracker
    }

    /// Sum of the shard footprints: base bytes add up to the same live
    /// data, while the K auxiliary structures are exactly the MO sharding
    /// spends to buy concurrency.
    fn space_profile(&self) -> SpaceProfile {
        self.shards
            .iter()
            .fold(SpaceProfile::default(), |acc, shard| {
                let p = shard.lock().space_profile();
                SpaceProfile {
                    base_bytes: acc.base_bytes + p.base_bytes,
                    aux_bytes: acc.aux_bytes + p.aux_bytes,
                }
            })
    }

    fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
        let shard = self.shard_of(key);
        self.mirrored(shard, |m| m.get_impl(key))
    }

    /// Fan out to every shard and merge the (individually sorted,
    /// key-disjoint) partial results into ascending key order with the
    /// one merge kernel.
    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        let k = self.shards.len();
        let mut partials: Vec<Vec<Record>> = Vec::with_capacity(k);
        for shard in 0..k {
            partials.push(self.mirrored(shard, |m| m.range_impl(lo, hi))?);
        }
        Ok(merge_streams(&mut partials, |r| r.key, |_| true))
    }

    /// Every shard's reservations, asked before the input is partitioned,
    /// so a refused load leaves every shard as it was.
    fn check_records(&self, records: &[Record]) -> Result<()> {
        self.shards
            .iter()
            .try_for_each(|shard| shard.lock().check_records(records))
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        let shard = self.shard_of(key);
        self.mirrored(shard, |m| m.insert_impl(key, value))
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        let shard = self.shard_of(key);
        self.mirrored(shard, |m| m.update_impl(key, value))
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        let shard = self.shard_of(key);
        self.mirrored(shard, |m| m.delete_impl(key))
    }

    /// Partition the input per shard and load shards concurrently on the
    /// pool. The provided `bulk_load` checked the whole input's order before
    /// any shard was touched, so each partition is strictly ascending.
    /// Every shard loads its partition, including empty ones: bulk load
    /// replaces prior contents everywhere.
    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        let k = self.shards.len();
        let mut parts: Vec<Vec<Record>> = vec![Vec::new(); k];
        for &r in records {
            let shard = self.shard_of(r.key);
            parts[shard].push(r);
        }
        let pooled = self.ensure_pool();
        let batch = self.dispatch(parts.into_iter().map(JobPayload::Load), pooled, false)?;
        self.finish_batch_by_class(batch).result
    }

    fn flush(&mut self) -> Result<()> {
        for shard in 0..self.shards.len() {
            self.mirrored(shard, |m| m.flush())?;
        }
        Ok(())
    }

    /// Keep the sink for dispatch events and forward it to every shard, so
    /// inner structures (LSM trees, WALs...) report into the same channel.
    fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        for shard in self.shards.iter() {
            shard.lock().set_trace_sink(Arc::clone(&sink));
        }
        self.sink = sink;
    }

    /// Heal every poisoned shard (see [`heal`](Self::heal)); the facade
    /// reports `Ok(true)` once all shards are serving again.
    fn try_heal(&mut self) -> Result<bool> {
        self.heal()?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::tests::Amp2;
    use crate::tracker::DataClass;

    impl Amp2 {
        fn boxed(_shard: usize) -> Box<dyn AccessMethod> {
            Box::new(Amp2::new())
        }
    }

    fn sample_records(n: u64) -> Vec<Record> {
        (0..n).map(|k| Record::new(3 * k, k)).collect()
    }

    fn drive_per_op(m: &mut ShardedMethod, ops: &[Op]) {
        for &op in ops {
            op.apply(m).unwrap();
        }
    }

    fn mixed_ops(count: u64) -> Vec<Op> {
        (0..count)
            .map(|i| match i % 5 {
                0 => Op::Get(3 * (i % 500)),
                1 => Op::Insert(3 * i + 2, i),
                2 => Op::Update(3 * (i % 500), i),
                3 => Op::Delete(3 * ((i / 5) % 500)),
                _ => Op::Range(3 * (i % 300), 3 * (i % 300) + 90),
            })
            .collect()
    }

    #[test]
    fn routing_covers_every_shard() {
        let sharded = ShardedMethod::new(8, Amp2::boxed);
        let mut hit = [false; 8];
        for k in 0..10_000u64 {
            hit[sharded.shard_of(k)] = true;
        }
        assert!(hit.iter().all(|&h| h), "dense keys must reach all shards");
    }

    #[test]
    fn behaves_like_one_method() {
        let mut sharded = ShardedMethod::new(4, Amp2::boxed);
        sharded.bulk_load(&sample_records(100)).unwrap();
        assert_eq!(sharded.len(), 100);
        assert_eq!(sharded.get(30).unwrap(), Some(10));
        assert_eq!(sharded.get(31).unwrap(), None);
        assert!(sharded.update(30, 99).unwrap());
        assert_eq!(sharded.get(30).unwrap(), Some(99));
        assert!(sharded.delete(30).unwrap());
        assert!(!sharded.delete(30).unwrap());
        assert_eq!(sharded.len(), 99);
        // Range results merge across shards in ascending order.
        let rs = sharded.range(0, 60).unwrap();
        let keys: Vec<Key> = rs.iter().map(|r| r.key).collect();
        assert_eq!(
            keys,
            vec![0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 33, 36, 39, 42, 45, 48, 51, 54, 57, 60]
        );
    }

    #[test]
    fn one_shard_is_cost_transparent() {
        // K=1 routes everything to the single inner instance: reports and
        // contents must match the bare method exactly.
        let records = sample_records(200);
        let ops: Vec<Op> = (0..600u64)
            .map(|i| match i % 4 {
                0 => Op::Get(3 * (i % 200)),
                1 => Op::Insert(3 * i + 1, i),
                2 => Op::Update(3 * (i % 200), i),
                _ => Op::Range(3 * (i % 100), 3 * (i % 100) + 30),
            })
            .collect();

        let mut bare = Amp2::boxed(0);
        let mut sharded = ShardedMethod::new(1, Amp2::boxed);
        bare.bulk_load(&records).unwrap();
        sharded.bulk_load(&records).unwrap();
        for &op in &ops {
            op.apply(bare.as_mut()).unwrap();
        }
        drive_per_op(&mut sharded, &ops);
        assert_eq!(bare.len(), sharded.len());
        assert_eq!(bare.tracker().snapshot(), sharded.tracker().snapshot());
        let bp = bare.space_profile();
        let sp = sharded.space_profile();
        assert_eq!((bp.base_bytes, bp.aux_bytes), (sp.base_bytes, sp.aux_bytes));
    }

    #[test]
    fn batched_concurrent_costs_match_per_op_serial() {
        // The same op sequence, driven (a) one op at a time through the
        // wrapper and (b) as pooled per-shard batches, must leave both
        // wrappers with bit-identical tracker totals and contents — with
        // full-width pools and with fewer workers than shards.
        let records = sample_records(500);
        let ops = mixed_ops(4000);

        let mut per_op = ShardedMethod::with_threads(4, 1, Amp2::boxed);
        per_op.bulk_load(&records).unwrap();
        drive_per_op(&mut per_op, &ops);
        // Taken once, before any content-equality range below charges the
        // reference instance's tracker.
        let reference_costs = per_op.tracker().snapshot();

        for threads in [2, 4] {
            let mut batched = ShardedMethod::with_threads(4, threads, Amp2::boxed);
            batched.bulk_load(&records).unwrap();
            for chunk in ops.chunks(257) {
                batched
                    .submit_batch(chunk, false)
                    .and_then(|b| batched.finish_batch(b))
                    .unwrap();
            }
            assert!(batched.pool_running(), "threads={threads}");
            assert_eq!(per_op.len(), batched.len());
            assert_eq!(
                reference_costs,
                batched.tracker().snapshot(),
                "threads={threads}: pooled batches must not change a single counted byte"
            );
            assert_eq!(
                per_op.range(0, Key::MAX).unwrap(),
                batched.range(0, Key::MAX).unwrap(),
                "threads={threads}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "shares its tracker")]
    fn shards_sharing_one_tracker_are_refused() {
        // A job's delta of a shared tracker would hold its neighbours'
        // concurrent traffic, so the facade would count it twice.
        let shared = CostTracker::new();
        let _ = ShardedMethod::with_threads(4, 2, |_| {
            Box::new(Amp2::with_tracker(Arc::clone(&shared))) as Box<dyn AccessMethod>
        });
    }

    #[test]
    fn pool_starts_lazily_and_persists_across_batches() {
        let mut sharded = ShardedMethod::with_threads(4, 2, Amp2::boxed);
        assert!(!sharded.pool_running(), "pool starts lazily");
        sharded.bulk_load(&sample_records(100)).unwrap();
        assert!(sharded.pool_running(), "bulk load starts the pool");
        for chunk in mixed_ops(1000).chunks(100) {
            sharded
                .submit_batch(chunk, false)
                .and_then(|b| sharded.finish_batch(b))
                .unwrap();
        }
        assert!(sharded.pool_running(), "pool survives across batches");
    }

    #[test]
    fn timed_batches_return_merged_histograms() {
        for threads in [1, 3] {
            let mut sharded = ShardedMethod::with_threads(4, threads, Amp2::boxed);
            sharded.bulk_load(&sample_records(200)).unwrap();
            let ops: Vec<Op> = (0..300u64).map(|i| Op::Insert(5 * i + 1, i)).collect();
            let pending = sharded.submit_batch(&ops, true).unwrap();
            let hist = sharded
                .finish_batch(pending)
                .unwrap()
                .expect("timed batch returns a histogram");
            // Point ops are timed exactly once each.
            assert_eq!(hist.count(), 300, "threads={threads}");
            // Untimed batches return no histogram.
            let pending = sharded.submit_batch(&ops, false).unwrap();
            assert!(sharded.finish_batch(pending).unwrap().is_none());
        }
    }

    #[test]
    fn fan_in_merge_matches_linear_scan_reference() {
        // A selection loop over the heads, kept as the reference.
        fn linear_merge(partials: &[Vec<Record>]) -> Vec<Record> {
            let total: usize = partials.iter().map(Vec::len).sum();
            let mut merged = Vec::with_capacity(total);
            let mut cursors = vec![0usize; partials.len()];
            for _ in 0..total {
                let mut best: Option<usize> = None;
                for (shard, &cursor) in cursors.iter().enumerate() {
                    if cursor < partials[shard].len()
                        && best.is_none_or(|b| {
                            partials[shard][cursor].key < partials[b][cursors[b]].key
                        })
                    {
                        best = Some(shard);
                    }
                }
                let shard = best.expect("total counts a remaining record");
                merged.push(partials[shard][cursors[shard]]);
                cursors[shard] += 1;
            }
            merged
        }

        // Deterministic pseudo-random disjoint partials of varying shapes,
        // including empty ones.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for k in [1usize, 2, 3, 5, 8, 9, 16] {
            let mut partials: Vec<Vec<Record>> = vec![Vec::new(); k];
            for i in 0..500u64 {
                let key = next() % 10_000;
                partials[(key as usize) % k].push(Record::new(key, i));
            }
            for p in partials.iter_mut() {
                p.sort();
                p.dedup_by_key(|r| r.key);
            }
            partials[0].clear(); // one empty partial
            let expected = linear_merge(&partials);
            let merged = merge_streams(&mut partials, |r| r.key, |_| true);
            assert_eq!(merged, expected, "k={k}");
        }
        assert_eq!(merge_streams(&mut [], |r: &Record| r.key, |_| true), []);
    }

    #[test]
    fn new_caps_threads_at_default_and_shards() {
        let sharded = ShardedMethod::new(8, Amp2::boxed);
        assert!(sharded.threads() <= 8);
        assert!(sharded.threads() >= 1);
        // with_threads clamps to [1, k].
        assert_eq!(
            ShardedMethod::with_threads(4, 100, Amp2::boxed).threads(),
            4
        );
        assert_eq!(ShardedMethod::with_threads(4, 0, Amp2::boxed).threads(), 1);
    }

    #[test]
    fn bulk_load_replaces_contents_on_every_shard() {
        let mut sharded = ShardedMethod::new(4, Amp2::boxed);
        for k in 0..100u64 {
            sharded.insert(k * 7 + 1, 1).unwrap();
        }
        sharded.bulk_load(&sample_records(10)).unwrap();
        assert_eq!(sharded.len(), 10);
        assert_eq!(sharded.get(8).unwrap(), None);
    }

    #[test]
    fn name_and_profile_reflect_k() {
        let sharded = ShardedMethod::new(4, Amp2::boxed);
        assert_eq!(sharded.name(), "amp2-x4");
        assert_eq!(sharded.shards(), 4);
    }

    /// An Amp2 that panics (or, with `errors`, fails) when asked to get or
    /// insert one specific key — deterministic shard poisoning for the
    /// healing tests, and a failing op of either class for the class-split
    /// tests.
    struct Trip {
        inner: Amp2,
        trigger: Key,
        /// What `try_heal` does.
        heal: Heal,
        /// Return `Err` at the tripwire instead of panicking.
        errors: bool,
    }

    /// What a tripped get / insert charges before it dies: the partial
    /// traffic that must still land in the dying op's own class.
    const TRIP_READ_BYTES: u64 = 7;
    const TRIP_WRITE_BYTES: u64 = 11;

    /// What a [`Trip`]'s `try_heal` does.
    #[derive(Clone, Copy)]
    enum Heal {
        /// Reports no self-repair.
        Refuses,
        /// Claims self-repair (data preserved).
        Repairs,
        /// Charges [`TRIP_HEAL_BYTES`], then fails.
        Fails,
    }

    /// What a failing heal charges before it errs.
    const TRIP_HEAL_BYTES: u64 = 13;

    impl Trip {
        fn factory(trigger: Key, heal: Heal) -> impl Fn(usize) -> Box<dyn AccessMethod> {
            move |_| Trip::boxed(trigger, heal, false)
        }

        fn boxed(trigger: Key, heal: Heal, errors: bool) -> Box<dyn AccessMethod> {
            Box::new(Trip {
                inner: Amp2::new(),
                trigger,
                heal,
                errors,
            })
        }

        fn trip(&self, key: Key, is_read: bool) -> Result<()> {
            if key != self.trigger {
                return Ok(());
            }
            if is_read {
                self.tracker().read(DataClass::Aux, TRIP_READ_BYTES);
            } else {
                self.tracker().write(DataClass::Aux, TRIP_WRITE_BYTES);
            }
            if self.errors {
                return Err(RumError::Corrupt("tripwire key touched".into()));
            }
            panic!("tripwire key touched");
        }
    }

    impl AccessMethod for Trip {
        fn name(&self) -> String {
            "trip".into()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn tracker(&self) -> &Arc<CostTracker> {
            self.inner.tracker()
        }
        fn space_profile(&self) -> SpaceProfile {
            self.inner.space_profile()
        }
        fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
            self.trip(key, true)?;
            self.inner.get_impl(key)
        }
        fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
            self.inner.range_impl(lo, hi)
        }
        fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
            self.trip(key, false)?;
            self.inner.insert_impl(key, value)
        }
        fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
            self.inner.update_impl(key, value)
        }
        fn delete_impl(&mut self, key: Key) -> Result<bool> {
            self.inner.delete_impl(key)
        }
        fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
            self.inner.bulk_load_impl(records)
        }
        fn try_heal(&mut self) -> Result<bool> {
            match self.heal {
                Heal::Refuses => Ok(false),
                Heal::Repairs => Ok(true),
                Heal::Fails => {
                    self.tracker().read(DataClass::Aux, TRIP_HEAL_BYTES);
                    Err(RumError::Corrupt("repair failed".into()))
                }
            }
        }
    }

    /// Keys deterministically routed to `want`, excluding the tripwire.
    fn keys_on_shard(m: &ShardedMethod, want: usize, trigger: Key, n: usize) -> Vec<Key> {
        (0..100_000u64)
            .filter(|&key| key != trigger && m.shard_of(key) == want)
            .take(n)
            .collect()
    }

    #[test]
    fn heal_leaves_a_shard_that_cannot_repair_itself_refused() {
        let trigger: Key = 0xBAD_F00D;
        // threads = 1: batches run inline through the same job runner the
        // pool uses, so poisoning is deterministic and thread-free.
        let mut sharded = ShardedMethod::with_threads(2, 1, Trip::factory(trigger, Heal::Refuses));
        let sink = crate::trace::MemorySink::shared();
        sharded.set_trace_sink(Arc::clone(&sink) as _);
        let bad = sharded.shard_of(trigger);
        let doomed = keys_on_shard(&sharded, bad, trigger, 4);
        let healthy = keys_on_shard(&sharded, 1 - bad, trigger, 4);
        for &k in doomed.iter().chain(&healthy) {
            sharded.insert(k, k).unwrap();
        }

        assert!(sharded
            .submit_batch(&[Op::Insert(trigger, 1)], false)
            .and_then(|b| sharded.finish_batch(b))
            .is_err());
        assert_eq!(sharded.poisoned_shards(), vec![bad]);
        assert!(sharded.get(doomed[0]).is_err(), "poisoned shard refuses");

        // No self-repair: healing refuses, through the trait too, and the
        // shard keeps refusing rather than serve emptied state.
        for _ in 0..2 {
            match sharded.heal() {
                Err(RumError::Corrupt(m)) => assert!(m.contains("no self-repair"), "{m}"),
                other => panic!("heal without self-repair must fail, got {other:?}"),
            }
            assert!(sharded.try_heal().is_err());
            assert_eq!(sharded.poisoned_shards(), vec![bad], "still poisoned");
            assert!(sharded.get(doomed[0]).is_err(), "still refused");
        }
        // The healthy shard kept serving all along.
        assert_eq!(sharded.get(healthy[0]).unwrap(), Some(healthy[0]));
        assert!(!sink
            .events()
            .iter()
            .any(|e| e.kind == EventKind::RepairComplete));
    }

    #[test]
    fn heal_prefers_the_inner_methods_own_repair() {
        let trigger: Key = 0xBAD_F00D;
        let mut sharded = ShardedMethod::with_threads(2, 1, Trip::factory(trigger, Heal::Repairs));
        let sink = crate::trace::MemorySink::shared();
        sharded.set_trace_sink(Arc::clone(&sink) as _);
        let bad = sharded.shard_of(trigger);
        let doomed = keys_on_shard(&sharded, bad, trigger, 4);
        for &k in &doomed {
            sharded.insert(k, k).unwrap();
        }
        assert!(sharded
            .submit_batch(&[Op::Insert(trigger, 1)], false)
            .and_then(|b| sharded.finish_batch(b))
            .is_err());
        assert_eq!(sharded.poisoned_shards(), vec![bad]);
        // try_heal reports success (the durable case: state replayed to
        // the acked prefix), so the data survives.
        assert_eq!(sharded.heal().unwrap(), 1);
        assert_eq!(sharded.get(doomed[0]).unwrap(), Some(doomed[0]));
        let repairs: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::RepairComplete)
            .collect();
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0].field("shard"), Some(bad as u64));
        // Healing an already-healthy wrapper is a no-op.
        assert_eq!(sharded.heal().unwrap(), 0);
        // The facade-level try_heal is the same operation behind the trait.
        assert!(sharded
            .submit_batch(&[Op::Insert(trigger, 1)], false)
            .and_then(|b| sharded.finish_batch(b))
            .is_err());
        assert!(sharded.try_heal().unwrap());
        assert!(sharded.poisoned_shards().is_empty());
    }

    #[test]
    fn a_failed_heal_still_folds_its_traffic() {
        let trigger: Key = 0xBAD_F00D;
        let mut sharded = ShardedMethod::with_threads(2, 1, Trip::factory(trigger, Heal::Fails));
        let bad = sharded.shard_of(trigger);
        assert!(sharded
            .submit_batch(&[Op::Insert(trigger, 1)], false)
            .and_then(|b| sharded.finish_batch(b))
            .is_err());
        assert_eq!(sharded.poisoned_shards(), vec![bad]);
        let facade = sharded.tracker().snapshot();
        let shard = sharded.shards[bad].lock().tracker().snapshot();
        assert!(sharded.heal().is_err());
        let facade_delta = sharded.tracker().since(&facade);
        let shard_delta = sharded.shards[bad].lock().tracker().since(&shard);
        assert_eq!(shard_delta.aux_read_bytes, TRIP_HEAL_BYTES);
        assert_eq!(
            facade_delta, shard_delta,
            "the facade must see the heal's traffic"
        );
        assert_eq!(sharded.poisoned_shards(), vec![bad], "still refused");
    }

    /// Per-class traffic of `ops` applied one at a time to `m`, the
    /// tracker read around every op: the attribution the batched split
    /// must reproduce. Stops after the first op that fails, whose partial
    /// traffic is booked to its own class.
    fn per_op_split(m: &mut dyn AccessMethod, ops: &[Op]) -> (CostSnapshot, CostSnapshot) {
        let tracker = Arc::clone(m.tracker());
        let (mut read, mut write) = (CostSnapshot::default(), CostSnapshot::default());
        for &op in ops {
            let before = tracker.snapshot();
            let failed = op.apply(m).is_err();
            let d = tracker.since(&before);
            if op.is_read() {
                read = read.add(&d);
            } else {
                write = write.add(&d);
            }
            if failed {
                break;
            }
        }
        (read, write)
    }

    #[test]
    fn class_split_conserves_on_every_exit_path() {
        let trigger: Key = 0xBAD_F00D;
        let records = sample_records(200);
        let healthy = mixed_ops(40);
        // The per-op reference fails with `Err` in both modes: the tripped
        // op charges the same partial traffic before it panics or errors.
        for errors in [false, true] {
            for tripped in [Op::Get(trigger), Op::Insert(trigger, 1)] {
                for at in [0, healthy.len() / 2, healthy.len()] {
                    let ctx = format!("errors={errors} tripped={tripped:?} at={at}");
                    let mut ops = healthy.clone();
                    ops.insert(at, tripped);

                    let mut reference = Trip::boxed(trigger, Heal::Refuses, true);
                    reference.bulk_load_impl(&records).unwrap();
                    let (read, write) = per_op_split(reference.as_mut(), &ops);
                    let tripped_part = if tripped.is_read() { read } else { write };
                    assert!(
                        tripped_part.aux_read_bytes + tripped_part.aux_write_bytes > 0,
                        "{ctx}: the failing op must leave partial traffic behind"
                    );

                    let shard = Shard::new(Trip::boxed(trigger, Heal::Refuses, errors));
                    let load = run_shard_job(&shard, 0, JobPayload::Load(records.clone()), false);
                    assert_eq!(load.read_delta, CostSnapshot::default(), "{ctx}");
                    let c = run_shard_job(&shard, 0, JobPayload::Ops(ops.clone()), true);
                    assert!(c.outcome.is_err(), "{ctx}");
                    assert_eq!(c.read_delta, read, "{ctx}: read class");
                    assert_eq!(c.write_delta, write, "{ctx}: write class");
                    // Only ops that completed are timed.
                    let latency = c.latency.expect("timed job");
                    assert_eq!(
                        latency.read.count() + latency.write.count(),
                        at as u64,
                        "{ctx}"
                    );

                    // A panic poisons the shard: later jobs are refused
                    // with an all-zero pair; an `Err` leaves it serving.
                    let after = run_shard_job(&shard, 0, JobPayload::Ops(healthy.clone()), false);
                    if errors {
                        assert!(after.outcome.is_ok(), "{ctx}");
                    } else {
                        assert!(after.outcome.is_err(), "{ctx}");
                        assert_eq!(after.read_delta, CostSnapshot::default(), "{ctx}");
                        assert_eq!(after.write_delta, CostSnapshot::default(), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn failed_batch_keeps_every_finished_shards_traffic_per_class() {
        let trigger: Key = 0xBAD_F00D;
        let records = sample_records(300);
        // Point ops only: a range would fan out to the failed shard too.
        let healthy: Vec<Op> = mixed_ops(400)
            .into_iter()
            .filter(|op| !matches!(op, Op::Range(..)))
            .collect();
        for errors in [false, true] {
            for tripped in [Op::Get(trigger), Op::Insert(trigger, 1)] {
                for threads in [1, 2] {
                    let ctx = format!("errors={errors} tripped={tripped:?} threads={threads}");
                    let mut ops = healthy.clone();
                    ops.insert(healthy.len() / 2, tripped);

                    // Reference: per-op through the facade, skipping what
                    // the failed shard never reached.
                    let mut reference = ShardedMethod::with_threads(2, 1, |_| {
                        Trip::boxed(trigger, Heal::Refuses, true)
                    });
                    reference.bulk_load(&records).unwrap();
                    let bad = reference.shard_of(trigger);
                    let reached: Vec<Op> = ops
                        .iter()
                        .enumerate()
                        .filter(|&(i, op)| {
                            let key = match *op {
                                Op::Get(k)
                                | Op::Insert(k, _)
                                | Op::Update(k, _)
                                | Op::Delete(k) => k,
                                Op::Range(..) => unreachable!("filtered above"),
                            };
                            reference.shard_of(key) != bad || i <= healthy.len() / 2
                        })
                        .map(|(_, &op)| op)
                        .collect();
                    let mut read = CostSnapshot::default();
                    let mut write = CostSnapshot::default();
                    for op in reached {
                        let (r, w) = per_op_split(&mut reference, &[op]);
                        read = read.add(&r);
                        write = write.add(&w);
                    }

                    let mut batched = ShardedMethod::with_threads(2, threads, |_| {
                        Trip::boxed(trigger, Heal::Refuses, errors)
                    });
                    batched.bulk_load(&records).unwrap();
                    let before = batched.tracker().snapshot();
                    let pending = batched.submit_batch(&ops, false).unwrap();
                    let done = batched.finish_batch_by_class(pending);
                    assert!(done.result.is_err(), "{ctx}");
                    assert_eq!(done.read_delta, read, "{ctx}: read class");
                    assert_eq!(done.write_delta, write, "{ctx}: write class");
                    assert_eq!(
                        batched.tracker().since(&before),
                        read.add(&write),
                        "{ctx}: the tracker absorbed exactly the two classes"
                    );
                }
            }
        }
    }

    #[test]
    fn dispatches_are_counted_and_traced_with_their_mix() {
        let mut sharded = ShardedMethod::with_threads(4, 2, Amp2::boxed);
        let sink = crate::trace::MemorySink::shared();
        sharded.set_trace_sink(Arc::clone(&sink) as _);
        sharded.bulk_load(&sample_records(100)).unwrap();
        assert_eq!((sharded.dispatches(), sharded.dispatched_ops()), (0, 0));

        let ops = mixed_ops(100); // two of every five are get / range
        for chunk in ops.chunks(30) {
            sharded
                .submit_batch(chunk, false)
                .and_then(|b| sharded.finish_batch(b))
                .unwrap();
        }
        assert_eq!((sharded.dispatches(), sharded.dispatched_ops()), (4, 100));

        let events: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::ShardDispatch)
            .collect();
        assert_eq!(events.len(), 4);
        let names: Vec<&str> = events[0].detail.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            [
                "ops",
                "shards",
                "workers",
                "largest_part",
                "reads",
                "writes"
            ],
            "field order is part of the JSONL format"
        );
        for (event, chunk) in events.iter().zip(ops.chunks(30)) {
            let reads = chunk.iter().filter(|op| op.is_read()).count() as u64;
            assert_eq!(event.field("ops"), Some(chunk.len() as u64));
            assert_eq!(event.field("shards"), Some(4));
            assert_eq!(event.field("workers"), Some(2));
            assert_eq!(event.field("reads"), Some(reads));
            assert_eq!(event.field("writes"), Some(chunk.len() as u64 - reads));
            assert!(event.field("largest_part") >= Some(chunk.len() as u64 / 4));
        }
    }
}
