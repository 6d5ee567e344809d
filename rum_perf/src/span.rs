//! Spans recorded from outside the program: [`SpanDevice`] and
//! [`SpanMethod`] interpose on the public `BlockDevice` / `AccessMethod`
//! traits at every layer boundary a stack exposes and report each call to
//! a [`Tracer`] as `(name, parent, start, end)`.
//!
//! One tracer serves one stack, which one thread drives at a time (each
//! shard of `sharded-balanced` gets its own), so its mutex is never
//! contended; it exists because `AccessMethod` and `BlockDevice` are
//! `Send` and `Durable`'s factory must be able to rebuild the stack.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rum::core::trace::TraceSink;
use rum::core::{AccessMethod, CostTracker, Key, Record, Result, SpaceProfile, Value};
use rum::storage::{BlockDevice, IoStats, PageBuf, PageId};

/// Raw spans are kept for one root span (= one operation) in this many.
pub const RAW_SAMPLE_EVERY: u64 = 1024;

/// Most span names one tracer can hold (the deepest stack, `stack-balanced`, uses 26).
const MAX_NAMES: usize = 32;

/// Per (parent, name) totals. `parent` is `None` for a root span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Aggregate {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by child spans.
    pub self_ns: u64,
}

/// One kept span. `id`/`parent` are unique within `tracer`; `op` numbers
/// the root span (operation) it belongs to.
#[derive(Clone, Debug)]
pub struct RawSpan {
    pub tracer: u32,
    pub op: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Frame {
    name: usize,
    start_ns: u64,
    child_ns: u64,
    raw_id: u32,
}

#[derive(Clone, Copy, Default)]
struct Cell {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

pub struct Tracer {
    id: u32,
    epoch: Instant,
    names: Vec<&'static str>,
    stack: Vec<Frame>,
    /// `cells[(parent + 1) * MAX_NAMES + name]`, parent −1 = root.
    cells: Vec<Cell>,
    roots: u64,
    keep_raw: bool,
    next_raw_id: u32,
    raw: Vec<RawSpan>,
}

impl Tracer {
    fn new(id: u32, epoch: Instant) -> Self {
        Tracer {
            id,
            epoch,
            names: Vec::new(),
            stack: Vec::with_capacity(8),
            cells: vec![Cell::default(); (MAX_NAMES + 1) * MAX_NAMES],
            roots: 0,
            keep_raw: false,
            next_raw_id: 0,
            raw: Vec::new(),
        }
    }

    fn intern(&mut self, name: &'static str) -> usize {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i;
        }
        assert!(self.names.len() < MAX_NAMES, "too many span names");
        self.names.push(name);
        self.names.len() - 1
    }

    fn enter_at(&mut self, name: usize, now_ns: u64) {
        if self.stack.is_empty() {
            self.keep_raw = self.roots.is_multiple_of(RAW_SAMPLE_EVERY);
            self.roots += 1;
        }
        let raw_id = self.next_raw_id;
        if self.keep_raw {
            self.next_raw_id += 1;
        }
        self.stack.push(Frame {
            name,
            start_ns: now_ns,
            child_ns: 0,
            raw_id,
        });
    }

    fn exit_at(&mut self, now_ns: u64) {
        let frame = self.stack.pop().expect("exit without enter");
        let total = now_ns.saturating_sub(frame.start_ns);
        // Children of one frame run one after another on one thread, so
        // the time they cover is the sum of their durations.
        let own = total.saturating_sub(frame.child_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += total;
            (p.name, p.raw_id)
        });
        let slot = parent.map_or(0, |(name, _)| name + 1) * MAX_NAMES + frame.name;
        let cell = &mut self.cells[slot];
        cell.count += 1;
        cell.total_ns += total;
        cell.self_ns += own;
        if self.keep_raw {
            self.raw.push(RawSpan {
                tracer: self.id,
                op: self.roots - 1,
                id: frame.raw_id,
                parent: parent.map(|(_, raw_id)| raw_id),
                name: self.names[frame.name],
                start_ns: frame.start_ns,
                end_ns: now_ns,
            });
        }
    }

    fn aggregates(&self) -> Vec<Aggregate> {
        let mut out = Vec::new();
        for (slot, cell) in self.cells.iter().enumerate() {
            if cell.count > 0 {
                let parent = slot / MAX_NAMES;
                out.push(Aggregate {
                    name: self.names[slot % MAX_NAMES],
                    parent: parent.checked_sub(1).map(|p| self.names[p]),
                    count: cell.count,
                    total_ns: cell.total_ns,
                    self_ns: cell.self_ns,
                });
            }
        }
        out
    }
}

/// Shared handle to one stack's [`Tracer`].
#[derive(Clone)]
pub struct Spans(Arc<Mutex<Tracer>>);

impl Spans {
    /// `epoch` is shared by every tracer of a run so raw spans from
    /// different shards line up on one time axis.
    pub fn new(id: u32, epoch: Instant) -> Self {
        Spans(Arc::new(Mutex::new(Tracer::new(id, epoch))))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Tracer> {
        self.0
            .lock()
            .expect("a tracer is only locked around counter updates, which cannot panic")
    }

    pub fn intern(&self, name: &'static str) -> usize {
        self.lock().intern(name)
    }

    /// Run `f` inside a span called `name`.
    #[inline]
    pub fn scope<T>(&self, name: usize, f: impl FnOnce() -> T) -> T {
        {
            let mut t = self.lock();
            let now = t.epoch.elapsed().as_nanos() as u64;
            t.enter_at(name, now);
        }
        let out = f();
        let mut t = self.lock();
        let now = t.epoch.elapsed().as_nanos() as u64;
        t.exit_at(now);
        out
    }

    pub fn aggregates(&self) -> Vec<Aggregate> {
        self.lock().aggregates()
    }

    pub fn take_raw(&self) -> Vec<RawSpan> {
        std::mem::take(&mut self.lock().raw)
    }

    /// Forget everything recorded so far.
    fn reset(&self) {
        let mut t = self.lock();
        t.cells.fill(Cell::default());
        t.raw.clear();
        t.roots = 0;
    }
}

/// Sum aggregates from several tracers (the shards of one run) by
/// (parent, name), in first-seen order.
pub fn merge(sets: impl IntoIterator<Item = Vec<Aggregate>>) -> Vec<Aggregate> {
    let mut out: Vec<Aggregate> = Vec::new();
    for a in sets.into_iter().flatten() {
        match out
            .iter_mut()
            .find(|o| o.name == a.name && o.parent == a.parent)
        {
            Some(o) => {
                o.count += a.count;
                o.total_ns += a.total_ns;
                o.self_ns += a.self_ns;
            }
            None => out.push(a),
        }
    }
    out
}

/// Totals over every aggregate whose span name is `name`, whatever its
/// parent: `(count, total_ns, self_ns)`.
pub fn by_name(aggs: &[Aggregate], name: &str) -> (u64, u64, u64) {
    aggs.iter()
        .filter(|a| a.name == name)
        .fold((0, 0, 0), |(c, t, s), a| {
            (c + a.count, t + a.total_ns, s + a.self_ns)
        })
}

/// Self time summed over every span of `layer` (names `layer.*`).
pub fn layer_self_ns(aggs: &[Aggregate], layer: &str) -> u64 {
    aggs.iter()
        .filter(|a| {
            a.name
                .strip_prefix(layer)
                .is_some_and(|r| r.starts_with('.'))
        })
        .map(|a| a.self_ns)
        .sum()
}

macro_rules! device_names {
    ($layer:literal) => {
        [
            concat!($layer, ".read_page"),
            concat!($layer, ".write_page"),
            concat!($layer, ".allocate"),
            concat!($layer, ".free"),
            concat!($layer, ".sync"),
        ]
    };
}

macro_rules! method_names {
    ($layer:literal) => {
        [
            concat!($layer, ".get"),
            concat!($layer, ".range"),
            concat!($layer, ".insert"),
            concat!($layer, ".update"),
            concat!($layer, ".delete"),
            concat!($layer, ".bulk_load"),
            concat!($layer, ".flush"),
            concat!($layer, ".recover"),
        ]
    };
}

pub const DEVICE: [&str; 5] = device_names!("device");
pub const CHECKED: [&str; 5] = device_names!("checked");
pub const BTREE: [&str; 8] = method_names!("btree");
pub const LSM: [&str; 8] = method_names!("lsm");
pub const DURABLE: [&str; 8] = method_names!("durable");
pub const METHOD: [&str; 8] = method_names!("method");

/// A `BlockDevice` that records a span around every call into `inner`.
pub struct SpanDevice<D: BlockDevice> {
    inner: D,
    spans: Spans,
    ids: [usize; 5],
}

impl<D: BlockDevice> SpanDevice<D> {
    pub fn new(inner: D, spans: &Spans, names: [&'static str; 5]) -> Self {
        SpanDevice {
            inner,
            spans: spans.clone(),
            ids: names.map(|n| spans.intern(n)),
        }
    }
}

impl<D: BlockDevice> BlockDevice for SpanDevice<D> {
    fn allocate(&mut self) -> Result<PageId> {
        self.spans.scope(self.ids[2], || self.inner.allocate())
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        self.spans.scope(self.ids[3], || self.inner.free(id))
    }

    fn read_page(&mut self, id: PageId) -> Result<PageBuf> {
        self.spans.scope(self.ids[0], || self.inner.read_page(id))
    }

    fn write_page(&mut self, id: PageId, page: &PageBuf) -> Result<()> {
        self.spans
            .scope(self.ids[1], || self.inner.write_page(id, page))
    }

    fn live_pages(&self) -> usize {
        self.inner.live_pages()
    }

    fn stats(&self) -> &Arc<IoStats> {
        self.inner.stats()
    }

    fn sync(&mut self) -> Result<()> {
        self.spans.scope(self.ids[4], || self.inner.sync())
    }
}

/// An `AccessMethod` that records a span around every call into `inner`.
/// It shares `inner`'s tracker, so the provided `get`/`insert`/… wrappers
/// charge exactly what they charge on the bare method. `inner` is boxed so
/// one type wraps the concrete stacks and the suite's trait objects alike.
pub struct SpanMethod {
    inner: Box<dyn AccessMethod>,
    spans: Spans,
    ids: [usize; 8],
}

impl SpanMethod {
    pub fn new(inner: Box<dyn AccessMethod>, spans: &Spans, names: [&'static str; 8]) -> Self {
        SpanMethod {
            inner,
            spans: spans.clone(),
            ids: names.map(|n| spans.intern(n)),
        }
    }
}

impl AccessMethod for SpanMethod {
    fn name(&self) -> String {
        self.inner.name()
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
        self.spans.scope(self.ids[0], || self.inner.get_impl(key))
    }

    fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
        self.spans
            .scope(self.ids[1], || self.inner.range_impl(lo, hi))
    }

    fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
        self.spans
            .scope(self.ids[2], || self.inner.insert_impl(key, value))
    }

    fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
        self.spans
            .scope(self.ids[3], || self.inner.update_impl(key, value))
    }

    fn delete_impl(&mut self, key: Key) -> Result<bool> {
        self.spans
            .scope(self.ids[4], || self.inner.delete_impl(key))
    }

    /// The spans describe the operation phase, so a finished bulk load
    /// takes its own spans (and whatever came before) with it.
    fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
        let loaded = self
            .spans
            .scope(self.ids[5], || self.inner.bulk_load_impl(records));
        self.spans.reset();
        loaded
    }

    fn flush(&mut self) -> Result<()> {
        self.spans.scope(self.ids[6], || self.inner.flush())
    }

    fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.inner.set_trace_sink(sink);
    }

    fn try_heal(&mut self) -> Result<bool> {
        self.spans.scope(self.ids[7], || self.inner.try_heal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(aggs: &'a [Aggregate], name: &str, parent: Option<&str>) -> &'a Aggregate {
        aggs.iter()
            .find(|a| a.name == name && a.parent == parent)
            .unwrap_or_else(|| panic!("no aggregate {name} under {parent:?}"))
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let mut t = Tracer::new(0, Instant::now());
        let (op, mid, leaf) = (t.intern("op"), t.intern("mid"), t.intern("leaf"));
        // op [0,100] ⊃ mid [10,60] ⊃ leaf [20,30], leaf [35,50]; op ⊃ leaf [70,90]
        t.enter_at(op, 0);
        t.enter_at(mid, 10);
        t.enter_at(leaf, 20);
        t.exit_at(30);
        t.enter_at(leaf, 35);
        t.exit_at(50);
        t.exit_at(60);
        t.enter_at(leaf, 70);
        t.exit_at(90);
        t.exit_at(100);
        let aggs = t.aggregates();

        let a = find(&aggs, "op", None);
        assert_eq!((a.count, a.total_ns, a.self_ns), (1, 100, 100 - 50 - 20));
        let a = find(&aggs, "mid", Some("op"));
        assert_eq!((a.count, a.total_ns, a.self_ns), (1, 50, 50 - 10 - 15));
        let a = find(&aggs, "leaf", Some("mid"));
        assert_eq!((a.count, a.total_ns, a.self_ns), (2, 25, 25));
        let a = find(&aggs, "leaf", Some("op"));
        assert_eq!((a.count, a.total_ns, a.self_ns), (1, 20, 20));

        // Self times partition the root's duration.
        assert_eq!(aggs.iter().map(|a| a.self_ns).sum::<u64>(), 100);
        assert_eq!(by_name(&aggs, "leaf"), (3, 45, 45));
    }

    #[test]
    fn raw_spans_are_kept_for_one_root_in_1024() {
        let mut t = Tracer::new(7, Instant::now());
        let (op, leaf) = (t.intern("op"), t.intern("leaf"));
        for i in 0..(2 * RAW_SAMPLE_EVERY + 1) {
            let base = i * 10;
            t.enter_at(op, base);
            t.enter_at(leaf, base + 1);
            t.exit_at(base + 2);
            t.exit_at(base + 5);
        }
        assert_eq!(t.raw.len(), 3 * 2, "roots 0, 1024 and 2048, two spans each");
        let leaf_span = &t.raw[2];
        let op_span = &t.raw[3];
        assert_eq!((leaf_span.name, op_span.name), ("leaf", "op"));
        assert_eq!(op_span.op, RAW_SAMPLE_EVERY);
        assert_eq!(op_span.parent, None);
        assert_eq!(leaf_span.parent, Some(op_span.id));
        assert_eq!(leaf_span.tracer, 7);
        assert_eq!(
            (op_span.start_ns, op_span.end_ns),
            (RAW_SAMPLE_EVERY * 10, RAW_SAMPLE_EVERY * 10 + 5)
        );
    }

    #[test]
    fn merge_and_layer_sums() {
        let agg = |name, parent, n| Aggregate {
            name,
            parent,
            count: n,
            total_ns: 10 * n,
            self_ns: 4 * n,
        };
        let merged = merge([
            vec![
                agg("btree.get", None, 1),
                agg("device.read_page", Some("btree.get"), 3),
            ],
            vec![
                agg("btree.get", None, 2),
                agg("device.write_page", Some("btree.insert"), 5),
            ],
        ]);
        assert_eq!(merged.len(), 3);
        assert_eq!(by_name(&merged, "btree.get"), (3, 30, 12));
        assert_eq!(layer_self_ns(&merged, "device"), 4 * 3 + 4 * 5);
        assert_eq!(layer_self_ns(&merged, "dev"), 0, "prefix must end at a dot");
    }
}
