//! The stacks under test, bare and with spans interposed at every layer
//! boundary the public constructors expose.

use std::sync::Mutex;
use std::time::Instant;

use rum::btree::{BTree, BTreeConfig};
use rum::core::{AccessMethod, ShardedMethod};
use rum::lsm::{LsmConfig, LsmTree};
use rum::storage::{CheckedDevice, Durable, MemDevice};

use crate::span::{
    Aggregate, RawSpan, SpanDevice, SpanMethod, Spans, BTREE, CHECKED, DEVICE, DURABLE, LSM, METHOD,
};
use crate::traffic::Kind;

/// Shards and pool workers of `sharded-balanced` (= cores of the
/// reference box).
pub const SHARDS: usize = 2;

/// Every tracer of one traced pass: one per stack, one per shard.
pub struct SpanSet {
    epoch: Instant,
    tracers: Mutex<Vec<Spans>>,
}

impl SpanSet {
    pub fn new() -> Self {
        SpanSet {
            epoch: Instant::now(),
            tracers: Mutex::new(Vec::new()),
        }
    }

    /// A fresh tracer on the shared time axis.
    pub fn tracer(&self) -> Spans {
        let mut all = self.tracers.lock().expect("no panic while held");
        let spans = Spans::new(all.len() as u32, self.epoch);
        all.push(spans.clone());
        spans
    }

    pub fn aggregates(&self) -> Vec<Aggregate> {
        let all = self.tracers.lock().expect("no panic while held");
        crate::span::merge(all.iter().map(Spans::aggregates))
    }

    pub fn take_raw(&self) -> Vec<RawSpan> {
        let all = self.tracers.lock().expect("no panic while held");
        all.iter().flat_map(Spans::take_raw).collect()
    }
}

pub fn lsm_config(kind: Kind) -> LsmConfig {
    LsmConfig {
        sorted_view: kind == Kind::LsmScan,
        ..Default::default()
    }
}

pub fn stack_balanced() -> Durable<BTree<CheckedDevice<MemDevice>>> {
    Durable::new(|| {
        BTree::with_device(CheckedDevice::new(MemDevice::new()), BTreeConfig::default())
    })
}

pub fn sharded(shards: usize, threads: usize) -> ShardedMethod {
    ShardedMethod::with_threads(shards, threads, |_| Box::new(BTree::new()))
}

fn spanned_btree(spans: &Spans) -> SpanMethod {
    let device = SpanDevice::new(MemDevice::new(), spans, DEVICE);
    let tree = BTree::with_device(device, BTreeConfig::default());
    SpanMethod::new(Box::new(tree), spans, BTREE)
}

/// `sharded(..)` with a tracer of its own inside every shard.
pub fn spanned_sharded(shards: usize, threads: usize, set: &SpanSet) -> ShardedMethod {
    ShardedMethod::with_threads(shards, threads, |_| Box::new(spanned_btree(&set.tracer())))
}

/// The structures the per-op loops drive: one for the focused workloads,
/// 21 for `suite`. With `set`, spans wrap every layer boundary.
pub fn build(kind: Kind, set: Option<&SpanSet>) -> Vec<Box<dyn AccessMethod>> {
    let Some(set) = set else {
        return match kind {
            Kind::BtreePoint => vec![Box::new(BTree::new())],
            Kind::LsmIngest | Kind::LsmScan => {
                vec![Box::new(LsmTree::with_config(lsm_config(kind)))]
            }
            Kind::StackBalanced => vec![Box::new(stack_balanced())],
            Kind::ShardedBalanced => vec![Box::new(sharded(SHARDS, SHARDS))],
            Kind::Suite => rum::standard_suite(),
        };
    };
    match kind {
        Kind::BtreePoint => vec![Box::new(spanned_btree(&set.tracer()))],
        Kind::LsmIngest | Kind::LsmScan => {
            let spans = set.tracer();
            let device = SpanDevice::new(MemDevice::new(), &spans, DEVICE);
            let tree = LsmTree::with_device(device, lsm_config(kind));
            vec![Box::new(SpanMethod::new(Box::new(tree), &spans, LSM))]
        }
        Kind::StackBalanced => {
            let spans = set.tracer();
            let inner = spans.clone();
            // `recover()` rebuilds the stack through this factory, so the
            // rebuilt layers report to the same tracer.
            let durable = Durable::new(move || {
                let device = SpanDevice::new(MemDevice::new(), &inner, DEVICE);
                let checked = SpanDevice::new(CheckedDevice::new(device), &inner, CHECKED);
                let tree = BTree::with_device(checked, BTreeConfig::default());
                SpanMethod::new(Box::new(tree), &inner, BTREE)
            });
            vec![Box::new(SpanMethod::new(
                Box::new(durable),
                &spans,
                DURABLE,
            ))]
        }
        Kind::ShardedBalanced => vec![Box::new(spanned_sharded(SHARDS, SHARDS, set))],
        Kind::Suite => rum::standard_suite()
            .into_iter()
            .map(|m| Box::new(SpanMethod::new(m, &set.tracer(), METHOD)) as Box<dyn AccessMethod>)
            .collect(),
    }
}
