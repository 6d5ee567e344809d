//! Seeded workload generation.
//!
//! The paper's model workload (§2) is "comprised of point queries, updates,
//! inserts, and deletes" over an integer dataset; Table 1 additionally uses
//! range queries of result size `m`. This module generates exactly that:
//! a deterministic initial dataset plus an operation stream drawn from a
//! configurable operation mix and key distribution (uniform or zipfian —
//! the standard skew model for database workloads).
//!
//! Workloads come in two forms that yield the **bit-identical** operation
//! sequence for the same [`WorkloadSpec`]:
//!
//! * [`Workload::generate`] materializes the whole stream as a `Vec<Op>` —
//!   convenient when several methods replay the same ops, but O(ops)
//!   memory, which caps experiments around a few hundred thousand ops.
//! * [`OpStream`] yields the same ops one at a time in O(live-set) memory,
//!   which is what unlocks multi-million-op runs
//!   ([`run_stream`](crate::runner::run_stream), the `scale_sweep` bench).
//!
//! `Workload::generate` is implemented *as* a collected `OpStream`, so the
//! two can never drift apart.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::access::AccessMethod;
use crate::error::Result;
use crate::types::{Key, Record, Value};

/// Which live key an operation targets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDist {
    /// Every live key equally likely.
    Uniform,
    /// Zipfian skew with parameter `theta` in (0, 1); 0.99 is the classic
    /// YCSB default ("hot" keys dominate).
    Zipf { theta: f64 },
}

/// How the initial key population fills the key universe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeySpace {
    /// Keys `0, spacing, 2·spacing, ...` — a dense, predictable universe.
    /// `spacing = 1` reproduces the paper's direct-address example where the
    /// universe equals the population.
    Dense { spacing: u64 },
    /// Keys sampled uniformly without replacement from
    /// `[0, n × universe_factor)`.
    Sparse { universe_factor: u64 },
}

/// Deterministic workload drift: a scenario axis layered over the base
/// [`WorkloadSpec`] mix and key distribution. The active regime is a pure
/// function of the op index, so a drifting stream is exactly as
/// deterministic as a static one — same seed, bit-identical stream — and
/// [`Drift::None`] leaves generation byte-for-byte unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum Drift {
    /// No drift — the stream draws from `spec.mix`/`spec.dist` throughout.
    #[default]
    None,
    /// Diurnal mix rotation: each `period` splits into four equal phases —
    /// read-heavy "day", the base mix, write-heavy "night", the base mix
    /// again — cycling for the whole stream.
    Diurnal { period: usize },
    /// Flash crowd: during the last quarter of each `period` the key
    /// distribution snaps to a hot zipfian
    /// (θ = [`SPIKE_THETA`](Self::SPIKE_THETA)) under a read-heavy mix — a
    /// sudden skew spike on top of the base workload.
    FlashCrowd { period: usize },
    /// Scan storm: the last quarter of each `period` flips to
    /// [`OpMix::SCAN_HEAVY`] — an analytics interlude in an OLTP stream.
    ScanStorm { period: usize },
    /// One hard flip to `mix` at op index `at` (never flips back). The
    /// sharpest drift signal — used to pin tuner hysteresis.
    Flip { at: usize, mix: OpMix },
}

impl Drift {
    /// Skew of the flash-crowd spike (the classic YCSB hot setting).
    pub const SPIKE_THETA: f64 = 0.99;

    /// Which quarter (0..=3) of the drift period op `i` falls in.
    fn quarter(period: usize, i: usize) -> usize {
        let p = period.max(4);
        (i % p) * 4 / p
    }

    /// Identifier of the mix regime governing op `i`. The stream
    /// recomputes its sampling thresholds only when this changes, so
    /// steady regimes pay nothing per op.
    fn segment(&self, i: usize) -> usize {
        match *self {
            Drift::None => 0,
            Drift::Diurnal { period } => Self::quarter(period, i),
            Drift::FlashCrowd { period } | Drift::ScanStorm { period } => {
                usize::from(Self::quarter(period, i) == 3)
            }
            Drift::Flip { at, .. } => usize::from(i >= at),
        }
    }

    /// The op mix governing op `i`.
    pub fn mix_at(&self, base: &OpMix, i: usize) -> OpMix {
        match *self {
            Drift::None => *base,
            Drift::Diurnal { period } => match Self::quarter(period, i) {
                0 => OpMix::READ_HEAVY,
                2 => OpMix::WRITE_HEAVY,
                _ => *base,
            },
            Drift::FlashCrowd { period } => {
                if Self::quarter(period, i) == 3 {
                    OpMix::READ_HEAVY
                } else {
                    *base
                }
            }
            Drift::ScanStorm { period } => {
                if Self::quarter(period, i) == 3 {
                    OpMix::SCAN_HEAVY
                } else {
                    *base
                }
            }
            Drift::Flip { at, mix } => {
                if i >= at {
                    mix
                } else {
                    *base
                }
            }
        }
    }

    /// Hot-spike skew overriding the base key distribution at op `i`
    /// (flash crowds only).
    fn spike_theta(&self, i: usize) -> Option<f64> {
        match *self {
            Drift::FlashCrowd { period } if Self::quarter(period, i) == 3 => {
                Some(Self::SPIKE_THETA)
            }
            _ => None,
        }
    }

    /// Whether this is the no-drift scenario.
    pub fn is_none(&self) -> bool {
        matches!(self, Drift::None)
    }

    /// The three canonical drifting scenarios — the *drift suite* the
    /// `drift_sweep` bench and the autotuner CI gate run over.
    pub fn suite(period: usize) -> [(&'static str, Drift); 3] {
        [
            ("diurnal", Drift::Diurnal { period }),
            ("flash-crowd", Drift::FlashCrowd { period }),
            ("scan-storm", Drift::ScanStorm { period }),
        ]
    }
}

/// Relative frequencies of the operation types. They need not sum to 1;
/// they are normalized at generation time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpMix {
    pub get: f64,
    pub insert: f64,
    pub update: f64,
    pub delete: f64,
    pub range: f64,
}

impl OpMix {
    /// 95% point reads, 5% inserts.
    pub const READ_HEAVY: OpMix = OpMix {
        get: 0.95,
        insert: 0.05,
        update: 0.0,
        delete: 0.0,
        range: 0.0,
    };
    /// 10% point reads, 60% inserts, 25% updates, 5% deletes.
    pub const WRITE_HEAVY: OpMix = OpMix {
        get: 0.10,
        insert: 0.60,
        update: 0.25,
        delete: 0.05,
        range: 0.0,
    };
    /// Even split of reads and writes with a few scans.
    pub const BALANCED: OpMix = OpMix {
        get: 0.45,
        insert: 0.20,
        update: 0.20,
        delete: 0.05,
        range: 0.10,
    };
    /// Analytics: mostly range scans, trickle of inserts.
    pub const SCAN_HEAVY: OpMix = OpMix {
        get: 0.05,
        insert: 0.05,
        update: 0.0,
        delete: 0.0,
        range: 0.90,
    };
    /// Range-dominated with a real write stream: the mix that exercises an
    /// access method's range path while flushes/reorganizations keep
    /// happening underneath it (unlike [`SCAN_HEAVY`](Self::SCAN_HEAVY),
    /// whose trickle of inserts barely perturbs the structure).
    pub const RANGE_HEAVY: OpMix = OpMix {
        get: 0.10,
        insert: 0.10,
        update: 0.05,
        delete: 0.05,
        range: 0.70,
    };
    /// Point reads only.
    pub const READ_ONLY: OpMix = OpMix {
        get: 1.0,
        insert: 0.0,
        update: 0.0,
        delete: 0.0,
        range: 0.0,
    };
    /// Inserts only (a pure ingest stream).
    pub const INSERT_ONLY: OpMix = OpMix {
        get: 0.0,
        insert: 1.0,
        update: 0.0,
        delete: 0.0,
        range: 0.0,
    };

    /// Sum of the five frequencies (1 for a normalized mix). Callers that
    /// divide by it guard the all-zero mix themselves.
    pub fn total(&self) -> f64 {
        self.get + self.insert + self.update + self.delete + self.range
    }

    /// This mix scaled so its five frequencies sum to 1 (an all-zero mix
    /// becomes pure point reads rather than NaN).
    pub fn normalized(&self) -> OpMix {
        let total = self.total();
        if total <= 0.0 {
            return OpMix::READ_ONLY;
        }
        OpMix {
            get: self.get / total,
            insert: self.insert / total,
            update: self.update / total,
            delete: self.delete / total,
            range: self.range / total,
        }
    }

    /// L1 distance to `other`; between normalized mixes 0 = identical,
    /// 2 = disjoint.
    pub fn l1_distance(&self, other: &OpMix) -> f64 {
        (self.get - other.get).abs()
            + (self.insert - other.insert).abs()
            + (self.update - other.update).abs()
            + (self.delete - other.delete).abs()
            + (self.range - other.range).abs()
    }
}

/// A single generated operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Get(Key),
    Insert(Key, Value),
    Update(Key, Value),
    Delete(Key),
    /// Inclusive range scan.
    Range(Key, Key),
}

impl Op {
    /// Whether this operation is on the read path (for RO accounting).
    pub fn is_read(&self) -> bool {
        matches!(self, Op::Get(_) | Op::Range(_, _))
    }

    /// Execute this operation against `method` through the instrumented
    /// entry points, handing back exactly what the method returned. The
    /// one op dispatcher: runners drop the answer (they measure costs),
    /// differential replays compare it.
    #[inline]
    pub fn apply<M: AccessMethod + ?Sized>(self, method: &mut M) -> Result<OpAnswer> {
        Ok(match self {
            Op::Get(k) => OpAnswer::Get(method.get(k)?),
            Op::Range(lo, hi) => OpAnswer::Range(method.range(lo, hi)?),
            Op::Insert(k, v) => {
                method.insert(k, v)?;
                OpAnswer::Insert
            }
            Op::Update(k, v) => OpAnswer::Applied(method.update(k, v)?),
            Op::Delete(k) => OpAnswer::Applied(method.delete(k)?),
        })
    }
}

/// What an [`Op`] answered: the value its [`AccessMethod`] entry point
/// returned, moved, never copied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpAnswer {
    Get(Option<Value>),
    Range(Vec<Record>),
    Insert,
    /// Update or delete: whether a live key was modified.
    Applied(bool),
}

/// Full description of a generated workload.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Records loaded before the operation stream starts.
    pub initial_records: usize,
    /// Number of operations in the stream.
    pub operations: usize,
    pub mix: OpMix,
    pub dist: KeyDist,
    pub key_space: KeySpace,
    /// Target result size of range queries (`m` in Table 1).
    pub range_len: usize,
    /// Fraction of point reads aimed at absent keys.
    pub miss_fraction: f64,
    pub seed: u64,
    /// Drifting-workload scenario layered over `mix`/`dist`
    /// ([`Drift::None`] reproduces the static workload exactly).
    pub drift: Drift,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            initial_records: 1 << 14,
            operations: 1 << 14,
            mix: OpMix::BALANCED,
            dist: KeyDist::Uniform,
            key_space: KeySpace::Dense { spacing: 1 },
            range_len: 64,
            miss_fraction: 0.0,
            seed: 0x52_55_4D, // "RUM"
            drift: Drift::None,
        }
    }
}

/// A generated workload: the initial dataset (sorted, unique keys) and the
/// operation stream.
#[derive(Clone, Debug)]
pub struct Workload {
    pub initial: Vec<Record>,
    pub ops: Vec<Op>,
}

/// Deterministic value derivation so datasets are reproducible and
/// verifiable: each key's canonical payload.
#[inline]
pub fn value_for(key: Key, version: u64) -> Value {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(version.wrapping_mul(31))
        .wrapping_add(7)
}

/// YCSB-style zipfian rank generator (Gray et al., "Quickly generating
/// billion-record synthetic databases").
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: usize,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
    /// `0.5^theta`: rank 1's share of `zetan`, fixed for the skew.
    half_pow_theta: f64,
}

impl Zipfian {
    /// Build a generator over ranks `0..n` with skew `theta` in (0,1).
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipfian over empty domain");
        assert!(
            (0.0..1.0).contains(&theta),
            "theta must be in [0,1), got {theta}"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    fn zeta(n: usize, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Sample a rank in `0..n`; rank 0 is the hottest.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
        r.min(self.n - 1)
    }

    /// Re-target the generator at a different domain size in place.
    ///
    /// `zetan` is maintained incrementally — `ζ(n±1) = ζ(n) ± (n±1)^-θ` —
    /// so tracking a live population that drifts by one key per operation
    /// costs O(|Δn|) instead of the O(n) full harmonic recomputation.
    pub fn resize_to(&mut self, n: usize) {
        assert!(n > 0, "zipfian over empty domain");
        if n == self.n {
            return;
        }
        if n.abs_diff(self.n) < n / 2 {
            while self.n < n {
                self.n += 1;
                self.zetan += 1.0 / (self.n as f64).powf(self.theta);
            }
            while self.n > n {
                self.zetan -= 1.0 / (self.n as f64).powf(self.theta);
                self.n -= 1;
            }
        } else {
            self.n = n;
            self.zetan = Self::zeta(n, self.theta);
        }
        self.eta =
            (1.0 - (2.0 / n as f64).powf(1.0 - self.theta)) / (1.0 - self.zeta2 / self.zetan);
    }
}

/// Panic message for a spec whose keys no longer fit in a [`Key`]: the
/// generator never wraps, because a wrapped fresh key could be live.
const KEYS_EXHAUSTED: &str = "key universe exhausted: the workload's keys overflow u64";

impl Workload {
    /// Generate a workload from a spec. Deterministic in `spec.seed`.
    ///
    /// Implemented as a fully collected [`OpStream`], so the materialized
    /// `ops` vector is bit-identical to what the streaming form yields —
    /// the contract `tests` pin and the streaming runner relies on.
    pub fn generate(spec: &WorkloadSpec) -> Workload {
        let mut stream = OpStream::new(spec);
        let mut ops = Vec::with_capacity(spec.operations);
        ops.extend(&mut stream);
        Workload {
            initial: stream.into_initial(),
            ops,
        }
    }
}

/// Anything a runner can play: the records to bulk-load first, then the
/// operations. An [`OpStream`] (by value, O(live-set) memory) and a borrowed
/// [`Workload`] (replayable) are the two generated sources, and for the same
/// [`WorkloadSpec`] they yield the same records and the same ops.
pub trait OpSource {
    /// The initial dataset, owned or borrowed; the runner drops it as soon
    /// as the bulk load is done.
    type Initial: std::ops::Deref<Target = [Record]>;
    type Ops: Iterator<Item = Op>;

    fn into_parts(self) -> (Self::Initial, Self::Ops);
}

impl OpSource for OpStream {
    type Initial = Vec<Record>;
    type Ops = OpStream;

    fn into_parts(mut self) -> (Vec<Record>, OpStream) {
        (self.take_initial(), self)
    }
}

impl<'a> OpSource for &'a Workload {
    type Initial = &'a [Record];
    type Ops = std::iter::Copied<std::slice::Iter<'a, Op>>;

    fn into_parts(self) -> (Self::Initial, Self::Ops) {
        (&self.initial, self.ops.iter().copied())
    }
}

/// A hand-assembled source: the records to load and the ops to play.
impl<I: std::ops::Deref<Target = [Record]>, O: Iterator<Item = Op>> OpSource for (I, O) {
    type Initial = I;
    type Ops = O;

    fn into_parts(self) -> (I, O) {
        self
    }
}

/// Streaming equivalent of [`Workload::generate`]: yields the bit-identical
/// operation sequence for the same [`WorkloadSpec`] seed, holding only the
/// live keys (one rank-addressable `Vec<Key>`) instead of the whole
/// `Vec<Op>` — O(live-set) memory, so 10⁷–10⁹-op experiments fit where the
/// materialized form would not.
///
/// ```
/// use rum_core::workload::{OpStream, Workload, WorkloadSpec};
///
/// let spec = WorkloadSpec::default();
/// let materialized = Workload::generate(&spec);
/// let streamed: Vec<_> = OpStream::new(&spec).collect();
/// assert_eq!(materialized.ops, streamed);
/// ```
pub struct OpStream {
    spec: WorkloadSpec,
    initial: Vec<Record>,
    rng: StdRng,
    /// The live keys, in no order, addressed by rank: a uniform or zipfian
    /// draw picks an index and a delete `swap_remove`s the index it drew.
    /// No key → rank map is needed, because the stream never asks where a
    /// key is: inserts are fresh (above `next_fresh`'s watermark) and only
    /// a miss candidate asks whether a key is live ([`Self::is_live`]).
    live: Vec<Key>,
    zipf: Option<Zipfian>,
    /// Separate generator for flash-crowd spikes so the spike's hot skew
    /// never perturbs the base distribution's incremental zeta state.
    zipf_spike: Option<Zipfian>,
    thresholds: [f64; 4],
    /// Drift regime the current `thresholds` were computed for.
    segment: usize,
    /// Fresh keys for inserts continue above the initial population, and
    /// every key the stream has made live is below this one: it is also
    /// the watermark at or above which no key is live.
    next_fresh: Key,
    fresh_step: u64,
    version: u64,
    emitted: usize,
}

impl OpStream {
    /// Build the stream: generates the initial dataset eagerly (it is the
    /// live set), then yields `spec.operations` ops lazily.
    pub fn new(spec: &WorkloadSpec) -> OpStream {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let initial = generate_initial(spec, &mut rng);
        let max_initial_key = initial.last().map(|r| r.key).unwrap_or(0);
        // Room for as many inserts as there are initial keys, so a large
        // stream does not copy its whole live set on the first insert.
        let n = initial.len();
        let mut live = Vec::with_capacity(n + spec.operations.min(n));
        live.extend(initial.iter().map(|r| r.key));

        let zipf = match spec.dist {
            KeyDist::Zipf { theta } => Some(Zipfian::new(spec.initial_records.max(2), theta)),
            KeyDist::Uniform => None,
        };

        let thresholds = mix_thresholds(&spec.drift.mix_at(&spec.mix, 0));

        OpStream {
            spec: *spec,
            initial,
            rng,
            live,
            zipf,
            zipf_spike: None,
            thresholds,
            segment: spec.drift.segment(0),
            next_fresh: max_initial_key.checked_add(1).expect(KEYS_EXHAUSTED),
            fresh_step: match spec.key_space {
                KeySpace::Dense { spacing } => spacing.max(1),
                KeySpace::Sparse { universe_factor } => universe_factor.max(1),
            },
            version: 1,
            emitted: 0,
        }
    }

    /// The spec this stream was built from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The initial dataset (sorted, unique keys) to bulk-load before the
    /// op stream. Empty after [`take_initial`](Self::take_initial).
    pub fn initial(&self) -> &[Record] {
        &self.initial
    }

    /// Take ownership of the initial dataset (leaves it empty), so a
    /// runner can bulk-load it while the stream keeps yielding ops.
    pub fn take_initial(&mut self) -> Vec<Record> {
        std::mem::take(&mut self.initial)
    }

    /// Consume the stream, returning the initial dataset.
    pub fn into_initial(self) -> Vec<Record> {
        self.initial
    }

    /// Ops yielded so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Current live-key population — the stream's whole working state.
    pub fn live_keys(&self) -> usize {
        self.live.len()
    }

    /// INSERT, also the fallback whenever an arm needs a live key and
    /// none exists: every slot of the stream must emit an operation, or
    /// the generated workload silently falls short of `spec.operations`
    /// (an empty-start write-heavy spec could lose most of its slots).
    fn fresh_insert(&mut self) -> Op {
        let k = self.next_fresh;
        let step = self.fresh_step;
        let jitter = (self.rng.gen::<u64>() % step) / 2;
        self.next_fresh = step
            .checked_add(jitter)
            .and_then(|gap| k.checked_add(gap))
            .expect(KEYS_EXHAUSTED);
        self.live.push(k);
        self.version += 1;
        Op::Insert(k, value_for(k, self.version))
    }

    /// Pick the rank of a live key through the active distribution: the
    /// base one, or the flash-crowd spike generator when `spike` carries a
    /// hot theta.
    fn pick_rank(&mut self, spike: Option<f64>) -> usize {
        match spike {
            Some(theta) => {
                if self.zipf_spike.is_none() {
                    self.zipf_spike = Some(Zipfian::new(self.live.len().max(2), theta));
                }
                pick_live(self.live.len(), &mut self.zipf_spike, &mut self.rng)
            }
            None => pick_live(self.live.len(), &mut self.zipf, &mut self.rng),
        }
    }

    fn pick_key(&mut self, spike: Option<f64>) -> Key {
        let rank = self.pick_rank(spike);
        self.live[rank]
    }

    /// Whether `k` is live. Keys at or above the `next_fresh` watermark
    /// never are, which settles every miss candidate (top bit set) without
    /// a look-up; only a key universe past 2⁶³ falls back to the exact scan.
    fn is_live(&self, k: Key) -> bool {
        k < self.next_fresh && self.live.contains(&k)
    }
}

/// Cumulative sampling thresholds for one normalized mix.
fn mix_thresholds(mix: &OpMix) -> [f64; 4] {
    let total = mix.total();
    assert!(total > 0.0, "operation mix has zero total weight");
    [
        mix.get / total,
        (mix.get + mix.insert) / total,
        (mix.get + mix.insert + mix.update) / total,
        (mix.get + mix.insert + mix.update + mix.delete) / total,
    ]
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.emitted >= self.spec.operations {
            return None;
        }
        let index = self.emitted;
        self.emitted += 1;
        let seg = self.spec.drift.segment(index);
        if seg != self.segment {
            self.segment = seg;
            self.thresholds = mix_thresholds(&self.spec.drift.mix_at(&self.spec.mix, index));
        }
        let spike = self.spec.drift.spike_theta(index);
        let dice: f64 = self.rng.gen();
        let op = if dice < self.thresholds[0] {
            // GET
            if self.live.is_empty() {
                Op::Get(self.rng.gen())
            } else if self.spec.miss_fraction > 0.0
                && self.rng.gen::<f64>() < self.spec.miss_fraction
            {
                // A key extremely unlikely to be live.
                let mut k: Key = self.rng.gen::<Key>() | (1 << 63);
                while self.is_live(k) {
                    k = self.rng.gen::<Key>() | (1 << 63);
                }
                Op::Get(k)
            } else {
                Op::Get(self.pick_key(spike))
            }
        } else if dice < self.thresholds[1] {
            self.fresh_insert()
        } else if dice < self.thresholds[2] {
            // UPDATE
            if self.live.is_empty() {
                self.fresh_insert()
            } else {
                let k = self.pick_key(spike);
                self.version += 1;
                Op::Update(k, value_for(k, self.version))
            }
        } else if dice < self.thresholds[3] {
            // DELETE
            if self.live.is_empty() {
                self.fresh_insert()
            } else {
                let rank = self.pick_rank(spike);
                Op::Delete(self.live.swap_remove(rank))
            }
        } else {
            // RANGE: span sized so the expected result count ≈ range_len.
            if self.live.is_empty() {
                self.fresh_insert()
            } else {
                let lo = self.pick_key(spike);
                let span = expected_span(&self.spec, self.next_fresh, self.live.len());
                Op::Range(lo, lo.saturating_add(span))
            }
        };
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.spec.operations - self.emitted;
        (left, Some(left))
    }
}

impl ExactSizeIterator for OpStream {}

/// Pick the rank of one of `n` live keys: uniformly, or zipfian over the
/// *current* live population. The zipfian generator is resized
/// (incrementally — see [`Zipfian::resize_to`]) to track it, rather than
/// sampling over the initial size and wrapping with `% n`: the wrap
/// aliased distinct ranks onto the same slot (distorting the skew whenever
/// the population shrank) and could never reach keys inserted after
/// generation started.
fn pick_live(n: usize, zipf: &mut Option<Zipfian>, rng: &mut StdRng) -> usize {
    debug_assert!(n > 0);
    match zipf {
        Some(z) => {
            z.resize_to(n);
            z.sample(rng)
        }
        None => rng.gen_range(0..n),
    }
}

fn expected_span(spec: &WorkloadSpec, key_high_watermark: Key, live: usize) -> u64 {
    let density_inverse = (key_high_watermark.max(1)) as f64 / live.max(1) as f64;
    ((spec.range_len as f64) * density_inverse).ceil() as u64
}

fn generate_initial(spec: &WorkloadSpec, rng: &mut StdRng) -> Vec<Record> {
    let n = spec.initial_records;
    let mut keys: Vec<Key> = match spec.key_space {
        KeySpace::Dense { spacing } => {
            let s = spacing.max(1);
            (0..n as u64)
                .map(|i| i.checked_mul(s).expect(KEYS_EXHAUSTED))
                .collect()
        }
        KeySpace::Sparse { universe_factor } => {
            let universe = (n as u64).saturating_mul(universe_factor.max(1));
            let mut set = std::collections::HashSet::with_capacity(n);
            while set.len() < n {
                set.insert(rng.gen_range(0..universe.max(1)));
            }
            let mut v: Vec<Key> = set.into_iter().collect();
            v.sort_unstable();
            v
        }
    };
    keys.dedup();
    keys.into_iter()
        .map(|k| Record::new(k, value_for(k, 0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            initial_records: 1000,
            operations: 5000,
            seed: 42,
            ..Default::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Workload::generate(&spec());
        let b = Workload::generate(&spec());
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.ops, b.ops);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Workload::generate(&spec());
        let mut s = spec();
        s.seed = 43;
        let b = Workload::generate(&s);
        assert_ne!(a.ops, b.ops);
    }

    #[test]
    fn initial_is_sorted_unique() {
        let w = Workload::generate(&WorkloadSpec {
            key_space: KeySpace::Sparse { universe_factor: 4 },
            ..spec()
        });
        assert_eq!(w.initial.len(), 1000);
        for pair in w.initial.windows(2) {
            assert!(pair[0].key < pair[1].key);
        }
    }

    #[test]
    fn dense_universe_is_contiguous() {
        let w = Workload::generate(&spec());
        for (i, r) in w.initial.iter().enumerate() {
            assert_eq!(r.key, i as u64);
        }
    }

    #[test]
    fn mix_ratios_are_respected() {
        let w = Workload::generate(&WorkloadSpec {
            operations: 20_000,
            mix: OpMix::READ_HEAVY,
            ..spec()
        });
        let gets = w.ops.iter().filter(|o| matches!(o, Op::Get(_))).count();
        let frac = gets as f64 / w.ops.len() as f64;
        assert!((frac - 0.95).abs() < 0.02, "get fraction {frac}");
    }

    /// Replay a miss-free stream against a model set: every get, update,
    /// delete and range start hits a key live at that point, and every
    /// insert key exceeds every key ever live before it (the watermark the
    /// generator's membership test relies on).
    fn assert_targets_live(tag: &str, w: &Workload) {
        let mut live: std::collections::HashSet<Key> = w.initial.iter().map(|r| r.key).collect();
        let mut high = w.initial.last().map(|r| r.key);
        for op in &w.ops {
            match *op {
                Op::Insert(k, _) => {
                    assert!(high < Some(k), "{tag}: insert {k} not above {high:?}");
                    high = Some(k);
                    live.insert(k);
                }
                Op::Get(k) => assert!(live.is_empty() || live.contains(&k), "{tag}: get {k}"),
                Op::Update(k, _) | Op::Range(k, _) => {
                    assert!(live.contains(&k), "{tag}: {op:?} of dead key")
                }
                Op::Delete(k) => assert!(live.remove(&k), "{tag}: delete of dead key {k}"),
            }
        }
    }

    #[test]
    fn updates_and_deletes_target_live_keys() {
        let mixes = [
            OpMix::READ_HEAVY,
            OpMix::WRITE_HEAVY,
            OpMix::BALANCED,
            OpMix::SCAN_HEAVY,
            OpMix::RANGE_HEAVY,
            OpMix::READ_ONLY,
            OpMix::INSERT_ONLY,
        ];
        for mix in mixes {
            for dist in [KeyDist::Uniform, KeyDist::Zipf { theta: 0.99 }] {
                let s = WorkloadSpec {
                    mix,
                    dist,
                    ..spec()
                };
                assert_targets_live(&format!("{mix:?}/{dist:?}"), &Workload::generate(&s));
            }
        }
    }

    #[test]
    fn misses_past_two_to_the_63_take_the_exact_scan() {
        // A sparse universe of ~u64::MAX puts about half the live keys at
        // or above 2⁶³, so miss candidates fall below the watermark and
        // the membership test must scan the live keys.
        let spec = WorkloadSpec {
            mix: OpMix::READ_ONLY,
            miss_fraction: 0.5,
            key_space: KeySpace::Sparse {
                universe_factor: u64::MAX / 1000,
            },
            ..spec()
        };
        let w = Workload::generate(&spec);
        assert_eq!(OpStream::new(&spec).collect::<Vec<_>>(), w.ops);
        let live: std::collections::HashSet<Key> = w.initial.iter().map(|r| r.key).collect();
        let watermark = w.initial.last().unwrap().key;
        let misses: Vec<Key> = w
            .ops
            .iter()
            .filter_map(|op| match *op {
                Op::Get(k) if !live.contains(&k) => Some(k),
                _ => None,
            })
            .collect();
        let frac = misses.len() as f64 / w.ops.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "miss fraction {frac}");
        assert!(misses.iter().all(|&k| k >= 1 << 63), "a miss below 2⁶³");
        assert!(
            misses.iter().filter(|&&k| k < watermark).count() > misses.len() / 2,
            "the fallback scan was not exercised"
        );
        let stream = OpStream::new(&spec);
        assert!(
            live.iter().all(|&k| stream.is_live(k)),
            "a live key reads dead"
        );
        assert!(
            misses.iter().all(|&k| !stream.is_live(k)),
            "a miss reads live"
        );
    }

    #[test]
    #[should_panic(expected = "key universe exhausted")]
    fn fresh_keys_past_u64_max_panic_instead_of_wrapping() {
        // Each insert strides ~u64::MAX / 1000 up a universe of ~u64::MAX,
        // so the fresh keys pass u64::MAX within ~1000 inserts. Unchecked,
        // a release build wrapped to a small key that could be live.
        Workload::generate(&WorkloadSpec {
            mix: OpMix::INSERT_ONLY,
            key_space: KeySpace::Sparse {
                universe_factor: u64::MAX / 1000,
            },
            ..spec()
        });
    }

    #[test]
    fn rum_perf_traffic_digests_hold() {
        // The six workloads of the wall-clock benchmark (`rum_perf`,
        // outside this workspace) at its 1/50 smoke scale, seed "RUM", and
        // the FNV-1a digests it pins: a change to the generated traffic
        // fails here, not only when the benchmark next runs.
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let (zipf, uniform) = (KeyDist::Zipf { theta: 0.99 }, KeyDist::Uniform);
        // Full-scale records and ops, mix, key distribution, miss fraction.
        let perf = |records: usize, ops: usize, mix, dist, miss_fraction| WorkloadSpec {
            initial_records: records / 50,
            operations: ops / 50,
            mix,
            dist,
            miss_fraction,
            range_len: 64,
            seed: 0x52_55_4D,
            ..Default::default()
        };
        let cases = [
            (
                "btree-point",
                perf(1_000_000, 250_000, OpMix::READ_HEAVY, zipf, 0.05),
                0x8b5e_c9f0_4b3c_6132,
            ),
            (
                "lsm-ingest",
                perf(1_000_000, 200_000, OpMix::WRITE_HEAVY, uniform, 0.0),
                0x69b8_7ef7_eec4_8fc8,
            ),
            (
                "lsm-scan",
                perf(1_000_000, 120_000, OpMix::RANGE_HEAVY, zipf, 0.0),
                0xff74_3365_fa0e_3ba7,
            ),
            (
                "stack-balanced",
                perf(1_000_000, 25_000, OpMix::BALANCED, zipf, 0.0),
                0x71ec_3357_99a3_bf9d,
            ),
            (
                "sharded-balanced",
                perf(1_000_000, 25_000, OpMix::BALANCED, uniform, 0.0),
                0xa61c_5c4f_cd3e_7097,
            ),
            (
                "suite",
                perf(1 << 12, 1 << 12, OpMix::BALANCED, uniform, 0.0),
                0x46a3_2479_8f10_070a,
            ),
        ];
        for (name, spec, pinned) in cases {
            let w = Workload::generate(&spec);
            let tombstone = w.initial.iter().any(|r| r.value == crate::types::TOMBSTONE)
                || w.ops.iter().any(|op| {
                    matches!(op, Op::Insert(_, v) | Op::Update(_, v) if *v == crate::types::TOMBSTONE)
                });
            assert!(!tombstone, "{name}: the traffic writes the tombstone value");
            let mut words = Vec::new();
            for r in &w.initial {
                words.extend([r.key, r.value]);
            }
            for op in &w.ops {
                words.extend(match *op {
                    Op::Get(k) => [1, k, 0],
                    Op::Insert(k, v) => [2, k, v],
                    Op::Update(k, v) => [3, k, v],
                    Op::Delete(k) => [4, k, 0],
                    Op::Range(lo, hi) => [5, lo, hi],
                });
            }
            let digest = words
                .iter()
                .flat_map(|word| word.to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
                    (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
                });
            assert_eq!(digest, pinned, "{name}: traffic digest {digest:#018x}");
        }
    }

    #[test]
    fn miss_fraction_generates_misses() {
        let w = Workload::generate(&WorkloadSpec {
            mix: OpMix::READ_ONLY,
            miss_fraction: 0.5,
            operations: 2000,
            ..spec()
        });
        let live: std::collections::HashSet<Key> = w.initial.iter().map(|r| r.key).collect();
        let misses = w
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Get(k) if !live.contains(k)))
            .count();
        let frac = misses as f64 / w.ops.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "miss fraction {frac}");
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 1000];
        for _ in 0..100_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            counts[r] += 1;
        }
        // Rank 0 should be far hotter than rank 500.
        assert!(counts[0] > 20 * counts[500].max(1));
        // And the head should dominate: top-10 ranks > 30% of mass.
        let head: usize = counts[..10].iter().sum();
        assert!(head > 30_000, "head mass {head}");
    }

    #[test]
    fn zipfian_resized_keeps_domain() {
        let mut z = Zipfian::new(100, 0.5);
        z.resize_to(10);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn zipfian_incremental_resize_matches_fresh_construction() {
        // Drift a generator up and down one step at a time; its state must
        // track what a from-scratch construction would compute.
        let theta = 0.99;
        let mut z = Zipfian::new(500, theta);
        for n in (2..=600).chain((2..600).rev()).chain([250, 500]) {
            z.resize_to(n);
            let fresh = Zipfian::new(n, theta);
            assert!(
                (z.zetan - fresh.zetan).abs() < 1e-9 * fresh.zetan,
                "n={n}: drifted zetan {} vs fresh {}",
                z.zetan,
                fresh.zetan
            );
            // At n=2 eta is 0/0 (never consulted: sampling short-circuits
            // to ranks 0/1 first), so only finite etas are comparable.
            if fresh.eta.is_finite() {
                assert!((z.eta - fresh.eta).abs() < 1e-6, "n={n}: eta drifted");
            }
        }
    }

    #[test]
    fn op_count_always_matches_spec() {
        // Every slot of the stream must emit an operation — including from
        // an empty initial population, where update/delete/range arms have
        // no live key and must fall back to an insert.
        let drain = OpMix {
            get: 0.0,
            insert: 0.0,
            update: 0.3,
            delete: 0.6,
            range: 0.1,
        };
        for mix in [
            OpMix::BALANCED,
            OpMix::READ_HEAVY,
            OpMix::WRITE_HEAVY,
            OpMix::SCAN_HEAVY,
            OpMix::RANGE_HEAVY,
            drain,
        ] {
            for initial in [0usize, 1, 1000] {
                for dist in [KeyDist::Uniform, KeyDist::Zipf { theta: 0.99 }] {
                    let w = Workload::generate(&WorkloadSpec {
                        initial_records: initial,
                        operations: 3000,
                        mix,
                        dist,
                        seed: 9,
                        ..Default::default()
                    });
                    assert_eq!(
                        w.ops.len(),
                        3000,
                        "short stream for mix {mix:?}, initial {initial}, dist {dist:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn zipfian_stream_reaches_keys_inserted_mid_stream() {
        // The zipfian picker must cover the *current* live population; the
        // old `sample() % n` over the initial size could never rank past
        // the initial population, so keys inserted mid-stream were
        // unreachable by gets and updates.
        let w = Workload::generate(&WorkloadSpec {
            initial_records: 50,
            operations: 5000,
            mix: OpMix {
                get: 0.5,
                insert: 0.3,
                update: 0.2,
                delete: 0.0,
                range: 0.0,
            },
            dist: KeyDist::Zipf { theta: 0.9 },
            seed: 21,
            ..Default::default()
        });
        let max_initial = w.initial.last().unwrap().key;
        let touched_new = w
            .ops
            .iter()
            .any(|op| matches!(*op, Op::Get(k) | Op::Update(k, _) if k > max_initial));
        assert!(
            touched_new,
            "no get/update ever reached a mid-stream insert"
        );
    }

    #[test]
    fn value_for_versions_differ() {
        assert_ne!(value_for(5, 0), value_for(5, 1));
        assert_ne!(value_for(5, 0), value_for(6, 0));
    }

    #[test]
    fn op_stream_matches_generate_for_every_mix_dist_and_population() {
        // The streaming generator's contract: bit-identical op sequence to
        // the materialized Workload::generate, for every OpMix preset ×
        // KeyDist × initial population (including the empty-start and
        // miss-heavy corners) — same initial dataset, same ops, same order.
        let mixes = [
            ("read-heavy", OpMix::READ_HEAVY),
            ("write-heavy", OpMix::WRITE_HEAVY),
            ("balanced", OpMix::BALANCED),
            ("scan-heavy", OpMix::SCAN_HEAVY),
            ("range-heavy", OpMix::RANGE_HEAVY),
            ("read-only", OpMix::READ_ONLY),
            ("insert-only", OpMix::INSERT_ONLY),
        ];
        let dists = [KeyDist::Uniform, KeyDist::Zipf { theta: 0.99 }];
        for (tag, mix) in mixes {
            for dist in dists {
                for initial in [0usize, 1, 777] {
                    for miss in [0.0, 0.3] {
                        let spec = WorkloadSpec {
                            initial_records: initial,
                            operations: 2500,
                            mix,
                            dist,
                            miss_fraction: miss,
                            seed: 0xBEE5,
                            ..Default::default()
                        };
                        let ctx = format!("{tag}/{dist:?}/initial={initial}/miss={miss}");
                        let materialized = Workload::generate(&spec);
                        let mut stream = OpStream::new(&spec);
                        assert_eq!(stream.initial(), &materialized.initial[..], "{ctx}");
                        assert_eq!(stream.len(), 2500, "{ctx}");
                        let streamed: Vec<Op> = (&mut stream).collect();
                        assert_eq!(streamed, materialized.ops, "{ctx}");
                        assert_eq!(stream.emitted(), 2500, "{ctx}");
                        assert_eq!(stream.next(), None, "{ctx}: stream past the end");
                    }
                }
            }
        }
    }

    #[test]
    fn drift_none_leaves_the_stream_unchanged() {
        // Explicit Drift::None must be byte-identical to a spec that never
        // mentions drift (the Default) — the axis is strictly opt-in.
        let base = spec();
        let with_none = WorkloadSpec {
            drift: Drift::None,
            ..base
        };
        assert_eq!(
            Workload::generate(&base).ops,
            Workload::generate(&with_none).ops
        );
    }

    #[test]
    fn drift_streams_are_deterministic_and_full_length() {
        let mut scenarios: Vec<(&str, Drift)> = Drift::suite(1024).to_vec();
        scenarios.push((
            "flip",
            Drift::Flip {
                at: 2500,
                mix: OpMix::SCAN_HEAVY,
            },
        ));
        for (tag, drift) in scenarios {
            let s = WorkloadSpec { drift, ..spec() };
            let a = Workload::generate(&s);
            let b: Vec<Op> = OpStream::new(&s).collect();
            assert_eq!(a.ops.len(), s.operations, "{tag}: short stream");
            assert_eq!(a.ops, b, "{tag}: stream diverged from generate");
        }
    }

    #[test]
    fn diurnal_rotation_shifts_the_mix_per_quarter() {
        let period = 2000;
        let w = Workload::generate(&WorkloadSpec {
            operations: period,
            mix: OpMix::BALANCED,
            drift: Drift::Diurnal { period },
            ..spec()
        });
        let frac = |ops: &[Op], f: fn(&Op) -> bool| {
            ops.iter().filter(|o| f(o)).count() as f64 / ops.len() as f64
        };
        let day = &w.ops[..period / 4];
        let night = &w.ops[period / 2..3 * period / 4];
        // Day quarter is READ_HEAVY (95% gets); night is WRITE_HEAVY.
        assert!(
            frac(day, |o| matches!(o, Op::Get(_))) > 0.85,
            "day quarter not read-heavy"
        );
        assert!(
            frac(night, |o| !o.is_read()) > 0.80,
            "night quarter not write-heavy"
        );
    }

    #[test]
    fn scan_storm_floods_the_last_quarter_with_ranges() {
        let period = 2000;
        let w = Workload::generate(&WorkloadSpec {
            operations: period,
            mix: OpMix::READ_HEAVY,
            drift: Drift::ScanStorm { period },
            ..spec()
        });
        let storm = &w.ops[3 * period / 4..];
        let calm = &w.ops[..3 * period / 4];
        let ranges = |ops: &[Op]| ops.iter().filter(|o| matches!(o, Op::Range(..))).count();
        assert!(
            ranges(storm) as f64 > 0.8 * storm.len() as f64,
            "storm quarter not scan-dominated"
        );
        assert_eq!(ranges(calm), 0, "ranges leaked outside the storm");
    }

    #[test]
    fn flash_crowd_spike_concentrates_key_traffic() {
        let period = 4000;
        let w = Workload::generate(&WorkloadSpec {
            initial_records: 4000,
            operations: period,
            mix: OpMix::READ_ONLY,
            drift: Drift::FlashCrowd { period },
            ..spec()
        });
        let hottest = |ops: &[Op]| {
            let mut counts = std::collections::HashMap::new();
            for o in ops {
                if let Op::Get(k) = o {
                    *counts.entry(*k).or_insert(0usize) += 1;
                }
            }
            counts.values().copied().max().unwrap_or(0)
        };
        let calm = hottest(&w.ops[..period / 4]);
        let spike = hottest(&w.ops[3 * period / 4..]);
        // Uniform base traffic touches each of ~4000 keys a handful of
        // times per quarter; the hot-zipfian spike hammers one key.
        assert!(
            spike > 5 * calm.max(1),
            "spike not skewed: hottest key hit {spike}× vs {calm}× in calm quarter"
        );
    }

    #[test]
    fn drifting_updates_and_deletes_still_target_live_keys() {
        for (tag, drift) in Drift::suite(512) {
            let w = Workload::generate(&WorkloadSpec {
                mix: OpMix::WRITE_HEAVY,
                drift,
                ..spec()
            });
            assert_targets_live(tag, &w);
        }
    }

    #[test]
    fn op_stream_memory_is_live_set_sized() {
        // A delete-free stream holds exactly initial+inserts keys; a
        // delete-heavy stream's live set shrinks. Either way the stream's
        // state is the live set, not the op history.
        let spec = WorkloadSpec {
            initial_records: 100,
            operations: 50_000,
            mix: OpMix {
                get: 0.5,
                insert: 0.05,
                update: 0.2,
                delete: 0.25,
                range: 0.0,
            },
            seed: 3,
            ..Default::default()
        };
        let mut stream = OpStream::new(&spec);
        let mut inserts = 0usize;
        let mut deletes = 0usize;
        for op in &mut stream {
            match op {
                Op::Insert(..) => inserts += 1,
                Op::Delete(_) => deletes += 1,
                _ => {}
            }
        }
        assert_eq!(stream.live_keys(), 100 + inserts - deletes);
        assert!(stream.live_keys() < 5000, "live set should stay small");
    }
}
