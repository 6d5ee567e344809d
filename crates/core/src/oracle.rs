//! The one oracle for the [`AccessMethod`] contract: what the right answer
//! is, decided once.
//!
//! A [`Model`] (a `BTreeMap`) answers every [`Op`] the way a correct
//! method must. An [`Oracle`] walks a method and the model in lockstep
//! ([`load`](Oracle::load) → [`step`](Oracle::step) →
//! [`finish`](Oracle::finish)), comparing each answer and, after every
//! op, the invariants no op may break: `len`, `space_profile().base_bytes
//! == 16 · len`, tracker counters that never run backwards, and a refusal
//! that charges nothing. The first disagreement comes back as a
//! [`Divergence`] value. [`check`] is the loop over any [`OpSource`];
//! [`hostile_ops`] is the seeded stream of everything
//! [`OpStream`](crate::workload::OpStream) never emits because it only
//! touches live keys.
//!
//! Refusals are part of the contract and make the model skip the op: an
//! insert or an update of the value [`TOMBSTONE`] answers
//! [`RumError::InvalidArgument`] for every method, and any other insert or
//! update may answer it too (a key the method reserves as a marker,
//! refused by [`AccessMethod::check_records`]). A refused op must leave
//! the method unchanged: its tracker snapshot must equal the one before
//! the op (as must an inverted range's, which every method refuses), and
//! the other invariants and every later answer check the rest.

use std::collections::BTreeMap;

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::access::AccessMethod;
use crate::error::{Result, RumError};
use crate::tracker::CostSnapshot;
use crate::types::{base_bytes, Key, Record, Value, TOMBSTONE};
use crate::workload::{Op, OpAnswer, OpSource, Workload};

/// The reference contents, and the answer a correct method gives.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model(BTreeMap<Key, Value>);

impl Model {
    /// What `op` must answer against the current contents (which it
    /// leaves alone: [`apply`](Self::apply) is the other half).
    pub fn answer(&self, op: Op) -> Result<OpAnswer> {
        Ok(match op {
            Op::Get(k) => OpAnswer::Get(self.0.get(&k).copied()),
            Op::Range(lo, hi) if lo > hi => {
                return Err(RumError::InvalidArgument(format!(
                    "inverted range {lo}..{hi}"
                )))
            }
            Op::Range(lo, hi) => OpAnswer::Range(
                self.0
                    .range(lo..=hi)
                    .map(|(&k, &v)| Record::new(k, v))
                    .collect(),
            ),
            Op::Insert(_, TOMBSTONE) | Op::Update(_, TOMBSTONE) => {
                return Err(RumError::InvalidArgument(
                    "value u64::MAX is reserved as the tombstone sentinel".into(),
                ))
            }
            Op::Insert(..) => OpAnswer::Insert,
            Op::Update(k, _) | Op::Delete(k) => OpAnswer::Applied(self.0.contains_key(&k)),
        })
    }

    /// Apply a write; reads change nothing.
    pub fn apply(&mut self, op: Op) {
        match op {
            Op::Insert(k, v) => {
                self.0.insert(k, v);
            }
            Op::Update(k, v) => {
                self.0.entry(k).and_modify(|x| *x = v);
            }
            Op::Delete(k) => {
                self.0.remove(&k);
            }
            Op::Get(_) | Op::Range(..) => {}
        }
    }

    /// The live records in ascending key order.
    pub fn records(&self) -> impl Iterator<Item = Record> + '_ {
        self.0.iter().map(|(&k, &v)| Record::new(k, v))
    }
}

/// One side of a [`Divergence`]: what was looked at.
#[derive(Clone, Debug, PartialEq)]
pub enum Observed {
    /// What the op answered, a method's own error included.
    Answer(Result<OpAnswer>),
    /// `len()` after the op.
    Len(usize),
    /// `space_profile().base_bytes` after the op.
    BaseBytes(u64),
    /// Tracker counters after the op (`got`), one of them below where it
    /// stood after the previous op, or a refused op's different from where
    /// they stood before it (`want`).
    Counters(Box<CostSnapshot>),
}

/// The first point where a method and the model disagree.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Ops acknowledged before this one (the op's index in its stream).
    pub step: usize,
    pub op: Op,
    pub got: Observed,
    pub want: Observed,
}

/// What a check comes to: nothing to report, or the first divergence.
pub type Verdict = std::result::Result<(), Divergence>;

impl Divergence {
    /// The method's own error, when that is what diverged: the op was not
    /// acknowledged, the model is untouched and the same op may be tried
    /// again.
    pub fn refusal(&self) -> Option<&RumError> {
        match &self.got {
            Observed::Answer(Err(e)) => Some(e),
            _ => None,
        }
    }
}

/// Whether two answers are the same answer (errors: the same kind).
fn agree(got: &Result<OpAnswer>, want: &Result<OpAnswer>) -> bool {
    match (got, want) {
        (Ok(g), Ok(w)) => g == w,
        (Err(g), Err(w)) => std::mem::discriminant(g) == std::mem::discriminant(w),
        _ => false,
    }
}

/// A method and the model, in lockstep.
#[derive(Debug)]
pub struct Oracle {
    model: Model,
    steps: usize,
    counters: CostSnapshot,
}

impl Oracle {
    /// Start from `records` (ascending unique keys) bulk-loaded into an
    /// empty `method`. An empty slice leaves the method as it was built,
    /// so a test keeps the sizing its constructor chose.
    pub fn load<M: AccessMethod + ?Sized>(method: &mut M, records: &[Record]) -> Result<Oracle> {
        if !records.is_empty() {
            method.bulk_load(records)?;
        }
        Ok(Oracle {
            model: Model(records.iter().map(|r| (r.key, r.value)).collect()),
            steps: 0,
            counters: method.tracker().snapshot(),
        })
    }

    /// Apply `op` to `method` through [`Op::apply`] and hold the answer
    /// and the invariants to the model. An acknowledged op advances the
    /// model whatever it answered; an error the contract does not allow
    /// comes back as a [`Divergence::refusal`] with the model untouched.
    pub fn step<M: AccessMethod + ?Sized>(&mut self, method: &mut M, op: Op) -> Verdict {
        let step = self.steps;
        let diverged = |got, want| {
            Err(Divergence {
                step,
                op,
                got,
                want,
            })
        };
        let want = self.model.answer(op);
        let start = method.tracker().snapshot();
        let got = op.apply(method);
        let agreed = agree(&got, &want)
            || matches!(
                (op, &got),
                (
                    Op::Insert(..) | Op::Update(..),
                    Err(RumError::InvalidArgument(_))
                )
            );
        if got.is_ok() {
            self.model.apply(op);
        }
        if got.is_ok() || agreed {
            self.steps += 1;
        }
        if !agreed {
            return diverged(Observed::Answer(got), Observed::Answer(want));
        }
        let now = method.tracker().snapshot();
        let before = std::mem::replace(&mut self.counters, now);
        if before.delta(&now) != CostSnapshot::default() {
            return diverged(
                Observed::Counters(Box::new(now)),
                Observed::Counters(Box::new(before)),
            );
        }
        if got.is_err() && now != start {
            return diverged(
                Observed::Counters(Box::new(now)),
                Observed::Counters(Box::new(start)),
            );
        }
        let (len, base) = (method.len(), method.space_profile().base_bytes);
        if len != self.model.0.len() {
            return diverged(Observed::Len(len), Observed::Len(self.model.0.len()));
        }
        let want_base = base_bytes(self.model.0.len());
        if base != want_base {
            return diverged(Observed::BaseBytes(base), Observed::BaseBytes(want_base));
        }
        Ok(())
    }

    /// [`step`](Self::step) through `ops` until the method reports a
    /// simulated crash ([`RumError::Crash`]): how many ops it acknowledged
    /// before that, all of them if it never crashed. The model then holds
    /// exactly the acknowledged prefix, which is what recovery owes.
    pub fn step_until_crash<M: AccessMethod + ?Sized>(
        &mut self,
        method: &mut M,
        ops: impl IntoIterator<Item = Op>,
    ) -> std::result::Result<usize, Divergence> {
        let mut acked = 0;
        for op in ops {
            match self.step(method, op) {
                Ok(()) => acked += 1,
                Err(d) if matches!(d.refusal(), Some(RumError::Crash(_))) => break,
                Err(d) => return Err(d),
            }
        }
        Ok(acked)
    }

    /// The closing full-range sweep: one last [`step`](Self::step).
    pub fn finish<M: AccessMethod + ?Sized>(&mut self, method: &mut M) -> Verdict {
        self.step(method, Op::Range(0, Key::MAX))
    }
}

/// Load `source`'s records, [`step`](Oracle::step) through its ops and
/// [`finish`](Oracle::finish). A refused bulk load is reported at step 0
/// against the sweep it would have made true.
pub fn check<M: AccessMethod + ?Sized>(method: &mut M, source: impl OpSource) -> Verdict {
    let (initial, ops) = source.into_parts();
    let mut oracle = Oracle::load(method, &initial).map_err(|e| Divergence {
        step: 0,
        op: Op::Range(0, Key::MAX),
        got: Observed::Answer(Err(e)),
        want: Observed::Answer(Ok(OpAnswer::Range(initial.to_vec()))),
    })?;
    for op in ops {
        oracle.step(method, op)?;
    }
    oracle.finish(method)
}

/// The seeded adversarial stream over keys `0..key_domain`, starting from
/// an empty method. Keys are drawn from the domain, not from the live
/// set, so updates and deletes miss, inserts overwrite and deleted keys
/// come back; every 16th op lands on `0`, `u64::MAX - 1` or `u64::MAX` in
/// turn (a 48-op stream meets all three); ranges are short, open-ended
/// (`hi = u64::MAX`) or, now and then, inverted. Values are the op's
/// index, so no reserved value is ever written.
pub fn hostile_ops(seed: u64, count: usize, key_domain: u64) -> Workload {
    const EDGES: [Key; 3] = [0, Key::MAX - 1, Key::MAX];
    let mut rng = StdRng::seed_from_u64(seed);
    let ops = (0..count as u64)
        .map(|i| {
            let k = match i % 16 {
                7 => EDGES[(i / 16 % 3) as usize],
                _ => rng.gen_range(0..key_domain),
            };
            match rng.gen_range(0..24) {
                0..=5 => Op::Insert(k, i),
                6..=9 => Op::Update(k, i),
                10..=13 => Op::Delete(k),
                14..=18 => Op::Get(k),
                19..=21 => Op::Range(k, k.saturating_add(rng.gen_range(0..64))),
                22 => Op::Range(k, Key::MAX),
                _ => Op::Range(k.saturating_add(rng.gen_range(1..64)), k),
            }
        })
        .collect();
    Workload {
        initial: Vec::new(),
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::SpaceProfile;
    use crate::tracker::CostTracker;
    use std::sync::Arc;

    /// One way to leave the contract, each seen by a different check.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Fault {
        /// The insert of key 7 is acknowledged and dropped.
        DropInsert,
        /// A range's `hi` is exclusive.
        ExclusiveHi,
        /// `len` reads one too many after any delete.
        LenDrift,
        /// `Get(7)` resets the tracker.
        TrackerReset,
        /// `base_bytes` counts one record too many once key 9 is in.
        ExtraBase,
        /// Key `u64::MAX` is reserved (allowed); every update fails with a
        /// transient error (not).
        Refusing,
        /// The insert of key 9 is refused after one record is charged.
        ChargedRefusal,
    }

    /// A correct map with at most one [`Fault`] switched on.
    struct Faulty {
        data: BTreeMap<Key, Value>,
        tracker: Arc<CostTracker>,
        fault: Option<Fault>,
        deleted: bool,
    }

    impl Faulty {
        fn new(fault: Option<Fault>) -> Self {
            Faulty {
                data: BTreeMap::new(),
                tracker: CostTracker::new(),
                fault,
                deleted: false,
            }
        }

        fn has(&self, fault: Fault) -> bool {
            self.fault == Some(fault)
        }
    }

    impl AccessMethod for Faulty {
        fn name(&self) -> String {
            format!("faulty[{:?}]", self.fault)
        }
        fn len(&self) -> usize {
            self.data.len() + usize::from(self.has(Fault::LenDrift) && self.deleted)
        }
        fn tracker(&self) -> &Arc<CostTracker> {
            &self.tracker
        }
        fn space_profile(&self) -> SpaceProfile {
            let extra = self.has(Fault::ExtraBase) && self.data.contains_key(&9);
            SpaceProfile {
                base_bytes: base_bytes(self.data.len() + usize::from(extra)),
                aux_bytes: 0,
            }
        }
        fn get_impl(&mut self, key: Key) -> Result<Option<Value>> {
            if self.has(Fault::TrackerReset) && key == 7 {
                self.tracker.reset();
            }
            Ok(self.data.get(&key).copied())
        }
        fn range_impl(&mut self, lo: Key, hi: Key) -> Result<Vec<Record>> {
            let all = self.data.range(lo..=hi);
            let kept = all.filter(|(&k, _)| !(self.has(Fault::ExclusiveHi) && k == hi));
            Ok(kept.map(|(&k, &v)| Record::new(k, v)).collect())
        }
        fn insert_impl(&mut self, key: Key, value: Value) -> Result<()> {
            if self.has(Fault::Refusing) && key == Key::MAX {
                return Err(RumError::InvalidArgument("reserved".into()));
            }
            if self.has(Fault::ChargedRefusal) && key == 9 {
                self.tracker.write_records(1);
                return Err(RumError::InvalidArgument("reserved".into()));
            }
            if !(self.has(Fault::DropInsert) && key == 7) {
                self.data.insert(key, value);
            }
            Ok(())
        }
        fn update_impl(&mut self, key: Key, value: Value) -> Result<bool> {
            if self.has(Fault::Refusing) {
                return Err(RumError::Transient("update".into()));
            }
            Ok(self.data.get_mut(&key).map(|v| *v = value).is_some())
        }
        fn delete_impl(&mut self, key: Key) -> Result<bool> {
            self.deleted = true;
            Ok(self.data.remove(&key).is_some())
        }
        fn bulk_load_impl(&mut self, records: &[Record]) -> Result<()> {
            self.data = records.iter().map(|r| (r.key, r.value)).collect();
            Ok(())
        }
    }

    const OPS: [Op; 10] = [
        Op::Insert(3, 30),
        Op::Insert(7, 70),
        Op::Get(3),
        Op::Range(3, 7),
        Op::Update(7, 71),
        Op::Delete(3),
        Op::Get(7),
        Op::Insert(9, 90),
        Op::Range(9, 7),
        Op::Delete(5),
    ];

    fn run(fault: Option<Fault>, initial: Vec<Record>) -> Verdict {
        check(&mut Faulty::new(fault), (initial, OPS.into_iter()))
    }

    #[test]
    fn a_correct_method_passes_from_empty_and_from_a_bulk_load() {
        assert_eq!(run(None, vec![]), Ok(()));
        assert_eq!(
            run(None, vec![Record::new(1, 1), Record::new(5, 5)]),
            Ok(())
        );
    }

    #[test]
    fn each_fault_is_reported_at_its_step_and_op() {
        use Observed::{Answer, BaseBytes, Len};
        let range = |records: &[Record]| Answer(Ok(OpAnswer::Range(records.to_vec())));
        let (r3, r7) = (Record::new(3, 30), Record::new(7, 70));
        let cases = [
            (Fault::DropInsert, 1, Len(1), Len(2)),
            (Fault::ExclusiveHi, 3, range(&[r3]), range(&[r3, r7])),
            (Fault::LenDrift, 5, Len(2), Len(1)),
            (Fault::ExtraBase, 7, BaseBytes(48), BaseBytes(32)),
        ];
        for (fault, step, got, want) in cases {
            let d = run(Some(fault), vec![]).expect_err("the fault must be seen");
            let op = OPS[step];
            let expected = Divergence {
                step,
                op,
                got,
                want,
            };
            assert_eq!(d, expected, "{fault:?}");
            assert_eq!(d.refusal(), None);
        }
        let d = run(Some(Fault::TrackerReset), vec![]).expect_err("the reset must be seen");
        assert_eq!((d.step, d.op), (6, OPS[6]));
        let (Observed::Counters(got), Observed::Counters(want)) = (&d.got, &d.want) else {
            panic!("expected a counters divergence, got {d:?}");
        };
        assert!(got.logical_write_bytes < want.logical_write_bytes);
        let d = run(Some(Fault::ChargedRefusal), vec![]).expect_err("the charge must be seen");
        assert_eq!((d.step, d.op), (7, OPS[7]));
        let (Observed::Counters(got), Observed::Counters(want)) = (&d.got, &d.want) else {
            panic!("expected a counters divergence, got {d:?}");
        };
        assert_eq!(got.delta(want).base_write_bytes, base_bytes(1));
    }

    #[test]
    fn a_methods_own_error_comes_back_with_the_model_untouched() {
        let mut m = Faulty::new(Some(Fault::Refusing));
        let mut oracle = Oracle::load(&mut m, &[]).unwrap();
        oracle.step(&mut m, Op::Insert(1, 10)).unwrap();
        // The refusal the contract allows: the model skips the op.
        oracle.step(&mut m, Op::Insert(Key::MAX, 1)).unwrap();
        // Any other error is the method's own: same step, model as it was.
        for _ in 0..2 {
            let d = oracle.step(&mut m, Op::Update(1, 11)).unwrap_err();
            assert_eq!(d.step, 2);
            assert_eq!(d.refusal(), Some(&RumError::Transient("update".into())));
            assert_eq!(d.want, Observed::Answer(Ok(OpAnswer::Applied(true))));
        }
        oracle.step(&mut m, Op::Get(1)).unwrap();
        let held: Vec<Record> = oracle.model.records().collect();
        assert_eq!(held, [Record::new(1, 10)]);
        oracle.finish(&mut m).unwrap();
    }

    #[test]
    fn the_model_refuses_the_tombstone_value() {
        let mut model = Model::default();
        model.apply(Op::Insert(1, 1));
        for op in [Op::Insert(2, TOMBSTONE), Op::Update(1, TOMBSTONE)] {
            assert!(
                matches!(model.answer(op), Err(RumError::InvalidArgument(_))),
                "{op:?}"
            );
        }
    }

    #[test]
    fn hostile_streams_are_seeded_and_carry_every_edge() {
        let stream = hostile_ops(7, 480, 100);
        assert_eq!(stream.ops, hostile_ops(7, 480, 100).ops);
        assert_ne!(stream.ops, hostile_ops(8, 480, 100).ops);
        assert!(stream.initial.is_empty());
        let point = |key: Key| {
            stream.ops.iter().any(|op| match *op {
                Op::Get(k) | Op::Delete(k) | Op::Insert(k, _) | Op::Update(k, _) => k == key,
                Op::Range(..) => false,
            })
        };
        assert!(point(0) && point(Key::MAX - 1) && point(Key::MAX));
        let range = |pred: fn(Key, Key) -> bool| {
            let mut ops = stream.ops.iter();
            ops.any(|op| matches!(*op, Op::Range(lo, hi) if pred(lo, hi)))
        };
        assert!(range(|lo, hi| lo > hi), "an inverted range");
        assert!(range(|lo, hi| lo < hi && hi == Key::MAX), "an open range");
        // Keys come from the domain, not the live set: writes miss too.
        let mut model = Model::default();
        let mut applied = [0usize; 2];
        for &op in &stream.ops {
            if let Ok(OpAnswer::Applied(hit)) = model.answer(op) {
                applied[usize::from(hit)] += 1;
            }
            model.apply(op);
        }
        assert!(
            applied.iter().all(|&n| n > 30),
            "[missed, hit] = {applied:?}"
        );
    }
}
