//! Property-based differential testing of the B+-tree against a model,
//! across node sizes and operation interleavings.

use proptest::prelude::*;
use rum_btree::node::{internal_capacity, leaf_capacity};
use rum_btree::{BTree, BTreeConfig, Node, NodeId, NodeRef, SplitPolicy};
use rum_core::oracle::check;
use rum_core::workload::Op;
use rum_core::{AccessMethod, Record};

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k as u64, v)),
        (any::<u16>(), any::<u64>()).prop_map(|(k, v)| Op::Update(k as u64, v)),
        any::<u16>().prop_map(|k| Op::Delete(k as u64)),
        any::<u16>().prop_map(|k| Op::Get(k as u64)),
        (any::<u16>(), 0u16..64).prop_map(|(lo, s)| Op::Range(lo as u64, lo as u64 + s as u64)),
    ]
}

fn run_ops(config: BTreeConfig, ops: Vec<Op>) {
    let mut tree = BTree::with_config(config);
    check(&mut tree, (Vec::new(), ops.into_iter())).unwrap();
}

/// A valid node encoding at `node_size`, filled to `fill` of capacity with
/// ascending keys drawn from `seed`.
fn encoded_node(node_size: usize, leaf: bool, fill: f64, seed: u64) -> Vec<u8> {
    let mut x = seed;
    let mut next = move || {
        x = x
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        x >> 20
    };
    let mut key = next() % 1000;
    let mut ascending = |next: &mut dyn FnMut() -> u64| {
        key += 1 + next() % 1000;
        key
    };
    let node = if leaf {
        let n = (leaf_capacity(node_size) as f64 * fill) as usize;
        Node::Leaf {
            records: (0..n)
                .map(|_| Record::new(ascending(&mut next), next()))
                .collect(),
            next: NodeId(next()),
        }
    } else {
        let n = (internal_capacity(node_size) as f64 * fill) as usize;
        Node::Internal {
            keys: (0..n).map(|_| ascending(&mut next)).collect(),
            children: (0..=n).map(|_| NodeId(next())).collect(),
        }
    };
    node.encode(node_size).unwrap()
}

/// What the read path asks of a lent node, answered by decode-then-search.
fn assert_searches_agree(node: &Node, lent: NodeRef<'_>, probe: u64) {
    match (node, lent) {
        (Node::Internal { keys, children }, NodeRef::Internal(lent)) => {
            let slot = keys.partition_point(|&k| k <= probe);
            assert_eq!(lent.slot_for(probe), slot);
            assert_eq!(lent.child(slot), Some(children[slot]));
            assert_eq!(lent.child_for(probe), children[slot]);
            assert_eq!(lent.child(children.len()), None);
        }
        (
            Node::Leaf { records, next },
            NodeRef::Leaf {
                records: lent,
                next: lent_next,
            },
        ) => {
            assert_eq!(lent_next, *next);
            assert_eq!(&lent.iter().collect::<Vec<_>>(), records);
            let at = records.partition_point(|r| r.key < probe);
            let want = records.get(at).filter(|r| r.key == probe);
            assert_eq!(lent.lower_bound(probe), at);
            assert_eq!(lent.find(probe), want.map(|r| r.value));
            assert_eq!(lent.search(probe).is_ok(), want.is_some());
            if records.windows(2).all(|w| w[0].key < w[1].key) {
                // Undamaged order: also what the slice binary search says.
                assert_eq!(
                    lent.search(probe),
                    records.binary_search_by_key(&probe, |r| r.key)
                );
            }
        }
        (node, lent) => panic!("decode says {node:?}, NodeRef says {lent:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `NodeRef::new` accepts exactly what `Node::decode` accepts — valid
    /// encodings, and the same with bytes flipped or the tail cut off —
    /// fails with the same error on the rest, and answers every search
    /// the way decode-then-search does.
    #[test]
    fn node_ref_equals_decode_including_hostile_bytes(
        shape in (0usize..3, any::<bool>(), 0.0f64..1.0, any::<u64>()),
        flips in proptest::collection::vec((any::<bool>(), any::<u32>(), any::<u8>()), 0..6),
        recount in prop_oneof![3 => Just(None), 1 => (0usize..5).prop_map(Some)],
        cut in prop_oneof![3 => Just(None), 1 => any::<u32>().prop_map(Some)],
        probes in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let (size, leaf, fill, seed) = shape;
        let node_size = [512, 4096, 16384][size];
        let mut buf = encoded_node(node_size, leaf, fill, seed);
        for (in_header, at, bits) in flips {
            // Half the damage lands on the tag, count and next fields.
            let at = at as usize % if in_header { 16 } else { buf.len() };
            buf[at] ^= bits;
        }
        if let Some(delta) = recount {
            // A count within two of what the node can hold, either side.
            let cap = if leaf { leaf_capacity(node_size) } else { internal_capacity(node_size) };
            buf[2..4].copy_from_slice(&((cap + delta - 2) as u16).to_le_bytes());
        }
        if let Some(len) = cut {
            buf.truncate(len as usize % (buf.len() + 1));
        }
        match (Node::decode(&buf), NodeRef::new(&buf)) {
            (Err(want), Err(got)) => prop_assert_eq!(got, want),
            (Ok(node), Ok(lent)) => {
                prop_assert_eq!(&lent.to_node(), &node);
                // Random probes, plus keys the node holds and their neighbours.
                let held: Vec<u64> = match &node {
                    Node::Internal { keys, .. } => keys.clone(),
                    Node::Leaf { records, .. } => records.iter().map(|r| r.key).collect(),
                };
                let near = probes
                    .iter()
                    .filter_map(|p| held.get(*p as usize % held.len().max(1)).copied())
                    .flat_map(|k| [k.wrapping_sub(1), k, k.wrapping_add(1)]);
                for probe in probes.iter().copied().chain(near).chain([0, u64::MAX]) {
                    assert_searches_agree(&node, lent, probe);
                }
            }
            (want, got) => prop_assert!(false, "decode says {want:?}, NodeRef says {got:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tree_matches_model_default_nodes(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        run_ops(BTreeConfig::default(), ops);
    }

    #[test]
    fn tree_matches_model_tiny_nodes(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        // 256-byte nodes force frequent splits at every level.
        run_ops(
            BTreeConfig {
                node_size: 256,
                ..Default::default()
            },
            ops,
        );
    }

    #[test]
    fn tree_matches_model_right_heavy(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        run_ops(
            BTreeConfig {
                node_size: 512,
                split_policy: SplitPolicy::RightHeavy,
                ..Default::default()
            },
            ops,
        );
    }

    #[test]
    fn bulk_load_equals_insert_loading(
        mut keys in proptest::collection::btree_set(any::<u32>(), 1..500),
        fill in 0.4f64..1.0,
    ) {
        let records: Vec<Record> = keys
            .iter()
            .map(|&k| Record::new(k as u64, k as u64 + 1))
            .collect();
        let mut bulk = BTree::with_config(BTreeConfig {
            fill_factor: fill,
            ..Default::default()
        });
        bulk.bulk_load(&records).unwrap();
        let mut incr = BTree::new();
        for r in &records {
            incr.insert(r.key, r.value).unwrap();
        }
        prop_assert_eq!(
            bulk.range(0, u64::MAX).unwrap(),
            incr.range(0, u64::MAX).unwrap()
        );
        keys.clear();
    }
}
