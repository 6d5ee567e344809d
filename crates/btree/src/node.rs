//! B+-tree node layout: fixed-size byte buffers of `node_size` bytes.
//!
//! ```text
//! internal: [tag:u8][pad:u8][count:u16][pad:u32]
//!           [keys: count × u64][children: (count+1) × u64]
//! leaf:     [tag:u8][pad:u8][count:u16][pad:u32][next: u64]
//!           [records: count × 16B]
//! ```

use rum_core::{
    encode_records, insert_record_at, remove_record_at, Key, Record, RecordSlice, Result, RumError,
    Value, RECORD_SIZE,
};

/// Identifier of a node within a [`NodeStore`](crate::store::NodeStore).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

impl NodeId {
    pub const INVALID: NodeId = NodeId(u64::MAX);

    #[inline]
    pub fn is_valid(&self) -> bool {
        *self != NodeId::INVALID
    }
}

const TAG_INTERNAL: u8 = 1;
const TAG_LEAF: u8 = 2;
const HEADER: usize = 8;
const LEAF_HEADER: usize = 16; // header + next pointer

/// Maximum keys an internal node of `node_size` bytes can hold.
pub const fn internal_capacity(node_size: usize) -> usize {
    // HEADER + cap*8 (keys) + (cap+1)*8 (children) <= node_size
    (node_size - HEADER - 8) / 16
}

/// Maximum records a leaf of `node_size` bytes can hold.
pub const fn leaf_capacity(node_size: usize) -> usize {
    (node_size - LEAF_HEADER) / RECORD_SIZE
}

/// A decoded B+-tree node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Node {
    Internal {
        /// Separator keys; `children[i]` covers keys `< keys[i]`,
        /// `children[len]` covers the rest.
        keys: Vec<Key>,
        children: Vec<NodeId>,
    },
    Leaf {
        /// Records sorted by strictly ascending key.
        records: Vec<Record>,
        /// Right sibling for range scans.
        next: NodeId,
    },
}

impl Node {
    pub fn empty_leaf() -> Node {
        Node::Leaf {
            records: Vec::new(),
            next: NodeId::INVALID,
        }
    }

    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

    /// Entry count (keys for internal, records for leaf).
    pub fn count(&self) -> usize {
        match self {
            Node::Internal { keys, .. } => keys.len(),
            Node::Leaf { records, .. } => records.len(),
        }
    }

    /// Serialize into a `node_size` buffer.
    pub fn encode(&self, node_size: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; node_size];
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Serialize into `buf`, which is the node (`buf.len()` is its
    /// `node_size`): every byte of it is written, so a reused buffer needs
    /// no clearing.
    pub fn encode_into(&self, buf: &mut [u8]) -> Result<()> {
        let node_size = buf.len();
        match self {
            Node::Internal { keys, children } => {
                if keys.len() > internal_capacity(node_size) {
                    return Err(RumError::Corrupt(format!(
                        "internal node with {} keys exceeds capacity {}",
                        keys.len(),
                        internal_capacity(node_size)
                    )));
                }
                if children.len() != keys.len() + 1 {
                    return Err(RumError::Corrupt(format!(
                        "internal node: {} keys but {} children",
                        keys.len(),
                        children.len()
                    )));
                }
                // Keys and children leave gaps at fixed offsets.
                buf.fill(0);
                buf[0] = TAG_INTERNAL;
                buf[2..4].copy_from_slice(&(keys.len() as u16).to_le_bytes());
                let cap = internal_capacity(node_size);
                for (i, k) in keys.iter().enumerate() {
                    let off = HEADER + i * 8;
                    buf[off..off + 8].copy_from_slice(&k.to_le_bytes());
                }
                let child_base = HEADER + cap * 8;
                for (i, c) in children.iter().enumerate() {
                    let off = child_base + i * 8;
                    buf[off..off + 8].copy_from_slice(&c.0.to_le_bytes());
                }
            }
            Node::Leaf { records, next } => {
                if records.len() > leaf_capacity(node_size) {
                    return Err(RumError::Corrupt(format!(
                        "leaf with {} records exceeds capacity {}",
                        records.len(),
                        leaf_capacity(node_size)
                    )));
                }
                buf[..HEADER].fill(0);
                buf[0] = TAG_LEAF;
                buf[2..4].copy_from_slice(&(records.len() as u16).to_le_bytes());
                buf[8..16].copy_from_slice(&next.0.to_le_bytes());
                encode_records(buf, LEAF_HEADER, records);
            }
        }
        Ok(())
    }

    /// Deserialize from a `node_size` buffer.
    ///
    /// Every field read is bounds-checked: a short or bit-damaged buffer
    /// (e.g. a page flipped behind a checksum seal) yields
    /// [`RumError::Corrupt`], never a panic and never garbage records.
    pub fn decode(buf: &[u8]) -> Result<Node> {
        let node_size = buf.len();
        if node_size < LEAF_HEADER {
            return Err(RumError::Corrupt(format!(
                "node buffer of {node_size} bytes is shorter than the \
                 {LEAF_HEADER}-byte header"
            )));
        }
        let count = u16::from_le_bytes([buf[2], buf[3]]) as usize;
        match buf[0] {
            TAG_INTERNAL => {
                let cap = internal_capacity(node_size);
                if count > cap {
                    return Err(RumError::Corrupt(format!(
                        "internal count {count} exceeds capacity {cap}"
                    )));
                }
                let mut keys = Vec::with_capacity(count);
                for i in 0..count {
                    keys.push(read_u64(buf, HEADER + i * 8)?);
                }
                let child_base = HEADER + cap * 8;
                let mut children = Vec::with_capacity(count + 1);
                for i in 0..=count {
                    children.push(NodeId(read_u64(buf, child_base + i * 8)?));
                }
                Ok(Node::Internal { keys, children })
            }
            TAG_LEAF => {
                if count > leaf_capacity(node_size) {
                    return Err(RumError::Corrupt(format!(
                        "leaf count {count} exceeds capacity {}",
                        leaf_capacity(node_size)
                    )));
                }
                let next = NodeId(read_u64(buf, 8)?);
                let mut records = Vec::with_capacity(count);
                for i in 0..count {
                    let off = LEAF_HEADER + i * RECORD_SIZE;
                    let Some(bytes) = buf.get(off..off + RECORD_SIZE) else {
                        return Err(RumError::Corrupt(format!(
                            "leaf record {i} runs past the {node_size}-byte buffer"
                        )));
                    };
                    records.push(Record::decode(bytes));
                }
                Ok(Node::Leaf { records, next })
            }
            t => Err(RumError::Corrupt(format!("unknown node tag {t}"))),
        }
    }
}

/// A validated node searched where its encoded bytes lie — what the read
/// path uses instead of [`Node::decode`], which stays as the reference
/// decoder. Its writing twin is [`LeafMut`]; only a split, which builds
/// new nodes, still wants owned ones ([`NodeRef::to_node`]).
#[derive(Clone, Copy, Debug)]
pub enum NodeRef<'a> {
    Internal(InternalRef<'a>),
    Leaf {
        /// Records sorted by strictly ascending key.
        records: RecordSlice<'a>,
        /// Right sibling for range scans.
        next: NodeId,
    },
}

/// The separator keys and child pointers of an encoded internal node;
/// there is always exactly one more child than keys.
#[derive(Clone, Copy, Debug)]
pub struct InternalRef<'a> {
    keys: &'a [[u8; 8]],
    children: &'a [[u8; 8]],
}

impl<'a> NodeRef<'a> {
    /// Validate a `node_size` buffer in place. Accepts exactly the buffers
    /// [`Node::decode`] accepts and fails with the same
    /// [`RumError::Corrupt`] on the rest: short, bit-damaged or garbled
    /// bytes are refused before any search runs over them.
    pub fn new(buf: &'a [u8]) -> Result<NodeRef<'a>> {
        let node_size = buf.len();
        if node_size < LEAF_HEADER {
            return Err(RumError::Corrupt(format!(
                "node buffer of {node_size} bytes is shorter than the \
                 {LEAF_HEADER}-byte header"
            )));
        }
        let count = u16::from_le_bytes([buf[2], buf[3]]) as usize;
        match buf[0] {
            TAG_INTERNAL => {
                let cap = internal_capacity(node_size);
                if count > cap {
                    return Err(RumError::Corrupt(format!(
                        "internal count {count} exceeds capacity {cap}"
                    )));
                }
                let keys = field(buf, HEADER, count * 8)?;
                let children = field(buf, HEADER + cap * 8, (count + 1) * 8)?;
                Ok(NodeRef::Internal(InternalRef {
                    keys: keys.as_chunks().0,
                    children: children.as_chunks().0,
                }))
            }
            TAG_LEAF => {
                if count > leaf_capacity(node_size) {
                    return Err(RumError::Corrupt(format!(
                        "leaf count {count} exceeds capacity {}",
                        leaf_capacity(node_size)
                    )));
                }
                let next = NodeId(read_u64(buf, 8)?);
                let records = field(buf, LEAF_HEADER, count * RECORD_SIZE)?;
                Ok(NodeRef::Leaf {
                    records: RecordSlice::new(records),
                    next,
                })
            }
            t => Err(RumError::Corrupt(format!("unknown node tag {t}"))),
        }
    }

    /// The owned node these bytes encode — what [`Node::decode`] returns.
    pub fn to_node(&self) -> Node {
        match self {
            NodeRef::Internal(n) => Node::Internal {
                keys: n.keys().collect(),
                children: n.children().collect(),
            },
            NodeRef::Leaf { records, next } => Node::Leaf {
                records: records.iter().collect(),
                next: *next,
            },
        }
    }
}

/// A validated leaf edited where its encoded bytes lie — what a write that
/// stays inside one leaf uses instead of decoding it into a [`Node`] and
/// encoding that back. After every edit the bytes are exactly what
/// [`Node::encode`] writes for the edited leaf.
#[derive(Debug)]
pub struct LeafMut<'a> {
    buf: &'a mut [u8],
    count: usize,
}

impl<'a> LeafMut<'a> {
    /// Validate a `node_size` buffer as [`NodeRef::new`] does, refusing
    /// the same bytes with the same [`RumError::Corrupt`]; `Ok(None)` when
    /// it is a valid internal node.
    pub fn new(buf: &'a mut [u8]) -> Result<Option<LeafMut<'a>>> {
        let count = match NodeRef::new(buf)? {
            NodeRef::Leaf { records, .. } => records.len(),
            NodeRef::Internal(_) => return Ok(None),
        };
        Ok(Some(LeafMut { buf, count }))
    }

    /// Records sorted by strictly ascending key.
    pub fn records(&self) -> RecordSlice<'_> {
        RecordSlice::new(&self.buf[LEAF_HEADER..LEAF_HEADER + self.count * RECORD_SIZE])
    }

    /// Right sibling for range scans.
    pub fn next(&self) -> NodeId {
        NodeId(u64::from_le_bytes(
            self.buf[8..16].try_into().expect("validated header"),
        ))
    }

    /// Whether the leaf holds as many records as fit.
    pub fn is_full(&self) -> bool {
        self.count >= leaf_capacity(self.buf.len())
    }

    /// Overwrite the value of record `i`.
    pub fn set_value(&mut self, i: usize, value: Value) {
        assert!(i < self.count, "record {i} of {}", self.count);
        let off = LEAF_HEADER + i * RECORD_SIZE + 8;
        self.buf[off..off + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Insert `rec` as record `i`. Panics if the leaf is full.
    pub fn insert(&mut self, i: usize, rec: Record) {
        assert!(!self.is_full(), "insert into a full leaf");
        insert_record_at(&mut self.buf[LEAF_HEADER..], self.count, i, rec);
        self.set_count(self.count + 1);
    }

    /// Remove record `i`.
    pub fn remove(&mut self, i: usize) {
        remove_record_at(&mut self.buf[LEAF_HEADER..], self.count, i);
        self.set_count(self.count - 1);
    }

    fn set_count(&mut self, count: usize) {
        self.count = count;
        self.buf[2..4].copy_from_slice(&(count as u16).to_le_bytes());
    }
}

impl<'a> InternalRef<'a> {
    /// Separator keys in the node.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    pub fn keys(&self) -> impl ExactSizeIterator<Item = Key> + 'a {
        self.keys.iter().map(|k| Key::from_le_bytes(*k))
    }

    pub fn children(&self) -> impl ExactSizeIterator<Item = NodeId> + 'a {
        self.children.iter().map(|c| NodeId(u64::from_le_bytes(*c)))
    }

    /// Child slot covering `key`: child `i` covers keys `< keys[i]`, the
    /// last child the rest.
    pub fn slot_for(&self, key: Key) -> usize {
        self.keys.partition_point(|k| Key::from_le_bytes(*k) <= key)
    }

    /// The child in `slot`, `None` past the last one.
    pub fn child(&self, slot: usize) -> Option<NodeId> {
        self.children
            .get(slot)
            .map(|c| NodeId(u64::from_le_bytes(*c)))
    }

    /// The child covering `key`.
    pub fn child_for(&self, key: Key) -> NodeId {
        self.child(self.slot_for(key))
            .expect("one more child than keys, so every slot has one")
    }
}

/// Bounds-checked `len`-byte field at `off`.
fn field(buf: &[u8], off: usize, len: usize) -> Result<&[u8]> {
    buf.get(off..off + len).ok_or_else(|| {
        RumError::Corrupt(format!(
            "node field at offset {off} runs past the {}-byte buffer",
            buf.len()
        ))
    })
}

/// Bounds-checked little-endian u64 field read.
fn read_u64(buf: &[u8], off: usize) -> Result<u64> {
    let bytes = field(buf, off, 8)?;
    Ok(u64::from_le_bytes(
        bytes
            .try_into()
            .expect("field() returned the 8 bytes asked for"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_at_page_size() {
        assert_eq!(internal_capacity(4096), 255);
        assert_eq!(leaf_capacity(4096), 255);
        // Sub-page and multi-page nodes.
        assert_eq!(leaf_capacity(512), 31);
        assert_eq!(leaf_capacity(16384), 1023);
    }

    #[test]
    fn leaf_roundtrip() {
        let n = Node::Leaf {
            records: (0..100).map(|k| Record::new(k, k * 3)).collect(),
            next: NodeId(42),
        };
        let buf = n.encode(4096).unwrap();
        assert_eq!(Node::decode(&buf).unwrap(), n);
    }

    #[test]
    fn internal_roundtrip() {
        let n = Node::Internal {
            keys: vec![10, 20, 30],
            children: vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)],
        };
        let buf = n.encode(4096).unwrap();
        assert_eq!(Node::decode(&buf).unwrap(), n);
    }

    #[test]
    fn roundtrip_at_odd_node_sizes() {
        for size in [256usize, 512, 1000, 4096, 8192] {
            let cap = leaf_capacity(size);
            let n = Node::Leaf {
                records: (0..cap as u64).map(|k| Record::new(k, k)).collect(),
                next: NodeId::INVALID,
            };
            let buf = n.encode(size).unwrap();
            assert_eq!(buf.len(), size);
            assert_eq!(Node::decode(&buf).unwrap(), n);

            let icap = internal_capacity(size);
            let n = Node::Internal {
                keys: (0..icap as u64).collect(),
                children: (0..=icap as u64).map(NodeId).collect(),
            };
            assert_eq!(Node::decode(&n.encode(size).unwrap()).unwrap(), n);
        }
    }

    #[test]
    fn overflow_is_rejected() {
        let n = Node::Leaf {
            records: (0..300).map(|k| Record::new(k, k)).collect(),
            next: NodeId::INVALID,
        };
        assert!(n.encode(4096).is_err());
    }

    #[test]
    fn mismatched_children_rejected() {
        let n = Node::Internal {
            keys: vec![1, 2],
            children: vec![NodeId(1), NodeId(2)], // should be 3
        };
        assert!(n.encode(4096).is_err());
    }

    #[test]
    fn garbage_tag_rejected() {
        let buf = vec![9u8; 4096];
        assert!(Node::decode(&buf).is_err());
    }

    #[test]
    fn short_or_garbled_buffers_error_instead_of_panicking() {
        // Truncated buffers at every length below the leaf header.
        for len in 0..LEAF_HEADER {
            let mut buf = vec![0u8; len];
            if len > 0 {
                buf[0] = TAG_LEAF;
            }
            assert!(Node::decode(&buf).is_err(), "len {len}");
        }
        // A bit-damaged count field claims more entries than fit.
        for tag in [TAG_INTERNAL, TAG_LEAF] {
            let mut buf = vec![0u8; 64];
            buf[0] = tag;
            buf[2..4].copy_from_slice(&u16::MAX.to_le_bytes());
            match Node::decode(&buf) {
                Err(RumError::Corrupt(_)) => {}
                other => panic!("tag {tag}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn leaf_edits_in_place_write_what_encode_writes() {
        for size in [256usize, 4096] {
            let cap = leaf_capacity(size);
            for count in [0, 1, 2, cap / 2, cap - 1, cap] {
                let records: Vec<Record> = (0..count as u64)
                    .map(|k| Record::new(k * 2 + 1, k))
                    .collect();
                let encoded = |records: Vec<Record>| {
                    Node::Leaf {
                        records,
                        next: NodeId(9),
                    }
                    .encode(size)
                    .unwrap()
                };
                let edited = |edit: &dyn Fn(&mut LeafMut<'_>)| {
                    let mut bytes = encoded(records.clone());
                    let mut leaf = LeafMut::new(&mut bytes).unwrap().unwrap();
                    assert_eq!(leaf.records().iter().collect::<Vec<_>>(), records);
                    assert_eq!(leaf.next(), NodeId(9));
                    assert_eq!(leaf.is_full(), count == cap);
                    edit(&mut leaf);
                    bytes
                };
                for i in (0..=count).step_by(count / 3 + 1) {
                    if count < cap {
                        let mut want = records.clone();
                        want.insert(i, Record::new(2 * i as u64, 77));
                        let got = edited(&|l| l.insert(i, Record::new(2 * i as u64, 77)));
                        assert_eq!(got, encoded(want), "size {size}: insert at {i} of {count}");
                    }
                    if i < count {
                        let mut want = records.clone();
                        want[i].value = 55;
                        assert_eq!(edited(&|l| l.set_value(i, 55)), encoded(want));
                        let mut want = records.clone();
                        want.remove(i);
                        let got = edited(&|l| l.remove(i));
                        assert_eq!(got, encoded(want), "size {size}: remove {i} of {count}");
                    }
                }
            }
        }
    }

    #[test]
    fn leaf_mut_refuses_what_node_ref_refuses() {
        let internal = Node::Internal {
            keys: vec![5],
            children: vec![NodeId(1), NodeId(2)],
        };
        let mut bytes = internal.encode(4096).unwrap();
        assert!(LeafMut::new(&mut bytes).unwrap().is_none());
        for tag in [TAG_INTERNAL, TAG_LEAF, 7] {
            let mut buf = vec![0u8; 64];
            buf[0] = tag;
            buf[2..4].copy_from_slice(&u16::MAX.to_le_bytes());
            let want = NodeRef::new(&buf).map(|_| ()).unwrap_err();
            assert_eq!(LeafMut::new(&mut buf).unwrap_err(), want, "tag {tag}");
        }
        assert!(LeafMut::new(&mut [TAG_LEAF; 8]).is_err(), "short buffer");
    }

    #[test]
    fn encode_into_a_reused_buffer_overwrites_every_byte() {
        let leaf = Node::Leaf {
            records: (0..3).map(|k| Record::new(k, k)).collect(),
            next: NodeId(4),
        };
        let internal = Node::Internal {
            keys: vec![10, 20],
            children: vec![NodeId(1), NodeId(2), NodeId(3)],
        };
        for node in [leaf, internal] {
            let mut buf = vec![0xEEu8; 512];
            node.encode_into(&mut buf).unwrap();
            assert_eq!(buf, node.encode(512).unwrap());
        }
    }

    #[test]
    fn empty_leaf_roundtrip() {
        let n = Node::empty_leaf();
        let buf = n.encode(256).unwrap();
        let d = Node::decode(&buf).unwrap();
        assert_eq!(d, n);
        assert_eq!(d.count(), 0);
        assert!(d.is_leaf());
    }
}
