//! Node storage: maps logical nodes onto one or more 4 KiB pages.
//!
//! A node of `node_size` bytes occupies `ceil(node_size / PAGE_SIZE)`
//! pages; every node access charges all of them — which is exactly how a
//! larger node buys fewer levels (lower RO in probes) at the price of more
//! bytes per touch (higher RO in bytes and higher UO per update). This is
//! the node-size axis of the paper's §5 tunable B-tree.

use std::sync::Arc;

use rum_core::{CostTracker, DataClass, Result, RumError, PAGE_SIZE};
use rum_storage::{BlockDevice, PageBuf, PageId, Pager};

use crate::node::{Node, NodeId, NodeRef};

/// Allocates, reads and writes nodes over a [`Pager`].
pub struct NodeStore<D: BlockDevice> {
    pager: Pager<D>,
    node_size: usize,
    directory: Directory,
    /// Where a multi-page node's pages are put side by side to be read as
    /// one buffer; reused across reads. Single-page nodes never touch it.
    scratch: Vec<u8>,
    /// The one page buffer a whole-node write is encoded into, reused.
    page: PageBuf,
}

impl<D: BlockDevice> NodeStore<D> {
    pub fn new(device: D, tracker: Arc<CostTracker>, node_size: usize) -> Self {
        assert!(node_size >= 64, "node_size must be at least 64 bytes");
        NodeStore {
            pager: Pager::new(device, tracker),
            node_size,
            directory: Directory {
                pages: Vec::new(),
                per_node: node_size.div_ceil(PAGE_SIZE),
                live: 0,
            },
            scratch: Vec::new(),
            page: PageBuf::zeroed(),
        }
    }

    pub fn node_size(&self) -> usize {
        self.node_size
    }

    pub fn pager(&self) -> &Pager<D> {
        &self.pager
    }

    pub fn pager_mut(&mut self) -> &mut Pager<D> {
        &mut self.pager
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.directory.live
    }

    /// Physical bytes occupied (pages are the allocation unit, so sub-page
    /// nodes still burn whole pages — their slack is real MO).
    pub fn physical_bytes(&self) -> u64 {
        self.pager.physical_bytes() + self.directory_bytes()
    }

    /// In-memory directory overhead.
    pub fn directory_bytes(&self) -> u64 {
        (self.directory.live * (8 + self.directory.per_node * 8)) as u64
    }

    /// Allocate an empty node: the next id, and fresh pages for it.
    pub fn allocate(&mut self) -> Result<NodeId> {
        let start = self.directory.pages.len();
        for _ in 0..self.directory.per_node {
            match self.pager.allocate() {
                Ok(page) => self.directory.pages.push(page),
                Err(e) => {
                    self.directory.pages.truncate(start);
                    return Err(e);
                }
            }
        }
        self.directory.live += 1;
        Ok(NodeId((start / self.directory.per_node) as u64))
    }

    /// Free a node and its pages.
    pub fn free(&mut self, id: NodeId) -> Result<()> {
        let slots = self
            .directory
            .slots(id)
            .ok_or_else(|| RumError::Storage(format!("free of unknown node {id:?}")))?;
        self.directory.live -= 1;
        for slot in slots {
            let page = std::mem::replace(&mut self.directory.pages[slot], PageId::INVALID);
            self.pager.free(page)?;
        }
        Ok(())
    }

    /// The device pages holding node `id`, for tests that damage them
    /// behind the store's back.
    #[cfg(test)]
    pub(crate) fn pages_of(&self, id: NodeId) -> &[PageId] {
        self.directory.get(id).expect("a live node")
    }

    /// Lend a validated node to `f`, charging `pages_per_node` page
    /// accesses of `class` traffic. A single-page node is searched in the
    /// device's own buffer; a multi-page node is first assembled in the
    /// store's scratch buffer. `f` does not run if any page fails to read
    /// or the bytes are not a node ([`RumError::Corrupt`]).
    pub fn with_node<R>(
        &mut self,
        id: NodeId,
        class: DataClass,
        f: impl FnOnce(NodeRef<'_>) -> R,
    ) -> Result<R> {
        let pages = self
            .directory
            .get(id)
            .ok_or_else(|| RumError::Storage(format!("read of unknown node {id:?}")))?;
        // Sub-page nodes are the node_size prefix of their page.
        let node_size = self.node_size;
        if let [page] = pages[..] {
            return self.pager.with_page(page, class, |bytes| {
                NodeRef::new(&bytes[..node_size.min(bytes.len())]).map(f)
            })?;
        }
        let scratch = &mut self.scratch;
        scratch.clear();
        for &page in pages {
            self.pager
                .with_page(page, class, |bytes| scratch.extend_from_slice(bytes))?;
        }
        NodeRef::new(&scratch[..node_size.min(scratch.len())]).map(f)
    }

    /// Edit node `id` where the device holds it: `f` gets its `node_size`
    /// bytes, unvalidated, and returns its answer and whether it changed
    /// them. Charged as `pages_per_node` page reads and, if the node
    /// changed, `pages_per_node` page writes, as
    /// [`with_node`](Self::with_node) followed by [`write`](Self::write)
    /// would be. A single-page node is edited in the device's own buffer
    /// ([`Pager::with_page_mut`]); a multi-page one is assembled in the
    /// scratch buffer, edited there and written back page by page.
    pub fn edit_node<R>(
        &mut self,
        id: NodeId,
        class: DataClass,
        f: impl FnOnce(&mut [u8]) -> (R, bool),
    ) -> Result<R> {
        let pages = self
            .directory
            .get(id)
            .ok_or_else(|| RumError::Storage(format!("edit of unknown node {id:?}")))?;
        let node_size = self.node_size;
        if let [page] = pages[..] {
            return self.pager.with_page_mut(page, class, |bytes| {
                let len = node_size.min(bytes.len());
                f(&mut bytes[..len])
            });
        }
        let scratch = &mut self.scratch;
        scratch.clear();
        for &page in pages {
            self.pager
                .with_page(page, class, |bytes| scratch.extend_from_slice(bytes))?;
        }
        let len = node_size.min(scratch.len());
        let (answer, changed) = f(&mut scratch[..len]);
        if changed {
            write_pages(&mut self.pager, &mut self.page, pages, scratch, class)?;
        }
        Ok(answer)
    }

    /// Encode and write a node, charging `pages_per_node` page accesses.
    pub fn write(&mut self, id: NodeId, class: DataClass, node: &Node) -> Result<()> {
        let pages = self
            .directory
            .get(id)
            .ok_or_else(|| RumError::Storage(format!("write of unknown node {id:?}")))?;
        if let [page] = pages[..] {
            let (body, slack) = self.page.split_at_mut(self.node_size.min(PAGE_SIZE));
            node.encode_into(body)?;
            slack.fill(0);
            return self.pager.write(page, class, &self.page);
        }
        let scratch = &mut self.scratch;
        scratch.resize(pages.len() * PAGE_SIZE, 0);
        let (body, slack) = scratch.split_at_mut(self.node_size);
        node.encode_into(body)?;
        slack.fill(0);
        write_pages(&mut self.pager, &mut self.page, pages, scratch, class)
    }

    /// Free every node (used by bulk load) and restart ids at 0. Pages go
    /// back highest id first, so a device that reuses the last page freed
    /// first hands a reload its pages lowest first, as a fresh load gets
    /// them.
    pub fn clear(&mut self) -> Result<()> {
        let mut pages = std::mem::take(&mut self.directory.pages);
        self.directory.live = 0;
        pages.retain(PageId::is_valid);
        pages.sort_unstable_by(|a, b| b.cmp(a));
        for page in pages {
            self.pager.free(page)?;
        }
        Ok(())
    }
}

/// Node id → pages, as one dense table: node `i`'s `per_node` page ids
/// sit at `[i·per_node, (i+1)·per_node)`, and ids are handed out in
/// order from 0. A freed node's slots hold [`PageId::INVALID`].
struct Directory {
    pages: Vec<PageId>,
    per_node: usize,
    /// Nodes allocated and not freed.
    live: usize,
}

impl Directory {
    /// Where live node `id`'s page ids sit in the table, or `None` for a
    /// freed, never-allocated or out-of-range id. Every step is checked,
    /// so no id can wrap or panic.
    fn slots(&self, id: NodeId) -> Option<std::ops::Range<usize>> {
        let start = usize::try_from(id.0).ok()?.checked_mul(self.per_node)?;
        let slots = start..start.checked_add(self.per_node)?;
        let first = self.pages.get(slots.clone())?.first()?;
        first.is_valid().then_some(slots)
    }

    /// The pages of live node `id`.
    fn get(&self, id: NodeId) -> Option<&[PageId]> {
        self.slots(id).map(|slots| &self.pages[slots])
    }
}

/// Write a multi-page node's `bytes` to its `pages`, one page at a time
/// through the reused `staging` buffer.
fn write_pages<D: BlockDevice>(
    pager: &mut Pager<D>,
    staging: &mut PageBuf,
    pages: &[PageId],
    bytes: &[u8],
    class: DataClass,
) -> Result<()> {
    for (&page, chunk) in pages.iter().zip(bytes.chunks_exact(PAGE_SIZE)) {
        staging.copy_from_slice(chunk);
        pager.write(page, class, staging)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rum_core::Record;
    use rum_storage::MemDevice;

    fn store(node_size: usize) -> NodeStore<MemDevice> {
        NodeStore::new(MemDevice::new(), CostTracker::new(), node_size)
    }

    fn read(s: &mut NodeStore<MemDevice>, id: NodeId, class: DataClass) -> Result<Node> {
        s.with_node(id, class, |n| n.to_node())
    }

    #[test]
    fn node_roundtrip_single_page() {
        let mut s = store(4096);
        let id = s.allocate().unwrap();
        let n = Node::Leaf {
            records: (0..50).map(|k| Record::new(k, k)).collect(),
            next: NodeId::INVALID,
        };
        s.write(id, DataClass::Base, &n).unwrap();
        assert_eq!(read(&mut s, id, DataClass::Base).unwrap(), n);
    }

    #[test]
    fn node_roundtrip_multi_page() {
        let mut s = store(16384); // 4 pages per node
        let id = s.allocate().unwrap();
        let n = Node::Leaf {
            records: (0..1000).map(|k| Record::new(k, k * 7)).collect(),
            next: NodeId(3),
        };
        s.write(id, DataClass::Base, &n).unwrap();
        let before = s.pager().tracker().snapshot();
        assert_eq!(read(&mut s, id, DataClass::Base).unwrap(), n);
        let d = s.pager().tracker().since(&before);
        assert_eq!(d.page_reads, 4, "multi-page node charges all its pages");
    }

    #[test]
    fn an_edit_charges_every_page_of_the_node_and_writes_only_a_change() {
        for node_size in [512, 4096, 16384] {
            let mut s = store(node_size);
            let id = s.allocate().unwrap();
            s.write(id, DataClass::Base, &Node::empty_leaf()).unwrap();
            let pages = node_size.div_ceil(PAGE_SIZE) as u64;
            let before = s.pager().tracker().snapshot();
            let len = s.edit_node(id, DataClass::Base, |b| (b.len(), false));
            assert_eq!(len.unwrap(), node_size);
            let edited = s.edit_node(id, DataClass::Base, |b| {
                b[node_size - 1] = 7;
                ((), true)
            });
            edited.unwrap();
            let d = s.pager().tracker().since(&before);
            assert_eq!((d.page_reads, d.page_writes), (2 * pages, pages));
            let last = s.edit_node(id, DataClass::Base, |b| (b[node_size - 1], false));
            assert_eq!(last.unwrap(), 7, "node size {node_size}");
        }
    }

    #[test]
    fn node_roundtrip_sub_page() {
        let mut s = store(512);
        let id = s.allocate().unwrap();
        let n = Node::Internal {
            keys: vec![5, 10],
            children: vec![NodeId(1), NodeId(2), NodeId(3)],
        };
        s.write(id, DataClass::Aux, &n).unwrap();
        assert_eq!(read(&mut s, id, DataClass::Aux).unwrap(), n);
        // A sub-page node still burns a whole page.
        assert!(s.physical_bytes() >= 4096);
    }

    #[test]
    fn free_releases_pages() {
        let mut s = store(8192);
        let id = s.allocate().unwrap();
        assert_eq!(s.pager().live_pages(), 2);
        s.free(id).unwrap();
        assert_eq!(s.pager().live_pages(), 0);
        assert!(read(&mut s, id, DataClass::Base).is_err());
        assert!(s.free(id).is_err());

        // A garbled, freed or never-allocated id is an error on every
        // call, never a panic or a wrapped index, whatever the node size.
        for node_size in [512, 4096, 16384] {
            let mut s = store(node_size);
            let freed = s.allocate().unwrap();
            let live = s.allocate().unwrap();
            s.free(freed).unwrap();
            let never = NodeId(live.0 + 1);
            let unknown = |r: Result<()>| matches!(r, Err(RumError::Storage(_)));
            for id in [NodeId::INVALID, NodeId(u64::MAX / 2), never, freed] {
                let at = format!("node size {node_size}, {id:?}");
                let read = s.with_node(id, DataClass::Base, |_| ());
                assert!(unknown(read), "{at}");
                let edited = s.edit_node(id, DataClass::Base, |_| ((), true));
                assert!(unknown(edited), "{at}");
                let written = s.write(id, DataClass::Base, &Node::empty_leaf());
                assert!(unknown(written), "{at}");
                assert!(unknown(s.free(id)), "{at}");
            }
            assert_eq!(s.node_count(), 1);
            assert_eq!(s.pager().live_pages(), node_size.div_ceil(PAGE_SIZE));
        }
    }

    #[test]
    fn clear_frees_everything() {
        let mut s = store(4096);
        for _ in 0..10 {
            s.allocate().unwrap();
        }
        assert_eq!(s.node_count(), 10);
        s.clear().unwrap();
        assert_eq!(s.node_count(), 0);
        assert_eq!(s.pager().live_pages(), 0);
    }
}
