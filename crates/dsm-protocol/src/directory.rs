//! The block directory of the DSM write-invalidate protocol.
//!
//! Coherence between cluster nodes is maintained at cache-block granularity
//! with a full-bit-vector directory: for every block of shared memory the
//! directory records whether the block is uncached, shared by a set of
//! nodes, or modified (owned) by exactly one node.  Within a node the
//! snoopy MOESI protocol keeps the four processor caches consistent; the
//! directory only sees *nodes*.
//!
//! Directory state is keyed by the dense [`BlockIdx`] the trace layer
//! interns (see [`mem_trace::intern`]): entries live in a flat slab indexed
//! by block index, so the per-miss directory transition is an array access,
//! and a page purge touches exactly the page's contiguous block slots.
//!
//! Sharer tracking is a [`SharerSet`]: one inline word for clusters of up
//! to 64 nodes (the exact bitmask semantics the directory always had,
//! allocation-free) and a boxed bitset beyond, so cluster size is a real
//! sweep axis instead of a hard cap.

use mem_trace::{BlockIdx, Geometry, NodeId, PageIdx, SharerSet, Slab};

/// Directory state of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectoryState {
    /// No node caches the block; memory at the home is up to date.
    #[default]
    Uncached,
    /// One or more nodes hold read-only copies; memory is up to date.
    Shared,
    /// Exactly one node holds a (potentially dirty) exclusive copy.
    Modified,
}

/// A directory entry: state plus sharer set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DirectoryEntry {
    /// Coherence state.
    pub state: DirectoryState,
    /// Nodes holding a copy.
    pub sharers: SharerSet,
}

impl DirectoryEntry {
    fn uncached() -> Self {
        DirectoryEntry::default()
    }

    /// Nodes currently holding a copy, ascending.
    pub fn sharer_nodes(&self) -> Vec<NodeId> {
        self.sharers.nodes()
    }

    /// Number of nodes currently holding a copy.
    pub fn sharer_count(&self) -> u32 {
        self.sharers.count()
    }

    /// `true` if `node` holds a copy.
    pub fn is_sharer(&self, node: NodeId) -> bool {
        self.sharers.contains(node.index())
    }
}

/// Where the data for a read/write reply comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSource {
    /// Home memory supplies the block.
    HomeMemory,
    /// The current owner node forwards the (dirty) block.
    Owner(NodeId),
}

/// Outcome of a read request at the directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadReply {
    /// Where the data comes from.
    pub source: DataSource,
    /// `true` if the requesting node already had a copy registered (an
    /// inclusion refresh rather than a new sharer).
    pub already_sharer: bool,
}

/// Outcome of a write (read-exclusive / upgrade) request at the directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteReply {
    /// Where the data comes from (`HomeMemory` if the requester only needs
    /// ownership, or already held the only copy).
    pub source: DataSource,
    /// Nodes whose copies must be invalidated (never contains the
    /// requester).
    pub invalidate: Vec<NodeId>,
}

/// Full-map directory covering every block of shared memory.
///
/// Entries are a dense slab over interned block indices: blocks never
/// referenced remotely stay in the implicit `Uncached` state (a
/// default-valued slot, or no slot at all).
#[derive(Debug, Clone)]
pub struct Directory {
    entries: Slab<DirectoryEntry>,
    geometry: Geometry,
}

impl Default for Directory {
    fn default() -> Self {
        Self::new()
    }
}

impl Directory {
    /// An empty directory (all blocks uncached) at the paper's geometry.
    pub fn new() -> Self {
        Self::with_geometry(Geometry::PAPER)
    }

    /// An empty directory whose page purges walk `geometry.blocks_per_page()`
    /// contiguous slots.
    pub fn with_geometry(geometry: Geometry) -> Self {
        Directory {
            entries: Slab::new(),
            geometry,
        }
    }

    /// Current entry for `block` (implicitly `Uncached`).
    #[inline]
    pub fn entry(&self, block: BlockIdx) -> DirectoryEntry {
        self.entries
            .get(block.index())
            .cloned()
            .unwrap_or_else(DirectoryEntry::uncached)
    }

    /// The node holding `block` modified, if any — without cloning the
    /// sharer set (the simulator's hot-path query).
    #[inline]
    pub fn owner_of(&self, block: BlockIdx) -> Option<NodeId> {
        self.entries
            .get(block.index())
            .filter(|e| e.state == DirectoryState::Modified)
            .and_then(|e| e.sharers.first())
            .map(|i| NodeId(i as u16))
    }

    /// Handle a read request for `block` by `requester`.
    pub fn handle_read(&mut self, block: BlockIdx, requester: NodeId) -> ReadReply {
        let entry = self.entries.entry(block.index());
        let already_sharer = entry.sharers.contains(requester.index());
        let reply = match entry.state {
            DirectoryState::Uncached | DirectoryState::Shared => ReadReply {
                source: DataSource::HomeMemory,
                already_sharer,
            },
            DirectoryState::Modified => {
                // dsm-lint: allow(panic-path, DirectoryState::Modified is entered only when exactly one sharer registers a write; the sharer list cannot be empty in that state)
                let owner = NodeId(entry.sharers.first().expect("modified implies owner") as u16);
                if owner == requester {
                    // Requester already owns it (e.g. re-registration after a
                    // block-cache refresh); no transition needed.
                    ReadReply {
                        source: DataSource::HomeMemory,
                        already_sharer: true,
                    }
                } else {
                    ReadReply {
                        source: DataSource::Owner(owner),
                        already_sharer,
                    }
                }
            }
        };
        // After a read the block is shared by the previous holders plus the
        // requester, and memory is (or will be) up to date.
        entry.sharers.insert(requester.index());
        entry.state = DirectoryState::Shared;
        reply
    }

    /// Handle a write (read-exclusive) request for `block` by `requester`.
    pub fn handle_write(&mut self, block: BlockIdx, requester: NodeId) -> WriteReply {
        let entry = self.entries.entry(block.index());
        let reply = match entry.state {
            DirectoryState::Uncached => WriteReply {
                source: DataSource::HomeMemory,
                invalidate: Vec::new(),
            },
            DirectoryState::Shared => {
                let others: Vec<NodeId> = entry
                    .sharers
                    .iter()
                    .filter(|i| *i != requester.index())
                    .map(|i| NodeId(i as u16))
                    .collect();
                WriteReply {
                    source: DataSource::HomeMemory,
                    invalidate: others,
                }
            }
            DirectoryState::Modified => {
                // dsm-lint: allow(panic-path, DirectoryState::Modified is entered only when exactly one sharer registers a write; the sharer list cannot be empty in that state)
                let owner = NodeId(entry.sharers.first().expect("modified implies owner") as u16);
                if owner == requester {
                    WriteReply {
                        source: DataSource::HomeMemory,
                        invalidate: Vec::new(),
                    }
                } else {
                    WriteReply {
                        source: DataSource::Owner(owner),
                        invalidate: vec![owner],
                    }
                }
            }
        };
        entry.state = DirectoryState::Modified;
        entry.sharers.clear();
        entry.sharers.insert(requester.index());
        reply
    }

    /// A node silently dropped (evicted) its copy of `block`; if it held the
    /// block modified the caller is responsible for the write-back traffic.
    pub fn handle_eviction(&mut self, block: BlockIdx, node: NodeId) {
        if let Some(entry) = self.entries.get_mut(block.index()) {
            entry.sharers.remove(node.index());
            if entry.sharers.is_empty() {
                entry.state = DirectoryState::Uncached;
            } else if entry.state == DirectoryState::Modified {
                // The owner evicted; remaining copies (if any) are clean
                // shared copies.
                entry.state = DirectoryState::Shared;
            }
        }
    }

    /// Invalidate every cached copy of every block of `page` (page flush for
    /// migration/replication-related operations).  Returns, per block, the
    /// list of nodes that held a copy.
    ///
    /// Thanks to the contiguous block-index layout this touches exactly the
    /// page's `blocks_per_page` slots, never the rest of the table.
    pub fn purge_page(&mut self, page: PageIdx) -> Vec<(BlockIdx, Vec<NodeId>)> {
        let mut flushed = Vec::new();
        for block in self.geometry.block_indices(page) {
            if let Some(entry) = self.entries.get_mut(block.index()) {
                if !entry.sharers.is_empty() {
                    flushed.push((block, entry.sharer_nodes()));
                }
                *entry = DirectoryEntry::uncached();
            }
        }
        flushed
    }

    /// Number of blocks currently cached somewhere (non-`Uncached` entries).
    pub fn tracked_blocks(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.state != DirectoryState::Uncached)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_trace::BLOCKS_PER_PAGE;

    const B: BlockIdx = BlockIdx(42);

    #[test]
    fn read_of_uncached_block_comes_from_memory() {
        let mut dir = Directory::new();
        let r = dir.handle_read(B, NodeId(2));
        assert_eq!(r.source, DataSource::HomeMemory);
        assert!(!r.already_sharer);
        let e = dir.entry(B);
        assert_eq!(e.state, DirectoryState::Shared);
        assert!(e.is_sharer(NodeId(2)));
        assert_eq!(e.sharer_count(), 1);
    }

    #[test]
    fn multiple_readers_accumulate_sharers() {
        let mut dir = Directory::new();
        dir.handle_read(B, NodeId(0));
        dir.handle_read(B, NodeId(3));
        let r = dir.handle_read(B, NodeId(0));
        assert!(r.already_sharer);
        let e = dir.entry(B);
        assert_eq!(e.sharer_count(), 2);
        assert_eq!(e.sharer_nodes(), vec![NodeId(0), NodeId(3)]);
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut dir = Directory::new();
        dir.handle_read(B, NodeId(0));
        dir.handle_read(B, NodeId(1));
        dir.handle_read(B, NodeId(2));
        let w = dir.handle_write(B, NodeId(1));
        assert_eq!(w.source, DataSource::HomeMemory);
        assert_eq!(w.invalidate, vec![NodeId(0), NodeId(2)]);
        let e = dir.entry(B);
        assert_eq!(e.state, DirectoryState::Modified);
        assert_eq!(e.sharer_nodes(), vec![NodeId(1)]);
    }

    #[test]
    fn read_of_modified_block_forwards_from_owner() {
        let mut dir = Directory::new();
        dir.handle_write(B, NodeId(5));
        let r = dir.handle_read(B, NodeId(1));
        assert_eq!(r.source, DataSource::Owner(NodeId(5)));
        let e = dir.entry(B);
        assert_eq!(e.state, DirectoryState::Shared);
        assert_eq!(e.sharer_nodes(), vec![NodeId(1), NodeId(5)]);
    }

    #[test]
    fn write_to_block_owned_elsewhere_transfers_ownership() {
        let mut dir = Directory::new();
        dir.handle_write(B, NodeId(0));
        let w = dir.handle_write(B, NodeId(7));
        assert_eq!(w.source, DataSource::Owner(NodeId(0)));
        assert_eq!(w.invalidate, vec![NodeId(0)]);
        let e = dir.entry(B);
        assert_eq!(e.state, DirectoryState::Modified);
        assert_eq!(e.sharer_nodes(), vec![NodeId(7)]);
    }

    #[test]
    fn owner_rewrite_needs_no_invalidations() {
        let mut dir = Directory::new();
        dir.handle_write(B, NodeId(4));
        let w = dir.handle_write(B, NodeId(4));
        assert!(w.invalidate.is_empty());
        assert_eq!(w.source, DataSource::HomeMemory);
    }

    #[test]
    fn owner_reread_is_not_a_forward() {
        let mut dir = Directory::new();
        dir.handle_write(B, NodeId(4));
        let r = dir.handle_read(B, NodeId(4));
        assert_eq!(r.source, DataSource::HomeMemory);
        assert!(r.already_sharer);
    }

    #[test]
    fn eviction_removes_sharer_and_degrades_state() {
        let mut dir = Directory::new();
        dir.handle_write(B, NodeId(2));
        dir.handle_eviction(B, NodeId(2));
        assert_eq!(dir.entry(B).state, DirectoryState::Uncached);
        assert_eq!(dir.entry(B).sharer_count(), 0);

        dir.handle_read(B, NodeId(0));
        dir.handle_read(B, NodeId(1));
        dir.handle_eviction(B, NodeId(0));
        let e = dir.entry(B);
        assert_eq!(e.state, DirectoryState::Shared);
        assert_eq!(e.sharer_nodes(), vec![NodeId(1)]);
    }

    #[test]
    fn purge_page_clears_every_block_of_that_page() {
        let mut dir = Directory::new();
        // Interned layout: page 0's blocks occupy indices 0..64, page 1's
        // occupy 64..128 (the per-page contiguity purge_page exploits).
        let page = PageIdx(0);
        let blocks: Vec<BlockIdx> = page.blocks().collect();
        dir.handle_read(blocks[0], NodeId(1));
        dir.handle_write(blocks[5], NodeId(2));
        // A block of a different page must be untouched.
        let other = PageIdx(1).blocks().next().unwrap();
        dir.handle_read(other, NodeId(6));

        let flushed = dir.purge_page(page);
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed[0].0, blocks[0]);
        assert_eq!(flushed[1].0, blocks[5]);
        assert_eq!(dir.entry(blocks[0]).state, DirectoryState::Uncached);
        assert_eq!(dir.entry(blocks[5]).state, DirectoryState::Uncached);
        assert_eq!(dir.entry(other).state, DirectoryState::Shared);
        assert_eq!(dir.tracked_blocks(), 1);
    }

    #[test]
    fn block_index_geometry_matches_pages() {
        // The directory's layout assumption: BLOCKS_PER_PAGE consecutive
        // indices per page.
        assert_eq!(PageIdx(2).blocks().count(), BLOCKS_PER_PAGE as usize);
        assert_eq!(PageIdx(1).block(0), BlockIdx(BLOCKS_PER_PAGE as u32));
    }
}
