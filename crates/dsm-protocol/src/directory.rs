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
//! interns (see [`mem_trace::intern`]) and stored as flat rows in one
//! `Vec<u64>`: per block a state word, then the sharer bitmask in as many
//! words as the widest node index seen so far needs.  A transition is one
//! row access, no row owns an allocation, and a page purge touches exactly
//! the page's contiguous rows.  The table starts one sharer word wide and is
//! re-laid out once each time a node index past its width arrives, so
//! cluster size is a real sweep axis without a node count up front.
//! [`DirectoryEntry`] is a view built on demand, not the storage.

use mem_trace::{BlockIdx, Geometry, NodeId, PageIdx, SharerSet};

/// Directory state of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectoryState {
    /// No node caches the block; memory at the home is up to date.
    #[default]
    Uncached = 0,
    /// One or more nodes hold read-only copies; memory is up to date.
    Shared = 1,
    /// Exactly one node holds a (potentially dirty) exclusive copy.
    Modified = 2,
}

impl DirectoryState {
    /// Decode a row's state word (zero, the value of a fresh row, is
    /// `Uncached`).
    #[inline]
    fn from_word(word: u64) -> Self {
        match word {
            1 => DirectoryState::Shared,
            2 => DirectoryState::Modified,
            _ => DirectoryState::Uncached,
        }
    }
}

/// A directory entry: state plus sharer set, as [`Directory::entry`]
/// reports it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DirectoryEntry {
    /// Coherence state.
    pub state: DirectoryState,
    /// Nodes holding a copy.
    pub sharers: SharerSet,
}

impl DirectoryEntry {
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

/// The word and bit of `node` within a row's sharer words.
#[inline]
fn sharer_bit(node: NodeId) -> (usize, u64) {
    (node.index() / 64, 1u64 << (node.index() % 64))
}

/// The members of a row's sharer words, ascending.
fn sharers(words: &[u64]) -> impl Iterator<Item = NodeId> + '_ {
    words.iter().enumerate().flat_map(|(i, w)| {
        let mut w = *w;
        std::iter::from_fn(move || {
            if w == 0 {
                return None;
            }
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            Some(NodeId((i * 64 + bit) as u16))
        })
    })
}

/// The lowest member of a row's sharer words: the owner of a modified
/// block, which has exactly one.
#[inline]
fn first_sharer(words: &[u64]) -> Option<NodeId> {
    words
        .iter()
        .position(|w| *w != 0)
        .map(|i| NodeId((i * 64 + words[i].trailing_zeros() as usize) as u16))
}

/// Full-map directory covering every block of shared memory.
///
/// Rows are materialized on demand over interned block indices: blocks
/// never referenced remotely stay in the implicit `Uncached` state (an
/// all-zero row, or no row at all).
#[derive(Debug, Clone)]
pub struct Directory {
    /// Row `b` is `rows[b * (1 + words) ..][.. 1 + words]`: the
    /// [`DirectoryState`] as a word, then the sharer bitmask, node `n` at
    /// bit `n % 64` of sharer word `n / 64`.
    rows: Vec<u64>,
    /// Sharer words per row: enough for every node index seen so far.
    words: usize,
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
    /// contiguous rows.
    pub fn with_geometry(geometry: Geometry) -> Self {
        Directory {
            rows: Vec::new(),
            words: 1,
            geometry,
        }
    }

    #[inline]
    fn stride(&self) -> usize {
        1 + self.words
    }

    /// The row of `block`, or `None` if it was never materialized.
    #[inline]
    fn row(&self, block: BlockIdx) -> Option<&[u64]> {
        let start = block.index() * self.stride();
        self.rows.get(start..start + self.stride())
    }

    #[inline]
    fn row_mut(&mut self, block: BlockIdx) -> Option<&mut [u64]> {
        let stride = self.stride();
        let start = block.index() * stride;
        self.rows.get_mut(start..start + stride)
    }

    /// The row of `block`, materialized, in a table wide enough for `node`.
    #[inline]
    fn row_for(&mut self, block: BlockIdx, node: NodeId) -> &mut [u64] {
        if node.index() >= 64 * self.words {
            self.widen(node.index() / 64 + 1);
        }
        let stride = self.stride();
        let start = block.index() * stride;
        if start + stride > self.rows.len() {
            self.rows.resize(start + stride, 0);
        }
        &mut self.rows[start..start + stride]
    }

    /// Re-lay the table out with `words` sharer words per row.
    #[cold]
    fn widen(&mut self, words: usize) {
        let (old, new) = (self.stride(), 1 + words);
        let mut rows = vec![0; self.rows.len() / old * new];
        for (from, to) in self.rows.chunks_exact(old).zip(rows.chunks_exact_mut(new)) {
            to[..old].copy_from_slice(from);
        }
        self.rows = rows;
        self.words = words;
    }

    /// Current entry for `block` (implicitly `Uncached`).
    pub fn entry(&self, block: BlockIdx) -> DirectoryEntry {
        match self.row(block) {
            Some(row) => DirectoryEntry {
                state: DirectoryState::from_word(row[0]),
                sharers: sharers(&row[1..]).map(NodeId::index).collect(),
            },
            None => DirectoryEntry::default(),
        }
    }

    /// The node holding `block` modified, if any — without building an
    /// entry.
    #[inline]
    pub fn owner_of(&self, block: BlockIdx) -> Option<NodeId> {
        self.row(block)
            .filter(|row| row[0] == DirectoryState::Modified as u64)
            .and_then(|row| first_sharer(&row[1..]))
    }

    /// Handle a read request for `block` by `requester`.
    pub fn handle_read(&mut self, block: BlockIdx, requester: NodeId) -> ReadReply {
        let row = self.row_for(block, requester);
        let (word, bit) = sharer_bit(requester);
        let already_sharer = row[1 + word] & bit != 0;
        let source = match DirectoryState::from_word(row[0]) {
            DirectoryState::Uncached | DirectoryState::Shared => DataSource::HomeMemory,
            DirectoryState::Modified => {
                // dsm-lint: allow(panic-path, DirectoryState::Modified is entered only when exactly one sharer registers a write; the sharer list cannot be empty in that state)
                let owner = first_sharer(&row[1..]).expect("modified implies owner");
                if owner == requester {
                    // Requester already owns it (e.g. re-registration after
                    // a block-cache refresh); no transition needed.
                    DataSource::HomeMemory
                } else {
                    DataSource::Owner(owner)
                }
            }
        };
        // After a read the block is shared by the previous holders plus the
        // requester, and memory is (or will be) up to date.
        row[1 + word] |= bit;
        row[0] = DirectoryState::Shared as u64;
        ReadReply {
            source,
            already_sharer,
        }
    }

    /// Handle a write (read-exclusive) request for `block` by `requester`.
    /// Allocates the reply's list; the simulator uses
    /// [`Directory::handle_write_into`].
    pub fn handle_write(&mut self, block: BlockIdx, requester: NodeId) -> WriteReply {
        let mut invalidate = Vec::new();
        let source = self.handle_write_into(block, requester, &mut invalidate);
        WriteReply { source, invalidate }
    }

    /// Handle a write (read-exclusive) request for `block` by `requester`,
    /// replacing the contents of `invalidate` with the nodes whose copies
    /// must be invalidated, ascending (never the requester).  Returns where
    /// the data comes from, as [`WriteReply::source`].
    pub fn handle_write_into(
        &mut self,
        block: BlockIdx,
        requester: NodeId,
        invalidate: &mut Vec<NodeId>,
    ) -> DataSource {
        invalidate.clear();
        let row = self.row_for(block, requester);
        let source = match DirectoryState::from_word(row[0]) {
            DirectoryState::Uncached => DataSource::HomeMemory,
            DirectoryState::Shared => {
                invalidate.extend(sharers(&row[1..]).filter(|n| *n != requester));
                DataSource::HomeMemory
            }
            DirectoryState::Modified => {
                // dsm-lint: allow(panic-path, DirectoryState::Modified is entered only when exactly one sharer registers a write; the sharer list cannot be empty in that state)
                let owner = first_sharer(&row[1..]).expect("modified implies owner");
                if owner == requester {
                    DataSource::HomeMemory
                } else {
                    invalidate.push(owner);
                    DataSource::Owner(owner)
                }
            }
        };
        let (word, bit) = sharer_bit(requester);
        row[0] = DirectoryState::Modified as u64;
        row[1..].fill(0);
        row[1 + word] = bit;
        source
    }

    /// A node silently dropped (evicted) its copy of `block`; if it held the
    /// block modified the caller is responsible for the write-back traffic.
    pub fn handle_eviction(&mut self, block: BlockIdx, node: NodeId) {
        let Some(row) = self.row_mut(block) else {
            return;
        };
        let (word, bit) = sharer_bit(node);
        if let Some(w) = row.get_mut(1 + word) {
            *w &= !bit;
        }
        if row[1..].iter().all(|w| *w == 0) {
            row[0] = DirectoryState::Uncached as u64;
        } else if row[0] == DirectoryState::Modified as u64 {
            // The owner evicted; remaining copies (if any) are clean
            // shared copies.
            row[0] = DirectoryState::Shared as u64;
        }
    }

    /// Invalidate every cached copy of every block of `page` (page flush for
    /// migration/replication-related operations).  Returns, per block, the
    /// list of nodes that held a copy.
    ///
    /// Thanks to the contiguous block-index layout this touches exactly the
    /// page's `blocks_per_page` rows, never the rest of the table.
    pub fn purge_page(&mut self, page: PageIdx) -> Vec<(BlockIdx, Vec<NodeId>)> {
        let mut flushed = Vec::new();
        for block in self.geometry.block_indices(page) {
            if let Some(row) = self.row_mut(block) {
                if row[1..].iter().any(|w| *w != 0) {
                    flushed.push((block, sharers(&row[1..]).collect()));
                }
                row.fill(0);
            }
        }
        flushed
    }

    /// Number of blocks currently cached somewhere (non-`Uncached` rows).
    pub fn tracked_blocks(&self) -> usize {
        self.rows
            .chunks_exact(self.stride())
            .filter(|row| row[0] != DirectoryState::Uncached as u64)
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
    fn widening_keeps_every_row() {
        let mut dir = Directory::new();
        dir.handle_read(B, NodeId(3));
        dir.handle_write(BlockIdx(7), NodeId(63));
        // Node 200 needs four sharer words: one re-layout of the table.
        dir.handle_read(B, NodeId(200));
        assert_eq!(dir.entry(B).sharer_nodes(), vec![NodeId(3), NodeId(200)]);
        assert_eq!(dir.owner_of(BlockIdx(7)), Some(NodeId(63)));
        let w = dir.handle_write(B, NodeId(64));
        assert_eq!(w.invalidate, vec![NodeId(3), NodeId(200)]);
        assert_eq!(dir.owner_of(B), Some(NodeId(64)));
        assert_eq!(dir.tracked_blocks(), 2);
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
