//! The per-node SRAM block cache (cluster cache) of CC-NUMA.
//!
//! The CC-NUMA cluster device holds recently referenced *remote* blocks in a
//! small, fast SRAM cache.  The paper sizes it to the sum of the node's
//! processor caches (4 x 16 KB = 64 KB) so that it can maintain inclusion
//! with them, and evaluates a *perfect* CC-NUMA with an infinite block cache
//! as the normalization baseline.  Both variants are provided here.
//!
//! Blocks are addressed by [`BlockRef`]: the sparse id picks the
//! direct-mapped set (so conflict behaviour is a function of real
//! addresses), while the dense index is the finite variant's `u32` line tag
//! and keys the infinite variant's flat slab — making the perfect cache's
//! lookups array accesses and its page flushes 64-slot scans instead of
//! whole-table walks.  A finite line's sparse id sits in a parallel array
//! that only victims and page flushes read.

use mem_trace::{BlockId, BlockIdx, BlockRef, DirectMap, Geometry, PageRef, Slab};

/// State of a block held in the block cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockState {
    /// Clean copy; home memory is up to date.
    Clean,
    /// Dirty copy; must be written back to the home on eviction or flush.
    Dirty,
}

/// Block-cache sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockCacheConfig {
    /// Direct-mapped cache of the given capacity in bytes.
    Finite {
        /// Capacity in bytes.
        size_bytes: u64,
    },
    /// Unbounded cache: models the paper's "perfect CC-NUMA".
    Infinite,
}

impl BlockCacheConfig {
    /// The paper's base 64-KByte block cache (4 processors x 16 KB).
    pub const PAPER: BlockCacheConfig = BlockCacheConfig::Finite {
        size_bytes: 64 * 1024,
    };

    /// Number of lines for a finite configuration at the paper's 64-byte
    /// block size.
    pub fn lines(&self) -> Option<usize> {
        self.lines_at(mem_trace::BLOCK_SIZE)
    }

    /// Number of lines for a finite configuration with `block_bytes` lines
    /// (the byte budget is fixed; a block-size sweep changes how many lines
    /// it buys).
    pub fn lines_at(&self, block_bytes: u64) -> Option<usize> {
        match self {
            BlockCacheConfig::Finite { size_bytes } => Some((size_bytes / block_bytes) as usize),
            BlockCacheConfig::Infinite => None,
        }
    }
}

/// The tag of an empty finite line.  No block has this dense index: the
/// interner keeps every index below `u32::MAX`.
const EMPTY: u32 = u32::MAX;

enum Storage {
    Finite {
        map: DirectMap,
        /// Dense index of each line's block, or [`EMPTY`].
        tags: Vec<u32>,
        /// Sparse id of each occupied line's block.
        ids: Vec<BlockId>,
        states: Vec<BlockState>,
    },
    Infinite {
        /// Dense per-block-index slots; `resident` counts the `Some`s.
        blocks: Slab<Option<BlockState>>,
        resident: usize,
    },
}

/// A per-node block cache for remote data.
pub struct BlockCache {
    config: BlockCacheConfig,
    geometry: Geometry,
    storage: Storage,
}

impl BlockCache {
    /// Create an empty block cache at the paper's geometry.
    ///
    /// # Panics
    /// Panics if a finite configuration has zero lines.
    pub fn new(config: BlockCacheConfig) -> Self {
        Self::with_geometry(config, Geometry::PAPER)
    }

    /// Create an empty block cache holding `geometry.block_bytes`-sized
    /// lines.
    ///
    /// # Panics
    /// Panics if a finite configuration has zero lines.
    pub fn with_geometry(config: BlockCacheConfig, geometry: Geometry) -> Self {
        let storage = match config.lines_at(geometry.block_bytes) {
            Some(lines) => {
                assert!(lines > 0, "block cache must have at least one line");
                Storage::Finite {
                    map: DirectMap::new(lines),
                    tags: vec![EMPTY; lines],
                    ids: vec![BlockId(0); lines],
                    states: vec![BlockState::Clean; lines],
                }
            }
            None => Storage::Infinite {
                blocks: Slab::new(),
                resident: 0,
            },
        };
        BlockCache {
            config,
            geometry,
            storage,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> BlockCacheConfig {
        self.config
    }

    /// `true` if `block` is present.
    pub fn contains(&self, block: BlockRef) -> bool {
        self.state_of(block).is_some()
    }

    /// Present state of `block`, if cached.
    #[inline]
    pub fn state_of(&self, block: BlockRef) -> Option<BlockState> {
        match &self.storage {
            Storage::Finite {
                map, tags, states, ..
            } => {
                let idx = map.line_of(block.id);
                (tags[idx] == block.idx.0).then(|| states[idx])
            }
            Storage::Infinite { blocks, .. } => blocks.get(block.idx.index()).copied().flatten(),
        }
    }

    /// Look up `block`: the same answer as [`BlockCache::state_of`].
    pub fn lookup(&mut self, block: BlockRef) -> Option<BlockState> {
        self.state_of(block)
    }

    /// Install `block`; returns the displaced victim `(block, state)` if the
    /// line was occupied by a different block.
    pub fn fill(&mut self, block: BlockRef, state: BlockState) -> Option<(BlockRef, BlockState)> {
        match &mut self.storage {
            Storage::Finite {
                map,
                tags,
                ids,
                states,
            } => {
                debug_assert_ne!(
                    block.idx.0, EMPTY,
                    "dense index collides with the empty tag"
                );
                let idx = map.line_of(block.id);
                let old = tags[idx];
                let victim = (old != EMPTY && old != block.idx.0)
                    .then(|| (BlockRef::new(ids[idx], BlockIdx(old)), states[idx]));
                tags[idx] = block.idx.0;
                ids[idx] = block.id;
                states[idx] = state;
                victim
            }
            Storage::Infinite { blocks, resident } => {
                let slot = blocks.entry(block.idx.index());
                if slot.is_none() {
                    *resident += 1;
                }
                *slot = Some(state);
                None
            }
        }
    }

    /// Mark a resident block dirty (a processor on this node wrote it).
    /// Returns `false` if the block is not resident.
    pub fn mark_dirty(&mut self, block: BlockRef) -> bool {
        match &mut self.storage {
            Storage::Finite {
                map, tags, states, ..
            } => {
                let idx = map.line_of(block.id);
                if tags[idx] == block.idx.0 {
                    states[idx] = BlockState::Dirty;
                    true
                } else {
                    false
                }
            }
            Storage::Infinite { blocks, .. } => {
                match blocks.get_mut(block.idx.index()).and_then(Option::as_mut) {
                    Some(s) => {
                        *s = BlockState::Dirty;
                        true
                    }
                    None => false,
                }
            }
        }
    }

    /// Remove `block` (remote invalidation); returns its state if present.
    pub fn invalidate(&mut self, block: BlockRef) -> Option<BlockState> {
        match &mut self.storage {
            Storage::Finite {
                map, tags, states, ..
            } => {
                let idx = map.line_of(block.id);
                if tags[idx] == block.idx.0 {
                    tags[idx] = EMPTY;
                    Some(states[idx])
                } else {
                    None
                }
            }
            Storage::Infinite { blocks, resident } => {
                match blocks.get_mut(block.idx.index()).map(Option::take) {
                    Some(Some(s)) => {
                        *resident -= 1;
                        Some(s)
                    }
                    _ => None,
                }
            }
        }
    }

    /// Remove every resident block belonging to `page` (page flush), and
    /// return them with their states.
    pub fn flush_page(&mut self, page: PageRef) -> Vec<(BlockRef, BlockState)> {
        let mut flushed = Vec::new();
        let geometry = self.geometry;
        match &mut self.storage {
            Storage::Finite {
                tags, ids, states, ..
            } => {
                for idx in 0..tags.len() {
                    let tag = tags[idx];
                    if tag != EMPTY && geometry.page_of_block_idx(BlockIdx(tag)) == page.idx {
                        flushed.push((BlockRef::new(ids[idx], BlockIdx(tag)), states[idx]));
                        tags[idx] = EMPTY;
                    }
                }
            }
            Storage::Infinite { blocks, resident } => {
                // The page's blocks sit in `blocks_per_page` contiguous
                // slots.
                for offset in 0..geometry.blocks_per_page() {
                    let block = geometry.block_ref_at(page, offset);
                    if let Some(Some(s)) = blocks.get_mut(block.idx.index()).map(Option::take) {
                        *resident -= 1;
                        flushed.push((block, s));
                    }
                }
            }
        }
        flushed
    }

    /// Number of resident blocks.
    pub fn resident(&self) -> usize {
        match &self.storage {
            Storage::Finite { tags, .. } => tags.iter().filter(|t| **t != EMPTY).count(),
            Storage::Infinite { resident, .. } => *resident,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_trace::{BlockId, BlockIdx, PageId, PageIdx, BLOCKS_PER_PAGE};

    /// Identity interning: block id n ↔ index n (a valid assignment when
    /// page ids are dense from zero, as in these tests).
    fn b(n: u64) -> BlockRef {
        BlockRef::new(BlockId(n), BlockIdx(n as u32))
    }

    fn p(n: u64) -> PageRef {
        PageRef::new(PageId(n), PageIdx(n as u32))
    }

    fn tiny() -> BlockCache {
        BlockCache::new(BlockCacheConfig::Finite {
            size_bytes: 4 * mem_trace::BLOCK_SIZE,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.lookup(b(1)), None);
        c.fill(b(1), BlockState::Clean);
        assert_eq!(c.lookup(b(1)), Some(BlockState::Clean));
    }

    #[test]
    fn conflict_evicts_previous_block() {
        // Identity interning, then ids a million past their dense indices:
        // the victim comes back as the exact ref that was filled.
        for id_offset in [0, 1_000_000] {
            let r = |n: u64| BlockRef::new(BlockId(n + id_offset), BlockIdx(n as u32));
            let mut c = tiny(); // 4 lines: blocks 1 and 5 conflict
            c.fill(r(1), BlockState::Dirty);
            let victim = c.fill(r(5), BlockState::Clean);
            assert_eq!(victim, Some((r(1), BlockState::Dirty)));
            assert!(!c.contains(r(1)));
            assert!(c.contains(r(5)));
        }
    }

    #[test]
    fn refill_of_same_block_is_not_an_eviction() {
        let mut c = tiny();
        c.fill(b(2), BlockState::Clean);
        assert_eq!(c.fill(b(2), BlockState::Dirty), None);
        assert_eq!(c.state_of(b(2)), Some(BlockState::Dirty));
    }

    #[test]
    fn mark_dirty_and_invalidate() {
        let mut c = tiny();
        c.fill(b(3), BlockState::Clean);
        assert!(c.mark_dirty(b(3)));
        assert_eq!(c.invalidate(b(3)), Some(BlockState::Dirty));
        assert_eq!(c.invalidate(b(3)), None);
        assert!(!c.mark_dirty(b(3)));
    }

    #[test]
    fn infinite_cache_never_evicts() {
        let mut c = BlockCache::new(BlockCacheConfig::Infinite);
        for i in 0..10_000u64 {
            assert_eq!(c.fill(b(i), BlockState::Clean), None);
        }
        assert_eq!(c.resident(), 10_000);
        assert!(c.contains(b(0)));
        assert!(c.contains(b(9_999)));
        assert!(c.mark_dirty(b(17)));
        assert!(!c.mark_dirty(b(20_000)));
        assert_eq!(c.invalidate(b(17)), Some(BlockState::Dirty));
        assert_eq!(c.resident(), 9_999);
    }

    #[test]
    fn flush_page_removes_only_that_page() {
        let mut c = BlockCache::new(BlockCacheConfig::Infinite);
        let page = p(2);
        for offset in 0..BLOCKS_PER_PAGE {
            c.fill(page.block_at(offset), BlockState::Clean);
        }
        let other = p(3).block_at(0);
        c.fill(other, BlockState::Dirty);
        let flushed = c.flush_page(page);
        assert_eq!(flushed.len(), BLOCKS_PER_PAGE as usize);
        assert!(c.contains(other));
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn flush_page_on_finite_cache() {
        let mut c = BlockCache::new(BlockCacheConfig::PAPER);
        let page = p(0);
        c.fill(page.block_at(0), BlockState::Dirty);
        c.fill(page.block_at(1), BlockState::Clean);
        let flushed = c.flush_page(page);
        assert_eq!(flushed.len(), 2);
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn paper_config_lines() {
        assert_eq!(BlockCacheConfig::PAPER.lines(), Some(1024));
        assert_eq!(BlockCacheConfig::Infinite.lines(), None);
    }
}
