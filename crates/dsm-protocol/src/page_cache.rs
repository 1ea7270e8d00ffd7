//! The S-COMA page cache used by R-NUMA.
//!
//! R-NUMA relocates pages that suffer frequent capacity/conflict misses into
//! a region of the node's main memory managed as a *page cache*: page
//! frames are allocated locally, coherence is still maintained at block
//! granularity through per-block *fine-grain tags*, and a reverse
//! translation table maps local frames back to global addresses.  Practical
//! implementations bound the page cache to a fraction of memory (the paper's
//! base system uses 2.4 MB per node, 40x the block cache); the limit is what
//! creates the replacement traffic studied in Figures 5-8.
//!
//! This module models the frames, fine-grain tags and LRU replacement.  The
//! relocation *policy* (refetch counters and thresholds) lives in
//! `dsm-core`.
//!
//! Frames are a dense slab over interned [`PageIdx`]es — the per-block
//! lookup on the simulator's hot path is two array accesses and a bit test —
//! with a side list of allocated frames so the (rare) LRU victim scan walks
//! only the cache's occupancy, not the whole footprint.

use mem_trace::{BlockIdx, Geometry, PageId, PageIdx, PageRef, SharerSet, Slab, PAGE_SIZE};

/// Page-cache sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageCacheConfig {
    /// At most this many bytes of main memory are usable as page frames.
    Finite {
        /// Capacity in bytes (rounded down to whole pages).
        size_bytes: u64,
    },
    /// Unbounded page cache (the paper's R-NUMA-Inf).
    Infinite,
}

impl PageCacheConfig {
    /// The paper's base 2.4-MByte page cache (40x the 64-KB block cache).
    pub const PAPER: PageCacheConfig = PageCacheConfig::Finite {
        size_bytes: 2_457_600,
    };

    /// The paper's halved page cache used in Section 6.4 (1.2 MB).
    pub const PAPER_HALF: PageCacheConfig = PageCacheConfig::Finite {
        size_bytes: 1_228_800,
    };

    /// Capacity in page frames at the paper's 4-KB page size (`None` for
    /// infinite).
    pub fn frames(&self) -> Option<usize> {
        self.frames_at(PAGE_SIZE)
    }

    /// Capacity in page frames for pages of `page_bytes` (`None` for
    /// infinite).  The byte budget is what the paper fixes; a page-size
    /// sweep changes how many frames it buys.
    pub fn frames_at(&self, page_bytes: u64) -> Option<usize> {
        match self {
            PageCacheConfig::Finite { size_bytes } => Some((size_bytes / page_bytes) as usize),
            PageCacheConfig::Infinite => None,
        }
    }
}

/// One allocated page frame: which blocks are present and which are dirty
/// (fine-grain tags, a [`SharerSet`] each so pages of more than 64 blocks
/// are representable).  The slab slot also remembers the sparse page id so
/// replacement victims can be reported as full [`PageRef`]s without
/// consulting the interner.
#[derive(Debug, Clone)]
struct Frame {
    allocated: bool,
    id: PageId,
    present: SharerSet,
    dirty: SharerSet,
    last_use: u64,
}

impl Default for Frame {
    fn default() -> Self {
        Frame {
            allocated: false,
            id: PageId(0),
            present: SharerSet::new(),
            dirty: SharerSet::new(),
            last_use: 0,
        }
    }
}

/// Result of asking for a frame for a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocOutcome {
    /// The page already has a frame.
    AlreadyPresent,
    /// A free frame was assigned.
    Allocated,
    /// The cache is full; the returned page was chosen (LRU) as the victim
    /// and has been deallocated to make room.  Its dirty-block count is
    /// returned so the caller can charge the flush traffic.
    Replaced {
        /// The evicted page.
        victim: PageRef,
        /// How many blocks of the victim were present.
        victim_blocks: u32,
        /// How many of those blocks were dirty (must be written back home).
        victim_dirty: u32,
    },
}

/// A node's S-COMA page cache.
#[derive(Debug, Clone)]
pub struct PageCache {
    config: PageCacheConfig,
    geometry: Geometry,
    frames: Slab<Frame>,
    /// Indices of currently allocated frames (the LRU scan set).
    allocated: Vec<u32>,
    clock: u64,
}

impl PageCache {
    /// Create an empty page cache at the paper's geometry.
    ///
    /// # Panics
    /// Panics if a finite configuration holds zero frames.
    pub fn new(config: PageCacheConfig) -> Self {
        Self::with_geometry(config, Geometry::PAPER)
    }

    /// Create an empty page cache whose frames hold `geometry.page_bytes`
    /// pages of `geometry.blocks_per_page()` fine-grain tags each.
    ///
    /// # Panics
    /// Panics if a finite configuration holds zero frames.
    pub fn with_geometry(config: PageCacheConfig, geometry: Geometry) -> Self {
        if let Some(frames) = config.frames_at(geometry.page_bytes) {
            assert!(frames > 0, "page cache must hold at least one frame");
        }
        PageCache {
            config,
            geometry,
            frames: Slab::new(),
            allocated: Vec::new(),
            clock: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> PageCacheConfig {
        self.config
    }

    /// Number of frames currently allocated.
    pub fn allocated_frames(&self) -> usize {
        self.allocated.len()
    }

    /// Capacity in frames (`None` if infinite).
    pub fn capacity_frames(&self) -> Option<usize> {
        self.config.frames_at(self.geometry.page_bytes)
    }

    /// Dense index of the page containing `block`, at this cache's geometry.
    #[inline]
    fn page_of(&self, block: BlockIdx) -> PageIdx {
        self.geometry.page_of_block_idx(block)
    }

    /// Index of `block` within its page, at this cache's geometry.
    #[inline]
    fn offset_of(&self, block: BlockIdx) -> usize {
        self.geometry.index_in_page_idx(block) as usize
    }

    /// `true` if `page` has a frame.
    pub fn contains_page(&self, page: PageIdx) -> bool {
        self.frames
            .get(page.index())
            .map(|f| f.allocated)
            .unwrap_or(false)
    }

    /// `true` if `block` is present in its page's frame.
    pub fn block_present(&self, block: BlockIdx) -> bool {
        self.frames
            .get(self.page_of(block).index())
            .map(|f| f.allocated && f.present.contains(self.offset_of(block)))
            .unwrap_or(false)
    }

    /// Allocate a frame for `page`, replacing the LRU page if necessary.
    pub fn allocate(&mut self, page: PageRef) -> AllocOutcome {
        self.clock += 1;
        let clock = self.clock;
        let slot = self.frames.entry(page.idx.index());
        if slot.allocated {
            slot.last_use = clock;
            return AllocOutcome::AlreadyPresent;
        }
        let outcome = match self.capacity_frames() {
            Some(cap) if self.allocated.len() >= cap => {
                // LRU victim; ties (impossible with the monotonic clock, but
                // kept for robustness) break toward the smaller page id, as
                // the map-keyed implementation did.
                let (pos, victim_idx) = self
                    .allocated
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, idx)| {
                        // dsm-lint: allow(panic-path, the allocated list only holds indices handed out by the frame arena)
                        let f = self.frames.get(**idx as usize).expect("allocated frame");
                        (f.last_use, f.id.0)
                    })
                    .map(|(pos, idx)| (pos, *idx))
                    // dsm-lint: allow(panic-path, this branch runs only when allocation found no free frame so the allocated list is non-empty)
                    .expect("cache is full, so non-empty");
                self.allocated.swap_remove(pos);
                let frame = self
                    .frames
                    .get_mut(victim_idx as usize)
                    // dsm-lint: allow(panic-path, victim index came from the allocated list a few lines up)
                    .expect("allocated frame");
                let victim = PageRef::new(frame.id, PageIdx(victim_idx));
                let victim_blocks = frame.present.count();
                let victim_dirty = frame.dirty.count();
                *frame = Frame::default();
                AllocOutcome::Replaced {
                    victim,
                    victim_blocks,
                    victim_dirty,
                }
            }
            _ => AllocOutcome::Allocated,
        };
        self.allocated.push(page.idx.0);
        *self.frames.entry(page.idx.index()) = Frame {
            allocated: true,
            id: page.id,
            present: SharerSet::new(),
            dirty: SharerSet::new(),
            last_use: clock,
        };
        outcome
    }

    /// Explicitly deallocate `page` (e.g. migration of a relocated page).
    /// Returns `(blocks present, dirty blocks)` if it was allocated.
    pub fn deallocate(&mut self, page: PageIdx) -> Option<(u32, u32)> {
        let frame = self.frames.get_mut(page.index())?;
        if !frame.allocated {
            return None;
        }
        let counts = (frame.present.count(), frame.dirty.count());
        *frame = Frame::default();
        let pos = self
            .allocated
            .iter()
            .position(|idx| *idx == page.0)
            // dsm-lint: allow(panic-path, release is called only for pages the cache returned from allocate; the allocated list tracks every live frame)
            .expect("allocated list tracks every frame");
        self.allocated.swap_remove(pos);
        Some(counts)
    }

    /// Look up `block`: `true` if it is present.  A lookup of a page with a
    /// frame marks that page most recently used.  A (fine-grain) miss means
    /// the enclosing page has a frame but this block has not been fetched
    /// yet, or the page has no frame at all.
    #[inline]
    pub fn lookup_block(&mut self, block: BlockIdx) -> bool {
        self.clock += 1;
        let page = self.page_of(block).index();
        let offset = self.offset_of(block);
        match self.frames.get_mut(page) {
            Some(frame) if frame.allocated => {
                frame.last_use = self.clock;
                frame.present.contains(offset)
            }
            _ => false,
        }
    }

    /// Install a fetched block into its page's frame.  Returns `false` (and
    /// does nothing) if the page has no frame.
    pub fn install_block(&mut self, block: BlockIdx, dirty: bool) -> bool {
        let page = self.page_of(block).index();
        let offset = self.offset_of(block);
        match self.frames.get_mut(page) {
            Some(frame) if frame.allocated => {
                frame.present.insert(offset);
                if dirty {
                    frame.dirty.insert(offset);
                }
                true
            }
            _ => false,
        }
    }

    /// Mark a present block dirty (a local processor wrote it). Returns
    /// `false` if the block is not present.
    pub fn mark_dirty(&mut self, block: BlockIdx) -> bool {
        let page = self.page_of(block).index();
        let offset = self.offset_of(block);
        match self.frames.get_mut(page) {
            Some(frame) if frame.allocated && frame.present.contains(offset) => {
                frame.dirty.insert(offset);
                true
            }
            _ => false,
        }
    }

    /// Invalidate a block (remote write). Returns `true` if it was present.
    pub fn invalidate_block(&mut self, block: BlockIdx) -> bool {
        let page = self.page_of(block).index();
        let offset = self.offset_of(block);
        match self.frames.get_mut(page) {
            Some(frame) if frame.allocated => {
                let was_present = frame.present.remove(offset);
                frame.dirty.remove(offset);
                was_present
            }
            _ => false,
        }
    }

    /// Number of blocks present in `page`'s frame (0 if not allocated).
    pub fn blocks_present(&self, page: PageIdx) -> u32 {
        self.frames
            .get(page.index())
            .filter(|f| f.allocated)
            .map(|f| f.present.count())
            .unwrap_or(0)
    }

    /// Fragmentation of an allocated page frame: fraction of the frame's
    /// blocks that are *absent* (0.0 = fully populated). Returns `None` if
    /// the page has no frame.
    pub fn fragmentation(&self, page: PageIdx) -> Option<f64> {
        self.frames
            .get(page.index())
            .filter(|f| f.allocated)
            .map(|f| 1.0 - f.present.count() as f64 / self.geometry.blocks_per_page() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Identity interning: page id n ↔ index n.
    fn p(n: u64) -> PageRef {
        PageRef::new(PageId(n), PageIdx(n as u32))
    }

    fn two_frame_cache() -> PageCache {
        PageCache::new(PageCacheConfig::Finite {
            size_bytes: 2 * PAGE_SIZE,
        })
    }

    #[test]
    fn paper_configs_hold_expected_frames() {
        assert_eq!(PageCacheConfig::PAPER.frames(), Some(600));
        assert_eq!(PageCacheConfig::PAPER_HALF.frames(), Some(300));
        assert_eq!(PageCacheConfig::Infinite.frames(), None);
    }

    #[test]
    fn allocate_and_install_blocks() {
        let mut pc = two_frame_cache();
        let page = p(7);
        assert_eq!(pc.allocate(page), AllocOutcome::Allocated);
        assert_eq!(pc.allocate(page), AllocOutcome::AlreadyPresent);
        let b = page.block_at(0).idx;
        assert!(!pc.lookup_block(b));
        assert!(pc.install_block(b, false));
        assert!(pc.lookup_block(b));
        assert_eq!(pc.blocks_present(page.idx), 1);
        assert!(pc.block_present(b));
    }

    #[test]
    fn install_into_unallocated_page_fails() {
        let mut pc = two_frame_cache();
        assert!(!pc.install_block(p(3).block_at(0).idx, false));
    }

    #[test]
    fn lru_replacement_when_full() {
        let mut pc = two_frame_cache();
        pc.allocate(p(1));
        pc.allocate(p(2));
        // Touch page 1 so page 2 becomes LRU.
        pc.lookup_block(p(1).block_at(0).idx);
        match pc.allocate(p(3)) {
            AllocOutcome::Replaced { victim, .. } => assert_eq!(victim, p(2)),
            other => panic!("expected replacement, got {other:?}"),
        }
        assert!(pc.contains_page(p(1).idx));
        assert!(pc.contains_page(p(3).idx));
        assert!(!pc.contains_page(p(2).idx));
    }

    #[test]
    fn replacement_reports_victim_contents() {
        let mut pc = two_frame_cache();
        pc.allocate(p(1));
        let b0 = p(1).block_at(0).idx;
        let b1 = p(1).block_at(1).idx;
        pc.install_block(b0, true);
        pc.install_block(b1, false);
        pc.allocate(p(2));
        // Make page 1 LRU (page 2 was touched more recently by allocation).
        match pc.allocate(p(9)) {
            AllocOutcome::Replaced {
                victim,
                victim_blocks,
                victim_dirty,
            } => {
                assert_eq!(victim, p(1));
                assert_eq!(victim_blocks, 2);
                assert_eq!(victim_dirty, 1);
            }
            other => panic!("expected replacement, got {other:?}"),
        }
    }

    #[test]
    fn infinite_cache_never_replaces() {
        let mut pc = PageCache::new(PageCacheConfig::Infinite);
        for i in 0..5_000 {
            assert_ne!(
                std::mem::discriminant(&pc.allocate(p(i))),
                std::mem::discriminant(&AllocOutcome::Replaced {
                    victim: p(0),
                    victim_blocks: 0,
                    victim_dirty: 0
                })
            );
        }
        assert_eq!(pc.allocated_frames(), 5_000);
    }

    #[test]
    fn dirty_tracking_and_invalidation() {
        let mut pc = two_frame_cache();
        let page = p(4);
        let b = page.block_at(0).idx;
        pc.allocate(page);
        pc.install_block(b, false);
        assert!(pc.mark_dirty(b));
        assert!(pc.invalidate_block(b));
        assert!(!pc.block_present(b));
        assert!(!pc.mark_dirty(b), "absent block cannot be dirtied");
        assert!(!pc.invalidate_block(b));
    }

    #[test]
    fn deallocate_returns_contents() {
        let mut pc = two_frame_cache();
        let page = p(5);
        pc.allocate(page);
        pc.install_block(page.block_at(0).idx, true);
        assert_eq!(pc.deallocate(page.idx), Some((1, 1)));
        assert_eq!(pc.deallocate(page.idx), None);
        assert_eq!(pc.allocated_frames(), 0);
    }

    #[test]
    fn fragmentation_measures_absent_blocks() {
        let mut pc = PageCache::new(PageCacheConfig::Infinite);
        let page = p(6);
        assert_eq!(pc.fragmentation(page.idx), None);
        pc.allocate(page);
        assert_eq!(pc.fragmentation(page.idx), Some(1.0));
        for offset in 0..32 {
            pc.install_block(page.block_at(offset).idx, false);
        }
        let frag = pc.fragmentation(page.idx).unwrap();
        assert!((frag - 0.5).abs() < 1e-9);
    }
}
