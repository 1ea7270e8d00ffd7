//! Dense interning of sparse page and block ids.
//!
//! The address space a workload touches is sparse: page numbers come from
//! wherever the layout allocator placed each segment, so they are useless as
//! direct array indices.  Everything downstream of the trace, however, only
//! ever cares about the *set* of touched pages — and that set is small and
//! grows monotonically.  [`PageInterner`] assigns each distinct [`PageId`] a
//! contiguous [`PageIdx`] (`0, 1, 2, …`) on first sight, after which every
//! layer of the memory system keys its per-page and per-block state by plain
//! `Vec` index instead of by hash:
//!
//! * one interner probe per memory reference replaces a hash-map lookup in
//!   every layer it feeds (page table, directory, caches, classifiers,
//!   policy counters);
//! * block indices are derived, not interned: a page's blocks occupy the
//!   contiguous index range `page_idx * BLOCKS_PER_PAGE ..`, so
//!   [`BlockIdx`] is computed with a shift and page-granular operations
//!   (flushes, purges) become 64-slot scans instead of whole-table walks.
//!
//! Because simulation is deterministic, first-touch order — and therefore
//! the id↔index assignment — is identical across runs of the same trace;
//! interning is invisible in any result.
//!
//! The probe table is a purpose-built open-addressed map (u64 → u32,
//! power-of-two capacity, multiplicative hashing, linear probing) rather
//! than a `std::collections::HashMap`: the interner sits on the per-access
//! hot path, where SipHash costs more than the rest of the lookup.

use crate::addr::{BlockId, Geometry, GlobalAddr, PageId, BLOCKS_PER_PAGE};
use std::fmt;

/// Dense index of an interned page (`0 ..` in first-touch order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageIdx(pub u32);

/// Dense index of a block of an interned page:
/// `page_idx * BLOCKS_PER_PAGE + index_in_page`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockIdx(pub u32);

impl PageIdx {
    /// Numeric index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The dense index of this page's `offset`-th block.
    #[inline]
    pub fn block(self, offset: u64) -> BlockIdx {
        debug_assert!(offset < BLOCKS_PER_PAGE);
        BlockIdx(self.0 * BLOCKS_PER_PAGE as u32 + offset as u32)
    }

    /// Iterate over the dense indices of every block of this page.
    pub fn blocks(self) -> impl Iterator<Item = BlockIdx> {
        let first = self.0 * BLOCKS_PER_PAGE as u32;
        (first..first + BLOCKS_PER_PAGE as u32).map(BlockIdx)
    }
}

impl BlockIdx {
    /// Numeric index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The dense index of the containing page.
    #[inline]
    pub fn page(self) -> PageIdx {
        PageIdx(self.0 / BLOCKS_PER_PAGE as u32)
    }

    /// Index of this block within its page (`0 .. BLOCKS_PER_PAGE`).
    #[inline]
    pub fn index_in_page(self) -> u64 {
        u64::from(self.0) % BLOCKS_PER_PAGE
    }
}

/// A page id together with its dense index — the currency of the simulator's
/// hot path.  The id is kept for the rare operations that must reconstruct
/// global addresses (network-visible page moves); everything state-keyed
/// uses the index.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PageRef {
    /// The sparse global page id.
    pub id: PageId,
    /// The dense interned index.
    pub idx: PageIdx,
}

/// A block id together with its dense index (see [`PageRef`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct BlockRef {
    /// The sparse global block id.
    pub id: BlockId,
    /// The dense derived index.
    pub idx: BlockIdx,
}

impl PageRef {
    /// Pair an id with its index.  The caller vouches the pairing came from
    /// an interner (or any other injective assignment).
    #[inline]
    pub fn new(id: PageId, idx: PageIdx) -> Self {
        PageRef { id, idx }
    }

    /// The [`BlockRef`] of `block`, which must belong to this page.
    #[inline]
    pub fn block(self, block: BlockId) -> BlockRef {
        debug_assert_eq!(block.page(), self.id);
        BlockRef {
            id: block,
            idx: self.idx.block(block.index_in_page()),
        }
    }

    /// The [`BlockRef`] of this page's `offset`-th block.
    #[inline]
    pub fn block_at(self, offset: u64) -> BlockRef {
        BlockRef {
            id: BlockId(self.id.first_block().0 + offset),
            idx: self.idx.block(offset),
        }
    }
}

impl BlockRef {
    /// Pair an id with its index (see [`PageRef::new`]).
    #[inline]
    pub fn new(id: BlockId, idx: BlockIdx) -> Self {
        BlockRef { id, idx }
    }

    /// Dense index of the containing page.
    #[inline]
    pub fn page_idx(self) -> PageIdx {
        self.idx.page()
    }
}

/// Geometry-aware dense-index derivation.  The inherent
/// [`PageIdx::block`]/[`BlockIdx::page`] methods assume the paper's
/// 64-blocks-per-page stride; layers that support page/block-size sweeps
/// derive indices through the machine's [`Geometry`] instead.  At
/// [`Geometry::PAPER`] both compute identical indices.
impl Geometry {
    /// The dense index of `page`'s `offset`-th block.
    #[inline]
    pub fn block_idx(self, page: PageIdx, offset: u64) -> BlockIdx {
        debug_assert!(offset < self.blocks_per_page());
        BlockIdx((page.0 << self.blocks_per_page_shift()) + offset as u32)
    }

    /// The dense index of the page containing dense block `block`.
    #[inline]
    pub fn page_of_block_idx(self, block: BlockIdx) -> PageIdx {
        PageIdx(block.0 >> self.blocks_per_page_shift())
    }

    /// Index of dense block `block` within its page.
    #[inline]
    pub fn index_in_page_idx(self, block: BlockIdx) -> u64 {
        u64::from(block.0) & (self.blocks_per_page() - 1)
    }

    /// Iterate over the dense indices of every block of `page`.
    pub fn block_indices(self, page: PageIdx) -> impl Iterator<Item = BlockIdx> {
        let first = page.0 << self.blocks_per_page_shift();
        (first..first + self.blocks_per_page() as u32).map(BlockIdx)
    }

    /// The [`BlockRef`] of `page`'s `offset`-th block.
    #[inline]
    pub fn block_ref_at(self, page: PageRef, offset: u64) -> BlockRef {
        BlockRef {
            id: BlockId(self.first_block(page.id).0 + offset),
            idx: self.block_idx(page.idx, offset),
        }
    }

    /// Decompose `addr` into the [`BlockRef`] within its (already interned)
    /// page — the one derivation on the simulator's access path.
    #[inline]
    pub fn block_ref_of(self, page: PageRef, addr: GlobalAddr) -> BlockRef {
        let block = self.block_of(addr);
        BlockRef {
            id: block,
            idx: self.block_idx(page.idx, self.index_in_page(block)),
        }
    }

    /// Pages an interner can hold at this geometry: dense block indices must
    /// fit `u32`.
    pub fn max_interned_pages(self) -> usize {
        (u32::MAX / self.blocks_per_page() as u32) as usize
    }
}

impl fmt::Debug for PageIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p#{}", self.0)
    }
}
impl fmt::Debug for BlockIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b#{}", self.0)
    }
}
impl fmt::Debug for PageRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}@{:?}", self.id, self.idx)
    }
}
impl fmt::Debug for BlockRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}@{:?}", self.id, self.idx)
    }
}

/// Pages a single interner can hold: block indices must fit `u32`, so a page
/// index may not exceed `u32::MAX / BLOCKS_PER_PAGE` (a 256-GB footprint —
/// far past anything the harness simulates).
pub const MAX_INTERNED_PAGES: usize = (u32::MAX / BLOCKS_PER_PAGE as u32) as usize;

/// Assigns dense [`PageIdx`]es to sparse [`PageId`]s in first-touch order.
#[derive(Debug, Clone)]
pub struct PageInterner {
    /// Open-addressed probe table: `page.0 + 1` (0 = empty slot).
    keys: Vec<u64>,
    /// Probe-table values: the interned index of the slot's page.
    vals: Vec<u32>,
    /// Reverse map: `pages[idx]` is the id interned as `PageIdx(idx)`.
    pages: Vec<PageId>,
    /// Most pages this interner may hand out (geometry-dependent: dense
    /// block indices must fit `u32`).
    limit: usize,
}

impl Default for PageInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl PageInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::with_capacity(256)
    }

    /// An empty interner pre-sized for roughly `pages` distinct pages.
    pub fn with_capacity(pages: usize) -> Self {
        let slots = (pages.max(8) * 2).next_power_of_two();
        PageInterner {
            keys: vec![0; slots],
            vals: vec![0; slots],
            pages: Vec::with_capacity(pages),
            limit: MAX_INTERNED_PAGES,
        }
    }

    /// An empty interner whose page cap matches `geometry` (larger
    /// blocks-per-page ratios leave fewer dense block indices per `u32`).
    pub fn with_geometry(geometry: Geometry) -> Self {
        PageInterner {
            limit: geometry.max_interned_pages(),
            ..Self::new()
        }
    }

    /// Number of distinct pages interned so far.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // Fibonacci multiplicative hash onto the power-of-two table.
        let mask = self.keys.len() - 1;
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
    }

    /// Intern `page`, assigning the next dense index on first sight.
    #[inline]
    pub fn intern(&mut self, page: PageId) -> PageIdx {
        let key = page.0 + 1; // page ids fit u64/PAGE_SIZE, so no overflow
        let mut slot = self.slot_of(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                return PageIdx(self.vals[slot]);
            }
            if k == 0 {
                let idx = self.pages.len();
                assert!(idx < self.limit, "page footprint overflows u32");
                self.pages.push(page);
                self.keys[slot] = key;
                self.vals[slot] = idx as u32;
                if (self.pages.len() + 1) * 2 > self.keys.len() {
                    self.grow();
                }
                return PageIdx(idx as u32);
            }
            slot = (slot + 1) & (self.keys.len() - 1);
        }
    }

    /// The index of `page`, if it has been interned.
    #[inline]
    pub fn get(&self, page: PageId) -> Option<PageIdx> {
        let key = page.0 + 1;
        let mut slot = self.slot_of(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                return Some(PageIdx(self.vals[slot]));
            }
            if k == 0 {
                return None;
            }
            slot = (slot + 1) & (self.keys.len() - 1);
        }
    }

    /// The id interned as `idx`.
    ///
    /// # Panics
    /// Panics if `idx` was never handed out by this interner.
    #[inline]
    pub fn page(&self, idx: PageIdx) -> PageId {
        self.pages[idx.index()]
    }

    /// Intern `page` and return the paired [`PageRef`].
    #[inline]
    pub fn intern_ref(&mut self, page: PageId) -> PageRef {
        PageRef {
            id: page,
            idx: self.intern(page),
        }
    }

    /// The [`PageRef`] of an already-interned page.
    pub fn get_ref(&self, page: PageId) -> Option<PageRef> {
        self.get(page).map(|idx| PageRef { id: page, idx })
    }

    /// The [`PageRef`] of the page interned as `idx`.
    pub fn page_ref(&self, idx: PageIdx) -> PageRef {
        PageRef {
            id: self.page(idx),
            idx,
        }
    }

    /// Reconstruct the sparse [`BlockId`] of a dense block index.
    pub fn block_id(&self, idx: BlockIdx) -> BlockId {
        BlockId(self.page(idx.page()).first_block().0 + idx.index_in_page())
    }

    /// Iterate over `(id, idx)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = PageRef> + '_ {
        self.pages.iter().enumerate().map(|(i, id)| PageRef {
            id: *id,
            idx: PageIdx(i as u32),
        })
    }

    #[cold]
    fn grow(&mut self) {
        let new_slots = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_slots]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; new_slots]);
        for (key, val) in old_keys.into_iter().zip(old_vals) {
            if key == 0 {
                continue;
            }
            let mut slot = self.slot_of(key);
            while self.keys[slot] != 0 {
                slot = (slot + 1) & (new_slots - 1);
            }
            self.keys[slot] = key;
            self.vals[slot] = val;
        }
    }
}

/// A growable dense table keyed by an interned index: reads past the
/// populated prefix see the default value, writes grow the backing `Vec` on
/// demand.  This is the storage discipline behind most flattened maps in the
/// memory system (page-table slots, page-cache frames, placement, policy
/// counters); the directory and the miss classifier pack their per-block
/// state into tables of their own.
#[derive(Debug, Clone, Default)]
pub struct Slab<T> {
    items: Vec<T>,
}

impl<T: Default + Clone> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab { items: Vec::new() }
    }

    /// Number of materialized slots (indices ever written or grown over).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if no slot has been materialized.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Shared access to slot `i`, or `None` if it was never materialized
    /// (logically: the default value).
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        self.items.get(i)
    }

    /// Mutable access to slot `i` without growing.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.items.get_mut(i)
    }

    /// Mutable access to slot `i`, growing the slab with defaults as needed.
    #[inline]
    pub fn entry(&mut self, i: usize) -> &mut T {
        if i >= self.items.len() {
            self.items.resize(i + 1, T::default());
        }
        &mut self.items[i]
    }

    /// Iterate over materialized slots.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Iterate over `(index, slot)` pairs of materialized slots.
    pub fn iter_enumerated(&self) -> impl Iterator<Item = (usize, &T)> {
        self.items.iter().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_first_touch_dense() {
        let mut it = PageInterner::new();
        assert!(it.is_empty());
        assert_eq!(it.intern(PageId(900)), PageIdx(0));
        assert_eq!(it.intern(PageId(3)), PageIdx(1));
        assert_eq!(it.intern(PageId(900)), PageIdx(0), "re-intern is stable");
        assert_eq!(it.len(), 2);
        assert_eq!(it.page(PageIdx(0)), PageId(900));
        assert_eq!(it.page(PageIdx(1)), PageId(3));
        assert_eq!(it.get(PageId(3)), Some(PageIdx(1)));
        assert_eq!(it.get(PageId(4)), None);
    }

    #[test]
    fn interner_survives_growth() {
        let mut it = PageInterner::with_capacity(4);
        for i in 0..10_000u64 {
            assert_eq!(it.intern(PageId(i * 97)), PageIdx(i as u32));
        }
        assert_eq!(it.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(it.get(PageId(i * 97)), Some(PageIdx(i as u32)));
            assert_eq!(it.page(PageIdx(i as u32)), PageId(i * 97));
        }
        assert_eq!(it.get(PageId(1)), None);
    }

    #[test]
    fn block_indices_are_contiguous_per_page() {
        let mut it = PageInterner::new();
        let p = it.intern_ref(PageId(77));
        assert_eq!(p.idx, PageIdx(0));
        let blocks: Vec<BlockIdx> = p.idx.blocks().collect();
        assert_eq!(blocks.len(), BLOCKS_PER_PAGE as usize);
        assert_eq!(blocks[0], BlockIdx(0));
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(b.page(), p.idx);
            assert_eq!(b.index_in_page(), i as u64);
            assert_eq!(it.block_id(*b), BlockId(77 * BLOCKS_PER_PAGE + i as u64));
        }
        let q = it.intern_ref(PageId(5));
        assert_eq!(q.idx.block(0), BlockIdx(BLOCKS_PER_PAGE as u32));
    }

    #[test]
    fn refs_pair_ids_with_indices() {
        let mut it = PageInterner::new();
        let p = it.intern_ref(PageId(9));
        let block = BlockId(9 * BLOCKS_PER_PAGE + 5);
        let b = p.block(block);
        assert_eq!(b.id, block);
        assert_eq!(b.idx, PageIdx(0).block(5));
        assert_eq!(b.page_idx(), p.idx);
        assert_eq!(p.block_at(5), b);
        assert_eq!(it.get_ref(PageId(9)), Some(p));
        assert_eq!(it.page_ref(p.idx), p);
        assert!(it.get_ref(PageId(10)).is_none());
        let collected: Vec<PageRef> = it.iter().collect();
        assert_eq!(collected, vec![p]);
    }

    #[test]
    fn slab_grows_on_demand_and_defaults() {
        let mut s: Slab<u64> = Slab::new();
        assert!(s.is_empty());
        assert_eq!(s.get(3), None);
        *s.entry(3) += 7;
        assert_eq!(s.len(), 4);
        assert_eq!(s.get(3), Some(&7));
        assert_eq!(s.get(0), Some(&0), "grown-over slots hold the default");
        assert_eq!(s.get_mut(9), None, "get_mut never grows");
        assert_eq!(s.iter().copied().sum::<u64>(), 7);
        assert_eq!(s.iter_enumerated().count(), 4);
    }
}
