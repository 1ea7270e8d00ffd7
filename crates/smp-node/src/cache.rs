//! Direct-mapped per-processor data cache with MOESI-style line states.
//!
//! The paper assumes 16-KByte direct-mapped processor caches (sized to hold
//! the primary working set of the scaled-down SPLASH-2 inputs) with 64-byte
//! blocks.  The cache is modeled at block granularity: we track, for every
//! cache index, which block currently resides there and in which coherence
//! state.  The snoopy MOESI protocol inside the node is expressed through
//! the state transitions the enclosing simulator requests
//! ([`DataCache::invalidate`], [`DataCache::downgrade`]).
//!
//! Blocks are addressed by [`BlockRef`]: the *sparse id* selects the
//! direct-mapped set (conflict behaviour must be a function of real
//! addresses), while a line's tag is the block's dense index as a `u32`.
//! Comparing dense indices alone is exact, because the interner pairs ids
//! and indices one to one within a run.  The sparse id sits in a parallel
//! array that only victims and resident-block enumerations read, so they
//! still hand back the full ref without a lookup.

use mem_trace::{AccessKind, BlockId, BlockIdx, BlockRef, DirectMap};

/// MOESI coherence states of a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Line holds no valid block.
    Invalid,
    /// Clean, possibly shared with other caches.
    Shared,
    /// Clean and exclusive to this cache.
    Exclusive,
    /// Dirty and exclusive to this cache.
    Modified,
    /// Dirty but shared (this cache is responsible for the data).
    Owned,
}

impl LineState {
    /// `true` if the line holds data the memory below does not have.
    pub fn is_dirty(self) -> bool {
        matches!(self, LineState::Modified | LineState::Owned)
    }

    /// `true` if the line may be read without a bus transaction.
    pub fn is_valid(self) -> bool {
        !matches!(self, LineState::Invalid)
    }

    /// `true` if the line may be written without a bus transaction.
    pub fn is_writable(self) -> bool {
        matches!(self, LineState::Modified | LineState::Exclusive)
    }
}

/// Configuration of a direct-mapped cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Block (line) size in bytes.
    pub block_bytes: u64,
}

impl CacheConfig {
    /// The paper's 16-KByte direct-mapped processor cache with 64-byte
    /// blocks.
    pub const PAPER_L1: CacheConfig = CacheConfig {
        size_bytes: 16 * 1024,
        block_bytes: mem_trace::BLOCK_SIZE,
    };

    /// Number of lines (sets) in the cache.
    pub fn lines(&self) -> usize {
        (self.size_bytes / self.block_bytes) as usize
    }
}

/// A block evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The evicted block.
    pub block: BlockRef,
    /// Its state at eviction time (dirty victims must be written back).
    pub state: LineState,
}

/// Result of presenting an access to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The access hit and completed without a bus transaction.
    Hit,
    /// A write hit a line held in `Shared`/`Owned`; an upgrade (invalidation
    /// of other copies) is required but no data transfer.
    UpgradeMiss,
    /// The block is not present; a fill is required.  `victim` is the block
    /// that will be displaced by the fill, if any.
    Miss {
        /// Block displaced by the incoming fill, if the target line was
        /// occupied by a different block.
        victim: Option<Victim>,
    },
}

/// A direct-mapped data cache.
///
/// A line holds a block exactly when its state is valid; its tag and id
/// are stale otherwise.
#[derive(Debug, Clone)]
pub struct DataCache {
    config: CacheConfig,
    map: DirectMap,
    /// Dense index of each line's block.
    tags: Vec<u32>,
    /// Sparse id of each line's block, read only to rebuild its ref.
    ids: Vec<BlockId>,
    states: Vec<LineState>,
}

impl DataCache {
    /// Create an empty cache.
    ///
    /// # Panics
    /// Panics if the configuration is degenerate (zero lines or a block size
    /// that does not divide the capacity).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.block_bytes > 0, "block size must be non-zero");
        assert!(
            config.size_bytes.is_multiple_of(config.block_bytes),
            "capacity must be a multiple of the block size"
        );
        let lines = config.lines();
        assert!(lines > 0, "cache must have at least one line");
        DataCache {
            config,
            map: DirectMap::new(lines),
            tags: vec![0; lines],
            ids: vec![BlockId(0); lines],
            states: vec![LineState::Invalid; lines],
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    #[inline]
    fn index_of(&self, block: BlockRef) -> usize {
        self.map.line_of(block.id)
    }

    /// `true` if line `idx` holds `block`.  The tag is compared first: a
    /// sibling cache probed by a write's invalidation usually holds another
    /// block, and then the state is never read.
    #[inline]
    fn holds(&self, idx: usize, block: BlockRef) -> bool {
        self.tags[idx] == block.idx.0 && self.states[idx].is_valid()
    }

    /// The block line `idx` holds, with its state, if the line is valid and
    /// holds a block other than `block`.
    #[inline]
    fn other_victim(&self, idx: usize, block: BlockRef) -> Option<Victim> {
        let state = self.states[idx];
        (state.is_valid() && self.tags[idx] != block.idx.0).then(|| Victim {
            block: BlockRef::new(self.ids[idx], BlockIdx(self.tags[idx])),
            state,
        })
    }

    /// Current state of `block` (Invalid if not resident).
    #[inline]
    pub fn state_of(&self, block: BlockRef) -> LineState {
        let idx = self.index_of(block);
        if self.tags[idx] == block.idx.0 {
            self.states[idx]
        } else {
            LineState::Invalid
        }
    }

    /// `true` if `block` is resident in any valid state.
    pub fn contains(&self, block: BlockRef) -> bool {
        self.state_of(block).is_valid()
    }

    /// Probe the cache with an access *without* changing its contents.
    /// Returns what [`DataCache::access`] would report.
    #[inline]
    pub fn probe(&self, block: BlockRef, kind: AccessKind) -> CacheOutcome {
        let idx = self.index_of(block);
        if self.holds(idx, block) {
            match kind {
                AccessKind::Read => CacheOutcome::Hit,
                AccessKind::Write if self.states[idx].is_writable() => CacheOutcome::Hit,
                AccessKind::Write => CacheOutcome::UpgradeMiss,
            }
        } else {
            CacheOutcome::Miss {
                victim: self.other_victim(idx, block),
            }
        }
    }

    /// Present an access to the cache.
    ///
    /// On a hit the state is updated in place (a write hit on an
    /// `Exclusive` line silently becomes `Modified`).  On a miss or upgrade
    /// the cache contents are *not* changed; the caller performs the bus /
    /// DSM transaction and then calls [`DataCache::fill`] (or
    /// [`DataCache::upgrade`]) with the resulting state.
    pub fn access(&mut self, block: BlockRef, kind: AccessKind) -> CacheOutcome {
        let outcome = self.probe(block, kind);
        if outcome == CacheOutcome::Hit && kind.is_write() {
            let idx = self.index_of(block);
            self.states[idx] = LineState::Modified;
        }
        outcome
    }

    /// Install `block` in state `state`, evicting whatever occupied its line.
    /// Returns the victim, if one was displaced.
    pub fn fill(&mut self, block: BlockRef, state: LineState) -> Option<Victim> {
        assert!(state.is_valid(), "cannot fill a line into Invalid state");
        let idx = self.index_of(block);
        let victim = self.other_victim(idx, block);
        self.tags[idx] = block.idx.0;
        self.ids[idx] = block.id;
        self.states[idx] = state;
        victim
    }

    /// Complete a write-upgrade of a resident `Shared`/`Owned` line.
    pub fn upgrade(&mut self, block: BlockRef) {
        let idx = self.index_of(block);
        debug_assert!(self.holds(idx, block), "upgrade of a non-resident block");
        self.states[idx] = LineState::Modified;
    }

    /// Invalidate `block` if resident (remote write or page flush).  Returns
    /// the state it held.
    pub fn invalidate(&mut self, block: BlockRef) -> LineState {
        let idx = self.index_of(block);
        if self.holds(idx, block) {
            std::mem::replace(&mut self.states[idx], LineState::Invalid)
        } else {
            LineState::Invalid
        }
    }

    /// Downgrade `block` to `Shared`/`Owned` in response to a remote read.
    /// Returns the previous state.
    pub fn downgrade(&mut self, block: BlockRef) -> LineState {
        let idx = self.index_of(block);
        if self.holds(idx, block) {
            let old = self.states[idx];
            self.states[idx] = match old {
                LineState::Modified | LineState::Owned => LineState::Owned,
                _ => LineState::Shared,
            };
            old
        } else {
            LineState::Invalid
        }
    }

    /// Iterate over resident blocks (used for page flushes).
    pub fn resident_blocks(&self) -> impl Iterator<Item = (BlockRef, LineState)> + '_ {
        (0..self.states.len())
            .filter(|&idx| self.states[idx].is_valid())
            .map(|idx| {
                let block = BlockRef::new(self.ids[idx], BlockIdx(self.tags[idx]));
                (block, self.states[idx])
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_trace::{BlockId, BlockIdx};

    /// Identity interning: block id n ↔ index n.
    fn b(n: u64) -> BlockRef {
        BlockRef::new(BlockId(n), BlockIdx(n as u32))
    }

    fn small_cache() -> DataCache {
        // 4 lines of 64 bytes.
        DataCache::new(CacheConfig {
            size_bytes: 256,
            block_bytes: 64,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_cache();
        assert_eq!(
            c.access(b(10), AccessKind::Read),
            CacheOutcome::Miss { victim: None }
        );
        c.fill(b(10), LineState::Shared);
        assert_eq!(c.access(b(10), AccessKind::Read), CacheOutcome::Hit);
        assert_eq!(c.state_of(b(10)), LineState::Shared);
    }

    #[test]
    fn write_hit_on_exclusive_silently_becomes_modified() {
        let mut c = small_cache();
        c.fill(b(3), LineState::Exclusive);
        assert_eq!(c.access(b(3), AccessKind::Write), CacheOutcome::Hit);
        assert_eq!(c.state_of(b(3)), LineState::Modified);
    }

    #[test]
    fn write_to_shared_requires_upgrade() {
        let mut c = small_cache();
        c.fill(b(3), LineState::Shared);
        assert_eq!(c.access(b(3), AccessKind::Write), CacheOutcome::UpgradeMiss);
        c.upgrade(b(3));
        assert_eq!(c.state_of(b(3)), LineState::Modified);
        assert_eq!(c.access(b(3), AccessKind::Write), CacheOutcome::Hit);
    }

    #[test]
    fn conflicting_blocks_evict_each_other() {
        // Identity interning, then ids a million past their dense indices:
        // the victim comes back as the exact ref that was filled.
        for id_offset in [0, 1_000_000] {
            let r = |n: u64| BlockRef::new(BlockId(n + id_offset), BlockIdx(n as u32));
            let mut c = small_cache(); // 4 lines => blocks 0 and 4 conflict
            let a = r(0);
            let bb = r(4);
            c.fill(a, LineState::Modified);
            match c.access(bb, AccessKind::Read) {
                CacheOutcome::Miss { victim: Some(v) } => {
                    assert_eq!(v.block, a);
                    assert_eq!(v.state, LineState::Modified);
                    assert!(v.state.is_dirty());
                }
                other => panic!("expected conflict miss with victim, got {other:?}"),
            }
            let victim = c
                .fill(bb, LineState::Shared)
                .expect("fill displaces victim");
            assert_eq!(victim.block, a);
            assert!(!c.contains(a));
            assert!(c.contains(bb));
        }
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut c = small_cache();
        c.fill(b(7), LineState::Modified);
        assert_eq!(c.downgrade(b(7)), LineState::Modified);
        assert_eq!(c.state_of(b(7)), LineState::Owned);
        assert_eq!(c.invalidate(b(7)), LineState::Owned);
        assert_eq!(c.state_of(b(7)), LineState::Invalid);
        // Invalidating again is a no-op.
        assert_eq!(c.invalidate(b(7)), LineState::Invalid);
    }

    #[test]
    fn downgrade_of_exclusive_gives_shared() {
        let mut c = small_cache();
        c.fill(b(9), LineState::Exclusive);
        assert_eq!(c.downgrade(b(9)), LineState::Exclusive);
        assert_eq!(c.state_of(b(9)), LineState::Shared);
    }

    #[test]
    fn resident_blocks_lists_valid_lines_only() {
        let mut c = small_cache();
        c.fill(b(0), LineState::Shared);
        c.fill(b(1), LineState::Modified);
        c.invalidate(b(0));
        let resident: Vec<_> = c.resident_blocks().collect();
        assert_eq!(resident, vec![(b(1), LineState::Modified)]);
    }

    #[test]
    fn probe_does_not_modify() {
        let mut c = small_cache();
        assert_eq!(
            c.probe(b(5), AccessKind::Read),
            CacheOutcome::Miss { victim: None }
        );
        c.fill(b(5), LineState::Shared);
        assert_eq!(c.probe(b(5), AccessKind::Write), CacheOutcome::UpgradeMiss);
        assert_eq!(c.state_of(b(5)), LineState::Shared);
    }

    #[test]
    fn paper_l1_has_256_lines() {
        assert_eq!(CacheConfig::PAPER_L1.lines(), 256);
    }

    #[test]
    #[should_panic(expected = "multiple of the block size")]
    fn misaligned_capacity_rejected() {
        DataCache::new(CacheConfig {
            size_bytes: 100,
            block_bytes: 64,
        });
    }
}
