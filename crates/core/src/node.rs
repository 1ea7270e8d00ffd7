//! Per-node and per-processor runtime state used by the cluster simulator.
//!
//! The state transitions here are mechanics: what a coherence action does
//! to one processor cache, or how a node's block or page cache takes,
//! dirties or drops a block.  Which of them an access triggers, and what
//! it costs, is the simulator's protocol.

use crate::config::SystemConfig;
use crate::stats::NodeStats;
use dsm_protocol::block_cache::BlockState;
use dsm_protocol::{BlockCache, PageCache};
use mem_trace::{BlockRef, Geometry, PageIdx};
use sim_engine::Cycles;
use smp_node::cache::LineState;
use smp_node::page_table::PageMode;
use smp_node::{CacheConfig, DataCache, MemoryBus, MissClassifier, PageTable};

/// Runtime state of one processor.
#[derive(Debug, Clone)]
pub struct ProcState {
    /// The processor's private data cache.
    pub cache: DataCache,
    /// Miss-classification history.
    pub classifier: MissClassifier,
    /// The processor's local clock.
    pub time: Cycles,
    /// What the processor is currently blocked on, if anything.
    pub waiting: Waiting,
}

/// What a coherence or inclusion action does to a processor's copy of a
/// block.
#[derive(Debug, Clone, Copy)]
pub(crate) enum L1Action {
    /// Another writer took the block: a later miss is a coherence miss.
    Invalidate,
    /// The node lost the block: a later miss is a capacity/conflict miss.
    Evict,
    /// A reader took a dirty copy: keep it, shared.
    Downgrade,
}

/// Blocking state of a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waiting {
    /// Runnable.
    None,
    /// Arrived at a barrier and waiting for the rest of the cluster.
    Barrier(u32),
    /// Waiting to acquire a lock.
    Lock(u32),
}

impl ProcState {
    /// Fresh processor state with an empty cache.
    pub fn new(l1: CacheConfig) -> Self {
        ProcState {
            cache: DataCache::new(l1),
            classifier: MissClassifier::new(),
            time: Cycles::ZERO,
            waiting: Waiting::None,
        }
    }

    /// Fill `block` into the cache after a miss: modified if `written`,
    /// shared otherwise.
    pub(crate) fn fill(&mut self, block: BlockRef, written: bool) {
        let state = if written {
            LineState::Modified
        } else {
            LineState::Shared
        };
        self.cache.fill(block, state);
        self.classifier.record_fill(block.idx);
    }

    /// Apply a coherence or inclusion `action` to the cache's copy of
    /// `block`, if it holds one.
    #[inline]
    pub(crate) fn apply(&mut self, action: L1Action, block: BlockRef) {
        match action {
            L1Action::Downgrade => {
                self.cache.downgrade(block);
            }
            L1Action::Invalidate if self.cache.invalidate(block).is_valid() => {
                self.classifier.record_invalidation(block.idx);
            }
            L1Action::Evict if self.cache.invalidate(block).is_valid() => {
                self.classifier.record_eviction(block.idx);
            }
            L1Action::Invalidate | L1Action::Evict => {}
        }
    }

    /// Drop every cached block of `page` (a page flush), each recorded as
    /// an eviction so its refetch is classified capacity/conflict, as the
    /// paper does for relocation-induced refetches.  Returns the number of
    /// blocks dropped.
    pub(crate) fn flush_page(&mut self, geometry: Geometry, page: PageIdx) -> u32 {
        let resident: Vec<BlockRef> = self
            .cache
            .resident_blocks()
            .filter(|(b, _)| geometry.page_of_block_idx(b.idx) == page)
            .map(|(b, _)| b)
            .collect();
        for &block in &resident {
            self.cache.invalidate(block);
            self.classifier.record_eviction(block.idx);
        }
        resident.len() as u32
    }
}

/// Runtime state of one cluster node.
pub struct NodeState {
    /// The cluster device's SRAM block cache, if this system has one.
    pub block_cache: Option<BlockCache>,
    /// The S-COMA page cache, if this system supports fine-grain memory
    /// caching.
    pub page_cache: Option<PageCache>,
    /// The node's page table.
    pub page_table: PageTable,
    /// The node's memory bus.
    pub bus: MemoryBus,
    /// Counters reported at the end of the run.
    pub stats: NodeStats,
}

impl NodeState {
    /// Build the per-node hardware prescribed by `system` at the machine's
    /// address-space `geometry`.
    pub fn new(node_index: usize, system: &SystemConfig, geometry: Geometry) -> Self {
        NodeState {
            block_cache: system
                .block_cache
                .map(|c| BlockCache::with_geometry(c, geometry)),
            page_cache: system
                .page_cache
                .map(|c| PageCache::with_geometry(c, geometry)),
            page_table: PageTable::new(),
            bus: MemoryBus::new(node_index),
            stats: NodeStats::default(),
        }
    }

    /// Install a fetched block in the node's cache for a page mapped
    /// `mode`: the page cache of an S-COMA page, the block cache (if any)
    /// of any other.  Returns the block-cache victim it displaced.
    pub(crate) fn install(
        &mut self,
        mode: PageMode,
        block: BlockRef,
        dirty: bool,
    ) -> Option<(BlockRef, BlockState)> {
        if mode == PageMode::SComa {
            if let Some(pc) = self.page_cache.as_mut() {
                pc.install_block(block.idx, dirty);
            }
            return None;
        }
        let state = if dirty {
            BlockState::Dirty
        } else {
            BlockState::Clean
        };
        self.block_cache.as_mut()?.fill(block, state)
    }

    /// Mark a written block dirty wherever the node keeps it for a page
    /// mapped `mode`; `false` if no node cache holds it.
    pub(crate) fn mark_dirty(&mut self, mode: PageMode, block: BlockRef) -> bool {
        match mode {
            PageMode::RemoteCcNuma => self
                .block_cache
                .as_mut()
                .is_some_and(|bc| bc.mark_dirty(block)),
            PageMode::SComa => self
                .page_cache
                .as_mut()
                .is_some_and(|pc| pc.mark_dirty(block.idx)),
            PageMode::LocalHome | PageMode::Replica => false,
        }
    }

    /// Drop `block` from the node's block and page caches.
    pub(crate) fn invalidate(&mut self, block: BlockRef) {
        if let Some(bc) = self.block_cache.as_mut() {
            bc.invalidate(block);
        }
        if let Some(pc) = self.page_cache.as_mut() {
            pc.invalidate_block(block.idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::System;
    use crate::config::MachineConfig;

    #[test]
    fn node_state_builds_hardware_per_system() {
        let machine = MachineConfig::tiny();
        let cc = NodeState::new(0, &System::cc_numa().build(), machine.geometry);
        assert!(cc.block_cache.is_some());
        assert!(cc.page_cache.is_none());

        let rn = NodeState::new(0, &System::r_numa().build(), machine.geometry);
        assert!(rn.block_cache.is_none());
        assert!(rn.page_cache.is_some());

        let proc = ProcState::new(machine.l1);
        assert_eq!(proc.time, Cycles::ZERO);
        assert_eq!(proc.waiting, Waiting::None);
    }
}
