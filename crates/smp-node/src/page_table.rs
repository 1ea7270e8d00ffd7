//! Per-node page table and page-mapping modes.
//!
//! Every node maps global shared pages into its local physical address
//! space.  How a page is mapped determines where a processor-cache miss on
//! that page is serviced:
//!
//! * [`PageMode::LocalHome`] — the page's home is this node; misses go to
//!   local memory.
//! * [`PageMode::RemoteCcNuma`] — the page lives on another node; misses go
//!   through the cluster device (block cache, then the DSM protocol).
//! * [`PageMode::SComa`] — R-NUMA relocated the page into this node's
//!   S-COMA page cache; misses are serviced from local memory if the block
//!   is present in the page cache, otherwise fetched from the home node and
//!   installed.
//! * [`PageMode::Replica`] — page replication installed a read-only copy in
//!   local memory; reads are local, writes fault and force the page back to
//!   a single read-write home.
//!
//! All page-mode transitions (first-touch, migration, replication, R-NUMA
//! relocation, replica invalidation) go through this table.
//!
//! Entries are keyed by the dense [`PageIdx`] the trace layer interns: the
//! mapping lookup on every memory reference is a single array access.

use mem_trace::{NodeId, PageIdx, Slab};

/// How a page is currently mapped on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageMode {
    /// The page's home memory is on this node.
    LocalHome,
    /// The page is remote and cached block-by-block through CC-NUMA.
    RemoteCcNuma,
    /// The page has been relocated into this node's S-COMA page cache.
    SComa,
    /// This node holds a read-only replica of the page.
    Replica,
}

/// Page access protection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageProtection {
    /// Reads and writes allowed.
    ReadWrite,
    /// Writes fault (used for replicated pages).
    ReadOnly,
}

/// A node's view of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMapping {
    /// Mapping mode.
    pub mode: PageMode,
    /// Access protection.
    pub protection: PageProtection,
    /// The page's current home node (kept up to date across migrations).
    pub home: NodeId,
}

impl PageMapping {
    /// A read-write mapping in the given mode with the given home.
    pub fn new(mode: PageMode, home: NodeId) -> Self {
        PageMapping {
            mode,
            protection: PageProtection::ReadWrite,
            home,
        }
    }

    /// A read-only replica mapping.
    pub fn replica(home: NodeId) -> Self {
        PageMapping {
            mode: PageMode::Replica,
            protection: PageProtection::ReadOnly,
            home,
        }
    }
}

/// Per-node page table: a dense slab of mapping slots over interned page
/// indices.
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    entries: Slab<Option<PageMapping>>,
    mapped: usize,
}

impl PageTable {
    /// An empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current mapping of `page`, if mapped.
    #[inline]
    pub fn lookup(&self, page: PageIdx) -> Option<PageMapping> {
        self.entries.get(page.index()).copied().flatten()
    }

    /// `true` if `page` is mapped.
    pub fn is_mapped(&self, page: PageIdx) -> bool {
        self.lookup(page).is_some()
    }

    /// Install (or replace) the mapping of `page`.
    pub fn map(&mut self, page: PageIdx, mapping: PageMapping) {
        let slot = self.entries.entry(page.index());
        if slot.is_none() {
            self.mapped += 1;
        }
        *slot = Some(mapping);
    }

    /// Remove the mapping of `page`; returns the old mapping.
    pub fn unmap(&mut self, page: PageIdx) -> Option<PageMapping> {
        let old = self.entries.get_mut(page.index()).and_then(Option::take);
        if old.is_some() {
            self.mapped -= 1;
        }
        old
    }

    /// Change only the mode of an existing mapping; returns `false` if the
    /// page was not mapped.
    pub fn set_mode(&mut self, page: PageIdx, mode: PageMode) -> bool {
        match self.entries.get_mut(page.index()).and_then(Option::as_mut) {
            Some(m) => {
                m.mode = mode;
                true
            }
            None => false,
        }
    }

    /// Change only the protection of an existing mapping; returns `false` if
    /// the page was not mapped.
    pub fn set_protection(&mut self, page: PageIdx, protection: PageProtection) -> bool {
        match self.entries.get_mut(page.index()).and_then(Option::as_mut) {
            Some(m) => {
                m.protection = protection;
                true
            }
            None => false,
        }
    }

    /// Update the recorded home node of `page` (after a migration elsewhere
    /// in the cluster); returns `false` if the page was not mapped here.
    pub fn set_home(&mut self, page: PageIdx, home: NodeId) -> bool {
        match self.entries.get_mut(page.index()).and_then(Option::as_mut) {
            Some(m) => {
                m.home = home;
                true
            }
            None => false,
        }
    }

    /// Number of pages currently mapped in `mode`.
    pub fn count_in_mode(&self, mode: PageMode) -> usize {
        self.entries
            .iter()
            .filter(|m| m.map(|m| m.mode == mode).unwrap_or(false))
            .count()
    }

    /// Iterate over all mapped pages.
    pub fn iter(&self) -> impl Iterator<Item = (PageIdx, PageMapping)> + '_ {
        self.entries
            .iter_enumerated()
            .filter_map(|(i, m)| m.map(|m| (PageIdx(i as u32), m)))
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.mapped
    }

    /// `true` if no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.mapped == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_lookup_unmap() {
        let mut pt = PageTable::new();
        let p = PageIdx(5);
        assert!(!pt.is_mapped(p));
        pt.map(p, PageMapping::new(PageMode::RemoteCcNuma, NodeId(3)));
        let m = pt.lookup(p).unwrap();
        assert_eq!(m.mode, PageMode::RemoteCcNuma);
        assert_eq!(m.home, NodeId(3));
        assert_eq!(m.protection, PageProtection::ReadWrite);
        let old = pt.unmap(p).unwrap();
        assert_eq!(old.mode, PageMode::RemoteCcNuma);
        assert!(!pt.is_mapped(p));
    }

    #[test]
    fn unmap_of_unmapped_page_is_noop() {
        let mut pt = PageTable::new();
        assert!(pt.unmap(PageIdx(1)).is_none());
        assert!(pt.is_empty());
    }

    #[test]
    fn replica_mapping_is_read_only() {
        let m = PageMapping::replica(NodeId(0));
        assert_eq!(m.mode, PageMode::Replica);
        assert_eq!(m.protection, PageProtection::ReadOnly);
    }

    #[test]
    fn mode_and_protection_transitions() {
        let mut pt = PageTable::new();
        let p = PageIdx(9);
        pt.map(p, PageMapping::new(PageMode::RemoteCcNuma, NodeId(1)));
        assert!(pt.set_mode(p, PageMode::SComa));
        assert_eq!(pt.lookup(p).unwrap().mode, PageMode::SComa);
        assert!(pt.set_protection(p, PageProtection::ReadOnly));
        assert_eq!(pt.lookup(p).unwrap().protection, PageProtection::ReadOnly);
        assert!(pt.set_home(p, NodeId(7)));
        assert_eq!(pt.lookup(p).unwrap().home, NodeId(7));
        assert!(!pt.set_mode(PageIdx(1000), PageMode::SComa));
        assert!(!pt.set_protection(PageIdx(1000), PageProtection::ReadOnly));
        assert!(!pt.set_home(PageIdx(1000), NodeId(0)));
    }

    #[test]
    fn count_in_mode_and_iteration() {
        let mut pt = PageTable::new();
        pt.map(PageIdx(0), PageMapping::new(PageMode::LocalHome, NodeId(0)));
        pt.map(PageIdx(1), PageMapping::new(PageMode::SComa, NodeId(2)));
        pt.map(PageIdx(2), PageMapping::new(PageMode::SComa, NodeId(3)));
        pt.map(PageIdx(3), PageMapping::replica(NodeId(1)));
        assert_eq!(pt.count_in_mode(PageMode::SComa), 2);
        assert_eq!(pt.count_in_mode(PageMode::LocalHome), 1);
        assert_eq!(pt.count_in_mode(PageMode::Replica), 1);
        assert_eq!(pt.count_in_mode(PageMode::RemoteCcNuma), 0);
        assert_eq!(pt.iter().count(), 4);
        assert_eq!(pt.len(), 4);
        assert!(!pt.is_empty());
    }

    #[test]
    fn remapping_replaces_previous_entry() {
        let mut pt = PageTable::new();
        let p = PageIdx(4);
        pt.map(p, PageMapping::new(PageMode::RemoteCcNuma, NodeId(1)));
        pt.map(p, PageMapping::new(PageMode::SComa, NodeId(1)));
        assert_eq!(pt.len(), 1);
        assert_eq!(pt.lookup(p).unwrap().mode, PageMode::SComa);
    }

    #[test]
    fn sparse_indices_leave_holes_unmapped() {
        let mut pt = PageTable::new();
        pt.map(
            PageIdx(10),
            PageMapping::new(PageMode::LocalHome, NodeId(0)),
        );
        assert_eq!(pt.len(), 1);
        assert!(!pt.is_mapped(PageIdx(4)));
        assert_eq!(pt.iter().count(), 1);
        assert_eq!(pt.iter().next().unwrap().0, PageIdx(10));
    }
}
