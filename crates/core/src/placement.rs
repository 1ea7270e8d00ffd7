//! First-touch page placement and home-node tracking.
//!
//! All systems in the paper start from the same "first-touch" placement
//! policy: at the start of the parallel phase, the first node to request a
//! page becomes its home.  Page migration later *changes* the home; this
//! module is the single source of truth for "where does page P live right
//! now".
//!
//! Homes are a dense slab over interned [`PageIdx`]es — the home lookup on
//! every miss is a single array access.

use mem_trace::{NodeId, PageIdx, Slab};

/// Tracks the home node of every shared page.
#[derive(Debug, Clone, Default)]
pub struct PagePlacement {
    homes: Slab<Option<NodeId>>,
    placed: usize,
}

impl PagePlacement {
    /// An empty placement (no page has been touched yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// The home of `page`, if it has been placed.
    #[inline]
    pub fn home_of(&self, page: PageIdx) -> Option<NodeId> {
        self.homes.get(page.index()).copied().flatten()
    }

    /// `true` if `page` has been placed.
    pub fn is_placed(&self, page: PageIdx) -> bool {
        self.home_of(page).is_some()
    }

    /// Place `page` on first touch by `node`; returns the page's home (the
    /// toucher if this really was the first touch, the existing home
    /// otherwise).
    pub fn first_touch(&mut self, page: PageIdx, node: NodeId) -> NodeId {
        let slot = self.homes.entry(page.index());
        match slot {
            Some(home) => *home,
            None => {
                *slot = Some(node);
                self.placed += 1;
                node
            }
        }
    }

    /// Migrate `page` to a new home.  Returns the previous home.
    ///
    /// # Panics
    /// Panics if the page has never been placed (migration of an untouched
    /// page is a policy bug).
    pub fn migrate(&mut self, page: PageIdx, new_home: NodeId) -> NodeId {
        let slot = self
            .homes
            .get_mut(page.index())
            .and_then(Option::as_mut)
            // dsm-lint: allow(panic-path, the relocation engine only migrates pages it has already placed — a touch precedes every migration decision; an unplaced page is a policy bug worth a loud stop)
            .expect("migrating a page that was never placed");
        let old = *slot;
        *slot = new_home;
        old
    }

    /// Number of pages placed so far.
    pub fn pages_placed(&self) -> usize {
        self.placed
    }

    /// Number of pages currently homed on `node`.
    pub fn pages_homed_on(&self, node: NodeId) -> usize {
        self.homes.iter().filter(|h| **h == Some(node)).count()
    }

    /// Iterate over all placements.
    pub fn iter(&self) -> impl Iterator<Item = (PageIdx, NodeId)> + '_ {
        self.homes
            .iter_enumerated()
            .filter_map(|(i, h)| h.map(|n| (PageIdx(i as u32), n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_assigns_home_once() {
        let mut p = PagePlacement::new();
        assert!(!p.is_placed(PageIdx(1)));
        assert_eq!(p.first_touch(PageIdx(1), NodeId(3)), NodeId(3));
        // Second toucher does not steal the page.
        assert_eq!(p.first_touch(PageIdx(1), NodeId(5)), NodeId(3));
        assert_eq!(p.home_of(PageIdx(1)), Some(NodeId(3)));
        assert_eq!(p.pages_placed(), 1);
    }

    #[test]
    fn migration_changes_home() {
        let mut p = PagePlacement::new();
        p.first_touch(PageIdx(2), NodeId(0));
        let old = p.migrate(PageIdx(2), NodeId(6));
        assert_eq!(old, NodeId(0));
        assert_eq!(p.home_of(PageIdx(2)), Some(NodeId(6)));
        assert_eq!(p.pages_placed(), 1);
    }

    #[test]
    #[should_panic(expected = "never placed")]
    fn migrating_unplaced_page_panics() {
        PagePlacement::new().migrate(PageIdx(9), NodeId(0));
    }

    #[test]
    fn per_node_page_counts() {
        let mut p = PagePlacement::new();
        p.first_touch(PageIdx(0), NodeId(0));
        p.first_touch(PageIdx(1), NodeId(0));
        p.first_touch(PageIdx(2), NodeId(1));
        assert_eq!(p.pages_placed(), 3);
        assert_eq!(p.pages_homed_on(NodeId(0)), 2);
        assert_eq!(p.pages_homed_on(NodeId(1)), 1);
        assert_eq!(p.pages_homed_on(NodeId(7)), 0);
        assert_eq!(p.iter().count(), 3);
    }
}
