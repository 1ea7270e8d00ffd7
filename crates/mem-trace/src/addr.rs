//! Global addresses, cache blocks, pages, and cluster topology.
//!
//! The paper's cluster (its Figure 1) is a network of eight 4-way SMP nodes.
//! Shared data lives in a single *global* physical address space; every page
//! has a *home node*.  Coherence is maintained at cache-block granularity
//! (64-byte blocks) while the page-level mechanisms — first-touch placement,
//! migration, replication, and R-NUMA relocation — operate on 4-KByte pages.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Cache block (coherence unit) size in bytes — the *paper's* geometry.
/// Machinery that supports page/block-size sweeps takes a [`Geometry`]
/// instead of reading this constant.
pub const BLOCK_SIZE: u64 = 64;
/// Virtual-memory page size in bytes (the paper's geometry; see
/// [`Geometry`]).
pub const PAGE_SIZE: u64 = 4096;
/// Number of cache blocks per page at the paper's geometry.
pub const BLOCKS_PER_PAGE: u64 = PAGE_SIZE / BLOCK_SIZE;

/// Address-space geometry: the page and cache-block sizes a machine is
/// simulated with.
///
/// Traces are streams of *byte* addresses, so geometry is purely a property
/// of the machine interpreting them: the same deterministic trace can be
/// swept across page and block sizes.  The inherent
/// [`GlobalAddr::page`]/[`GlobalAddr::block`] decompositions assume the
/// paper's 4-KB/64-B geometry; sweep-capable layers decompose through a
/// `Geometry` carried by their machine configuration instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Geometry {
    /// Virtual-memory page size in bytes (power of two).
    pub page_bytes: u64,
    /// Cache block (coherence unit) size in bytes (power of two, divides
    /// `page_bytes`).
    pub block_bytes: u64,
}

impl Geometry {
    /// The paper's geometry: 4-KByte pages, 64-byte blocks.
    pub const PAPER: Geometry = Geometry {
        page_bytes: PAGE_SIZE,
        block_bytes: BLOCK_SIZE,
    };

    /// Construct a geometry.
    ///
    /// # Panics
    /// Panics unless both sizes are powers of two with
    /// `block_bytes <= page_bytes`.
    pub fn new(page_bytes: u64, block_bytes: u64) -> Self {
        assert!(
            page_bytes.is_power_of_two() && block_bytes.is_power_of_two(),
            "page and block sizes must be powers of two"
        );
        assert!(
            block_bytes <= page_bytes,
            "block size must not exceed the page size"
        );
        Geometry {
            page_bytes,
            block_bytes,
        }
    }

    /// log2 of the page size.  Both sizes are powers of two ([`Geometry::new`]
    /// asserts it), so every decomposition below is a shift or a mask, not
    /// a division by a runtime value.
    #[inline]
    fn page_shift(self) -> u32 {
        self.page_bytes.trailing_zeros()
    }

    /// log2 of the block size.
    #[inline]
    fn block_shift(self) -> u32 {
        self.block_bytes.trailing_zeros()
    }

    /// log2 of the number of blocks per page.
    #[inline]
    pub(crate) fn blocks_per_page_shift(self) -> u32 {
        self.page_shift() - self.block_shift()
    }

    /// Number of cache blocks per page.
    #[inline]
    pub fn blocks_per_page(self) -> u64 {
        1 << self.blocks_per_page_shift()
    }

    /// The page containing `addr`.
    #[inline]
    pub fn page_of(self, addr: GlobalAddr) -> PageId {
        PageId(addr.0 >> self.page_shift())
    }

    /// The block containing `addr`.
    #[inline]
    pub fn block_of(self, addr: GlobalAddr) -> BlockId {
        BlockId(addr.0 >> self.block_shift())
    }

    /// The page containing `block`.
    #[inline]
    pub fn page_of_block(self, block: BlockId) -> PageId {
        PageId(block.0 >> self.blocks_per_page_shift())
    }

    /// Index of `block` within its page (`0 .. blocks_per_page`).
    #[inline]
    pub fn index_in_page(self, block: BlockId) -> u64 {
        block.0 & (self.blocks_per_page() - 1)
    }

    /// The first block of `page`.
    #[inline]
    pub fn first_block(self, page: PageId) -> BlockId {
        BlockId(page.0 << self.blocks_per_page_shift())
    }
}

/// The line a block maps to in a direct-mapped cache of `lines` lines:
/// `block id mod lines`, computed with a mask when `lines` is a power of
/// two (every cache the paper configures) and with a division otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectMap {
    lines: u64,
    /// `lines - 1` when `lines` is a power of two.
    mask: Option<u64>,
}

impl DirectMap {
    /// A mapping onto `lines` lines.
    ///
    /// # Panics
    /// Panics if `lines` is zero.
    pub fn new(lines: usize) -> Self {
        assert!(lines > 0, "a direct-mapped cache needs at least one line");
        let lines = lines as u64;
        DirectMap {
            lines,
            mask: lines.is_power_of_two().then(|| lines - 1),
        }
    }

    /// The line `block` maps to (`0 .. lines`).
    #[inline]
    pub fn line_of(self, block: BlockId) -> usize {
        match self.mask {
            Some(mask) => (block.0 & mask) as usize,
            None => (block.0 % self.lines) as usize,
        }
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Self::PAPER
    }
}

/// A byte address in the global shared physical address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GlobalAddr(pub u64);

/// A cache-block-aligned address (address / `BLOCK_SIZE`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u64);

/// A page-aligned address (address / `PAGE_SIZE`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageId(pub u64);

/// A cluster node (SMP workstation) identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u16);

/// A global processor identifier (`0 .. nodes * procs_per_node`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcId(pub u16);

impl GlobalAddr {
    /// The block containing this address.
    #[inline]
    pub fn block(self) -> BlockId {
        BlockId(self.0 / BLOCK_SIZE)
    }

    /// The page containing this address.
    #[inline]
    pub fn page(self) -> PageId {
        PageId(self.0 / PAGE_SIZE)
    }

    /// Byte offset within its page.
    #[inline]
    pub fn page_offset(self) -> u64 {
        self.0 % PAGE_SIZE
    }

    /// Byte offset within its block.
    #[inline]
    pub fn block_offset(self) -> u64 {
        self.0 % BLOCK_SIZE
    }
}

impl BlockId {
    /// The page containing this block.
    #[inline]
    pub fn page(self) -> PageId {
        PageId(self.0 / BLOCKS_PER_PAGE)
    }

    /// Index of this block within its page (`0 .. BLOCKS_PER_PAGE`).
    #[inline]
    pub fn index_in_page(self) -> u64 {
        self.0 % BLOCKS_PER_PAGE
    }

    /// First byte address of this block.
    #[inline]
    pub fn base_addr(self) -> GlobalAddr {
        GlobalAddr(self.0 * BLOCK_SIZE)
    }
}

impl PageId {
    /// First byte address of this page.
    #[inline]
    pub fn base_addr(self) -> GlobalAddr {
        GlobalAddr(self.0 * PAGE_SIZE)
    }

    /// First block of this page.
    #[inline]
    pub fn first_block(self) -> BlockId {
        BlockId(self.0 * BLOCKS_PER_PAGE)
    }

    /// Iterate over every block of this page.
    pub fn blocks(self) -> impl Iterator<Item = BlockId> {
        let first = self.0 * BLOCKS_PER_PAGE;
        (first..first + BLOCKS_PER_PAGE).map(BlockId)
    }

    /// `true` if `block` belongs to this page.
    #[inline]
    pub fn contains(self, block: BlockId) -> bool {
        block.page() == self
    }
}

impl NodeId {
    /// Numeric index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ProcId {
    /// Numeric index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Cluster topology: how many SMP nodes, and how many processors per node.
///
/// The paper's baseline is 8 nodes x 4 processors (32 processors total).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Topology {
    /// Number of SMP nodes in the cluster.
    pub nodes: u16,
    /// Number of processors per SMP node.
    pub procs_per_node: u16,
}

impl Topology {
    /// The paper's baseline cluster: 8 nodes of 4 processors.
    pub const PAPER: Topology = Topology {
        nodes: 8,
        procs_per_node: 4,
    };

    /// Construct a topology.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(nodes: u16, procs_per_node: u16) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        assert!(procs_per_node > 0, "node needs at least one processor");
        Topology {
            nodes,
            procs_per_node,
        }
    }

    /// Total number of processors in the cluster.
    #[inline]
    pub fn total_procs(&self) -> usize {
        self.nodes as usize * self.procs_per_node as usize
    }

    /// The node a processor belongs to.
    #[inline]
    pub fn node_of(&self, proc: ProcId) -> NodeId {
        NodeId(proc.0 / self.procs_per_node)
    }

    /// The processors belonging to `node`, in order.
    pub fn procs_of(&self, node: NodeId) -> impl Iterator<Item = ProcId> {
        let first = node.0 * self.procs_per_node;
        (first..first + self.procs_per_node).map(ProcId)
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes).map(NodeId)
    }

    /// Iterate over all processor ids.
    pub fn proc_ids(&self) -> impl Iterator<Item = ProcId> {
        (0..self.nodes * self.procs_per_node).map(ProcId)
    }

    /// `true` if two processors reside on the same node.
    #[inline]
    pub fn same_node(&self, a: ProcId, b: ProcId) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

impl fmt::Debug for GlobalAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}
impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}
impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}
impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}
impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}
impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_decomposition() {
        let a = GlobalAddr(PAGE_SIZE * 3 + BLOCK_SIZE * 5 + 7);
        assert_eq!(a.page(), PageId(3));
        assert_eq!(a.block(), BlockId(3 * BLOCKS_PER_PAGE + 5));
        assert_eq!(a.page_offset(), BLOCK_SIZE * 5 + 7);
        assert_eq!(a.block_offset(), 7);
    }

    #[test]
    fn block_page_relationship() {
        let p = PageId(9);
        let blocks: Vec<BlockId> = p.blocks().collect();
        assert_eq!(blocks.len(), BLOCKS_PER_PAGE as usize);
        assert_eq!(blocks[0], p.first_block());
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(b.page(), p);
            assert_eq!(b.index_in_page(), i as u64);
            assert!(p.contains(*b));
        }
        assert!(!p.contains(BlockId((p.0 + 1) * BLOCKS_PER_PAGE)));
    }

    #[test]
    fn block_base_addr_round_trips() {
        let b = BlockId(1234);
        assert_eq!(b.base_addr().block(), b);
        let p = PageId(77);
        assert_eq!(p.base_addr().page(), p);
    }

    #[test]
    fn paper_topology() {
        let t = Topology::PAPER;
        assert_eq!(t.total_procs(), 32);
        assert_eq!(t.node_of(ProcId(0)), NodeId(0));
        assert_eq!(t.node_of(ProcId(3)), NodeId(0));
        assert_eq!(t.node_of(ProcId(4)), NodeId(1));
        assert_eq!(t.node_of(ProcId(31)), NodeId(7));
        assert!(t.same_node(ProcId(8), ProcId(11)));
        assert!(!t.same_node(ProcId(7), ProcId(8)));
    }

    #[test]
    fn procs_of_node_enumerates_contiguously() {
        let t = Topology::new(4, 2);
        let procs: Vec<ProcId> = t.procs_of(NodeId(2)).collect();
        assert_eq!(procs, vec![ProcId(4), ProcId(5)]);
        assert_eq!(t.proc_ids().count(), 8);
        assert_eq!(t.node_ids().count(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = Topology::new(0, 4);
    }

    #[test]
    fn geometry_constants_are_consistent() {
        assert_eq!(BLOCKS_PER_PAGE * BLOCK_SIZE, PAGE_SIZE);
        assert!(BLOCK_SIZE.is_power_of_two());
        assert!(PAGE_SIZE.is_power_of_two());
    }

    #[test]
    fn geometry_shifts_match_division() {
        let geometries = [
            Geometry::PAPER,
            Geometry::new(8192, 128),
            Geometry::new(1024, 32),
            Geometry::new(4096, 4096),
            Geometry::new(1 << 20, 1),
        ];
        let addrs = [0u64, 1, 63, 64, 4095, 4096, 123_456_789, u64::MAX];
        for g in geometries {
            let per_page = g.page_bytes / g.block_bytes;
            assert_eq!(g.blocks_per_page(), per_page);
            for a in addrs {
                let block = g.block_of(GlobalAddr(a));
                assert_eq!(g.page_of(GlobalAddr(a)).0, a / g.page_bytes);
                assert_eq!(block.0, a / g.block_bytes);
                assert_eq!(g.page_of_block(block).0, block.0 / per_page);
                assert_eq!(g.index_in_page(block), block.0 % per_page);
                let page = g.page_of(GlobalAddr(a));
                assert_eq!(g.first_block(page).0, page.0.wrapping_mul(per_page));
            }
        }
    }

    #[test]
    fn direct_map_is_block_id_modulo_lines() {
        for lines in [1usize, 2, 3, 256, 1000, 1024] {
            let map = DirectMap::new(lines);
            for id in [0u64, 1, 255, 256, 999, 1_000_003, u64::MAX] {
                assert_eq!(
                    map.line_of(BlockId(id)) as u64,
                    id % lines as u64,
                    "{lines}"
                );
            }
        }
    }
}
