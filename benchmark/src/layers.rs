//! Isolated replays: each internal layer's public functions, timed alone
//! over an access stream captured from a traced job.
//!
//! A replay is not the simulator.  It drives one layer with the inputs the
//! layer would see if the layers below behaved simply (first-touch homes,
//! direct-mapped L1s filled on every miss, every remote page relocated on
//! its first remote miss, a unit-latency clock).  Its per-operation cost is
//! what the ledger multiplies by the exact work counts of the real run.

use std::hint::black_box;
use std::time::Instant;

use dsm_core::{MachineConfig, SystemConfig};
use dsm_protocol::{BlockCache, BlockState, Directory, Interconnect, MsgKind, PageCache};
use mem_trace::{BlockRef, GlobalAddr, NodeId, PageInterner, PageRef, SharerSet};
use sim_engine::{Cycles, ProcScheduler};
use smp_node::{BusTransaction, CacheOutcome, DataCache, LineState, MemoryBus, MissClassifier};

use crate::clock;
use crate::trace::Captured;

/// Per-operation costs and ratios of one replayed stream.
#[derive(Debug, Default, Clone)]
pub struct LayerCosts {
    pub intern_ns: f64,
    pub same_page_ratio: f64,
    pub sched_ns: f64,
    pub sched_ops_per_access: f64,
    pub l1_ns: f64,
    pub l1_hit_ratio: f64,
    pub directory_ns: f64,
    pub directory_ops_per_access: f64,
    pub sharers_ns: f64,
    pub sharers_wide_share: f64,
    pub bus_ns: f64,
    pub bus_tx_per_access: f64,
    pub network_ns: f64,
    /// Remote misses of the replay (for the block- and page-cache replays).
    pub remote: Vec<Remote>,
}

/// One L1 miss to a page homed on another node.
#[derive(Debug, Clone, Copy)]
pub struct Remote {
    pub node: u16,
    pub home: u16,
    pub block: BlockRef,
    pub page: PageRef,
    pub write: bool,
}

fn per_op(start: Instant, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        start.elapsed().as_nanos() as f64 / ops as f64
    }
}

/// Replay `stream` through the system-independent layers on `machine`.
pub fn replay(stream: &[Captured], machine: &MachineConfig, latency: Cycles) -> LayerCosts {
    let g = machine.geometry;
    let topo = machine.topology;
    let procs = topo.total_procs();
    let nodes = usize::from(topo.nodes);
    let node_of = |p: u16| p / topo.procs_per_node;
    let mut out = LayerCosts::default();
    if stream.is_empty() {
        return out;
    }

    // mem-trace.intern: the simulator's single-entry memo in front of the
    // interner's hash probe.
    let mut interner = PageInterner::with_geometry(g);
    let mut memo: Option<PageRef> = None;
    let mut memo_hits = 0u64;
    let mut pages = Vec::with_capacity(stream.len());
    let start = clock::now();
    for a in stream {
        let id = g.page_of(GlobalAddr(a.addr));
        let page = match memo {
            Some(m) if m.id == id => {
                memo_hits += 1;
                m
            }
            _ => {
                let r = interner.intern_ref(id);
                memo = Some(r);
                r
            }
        };
        pages.push(page);
    }
    out.intern_ns = per_op(start, stream.len() as u64);
    out.same_page_ratio = memo_hits as f64 / stream.len() as f64;
    let blocks: Vec<BlockRef> = stream
        .iter()
        .zip(&pages)
        .map(|(a, p)| g.block_ref_of(*p, GlobalAddr(a.addr)))
        .collect();

    // sim-engine.sched: each processor runs its accesses at a unit access
    // latency plus its recorded compute; the scheduler picks the minimum.
    let mut per_proc: Vec<Vec<u32>> = vec![Vec::new(); procs];
    for a in stream {
        per_proc[usize::from(a.proc)].push(a.think);
    }
    let mut queue = ProcScheduler::with_capacity(procs);
    let mut pos = vec![0usize; procs];
    let mut ops = 0u64;
    let start = clock::now();
    for (p, accesses) in per_proc.iter().enumerate() {
        if !accesses.is_empty() {
            queue.push(Cycles::ZERO, p as u16);
            ops += 1;
        }
    }
    while let Some((t, p)) = queue.pop() {
        ops += 1;
        let pi = usize::from(p);
        let think = per_proc[pi][pos[pi]];
        pos[pi] += 1;
        if pos[pi] < per_proc[pi].len() {
            queue.push(t + Cycles::new(u64::from(think) + 1), p);
            ops += 1;
        }
    }
    out.sched_ns = per_op(start, ops);
    out.sched_ops_per_access = ops as f64 / stream.len() as f64;

    // smp-node.cache + classify: one direct-mapped L1 per processor, one
    // classifier per node; every miss fills.
    let mut l1: Vec<DataCache> = (0..procs).map(|_| DataCache::new(machine.l1)).collect();
    let mut classifiers: Vec<MissClassifier> = (0..nodes).map(|_| MissClassifier::new()).collect();
    let mut misses: Vec<(usize, Option<BlockRef>)> = Vec::new();
    let mut hits = 0u64;
    let start = clock::now();
    for (i, (a, b)) in stream.iter().zip(&blocks).enumerate() {
        let p = usize::from(a.proc);
        let n = usize::from(node_of(a.proc));
        let kind = if a.write {
            mem_trace::AccessKind::Write
        } else {
            mem_trace::AccessKind::Read
        };
        match l1[p].access(*b, kind) {
            CacheOutcome::Hit => hits += 1,
            CacheOutcome::UpgradeMiss => {
                l1[p].upgrade(*b);
                misses.push((i, None));
            }
            CacheOutcome::Miss { .. } => {
                black_box(classifiers[n].classify_miss(b.idx));
                let state = if a.write {
                    LineState::Modified
                } else {
                    LineState::Shared
                };
                let victim = l1[p].fill(*b, state);
                classifiers[n].record_fill(b.idx);
                if let Some(v) = victim {
                    classifiers[n].record_eviction(v.block.idx);
                }
                misses.push((i, victim.map(|v| v.block)));
            }
        }
    }
    out.l1_ns = per_op(start, stream.len() as u64);
    out.l1_hit_ratio = hits as f64 / stream.len() as f64;

    // dsm-protocol.directory over the L1 miss stream.
    let mut dir = Directory::with_geometry(g);
    let mut ops = 0u64;
    let start = clock::now();
    for &(i, victim) in &misses {
        let a = &stream[i];
        let node = NodeId(node_of(a.proc));
        if let Some(v) = victim {
            dir.handle_eviction(v.idx, node);
            ops += 1;
        }
        if a.write {
            black_box(dir.handle_write(blocks[i].idx, node));
        } else {
            black_box(dir.handle_read(blocks[i].idx, node));
        }
        ops += 1;
    }
    out.directory_ns = per_op(start, ops);
    out.directory_ops_per_access = ops as f64 / stream.len() as f64;

    // mem-trace.sharers: the sharer-set operations behind those directory
    // calls.  "Wide" sets hold a node past the first inline tier (64).
    let max_block = blocks.iter().map(|b| b.idx.index()).max().unwrap_or(0);
    let mut sets: Vec<SharerSet> = vec![SharerSet::default(); max_block + 1];
    let mut wide = vec![false; max_block + 1];
    let (mut ops, mut wide_ops) = (0u64, 0u64);
    let start = clock::now();
    for &(i, victim) in &misses {
        let a = &stream[i];
        let node = usize::from(node_of(a.proc));
        if let Some(v) = victim {
            black_box(sets[v.idx.index()].remove(node));
            ops += 1;
            wide_ops += u64::from(wide[v.idx.index()]);
        }
        let b = blocks[i].idx.index();
        wide[b] |= node >= 64;
        wide_ops += u64::from(wide[b]);
        if a.write {
            let set = &mut sets[b];
            black_box(set.iter().filter(|&s| s != node).count());
            set.clear();
            set.insert(node);
            wide[b] = node >= 64;
            ops += 3;
        } else {
            black_box(sets[b].insert(node));
            ops += 1;
        }
    }
    out.sharers_ns = per_op(start, ops);
    out.sharers_wide_share = if ops == 0 {
        0.0
    } else {
        wide_ops as f64 / ops as f64
    };

    // smp-node.bus: one fill per L1 miss (and a write-back per dirty
    // victim would follow the same path) on the missing node's bus.
    let mut buses: Vec<MemoryBus> = (0..nodes).map(MemoryBus::new).collect();
    let mut now = 0u64;
    let start = clock::now();
    for &(i, victim) in &misses {
        let a = &stream[i];
        now += u64::from(a.think) + 1;
        let tx = if victim.is_none() && a.write {
            BusTransaction::Upgrade
        } else {
            BusTransaction::BlockFill
        };
        black_box(buses[usize::from(node_of(a.proc))].issue(Cycles::new(now), tx));
    }
    out.bus_ns = per_op(start, misses.len() as u64);
    out.bus_tx_per_access = misses.len() as f64 / stream.len() as f64;

    // First-touch homes; an L1 miss to a page homed elsewhere is remote.
    let mut home: Vec<u16> = vec![u16::MAX; interner.len()];
    for (a, p) in stream.iter().zip(&pages) {
        let h = &mut home[p.idx.index()];
        if *h == u16::MAX {
            *h = node_of(a.proc);
        }
    }
    out.remote = misses
        .iter()
        .filter_map(|&(i, _)| {
            let a = &stream[i];
            let node = node_of(a.proc);
            let h = home[pages[i].idx.index()];
            (h != node).then_some(Remote {
                node,
                home: h,
                block: blocks[i],
                page: pages[i],
                write: a.write,
            })
        })
        .collect();

    // dsm-protocol.network: one request/reply round trip per remote miss.
    let mut net = Interconnect::new(nodes, latency).with_block_bytes(g.block_bytes);
    let mut now = Cycles::ZERO;
    let start = clock::now();
    for r in &out.remote {
        let (req, rep) = if r.write {
            (MsgKind::WriteRequest, MsgKind::WriteReply)
        } else {
            (MsgKind::ReadRequest, MsgKind::ReadReply)
        };
        now = net.round_trip(NodeId(r.node), NodeId(r.home), now, req, rep, Cycles::ZERO);
    }
    out.network_ns = per_op(start, 2 * out.remote.len() as u64);
    black_box(net.traffic());
    out
}

/// ns/op of the block cache (CC-NUMA family) or the page cache (R-NUMA
/// family) of `system` over the replay's remote misses.  `None` when the
/// system has neither.
pub fn replay_remote_cache(
    costs: &LayerCosts,
    machine: &MachineConfig,
    system: &SystemConfig,
) -> Option<f64> {
    let g = machine.geometry;
    let nodes = usize::from(machine.topology.nodes);
    let mut ops = 0u64;
    if let Some(cfg) = system.page_cache {
        let mut caches: Vec<PageCache> = (0..nodes)
            .map(|_| PageCache::with_geometry(cfg, g))
            .collect();
        let start = clock::now();
        for r in &costs.remote {
            let pc = &mut caches[usize::from(r.node)];
            if !pc.contains_page(r.page.idx) {
                black_box(pc.allocate(r.page));
                ops += 1;
            }
            if !pc.lookup_block(r.block.idx) {
                pc.install_block(r.block.idx, r.write);
                ops += 1;
            }
            ops += 1;
        }
        return Some(per_op(start, ops));
    }
    let cfg = system.block_cache?;
    let mut caches: Vec<BlockCache> = (0..nodes)
        .map(|_| BlockCache::with_geometry(cfg, g))
        .collect();
    let start = clock::now();
    for r in &costs.remote {
        let bc = &mut caches[usize::from(r.node)];
        if bc.lookup(r.block).is_none() {
            let state = if r.write {
                BlockState::Dirty
            } else {
                BlockState::Clean
            };
            black_box(bc.fill(r.block, state));
            ops += 1;
        }
        ops += 1;
    }
    Some(per_op(start, ops))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_counts_hits_remote_misses_and_pages() {
        let machine = MachineConfig::PAPER;
        // Proc 0 (node 0) touches a page first; proc 4 (node 1) then misses
        // on it remotely, then hits.
        let a = |proc: u16, addr: u64, write: bool| Captured {
            proc,
            write,
            think: 4,
            addr,
        };
        let stream = [
            a(0, 0, true),
            a(4, 0, false),
            a(4, 8, false),
            a(0, 4096, false),
        ];
        let c = replay(&stream, &machine, Cycles::new(100));
        assert_eq!(c.l1_hit_ratio, 0.25);
        assert_eq!(c.remote.len(), 1);
        assert_eq!(c.remote[0].node, 1);
        assert_eq!(c.remote[0].home, 0);
        assert!((c.same_page_ratio - 0.5).abs() < 1e-12);
        assert_eq!(c.sharers_wide_share, 0.0);
    }
}
