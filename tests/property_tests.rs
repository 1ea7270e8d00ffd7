//! Property-style tests over the core data structures and the simulator's
//! invariants.
//!
//! The original proptest version of this file is preserved in spirit: each
//! test runs the same invariant over 64 pseudo-random cases.  Cases are
//! generated with the repository's own deterministic `SplitMix64` (the
//! `proptest` crate is unavailable in the offline build environment), so
//! failures reproduce exactly from the fixed seed.

use dsm_repro::prelude::*;
use dsm_repro::protocol::directory::DataSource;
use dsm_repro::protocol::{
    BlockCache, BlockCacheConfig, BlockState, Directory, DirectoryState, PageCache, PageCacheConfig,
};
use dsm_repro::sim::SplitMix64;
use mem_trace::{
    BlockId, BlockIdx, BlockRef, GlobalAddr, NodeId, PageId, PageIdx, PageRef, BLOCK_SIZE,
    PAGE_SIZE,
};
use smp_node::{CacheConfig, DataCache, LineState};
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 64;

/// Identity interning for the protocol-structure tests: block id n ↔ index
/// n (a valid assignment when page ids are dense from zero, as here).
fn bref(n: u64) -> BlockRef {
    BlockRef::new(BlockId(n), BlockIdx(n as u32))
}

fn pref(n: u64) -> PageRef {
    PageRef::new(PageId(n), PageIdx(n as u32))
}

/// A fresh generator per (test, case) pair so tests stay order-independent.
fn rng_for(test: &str, case: u64) -> SplitMix64 {
    let tag: u64 = test.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    SplitMix64::new(tag ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// `len` values uniform below `bound`, with `len` itself in `1..=max_len`.
fn random_vec(rng: &mut SplitMix64, max_len: u64, bound: u64) -> Vec<u64> {
    let len = 1 + rng.next_below(max_len);
    (0..len).map(|_| rng.next_below(bound)).collect()
}

/// Address decomposition round-trips for arbitrary addresses.
#[test]
fn address_decomposition_is_consistent() {
    for case in 0..CASES {
        let mut rng = rng_for("addr", case);
        let raw = rng.next_below(u64::MAX / 2);
        let addr = GlobalAddr(raw);
        let block = addr.block();
        let page = addr.page();
        assert_eq!(block.page(), page);
        assert!(block.base_addr().0 <= raw);
        assert!(raw - block.base_addr().0 < BLOCK_SIZE);
        assert!(page.base_addr().0 <= raw);
        assert!(raw - page.base_addr().0 < PAGE_SIZE);
        assert!(page.contains(block));
    }
}

/// A direct-mapped cache never holds two blocks in the same set and a fill
/// always makes the block resident.
#[test]
fn data_cache_fill_makes_resident() {
    for case in 0..CASES {
        let mut rng = rng_for("data-cache", case);
        let blocks = random_vec(&mut rng, 200, 4096);
        let mut cache = DataCache::new(CacheConfig {
            size_bytes: 4 * 1024,
            block_bytes: 64,
        });
        for &b in &blocks {
            let block = bref(b);
            cache.fill(block, LineState::Shared);
            assert!(cache.contains(block));
        }
        // Residency never exceeds the number of lines.
        assert!(cache.resident_blocks().count() <= cache.config().lines());
    }
}

/// The block cache's resident count never exceeds its capacity and flushing
/// a page removes exactly that page's blocks.
#[test]
fn block_cache_respects_capacity() {
    for case in 0..CASES {
        let mut rng = rng_for("block-cache", case);
        let blocks = random_vec(&mut rng, 300, 10_000);
        let cfg = BlockCacheConfig::Finite {
            size_bytes: 16 * 1024,
        };
        let mut bc = BlockCache::new(cfg);
        let lines = cfg.lines().unwrap();
        for &b in &blocks {
            bc.fill(bref(b), BlockState::Clean);
            assert!(bc.resident() <= lines);
        }
        let page = pref(3);
        let flushed = bc.flush_page(page);
        for (block, _) in &flushed {
            assert_eq!(block.id.page(), page.id);
            assert!(!bc.contains(*block));
        }
    }
}

/// The page cache never exceeds its frame budget, whatever the allocation
/// sequence.
#[test]
fn page_cache_never_exceeds_capacity() {
    for case in 0..CASES {
        let mut rng = rng_for("page-cache", case);
        let pages = random_vec(&mut rng, 300, 500);
        let frames = 8usize;
        let mut pc = PageCache::new(PageCacheConfig::Finite {
            size_bytes: frames as u64 * PAGE_SIZE,
        });
        for &p in &pages {
            pc.allocate(pref(p));
            assert!(pc.allocated_frames() <= frames);
        }
    }
}

/// Directory invariant: after any sequence of reads/writes/evictions a block
/// in the Modified state has exactly one sharer, and Uncached blocks have
/// none.
#[test]
fn directory_sharer_counts_match_state() {
    for case in 0..CASES {
        let mut rng = rng_for("directory", case);
        let ops = 1 + rng.next_below(300);
        let mut dir = Directory::new();
        for _ in 0..ops {
            let op = rng.next_below(3);
            let block = BlockIdx(rng.next_below(32) as u32);
            let node = NodeId(rng.next_below(8) as u16);
            match op {
                0 => {
                    dir.handle_read(block, node);
                }
                1 => {
                    dir.handle_write(block, node);
                }
                _ => {
                    dir.handle_eviction(block, node);
                }
            }
            let entry = dir.entry(block);
            match entry.state {
                DirectoryState::Uncached => assert_eq!(entry.sharer_count(), 0),
                DirectoryState::Modified => assert_eq!(entry.sharer_count(), 1),
                DirectoryState::Shared => assert!(entry.sharer_count() >= 1),
            }
        }
    }
}

/// A naive directory: per block, its state and its sharers.
type DirectoryModel = BTreeMap<BlockIdx, (DirectoryState, BTreeSet<NodeId>)>;

/// The model's entry for `block` (absent blocks are uncached).
fn model_entry(model: &DirectoryModel, block: BlockIdx) -> (DirectoryState, Vec<NodeId>) {
    model.get(&block).map_or(
        (DirectoryState::Uncached, Vec::new()),
        |(state, sharers)| (*state, sharers.iter().copied().collect()),
    )
}

/// The directory against a naive `BTreeMap` reference model over random
/// read, write, eviction and page-purge sequences.  Node ids are drawn from
/// a range that grows through each run, so the flat table widens mid-run
/// across the 64-, 128- and 256-node boundaries with rows already in it.
/// Every reply and the touched blocks' entries must agree after every
/// operation, and the whole table at the end.
#[test]
fn directory_matches_a_naive_reference_model() {
    const PAGES: u64 = 3;
    const OPS: u64 = 300;
    const EDGES: [u64; 8] = [0, 63, 64, 127, 128, 255, 256, 511];
    let blocks_per_page = mem_trace::BLOCKS_PER_PAGE;
    for case in 0..CASES {
        let mut rng = rng_for("directory-model", case);
        let mut dir = Directory::new();
        let mut model = DirectoryModel::new();
        // Reused across writes and never cleared here: `handle_write_into`
        // must replace its contents.
        let mut scratch = vec![NodeId(9999)];
        for step in 0..OPS {
            let span = [64, 128, 256, 512][(step * 4 / OPS) as usize];
            let node = if rng.next_below(2) == 0 {
                let edges: Vec<u64> = EDGES.iter().copied().filter(|e| *e < span).collect();
                edges[rng.next_below(edges.len() as u64) as usize]
            } else {
                rng.next_below(span)
            };
            let node = NodeId(node as u16);
            let block = BlockIdx(rng.next_below(PAGES * blocks_per_page) as u32);
            let label = format!("case {case} step {step}");
            let touched: Vec<BlockIdx> = match rng.next_below(8) {
                0..=2 => {
                    let reply = dir.handle_read(block, node);
                    let (state, sharers) = model.entry(block).or_default();
                    let source = match (*state, sharers.first().copied()) {
                        (DirectoryState::Modified, Some(owner)) if owner != node => {
                            DataSource::Owner(owner)
                        }
                        _ => DataSource::HomeMemory,
                    };
                    assert_eq!(reply.source, source, "{label} read");
                    assert_eq!(
                        reply.already_sharer,
                        sharers.contains(&node),
                        "{label} read"
                    );
                    *state = DirectoryState::Shared;
                    sharers.insert(node);
                    vec![block]
                }
                3..=4 => {
                    let (source, invalidate) = if rng.next_below(2) == 0 {
                        let reply = dir.handle_write(block, node);
                        (reply.source, reply.invalidate)
                    } else {
                        let source = dir.handle_write_into(block, node, &mut scratch);
                        (source, scratch.clone())
                    };
                    let (state, sharers) = model.entry(block).or_default();
                    let (want_source, want_invalidate) = match (*state, sharers.first().copied()) {
                        (DirectoryState::Modified, Some(owner)) if owner != node => {
                            (DataSource::Owner(owner), vec![owner])
                        }
                        (DirectoryState::Shared, _) => (
                            DataSource::HomeMemory,
                            sharers.iter().copied().filter(|n| *n != node).collect(),
                        ),
                        _ => (DataSource::HomeMemory, Vec::new()),
                    };
                    assert_eq!(source, want_source, "{label} write");
                    assert_eq!(invalidate, want_invalidate, "{label} write");
                    *state = DirectoryState::Modified;
                    *sharers = BTreeSet::from([node]);
                    vec![block]
                }
                5..=6 => {
                    dir.handle_eviction(block, node);
                    // As in the directory, an eviction by a node that holds
                    // no copy still demotes a Modified block to Shared.
                    if let Some((state, sharers)) = model.get_mut(&block) {
                        sharers.remove(&node);
                        if sharers.is_empty() {
                            *state = DirectoryState::Uncached;
                        } else if *state == DirectoryState::Modified {
                            *state = DirectoryState::Shared;
                        }
                    }
                    vec![block]
                }
                _ => {
                    let page = PageIdx(rng.next_below(PAGES) as u32);
                    let flushed = dir.purge_page(page);
                    let blocks: Vec<BlockIdx> = page.blocks().collect();
                    let mut want = Vec::new();
                    for b in &blocks {
                        if let Some((state, sharers)) = model.get_mut(b) {
                            if !sharers.is_empty() {
                                want.push((*b, sharers.iter().copied().collect::<Vec<_>>()));
                            }
                            *state = DirectoryState::Uncached;
                            sharers.clear();
                        }
                    }
                    assert_eq!(flushed, want, "{label} purge");
                    blocks
                }
            };
            for b in touched {
                let entry = dir.entry(b);
                assert_eq!(
                    (entry.state, entry.sharer_nodes()),
                    model_entry(&model, b),
                    "{label} entry {b:?}"
                );
            }
        }
        let mut tracked = 0;
        for b in 0..(PAGES * blocks_per_page) as u32 {
            let b = BlockIdx(b);
            let (state, sharers) = model_entry(&model, b);
            let entry = dir.entry(b);
            assert_eq!(
                (entry.state, entry.sharer_nodes()),
                (state, sharers.clone())
            );
            let owner = (state == DirectoryState::Modified).then(|| sharers[0]);
            assert_eq!(dir.owner_of(b), owner, "case {case} owner {b:?}");
            tracked += usize::from(state != DirectoryState::Uncached);
        }
        assert_eq!(dir.tracked_blocks(), tracked, "case {case}");
    }
}

/// The miss classifier against a `HashMap` model of each block's last
/// departure, over block indices packed around byte boundaries (four
/// blocks share a byte of history) and one far band that grows the table.
#[test]
fn miss_classifier_matches_a_hash_map_model() {
    use smp_node::{MissClass, MissClassifier};
    use std::collections::HashMap;
    #[derive(Clone, Copy)]
    enum History {
        Resident,
        Evicted,
        Invalidated,
    }
    for case in 0..CASES {
        let mut rng = rng_for("classifier-model", case);
        let mut classifier = MissClassifier::new();
        let mut model: HashMap<BlockIdx, History> = HashMap::new();
        let mut counts = (0u64, 0u64, 0u64);
        for step in 0..300 {
            let base = [0u32, 1_022, 40_000][rng.next_below(3) as usize];
            let block = BlockIdx(base + rng.next_below(6) as u32);
            match rng.next_below(4) {
                0 => {
                    let want = match model.get(&block) {
                        None => MissClass::Cold,
                        Some(History::Resident | History::Evicted) => MissClass::CapacityConflict,
                        Some(History::Invalidated) => MissClass::Coherence,
                    };
                    match want {
                        MissClass::Cold => counts.0 += 1,
                        MissClass::Coherence => counts.1 += 1,
                        MissClass::CapacityConflict => counts.2 += 1,
                    }
                    assert_eq!(
                        classifier.classify_miss(block),
                        want,
                        "case {case} step {step} {block:?}"
                    );
                }
                1 => {
                    classifier.record_fill(block);
                    model.insert(block, History::Resident);
                }
                2 => {
                    classifier.record_eviction(block);
                    model.insert(block, History::Evicted);
                }
                _ => {
                    classifier.record_invalidation(block);
                    model.insert(block, History::Invalidated);
                }
            }
            assert_eq!(classifier.counts(), counts, "case {case} step {step}");
            assert_eq!(classifier.total(), counts.0 + counts.1 + counts.2);
        }
    }
}

/// Simulator invariant: for any small random trace, execution time is
/// positive and deterministic across runs.
#[test]
fn simulator_is_deterministic_on_random_traces() {
    for case in 0..CASES {
        let mut rng = rng_for("simulator", case);
        let machine = MachineConfig::tiny();
        let n_accesses = 1 + rng.next_below(120);
        let mut builder = TraceBuilder::new("proptest", machine.topology);
        for _ in 0..n_accesses {
            let proc = ProcId(rng.next_below(machine.topology.total_procs() as u64) as u16);
            let addr = GlobalAddr(rng.next_below(64) * BLOCK_SIZE);
            if rng.next_below(2) == 1 {
                builder.write(proc, addr);
            } else {
                builder.read(proc, addr);
            }
        }
        builder.barrier_all();
        let trace = builder.build();
        assert!(trace.validate().is_ok());

        let sim = ClusterSimulator::new(machine, System::cc_numa().build());
        let a = sim.run(&trace);
        let b = sim.run(&trace);
        assert_eq!(a.execution_time, b.execution_time);
        assert_eq!(a.total_remote_misses(), b.total_remote_misses());
        assert!(a.execution_time.raw() > 0);
        assert_eq!(a.accesses, n_accesses);
    }
}

/// Workload generation is deterministic in the seed and always produces a
/// valid trace, for every workload and any seed.
#[test]
fn workload_generation_is_seed_deterministic() {
    for case in 0..CASES {
        let mut rng = rng_for("workloads", case);
        let seed = rng.next_u64();
        let workload = &catalog()[rng.next_below(7) as usize];
        // Use a tiny topology to keep the cases fast.
        let cfg = WorkloadConfig::reduced()
            .with_seed(seed)
            .with_topology(Topology::new(2, 2));
        let a = workload.generate(&cfg);
        let b = workload.generate(&cfg);
        assert!(a.validate().is_ok());
        assert_eq!(a.stats(), b.stats());
    }
}

/// Interning round-trips: every distinct page gets a dense index in
/// first-touch order, `PageId -> PageIdx -> PageId` is the identity, and an
/// interner replaying the same reference stream (the record/replay
/// scenario) assigns bit-identical indices.
#[test]
fn page_interning_round_trips_and_replays_stably() {
    use dsm_repro::trace::PageInterner;
    for case in 0..CASES {
        let mut rng = rng_for("interner", case);
        // Sparse, repetitive page-id stream, like a real trace's.
        let ids: Vec<u64> = random_vec(&mut rng, 400, 1 << 40);
        let mut record = PageInterner::new();
        let mut firsts: Vec<u64> = Vec::new();
        for &id in &ids {
            let r = record.intern_ref(PageId(id));
            assert_eq!(r.id, PageId(id));
            if !firsts.contains(&id) {
                // First touch: the next dense index.
                assert_eq!(r.idx.index(), firsts.len());
                firsts.push(id);
            }
            // Round trips, both directions.
            assert_eq!(record.page(r.idx), r.id);
            assert_eq!(record.get(r.id), Some(r.idx));
            // Block indices stay inside the page's 64-slot band.
            let block = r.block_at(rng.next_below(64));
            assert_eq!(block.idx.page(), r.idx);
            assert_eq!(record.block_id(block.idx), block.id);
        }
        assert_eq!(record.len(), firsts.len());

        // Replay: a fresh interner fed the same stream assigns the same
        // indices (what makes interning invisible across record/replay).
        let mut replay = PageInterner::new();
        for &id in &ids {
            assert_eq!(replay.intern(PageId(id)), record.get(PageId(id)).unwrap());
        }
    }
}

/// `SharerSet` on members below 64 is bit-for-bit the `u64` mask it
/// replaced: same membership, same count, same ascending iteration, same
/// first-member (`trailing_zeros`) answer, after any operation sequence.
#[test]
fn sharer_set_is_u64_mask_equivalent_below_64() {
    use mem_trace::SharerSet;
    for case in 0..CASES {
        let mut rng = rng_for("sharer-small", case);
        let ops = 1 + rng.next_below(200);
        let mut set = SharerSet::new();
        let mut mask: u64 = 0;
        for _ in 0..ops {
            let i = rng.next_below(64) as usize;
            match rng.next_below(3) {
                0 => {
                    let fresh = set.insert(i);
                    assert_eq!(fresh, mask & (1 << i) == 0);
                    mask |= 1 << i;
                }
                1 => {
                    let had = set.remove(i);
                    assert_eq!(had, mask & (1 << i) != 0);
                    mask &= !(1 << i);
                }
                _ => assert_eq!(set.contains(i), mask & (1 << i) != 0),
            }
            assert_eq!(set.count(), mask.count_ones());
            assert_eq!(set.is_empty(), mask == 0);
            assert_eq!(
                set.first(),
                (mask != 0).then(|| mask.trailing_zeros() as usize)
            );
            let members: Vec<usize> = set.iter().collect();
            let expected: Vec<usize> = (0..64).filter(|i| mask & (1 << i) != 0).collect();
            assert_eq!(members, expected);
        }
    }
}

/// `SharerSet` beyond 64 members' worth of index space (random 65–512-node
/// sets): insert/remove/count/contains/iterate agree with a reference
/// `BTreeSet`, across promotions.
#[test]
fn sharer_set_tracks_random_large_node_sets() {
    use mem_trace::SharerSet;
    use std::collections::BTreeSet;
    for case in 0..CASES {
        let mut rng = rng_for("sharer-large", case);
        let universe = 65 + rng.next_below(448); // 65..=512 node indices
        let ops = 1 + rng.next_below(300);
        let mut set = SharerSet::new();
        let mut reference: BTreeSet<usize> = BTreeSet::new();
        for _ in 0..ops {
            let i = rng.next_below(universe) as usize;
            match rng.next_below(3) {
                0 => assert_eq!(set.insert(i), reference.insert(i)),
                1 => assert_eq!(set.remove(i), reference.remove(&i)),
                _ => assert_eq!(set.contains(i), reference.contains(&i)),
            }
            assert_eq!(set.count() as usize, reference.len());
            assert_eq!(set.first(), reference.first().copied());
        }
        let members: Vec<usize> = set.iter().collect();
        let expected: Vec<usize> = reference.into_iter().collect();
        assert_eq!(members, expected, "universe {universe}");
        assert_eq!(
            set.nodes().len(),
            members.len(),
            "NodeId view matches membership"
        );
    }
}

/// The tiered representation's promotion edges: operation sequences
/// concentrated exactly where `SharerSet` switches tiers (index 64, the
/// inline-u64 → inline-u128 edge; index 128, the inline-u128 →
/// hierarchical edge) mirror a `BTreeSet` in every observable, up to the
/// full 512-node cluster the sweep grids commit to.  Promotion order is
/// randomized by construction: a set may jump straight from one word to
/// the hierarchical tier or climb through both.
#[test]
fn sharer_set_matches_btreeset_at_tier_boundaries() {
    use mem_trace::SharerSet;
    use std::collections::BTreeSet;
    const EDGES: [usize; 10] = [0, 1, 62, 63, 64, 65, 126, 127, 128, 129];
    for case in 0..CASES {
        let mut rng = rng_for("sharer-boundary", case);
        let ops = 1 + rng.next_below(300);
        let mut set = SharerSet::new();
        let mut reference: BTreeSet<usize> = BTreeSet::new();
        for _ in 0..ops {
            // Half the indices sit exactly on a promotion edge, the rest
            // anywhere in a 512-node cluster.
            let i = if rng.next_below(2) == 0 {
                EDGES[rng.next_below(EDGES.len() as u64) as usize]
            } else {
                rng.next_below(512) as usize
            };
            match rng.next_below(4) {
                // Insert-biased so sets actually cross the edges.
                0 | 3 => assert_eq!(set.insert(i), reference.insert(i)),
                1 => assert_eq!(set.remove(i), reference.remove(&i)),
                _ => assert_eq!(set.contains(i), reference.contains(&i)),
            }
            assert_eq!(set.count() as usize, reference.len());
            assert_eq!(set.is_empty(), reference.is_empty());
            assert_eq!(set.first(), reference.first().copied());
        }
        let members: Vec<usize> = set.iter().collect();
        let expected: Vec<usize> = reference.iter().copied().collect();
        assert_eq!(members, expected, "case {case}");
        // Logical equality is representation-blind: a set rebuilt from the
        // final membership (never promoted past what it needs) compares
        // equal to the one that wandered across tiers to get here.
        let mut rebuilt = SharerSet::new();
        for &i in &expected {
            rebuilt.insert(i);
        }
        assert_eq!(set, rebuilt, "case {case}");
    }
}

/// End-to-end determinism past the old 64-node cap: a 96-node cluster
/// running CC-NUMA+MigRep (directory sharer sets *and* replica sets reach
/// node indices above 64) produces bit-identical `SimResult`s across runs.
#[test]
fn simulation_beyond_64_nodes_is_run_twice_bit_identical() {
    let nodes: u16 = 96;
    let machine = MachineConfig::PAPER.with_topology(Topology::new(nodes, 1));
    let mut b = TraceBuilder::new("wide-cluster", machine.topology);
    // Node 0 writes two pages; every node then reads them repeatedly
    // (sharer sets span all 96 nodes and replication triggers on high
    // node indices), then a late writer forces the switch back.
    b.write(ProcId(0), GlobalAddr(0));
    b.write(ProcId(0), GlobalAddr(PAGE_SIZE));
    b.barrier_all();
    for round in 0..12u64 {
        for p in machine.topology.proc_ids().skip(1) {
            // A fresh block of the page each round, so every read is a miss
            // that reaches the home node's policy counters.
            b.read(p, GlobalAddr(round % 2 * PAGE_SIZE + round * BLOCK_SIZE));
        }
    }
    b.barrier_all();
    b.write(ProcId(95), GlobalAddr(0));
    b.barrier_all();
    let trace = b.build();

    let sys = || {
        System::cc_numa()
            .with(MigRep::both())
            .with(Thresholds {
                migrep_threshold: 4,
                migrep_reset_interval: 1_000,
                rnuma_threshold: 8,
                rnuma_relocation_delay: 0,
            })
            .build()
    };
    let a = ClusterSimulator::new(machine, sys()).run(&trace);
    let c = ClusterSimulator::new(machine, sys()).run(&trace);
    assert_eq!(a, c, ">64-node run must be bit-identical across runs");
    assert_eq!(a.per_node.len(), nodes as usize);
    let replications: u64 = a.per_node.iter().map(|n| n.replications).sum();
    assert!(replications > 0, "replica sets never engaged");
    assert!(
        a.per_node[90].replications > 0 || a.per_node[90].remote_misses > 0,
        "nodes above index 64 never participated"
    );
    let switches: u64 = a.per_node.iter().map(|n| n.switches_to_rw).sum();
    assert!(switches > 0, "the late write never tore down the replicas");
}

/// Scheduler invariant: whatever the push order, pops come out sorted by
/// `(clock, proc id)` — equal clocks break toward the smaller proc id.
#[test]
fn scheduler_pops_sorted_by_clock_then_proc_id() {
    use dsm_repro::sim::{Cycles, ProcScheduler};
    for case in 0..CASES {
        let mut rng = rng_for("scheduler", case);
        let n = 1 + rng.next_below(100);
        // Few distinct clock values, so ties are common.
        let entries: Vec<(u64, u16)> = (0..n)
            .map(|_| (rng.next_below(8), rng.next_below(32) as u16))
            .collect();
        let mut sched = ProcScheduler::new();
        for &(t, p) in &entries {
            sched.push(Cycles::new(t), p);
        }
        let popped: Vec<(u64, u16)> = std::iter::from_fn(|| sched.pop())
            .map(|(t, p)| (t.raw(), p))
            .collect();
        let mut expected = entries.clone();
        expected.sort();
        assert_eq!(popped, expected, "case {case}");
    }
}

/// Drive `sched` with a random interleaving of `push`, `pop` and
/// `push_pop` against a `BTreeSet` model: every pair it hands back must be
/// the model's minimum.  Each processor is pending at most once, as in the
/// simulator.
fn scheduler_agrees_with_model(
    sched: &mut dsm_repro::sim::ProcScheduler,
    procs: u16,
    rng: &mut SplitMix64,
    label: &str,
) {
    use dsm_repro::sim::Cycles;
    use std::collections::BTreeSet;
    let mut model: BTreeSet<(Cycles, u16)> = BTreeSet::new();
    let idle = |model: &BTreeSet<(Cycles, u16)>| -> Vec<u16> {
        (0..procs)
            .filter(|&p| !model.iter().any(|&(_, q)| q == p))
            .collect()
    };
    for step in 0..400 {
        let free = idle(&model);
        // Few distinct clocks, so ties on the clock are common.
        let time = Cycles::new(rng.next_below(12));
        match rng.next_below(3) {
            0 if !free.is_empty() => {
                let p = free[rng.next_below(free.len() as u64) as usize];
                sched.push(time, p);
                model.insert((time, p));
            }
            1 if !free.is_empty() => {
                let p = free[rng.next_below(free.len() as u64) as usize];
                model.insert((time, p));
                let expected = model.pop_first();
                assert_eq!(
                    Some(sched.push_pop(time, p)),
                    expected,
                    "{label} step {step}"
                );
            }
            _ => {
                assert_eq!(sched.pop(), model.pop_first(), "{label} step {step}");
            }
        }
        assert_eq!(sched.len(), model.len(), "{label} step {step}");
        assert_eq!(sched.peek(), model.first().copied(), "{label} step {step}");
    }
    while let Some(head) = model.pop_first() {
        assert_eq!(sched.pop(), Some(head), "{label} drain");
    }
    assert!(sched.is_empty(), "{label}");
}

/// The scheduler under random `push`/`pop`/`push_pop` interleavings: the
/// one-sift `push_pop` must hand back the model's minimum every time.
#[test]
fn schedulers_match_an_ordered_set_model() {
    use dsm_repro::sim::ProcScheduler;
    let procs = 24u16;
    for case in 0..CASES {
        let mut rng = rng_for("scheduler-model", case);
        scheduler_agrees_with_model(&mut ProcScheduler::new(), procs, &mut rng, "heap");
    }
}
