//! The cluster simulator: drives per-processor traces through the full
//! memory system of the configured DSM system.
//!
//! The simulator is trace-driven with per-processor virtual time.  It always
//! advances the processor with the smallest local clock, so shared-memory
//! accesses from different processors interleave in global time order;
//! coherence state changes are applied at that point and the latency of each
//! access (Table 3 costs plus bus / network-interface queueing) is charged
//! to the issuing processor.  Barriers and locks couple the processors'
//! clocks exactly as the PARMACS synchronization of the original SPLASH-2
//! programs would.
//!
//! Traces are consumed through the pull-based [`TraceSource`] abstraction:
//! the simulator never indexes into a materialized event vector, it only
//! asks a source for one processor's next event.  A materialized
//! [`ProgramTrace`] is just one such source ([`ProgramTrace::source`]); the
//! same run can instead be fed by a streaming generator or a recorded trace
//! file with bounded memory ([`ClusterSimulator::run_source`]).
//!
//! # The access path
//!
//! An access that hits in its processor cache costs Table 3's hit.  An
//! upgrade or a data miss becomes an `Access`: node, page, block and kind,
//! plus the page's home, the node's mapping of it, the miss class and the
//! start time.  The mapping decides where the block comes from: local
//! memory or a replica, the node's S-COMA page cache or CC-NUMA block
//! cache, or the home (and through it a dirty owner) across the network.
//! Every upgrade and every miss but a read its node's own cache serves runs
//! one coherence action: the directory transition, then invalidating every
//! other node's copy on a write or downgrading a dirty owner's on a read.
//! README.md's "The access path" lists each case with its Table 3 cost and
//! the counters and policy hooks it feeds.

use std::collections::{BTreeSet, VecDeque};

use dsm_protocol::block_cache::BlockState;
use dsm_protocol::directory::{DataSource, Directory};
use dsm_protocol::page_cache::AllocOutcome;
use dsm_protocol::{Interconnect, MsgKind};
use mem_trace::{
    BlockRef, Geometry, GlobalAddr, MemRef, NodeId, PageIdx, PageInterner, PageRef, ProcId,
    ProgramTrace, Slab, TraceError, TraceEvent, TraceSource, MAX_LOCK_ID,
};
use sim_engine::{sched_key, Cycles, ProcScheduler};
use smp_node::cache::{CacheOutcome, Victim};
use smp_node::classify::MissClass;
use smp_node::page_table::{PageMapping, PageMode, PageProtection};
use smp_node::BusTransaction;

use crate::config::{MachineConfig, SystemConfig};
use crate::node::{L1Action, NodeState, ProcState, Waiting};
use crate::placement::PagePlacement;
use crate::policy::{policies_for, PageOp, RelocationPolicy};
use crate::stats::SimResult;

/// Simulates one system configuration on one machine configuration.
#[derive(Debug, Clone)]
pub struct ClusterSimulator {
    machine: MachineConfig,
    system: SystemConfig,
}

impl ClusterSimulator {
    /// Create a simulator.
    pub fn new(machine: MachineConfig, system: SystemConfig) -> Self {
        ClusterSimulator { machine, system }
    }

    /// The system configuration being simulated.
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// The machine configuration being simulated.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Run `trace` to completion and return the collected result.
    ///
    /// # Panics
    /// Panics if the trace is malformed or was generated for a different
    /// number of processors than this machine has.  Use
    /// [`ClusterSimulator::try_run`] for the fallible equivalent.
    pub fn run(&self, trace: &ProgramTrace) -> SimResult {
        assert_eq!(
            trace.topology.total_procs(),
            self.machine.topology.total_procs(),
            "trace generated for a different machine"
        );
        self.try_run(trace)
            // dsm-lint: allow(panic-path, documented infallible wrapper: service-path traces come from catalog generators and are well-formed by construction; untrusted traces go through try_run)
            .unwrap_or_else(|e| panic!("malformed trace {}: {e:?}", trace.name))
    }

    /// Run `trace` to completion, reporting malformed traces (wrong
    /// processor count, mismatched barriers, unbalanced locks) as an error
    /// instead of panicking.
    pub fn try_run(&self, trace: &ProgramTrace) -> Result<SimResult, TraceError> {
        trace.validate()?;
        self.try_run_source(&mut trace.source())
    }

    /// Run a streaming [`TraceSource`] to completion.
    ///
    /// # Panics
    /// Panics if the stream is malformed.  Use
    /// [`ClusterSimulator::try_run_source`] for the fallible equivalent.
    pub fn run_source(&self, source: &mut dyn TraceSource) -> SimResult {
        let name = source.name().to_string();
        self.try_run_source(source)
            // dsm-lint: allow(panic-path, documented infallible wrapper: service-path traces come from catalog generators and are well-formed by construction; untrusted traces go through try_run_source)
            .unwrap_or_else(|e| panic!("malformed trace {name}: {e:?}"))
    }

    /// Run a streaming [`TraceSource`] to completion.
    ///
    /// A stream cannot be validated up front the way a materialized trace
    /// can, so structural errors are detected as they are reached: a barrier
    /// episode whose arrivals disagree on the barrier id, a lock release by
    /// a processor that does not hold the lock, or streams that end while
    /// processors are still blocked.
    pub fn try_run_source(&self, source: &mut dyn TraceSource) -> Result<SimResult, TraceError> {
        let streams = source.topology().total_procs();
        let expected = self.machine.topology.total_procs();
        if streams != expected {
            return Err(TraceError::ProcCountMismatch { streams, expected });
        }
        let mut run = RunState::new(&self.machine, &self.system);
        let mut queue = ProcScheduler::with_capacity(expected);
        run.execute(source, &mut queue)
    }
}

#[derive(Debug, Clone, Default)]
struct LockState {
    held_by: Option<u16>,
    waiters: VecDeque<u16>,
}

/// Upper bound on one burst pull from the trace source.  Large enough to
/// amortize the per-burst virtual call over a long compute/access run,
/// small enough that the per-processor staging buffers stay a rounding
/// error next to the demux window (128 events × total procs).
const BURST_EVENTS: usize = 128;

/// Per-processor staging buffer between a [`TraceSource`] and the run
/// loop: events arrive in bursts ([`TraceSource::next_burst`], one virtual
/// call for up to [`BURST_EVENTS`] events) and are consumed one at a time
/// against the scheduler horizon.  Batching the *supply* this way leaves
/// the consumption order — and therefore every golden fingerprint —
/// untouched: an event is still only executed when its processor is the
/// schedule's `(clock, proc id)` minimum.
struct EventFeed {
    buf: Vec<TraceEvent>,
    head: usize,
}

impl EventFeed {
    fn new() -> Self {
        EventFeed {
            buf: Vec::with_capacity(BURST_EVENTS),
            head: 0,
        }
    }

    /// Events pulled from the source but not yet consumed.  A processor
    /// with pending events is by definition not exhausted, so callers
    /// check this before paying a `TraceSource::exhausted` probe.
    #[inline]
    fn has_pending(&self) -> bool {
        self.head < self.buf.len()
    }

    /// The next event of `proc`'s stream, refilling from `source` when the
    /// buffer runs dry.  `None` exactly when `source.next_event(proc)`
    /// would have returned `None`.
    #[inline]
    fn next(&mut self, source: &mut dyn TraceSource, proc: ProcId) -> Option<TraceEvent> {
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
            if source.next_burst(proc, &mut self.buf, BURST_EVENTS) == 0 {
                return None;
            }
            #[cfg(feature = "profile-counters")]
            crate::profile::record_batch(self.buf.len());
        }
        let ev = self.buf[self.head];
        self.head += 1;
        Some(ev)
    }
}

/// The schedule's head as a [`sched_key`], or `u128::MAX` (above every
/// key) when nothing is pending.
#[inline]
fn horizon_key(queue: &ProcScheduler) -> u128 {
    queue.peek().map_or(u128::MAX, |(t, q)| sched_key(t, q))
}

struct RunState<'a> {
    machine: &'a MachineConfig,
    system: &'a SystemConfig,
    /// The machine's address-space geometry: every page/block decomposition
    /// and dense-index derivation below goes through this (the paper's
    /// 4-KB/64-B values reproduce the historical constants exactly).
    geometry: Geometry,
    procs: Vec<ProcState>,
    nodes: Vec<NodeState>,
    placement: PagePlacement,
    directory: Directory,
    network: Interconnect,
    /// The page-relocation policy stack prescribed by the system
    /// configuration (MigRep engine, R-NUMA engine, third-party policies).
    /// The simulator drives these through the [`RelocationPolicy`] hooks and
    /// never branches on which concrete policies are installed.
    policies: Vec<Box<dyn RelocationPolicy>>,
    /// The page-id interner: every address entering the simulator is
    /// resolved to its dense `PageIdx`/`BlockIdx` exactly once, here; all
    /// per-page and per-block state downstream is `Vec`-indexed.
    interner: PageInterner,
    /// Lock table, indexed directly by lock id (the generators number locks
    /// densely from zero; ids above [`MAX_LOCK_ID`] are rejected as
    /// malformed before touching the table).
    locks: Slab<LockState>,
    barrier_waiting: Vec<u16>,
    accesses: u64,
    barriers_done: u64,
    /// Precomputed proc index → home node index (replaces the division in
    /// `Topology::node_of` on the per-access path).
    proc_node: Vec<u32>,
    /// Single-entry intern memo: the last `(page id, page ref)` resolved.
    /// Never invalidated — the interner is append-only, so a page's dense
    /// index is stable for the life of the run.  Accesses show strong page
    /// locality (consecutive same-proc references usually stay on one
    /// page), so this skips the interner's hash probe for most of a burst.
    page_memo: Option<PageRef>,
    /// The nodes a write must invalidate: one list reused by every write,
    /// instead of a reply allocated per write.
    invalidate: Vec<NodeId>,
}

impl<'a> RunState<'a> {
    fn new(machine: &'a MachineConfig, system: &'a SystemConfig) -> Self {
        let total_procs = machine.topology.total_procs();
        let geometry = machine.geometry;
        // A hard assert, not debug-only: MachineConfig's fields are public,
        // and an L1 line size diverging from the coherence unit would yield
        // internally inconsistent miss/traffic numbers with no other signal.
        // (One check per run; nowhere near the hot path.)
        assert_eq!(
            machine.l1.block_bytes, geometry.block_bytes,
            "L1 line size must match the machine geometry's block size \
             (use MachineConfig::with_geometry, which keeps them in sync)"
        );
        let nodes = (0..machine.topology.nodes as usize)
            .map(|i| NodeState::new(i, system, geometry))
            .collect();
        RunState {
            machine,
            system,
            geometry,
            procs: (0..total_procs)
                .map(|_| ProcState::new(machine.l1))
                .collect(),
            nodes,
            placement: PagePlacement::new(),
            directory: Directory::with_geometry(geometry),
            network: Interconnect::new(
                machine.topology.nodes as usize,
                system.costs.network_latency,
            )
            .with_block_bytes(geometry.block_bytes),
            policies: policies_for(system),
            interner: PageInterner::with_geometry(geometry),
            locks: Slab::new(),
            barrier_waiting: Vec::new(),
            accesses: 0,
            barriers_done: 0,
            proc_node: (0..total_procs)
                .map(|p| machine.topology.node_of(ProcId(p as u16)).index() as u32)
                .collect(),
            page_memo: None,
            invalidate: Vec::new(),
        }
    }

    /// Resolve an address's page through the single-entry memo, falling
    /// back to the interner's hash probe on a memo miss.
    #[inline]
    fn page_ref_of(&mut self, addr: GlobalAddr) -> PageRef {
        let id = self.geometry.page_of(addr);
        if let Some(memo) = self.page_memo {
            if memo.id == id {
                return memo;
            }
        }
        let page = self.interner.intern_ref(id);
        self.page_memo = Some(page);
        page
    }

    fn barrier_cost(&self) -> Cycles {
        self.system.costs.remote_miss * 2
    }

    fn lock_cost(&self) -> Cycles {
        self.system.costs.remote_miss
    }

    /// Drive `source` to completion through `queue`, always advancing the
    /// processor that orders first by `(clock, proc id)`.
    fn execute(
        &mut self,
        source: &mut dyn TraceSource,
        queue: &mut ProcScheduler,
    ) -> Result<SimResult, TraceError> {
        let workload = source.name().to_string();
        // Per-processor burst buffers: the supply side of the batched
        // pipeline.  A processor's pending buffered events always count
        // toward its "not exhausted" status below.
        let mut feeds: Vec<EventFeed> = (0..self.procs.len()).map(|_| EventFeed::new()).collect();
        for p in 0..self.procs.len() {
            if !source.exhausted(ProcId(p as u16)) {
                // dsm-lint: allow(cast-truncation, proc index is bounded by total_procs which fits u16 by construction)
                queue.push(Cycles::ZERO, p as u16);
            }
        }

        // A processor that loses the schedule is re-queued and the winner
        // taken in one step (`ProcScheduler::push_pop`, one heap sift); the
        // loop pops only when no such hand-over is pending.
        let mut handed_over: Option<(Cycles, u16)> = None;
        'sched: while let Some((_, p)) = handed_over.take().or_else(|| queue.pop()) {
            let pid = p as usize;
            // Run `p` for as long as it remains the schedule's minimum.
            // After each event the advanced clock is compared against the
            // heap's head in the scheduler's own `(clock, proc id)` order,
            // packed into one integer (`sched_key`; `u128::MAX` when the
            // heap is empty): when popping would hand `p` straight back, the
            // push/pop round trip is skipped.  The interleaving is
            // bit-identical to the push-always loop — only the heap traffic
            // is gone.
            //
            // The head itself is read once per batch, not once per event:
            // while `p` runs, nothing else pushes into the scheduler (see
            // `ProcScheduler::peek`'s contract), so the horizon is invariant
            // until this loop's one mid-batch push — an unlock handoff —
            // refreshes it.
            let mut horizon = horizon_key(queue);
            loop {
                let Some(ev) = feeds[pid].next(source, ProcId(p)) else {
                    // A stream that ends early because the source gave up
                    // (window cap exceeded) is an error, not an exhausted
                    // processor.
                    if let Some(e) = source.take_error() {
                        return Err(e);
                    }
                    continue 'sched;
                };
                match ev {
                    TraceEvent::Compute(c) => {
                        self.procs[pid].time += Cycles::new(u64::from(c));
                    }
                    TraceEvent::Access(m) => {
                        let now = self.procs[pid].time;
                        let latency = self.service_access(pid, m, now);
                        self.procs[pid].time += latency;
                        self.accesses += 1;
                        let nidx = self.proc_node[pid] as usize;
                        self.nodes[nidx].stats.memory_stall_cycles += latency;
                    }
                    TraceEvent::Barrier(id) => {
                        self.procs[pid].waiting = Waiting::Barrier(id);
                        self.barrier_waiting.push(p);
                        if self.barrier_waiting.len() == self.procs.len() {
                            // Every arrival must name the same barrier: a
                            // stream cannot be checked up front, so check
                            // the episode (all arrivals, not just the ones
                            // after the first).
                            if let Some(&other) = self
                                .barrier_waiting
                                .iter()
                                .find(|&&q| self.procs[q as usize].waiting != Waiting::Barrier(id))
                            {
                                return Err(TraceError::BarrierMismatch {
                                    proc_a: ProcId(p),
                                    proc_b: ProcId(other),
                                });
                            }
                            let release = self
                                .barrier_waiting
                                .iter()
                                .map(|&q| self.procs[q as usize].time)
                                .max()
                                .unwrap_or(Cycles::ZERO)
                                + self.barrier_cost();
                            let waiting = std::mem::take(&mut self.barrier_waiting);
                            for q in waiting {
                                let qi = q as usize;
                                self.procs[qi].time = release;
                                self.procs[qi].waiting = Waiting::None;
                                if feeds[qi].has_pending() || !source.exhausted(ProcId(q)) {
                                    queue.push(release, q);
                                }
                            }
                            self.barriers_done += 1;
                        }
                        continue 'sched;
                    }
                    TraceEvent::Lock(id) | TraceEvent::Unlock(id) if id > MAX_LOCK_ID => {
                        return Err(TraceError::LockIdOutOfRange {
                            proc: ProcId(p),
                            lock: id,
                        });
                    }
                    TraceEvent::Lock(id) => {
                        let lock = self.locks.entry(id as usize);
                        if lock.held_by.is_some() {
                            lock.waiters.push_back(p);
                            self.procs[pid].waiting = Waiting::Lock(id);
                            continue 'sched;
                        }
                        lock.held_by = Some(p);
                        let cost = self.lock_cost();
                        self.procs[pid].time += cost;
                    }
                    TraceEvent::Unlock(id) => {
                        let lock = self.locks.entry(id as usize);
                        if lock.held_by != Some(p) {
                            return Err(TraceError::UnbalancedLock {
                                proc: ProcId(p),
                                lock: id,
                            });
                        }
                        // The lock passes straight to the first waiter.
                        lock.held_by = lock.waiters.pop_front();
                        if let Some(w) = lock.held_by {
                            let wi = w as usize;
                            let release_time = self.procs[pid].time;
                            let cost = self.lock_cost();
                            self.procs[wi].time = self.procs[wi].time.max(release_time) + cost;
                            self.procs[wi].waiting = Waiting::None;
                            if feeds[wi].has_pending() || !source.exhausted(ProcId(w)) {
                                queue.push(self.procs[wi].time, w);
                                // The one push that happens while `p` keeps
                                // running: the cached horizon is stale.
                                horizon = horizon_key(queue);
                            }
                        }
                    }
                }
                // `p` is still runnable (compute, access, immediate lock
                // acquire, or unlock).  Keep running it while it beats the
                // schedule's head; otherwise re-enqueue it.
                if !feeds[pid].has_pending() && source.exhausted(ProcId(p)) {
                    continue 'sched;
                }
                let time = self.procs[pid].time;
                if sched_key(time, p) >= horizon {
                    handed_over = Some(queue.push_pop(time, p));
                    continue 'sched;
                }
                // Heap empty, or (time, p) orders before its head: `p` is
                // exactly what `pop` would return.  Go around again.
            }
        }

        // The queue ran dry.  If the source poisoned itself mid-run (the
        // demultiplexing window cap tripped inside an `exhausted` probe),
        // that error outranks any blocked-processor diagnosis below.
        if let Some(e) = source.take_error() {
            return Err(e);
        }

        // The queue ran dry: every processor must have drained its stream.
        // Anything still blocked means the streams desynchronized (e.g. one
        // stream ended while others wait at a barrier it never reached).
        let blocked = self
            .procs
            .iter()
            .filter(|p| p.waiting != Waiting::None)
            .count();
        if blocked > 0 {
            return Err(TraceError::Deadlock { blocked });
        }

        Ok(self.finish(&workload))
    }

    fn finish(&mut self, workload: &str) -> SimResult {
        let execution_time = self
            .procs
            .iter()
            .map(|p| p.time)
            .max()
            .unwrap_or(Cycles::ZERO);
        // Fold per-processor miss classifications into the node stats.
        for (proc, &nidx) in self.procs.iter().zip(&self.proc_node) {
            let (cold, coherence, capacity) = proc.classifier.counts();
            let stats = &mut self.nodes[nidx as usize].stats;
            stats.cold_misses += cold;
            stats.coherence_misses += coherence;
            stats.capacity_conflict_misses += capacity;
        }
        SimResult {
            system: self.system.name.clone(),
            workload: workload.to_string(),
            execution_time,
            per_node: self.nodes.iter().map(|n| n.stats.clone()).collect(),
            traffic: self.network.traffic().clone(),
            accesses: self.accesses,
            barriers: self.barriers_done,
        }
    }

    // ------------------------------------------------------------------
    // Memory access path
    // ------------------------------------------------------------------

    fn service_access(&mut self, pid: usize, m: MemRef, now: Cycles) -> Cycles {
        let nidx = self.proc_node[pid] as usize;
        let node = NodeId(nidx as u16);
        // The one hash probe of the access path (memoized for the
        // page-local runs a burst usually is): everything below keys its
        // state by the dense indices resolved here, decomposed at the
        // machine's geometry.
        let page = self.page_ref_of(m.addr);
        let block = self.geometry.block_ref_of(page, m.addr);
        let is_write = m.kind.is_write();
        let costs = self.system.costs;
        let mut latency = Cycles::ZERO;

        // --- page mapping (soft page fault on first reference) ----------
        let mut mapping = match self.nodes[nidx].page_table.lookup(page.idx) {
            Some(mp) => mp,
            None => {
                let home = self.placement.first_touch(page.idx, node);
                latency += costs.soft_trap;
                // A policy may want a non-default mapping (e.g. MigRep maps
                // pages this node holds replicas of as replicas); otherwise
                // the page gets the plain CC-NUMA mapping.
                let mp = self
                    .policies
                    .iter()
                    .find_map(|p| p.classify_page(page, node, home))
                    .unwrap_or_else(|| cc_numa_mapping(node, home));
                self.nodes[nidx].page_table.map(page.idx, mp);
                mp
            }
        };

        // --- write to a read-only replica: protection fault -------------
        if is_write && mapping.protection == PageProtection::ReadOnly {
            latency += costs.soft_trap;
            latency += self.switch_page_to_read_write(page, node, now + latency);
            // The writer now maps the page read-write, like every holder.
            mapping = cc_numa_mapping(node, self.home_of(page.idx, node));
        }

        // --- processor cache ---------------------------------------------
        // Past the L1 the access also carries the page's home, its miss
        // class and the time its request leaves the processor.
        let past_l1 = |home, class, now| Access {
            node,
            page,
            block,
            is_write,
            home,
            mapping,
            class,
            now,
        };
        let latency = match self.procs[pid].cache.access(block, m.kind) {
            CacheOutcome::Hit => {
                self.nodes[nidx].stats.l1_hits += 1;
                latency + costs.cache_hit
            }
            CacheOutcome::UpgradeMiss => {
                let home = self.home_of(page.idx, node);
                latency += self.service_upgrade(&past_l1(home, None, now + latency));
                // A page operation triggered by the upgrade (e.g. a
                // migration flush) may have dropped the line; refill it.
                let p = &mut self.procs[pid];
                if p.cache.state_of(block).is_valid() {
                    p.cache.upgrade(block);
                } else {
                    p.fill(block, true);
                }
                latency
            }
            CacheOutcome::Miss { victim } => {
                if let Some(v) = victim {
                    self.handle_l1_victim(pid, nidx, v, now);
                }
                let class = self.procs[pid].classifier.classify_miss(block.idx);
                let home = self.home_of(page.idx, node);
                latency += self.service_data_miss(&past_l1(home, Some(class), now + latency));
                self.procs[pid].fill(block, is_write);
                latency
            }
        };
        // Intra-node coherence: a write invalidates the siblings' copies.
        if is_write {
            self.on_l1s(nidx, block, Some(pid), L1Action::Invalidate);
        }
        latency
    }

    /// Write hit on a line held shared: obtain exclusive ownership.
    fn service_upgrade(&mut self, a: &Access) -> Cycles {
        let costs = self.system.costs;
        let c = self.coherence(a, DirtyOwner::Downgrade);
        let latency = if a.home != a.node && a.mapping.mode != PageMode::Replica {
            // Ownership is granted by the (remote) home directory.
            let latency = self.remote_miss(a, a.home, a.msgs(), costs.remote_miss);
            // Ownership requests reach the home node and are counted by its
            // relocation policies.  Their page operations start when the
            // upgrade does, and the upgrade then ends without marking the
            // block dirty in the node's cache.
            if a.mapping.mode == PageMode::RemoteCcNuma {
                let ops = self.home_miss_ops(a, None);
                if !ops.is_empty() {
                    return latency + self.perform_page_ops(ops, a.now);
                }
            }
            latency
        } else {
            let t = self.nodes[a.node.index()]
                .bus
                .issue(a.now, BusTransaction::Upgrade);
            if c.remote_invalidated {
                // Charged as a remote miss, but not counted as one.
                costs.remote_miss.max(t - a.now)
            } else {
                (t - a.now).max(BusTransaction::Upgrade.cpu_cycles())
            }
        };
        self.nodes[a.node.index()].mark_dirty(a.mapping.mode, a.block);
        latency
    }

    /// Data miss in the processor cache.  Each arm says where the block
    /// comes from, what that costs, and which counters and policy hooks the
    /// miss feeds.
    fn service_data_miss(&mut self, a: &Access) -> Cycles {
        let costs = self.system.costs;
        for policy in &mut self.policies {
            policy.on_miss(a.page);
        }

        match a.mapping.mode {
            PageMode::LocalHome | PageMode::Replica => {
                // Local memory, unless another node owns the block dirty.  A
                // write that invalidates clean remote copies is still a
                // local miss.
                let latency = match self.coherence(a, DirtyOwner::Downgrade).dirty_owner {
                    Some(owner) => {
                        let msgs = (MsgKind::OwnerForward, a.msgs().1);
                        self.remote_miss(a, owner, msgs, costs.dirty_remote_miss())
                    }
                    None => self.local_fill(a),
                };
                if a.mapping.mode == PageMode::Replica {
                    return latency;
                }
                // Local misses are counted so that the home-vs-requester
                // comparison in the migration policy sees them.  The
                // built-in engines never decide on home-local misses, but a
                // third-party policy may; its operations are honoured here
                // like anywhere else, after the miss.
                let ops = self.home_miss_ops(a, None);
                latency + self.perform_page_ops(ops, a.now + latency)
            }

            PageMode::SComa | PageMode::RemoteCcNuma if self.node_cache_holds(a) => {
                // The node's page cache (S-COMA) or block cache (CC-NUMA)
                // holds the block.  A read fills from it; a write first takes
                // ownership, and pays a remote miss when that invalidated a
                // copy on another node.
                if !a.is_write {
                    return self.local_fill(a);
                }
                let c = self.coherence(a, DirtyOwner::Downgrade);
                self.nodes[a.node.index()].mark_dirty(a.mapping.mode, a.block);
                if c.remote_invalidated {
                    self.count_remote_miss(a);
                    costs.remote_miss
                } else {
                    self.local_fill(a)
                }
            }

            PageMode::SComa | PageMode::RemoteCcNuma => {
                // The node's cache misses: fetch the block from the home (or
                // through it, the dirty owner) and install it locally.  Only
                // a CC-NUMA fetch reaches the home's relocation policies.
                let latency = self.fetch_from_home(a);
                let nidx = a.node.index();
                let installed = self.nodes[nidx].install(a.mapping.mode, a.block, a.is_write);
                if let Some((victim, state)) = installed {
                    // Inclusion: the processor caches may not keep a block
                    // the block cache no longer holds.
                    self.on_l1s(nidx, victim, None, L1Action::Evict);
                    self.leave_node(nidx, victim, state == BlockState::Dirty, a.now);
                }
                if a.mapping.mode == PageMode::SComa {
                    return latency;
                }
                let ops = self.home_miss_ops(a, a.class);
                latency + self.perform_page_ops(ops, a.now + latency)
            }
        }
    }

    /// A fetch that must reach the page's home node (or the dirty owner)
    /// across the network.
    fn fetch_from_home(&mut self, a: &Access) -> Cycles {
        let costs = self.system.costs;
        if a.home == a.node {
            // The requester is the home (a policy relocated the page into
            // its home's page cache, or mapped the home's own page as
            // remote): the fetch is local, and a read leaves a dirty
            // owner's copy as it is.
            self.coherence(a, DirtyOwner::Keep);
            return self.local_fill(a);
        }
        let floor = match self.coherence(a, DirtyOwner::Downgrade).dirty_owner {
            Some(owner) if owner != a.home => costs.dirty_remote_miss(),
            _ => costs.remote_miss,
        };
        self.remote_miss(a, a.home, a.msgs(), floor)
    }

    /// The coherence action of an upgrade or miss: the directory transition
    /// for the block, then a write invalidates every other node's copy and a
    /// read downgrades (per `on_read`) the one a dirty owner holds.  No
    /// invalidation message is sent: invalidations add latency where the
    /// caller charges it, not traffic.
    fn coherence(&mut self, a: &Access, on_read: DirtyOwner) -> Coherence {
        let (source, remote_invalidated) = if a.is_write {
            let mut invalidate = std::mem::take(&mut self.invalidate);
            let source = self
                .directory
                .handle_write_into(a.block.idx, a.node, &mut invalidate);
            // The list never holds the requester itself.
            for victim in &invalidate {
                self.invalidate_block_on_node(victim.index(), a.block);
            }
            let remote_invalidated = !invalidate.is_empty();
            self.invalidate = invalidate;
            (source, remote_invalidated)
        } else {
            let reply = self.directory.handle_read(a.block.idx, a.node);
            (reply.source, false)
        };
        let dirty_owner = match source {
            DataSource::Owner(owner) => Some(owner),
            DataSource::HomeMemory => None,
        };
        if let (false, DirtyOwner::Downgrade, Some(owner)) = (a.is_write, on_read, dirty_owner) {
            self.on_l1s(owner.index(), a.block, None, L1Action::Downgrade);
        }
        Coherence {
            dirty_owner,
            remote_invalidated,
        }
    }

    /// A block fill over the node's memory bus, from local memory or the
    /// node's own cache: Table 3's local miss.
    fn local_fill(&mut self, a: &Access) -> Cycles {
        let node = &mut self.nodes[a.node.index()];
        let t = node.bus.issue(a.now, BusTransaction::BlockFill);
        node.stats.local_misses += 1;
        self.system.costs.local_miss.max(t - a.now)
    }

    /// A request to `to` and its reply, counted as a remote miss and charged
    /// at least `floor` (the Table 3 cost), or the network time when
    /// queueing makes that longer.
    fn remote_miss(
        &mut self,
        a: &Access,
        to: NodeId,
        (req, reply): (MsgKind, MsgKind),
        floor: Cycles,
    ) -> Cycles {
        let t = self
            .network
            .round_trip(a.node, to, a.now, req, reply, Cycles::ZERO);
        self.count_remote_miss(a);
        floor.max(t - a.now)
    }

    fn count_remote_miss(&mut self, a: &Access) {
        let stats = &mut self.nodes[a.node.index()].stats;
        stats.remote_misses += 1;
        if a.class == Some(MissClass::CapacityConflict) {
            stats.remote_capacity_misses += 1;
        }
    }

    /// Does the node's cache for this mapping (the page cache of an S-COMA
    /// page, the block cache of a CC-NUMA one) hold the block?
    fn node_cache_holds(&mut self, a: &Access) -> bool {
        let node = &mut self.nodes[a.node.index()];
        if a.mapping.mode == PageMode::SComa {
            node.page_cache
                .as_mut()
                // dsm-lint: allow(panic-path, PageMode::SComa is only assigned on nodes constructed with a page cache; the pairing is a construction invariant)
                .expect("S-COMA mapping without a page cache")
                .lookup_block(a.block.idx)
        } else {
            node.block_cache
                .as_mut()
                .is_some_and(|bc| bc.lookup(a.block).is_some())
        }
    }

    /// Policy hooks for a miss counted by the page's home node: every
    /// policy observes it (and, given the class of a CC-NUMA refetch, the
    /// requester's refetch) and hands over the page operations it wants.
    fn home_miss_ops(&mut self, a: &Access, refetch: Option<MissClass>) -> Vec<PageOp> {
        let mut ops = Vec::new();
        for policy in &mut self.policies {
            policy.on_remote_miss(a.page, a.home, a.node, a.is_write);
            if let Some(class) = refetch {
                policy.on_refetch(a.node, a.page, class);
            }
            ops.extend(policy.drain_ops());
        }
        ops
    }

    /// Perform `ops` in order, each starting when the previous one ended;
    /// returns their total latency.
    fn perform_page_ops(&mut self, ops: Vec<PageOp>, start: Cycles) -> Cycles {
        let mut extra = Cycles::ZERO;
        for op in ops {
            extra += self.perform_page_op(op, start + extra);
        }
        extra
    }

    /// Report a completed page operation to every policy.
    fn notify_op_performed(&mut self, op: &PageOp) {
        for policy in &mut self.policies {
            policy.note_op_performed(op);
        }
    }

    fn perform_page_op(&mut self, op: PageOp, now: Cycles) -> Cycles {
        match op {
            PageOp::Replicate { page, to } => self.replicate_page(page, to, now),
            PageOp::Migrate { page, to } => self.migrate_page(page, to, now),
            PageOp::Relocate { page, to } => self.relocate_page(page, to, now),
        }
    }

    // ------------------------------------------------------------------
    // Page operations
    // ------------------------------------------------------------------

    fn replicate_page(&mut self, page: PageRef, to: NodeId, now: Cycles) -> Cycles {
        let costs = self.system.costs;
        let home = match self.placement.home_of(page.idx) {
            Some(h) if h != to => h,
            _ => return Cycles::ZERO,
        };
        // Request + full page of data from the home.
        let bpp = self.geometry.blocks_per_page();
        let mut t = self.network.send(to, home, now, MsgKind::PageControl);
        for _ in 0..bpp {
            t = self.network.send(home, to, t, MsgKind::PageDataBlock);
        }
        // dsm-lint: allow(cast-truncation, blocks_per_page = page_bytes/block_bytes is a small bounded ratio; fits u32 with room to spare)
        let latency = (costs.soft_trap + costs.page_copy_cost_at(bpp as u32, bpp)).max(t - now);

        self.notify_op_performed(&PageOp::Replicate { page, to });
        let to_idx = to.index();
        self.nodes[to_idx]
            .page_table
            .map(page.idx, PageMapping::replica(home));
        self.nodes[to_idx].stats.replications += 1;
        self.nodes[to_idx].stats.page_op_cycles += latency;
        latency
    }

    fn migrate_page(&mut self, page: PageRef, to: NodeId, now: Cycles) -> Cycles {
        let costs = self.system.costs;
        if self.policies.iter().any(|p| p.page_is_replicated(page)) {
            // Replicated pages are read-shared; migrating them would be a
            // policy error (the paper's engines prefer replication).
            return Cycles::ZERO;
        }
        let old_home = match self.placement.home_of(page.idx) {
            Some(h) if h != to => h,
            _ => return Cycles::ZERO,
        };

        // Gather: invalidate and flush every cached copy of the page.
        // `nodes_touched` is ordered so the control messages below go out in
        // a deterministic node order (a HashSet here made MigRep runs differ
        // run-to-run through network-interface queueing).
        let flushed = self.directory.purge_page(page.idx);
        let mut blocks_cached = 0u32;
        let mut nodes_touched: BTreeSet<usize> = BTreeSet::new();
        for (block_idx, holders) in &flushed {
            blocks_cached += 1;
            let block = self
                .geometry
                .block_ref_at(page, self.geometry.index_in_page_idx(*block_idx));
            for holder in holders {
                nodes_touched.insert(holder.index());
                self.invalidate_block_on_node(holder.index(), block);
            }
        }

        // Control messages to every cacher, then the page moves to its new
        // home.
        let bpp = self.geometry.blocks_per_page();
        let mut t = now;
        for n in &nodes_touched {
            t = self
                .network
                .send(old_home, NodeId(*n as u16), t, MsgKind::PageControl);
        }
        for _ in 0..bpp {
            t = self.network.send(old_home, to, t, MsgKind::PageDataBlock);
        }

        let gather = costs.page_gather_cost_at(blocks_cached, bpp);
        // dsm-lint: allow(cast-truncation, blocks_per_page = page_bytes/block_bytes is a small bounded ratio; fits u32 with room to spare)
        let copy = costs.page_copy_cost_at(bpp as u32, bpp);
        let shootdowns = costs.tlb_shootdown * (nodes_touched.len() as u64 + 1);
        let latency = (costs.soft_trap + gather + copy + shootdowns).max(t - now);

        self.placement.migrate(page.idx, to);
        self.notify_op_performed(&PageOp::Migrate { page, to });

        // Update every node's view of the page.  O(nodes) per migration
        // whether or not a node ever saw the page — one of the two >64-node
        // cost-cliff suspects the profile-counters feature counts.
        #[cfg(feature = "profile-counters")]
        {
            use std::sync::atomic::Ordering;
            crate::profile::GATHERS.fetch_add(1, Ordering::Relaxed);
            crate::profile::GATHER_VISITS.fetch_add(self.nodes.len() as u64, Ordering::Relaxed);
        }
        for (idx, node) in self.nodes.iter_mut().enumerate() {
            let here = NodeId(idx as u16);
            if let Some(mp) = node.page_table.lookup(page.idx) {
                node.page_table.set_home(page.idx, to);
                if here == to {
                    if mp.mode == PageMode::SComa {
                        if let Some(pc) = node.page_cache.as_mut() {
                            pc.deallocate(page.idx);
                        }
                    }
                    node.page_table.set_mode(page.idx, PageMode::LocalHome);
                    node.page_table
                        .set_protection(page.idx, PageProtection::ReadWrite);
                } else if mp.mode == PageMode::LocalHome {
                    node.page_table.set_mode(page.idx, PageMode::RemoteCcNuma);
                }
            } else if here == to {
                node.page_table
                    .map(page.idx, PageMapping::new(PageMode::LocalHome, to));
            }
        }

        let to_idx = to.index();
        self.nodes[to_idx].stats.migrations += 1;
        self.nodes[to_idx].stats.page_op_cycles += latency;
        latency
    }

    /// A write to a read-only replica: every replica holder flushes the page
    /// and maps it read-write again, as does the writer.
    fn switch_page_to_read_write(&mut self, page: PageRef, writer: NodeId, now: Cycles) -> Cycles {
        let costs = self.system.costs;
        let home = self.home_of(page.idx, writer);
        let holders: Vec<NodeId> = self
            .policies
            .iter_mut()
            .flat_map(|p| p.on_write_to_read_only(page))
            .collect();

        let mut flushed_blocks = 0u32;
        let mut t = self.network.send(writer, home, now, MsgKind::PageControl);
        for holder in &holders {
            t = self.network.send(home, *holder, t, MsgKind::PageControl);
            flushed_blocks += self.flush_page_on_node(holder.index(), page);
            self.nodes[holder.index()]
                .page_table
                .map(page.idx, cc_numa_mapping(*holder, home));
        }
        // The writer's own mapping reverts to a normal read-write mapping
        // even if (defensively) it was not registered as a replica holder.
        self.nodes[writer.index()]
            .page_table
            .map(page.idx, cc_numa_mapping(writer, home));

        let latency = (costs.page_gather_cost_at(flushed_blocks, self.geometry.blocks_per_page())
            + costs.tlb_shootdown * (holders.len() as u64).max(1))
        .max(t - now);
        self.nodes[writer.index()].stats.switches_to_rw += 1;
        self.nodes[writer.index()].stats.page_op_cycles += latency;
        latency
    }

    fn relocate_page(&mut self, page: PageRef, node: NodeId, now: Cycles) -> Cycles {
        let costs = self.system.costs;
        let bpp = self.geometry.blocks_per_page();
        let nidx = node.index();
        // A policy may request relocation on a system whose nodes have no
        // S-COMA page cache (e.g. a third-party policy attached to a
        // CC-NUMA base); there is nowhere to relocate to, so the operation
        // is ignored rather than performed.
        let Some(pc) = self.nodes[nidx].page_cache.as_mut() else {
            return Cycles::ZERO;
        };
        let outcome = pc.allocate(page);
        // Flush the node's cached blocks of the page; they will be refetched
        // on demand into the page cache.
        let flushed = self.evict_page_from_node(nidx, page);

        let mut extra = Cycles::ZERO;
        if let AllocOutcome::Replaced {
            victim,
            victim_blocks,
            victim_dirty,
        } = outcome
        {
            // The victim page falls back to its CC-NUMA mapping, and its
            // dirty blocks go home.
            let victim_home = self.home_of(victim.idx, node);
            self.nodes[nidx]
                .page_table
                .map(victim.idx, cc_numa_mapping(node, victim_home));
            let victim_l1 = self.evict_page_from_node(nidx, victim);
            let mut t = now;
            for _ in 0..victim_dirty {
                t = self.network.send(node, victim_home, t, MsgKind::WriteBack);
            }
            extra += costs
                .page_alloc_cost_at(victim_blocks + victim_l1, bpp)
                .max(t - now);
            self.nodes[nidx].stats.page_cache_replacements += 1;
        }

        let home = self.home_of(page.idx, node);
        self.nodes[nidx]
            .page_table
            .map(page.idx, PageMapping::new(PageMode::SComa, home));
        self.notify_op_performed(&PageOp::Relocate { page, to: node });

        let latency =
            costs.soft_trap + costs.tlb_shootdown + costs.page_alloc_cost_at(flushed, bpp) + extra;
        self.nodes[nidx].stats.relocations += 1;
        self.nodes[nidx].stats.page_op_cycles += latency;
        latency
    }

    // ------------------------------------------------------------------
    // Coherence helpers
    // ------------------------------------------------------------------

    /// `page`'s home node; a page not placed yet counts as homed on `node`.
    fn home_of(&self, page: PageIdx, node: NodeId) -> NodeId {
        self.placement.home_of(page).unwrap_or(node)
    }

    /// Invalidate `block` everywhere on a node (processor caches, block
    /// cache, page cache).
    fn invalidate_block_on_node(&mut self, nidx: usize, block: BlockRef) {
        self.on_l1s(nidx, block, None, L1Action::Invalidate);
        self.nodes[nidx].invalidate(block);
    }

    /// Apply `action` to `block` in the processor caches of node `nidx`,
    /// skipping processor `except`.
    #[inline]
    fn on_l1s(&mut self, nidx: usize, block: BlockRef, except: Option<usize>, action: L1Action) {
        for proc in self.machine.topology.procs_of(NodeId(nidx as u16)) {
            if except == Some(proc.index()) {
                continue;
            }
            self.procs[proc.index()].apply(action, block);
        }
    }

    /// Drop every cached block of `page` on a node (page flush); returns
    /// the blocks dropped.
    fn flush_page_on_node(&mut self, nidx: usize, page: PageRef) -> u32 {
        let mut flushed = 0u32;
        for proc in self.machine.topology.procs_of(NodeId(nidx as u16)) {
            flushed += self.procs[proc.index()].flush_page(self.geometry, page.idx);
        }
        if let Some(bc) = self.nodes[nidx].block_cache.as_mut() {
            flushed += bc.flush_page(page).len() as u32;
        }
        flushed
    }

    /// Flush `page` from node `nidx` and drop the node from the directory's
    /// sharers of every block of the page; returns the blocks flushed.
    fn evict_page_from_node(&mut self, nidx: usize, page: PageRef) -> u32 {
        let flushed = self.flush_page_on_node(nidx, page);
        for block in self.geometry.block_indices(page.idx) {
            self.directory.handle_eviction(block, NodeId(nidx as u16));
        }
        flushed
    }

    /// A processor-cache victim: a dirty one is written back over the bus
    /// into the node's block or page cache, or, for a CC-NUMA page no block
    /// cache holds, across the network to its home.
    fn handle_l1_victim(&mut self, pid: usize, nidx: usize, victim: Victim, now: Cycles) {
        self.procs[pid].classifier.record_eviction(victim.block.idx);
        if !victim.state.is_dirty() {
            return;
        }
        self.nodes[nidx].bus.issue(now, BusTransaction::WriteBack);
        let vpage = self.geometry.page_of_block_idx(victim.block.idx);
        let Some(mode) = self.nodes[nidx].page_table.lookup(vpage).map(|m| m.mode) else {
            return;
        };
        if !self.nodes[nidx].mark_dirty(mode, victim.block) && mode == PageMode::RemoteCcNuma {
            self.leave_node(nidx, victim.block, true, now);
        }
    }

    /// `block` leaves node `nidx`: written back to its home if `dirty`,
    /// and dropped from the directory's sharers.
    fn leave_node(&mut self, nidx: usize, block: BlockRef, dirty: bool, now: Cycles) {
        let node = NodeId(nidx as u16);
        if dirty {
            let home = self.home_of(self.geometry.page_of_block_idx(block.idx), node);
            self.network.send(node, home, now, MsgKind::WriteBack);
        }
        self.directory.handle_eviction(block.idx, node);
    }
}

/// The plain CC-NUMA mapping of a page on `node`: local if `node` is its
/// home, remote otherwise.
fn cc_numa_mapping(node: NodeId, home: NodeId) -> PageMapping {
    let mode = if node == home {
        PageMode::LocalHome
    } else {
        PageMode::RemoteCcNuma
    };
    PageMapping::new(mode, home)
}

/// An access past its processor cache: the request an upgrade or a data
/// miss puts to the node's memory system.
#[derive(Debug, Clone, Copy)]
struct Access {
    /// The issuing processor's node.
    node: NodeId,
    page: PageRef,
    block: BlockRef,
    is_write: bool,
    /// The page's home node.
    home: NodeId,
    /// How the issuing node maps the page.
    mapping: PageMapping,
    /// The data miss's class; `None` for an upgrade, which the classifier
    /// does not see.
    class: Option<MissClass>,
    /// When the request leaves the processor.
    now: Cycles,
}

impl Access {
    /// The request and reply messages of this access's kind.
    fn msgs(&self) -> (MsgKind, MsgKind) {
        if self.is_write {
            (MsgKind::WriteRequest, MsgKind::WriteReply)
        } else {
            (MsgKind::ReadRequest, MsgKind::ReadReply)
        }
    }
}

/// What `RunState::coherence` found.
struct Coherence {
    /// Another node that held the block dirty and supplies it.
    dirty_owner: Option<NodeId>,
    /// A write invalidated at least one other node's copy.
    remote_invalidated: bool,
}

/// What a read does to the copy a dirty owner holds.
#[derive(Clone, Copy)]
enum DirtyOwner {
    /// Downgrade it to shared.
    Downgrade,
    /// Leave it as it is: only a fetch whose requester is the page's home.
    Keep,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{MigRep, PageCaching, System};
    use crate::config::MachineConfig;
    use mem_trace::{GlobalAddr, TraceBuilder, PAGE_SIZE};

    /// A stride that maps two blocks to the same line of both the processor
    /// cache and the node's (4x larger) block cache, so the conflict stream
    /// is visible to the home node in every system.
    fn conflict_stride(machine: &MachineConfig) -> u64 {
        machine.l1.size_bytes * machine.topology.procs_per_node as u64
    }

    /// Two conflicting remote blocks read in a loop by one processor of
    /// node 1; both pages are first touched (homed) on node 0.
    fn conflict_loop_trace(machine: &MachineConfig, iterations: usize) -> ProgramTrace {
        let mut b = TraceBuilder::new("conflict-loop", machine.topology);
        let stride = conflict_stride(machine);
        b.write(ProcId(0), GlobalAddr(0));
        b.write(ProcId(0), GlobalAddr(stride));
        b.barrier_all();
        let reader = ProcId(machine.topology.procs_per_node); // first proc of node 1
        for _ in 0..iterations {
            b.read(reader, GlobalAddr(0));
            b.read(reader, GlobalAddr(stride));
        }
        b.barrier_all();
        b.build()
    }

    /// A page written once by node 0 and then read over and over by every
    /// other node: the classic replication candidate.
    fn read_shared_trace(machine: &MachineConfig, iterations: usize) -> ProgramTrace {
        let mut b = TraceBuilder::new("read-shared", machine.topology);
        let stride = conflict_stride(machine);
        b.write(ProcId(0), GlobalAddr(0));
        b.write(ProcId(0), GlobalAddr(stride));
        b.barrier_all();
        for _ in 0..iterations {
            for node in machine.topology.node_ids().skip(1) {
                let reader = machine.topology.procs_of(node).next().unwrap();
                b.read(reader, GlobalAddr(0));
                b.read(reader, GlobalAddr(stride));
            }
        }
        b.barrier_all();
        b.build()
    }

    /// A page first touched by node 0 but afterwards used exclusively (and
    /// heavily, read-write) by node 1: the classic migration candidate.
    fn migration_trace(machine: &MachineConfig, iterations: usize) -> ProgramTrace {
        let mut b = TraceBuilder::new("migration", machine.topology);
        let stride = conflict_stride(machine);
        b.read(ProcId(0), GlobalAddr(0));
        b.read(ProcId(0), GlobalAddr(stride));
        b.barrier_all();
        let user = ProcId(machine.topology.procs_per_node);
        for i in 0..iterations {
            let addr = GlobalAddr((i as u64 % 2) * stride);
            if i % 3 == 0 {
                b.write(user, addr);
            } else {
                b.read(user, addr);
            }
            // Keep the two conflicting lines alternating so misses recur.
            b.read(user, GlobalAddr(((i as u64 + 1) % 2) * stride));
        }
        b.barrier_all();
        b.build()
    }

    fn scaled_thresholds() -> crate::cost::Thresholds {
        crate::cost::Thresholds::paper_fast().scaled_down(16)
    }

    #[test]
    fn perfect_cc_numa_is_never_slower_than_cc_numa() {
        let machine = MachineConfig::PAPER;
        let trace = conflict_loop_trace(&machine, 500);
        let perfect = ClusterSimulator::new(machine, System::perfect_cc_numa().build()).run(&trace);
        let base = ClusterSimulator::new(machine, System::cc_numa().build()).run(&trace);
        assert!(perfect.execution_time <= base.execution_time);
        assert!(perfect.total_remote_misses() <= base.total_remote_misses());
        // The conflicting blocks thrash the finite block cache but fit the
        // infinite one.
        assert!(base.total_remote_misses() > 500);
        assert!(perfect.total_remote_misses() < 10);
    }

    #[test]
    fn r_numa_relocates_hot_conflicting_pages() {
        let machine = MachineConfig::PAPER;
        let trace = conflict_loop_trace(&machine, 500);
        let base = ClusterSimulator::new(machine, System::cc_numa().build()).run(&trace);
        let rnuma = ClusterSimulator::new(machine, System::r_numa().build()).run(&trace);
        assert!(rnuma.per_node_relocations() > 0.0, "expected relocations");
        assert!(rnuma.total_remote_misses() < base.total_remote_misses());
        assert!(rnuma.execution_time < base.execution_time);
    }

    #[test]
    fn replication_converts_read_shared_remote_misses_to_local() {
        let machine = MachineConfig::PAPER;
        let trace = read_shared_trace(&machine, 400);
        let thresholds = scaled_thresholds();
        let base = ClusterSimulator::new(machine, System::cc_numa().build()).run(&trace);
        let rep = ClusterSimulator::new(
            machine,
            System::cc_numa()
                .with(MigRep::replication_only())
                .with(thresholds)
                .build(),
        )
        .run(&trace);
        let total_replications: u64 = rep.per_node.iter().map(|n| n.replications).sum();
        assert!(total_replications > 0, "expected pages to be replicated");
        assert!(rep.total_remote_misses() < base.total_remote_misses());
        assert!(rep.execution_time <= base.execution_time);
    }

    #[test]
    fn migration_moves_page_to_its_dominant_user() {
        let machine = MachineConfig::PAPER;
        let trace = migration_trace(&machine, 600);
        let thresholds = scaled_thresholds();
        let base = ClusterSimulator::new(machine, System::cc_numa().build()).run(&trace);
        let mig = ClusterSimulator::new(
            machine,
            System::cc_numa()
                .with(MigRep::migration_only())
                .with(thresholds)
                .build(),
        )
        .run(&trace);
        let total_migrations: u64 = mig.per_node.iter().map(|n| n.migrations).sum();
        assert!(total_migrations > 0, "expected pages to migrate");
        // The migrated pages' misses become local on node 1.
        assert!(mig.total_remote_misses() < base.total_remote_misses());
    }

    #[test]
    fn write_to_replicated_page_switches_it_back_to_read_write() {
        let machine = MachineConfig::PAPER;
        let mut b = TraceBuilder::new("rw-switch", machine.topology);
        let stride = conflict_stride(&machine);
        b.write(ProcId(0), GlobalAddr(0));
        b.write(ProcId(0), GlobalAddr(stride));
        b.barrier_all();
        let reader = ProcId(machine.topology.procs_per_node);
        for _ in 0..200 {
            b.read(reader, GlobalAddr(0));
            b.read(reader, GlobalAddr(stride));
        }
        b.barrier_all();
        // Now the reader writes the replicated page.
        b.write(reader, GlobalAddr(0));
        b.barrier_all();
        let trace = b.build();

        let rep = ClusterSimulator::new(
            machine,
            System::cc_numa()
                .with(MigRep::replication_only())
                .with(scaled_thresholds())
                .build(),
        )
        .run(&trace);
        let replications: u64 = rep.per_node.iter().map(|n| n.replications).sum();
        let switches: u64 = rep.per_node.iter().map(|n| n.switches_to_rw).sum();
        assert!(replications > 0);
        assert_eq!(switches, 1, "the single write should force one switch");
    }

    #[test]
    fn finite_page_cache_replaces_pages_under_pressure() {
        let machine = MachineConfig::PAPER;
        // Touch many distinct remote pages repeatedly with a 4-frame page
        // cache: replacements are inevitable.
        let mut b = TraceBuilder::new("pressure", machine.topology);
        let pages = 16u64;
        for p in 0..pages {
            b.write(ProcId(0), GlobalAddr(p * PAGE_SIZE));
        }
        b.barrier_all();
        let reader = ProcId(machine.topology.procs_per_node);
        for round in 0..200u64 {
            let p = round % pages;
            b.read(reader, GlobalAddr(p * PAGE_SIZE));
            // A second line in the same L1 set to force conflict evictions.
            b.read(reader, GlobalAddr(p * PAGE_SIZE + machine.l1.size_bytes));
        }
        b.barrier_all();
        let trace = b.build();

        let tiny_cache = System::r_numa()
            .with(PageCaching::bytes(4 * PAGE_SIZE))
            .with(crate::cost::Thresholds {
                rnuma_threshold: 2,
                ..crate::cost::Thresholds::paper_fast()
            });
        let result = ClusterSimulator::new(machine, tiny_cache.build()).run(&trace);
        assert!(result.per_node_relocations() > 0.0);
        assert!(
            result.total_page_cache_replacements() > 0,
            "a 4-frame cache cycling over 32 hot pages must replace"
        );

        // With an infinite page cache the same workload never replaces.
        let inf = ClusterSimulator::new(
            machine,
            System::r_numa()
                .with(PageCaching::infinite())
                .with(crate::cost::Thresholds {
                    rnuma_threshold: 2,
                    ..crate::cost::Thresholds::paper_fast()
                })
                .build(),
        )
        .run(&trace);
        assert_eq!(inf.total_page_cache_replacements(), 0);
        assert!(inf.execution_time <= result.execution_time);
    }

    #[test]
    fn barriers_synchronize_processor_clocks() {
        let machine = MachineConfig::tiny();
        let mut b = TraceBuilder::new("barrier", machine.topology);
        // Processor 0 computes for a long time; everyone then meets at a
        // barrier and does one more access.
        b.compute(ProcId(0), 1_000_000);
        b.barrier_all();
        for p in machine.topology.proc_ids() {
            b.read(p, GlobalAddr(0));
        }
        let trace = b.build();
        let result = ClusterSimulator::new(machine, System::cc_numa().build()).run(&trace);
        assert!(result.execution_time.raw() >= 1_000_000);
        assert_eq!(result.barriers, 1);
    }

    #[test]
    fn locks_serialize_critical_sections() {
        let machine = MachineConfig::tiny();
        let mut b = TraceBuilder::new("locks", machine.topology);
        for p in machine.topology.proc_ids() {
            b.lock(p, 1);
            b.write(p, GlobalAddr(0));
            b.compute(p, 10_000);
            b.unlock(p, 1);
        }
        let trace = b.build();
        let result = ClusterSimulator::new(machine, System::cc_numa().build()).run(&trace);
        // Four critical sections of 10k cycles each must serialize.
        assert!(result.execution_time.raw() >= 40_000);
    }

    #[test]
    fn simulation_is_deterministic() {
        let machine = MachineConfig::PAPER;
        let trace = read_shared_trace(&machine, 50);
        let sys = System::cc_numa()
            .with(MigRep::both())
            .with(scaled_thresholds())
            .build();
        let a = ClusterSimulator::new(machine, sys.clone()).run(&trace);
        let b = ClusterSimulator::new(machine, sys).run(&trace);
        assert_eq!(a.execution_time, b.execution_time);
        assert_eq!(a.total_remote_misses(), b.total_remote_misses());
        assert_eq!(a.total_page_operations(), b.total_page_operations());
    }

    /// Regression test: page migration gathers cached copies from a set of
    /// nodes, and the order of the control messages must be deterministic
    /// (an unordered set here once made MigRep runs differ bit-for-bit
    /// through network-interface queueing).
    #[test]
    fn migration_heavy_simulation_is_deterministic() {
        let machine = MachineConfig::PAPER;
        let mut b = TraceBuilder::new("migration-det", machine.topology);
        let stride = conflict_stride(&machine);
        // Every node caches both pages, so the migration gather touches many
        // nodes; then node 1 dominates with a write-heavy mix (upgrade
        // misses reach the home and feed its migration counters).
        for p in machine.topology.proc_ids() {
            b.read(p, GlobalAddr(0));
            b.read(p, GlobalAddr(stride));
        }
        b.barrier_all();
        let user = ProcId(machine.topology.procs_per_node);
        for i in 0..600u64 {
            let addr = GlobalAddr((i % 2) * stride);
            if i % 3 == 0 {
                b.write(user, addr);
            } else {
                b.read(user, addr);
            }
            b.read(user, GlobalAddr(((i + 1) % 2) * stride));
        }
        b.barrier_all();
        let trace = b.build();

        let sys = System::cc_numa()
            .with(MigRep::migration_only())
            .with(scaled_thresholds())
            .build();
        let a = ClusterSimulator::new(machine, sys.clone()).run(&trace);
        let c = ClusterSimulator::new(machine, sys).run(&trace);
        let migrations: u64 = a.per_node.iter().map(|n| n.migrations).sum();
        assert!(migrations > 0, "expected migrations in this trace");
        assert_eq!(a, c, "migration path must be bit-deterministic");
    }

    /// An empty trace drives every zero-denominator edge through the real
    /// simulator: zero accesses, zero execution time, empty per-node
    /// counters — all ratio helpers must stay finite.
    #[test]
    fn empty_trace_yields_safe_zero_denominator_results() {
        let machine = MachineConfig::tiny();
        let trace = TraceBuilder::new("empty", machine.topology).build();
        let r = ClusterSimulator::new(machine, System::cc_numa().build()).run(&trace);
        assert_eq!(r.accesses, 0);
        assert!(r.execution_time.is_zero());
        assert_eq!(r.normalized_against(&r), 1.0);
        assert_eq!(r.local_hit_fraction(), 0.0);
        assert_eq!(r.per_node_remote_misses(), 0.0);
        assert_eq!(r.total_page_operations(), 0);
    }

    #[test]
    fn accesses_and_stats_are_accounted() {
        let machine = MachineConfig::tiny();
        let mut b = TraceBuilder::new("count", machine.topology);
        b.read(ProcId(0), GlobalAddr(0));
        b.write(ProcId(1), GlobalAddr(PAGE_SIZE));
        b.compute(ProcId(2), 77);
        let trace = b.build();
        let r = ClusterSimulator::new(machine, System::cc_numa().build()).run(&trace);
        assert_eq!(r.accesses, 2);
        let total_misses: u64 = r.per_node.iter().map(|n| n.total_misses()).sum();
        assert_eq!(total_misses, 2, "both cold misses are counted");
    }

    /// Third-party policies plug into the same operation pipeline as the
    /// built-in engines: their drained operations are performed and charged.
    #[test]
    fn third_party_policy_drives_page_ops() {
        #[derive(Debug, Default)]
        struct MigrateToRequester {
            // A third-party policy can key per-page state by the dense
            // `page.idx` it receives; a map keyed by the sparse id works
            // too, as here.
            counts: std::collections::HashMap<(mem_trace::PageId, NodeId), u64>,
            pending: Vec<PageOp>,
        }
        impl RelocationPolicy for MigrateToRequester {
            fn name(&self) -> &'static str {
                "migrate-to-requester"
            }
            fn on_remote_miss(
                &mut self,
                page: PageRef,
                home: NodeId,
                requester: NodeId,
                _is_write: bool,
            ) {
                if requester == home {
                    return;
                }
                let c = self.counts.entry((page.id, requester)).or_insert(0);
                *c += 1;
                if *c == 20 {
                    self.pending.push(PageOp::Migrate {
                        page,
                        to: requester,
                    });
                }
            }
            fn drain_ops(&mut self) -> Vec<PageOp> {
                std::mem::take(&mut self.pending)
            }
        }

        let machine = MachineConfig::PAPER;
        let trace = conflict_loop_trace(&machine, 500);
        let base = ClusterSimulator::new(machine, System::cc_numa().build()).run(&trace);
        let sys = System::cc_numa()
            .policy(|| Box::<MigrateToRequester>::default())
            .named("CC-NUMA+custom")
            .build();
        let custom = ClusterSimulator::new(machine, sys).run(&trace);
        let migrations: u64 = custom.per_node.iter().map(|n| n.migrations).sum();
        assert!(
            migrations > 0,
            "custom policy's migrations were not performed"
        );
        assert!(custom.total_remote_misses() < base.total_remote_misses());
    }

    /// A policy asking to relocate on a system whose nodes have no page
    /// cache is ignored, not a panic.
    #[test]
    fn relocate_without_page_cache_is_ignored_not_fatal() {
        #[derive(Debug, Default)]
        struct RelocateEverything {
            pending: Vec<PageOp>,
        }
        impl RelocationPolicy for RelocateEverything {
            fn name(&self) -> &'static str {
                "relocate-everything"
            }
            fn on_remote_miss(
                &mut self,
                page: PageRef,
                _home: NodeId,
                requester: NodeId,
                _is_write: bool,
            ) {
                self.pending.push(PageOp::Relocate {
                    page,
                    to: requester,
                });
            }
            fn drain_ops(&mut self) -> Vec<PageOp> {
                std::mem::take(&mut self.pending)
            }
        }

        let machine = MachineConfig::PAPER;
        let trace = conflict_loop_trace(&machine, 50);
        let sys = System::cc_numa()
            .policy(|| Box::<RelocateEverything>::default())
            .build();
        let r = ClusterSimulator::new(machine, sys).run(&trace);
        assert_eq!(r.per_node.iter().map(|n| n.relocations).sum::<u64>(), 0);
    }

    #[test]
    #[should_panic(expected = "different machine")]
    fn trace_for_wrong_machine_is_rejected() {
        let machine = MachineConfig::PAPER;
        let trace = TraceBuilder::new("small", mem_trace::Topology::new(1, 1)).build();
        ClusterSimulator::new(machine, System::cc_numa().build()).run(&trace);
    }

    #[test]
    fn try_run_reports_errors_instead_of_panicking() {
        let machine = MachineConfig::tiny();
        let sim = ClusterSimulator::new(machine, System::cc_numa().build());

        // Wrong processor count.
        let trace = TraceBuilder::new("small", mem_trace::Topology::new(1, 1)).build();
        assert_eq!(
            sim.try_run(&trace),
            Err(TraceError::ProcCountMismatch {
                streams: 1,
                expected: 4
            })
        );

        // Unbalanced lock.
        let mut b = TraceBuilder::new("bad-lock", machine.topology);
        b.unlock(ProcId(0), 3);
        assert!(matches!(
            sim.try_run(&b.build()),
            Err(TraceError::UnbalancedLock {
                proc: ProcId(0),
                lock: 3
            })
        ));

        // Lock id past the dense-table bound: rejected up front (validate)
        // and mid-stream (a corrupt replay file could smuggle one past
        // validation), never allocated.
        let mut b = TraceBuilder::new("huge-lock", machine.topology);
        b.lock(ProcId(0), u32::MAX);
        let trace = b.build();
        assert!(matches!(
            sim.try_run(&trace),
            Err(TraceError::LockIdOutOfRange {
                proc: ProcId(0),
                lock: u32::MAX
            })
        ));
        assert!(matches!(
            sim.try_run_source(&mut trace.source()),
            Err(TraceError::LockIdOutOfRange { .. })
        ));

        // A well-formed trace still runs and matches the panicking shim.
        let mut b = TraceBuilder::new("good", machine.topology);
        b.write(ProcId(0), GlobalAddr(0));
        b.barrier_all();
        b.read(ProcId(2), GlobalAddr(0));
        let trace = b.build();
        let ok = sim.try_run(&trace).expect("valid trace");
        assert_eq!(ok, sim.run(&trace));
    }

    #[test]
    fn run_source_on_a_cursor_matches_run_on_the_trace() {
        let machine = MachineConfig::PAPER;
        let trace = read_shared_trace(&machine, 50);
        let sys = System::cc_numa()
            .with(MigRep::both())
            .with(scaled_thresholds())
            .build();
        let sim = ClusterSimulator::new(machine, sys);
        let materialized = sim.run(&trace);
        let streamed = sim.run_source(&mut trace.source());
        assert_eq!(materialized, streamed);
    }

    #[test]
    fn streamed_barrier_mismatch_is_detected_mid_run() {
        // Per-proc streams whose barrier ids disagree: the up-front validate
        // would catch this; the streaming path must catch it at the episode
        // no matter which arrival carries the divergent id — including the
        // first arrival (a regression here once let a divergent first
        // arrival slip through unchecked).
        let machine = MachineConfig::tiny();
        let topo = machine.topology;
        let sim = ClusterSimulator::new(machine, System::cc_numa().build());
        for divergent in 0..topo.total_procs() {
            let mut per_proc = vec![vec![TraceEvent::Barrier(0)]; topo.total_procs()];
            per_proc[divergent][0] = TraceEvent::Barrier(7);
            let trace = ProgramTrace::new("mismatch", topo, per_proc);
            assert!(
                matches!(
                    sim.try_run_source(&mut trace.source()),
                    Err(TraceError::BarrierMismatch { .. })
                ),
                "divergent barrier on proc {divergent} not detected"
            );
        }
    }

    #[test]
    fn streamed_desync_ends_in_a_deadlock_error() {
        // Processor 0 never reaches the barrier the rest wait at.
        let machine = MachineConfig::tiny();
        let topo = machine.topology;
        let mut per_proc = vec![vec![TraceEvent::Barrier(0)]; topo.total_procs()];
        per_proc[0] = vec![TraceEvent::Compute(5)];
        let trace = ProgramTrace::new("desync", topo, per_proc);
        let sim = ClusterSimulator::new(machine, System::cc_numa().build());
        assert_eq!(
            sim.try_run_source(&mut trace.source()),
            Err(TraceError::Deadlock { blocked: 3 })
        );
    }
}
