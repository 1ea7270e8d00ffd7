//! Whole-program traces and their validation.

use crate::access::{AccessKind, TraceEvent};
use crate::addr::{NodeId, PageId, ProcId, Topology};
use crate::intern::{PageIdx, PageInterner, Slab};
use serde::{Deserialize, Serialize};

/// Largest lock id a well-formed trace may use.  The simulator keys its
/// lock table directly by id (a dense slab), so ids must be small; the
/// generators number locks densely from zero and stay far below this.
/// Oversized ids — a corrupt replay file, a hand-built trace — are reported
/// as [`TraceError::LockIdOutOfRange`] instead of forcing a giant
/// allocation.
pub const MAX_LOCK_ID: u32 = u16::MAX as u32;

/// The complete set of per-processor traces for one workload run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProgramTrace {
    /// Workload name (Table 2 row, e.g. `"lu"`).
    pub name: String,
    /// Cluster topology the trace was generated for.
    pub topology: Topology,
    /// One event stream per processor, indexed by `ProcId::index()`.
    pub per_proc: Vec<Vec<TraceEvent>>,
}

/// Errors found by [`ProgramTrace::validate`] or detected mid-flight while
/// a simulator drains a streaming [`crate::source::TraceSource`] (where
/// whole-trace validation is impossible by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The number of per-processor streams does not match the topology.
    ProcCountMismatch {
        /// Streams present.
        streams: usize,
        /// Processors the topology requires.
        expected: usize,
    },
    /// Processors disagree on the sequence of barrier ids.
    BarrierMismatch {
        /// First processor compared.
        proc_a: ProcId,
        /// Second processor compared.
        proc_b: ProcId,
    },
    /// A lock release without a matching acquire (or vice versa) on one
    /// processor.
    UnbalancedLock {
        /// The offending processor.
        proc: ProcId,
        /// The lock id involved.
        lock: u32,
    },
    /// A lock id above [`MAX_LOCK_ID`] (dense lock tables cannot key it).
    LockIdOutOfRange {
        /// The offending processor.
        proc: ProcId,
        /// The lock id involved.
        lock: u32,
    },
    /// The trace ended with processors still blocked on a barrier or lock
    /// (only detectable mid-run when the trace is streamed: some processor's
    /// stream ran dry while others were waiting on it).
    Deadlock {
        /// Number of processors left blocked.
        blocked: usize,
    },
    /// A streaming source's demultiplexing window grew past its cap: the
    /// consumer kept asking for one processor's events while the underlying
    /// stream produced only other processors', so the parked backlog would
    /// otherwise grow without bound (an adversarial pull order, or a
    /// workload whose processors do not end together).  Raise the cap with
    /// the source's `with_window_cap` if the workload legitimately needs a
    /// wider window.
    StreamWindowExceeded {
        /// Events parked when the cap tripped.
        buffered: usize,
        /// The configured cap.
        cap: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::ProcCountMismatch { streams, expected } => write!(
                f,
                "trace has {streams} per-processor streams but the topology requires {expected}"
            ),
            TraceError::BarrierMismatch { proc_a, proc_b } => write!(
                f,
                "processors {proc_a} and {proc_b} disagree on the barrier sequence"
            ),
            TraceError::UnbalancedLock { proc, lock } => write!(
                f,
                "processor {proc} releases lock {lock} without holding it"
            ),
            TraceError::LockIdOutOfRange { proc, lock } => write!(
                f,
                "processor {proc} uses lock id {lock}, above the supported maximum {MAX_LOCK_ID}"
            ),
            TraceError::Deadlock { blocked } => write!(
                f,
                "trace ended with {blocked} processor(s) still blocked on a barrier or lock"
            ),
            TraceError::StreamWindowExceeded { buffered, cap } => write!(
                f,
                "streaming source buffered {buffered} events for processors nobody is pulling, \
                 past the {cap}-event window cap"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// Summary statistics of a trace, used by tests and the experiment harness
/// to sanity-check workload shape (read/write mix, footprint, sharing).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Total shared-memory accesses across all processors.
    pub accesses: u64,
    /// Total reads.
    pub reads: u64,
    /// Total writes.
    pub writes: u64,
    /// Total compute cycles across all processors.
    pub compute_cycles: u64,
    /// Number of barrier events per processor (identical across processors
    /// for a valid trace).
    pub barriers: u64,
    /// Number of distinct pages touched by any processor.
    pub footprint_pages: u64,
    /// Number of distinct pages touched by more than one *node*.
    pub node_shared_pages: u64,
    /// Number of distinct pages written by at least one processor.
    pub written_pages: u64,
}

impl TraceStats {
    /// Fraction of accesses that are writes (0 if no accesses).
    pub fn write_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.writes as f64 / self.accesses as f64
        }
    }
}

impl ProgramTrace {
    /// Create a trace; `per_proc.len()` must equal `topology.total_procs()`.
    pub fn new(
        name: impl Into<String>,
        topology: Topology,
        per_proc: Vec<Vec<TraceEvent>>,
    ) -> Self {
        ProgramTrace {
            name: name.into(),
            topology,
            per_proc,
        }
    }

    /// Total number of events across all processors.
    pub fn total_events(&self) -> usize {
        self.per_proc.iter().map(Vec::len).sum()
    }

    /// The event stream of one processor.
    pub fn events_of(&self, proc: ProcId) -> &[TraceEvent] {
        &self.per_proc[proc.index()]
    }

    /// Check structural well-formedness: correct processor count, matching
    /// barrier sequences, balanced locks.
    pub fn validate(&self) -> Result<(), TraceError> {
        let expected = self.topology.total_procs();
        if self.per_proc.len() != expected {
            return Err(TraceError::ProcCountMismatch {
                streams: self.per_proc.len(),
                expected,
            });
        }

        // All processors must observe the same ordered sequence of barriers.
        let barrier_seq = |events: &[TraceEvent]| -> Vec<u32> {
            events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Barrier(id) => Some(*id),
                    _ => None,
                })
                .collect()
        };
        let reference = barrier_seq(&self.per_proc[0]);
        for (i, events) in self.per_proc.iter().enumerate().skip(1) {
            if barrier_seq(events) != reference {
                return Err(TraceError::BarrierMismatch {
                    proc_a: ProcId(0),
                    proc_b: ProcId(i as u16),
                });
            }
        }

        // Locks must be acquired before released and not left held... a held
        // lock at the end of the trace is tolerated (some SPLASH kernels end
        // inside a critical section guard), but a release without a matching
        // acquire is always a bug in the generator.
        for (i, events) in self.per_proc.iter().enumerate() {
            let mut held: Vec<u32> = Vec::new();
            for e in events {
                if let TraceEvent::Lock(id) | TraceEvent::Unlock(id) = e {
                    if *id > MAX_LOCK_ID {
                        return Err(TraceError::LockIdOutOfRange {
                            proc: ProcId(i as u16),
                            lock: *id,
                        });
                    }
                }
                match e {
                    TraceEvent::Lock(id) => held.push(*id),
                    TraceEvent::Unlock(id) => match held.iter().rposition(|h| h == id) {
                        Some(pos) => {
                            held.remove(pos);
                        }
                        None => {
                            return Err(TraceError::UnbalancedLock {
                                proc: ProcId(i as u16),
                                lock: *id,
                            })
                        }
                    },
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Compute summary statistics.
    ///
    /// This drives the same [`StatsAccumulator`] the streaming sources feed
    /// incrementally, so batch and streamed statistics agree by
    /// construction.
    pub fn stats(&self) -> TraceStats {
        let mut acc = StatsAccumulator::new(self.topology);
        for (i, events) in self.per_proc.iter().enumerate() {
            for e in events {
                acc.observe(ProcId(i as u16), e);
            }
        }
        acc.snapshot()
    }
}

/// Incrementally accumulates [`TraceStats`] one event at a time.
///
/// [`ProgramTrace::stats`] folds a materialized trace through this; the
/// streaming sources in [`crate::source`] feed it as events flow past, so a
/// fully drained stream reports exactly the statistics the batch path would.
///
/// Each processor remembers the page of its last access.  While it stays on
/// that page, an access can add nothing to the page set or the node-sharing
/// set (the page and this processor's node are already recorded), so the
/// interner is skipped; only a first write to the page still has to reach
/// its written flag.  The page counts are kept as running totals, which
/// makes [`StatsAccumulator::snapshot`] O(1).
#[derive(Debug, Clone)]
pub struct StatsAccumulator {
    topology: Topology,
    /// Running totals, including `written_pages` and `node_shared_pages`;
    /// `footprint_pages` is the interner's population.
    stats: TraceStats,
    /// Interned touched pages: the interner's population *is* the footprint.
    pages: PageInterner,
    /// Per interned page: first touching node, shared and written flags.
    /// Indexed by `PageIdx`; the accumulator sits on the streaming hot path,
    /// so this is a dense slab, not a map.
    page_meta: Slab<PageMeta>,
    /// Per processor: the page of its last access.  Sized on the first
    /// access, so building a source allocates nothing for it.
    last_page: Vec<Option<LastPage>>,
}

/// What the accumulator knows about one page.
#[derive(Debug, Clone, Copy, Default)]
struct PageMeta {
    /// The node that touched the page first; `None` until it is touched.
    first_node: Option<NodeId>,
    /// Some node other than `first_node` touched the page too.
    shared: bool,
    written: bool,
}

/// A processor's last page and whether that page was known written then.
#[derive(Debug, Clone, Copy)]
struct LastPage {
    id: PageId,
    idx: PageIdx,
    written: bool,
}

impl StatsAccumulator {
    /// An empty accumulator for a trace over `topology`.
    pub fn new(topology: Topology) -> Self {
        StatsAccumulator {
            topology,
            stats: TraceStats::default(),
            pages: PageInterner::new(),
            page_meta: Slab::new(),
            last_page: Vec::new(),
        }
    }

    /// Fold one event of `proc`'s stream into the statistics.
    ///
    /// Events of one processor must be fed in stream order; interleaving
    /// across processors is irrelevant.  Barriers are counted on processor 0
    /// only (they appear once per processor in a valid trace).
    #[inline]
    pub fn observe(&mut self, proc: ProcId, ev: &TraceEvent) {
        match ev {
            TraceEvent::Access(m) => {
                self.stats.accesses += 1;
                let write = m.kind == AccessKind::Write;
                if write {
                    self.stats.writes += 1;
                } else {
                    self.stats.reads += 1;
                }
                let page = m.page();
                if let Some(Some(last)) = self.last_page.get_mut(proc.index()) {
                    if last.id == page {
                        if write && !last.written {
                            last.written = true;
                            let idx = last.idx;
                            self.mark_written(idx);
                        }
                        return;
                    }
                }
                self.touch(proc, page, write);
            }
            TraceEvent::Compute(c) => self.stats.compute_cycles += u64::from(*c),
            TraceEvent::Barrier(_) if proc.index() == 0 => self.stats.barriers += 1,
            _ => {}
        }
    }

    /// An access to a page other than `proc`'s last one: intern it and
    /// record the touching node.
    fn touch(&mut self, proc: ProcId, page: PageId, write: bool) {
        let idx = self.pages.intern(page);
        let node = self.topology.node_of(proc);
        let meta = self.page_meta.entry(idx.index());
        match meta.first_node {
            None => meta.first_node = Some(node),
            Some(first) if first != node && !meta.shared => {
                meta.shared = true;
                self.stats.node_shared_pages += 1;
            }
            Some(_) => {}
        }
        let written = meta.written;
        if write && !written {
            self.mark_written(idx);
        }
        let p = proc.index();
        if p >= self.last_page.len() {
            self.last_page
                .resize(self.topology.total_procs().max(p + 1), None);
        }
        self.last_page[p] = Some(LastPage {
            id: page,
            idx,
            written: written || write,
        });
    }

    fn mark_written(&mut self, idx: PageIdx) {
        let meta = self.page_meta.entry(idx.index());
        if !meta.written {
            meta.written = true;
            self.stats.written_pages += 1;
        }
    }

    /// The statistics over everything observed so far.
    pub fn snapshot(&self) -> TraceStats {
        TraceStats {
            footprint_pages: self.pages.len() as u64,
            ..self.stats.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{GlobalAddr, PAGE_SIZE};

    fn two_proc_topology() -> Topology {
        Topology::new(2, 1)
    }

    #[test]
    fn validate_accepts_well_formed_trace() {
        let t = ProgramTrace::new(
            "toy",
            two_proc_topology(),
            vec![
                vec![
                    TraceEvent::read(GlobalAddr(0)),
                    TraceEvent::Barrier(0),
                    TraceEvent::Lock(1),
                    TraceEvent::write(GlobalAddr(64)),
                    TraceEvent::Unlock(1),
                    TraceEvent::Barrier(1),
                ],
                vec![
                    TraceEvent::Compute(100),
                    TraceEvent::Barrier(0),
                    TraceEvent::Barrier(1),
                ],
            ],
        );
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validate_rejects_wrong_proc_count() {
        let t = ProgramTrace::new("toy", two_proc_topology(), vec![vec![]]);
        assert_eq!(
            t.validate(),
            Err(TraceError::ProcCountMismatch {
                streams: 1,
                expected: 2
            })
        );
    }

    #[test]
    fn validate_rejects_mismatched_barriers() {
        let t = ProgramTrace::new(
            "toy",
            two_proc_topology(),
            vec![
                vec![TraceEvent::Barrier(0), TraceEvent::Barrier(1)],
                vec![TraceEvent::Barrier(0)],
            ],
        );
        assert!(matches!(
            t.validate(),
            Err(TraceError::BarrierMismatch { .. })
        ));
    }

    #[test]
    fn validate_rejects_unlock_without_lock() {
        let t = ProgramTrace::new(
            "toy",
            two_proc_topology(),
            vec![vec![TraceEvent::Unlock(3)], vec![]],
        );
        assert_eq!(
            t.validate(),
            Err(TraceError::UnbalancedLock {
                proc: ProcId(0),
                lock: 3
            })
        );
    }

    #[test]
    fn stats_count_accesses_and_pages() {
        let t = ProgramTrace::new(
            "toy",
            two_proc_topology(),
            vec![
                vec![
                    TraceEvent::read(GlobalAddr(0)),
                    TraceEvent::write(GlobalAddr(8)),
                    TraceEvent::Compute(50),
                    TraceEvent::Barrier(0),
                ],
                vec![
                    TraceEvent::read(GlobalAddr(PAGE_SIZE)),
                    TraceEvent::read(GlobalAddr(0)),
                    TraceEvent::Barrier(0),
                ],
            ],
        );
        let s = t.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.reads, 3);
        assert_eq!(s.writes, 1);
        assert_eq!(s.compute_cycles, 50);
        assert_eq!(s.barriers, 1);
        assert_eq!(s.footprint_pages, 2);
        assert_eq!(s.written_pages, 1);
        // Page 0 is touched by both nodes (procs 0 and 1 are on different
        // nodes in this 2x1 topology).
        assert_eq!(s.node_shared_pages, 1);
        assert!((s.write_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn incremental_stats_match_batch_stats() {
        let t = ProgramTrace::new(
            "toy",
            two_proc_topology(),
            vec![
                vec![
                    TraceEvent::read(GlobalAddr(0)),
                    TraceEvent::write(GlobalAddr(8)),
                    TraceEvent::Compute(50),
                    TraceEvent::Barrier(0),
                ],
                vec![
                    TraceEvent::read(GlobalAddr(PAGE_SIZE)),
                    TraceEvent::read(GlobalAddr(0)),
                    TraceEvent::Barrier(0),
                ],
            ],
        );
        // Feed the accumulator in a different (interleaved) order than the
        // batch path walks: per-proc order is all that matters.
        let mut acc = StatsAccumulator::new(t.topology);
        let mut cursors = [0usize; 2];
        loop {
            let mut progressed = false;
            for (p, cursor) in cursors.iter_mut().enumerate() {
                if let Some(ev) = t.per_proc[p].get(*cursor) {
                    acc.observe(ProcId(p as u16), ev);
                    *cursor += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        assert_eq!(acc.snapshot(), t.stats());
    }

    #[test]
    fn node_sharing_is_exact_past_64_nodes() {
        // Nodes 100 and 200 share page 0; nodes 3 and 4 share page 2.  A
        // 64-bit node mask would fold 100 and 200 onto one bit.
        let topo = Topology::new(256, 1);
        let mut per_proc = vec![Vec::new(); 256];
        for (p, page) in [(100, 0), (200, 0), (3, 2), (4, 2), (5, 7)] {
            per_proc[p].push(TraceEvent::read(GlobalAddr(page * PAGE_SIZE)));
        }
        let s = ProgramTrace::new("wide", topo, per_proc).stats();
        assert_eq!(s.footprint_pages, 3);
        assert_eq!(s.node_shared_pages, 2);
    }

    #[test]
    fn a_write_through_the_page_memo_counts_once() {
        // Proc 0 stays on page 0 while proc 1 writes it: proc 0's own later
        // write must not count a second time.  On page 1 the first write
        // arrives through the memo and must not be lost.
        let mut acc = StatsAccumulator::new(two_proc_topology());
        acc.observe(ProcId(0), &TraceEvent::read(GlobalAddr(0)));
        acc.observe(ProcId(1), &TraceEvent::write(GlobalAddr(8)));
        acc.observe(ProcId(0), &TraceEvent::write(GlobalAddr(16)));
        assert_eq!(acc.snapshot().written_pages, 1);
        acc.observe(ProcId(0), &TraceEvent::read(GlobalAddr(PAGE_SIZE)));
        assert_eq!(acc.snapshot().written_pages, 1);
        acc.observe(ProcId(0), &TraceEvent::write(GlobalAddr(PAGE_SIZE + 8)));
        acc.observe(ProcId(0), &TraceEvent::write(GlobalAddr(PAGE_SIZE + 16)));
        let s = acc.snapshot();
        assert_eq!((s.accesses, s.reads, s.writes), (6, 2, 4));
        assert_eq!(s.footprint_pages, 2);
        assert_eq!(s.written_pages, 2);
        assert_eq!(s.node_shared_pages, 1);
    }

    #[test]
    fn trace_errors_display() {
        let e = TraceError::UnbalancedLock {
            proc: ProcId(3),
            lock: 9,
        };
        assert!(e.to_string().contains("lock 9"));
        assert!(TraceError::Deadlock { blocked: 2 }
            .to_string()
            .contains("2"));
    }

    #[test]
    fn total_events_and_events_of() {
        let t = ProgramTrace::new(
            "toy",
            two_proc_topology(),
            vec![
                vec![TraceEvent::Compute(1)],
                vec![TraceEvent::Compute(2), TraceEvent::Compute(3)],
            ],
        );
        assert_eq!(t.total_events(), 3);
        assert_eq!(t.events_of(ProcId(1)).len(), 2);
    }
}
