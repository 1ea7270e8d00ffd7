//! Golden fingerprints for the access-path branches that no workload golden
//! reaches.
//!
//! The committed workload goldens (`api_parity`, `scale_goldens`) run the
//! built-in policies over generated workloads, and some branches of the
//! simulator's access path never fire there: a write to a read-only
//! replica, a page-cache replacement inside a relocation, page operations
//! requested on a home-local miss, a fetch whose requester is the page's
//! home, a first-touch mapping chosen by a policy, a migration onto a node
//! that holds the page in its S-COMA cache, and the page operations the
//! simulator skips.  Each scenario below is a small hand-written trace on
//! the paper's machine; where only a third-party policy can reach a branch,
//! a small test policy does.  Every scenario's `SimResult::fingerprint`
//! is pinned in `tests/golden/access_paths.txt`.
//!
//! Regenerating the table (deliberate behaviour changes only):
//! `GOLDEN_REGEN=1 cargo test --test access_paths -- --ignored regen_golden`
//! and commit the diff with the justification.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dsm_repro::node::page_table::{PageMapping, PageMode};
use dsm_repro::prelude::*;
use dsm_repro::trace::{NodeId, PageRef};

const GOLDEN: &str = include_str!("golden/access_paths.txt");

const MACHINE: MachineConfig = MachineConfig::PAPER;

/// A stride that maps two addresses to the same line of both the processor
/// cache and the node's block cache, so alternating between them misses
/// every time.  The two addresses lie on different pages.
fn stride() -> u64 {
    MACHINE.l1.size_bytes * u64::from(MACHINE.topology.procs_per_node)
}

/// Processor `i` of `node`.
fn proc(node: u16, i: u16) -> ProcId {
    ProcId(node * MACHINE.topology.procs_per_node + i)
}

/// The first processor of `node`.
fn first_proc(node: u16) -> ProcId {
    proc(node, 0)
}

/// Thresholds small enough for these short traces to trigger page
/// operations.
fn fast(migrep: u64, rnuma: u64) -> Thresholds {
    Thresholds {
        migrep_threshold: migrep,
        migrep_reset_interval: 4_000,
        rnuma_threshold: rnuma,
        rnuma_relocation_delay: 0,
    }
}

/// Per-page miss counts, keyed by the page's dense index.
#[derive(Debug, Default)]
struct PageCounts(Vec<u64>);

impl PageCounts {
    /// Count one more event on `page` and return the new count.
    fn bump(&mut self, page: PageRef) -> u64 {
        let i = page.idx.index();
        if i >= self.0.len() {
            self.0.resize(i + 1, 0);
        }
        self.0[i] += 1;
        self.0[i]
    }

    /// The count of `page` so far.
    fn get(&self, page: PageRef) -> u64 {
        self.0.get(page.idx.index()).copied().unwrap_or(0)
    }
}

/// Maps every page a node faults on as a read-only replica of its home,
/// without registering the node as a replica holder.
#[derive(Debug, Default)]
struct ReplicaOnFirstTouch;

impl RelocationPolicy for ReplicaOnFirstTouch {
    fn name(&self) -> &'static str {
        "replica-on-first-touch"
    }
    fn classify_page(&self, _page: PageRef, node: NodeId, home: NodeId) -> Option<PageMapping> {
        (node != home).then(|| PageMapping::replica(home))
    }
}

/// Maps the home node's own pages as remote CC-NUMA pages, so the home's
/// misses take the remote-fetch path with the requester as home.
#[derive(Debug, Default)]
struct HomeMapsRemote;

impl RelocationPolicy for HomeMapsRemote {
    fn name(&self) -> &'static str {
        "home-maps-remote"
    }
    fn classify_page(&self, _page: PageRef, node: NodeId, home: NodeId) -> Option<PageMapping> {
        (node == home).then(|| PageMapping::new(PageMode::RemoteCcNuma, home))
    }
}

/// On a page's `after`-th home-local miss, asks for `op(page, home)`.
#[derive(Debug)]
struct OnHomeMiss {
    after: u64,
    op: fn(PageRef, NodeId) -> PageOp,
    counts: PageCounts,
    pending: Vec<PageOp>,
}

impl OnHomeMiss {
    fn new(after: u64, op: fn(PageRef, NodeId) -> PageOp) -> Self {
        OnHomeMiss {
            after,
            op,
            counts: PageCounts::default(),
            pending: Vec::new(),
        }
    }
}

impl RelocationPolicy for OnHomeMiss {
    fn name(&self) -> &'static str {
        "on-home-miss"
    }
    fn on_remote_miss(&mut self, page: PageRef, home: NodeId, requester: NodeId, _w: bool) {
        if requester == home && self.counts.bump(page) == self.after {
            self.pending.push((self.op)(page, home));
        }
    }
    fn drain_ops(&mut self) -> Vec<PageOp> {
        std::mem::take(&mut self.pending)
    }
}

/// Migrates a page to `target` on its `after`-th home-counted miss from
/// any other remote node.
#[derive(Debug)]
struct MigrateTo {
    target: NodeId,
    after: u64,
    counts: PageCounts,
    pending: Vec<PageOp>,
}

impl RelocationPolicy for MigrateTo {
    fn name(&self) -> &'static str {
        "migrate-to"
    }
    fn on_remote_miss(&mut self, page: PageRef, home: NodeId, requester: NodeId, _w: bool) {
        if requester != home && requester != self.target && self.counts.bump(page) == self.after {
            self.pending.push(PageOp::Migrate {
                page,
                to: self.target,
            });
        }
    }
    fn drain_ops(&mut self) -> Vec<PageOp> {
        std::mem::take(&mut self.pending)
    }
}

/// Asks for operations the simulator must skip: a replica on the home, a
/// migration to the current home, a relocation on a system without a page
/// cache, and the migration of a page that has been replicated.
#[derive(Debug, Default)]
struct SkippedOps {
    asked: PageCounts,
    replicated: PageCounts,
    pending: Vec<PageOp>,
}

impl RelocationPolicy for SkippedOps {
    fn name(&self) -> &'static str {
        "skipped-ops"
    }
    fn on_remote_miss(&mut self, page: PageRef, home: NodeId, requester: NodeId, _w: bool) {
        if requester == home {
            return;
        }
        if self.asked.bump(page) == 1 {
            self.pending.push(PageOp::Replicate { page, to: home });
            self.pending.push(PageOp::Migrate { page, to: home });
            self.pending.push(PageOp::Relocate {
                page,
                to: requester,
            });
        }
        if self.replicated.get(page) > 0 {
            self.pending.push(PageOp::Migrate {
                page,
                to: requester,
            });
        }
    }
    fn drain_ops(&mut self) -> Vec<PageOp> {
        std::mem::take(&mut self.pending)
    }
    fn note_op_performed(&mut self, op: &PageOp) {
        if let PageOp::Replicate { page, .. } = *op {
            self.replicated.bump(page);
        }
    }
    fn on_write_to_read_only(&mut self, page: PageRef) -> Vec<NodeId> {
        if let Some(n) = self.replicated.0.get_mut(page.idx.index()) {
            *n = 0;
        }
        Vec::new()
    }
}

/// Node 0 writes both conflicting addresses (homing their pages on node 0),
/// then every node in `readers` alternates reads of them `rounds` times.
fn read_shared(b: &mut TraceBuilder, readers: std::ops::Range<u16>, rounds: usize) {
    let s = stride();
    b.write(first_proc(0), GlobalAddr(0));
    b.write(first_proc(0), GlobalAddr(s));
    b.barrier_all();
    for _ in 0..rounds {
        for node in readers.clone() {
            b.read(first_proc(node), GlobalAddr(0));
            b.read(first_proc(node), GlobalAddr(s));
        }
    }
    b.barrier_all();
}

/// Replicated pages written by a replica holder (several holders at once),
/// then used again through their read-write mappings.
fn replica_write() -> ProgramTrace {
    let s = stride();
    let mut b = TraceBuilder::new("replica-write", MACHINE.topology);
    read_shared(&mut b, 1..8, 80);
    b.write(first_proc(1), GlobalAddr(0));
    b.barrier_all();
    b.read(first_proc(2), GlobalAddr(0));
    b.write(first_proc(3), GlobalAddr(s + 64));
    b.read(proc(1, 1), GlobalAddr(s));
    b.barrier_all();
    b.build()
}

/// Node 1 faults on node 0's dirty page and is handed a read-only mapping
/// it is not registered for; its write then switches the page back.
fn unregistered_replica() -> ProgramTrace {
    let mut b = TraceBuilder::new("unregistered-replica", MACHINE.topology);
    b.write(first_proc(0), GlobalAddr(0));
    b.write(first_proc(0), GlobalAddr(64));
    b.barrier_all();
    b.read(first_proc(1), GlobalAddr(0));
    b.read(first_proc(2), GlobalAddr(64));
    b.barrier_all();
    b.write(first_proc(1), GlobalAddr(128));
    b.read(first_proc(1), GlobalAddr(0));
    b.barrier_all();
    b.build()
}

/// Home-node traffic on pages the home maps as remote: conflict refetches,
/// a read of a block another node holds dirty, and a write that
/// invalidates a remote sharer.
fn home_as_remote() -> ProgramTrace {
    let s = stride();
    let mut b = TraceBuilder::new("home-as-remote", MACHINE.topology);
    let home = first_proc(0);
    for _ in 0..20 {
        b.read(home, GlobalAddr(0));
        b.read(home, GlobalAddr(s));
    }
    b.barrier_all();
    b.read(first_proc(1), GlobalAddr(0));
    b.write(first_proc(1), GlobalAddr(64));
    b.read(first_proc(2), GlobalAddr(128));
    b.barrier_all();
    b.read(home, GlobalAddr(64));
    b.write(home, GlobalAddr(128));
    b.barrier_all();
    b.write(first_proc(1), GlobalAddr(64));
    b.read(first_proc(2), GlobalAddr(128));
    b.read(proc(0, 1), GlobalAddr(64));
    b.barrier_all();
    b.build()
}

/// Home-local conflict misses on node 0's own pages, with a remote reader
/// and a remote writer mixed in.
fn home_local_misses() -> ProgramTrace {
    let s = stride();
    let mut b = TraceBuilder::new("home-local-misses", MACHINE.topology);
    let home = first_proc(0);
    b.write(home, GlobalAddr(0));
    b.write(home, GlobalAddr(s));
    b.barrier_all();
    b.read(first_proc(2), GlobalAddr(192));
    b.write(first_proc(3), GlobalAddr(s + 192));
    b.barrier_all();
    for i in 0..40u64 {
        if i % 4 == 0 {
            b.write(home, GlobalAddr(64 * (i % 8)));
        } else {
            b.read(home, GlobalAddr(64 * (i % 8)));
        }
        b.read(home, GlobalAddr(s + 64 * (i % 8)));
    }
    b.barrier_all();
    for _ in 0..10 {
        b.read(home, GlobalAddr(0));
        b.read(home, GlobalAddr(s));
        b.write(first_proc(1), GlobalAddr(64));
    }
    b.barrier_all();
    b.build()
}

/// Node 1 refetches a page until R-NUMA relocates it; node 2's cold misses
/// then trigger a migration of the page onto node 1.
fn migrate_into_page_cache() -> ProgramTrace {
    let s = stride();
    let mut b = TraceBuilder::new("migrate-into-page-cache", MACHINE.topology);
    b.write(first_proc(0), GlobalAddr(0));
    b.write(first_proc(0), GlobalAddr(s));
    b.barrier_all();
    for _ in 0..20 {
        b.read(first_proc(1), GlobalAddr(0));
        b.write(first_proc(1), GlobalAddr(s));
    }
    b.barrier_all();
    for block in 0..12 {
        b.read(first_proc(2), GlobalAddr(64 * block));
        b.read(first_proc(2), GlobalAddr(s + 64 * block));
    }
    b.barrier_all();
    for _ in 0..10 {
        b.read(first_proc(1), GlobalAddr(0));
        b.read(first_proc(1), GlobalAddr(s + 64));
    }
    b.barrier_all();
    b.build()
}

/// Node 1 cycles over more hot remote pages than a four-frame page cache
/// holds, writing some, so relocations replace dirty victims.
fn page_cache_pressure() -> ProgramTrace {
    let mut b = TraceBuilder::new("page-cache-pressure", MACHINE.topology);
    let pages = 12u64;
    for p in 0..pages {
        b.write(first_proc(0), GlobalAddr(p * PAGE_SIZE));
    }
    b.barrier_all();
    let user = first_proc(1);
    for round in 0..240u64 {
        let p = round % pages;
        let base = p * PAGE_SIZE;
        if round % 3 == 0 {
            b.write(user, GlobalAddr(base + 64 * (round % 5)));
        } else {
            b.read(user, GlobalAddr(base + 64 * (round % 5)));
        }
        b.read(user, GlobalAddr(base + MACHINE.l1.size_bytes));
        b.read(proc(1, 1), GlobalAddr(base + 128));
    }
    b.barrier_all();
    b.build()
}

/// The scenario matrix: a stable key (part of the golden-file format), the
/// system and the trace.
fn scenarios() -> Vec<(&'static str, SystemConfig, ProgramTrace)> {
    vec![
        (
            "replica-write/rep",
            System::cc_numa()
                .with(MigRep::replication_only())
                .with(fast(50, 32))
                .build(),
            replica_write(),
        ),
        (
            "unregistered-replica/custom",
            System::cc_numa()
                .policy(|| Box::new(ReplicaOnFirstTouch))
                .build(),
            unregistered_replica(),
        ),
        (
            "home-as-remote/cc-numa+custom",
            System::cc_numa()
                .policy(|| Box::new(HomeMapsRemote))
                .build(),
            home_as_remote(),
        ),
        (
            "home-as-remote/r-numa+custom",
            System::r_numa()
                .with(fast(50, 2))
                .policy(|| Box::new(HomeMapsRemote))
                .build(),
            home_as_remote(),
        ),
        (
            "home-miss-migrate/cc-numa+custom",
            System::cc_numa()
                .policy(|| {
                    Box::new(OnHomeMiss::new(6, |page, home| PageOp::Migrate {
                        page,
                        to: NodeId(home.0 + 1),
                    }))
                })
                .build(),
            home_local_misses(),
        ),
        (
            "home-miss-relocate/r-numa+custom",
            System::r_numa()
                .with(fast(50, 32))
                .policy(|| {
                    Box::new(OnHomeMiss::new(4, |page, home| PageOp::Relocate {
                        page,
                        to: home,
                    }))
                })
                .build(),
            home_local_misses(),
        ),
        (
            "migrate-into-page-cache/r-numa+custom",
            System::r_numa()
                .with(fast(50, 2))
                .policy(|| {
                    Box::new(MigrateTo {
                        target: NodeId(1),
                        after: 6,
                        counts: PageCounts::default(),
                        pending: Vec::new(),
                    })
                })
                .build(),
            migrate_into_page_cache(),
        ),
        (
            "page-cache-pressure/r-numa-4-frames",
            System::r_numa()
                .with(PageCaching::bytes(4 * PAGE_SIZE))
                .with(fast(50, 2))
                .build(),
            page_cache_pressure(),
        ),
        (
            "skipped-ops/rep+custom",
            System::cc_numa()
                .with(MigRep::replication_only())
                .with(fast(50, 32))
                .policy(|| Box::<SkippedOps>::default())
                .build(),
            replica_write(),
        ),
    ]
}

fn run(system: SystemConfig, trace: &ProgramTrace) -> SimResult {
    ClusterSimulator::new(MACHINE, system).run(trace)
}

fn parse_golden() -> BTreeMap<String, u64> {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, fp) = l.split_once(' ').expect("golden line: key fingerprint");
            (
                key.to_string(),
                u64::from_str_radix(fp.trim().trim_start_matches("0x"), 16)
                    .expect("hex fingerprint"),
            )
        })
        .collect()
}

/// Writes `tests/golden/access_paths.txt` from the current simulator.  Only
/// run deliberately (see the module docs); gated twice, by `#[ignore]` and
/// the `GOLDEN_REGEN` env var.
#[test]
#[ignore = "regenerates the golden file; run with GOLDEN_REGEN=1"]
fn regen_golden() {
    if std::env::var("GOLDEN_REGEN").is_err() {
        eprintln!("GOLDEN_REGEN not set; refusing to overwrite the golden file");
        return;
    }
    let mut body = String::from(
        "# SimResult fingerprints: scenario/system fingerprint\n\
         # Generated by `GOLDEN_REGEN=1 cargo test --test access_paths -- --ignored regen_golden`\n\
         # on MachineConfig::PAPER; see tests/access_paths.rs.\n",
    );
    for (key, system, trace) in scenarios() {
        writeln!(body, "{key} 0x{:016x}", run(system, &trace).fingerprint()).unwrap();
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/access_paths.txt");
    std::fs::write(path, body).expect("write golden file");
}

#[test]
fn access_path_scenarios_match_committed_golden_fingerprints() {
    let golden = parse_golden();
    let keys: Vec<&str> = scenarios().iter().map(|(k, _, _)| *k).collect();
    assert_eq!(
        golden.keys().map(String::as_str).collect::<Vec<_>>(),
        {
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            sorted
        },
        "golden file and scenario matrix list different keys"
    );
    let mut mismatches = Vec::new();
    for (key, system, trace) in scenarios() {
        let fp = run(system, &trace).fingerprint();
        if golden[key] != fp {
            mismatches.push(format!(
                "{key}: golden 0x{:016x}, got 0x{fp:016x}",
                golden[key]
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// The page-operation counters each scenario exists to exercise are
/// nonzero, so a scenario cannot silently stop reaching its branch.
#[test]
fn scenarios_reach_their_page_operations() {
    let results: BTreeMap<&str, SimResult> = scenarios()
        .into_iter()
        .map(|(key, system, trace)| (key, run(system, &trace)))
        .collect();
    let total = |key: &str, f: fn(&dsm_repro::core::NodeStats) -> u64| -> u64 {
        results[key].per_node.iter().map(f).sum()
    };
    assert!(total("replica-write/rep", |n| n.replications) > 1);
    assert_eq!(total("replica-write/rep", |n| n.switches_to_rw), 2);
    assert_eq!(
        total("unregistered-replica/custom", |n| n.switches_to_rw),
        1
    );
    assert!(total("home-miss-migrate/cc-numa+custom", |n| n.migrations) > 0);
    assert!(total("home-miss-relocate/r-numa+custom", |n| n.relocations) > 0);
    assert!(total("migrate-into-page-cache/r-numa+custom", |n| n.relocations) > 0);
    assert!(total("migrate-into-page-cache/r-numa+custom", |n| n.migrations) > 0);
    assert!(
        total("page-cache-pressure/r-numa-4-frames", |n| n
            .page_cache_replacements)
            > 0
    );
    assert_eq!(total("skipped-ops/rep+custom", |n| n.migrations), 0);
    assert_eq!(total("skipped-ops/rep+custom", |n| n.relocations), 0);
}

/// Skipped operations cost nothing and change nothing: the run with the
/// policy that asks for them equals the run without it.
#[test]
fn skipped_page_ops_leave_the_result_unchanged() {
    let trace = replica_write();
    let plain = System::cc_numa()
        .with(MigRep::replication_only())
        .with(fast(50, 32));
    let with_skips = plain.clone().policy(|| Box::<SkippedOps>::default());
    let (a, b) = (run(plain.build(), &trace), run(with_skips.build(), &trace));
    assert_eq!(a.execution_time, b.execution_time);
    assert_eq!(a.per_node, b.per_node);
    assert_eq!(a.traffic, b.traffic);
}
