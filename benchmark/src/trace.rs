//! Tracing from outside the program: spans kept in memory, a timed
//! [`TraceSource`] wrapper, and the two [`RelocationPolicy`] probes the
//! traced run installs through `SystemBuilder::policy`.
//!
//! Nothing here runs in an untraced run.  The probes must leave every
//! simulated statistic unchanged; the traced run checks that each job's
//! fingerprint equals the untraced one.

use crate::clock;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use dsm_core::{MigRepConfig, MigRepEngine, PageOp, PolicyStats, RelocationPolicy, Thresholds};
use mem_trace::{
    NodeId, PageRef, ProcId, Topology, TraceError, TraceEvent, TraceSource, TraceStats,
};
use smp_node::page_table::PageMapping;
use smp_node::MissClass;

/// Nanoseconds since `origin`.
pub fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The cost of one `clock::now()` call in nanoseconds, measured here so
/// that timed calls can have the clock's own cost taken out.
pub fn clock_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let start = clock::now();
    let mut last = start;
    for _ in 0..N {
        last = black_box(clock::now());
    }
    (last - start).as_nanos() as f64 / f64::from(N)
}

/// One span.  A span either covers one interval (`busy_ns` equal to its
/// duration) or aggregates the calls of one layer inside its parent
/// (`busy_ns` is the sum of their durations; `start_ns`/`end_ns` bound the
/// first and last call).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub aggregate: bool,
    pub calls: u64,
    pub busy_ns: u64,
}

/// Spans recorded during a run, written out when the run ends.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Record an interval span; returns its id.
    pub fn interval(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
            aggregate: false,
            calls: 1,
            busy_ns: end_ns.saturating_sub(start_ns),
        })
    }

    /// Record an aggregate span of `calls` calls totalling `busy_ns`.
    pub fn aggregate(
        &mut self,
        name: &str,
        parent: usize,
        first_ns: u64,
        last_ns: u64,
        calls: u64,
        busy_ns: u64,
    ) -> usize {
        self.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            start_ns: first_ns,
            end_ns: last_ns,
            aggregate: true,
            calls,
            busy_ns,
        })
    }

    fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its busy time minus the time its direct
    /// children cover.  Interval children count by the union of their
    /// intervals (clipped to the parent), aggregate children by their busy
    /// time (calls of one layer never overlap each other or an interval
    /// child, because the simulator makes them one at a time).
    pub fn self_ns(&self, id: usize) -> u64 {
        let parent = &self.spans[id];
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        let mut covered = 0u64;
        for child in self.spans.iter().filter(|s| s.parent == Some(id)) {
            if !child.aggregate {
                let lo = child.start_ns.max(parent.start_ns);
                let hi = child.end_ns.min(parent.end_ns);
                if hi > lo {
                    intervals.push((lo, hi));
                }
            } else {
                covered += child.busy_ns;
            }
        }
        intervals.sort_unstable();
        let mut reach = 0u64;
        for (lo, hi) in intervals {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        parent.busy_ns.saturating_sub(covered)
    }

    /// The span file: one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{id},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{},"aggregate":{},"calls":{},"busy_ns":{},"self_ns":{}}}"#,
                s.name,
                s.start_ns,
                s.end_ns,
                s.aggregate,
                s.calls,
                s.busy_ns,
                self.self_ns(id)
            );
        }
        out
    }
}

/// One access of a captured stream, with the compute cycles its processor
/// spent since its previous access.
#[derive(Debug, Clone, Copy)]
pub struct Captured {
    pub proc: u16,
    pub write: bool,
    pub think: u32,
    pub addr: u64,
}

/// Most accesses one job's captured stream keeps; the isolated replays run
/// over this prefix.
pub const CAPTURE_LIMIT: usize = 1 << 21;

/// Per-call totals of a timed source.
#[derive(Debug, Default, Clone, Copy)]
pub struct SourceTotals {
    pub calls: u64,
    pub events: u64,
    pub busy_ns: u64,
    pub first_ns: u64,
    pub last_ns: u64,
}

/// A [`TraceSource`] that times every call into the wrapped source and
/// optionally captures the access stream it hands out.
pub struct TimedSource<'a> {
    inner: &'a mut dyn TraceSource,
    origin: Instant,
    totals: SourceTotals,
    capture: Option<(Vec<Captured>, Vec<u32>)>,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: &'a mut dyn TraceSource, origin: Instant, capture: bool) -> Self {
        let procs = inner.topology().total_procs();
        TimedSource {
            inner,
            origin,
            totals: SourceTotals::default(),
            capture: capture.then(|| (Vec::new(), vec![0; procs])),
        }
    }

    /// The call totals, and the captured accesses (empty unless capturing
    /// was asked for).
    pub fn finish(self) -> (SourceTotals, Vec<Captured>) {
        (
            self.totals,
            self.capture.map(|(c, _)| c).unwrap_or_default(),
        )
    }

    #[inline]
    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn TraceSource) -> T) -> T {
        let start = ns_since(self.origin);
        let out = f(&mut *self.inner);
        let end = ns_since(self.origin);
        let t = &mut self.totals;
        if t.calls == 0 {
            t.first_ns = start;
        }
        t.calls += 1;
        t.busy_ns += end - start;
        t.last_ns = end;
        out
    }

    fn record(&mut self, proc: ProcId, events: &[TraceEvent]) {
        self.totals.events += events.len() as u64;
        let Some((captured, think)) = &mut self.capture else {
            return;
        };
        let p = usize::from(proc.0);
        for ev in events {
            match ev {
                TraceEvent::Compute(c) => think[p] = think[p].saturating_add(*c),
                TraceEvent::Access(m) if captured.len() < CAPTURE_LIMIT => {
                    captured.push(Captured {
                        proc: proc.0,
                        write: m.kind.is_write(),
                        think: std::mem::take(&mut think[p]),
                        addr: m.addr.0,
                    });
                }
                _ => {}
            }
        }
    }
}

impl TraceSource for TimedSource<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn topology(&self) -> Topology {
        self.inner.topology()
    }

    fn next_event(&mut self, proc: ProcId) -> Option<TraceEvent> {
        let ev = self.timed(|s| s.next_event(proc));
        if let Some(e) = ev {
            self.record(proc, &[e]);
        }
        ev
    }

    fn exhausted(&mut self, proc: ProcId) -> bool {
        self.timed(|s| s.exhausted(proc))
    }

    fn next_burst(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        let before = out.len();
        let n = self.timed(|s| s.next_burst(proc, out, max));
        self.record(proc, &out[before..]);
        n
    }

    fn stats_so_far(&self) -> TraceStats {
        self.inner.stats_so_far()
    }

    fn buffered_events(&self) -> usize {
        self.inner.buffered_events()
    }

    fn take_error(&mut self) -> Option<TraceError> {
        self.inner.take_error()
    }
}

/// What a policy probe observed in one run.
#[derive(Debug, Default, Clone)]
pub struct PolicyObs {
    /// Every call of a mutating hook, counted exactly.  The `&self` query
    /// hooks (`classify_page`, `page_is_replicated`) run once per first
    /// touch or page operation and are not counted.
    pub calls: u64,
    /// Calls whose duration was sampled, and their total duration.
    pub sampled: u64,
    pub sampled_ns: u64,
    /// The hook stream, when capturing (bounded by [`CAPTURE_LIMIT`]).
    pub hooks: Vec<Hook>,
}

/// One captured policy hook call.
#[derive(Debug, Clone, Copy)]
pub enum Hook {
    Miss(PageRef),
    Remote(PageRef, NodeId, NodeId, bool),
    Refetch(NodeId, PageRef, MissClass),
    Drain,
    Done(PageOp),
    WriteReadOnly(PageRef),
}

/// Where a probe delivers its observations when the simulator drops the
/// policy stack at the end of the run.
pub type ObsSink = Arc<Mutex<PolicyObs>>;

fn deliver(sink: &ObsSink, obs: &mut PolicyObs) {
    let mut s = sink.lock().unwrap_or_else(PoisonError::into_inner);
    *s = std::mem::take(obs);
}

/// One in this many MigRep hook calls is timed.
const SAMPLE_EVERY: u64 = 16;

/// The MigRep engine behind a probe: counts every hook call and times a
/// sample of them.  Installed in place of `.with(MigRep::both())`.
#[derive(Debug)]
pub struct TimedMigRep {
    inner: MigRepEngine,
    obs: PolicyObs,
    sink: ObsSink,
}

impl TimedMigRep {
    pub fn new(thresholds: Thresholds, sink: ObsSink) -> Self {
        TimedMigRep {
            inner: MigRepEngine::new(MigRepConfig::BOTH, thresholds),
            obs: PolicyObs::default(),
            sink,
        }
    }

    #[inline]
    fn call<T>(&mut self, f: impl FnOnce(&mut MigRepEngine) -> T) -> T {
        self.obs.calls += 1;
        if !self.obs.calls.is_multiple_of(SAMPLE_EVERY) {
            return f(&mut self.inner);
        }
        let start = clock::now();
        let out = f(&mut self.inner);
        self.obs.sampled_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.obs.sampled += 1;
        out
    }
}

impl Drop for TimedMigRep {
    fn drop(&mut self) {
        deliver(&self.sink, &mut self.obs);
    }
}

impl RelocationPolicy for TimedMigRep {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn classify_page(&self, page: PageRef, node: NodeId, home: NodeId) -> Option<PageMapping> {
        self.inner.classify_page(page, node, home)
    }

    fn on_miss(&mut self, page: PageRef) {
        self.call(|p| p.on_miss(page))
    }

    fn on_remote_miss(&mut self, page: PageRef, home: NodeId, requester: NodeId, is_write: bool) {
        self.call(|p| p.on_remote_miss(page, home, requester, is_write))
    }

    fn on_refetch(&mut self, node: NodeId, page: PageRef, class: MissClass) {
        self.call(|p| p.on_refetch(node, page, class))
    }

    fn drain_ops(&mut self) -> Vec<PageOp> {
        self.call(|p| p.drain_ops())
    }

    fn on_write_to_read_only(&mut self, page: PageRef) -> Vec<NodeId> {
        self.call(|p| p.on_write_to_read_only(page))
    }

    fn page_is_replicated(&self, page: PageRef) -> bool {
        self.inner.page_is_replicated(page)
    }

    fn note_op_performed(&mut self, op: &PageOp) {
        self.call(|p| p.note_op_performed(op))
    }

    fn stats(&self) -> PolicyStats {
        self.inner.stats()
    }
}

/// A policy with empty hook bodies that counts every hook call and, when
/// asked, captures the hook stream for an isolated replay.  Installed
/// beside the built-in R-NUMA engine, and alone on CC-NUMA.
#[derive(Debug)]
pub struct Spy {
    obs: PolicyObs,
    capture: bool,
    sink: ObsSink,
}

impl Spy {
    pub fn new(capture: bool, sink: ObsSink) -> Self {
        Spy {
            obs: PolicyObs::default(),
            capture,
            sink,
        }
    }

    #[inline]
    fn hook(&mut self, h: Hook) {
        self.obs.calls += 1;
        if self.capture && self.obs.hooks.len() < CAPTURE_LIMIT {
            self.obs.hooks.push(h);
        }
    }
}

impl Drop for Spy {
    fn drop(&mut self) {
        deliver(&self.sink, &mut self.obs);
    }
}

impl RelocationPolicy for Spy {
    fn name(&self) -> &'static str {
        "spy"
    }

    fn on_miss(&mut self, page: PageRef) {
        self.hook(Hook::Miss(page));
    }

    fn on_remote_miss(&mut self, page: PageRef, home: NodeId, requester: NodeId, is_write: bool) {
        self.hook(Hook::Remote(page, home, requester, is_write));
    }

    fn on_refetch(&mut self, node: NodeId, page: PageRef, class: MissClass) {
        self.hook(Hook::Refetch(node, page, class));
    }

    fn drain_ops(&mut self) -> Vec<PageOp> {
        self.hook(Hook::Drain);
        Vec::new()
    }

    fn on_write_to_read_only(&mut self, page: PageRef) -> Vec<NodeId> {
        self.hook(Hook::WriteReadOnly(page));
        Vec::new()
    }

    fn note_op_performed(&mut self, op: &PageOp) {
        self.hook(Hook::Done(*op));
    }
}

/// Replay a captured hook stream through `policy` in isolation; returns
/// nanoseconds per call.
pub fn replay_hooks(policy: &mut dyn RelocationPolicy, hooks: &[Hook]) -> f64 {
    if hooks.is_empty() {
        return 0.0;
    }
    let start = clock::now();
    for h in hooks {
        match *h {
            Hook::Miss(page) => policy.on_miss(page),
            Hook::Remote(page, home, req, w) => policy.on_remote_miss(page, home, req, w),
            Hook::Refetch(node, page, class) => policy.on_refetch(node, page, class),
            Hook::Drain => {
                black_box(policy.drain_ops());
            }
            Hook::Done(op) => policy.note_op_performed(&op),
            Hook::WriteReadOnly(page) => {
                black_box(policy.on_write_to_read_only(page));
            }
        }
    }
    start.elapsed().as_nanos() as f64 / hooks.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_nested_children() {
        let mut log = SpanLog::default();
        let root = log.interval("job", None, 0, 100);
        let a = log.interval("a", Some(root), 10, 30);
        // Overlaps `a`: the union, 10..50, is what the children cover.
        log.interval("b", Some(root), 20, 50);
        // A grandchild only reduces its own parent's self time.
        log.interval("a.inner", Some(a), 12, 15);
        assert_eq!(log.self_ns(root), 60);
        assert_eq!(log.self_ns(a), 17);
        // Children poking past the parent are clipped to it.
        let c = log.interval("c", None, 200, 300);
        log.interval("c.late", Some(c), 250, 400);
        assert_eq!(log.self_ns(c), 50);
    }

    #[test]
    fn aggregate_children_count_by_busy_time() {
        let mut log = SpanLog::default();
        let root = log.interval("job", None, 0, 1_000);
        log.aggregate("supply", root, 5, 990, 40, 300);
        log.interval("policy", Some(root), 100, 200);
        assert_eq!(log.self_ns(root), 600);
        // Children never make self time negative.
        log.aggregate("noise", root, 0, 1_000, 3, 5_000);
        assert_eq!(log.self_ns(root), 0);
        let lines = log.to_jsonl();
        assert_eq!(lines.lines().count(), 4);
        let first = crate::json::parse(lines.lines().next().unwrap()).unwrap();
        assert_eq!(first.str("name"), Some("job"));
        assert_eq!(first.num("self_ns"), Some(0.0));
    }
}
