//! Pull-based trace streams: the [`TraceSource`] abstraction.
//!
//! The simulator is trace-driven, but nothing about it requires the whole
//! trace to exist in memory: it only ever asks "what is processor `p`'s next
//! event?".  `TraceSource` captures exactly that contract — per-processor
//! pull cursors over a workload's event streams — so that the three ways a
//! trace can exist are interchangeable:
//!
//! * **materialized** — [`TraceCursor`], a cursor over a [`ProgramTrace`]
//!   (the classic in-memory representation, still used by tests and
//!   custom-trace callers);
//! * **fused** — [`FusedSource`], which runs a per-processor generator
//!   ([`ProcGenerator`]) inside the consumer's pull loop: processor `p`'s
//!   next events are generated when `p` is pulled, into a small staging
//!   buffer of `p`'s own.  Nothing of another processor is generated,
//!   parked or counted on the way;
//! * **replayed** — [`crate::replay::ReplaySource`], which demultiplexes a
//!   recorded trace file without seeking.  A file holds every processor's
//!   records interleaved, so replay is the one source that parks events of
//!   processors other than the one pulled; its window cap
//!   ([`default_window_cap`]) bounds that.
//!
//! Every source also reports [`TraceStats`] over the events *pulled* so far
//! ([`TraceSource::stats_so_far`]); once a source is drained these equal
//! what [`ProgramTrace::stats`] would report for the same trace.

use std::cell::RefCell;

use crate::access::TraceEvent;
use crate::addr::{ProcId, Topology};
use crate::trace::{ProgramTrace, StatsAccumulator, TraceError, TraceStats};

/// A per-processor pull cursor over a workload's event streams.
///
/// The contract:
///
/// * [`next_event`](TraceSource::next_event) consumes and returns the next
///   event of one processor's stream, `None` once that stream is exhausted;
/// * [`exhausted`](TraceSource::exhausted) answers the same question without
///   consuming (it may buffer internally, which is why it takes `&mut`);
/// * streams of different processors are independent: consuming from one
///   never skips events of another;
/// * the per-processor sequences are deterministic for a given source
///   construction, so two drains of equally constructed sources observe
///   bit-identical streams;
/// * a source that had to give up mid-stream (buffering cap exceeded)
///   reports exhaustion everywhere and surfaces the reason through
///   [`take_error`](TraceSource::take_error).
pub trait TraceSource {
    /// Workload name (Table 2 row, e.g. `"lu"`).
    fn name(&self) -> &str;

    /// Cluster topology the trace targets.
    fn topology(&self) -> Topology;

    /// Pull the next event of `proc`'s stream; `None` once exhausted.
    fn next_event(&mut self, proc: ProcId) -> Option<TraceEvent>;

    /// `true` once `proc`'s stream has no further events.  Does not consume.
    fn exhausted(&mut self, proc: ProcId) -> bool;

    /// Pull up to `max` consecutive events of `proc`'s stream, appending
    /// them to `out` (which is not cleared).  Returns the number appended —
    /// `0` exactly when [`next_event`](TraceSource::next_event) would have
    /// returned `None`.
    ///
    /// Semantically identical to calling `next_event` up to `max` times and
    /// stopping at the first `None`, and implementations must preserve
    /// that equivalence *including side effects*: a demultiplexing source
    /// ([`crate::replay::ReplaySource`]) may only pump its underlying stream
    /// as far as producing the first event requires (exactly what one
    /// `next_event` call would pump) and then take events that are already
    /// parked, so that window-cap poisoning triggers at the same stream
    /// position under either API.  Returning fewer than `max` events while
    /// more are cheaply available is allowed; returning `0` while the
    /// stream has events is not.
    ///
    /// The default body loops `next_event`, which monomorphizes to the
    /// concrete source — a caller holding `&mut dyn TraceSource` pays one
    /// virtual call per burst instead of one per event.
    fn next_burst(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            let Some(ev) = self.next_event(proc) else {
                break;
            };
            out.push(ev);
            n += 1;
        }
        n
    }

    /// Statistics over the events pulled so far.  After every stream is
    /// drained this equals the whole-trace statistics.
    fn stats_so_far(&self) -> TraceStats;

    /// Events produced or read but not yet pulled by the consumer: the
    /// demultiplexing window of a replayed source, the per-processor
    /// staging of a fused one.  0 for a materialized cursor.
    fn buffered_events(&self) -> usize {
        0
    }

    /// The error that cut this stream short, if any (taking it resets the
    /// slot).  A poisoned source answers `next_event`/`exhausted` as if
    /// every stream ended; consumers that care — the simulator — check this
    /// before trusting the early end.
    fn take_error(&mut self) -> Option<TraceError> {
        None
    }
}

impl<S: TraceSource + ?Sized> TraceSource for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn topology(&self) -> Topology {
        (**self).topology()
    }
    fn next_event(&mut self, proc: ProcId) -> Option<TraceEvent> {
        (**self).next_event(proc)
    }
    fn exhausted(&mut self, proc: ProcId) -> bool {
        (**self).exhausted(proc)
    }
    fn next_burst(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        (**self).next_burst(proc, out, max)
    }
    fn stats_so_far(&self) -> TraceStats {
        (**self).stats_so_far()
    }
    fn buffered_events(&self) -> usize {
        (**self).buffered_events()
    }
    fn take_error(&mut self) -> Option<TraceError> {
        (**self).take_error()
    }
}

impl<S: TraceSource + ?Sized> TraceSource for &mut S {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn topology(&self) -> Topology {
        (**self).topology()
    }
    fn next_event(&mut self, proc: ProcId) -> Option<TraceEvent> {
        (**self).next_event(proc)
    }
    fn exhausted(&mut self, proc: ProcId) -> bool {
        (**self).exhausted(proc)
    }
    fn next_burst(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        (**self).next_burst(proc, out, max)
    }
    fn stats_so_far(&self) -> TraceStats {
        (**self).stats_so_far()
    }
    fn buffered_events(&self) -> usize {
        (**self).buffered_events()
    }
    fn take_error(&mut self) -> Option<TraceError> {
        (**self).take_error()
    }
}

/// The materialized [`TraceSource`]: per-processor cursors over a
/// [`ProgramTrace`] held in memory.
///
/// Statistics are *caught up lazily*: the hot per-event path stays a bare
/// index increment, and each [`TraceSource::stats_so_far`] call feeds the
/// accumulator only the events pulled since the previous call.  A caller
/// polling stats in a loop therefore pays O(events) total — not
/// O(events²) as the old recount-the-prefix implementation did — while a
/// caller that never asks pays nothing per event.
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    trace: &'a ProgramTrace,
    pos: Vec<usize>,
    /// Interior mutability: catching up is observationally pure, and
    /// `stats_so_far` takes `&self` across every source implementation.
    stats: std::cell::RefCell<LazyCursorStats>,
}

/// The accumulator plus the per-processor positions it has observed up to.
#[derive(Debug, Clone)]
struct LazyCursorStats {
    acc: StatsAccumulator,
    seen: Vec<usize>,
}

impl<'a> TraceCursor<'a> {
    /// Fresh cursors at the start of every processor's stream.
    pub fn new(trace: &'a ProgramTrace) -> Self {
        TraceCursor {
            trace,
            pos: vec![0; trace.per_proc.len()],
            stats: std::cell::RefCell::new(LazyCursorStats {
                acc: StatsAccumulator::new(trace.topology),
                seen: vec![0; trace.per_proc.len()],
            }),
        }
    }
}

impl ProgramTrace {
    /// View this trace as a [`TraceSource`] (fresh cursors at the start).
    pub fn source(&self) -> TraceCursor<'_> {
        TraceCursor::new(self)
    }
}

impl TraceSource for TraceCursor<'_> {
    fn name(&self) -> &str {
        &self.trace.name
    }

    fn topology(&self) -> Topology {
        self.trace.topology
    }

    fn next_event(&mut self, proc: ProcId) -> Option<TraceEvent> {
        let p = proc.index();
        let ev = *self.trace.per_proc[p].get(self.pos[p])?;
        self.pos[p] += 1;
        Some(ev)
    }

    fn exhausted(&mut self, proc: ProcId) -> bool {
        let p = proc.index();
        self.pos[p] >= self.trace.per_proc[p].len()
    }

    fn next_burst(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        let p = proc.index();
        let events = &self.trace.per_proc[p];
        let take = (events.len() - self.pos[p]).min(max);
        out.extend_from_slice(&events[self.pos[p]..self.pos[p] + take]);
        self.pos[p] += take;
        take
    }

    /// Pulled-event statistics, identical in mid-stream meaning to what the
    /// fused and replayed sources report: exactly the events the consumer
    /// has seen, no matter which source implementation is behind the trait.
    fn stats_so_far(&self) -> TraceStats {
        let mut lazy = self.stats.borrow_mut();
        let LazyCursorStats { acc, seen } = &mut *lazy;
        for (p, seen_pos) in seen.iter_mut().enumerate() {
            for ev in &self.trace.per_proc[p][*seen_pos..self.pos[p]] {
                acc.observe(ProcId(p as u16), ev);
            }
            *seen_pos = self.pos[p];
        }
        lazy.acc.snapshot()
    }
}

/// Floor of the default cap on a replayed source's parked-event window
/// (see [`default_window_cap`]).
pub const DEFAULT_WINDOW_CAP: usize = 4 << 20;

/// Per-processor allowance folded into the default window cap.
///
/// The legitimate window is a fraction of one phase, and phases grow with
/// the machine — radix's global-rank phase is O(procs²) events (every
/// processor reads every processor's histogram), so a flat cap that is
/// generous at 32 processors would false-positive on a 384-processor
/// sweep point.  256K events per processor covers the widest phase of
/// every Table 2 generator up to ~2000 processors.
pub const WINDOW_CAP_PER_PROC: usize = 256 << 10;

/// The default parked-event window cap of a [`crate::replay::ReplaySource`]
/// for a machine: the flat [`DEFAULT_WINDOW_CAP`] floor or
/// [`WINDOW_CAP_PER_PROC`] per processor, whichever is larger.  Far above
/// any legitimate window at that machine size, far below a whole trace, so
/// it trips on a genuine buffering blow-up (an adversarial pull order
/// against a file whose processors do not end together) long before the
/// process feels it.
///
/// A trace file is outside input: a recording need not interleave its
/// processors fairly, and the cap is the only bound on what replaying one
/// parks.  (Generated traces need no cap: [`FusedSource`] parks nothing.)
pub fn default_window_cap(topology: Topology) -> usize {
    DEFAULT_WINDOW_CAP.max(topology.total_procs() * WINDOW_CAP_PER_PROC)
}

/// A per-processor trace generator: the producer behind [`FusedSource`].
///
/// Each processor's stream is generated on its own: [`fill`] appends the
/// next events of one processor's stream and produces nothing of any
/// other's, so a consumer may pull processors in any order and nothing is
/// ever parked.  Two equally constructed generators produce bit-identical
/// streams however their fills are interleaved.
///
/// [`fill`]: ProcGenerator::fill
pub trait ProcGenerator: Send {
    /// Append the next events of `proc`'s stream to `out` (which is not
    /// cleared) and return how many: at least one while the stream has
    /// events, `0` once it has ended.  A fill appends a bounded slice, so
    /// the consumer's staging stays small.
    fn fill(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>) -> usize;

    /// A fresh generator for the same trace, at the start of every stream.
    /// [`FusedSource::stats_so_far`] replays one to recount what was
    /// pulled, so statistics cost nothing while the source is drained.
    fn restart(&self) -> Box<dyn ProcGenerator>;
}

/// One processor's staged slice: `events[head..]` are generated but not yet
/// pulled.
#[derive(Debug, Default)]
struct Stage {
    events: Vec<TraceEvent>,
    head: usize,
    /// Events of this processor pulled so far.
    pulled: u64,
    ended: bool,
}

impl Stage {
    /// Stage slices of `proc`'s stream until at least `want` events are
    /// staged or the stream has ended, and return how many are staged.
    /// What is left of the previous slice moves to the front first, so a
    /// burst pull is not cut short at a slice boundary.
    #[inline]
    fn stage(&mut self, generator: &mut dyn ProcGenerator, proc: ProcId, want: usize) -> usize {
        while self.events.len() - self.head < want && !self.ended {
            self.events.drain(..self.head);
            self.head = 0;
            if generator.fill(proc, &mut self.events) == 0 {
                self.ended = true;
            }
        }
        let staged = self.events.len() - self.head;
        if staged == 0 && self.ended && self.events.capacity() > 0 {
            // Nothing will be staged here again: free the buffer.
            self.events = Vec::new();
            self.head = 0;
        }
        staged
    }
}

/// A [`TraceSource`] that runs a [`ProcGenerator`] *inside* the consumer's
/// pull loop.
///
/// Pulling processor `p` when its staged events run short of the pull asks
/// the generator for `p`'s next slice, and only `p`'s: no thread, no
/// channel, no parking of other processors' events, no per-event
/// bookkeeping.  Peak memory is one small slice (plus at most one burst)
/// per processor, whatever the pull order.
///
/// Statistics are counted lazily: the source only counts pulled events per
/// processor, and [`TraceSource::stats_so_far`] replays a fresh copy of the
/// generator ([`ProcGenerator::restart`]) up to those counts — the lazy
/// catch-up of [`TraceCursor`], applied to a generator.  A run that never
/// asks pays nothing.
///
/// Building a source allocates nothing beyond the generator: the staging
/// buffers are made on the first pull.
pub struct FusedSource {
    name: String,
    topology: Topology,
    generator: Box<dyn ProcGenerator>,
    stages: Vec<Stage>,
    /// The statistics replay, made on the first `stats_so_far`.  Interior
    /// mutability: catching up is observationally pure, and `stats_so_far`
    /// takes `&self` across every source implementation.
    stats: RefCell<Option<StatsReplay>>,
}

impl std::fmt::Debug for FusedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusedSource")
            .field("name", &self.name)
            .field("topology", &self.topology)
            .finish_non_exhaustive()
    }
}

/// A second generator, the accumulator it feeds and, per processor, how
/// far the accumulator has seen and the replayed events not yet counted.
struct StatsReplay {
    generator: Box<dyn ProcGenerator>,
    acc: StatsAccumulator,
    stages: Vec<Stage>,
}

impl FusedSource {
    /// Serve `generator`'s streams for `topology` as a pull source.
    pub fn new(
        name: impl Into<String>,
        topology: Topology,
        generator: Box<dyn ProcGenerator>,
    ) -> Self {
        FusedSource {
            name: name.into(),
            topology,
            generator,
            stages: Vec::new(),
            stats: RefCell::new(None),
        }
    }

    /// `proc`'s stage and the generator that fills it, with every stage
    /// made on the first pull.
    #[inline]
    fn stage(&mut self, proc: ProcId) -> (&mut Stage, &mut dyn ProcGenerator) {
        if self.stages.is_empty() {
            self.stages = (0..self.topology.total_procs())
                .map(|_| Stage::default())
                .collect();
        }
        (&mut self.stages[proc.index()], &mut *self.generator)
    }
}

impl TraceSource for FusedSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn topology(&self) -> Topology {
        self.topology
    }

    fn next_event(&mut self, proc: ProcId) -> Option<TraceEvent> {
        let (stage, generator) = self.stage(proc);
        if stage.stage(generator, proc, 1) == 0 {
            return None;
        }
        let ev = stage.events[stage.head];
        stage.head += 1;
        stage.pulled += 1;
        Some(ev)
    }

    fn exhausted(&mut self, proc: ProcId) -> bool {
        let (stage, generator) = self.stage(proc);
        stage.stage(generator, proc, 1) == 0
    }

    fn next_burst(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        let (stage, generator) = self.stage(proc);
        let take = stage.stage(generator, proc, max).min(max);
        out.extend_from_slice(&stage.events[stage.head..stage.head + take]);
        stage.head += take;
        stage.pulled += take as u64;
        take
    }

    fn stats_so_far(&self) -> TraceStats {
        let mut slot = self.stats.borrow_mut();
        let replay = slot.get_or_insert_with(|| StatsReplay {
            generator: self.generator.restart(),
            acc: StatsAccumulator::new(self.topology),
            stages: (0..self.topology.total_procs())
                .map(|_| Stage::default())
                .collect(),
        });
        for (p, stage) in self.stages.iter().enumerate() {
            let proc = ProcId(p as u16);
            let shadow = &mut replay.stages[p];
            while shadow.pulled < stage.pulled && shadow.stage(&mut *replay.generator, proc, 1) > 0
            {
                let want = (stage.pulled - shadow.pulled) as usize;
                let take = (shadow.events.len() - shadow.head).min(want);
                for ev in &shadow.events[shadow.head..shadow.head + take] {
                    replay.acc.observe(proc, ev);
                }
                shadow.head += take;
                shadow.pulled += take as u64;
            }
        }
        replay.acc.snapshot()
    }

    fn buffered_events(&self) -> usize {
        self.stages.iter().map(|s| s.events.len() - s.head).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::GlobalAddr;
    use crate::builder::TraceBuilder;

    fn toy_trace() -> ProgramTrace {
        let topo = Topology::new(2, 1);
        let mut b = TraceBuilder::new("toy", topo).with_think_cycles(2);
        b.read(ProcId(0), GlobalAddr(0));
        b.barrier_all();
        b.write(ProcId(1), GlobalAddr(4096));
        b.lock(ProcId(1), 7);
        b.unlock(ProcId(1), 7);
        b.build()
    }

    /// A per-processor generator serving the toy trace one event per fill.
    #[derive(Clone)]
    struct ToyGen {
        trace: std::sync::Arc<ProgramTrace>,
        pos: Vec<usize>,
    }

    impl ToyGen {
        fn new(trace: ProgramTrace) -> Self {
            let procs = trace.per_proc.len();
            ToyGen {
                trace: std::sync::Arc::new(trace),
                pos: vec![0; procs],
            }
        }
    }

    impl ProcGenerator for ToyGen {
        fn fill(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>) -> usize {
            let p = proc.index();
            let Some(ev) = self.trace.per_proc[p].get(self.pos[p]) else {
                return 0;
            };
            out.push(*ev);
            self.pos[p] += 1;
            1
        }

        fn restart(&self) -> Box<dyn ProcGenerator> {
            Box::new(ToyGen {
                trace: std::sync::Arc::clone(&self.trace),
                pos: vec![0; self.pos.len()],
            })
        }
    }

    #[test]
    fn cursor_replays_the_trace_per_proc() {
        let trace = toy_trace();
        let mut src = trace.source();
        assert_eq!(src.name(), "toy");
        assert_eq!(src.topology(), trace.topology);
        for p in trace.topology.proc_ids() {
            let mut got = Vec::new();
            while let Some(ev) = src.next_event(p) {
                got.push(ev);
            }
            assert_eq!(got, trace.per_proc[p.index()]);
            assert!(src.exhausted(p));
        }
        assert_eq!(src.stats_so_far(), trace.stats());
        assert_eq!(src.buffered_events(), 0);
        assert!(src.take_error().is_none());
    }

    #[test]
    fn cursor_streams_are_independent() {
        let trace = toy_trace();
        let mut src = trace.source();
        // Draining proc 1 first must not disturb proc 0's stream.
        while src.next_event(ProcId(1)).is_some() {}
        assert!(!src.exhausted(ProcId(0)));
        assert_eq!(src.next_event(ProcId(0)), Some(trace.per_proc[0][0]));
    }

    #[test]
    fn cursor_stats_track_the_pulled_prefix_incrementally() {
        let trace = toy_trace();
        let mut src = trace.source();
        assert_eq!(src.stats_so_far(), TraceStats::default());
        src.next_event(ProcId(0)); // think
        src.next_event(ProcId(0)); // read
        let mid = src.stats_so_far();
        assert_eq!(mid.accesses, 1);
        assert_eq!(mid.reads, 1);
        assert_eq!(mid.compute_cycles, 2);
        for p in trace.topology.proc_ids() {
            while src.next_event(p).is_some() {}
        }
        assert_eq!(src.stats_so_far(), trace.stats());
    }

    #[test]
    fn fused_source_matches_materialized_trace() {
        let trace = toy_trace();
        let topo = trace.topology;
        let mut src = FusedSource::new("toy", topo, Box::new(ToyGen::new(trace.clone())));
        assert_eq!(src.buffered_events(), 0);
        // Pull in an adversarial order: proc 1 fully first.
        let mut p1 = Vec::new();
        while let Some(ev) = src.next_event(ProcId(1)) {
            p1.push(ev);
        }
        // Nothing of proc 0 was generated on the way.
        assert_eq!(src.buffered_events(), 0);
        assert_eq!(src.stats_so_far().accesses, 1);
        let mut p0 = Vec::new();
        while let Some(ev) = src.next_event(ProcId(0)) {
            p0.push(ev);
        }
        assert_eq!(p0, trace.per_proc[0]);
        assert_eq!(p1, trace.per_proc[1]);
        assert!(src.exhausted(ProcId(0)) && src.exhausted(ProcId(1)));
        assert_eq!(src.stats_so_far(), trace.stats());
        assert!(src.take_error().is_none());
    }

    #[test]
    fn fused_stats_replay_the_pulled_prefix() {
        let trace = toy_trace();
        let mut src = FusedSource::new("toy", trace.topology, Box::new(ToyGen::new(trace.clone())));
        let mut cursor = trace.source();
        assert_eq!(src.stats_so_far(), TraceStats::default());
        for (p, n) in [(0u16, 2usize), (1, 1), (1, 3), (0, 1)] {
            for _ in 0..n {
                assert_eq!(src.next_event(ProcId(p)), cursor.next_event(ProcId(p)));
            }
            // Asked between every pull: each ask catches up incrementally.
            assert_eq!(src.stats_so_far(), cursor.stats_so_far());
        }
        for p in trace.topology.proc_ids() {
            while src.next_event(p).is_some() {}
        }
        assert_eq!(src.stats_so_far(), trace.stats());
    }

    #[test]
    fn default_window_cap_scales_with_the_machine() {
        // Flat floor for small machines…
        assert_eq!(default_window_cap(Topology::new(2, 1)), DEFAULT_WINDOW_CAP);
        assert_eq!(
            default_window_cap(Topology::new(8, 4)),
            32 * WINDOW_CAP_PER_PROC
        );
        // …per-processor allowance for wide ones: radix's global-rank phase
        // is O(procs²) events, so a 384-processor sweep point legitimately
        // parks more than the flat floor.
        let wide = default_window_cap(Topology::new(96, 4));
        assert_eq!(wide, 384 * WINDOW_CAP_PER_PROC);
        assert!(wide > DEFAULT_WINDOW_CAP);
    }

    #[test]
    #[should_panic(expected = "generator exploded")]
    fn generator_panic_propagates_to_the_consumer() {
        struct Exploding;
        impl ProcGenerator for Exploding {
            fn fill(&mut self, _proc: ProcId, _out: &mut Vec<TraceEvent>) -> usize {
                panic!("generator exploded");
            }
            fn restart(&self) -> Box<dyn ProcGenerator> {
                Box::new(Exploding)
            }
        }
        let mut src = FusedSource::new("bad", Topology::new(1, 1), Box::new(Exploding));
        while src.next_event(ProcId(0)).is_some() {}
    }
}
