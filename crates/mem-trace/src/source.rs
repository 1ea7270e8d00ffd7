//! Pull-based trace streams: the [`TraceSource`] abstraction.
//!
//! The simulator is trace-driven, but nothing about it requires the whole
//! trace to exist in memory: it only ever asks "what is processor `p`'s next
//! event?".  `TraceSource` captures exactly that contract — per-processor
//! pull cursors over a workload's event streams — so that the four ways a
//! trace can exist are interchangeable:
//!
//! * **materialized** — [`TraceCursor`], a cursor over a [`ProgramTrace`]
//!   (the classic in-memory representation, still used by tests and
//!   custom-trace callers);
//! * **fused** — [`FusedSource`], which runs a resumable step-function
//!   generator ([`StepGenerator`]) directly inside the consumer's pull
//!   loop: no thread, no channel, no batch copies.  This is the default
//!   when producer and consumer share a core (the common experiment case
//!   where every worker thread runs one simulation);
//! * **streamed** — [`ThreadedSource`], which runs a generator on its own
//!   thread and hands events to the consumer through a small bounded
//!   channel, overlapping generation with simulation when a spare core is
//!   available;
//! * **replayed** — [`crate::replay::ReplaySource`], which demultiplexes a
//!   recorded trace file without seeking.
//!
//! Every source also accumulates incremental [`TraceStats`] over the events
//! *pulled* so far ([`TraceSource::stats_so_far`]); once a source is drained
//! these equal what [`ProgramTrace::stats`] would report for the same trace.
//!
//! # The exhaustion window, and why it is bounded
//!
//! A demultiplexing source (fused, threaded, replayed) learns that a
//! processor's stream ended either from an explicit per-processor
//! end-of-stream marker ([`crate::builder::EventSink::end_of_stream`],
//! which the workload generators emit for every processor at their final
//! barrier) or from the end of the whole underlying stream.  Between a
//! processor going quiet and its end marker arriving, `exhausted`/
//! `next_event` queries for it must read (and park) other processors'
//! events.  Two mechanisms keep that window from silently reintroducing
//! O(trace) memory: the end markers bound it to nothing for well-formed
//! generators, and a hard cap ([`DEFAULT_WINDOW_CAP`], adjustable per
//! source with `with_window_cap`) turns a genuinely unbounded window — an
//! adversarial pull order against a stream whose processors do not end
//! together — into [`TraceError::StreamWindowExceeded`], reported through
//! [`TraceSource::take_error`], instead of unbounded queue growth.

use std::collections::VecDeque;
use std::sync::mpsc;

use crate::access::TraceEvent;
use crate::addr::{ProcId, Topology};
use crate::builder::EventSink;
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
    /// may only pump its underlying stream as far as producing the first
    /// event requires (exactly what one `next_event` call would pump) and
    /// then take events that are already parked, so that window-cap
    /// poisoning triggers at the same stream position under either API.
    /// Returning fewer than `max` events while more are cheaply available
    /// is allowed; returning `0` while the stream has events is not.
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

    /// Events read from the underlying stream but not yet pulled by the
    /// consumer (the demultiplexing window).  0 for sources that never
    /// park events.
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
    /// demultiplexing sources report: exactly the events the consumer has
    /// seen, no matter which source implementation is behind the trait.
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

/// Floor of the default cap on a demultiplexing source's parked-event
/// window (see [`default_window_cap`]).
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

/// The default parked-event window cap for a machine: the flat
/// [`DEFAULT_WINDOW_CAP`] floor or [`WINDOW_CAP_PER_PROC`] per processor,
/// whichever is larger.  Far above any legitimate phase window at that
/// machine size, far below a whole trace, so it trips on a genuine
/// buffering blow-up (an adversarial pull order against a stream without
/// early end markers) long before the process feels it.
pub fn default_window_cap(topology: Topology) -> usize {
    DEFAULT_WINDOW_CAP.max(topology.total_procs() * WINDOW_CAP_PER_PROC)
}

/// Shared demultiplexing state for sources that read one interleaved event
/// stream (a step generator's emission, channel batches, trace-file
/// records) and serve per-processor pull cursors: small per-processor
/// queues, per-processor end-of-stream flags, the incremental statistics
/// every *pulled* event flows through, and the hard window cap.
///
/// [`FusedSource`], [`ThreadedSource`] and [`crate::replay::ReplaySource`]
/// drive their `next_event`/`exhausted` loops off this one struct, so the
/// demux semantics cannot drift between them.
///
/// A burst pull leaves a buffer as at most two slice copies.  Each pulled
/// event still goes through the statistics one at a time; what keeps that
/// cheap is the accumulator's per-processor page memo, which skips the page
/// interner while a processor stays on one page.  A processor's buffer is
/// freed once its stream has ended and drained, so a finished source holds
/// no high-water storage.
#[derive(Debug)]
pub(crate) struct Demux {
    buffers: Vec<VecDeque<TraceEvent>>,
    ended: Vec<bool>,
    stats: StatsAccumulator,
    /// Total parked events across all buffers.
    buffered: usize,
    window_cap: usize,
    poisoned: Option<TraceError>,
}

impl Demux {
    pub(crate) fn new(topology: Topology) -> Self {
        Demux {
            buffers: vec![VecDeque::new(); topology.total_procs()],
            ended: vec![false; topology.total_procs()],
            stats: StatsAccumulator::new(topology),
            buffered: 0,
            window_cap: default_window_cap(topology),
            poisoned: None,
        }
    }

    pub(crate) fn set_window_cap(&mut self, cap: usize) {
        self.window_cap = cap.max(1);
    }

    /// Park one demultiplexed event for `proc`.  On window overflow the
    /// demux poisons itself: the backlog is dropped, every stream reports
    /// ended, and the error waits in [`Demux::take_error`].
    #[inline]
    pub(crate) fn push(&mut self, proc: ProcId, ev: TraceEvent) {
        if self.poisoned.is_some() {
            return;
        }
        if self.buffered >= self.window_cap {
            self.poisoned = Some(TraceError::StreamWindowExceeded {
                buffered: self.buffered,
                cap: self.window_cap,
            });
            for buf in &mut self.buffers {
                *buf = VecDeque::new();
            }
            self.buffered = 0;
            self.ended.fill(true);
            return;
        }
        self.buffered += 1;
        self.buffers[proc.index()].push_back(ev);
    }

    /// Record that `proc`'s stream has no further events (an explicit
    /// end-of-stream marker, or overall end of the underlying stream).
    pub(crate) fn end(&mut self, proc: ProcId) {
        let p = proc.index();
        self.ended[p] = true;
        self.release_if_done(p);
    }

    /// Mark every processor ended (overall end of the underlying stream).
    pub(crate) fn end_all(&mut self) {
        self.ended.fill(true);
        for p in 0..self.buffers.len() {
            self.release_if_done(p);
        }
    }

    /// Free processor `p`'s buffer storage once its stream has ended and
    /// every parked event was pulled: nothing will ever be parked there
    /// again.
    #[inline]
    fn release_if_done(&mut self, p: usize) {
        if self.ended[p] && self.buffers[p].is_empty() {
            self.buffers[p] = VecDeque::new();
        }
    }

    pub(crate) fn pop(&mut self, proc: ProcId) -> Option<TraceEvent> {
        let p = proc.index();
        let ev = self.buffers[p].pop_front()?;
        self.buffered -= 1;
        self.stats.observe(proc, &ev);
        self.release_if_done(p);
        Some(ev)
    }

    /// Pop up to `max` already-parked events for `proc` into `out`: the
    /// buffer's (at most two) contiguous runs are copied as slices, then
    /// each event is observed by the statistics.  Deliberately does *not*
    /// trigger any upstream pumping — burst pulls take only what the serial
    /// pump sequence has already produced, so window-cap behavior is
    /// position-identical under either pull API.
    pub(crate) fn pop_burst(
        &mut self,
        proc: ProcId,
        out: &mut Vec<TraceEvent>,
        max: usize,
    ) -> usize {
        let p = proc.index();
        let buf = &mut self.buffers[p];
        let take = buf.len().min(max);
        if take == 0 {
            return 0;
        }
        let (front, back) = buf.as_slices();
        let split = take.min(front.len());
        for run in [&front[..split], &back[..take - split]] {
            out.extend_from_slice(run);
            for ev in run {
                self.stats.observe(proc, ev);
            }
        }
        buf.drain(..take);
        self.buffered -= take;
        self.release_if_done(p);
        take
    }

    pub(crate) fn has_buffered(&self, proc: ProcId) -> bool {
        !self.buffers[proc.index()].is_empty()
    }

    pub(crate) fn is_ended(&self, proc: ProcId) -> bool {
        self.ended[proc.index()]
    }

    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    pub(crate) fn take_error(&mut self) -> Option<TraceError> {
        self.poisoned.take()
    }

    pub(crate) fn buffered_events(&self) -> usize {
        self.buffered
    }

    pub(crate) fn stats(&self) -> TraceStats {
        self.stats.snapshot()
    }
}

/// The demux viewed as an [`EventSink`]: what a [`FusedSource`] hands its
/// step generator each pump.
struct DemuxSink<'a>(&'a mut Demux);

impl EventSink for DemuxSink<'_> {
    fn event(&mut self, proc: ProcId, ev: TraceEvent) {
        self.0.push(proc, ev);
    }
    fn end_of_stream(&mut self, proc: ProcId) {
        self.0.end(proc);
    }
}

/// A resumable trace generator: the producer half of [`FusedSource`].
///
/// Each [`step`](StepGenerator::step) call emits a bounded batch of events
/// (typically one processor's slice of one phase) into the sink it is
/// handed and returns `true` while more remain.  The generator owns all of
/// its state — loop counters, RNG, a [`crate::builder::StepWriter`] — so
/// the consumer can interleave steps with event pulls on one thread.
///
/// Implementations must emit per-processor end-of-stream markers
/// ([`crate::builder::StepWriter::finish`]) when done, and must emit the
/// same event sequences regardless of how the calls are interleaved with
/// other work: two equally constructed generators stepped to completion
/// produce bit-identical streams.
pub trait StepGenerator: Send {
    /// Emit the next bounded batch into `sink`; `false` once the trace is
    /// complete (the final call emits the end-of-stream markers).  Not
    /// called again after returning `false`.
    fn step(&mut self, sink: &mut dyn EventSink) -> bool;
}

/// A [`TraceSource`] that runs its generator *inside* the consumer's pull
/// loop.
///
/// When the pulled processor's queue is empty, the source steps the
/// generator until that processor has an event (or its end marker).  No
/// thread, no channel, no batch copies: events go straight from the
/// generator's emission into the per-processor queues the consumer pops.
/// Peak memory is the skew between emission order and consumption order —
/// for the phase-structured SPLASH generators, a fraction of one phase —
/// guarded by the same window cap as every demultiplexing source.
///
/// This is the right source when producer and consumer share a core (every
/// experiment worker thread runs one simulation); [`ThreadedSource`]
/// remains for overlapping generation with simulation on a spare core and
/// for feeding recorders.
pub struct FusedSource {
    name: String,
    topology: Topology,
    generator: Option<Box<dyn StepGenerator>>,
    demux: Demux,
}

impl std::fmt::Debug for FusedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusedSource")
            .field("name", &self.name)
            .field("topology", &self.topology)
            .finish_non_exhaustive()
    }
}

impl FusedSource {
    /// Wrap a step generator as a pull source for `topology`.
    pub fn new(
        name: impl Into<String>,
        topology: Topology,
        generator: Box<dyn StepGenerator>,
    ) -> Self {
        FusedSource {
            name: name.into(),
            topology,
            generator: Some(generator),
            demux: Demux::new(topology),
        }
    }

    /// Replace the parked-event window cap (default
    /// [`default_window_cap`] for the source's topology).
    pub fn with_window_cap(mut self, cap: usize) -> Self {
        self.demux.set_window_cap(cap);
        self
    }

    /// Run the generator for one step.  Returns `false` once it (or the
    /// window cap) ended the stream.
    fn pump(&mut self) -> bool {
        let Some(generator) = &mut self.generator else {
            return false;
        };
        let more = generator.step(&mut DemuxSink(&mut self.demux));
        if !more {
            self.generator = None;
            self.demux.end_all();
        } else if self.demux.is_poisoned() {
            self.generator = None;
        }
        more && !self.demux.is_poisoned()
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
        loop {
            if let Some(ev) = self.demux.pop(proc) {
                return Some(ev);
            }
            if self.demux.is_ended(proc) || !self.pump() {
                return None;
            }
        }
    }

    fn exhausted(&mut self, proc: ProcId) -> bool {
        loop {
            if self.demux.has_buffered(proc) {
                return false;
            }
            if self.demux.is_ended(proc) || !self.pump() {
                return true;
            }
        }
    }

    /// Burst pull: pump only until `proc` has *a* first event (the same
    /// pump sequence one `next_event` performs), then take whatever the
    /// demux has already parked for it, up to `max`.
    fn next_burst(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        loop {
            let n = self.demux.pop_burst(proc, out, max);
            if n > 0 {
                return n;
            }
            if self.demux.is_ended(proc) || !self.pump() {
                return 0;
            }
        }
    }

    fn stats_so_far(&self) -> TraceStats {
        self.demux.stats()
    }

    fn buffered_events(&self) -> usize {
        self.demux.buffered_events()
    }

    fn take_error(&mut self) -> Option<TraceError> {
        self.demux.take_error()
    }
}

/// Events per channel batch: big enough to amortize channel synchronization,
/// small enough that a batch is a rounding error next to any real trace.
const BATCH_EVENTS: usize = 1024;
/// Batches the channel buffers before the producer blocks.  Bounded memory:
/// the producer can run at most `BATCH_BUFFER * BATCH_EVENTS` events ahead
/// of the consumer (plus whatever the consumer demultiplexes while waiting
/// for a specific processor's next event — itself bounded by the window
/// cap).
const BATCH_BUFFER: usize = 32;

/// What flows through a [`ThreadedSource`]'s channel: event batches,
/// interleaved with per-processor end-of-stream markers at the positions
/// the generator emitted them.
enum Chunk {
    Events(Vec<(u16, TraceEvent)>),
    EndOfStream(u16),
}

/// The producer half of [`ThreadedSource`]: an [`EventSink`] that ships
/// events to the consumer in bounded batches.
struct ChannelSink {
    tx: mpsc::SyncSender<Chunk>,
    buf: Vec<(u16, TraceEvent)>,
    /// Set once the consumer hung up; subsequent events are discarded so the
    /// generator can run to completion (cheap) instead of unwinding.
    dead: bool,
}

impl ChannelSink {
    fn new(tx: mpsc::SyncSender<Chunk>) -> Self {
        ChannelSink {
            tx,
            buf: Vec::with_capacity(BATCH_EVENTS),
            dead: false,
        }
    }

    fn flush(&mut self) {
        if self.dead || self.buf.is_empty() {
            return;
        }
        let batch = std::mem::replace(&mut self.buf, Vec::with_capacity(BATCH_EVENTS));
        if self.tx.send(Chunk::Events(batch)).is_err() {
            self.dead = true;
        }
    }
}

impl EventSink for ChannelSink {
    fn event(&mut self, proc: ProcId, ev: TraceEvent) {
        if self.dead {
            return;
        }
        self.buf.push((proc.0, ev));
        if self.buf.len() >= BATCH_EVENTS {
            self.flush();
        }
    }

    fn end_of_stream(&mut self, proc: ProcId) {
        // Order matters: the marker must arrive after every event the
        // processor emitted, so flush the pending batch first.
        self.flush();
        if !self.dead && self.tx.send(Chunk::EndOfStream(proc.0)).is_err() {
            self.dead = true;
        }
    }
}

/// A [`TraceSource`] produced by a generator running on its own thread.
///
/// The generator emits events in program order into a bounded channel; the
/// consumer demultiplexes them into small per-processor queues as the
/// simulator pulls.  Peak memory is the channel bound plus the skew between
/// emission order and consumption order (for the phase-structured SPLASH-2
/// generators: a fraction of one phase), *not* the trace size.
///
/// Per-processor end-of-stream markers flow through the channel at the
/// position the generator emitted them, so a processor's exhaustion is
/// observable as soon as its stream actually ends — the window between a
/// processor going quiet and the consumer learning it is gone for
/// well-formed generators, and hard-capped
/// ([`TraceError::StreamWindowExceeded`]) for everything else.
pub struct ThreadedSource {
    name: String,
    topology: Topology,
    rx: Option<mpsc::Receiver<Chunk>>,
    handle: Option<std::thread::JoinHandle<()>>,
    demux: Demux,
}

impl std::fmt::Debug for ThreadedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedSource")
            .field("name", &self.name)
            .field("topology", &self.topology)
            .finish_non_exhaustive()
    }
}

impl ThreadedSource {
    /// Run `generate` on a fresh thread and stream whatever it emits.
    ///
    /// `generate` receives an [`EventSink`] and must emit a well-formed
    /// trace for `topology` (same contract as emitting into a
    /// [`crate::TraceBuilder`]).  Dropping the source early is safe: the
    /// sink discards everything emitted after the hang-up and the thread
    /// exits once `generate` returns (generation is the cheap half of the
    /// pipeline — the remainder costs background CPU, never memory).
    pub fn spawn<F>(name: impl Into<String>, topology: Topology, generate: F) -> Self
    where
        F: FnOnce(&mut dyn EventSink) + Send + 'static,
    {
        let (tx, rx) = mpsc::sync_channel(BATCH_BUFFER);
        let handle = std::thread::Builder::new()
            .name("trace-generator".into())
            .spawn(move || {
                let mut sink = ChannelSink::new(tx);
                generate(&mut sink);
                sink.flush();
            })
            // dsm-lint: allow(panic-path, thread creation failure is an OS resource error not input-dependent; fail fast)
            .expect("spawn trace-generator thread");
        ThreadedSource {
            name: name.into(),
            topology,
            rx: Some(rx),
            handle: Some(handle),
            demux: Demux::new(topology),
        }
    }

    /// Replace the parked-event window cap (default
    /// [`default_window_cap`] for the source's topology).
    pub fn with_window_cap(mut self, cap: usize) -> Self {
        self.demux.set_window_cap(cap);
        self
    }

    /// Receive one chunk and demultiplex it.  Returns `false` at end of
    /// stream (or once the window cap poisoned the demux — the channel is
    /// then dropped so the producer winds down on its own).  Propagates a
    /// generator panic to the consumer.
    fn pump(&mut self) -> bool {
        let Some(rx) = &self.rx else { return false };
        match rx.recv() {
            Ok(chunk) => {
                match chunk {
                    Chunk::Events(batch) => {
                        for (p, ev) in batch {
                            self.demux.push(ProcId(p), ev);
                        }
                    }
                    Chunk::EndOfStream(p) => self.demux.end(ProcId(p)),
                }
                if self.demux.is_poisoned() {
                    // Hang up; the generator discards the rest and exits.
                    self.rx = None;
                    return false;
                }
                true
            }
            Err(_) => {
                self.rx = None;
                self.demux.end_all();
                if let Some(handle) = self.handle.take() {
                    if let Err(panic) = handle.join() {
                        std::panic::resume_unwind(panic);
                    }
                }
                false
            }
        }
    }
}

impl TraceSource for ThreadedSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn topology(&self) -> Topology {
        self.topology
    }

    fn next_event(&mut self, proc: ProcId) -> Option<TraceEvent> {
        loop {
            if let Some(ev) = self.demux.pop(proc) {
                return Some(ev);
            }
            if self.demux.is_ended(proc) || !self.pump() {
                return None;
            }
        }
    }

    fn exhausted(&mut self, proc: ProcId) -> bool {
        loop {
            if self.demux.has_buffered(proc) {
                return false;
            }
            if self.demux.is_ended(proc) || !self.pump() {
                return true;
            }
        }
    }

    /// Burst pull: receive chunks only until `proc` has a first event,
    /// then drain what the demux already parked for it (see
    /// [`FusedSource::next_burst`] — same contract, channel-fed).
    fn next_burst(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        loop {
            let n = self.demux.pop_burst(proc, out, max);
            if n > 0 {
                return n;
            }
            if self.demux.is_ended(proc) || !self.pump() {
                return 0;
            }
        }
    }

    fn stats_so_far(&self) -> TraceStats {
        self.demux.stats()
    }

    fn buffered_events(&self) -> usize {
        self.demux.buffered_events()
    }

    fn take_error(&mut self) -> Option<TraceError> {
        self.demux.take_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::GlobalAddr;
    use crate::builder::{StepWriter, TraceBuilder, TraceWriter};

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

    /// A step generator replaying the toy trace: one event per step, fair
    /// round-robin, end markers when each processor drains.
    struct ToySteps {
        trace: ProgramTrace,
        pos: Vec<usize>,
        next: usize,
    }

    impl ToySteps {
        fn new(trace: ProgramTrace) -> Self {
            let procs = trace.per_proc.len();
            ToySteps {
                trace,
                pos: vec![0; procs],
                next: 0,
            }
        }
    }

    impl StepGenerator for ToySteps {
        fn step(&mut self, sink: &mut dyn EventSink) -> bool {
            let procs = self.pos.len();
            for _ in 0..procs {
                let p = self.next;
                self.next = (self.next + 1) % procs;
                if let Some(ev) = self.trace.per_proc[p].get(self.pos[p]) {
                    sink.event(ProcId(p as u16), *ev);
                    self.pos[p] += 1;
                    if self.pos[p] == self.trace.per_proc[p].len() {
                        sink.end_of_stream(ProcId(p as u16));
                    }
                    return true;
                }
            }
            false
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
        let mut src = FusedSource::new("toy", topo, Box::new(ToySteps::new(trace.clone())));
        // Pull in an adversarial order: proc 1 fully first.
        let mut p1 = Vec::new();
        while let Some(ev) = src.next_event(ProcId(1)) {
            p1.push(ev);
        }
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
    fn fused_source_window_cap_poisons_instead_of_growing() {
        // A generator whose proc 0 emits forever while proc 1 stays silent:
        // pulling proc 1 must hit the cap and surface the error, not OOM.
        struct Endless(u64);
        impl StepGenerator for Endless {
            fn step(&mut self, sink: &mut dyn EventSink) -> bool {
                sink.event(ProcId(0), TraceEvent::read(GlobalAddr(self.0 * 64)));
                self.0 += 1;
                true
            }
        }
        let topo = Topology::new(2, 1);
        let mut src =
            FusedSource::new("endless", topo, Box::new(Endless(0))).with_window_cap(1_000);
        assert!(src.next_event(ProcId(1)).is_none());
        assert!(src.buffered_events() <= 1_000);
        match src.take_error() {
            Some(TraceError::StreamWindowExceeded { buffered, cap }) => {
                assert_eq!(cap, 1_000);
                assert!(buffered >= 1_000);
            }
            other => panic!("expected StreamWindowExceeded, got {other:?}"),
        }
        // Poisoned: everything reports exhausted.
        assert!(src.exhausted(ProcId(0)));
    }

    #[test]
    fn threaded_source_matches_materialized_trace() {
        let trace = toy_trace();
        let topo = trace.topology;
        let mut src = ThreadedSource::spawn("toy", topo, move |sink| {
            let mut w = TraceWriter::new(topo, sink).with_think_cycles(2);
            w.read(ProcId(0), GlobalAddr(0));
            w.barrier_all();
            w.write(ProcId(1), GlobalAddr(4096));
            w.lock(ProcId(1), 7);
            w.unlock(ProcId(1), 7);
            w.finish();
        });
        // Pull in an adversarial order: proc 1 fully first.
        let mut p1 = Vec::new();
        while let Some(ev) = src.next_event(ProcId(1)) {
            p1.push(ev);
        }
        let mut p0 = Vec::new();
        while let Some(ev) = src.next_event(ProcId(0)) {
            p0.push(ev);
        }
        assert_eq!(p0, trace.per_proc[0]);
        assert_eq!(p1, trace.per_proc[1]);
        assert!(src.exhausted(ProcId(0)) && src.exhausted(ProcId(1)));
        assert_eq!(src.stats_so_far(), trace.stats());
    }

    #[test]
    fn threaded_end_markers_bound_the_exhaustion_window() {
        // Proc 1 emits one event and ends; proc 0 keeps going for 100k
        // events.  With the marker flowing through the channel, draining
        // proc 1 and asking about its exhaustion must not pull proc 0's
        // stream through the demux.
        let topo = Topology::new(2, 1);
        let mut src = ThreadedSource::spawn("uneven", topo, move |sink| {
            let mut w = StepWriter::new(topo);
            w.read(sink, ProcId(1), GlobalAddr(0));
            sink.end_of_stream(ProcId(1));
            for i in 0..100_000u64 {
                w.read(sink, ProcId(0), GlobalAddr(i * 64));
            }
            sink.end_of_stream(ProcId(0));
        });
        assert!(src.next_event(ProcId(1)).is_some());
        assert!(src.next_event(ProcId(1)).is_none());
        assert!(src.exhausted(ProcId(1)));
        assert!(
            src.buffered_events() <= 2 * BATCH_EVENTS,
            "exhaustion query dragged {} events through the demux",
            src.buffered_events()
        );
        // The rest still streams intact.
        let mut got0 = 0usize;
        while src.next_event(ProcId(0)).is_some() {
            got0 += 1;
        }
        assert_eq!(got0, 100_000);
    }

    #[test]
    fn threaded_window_cap_poisons_instead_of_growing() {
        // No end marker for the quiet proc 1: the adversarial pull order
        // that used to buffer the whole stream now trips the cap.
        let topo = Topology::new(2, 1);
        let mut src = ThreadedSource::spawn("runaway", topo, move |sink| {
            let mut w = StepWriter::new(topo);
            for i in 0..1_000_000u64 {
                w.read(sink, ProcId(0), GlobalAddr(i * 64));
            }
        })
        .with_window_cap(10_000);
        assert!(src.next_event(ProcId(1)).is_none());
        assert!(src.buffered_events() <= 10_000);
        assert!(matches!(
            src.take_error(),
            Some(TraceError::StreamWindowExceeded { cap: 10_000, .. })
        ));
        assert!(src.exhausted(ProcId(0)));
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
    fn threaded_source_survives_early_drop() {
        let topo = Topology::new(1, 1);
        let mut src = ThreadedSource::spawn("big", topo, move |sink| {
            let mut w = TraceWriter::new(topo, sink);
            for i in 0..1_000_000u64 {
                w.read(ProcId(0), GlobalAddr(i * 64));
            }
        });
        // Consume a handful of events, then drop: the generator thread must
        // wind down on its own without blocking anything.
        for _ in 0..10 {
            assert!(src.next_event(ProcId(0)).is_some());
        }
        drop(src);
    }

    #[test]
    #[should_panic(expected = "generator exploded")]
    fn generator_panic_propagates_to_the_consumer() {
        let topo = Topology::new(1, 1);
        let mut src = ThreadedSource::spawn("bad", topo, move |sink| {
            let mut w = TraceWriter::new(topo, sink);
            w.read(ProcId(0), GlobalAddr(0));
            panic!("generator exploded");
        });
        while src.next_event(ProcId(0)).is_some() {}
    }
}
