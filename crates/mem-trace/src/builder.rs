//! Convenience builders for emitting well-formed per-processor traces.
//!
//! Workload generators describe *which* shared locations each processor
//! touches; the emission machinery here keeps barrier ids consistent across
//! processors and applies a configurable "compute cost per access" so that
//! generators stay declarative.
//!
//! Two layers:
//!
//! * [`TraceWriter`] owns the emission state (barrier numbering,
//!   per-processor event counts, think cycles) and its sink — a set of
//!   in-memory vectors, or any other [`EventSink`]: the same generator code
//!   produces the same event sequences no matter where they go.
//! * [`TraceBuilder`] is the classic materializing front-end: a
//!   `TraceWriter` over per-processor vectors plus [`TraceBuilder::build`]
//!   returning a [`ProgramTrace`].

use crate::access::TraceEvent;
use crate::addr::{GlobalAddr, ProcId, Topology};
use crate::trace::ProgramTrace;

/// Receives the events a workload generator emits, in program order.
///
/// Implementations decide what "program order" becomes: `Vec<Vec<TraceEvent>>`
/// materializes per-processor vectors; other sinks can count, filter or
/// forward events as they are produced.
pub trait EventSink {
    /// Accept one event emitted by `proc`.
    fn event(&mut self, proc: ProcId, ev: TraceEvent);

    /// `proc` will emit nothing further (an explicit end-of-stream marker).
    ///
    /// Generators signal this as soon as a processor's stream is complete —
    /// [`TraceWriter::finish`] does it for every processor at once — so a
    /// consumer that sees processors interleaved can answer "is this
    /// processor done?" without waiting for the rest of every other stream.
    /// Sinks that do not care (the materializing vectors) ignore it.
    fn end_of_stream(&mut self, proc: ProcId) {
        let _ = proc;
    }
}

/// The materializing sink: one vector of events per processor, indexed by
/// `ProcId::index()`.
impl EventSink for Vec<Vec<TraceEvent>> {
    fn event(&mut self, proc: ProcId, ev: TraceEvent) {
        self[proc.index()].push(ev);
    }
}

impl<S: EventSink + ?Sized> EventSink for &mut S {
    fn event(&mut self, proc: ProcId, ev: TraceEvent) {
        (**self).event(proc, ev);
    }
    fn end_of_stream(&mut self, proc: ProcId) {
        (**self).end_of_stream(proc);
    }
}

/// Emits well-formed per-processor trace events into an owned [`EventSink`]:
/// barrier numbering, per-processor event counts and the implicit
/// think-cycle delay.
///
/// This is the generator-facing half of [`TraceBuilder`], generic over where
/// the events go so straight-line generator code can produce a
/// materialized [`ProgramTrace`] or feed any other sink from the same code
/// path.
#[derive(Debug, Clone)]
pub struct TraceWriter<S: EventSink> {
    topology: Topology,
    next_barrier: u32,
    emitted: Vec<usize>,
    /// Compute cycles automatically inserted before every access, modelling
    /// the non-shared work between shared references.
    think_cycles: u32,
    sink: S,
}

impl<S: EventSink> TraceWriter<S> {
    /// Start writing a trace for `topology` into `sink`.
    pub fn new(topology: Topology, sink: S) -> Self {
        TraceWriter {
            topology,
            next_barrier: 0,
            emitted: vec![0; topology.total_procs()],
            think_cycles: 0,
            sink,
        }
    }

    /// Set the implicit compute delay inserted before each access.
    pub fn with_think_cycles(mut self, cycles: u32) -> Self {
        self.think_cycles = cycles;
        self
    }

    /// The implicit compute delay inserted before each access.
    pub fn think_cycles(&self) -> u32 {
        self.think_cycles
    }

    /// The topology this trace targets.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Emit a shared-memory read by `proc`.
    pub fn read(&mut self, proc: ProcId, addr: GlobalAddr) {
        self.pre_access(proc);
        self.emit(proc, TraceEvent::read(addr));
    }

    /// Emit a shared-memory write by `proc`.
    pub fn write(&mut self, proc: ProcId, addr: GlobalAddr) {
        self.pre_access(proc);
        self.emit(proc, TraceEvent::write(addr));
    }

    /// Emit an explicit compute delay on `proc`.
    pub fn compute(&mut self, proc: ProcId, cycles: u32) {
        if cycles > 0 {
            self.emit(proc, TraceEvent::Compute(cycles));
        }
    }

    /// Emit a lock acquire on `proc`.
    pub fn lock(&mut self, proc: ProcId, lock: u32) {
        self.emit(proc, TraceEvent::Lock(lock));
    }

    /// Emit a lock release on `proc`.
    pub fn unlock(&mut self, proc: ProcId, lock: u32) {
        self.emit(proc, TraceEvent::Unlock(lock));
    }

    /// Emit a global barrier: every processor gets the same fresh barrier id.
    pub fn barrier_all(&mut self) {
        let id = self.next_barrier;
        self.next_barrier += 1;
        for p in 0..self.topology.total_procs() {
            self.emit(ProcId(p as u16), TraceEvent::Barrier(id));
        }
    }

    /// Mark every processor's stream complete (the generators end all
    /// processors together at their final barrier).  Call exactly once, at
    /// the end of emission.
    pub fn finish(&mut self) {
        for p in 0..self.topology.total_procs() {
            self.sink.end_of_stream(ProcId(p as u16));
        }
    }

    /// Number of barriers emitted so far.
    pub fn barriers_emitted(&self) -> u32 {
        self.next_barrier
    }

    /// Number of events emitted by `proc` so far.
    pub fn events_emitted(&self, proc: ProcId) -> usize {
        self.emitted[proc.index()]
    }

    /// Finish writing and recover the sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    fn emit(&mut self, proc: ProcId, ev: TraceEvent) {
        self.emitted[proc.index()] += 1;
        self.sink.event(proc, ev);
    }

    fn pre_access(&mut self, proc: ProcId) {
        if self.think_cycles > 0 {
            self.emit(proc, TraceEvent::Compute(self.think_cycles));
        }
    }
}

/// Builds a [`ProgramTrace`] incrementally (the in-memory sink).
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    name: String,
    writer: TraceWriter<Vec<Vec<TraceEvent>>>,
}

impl TraceBuilder {
    /// Start building a trace for `topology`.
    pub fn new(name: impl Into<String>, topology: Topology) -> Self {
        TraceBuilder {
            name: name.into(),
            writer: TraceWriter::new(topology, vec![Vec::new(); topology.total_procs()]),
        }
    }

    /// Set the implicit compute delay inserted before each access.
    pub fn with_think_cycles(mut self, cycles: u32) -> Self {
        self.writer = self.writer.with_think_cycles(cycles);
        self
    }

    /// The topology this trace targets.
    pub fn topology(&self) -> Topology {
        self.writer.topology()
    }

    /// Emit a shared-memory read by `proc`.
    pub fn read(&mut self, proc: ProcId, addr: GlobalAddr) {
        self.writer.read(proc, addr);
    }

    /// Emit a shared-memory write by `proc`.
    pub fn write(&mut self, proc: ProcId, addr: GlobalAddr) {
        self.writer.write(proc, addr);
    }

    /// Emit an explicit compute delay on `proc`.
    pub fn compute(&mut self, proc: ProcId, cycles: u32) {
        self.writer.compute(proc, cycles);
    }

    /// Emit a lock acquire on `proc`.
    pub fn lock(&mut self, proc: ProcId, lock: u32) {
        self.writer.lock(proc, lock);
    }

    /// Emit a lock release on `proc`.
    pub fn unlock(&mut self, proc: ProcId, lock: u32) {
        self.writer.unlock(proc, lock);
    }

    /// Emit a global barrier: every processor gets the same fresh barrier id.
    pub fn barrier_all(&mut self) {
        self.writer.barrier_all();
    }

    /// Number of barriers emitted so far.
    pub fn barriers_emitted(&self) -> u32 {
        self.writer.barriers_emitted()
    }

    /// Number of events emitted by `proc` so far.
    pub fn events_emitted(&self, proc: ProcId) -> usize {
        self.writer.events_emitted(proc)
    }

    /// Finish and return the assembled trace.
    pub fn build(self) -> ProgramTrace {
        let topology = self.writer.topology();
        ProgramTrace::new(self.name, topology, self.writer.into_sink())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::TraceEvent;

    #[test]
    fn builder_emits_per_proc_events() {
        let topo = Topology::new(2, 2);
        let mut b = TraceBuilder::new("t", topo);
        b.read(ProcId(0), GlobalAddr(0));
        b.write(ProcId(3), GlobalAddr(64));
        b.compute(ProcId(1), 500);
        b.barrier_all();
        let trace = b.build();
        assert_eq!(trace.per_proc[0].len(), 2); // read + barrier
        assert_eq!(trace.per_proc[1].len(), 2); // compute + barrier
        assert_eq!(trace.per_proc[2].len(), 1); // barrier only
        assert_eq!(trace.per_proc[3].len(), 2); // write + barrier
        assert!(trace.validate().is_ok());
    }

    #[test]
    fn think_cycles_inserted_before_accesses() {
        let topo = Topology::new(1, 1);
        let mut b = TraceBuilder::new("t", topo).with_think_cycles(7);
        b.read(ProcId(0), GlobalAddr(0));
        let trace = b.build();
        assert_eq!(
            trace.per_proc[0],
            vec![TraceEvent::Compute(7), TraceEvent::read(GlobalAddr(0))]
        );
    }

    #[test]
    fn zero_compute_is_skipped() {
        let topo = Topology::new(1, 1);
        let mut b = TraceBuilder::new("t", topo);
        b.compute(ProcId(0), 0);
        assert_eq!(b.events_emitted(ProcId(0)), 0);
    }

    #[test]
    fn barriers_have_increasing_ids_everywhere() {
        let topo = Topology::new(2, 1);
        let mut b = TraceBuilder::new("t", topo);
        b.barrier_all();
        b.barrier_all();
        assert_eq!(b.barriers_emitted(), 2);
        let trace = b.build();
        for events in &trace.per_proc {
            assert_eq!(
                events,
                &vec![TraceEvent::Barrier(0), TraceEvent::Barrier(1)]
            );
        }
    }

    #[test]
    fn locks_round_trip_through_validation() {
        let topo = Topology::new(1, 2);
        let mut b = TraceBuilder::new("t", topo);
        b.lock(ProcId(0), 9);
        b.write(ProcId(0), GlobalAddr(0));
        b.unlock(ProcId(0), 9);
        b.barrier_all();
        assert!(b.build().validate().is_ok());
    }

    #[test]
    fn writer_into_dyn_sink_matches_builder() {
        let topo = Topology::new(2, 1);
        let mut direct = TraceBuilder::new("t", topo).with_think_cycles(3);
        direct.read(ProcId(0), GlobalAddr(0));
        direct.barrier_all();
        direct.write(ProcId(1), GlobalAddr(64));
        let direct = direct.build();

        let mut vecs: Vec<Vec<TraceEvent>> = vec![Vec::new(); topo.total_procs()];
        {
            let sink: &mut dyn EventSink = &mut vecs;
            let mut w = TraceWriter::new(topo, sink).with_think_cycles(3);
            w.read(ProcId(0), GlobalAddr(0));
            w.barrier_all();
            w.write(ProcId(1), GlobalAddr(64));
            assert_eq!(w.events_emitted(ProcId(1)), 3); // barrier + think + write
        }
        assert_eq!(direct.per_proc, vecs);
    }

    #[test]
    fn end_of_stream_defaults_to_a_no_op() {
        struct CountingSink {
            events: usize,
            ends: Vec<u16>,
        }
        impl EventSink for CountingSink {
            fn event(&mut self, _proc: ProcId, _ev: TraceEvent) {
                self.events += 1;
            }
            fn end_of_stream(&mut self, proc: ProcId) {
                self.ends.push(proc.0);
            }
        }
        let topo = Topology::new(2, 1);
        let mut sink = CountingSink {
            events: 0,
            ends: Vec::new(),
        };
        let mut w = TraceWriter::new(topo, &mut sink);
        w.write(ProcId(0), GlobalAddr(0));
        w.finish();
        assert_eq!(sink.events, 1);
        assert_eq!(sink.ends, vec![0, 1]);
    }
}
