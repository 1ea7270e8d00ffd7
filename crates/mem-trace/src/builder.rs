//! A builder for well-formed per-processor traces.
//!
//! [`TraceBuilder`] keeps barrier ids consistent across processors and
//! applies a configurable "compute cost per access", so a caller that
//! writes a trace by hand (a custom workload, a test) only says *which*
//! shared locations each processor touches.  [`TraceBuilder::build`]
//! returns the assembled [`ProgramTrace`].

use crate::access::TraceEvent;
use crate::addr::{GlobalAddr, ProcId, Topology};
use crate::trace::ProgramTrace;

/// Builds a [`ProgramTrace`] incrementally: barrier numbering, the
/// implicit think-cycle delay and one event vector per processor.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    name: String,
    topology: Topology,
    next_barrier: u32,
    /// Compute cycles automatically inserted before every access, modelling
    /// the non-shared work between shared references.
    think_cycles: u32,
    per_proc: Vec<Vec<TraceEvent>>,
}

impl TraceBuilder {
    /// Start building a trace for `topology`.
    pub fn new(name: impl Into<String>, topology: Topology) -> Self {
        TraceBuilder {
            name: name.into(),
            topology,
            next_barrier: 0,
            think_cycles: 0,
            per_proc: vec![Vec::new(); topology.total_procs()],
        }
    }

    /// Set the implicit compute delay inserted before each access.
    pub fn with_think_cycles(mut self, cycles: u32) -> Self {
        self.think_cycles = cycles;
        self
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
        for events in &mut self.per_proc {
            events.push(TraceEvent::Barrier(id));
        }
    }

    /// Number of barriers emitted so far.
    pub fn barriers_emitted(&self) -> u32 {
        self.next_barrier
    }

    /// Number of events emitted by `proc` so far.
    pub fn events_emitted(&self, proc: ProcId) -> usize {
        self.per_proc[proc.index()].len()
    }

    /// Finish and return the assembled trace.
    pub fn build(self) -> ProgramTrace {
        ProgramTrace::new(self.name, self.topology, self.per_proc)
    }

    fn emit(&mut self, proc: ProcId, ev: TraceEvent) {
        self.per_proc[proc.index()].push(ev);
    }

    fn pre_access(&mut self, proc: ProcId) {
        if self.think_cycles > 0 {
            self.emit(proc, TraceEvent::Compute(self.think_cycles));
        }
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
        b.barrier_all();
        b.write(ProcId(0), GlobalAddr(64));
        // Barriers and think-cycle computes count as emitted events.
        assert_eq!(b.events_emitted(ProcId(0)), 5);
        let trace = b.build();
        assert_eq!(
            trace.per_proc[0],
            vec![
                TraceEvent::Compute(7),
                TraceEvent::read(GlobalAddr(0)),
                TraceEvent::Barrier(0),
                TraceEvent::Compute(7),
                TraceEvent::write(GlobalAddr(64)),
            ]
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
}
