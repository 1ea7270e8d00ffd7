//! SPLASH-2-like shared-memory workload generators (Table 2 of the paper).
//!
//! The paper drives its simulated cluster with seven SPLASH-2 applications.
//! Porting the original C/PARMACS sources is out of scope for this
//! reproduction; instead each application is re-implemented as a *trace
//! generator* that reproduces the data layout, work distribution and sharing
//! structure the paper's analysis depends on:
//!
//! | Workload  | Paper input            | Property the paper relies on                                   |
//! |-----------|------------------------|----------------------------------------------------------------|
//! | barnes    | 16K particles          | read-shared tree cells (replication candidates), high R/W sharing of bodies |
//! | cholesky  | tk16.O                 | task-queue kernel with little reuse of relocated pages          |
//! | fmm       | 16K particles          | near-static partitioning → page migration opportunities         |
//! | lu        | 512x512, 16x16 blocks  | per-iteration read phase of the pivot panel → replication wins  |
//! | ocean     | 130x130 ocean          | block-partitioned stencil, boundary-only sharing                |
//! | radix     | 1M keys, radix 1024    | all-to-all permutation writes, large streaming working set      |
//! | raytrace  | car                    | large read-shared scene, work-stealing queue                    |
//!
//! Each generator supports the paper's Table 2 sizes ([`Scale::Paper`]),
//! the default [`Scale::Reduced`] (sizes scaled down so an entire figure
//! regenerates in seconds), and [`Scale::Custom`] — an arbitrary rational
//! multiple of the Table 2 data sets, opening problem sizes *past* the
//! paper's as a real experiment axis.  Because the paper's results are
//! ratios against perfect CC-NUMA on the same trace, the non-paper scales
//! preserve the comparisons; EXPERIMENTS.md reports both.
//!
//! Every generator is a **resumable step-function**
//! ([`Workload::stepper`]): each step emits one processor's slice of one
//! phase.  All three trace deliveries drive the same stepper — materialized
//! ([`Workload::generate`]), fused into the consumer's pull loop
//! ([`fused`]) and streamed through a generator thread
//! ([`stream_threaded`]) — so they are bit-identical by construction.

pub mod barnes;
pub mod cholesky;
pub mod config;
pub mod fmm;
pub mod lu;
pub mod ocean;
pub mod radix;
pub mod raytrace;
mod util;

pub use config::{CustomScale, Scale, WorkloadConfig};

use mem_trace::{
    EventSink, FusedSource, ProcId, ProgramTrace, StepGenerator, ThreadedSource, TraceEvent,
    TraceSource,
};

/// A workload that can generate a shared-memory reference trace.
///
/// Generators are *producers* built around a resumable step-function:
/// [`Workload::stepper`] returns a [`StepGenerator`] whose steps push the
/// trace, event by event in program order, into any [`EventSink`].
/// [`Workload::emit`] is required (for the Table 2 generators it is one
/// line: [`run_stepper`] over their stepper); the default `stepper` falls
/// back to materializing `emit`'s output and replaying it in fair chunks,
/// so a straight-line custom workload only implements `emit` and still
/// works through every pipeline.  All deliveries of a trace drive the same
/// emission code, so they are bit-identical by construction.
pub trait Workload: Send + Sync {
    /// Table 2 name (lowercase).
    fn name(&self) -> &'static str;
    /// One-line description (Table 2 "Problem" column).
    fn description(&self) -> &'static str;
    /// The paper's input parameters (Table 2 "Input Data Set" column).
    fn paper_input(&self) -> &'static str;
    /// The reduced input parameters used by default in this reproduction.
    fn reduced_input(&self) -> &'static str;
    /// Emit the trace into `sink`, event by event in program order
    /// (including the per-processor end-of-stream markers).
    fn emit(&self, cfg: &WorkloadConfig, sink: &mut dyn EventSink);
    /// Build the resumable generator for `cfg`.
    ///
    /// The default materializes [`Workload::emit`] up front and replays it
    /// in fair round-robin chunks — correct for any workload, but the
    /// bounded-memory property of the fused/threaded pipelines then only
    /// holds for traces that fit in memory anyway.  The seven Table 2
    /// generators all implement this directly (and derive `emit` from it
    /// via [`run_stepper`]).
    fn stepper(&self, cfg: &WorkloadConfig) -> Box<dyn StepGenerator> {
        let mut per_proc: Vec<Vec<TraceEvent>> = vec![Vec::new(); cfg.topology.total_procs()];
        self.emit(cfg, &mut per_proc);
        Box::new(ReplaySteps::new(per_proc))
    }
    /// Generate the whole trace in memory.
    fn generate(&self, cfg: &WorkloadConfig) -> ProgramTrace {
        let mut per_proc: Vec<Vec<TraceEvent>> = vec![Vec::new(); cfg.topology.total_procs()];
        self.emit(cfg, &mut per_proc);
        ProgramTrace::new(self.name(), cfg.topology, per_proc)
    }
}

/// Drive a step generator to completion against `sink` — how the Table 2
/// generators implement [`Workload::emit`] in terms of their stepper.
pub fn run_stepper(mut stepper: Box<dyn StepGenerator>, sink: &mut dyn EventSink) {
    while stepper.step(sink) {}
}

/// The fallback stepper behind the default [`Workload::stepper`]: replays
/// pre-materialized per-processor streams in fair round-robin chunks, with
/// end-of-stream markers as each stream drains.
struct ReplaySteps {
    per_proc: Vec<Vec<TraceEvent>>,
    pos: Vec<usize>,
    next: usize,
}

/// Events per processor per [`ReplaySteps`] step: small enough that the
/// demux window stays a rounding error, big enough to amortize dispatch.
const REPLAY_CHUNK: usize = 256;

impl ReplaySteps {
    fn new(per_proc: Vec<Vec<TraceEvent>>) -> Self {
        let procs = per_proc.len();
        ReplaySteps {
            per_proc,
            pos: vec![0; procs],
            next: 0,
        }
    }
}

impl StepGenerator for ReplaySteps {
    fn step(&mut self, sink: &mut dyn EventSink) -> bool {
        let procs = self.per_proc.len();
        for _ in 0..procs {
            let p = self.next;
            self.next = (self.next + 1) % procs;
            let events = &self.per_proc[p];
            if self.pos[p] >= events.len() {
                continue;
            }
            let end = (self.pos[p] + REPLAY_CHUNK).min(events.len());
            for ev in &events[self.pos[p]..end] {
                sink.event(ProcId(p as u16), *ev);
            }
            self.pos[p] = end;
            if end == events.len() {
                sink.end_of_stream(ProcId(p as u16));
            }
            return true;
        }
        false
    }
}

/// Run `workload`'s generator *inside* the consumer's pull loop: no thread,
/// no channel, no batch copies.  The right source when producer and
/// consumer share a core — the common experiment case where every worker
/// thread runs one simulation.
pub fn fused(workload: &dyn Workload, cfg: &WorkloadConfig) -> FusedSource {
    FusedSource::new(workload.name(), cfg.topology, workload.stepper(cfg))
}

/// Run `workload`'s generator on its own thread behind a bounded channel,
/// overlapping generation with the consumer's work when a spare core is
/// available.  Yields the exact event sequences [`fused`] and
/// [`Workload::generate`] would produce.
pub fn stream_threaded(workload: Box<dyn Workload>, cfg: WorkloadConfig) -> ThreadedSource {
    let name = workload.name();
    ThreadedSource::spawn(name, cfg.topology, move |sink| workload.emit(&cfg, sink))
}

/// Stream `workload`'s trace with bounded memory, picking the pipeline
/// automatically: [`fused`] when this process has no spare core to overlap
/// generation on, [`stream_threaded`] otherwise.  Either way the event
/// sequences (and any simulation driven by them) are bit-identical.
pub fn stream(workload: Box<dyn Workload>, cfg: WorkloadConfig) -> Box<dyn TraceSource + Send> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores > 1 {
        Box::new(stream_threaded(workload, cfg))
    } else {
        Box::new(fused(&*workload, &cfg))
    }
}

/// All seven workloads in Table 2 order.
pub fn catalog() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(barnes::Barnes),
        Box::new(cholesky::Cholesky),
        Box::new(fmm::Fmm),
        Box::new(lu::Lu),
        Box::new(ocean::Ocean),
        Box::new(radix::Radix),
        Box::new(raytrace::Raytrace),
    ]
}

/// Look up a workload by its Table 2 name.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    catalog().into_iter().find(|w| w.name() == name)
}

/// The Table 2 names, in order.
pub fn names() -> Vec<&'static str> {
    catalog().iter().map(|w| w.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table_2() {
        assert_eq!(
            names(),
            vec!["barnes", "cholesky", "fmm", "lu", "ocean", "radix", "raytrace"]
        );
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("lu").is_some());
        assert!(by_name("ocean").is_some());
        assert!(by_name("linpack").is_none());
    }

    #[test]
    fn every_workload_generates_a_valid_trace() {
        let cfg = WorkloadConfig::reduced_for_tests();
        for w in catalog() {
            let trace = w.generate(&cfg);
            assert_eq!(trace.name, w.name());
            trace
                .validate()
                .unwrap_or_else(|e| panic!("{} trace invalid: {e:?}", w.name()));
            let stats = trace.stats();
            assert!(
                stats.accesses > 1_000,
                "{} trace too small: {} accesses",
                w.name(),
                stats.accesses
            );
            assert!(
                stats.node_shared_pages > 0,
                "{} has no inter-node sharing",
                w.name()
            );
        }
    }

    #[test]
    fn test_scale_emits_fewer_accesses_than_reduced() {
        // The `reduced_for_tests` contract: genuinely smaller problems.
        let test_cfg = WorkloadConfig::reduced_for_tests();
        let reduced_cfg = WorkloadConfig::reduced();
        for w in catalog() {
            let small = w.generate(&test_cfg).stats().accesses;
            let reduced = w.generate(&reduced_cfg).stats().accesses;
            assert!(
                small < reduced,
                "{}: test scale ({small} accesses) not smaller than reduced ({reduced})",
                w.name()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadConfig::reduced_for_tests();
        for w in catalog() {
            let a = w.generate(&cfg).stats();
            let b = w.generate(&cfg).stats();
            assert_eq!(a, b, "{} generation not deterministic", w.name());
        }
    }

    #[test]
    fn fused_and_threaded_events_match_materialized_generation() {
        let cfg = WorkloadConfig::reduced_for_tests();
        for w in catalog() {
            let trace = w.generate(&cfg);
            let mut sources: Vec<(&str, Box<dyn TraceSource + Send>)> = vec![
                ("fused", Box::new(fused(w.as_ref(), &cfg))),
                (
                    "threaded",
                    Box::new(stream_threaded(by_name(w.name()).unwrap(), cfg)),
                ),
            ];
            for (mode, src) in &mut sources {
                assert_eq!(src.name(), w.name());
                for p in cfg.topology.proc_ids() {
                    let mut got = Vec::with_capacity(trace.per_proc[p.index()].len());
                    while let Some(ev) = src.next_event(p) {
                        got.push(ev);
                    }
                    assert_eq!(
                        got,
                        trace.per_proc[p.index()],
                        "{} {mode} stream diverged for {p:?}",
                        w.name()
                    );
                }
                assert_eq!(
                    src.stats_so_far(),
                    trace.stats(),
                    "{} {mode} incremental stats diverged from batch stats",
                    w.name()
                );
                assert!(src.take_error().is_none());
            }
        }
    }

    #[test]
    fn end_markers_make_exhaustion_windows_free() {
        // After a workload's final barrier every processor's end marker is
        // already emitted, so fully draining one processor parks at most
        // the phase skew — not the rest of every other stream.
        let cfg = WorkloadConfig::reduced_for_tests();
        let w = by_name("ocean").unwrap();
        let trace = w.generate(&cfg);
        let mut src = fused(w.as_ref(), &cfg);
        let p0 = ProcId(0);
        while src.next_event(p0).is_some() {}
        assert!(src.exhausted(p0));
        let parked = src.buffered_events();
        let total: usize = trace.per_proc.iter().map(Vec::len).sum();
        assert!(
            parked < total,
            "draining one proc buffered the whole trace ({parked} of {total})"
        );
        assert!(src.take_error().is_none());
    }

    #[test]
    fn default_stepper_fallback_replays_custom_workloads() {
        // A workload that only implements `emit` still works through the
        // fused pipeline via the materialize-and-replay fallback.
        struct EmitOnly;
        impl Workload for EmitOnly {
            fn name(&self) -> &'static str {
                "emit-only"
            }
            fn description(&self) -> &'static str {
                "fallback test"
            }
            fn paper_input(&self) -> &'static str {
                "-"
            }
            fn reduced_input(&self) -> &'static str {
                "-"
            }
            fn emit(&self, cfg: &WorkloadConfig, sink: &mut dyn EventSink) {
                let mut w = mem_trace::TraceWriter::new(cfg.topology, sink);
                for i in 0..1000u64 {
                    w.write(ProcId((i % 4) as u16), mem_trace::GlobalAddr(i * 64));
                }
                w.barrier_all();
                w.finish();
            }
        }
        let cfg = WorkloadConfig::reduced_for_tests().with_topology(mem_trace::Topology::new(2, 2));
        let trace = EmitOnly.generate(&cfg);
        let mut src = fused(&EmitOnly, &cfg);
        for p in cfg.topology.proc_ids() {
            let mut got = Vec::new();
            while let Some(ev) = src.next_event(p) {
                got.push(ev);
            }
            assert_eq!(got, trace.per_proc[p.index()]);
        }
    }

    #[test]
    fn descriptions_and_inputs_are_populated() {
        for w in catalog() {
            assert!(!w.description().is_empty());
            assert!(!w.paper_input().is_empty());
            assert!(!w.reduced_input().is_empty());
        }
    }
}
