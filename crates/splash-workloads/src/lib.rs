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
//! Every generator is a **per-processor generator**
//! ([`Workload::generator`]): it produces any one processor's stream on
//! demand, a bounded slice at a time, without generating anything of the
//! other processors.  The generators share one phase engine: a phase is a
//! list of items per processor followed by a barrier, and the only coupling
//! between processors — the generator's one random stream, drawn in the
//! original program order — is resolved by a draw-only pass per phase that
//! records where each processor's slice starts in it.  Both trace
//! deliveries drive the same generator — materialized
//! ([`Workload::generate`]) and fused into the consumer's pull loop
//! ([`fused`]) — so they are bit-identical by construction.

pub mod barnes;
pub mod cholesky;
pub mod config;
pub mod fmm;
pub mod lu;
pub mod ocean;
mod program;
pub mod radix;
pub mod raytrace;
mod util;

pub use config::{CustomScale, Scale, WorkloadConfig};
pub use program::FILL_EVENTS;

use mem_trace::{FusedSource, ProcGenerator, ProgramTrace};

/// A workload that can generate a shared-memory reference trace.
///
/// Generators are *per-processor producers*: [`Workload::generator`]
/// returns a [`ProcGenerator`] that appends any processor's next events on
/// demand.  Both deliveries of a trace — materialized by
/// [`Workload::generate`] and fused by [`fused`] — drain that generator,
/// so they are bit-identical by construction.  A trace written by hand
/// needs no workload: build it with [`mem_trace::TraceBuilder`] and
/// simulate it as a materialized trace.
pub trait Workload: Send + Sync {
    /// Table 2 name (lowercase).
    fn name(&self) -> &'static str;
    /// One-line description (Table 2 "Problem" column).
    fn description(&self) -> &'static str;
    /// The paper's input parameters (Table 2 "Input Data Set" column).
    fn paper_input(&self) -> &'static str;
    /// The reduced input parameters used by default in this reproduction.
    fn reduced_input(&self) -> &'static str;
    /// Build the per-processor generator for `cfg`.
    fn generator(&self, cfg: &WorkloadConfig) -> Box<dyn ProcGenerator>;
    /// Generate the whole trace in memory: [`Workload::generator`] drained
    /// processor by processor.
    fn generate(&self, cfg: &WorkloadConfig) -> ProgramTrace {
        let mut generator = self.generator(cfg);
        let per_proc = cfg
            .topology
            .proc_ids()
            .map(|proc| {
                let mut events = Vec::new();
                while generator.fill(proc, &mut events) > 0 {}
                events
            })
            .collect();
        ProgramTrace::new(self.name(), cfg.topology, per_proc)
    }
}

/// Run `workload`'s per-processor generator *inside* the consumer's pull
/// loop: each processor's events are generated when that processor is
/// pulled, with no thread, no channel and nothing parked.
pub fn fused(workload: &dyn Workload, cfg: &WorkloadConfig) -> FusedSource {
    FusedSource::new(workload.name(), cfg.topology, workload.generator(cfg))
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
    use mem_trace::ProcId;

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
    fn fused_events_match_materialized_generation() {
        use mem_trace::TraceSource;
        let cfg = WorkloadConfig::reduced_for_tests();
        for w in catalog() {
            let trace = w.generate(&cfg);
            let mut src = fused(w.as_ref(), &cfg);
            assert_eq!(src.name(), w.name());
            for p in cfg.topology.proc_ids() {
                let mut got = Vec::with_capacity(trace.per_proc[p.index()].len());
                while let Some(ev) = src.next_event(p) {
                    got.push(ev);
                }
                assert_eq!(
                    got,
                    trace.per_proc[p.index()],
                    "{} fused stream diverged for {p:?}",
                    w.name()
                );
            }
            assert_eq!(
                src.stats_so_far(),
                trace.stats(),
                "{} fused stats diverged from batch stats",
                w.name()
            );
            assert!(src.take_error().is_none());
        }
    }

    #[test]
    fn end_markers_make_exhaustion_windows_free() {
        // A processor's stream is generated where it is pulled: fully
        // draining one processor and asking whether it is done generates
        // nothing of any other processor.
        use mem_trace::TraceSource;
        let cfg = WorkloadConfig::reduced_for_tests();
        for w in catalog() {
            let mut src = fused(w.as_ref(), &cfg);
            let p0 = ProcId(0);
            while src.next_event(p0).is_some() {}
            assert!(src.exhausted(p0));
            assert_eq!(src.buffered_events(), 0, "{} parked events", w.name());
            assert!(src.take_error().is_none());
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
