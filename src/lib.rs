//! `dsm-repro` — facade crate for the reproduction of
//! *"Comparing the Effectiveness of Fine-Grain Memory Caching against Page
//! Migration/Replication in Reducing Traffic in DSM Clusters"*
//! (Lai & Falsafi, SPAA 2000).
//!
//! This crate simply re-exports the workspace members so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`sim`] — discrete-time simulation primitives (cycles, queueing
//!   resources, deterministic RNG, statistics);
//! * [`trace`] — the global address-space model and shared-memory reference
//!   traces;
//! * [`node`] — the SMP node model (processor caches, miss classification,
//!   memory bus, page tables);
//! * [`protocol`] — DSM coherence mechanisms (directory, block cache,
//!   S-COMA page cache, interconnect);
//! * [`core`] — the systems under study (CC-NUMA, CC-NUMA+MigRep, R-NUMA,
//!   R-NUMA+MigRep), the [`RelocationPolicy`](core::RelocationPolicy) trait
//!   they implement, the [`System`](core::System) builder that composes
//!   them, and the cluster simulator;
//! * [`workloads`] — the seven SPLASH-2-like workload generators (Table 2);
//! * [`mod@bench`] — the [`Sweep`](bench::Sweep) harness (every figure and
//!   table is a one-point sweep over a preset) and the presets/report
//!   formatters behind every figure and table;
//! * [`service`] — the long-running sweep server (`serve` binary): a
//!   JSON-lines protocol over stdio/Unix sockets backed by a
//!   content-addressed result cache.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use dsm_bench as bench;
pub use dsm_core as core;
pub use dsm_protocol as protocol;
pub use mem_trace as trace;
pub use sim_engine as sim;
pub use smp_node as node;
pub use splash_workloads as workloads;
pub use sweep_service as service;

/// Convenience re-exports of the types most programs need.
pub mod prelude {
    pub use dsm_bench::{Axis, ExperimentScale, Metric, MetricSet, Sweep, SweepResult, SystemSet};
    pub use dsm_core::{
        BlockCaching, ClusterSimulator, CostModel, MachineConfig, MigRep, MigRepConfig,
        PageCaching, PageOp, PolicyStats, RelocationPolicy, SimResult, System, SystemBuilder,
        SystemConfig, SystemFeature, Thresholds,
    };
    pub use mem_trace::{
        FusedSource, Geometry, GlobalAddr, ProcGenerator, ProcId, ProgramTrace, ReplaySource,
        SharerSet, Topology, TraceBuilder, TraceError, TraceSource, BLOCK_SIZE, PAGE_SIZE,
    };
    pub use splash_workloads::{
        by_name, catalog, fused, CustomScale, Scale, Workload, WorkloadConfig,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired_up() {
        use crate::prelude::*;
        let cfg = System::cc_numa().build();
        assert_eq!(cfg.name, "CC-NUMA");
        assert_eq!(Topology::PAPER.total_procs(), 32);
        assert_eq!(catalog().len(), 7);
    }
}
