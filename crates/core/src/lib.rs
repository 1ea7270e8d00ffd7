//! `dsm-core` — the systems studied by Lai & Falsafi (SPAA 2000):
//! CC-NUMA, CC-NUMA with page migration/replication, R-NUMA, and the
//! R-NUMA+MigRep hybrid, together with the cluster simulator that runs
//! shared-memory traces through them.
//!
//! # Overview
//!
//! The paper compares two ways of attacking capacity/conflict remote-miss
//! traffic in a CC-NUMA cluster of SMPs:
//!
//! * **page migration/replication** (`CC-NUMA+MigRep`) — the home node of a
//!   page monitors per-node miss counters and either migrates the page to
//!   its dominant user or replicates a read-shared page into the readers'
//!   local memories;
//! * **fine-grain memory caching** (`R-NUMA`) — each node monitors the
//!   capacity/conflict refetches it performs on a remote page and, past a
//!   threshold, relocates the page into a local S-COMA page cache so that
//!   further misses are satisfied from local memory at block granularity.
//!
//! Each technique is a [`RelocationPolicy`] implementation; the simulator
//! core is policy-agnostic and drives whatever stack of policies the system
//! configuration prescribes.  Systems are composed with the [`System`]
//! builder; see the [`policy`] module for how to plug in a third-party
//! policy.
//!
//! # Quick start
//!
//! ```
//! use dsm_core::{ClusterSimulator, MachineConfig, System};
//! use mem_trace::{GlobalAddr, ProcId, TraceBuilder};
//!
//! // A toy trace: processor 4 (node 1) repeatedly reads two blocks that are
//! // homed on node 0 and conflict in both its processor cache and the
//! // CC-NUMA block cache, producing a stream of capacity/conflict remote
//! // misses that R-NUMA eliminates by relocating the two pages.
//! let machine = MachineConfig::PAPER;
//! let mut b = TraceBuilder::new("toy", machine.topology);
//! b.write(ProcId(0), GlobalAddr(0));
//! b.write(ProcId(0), GlobalAddr(64 * 1024));
//! b.barrier_all();
//! for _ in 0..1000 {
//!     b.read(ProcId(4), GlobalAddr(0));
//!     b.read(ProcId(4), GlobalAddr(64 * 1024)); // conflicting line
//! }
//! b.barrier_all();
//! let trace = b.build();
//!
//! let base = ClusterSimulator::new(machine, System::cc_numa().build()).run(&trace);
//! let rnuma = ClusterSimulator::new(machine, System::r_numa().build()).run(&trace);
//! assert!(rnuma.execution_time < base.execution_time);
//! assert!(rnuma.total_remote_misses() < base.total_remote_misses());
//! ```

pub mod builder;
pub mod config;
pub mod cost;
pub mod migrep;
pub mod node;
pub mod placement;
pub mod policy;
#[cfg(feature = "profile-counters")]
pub mod profile;
pub mod rnuma;
pub mod simulator;
pub mod stats;

pub use builder::{BlockCaching, MigRep, PageCaching, System, SystemBuilder, SystemFeature};
pub use config::{MachineConfig, MigRepConfig, SystemConfig};
pub use cost::{CostModel, Thresholds};
pub use migrep::MigRepEngine;
pub use placement::PagePlacement;
pub use policy::{PageOp, PolicyFactory, PolicyStats, RelocationPolicy};
pub use rnuma::RNumaEngine;
pub use simulator::ClusterSimulator;
pub use stats::{NodeStats, SimResult};
