//! Discrete-time simulation primitives shared by every crate in the
//! `dsm-repro` workspace.
//!
//! The workspace reproduces the simulation study of Lai & Falsafi
//! (SPAA 2000), which compares page migration/replication against
//! fine-grain memory caching (R-NUMA) on a cluster of SMP nodes.  All the
//! higher-level crates (node model, DSM protocol, the systems under study)
//! express timing in terms of the small vocabulary defined here:
//!
//! * [`Cycles`] — processor clock cycles, the unit of every cost in the
//!   paper's Table 3.
//! * [`Resource`] — a FIFO-served shared resource (memory bus, network
//!   interface) that adds queueing delay when contended.
//! * [`ProcScheduler`] — the cluster simulator's O(log P) processor
//!   scheduler: a min-heap over `(clock, proc id)` with a deterministic
//!   proc-id tie-break.
//! * [`rng::SplitMix64`] — a small deterministic PRNG for seeding and
//!   randomized tests, so every run is exactly reproducible from a seed.
//! * [`stats::Histogram`] — fixed-bucket histograms.

pub mod cycles;
pub mod resource;
pub mod rng;
pub mod sched;
pub mod stats;

pub use cycles::Cycles;
pub use resource::{Resource, ResourceStats};
pub use rng::SplitMix64;
pub use sched::{sched_key, ProcScheduler};
pub use stats::Histogram;
