//! Shared-memory address-space model and reference traces.
//!
//! The reproduced paper drives its simulated DSM cluster with the memory
//! references of SPLASH-2 applications.  In this reproduction the workloads
//! (crate `splash-workloads`) are re-implemented as *trace generators*: each
//! produces, for every simulated processor, a sequence of [`TraceEvent`]s —
//! shared-memory reads and writes, interleaved compute delays, and
//! barrier/lock synchronization — over a single global address space.
//!
//! This crate defines:
//!
//! * the address vocabulary ([`GlobalAddr`], [`BlockId`], [`PageId`]) and the
//!   cluster topology ([`Topology`], [`NodeId`], [`ProcId`]),
//! * the dense-index vocabulary ([`intern::PageInterner`],
//!   [`intern::PageIdx`], [`intern::BlockIdx`]) that flattens sparse page and
//!   block ids into contiguous array indices for the simulator's hot path,
//! * the trace representation ([`TraceEvent`], [`ProgramTrace`]) and its
//!   validation / summary statistics,
//! * the pull-based [`source::TraceSource`] abstraction the simulator
//!   drives, with materialized ([`source::TraceCursor`]), fused
//!   ([`source::FusedSource`], running a per-processor
//!   [`source::ProcGenerator`] inside the consumer's pull loop) and
//!   file-replayed ([`replay::ReplaySource`]) implementations,
//! * a seekless binary record/replay format ([`replay`]),
//! * a shared-segment allocator ([`layout::AddressSpace`]) and a
//!   [`builder::TraceBuilder`] that writes a well-formed trace by hand (a
//!   custom workload, a test).

pub mod access;
pub mod addr;
pub mod builder;
pub mod intern;
pub mod layout;
pub mod replay;
pub mod sharers;
pub mod source;
pub mod trace;

pub use access::{AccessKind, MemRef, TraceEvent};
pub use addr::{
    BlockId, DirectMap, Geometry, GlobalAddr, NodeId, PageId, ProcId, Topology, BLOCKS_PER_PAGE,
    BLOCK_SIZE, PAGE_SIZE,
};
pub use builder::TraceBuilder;
pub use intern::{BlockIdx, BlockRef, PageIdx, PageInterner, PageRef, Slab};
pub use layout::{AddressSpace, Segment};
pub use replay::{record, record_to_file, ReplaySource};
pub use sharers::SharerSet;
pub use source::{
    default_window_cap, FusedSource, ProcGenerator, TraceCursor, TraceSource, DEFAULT_WINDOW_CAP,
    WINDOW_CAP_PER_PROC,
};
pub use trace::{ProgramTrace, StatsAccumulator, TraceError, TraceStats, MAX_LOCK_ID};
