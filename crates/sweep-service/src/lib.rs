//! `sweep-service` — a long-running sweep server with a content-addressed
//! result cache.
//!
//! The experiment binaries regenerate one figure per process; parameter
//! studies re-simulate every point on every invocation.  This crate turns
//! the sweep engine ([`dsm_bench::Sweep`]) into a *service*: a `serve`
//! process accepts sweep requests as JSON lines (over stdio or a Unix
//! domain socket), streams each point's result the moment its simulation
//! completes, and memoizes every completed job in a [`cache::ResultCache`]
//! keyed by the job's content address ([`dsm_bench::CacheKey`] — a stable
//! digest of workload + scale, machine geometry, system configuration,
//! cost model and thresholds).  Simulation is deterministic, so a cache
//! hit is bit-identical to a fresh run; backed by a cache file, hits
//! survive server restarts and are shared across clients.
//!
//! ```text
//! $ serve --socket /tmp/dsm.sock --cache results.cache &
//! $ serve --connect /tmp/dsm.sock --request \
//!     '{"kind":"sweep","id":"g1","workloads":["lu"],"systems":["cc-numa","r-numa"],
//!       "nodes":[2,4],"page_bytes":[2048,4096]}'
//! {"kind":"baseline","id":"g1","index":0,"cached":false,...}
//! {"kind":"point","id":"g1","index":0,"cached":false,"normalized_time":1.27,...}
//! ...
//! {"kind":"sweep-done","id":"g1","points":8,"baselines":4,"cached":0,"simulated":12,...}
//! ```
//!
//! Re-submitting the same request — to the same server or to a restarted
//! one sharing the cache file — answers every point from the cache
//! (`"cached":true`, `"simulated":0`) with identical fingerprints, on the
//! request thread and in index order, without starting a worker thread.
//! See the repository README ("Sweep service") for the protocol reference.

pub mod cache;
pub mod catalog;
pub mod cli;
pub mod proto;
pub mod server;
pub mod service;

pub use cache::{CacheStats, ResultCache};
pub use cli::ServeOptions;
pub use proto::{Request, SweepSpec};
pub use server::{send_request, serve_stdio, serve_stream, serve_unix};
pub use service::{Action, SweepService};
