//! `dsm-bench` — the experiment harness that regenerates every table and
//! figure of the paper's evaluation (Section 6).
//!
//! Each figure/table has a dedicated binary (`fig5`, `fig6`, `fig7`, `fig8`,
//! `table1` … `table4`) plus `allexps`, which runs everything.  All binaries
//! accept `--paper` to run the original Table 2 problem sizes (much slower);
//! the default is the reduced scale, with the page cache and policy
//! thresholds scaled by the same factor as the working sets so that the
//! capacity relationships of the paper are preserved.
//!
//! Programmatic use goes through the [`Sweep`] builder.  A figure is a
//! one-point sweep over a preset [`SystemSet`] — one machine, the
//! preset's baseline and systems, the chosen workloads:
//!
//! ```no_run
//! use dsm_bench::{presets, ExperimentScale, Sweep};
//!
//! let set = presets::figure5(ExperimentScale::Reduced);
//! let result = Sweep::new(set.experiment)
//!     .system_set(set)
//!     .workloads(["lu"])
//!     .run();
//! print!("{}", dsm_bench::report::format_normalized_table(&result));
//! ```
//!
//! …and a parameter-space grid adds machine axes (cluster nodes,
//! processors per node, page size, block size), system axes (templates,
//! cost models, thresholds, relocation delays) and workloads — see the
//! [`sweep`] module docs.

pub mod cache_key;
pub mod cli;
pub mod json;
pub mod perf;
pub mod presets;
pub mod report;
pub mod sweep;

pub use cache_key::{point_key, CacheKey, KeyHasher, KEY_FORMAT_VERSION};
pub use cli::{CliError, Options};
pub use perf::{PerfJob, PerfReport};
pub use presets::{ExperimentScale, SystemSet};
pub use report::{format_normalized_table, format_sweep_points, format_table4};
pub use sweep::{
    Axis, AxisValues, BaselinePoint, Metric, MetricSet, ParamPoint, ParamSpace, PointResult, Sweep,
    SweepEvent, SweepResult,
};
