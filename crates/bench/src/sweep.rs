//! The sweep-first experiment API: typed parameter-space grids.
//!
//! The paper's core result is a comparison *across a parameter space* —
//! traffic of CC-NUMA vs MigRep vs R-NUMA variants, normalized to perfect
//! CC-NUMA, under varying cost models and cache sizes.  [`Sweep`] makes
//! that space first-class: machine axes (cluster nodes, processors per
//! node, page size, block size), system axes (templates, cost models,
//! thresholds, relocation delays), the problem-scale axis
//! ([`Sweep::scales`] — reduced, paper, and custom multiples of the Table 2
//! data sets) and workload axes compose into a cartesian [`ParamSpace`] of
//! jobs.  Each job materializes its own [`MachineConfig`] and streams its
//! own deterministic trace — fused into the simulator's pull loop when the
//! workers saturate the cores, through a generator thread when spare cores
//! can overlap generation ([`SourceMode`]) — so a sweep point is exactly
//! the simulation a standalone [`ClusterSimulator`] run of that
//! configuration would be; the single-machine
//! [`Experiment`](crate::Experiment) builder is now a thin one-point sweep
//! over this engine.
//!
//! ```no_run
//! use dsm_bench::{Axis, ExperimentScale, Metric, Sweep};
//! use dsm_core::{MigRep, System};
//!
//! let result = Sweep::new("page/block grid")
//!     .cluster_nodes([8, 16, 96])
//!     .page_bytes([1024, 4096, 16384])
//!     .block_bytes([32, 64, 128])
//!     .system(System::cc_numa().with(MigRep::both()).build())
//!     .system(System::r_numa().build())
//!     .workloads(["radix"])
//!     .scale(ExperimentScale::Reduced)
//!     .run();
//! println!(
//!     "{}",
//!     dsm_bench::report::format_sweep_table(
//!         &result,
//!         Axis::PageBytes,
//!         Axis::BlockBytes,
//!         Metric::NormalizedTime
//!     )
//! );
//! ```
//!
//! Every execution time is normalized against a designated baseline system
//! (perfect CC-NUMA by default) simulated at the *same* machine point, cost
//! model and workload — the paper's normalization discipline, held pointwise
//! across the grid.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::cache_key::{point_key, CacheKey};
use crate::presets::{ExperimentScale, SystemSet};
use crate::runner::{available_cores, default_threads};
use dsm_core::{ClusterSimulator, CostModel, MachineConfig, SimResult, SystemConfig, Thresholds};
use dsm_protocol::MsgKind;
use mem_trace::{Geometry, ProgramTrace, ReplaySource, Topology, TraceSource};
use sim_engine::Cycles;
use splash_workloads::{by_name, WorkloadConfig};

/// The axes a sweep point is addressed by (see [`AxisValues::value`] and
/// [`SweepResult::group_by`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Cluster nodes.
    Nodes,
    /// Processors per node.
    ProcsPerNode,
    /// Page size in bytes.
    PageBytes,
    /// Cache-block size in bytes.
    BlockBytes,
    /// Cost-model label.
    Cost,
    /// Thresholds label.
    Thresholds,
    /// R-NUMA relocation delay.
    RelocationDelay,
    /// Problem scale (reduced / paper / custom multiples of Table 2).
    Scale,
    /// System display name.
    System,
    /// Workload name.
    Workload,
}

impl Axis {
    /// Every axis, in report-column order.
    pub const ALL: [Axis; 10] = [
        Axis::Nodes,
        Axis::ProcsPerNode,
        Axis::PageBytes,
        Axis::BlockBytes,
        Axis::Cost,
        Axis::Thresholds,
        Axis::RelocationDelay,
        Axis::Scale,
        Axis::System,
        Axis::Workload,
    ];

    /// Short lowercase name used in CSV/JSON columns.
    pub fn name(self) -> &'static str {
        match self {
            Axis::Nodes => "nodes",
            Axis::ProcsPerNode => "procs_per_node",
            Axis::PageBytes => "page_bytes",
            Axis::BlockBytes => "block_bytes",
            Axis::Cost => "cost",
            Axis::Thresholds => "thresholds",
            Axis::RelocationDelay => "relocation_delay",
            Axis::Scale => "scale",
            Axis::System => "system",
            Axis::Workload => "workload",
        }
    }
}

/// Where one sweep point sits on every axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisValues {
    /// Cluster nodes.
    pub nodes: u16,
    /// Processors per node.
    pub procs_per_node: u16,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Cache-block size in bytes.
    pub block_bytes: u64,
    /// Cost-model axis label (`"default"` when the axis is not swept).
    pub cost: String,
    /// Thresholds axis label (`"default"` when the axis is not swept).
    pub thresholds: String,
    /// Relocation-delay axis value (`None` when the axis is not swept).
    pub relocation_delay: Option<u64>,
    /// Problem-scale label (`"reduced"`, `"paper"`, `"x2"`, ...).
    pub scale: String,
    /// System display name.
    pub system: String,
    /// Workload name.
    pub workload: String,
}

impl AxisValues {
    /// This point's value on `axis`, rendered for grouping and reports.
    pub fn value(&self, axis: Axis) -> String {
        match axis {
            Axis::Nodes => self.nodes.to_string(),
            Axis::ProcsPerNode => self.procs_per_node.to_string(),
            Axis::PageBytes => self.page_bytes.to_string(),
            Axis::BlockBytes => self.block_bytes.to_string(),
            Axis::Cost => self.cost.clone(),
            Axis::Thresholds => self.thresholds.clone(),
            Axis::RelocationDelay => self
                .relocation_delay
                .map_or_else(|| "default".to_string(), |d| d.to_string()),
            Axis::Scale => self.scale.clone(),
            Axis::System => self.system.clone(),
            Axis::Workload => self.workload.clone(),
        }
    }
}

/// Where a sweep's traces come from.
#[derive(Debug, Clone)]
enum WorkloadSpec {
    /// A named Table 2 workload, stream-generated per job at the job
    /// machine's topology.
    Named(String),
    /// A pre-built trace supplied by the caller (fixed topology: the sweep
    /// must not sweep machine axes across it).
    Trace(ProgramTrace),
    /// A recorded trace file, re-opened and streamed per job.
    Replay(PathBuf),
}

impl WorkloadSpec {
    fn display_name(&self) -> String {
        match self {
            WorkloadSpec::Named(n) => n.clone(),
            WorkloadSpec::Trace(t) => t.name.clone(),
            WorkloadSpec::Replay(p) => ReplaySource::open(p)
                .unwrap_or_else(|e| panic!("cannot open replay file {p:?}: {e}"))
                .name()
                .to_string(),
        }
    }
}

/// One materialized job of a sweep: the machine, the system and the
/// workload it will simulate, plus its axis address.
#[derive(Debug, Clone)]
pub struct ParamPoint {
    /// The materialized machine (topology + geometry + L1).
    pub machine: MachineConfig,
    /// The materialized system configuration.
    pub system: SystemConfig,
    /// The problem scale named workloads generate at.
    pub scale: ExperimentScale,
    /// Axis address of this point.
    pub axes: AxisValues,
    /// Index into the sweep's workload list.
    workload_index: usize,
}

impl ParamPoint {
    /// The content address of this point: a stable digest of
    /// (workload + scale, machine, system) — see [`crate::cache_key`].
    /// Equal keys mean bit-identical simulation results, so a cache keyed
    /// by this value can substitute a stored [`SimResult`] for a run.
    pub fn cache_key(&self) -> CacheKey {
        point_key(&self.machine, &self.system, self.scale, &self.axes.workload)
    }
}

/// The cartesian product a sweep will run: baseline jobs (one per
/// machine-point x cost x workload) plus every compared point.
#[derive(Debug, Clone)]
pub struct ParamSpace {
    /// Baseline jobs, in enumeration order.
    pub baselines: Vec<ParamPoint>,
    /// Compared-system jobs, in enumeration order (machine axes outermost,
    /// then cost, workload, thresholds, relocation delay, system).
    pub points: Vec<ParamPoint>,
}

impl ParamSpace {
    /// Total simulations the sweep will run.
    pub fn len(&self) -> usize {
        self.baselines.len() + self.points.len()
    }

    /// `true` if the space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How a sweep job's named workloads are streamed into the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourceMode {
    /// Decide per run: fused when the worker threads already saturate the
    /// machine's cores (every core runs a simulation, so a generator
    /// thread would only contend), threaded when spare cores can overlap
    /// generation with simulation.  Either choice is bit-identical in
    /// results.
    #[default]
    Auto,
    /// Always run the generator inside the simulator's pull loop.
    Fused,
    /// Always run the generator on its own thread behind a channel.
    Threaded,
}

impl SourceMode {
    /// Resolve `Auto` against the worker-thread count actually running.
    fn use_fused(self, worker_threads: usize) -> bool {
        match self {
            SourceMode::Fused => true,
            SourceMode::Threaded => false,
            SourceMode::Auto => worker_threads >= available_cores().unwrap_or(1),
        }
    }
}

/// Builder for a parameter-space sweep.  See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Sweep {
    name: String,
    base: MachineConfig,
    nodes: Vec<u16>,
    procs_per_node: Vec<u16>,
    page_bytes: Vec<u64>,
    block_bytes: Vec<u64>,
    costs: Vec<(String, CostModel)>,
    thresholds: Vec<(String, Thresholds)>,
    relocation_delays: Vec<u64>,
    systems: Vec<SystemConfig>,
    baseline: SystemConfig,
    workloads: Vec<WorkloadSpec>,
    scales: Vec<ExperimentScale>,
    source_mode: SourceMode,
    threads: usize,
}

impl Sweep {
    /// Start a sweep named `name` on the paper's base machine, normalized
    /// against perfect CC-NUMA, over all seven Table 2 workloads at reduced
    /// scale.
    pub fn new(name: impl Into<String>) -> Self {
        Sweep {
            name: name.into(),
            base: MachineConfig::PAPER,
            nodes: Vec::new(),
            procs_per_node: Vec::new(),
            page_bytes: Vec::new(),
            block_bytes: Vec::new(),
            costs: Vec::new(),
            thresholds: Vec::new(),
            relocation_delays: Vec::new(),
            systems: Vec::new(),
            baseline: dsm_core::System::perfect_cc_numa().build(),
            workloads: splash_workloads::names()
                .into_iter()
                .map(|n| WorkloadSpec::Named(n.to_string()))
                .collect(),
            scales: vec![ExperimentScale::Reduced],
            source_mode: SourceMode::Auto,
            threads: default_threads(),
        }
    }

    /// The base machine axes default to (its L1 sizing also rides along).
    pub fn machine(mut self, base: MachineConfig) -> Self {
        self.base = base;
        self
    }

    /// Sweep the cluster-node count.
    pub fn cluster_nodes(mut self, nodes: impl IntoIterator<Item = u16>) -> Self {
        self.nodes = nodes.into_iter().collect();
        self
    }

    /// Sweep the processors-per-node count.
    pub fn procs_per_node(mut self, procs: impl IntoIterator<Item = u16>) -> Self {
        self.procs_per_node = procs.into_iter().collect();
        self
    }

    /// Sweep the page size (bytes, powers of two).
    pub fn page_bytes(mut self, sizes: impl IntoIterator<Item = u64>) -> Self {
        self.page_bytes = sizes.into_iter().collect();
        self
    }

    /// Sweep the cache-block size (bytes, powers of two).
    pub fn block_bytes(mut self, sizes: impl IntoIterator<Item = u64>) -> Self {
        self.block_bytes = sizes.into_iter().collect();
        self
    }

    /// Add a labeled cost-model axis value.  The cost axis applies to the
    /// baseline too, so each point normalizes against a baseline with the
    /// same costs (the paper's Figure 7 discipline).
    pub fn cost(mut self, label: impl Into<String>, costs: CostModel) -> Self {
        self.costs.push((label.into(), costs));
        self
    }

    /// Add a labeled thresholds axis value (applies to compared systems
    /// only; the baseline has no policies).
    pub fn thresholds(mut self, label: impl Into<String>, thresholds: Thresholds) -> Self {
        self.thresholds.push((label.into(), thresholds));
        self
    }

    /// Sweep the R-NUMA relocation delay (applies to compared systems only).
    pub fn relocation_delays(mut self, delays: impl IntoIterator<Item = u64>) -> Self {
        self.relocation_delays = delays.into_iter().collect();
        self
    }

    /// Add a compared system template.  Axis values (cost, thresholds,
    /// delay) are folded onto a clone of the template per point.
    pub fn system(mut self, system: SystemConfig) -> Self {
        self.systems.push(system);
        self
    }

    /// Add every system of a preset [`SystemSet`] (and adopt its baseline).
    pub fn system_set(mut self, set: SystemSet) -> Self {
        self.baseline = set.baseline;
        self.systems.extend(set.systems);
        self
    }

    /// Replace the normalization baseline system (default: perfect
    /// CC-NUMA).
    pub fn baseline(mut self, baseline: SystemConfig) -> Self {
        self.baseline = baseline;
        self
    }

    /// Restrict to the given Table 2 workloads.
    ///
    /// # Panics
    /// Panics on a name not in the catalog.
    pub fn workloads<I, S>(mut self, workloads: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.workloads = workloads
            .into_iter()
            .map(|w| {
                let name = w.into();
                assert!(by_name(&name).is_some(), "unknown workload {name}");
                WorkloadSpec::Named(name)
            })
            .collect();
        self
    }

    /// Run on pre-built traces instead of named workloads.  Traces carry a
    /// fixed topology, so the sweep must not also sweep machine axes.
    pub fn traces(mut self, traces: Vec<ProgramTrace>) -> Self {
        self.workloads = traces.into_iter().map(WorkloadSpec::Trace).collect();
        self
    }

    /// Add a recorded trace file as a workload (re-opened and streamed per
    /// job; see [`mem_trace::replay`]).  Call repeatedly for several files.
    /// The first call replaces any named-workload selection.
    pub fn replay(mut self, path: impl Into<PathBuf>) -> Self {
        if !matches!(self.workloads.first(), Some(WorkloadSpec::Replay(_))) {
            self.workloads.clear();
        }
        self.workloads.push(WorkloadSpec::Replay(path.into()));
        self
    }

    /// Problem/parameter scale for named workloads (a single value; use
    /// [`Sweep::scales`] to sweep the axis).
    pub fn scale(mut self, scale: ExperimentScale) -> Self {
        self.scales = vec![scale];
        self
    }

    /// Sweep the problem scale itself: each value generates its own traces
    /// (and normalizes against a baseline at the same scale), so reduced,
    /// paper and bigger-than-paper problems sit on one grid.
    pub fn scales(mut self, scales: impl IntoIterator<Item = ExperimentScale>) -> Self {
        self.scales = scales.into_iter().collect();
        assert!(
            !self.scales.is_empty(),
            "Sweep::scales needs at least one scale"
        );
        self
    }

    /// How named workloads are streamed (default [`SourceMode::Auto`]).
    pub fn source_mode(mut self, mode: SourceMode) -> Self {
        self.source_mode = mode;
        self
    }

    /// Number of simulation worker threads (at least 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Materialize the cartesian parameter space without running it.
    ///
    /// # Panics
    /// Panics if no compared system was added, or if machine axes are swept
    /// over fixed-topology (pre-built trace) workloads.
    pub fn space(&self) -> ParamSpace {
        assert!(
            !self.systems.is_empty(),
            "Sweep::system(..) must add at least one compared system"
        );
        let nodes = non_empty(&self.nodes, self.base.topology.nodes);
        let procs = non_empty(&self.procs_per_node, self.base.topology.procs_per_node);
        let pages = non_empty(&self.page_bytes, self.base.geometry.page_bytes);
        let blocks = non_empty(&self.block_bytes, self.base.geometry.block_bytes);
        let machine_points = nodes.len() * procs.len() * pages.len() * blocks.len();
        if machine_points > 1 {
            assert!(
                self.workloads
                    .iter()
                    .all(|w| !matches!(w, WorkloadSpec::Trace(_))),
                "machine axes cannot be swept over pre-built traces \
                 (their topology is fixed); use named workloads"
            );
        }
        // Option-shaped axes: `None` = inherit from the system template.
        let costs: Vec<Option<&(String, CostModel)>> = option_axis(&self.costs);
        let thresholds: Vec<Option<&(String, Thresholds)>> = option_axis(&self.thresholds);
        let delays: Vec<Option<u64>> = if self.relocation_delays.is_empty() {
            vec![None]
        } else {
            self.relocation_delays.iter().copied().map(Some).collect()
        };

        let workload_names: Vec<String> = self
            .workloads
            .iter()
            .map(WorkloadSpec::display_name)
            .collect();

        let mut space = ParamSpace {
            baselines: Vec::new(),
            points: Vec::new(),
        };
        for &n in &nodes {
            for &ppn in &procs {
                for &page in &pages {
                    for &block in &blocks {
                        let machine = self
                            .base
                            .with_topology(Topology::new(n, ppn))
                            .with_geometry(Geometry::new(page, block));
                        for cost in &costs {
                            for &scale in &self.scales {
                                for (w, workload) in workload_names.iter().enumerate() {
                                    let axes =
                                        |system: &SystemConfig, thr: &str, delay: Option<u64>| {
                                            AxisValues {
                                                nodes: n,
                                                procs_per_node: ppn,
                                                page_bytes: page,
                                                block_bytes: block,
                                                cost: cost.map_or_else(
                                                    || "default".to_string(),
                                                    |c| c.0.clone(),
                                                ),
                                                thresholds: thr.to_string(),
                                                relocation_delay: delay,
                                                scale: scale.label(),
                                                system: system.name.clone(),
                                                workload: workload.clone(),
                                            }
                                        };
                                    let mut baseline = self.baseline.clone();
                                    if let Some((_, c)) = cost {
                                        baseline = baseline.with_costs(*c);
                                    }
                                    space.baselines.push(ParamPoint {
                                        machine,
                                        axes: axes(&baseline, "default", None),
                                        system: baseline,
                                        scale,
                                        workload_index: w,
                                    });
                                    for thr in &thresholds {
                                        for &delay in &delays {
                                            for template in &self.systems {
                                                let mut system = template.clone();
                                                if let Some((_, c)) = cost {
                                                    system = system.with_costs(*c);
                                                }
                                                if let Some((_, t)) = thr {
                                                    system = system.with_thresholds(*t);
                                                }
                                                if let Some(d) = delay {
                                                    system.thresholds =
                                                        system.thresholds.with_relocation_delay(d);
                                                }
                                                space.points.push(ParamPoint {
                                                    machine,
                                                    axes: axes(
                                                        &system,
                                                        thr.map_or("default", |t| t.0.as_str()),
                                                        delay,
                                                    ),
                                                    system,
                                                    scale,
                                                    workload_index: w,
                                                });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        space
    }

    /// Run every job of [`Sweep::space`] (in parallel across worker
    /// threads; each job streams its own deterministic trace) and collect a
    /// [`SweepResult`] with every point normalized against its baseline.
    ///
    /// # Panics
    /// Panics on an invalid space (see [`Sweep::space`]), a worker-thread
    /// panic, an unreadable replay file, or a trace/machine topology
    /// mismatch.
    pub fn run(self) -> SweepResult {
        self.run_streaming(|_, _| None, |_| {})
    }

    /// [`Sweep::run`] with a result cache and incremental delivery — the
    /// engine behind the `sweep-service` crate.
    ///
    /// Jobs run in two phases, all baselines and then all points, so every
    /// point event can carry its normalized time the moment it is emitted.
    /// A phase starts on the calling thread: `lookup` is called exactly once
    /// per job with the job's [`ParamPoint`] and [`CacheKey`], and a
    /// `Some((result, fingerprint))` substitutes the stored result and its
    /// [`SimResult::fingerprint`] for the simulation (the caller guarantees
    /// both belong to the key — the key construction guarantees the result
    /// is then bit-identical to a fresh run).  `on_event` receives one
    /// [`SweepEvent`] per job: first every hit of the phase, on the calling
    /// thread and in index order; then the misses, in completion order, from
    /// `min(threads, misses)` worker threads serialized through a lock around
    /// the sink.  A phase where every job hit starts no thread.  A simulated
    /// result's fingerprint is computed once, by the worker that ran it.
    /// The points are looked up only after every baseline ran, so a point
    /// whose key equals a baseline's can be served the result the caller
    /// stored from that baseline's event.
    ///
    /// Cache lookups apply only to *named* workloads: pre-built traces and
    /// replay files contribute trace content the key does not capture, so
    /// their jobs always simulate.
    ///
    /// # Panics
    /// As [`Sweep::run`].
    pub fn run_streaming<L, F>(self, mut lookup: L, on_event: F) -> SweepResult
    where
        L: FnMut(&ParamPoint, CacheKey) -> Option<(SimResult, u64)>,
        F: FnMut(SweepEvent<'_>) + Send,
    {
        let mut space = self.space();
        let workloads = &self.workloads;
        let threads = self.threads.max(1);
        let source_mode = self.source_mode;

        let simulate = |point: &ParamPoint, cache_key: CacheKey, fused: bool| -> Outcome {
            // dsm-lint: allow(wall-clock, per-job elapsed_seconds is harness reporting; simulated time comes from the cost model)
            let start = std::time::Instant::now(); // dsm-lint: allow(det-taint, elapsed_seconds is harness telemetry on the outcome envelope; SimResult and its fingerprint are computed only from simulation state)
            let sim = ClusterSimulator::new(point.machine, point.system.clone());
            let result = match &workloads[point.workload_index] {
                WorkloadSpec::Named(name) => {
                    let workload =
                        // dsm-lint: allow(panic-path, unreachable from the service: build_sweep validates workload names against the catalog before run_streaming)
                        by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
                    let cfg = WorkloadConfig::at_scale(point.scale.workload_scale())
                        .with_topology(point.machine.topology);
                    if fused {
                        sim.run_source(&mut splash_workloads::fused(workload.as_ref(), &cfg))
                    } else {
                        sim.run_source(&mut splash_workloads::stream_threaded(workload, cfg))
                    }
                }
                WorkloadSpec::Trace(trace) => sim.run(trace),
                WorkloadSpec::Replay(path) => {
                    let mut replay = ReplaySource::open(path)
                        // dsm-lint: allow(panic-path, service requests cannot name Replay specs — build_sweep only accepts catalog workloads; replay paths are CLI operator input where fail-fast is wanted)
                        .unwrap_or_else(|e| panic!("cannot open replay file {path:?}: {e}"));
                    sim.run_source(&mut replay)
                }
            };
            let elapsed_seconds = start.elapsed().as_secs_f64();
            Outcome {
                fingerprint: result.fingerprint(),
                result,
                elapsed_seconds,
                cache_key,
                cached: false,
            }
        };

        // One pass per phase: hits answered and emitted here, then each
        // worker claims the next unclaimed miss.  Placement is by index, so
        // result order is deterministic regardless of thread interleaving.
        let mut sink = Mutex::new(on_event);
        let mut run_phase = |jobs: &[ParamPoint], normalize: &NormalizeFn<'_>| -> Vec<Outcome> {
            let mut slots: Vec<Option<Outcome>> = Vec::with_capacity(jobs.len());
            let mut misses: Vec<(usize, CacheKey)> = Vec::new();
            // No worker has run yet in this phase, and a panic in an earlier
            // phase's worker re-raised out of its thread::scope, so the
            // poison recovery is vacuous.
            let on_event = sink.get_mut().unwrap_or_else(PoisonError::into_inner);
            for (i, point) in jobs.iter().enumerate() {
                let cache_key = point.cache_key();
                let hit = if matches!(&workloads[point.workload_index], WorkloadSpec::Named(_)) {
                    // dsm-lint: allow(wall-clock, a hit's elapsed_seconds is its measured lookup time, harness reporting only)
                    let start = std::time::Instant::now(); // dsm-lint: allow(det-taint, elapsed_seconds is harness telemetry on the outcome envelope; the cached SimResult and fingerprint come from the lookup)
                    lookup(point, cache_key).map(|(result, fingerprint)| Outcome {
                        result,
                        fingerprint,
                        elapsed_seconds: start.elapsed().as_secs_f64(),
                        cache_key,
                        cached: true,
                    })
                } else {
                    None
                };
                match hit {
                    Some(outcome) => {
                        on_event(SweepEvent::new(i, point, &outcome, normalize(i, &outcome)));
                        slots.push(Some(outcome));
                    }
                    None => {
                        misses.push((i, cache_key));
                        slots.push(None);
                    }
                }
            }
            if !misses.is_empty() {
                let workers = threads.min(misses.len());
                // Fused (generator inside the pull loop) when the workers
                // saturate the cores; threaded (generator on its own thread)
                // when spare cores can overlap generation with simulation.
                // The results are bit-identical either way.
                let fused = source_mode.use_fused(workers);
                let (sink, table) = (&sink, Mutex::new(slots));
                let next = AtomicUsize::new(0);
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        scope.spawn(|| {
                            while let Some(&(i, cache_key)) =
                                misses.get(next.fetch_add(1, Ordering::Relaxed))
                            {
                                let outcome = simulate(&jobs[i], cache_key, fused);
                                let normalization = normalize(i, &outcome);
                                // A poisoned lock means a sibling worker
                                // panicked mid-event or mid-store.  Stop
                                // claiming jobs and return: thread::scope
                                // re-raises the sibling's panic at the join,
                                // which is the one we want to see — not a
                                // second "poisoned" panic on top of it.
                                {
                                    let Ok(mut on_event) = sink.lock() else {
                                        return;
                                    };
                                    (*on_event)(SweepEvent::new(
                                        i,
                                        &jobs[i],
                                        &outcome,
                                        normalization,
                                    ));
                                }
                                match table.lock() {
                                    Ok(mut table) => table[i] = Some(outcome),
                                    Err(_) => return,
                                }
                            }
                        });
                    }
                });
                // Reaching here means every worker returned normally (a
                // panic would have propagated out of thread::scope above),
                // so this poison recovery is vacuous too.
                slots = table.into_inner().unwrap_or_else(PoisonError::into_inner);
            }
            slots
                .into_iter()
                // dsm-lint: allow(panic-path, every index in 0..jobs.len() is either a hit stored above or a miss claimed and stored exactly once; a worker panic would have re-raised out of thread::scope before this line)
                .map(|o| o.expect("job result missing"))
                .collect()
        };

        // Pair each point against the space's baseline ParamPoints, which
        // carry the workload *index* — display names may collide (two
        // replay files recorded from the same generator), and axes alone
        // would then pick the wrong baseline.
        let baseline_at: Vec<usize> = space
            .points
            .iter()
            .map(|p| {
                space
                    .baselines
                    .iter()
                    .position(|b| shares_baseline_point(b, p))
                    // dsm-lint: allow(panic-path, SweepSpace construction creates a baseline for every point's machine/cost/workload; a miss is a construction bug not request-dependent)
                    .expect("every point has a baseline at its machine/cost/workload")
            })
            .collect();

        // Phase 1: every baseline.
        let baseline_outcomes = run_phase(&space.baselines, &|_, _| None);
        let baselines: Vec<BaselinePoint> = std::mem::take(&mut space.baselines)
            .into_iter()
            .zip(baseline_outcomes)
            .map(|(p, o)| BaselinePoint {
                axes: p.axes,
                result: o.result,
                elapsed_seconds: o.elapsed_seconds,
                cache_key: o.cache_key,
                cached: o.cached,
            })
            .collect();

        // Phase 2: every compared point, normalized against its (now
        // complete) baseline at event time.
        let normalize = |i: usize, o: &Outcome| -> Option<(Cycles, f64)> {
            let baseline = &baselines[baseline_at[i]].result;
            Some((
                baseline.execution_time,
                o.result.normalized_against(baseline),
            ))
        };
        let point_outcomes = run_phase(&space.points, &normalize);
        let points = space
            .points
            .into_iter()
            .zip(point_outcomes)
            .enumerate()
            .map(|(i, (p, o))| {
                let baseline = &baselines[baseline_at[i]].result;
                PointResult {
                    axes: p.axes,
                    normalized_time: o.result.normalized_against(baseline),
                    baseline_time: baseline.execution_time,
                    result: o.result,
                    elapsed_seconds: o.elapsed_seconds,
                    cache_key: o.cache_key,
                    cached: o.cached,
                }
            })
            .collect();

        SweepResult {
            name: self.name,
            baseline_system: self.baseline.name,
            baselines,
            points,
        }
    }
}

/// Per-job normalization hook for `run_streaming`'s phases: yields the
/// baseline (execution time, normalized time) for compared points, `None`
/// for baseline jobs.
type NormalizeFn<'a> = dyn Fn(usize, &Outcome) -> Option<(Cycles, f64)> + Sync + 'a;

/// What one job produced, however it was satisfied.
#[derive(Debug)]
struct Outcome {
    result: SimResult,
    /// `result.fingerprint()`: computed once by the worker that simulated
    /// the job, or carried from the cache entry that served it.
    fingerprint: u64,
    elapsed_seconds: f64,
    cache_key: CacheKey,
    cached: bool,
}

/// One completed job, delivered incrementally by [`Sweep::run_streaming`].
#[derive(Debug, Clone, Copy)]
pub enum SweepEvent<'a> {
    /// A baseline job completed.
    Baseline {
        /// Index into [`ParamSpace::baselines`] / [`SweepResult::baselines`].
        index: usize,
        /// The job that completed.
        point: &'a ParamPoint,
        /// The job's content address.
        cache_key: CacheKey,
        /// The simulation result.
        result: &'a SimResult,
        /// `result.fingerprint()`, computed once per simulated result or
        /// carried from the cache entry that served it.
        fingerprint: u64,
        /// Wall-clock seconds the job took (the lookup time when cached).
        elapsed_seconds: f64,
        /// `true` if the result came from the cache lookup, not a run.
        cached: bool,
    },
    /// A compared point completed (baselines all precede points, so its
    /// normalization is final).
    Point {
        /// Index into [`ParamSpace::points`] / [`SweepResult::points`].
        index: usize,
        /// The job that completed.
        point: &'a ParamPoint,
        /// The job's content address.
        cache_key: CacheKey,
        /// The simulation result.
        result: &'a SimResult,
        /// `result.fingerprint()`, computed once per simulated result or
        /// carried from the cache entry that served it.
        fingerprint: u64,
        /// Execution time of the matching baseline job.
        baseline_time: Cycles,
        /// `result.execution_time / baseline_time`.
        normalized_time: f64,
        /// Wall-clock seconds the job took (the lookup time when cached).
        elapsed_seconds: f64,
        /// `true` if the result came from the cache lookup, not a run.
        cached: bool,
    },
}

impl<'a> SweepEvent<'a> {
    fn new(
        index: usize,
        point: &'a ParamPoint,
        outcome: &'a Outcome,
        normalization: Option<(Cycles, f64)>,
    ) -> Self {
        match normalization {
            None => SweepEvent::Baseline {
                index,
                point,
                cache_key: outcome.cache_key,
                result: &outcome.result,
                fingerprint: outcome.fingerprint,
                elapsed_seconds: outcome.elapsed_seconds,
                cached: outcome.cached,
            },
            Some((baseline_time, normalized_time)) => SweepEvent::Point {
                index,
                point,
                cache_key: outcome.cache_key,
                result: &outcome.result,
                fingerprint: outcome.fingerprint,
                baseline_time,
                normalized_time,
                elapsed_seconds: outcome.elapsed_seconds,
                cached: outcome.cached,
            },
        }
    }

    /// The completed job's content address.
    pub fn cache_key(&self) -> CacheKey {
        match self {
            SweepEvent::Baseline { cache_key, .. } | SweepEvent::Point { cache_key, .. } => {
                *cache_key
            }
        }
    }

    /// The completed job's result.
    pub fn result(&self) -> &'a SimResult {
        match self {
            SweepEvent::Baseline { result, .. } | SweepEvent::Point { result, .. } => result,
        }
    }

    /// The completed job's [`SimResult::fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        match self {
            SweepEvent::Baseline { fingerprint, .. } | SweepEvent::Point { fingerprint, .. } => {
                *fingerprint
            }
        }
    }

    /// `true` if the job was served from cache.
    pub fn cached(&self) -> bool {
        match self {
            SweepEvent::Baseline { cached, .. } | SweepEvent::Point { cached, .. } => *cached,
        }
    }
}

/// `true` if `point` normalizes against `baseline`: same machine point,
/// cost label, problem scale, and the same workload *by index* (display
/// names may collide).
fn shares_baseline_point(baseline: &ParamPoint, point: &ParamPoint) -> bool {
    baseline.workload_index == point.workload_index
        && baseline.axes.nodes == point.axes.nodes
        && baseline.axes.procs_per_node == point.axes.procs_per_node
        && baseline.axes.page_bytes == point.axes.page_bytes
        && baseline.axes.block_bytes == point.axes.block_bytes
        && baseline.axes.cost == point.axes.cost
        && baseline.axes.scale == point.axes.scale
}

fn non_empty<T: Copy>(axis: &[T], default: T) -> Vec<T> {
    if axis.is_empty() {
        vec![default]
    } else {
        axis.to_vec()
    }
}

fn option_axis<T>(axis: &[T]) -> Vec<Option<&T>> {
    if axis.is_empty() {
        vec![None]
    } else {
        axis.iter().map(Some).collect()
    }
}

/// One simulated sweep point with its normalization.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Axis address.
    pub axes: AxisValues,
    /// The full simulation result (per-node counters, traffic matrix).
    pub result: SimResult,
    /// Execution time of the matching baseline job.
    pub baseline_time: Cycles,
    /// `result.execution_time / baseline_time` — the paper's normalized
    /// execution time at this point.
    pub normalized_time: f64,
    /// Wall-clock seconds the job took (perf trajectory; never feeds
    /// simulation results).
    pub elapsed_seconds: f64,
    /// The point's content address (see [`ParamPoint::cache_key`]) —
    /// joinable with the sweep service's cache and `cache-stats` output.
    pub cache_key: CacheKey,
    /// `true` if the result was served from a [`Sweep::run_streaming`]
    /// cache lookup instead of a simulation.
    pub cached: bool,
}

impl PointResult {
    /// The point's metric bundle (see [`MetricSet`]).
    pub fn metrics(&self) -> MetricSet {
        MetricSet::of(&self.result, self.normalized_time)
    }
}

/// One simulated baseline job.
#[derive(Debug, Clone)]
pub struct BaselinePoint {
    /// Axis address (system = the baseline system; thresholds/delay axes
    /// are `"default"`/`None`, as the baseline has no policies).
    pub axes: AxisValues,
    /// The full simulation result.
    pub result: SimResult,
    /// Wall-clock seconds the job took.
    pub elapsed_seconds: f64,
    /// The baseline job's content address.
    pub cache_key: CacheKey,
    /// `true` if the result was served from a cache lookup.
    pub cached: bool,
}

/// The complete outcome of a sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Sweep name.
    pub name: String,
    /// Display name of the normalization baseline system.
    pub baseline_system: String,
    /// Baseline jobs, one per (machine point x cost x workload).
    pub baselines: Vec<BaselinePoint>,
    /// Every compared point, in [`ParamSpace`] enumeration order.
    pub points: Vec<PointResult>,
}

impl SweepResult {
    /// Group the points by their value on `axis`, preserving first-seen
    /// order of the values and point order within each group.
    pub fn group_by(&self, axis: Axis) -> Vec<(String, Vec<&PointResult>)> {
        let mut groups: Vec<(String, Vec<&PointResult>)> = Vec::new();
        for p in &self.points {
            let v = p.axes.value(axis);
            match groups.iter_mut().find(|(g, _)| *g == v) {
                Some((_, members)) => members.push(p),
                None => groups.push((v, vec![p])),
            }
        }
        groups
    }

    /// The distinct values of `axis` across the points, first-seen order.
    pub fn axis_values(&self, axis: Axis) -> Vec<String> {
        self.group_by(axis).into_iter().map(|(v, _)| v).collect()
    }

    /// Mean of `metric` over all points (0 for an empty sweep).
    pub fn mean_metric(&self, metric: Metric) -> f64 {
        mean(self.points.iter().map(|p| p.metrics().get(metric)))
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Scalar metrics a report can pull out of a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Execution time normalized against the point's baseline.
    NormalizedTime,
    /// Execution time in cycles.
    ExecutionTime,
    /// Remote misses per node.
    RemoteMissesPerNode,
    /// Capacity/conflict remote misses per node.
    RemoteCapacityMissesPerNode,
    /// Page migrations per node.
    MigrationsPerNode,
    /// Page replications per node.
    ReplicationsPerNode,
    /// R-NUMA relocations per node.
    RelocationsPerNode,
    /// Total interconnect messages.
    NetworkMessages,
    /// Total interconnect bytes.
    NetworkBytes,
    /// Interconnect bytes per simulated access (the paper's traffic
    /// currency, comparable across problem scales).
    BytesPerAccess,
}

impl Metric {
    /// Short lowercase name used in CSV/JSON columns.
    pub fn name(self) -> &'static str {
        match self {
            Metric::NormalizedTime => "normalized_time",
            Metric::ExecutionTime => "execution_time",
            Metric::RemoteMissesPerNode => "remote_misses_per_node",
            Metric::RemoteCapacityMissesPerNode => "remote_capacity_misses_per_node",
            Metric::MigrationsPerNode => "migrations_per_node",
            Metric::ReplicationsPerNode => "replications_per_node",
            Metric::RelocationsPerNode => "relocations_per_node",
            Metric::NetworkMessages => "network_messages",
            Metric::NetworkBytes => "network_bytes",
            Metric::BytesPerAccess => "bytes_per_access",
        }
    }
}

/// A point's metric bundle: the scalar metrics plus the per-kind traffic
/// breakdown (the paper's comparison is fundamentally about traffic).
#[derive(Debug, Clone)]
pub struct MetricSet {
    /// Normalized execution time.
    pub normalized_time: f64,
    /// Execution time in cycles.
    pub execution_time: u64,
    /// Simulated shared-memory accesses.
    pub accesses: u64,
    /// Remote misses per node.
    pub remote_misses_per_node: f64,
    /// Capacity/conflict remote misses per node.
    pub remote_capacity_misses_per_node: f64,
    /// Page migrations per node.
    pub migrations_per_node: f64,
    /// Page replications per node.
    pub replications_per_node: f64,
    /// R-NUMA relocations per node.
    pub relocations_per_node: f64,
    /// Total interconnect messages.
    pub network_messages: u64,
    /// Total interconnect bytes.
    pub network_bytes: u64,
    /// Per-kind traffic breakdown: `(kind, messages, bytes)`.
    pub traffic: Vec<(&'static str, u64, u64)>,
}

impl MetricSet {
    /// Extract the bundle from a result.
    pub fn of(result: &SimResult, normalized_time: f64) -> Self {
        const KIND_NAMES: [&str; 10] = [
            "read_request",
            "read_reply",
            "write_request",
            "write_reply",
            "invalidation",
            "invalidation_ack",
            "write_back",
            "owner_forward",
            "page_control",
            "page_data_block",
        ];
        MetricSet {
            normalized_time,
            execution_time: result.execution_time.raw(),
            accesses: result.accesses,
            remote_misses_per_node: result.per_node_remote_misses(),
            remote_capacity_misses_per_node: result.per_node_remote_capacity_misses(),
            migrations_per_node: result.per_node_migrations(),
            replications_per_node: result.per_node_replications(),
            relocations_per_node: result.per_node_relocations(),
            network_messages: result.traffic.total_messages(),
            network_bytes: result.traffic.total_bytes(),
            traffic: MsgKind::ALL
                .iter()
                .zip(KIND_NAMES)
                .map(|(k, name)| {
                    (
                        name,
                        result.traffic.messages_of(*k),
                        result.traffic.bytes_of(*k),
                    )
                })
                .collect(),
        }
    }

    /// The value of a scalar [`Metric`].
    pub fn get(&self, metric: Metric) -> f64 {
        match metric {
            Metric::NormalizedTime => self.normalized_time,
            Metric::ExecutionTime => self.execution_time as f64,
            Metric::RemoteMissesPerNode => self.remote_misses_per_node,
            Metric::RemoteCapacityMissesPerNode => self.remote_capacity_misses_per_node,
            Metric::MigrationsPerNode => self.migrations_per_node,
            Metric::ReplicationsPerNode => self.replications_per_node,
            Metric::RelocationsPerNode => self.relocations_per_node,
            Metric::NetworkMessages => self.network_messages as f64,
            Metric::NetworkBytes => self.network_bytes as f64,
            Metric::BytesPerAccess => {
                if self.accesses == 0 {
                    0.0
                } else {
                    self.network_bytes as f64 / self.accesses as f64
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::{MigRep, System};

    fn small_thresholds() -> Thresholds {
        Thresholds {
            migrep_threshold: 250,
            migrep_reset_interval: 8_000,
            rnuma_threshold: 8,
            rnuma_relocation_delay: 0,
        }
    }

    #[test]
    fn space_enumerates_the_cartesian_product() {
        let sweep = Sweep::new("space")
            .cluster_nodes([2, 4])
            .page_bytes([2048, 4096])
            .block_bytes([64, 128])
            .cost("base", CostModel::base())
            .cost("slow", CostModel::slow())
            .system(System::cc_numa().build())
            .system(System::r_numa().build())
            .workloads(["lu"]);
        let space = sweep.space();
        // machine points: 2 nodes x 2 pages x 2 blocks = 8; costs 2;
        // workloads 1 -> 16 baselines; x 2 systems -> 32 points.
        assert_eq!(space.baselines.len(), 16);
        assert_eq!(space.points.len(), 32);
        assert_eq!(space.len(), 48);
        assert!(!space.is_empty());
        // Geometry actually materializes per point.
        let geometries: std::collections::BTreeSet<(u64, u64)> = space
            .points
            .iter()
            .map(|p| {
                (
                    p.machine.geometry.page_bytes,
                    p.machine.geometry.block_bytes,
                )
            })
            .collect();
        assert_eq!(geometries.len(), 4);
        // The L1 line size follows the block-size axis.
        for p in &space.points {
            assert_eq!(p.machine.l1.block_bytes, p.axes.block_bytes);
        }
    }

    #[test]
    fn single_point_sweep_matches_a_direct_simulation() {
        let t = small_thresholds();
        let system = System::cc_numa().with(MigRep::both()).with(t).build();
        let result = Sweep::new("single")
            .system(system.clone())
            .workloads(["ocean"])
            .threads(2)
            .run();
        assert_eq!(result.points.len(), 1);
        assert_eq!(result.baselines.len(), 1);
        let trace = by_name("ocean")
            .unwrap()
            .generate(&WorkloadConfig::reduced());
        let direct = ClusterSimulator::new(MachineConfig::PAPER, system).run(&trace);
        assert_eq!(result.points[0].result, direct);
        assert!(result.points[0].normalized_time >= 0.99);
        assert_eq!(result.baseline_system, "Perfect-CC-NUMA");
    }

    #[test]
    fn group_by_covers_every_axis() {
        let result = Sweep::new("grid")
            .cluster_nodes([2, 4])
            .block_bytes([64, 128])
            .system(System::cc_numa().build())
            .workloads(["ocean"])
            .threads(8)
            .run();
        assert_eq!(result.points.len(), 4);
        assert_eq!(result.axis_values(Axis::Nodes), vec!["2", "4"]);
        assert_eq!(result.axis_values(Axis::BlockBytes), vec!["64", "128"]);
        assert_eq!(result.axis_values(Axis::Workload), vec!["ocean"]);
        for (value, members) in result.group_by(Axis::Nodes) {
            assert_eq!(members.len(), 2, "nodes={value}");
            for p in members {
                assert_eq!(p.axes.value(Axis::Nodes), value);
                assert_eq!(p.result.per_node.len(), p.axes.nodes as usize);
            }
        }
        assert!(result.mean_metric(Metric::NormalizedTime) > 0.0);
        // Block size scales per-message data bytes: the 128-byte points
        // move at least as many bytes per message as the 64-byte points.
        let by_block = result.group_by(Axis::BlockBytes);
        let bytes_of = |points: &Vec<&PointResult>| {
            mean(
                points
                    .iter()
                    .map(|p| p.metrics().get(Metric::BytesPerAccess)),
            )
        };
        assert!(bytes_of(&by_block[1].1) > 0.0);
        assert!(bytes_of(&by_block[0].1) > 0.0);
    }

    #[test]
    fn scale_axis_generates_distinct_problem_sizes() {
        use splash_workloads::CustomScale;
        let result = Sweep::new("scales")
            .system(System::cc_numa().build())
            .workloads(["radix"])
            .scales([
                ExperimentScale::Custom(CustomScale::new(1, 32)),
                ExperimentScale::Custom(CustomScale::new(1, 16)),
            ])
            .threads(4)
            .run();
        assert_eq!(result.baselines.len(), 2, "one baseline per scale point");
        assert_eq!(result.points.len(), 2);
        assert_eq!(result.axis_values(Axis::Scale), vec!["x1/32", "x1/16"]);
        // Bigger scale, bigger trace — the axis is live.
        assert!(result.points[1].result.accesses > result.points[0].result.accesses);
        // Each point normalizes against the baseline at its own scale.
        for p in &result.points {
            assert!(p.normalized_time >= 0.99, "{:?}", p.axes);
        }
        assert_ne!(
            result.points[0].baseline_time,
            result.points[1].baseline_time
        );
    }

    #[test]
    fn explicit_source_modes_are_bit_identical() {
        let run = |mode: SourceMode| {
            Sweep::new("mode parity")
                .system(System::cc_numa().build())
                .workloads(["ocean"])
                .source_mode(mode)
                .threads(2)
                .run()
        };
        let fused = run(SourceMode::Fused);
        let threaded = run(SourceMode::Threaded);
        assert_eq!(fused.points[0].result, threaded.points[0].result);
        assert_eq!(
            fused.baselines[0].result.fingerprint(),
            threaded.baselines[0].result.fingerprint()
        );
    }

    #[test]
    fn cost_axis_renormalizes_the_baseline() {
        let result = Sweep::new("costs")
            .cost("base", CostModel::base())
            .cost("far", CostModel::base().with_remote_latency_factor(4))
            .system(System::cc_numa().build())
            .workloads(["ocean"])
            .threads(4)
            .run();
        assert_eq!(result.baselines.len(), 2, "one baseline per cost point");
        assert_eq!(result.points.len(), 2);
        for p in &result.points {
            assert!(p.normalized_time >= 0.99, "{:?}", p.axes);
        }
        // The two points normalize against *different* baselines.
        assert_ne!(
            result.points[0].baseline_time,
            result.points[1].baseline_time
        );
    }

    #[test]
    fn metric_set_carries_the_traffic_breakdown() {
        let result = Sweep::new("metrics")
            .system(System::cc_numa().build())
            .workloads(["ocean"])
            .threads(2)
            .run();
        let m = result.points[0].metrics();
        assert_eq!(m.traffic.len(), 10);
        let total: u64 = m.traffic.iter().map(|(_, msgs, _)| msgs).sum();
        assert_eq!(total, m.network_messages);
        let bytes: u64 = m.traffic.iter().map(|(_, _, b)| b).sum();
        assert_eq!(bytes, m.network_bytes);
        assert!(m.get(Metric::BytesPerAccess) > 0.0);
        assert!(m.get(Metric::NetworkMessages) > 0.0);
    }

    /// Two baselines (ocean, lu) and four points (two systems each) on a
    /// 2x2 machine at 1/32 of the Table 2 data sets.
    fn tiny_sweep() -> Sweep {
        Sweep::new("tiny")
            .cluster_nodes([2])
            .procs_per_node([2])
            .system(System::cc_numa().build())
            .system(
                System::cc_numa()
                    .with(MigRep::both())
                    .with(small_thresholds())
                    .build(),
            )
            .workloads(["ocean", "lu"])
            .scale(ExperimentScale::Custom(splash_workloads::CustomScale::new(
                1, 32,
            )))
            .threads(2)
    }

    /// What one event said: (is a point, index, cached, fingerprint, on the
    /// calling thread).
    type Seen = (bool, usize, bool, u64, bool);

    /// Run `tiny_sweep` against a lookup that serves the cold result of
    /// every job `serve` accepts as `(is a point, index)`.  Returns the
    /// result, the number of lookups and every event in arrival order.
    fn rerun(
        cold: &SweepResult,
        serve: impl Fn(bool, usize) -> bool,
    ) -> (SweepResult, usize, Vec<Seen>) {
        let mut stored = std::collections::BTreeMap::new();
        for (i, b) in cold.baselines.iter().enumerate() {
            if serve(false, i) {
                stored.insert(b.cache_key, (b.result.clone(), b.result.fingerprint()));
            }
        }
        for (i, p) in cold.points.iter().enumerate() {
            if serve(true, i) {
                stored.insert(p.cache_key, (p.result.clone(), p.result.fingerprint()));
            }
        }
        let caller = std::thread::current().id();
        let mut lookups = 0;
        let mut seen = Vec::new();
        let result = tiny_sweep().run_streaming(
            |_, key| {
                lookups += 1;
                stored.get(&key).cloned()
            },
            |e| {
                let (point, index) = match e {
                    SweepEvent::Baseline { index, .. } => (false, index),
                    SweepEvent::Point { index, .. } => (true, index),
                };
                let here = std::thread::current().id() == caller;
                seen.push((point, index, e.cached(), e.fingerprint(), here));
            },
        );
        (result, lookups, seen)
    }

    fn assert_same_results(cold: &SweepResult, warm: &SweepResult) {
        for (c, w) in cold.baselines.iter().zip(&warm.baselines) {
            assert_eq!((c.cache_key, &c.result), (w.cache_key, &w.result));
        }
        for (c, w) in cold.points.iter().zip(&warm.points) {
            assert_eq!((c.cache_key, &c.result), (w.cache_key, &w.result));
            assert_eq!(c.normalized_time, w.normalized_time);
        }
    }

    fn cold_fingerprint(cold: &SweepResult, point: bool, index: usize) -> u64 {
        if point {
            cold.points[index].result.fingerprint()
        } else {
            cold.baselines[index].result.fingerprint()
        }
    }

    #[test]
    fn cached_jobs_are_answered_on_the_calling_thread_in_index_order() {
        let cold = tiny_sweep().run();
        assert_eq!((cold.baselines.len(), cold.points.len()), (2, 4));
        let (warm, lookups, seen) = rerun(&cold, |_, _| true);
        assert_eq!(lookups, 6, "exactly one lookup per job");
        let order: Vec<(bool, usize)> = seen.iter().map(|s| (s.0, s.1)).collect();
        assert_eq!(
            order,
            [
                (false, 0),
                (false, 1),
                (true, 0),
                (true, 1),
                (true, 2),
                (true, 3)
            ],
            "baselines, then points, each in index order"
        );
        for &(point, index, cached, fingerprint, here) in &seen {
            assert!(cached, "{point} {index}");
            assert!(here, "event {point} {index} emitted off the calling thread");
            assert_eq!(fingerprint, cold_fingerprint(&cold, point, index));
        }
        assert!(warm.baselines.iter().all(|b| b.cached));
        assert!(warm.points.iter().all(|p| p.cached));
        assert_same_results(&cold, &warm);
    }

    #[test]
    fn half_cached_phases_emit_their_hits_before_their_misses() {
        let cold = tiny_sweep().run();
        // Serve baseline 1 and points 0 and 3; baseline 0 and points 1
        // and 2 simulate.
        let served = |point: bool, index: usize| {
            if point {
                index == 0 || index == 3
            } else {
                index == 1
            }
        };
        let (warm, lookups, seen) = rerun(&cold, served);
        assert_eq!(lookups, 6, "exactly one lookup per job");
        assert_eq!(seen.len(), 6);
        let (baselines, points) = seen.split_at(2);
        assert!(baselines.iter().all(|s| !s.0) && points.iter().all(|s| s.0));
        for phase in [baselines, points] {
            let hits: Vec<usize> = phase.iter().take_while(|s| s.2).map(|s| s.1).collect();
            let misses = &phase[hits.len()..];
            assert!(misses.iter().all(|s| !s.2), "a hit after a miss: {phase:?}");
            assert!(
                hits.windows(2).all(|w| w[0] < w[1]),
                "hits out of order: {phase:?}"
            );
        }
        assert_eq!(
            seen.iter()
                .filter(|s| s.2)
                .map(|s| (s.0, s.1))
                .collect::<Vec<_>>(),
            [(false, 1), (true, 0), (true, 3)]
        );
        for &(point, index, cached, fingerprint, here) in &seen {
            assert_eq!(cached, served(point, index));
            assert_eq!(
                here, cached,
                "hits on the calling thread, misses on workers"
            );
            assert_eq!(fingerprint, cold_fingerprint(&cold, point, index));
        }
        assert_same_results(&cold, &warm);
    }

    #[test]
    #[should_panic(expected = "at least one compared system")]
    fn sweep_without_systems_panics() {
        let _ = Sweep::new("empty").workloads(["ocean"]).space();
    }

    #[test]
    #[should_panic(expected = "machine axes cannot be swept over pre-built traces")]
    fn machine_axes_over_fixed_traces_are_rejected() {
        use mem_trace::{GlobalAddr, ProcId, TraceBuilder};
        let mut b = TraceBuilder::new("fixed", Topology::PAPER);
        b.read(ProcId(0), GlobalAddr(0));
        let _ = Sweep::new("bad")
            .cluster_nodes([8, 16])
            .system(System::cc_numa().build())
            .traces(vec![b.build()])
            .space();
    }
}
