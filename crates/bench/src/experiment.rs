//! The `Experiment` builder: one figure/table = one experiment.
//!
//! An experiment is a machine, a [`SystemSet`] (baseline + compared
//! systems), a set of workloads and a parameter scale.  [`Experiment::run`]
//! simulates every (workload, system) pair — in parallel across worker
//! threads, since independent simulations share nothing mutable — and
//! returns the same [`ExperimentResult`] the report formatters consume:
//!
//! ```no_run
//! use dsm_bench::{presets, Experiment, ExperimentScale};
//! use dsm_core::MachineConfig;
//!
//! let result = Experiment::new(MachineConfig::PAPER)
//!     .systems(presets::figure5(ExperimentScale::Reduced))
//!     .workloads(["lu", "ocean"])
//!     .threads(8)
//!     .run();
//! println!("{}", dsm_bench::report::format_normalized_table(&result));
//! ```
//!
//! Named workloads are **streamed**: every (workload, system) job
//! instantiates a fresh deterministic [`mem_trace::TraceSource`] consumed
//! as the simulation advances — the workload's per-processor generator
//! runs *inside* the simulator's pull loop
//! ([`splash_workloads::fused`]), producing each processor's events when
//! that processor is pulled.  Peak memory is one small staged slice per
//! processor — not the trace size, and not how many workloads the
//! experiment covers.
//!
//! Custom traces (instead of named Table 2 workloads) are supplied with
//! [`Experiment::traces`], which makes the harness usable for ad-hoc
//! sharing-pattern studies (see `examples/custom_workload.rs`); recorded
//! trace files replay through [`Experiment::replay`].

use std::path::PathBuf;

use crate::cli::Options;
use crate::presets::{ExperimentScale, SystemSet};
use crate::runner::{default_threads, ExperimentResult, WorkloadResult};
use crate::sweep::Sweep;
use dsm_core::MachineConfig;
use mem_trace::ProgramTrace;
use splash_workloads::by_name;

/// Where an experiment's traces come from.
#[derive(Debug, Clone)]
enum WorkloadSource {
    /// Named Table 2 workloads, stream-generated at the experiment's scale.
    Named(Vec<String>),
    /// Pre-built traces supplied by the caller.
    Traces(Vec<ProgramTrace>),
    /// Recorded trace files, replayed with bounded memory.
    Replay(Vec<PathBuf>),
}

/// Builder for one experiment run.  See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Experiment {
    machine: MachineConfig,
    systems: Option<SystemSet>,
    source: WorkloadSource,
    scale: ExperimentScale,
    threads: usize,
}

impl Experiment {
    /// Start an experiment on `machine`.  Defaults: all seven Table 2
    /// workloads, reduced scale, one worker thread per CPU.
    pub fn new(machine: MachineConfig) -> Self {
        Experiment {
            machine,
            systems: None,
            source: WorkloadSource::Named(
                splash_workloads::names()
                    .into_iter()
                    .map(str::to_string)
                    .collect(),
            ),
            scale: ExperimentScale::Reduced,
            threads: default_threads(),
        }
    }

    /// The systems to compare (baseline + compared systems, in plot order).
    /// Required before [`Experiment::run`].
    pub fn systems(mut self, set: SystemSet) -> Self {
        self.systems = Some(set);
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
        let names: Vec<String> = workloads.into_iter().map(Into::into).collect();
        for name in &names {
            assert!(by_name(name).is_some(), "unknown workload {name}");
        }
        self.source = WorkloadSource::Named(names);
        self
    }

    /// Run on pre-built traces instead of named workloads (the traces must
    /// match the experiment's machine topology).
    pub fn traces(mut self, traces: Vec<ProgramTrace>) -> Self {
        self.source = WorkloadSource::Traces(traces);
        self
    }

    /// Replay a recorded trace file (see [`mem_trace::replay`]) instead of
    /// generating a workload; each job re-opens the file and streams it, so
    /// memory stays bounded.  Call repeatedly to replay several files.
    pub fn replay(mut self, path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        match &mut self.source {
            WorkloadSource::Replay(paths) => paths.push(path),
            _ => self.source = WorkloadSource::Replay(vec![path]),
        }
        self
    }

    /// Problem/parameter scale for named workloads.
    pub fn scale(mut self, scale: ExperimentScale) -> Self {
        self.scale = scale;
        self
    }

    /// Number of simulation worker threads (at least 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Apply parsed command-line options: workloads (or a replay file),
    /// scale and threads.
    pub fn options(self, opts: &Options) -> Self {
        let exp = match &opts.replay {
            Some(path) => self.replay(path.clone()),
            None => self.workloads(opts.workload_names()),
        };
        exp.scale(opts.scale).threads(opts.threads)
    }

    /// Run every (workload, system) pair and collect the results.
    ///
    /// The experiment is a thin single-point [`Sweep`]: one machine, no
    /// swept axes, the `SystemSet`'s baseline as the normalization system.
    /// Each job instantiates its own fresh trace source — a streaming
    /// generator for named workloads, a cursor for caller-supplied traces, a
    /// re-opened file for replays — so simulations proceed independently and
    /// peak memory does not scale with the trace size or workload count.
    ///
    /// # Panics
    /// Panics if [`Experiment::systems`] was not called, if a worker thread
    /// panics, if a replay file cannot be opened, or if a trace does not
    /// match the machine.
    pub fn run(self) -> ExperimentResult {
        let set = self
            .systems
            .expect("Experiment::systems(..) must be called before run()");
        let system_count = set.systems.len();
        let experiment = set.experiment.to_string();
        let system_names: Vec<String> = set.systems.iter().map(|s| s.name.clone()).collect();

        let mut sweep = Sweep::new(experiment.clone())
            .machine(self.machine)
            .system_set(set)
            .scale(self.scale)
            .threads(self.threads);
        sweep = match self.source {
            WorkloadSource::Named(names) => sweep.workloads(names),
            WorkloadSource::Traces(traces) => sweep.traces(traces),
            WorkloadSource::Replay(paths) => {
                paths.into_iter().fold(sweep, |sweep, p| sweep.replay(p))
            }
        };
        let swept = sweep.run();

        // A one-point sweep enumerates workloads outermost and systems
        // innermost: baselines are per workload, points are [workload x
        // system] in `SystemSet` order.
        debug_assert_eq!(swept.points.len(), swept.baselines.len() * system_count);
        let per_workload = swept
            .baselines
            .into_iter()
            .enumerate()
            .map(|(w, baseline)| {
                let row = &swept.points[w * system_count..(w + 1) * system_count];
                WorkloadResult {
                    workload: baseline.axes.workload.clone(),
                    baseline: baseline.result,
                    baseline_elapsed_seconds: baseline.elapsed_seconds,
                    results: row.iter().map(|p| p.result.clone()).collect(),
                    elapsed_seconds: row.iter().map(|p| p.elapsed_seconds).collect(),
                }
            })
            .collect();

        ExperimentResult {
            experiment,
            system_names,
            per_workload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use dsm_core::{System, Thresholds};
    use mem_trace::{GlobalAddr, ProcId, TraceBuilder};
    use splash_workloads::WorkloadConfig;

    #[test]
    fn runs_a_named_workload_experiment() {
        let result = Experiment::new(MachineConfig::PAPER)
            .systems(presets::table4(ExperimentScale::Reduced))
            .workloads(["ocean"])
            .threads(4)
            .run();
        assert_eq!(result.per_workload.len(), 1);
        assert_eq!(result.per_workload[0].workload, "ocean");
        assert_eq!(result.system_names.len(), 3);
    }

    #[test]
    fn runs_on_custom_traces() {
        let machine = MachineConfig::PAPER;
        let mut b = TraceBuilder::new("custom", machine.topology);
        b.write(ProcId(0), GlobalAddr(0));
        b.barrier_all();
        for _ in 0..100 {
            b.read(ProcId(4), GlobalAddr(0));
        }
        let result = Experiment::new(machine)
            .systems(SystemSet {
                experiment: "custom-trace smoke test",
                baseline: System::perfect_cc_numa().build(),
                systems: vec![System::cc_numa().build()],
            })
            .traces(vec![b.build()])
            .threads(2)
            .run();
        assert_eq!(result.per_workload.len(), 1);
        assert_eq!(result.per_workload[0].workload, "custom");
        assert!(result.per_workload[0].normalized(0) >= 0.99);
    }

    #[test]
    fn experiment_is_deterministic_across_thread_counts() {
        let set = || SystemSet {
            experiment: "determinism",
            baseline: System::perfect_cc_numa().build(),
            systems: vec![
                System::cc_numa().build(),
                System::r_numa()
                    .with(Thresholds {
                        rnuma_threshold: 8,
                        ..Thresholds::paper_fast()
                    })
                    .build(),
            ],
        };
        let a = Experiment::new(MachineConfig::PAPER)
            .systems(set())
            .workloads(["ocean"])
            .threads(1)
            .run();
        let b = Experiment::new(MachineConfig::PAPER)
            .systems(set())
            .workloads(["ocean"])
            .threads(8)
            .run();
        for (wa, wb) in a.per_workload.iter().zip(&b.per_workload) {
            assert_eq!(wa.baseline.execution_time, wb.baseline.execution_time);
            for (ra, rb) in wa.results.iter().zip(&wb.results) {
                assert_eq!(ra.execution_time, rb.execution_time);
                assert_eq!(ra.total_remote_misses(), rb.total_remote_misses());
            }
        }
    }

    #[test]
    fn streamed_named_workloads_match_materialized_traces() {
        // The named path streams each job; feeding the same workload as a
        // pre-materialized trace must give bit-identical results.
        let set = || SystemSet {
            experiment: "stream parity",
            baseline: System::perfect_cc_numa().build(),
            systems: vec![System::cc_numa().build()],
        };
        let streamed = Experiment::new(MachineConfig::PAPER)
            .systems(set())
            .workloads(["ocean"])
            .threads(2)
            .run();
        let trace = splash_workloads::by_name("ocean")
            .unwrap()
            .generate(&WorkloadConfig::reduced());
        let materialized = Experiment::new(MachineConfig::PAPER)
            .systems(set())
            .traces(vec![trace])
            .threads(2)
            .run();
        assert_eq!(streamed.per_workload.len(), materialized.per_workload.len());
        assert_eq!(
            streamed.per_workload[0].baseline,
            materialized.per_workload[0].baseline
        );
        assert_eq!(
            streamed.per_workload[0].results,
            materialized.per_workload[0].results
        );
    }

    #[test]
    fn replayed_trace_file_matches_the_generated_workload() {
        use mem_trace::record_to_file;
        let cfg = WorkloadConfig::reduced();
        let path = std::env::temp_dir().join("dsm-repro-experiment-replay.trc");
        let mut stream = splash_workloads::fused(by_name("ocean").unwrap().as_ref(), &cfg);
        record_to_file(&mut stream, &path).unwrap();

        let set = || SystemSet {
            experiment: "replay parity",
            baseline: System::perfect_cc_numa().build(),
            systems: vec![System::cc_numa().build()],
        };
        let replayed = Experiment::new(MachineConfig::PAPER)
            .systems(set())
            .replay(&path)
            .threads(2)
            .run();
        let generated = Experiment::new(MachineConfig::PAPER)
            .systems(set())
            .workloads(["ocean"])
            .threads(2)
            .run();
        assert_eq!(replayed.per_workload[0].workload, "ocean");
        assert_eq!(
            replayed.per_workload[0].baseline,
            generated.per_workload[0].baseline
        );
        assert_eq!(
            replayed.per_workload[0].results,
            generated.per_workload[0].results
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn thread_count_is_capped_at_the_job_count() {
        // A 1-workload, 2-system experiment has 3 jobs; asking for 64
        // threads must still work (and not spawn 61 idle workers).
        let result = Experiment::new(MachineConfig::PAPER)
            .systems(SystemSet {
                experiment: "cap",
                baseline: System::perfect_cc_numa().build(),
                systems: vec![System::cc_numa().build()],
            })
            .workloads(["ocean"])
            .threads(64)
            .run();
        assert_eq!(result.per_workload.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown workload linpack")]
    fn unknown_workloads_are_rejected_up_front() {
        let _ = Experiment::new(MachineConfig::PAPER).workloads(["linpack"]);
    }

    #[test]
    #[should_panic(expected = "Experiment::systems")]
    fn running_without_systems_panics() {
        let _ = Experiment::new(MachineConfig::PAPER)
            .workloads(["ocean"])
            .run();
    }
}
