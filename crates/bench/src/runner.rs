//! Experiment result types.
//!
//! The scheduling logic lives in the sweep engine
//! ([`crate::sweep::Sweep`]); [`crate::experiment::Experiment`] is its
//! single-machine-point shape and produces the [`ExperimentResult`]s the
//! report formatters consume.  (The legacy `run_experiment` free function
//! is gone; its behaviour is pinned by the golden-snapshot parity tests.)

use std::num::NonZeroUsize;
use std::sync::OnceLock;

use dsm_core::SimResult;

/// All results for one workload within an experiment.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name (Table 2 row).
    pub workload: String,
    /// Result of the baseline (perfect CC-NUMA) run.
    pub baseline: SimResult,
    /// Results of the compared systems, in `SystemSet::systems` order.
    pub results: Vec<SimResult>,
    /// Wall-clock seconds the baseline job took (the perf trajectory's raw
    /// material; simulation results never depend on it).
    pub baseline_elapsed_seconds: f64,
    /// Wall-clock seconds per compared system, in `results` order.
    pub elapsed_seconds: Vec<f64>,
}

impl WorkloadResult {
    /// Normalized execution time of system `i` (vs the baseline).
    pub fn normalized(&self, i: usize) -> f64 {
        self.results[i].normalized_against(&self.baseline)
    }
}

/// The complete outcome of one experiment (figure/table).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment name.
    pub experiment: String,
    /// System names, in column order.
    pub system_names: Vec<String>,
    /// One entry per workload, in the order requested.
    pub per_workload: Vec<WorkloadResult>,
}

impl ExperimentResult {
    /// Average normalized execution time of system `i` across workloads.
    pub fn mean_normalized(&self, i: usize) -> f64 {
        if self.per_workload.is_empty() {
            return 0.0;
        }
        self.per_workload
            .iter()
            .map(|w| w.normalized(i))
            .sum::<f64>()
            / self.per_workload.len() as f64
    }

    /// Index of a system by name.
    pub fn system_index(&self, name: &str) -> Option<usize> {
        self.system_names.iter().position(|n| n == name)
    }
}

/// Number of worker threads to use by default: one per CPU.
///
/// No hard cap: [`Experiment::run`](crate::experiment::Experiment::run)
/// clamps the worker count to the experiment's actual job count, so large
/// machines use every core a figure can keep busy instead of idling past an
/// arbitrary ceiling.
pub fn default_threads() -> usize {
    available_cores().unwrap_or(4)
}

/// The processor count `std::thread::available_parallelism` reports, read
/// once per process: on Linux each call reads cgroup files, and a sweep
/// service builds a `Sweep` per request.
pub(crate) fn available_cores() -> Option<usize> {
    static CORES: OnceLock<Option<usize>> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .ok()
            .map(NonZeroUsize::get)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::presets;
    use crate::presets::ExperimentScale;
    use dsm_core::MachineConfig;

    #[test]
    fn runs_a_small_experiment_end_to_end() {
        let set = presets::table4(ExperimentScale::Reduced);
        let result = Experiment::new(MachineConfig::PAPER)
            .systems(set)
            .workloads(["ocean"])
            .scale(ExperimentScale::Reduced)
            .threads(4)
            .run();
        assert_eq!(result.system_names.len(), 3);
        assert_eq!(result.per_workload.len(), 1);
        let wl = &result.per_workload[0];
        assert_eq!(wl.workload, "ocean");
        // Perfect CC-NUMA is the fastest (or tied): every normalized time is
        // at least ~1.
        for i in 0..result.system_names.len() {
            assert!(
                wl.normalized(i) >= 0.99,
                "{} finished faster than perfect CC-NUMA: {}",
                result.system_names[i],
                wl.normalized(i)
            );
        }
        assert!(result.mean_normalized(0) >= 0.99);
        assert_eq!(result.system_index("CC-NUMA"), Some(0));
        assert_eq!(result.system_index("nope"), None);
    }

    #[test]
    fn empty_experiment_result_means_zero_not_nan() {
        let empty = ExperimentResult {
            experiment: "empty".to_string(),
            system_names: vec!["CC-NUMA".to_string()],
            per_workload: vec![],
        };
        assert_eq!(empty.mean_normalized(0), 0.0);
        assert_eq!(empty.system_index("CC-NUMA"), Some(0));
    }
}
