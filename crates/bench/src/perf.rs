//! The perf-benchmark subsystem: wall-clock throughput per (workload,
//! system) job.
//!
//! Simulator throughput is the binding constraint on every scenario the
//! harness adds — the paper's figures come from pushing millions of memory
//! references through per-block directory and cache state — so this module
//! gives the repo a measured perf trajectory instead of anecdotes:
//!
//! * [`measure`] runs each (workload, system) job through the streaming
//!   pipeline, takes the best wall-clock of `repeats` runs (simulation is
//!   deterministic, so the minimum is the least-noisy estimate), and
//!   reports **events/sec** (simulated shared-memory accesses per second of
//!   wall clock);
//! * [`to_json`]/[`write_json`] render the report as the machine-readable
//!   `BENCH_*.json` format the perf trajectory is tracked in;
//! * [`regression_failures`] compares a fresh report against a committed
//!   baseline JSON and flags every job whose throughput regressed beyond a
//!   tolerance, and a run that matched no baseline job at all — the check
//!   behind the CI perf-smoke job.

use std::io;
use std::path::Path;
use std::time::Instant;

use crate::presets::ExperimentScale;
use dsm_core::{ClusterSimulator, MachineConfig, SystemConfig};
use splash_workloads::{by_name, WorkloadConfig};

/// Throughput measurement of one (workload, system) job.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfJob {
    /// Workload name (Table 2 row).
    pub workload: String,
    /// System name ("CC-NUMA", "R-NUMA", ...).
    pub system: String,
    /// Best wall-clock over the report's repeats, in seconds.
    pub elapsed_seconds: f64,
    /// Shared-memory accesses simulated by one run of the job.
    pub accesses: u64,
    /// `accesses / elapsed_seconds` (0 if the job finished too fast for the
    /// clock — the guard keeps degenerate timings from dividing by zero).
    pub events_per_sec: f64,
}

/// A full perf measurement: every (workload, system) job at one scale.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Parameter scale the jobs ran at ("paper", "reduced", or a custom
    /// label like "x2").
    pub scale: String,
    /// Wall-clock repetitions per job (best is reported).
    pub repeats: u32,
    /// One entry per (workload, system) pair, workloads outermost.
    pub jobs: Vec<PerfJob>,
}

impl PerfReport {
    /// The job for `(workload, system)`, if measured.
    pub fn job(&self, workload: &str, system: &str) -> Option<&PerfJob> {
        self.jobs
            .iter()
            .find(|j| j.workload == workload && j.system == system)
    }

    /// Mean events/sec across all jobs (0 for an empty report).
    pub fn mean_events_per_sec(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().map(|j| j.events_per_sec).sum::<f64>() / self.jobs.len() as f64
    }
}

/// The systems a perf run covers by default: the Table 4 trio (CC-NUMA,
/// CC-NUMA+MigRep, R-NUMA), which together exercise the block-cache,
/// migration/replication and page-cache hot paths.
pub fn default_systems(scale: ExperimentScale) -> Vec<SystemConfig> {
    crate::presets::table4(scale).systems
}

/// Measure every (workload, system) job: run the workload through the
/// *fused* streaming pipeline (generation inside the simulator's pull loop
/// — the configuration a saturated experiment run uses, and the one whose
/// wall-clock is generation + simulation with no channel in between)
/// `repeats` times and keep the best wall-clock.
///
/// # Panics
/// Panics on an unknown workload name or a zero `repeats`.
pub fn measure(
    machine: MachineConfig,
    systems: &[SystemConfig],
    workloads: &[&str],
    scale: ExperimentScale,
    repeats: u32,
) -> PerfReport {
    assert!(repeats > 0, "perf measurement needs at least one repeat");
    let cfg = WorkloadConfig::at_scale(scale.workload_scale());
    let mut jobs = Vec::with_capacity(workloads.len() * systems.len());
    for workload in workloads {
        let wl = by_name(workload).unwrap_or_else(|| panic!("unknown workload {workload}"));
        for system in systems {
            let mut best = f64::INFINITY;
            let mut accesses = 0;
            for _ in 0..repeats {
                let sim = ClusterSimulator::new(machine, system.clone());
                let mut source = splash_workloads::fused(wl.as_ref(), &cfg);
                let start = Instant::now();
                let result = sim.run_source(&mut source);
                best = best.min(start.elapsed().as_secs_f64());
                accesses = result.accesses;
            }
            jobs.push(PerfJob {
                workload: workload.to_string(),
                system: system.name.clone(),
                elapsed_seconds: best,
                accesses,
                events_per_sec: if best > 0.0 {
                    accesses as f64 / best
                } else {
                    0.0
                },
            });
        }
    }
    PerfReport {
        scale: scale.label(),
        repeats,
        jobs,
    }
}

fn job_json(j: &PerfJob) -> String {
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"system\":\"{}\",\"elapsed_seconds\":{:.6},",
            "\"accesses\":{},\"events_per_sec\":{:.1}}}"
        ),
        j.workload, j.system, j.elapsed_seconds, j.accesses, j.events_per_sec
    )
}

/// Render a perf report as the `BENCH_*.json` object.
pub fn to_json(report: &PerfReport) -> String {
    let jobs = report
        .jobs
        .iter()
        .map(job_json)
        .collect::<Vec<_>>()
        .join(",");
    format!(
        concat!(
            "{{\"bench\":\"perf\",\"scale\":\"{}\",\"repeats\":{},",
            "\"mean_events_per_sec\":{:.1},\"jobs\":[{}]}}"
        ),
        report.scale,
        report.repeats,
        report.mean_events_per_sec(),
        jobs
    )
}

/// Write a perf report as JSON to `path`.
pub fn write_json(path: &Path, report: &PerfReport) -> io::Result<()> {
    std::fs::write(path, to_json(report) + "\n")
}

/// Pull `(workload, system, events_per_sec)` triples out of a perf-report
/// JSON (the format written by [`to_json`]).
///
/// The offline environment has no JSON parser (serde is a no-op shim), so
/// this is a purpose-built scanner for the one format this module writes:
/// it walks `"workload"` keys and reads the two sibling fields this check
/// needs.  Unknown fields are skipped; malformed entries are dropped.
pub fn parse_jobs(json: &str) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(start) = rest.find("\"workload\":\"") {
        rest = &rest[start + "\"workload\":\"".len()..];
        let Some(wend) = rest.find('"') else { break };
        let workload = rest[..wend].to_string();
        rest = &rest[wend..];
        let Some(sys_at) = rest.find("\"system\":\"") else {
            break;
        };
        rest = &rest[sys_at + "\"system\":\"".len()..];
        let Some(send) = rest.find('"') else { break };
        let system = rest[..send].to_string();
        rest = &rest[send..];
        let Some(eps_at) = rest.find("\"events_per_sec\":") else {
            break;
        };
        rest = &rest[eps_at + "\"events_per_sec\":".len()..];
        let num_end = rest
            .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
            .unwrap_or(rest.len());
        if let Ok(eps) = rest[..num_end].parse::<f64>() {
            out.push((workload, system, eps));
        }
        rest = &rest[num_end..];
    }
    out
}

/// The baseline jobs `current` also measured, each paired with its
/// baseline events/sec: the jobs a [`regression_failures`] check compares.
pub fn compared_jobs<'a>(current: &'a PerfReport, baseline_json: &str) -> Vec<(&'a PerfJob, f64)> {
    parse_jobs(baseline_json)
        .into_iter()
        .filter_map(|(workload, system, base_eps)| {
            current.job(&workload, &system).map(|job| (job, base_eps))
        })
        .collect()
}

/// Compare a fresh report against a committed baseline JSON: every baseline
/// job also present in `current` must reach at least `(1 - tolerance)` of
/// its baseline events/sec.  Returns one message per regressed job (empty =
/// pass).  Baseline jobs the current report did not run are skipped, so a
/// CI smoke run may cover a subset of the committed matrix — but a run that
/// matches *no* baseline job compared nothing and fails.
pub fn regression_failures(
    current: &PerfReport,
    baseline_json: &str,
    tolerance: f64,
) -> Vec<String> {
    let compared = compared_jobs(current, baseline_json);
    if compared.is_empty() {
        return vec![format!(
            "no baseline job matched any of the {} measured (workload, system) jobs",
            current.jobs.len()
        )];
    }
    compared
        .into_iter()
        .filter(|(job, base_eps)| job.events_per_sec < base_eps * (1.0 - tolerance))
        .map(|(job, base_eps)| {
            format!(
                "{}/{}: {:.0} events/sec is below {:.0} ({:.0}% of the {:.0} baseline)",
                job.workload,
                job.system,
                job.events_per_sec,
                base_eps * (1.0 - tolerance),
                (1.0 - tolerance) * 100.0,
                base_eps,
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// The perf trend across PRs (`trend` binary)
// ---------------------------------------------------------------------

/// One `BENCH_*.json` file's contribution to the perf trend.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendEntry {
    /// File name the entry came from.
    pub file: String,
    /// PR number (the JSON's `"pr"` field, else parsed from the
    /// `BENCH_<n>.json` name).
    pub pr: Option<u64>,
    /// Parameter scale of the measurement.
    pub scale: String,
    /// Mean events/sec.  Trajectory files with pre/post sections report the
    /// *last* (post-change) measurement: the state the PR left the repo in.
    pub mean_events_per_sec: f64,
}

/// Scan one `BENCH_*.json` body for its trend entry.  Handles both the
/// plain [`to_json`] report shape and the pre/post trajectory wrapper of
/// `BENCH_3.json` (where the last `mean_events_per_sec` is the post-change
/// state).
pub fn parse_trend_entry(file: &str, json: &str) -> Option<TrendEntry> {
    let mean = json
        .rmatch_indices("\"mean_events_per_sec\":")
        .next()
        .and_then(|(at, key)| scan_number(&json[at + key.len()..]))?;
    let scale = json
        .rmatch_indices("\"scale\":")
        .next()
        .and_then(|(at, key)| {
            // Tolerate pretty-printed JSON: whitespace before the value.
            let rest = json[at + key.len()..].trim_start();
            let rest = rest.strip_prefix('"')?;
            rest.find('"').map(|end| rest[..end].to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let pr = json
        .find("\"pr\":")
        .and_then(|at| scan_number(&json[at + "\"pr\":".len()..]))
        .map(|n| n as u64)
        .or_else(|| {
            file.strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse()
                .ok()
        });
    Some(TrendEntry {
        file: file.to_string(),
        pr,
        scale,
        mean_events_per_sec: mean,
    })
}

fn scan_number(rest: &str) -> Option<f64> {
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Collect every `BENCH_*.json` under `dir` into trend entries, ordered by
/// PR number (unnumbered files last, by name).
pub fn collect_trend(dir: &Path) -> io::Result<Vec<TrendEntry>> {
    let mut entries = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().to_string();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let body = std::fs::read_to_string(entry.path())?;
        if let Some(t) = parse_trend_entry(&name, &body) {
            entries.push(t);
        }
    }
    entries.sort_by(|a, b| match (a.pr, b.pr) {
        (Some(x), Some(y)) => x.cmp(&y),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => a.file.cmp(&b.file),
    });
    Ok(entries)
}

/// Tabulate the trend: one row per `BENCH_*.json`, with each row's speedup
/// against the previous PR's mean.  A ratio is only printed when the two
/// rows were measured at the same scale — a reduced-vs-paper quotient would
/// read as a huge regression (or win) that is really just the scale change.
pub fn format_trend(entries: &[TrendEntry]) -> String {
    let mut out = String::from("# perf trend: mean events/sec per PR (from BENCH_*.json)\n");
    out.push_str(&format!(
        "{:<16} {:>4} {:>9} {:>20} {:>10}\n",
        "file", "pr", "scale", "mean_events_per_sec", "vs_prev"
    ));
    let mut prev: Option<&TrendEntry> = None;
    for e in entries {
        let vs_prev = match prev {
            Some(p) if p.mean_events_per_sec > 0.0 && p.scale == e.scale => {
                format!("{:.2}x", e.mean_events_per_sec / p.mean_events_per_sec)
            }
            _ => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<16} {:>4} {:>9} {:>20.1} {:>10}\n",
            e.file,
            e.pr.map_or_else(|| "-".to_string(), |p| p.to_string()),
            e.scale,
            e.mean_events_per_sec,
            vs_prev
        ));
        prev = Some(e);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_report() -> PerfReport {
        PerfReport {
            scale: "reduced".to_string(),
            repeats: 2,
            jobs: vec![
                PerfJob {
                    workload: "radix".into(),
                    system: "CC-NUMA".into(),
                    elapsed_seconds: 0.5,
                    accesses: 1_000_000,
                    events_per_sec: 2_000_000.0,
                },
                PerfJob {
                    workload: "lu".into(),
                    system: "R-NUMA".into(),
                    elapsed_seconds: 0.25,
                    accesses: 500_000,
                    events_per_sec: 2_000_000.0,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_through_the_scanner() {
        let report = toy_report();
        let json = to_json(&report);
        assert!(json.contains("\"bench\":\"perf\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let jobs = parse_jobs(&json);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].0, "radix");
        assert_eq!(jobs[0].1, "CC-NUMA");
        assert!((jobs[0].2 - 2_000_000.0).abs() < 1.0);
        assert_eq!(jobs[1].0, "lu");
    }

    #[test]
    fn regression_check_flags_only_real_regressions() {
        let baseline = to_json(&toy_report());
        let mut current = toy_report();
        // Same numbers: no failures.
        assert!(regression_failures(&current, &baseline, 0.3).is_empty());
        // 20% slower is inside a 30% tolerance.
        current.jobs[0].events_per_sec = 1_600_000.0;
        assert!(regression_failures(&current, &baseline, 0.3).is_empty());
        // 50% slower is a regression, and the message names the job.
        current.jobs[0].events_per_sec = 1_000_000.0;
        let failures = regression_failures(&current, &baseline, 0.3);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("radix/CC-NUMA"), "{}", failures[0]);
    }

    #[test]
    fn baseline_jobs_missing_from_current_are_skipped() {
        let baseline = to_json(&toy_report());
        let mut current = toy_report();
        current.jobs.remove(1);
        assert!(regression_failures(&current, &baseline, 0.3).is_empty());
    }

    #[test]
    fn a_baseline_with_no_matching_job_fails() {
        // A run over jobs the baseline never recorded compares nothing:
        // that must fail rather than pass vacuously.
        let mut current = toy_report();
        for job in &mut current.jobs {
            job.workload = "ocean".into();
        }
        let baseline = to_json(&toy_report());
        assert!(compared_jobs(&current, &baseline).is_empty());
        let failures = regression_failures(&current, &baseline, 0.3);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].contains("no baseline job matched"),
            "{}",
            failures[0]
        );
        // An empty baseline is disjoint from every run.
        let empty = r#"{"bench":"perf","jobs":[]}"#;
        assert_eq!(regression_failures(&toy_report(), empty, 0.3).len(), 1);
        assert_eq!(compared_jobs(&toy_report(), &baseline).len(), 2);
    }

    #[test]
    fn malformed_baseline_yields_no_jobs_not_a_panic() {
        assert!(parse_jobs("").is_empty());
        assert!(parse_jobs("{\"workload\":\"x\"").is_empty());
        assert!(parse_jobs("not json at all").is_empty());
    }

    #[test]
    fn measure_reports_positive_throughput() {
        // Smallest real job: one workload, one system, one repeat.
        let report = measure(
            MachineConfig::PAPER,
            &[dsm_core::System::cc_numa().build()],
            &["ocean"],
            ExperimentScale::Reduced,
            1,
        );
        assert_eq!(report.jobs.len(), 1);
        let job = &report.jobs[0];
        assert_eq!(job.workload, "ocean");
        assert!(job.accesses > 0);
        assert!(job.events_per_sec > 0.0);
        assert!(report.mean_events_per_sec() > 0.0);
    }

    #[test]
    fn trend_entry_reads_plain_reports_and_trajectory_wrappers() {
        // Plain report: pr comes from the file name.
        let plain = to_json(&toy_report());
        let t = parse_trend_entry("BENCH_4.json", &plain).unwrap();
        assert_eq!(t.pr, Some(4));
        assert_eq!(t.scale, "reduced");
        assert!((t.mean_events_per_sec - 2_000_000.0).abs() < 1.0);

        // Trajectory wrapper: explicit pr, and the *last* mean wins (the
        // post-change state).
        let wrapper = format!(
            "{{\"bench\":\"perf-trajectory\",\"pr\":3,\"pre_refactor\":{},\"post_refactor\":{}}}",
            to_json(&toy_report()),
            to_json(&PerfReport {
                jobs: vec![PerfJob {
                    events_per_sec: 6_000_000.0,
                    ..toy_report().jobs[0].clone()
                }],
                ..toy_report()
            })
        );
        let t = parse_trend_entry("BENCH_3.json", &wrapper).unwrap();
        assert_eq!(t.pr, Some(3));
        assert!((t.mean_events_per_sec - 6_000_000.0).abs() < 1.0);

        // Pretty-printed JSON (the BENCH_3.json style, spaces after
        // colons) parses too.
        let pretty = "{\n \"pr\": 6,\n \"scale\": \"paper\",\n \
                      \"mean_events_per_sec\": 1234.5\n}";
        let t = parse_trend_entry("BENCH_6.json", pretty).unwrap();
        assert_eq!(t.pr, Some(6));
        assert_eq!(t.scale, "paper");
        assert!((t.mean_events_per_sec - 1234.5).abs() < 0.01);

        // Garbage yields no entry.
        assert!(parse_trend_entry("BENCH_9.json", "not json").is_none());
    }

    #[test]
    fn trend_table_orders_by_pr_and_reports_speedups() {
        let entries = vec![
            TrendEntry {
                file: "BENCH_3.json".into(),
                pr: Some(3),
                scale: "paper".into(),
                mean_events_per_sec: 2_000_000.0,
            },
            TrendEntry {
                file: "BENCH_4.json".into(),
                pr: Some(4),
                scale: "paper".into(),
                mean_events_per_sec: 3_000_000.0,
            },
        ];
        let table = format_trend(&entries);
        assert!(table.contains("BENCH_3.json"));
        assert!(table.contains("BENCH_4.json"));
        assert!(table.contains("1.50x"), "{table}");
        assert_eq!(table.lines().count(), 2 + entries.len());

        // A scale change between adjacent rows suppresses the ratio: a
        // reduced-vs-paper quotient is not a speedup.
        let mixed = vec![
            TrendEntry {
                file: "BENCH_2.json".into(),
                pr: Some(2),
                scale: "reduced".into(),
                mean_events_per_sec: 5_000_000.0,
            },
            entries[0].clone(),
        ];
        let table = format_trend(&mixed);
        assert!(!table.contains('x'), "cross-scale ratio printed: {table}");
    }

    #[test]
    fn collect_trend_scans_a_directory() {
        let dir = std::env::temp_dir().join("dsm-repro-trend-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_7.json"), to_json(&toy_report())).unwrap();
        std::fs::write(dir.join("BENCH_5.json"), to_json(&toy_report())).unwrap();
        std::fs::write(dir.join("unrelated.json"), "{}").unwrap();
        let entries = collect_trend(&dir).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].pr, Some(5), "sorted by PR number");
        assert_eq!(entries[1].pr, Some(7));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_report_means_zero_not_nan() {
        let empty = PerfReport {
            scale: "reduced".into(),
            repeats: 1,
            jobs: vec![],
        };
        assert_eq!(empty.mean_events_per_sec(), 0.0);
        assert!(empty.job("radix", "CC-NUMA").is_none());
    }
}
