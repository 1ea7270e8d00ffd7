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

use crate::json::{self, Value};
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

/// `(workload, system, events_per_sec)` of every job in a perf report (the
/// format written by [`to_json`]).  A job missing one of the three is
/// dropped.
pub fn parse_jobs(report: &Value) -> Vec<(String, String, f64)> {
    let jobs = report
        .get("jobs")
        .and_then(Value::as_arr)
        .unwrap_or_default();
    jobs.iter()
        .filter_map(|job| {
            Some((
                job.get_str("workload")?.to_string(),
                job.get_str("system")?.to_string(),
                job.get("events_per_sec")?.as_f64()?,
            ))
        })
        .collect()
}

/// The baseline jobs `current` also measured, each paired with its
/// baseline events/sec: the jobs a [`regression_failures`] check compares.
pub fn compared_jobs<'a>(current: &'a PerfReport, baseline: &Value) -> Vec<(&'a PerfJob, f64)> {
    parse_jobs(baseline)
        .into_iter()
        .filter_map(|(workload, system, base_eps)| {
            current.job(&workload, &system).map(|job| (job, base_eps))
        })
        .collect()
}

/// Compare a fresh report against a parsed baseline report: every baseline
/// job also present in `current` must reach at least `(1 - tolerance)` of
/// its baseline events/sec.  Returns one message per regressed job (empty =
/// pass).  Baseline jobs the current report did not run are skipped, so a
/// CI smoke run may cover a subset of the committed matrix — but a run that
/// matches *no* baseline job compared nothing and fails.
pub fn regression_failures(current: &PerfReport, baseline: &Value, tolerance: f64) -> Vec<String> {
    let compared = compared_jobs(current, baseline);
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

/// One row of the perf trend.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendEntry {
    /// File name the row came from.
    pub file: String,
    /// PR number (the JSON's `"pr"` field, else parsed from the
    /// `BENCH_<n>.json` name).
    pub pr: Option<u64>,
    /// Parameter scale of a `perf` measurement (`-` for a benchmark pair).
    pub scale: String,
    /// The benchmark workload key of a paired file's row (`None` for a
    /// `perf` measurement).
    pub workload: Option<String>,
    /// Events/sec: a `perf` measurement's mean (trajectory files with
    /// pre/post sections report the *last*, post-change one: the state the
    /// PR left the repo in), or the change side's median of a benchmark
    /// pair.
    pub events_per_sec: f64,
    /// `(q1, q3)` of the change side of a benchmark pair (`None` for a
    /// `perf` mean).
    pub quartiles: Option<(f64, f64)>,
    /// The parent side's median of a benchmark pair: the previous PR,
    /// measured in the same session (`None` for a `perf` mean).
    pub parent_events_per_sec: Option<f64>,
}

/// The perf trend of a directory: every row, plus each `BENCH_*.json` that
/// gave none, with the reason.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trend {
    /// Rows, ordered by PR number (unnumbered files last, by name); a
    /// paired file's rows keep its workload order.
    pub entries: Vec<TrendEntry>,
    /// `(file, reason)` of every `BENCH_*.json` that could not be read.
    pub unreadable: Vec<(String, String)>,
}

/// The trend entry of one parsed `BENCH_*.json` perf record.  Handles both
/// the plain [`to_json`] report shape and the pre/post trajectory wrapper of
/// `BENCH_3.json` (where the last `mean_events_per_sec` in document order is
/// the post-change state).
pub fn parse_trend_entry(file: &str, doc: &Value) -> Option<TrendEntry> {
    let mean = last_named(doc, "mean_events_per_sec")?.as_f64()?;
    let scale = last_named(doc, "scale")
        .and_then(Value::as_str)
        .unwrap_or("unknown");
    Some(TrendEntry {
        file: file.to_string(),
        pr: doc.get_u64("pr").or_else(|| pr_from_name(file)),
        scale: scale.to_string(),
        workload: None,
        events_per_sec: mean,
        quartiles: None,
        parent_events_per_sec: None,
    })
}

/// Read a `"bench": "dsm-benchmark-pairs"` document (the repository
/// benchmark's alternating parent/change runs): one row per key of its
/// `workloads` object, giving the change side's `events_per_sec` median and
/// quartiles (and the parent side's median, when the file has it).
/// `Err` names what is missing; a file with any unreadable workload gives
/// no rows.
fn parse_paired_entries(file: &str, doc: &Value) -> Result<Vec<TrendEntry>, String> {
    if doc.get_str("bench") != Some("dsm-benchmark-pairs") {
        return Err("no `mean_events_per_sec` and not a `dsm-benchmark-pairs` file".to_string());
    }
    let pr = doc.get_u64("pr").or_else(|| pr_from_name(file));
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_obj)
        .ok_or("no `workloads` object")?;
    workloads
        .iter()
        .map(|(workload, body)| {
            let side = |name: &str| body.get("metrics")?.get("events_per_sec")?.get(name);
            let change = side("change").ok_or_else(|| {
                format!("workload `{workload}` has no change-side events_per_sec")
            })?;
            let stat = |key: &str| {
                change
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("workload `{workload}` has no events_per_sec {key}"))
            };
            Ok(TrendEntry {
                file: file.to_string(),
                pr,
                scale: "-".to_string(),
                workload: Some(workload.clone()),
                events_per_sec: stat("median")?,
                quartiles: Some((stat("q1")?, stat("q3")?)),
                parent_events_per_sec: side("parent")
                    .and_then(|parent| parent.get("median"))
                    .and_then(Value::as_f64),
            })
        })
        .collect()
}

/// The rows one `BENCH_*.json` body contributes: a `perf` report's mean,
/// else a benchmark-pairs file's workloads.
fn trend_rows(file: &str, text: &str) -> Result<Vec<TrendEntry>, String> {
    let doc = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    match parse_trend_entry(file, &doc) {
        Some(entry) => Ok(vec![entry]),
        None => parse_paired_entries(file, &doc),
    }
}

fn pr_from_name(file: &str) -> Option<u64> {
    file.strip_prefix("BENCH_")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// The value of the last member named `key` anywhere in `v`, in document
/// order.
fn last_named<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Obj(members) => members
            .iter()
            .rev()
            .find_map(|(k, child)| last_named(child, key).or_else(|| (k == key).then_some(child))),
        Value::Arr(items) => items.iter().rev().find_map(|item| last_named(item, key)),
        _ => None,
    }
}

/// Collect the trend rows of every `BENCH_*.json` under `dir`.  A file that
/// cannot be read or gives no rows is listed in [`Trend::unreadable`].
pub fn collect_trend(dir: &Path) -> io::Result<Trend> {
    let mut trend = Trend::default();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().to_string();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let rows = std::fs::read_to_string(entry.path())
            .map_err(|e| e.to_string())
            .and_then(|body| trend_rows(&name, &body));
        match rows {
            Ok(rows) => trend.entries.extend(rows),
            Err(reason) => trend.unreadable.push((name, reason)),
        }
    }
    // Stable: a paired file's rows keep their workload order.
    trend.entries.sort_by(|a, b| match (a.pr, b.pr) {
        (Some(x), Some(y)) => x.cmp(&y),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => a.file.cmp(&b.file),
    });
    trend.unreadable.sort();
    Ok(trend)
}

/// Tabulate the trend: one row per entry with its speedup over the
/// previous PR, then one line per unreadable file.  A `perf` mean is
/// compared with the previous `perf` row of the same scale: a
/// reduced-vs-paper quotient would read as a huge regression (or win) that
/// is really the scale change.  A benchmark median is compared with the
/// parent side of its own pairs, the previous PR measured in the same
/// session, never with another file's numbers from another session.
pub fn format_trend(trend: &Trend) -> String {
    let mut out = String::from(
        "# perf trend per PR (from BENCH_*.json): a perf report's mean events/sec, \
         or a benchmark pair's change-side median [q1, q3]\n",
    );
    out.push_str(&format!(
        "{:<16} {:>4} {:>9} {:>14} {:>14} {:>24} {:>8}\n",
        "file", "pr", "scale", "workload", "events_per_sec", "[q1, q3]", "vs_prev"
    ));
    for (i, e) in trend.entries.iter().enumerate() {
        let prev = if e.workload.is_some() {
            e.parent_events_per_sec
        } else {
            trend.entries[..i]
                .iter()
                .rev()
                .find(|p| p.workload.is_none() && p.scale == e.scale)
                .map(|p| p.events_per_sec)
        };
        let vs_prev = match prev {
            Some(p) if p > 0.0 => format!("{:.2}x", e.events_per_sec / p),
            _ => "-".to_string(),
        };
        let quartiles = e
            .quartiles
            .map_or_else(|| "-".to_string(), |(q1, q3)| format!("[{q1:.1}, {q3:.1}]"));
        out.push_str(&format!(
            "{:<16} {:>4} {:>9} {:>14} {:>14.1} {:>24} {:>8}\n",
            e.file,
            e.pr.map_or_else(|| "-".to_string(), |p| p.to_string()),
            e.scale,
            e.workload.as_deref().unwrap_or("-"),
            e.events_per_sec,
            quartiles,
            vs_prev
        ));
    }
    for (file, reason) in &trend.unreadable {
        out.push_str(&format!("# unreadable: {file}: {reason}\n"));
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
        let jobs = parse_jobs(&json::parse(&json).unwrap());
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].0, "radix");
        assert_eq!(jobs[0].1, "CC-NUMA");
        assert!((jobs[0].2 - 2_000_000.0).abs() < 1.0);
        assert_eq!(jobs[1].0, "lu");
    }

    #[test]
    fn regression_check_flags_only_real_regressions() {
        let baseline = json::parse(&to_json(&toy_report())).unwrap();
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
        let baseline = json::parse(&to_json(&toy_report())).unwrap();
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
        let baseline = json::parse(&to_json(&toy_report())).unwrap();
        assert!(compared_jobs(&current, &baseline).is_empty());
        let failures = regression_failures(&current, &baseline, 0.3);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].contains("no baseline job matched"),
            "{}",
            failures[0]
        );
        // An empty baseline is disjoint from every run.
        let empty = json::parse(r#"{"bench":"perf","jobs":[]}"#).unwrap();
        assert_eq!(regression_failures(&toy_report(), &empty, 0.3).len(), 1);
        assert_eq!(compared_jobs(&toy_report(), &baseline).len(), 2);
    }

    #[test]
    fn malformed_baseline_yields_no_jobs_not_a_panic() {
        for doc in [
            r#"{"bench":"perf"}"#,
            r#"{"jobs":{"workload":"x"}}"#,
            r#"{"jobs":[{"workload":"x","system":"y"},{"workload":"x","system":"y","events_per_sec":"fast"}]}"#,
            "[]",
        ] {
            assert!(parse_jobs(&json::parse(doc).unwrap()).is_empty(), "{doc}");
        }
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
        let plain = json::parse(&to_json(&toy_report())).unwrap();
        let t = parse_trend_entry("BENCH_4.json", &plain).unwrap();
        assert_eq!(t.pr, Some(4));
        assert_eq!(t.scale, "reduced");
        assert!((t.events_per_sec - 2_000_000.0).abs() < 1.0);

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
        let t = parse_trend_entry("BENCH_3.json", &json::parse(&wrapper).unwrap()).unwrap();
        assert_eq!(t.pr, Some(3));
        assert!((t.events_per_sec - 6_000_000.0).abs() < 1.0);

        // Pretty-printed JSON (the BENCH_3.json style, spaces after
        // colons) parses too.
        let pretty = "{\n \"pr\": 6,\n \"scale\": \"paper\",\n \
                      \"mean_events_per_sec\": 1234.5\n}";
        let t = parse_trend_entry("BENCH_6.json", &json::parse(pretty).unwrap()).unwrap();
        assert_eq!(t.pr, Some(6));
        assert_eq!(t.scale, "paper");
        assert!((t.events_per_sec - 1234.5).abs() < 0.01);

        // A document without a mean yields no entry; text that is not
        // JSON, or a report cut off mid-way, yields no rows at all.
        let other = json::parse(r#"{"bench":"other","scale":"paper"}"#).unwrap();
        assert!(parse_trend_entry("BENCH_9.json", &other).is_none());
        assert!(trend_rows("BENCH_9.json", "not json").is_err());
        let cut = to_json(&toy_report());
        let err = trend_rows("BENCH_4.json", &cut[..cut.len() / 2]).unwrap_err();
        assert!(err.starts_with("not valid JSON"), "{err}");
    }

    fn perf_row(file: &str, pr: u64, scale: &str, events_per_sec: f64) -> TrendEntry {
        TrendEntry {
            file: file.into(),
            pr: Some(pr),
            scale: scale.into(),
            workload: None,
            events_per_sec,
            quartiles: None,
            parent_events_per_sec: None,
        }
    }

    #[test]
    fn trend_table_orders_by_pr_and_reports_speedups() {
        let entries = vec![
            perf_row("BENCH_3.json", 3, "paper", 2_000_000.0),
            perf_row("BENCH_4.json", 4, "paper", 3_000_000.0),
        ];
        let table = format_trend(&Trend {
            entries: entries.clone(),
            unreadable: vec![],
        });
        assert!(table.contains("BENCH_3.json"));
        assert!(table.contains("BENCH_4.json"));
        assert!(table.contains("1.50x"), "{table}");
        assert_eq!(table.lines().count(), 2 + entries.len());

        // A scale change between adjacent rows suppresses the ratio: a
        // reduced-vs-paper quotient is not a speedup.
        let mixed = vec![
            perf_row("BENCH_2.json", 2, "reduced", 5_000_000.0),
            entries[0].clone(),
        ];
        let table = format_trend(&Trend {
            entries: mixed,
            unreadable: vec![],
        });
        assert!(!table.contains('x'), "cross-scale ratio printed: {table}");
    }

    #[test]
    fn collect_trend_scans_a_directory() {
        let dir = std::env::temp_dir().join("dsm-repro-trend-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_7.json"), to_json(&toy_report())).unwrap();
        std::fs::write(dir.join("BENCH_5.json"), to_json(&toy_report())).unwrap();
        std::fs::write(dir.join("unrelated.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_6.json"), PAIRED).unwrap();
        std::fs::write(dir.join("BENCH_9.json"), "not json").unwrap();
        let trend = collect_trend(&dir).unwrap();
        let rows: Vec<(Option<u64>, Option<&str>)> = trend
            .entries
            .iter()
            .map(|e| (e.pr, e.workload.as_deref()))
            .collect();
        assert_eq!(
            rows,
            [
                (Some(5), None),
                (Some(7), None),
                (Some(16), Some("paper")),
                (Some(16), Some("serve"))
            ],
            "sorted by PR number, a paired file's rows in file order"
        );
        assert_eq!(trend.unreadable.len(), 1, "{:?}", trend.unreadable);
        assert_eq!(trend.unreadable[0].0, "BENCH_9.json");
        let table = format_trend(&trend);
        assert!(table.contains("# unreadable: BENCH_9.json"), "{table}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A benchmark-pairs file trimmed to what the trend reads, plus a
    /// metric and a parent side it must ignore.
    const PAIRED: &str = r#"{
 "bench": "dsm-benchmark-pairs",
 "pr": 16,
 "description": "braces {in [a string]} and \"quotes\" are skipped",
 "workloads": {
  "paper": {
   "pairs": 5,
   "metrics": {
    "cold_sweep_s": {"change": {"median": 3.2, "q1": 2.9, "q3": 3.4}},
    "events_per_sec": {
     "unit": "accesses/s",
     "parent": {"median": 3951082.3, "q1": 3552228.9, "q3": 5110897.6, "runs": [1, 2]},
     "change": {"median": 4351074.9, "q1": 4139068.7, "q3": 4795746.0, "runs": [4, 5]}
    }
   }
  },
  "serve": {
   "metrics": {"events_per_sec": {"change": {"median": 9.5e6, "q1": 9.4e6, "q3": 1.07e7}}}
  }
 }
}"#;

    #[test]
    fn paired_files_give_one_row_per_workload() {
        let rows = parse_paired_entries("BENCH_16.json", &json::parse(PAIRED).unwrap()).unwrap();
        assert_eq!(rows.len(), 2);
        let paper = &rows[0];
        assert_eq!(
            (paper.pr, paper.workload.as_deref(), paper.scale.as_str()),
            (Some(16), Some("paper"), "-")
        );
        assert_eq!(paper.events_per_sec, 4351074.9, "the change side's median");
        assert_eq!(paper.quartiles, Some((4139068.7, 4795746.0)));
        assert_eq!(paper.parent_events_per_sec, Some(3951082.3));
        assert_eq!(rows[1].workload.as_deref(), Some("serve"));
        assert_eq!(rows[1].events_per_sec, 9.5e6);
        assert_eq!(rows[1].quartiles, Some((9.4e6, 1.07e7)));
        assert_eq!(rows[1].parent_events_per_sec, None);

        let table = format_trend(&Trend {
            entries: rows,
            unreadable: vec![],
        });
        assert!(table.contains("[4139068.7, 4795746.0]"), "{table}");
        // Against its own parent side (4351074.9 / 3951082.3), and no
        // ratio for the workload without one.
        assert!(table.contains("1.10x"), "{table}");
        assert_eq!(table.matches('x').count(), 1, "{table}");

        // A workload without a change-side median makes the file
        // unreadable, naming the workload; so does a perf-less non-pair.
        let broken = PAIRED.replace("\"median\": 9.5e6, ", "");
        let err =
            parse_paired_entries("BENCH_16.json", &json::parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("`serve`") && err.contains("median"), "{err}");
        assert!(trend_rows("BENCH_1.json", r#"{"bench":"other"}"#).is_err());
        assert!(trend_rows("BENCH_1.json", "{\"bench\": \"dsm-benchmark-pairs\"").is_err());
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
