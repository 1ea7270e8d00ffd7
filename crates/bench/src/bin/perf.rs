//! Perf benchmark: wall-clock throughput of the simulator per (workload,
//! system) job, written as machine-readable JSON for the perf trajectory
//! (`BENCH_*.json`).
//!
//! ```text
//! perf [--paper|--reduced] [--workloads a,b,c] [--repeats N]
//!      [--out FILE] [--baseline FILE] [--tolerance PCT]
//! ```
//!
//! Default: all seven Table 2 workloads at paper scale, three repeats per
//! job, printed to stdout.  With `--baseline FILE` the run additionally
//! compares its events/sec against the committed baseline JSON and exits
//! with status 1 if any job regressed more than `--tolerance` percent
//! (default 30), or if no measured job appears in the baseline — the check
//! behind the CI perf-smoke job.

use std::path::PathBuf;

use dsm_bench::perf;
use dsm_bench::presets::ExperimentScale;
use dsm_core::MachineConfig;

const USAGE: &str = "\
usage: perf [OPTIONS]

options:
  --paper              run the paper's Table 2 problem sizes (default)
  --reduced            run the reduced problem sizes (CI smoke scale)
  --workloads a,b,c    restrict to a comma-separated subset of the seven
                       workloads
  --repeats N          wall-clock repetitions per job; the best is reported
                       (default 3)
  --out FILE           write the JSON report to FILE as well as stdout
  --baseline FILE      compare events/sec against a committed baseline JSON
                       and fail on regression (or if no job matched)
  --tolerance PCT      allowed regression vs the baseline in percent
                       (default 30)
  -h, --help           print this help and exit";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut scale = ExperimentScale::Paper;
    let mut workloads: Vec<String> = splash_workloads::names()
        .into_iter()
        .map(str::to_string)
        .collect();
    let mut repeats: u32 = 3;
    let mut out: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut tolerance_pct: f64 = 30.0;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .filter(|v| !v.starts_with('-'))
                .unwrap_or_else(|| fail(&format!("flag `{flag}` needs a value")))
        };
        match arg.as_str() {
            "--paper" => scale = ExperimentScale::Paper,
            "--reduced" => scale = ExperimentScale::Reduced,
            "--workloads" => {
                workloads = value("--workloads")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
                for w in &workloads {
                    if splash_workloads::by_name(w).is_none() {
                        fail(&format!("unknown workload `{w}`"));
                    }
                }
            }
            "--repeats" => {
                repeats = value("--repeats")
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| fail("bad value for `--repeats`"));
            }
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--baseline" => baseline = Some(PathBuf::from(value("--baseline"))),
            "--tolerance" => {
                tolerance_pct = value("--tolerance")
                    .parse()
                    .ok()
                    .filter(|t: &f64| (0.0..100.0).contains(t))
                    .unwrap_or_else(|| fail("bad value for `--tolerance`"));
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown flag `{other}`")),
        }
    }

    let systems = perf::default_systems(scale);
    let names: Vec<&str> = workloads.iter().map(String::as_str).collect();
    let report = perf::measure(MachineConfig::PAPER, &systems, &names, scale, repeats);

    for job in &report.jobs {
        eprintln!(
            "{:<10} {:<10} {:>9.3}s {:>12} accesses {:>12.0} events/sec",
            job.workload, job.system, job.elapsed_seconds, job.accesses, job.events_per_sec
        );
    }
    let json = perf::to_json(&report);
    println!("{json}");
    if let Some(path) = &out {
        if let Err(e) = perf::write_json(path, &report) {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(2);
        }
    }

    if let Some(path) = &baseline {
        let baseline_json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("reading baseline {}: {e}", path.display())));
        let failures = perf::regression_failures(&report, &baseline_json, tolerance_pct / 100.0);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("perf baseline check failed: {f}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "perf baseline check passed ({} jobs within {tolerance_pct}% of {})",
            perf::compared_jobs(&report, &baseline_json).len(),
            path.display()
        );
    }
}
