//! `trend` — tabulate the measured perf trajectory from every committed
//! `BENCH_*.json`, ordered by PR number: the mean events/sec of a `perf`
//! report, or one row per workload of a benchmark-pairs file (the change
//! side's median with its quartiles), with per-series speedups.  Files it
//! cannot read are listed after the table.
//!
//! ```text
//! trend [DIR]
//! ```
//!
//! `DIR` defaults to the current directory (the repo root holds the
//! `BENCH_*.json` trajectory).

use dsm_bench::perf;
use std::path::PathBuf;

const USAGE: &str = "\
usage: trend [DIR]

Tabulates events/sec across all BENCH_*.json files in DIR (default: the
current directory), ordered by PR number: perf reports give their mean,
benchmark-pairs files one row per workload with the change side's median
and [q1, q3].  Files that cannot be read are listed after the table; exits
1 when no file gives a row.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return;
    }
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("error: unknown flag `{flag}`\n{USAGE}");
        std::process::exit(2);
    }
    if args.len() > 1 {
        eprintln!("error: at most one DIR argument\n{USAGE}");
        std::process::exit(2);
    }
    let dir = args
        .first()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));

    let trend = match perf::collect_trend(&dir) {
        Ok(trend) => trend,
        Err(e) => {
            eprintln!("error: scanning {}: {e}", dir.display());
            std::process::exit(2);
        }
    };
    if trend.entries.is_empty() && trend.unreadable.is_empty() {
        eprintln!("no BENCH_*.json files found in {}", dir.display());
        std::process::exit(1);
    }
    print!("{}", perf::format_trend(&trend));
    if trend.entries.is_empty() {
        std::process::exit(1);
    }
}
