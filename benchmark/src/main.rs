//! The repository benchmark: `paper`, `wide` and `serve` workloads,
//! end-to-end metrics from an untraced run and a per-layer ledger from a
//! separate traced run.  See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper --seed 915265953792 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod clock;
mod json;
mod layers;
mod report;
mod serve;
mod sim;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// The workloads, in `BENCHMARK.json` order, with why each exists.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "paper",
        "paper-scale 8x4 radix, cholesky, raytrace under CC-NUMA, MigRep, R-NUMA with fused generators: generator, L1, policy and page-cache work",
    ),
    (
        "wide",
        "256-node radix and barnes replayed from DSMTRC01 recordings: hierarchical sharer sets, remote misses, relocations; no generator work",
    ),
    (
        "serve",
        "in-process sweep service, closed loop: cold grids that simulate and insert, a restart, then fully cached resubmissions",
    ),
];

/// End-to-end metrics: `(name, unit, better, bound)`.
///
/// Every bound is the largest allowed.  On the shared two-vCPU virtual
/// machine this was tuned on, ten runs of unchanged code had quartile
/// spreads of 4-24% on the timing metrics, depending on how busy the
/// other guests kept the host; a tighter bound would reject unchanged code.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("events_per_sec", "accesses/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("cold_sweep_s", "s", "lower", 0.25),
    ("request_ms", "ms", "lower", 0.25),
];

/// Per-layer metrics other than the per-job times: `(name, unit, better)`.
const LAYERS: [(&str, &str, &str); 38] = [
    ("splash-workloads.share", "ratio", "lower"),
    ("splash-workloads.ns_per_event", "ns/event", "lower"),
    ("mem-trace.replay.share", "ratio", "lower"),
    ("mem-trace.replay.ns_per_event", "ns/event", "lower"),
    ("mem-trace.source.events_per_call", "events/call", "higher"),
    ("mem-trace.intern.ns_per_op", "ns/op", "lower"),
    ("mem-trace.intern.same_page_ratio", "ratio", "higher"),
    ("sim-engine.sched.ns_per_op", "ns/op", "lower"),
    ("smp-node.cache.ns_per_access", "ns/access", "lower"),
    ("smp-node.cache.hit_ratio", "ratio", "higher"),
    ("dsm-protocol.directory.ns_per_op", "ns/op", "lower"),
    ("mem-trace.sharers.ns_per_op", "ns/op", "lower"),
    ("mem-trace.sharers.wide_share", "ratio", "lower"),
    ("dsm-protocol.block_cache.ns_per_op", "ns/op", "lower"),
    ("dsm-protocol.page_cache.ns_per_op", "ns/op", "lower"),
    ("dsm-protocol.page_cache.relocations", "count", "lower"),
    ("dsm-protocol.page_cache.replacements", "count", "lower"),
    ("dsm-protocol.network.ns_per_msg", "ns/msg", "lower"),
    (
        "dsm-protocol.network.msgs_per_access",
        "msgs/access",
        "lower",
    ),
    ("dsm-protocol.network.bytes_per_access", "B/access", "lower"),
    ("dsm-protocol.remote_miss_ratio", "ratio", "lower"),
    ("smp-node.bus.ns_per_tx", "ns/tx", "lower"),
    ("core.policy.calls_per_access", "calls/access", "lower"),
    ("core.policy.ns_per_call", "ns/call", "lower"),
    ("core.policy.page_ops", "count", "lower"),
    ("core.simulator.ns_per_access", "ns/access", "lower"),
    ("core.simulator.self_share", "ratio", "lower"),
    ("layers.sum_ns_per_access", "ns/access", "lower"),
    ("layers.unattributed_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("bench.sweep.pool_overhead_ms", "ms", "lower"),
    ("bench.sweep.job_s_p50", "s", "lower"),
    ("sweep-service.warm_ms_p99", "ms", "lower"),
    ("sweep-service.cache.load_ms", "ms", "lower"),
    ("sweep-service.cache.lookup_us", "us", "lower"),
    ("sweep-service.cache.insert_us", "us", "lower"),
    ("sweep-service.cache.hit_ratio", "ratio", "higher"),
    ("sweep-service.proto.parse_us", "us", "lower"),
];

/// The per-job labels of the two simulation workloads.
const JOBS: [&str; 12] = [
    "radix.cc-numa",
    "radix.migrep",
    "radix.r-numa",
    "cholesky.cc-numa",
    "cholesky.migrep",
    "cholesky.r-numa",
    "raytrace.cc-numa",
    "raytrace.migrep",
    "raytrace.r-numa",
    "radix-256.r-numa",
    "barnes-256.migrep",
    "barnes-256.r-numa",
];

/// Every per-layer metric: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    LAYERS
        .iter()
        .map(|(n, u, b)| (n.to_string(), *u, *b))
        .chain(JOBS.iter().map(|j| (format!("job.{j}.s"), "s", "lower")))
        .collect()
}

/// Per-layer metrics that must be nonzero on `workload` (the layers it
/// exercises); the rest may read 0 where the workload does no such work.
fn exercised(workload: &str, name: &str) -> bool {
    let sim = workload != "serve";
    match name {
        n if n.starts_with("job.") => {
            let wide_job = n.contains("-256.");
            sim && (workload == "wide") == wide_job
        }
        n if n.starts_with("splash-workloads.") => workload == "paper",
        n if n.starts_with("mem-trace.replay.") => workload == "wide",
        "mem-trace.sharers.wide_share" => workload == "wide",
        "dsm-protocol.block_cache.ns_per_op" => workload == "paper",
        // The serve tracer adds nothing inside the service; unattributed
        // time may legitimately be zero or negative.
        "trace.overhead_share" | "layers.unattributed_share" => false,
        n if n.starts_with("bench.") || n.starts_with("sweep-service.") => !sim,
        _ => sim,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(sim::parse_u64(&value()?).ok_or("--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or("--seconds takes a number in (0, 600]")?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!(
            "unknown workload `{workload}` (paper, wide, serve)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(sim::DEFAULT_SEED),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    // Scratch files live in the checkout, one directory per process.
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".bench_work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    // The span file outlives the run; everything else in `work` does not.
    let spans = work.with_file_name(format!("spans-{}.jsonl", args.workload));
    let outcome = match args.workload.as_str() {
        "serve" => serve::run(
            &work,
            args.seed,
            args.seconds,
            args.trace.then_some(&*spans),
            report,
        ),
        w => {
            let suite = if w == "paper" {
                Ok(sim::paper_suite(args.seed, report))
            } else {
                sim::wide_suite(&work)
            };
            suite.map(|mut suite| {
                if args.trace {
                    sim::traced(&mut suite, args.seconds, &spans, report);
                } else {
                    let passes = sim::untraced(&mut suite, args.seconds, report);
                    sim::end_to_end(&suite, &passes, report);
                }
            })
        }
    };
    if !args.trace {
        report.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    }
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload paper|wide|serve --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    if let Err(e) = run(&args, &mut report) {
        report.attempt();
        report.fail(e);
    }
    let expected: Vec<(String, &'static str, bool)> = if args.trace {
        per_layer()
            .into_iter()
            .map(|(n, u, _)| {
                let must = exercised(&args.workload, &n);
                (n, u, must)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u, _, _)| (n.to_string(), *u, true))
            .collect()
    };
    for line in report.render(&expected) {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// program prints, and survives a parse/render round trip.
    #[test]
    fn benchmark_json_round_trips_and_matches_the_registry() {
        let v = parse(BENCHMARK).unwrap();
        assert_eq!(parse(&v.render()).unwrap(), v);
        let keys: Vec<&String> = match &v {
            Value::Obj(m) => m.keys().collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let workloads: Vec<(&str, &str)> = v
            .arr("workloads")
            .unwrap()
            .iter()
            .map(|w| (w.str("name").unwrap(), w.str("why").unwrap()))
            .collect();
        assert_eq!(workloads, WORKLOADS.to_vec());
        let e2e: Vec<(&str, &str, &str, f64)> = v
            .arr("end_to_end")
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.str("name").unwrap(),
                    m.str("unit").unwrap(),
                    m.str("better").unwrap(),
                    m.num("bound").unwrap(),
                )
            })
            .collect();
        assert_eq!(e2e, END_TO_END.to_vec());
        let layers: Vec<(String, &str, &str)> = v
            .arr("per_layer")
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.str("name").unwrap().to_string(),
                    m.str("unit").unwrap(),
                    m.str("better").unwrap(),
                )
            })
            .collect();
        assert_eq!(layers, per_layer());
        assert!(END_TO_END
            .iter()
            .any(|(n, u, b, _)| *n == "setup_s" && *u == "s" && *b == "lower"));
        let setup_bound = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap().3;
        assert!(END_TO_END.iter().all(|m| m.3 <= setup_bound && m.3 <= 0.25));
    }

    #[test]
    fn every_workload_exercises_some_layers_and_leaves_others_idle() {
        for (w, _) in WORKLOADS {
            let names = per_layer();
            assert!(names.iter().any(|(n, _, _)| exercised(w, n)), "{w}");
            assert!(names.iter().any(|(n, _, _)| !exercised(w, n)), "{w}");
        }
        assert!(exercised("paper", "job.radix.cc-numa.s"));
        assert!(!exercised("paper", "job.radix-256.r-numa.s"));
        assert!(exercised("wide", "job.radix-256.r-numa.s"));
        assert!(exercised("serve", "sweep-service.proto.parse_us"));
        assert!(!exercised("serve", "core.policy.calls_per_access"));
    }
}
