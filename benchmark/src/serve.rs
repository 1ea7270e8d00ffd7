//! The `serve` workload: one closed-loop client driving an in-process
//! `SweepService` through `handle_line`.
//!
//! Cold grids (every job misses the cache) run first, each at its own page
//! and block size; then the service restarts on the same cache file and
//! the client resubmits the cold grids, which must be answered entirely
//! from the cache with the cold fingerprints.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

use dsm_bench::CacheKey;
use sweep_service::{Request, ResultCache, SweepService};

use crate::clock;
use crate::json;
use crate::report::Report;
use crate::stats::{median, percentile, Timing};
use crate::trace::{ns_since, SpanLog};

const API_GOLDEN: &str = include_str!("../../tests/golden/api_parity.txt");

/// Sweep threads of the service.
const THREADS: usize = 2;
/// Cold grids per run: the default geometry, then all of [`MENU`].
const COLD_GRIDS: usize = 13;
/// Jobs per grid: 7 workloads x 3 systems plus 7 baselines.
const JOBS: u64 = 28;
/// Fewest warm resubmissions per run: enough for ten samples beyond p99.
const MIN_WARM: usize = 1_000;
/// `(page_bytes, block_bytes)` the seed draws the non-default grids from.
const MENU: [(u64, u64); 12] = [
    (1024, 32),
    (1024, 64),
    (2048, 32),
    (2048, 64),
    (2048, 128),
    (4096, 32),
    (4096, 128),
    (8192, 32),
    (8192, 64),
    (8192, 128),
    (16384, 64),
    (16384, 128),
];
const DEFAULT_GEOMETRY: (u64, u64) = (4096, 64);

/// Catalog system name → its `api_parity` golden key.
const GOLDEN_SYSTEMS: [(&str, &str); 4] = [
    ("CC-NUMA", "cc-numa"),
    ("MigRep", "migrep"),
    ("R-NUMA", "r-numa"),
    ("Perfect-CC-NUMA", "perfect"),
];

/// The cold grids of a run: the default geometry, then the menu in an
/// order drawn from `seed`.  Every run covers the same sizes, so the seed
/// changes which grid meets which state of the cache and the file, not how
/// much work the run does.
pub fn geometries(seed: u64) -> Vec<(u64, u64)> {
    let mut menu = MENU.to_vec();
    let mut state = seed;
    // Fisher-Yates with SplitMix64 draws.
    for i in (1..menu.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        menu.swap(i, (z % (i as u64 + 1)) as usize);
    }
    std::iter::once(DEFAULT_GEOMETRY)
        .chain(menu.into_iter().take(COLD_GRIDS - 1))
        .collect()
}

fn sweep_line(id: &str, (page, block): (u64, u64)) -> String {
    format!(
        r#"{{"kind":"sweep","id":"{id}","name":"serve-{page}-{block}","systems":["cc-numa","migrep","r-numa-paper-cache"],"page_bytes":[{page}],"block_bytes":[{block}]}}"#
    )
}

/// One request's response, as the client saw it.
struct Response {
    secs: f64,
    lines: Vec<String>,
}

fn send(service: &SweepService, line: &str) -> Response {
    let mut lines = Vec::new();
    let start = clock::now();
    service.handle_line(line, &mut |l| lines.push(l));
    Response {
        secs: start.elapsed().as_secs_f64(),
        lines,
    }
}

/// A job event of a sweep response.
struct Event {
    key: String,
    fingerprint: String,
    cached: bool,
    workload: String,
    system: String,
    accesses: f64,
    elapsed: f64,
}

/// Parse and check a sweep response: job events, then one `sweep-done`
/// with the expected cached/simulated counts.
fn parse_response(r: &Response, cached: u64) -> Result<Vec<Event>, String> {
    let (last, events) = r.lines.split_last().ok_or("no response")?;
    let done = json::parse(last)?;
    if done.str("kind") != Some("sweep-done") {
        return Err(format!("terminal line is not sweep-done: {last}"));
    }
    let simulated = JOBS - cached;
    if done.num("cached") != Some(cached as f64) || done.num("simulated") != Some(simulated as f64)
    {
        return Err(format!(
            "expected cached {cached} simulated {simulated}: {last}"
        ));
    }
    let events = events
        .iter()
        .map(|l| {
            let v = json::parse(l)?;
            let s = |k: &str| {
                v.str(k)
                    .map(str::to_string)
                    .ok_or(format!("no `{k}` in {l}"))
            };
            Ok(Event {
                key: s("cache_key")?,
                fingerprint: s("fingerprint")?,
                cached: v.bool("cached").ok_or("no `cached`")?,
                workload: s("workload")?,
                system: s("system")?,
                accesses: v.num("accesses").ok_or("no `accesses`")?,
                elapsed: v.num("elapsed_seconds").ok_or("no `elapsed_seconds`")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if events.len() as u64 != JOBS || events.iter().any(|e| e.cached != (cached == JOBS)) {
        return Err(format!("{} events with wrong cached flags", events.len()));
    }
    Ok(events)
}

fn golden() -> BTreeMap<String, String> {
    API_GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?.to_string(), f.next()?.to_string()))
        })
        .collect()
}

/// `path` as shown to the user: from the checkout's `.bench_work` on.
pub fn shown(path: &Path) -> String {
    let s = path.display().to_string();
    s.find(".bench_work")
        .map_or(s.clone(), |i| s[i..].to_string())
}

fn open_service(path: &Path) -> Result<(f64, SweepService), String> {
    let start = clock::now();
    let cache = ResultCache::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let service = SweepService::new(cache, THREADS);
    Ok((start.elapsed().as_secs_f64(), service))
}

/// Everything the client saw, for the metrics.
#[derive(Default)]
struct Seen {
    setup: Vec<f64>,
    cold_secs: Vec<f64>,
    cold_accesses: f64,
    job_secs: Vec<f64>,
    warm_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    hits: u64,
    lookups: u64,
    /// Cache key → fingerprint of every cold job.
    fingerprints: BTreeMap<String, String>,
    requests: Vec<String>,
}

/// Run the workload.  A traced run (`spans` names its span file) adds the
/// per-layer measurements.
///
/// The run is one cycle per cold grid: the cold request, a restart of the
/// service on its cache file, then fully cached resubmissions of every
/// grid so far until the cycle's share of `seconds` is used.  Spreading
/// the phases over the whole run keeps a burst of load from other guests
/// on the host out of most samples of any one phase.
pub fn run(
    dir: &Path,
    seed: u64,
    seconds: f64,
    spans: Option<&Path>,
    report: &mut Report,
) -> Result<(), String> {
    let traced = spans.is_some();
    let origin = clock::now();
    let cache_path = dir.join("results.cache");
    let golden = golden();
    let grids = geometries(seed);
    let mut seen = Seen::default();
    let mut log = SpanLog::default();
    let (secs, mut service) = open_service(&cache_path)?;
    seen.setup.push(secs);
    let min_warm = MIN_WARM.div_ceil(grids.len());
    for (k, geometry) in grids.iter().enumerate() {
        let line = sweep_line(&format!("cold-{k}"), *geometry);
        report.attempt();
        let start = ns_since(origin);
        let r = send(&service, &line);
        let span = log.interval("serve.cold", None, start, ns_since(origin));
        match parse_response(&r, 0) {
            Ok(events) => {
                let mut ok = true;
                for e in &events {
                    if *geometry == DEFAULT_GEOMETRY {
                        let system = GOLDEN_SYSTEMS
                            .iter()
                            .find(|(n, _)| *n == e.system)
                            .map(|(_, k)| *k);
                        let want = system.and_then(|s| golden.get(&format!("{}/{s}", e.workload)));
                        if want != Some(&e.fingerprint) {
                            report.note(format!(
                                "FAIL cold {}/{} fingerprint {} != golden {want:?}",
                                e.workload, e.system, e.fingerprint
                            ));
                            ok = false;
                        }
                    }
                    seen.fingerprints
                        .insert(e.key.clone(), e.fingerprint.clone());
                    seen.cold_accesses += e.accesses;
                    seen.job_secs.push(e.elapsed);
                }
                let busy: f64 = events.iter().map(|e| e.elapsed).sum();
                log.aggregate(
                    "bench.sweep.job",
                    span,
                    start,
                    ns_since(origin),
                    JOBS,
                    (busy * 1e9) as u64,
                );
                if !ok {
                    report.failed();
                }
                seen.cold_secs.push(r.secs);
            }
            Err(e) => report.fail(format!("cold grid {geometry:?}: {e}")),
        }
        seen.requests.push(line);

        // Restart on the same cache file; the reload is set-up.
        let stats = service.cache_stats();
        seen.hits += stats.hits;
        seen.lookups += stats.hits + stats.misses;
        drop(service);
        let start = ns_since(origin);
        let (secs, reopened) = open_service(&cache_path)?;
        service = reopened;
        log.interval("serve.restart", None, start, ns_since(origin));
        seen.setup.push(secs);
        report.attempt();
        let entries = service.cache_stats().entries;
        if entries != seen.fingerprints.len() {
            report.fail(format!(
                "reload holds {entries} entries, cold grids stored {}",
                seen.fingerprints.len()
            ));
        }

        // Fully cached resubmissions until this cycle's share of the time.
        let until = seconds * (k + 1) as f64 / grids.len() as f64;
        let mut n = 0usize;
        while n < min_warm || origin.elapsed().as_secs_f64() < until {
            let line = seen.requests[n % seen.requests.len()].replacen(
                "\"id\":\"cold-",
                "\"id\":\"warm-",
                1,
            );
            n += 1;
            report.attempt();
            let start = ns_since(origin);
            let r = send(&service, &line);
            let end = ns_since(origin);
            match parse_response(&r, JOBS) {
                Ok(events) => {
                    if let Some(e) = events
                        .iter()
                        .find(|e| seen.fingerprints.get(&e.key) != Some(&e.fingerprint))
                    {
                        report.fail(format!(
                            "warm {} {}: fingerprint {} differs from cold",
                            e.workload, e.system, e.fingerprint
                        ));
                        continue;
                    }
                    let busy: f64 = events.iter().map(|e| e.elapsed).sum();
                    if traced && n <= 2 {
                        let span = log.interval("serve.warm", None, start, end);
                        log.aggregate(
                            "bench.sweep.job",
                            span,
                            start,
                            end,
                            JOBS,
                            (busy * 1e9) as u64,
                        );
                    }
                    seen.warm_ms.push(r.secs * 1e3);
                    seen.overhead_ms.push((r.secs - busy) * 1e3);
                }
                Err(e) => report.fail(format!("warm request: {e}")),
            }
        }
    }
    let stats = service.cache_stats();
    seen.hits += stats.hits;
    seen.lookups += stats.hits + stats.misses;

    if !traced {
        let cold_total: f64 = seen.cold_secs.iter().sum();
        report.metric(
            "events_per_sec",
            if cold_total > 0.0 {
                seen.cold_accesses / cold_total
            } else {
                0.0
            },
            "accesses/s",
        );
        report.timing("setup_s", "s", &seen.setup);
        report.timing("cold_sweep_s", "s", &seen.cold_secs);
        report.timing("request_ms", "ms", &seen.warm_ms);
        return Ok(());
    }

    report.note(Timing::of(&seen.warm_ms).describe("warm request", "ms"));
    report.metric(
        "sweep-service.warm_ms_p99",
        percentile(&seen.warm_ms, 99),
        "ms",
    );
    report.metric(
        "bench.sweep.pool_overhead_ms",
        median(&seen.overhead_ms),
        "ms",
    );
    report.metric("bench.sweep.job_s_p50", median(&seen.job_secs), "s");
    report.metric(
        "sweep-service.cache.load_ms",
        median(&seen.setup[1..]) * 1e3,
        "ms",
    );
    report.metric(
        "sweep-service.cache.hit_ratio",
        if seen.lookups > 0 {
            seen.hits as f64 / seen.lookups as f64
        } else {
            0.0
        },
        "ratio",
    );
    let Seen {
        fingerprints,
        requests,
        ..
    } = seen;

    // Isolated replays of the cache and the request parser.
    let keys: Vec<CacheKey> = fingerprints
        .keys()
        .filter_map(|k| CacheKey::from_hex(k))
        .collect();
    let mut cache = ResultCache::open(&cache_path).map_err(|e| e.to_string())?;
    let rounds = 200;
    let start = clock::now();
    for _ in 0..rounds {
        for k in &keys {
            black_box(cache.lookup(*k));
        }
    }
    report.metric(
        "sweep-service.cache.lookup_us",
        start.elapsed().as_secs_f64() * 1e6 / (rounds * keys.len().max(1)) as f64,
        "us",
    );
    let stored = sweep_service::cache::read_cache_file(&cache_path).map_err(|e| e.to_string())?;
    let insert_path = dir.join("insert.cache");
    let mut fresh = ResultCache::open(&insert_path).map_err(|e| e.to_string())?;
    let start = clock::now();
    for (k, r) in &stored {
        fresh.insert(*k, r);
    }
    report.metric(
        "sweep-service.cache.insert_us",
        start.elapsed().as_secs_f64() * 1e6 / stored.len().max(1) as f64,
        "us",
    );
    let start = clock::now();
    for _ in 0..rounds {
        for line in &requests {
            black_box(Request::parse(line).map_err(|e| e.to_string())?);
        }
    }
    report.metric(
        "sweep-service.proto.parse_us",
        start.elapsed().as_secs_f64() * 1e6 / (rounds * requests.len()) as f64,
        "us",
    );
    // No probe runs inside the service, so tracing costs it nothing.
    report.metric("trace.overhead_share", 0.0, "ratio");
    if let Some(path) = spans {
        std::fs::write(path, log.to_jsonl()).map_err(|e| e.to_string())?;
        report.note(format!(
            "spans: {} written to {}",
            log.spans().len(),
            shown(path)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_order_every_menu_grid_after_the_default() {
        let a = geometries(1);
        assert_eq!(a.len(), COLD_GRIDS);
        assert_eq!(a[0], DEFAULT_GEOMETRY);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), COLD_GRIDS, "every grid misses the cache");
        assert_eq!(geometries(1), a, "same seed, same grids");
        assert!((2..40).any(|s| geometries(s) != a), "seeds vary the grids");
    }

    #[test]
    fn responses_are_checked_for_counts_and_cached_flags() {
        let event = |cached: bool| {
            format!(
                r#"{{"kind":"point","cache_key":"k","fingerprint":"0x1","cached":{cached},"workload":"lu","system":"CC-NUMA","accesses":10,"elapsed_seconds":0.5}}"#
            )
        };
        let done = |c: u64| {
            format!(
                r#"{{"kind":"sweep-done","cached":{c},"simulated":{}}}"#,
                JOBS - c
            )
        };
        let mut lines: Vec<String> = (0..JOBS).map(|_| event(true)).collect();
        lines.push(done(JOBS));
        let r = Response { secs: 0.1, lines };
        assert_eq!(parse_response(&r, JOBS).unwrap().len(), JOBS as usize);
        assert!(
            parse_response(&r, 0).is_err(),
            "cold counts do not match a warm answer"
        );
        let mut lines: Vec<String> = (0..JOBS).map(|_| event(false)).collect();
        lines.push(done(JOBS));
        let r = Response { secs: 0.1, lines };
        assert!(
            parse_response(&r, JOBS).is_err(),
            "a simulated job in a warm answer"
        );
        let r = Response {
            secs: 0.1,
            lines: vec![r#"{"kind":"error","message":"x"}"#.to_string()],
        };
        assert!(parse_response(&r, 0).is_err());
    }
}
