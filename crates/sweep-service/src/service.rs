//! Request execution: the bridge between the wire protocol and the sweep
//! engine.
//!
//! [`SweepService`] owns the [`ResultCache`] and handles one request at a
//! time, emitting response lines through a caller-supplied sink (stdout,
//! a Unix-socket stream, or a test buffer).  Sweeps run on
//! [`Sweep::run_streaming`]: each job consults the cache once by its
//! content address, on the request thread, and a hit is emitted right
//! there; only the misses reach worker threads.  Each simulated job is
//! emitted to the client the moment it finishes, and its result is
//! inserted back into the cache (and its backing file) before the next
//! client could ask for it.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::cache::{CacheStats, ResultCache};
use crate::catalog;
use crate::proto::{
    cache_stats_line, error_line, event_line, ok_line, report_line, sweep_done_line, trend_line,
    Request, SweepCounts, SweepSpec,
};
use dsm_bench::sweep::default_threads;
use dsm_bench::{json, perf, report, ExperimentScale, Sweep, SweepEvent, SweepResult};
use dsm_core::{MachineConfig, SystemConfig};

/// What the connection loop should do after a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep serving.
    Continue,
    /// Stop the server (a `shutdown` request was acknowledged).
    Shutdown,
}

/// A sweep server: the result cache plus execution defaults.
#[derive(Debug)]
pub struct SweepService {
    cache: Mutex<ResultCache>,
    /// Worker threads for requests that don't choose, and the most any
    /// request may use (`0` = one per core).
    threads: usize,
}

impl SweepService {
    /// A service over an existing cache.  `threads` is each request's
    /// worker-thread budget; 0 means one per core.
    pub fn new(cache: ResultCache, threads: usize) -> Self {
        SweepService {
            cache: Mutex::new(cache),
            threads,
        }
    }

    /// A service with a process-local (non-persistent) cache.
    pub fn in_memory() -> Self {
        Self::new(ResultCache::in_memory(), 0)
    }

    /// The cache, with poison recovery: a sweep worker that panicked can
    /// only have poisoned the lock *between* whole-entry operations (lookup
    /// and insert don't hold it across user code), so the map itself is
    /// intact and — entries being content-addressed and append-only — at
    /// worst missing one insert.  A long-running server must keep serving;
    /// panicking here would turn one failed request into a dead process.
    fn cache(&self) -> MutexGuard<'_, ResultCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache().stats()
    }

    /// Handle one request line, emitting every response line (streamed
    /// events, then exactly one terminal object) through `emit`.
    pub fn handle_line(&self, line: &str, emit: &mut (dyn FnMut(String) + Send)) -> Action {
        let request = match Request::parse(line) {
            Ok(r) => r,
            Err(e) => {
                // The id is unknown when the line didn't parse at all; fish
                // it out if the JSON was well-formed enough to carry one.
                let id = json::parse(line)
                    .ok()
                    .and_then(|v| v.get_str("id").map(str::to_string))
                    .unwrap_or_default();
                emit(error_line(&id, &e));
                return Action::Continue;
            }
        };
        match request {
            Request::Sweep { id, spec } => {
                match self.run_sweep(&id, &spec, emit) {
                    Ok((result, counts, elapsed)) => {
                        emit(sweep_done_line(&id, &result.name, counts, elapsed));
                    }
                    Err(e) => emit(error_line(&id, &e)),
                }
                Action::Continue
            }
            Request::Report {
                id,
                spec,
                rows,
                cols,
                metric,
            } => {
                let mut run = || -> Result<String, String> {
                    // Resolve the pivot before running anything: a typo'd
                    // axis must not cost a sweep.
                    let rows = catalog::axis_by_name(&rows)?;
                    let cols = catalog::axis_by_name(&cols)?;
                    let metric = catalog::metric_by_name(&metric)?;
                    let (result, _, _) = self.run_sweep(&id, &spec, emit)?;
                    Ok(report_line(
                        &id,
                        &report::format_sweep_table(&result, rows, cols, metric),
                        &report::format_sweep_points(&result),
                        &report::sweep_to_csv(&result),
                    ))
                };
                match run() {
                    Ok(line) => emit(line),
                    Err(e) => emit(error_line(&id, &e)),
                }
                Action::Continue
            }
            Request::Trend { id, dir } => {
                match perf::collect_trend(std::path::Path::new(&dir)) {
                    Ok(trend) => emit(trend_line(
                        &id,
                        &dir,
                        trend.entries.len(),
                        &perf::format_trend(&trend),
                    )),
                    Err(e) => emit(error_line(&id, &format!("cannot scan `{dir}`: {e}"))),
                }
                Action::Continue
            }
            Request::CacheStats { id } => {
                emit(cache_stats_line(&id, &self.cache_stats()));
                Action::Continue
            }
            Request::Shutdown { id } => {
                emit(ok_line(&id));
                Action::Shutdown
            }
        }
    }

    /// Build and run one sweep, streaming events, consulting and feeding
    /// the cache.
    fn run_sweep(
        &self,
        id: &str,
        spec: &SweepSpec,
        emit: &mut (dyn FnMut(String) + Send),
    ) -> Result<(SweepResult, SweepCounts, f64), String> {
        let sweep = self.build_sweep(spec)?;
        // dsm-lint: allow(wall-clock, reports request latency to the client; sim time comes from the cost model)
        let start = Instant::now(); // dsm-lint: allow(det-taint, request latency reporting to the client; sim results and fingerprints never derive from it)
        let mut counts = SweepCounts::default();
        let result = sweep.run_streaming(
            |_, key| self.cache().lookup_with_fingerprint(key),
            |event| {
                if !event.cached() {
                    self.cache().insert_with_fingerprint(
                        event.cache_key(),
                        event.result(),
                        event.fingerprint(),
                    );
                }
                match event {
                    SweepEvent::Baseline { .. } => counts.baselines += 1,
                    SweepEvent::Point { .. } => counts.points += 1,
                }
                if event.cached() {
                    counts.cached += 1;
                } else {
                    counts.simulated += 1;
                }
                emit(event_line(id, &event));
            },
        );
        Ok((result, counts, start.elapsed().as_secs_f64()))
    }

    /// Resolve a [`SweepSpec`]'s names against the catalog into a runnable
    /// [`Sweep`].  Every unknown name becomes an `Err` before any job runs.
    fn build_sweep(&self, spec: &SweepSpec) -> Result<Sweep, String> {
        let scale_labels: Vec<&str> = if spec.scales.is_empty() {
            vec!["reduced"]
        } else {
            spec.scales.iter().map(String::as_str).collect()
        };
        let scales = scale_labels
            .iter()
            .map(|l| catalog::parse_scale(l))
            .collect::<Result<Vec<ExperimentScale>, _>>()?;
        // System templates (page cache, thresholds) follow the *first*
        // requested scale; further swept scales rescale the workloads but
        // not the templates.  Documented protocol behaviour — sweep one
        // scale per request when the templates must track the scale.
        let template_scale = scales[0];

        if spec.systems.is_empty() {
            return Err("`systems` must name at least one compared system".to_string());
        }
        let systems = spec
            .systems
            .iter()
            .map(|name| catalog::system_by_name(name, template_scale))
            .collect::<Result<Vec<_>, _>>()?;
        let baseline = spec.baseline.as_deref().unwrap_or("perfect-cc-numa");
        let baseline = catalog::system_by_name(baseline, template_scale)?;
        check_machine_axes(spec, systems.iter().chain([&baseline]))?;
        let mut sweep = Sweep::new(spec.name.clone()).scales(scales);
        for system in systems {
            sweep = sweep.system(system);
        }
        sweep = sweep.baseline(baseline);

        if let Some(workloads) = &spec.workloads {
            if workloads.is_empty() {
                return Err("`workloads` must name at least one workload".to_string());
            }
            for w in workloads {
                if splash_workloads::by_name(w).is_none() {
                    let known = splash_workloads::names().join(", ");
                    return Err(format!("unknown workload `{w}` (known: {known})"));
                }
            }
            sweep = sweep.workloads(workloads.clone());
        }

        if !spec.nodes.is_empty() {
            sweep = sweep.cluster_nodes(spec.nodes.iter().copied());
        }
        if !spec.procs_per_node.is_empty() {
            sweep = sweep.procs_per_node(spec.procs_per_node.iter().copied());
        }
        if !spec.page_bytes.is_empty() {
            sweep = sweep.page_bytes(spec.page_bytes.iter().copied());
        }
        if !spec.block_bytes.is_empty() {
            sweep = sweep.block_bytes(spec.block_bytes.iter().copied());
        }
        for name in &spec.costs {
            sweep = sweep.cost(name.clone(), catalog::cost_by_name(name)?);
        }
        if !spec.relocation_delays.is_empty() {
            sweep = sweep.relocation_delays(spec.relocation_delays.iter().copied());
        }
        let budget = if self.threads > 0 {
            self.threads
        } else {
            default_threads()
        };
        Ok(sweep.threads(request_threads(spec.threads, budget)))
    }
}

/// Processors a machine may have: processor ids are 16-bit.
const MAX_PROCS: u64 = 1 << 16;

/// Distinct pages the page interner must be able to index at every swept
/// geometry.  Its dense block indices are `u32`, so a page of `b` blocks
/// leaves room for `u32::MAX / b` pages; this floor holds every Table 2
/// footprint and caps a page at 32768 blocks.
const MIN_INTERNED_PAGES: u64 = 1 << 16;

/// Reject machine axes no simulator can be built for — before any job runs,
/// naming the request key and the value.  Empty axes stand for the paper
/// machine's value, and sizes are checked in every page x block pairing
/// against the L1 and every system's block and page cache.
fn check_machine_axes<'a>(
    spec: &SweepSpec,
    systems: impl Iterator<Item = &'a SystemConfig>,
) -> Result<(), String> {
    let base = MachineConfig::PAPER;
    for (key, values) in [
        ("nodes", &spec.nodes),
        ("procs_per_node", &spec.procs_per_node),
    ] {
        if values.contains(&0) {
            return Err(format!("`{key}` value 0: a machine needs at least one"));
        }
    }
    for (key, values) in [
        ("page_bytes", &spec.page_bytes),
        ("block_bytes", &spec.block_bytes),
    ] {
        if let Some(v) = values.iter().find(|v| !v.is_power_of_two()) {
            return Err(format!("`{key}` value {v} is not a power of two"));
        }
    }
    let or_base = |values: &[u16], base: u16| -> Vec<u64> {
        let values = if values.is_empty() {
            &[base][..]
        } else {
            values
        };
        values.iter().map(|&v| u64::from(v)).collect()
    };
    for n in or_base(&spec.nodes, base.topology.nodes) {
        for p in or_base(&spec.procs_per_node, base.topology.procs_per_node) {
            if n * p > MAX_PROCS {
                return Err(format!(
                    "`nodes` value {n} with `procs_per_node` value {p} makes {} processors; \
                     at most {MAX_PROCS} fit the processor ids",
                    n * p
                ));
            }
        }
    }
    let pages = if spec.page_bytes.is_empty() {
        vec![base.geometry.page_bytes]
    } else {
        spec.page_bytes.clone()
    };
    let blocks = if spec.block_bytes.is_empty() {
        vec![base.geometry.block_bytes]
    } else {
        spec.block_bytes.clone()
    };
    for &block in &blocks {
        if block > base.l1.size_bytes {
            return Err(format!(
                "`block_bytes` value {block} exceeds the {} B L1 cache",
                base.l1.size_bytes
            ));
        }
        for &page in &pages {
            if block > page {
                return Err(format!(
                    "`block_bytes` value {block} exceeds `page_bytes` value {page}"
                ));
            }
            let per_page = page / block;
            if per_page > u64::from(u32::MAX) / MIN_INTERNED_PAGES {
                return Err(format!(
                    "`page_bytes` value {page} holds {per_page} blocks of `block_bytes` value \
                     {block}; the page interner indexes at most {} per page",
                    u64::from(u32::MAX) / MIN_INTERNED_PAGES
                ));
            }
        }
    }
    for system in systems {
        if let Some(cache) = system.block_cache {
            if let Some(&block) = blocks.iter().find(|&&b| cache.lines_at(b) == Some(0)) {
                return Err(format!(
                    "`block_bytes` value {block} exceeds the block cache of `{}`",
                    system.name
                ));
            }
        }
        if let Some(cache) = system.page_cache {
            if let Some(&page) = pages.iter().find(|&&p| cache.frames_at(p) == Some(0)) {
                return Err(format!(
                    "`page_bytes` value {page} exceeds the page cache of `{}`",
                    system.name
                ));
            }
        }
    }
    Ok(())
}

/// The worker threads a request runs with: its own `"threads"`, clamped to
/// `1..=budget`, or the whole budget when it names none.  The budget is the
/// server's `--threads`, else one per core, so no request can make a sweep
/// phase start more threads than the server was given.
fn request_threads(requested: Option<u64>, budget: usize) -> usize {
    requested.map_or(budget, |t| {
        usize::try_from(t).unwrap_or(usize::MAX).clamp(1, budget)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_bench::json::parse;

    /// A sweep small enough for unit tests: one workload at 1/32 of the
    /// paper's data sets on a 2x2-machine grid point.
    const TINY: &str = r#"{"kind":"sweep","id":"t1","name":"tiny","workloads":["ocean"],
        "systems":["cc-numa"],"scale":"x1/32","nodes":[2],"procs_per_node":[2],"threads":2}"#;

    fn collect(service: &SweepService, line: &str) -> (Vec<String>, Action) {
        let mut lines = Vec::new();
        let action = service.handle_line(line, &mut |l| lines.push(l));
        (lines, action)
    }

    #[test]
    fn sweep_streams_jobs_then_a_terminal_and_caches_the_results() {
        let service = SweepService::in_memory();
        let (lines, action) = collect(&service, TINY);
        assert_eq!(action, Action::Continue);
        assert_eq!(lines.len(), 3, "baseline + point + sweep-done: {lines:?}");
        let kinds: Vec<String> = lines
            .iter()
            .map(|l| parse(l).unwrap().get_str("kind").unwrap().to_string())
            .collect();
        assert_eq!(kinds, vec!["baseline", "point", "sweep-done"]);
        for l in &lines {
            assert_eq!(parse(l).unwrap().get_str("id"), Some("t1"));
        }
        let done = parse(&lines[2]).unwrap();
        assert_eq!(done.get_u64("points"), Some(1));
        assert_eq!(done.get_u64("baselines"), Some(1));
        assert_eq!(done.get_u64("cached"), Some(0));
        assert_eq!(done.get_u64("simulated"), Some(2));

        let point = parse(&lines[1]).unwrap();
        assert_eq!(point.get_str("workload"), Some("ocean"));
        assert_eq!(point.get_str("system"), Some("CC-NUMA"));
        assert_eq!(point.get_u64("nodes"), Some(2));
        assert_eq!(point.get("cached").unwrap(), &json::Value::Bool(false));
        assert!(point.get("normalized_time").unwrap().as_f64().unwrap() >= 0.99);
        assert_eq!(point.get_str("cache_key").unwrap().len(), 32);

        // Resubmission: everything from cache, identical fingerprints.
        let (warm, _) = collect(&service, TINY);
        assert_eq!(warm.len(), 3);
        let warm_done = parse(&warm[2]).unwrap();
        assert_eq!(warm_done.get_u64("cached"), Some(2), "all jobs cached");
        assert_eq!(warm_done.get_u64("simulated"), Some(0));
        for (cold_line, warm_line) in lines[..2].iter().zip(&warm[..2]) {
            let c = parse(cold_line).unwrap();
            let w = parse(warm_line).unwrap();
            assert_eq!(c.get_str("fingerprint"), w.get_str("fingerprint"));
            assert_eq!(c.get_str("cache_key"), w.get_str("cache_key"));
            assert_eq!(w.get("cached").unwrap(), &json::Value::Bool(true));
        }
        let stats = service.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn request_threads_are_clamped_to_the_server_budget() {
        assert_eq!(request_threads(Some(u64::MAX), 4), 4);
        assert_eq!(request_threads(Some(5), 4), 4);
        assert_eq!(request_threads(Some(3), 4), 3);
        assert_eq!(request_threads(Some(1), 4), 1);
        assert_eq!(request_threads(Some(0), 4), 1);
        assert_eq!(request_threads(None, 4), 4);
        assert_eq!(request_threads(Some(u64::MAX), 1), 1);
    }

    #[test]
    fn streamed_results_match_a_one_shot_sweep_run() {
        use dsm_bench::ExperimentScale;
        use dsm_core::System;
        use splash_workloads::CustomScale;
        let service = SweepService::in_memory();
        let (lines, _) = collect(&service, TINY);
        let direct = Sweep::new("direct")
            .workloads(["ocean"])
            .system(System::cc_numa().build())
            .scale(ExperimentScale::Custom(CustomScale::new(1, 32)))
            .cluster_nodes([2])
            .procs_per_node([2])
            .threads(2)
            .run();
        let served_point = parse(&lines[1]).unwrap();
        assert_eq!(
            served_point.get_str("fingerprint").unwrap(),
            format!("{:#018x}", direct.points[0].result.fingerprint()),
            "service point diverged from a one-shot Sweep::run"
        );
        let served_baseline = parse(&lines[0]).unwrap();
        assert_eq!(
            served_baseline.get_str("fingerprint").unwrap(),
            format!("{:#018x}", direct.baselines[0].result.fingerprint())
        );
        assert_eq!(
            served_point.get_str("cache_key").unwrap(),
            direct.points[0].cache_key.to_hex()
        );
    }

    #[test]
    fn unknown_names_error_before_any_job_runs() {
        let service = SweepService::in_memory();
        for (bad, needle) in [
            (
                r#"{"kind":"sweep","id":"e","systems":["warp-drive"]}"#,
                "unknown system",
            ),
            (
                r#"{"kind":"sweep","id":"e","workloads":["doom"]}"#,
                "unknown workload",
            ),
            (
                r#"{"kind":"sweep","id":"e","scale":"big"}"#,
                "unknown scale",
            ),
            (
                r#"{"kind":"sweep","id":"e","costs":["free"]}"#,
                "unknown cost",
            ),
            (r#"{"kind":"sweep","id":"e","systems":[]}"#, "at least one"),
            (
                r#"{"kind":"sweep","id":"e","workloads":[]}"#,
                "at least one",
            ),
            (
                r#"{"kind":"report","id":"e","rows":"sideways"}"#,
                "unknown axis",
            ),
            (
                r#"{"kind":"report","id":"e","metric":"vibes"}"#,
                "unknown metric",
            ),
            (r#"{"kind":"wat","id":"e"}"#, "unknown request kind"),
            (r#"not json"#, "bad literal"),
        ] {
            let (lines, action) = collect(&service, bad);
            assert_eq!(action, Action::Continue);
            assert_eq!(lines.len(), 1, "one error line for {bad}: {lines:?}");
            let v = parse(&lines[0]).unwrap();
            assert_eq!(v.get_str("kind"), Some("error"), "{bad}");
            assert!(
                v.get_str("message").unwrap().contains(needle),
                "message for {bad} should contain `{needle}`: {lines:?}"
            );
        }
        assert_eq!(service.cache_stats().entries, 0, "no job ran");
        // A malformed line that still carries an id echoes it back.
        let (lines, _) = collect(&service, r#"{"kind":"wat","id":"echo-me"}"#);
        assert_eq!(parse(&lines[0]).unwrap().get_str("id"), Some("echo-me"));
    }

    #[test]
    fn bad_machine_axes_error_and_the_server_keeps_serving() {
        let service = SweepService::in_memory();
        let sweep = |axes: &str| {
            format!(
                r#"{{"kind":"sweep","id":"g","workloads":["ocean"],"systems":["cc-numa"],
                    "scale":"x1/32","threads":1,{axes}}}"#
            )
        };
        for (axes, needles) in [
            (r#""nodes":[0]"#, ["`nodes`", "0"]),
            (r#""procs_per_node":[2,0]"#, ["`procs_per_node`", "0"]),
            (
                r#""nodes":[512],"procs_per_node":[512]"#,
                ["`nodes`", "512"],
            ),
            (r#""page_bytes":[1000]"#, ["`page_bytes`", "1000"]),
            (r#""block_bytes":[8192]"#, ["`block_bytes`", "8192"]),
            (
                r#""page_bytes":[2048],"block_bytes":[4096]"#,
                ["`block_bytes`", "4096"],
            ),
            (
                r#""page_bytes":[1099511627776]"#,
                ["`page_bytes`", "1099511627776"],
            ),
            (
                r#""block_bytes":[32768],"page_bytes":[65536]"#,
                ["`block_bytes`", "32768"],
            ),
        ] {
            let (lines, action) = collect(&service, &sweep(axes));
            assert_eq!(action, Action::Continue);
            assert_eq!(lines.len(), 1, "one error line for {axes}: {lines:?}");
            let v = parse(&lines[0]).unwrap();
            assert_eq!(v.get_str("kind"), Some("error"), "{axes}");
            let message = v.get_str("message").unwrap();
            for needle in needles {
                assert!(
                    message.contains(needle),
                    "`{needle}` missing for {axes}: {message}"
                );
            }
            // The next request is answered.
            let (lines, _) = collect(&service, r#"{"kind":"cache-stats","id":"c"}"#);
            assert_eq!(
                parse(&lines[0]).unwrap().get_str("kind"),
                Some("cache-stats")
            );
        }
        // Page sizes past a page cache are named with the system.
        let (lines, _) = collect(
            &service,
            r#"{"kind":"sweep","id":"g","workloads":["ocean"],"systems":["r-numa"],
                "scale":"x1/32","page_bytes":[268435456],"block_bytes":[16384]}"#,
        );
        let v = parse(&lines[0]).unwrap();
        assert_eq!(v.get_str("kind"), Some("error"));
        assert!(
            v.get_str("message").unwrap().contains("page cache"),
            "{lines:?}"
        );
        assert_eq!(service.cache_stats().entries, 0, "no job ran");
    }

    #[test]
    fn duplicate_jobs_in_a_phase_are_simulated_once() {
        let service = SweepService::in_memory();
        let (lines, _) = collect(
            &service,
            r#"{"kind":"sweep","id":"d","workloads":["ocean"],"systems":["cc-numa","cc-numa"],
                "scale":"x1/32","nodes":[2],"procs_per_node":[2],"threads":1}"#,
        );
        let done = parse(lines.last().unwrap()).unwrap();
        assert_eq!(done.get_u64("simulated"), Some(2), "{lines:?}");
        assert_eq!(done.get_u64("cached"), Some(1), "{lines:?}");
        let points: Vec<_> = lines
            .iter()
            .map(|l| parse(l).unwrap())
            .filter(|v| v.get_str("kind") == Some("point"))
            .collect();
        assert_eq!(points.len(), 2);
        assert_eq!(
            points[0].get_str("fingerprint"),
            points[1].get_str("fingerprint")
        );
        // The copy is answered after the point it copies.
        assert_eq!(points[0].get("cached"), Some(&json::Value::Bool(false)));
        assert_eq!(points[1].get("cached"), Some(&json::Value::Bool(true)));
        assert_eq!(service.cache_stats().entries, 2);
    }

    #[test]
    fn report_requests_render_the_sweep_artifacts() {
        let service = SweepService::in_memory();
        let (lines, _) = collect(
            &service,
            r#"{"kind":"report","id":"r1","workloads":["ocean"],"systems":["cc-numa"],
                "scale":"x1/32","nodes":[2],"procs_per_node":[2],"threads":2,
                "rows":"system","cols":"workload","metric":"normalized_time"}"#,
        );
        let last = parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get_str("kind"), Some("report"), "{lines:?}");
        let table = last.get_str("table").unwrap();
        assert!(
            table.contains("CC-NUMA") && table.contains("ocean"),
            "{table}"
        );
        let csv = last.get_str("csv").unwrap();
        assert!(csv.starts_with("nodes,"), "{csv}");
        assert!(csv.contains("cache_key,fingerprint"), "{csv}");
        let listing = last.get_str("listing").unwrap();
        assert!(listing.contains("cache_key"), "{listing}");
        // The sweep that fed the report populated the cache.
        assert_eq!(service.cache_stats().entries, 2);
        // And its events streamed ahead of the terminal object.
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn shutdown_and_cache_stats_round_trip() {
        let service = SweepService::in_memory();
        let (lines, action) = collect(&service, r#"{"kind":"cache-stats","id":"c1"}"#);
        assert_eq!(action, Action::Continue);
        let v = parse(&lines[0]).unwrap();
        assert_eq!(v.get_str("kind"), Some("cache-stats"));
        assert_eq!(v.get_u64("entries"), Some(0));
        assert_eq!(v.get("path"), Some(&json::Value::Null));

        let (lines, action) = collect(&service, r#"{"kind":"shutdown","id":"bye"}"#);
        assert_eq!(action, Action::Shutdown);
        let v = parse(&lines[0]).unwrap();
        assert_eq!(v.get_str("kind"), Some("ok"));
        assert_eq!(v.get_str("id"), Some("bye"));
    }

    #[test]
    fn trend_requests_render_bench_files() {
        let dir = std::env::temp_dir().join(format!("dsm-trend-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("BENCH_1.json"),
            r#"{"bench":"perf-trajectory","pr":1,"mean_events_per_sec":123.0}"#,
        )
        .unwrap();
        let service = SweepService::in_memory();
        let req = format!(r#"{{"kind":"trend","id":"t","dir":"{}"}}"#, dir.display());
        let (lines, _) = collect(&service, &req);
        let v = parse(&lines[0]).unwrap();
        assert_eq!(v.get_str("kind"), Some("trend"));
        assert_eq!(v.get_u64("entries"), Some(1));
        assert!(v.get_str("text").unwrap().contains("BENCH_1.json"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
