//! The two simulation workloads, `paper` and `wide`: serial
//! `ClusterSimulator::try_run_source` jobs, checked by fingerprint.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use dsm_bench::{presets, ExperimentScale};
use dsm_core::{
    ClusterSimulator, MachineConfig, MigRep, PageCaching, RNumaEngine, SimResult, System,
    SystemConfig, Thresholds,
};
use dsm_protocol::PageCacheConfig;
use mem_trace::{ProcId, ReplaySource, Topology, TraceError, TraceEvent, TraceSource, TraceStats};
use splash_workloads::{CustomScale, WorkloadConfig};

use crate::clock;
use crate::layers::{self, LayerCosts};
use crate::report::Report;
use crate::stats::{median, Timing};
use crate::trace::{self, ns_since, ObsSink, PolicyObs, SpanLog, Spy, TimedMigRep, TimedSource};

/// The workload seed the committed generators default to.
pub const DEFAULT_SEED: u64 = 0x00D5_1A1A_2000;
/// The held-out seed: pinned, but not the seed changes are tuned on.
pub const HELD_OUT_SEED: u64 = 7;

const PINS: &str = include_str!("../pins.txt");
const CLUSTER_GOLDEN: &str = include_str!("../../tests/golden/cluster_scale.txt");

/// The three system families of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CcNuma,
    MigRep,
    RNuma,
}

impl Kind {
    pub fn key(self) -> &'static str {
        match self {
            Kind::CcNuma => "cc-numa",
            Kind::MigRep => "migrep",
            Kind::RNuma => "r-numa",
        }
    }
}

/// Where a job's trace comes from.
#[derive(Debug, Clone)]
pub enum Stream {
    /// The generator, fused into the simulator's pull loop.
    Fused(WorkloadConfig),
    /// A DSMTRC01 recording made during set-up.
    Replay(PathBuf),
}

/// One simulation job.
#[derive(Debug, Clone)]
pub struct Job {
    /// `<app>.<system>` (paper) or `<app>-<nodes>.<system>` (wide).
    pub label: String,
    pub app: &'static str,
    pub kind: Kind,
    pub machine: MachineConfig,
    pub system: SystemConfig,
    pub thresholds: Thresholds,
    pub page_cache: PageCacheConfig,
    /// Index into [`Suite::streams`]; jobs of one app share a stream.
    pub stream: usize,
    /// The fingerprint this job must reproduce, when pinned.
    pub pin: Option<u64>,
}

/// A workload's jobs and their streams.
#[derive(Debug)]
pub struct Suite {
    pub jobs: Vec<Job>,
    pub streams: Vec<Stream>,
    /// Set-up samples taken before the timed phase (seconds).
    pub setup: Vec<f64>,
}

fn source_of(app: &str, stream: &Stream) -> Result<Box<dyn TraceSource>, String> {
    match stream {
        Stream::Fused(cfg) => {
            let w = splash_workloads::by_name(app).ok_or_else(|| format!("unknown app {app}"))?;
            Ok(Box::new(splash_workloads::fused(&*w, cfg)))
        }
        Stream::Replay(path) => ReplaySource::open(path)
            .map(|s| Box::new(s) as Box<dyn TraceSource>)
            .map_err(|e| format!("cannot open {}: {e}", path.display())),
    }
}

/// The pinned fingerprints of `pins.txt`: `pin <seed> <app> <system> <hex>`.
fn pins() -> BTreeMap<(u64, String), u64> {
    PINS.lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                ["pin", seed, app, system, fp] => Some((
                    (parse_u64(seed)?, format!("{app}.{system}")),
                    parse_u64(fp)?,
                )),
                _ => None,
            }
        })
        .collect()
}

/// Parse a decimal or `0x` hexadecimal number.
pub fn parse_u64(s: &str) -> Option<u64> {
    let s = s.replace('_', "");
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// `paper`: the paper's 8x4 machine at Table 2 sizes; radix, cholesky and
/// raytrace under the three Table 4 systems, fed by fused generators.
pub fn paper_suite(seed: u64, report: &mut Report) -> Suite {
    report.note(format!(
        "workload seed {seed:#x} ({})",
        match seed {
            DEFAULT_SEED => "the default seed, pinned",
            HELD_OUT_SEED => "the held-out seed, pinned",
            _ => "unpinned: checked by repeat and traced/untraced agreement",
        }
    ));
    let scale = ExperimentScale::Paper;
    let set = presets::table4(scale);
    let cfg = WorkloadConfig::paper().with_seed(seed);
    let pins = pins();
    let apps = ["radix", "cholesky", "raytrace"];
    let mut jobs = Vec::new();
    for (s, app) in apps.iter().enumerate() {
        for (system, kind) in set
            .systems
            .iter()
            .zip([Kind::CcNuma, Kind::MigRep, Kind::RNuma])
        {
            let label = format!("{app}.{}", kind.key());
            jobs.push(Job {
                pin: pins.get(&(seed, label.clone())).copied(),
                label,
                app,
                kind,
                machine: MachineConfig::PAPER,
                system: system.clone(),
                thresholds: scale.thresholds_fast(),
                page_cache: scale.page_cache(),
                stream: s,
            });
        }
    }
    let streams = apps.iter().map(|_| Stream::Fused(cfg)).collect();
    Suite {
        jobs,
        streams,
        setup: Vec::new(),
    }
}

/// `wide`: 256 nodes x 1 processor at 1/8 of Table 2, replayed from
/// DSMTRC01 recordings made here; the committed 256-node goldens pin it.
/// Set-up records each stream three times and keeps the median time.
pub fn wide_suite(dir: &Path) -> Result<Suite, String> {
    const NODES: u16 = 256;
    let scale = ExperimentScale::Custom(CustomScale::new(1, 8));
    let t = scale.thresholds_fast();
    let topo = Topology::new(NODES, 1);
    let machine = MachineConfig::PAPER.with_topology(topo);
    let cfg = WorkloadConfig::at_scale(scale.workload_scale()).with_topology(topo);
    let golden: BTreeMap<String, u64> = CLUSTER_GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                [app, nodes, sc, system, fp]
                    if *nodes == NODES.to_string() && *sc == scale.label() =>
                {
                    Some((format!("{app}.{system}"), parse_u64(fp)?))
                }
                _ => None,
            }
        })
        .collect();
    let apps = ["radix", "barnes"];
    let paths: Vec<PathBuf> = apps
        .iter()
        .map(|app| dir.join(format!("{app}-{NODES}.trc")))
        .collect();
    let mut setup = Vec::new();
    for _ in 0..3 {
        let start = clock::now();
        for (app, path) in apps.iter().zip(&paths) {
            let mut src = source_of(app, &Stream::Fused(cfg))?;
            mem_trace::record_to_file(&mut *src, path).map_err(|e| format!("record {app}: {e}"))?;
        }
        setup.push(start.elapsed().as_secs_f64());
    }
    let streams = paths.into_iter().map(Stream::Replay).collect();
    let mut jobs = Vec::new();
    for (app, stream, kind) in [
        ("radix", 0, Kind::RNuma),
        ("barnes", 1, Kind::MigRep),
        ("barnes", 1, Kind::RNuma),
    ] {
        let system = match kind {
            Kind::MigRep => System::cc_numa()
                .with(MigRep::both())
                .with(t)
                .named("migrep")
                .build(),
            _ => System::r_numa()
                .with(PageCaching::config(scale.page_cache()))
                .with(t)
                .named("r-numa")
                .build(),
        };
        let key = format!("{app}.{}", kind.key());
        jobs.push(Job {
            label: format!("{app}-{NODES}.{}", kind.key()),
            pin: golden.get(&key).copied(),
            app,
            kind,
            machine,
            system,
            thresholds: t,
            page_cache: scale.page_cache(),
            stream,
        });
    }
    if jobs.iter().any(|j| j.pin.is_none()) {
        return Err("tests/golden/cluster_scale.txt lacks a 256-node point".to_string());
    }
    Ok(Suite {
        jobs,
        streams,
        setup,
    })
}

/// The system a traced job runs: the same machine and configuration with a
/// probe installed through `SystemBuilder::policy`.
fn traced_system(job: &Job, sink: &ObsSink, capture: bool) -> SystemConfig {
    let t = job.thresholds;
    let sink = Arc::clone(sink);
    let cfg = match job.kind {
        Kind::CcNuma => System::cc_numa()
            .policy(move || Box::new(Spy::new(false, Arc::clone(&sink))))
            .build(),
        Kind::MigRep => System::cc_numa()
            .with(t)
            .policy(move || Box::new(TimedMigRep::new(t, Arc::clone(&sink))))
            .build(),
        Kind::RNuma => System::r_numa()
            .with(PageCaching::config(job.page_cache))
            .with(t)
            .policy(move || Box::new(Spy::new(capture, Arc::clone(&sink))))
            .build(),
    };
    cfg.named(job.system.name.clone())
}

/// One finished job run.
#[derive(Debug, Clone)]
pub struct Run {
    pub job: usize,
    /// Host CPU seconds of each segment of the job.
    pub segments: Vec<f64>,
    pub result: SimResult,
}

/// Fingerprint checks shared by both modes; returns `true` when the run
/// is correct.  `reference` is the fingerprint this job produced earlier in
/// the same invocation, if any.
fn check(job: &Job, fp: u64, reference: Option<u64>, report: &mut Report) -> bool {
    if let Some(pin) = job.pin {
        if fp != pin {
            report.note(format!(
                "FAIL {}: fingerprint {fp:#018x} != pin {pin:#018x}",
                job.label
            ));
            return false;
        }
    }
    if let Some(r) = reference {
        if fp != r {
            report.note(format!(
                "FAIL {}: fingerprint {fp:#018x} != earlier {r:#018x}",
                job.label
            ));
            return false;
        }
    }
    true
}

fn run_job(
    job: &Job,
    system: &SystemConfig,
    source: &mut dyn TraceSource,
) -> Result<(f64, SimResult), String> {
    let sim = ClusterSimulator::new(job.machine, system.clone());
    let start = clock::now();
    let result = sim
        .try_run_source(source)
        .map_err(|e| format!("{}: {e:?}", job.label))?;
    Ok((start.elapsed().as_secs_f64(), result))
}

/// Events per timed segment of an untraced job.
const SEGMENT_EVENTS: u64 = 1 << 16;

/// The untraced run's only instrument: counts the events a source hands
/// out and reads the thread's CPU clock each time another
/// [`SEGMENT_EVENTS`] have gone.  The simulator pulls the same bursts in
/// the same order on every run of a job, so segment `k` covers the same
/// events in every pass.
struct Segmented<'a> {
    inner: &'a mut dyn TraceSource,
    events: u64,
    stamps: Vec<u64>,
}

impl Segmented<'_> {
    #[inline]
    fn count(&mut self, n: u64) {
        let before = self.events / SEGMENT_EVENTS;
        self.events += n;
        if self.events / SEGMENT_EVENTS != before {
            self.stamps.push(clock::thread_ns());
        }
    }
}

impl TraceSource for Segmented<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn topology(&self) -> Topology {
        self.inner.topology()
    }

    fn next_event(&mut self, proc: ProcId) -> Option<TraceEvent> {
        let ev = self.inner.next_event(proc);
        self.count(u64::from(ev.is_some()));
        ev
    }

    fn exhausted(&mut self, proc: ProcId) -> bool {
        self.inner.exhausted(proc)
    }

    fn next_burst(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>, max: usize) -> usize {
        let n = self.inner.next_burst(proc, out, max);
        self.count(n as u64);
        n
    }

    fn stats_so_far(&self) -> TraceStats {
        self.inner.stats_so_far()
    }

    fn buffered_events(&self) -> usize {
        self.inner.buffered_events()
    }

    fn take_error(&mut self) -> Option<TraceError> {
        self.inner.take_error()
    }
}

/// Run one untraced job; returns the host seconds of each segment.
fn run_segmented(job: &Job, source: &mut dyn TraceSource) -> Result<(Vec<f64>, SimResult), String> {
    let sim = ClusterSimulator::new(job.machine, job.system.clone());
    let mut seg = Segmented {
        inner: source,
        events: 0,
        stamps: vec![clock::thread_ns()],
    };
    let result = sim
        .try_run_source(&mut seg)
        .map_err(|e| format!("{}: {e:?}", job.label))?;
    seg.stamps.push(clock::thread_ns());
    let segments = seg
        .stamps
        .windows(2)
        .map(|w| w[1].saturating_sub(w[0]) as f64 / 1e9)
        .collect();
    Ok((segments, result))
}

impl Suite {
    /// `true` when the suite's timed phase runs the generators itself, so
    /// building its sources is the set-up a pass pays.
    fn fused(&self) -> bool {
        self.streams.iter().all(|s| matches!(s, Stream::Fused(_)))
    }

    /// Build every job's source; returns the set-up time and the sources.
    fn build_sources(&self) -> Result<(f64, Vec<Box<dyn TraceSource>>), String> {
        let start = clock::now();
        let sources = self
            .jobs
            .iter()
            .map(|j| source_of(j.app, &self.streams[j.stream]))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((start.elapsed().as_secs_f64(), sources))
    }
}

/// Untraced passes over the suite until `seconds` have been measured; one
/// `Vec<Run>` per pass.  A fused suite's set-up (building generators and
/// sources) is sampled before every pass and in extra rounds up front.
pub fn untraced(suite: &mut Suite, seconds: f64, report: &mut Report) -> Vec<Vec<Run>> {
    if suite.fused() {
        for _ in 0..20 {
            if let Ok((secs, _)) = suite.build_sources() {
                suite.setup.push(secs);
            }
        }
    }
    let mut passes: Vec<Vec<Run>> = Vec::new();
    let mut first: Vec<Option<u64>> = vec![None; suite.jobs.len()];
    let mut measured = 0.0;
    while measured < seconds || passes.is_empty() {
        let (secs, mut sources) = match suite.build_sources() {
            Ok(b) => b,
            Err(e) => {
                report.attempt();
                report.fail(e);
                return passes;
            }
        };
        if suite.fused() {
            suite.setup.push(secs);
        }
        let mut pass = Vec::new();
        for (i, job) in suite.jobs.iter().enumerate() {
            report.attempt();
            match run_segmented(job, &mut *sources[i]) {
                Ok((segments, result)) => {
                    measured += segments.iter().sum::<f64>();
                    let fp = result.fingerprint();
                    if !check(job, fp, first[i], report) {
                        report.failed();
                    }
                    first[i].get_or_insert(fp);
                    pass.push(Run {
                        job: i,
                        segments,
                        result,
                    });
                }
                Err(e) => report.fail(e),
            }
        }
        passes.push(pass);
    }
    // The generator-fed jobs' fingerprints, in `pins.txt` format.
    for (job, fp) in suite.jobs.iter().zip(&first) {
        if let (Stream::Fused(cfg), Some(fp)) = (&suite.streams[job.stream], fp) {
            let (app, system) = job.label.split_once('.').unwrap_or((&job.label, ""));
            report.note(format!("pin {:#x} {app} {system} {fp:#018x}", cfg.seed));
        }
    }
    passes
}

/// The end-to-end metrics of an untraced run.
///
/// A job's time is the sum over its segments of each segment's median
/// across the passes, in host CPU seconds of the simulating thread.  On a
/// shared virtual machine the wall clock also counts time the hypervisor
/// gives other guests, and those guests slow this one in bursts of a few
/// seconds; CPU time leaves out the first, and a burst that hits one pass
/// of a segment moves no median.
pub fn end_to_end(suite: &Suite, passes: &[Vec<Run>], report: &mut Report) {
    let runs = || passes.iter().flatten();
    let per_pass: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", p.iter().flat_map(|r| &r.segments).sum::<f64>()))
        .collect();
    report.note(format!("pass times (s): {}", per_pass.join(" ")));
    let (mut accesses, mut pass_s, mut log_ms) = (0.0, 0.0, 0.0);
    for (i, job) in suite.jobs.iter().enumerate() {
        let mine: Vec<&Run> = runs().filter(|r| r.job == i).collect();
        let Some(run) = mine.first() else {
            report.note(format!("FAIL {} never completed", job.label));
            return;
        };
        let totals: Vec<f64> = mine.iter().map(|r| r.segments.iter().sum()).collect();
        report.note(Timing::of(&totals).describe(&format!("job {} (whole runs)", job.label), "s"));
        let secs = segment_medians(mine.iter().map(|r| r.segments.as_slice()));
        accesses += run.result.accesses as f64;
        pass_s += secs;
        log_ms += (secs * 1e3).max(f64::MIN_POSITIVE).ln();
    }
    report.metric(
        "events_per_sec",
        if pass_s > 0.0 { accesses / pass_s } else { 0.0 },
        "accesses/s",
    );
    report.timing("setup_s", "s", &suite.setup);
    report.metric("cold_sweep_s", pass_s, "s");
    // A request here is one job.  The jobs of a grid differ in size, so a
    // median across them would jump between jobs; the geometric mean of
    // each job's median weighs every job equally.
    report.metric("request_ms", (log_ms / suite.jobs.len() as f64).exp(), "ms");
}

/// Σ over segment positions of the median across runs of that segment.
/// Runs of one job have the same segments; a run with a different count
/// (which would be a bug) only contributes where it has the position.
pub fn segment_medians<'a>(runs: impl Iterator<Item = &'a [f64]>) -> f64 {
    let runs: Vec<&[f64]> = runs.collect();
    let len = runs.iter().map(|r| r.len()).max().unwrap_or(0);
    (0..len)
        .map(|k| {
            median(
                &runs
                    .iter()
                    .filter_map(|r| r.get(k).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

/// Totals one traced job contributes to the per-layer metrics.
#[derive(Debug, Default, Clone)]
struct Traced {
    untraced_s: f64,
    traced_s: f64,
    supply_ns: f64,
    supply_calls: u64,
    supply_events: u64,
    policy_calls: u64,
    policy_ns: f64,
}

/// The traced run: rounds of one untraced and one traced run per job,
/// then the isolated replays.  Fills every per-layer metric.
pub fn traced(suite: &mut Suite, seconds: f64, spans_path: &Path, report: &mut Report) {
    let origin = clock::now();
    let clock = trace::clock_cost_ns();
    let mut log = SpanLog::default();
    let mut totals: Vec<Traced> = vec![Traced::default(); suite.jobs.len()];
    let mut job_secs: Vec<Vec<f64>> = vec![Vec::new(); suite.jobs.len()];
    let mut results: Vec<Option<SimResult>> = vec![None; suite.jobs.len()];
    let mut captures: Vec<Option<Vec<trace::Captured>>> = vec![None; suite.streams.len()];
    let mut hook_ns: Vec<f64> = vec![0.0; suite.jobs.len()];
    let mut measured = 0.0;
    let mut round = 0;
    while measured < seconds || round == 0 {
        for (i, job) in suite.jobs.iter().enumerate() {
            report.attempt();
            let untraced = source_of(job.app, &suite.streams[job.stream])
                .and_then(|mut s| run_job(job, &job.system, &mut *s));
            let (u_secs, u_result) = match untraced {
                Ok(r) => r,
                Err(e) => {
                    report.fail(e);
                    continue;
                }
            };
            let fp = u_result.fingerprint();
            if !check(job, fp, None, report) {
                report.failed();
            }
            job_secs[i].push(u_secs);

            report.attempt();
            let capture = captures[job.stream].is_none();
            let sink: ObsSink = Arc::new(Mutex::new(PolicyObs::default()));
            let system = traced_system(job, &sink, round == 0 && job.kind == Kind::RNuma);
            let mut inner = match source_of(job.app, &suite.streams[job.stream]) {
                Ok(s) => s,
                Err(e) => {
                    report.fail(e);
                    continue;
                }
            };
            let mut timed = TimedSource::new(&mut *inner, origin, capture);
            let start = ns_since(origin);
            let run = run_job(job, &system, &mut timed);
            let end = ns_since(origin);
            let (src, captured) = timed.finish();
            let obs = std::mem::take(&mut *sink.lock().unwrap_or_else(PoisonError::into_inner));
            let (t_secs, t_result) = match run {
                Ok(r) => r,
                Err(e) => {
                    report.fail(e);
                    continue;
                }
            };
            if !check(job, t_result.fingerprint(), Some(fp), report) {
                report.failed();
            }
            if capture {
                captures[job.stream] = Some(captured);
            }
            if round == 0 && job.kind == Kind::RNuma {
                hook_ns[i] = trace::replay_hooks(&mut RNumaEngine::new(job.thresholds), &obs.hooks);
            }
            let supply_ns = (src.busy_ns as f64 - clock * src.calls as f64).max(0.0);
            let per_call = match job.kind {
                Kind::CcNuma => 0.0,
                Kind::MigRep if obs.sampled > 0 => {
                    (obs.sampled_ns as f64 / obs.sampled as f64 - clock).max(0.0)
                }
                _ => hook_ns[i],
            };
            let policy_calls = if job.kind == Kind::CcNuma {
                0
            } else {
                obs.calls
            };
            let policy_ns = per_call * policy_calls as f64;

            let span = log.interval(&format!("job.{}", job.label), None, start, end);
            let layer = match suite.streams[job.stream] {
                Stream::Fused(_) => "splash-workloads",
                Stream::Replay(_) => "mem-trace.replay",
            };
            log.aggregate(
                layer,
                span,
                src.first_ns,
                src.last_ns,
                src.calls,
                supply_ns as u64,
            );
            log.aggregate("core.policy", span, start, end, obs.calls, policy_ns as u64);

            let t = &mut totals[i];
            t.untraced_s += u_secs;
            t.traced_s += t_secs;
            t.supply_ns += supply_ns;
            t.supply_calls += src.calls;
            t.supply_events += src.events;
            t.policy_calls += policy_calls;
            t.policy_ns += policy_ns;
            measured += u_secs + t_secs;
            results[i] = Some(u_result);
        }
        round += 1;
    }
    if let Err(e) = std::fs::write(spans_path, log.to_jsonl()) {
        report.note(format!(
            "cannot write spans to {}: {e}",
            spans_path.display()
        ));
    }
    report.note(format!(
        "spans: {} written to {} (clock cost {clock:.1} ns per read)",
        log.spans().len(),
        crate::serve::shown(spans_path)
    ));

    // Isolated replays, one per stream, on the machine of its first job.
    let mut costs: Vec<LayerCosts> = Vec::new();
    for (s, captured) in captures.iter().enumerate() {
        let job = suite
            .jobs
            .iter()
            .find(|j| j.stream == s)
            .expect("every stream has a job");
        let captured = captured.as_deref().unwrap_or(&[]);
        costs.push(layers::replay(
            captured,
            &job.machine,
            job.system.costs.network_latency,
        ));
    }
    ledger(suite, &totals, &job_secs, &results, &costs, report);
}

/// Combine the traced totals, exact counts and replay costs into the
/// per-layer metrics.
fn ledger(
    suite: &Suite,
    totals: &[Traced],
    job_secs: &[Vec<f64>],
    results: &[Option<SimResult>],
    costs: &[LayerCosts],
    report: &mut Report,
) {
    let rounds = job_secs.first().map_or(1, Vec::len).max(1) as f64;
    let sum = |f: &dyn Fn(&Traced) -> f64| totals.iter().map(f).sum::<f64>();
    let untraced_ns = sum(&|t| t.untraced_s) * 1e9;
    let traced_ns = sum(&|t| t.traced_s) * 1e9;
    // Exact counts of one pass (every round repeats the same work).
    let res: Vec<&SimResult> = results.iter().flatten().collect();
    let acc_pass: f64 = res.iter().map(|r| r.accesses as f64).sum();
    let accesses = acc_pass * rounds;
    let by = |f: &dyn Fn(&SimResult) -> u64| res.iter().map(|r| f(r) as f64).sum::<f64>();
    let misses = by(&|r| r.per_node.iter().map(|n| n.total_misses()).sum());
    let remote = by(&|r| r.total_remote_misses());
    let l1_hits = by(&|r| r.per_node.iter().map(|n| n.l1_hits).sum());
    let msgs = by(&|r| r.traffic.total_messages());
    let bytes = by(&|r| r.traffic.total_bytes());
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let supply_for = |replay: bool| -> (f64, f64) {
        let (mut ns, mut ev) = (0.0, 0.0);
        for (t, job) in totals.iter().zip(&suite.jobs) {
            if matches!(suite.streams[job.stream], Stream::Replay(_)) == replay {
                ns += t.supply_ns;
                ev += t.supply_events as f64;
            }
        }
        (ns, ev)
    };
    let (gen_ns, gen_ev) = supply_for(false);
    let (rep_ns, rep_ev) = supply_for(true);
    report.metric(
        "splash-workloads.share",
        ratio(gen_ns, untraced_ns),
        "ratio",
    );
    report.metric(
        "splash-workloads.ns_per_event",
        ratio(gen_ns, gen_ev),
        "ns/event",
    );
    report.metric(
        "mem-trace.replay.share",
        ratio(rep_ns, untraced_ns),
        "ratio",
    );
    report.metric(
        "mem-trace.replay.ns_per_event",
        ratio(rep_ns, rep_ev),
        "ns/event",
    );
    report.metric(
        "mem-trace.source.events_per_call",
        ratio(
            sum(&|t| t.supply_events as f64),
            sum(&|t| t.supply_calls as f64),
        ),
        "events/call",
    );

    // Replay costs, weighted by each stream's share of the workload's
    // accesses.
    let weight: Vec<f64> = (0..costs.len())
        .map(|s| {
            suite
                .jobs
                .iter()
                .zip(results)
                .filter(|(j, _)| j.stream == s)
                .filter_map(|(_, r)| r.as_ref())
                .map(|r| r.accesses as f64)
                .sum::<f64>()
        })
        .collect();
    let wsum: f64 = weight.iter().sum();
    let avg = |f: &dyn Fn(&LayerCosts) -> f64| -> f64 {
        costs
            .iter()
            .zip(&weight)
            .map(|(c, w)| f(c) * w)
            .sum::<f64>()
            / wsum.max(1.0)
    };
    let intern = avg(&|c| c.intern_ns);
    let sched = avg(&|c| c.sched_ns);
    let sched_ops = avg(&|c| c.sched_ops_per_access);
    let l1 = avg(&|c| c.l1_ns);
    let dir = avg(&|c| c.directory_ns);
    let bus = avg(&|c| c.bus_ns);
    let net = avg(&|c| c.network_ns);
    report.metric("mem-trace.intern.ns_per_op", intern, "ns/op");
    report.metric(
        "mem-trace.intern.same_page_ratio",
        avg(&|c| c.same_page_ratio),
        "ratio",
    );
    report.metric("sim-engine.sched.ns_per_op", sched, "ns/op");
    report.metric("smp-node.cache.ns_per_access", l1, "ns/access");
    report.metric(
        "smp-node.cache.hit_ratio",
        ratio(l1_hits, acc_pass),
        "ratio",
    );
    report.metric("dsm-protocol.directory.ns_per_op", dir, "ns/op");
    report.metric(
        "mem-trace.sharers.ns_per_op",
        avg(&|c| c.sharers_ns),
        "ns/op",
    );
    report.metric(
        "mem-trace.sharers.wide_share",
        avg(&|c| c.sharers_wide_share),
        "ratio",
    );

    // Block cache on CC-NUMA-family jobs, page cache on R-NUMA jobs.
    let (mut bc, mut pc) = (Vec::new(), Vec::new());
    let (mut bc_ops, mut pc_ops) = (0.0, 0.0);
    for (job, r) in suite.jobs.iter().zip(results) {
        let Some(r) = r else { continue };
        let Some(ns) = layers::replay_remote_cache(&costs[job.stream], &job.machine, &job.system)
        else {
            continue;
        };
        let ops = r.total_remote_misses() as f64;
        if job.system.page_cache.is_some() {
            pc.push((ns, ops));
            pc_ops += ops;
        } else {
            bc.push((ns, ops));
            bc_ops += ops;
        }
    }
    let weighted = |v: &[(f64, f64)], total: f64| {
        v.iter().map(|(ns, ops)| ns * ops).sum::<f64>() / total.max(1.0)
    };
    let bc_ns = weighted(&bc, bc_ops);
    let pc_ns = weighted(&pc, pc_ops);
    report.metric("dsm-protocol.block_cache.ns_per_op", bc_ns, "ns/op");
    report.metric("dsm-protocol.page_cache.ns_per_op", pc_ns, "ns/op");
    report.metric(
        "dsm-protocol.page_cache.relocations",
        by(&|r| r.per_node.iter().map(|n| n.relocations).sum()),
        "count",
    );
    report.metric(
        "dsm-protocol.page_cache.replacements",
        by(&|r| r.total_page_cache_replacements()),
        "count",
    );
    report.metric("dsm-protocol.network.ns_per_msg", net, "ns/msg");
    report.metric(
        "dsm-protocol.network.msgs_per_access",
        ratio(msgs, acc_pass),
        "msgs/access",
    );
    report.metric(
        "dsm-protocol.network.bytes_per_access",
        ratio(bytes, acc_pass),
        "B/access",
    );
    report.metric(
        "dsm-protocol.remote_miss_ratio",
        ratio(remote, acc_pass),
        "ratio",
    );
    report.metric("smp-node.bus.ns_per_tx", bus, "ns/tx");

    let policy_ns = sum(&|t| t.policy_ns);
    let policy_calls = sum(&|t| t.policy_calls as f64);
    let supply_ns = sum(&|t| t.supply_ns);
    report.metric(
        "core.policy.calls_per_access",
        ratio(policy_calls, accesses),
        "calls/access",
    );
    report.metric(
        "core.policy.ns_per_call",
        ratio(policy_ns, policy_calls),
        "ns/call",
    );
    report.metric(
        "core.policy.page_ops",
        by(&|r| r.total_page_operations()),
        "count",
    );
    let sim_ns = ratio(untraced_ns, accesses);
    report.metric("core.simulator.ns_per_access", sim_ns, "ns/access");
    report.metric(
        "core.simulator.self_share",
        ratio(untraced_ns - supply_ns - policy_ns, untraced_ns),
        "ratio",
    );
    for (job, secs) in suite.jobs.iter().zip(job_secs) {
        report.metric(&format!("job.{}.s", job.label), median(secs), "s");
    }

    // The ledger: ops per access (exact where the run counts them) times
    // each layer's ns per op.
    let per_acc = |x: f64| ratio(x, acc_pass);
    let layers_ns = ratio(supply_ns, accesses)
        + intern
        + sched * sched_ops
        + l1
        + dir * per_acc(misses)
        + bus * per_acc(misses)
        + (bc_ns * bc_ops + pc_ns * pc_ops) / acc_pass.max(1.0)
        + net * per_acc(msgs)
        + ratio(policy_ns, accesses);
    report.metric("layers.sum_ns_per_access", layers_ns, "ns/access");
    report.metric(
        "layers.unattributed_share",
        1.0 - ratio(layers_ns, sim_ns),
        "ratio",
    );
    report.metric(
        "trace.overhead_share",
        ratio(traced_ns - untraced_ns, traced_ns),
        "ratio",
    );
    for (job, secs) in suite.jobs.iter().zip(job_secs) {
        report.note(Timing::of(secs).describe(&format!("job.{}", job.label), "s"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_medians_drop_a_burst_that_hits_one_pass() {
        let quiet = [1.0, 1.0, 1.0];
        let burst = [1.0, 5.0, 1.0];
        let late = [1.0, 1.0, 4.0];
        let runs = [&quiet[..], &burst[..], &late[..]];
        assert_eq!(segment_medians(runs.into_iter()), 3.0);
        // A whole-run median would have kept one of the disturbed runs.
        assert_eq!(median(&[3.0, 7.0, 6.0]), 6.0);
        assert_eq!(segment_medians(std::iter::empty()), 0.0);
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_u64("915265953792"), Some(DEFAULT_SEED));
        assert_eq!(parse_u64("0x00D5_1A1A_2000"), Some(DEFAULT_SEED));
        assert_eq!(parse_u64("0xd51a1a2000"), Some(DEFAULT_SEED));
        assert_eq!(parse_u64("seven"), None);
    }

    #[test]
    fn both_pinned_seeds_pin_every_paper_job() {
        let pins = pins();
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let mut report = Report::default();
            let suite = paper_suite(seed, &mut report);
            assert!(suite.jobs.iter().all(|j| j.pin.is_some()), "seed {seed:#x}");
        }
        assert_eq!(pins.len(), 18);
    }
}
