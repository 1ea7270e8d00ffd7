//! Batched-vs-serial golden parity.
//!
//! The simulator's run loop pulls per-processor *bursts* of events
//! (`TraceSource::next_burst`) and consumes them one at a time against the
//! scheduler's next-wakeup horizon; burst size must therefore be invisible
//! in every result.  This suite forces the degenerate burst size of one —
//! the exact serial pull order the pre-batching loop used — through the
//! full committed 7×5 workload × system matrix and requires bit-identical
//! fingerprints against `tests/golden/api_parity.txt`.  Together with
//! `tests/api_parity.rs` (full-size bursts, same goldens), this pins
//! batching as a pure supply-side optimization: full-size and degenerate
//! pulls reproduce the same committed bits.

use std::collections::BTreeMap;

use dsm_repro::prelude::*;
use mem_trace::{ProcId, Topology, TraceError, TraceEvent, TraceSource, TraceStats};

const GOLDEN: &str = include_str!("golden/api_parity.txt");

fn thresholds() -> Thresholds {
    Thresholds {
        migrep_threshold: 250,
        migrep_reset_interval: 8_000,
        rnuma_threshold: 8,
        rnuma_relocation_delay: 0,
    }
}

/// The same system matrix `api_parity` pins (keys are the golden format).
fn golden_systems() -> Vec<(&'static str, SystemConfig)> {
    let t = thresholds();
    vec![
        ("perfect", System::perfect_cc_numa().build()),
        ("cc-numa", System::cc_numa().build()),
        (
            "migrep",
            System::cc_numa().with(MigRep::both()).with(t).build(),
        ),
        ("r-numa", System::r_numa().with(t).build()),
        (
            "hybrid",
            System::r_numa()
                .with(PageCaching::half())
                .with(MigRep::both())
                .with(t)
                .relocation_delay(2_000)
                .named("R-NUMA-1/2+MigRep")
                .build(),
        ),
    ]
}

fn parse_golden() -> BTreeMap<(String, String), u64> {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut parts = l.split_whitespace();
            let key = parts.next().expect("golden line has a key");
            let fp = parts.next().expect("golden line has a fingerprint");
            let (workload, system) = key.split_once('/').expect("key is workload/system");
            (
                (workload.to_string(), system.to_string()),
                u64::from_str_radix(fp.trim_start_matches("0x"), 16).expect("hex fingerprint"),
            )
        })
        .collect()
}

/// Forwards every `TraceSource` call but caps each burst at a single
/// event: the consumer sees exactly the pull sequence of a per-event
/// `next_event` loop, whatever burst size it asks for.
struct OneAtATime<S>(S);

impl<S: TraceSource> TraceSource for OneAtATime<S> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn topology(&self) -> Topology {
        self.0.topology()
    }
    fn next_event(&mut self, proc: ProcId) -> Option<TraceEvent> {
        self.0.next_event(proc)
    }
    fn exhausted(&mut self, proc: ProcId) -> bool {
        self.0.exhausted(proc)
    }
    fn next_burst(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>, _max: usize) -> usize {
        self.0.next_burst(proc, out, 1)
    }
    fn stats_so_far(&self) -> TraceStats {
        self.0.stats_so_far()
    }
    fn buffered_events(&self) -> usize {
        self.0.buffered_events()
    }
    fn take_error(&mut self) -> Option<TraceError> {
        self.0.take_error()
    }
}

/// Degenerate single-event bursts reproduce every committed golden
/// fingerprint: batch size is invisible, bit for bit, across the full
/// 7×5 matrix.
#[test]
fn single_event_bursts_match_committed_golden_fingerprints() {
    let golden = parse_golden();
    assert_eq!(
        golden.len(),
        7 * golden_systems().len(),
        "golden file does not cover the full workload x system matrix"
    );
    let cfg = WorkloadConfig::reduced();
    for w in catalog() {
        for (key, system) in golden_systems() {
            let mut source = OneAtATime(fused(w.as_ref(), &cfg));
            let result =
                ClusterSimulator::new(MachineConfig::PAPER, system).run_source(&mut source);
            let expected = golden
                .get(&(w.name().to_string(), key.to_string()))
                .unwrap_or_else(|| panic!("no golden fingerprint for {}/{key}", w.name()));
            assert_eq!(
                result.fingerprint(),
                *expected,
                "burst-size-1 run diverged from the committed golden for {}/{key}",
                w.name()
            );
        }
    }
}

/// Burst supply does not leak across a mid-trace poisoning: a capped
/// burst source and a per-event source agree on where a stream ends.
/// (The window-cap position contract lives on `TraceSource::next_burst`;
/// `tests/streaming.rs` exercises the poisoned paths in depth.)
#[test]
fn full_and_degenerate_bursts_agree_on_stream_ends() {
    let cfg = WorkloadConfig::reduced();
    let w = &catalog()[3]; // lu: cheap, multi-proc
    let mut a = fused(w.as_ref(), &cfg);
    let mut b = OneAtATime(fused(w.as_ref(), &cfg));
    let procs = a.topology().total_procs();
    let mut buf_a = Vec::new();
    let mut buf_b = Vec::new();
    for round in 0..2_000u64 {
        let p = ProcId((round % procs as u64) as u16);
        buf_a.clear();
        buf_b.clear();
        let na = a.next_burst(p, &mut buf_a, 4);
        // The degenerate source needs up to 4 pulls for the same events.
        while buf_b.len() < na && b.next_burst(p, &mut buf_b, 4) > 0 {}
        let nb = buf_b.len();
        assert_eq!(na, nb, "burst supply diverged at round {round}");
        assert_eq!(buf_a, buf_b, "burst contents diverged at round {round}");
        if na == 0 {
            assert!(a.exhausted(p));
            assert!(b.exhausted(p));
        }
    }
}
