//! Golden per-processor event streams of the seven Table 2 generators.
//!
//! `tests/golden/streams.txt` holds, for every (workload, scale, topology)
//! case below, each processor's event count and an FNV-1a digest of its
//! event sequence.  The simulator only ever sees one processor's stream at
//! a time, so these digests pin everything a run can observe of a
//! generator, independently of any simulated fingerprint.  The topologies
//! cover the paper's 8x4 machine, an odd 3x3 machine whose owned ranges are
//! uneven, and a 32x4 machine at a 1/4096 sliver where fmm's 64 boxes leave
//! half the processors without a box of their own.
//!
//! Each case is checked through [`fused`] twice: pulled round-robin in
//! bursts (the simulator's pattern), and drained one processor at a time in
//! reverse order (the most adversarial order for a source that parks
//! events).
//!
//! Regenerating (deliberate generator changes only):
//! `GOLDEN_REGEN=1 cargo test --test streams_golden -- --ignored
//!  regen_streams_golden`, and commit the diff with the justification.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dsm_repro::prelude::*;
use dsm_repro::trace::TraceEvent;

const GOLDEN: &str = include_str!("golden/streams.txt");

/// The covered cases: `(topology label, topology, scales)`.
fn cases() -> Vec<(&'static str, Topology, [CustomScale; 2])> {
    vec![
        (
            "8x4",
            Topology::new(8, 4),
            [CustomScale::new(1, 64), CustomScale::new(1, 32)],
        ),
        (
            "3x3",
            Topology::new(3, 3),
            [CustomScale::new(1, 64), CustomScale::new(1, 32)],
        ),
        (
            "32x4",
            Topology::new(32, 4),
            [CustomScale::new(1, 4096), CustomScale::new(1, 1024)],
        ),
    ]
}

/// One processor's stream summary: event count and FNV-1a digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    events: u64,
    hash: u64,
}

impl Digest {
    const fn new() -> Self {
        Digest {
            events: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.hash ^= u64::from(*b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one event in: a tag byte, then its payload little-endian (the
    /// DSMTRC01 record body).
    fn event(&mut self, ev: &TraceEvent) {
        self.events += 1;
        match ev {
            TraceEvent::Access(m) => {
                self.bytes(&[u8::from(m.kind.is_write())]);
                self.bytes(&m.addr.0.to_le_bytes());
            }
            TraceEvent::Compute(v) => {
                self.bytes(&[2]);
                self.bytes(&v.to_le_bytes());
            }
            TraceEvent::Barrier(v) => {
                self.bytes(&[3]);
                self.bytes(&v.to_le_bytes());
            }
            TraceEvent::Lock(v) => {
                self.bytes(&[4]);
                self.bytes(&v.to_le_bytes());
            }
            TraceEvent::Unlock(v) => {
                self.bytes(&[5]);
                self.bytes(&v.to_le_bytes());
            }
        }
    }
}

/// Golden key of one processor's stream.
fn key(workload: &str, scale: CustomScale, topo: &str, proc: usize) -> String {
    format!("{workload} {} {topo} {proc}", scale.label())
}

fn parse_golden() -> BTreeMap<String, Digest> {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 6, "golden line: app scale topo proc events digest");
            let digest = Digest {
                events: f[4].parse().expect("event count"),
                hash: u64::from_str_radix(f[5].trim_start_matches("0x"), 16).expect("hex digest"),
            };
            (f[..4].join(" "), digest)
        })
        .collect()
}

/// Every covered stream, in a fixed order, with its configuration.
fn each_case(mut f: impl FnMut(&dyn Workload, &WorkloadConfig, CustomScale, &str)) {
    for (label, topo, scales) in cases() {
        for scale in scales {
            let cfg = WorkloadConfig::at_scale(Scale::Custom(scale)).with_topology(topo);
            for w in catalog() {
                f(w.as_ref(), &cfg, scale, label);
            }
        }
    }
}

/// Writes `tests/golden/streams.txt` from the materialized generators.
/// Gated twice (`#[ignore]` + `GOLDEN_REGEN`) like the other goldens.
#[test]
#[ignore = "regenerates the golden file; run with GOLDEN_REGEN=1"]
fn regen_streams_golden() {
    if std::env::var("GOLDEN_REGEN").is_err() {
        eprintln!("GOLDEN_REGEN not set; refusing to overwrite the golden file");
        return;
    }
    let mut body = String::from(
        "# Per-processor event streams: workload scale topology proc events fnv1a64\n\
         # Generated by `GOLDEN_REGEN=1 cargo test --test streams_golden -- --ignored\n\
         # regen_streams_golden`; see tests/streams_golden.rs.\n",
    );
    each_case(|w, cfg, scale, topo| {
        let trace = w.generate(cfg);
        for (p, events) in trace.per_proc.iter().enumerate() {
            let mut d = Digest::new();
            events.iter().for_each(|ev| d.event(ev));
            writeln!(
                body,
                "{} {} 0x{:016x}",
                key(w.name(), scale, topo, p),
                d.events,
                d.hash
            )
            .unwrap();
        }
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/streams.txt");
    std::fs::write(path, body).expect("write golden file");
}

/// Compare one case's per-processor digests with the golden.
fn check(golden: &BTreeMap<String, Digest>, got: &[Digest], w: &str, s: CustomScale, t: &str) {
    for (p, d) in got.iter().enumerate() {
        let k = key(w, s, t, p);
        let expected = golden
            .get(&k)
            .unwrap_or_else(|| panic!("no golden stream for `{k}`"));
        assert_eq!(d, expected, "stream `{k}` diverged from the golden");
    }
}

#[test]
fn golden_covers_every_case() {
    let golden = parse_golden();
    let mut streams = 0;
    each_case(|_, cfg, _, _| streams += cfg.topology.total_procs());
    assert_eq!(
        golden.len(),
        streams,
        "one golden line per processor stream"
    );
}

/// The simulator's pull pattern: round-robin bursts, here of a size that
/// changes from pull to pull so slices never line up with bursts.
#[test]
fn fused_streams_match_the_golden_under_burst_pulls() {
    let golden = parse_golden();
    each_case(|w, cfg, scale, topo| {
        let procs = cfg.topology.total_procs();
        let mut src = fused(w, cfg);
        let mut got = vec![Digest::new(); procs];
        let mut live = vec![true; procs];
        let mut buf = Vec::new();
        let mut pull = 0usize;
        while live.iter().any(|&l| l) {
            for p in 0..procs {
                if !live[p] {
                    continue;
                }
                pull += 1;
                buf.clear();
                let max = [128, 1, 37, 500][pull % 4];
                let n = src.next_burst(ProcId(p as u16), &mut buf, max);
                assert!(n <= max && n == buf.len(), "burst contract");
                if n == 0 {
                    live[p] = false;
                    assert!(src.exhausted(ProcId(p as u16)));
                }
                buf.iter().for_each(|ev| got[p].event(ev));
            }
        }
        check(&golden, &got, w.name(), scale, topo);
        assert!(src.take_error().is_none());
    });
}

/// Each processor drained to exhaustion before the next is touched, last
/// processor first.
#[test]
fn fused_streams_match_the_golden_drained_in_reverse() {
    let golden = parse_golden();
    each_case(|w, cfg, scale, topo| {
        let procs = cfg.topology.total_procs();
        let mut src = fused(w, cfg);
        let mut got = vec![Digest::new(); procs];
        for p in (0..procs).rev() {
            let proc = ProcId(p as u16);
            while let Some(ev) = src.next_event(proc) {
                got[p].event(&ev);
            }
            assert!(src.exhausted(proc));
        }
        check(&golden, &got, w.name(), scale, topo);
        assert!(src.take_error().is_none());
    });
}
