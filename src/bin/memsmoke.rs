//! Bounded-memory smoke binary: runs one workload simulation through the
//! fused streaming trace pipeline, or by materializing the whole trace
//! first.
//!
//! The CI bounded-memory job (and `tests/api_parity.rs`) runs this under a
//! `ulimit -v` address-space ceiling sized so that the streamed path
//! completes while the materialized path aborts on allocation — the
//! executable proof that streaming keeps peak memory flat at paper scale.
//!
//! `--adversarial` proves the window cap of the one source that still
//! parks events, `ReplaySource`: it replays a DSMTRC01 trace in which every
//! record of processor 1 follows every record of processor 0, and pulls
//! processor 1 first — the pull order that would park all of processor 0's
//! records.  The drain stops at the cap and reports
//! `TraceError::StreamWindowExceeded`, so the run fits a ceiling the
//! parked records would exceed.
//!
//! ```text
//! memsmoke [--materialize|--fused|--adversarial]
//!          [--paper] [--workload NAME] [--system cc-numa|r-numa]
//! ```

use dsm_repro::prelude::*;

enum Mode {
    Materialize,
    Fused,
    Adversarial,
}

fn main() {
    let mut mode = Mode::Fused;
    let mut scale = Scale::Paper;
    let mut workload = String::from("radix");
    let mut system = String::from("cc-numa");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--materialize" => mode = Mode::Materialize,
            "--fused" => mode = Mode::Fused,
            "--adversarial" => mode = Mode::Adversarial,
            "--paper" => scale = Scale::Paper,
            "--reduced" => scale = Scale::Reduced,
            "--workload" => {
                workload = args
                    .next()
                    .unwrap_or_else(|| usage("--workload needs a value"))
            }
            "--system" => {
                system = args
                    .next()
                    .unwrap_or_else(|| usage("--system needs a value"))
            }
            "-h" | "--help" => {
                println!(
                    "usage: memsmoke [--materialize|--fused|--adversarial] \
                     [--paper|--reduced] [--workload NAME] [--system cc-numa|r-numa]"
                );
                return;
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }

    if let Mode::Adversarial = mode {
        adversarial_replay_pull();
        return;
    }

    let wl = by_name(&workload).unwrap_or_else(|| usage(&format!("unknown workload {workload}")));
    let cfg = WorkloadConfig::at_scale(scale);
    let sys = match system.as_str() {
        "cc-numa" => System::cc_numa().build(),
        "r-numa" => System::r_numa().build(),
        other => usage(&format!("unknown system {other}")),
    };
    let sim = ClusterSimulator::new(MachineConfig::PAPER, sys);

    let (mode_name, result) = match mode {
        Mode::Materialize => {
            let trace = wl.generate(&cfg);
            ("materialized", sim.run(&trace))
        }
        Mode::Fused => ("fused", sim.run_source(&mut fused(wl.as_ref(), &cfg))),
        Mode::Adversarial => unreachable!("handled above"),
    };
    println!(
        "mode={} workload={} system={} accesses={} barriers={} execution_time={}",
        mode_name,
        result.workload,
        result.system,
        result.accesses,
        result.barriers,
        result.execution_time.raw()
    );
}

/// A DSMTRC01 trace produced as it is read: `events` reads by processor 0,
/// then the one record of processor 1 — the bytes a recording of that
/// shape holds, without a 440 MB file on disk.
struct QuietProcTrace {
    pending: Vec<u8>,
    at: usize,
    next: u64,
    events: u64,
}

impl QuietProcTrace {
    fn new(events: u64) -> Self {
        let mut header = b"DSMTRC01".to_vec();
        header.extend_from_slice(&5u32.to_le_bytes());
        header.extend_from_slice(b"quiet");
        header.extend_from_slice(&2u16.to_le_bytes()); // nodes
        header.extend_from_slice(&1u16.to_le_bytes()); // processors per node
        QuietProcTrace {
            pending: header,
            at: 0,
            next: 0,
            events,
        }
    }
}

impl std::io::Read for QuietProcTrace {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.at == self.pending.len() {
            self.pending.clear();
            self.at = 0;
            while self.pending.len() < 64 * 1024 && self.next <= self.events {
                if self.next < self.events {
                    // Processor 0: a read (tag 0) of an 8-byte address.
                    self.pending.extend_from_slice(&0u16.to_le_bytes());
                    self.pending.push(0);
                    let addr = (self.next % 1_000_000) * 64;
                    self.pending.extend_from_slice(&addr.to_le_bytes());
                } else {
                    // Processor 1's only record, after all of processor 0's:
                    // a compute (tag 2) of one cycle.
                    self.pending.extend_from_slice(&1u16.to_le_bytes());
                    self.pending.push(2);
                    self.pending.extend_from_slice(&1u32.to_le_bytes());
                }
                self.next += 1;
            }
        }
        let n = (self.pending.len() - self.at).min(buf.len());
        buf[..n].copy_from_slice(&self.pending[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// The replay window cap, proven: replay a trace whose processor 1 comes
/// entirely after processor 0, pull processor 1 first, and check the demux
/// gives up at its cap instead of parking processor 0's records.  Exits 0
/// when the cap fired as designed.
fn adversarial_replay_pull() {
    const EVENTS: u64 = 40_000_000; // ~640 MB if the demux parked them all
    const CAP: usize = 1 << 20;

    let mut source = ReplaySource::from_reader(QuietProcTrace::new(EVENTS))
        .unwrap_or_else(|e| {
            eprintln!("error: reading the trace header: {e}");
            std::process::exit(1);
        })
        .with_window_cap(CAP);

    // The adversarial order: ask for the quiet processor first.
    let got = source.next_event(ProcId(1));
    let parked = source.buffered_events();
    match source.take_error() {
        Some(TraceError::StreamWindowExceeded { buffered, cap }) => {
            assert!(got.is_none(), "poisoned source must not yield events");
            assert!(parked <= cap, "demux kept {parked} events past its cap");
            println!(
                "mode=adversarial outcome=capped buffered={buffered} cap={cap} parked={parked}"
            );
        }
        other => {
            eprintln!(
                "error: adversarial pull was expected to trip the window cap, got {other:?} \
                 (event: {got:?})"
            );
            std::process::exit(1);
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
