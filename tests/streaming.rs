//! Streaming trace pipeline integration: incremental statistics, the
//! record/replay format end-to-end through the simulator and the sweep
//! harness, fused/materialized fingerprint parity, the per-processor
//! staging bound of fused sources, the replay window cap, and the fallible
//! `try_run` surface.

use dsm_repro::prelude::*;

/// Satellite requirement: incremental `TraceStats` accumulated while a
/// stream is drained must equal batch `ProgramTrace::stats()` for all seven
/// workloads at `Reduced` scale.
#[test]
fn streamed_stats_equal_batch_stats_for_all_workloads() {
    let cfg = WorkloadConfig::reduced();
    for w in catalog() {
        let batch = w.generate(&cfg).stats();
        let mut source = fused(&*by_name(w.name()).expect("catalog name"), &cfg);
        for p in cfg.topology.proc_ids() {
            while source.next_event(p).is_some() {}
        }
        assert_eq!(
            source.stats_so_far(),
            batch,
            "incremental stats diverged from batch stats for {}",
            w.name()
        );
    }
}

/// All three source implementations report *identical* statistics
/// mid-stream: exactly the events the consumer has pulled, no matter
/// whether the source is a materialized cursor, a fused generator or a
/// replayed recording.
#[test]
fn all_sources_report_identical_stats_mid_stream() {
    let cfg = WorkloadConfig::reduced_for_tests();
    let w = by_name("lu").unwrap();
    let trace = w.generate(&cfg);
    let mut cursor = trace.source();
    let mut fused_src = fused(w.as_ref(), &cfg);
    let mut recording = Vec::new();
    dsm_repro::trace::record(&mut trace.source(), &mut recording).expect("record lu");
    let mut replay_src = ReplaySource::from_reader(&recording[..]).expect("replay lu");

    // Pull an uneven prefix: 500 events of proc 0, 100 of proc 5.
    let pulls = [(ProcId(0), 500usize), (ProcId(5), 100)];
    for (p, n) in pulls {
        for _ in 0..n {
            let a = cursor.next_event(p);
            let b = fused_src.next_event(p);
            let c = replay_src.next_event(p);
            assert_eq!(a, b);
            assert_eq!(a, c);
        }
    }
    let reference = cursor.stats_so_far();
    assert!(reference.accesses > 0);
    assert_eq!(
        fused_src.stats_so_far(),
        reference,
        "fused mid-stream stats"
    );
    assert_eq!(
        replay_src.stats_so_far(),
        reference,
        "replayed mid-stream stats"
    );
}

/// The core parity requirement: fused and materialized deliveries of
/// every workload produce bit-identical `SimResult` fingerprints — at
/// reduced scale and at a custom (non-Table-2) scale.
#[test]
fn fused_and_materialized_runs_are_fingerprint_identical() {
    let sim = ClusterSimulator::new(MachineConfig::PAPER, System::cc_numa().build());
    for cfg in [
        WorkloadConfig::reduced_for_tests(),
        WorkloadConfig::at_scale(Scale::Custom(CustomScale::new(1, 16))),
    ] {
        for w in catalog() {
            let materialized = sim.run(&w.generate(&cfg));
            let fused_run = sim.run_source(&mut fused(w.as_ref(), &cfg));
            assert_eq!(
                materialized.fingerprint(),
                fused_run.fingerprint(),
                "{} fused diverged at {:?}",
                w.name(),
                cfg.scale
            );
            assert_eq!(materialized, fused_run);
        }
    }
}

/// The quiet-processor case, on the one source that still parks events: a
/// DSMTRC01 file in which every record of processor 1 follows every record
/// of processor 0.  Pulling processor 1 first would park the whole of
/// processor 0's stream; instead the replay stops at its window cap with
/// `TraceError::StreamWindowExceeded` (this test's tight cap stands in for
/// a memory ceiling).
#[test]
fn adversarial_quiet_processor_pull_is_capped() {
    const CAP: usize = 50_000;
    const EVENTS: u64 = 200_000;
    let topo = Topology::new(2, 1);
    let mut bytes = b"DSMTRC01".to_vec();
    bytes.extend_from_slice(&5u32.to_le_bytes());
    bytes.extend_from_slice(b"quiet");
    bytes.extend_from_slice(&topo.nodes.to_le_bytes());
    bytes.extend_from_slice(&topo.procs_per_node.to_le_bytes());
    for i in 0..EVENTS {
        // Processor 0: a read (tag 0) of an 8-byte address.
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&((i % 100_000) * 64).to_le_bytes());
    }
    // Processor 1's only record: a compute (tag 2) of one cycle.
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.push(2);
    bytes.extend_from_slice(&1u32.to_le_bytes());
    let path = std::env::temp_dir().join(format!("dsm-repro-quiet-{}.trc", std::process::id()));
    std::fs::write(&path, &bytes).expect("write the trace file");
    let open = || {
        ReplaySource::open(&path)
            .expect("open the trace file")
            .with_window_cap(CAP)
    };

    // Direct pull of the quiet processor.
    let mut src = open();
    assert!(src.next_event(ProcId(1)).is_none());
    assert!(
        src.buffered_events() <= CAP,
        "demux parked {} events past the cap",
        src.buffered_events()
    );
    assert!(matches!(
        src.take_error(),
        Some(TraceError::StreamWindowExceeded { cap: CAP, .. })
    ));

    // And through the simulator: the error surfaces as a `TraceError`
    // value from `try_run_source`, not a panic or a silent wrong result.
    let sim = ClusterSimulator::new(
        MachineConfig::PAPER.with_topology(topo),
        System::cc_numa().build(),
    );
    let mut src = open();
    let run = sim.try_run_source(&mut src);
    std::fs::remove_file(&path).ok();
    match run {
        Err(TraceError::StreamWindowExceeded { cap, buffered }) => {
            assert_eq!(cap, CAP);
            assert!(buffered >= CAP);
        }
        other => panic!("expected StreamWindowExceeded from the simulator, got {other:?}"),
    }
}

/// A fused source generates each processor's stream where it is pulled:
/// fully draining one processor before touching the others stages at most
/// one slice of the processor being drained — never a phase of the others.
#[test]
fn workload_streams_survive_adversarial_pull_orders_within_the_window() {
    // One processor's staging: a fill stops at the first item boundary at
    // or past FILL_EVENTS, and no item at this scale exceeds 1.5K events (a
    // cholesky task is the largest, at ~1.4K).
    let stage_bound = dsm_repro::workloads::FILL_EVENTS + 1_536;
    let cfg = WorkloadConfig::reduced_for_tests();
    for w in catalog() {
        let mut src = fused(w.as_ref(), &cfg);
        // Drain processors in reverse order, each to exhaustion.
        let mut procs: Vec<ProcId> = cfg.topology.proc_ids().collect();
        procs.reverse();
        let mut peak = 0;
        for p in procs {
            while src.next_event(p).is_some() {
                peak = peak.max(src.buffered_events());
            }
            assert_eq!(
                src.buffered_events(),
                0,
                "{}: {p:?} left events staged",
                w.name()
            );
        }
        assert!(
            peak < stage_bound,
            "{}: {peak} events staged, past one processor's staging bound",
            w.name()
        );
        assert!(src.take_error().is_none());
    }
}

/// Record a workload to a trace file, replay it through the simulator and
/// the sweep harness: every result must be bit-identical to the
/// generated workload's.
#[test]
fn recorded_traces_replay_bit_identically() {
    let cfg = WorkloadConfig::reduced();
    let path = std::env::temp_dir().join("dsm-repro-streaming-ocean.trc");
    let mut source = fused(&*by_name("ocean").unwrap(), &cfg);
    dsm_repro::trace::record_to_file(&mut source, &path).expect("record ocean");
    // Recording drained the stream completely: stats match the batch path.
    assert_eq!(
        source.stats_so_far(),
        by_name("ocean").unwrap().generate(&cfg).stats()
    );

    let sim = ClusterSimulator::new(MachineConfig::PAPER, System::cc_numa().build());
    let direct = sim.run(&by_name("ocean").unwrap().generate(&cfg));
    let mut replay = ReplaySource::open(&path).expect("open recorded trace");
    assert_eq!(replay.name(), "ocean");
    let replayed = sim.run_source(&mut replay);
    assert_eq!(direct, replayed, "replayed SimResult diverged");

    // And through the sweep harness (fresh stream per job).
    let sweep = || Sweep::new("replay").system(System::cc_numa().build());
    let from_file = sweep().replay(&path).run();
    let from_generator = sweep().workloads(["ocean"]).run();
    assert_eq!(
        from_file.baselines[0].result,
        from_generator.baselines[0].result
    );
    assert_eq!(from_file.points[0].result, from_generator.points[0].result);
    std::fs::remove_file(&path).ok();
}

/// `try_run` reports malformed traces as values; `run` stays the panicking
/// shim over it.
#[test]
fn try_run_surfaces_trace_errors_as_values() {
    let machine = MachineConfig::PAPER;
    let sim = ClusterSimulator::new(machine, System::cc_numa().build());

    let wrong_procs = TraceBuilder::new("tiny", Topology::new(1, 1)).build();
    assert!(matches!(
        sim.try_run(&wrong_procs),
        Err(TraceError::ProcCountMismatch { .. })
    ));

    let mut b = TraceBuilder::new("unlock-only", machine.topology);
    b.unlock(ProcId(5), 1);
    let err = sim.try_run(&b.build()).unwrap_err();
    assert!(matches!(err, TraceError::UnbalancedLock { .. }));
    // The error is a real std error with a human-readable message.
    let _: &dyn std::error::Error = &err;
    assert!(err.to_string().contains("lock"));

    let good = by_name("ocean")
        .unwrap()
        .generate(&WorkloadConfig::reduced());
    assert_eq!(sim.try_run(&good).expect("valid trace"), sim.run(&good));
}
