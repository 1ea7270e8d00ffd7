//! Determinism regression: every (workload, system) pair, run twice through
//! the production streaming path, must produce bit-identical [`SimResult`]s.
//!
//! The simulator's state is spread across many per-page/per-block tables; a
//! single remaining `HashMap`/`HashSet` iteration on a path that orders
//! network messages or page operations would show up here as run-to-run
//! drift (PR 1 found exactly that in `migrate_page`'s gather set).  After
//! the arena-indexed flattening, every hot-path table is a `Vec` keyed by
//! interned index — iteration order is structural — but this test keeps the
//! property pinned for whatever state the next subsystem adds.

use dsm_repro::prelude::*;
use dsm_repro::protocol::PageCacheConfig;

/// Thresholds small enough for the reduced traces to exercise migration,
/// replication and relocation in every policy system.
fn thresholds() -> Thresholds {
    Thresholds {
        migrep_threshold: 250,
        migrep_reset_interval: 8_000,
        rnuma_threshold: 8,
        rnuma_relocation_delay: 0,
    }
}

/// The paper's four systems (the perfect baseline shares CC-NUMA's
/// machinery, so the finite-cache variants cover every code path).
fn systems() -> Vec<SystemConfig> {
    let t = thresholds();
    vec![
        System::cc_numa().build(),
        System::cc_numa().with(MigRep::both()).with(t).build(),
        System::r_numa().with(t).build(),
        System::r_numa()
            .with(PageCaching::config(PageCacheConfig::PAPER_HALF))
            .with(MigRep::both())
            .with(t)
            .named("R-NUMA-1/2+MigRep")
            .build(),
    ]
}

#[test]
fn every_workload_system_pair_is_bit_deterministic_across_runs() {
    let machine = MachineConfig::PAPER;
    let cfg = WorkloadConfig::reduced();
    for workload in catalog() {
        for system in systems() {
            let sim = ClusterSimulator::new(machine, system.clone());
            let run = || {
                let mut source = fused(&*by_name(workload.name()).expect("catalog name"), &cfg);
                sim.run_source(&mut source)
            };
            let a = run();
            let b = run();
            // `SimResult` is `Eq`: execution time, every per-node counter
            // and the full interconnect traffic matrix must all agree.
            assert_eq!(
                a,
                b,
                "SimResult drifted between two runs of {}/{}",
                workload.name(),
                system.name
            );
            // The pair actually exercised its machinery (a trivially empty
            // run would make this test vacuous).
            assert!(a.accesses > 0, "{} simulated no accesses", workload.name());
        }
    }
}
