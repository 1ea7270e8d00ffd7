//! Cost-cliff attribution harness (`--features profile-counters`).
//!
//! The sweep engine's >64-node points cost ~10x their 64-node neighbours.
//! Two suspects: `SharerSet`s promoting off their inline tiers (every
//! membership op on a promoted set walks a boxed bitset), and the
//! simulator's O(nodes) gather loop in `migrate_page` (every migration
//! updates every node's view, touched or not).  The directory keeps flat
//! sharer rows and no `SharerSet`, so the tier counters now see only
//! MigRep replica masks and page-cache presence tags.  This run counts both at 8
//! vs 96 nodes and prints per-access rates so the dominant term is a fact,
//! not a guess.  It also prints the batched run loop's burst-occupancy
//! histogram: mass piled into bucket 0 means the schedule forces
//! single-event bursts and batching is not paying.  Findings are recorded
//! in ROADMAP.md.
//!
//! Run deliberately (release, ignored, nocapture):
//! `cargo test --release --features profile-counters --test profile_cliff
//!  -- --ignored --nocapture`
#![cfg(feature = "profile-counters")]

use dsm_repro::core::profile;
use dsm_repro::prelude::*;

fn run_at(nodes: u16) {
    let topo = Topology::new(nodes, 4);
    let machine = MachineConfig::PAPER.with_topology(topo);
    let cfg = WorkloadConfig::reduced().with_topology(topo);
    let system = System::cc_numa()
        .with(MigRep::both())
        .with(Thresholds {
            migrep_threshold: 250,
            migrep_reset_interval: 8_000,
            rnuma_threshold: 8,
            rnuma_relocation_delay: 0,
        })
        .build();
    for w in catalog() {
        profile::reset();
        let start = std::time::Instant::now();
        let result =
            ClusterSimulator::new(machine, system.clone()).run_source(&mut fused(w.as_ref(), &cfg));
        let elapsed = start.elapsed().as_secs_f64();
        let (gathers, gather_visits) = profile::snapshot();
        let tiers = profile::sharers::snapshot();
        let (batches, batch_events, occupancy) = profile::batch_snapshot();
        let per_access = |n: u64| n as f64 / result.accesses as f64;
        let mean_burst = batch_events as f64 / batches.max(1) as f64;
        println!(
            "{nodes:>3} nodes {:<10} {elapsed:>7.3}s {:>11} accesses | \
             gathers {gathers:>9} visits {gather_visits:>12} ({:.4}/access) | \
             sharer promotions {:>7} ops u64 {:>12} u128 {:>12} hier {:>12} \
             ({:.4} hier/access)",
            w.name(),
            result.accesses,
            per_access(gather_visits),
            tiers.promotions,
            tiers.inline64_ops,
            tiers.inline128_ops,
            tiers.hier_ops,
            per_access(tiers.hier_ops),
        );
        println!(
            "          burst occupancy: {batches} bursts, mean {mean_burst:.1} ev/burst, \
             hist(2^i..2^(i+1)) {occupancy:?}"
        );
    }
}

#[test]
#[ignore = "profiling run; release build, prints counter attribution"]
fn attribute_the_cost_cliff_at_96_nodes() {
    run_at(8);
    run_at(96);
}
