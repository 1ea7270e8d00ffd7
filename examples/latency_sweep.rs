//! Network-latency sensitivity sweep (the axis behind Figure 7).
//!
//! DSM clusters span a wide range of remote-to-local latency ratios — from
//! tightly integrated machines (ratio ~4) to commodity-interconnect
//! clusters (ratio 16+).  This example sweeps the remote-latency multiplier
//! for one workload and shows how quickly plain CC-NUMA falls behind while
//! R-NUMA stays close to the perfect-CC-NUMA bound.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example latency_sweep
//! ```

use dsm_repro::prelude::*;

fn main() {
    let machine = MachineConfig::PAPER;
    let workload = by_name("raytrace").expect("raytrace is in the catalog");
    let trace = workload.generate(&WorkloadConfig::reduced());

    println!(
        "{:>18} {:>14} {:>10} {:>10} {:>10}",
        "remote multiplier", "remote:local", "CC-NUMA", "MigRep", "R-NUMA"
    );
    for factor in [1u64, 2, 4, 8] {
        // One experiment per sweep point: the same three systems, with the
        // remote path stretched by `factor` (baseline included, so the
        // normalization is against perfect CC-NUMA *at this latency*).
        let costs = CostModel::base().with_remote_latency_factor(factor);
        let set = SystemSet {
            experiment: "latency sweep",
            baseline: System::perfect_cc_numa().with(costs).build(),
            systems: vec![
                System::cc_numa().with(costs).build(),
                System::cc_numa().with(MigRep::both()).with(costs).build(),
                System::r_numa().with(costs).build(),
            ],
        };
        let result = Sweep::new(set.experiment)
            .machine(machine)
            .system_set(set)
            .traces(vec![trace.clone()])
            .run();
        let normalized = |i: usize| result.points[i].normalized_time;
        println!(
            "{:>18} {:>14.1} {:>10.2} {:>10.2} {:>10.2}",
            format!("{factor}x"),
            costs.remote_to_local_ratio(),
            normalized(0),
            normalized(1),
            normalized(2),
        );
    }
}
