//! Quickstart: simulate one SPLASH-2-like workload on the three systems the
//! paper spends most of its time on — CC-NUMA, CC-NUMA+MigRep and R-NUMA —
//! and print the headline numbers.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dsm_repro::prelude::*;

fn main() {
    // 1. Generate a shared-memory reference trace for the paper's 8x4
    //    cluster.  `lu` is the blocked dense LU factorization of Table 2.
    let workload = by_name("lu").expect("lu is in the catalog");
    let trace = workload.generate(&WorkloadConfig::reduced());
    let stats = trace.stats();
    println!(
        "workload: {} ({} accesses, {} pages, {:.0}% writes)",
        trace.name,
        stats.accesses,
        stats.footprint_pages,
        stats.write_fraction() * 100.0
    );

    // 2. Compose the systems to compare with the `System` builder.  Perfect
    //    CC-NUMA (infinite block cache) is the baseline the paper
    //    normalizes against.
    let set = SystemSet {
        experiment: "quickstart",
        baseline: System::perfect_cc_numa().build(),
        systems: vec![
            System::cc_numa().build(),
            System::cc_numa().with(MigRep::both()).build(),
            System::r_numa().build(),
        ],
    };

    // 3. Run every (workload, system) pair as a one-point sweep.
    let result = Sweep::new(set.experiment)
        .system_set(set)
        .traces(vec![trace])
        .run();

    // 4. Report.
    let baseline = &result.baselines[0].result;
    println!(
        "\n{:<12} {:>12} {:>10} {:>14} {:>10}",
        "system", "exec cycles", "vs perfect", "remote misses", "page ops"
    );
    println!(
        "{:<12} {:>12} {:>10.2} {:>14} {:>10}",
        baseline.system,
        baseline.execution_time.raw(),
        1.0,
        baseline.total_remote_misses(),
        baseline.total_page_operations()
    );
    for p in &result.points {
        let r = &p.result;
        println!(
            "{:<12} {:>12} {:>10.2} {:>14} {:>10}",
            r.system,
            r.execution_time.raw(),
            p.normalized_time,
            r.total_remote_misses(),
            r.total_page_operations()
        );
    }
}
