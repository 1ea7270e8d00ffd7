//! Page-cache sizing study (the question behind Section 6.4 of the paper):
//! how much S-COMA page cache does R-NUMA need before it stops losing
//! performance to replacements?
//!
//! Sweeps the per-node page-cache size from 64 KB to infinite for `radix`,
//! the workload with the largest streaming working set, and prints the
//! normalized execution time and replacement count at each point.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example page_cache_sizing
//! ```

use dsm_repro::prelude::*;

fn main() {
    let machine = MachineConfig::PAPER;
    let sizes_kb = [64u64, 256, 512, 1024, 2400, 4800];

    // One sweep: CC-NUMA for reference, then every page-cache size.  Its
    // jobs run in parallel across worker threads.
    let mut systems = vec![System::cc_numa().build()];
    systems.extend(sizes_kb.iter().map(|kb| {
        System::r_numa()
            .with(PageCaching::bytes(kb * 1024))
            .named(format!("R-NUMA-{kb}KB"))
            .build()
    }));
    systems.push(System::r_numa().with(PageCaching::infinite()).build());

    // Normalized against the sweep's default baseline, perfect CC-NUMA.
    let result = systems
        .into_iter()
        .fold(
            Sweep::new("page-cache sizing").machine(machine),
            Sweep::system,
        )
        .workloads(["radix"])
        .run();

    let reference = &result.points[0];
    println!(
        "radix on CC-NUMA: {:.2}x perfect CC-NUMA ({} remote misses)\n",
        reference.normalized_time,
        reference.result.total_remote_misses()
    );

    println!(
        "{:>14} {:>12} {:>14} {:>14} {:>12}",
        "page cache", "vs perfect", "remote misses", "relocations", "replacements"
    );
    let labels = sizes_kb
        .iter()
        .map(|kb| format!("{kb} KB"))
        .chain(["infinite".to_string()]);
    // Skip the CC-NUMA reference point.
    for (label, p) in labels.zip(&result.points[1..]) {
        let r = &p.result;
        println!(
            "{:>14} {:>12.2} {:>14} {:>14} {:>12}",
            label,
            p.normalized_time,
            r.total_remote_misses(),
            r.total_page_operations(),
            r.total_page_cache_replacements()
        );
    }
}
