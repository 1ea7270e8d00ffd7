//! Building a custom workload trace and comparing page migration against
//! fine-grain caching on it.
//!
//! The synthetic workload is a producer/consumer pattern the paper's
//! Section 4 analysis talks about directly: a large buffer is initialised by
//! node 0 and afterwards used (read-write) exclusively by node 1.  Page
//! migration is the textbook answer; R-NUMA should match it by caching the
//! pages in node 1's memory instead.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use dsm_repro::prelude::*;
use mem_trace::AddressSpace;

fn main() {
    let machine = MachineConfig::PAPER;
    let topology = machine.topology;

    // Lay out a 1-MB shared buffer.
    let mut space = AddressSpace::new();
    let buffer = space.alloc("buffer", 16 * 1024, 64); // 16K cache lines

    // Build the trace: node 0 (processor 0) produces, node 1's four
    // processors then consume it repeatedly with a working set larger than
    // their processor caches.
    let mut b = TraceBuilder::new("producer-consumer", topology).with_think_cycles(4);
    for line in 0..buffer.elements() {
        b.write(ProcId(0), buffer.elem(line));
    }
    b.barrier_all();
    for round in 0..6u64 {
        for line in 0..buffer.elements() {
            let consumer = ProcId(topology.procs_per_node + (line % 4) as u16);
            if round % 3 == 2 {
                b.write(consumer, buffer.elem(line));
            } else {
                b.read(consumer, buffer.elem(line));
            }
        }
        b.barrier_all();
    }
    let trace = b.build();
    trace.validate().expect("well-formed trace");

    // Thresholds low enough for the (short) synthetic run to trigger the
    // page mechanisms.
    let thresholds = Thresholds {
        migrep_threshold: 64,
        migrep_reset_interval: 100_000,
        rnuma_threshold: 8,
        rnuma_relocation_delay: 0,
    };

    // Compose the contenders and run the custom trace through the harness.
    let set = SystemSet {
        experiment: "producer/consumer: migration vs fine-grain caching",
        baseline: System::perfect_cc_numa().build(),
        systems: vec![
            System::cc_numa().build(),
            System::cc_numa()
                .with(MigRep::migration_only())
                .with(thresholds)
                .build(),
            System::r_numa().with(thresholds).build(),
        ],
    };
    let result = Sweep::new(set.experiment)
        .machine(machine)
        .system_set(set)
        .traces(vec![trace])
        .run();

    println!(
        "{:<12} {:>10} {:>14} {:>12} {:>12}",
        "system", "vs perfect", "remote misses", "migrations", "relocations"
    );
    for p in &result.points {
        let r = &p.result;
        println!(
            "{:<12} {:>10.2} {:>14} {:>12} {:>12}",
            r.system,
            p.normalized_time,
            r.total_remote_misses(),
            r.per_node.iter().map(|n| n.migrations).sum::<u64>(),
            r.per_node.iter().map(|n| n.relocations).sum::<u64>(),
        );
    }
}
