//! Prints Table 1: the qualitative opportunity/overhead comparison of page
//! replication, page migration and R-NUMA, backed by measured per-node page
//! operation counts from a reduced-scale run of two representative
//! workloads (lu: replication-friendly; ocean: neither).  The two are
//! fixed: `--workloads` is ignored, and `--replay` is refused (exit 2).

use dsm_bench::{presets, Axis, Options, Sweep};

fn main() {
    let opts = Options::from_env();
    if opts.handle_record() {
        return;
    }
    if opts.replay.is_some() {
        eprintln!("error: `--replay` is not supported: Table 1 always measures lu and ocean");
        std::process::exit(2);
    }
    println!("# Table 1: capacity/conflict miss reduction opportunity and overhead");
    println!(
        "{:<18} {:<14} {:<26} {:<14} {:<10} frequency",
        "mechanism", "read-only", "read/write (low degree)", "(high degree)", "overhead"
    );
    println!(
        "{:<18} {:<14} {:<26} {:<14} {:<10} low",
        "page replication", "yes", "no", "no", "high"
    );
    println!(
        "{:<18} {:<14} {:<26} {:<14} {:<10} low",
        "page migration", "no", "yes", "no", "high"
    );
    println!(
        "{:<18} {:<14} {:<26} {:<14} {:<10} much higher",
        "R-NUMA", "yes", "yes", "yes", "low"
    );
    println!();
    println!("# measured per-node page-operation counts supporting the frequency column");
    let set = presets::table4(opts.scale);
    let result = Sweep::new(set.experiment)
        .system_set(set)
        .workloads(["lu", "ocean"])
        .scale(opts.scale)
        .threads(opts.threads)
        .run();
    println!(
        "{:<10} {:>22} {:>22} {:>26}",
        "workload", "migrations/node", "replications/node", "R-NUMA relocations/node"
    );
    for workload in result.axis_values(Axis::Workload) {
        let system = |name| &result.point(&workload, name).expect("preset has it").result;
        let (migrep, rnuma) = (system("MigRep"), system("R-NUMA"));
        println!(
            "{:<10} {:>22.1} {:>22.1} {:>26.1}",
            workload,
            migrep.per_node_migrations(),
            migrep.per_node_replications(),
            rnuma.per_node_relocations()
        );
    }
    opts.emit_artifacts(&[result]);
}
