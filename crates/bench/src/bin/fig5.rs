//! Regenerates Figure 5: base performance comparison of CC-NUMA, Rep, Mig,
//! MigRep, R-NUMA and R-NUMA-Inf, normalized against perfect CC-NUMA.
use dsm_bench::{presets, report, Options};

fn main() {
    let opts = Options::from_env();
    if opts.handle_record() {
        return;
    }
    let result = opts.run_preset(presets::figure5(opts.scale));
    print!("{}", report::format_normalized_table(&result));
    opts.emit_artifacts(&[result]);
}
