//! Regenerates Table 4: per-node page operations (migrations, replications,
//! R-NUMA relocations) and remote-miss breakdowns for CC-NUMA,
//! CC-NUMA+MigRep and R-NUMA.
use dsm_bench::{presets, report, Options};

fn main() {
    let opts = Options::from_env();
    if opts.handle_record() {
        return;
    }
    let result = opts.run_preset(presets::table4(opts.scale));
    print!("{}", report::format_table4(&result));
    opts.emit_artifacts(&[result]);
}
