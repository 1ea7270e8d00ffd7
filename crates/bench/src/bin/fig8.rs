//! Regenerates Figure 8: the R-NUMA+MigRep hybrid of Section 6.4.
use dsm_bench::{presets, report, Options};

fn main() {
    let opts = Options::from_env();
    if opts.handle_record() {
        return;
    }
    let result = opts.run_preset(presets::figure8(opts.scale));
    print!("{}", report::format_normalized_table(&result));
    opts.emit_artifacts(&[result]);
}
