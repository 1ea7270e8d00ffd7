//! Regenerates Figure 6: sensitivity to page-operation overhead (fast vs
//! slow page-operation support for MigRep and R-NUMA).
use dsm_bench::{presets, report, Options};

fn main() {
    let opts = Options::from_env();
    if opts.handle_record() {
        return;
    }
    let result = opts.run_preset(presets::figure6(opts.scale));
    print!("{}", report::format_normalized_table(&result));
    opts.emit_artifacts(&[result]);
}
