//! Regenerates Figure 7: sensitivity to network latency (remote path
//! stretched 4x).
use dsm_bench::{presets, report, Options};

fn main() {
    let opts = Options::from_env();
    if opts.handle_record() {
        return;
    }
    let result = opts.run_preset(presets::figure7(opts.scale));
    print!("{}", report::format_normalized_table(&result));
    opts.emit_artifacts(&[result]);
}
