//! Runs every experiment (Figures 5-8, Tables 1-4) at the selected scale and
//! prints each report in sequence.  This is the binary EXPERIMENTS.md's
//! measured numbers are generated from.

use dsm_bench::{presets, report, Options};

fn main() {
    let opts = Options::from_env();
    if opts.handle_record() {
        return;
    }

    println!("== Table 2 ==");
    print!("{}", report::format_table2());
    println!("\n== Table 3 ==");
    print!("{}", report::format_table3());

    let mut all_results = Vec::new();
    for (label, set) in [
        ("Figure 5", presets::figure5(opts.scale)),
        ("Figure 6", presets::figure6(opts.scale)),
        ("Figure 7", presets::figure7(opts.scale)),
        ("Figure 8", presets::figure8(opts.scale)),
    ] {
        println!("\n== {label} ==");
        let result = opts.run_preset(set);
        print!("{}", report::format_normalized_table(&result));
        all_results.push(result);
    }

    println!("\n== Table 4 ==");
    let result = opts.run_preset(presets::table4(opts.scale));
    print!("{}", report::format_table4(&result));
    all_results.push(result);

    opts.emit_artifacts(&all_results);
}
