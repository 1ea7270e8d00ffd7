//! Prints Table 3: the cost model (block and page operation latencies) for
//! the base system, plus the slow-page-operation variant of Section 6.2.
//! Takes no options.

use dsm_core::CostModel;

const USAGE: &str = "\
usage: table3

Prints Table 3: the block and page operation latencies of the base system
and of the slow-page-operation variant.

options:
  -h, --help           print this help and exit";

fn main() {
    dsm_bench::cli::no_options(USAGE);
    print!("{}", dsm_bench::report::format_table3());
    println!();
    println!(
        "remote:local latency ratio  base={:.1}  (Figure 7 uses {:.1})",
        CostModel::base().remote_to_local_ratio(),
        CostModel::base()
            .with_remote_latency_factor(4)
            .remote_to_local_ratio()
    );
}
