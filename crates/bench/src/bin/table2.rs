//! Prints Table 2: the applications and their input parameters, both the
//! paper's originals and the reduced inputs this reproduction runs by
//! default.  Takes no options.

const USAGE: &str = "\
usage: table2

Prints Table 2: the applications and their input parameters, the paper's
and the reduced ones this reproduction runs by default.

options:
  -h, --help           print this help and exit";

fn main() {
    dsm_bench::cli::no_options(USAGE);
    print!("{}", dsm_bench::report::format_table2());
}
