//! Golden text of the figure and table renderers.
//!
//! Figures 5–8 and Table 4 are rendered through the same path the figure
//! binaries take — flags parsed by `Options::parse`, each preset run by
//! `Options::run_preset`, the result printed by `report` — on lu, ocean and
//! radix at 1/32 of the Table 2 data sets, and compared byte for byte with
//! `tests/golden/figure_tables.txt`.
//!
//! Regenerating the file (only when a *deliberate* change to the printed
//! text is being made): `GOLDEN_REGEN=1 cargo test --test figure_tables --
//! --ignored regen_golden` and commit the diff with the justification.

use dsm_repro::bench::{presets, report, Options};

const GOLDEN: &str = include_str!("golden/figure_tables.txt");

fn render() -> String {
    let args = [
        "--custom",
        "1/32",
        "--workloads",
        "lu,ocean,radix",
        "--threads",
        "2",
    ];
    let opts = Options::parse(args.map(String::from)).expect("flags parse");
    let mut out = String::new();
    for set in [
        presets::figure5(opts.scale),
        presets::figure6(opts.scale),
        presets::figure7(opts.scale),
        presets::figure8(opts.scale),
    ] {
        out.push_str(&report::format_normalized_table(&opts.run_preset(set)));
    }
    out.push_str(&report::format_table4(
        &opts.run_preset(presets::table4(opts.scale)),
    ));
    out
}

/// Writes `tests/golden/figure_tables.txt` from the current renderers.
/// Gated twice — `#[ignore]` and the `GOLDEN_REGEN` env var — so a stray
/// `--ignored` run cannot silently bless new text.
#[test]
#[ignore = "regenerates the golden file; run with GOLDEN_REGEN=1"]
fn regen_golden() {
    if std::env::var("GOLDEN_REGEN").is_err() {
        eprintln!("GOLDEN_REGEN not set; refusing to overwrite the golden file");
        return;
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/figure_tables.txt"
    );
    std::fs::write(path, render()).expect("write golden file");
}

#[test]
fn figures_and_table4_print_the_committed_text() {
    let text = render();
    assert_eq!(
        text, GOLDEN,
        "figure/table text diverged from tests/golden/figure_tables.txt"
    );
}
