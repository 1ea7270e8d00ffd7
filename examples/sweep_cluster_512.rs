//! The 512-node geometry study: cluster size as a sweep axis.
//!
//! The paper's machine tops out at 8 nodes and earlier PRs' sweeps at 96;
//! this example pushes the cluster-nodes axis to 256 and 512 — the
//! disaggregated-memory regime where sharer metadata spans hundreds of
//! nodes: the directory's flat rows widen to eight sharer words, and the
//! tiered `SharerSet` (inline u64/u128 tiers, hierarchical bitset above)
//! carries MigRep's replica masks.  Each node runs one processor so
//! the total work grows only linearly while the *sharer universe* widens;
//! what the grid shows is how migration/replication and remote caching
//! trade off as the same problem spreads across ever more homes.
//!
//! Every sweep point is pinned to a committed golden fingerprint
//! (`tests/golden/cluster_scale.txt`): the 256- and 512-node points are
//! simulator behaviour under test, not just throughput, and a bit of
//! drift anywhere in the batched access pipeline fails this example the
//! same way it fails `tests/api_parity.rs` at 8 nodes.
//!
//! `--tiny` is the CI smoke grid: the single 512-node barnes point at a
//! 1/16 problem scale, end to end through the sweep engine and checked
//! against its golden.  `--regen-golden` rewrites the golden file from
//! the current simulator — only for deliberate behaviour changes,
//! committed with justification (same rules as `api_parity`'s regen).
//!
//! ```text
//! cargo run --release --example sweep_cluster_512 [--tiny|--regen-golden]
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dsm_repro::bench::{report, Axis, ExperimentScale, Metric, Sweep, SweepResult};
use dsm_repro::prelude::*;

const GOLDEN: &str = include_str!("../tests/golden/cluster_scale.txt");
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/cluster_scale.txt"
);

/// Golden key: `workload nodes scale system` (whitespace-separated; the
/// scale label `x1/8` carries its own slash, so columns are the format).
fn golden_key(workload: &str, nodes: u16, scale: &str, system: &str) -> String {
    format!("{workload} {nodes} {scale} {system}")
}

fn parse_golden() -> BTreeMap<String, u64> {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, fp) = l.rsplit_once(' ').expect("golden line: key fingerprint");
            (
                key.split_whitespace().collect::<Vec<_>>().join(" "),
                u64::from_str_radix(fp.trim_start_matches("0x"), 16).expect("hex fingerprint"),
            )
        })
        .collect()
}

fn run_grid(nodes: &[u16], workloads: &[&str], scale: ExperimentScale) -> SweepResult {
    let t = scale.thresholds_fast();
    Sweep::new("cluster-size axis to 512 nodes")
        .cluster_nodes(nodes.iter().copied())
        .procs_per_node([1])
        .system(
            System::cc_numa()
                .with(MigRep::both())
                .with(t)
                .named("migrep")
                .build(),
        )
        .system(
            System::r_numa()
                .with(PageCaching::config(scale.page_cache()))
                .with(t)
                .named("r-numa")
                .build(),
        )
        .baseline(System::perfect_cc_numa().build())
        .workloads(workloads.iter().copied())
        .scale(scale)
        .run()
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let regen = std::env::args().any(|a| a == "--regen-golden");

    let (nodes, workloads, scale): (Vec<u16>, Vec<&str>, ExperimentScale) = if tiny {
        // CI smoke: the single widest point, 1/16 problem scale.
        (
            vec![512],
            vec!["barnes"],
            ExperimentScale::Custom(CustomScale::new(1, 16)),
        )
    } else {
        (
            vec![64, 128, 256, 512],
            vec!["radix", "barnes"],
            ExperimentScale::Custom(CustomScale::new(1, 8)),
        )
    };
    let scale_label = scale.label();
    let result = run_grid(&nodes, &workloads, scale);

    print!(
        "{}",
        report::format_sweep_table(&result, Axis::Nodes, Axis::System, Metric::NormalizedTime)
    );
    println!();
    print!(
        "{}",
        report::format_sweep_table(&result, Axis::Nodes, Axis::System, Metric::BytesPerAccess)
    );

    if regen {
        // Regenerate *both* grids so the file always covers the default
        // and the --tiny points, whichever mode asked for the rewrite.
        let mut body = String::from(
            "# SimResult fingerprints: workload nodes scale system fingerprint\n\
             # Generated by `cargo run --release --example sweep_cluster_512 -- --regen-golden`\n\
             # (1 proc per node; see examples/sweep_cluster_512.rs).\n",
        );
        let mut grids = vec![result];
        if tiny {
            grids.push(run_grid(
                &[64, 128, 256, 512],
                &["radix", "barnes"],
                ExperimentScale::Custom(CustomScale::new(1, 8)),
            ));
        } else {
            grids.push(run_grid(
                &[512],
                &["barnes"],
                ExperimentScale::Custom(CustomScale::new(1, 16)),
            ));
        }
        let mut lines = BTreeMap::new();
        for grid in &grids {
            for p in &grid.points {
                let scale = p.axes.value(Axis::Scale);
                let system = p.axes.value(Axis::System);
                lines.insert(
                    golden_key(&p.axes.workload, p.axes.nodes, &scale, &system),
                    p.result.fingerprint(),
                );
            }
        }
        for (key, fp) in lines {
            writeln!(body, "{key} 0x{fp:016x}").unwrap();
        }
        std::fs::write(GOLDEN_PATH, body).expect("write golden file");
        println!("\nregenerated {GOLDEN_PATH}");
        return;
    }

    // The smoke contract: every point simulated the full cluster and
    // reproduces its committed fingerprint bit-for-bit.
    let golden = parse_golden();
    for p in &result.points {
        assert!(p.result.accesses > 0, "empty point {:?}", p.axes);
        assert_eq!(
            p.result.per_node.len(),
            p.axes.nodes as usize,
            "point {:?} did not simulate its full cluster",
            p.axes
        );
        let key = golden_key(
            &p.axes.workload,
            p.axes.nodes,
            &scale_label,
            &p.axes.value(Axis::System),
        );
        let expected = golden
            .get(&key)
            .unwrap_or_else(|| panic!("no committed golden for `{key}`"));
        assert_eq!(
            p.result.fingerprint(),
            *expected,
            "point `{key}` diverged from its committed golden fingerprint"
        );
    }
    println!(
        "\nok: {} points to {} nodes, all pinned to committed goldens",
        result.points.len(),
        nodes.iter().max().unwrap()
    );
}
