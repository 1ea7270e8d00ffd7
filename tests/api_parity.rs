//! Golden-snapshot API parity.
//!
//! Earlier PRs proved the builder API against the deprecated `SystemConfig`
//! constructors pair-by-pair.  Those shims are gone; what pins simulator
//! behaviour now is a committed table of [`SimResult::fingerprint`]s
//! (`tests/golden/api_parity.txt`), generated from the pre-redesign
//! simulator.  Every configuration surface — direct `ClusterSimulator`
//! runs, streamed sources, the one-point sweeps the figure binaries run
//! and the `Sweep` parameter grid — must keep reproducing those
//! fingerprints bit-for-bit on the paper machine's ≤64-node points.
//!
//! Regenerating the table (only when a *deliberate* behaviour change is
//! being made): `GOLDEN_REGEN=1 cargo test --test api_parity -- --ignored
//! regen_golden` and commit the diff with the justification.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dsm_repro::bench::{ExperimentScale, Sweep, SystemSet};
use dsm_repro::prelude::*;

const GOLDEN: &str = include_str!("golden/api_parity.txt");

/// Thresholds small enough for the reduced traces to exercise migration,
/// replication and relocation (so parity covers the policy paths, not just
/// the plain cache hierarchy).
fn thresholds() -> Thresholds {
    Thresholds {
        migrep_threshold: 250,
        migrep_reset_interval: 8_000,
        rnuma_threshold: 8,
        rnuma_relocation_delay: 0,
    }
}

/// The golden system matrix: a stable key paired with the builder
/// expression.  Keys are part of the golden-file format — renaming one
/// orphans its committed fingerprints.
fn golden_systems() -> Vec<(&'static str, SystemConfig)> {
    let t = thresholds();
    vec![
        ("perfect", System::perfect_cc_numa().build()),
        ("cc-numa", System::cc_numa().build()),
        (
            "migrep",
            System::cc_numa().with(MigRep::both()).with(t).build(),
        ),
        ("r-numa", System::r_numa().with(t).build()),
        (
            "hybrid",
            System::r_numa()
                .with(PageCaching::half())
                .with(MigRep::both())
                .with(t)
                .relocation_delay(2_000)
                .named("R-NUMA-1/2+MigRep")
                .build(),
        ),
    ]
}

fn parse_golden() -> BTreeMap<(String, String), u64> {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut parts = l.split_whitespace();
            let key = parts.next().expect("golden line has a key");
            let fp = parts.next().expect("golden line has a fingerprint");
            let (workload, system) = key.split_once('/').expect("key is workload/system");
            (
                (workload.to_string(), system.to_string()),
                u64::from_str_radix(fp.trim_start_matches("0x"), 16).expect("hex fingerprint"),
            )
        })
        .collect()
}

fn run_matrix() -> BTreeMap<(String, String), SimResult> {
    let cfg = WorkloadConfig::reduced();
    let mut out = BTreeMap::new();
    for w in catalog() {
        let trace = w.generate(&cfg);
        for (key, system) in golden_systems() {
            let result = ClusterSimulator::new(MachineConfig::PAPER, system).run(&trace);
            out.insert((w.name().to_string(), key.to_string()), result);
        }
    }
    out
}

/// Writes `tests/golden/api_parity.txt` from the current simulator.  Only
/// run deliberately (see the module docs); gated twice — `#[ignore]` and the
/// `GOLDEN_REGEN` env var — so a stray `--ignored` sweep cannot silently
/// bless new behaviour.
#[test]
#[ignore = "regenerates the golden file; run with GOLDEN_REGEN=1"]
fn regen_golden() {
    if std::env::var("GOLDEN_REGEN").is_err() {
        eprintln!("GOLDEN_REGEN not set; refusing to overwrite the golden file");
        return;
    }
    let mut body = String::from(
        "# SimResult fingerprints: workload/system fingerprint\n\
         # Generated by `GOLDEN_REGEN=1 cargo test --test api_parity -- --ignored regen_golden`\n\
         # on MachineConfig::PAPER at WorkloadConfig::reduced(); see tests/api_parity.rs.\n",
    );
    for ((workload, system), result) in run_matrix() {
        writeln!(body, "{workload}/{system} 0x{:016x}", result.fingerprint()).unwrap();
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/api_parity.txt");
    std::fs::write(path, body).expect("write golden file");
}

/// The core golden check: direct `ClusterSimulator` runs reproduce every
/// committed fingerprint.
#[test]
fn simulator_matches_committed_golden_fingerprints() {
    let golden = parse_golden();
    assert_eq!(
        golden.len(),
        7 * golden_systems().len(),
        "golden file does not cover the full workload x system matrix"
    );
    let mut policy_ops = 0u64;
    for ((workload, system), result) in run_matrix() {
        let expected = golden
            .get(&(workload.clone(), system.clone()))
            .unwrap_or_else(|| panic!("no golden fingerprint for {workload}/{system}"));
        assert_eq!(
            result.fingerprint(),
            *expected,
            "SimResult diverged from the committed golden for {workload}/{system}"
        );
        policy_ops += result.total_page_operations();
    }
    assert!(
        policy_ops > 0,
        "no page operations anywhere in the matrix — the goldens lost their teeth"
    );
}

/// A figure experiment — a one-point sweep over a `SystemSet`, as the
/// figure binaries run it — reproduces the same fingerprints: scheduling,
/// streaming and the sweep plumbing add nothing.
#[test]
fn experiment_builder_matches_the_goldens() {
    let golden = parse_golden();
    let systems = golden_systems();
    let set = SystemSet {
        experiment: "golden parity",
        baseline: systems[0].1.clone(), // perfect CC-NUMA
        systems: systems[1..].iter().map(|(_, s)| s.clone()).collect(),
    };
    let result = Sweep::new(set.experiment)
        .system_set(set)
        .workloads(["lu", "ocean", "radix"])
        .scale(ExperimentScale::Reduced)
        .threads(4)
        .run();
    let names: BTreeMap<&str, &str> = systems
        .iter()
        .map(|(key, s)| (s.name.as_str(), *key))
        .collect();
    let baselines = result.baselines.iter().map(|b| (&b.axes, &b.result));
    let points = result.points.iter().map(|p| (&p.axes, &p.result));
    let mut checked = 0;
    for (axes, r) in baselines.chain(points) {
        let key = names[axes.system.as_str()];
        let expected = golden
            .get(&(axes.workload.clone(), key.to_string()))
            .unwrap_or_else(|| panic!("no golden for {}/{key}", axes.workload));
        assert_eq!(
            r.fingerprint(),
            *expected,
            "the one-point sweep diverged from the golden for {}/{key}",
            axes.workload
        );
        checked += 1;
    }
    assert_eq!(
        checked,
        3 * systems.len(),
        "lu, ocean and radix x 5 systems"
    );
}

/// The acceptance check of the sweep redesign: a `Sweep` over three machine
/// axes (page size x block size x cluster nodes, including a >64-node
/// point) runs deterministically, and its ≤64-node default-geometry points
/// are bit-identical to the committed goldens.
#[test]
fn sweep_default_geometry_points_match_the_goldens_and_sweeps_are_deterministic() {
    let golden = parse_golden();
    let t = thresholds();
    let sweep = || {
        Sweep::new("parity grid")
            .cluster_nodes([8, 96])
            .page_bytes([2048, 4096])
            .block_bytes([64])
            .system(System::cc_numa().with(MigRep::both()).with(t).build())
            .baseline(System::perfect_cc_numa().build())
            .workloads(["lu"])
            .scale(ExperimentScale::Reduced)
            .threads(4)
            .run()
    };
    let a = sweep();
    let b = sweep();
    assert_eq!(a.points.len(), 4, "2 page sizes x 2 cluster sizes");
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_eq!(pa.axes, pb.axes);
        assert_eq!(
            pa.result.fingerprint(),
            pb.result.fingerprint(),
            "sweep point {:?} not deterministic",
            pa.axes
        );
        assert_eq!(pa.baseline_time, pb.baseline_time);
    }
    // The paper-machine point (8 nodes, 4096-byte pages, 64-byte blocks) is
    // exactly a golden job: it must hit the golden.
    let paper_point = a
        .points
        .iter()
        .find(|p| p.axes.nodes == 8 && p.axes.page_bytes == 4096)
        .expect("paper point present");
    assert_eq!(
        paper_point.result.fingerprint(),
        golden[&("lu".to_string(), "migrep".to_string())],
        "the sweep's default-geometry 8-node point diverged from the pre-redesign goldens"
    );
    // The >64-node and non-default-geometry points actually simulate
    // something (the axes are live, not silently clamped).
    for p in &a.points {
        assert!(p.result.accesses > 0, "empty point {:?}", p.axes);
        assert_eq!(p.result.per_node.len(), p.axes.nodes as usize);
    }
}

/// The fused pull-loop pipeline reproduces every committed golden
/// fingerprint: generation-inside-the-consumer is not allowed to perturb a
/// single bit of any ≤64-node default-geometry point.
#[test]
fn fused_sources_match_committed_golden_fingerprints() {
    let golden = parse_golden();
    let cfg = WorkloadConfig::reduced();
    for w in catalog() {
        for (key, system) in golden_systems() {
            let mut source = fused(w.as_ref(), &cfg);
            let result =
                ClusterSimulator::new(MachineConfig::PAPER, system).run_source(&mut source);
            let expected = golden
                .get(&(w.name().to_string(), key.to_string()))
                .unwrap_or_else(|| panic!("no golden fingerprint for {}/{key}", w.name()));
            assert_eq!(
                result.fingerprint(),
                *expected,
                "fused run diverged from the committed golden for {}/{key}",
                w.name()
            );
        }
    }
}

/// Streamed and materialized runs stay bit-identical for every workload on
/// the Section 6.4 hybrid (page cache + MigRep + relocation delay at once).
#[test]
fn streamed_and_materialized_runs_are_bit_identical_for_all_workloads() {
    let sys = System::r_numa()
        .with(PageCaching::half())
        .with(MigRep::both())
        .with(thresholds())
        .build();
    let sim = ClusterSimulator::new(MachineConfig::PAPER, sys);
    let cfg = WorkloadConfig::reduced();
    for w in catalog() {
        let trace = w.generate(&cfg);
        let materialized = sim.run(&trace);
        let mut source = fused(&*by_name(w.name()).expect("catalog name"), &cfg);
        let streamed = sim.run_source(&mut source);
        assert_eq!(
            materialized,
            streamed,
            "streamed SimResult diverged from materialized for {}",
            w.name()
        );
    }
}

/// Scale half of the streaming proof: a paper-scale radix simulation
/// completes inside a 50 MB address-space ceiling when streamed, while the
/// materialized path aborts under the same ceiling trying to hold the trace.
#[test]
fn paper_scale_radix_streams_inside_a_ceiling_the_materialized_path_exceeds() {
    const CEILING_KB: u64 = 50 * 1024;
    let bin = env!("CARGO_BIN_EXE_memsmoke");
    let run = |mode: &str| {
        std::process::Command::new("sh")
            .arg("-c")
            .arg(format!(
                "ulimit -v {CEILING_KB} && exec '{bin}' {mode} --paper --workload radix"
            ))
            // glibc otherwise reserves a 64 MB address-space arena per
            // contended thread on a timing-dependent whim, which is most of
            // the ceiling; one arena makes the footprint deterministic.
            .env("MALLOC_ARENA_MAX", "1")
            .output()
            .expect("spawn memsmoke under ulimit")
    };

    let streamed = run("--fused");
    let stdout = String::from_utf8_lossy(&streamed.stdout);
    assert!(
        streamed.status.success() && stdout.contains("mode=fused"),
        "streamed paper-scale radix failed under the {CEILING_KB} KB ceiling: {stdout}\n{}",
        String::from_utf8_lossy(&streamed.stderr)
    );

    let materialized = run("--materialize");
    assert!(
        !materialized.status.success(),
        "materialized paper-scale radix unexpectedly fit the {CEILING_KB} KB ceiling \
         — the streaming pipeline's memory advantage regressed"
    );
    // It must have died *on allocation*, not on some unrelated defect of the
    // materialized mode — otherwise this proves nothing about memory.
    let mat_err = String::from_utf8_lossy(&materialized.stderr);
    assert!(
        mat_err.contains("memory allocation"),
        "materialized run failed for a non-memory reason under the ceiling: {mat_err}"
    );
}
