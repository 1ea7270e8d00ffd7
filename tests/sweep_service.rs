//! End-to-end checks of the sweep service through the facade crate.
//!
//! Two properties the service must not lose:
//!
//! * **Persistence** — a sweep resubmitted to a *restarted* server backed by
//!   the same cache file completes with zero re-simulated points, and the
//!   warm pass is at least 10x faster than the cold one on a 16-point grid.
//! * **Fidelity** — results served through the protocol (fresh *and*
//!   cached) are bit-identical to the committed golden fingerprints in
//!   `tests/golden/api_parity.txt`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dsm_repro::bench::json::{parse, Value};
use dsm_repro::service::{ResultCache, SweepService};

const GOLDEN: &str = include_str!("golden/api_parity.txt");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsm-service-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Submit one request line and return the parsed response objects.
fn submit(service: &SweepService, line: &str) -> Vec<Value> {
    let mut lines: Vec<String> = Vec::new();
    let mut emit = |l: String| lines.push(l);
    service.handle_line(line, &mut emit);
    lines
        .iter()
        .map(|l| parse(l).expect("response is valid JSON"))
        .collect()
}

/// The streamed `baseline`/`point` events, keyed by every axis that
/// identifies a job, mapped to the fingerprint hex.
fn fingerprints(responses: &[Value]) -> BTreeMap<String, String> {
    responses
        .iter()
        .filter(|v| matches!(v.get_str("kind"), Some("baseline") | Some("point")))
        .map(|v| {
            let key = format!(
                "{}/{}/{}/{}/{}/{}",
                v.get_str("kind").unwrap(),
                v.get_str("workload").unwrap(),
                v.get_str("system").unwrap(),
                v.get_u64("nodes").unwrap(),
                v.get_u64("page_bytes").unwrap(),
                v.get_u64("block_bytes").unwrap(),
            );
            (key, v.get_str("fingerprint").unwrap().to_string())
        })
        .collect()
}

fn terminal<'a>(responses: &'a [Value], kind: &str) -> &'a Value {
    let last = responses.last().expect("at least one response");
    assert_eq!(last.get_str("kind"), Some(kind), "terminal response kind");
    last
}

/// A 16-point grid: 2 systems x 2 node counts x 2 page sizes x 2 block
/// sizes (plus 8 per-geometry baselines), all at a 1/32 problem scale.
const GRID: &str = concat!(
    r#"{"kind":"sweep","id":"grid","name":"restart grid","workloads":["ocean"],"#,
    r#""systems":["cc-numa","migrep"],"scale":"x1/32","nodes":[2,4],"#,
    r#""procs_per_node":[2],"page_bytes":[2048,4096],"block_bytes":[64,128]}"#
);

#[test]
fn restarted_server_replays_a_16_point_grid_from_the_cache_file() {
    let dir = temp_dir("restart");
    let cache_path = dir.join("results.cache");

    // Cold server: every job simulates, every result lands in the file.
    let service = SweepService::new(ResultCache::open(&cache_path).unwrap(), 0);
    let started = Instant::now();
    let cold = submit(&service, GRID);
    let cold_elapsed = started.elapsed();
    let done = terminal(&cold, "sweep-done");
    assert_eq!(done.get_u64("points"), Some(16));
    assert_eq!(done.get_u64("baselines"), Some(8));
    assert_eq!(done.get_u64("cached"), Some(0));
    assert_eq!(done.get_u64("simulated"), Some(24));
    drop(service);

    // Restarted server, same cache file: zero re-simulated jobs.
    let service = SweepService::new(ResultCache::open(&cache_path).unwrap(), 0);
    let started = Instant::now();
    let warm = submit(&service, GRID);
    let warm_elapsed = started.elapsed();
    let done = terminal(&warm, "sweep-done");
    assert_eq!(
        done.get_u64("cached"),
        Some(24),
        "everything from the cache"
    );
    assert_eq!(done.get_u64("simulated"), Some(0), "nothing re-simulated");

    // Cached replay is bit-identical to the fresh run.
    assert_eq!(fingerprints(&cold), fingerprints(&warm));

    // And it is fast: at least 10x faster than simulating the grid.
    assert!(
        warm_elapsed * 10 <= cold_elapsed.max(Duration::from_millis(10)),
        "warm pass ({warm_elapsed:?}) should be >=10x faster than cold ({cold_elapsed:?})"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Golden fingerprints keyed `workload/system` (system in the golden file's
/// own naming: perfect, cc-numa, migrep, r-numa, hybrid).
fn parse_golden() -> BTreeMap<String, String> {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut parts = l.split_whitespace();
            let key = parts.next().unwrap().to_string();
            (key, parts.next().unwrap().to_string())
        })
        .collect()
}

#[test]
fn service_results_match_the_committed_golden_fingerprints() {
    use dsm_repro::service::catalog::{parse_scale, system_by_name};

    let golden = parse_golden();
    // The golden matrix was generated on the paper machine at the reduced
    // workload scale; the catalog names map onto the golden file's keys.
    let catalog_to_golden = [
        ("perfect-cc-numa", "perfect"),
        ("cc-numa", "cc-numa"),
        ("migrep", "migrep"),
        ("r-numa-paper-cache", "r-numa"),
    ];
    let scale = parse_scale("reduced").unwrap();
    let display_to_golden: BTreeMap<String, &str> = catalog_to_golden
        .iter()
        .map(|(catalog, golden)| {
            let cfg = system_by_name(catalog, scale).unwrap();
            (cfg.name.clone(), *golden)
        })
        .collect();

    let request = concat!(
        r#"{"kind":"sweep","id":"golden","workloads":["lu","ocean"],"#,
        r#""systems":["cc-numa","migrep","r-numa-paper-cache"],"#,
        r#""baseline":"perfect-cc-numa","scale":"reduced"}"#
    );
    let service = SweepService::in_memory();
    let fresh = submit(&service, request);
    let done = terminal(&fresh, "sweep-done");
    assert_eq!(done.get_u64("points"), Some(6));
    assert_eq!(done.get_u64("baselines"), Some(2));

    let check = |responses: &[Value], pass: &str| {
        let mut checked = 0;
        for event in responses {
            if !matches!(event.get_str("kind"), Some("baseline") | Some("point")) {
                continue;
            }
            let workload = event.get_str("workload").unwrap();
            let system = event.get_str("system").unwrap();
            let golden_system = display_to_golden
                .get(system)
                .unwrap_or_else(|| panic!("no golden mapping for system `{system}`"));
            let want = golden
                .get(&format!("{workload}/{golden_system}"))
                .unwrap_or_else(|| panic!("no golden entry for {workload}/{golden_system}"));
            assert_eq!(
                event.get_str("fingerprint").unwrap(),
                want,
                "{pass}: {workload}/{golden_system} must match the golden fingerprint"
            );
            checked += 1;
        }
        assert_eq!(checked, 8, "{pass}: 2 baselines + 6 points checked");
    };
    check(&fresh, "fresh");

    // Resubmission: all 8 jobs come from the cache, still golden-identical.
    let cached = submit(&service, request);
    let done = terminal(&cached, "sweep-done");
    assert_eq!(done.get_u64("simulated"), Some(0));
    assert_eq!(done.get_u64("cached"), Some(8));
    check(&cached, "cached");
}
