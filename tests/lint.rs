//! Seed-violation self-tests for `dsm-lint`: every rule must fire on a
//! fixture reconstruction of the bug class it exists for — including the
//! actual PR 1 `HashSet`-iteration bug in `migrate_page` that motivated the
//! whole pass, now also reconstructed as an inter-procedural *taint chain*
//! — and the workspace itself must scan with no findings.  If a rule
//! regresses into silence, the fixture test catches it; if the tree
//! regresses into a new violation, the workspace test catches it (the same
//! check CI's `dsm-lint` job runs, kept in tier-1 so it can't be skipped).

use dsm_lint::{scan_files, scan_source, scan_workspace, Config, Finding, Scan, RULES};

/// Scan a fixture as if it lived in a simulation crate (all rules in
/// scope).
fn scan_sim(source: &str) -> Vec<Finding> {
    scan_source("crates/dsm-protocol/src/fixture.rs", source)
}

/// Scan a multi-file fixture workspace through the full pipeline (token
/// rules + call graph + flow rules), under the committed configuration.
fn scan_fixture_workspace(files: &[(&str, &str)]) -> Scan {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect();
    scan_files(&owned, &Config::default())
}

fn fired(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

/// D1, reconstructed from PR 1: `migrate_page` gathered the sharer set out
/// of a `HashSet`, so invalidation messages went out in hash-iteration
/// order and MigRep runs differed run-to-run.  (The fix was `BTreeSet`;
/// the rule exists so the *pattern* can't come back.)
#[test]
fn the_pr1_hash_iteration_bug_fires_exactly_once() {
    let fixture = r#"
pub fn migrate_page(&mut self, page: PageIdx, to: NodeId) {
    let sharers: std::collections::HashSet<NodeId> = self.directory.sharers(page);
    for node in &sharers {
        self.send_invalidate(*node, page);
    }
    self.directory.set_home(page, to);
}
"#;
    let findings = scan_sim(fixture);
    assert_eq!(
        fired(&findings, "hash-iter"),
        1,
        "the PR 1 bug pattern must fire hash-iter exactly once: {findings:?}"
    );
    assert_eq!(findings.len(), 1, "and nothing else: {findings:?}");
    assert_eq!(findings[0].line, 3);
}

/// D2: wall-clock in a simulation crate.  Simulated time comes from the
/// cost model; an `Instant::now` here is either dead code or a
/// nondeterminism leak.
#[test]
fn wall_clock_in_a_sim_crate_fires_exactly_once() {
    let fixture = r#"
pub fn relocation_deadline(&self) -> u64 {
    let started = std::time::Instant::now();
    self.delay + started.elapsed().as_nanos() as u64
}
"#;
    let findings = scan_sim(fixture);
    assert_eq!(fired(&findings, "wall-clock"), 1, "{findings:?}");
    assert_eq!(findings.len(), 1);
}

/// D3: panicking on a poisoned lock in library code — the pattern the PR 9
/// sweep-service fix removed (a long-running server must recover or return
/// an error, not die with the first worker panic).
#[test]
fn lock_unwrap_in_library_code_fires_exactly_once() {
    let fixture = r#"
pub fn stats(&self) -> CacheStats {
    self.cache.lock().expect("cache lock poisoned").stats()
}
"#;
    let findings = scan_sim(fixture);
    assert_eq!(fired(&findings, "lock-unwrap"), 1, "{findings:?}");
    assert_eq!(findings.len(), 1);
}

/// D4: floating-point accumulation whose order the scheduler could choose.
/// Float addition doesn't commute under reassociation, so this is a
/// bit-parity leak unless the merge order is documented.
#[test]
fn float_accumulation_fires_exactly_once() {
    let fixture = r#"
pub fn merge(&mut self, worker_latency: f64) {
    self.total_latency += worker_latency * self.weight as f64;
}
"#;
    let findings = scan_sim(fixture);
    assert_eq!(fired(&findings, "float-order"), 1, "{findings:?}");
    assert_eq!(findings.len(), 1);
}

/// D5 (panic-path): a panic buried two calls below a serve loop must be
/// reported *at the loop's entry*, with the shortest call chain as the
/// witness.  The fixture is a miniature of the sweep service: the
/// `serve_stream` entry (matched from `lint.toml`) dispatches each request
/// line to a parser that panics on malformed input — exactly the
/// kill-the-server-with-one-request shape the rule exists for.
#[test]
fn a_reachable_panic_fires_once_with_its_call_chain() {
    let scan = scan_fixture_workspace(&[(
        "crates/sweep-service/src/lib.rs",
        r#"
pub fn serve_stream(lines: &[String]) {
    for line in lines {
        dispatch(line);
    }
}

fn dispatch(line: &str) -> u64 {
    parse_spec(line)
}

fn parse_spec(line: &str) -> u64 {
    if line.is_empty() {
        panic!("empty request line");
    }
    line.len() as u64
}
"#,
    )]);
    let findings: Vec<&Finding> = scan
        .findings
        .iter()
        .filter(|f| f.rule == "panic-path")
        .collect();
    assert_eq!(findings.len(), 1, "{:?}", scan.findings);
    let f = findings[0];
    assert_eq!(f.line, 14, "anchored at the panic site");
    assert!(
        f.chain.iter().any(|s| s.contains("serve_stream")),
        "chain names the entry: {:?}",
        f.chain
    );
    assert!(
        f.chain.iter().any(|s| s.contains("dispatch")),
        "chain walks through the dispatcher: {:?}",
        f.chain
    );
}

/// D6 (det-taint): the PR 1 `migrate_page` bug again, but this time as the
/// *inter-procedural* leak the token rule cannot see — the hash-ordered
/// sharer list escapes `migrate_page` as a return value and flows into the
/// `SimResult` a caller builds.  The rule must connect source to sink
/// through the call graph and report the chain.
#[test]
fn the_pr1_bug_reconstructed_as_a_taint_chain() {
    let scan = scan_fixture_workspace(&[(
        "crates/core/src/lib.rs",
        r#"
pub fn migrate_page(dir: &Directory) -> Vec<NodeId> {
    let sharers: std::collections::HashSet<NodeId> = dir.sharers();
    sharers.iter().copied().collect()
}

pub fn finish_run(dir: &Directory) -> SimResult {
    let invalidation_order = migrate_page(dir);
    SimResult { invalidation_order }
}
"#,
    )]);
    let findings: Vec<&Finding> = scan
        .findings
        .iter()
        .filter(|f| f.rule == "det-taint")
        .collect();
    assert_eq!(findings.len(), 1, "{:?}", scan.findings);
    let f = findings[0];
    assert_eq!(f.line, 3, "anchored at the HashSet source");
    assert!(
        f.chain.iter().any(|s| s.contains("migrate_page")),
        "chain starts at the tainted fn: {:?}",
        f.chain
    );
    assert!(
        f.chain.iter().any(|s| s.contains("finish_run")),
        "chain reaches the SimResult construction: {:?}",
        f.chain
    );
    // The per-file token rule fires on the same line too; the point of
    // det-taint is the *chain*, which hash-iter cannot produce.
    assert_eq!(fired(&scan.findings, "hash-iter"), 1);
}

/// D7 (cast-truncation): a narrowing `as` cast inside byte/cost
/// accounting.  `bytes as u32` silently wraps for page sizes over 4 GiB of
/// accumulated traffic — the cost model must widen, not truncate.
#[test]
fn a_narrowing_cast_in_cost_accounting_fires_exactly_once() {
    let scan = scan_fixture_workspace(&[(
        "crates/core/src/lib.rs",
        r#"
pub fn page_copy_cost(total_bytes: u64, per_block: u64) -> u64 {
    let cost = total_bytes as u32;
    u64::from(cost) * per_block
}
"#,
    )]);
    let findings: Vec<&Finding> = scan
        .findings
        .iter()
        .filter(|f| f.rule == "cast-truncation")
        .collect();
    assert_eq!(findings.len(), 1, "{:?}", scan.findings);
    assert_eq!(findings[0].line, 3);
}

/// The suppression grammar: an allow comment with a reason silences the
/// finding on its own line or the line below; an allow *without* a reason
/// suppresses nothing and is itself reported.
#[test]
fn allow_comments_require_a_reason() {
    let suppressed = r#"
// dsm-lint: allow(hash-iter, drained into a BTreeSet before any iteration)
pub fn vetted(seen: &mut std::collections::HashSet<u64>) {}
"#;
    assert!(
        scan_sim(suppressed).is_empty(),
        "a reasoned allow must suppress the finding"
    );

    let reasonless = r#"
// dsm-lint: allow(hash-iter)
pub fn vetted(seen: &mut std::collections::HashSet<u64>) {}
"#;
    let findings = scan_sim(reasonless);
    assert_eq!(
        fired(&findings, "allow-syntax"),
        1,
        "a reasonless allow is itself a finding: {findings:?}"
    );
    assert_eq!(
        fired(&findings, "hash-iter"),
        1,
        "and it suppresses nothing: {findings:?}"
    );
}

/// Test code is out of scope: the same patterns inside `#[cfg(test)]` /
/// `#[test]` items must not fire (tests legitimately unwrap locks and use
/// wall-clock timeouts).
#[test]
fn test_gated_code_is_out_of_scope() {
    let fixture = r#"
pub fn live() {}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    #[test]
    fn locks_and_clocks_are_fine_here() {
        let _ = std::time::Instant::now();
        let _ = MUTEX.lock().unwrap();
        let mut seen = HashSet::new();
        seen.insert(1u64);
    }
}
"#;
    assert_eq!(scan_sim(fixture), Vec::new());
}

/// The acceptance criterion itself, kept in tier-1: scanning the real
/// workspace yields no findings.  Every finding is either fixed or carries
/// a reasoned inline allow at its site; there is no other way to accept
/// one.
#[test]
fn the_workspace_scan_has_no_findings() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let scan = scan_workspace(root).expect("workspace scan");
    assert!(
        scan.findings.is_empty(),
        "lint violations:\n{}",
        scan.findings
            .iter()
            .map(|f| format!("  {}:{}: [{}] {}", f.file, f.line, f.rule, f.excerpt))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The service hardening claim, proved rather than asserted: from the
/// sweep-service request loop (`SweepService::handle_line`, `serve_stream`)
/// no panic site is reachable without a reasoned justification.  Every
/// surviving `panic!`/`expect` on a service path carries an inline allow
/// naming the invariant that makes it unreachable from request input.
#[test]
fn no_unjustified_panic_is_reachable_from_the_service_loop() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let scan = scan_workspace(root).expect("workspace scan");
    let service_panics: Vec<&Finding> = scan
        .findings
        .iter()
        .filter(|f| f.rule == "panic-path")
        .collect();
    assert!(
        service_panics.is_empty(),
        "panic sites reachable from a declared entry without justification: {service_panics:?}"
    );
    // Guard against the rule matching nothing at all: the entry points
    // named in lint.toml must actually resolve in the workspace graph.
    let cfg = Config::default();
    let entries = scan.graph.match_entries(&cfg.entries);
    assert!(
        entries.len() >= 3,
        "lint.toml entry specs resolved only {} workspace functions",
        entries.len()
    );
}

/// The panic-path rule covers what the service loop actually runs: the
/// request parser it reaches through `json::parse` and the trend reader it
/// reaches through `perf::collect_trend`, both in another crate.  And the
/// bare `parse(..)` a request parser might call is never mistaken for a
/// call to itself.
#[test]
fn the_service_loop_reaches_the_request_parser_and_the_trend_reader() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let graph = scan_workspace(root).expect("workspace scan").graph;
    let find = |qname: &str| {
        graph
            .fns
            .iter()
            .position(|f| f.qname == qname)
            .unwrap_or_else(|| panic!("no fn {qname} in the workspace graph"))
    };
    let hops = graph.bfs(
        &[find("sweep_service::service::SweepService::handle_line")],
        false,
    );
    let parser_methods: Vec<&str> = graph
        .fns
        .iter()
        .filter(|f| f.qname.starts_with("bench::json::Parser::"))
        .map(|f| f.qname.as_str())
        .collect();
    assert!(parser_methods.len() >= 8, "{parser_methods:?}");
    for qname in ["bench::json::parse", "bench::perf::collect_trend"]
        .into_iter()
        .chain(parser_methods)
    {
        assert!(
            hops[find(qname)].is_some(),
            "{qname} is not reachable from SweepService::handle_line"
        );
    }
    let request_parse = find("sweep_service::proto::Request::parse");
    assert!(
        graph.edges[request_parse]
            .iter()
            .all(|e| e.to != request_parse),
        "Request::parse resolves a call to itself"
    );
}

/// The rule registry is what the README and `docs/lint-rules.md` document:
/// four token rules, three call-graph rules, and the allow-grammar
/// diagnostic, in this order.
#[test]
fn the_rule_set_is_the_documented_one() {
    let names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
    assert_eq!(
        names,
        [
            "hash-iter",
            "wall-clock",
            "lock-unwrap",
            "float-order",
            "panic-path",
            "det-taint",
            "cast-truncation",
            "allow-syntax"
        ]
    );
}
