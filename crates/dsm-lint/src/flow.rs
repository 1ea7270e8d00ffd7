//! The inter-procedural rules: panic-path, det-taint, cast-truncation.
//!
//! These run on the [`crate::graph::CallGraph`] built from every library
//! file in one pass, so a finding in `crates/core` can carry evidence that
//! starts in `crates/sweep-service`:
//!
//! * **`panic-path`** — forward BFS from the entry points declared in
//!   `lint.toml` (`[panic-path] entries`); every *effective* panic site in
//!   a reachable function fires, with the shortest entry-to-site call
//!   chain as evidence.  "Effective" discounts `unwrap`/`expect` whose
//!   result is propagated with `?` and `self.expect(..)`-style calls to a
//!   method the owner type actually defines (the sweep-service JSON
//!   parser's `expect` is a parser combinator, not `Result::expect`).
//!   `assert!`/`assert_eq!` are deliberately *not* panic sites: asserts
//!   state invariants the author wants fatal, while this rule polices
//!   accidental panics on malformed input.
//! * **`det-taint`** — a function containing a nondeterminism source
//!   taints every caller that can observe its return value (reverse BFS
//!   up the graph); the rule fires when a tainted function can also reach
//!   a determinism sink (`SimResult` construction, `fingerprint()`) down
//!   the graph.  The chain shows source → callers → confluence →
//!   callees → sink, shortest such path first.  This is call-structure
//!   taint, not dataflow — a function that reads the clock *and* builds a
//!   `SimResult` fires even if the two never meet in a value, which is
//!   the conservative side to err on for a determinism contract.
//! * **`cast-truncation`** — a narrowing `as` cast (`u64 as u32`, ...)
//!   in a simulation crate whose statement mentions a clock/byte
//!   accounting identifier (`[cast-truncation] context` in `lint.toml`).
//!   Cycle counts and byte totals are the quantities that silently exceed
//!   32 bits at paper scale (512 nodes x long traces).
//!
//! Findings anchor at the *site* (panic site, taint source, cast) so a
//! `// dsm-lint: allow(rule, reason)` lives next to the code it vouches
//! for.

use crate::config::Config;
use crate::graph::CallGraph;
use crate::items::{parse_file, PanicKind, PanicSite};
use crate::rules::{file_allows, is_lib_code, Finding, SIM_CRATES};

/// Build the workspace call graph from `(relpath, source)` pairs.
/// Non-library files are skipped; test-gated items are dropped by
/// [`CallGraph::build`].
pub fn build_graph(files: &[(String, String)], cfg: &Config) -> CallGraph {
    let mut items = Vec::new();
    for (rel, src) in files {
        // The linter itself is excluded: its source *is* the pattern
        // vocabulary (every taint-source name appears as an enum variant
        // or matcher string), its call graph is disjoint from the
        // simulator stack, and self-analysis produced only those
        // vocabulary echoes.  The token rules still scan it.
        if is_lib_code(rel) && !rel.starts_with("crates/dsm-lint/") {
            items.extend(parse_file(rel, src, cfg));
        }
    }
    CallGraph::build(items)
}

/// Run the three graph rules and return their findings (unsorted; the
/// caller merges with token findings and sorts).
pub fn scan(graph: &CallGraph, files: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    panic_path(graph, cfg, &mut findings);
    det_taint(graph, &mut findings);
    cast_truncation(graph, &mut findings);

    // Apply allow comments and the file allowlist, matching the token
    // rules' contract: an allow on the finding line or the line above.
    findings.retain(|f| {
        if crate::rules::allowlist()
            .iter()
            .any(|(r, file, _)| *r == f.rule && *file == f.file)
        {
            return false;
        }
        let Some((_, src)) = files.iter().find(|(rel, _)| *rel == f.file) else {
            return true;
        };
        !file_allows(&f.file, src)
            .iter()
            .any(|a| a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line))
    });
    findings
}

/// A panic site that actually panics in library code (see module docs).
fn effective(site: &PanicSite, owner: Option<&str>, graph: &CallGraph) -> bool {
    match site.kind {
        PanicKind::Macro | PanicKind::LockIndex => true,
        PanicKind::UnwrapExpect => {
            if site.propagated {
                return false;
            }
            !(site.recv_self && owner.is_some_and(|o| graph.owner_defines(o, &site.what)))
        }
    }
}

fn panic_path(graph: &CallGraph, cfg: &Config, findings: &mut Vec<Finding>) {
    let entries = graph.match_entries(&cfg.entries);
    if entries.is_empty() {
        return;
    }
    let hops = graph.bfs(&entries, false);
    for (i, f) in graph.fns.iter().enumerate() {
        if hops[i].is_none() {
            continue;
        }
        for site in &f.panics {
            if !effective(site, f.owner.as_deref(), graph) {
                continue;
            }
            let mut chain = Vec::new();
            for (step, (idx, via)) in graph.chain(&hops, i).iter().enumerate() {
                let desc = graph.describe(*idx);
                match via {
                    None => chain.push(format!("entry: {desc}")),
                    Some(line) => chain.push(format!("step {step}: calls {desc} at line {line}")),
                }
            }
            chain.push(format!(
                "panic site: `{}` at {}:{}",
                site.what, f.file, site.line
            ));
            findings.push(Finding {
                rule: "panic-path",
                file: f.file.clone(),
                line: site.line,
                excerpt: format!(
                    "{} reachable from entry `{}`",
                    site.what,
                    entry_name(graph, &hops, i)
                ),
                chain,
            });
        }
    }
}

/// The entry function a reachable node traces back to.
fn entry_name(graph: &CallGraph, hops: &[Option<crate::graph::Hop>], node: usize) -> String {
    let chain = graph.chain(hops, node);
    graph.fns[chain[0].0].qname.clone()
}

fn det_taint(graph: &CallGraph, findings: &mut Vec<Finding>) {
    let sink_fns: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.sinks.is_empty())
        .map(|(i, _)| i)
        .collect();
    if sink_fns.is_empty() {
        return;
    }
    // down[f] = shortest hop count from f to a sink-bearing function
    // (reverse BFS from sinks follows caller edges backwards, i.e. the
    // "can reach a sink" relation).
    let down = graph.bfs(&sink_fns, true);
    for (s, f) in graph.fns.iter().enumerate() {
        if f.taints.is_empty() {
            continue;
        }
        // up[g] = shortest hop count from the source fn to caller g (the
        // "observes the tainted return value" relation).
        let up = graph.bfs(&[s], true);
        // Confluence: a function both tainted and sink-reaching, nearest
        // first.  The source fn itself qualifies when it reaches a sink.
        let confluence = (0..graph.fns.len())
            .filter_map(|c| match (up[c], down[c]) {
                (Some(u), Some(d)) => Some((u.dist + d.dist, c)),
                _ => None,
            })
            .min();
        let Some((_, c)) = confluence else {
            continue;
        };
        for taint in &f.taints {
            let mut chain = vec![format!(
                "source: {} at {}:{} in {}",
                taint.kind.label(),
                f.file,
                taint.line,
                graph.fns[s].qname
            )];
            // Upward leg: source fn -> ... -> confluence (chain() returns
            // start-to-node order over reverse edges).
            for (idx, via) in graph.chain(&up, c).iter().skip(1) {
                let line = via.expect("non-start hops carry a call line");
                chain.push(format!(
                    "flows to caller {} (call at line {line})",
                    graph.describe(*idx)
                ));
            }
            // Downward leg: confluence -> ... -> sink fn.  The reverse-BFS
            // chain runs [sink, ..., confluence], each element carrying
            // the line where it calls its left neighbor — so walking it
            // right-to-left yields callee after callee, with the call
            // line taken from the caller one slot to the right.
            let leg = graph.chain(&down, c);
            for w in (0..leg.len()).rev().skip(1) {
                let line = leg[w + 1].1.expect("interior hops carry a call line");
                chain.push(format!(
                    "reaches {} (call at line {line})",
                    graph.describe(leg[w].0)
                ));
            }
            let sink = &graph.fns[leg[0].0];
            chain.push(format!(
                "sink: {}:{}",
                sink.file,
                sink.sinks.first().map_or(sink.line, |site| site.line)
            ));
            findings.push(Finding {
                rule: "det-taint",
                file: f.file.clone(),
                line: taint.line,
                excerpt: format!(
                    "{} can reach {} ({} hops)",
                    taint.kind.label(),
                    sink.qname,
                    chain.len() - 2
                ),
                chain,
            });
        }
    }
}

fn cast_truncation(graph: &CallGraph, findings: &mut Vec<Finding>) {
    for f in &graph.fns {
        if !SIM_CRATES.iter().any(|p| f.file.starts_with(p)) {
            continue;
        }
        for cast in &f.casts {
            findings.push(Finding {
                rule: "cast-truncation",
                file: f.file.clone(),
                line: cast.line,
                excerpt: format!("narrowing cast in accounting context in {}", f.qname),
                chain: vec![format!(
                    "in {}",
                    graph.describe(
                        graph
                            .fns
                            .iter()
                            .position(|g| std::ptr::eq(g, f))
                            .expect("iterating the same vec")
                    )
                )],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let cfg = Config::default();
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        let graph = build_graph(&owned, &cfg);
        scan(&graph, &owned, &cfg)
    }

    #[test]
    fn panic_path_reports_shortest_chain_from_entry() {
        let findings = run(&[(
            "crates/sweep-service/src/service.rs",
            r#"
impl SweepService {
    pub fn handle_line(&mut self, line: &str) -> String { self.dispatch(line) }
    fn dispatch(&mut self, line: &str) -> String { helper(line) }
}
fn helper(line: &str) -> String { line.parse().unwrap() }
fn unreachable_helper() { panic!("never called"); }
"#,
        )]);
        let pp: Vec<&Finding> = findings.iter().filter(|f| f.rule == "panic-path").collect();
        assert_eq!(pp.len(), 1, "{findings:?}");
        assert_eq!(pp[0].line, 6);
        assert!(pp[0].chain[0].contains("handle_line"), "{:?}", pp[0].chain);
        assert!(pp[0].chain.last().unwrap().contains("unwrap"));
        assert_eq!(
            pp[0].chain.len(),
            4,
            "entry + 2 hops + site: {:?}",
            pp[0].chain
        );
    }

    #[test]
    fn propagated_and_own_method_expects_are_not_panic_sites() {
        let findings = run(&[(
            "crates/sweep-service/src/json.rs",
            "
impl Parser {
    pub fn handle_line(&mut self) -> Result<(), E> {
        self.expect(b'{')?;
        self.inner().map_err(E::from)?;
        Ok(())
    }
    fn expect(&mut self, b: u8) -> Result<(), E> { Ok(()) }
    fn inner(&mut self) -> Result<(), E> { Ok(()) }
}
",
        )]);
        assert!(
            findings.iter().all(|f| f.rule != "panic-path"),
            "{findings:?}"
        );
    }

    #[test]
    fn det_taint_connects_source_to_sink_through_the_graph() {
        // The PR 1 migrate_page shape: the source is deep in one callee
        // branch, the sink in another; only the caller sees both.
        let findings = run(&[(
            "crates/core/src/migrate.rs",
            "
pub fn run_migration(t: &Trace) -> u64 {
    let order = gather_order(t);
    finish(order)
}
fn gather_order(t: &Trace) -> Vec<u32> {
    let pending: HashSet<u32> = t.pages();
    pending.iter().copied().collect()
}
fn finish(order: Vec<u32>) -> u64 {
    order.fingerprint()
}
",
        )]);
        let dt: Vec<&Finding> = findings.iter().filter(|f| f.rule == "det-taint").collect();
        assert_eq!(dt.len(), 1, "{findings:?}");
        assert_eq!(dt[0].file, "crates/core/src/migrate.rs");
        assert_eq!(dt[0].line, 7, "anchored at the HashSet source site");
        let joined = dt[0].chain.join("\n");
        assert!(joined.contains("gather_order"), "{joined}");
        assert!(joined.contains("run_migration"), "{joined}");
        assert!(joined.contains("finish"), "{joined}");
        assert!(joined.starts_with("source: HashMap/HashSet"), "{joined}");
        assert!(joined.contains("sink:"), "{joined}");
    }

    #[test]
    fn taint_without_a_sink_path_stays_quiet() {
        let findings = run(&[(
            "crates/bench/src/timing.rs",
            "
pub fn measure() -> u64 {
    let t = Instant::now();
    t.elapsed().as_nanos() as u64
}
",
        )]);
        assert!(
            findings.iter().all(|f| f.rule != "det-taint"),
            "{findings:?}"
        );
    }

    #[test]
    fn cast_truncation_fires_only_in_sim_crates_with_context() {
        let sim = "
pub fn page_copy_cost_at(&self, bytes: u64) -> u32 {
    let cost = bytes as u32;
    let index = self.slot as u32;
    cost
}
";
        let findings = run(&[("crates/core/src/cost.rs", sim)]);
        let ct: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "cast-truncation")
            .collect();
        assert_eq!(ct.len(), 1, "{findings:?}");
        assert_eq!(ct[0].line, 3, "the `index` cast has no accounting context");
        assert!(
            run(&[("crates/bench/src/cost.rs", sim)])
                .iter()
                .all(|f| f.rule != "cast-truncation"),
            "bench is not a sim crate"
        );
    }

    #[test]
    fn allows_suppress_graph_findings_at_the_site() {
        let findings = run(&[(
            "crates/core/src/cost.rs",
            "
pub fn page_copy_cost_at(&self, bytes: u64) -> u32 {
    // dsm-lint: allow(cast-truncation, bytes per page bounded by PAGE_BYTES = 4096)
    bytes as u32
}
",
        )]);
        assert!(
            findings.iter().all(|f| f.rule != "cast-truncation"),
            "{findings:?}"
        );
    }
}
