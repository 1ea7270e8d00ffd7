//! `dsm-lint`: the repo-specific determinism/concurrency lint.
//!
//! Every result in this reproduction is pinned by golden fingerprints that
//! assume bit-exact determinism, and the invariants behind that —
//! no unordered-container iteration in the simulation crates, no wall-clock
//! in the sim core, no panicking lock/channel unwraps in the service tier,
//! no scheduling-dependent float accumulation — were historically enforced
//! only by after-the-fact parity tests.  This crate checks them at the
//! source level on every commit: a small hand-rolled Rust lexer
//! ([`lexer`]), a rule pass over the token stream ([`rules`]), and
//! call-graph rules over the whole workspace ([`graph`], [`flow`]).  Any
//! finding fails the gate; the only way to accept one is an inline
//! `// dsm-lint: allow(rule, reason)` at the site.
//!
//! The crate is deliberately dependency-free (its own JSON escaping in
//! [`json`], its own walker in [`workspace`]): the gate must build in
//! seconds, before the simulator stack, and must never be taken down by the
//! code it checks.

pub mod config;
pub mod flow;
pub mod graph;
pub mod items;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod workspace;

pub use config::Config;
pub use graph::CallGraph;
pub use rules::{allowlist, is_rule, scan_source, Finding, RuleInfo, RULES};

use std::path::Path;

/// One full analysis: merged token + call-graph findings, plus the graph
/// itself (for `--emit-graph` and the self-tests).
pub struct Scan {
    /// All findings, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// The workspace call graph the flow rules ran on.
    pub graph: CallGraph,
}

/// Scan in-memory `(relpath, source)` pairs: the token rules per file,
/// then the call-graph rules across all of them.
pub fn scan_files(files: &[(String, String)], cfg: &Config) -> Scan {
    let mut findings = Vec::new();
    for (rel, src) in files {
        findings.extend(scan_source(rel, src));
    }
    let graph = flow::build_graph(files, cfg);
    findings.extend(flow::scan(&graph, files, cfg));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Scan { findings, graph }
}

/// Scan every `.rs` file under `root`, configured by `<root>/lint.toml`
/// (built-in defaults when the file is absent).  IO errors name the file
/// that failed.
pub fn scan_workspace(root: &Path) -> Result<Scan, String> {
    let cfg = Config::load(&root.join("lint.toml"))?;
    let walked =
        workspace::workspace_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut files = Vec::with_capacity(walked.len());
    for (rel, abs) in walked {
        let source =
            std::fs::read_to_string(&abs).map_err(|e| format!("reading {}: {e}", abs.display()))?;
        files.push((rel, source));
    }
    Ok(scan_files(&files, &cfg))
}
