//! The repo-specific rule set and the scanner that applies it.
//!
//! Every result in this reproduction hangs on bit-exact determinism: the
//! golden fingerprints pin the full workload x system matrix across
//! fused, materialized and replayed sources.  These rules check the
//! source-level invariants that determinism rests on, so a violation fails
//! CI at the commit that introduces it instead of surfacing as a golden
//! mismatch three PRs later (or never, if no golden happens to cover it):
//!
//! * **`hash-iter`** — no `HashMap`/`HashSet` in the simulation crates
//!   (`core`, `mem-trace`, `sim-engine`, `dsm-protocol`, `smp-node`).
//!   Iterating an unordered container is the PR 1 bug class (`migrate_page`
//!   sent gather messages in `HashSet` order, making MigRep runs differ
//!   run-to-run).  A token-level pass cannot prove a particular map is
//!   never iterated, and the repo policy is stronger anyway — sim crates
//!   use ordered (`BTreeMap`) or arena-indexed (`Slab`) state throughout —
//!   so *any* mention fires; a vetted non-iterating use takes an allow
//!   comment stating why.
//! * **`wall-clock`** — no `Instant::now` / `SystemTime` outside
//!   `bench::perf` (see [`allowlist`]).  Simulated time comes from the cost
//!   model; wall-clock in a sim crate is either dead or nondeterministic.
//!   Elapsed-time *reporting* on harness paths is legitimate and carries an
//!   allow comment saying so.
//! * **`lock-unwrap`** — no `.unwrap()` / `.expect(...)` / direct indexing
//!   on the results of lock and channel operations (`lock`, `try_lock`,
//!   `recv`, `try_recv`, `recv_timeout`, `send`, `try_send`, `join`) in
//!   non-test library code.  A poisoned mutex or a hung-up channel is a
//!   *reachable* state in a long-running service; panicking on it turns one
//!   failed request into a dead server.  Recover (`PoisonError::into_inner`)
//!   or return an error; where propagating a worker panic is genuinely the
//!   right behavior, say so in an allow comment.
//! * **`float-order`** — no floating-point accumulation (`+=`/`-=`/`*=`
//!   with a visibly-float operand, or `sum::<f64>()`) in the simulation
//!   crates without a documented merge order.  Float addition does not
//!   commute across reassociation, so an accumulation whose order depends
//!   on thread scheduling silently breaks bit-parity.  The detector is
//!   heuristic — it fires where the accumulation is *visibly* floating
//!   point at token level — and the allow comment is where the ordering
//!   argument gets written down.
//!
//! Rules skip test code (`#[test]` / `#[cfg(test)]` items) and anything
//! outside `src/` trees: the contract is about the shipped simulator, and
//! tests legitimately use wall-clock timeouts and `unwrap`.
//!
//! Suppression grammar: `// dsm-lint: allow(rule-name, reason)` on the same
//! line as the violation or the line directly above.  The reason is
//! mandatory — an allow without one is itself a finding (`allow-syntax`),
//! so every suppression in the tree records *why* the invariant holds.

use crate::lexer::{lex, Comment, Tok, TokKind};

/// One rule's identity and documentation line.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The name used in findings and allow comments.
    pub name: &'static str,
    /// One-line description for `--list-rules` and reports.
    pub summary: &'static str,
}

/// The rule set, in severity-of-surprise order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "hash-iter",
        summary: "HashMap/HashSet in a simulation crate (unordered iteration broke MigRep in PR 1)",
    },
    RuleInfo {
        name: "wall-clock",
        summary: "Instant::now/SystemTime outside bench::perf (simulated time must come from the cost model)",
    },
    RuleInfo {
        name: "lock-unwrap",
        summary: ".unwrap()/.expect()/indexing on lock or channel results in library code",
    },
    RuleInfo {
        name: "float-order",
        summary: "floating-point accumulation in a simulation crate without a documented ordering",
    },
    RuleInfo {
        name: "panic-path",
        summary: "panic site reachable from a declared entry point (lint.toml [panic-path])",
    },
    RuleInfo {
        name: "det-taint",
        summary: "nondeterminism source flowing into SimResult/fingerprint via the call graph",
    },
    RuleInfo {
        name: "cast-truncation",
        summary: "narrowing `as` cast in clock/byte accounting inside a simulation crate",
    },
    RuleInfo {
        name: "allow-syntax",
        summary: "malformed dsm-lint allow comment (unknown rule or missing reason)",
    },
];

/// True iff `name` is a rule an allow comment may name.
pub fn is_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// The simulation crates `hash-iter` and `float-order` police: the crates
/// whose state evolution the golden fingerprints digest.
pub(crate) const SIM_CRATES: &[&str] = &[
    "crates/core/src/",
    "crates/mem-trace/src/",
    "crates/sim-engine/src/",
    "crates/dsm-protocol/src/",
    "crates/smp-node/src/",
];

/// Files exempt from a rule wholesale, each with the reason on record.
/// Prefer a site-level allow comment; a file lands here only when the rule
/// is inapplicable to the file's entire purpose.
pub fn allowlist() -> &'static [(&'static str, &'static str, &'static str)] {
    &[
        (
            "wall-clock",
            "crates/bench/src/perf.rs",
            "the perf benchmark exists to measure wall-clock events/sec; timing is its output, not sim state",
        ),
        (
            "wall-clock",
            "crates/bench/src/bin/perf.rs",
            "CLI front-end of the perf benchmark; same wall-clock-by-design contract",
        ),
        (
            "det-taint",
            "crates/bench/src/perf.rs",
            "the perf harness times simulation runs by design; the timings are the benchmark's \
             output and never feed back into SimResult or a fingerprint (which it only prints)",
        ),
    ]
}

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (a [`RULES`] name).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The trimmed source line, shown with the finding.
    pub excerpt: String,
    /// For the call-graph rules: the evidence chain (shortest call path
    /// from entry to panic site, or source-to-sink taint path).  Empty for
    /// token rules.
    pub chain: Vec<String>,
}

/// A parsed `dsm-lint: allow(rule, reason)` comment.
#[derive(Debug)]
pub(crate) struct Allow {
    pub(crate) line: u32,
    pub(crate) rule: String,
}

/// Extract the valid allow comments from one file, for the cross-file
/// rules in [`crate::flow`] (malformed allows are reported by
/// [`scan_source`]; this helper ignores them).
pub(crate) fn file_allows(relpath: &str, source: &str) -> Vec<Allow> {
    let lexed = lex(source);
    let (allows, _) = parse_allows(relpath, &lexed.comments, &|_| String::new());
    allows
}

/// Scan one file's source.  `relpath` decides which rules are in scope
/// (the sim-crate list and [`allowlist`]); pass the path the file would
/// have relative to the workspace root, `/`-separated.
pub fn scan_source(relpath: &str, source: &str) -> Vec<Finding> {
    if !is_lib_code(relpath) {
        return Vec::new();
    }
    let lexed = lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let excerpt = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map_or(String::new(), |l| l.trim().to_string())
    };

    let (allows, mut findings) = parse_allows(relpath, &lexed.comments, &excerpt);

    let test_mask = test_region_mask(&lexed.toks);
    let toks: Vec<&Tok> = lexed
        .toks
        .iter()
        .zip(&test_mask)
        .filter(|(_, in_test)| !**in_test)
        .map(|(t, _)| t)
        .collect();

    let mut fire = |rule: &'static str, line: u32| {
        findings.push(Finding {
            rule,
            file: relpath.to_string(),
            line,
            excerpt: excerpt(line),
            chain: Vec::new(),
        });
    };

    if in_scope("hash-iter", relpath) {
        for t in &toks {
            if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
                fire("hash-iter", t.line);
            }
        }
    }

    if in_scope("wall-clock", relpath) {
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            if t.text == "SystemTime"
                || (t.text == "Instant"
                    && is_punct(toks.get(i + 1), "::")
                    && is_ident(toks.get(i + 2), "now"))
            {
                fire("wall-clock", t.line);
            }
        }
    }

    if in_scope("lock-unwrap", relpath) {
        scan_lock_unwrap(&toks, &mut fire);
    }

    if in_scope("float-order", relpath) {
        scan_float_order(&toks, &mut fire);
    }

    // Apply suppressions: an allow on line L covers findings on L (trailing
    // comment) and L + 1 (comment above the code).
    findings.retain(|f| {
        f.rule == "allow-syntax"
            || !allows
                .iter()
                .any(|a| a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line))
    });
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Rules apply to library code only: files under a `src/` tree (crate
/// sources and binaries), not `tests/`, `examples/` or `benches/`.
pub(crate) fn is_lib_code(relpath: &str) -> bool {
    relpath.starts_with("src/") || relpath.contains("/src/")
}

fn in_scope(rule: &str, relpath: &str) -> bool {
    if allowlist()
        .iter()
        .any(|(r, file, _)| *r == rule && *file == relpath)
    {
        return false;
    }
    match rule {
        "hash-iter" | "float-order" => SIM_CRATES.iter().any(|p| relpath.starts_with(p)),
        _ => true,
    }
}

fn is_punct(t: Option<&&Tok>, text: &str) -> bool {
    t.is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
}

fn is_ident(t: Option<&&Tok>, text: &str) -> bool {
    t.is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
}

/// Lock/channel operations whose `Result` must not be unwrapped in library
/// code.
pub(crate) const GUARDED_OPS: &[&str] = &[
    "lock",
    "try_lock",
    "recv",
    "try_recv",
    "recv_timeout",
    "send",
    "try_send",
    "join",
];

fn scan_lock_unwrap(toks: &[&Tok], fire: &mut impl FnMut(&'static str, u32)) {
    let mut i = 0;
    while i + 2 < toks.len() {
        let call = is_punct(toks.get(i), ".")
            && toks[i + 1].kind == TokKind::Ident
            && GUARDED_OPS.contains(&toks[i + 1].text.as_str())
            && is_punct(toks.get(i + 2), "(");
        if !call {
            i += 1;
            continue;
        }
        // Find the call's closing paren.
        let mut depth = 0usize;
        let mut j = i + 2;
        while j < toks.len() {
            match (toks[j].kind, toks[j].text.as_str()) {
                (TokKind::Punct, "(") => depth += 1,
                (TokKind::Punct, ")") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        // `.unwrap()` / `.expect(` / `[` directly on the result.
        let unwrapped = (is_punct(toks.get(j + 1), ".")
            && (is_ident(toks.get(j + 2), "unwrap") || is_ident(toks.get(j + 2), "expect"))
            && is_punct(toks.get(j + 3), "("))
            || is_punct(toks.get(j + 1), "[");
        if unwrapped {
            let line = toks
                .get(j + 2)
                .or(toks.get(j + 1))
                .map_or(toks[i + 1].line, |t| t.line);
            fire("lock-unwrap", line);
            i = j + 3;
        } else {
            i = j.max(i + 1);
        }
    }
}

fn scan_float_order(toks: &[&Tok], fire: &mut impl FnMut(&'static str, u32)) {
    for (i, t) in toks.iter().enumerate() {
        // `sum::<f64>()` / `product::<f32>()`: a reduction whose order is
        // whatever the iterator's order is.
        if t.kind == TokKind::Ident
            && (t.text == "sum" || t.text == "product")
            && is_punct(toks.get(i + 1), "::")
            && is_punct(toks.get(i + 2), "<")
            && toks
                .get(i + 3)
                .is_some_and(|t| t.kind == TokKind::Ident && (t.text == "f64" || t.text == "f32"))
        {
            fire("float-order", t.line);
        }
        // `x += expr` where the statement is visibly floating point.
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), "+=" | "-=" | "*=") {
            let stmt_is_float = toks[i + 1..]
                .iter()
                .take_while(|t| !(t.kind == TokKind::Punct && t.text == ";"))
                .take(64)
                .any(|t| {
                    t.kind == TokKind::Float
                        || (t.kind == TokKind::Ident && (t.text == "f64" || t.text == "f32"))
                });
            if stmt_is_float {
                fire("float-order", t.line);
            }
        }
    }
}

/// Parse allow comments; malformed ones become `allow-syntax` findings.
fn parse_allows(
    relpath: &str,
    comments: &[Comment],
    excerpt: &impl Fn(u32) -> String,
) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        // Allow annotations are plain `//` comments only.  Doc comments
        // (`///` → text starting with `/`, `//!` → `!`) are documentation —
        // this file's own description of the grammar must not parse as a
        // directive.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let Some(at) = c.text.find("dsm-lint:") else {
            continue;
        };
        let mut bad = |why: &str| {
            findings.push(Finding {
                rule: "allow-syntax",
                file: relpath.to_string(),
                line: c.line,
                excerpt: format!("{} ({why})", excerpt(c.line)),
                chain: Vec::new(),
            });
        };
        let rest = c.text[at + "dsm-lint:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            bad("expected `allow(rule, reason)`");
            continue;
        };
        let Some(close) = args.rfind(')') else {
            bad("missing closing `)`");
            continue;
        };
        let args = &args[..close];
        let Some((rule, reason)) = args.split_once(',') else {
            bad("missing reason: use `allow(rule, why the invariant holds)`");
            continue;
        };
        let (rule, reason) = (rule.trim(), reason.trim());
        if !is_rule(rule) {
            bad(&format!("unknown rule `{rule}`"));
            continue;
        }
        if reason.is_empty() {
            bad("empty reason");
            continue;
        }
        allows.push(Allow {
            line: c.line,
            rule: rule.to_string(),
        });
    }
    (allows, findings)
}

/// Mark tokens belonging to test-gated items: an attribute containing the
/// ident `test` (`#[test]`, `#[cfg(test)]`, `#[tokio::test]`) gates the item
/// that follows, through its closing brace or semicolon.  `cfg(not(test))`
/// stays live code.
pub(crate) fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Punct
            && toks[i].text == "#"
            && toks.get(i + 1).is_some_and(|t| t.text == "["))
        {
            i += 1;
            continue;
        }
        // Collect the attribute group.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut gated = false;
        let mut negated = false;
        while j < toks.len() {
            match (toks[j].kind, toks[j].text.as_str()) {
                (TokKind::Punct, "[") => depth += 1,
                (TokKind::Punct, "]") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                (TokKind::Ident, "test") => gated = true,
                (TokKind::Ident, "not") => negated = true,
                _ => {}
            }
            j += 1;
        }
        if !gated || negated {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then blank out the item through its
        // closing `}` (or `;` for `mod tests;` / use declarations).
        let mut k = j + 1;
        while k + 1 < toks.len() && toks[k].text == "#" && toks[k + 1].text == "[" {
            let mut d = 0usize;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        // Find the item body start at bracket depth 0.
        let mut paren = 0isize;
        let mut end = k;
        while end < toks.len() {
            match toks[end].text.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                ";" if paren == 0 => break,
                "{" if paren == 0 => {
                    // Brace-match to the item's end.
                    let mut braces = 0usize;
                    while end < toks.len() {
                        match toks[end].text.as_str() {
                            "{" => braces += 1,
                            "}" => {
                                braces -= 1;
                                if braces == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        end += 1;
                    }
                    break;
                }
                _ => {}
            }
            end += 1;
        }
        for m in mask.iter_mut().take((end + 1).min(toks.len())).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM: &str = "crates/core/src/fixture.rs";
    const LIB: &str = "crates/bench/src/fixture.rs";

    fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
        scan_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn scope_boundaries_hold() {
        let hash = "pub fn f(m: &std::collections::HashMap<u32, u32>) {}\n";
        assert_eq!(rules_fired(SIM, hash), vec!["hash-iter"]);
        assert!(
            rules_fired(LIB, hash).is_empty(),
            "bench is not a sim crate"
        );
        assert!(
            rules_fired("tests/fixture.rs", hash).is_empty(),
            "integration tests are not library code"
        );
        assert!(
            rules_fired("crates/bench/src/perf.rs", "let t = Instant::now();").is_empty(),
            "bench::perf is allowlisted for wall-clock"
        );
    }

    #[test]
    fn test_gated_items_are_skipped() {
        let src = "
#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    #[test]
    fn t() { let _ = std::time::Instant::now(); }
}
pub fn live() {}
";
        assert!(rules_fired(SIM, src).is_empty());
        let live = "
#[cfg(not(test))]
pub fn live(m: &std::collections::HashSet<u32>) {}
";
        assert_eq!(rules_fired(SIM, live), vec!["hash-iter"]);
    }

    #[test]
    fn lock_unwrap_needs_both_halves() {
        assert_eq!(
            rules_fired(LIB, "let g = self.state.lock().unwrap();"),
            vec!["lock-unwrap"]
        );
        assert_eq!(
            rules_fired(LIB, "let g = self.state.lock().expect(\"poisoned\");"),
            vec!["lock-unwrap"]
        );
        assert_eq!(
            rules_fired(LIB, "let v = rx.recv().unwrap()[0];"),
            vec!["lock-unwrap"]
        );
        assert!(
            rules_fired(
                LIB,
                "let g = self.state.lock().unwrap_or_else(PoisonError::into_inner);"
            )
            .is_empty(),
            "recovery is the sanctioned pattern"
        );
        assert!(
            rules_fired(LIB, "let s = parts.join(\", \");").is_empty(),
            "a join not followed by unwrap is fine"
        );
        assert!(
            rules_fired(LIB, "self.expect(b'{')?;").is_empty(),
            "an own method named expect is not a lock op"
        );
    }

    #[test]
    fn float_order_fires_on_visible_float_accumulation() {
        assert_eq!(
            rules_fired(SIM, "self.mean += delta / self.count as f64;"),
            vec!["float-order"]
        );
        assert_eq!(
            rules_fired(SIM, "let s = xs.iter().sum::<f64>();"),
            vec!["float-order"]
        );
        assert!(
            rules_fired(SIM, "self.count += 1;").is_empty(),
            "integer accumulation is order-safe"
        );
    }

    #[test]
    fn allow_comments_suppress_with_a_reason_and_fail_without() {
        let above = "
// dsm-lint: allow(hash-iter, vetted: drained into a BTreeSet before iteration)
pub fn f(m: &std::collections::HashMap<u32, u32>) {}
";
        assert!(rules_fired(SIM, above).is_empty());
        let trailing =
            "pub fn f(m: &std::collections::HashMap<u32, u32>) {} // dsm-lint: allow(hash-iter, vetted above)\n";
        assert!(rules_fired(SIM, trailing).is_empty());
        let wrong_rule = "
// dsm-lint: allow(wall-clock, wrong rule for this site)
pub fn f(m: &std::collections::HashMap<u32, u32>) {}
";
        assert_eq!(rules_fired(SIM, wrong_rule), vec!["hash-iter"]);
        let no_reason = "
// dsm-lint: allow(hash-iter)
pub fn f(m: &std::collections::HashMap<u32, u32>) {}
";
        let fired = rules_fired(SIM, no_reason);
        assert!(fired.contains(&"allow-syntax"), "{fired:?}");
        assert!(
            fired.contains(&"hash-iter"),
            "a bad allow suppresses nothing"
        );
        let unknown = "// dsm-lint: allow(no-such-rule, reason)\n";
        assert_eq!(rules_fired(SIM, unknown), vec!["allow-syntax"]);
        let doc = "//! The grammar is `dsm-lint: allow(rule, reason)`.\n";
        assert!(
            rules_fired(SIM, doc).is_empty(),
            "doc comments describe the grammar, they are not directives"
        );
    }

    #[test]
    fn patterns_inside_strings_and_comments_are_inert() {
        let src = r#"
// HashMap iteration order broke MigRep once; see PR 1.
pub fn doc() -> &'static str {
    "Instant::now() and SystemTime and lock().unwrap()"
}
"#;
        assert!(rules_fired(SIM, src).is_empty());
    }
}
