//! `lint.toml`: the committed configuration for the call-graph rules.
//!
//! The token rules (hash-iter, wall-clock, ...) are self-contained, but the
//! inter-procedural rules need to know *which* functions are entry points
//! and *which* constructions are determinism sinks — and those sets are a
//! policy decision that belongs in a reviewed, committed file, not in the
//! lint binary.  A new crate that wants its request loop covered by
//! `panic-path` adds its entry function here deliberately; nothing is
//! opted in by accident.
//!
//! The format is a small TOML subset — `key = value` lines under
//! `[section]` headers, where a value is a quoted string, an integer, or a
//! (possibly multi-line) array of quoted strings.  That is all a lint
//! configuration needs, and parsing it by hand keeps the crate
//! dependency-free like the rest of the linter.

/// Parsed configuration for the call-graph rules.  [`Config::default`]
/// mirrors the committed `lint.toml` so fixture tests and bare-tree runs
/// see the real policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Schema version of the file (must match [`crate::baseline`]'s).
    pub schema: u64,
    /// `panic-path` entry-point specs: `::`-separated suffixes of function
    /// qualified names; the last segment may end in `*` for a prefix match
    /// (`try_run*` covers `try_run` and `try_run_source`).
    pub entries: Vec<String>,
    /// `det-taint` sink names: an identifier followed by `{`, `(` or `::`
    /// in a function body marks that function as computing the
    /// determinism-bearing value.
    pub sinks: Vec<String>,
    /// `cast-truncation` context substrings: a narrowing `as` cast only
    /// fires when an identifier in the same statement contains one of
    /// these (case-insensitive), scoping the rule to clock/byte
    /// accounting.
    pub contexts: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            schema: crate::baseline::SCHEMA_VERSION,
            entries: [
                "SweepService::handle_line",
                "serve_stream",
                "ClusterSimulator::try_run*",
            ]
            .map(str::to_string)
            .to_vec(),
            sinks: ["SimResult", "fingerprint"].map(str::to_string).to_vec(),
            contexts: [
                "clock", "cycle", "byte", "cost", "latency", "traffic", "payload",
            ]
            .map(str::to_string)
            .to_vec(),
        }
    }
}

impl Config {
    /// Load `lint.toml` from `text`.  Unknown sections and keys are
    /// errors — a typo in the policy file must not silently disable a
    /// rule's configuration.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config {
            schema: 0,
            entries: Vec::new(),
            sinks: Vec::new(),
            contexts: Vec::new(),
        };
        let mut section = String::new();
        let mut lines = text.lines().enumerate();
        while let Some((n, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                match section.as_str() {
                    "panic-path" | "det-taint" | "cast-truncation" => {}
                    other => return Err(format!("line {}: unknown section [{other}]", n + 1)),
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = value`", n + 1));
            };
            let (key, mut value) = (key.trim().to_string(), value.trim().to_string());
            // A multi-line array: buffer lines until the brackets close.
            while value.starts_with('[') && !value.ends_with(']') {
                let Some((_, next)) = lines.next() else {
                    return Err(format!("line {}: unterminated array", n + 1));
                };
                value.push(' ');
                value.push_str(strip_comment(next).trim());
            }
            match (section.as_str(), key.as_str()) {
                ("", "schema") => {
                    cfg.schema = value
                        .parse()
                        .map_err(|_| format!("line {}: schema must be an integer", n + 1))?;
                }
                ("panic-path", "entries") => cfg.entries = parse_array(&value, n + 1)?,
                ("det-taint", "sinks") => cfg.sinks = parse_array(&value, n + 1)?,
                ("cast-truncation", "context") => cfg.contexts = parse_array(&value, n + 1)?,
                (s, k) => {
                    return Err(format!(
                        "line {}: unknown key `{k}` in section `[{s}]`",
                        n + 1
                    ));
                }
            }
        }
        if cfg.schema != crate::baseline::SCHEMA_VERSION {
            return Err(format!(
                "lint.toml schema {} does not match the supported schema {}",
                cfg.schema,
                crate::baseline::SCHEMA_VERSION
            ));
        }
        Ok(cfg)
    }

    /// Load from `path`; a missing file yields the built-in default (which
    /// mirrors the committed `lint.toml`).
    pub fn load(path: &std::path::Path) -> Result<Config, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Config::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
            Err(e) => Err(format!("reading {}: {e}", path.display())),
        }
    }

    /// True iff `spec` (an entry spec from [`Config::entries`]) matches the
    /// qualified function name `qname`.  Specs match as `::`-segment
    /// suffixes; a trailing `*` on the last spec segment prefix-matches the
    /// function name itself.
    pub fn entry_matches(spec: &str, qname: &str) -> bool {
        let spec_segs: Vec<&str> = spec.split("::").collect();
        let name_segs: Vec<&str> = qname.split("::").collect();
        if spec_segs.len() > name_segs.len() {
            return false;
        }
        let tail = &name_segs[name_segs.len() - spec_segs.len()..];
        for (i, (s, n)) in spec_segs.iter().zip(tail).enumerate() {
            let last = i == spec_segs.len() - 1;
            let ok = match (last, s.strip_suffix('*')) {
                (true, Some(prefix)) => n.starts_with(prefix),
                _ => s == n,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Strip a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'\\' if in_str => {} // no escapes in this subset; tolerated
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse `[ "a", "b" ]` into its strings.
fn parse_array(value: &str, line_no: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or(format!("line {line_no}: expected an array `[ ... ]`"))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma
        }
        let s = part
            .strip_prefix('"')
            .and_then(|p| p.strip_suffix('"'))
            .ok_or(format!(
                "line {line_no}: array items must be quoted strings"
            ))?;
        out.push(s.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r##"
# dsm-lint configuration
schema = 2

[panic-path]
entries = [
    "SweepService::handle_line",   # the request loop
    "ClusterSimulator::try_run*",
]

[det-taint]
sinks = ["SimResult", "fingerprint"]

[cast-truncation]
context = ["clock", "byte"]
"##;

    #[test]
    fn parses_the_committed_shape() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(cfg.schema, 2);
        assert_eq!(
            cfg.entries,
            ["SweepService::handle_line", "ClusterSimulator::try_run*"]
        );
        assert_eq!(cfg.sinks, ["SimResult", "fingerprint"]);
        assert_eq!(cfg.contexts, ["clock", "byte"]);
    }

    #[test]
    fn default_matches_the_committed_lint_toml() {
        // The workspace root is two levels above this crate's manifest.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap();
        let committed = std::fs::read_to_string(root.join("lint.toml"))
            .expect("committed lint.toml at the workspace root");
        assert_eq!(
            Config::parse(&committed).unwrap(),
            Config::default(),
            "Config::default() must mirror the committed lint.toml"
        );
    }

    #[test]
    fn entry_specs_match_as_suffixes_with_trailing_glob() {
        let m = Config::entry_matches;
        assert!(m(
            "ClusterSimulator::try_run*",
            "core::simulator::ClusterSimulator::try_run_source"
        ));
        assert!(m(
            "ClusterSimulator::try_run*",
            "core::simulator::ClusterSimulator::try_run"
        ));
        assert!(!m(
            "ClusterSimulator::try_run*",
            "core::simulator::ClusterSimulator::run"
        ));
        assert!(m("serve_stream", "sweep_service::server::serve_stream"));
        assert!(!m("serve_stream", "sweep_service::server::serve_stream2"));
        assert!(
            !m("SweepService::handle_line", "other::Service::handle_line"),
            "the owner segment must match too"
        );
        assert!(
            !m("a::b::c::d::too_long", "c::d::too_long"),
            "a spec longer than the qname cannot match"
        );
    }

    #[test]
    fn malformed_files_are_errors_not_silent_defaults() {
        assert!(Config::parse("schema = 2\n[unknown-section]\n").is_err());
        assert!(Config::parse("schema = 2\n[panic-path]\nentres = []\n").is_err());
        assert!(Config::parse("schema = 1\n").is_err(), "schema must match");
        assert!(Config::parse("schema = 2\n[panic-path]\nentries = [\"a\"").is_err());
        assert!(Config::parse("schema = 2\n[det-taint]\nsinks = [bare]\n").is_err());
    }
}
