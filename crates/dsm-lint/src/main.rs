//! `dsm-lint` CLI: scan the workspace and report every finding.
//!
//! ```text
//! dsm-lint [--root DIR] [--format human|json|github] [--emit-graph FILE]
//!          [--list-rules]
//! ```
//!
//! Exit status: `0` when the scan finds nothing, `1` when it finds
//! violations, `2` on usage, configuration or IO errors.  `--format json`
//! writes the full machine-readable report to stdout (human prose goes to
//! stderr); `--format github` writes GitHub Actions `::error` workflow
//! commands so findings annotate the PR diff in place.

use std::path::PathBuf;
use std::process::ExitCode;

use dsm_lint::json::escape;
use dsm_lint::{scan_workspace, Finding, RULES};

const USAGE: &str = "\
dsm-lint: repo-specific determinism/concurrency lint

USAGE:
    dsm-lint [OPTIONS]

OPTIONS:
    --root DIR         workspace root to scan (default: .)
    --format FORMAT    report format: human (default), json (full report on
                       stdout, prose on stderr), github (::error workflow
                       commands for PR annotations)
    --json             shorthand for --format json
    --emit-graph FILE  also write the workspace call graph (nodes, resolved
                       edges, unresolved bucket) as JSON to FILE
    --list-rules       print the rule set and exit
    --help             this text

Any finding fails the scan.  Accept one only with
`// dsm-lint: allow(rule, reason)` on the same line or the line above; the
reason is mandatory.  Entry points and sinks for the call-graph rules are
configured in <root>/lint.toml.";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
    Github,
}

struct Opts {
    root: PathBuf,
    format: Format,
    emit_graph: Option<PathBuf>,
    list: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        format: Format::Human,
        emit_graph: None,
        list: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => opts.root = PathBuf::from(args.next().ok_or("--root needs a value")?),
            "--format" => {
                opts.format = match args.next().as_deref() {
                    Some("human") => Format::Human,
                    Some("json") => Format::Json,
                    Some("github") => Format::Github,
                    other => {
                        return Err(format!("--format expects human|json|github, got {other:?}"))
                    }
                };
            }
            "--json" => opts.format = Format::Json,
            "--emit-graph" => {
                opts.emit_graph = Some(PathBuf::from(
                    args.next().ok_or("--emit-graph needs a value")?,
                ));
            }
            "--list-rules" => opts.list = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// One finding as a GitHub Actions annotation.  Newlines in workflow
/// commands are URL-encoded per the Actions spec; the chain rides in the
/// message so the annotation is self-contained evidence.
fn github_annotation(f: &Finding) -> String {
    let mut msg = format!("[{}] {}", f.rule, f.excerpt);
    for step in &f.chain {
        msg.push_str("%0A  ");
        msg.push_str(step);
    }
    let msg = msg.replace('\r', "").replace('\n', "%0A");
    format!("::error file={},line={}::{msg}", f.file, f.line)
}

/// The `--format json` report.  Call-graph findings carry their evidence
/// chain.
fn render_findings(findings: &[Finding]) -> String {
    let all: Vec<String> = findings
        .iter()
        .map(|f| {
            let chain: Vec<String> = f
                .chain
                .iter()
                .map(|s| format!("\"{}\"", escape(s)))
                .collect();
            format!(
                "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"excerpt\":\"{}\",\"chain\":[{}]}}",
                escape(f.rule),
                escape(&f.file),
                f.line,
                escape(&f.excerpt),
                chain.join(",")
            )
        })
        .collect();
    format!(
        "{{\"total\":{},\"findings\":[{}]}}\n",
        findings.len(),
        all.join(",")
    )
}

fn run() -> Result<bool, String> {
    let opts = parse_args()?;
    if opts.list {
        for r in RULES {
            println!("{:<16} {}", r.name, r.summary);
        }
        return Ok(true);
    }

    let scan = scan_workspace(&opts.root)?;
    let findings = scan.findings;
    if let Some(path) = &opts.emit_graph {
        std::fs::write(path, scan.graph.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "dsm-lint: wrote call graph ({} fns, {} unresolved calls) to {}",
            scan.graph.fns.len(),
            scan.graph.unresolved.len(),
            path.display()
        );
    }
    match opts.format {
        Format::Json => print!("{}", render_findings(&findings)),
        Format::Github => {
            for f in &findings {
                println!("{}", github_annotation(f));
            }
        }
        Format::Human => {}
    }
    for f in &findings {
        eprintln!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.excerpt);
        for step in &f.chain {
            eprintln!("    {step}");
        }
    }
    eprintln!(
        "dsm-lint: {} finding{}",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" },
    );
    Ok(findings.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dsm-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}
