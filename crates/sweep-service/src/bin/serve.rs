//! `serve` — the sweep server (and its line-mode client).
//!
//! Server mode (default): answer JSON-lines requests from stdin, or from a
//! Unix domain socket with `--socket`.  With `--cache FILE` every simulated
//! point persists to a content-addressed cache file and is served from
//! memory on re-request — across clients and across server restarts.
//!
//! Client mode: `serve --connect PATH --request '<json>'` sends one request
//! to a running server and prints each response line as it streams back.

use std::process::ExitCode;

use dsm_bench::CliError;
use sweep_service::cli::{ServeOptions, USAGE};
use sweep_service::{send_request, serve_stdio, serve_unix, ResultCache, SweepService};

fn main() -> ExitCode {
    let opts = match ServeOptions::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(CliError::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };

    if let Some(server) = &opts.connect {
        let request = opts
            .request
            .as_deref()
            .unwrap_or(r#"{"kind":"cache-stats"}"#);
        return match send_request(server, request) {
            Ok(lines) => {
                let mut failed = false;
                for line in &lines {
                    println!("{line}");
                    failed |= line.starts_with(r#"{"kind":"error""#);
                }
                if failed {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("error: talking to {}: {e}", server.display());
                ExitCode::from(2)
            }
        };
    }

    let cache = match &opts.cache {
        Some(path) => match ResultCache::open(path) {
            Ok(c) => {
                eprintln!("serve: cache {} ({} entries)", path.display(), c.len());
                c
            }
            Err(e) => {
                eprintln!("error: opening cache {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => ResultCache::in_memory(),
    };
    let service = SweepService::new(cache, opts.threads);

    let served = match &opts.socket {
        Some(path) => {
            eprintln!("serve: listening on {}", path.display());
            serve_unix(&service, path)
        }
        None => serve_stdio(&service).map(|_| ()),
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
