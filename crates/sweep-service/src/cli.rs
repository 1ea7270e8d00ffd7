//! Flag parsing for the `serve` binary, following the experiment
//! binaries' conventions (`dsm_bench::cli`): `--help`/`-h` exits 0 with
//! usage, unknown flags and bad values exit 2 naming the flag, and a
//! flag's value may not itself look like a flag.

use std::path::PathBuf;

use dsm_bench::CliError;

/// Usage text printed by `--help` and pointed to by flag errors.
pub const USAGE: &str = "\
usage: serve [OPTIONS]

Long-running sweep server: accepts JSON-lines requests (kinds: sweep,
report, trend, cache-stats, shutdown), streams per-job results as they
complete, and serves repeated points from a content-addressed result
cache.

options:
  --socket PATH   listen on a Unix domain socket at PATH (default: serve
                  requests from stdin to stdout)
  --cache FILE    persist the result cache to FILE; results survive
                  restarts and are shared by every client of the file
  --threads N     default simulation worker threads per request (requests
                  may override with their own \"threads\" field)
  --connect PATH  client mode: send one request to the server listening at
                  PATH and print its response lines
  --request JSON  the request line to send in client mode (default:
                  {\"kind\":\"cache-stats\"})
  -h, --help      print this help and exit";

/// Parsed `serve` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Listen on this Unix socket instead of stdio.
    pub socket: Option<PathBuf>,
    /// Persist the cache to this file.
    pub cache: Option<PathBuf>,
    /// Default worker threads (`0` = the engine's per-core default).
    pub threads: usize,
    /// Client mode: connect to the server at this socket.
    pub connect: Option<PathBuf>,
    /// Client mode: the request line to send.
    pub request: Option<String>,
}

impl ServeOptions {
    /// Parse from an iterator of arguments (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<ServeOptions, CliError> {
        let mut opts = ServeOptions {
            socket: None,
            cache: None,
            threads: 0,
            connect: None,
            request: None,
        };
        let mut iter = args.into_iter();
        let value_of = |iter: &mut I::IntoIter, flag: &str| -> Result<String, CliError> {
            match iter.next() {
                Some(v) if !v.starts_with('-') => Ok(v),
                _ => Err(CliError::BadValue(format!("flag `{flag}` needs a value"))),
            }
        };
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--socket" => opts.socket = Some(PathBuf::from(value_of(&mut iter, "--socket")?)),
                "--cache" => opts.cache = Some(PathBuf::from(value_of(&mut iter, "--cache")?)),
                "--threads" => {
                    let v = value_of(&mut iter, "--threads")?;
                    opts.threads = v.parse().ok().filter(|n| *n > 0).ok_or_else(|| {
                        CliError::BadValue(format!("bad value `{v}` for `--threads`"))
                    })?;
                }
                "--connect" => {
                    opts.connect = Some(PathBuf::from(value_of(&mut iter, "--connect")?));
                }
                "--request" => opts.request = Some(value_of(&mut iter, "--request")?),
                "--help" | "-h" => return Err(CliError::Help),
                other => return Err(CliError::UnknownFlag(other.to_string())),
            }
        }
        if opts.request.is_some() && opts.connect.is_none() {
            return Err(CliError::BadValue(
                "`--request` only makes sense with `--connect`".to_string(),
            ));
        }
        if opts.connect.is_some() && (opts.socket.is_some() || opts.cache.is_some()) {
            return Err(CliError::BadValue(
                "`--connect` is client mode and cannot be combined with \
                 `--socket` or `--cache`"
                    .to_string(),
            ));
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServeOptions, CliError> {
        ServeOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_serve_stdio_with_an_in_memory_cache() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.socket, None);
        assert_eq!(o.cache, None);
        assert_eq!(o.threads, 0);
        assert_eq!(o.connect, None);
    }

    #[test]
    fn server_flags_parse() {
        let o = parse(&[
            "--socket",
            "/tmp/s.sock",
            "--cache",
            "r.cache",
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(o.socket, Some(PathBuf::from("/tmp/s.sock")));
        assert_eq!(o.cache, Some(PathBuf::from("r.cache")));
        assert_eq!(o.threads, 4);
    }

    #[test]
    fn client_mode_parses_and_rejects_server_flags() {
        let o = parse(&[
            "--connect",
            "/tmp/s.sock",
            "--request",
            r#"{"kind":"shutdown"}"#,
        ])
        .unwrap();
        assert_eq!(o.connect, Some(PathBuf::from("/tmp/s.sock")));
        assert_eq!(o.request.as_deref(), Some(r#"{"kind":"shutdown"}"#));
        assert!(
            parse(&["--request", "{}"]).is_err(),
            "--request needs --connect"
        );
        assert!(parse(&["--connect", "s", "--socket", "s"]).is_err());
        assert!(parse(&["--connect", "s", "--cache", "c"]).is_err());
    }

    #[test]
    fn errors_follow_the_experiment_binary_conventions() {
        assert!(matches!(parse(&["--help"]), Err(CliError::Help)));
        assert!(matches!(parse(&["-h"]), Err(CliError::Help)));
        // `workers` names a removed flag: it is rejected like any unknown one.
        for name in ["bogus", "workers"] {
            let bogus = format!("--{name}");
            assert!(matches!(
                parse(&[bogus.as_str()]),
                Err(CliError::UnknownFlag(f)) if f == bogus
            ));
        }
        // A missing value must not swallow the next flag.
        assert!(matches!(
            parse(&["--socket", "--cache"]),
            Err(CliError::BadValue(_))
        ));
        assert!(matches!(
            parse(&["--threads", "0"]),
            Err(CliError::BadValue(_))
        ));
        assert!(matches!(
            parse(&["--threads", "x"]),
            Err(CliError::BadValue(_))
        ));
    }
}
