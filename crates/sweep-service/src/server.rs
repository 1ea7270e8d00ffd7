//! Transports: JSON-lines over stdio and over a Unix domain socket.
//!
//! Both transports drive the same [`SweepService::handle_line`] loop: read
//! one request line, write every response line (flushing per line so
//! clients see jobs stream in as they complete), repeat until EOF or a
//! `shutdown` request.  The socket server accepts one connection at a time
//! — requests are simulation-bound and the sweep engine already spreads one
//! request across every core, so interleaving connections would only slow
//! both down.  The cache persists across connections (and across server
//! restarts, when backed by a file).

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;

use crate::proto::is_terminal_kind;
use crate::service::{Action, SweepService};
use dsm_bench::json;

/// Serve every request line of `reader`, writing responses to `writer`
/// (flushed per line).  Returns the action that ended the loop:
/// [`Action::Shutdown`] for a shutdown request, [`Action::Continue`] for
/// EOF.
pub fn serve_stream<R, W>(service: &SweepService, reader: R, writer: &mut W) -> io::Result<Action>
where
    R: BufRead,
    W: Write + Send,
{
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let mut write_error = None;
        let mut emit = |response: String| {
            if write_error.is_none() {
                let attempt = writeln!(writer, "{response}").and_then(|()| writer.flush());
                if let Err(e) = attempt {
                    write_error = Some(e);
                }
            }
        };
        let action = service.handle_line(&line, &mut emit);
        if let Some(e) = write_error {
            return Err(e);
        }
        if action == Action::Shutdown {
            return Ok(Action::Shutdown);
        }
    }
    Ok(Action::Continue)
}

/// Serve requests from stdin to stdout until EOF or shutdown.
pub fn serve_stdio(service: &SweepService) -> io::Result<Action> {
    let stdin = io::stdin();
    let mut stdout = io::stdout();
    serve_stream(service, stdin.lock(), &mut stdout)
}

/// Serve connections on a Unix domain socket at `path` until a client
/// sends `shutdown`.  A stale socket file from a dead server is replaced;
/// the file is removed again on clean shutdown.  Connections are served
/// one at a time; a client disconnecting mid-response only ends its own
/// connection.
pub fn serve_unix(service: &SweepService, path: &Path) -> io::Result<()> {
    // Binding over a stale socket fails with AddrInUse even though nobody
    // is listening; remove the file first.  A *live* server would be
    // stomped too — callers pick per-server socket paths.
    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let listener = UnixListener::bind(path)?;
    let mut outcome = Ok(());
    for connection in listener.incoming() {
        let stream = match connection {
            Ok(s) => s,
            Err(_) => continue, // one failed accept is not fatal
        };
        let reader = match stream.try_clone() {
            Ok(s) => BufReader::new(s),
            Err(_) => continue,
        };
        let mut writer = stream;
        match serve_stream(service, reader, &mut writer) {
            Ok(Action::Shutdown) => break,
            Ok(Action::Continue) => {} // client hung up; await the next one
            Err(_) => {}               // broken pipe mid-response; same
        }
    }
    if let Err(e) = std::fs::remove_file(path) {
        if e.kind() != io::ErrorKind::NotFound {
            outcome = Err(e);
        }
    }
    outcome
}

/// Client side: connect to the socket at `path`, send one request line,
/// and collect every response line up to and including the terminal one.
pub fn send_request(path: &Path, request: &str) -> io::Result<Vec<String>> {
    let mut stream = UnixStream::connect(path)?;
    stream.write_all(request.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    let reader = BufReader::new(stream.try_clone()?);
    let mut responses = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let terminal = json::parse(&line)
            .ok()
            .and_then(|v| v.get_str("kind").map(is_terminal_kind))
            .unwrap_or(false);
        responses.push(line);
        if terminal {
            return Ok(responses);
        }
    }
    Err(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "server closed the connection before a terminal response",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_bench::json::parse;

    #[test]
    fn stdio_style_stream_serves_multiple_requests() {
        let service = SweepService::in_memory();
        let input = concat!(
            r#"{"kind":"cache-stats","id":"a"}"#,
            "\n\n", // blank lines are ignored
            r#"{"kind":"cache-stats","id":"b"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let action = serve_stream(&service, input.as_bytes(), &mut out).unwrap();
        assert_eq!(action, Action::Continue, "EOF ends the loop");
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(parse(lines[0]).unwrap().get_str("id"), Some("a"));
        assert_eq!(parse(lines[1]).unwrap().get_str("id"), Some("b"));
    }

    #[test]
    fn shutdown_stops_the_stream_loop_after_acknowledging() {
        let service = SweepService::in_memory();
        let input = concat!(
            r#"{"kind":"shutdown","id":"s"}"#,
            "\n",
            r#"{"kind":"cache-stats","id":"never"}"#,
            "\n",
        );
        let mut out = Vec::new();
        let action = serve_stream(&service, input.as_bytes(), &mut out).unwrap();
        assert_eq!(action, Action::Shutdown);
        let out = String::from_utf8(out).unwrap();
        assert_eq!(out.lines().count(), 1, "nothing served after shutdown");
        assert_eq!(
            parse(out.lines().next().unwrap()).unwrap().get_str("kind"),
            Some("ok")
        );
    }

    #[test]
    fn unix_socket_round_trips_requests_and_persists_the_cache_across_connections() {
        let dir = std::env::temp_dir().join(format!("dsm-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("server.sock");
        // A stale file at the socket path must not prevent binding.
        std::fs::write(&socket, "stale").unwrap();

        let service = SweepService::in_memory();
        // Request lines must be single lines — the protocol is JSON-lines.
        let sweep = concat!(
            r#"{"kind":"sweep","id":"u1","workloads":["ocean"],"systems":["cc-numa"],"#,
            r#""scale":"x1/32","nodes":[2],"procs_per_node":[2],"threads":2}"#
        );
        // Collect inside the scope, assert outside: a panic inside the
        // scope would block forever joining a server that never got its
        // shutdown request.
        let (cold, warm, bye, server) = std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve_unix(&service, &socket));
            // The server binds asynchronously; retry the first connect.
            let mut cold = None;
            for _ in 0..100 {
                match send_request(&socket, sweep) {
                    Ok(r) => {
                        cold = Some(r);
                        break;
                    }
                    Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
                }
            }
            // Second connection: served entirely from the cache.
            let warm = cold
                .as_ref()
                .and_then(|_| send_request(&socket, sweep).ok());
            // Always attempt the shutdown so the server thread can exit
            // even when the earlier requests misbehaved.
            let bye = send_request(&socket, r#"{"kind":"shutdown","id":"z"}"#).ok();
            (cold, warm, bye, handle.join().expect("server thread"))
        });
        server.expect("server exits cleanly");

        let cold = cold.expect("server came up");
        assert_eq!(cold.len(), 3, "{cold:?}");
        let done = parse(cold.last().unwrap()).unwrap();
        assert_eq!(done.get_str("kind"), Some("sweep-done"));
        assert_eq!(done.get_u64("simulated"), Some(2));

        let warm = warm.expect("warm resubmission answered");
        let done = parse(warm.last().unwrap()).unwrap();
        assert_eq!(done.get_u64("cached"), Some(2));
        assert_eq!(done.get_u64("simulated"), Some(0));

        let bye = bye.expect("shutdown acknowledged");
        assert_eq!(parse(&bye[0]).unwrap().get_str("kind"), Some("ok"));
        assert!(!socket.exists(), "socket file removed on shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
