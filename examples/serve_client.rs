//! Drive the sweep service over a Unix domain socket: start an in-process
//! server, submit the same sweep twice, and watch the second submission
//! come entirely from the content-addressed result cache.
//!
//!     cargo run --release --example serve_client
//!
//! The same protocol works across processes — `serve --socket PATH
//! --cache FILE` keeps a server (and its cache) alive between clients and
//! restarts; `serve --connect PATH --request '{...}'` is this client as a
//! command line.

use dsm_repro::bench::json::parse;
use dsm_repro::service::{send_request, serve_unix, SweepService};

fn main() {
    let socket =
        std::env::temp_dir().join(format!("dsm-serve-example-{}.sock", std::process::id()));

    // One sweep: two systems over two cluster sizes on a 1/16-scale radix,
    // normalized against perfect CC-NUMA at the same geometry.
    let sweep = concat!(
        r#"{"kind":"sweep","id":"demo","name":"radix demo","workloads":["radix"],"#,
        r#""systems":["cc-numa","migrep"],"scale":"x1/16","nodes":[4,8]}"#
    );

    let service = SweepService::in_memory();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_unix(&service, &socket));

        // The server binds asynchronously; retry the first connect.
        let mut cold = None;
        for _ in 0..200 {
            match send_request(&socket, sweep) {
                Ok(r) => {
                    cold = Some(r);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        let cold = cold.expect("server did not come up");
        println!("first submission (everything simulates):");
        print_stream(&cold);

        println!("\nsecond submission (everything replays from the cache):");
        let warm = send_request(&socket, sweep).expect("resubmit");
        print_stream(&warm);

        let stats = send_request(&socket, r#"{"kind":"cache-stats","id":"s"}"#).expect("stats");
        println!("\ncache: {}", stats[0]);

        send_request(&socket, r#"{"kind":"shutdown","id":"bye"}"#).expect("shutdown");
        server
            .join()
            .expect("server thread")
            .expect("server exits cleanly");
    });
}

/// Print each streamed job event on one line, then the terminal summary.
fn print_stream(responses: &[String]) {
    for line in responses {
        let v = parse(line).expect("valid response JSON");
        match v.get_str("kind") {
            Some("baseline") | Some("point") => {
                println!(
                    "  {:<8} {:>9} {}/{} nodes={} norm={}",
                    v.get_str("kind").unwrap(),
                    if v.get("cached").and_then(|c| c.as_bool()) == Some(true) {
                        "cached"
                    } else {
                        "simulated"
                    },
                    v.get_str("workload").unwrap_or("?"),
                    v.get_str("system").unwrap_or("?"),
                    v.get_u64("nodes").unwrap_or(0),
                    v.get("normalized_time")
                        .and_then(|n| n.as_f64())
                        .map(|n| format!("{n:.3}"))
                        .unwrap_or_else(|| "-".to_string()),
                );
            }
            Some("sweep-done") => {
                println!(
                    "  done: {} points + {} baselines, {} cached, {} simulated, {:.2}s",
                    v.get_u64("points").unwrap_or(0),
                    v.get_u64("baselines").unwrap_or(0),
                    v.get_u64("cached").unwrap_or(0),
                    v.get_u64("simulated").unwrap_or(0),
                    v.get("elapsed_seconds")
                        .and_then(|e| e.as_f64())
                        .unwrap_or(0.0),
                );
            }
            _ => println!("  {line}"),
        }
    }
}
