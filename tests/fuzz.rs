//! Deterministic mutation fuzzing of the sweep service's request path.
//!
//! Every request line reaches [`Request::parse`], which reads it with
//! [`json::parse`], on the request thread, so one malformed or oversized
//! line must cost an `Err`, never a panic and never a stall.  The seeds are committed request
//! lines: CI's smoke request, the benchmark's sweep-line shape and the
//! lines of `proto.rs`'s unit tests.  `SplitMix64` mutates them (truncation,
//! byte flips, splices, deletions, and runs of the characters a parser has
//! to track: brackets, braces, backslashes, `\u` escapes and multi-byte
//! characters), so every failure reproduces from the fixed seed.

use std::time::{Duration, Instant};

use dsm_repro::bench::json;
use dsm_repro::service::Request;
use dsm_repro::sim::SplitMix64;

const CASES: u64 = 20_000;

/// Wall-clock budget for all cases in a debug build (they take about a
/// second).
const BUDGET: Duration = Duration::from_secs(10);

/// One case in this many carries a long string literal.
const LONG_EVERY: u64 = 200;

/// The bytes of a long case's string literal.
const LONG_BYTES: usize = 128 * 1024;

const SEEDS: &[&str] = &[
    // CI's `serve` smoke request.
    r#"{"kind":"sweep","id":"ci","workloads":["ocean"],"systems":["cc-numa","migrep"],"scale":"x1/32","nodes":[2,4]}"#,
    // The benchmark's sweep line.
    r#"{"kind":"sweep","id":"cold-0","name":"serve-2048-64","systems":["cc-numa","migrep","r-numa-paper-cache"],"page_bytes":[2048],"block_bytes":[64]}"#,
    // `proto.rs`'s unit tests.
    r#"{"kind":"sweep","id":"s1"}"#,
    r#"{"kind":"sweep","id":"s2","name":"grid","workloads":["lu"],
                "systems":["cc-numa"],"baseline":"perfect-cc-numa","scale":"x1/32",
                "nodes":[2,4],"procs_per_node":[2],"page_bytes":[2048,4096],
                "block_bytes":[64],"costs":["base","slow"],
                "relocation_delays":[0,2000],"threads":4,"workers":2}"#,
    r#"{"kind":"trend","id":"t","dir":"/tmp"}"#,
    r#"{"kind":"trend"}"#,
    r#"{"kind":"cache-stats","id":"c"}"#,
    r#"{"kind":"shutdown","id":"x"}"#,
    r#"{"kind":"report","rows":"nodes","metric":"network_bytes"}"#,
    r#"{"id":"x"}"#,
    r#"{"kind":"frobnicate"}"#,
    r#"{"kind":"sweep","nodes":[70000]}"#,
    r#"{"kind":"sweep","nodes":"2"}"#,
    r#"{"kind":"sweep","systems":[1]}"#,
];

/// Runs inserted whole: the tokens whose nesting and escaping a parser
/// tracks, and characters of two, three and four UTF-8 bytes.
const RUNS: &[&str] = &[
    "[",
    "{",
    "\\",
    "\\u",
    "\"",
    "é",
    "√",
    "\u{1f600}",
    "\\ud83d",
];

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    // `n` is a length of at most a few hundred KB.
    rng.next_below(n as u64) as usize
}

/// Apply one random mutation to `bytes`.
fn mutate(rng: &mut SplitMix64, bytes: &mut Vec<u8>) {
    let at = below(rng, bytes.len() + 1);
    match rng.next_below(6) {
        0 => bytes.truncate(at),
        1 => {
            if at < bytes.len() {
                bytes[at] = rng.next_below(256) as u8;
            }
        }
        2 => {
            let donor = SEEDS[below(rng, SEEDS.len())].as_bytes();
            let from = below(rng, donor.len());
            let to = from + below(rng, donor.len() - from + 1);
            bytes.splice(at..at, donor[from..to].iter().copied());
        }
        3 => {
            let end = (at + below(rng, 16)).min(bytes.len());
            bytes.drain(at..end);
        }
        _ => {
            let run = RUNS[below(rng, RUNS.len())].repeat(1 + below(rng, 100));
            bytes.splice(at..at, run.bytes());
        }
    }
}

/// A seed whose `id` is a string literal of about [`LONG_BYTES`] bytes:
/// plain ASCII, multi-byte characters and escapes.
fn long_seed(rng: &mut SplitMix64) -> Vec<u8> {
    let pieces = ["abcdefgh", "é√", "\u{1f600}", "\\n", "\\u00e9", "\\\""];
    let mut id = String::with_capacity(LONG_BYTES + 8);
    while id.len() < LONG_BYTES {
        id.push_str(pieces[below(rng, pieces.len())]);
    }
    format!(r#"{{"kind":"sweep","id":"{id}","nodes":[2,4]}}"#).into_bytes()
}

#[test]
fn mutated_request_lines_are_errors_not_panics_or_stalls() {
    let mut rng = SplitMix64::new(0x5eed_f022);
    let start = Instant::now();
    let (mut requests, mut documents) = (0u64, 0u64);
    for case in 0..CASES {
        let mut bytes = if case % LONG_EVERY == 0 {
            long_seed(&mut rng)
        } else {
            SEEDS[below(&mut rng, SEEDS.len())].as_bytes().to_vec()
        };
        for _ in 0..1 + rng.next_below(4) {
            mutate(&mut rng, &mut bytes);
        }
        // The parsers take `&str`: invalid UTF-8 left by flipped or cut
        // bytes becomes U+FFFD, one more multi-byte character.
        let line = String::from_utf8_lossy(&bytes);
        let doc = json::parse(&line);
        let request = Request::parse(&line);
        assert!(
            doc.is_ok() || request.is_err(),
            "case {case}: a request parsed from a line that is not JSON"
        );
        documents += u64::from(doc.is_ok());
        requests += u64::from(request.is_ok());
        assert!(
            start.elapsed() < BUDGET,
            "case {case} of {CASES} ran past {BUDGET:?}: a long line stalls the parser"
        );
    }
    // The mutations must leave both outcomes common, or the cases test
    // only one branch of the parser.
    assert!(documents > CASES / 20, "{documents} of {CASES} parsed");
    assert!(requests > CASES / 50, "{requests} of {CASES} were requests");
    assert!(
        documents < CASES - CASES / 20,
        "{documents} of {CASES} parsed"
    );
}
