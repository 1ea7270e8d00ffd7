//! The JSON-lines wire protocol: request parsing and response rendering.
//!
//! One request per line in, one response object per line out.  A `sweep`
//! (or `report`) request streams one `baseline`/`point` object per
//! completed job before its terminal object; every other request answers
//! with a single terminal object.  Terminal kinds are `sweep-done`,
//! `report`, `trend`, `cache-stats`, `ok` and `error` — a client reads
//! until it sees one.  Every response carries the request's `id` (empty
//! string if the request had none) so clients can multiplex.
//!
//! See the repository README ("Sweep service") for the full field tables.

use crate::cache::CacheStats;
use crate::json::{escape, parse, Value};
use dsm_bench::SweepEvent;

/// A parsed, not-yet-resolved request.  Name-shaped fields (systems, costs,
/// scales, workloads) stay strings here; resolution against the catalog
/// happens in the service so unknown names become `error` responses, not
/// parse failures.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a sweep, streaming per-job results.
    Sweep {
        /// Client-chosen correlation id.
        id: String,
        /// The parameter space to run.
        spec: SweepSpec,
    },
    /// Run a sweep and render report artifacts (pivot table, per-point
    /// listing, CSV) in the terminal response.
    Report {
        /// Client-chosen correlation id.
        id: String,
        /// The parameter space to run.
        spec: SweepSpec,
        /// Pivot row axis (an [`dsm_bench::Axis::name`]).
        rows: String,
        /// Pivot column axis.
        cols: String,
        /// Pivot cell metric (a [`dsm_bench::Metric::name`]).
        metric: String,
    },
    /// Render the perf trend table from `BENCH_*.json` files in `dir`.
    Trend {
        /// Client-chosen correlation id.
        id: String,
        /// Directory to scan (default `"."`).
        dir: String,
    },
    /// Report cache entry/hit/miss counters.
    CacheStats {
        /// Client-chosen correlation id.
        id: String,
    },
    /// Stop the server after acknowledging.
    Shutdown {
        /// Client-chosen correlation id.
        id: String,
    },
}

/// The sweep-shaped fields shared by `sweep` and `report` requests.  Empty
/// vectors mean "axis not swept" (the engine's defaults apply).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepSpec {
    /// Display name of the sweep.
    pub name: String,
    /// Workload names (default: all seven Table 2 workloads).
    pub workloads: Option<Vec<String>>,
    /// Compared-system catalog names (default: `cc-numa`, `migrep`,
    /// `r-numa`).
    pub systems: Vec<String>,
    /// Baseline catalog name (default `perfect-cc-numa`).
    pub baseline: Option<String>,
    /// Scale labels (default `["reduced"]`).
    pub scales: Vec<String>,
    /// Cluster-node axis.
    pub nodes: Vec<u16>,
    /// Processors-per-node axis.
    pub procs_per_node: Vec<u16>,
    /// Page-size axis (bytes).
    pub page_bytes: Vec<u64>,
    /// Block-size axis (bytes).
    pub block_bytes: Vec<u64>,
    /// Cost-model axis (catalog names).
    pub costs: Vec<String>,
    /// R-NUMA relocation-delay axis.
    pub relocation_delays: Vec<u64>,
    /// Worker threads (default: the server's configured count).
    pub threads: Option<usize>,
}

impl Request {
    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = parse(line)?;
        let id = v.get_str("id").unwrap_or("").to_string();
        match v.get_str("kind") {
            Some("sweep") => Ok(Request::Sweep {
                id,
                spec: SweepSpec::from_value(&v)?,
            }),
            Some("report") => Ok(Request::Report {
                id,
                spec: SweepSpec::from_value(&v)?,
                rows: v.get_str("rows").unwrap_or("system").to_string(),
                cols: v.get_str("cols").unwrap_or("workload").to_string(),
                metric: v.get_str("metric").unwrap_or("normalized_time").to_string(),
            }),
            Some("trend") => Ok(Request::Trend {
                id,
                dir: v.get_str("dir").unwrap_or(".").to_string(),
            }),
            Some("cache-stats") => Ok(Request::CacheStats { id }),
            Some("shutdown") => Ok(Request::Shutdown { id }),
            Some(other) => Err(format!(
                "unknown request kind `{other}` \
                 (known: sweep, report, trend, cache-stats, shutdown)"
            )),
            None => Err("request needs a string `kind` field".to_string()),
        }
    }

    /// The request's correlation id.
    pub fn id(&self) -> &str {
        match self {
            Request::Sweep { id, .. }
            | Request::Report { id, .. }
            | Request::Trend { id, .. }
            | Request::CacheStats { id }
            | Request::Shutdown { id } => id,
        }
    }
}

impl SweepSpec {
    fn from_value(v: &Value) -> Result<SweepSpec, String> {
        let u16_list = |key: &str| -> Result<Vec<u16>, String> {
            v.get_u64_list(key)?
                .unwrap_or_default()
                .into_iter()
                .map(|n| u16::try_from(n).map_err(|_| format!("`{key}` value {n} is out of range")))
                .collect()
        };
        let mut scales = v.get_str_list("scales")?.unwrap_or_default();
        if let Some(one) = v.get_str("scale") {
            scales.insert(0, one.to_string());
        }
        Ok(SweepSpec {
            name: v.get_str("name").unwrap_or("service sweep").to_string(),
            workloads: v.get_str_list("workloads")?,
            systems: v.get_str_list("systems")?.unwrap_or_else(|| {
                vec![
                    "cc-numa".to_string(),
                    "migrep".to_string(),
                    "r-numa".to_string(),
                ]
            }),
            baseline: v.get_str("baseline").map(str::to_string),
            scales,
            nodes: u16_list("nodes")?,
            procs_per_node: u16_list("procs_per_node")?,
            page_bytes: v.get_u64_list("page_bytes")?.unwrap_or_default(),
            block_bytes: v.get_u64_list("block_bytes")?.unwrap_or_default(),
            costs: v.get_str_list("costs")?.unwrap_or_default(),
            relocation_delays: v.get_u64_list("relocation_delays")?.unwrap_or_default(),
            threads: v.get_u64("threads").map(|n| n as usize),
        })
    }
}

/// Render an `error` response.
pub fn error_line(id: &str, message: &str) -> String {
    format!(
        r#"{{"kind":"error","id":"{}","message":"{}"}}"#,
        escape(id),
        escape(message)
    )
}

/// Render the `ok` acknowledgement (shutdown).
pub fn ok_line(id: &str) -> String {
    format!(r#"{{"kind":"ok","id":"{}"}}"#, escape(id))
}

/// Render one streamed job completion (`baseline` or `point`).
pub fn event_line(id: &str, event: &SweepEvent<'_>) -> String {
    let (kind, index, point, normalized, elapsed) = match event {
        SweepEvent::Baseline {
            index,
            point,
            elapsed_seconds,
            ..
        } => ("baseline", *index, *point, None, *elapsed_seconds),
        SweepEvent::Point {
            index,
            point,
            normalized_time,
            elapsed_seconds,
            ..
        } => (
            "point",
            *index,
            *point,
            Some(*normalized_time),
            *elapsed_seconds,
        ),
    };
    let result = event.result();
    let a = &point.axes;
    let normalized = normalized
        .map(|n| format!("{n:.6}"))
        .unwrap_or_else(|| "null".to_string());
    format!(
        concat!(
            r#"{{"kind":"{kind}","id":"{id}","index":{index},"cached":{cached},"#,
            r#""cache_key":"{key}","fingerprint":"{fp:#018x}","#,
            r#""workload":"{workload}","system":"{system}","#,
            r#""nodes":{nodes},"procs_per_node":{ppn},"page_bytes":{page},"#,
            r#""block_bytes":{block},"cost":"{cost}","scale":"{scale}","#,
            r#""normalized_time":{normalized},"execution_time":{exec},"#,
            r#""accesses":{accesses},"elapsed_seconds":{elapsed:.6}}}"#
        ),
        kind = kind,
        id = escape(id),
        index = index,
        cached = event.cached(),
        key = event.cache_key(),
        fp = result.fingerprint(),
        workload = escape(&a.workload),
        system = escape(&a.system),
        nodes = a.nodes,
        ppn = a.procs_per_node,
        page = a.page_bytes,
        block = a.block_bytes,
        cost = escape(&a.cost),
        scale = escape(&a.scale),
        normalized = normalized,
        exec = result.execution_time.raw(),
        accesses = result.accesses,
        elapsed = elapsed,
    )
}

/// Per-request job accounting for the terminal `sweep-done` object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepCounts {
    /// Compared points completed.
    pub points: usize,
    /// Baseline jobs completed.
    pub baselines: usize,
    /// Jobs served from the cache.
    pub cached: usize,
    /// Jobs that actually simulated.
    pub simulated: usize,
}

/// Render the terminal `sweep-done` response.
pub fn sweep_done_line(id: &str, name: &str, counts: SweepCounts, elapsed_seconds: f64) -> String {
    format!(
        concat!(
            r#"{{"kind":"sweep-done","id":"{}","name":"{}","points":{},"baselines":{},"#,
            r#""cached":{},"simulated":{},"elapsed_seconds":{:.6}}}"#
        ),
        escape(id),
        escape(name),
        counts.points,
        counts.baselines,
        counts.cached,
        counts.simulated,
        elapsed_seconds,
    )
}

/// Render the terminal `report` response (table/listing/csv are the
/// rendered artifacts of `dsm_bench::report`).
pub fn report_line(id: &str, table: &str, listing: &str, csv: &str) -> String {
    format!(
        r#"{{"kind":"report","id":"{}","table":"{}","listing":"{}","csv":"{}"}}"#,
        escape(id),
        escape(table),
        escape(listing),
        escape(csv)
    )
}

/// Render the terminal `trend` response.
pub fn trend_line(id: &str, dir: &str, entries: usize, text: &str) -> String {
    format!(
        r#"{{"kind":"trend","id":"{}","dir":"{}","entries":{},"text":"{}"}}"#,
        escape(id),
        escape(dir),
        entries,
        escape(text)
    )
}

/// Render the terminal `cache-stats` response.
pub fn cache_stats_line(id: &str, stats: &CacheStats) -> String {
    let path = match &stats.path {
        Some(p) => format!("\"{}\"", escape(&p.display().to_string())),
        None => "null".to_string(),
    };
    format!(
        r#"{{"kind":"cache-stats","id":"{}","entries":{},"hits":{},"misses":{},"path":{}}}"#,
        escape(id),
        stats.entries,
        stats.hits,
        stats.misses,
        path
    )
}

/// `true` if a response line of this kind ends a request's stream.
pub fn is_terminal_kind(kind: &str) -> bool {
    matches!(
        kind,
        "sweep-done" | "report" | "trend" | "cache-stats" | "ok" | "error"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_requests_parse_with_defaults_and_overrides() {
        let r = Request::parse(r#"{"kind":"sweep","id":"s1"}"#).unwrap();
        let Request::Sweep { id, spec } = r else {
            panic!("expected sweep")
        };
        assert_eq!(id, "s1");
        assert_eq!(spec.systems, vec!["cc-numa", "migrep", "r-numa"]);
        assert_eq!(spec.workloads, None);
        assert_eq!(spec.baseline, None);
        assert!(spec.scales.is_empty());
        assert_eq!(spec.threads, None);

        // Unknown keys, such as the removed `"workers"`, are ignored.
        let r = Request::parse(
            r#"{"kind":"sweep","id":"s2","name":"grid","workloads":["lu"],
                "systems":["cc-numa"],"baseline":"perfect-cc-numa","scale":"x1/32",
                "nodes":[2,4],"procs_per_node":[2],"page_bytes":[2048,4096],
                "block_bytes":[64],"costs":["base","slow"],
                "relocation_delays":[0,2000],"threads":4,"workers":2}"#,
        )
        .unwrap();
        let Request::Sweep { spec, .. } = r else {
            panic!("expected sweep")
        };
        assert_eq!(spec.name, "grid");
        assert_eq!(spec.workloads.as_deref(), Some(&["lu".to_string()][..]));
        assert_eq!(spec.scales, vec!["x1/32"]);
        assert_eq!(spec.nodes, vec![2, 4]);
        assert_eq!(spec.page_bytes, vec![2048, 4096]);
        assert_eq!(spec.costs, vec!["base", "slow"]);
        assert_eq!(spec.relocation_delays, vec![0, 2000]);
        assert_eq!(spec.threads, Some(4));
    }

    #[test]
    fn other_request_kinds_parse() {
        assert_eq!(
            Request::parse(r#"{"kind":"trend","id":"t","dir":"/tmp"}"#).unwrap(),
            Request::Trend {
                id: "t".to_string(),
                dir: "/tmp".to_string()
            }
        );
        assert_eq!(
            Request::parse(r#"{"kind":"trend"}"#).unwrap(),
            Request::Trend {
                id: String::new(),
                dir: ".".to_string()
            }
        );
        assert_eq!(
            Request::parse(r#"{"kind":"cache-stats","id":"c"}"#).unwrap(),
            Request::CacheStats {
                id: "c".to_string()
            }
        );
        assert_eq!(
            Request::parse(r#"{"kind":"shutdown","id":"x"}"#).unwrap(),
            Request::Shutdown {
                id: "x".to_string()
            }
        );
        let Request::Report {
            rows, cols, metric, ..
        } = Request::parse(r#"{"kind":"report","rows":"nodes","metric":"network_bytes"}"#).unwrap()
        else {
            panic!("expected report")
        };
        assert_eq!((rows.as_str(), cols.as_str()), ("nodes", "workload"));
        assert_eq!(metric, "network_bytes");
    }

    #[test]
    fn bad_requests_are_errors() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"id":"x"}"#).is_err());
        assert!(Request::parse(r#"{"kind":"frobnicate"}"#).is_err());
        assert!(Request::parse(r#"{"kind":"sweep","nodes":[70000]}"#).is_err());
        assert!(Request::parse(r#"{"kind":"sweep","nodes":"2"}"#).is_err());
        assert!(Request::parse(r#"{"kind":"sweep","systems":[1]}"#).is_err());
    }

    #[test]
    fn response_lines_are_valid_json_with_the_request_id() {
        use crate::json::parse;
        let err = error_line("q\"1", "bad \"name\"");
        let v = parse(&err).unwrap();
        assert_eq!(v.get_str("kind"), Some("error"));
        assert_eq!(v.get_str("id"), Some("q\"1"));
        assert_eq!(v.get_str("message"), Some("bad \"name\""));

        let done = sweep_done_line(
            "s",
            "grid",
            SweepCounts {
                points: 4,
                baselines: 2,
                cached: 6,
                simulated: 0,
            },
            0.25,
        );
        let v = parse(&done).unwrap();
        assert_eq!(v.get_u64("points"), Some(4));
        assert_eq!(v.get_u64("cached"), Some(6));
        assert!(is_terminal_kind(v.get_str("kind").unwrap()));

        let stats = cache_stats_line(
            "c",
            &CacheStats {
                entries: 3,
                hits: 2,
                misses: 1,
                path: None,
            },
        );
        let v = parse(&stats).unwrap();
        assert_eq!(v.get_u64("entries"), Some(3));
        assert_eq!(v.get("path"), Some(&crate::json::Value::Null));

        assert!(is_terminal_kind("ok"));
        assert!(is_terminal_kind("report"));
        assert!(!is_terminal_kind("point"));
        assert!(!is_terminal_kind("baseline"));
    }
}
