//! Text rendering of experiment results in the shape of the paper's
//! figures and tables, machine-readable JSON for the perf trajectory
//! (`--out FILE`, conventionally `BENCH_*.json`), and the sweep renderers
//! (JSON, CSV, and axis-by-axis markdown tables over a
//! [`SweepResult`]).

use crate::json;
use crate::runner::ExperimentResult;
use crate::sweep::{Axis, Metric, SweepResult};
use dsm_core::SimResult;
use std::io;
use std::path::Path;

/// Rows of (workload, normalized execution time per system) suitable for a
/// bar chart like Figures 5-8.
pub fn normalized_rows(result: &ExperimentResult) -> Vec<(String, Vec<f64>)> {
    result
        .per_workload
        .iter()
        .map(|w| {
            let values = (0..result.system_names.len())
                .map(|i| w.normalized(i))
                .collect();
            (w.workload.clone(), values)
        })
        .collect()
}

/// Format a normalized-execution-time table (one row per workload, one
/// column per system), plus a mean row — the textual equivalent of the
/// paper's bar charts.
pub fn format_normalized_table(result: &ExperimentResult) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n", result.experiment));
    out.push_str("# normalized execution time (perfect CC-NUMA = 1.00)\n");
    out.push_str(&format!("{:<12}", "benchmark"));
    for name in &result.system_names {
        out.push_str(&format!(" {:>18}", name));
    }
    out.push('\n');
    for (workload, values) in normalized_rows(result) {
        out.push_str(&format!("{workload:<12}"));
        for v in values {
            out.push_str(&format!(" {v:>18.2}"));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<12}", "mean"));
    for i in 0..result.system_names.len() {
        out.push_str(&format!(" {:>18.2}", result.mean_normalized(i)));
    }
    out.push('\n');
    out
}

/// Format the Table 4 analogue: per-node page operations and misses for
/// CC-NUMA, CC-NUMA+MigRep and R-NUMA.
///
/// Expects the experiment produced by [`crate::presets::table4`] (systems
/// CC-NUMA, MigRep, R-NUMA in that order).
pub fn format_table4(result: &ExperimentResult) -> String {
    let migrep = result
        .system_index("MigRep")
        .expect("table4 preset includes MigRep");
    let ccnuma = result
        .system_index("CC-NUMA")
        .expect("table4 preset includes CC-NUMA");
    let rnuma = result
        .system_index("R-NUMA")
        .expect("table4 preset includes R-NUMA");

    let mut out = String::new();
    out.push_str("# Table 4: per-node page operations and remote misses\n");
    out.push_str(&format!(
        "{:<12} {:>10} {:>12} {:>12} | {:>22} {:>22} {:>22}\n",
        "benchmark",
        "migrations",
        "replications",
        "relocations",
        "CC-NUMA misses(cap)",
        "MigRep misses(cap)",
        "R-NUMA misses(cap)"
    ));
    for w in &result.per_workload {
        let mig = w.results[migrep].per_node_migrations();
        let rep = w.results[migrep].per_node_replications();
        let reloc = w.results[rnuma].per_node_relocations();
        let fmt_misses = |i: usize| {
            format!(
                "{:.1}k ({:.1}k)",
                w.results[i].per_node_remote_misses() / 1_000.0,
                w.results[i].per_node_remote_capacity_misses() / 1_000.0
            )
        };
        out.push_str(&format!(
            "{:<12} {:>10.0} {:>12.0} {:>12.0} | {:>22} {:>22} {:>22}\n",
            w.workload,
            mig,
            rep,
            reloc,
            fmt_misses(ccnuma),
            fmt_misses(migrep),
            fmt_misses(rnuma),
        ));
    }
    out
}

/// Format Table 2: the workload catalog with paper and reduced inputs.
pub fn format_table2() -> String {
    let mut out = String::new();
    out.push_str("# Table 2: applications and input parameters\n");
    out.push_str(&format!(
        "{:<10} {:<42} {:<28} {}\n",
        "name", "problem", "paper input", "reduced input"
    ));
    for w in splash_workloads::catalog() {
        out.push_str(&format!(
            "{:<10} {:<42} {:<28} {}\n",
            w.name(),
            w.description(),
            w.paper_input(),
            w.reduced_input()
        ));
    }
    out
}

/// Format Table 3: the cost model, base and slow variants.
pub fn format_table3() -> String {
    use dsm_core::CostModel;
    let b = CostModel::base();
    let s = CostModel::slow();
    let mut out = String::new();
    out.push_str("# Table 3: system cost assumptions (processor cycles)\n");
    out.push_str(&format!(
        "{:<44} {:>10} {:>10}\n",
        "operation", "base", "slow"
    ));
    let mut row = |name: &str, base: u64, slow: u64| {
        out.push_str(&format!("{name:<44} {base:>10} {slow:>10}\n"));
    };
    row(
        "network latency",
        b.network_latency.raw(),
        s.network_latency.raw(),
    );
    row("local miss latency", b.local_miss.raw(), s.local_miss.raw());
    row(
        "round-trip remote miss latency",
        b.remote_miss.raw(),
        s.remote_miss.raw(),
    );
    row("soft trap", b.soft_trap.raw(), s.soft_trap.raw());
    row(
        "TLB shootdown",
        b.tlb_shootdown.raw(),
        s.tlb_shootdown.raw(),
    );
    row(
        "page allocation/replacement/relocation (min)",
        b.page_alloc_min.raw(),
        s.page_alloc_min.raw(),
    );
    row(
        "page allocation/replacement/relocation (max)",
        b.page_alloc_max.raw(),
        s.page_alloc_max.raw(),
    );
    row(
        "page invalidation and data gathering (min)",
        b.page_gather_min.raw(),
        s.page_gather_min.raw(),
    );
    row(
        "page invalidation and data gathering (max)",
        b.page_gather_max.raw(),
        s.page_gather_max.raw(),
    );
    row(
        "page copying (min)",
        b.page_copy_min.raw(),
        s.page_copy_min.raw(),
    );
    row(
        "page copying (max)",
        b.page_copy_max.raw(),
        s.page_copy_max.raw(),
    );
    out
}

/// Render results as CSV (one line per workload x system) for plotting.
pub fn to_csv(result: &ExperimentResult) -> String {
    let mut out = String::from("workload,system,normalized_time,remote_misses_per_node,capacity_misses_per_node,migrations,replications,relocations\n");
    for w in &result.per_workload {
        for (i, name) in result.system_names.iter().enumerate() {
            let r = &w.results[i];
            out.push_str(&format!(
                "{},{},{:.4},{:.1},{:.1},{:.1},{:.1},{:.1}\n",
                w.workload,
                name,
                w.normalized(i),
                r.per_node_remote_misses(),
                r.per_node_remote_capacity_misses(),
                r.per_node_migrations(),
                r.per_node_replications(),
                r.per_node_relocations(),
            ));
        }
    }
    out
}

fn sim_result_json(r: &SimResult, baseline: Option<&SimResult>, elapsed_seconds: f64) -> String {
    let normalized = baseline
        .map(|b| format!(",\"normalized_time\":{:.6}", r.normalized_against(b)))
        .unwrap_or_default();
    format!(
        concat!(
            "{{\"system\":\"{}\",\"execution_time\":{},\"accesses\":{},\"barriers\":{},",
            "\"remote_misses\":{},\"remote_capacity_misses\":{},",
            "\"migrations_per_node\":{:.1},\"replications_per_node\":{:.1},",
            "\"relocations_per_node\":{:.1},\"page_cache_replacements\":{},",
            "\"network_messages\":{},\"network_bytes\":{},",
            "\"elapsed_seconds\":{:.6}{}}}"
        ),
        json::escape(&r.system),
        r.execution_time.raw(),
        r.accesses,
        r.barriers,
        r.total_remote_misses(),
        r.total_remote_capacity_misses(),
        r.per_node_migrations(),
        r.per_node_replications(),
        r.per_node_relocations(),
        r.total_page_cache_replacements(),
        r.traffic.total_messages(),
        r.traffic.total_bytes(),
        elapsed_seconds,
        normalized,
    )
}

/// Render one experiment result as a JSON object (systems, per-workload
/// baseline and per-system metrics, normalized execution times).
pub fn to_json(result: &ExperimentResult) -> String {
    let systems = result
        .system_names
        .iter()
        .map(|n| format!("\"{}\"", json::escape(n)))
        .collect::<Vec<_>>()
        .join(",");
    let workloads = result
        .per_workload
        .iter()
        .map(|w| {
            let rows = w
                .results
                .iter()
                .zip(&w.elapsed_seconds)
                .map(|(r, elapsed)| sim_result_json(r, Some(&w.baseline), *elapsed))
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"workload\":\"{}\",\"baseline\":{},\"results\":[{}]}}",
                json::escape(&w.workload),
                sim_result_json(&w.baseline, None, w.baseline_elapsed_seconds),
                rows
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let means = (0..result.system_names.len())
        .map(|i| format!("{:.6}", result.mean_normalized(i)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        concat!(
            "{{\"experiment\":\"{}\",\"systems\":[{}],",
            "\"mean_normalized_time\":[{}],\"workloads\":[{}]}}"
        ),
        json::escape(&result.experiment),
        systems,
        means,
        workloads
    )
}

/// Write one experiment result as a JSON object to `path`.
pub fn write_json(path: &Path, result: &ExperimentResult) -> io::Result<()> {
    std::fs::write(path, to_json(result) + "\n")
}

/// Write several experiment results as a JSON array to `path` (used by
/// `allexps --out`).
pub fn write_json_all(path: &Path, results: &[ExperimentResult]) -> io::Result<()> {
    let body = results.iter().map(to_json).collect::<Vec<_>>().join(",");
    std::fs::write(path, format!("[{body}]\n"))
}

// ---------------------------------------------------------------------
// Sweep renderers
// ---------------------------------------------------------------------

/// Quote a CSV field if it contains a delimiter, quote or newline
/// (user-supplied axis labels and system names are free-form).
fn csv_field(value: &str) -> String {
    if value.contains([',', '"', '\n']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

/// Render a sweep as CSV: one row per point, every axis as a column, the
/// scalar metrics, the per-kind traffic breakdown, and the point's content
/// address + result fingerprint (joinable with the sweep service's cache
/// file and `cache-stats` output).
pub fn sweep_to_csv(result: &SweepResult) -> String {
    let mut out = String::new();
    for axis in Axis::ALL {
        out.push_str(axis.name());
        out.push(',');
    }
    out.push_str(
        "normalized_time,execution_time,accesses,remote_misses_per_node,\
         migrations_per_node,replications_per_node,relocations_per_node,\
         network_messages,network_bytes,bytes_per_access,cache_key,fingerprint\n",
    );
    for p in &result.points {
        let m = p.metrics();
        for axis in Axis::ALL {
            out.push_str(&csv_field(&p.axes.value(axis)));
            out.push(',');
        }
        out.push_str(&format!(
            "{:.4},{},{},{:.1},{:.1},{:.1},{:.1},{},{},{:.2},{},{:#018x}\n",
            m.normalized_time,
            m.execution_time,
            m.accesses,
            m.remote_misses_per_node,
            m.migrations_per_node,
            m.replications_per_node,
            m.relocations_per_node,
            m.network_messages,
            m.network_bytes,
            m.get(Metric::BytesPerAccess),
            p.cache_key,
            p.result.fingerprint(),
        ));
    }
    out
}

/// Render a sweep as a per-point listing: one row per point with its full
/// axis address, normalized time, content address and result fingerprint —
/// the human-readable companion of [`sweep_to_csv`] for joining offline
/// runs against a sweep server's cache.
pub fn format_sweep_points(result: &SweepResult) -> String {
    let mut out = format!(
        "# {} — per-point cache keys (baseline: {})\n{:<44} {:>10} {:>6} {:>32} {:>18}\n",
        result.name,
        result.baseline_system,
        "point",
        "norm.time",
        "cached",
        "cache_key",
        "fingerprint"
    );
    for p in &result.points {
        let address = format!(
            "{}/{} n{}x{} pg{} bl{} {}",
            p.axes.workload,
            p.axes.system,
            p.axes.nodes,
            p.axes.procs_per_node,
            p.axes.page_bytes,
            p.axes.block_bytes,
            p.axes.scale,
        );
        out.push_str(&format!(
            "{:<44} {:>10.2} {:>6} {:>32} {:#018x}\n",
            address,
            p.normalized_time,
            if p.cached { "yes" } else { "no" },
            p.cache_key,
            p.result.fingerprint(),
        ));
    }
    out
}

/// Render a sweep as a column-aligned markdown table: one row per `rows`
/// axis value, one column per `cols` axis value, each cell the mean of
/// `metric` over the points in that (row, col) group.
pub fn format_sweep_table(result: &SweepResult, rows: Axis, cols: Axis, metric: Metric) -> String {
    let row_values = result.axis_values(rows);
    let col_values = result.axis_values(cols);
    // One pass over the points, accumulating (sum, n) per cell — not a
    // rescan (with a fresh MetricSet) per (row, col) pair.  BTreeMap, not
    // HashMap: this table flows into service responses, and the ordered
    // map keeps the whole path free of iteration-order nondeterminism.
    let mut cells: std::collections::BTreeMap<(String, String), (f64, u64)> =
        std::collections::BTreeMap::new();
    for p in &result.points {
        let slot = cells
            .entry((p.axes.value(rows), p.axes.value(cols)))
            .or_insert((0.0, 0));
        slot.0 += p.metrics().get(metric);
        slot.1 += 1;
    }
    let cell = |rv: &str, cv: &str| -> String {
        match cells.get(&(rv.to_string(), cv.to_string())) {
            Some((sum, n)) if *n > 0 => format!("{:.2}", sum / *n as f64),
            _ => "-".to_string(),
        }
    };

    let header: Vec<String> = std::iter::once(format!("{}\\{}", rows.name(), cols.name()))
        .chain(col_values.iter().cloned())
        .collect();
    let mut table: Vec<Vec<String>> = vec![header];
    for rv in &row_values {
        table.push(
            std::iter::once(rv.clone())
                .chain(col_values.iter().map(|cv| cell(rv, cv)))
                .collect(),
        );
    }
    // Column-aligned markdown.
    let widths: Vec<usize> = (0..table[0].len())
        .map(|c| table.iter().map(|row| row[c].len()).max().unwrap_or(1))
        .collect();
    let mut out = format!(
        "# {} — {} by {} x {} (baseline: {})\n",
        result.name,
        metric.name(),
        rows.name(),
        cols.name(),
        result.baseline_system
    );
    for (i, row) in table.iter().enumerate() {
        out.push('|');
        for (c, cellv) in row.iter().enumerate() {
            out.push_str(&format!(" {:>w$} |", cellv, w = widths[c]));
        }
        out.push('\n');
        if i == 0 {
            out.push('|');
            for w in &widths {
                out.push_str(&format!("{}|", "-".repeat(w + 2)));
            }
            out.push('\n');
        }
    }
    out
}

/// Render a sweep as one JSON object: the axes, every point with its
/// metric set, traffic breakdown, content address and result fingerprint,
/// and the baseline runs.
pub fn sweep_to_json(result: &SweepResult) -> String {
    let point_json = |axes: &crate::sweep::AxisValues,
                      r: &SimResult,
                      normalized: Option<f64>,
                      elapsed: f64,
                      cache_key: crate::cache_key::CacheKey,
                      cached: bool| {
        let axes_fields = Axis::ALL
            .iter()
            .map(|a| format!("\"{}\":\"{}\"", a.name(), json::escape(&axes.value(*a))))
            .collect::<Vec<_>>()
            .join(",");
        let m = crate::sweep::MetricSet::of(r, normalized.unwrap_or(1.0));
        let traffic = m
            .traffic
            .iter()
            .map(|(kind, msgs, bytes)| {
                format!("{{\"kind\":\"{kind}\",\"messages\":{msgs},\"bytes\":{bytes}}}")
            })
            .collect::<Vec<_>>()
            .join(",");
        let normalized = normalized
            .map(|n| format!("\"normalized_time\":{n:.6},"))
            .unwrap_or_default();
        format!(
            concat!(
                "{{{axes},{norm}\"execution_time\":{},\"accesses\":{},",
                "\"remote_misses_per_node\":{:.1},\"migrations_per_node\":{:.1},",
                "\"replications_per_node\":{:.1},\"relocations_per_node\":{:.1},",
                "\"network_messages\":{},\"network_bytes\":{},",
                "\"elapsed_seconds\":{:.6},",
                "\"cache_key\":\"{key}\",\"fingerprint\":\"{fp:#018x}\",",
                "\"cached\":{cached},\"traffic\":[{traffic}]}}"
            ),
            m.execution_time,
            m.accesses,
            m.remote_misses_per_node,
            m.migrations_per_node,
            m.replications_per_node,
            m.relocations_per_node,
            m.network_messages,
            m.network_bytes,
            elapsed,
            axes = axes_fields,
            norm = normalized,
            key = cache_key,
            fp = r.fingerprint(),
            cached = cached,
            traffic = traffic,
        )
    };
    let points = result
        .points
        .iter()
        .map(|p| {
            point_json(
                &p.axes,
                &p.result,
                Some(p.normalized_time),
                p.elapsed_seconds,
                p.cache_key,
                p.cached,
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let baselines = result
        .baselines
        .iter()
        .map(|b| {
            point_json(
                &b.axes,
                &b.result,
                None,
                b.elapsed_seconds,
                b.cache_key,
                b.cached,
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        concat!(
            "{{\"sweep\":\"{}\",\"baseline_system\":\"{}\",",
            "\"points\":[{}],\"baselines\":[{}]}}"
        ),
        json::escape(&result.name),
        json::escape(&result.baseline_system),
        points,
        baselines
    )
}

/// Write a sweep result as JSON to `path`.
pub fn write_sweep_json(path: &Path, result: &SweepResult) -> io::Result<()> {
    std::fs::write(path, sweep_to_json(result) + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::presets::{table4, ExperimentScale};
    use crate::sweep::Sweep;
    use dsm_core::{MachineConfig, System};

    fn small_result() -> ExperimentResult {
        Experiment::new(MachineConfig::PAPER)
            .systems(table4(ExperimentScale::Reduced))
            .workloads(["ocean"])
            .threads(4)
            .run()
    }

    #[test]
    fn tables_render_every_workload_and_system() {
        let result = small_result();
        let table = format_normalized_table(&result);
        assert!(table.contains("ocean"));
        assert!(table.contains("CC-NUMA"));
        assert!(table.contains("R-NUMA"));
        assert!(table.contains("mean"));

        let t4 = format_table4(&result);
        assert!(t4.contains("ocean"));
        assert!(t4.contains("migrations"));

        let csv = to_csv(&result);
        assert_eq!(csv.lines().count(), 1 + result.system_names.len());
        assert!(csv.starts_with("workload,system"));
    }

    #[test]
    fn json_output_covers_workloads_and_systems() {
        let result = small_result();
        let json = to_json(&result);
        assert!(json.contains("\"experiment\""));
        assert!(json.contains("\"workload\":\"ocean\""));
        assert!(json.contains("\"system\":\"R-NUMA\""));
        assert!(json.contains("\"normalized_time\""));
        assert!(json.contains("\"execution_time\""));
        assert!(json.contains("\"elapsed_seconds\""));
        let doc = crate::json::parse(&json).expect("report JSON parses");
        assert_eq!(doc.get_str("experiment"), Some(result.experiment.as_str()));

        let path = std::env::temp_dir().join("dsm-repro-report-test.json");
        write_json(&path, &result).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap().trim(), json);
        write_json_all(&path, &[result.clone(), result]).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().starts_with('['));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn normalized_rows_match_table_dimensions() {
        let result = small_result();
        let rows = normalized_rows(&result);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.len(), result.system_names.len());
    }

    fn small_sweep() -> SweepResult {
        Sweep::new("report sweep")
            .page_bytes([2048, 4096])
            .block_bytes([64, 128])
            .system(System::cc_numa().build())
            .workloads(["ocean"])
            .threads(8)
            .run()
    }

    #[test]
    fn sweep_csv_has_axis_columns_and_one_row_per_point() {
        let result = small_sweep();
        let csv = sweep_to_csv(&result);
        assert_eq!(csv.lines().count(), 1 + result.points.len());
        let header = csv.lines().next().unwrap();
        for axis in Axis::ALL {
            assert!(header.contains(axis.name()), "missing column {axis:?}");
        }
        assert!(header.contains("bytes_per_access"));
    }

    #[test]
    fn csv_fields_with_delimiters_are_quoted() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("slow, far"), "\"slow, far\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        // A sweep whose cost label contains a comma keeps its column count.
        let result = Sweep::new("escape")
            .cost("base, v2", dsm_core::CostModel::base())
            .system(System::cc_numa().build())
            .workloads(["ocean"])
            .threads(2)
            .run();
        let csv = sweep_to_csv(&result);
        let header_cols = csv.lines().next().unwrap().split(',').count();
        let row = csv.lines().nth(1).unwrap();
        assert!(row.contains("\"base, v2\""), "{row}");
        // Naive splitting sees one extra comma — inside quotes — so the
        // quoted field is the only divergence from the header count.
        assert_eq!(row.split(',').count(), header_cols + 1);
    }

    #[test]
    fn sweep_table_pivots_rows_by_cols() {
        let result = small_sweep();
        let table = format_sweep_table(
            &result,
            Axis::PageBytes,
            Axis::BlockBytes,
            Metric::NormalizedTime,
        );
        // Header row + separator + one row per page size.
        assert_eq!(table.lines().count(), 1 + 2 + 2, "{table}");
        assert!(table.contains("2048"));
        assert!(table.contains("4096"));
        assert!(table.contains("64"));
        assert!(table.contains("128"));
        // Every data line has the full column count.
        for line in table.lines().skip(1) {
            assert_eq!(line.matches('|').count(), 4, "{line}");
        }
    }

    #[test]
    fn sweep_reports_carry_cache_keys_and_fingerprints() {
        let result = small_sweep();
        let key = result.points[0].cache_key.to_hex();
        let fp = format!("{:#018x}", result.points[0].result.fingerprint());

        let csv = sweep_to_csv(&result);
        let header = csv.lines().next().unwrap();
        assert!(header.ends_with("cache_key,fingerprint"), "{header}");
        let row = csv.lines().nth(1).unwrap();
        assert!(row.contains(&key), "{row}");
        assert!(row.contains(&fp), "{row}");

        let json = sweep_to_json(&result);
        assert!(json.contains(&format!("\"cache_key\":\"{key}\"")));
        assert!(json.contains(&format!("\"fingerprint\":\"{fp}\"")));
        assert!(json.contains("\"cached\":false"));
        // Baselines carry their keys too.
        assert_eq!(
            json.matches("\"cache_key\"").count(),
            result.points.len() + result.baselines.len()
        );

        let listing = format_sweep_points(&result);
        assert!(listing.contains(&key));
        assert!(listing.contains(&fp));
        assert_eq!(listing.lines().count(), 2 + result.points.len());
        // Distinct configurations, distinct addresses.
        let keys: std::collections::BTreeSet<_> =
            result.points.iter().map(|p| p.cache_key).collect();
        assert_eq!(keys.len(), result.points.len());
    }

    #[test]
    fn sweep_json_is_balanced_and_covers_every_point() {
        let result = small_sweep();
        let json = sweep_to_json(&result);
        assert!(json.contains("\"sweep\":\"report sweep\""));
        assert!(json.contains("\"baseline_system\""));
        assert!(json.contains("\"page_bytes\":\"2048\""));
        assert!(json.contains("\"traffic\""));
        assert!(json.contains("\"page_data_block\""));
        crate::json::parse(&json).expect("sweep JSON parses");
        assert_eq!(
            json.matches("\"normalized_time\"").count(),
            result.points.len()
        );

        let path = std::env::temp_dir().join("dsm-repro-sweep-report-test.json");
        write_sweep_json(&path, &result).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap().trim(), json);
        std::fs::remove_file(&path).ok();
    }
}
