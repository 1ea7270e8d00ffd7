//! Text rendering of sweep results: the paper's figures and tables (each
//! figure binary runs a one-point [`SweepResult`]), and the sweep
//! renderers — JSON, CSV, and axis-by-axis markdown tables — that the
//! binaries' `--out`/`--csv` flags and the sweep service write.

use crate::json;
use crate::sweep::{Axis, Metric, SweepResult};
use dsm_core::SimResult;
use std::io;
use std::path::Path;

/// Format a normalized-execution-time table (one row per workload, one
/// column per system, both in first-seen order), plus a mean row — the
/// textual equivalent of the paper's bar charts.
pub fn format_normalized_table(result: &SweepResult) -> String {
    let systems = result.axis_values(Axis::System);
    // A sweep is a cartesian product, so every (workload, system) cell has
    // a point.
    let rows: Vec<(String, Vec<f64>)> = result
        .axis_values(Axis::Workload)
        .into_iter()
        .map(|workload| {
            let values = systems
                .iter()
                .map(|system| {
                    result
                        .point(&workload, system)
                        .map_or(f64::NAN, |p| p.normalized_time)
                })
                .collect();
            (workload, values)
        })
        .collect();

    let mut out = String::new();
    out.push_str(&format!("# {}\n", result.name));
    out.push_str("# normalized execution time (perfect CC-NUMA = 1.00)\n");
    out.push_str(&format!("{:<12}", "benchmark"));
    for name in &systems {
        out.push_str(&format!(" {:>18}", name));
    }
    out.push('\n');
    for (workload, values) in &rows {
        out.push_str(&format!("{workload:<12}"));
        for v in values {
            out.push_str(&format!(" {v:>18.2}"));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<12}", "mean"));
    for i in 0..systems.len() {
        let mean = rows.iter().map(|(_, v)| v[i]).sum::<f64>() / rows.len() as f64;
        out.push_str(&format!(" {mean:>18.2}"));
    }
    out.push('\n');
    out
}

/// Format the Table 4 analogue: per-node page operations and misses for
/// CC-NUMA, CC-NUMA+MigRep and R-NUMA, one row per workload.
///
/// # Panics
/// Panics unless every workload has a point for each of the three systems
/// of [`crate::presets::table4`].
pub fn format_table4(result: &SweepResult) -> String {
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
    for workload in result.axis_values(Axis::Workload) {
        let system = |name: &str| {
            &result
                .point(&workload, name)
                .unwrap_or_else(|| panic!("table4 preset includes {name}"))
                .result
        };
        let (ccnuma, migrep, rnuma) = (system("CC-NUMA"), system("MigRep"), system("R-NUMA"));
        let fmt_misses = |r: &SimResult| {
            format!(
                "{:.1}k ({:.1}k)",
                r.per_node_remote_misses() / 1_000.0,
                r.per_node_remote_capacity_misses() / 1_000.0
            )
        };
        out.push_str(&format!(
            "{:<12} {:>10.0} {:>12.0} {:>12.0} | {:>22} {:>22} {:>22}\n",
            workload,
            migrep.per_node_migrations(),
            migrep.per_node_replications(),
            rnuma.per_node_relocations(),
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
         remote_capacity_misses_per_node,migrations_per_node,\
         replications_per_node,relocations_per_node,network_messages,\
         network_bytes,bytes_per_access,cache_key,fingerprint\n",
    );
    for p in &result.points {
        let m = p.metrics();
        for axis in Axis::ALL {
            out.push_str(&csv_field(&p.axes.value(axis)));
            out.push(',');
        }
        out.push_str(&format!(
            "{:.4},{},{},{:.1},{:.1},{:.1},{:.1},{:.1},{},{},{:.2},{},{:#018x}\n",
            m.normalized_time,
            m.execution_time,
            m.accesses,
            m.remote_misses_per_node,
            m.remote_capacity_misses_per_node,
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
                "{{{axes},{norm}\"execution_time\":{},\"accesses\":{},\"barriers\":{},",
                "\"remote_misses_per_node\":{:.1},\"remote_capacity_misses_per_node\":{:.1},",
                "\"migrations_per_node\":{:.1},\"replications_per_node\":{:.1},",
                "\"relocations_per_node\":{:.1},\"page_cache_replacements\":{},",
                "\"network_messages\":{},\"network_bytes\":{},",
                "\"elapsed_seconds\":{:.6},",
                "\"cache_key\":\"{key}\",\"fingerprint\":\"{fp:#018x}\",",
                "\"cached\":{cached},\"traffic\":[{traffic}]}}"
            ),
            m.execution_time,
            m.accesses,
            r.barriers,
            m.remote_misses_per_node,
            m.remote_capacity_misses_per_node,
            m.migrations_per_node,
            m.replications_per_node,
            m.relocations_per_node,
            r.total_page_cache_replacements(),
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
    use crate::presets::{table4, ExperimentScale};
    use crate::sweep::Sweep;
    use dsm_core::System;

    /// Table 4's one-point sweep on ocean and lu.
    fn small_result() -> SweepResult {
        let set = table4(ExperimentScale::Reduced);
        Sweep::new(set.experiment)
            .system_set(set)
            .workloads(["ocean", "lu"])
            .threads(4)
            .run()
    }

    #[test]
    fn tables_render_every_workload_and_system() {
        let result = small_result();
        let table = format_normalized_table(&result);
        assert!(table.starts_with("# Table 4"), "{table}");
        assert!(table.contains("ocean"));
        assert!(table.contains("CC-NUMA"));
        assert!(table.contains("R-NUMA"));
        assert!(table.contains("mean"));

        let t4 = format_table4(&result);
        assert!(t4.contains("ocean"));
        assert!(t4.contains("migrations"));

        let csv = sweep_to_csv(&result);
        assert_eq!(csv.lines().count(), 1 + result.points.len());
        assert!(csv.starts_with("nodes,procs_per_node,"));
    }

    #[test]
    fn normalized_table_has_a_row_per_workload_and_a_column_per_system() {
        let result = small_result();
        let table = format_normalized_table(&result);
        let rows: Vec<Vec<&str>> = table
            .lines()
            .skip(3)
            .map(|l| l.split_whitespace().collect())
            .collect();
        // One row per workload in run order, then the mean; one column per
        // system.
        let firsts: Vec<&str> = rows.iter().map(|r| r[0]).collect();
        assert_eq!(firsts, ["ocean", "lu", "mean"]);
        assert!(rows.iter().all(|r| r.len() == 1 + 3), "{table}");
        let cc_numa = |w| result.point(w, "CC-NUMA").unwrap().normalized_time;
        assert_eq!(rows[1][1], format!("{:.2}", cc_numa("lu")));
        let mean = (cc_numa("ocean") + cc_numa("lu")) / 2.0;
        assert_eq!(rows[2][1], format!("{mean:.2}"));
    }

    #[test]
    fn json_output_covers_workloads_and_systems() {
        let result = small_result();
        let json = sweep_to_json(&result);
        assert!(json.contains("\"workload\":\"ocean\""));
        assert!(json.contains("\"system\":\"R-NUMA\""));
        let doc = crate::json::parse(&json).expect("report JSON parses");
        assert_eq!(doc.get_str("sweep"), Some(result.name.as_str()));
        let jobs = result.points.len() + result.baselines.len();
        for field in [
            "execution_time",
            "barriers",
            "remote_capacity_misses_per_node",
            "page_cache_replacements",
            "elapsed_seconds",
        ] {
            assert_eq!(
                json.matches(&format!("\"{field}\":")).count(),
                jobs,
                "{field}"
            );
        }
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
