//! Name → configuration resolution for the wire protocol.
//!
//! Requests identify systems, cost models, scales, axes and metrics by
//! short stable strings; this module resolves them against the experiment
//! presets.  System templates are *scale-aware*: the page cache and policy
//! thresholds follow the requested problem scale by the same rules the
//! figure presets use (`dsm_bench::presets`), so a `"r-numa"` requested at
//! `"paper"` scale is exactly the paper's R-NUMA.

use dsm_bench::{Axis, ExperimentScale, Metric};
use dsm_core::{CostModel, MigRep, PageCaching, System, SystemConfig};

/// Every system name the protocol accepts, for error messages and docs.
pub const SYSTEM_NAMES: [&str; 10] = [
    "perfect-cc-numa",
    "cc-numa",
    "rep",
    "mig",
    "migrep",
    "r-numa",
    "r-numa-inf",
    "r-numa-half",
    "hybrid",
    "r-numa-paper-cache",
];

/// Every cost-model name the protocol accepts.
pub const COST_NAMES: [&str; 3] = ["base", "slow", "remote4x"];

/// Resolve a system name at a problem scale.
///
/// The catalog mirrors the figure presets: non-baseline systems get the
/// scale's fast thresholds, R-NUMA variants get the scale's page cache.
/// `"r-numa-paper-cache"` keeps the paper's 2.4-MB page cache at every
/// scale (the configuration the committed golden fingerprints pin at
/// reduced scale), while `"r-numa"` scales the cache with the problem.
pub fn system_by_name(name: &str, scale: ExperimentScale) -> Result<SystemConfig, String> {
    let t = scale.thresholds_fast();
    let cfg = match name {
        "perfect-cc-numa" | "perfect" => System::perfect_cc_numa().build(),
        "cc-numa" => System::cc_numa().build(),
        "rep" => System::cc_numa()
            .with(MigRep::replication_only())
            .with(t)
            .build(),
        "mig" => System::cc_numa()
            .with(MigRep::migration_only())
            .with(t)
            .build(),
        "migrep" => System::cc_numa().with(MigRep::both()).with(t).build(),
        "r-numa" => System::r_numa()
            .with(PageCaching::config(scale.page_cache()))
            .with(t)
            .named("R-NUMA")
            .build(),
        "r-numa-inf" => System::r_numa()
            .with(PageCaching::infinite())
            .with(t)
            .build(),
        "r-numa-half" => System::r_numa()
            .with(PageCaching::config(scale.page_cache_half()))
            .with(t)
            .named("R-NUMA-1/2")
            .build(),
        "hybrid" => System::r_numa()
            .with(PageCaching::config(scale.page_cache_half()))
            .with(MigRep::both())
            .with(t)
            .relocation_delay(scale.relocation_delay())
            .named("R-NUMA-1/2+MigRep")
            .build(),
        "r-numa-paper-cache" => System::r_numa().with(t).build(),
        other => {
            return Err(format!(
                "unknown system `{other}` (known: {})",
                SYSTEM_NAMES.join(", ")
            ))
        }
    };
    Ok(cfg)
}

/// Resolve a cost-model name.
pub fn cost_by_name(name: &str) -> Result<CostModel, String> {
    match name {
        "base" | "default" => Ok(CostModel::base()),
        "slow" => Ok(CostModel::slow()),
        "remote4x" => Ok(CostModel::base().with_remote_latency_factor(4)),
        other => Err(format!(
            "unknown cost model `{other}` (known: {})",
            COST_NAMES.join(", ")
        )),
    }
}

/// Parse a scale label: `"reduced"`, `"paper"`, `"xN"`, or `"xN/D"` — the
/// same labels [`ExperimentScale::label`] renders (see
/// [`ExperimentScale::parse`]).
pub fn parse_scale(label: &str) -> Result<ExperimentScale, String> {
    ExperimentScale::parse(label)
        .ok_or_else(|| format!("unknown scale `{label}` (expected reduced, paper, xN or xN/D)"))
}

/// Resolve an axis name (the CSV column names of [`Axis::name`]).
pub fn axis_by_name(name: &str) -> Result<Axis, String> {
    Axis::ALL
        .into_iter()
        .find(|a| a.name() == name)
        .ok_or_else(|| {
            let known: Vec<&str> = Axis::ALL.iter().map(|a| a.name()).collect();
            format!("unknown axis `{name}` (known: {})", known.join(", "))
        })
}

/// Every metric the protocol accepts, in [`Metric::name`] form.
pub const METRICS: [Metric; 10] = [
    Metric::NormalizedTime,
    Metric::ExecutionTime,
    Metric::RemoteMissesPerNode,
    Metric::RemoteCapacityMissesPerNode,
    Metric::MigrationsPerNode,
    Metric::ReplicationsPerNode,
    Metric::RelocationsPerNode,
    Metric::NetworkMessages,
    Metric::NetworkBytes,
    Metric::BytesPerAccess,
];

/// Resolve a metric name (the CSV column names of [`Metric::name`]).
pub fn metric_by_name(name: &str) -> Result<Metric, String> {
    METRICS
        .into_iter()
        .find(|m| m.name() == name)
        .ok_or_else(|| {
            let known: Vec<&str> = METRICS.iter().map(|m| m.name()).collect();
            format!("unknown metric `{name}` (known: {})", known.join(", "))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use splash_workloads::CustomScale;

    #[test]
    fn every_advertised_system_resolves_at_every_scale() {
        for scale in [
            ExperimentScale::Reduced,
            ExperimentScale::Paper,
            ExperimentScale::Custom(CustomScale::new(1, 16)),
        ] {
            for name in SYSTEM_NAMES {
                let cfg = system_by_name(name, scale)
                    .unwrap_or_else(|e| panic!("{name} at {}: {e}", scale.label()));
                assert!(!cfg.name.is_empty());
            }
        }
        assert!(system_by_name("nonsense", ExperimentScale::Reduced).is_err());
    }

    #[test]
    fn catalog_mirrors_the_figure_presets() {
        use dsm_bench::presets;
        let scale = ExperimentScale::Reduced;
        let fig5 = presets::figure5(scale);
        // Figure 5 order: CC-NUMA, Rep, Mig, MigRep, R-NUMA, R-NUMA-Inf.
        let names = ["cc-numa", "rep", "mig", "migrep", "r-numa", "r-numa-inf"];
        for (catalog_name, preset) in names.iter().zip(&fig5.systems) {
            assert_eq!(
                system_by_name(catalog_name, scale).unwrap(),
                *preset,
                "catalog `{catalog_name}` drifted from the figure 5 preset"
            );
        }
        assert_eq!(
            system_by_name("perfect-cc-numa", scale).unwrap(),
            fig5.baseline
        );
        // Figure 8's half-cache and hybrid systems.
        let fig8 = presets::figure8(scale);
        assert_eq!(
            system_by_name("r-numa-half", scale).unwrap(),
            fig8.systems[1]
        );
        assert_eq!(system_by_name("hybrid", scale).unwrap(), fig8.systems[2]);
    }

    #[test]
    fn paper_cache_variant_keeps_the_paper_page_cache_at_reduced_scale() {
        use dsm_protocol::PageCacheConfig;
        let r = system_by_name("r-numa-paper-cache", ExperimentScale::Reduced).unwrap();
        assert_eq!(r.page_cache, Some(PageCacheConfig::PAPER));
        let scaled = system_by_name("r-numa", ExperimentScale::Reduced).unwrap();
        assert_ne!(r.page_cache, scaled.page_cache);
    }

    #[test]
    fn cost_models_resolve() {
        assert_eq!(cost_by_name("base").unwrap(), CostModel::base());
        assert_eq!(cost_by_name("default").unwrap(), CostModel::base());
        assert_eq!(cost_by_name("slow").unwrap(), CostModel::slow());
        assert_eq!(
            cost_by_name("remote4x").unwrap(),
            CostModel::base().with_remote_latency_factor(4)
        );
        assert!(cost_by_name("fast").is_err());
    }

    #[test]
    fn axes_and_metrics_resolve_by_their_column_names() {
        for axis in Axis::ALL {
            assert_eq!(axis_by_name(axis.name()).unwrap(), axis);
        }
        for metric in METRICS {
            assert_eq!(metric_by_name(metric.name()).unwrap(), metric);
        }
        assert!(axis_by_name("bogus").is_err());
        assert!(metric_by_name("bogus").is_err());
    }
}
