//! System-configuration presets for each experiment.
//!
//! The paper's absolute parameters (2.4-MB page cache, 800-miss
//! migration/replication threshold, 32-refetch relocation threshold, 32000-
//! miss reset interval) are tuned for the Table 2 data sets.  The reduced
//! problem sizes used by default in this reproduction have working sets and
//! miss counts roughly 8x smaller, so the reduced presets scale the page
//! cache and every threshold by the same factor — preserving the ratios the
//! paper's conclusions depend on (e.g. radix's working set still exceeds the
//! page cache; lu's read phase still crosses the replication threshold).

use dsm_core::{CostModel, MigRep, PageCaching, System, SystemConfig, Thresholds};
use dsm_protocol::PageCacheConfig;
use splash_workloads::{CustomScale, Scale};

/// Scale factor between the paper's data sets and the reduced ones.
///
/// The reduced workloads generate roughly 4x fewer misses *per hot page*
/// than the Table 2 inputs, so the per-page thresholds and the page cache
/// are scaled by the same factor.
const REDUCED_FACTOR: u64 = 4;

/// Smallest page cache a custom scale may shrink to (frames get useless
/// below this; the paper's is 600 frames).
const MIN_PAGE_CACHE_BYTES: u64 = 8 * 4096;

/// Which parameter scale an experiment runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Reduced problem sizes, proportionally scaled page cache/thresholds.
    Reduced,
    /// The paper's exact parameters.
    Paper,
    /// A custom multiple of the paper's data sets, with the page cache and
    /// thresholds interpolated by the same factor — the ratios the paper's
    /// conclusions rest on (working set vs page cache, misses per hot page
    /// vs threshold) carry to bigger-than-paper problems.
    Custom(CustomScale),
}

impl ExperimentScale {
    /// Parse from a `--paper` style flag.
    pub fn from_paper_flag(paper: bool) -> Self {
        if paper {
            ExperimentScale::Paper
        } else {
            ExperimentScale::Reduced
        }
    }

    /// The matching workload scale.
    pub fn workload_scale(self) -> Scale {
        match self {
            ExperimentScale::Reduced => Scale::Reduced,
            ExperimentScale::Paper => Scale::Paper,
            ExperimentScale::Custom(c) => Scale::Custom(c),
        }
    }

    /// Short label used on sweep axes and in reports.
    pub fn label(self) -> String {
        self.workload_scale().label()
    }

    /// Parse a [`label`](ExperimentScale::label): `"reduced"`, `"paper"`,
    /// `"xN"` or `"xN/D"`, with nonzero `N` and `D`.
    pub fn parse(label: &str) -> Option<ExperimentScale> {
        match label {
            "reduced" => return Some(ExperimentScale::Reduced),
            "paper" => return Some(ExperimentScale::Paper),
            _ => {}
        }
        let rest = label.strip_prefix('x')?;
        let (numer, denom) = rest.split_once('/').unwrap_or((rest, "1"));
        let numer: u32 = numer.parse().ok()?;
        let denom: u32 = denom.parse().ok()?;
        (numer > 0 && denom > 0).then(|| ExperimentScale::Custom(CustomScale::new(numer, denom)))
    }

    /// Policy thresholds for the fast systems at this scale.
    ///
    /// The migration/replication threshold is scaled slightly more
    /// aggressively than the R-NUMA threshold because the reduced inputs cut
    /// the number of misses *per page* (which drives MigRep) harder than the
    /// number of refetches per hot page (which drives R-NUMA).
    pub fn thresholds_fast(self) -> Thresholds {
        match self {
            ExperimentScale::Reduced => Thresholds {
                migrep_threshold: 250,
                migrep_reset_interval: 32_000 / REDUCED_FACTOR,
                rnuma_threshold: 8,
                rnuma_relocation_delay: 0,
            },
            ExperimentScale::Paper => Thresholds::paper_fast(),
            ExperimentScale::Custom(c) => scale_thresholds(Thresholds::paper_fast(), c),
        }
    }

    /// Policy thresholds for the slow systems (Figure 6) at this scale.
    pub fn thresholds_slow(self) -> Thresholds {
        match self {
            ExperimentScale::Reduced => Thresholds {
                migrep_threshold: 400,
                migrep_reset_interval: 32_000 / REDUCED_FACTOR,
                rnuma_threshold: 16,
                rnuma_relocation_delay: 0,
            },
            ExperimentScale::Paper => Thresholds::paper_slow(),
            ExperimentScale::Custom(c) => scale_thresholds(Thresholds::paper_slow(), c),
        }
    }

    /// The base R-NUMA page cache at this scale.
    pub fn page_cache(self) -> PageCacheConfig {
        match self {
            ExperimentScale::Reduced => PageCacheConfig::Finite {
                size_bytes: 2_457_600 / 2,
            },
            ExperimentScale::Paper => PageCacheConfig::PAPER,
            ExperimentScale::Custom(c) => PageCacheConfig::Finite {
                size_bytes: c.of(2_457_600).max(MIN_PAGE_CACHE_BYTES),
            },
        }
    }

    /// Half the base page cache (Section 6.4).
    pub fn page_cache_half(self) -> PageCacheConfig {
        match self {
            ExperimentScale::Reduced => PageCacheConfig::Finite {
                size_bytes: 1_228_800 / 2,
            },
            ExperimentScale::Paper => PageCacheConfig::PAPER_HALF,
            ExperimentScale::Custom(c) => PageCacheConfig::Finite {
                size_bytes: c.of(1_228_800).max(MIN_PAGE_CACHE_BYTES / 2),
            },
        }
    }

    /// The relocation-delay window for the R-NUMA+MigRep hybrid.
    pub fn relocation_delay(self) -> u64 {
        match self {
            ExperimentScale::Reduced => 32_000 / REDUCED_FACTOR,
            ExperimentScale::Paper => 32_000,
            ExperimentScale::Custom(c) => c.of(32_000),
        }
    }
}

impl ExperimentScale {
    /// The committed larger-than-Table-2 preset: four times the paper's
    /// data sets, with the page cache and every threshold interpolated by
    /// the same factor.  Reachable as `--custom 4` on every experiment
    /// binary and as `"x4"` through the sweep-service catalog; its
    /// behaviour is pinned by the golden fingerprints in
    /// `tests/golden/custom_scale.txt`.
    pub const X4: ExperimentScale = ExperimentScale::Custom(CustomScale::new(4, 1));
}

/// Interpolate the paper's per-page thresholds by a custom scale factor:
/// data sets `c` times larger see roughly `c` times the misses per hot
/// page, so thresholds scale with `c` (floored so they never vanish).
fn scale_thresholds(paper: Thresholds, c: CustomScale) -> Thresholds {
    Thresholds {
        migrep_threshold: c.of(paper.migrep_threshold),
        migrep_reset_interval: c.of(paper.migrep_reset_interval),
        rnuma_threshold: c.of(paper.rnuma_threshold).max(2),
        rnuma_relocation_delay: paper.rnuma_relocation_delay,
    }
}

/// A named list of system configurations compared within one figure.
#[derive(Debug, Clone)]
pub struct SystemSet {
    /// Name of the experiment ("Figure 5", ...).
    pub experiment: &'static str,
    /// The baseline every execution time is normalized against.
    pub baseline: SystemConfig,
    /// The systems compared (in plot order).
    pub systems: Vec<SystemConfig>,
}

fn r_numa_at(scale: ExperimentScale) -> SystemConfig {
    System::r_numa()
        .with(PageCaching::config(scale.page_cache()))
        .with(scale.thresholds_fast())
        .named("R-NUMA")
        .build()
}

/// Figure 5: CC-NUMA, Rep, Mig, MigRep, R-NUMA, R-NUMA-Inf vs perfect
/// CC-NUMA.
pub fn figure5(scale: ExperimentScale) -> SystemSet {
    let t = scale.thresholds_fast();
    SystemSet {
        experiment: "Figure 5: base performance comparison",
        baseline: System::perfect_cc_numa().build(),
        systems: vec![
            System::cc_numa().build(),
            System::cc_numa()
                .with(MigRep::replication_only())
                .with(t)
                .build(),
            System::cc_numa()
                .with(MigRep::migration_only())
                .with(t)
                .build(),
            System::cc_numa().with(MigRep::both()).with(t).build(),
            r_numa_at(scale),
            System::r_numa()
                .with(PageCaching::infinite())
                .with(t)
                .build(),
        ],
    }
}

/// Table 4 uses the same runs as Figure 5 (CC-NUMA, MigRep, R-NUMA).
pub fn table4(scale: ExperimentScale) -> SystemSet {
    let t = scale.thresholds_fast();
    SystemSet {
        experiment: "Table 4: page operations and miss breakdown",
        baseline: System::perfect_cc_numa().build(),
        systems: vec![
            System::cc_numa().build(),
            System::cc_numa().with(MigRep::both()).with(t).build(),
            r_numa_at(scale),
        ],
    }
}

/// Figure 6: fast vs slow page-operation support for MigRep and R-NUMA.
pub fn figure6(scale: ExperimentScale) -> SystemSet {
    let fast = scale.thresholds_fast();
    let slow = scale.thresholds_slow();
    SystemSet {
        experiment: "Figure 6: sensitivity to page operation overhead",
        baseline: System::perfect_cc_numa().build(),
        systems: vec![
            System::cc_numa()
                .with(MigRep::both())
                .with(fast)
                .named("MigRep-Fast")
                .build(),
            System::cc_numa()
                .with(MigRep::both())
                .with(CostModel::slow())
                .with(slow)
                .named("MigRep-Slow")
                .build(),
            r_numa_at(scale).named("R-NUMA-Fast"),
            System::r_numa()
                .with(PageCaching::config(scale.page_cache()))
                .with(CostModel::slow())
                .with(slow)
                .named("R-NUMA-Slow")
                .build(),
        ],
    }
}

/// Figure 7: remote latency four times larger (remote:local ratio 16).
pub fn figure7(scale: ExperimentScale) -> SystemSet {
    let t = scale.thresholds_fast();
    let far = CostModel::base().with_remote_latency_factor(4);
    SystemSet {
        experiment: "Figure 7: sensitivity to network latency (4x)",
        baseline: System::perfect_cc_numa().with(far).build(),
        systems: vec![
            System::cc_numa().with(far).build(),
            System::cc_numa()
                .with(MigRep::both())
                .with(far)
                .with(t)
                .build(),
            r_numa_at(scale).with_costs(far),
        ],
    }
}

/// Figure 8: MigRep, R-NUMA-1/2, R-NUMA-1/2+MigRep, R-NUMA.
pub fn figure8(scale: ExperimentScale) -> SystemSet {
    let t = scale.thresholds_fast();
    SystemSet {
        experiment: "Figure 8: R-NUMA+MigRep hybrid",
        baseline: System::perfect_cc_numa().build(),
        systems: vec![
            System::cc_numa().with(MigRep::both()).with(t).build(),
            System::r_numa()
                .with(PageCaching::config(scale.page_cache_half()))
                .with(t)
                .named("R-NUMA-1/2")
                .build(),
            System::r_numa()
                .with(PageCaching::config(scale.page_cache_half()))
                .with(MigRep::both())
                .with(t)
                .relocation_delay(scale.relocation_delay())
                .named("R-NUMA-1/2+MigRep")
                .build(),
            r_numa_at(scale),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse_their_own_labels() {
        for scale in [
            ExperimentScale::Reduced,
            ExperimentScale::Paper,
            ExperimentScale::Custom(CustomScale::new(3, 1)),
            ExperimentScale::Custom(CustomScale::new(1, 32)),
        ] {
            assert_eq!(ExperimentScale::parse(&scale.label()), Some(scale));
        }
        for bad in ["", "x", "x0", "x1/0", "huge", "x1/2/3", "x-1"] {
            assert_eq!(
                ExperimentScale::parse(bad),
                None,
                "`{bad}` should not parse"
            );
        }
        // The committed above-x1 preset resolves to the same scale the
        // experiment binaries reach via `--custom 4`.
        assert_eq!(ExperimentScale::parse("x4"), Some(ExperimentScale::X4));
    }

    #[test]
    fn scales_resolve_flags_and_workload_scale() {
        assert_eq!(
            ExperimentScale::from_paper_flag(true),
            ExperimentScale::Paper
        );
        assert_eq!(
            ExperimentScale::from_paper_flag(false),
            ExperimentScale::Reduced
        );
        assert_eq!(ExperimentScale::Paper.workload_scale(), Scale::Paper);
        assert_eq!(ExperimentScale::Reduced.workload_scale(), Scale::Reduced);
        let c = CustomScale::new(2, 1);
        assert_eq!(
            ExperimentScale::Custom(c).workload_scale(),
            Scale::Custom(c)
        );
        assert_eq!(ExperimentScale::Custom(c).label(), "x2");
    }

    #[test]
    fn custom_scale_interpolates_the_paper_parameters() {
        let double = ExperimentScale::Custom(CustomScale::new(2, 1));
        let pf = Thresholds::paper_fast();
        let t = double.thresholds_fast();
        assert_eq!(t.migrep_threshold, 2 * pf.migrep_threshold);
        assert_eq!(t.rnuma_threshold, 2 * pf.rnuma_threshold);
        assert_eq!(
            double.page_cache().frames().unwrap(),
            2 * PageCacheConfig::PAPER.frames().unwrap()
        );
        assert_eq!(double.relocation_delay(), 64_000);

        // Slivers floor instead of vanishing.
        let sliver = ExperimentScale::Custom(CustomScale::new(1, 1024));
        assert!(sliver.thresholds_fast().rnuma_threshold >= 2);
        assert!(sliver.page_cache().frames().unwrap() >= 4);
        assert!(
            sliver.page_cache_half().frames().unwrap() <= sliver.page_cache().frames().unwrap()
        );
    }

    #[test]
    fn the_x4_preset_is_four_times_the_paper() {
        let x4 = ExperimentScale::X4;
        assert_eq!(x4, ExperimentScale::Custom(CustomScale::new(4, 1)));
        assert_eq!(x4.label(), "x4");
        let pf = Thresholds::paper_fast();
        assert_eq!(
            x4.thresholds_fast().migrep_threshold,
            4 * pf.migrep_threshold
        );
        assert_eq!(
            x4.page_cache().frames().unwrap(),
            4 * PageCacheConfig::PAPER.frames().unwrap()
        );
    }

    #[test]
    fn paper_scale_uses_paper_parameters() {
        let s = ExperimentScale::Paper;
        assert_eq!(s.thresholds_fast(), Thresholds::paper_fast());
        assert_eq!(s.page_cache(), PageCacheConfig::PAPER);
        assert_eq!(s.page_cache_half(), PageCacheConfig::PAPER_HALF);
        assert_eq!(s.relocation_delay(), 32_000);
    }

    #[test]
    fn reduced_scale_shrinks_page_cache_and_thresholds() {
        let s = ExperimentScale::Reduced;
        let frames = s.page_cache().frames().unwrap();
        assert!(
            frames < 600,
            "reduced page cache must be smaller than the paper's"
        );
        assert!(frames >= 600 / REDUCED_FACTOR as usize);
        assert!(s.page_cache_half().frames().unwrap() * 2 == frames);
        assert!(s.thresholds_fast().migrep_threshold < Thresholds::paper_fast().migrep_threshold);
        assert!(s.thresholds_fast().rnuma_threshold < Thresholds::paper_fast().rnuma_threshold);
    }

    #[test]
    fn figure5_compares_six_systems_against_perfect_cc_numa() {
        let set = figure5(ExperimentScale::Reduced);
        assert_eq!(set.systems.len(), 6);
        assert_eq!(set.baseline.name, "Perfect-CC-NUMA");
        let names: Vec<&str> = set.systems.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["CC-NUMA", "Rep", "Mig", "MigRep", "R-NUMA", "R-NUMA-Inf"]
        );
    }

    #[test]
    fn figure6_has_fast_and_slow_variants() {
        let set = figure6(ExperimentScale::Reduced);
        assert_eq!(set.systems.len(), 4);
        assert!(set.systems[1].costs.soft_trap > set.systems[0].costs.soft_trap);
        assert!(set.systems[3].costs.soft_trap > set.systems[2].costs.soft_trap);
    }

    #[test]
    fn figure7_scales_the_remote_path_only() {
        let set = figure7(ExperimentScale::Paper);
        for sys in &set.systems {
            assert_eq!(sys.costs.remote_miss.raw(), 418 * 4);
            assert_eq!(sys.costs.local_miss.raw(), 104);
        }
        assert_eq!(set.baseline.costs.remote_miss.raw(), 418 * 4);
    }

    #[test]
    fn figure8_hybrid_has_delay_and_half_cache() {
        let set = figure8(ExperimentScale::Paper);
        let hybrid = &set.systems[2];
        assert!(hybrid.has_migrep());
        assert!(hybrid.is_rnuma());
        assert_eq!(hybrid.thresholds.rnuma_relocation_delay, 32_000);
        assert_eq!(set.systems[1].page_cache, Some(PageCacheConfig::PAPER_HALF));
    }
}
