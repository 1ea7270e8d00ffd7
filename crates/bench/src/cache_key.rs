//! Content-addressed cache keys for sweep points.
//!
//! PR 4's per-point baseline normalization and PR 5's deterministic fused
//! generators made every sweep point a *pure function* of its
//! configuration: the same (workload + scale, system, machine) always
//! produces the same bit-identical [`SimResult`](dsm_core::SimResult).
//! [`CacheKey`] turns that configuration into a stable 128-bit address —
//! two independent FNV-1a streams over a canonical, versioned field
//! encoding — so repeated and overlapping sweeps (across requests, across
//! clients, across server restarts) can reuse prior points instead of
//! re-simulating them.  The `sweep-service` crate's result cache and the
//! offline report renderers ([`crate::report::sweep_to_csv`],
//! [`crate::report::sweep_to_json`],
//! [`crate::report::format_sweep_points`]) share this keyspace, so a CSV
//! row is joinable with a server's `cache-stats` output by key.
//!
//! The encoding is deliberately *not* Rust's `Hash` (which is allowed to
//! vary across releases and processes): every field is fed explicitly, in
//! a fixed order, behind [`KEY_FORMAT_VERSION`].  Changing the encoding —
//! or the meaning of any field feeding it — must bump the version so stale
//! on-disk caches miss cleanly instead of colliding.
//!
//! What the key covers: the workload name and problem scale, the full
//! machine (topology, page/block geometry, L1 sizing), and the full system
//! configuration (display name, block/page cache, migration/replication
//! switches, every cost-model latency, every threshold including the
//! relocation delay, and the names of any extra policies).  Extra policies
//! are keyed *by name only* — two different policies sharing a name would
//! collide, so give bespoke policies distinct names before caching sweeps
//! over them.

use crate::presets::ExperimentScale;
use dsm_core::{CostModel, MachineConfig, SystemConfig, Thresholds};
use dsm_protocol::{BlockCacheConfig, PageCacheConfig};

/// Bumped whenever the canonical field encoding below changes, so caches
/// written by older encodings miss instead of colliding.
pub const KEY_FORMAT_VERSION: u32 = 1;

/// A 128-bit content address of one sweep point's configuration.
///
/// Rendered as 32 lowercase hex digits (high word first) by
/// [`CacheKey::to_hex`]; [`CacheKey::from_hex`] parses it back.  Equality
/// of keys is the cache's notion of "the same simulation".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    hi: u64,
    lo: u64,
}

impl CacheKey {
    /// The 32-hex-digit rendering used in reports and the cache file.
    pub fn to_hex(self) -> String {
        self.to_string()
    }

    /// Parse a [`CacheKey::to_hex`] rendering.  Returns `None` unless the
    /// input is exactly 32 hex digits.
    pub fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        Some(CacheKey {
            hi: u64::from_str_radix(&s[..16], 16).ok()?,
            lo: u64::from_str_radix(&s[16..], 16).ok()?,
        })
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const OFFSET_HI: u64 = 0xcbf2_9ce4_8422_2325;
// A distinct basis for the low word: the FNV offset perturbed by the
// golden-ratio constant, so the two streams decorrelate.
const OFFSET_LO: u64 = OFFSET_HI ^ 0x9e37_79b9_7f4a_7c15;

/// Incremental hasher behind [`CacheKey`]: two FNV-1a streams fed the same
/// canonical byte sequence.  Multi-byte values are length- or
/// little-endian-encoded explicitly so the digest is identical across
/// platforms and processes.
#[derive(Debug, Clone)]
pub struct KeyHasher {
    hi: u64,
    lo: u64,
}

impl KeyHasher {
    /// A fresh hasher, already fed [`KEY_FORMAT_VERSION`].
    pub fn new() -> Self {
        let mut h = KeyHasher {
            hi: OFFSET_HI,
            lo: OFFSET_LO,
        };
        h.u64(u64::from(KEY_FORMAT_VERSION));
        h
    }

    fn byte(&mut self, b: u8) {
        self.hi = (self.hi ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        self.lo = (self.lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    /// Feed a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Feed a one-byte structural tag (enum discriminants, presence bits).
    pub fn tag(&mut self, t: u8) {
        self.byte(t);
    }

    /// Feed a string, length-prefixed so `("ab","c")` and `("a","bc")`
    /// digest differently.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }

    /// Finish the digest.
    pub fn finish(&self) -> CacheKey {
        CacheKey {
            hi: self.hi,
            lo: self.lo,
        }
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

fn feed_block_cache(h: &mut KeyHasher, cache: Option<BlockCacheConfig>) {
    match cache {
        None => h.tag(0),
        Some(BlockCacheConfig::Finite { size_bytes }) => {
            h.tag(1);
            h.u64(size_bytes);
        }
        Some(BlockCacheConfig::Infinite) => h.tag(2),
    }
}

fn feed_page_cache(h: &mut KeyHasher, cache: Option<PageCacheConfig>) {
    match cache {
        None => h.tag(0),
        Some(PageCacheConfig::Finite { size_bytes }) => {
            h.tag(1);
            h.u64(size_bytes);
        }
        Some(PageCacheConfig::Infinite) => h.tag(2),
    }
}

fn feed_costs(h: &mut KeyHasher, c: &CostModel) {
    h.u64(c.network_latency.raw());
    h.u64(c.local_miss.raw());
    h.u64(c.remote_miss.raw());
    h.u64(c.cache_hit.raw());
    h.u64(c.soft_trap.raw());
    h.u64(c.tlb_shootdown.raw());
    h.u64(c.page_alloc_min.raw());
    h.u64(c.page_alloc_max.raw());
    h.u64(c.page_gather_min.raw());
    h.u64(c.page_gather_max.raw());
    h.u64(c.page_copy_min.raw());
    h.u64(c.page_copy_max.raw());
}

fn feed_thresholds(h: &mut KeyHasher, t: &Thresholds) {
    h.u64(t.migrep_threshold);
    h.u64(t.migrep_reset_interval);
    h.u64(t.rnuma_threshold);
    h.u64(t.rnuma_relocation_delay);
}

/// The content address of one sweep point: a stable digest of
/// (workload + scale, machine, system).  This is a pure function of the
/// configuration — the simulator is deterministic, so equal keys mean
/// bit-identical [`SimResult`](dsm_core::SimResult)s.
pub fn point_key(
    machine: &MachineConfig,
    system: &SystemConfig,
    scale: ExperimentScale,
    workload: &str,
) -> CacheKey {
    let mut h = KeyHasher::new();
    // Workload identity: the name plus the problem scale it generates at.
    h.str(workload);
    h.str(&scale.label());
    // Machine: topology, geometry, L1 sizing.
    h.u64(u64::from(machine.topology.nodes));
    h.u64(u64::from(machine.topology.procs_per_node));
    h.u64(machine.geometry.page_bytes);
    h.u64(machine.geometry.block_bytes);
    h.u64(machine.l1.size_bytes);
    h.u64(machine.l1.block_bytes);
    // System: the display name is part of the identity (SimResult carries
    // it), then every behavioural knob.
    h.str(&system.name);
    feed_block_cache(&mut h, system.block_cache);
    feed_page_cache(&mut h, system.page_cache);
    match system.migrep {
        None => h.tag(0),
        Some(m) => {
            h.tag(1);
            h.tag(u8::from(m.migration));
            h.tag(u8::from(m.replication));
        }
    }
    feed_costs(&mut h, &system.costs);
    feed_thresholds(&mut h, &system.thresholds);
    h.u64(system.extra_policies.len() as u64);
    for extra in &system.extra_policies {
        h.str(extra.instantiate().name());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::{MigRep, System};
    use mem_trace::{Geometry, Topology};

    fn base_key() -> CacheKey {
        point_key(
            &MachineConfig::PAPER,
            &System::cc_numa().build(),
            ExperimentScale::Reduced,
            "radix",
        )
    }

    /// The committed digest of a fixed configuration.  This constant is
    /// what makes "identical points hash identically across processes and
    /// server restarts" testable: the key must never depend on ASLR, hash
    /// seeds, or field iteration order.  If this test fails, the key
    /// format changed — bump [`KEY_FORMAT_VERSION`] and expect every
    /// on-disk cache to go cold.
    #[test]
    fn key_of_the_paper_cc_numa_radix_point_is_pinned() {
        assert_eq!(base_key().to_hex(), "7e6f767b622128a9dd6712052cb62d4c");
    }

    #[test]
    fn hex_round_trips() {
        let key = base_key();
        assert_eq!(CacheKey::from_hex(&key.to_hex()), Some(key));
        assert_eq!(key.to_hex().len(), 32);
        assert_eq!(format!("{key}"), key.to_hex());
        assert_eq!(CacheKey::from_hex("xyz"), None);
        assert_eq!(CacheKey::from_hex(&"f".repeat(31)), None);
        assert_eq!(CacheKey::from_hex(&"g".repeat(32)), None);
    }

    #[test]
    fn every_configuration_field_perturbs_the_key() {
        let machine = MachineConfig::PAPER;
        let system = System::cc_numa().with(MigRep::both()).build();
        let scale = ExperimentScale::Reduced;
        let base = point_key(&machine, &system, scale, "radix");

        let variants = [
            point_key(&machine, &system, scale, "lu"),
            point_key(&machine, &system, ExperimentScale::Paper, "radix"),
            point_key(
                &machine.with_topology(Topology::new(16, 4)),
                &system,
                scale,
                "radix",
            ),
            point_key(
                &machine.with_topology(Topology::new(8, 2)),
                &system,
                scale,
                "radix",
            ),
            point_key(
                &machine.with_geometry(Geometry::new(8192, 64)),
                &system,
                scale,
                "radix",
            ),
            point_key(
                &machine.with_geometry(Geometry::new(4096, 128)),
                &system,
                scale,
                "radix",
            ),
            point_key(
                &machine,
                &system.clone().with_costs(CostModel::slow()),
                scale,
                "radix",
            ),
            point_key(
                &machine,
                &system.clone().with_thresholds(Thresholds::paper_slow()),
                scale,
                "radix",
            ),
            point_key(
                &machine,
                &system
                    .clone()
                    .with_thresholds(system.thresholds.with_relocation_delay(2_000)),
                scale,
                "radix",
            ),
            point_key(&machine, &system.clone().named("MigRep-v2"), scale, "radix"),
            point_key(&machine, &System::cc_numa().build(), scale, "radix"),
            point_key(&machine, &System::r_numa().build(), scale, "radix"),
            point_key(&machine, &System::perfect_cc_numa().build(), scale, "radix"),
        ];
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(base);
        for (i, v) in variants.iter().enumerate() {
            assert!(seen.insert(*v), "variant {i} collided with a prior key");
        }
    }

    #[test]
    fn string_fields_are_length_prefixed() {
        let mut a = KeyHasher::new();
        a.str("ab");
        a.str("c");
        let mut b = KeyHasher::new();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn extra_policies_key_by_name() {
        use dsm_core::policy::{PolicyFactory, RelocationPolicy};
        #[derive(Debug)]
        struct Noop;
        impl RelocationPolicy for Noop {
            fn name(&self) -> &'static str {
                "noop-policy"
            }
        }
        let mut with_policy = System::cc_numa().build();
        with_policy
            .extra_policies
            .push(PolicyFactory::new(|| Box::new(Noop)));
        let plain = point_key(
            &MachineConfig::PAPER,
            &System::cc_numa().build(),
            ExperimentScale::Reduced,
            "radix",
        );
        let keyed = point_key(
            &MachineConfig::PAPER,
            &with_policy,
            ExperimentScale::Reduced,
            "radix",
        );
        assert_ne!(plain, keyed);
    }
}
