//! `radix` — parallel integer radix sort (SPLASH-2 Radix).
//!
//! Each pass over one digit has three phases: every processor builds a local
//! histogram of its own contiguous chunk of keys, the histograms are
//! combined into global rank offsets, and finally every key is *permuted*
//! into a destination array at a position computed from the global ranks.
//! The permutation writes are scattered over the whole destination array, so
//! every node writes pages homed on every other node with no single dominant
//! user — the paper finds essentially no opportunity for migration or
//! replication (1 migration, 0 replications per node) while R-NUMA relocates
//! aggressively (1714 relocations per node) and is ultimately limited by the
//! page cache capacity because the streaming working set of source plus
//! destination keys exceeds it.

use crate::config::{Scale, WorkloadConfig};
use crate::program::{Draws, Emit, ProcStreams, Program};
use crate::util::owned_range;
use crate::Workload;
use mem_trace::{AddressSpace, ProcGenerator, ProcId, Segment, Topology};
use rand::rngs::SmallRng;
use rand::Rng;

/// Parallel integer radix sort.
pub struct Radix;

#[derive(Clone)]
struct RadixParams {
    /// Number of keys.
    keys: u64,
    /// Sorting passes (digits) simulated.
    passes: u64,
    /// Radix (buckets per digit).
    radix: u64,
}

impl RadixParams {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Reduced => RadixParams {
                keys: 128 * 1024,
                passes: 2,
                radix: 1024,
            },
            Scale::Paper => RadixParams {
                keys: 1024 * 1024,
                passes: 2,
                radix: 1024,
            },
            // The key array carries the factor; the digit structure is
            // Table 2's.
            Scale::Custom(c) => RadixParams {
                keys: c.of(1024 * 1024),
                passes: 2,
                radix: 1024,
            },
        }
    }
}

/// Keys per cache line (4-byte integers).
const KEYS_PER_LINE: u64 = 16;

/// The radix phases: initialization, then per pass a local histogram, the
/// global rank computation and the permutation.
#[derive(Clone, Copy)]
enum Phase {
    Init,
    Hist,
    Rank,
    Perm,
}

#[derive(Clone)]
struct RadixProgram {
    params: RadixParams,
    topology: Topology,
    procs: usize,
    seed: u64,
    src: Segment,
    dst: Segment,
    histograms: Segment,
}

/// One processor's slice of a phase.
#[derive(Clone, Copy)]
struct RadixSlice {
    phase: Phase,
    /// First key of the processor's chunk.
    first_key: u64,
    /// First bin of the processor's histogram.
    hist_base: u64,
}

impl RadixProgram {
    fn new(cfg: &WorkloadConfig) -> Self {
        let params = RadixParams::for_scale(cfg.scale);
        let procs = cfg.topology.total_procs();

        let mut space = AddressSpace::new();
        let src = space.alloc("keys_src", params.keys, 4);
        let dst = space.alloc("keys_dst", params.keys, 4);
        let histograms = space.alloc("histograms", params.radix * procs as u64, 4);

        RadixProgram {
            params,
            topology: cfg.topology,
            procs,
            seed: cfg.seed ^ 0x5ad1,
            src,
            dst,
            histograms,
        }
    }

    fn phase(&self, ph: usize) -> Phase {
        match ph {
            0 => Phase::Init,
            _ => [Phase::Hist, Phase::Rank, Phase::Perm][(ph - 1) % 3],
        }
    }
}

impl Program for RadixProgram {
    type Slice = RadixSlice;

    fn phases(&self) -> usize {
        1 + 3 * self.params.passes as usize
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn draws(&self, ph: usize) -> Draws {
        match self.phase(ph) {
            Phase::Hist | Phase::Perm => Draws::ByProc,
            Phase::Init | Phase::Rank => Draws::None,
        }
    }

    fn slice(&self, ph: usize, p: usize) -> (u64, RadixSlice) {
        let phase = self.phase(ph);
        let keys = owned_range(self.params.keys as usize, self.topology, ProcId(p as u16));
        let slice = RadixSlice {
            phase,
            first_key: keys.start as u64,
            hist_base: self.params.radix * p as u64,
        };
        let items = match phase {
            // Every processor reads every processor's histogram.
            Phase::Rank => self.procs as u64,
            // One item per cache line of the owned chunk.
            _ => (keys.len() as u64).div_ceil(KEYS_PER_LINE),
        };
        (items, slice)
    }

    fn emit(&self, _p: ProcId, s: &RadixSlice, i: u64, rng: &mut SmallRng, out: &mut Emit<'_>) {
        let params = &self.params;
        let k = s.first_key + i * KEYS_PER_LINE;
        match s.phase {
            // Initialization: each processor writes its own chunk of the
            // source array (first-touch places it locally).
            Phase::Init => out.write(self.src.elem(k)),
            // Phase 1: local histogram — stream through the owned chunk of
            // the (current) source array and update the processor's own
            // histogram bins.
            Phase::Hist => {
                out.read(self.src.elem(k));
                let bin = rng.gen_range(0..params.radix);
                out.write(self.histograms.elem(s.hist_base + bin));
            }
            // Phase 2: global rank computation — every processor reads every
            // other processor's histogram (small, read-shared).
            Phase::Rank => {
                let base = params.radix * i;
                let mut bin = 0u64;
                while bin < params.radix {
                    out.read(self.histograms.elem(base + bin));
                    bin += KEYS_PER_LINE;
                }
            }
            // Phase 3: permutation — read own keys, write them to scattered
            // positions of the destination array (all-to-all traffic).
            Phase::Perm => {
                out.read(self.src.elem(k));
                // One permuted write per key in this line; destinations
                // are uniformly scattered, as radix-sort ranks are.
                for _ in 0..4 {
                    let dest = rng.gen_range(0..params.keys);
                    out.write(self.dst.elem(dest));
                }
            }
        }
    }

    fn skip(&self, s: &RadixSlice, _i: u64, rng: &mut SmallRng) {
        let draws = match s.phase {
            Phase::Hist => 1,
            Phase::Perm => 4,
            Phase::Init | Phase::Rank => 0,
        };
        for _ in 0..draws {
            rng.next_u64();
        }
    }
}

impl Workload for Radix {
    fn name(&self) -> &'static str {
        "radix"
    }

    fn description(&self) -> &'static str {
        "Integer radix sort"
    }

    fn paper_input(&self) -> &'static str {
        "1M integers, radix 1024"
    }

    fn reduced_input(&self) -> &'static str {
        "128K integers, radix 1024"
    }

    fn generator(&self, cfg: &WorkloadConfig) -> Box<dyn ProcGenerator> {
        let program = RadixProgram::new(cfg);
        Box::new(ProcStreams::new(program, cfg.topology, cfg.think_cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_valid_and_write_heavy() {
        let cfg = WorkloadConfig::reduced();
        let trace = Radix.generate(&cfg);
        assert!(trace.validate().is_ok());
        let stats = trace.stats();
        // The permutation phase makes radix unusually write-heavy.
        assert!(
            stats.write_fraction() > 0.3,
            "write fraction {}",
            stats.write_fraction()
        );
    }

    #[test]
    fn destination_pages_are_shared_by_many_nodes() {
        let cfg = WorkloadConfig::reduced();
        let stats = Radix.generate(&cfg).stats();
        // Scattered permutation writes touch most pages from many nodes.
        assert!(stats.node_shared_pages * 2 > stats.footprint_pages);
    }

    #[test]
    fn footprint_scales_with_key_count() {
        let reduced = RadixParams::for_scale(Scale::Reduced);
        let paper = RadixParams::for_scale(Scale::Paper);
        assert_eq!(paper.keys, 8 * reduced.keys);
        let stats = Radix.generate(&WorkloadConfig::reduced()).stats();
        // Source + destination arrays: 2 * 128K * 4 bytes = 1 MB = 256 pages,
        // plus histograms.
        assert!(stats.footprint_pages >= 256);
    }

    #[test]
    fn custom_scale_grows_the_key_array() {
        use crate::config::CustomScale;
        let double = RadixParams::for_scale(Scale::Custom(CustomScale::new(2, 1)));
        assert_eq!(double.keys, 2 * 1024 * 1024, "past Table 2");
        assert_eq!(double.radix, 1024, "digit structure is Table 2's");
        let sliver = RadixParams::for_scale(Scale::Custom(CustomScale::new(1, 32)));
        assert_eq!(sliver.keys, 32 * 1024);
    }
}
