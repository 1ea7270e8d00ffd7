//! `lu` — blocked dense LU factorization (SPLASH-2 LU, non-contiguous
//! blocks).
//!
//! The matrix is factored in `B x B` blocks.  At elimination step `k` the
//! owner of the diagonal block factors it, the owners of the perimeter
//! blocks (block row and block column `k`) update them against the diagonal
//! block, and every interior block `(i, j)` with `i, j > k` is updated by
//! its owner against the perimeter blocks `(i, k)` and `(k, j)`.
//!
//! The sharing property the paper's analysis relies on: at every step the
//! perimeter blocks are *read by many nodes* (every interior-block owner in
//! the same block row/column) while being written only by their single
//! owner during the preceding phase — separated by barriers.  This is the
//! per-iteration "read phase" that makes `lu` the one application in the
//! study that benefits substantially from page replication.  Interior
//! blocks, in contrast, are read-write private to their owner, so their
//! capacity misses are only removed by R-NUMA's page cache.
//!
//! Blocks are assigned to processors in a 2-D scatter, as in SPLASH-2.

use crate::config::{Scale, WorkloadConfig};
use crate::program::{Draws, Emit, ProcStreams, Program};
use crate::Workload;
use mem_trace::{AddressSpace, ProcGenerator, ProcId, Segment, BLOCK_SIZE};
use rand::rngs::SmallRng;

/// Blocked dense LU factorization.
pub struct Lu;

/// Elements (doubles) per cache line.
const DOUBLES_PER_LINE: u64 = BLOCK_SIZE / 8;

#[derive(Clone)]
struct LuParams {
    /// Matrix dimension (elements).
    n: u64,
    /// Block dimension (elements).
    block: u64,
}

impl LuParams {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Reduced => LuParams { n: 192, block: 16 },
            Scale::Paper => LuParams { n: 512, block: 16 },
            // The matrix *area* carries the factor; the dimension is
            // rounded down to whole 16x16 blocks (at least two per side so
            // every phase exists).
            Scale::Custom(c) => LuParams {
                n: (c.dim(512) / 16 * 16).max(32),
                block: 16,
            },
        }
    }

    fn blocks_per_dim(&self) -> u64 {
        self.n / self.block
    }
}

/// The lu phases: initialization, then per elimination step `k` the
/// diagonal block, the perimeter blocks and the interior blocks.
#[derive(Clone, Copy)]
enum Phase {
    Init,
    Diag,
    Perim,
    Interior,
}

#[derive(Clone)]
struct LuProgram {
    params: LuParams,
    nb: u64,
    total_procs: u64,
    matrix: Segment,
}

/// One processor's slice of a phase of elimination step `k`.
#[derive(Clone, Copy)]
struct LuSlice {
    phase: Phase,
    k: u64,
}

impl LuProgram {
    fn new(cfg: &WorkloadConfig) -> Self {
        let params = LuParams::for_scale(cfg.scale);
        let nb = params.blocks_per_dim();
        let mut space = AddressSpace::new();
        let matrix = space.alloc("matrix", params.n * params.n, 8);
        LuProgram {
            params,
            nb,
            total_procs: cfg.topology.total_procs() as u64,
            matrix,
        }
    }

    /// 2-D scatter assignment of blocks to processors (SPLASH-2 LU).
    fn owner(&self, bi: u64, bj: u64) -> ProcId {
        ProcId(((bi * self.nb + bj) % self.total_procs) as u16)
    }

    /// The blocks `(bi, bj)`, `bj` in `from..nb`, that `p` owns, in order.
    fn owned_in_row(&self, p: ProcId, bi: u64, from: u64) -> impl Iterator<Item = u64> {
        let first = first_dealt(bi * self.nb, from, self.total_procs, u64::from(p.0));
        (first..self.nb).step_by(self.total_procs as usize)
    }

    /// Visit the first address of every cache line of block `(bi, bj)` of
    /// the row-major `n x n` matrix.
    fn for_each_line(&self, bi: u64, bj: u64, mut f: impl FnMut(mem_trace::GlobalAddr)) {
        let row0 = bi * self.params.block;
        let col0 = bj * self.params.block;
        for r in 0..self.params.block {
            let mut c = 0;
            while c < self.params.block {
                f(self.matrix.elem2(row0 + r, col0 + c, self.params.n));
                c += DOUBLES_PER_LINE;
            }
        }
    }

    /// Read every cache line of block `(bi, bj)`.
    fn read_block(&self, out: &mut Emit<'_>, bi: u64, bj: u64) {
        self.for_each_line(bi, bj, |addr| out.read(addr));
    }

    /// Read-modify-write every cache line of block `(bi, bj)`.
    fn touch_block(&self, out: &mut Emit<'_>, bi: u64, bj: u64) {
        self.for_each_line(bi, bj, |addr| {
            out.read(addr);
            out.write(addr);
        });
    }
}

/// The first index `j >= lo` with `(base + j) % procs == p`: where a
/// processor's items start in a sequence dealt round-robin from `base`.
fn first_dealt(base: u64, lo: u64, procs: u64, p: u64) -> u64 {
    let r = (base + lo) % procs;
    lo + (p + procs - r) % procs
}

impl Program for LuProgram {
    type Slice = LuSlice;

    fn phases(&self) -> usize {
        1 + 3 * self.nb as usize
    }

    fn seed(&self) -> u64 {
        0
    }

    fn draws(&self, _ph: usize) -> Draws {
        Draws::None
    }

    fn slice(&self, ph: usize, p: usize) -> (u64, LuSlice) {
        if ph == 0 {
            let slice = LuSlice {
                phase: Phase::Init,
                k: 0,
            };
            return (self.nb, slice);
        }
        let k = (ph as u64 - 1) / 3;
        let phase = [Phase::Diag, Phase::Perim, Phase::Interior][(ph - 1) % 3];
        let items = match phase {
            Phase::Diag => u64::from(usize::from(self.owner(k, k).0) == p),
            _ => self.nb - k - 1,
        };
        (items, LuSlice { phase, k })
    }

    fn emit(&self, p: ProcId, s: &LuSlice, i: u64, _rng: &mut SmallRng, out: &mut Emit<'_>) {
        let k = s.k;
        match s.phase {
            // Initialization: every owner touches (writes) its own blocks
            // so the first-touch policy places pages at their owners.  One
            // item per block row.
            Phase::Init => {
                for bj in self.owned_in_row(p, i, 0) {
                    self.touch_block(out, i, bj);
                }
            }
            // Phase 1: factor the diagonal block.
            Phase::Diag => self.touch_block(out, k, k),
            // Phase 2: perimeter blocks read the diagonal block and update
            // themselves.  One item per perimeter index.
            Phase::Perim => {
                let i = k + 1 + i;
                if self.owner(i, k) == p {
                    self.read_block(out, k, k);
                    self.touch_block(out, i, k);
                }
                if self.owner(k, i) == p {
                    self.read_block(out, k, k);
                    self.touch_block(out, k, i);
                }
            }
            // Phase 3: interior blocks read the two perimeter blocks — the
            // read-shared phase — and update themselves.  One item per
            // interior block row.
            Phase::Interior => {
                let i = k + 1 + i;
                for j in self.owned_in_row(p, i, k + 1) {
                    self.read_block(out, i, k);
                    self.read_block(out, k, j);
                    self.touch_block(out, i, j);
                }
            }
        }
    }

    fn skip(&self, _s: &LuSlice, _i: u64, _rng: &mut SmallRng) {}
}

impl Workload for Lu {
    fn name(&self) -> &'static str {
        "lu"
    }

    fn description(&self) -> &'static str {
        "Blocked dense LU factorization"
    }

    fn paper_input(&self) -> &'static str {
        "512x512 matrix, 16x16 blocks"
    }

    fn reduced_input(&self) -> &'static str {
        "192x192 matrix, 16x16 blocks"
    }

    fn generator(&self, cfg: &WorkloadConfig) -> Box<dyn ProcGenerator> {
        let program = LuProgram::new(cfg);
        Box::new(ProcStreams::new(program, cfg.topology, cfg.think_cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_trace::Topology;

    #[test]
    fn reduced_trace_is_valid_and_has_a_read_phase() {
        let cfg = WorkloadConfig::reduced();
        let trace = Lu.generate(&cfg);
        assert!(trace.validate().is_ok());
        let stats = trace.stats();
        // Reads dominate: the interior update reads two blocks for every
        // block it writes.
        assert!(stats.reads > stats.writes);
        // Barriers separate every phase of every elimination step.
        assert!(stats.barriers >= 3 * LuParams::for_scale(Scale::Reduced).blocks_per_dim());
        // The matrix is shared across nodes.
        assert!(stats.node_shared_pages > 4);
    }

    #[test]
    fn paper_scale_is_larger() {
        let small = Lu.generate(&WorkloadConfig::reduced().with_topology(Topology::new(2, 2)));
        // Only compare footprints (generating the full paper-size trace is
        // slow); the paper matrix is several times larger.
        let params_small = LuParams::for_scale(Scale::Reduced);
        let params_big = LuParams::for_scale(Scale::Paper);
        assert!(params_big.n * params_big.n >= 4 * params_small.n * params_small.n);
        assert!(small.stats().footprint_pages >= params_small.n * params_small.n * 8 / 4096);
    }

    #[test]
    fn blocks_are_scattered_across_processors() {
        let cfg = WorkloadConfig::reduced();
        let trace = Lu.generate(&cfg);
        // Every processor must issue some accesses.
        for (i, events) in trace.per_proc.iter().enumerate() {
            let accesses = events.iter().filter(|e| e.is_access()).count();
            assert!(accesses > 0, "processor {i} issues no accesses");
        }
    }

    #[test]
    fn custom_scale_grows_the_matrix_in_whole_blocks() {
        use crate::config::CustomScale;
        let quad = LuParams::for_scale(Scale::Custom(CustomScale::new(4, 1)));
        assert_eq!(quad.n, 1024, "4x area = 2x side, already block-aligned");
        assert_eq!(quad.block, 16);
        let odd = LuParams::for_scale(Scale::Custom(CustomScale::new(1, 3)));
        assert_eq!(odd.n % 16, 0, "rounded to whole blocks");
        assert!(odd.n >= 32);
    }
}
