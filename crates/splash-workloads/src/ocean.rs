//! `ocean` — red/black Gauss-Seidel style stencil relaxation over a square
//! ocean grid (the time-consuming kernel of SPLASH-2 Ocean).
//!
//! The grid is partitioned into contiguous bands of rows, one per processor.
//! On every sweep a processor reads the five-point stencil around each of
//! its grid points and writes the point.  The only inter-node communication
//! is at partition boundaries, so the read-write sharing degree of any page
//! is at most two — and, critically for the paper, the sharers are *stable*:
//! there is no single dominant remote user to migrate a boundary page to and
//! no read-only page to replicate.  This is why ocean shows only a handful
//! of page migrations and no replications in Table 4, while R-NUMA can still
//! absorb the capacity misses on each node's own (large) band.

use crate::config::{Scale, WorkloadConfig};
use crate::program::{Draws, Emit, ProcStreams, Program};
use crate::util::owned_range;
use crate::Workload;
use mem_trace::{AddressSpace, ProcGenerator, ProcId, Segment, Topology};
use rand::rngs::SmallRng;

/// Ocean simulation (stencil relaxation kernel).
pub struct Ocean;

#[derive(Clone)]
struct OceanParams {
    /// Grid dimension (points per side).
    n: u64,
    /// Relaxation sweeps.
    sweeps: u64,
}

impl OceanParams {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            // The grid itself matches the paper (130x130 is already small);
            // the reduced preset only trims the number of relaxation sweeps.
            Scale::Reduced => OceanParams { n: 130, sweeps: 8 },
            Scale::Paper => OceanParams { n: 130, sweeps: 12 },
            // The grid *area* carries the factor (so footprint scales
            // linearly with it); the sweep count is the paper's.  The floor
            // keeps a band and a stencil column per processor on the paper
            // cluster even at unit-test slivers.
            Scale::Custom(c) => OceanParams {
                n: c.dim(130).max(34),
                sweeps: 12,
            },
        }
    }
}

#[derive(Clone)]
struct OceanProgram {
    params: OceanParams,
    topology: Topology,
    grid: Segment,
    rhs: Segment,
}

/// One processor's slice: its band of rows, for initialization (phase 0)
/// or one sweep.
#[derive(Clone, Copy)]
struct OceanSlice {
    init: bool,
    first_row: u64,
}

impl OceanProgram {
    fn new(cfg: &WorkloadConfig) -> Self {
        let params = OceanParams::for_scale(cfg.scale);
        let n = params.n;
        let mut space = AddressSpace::new();
        // Two grids: the solution grid (read/written in place) and the
        // right-hand side (read-only after initialization), mirroring the
        // multigrid arrays of the original program.
        let grid = space.alloc("grid", n * n, 8);
        let rhs = space.alloc("rhs", n * n, 8);
        OceanProgram {
            params,
            topology: cfg.topology,
            grid,
            rhs,
        }
    }
}

impl Program for OceanProgram {
    type Slice = OceanSlice;

    fn phases(&self) -> usize {
        1 + self.params.sweeps as usize
    }

    fn seed(&self) -> u64 {
        0
    }

    fn draws(&self, _ph: usize) -> Draws {
        Draws::None
    }

    fn slice(&self, ph: usize, p: usize) -> (u64, OceanSlice) {
        let band = owned_range(self.params.n as usize, self.topology, ProcId(p as u16));
        let slice = OceanSlice {
            init: ph == 0,
            first_row: band.start as u64,
        };
        (band.len() as u64, slice)
    }

    fn emit(&self, _p: ProcId, s: &OceanSlice, i: u64, _rng: &mut SmallRng, out: &mut Emit<'_>) {
        let n = self.params.n;
        let row = s.first_row + i;
        // Initialization: every processor writes its own band of both grids
        // so first-touch places the pages on the owner's node.
        if s.init {
            let mut col = 0u64;
            while col < n {
                out.write(self.grid.elem2(row, col, n));
                out.write(self.rhs.elem2(row, col, n));
                col += 8; // one cache line of doubles
            }
            return;
        }
        if row == 0 || row == n - 1 {
            return; // fixed boundary
        }
        let mut col = 8u64;
        while col < n - 1 {
            // Five-point stencil at line granularity: the north and south
            // neighbours live in adjacent rows (the first/last rows of a
            // band are remote), east/west are in the same cache line.
            out.read(self.grid.elem2(row - 1, col, n));
            out.read(self.grid.elem2(row + 1, col, n));
            out.read(self.grid.elem2(row, col, n));
            out.read(self.rhs.elem2(row, col, n));
            out.write(self.grid.elem2(row, col, n));
            col += 8;
        }
    }

    fn skip(&self, _s: &OceanSlice, _i: u64, _rng: &mut SmallRng) {}
}

impl Workload for Ocean {
    fn name(&self) -> &'static str {
        "ocean"
    }

    fn description(&self) -> &'static str {
        "Ocean simulation (stencil relaxation)"
    }

    fn paper_input(&self) -> &'static str {
        "130x130 ocean"
    }

    fn reduced_input(&self) -> &'static str {
        "130x130 ocean, 8 sweeps"
    }

    fn generator(&self, cfg: &WorkloadConfig) -> Box<dyn ProcGenerator> {
        let program = OceanProgram::new(cfg);
        Box::new(ProcStreams::new(program, cfg.topology, cfg.think_cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_valid_with_boundary_sharing_only() {
        let cfg = WorkloadConfig::reduced();
        let trace = Ocean.generate(&cfg);
        assert!(trace.validate().is_ok());
        let stats = trace.stats();
        // Sharing exists (band boundaries) but most pages are private to one
        // node: the shared fraction must be well under half.
        assert!(stats.node_shared_pages > 0);
        assert!(
            (stats.node_shared_pages as f64) < 0.5 * stats.footprint_pages as f64,
            "ocean should be mostly node-private ({} of {} pages shared)",
            stats.node_shared_pages,
            stats.footprint_pages
        );
    }

    #[test]
    fn one_barrier_per_sweep_plus_initialization() {
        let cfg = WorkloadConfig::reduced();
        let trace = Ocean.generate(&cfg);
        let params = OceanParams::for_scale(Scale::Reduced);
        assert_eq!(trace.stats().barriers, params.sweeps + 1);
    }

    #[test]
    fn writes_are_a_substantial_fraction() {
        let stats = Ocean.generate(&WorkloadConfig::reduced()).stats();
        let wf = stats.write_fraction();
        assert!(wf > 0.15 && wf < 0.5, "write fraction {wf}");
    }

    #[test]
    fn custom_scale_grows_the_grid_area() {
        use crate::config::CustomScale;
        let quad = OceanParams::for_scale(Scale::Custom(CustomScale::new(4, 1)));
        assert_eq!(quad.n, 260, "4x area = 2x side");
        assert_eq!(quad.sweeps, 12, "sweep count is the paper's");
        let sliver = OceanParams::for_scale(Scale::Custom(CustomScale::new(1, 32)));
        assert_eq!(sliver.n, 34, "floored to keep every band populated");
    }
}
