//! `barnes` — Barnes-Hut hierarchical N-body simulation (SPLASH-2 Barnes).
//!
//! Each timestep builds an octree over the bodies (small, write-shared,
//! lock-protected), computes forces by walking the tree — the upper tree
//! cells are read by *every* processor, making their pages replication
//! candidates — and finally updates each processor's own bodies.  Body
//! pages are read by several other processors during force computation
//! (high read-write sharing degree), which is why page migration alone
//! cannot remove their capacity misses and, as the paper observes, can even
//! hurt by migrating read-mostly pages back and forth.

use crate::config::{Scale, WorkloadConfig};
use crate::program::{Draws, Emit, ProcStreams, Program};
use crate::util::owned_range;
use crate::Workload;
use mem_trace::{AddressSpace, ProcGenerator, ProcId, Segment, Topology};
use rand::rngs::SmallRng;
use rand::Rng;

/// Barnes-Hut N-body simulation.
pub struct Barnes;

#[derive(Clone)]
struct BarnesParams {
    bodies: u64,
    timesteps: u64,
    /// Tree cells (interior nodes of the octree), roughly bodies / 2.
    cells: u64,
    /// Cells visited per force evaluation.
    cells_per_walk: u64,
    /// Other bodies read per force evaluation.
    neighbors_per_body: u64,
}

impl BarnesParams {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Reduced => BarnesParams {
                bodies: 2048,
                timesteps: 6,
                cells: 1024,
                cells_per_walk: 12,
                neighbors_per_body: 6,
            },
            Scale::Paper => BarnesParams {
                bodies: 16 * 1024,
                timesteps: 4,
                cells: 8 * 1024,
                cells_per_walk: 16,
                neighbors_per_body: 8,
            },
            // Bodies (and the tree over them) carry the factor; walk depth
            // and timesteps are the paper's.
            Scale::Custom(c) => BarnesParams {
                bodies: c.of(16 * 1024).max(64),
                timesteps: 4,
                cells: c.of(8 * 1024).max(32),
                cells_per_walk: 16,
                neighbors_per_body: 8,
            },
        }
    }
}

/// The barnes phases: initialization, then per timestep the tree build,
/// the force computation and the position update.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Init,
    Build,
    Force,
    Update,
}

#[derive(Clone)]
struct BarnesProgram {
    params: BarnesParams,
    topology: Topology,
    seed: u64,
    bodies: Segment,
    cells: Segment,
}

/// One processor's slice of a phase over its owned bodies.
#[derive(Clone, Copy)]
struct BarnesSlice {
    phase: Phase,
    first_body: u64,
}

/// Bodies per tree-build insertion (every 8th owned body is inserted).
const BUILD_STRIDE: u64 = 8;

impl BarnesProgram {
    fn new(cfg: &WorkloadConfig) -> Self {
        let params = BarnesParams::for_scale(cfg.scale);
        let mut space = AddressSpace::new();
        // One body per cache line (positions, velocities, mass).
        let bodies = space.alloc("bodies", params.bodies, 64);
        // Tree cells are two cache lines (children pointers + multipole).
        let cells = space.alloc("cells", params.cells, 128);
        BarnesProgram {
            params,
            topology: cfg.topology,
            seed: cfg.seed ^ 0xba53,
            bodies,
            cells,
        }
    }

    fn phase(&self, ph: usize) -> Phase {
        match ph {
            0 => Phase::Init,
            _ => [Phase::Build, Phase::Force, Phase::Update][(ph - 1) % 3],
        }
    }
}

impl Program for BarnesProgram {
    type Slice = BarnesSlice;

    fn phases(&self) -> usize {
        1 + 3 * self.params.timesteps as usize
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn draws(&self, ph: usize) -> Draws {
        match self.phase(ph) {
            Phase::Build | Phase::Force => Draws::ByProc,
            Phase::Init | Phase::Update => Draws::None,
        }
    }

    fn slice(&self, ph: usize, p: usize) -> (u64, BarnesSlice) {
        let phase = self.phase(ph);
        let owned = owned_range(self.params.bodies as usize, self.topology, ProcId(p as u16));
        let len = owned.len() as u64;
        let items = if phase == Phase::Build {
            len.div_ceil(BUILD_STRIDE)
        } else {
            len
        };
        let slice = BarnesSlice {
            phase,
            first_body: owned.start as u64,
        };
        (items, slice)
    }

    fn emit(&self, _p: ProcId, s: &BarnesSlice, i: u64, rng: &mut SmallRng, out: &mut Emit<'_>) {
        let params = &self.params;
        match s.phase {
            // Initialization: owners write their own bodies.
            Phase::Init => out.write(self.bodies.elem(s.first_body + i)),
            // Phase 1: tree build.  Every processor inserts its bodies,
            // writing a root-to-leaf path of cells under a per-subtree lock.
            // The upper cells (small indices) are touched by everyone.
            Phase::Build => {
                let body = s.first_body + i * BUILD_STRIDE;
                let lock_id = (body as u32 % 8) + 1;
                out.lock(lock_id);
                // Path from the root: geometrically distributed indices.
                let mut idx = 0u64;
                for depth in 0..4u64 {
                    out.read(self.cells.elem(idx));
                    out.write(self.cells.elem(idx));
                    let fanout = 1 + rng.gen_range(0..4u64);
                    idx = (idx * 4 + fanout + depth) % params.cells;
                }
                out.unlock(lock_id);
            }
            // Phase 2: force computation.  Each body's owner walks the upper
            // tree (read-shared cells) and reads a sample of other bodies,
            // then writes its own body's accelerations.
            Phase::Force => {
                for walk in 0..params.cells_per_walk {
                    // Walks are heavily biased towards the top of the tree,
                    // which is what makes those pages read-shared by all
                    // nodes.
                    let cell = if walk < 4 {
                        walk
                    } else {
                        rng.gen_range(0..params.cells)
                    };
                    out.read(self.cells.elem(cell));
                }
                for _ in 0..params.neighbors_per_body {
                    let other = rng.gen_range(0..params.bodies);
                    out.read(self.bodies.elem(other));
                }
                out.write(self.bodies.elem(s.first_body + i));
            }
            // Phase 3: position update — private to each owner.
            Phase::Update => {
                let body = self.bodies.elem(s.first_body + i);
                out.read(body);
                out.write(body);
            }
        }
    }

    fn skip(&self, s: &BarnesSlice, _i: u64, rng: &mut SmallRng) {
        let params = &self.params;
        let draws = match s.phase {
            Phase::Build => 4,
            Phase::Force => params.cells_per_walk.saturating_sub(4) + params.neighbors_per_body,
            Phase::Init | Phase::Update => 0,
        };
        for _ in 0..draws {
            rng.next_u64();
        }
    }
}

impl Workload for Barnes {
    fn name(&self) -> &'static str {
        "barnes"
    }

    fn description(&self) -> &'static str {
        "Barnes-Hut N-body simulation"
    }

    fn paper_input(&self) -> &'static str {
        "16K particles"
    }

    fn reduced_input(&self) -> &'static str {
        "2K particles"
    }

    fn generator(&self, cfg: &WorkloadConfig) -> Box<dyn ProcGenerator> {
        let program = BarnesProgram::new(cfg);
        Box::new(ProcStreams::new(program, cfg.topology, cfg.think_cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_valid_and_read_mostly() {
        let cfg = WorkloadConfig::reduced();
        let trace = Barnes.generate(&cfg);
        assert!(trace.validate().is_ok());
        let stats = trace.stats();
        assert!(stats.reads > 2 * stats.writes);
        assert!(stats.barriers > 3 * BarnesParams::for_scale(Scale::Reduced).timesteps);
    }

    #[test]
    fn tree_cells_are_shared_by_all_nodes() {
        let cfg = WorkloadConfig::reduced();
        let stats = Barnes.generate(&cfg).stats();
        // Bodies + cells are both shared: a large fraction of the footprint
        // is touched by more than one node.
        assert!(stats.node_shared_pages * 3 > stats.footprint_pages);
    }

    #[test]
    fn uses_locks_for_tree_construction() {
        let cfg = WorkloadConfig::reduced();
        let trace = Barnes.generate(&cfg);
        let has_locks = trace.per_proc.iter().any(|events| {
            events
                .iter()
                .any(|e| matches!(e, mem_trace::TraceEvent::Lock(_)))
        });
        assert!(has_locks);
    }

    #[test]
    fn custom_scale_grows_bodies_and_cells() {
        use crate::config::CustomScale;
        let double = BarnesParams::for_scale(Scale::Custom(CustomScale::new(2, 1)));
        assert_eq!(double.bodies, 32 * 1024);
        assert_eq!(double.cells, 16 * 1024);
        assert_eq!(double.timesteps, 4, "timesteps are the paper's");
    }
}
