//! `fmm` — adaptive Fast Multipole Method N-body simulation (SPLASH-2 FMM).
//!
//! Space is decomposed into boxes; each box carries multipole and local
//! expansions.  Work is partitioned spatially, so a box's interaction list
//! consists almost entirely of boxes owned by the same or a neighbouring
//! processor — the read-write sharing degree of a box page is low and
//! *static*.  Because the whole box array is initialised by processor 0
//! (as the sequential setup phase of the original program does), first-touch
//! homes every box page on node 0; during the compute phase each page has a
//! single dominant remote user, which is exactly the situation page
//! *migration* exploits (the paper reports 54 migrations and essentially no
//! replications per node for fmm).

use crate::config::{Scale, WorkloadConfig};
use crate::program::{Draws, Emit, ProcStreams, Program};
use crate::util::owned_range;
use crate::Workload;
use mem_trace::{AddressSpace, ProcGenerator, ProcId, Segment, Topology};
use rand::rngs::SmallRng;
use rand::Rng;

/// Fast Multipole Method N-body simulation.
pub struct Fmm;

#[derive(Clone)]
struct FmmParams {
    /// Number of spatial boxes.
    boxes: u64,
    /// Cache lines of expansion data per box.
    lines_per_box: u64,
    /// Timesteps.
    timesteps: u64,
    /// Interaction-list length per box.
    interactions: u64,
}

impl FmmParams {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Reduced => FmmParams {
                boxes: 512,
                lines_per_box: 20,
                timesteps: 10,
                interactions: 16,
            },
            Scale::Paper => FmmParams {
                boxes: 4096,
                lines_per_box: 20,
                timesteps: 5,
                interactions: 27,
            },
            // The box decomposition carries the factor; per-box structure
            // and timesteps are the paper's.
            Scale::Custom(c) => FmmParams {
                boxes: c.of(4096).max(64),
                lines_per_box: 20,
                timesteps: 5,
                interactions: 27,
            },
        }
    }
}

#[derive(Clone)]
struct FmmProgram {
    params: FmmParams,
    topology: Topology,
    seed: u64,
    boxes: Segment,
}

/// One processor's slice: the setup (phase 0) or one timestep over its
/// owned boxes `first_box .. first_box + owned`.
#[derive(Clone, Copy)]
struct FmmSlice {
    setup: bool,
    first_box: u64,
    owned: u64,
}

impl FmmProgram {
    fn new(cfg: &WorkloadConfig) -> Self {
        let params = FmmParams::for_scale(cfg.scale);
        let mut space = AddressSpace::new();
        let boxes = space.alloc("boxes", params.boxes * params.lines_per_box, 64);
        FmmProgram {
            params,
            topology: cfg.topology,
            seed: cfg.seed ^ 0xf33,
            boxes,
        }
    }

    fn line_of(&self, box_id: u64, line: u64) -> mem_trace::GlobalAddr {
        self.boxes.elem(box_id * self.params.lines_per_box + line)
    }

    /// The `i`-th interaction partner of box `box_id` in slice `s`: 80% of
    /// the interaction list stays within the processor's own spatial
    /// region, the rest spills to the neighbouring region.  How many draws
    /// this takes depends on the first one.
    fn neighbor(&self, s: &FmmSlice, box_id: u64, i: u64, rng: &mut SmallRng) -> u64 {
        let (boxes, interactions) = (self.params.boxes, self.params.interactions);
        if rng.gen_range(0..10) < 8 || s.owned == 0 {
            s.first_box + rng.gen_range(0..s.owned.max(1))
        } else {
            (box_id + boxes + i - interactions / 2) % boxes
        }
    }
}

impl Program for FmmProgram {
    type Slice = FmmSlice;

    fn phases(&self) -> usize {
        1 + self.params.timesteps as usize
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn draws(&self, ph: usize) -> Draws {
        if ph == 0 {
            Draws::None
        } else {
            Draws::ByProc
        }
    }

    fn slice(&self, ph: usize, p: usize) -> (u64, FmmSlice) {
        if ph == 0 {
            // Sequential setup: processor 0 initialises every box.
            let boxes = if p == 0 { self.params.boxes } else { 0 };
            let slice = FmmSlice {
                setup: true,
                first_box: 0,
                owned: boxes,
            };
            return (boxes, slice);
        }
        let owned = owned_range(self.params.boxes as usize, self.topology, ProcId(p as u16));
        let slice = FmmSlice {
            setup: false,
            first_box: owned.start as u64,
            owned: owned.len() as u64,
        };
        (slice.owned, slice)
    }

    fn emit(&self, _p: ProcId, s: &FmmSlice, i: u64, rng: &mut SmallRng, out: &mut Emit<'_>) {
        let lines_per_box = self.params.lines_per_box;
        // Setup: processor 0 initialises every box, so every box page is
        // first-touch homed on node 0.
        if s.setup {
            for line in 0..lines_per_box {
                out.write(self.line_of(i, line));
            }
            return;
        }
        // Upward + interaction + downward passes, collapsed into one phase
        // per box: read the interaction list (spatial neighbours, i.e.
        // mostly boxes of the same owner), update own expansions.
        let box_id = s.first_box + i;
        for k in 0..self.params.interactions {
            let neighbor = self.neighbor(s, box_id, k, rng);
            let line = rng.gen_range(0..lines_per_box);
            out.read(self.line_of(neighbor, line));
        }
        for line in 0..lines_per_box / 2 {
            let addr = self.line_of(box_id, line);
            out.read(addr);
            out.write(addr);
        }
    }

    fn skip(&self, s: &FmmSlice, i: u64, rng: &mut SmallRng) {
        let box_id = s.first_box + i;
        for k in 0..self.params.interactions {
            self.neighbor(s, box_id, k, rng);
            rng.next_u64();
        }
    }
}

impl Workload for Fmm {
    fn name(&self) -> &'static str {
        "fmm"
    }

    fn description(&self) -> &'static str {
        "Fast Multipole N-body simulation"
    }

    fn paper_input(&self) -> &'static str {
        "16K particles"
    }

    fn reduced_input(&self) -> &'static str {
        "2K particles (512 boxes)"
    }

    fn generator(&self, cfg: &WorkloadConfig) -> Box<dyn ProcGenerator> {
        let program = FmmProgram::new(cfg);
        Box::new(ProcStreams::new(program, cfg.topology, cfg.think_cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_trace::{PageId, TraceEvent};
    use std::collections::HashMap;

    #[test]
    fn trace_is_valid() {
        let cfg = WorkloadConfig::reduced();
        let trace = Fmm.generate(&cfg);
        assert!(trace.validate().is_ok());
        let stats = trace.stats();
        assert!(stats.reads > stats.writes);
    }

    #[test]
    fn box_pages_have_a_single_dominant_remote_user() {
        // For a sample of pages, the processor that touches the page most
        // after the setup phase should account for the overwhelming majority
        // of its accesses — the property migration exploits.
        let cfg = WorkloadConfig::reduced();
        let trace = Fmm.generate(&cfg);
        let mut per_page: HashMap<PageId, HashMap<usize, u64>> = HashMap::new();
        for (p, events) in trace.per_proc.iter().enumerate() {
            if p == 0 {
                continue; // skip the initialising processor
            }
            for e in events {
                if let TraceEvent::Access(m) = e {
                    *per_page.entry(m.page()).or_default().entry(p).or_insert(0) += 1;
                }
            }
        }
        let mut dominated = 0usize;
        let mut total = 0usize;
        for (_page, counts) in per_page.iter() {
            let sum: u64 = counts.values().sum();
            let max = counts.values().copied().max().unwrap_or(0);
            if sum >= 50 {
                total += 1;
                if max * 10 >= sum * 7 {
                    dominated += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            dominated * 10 >= total * 6,
            "only {dominated}/{total} pages are dominated by one user"
        );
    }

    #[test]
    fn custom_scale_grows_the_box_decomposition() {
        use crate::config::CustomScale;
        let double = FmmParams::for_scale(Scale::Custom(CustomScale::new(2, 1)));
        assert_eq!(double.boxes, 8192);
        assert_eq!(double.lines_per_box, 20);
        assert_eq!(double.timesteps, 5);
    }
}
