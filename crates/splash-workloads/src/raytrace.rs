//! `raytrace` — 3-D scene rendering by ray tracing (SPLASH-2 Raytrace, car
//! scene).
//!
//! The scene database (geometry plus the hierarchical uniform grid used to
//! accelerate intersection tests) is built once and then *read* by every
//! processor while tracing rays; rays are distributed through a work queue.
//! The upper levels of the acceleration structure are touched by every ray
//! and are therefore natural replication candidates, while the bulk of the
//! scene is sampled irregularly so the processor caches thrash — R-NUMA
//! relocates those pages in large numbers (1059 per node in Table 4), but,
//! as the paper notes, the remaining misses are largely off the critical
//! path because rays are independent and plentiful.

use crate::config::{Scale, WorkloadConfig};
use crate::program::{Draws, Emit, ProcStreams, Program};
use crate::util::owned_range;
use crate::Workload;
use mem_trace::{AddressSpace, ProcGenerator, ProcId, Segment, Topology};
use rand::rngs::SmallRng;
use rand::Rng;

/// Ray-traced rendering of a 3-D scene.
pub struct Raytrace;

#[derive(Clone)]
struct RaytraceParams {
    /// Cache lines of scene data (geometry + grid).
    scene_lines: u64,
    /// Cache lines of "hot" acceleration-structure data (top grid levels).
    hot_lines: u64,
    /// Rays traced in total.
    rays: u64,
    /// Scene lines read per ray.
    reads_per_ray: u64,
}

impl RaytraceParams {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Reduced => RaytraceParams {
                scene_lines: 12 * 1024, // 768 KB of scene data
                hot_lines: 256,
                rays: 24 * 1024,
                reads_per_ray: 20,
            },
            Scale::Paper => RaytraceParams {
                scene_lines: 64 * 1024, // 4 MB ("car")
                hot_lines: 512,
                rays: 64 * 1024,
                reads_per_ray: 28,
            },
            // Scene and ray counts carry the factor; the hot top levels of
            // the acceleration structure stay the paper's size (clamped
            // into the scene at slivers), as a deeper grid would not grow
            // its root.
            Scale::Custom(c) => {
                let scene_lines = c.of(64 * 1024).max(1024);
                RaytraceParams {
                    scene_lines,
                    hot_lines: 512.min(scene_lines / 4).max(1),
                    rays: c.of(64 * 1024).max(1024),
                    reads_per_ray: 28,
                }
            }
        }
    }
}

/// Rays dequeued per trip through the shared work queue.
const RAYS_PER_BUNDLE: u64 = 32;

#[derive(Clone)]
struct RaytraceProgram {
    params: RaytraceParams,
    topology: Topology,
    seed: u64,
    scene: Segment,
    framebuffer: Segment,
    queue: Segment,
}

/// One processor's slice: the scene build (phase 0) or its share of rays
/// (phase 1), starting at `first_ray`.
#[derive(Clone, Copy)]
struct RaytraceSlice {
    build: bool,
    first_ray: u64,
}

impl RaytraceProgram {
    fn new(cfg: &WorkloadConfig) -> Self {
        let params = RaytraceParams::for_scale(cfg.scale);
        let mut space = AddressSpace::new();
        let scene = space.alloc("scene", params.scene_lines, 64);
        let framebuffer = space.alloc("framebuffer", params.rays, 4);
        let queue = space.alloc("ray_queue", 16, 64);
        RaytraceProgram {
            params,
            topology: cfg.topology,
            seed: cfg.seed ^ 0x4a11,
            scene,
            framebuffer,
            queue,
        }
    }
}

impl Program for RaytraceProgram {
    type Slice = RaytraceSlice;

    fn phases(&self) -> usize {
        2
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

    fn slice(&self, ph: usize, p: usize) -> (u64, RaytraceSlice) {
        if ph == 0 {
            // Processor 0 builds the scene database alone.
            let lines = if p == 0 { self.params.scene_lines } else { 0 };
            let slice = RaytraceSlice {
                build: true,
                first_ray: 0,
            };
            return (lines, slice);
        }
        let rays = owned_range(self.params.rays as usize, self.topology, ProcId(p as u16));
        let slice = RaytraceSlice {
            build: false,
            first_ray: rays.start as u64,
        };
        (rays.len() as u64, slice)
    }

    fn emit(&self, _p: ProcId, s: &RaytraceSlice, i: u64, rng: &mut SmallRng, out: &mut Emit<'_>) {
        // Phase 0: processor 0 builds the scene database; its pages are
        // homed on node 0 and never written again.
        if s.build {
            out.write(self.scene.elem(i));
            return;
        }
        // Phase 1: each processor traces an equal share of rays, dequeuing
        // bundles of rays from the shared work queue.
        if i.is_multiple_of(RAYS_PER_BUNDLE) {
            out.lock(0);
            let q0 = self.queue.elem(0);
            out.read(q0);
            out.write(q0);
            out.unlock(0);
        }
        // Walk the acceleration structure: the first few reads hit the hot
        // top levels, the rest sample the scene irregularly.
        for step in 0..self.params.reads_per_ray {
            let line = if step < 6 {
                rng.gen_range(0..self.params.hot_lines)
            } else {
                rng.gen_range(0..self.params.scene_lines)
            };
            out.read(self.scene.elem(line));
        }
        // Write the pixel (private to this processor's band).
        out.write(self.framebuffer.elem(s.first_ray + i));
    }

    fn skip(&self, _s: &RaytraceSlice, _i: u64, rng: &mut SmallRng) {
        for _ in 0..self.params.reads_per_ray {
            rng.next_u64();
        }
    }
}

impl Workload for Raytrace {
    fn name(&self) -> &'static str {
        "raytrace"
    }

    fn description(&self) -> &'static str {
        "3-D scene rendering using ray-tracing"
    }

    fn paper_input(&self) -> &'static str {
        "car"
    }

    fn reduced_input(&self) -> &'static str {
        "car (reduced: 768 KB scene, 24K rays)"
    }

    fn generator(&self, cfg: &WorkloadConfig) -> Box<dyn ProcGenerator> {
        let program = RaytraceProgram::new(cfg);
        Box::new(ProcStreams::new(program, cfg.topology, cfg.think_cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_valid_and_overwhelmingly_read_only() {
        let cfg = WorkloadConfig::reduced();
        let trace = Raytrace.generate(&cfg);
        assert!(trace.validate().is_ok());
        let stats = trace.stats();
        assert!(
            stats.write_fraction() < 0.2,
            "write fraction {}",
            stats.write_fraction()
        );
    }

    #[test]
    fn scene_pages_are_read_by_every_node() {
        let stats = Raytrace.generate(&WorkloadConfig::reduced()).stats();
        // The scene dominates the footprint and is shared.
        assert!(stats.node_shared_pages * 2 > stats.footprint_pages);
    }

    #[test]
    fn scene_written_only_during_setup() {
        let cfg = WorkloadConfig::reduced();
        let trace = Raytrace.generate(&cfg);
        // After the first barrier no processor writes scene pages (pages of
        // the first allocated segment).
        let params = RaytraceParams::for_scale(Scale::Reduced);
        let scene_pages = params.scene_lines * 64 / mem_trace::PAGE_SIZE;
        for events in &trace.per_proc {
            let mut past_barrier = false;
            for e in events {
                match e {
                    mem_trace::TraceEvent::Barrier(0) => past_barrier = true,
                    mem_trace::TraceEvent::Access(m) if past_barrier && m.kind.is_write() => {
                        assert!(
                            m.page().0 >= scene_pages,
                            "scene page {:?} written after setup",
                            m.page()
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn custom_scale_grows_scene_and_rays() {
        use crate::config::CustomScale;
        let double = RaytraceParams::for_scale(Scale::Custom(CustomScale::new(2, 1)));
        assert_eq!(double.scene_lines, 128 * 1024);
        assert_eq!(double.rays, 128 * 1024);
        assert_eq!(double.hot_lines, 512, "grid root stays the paper's size");
        let sliver = RaytraceParams::for_scale(Scale::Custom(CustomScale::new(1, 32)));
        assert!(sliver.hot_lines <= sliver.scene_lines);
    }
}
