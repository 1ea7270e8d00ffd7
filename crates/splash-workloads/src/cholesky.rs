//! `cholesky` — blocked sparse Cholesky factorization (SPLASH-2 Cholesky,
//! tk16.O input).
//!
//! Supernodes (groups of adjacent columns with identical sparsity) are
//! processed from a shared task queue.  Completing a supernode updates a set
//! of later columns determined by the sparsity pattern.  Two properties the
//! paper's analysis depends on:
//!
//! * the matrix is initialised by processor 0 and the dynamic task queue
//!   destroys any stable page-to-processor affinity, so page operations of
//!   any kind (migration, replication, relocation) rarely pay off — the
//!   *kernel has little reuse of the pages it touches*;
//! * R-NUMA still relocates aggressively (the refetch counters fire on the
//!   streaming updates), and every relocation's flush-and-refetch shows up
//!   as extra misses — which is why cholesky is one of the two applications
//!   where R-NUMA's relocation overhead lands on the critical path.

use crate::config::{Scale, WorkloadConfig};
use crate::program::{Draws, Emit, ProcStreams, Program};
use crate::Workload;
use mem_trace::{AddressSpace, ProcGenerator, ProcId, Segment};
use rand::rngs::SmallRng;
use rand::Rng;

/// Blocked sparse Cholesky factorization.
pub struct Cholesky;

#[derive(Clone)]
struct CholeskyParams {
    /// Number of supernodes in the (synthetic) elimination tree.
    supernodes: u64,
    /// Cache lines per supernode panel.
    lines_per_supernode: u64,
    /// Columns updated per completed supernode.
    updates_per_supernode: u64,
    /// Cache lines touched per column update.
    lines_per_update: u64,
}

impl CholeskyParams {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Reduced => CholeskyParams {
                supernodes: 384,
                lines_per_supernode: 48,
                updates_per_supernode: 6,
                lines_per_update: 16,
            },
            Scale::Paper => CholeskyParams {
                supernodes: 2048,
                lines_per_supernode: 64,
                updates_per_supernode: 8,
                lines_per_update: 24,
            },
            // The elimination tree carries the factor; per-supernode
            // structure is the paper's.
            Scale::Custom(c) => CholeskyParams {
                supernodes: c.of(2048).max(64),
                lines_per_supernode: 64,
                updates_per_supernode: 8,
                lines_per_update: 24,
            },
        }
    }
}

#[derive(Clone)]
struct CholeskyProgram {
    params: CholeskyParams,
    procs: u64,
    seed: u64,
    panels: Segment,
    queue: Segment,
}

/// One processor's slice: the matrix load (phase 0) or its dealt tasks
/// (phase 1, supernodes `p`, `p + procs`, ...).
#[derive(Clone, Copy)]
struct CholeskySlice {
    load: bool,
    first_task: u64,
}

impl CholeskyProgram {
    fn new(cfg: &WorkloadConfig) -> Self {
        let params = CholeskyParams::for_scale(cfg.scale);
        let mut space = AddressSpace::new();
        let panels = space.alloc("panels", params.supernodes * params.lines_per_supernode, 64);
        let queue = space.alloc("task_queue", 64, 64);
        CholeskyProgram {
            params,
            procs: cfg.topology.total_procs() as u64,
            seed: cfg.seed ^ 0xc401,
            panels,
            queue,
        }
    }

    fn panel_line(&self, sn: u64, line: u64) -> mem_trace::GlobalAddr {
        self.panels
            .elem(sn * self.params.lines_per_supernode + line)
    }

    /// The supernode of item `i` of slice `s`.
    fn task(&self, s: &CholeskySlice, i: u64) -> u64 {
        s.first_task + i * self.procs
    }
}

impl Program for CholeskyProgram {
    type Slice = CholeskySlice;

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
            Draws::Dealt
        }
    }

    fn slice(&self, ph: usize, p: usize) -> (u64, CholeskySlice) {
        let p = p as u64;
        let supernodes = self.params.supernodes;
        if ph == 0 {
            // Processor 0 loads the whole matrix.
            let panels = if p == 0 { supernodes } else { 0 };
            let slice = CholeskySlice {
                load: true,
                first_task: 0,
            };
            return (panels, slice);
        }
        // Tasks are dealt round-robin to emulate self-scheduling.
        let tasks = supernodes.saturating_sub(p).div_ceil(self.procs);
        let slice = CholeskySlice {
            load: false,
            first_task: p,
        };
        (tasks, slice)
    }

    fn emit(&self, _p: ProcId, s: &CholeskySlice, i: u64, rng: &mut SmallRng, out: &mut Emit<'_>) {
        // Phase 0: processor 0 loads the sparse matrix, one panel per item:
        // every panel page is homed on node 0 by first-touch.
        if s.load {
            for line in 0..self.params.lines_per_supernode {
                out.write(self.panel_line(i, line));
            }
            return;
        }
        // Phase 1: task-queue driven factorization; each dequeue goes
        // through the queue lock.
        let supernodes = self.params.supernodes;
        let sn = self.task(s, i);
        out.lock(0);
        let q0 = self.queue.elem(0);
        out.read(q0);
        out.write(q0);
        out.unlock(0);

        // Factor the supernode panel: read-modify-write every line once
        // (streaming, no reuse).
        for line in 0..self.params.lines_per_supernode {
            let addr = self.panel_line(sn, line);
            out.read(addr);
            out.write(addr);
        }

        // Update later columns selected by the (synthetic) sparsity
        // pattern: reads of this panel, scattered writes into later panels.
        if sn + 1 >= supernodes {
            return;
        }
        for _ in 0..self.params.updates_per_supernode {
            let target = sn + 1 + rng.gen_range(0..(supernodes - sn - 1)).min(64);
            for line in 0..self.params.lines_per_update {
                let src = rng.gen_range(0..self.params.lines_per_supernode);
                out.read(self.panel_line(sn, src));
                let tgt_addr = self.panel_line(target, line);
                out.read(tgt_addr);
                out.write(tgt_addr);
            }
        }
    }

    fn skip(&self, s: &CholeskySlice, i: u64, rng: &mut SmallRng) {
        if self.task(s, i) + 1 >= self.params.supernodes {
            return;
        }
        for _ in 0..self.params.updates_per_supernode * (1 + self.params.lines_per_update) {
            rng.next_u64();
        }
    }
}

impl Workload for Cholesky {
    fn name(&self) -> &'static str {
        "cholesky"
    }

    fn description(&self) -> &'static str {
        "Blocked sparse Cholesky factorization"
    }

    fn paper_input(&self) -> &'static str {
        "tk16.O"
    }

    fn reduced_input(&self) -> &'static str {
        "synthetic tk16-like matrix, 384 supernodes"
    }

    fn generator(&self, cfg: &WorkloadConfig) -> Box<dyn ProcGenerator> {
        let program = CholeskyProgram::new(cfg);
        Box::new(ProcStreams::new(program, cfg.topology, cfg.think_cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_valid_with_task_queue_locking() {
        let cfg = WorkloadConfig::reduced();
        let trace = Cholesky.generate(&cfg);
        assert!(trace.validate().is_ok());
        let locks = trace
            .per_proc
            .iter()
            .flat_map(|e| e.iter())
            .filter(|e| matches!(e, mem_trace::TraceEvent::Lock(_)))
            .count() as u64;
        assert_eq!(locks, CholeskyParams::for_scale(Scale::Reduced).supernodes);
    }

    #[test]
    fn panels_are_shared_because_of_dynamic_scheduling() {
        let stats = Cholesky.generate(&WorkloadConfig::reduced()).stats();
        assert!(stats.node_shared_pages * 2 > stats.footprint_pages);
    }

    #[test]
    fn writes_are_substantial() {
        let stats = Cholesky.generate(&WorkloadConfig::reduced()).stats();
        assert!(stats.write_fraction() > 0.3);
    }

    #[test]
    fn custom_scale_grows_the_elimination_tree() {
        use crate::config::CustomScale;
        let double = CholeskyParams::for_scale(Scale::Custom(CustomScale::new(2, 1)));
        assert_eq!(double.supernodes, 4096);
        assert_eq!(double.lines_per_supernode, 64, "panel shape is the paper's");
    }
}
