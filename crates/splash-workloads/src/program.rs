//! The per-processor generation engine shared by the seven generators.
//!
//! Every Table 2 generator is a sequence of *phases*, each ending in a
//! global barrier.  In a phase each processor works through its own list
//! of *items* (a key line, a ray, a body, a block row, a task), and an item
//! is a short run of events.  A generator describes that structure as a
//! [`Program`]; [`ProcStreams`] turns it into a [`ProcGenerator`] that
//! produces any processor's stream on demand, one bounded slice at a time,
//! without generating (or parking) anything of the other processors.
//!
//! # The random stream
//!
//! The only thing processors share is the generator's one xoshiro256**
//! stream, drawn in the original program order: within a phase, processor
//! 0's items first, then processor 1's, and so on ([`Draws::ByProc`]), or
//! items dealt round-robin to the processors and drawn in dealing order
//! ([`Draws::Dealt`], cholesky's task queue).  Each `gen_range` takes
//! exactly one draw, so a processor's state at the start of its slice is
//! the phase's start state advanced by the draws of everything before it.
//! The first processor to enter a phase runs one sequential draw-only pass
//! ([`Program::skip`]) that records every slice's (or dealt item's) start
//! state; later processors look theirs up.  RNG work per run is therefore
//! O(total draws) whatever the processor count.

use mem_trace::{GlobalAddr, ProcGenerator, ProcId, Topology, TraceEvent};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Events a fill aims for: it stops at the first item boundary at or past
/// this many, so a processor's staged slice is this plus at most one item.
pub const FILL_EVENTS: usize = 256;

/// Appends one processor's events, with the implicit think-cycle delay
/// before every access.
pub(crate) struct Emit<'a> {
    out: &'a mut Vec<TraceEvent>,
    think: u32,
}

impl Emit<'_> {
    #[inline]
    fn think(&mut self) {
        if self.think > 0 {
            self.out.push(TraceEvent::Compute(self.think));
        }
    }

    /// A shared-memory read.
    #[inline]
    pub(crate) fn read(&mut self, addr: GlobalAddr) {
        self.think();
        self.out.push(TraceEvent::read(addr));
    }

    /// A shared-memory write.
    #[inline]
    pub(crate) fn write(&mut self, addr: GlobalAddr) {
        self.think();
        self.out.push(TraceEvent::write(addr));
    }

    /// A lock acquire.
    pub(crate) fn lock(&mut self, lock: u32) {
        self.out.push(TraceEvent::Lock(lock));
    }

    /// A lock release.
    pub(crate) fn unlock(&mut self, lock: u32) {
        self.out.push(TraceEvent::Unlock(lock));
    }
}

/// How a phase's random draws are ordered in the original program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Draws {
    /// The phase draws nothing.
    None,
    /// Processor 0 draws through all its items, then processor 1, ...
    ByProc,
    /// Items are dealt round-robin: dealt item `g` is item `g / procs` of
    /// processor `g % procs`, and items draw in `g` order.
    Dealt,
}

/// A generator's phase structure.
pub(crate) trait Program: Clone + Send + 'static {
    /// What a processor's slice of one phase needs to emit its items:
    /// computed once when the processor enters the phase.
    type Slice: Copy + Send;

    /// Number of phases.  Phase `ph` ends in barrier `ph`, and a stream
    /// ends after its last barrier.
    fn phases(&self) -> usize;

    /// Seed of the generator's random stream.
    fn seed(&self) -> u64;

    /// How phase `ph` draws.
    fn draws(&self, ph: usize) -> Draws;

    /// Processor `p`'s slice of phase `ph`: its item count and context.
    fn slice(&self, ph: usize, p: usize) -> (u64, Self::Slice);

    /// Emit item `i` of processor `p`'s slice `s`, drawing from `rng`.
    fn emit(&self, p: ProcId, s: &Self::Slice, i: u64, rng: &mut SmallRng, out: &mut Emit<'_>);

    /// Draw exactly what [`Program::emit`] draws for the same item, and
    /// emit nothing.  Only called for phases that draw.
    fn skip(&self, s: &Self::Slice, i: u64, rng: &mut SmallRng);
}

/// One processor's position in its stream.
struct Cursor<S> {
    phase: usize,
    item: u64,
    items: u64,
    slice: S,
    rng: SmallRng,
}

/// A [`Program`] as a [`ProcGenerator`].  Building one allocates nothing
/// beyond the program; cursors are made on the first fill and each phase's
/// start states on the first entry into it.
pub(crate) struct ProcStreams<P: Program> {
    program: P,
    procs: usize,
    think: u32,
    cursors: Vec<Cursor<P::Slice>>,
    /// The start states each phase's draw pass recorded, by phase: per
    /// processor ([`Draws::ByProc`]), per dealt item ([`Draws::Dealt`]) or
    /// none.  A few words per processor and phase, kept for the run.
    states: Vec<Vec<SmallRng>>,
    /// The random state at the start of phase `states.len()`.
    next_start: SmallRng,
}

impl<P: Program> ProcStreams<P> {
    pub(crate) fn new(program: P, topology: Topology, think: u32) -> Self {
        ProcStreams {
            next_start: SmallRng::seed_from_u64(program.seed()),
            program,
            procs: topology.total_procs(),
            think,
            cursors: Vec::new(),
            states: Vec::new(),
        }
    }

    /// Run the draw-only passes up to and including phase `ph`.
    fn pass_through(&mut self, ph: usize) {
        while self.states.len() <= ph {
            let phase = self.states.len();
            let rng = &mut self.next_start;
            let mut starts = Vec::new();
            match self.program.draws(phase) {
                Draws::None => {}
                Draws::ByProc => {
                    starts.reserve_exact(self.procs);
                    for p in 0..self.procs {
                        starts.push(rng.clone());
                        let (items, s) = self.program.slice(phase, p);
                        for i in 0..items {
                            self.program.skip(&s, i, rng);
                        }
                    }
                }
                Draws::Dealt => {
                    let slices: Vec<(u64, P::Slice)> = (0..self.procs)
                        .map(|p| self.program.slice(phase, p))
                        .collect();
                    let dealt = slices.iter().map(|(n, _)| n).sum::<u64>();
                    starts.reserve_exact(dealt as usize);
                    for g in 0..dealt {
                        let (i, p) = (g / self.procs as u64, (g % self.procs as u64) as usize);
                        starts.push(rng.clone());
                        self.program.skip(&slices[p].1, i, rng);
                    }
                }
            }
            self.states.push(starts);
        }
    }

    /// Processor `p`'s cursor at the start of phase `ph`.
    fn cursor(&mut self, p: usize, ph: usize) -> Cursor<P::Slice> {
        let (items, slice) = self.program.slice(ph, p);
        let draws = self.program.draws(ph);
        if draws != Draws::None {
            self.pass_through(ph);
        }
        let rng = match draws {
            Draws::ByProc => self.states[ph][p].clone(),
            // A dealt phase seats the state per item; a phase that draws
            // nothing never reads it.
            Draws::Dealt | Draws::None => self.next_start.clone(),
        };
        Cursor {
            phase: ph,
            item: 0,
            items,
            slice,
            rng,
        }
    }
}

impl<P: Program> ProcGenerator for ProcStreams<P> {
    fn fill(&mut self, proc: ProcId, out: &mut Vec<TraceEvent>) -> usize {
        let p = proc.index();
        let phases = self.program.phases();
        if self.cursors.is_empty() {
            self.cursors = (0..self.procs).map(|q| self.cursor(q, 0)).collect();
        }
        let start = out.len();
        while self.cursors[p].phase < phases && out.len() - start < FILL_EVENTS {
            let ph = self.cursors[p].phase;
            if self.cursors[p].item == self.cursors[p].items {
                out.push(TraceEvent::Barrier(ph as u32));
                if ph + 1 < phases {
                    self.cursors[p] = self.cursor(p, ph + 1);
                } else {
                    self.cursors[p].phase = phases;
                }
                continue;
            }
            let dealt = self.program.draws(ph) == Draws::Dealt;
            let c = &mut self.cursors[p];
            let mut emit = Emit {
                out: &mut *out,
                think: self.think,
            };
            while c.item < c.items && emit.out.len() - start < FILL_EVENTS {
                if dealt {
                    let g = c.item * self.procs as u64 + p as u64;
                    c.rng = self.states[ph][g as usize].clone();
                }
                self.program
                    .emit(proc, &c.slice, c.item, &mut c.rng, &mut emit);
                c.item += 1;
            }
        }
        out.len() - start
    }

    fn restart(&self) -> Box<dyn ProcGenerator> {
        Box::new(ProcStreams {
            next_start: SmallRng::seed_from_u64(self.program.seed()),
            program: self.program.clone(),
            procs: self.procs,
            think: self.think,
            cursors: Vec::new(),
            states: Vec::new(),
        })
    }
}
