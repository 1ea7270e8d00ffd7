//! Shard-structured scheduling: the [`Scheduler`] abstraction and the
//! [`ShardedScheduler`] that splits one simulation's wakeups across
//! per-shard [`ProcScheduler`]s with deterministic cross-shard routing.
//!
//! # Why a sharded scheduler can be bit-exact
//!
//! The cluster simulator's interleaving is entirely determined by which
//! `(clock, proc)` pair pops next.  [`ProcScheduler`]'s tie-break (smaller
//! proc id first on equal clocks) makes that pop order a *pure function of
//! the schedule contents*, independent of push order.  `ShardedScheduler`
//! exploits exactly that property: wakeups are partitioned by the owning
//! shard (one [`ProcScheduler`] per shard), a wakeup scheduled from one
//! shard for a processor of another travels through a per-shard-pair
//! queue, and every queue is drained into the owning shard's heap before
//! any pop or peek decision.  After a drain the *multiset* of pending
//! wakeups equals what one big heap would hold, each shard's head is its
//! minimum, so the global minimum over shard heads — compared as
//! `(clock, proc id)`, the same total order — is the pair the single heap
//! would pop.  Queue arrival order is irrelevant by the pure-function
//! property, so the pop sequence is bit-identical to the serial scheduler
//! no matter how cross-shard messages interleave.
//!
//! # The conservative clock window
//!
//! [`ShardedScheduler::window`] exposes the classic conservative-parallel
//! horizon: the active shard may keep running while its local head orders
//! before the earliest head of any *other* shard, because no cross-shard
//! message can arrive timestamped earlier than its sender's clock (the
//! protocol applies remote effects at the issuing processor's clock — zero
//! lookahead).  The simulator uses the window to decide when a shard
//! hand-off (a barrier crossing in a threaded run) is required; with zero
//! lookahead that is every time the global minimum changes shards, which
//! is why the deterministic split — not speculative shard concurrency —
//! is the load-bearing design here (see ROADMAP's zero-lookahead note).

use crate::cycles::Cycles;
use crate::sched::ProcScheduler;
use std::collections::VecDeque;

/// The scheduling interface the simulator's run loop drives: push wakeups,
/// pop the global minimum, peek at it.  `peek` takes `&mut self` because a
/// sharded implementation must drain cross-shard queues before it can
/// answer.
pub trait Scheduler {
    /// Schedule `proc` to run at `time`.
    fn push(&mut self, time: Cycles, proc: u16);
    /// Remove and return the earliest `(time, proc)` wakeup; ties pop the
    /// smallest proc id first.
    fn pop(&mut self) -> Option<(Cycles, u16)>;
    /// What [`Scheduler::pop`] would return, without removing it.
    ///
    /// **Batch-horizon contract**: the returned head is invariant until
    /// the next [`Scheduler::push`] — implementations have no external
    /// input channel (a sharded scheduler's cross-shard queues are fed
    /// only by its own `push`), so a run loop executing a batch of events
    /// for one processor may cache this value as its wakeup horizon for
    /// the whole batch, refreshing only after a push.  The batched
    /// simulator loop depends on this to compare each event's advanced
    /// clock against the horizon without a per-event peek.
    fn peek(&mut self) -> Option<(Cycles, u16)>;
    /// [`Scheduler::push`] then [`Scheduler::pop`]: re-queue a processor
    /// that lost the schedule and take the winner.  Implementations may do
    /// it in one step.
    fn push_pop(&mut self, time: Cycles, proc: u16) -> (Cycles, u16) {
        self.push(time, proc);
        // The push made the schedule non-empty, so `pop` always answers.
        self.pop().unwrap_or((time, proc))
    }
    /// Number of pending wakeups.
    fn len(&self) -> usize;
    /// `true` if no wakeups are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Scheduler for ProcScheduler {
    #[inline]
    fn push(&mut self, time: Cycles, proc: u16) {
        ProcScheduler::push(self, time, proc);
    }
    #[inline]
    fn pop(&mut self) -> Option<(Cycles, u16)> {
        ProcScheduler::pop(self)
    }
    #[inline]
    fn peek(&mut self) -> Option<(Cycles, u16)> {
        ProcScheduler::peek(self)
    }
    #[inline]
    fn push_pop(&mut self, time: Cycles, proc: u16) -> (Cycles, u16) {
        ProcScheduler::push_pop(self, time, proc)
    }
    #[inline]
    fn len(&self) -> usize {
        ProcScheduler::len(self)
    }
}

/// The conservative progress window of the shard that popped last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockWindow {
    /// The shard whose processor is currently running.
    pub shard: u16,
    /// That shard's earliest pending wakeup.
    pub local: Option<(Cycles, u16)>,
    /// The earliest pending wakeup of any *other* shard — the clock up to
    /// which the active shard could run without cross-shard input.
    pub horizon: Option<Cycles>,
}

/// A [`Scheduler`] split into per-shard [`ProcScheduler`]s joined by
/// per-shard-pair cross-shard queues.  Pop order is bit-identical to a
/// single `ProcScheduler` holding the same wakeups (see module docs).
#[derive(Debug, Clone)]
pub struct ShardedScheduler {
    /// `shard_of[proc]` = owning shard (home node's shard).
    shard_of: Vec<u16>,
    /// One deterministic heap per shard.
    shards: Vec<ProcScheduler>,
    /// Cross-shard wakeups in flight, indexed `[from * S + to]` — the
    /// message-queue structure a threaded run would ship over channels.
    cross: Vec<VecDeque<(Cycles, u16)>>,
    /// Wakeups parked in `cross` (so `len` stays O(S²)-free).
    in_flight: usize,
    /// The shard whose processor popped last; its pushes go straight to
    /// its own heap, pushes for other shards go through `cross`.
    active: u16,
    /// Cross-shard hand-offs so far: pops where the global minimum moved
    /// to a different shard (each would be a barrier crossing threaded).
    handoffs: u64,
}

impl ShardedScheduler {
    /// A scheduler over `shards` shards with the given proc→shard table
    /// (as produced by `ShardMap::proc_table()` upstream).
    ///
    /// # Panics
    /// Panics if `shards == 0` or any table entry is out of range.
    pub fn new(shard_of: Vec<u16>, shards: u16) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(
            shard_of.iter().all(|&s| s < shards),
            "proc table references shard >= {shards}"
        );
        let s = shards as usize;
        let procs = shard_of.len();
        ShardedScheduler {
            shard_of,
            shards: (0..s)
                .map(|_| ProcScheduler::with_capacity(procs / s + 1))
                .collect(),
            cross: (0..s * s).map(|_| VecDeque::new()).collect(),
            in_flight: 0,
            active: 0,
            handoffs: 0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u16 {
        self.shards.len() as u16
    }

    /// Cross-shard hand-offs so far (global minimum changed shards).
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Deliver every in-flight cross-shard wakeup to its owning shard's
    /// heap.  Called before any pop/peek decision; arrival order cannot
    /// affect subsequent pops (heap order is content-pure).
    fn drain_cross(&mut self) {
        if self.in_flight == 0 {
            return;
        }
        let s = self.shards.len();
        for from in 0..s {
            for to in 0..s {
                let q = &mut self.cross[from * s + to];
                while let Some((t, p)) = q.pop_front() {
                    self.shards[to].push(t, p);
                }
            }
        }
        self.in_flight = 0;
    }

    /// The shard whose head orders first by `(clock, proc id)`.
    fn min_shard(&self) -> Option<u16> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.peek().map(|head| (head, i as u16)))
            .min()
            .map(|(_, i)| i)
    }

    /// The active shard's conservative progress window.
    pub fn window(&mut self) -> ClockWindow {
        self.drain_cross();
        let shard = self.active;
        ClockWindow {
            shard,
            local: self.shards[shard as usize].peek(),
            horizon: self
                .shards
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != shard as usize)
                .filter_map(|(_, h)| h.peek_time())
                .min(),
        }
    }
}

impl Scheduler for ShardedScheduler {
    #[inline]
    fn push(&mut self, time: Cycles, proc: u16) {
        let to = self.shard_of[proc as usize];
        if to == self.active {
            self.shards[to as usize].push(time, proc);
        } else {
            // A protocol message to another shard: park it in the pair
            // queue; it is delivered before the next scheduling decision.
            let s = self.shards.len();
            self.cross[self.active as usize * s + to as usize].push_back((time, proc));
            self.in_flight += 1;
        }
    }

    fn pop(&mut self) -> Option<(Cycles, u16)> {
        self.drain_cross();
        let shard = self.min_shard()?;
        if shard != self.active {
            self.handoffs += 1;
            self.active = shard;
        }
        self.shards[shard as usize].pop()
    }

    fn peek(&mut self) -> Option<(Cycles, u16)> {
        self.drain_cross();
        self.min_shard()
            .and_then(|s| self.shards[s as usize].peek())
    }

    fn len(&self) -> usize {
        self.in_flight + self.shards.iter().map(|h| h.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// Balanced contiguous proc→shard table (mirrors `ShardMap` upstream).
    fn table(procs: usize, shards: u16) -> Vec<u16> {
        (0..procs)
            .map(|p| ((p * shards as usize + shards as usize - 1) / procs).min(shards as usize - 1))
            .map(|s| s as u16)
            .collect()
    }

    #[test]
    fn matches_a_single_heap_under_random_workloads() {
        // Drive a ShardedScheduler and a plain ProcScheduler with the same
        // random push/pop schedule: every pop must agree, at every shard
        // count, including pushes issued "from" whatever shard was active.
        for shards in [1u16, 2, 3, 4, 7] {
            let mut rng = SplitMix64::new(0xC0FFEE ^ shards as u64);
            let mut sharded = ShardedScheduler::new(table(16, shards), shards);
            let mut flat = ProcScheduler::new();
            for step in 0..5_000u64 {
                if !rng.next_u64().is_multiple_of(3) {
                    let t = Cycles::new(rng.next_u64() % 64);
                    let p = (rng.next_u64() % 16) as u16;
                    Scheduler::push(&mut sharded, t, p);
                    Scheduler::push(&mut flat, t, p);
                } else {
                    assert_eq!(
                        Scheduler::peek(&mut sharded),
                        Scheduler::peek(&mut flat),
                        "peek diverged at step {step} ({shards} shards)"
                    );
                    assert_eq!(
                        Scheduler::pop(&mut sharded),
                        Scheduler::pop(&mut flat),
                        "pop diverged at step {step} ({shards} shards)"
                    );
                }
                assert_eq!(Scheduler::len(&sharded), Scheduler::len(&flat));
            }
            while let Some(got) = Scheduler::pop(&mut sharded) {
                assert_eq!(Some(got), Scheduler::pop(&mut flat));
            }
            assert!(Scheduler::is_empty(&flat));
        }
    }

    #[test]
    fn cross_shard_pushes_are_delivered_before_any_decision() {
        // 4 procs, 2 shards: procs 0-1 on shard 0, procs 2-3 on shard 1.
        let mut s = ShardedScheduler::new(vec![0, 0, 1, 1], 2);
        // Active shard starts at 0; a push for shard 1 parks in flight...
        Scheduler::push(&mut s, Cycles::new(5), 3);
        assert_eq!(Scheduler::len(&s), 1);
        // ...but peek/pop must still see it (drained first).
        assert_eq!(Scheduler::peek(&mut s), Some((Cycles::new(5), 3)));
        assert_eq!(Scheduler::pop(&mut s), Some((Cycles::new(5), 3)));
        assert_eq!(s.handoffs(), 1, "minimum moved from shard 0 to shard 1");
        // Now shard 1 is active; a push for proc 0 crosses back.
        Scheduler::push(&mut s, Cycles::new(6), 0);
        Scheduler::push(&mut s, Cycles::new(6), 2);
        // Equal clocks: proc id breaks the tie across shards.
        assert_eq!(Scheduler::pop(&mut s), Some((Cycles::new(6), 0)));
        assert_eq!(s.handoffs(), 2);
        assert_eq!(Scheduler::pop(&mut s), Some((Cycles::new(6), 2)));
        assert_eq!(s.handoffs(), 3);
        assert_eq!(Scheduler::pop(&mut s), None);
    }

    #[test]
    fn window_reports_local_head_and_remote_horizon() {
        let mut s = ShardedScheduler::new(vec![0, 0, 1, 1], 2);
        Scheduler::push(&mut s, Cycles::new(10), 0);
        Scheduler::push(&mut s, Cycles::new(3), 2);
        Scheduler::push(&mut s, Cycles::new(8), 3);
        let w = s.window();
        assert_eq!(w.shard, 0);
        assert_eq!(w.local, Some((Cycles::new(10), 0)));
        assert_eq!(w.horizon, Some(Cycles::new(3)));
        // Popping hands off to shard 1; its window sees shard 0's head.
        assert_eq!(Scheduler::pop(&mut s), Some((Cycles::new(3), 2)));
        let w = s.window();
        assert_eq!(w.shard, 1);
        assert_eq!(w.local, Some((Cycles::new(8), 3)));
        assert_eq!(w.horizon, Some(Cycles::new(10)));
        // Drain shard 1: horizon-only window.
        assert_eq!(Scheduler::pop(&mut s), Some((Cycles::new(8), 3)));
        let w = s.window();
        assert_eq!(w.local, None);
        assert_eq!(w.horizon, Some(Cycles::new(10)));
    }

    #[test]
    fn single_shard_degenerates_to_the_plain_scheduler() {
        let mut s = ShardedScheduler::new(vec![0; 4], 1);
        for p in [2u16, 0, 3, 1] {
            Scheduler::push(&mut s, Cycles::new(9), p);
        }
        assert_eq!(s.window().horizon, None);
        let popped: Vec<u16> = std::iter::from_fn(|| Scheduler::pop(&mut s))
            .map(|(_, p)| p)
            .collect();
        assert_eq!(popped, vec![0, 1, 2, 3]);
        assert_eq!(s.handoffs(), 0);
    }
}
