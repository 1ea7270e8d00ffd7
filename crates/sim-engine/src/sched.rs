//! The processor scheduler: a binary min-heap over `(clock, proc id)`.
//!
//! The cluster simulator always advances the processor with the smallest
//! local clock.  With one pending wakeup per processor, a heap makes that
//! choice O(log P) per step instead of the O(P) linear scan a flat list
//! costs — negligible at the paper's 32 processors, decisive for the
//! scaled-up clusters the harness targets.
//!
//! Ties on the clock are broken by **proc id** (smaller first), not by
//! insertion order, so the pop order of simultaneous processors is a pure
//! function of the schedule contents — independent of the order events
//! happened to be pushed — which makes the simulator's interleaving
//! trivially reproducible from a state dump.
//!
//! A pair is stored and compared as one packed integer ([`sched_key`]):
//! the clock in the high bits, the proc id in the low 16, so integer order
//! *is* `(clock, proc id)` order and every heap comparison is one integer
//! comparison instead of a tuple compare.

use crate::cycles::Cycles;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `(time, proc)` packed into one integer that orders exactly like the
/// tuple: the clock above the low 16 bits, the proc id in them.  Every key
/// is below `u128::MAX`, which callers may use as "no pending wakeup".
#[inline]
pub fn sched_key(time: Cycles, proc: u16) -> u128 {
    (u128::from(time.raw()) << 16) | u128::from(proc)
}

/// The `(time, proc)` pair a [`sched_key`] packs.
#[inline]
fn unpack(key: u128) -> (Cycles, u16) {
    // dsm-lint: allow(cast-truncation, exact: a key is `time << 16 | proc` with a u64 time and a u16 proc, so both narrowed parts fit)
    (Cycles::new((key >> 16) as u64), key as u16)
}

/// A deterministic min-heap of `(wakeup time, proc id)` pairs.
#[derive(Debug, Clone, Default)]
pub struct ProcScheduler {
    heap: BinaryHeap<Reverse<u128>>,
}

impl ProcScheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty scheduler with capacity for `procs` pending wakeups.
    pub fn with_capacity(procs: usize) -> Self {
        ProcScheduler {
            heap: BinaryHeap::with_capacity(procs),
        }
    }

    /// Number of pending wakeups.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no wakeups are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `proc` to run at `time`.  O(log P).
    #[inline]
    pub fn push(&mut self, time: Cycles, proc: u16) {
        self.heap.push(Reverse(sched_key(time, proc)));
    }

    /// The earliest pending `(time, proc)` wakeup without removing it —
    /// exactly what [`ProcScheduler::pop`] would return.  O(1).
    ///
    /// This is what makes the simulator's run-while-minimum fast path
    /// possible: a processor whose advanced clock still orders before this
    /// pair would be popped straight back, so the push/pop round trip can
    /// be skipped without perturbing the interleaving.
    ///
    /// **Batch-horizon contract**: the head changes only through this
    /// scheduler's own `push`, `pop` and `push_pop` — it has no other input
    /// channel — so a run loop executing a batch of events for one
    /// processor may cache this value as its wakeup horizon for the whole
    /// batch, refreshing only after a mid-batch push.  The simulator's
    /// batched loop depends on this to compare each event's advanced clock
    /// against the horizon without a per-event peek.
    #[inline]
    pub fn peek(&self) -> Option<(Cycles, u16)> {
        self.heap.peek().map(|Reverse(key)| unpack(*key))
    }

    /// Remove and return the earliest `(time, proc)` wakeup; ties pop the
    /// smallest proc id first.  O(log P).
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycles, u16)> {
        self.heap.pop().map(|Reverse(key)| unpack(key))
    }

    /// Schedule `proc` at `time` and pop the earliest wakeup, in one step:
    /// exactly `push` followed by `pop`, with one sift.  When the new pair
    /// orders first it comes straight back and the heap is untouched;
    /// otherwise it replaces the head, which sinks to its place.
    #[inline]
    pub fn push_pop(&mut self, time: Cycles, proc: u16) -> (Cycles, u16) {
        let key = sched_key(time, proc);
        match self.heap.peek_mut() {
            Some(mut head) if head.0 < key => unpack(std::mem::replace(&mut head.0, key)),
            _ => (time, proc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = ProcScheduler::with_capacity(4);
        s.push(Cycles::new(30), 0);
        s.push(Cycles::new(10), 1);
        s.push(Cycles::new(20), 2);
        assert_eq!(s.pop(), Some((Cycles::new(10), 1)));
        assert_eq!(s.pop(), Some((Cycles::new(20), 2)));
        assert_eq!(s.pop(), Some((Cycles::new(30), 0)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn equal_clocks_pop_in_proc_id_order_regardless_of_push_order() {
        // Push in descending, ascending and shuffled id order: the pop
        // order must always be by proc id.
        let orders: [&[u16]; 3] = [&[3, 2, 1, 0], &[0, 1, 2, 3], &[2, 0, 3, 1]];
        for order in orders {
            let mut s = ProcScheduler::new();
            for &p in order {
                s.push(Cycles::new(5), p);
            }
            let popped: Vec<u16> = std::iter::from_fn(|| s.pop()).map(|(_, p)| p).collect();
            assert_eq!(popped, vec![0, 1, 2, 3], "push order {order:?}");
        }
    }

    #[test]
    fn time_dominates_proc_id() {
        let mut s = ProcScheduler::new();
        s.push(Cycles::new(7), 0);
        s.push(Cycles::new(5), 9);
        assert_eq!(s.pop(), Some((Cycles::new(5), 9)));
        assert_eq!(s.pop(), Some((Cycles::new(7), 0)));
    }

    #[test]
    fn packed_keys_order_like_tuples() {
        let pairs = [(0u64, 0u16), (0, 1), (1, 0), (1, u16::MAX), (u64::MAX, 0)];
        for a in pairs {
            for b in pairs {
                let (ka, kb) = (
                    sched_key(Cycles::new(a.0), a.1),
                    sched_key(Cycles::new(b.0), b.1),
                );
                assert_eq!(ka.cmp(&kb), a.cmp(&b), "{a:?} vs {b:?}");
                assert!(ka < u128::MAX);
            }
        }
    }

    #[test]
    fn peek_len_and_interleaving() {
        let mut s = ProcScheduler::new();
        assert!(s.is_empty());
        assert_eq!(s.peek(), None);
        s.push(Cycles::new(42), 1);
        s.push(Cycles::new(7), 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.peek(), Some((Cycles::new(7), 2)));
        assert_eq!(s.pop(), Some((Cycles::new(7), 2)));
        s.push(Cycles::new(1), 3);
        assert_eq!(s.pop(), Some((Cycles::new(1), 3)));
        assert_eq!(s.pop(), Some((Cycles::new(42), 1)));
        assert!(s.is_empty());
    }
}
