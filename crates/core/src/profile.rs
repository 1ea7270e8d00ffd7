//! Feature-gated profiling counters (`--features profile-counters`) for
//! the >64-node cost-cliff investigation.
//!
//! Two candidate explanations were on the table for a 96-node point
//! costing ~10x a 64-node one: `SharerSet`s promoting off their inline
//! word (counted by `mem_trace::sharers::profile`, re-exported here; the
//! directory no longer stores them, so these count replica masks and
//! page-cache presence tags), and
//! the simulator's O(nodes) gather loops — per-node work done on every
//! page operation regardless of how many nodes are involved.  This module
//! counts the latter so one instrumented run attributes the cliff.
//! Compiled out entirely when the feature is off.

use std::sync::atomic::{AtomicU64, Ordering};

pub use mem_trace::sharers::profile as sharers;

/// Node-slots visited by `migrate_page`'s update-every-node's-view loop
/// (O(nodes) per migration, touched or not).
pub static GATHER_VISITS: AtomicU64 = AtomicU64::new(0);
/// Migrations that ran that loop.
pub static GATHERS: AtomicU64 = AtomicU64::new(0);

/// Buckets in the burst-occupancy histogram (power-of-two widths).
pub const BATCH_BUCKETS: usize = 8;

/// Bursts pulled by the batched run loop (`RunState::execute` pulls
/// consecutive same-processor events in one `next_burst` call).
pub static BATCHES: AtomicU64 = AtomicU64::new(0);
/// Events delivered through those bursts.
pub static BATCH_EVENTS: AtomicU64 = AtomicU64::new(0);
/// Burst-occupancy histogram: bucket `i` counts bursts whose length fell
/// in `[2^i, 2^(i+1))`; the last bucket is open-ended.  A distribution
/// piled into bucket 0 means the schedule forces single-event bursts and
/// the batching is not paying; mass in the high buckets means the
/// devirtualized burst pull is amortized well.
pub static BATCH_OCCUPANCY: [AtomicU64; BATCH_BUCKETS] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Record one burst of `len` events pulled by the run loop.
#[inline]
pub fn record_batch(len: usize) {
    BATCHES.fetch_add(1, Ordering::Relaxed);
    BATCH_EVENTS.fetch_add(len as u64, Ordering::Relaxed);
    let bucket = (usize::BITS - 1 - len.max(1).leading_zeros()).min(BATCH_BUCKETS as u32 - 1);
    BATCH_OCCUPANCY[bucket as usize].fetch_add(1, Ordering::Relaxed);
}

/// `(gather-loop migrations, node visits)` since the last [`reset`].
pub fn snapshot() -> (u64, u64) {
    (
        GATHERS.load(Ordering::Relaxed),
        GATHER_VISITS.load(Ordering::Relaxed),
    )
}

/// `(bursts, events, occupancy histogram)` since the last [`reset`].
pub fn batch_snapshot() -> (u64, u64, [u64; BATCH_BUCKETS]) {
    let mut hist = [0u64; BATCH_BUCKETS];
    for (slot, counter) in hist.iter_mut().zip(BATCH_OCCUPANCY.iter()) {
        *slot = counter.load(Ordering::Relaxed);
    }
    (
        BATCHES.load(Ordering::Relaxed),
        BATCH_EVENTS.load(Ordering::Relaxed),
        hist,
    )
}

/// Zero this module's counters and the forwarded `SharerSet` ones.
pub fn reset() {
    GATHERS.store(0, Ordering::Relaxed);
    GATHER_VISITS.store(0, Ordering::Relaxed);
    BATCHES.store(0, Ordering::Relaxed);
    BATCH_EVENTS.store(0, Ordering::Relaxed);
    for counter in &BATCH_OCCUPANCY {
        counter.store(0, Ordering::Relaxed);
    }
    sharers::reset();
}
