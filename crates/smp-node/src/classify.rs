//! Per-processor miss classification.
//!
//! The paper's analysis hinges on separating *capacity/conflict* misses —
//! the traffic page migration/replication and R-NUMA try to eliminate —
//! from cold and coherence misses.  A miss on block `B` by processor `P`
//! is classified as:
//!
//! * **cold** if `P` has never cached `B`,
//! * **coherence** if `B` last left `P`'s cache because another processor's
//!   write invalidated it,
//! * **capacity/conflict** if `B` last left `P`'s cache because it was
//!   evicted (displaced by another block) or flushed by a page operation.
//!
//! R-NUMA's per-page *refetch counters* count exactly the capacity/conflict
//! re-fetches, so the classifier is also the source of the signal that
//! drives relocation decisions.

use mem_trace::BlockIdx;

/// Classification of a processor-cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// First reference to the block by this processor.
    Cold,
    /// Block was invalidated by another processor's write.
    Coherence,
    /// Block was evicted for capacity/conflict reasons (or flushed by a page
    /// operation) and is now being re-fetched.
    CapacityConflict,
}

/// What the classifier remembers about a block: whether this processor ever
/// cached it and, if it left the cache, why.  Stored in two bits; a zero
/// (never written) field reads as `Untouched`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum History {
    /// Never cached by this processor.
    Untouched = 0,
    /// Currently believed resident.
    Resident = 1,
    /// Displaced by a fill to the same cache line, or flushed by a page
    /// operation.
    Evicted = 2,
    /// Invalidated by the coherence protocol (a remote write).
    Invalidated = 3,
}

/// Tracks, per processor, the history needed to classify misses.
///
/// The history is a dense table over interned block indices — two bits per
/// block the *cluster* touched, four blocks per byte — so the per-miss
/// classification and the per-fill/eviction/invalidation bookkeeping are
/// single array accesses.
#[derive(Debug, Clone, Default)]
pub struct MissClassifier {
    /// Block `b`'s [`History`] is bits `2 * (b % 4) ..` of byte `b / 4`;
    /// bytes past the end read as zero.
    history: Vec<u8>,
    cold: u64,
    coherence: u64,
    capacity_conflict: u64,
}

impl MissClassifier {
    /// New classifier with no history.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn history(&self, block: BlockIdx) -> History {
        let b = block.index();
        let packed = self.history.get(b / 4).copied().unwrap_or(0);
        match (packed >> (2 * (b % 4))) & 3 {
            0 => History::Untouched,
            1 => History::Resident,
            2 => History::Evicted,
            _ => History::Invalidated,
        }
    }

    #[inline]
    fn record(&mut self, block: BlockIdx, history: History) {
        let b = block.index();
        if b / 4 >= self.history.len() {
            self.history.resize(b / 4 + 1, 0);
        }
        let shift = 2 * (b % 4);
        let packed = &mut self.history[b / 4];
        *packed = (*packed & !(3 << shift)) | ((history as u8) << shift);
    }

    /// Classify (and record) a miss on `block`.  Call exactly once per
    /// processor-cache miss, before recording the subsequent fill.
    pub fn classify_miss(&mut self, block: BlockIdx) -> MissClass {
        let class = match self.history(block) {
            History::Untouched => MissClass::Cold,
            History::Resident => {
                // Block believed resident yet we missed: this happens when a
                // page flush dropped the line without notifying the
                // classifier; treat as capacity/conflict, matching the
                // paper's accounting of relocation-induced refetches.
                MissClass::CapacityConflict
            }
            History::Evicted => MissClass::CapacityConflict,
            History::Invalidated => MissClass::Coherence,
        };
        match class {
            MissClass::Cold => self.cold += 1,
            MissClass::Coherence => self.coherence += 1,
            MissClass::CapacityConflict => self.capacity_conflict += 1,
        }
        class
    }

    /// Record that `block` is now resident in this processor's cache.
    pub fn record_fill(&mut self, block: BlockIdx) {
        self.record(block, History::Resident);
    }

    /// Record that `block` was evicted (capacity/conflict departure).
    pub fn record_eviction(&mut self, block: BlockIdx) {
        self.record(block, History::Evicted);
    }

    /// Record that `block` was invalidated by the coherence protocol.
    pub fn record_invalidation(&mut self, block: BlockIdx) {
        self.record(block, History::Invalidated);
    }

    /// `(cold, coherence, capacity_conflict)` counts so far.
    pub fn counts(&self) -> (u64, u64, u64) {
        (self.cold, self.coherence, self.capacity_conflict)
    }

    /// Total misses classified.
    pub fn total(&self) -> u64 {
        self.cold + self.coherence + self.capacity_conflict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_miss_is_cold() {
        let mut c = MissClassifier::new();
        assert_eq!(c.classify_miss(BlockIdx(1)), MissClass::Cold);
        assert_eq!(c.counts(), (1, 0, 0));
    }

    #[test]
    fn refetch_after_eviction_is_capacity_conflict() {
        let mut c = MissClassifier::new();
        c.classify_miss(BlockIdx(1));
        c.record_fill(BlockIdx(1));
        c.record_eviction(BlockIdx(1));
        assert_eq!(c.classify_miss(BlockIdx(1)), MissClass::CapacityConflict);
        assert_eq!(c.counts(), (1, 0, 1));
    }

    #[test]
    fn refetch_after_invalidation_is_coherence() {
        let mut c = MissClassifier::new();
        c.classify_miss(BlockIdx(2));
        c.record_fill(BlockIdx(2));
        c.record_invalidation(BlockIdx(2));
        assert_eq!(c.classify_miss(BlockIdx(2)), MissClass::Coherence);
        assert_eq!(c.counts(), (1, 1, 0));
    }

    #[test]
    fn miss_while_marked_resident_counts_as_capacity_conflict() {
        // A page flush can drop lines without an explicit eviction record.
        let mut c = MissClassifier::new();
        c.classify_miss(BlockIdx(3));
        c.record_fill(BlockIdx(3));
        assert_eq!(c.classify_miss(BlockIdx(3)), MissClass::CapacityConflict);
    }

    #[test]
    fn departure_reason_is_most_recent_one() {
        let mut c = MissClassifier::new();
        c.classify_miss(BlockIdx(4));
        c.record_fill(BlockIdx(4));
        c.record_eviction(BlockIdx(4));
        c.record_fill(BlockIdx(4));
        c.record_invalidation(BlockIdx(4));
        assert_eq!(c.classify_miss(BlockIdx(4)), MissClass::Coherence);
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn distinct_blocks_have_independent_histories() {
        let mut c = MissClassifier::new();
        c.classify_miss(BlockIdx(1));
        c.record_fill(BlockIdx(1));
        c.record_eviction(BlockIdx(1));
        assert_eq!(c.classify_miss(BlockIdx(2)), MissClass::Cold);
        assert_eq!(c.classify_miss(BlockIdx(1)), MissClass::CapacityConflict);
    }
}
