//! [`SharerSet`]: a scalable set of small indices (replica holders, blocks
//! present in a page frame, and the sharers of a directory entry as
//! `Directory::entry` reports them).
//!
//! The MigRep engine's replica masks and the page cache's fine-grain
//! presence tags were `u64` bitmasks, which hard-capped the simulated
//! cluster at 64 nodes (and a page at 64 blocks).  `SharerSet` removes the
//! cap without giving up the hot path, through three tiers.  (The
//! directory stores no `SharerSet`: its rows are flat sharer words that
//! widen with the cluster; see `dsm_protocol::directory`.)
//!
//! * **inline `u64`** — members all `< 64` live in one word, bit-for-bit
//!   the operations the masks performed;
//! * **inline `u128`** (two words, still no allocation) — covers clusters
//!   up to 128 nodes, the regime where the old boxed representation paid a
//!   measured ~2x per-access cliff (see `tests/profile_cliff.rs`);
//! * **hierarchical bitset** — a summary word whose bit *i* says "leaf
//!   word *i* is non-empty" over up to 64 × 64 = 4096 indices, so
//!   `first`/`is_empty` on a wide, sparse set read one word instead of
//!   scanning the whole leaf vector.
//!
//! Iteration order is always ascending, matching the `(0..64).filter(...)`
//! scans the masks used; the tiers are logically indistinguishable
//! (`PartialEq` compares members, not representations), so tier changes
//! are invisible in any simulation result.

use crate::addr::NodeId;
use std::fmt;

/// Leaves covered by the hierarchical tier's summary word.  Indices beyond
/// `SUMMARY_LEAVES * 64` still work (the leaf vector simply grows and the
/// tail is scanned linearly), but every geometry the repo simulates —
/// 512-node clusters, 128-block pages — fits under the summary.
const SUMMARY_LEAVES: usize = 64;

/// Feature-gated profiling counters (`--features profile-counters`):
/// process-wide tallies of membership operations per tier plus tier
/// promotions, so the >64-node cost attribution can read which tier is
/// serving the hot path instead of inferring it from wall clock.
/// Compiled out entirely (zero cost) when the feature is off.
#[cfg(feature = "profile-counters")]
pub mod profile {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Tier promotions (inline-u64 → inline-u128 → hierarchical; the
    /// final step is the only allocation).
    pub static PROMOTIONS: AtomicU64 = AtomicU64::new(0);
    /// `contains`/`insert`/`remove` calls served by the inline-u64 tier.
    pub static INLINE64_OPS: AtomicU64 = AtomicU64::new(0);
    /// Membership ops served by the inline-u128 (two-word) tier.
    pub static INLINE128_OPS: AtomicU64 = AtomicU64::new(0);
    /// Membership ops served by the hierarchical (boxed) tier.
    pub static HIER_OPS: AtomicU64 = AtomicU64::new(0);

    /// Per-tier membership-op histogram since the last [`reset`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct TierSnapshot {
        /// Tier promotions (each set takes at most two, ever).
        pub promotions: u64,
        /// Ops served allocation-free by the single-word tier.
        pub inline64_ops: u64,
        /// Ops served allocation-free by the two-word tier.
        pub inline128_ops: u64,
        /// Ops that touched the boxed hierarchical tier.
        pub hier_ops: u64,
    }

    /// Snapshot all four counters.
    pub fn snapshot() -> TierSnapshot {
        TierSnapshot {
            promotions: PROMOTIONS.load(Ordering::Relaxed),
            inline64_ops: INLINE64_OPS.load(Ordering::Relaxed),
            inline128_ops: INLINE128_OPS.load(Ordering::Relaxed),
            hier_ops: HIER_OPS.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter.
    pub fn reset() {
        PROMOTIONS.store(0, Ordering::Relaxed);
        INLINE64_OPS.store(0, Ordering::Relaxed);
        INLINE128_OPS.store(0, Ordering::Relaxed);
        HIER_OPS.store(0, Ordering::Relaxed);
    }
}

#[cfg(feature = "profile-counters")]
macro_rules! count {
    ($counter:ident) => {
        profile::$counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    };
}
#[cfg(not(feature = "profile-counters"))]
macro_rules! count {
    ($counter:ident) => {};
}

/// Set representation, one variant per tier.  Promotion is one-way — a set
/// never demotes when members are removed — which keeps `insert`
/// branch-predictable and makes a set's tier a monotone function of the
/// largest index it has ever held.
#[derive(Clone)]
enum Repr {
    /// Members all `< 64`: one inline word.
    Inline(u64),
    /// Members all `< 128`: two inline words, still allocation-free.
    Inline2([u64; 2]),
    /// Arbitrary members: one boxed allocation whose word 0 is a summary
    /// over the leaf words that follow (`words[0]` bit *i* ⇔
    /// `words[1 + i] != 0`, for the first [`SUMMARY_LEAVES`] leaves).
    /// Embedding the summary in the same allocation keeps this variant's
    /// payload at one fat pointer, so the whole enum stays 24 bytes, the
    /// size the old two-variant (inline/boxed) representation had.
    Hier(Box<[u64]>),
}

/// A set of small unsigned indices: allocation-free up to 128 members'
/// worth of index space, a summary-accelerated boxed bitset beyond.
#[derive(Clone)]
pub struct SharerSet {
    repr: Repr,
}

impl PartialEq for SharerSet {
    /// Logical equality: a hierarchical set whose members all dropped
    /// below 64 equals the inline set with the same members.
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.words(), other.words());
        let common = a.len().min(b.len());
        a[..common] == b[..common]
            && a[common..].iter().all(|w| *w == 0)
            && b[common..].iter().all(|w| *w == 0)
    }
}

impl Eq for SharerSet {}

impl Default for SharerSet {
    fn default() -> Self {
        Self::new()
    }
}

impl SharerSet {
    /// The empty set.
    #[inline]
    pub const fn new() -> Self {
        SharerSet {
            repr: Repr::Inline(0),
        }
    }

    /// A set containing exactly `index`.
    #[inline]
    pub fn single(index: usize) -> Self {
        let mut s = Self::new();
        s.insert(index);
        s
    }

    /// Number of members.
    #[inline]
    pub fn count(&self) -> u32 {
        match &self.repr {
            Repr::Inline(w) => w.count_ones(),
            Repr::Inline2(w) => w[0].count_ones() + w[1].count_ones(),
            Repr::Hier(words) => words[1..].iter().map(|w| w.count_ones()).sum(),
        }
    }

    /// `true` if the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Inline(w) => *w == 0,
            Repr::Inline2(w) => w[0] | w[1] == 0,
            Repr::Hier(words) => {
                let (summary, leaves) = (words[0], &words[1..]);
                summary == 0
                    && leaves
                        .get(SUMMARY_LEAVES..)
                        .is_none_or(|tail| tail.iter().all(|w| *w == 0))
            }
        }
    }

    /// `true` if `index` is a member.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        match &self.repr {
            Repr::Inline(w) => {
                count!(INLINE64_OPS);
                index < 64 && w & (1u64 << index) != 0
            }
            Repr::Inline2(w) => {
                count!(INLINE128_OPS);
                index < 128 && w[index / 64] & (1u64 << (index % 64)) != 0
            }
            Repr::Hier(words) => {
                count!(HIER_OPS);
                words[1..]
                    .get(index / 64)
                    .is_some_and(|w| w & (1u64 << (index % 64)) != 0)
            }
        }
    }

    /// Insert `index`; returns `true` if it was newly added.  The loop
    /// re-dispatches after a tier promotion and runs at most twice.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        loop {
            match &mut self.repr {
                Repr::Inline(w) => {
                    if index < 64 {
                        count!(INLINE64_OPS);
                        let bit = 1u64 << index;
                        let fresh = *w & bit == 0;
                        *w |= bit;
                        return fresh;
                    }
                    self.promote(index);
                }
                Repr::Inline2(w) => {
                    if index < 128 {
                        count!(INLINE128_OPS);
                        let bit = 1u64 << (index % 64);
                        let word = &mut w[index / 64];
                        let fresh = *word & bit == 0;
                        *word |= bit;
                        return fresh;
                    }
                    self.promote(index);
                }
                Repr::Hier(words) => {
                    count!(HIER_OPS);
                    let leaf = index / 64;
                    if 1 + leaf >= words.len() {
                        let mut grown = vec![0u64; 1 + (leaf + 1).next_power_of_two()];
                        grown[..words.len()].copy_from_slice(words);
                        *words = grown.into_boxed_slice();
                    }
                    let bit = 1u64 << (index % 64);
                    let fresh = words[1 + leaf] & bit == 0;
                    words[1 + leaf] |= bit;
                    if leaf < SUMMARY_LEAVES {
                        words[0] |= 1u64 << leaf;
                    }
                    return fresh;
                }
            }
        }
    }

    /// Remove `index`; returns `true` if it was a member.
    #[inline]
    pub fn remove(&mut self, index: usize) -> bool {
        match &mut self.repr {
            Repr::Inline(w) => {
                count!(INLINE64_OPS);
                if index >= 64 {
                    return false;
                }
                let bit = 1u64 << index;
                let had = *w & bit != 0;
                *w &= !bit;
                had
            }
            Repr::Inline2(w) => {
                count!(INLINE128_OPS);
                if index >= 128 {
                    return false;
                }
                let bit = 1u64 << (index % 64);
                let word = &mut w[index / 64];
                let had = *word & bit != 0;
                *word &= !bit;
                had
            }
            Repr::Hier(words) => {
                count!(HIER_OPS);
                let leaf = index / 64;
                let Some(w) = words.get_mut(1 + leaf) else {
                    return false;
                };
                let bit = 1u64 << (index % 64);
                let had = *w & bit != 0;
                *w &= !bit;
                if *w == 0 && leaf < SUMMARY_LEAVES {
                    words[0] &= !(1u64 << leaf);
                }
                had
            }
        }
    }

    /// Remove every member.
    #[inline]
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline(w) => *w = 0,
            Repr::Inline2(w) => *w = [0; 2],
            Repr::Hier(words) => words.iter_mut().for_each(|w| *w = 0),
        }
    }

    /// The smallest member, if any (the masks' `trailing_zeros` idiom).
    /// On the hierarchical tier the summary word locates the first
    /// non-empty leaf in one scan instead of walking the leaf vector.
    #[inline]
    pub fn first(&self) -> Option<usize> {
        match &self.repr {
            Repr::Inline(w) => (*w != 0).then(|| w.trailing_zeros() as usize),
            Repr::Inline2(w) => {
                if w[0] != 0 {
                    Some(w[0].trailing_zeros() as usize)
                } else if w[1] != 0 {
                    Some(64 + w[1].trailing_zeros() as usize)
                } else {
                    None
                }
            }
            Repr::Hier(words) => {
                let (summary, leaves) = (words[0], &words[1..]);
                if summary != 0 {
                    let leaf = summary.trailing_zeros() as usize;
                    return Some(leaf * 64 + leaves[leaf].trailing_zeros() as usize);
                }
                leaves
                    .get(SUMMARY_LEAVES..)
                    .into_iter()
                    .flatten()
                    .enumerate()
                    .find(|(_, w)| **w != 0)
                    .map(|(i, w)| (SUMMARY_LEAVES + i) * 64 + w.trailing_zeros() as usize)
            }
        }
    }

    /// The backing words, low to high.
    #[inline]
    fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(w) => std::slice::from_ref(w),
            Repr::Inline2(w) => w,
            Repr::Hier(words) => &words[1..],
        }
    }

    /// Iterate over the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let words: &[u64] = self.words();
        words.iter().enumerate().flat_map(|(i, w)| {
            let mut w = *w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(i * 64 + bit)
            })
        })
    }

    /// The members as [`NodeId`]s, ascending (the directory/report shape).
    pub fn nodes(&self) -> Vec<NodeId> {
        self.iter().map(|i| NodeId(i as u16)).collect()
    }

    /// Promote to the smallest tier that can hold `index`: two inline
    /// words for `64..128`, the hierarchical bitset beyond.
    #[cold]
    fn promote(&mut self, index: usize) {
        count!(PROMOTIONS);
        match self.repr {
            Repr::Inline(w) => {
                if index < 128 {
                    self.repr = Repr::Inline2([w, 0]);
                } else {
                    self.repr = Self::hier_from(&[w, 0], index);
                }
            }
            Repr::Inline2(w) => self.repr = Self::hier_from(&w, index),
            Repr::Hier { .. } => {}
        }
    }

    /// Build a hierarchical repr seeded with `low` leaf words and sized
    /// to hold `index` (word 0 of the allocation is the summary).
    fn hier_from(low: &[u64], index: usize) -> Repr {
        let min_words = index / 64 + 1;
        let mut words = vec![0u64; 1 + min_words.max(2).next_power_of_two()];
        words[1..1 + low.len()].copy_from_slice(low);
        for (i, w) in low.iter().enumerate().take(SUMMARY_LEAVES) {
            if *w != 0 {
                words[0] |= 1u64 << i;
            }
        }
        Repr::Hier(words.into_boxed_slice())
    }
}

impl fmt::Debug for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for SharerSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = SharerSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_set_behaves_like_a_u64_mask() {
        let mut s = SharerSet::new();
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
        assert!(s.insert(3));
        assert!(s.insert(63));
        assert!(!s.insert(3), "re-insert is not fresh");
        assert_eq!(s.count(), 2);
        assert!(s.contains(3) && s.contains(63) && !s.contains(4));
        assert_eq!(s.first(), Some(3));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 63]);
        assert_eq!(s.nodes(), vec![NodeId(3), NodeId(63)]);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert_eq!(s.count(), 1);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn promotion_preserves_members_and_order() {
        let mut s = SharerSet::new();
        s.insert(5);
        s.insert(63);
        s.insert(64); // promotes to the two-word tier
        s.insert(200); // promotes to the hierarchical tier
        assert_eq!(s.count(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 63, 64, 200]);
        assert_eq!(s.first(), Some(5));
        assert!(s.contains(200) && !s.contains(199));
        assert!(s.remove(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 63, 200]);
        // Contains/remove past the boxed extent are safe no-ops.
        assert!(!s.contains(10_000));
        assert!(!s.remove(10_000));
    }

    #[test]
    fn the_two_word_tier_covers_128_indices_without_allocating() {
        let mut s = SharerSet::new();
        s.insert(64); // Inline -> Inline2
        assert!(matches!(s.repr, Repr::Inline2(_)));
        s.insert(127);
        s.insert(0);
        assert!(matches!(s.repr, Repr::Inline2(_)), "127 stays inline");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 127]);
        assert_eq!(s.first(), Some(0));
        assert!(s.remove(0));
        assert_eq!(s.first(), Some(64));
        assert!(s.contains(127) && !s.contains(128));
        // 128 is the first index that forces the hierarchical tier.
        s.insert(128);
        assert!(matches!(s.repr, Repr::Hier { .. }));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![64, 127, 128]);
    }

    #[test]
    fn hierarchical_summary_tracks_leaf_occupancy() {
        let mut s = SharerSet::new();
        s.insert(500); // straight from Inline to Hier
        let Repr::Hier(ref words) = s.repr else {
            panic!("500 must land in the hierarchical tier");
        };
        assert_eq!(words[0], 1u64 << (500 / 64));
        assert_eq!(s.first(), Some(500));
        s.insert(3);
        assert_eq!(s.first(), Some(3));
        assert!(s.remove(3));
        // Leaf 0 emptied: the summary bit must clear so `first` skips it.
        assert_eq!(s.first(), Some(500));
        assert!(s.remove(500));
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
    }

    #[test]
    fn indices_beyond_the_summary_extent_still_work() {
        // SUMMARY_LEAVES * 64 = 4096 is the last summarised index; the
        // tail past it is scanned linearly but must stay correct.
        let mut s = SharerSet::new();
        let big = SUMMARY_LEAVES * 64 + 17;
        s.insert(big);
        assert!(s.contains(big));
        assert!(!s.is_empty());
        assert_eq!(s.first(), Some(big));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![big]);
        s.insert(2);
        assert_eq!(s.first(), Some(2));
        assert!(s.remove(big));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2]);
        assert!(!s.is_empty());
        assert!(s.remove(2));
        assert!(s.is_empty());
    }

    #[test]
    fn single_and_from_iterator() {
        assert_eq!(SharerSet::single(7).iter().collect::<Vec<_>>(), vec![7]);
        assert_eq!(SharerSet::single(100).first(), Some(100));
        let s: SharerSet = [9, 1, 1, 65].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 9, 65]);
    }

    #[test]
    fn equality_is_logical_across_representations() {
        let mut a = SharerSet::new();
        let mut b = SharerSet::new();
        a.insert(12);
        b.insert(12);
        assert_eq!(a, b);
        b.insert(13);
        assert_ne!(a, b);
        // A two-word set whose high members were removed equals the
        // inline set, and likewise for the hierarchical tier.
        let mut wide = SharerSet::new();
        wide.insert(12);
        wide.insert(100);
        wide.remove(100);
        assert_eq!(wide, a);
        assert_eq!(a, wide);
        let mut hier = SharerSet::new();
        hier.insert(12);
        hier.insert(400);
        hier.remove(400);
        assert_eq!(hier, a);
        assert_eq!(a, hier);
        assert_eq!(hier, wide);
    }

    #[test]
    fn debug_lists_members() {
        let mut s = SharerSet::new();
        s.insert(2);
        s.insert(70);
        assert_eq!(format!("{s:?}"), "{2, 70}");
    }
}
