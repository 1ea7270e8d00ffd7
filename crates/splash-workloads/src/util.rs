//! Shared helpers for the workload generators.

use mem_trace::{ProcId, Topology};

/// Split `0..n` into `parts` contiguous ranges, as evenly as possible.
/// (The generators' hot paths use [`owned_range`]; this whole-partition
/// view remains as the reference the tests check it against.)
#[cfg(test)]
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts > 0);
    (0..parts).map(|i| nth_chunk(n, parts, i)).collect()
}

/// The `i`-th of `parts` contiguous ranges splitting `0..n` — computed
/// arithmetically, no vector of all ranges.  The first `n % parts` chunks
/// are one longer, exactly as [`chunk_ranges`] lays them out.
fn nth_chunk(n: usize, parts: usize, i: usize) -> std::ops::Range<usize> {
    let base = n / parts;
    let extra = n % parts;
    let start = i * base + i.min(extra);
    let len = base + usize::from(i < extra);
    start..start + len
}

/// The range of items owned by `proc` when `n` items are block-distributed
/// over all processors.
///
/// This sits inside every generator's per-phase loops, so it computes the
/// single processor's range directly instead of materializing (and then
/// cloning one element of) the whole partition.
pub fn owned_range(n: usize, topology: Topology, proc: ProcId) -> std::ops::Range<usize> {
    nth_chunk(n, topology.total_procs(), proc.index())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_everything_without_overlap() {
        for (n, parts) in [(10, 3), (32, 32), (7, 8), (100, 1)] {
            let ranges = chunk_ranges(n, parts);
            assert_eq!(ranges.len(), parts);
            let mut covered = 0;
            let mut expected_start = 0;
            for r in &ranges {
                assert_eq!(r.start, expected_start);
                expected_start = r.end;
                covered += r.len();
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn chunks_are_balanced() {
        let ranges = chunk_ranges(10, 3);
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(lens, vec![4, 3, 3]);
    }

    #[test]
    fn owned_range_respects_topology() {
        let topo = Topology::new(2, 2);
        assert_eq!(owned_range(8, topo, ProcId(0)), 0..2);
        assert_eq!(owned_range(8, topo, ProcId(3)), 6..8);
    }

    #[test]
    fn owned_range_agrees_with_chunk_ranges_everywhere() {
        for (n, topo) in [
            (0, Topology::new(2, 2)),
            (7, Topology::new(2, 2)),
            (130, Topology::new(8, 4)),
            (1 << 17, Topology::new(8, 4)),
            (31, Topology::new(16, 2)),
        ] {
            let all = chunk_ranges(n, topo.total_procs());
            for p in topo.proc_ids() {
                assert_eq!(owned_range(n, topo, p), all[p.index()], "n={n} proc={p:?}");
            }
        }
    }
}
