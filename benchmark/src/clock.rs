//! The benchmark's clocks.  Every reading of the wall clock goes through
//! [`now`], so the repository's determinism lint has one site to check.

use std::time::Instant;

/// The wall clock.  Readings only ever become reported timings; no
/// simulation input or result depends on them.
pub fn now() -> Instant {
    // dsm-lint: allow(wall-clock, the benchmark times the simulator from outside; readings only become reported timings)
    Instant::now() // dsm-lint: allow(det-taint, readings feed reported timings and spans only; fingerprints are compared, never computed from them)
}

/// CPU time the calling thread has used, in nanoseconds.  Unlike the wall
/// clock it does not advance while the hypervisor runs another guest.
#[cfg(target_os = "linux")]
pub fn thread_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and `clock_gettime`
    // writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// Elsewhere the process's monotonic clock stands in.
#[cfg(not(target_os = "linux"))]
pub fn thread_ns() -> u64 {
    use std::sync::OnceLock;
    static START: OnceLock<Instant> = OnceLock::new();
    u64::try_from(START.get_or_init(now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    #[test]
    fn thread_clock_advances_with_work() {
        let a = super::thread_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let b = super::thread_ns();
        assert!(b > a, "{a} -> {b} after {x}");
    }
}
