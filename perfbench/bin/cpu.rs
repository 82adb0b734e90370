//! Host time as the CPU time of the calling thread.
//!
//! The benchmark is one thread that never waits on anything but the CPU,
//! so its CPU time is the work it did. Unlike the wall clock, it leaves
//! out the time the thread sat preempted or its virtual CPU was stolen by
//! the hypervisor, which on a shared host is most of the run-to-run noise.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time this thread has used so far.
pub fn now() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the kernel
    // always supports for the calling thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time used since `start`, a value of [`now`].
pub fn since(start: Duration) -> Duration {
    now().saturating_sub(start)
}
