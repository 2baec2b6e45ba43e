//! The clock every timed operation reads: CPU time of the process.
//!
//! A run does all its work on one rayon worker while the main thread
//! waits, so the process's CPU time over an operation is the host work that
//! operation did. Wall time adds the time the worker waited for a core,
//! which on a shared machine is set by the other tenants' load, not by the
//! program. The deadlines that bound a run stay on the wall clock.

use std::time::Instant;

/// A point on both clocks.
#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    cpu: f64,
    wall: Instant,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp {
            cpu: process_cpu_s(),
            wall: Instant::now(),
        }
    }

    /// CPU seconds the process used since this stamp.
    pub fn secs(&self) -> f64 {
        process_cpu_s() - self.cpu
    }

    /// Wall seconds since this stamp.
    pub fn wall_secs(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }
}

/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` in seconds. It has nanosecond
/// resolution; `/proc/*/schedstat` and `getrusage` advance only at
/// scheduler ticks on some kernels, which is too coarse for the shorter
/// layer calls.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_s() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the 64-bit
    // Linux layout, which is all `clock_gettime` writes through its pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere wall time since the first call stands in.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu_s() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}
