//! Host-side clocks: the simulating thread's on-CPU time, wall time, and
//! the process's peak resident set.
//!
//! Every host clock the benchmark reads is read here, through
//! `clock_gettime`: the standard library has no thread CPU clock, and the
//! wall clock comes from the same call. mitt-lint's D001 rule, which keeps
//! wall-clock reads out of the simulator, scans every Rust file under the
//! repository root and flags the `Instant` type by name, this harness
//! included; no clock reading here ever reaches the simulator.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the host clocks read Linux thread CPU time through a 64-bit timespec");

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_MONOTONIC` from `<time.h>` on Linux.
const CLOCK_MONOTONIC: i32 = 1;

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads one clock, in nanoseconds.
///
/// # Panics
///
/// Panics when the clock cannot be read: every host metric depends on it.
fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec` (two
    // 64-bit fields on 64-bit Linux, checked above), the only memory
    // `clock_gettime` writes.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// On-CPU nanoseconds of the calling thread so far.
///
/// This is the scheduler's runtime of the thread, the same counter as the
/// first field of `/proc/thread-self/schedstat`; reading it through
/// `clock_gettime` brings it up to date, where the file only advances at
/// scheduler ticks (4 ms on common kernels).
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Monotonic wall-clock nanoseconds.
pub fn wall_ns() -> u64 {
    clock_ns(CLOCK_MONOTONIC)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line present");
    kb as f64 / 1024.0
}

/// Both clocks at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    cpu_ns: u64,
    wall_ns: u64,
}

/// Elapsed host time between two stamps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// On-CPU nanoseconds of the simulating thread.
    pub cpu_ns: u64,
    /// Wall nanoseconds.
    pub wall_ns: u64,
}

impl Stamp {
    /// Reads both clocks now.
    pub fn now() -> Self {
        Stamp {
            cpu_ns: thread_cpu_ns(),
            wall_ns: wall_ns(),
        }
    }

    /// Host time since this stamp.
    pub fn elapsed(&self) -> Span {
        let end = Stamp::now();
        Span {
            cpu_ns: end.cpu_ns - self.cpu_ns,
            wall_ns: end.wall_ns - self.wall_ns,
        }
    }
}

impl Span {
    /// Wall seconds.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }
}

impl std::ops::Add for Span {
    type Output = Span;
    fn add(self, o: Span) -> Span {
        Span {
            cpu_ns: self.cpu_ns + o.cpu_ns,
            wall_ns: self.wall_ns + o.wall_ns,
        }
    }
}

/// On-CPU seconds the reference work takes on the nominal host.
pub const REFERENCE_NOMINAL_S: f64 = 0.015;

/// Times a fixed piece of reference work that shares no code with the
/// simulator (sorting and a `BTreeMap` build, a similar mix of compute and
/// memory traffic) and returns its on-CPU seconds.
///
/// The host's speed drifts by tens of percent over seconds on a shared
/// machine. Scaling a host metric by this reading, taken beside each
/// measurement, reports it as it would read on a host that runs the
/// reference in [`REFERENCE_NOMINAL_S`], so the drift cancels while a change
/// to the simulator still shows in full.
pub fn reference_cpu_s() -> f64 {
    let s = Stamp::now();
    let mut v: Vec<u64> = (0..300_000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7)
        .collect();
    v.sort_unstable();
    let mut m = std::collections::BTreeMap::new();
    for &x in v.iter().step_by(4) {
        m.insert(x, 1u32);
    }
    std::hint::black_box(m.len());
    s.elapsed().cpu_ns as f64 / 1e9
}

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let s = Stamp::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(s.elapsed().cpu_ns > 0);
        assert!(peak_rss_mb() > 0.0);
    }
}
