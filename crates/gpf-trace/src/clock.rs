//! Clocks: monotonic wall nanoseconds, per-thread CPU time, and a
//! deterministic mock.
//!
//! The thread-CPU timer moved here from gpf-engine's `timing.rs` (which now
//! re-exports it): task durations feed the cluster simulator, where a
//! stage's makespan is bounded by its longest task — so a wall-clock
//! measurement polluted by OS preemption would masquerade as a straggler
//! and corrupt every scaling curve. On Linux we therefore measure **thread
//! CPU time** (`CLOCK_THREAD_CPUTIME_ID`); elsewhere we fall back to wall
//! clock.
//!
//! The `clock_gettime` binding is declared here directly (std already links
//! the platform libc) rather than through the `libc` crate, keeping the
//! workspace's hermetic zero-dependency build.
//!
//! [`MockClock`] replaces *both* clocks on the installing thread with a
//! deterministic arithmetic sequence (`start + k·tick`), which is what
//! makes Chrome-trace exports byte-identical across runs in tests.

use std::cell::Cell;

#[cfg(target_os = "linux")]
mod sys {
    /// `struct timespec` (Linux x86-64/aarch64 ABI: both fields 64-bit).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    /// Monotonic wall clock (`linux/time.h`).
    pub const CLOCK_MONOTONIC: i32 = 1;
    /// CPU-time clock of the calling thread (`linux/time.h`).
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        pub fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
}

#[cfg(target_os = "linux")]
fn gettime(clockid: i32) -> sys::Timespec {
    let mut ts = sys::Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` matching the kernel ABI
    // for this architecture, and both clock ids used in this module are
    // valid on every Linux the workspace targets; clock_gettime writes the
    // struct and performs no other memory access.
    let rc = unsafe { sys::clock_gettime(clockid, &mut ts) };
    if rc != 0 {
        // clock_gettime can only fail here on an exotic kernel lacking the
        // requested clock; report zero instead of reading a
        // partially-written struct.
        return sys::Timespec { tv_sec: 0, tv_nsec: 0 };
    }
    ts
}

#[cfg(not(target_os = "linux"))]
fn process_epoch() -> std::time::Instant {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(std::time::Instant::now)
}

#[derive(Clone, Copy)]
struct MockState {
    next_ns: u64,
    tick_ns: u64,
}

thread_local! {
    static MOCK: Cell<Option<MockState>> = const { Cell::new(None) };
}

/// Consume one tick of the thread's mock clock, if installed.
fn mock_now_ns() -> Option<u64> {
    MOCK.with(|m| {
        let mut st = m.get()?;
        let now = st.next_ns;
        st.next_ns = st.next_ns.saturating_add(st.tick_ns);
        m.set(Some(st));
        Some(now)
    })
}

/// Whether this thread runs under a [`MockClock`] — a run that asked for a
/// reproducible trace, so host measurements other than the clocks stay out
/// of it too.
pub fn mocked() -> bool {
    MOCK.with(|m| m.get().is_some())
}

/// Monotonic wall-clock nanoseconds (mock-aware).
///
/// The absolute value is only meaningful relative to other `now_ns` calls
/// in the same process (CLOCK_MONOTONIC on Linux, an `Instant` anchored at
/// first use elsewhere).
pub fn now_ns() -> u64 {
    if let Some(ns) = mock_now_ns() {
        return ns;
    }
    #[cfg(target_os = "linux")]
    {
        let ts = gettime(sys::CLOCK_MONOTONIC);
        (ts.tv_sec as u64).saturating_mul(1_000_000_000).saturating_add(ts.tv_nsec as u64)
    }
    #[cfg(not(target_os = "linux"))]
    {
        process_epoch().elapsed().as_nanos() as u64
    }
}

/// A started per-thread CPU timer (gpf-engine re-exports this as
/// `TaskTimer`).
pub struct ThreadCpuTimer {
    /// Set when the timer started under a mock clock: elapsed time is then
    /// measured on the same deterministic tick stream.
    mock_start: Option<u64>,
    #[cfg(target_os = "linux")]
    start: sys::Timespec,
    #[cfg(not(target_os = "linux"))]
    start: std::time::Instant,
}

impl ThreadCpuTimer {
    /// Start timing the current thread's CPU consumption.
    pub fn start() -> Self {
        if let Some(ns) = mock_now_ns() {
            return Self {
                mock_start: Some(ns),
                #[cfg(target_os = "linux")]
                start: sys::Timespec { tv_sec: 0, tv_nsec: 0 },
                #[cfg(not(target_os = "linux"))]
                start: std::time::Instant::now(),
            };
        }
        Self {
            mock_start: None,
            #[cfg(target_os = "linux")]
            start: gettime(sys::CLOCK_THREAD_CPUTIME_ID),
            #[cfg(not(target_os = "linux"))]
            start: std::time::Instant::now(),
        }
    }

    /// CPU seconds consumed by this thread since [`ThreadCpuTimer::start`].
    pub fn elapsed_s(&self) -> f64 {
        if let Some(start) = self.mock_start {
            // Under the mock, elapsed time is whole ticks of the same
            // stream — deterministic across runs.
            let now = mock_now_ns().unwrap_or(start);
            return now.saturating_sub(start) as f64 * 1e-9;
        }
        #[cfg(target_os = "linux")]
        {
            let now = gettime(sys::CLOCK_THREAD_CPUTIME_ID);
            (now.tv_sec - self.start.tv_sec) as f64
                + (now.tv_nsec - self.start.tv_nsec) as f64 * 1e-9
        }
        #[cfg(not(target_os = "linux"))]
        {
            self.start.elapsed().as_secs_f64()
        }
    }
}

/// Guard installing a deterministic clock on the **current thread**.
///
/// While alive, every [`now_ns`] / [`ThreadCpuTimer`] call on this thread
/// returns `start_ns`, `start_ns + tick_ns`, `start_ns + 2·tick_ns`, … and
/// [`crate::current_tid`] reports thread id 0, so a single-threaded trace
/// (datasets with one partition take gpf-support's sequential path) is
/// byte-identical across runs. Dropping the guard restores the real clocks.
pub struct MockClock {
    prev: Option<MockState>,
}

impl MockClock {
    /// Install the mock on the current thread.
    pub fn install(start_ns: u64, tick_ns: u64) -> Self {
        let prev = MOCK.with(|m| m.replace(Some(MockState { next_ns: start_ns, tick_ns })));
        crate::recorder::set_tid_override(Some(0));
        Self { prev }
    }
}

impl Drop for MockClock {
    fn drop(&mut self) {
        MOCK.with(|m| m.set(self.prev));
        crate::recorder::set_tid_override(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a, "{b} < {a}");
    }

    #[test]
    fn timer_measures_busy_work() {
        let t = ThreadCpuTimer::start();
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_add(i * i);
        }
        std::hint::black_box(acc);
        let s = t.elapsed_s();
        assert!(s > 0.0, "busy loop consumed CPU: {s}");
        assert!(s < 5.0, "sane upper bound: {s}");
    }

    #[test]
    fn timer_excludes_sleep_on_linux() {
        let t = ThreadCpuTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let s = t.elapsed_s();
        #[cfg(target_os = "linux")]
        assert!(s < 0.02, "sleep must not count as task CPU: {s}");
        #[cfg(not(target_os = "linux"))]
        assert!(s >= 0.05);
    }

    #[test]
    fn mock_clock_ticks_deterministically() {
        let _g = MockClock::install(1000, 10);
        assert_eq!(now_ns(), 1000);
        assert_eq!(now_ns(), 1010);
        let t = ThreadCpuTimer::start(); // consumes tick -> 1020
        assert_eq!(t.elapsed_s(), 10.0 * 1e-9); // 1030 - 1020
        assert_eq!(now_ns(), 1040);
        drop(_g);
        assert!(now_ns() > 1_000_000, "real clock restored");
    }

    #[test]
    fn mock_clock_nests_and_restores() {
        let g1 = MockClock::install(0, 1);
        assert_eq!(now_ns(), 0);
        {
            let _g2 = MockClock::install(500, 1);
            assert_eq!(now_ns(), 500);
        }
        // g1's stream resumes where it left off.
        assert_eq!(now_ns(), 1);
        drop(g1);
    }
}
