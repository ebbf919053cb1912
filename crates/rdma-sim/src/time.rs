//! Monotonic simulation clock and spin-wait primitives.
//!
//! The simulator runs on real wall-clock time: deadlines are nanosecond
//! timestamps relative to a process-wide epoch, and simulated CPU costs are
//! realized by spinning the calling thread for the scaled duration. Using
//! real time keeps the multithreaded behaviour (contention, scheduling,
//! overlap) honest while the cost model controls the magnitudes.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide simulation epoch.
///
/// The epoch is established lazily on first call; all simulator timestamps
/// (deadlines, link reservations, statistics) share it.
#[inline]
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Spin until the clock reaches `deadline_ns` (no-op if already past).
///
/// Used to realize wire-time and deadline waits. Each iteration yields to
/// the OS scheduler: simulated durations are lower bounds on wall time,
/// and peer threads (the other side of an RPC) can make progress even on
/// hosts with fewer cores than simulated threads — without the yield, a
/// single-core host serializes spinning peers on scheduler timeslices
/// and distorts every latency by milliseconds.
#[inline]
pub fn spin_until(deadline_ns: u64) {
    while now_ns() < deadline_ns {
        std::thread::yield_now();
    }
}

/// Spin for `dur_ns` nanoseconds of real time.
#[inline]
pub fn spin_for(dur_ns: u64) {
    if dur_ns == 0 {
        return;
    }
    spin_until(now_ns() + dur_ns);
}

/// How long a waiter may find nothing before it starts napping.
///
/// Far above any in-flight RPC's completion time, so hot-path latency is
/// unaffected; only long-idle waiters (an idle server connection) back
/// off, and they stop starving *active* threads on hosts with fewer cores
/// than simulated pollers.
pub const IDLE_BACKOFF_AFTER_NS: u64 = 300_000;

/// The nap a long-idle waiter takes between checks.
pub const IDLE_NAP: Duration = Duration::from_micros(30);

/// Pause between checks of a waiter that has been dry for `dry_ns`: nap
/// [`IDLE_NAP`] once past [`IDLE_BACKOFF_AFTER_NS`], else run `hot`, the
/// waiter's usual pause. For waiters with nothing to block on; a waiter
/// that holds a condition variable's lock naps on the condvar instead.
#[inline]
pub fn idle_backoff(dry_ns: u64, hot: impl FnOnce()) {
    if dry_ns > IDLE_BACKOFF_AFTER_NS {
        std::thread::sleep(IDLE_NAP);
    } else {
        hot();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn spin_for_waits_at_least_requested() {
        let start = now_ns();
        spin_for(50_000); // 50 us
        assert!(now_ns() - start >= 50_000);
    }

    #[test]
    fn spin_until_past_deadline_returns_immediately() {
        let start = now_ns();
        spin_until(start.saturating_sub(1));
        // Should not have taken measurable time (few microseconds of slack).
        assert!(now_ns() - start < 1_000_000);
    }

    #[test]
    fn spin_for_zero_is_noop() {
        spin_for(0);
    }
}
