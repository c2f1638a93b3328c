//! The `Clock` seam. The server and the router each read time from one
//! [`SystemClock`] held in their shared state, so every instant their
//! sans-IO cores see has one origin; the cores themselves never read a
//! clock, their drivers stamp each input with `now`. The
//! [`crate::Client`] holds an `Arc<dyn Clock>`, which the deterministic
//! simulator (`lintra-sim`) replaces with a virtual clock, so the real
//! client runs under virtual time.
//!
//! Instants are represented as a [`Duration`] since an arbitrary epoch
//! fixed at clock construction — the only operations the serve layer
//! needs are "how long since X" and "has deadline Y passed", both of
//! which subtraction on `Duration`s answers. This keeps the trait
//! object-safe and trivially implementable by a simulated clock that is
//! just a counter.

use std::fmt::Debug;
use std::time::{Duration, Instant};

/// A monotonic time source plus the ability to block on it.
///
/// The [`crate::Client`] holds an `Arc<dyn Clock>` ([`SystemClock`] by
/// default); the simulator substitutes a virtual clock whose `now`
/// advances only when the event loop says so and whose `sleep` advances
/// virtual time instead of blocking a thread.
pub trait Clock: Send + Sync + Debug {
    /// Monotonic time since this clock's epoch. Never decreases.
    fn now(&self) -> Duration;

    /// Blocks the calling thread for `d` (a virtual clock advances its
    /// own time instead of blocking).
    fn sleep(&self, d: Duration);

    /// A deadline `budget` from now, comparable against later [`Clock::now`]
    /// readings.
    fn deadline(&self, budget: Duration) -> Duration {
        self.now().saturating_add(budget)
    }

    /// True once `deadline` (an earlier [`Clock::deadline`] result) has
    /// passed.
    fn expired(&self, deadline: Duration) -> bool {
        self.now() >= deadline
    }
}

/// The production clock: `Instant`-backed monotonic time and real
/// `thread::sleep`.
#[derive(Debug, Clone)]
pub struct SystemClock {
    base: Instant,
}

impl SystemClock {
    /// A clock whose epoch is the moment of construction.
    pub fn new() -> SystemClock {
        SystemClock {
            base: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> SystemClock {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.base.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic_and_deadlines_expire() {
        let clock = SystemClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a, "monotonic");
        let past = clock.deadline(Duration::ZERO);
        clock.sleep(Duration::from_millis(2));
        assert!(clock.expired(past), "a zero-budget deadline expires");
        let future = clock.deadline(Duration::from_secs(3600));
        assert!(!clock.expired(future), "a distant deadline has not");
    }
}
