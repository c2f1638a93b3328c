//! A circuit breaker around the optimization engine.
//!
//! Worker panics are supposed to be isolated events — the pool catches
//! them per sweep point and the sibling points survive. But *consecutive*
//! panics across requests mean something systemic (a poisoned cache, a
//! pathological input class being replayed, a miscompiled kernel), and
//! re-running the engine just burns cores to produce the same failure.
//! The breaker turns that pattern into fast, explicit rejection:
//!
//! * **Closed** — requests flow; each engine panic increments a
//!   consecutive-failure counter, any other outcome resets it.
//! * **Open** — after [`BreakerConfig::threshold`] consecutive panics,
//!   requests are rejected immediately with `RES-CIRCUIT-OPEN` until
//!   [`BreakerConfig::cooldown`] has elapsed.
//! * **Half-open** — after the cooldown, exactly one probe request is
//!   admitted. Success closes the breaker; failure re-opens it for
//!   another full cooldown. Concurrent requests during the probe are
//!   still rejected, so a recovering engine is never stampeded.

use std::sync::Mutex;
use std::time::Duration;

use crate::server::lock_unpoisoned;

/// Tuning for [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive engine panics that trip the breaker open.
    pub threshold: u32,
    /// How long the breaker stays open before admitting a probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            threshold: 3,
            cooldown: Duration::from_secs(5),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum State {
    Closed { consecutive_failures: u32 },
    Open { since: Duration },
    HalfOpen,
}

/// See the module docs for the state machine.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: Mutex<State>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: Mutex::new(State::Closed {
                consecutive_failures: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // A panic while holding this one-word lock leaves no invariant to
        // protect; keep serving with the last-written state.
        lock_unpoisoned(&self.state)
    }

    /// Asks to run one request through the engine. `now` is the
    /// caller's [`crate::Clock::now`] reading, so a breaker inside a
    /// sans-IO core runs under the simulator's virtual time too.
    ///
    /// # Errors
    ///
    /// Returns the time left until the next probe when the breaker is
    /// open (zero when a half-open probe is already in flight).
    pub fn admit(&self, now: Duration) -> Result<(), Duration> {
        let mut state = self.lock();
        match *state {
            State::Closed { .. } => Ok(()),
            State::HalfOpen => Err(Duration::ZERO),
            State::Open { since } => {
                let waited = now.saturating_sub(since);
                if waited >= self.config.cooldown {
                    // This caller becomes the probe.
                    *state = State::HalfOpen;
                    Ok(())
                } else {
                    Err(self.config.cooldown - waited)
                }
            }
        }
    }

    /// Reports a non-panicking engine outcome (success *or* a classified
    /// error like a deadline): resets the failure streak, closes a
    /// half-open breaker.
    pub fn record_success(&self) {
        *self.lock() = State::Closed {
            consecutive_failures: 0,
        };
    }

    /// Reports an engine worker panic at the caller's clock reading.
    pub fn record_failure(&self, now: Duration) {
        let mut state = self.lock();
        *state = match *state {
            State::Closed {
                consecutive_failures,
            } => {
                let n = consecutive_failures + 1;
                if n >= self.config.threshold {
                    State::Open { since: now }
                } else {
                    State::Closed {
                        consecutive_failures: n,
                    }
                }
            }
            // A failed probe (or a straggler failing while open) re-arms
            // the full cooldown.
            State::HalfOpen | State::Open { .. } => State::Open { since: now },
        };
    }

    /// `"closed"`, `"open"`, or `"half-open"` — for logs and stats.
    pub fn state_label(&self) -> &'static str {
        match *self.lock() {
            State::Closed { .. } => "closed",
            State::Open { .. } => "open",
            State::HalfOpen => "half-open",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown_ms: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            threshold,
            cooldown: Duration::from_millis(cooldown_ms),
        })
    }

    fn at(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    #[test]
    fn stays_closed_below_threshold() {
        let b = breaker(3, 1000);
        b.record_failure(at(0));
        b.record_failure(at(1));
        assert!(b.admit(at(2)).is_ok());
        assert_eq!(b.state_label(), "closed");
    }

    #[test]
    fn success_resets_the_streak() {
        let b = breaker(2, 1000);
        b.record_failure(at(0));
        b.record_success();
        b.record_failure(at(1));
        assert!(
            b.admit(at(2)).is_ok(),
            "streak was reset, one failure is below threshold"
        );
    }

    #[test]
    fn opens_at_threshold_and_reports_retry_delay() {
        let b = breaker(2, 1000);
        b.record_failure(at(0));
        b.record_failure(at(0));
        assert_eq!(b.state_label(), "open");
        let retry_in = b.admit(at(100)).expect_err("open breaker rejects");
        assert_eq!(retry_in, Duration::from_millis(900));
    }

    #[test]
    fn cooldown_elapsing_on_the_virtual_clock_admits_one_probe() {
        let b = breaker(1, 1000);
        b.record_failure(at(500));
        assert!(b.admit(at(1499)).is_err(), "1 ms early is still open");
        assert!(b.admit(at(1500)).is_ok(), "cooldown elapsed: probe");
        assert_eq!(b.state_label(), "half-open");
    }

    #[test]
    fn half_open_probe_success_closes() {
        let b = breaker(1, 0);
        b.record_failure(at(0));
        assert!(
            b.admit(at(0)).is_ok(),
            "zero cooldown: immediately half-open"
        );
        assert_eq!(b.state_label(), "half-open");
        assert!(b.admit(at(0)).is_err(), "only one probe at a time");
        b.record_success();
        assert_eq!(b.state_label(), "closed");
        assert!(b.admit(at(0)).is_ok());
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let b = breaker(1, 0);
        b.record_failure(at(0));
        assert!(b.admit(at(0)).is_ok());
        b.record_failure(at(0));
        // Cooldown is zero, so it goes straight back to a probe slot; the
        // point is that the state passed through Open again.
        assert_eq!(b.state_label(), "open");
    }
}
