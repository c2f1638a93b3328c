//! `lintra-client`: the resilient counterpart of the server.
//!
//! One call, [`Client::request`], hides the transport failure modes a
//! misbehaving network (or a chaos-injected server) produces:
//!
//! * **Retry with exponential backoff and jitter** — connect failures,
//!   dropped connections, and unparseable responses are retried up to
//!   [`RetryPolicy::max_attempts`] times, sleeping
//!   `min(base·2ᵏ, max) · uniform[0.5, 1.0)` between attempts. The
//!   jitter stream is seeded ([`RetryPolicy::seed`] mixed with the
//!   request id), so a test replay produces identical pacing.
//! * **Overload is retryable** — a `RES-OVERLOAD` shed is the server
//!   telling the client "back off and come back"; with
//!   [`RetryPolicy::retry_overload`] (the default) the client does
//!   exactly that, and only surfaces the failure once attempts are
//!   exhausted.
//! * **Deadline awareness** — a request carrying `deadline_ms` waits at
//!   most twice that (the server's documented bound) plus a grace period
//!   for the response before declaring the attempt dead.
//!
//! * **Failover awareness** — a client may carry an ordered list of
//!   [`Client::endpoints`] (`"host:a,host:b"`). Within each attempt the
//!   endpoints are walked in order, advancing — without sleeping — past
//!   dead servers and past authoritative `RES-NOT-PRIMARY` /
//!   `RES-STALE-EPOCH` redirects, so a request lands on whichever
//!   replica is currently primary. The walk position is remembered
//!   across attempts of one call, and the idempotency key
//!   (`request_id`) rides along unchanged, so a retry that lands on a
//!   freshly promoted follower is answered from its replicated journal
//!   byte-identically.
//! * **Fail fast when the deadline is hopeless** — when the next backoff
//!   sleep could not possibly leave room for a response within the
//!   request's own budget, the client returns
//!   [`ClientError::DeadlineExhausted`] (`RES-DEADLINE`) immediately
//!   instead of sleeping past the point of no return.
//!
//! Classified failure responses other than overload and the failover
//! redirects (`RES-DEADLINE`, `VAL-CONFIG`, …) are *not* retried: the
//! server answered authoritatively, and the caller decides what to do
//! with the verdict.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

use lintra::matrix::rng::SplitMix64;
use lintra::ErrorClass;
use lintra_bench::wire::{WireRequest, WireResponse};

use crate::clock::{Clock, SystemClock};
use crate::transport::{round_trip, TcpTransport, Transport};

/// Retry tuning; the default is three attempts with 50 ms → 2 s backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included); at least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Also retry `RES-OVERLOAD` sheds (server asked for backoff).
    pub retry_overload: bool,
    /// Jitter seed, mixed with the request id per call.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            retry_overload: true,
            seed: 0x5EED_CAB1E,
        }
    }
}

impl RetryPolicy {
    /// The jittered sleep before retry `attempt` (0-based): full
    /// exponential backoff scaled into `[0.5, 1.0)` — the sleep is
    /// always in `[min(base·2ᵃ, max)/2, min(base·2ᵃ, max))`.
    pub fn backoff(&self, attempt: u32, rng: &mut SplitMix64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(2u32.saturating_pow(attempt))
            .min(self.max_backoff);
        exp.mul_f64(0.5 + rng.next_f64() * 0.5)
    }
}

/// Client-side failure after all resilience was exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// No attempt produced a parseable response (connect refused,
    /// connection dropped, response garbage). Retryable by the caller at
    /// a longer horizon.
    Transport {
        /// Attempts made.
        attempts: u32,
        /// Description of the last failure.
        last_error: String,
    },
    /// The request's own deadline budget cannot survive the next backoff
    /// sleep: retrying would only return an answer the caller has
    /// already given up on. Resource-class, kin of the server's
    /// `RES-DEADLINE`.
    DeadlineExhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// The response budget that ran out.
        budget: Duration,
    },
}

impl ClientError {
    /// Exit code for CLI use: transport failures are I/O-class, an
    /// exhausted deadline is resource-class.
    pub fn exit_code(&self) -> i32 {
        match self {
            ClientError::Transport { .. } => ErrorClass::Io.exit_code(),
            ClientError::DeadlineExhausted { .. } => ErrorClass::Resource.exit_code(),
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport {
                attempts,
                last_error,
            } => {
                write!(
                    f,
                    "request failed after {attempts} attempt(s): {last_error}"
                )
            }
            ClientError::DeadlineExhausted { attempts, budget } => {
                write!(
                    f,
                    "RES-DEADLINE: response budget of {} ms exhausted after {attempts} attempt(s); \
                     not sleeping past the deadline",
                    budget.as_millis()
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A connection-per-request TCP client (the server is newline-delimited
/// and stateless per line, so pooling buys nothing a benchmark would
/// notice at this payload size).
#[derive(Debug, Clone)]
pub struct Client {
    /// Ordered server endpoints (`host:port` each). The first is the
    /// preferred server; the rest are failover replicas, walked in order
    /// when the preferred one is dead or answers `RES-NOT-PRIMARY` /
    /// `RES-STALE-EPOCH`.
    pub endpoints: Vec<String>,
    /// Retry/backoff tuning.
    pub policy: RetryPolicy,
    /// Per-attempt TCP connect budget.
    pub connect_timeout: Duration,
    /// Response wait for requests without a `deadline_ms` of their own.
    pub request_timeout: Duration,
    /// Network seam; [`TcpTransport`] by default, swapped for an
    /// in-memory network under simulation.
    pub transport: Arc<dyn Transport>,
    /// Time seam; [`SystemClock`] by default, swapped for virtual time
    /// under simulation.
    pub clock: Arc<dyn Clock>,
}

/// The replication redirects an endpoint walk advances past without
/// sleeping: the server answered, but authoritatively said "not me".
fn is_redirect(resp: &WireResponse) -> bool {
    matches!(
        &resp.outcome,
        Err(f) if f.code == "RES-NOT-PRIMARY" || f.code == "RES-STALE-EPOCH"
    )
}

impl Client {
    /// A client with default resilience tuning. `addr` is one address or
    /// a comma-separated ordered endpoint list (`"host:a,host:b"`).
    pub fn new(addr: impl Into<String>) -> Client {
        let addr = addr.into();
        let endpoints: Vec<String> = addr
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        Client {
            endpoints,
            policy: RetryPolicy::default(),
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(60),
            transport: Arc::new(TcpTransport),
            clock: Arc::new(SystemClock::new()),
        }
    }

    /// A client with explicit retry tuning.
    pub fn with_policy(addr: impl Into<String>, policy: RetryPolicy) -> Client {
        Client {
            policy,
            ..Client::new(addr)
        }
    }

    /// How long one attempt may wait for the response line: twice the
    /// request's own deadline (the server's bound) plus scheduling grace,
    /// or the client default for deadline-free requests.
    fn response_budget(&self, req: &WireRequest) -> Duration {
        match req.deadline_ms {
            Some(ms) => Duration::from_millis(ms.saturating_mul(2).saturating_add(500)),
            None => self.request_timeout,
        }
    }

    /// Sends one request, retrying transport failures (and optionally
    /// overload sheds) with jittered exponential backoff. With several
    /// [`Client::endpoints`], each attempt walks the list in order,
    /// advancing — without sleeping — past dead endpoints and past
    /// `RES-NOT-PRIMARY` / `RES-STALE-EPOCH` redirects; the walk
    /// position survives across attempts, so once a promoted replica
    /// answers, later attempts go straight to it.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Transport`] when every attempt failed to
    /// produce a parseable response, and
    /// [`ClientError::DeadlineExhausted`] when the next backoff sleep
    /// could not leave room for an answer within the response budget. A
    /// response carrying a classified failure is an `Ok` — inspect
    /// [`WireResponse::outcome`].
    pub fn request(&self, req: &WireRequest) -> Result<WireResponse, ClientError> {
        let mut hasher = DefaultHasher::new();
        req.id.hash(&mut hasher);
        let mut rng = SplitMix64::new(self.policy.seed ^ hasher.finish());
        let attempts = self.policy.max_attempts.max(1);
        let budget = self.response_budget(req);
        let started = self.clock.now();
        let mut last_error = "no endpoints configured".to_string();
        let mut cursor = 0usize;
        for attempt in 0..attempts {
            if attempt > 0 {
                let sleep = self.policy.backoff(attempt - 1, &mut rng);
                let elapsed = self.clock.now().saturating_sub(started);
                if elapsed.saturating_add(sleep) >= budget {
                    // Sleeping would run out the caller's own deadline:
                    // fail fast instead of answering after it matters.
                    return Err(ClientError::DeadlineExhausted {
                        attempts: attempt,
                        budget,
                    });
                }
                self.clock.sleep(sleep);
            }
            // Walk the endpoint list at most once per attempt.
            for _ in 0..self.endpoints.len().max(1) {
                let Some(endpoint) = self.endpoints.get(cursor % self.endpoints.len().max(1))
                else {
                    break;
                };
                match self.try_once(endpoint, req, budget) {
                    Ok(resp) if is_redirect(&resp) => {
                        let code = resp
                            .outcome
                            .as_ref()
                            .err()
                            .map(|f| f.code.clone())
                            .unwrap_or_default();
                        last_error = format!("{endpoint} answered {code}");
                        cursor += 1;
                        if self.endpoints.len() <= 1 {
                            // Nowhere else to go: surface the verdict.
                            return Ok(resp);
                        }
                    }
                    Ok(resp) => {
                        let overload_shed = matches!(
                            &resp.outcome,
                            Err(f) if f.code == "RES-OVERLOAD"
                        );
                        if overload_shed && self.policy.retry_overload && attempt + 1 < attempts {
                            last_error = "shed with RES-OVERLOAD".to_string();
                            break;
                        }
                        return Ok(resp);
                    }
                    Err(e) => {
                        last_error = e;
                        cursor += 1;
                    }
                }
            }
            // A full redirect cycle (every endpoint said "not me") falls
            // through to the next attempt: a promotion is likely in
            // flight and finishes during the backoff sleep.
        }
        Err(ClientError::Transport {
            attempts,
            last_error,
        })
    }

    fn try_once(
        &self,
        endpoint: &str,
        req: &WireRequest,
        budget: Duration,
    ) -> Result<WireResponse, String> {
        let (transport, clock) = (self.transport.as_ref(), self.clock.as_ref());
        let (line, connect) = (req.render_line(), self.connect_timeout);
        let line = round_trip(transport, clock, endpoint, &line, connect, budget)?;
        let resp = WireResponse::parse(&line).map_err(|e| format!("unparseable response: {e}"))?;
        if resp.id != req.id {
            return Err(format!(
                "response id `{}` does not match request `{}`",
                resp.id, req.id
            ));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(350),
            ..RetryPolicy::default()
        };
        let mut rng = SplitMix64::new(7);
        let b0 = p.backoff(0, &mut rng);
        let b1 = p.backoff(1, &mut rng);
        let b4 = p.backoff(4, &mut rng);
        assert!(
            b0 >= Duration::from_millis(50) && b0 < Duration::from_millis(100),
            "{b0:?}"
        );
        assert!(
            b1 >= Duration::from_millis(100) && b1 < Duration::from_millis(200),
            "{b1:?}"
        );
        assert!(
            b4 >= Duration::from_millis(175) && b4 < Duration::from_millis(350),
            "{b4:?}"
        );
    }

    #[test]
    fn jitter_is_deterministic_in_the_seed() {
        let p = RetryPolicy::default();
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for attempt in 0..4 {
            assert_eq!(p.backoff(attempt, &mut a), p.backoff(attempt, &mut b));
        }
    }

    #[test]
    fn connect_refused_exhausts_attempts() {
        // Port 1 on localhost is essentially never listening.
        let client = Client {
            policy: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                ..RetryPolicy::default()
            },
            connect_timeout: Duration::from_millis(200),
            ..Client::new("127.0.0.1:1")
        };
        let req = WireRequest::new("x", lintra_bench::wire::WireOp::Ping);
        let err = client.request(&req).expect_err("nothing listens on port 1");
        match &err {
            ClientError::Transport { attempts, .. } => assert_eq!(*attempts, 2),
            other => panic!("expected a transport failure, got {other:?}"),
        }
        assert_eq!(err.exit_code(), 6);
    }

    #[test]
    fn deadline_requests_get_the_2x_response_budget() {
        let client = Client::new("127.0.0.1:1");
        let mut req = WireRequest::new("x", lintra_bench::wire::WireOp::Ping);
        assert_eq!(client.response_budget(&req), client.request_timeout);
        req.deadline_ms = Some(300);
        assert_eq!(client.response_budget(&req), Duration::from_millis(1100));
    }

    #[test]
    fn endpoint_lists_parse_from_comma_separated_addresses() {
        let client = Client::new(" 127.0.0.1:9001 ,127.0.0.1:9002,, ");
        assert_eq!(
            client.endpoints,
            vec!["127.0.0.1:9001".to_string(), "127.0.0.1:9002".to_string()]
        );
        assert_eq!(Client::new("127.0.0.1:9001").endpoints.len(), 1);
    }

    #[test]
    fn backoff_stays_within_documented_bounds_across_a_seed_sweep() {
        // The contract: every sleep is in [min(base·2ᵃ, max)/2,
        // min(base·2ᵃ, max)). Sweep seeds and attempts to pin it down.
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(40),
            max_backoff: Duration::from_millis(640),
            ..RetryPolicy::default()
        };
        for seed in 0..64u64 {
            let mut rng = SplitMix64::new(seed);
            for attempt in 0..8u32 {
                let exp = p
                    .base_backoff
                    .saturating_mul(2u32.saturating_pow(attempt))
                    .min(p.max_backoff);
                let b = p.backoff(attempt, &mut rng);
                assert!(
                    b >= exp / 2 && b < exp,
                    "seed {seed} attempt {attempt}: {b:?} outside [{:?}, {:?})",
                    exp / 2,
                    exp
                );
            }
        }
    }

    #[test]
    fn hopeless_deadlines_fail_fast_instead_of_sleeping() {
        // A dead endpoint plus a backoff far larger than the response
        // budget: the client must return RES-DEADLINE *quickly* rather
        // than sleeping through the whole backoff schedule.
        let client = Client {
            policy: RetryPolicy {
                max_attempts: 5,
                base_backoff: Duration::from_secs(30),
                ..RetryPolicy::default()
            },
            connect_timeout: Duration::from_millis(200),
            ..Client::new("127.0.0.1:1")
        };
        let mut req = WireRequest::new("x", lintra_bench::wire::WireOp::Ping);
        req.deadline_ms = Some(100); // budget: 700 ms ≪ 15 s minimum sleep
        let started = Instant::now();
        let err = client.request(&req).expect_err("nothing listens on port 1");
        let waited = started.elapsed();
        match &err {
            ClientError::DeadlineExhausted { attempts, budget } => {
                assert_eq!(*attempts, 1, "gave up before the second attempt");
                assert_eq!(*budget, Duration::from_millis(700));
            }
            other => panic!("expected DeadlineExhausted, got {other:?}"),
        }
        assert_eq!(err.exit_code(), 4, "deadline exhaustion is resource-class");
        assert!(
            err.to_string().contains("RES-DEADLINE"),
            "display names the diagnostic: {err}"
        );
        assert!(
            waited < Duration::from_secs(5),
            "failed fast, not after the backoff schedule: {waited:?}"
        );
    }
}
