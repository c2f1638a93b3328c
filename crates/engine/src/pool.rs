//! A dependency-free work-stealing thread pool for sweep fan-out.
//!
//! The paper's evaluation is a pile of *independent* sweep points —
//! `(design, strategy)`, `(design, i)`, `(design, N)` — each a pure
//! function of its inputs. This pool runs such a batch across OS threads
//! (std `thread::scope` + channels only, keeping the workspace free of
//! crates-io dependencies) while preserving a hard determinism contract:
//!
//! * **Ordering** — results come back indexed by the input position, so
//!   [`ThreadPool::map`] returns exactly the vector a sequential `map`
//!   would, whatever interleaving the scheduler chose.
//! * **Isolation** — each sweep point runs under
//!   [`std::panic::catch_unwind`]; a panicking point yields an
//!   [`EngineError::WorkerPanic`] *for that index only*. Sibling points
//!   keep running and the pool stays usable (no poisoned locks, no
//!   deadlock: workers never hold a lock while running user code).
//!
//! Scheduling is classic work stealing: task indices are dealt round-robin
//! into one deque per worker; a worker pops its own deque from the front
//! (cache-friendly FIFO of its deal) and, when empty, steals from the
//! *back* of a sibling's deque, so imbalanced sweeps (one slow design)
//! rebalance automatically.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use crate::cancel::{CancelReason, CancelToken};

/// Error from a parallel sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A sweep point panicked inside a worker thread. The point's index
    /// and the panic payload (when it was a string) are preserved; all
    /// sibling points were still evaluated.
    WorkerPanic {
        /// Index of the sweep point in the submitted batch.
        task: usize,
        /// Panic payload, or a placeholder for non-string payloads.
        message: String,
    },
    /// The sweep's [`CancelToken`] was cancelled before this point ran
    /// (graceful shutdown, client gone). The point was skipped.
    Cancelled {
        /// Index of the skipped sweep point.
        task: usize,
    },
    /// The sweep's [`CancelToken`] deadline expired before this point
    /// ran. The point was skipped; cancellation is observed between
    /// points, so the sweep returns within one point's latency of the
    /// deadline.
    DeadlineExpired {
        /// Index of the skipped sweep point.
        task: usize,
    },
    /// The point ran to completion but exceeded the stall budget — the
    /// watchdog flags it as hung rather than trusting a result that took
    /// pathologically long.
    WorkerStall {
        /// Index of the stalled sweep point.
        task: usize,
        /// Observed wall time of the point, milliseconds.
        elapsed_ms: u64,
        /// The configured stall budget, milliseconds.
        budget_ms: u64,
    },
    /// The `LINTRA_JOBS` environment variable held something other than a
    /// positive integer.
    InvalidJobs {
        /// The offending value.
        value: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::WorkerPanic { task, message } => {
                write!(
                    f,
                    "sweep point {task} panicked in a worker thread: {message}"
                )
            }
            EngineError::Cancelled { task } => {
                write!(f, "sweep point {task} skipped: sweep cancelled")
            }
            EngineError::DeadlineExpired { task } => {
                write!(f, "sweep point {task} skipped: sweep deadline expired")
            }
            EngineError::WorkerStall {
                task,
                elapsed_ms,
                budget_ms,
            } => {
                write!(
                    f,
                    "sweep point {task} stalled: ran {elapsed_ms} ms against a \
                     {budget_ms} ms stall budget"
                )
            }
            EngineError::InvalidJobs { value } => {
                write!(f, "LINTRA_JOBS must be a positive integer, got `{value}`")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Per-sweep robustness controls for [`ThreadPool::map_ctl`].
///
/// The default is the classic unbounded sweep ([`ThreadPool::map`]):
/// no cancellation, no stall budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepCtl<'t> {
    /// Cooperative cancellation, observed **between** sweep points: once
    /// the token retires, every not-yet-started point yields
    /// [`EngineError::Cancelled`] / [`EngineError::DeadlineExpired`] at
    /// its index instead of running.
    pub token: Option<&'t CancelToken>,
    /// Watchdog budget per point: a point whose wall time exceeds this is
    /// reported as [`EngineError::WorkerStall`] instead of its value.
    pub stall_budget: Option<Duration>,
}

fn cancel_error(reason: CancelReason, task: usize) -> EngineError {
    match reason {
        CancelReason::Cancelled => EngineError::Cancelled { task },
        CancelReason::DeadlineExpired => EngineError::DeadlineExpired { task },
    }
}

/// Renders a panic payload as a string, mirroring what `std` prints.
fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Recovers a mutex guard even if a sibling panicked while holding it.
///
/// Workers never hold the deque locks across user code, so poisoning can
/// only happen if the *pop itself* panicked (allocation failure); the
/// queue contents are plain indices, always valid to reuse.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fixed-width work-stealing pool.
///
/// The pool is a lightweight handle (it holds only the worker count);
/// worker threads are scoped to each [`ThreadPool::map`] call, so borrowed
/// data can flow into sweep closures without `'static` bounds and there is
/// no shutdown protocol to get wrong.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    jobs: usize,
}

impl ThreadPool {
    /// A pool with exactly `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> ThreadPool {
        ThreadPool { jobs: jobs.max(1) }
    }

    /// A pool sized to the machine (`std::thread::available_parallelism`,
    /// falling back to 1 when the platform cannot tell).
    pub fn auto() -> ThreadPool {
        ThreadPool::new(
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// A pool sized by the `LINTRA_JOBS` environment variable when it is
    /// set, falling back to [`ThreadPool::auto`] when it is absent.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidJobs`] when the variable is set but
    /// is not a positive integer — a validation-class configuration error
    /// rather than a silent fallback.
    pub fn from_env() -> Result<ThreadPool, EngineError> {
        match std::env::var("LINTRA_JOBS") {
            Err(std::env::VarError::NotPresent) => Ok(ThreadPool::auto()),
            Err(std::env::VarError::NotUnicode(_)) => Err(EngineError::InvalidJobs {
                value: "<non-unicode>".to_string(),
            }),
            Ok(raw) => Self::parse_jobs_var(&raw).map(ThreadPool::new),
        }
    }

    /// Validates one `LINTRA_JOBS` value (exposed for the CLI's error
    /// messages and the tests).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidJobs`] unless `raw` parses as an
    /// integer `>= 1`.
    pub fn parse_jobs_var(raw: &str) -> Result<usize, EngineError> {
        match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(EngineError::InvalidJobs {
                value: raw.to_string(),
            }),
        }
    }

    /// Number of worker threads used per sweep.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Evaluates `f` over every item, in parallel, returning per-item
    /// results **in input order**. A panicking item maps to
    /// `Err(EngineError::WorkerPanic)` at its position; every other item
    /// is still evaluated.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<Result<T, EngineError>>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        self.map_ctl(items, f, SweepCtl::default())
    }

    /// [`ThreadPool::map`] under per-sweep robustness controls: a
    /// cooperative [`CancelToken`] observed between sweep points and a
    /// per-point stall budget enforced by timing each point.
    ///
    /// Determinism is unchanged for the points that run: results land at
    /// their input index. Once the token retires, every not-yet-claimed
    /// point deterministically yields the matching cancellation error at
    /// its index (already-running points finish; the pool never
    /// interrupts user code mid-point).
    pub fn map_ctl<I, T, F>(
        &self,
        items: Vec<I>,
        f: F,
        ctl: SweepCtl<'_>,
    ) -> Vec<Result<T, EngineError>>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        // Items parked behind mutexes so any worker can claim any index.
        let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();

        // Deal task indices round-robin into one deque per worker.
        let workers = self.jobs.min(n);
        let mut deques: Vec<VecDeque<usize>> = vec![VecDeque::new(); workers];
        for idx in 0..n {
            deques[idx % workers].push_back(idx);
        }
        let deques: Vec<Mutex<VecDeque<usize>>> = deques.into_iter().map(Mutex::new).collect();

        let (tx, rx) = mpsc::channel::<(usize, Result<T, EngineError>)>();
        let f = &f;
        let slots = &slots;
        let deques = &deques;
        thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || {
                    loop {
                        // Own deque first (front), then steal (back). The
                        // own-deque guard is a statement-scoped temporary,
                        // so it MUST be dropped before probing siblings:
                        // stealing while still holding one's own lock is a
                        // circular wait the moment every deque drains at
                        // once (each worker holds lock w, wants lock w+1).
                        let own = lock_unpoisoned(&deques[w]).pop_front();
                        let idx = own.or_else(|| {
                            (1..workers)
                                .map(|off| (w + off) % workers)
                                .find_map(|v| lock_unpoisoned(&deques[v]).pop_back())
                        });
                        let Some(idx) = idx else { break };
                        let Some(item) = lock_unpoisoned(&slots[idx]).take() else {
                            continue; // claimed by a racing steal
                        };
                        // Cancellation is observed here, between points:
                        // a retired token turns every remaining claim
                        // into its cancellation error without running
                        // user code, so the sweep drains in O(queue)
                        // instead of O(work).
                        if let Some(reason) = ctl.token.and_then(CancelToken::reason) {
                            let _ = tx.send((idx, Err(cancel_error(reason, idx))));
                            continue;
                        }
                        let started = Instant::now();
                        let out = catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| {
                            EngineError::WorkerPanic {
                                task: idx,
                                message: payload_message(payload),
                            }
                        });
                        // Watchdog: a point that blew through the stall
                        // budget is flagged rather than trusted, even
                        // though it eventually returned.
                        let out = match (out, ctl.stall_budget) {
                            (Ok(_), Some(budget)) if started.elapsed() > budget => {
                                Err(EngineError::WorkerStall {
                                    task: idx,
                                    elapsed_ms: started.elapsed().as_millis() as u64,
                                    budget_ms: budget.as_millis() as u64,
                                })
                            }
                            (out, _) => out,
                        };
                        // The receiver outlives the scope; a send can only
                        // fail if the collector itself died, in which case
                        // there is nobody left to report to.
                        let _ = tx.send((idx, out));
                    }
                });
            }
            drop(tx);
        });

        // Reassemble in input order. Every index sends exactly once; a
        // missing slot can only mean its worker died outside catch_unwind
        // (e.g. the runtime aborted the thread), reported per-index.
        let mut out: Vec<Option<Result<T, EngineError>>> = (0..n).map(|_| None).collect();
        for (idx, res) in rx {
            out[idx] = Some(res);
        }
        out.into_iter()
            .enumerate()
            .map(|(idx, slot)| {
                slot.unwrap_or(Err(EngineError::WorkerPanic {
                    task: idx,
                    message: "worker thread died without reporting a result".to_string(),
                }))
            })
            .collect()
    }

    /// Like [`ThreadPool::map`] but short-circuits the *report* (not the
    /// evaluation) to the first failure in input order — the deterministic
    /// merge rule used by the table drivers.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index [`EngineError`] if any sweep point
    /// panicked.
    pub fn try_map<I, T, F>(&self, items: Vec<I>, f: F) -> Result<Vec<T>, EngineError>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        self.map(items, f).into_iter().collect()
    }
}

impl Default for ThreadPool {
    /// [`ThreadPool::from_env`] with a silent fallback to
    /// [`ThreadPool::auto`] on an invalid `LINTRA_JOBS` (Default cannot
    /// report errors; call `from_env` directly to surface them).
    fn default() -> ThreadPool {
        ThreadPool::from_env().unwrap_or_else(|_| ThreadPool::auto())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn map_preserves_input_order() {
        let pool = ThreadPool::new(4);
        let got = pool.try_map((0..64).collect(), |x: i32| x * x).unwrap();
        let want: Vec<i32> = (0..64).map(|x| x * x).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn one_worker_equals_many_workers() {
        let f = |x: u64| x.wrapping_mul(0x9E37_79B9).rotate_left(13);
        let items: Vec<u64> = (0..100).collect();
        let seq = ThreadPool::new(1).try_map(items.clone(), f).unwrap();
        let par = ThreadPool::new(8).try_map(items, f).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn workers_actually_run_concurrently() {
        // Four tasks each wait on a 4-way barrier: the map can only finish
        // if four workers are live at once (OS threads, so this holds even
        // on a single hardware core).
        let barrier = Barrier::new(4);
        let pool = ThreadPool::new(4);
        let got = pool.try_map(vec![0usize; 4], |_| {
            barrier.wait();
            1usize
        });
        assert_eq!(got.unwrap(), vec![1; 4]);
    }

    #[test]
    fn panic_is_isolated_to_its_index() {
        let pool = ThreadPool::new(3);
        let done = AtomicUsize::new(0);
        let results = pool.map((0..10).collect(), |x: usize| {
            if x == 4 {
                panic!("poisoned sweep point {x}");
            }
            done.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(done.load(Ordering::SeqCst), 9, "siblings all evaluated");
        for (i, r) in results.iter().enumerate() {
            if i == 4 {
                let Err(EngineError::WorkerPanic { task, message }) = r else {
                    panic!("index 4 should be a WorkerPanic, got {r:?}");
                };
                assert_eq!(*task, 4);
                assert!(message.contains("poisoned sweep point 4"));
            } else {
                assert_eq!(*r, Ok(i));
            }
        }
        // The pool is reusable after a panic.
        assert_eq!(
            pool.try_map(vec![1, 2, 3], |x: i32| x + 1).unwrap(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn try_map_reports_the_lowest_failing_index() {
        let pool = ThreadPool::new(4);
        let err = pool
            .try_map((0..20).collect(), |x: usize| {
                if x % 7 == 6 {
                    panic!("bad {x}");
                }
                x
            })
            .unwrap_err();
        let EngineError::WorkerPanic { task, .. } = err else {
            panic!("expected a WorkerPanic, got {err:?}");
        };
        assert_eq!(task, 6, "first failure in input order wins");
    }

    #[test]
    fn cancelled_token_skips_unclaimed_points() {
        let pool = ThreadPool::new(2);
        let token = CancelToken::new();
        token.cancel();
        let results = pool.map_ctl(
            (0..8).collect(),
            |x: usize| x,
            SweepCtl {
                token: Some(&token),
                stall_budget: None,
            },
        );
        for (idx, r) in results.iter().enumerate() {
            assert_eq!(*r, Err(EngineError::Cancelled { task: idx }));
        }
        // The pool itself survives a fully-cancelled sweep.
        assert_eq!(
            pool.try_map(vec![1, 2], |x: i32| x * 10).unwrap(),
            vec![10, 20]
        );
    }

    #[test]
    fn expired_deadline_reports_lowest_index_deadline_error() {
        let pool = ThreadPool::new(4);
        let token = CancelToken::with_deadline(Duration::from_millis(0));
        let err = pool
            .map_ctl(
                (0..16).collect(),
                |x: usize| x,
                SweepCtl {
                    token: Some(&token),
                    stall_budget: None,
                },
            )
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert_eq!(err, EngineError::DeadlineExpired { task: 0 });
    }

    #[test]
    fn mid_sweep_deadline_returns_promptly_without_running_the_tail() {
        // 40 points of ~5 ms against a 40 ms deadline: the token retires
        // mid-sweep and the remaining points must be skipped, bounding
        // the total wall time well below the 200 ms a full run needs.
        let pool = ThreadPool::new(1);
        let token = CancelToken::with_deadline(Duration::from_millis(40));
        let started = Instant::now();
        let results = pool.map_ctl(
            (0..40).collect(),
            |x: usize| {
                thread::sleep(Duration::from_millis(5));
                x
            },
            SweepCtl {
                token: Some(&token),
                stall_budget: None,
            },
        );
        assert!(
            started.elapsed() < Duration::from_millis(120),
            "cancellation must bound the sweep, took {:?}",
            started.elapsed()
        );
        assert!(results
            .iter()
            .any(|r| matches!(r, Err(EngineError::DeadlineExpired { .. }))));
        assert!(
            results.iter().any(Result::is_ok),
            "points before the deadline ran"
        );
    }

    #[test]
    fn stalled_point_is_flagged_siblings_unaffected() {
        let pool = ThreadPool::new(2);
        let results = pool.map_ctl(
            (0..6).collect(),
            |x: usize| {
                if x == 3 {
                    thread::sleep(Duration::from_millis(80));
                }
                x
            },
            SweepCtl {
                token: None,
                stall_budget: Some(Duration::from_millis(25)),
            },
        );
        for (idx, r) in results.iter().enumerate() {
            if idx == 3 {
                let Err(EngineError::WorkerStall {
                    task,
                    elapsed_ms,
                    budget_ms,
                }) = r
                else {
                    panic!("index 3 should stall, got {r:?}");
                };
                assert_eq!(*task, 3);
                assert!(*elapsed_ms >= *budget_ms);
                assert_eq!(*budget_ms, 25);
            } else {
                assert_eq!(*r, Ok(idx));
            }
        }
    }

    #[test]
    fn parse_jobs_var_validates() {
        assert_eq!(ThreadPool::parse_jobs_var("4").unwrap(), 4);
        assert_eq!(ThreadPool::parse_jobs_var(" 2 ").unwrap(), 2);
        for bad in ["0", "-1", "four", "", "1.5"] {
            let err = ThreadPool::parse_jobs_var(bad).unwrap_err();
            assert!(
                matches!(&err, EngineError::InvalidJobs { value } if value == bad),
                "{bad:?} -> {err:?}"
            );
        }
    }

    #[test]
    fn from_env_and_default_respect_lintra_jobs() {
        // Env mutation is process-global; this is the only test that
        // touches LINTRA_JOBS, so no lock is needed within this binary.
        std::env::set_var("LINTRA_JOBS", "3");
        assert_eq!(ThreadPool::from_env().unwrap().jobs(), 3);
        assert_eq!(ThreadPool::default().jobs(), 3);
        std::env::set_var("LINTRA_JOBS", "zero");
        assert!(matches!(
            ThreadPool::from_env(),
            Err(EngineError::InvalidJobs { ref value }) if value == "zero"
        ));
        assert!(
            ThreadPool::default().jobs() >= 1,
            "Default falls back to auto"
        );
        std::env::remove_var("LINTRA_JOBS");
        assert!(ThreadPool::from_env().unwrap().jobs() >= 1);
    }

    #[test]
    fn repeated_small_batches_never_deadlock() {
        // Regression: stealing while still holding one's own deque lock
        // was a circular wait once every deque drained at the same time.
        // Tiny batches drained instantly make that window wide; hundreds
        // of rounds across several pool widths hit it reliably.
        for jobs in [2, 4, 8] {
            let pool = ThreadPool::new(jobs);
            for round in 0..200 {
                let n = 1 + round % 16;
                let got = pool.try_map((0..n).collect(), |x: usize| x + 1).unwrap();
                assert_eq!(got, (1..=n).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn empty_and_single_item_batches() {
        let pool = ThreadPool::new(4);
        assert!(pool.map(Vec::<i32>::new(), |x| x).is_empty());
        assert_eq!(pool.try_map(vec![41], |x: i32| x + 1).unwrap(), vec![42]);
    }

    #[test]
    fn auto_pool_has_at_least_one_worker() {
        assert!(ThreadPool::auto().jobs() >= 1);
        assert_eq!(ThreadPool::new(0).jobs(), 1);
    }
}
