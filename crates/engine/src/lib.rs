//! Parallel sweep engine for the `lintra` workspace.
//!
//! Everything the paper reports is a *sweep*: Tables 2–4 sweep the
//! 8-design suite, §3 sweeps the unfolding factor `i`, §4 sweeps the
//! processor count `N`. This crate makes those sweeps fast twice over —
//! concurrently, with a dependency-free work-stealing [`ThreadPool`]
//! ([`pool`]), and incrementally, with caches ([`cache`]) that reuse the
//! shared intermediates (`A^k`, `A^k·B`, `C·A^k`, `C·A^k·B`, Horner
//! precomputations) across sweep points — under one non-negotiable
//! contract: **results are bit-identical to the sequential from-scratch
//! path**, asserted with `==` by the differential test layer.
//!
//! The determinism contract has three legs:
//!
//! 1. [`ThreadPool::map`] returns results in input order, so a parallel
//!    sweep is indistinguishable from `items.into_iter().map(f)` however
//!    the scheduler interleaved the work.
//! 2. Cached values are produced by exactly the expressions the
//!    from-scratch code uses (same operands, same order, same kernels),
//!    so reuse changes no bits.
//! 3. Failures are deterministic too: a panicking sweep point surfaces as
//!    [`EngineError::WorkerPanic`] at its own index (siblings unaffected),
//!    and [`ThreadPool::try_map`] reports the lowest failing index.

pub mod cache;
pub mod cancel;
pub mod pool;
pub mod search;
pub mod snapshot;

pub use cache::{CacheStats, SweepCache};
pub use cancel::{CancelReason, CancelToken};
pub use pool::{EngineError, SweepCtl, ThreadPool};
pub use search::best_unfolding;
pub use snapshot::SnapshotError;
