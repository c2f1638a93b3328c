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
//!
//! Caches live in memory only: a cold `0..=32` unfolding sweep of a
//! suite design costs about a millisecond, while persisting its cache
//! would cost an fsync'd file write per warm design per sweep. The crate
//! also holds [`crc32`], the one checksum of the workspace: the serve
//! layer's journal records and replication stream, and the MCM-plan
//! golden, all use it.

pub mod cache;
pub mod cancel;
pub mod pool;
pub mod search;

pub use cache::{CacheStats, SweepCache};
pub use cancel::{CancelReason, CancelToken};
pub use pool::{EngineError, SweepCtl, ThreadPool};
pub use search::best_unfolding;

/// CRC32 (IEEE 802.3 polynomial, reflected), byte-at-a-time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
